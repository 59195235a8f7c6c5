"""Inputs of the three benchmark workloads, made from the seed alone.

Only math, random and dataclasses are imported here.  The worker imports
this module inside its timed set-up (for the warm-up operation), where it
adds well under a millisecond to what besselgeom imports itself; the
checker imports it to rebuild the same inputs from the seed.

A round is the fixed list of operations that every run repeats whole, so
that the share of failed operations is the same in every run.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

WORKLOADS = ("scan-grid", "point-certify", "threshold-audit")

# ---------------------------------------------------------------------------
# scan-grid: eight grids of 30 x 3 x 1 = 90 points each.  Every grid keeps
# q = p + (b+1)/2 > 0, so no row meets a pole and every command exits 0.

SCAN_STEPS = (30, 3, 1)
SCAN_ALPHA_RANGE = (0.0, 0.5)
SCAN_BETA_RANGE = (1.0, 1.0)

# (label, b, c, p-range); the generalized grid has q >= 0.25 and |c| = 25,
# so its series needs more terms than the three classical kinds.
SCAN_GRIDS = (
    ("first-kind", 1.0, 1.0, (-0.9, 20.0)),
    ("modified", 1.0, -1.0, (-0.9, 20.0)),
    ("spherical", 2.0, 1.0, (-1.4, 20.0)),
    ("generalized", 0.5, -25.0, (-0.5, 30.0)),
)


@dataclass(frozen=True)
class ScanCommand:
    b: float
    c: float
    p_range: tuple[float, float]
    klass: str

    def argv(self) -> list[str]:
        def pair(lo_hi):
            return f"{lo_hi[0]!r},{lo_hi[1]!r}"

        return [
            "scan", "--b", repr(self.b), f"--c={self.c!r}",
            f"--p-range={pair(self.p_range)}",
            f"--alpha-range={pair(SCAN_ALPHA_RANGE)}",
            f"--beta-range={pair(SCAN_BETA_RANGE)}",
            "--class", self.klass,
            "--steps", ",".join(str(n) for n in SCAN_STEPS),
            "--parallel", "1",
        ]


SCAN_WARMUP = ScanCommand(1.0, 1.0, (-0.9, 20.0), "star")


def scan_round(seed: int) -> list[ScanCommand]:
    """All eight commands (four grids, both classes) in a seeded order."""
    cmds = [
        ScanCommand(b, c, p_range, klass)
        for _, b, c, p_range in SCAN_GRIDS
        for klass in ("star", "convex")
    ]
    random.Random(seed).shuffle(cmds)
    return cmds


# ---------------------------------------------------------------------------
# point-certify: seeded draws, Latin-hypercube stratified in every drawn
# coordinate so that two seeds give draws of nearly the same cost profile.

CERTIFY_DRAWS = 1024
Q_LOW, Q_HIGH = 0.01, 20.0
C_LOW, C_HIGH = 1e-2, 1e4
# The starlike condition evaluates exp(|c| / (q+1)), which overflows a
# binary64 above 709.78.  Seeded starlike draws stay below 700 (q+1); the
# overflow is exercised by the fixed draws below instead, so that it fails
# the same number of times in every round whatever the seed.
STAR_EXP_LIMIT = 700.0


@dataclass(frozen=True)
class CertifyDraw:
    p: float
    b: float
    c: float
    alpha: float
    beta: float
    klass: str
    z: complex


# Seed-independent draws whose starlike condition overflows (|c| > 709.78 (q+1)).
OVERFLOW_DRAWS = (
    CertifyDraw(0.0, 1.0, -2000.0, 0.0, 1.0, "star", 0.5 + 0.5j),
    CertifyDraw(0.5, 2.0, 5000.0, 0.3, 0.6, "star", -0.25 + 0.75j),
    CertifyDraw(5.0, 1.0, -9000.0, 0.0, 1.0, "star", 0.9 + 0j),
    CertifyDraw(-0.4, 0.0, 800.0, 0.5, 0.2, "star", -0.1 - 0.3j),
)

CERTIFY_WARMUP = CertifyDraw(10.0, 1.0, -0.1, 0.0, 1.0, "star", 0.5 + 0.25j)


def _strata(rng: random.Random, n: int) -> list[float]:
    """One uniform in each of n equal slices of [0, 1), in random order."""
    perm = list(range(n))
    rng.shuffle(perm)
    return [(perm[i] + rng.random()) / n for i in range(n)]


def certify_round(seed: int, n: int = CERTIFY_DRAWS) -> list[CertifyDraw]:
    """n seeded draws with the fixed overflow draws spread among them."""
    rng = random.Random(seed)
    uq, uc, ub, uk, ua, ubeta, ur, uth, us = (_strata(rng, n) for _ in range(9))
    draws = []
    for i in range(n):
        q = Q_LOW + (Q_HIGH - Q_LOW) * (1.0 - uq[i])
        if ub[i] < 1.0 / 3.0:
            b = 1.0
        elif ub[i] < 2.0 / 3.0:
            b = 2.0
        else:
            b = 3.0 * (3.0 * ub[i] - 2.0)
        klass = "star" if uk[i] < 0.5 else "convex"
        c_high = min(C_HIGH, STAR_EXP_LIMIT * (q + 1.0)) if klass == "star" else C_HIGH
        mag = math.exp(math.log(C_LOW) + uc[i] * (math.log(c_high) - math.log(C_LOW)))
        c = mag if us[i] < 0.5 else -mag
        z = math.sqrt(ur[i]) * complex(math.cos(2 * math.pi * uth[i]), math.sin(2 * math.pi * uth[i]))
        draws.append(CertifyDraw(
            p=q - (b + 1.0) / 2.0, b=b, c=c,
            alpha=0.95 * ua[i], beta=0.05 + 0.95 * ubeta[i],
            klass=klass, z=z,
        ))
    stride = n // len(OVERFLOW_DRAWS)
    for j, d in enumerate(OVERFLOW_DRAWS):
        draws.insert(j * (stride + 1), d)
    return draws


# ---------------------------------------------------------------------------
# threshold-audit: one pass over the six threshold commands, one JSON
# figure table of 10,000 rows and the printed-vs-derived audit.

FIGURE_TABLE_ID = 1
FIGURE_STEP = 0.01
FIGURE_ROWS = 10_000
# Published 4-decimal threshold orders; figure 2 has no root.
PUBLISHED_THRESHOLDS = {1: -1.5314, 3: -2.0314, 4: -1.5254, 5: 3.8523, 6: -2.0254}
SINGULARITIES = {1: -2.0, 2: -2.0, 3: -2.5, 4: -2.0, 5: -2.0, 6: -2.5}

THRESHOLD_WARMUP = ["threshold", "--figure", "1"]


def figure_argv(seed: int) -> list[str]:
    """A 10,000-row table right of the singularity, its phase set by the seed."""
    shift = random.Random(seed).random() * FIGURE_STEP
    low = SINGULARITIES[FIGURE_TABLE_ID] + FIGURE_STEP + shift
    high = low + (FIGURE_ROWS - 1) * FIGURE_STEP
    return [
        "figure", "--figure", str(FIGURE_TABLE_ID),
        f"--low={low!r}", f"--high={high!r}", f"--step={FIGURE_STEP!r}",
        "--format", "json",
    ]


def round_inputs(workload: str, seed: int) -> list[tuple[str, object]]:
    """The operations of one round, in order, as (kind, input) pairs."""
    if workload == "scan-grid":
        return [("scan", cmd) for cmd in scan_round(seed)]
    if workload == "point-certify":
        return [("certify", draw) for draw in certify_round(seed)]
    if workload == "threshold-audit":
        return [("threshold", fig) for fig in range(1, 7)] + [
            ("figure", figure_argv(seed)), ("audit", None)]
    raise ValueError(f"unknown workload {workload!r}")
