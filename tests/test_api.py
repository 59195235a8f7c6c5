"""The public API: what besselgeom exports, and what it no longer does."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import besselgeom
import besselgeom.cli

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def test_all_names_resolve():
    for name in besselgeom.__all__:
        assert hasattr(besselgeom, name), name


def test_all_sorted_without_duplicates():
    names = besselgeom.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)


def test_removed_names_stay_removed():
    # the disk layer has one evaluator, sup_estimates, which returns the bare
    # sup; nothing raises DegenerateError; the series coefficients come from
    # the one kernel, bessel._coefficients
    for name in ("starlike_quotient", "convex_quotient", "DegenerateError", "SupEstimate",
                 "coefficient"):
        assert name not in besselgeom.__all__
        assert not hasattr(besselgeom, name)
        for module in (besselgeom.bessel, besselgeom.disk, besselgeom.errors):
            assert not hasattr(module, name)
    # records are written by json.dumps, not by a writer of the CLI's own; the
    # named kinds are the paper's three, each with its own b and c
    for owner, name in ((besselgeom.cli, "to_json"), (besselgeom.cli, "_float_rows"),
                        (besselgeom.BesselKind, "GENERALIZED")):
        assert not hasattr(owner, name)


# ---------------------------------------------------------------------------
# numpy is loaded only where arrays are built: by thresholds, for the sign
# scans of threshold and the table of figure


def _fresh(script: str, *args: str) -> dict:
    """The JSON that script prints, run in a fresh interpreter on this checkout."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


# Runs each named step in turn (a library call, or cli.main on its argv) and
# records its result (0 for success) and whether numpy was loaded after it.
_STEPS = """
import contextlib, io, json, sys
import besselgeom, besselgeom.cli
from besselgeom import cli, conditions

params, cls = besselgeom.BesselParams(10.0, 1.0, -0.1), besselgeom.ClassSpec(0.0, 1.0)


def quickstart():
    besselgeom.starlike_condition(params, cls)
    besselgeom.starlike_sum(params, cls)
    besselgeom.convex_sum(params, cls)
    besselgeom.eval_u_derivatives(params, 0.5)
    besselgeom.sup_estimate(params, cls, besselgeom.QuotientKind.STARLIKE)
    return 0


def audit():
    conditions.consistency_audit()
    return 0


calls = {"quickstart": quickstart, "audit": audit}
out = {"import": [0, "numpy" in sys.modules]}
for name, argv in json.loads(sys.argv[1]).items():
    with contextlib.redirect_stdout(io.StringIO()):
        rc = calls[name]() if name in calls else cli.main(argv)
    out[name] = [rc, "numpy" in sys.modules]
print(json.dumps(out))
"""

_CHECK = ["check", "--p", "0.5", "--b", "1", "--c", "-1", "--alpha", "0", "--beta", "0.5"]
_SCAN = ["scan", "--b", "1", "--c", "-1", "--p-range", "0,3", "--alpha-range", "0,0.5",
         "--beta-range", "0.5,1", "--class", "star", "--steps", "3,2,2"]
_FIGURE = ["figure", "--figure", "1", "--low", "0", "--high", "1", "--step", "0.25",
           "--format", "json"]


def test_point_paths_never_load_numpy():
    steps = {"quickstart": None,
             "eval": ["eval", "--p", "0", "--b", "1", "--c", "1", "--z", "0.3", "--w"]}
    for klass in ("star", "convex"):
        for mode in ("all", "theorem", "lemma", "disk"):
            steps[f"check-{klass}-{mode}"] = [*_CHECK, "--class", klass, "--mode", mode]
    steps["scan"] = _SCAN
    steps["audit"] = None
    out = _fresh(_STEPS, json.dumps(steps))
    assert out == {name: [0, False] for name in ("import", *steps)}


@pytest.mark.parametrize("name,argv", [
    ("threshold", ["threshold", "--figure", "1"]),
    ("figure", _FIGURE),
])
def test_array_paths_load_numpy(name, argv):
    # each in its own interpreter, so that this step is the one that loads it
    out = _fresh(_STEPS, json.dumps({name: argv}))
    assert out == {"import": [0, False], name: [0, True]}
