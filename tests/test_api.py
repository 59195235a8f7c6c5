"""The public API: what besselgeom exports, and what it no longer does."""

import ast
import inspect
import json
import os
import pathlib
import re
import shlex
import subprocess
import sys

import pytest

import besselgeom
import besselgeom.cli
from test_cli import PINNED_THRESHOLDS

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
    # named kinds are the paper's three, each with its own b and c; u'' is
    # summed in the one loop of eval_u_derivatives, with no second sum where
    # |c z| is subnormal; Gamma(q) is math.gamma's, as q is finite
    for owner, name in ((besselgeom.cli, "to_json"), (besselgeom.cli, "_float_rows"),
                        # the figure table is written from its columns by _write_figure
                        (besselgeom.cli, "figure_record"), (besselgeom.cli, "_figure_json"),
                        (besselgeom.BesselKind, "GENERALIZED"),
                        (besselgeom.bessel, "_kahan_sum"), (besselgeom.bessel, "_MIN_NORMAL"),
                        (besselgeom.bessel, "_gamma"),
                        # the kernel takes the degree of its weight, not a callable
                        (besselgeom.bessel, "_u2_weight"), (besselgeom.criteria, "_star_weight")):
        assert not hasattr(owner, name)
    # the tests' own tuples of criteria, and a closed form only the tests called
    for name in ("AGREEING_CRITERIA", "BETA1_PAIRS", "DISAGREEING_CRITERIA",
                 "SPECIAL_CRITERIA", "starlike_sum_closed_form"):
        assert name not in besselgeom.__all__
        for owner in (besselgeom, besselgeom.conditions, besselgeom.criteria):
            assert not hasattr(owner, name)


def test_every_public_name_is_used():
    # each exported name occurs, as a whole word, at least twice outside
    # __init__.py: its definition and one use in the docs, the scripts, the
    # benchmark or the package itself
    texts = [(SRC.parent / "README.md").read_text(encoding="utf-8")]
    for pattern in ("scripts/*.py", "benchmark/*", "src/besselgeom/*.py"):
        for path in sorted(SRC.parent.glob(pattern)):
            if path.is_file() and path.name != "__init__.py":
                texts.append(path.read_text(encoding="utf-8"))
    text = "\n".join(texts)
    for name in besselgeom.__all__:
        assert len(re.findall(rf"\b{name}\b", text)) >= 2, name


def test_readme_quickstart_runs(capsys):
    # the README's python block, run verbatim, so that the docs cannot rot unnoticed
    readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == blocks[0].count("print(")


def test_readme_cli_examples_run(capsys):
    # each besselgeom command of the README's sh blocks through cli.main, with
    # continuation lines joined, so that the CLI examples cannot rot unnoticed
    readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```sh\n(.*?)^```$", readme, re.DOTALL | re.MULTILINE)
    lines = "".join(blocks).replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("besselgeom ")]
    assert len(commands) == 6
    for argv in commands:
        assert besselgeom.cli.main(argv) == 0, argv
        assert capsys.readouterr().out


def test_fixed_tolerances_and_grid_are_not_parameters():
    # the sums run at criteria.DEFAULT_EPS, the audit on the AUDIT_* grid and
    # find_threshold at thresholds.DEFAULT_TOL: no caller asks for another
    signatures = {
        besselgeom.sum_reports: ["params", "classes", "which"],
        besselgeom.starlike_sum: ["params", "cls"],
        besselgeom.convex_sum: ["params", "cls"],
        besselgeom.consistency_audit: [],
        besselgeom.find_threshold: ["fig_id"],
    }
    for func, names in signatures.items():
        assert list(inspect.signature(func).parameters) == names, func.__name__


def test_quotient_kind_is_one_enum():
    # starlike or convex is one enum in every layer, and disk.QuotientKind still resolves
    kind = besselgeom.QuotientKind
    assert besselgeom.criteria.QuotientKind is kind and besselgeom.disk.QuotientKind is kind
    cases = besselgeom.conditions._SPECIAL_CASES.values()
    assert {case.which for case in cases} == set(kind)
    assert all(not hasattr(case, "convex") for case in cases)


@pytest.mark.parametrize("which", [False, True, "convex"])
def test_which_must_be_a_quotient_kind(which):
    # a bool, the sums' old selector, would otherwise pick a class silently
    params, classes = besselgeom.BesselParams(0.0, 1.0, -1.0), [besselgeom.ClassSpec(0.0, 1.0)]
    for layer in (besselgeom.sum_reports, besselgeom.sup_estimates):
        with pytest.raises(besselgeom.DomainError, match="QuotientKind"):
            layer(params, classes, which)

# ---------------------------------------------------------------------------
# numpy is loaded only where arrays are built: by thresholds, for the table of
# figure, and by the corollary audit; the sign scans of threshold run on cells


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
    for fid in range(1, 7):
        steps[f"threshold-{fid}"] = ["threshold", "--figure", str(fid)]
    out = _fresh(_STEPS, json.dumps(steps))
    assert out == {name: [0, False] for name in ("import", *steps)}


# Runs threshold --figure 1..6 with numpy unimportable and prints the SHA-256
# of each output.
_NO_NUMPY_THRESHOLDS = """
import contextlib, hashlib, io, json, sys
sys.modules["numpy"] = None
from besselgeom import cli

out = {}
for fid in range(1, 7):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(["threshold", "--figure", str(fid)]) == 0
    out[fid] = hashlib.sha256(buf.getvalue().encode()).hexdigest()
print(json.dumps(out))
"""


def test_threshold_bytes_without_numpy():
    # with numpy blocked every threshold output keeps its pinned bytes
    out = _fresh(_NO_NUMPY_THRESHOLDS)
    assert {int(fid): digest for fid, digest in out.items()} == PINNED_THRESHOLDS


def test_cli_source_imports_no_numpy():
    # the figure writer handles the table with array methods (slicing, min,
    # max, ravel, tolist) only; cli itself never imports numpy
    imported = set()
    for node in ast.walk(ast.parse(inspect.getsource(besselgeom.cli))):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module)
    assert imported and not {name for name in imported if name.split(".")[0] == "numpy"}


@pytest.mark.parametrize("name,argv", [
    ("figure", _FIGURE),
    ("audit", None),  # the whole audit grid is one set of array calls per criterion
])
def test_array_paths_load_numpy(name, argv):
    # each in its own interpreter, so that this step is the one that loads it
    out = _fresh(_STEPS, json.dumps({name: argv}))
    assert out == {"import": [0, False], name: [0, True]}
