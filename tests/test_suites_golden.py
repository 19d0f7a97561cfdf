"""Golden reports of every verification suite.

Each case runs `ucalc verify` through `main`; the expected exit code and
report are stored in tests/golden/suites.json and compared with their
`wall_time` dropped.  Every suite is pinned at d = 1 and at the benchmark
shape (p = 3, d = 2, m = 3), and a few small precisions pin failing
reports, so the first-failure witness (sample index, sample seed, inputs,
lhs and rhs) is fixed too.  A deliberate change of output rewrites that
file from `_run_case` for every case in `CASES`.  The cia-tensor,
scaling, inversion, oplus, unity, omega-isometry, group-axioms and
conjugate cases also run under `python -O`, which strips `assert`.
"""

import json
import os
import subprocess
import sys

import pytest

from ucalc.cli import main

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "suites.json")

SUITE_NAMES = (
    "chain-rule", "scaling", "bilinear", "eval-deriv", "comp-deriv", "partition",
    "unity", "omega-isometry", "inversion", "group-axioms", "cia-tensor",
    "cia-iota", "oplus", "conjugate",
)


def _argv(suite, seed, samples, p=3, N=12, m=3, d=1, e=1, deg=3):
    return [
        "--p", str(p), "--N", str(N), "--seed", str(seed), "--verify-level", str(m),
        "verify", suite, "--samples", str(samples), "--d", str(d), "--e", str(e),
        "--deg", str(deg),
    ]


# name -> argv; six samples at d = 1 reach every index-dependent branch
CASES = {}
for _name in SUITE_NAMES:
    CASES[_name + "-d1"] = _argv(_name, 11, 6)
    CASES[_name + "-d2"] = _argv(_name, 11, 3, d=2)
CASES.update({
    "chain-rule-e2": _argv("chain-rule", 3, 4, e=2, deg=2),
    "omega-isometry-p2": _argv("omega-isometry", 4, 3, p=2, N=6, m=2),
    "inversion-p5": _argv("inversion", 4, 3, p=5, N=6, m=2),
    # small precisions: real failures with their witnesses
    "chain-rule-fail": _argv("chain-rule", 5, 6, N=2, m=2),
    "chain-rule-fail-p2": _argv("chain-rule", 5, 6, p=2, N=3, m=2),
    "eval-deriv-fail": _argv("eval-deriv", 5, 6, N=2, m=2),
    "comp-deriv-fail": _argv("comp-deriv", 2, 6, N=2, m=2),
    # the limit comparison loses all N digits: one failing sample, no abort
    "comp-deriv-precision-loss": _argv("comp-deriv", 5, 6, N=2, m=2),
    "cia-tensor-fail": _argv("cia-tensor", 5, 6, p=2, N=3, m=2),
    "oplus-fail": _argv("oplus", 5, 6, p=2, N=3, m=2),
})


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as fh:
        return json.load(fh)


def _run_case(name, capsys):
    """(exit code, report without wall_time) of one case."""
    code = main(CASES[name])
    report = json.loads(capsys.readouterr().out)
    report.pop("wall_time")
    return code, report


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_suite_golden(name, golden, capsys):
    code, report = _run_case(name, capsys)
    assert code == golden[name]["code"]
    assert report == golden[name]["report"]


O_SUITES = ("cia-tensor", "scaling", "inversion", "oplus", "unity", "omega-isometry", "group-axioms",
            "conjugate")


@pytest.mark.parametrize("name", [n for n in sorted(CASES) if n.startswith(O_SUITES)])
def test_suite_golden_under_python_O(name, golden):
    """The exact kernels signal broken invariants by exceptions, not by
    `assert`, so the reports are the same with asserts stripped."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-O", "-m", "ucalc.cli"] + CASES[name],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == golden[name]["code"], proc.stderr
    report = json.loads(proc.stdout)
    report.pop("wall_time")
    assert json.dumps(report, sort_keys=True) == json.dumps(golden[name]["report"], sort_keys=True)
