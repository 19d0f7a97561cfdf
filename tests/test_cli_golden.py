"""Golden outputs of every subcommand on well-formed input.

The fixtures are built below; the expected exit code and stdout payload
of each case are stored in tests/golden/cli.json.  Stdout is compared
byte for byte against the stored payload in canonical form (sorted keys,
two-space indent, trailing newline); `verify` reports are compared with
their `wall_time` dropped.  A deliberate change of output rewrites that
file from `_run_case` for every case in `CASES`.  The `diffeo` and `wp`
cases also run under `python -O`, which strips `assert`.
"""

import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from ucalc.balls import Ball, ClopenRegion, ball_to_json, region_to_json
from ucalc.calculus import identity_model, model_to_json
from ucalc.cia import algebra_to_json, matrix_algebra, qp_algebra, quadratic_extension
from ucalc.cli import main
from ucalc.padic import PadicContext, scalar_to_json, vector_to_json

from reference import padic_model, padic_product_model

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "cli.json")

CTX2 = PadicContext(2, 12)
CTX3 = PadicContext(3, 12)
CTX3_4 = PadicContext(3, 4)
CTX5 = PadicContext(5, 8)
ROOT = Ball.from_ints(CTX3, (0,), 0)
ROOT2 = Ball.from_ints(CTX3, (0, 0), 0)
LEVEL1 = [Ball.from_ints(CTX3, (c,), 1) for c in range(3)]


def _model(coeffs, ball=ROOT, e=1):
    cmap = {exps: CTX3.vector(list(vals)) for exps, vals in coeffs.items()}
    return padic_model([(ball, cmap)], e=e)


def _canonical(obj):
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _fixtures():
    g = _model({(1,): (1,), (2,): (3,)})
    g2 = _model({(1,): (1,), (0,): (3,)})
    # three level-1 pieces with different displacements
    pieces = [
        (b, {(1,): CTX3.vector([1]), (2,): CTX3.vector([3 * (c + 1)])})
        for c, b in enumerate(LEVEL1)
    ]
    g_pieces = padic_model(pieces, e=1)
    # x + 3y^2, y + 9x on Z_3^2
    g_plane = padic_model(
        [(ROOT2, {
            (1, 0): CTX3.vector([1, 9]),
            (0, 2): CTX3.vector([3, 0]),
            (0, 1): CTX3.vector([0, 1]),
        })],
        e=2,
    )
    f_plane = padic_model(
        [(Ball.from_ints(CTX3, (c, 0), 1), {
            (1, 1): CTX3.vector([c + 1, 2]),
            (2, 0): CTX3.vector([1, 0]),
            (0, 0): CTX3.vector([c, 5]),
        }) for c in range(3)],
        e=2,
    )
    # x - (2/3)x^2 + 2x^4 on Z_2: only the exhaustive scan certifies it
    g_p2 = padic_model(
        [(Ball.from_ints(CTX2, (0,), 0), {
            (1,): CTX2.vector([1]),
            (2,): CTX2.vector([CTX2.from_fraction(Fraction(-2, 3))]),
            (4,): CTX2.vector([2]),
        })],
        e=1,
    )
    halves = ClopenRegion([Ball.from_ints(CTX3, (c,), 1) for c in (0, 1)])
    product = padic_product_model(
        [(ROOT, Ball.from_ints(CTX3, (1,), 1), {(1, 1): CTX3.vector([2])})], e=1
    )
    odd_center = ball_to_json(Ball.from_ints(CTX3, (1,), 1))
    odd_center["center"] = [scalar_to_json(CTX3.from_int(4))]
    balls_json = [ball_to_json(b) for b in LEVEL1]
    chart = model_to_json(identity_model(ClopenRegion([ROOT])))
    return {
        "region.json": region_to_json(ClopenRegion([ROOT])),
        "halves.json": region_to_json(halves),
        "two.json": region_to_json(ClopenRegion(LEVEL1[1:])),
        "sq.json": model_to_json(_model({(2,): (1,)})),
        "plane.json": model_to_json(f_plane),
        "g.json": model_to_json(g),
        "g2.json": model_to_json(g2),
        "gpieces.json": model_to_json(g_pieces),
        "gplane.json": model_to_json(g_plane),
        "gp2.json": model_to_json(g_p2),
        "double.json": model_to_json(_model({(1,): (2,)})),
        "product.json": model_to_json(product),
        "qp.json": algebra_to_json(qp_algebra(CTX3_4)),
        "quad.json": algebra_to_json(quadratic_extension(CTX3_4, 2)),
        "mat.json": algebra_to_json(matrix_algebra(CTX3_4, 2)),
        "two_elt.json": vector_to_json(CTX3_4.vector([2])),
        "zero_elt.json": vector_to_json(CTX3_4.vector([0])),
        "quad_elt.json": vector_to_json(CTX3_4.vector([1, 1])),
        "mat_elt.json": vector_to_json(CTX3_4.vector([1, 3, 0, 1])),
        "scalar.json": scalar_to_json(CTX5.from_fraction(-7)),
        "vector.json": vector_to_json(CTX5.vector([0, 25, 3])),
        "ball.json": odd_center,
        "a.json": {
            "index": [0, 1, 2],
            "support": [{"id": 0, "endo": model_to_json(g)}],
        },
        "b.json": {
            "index": [0, 1, 2],
            "support": [
                {"id": 0, "endo": "g2.json"},
                {"id": 1, "endo": model_to_json(g_pieces)},
            ],
        },
        "gd.json": {
            "region": region_to_json(ClopenRegion([ROOT])),
            "pieces": [
                {"source": b, "target": b, "chart": chart} for b in balls_json
            ],
        },
        "eta.json": {
            "index": balls_json,
            "support": [{"id": balls_json[1], "endo": model_to_json(g)}],
        },
    }


# name -> argv; a token naming a fixture file is replaced by its path
CASES = {
    "partition": ["partition", "--region", "region.json", "--cover", "halves.json", "region.json"],
    "partition-level2": [
        "--verify-level", "2", "partition", "--region", "two.json", "--cover", "region.json",
    ],
    "partition-uncovered": ["partition", "--region", "region.json", "--cover", "halves.json"],
    "dq": ["dq", "--fn", "sq.json", "--x", "2", "--y", "1", "--t", "3"],
    "dq-t0": ["dq", "--fn", "sq.json", "--x", "1/2", "--y", "5", "--t", "0"],
    "dq-plane": ["dq", "--fn", "plane.json", "--x", "1,3", "--y", "3,1", "--t", "9"],
    "dq-outside": ["dq", "--fn", "sq.json", "--x", "1/3", "--y", "1", "--t", "3"],
    "verify": ["verify", "chain-rule", "--samples", "5"],
    "verify-flags": [
        "--p", "5", "--N", "8", "--seed", "7", "--verify-level", "2",
        "verify", "omega-isometry", "--samples", "3",
    ],
    "diffeo-certify": ["diffeo", "certify", "--endo", "g.json"],
    "diffeo-certify-pieces": ["--verify-level", "2", "diffeo", "certify", "--endo", "gpieces.json"],
    "diffeo-certify-exhaustive": ["diffeo", "certify", "--endo", "gp2.json", "--level", "4"],
    "diffeo-certify-reject": ["diffeo", "certify", "--endo", "double.json", "--level", "2"],
    "diffeo-invert": ["diffeo", "invert", "--endo", "g.json", "--y", "1", "--prec", "12"],
    "diffeo-invert-plane": ["diffeo", "invert", "--endo", "gplane.json", "--y", "2,1/2", "--prec", "6"],
    "diffeo-induced": ["diffeo", "induced", "--endo", "g.json", "--m", "2"],
    "diffeo-induced-plane": ["diffeo", "induced", "--endo", "gplane.json", "--m", "1"],
    "diffeo-induced-pieces": ["diffeo", "induced", "--endo", "gpieces.json", "--m", "2"],
    "diffeo-invert-pieces": ["diffeo", "invert", "--endo", "gpieces.json", "--y", "5", "--prec", "12"],
    "alg-invert": ["alg", "invert", "--alg", "qp.json", "--elt", "two_elt.json"],
    "alg-invert-quad": ["alg", "invert", "--alg", "quad.json", "--elt", "quad_elt.json"],
    "alg-invert-matrix": ["alg", "invert", "--alg", "mat.json", "--elt", "mat_elt.json"],
    "alg-invert-zero": ["alg", "invert", "--alg", "qp.json", "--elt", "zero_elt.json"],
    "wp-mul": ["wp", "mul", "--a", "a.json", "--b", "b.json"],
    "wp-inv": ["wp", "inv", "--a", "b.json"],
    "wp-conjugate": ["wp", "conjugate", "--global", "gd.json", "--eta", "eta.json"],
    "convert-scalar": ["convert", "--file", "scalar.json", "--from", "scalar", "--to", "scalar"],
    "convert-vector": ["convert", "--file", "vector.json", "--from", "vector", "--to", "vector"],
    "convert-ball": ["convert", "--file", "ball.json", "--from", "ball", "--to", "ball"],
    "convert-ball-region": ["convert", "--file", "ball.json", "--from", "ball", "--to", "region"],
    "convert-region": ["convert", "--file", "halves.json", "--from", "region", "--to", "region"],
    "convert-model": ["convert", "--file", "gpieces.json", "--from", "model", "--to", "model"],
    "convert-model-product": ["convert", "--file", "product.json", "--from", "model", "--to", "model"],
    "convert-algebra": ["convert", "--file", "mat.json", "--from", "algebra", "--to", "algebra"],
}


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    for name, obj in _fixtures().items():
        (root / name).write_text(json.dumps(obj))
    return root


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as fh:
        return json.load(fh)


def _run_case(name, root, capsys):
    """(exit code, stdout) of one case; a verify report loses its wall_time."""
    argv = [str(root / tok) if tok.endswith(".json") else tok for tok in CASES[name]]
    code = main(argv)
    out = capsys.readouterr().out
    if "verify" in CASES[name]:
        payload = json.loads(out)
        payload.pop("wall_time")
        out = _canonical(payload)
    return code, out


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, fixture_dir, golden, capsys):
    code, out = _run_case(name, fixture_dir, capsys)
    assert code == golden[name]["code"]
    assert out == _canonical(golden[name]["payload"])


O_CASES = ("diffeo-", "wp-")


@pytest.mark.parametrize("name", [n for n in sorted(CASES) if n.startswith(O_CASES)])
def test_golden_output_under_python_O(name, fixture_dir, golden):
    """The certified-map kernels signal broken invariants by exceptions,
    not by `assert`, so stdout is byte-identical with asserts stripped."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = [str(fixture_dir / tok) if tok.endswith(".json") else tok for tok in CASES[name]]
    proc = subprocess.run([sys.executable, "-O", "-m", "ucalc.cli"] + argv,
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == golden[name]["code"], proc.stderr
    assert proc.stdout == _canonical(golden[name]["payload"])
