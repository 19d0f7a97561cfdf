import copy
import itertools
import json
import math
import warnings

import pytest

from ucalc.balls import Ball, ClopenRegion, ball_from_json, ball_to_json, region_from_json, region_to_json
from ucalc.calculus import (
    MAX_CODIM,
    MAX_COMPOSITE_DEGREE,
    MAX_DEGREE,
    MAX_PIECES,
    identity_model,
    model_from_json,
    model_to_json,
)
from ucalc.cia import algebra_from_json, algebra_to_json, qp_algebra
from ucalc.cli import MAX_INDUCED_CELLS, ParseError, canonical_json, convert, main, too_many_cells
from ucalc.diffeo import BallEndo, CertifiedDiffeo, certify_omega, induced_level_map
from ucalc.padic import MAX_VALUATION, PRIME_BOUND, PadicContext, scalar_from_json, scalar_to_json, vector_from_json, vector_to_json
from ucalc.suites import (
    MAX_CHILDREN,
    MAX_MONOMIALS,
    MAX_N,
    MAX_SAMPLES,
    MAX_VARIABLES,
    SUITES,
    ConfigInvalid,
    SuiteConfig,
    UnknownSuite,
    _monomials,
    run_suite,
    too_many_children,
    too_many_monomials,
)
from fractions import Fraction

from reference import padic_model

CTX3 = PadicContext(3, 12)
ROOT = Ball.from_ints(CTX3, (0,), 0)

SUITE_NAMES = {
    "chain-rule",
    "scaling",
    "bilinear",
    "eval-deriv",
    "comp-deriv",
    "partition",
    "unity",
    "omega-isometry",
    "inversion",
    "group-axioms",
    "cia-tensor",
    "cia-iota",
    "oplus",
    "conjugate",
}


def model(coeffs, e=1):
    cmap = {exps: CTX3.vector(list(vals)) for exps, vals in coeffs.items()}
    return padic_model([(ROOT, cmap)], e=e)


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def run(capsys, args):
    code = main(args)
    captured = capsys.readouterr()
    return code, json.loads(captured.out), captured.err


# --- suites ---------------------------------------------------------------


def test_suite_registry():
    assert set(SUITES) == SUITE_NAMES


def test_run_suite_deterministic():
    """Equal seeds give identical reports apart from the wall time."""
    cfg = SuiteConfig(seed=7, samples=10)
    r1 = run_suite("chain-rule", cfg).to_json()
    r2 = run_suite("chain-rule", SuiteConfig(seed=7, samples=10)).to_json()
    r1.pop("wall_time")
    r2.pop("wall_time")
    assert r1 == r2


def test_all_suites_pass_smoke():
    for name in SUITES:
        rep = run_suite(name, SuiteConfig(seed=5, samples=5))
        assert rep.passed == rep.checks, (name, rep.failure)


def test_chain_rule_suite_two_dims():
    rep = run_suite("chain-rule", SuiteConfig(seed=42, p=3, d=2, deg=3, samples=25))
    assert rep.passed == rep.checks == 25


def test_scaling_suite_counts_trivial_subcase():
    # the k=1, t=1 case is always prepended
    rep = run_suite("scaling", SuiteConfig(seed=3, samples=4))
    assert rep.checks == 5
    assert rep.passed == 5


def test_unknown_suite():
    with pytest.raises(UnknownSuite):
        run_suite("no-such-suite", SuiteConfig())


def test_config_invalid():
    with pytest.raises(ConfigInvalid):
        run_suite("chain-rule", SuiteConfig(samples=0))
    with pytest.raises(ConfigInvalid):
        run_suite("chain-rule", SuiteConfig(p=4))


# least N: above the half-ball valuation (2 at p = 2, 1 otherwise), >= 2, >= m
@pytest.mark.parametrize("p, m, least", [(2, 1, 3), (2, 3, 3), (3, 1, 2), (3, 3, 3), (3, 4, 4)])
def test_suite_precision_floor(p, m, least):
    SuiteConfig(p=p, N=least, m=m).validate()
    with pytest.raises(ConfigInvalid, match="N must be at least %d" % least):
        SuiteConfig(p=p, N=least - 1, m=m).validate()


@pytest.mark.parametrize("argv", [
    ["--p", "2", "--N", "2", "verify", "omega-isometry", "--samples", "3"],
    ["--p", "2", "--N", "2", "verify", "inversion", "--samples", "3"],
    ["--p", "3", "--N", "1", "verify", "partition", "--samples", "3"],
])
def test_verify_refuses_a_precision_below_the_draws(capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, payload, err = run(capsys, argv)
    assert code == 2
    assert payload["error"].startswith("N must be at least 3")
    assert "usage error" in err and "Traceback" not in err


def _monomials_by_filter(d, deg):
    """Reference: every tuple of exponents up to deg, filtered by degree."""
    return [e for e in itertools.product(range(deg + 1), repeat=d) if sum(e) <= deg]


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_monomials_match_the_filtered_product(d):
    for deg in range(6):
        assert _monomials(d, deg) == _monomials_by_filter(d, deg)


def test_monomials_build_only_what_they_return():
    assert len(_monomials(40, 3)) == math.comb(43, 3)


@pytest.mark.parametrize("argv", [
    ["--N", "45", "verify", "chain-rule", "--d", "40", "--samples", "1"],
    ["--N", "45", "--verify-level", "30", "verify", "unity", "--d", "1", "--samples", "1"],
])
def test_suites_run_at_many_variables_and_a_fine_verify_level(capsys, argv):
    code, payload, err = run(capsys, argv)
    assert code == 0
    assert payload["passed"] == payload["checks"] == 1
    assert "Traceback" not in err


# --- convert --------------------------------------------------------------


def test_convert_scalar_fixed_point():
    obj = scalar_to_json(CTX3.from_int(17))
    out = convert(obj, "scalar", "scalar")
    assert out == obj
    assert canonical_json(out) == canonical_json(json.loads(json.dumps(out)))


def test_convert_ball_canonicalizes_center():
    canon = ball_to_json(Ball.from_ints(CTX3, (1,), 1))
    alt = copy.deepcopy(canon)
    alt["center"] = [scalar_to_json(CTX3.from_int(4))]
    assert alt["center"] != canon["center"]
    assert convert(alt, "ball", "ball") == canon


def test_convert_model_fixed_point():
    obj = model_to_json(model({(1,): (1,), (2,): (3,)}))
    assert convert(obj, "model", "model") == obj


def test_convert_model_drops_zero_monomials_and_is_idempotent():
    """A monomial whose coefficients are all exact zeros is left out of the
    canonical form; a coefficient vector with some nonzero scalar stays."""
    zero, one = scalar_to_json(CTX3.zero()), scalar_to_json(CTX3.one())
    f = {"codim": 2, "pieces": [{"ball": ball_to_json(ROOT), "poly": [
        {"exps": [0], "coef": [zero, zero]},
        {"exps": [1], "coef": [zero, one]},
        {"exps": [2], "coef": [one, one]},
    ]}]}
    out = convert(f, "model", "model")
    assert out == {
        "codim": 2,
        "domain": region_to_json(ClopenRegion([ROOT])),
        "pieces": [{"ball": ball_to_json(ROOT), "poly": [
            {"exps": [1], "coef": [zero, one]},
            {"exps": [2], "coef": [one, one]},
        ]}],
    }
    assert convert(out, "model", "model") == out


def test_convert_ball_lifts_to_region():
    b = Ball.from_ints(CTX3, (2,), 1)
    assert convert(ball_to_json(b), "ball", "region") == region_to_json(ClopenRegion([b]))


def test_convert_reports_bad_digit_path():
    with pytest.raises(ParseError) as info:
        convert({"p": 3, "v": 0, "digits": [1, "x"]}, "scalar", "scalar")
    assert info.value.path == "$.digits[1]"


def test_convert_rejects_other_pairs():
    region = region_to_json(ClopenRegion([ROOT]))
    with pytest.raises(ParseError):
        convert(region, "region", "ball")
    with pytest.raises(ParseError):
        convert(region, "region", "polygon")


def test_canonical_json_key_order():
    assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})


# --- command line ---------------------------------------------------------


def test_main_verify_passes(capsys):
    code, payload, err = run(capsys, ["verify", "chain-rule", "--samples", "5"])
    assert code == 0
    assert payload["passed"] == payload["checks"] == 5
    assert payload["config"]["seed"] == 42
    assert "chain-rule" in err


def test_main_verify_unknown_suite(capsys):
    code, payload, _ = run(capsys, ["verify", "polars", "--samples", "2"])
    assert code == 2
    assert "polars" in payload["error"]


def test_main_parse_error_carries_path(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    region = write(tmp_path, "region.json", region_to_json(ClopenRegion([ROOT])))
    code, payload, _ = run(capsys, ["partition", "--region", str(bad), "--cover", region])
    assert code == 2
    assert "path" in payload


def test_main_missing_flag_is_usage_error():
    with pytest.raises(SystemExit) as info:
        main(["wp", "mul", "--a", "only.json"])
    assert info.value.code == 2


def test_main_certify_rejects_with_witness(tmp_path, capsys):
    # gamma(x) = 2x moves points without shrinking displacements
    bad = model({(1,): (2,)})
    path = write(tmp_path, "bad.json", model_to_json(bad))
    code, payload, _ = run(capsys, ["diffeo", "certify", "--endo", path, "--level", "2"])
    assert code == 1
    assert payload["certified"] is False
    assert payload["witness"]


def test_main_diffeo_certify_invert_induced(tmp_path, capsys):
    g = model({(1,): (1,), (2,): (3,)})
    path = write(tmp_path, "g.json", model_to_json(g))

    code, payload, _ = run(capsys, ["diffeo", "certify", "--endo", path])
    assert code == 0
    assert payload["certified"] is True

    code, payload, _ = run(capsys, ["diffeo", "invert", "--endo", path, "--y", "1", "--prec", "12"])
    assert code == 0
    pre = payload["preimage"]
    xq = Fraction(sum(d * 3 ** i for i, d in enumerate(pre[0]["digits"])))
    residual = xq + 3 * xq * xq - 1
    assert residual.numerator % 3 ** 12 == 0

    code, payload, _ = run(capsys, ["diffeo", "induced", "--endo", path, "--m", "2"])
    assert code == 0
    assert sorted(payload["perm"]) == list(range(9))
    cg = CertifiedDiffeo(endo=BallEndo(g), cert=certify_omega(BallEndo(g)))
    assert payload["perm"] == list(induced_level_map(cg, 2))


def test_main_dq_quadratic(tmp_path, capsys):
    """(f(x + ty) - f(x)) / t for f(x) = x^2 is 2xy + ty^2."""
    path = write(tmp_path, "sq.json", model_to_json(model({(2,): (1,)})))
    code, payload, _ = run(capsys, ["dq", "--fn", path, "--x", "2", "--y", "1", "--t", "3"])
    assert code == 0
    assert payload["value"] == vector_to_json(CTX3.vector([7]))


def test_main_dq_rejects_outside_point(tmp_path, capsys):
    path = write(tmp_path, "sq.json", model_to_json(model({(2,): (1,)})))
    code, payload, _ = run(capsys, ["dq", "--fn", path, "--x", "1/3", "--y", "1", "--t", "3"])
    assert code == 1
    assert "error" in payload


def test_main_partition(tmp_path, capsys):
    region = write(tmp_path, "region.json", region_to_json(ClopenRegion([ROOT])))
    half = ClopenRegion([Ball.from_ints(CTX3, (c,), 1) for c in (0, 1)])
    cov1 = write(tmp_path, "cov1.json", region_to_json(half))
    cov2 = write(tmp_path, "cov2.json", region_to_json(ClopenRegion([ROOT])))
    code, payload, _ = run(capsys, ["partition", "--region", region, "--cover", cov1, cov2])
    assert code == 0
    assert payload["level"] == 3
    assert payload["points_checked"] == 27
    for part in payload["parts"]:
        assert part["member"] in (0, 1)


def test_main_partition_refuses_a_cover_from_another_space(tmp_path, capsys):
    region = write(tmp_path, "region.json", region_to_json(ClopenRegion([Ball.from_ints(CTX3, (0,), 1)])))
    cover = write(tmp_path, "cover.json", region_to_json(ClopenRegion([Ball.from_ints(PadicContext(2, 12), (0,), 0)])))
    code, payload, err = run(capsys, ["partition", "--region", region, "--cover", cover])
    assert code == 1
    assert payload["error"] == "balls live in different spaces"
    assert "partition failed: balls live in different spaces" in err


def test_main_alg_invert(tmp_path, capsys):
    alg = write(tmp_path, "alg.json", algebra_to_json(qp_algebra(CTX3)))
    elt = write(tmp_path, "elt.json", vector_to_json(CTX3.vector([2])))
    code, payload, _ = run(capsys, ["alg", "invert", "--alg", alg, "--elt", elt])
    assert code == 0
    half = CTX3.vector([CTX3.from_fraction(Fraction(1, 2))])
    assert payload["inverse"] == vector_to_json(half)

    zero = write(tmp_path, "zero.json", vector_to_json(CTX3.vector([0])))
    code, payload, _ = run(capsys, ["alg", "invert", "--alg", alg, "--elt", zero])
    assert code == 1
    assert "error" in payload


def test_main_wp_mul_and_inv(tmp_path, capsys):
    g1 = model({(1,): (1,), (2,): (3,)})
    g2 = model({(1,): (1,), (0,): (3,)})
    write(tmp_path, "g2.json", model_to_json(g2))
    a = write(tmp_path, "a.json", {
        "index": [0, 1, 2],
        "support": [{"id": 0, "endo": model_to_json(g1)}],
    })
    b = write(tmp_path, "b.json", {
        "index": [0, 1, 2],
        "support": [{"id": 0, "endo": "g2.json"}, {"id": 1, "endo": model_to_json(g2)}],
    })

    code, payload, _ = run(capsys, ["wp", "mul", "--a", a, "--b", b])
    assert code == 0
    assert [item["id"] for item in payload["support"]] == [0, 1]
    assert all(item["entry"]["kind"] == "model" for item in payload["support"])

    code, payload, _ = run(capsys, ["wp", "inv", "--a", a])
    assert code == 0
    entry = payload["support"][0]["entry"]
    assert entry["kind"] == "inverse"
    cg1 = CertifiedDiffeo(endo=BallEndo(g1), cert=certify_omega(BallEndo(g1)))
    fwd = induced_level_map(cg1, entry["level"])
    back = [0] * len(fwd)
    for i, v in enumerate(fwd):
        back[v] = i
    assert entry["induced"] == back


def test_main_wp_conjugate(tmp_path, capsys):
    balls = [Ball.from_ints(CTX3, (c,), 1) for c in range(3)]
    chart = model_to_json(identity_model(ClopenRegion([ROOT])))
    gd = write(tmp_path, "gd.json", {
        "region": region_to_json(ClopenRegion([ROOT])),
        "pieces": [
            {"source": ball_to_json(b), "target": ball_to_json(b), "chart": chart}
            for b in balls
        ],
    })
    g = model({(1,): (1,), (2,): (3,)})
    eta = write(tmp_path, "eta.json", {
        "index": [ball_to_json(b) for b in balls],
        "support": [{"id": ball_to_json(balls[1]), "endo": model_to_json(g)}],
    })
    code, payload, _ = run(capsys, ["wp", "conjugate", "--global", gd, "--eta", eta])
    assert code == 0
    assert len(payload["support"]) == 1
    assert payload["support"][0]["id"] == ball_to_json(balls[1])
    cg = CertifiedDiffeo(endo=BallEndo(g), cert=certify_omega(BallEndo(g)))
    assert payload["support"][0]["entry"]["induced"] == list(induced_level_map(cg, 2))


def test_main_convert_stdout(tmp_path, capsys):
    b = Ball.from_ints(CTX3, (1,), 1)
    path = write(tmp_path, "ball.json", ball_to_json(b))
    code = main(["convert", "--file", path, "--from", "ball", "--to", "region"])
    captured = capsys.readouterr()
    assert code == 0
    assert json.loads(captured.out) == region_to_json(ClopenRegion([b]))


# --- parse errors, malformed input and unused flags ------------------------


GOOD_MODEL = model_to_json(model({(1,): (1,), (2,): (3,)}))


def _plant(obj, keys, value):
    """Deep copy of obj with the node at `keys` replaced by value."""
    obj = copy.deepcopy(obj)
    node = obj
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    return obj


def _scalar(p=3, v=0, N=12, digits=None):
    """A JSON scalar with N digits, by default the unit 1."""
    return {"p": p, "v": v, "digits": digits if digits is not None else [1] + [0] * (N - 1)}


_COEF = ("pieces", 0, "poly", 0, "coef", 0)
_PIECE = GOOD_MODEL["pieces"][0]
_NESTED = _plant(_PIECE, ("ball", "k"), 1)

# (where the bad value goes, the bad value, the path it is reported at, the
# message): each message as the loader gave it before it decoded scalars
# straight into the integer store.  New cases go at the end, so the test
# ids of the earlier ones stay.
MALFORMED_MODELS = [
    (_COEF + ("digits",), [1, "x"], "$.pieces[0].poly[0].coef[0].digits[1]", "digit out of range for p=3: 'x'"),
    (_COEF + ("p",), "3", "$.pieces[0].poly[0].coef[0].p", "p must be an int, got '3'"),
    (_COEF + ("v",), True, "$.pieces[0].poly[0].coef[0].v", 'valuation must be int or "inf", got True'),
    (("pieces", 0, "poly", 0, "exps"), ["a"], "$.pieces[0].poly[0].exps", "exps must be 1 nonnegative ints, got ['a']"),
    (("pieces", 0, "poly", 0, "exps"), [1, 2], "$.pieces[0].poly[0].exps",
     "exps must be 1 nonnegative ints, got [1, 2]"),
    (("pieces", 0, "poly"), 7, "$.pieces[0].poly", "poly must be an array of monomials"),
    (("pieces", 0, "ball", "k"), 13, "$.pieces[0].ball", "ball level 13 exceeds the context precision N=12"),
    (("product",), 5, "$.product", "product must be an array"),
    (("pieces",), [5], "$.pieces[0]", "piece must be an object with a ball"),
    (("pieces",), [{}], "$.pieces[0]", "piece must be an object with a ball"),
    (("codim",), 2, "$.pieces[0].poly[0].coef", "coefficient must be 2 scalars in PadicContext(p=3, N=12)"),
    (_COEF + ("digits",), [3] + [0] * 11, "$.pieces[0].poly[0].coef[0].digits[0]",
     "digit out of range for p=3: 3"),
    (_COEF + ("digits",), [1] + [0] * 5 + [3] + [0] * 5, "$.pieces[0].poly[0].coef[0].digits[6]",
     "digit out of range for p=3: 3"),
    (_COEF + ("digits",), [1] + [0] * 10 + [-1], "$.pieces[0].poly[0].coef[0].digits[11]",
     "digit out of range for p=3: -1"),
    (_COEF + ("digits",), [0, 1] + [0] * 10, "$.pieces[0].poly[0].coef[0].digits[0]",
     "leading digit must be nonzero for a nonzero scalar"),
    (_COEF, _scalar(v="inf"), "$.pieces[0].poly[0].coef[0].digits", "zero scalar must have all-zero digits"),
    (_COEF + ("p",), True, "$.pieces[0].poly[0].coef[0].p", "p must be an int, got True"),
    (_COEF + ("p",), 4, "$.pieces[0].poly[0].coef[0].p", "p must be prime, got 4"),
    (_COEF + ("p",), PRIME_BOUND, "$.pieces[0].poly[0].coef[0].p",
     "primality is decided only below %d, got %d" % (PRIME_BOUND, PRIME_BOUND)),
    (("pieces", 0, "poly", 0, "coef"), [_scalar(), _scalar(N=10)], "$.pieces[0].poly[0].coef[1]",
     "vector coordinates disagree on (p, N)"),
    (("pieces", 0, "poly", 0, "coef"), [_scalar(N=10)], "$.pieces[0].poly[0].coef",
     "coefficient must be 1 scalars in PadicContext(p=3, N=12)"),
    (("pieces", 0, "poly", 0, "exps"), [True], "$.pieces[0].poly[0].exps",
     "exps must be 1 nonnegative ints, got [True]"),
    (("pieces", 0, "ball", "k"), True, "$.pieces[0].ball.k", "ball level k must be an int"),
    (("pieces", 0, "ball", "center", 0), _scalar(v=-1), "$.pieces[0].ball", "ball center must lie in O^d"),
    (("pieces",), [_PIECE, _PIECE], "$",
     "piece balls Ball(p=3, k=0, center=[0]) and Ball(p=3, k=0, center=[0]) overlap"),
    (("pieces",), [_PIECE, _NESTED], "$",
     "piece balls Ball(p=3, k=0, center=[0]) and Ball(p=3, k=1, center=[0]) overlap"),
    (("codim",), True, "$.codim", "codim must be a positive int"),
    (_COEF + ("v",), MAX_VALUATION + 1, "$.pieces[0].poly[0].coef[0].v",
     "valuation %d exceeds the limit %d" % (MAX_VALUATION + 1, MAX_VALUATION)),
    (_COEF + ("v",), -MAX_VALUATION - 1, "$.pieces[0].poly[0].coef[0].v",
     "valuation %d exceeds the limit %d" % (-MAX_VALUATION - 1, MAX_VALUATION)),
    (("codim",), MAX_CODIM + 1, "$.codim", "codim %d exceeds the limit %d" % (MAX_CODIM + 1, MAX_CODIM)),
]


def _model_readers(tmp_path, model_obj):
    """(argv, path prefix) of every command that reads a model file."""
    fn = write(tmp_path, "m.json", model_obj)
    bundle = write(tmp_path, "bundle.json", {"index": [0], "support": [{"id": 0, "endo": model_obj}]})
    ball = ball_to_json(ROOT)
    gd = write(tmp_path, "gd.json", {
        "region": region_to_json(ClopenRegion([ROOT])),
        "pieces": [{"source": ball, "target": ball, "chart": model_obj}],
    })
    eta = write(tmp_path, "eta.json", {"index": [ball], "support": []})
    return [
        (["dq", "--fn", fn, "--x", "1", "--y", "1", "--t", "1"], "$"),
        (["diffeo", "certify", "--endo", fn], "$"),
        (["diffeo", "invert", "--endo", fn, "--y", "1"], "$"),
        (["diffeo", "induced", "--endo", fn], "$"),
        (["convert", "--file", fn, "--from", "model", "--to", "model"], "$"),
        (["wp", "inv", "--a", bundle], "$.support[0].endo"),
        (["wp", "mul", "--a", bundle, "--b", bundle], "$.support[0].endo"),
        (["wp", "conjugate", "--global", gd, "--eta", eta], "$.pieces[0].chart"),
    ]


@pytest.mark.parametrize("keys,value,path", [case[:3] for case in MALFORMED_MODELS])
def test_malformed_model_exits_2_with_path(keys, value, path, tmp_path, capsys):
    message = next(m for k, v, p, m in MALFORMED_MODELS if (k, v, p) == (keys, value, path))
    bad = _plant(GOOD_MODEL, keys, value)
    with pytest.raises(ParseError) as info:
        model_from_json(bad)
    assert (info.value.path, str(info.value)) == (path, "%s at %s" % (message, path))
    for argv, prefix in _model_readers(tmp_path, bad):
        code, payload, err = run(capsys, argv)
        where = prefix + path[1:]
        assert (code, payload) == (2, {"error": "%s at %s" % (message, where), "path": where}), argv
        assert "Traceback" not in err


@pytest.mark.parametrize("obj,path", [
    ({"p": 3, "v": 0, "digits": [1, "x"]}, "$.digits[1]"),
    ({"p": "3", "v": 0, "digits": [1]}, "$.p"),
    ({"p": 4, "v": 0, "digits": [1]}, "$.p"),
    ({"p": 3, "v": 0, "digits": [0, 1]}, "$.digits[0]"),
])
def test_malformed_scalar_exits_2_with_path(obj, path, tmp_path, capsys):
    with pytest.raises(ParseError) as info:
        scalar_from_json(obj)
    assert info.value.path == path
    fn = write(tmp_path, "s.json", obj)
    code, payload, err = run(capsys, ["convert", "--file", fn, "--from", "scalar", "--to", "scalar"])
    assert (code, payload["path"]) == (2, path)
    assert "Traceback" not in err


def test_loader_paths_of_nested_formats():
    alg = algebra_to_json(qp_algebra(CTX3))
    cases = [
        (vector_from_json, [scalar_to_json(CTX3.one()), scalar_to_json(PadicContext(5, 12).one())], "$[1]"),
        (ball_from_json, {"center": [scalar_to_json(CTX3.one())], "k": True}, "$.k"),
        (region_from_json, {"balls": [ball_to_json(ROOT), {"k": 0}]}, "$.balls[1]"),
        (algebra_from_json, _plant(alg, ("t", 0, 0), 5), "$.t[0][0]"),
        (algebra_from_json, _plant(alg, ("t", 0, 0, 0), scalar_to_json(PadicContext(3, 4).one())),
         "$.t[0][0][0]"),
        (algebra_from_json, _plant(alg, ("one", 0), scalar_to_json(CTX3.from_int(2))), "$"),
        (model_from_json, _plant(GOOD_MODEL, ("domain", "balls"), []), "$.domain"),
    ]
    for loader, obj, path in cases:
        with pytest.raises(ParseError) as info:
            loader(obj)
        assert info.value.path == path, (loader, obj)


@pytest.mark.parametrize("argv,path", [
    (["partition", "--region", "{bad}", "--cover", "{region}"], "$.balls[0].center[0].digits[1]"),
    (["partition", "--region", "{region}", "--cover", "{region}", "{bad}"], "$.balls[0].center[0].digits[1]"),
    (["alg", "invert", "--alg", "{alg}", "--elt", "{bad_elt}"], "$[0].digits[1]"),
    (["alg", "invert", "--alg", "{bad_alg}", "--elt", "{elt}"], "$.one[0].digits[1]"),
    (["wp", "mul", "--a", "{bundle}", "--b", "{bad_bundle}"], "$.support[0].endo.pieces"),
    (["wp", "inv", "--a", "{bad_bundle}"], "$.support[0].endo.pieces"),
    (["wp", "inv", "--a", "{bad_ids}"], "$.support[0]"),
    (["wp", "conjugate", "--global", "{bad_gd}", "--eta", "{bundle}"], "$.region.balls[0].center[0].digits[1]"),
])
def test_parse_error_exits_2_from_every_file_command(argv, path, tmp_path, capsys):
    bad_ball = _plant(ball_to_json(ROOT), ("center", 0, "digits"), [1, "x"])
    files = {
        "region": region_to_json(ClopenRegion([ROOT])),
        "bad": {"balls": [bad_ball]},
        "alg": algebra_to_json(qp_algebra(CTX3)),
        "bad_alg": _plant(algebra_to_json(qp_algebra(CTX3)), ("one", 0, "digits"), [1, "x"]),
        "elt": vector_to_json(CTX3.vector([2])),
        "bad_elt": [_plant(scalar_to_json(CTX3.one()), ("digits",), [1, "x"])],
        "bundle": {"index": [0], "support": []},
        "bad_bundle": {"index": [0], "support": [{"id": 0, "endo": {"codim": 1, "pieces": "x"}}]},
        "bad_ids": {"index": [0], "support": [{"endo": GOOD_MODEL}]},
        "bad_gd": {"region": {"balls": [bad_ball]}, "pieces": []},
    }
    paths = {name: write(tmp_path, name + ".json", obj) for name, obj in files.items()}
    code, payload, err = run(capsys, [arg.format(**paths) for arg in argv])
    assert code == 2
    assert payload["path"] == path
    assert "Traceback" not in err


@pytest.mark.parametrize("command", [
    ["partition", "--region", "r.json", "--cover", "c.json"],
    ["dq", "--fn", "f.json", "--x", "1", "--y", "1", "--t", "1"],
    ["diffeo", "induced", "--endo", "g.json"],
    ["alg", "invert", "--alg", "a.json", "--elt", "e.json"],
    ["wp", "inv", "--a", "a.json"],
    ["convert", "--file", "b.json", "--from", "ball", "--to", "ball"],
])
def test_global_flags_a_command_does_not_use_are_refused(command, capsys):
    flags = [("--p", "5"), ("--N", "3"), ("--seed", "1")]
    if command[0] in ("dq", "alg", "convert"):
        flags.append(("--verify-level", "2"))
    for flag, value in flags:
        with pytest.raises(SystemExit) as info:
            main([flag, value] + command)
        assert info.value.code == 2
        assert flag in capsys.readouterr().err


def test_dq_arity_mismatch_is_a_usage_error(tmp_path, capsys):
    path = write(tmp_path, "f.json", model_to_json(model({(2,): [1]})))
    base = {"x": "1", "y": "1", "t": "3"}
    for flag, bad in (("x", "1,2"), ("y", "1,2"), ("t", "1,2")):
        args = dict(base, **{flag: bad})
        argv = ["dq", "--fn", path] + [a for k in ("x", "y", "t") for a in ("--" + k, args[k])]
        code, payload, err = run(capsys, argv)
        assert code == 2, flag
        assert payload["error"].startswith("--%s takes 1 value" % flag)
        assert "usage error" in err and "Traceback" not in err


def test_diffeo_invert_y_arity_mismatch_is_a_usage_error(tmp_path, capsys):
    line = model({(1,): (1,), (2,): (3,)})
    root2 = Ball.from_ints(CTX3, (0, 0), 0)
    plane = padic_model([(root2, {(1, 0): CTX3.vector([1, 9]), (0, 1): CTX3.vector([0, 1])})], e=2)
    # gamma = 2x fails certification; the arity is refused before that
    double = model({(1,): (2,)})
    cases = [(line, "1,2", 1), (plane, "1", 2), (plane, "1,2,3", 2), (double, "1,2", 1)]
    for i, (f, y, n) in enumerate(cases):
        path = write(tmp_path, "g%d.json" % i, model_to_json(f))
        code, payload, err = run(capsys, ["diffeo", "invert", "--endo", path, "--y", y])
        assert code == 2, y
        assert payload["error"] == "--y takes %d value%s here, got %d" % (
            n, "" if n == 1 else "s", y.count(",") + 1)
        assert "usage error" in err and "Traceback" not in err
    path = write(tmp_path, "plane.json", model_to_json(plane))
    code, payload, _ = run(capsys, ["diffeo", "invert", "--endo", path, "--y", "1,2", "--prec", "4"])
    assert code == 0 and len(payload["preimage"]) == 2


def test_large_prime_scalar_converts_quickly(tmp_path, capsys):
    import time

    path = write(tmp_path, "s.json", {"p": 2 ** 61 - 1, "v": 0, "digits": [1]})
    start = time.perf_counter()
    code, payload, _ = run(capsys, ["convert", "--from", "scalar", "--to", "scalar", "--file", path])
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert payload["p"] == 2 ** 61 - 1


def test_prime_beyond_the_primality_bound_is_refused(tmp_path, capsys):
    path = write(tmp_path, "s.json", {"p": 2 ** 89 - 1, "v": 0, "digits": [1]})
    code, payload, _ = run(capsys, ["convert", "--from", "scalar", "--to", "scalar", "--file", path])
    assert code == 2
    assert payload["path"] == "$.p"
    with pytest.raises(ConfigInvalid):
        SuiteConfig(p=2 ** 89 - 1).validate()


def _monomial_model(d, exps):
    ball = Ball.from_ints(CTX3, (0,) * d, 0)
    return model_to_json(padic_model([(ball, {exps: CTX3.vector([1])})], e=1))


@pytest.mark.parametrize("exps", [(MAX_DEGREE,), (MAX_DEGREE - 7, 7)])
def test_loader_accepts_monomials_at_the_degree_limit(exps):
    f = model_from_json(_monomial_model(len(exps), exps))
    assert list(f.pieces[0][1]) == [exps]


@pytest.mark.parametrize("exps", [(MAX_DEGREE + 1,), (MAX_DEGREE - 7, 8), (10 ** 8,)])
def test_loader_refuses_monomials_past_the_degree_limit(exps):
    with pytest.raises(ParseError) as info:
        model_from_json(_monomial_model(len(exps), exps))
    assert info.value.path == "$.pieces[0].poly[0].exps"


def test_dq_on_a_huge_exponent_exits_2_at_once(tmp_path, capsys):
    import time

    obj = _monomial_model(1, (MAX_DEGREE,))
    obj["pieces"][0]["poly"][0]["exps"] = [10 ** 8]
    path = write(tmp_path, "huge.json", obj)
    start = time.perf_counter()
    code, payload, err = run(capsys, ["dq", "--fn", path, "--x", "2", "--y", "1", "--t", "0"])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert payload["path"] == "$.pieces[0].poly[0].exps"
    assert "Traceback" not in err


def test_loader_accepts_the_piece_limit_and_refuses_one_more(tmp_path, capsys):
    """MAX_PIECES level-12 pieces of Z_2 load; one more entry is refused
    at $.pieces before any piece is read (the extra entries are not even
    pieces)."""
    assert MAX_PIECES == 2 ** 12
    ctx = PadicContext(2, 12)
    mono = [{"exps": [1], "coef": vector_to_json(ctx.vector([1]))}]
    obj = {"codim": 1, "pieces": [
        {"ball": ball_to_json(Ball.from_ints(ctx, (c,), 12)), "poly": mono} for c in range(MAX_PIECES)
    ]}
    assert len(model_from_json(obj).piece_balls()) == MAX_PIECES
    obj["pieces"].append(None)
    with pytest.raises(ParseError) as info:
        model_from_json(obj)
    assert info.value.path == "$.pieces"
    path = write(tmp_path, "many.json", {"codim": 1, "pieces": [None] * (MAX_PIECES + 1)})
    code, payload, err = run(capsys, ["convert", "--file", path, "--from", "model", "--to", "model"])
    assert code == 2
    assert payload == {"error": "4097 pieces exceed the limit 4096 at $.pieces", "path": "$.pieces"}
    assert "Traceback" not in err


@pytest.mark.parametrize("p, d, m", [(2, 1, 16), (2, 2, 8), (2, 4, 4), (3, 1, 10), (5, 1, 6)])
def test_induced_cell_budget_boundary(p, d, m):
    """The last level inside the budget and the first past it; the count
    is computed, no cell is enumerated."""
    assert p ** (d * m) <= MAX_INDUCED_CELLS < p ** (d * (m + 1))
    assert not too_many_cells(p, d, m)
    assert too_many_cells(p, d, m + 1)
    assert too_many_cells(p, d, 10 ** 9)


@pytest.mark.parametrize("v", [MAX_VALUATION, -MAX_VALUATION])
def test_loader_accepts_valuations_at_the_limit(v, tmp_path, capsys):
    import time

    obj = _plant(GOOD_MODEL, _COEF + ("v",), v)
    path = write(tmp_path, "v.json", obj)
    start = time.perf_counter()
    code, payload, _ = run(capsys, ["convert", "--file", path, "--from", "model", "--to", "model"])
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert payload["pieces"][0]["poly"][0]["coef"][0]["v"] == v


@pytest.mark.parametrize("v", [MAX_VALUATION + 1, -MAX_VALUATION - 1, 10 ** 6])
def test_scalar_loader_refuses_valuations_past_the_limit(v, tmp_path, capsys):
    path = write(tmp_path, "s.json", _scalar(v=v))
    code, payload, err = run(capsys, ["convert", "--file", path, "--from", "scalar", "--to", "scalar"])
    assert (code, payload["path"]) == (2, "$.v")
    assert "Traceback" not in err
    assert scalar_from_json(_scalar(v=MAX_VALUATION)).v == MAX_VALUATION


def test_loader_accepts_codim_at_the_limit():
    obj = {"codim": MAX_CODIM, "pieces": [{"ball": ball_to_json(ROOT), "poly": []}]}
    assert model_from_json(obj).e == MAX_CODIM


def test_loader_refuses_a_monomial_free_piece_of_another_precision(tmp_path, capsys):
    """Three level-1 pieces of a p = 3 model at N = 12; the second has no
    monomials and a ball centre of 5 digits."""
    mono = [{"exps": [1], "coef": vector_to_json(CTX3.vector([1]))}]
    pieces = [{"ball": ball_to_json(Ball.from_ints(CTX3, (c,), 1)), "poly": mono} for c in range(3)]
    pieces[1] = {"ball": ball_to_json(Ball.from_ints(PadicContext(3, 5), (1,), 1)), "poly": []}
    path = write(tmp_path, "mixed.json", {"codim": 1, "pieces": pieces})
    code, payload, err = run(capsys, ["convert", "--file", path, "--from", "model", "--to", "model"])
    assert (code, payload) == (2, {"error": "piece balls disagree on (p, N) at $.pieces[1].ball",
                                   "path": "$.pieces[1].ball"})
    assert "Traceback" not in err


@pytest.mark.parametrize("d, deg", [(1, MAX_MONOMIALS - 1), (2, 360), (4, 32), (6, 15), (16, 5)])
def test_monomial_limit_boundary(d, deg):
    """The last degree inside the limit and the first past it; the count is
    computed, no monomial is enumerated."""
    assert math.comb(d + deg, d) <= MAX_MONOMIALS < math.comb(d + deg + 1, d)
    assert not too_many_monomials(d, deg) and not too_many_monomials(deg, d)
    assert too_many_monomials(d, deg + 1) and too_many_monomials(deg + 1, d)
    assert too_many_monomials(d, 10 ** 18) and too_many_monomials(10 ** 18, 10 ** 18)


@pytest.mark.parametrize("suite, d, deg", [("eval-deriv", 30, 10), ("chain-rule", 200, 8), ("scaling", 6, 17),
                                           ("comp-deriv", 1, MAX_MONOMIALS)])
def test_suites_past_the_monomial_limit_exit_2_before_drawing(suite, d, deg, capsys, monkeypatch):
    from ucalc import suites

    def no_enumeration(*args):
        raise AssertionError("monomials enumerated")

    monkeypatch.setattr(suites, "_monomials", no_enumeration)
    code, payload, err = run(capsys, ["verify", suite, "--d", str(d), "--deg", str(deg), "--samples", "1"])
    assert code == 2
    assert payload["error"] == "--d %d and --deg %d give C(%d, %d) monomials, more than the %d allowed" % (
        d, deg, d + deg, d, MAX_MONOMIALS)
    assert "Traceback" not in err


def _no_suite(cfg):
    """Stands in for a suite whose limits are checked: draws nothing."""
    return 0, 0, None


@pytest.mark.parametrize("suite", ["chain-rule", "scaling", "eval-deriv", "comp-deriv"])
def test_degree_suites_at_and_past_the_variable_limit(suite, capsys, monkeypatch):
    """--d MAX_VARIABLES at --deg 1 is accepted and one more exits 2 naming
    --d before any draw; a stub stands in for the suite."""
    from ucalc import suites

    monkeypatch.setitem(SUITES, suite, _no_suite)

    def no_enumeration(*args):
        raise AssertionError("monomials enumerated")

    monkeypatch.setattr(suites, "_monomials", no_enumeration)
    argv = ["verify", suite, "--deg", "1", "--d"]
    code, payload, _ = run(capsys, argv + [str(MAX_VARIABLES)])
    assert code == 0 and payload["checks"] == 0
    for d in (MAX_VARIABLES + 1, 65535):
        code, payload, err = run(capsys, argv + [str(d)])
        assert code == 2
        assert payload["error"] == "--d %d exceeds the limit %d" % (d, MAX_VARIABLES)
        assert "usage error" in err


@pytest.mark.parametrize("flag, top", [("--samples", MAX_SAMPLES), ("--e", MAX_CODIM), ("--N", MAX_N)])
def test_suite_size_flags_at_and_past_their_limits(flag, top, capsys, monkeypatch):
    """The limit itself is accepted and the next value exits 2 naming the
    flag; a stub stands in for the suite, so no sample runs."""
    monkeypatch.setitem(SUITES, "chain-rule", _no_suite)

    def argv(value):
        if flag == "--N":
            return ["--N", str(value), "verify", "chain-rule"]
        return ["verify", "chain-rule", flag, str(value)]

    code, payload, _ = run(capsys, argv(top))
    assert code == 0 and payload["checks"] == 0
    code, payload, err = run(capsys, argv(top + 1))
    assert code == 2
    assert payload["error"] == "%s %d exceeds the limit %d" % (flag, top + 1, top)
    assert "usage error" in err


@pytest.mark.parametrize("p, d", [(2, 10), (3, 6), (31, 2), (1021, 1)])
def test_child_limit_boundary(p, d):
    """The finest dimension inside the limit and the first past it; no
    power of p beyond the limit is formed."""
    assert p ** d <= MAX_CHILDREN < p ** (d + 1)
    assert not too_many_children(p, d)
    assert too_many_children(p, d + 1) and too_many_children(p, 10 ** 18)


@pytest.mark.parametrize("suite", ["partition", "unity", "omega-isometry", "inversion", "group-axioms",
                                   "conjugate"])
def test_cell_suites_at_and_past_the_child_limit(suite, capsys, monkeypatch):
    """p^d = 2^10 cells at level 1 is accepted; 2^11, p = 1031 at d = 1 and
    3^(10^9) exit 2 naming --d before the suite runs."""
    monkeypatch.setitem(SUITES, suite, _no_suite)
    assert run(capsys, ["--p", "2", "verify", suite, "--d", "10"])[0] == 0
    for p, d in ((2, 11), (1031, 1), (3, 10 ** 9)):
        code, payload, err = run(capsys, ["--p", str(p), "verify", suite, "--d", str(d)])
        assert code == 2
        assert payload["error"] == "--d %d at p=%d gives %d^%d cells at level 1, more than the %d allowed" % (
            d, p, p, d, MAX_CHILDREN)
        assert "Traceback" not in err


def test_bilinear_at_and_past_the_monomial_limit(capsys, monkeypatch):
    """Its product maps have d^2 monomials: d = 256 gives exactly 2^16."""
    monkeypatch.setitem(SUITES, "bilinear", _no_suite)
    assert run(capsys, ["verify", "bilinear", "--d", "256"])[0] == 0
    code, payload, _ = run(capsys, ["verify", "bilinear", "--d", "257"])
    assert code == 2
    assert payload["error"] == "--d 257 gives bilinear maps of 66049 monomials, more than the 65536 allowed"


def test_induced_past_the_cell_budget_exits_2_before_certifying(tmp_path, capsys):
    import time

    # gamma = 2x fails certification, so only a refusal up front exits 2
    path = write(tmp_path, "double.json", model_to_json(model({(1,): (2,)})))
    start = time.perf_counter()
    code, payload, err = run(capsys, ["diffeo", "induced", "--endo", path, "--m", "16"])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert payload["error"].startswith("--m 16 gives 3^16 cells")
    assert "usage error" in err


def _gp2_json():
    """x - (2/3)x^2 + 2x^4 on Z_2: the Gauss norm of its chart cannot
    certify it, the Mahler coefficients of its quotient do."""
    ctx = PadicContext(2, 12)
    return model_to_json(padic_model([(Ball.from_ints(ctx, (0,), 0), {
        (1,): ctx.vector([1]),
        (2,): ctx.vector([ctx.from_fraction(Fraction(-2, 3))]),
        (4,): ctx.vector([2]),
    })], e=1))


def _fine_json():
    """x + 3x^2 on pieces down to level 2, finer than a level-1 scan sees;
    it is certified."""
    balls = [Ball.from_ints(CTX3, (c,), 1) for c in (0, 1)]
    balls += [Ball.from_ints(CTX3, (c,), 2) for c in (2, 5, 8)]
    return model_to_json(padic_model([(b, {(1,): CTX3.vector([1]), (2,): CTX3.vector([3])}) for b in balls], e=1))


@pytest.mark.parametrize("argv, error", [
    (["diffeo", "induced", "--endo", "gp2.json", "--m", "0"], "--m must be a positive int, got 0"),
    (["diffeo", "invert", "--endo", "gp2.json", "--y", "1", "--prec", "0"],
     "--prec must be between 1 and the precision N=12, got 0"),
])
def test_level_faults_exit_2_naming_the_flag(argv, error, tmp_path, capsys):
    write(tmp_path, "gp2.json", _gp2_json())
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    code, payload, err = run(capsys, argv)
    assert code == 2
    assert payload == {"error": error}
    assert "usage error" in err


@pytest.mark.parametrize("argv, flags", [
    (["diffeo", "certify", "--endo", "gp2.json"], [["--level", "1"], ["--level", "7"]]),
    (["diffeo", "certify", "--endo", "fine.json"], [["--level", "1"], ["--level", "5"]]),
    (["diffeo", "certify", "--endo", "double.json"], [["--level", "5"]]),
    (["diffeo", "induced", "--endo", "fine.json", "--m", "1"], [["--verify-level", "1"]]),
    (["diffeo", "induced", "--endo", "gp2.json", "--m", "2"], [["--verify-level", "1"]]),
    (["diffeo", "invert", "--endo", "gp2.json", "--y", "1", "--prec", "5"], [["--verify-level", "9"]]),
])
def test_level_flags_on_diffeo_change_no_verdict(argv, flags, tmp_path, capsys):
    """diffeo accepts --verify-level and certify --level, and gives the
    output it gives without them: certification has no level to refuse."""
    write(tmp_path, "gp2.json", _gp2_json())
    write(tmp_path, "fine.json", _fine_json())
    write(tmp_path, "double.json", model_to_json(model({(1,): (2,)})))
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    want = run(capsys, argv)[:2]
    assert want[0] in (0, 1)
    for flag in flags:
        got = run(capsys, flag + argv if flag[0] == "--verify-level" else argv + flag)[:2]
        assert got == want


def test_wp_mul_of_maps_certified_at_different_levels(tmp_path, capsys):
    """a moves the three level-1 balls of Z_3 by 3(i + 1), b the 81 level-4
    balls by 3^5 (i mod 3 + 1); their composite has level-4 pieces, finer
    than the default level 3 at which a scan used to certify it."""
    fine = [Ball.from_ints(CTX3, (i,), 4) for i in range(81)]
    coarse = [Ball.from_ints(CTX3, (i,), 1) for i in range(3)]

    def gamma(balls, shift):
        return padic_model([(b, {(1,): CTX3.vector([1]), (0,): CTX3.vector([shift(i)])})
                            for i, b in enumerate(balls)], e=1)

    g1, g2 = gamma(coarse, lambda i: 3 * (i + 1)), gamma(fine, lambda i: 3 ** 5 * (i % 3 + 1))
    a = write(tmp_path, "a.json", {"index": [0], "support": [{"id": 0, "endo": model_to_json(g1)}]})
    b = write(tmp_path, "b.json", {"index": [0], "support": [{"id": 0, "endo": model_to_json(g2)}]})
    code, payload, _ = run(capsys, ["wp", "mul", "--a", a, "--b", b])
    assert code == 0
    entry = payload["support"][0]["entry"]
    assert entry["kind"] == "model" and entry["level"] == 3
    p1 = induced_level_map(CertifiedDiffeo(endo=BallEndo(g1), cert=certify_omega(BallEndo(g1))), 3)
    p2 = induced_level_map(CertifiedDiffeo(endo=BallEndo(g2), cert=certify_omega(BallEndo(g2))), 3)
    assert entry["induced"] == [p1[i] for i in p2]


def _sparse_endo(n):
    """x + 9x^n: one monomial of degree n beyond the identity, so the
    composites below stay a handful of terms."""
    return model_to_json(model({(1,): (1,), (n,): (9,)}))


@pytest.mark.parametrize("outer, inner", [(8, 8), (5, 13)])
def test_wp_mul_composite_degree_limit(outer, inner, tmp_path, capsys):
    """wp mul composes sigma_a, of degree outer, with gamma_b, of degree
    inner: accepted at the limit, refused one past it."""
    a = write(tmp_path, "a.json", {"index": [0], "support": [{"id": 0, "endo": _sparse_endo(outer)}]})
    b = write(tmp_path, "b.json", {"index": [0], "support": [{"id": 0, "endo": _sparse_endo(inner)}]})
    code, payload, err = run(capsys, ["wp", "mul", "--a", a, "--b", b])
    if outer * inner <= MAX_COMPOSITE_DEGREE:
        assert outer * inner == MAX_COMPOSITE_DEGREE
        assert code == 0
        assert payload["support"][0]["entry"]["kind"] == "model"
    else:
        assert outer * inner == MAX_COMPOSITE_DEGREE + 1
        assert code == 2
        assert payload["error"] == "composite of degree 5 x 13 = 65 exceeds the limit 64 (maps from --a and --b)"
        assert "Traceback" not in err


@pytest.mark.parametrize("outer, inner", [(8, 8), (5, 13)])
def test_wp_conjugate_composite_degree_limit(outer, inner, tmp_path, capsys):
    """conjugate composes each chart's sigma, of degree outer, with the
    entry's gamma, of degree inner."""
    balls = [Ball.from_ints(CTX3, (c,), 1) for c in range(3)]
    chart = _sparse_endo(outer)
    gd = write(tmp_path, "gd.json", {
        "region": region_to_json(ClopenRegion([ROOT])),
        "pieces": [{"source": ball_to_json(b), "target": ball_to_json(b), "chart": chart} for b in balls],
    })
    eta = write(tmp_path, "eta.json", {
        "index": [ball_to_json(b) for b in balls],
        "support": [{"id": ball_to_json(balls[1]), "endo": _sparse_endo(inner)}],
    })
    code, payload, _ = run(capsys, ["wp", "conjugate", "--global", gd, "--eta", eta])
    if outer * inner <= MAX_COMPOSITE_DEGREE:
        assert code == 0
        assert len(payload["support"]) == 1
    else:
        assert code == 2
        assert payload["error"].endswith("exceeds the limit 64 (maps from --global and --eta)")


def test_chain_rule_degree_limit(capsys):
    """chain-rule composes two maps of degree up to --deg: deg^2 = 64 runs,
    deg = 9 (81) is refused before any sample."""
    assert 8 ** 2 == MAX_COMPOSITE_DEGREE
    code, payload, _ = run(capsys, ["verify", "chain-rule", "--deg", "8", "--samples", "2"])
    assert code == 0
    assert payload["passed"] == 2
    code, payload, err = run(capsys, ["verify", "chain-rule", "--deg", "9", "--samples", "2"])
    assert code == 2
    assert payload["error"].startswith("--deg 9 gives chain-rule composites of degree up to 81")
    assert "usage error" in err


def test_compose_refuses_before_any_substitution(monkeypatch):
    from ucalc import calculus

    def no_subst(*args):
        raise AssertionError("substitution started")

    monkeypatch.setattr(calculus, "_subst", no_subst)
    g = model({(1,): (1,), (5,): (9,)})
    f = model({(1,): (1,), (13,): (9,)})
    with pytest.raises(calculus.CompositeTooLarge):
        calculus.compose(g, f, {ROOT: ROOT})


def test_one_parser_serves_every_call(tmp_path, capsys, monkeypatch):
    """main builds its argparse tree once per process.  A sequence of
    calls through that one parser (an argparse error, a refused global
    flag, a ParseError, --help and a success) exits and prints exactly as
    the same calls through freshly built parsers."""
    import argparse
    import types

    from ucalc import cli

    good = write(tmp_path, "good.json", scalar_to_json(CTX3.from_fraction(Fraction(5, 2))))
    bad = write(tmp_path, "bad.json", {"p": 3, "N": 12, "digits": "x"})
    argvs = [
        ["verify"],
        ["--seed", "1", "diffeo", "certify", "--endo", good],
        ["convert", "--file", bad, "--from", "scalar", "--to", "scalar"],
        ["--help"],
        ["convert", "--file", good, "--from", "scalar", "--to", "scalar"],
    ]

    def outcome(argv):
        try:
            code = ("return", main(argv))
        except SystemExit as exc:
            code = ("exit", exc.code)
        out = capsys.readouterr()
        return code, out.out, out.err

    built = []

    class CountingParser(argparse.ArgumentParser):
        def __init__(self, *args, **kwargs):
            if kwargs.get("prog") == "ucalc":
                built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(cli, "argparse", types.SimpleNamespace(ArgumentParser=CountingParser))
    try:
        fresh = []
        for argv in argvs:
            cli.build_parser.cache_clear()
            fresh.append(outcome(argv))
        assert len(built) == len(argvs)
        cli.build_parser.cache_clear()
        built.clear()
        reused = [outcome(argv) for argv in argvs * 3]
    finally:
        cli.build_parser.cache_clear()
    assert len(built) == 1
    assert reused == fresh * 3
    assert [code for code, _, _ in fresh] == [
        ("exit", 2), ("exit", 2), ("return", 2), ("exit", 0), ("return", 0),
    ]
    assert "does not use --seed" in fresh[1][2]
    assert json.loads(fresh[2][1])["path"].startswith("$")
    assert fresh[3][1].startswith("usage: ucalc")
