import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ucalc.balls import Ball, ClopenRegion
from ucalc.calculus import CertificateInvalid, FunctionModel, _image_in_ball, model_to_json
from ucalc.cli import main
from ucalc.diffeo import (
    BallEndo,
    CertifiedDiffeo,
    CompactlySupportedEndo,
    DiffcDecision,
    IterationBudgetExceeded,
    NotCertified,
    OmegaCertificate,
    certify_omega,
    compose_diffeos,
    diffc_membership,
    endo_compose,
    halfball_valuation,
    induced_level_map,
    invert_at,
    isometry_check,
)
from ucalc.padic import PadicContext, fraction_valuation

from reference import breaks_omega, omega_witness_search, padic_model

CTX3 = PadicContext(3, 12)
CTX2 = PadicContext(2, 12)


def B(ctx, ints, k):
    return Ball.from_ints(ctx, ints, k)


def zero_model(region, e):
    return padic_model([(b, {}) for b in region.balls], e=e)


def displacement(ctx, pieces_spec, e=None):
    """pieces_spec: list of (ints, k, {exps: coord values})."""
    pieces = []
    for ints, k, coeffs in pieces_spec:
        cmap = {exps: ctx.vector(vals) for exps, vals in coeffs.items()}
        pieces.append((B(ctx, ints, k), cmap))
    return padic_model(pieces, e=e)


def root_disp(ctx, coeffs, d=1):
    return displacement(ctx, [((0,) * d, 0, coeffs)], e=d)


def certified(ctx, coeffs, d=1):
    endo = BallEndo.from_displacement(root_disp(ctx, coeffs, d=d))
    return CertifiedDiffeo(endo=endo, cert=certify_omega(endo))


def rand_points(ctx, rng, n, d=1):
    """n random points of O^d as int tuples below p^N."""
    return [tuple(rng.randrange(ctx.p ** ctx.N) for _ in range(d)) for _ in range(n)]


def fractions(ints):
    return tuple(Fraction(a) for a in ints)


def test_halfball_valuation():
    # p^-v < 1/2 first holds at v=1 for odd p and v=2 for p=2
    assert halfball_valuation(2) == 2
    assert halfball_valuation(3) == 1
    assert halfball_valuation(5) == 1


def test_ball_endo_accepts_self_map():
    endo = BallEndo.from_displacement(root_disp(CTX3, {(2,): (3,)}))
    assert endo.d == 1
    assert endo.gamma.eval(CTX3.vector([2])).to_fractions() == (Fraction(14),)
    # gamma - id carries the stored representative of -1, so compare mod 3^N
    assert endo.sigma._eval_fr((Fraction(2),))[0] % 3 ** 12 == 12


def test_ball_endo_rejects_escaping_map():
    third = CTX3.from_fraction(Fraction(1, 3))
    with pytest.raises(ValueError):
        BallEndo.from_displacement(root_disp(CTX3, {(0,): (third,)}))


def test_ball_endo_rejects_sub_ball_domain():
    sigma = displacement(CTX3, [((0,), 1, {(0,): (3,)})], e=1)
    with pytest.raises(ValueError):
        BallEndo.from_displacement(sigma)


def test_ball_endo_rejects_dimension_mismatch():
    sigma = padic_model([(B(CTX3, (0,), 0), {(1,): CTX3.vector([0, 3])})], e=2)
    with pytest.raises(ValueError):
        BallEndo.from_displacement(sigma)


def test_certify_zero_displacement():
    endo = BallEndo.from_displacement(zero_model(ClopenRegion([B(CTX3, (0,), 0)]), 1))
    assert certify_omega(endo) == OmegaCertificate(v_min=1)


def test_certify_small_quadratic():
    # sigma = 3x^2 on Z_3; oracle: every first quotient and every value,
    # enumerated exactly at level 3, has valuation >= 1
    endo = BallEndo.from_displacement(root_disp(CTX3, {(2,): (3,)}))
    cert = certify_omega(endo)
    assert cert.v_min == 1
    sig = lambda x: 3 * x * x
    ts = [Fraction(0)] + [
        Fraction(u * 3 ** j) for j in range(3) for u in range(1, 3 ** (3 - j)) if u % 3
    ] + [Fraction(27)]
    for x in range(27):
        for y in range(27):
            for t in ts:
                q = 6 * x * y + t * y * y if t == 0 else (sig(x + t * y) - sig(x)) / t
                assert fraction_valuation(Fraction(q), 3) >= 1


def test_certify_rejects_identity_displacement():
    # sigma = x has first quotient equal to y, which reaches norm 1
    endo = BallEndo.from_displacement(root_disp(CTX3, {(1,): (1,)}))
    with pytest.raises(NotCertified) as info:
        certify_omega(endo)
    x, y, t = info.value.witness
    # the witness really is a unit-norm quotient: sigma^[1](x,y,t) = y here
    assert fraction_valuation(y[0], 3) == 0


def test_certify_rejects_unit_translation():
    endo = BallEndo.from_displacement(root_disp(CTX3, {(0,): (1,)}))
    with pytest.raises(NotCertified) as info:
        certify_omega(endo)
    x, y, t = info.value.witness
    assert y == (Fraction(0),) and t == 0


def test_certify_accepts_small_translation():
    cert = certify_omega(BallEndo.from_displacement(root_disp(CTX3, {(0,): (3,)})))
    assert cert == OmegaCertificate(v_min=1)


def test_certify_exhaustive_route_agrees_with_bound_route():
    # the same map sigma = 3x, stored once as a single piece, whose
    # coefficients bound every quotient, and once split over the level-1
    # pieces, whose chart constants are the centre values 0, 3, 6; both
    # are certified, and the exhaustive scan of tests/reference.py agrees
    single = BallEndo.from_displacement(root_disp(CTX3, {(1,): (3,)}))
    assert certify_omega(single) == OmegaCertificate(v_min=1)
    split = BallEndo.from_displacement(displacement(
        CTX3, [((c,), 1, {(1,): (3,)}) for c in range(3)], e=1))
    assert certify_omega(split) == OmegaCertificate(v_min=1)
    assert omega_witness_search(split, 3, 1) is None


def test_certify_symbolic_p2():
    split = BallEndo.from_displacement(displacement(
        CTX2, [((c,), 1, {(1,): (4,)}) for c in range(2)], e=1))
    assert certify_omega(split) == OmegaCertificate(v_min=2)
    with pytest.raises(NotCertified):
        certify_omega(BallEndo.from_displacement(root_disp(CTX2, {(2,): (2,)})))


def test_certify_exhaustive_p2():
    # the golden diffeo-certify-exhaustive map, which only the scan used to
    # certify.  sigma = -(2/3) x^2 + 2 x^4 = (2/3) x^2 (3x^2 - 1): both
    # coefficients have valuation 1 < v_min = 2, yet every value and
    # quotient has valuation >= 2; the Mahler coefficients of its
    # quotient show it
    minus_two_thirds = CTX2.from_fraction(Fraction(-2, 3))
    endo = BallEndo.from_displacement(root_disp(CTX2, {(2,): (minus_two_thirds,), (4,): (2,)}))
    assert endo.sigma.image_bound(endo.sigma.piece_balls()[0])[1] < 2
    assert certify_omega(endo) == OmegaCertificate(v_min=2)
    for m in (3, 4, 5):
        assert omega_witness_search(endo, m, 2) is None


def test_certify_decides_maps_at_any_piece_level():
    # sigma = x on the level-4 pieces of Z_2, finer than a level-3 scan
    # sees, has unit quotients
    fine = BallEndo.from_displacement(displacement(
        CTX2, [((c,), 4, {(1,): (1,)}) for c in range(16)], e=1))
    with pytest.raises(NotCertified) as info:
        certify_omega(fine)
    assert breaks_omega(fine.sigma, *info.value.witness, 2)


def test_isometry_identity():
    g = certified(CTX3, {})
    rng = random.Random(11)
    pairs = list(zip(rand_points(CTX3, rng, 20), rand_points(CTX3, rng, 20)))
    rep = isometry_check(g, pairs)
    assert rep.checked == 20
    assert rep.violations == ()


def test_isometry_quadratic():
    g = certified(CTX3, {(2,): (3,)})
    rng = random.Random(12)
    pairs = list(zip(rand_points(CTX3, rng, 300), rand_points(CTX3, rng, 300)))
    rep = isometry_check(g, pairs)
    assert rep.checked == 300
    assert rep.violations == ()


def test_isometry_translation_and_multi_piece():
    rng = random.Random(13)
    pairs = list(zip(rand_points(CTX3, rng, 100), rand_points(CTX3, rng, 100)))
    assert isometry_check(certified(CTX3, {(0,): (3,)}), pairs).violations == ()
    split = BallEndo.from_displacement(displacement(
        CTX3,
        [((c,), 1, {(0,): (3 * c,), (2,): (9,)}) for c in range(3)],
        e=1,
    ))
    g = CertifiedDiffeo(endo=split, cert=certify_omega(split))
    assert isometry_check(g, pairs).violations == ()


def test_isometry_counts_and_skips_equal_pairs_and_zero_coordinates():
    sigma = padic_model(
        [(B(CTX3, (0, 0), 0), {(0, 2): CTX3.vector([3, 0]), (1, 0): CTX3.vector([0, 9])})],
        e=2,
    )
    endo = BallEndo.from_displacement(sigma)
    g = CertifiedDiffeo(endo=endo, cert=certify_omega(endo))
    zero, x = (0, 0), (0, 5)
    pairs = [(zero, zero), (x, x), (zero, x), (x, (9, 5)), ((27, 0), zero)]
    rep = isometry_check(g, pairs)
    assert rep.checked == 5
    assert rep.violations == ()
    # gamma = 3x under a forged certificate: the pair through zero is a
    # violation, the equal pair is counted and skipped
    crush = BallEndo.from_displacement(root_disp(CTX3, {(1,): (2,)}))
    forged = CertifiedDiffeo(endo=crush, cert=OmegaCertificate(v_min=1))
    z, one = (0,), (1,)
    rep = isometry_check(forged, [(z, one), (one, one), (z, z)])
    assert rep.checked == 3
    assert rep.violations == ((z, one),)


def test_invert_identity():
    g = certified(CTX3, {})
    assert CTX3.vector(invert_at(g, (7,), 12)) == CTX3.vector([7])


def test_invert_translation_exact():
    g = certified(CTX3, {(0,): (3,)})
    assert CTX3.vector(invert_at(g, (1,), 12)) == CTX3.vector([1 - 3])


def test_invert_quadratic_residual():
    g = certified(CTX3, {(2,): (3,)})
    rng = random.Random(14)
    for y in rand_points(CTX3, rng, 25):
        x = invert_at(g, y, 12)
        resid = g.gamma._eval_fr(fractions(x))[0] - y[0]
        assert resid == 0 or fraction_valuation(resid, 3) >= 12


def test_invert_argument_validation():
    g = certified(CTX3, {(0,): (3,)})
    with pytest.raises(ValueError):
        invert_at(g, (1, 0), 6)
    with pytest.raises(ValueError):
        invert_at(g, (1,), 13)
    with pytest.raises(ValueError):
        invert_at(g, (1,), 0)


def test_invert_outside_the_unit_ball_raises_the_same_error(tmp_path, capsys):
    # a point of another dimension is refused by invert_at; a coordinate
    # of negative valuation by the command, which reads --y as ints
    g = certified(CTX3, {(0,): (3,)})
    for y in [(1, 0), ()]:
        with pytest.raises(ValueError, match=r"^y lies outside the unit ball$"):
            invert_at(g, y, 6)
    (x,) = invert_at(g, (0,), 6)
    assert (x + 3) % 3 ** 6 == 0
    path = tmp_path / "g.json"
    path.write_text(json.dumps(model_to_json(g.gamma)))
    for y in ["1/3", "5/9", "-7/81"]:
        code = main(["diffeo", "invert", "--endo", str(path), "--y=" + y, "--prec", "6"])
        out, err = capsys.readouterr()
        assert (code, json.loads(out)) == (1, {"error": "y lies outside the unit ball"})
        assert "Traceback" not in err


def test_invert_budget_guard_on_forged_certificate():
    # gamma = 2x is a fine isometry, but its displacement sigma = x is no
    # contraction; a forged certificate must hit the iteration budget
    # rather than loop forever
    endo = BallEndo.from_displacement(root_disp(CTX3, {(1,): (1,)}))
    forged = CertifiedDiffeo(endo=endo, cert=OmegaCertificate(v_min=1))
    with pytest.raises(IterationBudgetExceeded):
        invert_at(forged, (1,), 12)


def test_preimage_law_exhaustive():
    # gamma^-1(a + p^k O) = invert_at(gamma, a) + p^k O, checked pointwise
    # at level k+1 over the whole ball
    g = certified(CTX3, {(2,): (3,)})
    for a, k in [(1, 1), (4, 2), (7, 2), (5, 3)]:
        target = B(CTX3, (a,), k)
        pre = B(CTX3, invert_at(g, (a,), k), k)
        for ints in B(CTX3, (0,), 0).level_reps(k + 1):
            x = tuple(Fraction(i) for i in ints)
            image = g.gamma._eval_fr(x)
            assert pre.contains_fractions(x) == target.contains_fractions(
                tuple(q % 3 ** k for q in image)
            )


def test_compose_with_identity():
    g = certified(CTX3, {(2,): (3,)})
    gid = certified(CTX3, {})
    rng = random.Random(15)
    for left in (compose_diffeos(g, gid), compose_diffeos(gid, g)):
        for x in rand_points(CTX3, rng, 20):
            lhs = left.gamma._eval_fr(fractions(x))[0]
            rhs = g.gamma._eval_fr(fractions(x))[0]
            assert (lhs - rhs) % 3 ** 12 == 0
        assert induced_level_map(left, 3) == induced_level_map(g, 3)


def test_compose_translations():
    g = certified(CTX3, {(0,): (3,)})
    gg = compose_diffeos(g, g)
    rng = random.Random(16)
    for x in rand_points(CTX3, rng, 20):
        assert gg.endo.sigma._eval_fr(fractions(x))[0] % 3 ** 12 == 6


def test_compose_matches_pointwise_composition():
    s1 = displacement(
        CTX3,
        [((c,), 1, {(0,): (3 * c,), (2,): (9,)}) for c in range(3)],
        e=1,
    )
    e1 = BallEndo.from_displacement(s1)
    g1 = CertifiedDiffeo(endo=e1, cert=certify_omega(e1))
    g2 = certified(CTX3, {(2,): (3,)})
    gc = compose_diffeos(g1, g2)
    rng = random.Random(17)
    for x in rand_points(CTX3, rng, 30):
        xf = fractions(x)
        mid = g2.gamma._eval_fr(xf)[0] % 3 ** 12
        rhs = g1.gamma._eval_fr((Fraction(mid),))[0]
        lhs = gc.gamma._eval_fr(xf)[0]
        assert (lhs - rhs) % 3 ** 12 == 0


def test_compose_rejects_context_mismatch():
    with pytest.raises(ValueError):
        compose_diffeos(certified(CTX3, {}), certified(CTX2, {}))


def compose_perm(f, g):
    return tuple(f[i] for i in g)


def test_induced_identity_and_shift():
    gid = certified(CTX3, {})
    assert induced_level_map(gid, 2) == tuple(range(9))
    g3 = certified(CTX3, {(0,): (3,)})
    perm = induced_level_map(g3, 2)
    assert perm == (3, 4, 5, 6, 7, 8, 0, 1, 2)
    # +3 mod 9 splits into three 3-cycles
    seen = set()
    cycles = []
    for start in range(9):
        if start in seen:
            continue
        cur, cycle = start, []
        while cur not in seen:
            seen.add(cur)
            cycle.append(cur)
            cur = perm[cur]
        cycles.append(tuple(cycle))
    assert sorted(len(c) for c in cycles) == [3, 3, 3]
    # displacement with valuation >= 1 collapses to the identity at m=1
    assert induced_level_map(g3, 1) == (0, 1, 2)
    assert induced_level_map(certified(CTX3, {(2,): (3,)}), 1) == (0, 1, 2)


def test_induced_level_validation_and_dim2():
    g = certified(CTX3, {})
    with pytest.raises(ValueError):
        induced_level_map(g, 0)
    sigma = padic_model(
        [(B(CTX2, (0, 0), 0), {(0, 2): CTX2.vector([4, 0]), (1, 1): CTX2.vector([0, 4])})],
        e=2,
    )
    endo = BallEndo.from_displacement(sigma)
    g2 = CertifiedDiffeo(endo=endo, cert=certify_omega(endo))
    perm = induced_level_map(g2, 1)
    assert sorted(perm) == [0, 1, 2, 3]


def test_induced_homomorphism_random_pairs():
    rng = random.Random(18)
    for _ in range(6):
        c1 = {(j,): (3 * rng.randrange(27),) for j in range(3)}
        c2 = {(j,): (3 * rng.randrange(27),) for j in range(3)}
        g1 = certified(CTX3, c1)
        g2 = certified(CTX3, c2)
        gc = compose_diffeos(g1, g2)
        for m in (1, 2, 3):
            assert induced_level_map(gc, m) == compose_perm(
                induced_level_map(g1, m), induced_level_map(g2, m)
            )


def per_cell_induced(g, m):
    """The induced level-m map with one residue evaluation per cell."""
    reps = list(g.endo.ball.level_reps(m))
    index = {ints: i for i, ints in enumerate(reps)}
    return tuple(index[g.gamma.residues(ints, m)] for ints in reps)


# largest p^(d*m) the per-cell reference visits in one comparison
INDUCED_CELL_BUDGET = 3 ** 6

INDUCED_CTX = {p: PadicContext(p, 8) for p in (2, 3, 5)}


@st.composite
def small_diffeos(draw, p, d):
    """A certified map of degree <= 2 on one piece or on the p^d level-1
    pieces: each piece's constant term is a multiple of p^v_min and its
    other coefficients multiples of p^(v_min + k), so `certify_omega`
    accepts it."""
    ctx = INDUCED_CTX[p]
    v = halfball_valuation(p)
    exps = [e for e in itertools.product(range(3), repeat=d) if sum(e) <= 2]
    if draw(st.booleans()):
        layout = [((0,) * d, 0)]
    else:
        layout = [(off, 1) for off in itertools.product(range(p), repeat=d)]
    spec = []
    for ints, k in layout:
        coeffs = {}
        for e in exps:
            shift = v if not any(e) else v + k
            coeffs[e] = tuple(draw(st.integers(0, p ** 2)) * p ** shift for _ in range(d))
        spec.append((ints, k, coeffs))
    endo = BallEndo.from_displacement(displacement(ctx, spec, e=d))
    return CertifiedDiffeo(endo=endo, cert=certify_omega(endo))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_induced_map_matches_per_cell_route(data):
    p = data.draw(st.sampled_from([2, 3, 5]))
    d = data.draw(st.sampled_from([1, 2]))
    g = data.draw(small_diffeos(p, d))
    if data.draw(st.booleans()):
        g = compose_diffeos(g, data.draw(small_diffeos(p, d)))
    for m in range(1, g.cert.v_min + 3):
        if p ** (d * m) <= INDUCED_CELL_BUDGET:
            assert induced_level_map(g, m) == per_cell_induced(g, m)


def test_induced_map_matches_per_cell_route_on_scanned_and_split_maps():
    # the golden diffeo-certify-exhaustive map x - (2/3)x^2 + 2x^4 on Z_2,
    # which the Gauss norm of its chart cannot certify, and a p = 3 map
    # whose level-1 pieces move by different multiples of 3
    ctx = INDUCED_CTX[2]
    scanned = BallEndo(padic_model(
        [(B(ctx, (0,), 0), {
            (1,): ctx.vector([1]),
            (2,): ctx.vector([ctx.from_fraction(Fraction(-2, 3))]),
            (4,): ctx.vector([2]),
        })],
        e=1,
    ))
    split = BallEndo.from_displacement(displacement(
        INDUCED_CTX[3], [((c,), 1, {(0,): (3 * c,), (2,): (9,)}) for c in range(3)], e=1))
    for endo in (scanned, split):
        g = CertifiedDiffeo(endo=endo, cert=certify_omega(endo))
        for m in range(1, g.cert.v_min + 3):
            assert induced_level_map(g, m) == per_cell_induced(g, m)


def test_induced_map_evaluates_once_per_coarse_cell(monkeypatch):
    calls = []
    original = FunctionModel.residues

    def counting(self, ints, M):
        calls.append(ints)
        return original(self, ints, M)

    monkeypatch.setattr(FunctionModel, "residues", counting)
    plane = BallEndo.from_displacement(padic_model(
        [(B(CTX3, (0, 0), 0), {(0, 2): CTX3.vector([3, 0]), (1, 0): CTX3.vector([0, 9])})],
        e=2,
    ))
    for endo, levels in [
        (BallEndo.from_displacement(root_disp(CTX2, {(2,): (4,), (0,): (8,)})), range(1, 6)),
        (BallEndo.from_displacement(root_disp(CTX3, {(1,): (3,)})), range(1, 5)),
        (plane, range(1, 4)),
    ]:
        cert = certify_omega(endo)
        for m in levels:
            g = CertifiedDiffeo(endo=endo, cert=cert)
            calls.clear()
            induced_level_map(g, m)
            p, d = endo.ctx.p, endo.d
            assert len(calls) <= p ** (d * max(m - cert.v_min, 0))
            calls.clear()
            induced_level_map(g, m)
            assert calls == []


def test_induced_map_refuses_a_forged_certificate():
    # gamma = 2x on Z_3 with a forged v_min = 1: the displacement x is a
    # unit at the coarse cell of 1, so level 2 refuses; the per-cell route
    # shows the bijection that trusting the forgery would give wrongly
    endo = BallEndo.from_displacement(root_disp(CTX3, {(1,): (1,)}))
    forged = CertifiedDiffeo(endo=endo, cert=OmegaCertificate(v_min=1))
    assert per_cell_induced(forged, 2)[3] == 6
    with pytest.raises(RuntimeError, match="certificate is broken"):
        induced_level_map(forged, 2)
    assert 2 not in forged.induced_cache


def test_inverse_roundtrip_induced_identity():
    g = certified(CTX3, {(1,): (3,), (2,): (9,)})
    rng = random.Random(19)
    for m in (1, 2, 3):
        reps = list(B(CTX3, (0,), 0).level_reps(m))
        for ints in reps:
            x = invert_at(g, ints, m)
            img = g.gamma._eval_fr(fractions(x))[0]
            assert img % 3 ** m == ints[0] % 3 ** m


def region_of(ctx, spec):
    return ClopenRegion([B(ctx, ints, k) for ints, k in spec])


def test_supported_endo_identity_has_empty_support():
    U = region_of(CTX3, [((0,), 0)])
    a = CompactlySupportedEndo(U, zero_model(U, 1))
    assert a.support.empty
    dec = diffc_membership(a)
    assert dec.accepted and dec.certificates == {}


def test_supported_endo_support_detection_and_validation():
    U = region_of(CTX3, [((0,), 0)])
    sigma = displacement(
        CTX3, [((0,), 1, {(0,): (9,)}), ((1,), 1, {}), ((2,), 1, {})], e=1)
    a = CompactlySupportedEndo(U, sigma)
    assert a.support == region_of(CTX3, [((0,), 1)])
    # a coarser stated support is fine; one missing the ball is not
    CompactlySupportedEndo(U, sigma, support=U)
    with pytest.raises(ValueError):
        CompactlySupportedEndo(U, sigma, support=region_of(CTX3, [((1,), 1)]))
    with pytest.raises(ValueError):
        CompactlySupportedEndo(region_of(CTX3, [((0,), 1)]), sigma)


def test_supported_endo_rejects_escape_from_region():
    U = region_of(CTX3, [((0,), 1), ((1,), 1)])
    sigma = displacement(CTX3, [((0,), 1, {(0,): (2,)}), ((1,), 1, {})], e=1)
    with pytest.raises(ValueError):
        CompactlySupportedEndo(U, sigma)


def test_image_in_region_exhaustive_leg():
    # x^2/3 sends 3Z_3 into the squares region {0,3} mod 9: the radius
    # bound alone cannot see it, the level-3 scan can
    third = CTX3.from_fraction(Fraction(1, 3))
    f = displacement(CTX3, [((0,), 1, {(2,): (third,)})], e=1)
    good = region_of(CTX3, [((0,), 2), ((3,), 2), ((1,), 1), ((2,), 1)])
    assert _image_in_ball(f, B(CTX3, (0,), 1), good.balls) == (True, "exhaustive", None)
    shifted = displacement(CTX3, [((0,), 1, {(0,): (3,), (2,): (third,)})], e=1)
    ok, method, _ = _image_in_ball(shifted, B(CTX3, (0,), 1), good.balls)
    assert (ok, method) == (False, "exhaustive")
    leaky = displacement(CTX3, [((0,), 1, {(1,): (third,)})], e=1)
    ok, method, _ = _image_in_ball(leaky, B(CTX3, (0,), 1), region_of(CTX3, [((0,), 1)]).balls)
    assert (ok, method) == (False, "exhaustive")


def test_endo_compose_identity_laws():
    U = region_of(CTX3, [((0,), 1), ((1,), 1)])
    sigma = displacement(CTX3, [((0,), 1, {(0,): (9,), (2,): (9,)}), ((1,), 1, {})], e=1)
    a = CompactlySupportedEndo(U, sigma)
    ident = CompactlySupportedEndo(U, zero_model(U, 1))
    rng = random.Random(20)
    pts = [CTX3.vector([3 * rng.randrange(3 ** 10)]) for _ in range(15)]
    pts += [CTX3.vector([1 + 3 * rng.randrange(3 ** 10)]) for _ in range(15)]
    for comp in (endo_compose(a, ident), endo_compose(ident, a)):
        assert comp.support == a.support
        for x in pts:
            lhs = comp.gamma._eval_fr(x.to_fractions())[0]
            rhs = a.gamma._eval_fr(x.to_fractions())[0]
            assert (lhs - rhs) % 3 ** 12 == 0


def test_endo_compose_translations_on_sub_ball():
    U = region_of(CTX3, [((0,), 1), ((1,), 1)])
    sigma = displacement(CTX3, [((0,), 1, {(0,): (3,)}), ((1,), 1, {})], e=1)
    a = CompactlySupportedEndo(U, sigma)
    comp = endo_compose(a, a)
    assert comp.support == region_of(CTX3, [((0,), 1)])
    for x, expect in [(0, 6), (3, 6), (9, 6), (1, 0), (4, 0), (13, 0)]:
        got = comp.sigma._eval_fr((Fraction(x),))[0] % 3 ** 12
        assert got == expect


def test_endo_compose_region_mismatch():
    U1 = region_of(CTX3, [((0,), 1)])
    U2 = region_of(CTX3, [((1,), 1)])
    a = CompactlySupportedEndo(U1, zero_model(U1, 1))
    b = CompactlySupportedEndo(U2, zero_model(U2, 1))
    with pytest.raises(ValueError):
        endo_compose(a, b)


def test_endo_compose_monoid_associativity():
    U = region_of(CTX3, [((0,), 0)])
    sigmas = [
        displacement(CTX3, [((0,), 1, {(0,): (9,)}), ((1,), 1, {}), ((2,), 1, {})], e=1),
        displacement(CTX3, [((0,), 1, {}), ((1,), 1, {(2,): (9,)}), ((2,), 1, {})], e=1),
        displacement(CTX3, [((0,), 1, {(1,): (9,)}), ((1,), 1, {}), ((2,), 1, {})], e=1),
    ]
    a, b, c = (CompactlySupportedEndo(U, s) for s in sigmas)
    lhs = endo_compose(endo_compose(a, b), c)
    rhs = endo_compose(a, endo_compose(b, c))
    for ints in B(CTX3, (0,), 0).level_reps(3):
        x = (Fraction(ints[0]),)
        assert (lhs.gamma._eval_fr(x)[0] - rhs.gamma._eval_fr(x)[0]) % 3 ** 12 == 0


def test_diffc_accepts_per_ball_small_displacement():
    # sigma = 9 + 9x^2 on 3Z_3: every value has valuation >= v_min + level,
    # and the chart copy z -> 3 + 3(3z)^2/3 certifies
    U = region_of(CTX3, [((0,), 0)])
    sigma = displacement(
        CTX3,
        [((0,), 1, {(0,): (9,), (2,): (9,)}), ((1,), 1, {}), ((2,), 1, {})],
        e=1,
    )
    a = CompactlySupportedEndo(U, sigma)
    dec = diffc_membership(a)
    assert dec.accepted
    ball = B(CTX3, (0,), 1)
    assert list(dec.certificates) == [ball]
    chart = dec.certificates[ball]
    # chart copy talks in rescaled coordinates: gamma_chart(z) = sigma(3z)/3 + z
    for z in range(9):
        got = chart.gamma._eval_fr((Fraction(z),))[0]
        expect = Fraction(z) + Fraction(9 + 9 * (3 * z) ** 2, 3)
        assert (got - expect) % 3 ** 12 == 0
    # independent oracle: the full map is an isometry on the ball and
    # fixes everything outside it
    rng = random.Random(21)
    for _ in range(100):
        u, v = 3 * rng.randrange(3 ** 10), 3 * rng.randrange(3 ** 10)
        if u == v:
            v += 3
        fu = a.gamma._eval_fr((Fraction(u),))[0]
        fv = a.gamma._eval_fr((Fraction(v),))[0]
        assert fraction_valuation(fu - fv, 3) == fraction_valuation(Fraction(u - v), 3)
    for w in (1, 2, 4, 8):
        assert a.gamma._eval_fr((Fraction(w),))[0] == w


def test_diffc_rejects_unit_norm_chart_value():
    # translation by 3 on a level-1 ball is a unit translation in the chart
    U = region_of(CTX3, [((0,), 0)])
    sigma = displacement(
        CTX3, [((0,), 1, {(0,): (3,)}), ((1,), 1, {}), ((2,), 1, {})], e=1)
    a = CompactlySupportedEndo(U, sigma)
    dec = diffc_membership(a)
    assert not dec.accepted
    ball, witness = dec.witness
    assert ball == B(CTX3, (0,), 1)
    x, y, t = witness
    assert y == (Fraction(0),) and t == 0


def test_diffc_rejects_ball_permutation():
    # swap 9Z_3 and 3+9Z_3: each supported ball escapes itself, which the
    # chart range certificate reports
    U = region_of(CTX3, [((0,), 0)])
    minus3 = CTX3.from_int(0) - CTX3.from_int(3)
    sigma = displacement(
        CTX3,
        [
            ((0,), 2, {(0,): (3,)}),
            ((3,), 2, {(0,): (minus3,)}),
            ((6,), 2, {}),
            ((1,), 1, {}),
            ((2,), 1, {}),
        ],
        e=1,
    )
    a = CompactlySupportedEndo(U, sigma)
    dec = diffc_membership(a)
    assert not dec.accepted
    ball, witness = dec.witness
    assert ball in (B(CTX3, (0,), 2), B(CTX3, (3,), 2))
    assert isinstance(witness, str)


def test_diffc_multi_ball_accept():
    U = region_of(CTX3, [((0,), 0)])
    sigma = displacement(
        CTX3,
        [((0,), 1, {(0,): (9,)}), ((1,), 1, {(2,): (9,)}), ((2,), 1, {})],
        e=1,
    )
    a = CompactlySupportedEndo(U, sigma)
    dec = diffc_membership(a)
    assert dec.accepted
    assert set(dec.certificates) == {B(CTX3, (0,), 1), B(CTX3, (1,), 1)}
    for cert in dec.certificates.values():
        assert isinstance(cert, CertifiedDiffeo)


def test_diffc_decision_shape():
    dec = DiffcDecision(True, {})
    assert dec.witness is None
