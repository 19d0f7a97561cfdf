import itertools
import random
from fractions import Fraction

import pytest

from ucalc import _poly
from ucalc.balls import Ball, ClopenRegion
from ucalc.calculus import (
    CertificateInvalid,
    CheckReport,
    CompositionUncertified,
    DQPoint,
    FunctionModel,
    MembershipFailure,
    NotProductPartition,
    OutOfDomain,
    _braced_tree,
    _dqk_fr,
    _fr_point,
    check_chain_rule,
    check_composition_derivative,
    check_eval_derivative,
    check_scaling,
    compose,
    curry,
    directional,
    dq1,
    dq_domain_contains,
    dqk,
    find_certificate,
    identity_model,
    model_add,
    model_from_json,
    model_scale,
    model_to_json,
    scaling_exponents,
)
from ucalc.padic import PadicContext, PadicScalar, PadicVector, vector_from_json, vector_to_json

from reference import padic_model, padic_product_model

CTX3 = PadicContext(3, 8)
CTX2 = PadicContext(2, 8)


def B(ctx, ints, k):
    return Ball.from_ints(ctx, ints, k)


def mk(ctx, pieces_spec, e=None):
    """pieces_spec: list of (ints, k, {exps: coord ints})."""
    pieces = []
    for ints, k, coeffs in pieces_spec:
        ball = B(ctx, ints, k)
        cmap = {exps: ctx.vector(vals) for exps, vals in coeffs.items()}
        pieces.append((ball, cmap))
    return padic_model(pieces, e=e)


def root_model(ctx, d, coeffs, e=None):
    return mk(ctx, [((0,) * d, 0, coeffs)], e=e)


def test_eval_piecewise():
    f = mk(CTX3, [
        ((0,), 1, {(1,): (2,)}),          # 2x on 3Z_3
        ((1,), 1, {(0,): (1,), (2,): (1,)}),  # 1 + x^2 on 1+3Z_3
        ((2,), 1, {(0,): (5,)}),          # constant 5
    ])
    assert f.eval(CTX3.vector([3])) == CTX3.vector([6])
    assert f.eval(CTX3.vector([4])) == CTX3.vector([17])
    assert f.eval(CTX3.vector([2])) == CTX3.vector([5])
    with pytest.raises(OutOfDomain):
        f.eval(CTX3.vector([CTX3.from_fraction(Fraction(1, 3))]))


def test_model_rejects_overlapping_pieces():
    with pytest.raises(ValueError):
        mk(CTX3, [((0,), 0, {(1,): (1,)}), ((0,), 1, {(1,): (2,)})])


def test_model_refuses_an_empty_store():
    with pytest.raises(ValueError, match="a model needs at least one piece"):
        FunctionModel([], 1)


def test_model_rejects_pieces_from_different_spaces():
    z3 = (B(CTX3, (0,), 1), {(1,): CTX3.vector([1])})
    with pytest.raises(ValueError, match="balls live in different spaces"):
        padic_model([z3, (B(CTX2, (1,), 1), {(1,): CTX2.vector([1])})])
    with pytest.raises(ValueError, match="balls live in different spaces"):
        padic_model([z3, (B(CTX3, (1, 0), 1), {(1, 0): CTX3.vector([1])})])


def test_dq1_linear_closed_form():
    # lambda(x) = 5x: quotient is lambda(y) for every t, including 0
    f = root_model(CTX3, 1, {(1,): (5,)})
    x, y = CTX3.vector([2]), CTX3.vector([7])
    for t in (CTX3.zero(), CTX3.one(), CTX3.from_int(3), CTX3.from_int(-2)):
        assert dq1(f, DQPoint(x, y, t)) == f.eval(y)


def test_dq1_monomial_hand_formula():
    # f(x) = x^3: (f(x+ty)-f(x))/t = 3x^2 y + 3x y^2 t + y^3 t^2
    f = root_model(CTX3, 1, {(3,): (1,)})
    xv, yv, tv = 2, 5, 3
    x, y, t = CTX3.vector([xv]), CTX3.vector([yv]), CTX3.from_int(tv)
    want = 3 * xv ** 2 * yv + 3 * xv * yv ** 2 * tv + yv ** 3 * tv ** 2
    assert dq1(f, DQPoint(x, y, t)) == CTX3.vector([want])
    # formal derivative at t = 0
    assert dq1(f, DQPoint(x, y, CTX3.zero())) == CTX3.vector([3 * xv ** 2 * yv])


def test_dq1_crosses_pieces_for_nonzero_t():
    f = mk(CTX3, [
        ((0,), 1, {(1,): (1,)}),       # x on 3Z_3
        ((1,), 1, {(1,): (2,)}),       # 2x on 1+3Z_3
        ((2,), 1, {(1,): (1,)}),
    ])
    x, y, t = CTX3.vector([0]), CTX3.vector([1]), CTX3.one()
    # f(1) - f(0) = 2 - 0
    assert dq1(f, DQPoint(x, y, t)) == CTX3.vector([2])


def test_dq1_bilinear_closed_form():
    # beta(v, w) = v*w on Z_3 x Z_3
    root = B(CTX3, (0,), 0)
    f = padic_product_model([(root, root, {(1, 1): CTX3.vector([1])})], e=1)
    rng = random.Random(3)
    for _ in range(25):
        v, w, v2, w2, tv = (rng.randrange(0, 81) for _ in range(5))
        x = CTX3.vector([v, w])
        y = CTX3.vector([v2, w2])
        t = CTX3.from_int(tv) if tv else CTX3.zero()
        got = dq1(f, DQPoint(x, y, t))
        want = v * w2 + v2 * w + tv * v2 * w2
        assert got == CTX3.vector([want])


def test_dqk_order2_hand_formula():
    f = root_model(CTX3, 1, {(2,): (1,)})
    xv, yv, tv, xv2, yv2, tv2, sv = 1, 2, 3, 4, 5, 6, 7
    pt = DQPoint(
        DQPoint(CTX3.vector([xv]), CTX3.vector([yv]), CTX3.from_int(tv)),
        DQPoint(CTX3.vector([xv2]), CTX3.vector([yv2]), CTX3.from_int(tv2)),
        CTX3.from_int(sv),
    )
    want = (
        2 * (xv * yv2 + xv2 * yv)
        + 2 * sv * xv2 * yv2
        + tv * (2 * yv * yv2 + sv * yv2 ** 2)
        + tv2 * (yv + sv * yv2) ** 2
    )
    assert dqk(f, pt, 2) == CTX3.vector([want])
    with pytest.raises(ValueError):
        dqk(f, pt, 3)


def _fr_evaluate(P, xs):
    """A polynomial with Fraction coefficients at a point, on Fractions."""
    total = Fraction(0)
    for e, c in P.items():
        for x, k in zip(xs, e):
            c *= x ** k
        total += c
    return total


def _ref_eval(f, frs):
    for ball, _ in f.pieces:
        if ball.contains_fractions(frs):
            return tuple(_fr_evaluate(P, frs) for P in f._frac[ball])
    raise AssertionError("reference point left the domain")


def _ref_quotient(f, node):
    """Test-side recursion on exact rationals: node is either a tuple of
    Fractions (a point) or (a, b, t) with Fraction scalar t != 0."""
    if isinstance(node, tuple) and node and isinstance(node[0], Fraction):
        return _ref_eval(f, node)
    a, b, t = node
    assert t != 0
    shifted = _ref_shift(a, b, t)
    va = _ref_quotient(f, a)
    vb = _ref_quotient(f, shifted)
    return tuple((q2 - q1) / t for q1, q2 in zip(va, vb))


def _ref_shift(a, b, t):
    if isinstance(a, tuple) and a and isinstance(a[0], Fraction):
        return tuple(q1 + t * q2 for q1, q2 in zip(a, b))
    return (_ref_shift(a[0], b[0], t), _ref_shift(a[1], b[1], t), a[2] + t * b[2])


def test_dqk_matches_reference_recursion():
    rng = random.Random(11)
    f = mk(CTX3, [
        ((0,), 1, {(1,): (1,), (2,): (2,)}),
        ((1,), 1, {(0,): (2,), (3,): (1,)}),
        ((2,), 1, {(1,): (2,)}),
    ])
    for _ in range(20):
        leaves = [rng.randrange(0, 27) for _ in range(4)]
        # the quotient acts on the stored digits, so the reference must read
        # its rationals back from the scalars (negative ints round-trip to
        # their N-digit representatives)
        scals = [CTX3.from_int(rng.choice([1, 2, 4, 5, 3, 9, -1, -2])) for _ in range(3)]
        pt = DQPoint(
            DQPoint(CTX3.vector([leaves[0]]), CTX3.vector([leaves[1]]), scals[0]),
            DQPoint(CTX3.vector([leaves[2]]), CTX3.vector([leaves[3]]), scals[1]),
            scals[2],
        )
        node = (
            ((Fraction(leaves[0]),), (Fraction(leaves[1]),), scals[0].to_fraction()),
            ((Fraction(leaves[2]),), (Fraction(leaves[3]),), scals[1].to_fraction()),
            scals[2].to_fraction(),
        )
        want = _ref_quotient(f, node)
        got = dqk(f, pt, 2)
        assert got == CTX3.vector([CTX3.from_fraction(q) for q in want])


def test_dqk_zero_inner_needs_single_piece():
    f = mk(CTX3, [
        ((0,), 1, {(2,): (1,)}),
        ((1,), 1, {(1,): (1,)}),
        ((2,), 1, {(1,): (1,)}),
    ])
    # outer parameter 0 while the base subtree evaluates at 0 and 1, which
    # live in different pieces: no single polynomial to differentiate
    pt = DQPoint(
        DQPoint(CTX3.vector([0]), CTX3.vector([1]), CTX3.one()),
        DQPoint(CTX3.vector([0]), CTX3.vector([1]), CTX3.one()),
        CTX3.zero(),
    )
    with pytest.raises(OutOfDomain) as err:
        dqk(f, pt, 2)
    assert "one piece" in str(err.value)
    # same-piece zero parameter works
    pt2 = DQPoint(
        DQPoint(CTX3.vector([0]), CTX3.vector([3]), CTX3.zero()),
        DQPoint(CTX3.vector([3]), CTX3.vector([6]), CTX3.zero()),
        CTX3.zero(),
    )
    got = dqk(f, pt2, 2)
    # f = x^2 on the piece: f^[1] at t=0 is 2xy; second derivative in
    # direction (x', y') at t=0: 2(x y' + x' y)
    assert got == CTX3.vector([2 * (0 * 6 + 3 * 3)])


def test_directional_symmetric_multilinear():
    f = root_model(CTX3, 2, {(2, 1): (1, 3), (1, 1): (2, 1), (0, 3): (1, 0)}, e=2)
    x = CTX3.vector([2, 5])
    rng = random.Random(4)
    for _ in range(10):
        vs = [CTX3.vector([rng.randrange(27), rng.randrange(27)]) for _ in range(3)]
        base = directional(f, x, vs)
        for perm in itertools.permutations(range(3)):
            assert directional(f, x, [vs[i] for i in perm]) == base
    v, w = CTX3.vector([1, 2]), CTX3.vector([4, 1])
    lin = directional(f, x, [v + w])
    assert lin == directional(f, x, [v]) + directional(f, x, [w])
    c = CTX3.from_int(5)
    assert directional(f, x, [v.scale(c)]) == directional(f, x, [v]).scale(c)


def test_chain_rule_basic_and_zero_t():
    f = root_model(CTX3, 1, {(1,): (1,), (2,): (3,)})
    g = root_model(CTX3, 1, {(2,): (1,)})
    rng = random.Random(9)
    for _ in range(20):
        x = CTX3.vector([rng.randrange(27)])
        y = CTX3.vector([rng.randrange(27)])
        tv = rng.choice([0, 1, 2, 3, 6, -1])
        t = CTX3.from_int(tv) if tv else CTX3.zero()
        rep = check_chain_rule(f, g, DQPoint(x, y, t))
        assert rep.equal, (rep.lhs, rep.rhs)


def test_chain_rule_across_g_pieces_refines():
    # f(x) = x maps the root ball across both pieces of g, forcing the
    # certificate search to refine f's partition
    f = root_model(CTX3, 1, {(1,): (1,)})
    g = mk(CTX3, [
        ((0,), 1, {(2,): (1,)}),
        ((1,), 1, {(1,): (2,)}),
        ((2,), 1, {(0,): (1,)}),
    ])
    refined, cert = find_certificate(g, f)
    assert len(refined.pieces) == 3
    assert set(cert.values()) == set(g.piece_balls())
    rep = check_chain_rule(f, g, DQPoint(CTX3.vector([1]), CTX3.vector([3]), CTX3.from_int(3)))
    assert rep.equal


def test_compose_eval_agreement_and_errors():
    f = mk(CTX3, [((0,), 1, {(1,): (2,)}), ((1,), 1, {(0,): (1,)}), ((2,), 1, {(1,): (1,)})])
    g = mk(CTX3, [((0,), 0, {(2,): (1,), (0,): (1,)})])
    cert = {b: g.piece_balls()[0] for b in f.piece_balls()}
    h = compose(g, f, cert)
    for n in range(9):
        x = CTX3.vector([n])
        assert h.eval(x) == g.eval(f.eval(x))
    bad = dict(cert)
    del bad[f.piece_balls()[0]]
    with pytest.raises(CertificateInvalid):
        compose(g, f, bad)
    wrong_target = {b: B(CTX3, (1,), 1) for b in f.piece_balls()}
    with pytest.raises(CertificateInvalid):
        compose(g, f, wrong_target)


def test_compose_certificate_image_violation_witness():
    f = root_model(CTX3, 1, {(1,): (1,)})
    g = mk(CTX3, [((0,), 1, {(1,): (1,)}), ((1,), 1, {(1,): (1,)}), ((2,), 1, {(1,): (1,)})])
    cert = {f.piece_balls()[0]: B(CTX3, (0,), 1)}
    with pytest.raises(CertificateInvalid) as err:
        compose(g, f, cert)
    assert "does not map into" in str(err.value)


def test_compose_mahler_route():
    # x^2 + x = 2 C(x, 2) + 2 C(x, 1) is always even: the coefficient bound
    # cannot see it, its Mahler coefficients certify the image lands in 2Z_2
    f = root_model(CTX2, 1, {(2,): (1,), (1,): (1,)})
    g = mk(CTX2, [((0,), 1, {(1,): (1,)}), ((1,), 1, {(0,): (1,)})])
    refined, cert = find_certificate(g, f)
    assert cert[refined.piece_balls()[0]] == B(CTX2, (0,), 1)
    h = compose(g, refined, cert)
    for n in range(4):
        x = CTX2.vector([n])
        assert h.eval(x) == g.eval(f.eval(x))


def test_compose_rejects_sub_lipschitz_certificate():
    # f(x) = x/3 maps 3Z_3 onto Z_3, so no certificate into 3Z_3 is valid;
    # the sampling level must account for the chart rescaling or f(0) = 0
    # would wrongly certify it
    third = CTX3.from_fraction(Fraction(1, 3))
    f = mk(CTX3, [((0,), 1, {(1,): (third,)})])
    g = mk(CTX3, [((0,), 1, {(1,): (1,)}), ((1,), 1, {(1,): (1,)}), ((2,), 1, {(1,): (1,)})])
    cert = {f.piece_balls()[0]: B(CTX3, (0,), 1)}
    with pytest.raises(CertificateInvalid):
        compose(g, f, cert)


def test_composition_uncertified_outside_domain():
    f = root_model(CTX3, 1, {(0,): (1,), (1,): (3,)})  # image in 1+3Z_3
    g = mk(CTX3, [((0,), 1, {(1,): (1,)})])            # domain only 3Z_3
    with pytest.raises(CompositionUncertified):
        find_certificate(g, f)


def test_braced_k1_is_dq1():
    f = root_model(CTX3, 1, {(2,): (1,), (1,): (2,)})
    x, y, t = CTX3.vector([2]), CTX3.vector([4]), CTX3.from_int(3)
    tree = _braced_tree([x.to_fractions(), y.to_fractions()], [t.to_fraction()])
    assert tree == _fr_point(DQPoint(x, y, t))
    assert f._vec(_dqk_fr(f, tree)) == dq1(f, DQPoint(x, y, t))


def _braced_symbolic(polys, d, k):
    """Independent symbolic route: repeated quotient step followed by the
    argument-regrouping variable permutation."""
    cur = tuple(polys)
    nv = d
    for j in range(k):
        m = 2 * nv + 1
        subs = [
            _poly.add(_poly.var(m, i), _poly.mul(_poly.var(m, m - 1), _poly.var(m, nv + i)))
            for i in range(nv)
        ]
        stepped = []
        for P in cur:
            shifted = _poly.subst(P, subs, m)
            base = _poly.rename(P, list(range(nv)), m)
            stepped.append(_poly.div_var(_poly.sub(shifted, base), m - 1))
        nvec, nsc = 2 ** j, 2 ** j - 1
        newnvec, newnsc = 2 * nvec, 2 * nsc + 1
        mapping = [0] * m
        for b in range(nvec):
            for c in range(d):
                mapping[b * d + c] = b * d + c
                mapping[nv + b * d + c] = (nvec + b) * d + c
        for si in range(nsc):
            mapping[nvec * d + si] = newnvec * d + si
            mapping[nv + nvec * d + si] = newnvec * d + nsc + si
        mapping[2 * nv] = newnvec * d + 2 * nsc
        cur = tuple(_poly.rename(P, mapping, m) for P in stepped)
        nv = newnvec * d + newnsc
        assert nv == m
    return cur


@pytest.mark.parametrize("d,k,coeffs,e", [
    (1, 1, {(2,): (1,), (1,): (2,)}, 1),
    (1, 2, {(2,): (1,), (0,): (1,)}, 1),
    (1, 3, {(2,): (2,)}, 1),
    (2, 2, {(1, 1): (1, 2), (2, 0): (0, 1)}, 2),
])
def test_braced_eval_matches_symbolic_permutation_route(d, k, coeffs, e):
    """The braced tree that check_scaling evaluates, against the
    regrouped symbolic quotient, exactly."""
    f = root_model(CTX3, d, coeffs, e=e)
    sym = _braced_symbolic(f._frac[f.piece_balls()[0]], d, k)
    rng = random.Random(100 * d + k)
    for _ in range(12):
        xs = [tuple(Fraction(rng.randrange(27)) for _ in range(d)) for _ in range(2 ** k)]
        ss = [Fraction(rng.choice([0, 1, 2, 3, 5, 9])) for _ in range(2 ** k - 1)]
        flat = [c for x in xs for c in x] + ss
        want = tuple(_fr_evaluate(P, flat) for P in sym)
        assert _dqk_fr(f, _braced_tree(xs, ss)) == want


def test_scaling_exponents_sequence():
    assert scaling_exponents(1) == ([0, 1], [0], 1)
    assert scaling_exponents(2) == ([0, 2, 1, 3], [1, 0, 0], 3)
    i3, j3, l3 = scaling_exponents(3)
    assert l3 == 7
    assert i3 == [0, 4, 2, 6, 1, 5, 3, 7]
    assert j3 == [3, 1, 1, 2, 0, 0, 0]
    assert len(i3) == 8 and len(j3) == 7


def test_scaling_order1_rescaling_identity():
    # f^[1](x1, x2, t*p) = (1/t) f^[1](x1, t*x2, p) on exact rationals
    f = root_model(CTX3, 1, {(2,): (1,), (1,): (1,)})
    rng = random.Random(13)
    for _ in range(20):
        x1, x2 = CTX3.vector([rng.randrange(27)]), CTX3.vector([rng.randrange(27)])
        pv = CTX3.from_int(rng.choice([1, 2, 4, 5]))
        # the public cross-check route multiplies points by t, so keep t in
        # the exactly representable pool
        t = CTX3.from_int(rng.choice([1, 2, 3, 9]))
        rep = check_scaling(f, 1, [x1, x2], [pv], t)
        assert rep.equal
        lhs = dq1(f, DQPoint(x1, x2, t * pv))
        rhs = dq1(f, DQPoint(x1, x2.scale(t), pv)).scale(t.inverse())
        assert lhs == rhs == rep.lhs


@pytest.mark.parametrize("k", [1, 2, 3])
def test_scaling_higher_orders(k):
    f = root_model(CTX3, 1, {(2,): (1,), (1,): (2,), (0,): (1,)})
    rng = random.Random(40 + k)
    for _ in range(10):
        xs = [CTX3.vector([rng.randrange(27)]) for _ in range(2 ** k)]
        pvec = [CTX3.from_int(rng.choice([1, 2, 4, 5, 7])) for _ in range(2 ** k - 1)]
        t = CTX3.from_int(rng.choice([1, 2, 4, -1]))
        rep = check_scaling(f, k, xs, pvec, t)
        assert rep.equal, (k, rep.lhs, rep.rhs)


def test_scaling_membership_failure():
    # domain only 3Z_3: x2 scaled by t moves the shifted point outside
    f = mk(CTX3, [((0,), 1, {(2,): (1,)})])
    x1, x2 = CTX3.vector([3]), CTX3.vector([1])
    with pytest.raises(MembershipFailure):
        check_scaling(f, 1, [x1, x2], [CTX3.one()], CTX3.one())


def test_scaling_membership_equivalence_on_samples():
    # the two packs are members together or not at all
    f = mk(CTX3, [((0,), 1, {(2,): (1,)})])
    rng = random.Random(77)
    agree = 0
    for _ in range(200):
        xs = [CTX3.vector([rng.randrange(27)]) for _ in range(4)]
        pvec = [CTX3.from_int(rng.choice([1, 2, 3])) for _ in range(3)]
        t = CTX3.from_int(rng.choice([1, 2, 4]))
        i, j, ell = scaling_exponents(2)
        tf = t.to_fraction()
        from ucalc.calculus import _braced_tree

        lhs_tree = _braced_tree(
            [x.to_fractions() for x in xs],
            [tf * s.to_fraction() for s in pvec],
        )
        rhs_tree = _braced_tree(
            [tuple(tf ** a * c for c in x.to_fractions()) for x, a in zip(xs, i)],
            [tf ** (-b) * s.to_fraction() for s, b in zip(pvec, j)],
        )
        m1 = dq_domain_contains(f, lhs_tree)
        m2 = dq_domain_contains(f, rhs_tree)
        assert m1 == m2
        agree += m1
    assert agree > 0


def test_check_eval_derivative():
    gamma = mk(CTX3, [((0,), 1, {(2,): (1,), (1,): (1,)}), ((1,), 1, {(1,): (2,)}), ((2,), 1, {(0,): (1,)})])
    eta = mk(CTX3, [((0,), 0, {(1,): (1,), (0,): (2,)})])
    rng = random.Random(21)
    for _ in range(15):
        x = CTX3.vector([rng.randrange(27)])
        y = CTX3.vector([rng.randrange(27)])
        t = CTX3.from_int(rng.choice([1, 2, 3, 9, -1]))
        rep = check_eval_derivative(gamma, eta, x, y, t)
        assert rep.equal


def test_check_composition_derivative():
    gamma = root_model(CTX3, 1, {(2,): (1,), (0,): (1,)})
    gamma1 = root_model(CTX3, 1, {(1,): (2,)})
    eta = root_model(CTX3, 1, {(1,): (1,), (0,): (1,)})
    eta1 = root_model(CTX3, 1, {(2,): (1,)})
    rng = random.Random(31)
    for _ in range(15):
        x = CTX3.vector([rng.randrange(27)])
        t = CTX3.from_int(rng.choice([1, 3, 9, 2]))
        rep = check_composition_derivative(gamma, eta, gamma1, eta1, t, x)
        assert rep.equal
        assert rep.limit_consistent


def test_curry_roundtrip():
    bu = B(CTX3, (0,), 0)
    bv = B(CTX3, (0,), 1)
    f = padic_product_model(
        [
            (bu, bv, {(1, 1): CTX3.vector([1]), (2, 0): CTX3.vector([2])}),
            (bu, B(CTX3, (1,), 1), {(0, 1): CTX3.vector([1])}),
            (bu, B(CTX3, (2,), 1), {(0, 0): CTX3.vector([4])}),
        ],
        e=1,
    )
    rng = random.Random(8)
    for _ in range(20):
        xv, yv = rng.randrange(27), rng.randrange(27)
        x, y = CTX3.vector([xv]), CTX3.vector([yv])
        fy = curry(f, x)
        assert fy.eval(y) == f.eval(CTX3.vector([xv, yv]))
    with pytest.raises(NotProductPartition):
        curry(root_model(CTX3, 2, {(1, 1): (1,)}), CTX3.vector([0]))


def test_product_model_refines_mixed_levels():
    bu = B(CTX3, (0,), 1)
    bv = B(CTX3, (0,), 0)
    f = padic_product_model([(bu, bv, {(1, 1): CTX3.vector([1])})], e=1)
    # V factor was refined to level 1: three pieces, all level 1 balls in d=2
    assert len(f.pieces) == 3
    assert all(b.k == 1 for b, _ in f.pieces)
    fy = curry(f, CTX3.vector([3]))
    assert fy.eval(CTX3.vector([5])) == CTX3.vector([15])


def test_model_add_refines_partitions():
    f = mk(CTX3, [((0,), 0, {(1,): (1,)})])
    g = mk(CTX3, [((0,), 1, {(0,): (1,)}), ((1,), 1, {(0,): (2,)}), ((2,), 1, {(0,): (3,)})])
    h = model_add(f, g)
    assert len(h.pieces) == 3
    assert h.eval(CTX3.vector([4])) == CTX3.vector([6])
    s = model_scale(f, CTX3.from_int(5))
    assert s.eval(CTX3.vector([2])) == CTX3.vector([10])


def zero_model(region, e):
    return padic_model([(b, {}) for b in region.balls], e=e)


def test_identity_and_zero_models():
    region = ClopenRegion([B(CTX3, (0,), 1), B(CTX3, (1,), 1)])
    ident = identity_model(region)
    assert ident.eval(CTX3.vector([4])) == CTX3.vector([4])
    z = zero_model(region, 2)
    assert z.eval(CTX3.vector([3])) == CTX3.vector([0, 0])


def test_model_json_roundtrip():
    f = mk(CTX3, [((0,), 1, {(1,): (2,), (0,): (1,)}), ((1,), 1, {(2,): (1,)}), ((2,), 1, {})], e=1)
    obj = model_to_json(f)
    f2 = model_from_json(obj)
    assert f2.domain == f.domain
    for n in range(9):
        x = CTX3.vector([n])
        assert f2.eval(x) == f.eval(x)
    bu = B(CTX3, (0,), 0)
    g = padic_product_model([(bu, bu, {(1, 1): CTX3.vector([1])})], e=1)
    g2 = model_from_json(model_to_json(g))
    assert g2.factors is not None
    assert curry(g2, CTX3.vector([2])).eval(CTX3.vector([5])) == CTX3.vector([10])


def _split_unit_ball(ctx, rng, d, top):
    """Disjoint balls covering O^d: each ball splits into its children with
    chance 1/2, down to level top."""
    out, todo = [], [B(ctx, (0,) * d, 0)]
    while todo:
        b = todo.pop()
        if b.k < top and rng.random() < 0.5:
            todo.extend(b.children())
        else:
            out.append(b)
    return out


def _json_scalar(rng, p, N, zero=False):
    if zero or rng.random() < 0.2:
        return {"p": p, "v": "inf", "digits": [0] * N}
    return {"p": p, "v": rng.randint(-3, 3), "digits": [rng.randrange(1, p)] + [rng.randrange(p) for _ in range(N - 1)]}


def _json_ball(rng, b):
    """A ball with a centre that is not reduced mod p^k."""
    step = b.ctx.p ** b.k
    return {"center": vector_to_json(b.ctx.vector([c + step * rng.randrange(9) for c in b.ints])), "k": b.k}


def _random_model_json(rng, p, d, e):
    """A model file over a random split of O^d, with negative valuations,
    exact zeros, all-zero monomials and, in d = 2, product entries."""
    N = rng.choice([4, 8, 12])
    ctx = PadicContext(p, N)
    balls = _split_unit_ball(ctx, rng, d, 3 if p ** d <= 4 else 2 if p ** d <= 9 else 1)
    pieces = []
    for b in balls:
        poly = []
        for _ in range(rng.randrange(5)):
            zero = rng.random() < 0.15
            poly.append({"exps": [rng.randrange(3) for _ in range(d)],
                         "coef": [_json_scalar(rng, p, N, zero) for _ in range(e)]})
        pieces.append({"ball": _json_ball(rng, b), "poly": poly})
    obj = {"codim": e, "pieces": pieces}
    if rng.random() < 0.5:
        obj["domain"] = {"balls": [_json_ball(rng, B(ctx, (0,) * d, 0))]}
    if d == 2 and rng.random() < 0.5:
        obj["product"] = [{"ball": _json_ball(rng, b), "u": _json_ball(rng, B(ctx, b.ints[:1], b.k)),
                           "v": _json_ball(rng, B(ctx, b.ints[1:], b.k))} for b in balls]
    return obj


def _reference_model(obj):
    """The model a file describes, built the way the loader built it before
    it decoded straight into the integer store: PadicVector coefficients
    from vector_from_json, balls from PadicVector centres, then the
    test-local conversion `padic_model(pieces, e)`."""
    def ball(o):
        return Ball(vector_from_json(o["center"]), o["k"])
    pieces = [(ball(piece["ball"]), {tuple(m["exps"]): vector_from_json(m["coef"]) for m in piece["poly"]})
              for piece in obj["pieces"]]
    factors = {ball(f["ball"]): (ball(f["u"]), ball(f["v"])) for f in obj.get("product", [])}
    return padic_model(pieces, obj["codim"], factors)


def _refuse(*args, **kwargs):
    raise AssertionError("model_from_json built a PadicScalar or a PadicVector")


@pytest.mark.parametrize("p,d", [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1), (5, 2)])
def test_loader_matches_padicvector_reference(p, d, monkeypatch):
    rng = random.Random(100 * p + d)
    scaled = 0
    for i in range(12):
        obj = _random_model_json(rng, p, d, 1 + i % 2)
        ref = _reference_model(obj)
        with monkeypatch.context() as m:
            for cls in (PadicScalar, PadicVector):
                m.setattr(cls, "__init__", _refuse)
            f = model_from_json(obj)
        assert f._store == ref._store
        assert f.domain == ref.domain
        assert f.pieces == ref.pieces
        assert f.factors == ref.factors
        scaled += any(s for s, _ in f._store.values())
    assert scaled, "no model with a negative valuation"


def test_dq_domain_membership_helper():
    f = mk(CTX3, [((0,), 1, {(1,): (1,)})])
    inside = DQPoint(CTX3.vector([3]), CTX3.vector([3]), CTX3.one())
    outside = DQPoint(CTX3.vector([3]), CTX3.vector([1]), CTX3.one())
    assert dq_domain_contains(f, inside)
    assert not dq_domain_contains(f, outside)
