import random
from fractions import Fraction

import pytest

from ucalc.balls import Ball, ClopenRegion
from ucalc.calculus import FunctionModel
from ucalc.diffeo import BallEndo, CertifiedDiffeo, certify_omega, induced_level_map
from ucalc.padic import PadicContext
from ucalc.weakprod import (
    GlobalDiffeo,
    MalformedIndex,
    NotBijective,
    RefinementMismatch,
    WeakProductElement,
    ZeroConditionViolated,
    conjugate_global,
    flatten,
    oplus_apply,
    regroup,
    relabel,
    wp_inv,
    wp_mul,
)

CTX3 = PadicContext(3, 12)


def B(ctx, ints, k):
    return Ball.from_ints(ctx, ints, k)


def model(ctx, coeffs, d=1, e=None):
    cmap = {exps: ctx.vector(vals) for exps, vals in coeffs.items()}
    return FunctionModel([(B(ctx, (0,) * d, 0), cmap)], e=e or d)


def certified(ctx, coeffs, d=1):
    endo = BallEndo.from_displacement(model(ctx, coeffs, d=d))
    return CertifiedDiffeo(endo=endo, cert=certify_omega(endo))


def rand_certified(ctx, rng):
    coeffs = {}
    for j in range(3):
        c = ctx.p * rng.randrange(ctx.p ** 3)
        if c:
            coeffs[(j,)] = (c,)
    return certified(ctx, coeffs)


def compose_perm(f, g):
    return tuple(f[i] for i in g)


def inv_perm(f):
    out = [0] * len(f)
    for i, j in enumerate(f):
        out[j] = i
    return tuple(out)


def idperm(m, p=3, d=1):
    return tuple(range(p ** (d * m)))


def induced_or_id(el, key, m):
    entry = el.support.get(key)
    return idperm(m) if entry is None else entry.induced(m)


def assert_same_element(el1, el2, m=2):
    assert set(el1.index_set) == set(el2.index_set)
    for key in set(el1.support) | set(el2.support):
        assert induced_or_id(el1, key, m) == induced_or_id(el2, key, m)


IDSET = (0, 1, 2)

G_LIN = certified(CTX3, {(1,): (3,)})
G_SHIFT = certified(CTX3, {(0,): (3,)})
G_QUAD = certified(CTX3, {(2,): (9,)})


def test_identity_entries_dropped():
    a = WeakProductElement(IDSET, {0: G_LIN, 1: certified(CTX3, {})})
    assert sorted(a.support) == [0]


def test_index_validation():
    with pytest.raises(MalformedIndex):
        WeakProductElement((0, 0, 1), {})
    with pytest.raises(MalformedIndex):
        WeakProductElement(IDSET, {5: G_LIN})
    with pytest.raises(MalformedIndex):
        WeakProductElement(IDSET, {0: "not a diffeo"})


def test_mul_with_identity():
    a = WeakProductElement(IDSET, {0: G_LIN, 2: G_SHIFT})
    prod = wp_mul(a, WeakProductElement(IDSET, {}))
    assert sorted(prod.support) == [0, 2]
    assert prod.support[0] is a.support[0]
    prod = wp_mul(WeakProductElement(IDSET, {}), a)
    assert prod.support[2] is a.support[2]


def test_mul_disjoint_supports():
    a = WeakProductElement(IDSET, {0: G_LIN})
    b = WeakProductElement(IDSET, {2: G_SHIFT})
    prod = wp_mul(a, b)
    assert sorted(prod.support) == [0, 2]
    assert prod.support[0] is a.support[0]
    assert prod.support[2] is b.support[2]


def test_mul_overlapping_supports():
    a = WeakProductElement(IDSET, {0: G_LIN})
    b = WeakProductElement(IDSET, {0: G_SHIFT})
    prod = wp_mul(a, b)
    # independent oracle: compose the induced permutations by hand
    pa = induced_level_map(G_LIN, 2)
    pb = induced_level_map(G_SHIFT, 2)
    assert prod.support[0].induced(2) == compose_perm(pa, pb)


def test_mul_index_mismatch():
    a = WeakProductElement(IDSET, {0: G_LIN})
    b = WeakProductElement((0, 1), {0: G_LIN})
    with pytest.raises(ValueError):
        wp_mul(a, b)


def test_inverse_cancels_syntactically():
    a = WeakProductElement(IDSET, {0: G_LIN, 1: G_QUAD})
    assert wp_mul(a, wp_inv(a)).support == {}
    assert wp_mul(wp_inv(a), a).support == {}


def test_inverse_cancels_structural_twin():
    # same map built twice: no object identity to exploit, so the product
    # keeps a composite entry whose induced maps must be trivial
    a = WeakProductElement(IDSET, {0: G_LIN})
    b = WeakProductElement(IDSET, {0: certified(CTX3, {(1,): (3,)})})
    prod = wp_mul(a, wp_inv(b))
    for m in (1, 2, 3):
        assert induced_or_id(prod, 0, m) == idperm(m)


def test_inverse_entry_induced_is_inverse_permutation():
    a = WeakProductElement(IDSET, {0: G_SHIFT})
    inv = wp_inv(a)
    assert inv.support[0].induced(2) == inv_perm(induced_level_map(G_SHIFT, 2))


def test_associativity_via_induced_maps():
    rng = random.Random(11)
    for _ in range(4):
        a = WeakProductElement(IDSET, {0: rand_certified(CTX3, rng)})
        b = wp_inv(WeakProductElement(IDSET, {0: rand_certified(CTX3, rng), 1: G_LIN}))
        c = WeakProductElement(IDSET, {0: rand_certified(CTX3, rng)})
        assert_same_element(wp_mul(wp_mul(a, b), c), wp_mul(a, wp_mul(b, c)), m=3)


def test_regroup_singleton_fibers():
    K = [(0, 0), (1, 0), (2, 0)]
    x = WeakProductElement(K, {(1, 0): G_LIN})
    g = regroup(x)
    assert g.outer == (0, 1, 2)
    assert g.fibers == {0: ((0, 0),), 1: ((1, 0),), 2: ((2, 0),)}
    assert g.support[1][(1, 0)] is x.support[(1, 0)]
    back = flatten(g)
    assert back.index_set == tuple(K)
    assert back.support[(1, 0)] is x.support[(1, 0)]


def test_regroup_empty_support():
    g = regroup(WeakProductElement([(0, 0), (0, 1)], {}))
    assert g.support == {}
    assert flatten(g).support == {}


def test_regroup_rejects_non_pair_ids():
    with pytest.raises(MalformedIndex):
        regroup(WeakProductElement((0, 1), {}))


def test_regroup_homomorphism():
    K = [(0, 0), (0, 1), (1, 0), (1, 1)]
    rng = random.Random(23)
    for _ in range(4):
        x = WeakProductElement(
            K, {K[rng.randrange(4)]: rand_certified(CTX3, rng) for _ in range(2)}
        )
        y = WeakProductElement(
            K, {K[rng.randrange(4)]: rand_certified(CTX3, rng) for _ in range(2)}
        )
        lhs = regroup(wp_mul(x, y))
        rhs = regroup(x).mul(regroup(y))
        assert sorted(lhs.support) == sorted(rhs.support)
        for i in lhs.support:
            assert sorted(lhs.support[i]) == sorted(rhs.support[i])
            for kid in lhs.support[i]:
                assert lhs.support[i][kid].induced(2) == rhs.support[i][kid].induced(2)


def test_grouped_mul_shape_mismatch():
    g1 = regroup(WeakProductElement([(0, 0), (0, 1)], {}))
    g2 = regroup(WeakProductElement([(0, 0), (1, 0)], {}))
    with pytest.raises(ValueError):
        g1.mul(g2)


def test_relabel_identity():
    a = WeakProductElement(IDSET, {0: G_LIN, 2: G_QUAD})
    r = relabel(a, {i: i for i in IDSET})
    assert r.index_set == IDSET
    assert r.support[0] is a.support[0]
    assert r.support[2] is a.support[2]


def test_relabel_pure_permutation():
    a = WeakProductElement(IDSET, {0: G_LIN, 2: G_QUAD})
    pi = {"u": 2, "v": 0, "w": 1}
    r = relabel(a, pi)
    assert r.index_set == ("u", "v", "w")
    assert sorted(r.support) == ["u", "v"]
    assert r.support["u"] is a.support[2]
    assert r.support["v"] is a.support[0]
    back = relabel(r, {i: j for j, i in pi.items()})
    assert back.support[0] is a.support[0]
    assert back.support[2] is a.support[2]


def test_relabel_with_conjugation():
    a = WeakProductElement(IDSET, {0: G_QUAD})
    psi = certified(CTX3, {(0,): (3,)})
    r = relabel(a, {i: i for i in IDSET}, beta={0: psi})
    # oracle: conjugate the induced permutations directly
    for m in (1, 2, 3):
        pp = induced_level_map(psi, m)
        pg = induced_level_map(G_QUAD, m)
        assert r.support[0].induced(m) == compose_perm(compose_perm(pp, pg), inv_perm(pp))


def test_relabel_rejects_non_bijections():
    a = WeakProductElement(IDSET, {0: G_LIN})
    with pytest.raises(NotBijective):
        relabel(a, {"u": 0, "v": 1})
    with pytest.raises(NotBijective):
        relabel(a, {"u": 0, "v": 0, "w": 1})


def test_oplus_linear_single_support():
    fs = {i: model(CTX3, {(1,): (3,)}) for i in range(3)}
    fs[2] = model(CTX3, {(0,): (9,), (1,): (1,)})
    out = oplus_apply(fs, {0: CTX3.vector([2])}, exceptional=(2,))
    assert sorted(out) == [0, 2]
    assert out[0].to_fractions() == (Fraction(6),)
    assert out[2].to_fractions() == (Fraction(9),)


def test_oplus_zero_input_empty_output():
    fs = {i: model(CTX3, {(2,): (1,)}) for i in range(4)}
    assert oplus_apply(fs, {}) == {}
    # an explicit zero in the support still maps to zero and is dropped
    assert oplus_apply(fs, {1: CTX3.vector([0])}) == {}


def test_oplus_quadratic_pointwise_oracle():
    rng = random.Random(7)
    fs = {}
    coeffs = {}
    for i in range(5):
        a, b = rng.randrange(1, 27), rng.randrange(1, 27)
        coeffs[i] = (a, b)
        fs[i] = model(CTX3, {(1,): (a,), (2,): (b,)})
    xs = {1: CTX3.vector([rng.randrange(3 ** 12)]), 3: CTX3.vector([rng.randrange(3 ** 12)])}
    out = oplus_apply(fs, xs)
    assert sorted(out) == [1, 3]
    for i, xi in xs.items():
        a, b = coeffs[i]
        q = xi.to_fractions()[0]
        # the model truncates at relative precision N, so reduce the oracle too
        assert out[i].coords[0] == CTX3.from_fraction(a * q + b * q * q)


def test_oplus_zero_condition_violated():
    fs = {0: model(CTX3, {(1,): (1,)}), 1: model(CTX3, {(0,): (2,)})}
    with pytest.raises(ZeroConditionViolated) as exc:
        oplus_apply(fs, {0: CTX3.vector([1])})
    assert exc.value.index == 1
    out = oplus_apply(fs, {0: CTX3.vector([1])}, exceptional=(1,))
    assert sorted(out) == [0, 1]
    assert out[1].to_fractions() == (Fraction(2),)


def test_oplus_with_parameter():
    fs = {0: model(CTX3, {(1, 1): (1,)}, d=2, e=1), 1: model(CTX3, {(1, 0): (3,)}, d=2, e=1)}
    par = CTX3.vector([5])
    out = oplus_apply(fs, {0: CTX3.vector([2])}, param=par)
    assert out[0].to_fractions() == (Fraction(10),)
    bad = {0: model(CTX3, {(0, 1): (1,)}, d=2, e=1)}
    with pytest.raises(ZeroConditionViolated):
        oplus_apply(bad, {}, param=par)
    assert oplus_apply(bad, {}, exceptional=(0,), param=par)[0].to_fractions() == (Fraction(5),)


def test_oplus_shape_validation():
    fs = {0: model(CTX3, {(1,): (3,)})}
    with pytest.raises(MalformedIndex):
        oplus_apply(fs, {1: CTX3.vector([1])})
    with pytest.raises(MalformedIndex):
        oplus_apply(fs, {}, exceptional=(7,))
    with pytest.raises(MalformedIndex):
        oplus_apply(fs, {0: CTX3.vector([1, 2])})


BALLS3 = (B(CTX3, (0,), 1), B(CTX3, (1,), 1), B(CTX3, (2,), 1))
ROOT_REGION = ClopenRegion(list(BALLS3))
IDENT = certified(CTX3, {})


def test_global_diffeo_validation():
    swap = [
        (BALLS3[0], BALLS3[1], IDENT),
        (BALLS3[1], BALLS3[0], IDENT),
        (BALLS3[2], BALLS3[2], IDENT),
    ]
    GlobalDiffeo(ROOT_REGION, swap)
    with pytest.raises(ValueError):
        GlobalDiffeo(ROOT_REGION, swap[:2])
    # overlap hides inside canonicalization, the volume check catches it
    with pytest.raises(ValueError):
        GlobalDiffeo(ROOT_REGION, swap + [(B(CTX3, (0,), 2), B(CTX3, (0,), 2), IDENT)])
    mismatched = [
        (BALLS3[0], B(CTX3, (0,), 2), IDENT),
        (B(CTX3, (1,), 2), BALLS3[1], IDENT),
        (B(CTX3, (4,), 2), B(CTX3, (3,), 2), IDENT),
        (B(CTX3, (7,), 2), B(CTX3, (6,), 2), IDENT),
        (BALLS3[2], BALLS3[2], IDENT),
    ]
    with pytest.raises(ValueError):
        GlobalDiffeo(ROOT_REGION, mismatched)


def test_conjugate_by_identity_global():
    gd = GlobalDiffeo(ROOT_REGION, [(b, b, IDENT) for b in BALLS3])
    eta = WeakProductElement(BALLS3, {BALLS3[0]: G_LIN})
    out = conjugate_global(gd, eta)
    assert out.index_set == BALLS3
    assert out.support[BALLS3[0]] is eta.support[BALLS3[0]]


def test_conjugate_by_ball_permutation():
    cycle = [
        (BALLS3[0], BALLS3[1], IDENT),
        (BALLS3[1], BALLS3[2], IDENT),
        (BALLS3[2], BALLS3[0], IDENT),
    ]
    gd = GlobalDiffeo(ROOT_REGION, cycle)
    eta = WeakProductElement(BALLS3, {BALLS3[0]: G_LIN, BALLS3[2]: G_QUAD})
    out = conjugate_global(gd, eta)
    assert sorted(b.ints for b in out.support) == [(0,), (1,)]
    assert out.support[BALLS3[1]] is eta.support[BALLS3[0]]
    assert out.support[BALLS3[0]] is eta.support[BALLS3[2]]


def test_conjugate_mixing_affine_charts():
    chart = certified(CTX3, {(0,): (3,), (1,): (3,)})
    gd = GlobalDiffeo(
        ROOT_REGION,
        [
            (BALLS3[0], BALLS3[1], chart),
            (BALLS3[1], BALLS3[0], IDENT),
            (BALLS3[2], BALLS3[2], IDENT),
        ],
    )
    eta = WeakProductElement(BALLS3, {BALLS3[0]: G_QUAD})
    out = conjugate_global(gd, eta)
    assert sorted(out.support) == [BALLS3[1]]
    # oracle: conjugation of the induced permutations by the chart map
    ph = induced_level_map(chart, 2)
    pg = induced_level_map(G_QUAD, 2)
    assert out.support[BALLS3[1]].induced(2) == compose_perm(compose_perm(ph, pg), inv_perm(ph))


def test_conjugate_is_homomorphism():
    chart = certified(CTX3, {(0,): (6,)})
    gd = GlobalDiffeo(
        ROOT_REGION,
        [
            (BALLS3[0], BALLS3[2], chart),
            (BALLS3[2], BALLS3[0], chart),
            (BALLS3[1], BALLS3[1], IDENT),
        ],
    )
    rng = random.Random(31)
    for _ in range(3):
        e1 = WeakProductElement(BALLS3, {BALLS3[0]: rand_certified(CTX3, rng)})
        e2 = WeakProductElement(
            BALLS3, {BALLS3[0]: rand_certified(CTX3, rng), BALLS3[1]: G_LIN}
        )
        lhs = conjugate_global(gd, wp_mul(e1, e2))
        rhs = wp_mul(conjugate_global(gd, e1), conjugate_global(gd, e2))
        assert_same_element(lhs, rhs, m=2)


def test_conjugate_refinement_mismatch():
    gd = GlobalDiffeo(ROOT_REGION, [(b, b, IDENT) for b in BALLS3])
    root = B(CTX3, (0,), 0)
    eta = WeakProductElement((root,), {root: G_LIN})
    with pytest.raises(RefinementMismatch):
        conjugate_global(gd, eta)
    finer = B(CTX3, (0,), 2)
    with pytest.raises(RefinementMismatch):
        conjugate_global(gd, WeakProductElement((finer,), {finer: G_LIN}))
