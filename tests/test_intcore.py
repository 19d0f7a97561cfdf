"""Differential tests of the integer evaluation core against the Fraction route.

`FunctionModel.residues` evaluates a list of points, shuffled and with
repeats, and is compared point by point with the Fraction route.  Each
consumer of it (induced cell maps, batched inversion, isometry checks,
and the Omega scan of tests/reference.py) is compared with a reference
copy of its former Fraction implementation, kept here, target by target,
on certified maps over p in {2, 3, 5}, d in {1, 2}, with one piece or
several pieces at levels 0-2.  One-piece maps on the root ball, which
`residues` evaluates with no piece probe, are compared over d in {1, 2,
3}; batched inversion is also compared with the per-point loop it
replaced (`invert_per_point`), errors included, and the gcd valuations
of `image_bound`, `min_valuation` and `isometry_check` with
coefficient-wise references.  The exact Omega decision of
`certify_omega` is compared with that scan on maps built at the edge of
its three conditions, on random and composite maps, and on relatives of
a map that only the scan used to accept; each rejection's witness is
confirmed by a Fraction evaluation.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ucalc import _poly
from ucalc.balls import Ball
from ucalc.calculus import FunctionModel, NonIntegralChart, OutOfDomain, _dqk_fr, model_add
from ucalc.diffeo import (
    BallEndo,
    CertifiedDiffeo,
    IterationBudgetExceeded,
    NotCertified,
    OmegaCertificate,
    certify_omega,
    compose_diffeos,
    halfball_valuation,
    induced_level_map,
    invert_at,
    invert_points,
    isometry_check,
)
from ucalc.padic import INF, PadicContext, fraction_valuation

from reference import breaks_omega, invert_per_point, omega_witness_search, padic_model, slope_residues

N = 30
CTX = {p: PadicContext(p, N) for p in (2, 3, 5)}

# piece layouts of the unit ball: (centre offsets, level) per piece
LAYOUTS = {
    "one": lambda p, d: [((0,) * d, 0)],
    "children": lambda p, d: [(off, 1) for off in itertools.product(range(p), repeat=d)],
    "mixed": lambda p, d: [
        (off, 1) for off in itertools.product(range(p), repeat=d) if any(off)
    ] + [
        (tuple(p * o for o in off), 2) for off in itertools.product(range(p), repeat=d)
    ],
}


def chart_model(ctx, d, layout, charts):
    """Model whose piece on ball c + p^k O^d is Q(z), x = c + p^k z, with
    Q given per piece as d dicts of integer chart coefficients."""
    p = ctx.p
    pieces = []
    for (ints, k), Qs in zip(layout, charts):
        ball = Ball.from_ints(ctx, ints, k)
        subs = [
            _poly.scale(_poly.add(_poly.var(d, i), _poly.const(d, -c)), Fraction(1, p ** k))
            for i, c in enumerate(ball.ints)
        ]
        polys = tuple(_poly.subst({e: Fraction(c) for e, c in Q.items() if c}, subs, d) for Q in Qs)
        keys = {e for P in polys for e in P}
        pieces.append((ball, {e: ctx.vector([P.get(e, 0) for P in polys]) for e in keys}))
    return padic_model(pieces, e=d)


@st.composite
def maps(draw, certified=True, primes=(2, 3, 5), dims=(1, 2), layouts=("one", "children", "mixed")):
    """(ctx, d, sigma) with integral chart coefficients; certified maps have
    every chart coefficient divisible by p^(v_min + k_max), which
    `certify_omega` accepts."""
    p = draw(st.sampled_from(primes))
    d = draw(st.sampled_from(dims))
    layout = LAYOUTS[draw(st.sampled_from(layouts))](p, d)
    k_max = max(k for _, k in layout)
    v_min = halfball_valuation(p)
    exps = [e for e in itertools.product(range(3), repeat=d) if sum(e) <= 2]
    charts = []
    for _ in layout:
        Qs = []
        for _ in range(d):
            Q = {}
            for e in exps:
                shift = v_min + k_max if certified else draw(st.integers(0, v_min + 1))
                Q[e] = draw(st.integers(0, p ** 2)) * p ** shift
            Qs.append(Q)
        charts.append(Qs)
    return CTX[p], d, chart_model(CTX[p], d, layout, charts)


def certified_diffeo(sigma):
    endo = BallEndo.from_displacement(sigma)
    return CertifiedDiffeo(endo=endo, cert=certify_omega(endo))


# -- reference copies of the Fraction route


def ref_residues(f, ints, M):
    mod = f.ctx.p ** M
    vals = f._eval_fr(tuple(Fraction(i) for i in ints))
    return tuple(q.numerator * pow(q.denominator, -1, mod) % mod for q in vals)


def ref_induced(g, m):
    endo = g.endo
    reps = list(endo.ball.level_reps(m))
    index = {ints: i for i, ints in enumerate(reps)}
    return tuple(index[ref_residues(endo.gamma, ints, m)] for ints in reps)


def _reduce_mod(frs, p, M):
    mod = p ** M
    return tuple(Fraction(q.numerator * pow(q.denominator, -1, mod) % mod) for q in frs)


def ref_invert(endo, yf, target_v, v_min):
    p = endo.ctx.p
    budget = -(-target_v // v_min) + 2
    M = target_v + v_min + 2
    yf = _reduce_mod(yf, p, M)
    x = yf
    for _ in range(budget):
        nxt = _reduce_mod(tuple(a - q for a, q in zip(yf, endo.sigma._eval_fr(x))), p, M)
        gap = min(fraction_valuation(a - b, p) for a, b in zip(nxt, x))
        x = nxt
        if gap >= target_v:
            return x
    raise IterationBudgetExceeded("budget")


def ref_isometry(g, pairs):
    gamma = g.endo.gamma
    p = gamma.ctx.p
    bad = []
    for x, y in pairs:
        xf, yf = tuple(map(Fraction, x)), tuple(map(Fraction, y))
        gx, gy = gamma._eval_fr(xf), gamma._eval_fr(yf)
        vin = min(fraction_valuation(a - b, p) for a, b in zip(xf, yf))
        vout = min(fraction_valuation(a - b, p) for a, b in zip(gx, gy))
        if vin != vout:
            bad.append((x, y))
    return tuple(bad)


def ref_scan(endo, m, v_min):
    sigma = endo.sigma
    p = endo.ctx.p
    reps = [tuple(Fraction(i) for i in ints) for ints in endo.ball.level_reps(m)]
    ts = [Fraction(0)]
    for j in range(m):
        ts += [Fraction(u * p ** j) for u in range(1, p ** (m - j)) if u % p]
    ts.append(Fraction(p ** m))
    for xf in reps:
        base = sigma._eval_fr(xf)
        for yf in reps:
            for t in ts:
                if t == 0:
                    vals = _dqk_fr(sigma, ("node", ("leaf", xf), ("leaf", yf), t))
                else:
                    shifted = sigma._eval_fr(tuple(a + t * b for a, b in zip(xf, yf)))
                    vals = tuple((q2 - q1) / t for q1, q2 in zip(base, shifted))
                if any(fraction_valuation(q, p) < v_min for q in vals):
                    return ("quotient", xf, yf, t)
    zero = tuple(Fraction(0) for _ in range(endo.d))
    for xf in reps:
        if any(fraction_valuation(q, p) < v_min for q in sigma._eval_fr(xf)):
            return ("value", xf, zero, Fraction(0))
    return None


# -- the core


@settings(max_examples=40, deadline=None)
@given(maps(certified=False), st.data())
def test_residues_match_fraction_route(case, data):
    # lists of up to 12 points, some repeated, in drawn order; on the
    # "children" and "mixed" layouts they fall on several pieces
    ctx, d, sigma = case
    p = ctx.p
    gamma = BallEndo.from_displacement(sigma).gamma
    point = st.tuples(*[st.integers(-p ** 8, p ** 8)] * d)
    for _ in range(3):
        pts = data.draw(st.lists(point, max_size=8))
        pts = data.draw(st.permutations(pts + data.draw(st.lists(st.sampled_from(pts), max_size=4))
                                        if pts else pts))
        M = data.draw(st.integers(1, 8))
        for f in (sigma, gamma):
            assert f.residues(pts, M) == [ref_residues(f, ints, M) for ints in pts]


@pytest.mark.parametrize("p", (2, 3, 5))
@pytest.mark.parametrize("d", (1, 2))
def test_residues_of_every_cell_on_mixed_pieces(p, d):
    # every level-3 cell in one list, forwards and backwards: each piece
    # of the mixed layout has its own chart, so a table read for the
    # wrong piece shows
    ctx = CTX[p]
    layout = LAYOUTS["mixed"](p, d)
    exps = [e for e in itertools.product(range(3), repeat=d) if sum(e) <= 2]
    charts = [[{e: (7 * n + 3 * j + sum(e) + 1) * p for e in exps} for j in range(d)]
              for n in range(len(layout))]
    f = BallEndo.from_displacement(chart_model(ctx, d, layout, charts)).gamma
    pts = list(Ball.from_ints(ctx, (0,) * d, 0).level_reps(3 if d == 1 else 2))
    want = [ref_residues(f, ints, 5) for ints in pts]
    assert f.residues(pts, 5) == want
    assert f.residues(pts[::-1], 5) == want[::-1]
    assert f.residues([], 5) == []


class NoProbes:
    """Stands in for a model's piece index and fails on any lookup."""

    def at(self, ints):
        raise AssertionError("piece probe at %r" % (ints,))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_residues_on_a_root_piece_match_fraction_route(data):
    # a one-piece map on the root ball is evaluated with no piece probe,
    # on representatives below 0 and at or above p^M too
    p = data.draw(st.sampled_from((2, 3, 5)))
    d = data.draw(st.sampled_from((1, 2, 3)))
    e = data.draw(st.integers(1, 2))
    ctx = CTX[p]
    exps = [x for x in itertools.product(range(3), repeat=d) if sum(x) <= 2]
    coef = st.integers(-p ** 6, p ** 6)
    coeffs = {x: ctx.vector([data.draw(coef) for _ in range(e)])
              for x in data.draw(st.lists(st.sampled_from(exps), unique=True, max_size=6))}
    f = padic_model([(Ball.from_ints(ctx, (0,) * d, 0), coeffs)], e=e)
    M = data.draw(st.integers(1, 8))
    point = st.tuples(*[st.integers(-p ** 10, p ** 10)] * d)
    pts = data.draw(st.lists(point, max_size=8)) + [(-1,) * d, (p ** M,) * d, (-p ** M - 1,) * d]
    pts = data.draw(st.permutations(pts))
    want = [ref_residues(f, ints, M) for ints in pts]
    f._index = NoProbes()
    assert f.residues(pts, M) == want


@pytest.mark.parametrize("d", (1, 2, 3))
def test_root_piece_builds_its_table_only_for_points(d):
    # no points, no table: a non-integral chart is refused only once a
    # point needs it
    ctx = CTX[3]
    root = Ball.from_ints(ctx, (0,) * d, 0)
    unit = tuple(int(i == 0) for i in range(d))
    for coef, want in ((Fraction(1, 3), None), (4, [(5,), (0,), (3,)])):
        f = padic_model([(root, {unit: ctx.vector([coef])})], e=1)
        assert f.residues([], 2) == []
        assert f._tables == {}
        pts = [(8,) * d, (9,) * d, (-6,) * d]
        if want is None:
            with pytest.raises(NonIntegralChart, match="is not 3-integral"):
                f.residues(pts, 2)
        else:
            assert f.residues(pts, 2) == want


def test_residues_refuse_the_first_point_outside_the_domain():
    ctx = CTX[3]
    f = padic_model([(Ball.from_ints(ctx, (1, 0), 1), {(1, 0): ctx.vector([1, 0])}),
                     (Ball.from_ints(ctx, (0, 0), 2), {(0, 1): ctx.vector([0, 1])})], e=2)
    assert f.residues([(1, 3), (9, 0)], 2) == [(1, 0), (0, 0)]
    with pytest.raises(OutOfDomain, match=r"^point \[2, 0\] outside the model domain$"):
        f.residues([(1, 3), (9, 0), (2, 0), (3, 0)], 2)
    with pytest.raises(OutOfDomain, match=r"^point \[3, 0\] outside the model domain$"):
        f.residues([(3, 0), (2, 0)], 2)
    # a model of one piece that is not the root ball still refuses points
    # outside it
    one = padic_model([(Ball.from_ints(ctx, (1, 0), 1), {(1, 0): ctx.vector([1, 0])})], e=2)
    assert one.residues([(4, 3)], 2) == [(4, 0)]
    with pytest.raises(OutOfDomain, match=r"^point \[2, 0\] outside the model domain$"):
        one.residues([(4, 3), (2, 0)], 2)
    # on a root piece every point of d ints lies in the domain, and the
    # first point of another length is refused in point order
    root = padic_model([(Ball.from_ints(ctx, (0, 0), 0), {(1, 0): ctx.vector([1, 0])})], e=2)
    assert root.residues([(4, 1), (-1, 2)], 2) == [(4, 0), (8, 0)]
    with pytest.raises(OutOfDomain, match=r"^point \[1\] outside the model domain$"):
        root.residues([(4, 1), (1,), (1, 2, 3)], 2)


@settings(max_examples=15, deadline=None)
@given(maps(certified=False), st.data())
def test_zero_parameter_chart_gradient_matches_dqk(case, data):
    ctx, d, sigma = case
    p = ctx.p
    M = 6
    mod = p ** M
    for _ in range(4):
        x = tuple(data.draw(st.integers(0, p ** 4)) for _ in range(d))
        y = tuple(data.draw(st.integers(-p ** 3, p ** 3)) for _ in range(d))
        k, slope = slope_residues(sigma, x, y, M)
        node = ("node", ("leaf", tuple(map(Fraction, x))), ("leaf", tuple(map(Fraction, y))), Fraction(0))
        want = tuple(q * p ** k for q in _dqk_fr(sigma, node))
        assert k == sigma._find_piece(tuple(map(Fraction, x))).k
        assert slope == tuple(q.numerator * pow(q.denominator, -1, mod) % mod for q in want)


def test_piece_lookup_returns_the_model_balls():
    ctx = CTX[3]
    layout = LAYOUTS["mixed"](3, 2)
    sigma = chart_model(ctx, 2, layout, [[{}, {}] for _ in layout])
    balls = sigma.piece_balls()
    for ints in Ball.from_ints(ctx, (0, 0), 0).level_reps(2):
        b = sigma._find_piece(tuple(map(Fraction, ints)))
        assert any(b is own for own in balls)
        assert b.contains_ints(ints)
    with pytest.raises(OutOfDomain):
        sigma._find_piece((Fraction(1, 3), Fraction(0)))


def test_non_integral_chart_coefficient_is_refused():
    ctx = CTX[3]
    ball = Ball.from_ints(ctx, (0,), 0)
    f = padic_model([(ball, {(1,): ctx.vector([Fraction(1, 3)])})], e=1)
    assert f._eval_fr((Fraction(3),)) == (Fraction(1),)
    with pytest.raises(NonIntegralChart):
        f.residues([(3,)], 2)
    # in point order: a point on the non-integral piece before one outside
    # the domain raises NonIntegralChart, and after it OutOfDomain
    split = padic_model([(Ball.from_ints(ctx, (0,), 1), {(0,): ctx.vector([1])}),
                         (Ball.from_ints(ctx, (1,), 1), {(1,): ctx.vector([Fraction(1, 3)])})], e=1)
    assert split.residues([(0,), (3,)], 2) == [(1,), (1,)]
    with pytest.raises(NonIntegralChart, match="is not 3-integral"):
        split.residues([(0,), (1,), (2,)], 2)
    with pytest.raises(OutOfDomain):
        split.residues([(0,), (2,), (1,)], 2)


# -- consumers


@settings(max_examples=20, deadline=None)
@given(maps())
def test_induced_map_matches_fraction_route(case):
    ctx, d, sigma = case
    g = certified_diffeo(sigma)
    for m in range(1, (3 if d == 1 else 2) + 1):
        assert induced_level_map(g, m) == ref_induced(g, m)


def test_induced_memo_returns_the_same_tuple_without_evaluating(monkeypatch):
    ctx = CTX[3]
    sigma = chart_model(ctx, 2, LAYOUTS["children"](3, 2), [[{(1, 0): 9}, {(0, 2): 18}]] * 9)
    g = certified_diffeo(sigma)
    first = induced_level_map(g, 2)
    calls = []
    original = FunctionModel.residues

    def counting(self, points, M):
        points = list(points)
        calls.extend(points)
        return original(self, points, M)

    monkeypatch.setattr(FunctionModel, "residues", counting)
    assert induced_level_map(g, 2) is first
    assert calls == []
    # an equal map built again has its own memo and evaluates, once per
    # level-(m - v_min) coarse cell
    twin = CertifiedDiffeo(endo=g.endo, cert=g.cert)
    assert twin == g
    assert induced_level_map(twin, 2) == first
    assert len(calls) == 3 ** (2 * (2 - g.cert.v_min))


@settings(max_examples=30, deadline=None)
@given(maps(), st.data())
def test_inverse_matches_fraction_route(case, data):
    # batches of random targets, 0 and the piece centres, in drawn order,
    # leave the batch at different steps; each preimage must be the one
    # the Fraction loop reaches for its target alone
    ctx, d, sigma = case
    g = certified_diffeo(sigma)
    point = st.tuples(*[st.integers(0, ctx.p ** N - 1)] * d)
    for _ in range(2):
        ys = data.draw(st.lists(point, max_size=6)) + [(0,) * d] + [b.ints for b in sigma.piece_balls()]
        ys = data.draw(st.permutations(ys))
        target = data.draw(st.integers(1, 8))
        want = [ref_invert(g.endo, tuple(map(Fraction, y)), target, g.cert.v_min) for y in ys]
        assert invert_points(g, ys, target) == want
        assert invert_at(g, ys[0], target) == want[0]


def test_inversion_errors_keep_their_type_and_text():
    ctx = CTX[3]
    one = chart_model(ctx, 1, LAYOUTS["one"](3, 1), [[{(1,): 3}]])
    g = certified_diffeo(one)
    assert invert_points(g, [], 4) == []
    # gamma = 4x contracts by 3^-1 a step: a forged v_min = 4 leaves the
    # budget at 2 + 2 steps, short of the 8 that y = 1 needs; y = 0 is a
    # fixed point and would pass alone
    forged = CertifiedDiffeo(endo=g.endo, cert=OmegaCertificate(4))
    assert invert_points(forged, [(0,)], 8) == [(0,)]
    for ys in ([(1,)], [(0,), (1,), (0,)]):
        with pytest.raises(IterationBudgetExceeded, match=r"^no contraction to 8 digits within 4 steps$"):
            invert_points(forged, ys, 8)
    # a gamma that disagrees with sigma: id plus 9 on [0] and 3 on [1]
    # (and [2]), with sigma = 0, so every target converges at once and
    # fails its residual; the first target names its own valuation
    shifted = chart_model(ctx, 1, LAYOUTS["children"](3, 1), [[{(0,): 9}], [{(0,): 3}], [{(0,): 3}]])
    broken = certified_diffeo(chart_model(ctx, 1, LAYOUTS["children"](3, 1), [[{}], [{}], [{}]]))
    broken.endo.gamma = BallEndo.from_displacement(shifted).gamma
    for ys, v in (([(0,), (1,)], 2), ([(1,), (0,)], 1)):
        with pytest.raises(RuntimeError, match=r"^inversion residual has valuation %d, expected >= 3; "
                                               r"the certificate is broken$" % v):
            invert_points(broken, ys, 3)
    # the first failing target decides.  sigma = 3(x - c) on [1] and [2]
    # moves y = 4 by 3^2, 3^3, ... a step, past the forged budget, and 0
    # on [0], where gamma is shifted by 9 as above
    children = LAYOUTS["children"](3, 1)
    slow = [[{(1,): 9}], [{(1,): 9}]]
    mixed = CertifiedDiffeo(endo=BallEndo.from_displacement(chart_model(ctx, 1, children, [[{}]] + slow)),
                            cert=OmegaCertificate(4))
    mixed.endo.gamma = BallEndo.from_displacement(chart_model(ctx, 1, children, [[{(0,): 9}]] + slow)).gamma
    with pytest.raises(RuntimeError, match="^inversion residual has valuation 2, expected >= 8;"):
        invert_points(mixed, [(0,), (4,)], 8)
    with pytest.raises(IterationBudgetExceeded, match="^no contraction to 8 digits within 4 steps$"):
        invert_points(mixed, [(4,), (0,)], 8)
    with pytest.raises(ValueError, match="y lies outside the unit ball"):
        invert_points(g, [(0,), (0, 0)], 3)


def outcome(invert, *args):
    """The preimages, or the type and text of the error raised."""
    try:
        return repr(invert(*args))
    except RuntimeError as err:
        return type(err), str(err)


@settings(max_examples=40, deadline=None)
@given(maps(), st.data())
def test_inverse_matches_the_per_point_oracle(case, data):
    # targets p^j converge at different steps; a forged v_min shortens the
    # budget, and a gamma moved by p^j fails the residual check when
    # j < target
    ctx, d, sigma = case
    p = ctx.p
    if data.draw(st.booleans()):
        # a linear term p^v_min x_1 contracts by exactly p^-v_min a step
        lin = {tuple(int(i == 0) for i in range(d)): p ** halfball_valuation(p)}
        sigma = model_add(sigma, chart_model(ctx, d, LAYOUTS["one"](p, d), [[lin] * d]))
    g = certified_diffeo(sigma)
    endo = BallEndo.from_displacement(sigma)
    if data.draw(st.booleans()):
        shift = chart_model(ctx, d, LAYOUTS["one"](p, d), [[{(0,) * d: p ** data.draw(st.integers(0, 8))}] * d])
        endo.gamma = BallEndo.from_displacement(model_add(sigma, shift)).gamma
    v_min = g.cert.v_min + data.draw(st.integers(0, 3))
    target = data.draw(st.integers(1, 8))
    point = st.tuples(*[st.integers(-p ** N, p ** N)] * d)
    ys = data.draw(st.lists(point, max_size=6)) + [(p ** j,) * d for j in range(target + 1)]
    ys = data.draw(st.permutations(ys + [b.ints for b in sigma.piece_balls()]))
    forged = CertifiedDiffeo(endo=endo, cert=OmegaCertificate(v_min))
    assert outcome(invert_points, forged, ys, target) == outcome(invert_per_point, endo, ys, target, v_min)


@settings(max_examples=20, deadline=None)
@given(maps(certified=False), st.data())
def test_isometry_verdict_matches_fraction_route(case, data):
    ctx, d, sigma = case
    p = ctx.p
    # the check reads only gamma, so uncertified maps exercise violations too
    g = CertifiedDiffeo(endo=BallEndo.from_displacement(sigma), cert=OmegaCertificate(2))
    # steps of 0 make pairs with x = y or equal in some coordinates
    pairs = []
    for _ in range(8):
        x = [data.draw(st.integers(0, p ** N - 1)) for _ in range(d)]
        v = data.draw(st.integers(0, 5))
        step = [data.draw(st.sampled_from([0, data.draw(st.integers(-p ** 4, p ** 4))])) * p ** v
                for _ in range(d)]
        pairs.append((tuple(x), tuple(a + b for a, b in zip(x, step))))
    report = isometry_check(g, pairs)
    assert report.violations == ref_isometry(g, pairs)
    assert report.checked == len(pairs)


# affordable scan levels: m >= 2*v_min - 1, small enough for the Fraction route
SCAN_LEVEL = {(2, 1): 3, (3, 1): 2, (5, 1): 1, (3, 2): 1, (5, 2): 1}


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_scan_outcome_matches_fraction_route(data):
    p, d = data.draw(st.sampled_from(sorted(SCAN_LEVEL)))
    m = SCAN_LEVEL[(p, d)]
    layouts = ("one", "children") if m == 1 else ("one", "children", "mixed")
    accepting = data.draw(st.booleans())
    ctx, d, sigma = data.draw(maps(certified=accepting, primes=(p,), dims=(d,), layouts=layouts))
    endo = BallEndo.from_displacement(sigma)
    v_min = halfball_valuation(p)
    got = omega_witness_search(endo, m, v_min)
    assert got == ref_scan(endo, m, v_min)
    if accepting:
        assert got is None


@pytest.mark.parametrize("p,d", sorted(SCAN_LEVEL))
def test_scan_reports_the_same_witness_on_rejecting_maps(p, d):
    ctx = CTX[p]
    m = SCAN_LEVEL[(p, d)]
    v_min = halfball_valuation(p)
    layout = LAYOUTS["children"](p, d)
    # a unit linear term on the last piece: sigma has unit quotients there
    charts = [[{(0,) * d: p ** v_min} for _ in range(d)] for _ in layout]
    charts[-1][0] = {tuple(1 if i == 0 else 0 for i in range(d)): 1}
    endo = BallEndo.from_displacement(chart_model(ctx, d, layout, charts))
    got = omega_witness_search(endo, m, v_min)
    assert got is not None
    assert got == ref_scan(endo, m, v_min)


@pytest.mark.parametrize("p", (2, 3, 5))
@pytest.mark.parametrize("d", (1, 2))
def test_isometry_verdict_on_a_contraction(p, d):
    # gamma = p * id shrinks every distance: each pair is a violation,
    # whatever precision the residues are read at
    ctx = CTX[p]
    sigma = chart_model(ctx, d, LAYOUTS["one"](p, d), [[
        {tuple(1 if i == j else 0 for i in range(d)): p - 1} for j in range(d)
    ]])
    g = CertifiedDiffeo(endo=BallEndo.from_displacement(sigma), cert=OmegaCertificate(2))
    pairs = [((5,) * d, (5 + p ** v,) + (5,) * (d - 1)) for v in range(4)]
    want = ref_isometry(g, pairs)
    assert len(want) == len(pairs)
    assert isometry_check(g, pairs).violations == want
    assert isometry_check(g, [(x, x) for x, _ in pairs]).violations == ()


@pytest.mark.parametrize("p", (2, 3, 5))
@pytest.mark.parametrize("d", (1, 2))
def test_isometry_verdict_on_an_isometry(p, d):
    # gamma = (1 + p) * id keeps every distance.  The pair at the largest
    # input valuation v has outputs equal mod p^v, so it passes only when
    # the residues reach one digit beyond v
    ctx = CTX[p]
    sigma = chart_model(ctx, d, LAYOUTS["one"](p, d), [[
        {tuple(1 if i == j else 0 for i in range(d)): p} for j in range(d)
    ]])
    g = CertifiedDiffeo(endo=BallEndo.from_displacement(sigma), cert=OmegaCertificate(2))
    pairs = [((5,) * d, (5 + p ** v,) + (5,) * (d - 1)) for v in range(4)]
    assert ref_isometry(g, pairs) == ()
    assert isometry_check(g, pairs).violations == ()


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_gcd_valuations_match_coefficient_wise_references(data):
    # pieces that are zero, constant (radius bound INF) or full, with
    # coefficients of negative valuation, so the store has s > 0
    p = data.draw(st.sampled_from((2, 3, 5)))
    d = data.draw(st.sampled_from((1, 2)))
    ctx = CTX[p]
    exps = [x for x in itertools.product(range(3), repeat=d) if sum(x) <= 2]
    coef = st.builds(Fraction, st.integers(-p ** 4, p ** 4), st.sampled_from([1, p, p ** 3]))
    pieces = []
    for ints, k in LAYOUTS[data.draw(st.sampled_from(sorted(LAYOUTS)))](p, d):
        kind = data.draw(st.sampled_from(["zero", "constant", "full"]))
        chosen = ([] if kind == "zero" else [(0,) * d] if kind == "constant"
                  else data.draw(st.lists(st.sampled_from(exps), unique=True, min_size=1)))
        pieces.append((Ball.from_ints(ctx, ints, k),
                       {x: ctx.vector([data.draw(coef) for _ in range(d)]) for x in chosen}))
    f = padic_model(pieces, e=d)
    assert f.min_valuation() == min((c.v for _, coeffs in f.pieces for vec in coeffs.values()
                                     for c in vec.coords if not c.is_zero), default=INF)
    zero = (0,) * d
    for ball in f.piece_balls():
        k, local = f.chart(ball)
        s = min((fraction_valuation(a, p) for P in local for x, a in P.items() if x != zero), default=INF)
        assert f.image_bound(ball) == (tuple(Fraction(P.get(zero, 0), p ** k) for P in local), s - k)


# -- the exact Omega decision against the scan

# highest scan level affordable here (p^(2dm) (p^m + 1) quotient classes),
# and the finest piece level drawn, so that m = max(k_max, 2 v_min - 1)
# stays within it
SCAN_TOP = {(2, 1): 4, (3, 1): 3, (5, 1): 2, (2, 2): 3, (3, 2): 1, (5, 2): 1}
DEPTH = {(2, 1): 3, (3, 1): 3, (5, 1): 2, (2, 2): 2, (3, 2): 1, (5, 2): 1}


@st.composite
def edge_maps(draw, edit):
    """(ctx, d, sigma, v_min) on a random partition of finest level 0-3.

    A piece with centre c at level k gets non-constant chart coefficients
    divisible by p^(v_min + k), the margin of condition 1, and the centre
    value sum_{j<k} p^(v_min+j) h(j, c mod p^(j+1)) + p^(v_min+k) r, so
    that pieces whose centres first differ at digit j have values that
    first differ at digit v_min + j, the margin of conditions 2 and 3.
    Then the edit breaks one condition, or none:
    "harmless": the value of a piece of level k >= 1 moves by a unit
    times p^(v_min+k-1), which keeps all three; "slope": one piece gets a unit linear coefficient
    times p^(v_min+k-1) (condition 1); "value": every centre value moves
    by a unit times p^j, j < v_min (condition 2 only); "cross": one piece
    of level k >= 2 has its value moved by a unit times p^(v_min+j),
    0 <= j <= k-2 (condition 3 only, which binds only between pieces of
    level >= 2).
    """
    cross = edit == "cross"
    p, d = draw(st.sampled_from([pd for pd in sorted(SCAN_TOP) if DEPTH[pd] >= 2 or not cross]))
    v_min = halfball_valuation(p)
    depth = draw(st.integers(2 if cross else 0, DEPTH[(p, d)]))
    layout, todo = [], [((0,) * d, 0)]
    while todo:
        c, k = todo.pop()
        # the ball around 0 splits down to the drawn depth, others may
        if k < depth and (not any(c) or draw(st.booleans())):
            for off in itertools.product(range(p), repeat=d):
                todo.append((tuple(a + p ** k * o for a, o in zip(c, off)), k + 1))
        else:
            layout.append((c, k))
    digit = st.integers(0, p - 1)
    unit = draw(st.integers(1, p - 1))
    h = {}
    charts = []
    exps = [e for e in itertools.product(range(3), repeat=d) if 0 < sum(e) <= 2]
    for c, k in layout:
        Qs = []
        for _ in range(d):
            v = draw(st.integers(0, p)) * p ** (v_min + k)
            for j in range(k):
                key = (j, tuple(a % p ** (j + 1) for a in c))
                if key not in h:
                    h[key] = [draw(digit) for _ in range(d)]
                v += p ** (v_min + j) * h[key][len(Qs)]
            Q = {e: draw(st.integers(0, p ** 2)) * p ** (v_min + k) for e in exps}
            Q[(0,) * d] = v
            Qs.append(Q)
        charts.append(Qs)
    i = draw(st.integers(0, len(layout) - 1))
    k = layout[i][1]
    Q = charts[i][draw(st.integers(0, d - 1))]
    if edit == "harmless" and k:
        Q[(0,) * d] += unit * p ** (v_min + k - 1)
    elif edit == "slope":
        lin = tuple(int(a == 0) for a in range(d))
        Q[lin] = Q.get(lin, 0) + unit * p ** (v_min + k - 1)
    elif edit == "value":
        shift = unit * p ** draw(st.integers(0, v_min - 1))
        for Qs in charts:
            Qs[0][(0,) * d] += shift
    elif cross:
        n = draw(st.sampled_from([n for n, (_, kn) in enumerate(layout) if kn >= 2]))
        j = draw(st.integers(0, layout[n][1] - 2))
        charts[n][0][(0,) * d] += unit * p ** (v_min + j)
    return CTX[p], d, chart_model(CTX[p], d, layout, charts), v_min


def decide_against_the_scan(endo):
    """certify_omega's verdict on endo, checked against the scan of
    tests/reference.py at m = max(k_max, 2 v_min - 1), and one level finer
    where SCAN_TOP affords it.  An acceptance must leave both scans
    silent; a rejection must be one the scan at m finds too, and its
    witness, an integral (x, y, t), must break the bound when evaluated in
    Fractions.  Returns True for an acceptance."""
    p, d = endo.ctx.p, endo.d
    v_min = halfball_valuation(p)
    k_max = max(b.k for b in endo.sigma.piece_balls())
    m = max(k_max, 2 * v_min - 1)
    top = SCAN_TOP[(p, d)]
    assert m <= top
    try:
        cert = certify_omega(endo)
    except NotCertified as err:
        x, y, t = err.witness
        assert len(x) == len(y) == d
        assert all(isinstance(q, Fraction) and q.denominator == 1 for q in x + y + (t,))
        assert breaks_omega(endo.sigma, x, y, t, v_min)
        assert omega_witness_search(endo, m, v_min) is not None
        return False
    assert cert == OmegaCertificate(v_min)
    for level in range(m, min(m + 1, top) + 1):
        assert omega_witness_search(endo, level, v_min) is None
    return True


@pytest.mark.parametrize("edit", ["none", "harmless", "slope", "value", "cross"])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_symbolic_route_agrees_with_the_scan(edit, data):
    # certify_omega decides from chart data alone; each edit but "harmless"
    # breaks one necessary condition, so the verdict is known in advance
    ctx, d, sigma, v_min = data.draw(edge_maps(edit))
    endo = BallEndo.from_displacement(sigma)
    assert decide_against_the_scan(endo) is (edit in ("none", "harmless"))


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_exact_decision_agrees_with_the_scan_on_random_maps(data):
    p, d = data.draw(st.sampled_from(sorted(SCAN_TOP)))
    layouts = ("one", "children", "mixed")[:SCAN_TOP[(p, d)]]
    ctx, d, sigma = data.draw(maps(certified=False, primes=(p,), dims=(d,), layouts=layouts))
    decide_against_the_scan(BallEndo.from_displacement(sigma))


@pytest.mark.parametrize("p, Q", [
    (3, {(1,): 2, (2,): -1}),
    (2, {(1,): 2, (3,): 2}),
    (5, {(1,): -1, (3,): 1}),
])
def test_exact_decision_agrees_with_the_scan_on_maps_with_cancelling_box_points(p, Q):
    """Maps whose quotient polynomial has several Mahler coefficients of
    least valuation, where the box point of largest degree is no witness:
    for 2x - x^2 on Z_3, P = 2y - 2zy - ty^2 has unit coefficients at
    (0, 1, 0), (1, 1, 0), (0, 1, 1) and (0, 2, 1), and at (0, 2, 1) the
    quotient (sigma(2) - sigma(0))/1 is 0."""
    sigma = chart_model(CTX[p], 1, LAYOUTS["one"](p, 1), [[Q]])
    assert not decide_against_the_scan(BallEndo.from_displacement(sigma))


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_exact_decision_agrees_with_the_scan_on_composites(data):
    # the group law makes every composite of certified maps certified;
    # compose_diffeos decides it, and the scan checks it
    edits = st.sampled_from(["none", "harmless"])
    ctx, d, sigma1, _ = data.draw(edge_maps(data.draw(edits)))
    g1 = certified_diffeo(sigma1)
    while True:
        ctx2, d2, sigma2, _ = data.draw(edge_maps(data.draw(edits)))
        if (ctx2, d2) == (ctx, d):
            break
    g = compose_diffeos(g1, certified_diffeo(sigma2))
    assert decide_against_the_scan(g.endo)


# one digit below v_min = 2 on Z_2: for n = 2, 3, 4 the Mahler coefficients
# of the quotient of x^(n+2) - x^n are even, so 2u(x^(n+2) - x^n) passes
# condition 1 with coefficients of valuation 1, which the Gauss norm cannot
GOLDEN_UNITS = [Fraction(1), Fraction(-1), Fraction(-1, 3), Fraction(1, 3), Fraction(5, 3)]


@st.composite
def golden_relatives(draw):
    """Relatives of the map x - (2/3)x^2 + 2x^4 on Z_2 that only the scan
    used to accept: on one piece or on the two level-1 pieces, each chart
    2^k R(z) with R = sum 2u_n (z^(n+2) - z^n) + 4S(z), S of degree <= 6,
    and sometimes 2u z^n added, which may break condition 1 (or 2 for
    n = 0)."""
    ctx = CTX[2]
    layout = LAYOUTS[draw(st.sampled_from(["one", "children"]))](2, 1)
    small = st.sampled_from([0, 0, 1, -1, Fraction(1, 3), 2])
    charts = []
    for _, k in layout:
        c = [Fraction(0)] * 7
        for n in (2, 3, 4):
            u = draw(st.sampled_from(GOLDEN_UNITS + [0]))
            c[n + 2] += 2 * u
            c[n] -= 2 * u
        for n in range(7):
            c[n] += 4 * draw(small)
        if draw(st.integers(0, 3)) == 0:
            c[draw(st.integers(0, 6))] += 2 * draw(st.sampled_from(GOLDEN_UNITS))
        charts.append([{(n,): 2 ** k * q for n, q in enumerate(c) if q}])
    return chart_model(ctx, 1, layout, charts)


def test_golden_relatives_include_scan_only_acceptances():
    sigma = chart_model(CTX[2], 1, LAYOUTS["one"](2, 1), [[{(2,): Fraction(-2, 3), (4,): 2}]])
    endo = BallEndo.from_displacement(sigma)
    assert endo.sigma.image_bound(endo.sigma.piece_balls()[0])[1] < 2
    assert decide_against_the_scan(endo)


@settings(max_examples=30, deadline=None)
@given(golden_relatives())
def test_exact_decision_agrees_with_the_scan_on_golden_relatives(sigma):
    try:
        endo = BallEndo.from_displacement(sigma)
    except ValueError:
        return
    decide_against_the_scan(endo)


def test_composite_of_certified_maps_at_different_levels_is_certified():
    """g2 moves the 81 level-4 balls of Z_3 by 3^5 (i mod 3 + 1) and g1 the
    three level-1 balls by 3(i + 1).  The composite has level-4 pieces,
    which a scan at the old default level 3 could not certify."""
    ctx = CTX[3]
    fine = [Ball.from_ints(ctx, (i,), 4) for i in range(81)]
    coarse = [Ball.from_ints(ctx, (i,), 1) for i in range(3)]
    g2 = certified_diffeo(padic_model([(b, {(0,): ctx.vector([3 ** 5 * (i % 3 + 1)])})
                                       for i, b in enumerate(fine)], e=1))
    g1 = certified_diffeo(padic_model([(b, {(0,): ctx.vector([3 * (i + 1)])})
                                       for i, b in enumerate(coarse)], e=1))
    g = compose_diffeos(g1, g2)
    assert g.cert == OmegaCertificate(1)
    assert max(b.k for b in g.endo.sigma.piece_balls()) == 4
    for ints in Ball.from_ints(ctx, (0,), 0).level_reps(5):
        want = g1.gamma.residues(g2.gamma.residues([ints], 6), 6)
        assert g.gamma.residues([ints], 6) == want
