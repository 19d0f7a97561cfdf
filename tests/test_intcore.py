"""Differential tests of the integer evaluation core against the Fraction route.

Each consumer of `FunctionModel.residues` (induced cell maps, inversion,
isometry checks, the Omega scan) is compared with a reference copy of its
former Fraction implementation, kept here, on certified maps over
p in {2, 3, 5}, d in {1, 2}, with one piece or several pieces at levels 0-2.
The symbolic Omega route is compared with the scan on maps built at the
edge of its three conditions.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ucalc import _poly
from ucalc.balls import Ball
from ucalc.calculus import FunctionModel, NonIntegralChart, OutOfDomain, _dqk_fr
from ucalc.diffeo import (
    BallEndo,
    CertifiedDiffeo,
    IterationBudgetExceeded,
    NotCertified,
    OmegaCertificate,
    _omega_symbolic,
    _omega_witness_search,
    certify_omega,
    halfball_valuation,
    induced_level_map,
    invert_at,
    isometry_check,
)
from ucalc.padic import PadicContext, fraction_valuation

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
    return FunctionModel(pieces, e=d)


@st.composite
def maps(draw, certified=True, primes=(2, 3, 5), dims=(1, 2), layouts=("one", "children", "mixed")):
    """(ctx, d, sigma) with integral chart coefficients; certified maps have
    every chart coefficient divisible by p^(v_min + k_max), which the
    coefficient bound accepts."""
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


@settings(max_examples=25, deadline=None)
@given(maps(certified=False), st.data())
def test_residues_match_fraction_route(case, data):
    ctx, d, sigma = case
    p = ctx.p
    gamma = BallEndo.from_displacement(sigma).gamma
    for _ in range(6):
        ints = tuple(data.draw(st.integers(-p ** 8, p ** 8)) for _ in range(d))
        M = data.draw(st.integers(1, 8))
        for f in (sigma, gamma):
            assert f.residues(ints, M) == ref_residues(f, ints, M)


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
        k, slope = sigma.slope_residues(x, y, M)
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
    f = FunctionModel([(ball, {(1,): ctx.vector([Fraction(1, 3)])})], e=1)
    assert f._eval_fr((Fraction(3),)) == (Fraction(1),)
    with pytest.raises(NonIntegralChart):
        f.residues((3,), 2)
    with pytest.raises(NonIntegralChart):
        f.slope_residues((3,), (1,), 2)


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

    def counting(self, ints, M):
        calls.append(ints)
        return original(self, ints, M)

    monkeypatch.setattr(FunctionModel, "residues", counting)
    assert induced_level_map(g, 2) is first
    assert calls == []
    # an equal map built again has its own memo and evaluates, once per
    # level-(m - v_min) coarse cell
    twin = CertifiedDiffeo(endo=g.endo, cert=g.cert)
    assert twin == g
    assert induced_level_map(twin, 2) == first
    assert len(calls) == 3 ** (2 * (2 - g.cert.v_min))


@settings(max_examples=20, deadline=None)
@given(maps(), st.data())
def test_inverse_matches_fraction_route(case, data):
    ctx, d, sigma = case
    g = certified_diffeo(sigma)
    for _ in range(3):
        y = tuple(data.draw(st.integers(0, ctx.p ** N - 1)) for _ in range(d))
        target = data.draw(st.integers(1, 8))
        want = ref_invert(g.endo, tuple(map(Fraction, y)), target, g.cert.v_min)
        assert invert_at(g, y, target) == want


@settings(max_examples=20, deadline=None)
@given(maps(certified=False), st.data())
def test_isometry_verdict_matches_fraction_route(case, data):
    ctx, d, sigma = case
    p = ctx.p
    # the check reads only gamma, so uncertified maps exercise violations too
    g = CertifiedDiffeo(endo=BallEndo.from_displacement(sigma), cert=OmegaCertificate(2, "test"))
    pairs = []
    for _ in range(8):
        x = [data.draw(st.integers(0, p ** N - 1)) for _ in range(d)]
        v = data.draw(st.integers(0, 5))
        step = [data.draw(st.integers(0, p ** 4)) * p ** v for _ in range(d)]
        pairs.append((tuple(x), tuple(a + b for a, b in zip(x, step))))
    assert isometry_check(g, pairs).violations == ref_isometry(g, pairs)


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
    got = _omega_witness_search(endo, m, v_min)
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
    got = _omega_witness_search(endo, m, v_min)
    assert got is not None
    assert got == ref_scan(endo, m, v_min)


@pytest.mark.parametrize("p", (2, 3, 5))
@pytest.mark.parametrize("d", (1, 2))
def test_isometry_verdict_on_a_contraction(p, d):
    # gamma = p * id halves every distance: each pair is a violation, found
    # only when the residues reach one digit beyond the input valuation
    ctx = CTX[p]
    sigma = chart_model(ctx, d, LAYOUTS["one"](p, d), [[
        {tuple(1 if i == j else 0 for i in range(d)): p - 1} for j in range(d)
    ]])
    g = CertifiedDiffeo(endo=BallEndo.from_displacement(sigma), cert=OmegaCertificate(2, "test"))
    pairs = [((5,) * d, (5 + p ** v,) + (5,) * (d - 1)) for v in range(4)]
    want = ref_isometry(g, pairs)
    assert len(want) == len(pairs)
    assert isometry_check(g, pairs).violations == want
    assert isometry_check(g, [(x, x) for x, _ in pairs]).violations == ()


# -- the symbolic Omega route against the scan

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


@pytest.mark.parametrize("edit", ["none", "harmless", "slope", "value", "cross"])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_symbolic_route_agrees_with_the_scan(edit, data):
    ctx, d, sigma, v_min = data.draw(edge_maps(edit))
    endo = BallEndo.from_displacement(sigma)
    k_max = max(b.k for b in endo.sigma.piece_balls())
    m = max(k_max, 2 * v_min - 1)
    accepted = _omega_symbolic(endo.sigma, v_min)
    # maps at the margins of all three conditions are proved
    assert accepted or edit not in ("none", "harmless")
    if accepted:
        # sound: the scan finds no violation at m, nor one level finer
        for level in range(m, min(m + 1, SCAN_TOP[(ctx.p, d)]) + 1):
            assert _omega_witness_search(endo, level, v_min) is None
        assert certify_omega(endo, m=m).method in ("coefficient-bound", "symbolic")
        return
    # a refusal falls through to the scan, whose outcome is kept
    witness = _omega_witness_search(endo, m, v_min)
    if witness is None:
        assert certify_omega(endo, m=m) == OmegaCertificate(v_min, "exhaustive", m)
    else:
        with pytest.raises(NotCertified) as info:
            certify_omega(endo, m=m)
        assert info.value.witness == witness[1:]
