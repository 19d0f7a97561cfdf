"""Differential tests of the integer model-construction core against the
Fraction routes it replaced.

`model_add`, `model_scale`, `compose`, `chart`, `refine`,
`rescaled_chart` and `BallEndo.from_displacement` build models on the
integer store.  Each is compared with a reference copy of its former
implementation, kept here: exact Fraction polynomials read from the
public PadicVector coefficients, substitution by powers, and one
`from_fraction` per coefficient.  The binomial Taylor shift of the
charts is also compared, on integer stores, with Horner substitution of
x = c + p^k z.  Models are compared through
`model_to_json`, which fixes the piece order, the balls, the monomial
keys and every digit.  Maps are drawn over p in {2, 3, 5}, d in {1, 2},
with one piece or several, at precision N = 4, so sums of two units
often carry past N digits and truncation is exercised.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from ucalc import _poly
from ucalc.balls import Ball
from ucalc.calculus import (
    FunctionModel,
    OutOfDomain,
    _local_coeffs,
    add_identity,
    compose,
    find_certificate,
    model_add,
    model_scale,
    model_to_json,
    refine,
    rescaled_chart,
)
from ucalc.diffeo import BallEndo
from ucalc.padic import PadicContext, PrecisionLoss

from reference import ball_relation, padic_model

N = 4
CTX = {p: PadicContext(p, N) for p in (2, 3, 5)}

LAYOUTS = {
    "one": lambda p, d: [((0,) * d, 0)],
    "children": lambda p, d: [(off, 1) for off in itertools.product(range(p), repeat=d)],
    "mixed": lambda p, d: [
        (off, 1) for off in itertools.product(range(p), repeat=d) if any(off)
    ] + [
        (tuple(p * o for o in off), 2) for off in itertools.product(range(p), repeat=d)
    ],
    # levels 1 to 3; `models` draws it only when asked
    "deep": lambda p, d: [
        (tuple(p ** (k - 1) * o for o in off), k)
        for k in (1, 2) for off in itertools.product(range(p), repeat=d) if any(off)
    ] + [
        (tuple(p * p * o for o in off), 3) for off in itertools.product(range(p), repeat=d)
    ],
}


@st.composite
def scalars(draw, ctx, vmin):
    if draw(st.integers(0, 5)) == 0:
        return ctx.zero()
    u = draw(st.integers(1, ctx.modulus - 1).filter(lambda u: u % ctx.p))
    return ctx.from_unit(draw(st.integers(vmin, 3)), u)


@st.composite
def models(draw, ctx, d, e, layouts=("one", "children", "mixed"), vmin=-2, deg=2):
    """Model with coefficients u*p^v, v in [vmin, 3], some exactly zero."""
    layout = LAYOUTS[draw(st.sampled_from(layouts))](ctx.p, d)
    exps = [x for x in itertools.product(range(deg + 1), repeat=d) if sum(x) <= deg]
    pieces = []
    for ints, k in layout:
        chosen = draw(st.lists(st.sampled_from(exps), unique=True, max_size=len(exps)))
        coeffs = {x: ctx.vector([draw(scalars(ctx, vmin)) for _ in range(e)]) for x in chosen}
        pieces.append((Ball.from_ints(ctx, ints, k), coeffs))
    return padic_model(pieces, e=e)


@st.composite
def settings_pd(draw):
    p = draw(st.sampled_from((2, 3, 5)))
    return CTX[p], draw(st.sampled_from((1, 2)))


# -- reference copies of the Fraction routes


def old_to_fraction(c):
    return Fraction(0) if c.is_zero else Fraction(c.u) * Fraction(c.ctx.p) ** c.v


def frac_polys(f):
    """Per piece ball, one {exponents: Fraction} per output coordinate."""
    out = {}
    for b, coeffs in f.pieces:
        polys = [dict() for _ in range(f.e)]
        for exps, vec in coeffs.items():
            for j, c in enumerate(vec.coords):
                if not c.is_zero:
                    polys[j][exps] = old_to_fraction(c)
        out[b] = tuple(polys)
    return out


def ref_coeffs(polys, ctx, e):
    by_exp = {}
    for j, P in enumerate(polys):
        for exps, c in P.items():
            by_exp.setdefault(exps, [Fraction(0)] * e)[j] = c
    return {exps: ctx.vector([ctx.from_fraction(q) for q in vals]) for exps, vals in by_exp.items()}


def ref_subst(a, subs, nvars):
    """Substitution by cached powers of the substituted polynomials."""
    powers = {}

    def power(i, k):
        if (i, k) not in powers:
            powers[i, k] = {(0,) * nvars: Fraction(1)} if k == 0 else _poly.mul(power(i, k - 1), subs[i])
        return powers[i, k]

    out = {}
    for exps, c in a.items():
        term = {(0,) * nvars: c}
        for i, k in enumerate(exps):
            if k:
                term = _poly.mul(term, power(i, k))
        out = _poly.add(out, term)
    return out


def ref_refine(f, g):
    F, G = frac_polys(f), frac_polys(g)
    out = []
    for bf in f.piece_balls():
        for bg in g.piece_balls():
            rel = ball_relation(bf, bg)
            if rel != "disjoint":
                out.append((bf if rel in ("equal", "B2_contains_B1") else bg, bg, F[bf], G[bg]))
    return out


def ref_add(f, g):
    pieces = [
        (b, ref_coeffs(tuple(_poly.add(P, Q) for P, Q in zip(Pf, Pg)), f.ctx, f.e))
        for b, _, Pf, Pg in ref_refine(f, g)
    ]
    return padic_model(pieces, e=f.e)


def ref_scale(f, q):
    F = frac_polys(f)
    pieces = [
        (b, ref_coeffs(tuple({x: q * c for x, c in P.items()} if q else {} for P in F[b]), f.ctx, f.e))
        for b in f.piece_balls()
    ]
    return padic_model(pieces, e=f.e)


def ref_local(polys, ball):
    d = ball.d
    step = Fraction(ball.ctx.p) ** ball.k
    subs = []
    for i, c in enumerate(ball.ints):
        unit = tuple(int(j == i) for j in range(d))
        subs.append(_poly.add({(0,) * d: Fraction(c)} if c else {}, {unit: step}))
    return tuple(ref_subst(P, subs, d) for P in polys)


def ref_compose(g, f, cert):
    F, G = frac_polys(f), frac_polys(g)
    pieces = [
        (b, ref_coeffs(tuple(ref_subst(Q, list(F[b]), f.d) for Q in G[cert[b]]), f.ctx, g.e))
        for b in f.piece_balls()
    ]
    return padic_model(pieces, e=g.e)


def ref_identity(region):
    ctx, d = region.ctx, region.d
    coeffs = {
        tuple(int(j == i) for j in range(d)): ctx.vector([int(j == i) for j in range(d)])
        for i in range(d)
    }
    return padic_model([(b, coeffs) for b in region.balls], e=d)


def ref_rescaled_chart(f, ball):
    ctx = f.ctx
    F = frac_polys(f)
    step = ctx.p ** ball.k
    pieces = []
    for pb in f.piece_balls():
        rel = ball_relation(pb, ball)
        if rel == "disjoint":
            continue
        polys = tuple({x: c / step for x, c in P.items()} for P in ref_local(F[pb], ball))
        if rel in ("equal", "B1_contains_B2"):
            pieces = [(Ball.from_ints(ctx, (0,) * f.d, 0), ref_coeffs(polys, ctx, f.e))]
            break
        ints = tuple((i - c) // step for i, c in zip(pb.ints, ball.ints))
        pieces.append((Ball.from_ints(ctx, ints, pb.k - ball.k), ref_coeffs(polys, ctx, f.e)))
    return padic_model(pieces, e=f.e)


def ref_shift(entry, ball):
    """The chart as Horner substitution of x_i = c_i + p^k z_i."""
    s, polys = entry
    d = ball.d
    step = ball.ctx.p ** ball.k
    subs = [_poly.add(_poly.const(d, c), _poly.scale(_poly.var(d, i), step)) for i, c in enumerate(ball.ints)]
    return s, tuple(_poly.subst(P, subs, d) for P in polys)


def same(f, g):
    return model_to_json(f) == model_to_json(g)


# -- the differential tests


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_add_and_refinement_match_the_fraction_route(data):
    ctx, d = data.draw(settings_pd())
    e = data.draw(st.sampled_from((1, 2)))
    f, g = data.draw(models(ctx, d, e)), data.draw(models(ctx, d, e))
    rf, owner = refine(f, g.piece_balls())
    want = ref_refine(f, g)
    assert rf.piece_balls() == [b for b, *_ in want]
    assert owner == {b: bg for b, bg, *_ in want}
    assert frac_polys(rf) == {b: Pf for b, _, Pf, _ in want}
    assert same(model_add(f, g), ref_add(f, g))


def _family_top(p, d):
    """Finest level drawn: at most N, and at most 81 cells at it."""
    k = 1
    while k < N and p ** (d * (k + 1)) <= 81:
        k += 1
    return k


@st.composite
def split_families(draw, ctx, d, top):
    """(kept, dropped): a random split of O^d into disjoint balls down to
    level top, each ball dropped with chance 1/7; kept in a drawn order."""
    kept, dropped, todo = [], [], [Ball.from_ints(ctx, (0,) * d, 0)]
    while todo:
        b = todo.pop()
        if b.k < top and draw(st.booleans()):
            todo.extend(b.children())
        else:
            (kept if draw(st.integers(0, 6)) else dropped).append(b)
    return draw(st.permutations(kept)), dropped


def pair_refine(f, balls):
    """The common refinement by pairing every piece of f with every ball:
    (piece ball, owner, piece of f) in the order (piece of f, ball)."""
    out = []
    for bf in f.piece_balls():
        for bg in balls:
            rel = ball_relation(bf, bg)
            if rel != "disjoint":
                out.append((bf if rel in ("equal", "B2_contains_B1") else bg, bg, bf))
    return out


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_refine_matches_the_pair_loop_on_nested_families(data):
    ctx, d = data.draw(settings_pd())
    top = _family_top(ctx.p, d)
    pieces, dropped = data.draw(split_families(ctx, d, top))
    assume(pieces)
    f = FunctionModel([(b, (0, ({},))) for b in pieces], 1)
    # the balls: another split of O^d, or the ones f left out, which make
    # the two domains disjoint
    other, _ = data.draw(split_families(ctx, d, top))
    balls = data.draw(st.sampled_from((other, dropped)))
    want = pair_refine(f, balls)
    if not want:
        with pytest.raises(OutOfDomain, match="disjoint domains"):
            refine(f, balls)
        return
    rf, owner = refine(f, balls)
    assert rf.piece_balls() == [b for b, _, _ in want]
    assert owner == {b: bg for b, bg, _ in want}
    assert all(rf._store[b] is f._store[bf] for b, _, bf in want)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_scale_matches_the_fraction_route(data):
    ctx, d = data.draw(settings_pd())
    f = data.draw(models(ctx, d, data.draw(st.sampled_from((1, 2)))))
    s = data.draw(scalars(ctx, -3))
    assert same(model_scale(f, s), ref_scale(f, old_to_fraction(s)))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_chart_matches_the_fraction_route(data):
    ctx, d = data.draw(settings_pd())
    f = data.draw(models(ctx, d, 2))
    F = frac_polys(f)
    for ball in f.piece_balls():
        s, polys = f.chart(ball)
        got = tuple({x: Fraction(a, ctx.p ** s) for x, a in P.items()} for P in polys)
        assert got == ref_local(F[ball], ball)


@st.composite
def shift_cases(draw):
    """(entry, ball): a store entry p^-s polys over p in {2, 3, 5}, d in
    {1, 2, 3}, on a ball of level 0 to 3 whose centre is often 0.  Each
    polynomial is random terms with signed coefficients plus, sometimes,
    a multiple of (x_i - c_i)^n, whose chart at centre c is one monomial:
    every other term of its shift cancels."""
    p = draw(st.sampled_from((2, 3, 5)))
    d = draw(st.integers(1, 3))
    k = draw(st.integers(0, 3))
    centre = tuple(draw(st.sampled_from((0, p ** k - 1)) | st.integers(0, p ** k - 1)) for _ in range(d))
    ball = Ball.from_ints(CTX[p], centre, k)
    exps = [x for x in itertools.product(range(4), repeat=d) if sum(x) <= 3]
    polys = []
    for _ in range(draw(st.integers(1, 2))):
        P = {}
        for x in draw(st.lists(st.sampled_from(exps), unique=True, max_size=6)):
            P[x] = draw(st.integers(-40, 40).filter(bool))
        if draw(st.booleans()):
            i, n = draw(st.integers(0, d - 1)), draw(st.integers(1, 3))
            unit = _poly.var(d, i)
            power = _poly.const(d, draw(st.integers(-9, 9).filter(bool)))
            for _ in range(n):
                power = _poly.mul(power, _poly.add(unit, _poly.const(d, -ball.ints[i])))
            P = _poly.add(P, power)
        polys.append(P)
    return (draw(st.integers(0, 3)), tuple(polys)), ball


@settings(max_examples=300, deadline=None)
@given(case=shift_cases())
def test_taylor_shift_matches_horner_substitution(case):
    entry, ball = case
    assert _local_coeffs(entry, ball) == ref_shift(entry, ball)
    if ball.k == 0:
        assert _local_coeffs(entry, ball) is entry


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_rescaled_chart_matches_the_fraction_route(data):
    ctx, d = data.draw(settings_pd())
    f = data.draw(models(ctx, d, d))
    k = data.draw(st.integers(0, 2))
    ball = Ball.from_ints(ctx, tuple(data.draw(st.integers(0, ctx.p ** k - 1)) for _ in range(d)), k)
    assert same(rescaled_chart(f, ball), ref_rescaled_chart(f, ball))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_compose_matches_the_fraction_route(data):
    ctx, d = data.draw(settings_pd())
    e = data.draw(st.sampled_from((1, 2)))
    # integral coefficients keep f(O^d) inside O^d, the domain of g, and
    # so does adding (x_i^p - x_i)/p, whose coefficients are not integral;
    # its pieces then need level k with k - 1 >= the level of g's pieces,
    # so g keeps one piece and the refinement stays small
    f = data.draw(models(ctx, d, d, vmin=0))
    fermat_case = data.draw(st.booleans())
    if fermat_case:
        p = ctx.p
        fermat = {}
        for i in range(d):
            for x, q in ((tuple(p * (j == i) for j in range(d)), 1), (tuple(int(j == i) for j in range(d)), -1)):
                fermat[x] = ctx.vector([Fraction(q, p) if j == i else 0 for j in range(d)])
        f = ref_add(f, padic_model([(b, fermat) for b in f.piece_balls()], e=d))
    g = data.draw(models(ctx, d, e, layouts=("one",) if fermat_case else tuple(LAYOUTS)))
    refined, cert = find_certificate(g, f)
    F = frac_polys(f)
    for b in refined.piece_balls():
        owner = next(pb for pb in f.piece_balls() if ball_relation(pb, b) in ("equal", "B1_contains_B2"))
        assert frac_polys(refined)[b] == F[owner]
    assert same(compose(g, refined, cert), ref_compose(g, refined, cert))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_from_displacement_matches_the_fraction_route(data):
    """gamma = id + sigma and sigma' = gamma - id, with -id truncated to
    (p^N - 1) id as model_scale truncates -1."""
    ctx, d = data.draw(settings_pd())
    sigma = data.draw(models(ctx, d, d, vmin=0))
    endo = BallEndo.from_displacement(sigma)
    ident = ref_identity(sigma.domain)
    gamma = ref_add(ident, sigma)
    assert same(endo.gamma, gamma)
    assert same(endo.sigma, ref_add(gamma, ref_scale(ident, Fraction(-1))))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_add_identity_carries_the_charts_f_has(data):
    """add_identity(f, +-1) carries every chart f has already computed, and
    each carried chart is the Taylor shift of the new store; the stores
    are at their least scale, so no scale moves."""
    ctx, d = data.draw(settings_pd())
    f = data.draw(models(ctx, d, d, layouts=tuple(LAYOUTS)))
    for ball in data.draw(st.lists(st.sampled_from(f.piece_balls()), unique=True)):
        f.chart(ball)
    for sign in (1, -1):
        g = add_identity(f, sign)
        assert set(g._charts) == set(f._charts)
        for ball, chart in g._charts.items():
            assert chart == _local_coeffs(g._store[ball], ball)


def test_add_identity_recomputes_a_chart_whose_scale_moved():
    """A store above its least scale (3x + 3 over 3, built unchecked) is
    cut to scale 0 by add_identity, so its chart is not carried but
    computed on first use."""
    ctx = CTX[3]
    ball = Ball.from_ints(ctx, (1,), 1)
    f = FunctionModel._build(ctx, 1, 1, {ball: (1, ({(1,): 3, (0,): 3},))})
    f.chart(ball)
    g = add_identity(f)
    assert g._store[ball] == (0, ({(1,): 2, (0,): 1},))
    assert ball not in g._charts
    assert g.chart(ball) == _local_coeffs(g._store[ball], ball)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_digits_past_the_window_are_cut_not_refused(p):
    """A unit part whose sum carries past N digits is truncated; a sum
    that cancels every digit, which PadicScalar addition refuses with
    PrecisionLoss, is kept exactly by the model route."""
    ctx = CTX[p]
    root = Ball.from_ints(ctx, (0,), 0)
    top = ctx.from_unit(0, ctx.modulus - 1)
    one = ctx.from_fraction(-top.to_fraction())
    f = padic_model([(root, {(0,): ctx.vector([top]), (1,): ctx.vector([top])})], e=1)
    neg = padic_model([(root, {(0,): ctx.vector([one]), (1,): ctx.vector([one])})], e=1)
    with pytest.raises(PrecisionLoss):
        top + one
    assert same(model_add(f, f), ref_add(f, f))
    cancelled = model_add(f, neg)
    assert same(cancelled, ref_add(f, neg))
    assert cancelled.pieces[0][1][(1,)][0] == ctx.from_unit(N, 1)
    endo = BallEndo.from_displacement(
        padic_model([(root, {(1,): ctx.vector([ctx.from_unit(1, ctx.modulus - 1)])})], e=1)
    )
    ident = ref_identity(endo.gamma.domain)
    assert same(endo.sigma, ref_add(endo.gamma, ref_scale(ident, Fraction(-1))))
