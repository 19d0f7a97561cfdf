"""Differential test of the image-containment check `_image_in_ball`.

One check serves single target balls (composition certificates, the
range certificate of a ball self-map) and the disjoint balls of a clopen
region (compactly supported maps).  It is compared here with copies of
the two routes it replaced: the single-ball check, whose method and
witness it must reproduce, and the region check, whose verdict it must
reproduce and whose scan-free acceptances must be exactly its "bound"
acceptances when the targets are a region's canonical balls.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from ucalc.balls import Ball, ClopenRegion
from ucalc.calculus import _image_in_ball
from ucalc.padic import INF, PadicContext, fraction_valuation

from reference import ball_relation, padic_model

CTXS = {p: PadicContext(p, 6) for p in (2, 3, 5)}


# --- copies of the replaced routes -------------------------------------------


def _old_image_bound(f, ball):
    k, local = f.chart(ball)
    p = f.ctx.p
    zero = (0,) * f.d
    val = tuple(Fraction(P.get(zero, 0), p ** k) for P in local)
    s = min((fraction_valuation(a, p) for P in local for x, a in P.items() if x != zero), default=INF)
    return val, s - k


def _old_image_in_ball(f, ball, target):
    val, s = _old_image_bound(f, ball)
    if not target.contains_fractions(val):
        return False, "center", tuple(val)
    if s >= target.k:
        return True, "bound", None
    if s < 0:
        return False, "unbounded", None
    m = ball.k + target.k
    for ints in ball.level_reps(m):
        if not target.contains_ints(f.residues(ints, target.k)):
            return False, "exhaustive", ints
    return True, "exhaustive", None


def _old_image_in_region(f, ball, region):
    """(verdict, scanned): the region route, and whether it decided by
    its residue scan."""
    ctx = f.ctx
    val, s = _old_image_bound(f, ball)
    if s is INF:
        return region.contains_fractions(val), False
    if s < 0 or any(fraction_valuation(q, ctx.p) < 0 for q in val):
        return False, False
    sk = min(s, ctx.N)
    mod = ctx.p ** sk
    ints = tuple(q.numerator * pow(q.denominator, -1, mod) % mod for q in val)
    if region.contains_ball(Ball.from_ints(ctx, ints, sk)):
        return True, False
    top = region.max_level()
    m = ball.k + top
    for reps in ball.level_reps(m):
        vals = f.residues(reps, top)
        if not any(b.contains_ints(vals) for b in region.balls):
            return False, True
    return True, True


# --- cases -------------------------------------------------------------------


def _monomials(d, deg):
    if d == 1:
        return [(i,) for i in range(deg + 1)]
    return [(i, j) for i in range(deg + 1) for j in range(deg + 1 - i)]


@st.composite
def cases(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    d = draw(st.sampled_from([1, 2]))
    ctx = CTXS[p]
    k = draw(st.integers(0, 2))
    ball = Ball.from_ints(ctx, tuple(draw(st.integers(0, p ** k - 1)) for _ in range(d)), k)
    # coefficients u/den * p^v: negative valuations and denominators prime
    # to p included, and zero
    den = draw(st.sampled_from([1, 1, 7, p + 1]))
    coeff = st.builds(
        lambda u, v: Fraction(u, den) * Fraction(p) ** v,
        st.integers(-p * p, p * p),
        st.sampled_from([-1, 0, 0, 1, 1, 2]),
    )
    terms = draw(st.lists(st.sampled_from(_monomials(d, 2)), min_size=0, max_size=4, unique=True))
    coeffs = {e: ctx.vector([draw(coeff) for _ in range(d)]) for e in terms}
    f = padic_model([(ball, coeffs)], e=d)
    # targets: disjoint balls, the first often around the centre value
    val = f.image_bound(ball)[0]
    targets = []
    for i in range(draw(st.integers(1, 3))):
        level = draw(st.integers(0, 2))
        if i == 0 and all(fraction_valuation(q, p) >= 0 for q in val) and draw(st.booleans()):
            mod = p ** level
            centre = tuple(q.numerator * pow(q.denominator, -1, mod) % mod for q in val)
        else:
            centre = tuple(draw(st.integers(0, p ** level - 1)) for _ in range(d))
        b = Ball.from_ints(ctx, centre, level)
        if all(ball_relation(b, t) == "disjoint" for t in targets):
            targets.append(b)
    return f, ball, targets


@settings(max_examples=400, deadline=None)
@given(cases())
def test_merged_check_agrees_with_both_old_routes(case):
    f, ball, targets = case
    region = ClopenRegion(targets)
    got = _image_in_ball(f, ball, targets)
    canonical = _image_in_ball(f, ball, region.balls)
    want, scanned = _old_image_in_region(f, ball, region)
    assert got[0] == canonical[0] == want
    # on canonical balls the region route accepts without its scan
    # exactly when the merged check accepts by the bound
    assert (canonical[0] and canonical[1] == "bound") == (want and not scanned)
    if len(targets) == 1:
        assert got == _old_image_in_ball(f, ball, targets[0])
