"""Differential test of the image-containment check `_image_in_ball`.

`_image_in_ball` decides whether f maps a piece ball into a target ball
from the Mahler coefficients of the piece's chart.  Its oracle is the
cell scan `image_scan` of tests/reference.py.  The centre, bound and
unbounded legs must agree with the scan's exactly; past them the
verdicts must agree, and every refusal's witness must be a point of the
piece whose value leaves the target.

The maps are written in chart coordinates z (x = c + p^k z) so that their
Mahler norm sits at or next to the target level: p^a (z^p - z) has Gauss
norm p^-a but sup norm p^-(a+1), which the Gauss norm cannot see.
"""

import time

from hypothesis import given, settings
from hypothesis import strategies as st

from ucalc.balls import Ball
from ucalc.calculus import FunctionModel, _image_in_ball
from ucalc.padic import PadicContext

from reference import chart_entry, image_scan

CTXS = {p: PadicContext(p, 8) for p in (2, 3, 5)}
# the oracle scans p^(d K) cells; p = 5, d = 2 stops at K = 3
MAX_CELLS = 5 ** 6


def chart_model(ball, r, chart, e):
    """One-piece model on ball with chart f(c + p^k z) = p^-r Q(z), Q the
    integer polynomials chart."""
    return FunctionModel([(ball, chart_entry(ball, r, chart))], e)


def _units(d):
    return [tuple(int(j == i) for j in range(d)) for i in range(d)]


@st.composite
def cases(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    d = draw(st.sampled_from([1, 2]))
    ctx = CTXS[p]
    K = draw(st.integers(0, 4).filter(lambda K: p ** (d * K) <= MAX_CELLS))
    k = draw(st.integers(0, 2))
    ball = Ball.from_ints(ctx, tuple(draw(st.integers(0, p ** k - 1)) for _ in range(d)), k)
    # f = p^-r Q in the chart; Q = p^r val + p^(r+a) u T + p^(r+b) w R,
    # T of Mahler valuation one above its Gauss valuation
    r = draw(st.sampled_from([0, 0, 1]))
    val = [draw(st.integers(0, p ** 6 - 1)) for _ in range(d)]
    chart = []
    for j in range(d):
        Q = {(0,) * d: p ** r * val[j]} if val[j] else {}
        a = draw(st.integers(max(K - 2, -r), K))
        u = draw(st.sampled_from([1, -1, p + 1]))
        lead = draw(st.sampled_from([(0,) * d] + _units(d)))
        for i in draw(st.lists(st.integers(0, d - 1), min_size=1, max_size=d, unique=True)):
            # lead * (z_i^p - z_i)
            up = tuple(n + p * (m == i) for m, n in enumerate(lead))
            one = tuple(n + (m == i) for m, n in enumerate(lead))
            for exps, c in ((up, 1), (one, -1)):
                Q[exps] = Q.get(exps, 0) + c * u * p ** (r + a)
        for _ in range(draw(st.integers(0, 2))):
            exps = tuple(draw(st.integers(0, 2)) for _ in range(d))
            b = draw(st.integers(max(K - 2, -r), K + 1))
            Q[exps] = Q.get(exps, 0) + draw(st.sampled_from([1, 2, -1])) * p ** (r + b)
        chart.append({x: c for x, c in Q.items() if c})
    f = chart_model(ball, r, tuple(chart), d)
    # target: around the centre value, or at a point off it by p^j
    if draw(st.booleans()):
        centre = tuple(v % p ** K for v in val)
    else:
        j = draw(st.integers(0, max(K - 1, 0)))
        centre = tuple((v + p ** j * draw(st.integers(0, p))) % p ** K for v in val)
    return f, ball, Ball.from_ints(ctx, centre, K)


def _check(f, ball, target):
    got = _image_in_ball(f, ball, target)
    want = image_scan(f, ball, (target,))
    if want[1] == "exhaustive":
        assert got[:2] == (want[0], "mahler")
    else:
        assert got == want
    if got[1] == "mahler" and not got[0]:
        w = got[2]
        assert ball.contains_ints(w)
        assert not target.contains_ints(f.residues([w], target.k)[0])
    return got


@settings(max_examples=500, deadline=None)
@given(cases())
def test_image_check_agrees_with_the_scan_oracle(case):
    _check(*case)


def test_gauss_norm_misses_what_the_mahler_norm_sees():
    # 3^(K-1)(z^3 - z) is 0 mod 3^K on Z_3 but has a coefficient of
    # valuation K-1; with the centre 3 added, the target ball is 3 + 3^K Z_3
    ctx = CTXS[3]
    for k, K in [(0, 1), (1, 2), (2, 3), (0, 4)]:
        ball = Ball.from_ints(ctx, (k and 1,), k)
        f = chart_model(ball, 0, ({(0,): 3, (3,): 3 ** (K - 1), (1,): -3 ** (K - 1)},), 1)
        target = Ball.from_ints(ctx, (3 % 3 ** K,), K)
        assert _check(f, ball, target) == (True, "mahler", None)
        assert _check(f, ball, Ball.from_ints(ctx, (3 % 3 ** (K + 1),), K + 1))[:2] == (False, "mahler")


def test_witness_is_the_least_degree_box_point():
    # z^2 + z = 2 C(z, 2) + 2 C(z, 1) on Z_2 misses 4 Z_2 at z = 1 first
    ctx = CTXS[2]
    ball = Ball.from_ints(ctx, (1,), 1)
    f = chart_model(ball, 0, ({(2,): 1, (1,): 1},), 1)
    assert _image_in_ball(f, ball, Ball.from_ints(ctx, (0,), 1)) == (True, "mahler", None)
    # the witness c + p^k K* = 1 + 2 * 1
    assert _image_in_ball(f, ball, Ball.from_ints(ctx, (0,), 2)) == (False, "mahler", (3,))


def test_high_target_level_decides_fast():
    # 3^(K-1)(x^3 - x, y^3 - y) on Z_3^2 into 3^K Z_3^2 at K = 8: the
    # Mahler coefficients decide without visiting the 3^16 cells
    ctx = PadicContext(3, 12)
    ball = Ball.from_ints(ctx, (0, 0), 0)
    K = 8
    chart = ({(3, 0): 3 ** (K - 1), (1, 0): -3 ** (K - 1)}, {(0, 3): 3 ** (K - 1), (0, 1): -3 ** (K - 1)})
    f = chart_model(ball, 0, chart, 2)
    start = time.perf_counter()
    assert _image_in_ball(f, ball, Ball.from_ints(ctx, (0, 0), K)) == (True, "mahler", None)
    ok, method, w = _image_in_ball(f, ball, Ball.from_ints(ctx, (0, 0), K + 1))
    assert time.perf_counter() - start < 0.1
    assert (ok, method) == (False, "mahler")
    assert any(v % 3 ** (K + 1) for v in f.residues([w], K + 1)[0])
