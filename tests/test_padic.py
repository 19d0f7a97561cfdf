import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ucalc.padic import (
    INF,
    DivisionByZero,
    PadicContext,
    PadicScalar,
    PadicVector,
    PRIME_BOUND,
    PrecisionLoss,
    fraction_valuation,
    is_prime,
    scalar_from_json,
    scalar_to_json,
    vector_from_json,
    vector_to_json,
)


def test_context_validation():
    with pytest.raises(ValueError):
        PadicContext(4)
    with pytest.raises(ValueError):
        PadicContext(3, 0)
    ctx = PadicContext(3, 2)
    assert ctx.modulus == 9


def test_add_frozen_example_p2():
    # 11 + 21 = 32 = 2**5 at six digits
    ctx = PadicContext(2, 6)
    a = ctx.from_int(11)
    b = ctx.from_int(21)
    c = a + b
    assert c.v == 5
    assert c.u == 1


def test_mul_frozen_example_p5():
    ctx = PadicContext(5, 4)
    c = ctx.from_int(7) * ctx.from_int(13)
    assert c.v == 0
    assert c.u == 91


def test_inverse_of_two_p5():
    ctx = PadicContext(5, 4)
    x = ctx.from_int(2).inverse()
    assert x.digits()[0] == 3
    # frozen: 1/2 mod 5**4 is 313, digits 3,2,2,2
    assert x.digits() == [3, 2, 2, 2]
    assert x.v == 0


def test_total_cancellation_raises():
    ctx = PadicContext(3, 2)
    with pytest.raises(PrecisionLoss):
        ctx.from_int(4) + ctx.from_int(5)
    a = ctx.from_int(7)
    with pytest.raises(PrecisionLoss):
        a + (-a)


def test_exact_zero_absorbs():
    ctx = PadicContext(3, 4)
    z = ctx.zero()
    a = ctx.from_int(6)
    assert (z + a) == a
    assert (a + z) == a
    assert (z * a).is_zero
    assert z.v == INF
    with pytest.raises(DivisionByZero):
        z.inverse()


def test_negation_is_unit_complement():
    ctx = PadicContext(3, 2)
    a = ctx.from_int(1)
    assert (-a).u == 8
    assert (-a).digits() == [2, 2]
    assert ctx.from_fraction(Fraction(-1)) == -a


def test_from_fraction_strips_denominator():
    ctx = PadicContext(5, 4)
    x = ctx.from_fraction(Fraction(7, 25))
    assert x.v == -2
    assert x.u == 7
    y = ctx.from_fraction(Fraction(1, 3))
    assert (ctx.from_int(3) * y) == ctx.one()


def test_to_fraction_roundtrip():
    ctx = PadicContext(3, 6)
    for n in (1, 2, 5, 44, 700):
        x = ctx.from_int(n)
        assert ctx.from_fraction(x.to_fraction()) == x


@pytest.mark.parametrize("p", [2, 3, 5])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_to_fraction_matches_power_product(p, data):
    """u*p^v, or u/p^-v, is the value Fraction(u) * Fraction(p)**v, for v
    across [-N, N] and for exact zero."""
    n = 6
    ctx = PadicContext(p, n)
    u = data.draw(st.integers(1, p ** n - 1).filter(lambda u: u % p))
    x = ctx.from_unit(data.draw(st.integers(-n, n)), u)
    assert x.to_fraction() == Fraction(x.u) * Fraction(p) ** x.v
    assert ctx.zero().to_fraction() == 0


def test_fraction_valuation():
    assert fraction_valuation(Fraction(18), 3) == 2
    assert fraction_valuation(Fraction(5, 9), 3) == -2
    assert fraction_valuation(0, 3) == INF
    assert fraction_valuation(-54, 3) == 3


def test_mixed_context_rejected():
    a = PadicContext(3, 4).from_int(2)
    b = PadicContext(3, 5).from_int(2)
    with pytest.raises(ValueError):
        a + b


def _scalars(p, n):
    m = p ** n

    def fix(u):
        return u + 1 if u % p == 0 else u

    return st.builds(
        lambda v, u: PadicContext(p, n).from_unit(v, fix(u)),
        st.integers(-6, 6),
        st.integers(1, m - 2),
    )


@pytest.mark.parametrize("p", [2, 3, 5])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_ultrametric_law(p, data):
    a = data.draw(_scalars(p, 6))
    b = data.draw(_scalars(p, 6))
    try:
        c = a + b
    except PrecisionLoss:
        # cancellation certifies v(a+b) >= min(v) + N, within the law
        assert a.v == b.v
        return
    assert c.v >= min(a.v, b.v)
    if a.v != b.v:
        assert c.v == min(a.v, b.v)


@pytest.mark.parametrize("p", [2, 3, 5])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_unit_group_exact(p, data):
    a = data.draw(_scalars(p, 6))
    ctx = a.ctx
    assert a * a.inverse() == ctx.one()
    assert a.inverse() * a == ctx.one()
    assert a.inverse().v == -a.v


@pytest.mark.parametrize("p", [2, 5])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_ring_laws(p, data):
    a = data.draw(_scalars(p, 6))
    b = data.draw(_scalars(p, 6))
    c = data.draw(_scalars(p, 6))
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    try:
        s = b + c
        lhs = a * s
        rhs = a * b + a * c
    except PrecisionLoss:
        assume(False)
    if s.v == min(b.v, c.v):
        # no cancellation in b+c: both paths keep the full window
        assert lhs == rhs
    else:
        # t digits cancelled: paths agree on the surviving N-t digits
        diff = lhs.to_fraction() - rhs.to_fraction()
        assert fraction_valuation(diff, p) >= a.v + min(b.v, c.v) + 6


def norm_valuation(x):
    """min of coordinate valuations; INF for the zero vector."""
    return min((c.v for c in x.coords), default=INF)


def _ref_scalar(ctx, q):
    """(v, u) of q by the Fraction route, a modular inverse included."""
    q = Fraction(q)
    if q == 0:
        return INF, 0
    v = fraction_valuation(q, ctx.p)
    num, den = (q / Fraction(ctx.p) ** v).as_integer_ratio()
    return v, num * pow(den, -1, ctx.modulus) % ctx.modulus


@pytest.mark.parametrize("p", [2, 3, 5])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_vector_of_ints_matches_from_fraction(p, data):
    """ctx.vector gives, coordinate by coordinate, the scalars from_fraction
    gives, and both equal the Fraction route with its modular inverse: for
    0, negative ints, multiples of p and ints at or past p^N too."""
    n = 4
    ctx = PadicContext(p, n)
    fixed = [0, 1, -1, p, -p, 7 * p ** 2, p ** n, p ** n + 1, -(p ** n), 3 * p ** (n + 2) + p, 10 ** 30]
    drawn = data.draw(st.lists(st.integers(-(p ** (2 * n)), p ** (2 * n)), min_size=1, max_size=4))
    for vals in [fixed, drawn, [Fraction(1, p), Fraction(-4, 7), 5]]:
        coords = ctx.vector(vals).coords
        assert coords == tuple(ctx.from_fraction(q) for q in vals)
        assert [(c.v, c.u) for c in coords] == [_ref_scalar(ctx, q) for q in vals]


def test_vector_norm():
    ctx = PadicContext(3, 4)
    x = ctx.vector([9, 1])
    assert norm_valuation(x) == 0
    assert norm_valuation(ctx.vector([9, 27])) == 2
    assert norm_valuation(ctx.vector([0, 0])) == INF
    y = ctx.vector([1, 1])
    s = ctx.from_int(3)
    assert norm_valuation(x + y.scale(s)) == 0
    assert x + y == ctx.vector([10, 2])


def test_scalar_json_roundtrip():
    ctx = PadicContext(5, 4)
    for x in (ctx.from_int(7), ctx.from_fraction(Fraction(2, 5)), ctx.zero(), -ctx.one()):
        obj = scalar_to_json(x)
        assert scalar_from_json(obj) == x
    obj = scalar_to_json(ctx.from_int(7))
    assert obj == {"p": 5, "v": 0, "digits": [2, 1, 0, 0]}
    z = scalar_to_json(ctx.zero())
    assert z["v"] == "inf" and z["digits"] == [0, 0, 0, 0]


def test_scalar_json_rejects_malformed():
    with pytest.raises(ValueError):
        scalar_from_json({"p": 5, "v": 0, "digits": []})
    with pytest.raises(ValueError):
        scalar_from_json({"p": 5, "v": 0, "digits": [0, 1]})
    with pytest.raises(ValueError):
        scalar_from_json({"p": 5, "v": 0, "digits": [5, 1]})
    with pytest.raises(ValueError):
        scalar_from_json({"p": 5, "v": "nope", "digits": [1, 1]})
    with pytest.raises(ValueError):
        scalar_from_json({"p": 5, "digits": [1, 1]})


def test_vector_json_roundtrip():
    ctx = PadicContext(2, 6)
    x = ctx.vector([3, 8])
    assert vector_from_json(vector_to_json(x)) == x
    with pytest.raises(ValueError):
        vector_from_json([])


def test_digit_window_is_relative():
    # truncation happens at N significant digits, not N absolute ones
    ctx = PadicContext(3, 2)
    x = ctx.from_int(9 * 4)  # v=2, digits 1,1
    assert x.v == 2
    assert x.digits() == [1, 1]
    assert math.isinf(ctx.zero().v)


def test_is_prime_matches_trial_division_on_small_numbers():
    def trial(n):
        return n >= 2 and all(n % f for f in range(2, int(n ** 0.5) + 1))

    assert [n for n in range(2000) if is_prime(n)] == [n for n in range(2000) if trial(n)]


def test_is_prime_rejects_strong_pseudoprimes_below_the_bound():
    # Carmichael numbers and the least strong pseudoprimes to the first
    # 4, 9 and 12 prime bases (2..37); the last needs base 41
    assert not any(is_prime(n) for n in (561, 41041, 825265, 3215031751))
    assert 3825123056546413051 == 149491 * 747451 * 34233211
    assert 318665857834031151167461 == 399165290221 * 798330580441
    assert not is_prime(3825123056546413051)
    assert not is_prime(318665857834031151167461)
    assert is_prime(2 ** 61 - 1) and is_prime(2 ** 31 - 1)
    assert not is_prime(2 ** 61 + 1)


def test_is_prime_refuses_the_bound_and_above():
    # the bound is itself a strong pseudoprime to all thirteen bases 2..41
    assert PRIME_BOUND == 1287836182261 * 2575672364521
    below = PRIME_BOUND - 168  # the largest prime below the bound
    assert is_prime(below)
    assert all(pow(a, below - 1, below) == 1 for a in (43, 47, 53, 97))
    assert not any(is_prime(n) for n in range(below + 1, PRIME_BOUND))
    for n in (PRIME_BOUND, PRIME_BOUND + 1, 2 ** 89 - 1):
        with pytest.raises(ValueError, match="decided only below"):
            is_prime(n)
    with pytest.raises(ValueError):
        PadicContext(2 ** 89 - 1)
