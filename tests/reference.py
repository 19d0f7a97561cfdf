"""Test-local references for what the library builds another way.

`padic_model` and `padic_product_model` build models from PadicVector
coefficients, {exponents: PadicVector} per piece: each piece is converted
to the integer store that `FunctionModel` takes, p^-s times one integer
polynomial per output coordinate with s >= 0 least.  `ball_relation` is
the pairwise relation of two balls, the oracle for `BallIndex` and for
the common refinement.  `omega_witness_search` is the exhaustive scan of
the Omega bound at a level, the oracle for `certify_omega`, and
`breaks_omega` evaluates a failing (x, y, t) in Fractions from the
model's coefficients alone.
"""

from fractions import Fraction

from ucalc import _poly
from ucalc.calculus import FunctionModel, product_model


def padic_entry(ctx, d, coeffs, e):
    """The store entry (s, polys) of {exponents: PadicVector} coefficients
    on a ball of dimension d in the context ctx."""
    for exps, vec in coeffs.items():
        if len(exps) != d or any(n < 0 or not isinstance(n, int) for n in exps):
            raise ValueError("bad exponent tuple %r" % (exps,))
        if vec.dim != e:
            raise ValueError("coefficient dimension %d, expected %d" % (vec.dim, e))
        if vec.ctx != ctx:
            raise ValueError("coefficient context differs from ball context")
    s = max([0] + [-c.v for vec in coeffs.values() for c in vec.coords if not c.is_zero])
    return s, tuple({tuple(x): vec[j].u * ctx.p ** (vec[j].v + s) for x, vec in coeffs.items()
                     if not vec[j].is_zero} for j in range(e))


def padic_model(pieces, e=None, factors=None):
    """FunctionModel from (ball, {exponents: PadicVector}) pieces; e defaults
    to the dimension of the first coefficient."""
    pieces = list(pieces)
    if e is None:
        e = next((vec.dim for _, coeffs in pieces for vec in coeffs.values()), None)
        if e is None and pieces:
            raise ValueError("codomain dimension e is required for zero models")
    return FunctionModel([(b, padic_entry(b.ctx, b.d, c, e)) for b, c in pieces], e, factors)


def padic_product_model(pairs, e):
    """product_model from (ball_u, ball_v, {exponents: PadicVector}) triples."""
    return product_model([(bu, bv, padic_entry(bu.ctx, bu.d + bv.d, c, e)) for bu, bv, c in pairs], e)


def ball_relation(b1, b2):
    """One of "equal", "disjoint", "B1_contains_B2", "B2_contains_B1"."""
    if b1.ctx.p != b2.ctx.p or b1.d != b2.d:
        raise ValueError("balls live in different spaces")
    if b1.k == b2.k:
        return "equal" if b1.ints == b2.ints else "disjoint"
    if b1.k < b2.k:
        m = b1.ctx.p ** b1.k
        if all(c2 % m == c1 for c1, c2 in zip(b1.ints, b2.ints)):
            return "B1_contains_B2"
        return "disjoint"
    m = b2.ctx.p ** b2.k
    if all(c1 % m == c2 for c1, c2 in zip(b1.ints, b2.ints)):
        return "B2_contains_B1"
    return "disjoint"


def t_classes(p, m):
    """Representatives (t, v(t)) of every quotient parameter class mod p^m:
    t = 0 plus one member u*p^j of each unit class u mod p^(m-j)."""
    ts = [(0, None)]
    for j in range(m):
        for u in range(1, p ** (m - j)):
            if u % p:
                ts.append((u * p ** j, j))
    ts.append((p ** m, m))
    return ts


def omega_witness_search(endo, m, v_min):
    """Exact scan of displacement quotients and values over level-m data:
    ("quotient" or "value", x, y, t) with Fraction coordinates for the
    first failure, or None.

    Quotients are scanned first; value violations (zero direction, t = 0)
    come with the same triple shape.  The scan runs on residues mod p^M,
    M = m + v_min.  For t of valuation j <= m the quotient has valuation
    below v_min exactly when the difference is nonzero mod p^(j + v_min).
    For t = 0 the quotient is p^-k times the chart gradient of the piece
    of x along y, so it fails exactly when that gradient is nonzero mod
    p^(v_min + k); the pieces must have level k <= m.  A value fails
    exactly when it is nonzero mod p^v_min.  It is a scan at one level:
    a failure it reports is real, and at m >= max(k_max, 2 v_min - 1) the
    tests compare its silence with `certify_omega`'s acceptance.
    """
    sigma = endo.sigma
    p = endo.ctx.p
    M = m + v_min
    reps = list(endo.ball.level_reps(m))
    ts = [(t, None if j is None else p ** (j + v_min)) for t, j in t_classes(p, m)]
    bases = []
    for x in reps:
        base = sigma.residues(x, M)
        bases.append(base)
        for y in reps:
            for t, mod in ts:
                if mod is None:
                    k, slope = slope_residues(sigma, x, y, M)
                    bad = any(r % p ** (v_min + k) for r in slope)
                else:
                    shifted = sigma.residues(tuple(a + t * b for a, b in zip(x, y)), M)
                    bad = any((q2 - q1) % mod for q1, q2 in zip(base, shifted))
                if bad:
                    return ("quotient", _fractions(x), _fractions(y), Fraction(t))
    zero = tuple(Fraction(0) for _ in range(endo.d))
    for x, base in zip(reps, bases):
        if any(q % p ** v_min for q in base):
            return ("value", _fractions(x), zero, Fraction(0))
    return None


def slope_residues(f, ints, ys, M):
    """(k, r): the level k of the piece of f holding an integral point and
    the residues mod p^M of sum_i dQ/dz_i(z) y_i, the gradient of its
    chart p^-s Q along y at x = c + p^k z; that is p^k times the t = 0
    quotient.  The chart must be integral."""
    ball = f._pieces_index.at(ints)
    s, polys = f.chart(ball)
    p = f.ctx.p
    z = [(x - c) // p ** ball.k for x, c in zip(ints, ball.ints)]
    grads = [sum(_poly.eval_over(_poly.diff(Q, i), z) * y for i, y in enumerate(ys)) for Q in polys]
    return ball.k, tuple(g // p ** s % p ** M for g in grads)


def _fractions(ints):
    return tuple(Fraction(i) for i in ints)


def _valuation(q, p):
    q = Fraction(q)
    if q == 0:
        return None
    v, num, den = 0, q.numerator, q.denominator
    while num % p == 0:
        num, v = num // p, v + 1
    while den % p == 0:
        den, v = den // p, v - 1
    return v


def _piece_at(f, x):
    """The Fraction polynomials of the piece of f whose ball holds x."""
    for ball, polys in f._frac.items():
        if ball.contains_fractions(x):
            return polys
    raise ValueError("%s lies outside the model domain" % (list(x),))


def _value(P, x):
    total = Fraction(0)
    for exps, c in P.items():
        for xi, n in zip(x, exps):
            c *= xi ** n
        total += c
    return total


def _slope(P, x, y):
    """sum_i y_i dP/dx_i at x, term by term."""
    total = Fraction(0)
    for exps, c in P.items():
        for i, n in enumerate(exps):
            if n and y[i]:
                term = c * n * y[i]
                for j, (xj, nj) in enumerate(zip(x, exps)):
                    term *= xj ** (nj - 1 if j == i else nj)
                total += term
    return total


def breaks_omega(f, x, y, t, v_min):
    """True when the value of f at x (y = 0 and t = 0), its derivative
    along y (t = 0) or its first quotient (f(x + ty) - f(x))/t has a
    coordinate of valuation below v_min, all evaluated in Fractions."""
    p = f.ctx.p
    if t:
        shifted = tuple(a + t * b for a, b in zip(x, y))
        vals = [(_value(Q, shifted) - _value(P, x)) / t
                for P, Q in zip(_piece_at(f, x), _piece_at(f, shifted))]
    elif any(y):
        vals = [_slope(P, x, y) for P in _piece_at(f, x)]
    else:
        vals = [_value(P, x) for P in _piece_at(f, x)]
    return any(v is not None and v < v_min for v in (_valuation(q, p) for q in vals))
