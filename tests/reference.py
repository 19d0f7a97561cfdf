"""Test-local references for what the library builds another way.

`padic_model` and `padic_product_model` build models from PadicVector
coefficients, {exponents: PadicVector} per piece: each piece is converted
to the integer store that `FunctionModel` takes, p^-s times one integer
polynomial per output coordinate with s >= 0 least.  `ball_relation` is
the pairwise relation of two balls, the oracle for `BallIndex` and for
the common refinement.
"""

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
