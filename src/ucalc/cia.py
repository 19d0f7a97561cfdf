"""Finite-dimensional algebras over Q_p with constructive inversion.

Everything runs exactly: stored scalars are lifted to their exact values
(ints where integral, so products of integral coordinates stay integer
arithmetic), linear algebra is exact Gauss-Jordan elimination on integer
rows, and results are truncated once on the way out.  "Invertible at
precision N" means the pivot valuations of the regular representation
stay below N.
"""

import math
from fractions import Fraction

from .calculus import CheckReport
from .padic import INF, PadicScalar, PadicVector, ParseError, at_path, fraction_valuation
from .padic import scalar_from_json, scalar_to_json


class Singular(ArithmeticError):
    pass


class NotAUnit(ArithmeticError):
    pass


class SMatrixSingular(ArithmeticError):
    pass


class InverseCheckFailed(ArithmeticError):
    """A computed inverse fails its exact residual check."""


def _row(nums, den, e):
    """The row nums * p^e / den with den > 0 prime to p, divided by the
    content gcd(nums, den), which is prime to p as it divides den."""
    g = math.gcd(den, *nums)
    if g == 1:
        return nums, den, e
    return [a // g for a in nums], den // g, e


def _gauss_inverse(frs, p):
    """Exact Gauss-Jordan on rational rows, pivoting on minimal valuation.

    Returns (inverse rows, pivot valuations in elimination order).

    Each row of [A | I] is kept on integers as nums * p^e / den, with den
    prime to p and e the row's p-exponent, so an entry's valuation is
    v(num) + e.  Every step is exact: the normalised pivot row is
    Q * p^eq / dq with Q[col] = dq * p^-eq, and row r minus its col entry
    times it is (Q[col] nums - b Q) * p^(e + eq) / (den dq), b = nums[col].
    Each row therefore holds the same rationals as Fraction elimination
    does at every step, so the pivots (least valuation, first row on
    ties), their valuations and the inverse are the same; a Fraction is
    built only for each entry of the inverse.
    """
    n = len(frs)
    rows = []
    for i, fr in enumerate(frs):
        den = math.lcm(*[q.denominator for q in fr])
        nums = [q.numerator * (den // q.denominator) for q in fr] + [den * (i == j) for j in range(n)]
        e = 0 if den == 1 else -fraction_valuation(den, p)
        rows.append(_row(nums, den // p ** -e, e))
    pivots = []
    for col in range(n):
        best, best_val = -1, INF
        for r in range(col, n):
            a = rows[r][0][col]
            if a == 0:
                continue
            val = fraction_valuation(a, p) + rows[r][2]
            if val < best_val:
                best, best_val = r, val
        if best < 0:
            raise Singular("no pivot in column %d" % col)
        pivots.append(best_val)
        rows[col], rows[best] = rows[best], rows[col]
        nums, _, e = rows[col]
        a = nums[col]
        va = best_val - e
        dq = abs(a) // p ** va
        Q, dq, eq = piv = _row([q if a > 0 else -q for q in nums], dq, -va)
        lead = Q[col]
        for r in range(n):
            nums, den, e = rows[r]
            b = nums[col]
            if r == col or b == 0:
                continue
            rows[r] = _row([lead * x - b * y for x, y in zip(nums, Q)], den * dq, e + eq)
        rows[col] = piv
    out = []
    for nums, den, e in rows:
        scale = p ** abs(e)
        out.append([Fraction(q * scale, den) if e >= 0 else Fraction(q, den * scale) for q in nums[n:]])
    return out, pivots


class StructAlgebra:
    """Algebra given by structure constants on a fixed basis.

    t[i][j][k] is the e_k coordinate of e_i * e_j; one holds the unit's
    coordinates.  Associativity and the unit laws are verified exactly on
    all basis triples when the algebra is built.
    """

    __slots__ = ("ctx", "n", "t", "one", "_mult", "_one_fr")

    def __init__(self, t, one):
        one = tuple(one)
        n = len(one)
        if n == 0:
            raise ValueError("algebra dimension must be positive")
        ctx = one[0].ctx
        if any(s.ctx != ctx for s in one):
            raise ValueError("unit coordinates must share one context")
        t = tuple(tuple(tuple(row) for row in plane) for plane in t)
        if len(t) != n or any(len(pl) != n or any(len(r) != n for r in pl) for pl in t):
            raise ValueError("structure constants must be n x n x n")
        for pl in t:
            for r in pl:
                for s in r:
                    if not isinstance(s, PadicScalar) or s.ctx != ctx:
                        raise TypeError("structure constants must be scalars in the unit's context")
        self.ctx = ctx
        self.n = n
        self.t = t
        self.one = one
        # exact values: ints where integral, so that products of integral
        # coordinates (the axiom checks) take no Fraction arithmetic
        self._mult = tuple(tuple(tuple((k, _exact(c)) for k, c in enumerate(row) if not c.is_zero)
                                 for row in plane) for plane in t)
        self._one_fr = tuple(_exact(s) for s in one)
        self._check_axioms()

    def _basis_fr(self, i):
        return tuple(int(j == i) for j in range(self.n))

    def _mul_fr(self, xf, yf):
        out = [0] * self.n
        for i, xi in enumerate(xf):
            if xi == 0:
                continue
            row = self._mult[i]
            for j, yj in enumerate(yf):
                if yj == 0:
                    continue
                for k, c in row[j]:
                    out[k] += c * xi * yj
        return tuple(out)

    def _check_axioms(self):
        n = self.n
        for j in range(n):
            ej = self._basis_fr(j)
            if self._mul_fr(self._one_fr, ej) != ej or self._mul_fr(ej, self._one_fr) != ej:
                raise ValueError("unit laws fail at basis index %d" % j)
        for i in range(n):
            ei = self._basis_fr(i)
            for j in range(n):
                eij = self._mul_fr(ei, self._basis_fr(j))
                for k in range(n):
                    ek = self._basis_fr(k)
                    left = self._mul_fr(eij, ek)
                    right = self._mul_fr(ei, self._mul_fr(self._basis_fr(j), ek))
                    if left != right:
                        raise ValueError("associativity fails at basis triple (%d, %d, %d)" % (i, j, k))

    def coords_fr(self, x):
        if isinstance(x, PadicVector):
            if len(x) != self.n:
                raise ValueError("coordinate length mismatch")
            return x.to_fractions()
        x = tuple(x)
        if len(x) != self.n:
            raise ValueError("coordinate length mismatch")
        return tuple(s.to_fraction() for s in x)

    def vec(self, frs):
        return self.ctx.vector([self.ctx.from_fraction(q) for q in frs])

    def one_vector(self):
        return self.ctx.vector(list(self.one))

    def __repr__(self):
        return "StructAlgebra(n=%d, p=%d)" % (self.n, self.ctx.p)


def _exact(s):
    """Exact value of a scalar: an int when integral, else a Fraction."""
    if s.is_zero:
        return 0
    if s.v >= 0:
        return s.u * s.ctx.p ** s.v
    return Fraction(s.u, s.ctx.p ** -s.v)


def _lambda_fr(A, af):
    """Left regular representation of the element with rational coords af."""
    n = A.n
    L = [[0] * n for _ in range(n)]
    for i, ai in enumerate(af):
        if ai == 0:
            continue
        row = A._mult[i]
        for j in range(n):
            for k, c in row[j]:
                L[k][j] += c * ai
    return L


def _inverse_fr(A, af):
    """(exact inverse coordinates, inverse rows of the left regular
    representation L(af)), or NotAUnit."""
    L = _lambda_fr(A, af)
    try:
        inv, pivots = _gauss_inverse(L, A.ctx.p)
    except Singular as err:
        raise NotAUnit(str(err)) from None
    N = A.ctx.N
    if any(v >= N for v in pivots) or sum(pivots) >= N:
        raise NotAUnit("regular representation is singular at precision %d" % N)
    return tuple(sum(inv[k][j] * A._one_fr[j] for j in range(A.n)) for k in range(A.n)), inv


def alg_inverse(A, a):
    af = A.coords_fr(a)
    xf, _ = _inverse_fr(A, af)
    if A._mul_fr(af, xf) != A._one_fr:
        raise InverseCheckFailed("a * inverse is not the unit of the algebra")
    return A.vec(xf)


def qp_algebra(ctx):
    """The base field as a one-dimensional algebra."""
    return StructAlgebra([[[ctx.one()]]], [ctx.one()])


def matrix_algebra(ctx, m):
    """m x m matrices with the elementary-matrix basis, row-major."""
    n = m * m
    zero, one = ctx.zero(), ctx.one()

    def idx(a, b):
        return a * m + b

    t = [[[zero] * n for _ in range(n)] for _ in range(n)]
    for a in range(m):
        for b in range(m):
            for c in range(m):
                for d in range(m):
                    if b == c:
                        row = t[idx(a, b)][idx(c, d)]
                        row[idx(a, d)] = one
    one_coords = [one if a == b else zero for a in range(m) for b in range(m)]
    return StructAlgebra(t, one_coords)


def quadratic_extension(ctx, c):
    """Q_p[X] / (X^2 - c) on the basis (1, X)."""
    zero, one = ctx.zero(), ctx.one()
    cs = ctx.from_int(c)
    t = [
        [[one, zero], [zero, one]],
        [[zero, one], [cs, zero]],
    ]
    return StructAlgebra(t, [one, zero])


def tensor_algebra(F, A):
    """Structure constants of F tensor A on the product basis.

    Basis order: (i, a) -> i * dim(A) + a.
    """
    if F.ctx != A.ctx:
        raise ValueError("factors must share one context")
    ctx = F.ctx
    n, m = F.n, A.n
    nm = n * m
    zero = ctx.zero()
    t = [[[zero] * nm for _ in range(nm)] for _ in range(nm)]
    for i in range(n):
        for j in range(n):
            fk = F._mult[i][j]
            for a in range(m):
                for b in range(m):
                    ak = A._mult[a][b]
                    for k, cf in fk:
                        for cidx, ca in ak:
                            t[i * m + a][j * m + b][k * m + cidx] = ctx.from_fraction(cf * ca)
    one_coords = []
    for i in range(n):
        fi = F._one_fr[i]
        for a in range(m):
            one_coords.append(ctx.from_fraction(fi * A._one_fr[a]))
    return StructAlgebra(t, one_coords)


def tensor_right_inverse(F, A, z):
    """Right inverse of 1 + sum_k e_k (x) z_k in F (x) A.

    Solves S(z) v = -z where S(z)_{kj} = delta_{kj} 1_A + sum_i t_{i,j,k} z_i,
    the system being flattened through the regular representation of A.
    """
    if F.ctx != A.ctx:
        raise ValueError("factors must share one context")
    n, m = F.n, A.n
    z = [A.coords_fr(zk) for zk in z]
    if len(z) != n:
        raise ValueError("z must have one A-element per basis vector of F")
    s = [[None] * n for _ in range(n)]
    for k in range(n):
        for j in range(n):
            entry = list(A._one_fr) if k == j else [0] * m
            for i in range(n):
                cf = _exact(F.t[i][j][k])
                if cf == 0:
                    continue
                for a in range(m):
                    entry[a] += cf * z[i][a]
            s[k][j] = tuple(entry)
    nm = n * m
    block = [[0] * nm for _ in range(nm)]
    for k in range(n):
        for j in range(n):
            lam = _lambda_fr(A, s[k][j])
            for c in range(m):
                for a in range(m):
                    block[k * m + c][j * m + a] = lam[c][a]
    try:
        inv, pivots = _gauss_inverse(block, F.ctx.p)
    except Singular as err:
        raise SMatrixSingular(str(err)) from None
    N = F.ctx.N
    if any(v >= N for v in pivots) or sum(pivots) >= N:
        raise SMatrixSingular("S-matrix singular at precision %d" % N)
    stack = [z[k][a] for k in range(n) for a in range(m)]
    w = [-sum(inv[r][c] * stack[c] for c in range(nm)) for r in range(nm)]
    out = []
    for j in range(n):
        vj = tuple(w[j * m : (j + 1) * m])
        out.append(vj)
    for k in range(n):
        resid = list(z[k])
        for j in range(n):
            prod = A._mul_fr(s[k][j], out[j])
            resid = [q + r for q, r in zip(resid, prod)]
        if any(resid):
            raise InverseCheckFailed("right inverse leaves a nonzero residual in row %d" % k)
    return [A.vec(vj) for vj in out]


def check_inversion_derivative(A, x, v, t):
    """Difference quotient of inversion against -inv(x+tv) v inv(x).

    For t = 0 the quotient is replaced by the first-order coefficient of
    the inverse of x + tv solved formally modulo t^2.
    """
    xf = A.coords_fr(x)
    vf = A.coords_fr(v)
    ix, inv = _inverse_fr(A, xf)
    if not t.is_zero:
        tf = t.to_fraction()
        yf = tuple(q + tf * w for q, w in zip(xf, vf))
        iy, _ = _inverse_fr(A, yf)
        lhs = tuple((q2 - q1) / tf for q1, q2 in zip(ix, iy))
        rhs = tuple(-q for q in A._mul_fr(A._mul_fr(iy, vf), ix))
        return CheckReport(lhs=A.vec(lhs), rhs=A.vec(rhs), equal=lhs == rhs)
    # (L(x) + t L(v)) (a0 + t a1) = 1 mod t^2: a0 is the inverse and
    # L(x) a1 = -L(v) a0 gives the derivative coefficient
    L1 = _lambda_fr(A, vf)
    n = A.n
    L1a0 = tuple(sum(L1[k][j] * ix[j] for j in range(n)) for k in range(n))
    a1 = tuple(-sum(inv[k][j] * L1a0[j] for j in range(n)) for k in range(n))
    rhs = tuple(-q for q in A._mul_fr(A._mul_fr(ix, vf), ix))
    return CheckReport(lhs=A.vec(a1), rhs=A.vec(rhs), equal=a1 == rhs)


def algebra_to_json(A):
    return {
        "n": A.n,
        "t": [[[scalar_to_json(s) for s in row] for row in plane] for plane in A.t],
        "one": [scalar_to_json(s) for s in A.one],
    }


def algebra_from_json(obj, path="$"):
    if not isinstance(obj, dict):
        raise ParseError("algebra JSON must be an object", path)
    n = obj.get("n")
    if type(n) is not int or n < 1:
        raise ParseError("algebra dimension n must be a positive int", path + ".n")

    def scalars(arr, where, ctx):
        """The n scalars of one array, all in `ctx` (None: in the first's)."""
        if not isinstance(arr, list) or len(arr) != n:
            raise ParseError("expected an array of %d entries" % n, where)
        out = [scalar_from_json(s, "%s[%d]" % (where, i)) for i, s in enumerate(arr)]
        ctx = ctx or out[0].ctx
        for i, s in enumerate(out):
            if s.ctx != ctx:
                raise ParseError("scalar context differs from %r" % (ctx,), "%s[%d]" % (where, i))
        return out

    one_s = scalars(obj.get("one"), path + ".one", None)
    ctx = one_s[0].ctx
    t = obj.get("t")
    if not isinstance(t, list) or len(t) != n:
        raise ParseError("expected an n x n x n tensor", path + ".t")
    t_s = []
    for i, plane in enumerate(t):
        if not isinstance(plane, list) or len(plane) != n:
            raise ParseError("expected an n x n plane", "%s.t[%d]" % (path, i))
        t_s.append([scalars(row, "%s.t[%d][%d]" % (path, i, j), ctx) for j, row in enumerate(plane)])
    with at_path(path):
        return StructAlgebra(t_s, one_s)
