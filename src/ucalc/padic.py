"""Exact arithmetic in Q_p at a fixed relative precision.

A nonzero scalar is a pair (v, u): the valuation and a unit part with
u % p != 0, standing for u * p**v known to N significant base-p digits.
Exact zero is a separate flagged value (u == 0) with valuation +inf.
All operations compute the exact rational value of the representatives
and truncate once at the end, so algebraic identities that hold in Q
hold bit-exactly here whenever no digits overflow the window.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from fractions import Fraction

INF = math.inf


class ParseError(ValueError):
    """Malformed JSON input, raised by every `*_from_json` loader; `path`
    names the offending node, as in `$.pieces[0].ball.center[0].digits[1]`."""

    def __init__(self, msg, path="$"):
        super().__init__("%s at %s" % (msg, path))
        self.path = path


@contextmanager
def at_path(path):
    """Report a ValueError raised while building the JSON node at `path`
    as a ParseError at that path; deeper ParseErrors pass unchanged."""
    try:
        yield
    except ParseError:
        raise
    except ValueError as err:
        raise ParseError(str(err), path) from None


def decode_items(decode, items, path, *args):
    """[decode(item, path, *args) for item in items], formatting the path
    "path[i]" of item i only when an item fails: the items are then decoded
    again with their own paths, which raises that ParseError at its node."""
    try:
        return [decode(obj, path, *args) for obj in items]
    except ParseError:
        pass
    return [decode(obj, "%s[%d]" % (path, i), *args) for i, obj in enumerate(items)]


class PrecisionLoss(ArithmeticError):
    """All N significant digits cancelled: result indistinguishable from zero."""


class DivisionByZero(ZeroDivisionError):
    """Inversion or division of an exact zero."""


# Miller-Rabin with the prime bases 2..41 is exact below this bound, the
# least strong pseudoprime to all thirteen (Sorenson and Webster, Math.
# Comp. 86 (2017)); it is itself such a pseudoprime, so it is refused too.
# Bases 2..37 alone are not enough: 318665857834031151167461 is composite
# and a strong pseudoprime to all twelve of them.
PRIME_BOUND = 3317044064679887385961981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n):
    """Deterministic Miller-Rabin primality test for n < PRIME_BOUND.

    Raises ValueError at or above the bound, where the thirteen bases no
    longer decide primality.
    """
    if n >= PRIME_BOUND:
        raise ValueError("primality is decided only below %d, got %d" % (PRIME_BOUND, n))
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def fraction_valuation(q, p):
    """p-adic valuation of a Fraction or int; INF for zero."""
    if isinstance(q, int):
        num, den = q, 1
    else:
        q = Fraction(q)
        num, den = q.numerator, q.denominator
    if num == 0:
        return INF
    v = 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


class PadicContext:
    """Ambient data: the prime p and the relative precision N (digit count)."""

    __slots__ = ("p", "N", "modulus")

    def __init__(self, p, N=12):
        if not is_prime(p):
            raise ValueError("p must be prime, got %r" % (p,))
        if not isinstance(N, int) or N < 1:
            raise ValueError("precision N must be a positive integer, got %r" % (N,))
        self.p = p
        self.N = N
        self.modulus = p ** N

    def __eq__(self, other):
        return (
            isinstance(other, PadicContext)
            and self.p == other.p
            and self.N == other.N
        )

    def __hash__(self):
        return hash((self.p, self.N))

    def __repr__(self):
        return "PadicContext(p=%d, N=%d)" % (self.p, self.N)

    def zero(self):
        return PadicScalar(self, INF, 0)

    def one(self):
        return PadicScalar(self, 0, 1)

    def from_unit(self, v, u):
        """Scalar from explicit valuation and unit part."""
        return PadicScalar(self, v, u)

    def from_int(self, n):
        return self.from_fraction(n)

    def from_fraction(self, q):
        """Truncate an exact rational (or int) to N significant digits.

        An int n = u*p^v takes no inverse: its scalar is (v, u mod p^N)."""
        if isinstance(q, int):
            num, den = q, 1
        else:
            q = Fraction(q)
            num, den = q.numerator, q.denominator
        if num == 0:
            return self.zero()
        v = 0
        p = self.p
        while num % p == 0:
            num //= p
            v += 1
        while den % p == 0:
            den //= p
            v -= 1
        u = num % self.modulus if den == 1 else num * pow(den, -1, self.modulus) % self.modulus
        return PadicScalar(self, v, u)

    def vector(self, values):
        """Vector from an iterable of ints, Fractions or PadicScalars."""
        coords = tuple(
            x if isinstance(x, PadicScalar) else self.from_fraction(x)
            for x in values
        )
        return PadicVector(coords, ctx=self)


class PadicScalar:
    """One element of Q_p at relative precision N."""

    __slots__ = ("ctx", "v", "u")

    def __init__(self, ctx, v, u):
        if u == 0:
            if v != INF:
                raise ValueError("exact zero must carry valuation INF")
        else:
            if not isinstance(u, int) or not 1 <= u < ctx.modulus:
                raise ValueError("unit part out of range: %r" % (u,))
            if u % ctx.p == 0:
                raise ValueError("unit part divisible by p: %r" % (u,))
            if not isinstance(v, int):
                raise ValueError("valuation must be an int, got %r" % (v,))
        self.ctx = ctx
        self.v = v
        self.u = u

    @property
    def is_zero(self):
        return self.u == 0

    def to_fraction(self):
        """Exact rational value of the representative."""
        if self.is_zero:
            return Fraction(0)
        if self.v >= 0:
            return Fraction(self.u * self.ctx.p ** self.v)
        return Fraction(self.u, self.ctx.p ** -self.v)

    def digits(self):
        """The N significant base-p digits of the unit part, lowest first."""
        p, n = self.ctx.p, self.ctx.N
        out = []
        u = self.u
        for _ in range(n):
            out.append(u % p)
            u //= p
        return out

    def _check_ctx(self, other):
        if not isinstance(other, PadicScalar):
            return NotImplemented
        if self.ctx != other.ctx:
            raise ValueError("mixed p-adic contexts: %r vs %r" % (self.ctx, other.ctx))
        return other

    def __add__(self, other):
        other = self._check_ctx(other)
        if other is NotImplemented:
            return other
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        ctx = self.ctx
        w = min(self.v, other.v)
        s = self.u * ctx.p ** (self.v - w) + other.u * ctx.p ** (other.v - w)
        if s == 0:
            raise PrecisionLoss(
                "all %d digits cancelled in addition (p=%d)" % (ctx.N, ctx.p)
            )
        t = 0
        while s % ctx.p == 0:
            s //= ctx.p
            t += 1
        if t >= ctx.N:
            raise PrecisionLoss(
                "all %d digits cancelled in addition (p=%d)" % (ctx.N, ctx.p)
            )
        return PadicScalar(ctx, w + t, s % ctx.modulus)

    def __neg__(self):
        if self.is_zero:
            return self
        return PadicScalar(self.ctx, self.v, self.ctx.modulus - self.u)

    def __sub__(self, other):
        other = self._check_ctx(other)
        if other is NotImplemented:
            return other
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, PadicVector):
            return other.scale(self)
        other = self._check_ctx(other)
        if other is NotImplemented:
            return other
        if self.is_zero or other.is_zero:
            return self.ctx.zero()
        return PadicScalar(
            self.ctx, self.v + other.v, self.u * other.u % self.ctx.modulus
        )

    def inverse(self):
        if self.is_zero:
            raise DivisionByZero("inverse of exact zero")
        ctx = self.ctx
        return PadicScalar(ctx, -self.v, pow(self.u, -1, ctx.modulus))

    def __truediv__(self, other):
        other = self._check_ctx(other)
        if other is NotImplemented:
            return other
        return self * other.inverse()

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        if self.is_zero:
            return self.ctx.zero() if n else self.ctx.one()
        return PadicScalar(
            self.ctx, self.v * n, pow(self.u, n, self.ctx.modulus)
        )

    def __eq__(self, other):
        if not isinstance(other, PadicScalar):
            return NotImplemented
        return self.ctx == other.ctx and self.v == other.v and self.u == other.u

    def __hash__(self):
        return hash((self.ctx, self.v, self.u))

    def __repr__(self):
        if self.is_zero:
            return "PadicScalar(p=%d, zero)" % self.ctx.p
        return "PadicScalar(p=%d, v=%r, u=%d)" % (self.ctx.p, self.v, self.u)


class PadicVector:
    """Tuple of scalars sharing one context."""

    __slots__ = ("coords", "ctx")

    def __init__(self, coords, ctx=None):
        coords = tuple(coords)
        if ctx is None:
            if not coords:
                raise ValueError("empty vector needs an explicit context")
            ctx = coords[0].ctx
        for c in coords:
            if c.ctx != ctx:
                raise ValueError("mixed p-adic contexts in vector")
        self.coords = coords
        self.ctx = ctx

    @property
    def dim(self):
        return len(self.coords)

    def __iter__(self):
        return iter(self.coords)

    def __getitem__(self, i):
        return self.coords[i]

    def __len__(self):
        return len(self.coords)

    def __add__(self, other):
        if not isinstance(other, PadicVector):
            return NotImplemented
        if other.dim != self.dim:
            raise ValueError("dimension mismatch: %d vs %d" % (self.dim, other.dim))
        return PadicVector(
            tuple(a + b for a, b in zip(self.coords, other.coords)), ctx=self.ctx
        )

    def __sub__(self, other):
        if not isinstance(other, PadicVector):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return PadicVector(tuple(-a for a in self.coords), ctx=self.ctx)

    def scale(self, s):
        return PadicVector(tuple(s * a for a in self.coords), ctx=self.ctx)

    def to_fractions(self):
        return tuple(c.to_fraction() for c in self.coords)

    def __eq__(self, other):
        if not isinstance(other, PadicVector):
            return NotImplemented
        return self.ctx == other.ctx and self.coords == other.coords

    def __hash__(self):
        return hash((self.ctx, self.coords))

    def __repr__(self):
        return "PadicVector(%s)" % (", ".join(repr(c) for c in self.coords))


def scalar_to_json(a):
    v = "inf" if a.is_zero else a.v
    return {"p": a.ctx.p, "v": v, "digits": a.digits()}


# Largest |v| of a scalar that the loaders accept.  Coefficients enter the
# integer store as u*p^(v+s), so a valuation costs bits in every int built
# from them: `convert` on a model with one coefficient at v = 10^5 took
# 3.6 s and at v = 10^6 ran for minutes.
MAX_VALUATION = 2 ** 10

# loaded contexts by (p, N): the primality test runs once per (p, N)
_CONTEXTS = {}


def scalar_parts(obj, path="$"):
    """(ctx, v, u) of a JSON scalar, (ctx, INF, 0) for exact zero; digits
    are checked lowest first while the unit part is built."""
    if not isinstance(obj, dict):
        raise ParseError("scalar must be an object, got %s" % type(obj).__name__, path)
    for key in ("p", "v", "digits"):
        if key not in obj:
            raise ParseError("scalar missing key %r" % key, path)
    p = obj["p"]
    if type(p) is not int:
        raise ParseError("p must be an int, got %r" % (p,), path + ".p")
    digits = obj["digits"]
    if not isinstance(digits, list) or not digits:
        raise ParseError("digits must be a nonempty array", path + ".digits")
    ctx = _CONTEXTS.get((p, len(digits)))
    if ctx is None:
        with at_path(path + ".p"):
            ctx = _CONTEXTS[p, len(digits)] = PadicContext(p, len(digits))
    u, w = 0, 1
    for i, d in enumerate(digits):
        if type(d) is not int or not 0 <= d < p:
            raise ParseError("digit out of range for p=%d: %r" % (p, d), "%s.digits[%d]" % (path, i))
        u += d * w
        w *= p
    v = obj["v"]
    if v == "inf":
        if u:
            raise ParseError("zero scalar must have all-zero digits", path + ".digits")
        return ctx, INF, 0
    if type(v) is not int:
        raise ParseError("valuation must be int or \"inf\", got %r" % (v,), path + ".v")
    if abs(v) > MAX_VALUATION:
        raise ParseError("valuation %d exceeds the limit %d" % (v, MAX_VALUATION), path + ".v")
    if digits[0] == 0:
        raise ParseError("leading digit must be nonzero for a nonzero scalar", path + ".digits[0]")
    return ctx, v, u


def scalar_from_json(obj, path="$"):
    return PadicScalar(*scalar_parts(obj, path))


def vector_to_json(x):
    return [scalar_to_json(c) for c in x.coords]


def vector_parts(arr, path="$"):
    """(ctx, [(v, u), ...]) of a JSON vector of scalars in one context."""
    if not isinstance(arr, list) or not arr:
        raise ParseError("vector must be a nonempty array of scalars", path)
    parts = decode_items(scalar_parts, arr, path)
    ctx = parts[0][0]
    for i, (c, _, _) in enumerate(parts):
        if c is not ctx:  # `_CONTEXTS` holds one context per (p, N)
            raise ParseError("vector coordinates disagree on (p, N)", "%s[%d]" % (path, i))
    return ctx, [(v, u) for _, v, u in parts]


def vector_from_json(arr, path="$"):
    ctx, parts = vector_parts(arr, path)
    return PadicVector([PadicScalar(ctx, v, u) for v, u in parts], ctx=ctx)
