"""Difference-quotient calculus for piecewise polynomial maps on Z_p^d.

A FunctionModel is a finite family of polynomial pieces over disjoint
balls, each stored once as p^-s times an integer polynomial.  Building
models (sums, scaling, charts x = c + p^k z by a Taylor shift, composites
by Horner's rule) is integer arithmetic that cuts each coefficient of
the exact result to N digits, exactly as `PadicContext.from_fraction`
would.

Exact values are integer work too.  A point of rationals is written as
nums / L over one common denominator, and a piece p^-s P of total degree
D takes the value sum c_e nums^e L^(D - |e|) / (p^s L^D), summed on ints
with one Fraction per output coordinate (`_eval_fr`).  The symbolic
quotient polynomials are built from the store and keep its scale, and
the t = 0 quotients and `directional` evaluate them the same way.
Quotients at t != 0 and the identity checks combine these exact values
as Fractions and truncate once at the output, so every identity that
holds in Q holds bit-exactly at precision N when no coefficient overflows
the digit window.

Certified maps also have an integer evaluation core (`residues`): the
exact value mod p^M at an integral point, computed on ints from the
piece's chart polynomials.  Verdicts that only need values mod p^M or
their valuations (induced cell maps, inversion, isometry checks, the
centre values of Omega certificates, exhaustive range checks) run on it
instead of on Fractions.

Difference quotients: dq1 evaluates (f(x+ty) - f(x))/t, with the t = 0
case filled in by formal differentiation of the piece polynomial (its
unique continuous extension).  dqk iterates this through nested points,
and check_scaling evaluates the reordered variant on the nested point
that the recursive defining permutation of its arguments builds
(`_braced_tree`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import _poly
from .padic import INF, PadicScalar, PadicVector, ParseError, at_path, fraction_valuation
from .padic import vector_parts, vector_to_json
from .balls import Ball, BallIndex, ClopenRegion, ball_from_json, ball_to_json
from .balls import region_from_json, region_to_json


class OutOfDomain(ValueError):
    """Evaluation point outside the model's domain (or piece structure)."""


class CompositionUncertified(ValueError):
    """No valid composition certificate could be produced."""


class CertificateInvalid(ValueError):
    """A supplied composition certificate fails its image check."""


class NotProductPartition(ValueError):
    """curry needs a model built with explicit product structure."""


class MembershipFailure(ValueError):
    """A scaling-check argument leaves the higher-order domain."""


class CompositeTooLarge(ValueError):
    """A composite's degree bound exceeds MAX_COMPOSITE_DEGREE."""


class NonIntegralChart(ArithmeticError):
    """A piece has a chart coefficient outside Z_(p), so its values have
    no residues mod p^M."""


class FunctionModel:
    """Piecewise polynomial map from a clopen region of Z_p^d to Q_p^e.

    pieces: list of (Ball, (s, polys)), each piece given as p^-s times one
    integer dict {exponents: int} per output coordinate (e of them), with
    every coefficient already cut to N digits and s >= 0 least: the
    coefficient u*p^v is the int u*p^(v+s).  The balls must be pairwise
    disjoint and live in one space; the domain is their union.  This is
    the one checked constructor; library code that already holds a valid
    store uses the unchecked `_build`.

    Each piece is stored once (`_store`).  `pieces` (PadicVector
    coefficients), `domain` and the Fraction view `_frac` are built from
    the store on first use; no value the library computes is read from
    `_frac`.
    """

    __slots__ = (
        "d", "e", "ctx", "factors", "_store", "_pieces", "_domain", "_fracs",
        "_sym", "_charts", "_bounds", "_index", "_tables",
    )

    def __init__(self, pieces, e, factors=None):
        if not pieces:
            raise ValueError("a model needs at least one piece")
        index = BallIndex(b for b, _ in pieces)
        if index.nested:
            raise ValueError("piece balls %r and %r overlap" % index.nested[0])
        self._setup(index.ctx, index.d, e, dict(pieces))
        self._index = index
        self.factors = dict(factors) if factors else None

    @classmethod
    def _build(cls, ctx, d, e, store, domain=None):
        """Model from a store truncated to N digits on disjoint balls; unchecked."""
        self = object.__new__(cls)
        self._setup(ctx, d, e, store, domain)
        return self

    def _setup(self, ctx, d, e, store, domain=None):
        self.d, self.e, self.ctx, self.factors = d, e, ctx, None
        self._store, self._domain, self._pieces, self._fracs = store, domain, None, None
        # filled on first use: quotient and chart polynomials, image bounds,
        # piece index, residue tables
        self._sym, self._charts, self._bounds, self._index, self._tables = {}, {}, {}, None, {}

    @property
    def pieces(self):
        """(ball, {exponents: PadicVector}) per piece."""
        if self._pieces is None:
            self._pieces = tuple((b, _polys_to_coeffs(v, self.ctx)) for b, v in self._store.items())
        return self._pieces

    @property
    def domain(self):
        if self._domain is None:
            self._domain = ClopenRegion(self._store)
        return self._domain

    @property
    def _frac(self):
        """Exact rational view: ball -> one {exponents: Fraction} per coordinate."""
        if self._fracs is None:
            p = self.ctx.p
            self._fracs = {b: tuple({x: Fraction(a, p ** s) for x, a in P.items()} for P in polys)
                           for b, (s, polys) in self._store.items()}
        return self._fracs

    def piece_balls(self):
        return list(self._store)

    def nonzero_balls(self):
        """Balls of the pieces on which the map is not identically zero."""
        return [b for b, (_, polys) in self._store.items() if any(polys)]

    def min_valuation(self):
        """Least valuation of a stored coefficient; INF for the zero map."""
        p = self.ctx.p
        return min((fraction_valuation(a, p) - s for s, polys in self._store.values()
                    for P in polys for a in P.values()), default=INF)

    @property
    def _pieces_index(self):
        """BallIndex of the piece balls, built on first use."""
        if self._index is None:
            self._index = BallIndex(self._store)
        return self._index

    def _find_piece(self, frs):
        b = self._pieces_index.at_fractions(frs)
        if b is None:
            raise OutOfDomain("point %s outside the model domain" % (list(frs),))
        return b

    def chart(self, ball):
        """Chart polynomials of a piece: the piece's polynomials rewritten
        in the chart variable z, x = c + p^k z, with c = ball.ints and k
        the ball's level.  Returned as (s, polys) like the store: p^-s
        times one integer dict {exponents: int} per output coordinate;
        the constant term is p^s times the value at the centre c.
        Computed once per piece and shared by every caller (the root
        ball's chart is the stored entry itself); do not mutate.
        """
        chart = self._charts.get(ball)
        if chart is None:
            chart = self._charts[ball] = _local_coeffs(self._store[ball], ball)
        return chart

    def chart_quotient(self, ball):
        """(s, polys): the first quotient of the chart polynomials of a
        piece, p^-s times one integer polynomial per output coordinate in
        the 2d + 1 variables (z, y, t) of `_dq1_symbolic`, so that
        (Q(z + ty) - Q(z))/t = p^-s polys(z, y, t).  Not cached."""
        s, polys = self.chart(ball)
        return s, _dq1_symbolic(polys, self.d)

    def image_bound(self, ball):
        """(val, s): the exact value at the centre of a piece ball and a
        radius bound, f(ball) inside val + p^s O^e, with s the least
        valuation of a non-constant chart coefficient (INF for a constant
        piece).  Computed once per piece, like `chart`, and the same tuple
        is returned again."""
        bound = self._bounds.get(ball)
        if bound is None:
            k, local = self.chart(ball)
            p = self.ctx.p
            zero = (0,) * self.d
            val = tuple(Fraction(P.get(zero, 0), p ** k) for P in local)
            s = min((fraction_valuation(a, p) for P in local for x, a in P.items() if x != zero), default=INF)
            bound = self._bounds[ball] = (val, s - k)
        return bound

    def _table(self, ball, M):
        key = (ball, M)
        table = self._tables.get(key)
        if table is None:
            s, polys = self.chart(ball)
            table = self._tables[key] = _residue_table(ball, s, polys, M)
        return table

    def residues(self, ints, M):
        """Exact residues mod p^M of the value at an integral point.

        `ints` are integer coordinates of the point (any representatives:
        a piece at level k reads them mod p^k and its chart variable
        z = (x - c)/p^k exactly).  The value is Q(z) with Q the piece's
        chart polynomials.  When every coefficient of Q lies in Z_(p),
        reducing them mod p^M is a ring map Z_(p) -> Z/p^M, so evaluating
        on ints mod p^M gives Q(z) mod p^M exactly.  The range certificate
        of a self-map of O^d gives exactly that (image bound s >= 0 and
        an integral centre value); a piece with a coefficient outside
        Z_(p) raises NonIntegralChart when first evaluated.
        """
        ball = self._pieces_index.at(ints)
        if ball is None:
            raise OutOfDomain("point %s outside the model domain" % (list(ints),))
        mod, step, center, top, comps = self._table(ball, M)
        pows = []
        for x, c, n in zip(ints, center, top):
            z = (x - c) // step % mod
            pw = [1]
            for _ in range(n):
                pw.append(pw[-1] * z % mod)
            pows.append(pw)
        out = []
        for terms in comps:
            acc = 0
            for term, mono in terms:
                for i, n in mono:
                    term *= pows[i][n]
                acc += term
            out.append(acc % mod)
        return tuple(out)

    def _eval_fr(self, frs):
        """Exact value at a point of rationals: one Fraction per coordinate."""
        b = self._find_piece(frs)
        s, polys = self._store[b]
        L, nums = _over_common(frs)
        unit = self.ctx.p ** s
        return tuple(_value(P, nums, L, unit) for P in polys)

    def _vec(self, frs):
        return self.ctx.vector([self.ctx.from_fraction(q) for q in frs])

    def eval(self, x):
        return self._vec(self._eval_fr(x.to_fractions()))

    def _symbolic(self, ball, j):
        """The order-j quotient of this piece, flat layout, as (s, polys,
        grads, degs): p^-s times one integer polynomial per coordinate (a
        quotient step is linear with integer coefficients, so it keeps
        the store's scale), their gradients, and per coordinate a bound
        on the total degree of the gradient polynomials."""
        key = (ball, j)
        if key in self._sym:
            return self._sym[key]
        if j == 0:
            s, polys = self._store[ball]
        else:
            s, lower, _, _ = self._symbolic(ball, j - 1)
            polys = _dq1_symbolic(lower, _nvars(self.d, j - 1))
        grads = tuple(tuple(_poly.diff(P, i) for i in range(_nvars(self.d, j))) for P in polys)
        degs = tuple(max(_poly.total_degree(P) - 1, 0) for P in polys)
        self._sym[key] = (s, polys, grads, degs)
        return self._sym[key]

    def __repr__(self):
        return "FunctionModel(p=%d, d=%d, e=%d, pieces=%d)" % (
            self.ctx.p,
            self.d,
            self.e,
            len(self._store),
        )


def _nvars(d, j):
    return (2 ** j) * (d + 1) - 1


def _over_common(frs):
    """(L, nums): rationals (Fractions or ints) as nums / L over their
    least common denominator L."""
    L = math.lcm(*[q.denominator for q in frs])
    if L == 1:
        return 1, [q.numerator for q in frs]
    return L, [q.numerator * (L // q.denominator) for q in frs]


def _powers(L, D):
    """[1, L, ..., L^D], or None when L = 1."""
    if L == 1:
        return None
    pows = [1]
    for _ in range(D):
        pows.append(pows[-1] * L)
    return pows


def _value(P, nums, L, unit):
    """P(nums / L) / unit as one Fraction, the sum taken on ints."""
    if L == 1:
        return Fraction(_poly.eval_over(P, nums), unit)
    D = _poly.total_degree(P)
    return Fraction(_poly.eval_over(P, nums, _powers(L, D)), unit * L ** D)


def _dq1_symbolic(polys, n):
    """One quotient step on a polynomial tuple over n variables.

    New layout: old point block at 0..n-1, direction block at n..2n-1,
    the quotient parameter at slot 2n.
    """
    m = 2 * n + 1
    subs = [
        _poly.add(_poly.var(m, i), _poly.mul(_poly.var(m, m - 1), _poly.var(m, n + i)))
        for i in range(n)
    ]
    out = []
    for P in polys:
        shifted = _poly.subst(P, subs, m)
        base = _poly.rename(P, list(range(n)), m)
        out.append(_poly.div_var(_poly.sub(shifted, base), m - 1))
    return tuple(out)


class DQPoint:
    """Point of an iterated difference-quotient domain: (x, y, t) where
    x and y are vectors (order 1) or DQPoints of equal shape."""

    __slots__ = ("x", "y", "t")

    def __init__(self, x, y, t):
        if type(x) is not type(y):
            raise ValueError("x and y must have the same shape")
        if isinstance(x, DQPoint):
            if x.order != y.order:
                raise ValueError("x and y must have the same order")
        elif not isinstance(x, PadicVector):
            raise TypeError("x must be a PadicVector or DQPoint")
        if not isinstance(t, PadicScalar):
            raise TypeError("t must be a PadicScalar")
        self.x = x
        self.y = y
        self.t = t

    @property
    def order(self):
        return 1 if isinstance(self.x, PadicVector) else self.x.order + 1

    def __repr__(self):
        return "DQPoint(order=%d)" % self.order


def _fr_point(pt):
    if isinstance(pt, PadicVector):
        return ("leaf", pt.to_fractions())
    return ("node", _fr_point(pt.x), _fr_point(pt.y), pt.t.to_fraction())


def _fr_shift(a, b, t):
    """Componentwise a + t*b on point trees."""
    if a[0] == "leaf":
        return ("leaf", tuple(x + t * y for x, y in zip(a[1], b[1])))
    return ("node", _fr_shift(a[1], b[1], t), _fr_shift(a[2], b[2], t), a[3] + t * b[3])


def _fr_leaves(node):
    if node[0] == "leaf":
        yield node[1]
    else:
        yield from _fr_leaves(node[1])
        yield from _fr_leaves(_fr_shift(node[1], node[2], node[3]))


def _fr_flatten(node):
    if node[0] == "leaf":
        return list(node[1])
    return _fr_flatten(node[1]) + _fr_flatten(node[2]) + [node[3]]


def _fr_order(node):
    return 0 if node[0] == "leaf" else 1 + _fr_order(node[1])


def dq_domain_contains(f, pt):
    """Membership of a (possibly nested) point in the quotient domain."""
    node = pt if isinstance(pt, tuple) else _fr_point(pt)
    return all(f.domain.contains_fractions(leaf) for leaf in _fr_leaves(node))


def _common_piece(f, leaves):
    ball = None
    for leaf in leaves:
        b = f._find_piece(leaf)
        if ball is None:
            ball = b
        elif b != ball:
            raise OutOfDomain(
                "zero quotient parameter needs all evaluation points in one piece "
                "ball; found points in %r and %r" % (ball, b)
            )
    return ball


def _dqk_fr(f, node):
    if node[0] == "leaf":
        return f._eval_fr(node[1])
    _, a, b, t = node
    if t != 0:
        va = _dqk_fr(f, a)
        vb = _dqk_fr(f, _fr_shift(a, b, t))
        return tuple((q - r) / t for q, r in zip(vb, va))
    j = _fr_order(a)
    ball = _common_piece(f, _fr_leaves(a))
    s, _, grads, degs = f._symbolic(ball, j)
    # sum_i dP/dx_i (xs / L) * ys_i / M, over the one denominator p^s L^D M
    L, xs = _over_common(_fr_flatten(a))
    M, ys = _over_common(_fr_flatten(b))
    unit = f.ctx.p ** s * M
    out = []
    for grad, D in zip(grads, degs):
        pows = _powers(L, D)
        total = 0
        for G, y in zip(grad, ys):
            if y:
                total += _poly.eval_over(G, xs, pows) * y
        out.append(Fraction(total, unit * L ** D))
    return tuple(out)


def dqk(f, pt, k):
    """Order-k difference quotient at a nested point."""
    if pt.order != k:
        raise ValueError("point has order %d, expected %d" % (pt.order, k))
    return f._vec(_dqk_fr(f, _fr_point(pt)))


def dq1(f, pt):
    """First difference quotient; formal derivative at t = 0."""
    return dqk(f, pt, 1)


def directional(f, x, dirs):
    """Iterated formal directional derivative of the piece at x."""
    if not dirs:
        raise ValueError("directional needs at least one direction")
    frs = x.to_fractions()
    ball = f._find_piece(frs)
    s, cur = f._store[ball]
    # each direction is vs / M with integer vs: differentiate along vs and
    # fold M into the one denominator of the value
    unit = f.ctx.p ** s
    for v in dirs:
        M, vs = _over_common(v.to_fractions())
        unit *= M
        nxt = []
        for P in cur:
            acc = {}
            for i, c in enumerate(vs):
                if c:
                    acc = _poly.add(acc, _poly.scale(_poly.diff(P, i), c))
            nxt.append(acc)
        cur = tuple(nxt)
    L, nums = _over_common(frs)
    return f._vec(tuple(_value(P, nums, L, unit) for P in cur))


@dataclass
class CheckReport:
    lhs: object
    rhs: object
    equal: bool
    limit: object = None
    limit_consistent: object = None


def _local_coeffs(entry, ball):
    """A stored piece rewritten in chart coordinates z, x = c + p^k z:
    an integer Taylor shift, which keeps the scale.

    The root ball (level 0, so centre 0) is its own chart: the stored
    entry comes back unchanged.  Elsewhere each monomial expands by the
    binomial rows x_i^n = sum_f C(n, f) c_i^(n-f) p^(kf) z_i^f, built once
    per variable and exponent; zero sums are dropped.
    """
    if not ball.k:
        return entry
    s, polys = entry
    step = ball.ctx.p ** ball.k
    rows = [{} for _ in ball.ints]
    out = []
    for P in polys:
        acc = {}
        for exps, a in P.items():
            parts = []
            for c, n, cache in zip(ball.ints, exps, rows):
                row = cache.get(n)
                if row is None:
                    row = cache[n] = [(f, w) for f in range(n + 1)
                                      if (w := math.comb(n, f) * c ** (n - f) * step ** f)]
                parts.append(row)
            for terms in itertools.product(*parts):
                b = a
                for _, w in terms:
                    b *= w
                x = tuple(f for f, _ in terms)
                acc[x] = acc.get(x, 0) + b
        out.append({x: b for x, b in acc.items() if b})
    return s, tuple(out)


def _units(d):
    """Exponent tuples of the d coordinate monomials x_i."""
    return [tuple(int(j == i) for j in range(d)) for i in range(d)]


def _truncate(entry, ctx):
    """An exact piece (s, polys) with every coefficient a/p^s cut to N
    digits as `PadicContext.from_fraction` cuts it, at the least scale."""
    s, polys = entry
    p = ctx.p
    vals = tuple({x: (a, fraction_valuation(a, p)) for x, a in P.items()} for P in polys)
    low = max([0] + [s - t for V in vals for _, t in V.values()])
    return low, tuple({x: a // p ** t % ctx.modulus * p ** (t + low - s) for x, (a, t) in V.items()}
                      for V in vals)


def _subst(outer, inner, p, nvars):
    """outer(inner) on stored pieces, exactly: with D the total degree of
    G, p^-s G(p^-r F) = p^-(s + rD) sum_a G_a p^(r(D - |a|)) F^a."""
    s, G = outer
    r, F = inner
    D = max((sum(exps) for P in G for exps in P), default=0)
    return s + r * D, tuple(_poly.subst({x: a * p ** (r * (D - sum(x))) for x, a in P.items()}, F, nvars)
                            for P in G)


def _residue_table(ball, s, polys, M):
    """Chart polynomials p^-s polys reduced mod p^M: (p^M, p^k, centre,
    top exponent per variable, terms per polynomial as (coefficient,
    ((var, exp), ...)))."""
    p = ball.ctx.p
    mod = p ** M
    unit = p ** s
    top = [0] * ball.d
    comps = []
    for P in polys:
        terms = []
        for exps, a in P.items():
            c, rem = divmod(a, unit)
            if rem:
                raise NonIntegralChart(
                    "chart coefficient %s of piece %r is not %d-integral"
                    % (Fraction(a, unit), ball, p)
                )
            r = c % mod
            if r:
                terms.append((r, tuple((i, n) for i, n in enumerate(exps) if n)))
                top = [max(t, n) for t, n in zip(top, exps)]
        comps.append(tuple(terms))
    return mod, p ** ball.k, ball.ints, tuple(top), tuple(comps)


def _image_in_ball(f, ball, targets):
    """Certify that f maps a piece ball into the union of the disjoint
    target balls; returns (ok, method, witness).

    The image lies in val + p^s O^e (`FunctionModel.image_bound`).  The
    centre value must lie in some target, its home; when s reaches the
    home's level the whole image does.  Otherwise the residues decide.
    """
    val, s = f.image_bound(ball)
    home = next((b for b in targets if b.contains_fractions(val)), None)
    if home is None:
        return False, "center", tuple(val)
    if s >= home.k:
        return True, "bound", None
    if s < 0:
        return False, "unbounded", None
    # integral chart coefficients make f 1-Lipschitz in the chart variable,
    # which loses ball.k digits in ambient terms: sampling must be fine
    # enough that target membership survives a p^m perturbation.  Here
    # s >= 0 and the centre value lies in a target, so every chart
    # coefficient is integral, and membership of an integral value in
    # balls of level at most top reads only its residues mod p^top: the
    # residue test is the exact one.
    top = max(b.k for b in targets)
    for ints in ball.level_reps(ball.k + top):
        vals = f.residues(ints, top)
        if not any(b.contains_ints(vals) for b in targets):
            return False, "exhaustive", ints
    return True, "exhaustive", None


# Largest degree bound of a composite that `compose` builds.  The bound
# of a piece is deg(outer piece) * deg(inner piece), and substitution
# cost grows steeply with it: on a 2-vCPU Xeon with Python 3.11, a dense
# d = 2 composite of degree 64 takes about 1.5 s, of degree 100 about
# 8 s and of degree 144 about 30 s.  The seeded suites and golden cases
# reach 9.
MAX_COMPOSITE_DEGREE = 64


def _degree(entry):
    """Total degree of a stored piece."""
    return max(map(_poly.total_degree, entry[1]))


def compose(g, f, certificate):
    """Composite model g∘f on f's partition, after verifying that the
    certificate maps every piece of f into the stated piece of g.

    Raises CompositeTooLarge, before any image check or substitution,
    when some piece's degree bound exceeds MAX_COMPOSITE_DEGREE."""
    if f.e != g.d:
        raise ValueError("codomain of f (%d) does not match domain of g (%d)" % (f.e, g.d))
    for ball, entry in f._store.items():
        if ball not in certificate:
            raise CertificateInvalid("no certificate entry for piece %r" % (ball,))
        target = certificate[ball]
        if target not in g._store:
            raise CertificateInvalid("certificate target %r is not a piece of g" % (target,))
        outer, inner = _degree(g._store[target]), _degree(entry)
        if outer * inner > MAX_COMPOSITE_DEGREE:
            raise CompositeTooLarge(
                "composite of degree %d x %d = %d exceeds the limit %d"
                % (outer, inner, outer * inner, MAX_COMPOSITE_DEGREE)
            )
    store = {}
    for ball in f._store:
        target = certificate[ball]
        ok, method, witness = _image_in_ball(f, ball, (target,))
        if not ok:
            raise CertificateInvalid(
                "piece %r does not map into %r (%s check, witness %r)"
                % (ball, target, method, witness)
            )
        store[ball] = _truncate(_subst(g._store[target], f._store[ball], f.ctx.p, f.d), f.ctx)
    return FunctionModel._build(f.ctx, f.d, g.e, store, f._domain)


def _polys_to_coeffs(entry, ctx):
    """PadicVector coefficients {exponents: vector} of a stored piece."""
    s, polys = entry
    by_exp = {}
    for j, P in enumerate(polys):
        for exps, a in P.items():
            t = fraction_valuation(a, ctx.p)
            by_exp.setdefault(exps, [ctx.zero()] * len(polys))[j] = ctx.from_unit(t - s, a // ctx.p ** t)
    return {exps: PadicVector(vals, ctx=ctx) for exps, vals in by_exp.items()}


def find_certificate(g, f):
    """Search a composition certificate, refining f's pieces as needed.

    Returns (f_refined, certificate).  Raises CompositionUncertified when
    some piece cannot be certified even at the finest representable level.
    """
    queue = list(f._store.items())
    done = {}
    cert = {}
    while queue:
        ball, entry = queue.pop()
        sub = FunctionModel._build(f.ctx, f.d, f.e, {ball: entry})
        val, _ = sub.image_bound(ball)
        target = g._pieces_index.at_fractions(val)
        if target is None:
            raise CompositionUncertified(
                "image point %s of piece %r lies outside the domain of g"
                % (list(val), ball)
            )
        ok, _, _ = _image_in_ball(sub, ball, (target,))
        if ok:
            done[ball] = entry
            cert[ball] = target
            continue
        if ball.k >= ball.ctx.N:
            raise CompositionUncertified(
                "piece %r cannot be certified at the finest level" % (ball,)
            )
        for child in ball.children():
            queue.append((child, entry))
    return FunctionModel._build(f.ctx, f.d, f.e, done), cert


def check_chain_rule(f, g, pt):
    """Compare dq1 of a certified composite against the chained quotients.

    Both sides run on exact rationals derived from the stored coefficients,
    truncating only in the report, so the identity is checked bit for bit.
    """
    if pt.order != 1:
        raise ValueError("chain rule check takes an order-1 point")
    refined, cert = find_certificate(g, f)
    h = compose(g, refined, cert)
    tree = _fr_point(pt)
    lhs_fr = _dqk_fr(h, tree)
    fx = refined._eval_fr(list(pt.x.to_fractions()))
    fdq = _dqk_fr(refined, tree)
    rhs_fr = _dqk_fr(g, ("node", ("leaf", fx), ("leaf", fdq), pt.t.to_fraction()))
    return CheckReport(lhs=h._vec(lhs_fr), rhs=g._vec(rhs_fr), equal=lhs_fr == rhs_fr)


def scaling_exponents(k):
    """Exponent data (i per vector, j per scalar, l) of the rescaling
    symmetry, generated by the doubling induction from the base case
    i = (0, 1), j = (0), l = 1."""
    if k < 1:
        raise ValueError("order must be >= 1")
    i, j, ell = [0, 1], [0], 1
    for _ in range(k - 1):
        i = [2 * a for a in i] + [2 * a + 1 for a in i]
        j = [2 * b + 1 for b in j] + [2 * b for b in j] + [0]
        ell = 2 * ell + 1
    return i, j, ell


def _braced_tree(xs, ss):
    """Fraction tree of a braced argument pack (tuples of Fractions)."""
    if len(xs) == 2:
        return ("node", ("leaf", tuple(xs[0])), ("leaf", tuple(xs[1])), ss[0])
    h = len(xs) // 2
    return (
        "node",
        _braced_tree(xs[:h], ss[: h - 1]),
        _braced_tree(xs[h:], ss[h - 1 : 2 * h - 2]),
        ss[2 * h - 2],
    )


def check_scaling(f, k, xs, pvec, t):
    """Verify f^{k}(x, t*p) = t^(-l) f^{k}(t^i x, t^-j p) exactly.

    The rescaled argument pack is built on exact rationals (a truncated
    power of t would shift the evaluation points), both packs are
    membership-checked, and the two sides compared as exact rationals.
    """
    if t.is_zero:
        raise ValueError("the scaling factor t must be nonzero")
    i, j, ell = scaling_exponents(k)
    if len(xs) != len(i) or len(pvec) != len(j):
        raise ValueError("expected %d vectors and %d scalars for order %d" % (len(i), len(j), k))
    tf = t.to_fraction()
    xs_fr = [x.to_fractions() for x in xs]
    ss_fr = [s.to_fraction() for s in pvec]
    lhs_tree = _braced_tree(xs_fr, [tf * q for q in ss_fr])
    rhs_tree = _braced_tree(
        [tuple(tf ** a * c for c in x) for x, a in zip(xs_fr, i)],
        [tf ** (-b) * q for q, b in zip(ss_fr, j)],
    )
    if not dq_domain_contains(f, lhs_tree):
        raise MembershipFailure("the unscaled argument pack leaves the order-%d domain" % k)
    if not dq_domain_contains(f, rhs_tree):
        raise MembershipFailure("the rescaled argument pack leaves the order-%d domain" % k)
    lhs_fr = _dqk_fr(f, lhs_tree)
    rhs_raw = _dqk_fr(f, rhs_tree)
    factor = tf ** (-ell)
    rhs_fr = tuple(factor * q for q in rhs_raw)
    return CheckReport(lhs=f._vec(lhs_fr), rhs=f._vec(rhs_fr), equal=lhs_fr == rhs_fr)


def refine(f, balls):
    """(model, owner): f on the common refinement of its pieces and the
    disjoint balls, pieces in the order (piece of f, ball), and owner
    mapping each piece ball of the model to the ball that holds it.

    Two balls are nested or disjoint, so two index lookups per ball
    decide the refinement: a piece of f inside one of the balls is kept
    whole and owned by it, and a ball strictly inside a piece of f is a
    piece of its own, owned by itself.  The balls inside one piece keep
    their input order."""
    inside = {}
    for bg in balls:
        bf = f._pieces_index.container(bg)
        if bf is not None and bf.k < bg.k:
            inside.setdefault(bf, []).append(bg)
    holders = BallIndex(balls)
    store, owner = {}, {}
    for bf, entry in f._store.items():
        holder = holders.container(bf)
        if holder is not None:
            store[bf], owner[bf] = entry, holder
        for bg in inside.get(bf, ()):
            store[bg], owner[bg] = entry, bg
    if not store:
        raise OutOfDomain("the two models have disjoint domains")
    return FunctionModel._build(f.ctx, f.d, f.e, store), owner


def model_add(f, g):
    """f + g on the common refinement, each coefficient of the exact sum
    truncated to N digits."""
    if f.e != g.e:
        raise ValueError("codomain mismatch")
    rf, owner = refine(f, g.piece_balls())
    p = f.ctx.p
    store = {}
    for b, (s1, P1) in rf._store.items():
        s2, P2 = g._store[owner[b]]
        s = max(s1, s2)
        polys = tuple(_poly.add(_poly.scale(A, p ** (s - s1)), _poly.scale(B, p ** (s - s2)))
                      for A, B in zip(P1, P2))
        store[b] = _truncate((s, polys), f.ctx)
    return FunctionModel._build(f.ctx, f.d, f.e, store)


def model_scale(f, s):
    """s * f for a PadicScalar s, each coefficient of the exact product
    truncated to N digits."""
    u, v = (0, 0) if s.is_zero else (s.u, s.v)
    store = {}
    for b, (k, polys) in f._store.items():
        # s * A/p^k = u*A / p^(k - v)
        polys = tuple(_poly.scale(P, u * f.ctx.p ** max(v - k, 0)) for P in polys)
        store[b] = _truncate((max(k - v, 0), polys), f.ctx)
    return FunctionModel._build(f.ctx, f.d, f.e, store, f._domain)


def add_identity(f, sign=1):
    """f + id (sign 1), or f plus p^N - 1 times id (sign -1: the N-digit
    truncation of -id), cut to N digits as model_add cuts the sum.  Every
    store is already cut to N digits at its least scale, so only the
    coefficient of x_i in coordinate i changes.  Pieces keep the order of
    f, which is model_add's order when the domain is one ball.  Where the
    scale stays, a chart f has computed carries over, as the Taylor shift
    is linear: coordinate i gains delta (c_i + p^k z_i), delta the change
    of its x_i coefficient."""
    if f.d != f.e:
        raise ValueError("codomain mismatch")
    c = 1 if sign > 0 else f.ctx.modulus - 1
    units, zero = _units(f.d), (0,) * f.d
    g = FunctionModel._build(f.ctx, f.d, f.e, {}, f._domain)
    for b, (s, polys) in f._store.items():
        summed = tuple(_poly.add(P, {x: c * f.ctx.p ** s}) for P, x in zip(polys, units))
        t, new = g._store[b] = _truncate((s, summed), f.ctx)
        if b in f._charts and t == s:
            deltas = (Q.get(x, 0) - P.get(x, 0) for P, Q, x in zip(polys, new, units))
            g._charts[b] = (s, tuple(_poly.add(C, {zero: delta * ci, x: delta * f.ctx.p ** b.k})
                                     for C, delta, ci, x in zip(f._charts[b][1], deltas, b.ints, units)))
    return g


def identity_model(region):
    """The identity map of a region, one linear piece per ball."""
    ctx, d = region.ctx, region.d
    polys = tuple({x: 1} for x in _units(d))
    return FunctionModel._build(ctx, d, d, {b: (0, polys) for b in region.balls}, region)


def rescaled_chart(f, ball):
    """f seen in the chart of a ball, z -> f(c + p^k z)/p^k: a model on the
    unit ball whose pieces are the chart images of the pieces meeting it,
    in f's order.  Those are the piece holding the ball, or else the
    pieces of level >= k whose centres the ball contains."""
    ctx = f.ctx
    step = ctx.p ** ball.k
    holder = f._pieces_index.container(ball)
    if holder is not None:
        meeting = [holder]
    else:
        meeting = [pb for pb in f._store if pb.k > ball.k and ball.contains_ints(pb.ints)]
    store = {}
    for pb in meeting:
        fine = pb if holder is None else ball
        ints = tuple((i - c) // step for i, c in zip(fine.ints, ball.ints))
        s, polys = _local_coeffs(f._store[pb], ball)
        store[Ball.from_ints(ctx, ints, fine.k - ball.k)] = _truncate((s + ball.k, polys), ctx)
    return FunctionModel._build(ctx, f.d, f.e, store)


def check_eval_derivative(gamma, eta, x, y, t):
    """Difference quotient of the evaluation map (gamma, x) -> gamma(x)
    in both arguments against its closed form."""
    if t.is_zero:
        raise ValueError("t must be nonzero here")
    moved = model_add(gamma, model_scale(eta, t))
    xf = x.to_fractions()
    tf = t.to_fraction()
    shifted = tuple(a + tf * b for a, b in zip(xf, y.to_fractions()))
    lhs_fr = tuple(
        (u - v) / tf for u, v in zip(moved._eval_fr(shifted), gamma._eval_fr(xf))
    )
    dq = _dqk_fr(gamma, _fr_point(DQPoint(x, y, t)))
    eta_val = eta._eval_fr(shifted)
    rhs_fr = tuple(a + b for a, b in zip(dq, eta_val))
    return CheckReport(
        lhs=gamma._vec(lhs_fr), rhs=gamma._vec(rhs_fr), equal=lhs_fr == rhs_fr
    )


def check_composition_derivative(gamma, eta, gamma1, eta1, t, x):
    """Difference quotient of (gamma, eta) -> gamma∘eta at a sample point,
    against the closed form; the t = 0 limit form is checked against
    directional() as an independent route."""
    if t.is_zero:
        raise ValueError("t must be nonzero here")
    tf = t.to_fraction()
    xf = x.to_fractions()
    eta_x = eta._eval_fr(xf)
    eta1_x = eta1._eval_fr(xf)
    moved_eta = tuple(a + tf * b for a, b in zip(eta_x, eta1_x))
    moved_gamma = model_add(gamma, model_scale(gamma1, t))
    lhs_fr = tuple(
        (u - v) / tf
        for u, v in zip(moved_gamma._eval_fr(moved_eta), gamma._eval_fr(eta_x))
    )
    ex = gamma._vec(eta_x)
    e1x = gamma._vec(eta1_x)
    dq = _dqk_fr(gamma, _fr_point(DQPoint(ex, e1x, t)))
    rhs_fr = tuple(a + b for a, b in zip(dq, gamma1._eval_fr(moved_eta)))
    # limit form: formal derivative route vs directional(), both exact
    dq0 = _dqk_fr(gamma, _fr_point(DQPoint(ex, e1x, gamma.ctx.zero())))
    limit_fr = tuple(a + b for a, b in zip(dq0, gamma1._eval_fr(eta_x)))
    dir_route = directional(gamma, ex, [e1x])
    g1_route = gamma._vec(gamma1._eval_fr(eta_x))
    limit_vec = gamma._vec(limit_fr)
    limit_ok = limit_vec == dir_route + g1_route
    return CheckReport(
        lhs=gamma._vec(lhs_fr),
        rhs=gamma._vec(rhs_fr),
        equal=lhs_fr == rhs_fr,
        limit=limit_vec,
        limit_consistent=limit_ok,
    )


def product_model(pairs, e):
    """Model on a product domain U x V from (ball_u, ball_v, (s, polys))
    triples, each store entry as `FunctionModel` takes it; factor balls are
    refined to a common level so every piece is a genuine ball of the
    product space, and the pieces of one triple share its entry."""
    pieces = []
    factors = {}
    for bu, bv, entry in pairs:
        ctx = bu.ctx
        k = max(bu.k, bv.k)
        for su in _subdivide(bu, k):
            for sv in _subdivide(bv, k):
                ints = su.ints + sv.ints
                piece = Ball.from_ints(ctx, ints, k)
                pieces.append((piece, entry))
                factors[piece] = (su, sv)
    return FunctionModel(pieces, e, factors)


def _subdivide(ball, k):
    if k == ball.k:
        return [ball]
    out = [ball]
    while out[0].k < k:
        out = [c for b in out for c in b.children()]
    return out


def curry(f, x):
    """Freeze the U-argument of a product model, yielding a model on V."""
    if f.factors is None:
        raise NotProductPartition("model was not built with product structure")
    xf = x.to_fractions()
    chosen = [(b, f.factors[b][1]) for b in f._store if f.factors[b][0].contains_fractions(xf)]
    if not chosen:
        raise OutOfDomain("x lies outside the U factor of the product domain")
    d2 = chosen[0][1].d
    p = f.ctx.p
    # x = X/p^r with integer X, and z = p^-r (p^r z): one common scale
    r = max([0] + [-c.v for c in x.coords if not c.is_zero])
    subs = [_poly.const(d2, int(q * p ** r)) for q in xf] + [{u: p ** r} for u in _units(d2)]
    store = {bv: _truncate(_subst(f._store[b], (r, subs), p, d2), f.ctx) for b, bv in chosen}
    return FunctionModel._build(f.ctx, d2, f.e, store)


def model_to_json(f):
    pieces = []
    for b, coeffs in f.pieces:
        poly = [
            {"exps": list(exps), "coef": vector_to_json(vec)}
            for exps, vec in sorted(coeffs.items())
        ]
        pieces.append({"ball": ball_to_json(b), "poly": poly})
    out = {"domain": region_to_json(f.domain), "codim": f.e, "pieces": pieces}
    if f.factors is not None:
        out["product"] = [
            {
                "ball": ball_to_json(b),
                "u": ball_to_json(bu),
                "v": ball_to_json(bv),
            }
            for b, (bu, bv) in sorted(
                f.factors.items(), key=lambda kv: (kv[0].k, kv[0].ints)
            )
        ]
    return out


# Largest total degree, and so largest exponent, of a monomial that
# model_from_json accepts: evaluation, charts and composites (whose degree
# is the product of the factors') cost more with it, without bound.
MAX_DEGREE = 16

# Largest number of pieces that model_from_json accepts.  Loading and
# `wp mul`, whose common refinement (`refine`) makes two index lookups per
# ball, grow about linearly with the count: on a 2-vCPU Xeon with Python
# 3.11, 4096 level-12 pieces of Z_2 load in about 0.14 s, and two such
# maps multiply in about 2.4 s (two 2048-piece maps in about 1.1 s),
# spent in about equal parts on certifying the two maps, composing them
# and writing the JSON.  The golden cases and benchmark workloads load at
# most 25.
MAX_PIECES = 4096

# Largest codim that model_from_json accepts: every piece holds one
# polynomial per output coordinate, so memory grows with codim times the
# piece count whatever the file holds (62 MB for one empty piece at
# codim 400000).  The golden cases and benchmark workloads use at most 2.
MAX_CODIM = 64


def _piece_from_json(entry, path, e):
    """(ball, store entry) of one model piece, built from the decoded (v, u)
    of each coefficient; the checks across pieces are left to the caller."""
    if not isinstance(entry, dict) or "ball" not in entry:
        raise ParseError("piece must be an object with a ball", path)
    ball = ball_from_json(entry["ball"], path + ".ball")
    poly = entry.get("poly", [])
    if not isinstance(poly, list):
        raise ParseError("poly must be an array of monomials", path + ".poly")
    coeffs = {}
    for j, mono in enumerate(poly):
        mpath = "%s.poly[%d]" % (path, j)
        if not isinstance(mono, dict):
            raise ParseError("monomial must be an object with exps and coef", mpath)
        exps = mono.get("exps")
        if not (isinstance(exps, list) and len(exps) == ball.d
                and all(type(n) is int and n >= 0 for n in exps)):
            raise ParseError("exps must be %d nonnegative ints, got %r" % (ball.d, exps), mpath + ".exps")
        if sum(exps) > MAX_DEGREE:
            raise ParseError("monomial degree %d exceeds the limit %d" % (sum(exps), MAX_DEGREE),
                             mpath + ".exps")
        ctx, parts = vector_parts(mono.get("coef"), mpath + ".coef")
        if len(parts) != e or ctx != ball.ctx:
            raise ParseError("coefficient must be %d scalars in %r" % (e, ball.ctx), mpath + ".coef")
        coeffs[tuple(exps)] = parts
    s = max([0] + [-v for parts in coeffs.values() for v, u in parts if u])
    polys = tuple({x: parts[j][1] * ball.ctx.p ** (parts[j][0] + s) for x, parts in coeffs.items()
                   if parts[j][1]} for j in range(e))
    return ball, (s, polys)


def model_from_json(obj, path="$"):
    if not isinstance(obj, dict) or "pieces" not in obj or "codim" not in obj:
        raise ParseError("model must be an object with codim and pieces", path)
    e = obj["codim"]
    if type(e) is not int or e < 1:
        raise ParseError("codim must be a positive int", path + ".codim")
    if e > MAX_CODIM:
        raise ParseError("codim %d exceeds the limit %d" % (e, MAX_CODIM), path + ".codim")
    if not isinstance(obj["pieces"], list):
        raise ParseError("pieces must be an array", path + ".pieces")
    count = len(obj["pieces"])
    if count > MAX_PIECES:
        raise ParseError("%d pieces exceed the limit %d" % (count, MAX_PIECES), path + ".pieces")
    pieces = [
        _piece_from_json(entry, "%s.pieces[%d]" % (path, i), e)
        for i, entry in enumerate(obj["pieces"])
    ]
    factors = None
    if "product" in obj:
        if not isinstance(obj["product"], list):
            raise ParseError("product must be an array", path + ".product")
        factors = {}
        for i, entry in enumerate(obj["product"]):
            fpath = "%s.product[%d]" % (path, i)
            if not isinstance(entry, dict):
                raise ParseError("product entry must be an object with ball, u and v", fpath)
            ball, bu, bv = (
                ball_from_json(entry.get(key), "%s.%s" % (fpath, key)) for key in ("ball", "u", "v")
            )
            factors[ball] = (bu, bv)
    with at_path(path):
        model = FunctionModel(pieces, e, factors)
    # each coefficient shares its ball's context; every ball, with
    # coefficients or without, shares the model's
    for i, (b, _) in enumerate(pieces):
        if b.ctx != model.ctx:
            raise ParseError("piece balls disagree on (p, N)", "%s.pieces[%d].ball" % (path, i))
    if "domain" in obj:
        declared = region_from_json(obj["domain"], path + ".domain")
        if declared != model.domain:
            raise ParseError("declared domain disagrees with the piece balls", path + ".domain")
    return model
