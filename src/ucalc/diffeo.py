"""Certified diffeomorphisms of the unit ball and compactly supported maps.

A BallEndo is a piecewise polynomial self-map of O^d with a verified range
certificate.  An Omega certificate additionally bounds the displacement
gamma - id: all its values and all its first difference quotients stay
inside the open half-radius ball.  That bound makes gamma an isometric
bijection, so inverses come from plain fixed-point iteration and every
sub-ball pulls back to a ball of the same level.

Certification is exact.  `certify_omega` decides the bound from each
piece's chart polynomials (or its stored coefficients, when they pass):
the least valuation of the Mahler coefficients of its first quotient,
the centre values, and the congruences of centre values between nearby
pieces.  A map passes exactly when the bound holds, and a failure
carries a failing (x, y, t) instead of a guess.

Maps supported on finitely many balls inside a larger clopen region are
handled by rescaling each supported ball onto the unit ball and
certifying the chart copy.

Every sampling loop here (inversion, isometry checks, induced cell maps)
and the centre values of certification run on the integer core
`FunctionModel.residues`, one call per list of points, with the verdicts
of exact evaluation: the range certificate gives the pieces p-integral
chart coefficients, reduction Z_(p) -> Z/p^M is a ring map, and each
loop picks M so that its valuation test mod p^M is the exact test.
"""

import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction

from . import _poly
from .balls import Ball, ClopenRegion
from .calculus import (
    CertificateInvalid,
    CompositionUncertified,
    _image_in_ball,
    add_identity,
    compose,
    find_certificate,
    identity_model,
    model_add,
    refine,
    rescaled_chart,
)
from .padic import INF, fraction_valuation


class NotCertified(ValueError):
    """Certification found a concrete violation; witness is the failing
    (x, y, t) triple in the coordinates of the checked ball."""

    def __init__(self, msg, witness=None):
        super().__init__(msg)
        self.witness = witness


class IterationBudgetExceeded(RuntimeError):
    """Fixed-point inversion ran past its guaranteed step count."""


def halfball_valuation(p):
    """Least valuation v with p**-v < 1/2."""
    return 2 if p == 2 else 1


class BallEndo:
    """Self-map of the unit ball O^d with a verified range certificate.

    The model's domain must be the whole unit ball; maps of smaller balls
    are handled through their charts (see diffc_membership).
    """

    __slots__ = ("gamma", "sigma", "ball", "ctx", "d")

    def __init__(self, gamma):
        if gamma.d != gamma.e:
            raise ValueError(
                "a self-map needs matching dimensions, got d=%d, e=%d"
                % (gamma.d, gamma.e)
            )
        p, d, pieces = gamma.ctx.p, gamma.d, gamma.piece_balls()
        top = max(b.k for b in pieces)
        # disjoint balls in O^d cover it exactly when their volumes add up to 1
        if sum(p ** (d * (top - b.k)) for b in pieces) != p ** (d * top):
            raise ValueError("the model domain must be the unit ball O^d")
        ball = Ball.from_ints(gamma.ctx, (0,) * d, 0)
        for piece in pieces:
            ok, method, witness = _image_in_ball(gamma, piece, ball)
            if not ok:
                raise ValueError(
                    "range certificate failed on piece %r (%s check, witness %r)"
                    % (piece, method, witness)
                )
        self.gamma = gamma
        self.sigma = add_identity(gamma, -1)
        self.ball = ball
        self.ctx = gamma.ctx
        self.d = gamma.d

    @classmethod
    def from_displacement(cls, sigma):
        """Build id + sigma and certify its range."""
        return cls(add_identity(sigma))

    def __repr__(self):
        return "BallEndo(p=%d, d=%d, pieces=%d)" % (
            self.ctx.p,
            self.d,
            len(self.gamma.piece_balls()),
        )


@dataclass(frozen=True)
class OmegaCertificate:
    """Proof record that the displacement and all its first quotients
    have valuation >= v_min, i.e. land in the open half-radius ball, as
    `certify_omega` decides."""

    v_min: int


@dataclass(frozen=True)
class CertifiedDiffeo:
    endo: BallEndo
    cert: OmegaCertificate
    # induced_level_map results by level; the map is fixed, so they never go stale
    induced_cache: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def gamma(self):
        return self.endo.gamma


def certify_omega(endo):
    """Decide whether the displacement sigma and all its first difference
    quotients have valuation >= v_min on O^d: return the certificate, or
    raise NotCertified with a failing (x, y, t).

    The bound covers sigma(x) for x in O^d and (sigma(x + ty) - sigma(x))/t
    for x, y in O^d and t in O, the chart derivative along y at t = 0.
    Write a piece B of sigma at level k with centre c as
    sigma(c + p^k z) = p^-s Q_B(z) (`FunctionModel.chart`), and
    P_B(z, y, t) = (Q_B(z + ty) - Q_B(z))/t (`chart_quotient`).  Three
    conditions, checked in this order:

    1. Same-piece quotients: w_B - s >= v_min + k, with w_B the least
       valuation of a Mahler coefficient of P_B, its least valuation on
       Z_p^(2d+1), at the box point K* (`_image_in_ball`).
    2. Values: every centre value sigma(c) is 0 mod p^v_min.
    3. Cross-piece quotients: for every j < k_max, the pieces of level
       > j whose centres agree mod p^j have centre values congruent mod
       p^(v_min + j).

    The conditions are necessary.  (1) For integral z, y, t' the point
    x = c + p^k z with t = p^k t' keeps x + ty = c + p^k (z + t'y) in B,
    and the quotient there is p^-(k+s) P_B(z, y, t') (the derivative when
    t' = 0).  So K* = (z*, y*, t*) gives the failing triple x = c + p^k z*,
    y = y*, t = p^k t* of valuation w_B - s - k.  (2) The value at c.
    (3) For a centre c' whose value disagrees with that of the first
    centre c of its group, the quotient at x = c, y = (c' - c)/p^j,
    t = p^j is (sigma(c') - sigma(c))/p^j.

    They are sufficient.  (a) x and x + ty in one piece B: with
    x = c + p^k z and t = p^k t', an integral t' gives the quotient
    p^-(k+s) P_B(z, y, t') of valuation >= w_B - s - k >= v_min by 1.
    Otherwise t' = u p^-j with u a unit and j > 0, ty in p^k O^d forces
    y = p^j y', and the quotient is p^-(k+s) p^j P_B(z, y', u), larger
    still.  (b) Values: for x = c + p^k z in B, sigma(x) - sigma(c) is p^k
    times the quotient at (c, z, p^k), so by (a) it has valuation
    >= v_min + k, and sigma(c) is 0 mod p^v_min by 2.  (c) x in B and
    x' = x + ty in another piece B' of level k' and centre c'.  Disjoint
    balls have delta = v(c' - c) < min(k, k'), so v(ty) = v(x' - x) =
    delta and v(t) <= delta.  Both pieces have level > delta and centres
    that agree mod p^delta, so by 3 sigma(c') - sigma(c) has valuation
    >= v_min + delta, and by (b) sigma(x) - sigma(c) and
    sigma(x') - sigma(c') have valuation >= v_min + min(k, k') > v_min +
    delta.  Dividing by t keeps valuation >= v_min.

    So the decision is exact at every piece level.  Shortcut for 1: when
    every non-constant chart coefficient of p^-s Q_B has valuation
    >= v_min + k (`image_bound`, or before it the stored coefficients,
    `_same_piece_witness`), so do the coefficients of p^-s P_B and its
    Mahler coefficients, which are integer combinations of them, and
    nothing is expanded.  Otherwise a Mahler coefficient of P_B breaks 1
    exactly when it is nonzero mod p^(v_min + k + s).
    Centre values are read once mod p^(v_min + k_max - 1), by one call
    of `FunctionModel.residues` on all centres (exact: the range
    certificate makes the charts integral; pieces at scale 0 need none),
    and reduced per j; grouping pieces by centre mod p^j costs
    O(pieces * k_max), never pairs.
    """
    sigma = endo.sigma
    p = endo.ctx.p
    v_min = halfball_valuation(p)
    balls = sigma.piece_balls()
    for ball in balls:
        witness = _same_piece_witness(sigma, ball, v_min)
        if witness is not None:
            raise _violation(v_min, *witness)
    k_max = max(b.k for b in balls)
    M = v_min + max(k_max - 1, 0)
    low = p ** v_min
    values = sigma.residues([ball.ints for ball in balls], M)
    for ball, val in zip(balls, values):
        if any(r % low for r in val):
            raise _violation(v_min, ball.ints, (0,) * endo.d, 0)
    for j in range(k_max):
        mod, cut = p ** (v_min + j), p ** j
        groups = {}
        for ball, val in zip(balls, values):
            if ball.k > j:
                red = tuple(r % mod for r in val)
                first, want = groups.setdefault(tuple(c % cut for c in ball.ints), (ball.ints, red))
                if red != want:
                    y = tuple((b - a) // cut for a, b in zip(first, ball.ints))
                    raise _violation(v_min, first, y, cut)
    return OmegaCertificate(v_min=v_min)


def _same_piece_witness(sigma, ball, v_min):
    """Condition 1 of `certify_omega` on one piece: None when it holds,
    else the failing (x, y, t) as ints from the box point K*.  At k > 0, no
    chart first: for |f| >= 1 all terms of the chart coefficient b_f = sum_{e
    >= f} a_e C(e, f) c^(e - f) p^(k|f|) have |e| >= 1, so v(b_f) >= k +
    `ambient_bound`, and `ambient_bound` >= v_min gives the chart bound."""
    k = ball.k
    if k and sigma.ambient_bound(ball) >= v_min or sigma.image_bound(ball)[1] >= v_min + k:
        return None
    p, d = sigma.ctx.p, sigma.d
    s, polys = sigma.chart_quotient(ball)
    K = _poly.mahler_witness(polys, p ** (v_min + k + s))
    step = p ** k
    return K and (tuple(c + step * z for c, z in zip(ball.ints, K[:d])), K[d:2 * d], step * K[2 * d])


def _violation(v_min, x, y, t):
    """NotCertified for the failing (x, y, t) given as ints; y = 0 and t = 0
    name the value at x."""
    x, y, t = tuple(map(Fraction, x)), tuple(map(Fraction, y)), Fraction(t)
    if t == 0 and not any(y):
        msg = "displacement value at x=%s has valuation below %d" % (list(x), v_min)
    else:
        msg = "difference quotient at x=%s, y=%s, t=%s has valuation below %d" % (list(x), list(y), t, v_min)
    return NotCertified(msg, witness=(x, y, t))


@dataclass(frozen=True)
class IsometryReport:
    checked: int
    violations: tuple


def isometry_check(g, pairs):
    """Exact comparison of the norms of gamma(x) - gamma(y) and x - y.

    Any violation indicates a certification bug, so the report should
    always come back empty.

    Each pair holds two points of O^d as tuples of ints, so v(x - y) is
    the valuation of an int difference; the violations are the failing
    pairs as given.  Pairs with x = y are counted and skipped.  The
    outputs are residues mod p^M of all xs, then all ys, M one above the
    largest finite valuation of an input difference.  For x != y with
    v(x - y) = v < M, the output difference has valuation v exactly when
    it is 0 mod p^v and nonzero mod p^(v+1), a congruence test on them.
    Both sides are read from gcds: for ints v(gcd(a_1, ..., a_d)) =
    min v(a_i), and the gcd of zeros is 0, of valuation INF; so v(x - y)
    is one valuation of one gcd, and the output difference is 0 mod p^j
    exactly when the gcd of its coordinates is.
    """
    gamma = g.endo.gamma
    p = gamma.ctx.p
    pts = [(x, y, fraction_valuation(math.gcd(*map(operator.sub, x, y)), p)) for x, y in pairs]
    live = [pt for pt in pts if pt[2] != INF]
    M = 1 + max((v for *_, v in live), default=0)
    gxs = gamma.residues([x for x, _, _ in live], M)
    gys = gamma.residues([y for _, y, _ in live], M)
    violations = []
    for (x, y, v), gx, gy in zip(live, gxs, gys):
        q = math.gcd(*map(operator.sub, gx, gy))
        if q % p ** v or not q % p ** (v + 1):
            violations.append((x, y))
    return IsometryReport(checked=len(pts), violations=tuple(violations))


def _invert(endo, ys, target_v, v_min):
    """Fixed-point preimages of a list of integral points (ints) on ints
    mod p^M, iterated together.

    Each step replaces x by y - sigma(x); the certificate bounds the
    displacement's quotients by p^-v_min, so successive iterates contract
    by at least that factor and the budget below always suffices.  The
    iteration only needs x mod p^M, and sigma's residues mod p^M are exact
    (`FunctionModel.residues`), so each iterate is the exact one reduced.
    A step evaluates the targets still moving in one call and updates
    them one coordinate column at a time; a target leaves once two
    iterates agree mod p^target_v.  With M > target_v, the residual
    gamma(x) - y of an accepted iterate has valuation below target_v
    exactly when it is nonzero mod p^target_v.  The error raised is that
    of the first failing target, as if each were inverted alone.
    Returns the preimages as tuples of ints in [0, p^M), in order.
    """
    p = endo.ctx.p
    budget = -(-target_v // v_min) + 2
    M = target_v + v_min + 2
    mod = p ** M
    close = p ** target_v
    ycols = xcols = [[a % mod for a in col] for col in zip(*ys)]  # live targets and iterates, by column
    ys = list(zip(*ycols))
    xs, live = list(ys), list(range(len(ys)))
    for _ in range(budget):
        qcols = zip(*endo.sigma.residues(list(zip(*xcols)), M))
        nxt = [[(a - b) % mod for a, b in zip(ycol, qcol)] for ycol, qcol in zip(ycols, qcols)]
        for i, x in zip(live, zip(*nxt)):
            xs[i] = x
        gaps = [[(a - b) % close for a, b in zip(ncol, xcol)] for ncol, xcol in zip(nxt, xcols)]
        keep = [j for j, row in enumerate(zip(*gaps)) if any(row)]
        live = [live[j] for j in keep]
        if not live:
            break
        xcols = [[col[j] for j in keep] for col in nxt]
        ycols = [[col[j] for j in keep] for col in ycols]
    # targets before the first one still moving have converged
    for x, y in zip(endo.gamma.residues(xs[:live[0]] if live else xs, M), ys):
        if any((a - b) % close for a, b in zip(x, y)):
            resid = min(fraction_valuation((a - b) % mod, p) for a, b in zip(x, y))
            raise RuntimeError(
                "inversion residual has valuation %s, expected >= %d; "
                "the certificate is broken" % (resid, target_v)
            )
    if live:
        raise IterationBudgetExceeded(
            "no contraction to %d digits within %d steps" % (target_v, budget)
        )
    return xs


def invert_points(g, ys, target_v):
    """Preimages of a list of points under the certified map, each correct
    to p^-target_v, in one batched fixed-point iteration (`_invert`).

    Each y is a point of O^d as a tuple of ints (any representatives),
    and each preimage comes back as a tuple of ints in [0, p^M), M =
    target_v + v_min + 2.  A tuple of another length than d raises
    ValueError("y lies outside the unit ball").  `_invert` trusts g.cert.
    """
    endo = g.endo
    ctx = endo.ctx
    if not isinstance(target_v, int) or target_v < 1:
        raise ValueError("target precision must be a positive int")
    if target_v > ctx.N:
        raise ValueError(
            "target precision %d exceeds the context precision N=%d"
            % (target_v, ctx.N)
        )
    if any(len(y) != endo.d for y in ys):
        raise ValueError("y lies outside the unit ball")
    return _invert(endo, ys, target_v, g.cert.v_min)


def invert_at(g, y, target_v):
    """Preimage of y correct to p^-target_v: `invert_points` on one point."""
    return invert_points(g, [y], target_v)[0]


def _preimage_ball(g, ball):
    """Pullback of a sub-ball: same level, center pulled back by inversion."""
    if ball.k == 0:
        return ball
    pre = _invert(g.endo, [ball.ints], ball.k, g.cert.v_min)[0]
    return Ball.from_ints(g.endo.ctx, pre, ball.k)


def compose_diffeos(g1, g2):
    """g1 after g2, certified.

    The displacement law sigma = sigma2 + sigma1 o (id + sigma2) needs a
    composition certificate for the second term; it comes from the
    pullback of each sigma1 piece ball, which is again a ball of the same
    level because certified maps are isometric bijections.
    """
    e1, e2 = g1.endo, g2.endo
    if e1.ctx != e2.ctx or e1.d != e2.d:
        raise ValueError("the two maps live on different balls")
    pre = {_preimage_ball(g2, b): b for b in e1.sigma.piece_balls()}
    refined, owner = refine(e2.gamma, list(pre))
    cert = {fine: pre[c] for fine, c in owner.items()}
    comp = compose(e1.sigma, refined, cert)
    sigma = model_add(e2.sigma, comp)
    endo = BallEndo.from_displacement(sigma)
    return CertifiedDiffeo(endo=endo, cert=certify_omega(endo))


def induced_level_map(g, m):
    """Permutation induced on the p^(d*m) level-m cells of the ball.

    Cells are indexed by their representatives in the order produced by
    level_reps(m), the base-p^m digits of the coordinates with the first
    one most significant; entry i holds the index of the image cell.
    Results are kept on g per level and returned again unchanged.

    The route trusts g.cert, as `_invert` does.  Its bound
    v(sigma(x) - sigma(x')) >= v(x - x') + v_min makes sigma mod p^m
    factor through x mod p^c, c = max(m - v_min, 0): for x = x' mod p^c
    the difference has valuation >= c + v_min >= m (for c = 0 because
    v_min >= m).  So gamma(x) = x + (gamma(x') - x') mod p^m, and one call
    of `FunctionModel.residues` evaluates the p^(dc) level-c coarse cells
    x'; the p^(d(m-c)) cells inside each are filled by index arithmetic, a
    cyclic shift of the fine offsets per coordinate.  Two checks catch forged
    certificates where they show, with RuntimeError: each gamma(x') - x'
    must be 0 mod p^min(v_min, m), the certificate's value bound, and the
    result must be a bijection.
    """
    if not isinstance(m, int) or m < 1:
        raise ValueError("level must be a positive int")
    perm = g.induced_cache.get(m)
    if perm is not None:
        return perm
    endo = g.endo
    p, d, v_min = endo.ctx.p, endo.d, g.cert.v_min
    mod = p ** m
    c = max(m - v_min, 0)
    step, low = p ** c, p ** min(v_min, m)
    # fine offsets of the cells inside one coarse cell, along one coordinate
    offs = [step * w for w in range(mod // step)]
    weights = [mod ** (d - 1 - j) for j in range(d - 1)]
    out = [0] * mod ** d
    coarses = list(endo.ball.level_reps(c))
    for coarse, vals in zip(coarses, endo.gamma.residues(coarses, m)):
        images = []
        for x, r in zip(coarse, vals):
            if (r - x) % low:
                raise RuntimeError(
                    "displacement at %s is nonzero mod %d^%d; the certificate is broken"
                    % (list(coarse), p, min(v_min, m))
                )
            # x + step*w maps to r + step*w mod p^m, a cyclic shift of offs
            hi = r // step
            images.append([r % step + o for o in offs[hi:] + offs[:hi]])
        *heads, last = images
        # every choice of the leading coordinates fills a strided slice
        outer = [[((x + a) * wt, b * wt) for a, b in zip(offs, image)]
                 for x, image, wt in zip(coarse, heads, weights)]
        for combo in itertools.product(*outer):
            src = sum(a for a, _ in combo)
            base = sum(b for _, b in combo)
            out[src + coarse[-1]:src + mod:step] = [base + b for b in last]
    if len(set(out)) != len(out):
        raise RuntimeError("induced map is not a bijection; certificate is broken")
    perm = g.induced_cache[m] = tuple(out)
    return perm


class CompactlySupportedEndo:
    """id + sigma on a clopen region U, identity outside the support.

    The support is the canonical union of the pieces where sigma is
    nonzero (a coarser stated support containing them is accepted).
    `find_certificate` into the identity of U checks that id + sigma maps U
    into U; it splits non-integral charts, so it accepts x + (x^3 - x)/3
    on Z_3, which `BallEndo` refuses as "unbounded" (`residues` needs
    integral charts).
    """

    __slots__ = ("U", "sigma", "support", "gamma", "ctx", "d")

    def __init__(self, U, sigma, support=None):
        if sigma.d != sigma.e:
            raise ValueError(
                "a displacement needs matching dimensions, got d=%d, e=%d"
                % (sigma.d, sigma.e)
            )
        if sigma.domain != U:
            raise ValueError("the displacement partition must cover exactly U")
        nonzero = sigma.nonzero_balls()
        if support is None:
            support = ClopenRegion(nonzero)
        else:
            if not support.empty and not U.contains_region(support):
                raise ValueError("the support must sit inside U")
            for b in nonzero:
                if not support.contains_ball(b):
                    raise ValueError(
                        "displacement is nonzero on %r outside the stated support"
                        % (b,)
                    )
        ident = identity_model(U)
        gamma = model_add(ident, sigma)
        try:
            find_certificate(ident, gamma)
        except CompositionUncertified as err:
            raise ValueError("id + sigma does not map U into U: %s" % err) from None
        self.U = U
        self.sigma = sigma
        self.support = support
        self.gamma = gamma
        self.ctx = sigma.ctx
        self.d = sigma.d

    def __repr__(self):
        return "CompactlySupportedEndo(p=%d, d=%d, support=%d balls)" % (
            self.ctx.p,
            self.d,
            len(self.support.balls),
        )


def endo_compose(a, b):
    """a after b on the shared region, by the displacement law
    sigma_b + sigma_a o (id + sigma_b)."""
    if a.U != b.U:
        raise ValueError("the two maps live on different regions")
    try:
        refined, cert = find_certificate(a.sigma, b.gamma)
    except CompositionUncertified as err:
        raise CertificateInvalid(str(err)) from None
    comp = compose(a.sigma, refined, cert)
    return CompactlySupportedEndo(a.U, model_add(b.sigma, comp))


@dataclass(frozen=True)
class DiffcDecision:
    accepted: bool
    certificates: dict
    witness: object = None


def diffc_membership(a):
    """Decide membership of id + sigma in the diffeomorphism group of U.

    Sound and incomplete: every supported ball must be mapped into itself
    by a map whose chart copy carries a certificate.  The certificate of
    each chart copy is decided exactly (`certify_omega`); the
    incompleteness is the requirement that each supported ball maps into
    itself.  Accepted elements
    get one CertifiedDiffeo per supported ball; rejections name the ball
    and the witness (in chart coordinates when it is a quotient triple).
    """
    certificates = {}
    for ball in a.support.balls:
        chart = rescaled_chart(a.sigma, ball)
        try:
            endo = BallEndo.from_displacement(chart)
        except ValueError as err:
            return DiffcDecision(False, {}, witness=(ball, str(err)))
        try:
            cert = certify_omega(endo)
        except NotCertified as err:
            return DiffcDecision(False, {}, witness=(ball, err.witness))
        certificates[ball] = CertifiedDiffeo(endo=endo, cert=cert)
    return DiffcDecision(True, certificates)
