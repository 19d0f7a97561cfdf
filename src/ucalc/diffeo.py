"""Certified diffeomorphisms of the unit ball and compactly supported maps.

A BallEndo is a piecewise polynomial self-map of O^d with a verified range
certificate.  An Omega certificate additionally bounds the displacement
gamma - id: all its values and all its first difference quotients stay
inside the open half-radius ball.  That bound makes gamma an isometric
bijection, so inverses come from plain fixed-point iteration and every
sub-ball pulls back to a ball of the same level.

Certification is sound but not complete.  Three routes are tried in
order: a uniform bound on the chart coefficients, a symbolic proof from
each piece's chart coefficients and the congruences of its centre value
with those of nearby pieces, and exhaustive evaluation at a stated level.
Only the last rejects, and failures carry witnesses instead of guesses.
Maps supported on finitely many balls inside a larger clopen region are
handled by rescaling each supported ball onto the unit ball and
certifying the chart copy.

Every sampling loop here (the Omega scan, inversion, isometry checks,
induced cell maps, range checks) runs on the integer core
`FunctionModel.residues`.  Its verdicts equal the exact ones for three
reasons: the range certificate gives the pieces p-integral chart
coefficients; reduction Z_(p) -> Z/p^M is a ring map, so values mod p^M
come out of integer arithmetic exactly; and each loop picks M so that
its valuation test mod p^M is the exact test.
"""

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

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


class LevelRefused(ValueError):
    """certify_omega cannot scan at the requested level: it is too coarse
    to separate quotient classes, coarser than the pieces, or its class
    count exceeds MAX_SCAN_CLASSES.  Raised before any scan starts."""


# Largest number of quotient classes p^(2dm)(p^m + 1) that the exhaustive
# scan of certify_omega visits at level m in dimension d.  On a 2-vCPU
# Xeon with Python 3.11, the p = 2, d = 1 map x - (2/3)x^2 + 2x^4 scans
# 266240 classes (level 6) in 1.9 s and 2113536 (level 7) in 13.6 s.
# The tests, golden cases, suites and benchmark workloads reach at most
# 65610 (p = 3, d = 2, m = 2).
MAX_SCAN_CLASSES = 2 ** 20


def _scan_too_large(p, d, m):
    """p^(2dm)(p^m + 1) > MAX_SCAN_CLASSES; as p >= 2, capping each
    exponent at the budget's bit length keeps the answer and the powers
    small."""
    cap = MAX_SCAN_CLASSES.bit_length()
    return p ** min(2 * d * m, cap) * (p ** min(m, cap) + 1) > MAX_SCAN_CLASSES


def halfball_valuation(p):
    """Least valuation v with p**-v < 1/2."""
    return 2 if p == 2 else 1


def _root_ball(ctx, d):
    return Ball.from_ints(ctx, (0,) * d, 0)


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
        ball = _root_ball(gamma.ctx, gamma.d)
        if gamma.domain != ClopenRegion([ball]):
            raise ValueError("the model domain must be the unit ball O^d")
        for piece in gamma.piece_balls():
            ok, method, witness = _image_in_ball(gamma, piece, (ball,))
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
    have valuation >= v_min, i.e. land in the open half-radius ball."""

    v_min: int
    method: str
    level: int = None


@dataclass(frozen=True)
class CertifiedDiffeo:
    endo: BallEndo
    cert: OmegaCertificate
    # induced_level_map results by level; the map is fixed, so they never go stale
    induced_cache: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def gamma(self):
        return self.endo.gamma


def _t_classes(p, m):
    """Representatives (t, v(t)) of every quotient parameter class mod p^m:
    t = 0 plus one member u*p^j of each unit class u mod p^(m-j)."""
    ts = [(0, None)]
    for j in range(m):
        for u in range(1, p ** (m - j)):
            if u % p:
                ts.append((u * p ** j, j))
    ts.append((p ** m, m))
    return ts


def certify_omega(endo, m=3):
    """Certificate that the displacement stays small in values and in all
    first difference quotients.

    Sound, not complete.  Three routes are tried in order, each sound on
    its own, and the first to accept names the certificate's method:

    1. "coefficient-bound": every chart coefficient of every piece,
       constant term included, has valuation at least v_min + k_max with
       k_max the finest piece level; that uniform margin keeps even
       quotients across different pieces inside the bound.
    2. "symbolic" (`_omega_symbolic`): a Gauss-norm bound on each piece's
       chart coefficients plus congruences between piece-centre values
       proves the bound for every (x, y, t) at once.
    3. "exhaustive" (`_omega_witness_search`): the quotient set is
       enumerated exactly at level m.  The range certificate already
       forces O-integral local coefficients, making the displacement
       1-Lipschitz in each piece chart, so level-m data separates every
       quotient class once m covers the contraction window below.

    The level checks (m >= 2 v_min - 1, pieces no finer than m) come
    before routes 2 and 3, and the class budget (MAX_SCAN_CLASSES) before
    route 3; a failing one raises LevelRefused.  Routes 2 and 3 record
    level m, which compose_diffeos reuses for composites.  Only the scan
    rejects; its witness is an exact failing triple.
    """
    ctx = endo.ctx
    v_min = halfball_valuation(ctx.p)
    sigma = endo.sigma
    k_max = max(b.k for b in sigma.piece_balls())
    bounds = [sigma.image_bound(ball) for ball in sigma.piece_balls()]
    if all(min([s] + [fraction_valuation(c, ctx.p) for c in val]) >= v_min + k_max for val, s in bounds):
        return OmegaCertificate(v_min=v_min, method="coefficient-bound")
    if m < 2 * v_min - 1:
        raise LevelRefused(
            "exhaustive level %d cannot separate quotient classes for p=%d; "
            "need at least %d" % (m, ctx.p, 2 * v_min - 1)
        )
    if k_max > m:
        raise LevelRefused(
            "pieces at level %d are finer than the exhaustive level %d" % (k_max, m)
        )
    if _omega_symbolic(sigma, v_min):
        return OmegaCertificate(v_min=v_min, method="symbolic", level=m)
    if _scan_too_large(ctx.p, endo.d, m):
        raise LevelRefused(
            "level %d gives %d^%d (%d^%d + 1) quotient classes to scan, more than the %d allowed"
            % (m, ctx.p, 2 * endo.d * m, ctx.p, m, MAX_SCAN_CLASSES)
        )
    witness = _omega_witness_search(endo, m, v_min)
    if witness is not None:
        kind, x, y, t = witness
        if kind == "quotient":
            raise NotCertified(
                "difference quotient at x=%s, y=%s, t=%s has valuation below %d"
                % (list(x), list(y), t, v_min),
                witness=(x, y, t),
            )
        raise NotCertified(
            "displacement value at x=%s has valuation below %d" % (list(x), v_min),
            witness=(x, y, t),
        )
    return OmegaCertificate(v_min=v_min, method="exhaustive", level=m)


def _omega_symbolic(sigma, v_min):
    """True when three conditions on the chart data of sigma prove that
    sigma and all its first quotients have valuation >= v_min on O^d.

    Write Q_B for the chart polynomials of a piece B at level k with
    centre c (x = c + p^k z, `FunctionModel.chart`).  The conditions:

    1. Same-piece quotients.  Every non-constant coefficient of every Q_B
       has valuation >= v_min + k.  For x, x + ty in B, with
       s = ty/p^k integral, Q(z+s) - Q(z) = sum_i s_i R_i(z, s) where
       the R_i are polynomials whose coefficients are integer multiples
       of those non-constant coefficients.  Dividing by t leaves
       sum_i (y_i/p^k) R_i, of valuation >= v_min; at t = 0 the formal
       derivative p^-k grad Q(z) . y obeys the same bound.
    2. Values.  Every centre value sigma(c) = Q_B(0) is 0 mod p^v_min.
       With condition 1, Q_B(z) - Q_B(0) has valuation >= v_min + k, so
       v(sigma(x)) >= v_min everywhere.
    3. Cross-piece quotients.  For every j < k_max, the pieces of level
       > j whose centres agree mod p^j have centre values congruent mod
       p^(v_min + j).  Take x in B, x' = x + ty in a disjoint B' of level
       k'.  Disjoint balls have delta = v(c' - c) < min(k, k'), so
       v(ty) = v(x' - x) = delta and v(t) <= delta.  Both pieces have
       level > delta and centres that agree mod p^delta, so they share
       the group of j = delta and sigma(c') - sigma(c) has valuation
       >= v_min + delta.  By condition 1, sigma(x') - sigma(x) differs
       from it by terms of valuation >= v_min + min(k, k') > v_min +
       delta.  Dividing by t keeps valuation >= v_min.

    Every value and every (x, y, t) falls under one of the three cases, so
    an acceptance covers all of O^d, not only the classes of a scan level.
    Pieces are grouped by centre mod p^j, so the check costs
    O(pieces * k_max) and never looks at pairs.  Centre values are read once mod p^(v_min + k_max - 1)
    from `FunctionModel.residues` (exact: the range certificate makes the
    charts integral) and reduced per j.
    """
    p = sigma.ctx.p
    balls = sigma.piece_balls()
    if any(sigma.image_bound(ball)[1] < v_min + ball.k for ball in balls):
        return False
    k_max = max(b.k for b in balls)
    M = v_min + max(k_max - 1, 0)
    low = p ** v_min
    values = [sigma.residues(ball.ints, M) for ball in balls]
    if any(r % low for val in values for r in val):
        return False
    for j in range(k_max):
        mod, cut = p ** (v_min + j), p ** j
        groups = {}
        for ball, val in zip(balls, values):
            if ball.k > j:
                key = tuple(c % cut for c in ball.ints)
                red = tuple(r % mod for r in val)
                if groups.setdefault(key, red) != red:
                    return False
    return True


def _omega_witness_search(endo, m, v_min):
    """Exact scan of displacement quotients and values over level-m data.

    Quotients are scanned first so a reported witness exhibits the failing
    quotient whenever one exists; value violations (zero direction, t = 0)
    are reported with the same triple shape.

    The scan runs on residues mod p^M, M = m + v_min.  sigma has integral
    chart coefficients, so its values at integral points are integral and
    their residues exact (`FunctionModel.residues`).  For t of valuation
    j <= m the quotient (sigma(x+ty) - sigma(x))/t has valuation below
    v_min exactly when the difference is nonzero mod p^(j + v_min).  For
    t = 0 the quotient is p^-k times the chart gradient of the piece of x
    along y, so it fails exactly when that gradient is nonzero mod
    p^(v_min + k), and v_min + k <= M because certify_omega keeps piece
    levels k <= m.  A value fails exactly when it is nonzero mod p^v_min.
    """
    sigma = endo.sigma
    p = endo.ctx.p
    M = m + v_min
    reps = list(endo.ball.level_reps(m))
    ts = [(t, None if j is None else p ** (j + v_min)) for t, j in _t_classes(p, m)]
    bases = []
    for x in reps:
        base = sigma.residues(x, M)
        bases.append(base)
        for y in reps:
            for t, mod in ts:
                if mod is None:
                    k, slope = sigma.slope_residues(x, y, M)
                    low = p ** (v_min + k)
                    bad = any(r % low for r in slope)
                else:
                    shifted = sigma.residues(tuple(a + t * b for a, b in zip(x, y)), M)
                    bad = any((q2 - q1) % mod for q1, q2 in zip(base, shifted))
                if bad:
                    return ("quotient", _fractions(x), _fractions(y), Fraction(t))
    zero = tuple(Fraction(0) for _ in range(endo.d))
    low = p ** v_min
    for x, base in zip(reps, bases):
        if any(q % low for q in base):
            return ("value", _fractions(x), zero, Fraction(0))
    return None


def _fractions(ints):
    return tuple(Fraction(i) for i in ints)


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
    outputs run on residues mod p^M, M one above the largest finite
    valuation of an input difference.  For x != y with v(x - y) = v < M,
    the output difference has valuation v exactly when it is 0 mod p^v
    and nonzero mod p^(v+1), which residues mod p^M decide exactly.
    """
    gamma = g.endo.gamma
    p = gamma.ctx.p
    pts = [(x, y, min(fraction_valuation(a - b, p) for a, b in zip(x, y))) for x, y in pairs]
    M = 1 + max((v for *_, v in pts if v != INF), default=0)
    mod = p ** M
    violations = []
    for x, y, vin in pts:
        if vin == INF:
            continue
        diffs = [a - b for a, b in zip(gamma.residues(x, M), gamma.residues(y, M))]
        if min(fraction_valuation(q % mod, p) for q in diffs) != vin:
            violations.append((x, y))
    return IsometryReport(checked=len(pts), violations=tuple(violations))


def _invert(endo, y, target_v, v_min):
    """Fixed-point preimage of an integral point (ints) on ints mod p^M.

    Each step replaces x by y - sigma(x); the certificate bounds the
    displacement's quotients by p^-v_min, so successive iterates contract
    by at least that factor and the budget below always suffices.  The
    iteration only needs x mod p^M, and sigma's residues mod p^M are exact
    (`FunctionModel.residues`), so each iterate is the exact one reduced.
    The residual of the accepted iterate is checked exactly: with
    M > target_v, gamma(x) - y has valuation below target_v exactly when
    it is nonzero mod p^target_v.  Returns the preimage as ints in
    [0, p^M).
    """
    ctx = endo.ctx
    p = ctx.p
    budget = -(-target_v // v_min) + 2
    M = target_v + v_min + 2
    mod = p ** M
    close = p ** target_v
    y = [a % mod for a in y]
    x = y
    for _ in range(budget):
        nxt = [(a - q) % mod for a, q in zip(y, endo.sigma.residues(x, M))]
        converged = all((a - b) % close == 0 for a, b in zip(nxt, x))
        x = nxt
        if converged:
            resid = min(
                fraction_valuation((a - b) % mod, p) for a, b in zip(endo.gamma.residues(x, M), y)
            )
            if resid < target_v:
                raise RuntimeError(
                    "inversion residual has valuation %s, expected >= %d; "
                    "the certificate is broken" % (resid, target_v)
                )
            return tuple(x)
    raise IterationBudgetExceeded(
        "no contraction to %d digits within %d steps" % (target_v, budget)
    )


def invert_at(g, y, target_v):
    """Preimage of y under the certified map, correct to p^-target_v.

    y is a point of O^d as a tuple of ints (any representatives), and
    the preimage comes back as a tuple of ints in [0, p^M), M = target_v
    + v_min + 2.  A tuple of another length than d raises
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
    if len(y) != endo.d:
        raise ValueError("y lies outside the unit ball")
    return _invert(endo, y, target_v, g.cert.v_min)


def _preimage_ball(g, ball):
    """Pullback of a sub-ball: same level, center pulled back by inversion."""
    if ball.k == 0:
        return ball
    pre = _invert(g.endo, ball.ints, ball.k, g.cert.v_min)
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
    level = max(
        (c.level for c in (g1.cert, g2.cert) if c.level is not None), default=3
    )
    return CertifiedDiffeo(endo=endo, cert=certify_omega(endo, m=level))


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
    v_min >= m).  So gamma(x) = x + (gamma(x') - x') mod p^m, and
    `FunctionModel.residues` runs once per level-c coarse cell x'; the
    p^(d(m-c)) cells inside it are filled by index arithmetic, a cyclic
    shift of the fine offsets per coordinate.  Two checks catch forged
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
    for coarse in endo.ball.level_reps(c):
        images = []
        for x, r in zip(coarse, endo.gamma.residues(coarse, m)):
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
    nonzero (a coarser stated support containing them is accepted), and
    id + sigma is verified to map U into U piece by piece.
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
        gamma = model_add(identity_model(U), sigma)
        for ball in gamma.piece_balls():
            if not _image_in_ball(gamma, ball, U.balls)[0]:
                raise ValueError("id + sigma does not map %r into U" % (ball,))
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


def diffc_membership(a, m=3):
    """Decide membership of id + sigma in the diffeomorphism group of U.

    Sound and incomplete: every supported ball must be mapped into itself
    by a map whose chart copy carries a certificate.  Accepted elements
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
            cert = certify_omega(endo, m=m)
        except NotCertified as err:
            return DiffcDecision(False, {}, witness=(ball, err.witness))
        certificates[ball] = CertifiedDiffeo(endo=endo, cert=cert)
    return DiffcDecision(True, certificates)
