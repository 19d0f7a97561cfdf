"""Seeded verification suites: the suite config, the random generators,
one sampling loop, and one per-sample law for each suite.

A suite is a setup step plus a law.  The setup takes (cfg, ctx, rng)
and builds the state every sample shares; it returns the law, which
takes (sample index, sample generator) and returns None when the sample
passes or (inputs, lhs, rhs) when it fails.  `_run_samples` is the
only place that draws sample seeds, counts checks and records the
first-failure witness.  Every random draw descends from the seed in the
config through one master generator, so any failing sample can be
replayed from the sample seed recorded in the report.
"""

import functools
import itertools
import random
import time
from dataclasses import asdict, dataclass
from fractions import Fraction

from .balls import (
    Ball,
    ClopenRegion,
    CoverIncomplete,
    partition_of_unity,
    subordinate_partition,
    verify_partition,
)
from .calculus import (
    MAX_CODIM,
    MAX_COMPOSITE_DEGREE,
    DQPoint,
    FunctionModel,
    MembershipFailure,
    _dqk_fr,
    _fr_point,
    check_chain_rule,
    check_composition_derivative,
    check_eval_derivative,
    check_scaling,
    product_model,
)
from .cia import (
    SMatrixSingular,
    alg_inverse,
    check_inversion_derivative,
    matrix_algebra,
    qp_algebra,
    quadratic_extension,
    tensor_algebra,
    tensor_right_inverse,
)
from .diffeo import (
    BallEndo,
    CertifiedDiffeo,
    IterationBudgetExceeded,
    NotCertified,
    certify_omega,
    halfball_valuation,
    induced_level_map,
    invert_points,
    isometry_check,
)
from .padic import PadicContext, PrecisionLoss, is_prime
from .weakprod import (
    GlobalDiffeo,
    ModelEntry,
    WeakProductElement,
    ZeroConditionViolated,
    conjugate_global,
    oplus_apply,
    perm_compose,
    perm_inverse,
    wp_inv,
    wp_mul,
)


class UnknownSuite(ValueError):
    """The requested verification suite is not registered."""


class ConfigInvalid(ValueError):
    """A suite config field violates its invariant."""


# Largest --samples.  A run grows linearly with the count: at the defaults
# (p = 3, d = 1) on a 2-vCPU Xeon with Python 3.11, 10^4 samples take
# about 1.2 s in bilinear and about 30 s in conjugate, the slowest suite
# there.  The tests and benchmark workloads draw at most 250.
MAX_SAMPLES = 10 ** 4

# Largest --N.  Every draw is an int below p^N, so the digit window sets
# the size of all arithmetic: inversion at p = 3 takes about 0.15 s a
# sample at N = 1024 and 0.9 s at N = 2048, and at p = 2^61 - 1 and
# N = 1024 a failure witness of scaling or bilinear is past the 4300
# digits that Python converts to a string.  At N = 128 the largest p
# gives about 3100 digits, and scaling at p = 2^61 - 1 takes about 0.06 s a
# sample.  The tests use at most 45.
MAX_N = 128


@dataclass
class SuiteConfig:
    seed: int = 42
    p: int = 3
    d: int = 1
    e: int = 1
    N: int = 12
    m: int = 3
    samples: int = 100
    deg: int = 3

    def validate(self):
        for name in ("seed", "p", "d", "e", "N", "m", "samples", "deg"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 1:
                raise ConfigInvalid("%s must be a positive integer, got %r" % (name, v))
        # --e sets the codim of the random maps, which the model loader bounds too
        for flag, v, top in (("samples", self.samples, MAX_SAMPLES), ("e", self.e, MAX_CODIM),
                             ("N", self.N, MAX_N)):
            if v > top:
                raise ConfigInvalid("--%s %d exceeds the limit %d" % (flag, v, top))
        if self.seed.bit_length() > 64:
            raise ConfigInvalid("seed must fit in 64 bits")
        try:
            prime = is_prime(self.p)
        except ValueError as err:
            raise ConfigInvalid(str(err)) from None
        if not prime:
            raise ConfigInvalid("p must be prime, got %d" % self.p)
        # the multi-piece diffeos draw digits above the half-ball
        # valuation, the random regions hold balls of level 2, and the
        # suites check cells and inverses at levels up to m
        least = max(2, self.m, halfball_valuation(self.p) + 1)
        if self.N < least:
            raise ConfigInvalid(
                "N must be at least %d for p=%d and m=%d, got %d" % (least, self.p, self.m, self.N)
            )


@dataclass
class Report:
    suite: str
    config: SuiteConfig
    checks: int
    passed: int
    failure: dict
    wall_time: float

    def to_json(self):
        return asdict(self)


def rand_ints(ctx, rng, d):
    """A point of O^d as d ints below p^N, so already cut to N digits."""
    return tuple(map(rng.randrange, [ctx.modulus] * d))


def rand_vector(ctx, rng, d):
    return ctx.vector(rand_ints(ctx, rng, d))


# Largest number C(d + deg, d) of monomials of degree <= deg in d variables
# that a suite drawing random maps of degree --deg enumerates.  Past it
# the enumeration alone exhausts memory: --d 30 --deg 10 gives 8.5e8.
MAX_MONOMIALS = 2 ** 16

# the suites whose random maps enumerate every monomial of degree <= deg
_DEGREE_SUITES = ("chain-rule", "scaling", "eval-deriv", "comp-deriv")

# Largest --d in those suites.  Listing the monomials alone grows about
# with d^3 at --deg 1, where MAX_MONOMIALS admits d up to 65535.  On a
# 2-vCPU Xeon with Python 3.11.7, one sample at --N 45 --deg 1 takes at
# most 0.08 s at d = 100 and 0.39 s at d = 200 (comp-deriv, the slowest);
# one of eval-deriv took 22.5 s at d = 1000.  The tests reach 40.
MAX_VARIABLES = 100


# Largest number p^d of cells at level 1, the children of one ball, in a
# suite that splits balls or lists cells.  Each such suite does work for
# at least every child: at p = 2, d = 10 one sample of conjugate, the
# slowest, takes about 5 s and one of omega-isometry about 5.6 s; at d = 12
# conjugate takes 20 s.  At p = 3, `verify unity --d 200` ran out of memory
# splitting one ball.  The tests, golden cases and workloads reach 9.
MAX_CHILDREN = 2 ** 10

# the suites that split a ball into its p^d children or list level cells
_CELL_SUITES = ("partition", "unity", "omega-isometry", "inversion", "group-axioms", "conjugate")


def too_many_children(p, d):
    """p^d > MAX_CHILDREN, in at most 11 products however large d is."""
    c = 1
    for _ in range(d):
        c *= p
        if c > MAX_CHILDREN:
            return True
    return False


def too_many_monomials(d, deg):
    """C(d + deg, d) > MAX_MONOMIALS.  With n = max(d, deg), the loop builds
    C(n + i, i) for i = 1, ..., min(d, deg); each step multiplies by
    (n + i)/i >= 2, so it passes the limit within its bit length of steps
    and a huge flag costs no more."""
    n, c = max(d, deg), 1
    for i in range(1, min(d, deg) + 1):
        c = c * (n + i) // i
        if c > MAX_MONOMIALS:
            return True
    return False


def _monomials(d, deg):
    exps = [()]
    for _ in range(d):
        exps = [e + (j,) for e in exps for j in range(deg + 1 - sum(e))]
    return exps


def rand_model(ctx, rng, d, e, deg, vmin=0):
    """Random polynomial map of the unit ball with p-integral values; the
    coefficients lie below p^N, so they are already cut to N digits."""
    lead = ctx.p ** vmin
    polys = tuple({} for _ in range(e))
    for exps in _monomials(d, deg):
        if rng.random() < 0.4:
            continue
        for P in polys:
            if a := lead * rng.randrange(ctx.p ** (ctx.N - vmin)):
                P[exps] = a
    return FunctionModel([(Ball.from_ints(ctx, (0,) * d, 0), (0, polys))], e)


def rand_t(ctx, rng):
    pool = [1, ctx.p, ctx.p ** 2, rng.randrange(1, ctx.p ** ctx.N), 0]
    return ctx.from_int(rng.choice(pool))


def rand_small_model(ctx, rng, d, e, deg, nmono=3, cmax=2):
    """Random map with few small coefficients, so that composites and
    t-scaled sums of two such maps stay exactly representable at N digits.
    Coefficients up to cmax < p^N are already cut to N digits."""
    polys = tuple({} for _ in range(e))
    monos = _monomials(d, deg)
    for exps in rng.sample(monos, min(nmono, len(monos))):
        for P in polys:
            if a := rng.randrange(cmax + 1):
                P[exps] = a
    return FunctionModel([(Ball.from_ints(ctx, (0,) * d, 0), (0, polys))], e)


def rand_small_t(ctx, rng, zero_ok=True):
    pool = [1, 2, ctx.p, ctx.p ** 2]
    if zero_ok:
        pool.append(0)
    return ctx.from_int(rng.choice(pool))


def rand_diffeo(ctx, rng, d=1, multi_piece=False):
    """Certified diffeomorphism whose displacement coefficients are
    multiples of p^v_min (p^(v_min+1) on level-1 pieces), so the Gauss
    norm of each chart passes `certify_omega` without a Mahler expansion."""
    vmin = halfball_valuation(ctx.p)
    if not multi_piece:
        sigma = rand_model(ctx, rng, d, d, 2, vmin=vmin)
    else:
        pieces = []
        lead = ctx.p ** (vmin + 1)
        for ball in Ball.from_ints(ctx, (0,) * d, 0).children():
            polys = tuple({} for _ in range(d))
            for exps in _monomials(d, 2):
                if rng.random() < 0.6:
                    for P in polys:
                        if a := lead * rng.randrange(ctx.p ** (ctx.N - vmin - 1)):
                            P[exps] = a
            pieces.append((ball, (0, polys)))
        sigma = FunctionModel(pieces, d)
    endo = BallEndo.from_displacement(sigma)
    return CertifiedDiffeo(endo=endo, cert=certify_omega(endo))


def rand_region(ctx, rng, d):
    """Union of one to three random balls of level at most 2."""
    balls = []
    for _ in range(rng.randint(1, 3)):
        k = rng.randint(0, 2)
        balls.append(
            Ball.from_ints(ctx, tuple(rng.randrange(ctx.p ** k) for _ in range(d)), k)
        )
    return ClopenRegion(balls)


def _affordable_level(p, d, m, cap):
    """Largest level <= m whose cell count p**(d*level) stays within cap.

    Exhaustive per-sample scans cost one evaluation per cell, so suites
    clamp their level to keep the whole run interactive; the fixed small
    cases stay at the requested level."""
    while m > 1 and p ** (d * m) > cap:
        m -= 1
    return m


def _run_samples(setup, cfg, fixed=None):
    """Run one suite and return (checks, passed, failure).

    The master generator feeds `fixed`, then `setup`, then one 64-bit
    seed per sample; each law runs on a generator built from its seed.
    `fixed`, when given, is a setup whose law runs once before the
    samples, as sample 0 with the config seed as its sample seed."""
    rng = random.Random(cfg.seed)
    ctx = PadicContext(cfg.p, cfg.N)
    leading = [(0, cfg.seed, fixed(cfg, ctx, rng))] if fixed is not None else []
    law = setup(cfg, ctx, rng)
    # seeds are drawn lazily, so a large sample count builds no list
    trials = itertools.chain(
        leading, ((idx, rng.getrandbits(64), law) for idx in range(cfg.samples))
    )
    checks = passed = 0
    failure = None
    for idx, seed, check in trials:
        note = check(idx, random.Random(seed))
        checks += 1
        if note is None:
            passed += 1
        elif failure is None:
            inputs, lhs, rhs = note
            failure = {
                "sample": idx,
                "sample_seed": seed,
                "inputs": inputs,
                "lhs": str(lhs),
                "rhs": str(rhs),
            }
    return checks, passed, failure


def run_suite(name, cfg):
    if name not in SUITES:
        raise UnknownSuite("no suite named %r; known: %s" % (name, ", ".join(sorted(SUITES))))
    cfg.validate()
    # chain-rule composes two random maps of degree up to deg
    if name == "chain-rule" and cfg.deg ** 2 > MAX_COMPOSITE_DEGREE:
        raise ConfigInvalid("--deg %d gives chain-rule composites of degree up to %d, above the limit %d"
                            % (cfg.deg, cfg.deg ** 2, MAX_COMPOSITE_DEGREE))
    if name in _DEGREE_SUITES and too_many_monomials(cfg.d, cfg.deg):
        raise ConfigInvalid("--d %d and --deg %d give C(%d, %d) monomials, more than the %d allowed"
                            % (cfg.d, cfg.deg, cfg.d + cfg.deg, cfg.d, MAX_MONOMIALS))
    if name in _DEGREE_SUITES and cfg.d > MAX_VARIABLES:
        raise ConfigInvalid("--d %d exceeds the limit %d" % (cfg.d, MAX_VARIABLES))
    # bilinear's product maps have one monomial per pair of variables; at
    # d = 256 one such sample takes about 15 s
    if name == "bilinear" and cfg.d * cfg.d > MAX_MONOMIALS:
        raise ConfigInvalid("--d %d gives bilinear maps of %d monomials, more than the %d allowed"
                            % (cfg.d, cfg.d * cfg.d, MAX_MONOMIALS))
    if name in _CELL_SUITES and too_many_children(cfg.p, cfg.d):
        raise ConfigInvalid("--d %d at p=%d gives %d^%d cells at level 1, more than the %d allowed"
                            % (cfg.d, cfg.p, cfg.p, cfg.d, MAX_CHILDREN))
    start = time.perf_counter()
    checks, passed, failure = SUITES[name](cfg)
    return Report(
        suite=name,
        config=cfg,
        checks=checks,
        passed=passed,
        failure=failure,
        wall_time=time.perf_counter() - start,
    )


def _chain_rule(cfg, ctx, rng):
    def law(idx, srng):
        f = rand_small_model(ctx, srng, cfg.d, cfg.d, cfg.deg)
        g = rand_small_model(ctx, srng, cfg.d, cfg.e, cfg.deg)
        x = rand_vector(ctx, srng, cfg.d)
        y = rand_vector(ctx, srng, cfg.d)
        t = rand_small_t(ctx, srng)
        rep = check_chain_rule(f, g, DQPoint(x, y, t))
        if not rep.equal:
            return {"t": str(t.to_fraction())}, rep.lhs, rep.rhs

    return law


def _scaling_order_one(cfg, ctx, rng):
    """The trivially passing subcase: order 1 with scaling factor 1."""
    xs = [rand_vector(ctx, rng, cfg.d) for _ in range(2)]
    pvec = [ctx.from_int(rng.randrange(ctx.p ** 4))]

    def law(idx, srng):
        base = rand_model(ctx, srng, cfg.d, cfg.e, cfg.deg)
        rep = check_scaling(base, 1, xs, pvec, ctx.one())
        if not rep.equal:
            return {"k": "1", "t": "1"}, rep.lhs, rep.rhs

    return law


def _scaling(cfg, ctx, rng):
    def law(idx, srng):
        k = srng.randint(1, 3)
        f = rand_model(ctx, srng, cfg.d, cfg.e, cfg.deg)
        xs = [rand_vector(ctx, srng, cfg.d) for _ in range(2 ** k)]
        if srng.random() < 0.8:
            t = ctx.from_int(srng.randrange(1, ctx.p ** ctx.N))
            while t.to_fraction().numerator % ctx.p == 0:
                t = ctx.from_int(srng.randrange(1, ctx.p ** ctx.N))
            depth = 0
        else:
            t = ctx.from_int(ctx.p)
            depth = 3
        pvec = [
            ctx.from_int(ctx.p ** depth * srng.randrange(ctx.p ** 4))
            for _ in range(2 ** k - 1)
        ]
        inputs = {"k": str(k), "t": str(t.to_fraction())}
        try:
            rep = check_scaling(f, k, xs, pvec, t)
        except MembershipFailure as err:
            return inputs, "membership failure", str(err)
        if not rep.equal:
            return inputs, rep.lhs, rep.rhs

    return law


def _bilinear(cfg, ctx, rng):
    d = cfg.d
    root = Ball.from_ints(ctx, (0,) * d, 0)

    def law(idx, srng):
        if idx % 2 == 0:
            # linear map: the order-1 quotient must equal the map at y
            polys = tuple({} for _ in range(cfg.e))
            for i in range(d):
                exps = tuple(1 if j == i else 0 for j in range(d))
                for P, a in zip(polys, rand_ints(ctx, srng, cfg.e)):
                    if a:
                        P[exps] = a
            f = FunctionModel([(root, (0, polys))], cfg.e)
            x, y = rand_vector(ctx, srng, d), rand_vector(ctx, srng, d)
            t = rand_t(ctx, srng)
            lhs = _dqk_fr(f, _fr_point(DQPoint(x, y, t)))
            rhs = f._eval_fr(y.to_fractions())
            inputs = {"kind": "linear", "t": str(t.to_fraction())}
        else:
            # bilinear map on a product of unit balls
            mat = [[srng.randrange(ctx.p ** ctx.N) for _ in range(d)] for _ in range(d)]
            poly = {}
            for i in range(d):
                for j in range(d):
                    exps = tuple(1 if a == i else 0 for a in range(d)) + tuple(
                        1 if b == j else 0 for b in range(d)
                    )
                    if mat[i][j]:
                        poly[exps] = mat[i][j]
            f = product_model([(root, root, (0, (poly,)))], 1)
            x, y = rand_vector(ctx, srng, 2 * d), rand_vector(ctx, srng, 2 * d)
            t = rand_t(ctx, srng)
            lhs = _dqk_fr(f, _fr_point(DQPoint(x, y, t)))
            xf, yf, tf = x.to_fractions(), y.to_fractions(), t.to_fraction()

            def beta(a, b):
                return sum(mat[i][j] * a[i] * b[j] for i in range(d) for j in range(d))

            rhs = (
                beta(xf[:d], yf[d:])
                + beta(yf[:d], xf[d:])
                + tf * beta(yf[:d], yf[d:]),
            )
            inputs = {"kind": "bilinear", "t": str(t.to_fraction())}
        if lhs != tuple(rhs):
            return inputs, lhs, tuple(rhs)

    return law


def _eval_deriv(cfg, ctx, rng):
    def law(idx, srng):
        gamma = rand_small_model(ctx, srng, cfg.d, cfg.e, cfg.deg)
        eta = rand_small_model(ctx, srng, cfg.d, cfg.e, cfg.deg)
        x = rand_vector(ctx, srng, cfg.d)
        y = rand_vector(ctx, srng, cfg.d)
        t = rand_small_t(ctx, srng, zero_ok=False)
        rep = check_eval_derivative(gamma, eta, x, y, t)
        if not rep.equal:
            return {"t": str(t.to_fraction())}, rep.lhs, rep.rhs

    return law


def _comp_deriv(cfg, ctx, rng):
    def law(idx, srng):
        gamma = rand_small_model(ctx, srng, cfg.d, cfg.e, cfg.deg)
        gamma1 = rand_small_model(ctx, srng, cfg.d, cfg.e, cfg.deg)
        # the limit route compares stored vectors, so the directional term
        # and the outer map applied to the inner image must both fit in N
        # digits: keep the inner maps and the sample point very small
        eta = rand_small_model(ctx, srng, cfg.d, cfg.d, min(cfg.deg, 2), nmono=2, cmax=1)
        eta1 = rand_small_model(ctx, srng, cfg.d, cfg.d, min(cfg.deg, 2), nmono=2, cmax=1)
        x = ctx.vector([srng.randrange(ctx.p) for _ in range(cfg.d)])
        t = rand_small_t(ctx, srng, zero_ok=False)
        inputs = {"t": str(t.to_fraction())}
        try:
            rep = check_composition_derivative(gamma, eta, gamma1, eta1, t, x)
        except PrecisionLoss as err:
            return inputs, "precision loss", str(err)
        if not (rep.equal and rep.limit_consistent):
            return inputs, rep.lhs, rep.rhs

    return law


def _partition(cfg, ctx, rng):
    root = ClopenRegion([Ball.from_ints(ctx, (0,) * cfg.d, 0)])

    def law(idx, srng):
        region = rand_region(ctx, srng, cfg.d)
        cover = [rand_region(ctx, srng, cfg.d) for _ in range(srng.randint(1, 3))]
        cover.append(root)
        try:
            parts = subordinate_partition(region, cover)
            verify_partition(region, parts, cover, cfg.m)
        except (ValueError, CoverIncomplete) as err:
            return {"balls": repr(region)}, str(err), "clean pass"

    return law


def _unity(cfg, ctx, rng):
    root = ClopenRegion([Ball.from_ints(ctx, (0,) * cfg.d, 0)])

    def law(idx, srng):
        region = rand_region(ctx, srng, cfg.d)
        cover = [rand_region(ctx, srng, cfg.d) for _ in range(srng.randint(1, 3))]
        cover.append(root)
        hs = partition_of_unity(region, cover)
        level = max(cfg.m, region.max_level())
        inputs = {"region": repr(region)}
        for h, member in zip(hs, cover):
            if not h.support.empty and not member.contains_region(h.support):
                return inputs, "support escapes its cover member", "1"
        # spot-check budget; the partition suite decides the structure
        # of every partition exactly
        for pt in itertools.islice(region.level_points(level), 1500):
            total = sum(h.support.contains_ints(pt) for h in hs)
            if total != 1:
                return inputs, "sum %d at %s" % (total, list(pt)), "1"

    return law


def _omega_isometry(cfg, ctx, rng):
    def law(idx, srng):
        try:
            g = rand_diffeo(ctx, srng, cfg.d, multi_piece=idx % 3 == 2)
        except NotCertified as err:
            return {"stage": "certify"}, str(err), "certificate"
        pairs = [(rand_ints(ctx, srng, cfg.d), rand_ints(ctx, srng, cfg.d)) for _ in range(50)]
        rep = isometry_check(g, pairs)
        if rep.violations:
            x, y = rep.violations[0]
            return {"x": str(ctx.vector(x)), "y": str(ctx.vector(y))}, "norm changed", "isometry"

    return law


def _inversion(cfg, ctx, rng):
    root = Ball.from_ints(ctx, (0,) * cfg.d, 0)
    level = _affordable_level(ctx.p, cfg.d, min(cfg.m, 3), 250)

    # a certified gamma has integral charts, so its residues mod p^M
    # decide v(gamma(x) - y) >= M exactly
    def law(idx, srng):
        g = rand_diffeo(ctx, srng, cfg.d)
        try:
            ys = [rand_ints(ctx, srng, cfg.d) for _ in range(5)]
            xs = invert_points(g, ys, ctx.N)
            for y, img in zip(ys, g.gamma.residues(xs, ctx.N)):
                if any((q - c) % ctx.modulus for q, c in zip(img, y)):
                    return {}, "residual above tolerance at y=%s" % (ctx.vector(y),), "exact roundtrip"
            # full roundtrip on every affordable cell; deciding a cell
            # at this level only needs the inverse to that precision
            reps = list(root.level_reps(level))
            xs, cell = invert_points(g, reps, level), ctx.p ** level
            for repnt, img in zip(reps, g.gamma.residues(xs, level)):
                if any((q - c) % cell for q, c in zip(img, repnt)):
                    return {}, "roundtrip misses cell %s" % (repnt,), "exact roundtrip"
        except IterationBudgetExceeded as err:
            return {}, str(err), "exact roundtrip"

    return law


def _group_axioms(cfg, ctx, rng):
    ids = tuple(range(8))
    mtop = _affordable_level(ctx.p, cfg.d, cfg.m, 300)

    def rand_element(srng):
        support = {}
        for _ in range(2):
            support[srng.choice(ids)] = rand_diffeo(ctx, srng, cfg.d)
        return WeakProductElement(ids, support)

    def same(e1, e2, m):
        for key in set(e1.support) | set(e2.support):
            p1 = e1.support[key].induced(m) if key in e1.support else None
            p2 = e2.support[key].induced(m) if key in e2.support else None
            ident = tuple(range(ctx.p ** (cfg.d * m)))
            if (p1 or ident) != (p2 or ident):
                return False
        return True

    def law(idx, srng):
        x, y, z = rand_element(srng), rand_element(srng), rand_element(srng)
        note = None
        # composition of certified maps respects the induced maps
        g1, g2 = rand_diffeo(ctx, srng, cfg.d), rand_diffeo(ctx, srng, cfg.d)
        comp = ModelEntry(g1).compose(ModelEntry(g2))
        for m in range(1, mtop + 1):
            want = perm_compose(induced_level_map(g1, m), induced_level_map(g2, m))
            if comp.induced(m) != want:
                note = "composition hom fails at level %d" % m
        if note is None and not same(wp_mul(wp_mul(x, y), z), wp_mul(x, wp_mul(y, z)), mtop):
            note = "associativity"
        if note is None and wp_mul(x, wp_inv(x)).support != {}:
            note = "inverse cancellation"
        if note is None and not same(wp_mul(x, WeakProductElement(ids, {})), x, mtop):
            note = "identity law"
        if note is not None:
            return {}, note, "group axioms"

    return law


def _cia_tensor(cfg, ctx, rng):
    F = quadratic_extension(ctx, ctx.p)
    algebras = [qp_algebra(ctx), matrix_algebra(ctx, 2)]
    tensors = [tensor_algebra(F, A) for A in algebras]

    def law(idx, srng):
        A = algebras[idx % 2]
        T = tensors[idx % 2]
        z = [
            ctx.vector([ctx.p * srng.randrange(ctx.p ** 3) for _ in range(A.n)])
            for _ in range(F.n)
        ]
        try:
            v = tensor_right_inverse(F, A, z)
        except SMatrixSingular as err:
            return {"z": str(z)}, str(err), "invertible"
        # coordinates in F (x) A run over the F index, then the A index
        phi_u = [c.to_fraction() for vec in z for c in vec.coords]
        phi_w = [c.to_fraction() for vec in v for c in vec.coords]
        u = tuple(q + o for q, o in zip(phi_u, T._one_fr))
        w = tuple(q + o for q, o in zip(phi_w, T._one_fr))
        # Fractions throughout, so a failure witness prints the same for
        # every coordinate (an untouched one stays the int 0 in _mul_fr)
        prod = tuple(Fraction(q) for q in T._mul_fr(u, w))
        ok = all(
            q == o or (q - o).numerator % ctx.p ** ctx.N == 0
            for q, o in zip(prod, T._one_fr)
        )
        if ok:
            direct = alg_inverse(T, ctx.vector([ctx.from_fraction(q) for q in u]))
            ok = tuple(s.to_fraction() for s in direct.coords) == tuple(
                ctx.from_fraction(q).to_fraction() for q in w
            )
        if not ok:
            return {"alg": "index %d" % (idx % 2)}, prod, "one"

    return law


def _cia_iota(cfg, ctx, rng):
    A = matrix_algebra(ctx, 2)
    one = A.one_vector()

    def law(idx, srng):
        x = one + ctx.vector([ctx.p * srng.randrange(ctx.p ** 4) for _ in range(A.n)])
        v = ctx.vector([srng.randrange(ctx.p ** 6) for _ in range(A.n)])
        t = rand_t(ctx, srng)
        rep = check_inversion_derivative(A, x, v, t)
        if not rep.equal:
            return {"t": str(t.to_fraction())}, rep.lhs, rep.rhs

    return law


def _oplus(cfg, ctx, rng):
    root = Ball.from_ints(ctx, (0,), 0)

    def cut(n):
        """The nonzero int n cut to N digits, as `ctx.vector` cuts it: the
        draws reach p^4, past p^N at N = 3."""
        c = ctx.from_int(n)
        return c.u * ctx.p ** c.v

    def model(poly):
        return FunctionModel([(root, (0, ({x: cut(a) for x, a in poly.items()},)))], 1)

    def law(idx, srng):
        fs = {}
        coeffs = {}
        for i in range(5):
            a, b = srng.randrange(1, ctx.p ** 4), srng.randrange(1, ctx.p ** 4)
            coeffs[i] = (a, b)
            fs[i] = model({(1,): a, (2,): b})
        support = srng.sample(range(5), 2)
        xs = {i: rand_vector(ctx, srng, 1) for i in support}
        note = None
        if idx % 5 == 4:
            # a constant term outside the exceptional set must be refused
            bad = dict(fs)
            bad[3] = model({(0,): srng.randrange(1, ctx.p ** 3)})
            try:
                oplus_apply(bad, xs)
                note = "zero condition accepted a constant term"
            except ZeroConditionViolated as err:
                if err.index != 3:
                    note = "witness index %r, expected 3" % (err.index,)
        else:
            out = oplus_apply(fs, xs)
            if not set(out) <= set(xs):
                note = "support grew to %s" % sorted(out)
            else:
                for i in support:
                    a, b = coeffs[i]
                    q = xs[i].to_fractions()[0]
                    want = ctx.from_fraction(a * q + b * q * q)
                    got = out.get(i)
                    if want.is_zero != (got is None) or (
                        got is not None and got.coords[0] != want
                    ):
                        note = "value mismatch at index %d" % i
                        break
        if note is not None:
            return {"support": support}, note, "componentwise law"

    return law


def _conjugate(cfg, ctx, rng):
    root = Ball.from_ints(ctx, (0,) * cfg.d, 0)
    balls = tuple(root.children())
    region = ClopenRegion(list(balls))
    m = _affordable_level(ctx.p, cfg.d, min(cfg.m, 2), 300)
    ident = tuple(range(ctx.p ** (cfg.d * m)))

    def law(idx, srng):
        perm = list(range(len(balls)))
        srng.shuffle(perm)
        pieces = []
        charts = {}
        for j, ball in enumerate(balls):
            chart = rand_diffeo(ctx, srng, cfg.d)
            charts[ball] = chart
            pieces.append((ball, balls[perm[j]], chart))
        gd = GlobalDiffeo(region, pieces)
        support = {
            balls[srng.randrange(len(balls))]: rand_diffeo(ctx, srng, cfg.d)
            for _ in range(2)
        }
        eta1 = WeakProductElement(balls, support)
        eta2 = WeakProductElement(
            balls, {balls[srng.randrange(len(balls))]: rand_diffeo(ctx, srng, cfg.d)}
        )
        out = conjugate_global(gd, eta1)
        for ball, entry in eta1.support.items():
            target = gd._by_source[ball][0]
            ph = induced_level_map(charts[ball], m)
            want = perm_compose(perm_compose(ph, entry.induced(m)), perm_inverse(ph))
            if out.support[target].induced(m) != want:
                return {}, "entry conjugation at %r" % (ball,), "conjugation laws"
        lhs = conjugate_global(gd, wp_mul(eta1, eta2))
        rhs = wp_mul(conjugate_global(gd, eta1), conjugate_global(gd, eta2))
        for key in set(lhs.support) | set(rhs.support):
            p1 = lhs.support[key].induced(m) if key in lhs.support else ident
            p2 = rhs.support[key].induced(m) if key in rhs.support else ident
            if p1 != p2:
                return {}, "homomorphism law at %r" % (key,), "conjugation laws"

    return law


# name -> cfg -> (checks, passed, failure)
SUITES = {
    "chain-rule": functools.partial(_run_samples, _chain_rule),
    "scaling": functools.partial(_run_samples, _scaling, fixed=_scaling_order_one),
    "bilinear": functools.partial(_run_samples, _bilinear),
    "eval-deriv": functools.partial(_run_samples, _eval_deriv),
    "comp-deriv": functools.partial(_run_samples, _comp_deriv),
    "partition": functools.partial(_run_samples, _partition),
    "unity": functools.partial(_run_samples, _unity),
    "omega-isometry": functools.partial(_run_samples, _omega_isometry),
    "inversion": functools.partial(_run_samples, _inversion),
    "group-axioms": functools.partial(_run_samples, _group_axioms),
    "cia-tensor": functools.partial(_run_samples, _cia_tensor),
    "cia-iota": functools.partial(_run_samples, _cia_iota),
    "oplus": functools.partial(_run_samples, _oplus),
    "conjugate": functools.partial(_run_samples, _conjugate),
}
