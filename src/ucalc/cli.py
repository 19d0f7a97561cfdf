"""Command-line front end: seeded verification suites, JSON conversion,
and one subcommand per engine area.

Results go to stdout as JSON with a one-line human summary on stderr.
Every random draw in a suite descends from the seed in its config
through one master generator, so any failing sample can be replayed
from the sample seed recorded in the report.
"""

import argparse
import itertools
import json
import os
import random
import sys
import time
from dataclasses import asdict, dataclass
from fractions import Fraction

from .balls import (
    Ball,
    ClopenRegion,
    CoverIncomplete,
    ball_from_json,
    ball_to_json,
    partition_of_unity,
    region_from_json,
    region_to_json,
    subordinate_partition,
    verify_partition,
)
from .calculus import (
    DQPoint,
    FunctionModel,
    MembershipFailure,
    OutOfDomain,
    _dqk_fr,
    _fr_point,
    check_chain_rule,
    check_composition_derivative,
    check_eval_derivative,
    check_scaling,
    dq1,
    model_from_json,
    model_to_json,
    product_model,
)
from .cia import (
    NotAUnit,
    SMatrixSingular,
    Singular,
    alg_inverse,
    algebra_from_json,
    algebra_to_json,
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
    invert_at,
    isometry_check,
)
from .padic import PadicContext, ParseError, is_prime, scalar_from_json, scalar_to_json
from .padic import vector_from_json, vector_to_json
from .weakprod import (
    GlobalDiffeo,
    InverseEntry,
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


class UsageError(ValueError):
    """A command-line value does not fit the input it is applied to."""


class ConfigInvalid(ValueError):
    """A suite config field violates its invariant."""


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
        if self.seed.bit_length() > 64:
            raise ConfigInvalid("seed must fit in 64 bits")
        try:
            prime = is_prime(self.p)
        except ValueError as err:
            raise ConfigInvalid(str(err)) from None
        if not prime:
            raise ConfigInvalid("p must be prime, got %d" % self.p)


@dataclass
class Report:
    suite: str
    config: SuiteConfig
    checks: int
    passed: int
    failure: dict
    wall_time: float

    def to_json(self):
        return {
            "suite": self.suite,
            "config": asdict(self.config),
            "checks": self.checks,
            "passed": self.passed,
            "failure": self.failure,
            "wall_time": self.wall_time,
        }


def _sample_seeds(cfg, rng):
    for idx in range(cfg.samples):
        yield idx, rng.getrandbits(64)


def _witness(idx, seed, inputs, lhs, rhs):
    return {
        "sample": idx,
        "sample_seed": seed,
        "inputs": inputs,
        "lhs": str(lhs),
        "rhs": str(rhs),
    }


def _rand_vector(ctx, rng, d):
    return ctx.vector([rng.randrange(ctx.p ** ctx.N) for _ in range(d)])


def _monomials(d, deg):
    exps = [()]
    for _ in range(d):
        exps = [e + (j,) for e in exps for j in range(deg + 1)]
    return [e for e in exps if 0 < sum(e) <= deg or e == (0,) * d]


def _rand_model(ctx, rng, d, e, deg, vmin=0):
    """Random polynomial map of the unit ball with p-integral values."""
    lead = ctx.p ** vmin
    coeffs = {}
    for exps in _monomials(d, deg):
        if rng.random() < 0.4:
            continue
        vec = ctx.vector([lead * rng.randrange(ctx.p ** (ctx.N - vmin)) for _ in range(e)])
        coeffs[exps] = vec
    root = Ball.from_ints(ctx, (0,) * d, 0)
    return FunctionModel([(root, coeffs)], e=e)


def _rand_t(ctx, rng, zero_ok=True):
    pool = [1, ctx.p, ctx.p ** 2, rng.randrange(1, ctx.p ** ctx.N)]
    if zero_ok:
        pool.append(0)
    return ctx.from_int(rng.choice(pool))


def _rand_small_model(ctx, rng, d, e, deg, nmono=3, cmax=2):
    """Random map with few small coefficients, so that composites and
    t-scaled sums of two such maps stay exactly representable at N digits."""
    coeffs = {}
    for exps in rng.sample(_monomials(d, deg), min(nmono, len(_monomials(d, deg)))):
        vec = ctx.vector([rng.randrange(cmax + 1) for _ in range(e)])
        coeffs[exps] = vec
    root = Ball.from_ints(ctx, (0,) * d, 0)
    return FunctionModel([(root, coeffs)], e=e)


def _rand_small_t(ctx, rng, zero_ok=True):
    pool = [1, 2, ctx.p, ctx.p ** 2]
    if zero_ok:
        pool.append(0)
    return ctx.from_int(rng.choice(pool))


def _affordable_level(p, d, m, cap):
    """Largest level <= m whose cell count p**(d*level) stays within cap.

    Exhaustive per-sample scans cost one evaluation per cell, so suites
    clamp their level to keep the whole run interactive; the fixed small
    cases stay at the requested level."""
    while m > 1 and p ** (d * m) > cap:
        m -= 1
    return m


def _rand_diffeo(ctx, rng, d=1, multi_piece=False):
    """Certified diffeomorphism with displacement small enough for the
    coefficient bound, so certification never falls back to enumeration."""
    vmin = halfball_valuation(ctx.p)
    if not multi_piece:
        sigma = _rand_model(ctx, rng, d, d, 2, vmin=vmin)
    else:
        pieces = []
        root = Ball.from_ints(ctx, (0,) * d, 0)
        for ball in root.children():
            lead = ctx.p ** (vmin + 1)
            coeffs = {
                exps: ctx.vector(
                    [lead * rng.randrange(ctx.p ** (ctx.N - vmin - 1)) for _ in range(d)]
                )
                for exps in _monomials(d, 2)
                if rng.random() < 0.6
            }
            pieces.append((ball, coeffs))
        sigma = FunctionModel(pieces, e=d)
    endo = BallEndo.from_displacement(sigma)
    return CertifiedDiffeo(endo=endo, cert=certify_omega(endo))


def _rand_region(ctx, rng, d, max_level=2):
    balls = []
    for _ in range(rng.randint(1, 3)):
        k = rng.randint(0, max_level)
        balls.append(
            Ball.from_ints(ctx, tuple(rng.randrange(ctx.p ** k) for _ in range(d)), k)
        )
    return ClopenRegion(balls)


def _suite_chain_rule(cfg):
    rng = random.Random(cfg.seed)
    ctx = PadicContext(cfg.p, cfg.N)
    checks = passed = 0
    failure = None
    for idx, seed in _sample_seeds(cfg, rng):
        srng = random.Random(seed)
        f = _rand_small_model(ctx, srng, cfg.d, cfg.d, cfg.deg)
        g = _rand_small_model(ctx, srng, cfg.d, cfg.e, cfg.deg)
        x = _rand_vector(ctx, srng, cfg.d)
        y = _rand_vector(ctx, srng, cfg.d)
        t = _rand_small_t(ctx, srng)
        rep = check_chain_rule(f, g, DQPoint(x, y, t))
        checks += 1
        if rep.equal:
            passed += 1
        elif failure is None:
            failure = _witness(idx, seed, {"t": str(t.to_fraction())}, rep.lhs, rep.rhs)
    return checks, passed, failure


def _suite_scaling(cfg):
    rng = random.Random(cfg.seed)
    ctx = PadicContext(cfg.p, cfg.N)
    checks = passed = 0
    failure = None
    # trivially passing subcase: order 1 with scaling factor 1
    base = _rand_model(ctx, random.Random(cfg.seed), cfg.d, cfg.e, cfg.deg)
    xs = [_rand_vector(ctx, rng, cfg.d) for _ in range(2)]
    rep = check_scaling(base, 1, xs, [ctx.from_int(rng.randrange(ctx.p ** 4))], ctx.one())
    checks += 1
    if rep.equal:
        passed += 1
    else:
        failure = _witness(0, cfg.seed, {"k": "1", "t": "1"}, rep.lhs, rep.rhs)
    for idx, seed in _sample_seeds(cfg, rng):
        srng = random.Random(seed)
        k = srng.randint(1, 3)
        f = _rand_model(ctx, srng, cfg.d, cfg.e, cfg.deg)
        xs = [_rand_vector(ctx, srng, cfg.d) for _ in range(2 ** k)]
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
        try:
            rep = check_scaling(f, k, xs, pvec, t)
            ok, lhs, rhs = rep.equal, rep.lhs, rep.rhs
        except MembershipFailure as err:
            ok, lhs, rhs = False, "membership failure", str(err)
        checks += 1
        if ok:
            passed += 1
        elif failure is None:
            failure = _witness(
                idx, seed, {"k": str(k), "t": str(t.to_fraction())}, lhs, rhs
            )
    return checks, passed, failure


def _suite_bilinear(cfg):
    rng = random.Random(cfg.seed)
    ctx = PadicContext(cfg.p, cfg.N)
    d = cfg.d
    root = Ball.from_ints(ctx, (0,) * d, 0)
    checks = passed = 0
    failure = None
    for idx, seed in _sample_seeds(cfg, rng):
        srng = random.Random(seed)
        if idx % 2 == 0:
            # linear map: the order-1 quotient must equal the map at y
            coeffs = {}
            for i in range(d):
                exps = tuple(1 if j == i else 0 for j in range(d))
                coeffs[exps] = _rand_vector(ctx, srng, cfg.e)
            f = FunctionModel([(root, coeffs)], e=cfg.e)
            x, y = _rand_vector(ctx, srng, d), _rand_vector(ctx, srng, d)
            t = _rand_t(ctx, srng)
            lhs = _dqk_fr(f, _fr_point(DQPoint(x, y, t)))
            rhs = f._eval_fr(y.to_fractions())
            inputs = {"kind": "linear", "t": str(t.to_fraction())}
        else:
            # bilinear map on a product of unit balls
            mat = [[srng.randrange(ctx.p ** ctx.N) for _ in range(d)] for _ in range(d)]
            coeffs = {}
            for i in range(d):
                for j in range(d):
                    exps = tuple(1 if a == i else 0 for a in range(d)) + tuple(
                        1 if b == j else 0 for b in range(d)
                    )
                    coeffs[exps] = ctx.vector([mat[i][j]])
            f = product_model([(root, root, coeffs)], e=1)
            x, y = _rand_vector(ctx, srng, 2 * d), _rand_vector(ctx, srng, 2 * d)
            t = _rand_t(ctx, srng)
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
        checks += 1
        if lhs == tuple(rhs):
            passed += 1
        elif failure is None:
            failure = _witness(idx, seed, inputs, lhs, tuple(rhs))
    return checks, passed, failure


def _suite_eval_deriv(cfg):
    rng = random.Random(cfg.seed)
    ctx = PadicContext(cfg.p, cfg.N)
    checks = passed = 0
    failure = None
    for idx, seed in _sample_seeds(cfg, rng):
        srng = random.Random(seed)
        gamma = _rand_small_model(ctx, srng, cfg.d, cfg.e, cfg.deg)
        eta = _rand_small_model(ctx, srng, cfg.d, cfg.e, cfg.deg)
        x = _rand_vector(ctx, srng, cfg.d)
        y = _rand_vector(ctx, srng, cfg.d)
        t = _rand_small_t(ctx, srng, zero_ok=False)
        rep = check_eval_derivative(gamma, eta, x, y, t)
        checks += 1
        if rep.equal:
            passed += 1
        elif failure is None:
            failure = _witness(idx, seed, {"t": str(t.to_fraction())}, rep.lhs, rep.rhs)
    return checks, passed, failure


def _suite_comp_deriv(cfg):
    rng = random.Random(cfg.seed)
    ctx = PadicContext(cfg.p, cfg.N)
    checks = passed = 0
    failure = None
    for idx, seed in _sample_seeds(cfg, rng):
        srng = random.Random(seed)
        gamma = _rand_small_model(ctx, srng, cfg.d, cfg.e, cfg.deg)
        gamma1 = _rand_small_model(ctx, srng, cfg.d, cfg.e, cfg.deg)
        # the limit route compares stored vectors, so the directional term
        # and the outer map applied to the inner image must both fit in N
        # digits: keep the inner maps and the sample point very small
        eta = _rand_small_model(ctx, srng, cfg.d, cfg.d, min(cfg.deg, 2), nmono=2, cmax=1)
        eta1 = _rand_small_model(ctx, srng, cfg.d, cfg.d, min(cfg.deg, 2), nmono=2, cmax=1)
        x = ctx.vector([srng.randrange(ctx.p) for _ in range(cfg.d)])
        t = _rand_small_t(ctx, srng, zero_ok=False)
        rep = check_composition_derivative(gamma, eta, gamma1, eta1, t, x)
        checks += 1
        if rep.equal and rep.limit_consistent:
            passed += 1
        elif failure is None:
            failure = _witness(idx, seed, {"t": str(t.to_fraction())}, rep.lhs, rep.rhs)
    return checks, passed, failure


def _suite_partition(cfg):
    rng = random.Random(cfg.seed)
    ctx = PadicContext(cfg.p, cfg.N)
    checks = passed = 0
    failure = None
    root = ClopenRegion([Ball.from_ints(ctx, (0,) * cfg.d, 0)])
    for idx, seed in _sample_seeds(cfg, rng):
        srng = random.Random(seed)
        region = _rand_region(ctx, srng, cfg.d)
        cover = [_rand_region(ctx, srng, cfg.d) for _ in range(srng.randint(1, 3))]
        cover.append(root)
        checks += 1
        try:
            parts = subordinate_partition(region, cover)
            # scanning beyond the finest ball is uniform per cell, so only
            # go deeper than needed while the cell count stays affordable
            needed = max(
                [region.max_level()]
                + [b.k for b, _ in parts]
                + [c.max_level() for c in cover if not c.empty]
            )
            level = max(needed, _affordable_level(ctx.p, cfg.d, cfg.m, 2000))
            verify_partition(region, parts, cover, level)
            passed += 1
        except (ValueError, CoverIncomplete) as err:
            if failure is None:
                failure = _witness(idx, seed, {"balls": repr(region)}, str(err), "clean pass")
    return checks, passed, failure


def _suite_unity(cfg):
    rng = random.Random(cfg.seed)
    ctx = PadicContext(cfg.p, cfg.N)
    checks = passed = 0
    failure = None
    root = ClopenRegion([Ball.from_ints(ctx, (0,) * cfg.d, 0)])
    for idx, seed in _sample_seeds(cfg, rng):
        srng = random.Random(seed)
        region = _rand_region(ctx, srng, cfg.d)
        cover = [_rand_region(ctx, srng, cfg.d) for _ in range(srng.randint(1, 3))]
        cover.append(root)
        hs = partition_of_unity(region, cover)
        level = max(cfg.m, region.max_level())
        ok, bad = True, None
        for h, member in zip(hs, cover):
            if not h.support.empty and not member.contains_region(h.support):
                ok, bad = False, "support escapes its cover member"
                break
        if ok:
            # spot-check budget; the partition suite owns the cheap
            # exhaustive structure checks
            for pt in itertools.islice(region.level_points(level), 1500):
                frs = tuple(Fraction(c) for c in pt)
                total = sum(h.at_fractions(frs) for h in hs)
                if total != 1:
                    ok, bad = False, "sum %d at %s" % (total, list(pt))
                    break
        checks += 1
        if ok:
            passed += 1
        elif failure is None:
            failure = _witness(idx, seed, {"region": repr(region)}, bad, "1")
    return checks, passed, failure


def _suite_omega_isometry(cfg):
    rng = random.Random(cfg.seed)
    ctx = PadicContext(cfg.p, cfg.N)
    checks = passed = 0
    failure = None
    for idx, seed in _sample_seeds(cfg, rng):
        srng = random.Random(seed)
        checks += 1
        try:
            g = _rand_diffeo(ctx, srng, cfg.d, multi_piece=idx % 3 == 2)
        except NotCertified as err:
            if failure is None:
                failure = _witness(idx, seed, {"stage": "certify"}, str(err), "certificate")
            continue
        pairs = [
            (_rand_vector(ctx, srng, cfg.d), _rand_vector(ctx, srng, cfg.d))
            for _ in range(50)
        ]
        rep = isometry_check(g, pairs)
        if not rep.violations:
            passed += 1
        elif failure is None:
            x, y = rep.violations[0]
            failure = _witness(idx, seed, {"x": str(x), "y": str(y)}, "norm changed", "isometry")
    return checks, passed, failure


def _suite_inversion(cfg):
    rng = random.Random(cfg.seed)
    ctx = PadicContext(cfg.p, cfg.N)
    checks = passed = 0
    failure = None
    root = Ball.from_ints(ctx, (0,) * cfg.d, 0)
    level = _affordable_level(ctx.p, cfg.d, min(cfg.m, 3), 250)
    for idx, seed in _sample_seeds(cfg, rng):
        srng = random.Random(seed)
        g = _rand_diffeo(ctx, srng, cfg.d)
        checks += 1
        try:
            ok, note = True, None
            for _ in range(5):
                y = _rand_vector(ctx, srng, cfg.d)
                x = invert_at(g, y, ctx.N)
                res = tuple(
                    a - b
                    for a, b in zip(g.gamma._eval_fr(x.to_fractions()), y.to_fractions())
                )
                if any(q.numerator % ctx.p ** ctx.N for q in res if q):
                    ok, note = False, "residual above tolerance at y=%s" % (y,)
                    break
            if ok:
                # full roundtrip on every affordable cell; deciding a cell
                # at this level only needs the inverse to that precision
                for repnt in root.level_reps(level):
                    yv = ctx.vector(repnt)
                    x = invert_at(g, yv, level)
                    img = g.gamma._eval_fr(x.to_fractions())
                    if any(int(q - c) % ctx.p ** level for q, c in zip(img, repnt)):
                        ok, note = False, "roundtrip misses cell %s" % (repnt,)
                        break
        except IterationBudgetExceeded as err:
            ok, note = False, str(err)
        if ok:
            passed += 1
        elif failure is None:
            failure = _witness(idx, seed, {}, note, "exact roundtrip")
    return checks, passed, failure


def _suite_group_axioms(cfg):
    rng = random.Random(cfg.seed)
    ctx = PadicContext(cfg.p, cfg.N)
    ids = tuple(range(8))
    checks = passed = 0
    failure = None

    def rand_element(srng):
        support = {}
        for _ in range(2):
            support[srng.choice(ids)] = _rand_diffeo(ctx, srng, cfg.d)
        return WeakProductElement(ids, support)

    def same(e1, e2, m):
        for key in set(e1.support) | set(e2.support):
            p1 = e1.support[key].induced(m) if key in e1.support else None
            p2 = e2.support[key].induced(m) if key in e2.support else None
            ident = tuple(range(ctx.p ** (cfg.d * m)))
            if (p1 or ident) != (p2 or ident):
                return False
        return True

    mtop = _affordable_level(ctx.p, cfg.d, cfg.m, 300)
    for idx, seed in _sample_seeds(cfg, rng):
        srng = random.Random(seed)
        checks += 1
        x, y, z = rand_element(srng), rand_element(srng), rand_element(srng)
        note = None
        # composition of certified maps respects the induced maps
        g1, g2 = _rand_diffeo(ctx, srng, cfg.d), _rand_diffeo(ctx, srng, cfg.d)
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
        if note is None:
            passed += 1
        elif failure is None:
            failure = _witness(idx, seed, {}, note, "group axioms")
    return checks, passed, failure


def _suite_cia_tensor(cfg):
    rng = random.Random(cfg.seed)
    ctx = PadicContext(cfg.p, cfg.N)
    F = quadratic_extension(ctx, ctx.p)
    algebras = [qp_algebra(ctx), matrix_algebra(ctx, 2)]
    tensors = [tensor_algebra(F, A) for A in algebras]
    checks = passed = 0
    failure = None
    for idx, seed in _sample_seeds(cfg, rng):
        srng = random.Random(seed)
        A = algebras[idx % 2]
        T = tensors[idx % 2]
        z = [
            ctx.vector([ctx.p * srng.randrange(ctx.p ** 3) for _ in range(A.n)])
            for _ in range(F.n)
        ]
        checks += 1
        try:
            v = tensor_right_inverse(F, A, z)
        except SMatrixSingular as err:
            if failure is None:
                failure = _witness(idx, seed, {"z": str(z)}, str(err), "invertible")
            continue
        phi_u = [Fraction(0)] * (F.n * A.n)
        phi_w = [Fraction(0)] * (F.n * A.n)
        for k in range(F.n):
            for a in range(A.n):
                phi_u[k * A.n + a] = z[k].coords[a].to_fraction()
                phi_w[k * A.n + a] = v[k].coords[a].to_fraction()
        u = tuple(q + o for q, o in zip(phi_u, T._one_fr))
        w = tuple(q + o for q, o in zip(phi_w, T._one_fr))
        prod = T._mul_fr(u, w)
        ok = all(
            q == o or (q - o).numerator % ctx.p ** ctx.N == 0
            for q, o in zip(prod, T._one_fr)
        )
        if ok:
            direct = alg_inverse(T, ctx.vector([ctx.from_fraction(q) for q in u]))
            ok = tuple(s.to_fraction() for s in direct.coords) == tuple(
                ctx.from_fraction(q).to_fraction() for q in w
            )
        if ok:
            passed += 1
        elif failure is None:
            failure = _witness(idx, seed, {"alg": "index %d" % (idx % 2)}, prod, "one")
    return checks, passed, failure


def _suite_cia_iota(cfg):
    rng = random.Random(cfg.seed)
    ctx = PadicContext(cfg.p, cfg.N)
    A = matrix_algebra(ctx, 2)
    one = A.one_vector()
    checks = passed = 0
    failure = None
    for idx, seed in _sample_seeds(cfg, rng):
        srng = random.Random(seed)
        x = one + ctx.vector([ctx.p * srng.randrange(ctx.p ** 4) for _ in range(A.n)])
        v = ctx.vector([srng.randrange(ctx.p ** 6) for _ in range(A.n)])
        t = _rand_t(ctx, srng)
        rep = check_inversion_derivative(A, x, v, t)
        checks += 1
        if rep.equal:
            passed += 1
        elif failure is None:
            failure = _witness(idx, seed, {"t": str(t.to_fraction())}, rep.lhs, rep.rhs)
    return checks, passed, failure


def _suite_oplus(cfg):
    rng = random.Random(cfg.seed)
    ctx = PadicContext(cfg.p, cfg.N)
    checks = passed = 0
    failure = None
    for idx, seed in _sample_seeds(cfg, rng):
        srng = random.Random(seed)
        fs = {}
        coeffs = {}
        for i in range(5):
            a, b = srng.randrange(1, ctx.p ** 4), srng.randrange(1, ctx.p ** 4)
            coeffs[i] = (a, b)
            fs[i] = _model_from_coeffs(ctx, {(1,): (a,), (2,): (b,)})
        support = srng.sample(range(5), 2)
        xs = {i: _rand_vector(ctx, srng, 1) for i in support}
        checks += 1
        note = None
        if idx % 5 == 4:
            # a constant term outside the exceptional set must be refused
            bad = dict(fs)
            bad[3] = _model_from_coeffs(ctx, {(0,): (srng.randrange(1, ctx.p ** 3),)})
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
        if note is None:
            passed += 1
        elif failure is None:
            failure = _witness(idx, seed, {"support": support}, note, "componentwise law")
    return checks, passed, failure


def _suite_conjugate(cfg):
    rng = random.Random(cfg.seed)
    ctx = PadicContext(cfg.p, cfg.N)
    root = Ball.from_ints(ctx, (0,) * cfg.d, 0)
    balls = tuple(root.children())
    region = ClopenRegion(list(balls))
    checks = passed = 0
    failure = None
    for idx, seed in _sample_seeds(cfg, rng):
        srng = random.Random(seed)
        perm = list(range(len(balls)))
        srng.shuffle(perm)
        pieces = []
        charts = {}
        for j, ball in enumerate(balls):
            chart = _rand_diffeo(ctx, srng, cfg.d)
            charts[ball] = chart
            pieces.append((ball, balls[perm[j]], chart))
        gd = GlobalDiffeo(region, pieces)
        support = {
            balls[srng.randrange(len(balls))]: _rand_diffeo(ctx, srng, cfg.d)
            for _ in range(2)
        }
        eta1 = WeakProductElement(balls, support)
        eta2 = WeakProductElement(
            balls, {balls[srng.randrange(len(balls))]: _rand_diffeo(ctx, srng, cfg.d)}
        )
        checks += 1
        note = None
        out = conjugate_global(gd, eta1)
        m = _affordable_level(ctx.p, cfg.d, min(cfg.m, 2), 300)
        for ball, entry in eta1.support.items():
            target = gd._by_source[ball][0]
            ph = induced_level_map(charts[ball], m)
            want = perm_compose(perm_compose(ph, entry.induced(m)), perm_inverse(ph))
            if out.support[target].induced(m) != want:
                note = "entry conjugation at %r" % (ball,)
                break
        if note is None:
            lhs = conjugate_global(gd, wp_mul(eta1, eta2))
            rhs = wp_mul(conjugate_global(gd, eta1), conjugate_global(gd, eta2))
            keys = set(lhs.support) | set(rhs.support)
            ident = tuple(range(ctx.p ** (cfg.d * m)))
            for key in keys:
                p1 = lhs.support[key].induced(m) if key in lhs.support else ident
                p2 = rhs.support[key].induced(m) if key in rhs.support else ident
                if p1 != p2:
                    note = "homomorphism law at %r" % (key,)
                    break
        if note is None:
            passed += 1
        elif failure is None:
            failure = _witness(idx, seed, {}, note, "conjugation laws")
    return checks, passed, failure


def _model_from_coeffs(ctx, coeffs, d=1):
    cmap = {exps: ctx.vector(vals) for exps, vals in coeffs.items()}
    return FunctionModel([(Ball.from_ints(ctx, (0,) * d, 0), cmap)], e=len(next(iter(coeffs.values()))))


SUITES = {
    "chain-rule": _suite_chain_rule,
    "scaling": _suite_scaling,
    "bilinear": _suite_bilinear,
    "eval-deriv": _suite_eval_deriv,
    "comp-deriv": _suite_comp_deriv,
    "partition": _suite_partition,
    "unity": _suite_unity,
    "omega-isometry": _suite_omega_isometry,
    "inversion": _suite_inversion,
    "group-axioms": _suite_group_axioms,
    "cia-tensor": _suite_cia_tensor,
    "cia-iota": _suite_cia_iota,
    "oplus": _suite_oplus,
    "conjugate": _suite_conjugate,
}


def run_suite(name, cfg):
    if name not in SUITES:
        raise UnknownSuite("no suite named %r; known: %s" % (name, ", ".join(sorted(SUITES))))
    cfg.validate()
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


_FORMATS = {
    "scalar": (scalar_from_json, scalar_to_json),
    "vector": (vector_from_json, vector_to_json),
    "ball": (ball_from_json, ball_to_json),
    "region": (region_from_json, region_to_json),
    "model": (model_from_json, model_to_json),
    "algebra": (algebra_from_json, algebra_to_json),
}


def convert(obj, src, dst):
    """Reparse a JSON value as `src` and re-emit it as `dst` in canonical
    form; the only cross-format direction is lifting a ball to a region."""
    if src not in _FORMATS or dst not in _FORMATS:
        raise ParseError("unknown format; known: %s" % ", ".join(sorted(_FORMATS)))
    value = _FORMATS[src][0](obj)
    if src == dst:
        return _FORMATS[dst][1](value)
    if (src, dst) == ("ball", "region"):
        return region_to_json(ClopenRegion([value]))
    raise ParseError("no conversion from %s to %s" % (src, dst))


def canonical_json(obj):
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Command handlers. Each returns (exit_code, payload, human_line).


def _read_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as err:
        raise ParseError(str(err))
    except json.JSONDecodeError as err:
        raise ParseError("invalid JSON: %s" % err, "%s:%d:%d" % (path, err.lineno, err.colno))


def _parse_fractions(text):
    try:
        return [Fraction(part) for part in text.split(",")]
    except (ValueError, ZeroDivisionError) as err:
        raise ParseError("bad rational list %r (%s)" % (text, err))


def _flag_values(text, n, flag):
    """The rationals of a comma-separated flag, which must hold n of them."""
    vals = _parse_fractions(text)
    if len(vals) != n:
        raise UsageError("--%s takes %d value%s here, got %d" % (flag, n, "" if n == 1 else "s", len(vals)))
    return vals


def _ctx_vector(ctx, frs):
    return ctx.vector([ctx.from_fraction(q) for q in frs])


def _cmd_partition(ns):
    region = region_from_json(_read_json(ns.region))
    cover = [region_from_json(_read_json(path)) for path in ns.cover]
    level = ns.verify_level if ns.verify_level is not None else 3
    try:
        parts = subordinate_partition(region, cover)
        count = verify_partition(region, parts, cover, level)
    except (CoverIncomplete, ValueError) as err:
        return 1, {"error": str(err)}, "partition failed: %s" % err
    payload = {
        "parts": [{"ball": ball_to_json(b), "member": i} for b, i in parts],
        "points_checked": count,
        "level": level,
    }
    return 0, payload, "partition verified: %d balls, %d points at level %d" % (
        len(parts),
        count,
        level,
    )


def _cmd_dq(ns):
    f = model_from_json(_read_json(ns.fn))
    ctx = f.ctx
    x = _ctx_vector(ctx, _flag_values(ns.x, f.d, "x"))
    y = _ctx_vector(ctx, _flag_values(ns.y, f.d, "y"))
    (tq,) = _flag_values(ns.t, 1, "t")
    t = ctx.from_fraction(tq)
    try:
        value = dq1(f, DQPoint(x, y, t))
    except (OutOfDomain, ValueError) as err:
        return 1, {"error": str(err)}, "dq failed: %s" % err
    return 0, {"value": vector_to_json(value)}, "dq1 = %s" % (value,)


def _cmd_verify(ns):
    cfg = SuiteConfig(
        seed=ns.seed if ns.seed is not None else 42,
        p=ns.p if ns.p is not None else 3,
        d=ns.d,
        e=ns.e,
        N=ns.N if ns.N is not None else 12,
        m=ns.verify_level if ns.verify_level is not None else 3,
        samples=ns.samples,
        deg=ns.deg,
    )
    report = run_suite(ns.suite, cfg)
    ok = report.passed == report.checks
    human = "suite %s: %d/%d passed (%.2fs)" % (
        ns.suite,
        report.passed,
        report.checks,
        report.wall_time,
    )
    return (0 if ok else 1), report.to_json(), human


def _certified(model, level):
    endo = BallEndo(model)
    return CertifiedDiffeo(endo=endo, cert=certify_omega(endo, m=level))


def _cmd_diffeo(ns):
    level = ns.verify_level if ns.verify_level is not None else 3
    model = model_from_json(_read_json(ns.endo))
    if ns.action == "invert":
        y = _ctx_vector(model.ctx, _flag_values(ns.y, model.d, "y"))
    if ns.action == "certify":
        level = ns.level if ns.level is not None else level
        try:
            endo = BallEndo(model)
        except ValueError as err:
            return 1, {"certified": False, "error": str(err)}, "not a self-map: %s" % err
        try:
            cert = certify_omega(endo, m=level)
        except NotCertified as err:
            payload = {
                "certified": False,
                "witness": [str(w) for w in err.witness] if err.witness else None,
            }
            return 1, payload, "certification failed: %s" % err
        payload = {
            "certified": True,
            "method": cert.method,
            "v_min": cert.v_min,
            "level": cert.level,
        }
        return 0, payload, "certified via %s" % cert.method
    g = _certified(model, level)
    if ns.action == "invert":
        try:
            x = invert_at(g, y, ns.prec)
        except (ValueError, IterationBudgetExceeded) as err:
            return 1, {"error": str(err)}, "inversion failed: %s" % err
        return 0, {"preimage": vector_to_json(x)}, "preimage = %s" % (x,)
    perm = induced_level_map(g, ns.m)
    return 0, {"perm": list(perm), "m": ns.m}, "induced map on %d cells" % len(perm)


def _cmd_alg(ns):
    A = algebra_from_json(_read_json(ns.alg))
    elt = vector_from_json(_read_json(ns.elt))
    try:
        inv = alg_inverse(A, elt)
    except (NotAUnit, Singular) as err:
        return 1, {"error": str(err)}, "inversion failed: %s" % err
    return 0, {"inverse": vector_to_json(inv)}, "inverse computed"


def _entry_to_json(entry, m):
    out = {"induced": list(entry.induced(m)), "level": m}
    if isinstance(entry, ModelEntry):
        out["kind"] = "model"
        out["model"] = model_to_json(entry.g.gamma)
    elif isinstance(entry, InverseEntry):
        out["kind"] = "inverse"
        out["inverse_of"] = model_to_json(entry.g.gamma)
    else:
        out["kind"] = "composite"
    return out


def _load_bundle(path, level, ball_ids=False):
    obj = _read_json(path)
    if not isinstance(obj, dict) or not all(
        isinstance(obj.get(key), list) for key in ("index", "support")
    ):
        raise ParseError("bundle needs index and support arrays")
    base = os.path.dirname(os.path.abspath(path))

    def decode_id(raw, where):
        if ball_ids:
            return ball_from_json(raw, where)
        return json.dumps(raw, sort_keys=True)

    index = [decode_id(raw, "$.index[%d]" % i) for i, raw in enumerate(obj["index"])]
    support = {}
    for i, item in enumerate(obj["support"]):
        where = "$.support[%d]" % i
        if not isinstance(item, dict) or "id" not in item or "endo" not in item:
            raise ParseError("support item needs id and endo", where)
        key = decode_id(item["id"], where + ".id")
        endo = item["endo"]
        if isinstance(endo, str):
            endo = _read_json(os.path.join(base, endo))
        support[key] = _certified(model_from_json(endo, where + ".endo"), level)
    return WeakProductElement(index, support)


def _element_payload(element, m, ball_ids=False):
    def encode_id(key):
        return ball_to_json(key) if ball_ids else json.loads(key)

    return {
        "index": [encode_id(key) for key in element.index_set],
        "support": [
            {"id": encode_id(key), "entry": _entry_to_json(entry, m)}
            for key, entry in sorted(element.support.items(), key=lambda kv: repr(kv[0]))
        ],
    }


def _cmd_wp(ns):
    level = ns.verify_level if ns.verify_level is not None else 3
    try:
        if ns.action == "mul":
            out = wp_mul(_load_bundle(ns.a, level), _load_bundle(ns.b, level))
        elif ns.action == "inv":
            out = wp_inv(_load_bundle(ns.a, level))
        else:
            obj = _read_json(ns.glob)
            if not isinstance(obj, dict) or not isinstance(obj.get("pieces", []), list):
                raise ParseError("global diffeo needs a region and a pieces array")
            region = region_from_json(obj.get("region"), "$.region")
            pieces = []
            for i, item in enumerate(obj.get("pieces", [])):
                where = "$.pieces[%d]" % i
                if not isinstance(item, dict):
                    raise ParseError("piece needs source, target and chart", where)
                src = ball_from_json(item.get("source"), where + ".source")
                dst = ball_from_json(item.get("target"), where + ".target")
                chart = _certified(model_from_json(item.get("chart"), where + ".chart"), level)
                pieces.append((src, dst, chart))
            gd = GlobalDiffeo(region, pieces)
            out = conjugate_global(gd, _load_bundle(ns.eta, level, ball_ids=True))
            payload = _element_payload(out, min(level, 2), ball_ids=True)
            return 0, payload, "conjugated: support on %d balls" % len(out.support)
    except ParseError:
        raise
    except (ValueError, NotCertified) as err:
        return 1, {"error": str(err)}, "wp %s failed: %s" % (ns.action, err)
    payload = _element_payload(out, min(level, 3))
    return 0, payload, "wp %s: support size %d" % (ns.action, len(out.support))


def _cmd_convert(ns):
    out = convert(_read_json(ns.file), ns.src, ns.dst)
    return 0, out, "converted %s -> %s" % (ns.src, ns.dst)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ucalc",
        description="exact difference-quotient calculus over the p-adic integers",
    )
    parser.add_argument("--p", type=int, help="prime (default 3)")
    parser.add_argument("--N", type=int, help="relative precision in digits (default 12)")
    parser.add_argument("--seed", type=int, help="master seed for suites (default 42)")
    parser.add_argument(
        "--verify-level",
        type=int,
        help="exhaustive check level m (default 3)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("partition", help="partition a region subordinate to a cover")
    sp.add_argument("--region", required=True)
    sp.add_argument("--cover", required=True, nargs="+")
    sp.set_defaults(handler=_cmd_partition)

    sp = sub.add_parser("dq", help="order-1 difference quotient of a model")
    sp.add_argument("--fn", required=True)
    sp.add_argument("--x", required=True)
    sp.add_argument("--y", required=True)
    sp.add_argument("--t", required=True)
    sp.set_defaults(handler=_cmd_dq)

    sp = sub.add_parser("verify", help="run a seeded verification suite")
    sp.add_argument("suite")
    sp.add_argument("--samples", type=int, default=100)
    sp.add_argument("--d", type=int, default=1)
    sp.add_argument("--e", type=int, default=1)
    sp.add_argument("--deg", type=int, default=3)
    sp.set_defaults(handler=_cmd_verify)

    sp = sub.add_parser("diffeo", help="certify, invert or truncate a ball self-map")
    sp.add_argument("action", choices=["certify", "invert", "induced"])
    sp.add_argument("--endo", required=True)
    sp.add_argument("--level", type=int, help="certification level (certify)")
    sp.add_argument("--y", help="target point (invert)")
    sp.add_argument("--prec", type=int, default=12, help="digits of preimage (invert)")
    sp.add_argument("--m", type=int, default=2, help="induced map level (induced)")
    sp.set_defaults(handler=_cmd_diffeo)

    sp = sub.add_parser("alg", help="structure-constant algebra operations")
    sp.add_argument("action", choices=["invert"])
    sp.add_argument("--alg", required=True)
    sp.add_argument("--elt", required=True)
    sp.set_defaults(handler=_cmd_alg)

    sp = sub.add_parser("wp", help="weak-product element operations")
    sp.add_argument("action", choices=["mul", "inv", "conjugate"])
    sp.add_argument("--a", help="element bundle (mul, inv)")
    sp.add_argument("--b", help="second element bundle (mul)")
    sp.add_argument("--global", dest="glob", help="global diffeo file (conjugate)")
    sp.add_argument("--eta", help="ball-indexed element bundle (conjugate)")
    sp.set_defaults(handler=_cmd_wp)

    sp = sub.add_parser("convert", help="reparse and canonicalize a JSON file")
    sp.add_argument("--file", required=True)
    sp.add_argument("--from", dest="src", required=True, choices=sorted(_FORMATS))
    sp.add_argument("--to", dest="dst", required=True, choices=sorted(_FORMATS))
    sp.set_defaults(handler=_cmd_convert)

    return parser


# the global flags each command reads; the others are refused, not ignored
_GLOBAL_FLAGS = {
    "verify": ("p", "N", "seed", "verify_level"),
    "partition": ("verify_level",),
    "diffeo": ("verify_level",),
    "wp": ("verify_level",),
}


def main(argv=None):
    parser = build_parser()
    ns = parser.parse_args(argv)
    for flag in ("p", "N", "seed", "verify_level"):
        if getattr(ns, flag) is not None and flag not in _GLOBAL_FLAGS.get(ns.command, ()):
            parser.error("%s does not use --%s" % (ns.command, flag.replace("_", "-")))
    if ns.command == "wp":
        needed = {"mul": ("a", "b"), "inv": ("a",), "conjugate": ("glob", "eta")}[ns.action]
        for attr in needed:
            if getattr(ns, attr) is None:
                parser.error("wp %s needs --%s" % (ns.action, "global" if attr == "glob" else attr))
    if ns.command == "diffeo" and ns.action == "invert" and ns.y is None:
        parser.error("diffeo invert needs --y")
    try:
        code, payload, human = ns.handler(ns)
    except ParseError as err:
        return _refuse(2, {"error": str(err), "path": err.path}, "parse error: %s" % err)
    except (UnknownSuite, ConfigInvalid, UsageError) as err:
        return _refuse(2, {"error": str(err)}, "usage error: %s" % err)
    except (ValueError, ArithmeticError, RuntimeError) as err:
        return _refuse(1, {"error": str(err)}, "error: %s" % err)
    sys.stdout.write(canonical_json(payload))
    print(human, file=sys.stderr)
    return code


def _refuse(code, payload, human):
    """Error payloads go to stdout on one line, not in canonical form."""
    sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
    print(human, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
