"""End-to-end acceptance batch.

Every check in here is exact: equalities of p-adic scalars, fractions,
or induced cell maps, never float comparisons.  Each test prints one
verdict line with its wall time so the batch reads as a checklist.
"""

import random
import sys
import time
from fractions import Fraction

from ucalc.balls import Ball, ClopenRegion, partition_of_unity, subordinate_partition, verify_partition
from ucalc.calculus import (
    DQPoint,
    FunctionModel,
    MembershipFailure,
    check_chain_rule,
    check_scaling,
    directional,
    identity_model,
    rescaled_chart,
)
from ucalc.cia import (
    alg_inverse,
    check_inversion_derivative,
    matrix_algebra,
    qp_algebra,
    quadratic_extension,
    tensor_algebra,
    tensor_right_inverse,
)
from ucalc.suites import (
    SuiteConfig,
    rand_diffeo,
    rand_model,
    rand_region,
    rand_small_model,
    rand_ints,
    rand_vector,
    run_suite,
)
from ucalc.diffeo import (
    CompactlySupportedEndo,
    certify_omega,
    diffc_membership,
    endo_compose,
    halfball_valuation,
    induced_level_map,
    invert_at,
    isometry_check,
)
from ucalc.padic import PadicContext, PrecisionLoss, fraction_valuation
from ucalc.weakprod import (
    GlobalDiffeo,
    ModelEntry,
    WeakProductElement,
    conjugate_global,
    flatten,
    regroup,
    relabel,
    wp_inv,
    wp_mul,
)
from ucalc.calculus import _dqk_fr, _fr_point

CTX2 = PadicContext(2, 12)
CTX3 = PadicContext(3, 12)
CTX5 = PadicContext(5, 12)


def _report(num, label, ok, elapsed, cap):
    verdict = "PASS" if ok and elapsed < cap else "FAIL"
    line = "[%2d] %-38s %s (%.2fs, cap %ds)" % (num, label, verdict, elapsed, cap)
    print(line, file=sys.__stdout__)
    sys.__stdout__.flush()


def _finish(num, label, bad, t0, cap):
    elapsed = time.perf_counter() - t0
    _report(num, label, not bad, elapsed, cap)
    assert not bad, bad[:3]
    assert elapsed < cap


def _perm_compose(f, g):
    return tuple(f[i] for i in g)


def _perm_inverse(f):
    out = [0] * len(f)
    for i, v in enumerate(f):
        out[v] = i
    return tuple(out)


def _same_wp(a, b, m, cells):
    ident = tuple(range(cells))
    for key in set(a.support) | set(b.support):
        pa = a.support[key].induced(m) if key in a.support else ident
        pb = b.support[key].induced(m) if key in b.support else ident
        if pa != pb:
            return False
    return True


def test_01_ultrametric_arithmetic():
    t0 = time.perf_counter()
    bad = []
    for ctx in (CTX2, CTX3, CTX5):
        p = ctx.p
        rng = random.Random(1009 + p)
        for _ in range(10 ** 4):
            a = ctx.from_int(rng.randrange(p ** 12) * p ** rng.randrange(3))
            b = ctx.from_int(rng.randrange(p ** 12) * p ** rng.randrange(3))
            try:
                s = a + b
            except PrecisionLoss:
                # every stored digit cancelled; possible only when the
                # norms agree, where no equality is claimed
                if a.v != b.v:
                    bad.append(("cancellation across norms", a, b))
                s = None
            if s is not None:
                if not s.is_zero and s.v < min(a.v, b.v):
                    bad.append(("sum norm too large", a, b))
                if a.v != b.v and s.v != min(a.v, b.v):
                    bad.append(("strict case not an equality", a, b))
            m = a * b
            if a.is_zero or b.is_zero:
                if not m.is_zero:
                    bad.append(("zero product", a, b))
            elif m.v != a.v + b.v:
                bad.append(("product norm", a, b))
            if not a.is_zero and a * a.inverse() != ctx.one():
                bad.append(("inverse", a))
            if bad:
                break
        if bad:
            break
    _finish(1, "ultrametric arithmetic", bad, t0, 2)


def test_02_first_order_closed_forms():
    # 100 linear and 100 bilinear maps; the suite alternates the two kinds
    t0 = time.perf_counter()
    bad = []
    for d in (1, 2):
        rep = run_suite("bilinear", SuiteConfig(seed=23 + d, p=3, d=d, samples=100))
        if rep.checks != 100 or rep.passed != rep.checks:
            bad.append((d, rep.failure))
    _finish(2, "order-1 quotient closed forms", bad, t0, 2)


def test_03_chain_rule():
    t0 = time.perf_counter()
    bad = []
    count = 0
    for ctx in (CTX2, CTX3, CTX5):
        for d in (1, 2):
            rng = random.Random(407 * ctx.p + d)
            ts = [0, 1, 2, ctx.p, ctx.p ** 2]
            for i in range(34):
                f = rand_small_model(ctx, rng, d, d, 3)
                g = rand_small_model(ctx, rng, d, 1, 3)
                x = ctx.vector([rng.randrange(ctx.p ** 3) for _ in range(d)])
                y = ctx.vector([rng.randrange(ctx.p ** 3) for _ in range(d)])
                t = ctx.from_int(ts[i % len(ts)])
                rep = check_chain_rule(f, g, DQPoint(x, y, t))
                count += 1
                if not rep.equal:
                    bad.append((ctx.p, d, i, rep.lhs, rep.rhs))
    assert count >= 200
    _finish(3, "chain rule with t = 0 included", bad, t0, 5)


def test_04_braced_scaling_ladder():
    t0 = time.perf_counter()
    bad = []
    combos = [(CTX2, 1), (CTX3, 1), (CTX5, 1), (CTX3, 2)]
    count = 0
    for k in (1, 2, 3):
        rng = random.Random(60 + k)
        for i in range(34):
            ctx, d = combos[i % len(combos)]
            f = rand_model(ctx, rng, d, 1, 3)
            xs = [rand_vector(ctx, rng, d) for _ in range(2 ** k)]
            if rng.random() < 0.8:
                t = ctx.from_int(rng.randrange(1, ctx.p ** ctx.N))
                while t.to_fraction().numerator % ctx.p == 0:
                    t = ctx.from_int(rng.randrange(1, ctx.p ** ctx.N))
                depth = 0
            else:
                t = ctx.from_int(ctx.p)
                depth = 3
            pvec = [
                ctx.from_int(ctx.p ** depth * rng.randrange(ctx.p ** 4))
                for _ in range(2 ** k - 1)
            ]
            count += 1
            try:
                rep = check_scaling(f, k, xs, pvec, t)
            except MembershipFailure as err:
                bad.append((k, i, str(err)))
                continue
            if not rep.equal:
                bad.append((k, i, rep.lhs, rep.rhs))
    assert count >= 100
    _finish(4, "scaling ladder, both memberships", bad, t0, 10)


def test_05_higher_directional_derivatives():
    """Symmetry and multilinearity of the iterated directional derivative
    on cubics, with operands small enough to stay exactly stored."""
    t0 = time.perf_counter()
    bad = []
    for ctx in (CTX2, CTX3, CTX5):
        rng = random.Random(83 * ctx.p)
        for i in range(40):
            d = 2
            f = rand_small_model(ctx, rng, d, 1, 3, nmono=4, cmax=2)
            x = ctx.vector([rng.randrange(3) for _ in range(d)])
            u = ctx.vector([rng.randrange(2) for _ in range(d)])
            v = ctx.vector([rng.randrange(2) for _ in range(d)])
            w = ctx.vector([rng.randrange(2) for _ in range(d)])
            if directional(f, x, [u, v]) != directional(f, x, [v, u]):
                bad.append(("symmetry j=2", ctx.p, i))
            d3 = directional(f, x, [u, v, w])
            if d3 != directional(f, x, [w, u, v]) or d3 != directional(f, x, [v, w, u]):
                bad.append(("symmetry j=3", ctx.p, i))
            uu = ctx.vector([rng.randrange(2) for _ in range(d)])
            su = ctx.vector([int(a + b) for a, b in zip(u.to_fractions(), uu.to_fractions())])
            if directional(f, x, [su, v]) != directional(f, x, [u, v]) + directional(f, x, [uu, v]):
                bad.append(("additivity", ctx.p, i))
            c = 2
            cu = ctx.vector([int(c * a) for a in u.to_fractions()])
            lhs = directional(f, x, [cu, v, w])
            rhs = directional(f, x, [u, v, w])
            if any(a != ctx.from_int(c) * b for a, b in zip(lhs.coords, rhs.coords)):
                bad.append(("homogeneity", ctx.p, i))
    _finish(5, "directional derivative symmetry", bad, t0, 2)


def test_06_partitions_exhaustive_level3():
    t0 = time.perf_counter()
    bad = []
    combos = [(CTX2, 1), (CTX3, 1), (CTX5, 1), (CTX2, 2), (CTX3, 2)]
    for n, (ctx, d) in enumerate(combos):
        root = ClopenRegion([Ball.from_ints(ctx, (0,) * d, 0)])
        rng = random.Random(900 + n)
        for i in range(10):
            region = rand_region(ctx, rng, d)
            cover = [rand_region(ctx, rng, d) for _ in range(rng.randint(1, 3))]
            cover.append(root)
            try:
                parts = subordinate_partition(region, cover)
                verify_partition(region, parts, cover, 3)
            except ValueError as err:
                bad.append((ctx.p, d, i, str(err)))
                continue
            hs = partition_of_unity(region, cover)
            for h, member in zip(hs, cover):
                if not h.support.empty and not member.contains_region(h.support):
                    bad.append((ctx.p, d, i, "support escapes member"))
            for pt in region.level_points(3):
                frs = tuple(Fraction(c) for c in pt)
                if sum(h.at_fractions(frs) for h in hs) != 1:
                    bad.append((ctx.p, d, i, "sum != 1 at %s" % (pt,)))
                    break
    _finish(6, "partitions, exhaustive at level 3", bad, t0, 5)


def test_07_certified_maps_are_isometries():
    t0 = time.perf_counter()
    bad = []
    for ctx, d, label in ((CTX3, 1, "1-dim p=3"), (CTX2, 2, "2-dim p=2")):
        rng = random.Random(31 * ctx.p + d)
        for i in range(10):
            g = rand_diffeo(ctx, rng, d, multi_piece=i % 2 == 1)
            pairs = [
                (rand_ints(ctx, rng, d), rand_ints(ctx, rng, d))
                for _ in range(10 ** 3)
            ]
            rep = isometry_check(g, pairs)
            if rep.checked != 10 ** 3 or rep.violations:
                bad.append((label, i, rep.violations[:2]))
    _finish(7, "certification forces isometry", bad, t0, 5)


def test_08_inversion_roundtrip():
    # invert_at succeeding already bounds the iteration count by
    # ceil(12 / v_min) + 2; the budget overrun raises instead
    t0 = time.perf_counter()
    bad = []
    ctx = CTX3
    root = Ball.from_ints(ctx, (0,), 0)
    rng = random.Random(55)
    for i in range(5):
        g = rand_diffeo(ctx, rng, 1, multi_piece=i % 2 == 1)
        for _ in range(100):
            y = rand_ints(ctx, rng, 1)
            try:
                x = invert_at(g, y, 12)
            except RuntimeError as err:
                bad.append((i, "budget", str(err)))
                continue
            res = tuple(
                a - b for a, b in zip(g.gamma._eval_fr(tuple(map(Fraction, x))), y)
            )
            if any(q and fraction_valuation(q, 3) < 12 for q in res):
                bad.append((i, "residual", y))
        perm = []
        for repnt in root.level_reps(3):
            x = invert_at(g, repnt, 3)
            img = g.gamma._eval_fr(tuple(map(Fraction, x)))
            perm.append(tuple(int(q) % 27 for q in img))
        if perm != [tuple(r) for r in root.level_reps(3)]:
            bad.append((i, "roundtrip cells"))
    _finish(8, "inversion residuals and roundtrips", bad, t0, 5)


def test_09_group_structure():
    t0 = time.perf_counter()
    bad = []
    ctx = CTX2
    rng = random.Random(4321)
    cells = 8

    # induced cell maps turn composition into permutation composition
    for i in range(10):
        g1 = rand_diffeo(ctx, rng, 1)
        g2 = rand_diffeo(ctx, rng, 1)
        comp = ModelEntry(g1).compose(ModelEntry(g2))
        for m in (1, 2, 3):
            want = _perm_compose(induced_level_map(g1, m), induced_level_map(g2, m))
            if comp.induced(m) != want:
                bad.append(("composition hom", i, m))

    # group axioms over an index set of the eight level-3 balls
    root = Ball.from_ints(ctx, (0,), 0)
    ids = tuple(Ball.from_ints(ctx, (c,), 3) for c in range(8))

    def rand_elt():
        return WeakProductElement(
            ids, {ids[rng.randrange(8)]: rand_diffeo(ctx, rng, 1) for _ in range(2)}
        )

    for i in range(10):
        x, y, z = rand_elt(), rand_elt(), rand_elt()
        if not _same_wp(wp_mul(wp_mul(x, y), z), wp_mul(x, wp_mul(y, z)), 3, cells):
            bad.append(("associativity", i))
        if wp_mul(x, wp_inv(x)).support != {}:
            bad.append(("inverse", i))
        if not _same_wp(wp_mul(x, WeakProductElement(ids, {})), x, 3, cells):
            bad.append(("identity", i))

    # regrouping and relabeling respect products
    pair_ids = tuple((i, j) for i in range(4) for j in range(2))

    def rand_pair_elt():
        return WeakProductElement(
            pair_ids,
            {pair_ids[rng.randrange(8)]: rand_diffeo(ctx, rng, 1) for _ in range(2)},
        )

    for i in range(10):
        x, y = rand_pair_elt(), rand_pair_elt()
        gx = regroup(wp_mul(x, y))
        gy = regroup(x).mul(regroup(y))
        if gx.outer != gy.outer or gx.fibers != gy.fibers:
            bad.append(("regroup structure", i))
        if not _same_wp(flatten(gx), flatten(gy), 3, cells):
            bad.append(("regroup hom", i))
        if not _same_wp(flatten(regroup(x)), x, 3, cells):
            bad.append(("flatten roundtrip", i))

        lab = list(pair_ids)
        rng.shuffle(lab)
        pi = {("new", n): old for n, old in enumerate(lab)}
        beta = {j: rand_diffeo(ctx, rng, 1) if rng.random() < 0.5 else None for j in pi}
        lhs = relabel(wp_mul(x, y), pi, beta)
        rhs = wp_mul(relabel(x, pi, beta), relabel(y, pi, beta))
        if not _same_wp(lhs, rhs, 3, cells):
            bad.append(("relabel hom", i))

    # conjugation by a piecewise global map stays in the group
    halves = tuple(root.children())
    for i in range(10):
        pieces = [
            (halves[0], halves[1], rand_diffeo(ctx, rng, 1)),
            (halves[1], halves[0], rand_diffeo(ctx, rng, 1)),
        ]
        gd = GlobalDiffeo(ClopenRegion([root]), pieces)
        e1 = WeakProductElement(halves, {halves[rng.randrange(2)]: rand_diffeo(ctx, rng, 1)})
        e2 = WeakProductElement(halves, {halves[rng.randrange(2)]: rand_diffeo(ctx, rng, 1)})
        out = conjugate_global(gd, e1)
        if set(out.index_set) != set(halves):
            bad.append(("closure index", i))
        lhs = conjugate_global(gd, wp_mul(e1, e2))
        rhs = wp_mul(conjugate_global(gd, e1), conjugate_global(gd, e2))
        if not _same_wp(lhs, rhs, 3, cells):
            bad.append(("conjugation hom", i))
    _finish(9, "group structure at level 3", bad, t0, 10)


def test_10_algebra_inversion():
    t0 = time.perf_counter()
    bad = []
    ctx = CTX3
    F = quadratic_extension(ctx, 3)
    algebras = [qp_algebra(ctx), matrix_algebra(ctx, 2)]
    rng = random.Random(271)
    for i in range(50):
        A = algebras[i % 2]
        T = tensor_algebra(F, A)
        z = [
            ctx.vector([3 * rng.randrange(27) for _ in range(A.n)])
            for _ in range(F.n)
        ]
        v = tensor_right_inverse(F, A, z)

        def embed(vecs):
            out = [ctx.zero()] * T.n
            for k, vk in enumerate(vecs):
                for a, s in enumerate(vk):
                    out[k * A.n + a] = s
            return ctx.vector(out)

        u = T.one_vector() + embed(z)
        w = T.one_vector() + embed(v)
        prod = T._mul_fr(T.coords_fr(u), T.coords_fr(w))
        for q, o in zip(prod, T._one_fr):
            if q != o and fraction_valuation(q - o, 3) < 12:
                bad.append(("unit product", i))
                break
        if alg_inverse(T, u) != w:
            bad.append(("regular representation", i))

    M2 = matrix_algebra(ctx, 2)
    for i in range(25):
        x = M2.one_vector() + ctx.vector([3 * rng.randrange(27) for _ in range(4)])
        v = ctx.vector([rng.randrange(27) for _ in range(4)])
        t = ctx.from_int((0, 1, 3, 9)[i % 4])
        rep = check_inversion_derivative(M2, x, v, t)
        if not rep.equal:
            bad.append(("derivative of inversion", i, rep.lhs, rep.rhs))
    _finish(10, "algebra inversion identities", bad, t0, 5)


def test_11_derivative_identities():
    t0 = time.perf_counter()
    bad = []
    for name in ("eval-deriv", "comp-deriv"):
        rep = run_suite(name, SuiteConfig(seed=7, p=3, d=1, samples=100))
        if rep.checks != 100 or rep.passed != rep.checks:
            bad.append((name, rep.failure))
    _finish(11, "evaluation/composition derivatives", bad, t0, 5)


def test_12_compactly_supported_maps():
    t0 = time.perf_counter()
    bad = []
    ctx = CTX3
    root = Ball.from_ints(ctx, (0,), 0)
    U = ClopenRegion([root])
    v_min = halfball_valuation(ctx.p)
    rng = random.Random(988)

    def rand_supported():
        balls = list(root.children())
        pieces = []
        for b in balls:
            coeffs = {}
            if rng.random() < 0.7:
                for exps in ((0,), (1,), (2,)):
                    coeffs[exps] = ctx.vector([27 * rng.randrange(27)])
            pieces.append((b, coeffs))
        return CompactlySupportedEndo(U, FunctionModel(pieces, e=1))

    def same_action(a, b, m):
        for pt in U.level_points(m):
            frs = tuple(Fraction(c) for c in pt)
            for qa, qb in zip(a.gamma._eval_fr(frs), b.gamma._eval_fr(frs)):
                if qa != qb and fraction_valuation(qa - qb, ctx.p) < m:
                    return False
        return True

    for i in range(8):
        a, b, c = rand_supported(), rand_supported(), rand_supported()
        if not same_action(endo_compose(endo_compose(a, b), c), endo_compose(a, endo_compose(b, c)), 3):
            bad.append(("associativity", i))
        e = CompactlySupportedEndo(U, FunctionModel([(b, {}) for b in U.balls], e=1))
        if not same_action(endo_compose(a, e), a, 3) or not same_action(endo_compose(e, a), a, 3):
            bad.append(("identity", i))

        dec = diffc_membership(a)
        if not dec.accepted:
            bad.append(("acceptance", i))
            continue
        comp = endo_compose(a, b)
        if not diffc_membership(comp).accepted:
            bad.append(("closure", i))
        # composite action agrees with applying the factors in turn
        for pt in U.level_points(3):
            frs = tuple(Fraction(q) for q in pt)
            via = a.gamma._eval_fr(b.gamma._eval_fr(frs))
            got = comp.gamma._eval_fr(frs)
            if any(qa != qb and fraction_valuation(qa - qb, 3) < 3 for qa, qb in zip(via, got)):
                bad.append(("composite action", i))
                break
        # the per-ball certificates really invert at level 3
        for ball, cert in dec.certificates.items():
            chart_root = Ball.from_ints(ctx, (0,), 0)
            for repnt in chart_root.level_reps(3):
                x = invert_at(cert, repnt, 3)
                img = cert.gamma._eval_fr(tuple(map(Fraction, x)))
                if any(fraction_valuation(q - c2, 3) < 3 for q, c2 in zip(img, repnt) if q != c2):
                    bad.append(("certificate inversion", i, ball))
                    break

    # rejection with a checkable quotient witness
    kid = Ball.from_ints(ctx, (0,), 1)
    rest = [Ball.from_ints(ctx, (c,), 1) for c in (1, 2)]
    sigma = FunctionModel([(kid, {(1,): ctx.vector([1])})] + [(b, {}) for b in rest], e=1)
    dec = diffc_membership(CompactlySupportedEndo(U, sigma))
    if dec.accepted:
        bad.append(("bad element accepted",))
    else:
        ball, wit = dec.witness
        chart = rescaled_chart(sigma, ball)
        xf, yf, t = wit
        if t:
            moved = chart._eval_fr(tuple(a + t * b for a, b in zip(xf, yf)))
            base = chart._eval_fr(xf)
            vals = tuple((q2 - q1) / t for q1, q2 in zip(base, moved))
        else:
            vals = _dqk_fr(chart, ("node", ("leaf", xf), ("leaf", yf), t))
        vals = vals + chart._eval_fr(xf)
        if all(fraction_valuation(q, 3) >= v_min for q in vals):
            bad.append(("witness does not violate the bound", wit))

    # rejection of a displacement whose chart copy leaves the ball
    sigma = FunctionModel([(kid, {(0,): ctx.vector([1])})] + [(b, {}) for b in rest], e=1)
    dec = diffc_membership(CompactlySupportedEndo(U, sigma))
    if dec.accepted:
        bad.append(("non-integral chart accepted",))
    elif not (dec.witness[0] == kid and isinstance(dec.witness[1], str) and dec.witness[1]):
        bad.append(("structural witness", dec.witness))
    _finish(12, "compactly supported self-maps", bad, t0, 5)
