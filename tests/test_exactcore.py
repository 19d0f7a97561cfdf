"""Differential tests of the exact value kernels against the Fraction routes.

Model values, symbolic quotients, directional derivatives, algebra
products and Gauss-Jordan inversion compute exact rationals on integers
over one common denominator.  Each is compared here with a reference
copy of the Fraction route it replaced, over p in {2, 3, 5}, d in {1, 2},
multi-piece models with negative coefficient valuations (store scale
s > 0), zero polynomials, and points whose coordinates have
denominators prime to p.
"""

import random
from fractions import Fraction

import pytest

from ucalc import _poly
from ucalc import cia
from ucalc.balls import Ball
from ucalc.calculus import OutOfDomain, _dqk_fr, _nvars, directional
from ucalc.cia import (
    Singular,
    StructAlgebra,
    _gauss_inverse,
    matrix_algebra,
    qp_algebra,
    quadratic_extension,
    tensor_algebra,
)
from ucalc.padic import INF, PadicContext, fraction_valuation

from reference import padic_model

SHAPES = [(p, d) for p in (2, 3, 5) for d in (1, 2)]


# --- reference copies of the Fraction routes -------------------------------


def _ref_evaluate(P, xs):
    total = Fraction(0)
    for e, c in P.items():
        term = c
        for x, k in zip(xs, e):
            if k:
                term *= x ** k
        total += term
    return total


def _ref_eval(f, frs):
    ball = f._find_piece(frs)
    return tuple(_ref_evaluate(P, frs) for P in f._frac[ball])


def _ref_var(nvars, i):
    e = [0] * nvars
    e[i] = 1
    return {tuple(e): Fraction(1)}


def _ref_dq1_symbolic(polys, n):
    m = 2 * n + 1
    subs = [
        _poly.add(_ref_var(m, i), _poly.mul(_ref_var(m, m - 1), _ref_var(m, n + i)))
        for i in range(n)
    ]
    return tuple(
        _poly.div_var(_poly.sub(_poly.subst(P, subs, m), _poly.rename(P, list(range(n)), m)), m - 1)
        for P in polys
    )


def _ref_symbolic(f, ball, j):
    polys = f._frac[ball]
    for i in range(j):
        polys = _ref_dq1_symbolic(polys, _nvars(f.d, i))
    return polys


def _shift(a, b, t):
    if a[0] == "leaf":
        return ("leaf", tuple(x + t * y for x, y in zip(a[1], b[1])))
    return ("node", _shift(a[1], b[1], t), _shift(a[2], b[2], t), a[3] + t * b[3])


def _leaves(node):
    if node[0] == "leaf":
        return [node[1]]
    return _leaves(node[1]) + _leaves(_shift(node[1], node[2], node[3]))


def _flatten(node):
    if node[0] == "leaf":
        return list(node[1])
    return _flatten(node[1]) + _flatten(node[2]) + [node[3]]


def _order(node):
    return 0 if node[0] == "leaf" else 1 + _order(node[1])


def _ref_dqk(f, node):
    if node[0] == "leaf":
        return _ref_eval(f, node[1])
    _, a, b, t = node
    if t != 0:
        va = _ref_dqk(f, a)
        vb = _ref_dqk(f, _shift(a, b, t))
        return tuple((q - r) / t for q, r in zip(vb, va))
    balls = {f._find_piece(leaf) for leaf in _leaves(a)}
    if len(balls) != 1:
        raise OutOfDomain("leaves in several pieces")
    j = _order(a)
    polys = _ref_symbolic(f, balls.pop(), j)
    fx, fy = _flatten(a), _flatten(b)
    out = []
    for P in polys:
        val = Fraction(0)
        for i, yv in enumerate(fy):
            if yv:
                val += _ref_evaluate(_poly.diff(P, i), fx) * yv
        out.append(val)
    return tuple(out)


def _ref_directional(f, x, dirs):
    frs = x.to_fractions()
    cur = f._frac[f._find_piece(frs)]
    for v in dirs:
        nxt = []
        for P in cur:
            acc = {}
            for i, c in enumerate(v.to_fractions()):
                if c:
                    acc = _poly.add(acc, _poly.scale(_poly.diff(P, i), c))
            nxt.append(acc)
        cur = tuple(nxt)
    return f._vec(tuple(_ref_evaluate(P, frs) for P in cur))


def _ref_mul(A, xf, yf):
    out = [Fraction(0)] * A.n
    for i, xi in enumerate(xf):
        for j, yj in enumerate(yf):
            for k in range(A.n):
                out[k] += A.t[i][j][k].to_fraction() * xi * yj
    return tuple(out)


def _ref_gauss(frs, p, valuation=fraction_valuation):
    n = len(frs)
    aug = [[Fraction(q) for q in frs[i]] + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    pivots = []
    for col in range(n):
        best, best_val = -1, INF
        for r in range(col, n):
            q = aug[r][col]
            if q == 0:
                continue
            val = valuation(q, p)
            if val < best_val:
                best, best_val = r, val
        if best < 0:
            raise Singular("no pivot in column %d" % col)
        pivots.append(best_val)
        aug[col], aug[best] = aug[best], aug[col]
        piv = aug[col][col]
        aug[col] = [q / piv for q in aug[col]]
        for r in range(n):
            if r == col or aug[r][col] == 0:
                continue
            factor = aug[r][col]
            aug[r] = [q - factor * w for q, w in zip(aug[r], aug[col])]
    return [row[n:] for row in aug], pivots


# --- generators -------------------------------------------------------------


def _rat(rng, p, integral=False):
    """A rational with a denominator prime to p (1 when integral)."""
    den = 1 if integral else rng.choice([1, 1, p + 1, 2 * p + 1, (p + 1) * (2 * p + 1)])
    return Fraction(rng.randrange(-(p ** 4), p ** 4), den)


def _scalar(ctx, rng):
    """A nonzero scalar of valuation -2..3."""
    u = rng.randrange(1, ctx.modulus)
    while u % ctx.p == 0:
        u = rng.randrange(1, ctx.modulus)
    return ctx.from_unit(rng.randint(-2, 3), u)


def _model(ctx, rng, d, e):
    """A model on Z_p^d: the level-1 balls, one of them split into its
    level-2 children; coefficients of valuation -2..3, zero coordinates,
    and pieces with the zero polynomial."""
    root = Ball.from_ints(ctx, (0,) * d, 0)
    level1 = root.children()
    split = rng.randrange(len(level1))
    balls = [b for i, b in enumerate(level1) if i != split] + level1[split].children()
    exps = _exponents(d, 3)
    pieces = []
    for b in balls:
        coeffs = {}
        if rng.random() > 0.15:
            for x in rng.sample(exps, rng.randint(1, min(5, len(exps)))):
                vec = [_scalar(ctx, rng) if rng.random() < 0.8 else ctx.zero() for _ in range(e)]
                if any(not c.is_zero for c in vec):
                    coeffs[x] = ctx.vector(vec)
        pieces.append((b, coeffs))
    return padic_model(pieces, e=e)


def _exponents(d, deg):
    out = [()]
    for _ in range(d):
        out = [x + (k,) for x in out for k in range(deg + 1)]
    return [x for x in out if sum(x) <= deg]


def _point(rng, p, d, integral=False):
    return tuple(_rat(rng, p, integral) for _ in range(d))


def _t(rng, p):
    return rng.choice([Fraction(0), Fraction(0), Fraction(p ** 2), Fraction(1), _rat(rng, p), p ** 2 * _rat(rng, p)])


def _tree(rng, p, d, k):
    """A nested quotient point of order k as a Fraction tree."""
    if k == 0:
        return ("leaf", _point(rng, p, d))
    return ("node", _tree(rng, p, d, k - 1), _tree(rng, p, d, k - 1), _t(rng, p))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except OutOfDomain:
        return "OutOfDomain"


# --- model values and quotients --------------------------------------------


@pytest.mark.parametrize("p, d", SHAPES)
@pytest.mark.parametrize("seed", range(4))
def test_eval_matches_the_fraction_route(p, d, seed):
    rng = random.Random(seed * 101 + p * 7 + d)
    ctx = PadicContext(p, 6)
    f = _model(ctx, rng, d, rng.randint(1, 2))
    assert any(s > 0 for s, _ in f._store.values()) or not any(any(P) for _, P in f._store.values())
    for _ in range(30):
        frs = _point(rng, p, d, integral=rng.random() < 0.3)
        got = f._eval_fr(frs)
        assert got == _ref_eval(f, frs)
        assert all(type(q) is Fraction for q in got)


@pytest.mark.parametrize("p, d", SHAPES)
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("seed", range(3))
def test_quotients_match_the_fraction_route(p, d, k, seed):
    rng = random.Random(seed * 1009 + k * 31 + p * 7 + d)
    ctx = PadicContext(p, 6)
    f = _model(ctx, rng, d, rng.randint(1, 2))
    zero_seen = 0
    for _ in range(12 if k < 3 else 4):
        tree = _tree(rng, p, d, k)
        if rng.random() < 0.5:
            tree = ("node", tree[1], tree[2], Fraction(0))
        zero_seen += tree[3] == 0
        got = _outcome(_dqk_fr, f, tree)
        assert got == _outcome(_ref_dqk, f, tree)
        if got != "OutOfDomain":
            assert all(type(q) is Fraction for q in got)
    assert zero_seen


def test_zero_quotient_over_a_common_denominator():
    """Points and directions with denominators prime to p, at t = 0, on a
    piece with scale s > 0: the L > 1 path of the t = 0 branch."""
    ctx = PadicContext(3, 6)
    root = Ball.from_ints(ctx, (0, 0), 0)
    f = padic_model([(root, {
        (2, 1): ctx.vector([ctx.from_unit(-2, 5)]),
        (0, 1): ctx.vector([ctx.from_unit(1, 2)]),
        (1, 0): ctx.vector([ctx.from_unit(0, 7)]),
    })], e=1)
    assert f._store[root][0] == 2
    tree = ("node", ("leaf", (Fraction(1, 4), Fraction(-2, 7))), ("leaf", (Fraction(5, 2), Fraction(1, 5))),
            Fraction(0))
    assert _dqk_fr(f, tree) == _ref_dqk(f, tree)
    inner = ("node", ("leaf", (Fraction(1, 4), Fraction(2))), ("leaf", (Fraction(1, 2), Fraction(3, 8))),
             Fraction(9, 7))
    tree2 = ("node", inner, ("node", ("leaf", (Fraction(1), Fraction(1, 5))),
                             ("leaf", (Fraction(2, 7), Fraction(4))), Fraction(1, 2)), Fraction(0))
    assert _dqk_fr(f, tree2) == _ref_dqk(f, tree2)


@pytest.mark.parametrize("p, d", SHAPES)
@pytest.mark.parametrize("seed", range(3))
def test_directional_matches_the_fraction_route(p, d, seed):
    rng = random.Random(seed * 13 + p * 7 + d)
    ctx = PadicContext(p, 8)
    f = _model(ctx, rng, d, rng.randint(1, 2))
    for _ in range(10):
        x = ctx.vector([rng.randrange(p ** 4) for _ in range(d)])
        dirs = [ctx.vector([_scalar(ctx, rng) if rng.random() < 0.8 else ctx.zero() for _ in range(d)]) for _ in range(rng.randint(1, 3))]
        assert directional(f, x, dirs) == _ref_directional(f, x, dirs)


# --- algebras ---------------------------------------------------------------


def _algebras(ctx):
    one, zero = ctx.one(), ctx.zero()
    inv_p = ctx.from_unit(-1, 1)
    # Q_p[X] / (X^2 - 1/p): a structure constant outside Z_p
    frac_ext = StructAlgebra([[[one, zero], [zero, one]], [[zero, one], [inv_p, zero]]], [one, zero])
    F = quadratic_extension(ctx, ctx.p)
    return [qp_algebra(ctx), matrix_algebra(ctx, 2), F, frac_ext,
            tensor_algebra(F, matrix_algebra(ctx, 2)), tensor_algebra(frac_ext, F)]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_algebra_products_match_the_fraction_route(p):
    rng = random.Random(p)
    ctx = PadicContext(p, 6)
    for A in _algebras(ctx):
        assert A._one_fr == tuple(s.to_fraction() for s in A.one)
        for i in range(A.n):
            assert A._basis_fr(i) == tuple(Fraction(int(j == i)) for j in range(A.n))
        for _ in range(10):
            xf = tuple(_rat(rng, p) if rng.random() < 0.8 else Fraction(0) for _ in range(A.n))
            yf = tuple(_rat(rng, p, integral=True) for _ in range(A.n))
            assert A._mul_fr(xf, yf) == _ref_mul(A, xf, yf)
            assert A._mul_fr(A._basis_fr(0), yf) == _ref_mul(A, A._basis_fr(0), yf)


# --- Gauss-Jordan -----------------------------------------------------------


def _matrix(rng, p, n):
    kind = rng.random()
    if kind < 0.3:
        # unit entries only: every column has ties in valuation
        return [[Fraction(rng.choice([1, -1, p + 1, 2])) for _ in range(n)] for _ in range(n)]
    if kind < 0.5 and n > 1:
        # a repeated row: singular
        rows = [[_rat(rng, p) for _ in range(n)] for _ in range(n - 1)]
        return rows + [list(rows[rng.randrange(n - 1)])]
    return [[Fraction(p) ** rng.randint(-2, 3) * _rat(rng, p) if rng.random() < 0.8 else Fraction(0)
             for _ in range(n)] for _ in range(n)]


def _gauss_outcome(fn, frs, p):
    try:
        return fn(frs, p)
    except Singular:
        return "Singular"


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_gauss_inverse_matches_the_fraction_route(p, n):
    rng = random.Random(p * 10 + n)
    singular = 0
    for _ in range(40):
        frs = _matrix(rng, p, n)
        got = _gauss_outcome(_gauss_inverse, frs, p)
        assert got == _gauss_outcome(_ref_gauss, frs, p)
        if got == "Singular":
            singular += 1
        else:
            assert all(type(q) is Fraction for row in got[0] for q in row)
    assert n == 1 or singular


def test_gauss_inverse_takes_int_entries():
    frs = [[2, 1, 0], [0, 3, 1], [1, 0, 9]]
    assert _gauss_inverse(frs, 3) == _ref_gauss(frs, 3)


@pytest.mark.parametrize("frs, p", [
    # the pivot choice decides which rows stay nonzero: taking the last
    # row on the tie in column 0 values six candidates instead of five
    ([[1, 0, 3], [1, 0, 0], [2, 1, 3]], 3),
    ([[1, 1, 0, 2], [1, 2, 1, 0], [0, 1, 1, 1], [2, 0, 1, 1]], 2),
    ([[5, 10, 1], [1, 5, 2], [25, 1, 3]], 5),
])
def test_gauss_inverse_values_the_candidates_of_the_fraction_route(frs, p, monkeypatch):
    """On integral rows no denominator is valued, so the integer route
    values exactly the pivot candidates of the Fraction route, which pins
    the pivot choice: least valuation, first row on ties."""
    calls = []

    def spy(q, prime):
        calls.append(q)
        return fraction_valuation(q, prime)

    monkeypatch.setattr(cia, "fraction_valuation", spy)
    got = _gauss_inverse(frs, p)
    new_calls = len(calls)
    calls.clear()
    want = _ref_gauss(frs, p, spy)
    assert got == want
    assert new_calls == len(calls)
