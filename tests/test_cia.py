import itertools
import random
from fractions import Fraction

import pytest

from ucalc import cia
from ucalc.cia import (
    InverseCheckFailed,
    NotAUnit,
    SMatrixSingular,
    Singular,
    StructAlgebra,
    _gauss_inverse,
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
from ucalc.padic import INF, PadicContext, fraction_valuation

CTX3 = PadicContext(3, 12)
CTX5 = PadicContext(5, 12)


def _mat_inverse(ctx, rows):
    """Inverse of an integer n x n matrix as a unit of matrix_algebra(ctx, n):
    GL_n(Q_p) is its unit group.  Coordinates are row-major."""
    return alg_inverse(matrix_algebra(ctx, len(rows)), ctx.vector([v for r in rows for v in r]))


def _alg_mul(A, x, y):
    """Product in coordinates, exact before the final truncation."""
    return A.vec(A._mul_fr(A.coords_fr(x), A.coords_fr(y)))


def _det_fr(rows):
    n = len(rows)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = Fraction(1)
        for i in range(n):
            term *= rows[i][perm[i]]
        total += sign * term
    return total


def test_mat_inverse_identity_and_diagonal():
    eye = [[int(i == j) for j in range(3)] for i in range(3)]
    assert _mat_inverse(CTX5, eye) == CTX5.vector([v for r in eye for v in r])
    inv = _mat_inverse(CTX3, [[3, 0], [0, 1]])
    assert inv[0] == CTX3.from_fraction(Fraction(1, 3))
    assert inv[3] == CTX3.one()
    assert inv[1].is_zero and inv[2].is_zero


def test_mat_inverse_multiply_back_unit_det():
    rng = random.Random(5)
    done = 0
    while done < 15:
        rows = [[rng.randrange(25) for _ in range(3)] for _ in range(3)]
        det = _det_fr([[Fraction(v) for v in r] for r in rows])
        if det == 0 or det.numerator % 5 == 0:
            continue
        done += 1
        m_fr = [[Fraction(v) for v in r] for r in rows]
        _, pivots = _gauss_inverse(m_fr, 5)
        assert sum(pivots) == fraction_valuation(det, 5)
        coords = _mat_inverse(CTX5, rows).to_fractions()
        i_fr = [coords[3 * i : 3 * i + 3] for i in range(3)]
        for i in range(3):
            for j in range(3):
                want = Fraction(int(i == j))
                left = sum(m_fr[i][k] * i_fr[k][j] for k in range(3))
                right = sum(i_fr[i][k] * m_fr[k][j] for k in range(3))
                assert fraction_valuation(left - want, 5) >= 12
                assert fraction_valuation(right - want, 5) >= 12


def test_mat_inverse_singular_cases():
    with pytest.raises(Singular):
        _gauss_inverse([[1, 2], [2, 4]], 3)
    with pytest.raises(NotAUnit):
        _mat_inverse(CTX3, [[1, 2], [2, 4]])
    with pytest.raises(NotAUnit):
        _mat_inverse(CTX3, [[0, 0], [0, 0]])
    # each pivot is fine but the determinant valuation hits the precision
    big = 3 ** 6
    with pytest.raises(NotAUnit):
        _mat_inverse(CTX3, [[big, 0], [0, big]])


def test_alg_mul_unit_and_base_field():
    A = qp_algebra(CTX5)
    y = CTX5.vector([7])
    assert _alg_mul(A, A.one_vector(), y) == y
    assert _alg_mul(A, CTX5.vector([6]), CTX5.vector([7])) == CTX5.vector([42])


def _mat2_mul_fr(a, b):
    return [
        [a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]],
        [a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]],
    ]


def _coords_to_mat(frs):
    return [[frs[0], frs[1]], [frs[2], frs[3]]]


def test_alg_mul_matches_matrix_product():
    A = matrix_algebra(CTX3, 2)
    rng = random.Random(14)
    for _ in range(25):
        x = [rng.randrange(81) for _ in range(4)]
        y = [rng.randrange(81) for _ in range(4)]
        got = _alg_mul(A, CTX3.vector(x), CTX3.vector(y))
        prod = _mat2_mul_fr(_coords_to_mat([Fraction(v) for v in x]), _coords_to_mat([Fraction(v) for v in y]))
        want = CTX3.vector([CTX3.from_fraction(prod[i][j]) for i in range(2) for j in range(2)])
        assert got == want


def test_struct_algebra_rejects_bad_axioms():
    one, zero = CTX3.one(), CTX3.zero()
    # e0 fails to act as the unit on e1
    t = [
        [[one, zero], [zero, CTX3.from_int(2)]],
        [[zero, one], [one, zero]],
    ]
    with pytest.raises(ValueError) as err:
        StructAlgebra(t, [one, zero])
    assert "unit" in str(err.value)
    # X*X = Y, X*Y = 1, Y*X = 0: (XX)X = 0 but X(XX) = 1
    n3 = {
        (0, 0): (0,), (0, 1): (1,), (0, 2): (2,),
        (1, 0): (1,), (2, 0): (2,),
        (1, 1): (2,), (1, 2): (0,),
    }
    t3 = [[[zero] * 3 for _ in range(3)] for _ in range(3)]
    for (i, j), ks in n3.items():
        for k in ks:
            t3[i][j][k] = one
    with pytest.raises(ValueError) as err:
        StructAlgebra(t3, [one, zero, zero])
    assert "associativity" in str(err.value)


def _unit_mat2(rng, span=27):
    while True:
        x = [rng.randrange(span) for _ in range(4)]
        if (x[0] * x[3] - x[1] * x[2]) % 3 != 0:
            return x


def test_alg_inverse_base_field_and_unit():
    A = qp_algebra(CTX5)
    assert alg_inverse(A, A.one_vector()) == A.one_vector()
    a = CTX5.from_int(7)
    got = alg_inverse(A, CTX5.vector([a]))
    assert got == CTX5.vector([a.inverse()])
    with pytest.raises(NotAUnit):
        alg_inverse(A, CTX5.vector([0]))


def test_alg_inverse_matches_mat_inverse():
    """alg_inverse on the 2 x 2 matrices against the adjugate formula."""
    A = matrix_algebra(CTX3, 2)
    rng = random.Random(23)
    for _ in range(15):
        x = _unit_mat2(rng)
        coords = alg_inverse(A, CTX3.vector(x))
        det = Fraction(x[0] * x[3] - x[1] * x[2])
        adj = (x[3], -x[1], -x[2], x[0])
        assert coords == CTX3.vector([CTX3.from_fraction(a / det) for a in adj])
        # multiply-back residual of the truncated inverse vanishes mod 3^12
        back = A._mul_fr(A.coords_fr(CTX3.vector(x)), A.coords_fr(coords))
        for q, o in zip(back, A._one_fr):
            assert q == o or fraction_valuation(q - o, 3) >= 12


def test_alg_inverse_not_a_unit_at_precision():
    A = matrix_algebra(CTX3, 2)
    with pytest.raises(NotAUnit):
        alg_inverse(A, CTX3.vector([3 ** 6, 0, 0, 3 ** 6]))


def test_quadratic_extension_inverse():
    # (a + bX)(a - bX) = a^2 - c b^2 in Q_p[X]/(X^2 - c)
    L = quadratic_extension(CTX3, 3)
    a, b = Fraction(2), Fraction(5)
    norm = a * a - 3 * b * b
    inv = alg_inverse(L, CTX3.vector([CTX3.from_fraction(a), CTX3.from_fraction(b)]))
    want = CTX3.vector([CTX3.from_fraction(a / norm), CTX3.from_fraction(-b / norm)])
    assert inv == want


def _phi_coords(T, A, z):
    """Coordinates of sum_k e_k (x) z_k inside the flattened tensor algebra."""
    m = A.n
    out = [CTX3.zero()] * T.n
    for k, zk in enumerate(z):
        for a, s in enumerate(zk):
            out[k * m + a] = s
    return CTX3.vector(out)


def test_tensor_right_inverse_zero_and_base_cases():
    F = quadratic_extension(CTX3, 3)
    A = matrix_algebra(CTX3, 2)
    zeros = [CTX3.vector([0, 0, 0, 0]) for _ in range(2)]
    v = tensor_right_inverse(F, A, zeros)
    assert all(all(s.is_zero for s in vj) for vj in v)
    # F = Q_p: 1 + z inverted in A
    Fq = qp_algebra(CTX3)
    z = CTX3.vector([3, 6, 3, 9])
    (v1,) = tensor_right_inverse(Fq, A, [z])
    one_plus = _alg_mul(A, A.one_vector(), A.one_vector()) + z
    want = alg_inverse(A, one_plus)
    assert A.one_vector() + v1 == want


def test_tensor_right_inverse_full_oracle():
    F = quadratic_extension(CTX3, 3)
    A = matrix_algebra(CTX3, 2)
    T = tensor_algebra(F, A)
    rng = random.Random(31)
    for _ in range(10):
        z = [CTX3.vector([3 * rng.randrange(27) for _ in range(4)]) for _ in range(2)]
        v = tensor_right_inverse(F, A, z)
        u = T.one_vector() + _phi_coords(T, A, z)
        w = T.one_vector() + _phi_coords(T, A, v)
        # multiply in the flattened tensor algebra, exact residual check
        prod = T._mul_fr(T.coords_fr(u), T.coords_fr(w))
        for q, o in zip(prod, T._one_fr):
            assert q == o or fraction_valuation(q - o, 3) >= 12
        # left product too
        prod_l = T._mul_fr(T.coords_fr(w), T.coords_fr(u))
        for q, o in zip(prod_l, T._one_fr):
            assert q == o or fraction_valuation(q - o, 3) >= 12
        # agreement with inversion through the regular representation
        direct = alg_inverse(T, u)
        assert direct == w


def test_tensor_right_inverse_singular():
    Fq = qp_algebra(CTX3)
    Aq = qp_algebra(CTX3)
    with pytest.raises(SMatrixSingular):
        tensor_right_inverse(Fq, Aq, [CTX3.vector([-1])])


def test_inversion_derivative_rational_example():
    # p = 3, x = 1, v = 1, t = 3: (1/4 - 1)/3 = -1/4
    A = qp_algebra(CTX3)
    rep = check_inversion_derivative(
        A, CTX3.vector([1]), CTX3.vector([1]), CTX3.from_int(3)
    )
    assert rep.equal
    assert rep.lhs == CTX3.vector([CTX3.from_fraction(Fraction(-1, 4))])


def test_inversion_derivative_zero_direction():
    A = matrix_algebra(CTX3, 2)
    x = CTX3.vector([1, 3, 0, 1])
    rep = check_inversion_derivative(A, x, CTX3.vector([0, 0, 0, 0]), CTX3.from_int(3))
    assert rep.equal
    assert all(s.is_zero for s in rep.lhs)


def test_inversion_derivative_matrix_oracle():
    A = matrix_algebra(CTX3, 2)
    rng = random.Random(41)
    t = CTX3.from_int(3)
    for _ in range(10):
        x = _unit_mat2(rng)
        v = [rng.randrange(27) for _ in range(4)]
        rep = check_inversion_derivative(A, CTX3.vector(x), CTX3.vector(v), t)
        assert rep.equal
        # independent 2x2 route on exact rationals
        xm = _coords_to_mat([Fraction(q) for q in x])
        vm = _coords_to_mat([Fraction(q) for q in v])
        ym = [[xm[i][j] + 3 * vm[i][j] for j in range(2)] for i in range(2)]

        def inv2(m):
            det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
            return [[m[1][1] / det, -m[0][1] / det], [-m[1][0] / det, m[0][0] / det]]

        lhs = [
            [(inv2(ym)[i][j] - inv2(xm)[i][j]) / 3 for j in range(2)] for i in range(2)
        ]
        flat = [lhs[i][j] for i in range(2) for j in range(2)]
        assert rep.lhs == CTX3.vector([CTX3.from_fraction(q) for q in flat])


def test_inversion_derivative_formal_limit():
    A = matrix_algebra(CTX3, 2)
    rng = random.Random(47)
    for _ in range(8):
        x = _unit_mat2(rng)
        v = [rng.randrange(27) for _ in range(4)]
        rep0 = check_inversion_derivative(A, CTX3.vector(x), CTX3.vector(v), CTX3.zero())
        assert rep0.equal
        # quotients at t = 3^k approach the formal value
        prev = -1
        for k in (1, 3, 5):
            repk = check_inversion_derivative(
                A, CTX3.vector(x), CTX3.vector(v), CTX3.from_int(3 ** k)
            )
            gap = min(
                (a - b).v if a != b else INF
                for a, b in zip(repk.lhs, rep0.lhs)
            )
            if gap is not INF:
                assert gap > prev
                prev = gap


def test_scalar_extension_agreement():
    # inversion inside L (x) A equals inversion of the flattened algebra
    L = quadratic_extension(CTX3, 3)
    rng = random.Random(53)
    for A in (qp_algebra(CTX3), matrix_algebra(CTX3, 2)):
        T = tensor_algebra(L, A)
        for _ in range(5):
            z = [
                CTX3.vector([3 * rng.randrange(27) for _ in range(A.n)])
                for _ in range(2)
            ]
            v = tensor_right_inverse(L, A, z)
            u = T.one_vector() + _phi_coords(T, A, z)
            assert alg_inverse(T, u) == T.one_vector() + _phi_coords(T, A, v)


def test_algebra_json_roundtrip():
    L = quadratic_extension(CTX3, 3)
    obj = algebra_to_json(L)
    L2 = algebra_from_json(obj)
    assert L2.n == 2
    x = CTX3.vector([2, 5])
    y = CTX3.vector([1, 7])
    assert _alg_mul(L2, x, y) == _alg_mul(L, x, y)
    with pytest.raises(ValueError):
        algebra_from_json({"n": 2, "t": [], "one": []})
    with pytest.raises(ValueError):
        algebra_from_json([1, 2])


def test_alg_inverse_check_raises_on_a_wrong_inverse(monkeypatch):
    A = matrix_algebra(CTX3, 2)
    u = CTX3.vector([1, 3, 0, 1])
    alg_inverse(A, u)
    monkeypatch.setattr(cia, "_inverse_fr", lambda A, af: (tuple(q + 1 for q in af), None))
    with pytest.raises(InverseCheckFailed):
        alg_inverse(A, u)


def test_tensor_right_inverse_check_raises_on_a_wrong_solve(monkeypatch):
    Fq = qp_algebra(CTX3)
    A = matrix_algebra(CTX3, 2)
    z = [CTX3.vector([3, 6, 3, 9])]
    tensor_right_inverse(Fq, A, z)
    original = cia._gauss_inverse

    def perturbed(block, p):
        inv, pivots = original(block, p)
        inv[0][0] += 1
        return inv, pivots

    monkeypatch.setattr(cia, "_gauss_inverse", perturbed)
    with pytest.raises(InverseCheckFailed):
        tensor_right_inverse(Fq, A, z)
