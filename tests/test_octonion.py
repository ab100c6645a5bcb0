"""Octonion algebra: table, conjugation maps, automorphism boundary."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from octe6.octonion import (
    BASIS_NAMES,
    MUL_TENSOR,
    conj_by,
    exp_imag,
    is_automorphism,
    oconj,
    odagger,
    omatmul,
    omul,
    onorm,
    random_unit_octonion,
    signed_table,
    subalgebra_dimension,
    triality_ell_conjugation_check,
)

from helpers import random_imaginary_unit, random_octonion

SEED = 20260810


def unit(name: str) -> np.ndarray:
    """The basis octonion of that name, as its 8 coefficients."""
    return np.eye(8)[BASIS_NAMES.index(name)]


def close(x, y, tol: float = 1e-12) -> bool:
    return bool(np.allclose(x, y, atol=tol, rtol=0.0))


I, J, K, L, ONE = (unit(name) for name in ("i", "j", "k", "l", "1"))


def coeff_strategy():
    return st.lists(
        st.floats(min_value=-100, max_value=100, allow_nan=False, allow_infinity=False),
        min_size=8, max_size=8,
    )


class TestTable:
    def test_i_times_j_is_k(self):
        assert np.array_equal(omul(I, J), K)

    def test_identity_element(self):
        rng = np.random.default_rng(SEED)
        for _ in range(16):
            x = random_octonion(rng)
            assert close(omul(ONE, x), x)
            assert close(omul(x, ONE), x)

    def test_nonassociative_triple(self):
        # (i j) l and i (j l) differ: the associator of a non-quaternionic triple
        left = omul(omul(I, J), L)
        right = omul(I, omul(J, L))
        assert not close(left, right, tol=1.0)
        assert close(left - right, unit("kl") * 2.0)

    def test_signed_table_shape_and_diagonal(self):
        table = signed_table()
        assert table.shape == (8, 8)
        assert table[0, 0] == 1
        assert all(table[t, t] == -1 for t in range(1, 8))
        # every row and column is a signed permutation of 1..8
        for t in range(8):
            assert sorted(abs(table[t])) == list(range(1, 9))
            assert sorted(abs(table[:, t])) == list(range(1, 9))

    def test_tensor_matches_table(self):
        table = signed_table()
        for a in range(8):
            for b in range(8):
                entry = table[a, b]
                expected = np.zeros(8)
                expected[abs(entry) - 1] = np.sign(entry)
                assert np.array_equal(MUL_TENSOR[a, b], expected)

    def test_table_is_the_readme_table(self):
        table = signed_table()
        assert table.dtype.kind == "i"
        assert np.array_equal(table, _readme_table())

    def test_table_is_a_copy(self):
        table = signed_table()
        table[0, 0] = 5
        assert signed_table()[0, 0] == 1

    def test_tensor_matches_float_doubling(self):
        assert MUL_TENSOR.dtype == np.float64 and not MUL_TENSOR.flags.writeable
        assert MUL_TENSOR.tobytes() == _float_doubling_tensor().tobytes()


def _readme_table() -> np.ndarray:
    """The signed table printed under README's "Multiplication convention"."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    # fenced blocks of the section: the doubling rule, then the table
    table = text.split("## Multiplication convention", 1)[1].split("```")[3]
    return np.array([row.split() for row in table.strip().splitlines()], dtype=int)


def _float_doubling_tensor() -> np.ndarray:
    """T[a, b] = coefficients of e_a e_b, from float quaternion products and the doubling rule."""

    def qmul(x, y):
        a0, a1, a2, a3 = x
        b0, b1, b2, b3 = y
        return np.array([a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
                         a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
                         a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
                         a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0])

    def qconj(x):
        return x * np.array([1.0, -1.0, -1.0, -1.0])

    tensor = np.zeros((8, 8, 8))
    for a, x in enumerate(np.eye(8)):
        p, q = x[:4], x[:3:-1]  # (1, i, j, k, kl, jl, il, l) = p + q l, q read from l backwards
        for b, y in enumerate(np.eye(8)):
            r, s = y[:4], y[:3:-1]
            first = qmul(p, r) - qmul(qconj(s), q)
            second = qmul(s, p) + qmul(q, qconj(r))
            tensor[a, b] = np.concatenate((first, second[::-1])) + 0.0
    return tensor


class TestScalarOps:
    def test_conj_of_i(self):
        assert np.array_equal(oconj(I), -I)

    def test_norm_three_four(self):
        x = ONE * 3.0 + I * 4.0
        assert onorm(x) == pytest.approx(5.0)

    def test_conj_identity(self):
        rng = np.random.default_rng(SEED)
        x = random_octonion(rng)
        # conj(x) = 2 Re(x) - x and x conj(x) = |x|^2
        assert close(oconj(x), ONE * (2.0 * x[0]) - x)
        assert close(omul(x, oconj(x)), ONE * onorm(x) ** 2, tol=1e-12)


class TestExpImag:
    def test_at_zero(self):
        assert close(exp_imag(I, 0.0), ONE)

    def test_quarter_turn(self):
        assert close(exp_imag(I, np.pi / 2), I)

    def test_sixth_root(self):
        got = exp_imag(J, np.pi / 3)
        expected = ONE * 0.5 + J * (np.sqrt(3.0) / 2.0)
        assert close(got, expected)

    def test_unit_norm(self):
        rng = np.random.default_rng(SEED)
        for _ in range(16):
            q = exp_imag(random_imaginary_unit(rng), rng.uniform(-8, 8))
            assert onorm(q) == pytest.approx(1.0)

    def test_rejects_non_imaginary(self):
        with pytest.raises(ValueError):
            exp_imag(ONE, 0.3)
        with pytest.raises(ValueError):
            exp_imag(I * 2.0, 0.3)


class TestConjBy:
    def test_orthogonal_imaginary_unit(self):
        # i (j conj(i)) = -i j i = -j under this table
        assert close(conj_by(I, J), -J)

    def test_fixes_one(self):
        rng = np.random.default_rng(SEED)
        for _ in range(16):
            assert close(conj_by(random_unit_octonion(rng), ONE), ONE)

    def test_sixth_root_multiplicative_on_basis(self):
        u = exp_imag(I, np.pi / 3)
        for a in np.eye(8):
            for b in np.eye(8):
                lhs = conj_by(u, omul(a, b))
                rhs = omul(conj_by(u, a), conj_by(u, b))
                assert close(lhs, rhs, tol=1e-12)

    def test_isometry_for_any_unit(self):
        rng = np.random.default_rng(SEED)
        for _ in range(32):
            u = random_unit_octonion(rng)
            x = random_octonion(rng)
            assert onorm(conj_by(u, x)) == pytest.approx(onorm(x), rel=1e-12)

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError):
            conj_by(I * 2.0, J)


class TestAutomorphism:
    def test_identity_map(self):
        ok, res = is_automorphism(np.eye(8))
        assert ok and res <= 1e-15

    @pytest.mark.parametrize("qname", ["i", "j", "l"])
    @pytest.mark.parametrize("k", range(6))
    def test_sixth_roots_are_automorphisms(self, qname, k):
        u = exp_imag(unit(qname), k * np.pi / 3)
        ok, res = is_automorphism(lambda x: conj_by(u, x))
        assert ok, f"residual {res}"

    @pytest.mark.parametrize("qname", ["i", "j", "l"])
    @pytest.mark.parametrize("theta", [np.pi / 4, np.pi / 5])
    def test_other_angles_are_not(self, qname, theta):
        u = exp_imag(unit(qname), theta)
        ok, res = is_automorphism(lambda x: conj_by(u, x))
        assert not ok
        assert res >= 1e-2

    def test_accepts_matrix_input(self):
        flip = np.diag([1.0, 1, 1, 1, -1, -1, -1, -1])
        ok, res = is_automorphism(flip)
        assert ok and res <= 1e-12


def _automorphism_residual_loop(mat: np.ndarray) -> float:
    """Reference: the f(1) = 1 check, then each of the 64 basis pairs in turn."""
    residual = float(onorm(mat[:, 0] - np.eye(8)[0]))
    for a in range(8):
        for b in range(8):
            image, product = mat @ MUL_TENSOR[a, b], omul(mat[:, a], mat[:, b])
            residual = max(residual, float(onorm(image - product)))
    return residual


class TestAutomorphismOracle:
    def test_matches_basis_pair_loop(self):
        rng = np.random.default_rng(SEED)
        u = exp_imag(unit("jl"), np.pi / 3)
        v = exp_imag(unit("k"), np.pi / 5)
        q, _ = np.linalg.qr(rng.standard_normal((7, 7)))
        rotation = np.eye(8)
        rotation[1:, 1:] = q
        maps = [np.eye(8), rotation, rng.standard_normal((8, 8))]
        maps += [np.stack([conj_by(w, e) for e in np.eye(8)], axis=1)
                 for w in (u, v)]
        for mat in maps:
            ok, res = is_automorphism(mat)
            ref = _automorphism_residual_loop(mat)
            assert res == pytest.approx(ref, rel=1e-12, abs=1e-15)
            assert ok == (ref <= 1e-9)


def _entrywise(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Reference matrix product: out[a, b] = sum_c A[a, c] B[c, b], one omul per entry."""
    return omul(A[:, :, None], B[None, :, :]).sum(axis=1)


def _batch_id(batch):
    return "x".join(map(str, batch)) or "one"


class TestBatchedMatmul:
    # integer-valued coefficients keep every sum exact, so any summation
    # order gives the same floats and the results can be compared exactly
    @pytest.mark.parametrize("batch", [(5,), (2, 3), (2, 1, 3)], ids=_batch_id)
    @pytest.mark.parametrize("n, k, m", [(2, 2, 2), (3, 3, 3), (2, 2, 1)])
    def test_left_stack_matches_item_loop(self, batch, n, k, m):
        rng = np.random.default_rng(SEED)
        A = rng.integers(-3, 4, batch + (n, k, 8)).astype(float)
        B = rng.integers(-3, 4, (k, m, 8)).astype(float)
        expected = np.empty(batch + (n, m, 8))
        for idx in np.ndindex(*batch):
            expected[idx] = omatmul(A[idx], B)
            assert np.array_equal(expected[idx], _entrywise(A[idx], B))
        assert np.array_equal(omatmul(A, B), expected)

    @pytest.mark.parametrize("a_batch, b_batch", [
        ((), (1,)),
        ((), (4,)),
        ((4,), (4,)),
        ((4,), (5,)),
        ((2, 3), (2, 3)),
        ((2,), (3, 2)),
        ((3, 2), (2,)),
    ], ids=_batch_id)
    def test_stacked_right_operand_rejected(self, a_batch, b_batch):
        with pytest.raises(ValueError):
            omatmul(np.zeros(a_batch + (2, 2, 8)), np.zeros(b_batch + (2, 2, 8)))

    def test_dagger_of_stack(self):
        rng = np.random.default_rng(SEED)
        A = rng.standard_normal((4, 2, 3, 8))
        assert np.array_equal(odagger(A), np.stack([odagger(a) for a in A]))
        assert odagger(A).shape == (4, 3, 2, 8)


def _einsum_omul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Reference product: the three-operand contraction with the table."""
    return np.einsum("...i,...j,ijk->...k", x, y, MUL_TENSOR)


class TestProductKernels:
    @pytest.mark.parametrize("x_shape, y_shape", [
        ((8,), (8,)), ((1, 8), (1, 8)), ((500, 8), (500, 8)), ((8,), (40, 8)),
        ((8, 1, 8), (1, 8, 8)), ((3, 4, 8), (4, 8)), ((2, 3, 5, 8), (2, 3, 5, 8)),
    ])
    def test_omul_bitwise_equals_einsum(self, x_shape, y_shape):
        rng = np.random.default_rng(SEED)
        for _ in range(5):
            # coefficients over ten decades, so rounding depends on summation order
            x = rng.standard_normal(x_shape) * 10.0 ** rng.integers(-5, 5, size=x_shape)
            y = rng.standard_normal(y_shape) * 10.0 ** rng.integers(-5, 5, size=y_shape)
            got, ref = omul(x, y), _einsum_omul(x, y)
            assert got.shape == ref.shape
            assert got.tobytes() == ref.tobytes()

    def test_omul_keeps_nan_positions_and_zero_signs(self):
        rng = np.random.default_rng(SEED)
        x = rng.standard_normal((6, 8))
        y = rng.standard_normal((6, 8))
        x[0], y[1] = -0.0, -0.0
        x[2, 3] = np.nan
        x[3, :] = 0.0
        y[3, :] = -0.0
        y[4, 5] = np.nan
        with np.errstate(invalid="ignore"):
            got, ref = omul(x, y), _einsum_omul(x, y)
        nan = np.isnan(ref)
        assert nan.any() and np.array_equal(np.isnan(got), nan)
        # bitwise on every other entry, so the sign of each zero too
        assert got[~nan].tobytes() == ref[~nan].tobytes()

    def test_omul_accepts_sequences(self):
        assert np.array_equal(omul(I.tolist(), J.tolist()), K)

    def test_oconj_keeps_sign_of_zero(self):
        x = np.array([-0.0, -0.0, 0.0, -0.0, 1.0, -1.0, 0.0, -0.0])
        got = oconj(x)
        assert np.array_equal(np.signbit(got), [True, False, True, False, True, False, True, False])
        assert np.array_equal(got, [0, 0, 0, 0, -1, 1, 0, 0])

    def test_oconj_and_dagger_do_not_alias_input(self):
        rng = np.random.default_rng(SEED)
        A = rng.standard_normal((3, 3, 8))
        before = A.copy()
        odagger(A)[...] = 0.0
        oconj(A)[...] = 0.0
        assert np.array_equal(A, before)


class TestEllConjugation:
    def test_full_identity(self):
        assert triality_ell_conjugation_check() <= 1e-12

    def test_basis_cases(self):
        # q = 1: k (j (i 1)) = 1;  q = l: both sides equal -l
        assert close(omul(K, omul(J, omul(I, ONE))), ONE)
        lhs = omul(K, omul(J, omul(I, L)))
        rhs = omul(omul(omul(L, oconj(I)), oconj(J)), oconj(K))
        assert close(lhs, -L)
        assert close(rhs, -L)


class TestSubalgebraDimension:
    @pytest.mark.parametrize("names,expected", [
        ((), 1),
        (("i",), 2),
        (("i", "j"), 4),
        (("i", "l"), 4),          # closure {1, i, l, il}
        (("i", "j", "l"), 8),
        (("j", "kl"), 4),
    ])
    def test_basis_generators(self, names, expected):
        gens = [unit(n) for n in names]
        assert subalgebra_dimension(gens) == expected

    def test_random_octonion_generates_complex_line(self):
        rng = np.random.default_rng(SEED)
        x = random_octonion(rng)
        assert subalgebra_dimension([x]) == 2

    @pytest.mark.parametrize("scale", [1e-300, 1e-12, 1.0, 1e300])
    def test_dimension_does_not_depend_on_scale(self, scale):
        # below about 1e-10 the closure's cut was absolute and gave 1
        rng = np.random.default_rng(SEED)
        pair = [random_octonion(rng, scale) for _ in range(2)]
        assert subalgebra_dimension(pair) == 4
        assert subalgebra_dimension(pair[:1]) == 2
        assert subalgebra_dimension(pair + [L * scale]) == 8
        assert subalgebra_dimension([ONE * scale, np.zeros(8)]) == 1

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_generator_raises(self, bad):
        g = np.zeros(8)
        g[2] = bad
        with pytest.raises(ValueError, match="finite"):
            subalgebra_dimension([I, g])


class TestAlgebraLaws:
    def test_composition_law_bulk(self):
        # 10^4 random pairs: |N(xy) - N(x)N(y)| <= 1e-9 N(x)N(y)
        rng = np.random.default_rng(SEED)
        x = rng.standard_normal((10_000, 8))
        y = rng.standard_normal((10_000, 8))
        prod_norm = onorm(omul(x, y))
        separate = onorm(x) * onorm(y)
        assert np.all(np.abs(prod_norm - separate) <= 1e-9 * separate)

    def test_alternativity(self):
        rng = np.random.default_rng(SEED)
        x = rng.standard_normal((256, 8))
        y = rng.standard_normal((256, 8))
        left = omul(x, omul(x, y)) - omul(omul(x, x), y)
        right = omul(omul(y, x), x) - omul(y, omul(x, x))
        assert np.abs(left).max() <= 1e-9
        assert np.abs(right).max() <= 1e-9

    def test_flexibility_exact_on_basis(self):
        for a in range(8):
            for b in range(8):
                x, y = np.eye(8)[a], np.eye(8)[b]
                assert np.array_equal(omul(x, omul(y, x)), omul(omul(x, y), x))

    def test_associator_antisymmetry(self):
        rng = np.random.default_rng(SEED)

        def assoc(x, y, z):
            return omul(omul(x, y), z) - omul(x, omul(y, z))

        for _ in range(64):
            x, y, z = rng.standard_normal((3, 8))
            a = assoc(x, y, z)
            assert np.allclose(a, -assoc(y, x, z), atol=1e-9)
            assert np.allclose(a, -assoc(x, z, y), atol=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(coeff_strategy(), coeff_strategy())
    def test_composition_law_hypothesis(self, xc, yc):
        x, y = np.array(xc), np.array(yc)
        lhs = onorm(omul(x, y))
        rhs = onorm(x) * onorm(y)
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, rhs)

    @settings(max_examples=60, deadline=None)
    @given(coeff_strategy(), coeff_strategy())
    def test_flexibility_hypothesis(self, xc, yc):
        x, y = np.array(xc), np.array(yc)
        scale = max(1.0, float(onorm(x)) ** 2 * float(onorm(y)))
        assert np.allclose(omul(x, omul(y, x)), omul(omul(x, y), x), atol=1e-12 * scale)

    def test_conj_reverses_products(self):
        rng = np.random.default_rng(SEED)
        x, y = rng.standard_normal((2, 8))
        assert np.allclose(oconj(omul(x, y)), omul(oconj(y), oconj(x)), atol=1e-12)

