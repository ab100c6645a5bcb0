"""H3(O) products, invariants, characteristic equation, block identities."""

import math
import warnings

import numpy as np
import pytest

from octe6 import jordan
from octe6.jordan import (
    Hermitian2,
    JordanMatrix,
    assemble,
    block_split,
    char_residual,
    det3,
    det_block_identity,
    eigenvalues,
    freudenthal,
    hermitian2_from_dict,
    hermitian2_to_dict,
    hermitian_arrays,
    hermitian_vectors,
    hermiticity_residual,
    jordan_from_dict,
    jordan_product,
    jordan_to_dict,
    lorentz_inner,
    random_complex_jordan,
    random_jordan,
    sigma,
    spinor_square,
    trace_identity_check,
    triple,
)
from octe6.octonion import BASIS_NAMES, oconj, omatmul, omul, onorm, signed_table
from octe6.transform import NestedMap, cyclic_permutation

SEED = 31415

I3 = JordanMatrix.identity()
E11 = JordanMatrix.diag(1, 0, 0)


def classical_complex_matrix(X: JordanMatrix, s: np.ndarray) -> np.ndarray:
    """Map a complex-subalgebra Jordan matrix into M3(C) for oracle checks."""

    def to_c(o):
        return complex(o[0], float(o[1:] @ s[1:]))

    arr = X.to_array()
    return np.array([[to_c(arr[r, c]) for c in range(3)] for r in range(3)])


class TestJordanProduct:
    def test_identity_neutral(self):
        rng = np.random.default_rng(SEED)
        X = random_jordan(rng)
        assert jordan_product(X, I3).isclose(X, tol=1e-12)

    def test_diagonal_case(self):
        got = jordan_product(JordanMatrix.diag(1, 2, 3), JordanMatrix.diag(4, 5, 6))
        assert got.isclose(JordanMatrix.diag(4, 10, 18))

    def test_square_matches_raw_matrix_square(self):
        # the raw octonionic square of a Hermitian matrix is already Hermitian
        rng = np.random.default_rng(SEED)
        X = random_jordan(rng)
        raw = omatmul(X.to_array(), X.to_array())
        got = jordan_product(X, X).to_array()
        assert np.allclose(got, raw, atol=1e-12)

    def test_commutative(self):
        rng = np.random.default_rng(SEED)
        for _ in range(16):
            X, Y = random_jordan(rng), random_jordan(rng)
            lhs = jordan_product(X, Y)
            rhs = jordan_product(Y, X)
            assert lhs.isclose(rhs, tol=1e-12)


class TestFreudenthal:
    def test_identity_with_itself(self):
        assert freudenthal(I3, I3).isclose(I3, tol=1e-12)

    def test_diag_with_identity(self):
        # X * I = (tr(X) I - X) / 2
        X = JordanMatrix.diag(1, 2, 3)
        assert freudenthal(X, I3).isclose(JordanMatrix.diag(2.5, 2.0, 1.5), tol=1e-12)

    def test_primitive_idempotent_squares_to_zero(self):
        assert freudenthal(E11, E11).norm <= 1e-12

    def test_symmetric(self):
        rng = np.random.default_rng(SEED)
        X, Y = random_jordan(rng), random_jordan(rng)
        assert freudenthal(X, Y).isclose(freudenthal(Y, X), tol=1e-10)


class TestDeterminant:
    def test_identity(self):
        assert det3(I3) == pytest.approx(1.0)

    def test_diagonal(self):
        assert det3(JordanMatrix.diag(2, -3, 5)) == pytest.approx(-30.0)

    def test_matches_classical_determinant_in_complex_subalgebra(self):
        rng = np.random.default_rng(SEED)
        for _ in range(16):
            X, s = random_complex_jordan(rng)
            classical = np.linalg.det(classical_complex_matrix(X, s))
            assert abs(classical.imag) <= 1e-10
            assert det3(X) == pytest.approx(classical.real, abs=1e-9)

    def test_invariant_under_cyclic_permutation(self):
        rng = np.random.default_rng(SEED)
        T = NestedMap([cyclic_permutation()])
        for _ in range(8):
            X = random_jordan(rng)
            assert det3(T.apply(X)) == pytest.approx(det3(X), rel=1e-10)


class TestSigma:
    def test_identity(self):
        assert sigma(I3) == pytest.approx(3.0)

    def test_diagonal_symmetric_polynomial(self):
        assert sigma(JordanMatrix.diag(1, 2, 3)) == pytest.approx(11.0)

    def test_primitive_idempotent(self):
        assert sigma(E11) == pytest.approx(0.0, abs=1e-12)

    def test_matches_freudenthal_trace(self):
        # tr(X * X) and ((tr X)^2 - tr(X o X))/2 are the same invariant
        rng = np.random.default_rng(SEED)
        for scale in (1e-3, 1.0, 1e3):
            for _ in range(16):
                X = random_jordan(rng, scale)
                assert freudenthal(X, X).trace == pytest.approx(
                    sigma(X), rel=0, abs=1e-12 * max(1.0, X.norm**2))


class TestCharacteristicEquation:
    def test_identity(self):
        assert char_residual(I3).norm <= 1e-12

    def test_diagonal(self):
        assert char_residual(JordanMatrix.diag(1, 2, 3)).norm <= 1e-12

    def test_random_dense(self):
        rng = np.random.default_rng(SEED)
        for _ in range(64):
            X = random_jordan(rng)
            assert char_residual(X).norm <= 1e-8 * X.norm**3

    def test_triple_product_definition(self):
        rng = np.random.default_rng(SEED)
        X = random_jordan(rng)
        got = triple(X, X, X).trace / 3.0
        assert got == pytest.approx(det3(X), rel=1e-10)


class TestEigenvalues:
    def test_diagonal(self):
        assert np.allclose(eigenvalues(JordanMatrix.diag(1, 2, 3)), [3, 2, 1])

    def test_scalar(self):
        assert np.allclose(eigenvalues(I3 * 2.0), [2, 2, 2])

    def test_elementary_symmetric_functions(self):
        rng = np.random.default_rng(SEED)
        for _ in range(32):
            X = random_jordan(rng)
            lam = eigenvalues(X)
            assert lam.sum() == pytest.approx(X.trace, abs=1e-8 * max(1, X.norm))
            assert (lam[0] * lam[1] + lam[0] * lam[2] + lam[1] * lam[2]) == pytest.approx(
                sigma(X), abs=1e-7 * max(1, X.norm**2))
            assert lam.prod() == pytest.approx(det3(X), abs=1e-7 * max(1, X.norm**3))

    def test_matches_hermitian_eigensolver_in_complex_subalgebra(self):
        rng = np.random.default_rng(SEED)
        for _ in range(16):
            X, s = random_complex_jordan(rng)
            classical = np.linalg.eigvalsh(classical_complex_matrix(X, s))[::-1]
            assert np.allclose(eigenvalues(X), classical, atol=1e-8)

    def test_discriminant_nonnegative(self):
        # three real roots for Hermitian input
        rng = np.random.default_rng(SEED)
        for _ in range(256):
            X = random_jordan(rng)
            c2, c1, c0 = X.trace, sigma(X), det3(X)
            disc = (18 * c2 * c1 * c0 - 4 * c2**3 * c0 + c2**2 * c1**2
                    - 4 * c1**3 - 27 * c0**2)
            assert disc >= -1e-9 * max(1.0, X.norm**6)


def _det3_triple(X: JordanMatrix) -> float:
    """Oracle: tr[X, X, X]/3 from the Freudenthal and Jordan products."""
    return triple(X, X, X).trace / 3.0


def _sigma_jordan(X: JordanMatrix) -> float:
    """Oracle: ((tr X)^2 - tr(X o X))/2 from one Jordan product."""
    return 0.5 * (X.trace**2 - jordan_product(X, X).trace)


class TestClosedFormInvariants:
    @pytest.mark.parametrize("scale", [1e-3, 1e-1, 1.0, 1e1, 1e3])
    def test_det3_matches_triple_product(self, scale):
        rng = np.random.default_rng(SEED)
        for _ in range(32):
            X = random_jordan(rng, scale)
            assert det3(X) == pytest.approx(_det3_triple(X), rel=0,
                                            abs=1e-12 * max(1.0, X.norm) ** 3)

    @pytest.mark.parametrize("scale", [1e-3, 1e-1, 1.0, 1e1, 1e3])
    def test_sigma_matches_jordan_product(self, scale):
        rng = np.random.default_rng(SEED)
        for _ in range(32):
            X = random_jordan(rng, scale)
            assert sigma(X) == pytest.approx(_sigma_jordan(X), rel=0,
                                             abs=1e-12 * max(1.0, X.norm) ** 2)

    def test_exact_homogeneity(self):
        # negation and scaling by powers of two commute with every rounding
        rng = np.random.default_rng(SEED)
        for _ in range(8):
            X = random_jordan(rng)
            assert det3(-X) == -det3(X) and det3(X * 2.0) == 8.0 * det3(X)
            assert sigma(-X) == sigma(X) and sigma(X * 0.5) == 0.25 * sigma(X)
        assert det3(JordanMatrix.diag(1, 1, 0)) == 0.0

    def test_scalar_result_for_one_matrix(self):
        X = random_jordan(np.random.default_rng(SEED))
        for f in (det3, sigma):
            assert type(f(X)) is float

    @pytest.mark.parametrize("batch", [(1,), (50,), (4, 5)])
    def test_matrices_equal_the_unscaled_formulas_bitwise(self, batch):
        rng = np.random.default_rng(SEED)
        V = rng.standard_normal(batch + (27,)) * 10.0 ** rng.integers(-3, 4, size=batch + (1,))
        for idx in np.ndindex(*batch):
            X = JordanMatrix.from_vector(V[idx])
            assert _bits(det3(X)) == _bits(_det3_formula(V[idx]))
            assert _bits(sigma(X)) == _bits(_sigma_formula(V[idx]))


def _eigen_samples(rng) -> dict:
    from octe6.cayley import random_quaternionic_spinor
    one = random_quaternionic_spinor(rng).square()
    two = one + random_quaternionic_spinor(rng).square()
    return {"rank-1": one, "rank-2": two, "generic": random_jordan(rng)}


class TestEigenvalueScale:
    # rank-1 inputs have a double root at 0, which the cubic resolves only
    # to about sqrt(eps) of the top eigenvalue
    @pytest.mark.parametrize("t", [1e-90, 1e-60, 1e-30, 1e-15, 1e-8, 1e-3])
    def test_scaled_input_scales_spectrum(self, t):
        rng = np.random.default_rng(SEED)
        for kind, X in _eigen_samples(rng).items():
            ref = eigenvalues(X)
            got = eigenvalues(X * t) / t
            assert np.abs(got - ref).max() <= 1e-8 * np.abs(ref).max(), kind

    def test_near_triple_root_under_f4_words(self):
        # F4 keeps the spectrum; rounding in the image's invariants must not
        # be magnified by the cube root of the triple-root fallback
        from octe6.generators import roster
        rng = np.random.default_rng(SEED)
        curves = roster("F4")
        for _ in range(24):
            X = JordanMatrix.from_vector(np.r_[np.ones(3), rng.standard_normal(24) * 1e-9])
            nm = curves[int(rng.integers(len(curves)))](rng.uniform(-1, 1))
            for t in rng.choice(len(curves), size=3):
                nm = nm.compose(curves[t](rng.uniform(-1, 1)))
            assert np.abs(eigenvalues(nm.apply(X)) - 1.0).max() <= 1e-7

    def test_rank_one_top_eigenvalue_is_trace(self):
        from octe6.cayley import random_quaternionic_spinor
        X = random_quaternionic_spinor(np.random.default_rng(SEED)).square() * 1e-30
        assert eigenvalues(X)[0] == pytest.approx(X.trace, rel=1e-8, abs=0.0)

    @pytest.mark.parametrize("t", [1e-300, 1e-150, 1e-120, 1e-60, 1e60, 1e120, 1e150, 1e300])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_generic_spectrum_at_extreme_scales(self, t, seed):
        # NaN at 1e-120 and 1e-150, a false triple root at 1e-300 and
        # OverflowError from 1e120 up, before the power-of-two scaling
        X = random_jordan(np.random.default_rng(seed))
        ref = eigenvalues(X)
        got = eigenvalues(X * t)
        assert np.isfinite(got).all()
        assert np.abs(got / t - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("exponent", [-1000, -400, -1, 1, 400, 900])
    def test_power_of_two_scaling_is_exact(self, exponent):
        rng = np.random.default_rng(SEED)
        for X in list(_eigen_samples(rng).values()) + [random_jordan(rng) for _ in range(4)]:
            scaled = JordanMatrix.from_vector(np.ldexp(X.to_vector(), exponent))
            assert np.array_equal(eigenvalues(scaled), np.ldexp(eigenvalues(X), exponent))


def _scaled_oracle(X):
    """X divided by the power of two that brings its largest coordinate into [1/2, 1), and that power."""
    v = X.to_vector()
    exponent = math.frexp(float(np.abs(v).max()))[1]
    return type(X).from_vector(np.ldexp(v, -exponent)), exponent


def _norm_oracle(X) -> float:
    """Reference norm: squares of the scaled coordinates summed in order, scaled back."""
    S, exponent = _scaled_oracle(X)
    v = S.to_vector()
    diag = v[:S.SIZE].tolist()
    quad = diag[0] ** 2
    for x in diag[1:]:
        quad += x**2
    off = [v[k:k + 8] @ v[k:k + 8] for k in range(S.SIZE, S.DIM, 8)]
    return math.ldexp(math.sqrt(quad + 2.0 * sum(off[1:], off[0])), exponent)


def _eigenvalues_oracle(X: JordanMatrix) -> np.ndarray:
    """Reference eigenvalues: the trigonometric cubic on the scaled X, from the unscaled closed forms."""
    S, exponent = _scaled_oracle(X)
    v = S.to_vector()
    c2, c1, c0, scale = S.trace, _sigma_formula(v), _det3_formula(v), _norm_oracle(S)
    shift = c2 / 3.0
    pdep = min(c1 - c2 * c2 / 3.0, 0.0)
    qdep = -2.0 * c2**3 / 27.0 + c1 * c2 / 3.0 - c0
    if -pdep <= 1e-14 * scale * scale:
        bound = 2.0 * (-pdep / 3.0) ** 1.5
        roots = np.full(3, shift + np.cbrt(-np.clip(qdep, -bound, bound)))
    else:
        amp = 2.0 * np.sqrt(-pdep / 3.0)
        phi = np.arccos(np.clip(3.0 * qdep / (pdep * amp), -1.0, 1.0)) / 3.0
        roots = shift + amp * np.cos(phi - 2.0 * np.pi * np.arange(3) / 3.0)
    return np.ldexp(np.sort(roots)[::-1], exponent)


def _ldexp_or_inf(x: float, exponent: int) -> float:
    try:
        return math.ldexp(x, exponent)
    except OverflowError:
        return math.copysign(math.inf, x)


def _invariant_samples() -> list:
    rng = np.random.default_rng(SEED)
    return list(_eigen_samples(rng).values()) + [random_jordan(rng) for _ in range(3)]


def _hermitian2_samples() -> list:
    rng = np.random.default_rng(SEED)
    null = Hermitian2(1.0, 4.0, np.r_[2.0, np.zeros(7)])
    return [null] + [Hermitian2(*rng.standard_normal(2), rng.standard_normal(8)) for _ in range(5)]


def _re_bac_formula(off: np.ndarray) -> np.ndarray:
    """Re((b a) c) through omul and oconj, summed by np.sum, for octonions (..., 3, 8) = (a, b, c)."""
    return np.sum(omul(off[..., 1, :], off[..., 0, :]) * oconj(off[..., 2, :]), axis=-1)


def _sigma_formula(v: np.ndarray) -> float:
    """pm + mn + np - |a|^2 - |b|^2 - |c|^2 of 27 coordinates, unscaled."""
    p, m, n = v[:3].tolist()
    aa, bb, cc = np.sum(v[3:].reshape(3, 8) ** 2, axis=-1).tolist()
    return p * m + m * n + n * p - aa - bb - cc


def _det3_formula(v: np.ndarray) -> float:
    """pmn - p|b|^2 - m|c|^2 - n|a|^2 + 2 Re((b a) c) of 27 coordinates, unscaled, through omul."""
    p, m, n = v[:3].tolist()
    off = v[3:].reshape(3, 8)
    aa, bb, cc = np.sum(off**2, axis=-1).tolist()
    return p * m * n - p * bb - m * cc - n * aa + 2.0 * float(_re_bac_formula(off))


def _re_bac_integer(a: list, b: list, c: list) -> int:
    """Re((b a) c) of integer octonions, summed exactly from the signed basis table."""
    table = signed_table()
    ba = [0] * 8
    for i in range(8):
        for j in range(8):
            t = int(table[i, j])
            ba[abs(t) - 1] += (1 if t > 0 else -1) * b[i] * a[j]
    return ba[0] * c[0] - sum(x * y for x, y in zip(ba[1:], c[1:]))


class TestScaledInvariants:
    """det3, sigma, norm and eigenvalues read one tuple computed once per matrix."""

    @pytest.mark.parametrize("k", [-1000, -600, -340, -300, -100, -1, 0, 1, 100, 300, 340, 600, 900])
    def test_fresh_matrices_match_the_formulas(self, k):
        for X in _invariant_samples():
            v = np.ldexp(X.to_vector(), k)
            Y = JordanMatrix.from_vector(v)
            assert _bits(Y.norm) == _bits(_norm_oracle(Y))
            assert _bits(eigenvalues(Y)) == _bits(_eigenvalues_oracle(Y))
            # exactly 2^(3k) det and 2^(2k) sigma of the unit-scale matrix ...
            unit = X.to_vector()
            assert _bits(det3(Y)) == _bits(_ldexp_or_inf(_det3_formula(unit), 3 * k))
            assert _bits(sigma(Y)) == _bits(_ldexp_or_inf(_sigma_formula(unit), 2 * k))
            # ... which is the unscaled closed form wherever its products stay normal
            if abs(k) <= 300:
                assert _bits(det3(Y)) == _bits(_det3_formula(v))
            if abs(k) <= 340:
                assert _bits(sigma(Y)) == _bits(_sigma_formula(v))

    @pytest.mark.parametrize("k", [-1000, -600, -340, -300, -100, -1, 0, 1, 100, 300, 340, 600, 900])
    def test_fresh_hermitian2_match_the_formulas(self, k):
        for X in _hermitian2_samples():
            Y = Hermitian2.from_vector(np.ldexp(X.to_vector(), k))
            assert _bits(Y.norm) == _bits(_norm_oracle(Y))
            # exactly 2^(2k) times the unit-scale x1 x2 - a.a
            unit = X.x1 * X.x2 - float(X.a @ X.a)
            assert _bits(Y.det) == _bits(_ldexp_or_inf(unit, 2 * k))

    @pytest.mark.parametrize("tiny", [5e-324, 5e-320, 1e-310])
    def test_subnormal_inputs_match_the_formulas(self, tiny):
        rng = np.random.default_rng(SEED)
        for _ in range(6):
            # every coordinate subnormal, or subnormals beside normal ones
            for v in (rng.standard_normal(27) * tiny,
                      np.where(rng.random(27) < 0.5, tiny, 1.0) * rng.standard_normal(27)):
                Y = JordanMatrix.from_vector(v)
                S, e = _scaled_oracle(Y)
                unit = S.to_vector()
                assert _bits(Y.norm) == _bits(_norm_oracle(Y))
                assert _bits(eigenvalues(Y)) == _bits(_eigenvalues_oracle(Y))
                assert _bits(det3(Y)) == _bits(_ldexp_or_inf(_det3_formula(unit), 3 * e))
                assert _bits(sigma(Y)) == _bits(_ldexp_or_inf(_sigma_formula(unit), 2 * e))
            P = Hermitian2.from_vector(rng.standard_normal(10) * tiny)
            S, e = _scaled_oracle(P)
            assert _bits(P.norm) == _bits(_norm_oracle(P))
            assert _bits(P.det) == _bits(_ldexp_or_inf(S.x1 * S.x2 - float(S.a @ S.a), 2 * e))

    def test_invariants_are_computed_once(self, monkeypatch):
        from octe6.cayley import classify, psquare_decompose
        passes = []
        real = jordan._re_bac
        monkeypatch.setattr(jordan, "_re_bac", lambda off: passes.append(1) or real(off))
        X = random_jordan(np.random.default_rng(SEED))
        det3(X), sigma(X), X.norm, eigenvalues(X), classify(X), psquare_decompose(X)
        assert len(passes) == 1

    def test_results_do_not_inherit_invariants(self):
        from octe6.generators import boost_curves
        rng = np.random.default_rng(SEED)
        X, Y = random_jordan(rng), random_jordan(rng)
        for M in (X, Y):
            det3(M), eigenvalues(M)
        boost = boost_curves(0)[0](0.9)
        for Z in (X + Y, X - Y, X * 3.0, 0.5 * X, -X, boost.apply(X),
                  JordanMatrix.from_vector(X.to_vector())):
            v = Z.to_vector()
            assert _bits(det3(Z)) == _bits(_det3_formula(v))
            assert _bits(sigma(Z)) == _bits(_sigma_formula(v))
            assert _bits(Z.norm) == _bits(_norm_oracle(Z))
            assert _bits(eigenvalues(Z)) == _bits(_eigenvalues_oracle(Z))
        P = Hermitian2(1.0, 2.0, np.arange(8.0))
        Q = Hermitian2(-3.0, 0.5, np.ones(8))
        P.det, Q.det
        for R in (P + Q, P - Q, P * 3.0, -P):
            assert _bits(R.det) == _bits(R.x1 * R.x2 - float(R.a @ R.a))
            assert _bits(R.norm) == _bits(_norm_oracle(R))

    @pytest.mark.parametrize("make", [
        lambda X: X,
        lambda X: X + X,
        lambda X: X * 2.0,
        lambda X: JordanMatrix.from_vector(X.to_vector()),
        lambda X: JordanMatrix.from_array(X.to_array()),
        lambda X: NestedMap.single(cyclic_permutation()).apply(X),
    ], ids=["read", "sum", "scaled", "from_vector", "from_array", "apply"])
    def test_coordinates_stay_read_only(self, make):
        X = make(random_jordan(np.random.default_rng(SEED)))
        before = det3(X), sigma(X), X.norm
        with pytest.raises(ValueError):
            X.to_vector()[3] = 7.0
        assert (det3(X), sigma(X), X.norm) == before


class TestInvariantReaders:
    """The JordanMatrix invariant readers refuse a Hermitian2 instead of misreading it."""

    @pytest.mark.parametrize("read", ["det3", "sigma", "eigenvalues", "classify", "psquare_decompose"])
    def test_hermitian2_raises_type_error(self, read):
        from octe6 import cayley
        f = getattr(jordan, read, None) or getattr(cayley, read)
        for P in (Hermitian2(1.0, 2.0), Hermitian2.identity(), Hermitian2(1.0, 1.0, np.r_[1.0, np.zeros(7)])):
            with pytest.raises(TypeError, match="JordanMatrix"):
                f(P)

    @pytest.mark.parametrize("read", ["det3", "sigma", "eigenvalues", "classify", "psquare_decompose"])
    def test_coordinate_arrays_raise_type_error(self, read):
        from octe6 import cayley
        f = getattr(jordan, read, None) or getattr(cayley, read)
        rng = np.random.default_rng(SEED)
        v = random_jordan(rng).to_vector()
        for arr in (v, np.stack([v, random_jordan(rng).to_vector()])):
            with pytest.raises(TypeError, match="JordanMatrix"):
                f(arr)


class TestReBac:
    """Re((b a) c), the shared kernel of det3, against oracles that do not call it."""

    @pytest.mark.parametrize("k", [-300, -1, 0, 1, 300])
    def test_single_triples_match_omul_bitwise(self, k):
        rng = np.random.default_rng(SEED)
        for _ in range(64):
            off = np.ldexp(rng.standard_normal((3, 8)), k)
            assert _bits(jordan._re_bac(off)) == _bits(_re_bac_formula(off))

    @pytest.mark.parametrize("shape", [(1,), (2,), (100,), (4, 5)])
    def test_stacks_match_omul_bitwise(self, shape):
        off = np.random.default_rng(SEED).standard_normal(shape + (3, 8))
        got = jordan._re_bac(off)
        assert got.shape == shape
        assert _bits(got) == _bits(_re_bac_formula(off))

    def test_small_integers_are_exact(self):
        rng = np.random.default_rng(SEED)
        ints = rng.integers(-9, 10, size=(200, 3, 8))
        want = [_re_bac_integer(*(o.tolist() for o in triple)) for triple in ints]
        assert jordan._re_bac(ints.astype(float)).tolist() == want
        assert [float(jordan._re_bac(triple.astype(float))) for triple in ints] == want


class TestBlocks:
    def test_lorentz_inner_of_identity(self):
        assert lorentz_inner(Hermitian2.identity(), Hermitian2.identity()) == pytest.approx(-1.0)

    def test_inner_is_minus_det_on_diagonal(self):
        rng = np.random.default_rng(SEED)
        for _ in range(8):
            X = Hermitian2(rng.standard_normal(), rng.standard_normal(), rng.standard_normal(8))
            assert lorentz_inner(X, X) == pytest.approx(-X.det, rel=1e-10)

    def test_inner_matches_symmetrised_product(self):
        # reference: (tr(X o Y) - tr X tr Y)/2 with X o Y = (XY + YX)/2
        rng = np.random.default_rng(SEED)
        for _ in range(64):
            X, Y = (Hermitian2(rng.standard_normal(), rng.standard_normal(),
                               rng.standard_normal(8)) for _ in range(2))
            Xa, Ya = X.to_array(), Y.to_array()
            raw = 0.5 * (omatmul(Xa, Ya) + omatmul(Ya, Xa))
            expected = 0.5 * (raw[0, 0, 0] + raw[1, 1, 0] - X.trace * Y.trace)
            assert lorentz_inner(X, Y) == pytest.approx(expected, rel=0, abs=1e-12 * X.norm * Y.norm)

    def test_block_identity_zero_spinor(self):
        rng = np.random.default_rng(SEED)
        X = Hermitian2(rng.standard_normal(), rng.standard_normal(), rng.standard_normal(8))
        n = rng.standard_normal()
        lhs, rhs = det_block_identity(X, np.zeros((2, 8)), n)
        assert lhs == pytest.approx(X.det * n, abs=1e-10)
        assert rhs == pytest.approx(X.det * n, abs=1e-10)

    def test_block_identity_complex_spinor(self):
        rng = np.random.default_rng(SEED)
        for _ in range(32):
            X = Hermitian2(rng.standard_normal(), rng.standard_normal(), rng.standard_normal(8))
            s = rng.standard_normal(8)
            s[0] = 0.0
            s /= onorm(s)
            theta = np.outer(rng.standard_normal(2), np.eye(8)[0]) \
                + np.outer(rng.standard_normal(2), s)
            lhs, rhs = det_block_identity(X, theta, rng.standard_normal())
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))

    def test_assemble_roundtrip(self):
        rng = np.random.default_rng(SEED)
        X = Hermitian2(1.5, -0.5, rng.standard_normal(8))
        theta = rng.standard_normal((2, 8))
        J = assemble(X, theta, 2.5)
        X2, theta2, n2 = block_split(J)
        assert X2.isclose(X)
        assert np.allclose(theta2, theta)
        assert n2 == 2.5

    def test_spinor_square_is_hermitian_square(self):
        rng = np.random.default_rng(SEED)
        theta = rng.standard_normal((2, 8))
        sq = spinor_square(theta)
        assert sq.x1 == pytest.approx(theta[0] @ theta[0])
        assert sq.det == pytest.approx(0.0, abs=1e-10)


class TestTraceIdentity:
    def test_identity_matrix(self):
        rng = np.random.default_rng(SEED)
        M = np.zeros((3, 3, 8))
        for d in range(3):
            M[d, d, 0] = 1.0
        assert trace_identity_check(M, random_jordan(rng)) <= 1e-12

    def test_unitary_complex_preserves_trace(self):
        rng = np.random.default_rng(SEED)
        theta = 0.83
        M = np.zeros((3, 3, 8))
        # diag(e^{i theta}, e^{-i theta}, 1): unitary with entries in span{1, i}
        M[0, 0] = [np.cos(theta), np.sin(theta), 0, 0, 0, 0, 0, 0]
        M[1, 1] = oconj(M[0, 0])
        M[2, 2, 0] = 1.0
        X = random_jordan(rng)
        transformed = NestedMap.single(M).apply(X)
        assert transformed.trace == pytest.approx(X.trace, rel=1e-12)
        assert trace_identity_check(M, X) <= 1e-10

    def test_random_complex_matrix(self):
        rng = np.random.default_rng(SEED)
        for _ in range(16):
            s = rng.standard_normal(8)
            s[0] = 0.0
            s /= onorm(s)
            M = np.einsum("rc,I->rcI", rng.standard_normal((3, 3)), np.eye(8)[0]) \
                + np.einsum("rc,I->rcI", rng.standard_normal((3, 3)), s)
            assert trace_identity_check(M, random_jordan(rng)) <= 1e-9

    def test_rejects_non_complex(self):
        M = np.zeros((3, 3, 8))
        M[0, 0, 1] = 1.0  # i
        M[1, 1, 2] = 1.0  # j
        M[2, 2, 0] = 1.0
        with pytest.raises(ValueError):
            trace_identity_check(M, I3)


class TestVectorization:
    def test_roundtrip_on_basis(self):
        for t, B in enumerate(JordanMatrix.basis()):
            v = B.to_vector()
            assert v[t] == 1.0 and np.count_nonzero(v) == 1
            assert JordanMatrix.from_vector(v).isclose(B)

    def test_linear_bijection(self):
        rng = np.random.default_rng(SEED)
        v = rng.standard_normal(27)
        w = rng.standard_normal(27)
        X, Y = JordanMatrix.from_vector(v), JordanMatrix.from_vector(w)
        assert np.allclose((X + Y).to_vector(), v + w)
        assert np.allclose((X * 2.5).to_vector(), 2.5 * v)

    def test_from_array_validates_hermiticity(self):
        arr = np.zeros((3, 3, 8))
        arr[0, 1, 0] = 1.0  # upper entry without conjugate partner
        with pytest.raises(ValueError):
            JordanMatrix.from_array(arr)


def _to_array_fieldwise(X) -> np.ndarray:
    """Reference: the entry-by-entry to_array of the earlier per-class code."""
    if isinstance(X, Hermitian2):
        arr = np.zeros((2, 2, 8))
        arr[0, 0, 0], arr[1, 1, 0] = X.x1, X.x2
        arr[1, 0] = X.a
        arr[0, 1] = oconj(X.a)
        return arr
    arr = np.zeros((3, 3, 8))
    arr[0, 0, 0], arr[1, 1, 0], arr[2, 2, 0] = X.p, X.m, X.n
    arr[1, 0] = X.a
    arr[0, 1] = oconj(X.a)
    arr[2, 1] = X.b
    arr[1, 2] = oconj(X.b)
    arr[0, 2] = X.c
    arr[2, 0] = oconj(X.c)
    return arr


def _fields(X) -> tuple[list[float], list[np.ndarray]]:
    """Reals as Python floats and octonions as separately allocated arrays."""
    if isinstance(X, Hermitian2):
        return [X.x1, X.x2], [np.array(X.a)]
    return [X.p, X.m, X.n], [np.array(X.a), np.array(X.b), np.array(X.c)]


def _norm_fieldwise(X) -> float:
    """Reference: diagonal squares in order, then twice the octonion dot products in order."""
    reals, octs = _fields(X)
    if isinstance(X, Hermitian2):
        return float(np.sqrt(reals[0]**2 + reals[1]**2 + 2.0 * (octs[0] @ octs[0])))
    a, b, c = octs
    quad = reals[0]**2 + reals[1]**2 + reals[2]**2
    quad += 2.0 * (a @ a + b @ b + c @ c)
    return float(np.sqrt(quad))


def _trace_fieldwise(X) -> float:
    reals, _ = _fields(X)
    return reals[0] + reals[1] if len(reals) == 2 else reals[0] + reals[1] + reals[2]


def _arith_fieldwise(op, X, Y):
    """Reference: op field by field, then the component constructor."""
    (xr, xo), (yr, yo) = _fields(X), _fields(Y)
    return type(X)(*[op(r, s) for r, s in zip(xr, yr)], *[op(a, b) for a, b in zip(xo, yo)])


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def _layer_samples() -> list:
    rng = np.random.default_rng(SEED)
    out = []
    for scale in (1e-3, 1.0, 1e3):
        for _ in range(8):
            out.append(random_jordan(rng, scale))
            out.append(Hermitian2(*(rng.standard_normal(2) * scale), rng.standard_normal(8) * scale))
    return out


class TestCoordinateLayer:
    @pytest.mark.parametrize("n,dim", [(2, 10), (3, 27)])
    def test_stack_roundtrip(self, n, dim):
        rng = np.random.default_rng(SEED + n)
        V = rng.standard_normal((64, dim))
        arrs = hermitian_arrays(V, n)
        assert arrs.shape == (64, n, n, 8)
        assert np.array_equal(hermitian_vectors(arrs), V)
        assert np.array_equal(hermitian_vectors(arrs.reshape(4, 16, n, n, 8)), V.reshape(4, 16, dim))

    def test_to_array_matches_fieldwise(self):
        for X in _layer_samples():
            arr = _to_array_fieldwise(X)
            assert _bits(X.to_array()) == _bits(arr)
            assert _bits(type(X).from_array(arr).to_vector()) == _bits(X.to_vector())

    def test_norm_and_trace_match_fieldwise(self):
        for X in _layer_samples():
            assert _bits(X.norm) == _bits(_norm_fieldwise(X))
            assert _bits(X.trace) == _bits(_trace_fieldwise(X))
            assert type(X.norm) is float and type(X.trace) is float

    def test_arithmetic_matches_fieldwise(self):
        samples = _layer_samples()
        for X, Y in zip(samples[:-2], samples[2:]):
            assert _bits((X + Y).to_vector()) == _bits(_arith_fieldwise(np.add, X, Y).to_vector())
            assert _bits((X - Y).to_vector()) == _bits(_arith_fieldwise(np.subtract, X, Y).to_vector())
            scaled = _arith_fieldwise(lambda x, _: x * 2.75, X, X).to_vector()
            assert _bits((X * 2.75).to_vector()) == _bits(scaled)
            assert _bits((2.75 * X).to_vector()) == _bits(scaled)
            negated = _arith_fieldwise(lambda x, _: x * -1.0, X, X).to_vector()
            assert _bits((-X).to_vector()) == _bits(negated)

    @pytest.mark.parametrize("cls", [Hermitian2, JordanMatrix])
    @pytest.mark.parametrize("scale", [1e-300, 1e300])
    def test_norm_at_extreme_scales(self, cls, scale):
        # squaring the raw coordinates under- or overflows at these scales
        v = np.random.default_rng(SEED).standard_normal(cls.DIM)
        X = cls.from_vector(v * scale)
        assert np.isfinite(X.norm) and X.norm > 0.0
        assert X.norm == pytest.approx(cls.from_vector(v).norm * scale, rel=1e-14)
        for k in (1, 16, 600):
            t = 2.0 ** (k if scale < 1.0 else -k)
            assert (X * t).norm / t == X.norm

    def test_sizes_do_not_mix(self):
        with pytest.raises(TypeError):
            JordanMatrix.identity() + Hermitian2.identity()

    @pytest.mark.parametrize("cls", [Hermitian2, JordanMatrix])
    def test_to_vector_is_readonly(self, cls):
        X = cls.identity()
        with pytest.raises(ValueError):
            X.to_vector()[0] = 2.0

    @pytest.mark.parametrize("cls", [Hermitian2, JordanMatrix])
    def test_from_vector_copies(self, cls):
        v = np.random.default_rng(SEED).standard_normal(cls.DIM)
        X = cls.from_vector(v)
        v[:] = 0.0
        assert np.array_equal(X.to_vector(), np.random.default_rng(SEED).standard_normal(cls.DIM))

    @pytest.mark.parametrize("cls", [Hermitian2, JordanMatrix])
    def test_basis_is_vector_basis(self, cls):
        basis = np.stack([B.to_vector() for B in cls.basis()])
        assert np.array_equal(basis, np.eye(cls.DIM))

    @pytest.mark.parametrize("cls", [Hermitian2, JordanMatrix])
    @pytest.mark.parametrize("entry", [(0, 1, 3), (1, 1, 5)], ids=["upper", "diagonal"])
    def test_from_array_validates_hermiticity(self, cls, entry):
        X = cls.from_vector(np.arange(cls.DIM, dtype=float))
        arr = X.to_array()
        assert cls.from_array(arr).isclose(X)
        arr[entry] += 0.5  # breaks conj(arr[0, 1]) = arr[1, 0], or a real diagonal
        with pytest.raises(ValueError):
            cls.from_array(arr)
        with pytest.raises(ValueError):
            cls.from_array(np.zeros((4, 4, 8)))

    @pytest.mark.parametrize("cls", [Hermitian2, JordanMatrix])
    @pytest.mark.parametrize("scale", [1e-300, 1e-12, 1.0, 1e300])
    def test_from_array_verdict_is_scale_free(self, cls, scale):
        # at 1e-12 the negated mirror's residual, 4.4e-12, passed the absolute
        # floor 1e-9 max(1, peak); at 1e300 its square overflowed
        v = np.random.default_rng(SEED).standard_normal(cls.DIM)
        arr = cls.from_vector(v * scale).to_array()
        broken = arr.copy()
        broken[0, 1] = -broken[0, 1]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert np.array_equal(cls.from_array(arr).to_vector(), v * scale)
            with pytest.raises(ValueError, match="not Hermitian"):
                cls.from_array(broken)

    @pytest.mark.parametrize("cls", [Hermitian2, JordanMatrix])
    def test_zero_array_is_hermitian(self, cls):
        assert np.array_equal(cls.from_array(np.zeros((cls.SIZE, cls.SIZE, 8))).to_vector(),
                              np.zeros(cls.DIM))

    @pytest.mark.parametrize("cls", [Hermitian2, JordanMatrix])
    @pytest.mark.parametrize("entry", [(1, 1, 0), (1, 0, 3), (0, 1, 3)],
                             ids=["diagonal", "stored", "mirrored"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_entry_rejected(self, cls, entry, value):
        arr = cls.from_vector(np.arange(cls.DIM, dtype=float)).to_array()
        arr[entry] = value
        assert hermiticity_residual(arr) == np.inf
        with pytest.raises(ValueError):
            cls.from_array(arr)


class TestJsonForms:
    def test_jordan_roundtrip(self):
        rng = np.random.default_rng(SEED)
        X = random_jordan(rng)
        assert jordan_from_dict(jordan_to_dict(X)).isclose(X)

    def test_hermitian2_roundtrip(self):
        X = Hermitian2(1.0, -2.0, np.eye(8)[BASIS_NAMES.index("jl")])
        assert hermitian2_from_dict(hermitian2_to_dict(X)).isclose(X)

    @pytest.mark.parametrize("read, data", [
        (jordan_from_dict, {"diag": [True, 0, 0], "a": [0] * 8, "b": [0] * 8, "c": [0] * 8}),
        (jordan_from_dict, {"diag": [1, 2, 3], "a": [0] * 8, "b": [0] * 7 + [False], "c": [0] * 8}),
        (hermitian2_from_dict, {"diag": [True, 1], "a": [0] * 8}),
        (hermitian2_from_dict, {"diag": [1, 1], "a": [True] + [0] * 7}),
    ], ids=["jordan-diag", "jordan-entry", "hermitian2-diag", "hermitian2-entry"])
    def test_booleans_are_not_numbers(self, read, data):
        with pytest.raises(ValueError, match="must hold"):
            read(data)
