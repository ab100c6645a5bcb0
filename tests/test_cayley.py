"""Cayley spinors, Dirac factorization, p-square decomposition, classes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from octe6 import cayley
from octe6.cayley import (
    cayley_plane_check,
    classify,
    dirac_equiv_check,
    dirac_residual,
    dirac_solve,
    psquare_decompose,
    random_quaternionic_spinor,
    trace_reversal,
)
from octe6.jordan import (
    Hermitian2,
    JordanMatrix,
    det3,
    eigenvalues,
    jordan_product,
    random_jordan,
    sigma,
    spinor_square,
)
from octe6.octonion import oconj, omul, onorm, subalgebra_dimension
from octe6.generators import roster
from octe6.transform import NestedMap

import helpers
from helpers import random_octonionic_spinor

SEED = 14142
E6_CURVES = roster("E6")

I3 = JordanMatrix.identity()
E11 = JordanMatrix.diag(1, 0, 0)


class TestSquare:
    def test_unit_spinor_gives_corner_idempotent(self):
        one, zero = np.eye(8)[0], np.zeros(8)
        psi = np.stack([one, zero, zero])
        assert spinor_square(psi).isclose(E11)

    def test_all_ones_normalized(self):
        scale = 1.0 / np.sqrt(3.0)
        one = np.eye(8)[0]
        psi = np.stack([one * scale, one * scale, one * scale])
        sq = spinor_square(psi)
        assert sq.trace == pytest.approx(1.0)
        assert cayley_plane_check(sq)

    def test_square_is_hermitian_rank_one_for_quaternionic(self):
        rng = np.random.default_rng(SEED)
        for _ in range(16):
            psi = random_quaternionic_spinor(rng)
            sq = spinor_square(psi)
            norm_sq = np.sum(psi**2)
            lam = eigenvalues(sq)
            assert lam[0] == pytest.approx(norm_sq, rel=1e-9)
            assert abs(lam[1]) <= 1e-8 * max(1.0, norm_sq)
            assert abs(lam[2]) <= 1e-8 * max(1.0, norm_sq)
            assert det3(sq) == pytest.approx(0.0, abs=1e-9 * max(1.0, sq.norm**3))

    def test_sigma_vanishes_for_any_spinor(self):
        # second invariant of a spinor square is identically zero, octonionic or not
        rng = np.random.default_rng(SEED)
        for _ in range(16):
            sq = spinor_square(random_octonionic_spinor(rng))
            assert abs(sigma(sq)) <= 1e-10 * max(1.0, sq.norm**2)

    def test_octonionic_square_breaks_rank_one(self):
        # with components generating all of O the Freudenthal square is nonzero
        rng = np.random.default_rng(SEED)
        psi = random_octonionic_spinor(rng)
        freud_norm, _ = dirac_equiv_check(psi)
        assert freud_norm > 1e-3

    def test_square_matches_outer_product(self):
        rng = np.random.default_rng(SEED)
        psi = rng.standard_normal((3, 8))
        outer = omul(psi[:, None, :], oconj(psi[None, :, :]))
        sq = spinor_square(psi).to_array()
        assert np.allclose(sq, outer, atol=1e-12)


class TestRandomSpinors:
    # each draws theta, then xi, and stores the column (theta1, theta2, conj(xi))
    @pytest.mark.parametrize("scale", [1.0, 1e-10, 3.0])
    def test_quaternionic_draw(self, scale):
        psi = random_quaternionic_spinor(np.random.default_rng(SEED), scale)
        rng = np.random.default_rng(SEED)
        theta = np.zeros((2, 8))
        theta[:, :4] = rng.standard_normal((2, 4)) * scale
        xi = np.zeros(8)
        xi[:4] = rng.standard_normal(4) * scale
        assert psi.shape == (3, 8)
        assert psi.tobytes() == np.vstack([theta, oconj(xi)]).tobytes()

    @pytest.mark.parametrize("scale", [1.0, 1e-10, 3.0])
    def test_octonionic_draw(self, scale):
        psi = random_octonionic_spinor(np.random.default_rng(SEED), scale)
        rng = np.random.default_rng(SEED)
        while True:
            theta = rng.standard_normal((2, 8)) * scale
            xi = rng.standard_normal(8) * scale
            if subalgebra_dimension([theta[0], theta[1], xi]) == 8:
                break
        assert psi.shape == (3, 8)
        assert psi.tobytes() == np.vstack([theta, oconj(xi)]).tobytes()


class TestTraceReversal:
    def test_identity(self):
        got = trace_reversal(Hermitian2.identity())
        assert got.isclose(Hermitian2(-1.0, -1.0))

    def test_corner(self):
        got = trace_reversal(Hermitian2(1.0, 0.0))
        assert got.isclose(Hermitian2(0.0, -1.0))

    def test_trace_negated_and_involution(self):
        rng = np.random.default_rng(SEED)
        for _ in range(8):
            P = Hermitian2(rng.standard_normal(), rng.standard_normal(), rng.standard_normal(8))
            assert trace_reversal(P).trace == pytest.approx(-P.trace)
            assert trace_reversal(trace_reversal(P)).isclose(P)


class TestDiracResidual:
    def test_solution_family(self):
        # P = theta theta^dagger, psi = theta xi with complex theta: exact solution
        rng = np.random.default_rng(SEED)
        for _ in range(16):
            s = rng.standard_normal(8)
            s[0] = 0.0
            s /= onorm(s)
            coeff = rng.standard_normal((2, 2))
            theta = coeff[:, :1] * np.eye(8)[0] + coeff[:, 1:] * s
            xi = rng.standard_normal(8)
            P = spinor_square(theta)
            psi = omul(theta, xi[None, :])
            assert dirac_residual(P, psi) <= 1e-12 * max(1.0, P.norm)

    def test_identity_momentum(self):
        rng = np.random.default_rng(SEED)
        psi = rng.standard_normal((2, 8))
        # trace reversal of I is -I, so the residual is the spinor norm
        expected = float(np.sqrt(np.sum(psi**2)))
        assert dirac_residual(Hermitian2.identity(), psi) == pytest.approx(expected)

    def test_zero_momentum(self):
        rng = np.random.default_rng(SEED)
        assert dirac_residual(Hermitian2.zero(), rng.standard_normal((2, 8))) == 0.0


class TestDiracSolve:
    def test_corner_momentum(self):
        theta = dirac_solve(Hermitian2(1.0, 0.0))
        assert np.allclose(theta, np.vstack([np.eye(8)[0], np.zeros(8)]))

    def test_all_ones(self):
        theta = dirac_solve(Hermitian2(1.0, 1.0, np.eye(8)[0]))
        assert np.allclose(theta[0], np.eye(8)[0]) and np.allclose(theta[1], np.eye(8)[0])

    def test_full_rank_rejected(self):
        with pytest.raises(ValueError):
            dirac_solve(Hermitian2.identity())

    @pytest.mark.parametrize("tol", [0.0, 1e-9, 1.0, 10.0])
    def test_zero_rejected(self, tol):
        with pytest.raises(ValueError, match="nonzero momentum"):
            dirac_solve(Hermitian2.zero(), tol=tol)

    @pytest.mark.parametrize("tol", [1.0, 10.0])
    def test_nonzero_null_momentum_factors_at_large_tol(self, tol):
        # the zero test |P| <= tol max|P_i| held for every nonzero P from tol 1 up
        for P in (Hermitian2(1.0, 0.0), Hermitian2(0.0, -3.0), Hermitian2(1.0, 1.0, np.eye(8)[0])):
            assert (spinor_square(dirac_solve(P, tol=tol)) - P * np.sign(P.trace)).norm <= 1e-12 * P.norm

    def test_random_null_momenta_roundtrip(self):
        rng = np.random.default_rng(SEED)
        for sign in (1.0, -1.0):
            for _ in range(16):
                s = rng.standard_normal(8)
                s[0] = 0.0
                s /= onorm(s)
                coeff = rng.standard_normal((2, 2))
                theta = coeff[:, :1] * np.eye(8)[0] + coeff[:, 1:] * s
                P = spinor_square(theta) * sign
                got = dirac_solve(P)
                assert (spinor_square(got) - P * sign).norm <= 1e-9 * max(1.0, P.norm)
                # gauge: first nonzero component real and nonnegative
                first = got[0] if onorm(got[0]) > 1e-9 else got[1]
                assert first[0] >= 0.0
                assert onorm(first[1:]) <= 1e-9 * max(1.0, float(first[0]))
                # solution stays in the complex subalgebra of P
                span = np.vstack([P.a[1:], got[0, 1:], got[1, 1:]])
                sv = np.linalg.svd(span, compute_uv=False)
                assert sv[1] <= 1e-9 * max(1.0, sv[0])


    @pytest.mark.parametrize("t", [1e-300, 1e-150, 1e-30, 1e-10, 1e-5, 1.0, 1e30, 1e150, 1e300])
    def test_null_momenta_factor_at_every_scale(self, t):
        # |P| <= tol and |det P| <= tol max(1, |P|^2) were absolute floors:
        # a small null P was "zero", and 1e150 overflowed |P|^2
        rng = np.random.default_rng(SEED)
        for sign in (1.0, -1.0):
            theta = np.zeros((2, 8))
            theta[:, [0, 5]] = rng.standard_normal((2, 2))
            P = spinor_square(theta) * (sign * t)
            got = dirac_solve(P)
            assert (spinor_square(got) - P * sign).norm <= 1e-12 * P.norm

    def test_gauge_does_not_depend_on_scale(self):
        # |t1| grows like sqrt|P|: against tol |P| the phase was skipped from
        # |P| about 1/tol^2 on, leaving theta_1 = (0.3, 0.4) at 1e19
        theta = np.zeros((2, 8))
        theta[0, :2] = (0.3, 0.4)
        theta[1, 0] = 1.0
        unit = dirac_solve(spinor_square(theta))
        for scale in (1.0, 1e17, 1e19, 1e300):
            got = dirac_solve(spinor_square(theta) * scale)
            assert got[0, 0] >= 0.0 and not got[0, 1:].any()
            assert np.abs(got / np.sqrt(scale) - unit).max() <= 1e-12

    @pytest.mark.parametrize("t", [1e-300, 1e-150, 1e-10, 1e-5, 1.0, 1e150, 1e300])
    def test_full_rank_rejected_at_every_scale(self, t):
        for P in (Hermitian2(1.0, 1.0), Hermitian2(1.0, -2.0, np.eye(8)[3])):
            with pytest.raises(ValueError, match="no rank-1 factorization"):
                dirac_solve(P * t)


class TestDiracEquivalence:
    def test_quaternionic_spinors_solve_both(self):
        rng = np.random.default_rng(SEED)
        for _ in range(32):
            freud_norm, residual = dirac_equiv_check(random_quaternionic_spinor(rng))
            assert freud_norm <= 1e-9
            assert residual <= 1e-9

    def test_octonionic_spinors_fail(self):
        rng = np.random.default_rng(SEED)
        for _ in range(32):
            freud_norm, _ = dirac_equiv_check(random_octonionic_spinor(rng))
            assert freud_norm >= 1e-3

    def test_zero_spinor(self):
        assert dirac_equiv_check(np.zeros((3, 8))) == (0.0, 0.0)

    def test_small_spinor_draw_returns(self, monkeypatch):
        # the redraw loop waits for dimension 8, which a spinor scaled by
        # 1e-10 never had while the closure's cut was absolute
        calls = []

        def counted(psi, *args):
            calls.append(psi)
            assert len(calls) <= 8, "the redraw loop does not end"
            return subalgebra_dimension(psi, *args)

        monkeypatch.setattr(helpers, "subalgebra_dimension", counted)
        psi = random_octonionic_spinor(np.random.default_rng(SEED), scale=1e-10)
        ref = random_octonionic_spinor(np.random.default_rng(SEED))
        assert np.array_equal(psi, ref * 1e-10)

    def test_equivalence_tracks_subalgebra_dimension(self):
        rng = np.random.default_rng(SEED)
        for _ in range(16):
            psi = (random_quaternionic_spinor(rng) if rng.uniform() < 0.5
                   else random_octonionic_spinor(rng))
            freud_norm, _ = dirac_equiv_check(psi)
            if subalgebra_dimension(psi) <= 4:
                assert freud_norm <= 1e-9
            else:
                assert freud_norm > 1e-3


class TestCayleyPlane:
    def test_corner_idempotent(self):
        assert cayley_plane_check(E11)

    def test_identity_fails(self):
        assert not cayley_plane_check(I3)

    def test_normalized_quaternionic_squares(self):
        rng = np.random.default_rng(SEED)
        for _ in range(16):
            sq = spinor_square(random_quaternionic_spinor(rng))
            assert cayley_plane_check(sq * (1.0 / sq.trace))

    def test_unnormalized_squares_fail(self):
        rng = np.random.default_rng(SEED)
        sq = spinor_square(random_quaternionic_spinor(rng))
        assert not cayley_plane_check(sq * (2.0 / sq.trace))

    def test_huge_entries_with_trace_one_fail(self):
        # P o P would overflow; the check is formed on P over its largest coordinate
        assert not cayley_plane_check(JordanMatrix.diag(1e200, -1e200, 1))

    @pytest.mark.parametrize("scale", [1e-300, 1e300])
    def test_scaled_idempotents_fail(self, scale):
        sq = spinor_square(random_quaternionic_spinor(np.random.default_rng(SEED)))
        for P in (E11, sq * (1.0 / sq.trace)):
            assert cayley_plane_check(P)
            assert not cayley_plane_check(P * scale)

    def test_normalized_octonionic_squares_fail(self):
        rng = np.random.default_rng(SEED)
        for _ in range(8):
            sq = spinor_square(random_octonionic_spinor(rng))
            assert not cayley_plane_check(sq * (1.0 / sq.trace))


class TestPSquareDecomposition:
    def test_distinct_diagonal(self):
        dec = psquare_decompose(JordanMatrix.diag(1, 2, 3))
        assert np.allclose(dec.lambdas, [3, 2, 1])
        assert dec.p == 3
        assert dec.projectors[0].isclose(JordanMatrix.diag(0, 0, 1))
        assert dec.projectors[2].isclose(JordanMatrix.diag(1, 0, 0))

    def test_corner_idempotent(self):
        dec = psquare_decompose(E11)
        assert np.allclose(dec.lambdas, [1, 0, 0])
        assert dec.p == 1
        assert dec.projectors[0].isclose(E11)

    def test_scaled_spinor_square(self):
        rng = np.random.default_rng(SEED)
        sq = spinor_square(random_quaternionic_spinor(rng))
        A = sq * (5.0 / sq.trace)
        dec = psquare_decompose(A)
        assert dec.p == 1
        assert dec.lambdas[0] == pytest.approx(5.0, rel=1e-8)
        assert abs(dec.lambdas[1:]).max() <= 1e-7

    def test_degenerate_diagonal_splits_primitively(self):
        dec = psquare_decompose(JordanMatrix.diag(1, 1, 0))
        assert dec.p == 2
        assert len(dec.terms) == 3
        for _, proj in dec.terms:
            assert proj.trace == pytest.approx(1.0)

    @pytest.mark.parametrize("delta", [0.0, 3e-7])
    def test_degenerate_dense_merges(self, delta):
        # rotate diag(2, 2 + delta, 5) off the diagonal axis: merged projector
        # of trace 2; at 3e-7 the pair's gap is 1e-7 of the other gap, which
        # the cubic resolves to about 0.5 %: split, its projectors were
        # 4.6e-3 from idempotent
        curves = roster("F4")
        nm = curves[13](0.6).compose(curves[40](1.1))
        A = nm.apply(JordanMatrix.diag(2, 2 + delta, 5))
        dec = psquare_decompose(A)
        assert dec.p == 3
        assert len(dec.terms) == 2
        traces = sorted(proj.trace for _, proj in dec.terms)
        assert traces == [pytest.approx(1.0), pytest.approx(2.0)]
        assert (dec.reconstruct() - A).norm <= 1e-7 * A.norm
        for P in dec.projectors:
            assert (jordan_product(P, P) - P).norm <= 1e-6

    @pytest.mark.parametrize("mu, t", [(1.0, 1e-3), (-1.0, 1e-5), (1e4, 1.0), (1e6, 1.0)])
    def test_scalar_plus_rank_one_merges_the_double_root(self, mu, t):
        # mu I + t S for a rank-1 square S: the rounded tr A / 3 left B a trace
        # of ulp(mu), which split the exact double root into three terms
        for seed in range(8):
            S = spinor_square(random_quaternionic_spinor(np.random.default_rng(seed)))
            A = I3 * mu + S * t
            dec = psquare_decompose(A)
            assert len(dec.terms) == 2, seed
            assert (dec.reconstruct() - A).norm <= 1e-7 * A.norm, seed
            for P in dec.projectors:
                assert (jordan_product(P, P) - P).norm <= 1e-6, seed

    def test_scalar_matrix(self):
        # diagonal input: primitive split even though all eigenvalues coincide
        dec = psquare_decompose(I3 * 4.0)
        assert dec.p == 3
        assert np.allclose(dec.lambdas, [4, 4, 4])
        total = dec.projectors[0] + dec.projectors[1] + dec.projectors[2]
        assert total.isclose(I3)

    def test_near_scalar_counts_cluster_multiplicity(self):
        # 1e-9 off-diagonals: not diagonal, but one merged eigenvalue cluster of size 3
        a = np.zeros(8)
        a[0] = 1e-9
        A = JordanMatrix(1, 1, 1, a, a, a)
        dec = psquare_decompose(A)
        assert len(dec.terms) == 1
        assert dec.p == classify(A) == 3

    def test_dense_scalar_merges(self):
        # a rotated scalar matrix is still scalar, so the merged branch returns I
        curves = roster("F4")
        A = curves[3](0.8).apply(I3 * 4.0)
        dec = psquare_decompose(A)
        assert dec.p == 3
        assert len(dec.terms) in (1, 3)
        assert (dec.reconstruct() - A).norm <= 1e-8

    def test_invariants_on_random_matrices(self):
        rng = np.random.default_rng(SEED)
        for _ in range(64):
            A = random_jordan(rng)
            dec = psquare_decompose(A)
            scale = max(1.0, A.norm)
            assert (dec.reconstruct() - A).norm <= 1e-7 * scale
            projs = dec.projectors
            for t, (lam, P) in enumerate(dec.terms):
                assert (jordan_product(A, P) - P * lam).norm <= 1e-7 * scale
                assert (jordan_product(P, P) - P).norm <= 1e-6
                for other in projs[t + 1:]:
                    assert jordan_product(P, other).norm <= 1e-7

    @pytest.mark.parametrize("eps", [10.0 ** (k / 10) for k in range(-90, -29)])
    def test_near_identity_reconstructs(self, eps):
        # I + eps N: interpolating on A itself, the numerators cancel to
        # about 1e-16 |A|^2 and are divided by about eps^2; the cubic of A
        # itself loses the eigenvalues' spread; and merging a chain of gaps
        # each within MERGE_TOL |A| left one term off by the chained spread
        for seed in [*range(40), *range(2000, 2040)]:
            A = I3 + random_jordan(np.random.default_rng(seed)) * eps
            dec = psquare_decompose(A)
            assert (dec.reconstruct() - A).norm <= 1e-7 * A.norm, seed
            projs = dec.projectors
            for t, P in enumerate(projs):
                assert (jordan_product(P, P) - P).norm <= 1e-6, seed
                for Q in projs[t + 1:]:
                    assert jordan_product(P, Q).norm <= 1e-7, seed

    def test_eigenvalue_count_matches_classification(self):
        rng = np.random.default_rng(SEED)
        cases = [random_jordan(rng) for _ in range(32)]
        cases += [E11, I3, JordanMatrix.diag(1, 1, 0), JordanMatrix.zero(),
                  spinor_square(random_quaternionic_spinor(rng))]
        for A in cases:
            assert psquare_decompose(A).p == classify(A)

    @pytest.mark.parametrize("t", [1e-300, 1e-150, 1e-30, 1e-8, 1e-3, 1.0, 1e30, 1e150, 1e300])
    def test_class_agrees_with_classify_at_every_scale(self, t):
        # p was 0 at 1e-30 and 1e-150 while classify said 1 and 2: absolute floors
        rng = np.random.default_rng(SEED)
        one = spinor_square(random_quaternionic_spinor(rng))
        two = one + spinor_square(random_quaternionic_spinor(rng))
        for A, expected in ((one, 1), (two, 2), (random_jordan(rng), 3)):
            dec = psquare_decompose(A * t)
            assert dec.p == classify(A * t) == expected
            rebuilt = dec.reconstruct().to_vector() / t
            assert np.abs(rebuilt - A.to_vector()).max() <= 1e-12 * np.abs(A.to_vector()).max()

    def test_unit_scale_output_is_unchanged_by_power_of_two_scaling(self):
        rng = np.random.default_rng(SEED)
        for A in (random_jordan(rng) * 3.0, spinor_square(random_quaternionic_spinor(rng)) * 40.0):
            dec = psquare_decompose(A)
            scaled = psquare_decompose(JordanMatrix.from_vector(np.ldexp(A.to_vector(), -60)))
            assert np.array_equal(np.ldexp(scaled.lambdas, 60), dec.lambdas)
            for P, Q in zip(dec.projectors, scaled.projectors):
                assert np.array_equal(P.to_vector(), Q.to_vector())


class TestClassify:
    @pytest.mark.parametrize("matrix,expected", [
        (I3, 3),
        (JordanMatrix.diag(1, 1, 0), 2),
        (E11, 1),
        (JordanMatrix.zero(), 0),
        (JordanMatrix.diag(1, -1, 0), 2),
    ])
    def test_cascade(self, matrix, expected):
        assert classify(matrix) == expected

    def test_quaternionic_square_is_one_square(self):
        rng = np.random.default_rng(SEED)
        assert classify(spinor_square(random_quaternionic_spinor(rng))) == 1

    def test_scale_invariance(self):
        rng = np.random.default_rng(SEED)
        A = random_jordan(rng)
        assert classify(A) == classify(A * 1e-6) == classify(A * 1e6)

    @pytest.mark.parametrize("t", [1e-300, 1e-150, 1e-30, 1.0, 1e100, 1e150, 1e300])
    def test_class_is_scale_free(self, t):
        rng = np.random.default_rng(SEED)
        for _ in range(4):
            one = spinor_square(random_quaternionic_spinor(rng))
            two = one + spinor_square(random_quaternionic_spinor(rng))
            for A, expected in ((one, 1), (two, 2), (random_jordan(rng), 3)):
                assert classify(A) == expected
                assert classify(A * t) == expected


def _class_sample(kind: str, seed: int) -> tuple[JordanMatrix, int]:
    rng = np.random.default_rng(seed)
    if kind == "generic":
        return random_jordan(rng), 3
    one = spinor_square(random_quaternionic_spinor(rng))
    if kind == "rank-1":
        return one, 1
    return one + spinor_square(random_quaternionic_spinor(rng)), 2


class TestClassScaleProperties:
    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(["rank-1", "rank-2", "generic"]),
           seed=st.integers(0, 2**32 - 1),
           log_t=st.floats(-150.0, 150.0))
    def test_class_and_p_do_not_depend_on_scale(self, kind, seed, log_t):
        A, expected = _class_sample(kind, seed)
        tA = A * 10.0**log_t
        assert classify(A) == expected
        assert classify(tA) == classify(A)
        assert psquare_decompose(tA).p == classify(A)


class TestClassPreservation:
    def test_boost_keeps_one_square(self):
        from octe6.generators import boost_curves
        nm = boost_curves(0)[0](0.9)
        assert classify(nm.apply(E11)) == classify(E11)

    def test_roster_composition_keeps_two_square(self):
        rng = np.random.default_rng(SEED)
        curves = roster("E6")
        picks = rng.choice(len(curves), size=4, replace=False)
        nm = curves[picks[0]](0.3)
        for t in picks[1:]:
            nm = nm.compose(curves[t](rng.uniform(-1, 1)))
        A = JordanMatrix.diag(1, 1, 0)
        assert classify(nm.apply(A)) == classify(A) == 2

    def test_identity_map(self):
        rng = np.random.default_rng(SEED)
        nm = NestedMap.single(_identity3())
        A = random_jordan(rng)
        assert classify(nm.apply(A)) == classify(A)

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(["rank-1", "rank-2", "generic"]),
           seed=st.integers(0, 2**32 - 1),
           word=st.lists(st.tuples(st.integers(0, len(E6_CURVES) - 1), st.floats(-1.0, 1.0)),
                         min_size=1, max_size=4))
    def test_class_and_p_survive_e6_words(self, kind, seed, word):
        A, expected = _class_sample(kind, seed)
        nm = E6_CURVES[word[0][0]](word[0][1])
        for pick, theta in word[1:]:
            nm = nm.compose(E6_CURVES[pick](theta))
        image = nm.apply(A)
        assert classify(A) == expected
        assert classify(image) == expected
        assert psquare_decompose(image).p == expected


def _word(rng, curves, length: int) -> NestedMap:
    nm = curves[int(rng.integers(len(curves)))](float(rng.uniform(-1.0, 1.0)))
    for _ in range(length - 1):
        nm = nm.compose(curves[int(rng.integers(len(curves)))](float(rng.uniform(-1.0, 1.0))))
    return nm


class TestRankRule:
    """p is classify's rank: the exact count of nonzero eigenvalues, kept by F4 and E6."""

    def test_grid_rank_is_the_count_and_f4_invariant(self):
        # diag(1, d1, +-d2) for d = 10^(-k/2), k = 2..32, alone and under two
        # 4-curve F4 words: away from CLASS_TOL |A| the rank counts the
        # eigenvalues above it, also where det / |A|^3 is below CLASS_TOL,
        # as for diag(1, 0.1, 1e-7)
        rng = np.random.default_rng(SEED)
        ops = [_word(rng, roster("F4"), 4).as_linear_op() for _ in range(2)]
        deltas = [10.0 ** (-k / 2) for k in range(2, 33)]
        off_threshold = 0
        for d1 in deltas:
            for d2 in deltas:
                for diag in ((1.0, d1, d2), (1.0, d1, -d2)):
                    A = JordanMatrix.diag(*diag)
                    images = [A] + [JordanMatrix.from_vector(op @ A.to_vector()) for op in ops]
                    classes = [classify(X) for X in images]
                    for X, c in zip(images, classes):
                        assert psquare_decompose(X).p == c, diag
                    bound = cayley.CLASS_TOL * A.norm
                    if any(bound / 3 <= abs(x) <= 3 * bound for x in diag):
                        continue
                    off_threshold += 1
                    count = sum(abs(x) > bound for x in diag)
                    assert classes == [count] * 3, diag
        assert off_threshold == 1922 - 122

    @pytest.mark.parametrize("t", [6.0, 8.0])
    def test_e6_boosts_keep_the_rank(self, t):
        # the smallest eigenvalue falls to 6.1e-7 |A| at t = 6 and 1.1e-8 |A| at t = 8
        A = JordanMatrix.diag(1.0, 0.1, 0.1)
        boosts = [curve for curve in E6_CURVES if curve.kind != "trig"]
        assert len(boosts) == 27
        for curve in boosts:
            image = curve(t).apply(A)
            assert classify(image) == psquare_decompose(image).p == 3

    @pytest.mark.parametrize("length", range(1, 7))
    def test_quaternionic_squares_stay_rank_one_under_e6_words(self, length):
        rng = np.random.default_rng(SEED + length)
        for _ in range(8):
            image = _word(rng, E6_CURVES, length).apply(spinor_square(random_quaternionic_spinor(rng)))
            assert classify(image) == psquare_decompose(image).p == 1


def _identity3():
    arr = np.zeros((3, 3, 8))
    arr[[0, 1, 2], [0, 1, 2], 0] = 1.0
    return arr
