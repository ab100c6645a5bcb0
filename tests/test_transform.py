"""Nested actions, predicates, embeddings, and the 27x27 operator."""

import numpy as np
import pytest

from octe6.jordan import (
    Hermitian2,
    JordanMatrix,
    hermiticity_residual,
    hermitian_vectors,
    random_jordan,
)
from octe6.generators import roster
from octe6.octonion import BASIS_NAMES, oconj, odagger, omatmul, omul
from octe6.transform import (
    COMPATIBILITY_SEED,
    NestedMap,
    complex_det,
    cyclic_permutation,
    embed,
    is_compatible,
    is_complex,
    is_welldefined,
    nested_map_from_json,
    nested_map_to_json,
)
from octe6.transform import _act, _hermitian_basis, _spinor_samples

SEED = 27182


def unit(name: str) -> np.ndarray:
    return np.eye(8)[BASIS_NAMES.index(name)]


def diag(*entries) -> np.ndarray:
    """The (n, n, 8) matrix with the given 8-vectors, or reals, on its diagonal."""
    arr = np.zeros((len(entries), len(entries), 8))
    for d, entry in enumerate(entries):
        if np.ndim(entry):
            arr[d, d] = entry
        else:
            arr[d, d, 0] = entry
    return arr


def fro(M: np.ndarray) -> float:
    """Frobenius norm of a matrix's coefficients."""
    return float(np.sqrt(np.sum(M**2)))


I2 = diag(1.0, 1.0)
I3 = diag(1.0, 1.0, 1.0)


def phase_diag(name: str, theta: float) -> np.ndarray:
    """diag(e^{s theta}, e^{-s theta}) for a named imaginary unit."""
    q = np.sin(theta) * unit(name)
    q[0] = np.cos(theta)
    return diag(q, oconj(q))


class TestVectorApply:
    def test_identity(self):
        rng = np.random.default_rng(SEED)
        X = random_jordan(rng)
        assert NestedMap.single(I3).apply(X).isclose(X)

    def test_cyclic_permutation_on_diagonal(self):
        T = NestedMap.single(cyclic_permutation())
        got = T.apply(JordanMatrix.diag(1, 2, 3))
        assert got.isclose(JordanMatrix.diag(2, 3, 1))

    def test_cyclic_permutation_on_offdiagonal(self):
        rng = np.random.default_rng(SEED)
        X = random_jordan(rng)
        got = NestedMap.single(cyclic_permutation()).apply(X)
        assert np.allclose(got.a, X.b) and np.allclose(got.b, X.c) and np.allclose(got.c, X.a)

    def test_so8_form_leaves_diagonal_invariant(self):
        rng = np.random.default_rng(SEED)
        X = random_jordan(rng)
        nm = NestedMap.single(embed(phase_diag("i", 0.6), 0))
        got = nm.apply(X)
        assert got.p == pytest.approx(X.p) and got.m == pytest.approx(X.m)
        assert got.n == pytest.approx(X.n)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            NestedMap.single(I2).apply(JordanMatrix.identity())
        with pytest.raises(ValueError):
            NestedMap.single(I3).apply(Hermitian2.identity())

    def test_hermiticity_preserved_for_welldefined_layers(self):
        rng = np.random.default_rng(SEED)
        nm = NestedMap([embed(phase_diag("kl", 0.3), 1), embed(phase_diag("j", -0.9), 0)])
        raw = nm.apply_array(random_jordan(rng).to_array())
        assert hermiticity_residual(raw) <= 1e-12


    def test_stack_matches_each_matrix(self):
        # integer-valued layers and operands keep every sum exact
        rng = np.random.default_rng(SEED)
        nm = NestedMap([rng.integers(-2, 3, (3, 3, 8)).astype(float) for _ in range(2)])
        stack = rng.integers(-2, 3, (4, 3, 3, 8)).astype(float)
        got = nm.apply_array(stack)
        assert got.shape == stack.shape
        assert np.array_equal(got, np.stack([nm.apply_array(X) for X in stack]))

    @pytest.mark.parametrize("batch, n", [((3,), 3), ((2, 2), 3), ((3,), 2)],
                             ids=["3-maps-3x3", "2x2-maps-3x3", "3-maps-2x2"])
    def test_map_stack_on_shared_stack_matches_each_map(self, batch, n):
        # every map of the stack acts on the same operands; integer data keeps sums exact
        rng = np.random.default_rng(SEED)
        layers = rng.integers(-2, 3, batch + (2, n, n, 8)).astype(float)
        stack = rng.integers(-2, 3, (4, n, n, 8)).astype(float)
        got = _act(layers, stack)
        assert got.shape == batch + stack.shape
        for idx in np.ndindex(*batch):
            assert np.array_equal(got[idx], NestedMap(layers[idx]).apply_array(stack))

    def test_stack_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            NestedMap.single(I3).apply_array(np.zeros((4, 2, 2, 8)))


class TestSpinorApply:
    def test_identity(self):
        rng = np.random.default_rng(SEED)
        v = rng.standard_normal((2, 8))
        assert np.allclose(NestedMap.single(I2).apply_spinor(v), v)

    def test_complex_layer_matches_classical_product(self):
        rng = np.random.default_rng(SEED)
        # matrix and spinor all inside span{1, i}: compare against M2(C)
        Mc = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        vc = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        arr = np.zeros((2, 2, 8))
        arr[..., 0], arr[..., 1] = Mc.real, Mc.imag
        v = np.zeros((2, 8))
        v[:, 0], v[:, 1] = vc.real, vc.imag
        got = NestedMap.single(arr).apply_spinor(v)
        expected = Mc @ vc
        assert np.allclose(got[:, 0], expected.real, atol=1e-12)
        assert np.allclose(got[:, 1], expected.imag, atol=1e-12)
        assert np.abs(got[:, 2:]).max() <= 1e-15

    def test_composition_order(self):
        rng = np.random.default_rng(SEED)
        P = rng.standard_normal((2, 2, 8))
        Q = rng.standard_normal((2, 2, 8))
        v = rng.standard_normal((2, 8))
        both = NestedMap([P, Q]).apply_spinor(v)
        sequential = NestedMap.single(Q).apply_spinor(NestedMap.single(P).apply_spinor(v))
        assert np.allclose(both, sequential, atol=1e-12)


def _sample_columns_loop() -> list[np.ndarray]:
    """Reference spinor columns: 16 basis columns, then 32 seeded unit columns, one by one."""
    rng = np.random.default_rng(COMPATIBILITY_SEED)
    columns = []
    for comp in range(2):
        for t in range(8):
            v = np.zeros((2, 8))
            v[comp, t] = 1.0
            columns.append(v)
    for _ in range(32):
        v = rng.standard_normal((2, 8))
        columns.append(v / float(np.sqrt(np.sum(v**2))))
    return columns


def _welldefined_loop(M: np.ndarray, tol: float = 1e-9) -> tuple[bool, float]:
    """Reference: one Hermitian basis matrix at a time."""
    Mh = odagger(M)
    residual = 0.0
    for X in _hermitian_basis(M.shape[0]):
        left = omatmul(M, omatmul(X, Mh))
        right = omatmul(omatmul(M, X), Mh)
        residual = max(residual, float(np.abs(left - right).max()))
    return residual <= tol * fro(M)**2, residual


def _compatible_loop(M: np.ndarray, tol: float = 1e-9) -> tuple[bool, float]:
    """Reference: one spinor column at a time, products entry by entry."""
    Mh = odagger(M)
    residual = 0.0
    for v in _sample_columns_loop():
        w = omul(M, v[None, :, :]).sum(axis=1)
        lhs = omul(w[:, None, :], oconj(w)[None, :, :])
        vv = omul(v[:, None, :], oconj(v)[None, :, :])
        rhs = omatmul(omatmul(M, vv), Mh)
        residual = max(residual, float(np.abs(lhs - rhs).max()))
    return residual <= tol * fro(M)**2, residual


def _oracle_blocks() -> list[np.ndarray]:
    """Passing blocks (roster layers at 0.37) and failing ones (random, mixed units)."""
    rng = np.random.default_rng(SEED)
    curves = roster("E6")
    blocks = [b for c in curves[::9] for b in c.layer_arrays([0.37])[0]]
    blocks += [rng.standard_normal((2, 2, 8)) * scale for scale in (1e-3, 1.0, 1e3)]
    blocks.append(diag(unit("i"), unit("j")))
    return blocks


class TestPredicateOracles:
    def test_sample_columns_pinned(self):
        columns, squares = _spinor_samples()
        ref = np.stack(_sample_columns_loop())
        assert columns.shape == (2, 48, 8)
        assert np.array_equal(columns.swapaxes(0, 1), ref)
        assert np.array_equal(squares, np.stack([omul(v[:, None], oconj(v)[None]) for v in ref]))

    def test_welldefined_matches_loop(self):
        verdicts = set()
        for block in _oracle_blocks():
            for M in (block, embed(block, 1)):
                ok, res = is_welldefined(M)
                ref_ok, ref_res = _welldefined_loop(M)
                assert ok == ref_ok
                assert abs(res - ref_res) <= 1e-13 * max(1.0, fro(M)**2)
                verdicts.add(ok)
        assert verdicts == {True, False}

    def test_compatible_matches_loop(self):
        verdicts = set()
        for M in _oracle_blocks():
            ok, res = is_compatible(M)
            ref_ok, ref_res = _compatible_loop(M)
            assert ok == ref_ok
            assert abs(res - ref_res) <= 1e-13 * max(1.0, fro(M)**2)
            verdicts.add(ok)
        assert verdicts == {True, False}


class TestScaleFreeBounds:
    """A layer's verdicts do not depend on its scale; below 1 the bounds were absolute."""

    @pytest.mark.parametrize("scale", [1e-5, 1e-6])
    def test_failing_layers_fail_at_small_scale(self, scale):
        i, j = unit("i"), unit("j")
        mixed = diag(i, j) * scale
        independent = diag(i, oconj(j)) * scale
        assert is_welldefined(mixed)[0] is _welldefined_loop(mixed)[0] is False
        assert is_compatible(independent)[0] is _compatible_loop(independent)[0] is False
        assert complex_det(diag(i, 1.0) * scale)[1] is False

    @pytest.mark.parametrize("scale", [1e-5, 1e-6])
    def test_passing_layers_pass_at_small_scale(self, scale):
        M = phase_diag("jl", 0.8) * scale
        assert is_welldefined(M)[0] is _welldefined_loop(M)[0] is True
        assert is_compatible(M)[0] is _compatible_loop(M)[0] is True
        assert complex_det(M)[1] is True


class TestStackedPredicates:
    """A stack runs each predicate once; every item equals the one-matrix call bitwise."""

    def test_items_match_single_calls(self):
        blocks = _oracle_blocks()
        stack = np.stack(blocks)
        for predicate, items in ((is_welldefined, stack), (is_compatible, stack),
                                 (is_welldefined, np.stack([embed(M, 2) for M in blocks]))):
            ok, res = predicate(items)
            assert ok.shape == res.shape == (len(blocks),)
            for item, verdict, residual in zip(items, ok, res):
                assert (bool(verdict), float(residual)) == predicate(item)
        complex_items = is_complex(stack)
        assert complex_items.tolist() == [is_complex(M) for M in blocks]
        assert not complex_items.all()
        dets, real = complex_det(stack[complex_items])
        for M, det, verdict in zip(np.array(blocks)[complex_items], dets, real):
            single, single_real = complex_det(M)
            assert verdict == single_real
            assert np.allclose(det, single, rtol=0.0, atol=1e-14)

    def test_complex_det_rejects_a_stack_with_a_non_complex_item(self):
        stack = np.stack([phase_diag("i", 0.3), diag(unit("i"), unit("j"))])
        with pytest.raises(ValueError):
            complex_det(stack)

    def test_real_stack_takes_a_default_direction(self):
        rng = np.random.default_rng(SEED)
        arr = np.zeros((3, 2, 2, 8))
        arr[..., 0] = rng.standard_normal((3, 2, 2))
        dets, real = complex_det(arr)
        assert real.all()
        assert np.allclose(dets[:, 0], np.linalg.det(arr[..., 0]), rtol=1e-14, atol=0.0)
        assert not dets[:, 1:].any()


class TestWellDefined:
    def test_complex_matrix(self):
        ok, res = is_welldefined(phase_diag("il", 0.7))
        assert ok and res <= 1e-12

    def test_mixed_imaginary_columns_fail(self):
        ok, res = is_welldefined(diag(unit("i"), unit("j")))
        assert not ok and res > 1e-2

    def test_real_matrix(self):
        rng = np.random.default_rng(SEED)
        arr = np.zeros((3, 3, 8))
        arr[..., 0] = rng.standard_normal((3, 3))
        ok, _ = is_welldefined(arr)
        assert ok


class TestCompatible:
    def test_so8_form(self):
        ok, res = is_compatible(phase_diag("jl", 1.1))
        assert ok and res <= 1e-12

    def test_independent_imaginary_diagonal_fails(self):
        ok, res = is_compatible(diag(unit("i"), oconj(unit("j"))))
        assert not ok and res > 1e-2

    def test_real_matrix(self):
        rng = np.random.default_rng(SEED)
        arr = np.zeros((2, 2, 8))
        arr[..., 0] = rng.standard_normal((2, 2))
        ok, _ = is_compatible(arr)
        assert ok

    def test_flip_matrix(self):
        s = unit("kl")
        ok, res = is_compatible(diag(s, s))
        assert ok and res <= 1e-12


class TestComplexDet:
    def test_phase_diagonal(self):
        M = phase_diag("i", 0.4)
        assert is_complex(M)
        det, real = complex_det(M)
        assert real and np.allclose(det, unit("1"), atol=1e-12, rtol=0)

    def test_imaginary_identity_multiple(self):
        s = unit("jl")
        det, real = complex_det(diag(s, s))
        assert real and np.allclose(det, -unit("1"), atol=1e-12, rtol=0)

    def test_mixed_units_not_complex(self):
        M = diag(unit("i"), unit("j"))
        assert not is_complex(M)
        with pytest.raises(ValueError):
            complex_det(M)

    def test_non_real_determinant_flagged(self):
        q = np.cos(0.5) * np.eye(8)[0] + np.sin(0.5) * unit("i")
        det, real = complex_det(diag(q, q))
        assert not real


class TestEmbed:
    @pytest.mark.parametrize("slot", [0, 1, 2])
    def test_identity_embeds_to_identity(self, slot):
        assert np.array_equal(embed(I2, slot), I3)

    def test_slot_one_is_cycle_conjugate(self):
        rng = np.random.default_rng(SEED)
        M = rng.standard_normal((2, 2, 8))
        T = cyclic_permutation()
        for slot in (1, 2):
            conjugate = omatmul(omatmul(T, embed(M, slot - 1)), odagger(T))
            assert np.allclose(embed(M, slot), conjugate, atol=1e-12, rtol=0.0)

    def test_cycle_inverse_relations(self):
        T = cyclic_permutation()
        assert np.array_equal(omatmul(omatmul(T, T), T), I3)
        assert np.array_equal(omatmul(T, T), odagger(T))

    def test_cycle_is_read_only(self):
        T = cyclic_permutation()
        with pytest.raises(ValueError):
            T[0, 0, 0] = 1.0
        assert np.array_equal(cyclic_permutation(), T)

    @pytest.mark.parametrize("slot", [0, 1, 2])
    def test_stack_matches_each_item(self, slot):
        rng = np.random.default_rng(SEED)
        blocks = rng.standard_normal((3, 4, 2, 2, 8))
        got = embed(blocks, slot)
        assert got.shape == (3, 4, 3, 3, 8)
        for idx in np.ndindex(3, 4):
            assert np.array_equal(got[idx], embed(blocks[idx], slot))

    @pytest.mark.parametrize("shape, slot", [((3, 3, 8), 0), ((2, 2, 7), 0), ((2, 8), 0),
                                             ((2, 2, 8), 3), ((2, 2, 8), -1)],
                             ids=["3x3", "7-coefficients", "2-entries", "slot-3", "slot-minus-1"])
    def test_bad_shape_or_slot_rejected(self, shape, slot):
        with pytest.raises(ValueError):
            embed(np.zeros(shape), slot)

    def test_block_decomposition(self):
        # slot-0 action splits into 2x2 vector action, spinor action, fixed corner
        rng = np.random.default_rng(SEED)
        M = phase_diag("k", 0.8)
        X2 = Hermitian2(rng.standard_normal(), rng.standard_normal(), rng.standard_normal(8))
        theta = rng.standard_normal((2, 8))
        n = rng.standard_normal()
        from octe6.jordan import assemble, block_split
        big = NestedMap.single(embed(M, 0)).apply(assemble(X2, theta, n))
        got_X, got_theta, got_n = block_split(big)
        expect_X = NestedMap.single(M).apply(X2)
        expect_theta = NestedMap.single(M).apply_spinor(theta)
        assert got_X.isclose(expect_X, tol=1e-10)
        assert np.allclose(got_theta, expect_theta, atol=1e-10)
        assert got_n == pytest.approx(n)


class TestHermitianBasis:
    @pytest.mark.parametrize("cls", [Hermitian2, JordanMatrix])
    def test_is_the_class_basis(self, cls):
        basis = _hermitian_basis(cls.SIZE)
        ref = np.stack([B.to_array() for B in cls.basis()])
        assert basis.tobytes() == ref.tobytes()
        assert not basis.flags.writeable


class TestLinearOp:
    def test_identity(self):
        assert np.allclose(NestedMap.single(I3).as_linear_op(), np.eye(27))

    def test_cycle_is_orthogonal_permutationlike(self):
        op = NestedMap.single(cyclic_permutation()).as_linear_op()
        assert np.allclose(op @ op.T, np.eye(27), atol=1e-12)
        assert np.all(np.isin(np.round(op, 12), [-1.0, 0.0, 1.0]))

    def test_matches_apply_on_random_input(self):
        rng = np.random.default_rng(SEED)
        nm = NestedMap([embed(phase_diag("i", 0.3), 0), embed(phase_diag("jl", -0.7), 2)])
        X = random_jordan(rng)
        assert np.allclose(nm.as_linear_op() @ X.to_vector(),
                           nm.apply(X).to_vector(), atol=1e-10)

    def test_composition_reverses_matrix_order(self):
        a = NestedMap.single(embed(phase_diag("i", 0.3), 0))
        b = NestedMap.single(embed(phase_diag("j", 0.9), 1))
        lhs = a.compose(b).as_linear_op()
        rhs = b.as_linear_op() @ a.as_linear_op()
        assert np.allclose(lhs, rhs, atol=1e-9)


def _word(rng, curves, layers: int) -> NestedMap:
    """Random roster curves at angles in [-1, 1], composed to exactly `layers` layers."""
    word = None
    while layers > 0:
        step = curves[int(rng.integers(len(curves)))](float(rng.uniform(-1.0, 1.0)))
        if len(step.layers) <= layers:
            word = step if word is None else word.compose(step)
            layers -= len(step.layers)
    return word


class TestOperatorReuse:
    """apply multiplies by the operator built on first use."""

    def test_second_apply_is_bitwise_equal(self):
        rng = np.random.default_rng(SEED)
        nm = _word(rng, roster("E6"), 5)
        X = random_jordan(rng)
        first = nm.apply(X).to_vector()
        assert np.array_equal(nm.apply(X).to_vector(), first)
        assert np.array_equal(nm.as_linear_op() @ X.to_vector(), first)

    @pytest.mark.parametrize("group", ["E6", "F4"])
    def test_apply_matches_layered_array_action(self, group):
        rng = np.random.default_rng(SEED)
        curves = roster(group)
        for layers in range(1, 13):
            nm = _word(rng, curves, layers)
            X = random_jordan(rng, scale=10.0 ** rng.uniform(-3, 3))
            layered = JordanMatrix.from_vector(hermitian_vectors(nm.apply_array(X.to_array())))
            diff = np.abs(nm.apply(X).to_vector() - layered.to_vector()).max()
            assert diff <= 1e-12 * max(1.0, X.norm), layers

    def test_two_by_two_maps_on_hermitian2(self):
        rng = np.random.default_rng(SEED)
        blocks = [b for c in roster("SO91") for b in c.layer_arrays([float(rng.uniform(-1, 1))])[0]]
        for depth in (1, 3, 6):
            nm = NestedMap([blocks[t] for t in rng.choice(len(blocks), size=depth)])
            op = nm.as_linear_op()
            assert op.shape == (10, 10)
            for t, B in enumerate(Hermitian2.basis()):
                assert np.array_equal(op[:, t], nm.apply(B).to_vector())
            X = Hermitian2(*rng.standard_normal(2), rng.standard_normal(8))
            layered = Hermitian2.from_vector(hermitian_vectors(nm.apply_array(X.to_array())))
            diff = np.abs(nm.apply(X).to_vector() - layered.to_vector()).max()
            assert diff <= 1e-12 * max(1.0, X.norm)

    def test_operator_is_kept_and_read_only(self):
        nm = NestedMap.single(embed(phase_diag("k", 0.4), 2))
        op = nm.as_linear_op()
        assert nm.as_linear_op() is op
        with pytest.raises(ValueError):
            op[0, 0] = 2.0
        nm.apply(JordanMatrix.identity())
        assert nm.as_linear_op() is op

    def test_composition_builds_its_own_operator(self):
        a = NestedMap.single(embed(phase_diag("i", 0.3), 0))
        b = NestedMap.single(embed(phase_diag("j", 0.9), 1))
        a_op = a.as_linear_op()
        both = a.compose(b)
        assert both.as_linear_op() is not a_op
        assert not np.allclose(both.as_linear_op(), a_op)
        assert np.allclose(both.as_linear_op(), b.as_linear_op() @ a_op, atol=1e-12)
        assert a.as_linear_op() is a_op


class TestJsonForm:
    def test_roundtrip(self):
        rng = np.random.default_rng(SEED)
        nm = NestedMap([embed(phase_diag("i", 0.4), 1), rng.standard_normal((3, 3, 8))])
        back = nested_map_from_json(nested_map_to_json(nm))
        assert len(back.layers) == 2
        for mine, theirs in zip(nm.layers, back.layers):
            assert np.array_equal(mine.arr, theirs.arr)

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            nested_map_from_json([[[[0] * 8, [0] * 8]]])

    @pytest.mark.parametrize("data", [{"layers": [[[[1] + [0] * 7]]]}, 1.0, None])
    def test_non_list_rejected(self, data):
        with pytest.raises(ValueError, match="^a map is a JSON list of layers$"):
            nested_map_from_json(data)


class TestImmutability:
    def test_matrix_entries_are_readonly(self):
        # the layer holders are what a reader of nm.layers gets: each is a read-only copy of stack[d]
        rng = np.random.default_rng(SEED)
        layers = rng.standard_normal((3, 3, 3, 8))
        nm = NestedMap(layers)
        layers[0, 0, 0, 0] = 5.0
        assert len(nm.layers) == 3
        for d, layer in enumerate(nm.layers):
            assert np.array_equal(layer.arr, nm.stack[d])
            with pytest.raises(ValueError):
                layer.arr[0, 0, 0] = 2.0
        with pytest.raises(ValueError):
            nm.stack[0, 0, 0, 0] = 2.0
        assert nm.stack[0, 0, 0, 0] != 5.0

    def test_jordan_slots_are_readonly(self):
        rng = np.random.default_rng(SEED)
        X = random_jordan(rng)
        with pytest.raises(ValueError):
            X.a[0] = 1.0
