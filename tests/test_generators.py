"""Roster structure, Lie elements, ranks, and the triality statements."""

import numpy as np
import pytest

import octe6.generators as generators
import octe6.transform as transform
from octe6.generators import (
    BASIS_UNITS,
    EXPECTED_DIMENSION,
    GROUPS,
    IMAGINARY_UNITS,
    JETS,
    KINDS,
    SLOT_GROUPS,
    GeneratorCurve,
    _as_elements,
    boost_curves,
    flip_pair_curves,
    g2_curves,
    lie_element,
    lie_elements,
    lie_rank,
    rank_cut,
    rank_gap,
    roster,
    rotation_curves,
    singular_values,
    so8_action_check,
    span_equal,
    transverse_curves,
)
from octe6.jordan import Hermitian2, JordanMatrix, hermitian_vectors, lorentz_inner, random_jordan
from octe6.octonion import BASIS_NAMES, exp_imag, is_automorphism, omatmul, omul, oconj
from octe6.transform import (
    NestedMap,
    _hermitian_basis,
    complex_det,
    embed,
    is_compatible,
    is_complex,
    is_welldefined,
    linear_ops,
)

SEED = 16180


class TestRosterStructure:
    def test_curve_counts(self):
        assert len(roster("E6")) == 135
        assert len(roster("F4")) == 108
        assert len(roster("SO91", slot=1)) == 45
        assert len(roster("SO9")) == 36
        assert len(roster("SO8")) == 28
        assert len(roster("SO7")) == 21
        assert len(roster("G2")) == 210

    def test_unknown_group(self):
        with pytest.raises(ValueError):
            roster("E8")

    def test_group_name_normalization(self):
        assert len(roster("so(9,1)")) == 45

    @pytest.mark.parametrize("family,det_value", [
        (boost_curves(0), 1.0),
        (rotation_curves(1), 1.0),
        (transverse_curves(2), 1.0),
    ])
    def test_single_layer_determinants(self, family, det_value):
        for curve in family[::3]:
            nm = curve(0.83)
            assert len(nm.layers) == 1

    def test_layer_predicates_and_determinants(self):
        # every roster layer is complex, well defined, compatible, det +-1
        rng = np.random.default_rng(SEED)
        flips = flip_pair_curves(0)
        sample = (list(boost_curves(0)) + list(rotation_curves(0))
                  + list(transverse_curves(0)) + [flips[0], flips[10], flips[20]]
                  + [g2_curves(0)[17]])
        for curve in sample:
            for block in curve.layer_arrays([rng.uniform(-1.2, 1.2)])[0]:
                layer = embed(block, curve.slot)
                assert is_complex(block)
                ok, res = is_welldefined(layer)
                assert ok, (curve.label, res)
                ok, res = is_compatible(block)
                assert ok, (curve.label, res)
                det, real = complex_det(block)
                assert real
                assert det[0] == pytest.approx(
                    -1.0 if "flip" in curve.label else 1.0, abs=1e-9)


FD_STEP = 1e-5


def _lie_element_per_curve(curve):
    """Central difference of theta -> NestedMap at 0, right-translated: an oracle to 1e-9."""

    def op(theta):
        return hermitian_vectors(curve(theta).apply_array(_hermitian_basis(3))).T

    return (op(FD_STEP) - op(-FD_STEP)) / (2.0 * FD_STEP) @ np.linalg.inv(op(0.0))


def _assert_exact(element, fd, label):
    """element is the half-integer matrix that the finite difference fd approximates."""
    assert np.array_equal(element, np.round(2.0 * fd) / 2.0), label
    assert np.abs(fd - element).max() <= 1e-9, label


def _spy_on_linear_ops(monkeypatch) -> list:
    """The maps that lie_elements hands to linear_ops from now on, one array per call."""
    built = []

    def spy(layers):
        built.append(layers.copy())
        return linear_ops(layers)

    monkeypatch.setattr(generators, "linear_ops", spy)
    return built


# a data-form curve whose every layer is zero: op(curve(0)) is singular
_degenerate = GeneratorCurve("degenerate[slot0]", 0, "trig", (0.5,),
                             np.zeros((1, 2, 2, 8)), np.zeros((1, 2, 2, 8)))


# ---------------------------------------------------------------------------
# The per-curve closures that the data-form rosters replaced, kept as an oracle
# ---------------------------------------------------------------------------

ORACLE_THETAS = (0.0, 1e-5, -1e-5, 0.37, -0.9, 1.1)


def _unit(name):
    return np.eye(8)[BASIS_NAMES.index(name)]


_I2 = np.zeros((2, 2, 8))
_I2[0, 0, 0] = _I2[1, 1, 0] = 1.0


def _offdiag(upper, lower):
    arr = np.zeros((2, 2, 8))
    arr[0, 1] = upper
    arr[1, 0] = lower
    return arr


def _scalar2(value):
    arr = np.zeros((2, 2, 8))
    arr[0, 0] = value
    arr[1, 1] = value
    return arr


def _phase_diag(s, theta):
    q = np.sin(theta) * s
    q[0] = np.cos(theta)
    arr = np.zeros((2, 2, 8))
    arr[0, 0] = q
    arr[1, 1] = oconj(q)
    return arr


def _reference_boosts(slot):
    def diag_boost(theta):
        arr = np.zeros((2, 2, 8))
        arr[0, 0, 0] = np.exp(theta / 2.0)
        arr[1, 1, 0] = np.exp(-theta / 2.0)
        return [arr]

    out = [(f"boost-diag[slot{slot}]", diag_boost)]
    for name in BASIS_UNITS:
        def curve(theta, e=_unit(name)):
            return [np.cosh(theta / 2.0) * _I2
                    + np.sinh(theta / 2.0) * _offdiag(e, oconj(e))]
        out.append((f"boost[{name},slot{slot}]", curve))
    return out


def _reference_rotations(slot):
    out = []
    for name in BASIS_UNITS:
        def curve(theta, e=_unit(name)):
            return [np.cos(theta / 2.0) * _I2
                    + np.sin(theta / 2.0) * _offdiag(e, -oconj(e))]
        out.append((f"rotation[{name},slot{slot}]", curve))
    return out


def _reference_transverse(slot):
    return [(f"transverse[{name},slot{slot}]", lambda theta, s=_unit(name): [_phase_diag(s, theta)])
            for name in IMAGINARY_UNITS]


def _reference_flip_pairs(slot):
    out = []
    for idx_s, sname in enumerate(IMAGINARY_UNITS):
        for tname in IMAGINARY_UNITS[idx_s + 1:]:
            def curve(theta, s=_unit(sname), t=_unit(tname)):
                return [_scalar2(s), _scalar2(np.cos(theta) * s + np.sin(theta) * t)]
            out.append((f"flip-pair[{sname},{tname},slot{slot}]", curve))
    return out


def _reference_four_flips(slot):
    out = []
    for sname in IMAGINARY_UNITS:
        for uname in IMAGINARY_UNITS:
            for wname in IMAGINARY_UNITS:
                if sname == uname or wname in (sname, uname):
                    continue
                s, u, w = _unit(sname), _unit(uname), _unit(wname)

                def curve(theta, s=s, u=u, sw=omul(s, w), uw=omul(u, w)):
                    q2 = np.cos(theta) * s + np.sin(theta) * sw
                    q4 = np.cos(theta) * u - np.sin(theta) * uw
                    return [_scalar2(s), _scalar2(q2), _scalar2(u), _scalar2(q4)]
                out.append((f"four-flip[{sname},{uname};w={wname},slot{slot}]", curve))
    return out


def _reference_roster(group, slot):
    """(label, blocks) pairs in the order of the closure-based roster."""
    rotations = [_reference_rotations, _reference_transverse, _reference_flip_pairs]
    families = {"SO91": [_reference_boosts] + rotations, "SO9": rotations,
                "SO8": rotations[1:], "SO7": rotations[2:], "G2": [_reference_four_flips]}
    if group in families:
        return [c for family in families[group] for c in family(slot)]
    families = rotations if group == "F4" else [_reference_boosts] + rotations
    return [c for sl in range(3) for family in families for c in family(sl)]


ALL_ROSTERS = [(group, slot) for group in GROUPS for slot in (0, 1, 2)]


class TestRosterOracle:
    @pytest.mark.parametrize("group, slot", ALL_ROSTERS)
    def test_layers_match_closures(self, group, slot):
        curves = roster(group, slot=slot)
        reference = _reference_roster(group, slot)
        assert [c.label for c in curves] == [label for label, _ in reference]
        for curve, (_, blocks) in zip(curves, reference):
            expected = np.array([blocks(t) for t in ORACLE_THETAS])
            assert np.array_equal(curve.layer_arrays(ORACLE_THETAS), expected), curve.label
            for t, layers in zip(ORACLE_THETAS, expected):
                assert np.array_equal(curve(t).stack, [embed(M, curve.slot) for M in layers])

    @pytest.mark.parametrize("group, slot", ALL_ROSTERS)
    def test_lie_elements_match_closures(self, group, slot):
        # the finite difference of each closure, independent of the data-form curves
        curves = roster(group, slot=slot)
        reference = _reference_roster(group, slot)
        elements = lie_elements(curves)
        for curve, got, (label, blocks) in zip(curves, elements, reference, strict=True):
            def closure(t, blocks=blocks, sl=curve.slot):
                return NestedMap([embed(M, sl) for M in blocks(t)])
            _assert_exact(got, _lie_element_per_curve(closure), label)

    def test_arrays_read_only_and_curves_hash(self):
        curves = roster("E6") + roster("G2", slot=1)
        for curve in curves:
            assert not curve.A.flags.writeable and not curve.B.flags.writeable
        with pytest.raises(ValueError):
            curves[0].A[...] = 0.0
        assert len(set(curves)) == len(curves)
        assert set(roster("E6")) == set(curves[:135])


class TestLieElements:
    def test_diagonal_boost_analytic_form(self):
        # slot-0 diagonal boost: d/dt acts as +1 on p, -1 on m, -+1/2 on spinors
        L = lie_element(boost_curves(0)[0])
        expected = np.zeros((27, 27))
        expected[0, 0] = 1.0
        expected[1, 1] = -1.0
        for t in range(8):
            expected[11 + t, 11 + t] = -0.5
            expected[19 + t, 19 + t] = 0.5
        assert np.array_equal(L, expected)

    def test_transverse_annihilates_diagonal(self):
        for curve in transverse_curves(0):
            L = lie_element(curve)
            assert np.abs(L[:3, :]).max() <= 1e-8
            assert np.abs(L[:, :3]).max() <= 1e-8

    def test_flip_pair_base_is_involution(self):
        base = flip_pair_curves(0)[0](0.0).as_linear_op()
        assert np.allclose(base @ base, np.eye(27), atol=1e-12)
        assert not np.allclose(base, np.eye(27))

    def test_lie_element_accepts_raw_arrays(self):
        L = lie_element(boost_curves(0)[0])
        assert lie_rank([L, 2.0 * L]) == 1

    def test_singular_base_point_rejected(self):
        with pytest.raises(ValueError):
            lie_element(_degenerate)

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_jets_are_the_kinds_at_zero(self, kind):
        (c0, s0), (c1, s1) = JETS[kind]
        c, s = KINDS[kind]
        assert (c(0.0), s(0.0)) == (c0, s0)
        h = 1e-6
        assert abs((c(h) - c(-h)) / (2 * h) - c1) <= 1e-9
        assert abs((s(h) - s(-h)) / (2 * h) - s1) <= 1e-9


# each roster once: E6 and F4 ignore the slot
DISTINCT_ROSTERS = [(group, slot) for group in GROUPS
                    for slot in ((0, 1, 2) if group in SLOT_GROUPS else (0,))]


class TestStackedLieElements:
    @pytest.mark.parametrize("group, slot", DISTINCT_ROSTERS)
    def test_matches_per_curve_formula(self, group, slot):
        curves = roster(group, slot=slot)
        elements = lie_elements(curves)
        assert len(elements) == len(curves)
        for curve, element in zip(curves, elements):
            _assert_exact(element, _lie_element_per_curve(curve), curve.label)

    @pytest.mark.parametrize("group, slot", DISTINCT_ROSTERS)
    def test_half_integer_elements_and_signed_permutation_bases(self, group, slot):
        curves = roster(group, slot=slot)
        for curve, element in zip(curves, lie_elements(curves), strict=True):
            assert np.array_equal(2.0 * element, np.round(2.0 * element)), curve.label
            base = curve(0.0).as_linear_op()
            assert np.array_equal(np.abs(base).sum(axis=0), np.ones(27)), curve.label
            assert set(np.unique(base)) <= {-1.0, 0.0, 1.0}, curve.label
            assert np.array_equal(base @ base.T, np.eye(27)), curve.label

    def test_singular_base_in_stack_rejected(self):
        # the degenerate curve shares a pass with the rotations
        items = boost_curves(0)[:3] + [_degenerate] + rotation_curves(0)[:3]
        with pytest.raises(ValueError):
            lie_elements(items)

    @pytest.mark.parametrize("item", [
        lambda theta: boost_curves(0)[0](theta),
        boost_curves(0)[0](0.0),
        "boost-diag[slot0]",
    ], ids=["callable", "nested-map", "label"])
    def test_items_other_than_curves_rejected(self, item):
        with pytest.raises(TypeError):
            lie_elements(rotation_curves(0)[:2] + [item])

    def test_empty_list(self):
        assert lie_elements([]) == []

    def test_degenerate_curve_sharing_rotation_layers_rejected(self, monkeypatch):
        rotations = rotation_curves(0)
        # its one layer is rotation 3's M + M' at 0, a map that is not orthogonal
        A = rotations[3].A + 0.5 * rotations[3].B
        shared = GeneratorCurve("shared[slot0]", 0, "trig", (0.5,), A, np.zeros_like(A))
        built = _spy_on_linear_ops(monkeypatch)
        lie_elements(rotations)
        alone = len(np.concatenate(built))
        built.clear()
        with pytest.raises(ValueError):
            lie_elements(rotations[:3] + [shared] + rotations[3:])
        assert len(np.concatenate(built)) == alone  # no map of its own

    def test_jets_read_in_order(self, monkeypatch):
        # a kind whose s(0) and c'(0) differ, unlike every kind in KINDS
        monkeypatch.setitem(KINDS, "exp-sin", (np.exp, np.sin))
        monkeypatch.setitem(JETS, "exp-sin", ((1, 0), (1, 1)))
        rotation = rotation_curves(0)[2]
        curve = GeneratorCurve("exp-sin[slot0]", 0, "exp-sin", (0.5,), rotation.A, rotation.B)
        _assert_exact(lie_element(curve), _lie_element_per_curve(curve), curve.label)

    def test_layers_inside_the_innermost_moving_one_drop_out(self):
        # a constant inner layer e_i I leaves the element as it is
        rotation = rotation_curves(1)[3]
        A = np.concatenate([transverse_curves(1)[0].B, rotation.A])
        B = np.concatenate([np.zeros_like(rotation.B), rotation.B])
        nested = GeneratorCurve("nested[slot1]", 1, "trig", (0.0, 0.5), A, B)
        assert np.array_equal(lie_element(nested), lie_element(rotation))
        with pytest.raises(ValueError):  # but its op must still be orthogonal
            lie_element(GeneratorCurve("scaled[slot1]", 1, "trig", (0.0, 0.5), 2.0 * A, B))

    @pytest.mark.parametrize("group, distinct", [("G2", 70), ("E6", 97)])
    def test_each_distinct_block_acted_on_once(self, monkeypatch, group, distinct):
        # E6's three slots share their 2x2 blocks: 97 blocks for 289 embedded layers
        built = _spy_on_linear_ops(monkeypatch)
        lie_elements(roster(group))
        assert len(built) == 1  # one linear_ops call, which sizes its own blocks
        maps = built[0]
        assert maps.shape == (distinct, 1, 2, 2, 8)
        assert len({m.tobytes() for m in maps}) == distinct

    @pytest.mark.parametrize("slot", [0, 1, 2])
    def test_placed_parts_are_the_embedded_maps(self, slot):
        # an embedded block acts on the block, on the column beside it and, as 1, on the corner
        blocks = np.random.default_rng(SEED + slot).standard_normal((5, 2, 2, 8))
        spinors = np.eye(16).reshape(16, 2, 1, 8)  # the basis columns
        on_column = np.stack([omatmul(blocks, v).reshape(5, 16) for v in spinors], axis=-1)
        placed = generators._place(linear_ops(blocks[:, None]), on_column, [slot] * 5)
        corner = generators._SLOT_LAYOUTS[slot][0][26]
        placed[:, corner, corner] = 1.0
        embedded = linear_ops(embed(blocks, slot)[:, None])
        np.testing.assert_allclose(placed, embedded, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("group, slot", DISTINCT_ROSTERS)
    def test_elements_split_into_vector_and_spinor_parts(self, group, slot):
        # 27 = 10 + 16 + 1 under the double cover of SO(9,1): each element is zero
        # off its slot's 10x10 and 16x16 blocks, preserves the Lorentz form on
        # the 10 and, unless it is a boost, is antisymmetric on the 16
        basis = Hermitian2.basis()
        G = np.array([[lorentz_inner(X, Y) for Y in basis] for X in basis])
        assert set(G.ravel()) == {-0.5, 0.0, 1.0}
        curves, not_antisymmetric = roster(group, slot=slot), []
        for curve, element in zip(curves, lie_elements(curves), strict=True):
            place, signs = generators._SLOT_LAYOUTS[curve.slot]
            vector, spinor = (element[place[span, None], place[span]] * signs[span, None] * signs[span]
                              for span in (slice(0, 10), slice(10, 26)))
            outside = element.copy()
            outside[place[:10, None], place[:10]] = outside[place[10:26, None], place[10:26]] = 0.0
            assert not outside.any(), curve.label
            assert not (vector.T @ G + G @ vector).any(), curve.label
            if not np.array_equal(spinor, -spinor.T):
                not_antisymmetric.append(curve.label)
        assert not_antisymmetric == [curve.label for curve in curves if curve.label.startswith("boost")]

    def test_linear_ops_blocks_match_per_map_calls(self, monkeypatch):
        layers = np.concatenate([curve(0.37).stack for curve in roster("E6") + roster("F4")])
        maps = layers[:289, None]
        image_bytes, act = [], transform._act

        def spy(layers, X):
            images = act(layers, X)
            image_bytes.append(images.nbytes)
            return images

        monkeypatch.setattr(transform, "_act", spy)
        ops = linear_ops(maps)
        assert len(image_bytes) == -(-289 // 8)
        assert max(image_bytes) <= 128 * 1024
        per_map = np.stack([linear_ops(m) for m in maps])
        assert ops.shape == (289, 27, 27)
        assert ops.tobytes() == per_map.tobytes()
        assert linear_ops(maps.reshape(17, 17, 1, 3, 3, 8)).tobytes() == ops.tobytes()

    def test_shuffled_curves_give_permuted_elements(self):
        curves = roster("E6") + roster("G2") + roster("SO91", slot=2)
        order = np.random.default_rng(SEED).permutation(len(curves))
        elements = lie_elements(curves)
        shuffled = lie_elements([curves[i] for i in order])
        assert [el.tobytes() for el in shuffled] == [elements[i].tobytes() for i in order]

    def test_mixed_items_keep_their_order(self):
        curves = roster("SO8", slot=2)[::6]
        fd = [_lie_element_per_curve(c) for c in curves]
        L = [np.round(2.0 * f) / 2.0 for f in fd]
        assert max(np.abs(f - el).max() for f, el in zip(fd, L)) <= 1e-9
        raw = [3.0 * lie_element(c) for c in roster("SO7")[:3]]
        items = [raw[0], curves[0], curves[1], raw[1], curves[2], raw[2], curves[3], curves[4]]
        expected = [raw[0], L[0], L[1], raw[1], L[2], raw[2], L[3], L[4]]
        got = _as_elements(items)
        assert len(got) == len(expected)
        for a, b in zip(got, expected):
            assert np.array_equal(a, b)
        stacked = np.stack([el.ravel() for el in expected])
        support = stacked[:, stacked.any(axis=0)]
        sv = singular_values(items)
        assert np.array_equal(sv, np.linalg.svd(support, compute_uv=False))
        np.testing.assert_allclose(sv, np.linalg.svd(stacked, compute_uv=False)[:len(sv)], rtol=1e-14)
        assert span_equal(items, expected)


class TestRanks:
    @pytest.mark.parametrize("group", ["SO7", "SO8", "SO9", "SO91"])
    def test_single_slot_ranks(self, group):
        curves = roster(group)
        assert lie_rank(curves) == EXPECTED_DIMENSION[group]
        assert rank_gap(curves) >= 1e4

    @pytest.mark.parametrize("rel_tol", [1.0, 2.0, np.inf])
    def test_rank_gap_is_zero_when_nothing_is_kept(self, rel_tol):
        assert rank_gap(roster("SO7"), rel_tol) == 0.0

    @pytest.mark.parametrize("s, rel_tol, expected", [
        ([0.0, 0.0, 0.0], 1e-6, (0, None, 0.0)),
        ([4.0, 2.0, 1.0], 1.0, (0, None, 4.0)),
        ([4.0, 2.0, 1.0], 1e-6, (3, 1.0, None)),
        ([4.0, 2.0, 1e-9, 0.0], 1e-6, (2, 2.0, 1e-9)),
        ([4.0, 4e-6, 1e-9], 1e-6, (1, 4.0, 4e-6)),
    ], ids=["zero", "nothing-kept", "full-rank", "gap", "cut-is-strict"])
    def test_rank_cut(self, s, rel_tol, expected):
        assert rank_cut(np.array(s), rel_tol) == expected

    def test_rank_table_is_complete(self):
        assert set(EXPECTED_DIMENSION) == set(GROUPS)

    def test_singular_values_descending(self):
        sv = singular_values(roster("SO7"))
        assert np.all(np.diff(sv) <= 1e-12)

    @pytest.mark.parametrize("group, slot", DISTINCT_ROSTERS)
    def test_support_svd_matches_the_full_svd(self, group, slot):
        # zero columns change no nonzero singular value; the kept ones agree to rounding
        curves = roster(group, slot=slot)
        stacked = np.stack([el.ravel() for el in lie_elements(curves)])
        full = np.linalg.svd(stacked, compute_uv=False)
        sv = singular_values(curves)
        rank = EXPECTED_DIMENSION[group]
        assert len(sv) == min(stacked.shape[0], stacked.any(axis=0).sum())
        assert rank_cut(sv, 1e-6)[0] == rank
        np.testing.assert_allclose(sv[:rank], full[:rank], rtol=1e-14)

    @pytest.mark.parametrize("group", SLOT_GROUPS)
    def test_support_svd_agrees_across_slots(self, group):
        svs = [singular_values(roster(group, slot=slot)) for slot in range(3)]
        ranks = [rank_cut(sv, 1e-6)[0] for sv in svs]
        assert ranks == [EXPECTED_DIMENSION[group]] * 3
        for sv in svs[1:]:
            assert len(sv) == len(svs[0])
            np.testing.assert_allclose(sv[:ranks[0]], svs[0][:ranks[0]], rtol=1e-14)

    def test_all_zero_items_have_no_support(self):
        zeros = [np.zeros((27, 27))] * 4
        sv = singular_values(zeros)
        assert sv.shape == (0,)
        assert lie_rank(zeros) == 0 and rank_gap(zeros) == 0.0
        assert rank_cut(sv, 1e-6) == (0, None, None)


class TestSpans:
    def test_so8_copies_coincide(self):
        elements = {slot: [lie_element(c) for c in roster("SO8", slot=slot)]
                    for slot in range(3)}
        assert span_equal(elements[0], elements[1])
        assert span_equal(elements[1], elements[2])
        assert lie_rank(elements[0] + elements[1] + elements[2]) == 28

    def test_so91_slots_differ(self):
        a = [lie_element(c) for c in roster("SO91", slot=0)]
        b = [lie_element(c) for c in roster("SO91", slot=1)]
        assert not span_equal(a, b)

    def test_f4_is_proper_subspan_of_e6(self):
        e6 = [lie_element(c) for c in roster("E6")]
        f4 = [lie_element(c) for c in roster("F4")]
        assert not span_equal(e6, f4)
        # the rotation span sits inside the full span
        assert lie_rank(e6 + f4) == lie_rank(e6) == 78

    def test_flip_pair_order_does_not_matter(self):
        # reversing (s, t) in the nested pair stays inside the same span
        fwd = [lie_element(c) for c in flip_pair_curves(0)]
        i, j = _unit("i"), _unit("j")
        # layers [j I, (j cos t + i sin t) I]
        A, B = np.zeros((2, 2, 2, 2, 8))
        A[:, 0, 0] = A[:, 1, 1] = j
        B[1, 0, 0] = B[1, 1, 1] = i
        reversed_curve = GeneratorCurve("flip-pair[j,i,slot0]", 0, "trig", (0.0, 1.0), A, B)
        assert span_equal(fwd, fwd + [lie_element(reversed_curve)])


class TestG2:
    def test_paper_curve_fixes_k_and_l(self):
        curve = next(c for c in g2_curves(0) if c.label.startswith("four-flip[i,j;w=l"))
        op = curve(0.3).as_linear_op()
        amap = op[3:11, 3:11]
        for name in ("k", "l", "kl"):
            e = _unit(name)
            assert np.allclose(amap @ e, e, atol=1e-10)

    def test_entrywise_single_automorphism(self):
        curve = g2_curves(0)[0]
        for theta in (0.3, 1.1):
            op = curve(theta).as_linear_op()
            amap, bmap, cmap = op[3:11, 3:11], op[11:19, 11:19], op[19:27, 19:27]
            assert np.abs(amap - bmap).max() <= 1e-8
            assert np.abs(amap - cmap).max() <= 1e-8
            assert np.allclose(op[:3, :3], np.eye(3), atol=1e-12)
            ok, res = is_automorphism(amap)
            assert ok, res

    def test_no_cross_slot_mixing(self):
        op = g2_curves(0)[5](0.7).as_linear_op()
        mask = np.ones((27, 27), dtype=bool)
        for block in (slice(0, 3), slice(3, 11), slice(11, 19), slice(19, 27)):
            mask[block, block] = False
        assert np.abs(op[mask]).max() <= 1e-12

    def test_diagonal_replacement_gives_same_map(self):
        # replacing each embedded flip with (imaginary unit) * I3 acts identically
        i = _unit("i")
        j = _unit("j")
        ell = _unit("l")
        theta = 0.52
        q2 = np.cos(theta) * i + np.sin(theta) * omul(i, ell)
        q4 = np.cos(theta) * j - np.sin(theta) * omul(j, ell)
        curve = next(c for c in g2_curves(0) if c.label.startswith("four-flip[i,j;w=l"))
        nested = curve(theta).as_linear_op()

        def scalar3(v):
            arr = np.zeros((3, 3, 8))
            arr[0, 0] = arr[1, 1] = arr[2, 2] = v
            return arr

        diagonal = NestedMap([scalar3(v) for v in (i, q2, j, q4)]).as_linear_op()
        assert np.abs(nested - diagonal).max() <= 1e-8

    def test_rank_saturates(self):
        assert lie_rank(g2_curves(0)) == 14

    def test_slot_spans_equal(self):
        a = [lie_element(c) for c in g2_curves(0)]
        b = [lie_element(c) for c in g2_curves(1)]
        assert span_equal(a, b)


class TestSo8Action:
    def test_identity_unit(self):
        rng = np.random.default_rng(SEED)
        assert so8_action_check(_unit("1"), random_jordan(rng)) <= 1e-12

    def test_sign_cover(self):
        # q and -q act identically on the vector slot, oppositely on spinor slots
        rng = np.random.default_rng(SEED)
        q = exp_imag(_unit("i"), 0.77)
        X = random_jordan(rng)

        def action(unit_oct):
            arr = np.zeros((2, 2, 8))
            arr[0, 0] = unit_oct
            arr[1, 1] = oconj(unit_oct)
            return NestedMap.single(embed(arr, 0)).apply(X)

        plus, minus = action(q), action(-q)
        assert np.allclose(plus.a, minus.a, atol=1e-12)
        assert np.allclose(plus.b, -minus.b, atol=1e-12)
        assert np.allclose(plus.c, -minus.c, atol=1e-12)

    def test_quarter_phase_on_orthogonal_unit(self):
        q = exp_imag(_unit("i"), np.pi / 4)
        X = JordanMatrix(0, 0, 0, a=_unit("j"))
        assert so8_action_check(q, X) <= 1e-12

    def test_random_units(self):
        rng = np.random.default_rng(SEED)
        for _ in range(16):
            v = rng.standard_normal(8)
            q = v / np.linalg.norm(v)
            assert so8_action_check(q, random_jordan(rng)) <= 1e-9

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError):
            so8_action_check(_unit("1") * 2.0, JordanMatrix.identity())


class TestPreservation:
    def test_determinant_preserved_by_compositions(self):
        from octe6.jordan import det3
        rng = np.random.default_rng(SEED)
        curves = roster("E6")
        for _ in range(20):
            picks = rng.choice(len(curves), size=5, replace=False)
            nm = curves[picks[0]](rng.uniform(-1, 1))
            for t in picks[1:]:
                nm = nm.compose(curves[t](rng.uniform(-1, 1)))
            X = random_jordan(rng)
            assert det3(nm.apply(X)) == pytest.approx(det3(X), rel=1e-7)

    def test_trace_preserved_by_rotations_not_boosts(self):
        rng = np.random.default_rng(SEED)
        X = random_jordan(rng)
        for curve in roster("F4")[:: 9]:
            assert curve(0.9).apply(X).trace == pytest.approx(X.trace, abs=1e-9)
        for curve in boost_curves(0):
            assert abs(curve(0.5).apply(JordanMatrix.identity()).trace - 3.0) > 1e-3
