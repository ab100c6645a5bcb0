"""Generator curves for E6 and its subgroups, with numerical rank machinery.

Per 2x2 block slot the determinant-preserving roster holds 45 one-parameter
curves:

* 1 diagonal boost  diag(e^{t/2}, e^{-t/2})
* 8 off-diagonal boosts  cosh(t/2) I + sinh(t/2) offdiag(e, conj(e)),
  one per basis unit e
* 8 rotations  cos(t/2) I + sin(t/2) offdiag(e, -conj(e))
* 7 transverse rotations  diag(e^{st}, e^{-st}), one per imaginary unit s
* 21 flip pairs  [s I, (s cos t + u sin t) I] over unordered pairs {s, u}
  of distinct imaginary units (each layer an imaginary multiple of the
  identity, determinant -1)

A curve carries its slot and its 2x2 blocks: ``blocks(theta)`` returns the
2x2 layers, and calling the curve embeds them in the slot's 3x3 block.
Group rosters are assembled from these families: all three slots give E6
(135 curves, rank 78); dropping boosts gives the rotation subgroups.  The
automorphism subgroup uses four-flip curves

    [s I, (s cos t + sw sin t) I, u I, (u cos t - uw sin t) I]

whose entrywise action on a Jordan matrix is a single octonion
automorphism.  Tangents of those curves at t = 0 are linear in w, so the
triples (s, u, w) are enumerated over all ordered pairs of distinct
imaginary basis units and every admissible basis w; that enumeration
saturates the 14-dimensional span.

A curve's Lie algebra element is the central difference (step
``LIE_STEP``) of its 27x27 operator, right-translated to the identity;
dimensions are numerical ranks of the flattened elements.

``lie_elements`` computes the elements of a whole curve list in stacked
passes.  Curves are grouped by (depth, slot), an opaque callable's already
embedded 3x3 layers forming groups of their own.  Each curve's layers are
evaluated at +h, -h and 0; a group's pass runs as soon as it holds
``LIE_CHUNK`` curves, and the partly filled groups run at the end.  A pass
embeds its 2x2 blocks in one index shift, and ``linear_ops`` acts on the
27 Jordan basis matrices one layer at a time for all its maps together;
one batched inverse and one batched product finish it.  The chunk bounds
the peak memory: the 210 G2 curves allocate at most 3.3 MB at a time in
passes of 8 curves (24 maps), against 1.6 MB one curve at a time and 55 MB
in a single pass, whose stacked basis images alone take 10 MB.  Passes of
more than 8 curves are not faster.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from .jordan import JordanMatrix
from .octonion import Octonion, _as_coeffs, _numerical_rank, oconj, omul, onorm
from .transform import NestedMap, OctMatrix, _embed_arrays, embed, linear_ops

IMAGINARY_UNITS = ("i", "j", "k", "kl", "jl", "il", "l")
BASIS_UNITS = ("1",) + IMAGINARY_UNITS

GROUPS = ("E6", "F4", "SO91", "SO9", "SO8", "SO7", "G2")
EXPECTED_DIMENSION = {
    "E6": 78,
    "F4": 52,
    "SO91": 45,
    "SO9": 36,
    "SO8": 28,
    "SO7": 21,
    "G2": 14,
}

# groups whose roster lives in a single 2x2 block slot
SLOT_GROUPS = ("SO91", "SO9", "SO8", "SO7", "G2")

# central-difference step of lie_elements
LIE_STEP = 1e-5

# curves per stacked pass of lie_elements; bounds the pass's arrays and so the peak RSS
LIE_CHUNK = 8


@dataclass(frozen=True)
class GeneratorCurve:
    """A labeled one-parameter family of nested maps in one 2x2 block slot.

    ``blocks(theta)`` gives the 2x2 layers; calling the curve embeds each of
    them in ``slot`` and returns the 3x3 nested map.
    """

    label: str
    slot: int
    blocks: Callable[[float], list[OctMatrix]] = field(repr=False)

    def __call__(self, theta: float) -> NestedMap:
        return NestedMap([embed(M, self.slot) for M in self.blocks(theta)])


def _unit(name: str) -> np.ndarray:
    return Octonion.unit(name).coefficients


def _offdiag(upper: np.ndarray, lower: np.ndarray) -> OctMatrix:
    arr = np.zeros((2, 2, 8))
    arr[0, 1] = upper
    arr[1, 0] = lower
    return OctMatrix(arr)


def _scalar2(value: np.ndarray) -> OctMatrix:
    """value * I2 for an octonion value."""
    arr = np.zeros((2, 2, 8))
    arr[0, 0] = value
    arr[1, 1] = value
    return OctMatrix(arr)


def _phase_diag(s: np.ndarray, theta: float) -> OctMatrix:
    """diag(e^{s theta}, e^{-s theta})."""
    q = np.sin(theta) * s
    q[0] = np.cos(theta)
    arr = np.zeros((2, 2, 8))
    arr[0, 0] = q
    arr[1, 1] = oconj(q)
    return OctMatrix(arr)


def boost_curves(slot: int) -> list[GeneratorCurve]:
    """The 9 boost curves of one slot: Hermitian layers, determinant +1."""
    out = []

    def diag_boost(theta: float) -> list[OctMatrix]:
        arr = np.zeros((2, 2, 8))
        arr[0, 0, 0] = np.exp(theta / 2.0)
        arr[1, 1, 0] = np.exp(-theta / 2.0)
        return [OctMatrix(arr)]

    out.append(GeneratorCurve(f"boost-diag[slot{slot}]", slot, diag_boost))
    for name in BASIS_UNITS:
        e = _unit(name)

        def curve(theta: float, e=e) -> list[OctMatrix]:
            return [np.cosh(theta / 2.0) * OctMatrix.identity(2)
                    + np.sinh(theta / 2.0) * _offdiag(e, oconj(e))]

        out.append(GeneratorCurve(f"boost[{name},slot{slot}]", slot, curve))
    return out


def rotation_curves(slot: int) -> list[GeneratorCurve]:
    """The 8 off-diagonal rotation curves: unitary layers, determinant +1."""
    out = []
    for name in BASIS_UNITS:
        e = _unit(name)

        def curve(theta: float, e=e) -> list[OctMatrix]:
            return [np.cos(theta / 2.0) * OctMatrix.identity(2)
                    + np.sin(theta / 2.0) * _offdiag(e, -oconj(e))]

        out.append(GeneratorCurve(f"rotation[{name},slot{slot}]", slot, curve))
    return out


def transverse_curves(slot: int) -> list[GeneratorCurve]:
    """The 7 diagonal-phase curves diag(e^{st}, e^{-st}); diagonal-preserving."""
    out = []
    for name in IMAGINARY_UNITS:
        s = _unit(name)

        def curve(theta: float, s=s) -> list[OctMatrix]:
            return [_phase_diag(s, theta)]

        out.append(GeneratorCurve(f"transverse[{name},slot{slot}]", slot, curve))
    return out


def flip_pair_curves(slot: int) -> list[GeneratorCurve]:
    """The 21 nested flip pairs over unordered pairs of imaginary units."""
    out = []
    for idx_s in range(len(IMAGINARY_UNITS)):
        for idx_t in range(idx_s + 1, len(IMAGINARY_UNITS)):
            s = _unit(IMAGINARY_UNITS[idx_s])
            t = _unit(IMAGINARY_UNITS[idx_t])

            def curve(theta: float, s=s, t=t) -> list[OctMatrix]:
                u = np.cos(theta) * s + np.sin(theta) * t
                return [_scalar2(s), _scalar2(u)]

            label = f"flip-pair[{IMAGINARY_UNITS[idx_s]},{IMAGINARY_UNITS[idx_t]},slot{slot}]"
            out.append(GeneratorCurve(label, slot, curve))
    return out


def g2_curves(slot: int = 0) -> list[GeneratorCurve]:
    """Four-flip automorphism curves over all admissible (s, u, w) triples.

    s and u run over ordered pairs of distinct imaginary basis units and w
    over the remaining imaginary basis units (so that s w and u w are again
    imaginary units): 210 curves whose tangents span the full automorphism
    algebra.
    """
    out = []
    for sname in IMAGINARY_UNITS:
        for uname in IMAGINARY_UNITS:
            if sname == uname:
                continue
            for wname in IMAGINARY_UNITS:
                if wname in (sname, uname):
                    continue
                s, u, w = _unit(sname), _unit(uname), _unit(wname)
                sw, uw = omul(s, w), omul(u, w)

                def curve(theta: float, s=s, u=u, sw=sw, uw=uw) -> list[OctMatrix]:
                    q2 = np.cos(theta) * s + np.sin(theta) * sw
                    q4 = np.cos(theta) * u - np.sin(theta) * uw
                    return [_scalar2(s), _scalar2(q2), _scalar2(u), _scalar2(q4)]

                label = f"four-flip[{sname},{uname};w={wname},slot{slot}]"
                out.append(GeneratorCurve(label, slot, curve))
    return out


def normalize_group(group: str) -> str:
    """Canonical group key: case-insensitive, punctuation like SO(9,1) allowed."""
    name = group.upper().replace("(", "").replace(")", "").replace(",", "")
    if name not in GROUPS:
        raise ValueError(f"unknown group {group!r}; expected one of {', '.join(GROUPS)}")
    return name


def roster(group: str, slot: int = 0) -> list[GeneratorCurve]:
    """Generator curves for one of E6, F4, SO91, SO9, SO8, SO7, G2.

    Slot selects the 2x2 block for the single-slot groups; E6 and F4 span
    all three slots.
    """
    name = normalize_group(group)
    if name in SLOT_GROUPS and slot not in (0, 1, 2):
        raise ValueError("slot must be 0, 1 or 2")
    if name == "SO91":
        return (boost_curves(slot) + rotation_curves(slot)
                + transverse_curves(slot) + flip_pair_curves(slot))
    if name == "SO9":
        return rotation_curves(slot) + transverse_curves(slot) + flip_pair_curves(slot)
    if name == "SO8":
        return transverse_curves(slot) + flip_pair_curves(slot)
    if name == "SO7":
        return flip_pair_curves(slot)
    if name == "G2":
        return g2_curves(slot)
    if name == "F4":
        out = []
        for sl in range(3):
            out += rotation_curves(sl) + transverse_curves(sl) + flip_pair_curves(sl)
        return out
    out = []
    for sl in range(3):
        out += (boost_curves(sl) + rotation_curves(sl)
                + transverse_curves(sl) + flip_pair_curves(sl))
    return out


# ---------------------------------------------------------------------------
# Lie elements and ranks
# ---------------------------------------------------------------------------

def lie_elements(curves: Sequence) -> list[np.ndarray]:
    """Lie elements of many curves, in stacked passes; see the module docstring.

    Element t is the tangent of curves[t] at 0, right-translated to the
    identity: the central difference (op(c(h)) - op(c(-h)))/2h with
    h = LIE_STEP, times op(c(0))^-1.  The base operator is a group element
    and hence invertible; a singular one raises ValueError.
    """
    h = LIE_STEP
    out = [None] * len(curves)
    pending: dict[tuple, list] = {}  # (depth, slot) -> [(index, (3, depth, n, n, 8) layers)]
    for index, curve in enumerate(curves):
        if isinstance(curve, GeneratorCurve):
            slot, maps = curve.slot, [curve.blocks(t) for t in (h, -h, 0.0)]
        else:  # an opaque callable: its maps' 3x3 layers
            slot, maps = None, [curve(t).layers for t in (h, -h, 0.0)]
        layers = np.array([[M.arr for M in layer_list] for layer_list in maps])
        if slot is None and layers.shape[-3:] != (3, 3, 8):
            raise ValueError("Lie elements need 3x3 layers")
        key = (layers.shape[1], slot)
        pending.setdefault(key, []).append((index, layers))
        if len(pending[key]) == LIE_CHUNK:
            _lie_pass(pending.pop(key), slot, out)
    for (_, slot), chunk in pending.items():
        _lie_pass(chunk, slot, out)
    return out


def _lie_pass(chunk: list, slot: int | None, out: list) -> None:
    """One stacked pass of lie_elements over curves of one depth and slot."""
    stack = np.stack([layers for _, layers in chunk], axis=1)  # (3, C, depth, n, n, 8)
    if slot is not None:
        stack = _embed_arrays(stack, slot)
    plus, minus, base = linear_ops(stack)
    try:
        base_inv = np.linalg.inv(base)
    except np.linalg.LinAlgError as exc:
        raise ValueError("curve(0) is singular; the roster is broken") from exc
    elements = (plus - minus) / (2.0 * LIE_STEP) @ base_inv
    for (index, _), element in zip(chunk, elements):
        out[index] = element


def lie_element(curve) -> np.ndarray:
    """Tangent of one curve at 0, right-translated to the identity (see lie_elements)."""
    return lie_elements([curve])[0]


def _as_elements(items: Sequence) -> list[np.ndarray]:
    """Raw arrays as given and the Lie elements of curves, in the order of items."""
    computed = iter(lie_elements([item for item in items if not isinstance(item, np.ndarray)]))
    return [item if isinstance(item, np.ndarray) else next(computed) for item in items]


def singular_values(items: Sequence) -> np.ndarray:
    """Singular values of the stacked, flattened Lie elements."""
    elements = _as_elements(items)
    stacked = np.stack([el.ravel() for el in elements])
    return np.linalg.svd(stacked, compute_uv=False)


def lie_rank(items: Sequence, rel_tol: float = 1e-6) -> int:
    """Numerical rank: singular values above rel_tol times the largest."""
    return _numerical_rank(singular_values(items), rel_tol)


def rank_gap(items: Sequence, rel_tol: float = 1e-6) -> float:
    """Ratio of the smallest kept to the largest dropped singular value."""
    s = singular_values(items)
    r = _numerical_rank(s, rel_tol)  # 0 when s[0] = 0, and then s[r] = 0
    if r >= len(s) or s[r] == 0.0:
        return np.inf
    return float(s[r - 1] / s[r])


def span_equal(first: Sequence, second: Sequence, rel_tol: float = 1e-6) -> bool:
    """Whether two collections of Lie elements span the same subspace."""
    a = _as_elements(first)
    b = _as_elements(second)
    ra = lie_rank(a, rel_tol)
    rb = lie_rank(b, rel_tol)
    return ra == rb == lie_rank(a + b, rel_tol)


def so8_action_check(q, X: JordanMatrix) -> float:
    """Residual of the slot-0 diag(q, conj(q)) action against its closed form.

    The embedded matrix must act as a -> conj(q) a conj(q), b -> b q,
    c -> q c and leave the diagonal alone.
    """
    qv = _as_coeffs(q)
    if abs(onorm(qv) - 1.0) > 1e-9:
        raise ValueError("so8_action_check requires a unit octonion")
    got = NestedMap.single(embed(OctMatrix.diag(qv, oconj(qv)), 0)).apply(X)
    qc = oconj(qv)
    residual = max(abs(got.p - X.p), abs(got.m - X.m), abs(got.n - X.n))
    residual = max(residual, float(onorm(got.a - omul(omul(qc, X.a), qc))))
    residual = max(residual, float(onorm(got.b - omul(X.b, qv))))
    residual = max(residual, float(onorm(got.c - omul(qv, X.c))))
    return residual
