"""Generator curves for E6 and its subgroups, with numerical rank machinery.

A roster curve is data.  Its layer d at angle t is the 2x2 octonionic
matrix

    c(r_d t) A_d + s(r_d t) B_d

for fixed arrays A and B of shape (depth, 2, 2, 8), one rate r_d per
layer, and one pair (c, s) per curve, its ``kind``:

* ``trig``: (cos, sin), for rotations, transverse phases, flip pairs and
  four-flips.  A constant layer has rate 0, since cos 0 A + sin 0 B = A.
* ``hyperbolic``: (cosh, sinh), for the off-diagonal boosts.
* ``exponential``: (exp x, exp -x), for the diagonal boost, with
  A = diag(1, 0) and B = diag(0, 1).

Per 2x2 block slot the determinant-preserving roster holds 45 curves:

* 1 diagonal boost  diag(e^{t/2}, e^{-t/2})
* 8 off-diagonal boosts  cosh(t/2) I + sinh(t/2) offdiag(e, conj(e)),
  one per basis unit e
* 8 rotations  cos(t/2) I + sin(t/2) offdiag(e, -conj(e))
* 7 transverse rotations  cos t I + sin t diag(s, conj(s)), i.e.
  diag(e^{st}, e^{-st}), one per imaginary unit s
* 21 flip pairs  [s I, (s cos t + u sin t) I] over unordered pairs {s, u}
  of distinct imaginary units (each layer an imaginary multiple of the
  identity, determinant -1)

``layer_arrays(thetas)`` evaluates a curve at many angles in one array
expression; ``blocks(theta)`` gives the 2x2 layers as matrices, and
calling the curve embeds them in the slot's 3x3 block.  ``ROSTERS``
assembles the group rosters from these families: all three slots give E6
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

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .jordan import JordanMatrix
from .octonion import _as_coeffs, _numerical_rank, oconj, omul, onorm
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

# (c, s) of each curve kind: layer d at angle t is c(r_d t) A_d + s(r_d t) B_d
KINDS = {
    "trig": (np.cos, np.sin),
    "hyperbolic": (np.cosh, np.sinh),
    "exponential": (np.exp, lambda x: np.exp(-x)),
}


@dataclass(frozen=True)
class GeneratorCurve:
    """A labeled one-parameter family of nested maps in one 2x2 block slot.

    Layer d at angle t is ``c(rates[d] t) A[d] + s(rates[d] t) B[d]`` with
    (c, s) = ``KINDS[kind]``; A and B are (depth, 2, 2, 8) arrays, made
    read-only, and left out of equality and hashing.  ``blocks(theta)``
    gives the 2x2 layers; calling the curve embeds each of them in
    ``slot`` and returns the 3x3 nested map.
    """

    label: str
    slot: int
    kind: str
    rates: tuple[float, ...]
    A: np.ndarray = field(repr=False, compare=False)
    B: np.ndarray = field(repr=False, compare=False)

    def __post_init__(self):
        self.A.setflags(write=False)
        self.B.setflags(write=False)

    def layer_arrays(self, thetas) -> np.ndarray:
        """The 2x2 layers at every angle, a (len(thetas), depth, 2, 2, 8) array."""
        c, s = KINDS[self.kind]
        x = np.multiply.outer(np.asarray(thetas, dtype=float), self.rates)[..., None, None, None]
        return c(x) * self.A + s(x) * self.B

    def blocks(self, theta: float) -> list[OctMatrix]:
        return [OctMatrix(M) for M in self.layer_arrays([theta])[0]]

    def __call__(self, theta: float) -> NestedMap:
        return NestedMap(_embed_arrays(self.layer_arrays([theta])[0], self.slot))


_UNITS = np.eye(8)  # row k is the basis unit BASIS_UNITS[k]
_UNITS.setflags(write=False)


def _times_identity(values: np.ndarray) -> np.ndarray:
    """values I for a (..., 8) stack of octonions, as a (..., 2, 2, 8) stack."""
    out = np.zeros(values.shape[:-1] + (2, 2, 8))
    out[..., 0, 0, :] = out[..., 1, 1, :] = values
    return out


def _family(name: str, keys, slot: int, kind: str, rates: tuple, A, B) -> list[GeneratorCurve]:
    """One curve per key, labeled name[key,slotN], with layers from A[k] and B[k]."""
    return [GeneratorCurve(f"{name}[{key},slot{slot}]", slot, kind, rates, a, b)
            for key, a, b in zip(keys, A, B)]


def _identity_and_offdiagonal(sign: float) -> tuple[np.ndarray, np.ndarray]:
    """A = I and B = offdiag(e, sign conj(e)) for each basis unit e: depth 1."""
    A, B = np.zeros((2, 8, 1, 2, 2, 8))
    A[..., 0, 0, 0] = A[..., 1, 1, 0] = 1.0
    B[:, 0, 0, 1] = _UNITS
    B[:, 0, 1, 0] = sign * oconj(_UNITS)
    return A, B


def boost_curves(slot: int) -> list[GeneratorCurve]:
    """The 9 boost curves of one slot: Hermitian layers, determinant +1."""
    A, B = np.zeros((2, 1, 2, 2, 8))
    A[0, 0, 0, 0] = B[0, 1, 1, 0] = 1.0
    diagonal = GeneratorCurve(f"boost-diag[slot{slot}]", slot, "exponential", (0.5,), A, B)
    return [diagonal] + _family("boost", BASIS_UNITS, slot, "hyperbolic", (0.5,),
                                *_identity_and_offdiagonal(1.0))


def rotation_curves(slot: int) -> list[GeneratorCurve]:
    """The 8 off-diagonal rotation curves: unitary layers, determinant +1."""
    return _family("rotation", BASIS_UNITS, slot, "trig", (0.5,), *_identity_and_offdiagonal(-1.0))


def transverse_curves(slot: int) -> list[GeneratorCurve]:
    """The 7 diagonal-phase curves diag(e^{st}, e^{-st}); diagonal-preserving."""
    A, B = np.zeros((2, 7, 1, 2, 2, 8))
    A[..., 0, 0, 0] = A[..., 1, 1, 0] = 1.0
    B[:, 0, 0, 0] = _UNITS[1:]
    B[:, 0, 1, 1] = oconj(_UNITS[1:])
    return _family("transverse", IMAGINARY_UNITS, slot, "trig", (1.0,), A, B)


def flip_pair_curves(slot: int) -> list[GeneratorCurve]:
    """The 21 nested flip pairs over unordered pairs of imaginary units."""
    s, u = np.triu_indices(len(IMAGINARY_UNITS), 1)
    S, U = _UNITS[1 + s], _UNITS[1 + u]
    A = _times_identity(np.stack([S, S], axis=1))
    B = _times_identity(np.stack([np.zeros_like(U), U], axis=1))
    keys = [f"{IMAGINARY_UNITS[a]},{IMAGINARY_UNITS[b]}" for a, b in zip(s, u)]
    return _family("flip-pair", keys, slot, "trig", (0.0, 1.0), A, B)


def g2_curves(slot: int = 0) -> list[GeneratorCurve]:
    """Four-flip automorphism curves over all admissible (s, u, w) triples.

    s and u run over ordered pairs of distinct imaginary basis units and w
    over the remaining imaginary basis units (so that s w and u w are again
    imaginary units): 210 curves whose tangents span the full automorphism
    algebra.
    """
    n = len(IMAGINARY_UNITS)
    triples = [(s, u, w) for s in range(n) for u in range(n) if u != s
               for w in range(n) if w not in (s, u)]
    S, U, W = _UNITS[1 + np.array(triples).T]
    A = _times_identity(np.stack([S, S, U, U], axis=1))
    zero = np.zeros_like(S)
    B = _times_identity(np.stack([zero, omul(S, W), zero, -omul(U, W)], axis=1))
    keys = [f"{IMAGINARY_UNITS[s]},{IMAGINARY_UNITS[u]};w={IMAGINARY_UNITS[w]}"
            for s, u, w in triples]
    return _family("four-flip", keys, slot, "trig", (0.0, 1.0, 0.0, 1.0), A, B)


def normalize_group(group: str) -> str:
    """Canonical group key: case-insensitive, punctuation like SO(9,1) allowed."""
    name = group.upper().replace("(", "").replace(")", "").replace(",", "")
    if name not in GROUPS:
        raise ValueError(f"unknown group {group!r}; expected one of {', '.join(GROUPS)}")
    return name


# each group's families, in roster order; E6 and F4 repeat them over slots 0, 1, 2
ROSTERS = {
    "E6": (boost_curves, rotation_curves, transverse_curves, flip_pair_curves),
    "F4": (rotation_curves, transverse_curves, flip_pair_curves),
    "SO91": (boost_curves, rotation_curves, transverse_curves, flip_pair_curves),
    "SO9": (rotation_curves, transverse_curves, flip_pair_curves),
    "SO8": (transverse_curves, flip_pair_curves),
    "SO7": (flip_pair_curves,),
    "G2": (g2_curves,),
}


def roster(group: str, slot: int = 0) -> list[GeneratorCurve]:
    """Generator curves for one of E6, F4, SO91, SO9, SO8, SO7, G2.

    Slot selects the 2x2 block for the single-slot groups; E6 and F4 span
    all three slots.
    """
    name = normalize_group(group)
    if name in SLOT_GROUPS and slot not in (0, 1, 2):
        raise ValueError("slot must be 0, 1 or 2")
    slots = (slot,) if name in SLOT_GROUPS else (0, 1, 2)
    return [curve for sl in slots for family in ROSTERS[name] for curve in family(sl)]


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
            slot, layers = curve.slot, curve.layer_arrays((h, -h, 0.0))
        else:  # an opaque callable: its maps' 3x3 layers
            slot = None
            layers = np.array([curve(t).stack for t in (h, -h, 0.0)])
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


def rank_cut(s: np.ndarray, rank: int) -> tuple[float | None, float | None]:
    """(s[rank - 1], s[rank]): the smallest kept and the largest dropped singular value.

    None stands for a side with no value: nothing kept at rank 0, nothing
    dropped at full rank.
    """
    kept = float(s[rank - 1]) if rank > 0 else None
    dropped = float(s[rank]) if rank < len(s) else None
    return kept, dropped


def rank_gap(items: Sequence, rel_tol: float = 1e-6) -> float:
    """Ratio of the smallest kept to the largest dropped singular value."""
    s = singular_values(items)
    # rank 0 only when s[0] = 0, and then s[0] is dropped
    kept, dropped = rank_cut(s, _numerical_rank(s, rel_tol))
    if not dropped:
        return np.inf
    return kept / dropped


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
