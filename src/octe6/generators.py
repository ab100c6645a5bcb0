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

A roster is a :class:`Roster`, a tuple of families: each ``Family``
holds the K curves of one builder in one slot, with its kind, its rates,
stacked (K, depth, 2, 2, 8) arrays A and B, and labels formatted on
demand.  Indexing and iterating a roster give ``GeneratorCurve``s;
``Roster.layers`` evaluates many (index, angle) pairs with one array
expression per family, and a curve's ``layer_arrays(thetas)`` evaluates
it at many angles; both go through ``_layers``, the one copy of the
layer formula.  Calling a curve embeds its 2x2 layers at one angle in the
slot's 3x3 block (``transform.embed``).  ``ROSTERS`` assembles the group
rosters from the family builders: E6 (135 curves, rank 78) builds one
slot's families once and places them in all three slots, the arrays
shared, and dropping boosts gives the rotation subgroups.  The
automorphism subgroup uses four-flip curves

    [s I, (s cos t + sw sin t) I, u I, (u cos t - uw sin t) I]

whose entrywise action on a Jordan matrix is a single octonion
automorphism.  Of the 210 triples (s, u, w) of distinct imaginary basis
units, 42 give the element 0 and the rest +- one of 21 elements, so the
roster keeps one triple per element (``g2_curves``); the 21 span the
14-dimensional algebra.

A curve's Lie algebra element is the tangent of its 27x27 operator at
t = 0, right-translated to the identity; dimensions are numerical ranks
of the flattened elements over their support columns, the coordinates of
the 729 that some element uses (G2's 21 elements use 126, E6's 675).
Roster layers have entries in {0, +-1} and rates in {0, 1/2, 1}, so the
elements are exact half-integer matrices.
Inside one slot the 27 coordinates split as 10 + 16 + 1 under the double
cover of SO(9,1): the 2x2 Hermitian block (vectors), the Cayley-spinor
column beside it and the corner.  A 2x2 block embedded in a slot acts on
the 10 as the 2x2 layered action, on the 16 by left multiplication and as
1 on the corner, so an element is computed as its 10x10 and 16x16 parts
and placed into 27x27 once, at the end, with the corner 0.  Each part is
the sum, over the curve's moving layers d (r_d != 0), of
Q_d (L'_d L_d^T) Q_d^T: L_d is the part's operator of M_d at t = 0, a
signed permutation, Q_d the product of the operators of the layers
outside d, and L'_d = (op(M_d + M'_d) - op(M_d - M'_d)) / 2 the layer's
tangent, exact because a layer is quadratic in M_d (M'_d from ``JETS``).
Layers inside the innermost moving one drop out.  Roster blocks repeat
heavily (G2's 21 curves have 48 distinct blocks M_d, M_d +- M'_d; E6's
three slots share 97), so ``lie_elements`` keeps each distinct block once
and acts with all of them by one ``linear_ops`` and one ``omatmul`` call.
The work runs in one pass per rates tuple, over the stacked arrays of its
families, and writes every curve's two parts into one (N, 356) array.
The parts do not depend on the slot, so families that share their arrays,
as E6's and F4's three slots do, are worked out once and their rows
repeated; the elements are exact, so the rows keep their bits.  A list of
curves takes the same path as one family per curve.  A scatter per slot
places the parts: into one (N, 27, 27) stack for ``lie_elements``, and for
``singular_values`` straight into the columns that some element uses, the
one copy of the elements that the SVD reads.
"""

from __future__ import annotations

import operator
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from itertools import accumulate

import numpy as np

from .jordan import JordanMatrix, hermitian_vectors
from .octonion import _as_coeffs, _numerical_rank, oconj, omatmul, omul, onorm, signed_table
from .transform import NestedMap, _hermitian_basis, embed, linear_ops

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

# (c, s) of each curve kind: layer d at angle t is c(r_d t) A_d + s(r_d t) B_d
KINDS = {
    "trig": (np.cos, np.sin),
    "hyperbolic": (np.cosh, np.sinh),
    "exponential": (np.exp, lambda x: np.exp(-x)),
}

# ((c, s)(0), (c', s')(0)) of each curve kind
JETS = {"trig": ((1, 0), (0, 1)), "hyperbolic": ((1, 0), (0, 1)), "exponential": ((1, 1), (1, -1))}


def _layers(kind: str, rates: tuple, A: np.ndarray, B: np.ndarray, thetas) -> np.ndarray:
    """c(r_d t) A_d + s(r_d t) B_d at angles t, with (c, s) = ``KINDS[kind]``: the one layer formula.

    Gives (len(thetas), depth, 2, 2, 8): against one curve's (depth, 2, 2, 8)
    A and B every layer at each angle, against a (len(thetas), depth, 2, 2, 8)
    stack of curves curve p's layers at thetas[p].
    """
    c, s = KINDS[kind]
    x = np.multiply.outer(np.asarray(thetas, dtype=float), rates)[..., None, None, None]
    return c(x) * A + s(x) * B


@dataclass(frozen=True)
class GeneratorCurve:
    """A labeled one-parameter family of nested maps in one 2x2 block slot.

    Layer d at angle t is ``c(rates[d] t) A[d] + s(rates[d] t) B[d]`` with
    (c, s) = ``KINDS[kind]``; A and B are (depth, 2, 2, 8) arrays, made
    read-only, and left out of equality and hashing.  Calling the curve
    embeds each of its 2x2 layers in ``slot`` and returns the 3x3 nested
    map.
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
        return _layers(self.kind, self.rates, self.A, self.B, thetas)

    def __call__(self, theta: float) -> NestedMap:
        return NestedMap(embed(self.layer_arrays([theta])[0], self.slot))


@dataclass(frozen=True)
class Family:
    """K curves of one kind and rates tuple in one slot, held as stacked arrays.

    Curve k has layers from A[k] and B[k], of the read-only
    (K, depth, 2, 2, 8) arrays A and B, and the label
    ``label.format(keys[k], slot)``.  Families that hold the same arrays
    in different slots share them.
    """

    label: str
    keys: tuple[str, ...]
    slot: int
    kind: str
    rates: tuple[float, ...]
    A: np.ndarray = field(repr=False, compare=False)
    B: np.ndarray = field(repr=False, compare=False)

    def __post_init__(self):
        self.A.setflags(write=False)
        self.B.setflags(write=False)

    @property
    def labels(self) -> list[str]:
        return [self.label.format(key, self.slot) for key in self.keys]

    def curve(self, k: int) -> GeneratorCurve:
        return GeneratorCurve(self.label.format(self.keys[k], self.slot), self.slot, self.kind,
                              self.rates, self.A[k], self.B[k])


class Roster(Sequence):
    """Generator curves held as families, in order; see the module docstring.

    Indexing and iteration give ``GeneratorCurve``s (a slice a list of
    them), built on demand; ``layers`` evaluates many (index, angle) pairs
    with one expression per family, and ``lie_elements`` reads the
    families as they are.  A roster plus a roster or a list of curves is
    a roster.
    """

    def __init__(self, families=()):
        self.families = tuple(families)
        self._ends = list(accumulate(len(family.A) for family in self.families))  # one past each family

    @classmethod
    def of(cls, curves) -> "Roster":
        """A roster as it is; any other sequence of curves as one family per curve."""
        if isinstance(curves, Roster):
            return curves
        families = []
        for curve in curves:
            if not isinstance(curve, GeneratorCurve):
                raise TypeError(f"a roster holds GeneratorCurve items, not {type(curve).__name__}")
            label = curve.label.replace("{", "{{").replace("}", "}}")
            families.append(Family(label, ("",), curve.slot, curve.kind, curve.rates,
                                   curve.A[None], curve.B[None]))
        return cls(families)

    def __len__(self) -> int:
        return self._ends[-1] if self._ends else 0

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        i = operator.index(index)
        i += len(self) if i < 0 else 0
        if not 0 <= i < len(self):
            raise IndexError("roster index out of range")
        f = bisect_right(self._ends, i)
        family = self.families[f]
        return family.curve(i - self._ends[f] + len(family.A))

    def __iter__(self):
        for family in self.families:
            yield from map(family.curve, range(len(family.A)))

    def __add__(self, other) -> "Roster":
        return Roster(self.families + Roster.of(other).families)

    def layers(self, indices, thetas):
        """Curve indices[p]'s 2x2 layers at thetas[p], one expression per family touched.

        Yields (family, positions, layers) per family in roster order: the
        positions p whose curve lies in the family, and their
        (len(positions), depth, 2, 2, 8) layers, each bit for bit the
        curve's ``layer_arrays([thetas[p]])[0]``.
        """
        indices, thetas = np.asarray(indices, dtype=int), np.asarray(thetas, dtype=float)
        if indices.size and not 0 <= indices.min() <= indices.max() < len(self):
            raise IndexError("roster index out of range")
        which = np.searchsorted(self._ends, indices, side="right")
        for f in sorted(set(which.tolist())):
            family, at = self.families[f], np.flatnonzero(which == f)
            rows = indices[at] - self._ends[f] + len(family.A)
            yield family, at, _layers(family.kind, family.rates, family.A[rows], family.B[rows], thetas[at])


_UNITS = np.eye(8)  # row k is the basis unit BASIS_UNITS[k]
_UNITS.setflags(write=False)


def _times_identity(values: np.ndarray) -> np.ndarray:
    """values I for a (..., 8) stack of octonions, as a (..., 2, 2, 8) stack."""
    out = np.zeros(values.shape[:-1] + (2, 2, 8))
    out[..., 0, 0, :] = out[..., 1, 1, :] = values
    return out


def _family(name: str, keys, slot: int, kind: str, rates: tuple, A, B) -> Roster:
    """One curve per key, labeled name[key,slotN], with layers from A[k] and B[k]."""
    return Roster((Family(name + "[{},slot{}]", tuple(keys), slot, kind, rates, A, B),))


def _identity_and_offdiagonal(sign: float) -> tuple[np.ndarray, np.ndarray]:
    """A = I and B = offdiag(e, sign conj(e)) for each basis unit e: depth 1."""
    A, B = np.zeros((2, 8, 1, 2, 2, 8))
    A[..., 0, 0, 0] = A[..., 1, 1, 0] = 1.0
    B[:, 0, 0, 1] = _UNITS
    B[:, 0, 1, 0] = sign * oconj(_UNITS)
    return A, B


def boost_curves(slot: int) -> Roster:
    """The 9 boost curves of one slot: Hermitian layers, determinant +1."""
    A, B = np.zeros((2, 1, 1, 2, 2, 8))
    A[0, 0, 0, 0, 0] = B[0, 0, 1, 1, 0] = 1.0
    diagonal = Roster((Family("boost-diag[slot{1}]", ("",), slot, "exponential", (0.5,), A, B),))
    return diagonal + _family("boost", BASIS_UNITS, slot, "hyperbolic", (0.5,),
                              *_identity_and_offdiagonal(1.0))


def rotation_curves(slot: int) -> Roster:
    """The 8 off-diagonal rotation curves: unitary layers, determinant +1."""
    return _family("rotation", BASIS_UNITS, slot, "trig", (0.5,), *_identity_and_offdiagonal(-1.0))


def transverse_curves(slot: int) -> Roster:
    """The 7 diagonal-phase curves diag(e^{st}, e^{-st}); diagonal-preserving."""
    A, B = np.zeros((2, 7, 1, 2, 2, 8))
    A[..., 0, 0, 0] = A[..., 1, 1, 0] = 1.0
    B[:, 0, 0, 0] = _UNITS[1:]
    B[:, 0, 1, 1] = oconj(_UNITS[1:])
    return _family("transverse", IMAGINARY_UNITS, slot, "trig", (1.0,), A, B)


def flip_pair_curves(slot: int) -> Roster:
    """The 21 nested flip pairs over unordered pairs of imaginary units."""
    s, u = np.triu_indices(len(IMAGINARY_UNITS), 1)
    S, U = _UNITS[1 + s], _UNITS[1 + u]
    A = _times_identity(np.stack([S, S], axis=1))
    B = _times_identity(np.stack([np.zeros_like(U), U], axis=1))
    keys = [f"{IMAGINARY_UNITS[a]},{IMAGINARY_UNITS[b]}" for a, b in zip(s, u)]
    return _family("flip-pair", keys, slot, "trig", (0.0, 1.0), A, B)


def g2_curves(slot: int = 0) -> Roster:
    """The 21 four-flip automorphism curves with distinct Lie elements.

    The six imaginary units other than w lie on three lines {x, x w}.  A
    triple (s, u, w) with s and u on one line has element 0, and every s
    on one line with u on another gives +- the same element, so one triple
    per pair of lines is kept: s < u, each the smaller unit of its line.
    Their 21 elements span the 14-dimensional automorphism algebra.
    """
    n = len(IMAGINARY_UNITS)
    times = (np.abs(signed_table()[1:, 1:]) - 2).tolist()  # times[s][w]: IMAGINARY_UNITS index of +-e_s e_w
    triples = [(s, u, w) for s in range(n) for u in range(s + 1, n)
               for w in range(n) if w not in (s, u) and s < times[s][w] and u < times[u][w]]
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


def roster(group: str, slot: int = 0) -> Roster:
    """Generator curves for one of E6, F4, SO91, SO9, SO8, SO7, G2.

    Slot selects the 2x2 block for the single-slot groups; E6 and F4 span
    all three slots, with one slot's families built once and placed in
    each, their arrays shared.
    """
    name = normalize_group(group)
    if name in SLOT_GROUPS and slot not in (0, 1, 2):
        raise ValueError("slot must be 0, 1 or 2")
    slots = (slot,) if name in SLOT_GROUPS else (0, 1, 2)
    families = [family for build in ROSTERS[name] for family in build(slots[0]).families]
    return Roster(family if family.slot == sl else replace(family, slot=sl)
                  for sl in slots for family in families)


# ---------------------------------------------------------------------------
# Lie elements and ranks
# ---------------------------------------------------------------------------

def lie_elements(curves: Sequence[GeneratorCurve]) -> list[np.ndarray]:
    """Lie elements of a roster or a list of curves, one pass per rates tuple; see the module docstring.

    Element t is the tangent of curves[t] at 0, right-translated to the
    identity, a (27, 27) view into one (N, 27, 27) stack.  A layer whose op
    at 0 is not orthogonal bit for bit raises ValueError, an item that is
    not a GeneratorCurve TypeError.
    """
    parts, slots = _element_parts(curves)
    return list(_place(parts, slots, np.arange(27 * 27), 27 * 27).reshape(len(parts), 27, 27))


def _element_parts(curves: Sequence[GeneratorCurve]) -> tuple[np.ndarray, np.ndarray]:
    """Each curve's 10x10 and 16x16 parts, flattened side by side in one (N, 356) array, and its slot.

    The parts of a Lie element are all of it but zeros (see the module
    docstring); ``_place`` puts them into 27x27 form.  They do not depend
    on the slot, so families that hold the same arrays, as the three slots
    of E6 and F4 do, are worked out once and their rows repeated.
    """
    families = Roster.of(curves).families
    first: dict[tuple, int] = {}  # (kind, rates, ids of A and B) of each distinct family -> its first row
    groups: dict[tuple, list] = {}  # rates -> (first row, family) of its distinct families
    order, slots, count = [], [], 0  # per curve: its row among the distinct families' rows, and its slot
    for family in families:
        key = (family.kind, family.rates, id(family.A), id(family.B))
        if key not in first:
            first[key] = count
            groups.setdefault(family.rates, []).append((count, family))
            count += len(family.A)
        order += range(first[key], first[key] + len(family.A))
        slots += [family.slot] * len(family.A)
    blocks: dict[bytes, int] = {}  # each distinct 2x2 block -> its index
    chains = []  # per rates: rows, rates and (C, depth, 3) block indices, outermost layer first
    for rates, members in groups.items():
        A, B = (np.concatenate([getattr(f, name) for _, f in members]) for name in "AB")
        rows = np.concatenate([np.arange(start, start + len(f.A)) for start, f in members])
        jets = np.repeat([JETS[f.kind] for _, f in members], [len(f.A) for _, f in members], axis=0)
        (c0, s0), (c1, s1) = jets.astype(float).transpose(1, 2, 0)[..., None, None, None, None]
        M = c0 * A + s0 * B
        dM = np.array(rates)[:, None, None, None] * (c1 * A + s1 * B)
        data, size = np.stack([M, M + dM, M - dM], axis=2).tobytes(), 32 * M.itemsize  # M_d, M_d +- M'_d
        ids = [blocks.setdefault(data[at:at + size], len(blocks)) for at in range(0, len(data), size)]
        chains.append((rows, rates[::-1], np.array(ids, dtype=int).reshape(len(A), len(rates), 3)[:, ::-1]))
    distinct = np.frombuffer(b"".join(blocks)).reshape(-1, 2, 2, 8)
    # each distinct block's action on the 10 of the 2x2 block and on the 16 of the column beside it
    ops = (linear_ops(distinct[:, None]),
           omatmul(distinct, _COLUMN_BASIS).transpose(0, 1, 3, 2).reshape(-1, 16, 16))
    # every layer's M_d, inner layers included; np.unique would import numpy.ma on first use
    bases = sorted({b for *_, ids in chains for b in ids[..., 0].ravel().tolist()})
    for L in (op[bases] for op in ops):
        if not (L @ L.swapaxes(-1, -2) == np.eye(L.shape[-1])).all():
            raise ValueError("a layer's op at 0 is not orthogonal; the roster is broken")
    parts = np.zeros((count, 10 * 10 + 16 * 16))
    for rows, rates, ids in chains:
        moving = [level for level, rate in enumerate(rates) if rate]
        for op, columns in zip(ops, (slice(0, 100), slice(100, 356))):
            n = op.shape[-1]
            E, Q = np.zeros((len(rows), n, n)), None  # the part; product of the ops of the levels before
            for level in range(moving[-1] + 1 if moving else 0):
                base, plus, minus = op[ids[:, level].T]
                if rates[level]:
                    t = (plus - minus) / 2.0 @ base.swapaxes(-1, -2)
                    E += t if Q is None else Q @ t @ Q.swapaxes(-1, -2)
                if level < moving[-1]:
                    Q = base if Q is None else Q @ base
            parts[rows, columns] = E.reshape(len(rows), n * n)
    return (parts if len(parts) == len(order) else parts[order]), np.array(slots, dtype=int)


def _place(parts: np.ndarray, slots: np.ndarray, columns: np.ndarray, width: int) -> np.ndarray:
    """(N, width) rows: row t the flattened 27x27 matrix acting on slot slots[t] as the parts in parts[t].

    Entry (r, c) of the matrix lands in column columns[27 r + c]; columns
    that no entry of the slot's 10x10 and 16x16 blocks lands in hold 0.
    """
    out = np.zeros((len(parts), width))
    for slot in set(slots.tolist()):
        rows = np.flatnonzero(slots == slot)
        values = parts[rows]
        values *= _PART_SIGNS[slot]
        values += 0.0  # turns the -0.0 of a negative sign into 0.0
        out[rows[:, None], columns[_PART_POSITIONS[slot]]] = values
    return out


def _slot_layout(slot: int) -> tuple[np.ndarray, np.ndarray]:
    """Where the 27 block coordinates of a slot land among the Jordan coordinates, and their signs.

    Block coordinates: the 10 of the 2x2 block, the 16 of the column beside
    it (entry i, coefficient k at 10 + 8 i + k) and the corner.
    """
    basis = np.zeros((27, 3, 3, 8))
    basis[:10, :2, :2] = _hermitian_basis(2)
    column = np.eye(16).reshape(16, 2, 8)
    basis[10:26, :2, 2] = column
    basis[10:26, 2, :2] = oconj(column)
    basis[26, 2, 2, 0] = 1.0
    idx = (np.arange(3) + slot) % 3  # as embed places the block
    V = hermitian_vectors(basis[:, idx[:, None], idx])
    place = np.abs(V).argmax(axis=1)
    return place, V[np.arange(27), place]


_SLOT_LAYOUTS = tuple(_slot_layout(slot) for slot in range(3))


def _part_layout(slot: int) -> tuple[np.ndarray, np.ndarray]:
    """Where each of the 356 part entries of a slot lands in a flattened 27x27 element, and its sign."""
    place, signs = _SLOT_LAYOUTS[slot]
    # entry (t, u) of a part lands at (place[t], place[u]) with sign signs[t] signs[u]
    blocks = (slice(0, 10), slice(10, 26))
    return (np.concatenate([(27 * place[b, None] + place[b]).ravel() for b in blocks]),
            np.concatenate([(signs[b, None] * signs[b]).ravel() for b in blocks]))


# row s: the positions and signs of _part_layout(s)
_PART_POSITIONS, _PART_SIGNS = map(np.stack, zip(*(_part_layout(slot) for slot in range(3))))

# column t of the (2, 16, 8) matrix is the basis spinor with coefficient 1 at (t // 8, t % 8)
_COLUMN_BASIS = np.eye(16).reshape(16, 2, 8).transpose(1, 0, 2)
_COLUMN_BASIS.setflags(write=False)


def lie_element(curve) -> np.ndarray:
    """Tangent of one curve at 0, right-translated to the identity (see lie_elements)."""
    return lie_elements([curve])[0]


def _as_elements(items: Sequence) -> list[np.ndarray]:
    """Raw arrays as given and the Lie elements of curves, in the order of items."""
    computed = iter(lie_elements([item for item in items if not isinstance(item, np.ndarray)]))
    return [item if isinstance(item, np.ndarray) else next(computed) for item in items]


def singular_values(items: Sequence) -> np.ndarray:
    """Singular values of the stacked, flattened Lie elements over their support columns.

    Columns that are zero in every element change no nonzero singular
    value, so they are dropped first: min(n, support) values for n items.
    The SVD runs on the transpose, support rows by n columns, whose
    singular values are the same and which LAPACK takes faster.
    """
    return np.linalg.svd(_support_rows(items).T, compute_uv=False)


def _support_rows(items: Sequence) -> np.ndarray:
    """The flattened elements of items, one row each, over the columns that some element uses.

    A roster or a list of curves alone places its elements' parts straight into those
    columns, with no (N, 27, 27) stack: a column is used where some part
    entry landing there is nonzero, and the unused ones go to one spare
    column, left out of the view returned.
    """
    if not isinstance(items, Roster) and not all(isinstance(item, GeneratorCurve) for item in items):
        stacked = np.stack([el.ravel() for el in _as_elements(items)])
        return stacked[:, stacked.any(axis=0)]
    parts, slots = _element_parts(items)
    used = np.zeros(27 * 27, dtype=bool)
    nonzero = parts != 0
    for slot in set(slots.tolist()):
        used[_PART_POSITIONS[slot][nonzero[slots == slot].any(axis=0)]] = True
    support = int(used.sum())
    columns = np.where(used, np.cumsum(used) - 1, support)
    return _place(parts, slots, columns, support + 1)[:, :support]


def lie_rank(items: Sequence, rel_tol: float = 1e-6) -> int:
    """Numerical rank: singular values above rel_tol times the largest."""
    return _numerical_rank(singular_values(items), rel_tol)


def rank_cut(s: np.ndarray, rel_tol: float) -> tuple[int, float | None, float | None]:
    """(rank, s[rank - 1], s[rank]) of descending singular values s cut at rel_tol.

    The rank is ``octonion._numerical_rank``'s; the other two are the
    smallest kept and the largest dropped singular value, None for a side
    with no value: nothing kept at rank 0, nothing dropped at full rank
    (or when s is empty, as for items that are all zero).
    """
    rank = _numerical_rank(s, rel_tol)
    kept = float(s[rank - 1]) if rank > 0 else None
    dropped = float(s[rank]) if rank < len(s) else None
    return rank, kept, dropped


def rank_gap(items: Sequence, rel_tol: float = 1e-6) -> float:
    """Ratio of the smallest kept to the largest dropped singular value."""
    _, kept, dropped = rank_cut(singular_values(items), rel_tol)
    # 0.0 when nothing is kept; inf when nothing, or only zeros, are dropped
    if kept is None:
        return 0.0
    return kept / dropped if dropped else np.inf


def span_equal(first: Sequence, second: Sequence, rel_tol: float = 1e-6) -> bool:
    """Whether two collections of Lie elements span the same subspace."""
    a, b = _as_elements(first), _as_elements(second)
    return lie_rank(a, rel_tol) == lie_rank(b, rel_tol) == lie_rank(a + b, rel_tol)


def so8_action_check(q, X: JordanMatrix) -> float:
    """Residual of the slot-0 diag(q, conj(q)) action against its closed form.

    The embedded matrix must act as a -> conj(q) a conj(q), b -> b q,
    c -> q c and leave the diagonal alone.
    """
    qv = _as_coeffs(q)
    if abs(onorm(qv) - 1.0) > 1e-9:
        raise ValueError("so8_action_check requires a unit octonion")
    qc = oconj(qv)
    block = np.zeros((2, 2, 8))
    block[0, 0], block[1, 1] = qv, qc
    got = NestedMap.single(embed(block, 0)).apply(X)
    residual = max(abs(got.p - X.p), abs(got.m - X.m), abs(got.n - X.n))
    residual = max(residual, float(onorm(got.a - omul(omul(qc, X.a), qc))))
    residual = max(residual, float(onorm(got.b - omul(X.b, qv))))
    residual = max(residual, float(onorm(got.c - omul(qv, X.c))))
    return residual
