"""Octonionic matrices as transformations of Hermitian matrices and spinors.

Because octonionic matrices do not associate, a group element is kept as a
:class:`NestedMap`, an ordered list of layers applied strictly inside out:

    apply(X) = M_k ( ... (M_1 X M_1^dagger) ... ) M_k^dagger

Within one layer the pairing is fixed as (M X) M^dagger; for layers passing
the well-definedness predicate the other pairing agrees.  The module also
provides the spinor action (layered left multiplication), the complexity /
well-definedness / compatibility predicates that delimit the usable
matrices, the three 2x2 -> 3x3 block embeddings (cyclic index shifts, i.e.
conjugations by the cyclic permutation matrix), and the 27x27 real matrix
of a nested map's action on the Jordan coordinates.

Every action is the batched ``omatmul``: the 27x27 matrix acts on the stack
of the 27 Jordan basis matrices, the predicates on stacked Hermitian bases
and spinor columns.  ``linear_ops`` does the same for a stack of nested maps
of one depth, given as their layer arrays, pairing each map with its own
copy of the basis by ``omatmul``'s prefix-batch rule.
"""

from __future__ import annotations

import functools
import numbers

import numpy as np

from .jordan import _Hermitian, hermitian_arrays, hermitian_vectors
from .octonion import (
    Octonion,
    _as_coeffs,
    imaginary_rank,
    odagger,
    omatmul,
    omul,
    onorm,
)

# seed for the random spinor columns used by the compatibility predicate
COMPATIBILITY_SEED = 20107


class OctMatrix:
    """Square octonionic matrix stored as an immutable (n, n, 8) array."""

    __slots__ = ("arr",)

    def __init__(self, arr):
        a = np.array(arr, dtype=float)
        if a.ndim != 3 or a.shape[0] != a.shape[1] or a.shape[2] != 8:
            raise ValueError(f"expected an (n, n, 8) array, got shape {a.shape}")
        a.setflags(write=False)
        self.arr = a

    @classmethod
    def identity(cls, n: int) -> "OctMatrix":
        arr = np.zeros((n, n, 8))
        for d in range(n):
            arr[d, d, 0] = 1.0
        return cls(arr)

    @classmethod
    def zero(cls, n: int) -> "OctMatrix":
        return cls(np.zeros((n, n, 8)))

    @classmethod
    def from_rows(cls, rows) -> "OctMatrix":
        """Build from nested entries: Octonion, 8-vector, or real scalar."""
        n = len(rows)
        arr = np.zeros((n, n, 8))
        for r, row in enumerate(rows):
            if len(row) != n:
                raise ValueError("matrix rows must be square")
            for c, entry in enumerate(row):
                if isinstance(entry, numbers.Real):
                    arr[r, c, 0] = float(entry)
                else:
                    arr[r, c] = _as_coeffs(entry)
        return cls(arr)

    @classmethod
    def diag(cls, *entries) -> "OctMatrix":
        n = len(entries)
        arr = np.zeros((n, n, 8))
        for d, entry in enumerate(entries):
            if isinstance(entry, numbers.Real):
                arr[d, d, 0] = float(entry)
            else:
                arr[d, d] = _as_coeffs(entry)
        return cls(arr)

    @property
    def n(self) -> int:
        return self.arr.shape[0]

    def entry(self, r: int, c: int) -> Octonion:
        return Octonion(self.arr[r, c])

    def dagger(self) -> "OctMatrix":
        return OctMatrix(odagger(self.arr))

    @property
    def norm(self) -> float:
        return float(np.sqrt(np.sum(self.arr**2)))

    def __matmul__(self, other):
        if isinstance(other, OctMatrix):
            if other.n != self.n:
                raise ValueError("matrix dimensions differ")
            return OctMatrix(omatmul(self.arr, other.arr))
        return NotImplemented

    def __add__(self, other):
        if isinstance(other, OctMatrix):
            return OctMatrix(self.arr + other.arr)
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, OctMatrix):
            return OctMatrix(self.arr - other.arr)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, numbers.Real):
            return OctMatrix(self.arr * float(other))
        return NotImplemented

    __rmul__ = __mul__

    def __neg__(self):
        return OctMatrix(-self.arr)

    def isclose(self, other: "OctMatrix", tol: float = 1e-12) -> bool:
        return bool(np.allclose(self.arr, other.arr, atol=tol, rtol=0.0))

    def __repr__(self):
        return f"OctMatrix(n={self.n})"


def cyclic_permutation() -> OctMatrix:
    """The 3x3 cyclic permutation matrix; its inverse is its square and dagger."""
    arr = np.zeros((3, 3, 8))
    arr[0, 1, 0] = arr[1, 2, 0] = arr[2, 0, 0] = 1.0
    return OctMatrix(arr)


class NestedMap:
    """Ordered layers of octonionic matrices applied inside out."""

    __slots__ = ("layers",)

    def __init__(self, layers):
        layers = tuple(layers)
        if not layers:
            raise ValueError("a nested map needs at least one layer")
        dim = layers[0].n
        if any(layer.n != dim for layer in layers):
            raise ValueError("all layers must share one dimension")
        self.layers = layers

    @classmethod
    def single(cls, M: OctMatrix) -> "NestedMap":
        return cls((M,))

    @property
    def dim(self) -> int:
        return self.layers[0].n

    def compose(self, other: "NestedMap") -> "NestedMap":
        """This map first, then the other: concatenation of layers."""
        if other.dim != self.dim:
            raise ValueError("cannot compose maps of different dimension")
        return NestedMap(self.layers + other.layers)

    def apply_array(self, X: np.ndarray) -> np.ndarray:
        """Raw layered action on a (..., n, n, 8) stack, no Hermitian read-off."""
        X = np.asarray(X, dtype=float)
        if X.shape[-3:] != (self.dim, self.dim, 8):
            raise ValueError("operand dimension does not match the map")
        return _act([M.arr for M in self.layers], X)

    def apply(self, X):
        """Act on a JordanMatrix (3x3 maps) or Hermitian2 (2x2 maps)."""
        if not isinstance(X, _Hermitian):
            raise TypeError("apply expects a JordanMatrix or Hermitian2")
        if X.SIZE != self.dim:
            raise ValueError(f"a {X.SIZE}x{X.SIZE} operand needs {X.SIZE}x{X.SIZE} layers")
        return X.from_array(self.apply_array(X.to_array()), check=False)

    def apply_spinor(self, v: np.ndarray) -> np.ndarray:
        """Layered left multiplication on a 2-component octonion column."""
        if self.dim != 2:
            raise ValueError("the spinor action needs 2x2 layers")
        v = np.asarray(v, dtype=float).reshape(2, 1, 8)
        for M in self.layers:
            v = omatmul(M.arr, v)
        return v[:, 0]

    def as_linear_op(self) -> np.ndarray:
        """27x27 real matrix: column t is the image of Jordan basis element t."""
        return linear_ops(np.stack([M.arr for M in self.layers]))

    def __repr__(self):
        return f"NestedMap(dim={self.dim}, depth={len(self.layers)})"


def _act(layers, X: np.ndarray) -> np.ndarray:
    """Layers applied inside out, X -> (M X) M^dagger for each M in turn.

    A stacked layer pairs with the items of X by omatmul's prefix rule.
    """
    for M in layers:
        X = omatmul(omatmul(M, X), odagger(M))
    return X


def linear_ops(layers: np.ndarray) -> np.ndarray:
    """27x27 operators of stacked nested maps, (..., depth, 3, 3, 8) -> (..., 27, 27).

    Item P of the stack is the map whose layers are ``layers[P]``; its
    operator's column t is the image of Jordan basis element t.  All maps
    act on the 27 basis matrices together, one omatmul per side per layer.
    """
    if layers.shape[-3:] != (3, 3, 8):
        raise ValueError("the 27-coordinate operator needs 3x3 layers")
    basis = np.broadcast_to(_hermitian_basis(3), layers.shape[:-4] + (27, 3, 3, 8))
    X = _act([layers[..., d, :, :, :] for d in range(layers.shape[-4])], basis)
    return np.swapaxes(hermitian_vectors(X), -1, -2)


# ---------------------------------------------------------------------------
# predicates
# ---------------------------------------------------------------------------

@functools.cache
def _hermitian_basis(n: int) -> np.ndarray:
    """The n x n Hermitian coordinate matrices, stacked in vector order (read-only)."""
    basis = hermitian_arrays(np.eye(n * (4 * n - 3)), n)  # n reals, 8 per stored entry
    basis.setflags(write=False)
    return basis


def is_welldefined(M: OctMatrix, tol: float = 1e-9) -> tuple[bool, float]:
    """Whether M(X M^dagger) = (M X) M^dagger on a basis of Hermitian X."""
    Ma, Mh = M.arr, odagger(M.arr)
    X = _hermitian_basis(M.n)
    left = omatmul(Ma, omatmul(X, Mh))
    right = omatmul(omatmul(Ma, X), Mh)
    residual = float(np.abs(left - right).max())
    return residual <= tol * max(1.0, M.norm**2), residual


@functools.cache
def _spinor_samples() -> tuple[np.ndarray, np.ndarray]:
    """The 48 sampled spinor columns v, (48, 2, 1, 8), and their squares v v^dagger.

    Built on first use, so that importing the package does not load numpy.random.
    """
    seeded = np.random.default_rng(COMPATIBILITY_SEED).standard_normal((32, 16))
    seeded /= onorm(seeded)[:, None]
    columns = np.concatenate((np.eye(16), seeded)).reshape(48, 2, 1, 8)
    squares = omul(columns, odagger(columns))
    columns.setflags(write=False)
    squares.setflags(write=False)
    return columns, squares


def is_compatible(M: OctMatrix, tol: float = 1e-9) -> tuple[bool, float]:
    """Whether (Mv)(Mv)^dagger = M(v v^dagger)M^dagger over sampled spinors v.

    Samples the 16 standard basis columns plus 32 seeded unit columns.
    """
    if M.n != 2:
        raise ValueError("compatibility is a predicate on 2x2 matrices")
    columns, squares = _spinor_samples()
    Ma, Mh = M.arr, odagger(M.arr)
    W = omatmul(Ma, columns)
    lhs = omul(W, odagger(W))
    rhs = omatmul(omatmul(Ma, squares), Mh)
    residual = float(np.abs(lhs - rhs).max())
    return residual <= tol * max(1.0, M.norm**2), residual


def is_complex(M: OctMatrix, rel_tol: float = 1e-9) -> bool:
    """Whether all entries lie in one complex subalgebra of the octonions."""
    return imaginary_rank(M.arr.reshape(-1, 8), rel_tol) <= 1


def complex_det(M: OctMatrix, tol: float = 1e-9) -> tuple[Octonion, bool]:
    """Classical determinant of a complex matrix, with a realness verdict.

    The entries are mapped into the complex plane spanned by 1 and their
    shared imaginary direction; the determinant is computed there and
    mapped back.  Raises on non-complex input.
    """
    if not is_complex(M, tol):
        raise ValueError("complex_det requires a complex matrix")
    ims = M.arr.reshape(-1, 8)[:, 1:]
    norms = np.linalg.norm(ims, axis=1)
    if norms.max() == 0.0:
        direction = np.zeros(7)
        direction[0] = 1.0
    else:
        direction = ims[int(np.argmax(norms))]
        direction = direction / np.linalg.norm(direction)
    plane = M.arr[..., 0] + 1j * (M.arr[..., 1:] @ direction)
    det = complex(np.linalg.det(plane))
    coeffs = np.concatenate(([det.real], det.imag * direction))
    is_real = abs(det.imag) <= tol * max(1.0, abs(det))
    return Octonion(coeffs), is_real


# ---------------------------------------------------------------------------
# block embeddings
# ---------------------------------------------------------------------------

def embed(M: OctMatrix, slot: int) -> OctMatrix:
    """Place a 2x2 matrix in a 3x3 block, with 1 in the remaining corner.

    Slot 0 is the upper-left block.  Slots are cyclic index shifts: slot s
    is the slot-0 embedding conjugated s times by the cyclic permutation T,
    whose effect is to read row and column i from index (i + s) mod 3.
    """
    return OctMatrix(_embed_arrays(M.arr, slot))


def _embed_arrays(blocks: np.ndarray, slot: int) -> np.ndarray:
    """embed on a (..., 2, 2, 8) stack of block arrays, giving (..., 3, 3, 8)."""
    if blocks.shape[-3:] != (2, 2, 8):
        raise ValueError("embed expects a 2x2 matrix")
    if slot not in (0, 1, 2):
        raise ValueError("slot must be 0, 1 or 2")
    arr = np.zeros(blocks.shape[:-3] + (3, 3, 8))
    arr[..., :2, :2, :] = blocks
    arr[..., 2, 2, 0] = 1.0
    idx = (np.arange(3) + slot) % 3
    return arr[..., idx[:, None], idx, :]


def nested_map_to_json(nm: NestedMap) -> list:
    """Layer list; each layer is an n x n grid of 8-coefficient lists."""
    return [
        [[layer.arr[r, c].tolist() for c in range(layer.n)] for r in range(layer.n)]
        for layer in nm.layers
    ]


def nested_map_from_json(data: list) -> NestedMap:
    layers = []
    for layer in data:
        n = len(layer)
        arr = np.zeros((n, n, 8))
        for r in range(n):
            if len(layer[r]) != n:
                raise ValueError("nested map layers must be square")
            for c in range(n):
                arr[r, c] = np.asarray(layer[r][c], dtype=float)
        layers.append(OctMatrix(arr))
    return NestedMap(layers)
