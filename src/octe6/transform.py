"""Octonionic matrices as transformations of Hermitian matrices and spinors.

Because octonionic matrices do not associate, a group element is kept as a
:class:`NestedMap`, an ordered stack of layers, one (depth, n, n, 8) array,
applied strictly inside out:

    apply(X) = M_k ( ... (M_1 X M_1^dagger) ... ) M_k^dagger

Within one layer the pairing is fixed as (M X) M^dagger; for layers passing
the well-definedness predicate the other pairing agrees.  The module also
provides the spinor action (layered left multiplication), the complexity /
well-definedness / compatibility predicates that delimit the usable
matrices, the three 2x2 -> 3x3 block embeddings (cyclic index shifts, i.e.
conjugations by the cyclic permutation matrix), and the real operator of a
nested map's action on the Hermitian coordinates.

The action is real-linear in the coordinates, so ``NestedMap.apply``
multiplies by the map's operator (27x27 for 3x3 layers, 10x10 for 2x2),
built on the first call and kept read-only.  The operator comes from the
layered kernel ``_act`` on the basis matrices.  For Hermitian X,
M X = (X M^dagger)^dagger, so a layer is two products with the real table
of M^dagger around a transpose; one contraction gives the tables of every
layer, and ``linear_ops`` runs a whole stack of maps of one depth at once,
each map on the basis stack folded into the rows of its BLAS products.
The predicates take one matrix or a stack, with bounds relative to |M|^2
(|M|^n for an n x n determinant); well-definedness runs ``_act`` on the
Hermitian basis, compatibility the batched ``omatmul`` on sampled spinor
columns.
"""

from __future__ import annotations

import functools
import math
import numbers

import numpy as np

from .jordan import _Hermitian, hermitian_arrays, hermitian_vectors
from .octonion import (
    _CONJ_SIGNS,
    _TABLE_ON_RIGHT,
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
    """Ordered layers of octonionic matrices applied inside out.

    The layers are held as one read-only (depth, n, n, 8) array, ``stack``;
    the constructor takes OctMatrix layers or such an array.  The action on
    Hermitian matrices is real-linear in the coordinates, so ``apply``
    multiplies by the map's real operator (27x27 for 3x3 layers, 10x10 for
    2x2), built on first use and kept read-only.
    """

    __slots__ = ("stack", "_op")

    def __init__(self, layers):
        if not isinstance(layers, np.ndarray):
            layers = [M.arr for M in layers]
        stack = np.array(layers, dtype=float)
        if (stack.ndim != 4 or not stack.size or stack.shape[1] != stack.shape[2]
                or stack.shape[3] != 8):
            raise ValueError(f"expected a (depth, n, n, 8) layer array, got shape {stack.shape}")
        stack.setflags(write=False)
        self.stack = stack
        self._op = None

    @classmethod
    def single(cls, M: OctMatrix) -> "NestedMap":
        return cls((M,))

    @property
    def layers(self) -> tuple[OctMatrix, ...]:
        """The layers as matrices, innermost first."""
        return tuple(OctMatrix(M) for M in self.stack)

    @property
    def dim(self) -> int:
        return self.stack.shape[1]

    def compose(self, other: "NestedMap") -> "NestedMap":
        """This map first, then the other: concatenation of layers."""
        if other.dim != self.dim:
            raise ValueError("cannot compose maps of different dimension")
        return NestedMap(np.concatenate((self.stack, other.stack)))

    def apply_array(self, X: np.ndarray) -> np.ndarray:
        """Layered action on a (..., n, n, 8) stack of Hermitian matrices, no read-off.

        X must be Hermitian: the kernel forms M X as (X M^dagger)^dagger.
        A layer that fails the well-definedness predicate leaves a
        non-Hermitian image, on whose conjugate transpose the next layer acts.
        """
        X = np.asarray(X, dtype=float)
        if X.shape[-3:] != (self.dim, self.dim, 8):
            raise ValueError("operand dimension does not match the map")
        return _act(self.stack, X)

    def apply(self, X):
        """Act on a JordanMatrix (3x3 maps) or Hermitian2 (2x2 maps) through the operator."""
        if not isinstance(X, _Hermitian):
            raise TypeError("apply expects a JordanMatrix or Hermitian2")
        if X.SIZE != self.dim:
            raise ValueError(f"a {X.SIZE}x{X.SIZE} operand needs {X.SIZE}x{X.SIZE} layers")
        op = self._op
        if op is None:
            op = self.as_linear_op()
        return X._wrap(op @ X.to_vector())

    def apply_spinor(self, v: np.ndarray) -> np.ndarray:
        """Layered left multiplication on a 2-component octonion column."""
        if self.dim != 2:
            raise ValueError("the spinor action needs 2x2 layers")
        v = np.asarray(v, dtype=float).reshape(2, 1, 8)
        for M in self.stack:
            v = omatmul(M, v)
        return v[:, 0]

    def as_linear_op(self) -> np.ndarray:
        """Real operator on the coordinates: column t is the image of basis element t.

        Built on the first call (``linear_ops``) and kept; the same
        read-only array is returned every time.
        """
        if self._op is None:
            op = linear_ops(self.stack)
            op.setflags(write=False)
            self._op = op
        return self._op

    def __repr__(self):
        return f"NestedMap(dim={self.dim}, depth={len(self.stack)})"


# right multiplication by a conjugated entry y of M, i.e. by an entry of
# M^dagger, as one (8, 128) table contracted with y's coefficients J: columns
# (I, K) of x -> x conj(y), then of x -> conj(x) conj(y), which is the first
# with the sign of I
_DAGGER_TABLES = np.concatenate(
    (_TABLE_ON_RIGHT, (_TABLE_ON_RIGHT.reshape(8, 8, 8) * _CONJ_SIGNS[:, None]).reshape(8, 64)),
    axis=1,
) * _CONJ_SIGNS[:, None]
_DAGGER_TABLES.setflags(write=False)


def _act(layers: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Layers (..., depth, n, n, 8) applied inside out to Hermitian X, X -> (M X) M^dagger.

    X is (..., m, n, n, 8): item P of the layer stack acts on the m
    matrices X[P], or on one stack of m shared by all items when X's
    leading axes are all 1.  For Hermitian X, M X = (X M^dagger)^dagger,
    so a layer takes two products with the table of M^dagger, R: X's rows
    times R, a transpose, and the rows of that times R with its rows'
    signs folded in (the conjugation).  One contraction gives both tables
    of every layer; each product is one BLAS call per item P, with the m
    matrices folded into its rows.
    """
    depth, n = layers.shape[-4:-2]
    batch, k = layers.shape[:-4], 8 * n
    # (P, d, b, c, table, I, K) -> per layer d and table, item P: rows (c, I), columns (b, K)
    tables = (layers.reshape(-1, 8) @ _DAGGER_TABLES).reshape(-1, depth, n, n, 2, 8, 8)
    tables = tables.transpose(1, 4, 0, 3, 5, 2, 6).reshape(depth, 2, -1, k, k)
    p = tables.shape[2]
    out = X.reshape(math.prod(X.shape[:len(batch)]), -1, k)
    for right, right_conj in tables:
        out = (out @ right).reshape(p, -1, n, n, 8).swapaxes(-3, -2).reshape(p, -1, k) @ right_conj
    return out.reshape(batch + X.shape[len(batch):])


def linear_ops(layers: np.ndarray) -> np.ndarray:
    """Operators of stacked nested maps, (..., depth, n, n, 8) -> (..., dim, dim).

    Item P of the stack is the map whose layers are ``layers[P]``; its
    operator's column t is the image of coordinate basis element t (dim
    is 27 for 3x3 layers, 10 for 2x2).  All maps act on the basis
    matrices together, by ``_act``.
    """
    n = layers.shape[-2]
    basis = _hermitian_basis(n)
    images = _act(layers, basis.reshape((1,) * (layers.ndim - 4) + basis.shape))
    return images.reshape(images.shape[:-4] + (-1,)).take(_operator_positions(n), axis=-1)


@functools.cache
def _operator_positions(n: int) -> np.ndarray:
    """Where the operator's entries sit in the flattened stack of basis images.

    Entry [s, t] is the position of coordinate s of the image of basis
    element t, so one take reads the operator, rows first.
    """
    dim = len(_hermitian_basis(n))
    return hermitian_vectors(np.arange(dim * n * n * 8).reshape(dim, n, n, 8)).T.copy()


# ---------------------------------------------------------------------------
# predicates
# ---------------------------------------------------------------------------

@functools.cache
def _hermitian_basis(n: int) -> np.ndarray:
    """The n x n Hermitian coordinate matrices, stacked in vector order (read-only)."""
    basis = hermitian_arrays(np.eye(n * (4 * n - 3)), n)  # n reals, 8 per stored entry
    basis.setflags(write=False)
    return basis


def _arrays(M) -> np.ndarray:
    """The (..., n, n, 8) array of an OctMatrix or of a stack of matrix arrays."""
    return M.arr if isinstance(M, OctMatrix) else np.asarray(M, dtype=float)


def _verdicts(arr: np.ndarray, diff: np.ndarray, tol: float):
    """Per item M of arr: the largest |diff| and whether it is <= tol * |M|^2.

    (bool, float) for one matrix, arrays for a stack.
    """
    batch = arr.shape[:-3]
    residual = np.abs(diff).reshape(batch + (-1,)).max(axis=-1)
    norms = np.sqrt(np.sum(np.square(arr).reshape(batch + (-1,)), axis=-1))
    ok = residual <= tol * norms**2
    if arr.ndim == 3:
        return bool(ok), float(residual)
    return ok, residual


def is_welldefined(M, tol: float = 1e-9):
    """Whether M(X M^dagger) = (M X) M^dagger on a basis of Hermitian X.

    For Hermitian X, M(X M^dagger) = ((M X) M^dagger)^dagger, so the
    residual is |Z^dagger - Z| for Z = (M X) M^dagger, the action kernel's
    image of the basis.  Returns (verdict, largest residual) for an
    OctMatrix or one (n, n, 8) array, and arrays of both for a
    (..., n, n, 8) stack, one per item.
    """
    Ma = _arrays(M)
    basis = _hermitian_basis(Ma.shape[-2])
    Z = _act(Ma[..., None, :, :, :], basis.reshape((1,) * (Ma.ndim - 3) + basis.shape))
    return _verdicts(Ma, odagger(Z) - Z, tol)


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


def is_compatible(M, tol: float = 1e-9):
    """Whether (Mv)(Mv)^dagger = M(v v^dagger)M^dagger over sampled spinors v.

    Samples the 16 standard basis columns plus 32 seeded unit columns.
    Returns (verdict, largest residual) for one 2x2 matrix, arrays of both
    for a (..., 2, 2, 8) stack.
    """
    Ma = _arrays(M)
    if Ma.shape[-3:] != (2, 2, 8):
        raise ValueError("compatibility is a predicate on 2x2 matrices")
    Mh, batch = odagger(Ma), Ma.shape[:-3]
    columns, squares = (np.broadcast_to(a, batch + a.shape) for a in _spinor_samples())
    W = omatmul(Ma, columns)
    lhs = omul(W, odagger(W))
    rhs = omatmul(omatmul(Ma, squares), Mh)
    return _verdicts(Ma, lhs - rhs, tol)


def is_complex(M, rel_tol: float = 1e-9):
    """Whether all entries lie in one complex subalgebra of the octonions.

    A bool for one matrix, a bool array for a (..., n, n, 8) stack.
    """
    Ma = _arrays(M)
    ranks = imaginary_rank(Ma.reshape(Ma.shape[:-3] + (-1, 8)), rel_tol)
    return ranks <= 1 if Ma.ndim > 3 else bool(ranks <= 1)


def complex_det(M, tol: float = 1e-9):
    """Classical determinant of a complex matrix, with a realness verdict.

    The entries are mapped into the complex plane spanned by 1 and their
    shared imaginary direction; the determinant is computed there and
    mapped back.  Raises on non-complex input.  Returns (Octonion, bool)
    for one matrix, and a (..., 8) array of determinants with a bool array
    for a (..., n, n, 8) stack.
    """
    Ma = _arrays(M)
    if not np.all(is_complex(Ma, tol)):
        raise ValueError("complex_det requires a complex matrix")
    ims = Ma.reshape(Ma.shape[:-3] + (-1, 8))[..., 1:]
    widest = np.argmax(np.linalg.norm(ims, axis=-1), axis=-1)[..., None, None]
    direction = np.take_along_axis(ims, widest, axis=-2)[..., 0, :]
    # all entries real: any direction will do, take i
    direction = direction + (np.abs(direction).max(axis=-1, keepdims=True) == 0.0) * np.eye(7)[0]
    direction = direction / np.linalg.norm(direction, axis=-1, keepdims=True)
    plane = Ma[..., 0] + 1j * (Ma[..., 1:] @ direction[..., None, :, None])[..., 0]
    det = np.linalg.det(plane)
    coeffs = np.concatenate((det.real[..., None], det.imag[..., None] * direction), axis=-1)
    norms = np.linalg.norm(Ma.reshape(Ma.shape[:-3] + (-1,)), axis=-1)
    is_real = np.abs(det.imag) <= tol * norms ** Ma.shape[-2]
    if Ma.ndim == 3:
        return Octonion(coeffs), bool(is_real)
    return coeffs, is_real


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
    return nm.stack.tolist()


def nested_map_from_json(data: list) -> NestedMap:
    return NestedMap(np.array(data, dtype=float))
