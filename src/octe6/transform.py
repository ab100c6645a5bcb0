"""Octonionic matrices as transformations of Hermitian matrices and spinors.

Octonionic matrices are plain (n, n, 8) arrays, stacked as (..., n, n, 8),
and an octonion (a determinant of ``complex_det``) is an (8,) array;
``omatmul`` and ``odagger`` multiply and conjugate matrices.  Because they do
not associate, a group element is kept as a :class:`NestedMap`, an ordered
stack of layers, one (depth, n, n, 8) array, applied strictly inside out:

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
of M^dagger around a transpose; one contraction gives a layer's two
tables.  The kernel pairs a stack of maps with a stack of matrices by
broadcasting: ``linear_ops`` runs a whole stack of maps of one depth on
the shared basis stack, folded into the rows of each map's BLAS products,
and ``apply_paired`` acts with map P on its own matrix X[P], so that a
map used once, as verify's sampled words are, needs no operator (building
one costs about twice the layered action on one matrix).  The predicates
take one matrix or a stack, with bounds relative
to |M|^2 (|M|^n for an n x n determinant), all from ``_verdicts``;
well-definedness runs ``_act`` on the Hermitian basis, compatibility one
``omatmul`` and one ``_act`` on sampled spinor columns.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .jordan import _Hermitian, hermitian_arrays, hermitian_vectors
from .octonion import (
    _CONJ_SIGNS,
    _TABLE_ON_RIGHT,
    imaginary_rank,
    oconj,
    odagger,
    omatmul,
    omul,
    onorm,
)

# seed for the random spinor columns used by the compatibility predicate
COMPATIBILITY_SEED = 20107


class OctMatrix:
    """A read-only copy of one (n, n, 8) layer array, as ``NestedMap.layers`` gives it.

    Octonionic matrices are plain arrays everywhere else: ``omatmul``,
    ``odagger`` and numpy arithmetic act on them directly.
    """

    __slots__ = ("arr",)

    def __init__(self, arr):
        a = np.array(arr, dtype=float)
        if a.ndim != 3 or a.shape[0] != a.shape[1] or a.shape[2] != 8:
            raise ValueError(f"expected an (n, n, 8) array, got shape {a.shape}")
        a.setflags(write=False)
        self.arr = a


class NestedMap:
    """Ordered layers of octonionic matrices applied inside out.

    The layers are held as one read-only (depth, n, n, 8) array, ``stack``,
    a copy of the array the constructor takes.  The action on
    Hermitian matrices is real-linear in the coordinates, so ``apply``
    multiplies by the map's real operator (27x27 for 3x3 layers, 10x10 for
    2x2), built on first use and kept read-only.
    """

    __slots__ = ("stack", "_op")

    def __init__(self, layers):
        stack = np.array(layers, dtype=float)
        if (stack.ndim != 4 or not stack.size or stack.shape[1] != stack.shape[2]
                or stack.shape[3] != 8):
            raise ValueError(f"expected a (depth, n, n, 8) layer array, got shape {stack.shape}")
        stack.setflags(write=False)
        self.stack = stack
        self._op = None

    @classmethod
    def single(cls, M: np.ndarray) -> "NestedMap":
        """The one-layer map of an (n, n, 8) matrix."""
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
    """Layers (B..., depth, n, n, 8) applied inside out to Hermitian X, X -> (M X) M^dagger.

    X is (A..., R..., n, n, 8): its leading axes A, one per axis of the
    maps' batch B, broadcast against B, and its remaining axes R fold into
    rows.  So map P acts on X[P] when A is B, and every map on one shared
    stack when A is all ones; the result is (broadcast(A, B), R..., n, n, 8).
    For Hermitian X, M X = (X M^dagger)^dagger, so a layer takes two
    products with the table of M^dagger, R: X's rows times R, a transpose,
    and the rows of that times R with its rows' signs folded in (the
    conjugation).  Each layer's two tables come from one contraction; each
    product is one BLAS call per pair of a map and its X, with the R axes
    folded into its rows.
    """
    depth, n = layers.shape[-4:-2]
    batch, k = layers.shape[:-4], 8 * n
    lead, rows = X.shape[:len(batch)], X.shape[len(batch):-3]
    m = math.prod(rows)  # matrices per map, may be 0
    out = X.reshape(lead + (m * n, k))
    for d in range(depth):
        # (B, b, c, table, I, K) -> per table: (B, rows (c, I), columns (b, K))
        tables = (layers[..., d, :, :, :].reshape(-1, 8) @ _DAGGER_TABLES).reshape(-1, n, n, 2, 8, 8)
        right, right_conj = tables.transpose(3, 0, 2, 4, 1, 5).reshape((2,) + batch + (k, k))
        out = out @ right
        pairs = out.shape[:-2]
        out = out.reshape(pairs + (m, n, n, 8)).swapaxes(-3, -2).reshape(pairs + (m * n, k)) @ right_conj
    return out.reshape(out.shape[:-2] + X.shape[len(batch):])


# glibc's default mmap threshold: it serves a smaller block from the heap it
# reuses, and maps a larger one afresh, page-faulting it in, on every call
_HEAP_BYTES = 128 * 1024


def linear_ops(layers: np.ndarray) -> np.ndarray:
    """Operators of stacked nested maps, (..., depth, n, n, 8) -> (..., dim, dim).

    Item P of the stack is the map whose layers are ``layers[P]``; its
    operator's column t is the image of coordinate basis element t (dim
    is 27 for 3x3 layers, 10 for 2x2).  The maps act on the basis matrices
    in slices, one ``_act`` call each, whose layer tables (two 8n x 8n
    tables per map) fit in ``_HEAP_BYTES``: 32 maps of 2x2 layers, 14 of
    3x3.  A whole roster's 97 distinct blocks in one call would allocate
    about 1 MB, mapped and faulted in again on every call.  Each map's
    operator is still its own product, so a slice gives the same bits as
    one call per map.
    """
    batch, n = layers.shape[:-4], layers.shape[-2]
    maps, basis = layers.reshape((math.prod(batch),) + layers.shape[-4:]), _hermitian_basis(n)
    positions = _operator_positions(n)
    step = _HEAP_BYTES // (n * n * _DAGGER_TABLES.shape[1] * _DAGGER_TABLES.itemsize)  # an entry's two tables
    ops = np.empty((len(maps),) + positions.shape)
    for at in range(0, len(maps), step):
        images = _act(maps[at:at + step], basis[None])
        ops[at:at + step] = images.reshape(len(images), basis.size).take(positions, axis=-1)
    return ops.reshape(batch + positions.shape)


def apply_paired(layers: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Map P of a stack of nested maps on its own Hermitian matrix X[P], no read-off.

    Layers (..., depth, n, n, 8) and X (..., n, n, 8) share their leading
    shape; one ``_act`` call gives every image, item P equal bit for bit to
    ``NestedMap(layers[P]).apply_array(X[P])``.  Maps of different depths
    share a stack when the shorter ones are padded with identity layers on
    the inside: on exactly Hermitian X an identity layer is exact, up to
    the sign of zero.
    """
    layers, X = np.asarray(layers, dtype=float), np.asarray(X, dtype=float)
    if (layers.ndim < 4 or layers.shape[-3] != layers.shape[-2] or layers.shape[-1] != 8
            or X.shape != layers.shape[:-4] + layers.shape[-3:]):
        raise ValueError(f"{layers.shape} layers do not pair with {X.shape} operands")
    return _act(layers, X)


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


def _verdicts(arr: np.ndarray, diff: np.ndarray, tol: float, degree: int = 2):
    """Per item M of arr: the largest |diff| and whether it is <= tol * |M|^degree.

    The predicates' one relative bound: a residual of that degree in M
    gets the same verdict at every scale of M.  (bool, float) for one matrix,
    arrays for a stack.
    """
    batch = arr.shape[:-3]  # item sizes spelled out: batch may hold no items
    residual = np.abs(diff).reshape(batch + (math.prod(diff.shape[len(batch):]),)).max(axis=-1)
    norms = np.sqrt(np.sum(np.square(arr).reshape(batch + (math.prod(arr.shape[-3:]),)), axis=-1))
    ok = residual <= tol * norms**degree
    if arr.ndim == 3:
        return bool(ok), float(residual)
    return ok, residual


def is_welldefined(M, tol: float = 1e-9):
    """Whether M(X M^dagger) = (M X) M^dagger on a basis of Hermitian X.

    For Hermitian X, M(X M^dagger) = ((M X) M^dagger)^dagger, so the
    residual is |Z^dagger - Z| for Z = (M X) M^dagger, the action kernel's
    image of the basis.  Returns (verdict, largest residual) for one
    (n, n, 8) matrix, and arrays of both for a
    (..., n, n, 8) stack, one per item.
    """
    Ma = np.asarray(M, dtype=float)
    basis = _hermitian_basis(Ma.shape[-2])
    Z = _act(Ma[..., None, :, :, :], basis.reshape((1,) * (Ma.ndim - 3) + basis.shape))
    return _verdicts(Ma, odagger(Z) - Z, tol)


@functools.cache
def _spinor_samples() -> tuple[np.ndarray, np.ndarray]:
    """The 48 sampled spinor columns v, one (2, 48, 8) matrix, and their squares v v^dagger.

    Built on first use, so that importing the package does not load numpy.random.
    """
    seeded = np.random.default_rng(COMPATIBILITY_SEED).standard_normal((32, 16))
    seeded /= onorm(seeded)[:, None]
    columns = np.concatenate((np.eye(16), seeded)).reshape(48, 2, 1, 8)
    squares = omul(columns, odagger(columns))
    columns = np.ascontiguousarray(columns[:, :, 0].swapaxes(0, 1))
    columns.setflags(write=False)
    squares.setflags(write=False)
    return columns, squares


def is_compatible(M, tol: float = 1e-9):
    """Whether (Mv)(Mv)^dagger = M(v v^dagger)M^dagger over sampled spinors v.

    Samples the 16 standard basis columns plus 32 seeded unit columns; M v
    is one ``omatmul`` for all of them, M(v v^dagger)M^dagger one ``_act``.
    For w = M v, (w w^dagger) has |w_0|^2 and |w_1|^2 on its diagonal and
    w_0 conj(w_1) and its conjugate off it, one ``omul`` per column.
    Returns (verdict, largest residual) for one 2x2 matrix, arrays of both
    for a (..., 2, 2, 8) stack.
    """
    Ma = np.asarray(M, dtype=float)
    if Ma.shape[-3:] != (2, 2, 8):
        raise ValueError("compatibility is a predicate on 2x2 matrices")
    columns, squares = _spinor_samples()
    W = omatmul(Ma, columns)  # (..., 2, 48, 8): the images w = M v as columns
    norms = np.add.reduce(W * W, axis=-1)
    off = omul(W[..., 0, :, :], oconj(W[..., 1, :, :]))
    # M(v v^dagger)M^dagger minus (w w^dagger), entry by entry
    diff = _act(Ma[..., None, :, :, :], squares.reshape((1,) * (Ma.ndim - 3) + squares.shape))
    diff[..., 0, 0, 0] -= norms[..., 0, :]
    diff[..., 1, 1, 0] -= norms[..., 1, :]
    diff[..., 0, 1, :] -= off
    diff[..., 1, 0, :] -= oconj(off)
    return _verdicts(Ma, diff, tol)


def is_complex(M, rel_tol: float = 1e-9):
    """Whether all entries lie in one complex subalgebra of the octonions.

    A bool for one matrix, a bool array for a (..., n, n, 8) stack.
    """
    Ma = np.asarray(M, dtype=float)
    ranks = imaginary_rank(Ma.reshape(Ma.shape[:-3] + (Ma.shape[-3] * Ma.shape[-2], 8)), rel_tol)
    return ranks <= 1 if Ma.ndim > 3 else bool(ranks <= 1)


def complex_det(M, tol: float = 1e-9):
    """Classical determinant of a complex matrix, with a realness verdict.

    The entries are mapped into the complex plane spanned by 1 and their
    shared imaginary direction; the determinant is computed there and
    mapped back.  Raises on non-complex input.  Returns the determinant's
    (8,) coefficients and a bool for one matrix, and a (..., 8) array of
    determinants with a bool array for a (..., n, n, 8) stack.
    """
    Ma = np.asarray(M, dtype=float)
    if not np.all(is_complex(Ma, tol)):
        raise ValueError("complex_det requires a complex matrix")
    ims = Ma.reshape(Ma.shape[:-3] + (Ma.shape[-3] * Ma.shape[-2], 8))[..., 1:]
    widest = np.argmax(np.linalg.norm(ims, axis=-1), axis=-1)[..., None, None]
    direction = np.take_along_axis(ims, widest, axis=-2)[..., 0, :]
    # all entries real: any direction will do, take i
    direction = direction + (np.abs(direction).max(axis=-1, keepdims=True) == 0.0) * np.eye(7)[0]
    direction = direction / np.linalg.norm(direction, axis=-1, keepdims=True)
    plane = Ma[..., 0] + 1j * (Ma[..., 1:] @ direction[..., None, :, None])[..., 0]
    det = np.linalg.det(plane)
    coeffs = np.concatenate((det.real[..., None], det.imag[..., None] * direction), axis=-1)
    is_real, _ = _verdicts(Ma, det.imag, tol, degree=Ma.shape[-2])
    return coeffs, is_real


# ---------------------------------------------------------------------------
# block embeddings
# ---------------------------------------------------------------------------

def embed(blocks: np.ndarray, slot: int) -> np.ndarray:
    """Place 2x2 matrices in a 3x3 block, with 1 in the remaining corner.

    Takes one (2, 2, 8) matrix or a (..., 2, 2, 8) stack and gives
    (..., 3, 3, 8).  Slot 0 is the upper-left block.  Slots are cyclic
    index shifts: slot s is the slot-0 embedding conjugated s times by the
    cyclic permutation T, whose effect is to read row and column i from
    index (i + s) mod 3.
    """
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
    """The nested map of a parsed JSON list of layers; ValueError for any other top level."""
    if type(data) is not list:
        raise ValueError("a map is a JSON list of layers")
    return NestedMap(np.array(data, dtype=float))
