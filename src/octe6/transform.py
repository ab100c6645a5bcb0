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
of M^dagger around a transpose; one contraction gives the tables of every
layer, and ``linear_ops`` runs a whole stack of maps of one depth, the
shared basis stack folded into the rows of each map's BLAS products, in
blocks whose images stay under ``_ACT_BYTES``.  The predicates take one
matrix or a stack, with bounds relative to |M|^2 (|M|^n for an n x n
determinant), all from ``_verdicts``; well-definedness runs ``_act`` on the
Hermitian basis, compatibility one ``omatmul`` and one ``_act`` on sampled
spinor columns.
"""

from __future__ import annotations

import functools

import numpy as np

from .jordan import _Hermitian, hermitian_arrays, hermitian_vectors
from .octonion import (
    _CONJ_SIGNS,
    _TABLE_ON_RIGHT,
    imaginary_rank,
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


def cyclic_permutation() -> np.ndarray:
    """The 3x3 cyclic permutation matrix, read-only; its inverse is its square and dagger."""
    arr = np.zeros((3, 3, 8))
    arr[0, 1, 0] = arr[1, 2, 0] = arr[2, 0, 0] = 1.0
    arr.setflags(write=False)
    return arr


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
    """Layers (..., depth, n, n, 8) applied inside out to Hermitian X, X -> (M X) M^dagger.

    Every map of the layer stack acts on the one shared (..., n, n, 8)
    stack X; the result is the maps' batch followed by X's shape.  For
    Hermitian X, M X = (X M^dagger)^dagger, so a layer takes two products
    with the table of M^dagger, R: X's rows times R, a transpose, and the
    rows of that times R with its rows' signs folded in (the conjugation).
    One contraction gives both tables of every layer; each product is one
    BLAS call per map, with all of X folded into its rows.
    """
    depth, n = layers.shape[-4:-2]
    batch, k = layers.shape[:-4], 8 * n
    # (P, d, b, c, table, I, K) -> per layer d and table, map P: rows (c, I), columns (b, K)
    tables = (layers.reshape(-1, 8) @ _DAGGER_TABLES).reshape(-1, depth, n, n, 2, 8, 8)
    tables = tables.transpose(1, 4, 0, 3, 5, 2, 6).reshape(depth, 2, -1, k, k)
    p = tables.shape[2]
    out = X.reshape(-1, k)
    for right, right_conj in tables:
        out = (out @ right).reshape(p, -1, n, n, 8).swapaxes(-3, -2).reshape(p, -1, k) @ right_conj
    return out.reshape(batch + X.shape)


# bytes of basis images per _act call of linear_ops: 8 maps of 3x3 layers,
# 51 of 2x2.  A call's cost per map grows with its size once its
# intermediates outgrow the memory the allocator keeps at hand: on a 2-core
# Xeon VM with one BLAS thread, 16-22 us per 3x3 map up to 16 maps, 36-40 us
# at 128 and 54-66 us for 289 at once, but 16-23 us at every size with
# malloc's trimming and mmap turned off.  The BLAS calls are not the cost.
# generators.lie_elements sizes its passes by it too.
_ACT_BYTES = 128 * 1024


def linear_ops(layers: np.ndarray) -> np.ndarray:
    """Operators of stacked nested maps, (..., depth, n, n, 8) -> (..., dim, dim).

    Item P of the stack is the map whose layers are ``layers[P]``; its
    operator's column t is the image of coordinate basis element t (dim
    is 27 for 3x3 layers, 10 for 2x2).  The maps act on the basis
    matrices by ``_act``, in blocks of at most ``_ACT_BYTES`` of images,
    and each block's operators fill their rows of one output array.
    """
    depth, n = layers.shape[-4:-2]
    basis, positions = _hermitian_basis(n), _operator_positions(n)
    maps = layers.reshape((-1, depth, n, n, 8))
    out = np.empty((len(maps),) + positions.shape)
    step = max(1, _ACT_BYTES // basis.nbytes)
    for start in range(0, len(maps), step):
        images = _act(maps[start:start + step], basis)
        out[start:start + step] = images.reshape(len(images), -1).take(positions, axis=-1)
    return out.reshape(layers.shape[:-4] + positions.shape)


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
    batch = arr.shape[:-3]
    residual = np.abs(diff).reshape(batch + (-1,)).max(axis=-1)
    norms = np.sqrt(np.sum(np.square(arr).reshape(batch + (-1,)), axis=-1))
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
    Z = _act(Ma[..., None, :, :, :], _hermitian_basis(Ma.shape[-2]))
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
    Returns (verdict, largest residual) for one 2x2 matrix, arrays of both
    for a (..., 2, 2, 8) stack.
    """
    Ma = np.asarray(M, dtype=float)
    if Ma.shape[-3:] != (2, 2, 8):
        raise ValueError("compatibility is a predicate on 2x2 matrices")
    columns, squares = _spinor_samples()
    # the images M v as a (..., 48, 2, 1, 8) stack of columns
    W = np.swapaxes(omatmul(Ma, columns), -3, -2)[..., None, :]
    lhs = omul(W, odagger(W))
    rhs = _act(Ma[..., None, :, :, :], squares)
    return _verdicts(Ma, lhs - rhs, tol)


def is_complex(M, rel_tol: float = 1e-9):
    """Whether all entries lie in one complex subalgebra of the octonions.

    A bool for one matrix, a bool array for a (..., n, n, 8) stack.
    """
    Ma = np.asarray(M, dtype=float)
    ranks = imaginary_rank(Ma.reshape(Ma.shape[:-3] + (-1, 8)), rel_tol)
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
    ims = Ma.reshape(Ma.shape[:-3] + (-1, 8))[..., 1:]
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
