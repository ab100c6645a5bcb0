"""Octonion arithmetic over an explicit Cayley-Dickson multiplication table.

Coefficients are stored over the ordered basis

    (1, i, j, k, kl, jl, il, l)

Writing an octonion as ``p + q*l`` with quaternions ``p`` and ``q``
(quaternion convention ``ij = k``), products follow the doubling rule

    (p, q) (r, s) = (p r - conj(s) q,  s p + q conj(r))

which fixes every sign in the algebra.  ``signed_table()`` exposes the
resulting 8x8 basis table; the ``table`` CLI subcommand prints the same
data for cross-implementation checks.

Array-level helpers (``omul``, ``oconj``, ``omatmul``, ...) operate on
plain float arrays whose last axis has length 8, so matrices of octonions
are ``(n, n, 8)`` arrays, stacked as ``(..., n, n, 8)``; ``omatmul``
contracts the table with its right operand only.  The :class:`Octonion`
class wraps a single 8-vector for scalar work.  All values are immutable
after construction.
"""

from __future__ import annotations

import numbers
from collections.abc import Iterable

import numpy as np

BASIS_NAMES = ("1", "i", "j", "k", "kl", "jl", "il", "l")
IMAGINARY_NAMES = BASIS_NAMES[1:]


def _build_mul_tensor() -> np.ndarray:
    """Multiplication tensor T with (x y)_k = sum_ij x_i y_j T[i, j, k]."""

    def qmul(x, y):
        out = np.empty(4)
        out[0] = x[0] * y[0] - x[1:] @ y[1:]
        out[1:] = x[0] * y[1:] + y[0] * x[1:] + np.cross(x[1:], y[1:])
        return out

    def qconj(x):
        return np.array([x[0], -x[1], -x[2], -x[3]])

    # basis order (1, i, j, k, kl, jl, il, l):
    # quaternion part p = (c0, c1, c2, c3), doubled part q = (c7, c6, c5, c4)
    def to_pq(c):
        return c[[0, 1, 2, 3]], c[[7, 6, 5, 4]]

    def from_pq(p, q):
        return np.array([p[0], p[1], p[2], p[3], q[3], q[2], q[1], q[0]])

    tensor = np.zeros((8, 8, 8))
    eye = np.eye(8)
    for a in range(8):
        p, q = to_pq(eye[a])
        for b in range(8):
            r, s = to_pq(eye[b])
            z1 = qmul(p, r) - qmul(qconj(s), q)
            z2 = qmul(s, p) + qmul(q, qconj(r))
            tensor[a, b] = from_pq(z1, z2)
    tensor.setflags(write=False)
    return tensor


MUL_TENSOR = _build_mul_tensor()
# the table as a (8, 64) matrix for omatmul, contracted with the right
# factor's coefficients: rows J, columns (I, K)
_TABLE_ON_RIGHT = MUL_TENSOR.transpose(1, 0, 2).reshape(8, 64)
_TABLE_ON_RIGHT.setflags(write=False)
# the table as a (64, 8) matrix for omul: rows (I, J), columns K
_TABLE_ON_PAIRS = MUL_TENSOR.reshape(64, 8)
_CONJ_SIGNS = np.array([1.0] + [-1.0] * 7)
_CONJ_SIGNS.setflags(write=False)


def signed_table() -> np.ndarray:
    """8x8 signed basis table: entry (a, b) is +-(k+1) where e_a e_b = +-e_k."""
    table = np.zeros((8, 8), dtype=int)
    for a in range(8):
        for b in range(8):
            k = int(np.argmax(np.abs(MUL_TENSOR[a, b])))
            table[a, b] = int(np.sign(MUL_TENSOR[a, b, k])) * (k + 1)
    return table


# ---------------------------------------------------------------------------
# array-level kernels: last axis holds the 8 coefficients
# ---------------------------------------------------------------------------

def omul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Octonion product, broadcasting over leading axes.

    One matrix product: the 64 coefficient products x_I y_J of each pair
    against the (64, 8) table, whose entries are 0 and +-1.
    """
    pairs = np.asarray(x)[..., :, None] * np.asarray(y)[..., None, :]
    return pairs.reshape(pairs.shape[:-2] + (64,)) @ _TABLE_ON_PAIRS


def oconj(x: np.ndarray) -> np.ndarray:
    """Octonion conjugate: negate the seven imaginary coefficients."""
    return np.multiply(x, _CONJ_SIGNS)


def onorm(x: np.ndarray) -> np.ndarray | float:
    """Euclidean norm of the coefficient vector(s)."""
    n = np.sqrt(np.sum(np.asarray(x, dtype=float) ** 2, axis=-1))
    return float(n) if n.ndim == 0 else n


def omatmul(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Product of octonionic matrices, entries paired left to right.

    ``(..., n, k, 8) @ (..., k, m, 8)`` gives ``(..., n, m, 8)``.  Either
    operand may carry a leading batch; when both do, the shorter batch must
    be a leading prefix of the longer one, and item ``P`` of the shorter
    batch multiplies every item ``(P, ...)`` of the longer.  The table is
    contracted with the right operand, by one product with a fixed
    ``(8, 64)`` matrix, into one real matrix per item; the left operand's
    extra axes fold into the rows of one BLAS product per item.  When the
    right operand's batch is the longer one, conjugation reverses products,
    (A B)^dagger = B^dagger A^dagger, and the product is formed as that
    dagger.  Each table column has one nonzero entry, +-1, so the
    contraction is exact.
    """
    a_batch, b_batch = A.shape[:-3], B.shape[:-3]
    if len(b_batch) > len(a_batch):
        return odagger(omatmul(odagger(B), odagger(A)))
    if a_batch[:len(b_batch)] != b_batch:
        raise ValueError(f"omatmul batches {a_batch} and {b_batch}: neither is a prefix")
    n, k, _ = A.shape[-3:]
    m = B.shape[-2]
    # table on B per item: (P, c, b, I, K) -> rows (c, I), columns (b, K);
    # A's extra axes join its rows
    right = (B.reshape(-1, 8) @ _TABLE_ON_RIGHT).reshape(-1, k, m, 8, 8)
    right = right.transpose(0, 1, 3, 2, 4).reshape(-1, 8 * k, 8 * m)
    rows = A.reshape(right.shape[0], -1, 8 * k)
    return (rows @ right).reshape(a_batch + (n, m, 8))


def odagger(A: np.ndarray) -> np.ndarray:
    """Conjugate transpose of (a batch of) octonionic matrices."""
    return oconj(np.swapaxes(A, -3, -2))


def imaginary_rank(entries: np.ndarray, rel_tol: float = 1e-9):
    """Numerical rank of the stacked imaginary parts of a set of octonions.

    Rank 0 means all entries are real; rank 1 means the imaginary parts are
    pairwise parallel, i.e. the entries lie in one complex subalgebra.  An
    int for one (m, 8) set, an array of counts for a (..., m, 8) stack of
    sets.
    """
    ims = np.asarray(entries, dtype=float)[..., 1:]
    return _numerical_rank(np.linalg.svd(ims, compute_uv=False), rel_tol)


def _numerical_rank(s: np.ndarray, rel_tol: float):
    """Count of the descending singular values s above rel_tol * s[0]; 0 when s[0] = 0.

    An int for one list of values; an array of counts for a (..., k) stack.
    """
    counts = np.sum(s > rel_tol * s[..., :1], axis=-1)
    return int(counts) if counts.ndim == 0 else counts


def _as_coeffs(x) -> np.ndarray:
    if isinstance(x, Octonion):
        return x.coefficients
    arr = np.asarray(x, dtype=float)
    if arr.shape != (8,):
        raise ValueError(f"expected 8 octonion coefficients, got shape {arr.shape}")
    return arr


# ---------------------------------------------------------------------------
# scalar interface
# ---------------------------------------------------------------------------

class Octonion:
    """An octonion: an immutable vector of 8 real coefficients."""

    __slots__ = ("_c",)

    def __init__(self, coefficients):
        c = np.array(coefficients, dtype=float).reshape(8)
        c.setflags(write=False)
        self._c = c

    @classmethod
    def zero(cls) -> "Octonion":
        return cls(np.zeros(8))

    @classmethod
    def one(cls) -> "Octonion":
        return cls.unit(0)

    @classmethod
    def unit(cls, which: int | str) -> "Octonion":
        """Basis octonion by index 0..7 or by name ('1', 'i', ..., 'l')."""
        idx = BASIS_NAMES.index(which) if isinstance(which, str) else int(which)
        c = np.zeros(8)
        c[idx] = 1.0
        return cls(c)

    @classmethod
    def basis(cls) -> tuple["Octonion", ...]:
        return tuple(cls.unit(t) for t in range(8))

    @property
    def coefficients(self) -> np.ndarray:
        return self._c

    @property
    def re(self) -> float:
        return float(self._c[0])

    @property
    def im(self) -> np.ndarray:
        """The seven imaginary coefficients."""
        return self._c[1:]

    @property
    def norm(self) -> float:
        return float(np.sqrt(self._c @ self._c))

    def conj(self) -> "Octonion":
        return Octonion(oconj(self._c))

    def inverse(self) -> "Octonion":
        """Multiplicative inverse conj(x)/norm(x)^2; zero has none."""
        n2 = float(self._c @ self._c)
        if n2 == 0.0:
            raise ZeroDivisionError("the zero octonion has no inverse")
        return Octonion(oconj(self._c) / n2)

    def is_imaginary_unit(self, tol: float = 1e-9) -> bool:
        return abs(self.re) <= tol and abs(self.norm - 1.0) <= tol

    def __add__(self, other):
        if isinstance(other, Octonion):
            return Octonion(self._c + other._c)
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, Octonion):
            return Octonion(self._c - other._c)
        return NotImplemented

    def __neg__(self):
        return Octonion(-self._c)

    def __mul__(self, other):
        if isinstance(other, Octonion):
            return Octonion(omul(self._c, other._c))
        if isinstance(other, numbers.Real):
            return Octonion(self._c * float(other))
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, numbers.Real):
            return Octonion(self._c * float(other))
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, numbers.Real):
            return Octonion(self._c / float(other))
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, Octonion):
            return bool(np.array_equal(self._c, other._c))
        return NotImplemented

    def isclose(self, other: "Octonion", tol: float = 1e-12) -> bool:
        return bool(np.allclose(self._c, _as_coeffs(other), atol=tol, rtol=0.0))

    def __repr__(self):
        terms = [
            f"{c:+g}{'' if name == '1' else '*' + name}"
            for c, name in zip(self._c, BASIS_NAMES)
            if c != 0.0
        ]
        return "Octonion<%s>" % (" ".join(terms) if terms else "0")


# ---------------------------------------------------------------------------
# exponentials, conjugation maps, automorphisms
# ---------------------------------------------------------------------------

def exp_imag(s, theta: float) -> Octonion:
    """cos(theta) + sin(theta)*s for an imaginary unit s; always unit norm."""
    sv = _as_coeffs(s)
    if abs(sv[0]) > 1e-9 or abs(onorm(sv) - 1.0) > 1e-9:
        raise ValueError("exp_imag requires an imaginary unit octonion")
    out = np.sin(theta) * sv
    out[0] = np.cos(theta)
    return Octonion(out)


def conj_by(u, x) -> Octonion:
    """Conjugation u (x conj(u)) by a unit octonion u.

    By flexibility this equals (u x) conj(u).
    """
    uv, xv = _as_coeffs(u), _as_coeffs(x)
    if abs(onorm(uv) - 1.0) > 1e-9:
        raise ValueError("conj_by requires a unit octonion")
    return Octonion(omul(uv, omul(xv, oconj(uv))))


def _as_basis_map(f) -> np.ndarray:
    """Realize a linear map on octonions as an 8x8 real matrix.

    A callable is applied to each basis Octonion and may return an Octonion
    or an 8-vector.
    """
    if callable(f):
        return np.stack([_as_coeffs(f(Octonion(e))) for e in np.eye(8)], axis=1)
    mat = np.asarray(f, dtype=float)
    if mat.shape != (8, 8):
        raise ValueError("expected an 8x8 matrix or a callable on octonions")
    return mat


def is_automorphism(f, tol: float = 1e-9) -> tuple[bool, float]:
    """Whether a linear map on octonions preserves products on all basis pairs.

    Accepts an 8x8 matrix or a callable taking an Octonion; returns (verdict,
    max residual over the 64 basis pairs, including the f(1) = 1 check).
    """
    mat = _as_basis_map(f)
    fbasis = mat.T  # row t = image of e_t
    images = MUL_TENSOR @ fbasis  # [a, b] = f(e_a e_b)
    products = omul(fbasis[:, None], fbasis[None, :])  # [a, b] = f(e_a) f(e_b)
    residual = max(float(onorm(fbasis[0] - np.eye(8)[0])), float(onorm(images - products).max()))
    return residual <= tol, residual


def triality_ell_conjugation_check(tol: float = 1e-12) -> tuple[bool, float]:
    """Check k(j(i q)) = ((q conj(i)) conj(j)) conj(k) = l-conjugation of q.

    l-conjugation negates the l-half of the coefficient vector (the
    conjugation of the quaternion doubling).  Returns (verdict, max
    residual over the 8 basis octonions).
    """
    i, j, k = (Octonion.unit(t).coefficients for t in ("i", "j", "k"))
    flip = np.ones(8)
    flip[4:] = -1.0
    q = np.eye(8)
    lhs = omul(k, omul(j, omul(i, q)))
    rhs = omul(omul(omul(q, oconj(i)), oconj(j)), oconj(k))
    residual = max(float(onorm(lhs - rhs).max()), float(onorm(lhs - flip * q).max()))
    return residual <= tol, residual


def subalgebra_dimension(generators: Iterable, tol: float = 1e-9) -> int:
    """Dimension of the smallest unital subalgebra containing the generators.

    Iterates span closure under multiplication until stable; for octonion
    inputs the result is always 1, 2, 4 or 8.
    """
    vecs = [np.eye(8)[0]]
    for g in generators:
        vecs.append(_as_coeffs(g))
    basis = _orthonormal(np.stack(vecs), tol)
    while True:
        products = omul(basis[:, None, :], basis[None, :, :]).reshape(-1, 8)
        new_basis = _orthonormal(np.vstack([basis, products]), tol)
        if new_basis.shape[0] == basis.shape[0]:
            return int(basis.shape[0])
        basis = new_basis


def _orthonormal(rows: np.ndarray, tol: float) -> np.ndarray:
    _, s, vh = np.linalg.svd(rows, full_matrices=False)
    keep = s > tol * max(s[0], 1.0)
    return vh[keep]


# ---------------------------------------------------------------------------
# seeded sampling
# ---------------------------------------------------------------------------

def random_octonion(rng: np.random.Generator, scale: float = 1.0) -> Octonion:
    """Standard-normal coefficients, optionally rescaled."""
    return Octonion(rng.standard_normal(8) * scale)


def random_unit_octonion(rng: np.random.Generator) -> Octonion:
    v = rng.standard_normal(8)
    return Octonion(v / onorm(v))


def random_imaginary_unit(rng: np.random.Generator) -> Octonion:
    v = rng.standard_normal(8)
    v[0] = 0.0
    return Octonion(v / onorm(v))
