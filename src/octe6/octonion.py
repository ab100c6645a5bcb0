"""Octonion arithmetic over an explicit Cayley-Dickson multiplication table.

Coefficients are stored over the ordered basis

    (1, i, j, k, kl, jl, il, l)

Writing an octonion as ``p + q*l`` with quaternions ``p`` and ``q``
(quaternion convention ``ij = k``), products follow the doubling rule

    (p, q) (r, s) = (p r - conj(s) q,  s p + q conj(r))

which fixes every sign in the algebra.  The rule is applied once, on basis
indices, to the quaternion table: the resulting 8x8 basis table is held as
exact integers, and ``MUL_TENSOR`` is its one-hot form.  ``signed_table()``
returns a copy of it; the ``table`` CLI subcommand prints the same data for
cross-implementation checks.

An octonion is a float array of its 8 coefficients.  The kernels
(``omul``, ``oconj``, ``omatmul``, ...) act on the last axis, so octonions
stack as ``(..., 8)`` arrays and matrices of octonions are ``(n, n, 8)``
arrays, stacked as ``(..., n, n, 8)``; ``omatmul`` multiplies a stack on
the left by one matrix.  Every function returns a new array and leaves its
arguments unchanged.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

BASIS_NAMES = ("1", "i", "j", "k", "kl", "jl", "il", "l")


def _doubled_table() -> np.ndarray:
    """The signed 8x8 basis table, by the doubling rule on basis indices.

    Basis unit e_a is (q_a, 0) for a < 4 and (0, q_{7-a}) for a >= 4, and
    the rule gives each quarter of the table from the quaternion table Q:

        (q_a, 0) (q_b, 0) = (q_a q_b, 0)
        (q_a, 0) (0, q_b) = (0, q_b q_a)
        (0, q_a) (q_b, 0) = (0, q_a conj(q_b))
        (0, q_a) (0, q_b) = (-conj(q_b) q_a, 0)

    The doubled part's indices run backwards, so its quarters read Q with
    reversed rows or columns, and its unit q_c is e_{7-c}, entry +-(8 - c).
    """
    # quaternion units (1, i, j, k), ij = k: entry (a, b) is +-(c + 1) where q_a q_b = +-q_c
    Q = np.array([[1, 2, 3, 4], [2, -1, 4, -3], [3, -4, -1, 2], [4, 3, -2, -1]])
    conj = np.array([1, -1, -1, -1])  # conj(q_c) = conj[c] q_c

    def doubled(entries):
        return np.sign(entries) * (9 - np.abs(entries))

    table = np.block([
        [Q, doubled(Q[::-1].T)],
        [doubled(Q[::-1] * conj), -(conj[::-1, None] * Q[::-1, ::-1]).T],
    ])
    table.setflags(write=False)
    return table


_SIGNED_TABLE = _doubled_table()
# T with (x y)_k = sum_ij x_i y_j T[i, j, k]: the table in one-hot form, entries 0 and +-1
MUL_TENSOR = np.sign(_SIGNED_TABLE)[..., None] * (np.abs(_SIGNED_TABLE)[..., None] == np.arange(1, 9))
MUL_TENSOR = MUL_TENSOR.astype(float)
MUL_TENSOR.setflags(write=False)
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
    return _SIGNED_TABLE.copy()


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

    ``(..., n, k, 8) @ (k, m, 8)`` gives ``(..., n, m, 8)``: the left
    operand may be a stack, the right operand is one matrix.  The table is
    contracted with B, by one product with a fixed ``(8, 64)`` matrix, into
    one real ``(8k, 8m)`` matrix; A's stack folds into the rows of one BLAS
    product with it.  Each table column has one nonzero entry, +-1, so the
    contraction is exact.
    """
    if B.ndim != 3:
        raise ValueError(f"omatmul takes one (k, m, 8) right operand, got shape {B.shape}")
    k, m, _ = B.shape
    # table on B: (c, b, I, K) -> rows (c, I), columns (b, K)
    right = (B.reshape(-1, 8) @ _TABLE_ON_RIGHT).reshape(k, m, 8, 8)
    right = right.transpose(0, 2, 1, 3).reshape(8 * k, 8 * m)
    return (A.reshape(-1, 8 * k) @ right).reshape(A.shape[:-2] + (m, 8))


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

    The package's one rank rule: ``imaginary_rank``, ``subalgebra_dimension``
    and the Lie ranks of ``generators`` all cut here.  An int for one list
    of values; an array of counts for a (..., k) stack.
    """
    counts = np.sum(s > rel_tol * s[..., :1], axis=-1)
    return int(counts) if counts.ndim == 0 else counts


def _as_coeffs(x) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.shape != (8,):
        raise ValueError(f"expected 8 octonion coefficients, got shape {arr.shape}")
    return arr


# ---------------------------------------------------------------------------
# exponentials, conjugation maps, automorphisms
# ---------------------------------------------------------------------------

def exp_imag(s, theta: float) -> np.ndarray:
    """cos(theta) + sin(theta)*s for an imaginary unit s; always unit norm."""
    sv = _as_coeffs(s)
    if abs(sv[0]) > 1e-9 or abs(onorm(sv) - 1.0) > 1e-9:
        raise ValueError("exp_imag requires an imaginary unit octonion")
    out = np.sin(theta) * sv
    out[0] = np.cos(theta)
    return out


def conj_by(u, x) -> np.ndarray:
    """Conjugation u (x conj(u)) by a unit octonion u.

    By flexibility this equals (u x) conj(u).
    """
    uv, xv = _as_coeffs(u), _as_coeffs(x)
    if abs(onorm(uv) - 1.0) > 1e-9:
        raise ValueError("conj_by requires a unit octonion")
    return omul(uv, omul(xv, oconj(uv)))


def _as_basis_map(f) -> np.ndarray:
    """Realize a linear map on octonions as an 8x8 real matrix.

    A callable is applied to each basis 8-vector and returns an 8-vector.
    """
    if callable(f):
        return np.stack([_as_coeffs(f(e)) for e in np.eye(8)], axis=1)
    mat = np.asarray(f, dtype=float)
    if mat.shape != (8, 8):
        raise ValueError("expected an 8x8 matrix or a callable on octonions")
    return mat


def is_automorphism(f, tol: float = 1e-9) -> tuple[bool, float]:
    """Whether a linear map on octonions preserves products on all basis pairs.

    Accepts an 8x8 matrix or a callable that takes and returns an (8,)
    coefficient array; returns (verdict, max residual over the 64 basis
    pairs, including the f(1) = 1 check).
    """
    mat = _as_basis_map(f)
    fbasis = mat.T  # row t = image of e_t
    images = MUL_TENSOR @ fbasis  # [a, b] = f(e_a e_b)
    products = omul(fbasis[:, None], fbasis[None, :])  # [a, b] = f(e_a) f(e_b)
    residual = max(float(onorm(fbasis[0] - np.eye(8)[0])), float(onorm(images - products).max()))
    return residual <= tol, residual


def triality_ell_conjugation_check() -> float:
    """Residual of k(j(i q)) = ((q conj(i)) conj(j)) conj(k) = l-conjugation of q.

    l-conjugation negates the l-half of the coefficient vector (the
    conjugation of the quaternion doubling).  Returns the max residual
    over the 8 basis octonions.
    """
    i, j, k = np.eye(8)[1:4]
    flip = np.ones(8)
    flip[4:] = -1.0
    q = np.eye(8)
    lhs = omul(k, omul(j, omul(i, q)))
    rhs = omul(omul(omul(q, oconj(i)), oconj(j)), oconj(k))
    return max(float(onorm(lhs - rhs).max()), float(onorm(lhs - flip * q).max()))


def subalgebra_dimension(generators: Iterable, tol: float = 1e-9) -> int:
    """Dimension of the smallest unital subalgebra containing the generators.

    Iterates span closure under multiplication until stable; for octonion
    inputs the result is always 1, 2, 4 or 8.  The span a generator adds
    does not depend on its scale, so each nonzero generator is divided by
    its largest coefficient first and the result is the same at every
    scale.  A non-finite generator raises ValueError.
    """
    vecs = [np.eye(8)[0]]
    for g in generators:
        g = _as_coeffs(g)
        if not np.isfinite(g).all():
            raise ValueError("subalgebra_dimension needs finite generators")
        peak = np.abs(g).max()
        vecs.append(g / peak if peak else g)
    basis = _orthonormal(np.stack(vecs), tol)
    while True:
        products = omul(basis[:, None, :], basis[None, :, :]).reshape(-1, 8)
        new_basis = _orthonormal(np.vstack([basis, products]), tol)
        if new_basis.shape[0] == basis.shape[0]:
            return int(basis.shape[0])
        basis = new_basis


def _orthonormal(rows: np.ndarray, tol: float) -> np.ndarray:
    """An orthonormal basis of the rows' span, cut by ``_numerical_rank``."""
    _, s, vh = np.linalg.svd(rows, full_matrices=False)
    return vh[:_numerical_rank(s, tol)]


# ---------------------------------------------------------------------------
# seeded sampling
# ---------------------------------------------------------------------------

def random_unit_octonion(rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(8)
    return v / onorm(v)
