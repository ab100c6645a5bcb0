"""The exceptional Jordan algebra H3(O) and its 2x2 companion.

Both sizes share one coordinate layout.  An n x n octonionic Hermitian
matrix is stored as its n real diagonal entries followed by one octonion
(8 coefficients) per stored off-diagonal entry, whose mirror holds the
conjugate:

    n = 2:  [[x1, conj(a)], [a, x2]]                              (x1, x2, a)
    n = 3:  [[p, conj(a), c], [a, m, conj(b)], [conj(c), b, n]]   (p, m, n, a, b, c)

that is 10 and 27 real coordinates, with the stored entries at (1, 0) and
at (1, 0), (2, 1), (0, 2).  ``hermitian_vectors`` and ``hermitian_arrays``
convert between ``(..., n, n, 8)`` stacks and ``(..., dim)`` coordinate
vectors.  :class:`Hermitian2` and :class:`JordanMatrix` are read-only views
over one coordinate vector (``to_vector``) that name its entries.

The module implements the symmetrized Jordan product, the Freudenthal
product and the triple product built from them, the characteristic
equation residual, the Lorentzian inner product on 2x2 matrices, and the
trace identity for complex octonionic matrices.  The cubic determinant and
the second invariant of a JordanMatrix are evaluated in closed form on its
27 coordinates, with no Jordan product:

    det3  = pmn - p|b|^2 - m|c|^2 - n|a|^2 + 2 Re((b a) c)
    sigma = pm + mn + np - |a|^2 - |b|^2 - |c|^2

``det3`` equals the triple-product form tr[X, X, X]/3 (``triple``) up to
rounding.  Eigenvalues come from the trigonometric solution of the
characteristic cubic, whose roots are real for every Hermitian input.

One matrix's invariants are computed once, in one pass, and kept on the
matrix: ``_scaled_invariants`` divides the coordinates by the power of two
2^e that brings the largest one into [1/2, 1) and stores e with the trace,
sigma, det and Frobenius norm of the scaled matrix.  ``det3``, ``sigma``,
``norm``, ``Hermitian2.det`` and ``eigenvalues`` read that tuple and scale
back by the matching power of 2^e, and the class cascade of
``cayley.classify`` reads it as it is.  The division is exact, so the
results keep every bit of the unscaled formulas wherever those do not
under- or overflow, and stay finite and scale-exact where they would.
The stored tuple cannot go stale: the coordinate vector is read-only and
every arithmetic result is a new matrix.

The pass runs eleven numpy kernels besides views and ``tolist``.  One
``np.matmul`` of the (k, 1, 8) and (k, 8, 1) views of the octonions gives
each |x|^2 of the norm through the same BLAS dot that ``x @ x`` takes,
and ``_re_bac`` runs the operations of ``omul`` and ``oconj`` without
their wrappers, so every invariant keeps its bits.  ``det3``, ``sigma``
and ``eigenvalues`` take only a JordanMatrix: anything else raises
TypeError, a Hermitian2 (whose coordinates they would misread) and a
coordinate array alike.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .octonion import (
    _CONJ_SIGNS,
    _TABLE_ON_PAIRS,
    _as_coeffs,
    imaginary_rank,
    oconj,
    odagger,
    omatmul,
    omul,
    onorm,
)


# stored off-diagonal entries (row, column) of each size, in coordinate order
_OFF_DIAGONAL = {2: ((1, 0),), 3: ((1, 0), (2, 1), (0, 2))}


def _layout(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat (n, n, 8) positions of the coordinates and of the conjugate mirrors, and signs."""
    stored = [8 * (n + 1) * d for d in range(n)]
    mirror = []
    for r, c in _OFF_DIAGONAL[n]:
        stored += range(8 * (n * r + c), 8 * (n * r + c) + 8)
        mirror += range(8 * (n * c + r), 8 * (n * c + r) + 8)
    signs = np.tile(np.r_[1.0, -np.ones(7)], len(_OFF_DIAGONAL[n]))
    return np.array(stored), np.array(mirror), signs


_LAYOUTS = {n: _layout(n) for n in _OFF_DIAGONAL}


def hermitian_vectors(arr: np.ndarray) -> np.ndarray:
    """Coordinates (..., dim) of a (..., n, n, 8) stack: real diagonal, stored entries."""
    n = arr.shape[-2]
    return np.reshape(arr, arr.shape[:-3] + (8 * n * n,)).take(_LAYOUTS[n][0], axis=-1)


def hermitian_arrays(V: np.ndarray, n: int) -> np.ndarray:
    """The (..., n, n, 8) stack of coordinate vectors (..., dim); inverse of hermitian_vectors."""
    stored, mirror, signs = _LAYOUTS[n]
    V = np.asarray(V, dtype=float)
    out = np.zeros(V.shape[:-1] + (8 * n * n,))
    out[..., stored] = V
    out[..., mirror] = V[..., n:] * signs
    return out.reshape(V.shape[:-1] + (n, n, 8))


def hermiticity_residual(arr: np.ndarray) -> float:
    """How far an (n, n, 8) array is from being Hermitian.

    The largest imaginary diagonal coefficient or |arr[r, c] - conj(arr[c, r])|;
    inf when an entry is NaN or infinite.
    """
    if not np.isfinite(arr).all():
        return np.inf
    n = arr.shape[0]
    rows, cols = np.triu_indices(n, 1)
    diag = np.abs(arr[range(n), range(n), 1:]).max()
    return float(max(diag, onorm(arr[rows, cols] - oconj(arr[cols, rows])).max()))


class _Hermitian:
    """Read-only view over the coordinate vector of an n x n Hermitian matrix."""

    # _inv holds _scaled_invariants(self) once it has been asked for
    __slots__ = ("_v", "_inv")
    SIZE = DIM = 0

    def __init__(self, reals, octonions):
        v = np.zeros(self.DIM)
        for d, x in enumerate(reals):
            v[d] = float(x)
        for start, x in zip(range(self.SIZE, self.DIM, 8), octonions):
            if x is not None:
                v[start:start + 8] = _as_coeffs(x)
        v.setflags(write=False)
        self._v = v
        self._inv = None

    @classmethod
    def _wrap(cls, v: np.ndarray):
        """Adopt a coordinate vector that nothing else holds."""
        v.setflags(write=False)
        out = object.__new__(cls)
        out._v = v
        out._inv = None
        return out

    @classmethod
    def zero(cls):
        return cls._wrap(np.zeros(cls.DIM))

    @classmethod
    def identity(cls):
        v = np.zeros(cls.DIM)
        v[:cls.SIZE] = 1.0
        return cls._wrap(v)

    @classmethod
    def basis_element(cls, index: int):
        """The coordinate matrices in vectorization order."""
        v = np.zeros(cls.DIM)
        v[index] = 1.0
        return cls._wrap(v)

    @classmethod
    def basis(cls) -> tuple:
        return tuple(cls.basis_element(t) for t in range(cls.DIM))

    @classmethod
    def from_vector(cls, v: np.ndarray):
        return cls._wrap(np.array(v, dtype=float).reshape(cls.DIM))

    def to_vector(self) -> np.ndarray:
        """The stored coordinate vector (read-only)."""
        return self._v

    @classmethod
    def from_array(cls, arr: np.ndarray, tol: float = 1e-9):
        """Read the real diagonal and the stored entries of a Hermitian (n, n, 8) array.

        The array must be Hermitian relative to its largest entry:
        ``hermiticity_residual(arr / peak) <= tol``, so it gets the same
        verdict at every scale.  A zero array passes; a non-finite one
        raises ValueError, as does a non-Hermitian one.
        """
        arr = np.asarray(arr, dtype=float)
        n = cls.SIZE
        if arr.shape != (n, n, 8):
            raise ValueError(f"expected a ({n}, {n}, 8) array")
        peak = float(np.abs(arr).max())
        if peak != 0.0:
            res = hermiticity_residual(arr / peak) if math.isfinite(peak) else math.inf
            if res > tol:
                raise ValueError(f"array is not Hermitian (relative residual {res:g})")
        return cls._wrap(hermitian_vectors(arr))

    def to_array(self) -> np.ndarray:
        return hermitian_arrays(self._v, self.SIZE)

    @property
    def trace(self) -> float:
        diag = self._v[:self.SIZE].tolist()
        return sum(diag[1:], diag[0])

    @property
    def norm(self) -> float:
        """Frobenius norm (off-diagonal octonions counted twice).

        Read from the scaled invariants (``_scaled_invariants``), so no
        square under- or overflows and norm(2^k X) = 2^k norm(X) exactly;
        only a norm beyond the largest float raises OverflowError.
        """
        exponent, _, _, _, norm = _scaled_invariants(self)
        return math.ldexp(norm, exponent)

    def __add__(self, other):
        if isinstance(other, type(self)):
            return self._wrap(self._v + other._v)
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, type(self)):
            return self._wrap(self._v - other._v)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, numbers.Real):
            return self._wrap(self._v * float(other))
        return NotImplemented

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0

    def isclose(self, other, tol: float = 1e-9) -> bool:
        return bool(np.allclose(self._v, other._v, atol=tol, rtol=0.0))


def _real(index: int) -> property:
    return property(lambda self: float(self._v[index]))


def _octonion(index: int) -> property:
    return property(lambda self: self._v[index:index + 8])


class Hermitian2(_Hermitian):
    """2x2 octonionic Hermitian matrix [[x1, conj(a)], [a, x2]]."""

    __slots__ = ()
    SIZE, DIM = 2, 10
    x1, x2, a = _real(0), _real(1), _octonion(2)

    def __init__(self, x1: float, x2: float, a=None):
        super().__init__((x1, x2), (a,))

    @property
    def det(self) -> float:
        """x1 x2 - |a|^2, the 2x2 Hermitian determinant (Lorentzian norm)."""
        exponent, _, _, det, _ = _scaled_invariants(self)
        return _unscaled(det, 2 * exponent)

    def __repr__(self):
        return f"Hermitian2(x1={self.x1:g}, x2={self.x2:g}, |a|={onorm(self.a):g})"


class JordanMatrix(_Hermitian):
    """Element of H3(O): reals p, m, n and octonions a, b, c."""

    __slots__ = ()
    SIZE, DIM = 3, 27
    p, m, n = _real(0), _real(1), _real(2)
    a, b, c = _octonion(3), _octonion(11), _octonion(19)

    def __init__(self, p, m, n, a=None, b=None, c=None):
        super().__init__((p, m, n), (a, b, c))

    @classmethod
    def diag(cls, p: float, m: float, n: float) -> "JordanMatrix":
        return cls(p, m, n)

    def __repr__(self):
        return (f"JordanMatrix(diag=({self.p:g}, {self.m:g}, {self.n:g}), "
                f"|a|={onorm(self.a):g}, |b|={onorm(self.b):g}, |c|={onorm(self.c):g})")


# ---------------------------------------------------------------------------
# products and invariants
# ---------------------------------------------------------------------------

def jordan_product(X: JordanMatrix, Y: JordanMatrix) -> JordanMatrix:
    """Symmetrized matrix product (XY + YX)/2; Hermitian for Hermitian inputs."""
    Xa, Ya = X.to_array(), Y.to_array()
    raw = 0.5 * (omatmul(Xa, Ya) + omatmul(Ya, Xa))
    return JordanMatrix._wrap(hermitian_vectors(raw))


def freudenthal(X: JordanMatrix, Y: JordanMatrix) -> JordanMatrix:
    """The bilinear product whose trace invariants build the determinant."""
    XY = jordan_product(X, Y)
    trX, trY = X.trace, Y.trace
    out = XY - 0.5 * (X * trY + Y * trX)
    shift = -0.5 * (XY.trace - trX * trY)
    return out + JordanMatrix.identity() * shift


def triple(X: JordanMatrix, Y: JordanMatrix, Z: JordanMatrix) -> JordanMatrix:
    """Triple product (X * Y) o Z built from both bilinear products."""
    return jordan_product(freudenthal(X, Y), Z)


def _re_bac(off: np.ndarray) -> np.ndarray:
    """Re((b a) c) = <b a, conj(c)> for octonions (..., 3, 8) = (a, b, c).

    The operations of ``omul`` and ``oconj``, written out: the pairs
    b_I a_J against the (64, 8) table, times conj(c), summed.
    """
    pairs = off[..., 1, :, None] * off[..., 0, None, :]
    ba = pairs.reshape(pairs.shape[:-2] + (64,)) @ _TABLE_ON_PAIRS
    return np.add.reduce(ba * np.multiply(off[..., 2, :], _CONJ_SIGNS), axis=-1)


def _unscaled(x: float, exponent: int) -> float:
    """x 2^exponent; an infinity of x's sign where that overflows."""
    try:
        return math.ldexp(x, exponent)
    except OverflowError:
        return math.copysign(math.inf, x)


def _scaled_invariants(X: _Hermitian) -> tuple[int, float, float, float, float]:
    """(e, trace, sigma, det, norm) of X / 2^e, computed once and kept on X.

    e brings X's largest coordinate into [1/2, 1).  The division is exact,
    so an invariant of degree k scaled back by 2^(k e) keeps every bit
    wherever nothing under- or overflows, and no square or cube of the
    scaled coordinates overflows.  For a Hermitian2, sigma and det are
    both x1 x2 - |a|^2.  The tuple stays valid because X's coordinate
    vector is read-only and every arithmetic result is a new matrix.
    """
    inv = X._inv
    if inv is None:
        v = X._v
        exponent = math.frexp(float(np.maximum.reduce(np.abs(v))))[1]
        s = np.ldexp(v, -exponent)
        diag = s[:X.SIZE].tolist()
        octs = s[X.SIZE:].reshape(-1, 8)
        # each octonion's x @ x: matmul hands every 1x8 by 8x1 item to the same BLAS dot
        dots = np.matmul(octs[:, None, :], octs[:, :, None]).ravel().tolist()
        trace = sum(diag[1:], diag[0])
        quad = diag[0] ** 2
        for x in diag[1:]:
            quad += x**2
        norm = math.sqrt(quad + 2.0 * sum(dots[1:], dots[0]))
        if X.SIZE == 3:
            p, m, n = diag
            aa, bb, cc = np.add.reduce(octs * octs, axis=-1).tolist()
            sig = p * m + m * n + n * p - aa - bb - cc
            det = p * m * n - p * bb - m * cc - n * aa + 2.0 * float(_re_bac(octs))
        else:
            sig = det = diag[0] * diag[1] - dots[0]
        inv = X._inv = (exponent, trace, sig, det, norm)
    return inv


def _jordan_invariants(X: JordanMatrix) -> tuple[int, float, float, float, float]:
    """``_scaled_invariants`` of a JordanMatrix; TypeError for anything else, a Hermitian2 too."""
    if not isinstance(X, JordanMatrix):
        raise TypeError(f"expected a JordanMatrix, got {type(X).__name__}")
    return _scaled_invariants(X)


def det3(X: JordanMatrix) -> float:
    """Cubic determinant pmn - p|b|^2 - m|c|^2 - n|a|^2 + 2 Re((b a) c).

    Read from X's scaled invariants; equal to tr[X, X, X]/3 from
    ``triple`` up to rounding.  Anything but a JordanMatrix raises
    TypeError.
    """
    exponent, _, _, det, _ = _jordan_invariants(X)
    return _unscaled(det, 3 * exponent)


def sigma(X: JordanMatrix) -> float:
    """Second invariant pm + mn + np - |a|^2 - |b|^2 - |c|^2.

    Equal to ((tr X)^2 - tr(X o X))/2, read from X's scaled invariants.
    Anything but a JordanMatrix raises TypeError.
    """
    exponent, _, sig, _, _ = _jordan_invariants(X)
    return _unscaled(sig, 2 * exponent)


def char_residual(X: JordanMatrix) -> JordanMatrix:
    """X^3 - (tr X) X^2 + sigma(X) X - det(X) I with Jordan powers.

    Vanishes for every Hermitian input (the characteristic equation).
    """
    X2 = jordan_product(X, X)
    X3 = jordan_product(X2, X)
    out = X3 - X2 * X.trace + X * sigma(X)
    return out - JordanMatrix.identity() * det3(X)


def eigenvalues(X: JordanMatrix) -> np.ndarray:
    """Real roots of the characteristic cubic, descending.

    The cubic is solved from X's scaled invariants (``_scaled_invariants``)
    and the roots are scaled back by 2^e: the scaling is exact, so no
    invariant under- or overflows and the roots scale exactly with X.
    A Hermitian2 raises TypeError.
    """
    exponent, trace, sig, det, norm = _jordan_invariants(X)
    return np.ldexp(_cubic_roots(trace, sig, det, norm), exponent)


_ROOT_PHASES = 2.0 * np.pi * np.arange(3) / 3.0


def _cubic_roots(c2: float, c1: float, c0: float, scale: float) -> np.ndarray:
    """Roots, descending, of l^3 - c2 l^2 + c1 l - c0 for a Hermitian matrix of norm scale.

    Trigonometric solution of the depressed cubic; the acos argument is
    clamped to [-1, 1] to absorb roundoff, and a nearly triple root falls
    back to the real cube root.  "Nearly" is relative: the depressed
    cubic's linear coefficient lies within 1e-14 scale^2 of zero.  The
    fallback clamps the constant coefficient by the same real-root bound
    as the acos argument.
    """
    shift = c2 / 3.0
    pdep = c1 - c2 * c2 / 3.0
    qdep = -2.0 * c2**3 / 27.0 + c1 * c2 / 3.0 - c0
    pdep = min(pdep, 0.0)
    if -pdep <= 1e-14 * scale * scale:
        # three real roots need |qdep| <= 2 (-pdep/3)^(3/2); the rest of
        # qdep is rounding, which the cube root would magnify
        bound = 2.0 * (-pdep / 3.0) ** 1.5
        roots = np.full(3, shift + np.cbrt(-min(max(qdep, -bound), bound)))
    else:
        amp = 2.0 * np.sqrt(-pdep / 3.0)
        arg = min(max(3.0 * qdep / (pdep * amp), -1.0), 1.0)
        phi = np.arccos(arg) / 3.0
        roots = shift + amp * np.cos(phi - _ROOT_PHASES)
    return np.sort(roots)[::-1]


# ---------------------------------------------------------------------------
# 2x2 blocks inside the 3x3 algebra
# ---------------------------------------------------------------------------

def assemble(X: Hermitian2, theta: np.ndarray, n: float) -> JordanMatrix:
    """Build [[X, theta], [theta^dagger, n]] as a JordanMatrix."""
    theta = np.asarray(theta, dtype=float).reshape(2, 8)
    return JordanMatrix(X.x1, X.x2, n, a=X.a, b=oconj(theta[1]), c=theta[0])

def block_split(J: JordanMatrix) -> tuple[Hermitian2, np.ndarray, float]:
    """Inverse of assemble: (2x2 block, spinor column, corner scalar)."""
    theta = np.stack([J.c, oconj(J.b)])
    return Hermitian2(J.p, J.m, J.a), theta, J.n


def spinor_square(theta: np.ndarray) -> Hermitian2:
    """theta theta^dagger for a 2-component octonion column."""
    theta = np.asarray(theta, dtype=float).reshape(2, 8)
    return Hermitian2(
        float(theta[0] @ theta[0]),
        float(theta[1] @ theta[1]),
        omul(theta[1], oconj(theta[0])),
    )


def lorentz_inner(X: Hermitian2, Y: Hermitian2) -> float:
    """Lorentzian inner product (tr(X o Y) - tr X tr Y)/2 on 2x2 matrices.

    In closed form <a, b> - (x1 y2 + x2 y1)/2, for X = [[x1, conj(a)], [a, x2]]
    and Y = [[y1, conj(b)], [b, y2]].
    """
    return float(X.a @ Y.a) - 0.5 * (X.x1 * Y.x2 + X.x2 * Y.x1)


def det_block_identity(X: Hermitian2, theta: np.ndarray, n: float) -> tuple[float, float]:
    """Both sides of det [[X, theta], [theta^dagger, n]] = (det X) n + 2 X.(theta theta^dagger)."""
    lhs = det3(assemble(X, theta, n))
    rhs = X.det * n + 2.0 * lorentz_inner(X, spinor_square(theta))
    return lhs, rhs


def trace_identity_check(M, X: JordanMatrix) -> float:
    """|tr(M X M^dagger) - Re tr((M^dagger M) X)| for a complex matrix M.

    Raises if M is not complex (entries must share one complex subalgebra).
    """
    Ma = np.asarray(M, dtype=float)
    if Ma.shape != (3, 3, 8):
        raise ValueError("expected a 3x3 octonionic matrix")
    if imaginary_rank(Ma.reshape(-1, 8)) > 1:
        raise ValueError("trace identity requires a complex matrix")
    Xa = X.to_array()
    lhs_mat = omatmul(omatmul(Ma, Xa), odagger(Ma))
    lhs = lhs_mat[0, 0, 0] + lhs_mat[1, 1, 0] + lhs_mat[2, 2, 0]
    rhs_mat = omatmul(omatmul(odagger(Ma), Ma), Xa)
    rhs = rhs_mat[0, 0, 0] + rhs_mat[1, 1, 0] + rhs_mat[2, 2, 0]
    return abs(lhs - rhs)


# ---------------------------------------------------------------------------
# sampling and JSON forms
# ---------------------------------------------------------------------------

def random_jordan(rng: np.random.Generator, scale: float = 1.0) -> JordanMatrix:
    """Standard-normal coordinates in all six slots."""
    d = rng.standard_normal(3) * scale
    return JordanMatrix(
        d[0], d[1], d[2],
        rng.standard_normal(8) * scale,
        rng.standard_normal(8) * scale,
        rng.standard_normal(8) * scale,
    )


def random_complex_jordan(rng: np.random.Generator, scale: float = 1.0) -> tuple[JordanMatrix, np.ndarray]:
    """Jordan matrix whose octonion slots share one complex subalgebra.

    Returns the matrix and the imaginary unit spanning the subalgebra.
    """
    s = rng.standard_normal(8)
    s[0] = 0.0
    s = s / onorm(s)
    d = rng.standard_normal(3) * scale

    def draw():
        x, y = rng.standard_normal(2) * scale
        out = y * s
        out[0] = x
        return out

    return JordanMatrix(d[0], d[1], d[2], draw(), draw(), draw()), s


def jordan_to_dict(X: JordanMatrix) -> dict:
    return {
        "diag": [X.p, X.m, X.n],
        "a": X.a.tolist(),
        "b": X.b.tolist(),
        "c": X.c.tolist(),
    }


def json_field(d, name: str, size: int | None = None):
    """Field ``name`` of a parsed JSON object, checked to be ``size`` numbers when size is given.

    A number is an int or a float, not a bool.  The ValueError for a
    non-object, a missing field or a wrong length or type names the field.
    """
    if not isinstance(d, dict):
        raise ValueError("expected a JSON object")
    if name not in d:
        raise ValueError(f"missing field {name!r}")
    value = d[name]
    if size is not None and not (isinstance(value, list) and len(value) == size
                                 and all(type(x) in (int, float) for x in value)):
        raise ValueError(f"field {name!r} must hold {size} numbers")
    return value


def jordan_from_dict(d: dict) -> JordanMatrix:
    diag = json_field(d, "diag", 3)
    return JordanMatrix(*diag, *(json_field(d, name, 8) for name in "abc"))


def hermitian2_to_dict(X: Hermitian2) -> dict:
    return {"diag": [X.x1, X.x2], "a": X.a.tolist()}


def hermitian2_from_dict(d: dict) -> Hermitian2:
    return Hermitian2(*json_field(d, "diag", 2), json_field(d, "a", 8))
