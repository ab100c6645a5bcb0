"""The exceptional Jordan algebra H3(O) and its 2x2 companion.

A :class:`JordanMatrix` is a 3x3 octonionic Hermitian matrix stored in the
layout

    [[p, conj(a), c], [a, m, conj(b)], [conj(c), b, n]]

so three reals and three octonions give the 27 real coordinates, ordered
``(p, m, n, a0..a7, b0..b7, c0..c7)`` by ``to_vector``.  :class:`Hermitian2`
is the 2x2 sibling ``[[x1, conj(a)], [a, x2]]``.

The module implements the symmetrized Jordan product, the Freudenthal
product, the cubic determinant and second invariant, the characteristic
equation residual, the Lorentzian inner product on 2x2 matrices, and the
trace identity for complex octonionic matrices.  Eigenvalues come from the
trigonometric solution of the characteristic cubic, whose roots are real
for every Hermitian input.
"""

from __future__ import annotations

import numbers

import numpy as np

from .octonion import (
    Octonion,
    _as_coeffs,
    imaginary_rank,
    oconj,
    odagger,
    omatmul,
    omul,
    onorm,
)


class Hermitian2:
    """2x2 octonionic Hermitian matrix [[x1, conj(a)], [a, x2]]."""

    __slots__ = ("x1", "x2", "a")

    def __init__(self, x1: float, x2: float, a=None):
        self.x1 = float(x1)
        self.x2 = float(x2)
        arr = np.zeros(8) if a is None else np.array(_as_coeffs(a))
        arr.setflags(write=False)
        self.a = arr

    @classmethod
    def identity(cls) -> "Hermitian2":
        return cls(1.0, 1.0)

    @classmethod
    def zero(cls) -> "Hermitian2":
        return cls(0.0, 0.0)

    @classmethod
    def from_array(cls, arr: np.ndarray, tol: float = 1e-9) -> "Hermitian2":
        arr = np.asarray(arr, dtype=float)
        if arr.shape != (2, 2, 8):
            raise ValueError("expected a (2, 2, 8) array")
        herm_res = max(
            abs(arr[0, 0, 1:]).max(),
            abs(arr[1, 1, 1:]).max(),
            float(onorm(arr[0, 1] - oconj(arr[1, 0]))),
        )
        if herm_res > tol * max(1.0, float(np.abs(arr).max())):
            raise ValueError(f"array is not Hermitian (residual {herm_res:g})")
        return cls(arr[0, 0, 0], arr[1, 1, 0], arr[1, 0])

    def to_array(self) -> np.ndarray:
        arr = np.zeros((2, 2, 8))
        arr[0, 0, 0] = self.x1
        arr[1, 1, 0] = self.x2
        arr[1, 0] = self.a
        arr[0, 1] = oconj(self.a)
        return arr

    @property
    def trace(self) -> float:
        return self.x1 + self.x2

    @property
    def det(self) -> float:
        """x1 x2 - |a|^2, the 2x2 Hermitian determinant (Lorentzian norm)."""
        return self.x1 * self.x2 - float(self.a @ self.a)

    @property
    def norm(self) -> float:
        return float(np.sqrt(self.x1**2 + self.x2**2 + 2.0 * (self.a @ self.a)))

    def __add__(self, other):
        if isinstance(other, Hermitian2):
            return Hermitian2(self.x1 + other.x1, self.x2 + other.x2, self.a + other.a)
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, Hermitian2):
            return Hermitian2(self.x1 - other.x1, self.x2 - other.x2, self.a - other.a)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, numbers.Real):
            c = float(other)
            return Hermitian2(self.x1 * c, self.x2 * c, self.a * c)
        return NotImplemented

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0

    def isclose(self, other: "Hermitian2", tol: float = 1e-9) -> bool:
        return (
            abs(self.x1 - other.x1) <= tol
            and abs(self.x2 - other.x2) <= tol
            and bool(np.allclose(self.a, other.a, atol=tol, rtol=0.0))
        )

    def __repr__(self):
        return f"Hermitian2(x1={self.x1:g}, x2={self.x2:g}, a={Octonion(self.a)!r})"


class JordanMatrix:
    """Element of H3(O): reals p, m, n and octonions a, b, c."""

    __slots__ = ("p", "m", "n", "a", "b", "c")

    def __init__(self, p, m, n, a=None, b=None, c=None):
        self.p, self.m, self.n = float(p), float(m), float(n)
        for name, val in (("a", a), ("b", b), ("c", c)):
            arr = np.zeros(8) if val is None else np.array(_as_coeffs(val))
            arr.setflags(write=False)
            setattr(self, name, arr)

    @classmethod
    def zero(cls) -> "JordanMatrix":
        return cls(0.0, 0.0, 0.0)

    @classmethod
    def identity(cls) -> "JordanMatrix":
        return cls(1.0, 1.0, 1.0)

    @classmethod
    def diag(cls, p: float, m: float, n: float) -> "JordanMatrix":
        return cls(p, m, n)

    @classmethod
    def basis_element(cls, index: int) -> "JordanMatrix":
        """The 27 coordinate matrices in vectorization order."""
        v = np.zeros(27)
        v[index] = 1.0
        return cls.from_vector(v)

    @classmethod
    def basis(cls) -> tuple["JordanMatrix", ...]:
        return tuple(cls.basis_element(t) for t in range(27))

    @classmethod
    def from_vector(cls, v: np.ndarray) -> "JordanMatrix":
        v = np.asarray(v, dtype=float).reshape(27)
        return cls(v[0], v[1], v[2], v[3:11], v[11:19], v[19:27])

    def to_vector(self) -> np.ndarray:
        return np.concatenate(([self.p, self.m, self.n], self.a, self.b, self.c))

    @classmethod
    def from_array(cls, arr: np.ndarray, tol: float = 1e-9, check: bool = True) -> "JordanMatrix":
        """Read the lower triangle and real diagonal of a (3, 3, 8) array."""
        arr = np.asarray(arr, dtype=float)
        if arr.shape != (3, 3, 8):
            raise ValueError("expected a (3, 3, 8) array")
        if check:
            res = hermiticity_residual(arr)
            if res > tol * max(1.0, float(np.abs(arr).max())):
                raise ValueError(f"array is not Hermitian (residual {res:g})")
        return cls(arr[0, 0, 0], arr[1, 1, 0], arr[2, 2, 0], arr[1, 0], arr[2, 1], arr[0, 2])

    def to_array(self) -> np.ndarray:
        arr = np.zeros((3, 3, 8))
        arr[0, 0, 0], arr[1, 1, 0], arr[2, 2, 0] = self.p, self.m, self.n
        arr[1, 0] = self.a
        arr[0, 1] = oconj(self.a)
        arr[2, 1] = self.b
        arr[1, 2] = oconj(self.b)
        arr[0, 2] = self.c
        arr[2, 0] = oconj(self.c)
        return arr

    @property
    def trace(self) -> float:
        return self.p + self.m + self.n

    @property
    def norm(self) -> float:
        """Frobenius norm (off-diagonal octonions counted twice)."""
        quad = self.p**2 + self.m**2 + self.n**2
        quad += 2.0 * (self.a @ self.a + self.b @ self.b + self.c @ self.c)
        return float(np.sqrt(quad))

    def __add__(self, other):
        if isinstance(other, JordanMatrix):
            return JordanMatrix(
                self.p + other.p, self.m + other.m, self.n + other.n,
                self.a + other.a, self.b + other.b, self.c + other.c,
            )
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, JordanMatrix):
            return JordanMatrix(
                self.p - other.p, self.m - other.m, self.n - other.n,
                self.a - other.a, self.b - other.b, self.c - other.c,
            )
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, numbers.Real):
            s = float(other)
            return JordanMatrix(self.p * s, self.m * s, self.n * s,
                                self.a * s, self.b * s, self.c * s)
        return NotImplemented

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0

    def isclose(self, other: "JordanMatrix", tol: float = 1e-9) -> bool:
        return bool(np.allclose(self.to_vector(), other.to_vector(), atol=tol, rtol=0.0))

    def __repr__(self):
        return (f"JordanMatrix(diag=({self.p:g}, {self.m:g}, {self.n:g}), "
                f"|a|={onorm(self.a):g}, |b|={onorm(self.b):g}, |c|={onorm(self.c):g})")


def jordan_vectors(arr: np.ndarray) -> np.ndarray:
    """to_vector coordinates (..., 27) of a (..., 3, 3, 8) stack: real diagonal, lower triangle."""
    return np.concatenate((arr[..., (0, 1, 2), (0, 1, 2), 0], arr[..., 1, 0, :],
                           arr[..., 2, 1, :], arr[..., 0, 2, :]), axis=-1)


def hermiticity_residual(arr: np.ndarray) -> float:
    """How far a (3, 3, 8) array is from being Hermitian."""
    res = 0.0
    for d in range(3):
        res = max(res, float(np.abs(arr[d, d, 1:]).max()))
    for r, c in ((0, 1), (0, 2), (1, 2)):
        res = max(res, float(onorm(arr[r, c] - oconj(arr[c, r]))))
    return res


# ---------------------------------------------------------------------------
# products and invariants
# ---------------------------------------------------------------------------

def jordan_product(X: JordanMatrix, Y: JordanMatrix) -> JordanMatrix:
    """Symmetrized matrix product (XY + YX)/2; Hermitian for Hermitian inputs."""
    Xa, Ya = X.to_array(), Y.to_array()
    raw = 0.5 * (omatmul(Xa, Ya) + omatmul(Ya, Xa))
    return JordanMatrix.from_array(raw, check=False)


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


def det3(X: JordanMatrix) -> float:
    """Cubic determinant tr[X, X, X]/3."""
    return triple(X, X, X).trace / 3.0


def sigma(X: JordanMatrix) -> float:
    """Second symmetric invariant tr(X * X) = ((tr X)^2 - tr(X o X))/2."""
    return 0.5 * (X.trace**2 - jordan_product(X, X).trace)


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

    Trigonometric solution of the depressed cubic; the acos argument is
    clamped to [-1, 1] to absorb roundoff, and a nearly triple root falls
    back to the real cube root.
    """
    c2, c1, c0 = X.trace, sigma(X), det3(X)
    shift = c2 / 3.0
    pdep = c1 - c2 * c2 / 3.0
    qdep = -2.0 * c2**3 / 27.0 + c1 * c2 / 3.0 - c0
    scale = max(1.0, X.norm)
    pdep = min(pdep, 0.0)
    if -pdep <= 1e-14 * scale * scale:
        roots = np.full(3, shift + np.cbrt(-qdep))
    else:
        amp = 2.0 * np.sqrt(-pdep / 3.0)
        arg = np.clip(3.0 * qdep / (pdep * amp), -1.0, 1.0)
        phi = np.arccos(arg) / 3.0
        roots = shift + amp * np.cos(phi - 2.0 * np.pi * np.arange(3) / 3.0)
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
    Ma = np.asarray(getattr(M, "arr", M), dtype=float)
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


def jordan_from_dict(d: dict) -> JordanMatrix:
    diag = d["diag"]
    if len(diag) != 3:
        raise ValueError("field 'diag' must hold 3 numbers")
    return JordanMatrix(diag[0], diag[1], diag[2], d["a"], d["b"], d["c"])


def hermitian2_to_dict(X: Hermitian2) -> dict:
    return {"diag": [X.x1, X.x2], "a": X.a.tolist()}


def hermitian2_from_dict(d: dict) -> Hermitian2:
    diag = d["diag"]
    if len(diag) != 2:
        raise ValueError("field 'diag' must hold 2 numbers")
    return Hermitian2(diag[0], diag[1], d["a"])
