"""Cayley spinors, the octonionic Dirac equation, and p-square decomposition.

A :class:`CayleySpinor` is a 3-component octonionic column (theta1, theta2,
conj(xi)).  Its square is the Hermitian rank-1-style matrix

    [[theta theta^dagger, theta xi], [(theta xi)^dagger, |xi|^2]]

The momentum-space Dirac equation is trace_reversal(P) psi = 0 for a 2x2
Hermitian P; its solutions are P = +-theta theta^dagger, psi = theta xi
with theta in the complex subalgebra of P.  For spinors whose components
lie in an associative (at most quaternionic) subalgebra this is equivalent
to the vanishing of the Freudenthal square of the 3x3 square, and the
trace-1 idempotents of H3(O) are exactly the normalized quaternionic
squares.

psquare_decompose splits any Jordan matrix into eigenmatrix projections
A = sum lambda_i P_i with P_i o P_j = 0; the class p counts nonzero
eigenvalues and is read off the determinant / second-invariant / trace
cascade, which every determinant-preserving transformation leaves fixed.

classify, psquare_decompose and dirac_solve read the matrix's memoised
scaled invariants (``jordan._scaled_invariants``: the trace, sigma, det
and norm of the matrix divided by a power of two), so every threshold
they apply is relative to |A| and no test depends on the input's scale.
"""

from __future__ import annotations

import math

import numpy as np

from .jordan import (
    Hermitian2,
    JordanMatrix,
    _cubic_roots,
    _jordan_invariants,
    _scaled_invariants,
    block_split,
    freudenthal,
    jordan_product,
)
from .octonion import _as_coeffs, oconj, omatmul, omul, onorm, subalgebra_dimension


class CayleySpinor:
    """Two-component spinor plus an octonionic scalar, as one column."""

    __slots__ = ("theta", "xi")

    def __init__(self, theta, xi):
        th = np.array(theta, dtype=float).reshape(2, 8)
        th.setflags(write=False)
        x = np.array(_as_coeffs(xi))
        x.setflags(write=False)
        self.theta = th
        self.xi = x

    @classmethod
    def from_octonions(cls, theta1, theta2, xi) -> "CayleySpinor":
        return cls(np.stack([_as_coeffs(theta1), _as_coeffs(theta2)]), xi)

    @property
    def norm_sq(self) -> float:
        """theta^dagger theta + |xi|^2, the trace of the square."""
        return float(np.sum(self.theta**2) + self.xi @ self.xi)

    def column(self) -> np.ndarray:
        """The (3, 8) column (theta1, theta2, conj(xi))."""
        return np.vstack([self.theta, oconj(self.xi)[None, :]])

    def square(self) -> JordanMatrix:
        """The Hermitian square Psi Psi^dagger."""
        th1, th2, xi = self.theta[0], self.theta[1], self.xi
        return JordanMatrix(
            float(th1 @ th1),
            float(th2 @ th2),
            float(xi @ xi),
            a=omul(th2, oconj(th1)),
            b=oconj(omul(th2, xi)),
            c=omul(th1, xi),
        )

    def subalgebra_dim(self, tol: float = 1e-9) -> int:
        """Dimension of the subalgebra generated by the three components."""
        return subalgebra_dimension([self.theta[0], self.theta[1], self.xi], tol)

    def __repr__(self):
        return f"CayleySpinor(norm_sq={self.norm_sq:g})"


# ---------------------------------------------------------------------------
# Dirac machinery
# ---------------------------------------------------------------------------

def trace_reversal(P: Hermitian2) -> Hermitian2:
    """P - tr(P) I; reverses the trace and is an involution."""
    t = P.trace
    return Hermitian2(P.x1 - t, P.x2 - t, P.a)


def dirac_residual(P: Hermitian2, psi) -> float:
    """Norm of trace_reversal(P) psi for a 2-component spinor psi."""
    psi = np.asarray(psi, dtype=float).reshape(2, 1, 8)
    return float(np.sqrt(np.sum(omatmul(trace_reversal(P).to_array(), psi) ** 2)))


def dirac_solve(P: Hermitian2, tol: float = 1e-9) -> np.ndarray:
    """Factor a null 2x2 momentum as theta theta^dagger = sign(tr P) P.

    Requires P != 0 and det(P) = 0 relative to |P|^2, both tested on P's
    scaled invariants, so neither test depends on P's scale.  The
    returned theta lies in the complex subalgebra of P's off-diagonal
    entry; the gauge is fixed by rotating the first nonzero component
    real and nonnegative with a right phase.
    """
    exponent, _, _, det, norm = _scaled_invariants(P)
    peak = math.ldexp(float(np.abs(P.to_vector()).max()), -exponent)
    if peak == 0.0 or norm <= tol * peak:
        raise ValueError("dirac_solve requires a nonzero momentum")
    if abs(det) > tol * norm**2:
        raise ValueError(f"no rank-1 factorization: det(P) = {P.det:g} is not 0")
    scale = P.norm
    sign = 1.0 if P.trace > 0 else -1.0
    q1, q2 = sign * P.x1, sign * P.x2
    a = sign * P.a
    if q1 >= q2:
        t1 = np.zeros(8)
        t1[0] = np.sqrt(max(q1, 0.0))
        t2 = a / t1[0]
    else:
        t2 = np.zeros(8)
        t2[0] = np.sqrt(max(q2, 0.0))
        t1 = oconj(a) / t2[0]
    theta = np.stack([t1, t2])
    # right phase in the shared complex subalgebra: first nonzero entry >= 0
    for comp in theta:
        nrm = float(onorm(comp))
        if nrm > tol * scale:
            w = oconj(comp) / nrm
            theta = np.stack([omul(theta[0], w), omul(theta[1], w)])
            break
    return theta


def dirac_equiv_check(psi: CayleySpinor) -> tuple[float, float]:
    """(Freudenthal-square norm, 2x2 Dirac residual) of a spinor's square.

    Both vanish exactly when the spinor's components stay inside an
    associative subalgebra.
    """
    square = psi.square()
    freud = freudenthal(square, square)
    P, spinor, _ = block_split(square)
    return freud.norm, dirac_residual(P, spinor)


def cayley_plane_check(P: JordanMatrix, tol: float = 1e-9) -> bool:
    """Whether P o P = P and tr P = 1, i.e. P is a trace-1 idempotent.

    |P o P - P| is bounded relative to |P|^2, like the layer predicates.
    Both sides are formed on S = P / 2^e, e as in ``_scaled_invariants``:
    with a = 2^min(e, 0) and b = 2^-max(e, 0), both at most 1, the bound
    reads |a S o S - b S| <= tol a |S|^2, and nothing in it overflows.
    """
    if not abs(P.trace - 1.0) <= tol:
        return False
    e = _scaled_invariants(P)[0]
    S = type(P).from_vector(np.ldexp(P.to_vector(), -e))
    a, b = math.ldexp(1.0, min(e, 0)), math.ldexp(1.0, -max(e, 0))
    return (a * jordan_product(S, S) - b * S).norm <= tol * a * S.norm**2


# ---------------------------------------------------------------------------
# p-square decomposition and classification
# ---------------------------------------------------------------------------

class PSquareDecomposition:
    """Eigenmatrix decomposition A = sum lambda_i P_i with P_i o P_j = 0."""

    __slots__ = ("terms", "p")

    def __init__(self, terms, p: int):
        self.terms = tuple((float(lam), proj) for lam, proj in terms)
        self.p = int(p)

    @property
    def lambdas(self) -> np.ndarray:
        return np.array([lam for lam, _ in self.terms])

    @property
    def projectors(self) -> tuple[JordanMatrix, ...]:
        return tuple(proj for _, proj in self.terms)

    def reconstruct(self) -> JordanMatrix:
        out = JordanMatrix.zero()
        for lam, proj in self.terms:
            out = out + proj * lam
        return out

    def __repr__(self):
        lams = ", ".join(f"{lam:g}" for lam in self.lambdas)
        return f"PSquareDecomposition(lambdas=[{lams}], p={self.p})"


# relative threshold of the class p: classify compares the invariants of
# A / |A| with it, psquare_decompose the eigenvalues over |A|
CLASS_TOL = 1e-8

# eigenvalues of psquare_decompose closer than MERGE_TOL * |A| are merged
MERGE_TOL = 1e-7


def psquare_decompose(A: JordanMatrix) -> PSquareDecomposition:
    """Decompose A into eigenmatrix projections via Lagrange interpolation.

    Distinct eigenvalues give primitive trace-1 projections from the
    quadratic interpolant in Jordan powers of A - (tr A / 3) I, which has
    A's projectors and eigenvalues shifted by tr A / 3: near a multiple of
    I its numerators do not cancel against |A|^2.  Eigenvalues that agree
    within MERGE_TOL * |A| are merged: the linear interpolant on the
    distinct values yields the (non-primitive) group projection, except
    that a numerically diagonal A is split directly into its diagonal
    idempotents.
    p counts the eigenvalues, with multiplicity, above CLASS_TOL * |A|.

    Every tolerance is relative: the decomposition runs on A times the
    power of two that brings its largest coordinate into [1/2, 1), which
    is exact, with the eigenvalues and |A| read from A's scaled
    invariants, and the eigenvalues are scaled back.  A Hermitian2 raises
    TypeError.
    """
    exponent, trace, sig, det, scale = _jordan_invariants(A)
    A = JordanMatrix.from_vector(np.ldexp(A.to_vector(), -exponent))
    lams = _cubic_roots(trace, sig, det, scale)
    terms, lams = _psquare_terms(A, lams, scale)
    p = sum(1 for lam in lams if abs(lam) > CLASS_TOL * scale)
    return PSquareDecomposition([(np.ldexp(lam, exponent), P) for lam, P in terms], p)


def _psquare_terms(A: JordanMatrix, lams: np.ndarray, scale: float) -> tuple[list, list]:
    """Terms (lambda, projector) of psquare_decompose for a scaled A with eigenvalues lams.

    Returns the terms and the eigenvalues with multiplicity.
    """
    off_norm = max(float(onorm(A.a)), float(onorm(A.b)), float(onorm(A.c)))
    if off_norm <= 1e-12 * scale:
        # diagonal: idempotents can be read off directly, even when degenerate
        diag = (A.p, A.m, A.n)
        order = np.argsort(diag)[::-1]
        terms = [(diag[t], JordanMatrix.basis_element(int(t))) for t in order]
        return terms, [d for d, _ in terms]

    identity = JordanMatrix.identity()
    tol = MERGE_TOL * scale
    clusters: list[list[float]] = [[lams[0]]]
    for lam in lams[1:]:
        if abs(lam - clusters[-1][-1]) <= tol:
            clusters[-1].append(lam)
        else:
            clusters.append([lam])

    if len(clusters) == 1:
        # triple eigenvalue: A is lambda I up to tolerance
        return [(float(np.mean(clusters[0])), identity)], clusters[0]

    if len(clusters) == 2:
        mu = float(np.mean(clusters[0]))
        nu = float(np.mean(clusters[1]))
        p_mu = (A - identity * nu) * (1.0 / (mu - nu))
        p_nu = (A - identity * mu) * (1.0 / (nu - mu))
        return [(mu, p_mu), (nu, p_nu)], [mu] * len(clusters[0]) + [nu] * len(clusters[1])

    # interpolate on B = A - (tr A / 3) I: on A itself each numerator cancels
    # to rounding of |A|^2 and is then divided by about |B|^2, far smaller
    # near a multiple of I
    shift = A.trace / 3.0
    B = A - identity * shift
    mus = [lam - shift for lam in lams]
    B2 = jordan_product(B, B)
    terms = []
    for idx in range(3):
        others = [mus[t] for t in range(3) if t != idx]
        numer = B2 - B * (others[0] + others[1]) + identity * (others[0] * others[1])
        proj = numer * (1.0 / ((mus[idx] - others[0]) * (mus[idx] - others[1])))
        terms.append((lams[idx], proj))
    return terms, lams


def classify(A: JordanMatrix) -> int:
    """Number of nonzero eigenvalues via the det / sigma / trace cascade.

    The cascade compares det/|A|^3, sigma/|A|^2 and tr/|A| with the fixed
    threshold CLASS_TOL, so the class does not depend on A's scale.  All
    of them are read from A's scaled invariants, where no invariant
    under- or overflows for a finite A.  A Hermitian2 raises TypeError.
    """
    _, trace, sig, det, norm = _jordan_invariants(A)
    if norm == 0.0:
        return 0
    if abs(det / norm**3) > CLASS_TOL:
        return 3
    if abs(sig / norm**2) > CLASS_TOL:
        return 2
    if abs(trace / norm) > CLASS_TOL:
        return 1
    return 0


# ---------------------------------------------------------------------------
# seeded sampling
# ---------------------------------------------------------------------------

def random_quaternionic_spinor(rng: np.random.Generator, scale: float = 1.0) -> CayleySpinor:
    """Components drawn in the quaternion subalgebra span{1, i, j, k}."""
    theta = np.zeros((2, 8))
    theta[:, :4] = rng.standard_normal((2, 4)) * scale
    xi = np.zeros(8)
    xi[:4] = rng.standard_normal(4) * scale
    return CayleySpinor(theta, xi)


def random_octonionic_spinor(rng: np.random.Generator, scale: float = 1.0) -> CayleySpinor:
    """Full-octonionic spinor; redrawn until the components generate all of O."""
    while True:
        psi = CayleySpinor(rng.standard_normal((2, 8)) * scale,
                           rng.standard_normal(8) * scale)
        if psi.subalgebra_dim() == 8:
            return psi
