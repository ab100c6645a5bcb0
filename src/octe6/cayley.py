"""Cayley spinors, the octonionic Dirac equation, and p-square decomposition.

A Cayley spinor is a (3, 8) array: the octonion column (theta1, theta2,
conj(xi)).  ``jordan.spinor_square`` squares it into the Hermitian
rank-1-style matrix

    [[theta theta^dagger, theta xi], [(theta xi)^dagger, |xi|^2]]

The momentum-space Dirac equation is trace_reversal(P) psi = 0 for a 2x2
Hermitian P; its solutions are P = +-theta theta^dagger, psi = theta xi
with theta in the complex subalgebra of P.  For spinors whose components
lie in an associative (at most quaternionic) subalgebra this is equivalent
to the vanishing of the Freudenthal square of the 3x3 square, and the
trace-1 idempotents of H3(O) are exactly the normalized quaternionic
squares.

psquare_decompose splits any Jordan matrix into eigenmatrix projections
A = sum lambda_i P_i with P_i o P_j = 0, one Lagrange interpolation on the
traceless part of A over its clustered eigenvalues.  classify is the one
owner of the rank, which every determinant-preserving transformation
leaves fixed: it reads the class off A, its Freudenthal square A#A and
det A, and psquare_decompose's p is that class.

classify, psquare_decompose and dirac_solve read the matrix's memoised
scaled invariants (``jordan._scaled_invariants``: the trace, sigma, det
and norm of the matrix divided by a power of two, and the drift, sigma
and det of its traceless part), so every threshold they apply is relative
to |A| and no test depends on the input's scale.
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
    spinor_square,
)
from .octonion import oconj, omatmul, omul, onorm


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
    entry a, with q = sign(tr P) (x1, x2) and sign(tr P) folded into a.
    The gauge, the right phase that turns the first nonzero component
    real and nonnegative, is applied in closed form: theta = (sqrt(q1),
    a / sqrt(q1)) if q1 >= q2, else (|t1|, a / |t1|) for t1 =
    conj(a) / sqrt(q2), or (t1, sqrt(q2)) where |t1| <= tol sqrt(|P|); a
    spinor's components, and so |t1|, scale as sqrt(|P|).
    """
    _, _, _, det, norm = _scaled_invariants(P)
    if norm == 0.0:
        raise ValueError("dirac_solve requires a nonzero momentum")
    if abs(det) > tol * norm**2:
        raise ValueError(f"no rank-1 factorization: det(P) = {P.det:g} is not 0")
    sign = 1.0 if P.trace > 0 else -1.0
    q1, q2 = sign * P.x1, sign * P.x2
    a = sign * P.a
    theta = np.zeros((2, 8))
    if q1 >= q2:
        theta[0, 0] = math.sqrt(q1)
        theta[1] = a / theta[0, 0]
        return theta
    t1 = oconj(a) / math.sqrt(q2)
    size = float(onorm(t1))
    if size > tol * math.sqrt(P.norm):
        # (t1, sqrt(q2)) times the right phase conj(t1) / |t1|
        theta[0, 0] = size
        theta[1] = a / size
    else:
        theta[0], theta[1, 0] = t1, math.sqrt(q2)
    return theta


def dirac_equiv_check(psi: np.ndarray) -> tuple[float, float]:
    """(Freudenthal-square norm, 2x2 Dirac residual) of a (3, 8) spinor's square.

    Both vanish exactly when the spinor's components stay inside an
    associative subalgebra.
    """
    square = spinor_square(psi)
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


# relative threshold of the rank: classify compares |A#A| with it times
# |A|^2 and |det A| with it times |A| |A#A|
CLASS_TOL = 1e-8

# relative threshold at which psquare_decompose merges eigenvalues
MERGE_TOL = 1e-7


def psquare_decompose(A: JordanMatrix) -> PSquareDecomposition:
    """Decompose A into eigenmatrix projections via Lagrange interpolation.

    Everything runs on B = A - (tr A / 3) I, whose eigenvalues (from its
    depressed cubic) and Jordan powers do not cancel against |A| near a
    multiple of I.  All three eigenvalues merge into one cluster when
    their spread is at most MERGE_TOL * |A|, a pair when its gap is at
    most MERGE_TOL * |A| and eps_mach^(1/3) times the other gap.  Each
    cluster's projector is the Lagrange polynomial of its mean over the
    other clusters' means, evaluated at B: primitive of trace 1 for one
    eigenvalue, the group projection for a merged cluster.  A numerically
    diagonal A is split directly into its diagonal idempotents instead.
    p is classify(A), the rank.

    Every tolerance is relative: the decomposition runs on A times the
    power of two that brings its largest coordinate into [1/2, 1), which
    is exact, with the eigenvalues and |A| read from A's scaled
    invariants, and the eigenvalues are scaled back.  A Hermitian2 raises
    TypeError.
    """
    exponent, trace, _, _, scale, drift, sig_b, det_b = _jordan_invariants(A)
    p = classify(A)
    A = JordanMatrix.from_vector(np.ldexp(A.to_vector(), -exponent))
    mus = [drift + r for r in _cubic_roots(sig_b, det_b, scale)]
    terms = _psquare_terms(A, trace / 3.0, mus, scale)
    return PSquareDecomposition([(np.ldexp(lam, exponent), P) for lam, P in terms], p)


def _psquare_terms(A: JordanMatrix, shift: float, mus: list, scale: float) -> list:
    """Terms (lambda, projector) of psquare_decompose for a scaled A.

    mus are the eigenvalues, descending, of B = A - shift I.
    """
    off_norm = max(float(onorm(A.a)), float(onorm(A.b)), float(onorm(A.c)))
    if off_norm <= 1e-12 * scale:
        # diagonal: idempotents can be read off directly, even when degenerate
        diag = (A.p, A.m, A.n)
        order = np.argsort(diag)[::-1]
        return [(diag[t], JordanMatrix.basis_element(int(t))) for t in order]

    # a pair merges within MERGE_TOL |A| if that errs less than the cubic's split: by
    # gap / other gap against eps_mach (other gap / gap)^2, which cross at eps_mach^(1/3)
    gaps = (mus[0] - mus[1], mus[1] - mus[2])
    split = mus[0] - mus[2] > MERGE_TOL * scale
    bounds = [0] + [k + 1 for k in (0, 1) if split and gaps[k] > min(
        MERGE_TOL * scale, math.ulp(1.0) ** (1 / 3) * gaps[1 - k])] + [3]
    nodes = [sum(mus[lo:hi]) / (hi - lo) for lo, hi in zip(bounds, bounds[1:])]

    identity = JordanMatrix.identity()
    B = A - identity * shift
    B2 = jordan_product(B, B) if len(nodes) == 3 else None
    terms = []
    for j, node in enumerate(nodes):
        # prod over the other nodes o of (B - o I) / (node - o), in I, B and B o B
        others = nodes[:j] + nodes[j + 1:]
        numer = (B2 - B * sum(others) + identity * math.prod(others) if len(others) == 2
                 else B - identity * sum(others) if others else identity)
        proj = numer * (1.0 / math.prod([node - o for o in others]))
        terms.append((shift + node, proj))
    return terms


def classify(A: JordanMatrix) -> int:
    """The rank of A, from A, its Freudenthal square A#A and det A.

    0 iff A = 0; at least 2 iff |A#A| > CLASS_TOL |A|^2; 3 iff also
    |det A| > CLASS_TOL |A| |A#A|.  Each test compares an eigenvalue with
    CLASS_TOL |A|: A#A has the eigenvalues l2 l3, l3 l1, l1 l2, and
    det A / |A#A| is about the smallest |l|.  |A#A| <= |A|^2, so
    |det A| > CLASS_TOL |A|^3 alone gives 3, and A#A is formed only past
    that test.  Everything is read on A / 2^e, e from A's scaled
    invariants, where nothing under- or overflows for a finite A, so the
    class does not depend on A's scale.  A Hermitian2 raises TypeError.
    """
    exponent, _, _, det, norm, _, _, _ = _jordan_invariants(A)
    if norm == 0.0:
        return 0
    if abs(det / norm**3) > CLASS_TOL:
        return 3
    sharp = _sharp_norm(np.ldexp(A.to_vector(), -exponent))
    if sharp <= CLASS_TOL * norm**2:
        return 1
    return 3 if abs(det) > CLASS_TOL * norm * sharp else 2


def _sharp_norm(v: np.ndarray) -> float:
    """|A#A| for the coordinates v = (p, m, n, a, b, c) of A, in closed form.

    A#A = A o A - (tr A) A + sigma(A) I has the diagonal mn - |b|^2,
    np - |c|^2, pm - |a|^2 and the stored entries conj(c b) - n a,
    conj(a c) - p b, conj(b a) - m c, the three products in one ``omul``
    call.  Its invariant form sigma^2 - 2 tr det cancels to about
    sqrt(eps_mach) |A|^2 on a rank-1 A.
    """
    p, m, n = v[:3].tolist()
    octs = v[3:].reshape(3, 8)
    off = oconj(omul(octs[[2, 0, 1]], octs[[1, 2, 0]])) - np.array([[n], [p], [m]]) * octs
    aa, bb, cc = np.add.reduce(octs * octs, axis=-1).tolist()
    diag = (m * n - bb, n * p - cc, p * m - aa)
    return math.sqrt(sum(d * d for d in diag) + 2.0 * float(np.add.reduce(off * off, axis=None)))


# ---------------------------------------------------------------------------
# seeded sampling
# ---------------------------------------------------------------------------

def random_quaternionic_spinor(rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    """A (3, 8) spinor with theta, then xi, drawn in the quaternions span{1, i, j, k}."""
    psi = np.zeros((3, 8))
    psi[:, :4] = rng.standard_normal((3, 4)) * scale
    psi[2] = oconj(psi[2])
    return psi
