"""Reference values computed without the code under test.

The octonion product is rebuilt here from the convention stated in the
README (basis ``(1, i, j, k, kl, jl, il, l)``, an octonion is ``p + q l``
with quaternions ``p``, ``q`` and ``(p, q)(r, s) = (p r - conj(s) q,
s p + q conj(r))``) with Hamilton's formulas written out, so a wrong table
or kernel in ``octe6.octonion`` cannot make these references agree with it.
"""

from __future__ import annotations

import numpy as np

# the paper's dimension table, not read from octe6
PAPER_DIMENSION = {"E6": 78, "F4": 52, "SO91": 45, "SO9": 36, "SO8": 28, "SO7": 21, "G2": 14}


def _qmul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Hamilton product on (..., 4) arrays, convention ij = k."""
    a0, a1, a2, a3 = np.moveaxis(x, -1, 0)
    b0, b1, b2, b3 = np.moveaxis(y, -1, 0)
    return np.stack([
        a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
        a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
        a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
        a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
    ], axis=-1)


def _qconj(x: np.ndarray) -> np.ndarray:
    return x * np.array([1.0, -1.0, -1.0, -1.0])


# coefficient c of (1, i, j, k, kl, jl, il, l): p = c[0:4], q = c[[7, 6, 5, 4]]
_Q_INDEX = [7, 6, 5, 4]


def omul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Octonion product on (..., 8) arrays by Cayley-Dickson doubling."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    p, q = x[..., :4], x[..., _Q_INDEX]
    r, s = y[..., :4], y[..., _Q_INDEX]
    z1 = _qmul(p, r) - _qmul(_qconj(s), q)
    z2 = _qmul(s, p) + _qmul(q, _qconj(r))
    out = np.empty(np.broadcast_shapes(x.shape, y.shape))
    out[..., :4] = z1
    out[..., _Q_INDEX] = z2
    return out


def oconj(x: np.ndarray) -> np.ndarray:
    return np.asarray(x, dtype=float) * np.array([1.0] + [-1.0] * 7)


def det_closed_form(v: np.ndarray) -> np.ndarray:
    """pmn - p|b|^2 - m|c|^2 - n|a|^2 + 2 Re((b a) c) on (..., 27) Jordan vectors.

    Coordinates follow ``JordanMatrix.to_vector``: (p, m, n, a, b, c).
    """
    v = np.asarray(v, dtype=float)
    p, m, n = v[..., 0], v[..., 1], v[..., 2]
    a, b, c = v[..., 3:11], v[..., 11:19], v[..., 19:27]
    sq = lambda x: np.sum(x * x, axis=-1)  # noqa: E731
    return (p * m * n - p * sq(b) - m * sq(c) - n * sq(a)
            + 2.0 * omul(omul(b, a), c)[..., 0])


def frobenius(v: np.ndarray) -> np.ndarray:
    """Frobenius norm of Jordan vectors (off-diagonal octonions count twice)."""
    v = np.asarray(v, dtype=float)
    return np.sqrt(np.sum(v[..., :3] ** 2, axis=-1) + 2.0 * np.sum(v[..., 3:] ** 2, axis=-1))


def complex_eigenvalues(diag, a: complex, b: complex, c: complex) -> np.ndarray:
    """Descending eigenvalues of [[p, conj a, c], [a, m, conj b], [conj c, b, n]]."""
    p, m, n = diag
    H = np.array([
        [p, np.conj(a), c],
        [a, m, np.conj(b)],
        [np.conj(c), b, n],
    ], dtype=complex)
    return np.linalg.eigvalsh(H)[::-1]


def spinor_square(theta1: np.ndarray, theta2: np.ndarray) -> tuple[float, float, np.ndarray]:
    """(|t1|^2, |t2|^2, t2 conj(t1)): the 2x2 matrix theta theta^dagger."""
    return (float(theta1 @ theta1), float(theta2 @ theta2), omul(theta2, oconj(theta1)))
