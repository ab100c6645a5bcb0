"""Seeded samples and a fixed matrix that only the tests use."""

import numpy as np

from octe6.octonion import oconj, onorm, subalgebra_dimension


def cyclic_permutation() -> np.ndarray:
    """The 3x3 cyclic permutation matrix, read-only; its inverse is its square and dagger."""
    arr = np.zeros((3, 3, 8))
    arr[0, 1, 0] = arr[1, 2, 0] = arr[2, 0, 0] = 1.0
    arr.setflags(write=False)
    return arr


def random_octonion(rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    """Standard-normal coefficients, optionally rescaled."""
    return rng.standard_normal(8) * scale


def random_imaginary_unit(rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(8)
    v[0] = 0.0
    return v / onorm(v)


def random_octonionic_spinor(rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    """A full-octonionic (3, 8) spinor; redrawn until the components generate all of O."""
    while True:
        psi = rng.standard_normal((3, 8)) * scale
        psi[2] = oconj(psi[2])
        if subalgebra_dimension(psi) == 8:
            return psi
