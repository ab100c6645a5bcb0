"""Computational engine for octonions, H3(O), E6 generators, and Cayley spinors.

The package is organized bottom-up:

* :mod:`octe6.octonion`   -- the division algebra over a fixed signed table
* :mod:`octe6.jordan`     -- 2x2 and 3x3 octonionic Hermitian matrices
* :mod:`octe6.transform`  -- nested matrix actions, predicates, embeddings
* :mod:`octe6.generators` -- group rosters, Lie elements, numerical ranks
* :mod:`octe6.cayley`     -- Dirac equation, Cayley plane, p-squares
* :mod:`octe6.cli`        -- verification suites with JSON reports
"""

from .octonion import (
    BASIS_NAMES,
    conj_by,
    exp_imag,
    is_automorphism,
    signed_table,
    subalgebra_dimension,
    triality_ell_conjugation_check,
)
from .jordan import (
    Hermitian2,
    JordanMatrix,
    char_residual,
    det3,
    det_block_identity,
    eigenvalues,
    freudenthal,
    jordan_product,
    lorentz_inner,
    sigma,
    trace_identity_check,
    triple,
)
from .transform import (
    NestedMap,
    complex_det,
    cyclic_permutation,
    embed,
    is_compatible,
    is_complex,
    is_welldefined,
)
from .generators import (
    EXPECTED_DIMENSION,
    GeneratorCurve,
    g2_curves,
    lie_element,
    lie_elements,
    lie_rank,
    roster,
    so8_action_check,
    span_equal,
)
from .cayley import (
    CayleySpinor,
    PSquareDecomposition,
    cayley_plane_check,
    classify,
    dirac_equiv_check,
    dirac_residual,
    dirac_solve,
    e6_preserves_class_check,
    psquare_decompose,
    trace_reversal,
)

__version__ = "0.1.0"
