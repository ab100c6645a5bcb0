"""Acceptance suite: every headline claim at its stated tolerance.

Each criterion prints one ``[PASS]``/``[FAIL]`` line (visible with
``pytest -s``) and asserts its bound, so the suite doubles as a
machine-checkable report.
"""

import numpy as np

from octe6.cayley import (
    cayley_plane_check,
    classify,
    dirac_equiv_check,
    psquare_decompose,
    random_octonionic_spinor,
    random_quaternionic_spinor,
)
from octe6.generators import (
    EXPECTED_DIMENSION,
    boost_curves,
    g2_curves,
    lie_element,
    lie_rank,
    rank_gap,
    roster,
    so8_action_check,
    span_equal,
)
from octe6.jordan import (
    Hermitian2,
    JordanMatrix,
    char_residual,
    det3,
    det_block_identity,
    jordan_product,
    random_jordan,
)
from octe6.octonion import (
    BASIS_NAMES,
    conj_by,
    exp_imag,
    is_automorphism,
    onorm,
    random_unit_octonion,
    triality_ell_conjugation_check,
)

SEED = 20260810
print(f"[seed] acceptance sampling uses seed {SEED}")


def report(criterion: str, passed: bool, detail: str):
    print(f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


def test_criterion_1_lie_algebra_dimensions():
    """Numerical ranks of the generator rosters match the group dimensions."""
    lines = []
    passed = True
    cases = [("E6", None), ("F4", None), ("SO91", 0), ("SO91", 1), ("SO91", 2),
             ("SO9", 0), ("SO9", 1), ("SO9", 2), ("SO8", 0), ("SO7", 0), ("G2", 0)]
    for group, slot in cases:
        curves = roster(group) if slot is None else roster(group, slot=slot)
        rank = lie_rank(curves, rel_tol=1e-6)
        gap = rank_gap(curves, rel_tol=1e-6)
        expected = EXPECTED_DIMENSION[group]
        ok = rank == expected and gap >= 1e4
        passed &= ok
        tag = group if slot is None else f"{group}[slot{slot}]"
        lines.append(f"{tag}={rank}/{expected} gap={gap:.1e}")
    report("criterion 1 (Lie-algebra dimensions)", passed, "; ".join(lines))


def test_criterion_2_determinant_preservation():
    """200 random 5-deep roster compositions preserve det3 to relative 1e-7."""
    rng = np.random.default_rng(SEED)
    curves = roster("E6")
    worst = 0.0
    min_det = np.inf
    for _ in range(200):
        picks = rng.choice(len(curves), size=5, replace=False)
        nm = curves[picks[0]](rng.uniform(-1, 1))
        for t in picks[1:]:
            nm = nm.compose(curves[t](rng.uniform(-1, 1)))
        X = random_jordan(rng)
        before = det3(X)
        after = det3(nm.apply(X))
        min_det = min(min_det, abs(before))
        worst = max(worst, abs(after - before) / abs(before))
    # the fixed seed keeps every sample's determinant well away from zero
    assert min_det > 1e-3, f"ill-conditioned sample: |det| = {min_det:g}"
    report("criterion 2 (determinant preservation)", worst <= 1e-7,
           f"worst relative drift {worst:.2e} over 200 compositions (min |det| {min_det:.2e})")


def test_criterion_3_trace_preservation():
    """Rotation rosters preserve the trace; boosts at theta=0.5 do not."""
    rng = np.random.default_rng(SEED)
    X = random_jordan(rng)
    worst = 0.0
    for curve in roster("F4"):
        got = curve(rng.uniform(-1.5, 1.5)).apply(X)
        worst = max(worst, abs(got.trace - X.trace))
    boosts_move = np.inf
    identity = JordanMatrix.identity()
    for slot in range(3):
        for curve in boost_curves(slot):
            change = abs(curve(0.5).apply(identity).trace - identity.trace)
            boosts_move = min(boosts_move, change)
    ok = worst <= 1e-9 and boosts_move > 1e-3
    report("criterion 3 (trace preservation)", ok,
           f"F4 worst drift {worst:.2e}; smallest boost trace change {boosts_move:.2e}")


def test_criterion_4_characteristic_equation():
    """char_residual <= 1e-8 * scale^3 on 1000 random Jordan matrices."""
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(1000):
        X = random_jordan(rng)
        worst = max(worst, char_residual(X).norm / X.norm**3)
    report("criterion 4 (characteristic equation)", worst <= 1e-8,
           f"worst scaled residual {worst:.2e} over 1000 matrices")


def test_criterion_5_block_determinant_identity():
    """det3 = (det X) n + 2 X.(theta theta^dagger) to 1e-9, complex theta."""
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(1000):
        X = Hermitian2(rng.standard_normal(), rng.standard_normal(), rng.standard_normal(8))
        s = rng.standard_normal(8)
        s[0] = 0.0
        s /= onorm(s)
        coeff = rng.standard_normal((2, 2))
        theta = coeff[:, :1] * np.eye(8)[0] + coeff[:, 1:] * s
        lhs, rhs = det_block_identity(X, theta, rng.standard_normal())
        worst = max(worst, abs(lhs - rhs))
    report("criterion 5 (block determinant identity)", worst <= 1e-9,
           f"worst absolute gap {worst:.2e} over 1000 instances")


def test_criterion_6_triality_suite():
    """Diagonal action, four-flip equality, fixed subalgebra, l-conjugation, spans."""
    rng = np.random.default_rng(SEED)
    so8_res = 0.0
    for _ in range(20):
        so8_res = max(so8_res, so8_action_check(random_unit_octonion(rng), random_jordan(rng)))

    curve = next(c for c in g2_curves(0) if c.label.startswith("four-flip[i,j;w=l"))
    flip_res = 0.0
    fix_res = 0.0
    for theta in (0.3, 0.9, 1.7):
        op = curve(theta).as_linear_op()
        amap, bmap, cmap = op[3:11, 3:11], op[11:19, 11:19], op[19:27, 19:27]
        flip_res = max(flip_res, float(np.abs(amap - bmap).max()),
                       float(np.abs(amap - cmap).max()))
        for name in ("k", "l"):
            e = np.eye(8)[BASIS_NAMES.index(name)]
            fix_res = max(fix_res, float(onorm(amap @ e - e)))

    ell_ok, ell_res = triality_ell_conjugation_check()

    copies = [[lie_element(c) for c in roster("SO8", slot=slot)] for slot in range(3)]
    spans_ok = span_equal(copies[0], copies[1]) and span_equal(copies[0], copies[2])

    ok = (so8_res <= 1e-9 and flip_res <= 1e-8 and fix_res <= 1e-8
          and ell_ok and spans_ok)
    report("criterion 6 (triality suite)", ok,
           f"diag action {so8_res:.1e}; four-flip equality {flip_res:.1e}; "
           f"fix(k,l) {fix_res:.1e}; l-conjugation {ell_res:.1e}; SO8 spans equal {spans_ok}")


def test_criterion_7_automorphism_boundary():
    """Conjugation by e^{q pi/3 k} is an automorphism; pi/4 and pi/5 are not."""
    worst_good = 0.0
    best_bad = np.inf
    for name in ("i", "j", "l"):
        q = np.eye(8)[BASIS_NAMES.index(name)]
        for k in range(1, 6):
            u = exp_imag(q, k * np.pi / 3)
            _, res = is_automorphism(lambda x: conj_by(u, x))
            worst_good = max(worst_good, res)
        for theta in (np.pi / 4, np.pi / 5):
            u = exp_imag(q, theta)
            _, res = is_automorphism(lambda x: conj_by(u, x))
            best_bad = min(best_bad, res)
    ok = worst_good <= 1e-9 and best_bad >= 1e-2
    report("criterion 7 (automorphism boundary)", ok,
           f"sixth-root worst residual {worst_good:.2e}; "
           f"off-lattice best residual {best_bad:.2e}")


def test_criterion_8_dirac_equivalence():
    """Quaternionic spinors solve both Dirac forms; octonionic ones fail."""
    rng = np.random.default_rng(SEED)
    worst_q = 0.0
    plane_ok = True
    for _ in range(100):
        psi = random_quaternionic_spinor(rng)
        freud_norm, residual = dirac_equiv_check(psi)
        worst_q = max(worst_q, freud_norm, residual)
        plane_ok &= cayley_plane_check(psi.square() * (1.0 / psi.norm_sq))
        plane_ok &= not cayley_plane_check(psi.square() * (2.0 / psi.norm_sq))
    best_o = np.inf
    for _ in range(100):
        psi = random_octonionic_spinor(rng)
        freud_norm, _ = dirac_equiv_check(psi)
        best_o = min(best_o, freud_norm)
        plane_ok &= not cayley_plane_check(psi.square() * (1.0 / psi.norm_sq))
    ok = worst_q <= 1e-9 and best_o >= 1e-3 and plane_ok
    report("criterion 8 (Dirac equivalence)", ok,
           f"quaternionic worst residual {worst_q:.2e}; octonionic smallest "
           f"Freudenthal norm {best_o:.2e}; Cayley-plane boundary exact {plane_ok}")


def test_criterion_9_psquare_pipeline():
    """Decomposition residuals, classification consistency, class invariance."""
    rng = np.random.default_rng(SEED)
    worst = 0.0
    consistent = True
    for _ in range(500):
        A = random_jordan(rng)
        scale = A.norm
        dec = psquare_decompose(A)
        worst = max(worst, (dec.reconstruct() - A).norm / scale)
        projs = dec.projectors
        for t, (lam, P) in enumerate(dec.terms):
            worst = max(worst, (jordan_product(A, P) - P * lam).norm / scale)
            for other in projs[t + 1:]:
                worst = max(worst, jordan_product(P, other).norm / scale)
        consistent &= classify(A) == dec.p
    for A in (JordanMatrix.identity(), JordanMatrix.diag(1, 1, 0),
              JordanMatrix.diag(1, 0, 0), JordanMatrix.zero(),
              random_quaternionic_spinor(rng).square()):
        consistent &= classify(A) == psquare_decompose(A).p

    curves = roster("E6")
    representatives = [
        random_jordan(rng),
        JordanMatrix.diag(1, 1, 0),
        random_quaternionic_spinor(rng).square(),
        JordanMatrix.zero(),
    ]
    invariant = True
    for _ in range(100):
        picks = rng.choice(len(curves), size=3, replace=False)
        nm = curves[picks[0]](rng.uniform(-1, 1))
        for t in picks[1:]:
            nm = nm.compose(curves[t](rng.uniform(-1, 1)))
        A = representatives[int(rng.integers(len(representatives)))]
        invariant &= classify(nm.apply(A)) == classify(A)

    ok = worst <= 1e-7 and consistent and invariant
    report("criterion 9 (p-square pipeline)", ok,
           f"worst scaled residual {worst:.2e} over 500 matrices; "
           f"classification consistent {consistent}; roster-invariant {invariant}")
