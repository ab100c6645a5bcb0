"""Command-line verification surface with machine-readable reports.

Subcommands::

    table              print the signed 8x8 multiplication table
    verify <group>     roster build, Lie rank, preservation checks
    decompose <file>   p-square decomposition of a Jordan matrix JSON
    dirac <file>       rank-1 factorization of a 2x2 momentum JSON
    triality           diagonal action, four-flip equality, l-conjugation
    report-all         every verify suite plus the triality suite

Reports are JSON on stdout (``--format csv`` flattens the check records,
one row per check, led by the name of the suite that made it);
diagnostics and wall time go to stderr so identical flags and seed yield
byte-identical stdout.  Exit codes: 0 all checks pass, 1 a check failed,
2 usage or parse errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

from . import cayley, generators, jordan, octonion, transform


def _check(name: str, observed, expected, tolerance=None) -> dict:
    if tolerance is None:
        passed = observed == expected
    else:
        passed = abs(observed - expected) <= tolerance
    return {
        "name": name,
        "expected": expected,
        "observed": observed,
        "tolerance": tolerance,
        "pass": bool(passed),
    }


def _bound(name: str, observed: float, bound: float) -> dict:
    return {
        "name": name,
        "expected": f"<= {bound:g}",
        "observed": observed,
        "tolerance": bound,
        "pass": bool(observed <= bound),
    }


def cmd_table(args) -> dict:
    table = octonion.signed_table()
    return {
        "suite": "table",
        "basis": list(octonion.BASIS_NAMES),
        "encoding": "entry (a, b) is sign * (1-based index of e_a e_b)",
        "table": table.tolist(),
        "pass": True,
        "checks": [],
    }


def _layer_residual(curves, tol: float) -> float:
    """Largest well-definedness or compatibility residual of the curves' blocks at 0.37.

    inf when a block is not complex, has a non-real determinant or fails
    either predicate.  All blocks go through each predicate in one pass.
    """
    blocks = [curve.layer_arrays([0.37])[0] for curve in curves]
    layers = np.concatenate([transform.embed(b, c.slot) for b, c in zip(blocks, curves)])
    blocks = np.concatenate(blocks)
    try:
        _, det_real = transform.complex_det(blocks)
    except ValueError:  # a block is not complex
        return np.inf
    welldefined, welldefined_res = transform.is_welldefined(layers, tol)
    compatible, compatible_res = transform.is_compatible(blocks, tol)
    if not (det_real.all() and welldefined.all() and compatible.all()):
        return np.inf
    return float(max(welldefined_res.max(), compatible_res.max()))


def cmd_verify(args) -> dict:
    group = generators.normalize_group(args.group)
    curves = generators.roster(group, slot=args.slot)
    rng = np.random.default_rng(args.seed)
    sv = generators.singular_values(curves)
    rank, kept, dropped = generators.rank_cut(sv, args.rank_tol)
    expected = generators.EXPECTED_DIMENSION[group]
    checks = [_check("lie-rank", rank, expected)]

    sample = [curves[idx] for idx in rng.choice(len(curves), size=min(6, len(curves)), replace=False)]
    checks.append(_bound("layer-predicates", _layer_residual(sample, args.tol), args.tol * 10))

    samples = []
    for _ in range(10):
        picks = rng.choice(len(curves), size=3, replace=False)
        nm = curves[picks[0]](rng.uniform(-1, 1))
        for t in picks[1:]:
            nm = nm.compose(curves[t](rng.uniform(-1, 1)))
        X = jordan.random_jordan(rng)
        samples.append((jordan.det3(X), jordan.det3(nm.apply(X)), X.norm))
    # each change relative to |X|^3 as in classify; the cube is numpy's,
    # whose last bit differs from Python's float ** 3 on some values
    before, after, norms = np.array(samples).T
    det_res = float((np.abs(after - before) / norms ** 3).max())
    checks.append(_bound("determinant-preservation", det_res, 1e-7))

    if all(curve.kind == "trig" for curve in curves):
        # rosters without boosts, the only cosh/exp curves, are unitary, so
        # the trace is preserved; each change relative to |X|, as the det
        # change is to |X|^3
        trace_res = 0.0
        for _ in range(10):
            pick = int(rng.integers(len(curves)))
            X = jordan.random_jordan(rng)
            nm = curves[pick](rng.uniform(-1, 1))
            trace_res = max(trace_res, abs(nm.apply(X).trace - X.trace) / X.norm)
        checks.append(_bound("trace-preservation", trace_res, args.tol * 10))

    report = {
        "suite": f"verify-{group}",
        "group": group,
        "curve_count": len(curves),
        "rank": rank,
        "expected": expected,
        "singular_values_head": [float(s) for s in sv[:8]],
        # null where nothing is dropped (or kept) at the cut
        "rank_gap": kept / dropped if dropped else None,
        "singular_values_at_cut": [kept, dropped],
        "seed": args.seed,
        "checks": checks,
        "pass": all(c["pass"] for c in checks),
    }
    return report


def cmd_decompose(args) -> dict:
    A = _finite_scale(_load_json(args.file, jordan.jordan_from_dict), args.file, "matrix")
    checks = []
    report = {"suite": "decompose"}
    if args.apply:
        nm = _load_json(args.apply, transform.nested_map_from_json)
        if nm.dim != 3:
            raise CliInputError(f"{args.apply}: a 3x3 matrix needs 3x3 layers, not {nm.dim}x{nm.dim}")
        with np.errstate(over="ignore", invalid="ignore"):  # an overflowing image exits 2
            transformed = _finite_scale(nm.apply(A), args.apply, "image")
        checks.append(_check("class-invariance", cayley.classify(transformed),
                             cayley.classify(A)))
        report["applied_map"] = transform.nested_map_to_json(nm)
        A = transformed
    dec = cayley.psquare_decompose(A)
    residual = (dec.reconstruct() - A).norm
    checks += [
        _bound("reconstruction-residual", residual, args.tol * 100 * A.norm),
        _check("class-vs-cascade", dec.p, cayley.classify(A)),
    ]
    report.update({
        "lambdas": [float(lam) for lam in dec.lambdas],
        "projectors": [jordan.jordan_to_dict(proj) for proj in dec.projectors],
        "p": dec.p,
        "seed": args.seed,
        "checks": checks,
        "pass": all(c["pass"] for c in checks),
    })
    return report


def cmd_dirac(args) -> dict:
    P = _load_json(args.file, lambda d: jordan.hermitian2_from_dict(jordan.json_field(d, "P")))
    P = _finite_scale(P, args.file, "matrix")
    try:
        theta = cayley.dirac_solve(P, tol=args.tol)
    except ValueError as exc:  # a zero or non-null momentum
        raise CliInputError(f"{args.file}: {exc}") from None
    sign = 1.0 if P.trace > 0 else -1.0
    square = jordan.spinor_square(theta)
    residual = (square - P * sign).norm
    checks = [_bound("factorization-residual", residual, args.tol * 100 * P.norm)]
    return {
        "suite": "dirac",
        "theta": [theta[0].tolist(), theta[1].tolist()],
        "residual": residual,
        "seed": args.seed,
        "checks": checks,
        "pass": all(c["pass"] for c in checks),
    }


def cmd_triality(args) -> dict:
    rng = np.random.default_rng(args.seed)
    checks = []

    res = 0.0
    for _ in range(8):
        q = octonion.random_unit_octonion(rng)
        X = jordan.random_jordan(rng)
        res = max(res, generators.so8_action_check(q, X))
    checks.append(_bound("diagonal-action", res, args.tol))

    curves = generators.g2_curves(0)
    eq_res = 0.0
    for pick in (0, len(curves) // 2, len(curves) - 1):
        op = curves[pick](0.3).as_linear_op()
        blocks = (op[3:11, 3:11], op[11:19, 11:19], op[19:27, 19:27])
        eq_res = max(eq_res, float(np.abs(blocks[0] - blocks[1]).max()),
                     float(np.abs(blocks[0] - blocks[2]).max()))
    checks.append(_bound("four-flip-entrywise-equality", eq_res, 1e-8))

    ok, res = octonion.triality_ell_conjugation_check()
    checks.append(_bound("l-conjugation-identity", res, 1e-12))

    return {
        "suite": "triality",
        "seed": args.seed,
        "checks": checks,
        "pass": all(c["pass"] for c in checks),
    }


def cmd_report_all(args) -> dict:
    reports = []
    for group in generators.GROUPS:
        sub = argparse.Namespace(**vars(args))
        sub.group = group
        sub.slot = 0
        reports.append(cmd_verify(sub))
    reports.append(cmd_triality(args))
    return {
        "suite": "report-all",
        "seed": args.seed,
        "reports": reports,
        "pass": all(r["pass"] for r in reports),
    }


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------

def _reject_constant(name: str):
    raise CliInputError(f"non-finite number {name}")


def _load_json(path: str, parse):
    """parse applied to the JSON file; its error on malformed data names the file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle, parse_constant=_reject_constant)
    except FileNotFoundError:
        raise CliInputError(f"no such file: {path}")
    except json.JSONDecodeError as exc:
        raise CliInputError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}")
    except CliInputError as exc:
        raise CliInputError(f"{path}: {exc}")
    if not _numeric(data):
        raise CliInputError(f"{path}: a value is not a number")
    try:
        return parse(data)
    except (TypeError, ValueError) as exc:
        raise CliInputError(f"{path}: {exc}") from None


def _numeric(node) -> bool:
    """Whether every leaf of a parsed JSON value is a number (bool is not)."""
    if type(node) is list:
        return set(map(type, node)) <= {float, int} or all(map(_numeric, node))
    if type(node) is dict:
        return all(map(_numeric, node.values()))
    return type(node) in (float, int)


class CliInputError(Exception):
    pass


def _finite_scale(X, path: str, what: str):
    """X, unless its cubic invariants would overflow: the cube of its norm must be finite."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            finite = math.isfinite(X.norm**3)
    except OverflowError:
        finite = False
    if not finite:
        raise CliInputError(f"{path}: the {what}'s Frobenius norm cubed is not a finite float")
    return X


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(report, indent=2))
        return
    rows = ["suite,name,expected,observed,tolerance,pass"]

    def add_rows(rep):
        for c in rep.get("checks", []):
            rows.append("{},{},{},{},{},{}".format(
                rep["suite"], c["name"], c["expected"], c["observed"], c["tolerance"], c["pass"]))
        for sub in rep.get("reports", []):
            add_rows(sub)

    add_rows(report)
    print("\n".join(rows))


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="RNG seed for sampled checks")
    common.add_argument("--tol", type=float, default=1e-9,
                        help="identity-residual tolerance, a finite number >= 0")
    common.add_argument("--rank-tol", type=float, default=1e-6,
                        help="relative singular-value cutoff for ranks, in (0, 1)")
    common.add_argument("--format", choices=("json", "csv"), default="json")

    parser = argparse.ArgumentParser(
        prog="octe6",
        description="verification suites for the octonionic E6 engine",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("table", parents=[common], help="print the multiplication table")
    verify = sub.add_parser("verify", parents=[common], help="roster rank and preservation checks")
    verify.add_argument("group", help="one of " + ", ".join(generators.GROUPS))
    verify.add_argument("--slot", type=int, default=0, choices=(0, 1, 2))
    decompose = sub.add_parser("decompose", parents=[common], help="p-square decomposition")
    decompose.add_argument("file", help="JordanMatrix JSON file")
    decompose.add_argument("--apply", metavar="NM_FILE", default=None,
                           help="NestedMap JSON to apply before decomposing")
    dirac = sub.add_parser("dirac", parents=[common], help="solve the 2x2 Dirac factorization")
    dirac.add_argument("file", help='{"P": Hermitian2 JSON} file')
    sub.add_parser("triality", parents=[common], help="triality identity suite")
    sub.add_parser("report-all", parents=[common], help="all verify suites plus triality")
    return parser


COMMANDS = {
    "table": cmd_table,
    "verify": cmd_verify,
    "decompose": cmd_decompose,
    "dirac": cmd_dirac,
    "triality": cmd_triality,
    "report-all": cmd_report_all,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # NaN fails both comparisons; a rank cutoff below 1 keeps the largest singular value
        if not 0.0 <= args.tol < math.inf:
            parser.error(f"argument --tol: must be a finite number >= 0, got {args.tol}")
        if not 0.0 < args.rank_tol < 1.0:
            parser.error(f"argument --rank-tol: must be a number in (0, 1), got {args.rank_tol}")
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    start = time.perf_counter()
    try:
        report = COMMANDS[args.command](args)
    except (CliInputError, ValueError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(report, args.format)
    print(f"# wall time: {time.perf_counter() - start:.2f}s", file=sys.stderr)
    return 0 if report["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
