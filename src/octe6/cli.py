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

Each command's parser is built once per process, from the ``COMMANDS``
table, and holds that command alone; the parser with every subcommand is
used only when the first argument is not a command (help, no argument, an
unknown word or an option first), and it gives the same output byte for
byte.  A JSON report is written by ``_json``, which gives exactly the bytes
of ``json.dumps(report, indent=2)`` (NaN and infinities as ``NaN`` and
``Infinity``, non-ASCII escaped, ``TypeError`` on a value JSON cannot
hold) and joins each list of floats in one C-level ``str.join``.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from json.encoder import encode_basestring_ascii

import numpy as np

from . import cayley, generators, jordan, octonion, transform


def _check(name: str, observed, expected) -> dict:
    return {
        "name": name,
        "expected": expected,
        "observed": observed,
        "tolerance": None,
        "pass": bool(observed == expected),
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


def _layer_residual(curves, indices, tol: float) -> float:
    """Largest well-definedness or compatibility residual of the blocks of roster curves at 0.37.

    curves is a ``generators.Roster`` and indices pick its curves.  inf
    when a block is not complex, has a non-real determinant or fails
    either predicate.  A max over the blocks is the max over the distinct
    ones, so each distinct block goes through each predicate once (through
    ``is_welldefined`` once per slot it is embedded in), all in one pass.
    """
    placed = {}  # each distinct (slot, block) -> the block
    for family, _, layers in curves.layers(indices, np.full(len(indices), 0.37)):
        for block in layers.reshape(-1, 2, 2, 8):
            placed.setdefault((family.slot, block.tobytes()), block)
    layers = _embedded(np.array(list(placed.values())), np.array([slot for slot, _ in placed]))
    blocks = np.array(list({key: block for (_, key), block in placed.items()}.values()))
    try:
        _, det_real = transform.complex_det(blocks, tol)
    except ValueError:  # a block is not complex
        return np.inf
    welldefined, welldefined_res = transform.is_welldefined(layers, tol)
    compatible, compatible_res = transform.is_compatible(blocks, tol)
    if not (det_real.all() and welldefined.all() and compatible.all()):
        return np.inf
    return float(max(welldefined_res.max(), compatible_res.max()))


def _images(curves, words, X: np.ndarray) -> np.ndarray:
    """The image of each row of a (W, 27) coordinate stack under its word, a (W, 27) stack.

    curves is a ``generators.Roster``, and a word a list of (roster index,
    angle) pairs, innermost first.  Every layer of every word comes from
    one expression per family touched, and one paired kernel call acts
    with every word on its own matrix.  The words' 2x2 layers go into one
    stack, the shorter words padded with identity layers on the inside,
    and each slot's layers are embedded at once (an identity block embeds
    as the identity in any slot).
    """
    word_of = np.array([w for w, word in enumerate(words) for _ in word], dtype=int)
    indices, thetas = zip(*(pair for word in words for pair in word))
    groups = list(curves.layers(indices, thetas))
    depths = np.zeros(len(word_of), dtype=int)
    for _, at, layers in groups:
        depths[at] = layers.shape[1]
    ends = np.cumsum(depths)  # a word's pairs are adjacent: its last layer ends at ends[its last pair]
    totals = np.bincount(word_of, weights=depths, minlength=len(words)).astype(int)
    depth = totals.max()
    # pair p's first layer, after the identity padding of its word and the layers of the pairs before it
    starts = depth + ends - depths - np.cumsum(totals)[word_of]
    blocks = np.zeros((len(words), depth, 2, 2, 8))
    blocks[..., 0, 0, 0] = blocks[..., 1, 1, 0] = 1.0
    slots = np.zeros((len(words), depth), dtype=int)
    for family, at, layers in groups:
        rows, levels = word_of[at, None], starts[at, None] + np.arange(layers.shape[1])
        blocks[rows, levels] = layers
        slots[rows, levels] = family.slot
    stack = _embedded(blocks, slots)
    return jordan.hermitian_vectors(transform.apply_paired(stack, jordan.hermitian_arrays(X, 3)))


def _embedded(blocks: np.ndarray, slots: np.ndarray) -> np.ndarray:
    """Each 2x2 block of a (..., 2, 2, 8) stack embedded in its slot, one ``embed`` call per slot."""
    out = np.empty(slots.shape + (3, 3, 8))
    for slot in set(slots.ravel().tolist()):
        out[slots == slot] = transform.embed(blocks[slots == slot], slot)
    return out


def _traces(V: np.ndarray) -> list[float]:
    """The trace of each row of a coordinate stack, summed as ``JordanMatrix.trace`` sums it."""
    return [sum(diag[1:], diag[0]) for diag in V[:, :3].tolist()]


def cmd_verify(args) -> dict:
    group = generators.normalize_group(args.group)
    curves = generators.roster(group, slot=args.slot)
    rng = np.random.default_rng(args.seed)
    sv = generators.singular_values(curves)
    rank, kept, dropped = generators.rank_cut(sv, args.rank_tol)
    expected = generators.EXPECTED_DIMENSION[group]
    checks = [_check("lie-rank", rank, expected)]

    sample = rng.choice(len(curves), size=min(6, len(curves)), replace=False)
    checks.append(_bound("layer-predicates", _layer_residual(curves, sample, args.tol), args.tol * 10))

    words, matrices = [], []
    for _ in range(10):
        picks = rng.choice(len(curves), size=3, replace=False)
        words.append([(t, rng.uniform(-1, 1)) for t in picks])
        matrices.append(jordan.random_jordan(rng).to_vector())
    # rosters without boosts, the only cosh/exp curves, are unitary, so the
    # trace is preserved: a second set of 10 single-curve words, drawn after
    # the first and sharing its kernel call and invariant pass
    unitary = all(family.kind == "trig" for family in curves.families)
    for _ in range(10 if unitary else 0):
        pick = int(rng.integers(len(curves)))
        matrices.append(jordan.random_jordan(rng).to_vector())
        words.append([(pick, rng.uniform(-1, 1))])
    X = np.array(matrices)
    images = _images(curves, words, X)
    dets, norms = jordan.det3_and_norm(np.concatenate((X[:10], images[:10], X[10:])))
    # each change relative to |X|^3 as in classify; the cube is numpy's,
    # whose last bit differs from Python's float ** 3 on some values
    before, after = np.array(dets[:20]).reshape(2, 10)
    det_res = float((np.abs(after - before) / np.array(norms[:10]) ** 3).max())
    checks.append(_bound("determinant-preservation", det_res, 1e-7))

    if unitary:
        # each trace change relative to |X|, as the det change is to |X|^3
        trace_res = max(abs(y - x) / norm
                        for x, y, norm in zip(_traces(X[10:]), _traces(images[10:]), norms[20:]))
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
    report = {"suite": "decompose"}
    if args.apply:
        nm = _load_json(args.apply, transform.nested_map_from_json)
        if nm.dim != 3:
            raise CliInputError(f"{args.apply}: a 3x3 matrix needs 3x3 layers, not {nm.dim}x{nm.dim}")
        with np.errstate(over="ignore", invalid="ignore"):  # an overflowing image exits 2
            transformed = _finite_scale(nm.apply(A), args.apply, "image")
        report["applied_map"] = transform.nested_map_to_json(nm)
        original_class = cayley.classify(A)
        A = transformed
    dec = cayley.psquare_decompose(A)
    # dec.p is the image's class
    checks = [_check("class-invariance", dec.p, original_class)] if args.apply else []
    residual = (dec.reconstruct() - A).norm
    checks.append(_bound("reconstruction-residual", residual, args.tol * 100 * A.norm))
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

    checks.append(_bound("l-conjugation-identity", octonion.triality_ell_conjugation_check(), 1e-12))

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
        numeric = _numeric(data)
    except FileNotFoundError:
        raise CliInputError(f"no such file: {path}")
    except OSError as exc:  # a directory, an unreadable file
        raise CliInputError(f"{path}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise CliInputError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}")
    except json.JSONDecodeError as exc:
        raise CliInputError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}")
    except CliInputError as exc:
        raise CliInputError(f"{path}: {exc}")
    except RecursionError:  # json.load and _numeric descend one call per level
        raise CliInputError(f"{path}: JSON nested too deeply") from None
    if not numeric:
        raise CliInputError(f"{path}: a value is not a number")
    try:
        return parse(data)
    except (TypeError, ValueError, OverflowError) as exc:  # OverflowError: an int beyond any float
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


def _scalar(node) -> str:
    """A JSON leaf as ``json.dumps`` writes it; bool is tested before int, as there."""
    if isinstance(node, str):
        return encode_basestring_ascii(node)
    if node is None:
        return "null"
    if node is True:
        return "true"
    if node is False:
        return "false"
    if isinstance(node, int):
        return int.__repr__(node)
    if isinstance(node, float):
        if node != node:
            return "NaN"
        if node == math.inf:
            return "Infinity"
        if node == -math.inf:
            return "-Infinity"
        return float.__repr__(node)
    raise TypeError(f"Object of type {type(node).__name__} is not JSON serializable")


def _json(node, pad: str = "") -> str:
    """node as ``json.dumps(node, indent=2)`` writes it, nested at the indent pad.

    A list of floats (float subclasses such as np.float64 too) is one join
    of their reprs; a finite float's repr has no "n", so a join that holds
    one (nan, inf) is redone item by item.  Non-string keys are written as
    their JSON token, in quotes, as ``json`` does.
    """
    if isinstance(node, (list, tuple)):
        if not node:
            return "[]"
        inner = pad + "  "
        sep = ",\n" + inner
        try:
            body = sep.join(map(float.__repr__, node))
        except TypeError:  # an item is not a float
            body = None
        if body is None or "n" in body:
            body = sep.join([_json(item, inner) for item in node])
        return f"[\n{inner}{body}\n{pad}]"
    if isinstance(node, dict):
        if not node:
            return "{}"
        inner = pad + "  "
        body = (",\n" + inner).join(
            [_scalar(key if isinstance(key, str) else _scalar(key)) + ": " + _json(value, inner)
             for key, value in node.items()])
        return f"{{\n{inner}{body}\n{pad}}}"
    return _scalar(node)


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        print(_json(report))
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


# the options every subcommand takes, ahead of its own: (name, add_argument keywords)
_SHARED_OPTIONS = (
    ("--seed", {"type": int, "default": 0, "help": "RNG seed for sampled checks"}),
    ("--tol", {"type": float, "default": 1e-9,
               "help": "identity-residual tolerance, a finite number >= 0"}),
    ("--rank-tol", {"type": float, "default": 1e-6,
                    "help": "relative singular-value cutoff for ranks, in (0, 1)"}),
    ("--format", {"choices": ("json", "csv"), "default": "json"}),
)

# name: (suite, help, own arguments as (name, add_argument keywords))
COMMANDS = {
    "table": (cmd_table, "print the multiplication table", ()),
    "verify": (cmd_verify, "roster rank and preservation checks", (
        ("group", {"help": "one of " + ", ".join(generators.GROUPS)}),
        ("--slot", {"type": int, "default": 0, "choices": (0, 1, 2)}),
    )),
    "decompose": (cmd_decompose, "p-square decomposition", (
        ("file", {"help": "JordanMatrix JSON file"}),
        ("--apply", {"metavar": "NM_FILE", "default": None,
                     "help": "NestedMap JSON to apply before decomposing"}),
    )),
    "dirac": (cmd_dirac, "solve the 2x2 Dirac factorization", (
        ("file", {"help": '{"P": Hermitian2 JSON} file'}),
    )),
    "triality": (cmd_triality, "triality identity suite", ()),
    "report-all": (cmd_report_all, "all verify suites plus triality", ()),
}


@functools.cache
def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The octe6 parser with every subcommand, or with ``command``'s alone.

    The one-command parser parses an argv led by that command exactly as the
    full one does.  Its metavar names every command, so its usage line is
    the full parser's; the full parser leaves argparse to derive that same
    metavar, since a set one would also replace ``command`` in its errors.

    Each parser is built once per process and shared by every later call:
    ``parse_args`` and ``error`` only read it, and a caller must not
    mutate it.  The cache keys each call form apart, so ``main`` asks for
    the full parser as ``build_parser()`` and a command's as
    ``build_parser(command)``.
    """
    parser = argparse.ArgumentParser(
        prog="octe6",
        description="verification suites for the octonionic E6 engine",
    )
    metavar = None if command is None else "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in COMMANDS if command is None else (command,):
        _, help_text, arguments = COMMANDS[name]
        subparser = sub.add_parser(name, help=help_text)
        for arg, keywords in _SHARED_OPTIONS + arguments:
            subparser.add_argument(arg, **keywords)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # every subcommand only when the first argument is not a command (help, an
    # unknown word, an option); no argument, so the cache has one full parser
    parser = build_parser(argv[0]) if argv and argv[0] in COMMANDS else build_parser()
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
        report = COMMANDS[args.command][0](args)
    except (CliInputError, ValueError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(report, args.format)
    print(f"# wall time: {time.perf_counter() - start:.2f}s", file=sys.stderr)
    return 0 if report["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
