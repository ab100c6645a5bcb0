"""CLI surface: subcommands, JSON schemas, exit codes, determinism."""

import argparse
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import octe6
from octe6 import cayley, cli, generators, jordan, transform
from octe6.cli import main
from octe6.octonion import signed_table


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTable:
    def test_matches_library_table(self, capsys):
        code, out, _ = run_cli(capsys, "table")
        assert code == 0
        report = json.loads(out)
        assert report["basis"] == ["1", "i", "j", "k", "kl", "jl", "il", "l"]
        assert np.array_equal(np.array(report["table"]), signed_table())

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "suite,name,expected,observed,tolerance,pass"


class TestCsv:
    def test_report_all_rows_name_their_suite(self, capsys):
        from octe6.cli import _emit
        code, out, _ = run_cli(capsys, "report-all", "--seed", "3")
        assert code == 0
        report = json.loads(out)
        _emit(report, "csv")
        header, *rows = capsys.readouterr().out.splitlines()
        assert header == "suite,name,expected,observed,tolerance,pass"
        suites = [row.split(",")[0] for row in rows]
        expected = [f"verify-{g}" for g in generators.GROUPS] + ["triality"]
        assert list(dict.fromkeys(suites)) == expected
        checks = [(sub["suite"], c["name"]) for sub in report["reports"] for c in sub["checks"]]
        assert [tuple(row.split(",")[:2]) for row in rows] == checks


def _cli_parity():
    """scripts/cli_parity.py as a module."""
    path = Path(__file__).parents[1] / "scripts" / "cli_parity.py"
    spec = importlib.util.spec_from_file_location("cli_parity", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestJsonWriter:
    def emitted(self, capsys, report):
        cli._emit(report, "json")
        return capsys.readouterr().out

    def test_parity_reports_match_json_dumps(self, capsys, tmp_path):
        parity = _cli_parity()
        argvs = parity.commands() + parity.input_commands(tmp_path)
        for argv in argvs:
            args = cli.build_parser(argv[0]).parse_args(argv)
            report = cli.COMMANDS[args.command][0](args)
            assert self.emitted(capsys, report) == json.dumps(report, indent=2) + "\n", argv

    def test_edge_values_match_json_dumps(self, capsys):
        report = {
            "floats": [float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 1e308],
            "nan-in-nested": [[1.5, float("nan")], [float("-inf")]],
            "float64": [np.float64(0.1), np.float64(-2.5e-300)],
            "float64-leaf": np.float64(1e308),
            "mixed": [1, 2.0, True],
            "empty": [[], {}, [[]], {"inner": {}}, [[], [{}]]],
            "text": 'caf\u00e9 \u2202 \U0001d546 "quoted" back\\slash \x00\x1f\n\t',
            "none": None,
            "tuple": (1.0, (2, "x")),
            "keys": {1: "int", 2.5: "float", float("nan"): "nan", True: "bool", None: "none"},
            "checks": [{"name": "x", "expected": "<= 1e-07", "observed": 3e-12, "tolerance": 1e-07,
                        "pass": False}],
        }
        assert self.emitted(capsys, report) == json.dumps(report, indent=2) + "\n"
        for leaf in ([], {}, "", 0, -7, 0.0, None, False):
            assert self.emitted(capsys, leaf) == json.dumps(leaf, indent=2) + "\n"

    def test_unserializable_leaf_raises_type_error(self):
        with pytest.raises(TypeError, match="set"):
            cli._json({"checks": [{"observed": {1, 2}}]})


class TestVerify:
    def test_g2_rank(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "G2")
        assert code == 0
        report = json.loads(out)
        assert report["rank"] == 14 and report["expected"] == 14
        assert report["curve_count"] == 21
        assert report["pass"] is True
        assert len(report["singular_values_head"]) == 8

    @pytest.mark.parametrize("group, full_rank", [("E6", False), ("SO9", True)])
    def test_rank_evidence_from_the_reported_svd(self, capsys, monkeypatch, group, full_rank):
        svds = []
        real = generators.singular_values
        monkeypatch.setattr(generators, "singular_values", lambda items: svds.append(1) or real(items))
        code, out, _ = run_cli(capsys, "verify", group)
        assert code == 0 and len(svds) == 1
        report = json.loads(out)
        sv = real(generators.roster(group))
        r = report["rank"]
        kept, dropped = report["singular_values_at_cut"]
        assert kept == sv[r - 1] and report["singular_values_head"][0] == sv[0]
        if full_rank:
            # every curve is independent: nothing is dropped at the cut
            assert r == len(sv) and dropped is None and report["rank_gap"] is None
        else:
            assert dropped == sv[r]
            assert report["rank_gap"] == kept / dropped > 1e9

    @pytest.mark.parametrize("group", ["E6", "F4", "G2"])
    def test_exact_lie_elements_give_a_wide_rank_gap(self, capsys, group):
        # the dropped singular values are rounding noise of the SVD alone
        code, out, _ = run_cli(capsys, "verify", group)
        report = json.loads(out)
        assert code == 0 and report["rank"] == report["expected"]
        assert report["rank_gap"] >= 1e14

    def test_so7_rank_other_slot(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "SO7", "--slot", "2")
        assert code == 0
        report = json.loads(out)
        assert report["rank"] == 21

    def test_unknown_group_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "verify", "bogus")
        assert code == 2
        assert "unknown group" in err

    def test_absurd_rank_tolerance_fails_checks(self, capsys):
        # with 108 curves spanning 52 dimensions, a 1e-16 cutoff counts noise
        code, out, _ = run_cli(capsys, "verify", "F4", "--rank-tol", "1e-16")
        assert code == 1
        report = json.loads(out)
        assert report["pass"] is False
        assert report["rank"] > report["expected"]

    @pytest.mark.parametrize("flag, value", [
        ("--rank-tol", "1"), ("--rank-tol", "2"), ("--rank-tol", "inf"), ("--rank-tol", "0"),
        ("--rank-tol", "-1"), ("--rank-tol", "nan"), ("--rank-tol", "x"),
        ("--tol", "nan"), ("--tol", "-1"), ("--tol", "inf"), ("--tol", "-inf"), ("--tol", "x"),
    ])
    def test_tolerance_out_of_range_is_usage_error(self, capsys, flag, value):
        # the joined form, since argparse reads a separate "-inf" as an option
        code, out, err = run_cli(capsys, "verify", "SO7", f"{flag}={value}")
        assert code == 2
        assert out == ""
        assert f"argument {flag}:" in err and "Traceback" not in err

    def test_zero_tol_accepted(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--tol", "0")
        assert code == 0 and json.loads(out)["pass"] is True

    def test_determinant_bound_is_relative_below_unit_scale(self, capsys, monkeypatch):
        # a map that scales every image by 1.5 multiplies det by 3.375; on
        # samples scaled by 1e-3 the change was 5.4e-8 of max(1, |det X|)
        honest_random, honest_apply = jordan.random_jordan, transform.apply_paired
        monkeypatch.setattr(jordan, "random_jordan", lambda rng: honest_random(rng) * 1e-3)
        monkeypatch.setattr(transform, "apply_paired", lambda layers, X: honest_apply(layers, X) * 1.5)
        code, out, _ = run_cli(capsys, "verify", "SO8", "--seed", "1")
        assert code == 1
        checks = {c["name"]: c for c in json.loads(out)["checks"]}
        assert checks["determinant-preservation"]["pass"] is False
        assert checks["determinant-preservation"]["observed"] > 1e-3

    def test_trace_bound_is_relative_above_unit_scale(self, capsys, monkeypatch):
        # on samples scaled by 2^30 the absolute change in the trace was
        # 4.8e-7, over the 1e-8 bound, while the relative det check passed
        honest_random = jordan.random_jordan
        monkeypatch.setattr(jordan, "random_jordan", lambda rng: honest_random(rng) * 2.0**30)
        code, out, _ = run_cli(capsys, "verify", "F4", "--seed", "3")
        assert code == 0
        checks = {c["name"]: c for c in json.loads(out)["checks"]}
        assert checks["trace-preservation"]["pass"] and checks["determinant-preservation"]["pass"]

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 2.0**30])
    def test_trace_bound_fails_a_wrong_map_at_every_scale(self, capsys, monkeypatch, scale):
        # a map that scales every image by 1 + 1e-6 moves the trace by 1e-6 |tr X|
        honest_random, honest_apply = jordan.random_jordan, transform.apply_paired
        monkeypatch.setattr(jordan, "random_jordan", lambda rng: honest_random(rng) * scale)
        monkeypatch.setattr(transform, "apply_paired", lambda layers, X: honest_apply(layers, X) * (1 + 1e-6))
        code, out, _ = run_cli(capsys, "verify", "SO8", "--seed", "1")
        assert code == 1
        checks = {c["name"]: c for c in json.loads(out)["checks"]}
        assert checks["trace-preservation"]["pass"] is False

    @pytest.mark.parametrize("group", generators.GROUPS)
    def test_trace_checked_exactly_for_rosters_without_boosts(self, capsys, monkeypatch, group):
        # rosters without boosts are the unitary ones: F4, SO9, SO8, SO7, G2.  The
        # rule holds when a module's functions are rebound, as a tracer does
        honest = generators.boost_curves
        monkeypatch.setattr(generators, "boost_curves", lambda slot: honest(slot))
        code, out, _ = run_cli(capsys, "verify", group)
        assert code == 0
        names = [c["name"] for c in json.loads(out)["checks"]]
        boosts = any(c.label.startswith("boost") for c in generators.roster(group))
        assert names.count("trace-preservation") == (not boosts)
        assert boosts == (group in ("E6", "SO91"))

    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize("group", generators.GROUPS)
    def test_sampled_checks_match_a_per_word_operator_loop(self, capsys, group, seed):
        # one paired kernel call against each word's own 27x27 operator: rounding apart
        code, out, _ = run_cli(capsys, "verify", group, "--seed", str(seed))
        assert code == 0
        checks = {c["name"]: c["observed"] for c in json.loads(out)["checks"]}
        det_res, trace_res = _preservation_loop(group, seed)
        assert abs(checks["determinant-preservation"] - det_res) <= 1e-15
        if trace_res is None:
            assert "trace-preservation" not in checks
        else:
            assert abs(checks["trace-preservation"] - trace_res) <= 1e-15

    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize("slot", [0, 1, 2])
    @pytest.mark.parametrize("group", generators.GROUPS)
    def test_sampled_checks_match_a_per_matrix_loop(self, capsys, group, slot, seed):
        # the stacked invariant pass against det3 and norm of each image row, bit for bit
        code, out, _ = run_cli(capsys, "verify", group, "--slot", str(slot), "--seed", str(seed))
        assert code == 0
        checks = {c["name"]: c["observed"] for c in json.loads(out)["checks"]}
        det_res, trace_res = _preservation_loop(group, seed, _row_images, slot)
        assert checks["determinant-preservation"] == det_res
        assert checks.get("trace-preservation") == trace_res

    def test_images_match_each_word(self):
        # words of 1 to 12 layers over all three slots, in one stack
        rng = np.random.default_rng(11)
        curves = generators.roster("E6") + generators.roster("G2", slot=2)
        words = [[(t, rng.uniform(-1, 1)) for t in rng.choice(len(curves), size=size)]
                 for size in (1, 3, 2, 3, 1)]
        matrices = np.array([jordan.random_jordan(rng).to_vector() for _ in words])
        images = cli._images(curves, words, matrices)
        assert images.shape == matrices.shape
        for word, x, y in zip(words, matrices, images):
            nm = curves[word[0][0]](word[0][1])
            for t, theta in word[1:]:
                nm = nm.compose(curves[t](theta))
            assert np.array_equal(y, jordan.hermitian_vectors(nm.apply_array(jordan.hermitian_arrays(x, 3))))

    def test_determinism(self, capsys):
        _, first, _ = run_cli(capsys, "verify", "SO8", "--seed", "5")
        _, second, _ = run_cli(capsys, "verify", "SO8", "--seed", "5")
        assert first == second

    @pytest.mark.parametrize("group, slot", [("E6", 0), ("F4", 0), ("SO91", 1), ("G2", 2)])
    def test_layer_predicates_match_block_loop(self, group, slot):
        from octe6.cli import _layer_residual
        curves = generators.roster(group, slot=slot)
        for seed in range(4):
            rng = np.random.default_rng(seed)
            sample = rng.choice(len(curves), size=6, replace=False)
            expected = _layer_residual_loop([curves[t] for t in sample], 1e-9)
            assert _layer_residual(curves, sample, 1e-9) == expected

    @pytest.mark.parametrize("seed", range(4))
    def test_layer_predicates_see_each_distinct_block_once(self, monkeypatch, seed):
        # G2's four-flip curves share blocks: a sample of 6 holds 24, fewer of them distinct
        rows = {"is_welldefined": [], "is_compatible": [], "complex_det": []}
        for name, seen in rows.items():
            honest = getattr(transform, name)
            monkeypatch.setattr(transform, name, lambda M, tol, honest=honest, seen=seen:
                                seen.append(len(M)) or honest(M, tol))
        curves = generators.roster("G2", slot=1)
        rng = np.random.default_rng(seed)
        sample = rng.choice(len(curves), size=6, replace=False)
        blocks = [b for t in sample for b in curves[t].layer_arrays([0.37])[0]]
        distinct = len({b.tobytes() for b in blocks})
        assert len(blocks) == 24 and distinct < 24
        expected = _layer_residual_loop([curves[t] for t in sample], 1e-9)
        for seen in rows.values():
            seen.clear()
        assert cli._layer_residual(curves, sample, 1e-9) == expected
        assert rows == {name: [distinct] for name in rows}

    def test_layer_predicates_flag_a_failing_block(self):
        from octe6.cli import _layer_residual
        # one constant layer diag(i, j), which is not complex
        A = np.zeros((1, 2, 2, 8))
        A[0, 0, 0, 1] = A[0, 1, 1, 2] = 1.0
        mixed = generators.GeneratorCurve("mixed", 1, "trig", (0.0,), A, np.zeros_like(A))
        sample = generators.roster("SO8")[:3] + [mixed]
        curves = generators.Roster.of(sample)
        assert _layer_residual(curves, range(4), 1e-9) == _layer_residual_loop(sample, 1e-9) == np.inf

    def test_layer_predicates_share_one_tolerance(self):
        from octe6.cli import _layer_residual
        # a rotation whose identity layer leans 1e-7 toward j: complex only to about 1e-7
        rotation = generators.rotation_curves(0)[1]
        A = rotation.A.copy()
        A[0, 0, 0, 2] = 1e-7
        leaning = generators.GeneratorCurve("leaning[slot0]", 0, "trig", (0.5,), A, rotation.B)
        curves = generators.Roster.of([leaning])
        assert _layer_residual(curves, [0], 1e-9) == np.inf
        residual = _layer_residual(curves, [0], 1e-3)
        assert residual == _layer_residual_loop([leaning], 1e-3)
        assert 0.0 < residual < 1e-6


def _operator_images(curves, words, matrices):
    """Each word as a composed NestedMap, applied to its matrix through its 27x27 operator."""
    images = []
    for word, X in zip(words, matrices):
        nm = curves[word[0][0]](word[0][1])
        for t, theta in word[1:]:
            nm = nm.compose(curves[t](theta))
        images.append(nm.apply(X))
    return images


def _row_images(curves, words, matrices):
    """A JordanMatrix for each row that ``cli._images`` gives for the matrices' coordinate stack."""
    rows = cli._images(curves, words, np.array([X.to_vector() for X in matrices]))
    return [jordan.JordanMatrix.from_vector(y) for y in rows]


def _preservation_loop(group, seed, images=_operator_images, slot=0):
    """verify's determinant and trace observations from a per-matrix loop, as an oracle.

    The draws are verify's; images(curves, words, matrices) gives the image
    of each matrix under its word of (roster index, angle) pairs, and det3,
    norm and trace are read one matrix at a time.  The trace observation is
    None for rosters with boosts.
    """
    curves = generators.roster(group, slot=slot)
    rng = np.random.default_rng(seed)
    rng.choice(len(curves), size=min(6, len(curves)), replace=False)  # the layer-predicate sample
    words, matrices = [], []
    for _ in range(10):
        picks = rng.choice(len(curves), size=3, replace=False)
        words.append([(t, rng.uniform(-1, 1)) for t in picks])
        matrices.append(jordan.random_jordan(rng))
    before, after, norms = np.array([(jordan.det3(X), jordan.det3(Y), X.norm)
                                     for X, Y in zip(matrices, images(curves, words, matrices))]).T
    det_res = float((np.abs(after - before) / norms ** 3).max())
    if any(curve.kind != "trig" for curve in curves):
        return det_res, None
    words, matrices = [], []
    for _ in range(10):
        pick = int(rng.integers(len(curves)))
        matrices.append(jordan.random_jordan(rng))
        words.append([(pick, rng.uniform(-1, 1))])
    return det_res, max(abs(Y.trace - X.trace) / X.norm
                        for X, Y in zip(matrices, images(curves, words, matrices)))


def _layer_residual_loop(curves, tol):
    """The per-block loop that the stacked layer-predicate pass replaced, kept as an oracle."""
    res = 0.0
    for curve in curves:
        for block in curve.layer_arrays([0.37])[0]:
            if not transform.is_complex(block, tol):
                res = np.inf
                break
            res = max(res, 0.0 if transform.complex_det(block, tol)[1] else np.inf)
            for ok, r in (transform.is_welldefined(transform.embed(block, curve.slot), tol),
                          transform.is_compatible(block, tol)):
                res = max(res, r if ok else np.inf)
    return res


class TestDecompose:
    def test_diagonal_file(self, capsys, tmp_path):
        payload = {"diag": [1.0, 2.0, 3.0], "a": [0.0] * 8, "b": [0.0] * 8, "c": [0.0] * 8}
        path = tmp_path / "diag.json"
        path.write_text(json.dumps(payload))
        code, out, _ = run_cli(capsys, "decompose", str(path))
        assert code == 0
        report = json.loads(out)
        assert report["p"] == 3
        assert report["lambdas"] == [3.0, 2.0, 1.0]
        assert report["projectors"][0]["diag"] == [0.0, 0.0, 1.0]

    def test_apply_nested_map(self, capsys, tmp_path):
        from octe6.generators import roster
        from octe6.transform import nested_map_to_json

        matrix = tmp_path / "two_square.json"
        matrix.write_text(json.dumps(
            {"diag": [1.0, 1.0, 0.0], "a": [0.0] * 8, "b": [0.0] * 8, "c": [0.0] * 8}))
        nm = roster("E6")[17](0.8).compose(roster("E6")[90](-0.4))
        nm_file = tmp_path / "map.json"
        nm_file.write_text(json.dumps(nested_map_to_json(nm)))
        code, out, _ = run_cli(capsys, "decompose", str(matrix), "--apply", str(nm_file))
        assert code == 0
        report = json.loads(out)
        assert report["p"] == 2
        assert report["applied_map"] == nested_map_to_json(nm)
        names = [c["name"] for c in report["checks"]]
        assert "class-invariance" in names

    def test_near_scalar_matrix(self, capsys, tmp_path):
        # 1e-9 off-diagonals merge all three eigenvalues into one term; p is still the rank 3
        near = [1e-9] + [0.0] * 7
        path = tmp_path / "near_scalar.json"
        path.write_text(json.dumps({"diag": [1.0, 1.0, 1.0], "a": near, "b": near, "c": near}))
        code, out, _ = run_cli(capsys, "decompose", str(path))
        assert code == 0
        report = json.loads(out)
        assert report["p"] == 3 and report["pass"] is True

    def test_near_identity_matrix(self, capsys, tmp_path):
        # eigenvalues about 1e-7 apart: a chain of gaps each within
        # MERGE_TOL |A| merged them into one term off by 2.3e-7
        from octe6.jordan import JordanMatrix, jordan_to_dict, random_jordan
        A = JordanMatrix.identity() + random_jordan(np.random.default_rng(2000)) * 2.5e-8
        path = tmp_path / "near_identity.json"
        path.write_text(json.dumps(jordan_to_dict(A)))
        code, out, _ = run_cli(capsys, "decompose", str(path))
        assert code == 0 and json.loads(out)["pass"] is True

    @pytest.mark.parametrize("diag", [(1.0, 1e-5, 1e-5), (1.0, 0.1, 1e-7)])
    def test_small_eigenvalues_count_in_the_rank(self, capsys, tmp_path, diag):
        # each eigenvalue is far above CLASS_TOL |A|; det / |A|^3 is not, and
        # the cascade that compared it with CLASS_TOL read class 2 against p 3
        path = tmp_path / "small.json"
        path.write_text(json.dumps(
            {"diag": list(diag), "a": [0.0] * 8, "b": [0.0] * 8, "c": [0.0] * 8}))
        code, out, _ = run_cli(capsys, "decompose", str(path))
        assert code == 0 and json.loads(out)["p"] == 3

    def test_corrupted_decomposition_of_small_matrix_fails(self, capsys, tmp_path, monkeypatch):
        # the residual bound is relative to |A|, so a wrong projector fails at any scale
        path = tmp_path / "small.json"
        path.write_text(json.dumps(
            {"diag": [3e-8, 2e-8, 1e-8], "a": [0.0] * 8, "b": [0.0] * 8, "c": [0.0] * 8}))
        assert run_cli(capsys, "decompose", str(path))[0] == 0
        honest = cayley.psquare_decompose

        def corrupted(A):
            dec = honest(A)
            (lam, proj), *rest = dec.terms
            return cayley.PSquareDecomposition([(lam, proj * 0.5)] + rest, dec.p)

        monkeypatch.setattr(cayley, "psquare_decompose", corrupted)
        code, out, _ = run_cli(capsys, "decompose", str(path))
        assert code == 1
        checks = {c["name"]: c["pass"] for c in json.loads(out)["checks"]}
        assert checks == {"reconstruction-residual": False}

    def test_parse_error(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "decompose", str(path))
        assert code == 2
        assert "broken.json:1:" in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "decompose", "/nonexistent/x.json")
        assert code == 2
        assert "no such file" in err

    @pytest.mark.parametrize("argv", [
        ("decompose", "{dir}"),
        ("dirac", "{dir}"),
        ("decompose", "{matrix}", "--apply", "{dir}"),
    ])
    def test_directory_input_exits_2_naming_it(self, capsys, tmp_path, argv):
        # exit 1 is a failed check; a path that cannot be read is a usage error
        matrix = tmp_path / "matrix.json"
        matrix.write_text(json.dumps({"diag": [1, 2, 3], "a": [0] * 8, "b": [0] * 8, "c": [0] * 8}))
        folder = tmp_path / "inputs"
        folder.mkdir()
        code, out, err = run_cli(capsys, *(a.format(dir=folder, matrix=matrix) for a in argv))
        assert code == 2 and out == ""
        assert f"{folder}: " in err

    def test_unreadable_file_exits_2_naming_it(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "locked.json"
        path.write_text("{}")

        def denied(*args, **kwargs):
            raise PermissionError(13, "Permission denied", str(path))

        monkeypatch.setattr("builtins.open", denied)
        code, _, err = run_cli(capsys, "decompose", str(path))
        assert code == 2
        assert f"{path}: Permission denied" in err

    def test_non_utf8_file_names_it(self, capsys, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"diag": [1, 2, 3], "note": "\xe9"}')
        code, _, err = run_cli(capsys, "decompose", str(path))
        assert code == 2
        assert str(path) in err

    def test_missing_field(self, capsys, tmp_path):
        path = tmp_path / "short.json"
        path.write_text(json.dumps({"diag": [1, 2, 3]}))
        code, _, err = run_cli(capsys, "decompose", str(path))
        assert code == 2


class TestDirac:
    def test_corner_momentum(self, capsys, tmp_path):
        payload = {"P": {"diag": [1.0, 0.0], "a": [0.0] * 8}}
        path = tmp_path / "corner.json"
        path.write_text(json.dumps(payload))
        code, out, _ = run_cli(capsys, "dirac", str(path))
        assert code == 0
        report = json.loads(out)
        assert report["theta"][0] == [1.0] + [0.0] * 7
        assert report["theta"][1] == [0.0] * 8
        assert report["residual"] == 0.0

    def test_wrong_factor_of_small_momentum_fails(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "small.json"
        path.write_text(json.dumps({"P": {"diag": [1e-8, 0.0], "a": [0.0] * 8}}))
        assert run_cli(capsys, "dirac", str(path))[0] == 0
        honest = cayley.dirac_solve
        monkeypatch.setattr(cayley, "dirac_solve", lambda P, tol: honest(P, tol=tol) * 1.1)
        code, out, _ = run_cli(capsys, "dirac", str(path))
        assert code == 1
        assert json.loads(out)["checks"][0]["pass"] is False

    @pytest.mark.parametrize("tol", ["0.5", "1", "4"])
    def test_null_momentum_factors_at_large_tol(self, capsys, tmp_path, tol):
        # the zero test |P| <= tol max|P_i| rejected every nonzero P from tol 1 up
        path = tmp_path / "corner.json"
        path.write_text(json.dumps({"P": {"diag": [1.0, 0.0], "a": [0.0] * 8}}))
        code, out, err = run_cli(capsys, "dirac", str(path), "--tol", tol)
        assert code == 0, err
        assert json.loads(out)["theta"][0] == [1.0] + [0.0] * 7

    def test_small_null_momentum_factors(self, capsys, tmp_path):
        # the zero test |P| <= tol was absolute: this exited 2 as "zero"
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps({"P": {"diag": [1e-10, 0.0], "a": [0.0] * 8}}))
        code, out, err = run_cli(capsys, "dirac", str(path))
        assert code == 0, err
        assert json.loads(out)["theta"][0] == [1e-5] + [0.0] * 7

    def test_small_full_rank_momentum_rejected(self, capsys, tmp_path):
        # the null test |det P| <= tol max(1, |P|^2) passed diag(1e-5, 1e-5),
        # which then exited 1 on its factorization residual
        path = tmp_path / "full.json"
        path.write_text(json.dumps({"P": {"diag": [1e-5, 1e-5], "a": [0.0] * 8}}))
        code, out, err = run_cli(capsys, "dirac", str(path))
        assert code == 2 and out == ""
        assert "no rank-1 factorization" in err

    def test_full_rank_momentum_rejected(self, capsys, tmp_path):
        payload = {"P": {"diag": [1.0, 1.0], "a": [0.0] * 8}}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        code, _, err = run_cli(capsys, "dirac", str(path))
        assert code == 2
        assert "factorization" in err

    @pytest.mark.parametrize("diag, message", [
        ([0.0, 0.0], "requires a nonzero momentum"),
        ([1.0, 1.0], "no rank-1 factorization"),
    ], ids=["zero", "not-null"])
    def test_unfactorable_momentum_error_names_the_file(self, capsys, tmp_path, diag, message):
        path = tmp_path / "momentum.json"
        path.write_text(json.dumps({"P": {"diag": diag, "a": [0.0] * 8}}))
        code, out, err = run_cli(capsys, "dirac", str(path))
        assert code == 2 and out == ""
        assert err.startswith(f"error: {path}: ") and message in err


class TestNonFiniteInput:
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("command,payload", [
        ("decompose", lambda x: {"diag": [x, 1.0, 1.0], "a": [0.0] * 8,
                                 "b": [0.0] * 8, "c": [0.0] * 8}),
        ("dirac", lambda x: {"P": {"diag": [1.0, 0.0], "a": [x] + [0.0] * 7}}),
    ])
    def test_rejected_at_parse_time(self, capsys, tmp_path, command, payload, value):
        path = tmp_path / "nonfinite.json"
        path.write_text(json.dumps(payload(value)))
        code, out, err = run_cli(capsys, command, str(path))
        assert code == 2
        assert out == ""
        assert "nonfinite.json" in err and "non-finite" in err
        assert "Traceback" not in err


ZERO8 = [0.0] * 8
BIG8 = [0.0, 1e200] + [0.0] * 6


class TestOverflowInput:
    @pytest.mark.parametrize("command,payload", [
        ("decompose", {"diag": [1e200, 1.0, 1.0], "a": ZERO8, "b": ZERO8, "c": ZERO8}),
        ("decompose", {"diag": [1.0, 2.0, 3.0], "a": ZERO8, "b": BIG8, "c": ZERO8}),
        ("dirac", {"P": {"diag": [1e200, 0.0], "a": ZERO8}}),
        ("dirac", {"P": {"diag": [0.0, 0.0], "a": BIG8}}),
    ], ids=["decompose-diagonal", "decompose-octonion", "dirac-diagonal", "dirac-octonion"])
    def test_rejected(self, capsys, tmp_path, command, payload):
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(payload))
        code, out, err = run_cli(capsys, command, str(path))
        assert code == 2
        assert out == ""
        assert "overflow.json" in err and "not a finite float" in err
        assert "Traceback" not in err

    def test_overflowing_image_rejected(self, capsys, tmp_path):
        path, map_path = tmp_path / "small.json", tmp_path / "huge_map.json"
        one = [1.0] + [0.0] * 7
        path.write_text(json.dumps({"diag": [1.0, 2.0, 3.0], "a": [0.1] * 8, "b": ZERO8, "c": ZERO8}))
        map_path.write_text(json.dumps([[[[1e200] + [0.0] * 7, ZERO8, ZERO8],
                                         [ZERO8, one, ZERO8], [ZERO8, ZERO8, one]]]))
        code, out, err = run_cli(capsys, "decompose", str(path), "--apply", str(map_path))
        assert code == 2
        assert out == ""
        assert "huge_map.json" in err and "image" in err
        assert "RuntimeWarning" not in err

    @pytest.mark.parametrize("command,payload", [
        ("decompose", {"diag": [1e50, 2e50, -3e50], "a": [1e50] + [5e49] * 7,
                       "b": [0.0, 1e50] + [0.0] * 6, "c": [2.5e49] * 8}),
        ("dirac", {"P": {"diag": [1e50, 1e50], "a": [1e50] + [0.0] * 7}}),
    ], ids=["decompose", "dirac"])
    def test_large_finite_input_accepted(self, capsys, tmp_path, command, payload):
        path = tmp_path / "large.json"
        path.write_text(json.dumps(payload))
        code, out, _ = run_cli(capsys, command, str(path))
        assert code == 0
        assert json.loads(out)["pass"] is True


ONE8 = [1.0] + [0.0] * 7
I2_JSON = [[ONE8, ZERO8], [ZERO8, ONE8]]
I3_JSON = [[ONE8 if r == c else ZERO8 for c in range(3)] for r in range(3)]


# 400 digits: JSON reads it as an int, and converting it to a float overflows
HUGE_INT = 10**399


class TestHugeIntegerInput:
    @pytest.mark.parametrize("command,payload", [
        ("decompose", {"diag": [HUGE_INT, 2, 3], "a": ZERO8, "b": ZERO8, "c": ZERO8}),
        ("decompose", {"diag": [1, 2, 3], "a": [HUGE_INT] + [0] * 7, "b": ZERO8, "c": ZERO8}),
        ("dirac", {"P": {"diag": [HUGE_INT, 0], "a": ZERO8}}),
    ], ids=["decompose-diagonal", "decompose-octonion", "dirac"])
    def test_rejected(self, capsys, tmp_path, command, payload):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(payload))
        code, out, err = run_cli(capsys, command, str(path))
        assert code == 2 and out == ""
        assert err == f"error: {path}: int too large to convert to float\n"

    def test_map_entry_rejected(self, capsys, tmp_path):
        path, map_path = tmp_path / "matrix.json", tmp_path / "huge_map.json"
        path.write_text(json.dumps({"diag": [1.0, 2.0, 3.0], "a": ZERO8, "b": ZERO8, "c": ZERO8}))
        map_path.write_text(json.dumps([[[[HUGE_INT] + [0] * 7, ZERO8, ZERO8],
                                         [ZERO8, ONE8, ZERO8], [ZERO8, ZERO8, ONE8]]]))
        code, out, err = run_cli(capsys, "decompose", str(path), "--apply", str(map_path))
        assert code == 2 and out == ""
        assert err == f"error: {map_path}: int too large to convert to float\n"


class TestDeepNesting:
    # json.load recurses once per level on the unclosed file, _numeric on the
    # closed one; either way the input is malformed, not a crash
    @pytest.mark.parametrize("text", ["[" * 100_000, "[" * 900 + "]" * 900],
                             ids=["unclosed-100000", "closed-900"])
    @pytest.mark.parametrize("command", ["decompose", "dirac"])
    def test_rejected(self, capsys, tmp_path, command, text):
        path = tmp_path / "deep.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, command, str(path))
        assert code == 2 and out == ""
        assert err.startswith(f"error: {path}: ")

    def test_unclosed_error_says_so(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        _, _, err = run_cli(capsys, "decompose", str(path))
        assert err == f"error: {path}: JSON nested too deeply\n"


class TestMalformedMap:
    @pytest.mark.parametrize("nm", [
        [],
        [[]],
        [[[ONE8, ZERO8, ZERO8], [ZERO8, ONE8]]],
        [[[ONE8, ZERO8, ZERO8], [ZERO8, ONE8, ZERO8]]],
        [I3_JSON, I2_JSON],
        [[[[1.0] + [0.0] * 6] * 2] * 2],
        [[[ONE8, "i"], [ZERO8, ONE8]]],
        {"layers": [I3_JSON]},
        5,
        [I2_JSON],
        [[[["1"] + ["0"] * 7, ZERO8, ZERO8], I3_JSON[1], I3_JSON[2]]],
        [[[[True] + [False] * 7, ZERO8, ZERO8], I3_JSON[1], I3_JSON[2]]],
        [[[[1.0, True] + [0.0] * 6, ZERO8, ZERO8], I3_JSON[1], I3_JSON[2]]],
        [[[[None] + [0.0] * 7, ZERO8, ZERO8], I3_JSON[1], I3_JSON[2]]],
    ], ids=["empty", "empty-layer", "ragged-row", "non-square", "mixed-sizes",
            "seven-coefficients", "string-entry", "object", "number", "2x2-on-3x3",
            "string-coefficients", "boolean-coefficients", "boolean-in-float-list",
            "null-coefficient"])
    def test_rejected(self, capsys, tmp_path, nm):
        path, map_path = tmp_path / "matrix.json", tmp_path / "map.json"
        path.write_text(json.dumps({"diag": [1.0, 2.0, 3.0], "a": ZERO8, "b": ZERO8, "c": ZERO8}))
        map_path.write_text(json.dumps(nm))
        code, out, err = run_cli(capsys, "decompose", str(path), "--apply", str(map_path))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {map_path}: ") and "Traceback" not in err

    def test_object_map_error_names_the_file(self, capsys, tmp_path):
        # a JSON object where the layer list belongs
        path, map_path = tmp_path / "matrix.json", tmp_path / "map.json"
        path.write_text(json.dumps({"diag": [1.0, 2.0, 3.0], "a": ZERO8, "b": ZERO8, "c": ZERO8}))
        map_path.write_text(json.dumps({"layers": [I3_JSON]}))
        code, _, err = run_cli(capsys, "decompose", str(path), "--apply", str(map_path))
        assert code == 2
        assert err == f"error: {map_path}: a map is a JSON list of layers\n"

    def test_matrix_given_as_map_rejected(self, capsys, tmp_path):
        path = tmp_path / "matrix.json"
        path.write_text(json.dumps({"diag": [1.0, 2.0, 3.0], "a": ZERO8, "b": ZERO8, "c": ZERO8}))
        code, out, err = run_cli(capsys, "decompose", str(path), "--apply", str(path))
        assert code == 2 and out == ""
        assert err == f"error: {path}: a map is a JSON list of layers\n"


class TestMalformedFields:
    @pytest.mark.parametrize("command, payload, message", [
        ("decompose", {"diag": [1.0, 2.0, 3.0], "a": ZERO8, "b": ZERO8}, "missing field 'c'"),
        ("dirac", {"Q": {"diag": [1.0, 0.0], "a": ZERO8}}, "missing field 'P'"),
        ("decompose", [1.0, 2.0, 3.0], "expected a JSON object"),
        ("dirac", [1.0, 0.0], "expected a JSON object"),
        ("decompose", {"diag": 5, "a": ZERO8, "b": ZERO8, "c": ZERO8},
         "field 'diag' must hold 3 numbers"),
        ("decompose", {"diag": [1.0, 2.0, 3.0], "a": {"x": 1}, "b": ZERO8, "c": ZERO8},
         "field 'a' must hold 8 numbers"),
        ("dirac", {"P": 5}, "expected a JSON object"),
        ("dirac", {"P": {"diag": [1.0, 0.0], "a": [1.0, 2.0]}}, "field 'a' must hold 8 numbers"),
        ("decompose", {"diag": [1.0, 2.0, 3.0], "a": [[1.0], [1.0, 2.0]] + ZERO8[2:], "b": ZERO8,
                       "c": ZERO8}, "field 'a' must hold 8 numbers"),
    ], ids=["decompose-missing-c", "dirac-missing-P", "decompose-list", "dirac-list",
            "decompose-number-diag", "decompose-object-entry", "dirac-number-P",
            "dirac-short-entry", "decompose-ragged-entry"])
    def test_message_names_file_and_field(self, capsys, tmp_path, command, payload, message):
        path = tmp_path / "fields.json"
        path.write_text(json.dumps(payload))
        code, out, err = run_cli(capsys, command, str(path))
        assert code == 2
        assert out == ""
        assert err == f"error: {path}: {message}\n"


class TestNonNumericInput:
    @pytest.mark.parametrize("command,payload", [
        ("decompose", {"diag": ["1", 2, 3], "a": ZERO8, "b": ZERO8, "c": ZERO8}),
        ("decompose", {"diag": [1.0, 2.0, 3.0], "a": [True] + [0] * 7, "b": ZERO8, "c": ZERO8}),
        ("decompose", {"diag": [1.0, 2.0, 3.0], "a": ZERO8, "b": [1.0, True] + [0.0] * 6,
                       "c": ZERO8}),
        ("decompose", {"diag": [False, 2.0, 3.0], "a": ZERO8, "b": ZERO8, "c": ZERO8}),
        ("dirac", {"P": {"diag": [1.0, "0"], "a": ZERO8}}),
        ("dirac", {"P": {"diag": [True, False], "a": ZERO8}}),
        ("dirac", {"P": {"diag": [1.0, 0.0], "a": [0.0, True] + [0.0] * 6}}),
    ], ids=["decompose-string-diag", "decompose-boolean-entry", "decompose-boolean-in-floats",
            "decompose-boolean-diag", "dirac-string-diag", "dirac-boolean-diag",
            "dirac-boolean-in-floats"])
    def test_rejected(self, capsys, tmp_path, command, payload):
        path = tmp_path / "typed.json"
        path.write_text(json.dumps(payload))
        code, out, err = run_cli(capsys, command, str(path))
        assert code == 2
        assert out == ""
        assert "typed.json" in err and "number" in err
        assert "Traceback" not in err


class TestTriality:
    def test_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "triality")
        assert code == 0
        report = json.loads(out)
        names = [c["name"] for c in report["checks"]]
        assert names == ["diagonal-action", "four-flip-entrywise-equality",
                         "l-conjugation-identity"]
        assert report["pass"] is True

    def test_determinism(self, capsys):
        _, first, _ = run_cli(capsys, "triality", "--seed", "3")
        _, second, _ = run_cli(capsys, "triality", "--seed", "3")
        assert first == second

    def test_seed_changes_sampling_not_verdict(self, capsys):
        code1, out1, _ = run_cli(capsys, "triality", "--seed", "3")
        code2, out2, _ = run_cli(capsys, "triality", "--seed", "4")
        assert code1 == code2 == 0
        assert json.loads(out1)["checks"][0]["observed"] != \
            json.loads(out2)["checks"][0]["observed"]


class TestReportAll:
    def test_all_suites_pass(self, capsys):
        code, out, _ = run_cli(capsys, "report-all")
        assert code == 0
        report = json.loads(out)
        assert report["pass"] is True
        suites = [r["suite"] for r in report["reports"]]
        assert suites == ["verify-E6", "verify-F4", "verify-SO91", "verify-SO9",
                          "verify-SO8", "verify-SO7", "verify-G2", "triality"]
        ranks = {r["group"]: r["rank"] for r in report["reports"] if "rank" in r}
        assert ranks == {"E6": 78, "F4": 52, "SO91": 45, "SO9": 36,
                         "SO8": 28, "SO7": 21, "G2": 14}


# argvs for the parser split: MATRIX and MOMENTUM stand for input files
PARSER_CORPUS = [
    ["table"], ["verify", "G2"], ["decompose", "MATRIX"], ["dirac", "MOMENTUM"],
    ["triality", "--seed", "5"], ["report-all", "--format", "csv"],
    ["-h"], ["--help"],
    *([name, flag] for name in cli.COMMANDS for flag in ("-h", "--help")),
    [], ["bogus"],
    ["verify"], ["decompose"], ["dirac"], ["verify", "E6", "extra"],
    ["verify", "SO7", "--slot", "3"], ["table", "--format", "xml"],
    ["verify", "E6", "--seed", "x"], ["verify", "E6", "--rank-tol", "1"],
    ["--seed", "1", "verify", "E6"], ["--", "verify", "E6"],
]


class TestUsage:
    def test_no_command(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("argv", PARSER_CORPUS, ids=lambda argv: " ".join(argv) or "no-args")
    def test_one_command_parser_reads_as_the_full_one(self, capsys, monkeypatch, tmp_path, argv):
        files = {"MATRIX": tmp_path / "matrix.json", "MOMENTUM": tmp_path / "momentum.json"}
        files["MATRIX"].write_text(json.dumps(
            {"diag": [1, 2, 3], "a": [0, 1] + [0] * 6, "b": [0] * 8, "c": [0] * 8}))
        files["MOMENTUM"].write_text(json.dumps({"P": {"diag": [1, 1], "a": [1] + [0] * 7}}))
        argv = [str(files.get(arg, arg)) for arg in argv]

        def run():
            code = main(list(argv))
            out, err = capsys.readouterr()
            return code, out, re.sub(r"# wall time: \d+\.\d+s", "# wall time: Ts", err)

        real = cli.build_parser
        built = []
        monkeypatch.setattr(cli, "build_parser", lambda command=None: built.append(command) or real(command))
        split = run()
        assert built == [argv[0] if argv and argv[0] in cli.COMMANDS else None]
        monkeypatch.setattr(cli, "build_parser", lambda command=None: real())
        assert split == run()

    @pytest.mark.parametrize("argv, message", [
        ([], "the following arguments are required: command"),
        (["bogus"], "argument command: invalid choice: 'bogus'"),
    ])
    def test_command_errors_name_the_command_argument(self, capsys, argv, message):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2 and message in err
        assert "usage: octe6 [-h] {table,verify,decompose,dirac,triality,report-all} ..." in err

    def test_full_parser_offers_every_command(self):
        parser = cli.build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        assert list(sub.choices) == ["table", "verify", "decompose", "dirac", "triality", "report-all"]


class TestRepeatedCalls:
    def test_usage_errors_leave_no_state_behind(self, capsys):
        # a rejected call leaves nothing behind that changes the next one's output
        valid = ["verify", "SO7", "--slot", "1", "--seed", "3"]
        env = dict(os.environ, PYTHONPATH=str(Path(octe6.__file__).parents[1]))
        alone = subprocess.run([sys.executable, "-m", "octe6.cli", *valid], env=env,
                               capture_output=True, text=True)
        assert alone.returncode == 0
        assert run_cli(capsys, "verify", "bogus")[0] == 2
        assert run_cli(capsys, "verify", "SO7", "--rank-tol", "1")[0] == 2
        assert run_cli(capsys, *valid)[:2] == (0, alone.stdout)

    def test_cached_parsers_keep_no_state_between_calls(self, capsys, tmp_path):
        # usage errors on the full, decompose and dirac parsers first, then
        # each valid call twice: both must read as a fresh process does
        rng = np.random.default_rng(2)
        matrix, momentum = tmp_path / "matrix.json", tmp_path / "momentum.json"
        matrix.write_text(json.dumps(jordan.jordan_to_dict(jordan.random_jordan(rng))))
        momentum.write_text(json.dumps({"P": jordan.hermitian2_to_dict(
            jordan.spinor_square(rng.standard_normal((2, 8))))}))
        valid = [["decompose", str(matrix)], ["dirac", str(momentum)]]
        env = dict(os.environ, PYTHONPATH=str(Path(octe6.__file__).parents[1]))
        fresh = [subprocess.run([sys.executable, "-m", "octe6.cli", *argv], env=env,
                                capture_output=True, text=True) for argv in valid]
        assert [run.returncode for run in fresh] == [0, 0]
        assert run_cli(capsys, "-h")[0] == 0
        assert run_cli(capsys, "verify", "bogus")[0] == 2
        assert run_cli(capsys, "decompose", str(matrix), "--tol", "nan")[0] == 2
        assert run_cli(capsys, "dirac", str(momentum), "--rank-tol", "1")[0] == 2
        assert run_cli(capsys, "decompose")[0] == 2
        for _ in range(2):
            for argv, run in zip(valid, fresh):
                assert run_cli(capsys, *argv)[:2] == (0, run.stdout)

    def test_parser_is_built_on_the_first_call_only(self, capsys, monkeypatch):
        cli.build_parser.cache_clear()
        built = []
        real = argparse.ArgumentParser.__init__
        monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                            lambda self, *args, **kwargs: built.append(1) or real(self, *args, **kwargs))
        counts = []
        for _ in range(3):
            assert run_cli(capsys, "table")[0] == 0
            counts.append(len(built))
        # the top-level parser and the table subparser, then none
        assert counts == [2, 2, 2]

    def test_full_parser_warmed_up_without_argument_serves_main(self, capsys, monkeypatch):
        # build_parser() and main's full-parser call share one cache entry
        cli.build_parser.cache_clear()
        cli.build_parser()
        built = []
        real = argparse.ArgumentParser.__init__
        monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                            lambda self, *args, **kwargs: built.append(1) or real(self, *args, **kwargs))
        for argv in (["-h"], [], ["bogus"], ["--seed", "1", "verify", "E6"]):
            assert run_cli(capsys, *argv)[0] in (0, 2)
        assert built == []
        assert cli.build_parser.cache_info().currsize == 1


class TestImport:
    def test_cli_import_leaves_numpy_random_unloaded(self):
        # the compatibility samples are seeded on first use, not at import
        code = ("import sys, numpy; before = 'numpy.random' in sys.modules; "
                "import octe6.cli; print(before, 'numpy.random' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=str(Path(octe6.__file__).parents[1]))
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout.split()
        assert out[1] == out[0]

    def test_verify_leaves_numpy_ma_unloaded(self):
        # numpy.ma costs about 12 ms to import, a tenth of a one-shot verify call
        code = ("import sys, contextlib, io, octe6.cli\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                "    octe6.cli.main(['verify', 'E6'])\n"
                "print('numpy.ma' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=str(Path(octe6.__file__).parents[1]))
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout.split()
        assert out == ["False"]
