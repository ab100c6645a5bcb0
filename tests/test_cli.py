"""CLI surface: subcommands, JSON schemas, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import octe6
from octe6 import cayley, generators, transform
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


class TestVerify:
    def test_g2_rank(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "G2")
        assert code == 0
        report = json.loads(out)
        assert report["rank"] == 14 and report["expected"] == 14
        assert report["curve_count"] == 210
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
        from octe6 import jordan
        honest_random, honest_apply = jordan.random_jordan, transform.NestedMap.apply
        monkeypatch.setattr(jordan, "random_jordan", lambda rng: honest_random(rng) * 1e-3)
        monkeypatch.setattr(transform.NestedMap, "apply", lambda nm, X: honest_apply(nm, X) * 1.5)
        code, out, _ = run_cli(capsys, "verify", "SO8", "--seed", "1")
        assert code == 1
        checks = {c["name"]: c for c in json.loads(out)["checks"]}
        assert checks["determinant-preservation"]["pass"] is False
        assert checks["determinant-preservation"]["observed"] > 1e-3

    def test_trace_bound_is_relative_above_unit_scale(self, capsys, monkeypatch):
        # on samples scaled by 2^30 the absolute change in the trace was
        # 4.8e-7, over the 1e-8 bound, while the relative det check passed
        from octe6 import jordan
        honest_random = jordan.random_jordan
        monkeypatch.setattr(jordan, "random_jordan", lambda rng: honest_random(rng) * 2.0**30)
        code, out, _ = run_cli(capsys, "verify", "F4", "--seed", "3")
        assert code == 0
        checks = {c["name"]: c for c in json.loads(out)["checks"]}
        assert checks["trace-preservation"]["pass"] and checks["determinant-preservation"]["pass"]

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 2.0**30])
    def test_trace_bound_fails_a_wrong_map_at_every_scale(self, capsys, monkeypatch, scale):
        # a map that scales every image by 1 + 1e-6 moves the trace by 1e-6 |tr X|
        from octe6 import jordan
        honest_random, honest_apply = jordan.random_jordan, transform.NestedMap.apply
        monkeypatch.setattr(jordan, "random_jordan", lambda rng: honest_random(rng) * scale)
        monkeypatch.setattr(transform.NestedMap, "apply", lambda nm, X: honest_apply(nm, X) * (1 + 1e-6))
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
            sample = [curves[t] for t in rng.choice(len(curves), size=6, replace=False)]
            assert _layer_residual(sample, 1e-9) == _layer_residual_loop(sample, 1e-9)

    def test_layer_predicates_flag_a_failing_block(self):
        from octe6.cli import _layer_residual
        # one constant layer diag(i, j), which is not complex
        A = np.zeros((1, 2, 2, 8))
        A[0, 0, 0, 1] = A[0, 1, 1, 2] = 1.0
        mixed = generators.GeneratorCurve("mixed", 1, "trig", (0.0,), A, np.zeros_like(A))
        sample = generators.roster("SO8")[:3] + [mixed]
        assert _layer_residual(sample, 1e-9) == _layer_residual_loop(sample, 1e-9) == np.inf


def _layer_residual_loop(curves, tol):
    """The per-block loop that the stacked layer-predicate pass replaced, kept as an oracle."""
    res = 0.0
    for curve in curves:
        for block in curve.layer_arrays([0.37])[0]:
            if not transform.is_complex(block):
                res = np.inf
                break
            res = max(res, 0.0 if transform.complex_det(block)[1] else np.inf)
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
        # 1e-9 off-diagonals merge all three eigenvalues; p must still agree with the cascade
        near = [1e-9] + [0.0] * 7
        path = tmp_path / "near_scalar.json"
        path.write_text(json.dumps({"diag": [1.0, 1.0, 1.0], "a": near, "b": near, "c": near}))
        code, out, _ = run_cli(capsys, "decompose", str(path))
        assert code == 0
        report = json.loads(out)
        assert report["p"] == 3 and report["pass"] is True

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
        assert checks == {"reconstruction-residual": False, "class-vs-cascade": True}

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


class TestUsage:
    def test_no_command(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()


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
