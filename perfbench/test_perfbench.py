"""Tests of the benchmark itself (not collected by the repository's test suite).

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import importlib
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import clock  # noqa: E402
import oracle  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402
from octe6 import jordan, octonion  # noqa: E402


def _inputs(wl, workdir: Path):
    """Everything a workload hands to octe6, with the scratch directory factored out."""
    if isinstance(wl, workloads.CliWorkload):
        files = {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}
        argv = [[a.replace(str(workdir), "<dir>") for a in argv] for argv in wl.argv]
        return argv, files
    words = [[layer.arr.tobytes() for layer in w.layers] for w in wl.words]
    mats = [[X.to_vector().tobytes() for X in block] for block in wl.mats]
    return words, mats


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(name, tmp_path):
    cls = workloads.WORKLOADS[name]
    runs = []
    for seed, sub in ((7, "a"), (7, "b"), (8, "c")):
        workdir = tmp_path / sub
        workdir.mkdir()
        runs.append(_inputs(cls(seed, workdir), workdir))
    assert runs[0] == runs[1]
    assert runs[0] != runs[2]


def _bindings():
    pkg = importlib.import_module("octe6")
    spaces = [pkg] + [importlib.import_module(f"octe6.{m}") for m in tracer_mod.LAYERS]
    out = {(ns.__name__, attr): id(obj) for ns in spaces for attr, obj in vars(ns).items()}
    for (layer, cls_name, attr) in tracer_mod.METHODS:
        cls = getattr(importlib.import_module(f"octe6.{layer}"), cls_name)
        out[(cls.__qualname__, attr)] = id(cls.__dict__[attr])
    return out


def test_tracer_restores_every_binding():
    before = _bindings()
    tr = tracer_mod.Tracer()
    tr.install()
    try:
        during = _bindings()
        changed = {key for key in before if before[key] != during[key]}
        # re-bound names are wrapped too: jordan's copy of omatmul and the package's det3
        assert {("octe6.octonion", "omatmul"), ("octe6.jordan", "omatmul"),
                ("octe6.transform", "omatmul"), ("octe6", "det3"),
                ("NestedMap", "apply"), ("JordanMatrix", "__init__")} <= changed
        X = jordan.JordanMatrix.identity()
        tr.call_op(jordan.det3, X)
    finally:
        tr.uninstall()
    assert _bindings() == before
    totals = tr.totals()
    assert totals["jordan.det3"][0] == 1 and totals["octonion.omatmul"][0] >= 2


def test_self_times_add_up_to_root():
    tr = tracer_mod.Tracer()

    def leaf():
        time.sleep(0.002)

    def mid():
        time.sleep(0.001)
        wrapped_leaf()
        wrapped_leaf()

    def outer():
        wrapped_mid()
        time.sleep(0.001)
        wrapped_leaf()

    wrapped_leaf, wrapped_mid = tr.wrap("t.leaf", leaf), tr.wrap("t.mid", mid)
    wrapped_outer = tr.wrap("t.outer", outer)
    for _ in range(3):
        tr.call_op(wrapped_outer)
    totals = tr.totals()
    assert totals["t.leaf"][0] == 9 and totals["t.mid"][0] == 3 and totals["t.outer"][0] == 3
    selfs = tr.self_times()
    assert (selfs >= 0).all()
    assert sum(s for _, s in totals.values()) == pytest.approx(tr.root_seconds(), abs=1e-9)
    assert totals["t.leaf"][1] >= 9 * 0.002
    assert tr.ops == 3


def test_oracle_matches_octonion_table():
    rng = np.random.default_rng(3)
    x, y = rng.standard_normal((2, 64, 8))
    np.testing.assert_allclose(oracle.omul(x, y), octonion.omul(x, y), atol=1e-13)


def test_closed_form_determinant_matches_det3():
    rng = np.random.default_rng(4)
    for _ in range(20):
        X = jordan.random_jordan(rng)
        assert oracle.det_closed_form(X.to_vector()) == pytest.approx(jordan.det3(X), abs=1e-10)


def test_complex_eigenvalue_reference():
    rng = np.random.default_rng(5)
    X, s = jordan.random_complex_jordan(rng)
    z = [complex(o[0], o[1:] @ s[1:]) for o in (X.a, X.b, X.c)]
    ref = oracle.complex_eigenvalues((X.p, X.m, X.n), *z)
    np.testing.assert_allclose(jordan.eigenvalues(X), ref, atol=1e-10)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "e6-orbit",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0 and done.stdout == ""


def test_calibrated_scales_each_slice_by_its_kernel_times(monkeypatch):
    kernel_times = iter([0.010, 0.030, 0.020])
    monkeypatch.setattr(clock, "time_kernel", lambda: next(kernel_times))
    c = clock.Calibrated()  # kernel before the first slice: 0.010
    c.add("a", 1.0)
    c.add("b", 2.0)
    c.flush()  # after: 0.030, mean 0.020
    c.add("a", 3.0)
    c.flush()  # after: 0.020, mean 0.025
    assert c.scaled["a"] == pytest.approx([clock.REF_S / 0.020, 3.0 * clock.REF_S / 0.025])
    assert c.scaled["b"] == pytest.approx([2.0 * clock.REF_S / 0.020])
    assert c.kernel_s == [0.030, 0.020]


def test_known_defects_stay_out_of_the_timed_cycle(tmp_path):
    wl = workloads.CliStream(3, tmp_path)
    assert sorted(wl.timed + wl.probes) == list(range(len(wl)))
    assert {wl.classes[i] for i in wl.probes} == set(wl.KNOWN_DEFECTS)
    assert not {wl.classes[i] for i in wl.timed} & set(wl.KNOWN_DEFECTS)
