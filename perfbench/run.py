"""octe6 benchmark: one closed-loop caller, one workload per process.

    python3 perfbench/run.py --workload verify-suite --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  ``--trace 0`` times every operation with
tracing off, scales the times to a reference host speed (``clock.py``) and
prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced cycles of the same operations and prints the per-layer
metrics and the tracing overhead.  The second-to-last stdout line is a
detail report (provenance, per-class counts, every metric); the last line
is the result object.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# no extra threads: BLAS runs on the calling thread (read when numpy loads)
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

MIN_OPS = 100  # per run; on verify-suite that is 6 repeats of each of its 18 calls
WARMUP_S = 1.0
SETUP_REPEATS = 9

SETUP_CHILD = """\
import sys, time
sys.path[:0] = [{src!r}, {here!r}]
t0 = time.perf_counter()
import octe6
{setup}
t1 = time.perf_counter()
import statistics, clock
print(t1 - t0, statistics.median(clock.time_kernel() for _ in range(5)))
"""


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def setup_seconds(setup: str) -> list[float]:
    """import octe6 plus the workload's set-up, each in a fresh interpreter.

    Each child then times the calibration kernel, which scales its set-up time.
    """
    from clock import REF_S

    code = SETUP_CHILD.format(src=str(SRC), here=str(HERE), setup=setup)
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              check=True, timeout=120, cwd=ROOT)
        seconds, kernel_s = map(float, done.stdout.split())
        times.append(seconds * REF_S / kernel_s)
    return times


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + name):
            return line.split()[0]
    return "unknown"


def provenance(args, cycles: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": git_sha(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "cycles": cycles,
        "setup_repeats": 0 if args.trace else SETUP_REPEATS,
    }


class Tally:
    """Outcomes of the measured operations; their scaled times are in ``clock``."""

    def __init__(self, wl, clock):
        self.wl = wl
        self.clock = clock
        self.attempted = 0
        self.classes: dict[str, dict] = {}
        self.failed = 0
        self.failed_inputs: set[int] = set()
        self.ranks = 0
        self.margin = 0.0

    def record(self, i: int, result) -> None:
        reason, info = self.wl.check(i, result)
        self.attempted += 1
        cls = self.classes.setdefault(self.wl.classes[i], {"attempted": 0, "failed": 0,
                                                           "reasons": {}})
        cls["attempted"] += 1
        if reason is not None:
            self.failed += 1
            self.failed_inputs.add(i)
            cls["failed"] += 1
            cls["reasons"][reason] = cls["reasons"].get(reason, 0) + 1
        self.ranks += info.get("rank", 0)
        self.margin = max([self.margin, *info.get("margins", [])])

    def latencies(self, tag=None) -> list[float]:
        """Each operation's median scaled time over its repeats in the run."""
        return [statistics.median(times) for key, times in self.clock.scaled.items()
                if key[0] == tag]


def run_cycle(wl, tally: Tally, call, tag=None) -> None:
    clock = tally.clock
    for i in wl.timed:
        t0 = perf_counter()
        result = call(wl.call, i)
        t1 = perf_counter()
        clock.add((tag, i), t1 - t0)
        tally.record(i, result)
        clock.tick()


def plain(fn, i):
    return fn(i)


def warm_up(wl) -> None:
    """Operations of the first cycle, untimed, until WARMUP_S has passed."""
    t_end = perf_counter() + WARMUP_S
    for i in wl.timed:
        wl.check(i, wl.call(i))
        if perf_counter() > t_end:
            break


def probe_defects(wl) -> Tally:
    """Each known-defect input twice, untimed: outcomes are reported, not timed."""
    tally = Tally(wl, None)
    for _ in range(2):
        for i in wl.probes:
            tally.record(i, wl.call(i))
    return tally


def end_to_end(tally: Tally, setup: list[float]) -> dict:
    lat = tally.latencies()
    deciles = statistics.quantiles(lat, n=10, method="inclusive")
    ok_share = 1.0 - tally.failed / tally.attempted
    return {
        "items_per_s": {"value": ok_share * len(lat) / sum(lat), "unit": "1/s"},
        "op_ms_p50": {"value": 1e3 * statistics.median(lat), "unit": "ms"},
        "op_ms_p90": {"value": 1e3 * deciles[8], "unit": "ms"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "unit": "MB"},
    }


def measure_untraced(wl, seconds: float) -> tuple[Tally, int]:
    from clock import Calibrated

    tally, cycles = Tally(wl, Calibrated()), 0
    start = perf_counter()
    while cycles == 0 or perf_counter() - start < seconds or tally.attempted < MIN_OPS:
        run_cycle(wl, tally, plain)
        cycles += 1
    tally.clock.flush()
    return tally, cycles


def measure_traced(wl, seconds: float, tr) -> tuple[Tally, Tally, int]:
    """Alternate untraced and traced cycles so both see the same machine state."""
    from clock import Calibrated

    clock = Calibrated()
    untraced, traced, cycles = Tally(wl, clock), Tally(wl, clock), 0
    start = perf_counter()
    while cycles == 0 or perf_counter() - start < seconds:
        run_cycle(wl, untraced, plain)
        clock.flush()
        tr.install()
        try:
            run_cycle(wl, traced, tr.call_op, tag="traced")
            clock.flush()
        finally:
            tr.uninstall()
        cycles += 1
    return untraced, traced, cycles


def layer_metrics(tr, traced: Tally, untraced: Tally) -> dict:
    from tracer import LAYERS, ROOT as ROOT_SPAN

    ops = tr.ops
    totals = tr.totals()

    def calls(name):
        return totals.get(name, (0, 0.0))[0]

    def self_s(name):
        return totals.get(name, (0, 0.0))[1]

    m = {}

    def put(name, value, unit):
        m[name] = {"value": float(value), "unit": unit}

    per_fn = {
        "octonion": ("omul", "omatmul"),
        "jordan": ("jordan_product", "det3", "sigma", "eigenvalues"),
        "transform": ("apply", "as_linear_op", "is_compatible", "is_welldefined", "embed"),
        "generators": ("roster", "curve_eval", "lie_element", "singular_values"),
        "cayley": ("psquare_decompose", "classify", "dirac_solve"),
        "cli": ("main", "build_parser"),
    }
    for layer, fns in per_fn.items():
        for fn in fns:
            name = f"{layer}.{fn}"
            if layer != "cli":
                put(f"{name}.calls", calls(name) / ops, "1/op")
            put(f"{name}.self_s", self_s(name) / ops, "s/op")
    products = tr.products
    put("octonion.products", products / ops, "1/op")
    kernel_s = self_s("octonion.omul") + self_s("octonion.omatmul")
    put("octonion.ns_per_product", 1e9 * kernel_s / products if products else 0.0, "ns")
    put("jordan.JordanMatrix.constructed", calls("jordan.JordanMatrix.constructed") / ops, "1/op")
    lie = calls("generators.lie_element")
    put("generators.useful_ratio", traced.ranks / lie if lie else 0.0, "ratio")
    put("cli.worst_margin_log10",
        math.log10(traced.margin) if traced.margin > 0 else -30.0, "decades")
    # self times partition the root spans: the layers plus bench.self_s add up to trace.op_s
    for layer in LAYERS:
        put(f"{layer}.self_s", sum(s for n, (_, s) in totals.items()
                                   if n.startswith(layer + ".")) / ops, "s/op")
    put("bench.self_s", self_s(ROOT_SPAN) / ops, "s/op")
    put("trace.op_s", tr.root_seconds() / ops, "s/op")
    put("trace.overhead_ratio",
        sum(traced.latencies("traced")) / sum(untraced.latencies()) - 1.0, "ratio")
    put("trace.spans", len(tr.start) / ops, "1/op")
    return m


def class_report(*tallies: Tally) -> dict:
    out = {}
    for tally in tallies:
        for name, c in tally.classes.items():
            agg = out.setdefault(name, {"attempted": 0, "failed": 0, "reasons": {}})
            agg["attempted"] += c["attempted"]
            agg["failed"] += c["failed"]
            for reason, count in c["reasons"].items():
                agg["reasons"][reason] = agg["reasons"].get(reason, 0) + count
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "octe6" / "__init__.py").is_file():
        print(f"error: no octe6 sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(SRC), str(HERE)]
    import octe6
    from workloads import WORKLOADS

    if Path(octe6.__file__).resolve().parent != (SRC / "octe6").resolve():
        print(f"error: imported octe6 from {octe6.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    setup = [] if args.trace else setup_seconds(workload.SETUP)

    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workload(args.seed, workdir)
        warm_up(wl)
        detail = {}
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            untraced, traced, cycles = measure_traced(wl, args.seconds, tracer)
            tallies = (untraced, traced)
            metrics = layer_metrics(tracer, traced, untraced)
            spans = OUT / f"spans-{args.workload}-seed{args.seed}.npz"
            tracer.write(spans)
            detail["spans_file"] = str(spans.relative_to(ROOT))
        else:
            tally, cycles = measure_untraced(wl, args.seconds)
            tallies = (tally,)
            metrics = end_to_end(tally, setup)
            detail["setup_samples_s"] = setup
        defects = probe_defects(wl)
        failed_inputs = set().union(defects.failed_inputs, *(t.failed_inputs for t in tallies))
        extra = {"fail_ratio": {"value": len(failed_inputs) / len(wl), "unit": "ratio"}}
        if not args.trace:
            extra.update(wl.summary())
            detail["all_end_to_end"] = {**metrics, **extra}
        else:
            detail["fail_ratio"] = extra["fail_ratio"]
        kernel_s = tallies[0].clock.kernel_s
    finally:
        for path in workdir.iterdir():
            path.unlink()
        workdir.rmdir()

    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    detail.update({
        "provenance": provenance(args, cycles),
        "kernel_ms_median": 1e3 * statistics.median(kernel_s),
        "ops": attempted,
        "classes": class_report(*tallies),
        "known_defects": class_report(defects),
    })
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
