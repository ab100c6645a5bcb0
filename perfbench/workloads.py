"""The three benchmark workloads: inputs from a seed, one timed call per operation.

Each workload builds all of its inputs in ``__init__`` from the seed alone,
then exposes a fixed cycle of operations.  ``call(i)`` is the only timed
part and hands octe6 nothing but those inputs; ``check(i, result)`` runs
after the timer stopped and compares the result with a reference that does
not come from the code under test (see ``oracle``) and with the result of
the same operation in the first cycle (the CLI promises byte-identical
stdout for identical argv).
"""

from __future__ import annotations

import hashlib
import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

import oracle
from octe6 import cayley, cli, generators, jordan, transform

SLOT_GROUPS = ("SO91", "SO9", "SO8", "SO7", "G2")


def rng_for(seed: int, workload: str) -> np.random.Generator:
    tag = int.from_bytes(hashlib.sha256(workload.encode()).digest()[:4], "little")
    return np.random.default_rng([seed, tag])


@dataclass
class CliResult:
    code: int | None
    stdout: str
    error: str | None  # exception type that escaped cli.main


def run_cli(argv: list[str]) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    except Exception as exc:  # escaped the CLI's own boundary: counted as a failure
        return CliResult(None, out.getvalue(), type(exc).__name__)
    return CliResult(code, out.getvalue(), None)


def report_margins(report: dict) -> list[float]:
    """observed / bound for every bounded check with a finite observation."""
    out = []
    for check in report.get("checks", []):
        tol, obs = check.get("tolerance"), check.get("observed")
        if isinstance(tol, (int, float)) and tol > 0 and isinstance(obs, (int, float)) \
                and math.isfinite(obs):
            out.append(abs(obs) / tol)
    for sub in report.get("reports", []):
        out += report_margins(sub)
    return out


class Workload:
    """Shared bookkeeping: operation classes and first-cycle outputs."""

    name = ""
    SETUP = ""  # program-side set-up timed in fresh child processes
    # classes that fail at the commit adding the benchmark: run untimed, outcomes reported
    KNOWN_DEFECTS: tuple[str, ...] = ()

    def __init__(self):
        self.classes: list[str] = []
        self._first: dict[int, object] = {}

    def __len__(self) -> int:
        return len(self.classes)

    @cached_property
    def timed(self) -> list[int]:
        """The operations of a timed cycle: every input outside the known-defect classes."""
        return [i for i, c in enumerate(self.classes) if c not in self.KNOWN_DEFECTS]

    @cached_property
    def probes(self) -> list[int]:
        return [i for i, c in enumerate(self.classes) if c in self.KNOWN_DEFECTS]

    def repeatable(self, i: int, fingerprint) -> bool:
        """Whether operation i gave the same output as the first time it ran."""
        return self._first.setdefault(i, fingerprint) == fingerprint

    def summary(self) -> dict:
        return {}


class CliWorkload(Workload):
    """Operations are argv lists for ``cli.main``."""

    def __init__(self):
        super().__init__()
        self.argv: list[list[str]] = []

    def call(self, i: int) -> CliResult:
        return run_cli(self.argv[i])

    def parse(self, i: int, res: CliResult) -> tuple[str | None, dict | None]:
        """(failure reason or None, parsed report) for the generic CLI checks."""
        if res.error is not None:
            return f"uncaught {res.error}", None
        digest = hashlib.sha256(res.stdout.encode()).hexdigest()
        if not self.repeatable(i, (res.code, digest)):
            return "stdout differs from first run", None
        report = json.loads(res.stdout) if res.code in (0, 1) else None  # 0/1 emit a report
        if res.code != 0:
            return f"exit {res.code}", report
        if report.get("pass") is not True:
            return "report pass false", report
        return None, report


class VerifySuite(CliWorkload):
    """``verify`` for every group and slot, plus ``triality``."""

    name = "verify-suite"
    SETUP = ("from octe6 import cli, generators\n"
             "for g in generators.GROUPS:\n"
             "    for s in ((0, 1, 2) if g in generators.SLOT_GROUPS else (0,)):\n"
             "        generators.roster(g, slot=s)\n"
             "cli.build_parser()\n")

    def __init__(self, seed: int, workdir: Path):
        super().__init__()
        rng = rng_for(seed, self.name)
        self.groups: list[str | None] = []
        for group in oracle.PAPER_DIMENSION:
            for slot in ((0, 1, 2) if group in SLOT_GROUPS else (0,)):
                self.argv.append(["verify", group, "--slot", str(slot),
                                  "--seed", str(int(rng.integers(2**31)))])
                self.classes.append(f"verify-{group}")
                self.groups.append(group)
        self.argv.append(["triality", "--seed", str(int(rng.integers(2**31)))])
        self.classes.append("triality")
        self.groups.append(None)

    def check(self, i: int, res: CliResult) -> tuple[str | None, dict]:
        reason, report = self.parse(i, res)
        info = {"margins": report_margins(report) if report else []}
        group = self.groups[i]
        if reason is None and group is not None:
            info["rank"] = report["rank"]
            if report["rank"] != oracle.PAPER_DIMENSION[group]:
                reason = f"rank {report['rank']} != {oracle.PAPER_DIMENSION[group]}"
        return reason, info

    def summary(self) -> dict:
        gaps = [generators.rank_gap(generators.roster(g)) for g in oracle.PAPER_DIMENSION]
        return {"min_rank_gap_log10": {"value": float(np.log10(min(gaps))), "unit": "decades"}}


def _log_scale(rng, lo: float, hi: float) -> float:
    return float(10.0 ** rng.uniform(lo, hi))


def _unit_imaginary(rng) -> np.ndarray:
    s = rng.standard_normal(8)
    s[0] = 0.0
    return s / np.linalg.norm(s)


def _jordan_dict(diag, a, b, c) -> dict:
    return {"diag": [float(x) for x in diag], "a": list(map(float, a)),
            "b": list(map(float, b)), "c": list(map(float, c))}


class CliStream(CliWorkload):
    """``decompose`` and ``dirac`` over small JSON inputs written up front.

    The near-degenerate and two malformed classes fail at the commit that
    introduced this benchmark; they stay, outside the timed cycle, so that
    fixes show as a lower ``fail_ratio`` (KNOWN_DEFECTS).
    """

    name = "cli-stream"
    SETUP = "from octe6 import cli\ncli.build_parser()\n"
    PER_CLASS = 24
    DECOMPOSE = ("generic", "complex", "quaternionic", "diagonal", "near-degenerate")
    MALFORMED = ("malformed-nan", "malformed-overflow", "malformed-diag-length")
    KNOWN_DEFECTS = ("near-degenerate", "malformed-nan", "malformed-overflow")

    def __init__(self, seed: int, workdir: Path):
        super().__init__()
        rng = rng_for(seed, self.name)
        self.expect: list[dict] = []
        e6 = generators.roster("E6")
        kinds = [k for k in self.DECOMPOSE for _ in range(self.PER_CLASS)]
        kinds += [k for k in self.MALFORMED for _ in range(self.PER_CLASS // len(self.MALFORMED))]
        kinds += ["dirac"] * self.PER_CLASS
        for idx, kind in enumerate(kinds):
            path = workdir / f"in{idx}.json"
            if kind == "dirac":
                data, expect = self._dirac_input(rng)
                argv = ["dirac", str(path)]
            else:
                data, expect = self._decompose_input(rng, kind)
                argv = ["decompose", str(path)]
                if idx % 2:
                    layers = int(rng.integers(1, 7))
                    map_path = workdir / f"map{idx}.json"
                    map_path.write_text(json.dumps(
                        transform.nested_map_to_json(random_word(rng, e6, layers))))
                    argv += ["--apply", str(map_path)]
                    expect.pop("lambdas", None)  # the map moves the spectrum
            path.write_text(json.dumps(data))
            self.argv.append(argv)
            self.classes.append(kind)
            self.expect.append(expect)

    @staticmethod
    def _decompose_input(rng, kind: str) -> tuple[dict, dict]:
        if kind == "generic":
            s = _log_scale(rng, -3, 3)
            v = rng.standard_normal(27) * s
            return _jordan_dict(v[:3], v[3:11], v[11:19], v[19:]), {"exit": 0, "p": 3}
        if kind == "complex":
            s = _log_scale(rng, -3, 3)
            unit = _unit_imaginary(rng)
            diag = rng.standard_normal(3) * s
            z = (rng.standard_normal(3) + 1j * rng.standard_normal(3)) * s
            octs = [np.eye(8)[0] * w.real + unit * w.imag for w in z]
            lams = oracle.complex_eigenvalues(diag, *z)
            return _jordan_dict(diag, *octs), {"exit": 0, "p": 3, "lambdas": lams}
        if kind == "quaternionic":
            s = _log_scale(rng, -1.5, 1.5)
            t1, t2, xi = (np.concatenate([rng.standard_normal(4) * s, np.zeros(4)])
                          for _ in range(3))
            x1, x2, a = oracle.spinor_square(t1, t2)
            b = oracle.oconj(oracle.omul(t2, xi))
            c = oracle.omul(t1, xi)
            trace = x1 + x2 + float(xi @ xi)
            return _jordan_dict([x1, x2, xi @ xi], a, b, c), \
                {"exit": 0, "p": 1, "lambdas": np.array([trace, 0.0])}
        if kind == "diagonal":
            diag = rng.standard_normal(3) * _log_scale(rng, -3, 3)
            diag[rng.random(3) < 0.25] = 0.0
            zero = np.zeros(8)
            return _jordan_dict(diag, zero, zero, zero), \
                {"exit": 0, "p": int(np.count_nonzero(diag)), "lambdas": np.sort(diag)[::-1]}
        if kind == "near-degenerate":
            off = rng.standard_normal(24) * 1e-9
            return _jordan_dict([1.0, 1.0, 1.0], off[:8], off[8:16], off[16:]), \
                {"exit": 0, "p": 3}
        v = rng.standard_normal(27)
        data = _jordan_dict(v[:3], v[3:11], v[11:19], v[19:])
        if kind == "malformed-nan":
            data["diag"][int(rng.integers(3))] = float("nan")
        elif kind == "malformed-overflow":
            data["abc"[int(rng.integers(3))]][int(rng.integers(8))] = 1e200
        else:
            data["diag"] = data["diag"][:2]
        return data, {"exit": 2}

    @staticmethod
    def _dirac_input(rng) -> tuple[dict, dict]:
        s = _log_scale(rng, -1.5, 1.5)
        unit = _unit_imaginary(rng)
        t1, t2 = (np.eye(8)[0] * x + unit * y for x, y in rng.standard_normal((2, 2)) * s)
        sign = 1.0 if rng.random() < 0.5 else -1.0
        x1, x2, a = oracle.spinor_square(t1, t2)
        P = {"diag": [sign * x1, sign * x2], "a": list(map(float, sign * a))}
        # theta theta^dagger must equal sign(tr P) P, the unsigned square
        return {"P": P}, {"exit": 0, "P": (x1, x2, a)}

    def check(self, i: int, res: CliResult) -> tuple[str | None, dict]:
        expect = self.expect[i]
        if expect["exit"] != 0:
            if res.error is not None:
                return f"uncaught {res.error}", {}
            if not self.repeatable(i, (res.code, res.stdout)):
                return "stdout differs from first run", {}
            return (None if res.code == 2 else f"exit {res.code}, not 2"), {}
        reason, report = self.parse(i, res)
        info = {"margins": report_margins(report) if report else []}
        if reason is not None:
            return reason, info
        if "P" in expect:
            return self._check_dirac(report, *expect["P"]), info
        if report["p"] != expect["p"]:
            return f"p {report['p']} != {expect['p']}", info
        if "lambdas" in expect:
            got = np.array(report["lambdas"])
            ref = expect["lambdas"]
            scale = max(1.0, float(np.abs(ref).max()))
            if got.shape != ref.shape or np.abs(got - ref).max() > 1e-9 * scale:
                return "eigenvalues differ from reference", info
        return None, info

    @staticmethod
    def _check_dirac(report: dict, x1: float, x2: float, a: np.ndarray) -> str | None:
        t1, t2 = (np.array(t) for t in report["theta"])
        y1, y2, b = oracle.spinor_square(t1, t2)
        scale = max(1.0, abs(x1) + abs(x2))
        err = max(abs(y1 - x1), abs(y2 - x2), float(np.abs(b - a).max()))
        return None if err <= 1e-9 * scale else "theta theta^dagger != sign P"


def random_word(rng, curves, layers: int) -> transform.NestedMap:
    """Compose random roster curves at angles in [-1, 1] to exactly `layers` layers."""
    depth = [len(c(0.0).layers) for c in curves]
    word = None
    while layers > 0:
        pick = [k for k, d in enumerate(depth) if d <= layers]
        k = pick[int(rng.integers(len(pick)))]
        step = curves[k](float(rng.uniform(-1.0, 1.0)))
        word = step if word is None else word.compose(step)
        layers -= depth[k]
    return word


class E6Orbit(Workload):
    """Library calls: words of 1-12 layers applied to blocks of Jordan matrices."""

    name = "e6-orbit"
    SETUP = "from octe6 import generators\ngenerators.roster('E6')\ngenerators.roster('F4')\n"
    BLOCK = 100
    MAX_LAYERS = 12

    def __init__(self, seed: int, workdir: Path):
        super().__init__()
        rng = rng_for(seed, self.name)
        self.words, self.mats, self.det_ref, self.eig_ref, self.op_index = [], [], [], [], []
        for group in ("E6", "F4"):
            curves = generators.roster(group)
            for layers in range(1, self.MAX_LAYERS + 1):
                w = len(self.words)
                self.words.append(random_word(rng, curves, layers))
                V = rng.standard_normal((self.BLOCK, 27))
                self.mats.append([jordan.JordanMatrix.from_vector(v) for v in V])
                self.det_ref.append(oracle.det_closed_form(V))
                # F4 also keeps the spectrum; the untransformed block is the reference
                self.eig_ref.append([jordan.eigenvalues(X) for X in self.mats[-1]]
                                    if group == "F4" else None)
                self.op_index += [(w, j) for j in range(self.BLOCK)]
                self.classes += [f"{group}-word"] * self.BLOCK

    def call(self, i: int):
        w, j = self.op_index[i]
        Y = self.words[w].apply(self.mats[w][j])
        det, cls = jordan.det3(Y), cayley.classify(Y)
        eig = jordan.eigenvalues(Y) if self.eig_ref[w] is not None else None
        return Y, det, cls, eig

    def check(self, i: int, result) -> tuple[str | None, dict]:
        Y, det, cls, eig = result
        w, j = self.op_index[i]
        v = Y.to_vector()
        if not self.repeatable(i, (v.tobytes(), det, cls, None if eig is None else eig.tobytes())):
            return "result differs from first run", {}
        ref = self.det_ref[w][j]
        bound = 1e-9 * max(1.0, float(oracle.frobenius(v))) ** 3
        if abs(det - ref) > bound:
            return "det3 not preserved", {}
        if abs(float(oracle.det_closed_form(v)) - ref) > bound:
            return "closed-form determinant not preserved", {}
        if cls != 3:
            return f"class {cls} != 3", {}
        if eig is not None:
            ref_eig = self.eig_ref[w][j]
            if np.abs(eig - ref_eig).max() > 1e-9 * max(1.0, float(np.abs(ref_eig).max())):
                return "eigenvalues not preserved", {}
        return None, {}


WORKLOADS = {wl.name: wl for wl in (VerifySuite, CliStream, E6Orbit)}
