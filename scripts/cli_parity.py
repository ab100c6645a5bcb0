"""Check that the CLI passes and gives the same output in a fresh process and in a reused one.

Runs two sets of commands.  The first holds 71: ``verify`` for every group
and slot at seeds 0, 3, 7 and 11, ``triality --seed 5``, and ``report-all
--seed 3`` as JSON and as CSV.  The second runs ``decompose`` and ``dirac``
on a fixed set of inputs drawn from a seeded generator and written to a
temporary directory: generic, two-cluster, near-identity (I + eps N for
eps from 1e-9 to 1e-3) and diagonal matrices, each alone and under
``--apply`` of an E6 word, and null momenta theta theta^dagger of both
signs.  Their stdout carries the lambdas, projectors and residual bounds
read from the Jordan invariants.

Each command runs once as ``python -m octe6.cli`` in a new process, where
it must exit 0, then twice, in order, through ``octe6.cli.main`` inside
this interpreter, after everything the earlier calls left in the process.
Exit codes and stdout must match byte for byte; RuntimeWarnings are
errors on both sides.  Prints one sha256 per set over the fresh runs' exit
codes and stdout (no temporary path reaches stdout), exits 1 at the first
failure or mismatch.

    PYTHONPATH=src python scripts/cli_parity.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

from octe6 import cli, generators, jordan, transform
from octe6.cayley import random_quaternionic_spinor

INPUT_SEED = 2009


def commands() -> list[list[str]]:
    out = []
    for group in generators.GROUPS:
        for slot in (0, 1, 2) if group in generators.SLOT_GROUPS else (0,):
            for seed in (0, 3, 7, 11):
                out.append(["verify", group, "--slot", str(slot), "--seed", str(seed)])
    out.append(["triality", "--seed", "5"])
    out.append(["report-all", "--seed", "3"])
    out.append(["report-all", "--seed", "3", "--format", "csv"])
    return out


def input_commands(workdir: Path) -> list[list[str]]:
    """``decompose`` and ``dirac`` commands on seeded inputs written to workdir."""
    rng = np.random.default_rng(INPUT_SEED)
    identity = jordan.JordanMatrix.identity()
    e6 = generators.roster("E6")
    out = []

    def decompose(matrices: list, first: int) -> None:
        """Each matrix alone and under ``--apply`` of a seeded E6 word of 1 to 3 layers."""
        for idx, (kind, X) in enumerate(matrices, first):
            path = workdir / f"{kind}-{idx}.json"
            path.write_text(json.dumps(jordan.jordan_to_dict(X)))
            out.append(["decompose", str(path)])
            word = e6[int(rng.integers(len(e6)))](float(rng.uniform(-1.0, 1.0)))
            for _ in range(idx % 3):
                word = word.compose(e6[int(rng.integers(len(e6)))](float(rng.uniform(-1.0, 1.0))))
            map_path = workdir / f"map-{idx}.json"
            map_path.write_text(json.dumps(transform.nested_map_to_json(word)))
            out.append(["decompose", str(path), "--apply", str(map_path)])

    matrices = []
    for scale in (1e-3, 1.0, 1e3):
        matrices.append(("generic", jordan.random_jordan(rng, scale)))
    for mu in (-1.0, 0.5):
        # mu I plus a rank-1 square: eigenvalues mu + tr, mu, mu
        matrices.append(("two-cluster", identity * mu + random_quaternionic_spinor(rng).square()))
    for eps in (1e-9, 1e-3):
        noise = jordan.JordanMatrix.from_vector(np.r_[np.zeros(3), rng.standard_normal(24)])
        matrices.append(("near-identity", identity + noise * eps))
    for diag in ((3.0, -1.0, 0.5), (2.0, 0.0, 0.0)):
        matrices.append(("diagonal", jordan.JordanMatrix.diag(*diag)))
    decompose(matrices, 0)
    for idx, sign in enumerate((1.0, -1.0, 1.0, -1.0)):
        P = jordan.spinor_square(rng.standard_normal((2, 8)) * 10.0 ** (idx - 1)) * sign
        path = workdir / f"momentum-{idx}.json"
        path.write_text(json.dumps({"P": jordan.hermitian2_to_dict(P)}))
        out.append(["dirac", str(path)])
    # drawn after everything else, so the inputs above do not depend on
    # them: I + eps N with N = random_jordan has three eigenvalues about
    # eps apart, where the interpolation numerators of psquare_decompose
    # cancel hardest
    near = [("near-identity", identity + jordan.random_jordan(rng) * eps) for eps in (1e-7, 1e-6, 1e-5)]
    decompose(near, len(matrices))
    return out


def fresh(argv: list[str]) -> tuple[int, str]:
    run = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "octe6.cli", *argv],
                         capture_output=True, text=True)
    return run.returncode, run.stdout


def in_process(argv: list[str]) -> tuple[int, str]:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, stdout.getvalue()


def check(argvs: list[list[str]]) -> str | None:
    """The sha256 of the fresh runs if every command passes and repeats in process, else None."""
    expected = [fresh(argv) for argv in argvs]
    for argv, (code, _) in zip(argvs, expected):
        if code != 0:
            print(f"octe6 {' '.join(argv)}: exit {code} in a fresh process")
            return None
    digest = hashlib.sha256()
    for code, stdout in expected:
        digest.update(f"{code}\n{stdout}".encode())
    for run in (1, 2):
        for argv, want in zip(argvs, expected):
            got = in_process(argv)
            if got != want:
                print(f"pass {run}: octe6 {' '.join(argv)}: exit {got[0]} in process, "
                      f"{want[0]} fresh; stdout {'equal' if got[1] == want[1] else 'differs'}")
                return None
    return digest.hexdigest()


def main() -> int:
    warnings.simplefilter("error", RuntimeWarning)
    with tempfile.TemporaryDirectory() as tmp:
        sets = {"verify, triality and report-all": commands(),
                "decompose and dirac": input_commands(Path(tmp))}
        digests = {}
        for name, argvs in sets.items():
            digests[name] = check(argvs)
            if digests[name] is None:
                return 1
    for name, argvs in sets.items():
        print(f"{len(argvs)} {name} commands, fresh and two in-process passes equal; "
              f"sha256 {digests[name]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
