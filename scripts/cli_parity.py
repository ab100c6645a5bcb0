"""Check that the CLI passes and gives the same output in a fresh process and in a reused one.

Runs 71 commands: ``verify`` for every group and slot at seeds 0, 3, 7
and 11, ``triality --seed 5``, and ``report-all --seed 3`` as JSON and as
CSV.  Each runs once as ``python -m octe6.cli`` in a new process, where it
must exit 0, then twice, in order, through ``octe6.cli.main`` inside this
interpreter, after everything the earlier calls left in the process.  Exit
codes and stdout must match byte for byte; RuntimeWarnings are errors on
both sides.  Prints a sha256 over the fresh runs' exit codes and stdout,
exits 1 at the first failure or mismatch.

    PYTHONPATH=src python scripts/cli_parity.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import subprocess
import sys
import warnings

from octe6 import cli, generators


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


def fresh(argv: list[str]) -> tuple[int, str]:
    run = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "octe6.cli", *argv],
                         capture_output=True, text=True)
    return run.returncode, run.stdout


def in_process(argv: list[str]) -> tuple[int, str]:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, stdout.getvalue()


def main() -> int:
    warnings.simplefilter("error", RuntimeWarning)
    argvs = commands()
    expected = [fresh(argv) for argv in argvs]
    for argv, (code, _) in zip(argvs, expected):
        if code != 0:
            print(f"octe6 {' '.join(argv)}: exit {code} in a fresh process")
            return 1
    digest = hashlib.sha256()
    for code, stdout in expected:
        digest.update(f"{code}\n{stdout}".encode())
    for run in (1, 2):
        for argv, want in zip(argvs, expected):
            got = in_process(argv)
            if got != want:
                print(f"pass {run}: octe6 {' '.join(argv)}: exit {got[0]} in process, "
                      f"{want[0]} fresh; stdout {'equal' if got[1] == want[1] else 'differs'}")
                return 1
    print(f"{len(argvs)} commands, fresh and two in-process passes equal; sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
