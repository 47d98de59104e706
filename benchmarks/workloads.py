"""The three benchmark workloads: inputs from a seed, CLI invocations, checks.

Each workload drives ``triclone.cli.main`` exactly as a user would type
the command, and counts operations:

* ``sweep``: one grid point of ``triclone sweep``.  Independent rank-one
  inputs through both channels and three ``measures`` per point: the
  throughput case that batching and a compiled superoperator speed up.
* ``iterate``: one cloning step of ``triclone iterate --steps 12``.  Each
  step depends on the last and clones a full-rank mixed state with a
  degenerate spectrum through its eigenvectors, so batching across
  points cannot help; validation cost dominates.
* ``verify``: one check of ``triclone verify --seed <seed>``.  Dense
  random states, sequential bisection and determinism sweeps: it catches
  an optimisation for the two-corner family that slows general states.

An operation fails when the command raises or exits with the wrong code,
or when its output differs from the closed-form oracles in oracles.py.
"""

from __future__ import annotations

import io
import math
import random
import re
import sys
import time
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import oracles

SWEEP_POINTS = (384, 416)
ITERATE_ALPHAS = 4
ITERATE_STEPS = 12

SWEEP_HEADER = (
    "cos_alpha,e3_input,e3_local,e3_nonlocal,e2_input,e2_local,e2_nonlocal,"
    "f_local,f_nonlocal"
)

# Every check of ``triclone verify`` with the verdict the seed commit
# gives it.  Criterion 06 pins a reference window that violates
# lo^2 + hi^2 = 1, so FAIL is the correct verdict; a PASS there is wrong.
VERIFY_EXPECTED = {
    "input-state-closed-forms": "PASS",
    "local-cloning-oracle": "PASS",
    "nonlocal-cloning-oracle": "PASS",
    "closed-form-measure-curves": "PASS",
    "fidelities": "PASS",
    "e2-amplification-window": "FAIL",
    "iterated-cloning-decay": "PASS",
    "channel-properties": "PASS",
    "measure-properties": "PASS",
    "sweep-determinism": "PASS",
}
VERIFY_LINE = re.compile(r"^\[\s*\d+/\d+\] (PASS|FAIL)  ([^:]+): ")


@dataclass
class Capture:
    """What one CLI invocation left behind; ``code`` is None if it raised."""

    code: int | None
    stdout: str
    payload: bytes | None


def invoke(main: Callable[[list[str]], int], argv: list[str], output: Path | None):
    """Run ``main(argv)`` with stdout captured; return (seconds, Capture)."""
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with redirect_stdout(buf):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash is a failed operation, not a failed benchmark
        traceback.print_exc(file=sys.stderr)
        code = None
    elapsed = time.perf_counter() - start
    payload = None
    if output is not None and output.exists():
        payload = output.read_bytes()
        output.unlink()
    return elapsed, Capture(code, buf.getvalue(), payload)


class Sweep:
    name = "sweep"

    def __init__(self, seed: int, points: int | None = None):
        rng = random.Random(seed)
        self.points = points if points is not None else rng.randint(*SWEEP_POINTS)
        self.ops_per_rep = self.points
        self.size = {"points": self.points}
        self.reference: list[str] | None = None

    def argvs(self, tmp: Path):
        out = tmp / "sweep.csv"
        return [(["sweep", "--points", str(self.points), "--output", str(out)], out)]

    def parse(self, captures: list[Capture]):
        """Lines and float rows of the CSV, or None if there is no CSV."""
        (cap,) = captures
        if cap.code != 0 or cap.payload is None:
            return None
        lines = cap.payload.decode("utf-8", errors="replace").split("\n")
        if lines[-1] != "":
            return None
        lines = lines[:-1]
        rows = []
        for line in lines[1:]:
            try:
                rows.append(tuple(float(v) for v in line.split(",")))
            except ValueError:
                rows.append(())
        return lines, rows

    def failures(self, parsed) -> int:
        """Grid points whose row is missing, wrong, or differs from the first run."""
        if parsed is None:
            return self.points
        lines, rows = parsed
        if lines[0] != SWEEP_HEADER or len(rows) != self.points:
            return self.points
        if self.reference is None:
            self.reference = lines
        failed = 0
        for i, row in enumerate(rows):
            expected = oracles.sweep_row(i / (self.points - 1))
            wrong = (
                not oracles.close(row, expected)
                or lines[i + 1] != self.reference[i + 1]
            )
            failed += wrong
        return failed


class Iterate:
    name = "iterate"

    def __init__(self, seed: int, alphas: int = ITERATE_ALPHAS):
        rng = random.Random(seed)
        # Keep clear of the product states at 0 and pi/2, where E3 and E2
        # vanish and a wrong value could hide under the tolerance.
        self.alphas = [rng.uniform(0.05, math.pi / 2 - 0.05) for _ in range(alphas)]
        self.steps = ITERATE_STEPS
        self.ops_per_rep = self.steps * len(self.alphas)
        self.size = {"alphas": self.alphas, "steps": self.steps}

    def argvs(self, tmp: Path):
        out = tmp / "iterate.csv"
        return [
            (
                ["iterate", "--alpha", repr(a), "--steps", str(self.steps),
                 "--output", str(out)],
                out,
            )
            for a in self.alphas
        ]

    def parse(self, captures: list[Capture]):
        """Per alpha: the (step, e3, e2) CSV rows and the printed table, or None."""
        parsed = []
        for cap in captures:
            if cap.code != 0 or cap.payload is None:
                parsed.append(None)
                continue
            try:
                lines = cap.payload.decode("utf-8").split("\n")
                rows = [tuple(float(v) for v in line.split(",")) for line in lines[1:-1]]
            except ValueError:
                parsed.append(None)
                continue
            table = [line.split() for line in cap.stdout.splitlines()]
            parsed.append((lines[0], rows, table))
        return parsed

    def failures(self, parsed) -> int:
        """Cloning steps whose E3 or E2 is wrong.

        A missing or malformed CSV, a wrong step-0 row, or a printed table
        that disagrees with the CSV fails every step of that invocation.
        """
        failed = 0
        for alpha, item in zip(self.alphas, parsed):
            if item is None:
                failed += self.steps
                continue
            header, rows, table = item
            if (
                header != "step,e3,e2"
                or len(rows) != self.steps + 1
                or any(len(r) != 3 or r[0] != k for k, r in enumerate(rows))
                or table != _decay_table(rows)
            ):
                failed += self.steps
                continue
            wrong = [
                not oracles.close(r[1:], oracles.iterate_row(alpha, k))
                for k, r in enumerate(rows)
            ]
            failed += self.steps if wrong[0] else sum(wrong[1:])
        return failed


def _decay_table(rows) -> list[list[str]]:
    """The printed decay table, split into cells, that matches CSV rows."""
    return [
        ["step"] + [str(int(r[0])) for r in rows],
        ["E3"] + [f"{r[1]:.4f}" for r in rows],
        ["E2"] + [f"{r[2]:.4f}" for r in rows],
    ]


class Verify:
    name = "verify"

    def __init__(self, seed: int):
        self.seed = seed
        self.ops_per_rep = len(VERIFY_EXPECTED)
        self.size = {"checks": len(VERIFY_EXPECTED)}

    def argvs(self, tmp: Path):
        return [(["verify", "--seed", str(self.seed)], None)]

    def parse(self, captures: list[Capture]):
        """Exit code and the verdict printed for each check."""
        (cap,) = captures
        verdicts = {}
        for line in cap.stdout.splitlines():
            m = VERIFY_LINE.match(line)
            if m:
                verdicts[m.group(2)] = m.group(1)
        return cap.code, verdicts

    def failures(self, parsed) -> int:
        """Checks with a missing or unexpected verdict.

        A check added after the seed commit must PASS.  An exit code that
        contradicts the verdicts counts as one more failed check.
        """
        code, verdicts = parsed
        failed = sum(
            verdicts.get(name) != verdict for name, verdict in VERIFY_EXPECTED.items()
        )
        failed += sum(
            v != "PASS" for name, v in verdicts.items() if name not in VERIFY_EXPECTED
        )
        expected_code = 0 if all(v == "PASS" for v in verdicts.values()) else 1
        if code != expected_code or not verdicts:
            failed += 1
        return min(failed, self.ops_per_rep)


WORKLOADS = {"sweep": Sweep, "iterate": Iterate, "verify": Verify}
