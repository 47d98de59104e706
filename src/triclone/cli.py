"""Command-line front end: parameter sweeps, iteration traces, verification.

Exit codes: 0 success, 1 verification failure or a failed internal check
(printed as ``error: internal check failed: ...``), 2 usage or I/O error.
CSV output is UTF-8 with \\n line endings and shortest round-trip decimal
numbers, so identical invocations are byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from .cloners import evaluate
from .iteration import IterationTrace, iterate

DEFAULT_POINTS = 201
# Upper bound on sweep --points, so a typo cannot allocate without limit.
MAX_POINTS = 100_000
# Sweep points per evaluate() call: bounds the stacked 8 x 8 outputs held
# at once, so memory does not grow with --points.
SWEEP_BLOCK = 128
DEFAULT_STEPS = 6
DEFAULT_ALPHA = math.pi / 4.0
DEFAULT_SEED = 12345

SWEEP_COLUMNS = (
    "cos_alpha",
    "e3_input",
    "e3_local",
    "e3_nonlocal",
    "e2_input",
    "e2_local",
    "e2_nonlocal",
    "f_local",
    "f_nonlocal",
)


def _fmt(value: float) -> str:
    # repr of a Python float is the shortest decimal that round-trips.
    return repr(float(value))


def sweep_table(points: int) -> np.ndarray:
    """(points, 9) array in ``SWEEP_COLUMNS`` order over a cos(alpha) grid."""
    xs = np.linspace(0.0, 1.0, points)
    table = np.empty((points, len(SWEEP_COLUMNS)))
    for start in range(0, points, SWEEP_BLOCK):
        x = xs[start : start + SWEEP_BLOCK]
        grid = evaluate([math.acos(float(v)) for v in x])
        table[start : start + len(x)] = np.column_stack(
            (
                x,
                grid.e3_in,
                grid.e3_local,
                grid.e3_nonlocal,
                grid.e2_in[:, 0],
                grid.e2_local[:, 0],
                grid.e2_nonlocal[:, 0],
                grid.f_local,
                grid.f_nonlocal,
            )
        )
    return table


def format_sweep_csv(table: np.ndarray) -> str:
    lines = [",".join(SWEEP_COLUMNS)]
    lines.extend(",".join(map(_fmt, row)) for row in table.tolist())
    return "\n".join(lines) + "\n"


def format_iteration_table(trace: IterationTrace) -> str:
    """Human-readable decay table, four decimals per entry."""
    header = ["step"] + [str(s.step) for s in trace.steps]
    row_e3 = ["E3"] + [f"{s.e3:.4f}" for s in trace.steps]
    row_e2 = ["E2"] + [f"{s.e2:.4f}" for s in trace.steps]
    lines = []
    for cells in (header, row_e3, row_e2):
        lines.append(cells[0].ljust(4) + " ".join(c.rjust(6) for c in cells[1:]))
    return "\n".join(lines) + "\n"


def format_iteration_csv(trace: IterationTrace) -> str:
    lines = ["step,e3,e2"]
    for s in trace.steps:
        lines.append(f"{s.step},{_fmt(s.e3)},{_fmt(s.e2)}")
    return "\n".join(lines) + "\n"


def _write_or_print(text: str, path: str | None) -> int:
    if path is None:
        sys.stdout.write(text)
        return 0
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        return 2
    return 0


def run_sweep(points: int, output_path: str | None) -> int:
    if not 2 <= points <= MAX_POINTS:
        raise ValueError(f"points must be between 2 and {MAX_POINTS}, got {points}")
    table = sweep_table(points)
    return _write_or_print(format_sweep_csv(table), output_path)


def run_iterate(alpha: float, steps: int, output_path: str | None) -> int:
    trace = iterate(alpha, steps)
    sys.stdout.write(format_iteration_table(trace))
    if output_path is not None:
        return _write_or_print(format_iteration_csv(trace), output_path)
    return 0


def run_verify(seed: int) -> int:
    from .verification import informational_notes, run_all

    results = run_all(seed=seed)
    total = len(results)
    for i, result in enumerate(results, start=1):
        status = "PASS" if result.passed else "FAIL"
        print(f"[{i:2d}/{total}] {status}  {result.name}: {result.detail}")
    for note in informational_notes():
        print(note)
    n_passed = sum(r.passed for r in results)
    print(f"{n_passed}/{total} checks passed")
    return 0 if n_passed == total else 1


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it as it is."""
    parser = argparse.ArgumentParser(
        prog="triclone",
        description=(
            "Three-qubit entanglement under local and non-local universal "
            "quantum cloning: sweeps, iterated-cloning traces, verification."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser(
        "sweep", help="CSV of measures and fidelities over a cos(alpha) grid"
    )
    p_sweep.add_argument(
        "--points",
        type=int,
        default=DEFAULT_POINTS,
        help=f"grid size (default 201, at most {MAX_POINTS})",
    )
    p_sweep.add_argument(
        "--output", default=None, help="CSV path (default: stdout)"
    )

    p_iter = sub.add_parser(
        "iterate", help="entanglement decay under repeated non-local cloning"
    )
    p_iter.add_argument(
        "--alpha",
        type=float,
        default=DEFAULT_ALPHA,
        help="input-state angle in radians (default pi/4)",
    )
    p_iter.add_argument(
        "--steps", type=int, default=DEFAULT_STEPS, help="cloning steps (default 6)"
    )
    p_iter.add_argument(
        "--output", default=None, help="also write a full-precision CSV here"
    )

    p_verify = sub.add_parser("verify", help="run the verification suite")
    p_verify.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_SEED,
        help="seed for the randomized property checks (default 12345)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        if ns.command == "sweep":
            return run_sweep(ns.points, ns.output)
        if ns.command == "iterate":
            return run_iterate(ns.alpha, ns.steps, ns.output)
        return run_verify(ns.seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: internal check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
