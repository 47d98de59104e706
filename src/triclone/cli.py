"""Command-line front end: parameter sweeps, iteration traces, verification.

Exit codes: 0 success, 1 verification failure or a failed internal check
(printed as ``error: internal check failed: ...``), 2 usage or I/O error.
CSV output is UTF-8 with \\n line endings and shortest round-trip decimal
numbers, so identical invocations are byte-identical.
"""

from __future__ import annotations

import argparse
import ctypes
import errno
import functools
import math
import os
import sys

import numpy as np

from .cloners import MAP_BLOCK, evaluate
from .iteration import MAX_STEPS, iterate

DEFAULT_POINTS = 201
# Upper bound on sweep --points, so a typo cannot allocate without limit.
MAX_POINTS = 100_000
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


def sweep_table(points: int) -> np.ndarray:
    """(points, 9) array in ``SWEEP_COLUMNS`` order over a cos(alpha) grid."""
    xs = np.linspace(0.0, 1.0, points)
    table = np.empty((points, len(SWEEP_COLUMNS)))
    for start in range(0, points, MAP_BLOCK):
        x = xs[start : start + MAP_BLOCK]
        # Keep only measures and fidelities, so that this block's states are
        # freed before the next block is evaluated.
        e3, e2, f = evaluate([math.acos(float(v)) for v in x])[1:]
        table[start : start + len(x)] = np.column_stack((x, *e3, *e2[..., 0], *f))
    return table


def _csv_rows(rows) -> str:
    # repr of a Python float is the shortest decimal that round-trips.
    return "\n".join([*(",".join(map(repr, row)) for row in rows), ""])


def format_sweep_csv(table: np.ndarray) -> str:
    starts = range(0, len(table), MAP_BLOCK)  # bounds the Python floats held at once
    lines = (_csv_rows(table[s : s + MAP_BLOCK].tolist()) for s in starts)
    return "".join([",".join(SWEEP_COLUMNS) + "\n", *lines])


def format_iteration_table(e3: np.ndarray, e2: np.ndarray) -> str:
    """Human-readable decay table of ``iterate``'s E3 and E2, four decimals each."""
    e3, e2 = e3.tolist(), e2[:, 0].tolist()
    header = ["step"] + [str(k) for k in range(len(e3))]
    row_e3 = ["E3"] + [f"{v:.4f}" for v in e3]
    row_e2 = ["E2"] + [f"{v:.4f}" for v in e2]
    lines = []
    for cells in (header, row_e3, row_e2):
        lines.append(cells[0].ljust(4) + " ".join(c.rjust(6) for c in cells[1:]))
    return "\n".join(lines) + "\n"


def format_iteration_csv(e3: np.ndarray, e2: np.ndarray) -> str:
    rows = zip(range(len(e3)), e3.tolist(), e2[:, 0].tolist())
    return "step,e3,e2\n" + _csv_rows(rows)  # repr of an int is its str


def _write(text: str, path: str) -> int:
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        return 2
    return 0


# Each run_* returns (exit code, text for stdout); main alone writes stdout.
def run_sweep(points: int, output_path: str | None) -> tuple[int, str]:
    if not 2 <= points <= MAX_POINTS:
        raise ValueError(f"points must be between 2 and {MAX_POINTS}, got {points}")
    text = format_sweep_csv(sweep_table(points))
    return (0, text) if output_path is None else (_write(text, output_path), "")


def run_iterate(alpha: float, steps: int, output_path: str | None) -> tuple[int, str]:
    e3, e2, _ = iterate(alpha, steps)
    table = format_iteration_table(e3, e2)
    if output_path is None:
        return 0, table
    return _write(format_iteration_csv(e3, e2), output_path), table


def run_verify(seed: int) -> tuple[int, str]:
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    from .verification import informational_notes, run_all

    results = run_all(seed=seed)
    total = len(results)
    lines = [
        f"[{i:2d}/{total}] {'PASS' if r.passed else 'FAIL'}  {r.name}: {r.detail}"
        for i, r in enumerate(results, start=1)
    ]
    lines.extend(informational_notes())
    n_passed = sum(r.passed for r in results)
    lines.append(f"{n_passed}/{total} checks passed")
    return (0 if n_passed == total else 1), "\n".join(lines) + "\n"


# glibc malloc thresholds for the command.  A sweep block's largest temporary,
# its (3, 256, 8, 8) states, takes 768 KiB, under the mmap threshold, and its
# traced heap peak, about 1.9 MiB, stays under half the trim threshold.  At
# 2 MiB the freed top of that heap went back to the kernel, and a warm
# 400-point sweep made about 450 minor faults instead of one.
_MMAP_THRESHOLD = 1 << 20
_TRIM_THRESHOLD = 4 << 20


@functools.lru_cache(maxsize=1)
def _keep_freed_blocks() -> None:
    """Once per process, serve allocations under 1 MiB from glibc's heap and
    trim it only past 4 MiB free, so each block reuses the last one's pages."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(-3, _MMAP_THRESHOLD)  # M_MMAP_THRESHOLD
        mallopt(-1, _TRIM_THRESHOLD)  # M_TRIM_THRESHOLD
    except (OSError, AttributeError, TypeError):  # no glibc mallopt
        pass


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
        help=f"grid size (default {DEFAULT_POINTS}, at most {MAX_POINTS})",
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
        "--steps",
        type=int,
        default=DEFAULT_STEPS,
        help=f"cloning steps, 1 to {MAX_STEPS} (default {DEFAULT_STEPS})",
    )
    p_iter.add_argument(
        "--output", default=None, help="also write a full-precision CSV here"
    )

    p_verify = sub.add_parser("verify", help="run the verification suite")
    p_verify.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_SEED,
        help=f"seed for the randomized property checks (default {DEFAULT_SEED})",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    _keep_freed_blocks()
    ns = build_parser().parse_args(argv)
    try:
        if ns.command == "sweep":
            code, text = run_sweep(ns.points, ns.output)
        elif ns.command == "iterate":
            code, text = run_iterate(ns.alpha, ns.steps, ns.output)
        else:
            code, text = run_verify(ns.seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: internal check failed: {exc}", file=sys.stderr)
        return 1
    if not text:
        return code
    stream = sys.stdout
    try:
        if stream is None:  # descriptor 1 was closed when the process started
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        buffer = getattr(stream, "buffer", None)
        if buffer is None:
            stream.write(text)
        else:
            # A reader that leaves mid-write can cut a write short without an
            # error, so resume until everything is written or the error shows.
            stream.flush()
            data = memoryview(text.encode(stream.encoding))
            while data:
                data = data[buffer.write(data) :]
        stream.flush()
    except OSError as exc:
        if stream is not None:
            # Send what is still buffered to devnull, so the flush at exit passes.
            with open(os.devnull, "wb") as devnull:
                os.dup2(devnull.fileno(), stream.fileno())
        print(f"error: cannot write to stdout: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    raise SystemExit(main())
