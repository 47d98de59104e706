"""Benchmark of the triclone command line: sweep, iterate and verify.

Usage, from the root of a source checkout (nothing needs to be built):

    python3 benchmarks/run.py --workload sweep --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --self-test

One process, with BLAS and OpenMP pinned to one thread, imports the
package from ``src/``, warms up, and then calls ``triclone.cli.main`` for
the workload again and again for ``--seconds``, checking every output
against the closed forms in oracles.py.  The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: median wall time of fresh interpreters that each import
  the package and run a two-point sweep (first call of both channels and
  of ``measures``), started between repetitions across the run;
* ``ops_per_s``: median over repetitions of correct operations per
  second (a grid point, a cloning step or a verification check);
* ``peak_rss_mib``: peak resident memory of this process, which runs
  only the one workload.

``--trace 1`` alternates untraced repetitions with repetitions that have
spans on every layer in tracing.LAYERS, and reports call counts, self
times, the exact counters and the tracing overhead.  Spans, the
environment record and the result are written under ``.bench_out/``.
"""

from __future__ import annotations

import os

# Pinned before numpy is first imported, in this process and its children.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import io
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stdout
from pathlib import Path

import tracing
from workloads import WORKLOADS, invoke

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_RUNS = 15
SETUP_TIMEOUT_S = 60
MIN_REPS = 3
# A traced run compares its counters between at least two repetitions.
MIN_TRACED_REPS = 2
JOINT_DIM = 512  # original x copy x machine of the non-local cloner, 8**3

SETUP_SNIPPET = (
    "import sys\n"
    "from triclone.cli import main\n"
    "sys.exit(main(['sweep', '--points', '2', '--output', sys.argv[1]]))\n"
)


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def load_cli():
    """Import the package from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "triclone" / "__init__.py").is_file():
        fail(f"no triclone package under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import triclone.cli

    if Path(triclone.cli.__file__).resolve().parent != SRC / "triclone":
        fail(f"imported triclone from {triclone.cli.__file__}, not {SRC}")
    return triclone.cli


def warm_up(cli, tmp: Path) -> None:
    """First calls of every command path, so lazy set-up is not timed."""
    import triclone.verification  # noqa: F401  (imported lazily by verify)

    out = str(tmp / "warmup.csv")
    with redirect_stdout(io.StringIO()):
        cli.main(["sweep", "--points", "3", "--output", out])
        cli.main(["iterate", "--steps", "2", "--output", out])
    os.remove(out)


def measure_setup(tmp: Path) -> float:
    """Wall time of a fresh interpreter that imports and makes the first calls."""
    out = tmp / "setup.csv"
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_SNIPPET, str(out)],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(SRC), TMPDIR=str(tmp)),
        timeout=SETUP_TIMEOUT_S,
        capture_output=True,
        text=True,
    )
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        fail(f"set-up run exited with {proc.returncode}: {proc.stderr.strip()}")
    out.unlink()
    return elapsed


def run_reps(workload, cli, tmp: Path, seconds: float, min_reps: int,
             tracer=None, after_rep=None):
    """Repeat the workload for ``seconds``, and at least ``min_reps`` times.

    ``after_rep(progress)`` runs after each repetition, outside its timing,
    with the share of ``seconds`` used so far.  Returns per-rep seconds and
    failed-operation counts.
    """
    times, failures = [], []
    start = time.perf_counter()
    while len(times) < min_reps or time.perf_counter() - start < seconds:
        if tracer is not None:
            tracer.begin_rep()
        elapsed, captures = 0.0, []
        for argv, output in workload.argvs(tmp):
            # Looked up per call, so a traced run sees the wrapped main.
            dt, cap = invoke(lambda a: cli.main(a), argv, output)
            elapsed += dt
            captures.append(cap)
        if tracer is not None:
            tracer.end_rep()
        times.append(elapsed)
        failures.append(workload.failures(workload.parse(captures)))
        if after_rep is not None:
            after_rep((time.perf_counter() - start) / seconds)
    return times, failures


def ops_per_s(workload, times, failures) -> float:
    return statistics.median(
        (workload.ops_per_rep - f) / t for t, f in zip(times, failures)
    )


def cache_sizes() -> dict:
    """CPU cache sizes as the kernel reports them for cpu0."""
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        sizes[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    return sizes


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def environment(args, workload) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_caches": cache_sizes(),
        "git_sha": git_sha(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": workload.size,
        "joint_state_bytes_computed": JOINT_DIM * JOINT_DIM * 16,
    }


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload, cli, tmp: Path, seconds: float):
    # Set-up runs are spread over the run, between repetitions, so that
    # both metrics sample the same stretch of a shared machine's speed.
    setup = []

    def sample_setup(progress: float) -> None:
        while len(setup) < math.ceil(SETUP_RUNS * min(progress, 1.0)):
            setup.append(measure_setup(tmp))

    times, failures = run_reps(
        workload, cli, tmp, seconds, MIN_REPS, after_rep=sample_setup
    )
    sample_setup(1.0)
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": metric(statistics.median(setup), "s"),
        "ops_per_s": metric(ops_per_s(workload, times, failures), "1/s"),
        "peak_rss_mib": metric(rss_mib, "MiB"),
    }
    samples = {"rep_s": times, "setup_s": setup}
    return metrics, samples, len(times) * workload.ops_per_rep, sum(failures), True


def traced(workload, cli, tmp: Path, seconds: float, spans_path: Path):
    """Per-layer metrics, from traced repetitions that alternate with untraced ones.

    The tracing overhead is the median ratio of each traced repetition to
    the untraced one just before it, so that both sample the same stretch
    of a shared machine's speed.
    """
    tracer = tracing.Tracer()
    plain_times, traced_times, failures = [], [], []
    start = time.perf_counter()
    while (
        len(traced_times) < MIN_TRACED_REPS or time.perf_counter() - start < seconds
    ):
        times, fails = run_reps(workload, cli, tmp, 0.0, 1)
        plain_times += times
        failures += fails
        tracer.install()
        try:
            times, fails = run_reps(workload, cli, tmp, 0.0, 1, tracer)
        finally:
            tracer.uninstall()
        traced_times += times
        failures += fails
    tracer.write_spans(spans_path)
    counters = [tracer.counters(rep, workload.ops_per_rep) for rep in tracer.reps]
    repeatable = all(c == counters[0] for c in counters)
    if not repeatable:
        print("counters differ between repetitions of one seed", file=sys.stderr)
    if tracer.absent:
        print(f"absent layers: {', '.join(tracer.absent)}")
    overhead = statistics.median(t / p for p, t in zip(plain_times, traced_times)) - 1
    metrics = {name: metric(value, "count") for name, value in counters[0].items()}
    metrics.update({name: metric(v, "s") for name, v in tracer.self_times().items()})
    metrics["trace.overhead_frac"] = metric(overhead, "ratio")
    samples = {"untraced_rep_s": plain_times, "traced_rep_s": traced_times}
    attempted = len(failures) * workload.ops_per_rep
    return metrics, samples, attempted, sum(failures), repeatable


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--self-test", action="store_true",
        help="run tiny instances, the oracle perturbation and counter checks",
    )
    args = parser.parse_args(argv)
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    cli = load_cli()
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    # verify writes its determinism sweeps through tempfile.
    tempfile.tempdir = str(tmp)
    try:
        if args.self_test:
            import selftest

            return selftest.main(cli, tmp)
        workload = WORKLOADS[args.workload](args.seed)
        warm_up(cli, tmp)
        env = environment(args, workload)
        print("env: " + json.dumps(env, sort_keys=True))
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        if args.trace:
            metrics, samples, attempted, failed, ok = traced(
                workload, cli, tmp, args.seconds, OUT / f"spans-{stem}.csv"
            )
        else:
            metrics, samples, attempted, failed, ok = end_to_end(
                workload, cli, tmp, args.seconds
            )
        for name, m in metrics.items():
            print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
        print(f"{args.workload} failed_frac = {failed / attempted:.6g} ratio "
              f"({failed}/{attempted} operations)")
        result = {
            "correct": ok and failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        }
        (OUT / f"result-{stem}.json").write_text(
            json.dumps({"env": env, "samples": samples, **result}, indent=1) + "\n"
        )
        print(json.dumps(result))
        return 0
    finally:
        tempfile.tempdir = None
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
