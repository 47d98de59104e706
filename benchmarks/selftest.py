"""Self-test of the benchmark: ``python3 benchmarks/run.py --self-test``.

It fails (exit 1) unless

* a tiny instance of each workload runs with zero failed operations,
  traced, and its exact counters repeat between two repetitions;
* perturbing one parsed output value of each workload is counted as
  exactly one failed operation, so the oracles are not vacuous;
* the 201-point ``triclone sweep`` CSV is byte-identical to the one the
  seed commit wrote;
* BENCHMARK.json names the workloads and metrics this benchmark reports;
* in a directory that holds only BENCHMARK.json and the benchmark, a run
  exits with an error and prints no result.

It also prints per-call layer times next to the baseline ranges in
ROADMAP aim 1; those depend on the machine, so they are reported, not
enforced.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import tracing
import workloads
from run import ROOT, run_reps

SEED = 2024
SWEEP_201_SHA256 = "9edcd99e1c5d094ea0c684130ae1d6010c4f13553ce51c35bfe1d59b90d843a3"
END_TO_END = ("setup_s", "ops_per_s", "peak_rss_mib")

# Per-call wall time (inclusive of child layers) from ROADMAP aim 1.
BASELINE_PER_CALL_S = {
    "cloners.apply_local_cloning": (2e-3, 3e-3),
    "cloners.apply_nonlocal_cloning": (2e-3, 3e-3),
    "entanglement.measures": (0.12e-3, 0.22e-3),
    "linalg.DensityMatrix": (30e-6, 50e-6),
}


def tiny_workloads():
    return [
        workloads.Sweep(SEED, points=9),
        workloads.Iterate(SEED, alphas=1),
        workloads.Verify(SEED),
    ]


def capture(workload, cli, tmp: Path):
    caps = [
        workloads.invoke(lambda a: cli.main(a), argv, out)[1]
        for argv, out in workload.argvs(tmp)
    ]
    return workload.parse(caps)


def perturbations(workload, parsed):
    """Copies of ``parsed`` with one operation's output made wrong."""
    if isinstance(workload, workloads.Sweep):
        lines, rows = parsed
        row = list(rows[3])
        row[2] += 1e-9
        # The same value written with a trailing zero: equal as a number,
        # different as bytes.
        respelled = lines[:4] + [lines[4] + "0"] + lines[5:]
        return {
            "sweep value": (lines, rows[:3] + [tuple(row)] + rows[4:]),
            "sweep bytes": (respelled, rows),
        }
    if isinstance(workload, workloads.Iterate):
        header, rows, table = parsed[0]
        row = list(rows[5])
        row[2] += 1e-9
        return {"iterate value": [(header, rows[:5] + [tuple(row)] + rows[6:], table)]}
    _, verdicts = parsed
    fixed = dict(verdicts, **{"e2-amplification-window": "PASS"})
    return {"verify criterion 06 fixed": (0, fixed)}


def check(label: str, ok: bool, problems: list[str]) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {label}")
    if not ok:
        problems.append(label)


def per_call_report(name: str, tracer) -> None:
    for layer, (lo, hi) in BASELINE_PER_CALL_S.items():
        rep = tracer.reps[-1]
        calls = rep["calls"][layer]
        if not calls:
            continue
        per_call = rep["total_s"][layer] / calls
        verdict = "within" if lo <= per_call <= hi else "outside"
        print(
            f"info {name}: {layer} {per_call * 1e3:.4f} ms per call, {verdict} "
            f"baseline {lo * 1e3:g}-{hi * 1e3:g} ms"
        )


def bare_directory_refuses(tmp: Path) -> bool:
    """A checkout with only BENCHMARK.json and benchmarks/ must not report."""
    bare = tmp / "bare"
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "benchmarks", bare / "benchmarks",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120,
    )
    return proc.returncode != 0 and '"metrics"' not in proc.stdout


def main(cli, tmp: Path) -> int:
    problems: list[str] = []
    for workload in tiny_workloads():
        name = workload.name
        parsed = capture(workload, cli, tmp)
        check(f"{name}: tiny instance has no failed operation",
              workload.failures(parsed) == 0, problems)
        for label, bad in perturbations(workload, parsed).items():
            check(f"{label}: perturbed output counts as one failed operation",
                  workload.failures(bad) == 1, problems)

        tracer = tracing.Tracer()
        tracer.install()
        try:
            _, failures = run_reps(workload, cli, tmp, 0.0, 2, tracer)
        finally:
            tracer.uninstall()
        counters = [tracer.counters(r, workload.ops_per_rep) for r in tracer.reps]
        check(f"{name}: traced repetitions have no failed operation",
              sum(failures) == 0, problems)
        check(f"{name}: exact counters repeat between repetitions",
              counters[0] == counters[1], problems)
        check(f"{name}: every traced layer is present", not tracer.absent, problems)
        per_call_report(name, tracer)

    out = tmp / "sweep201.csv"
    _, cap = workloads.invoke(lambda a: cli.main(a), ["sweep", "--output", str(out)], out)
    digest = hashlib.sha256(cap.payload or b"").hexdigest()
    check("201-point sweep CSV is byte-identical to the seed commit's",
          digest == SWEEP_201_SHA256, problems)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check("BENCHMARK.json workloads match",
          [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS), problems)
    check("BENCHMARK.json end-to-end metrics match",
          [m["name"] for m in spec["end_to_end"]] == list(END_TO_END), problems)
    check("BENCHMARK.json per-layer metrics match",
          [m["name"] for m in spec["per_layer"]] == list(tracing.METRIC_NAMES), problems)
    check("a directory without the package exits with an error and no result",
          bare_directory_refuses(tmp), problems)

    print(f"self-test: {len(problems)} problem(s)" + (f": {problems}" if problems else ""))
    return 1 if problems else 0
