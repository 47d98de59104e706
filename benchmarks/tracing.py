"""Per-layer spans and counters, installed from outside the package.

A traced run replaces each layer function listed in ``LAYERS`` with a
wrapper that records a span (id, parent id, name, start, end) and adds to
the layer's call count and self time (its span minus the spans of the
layer calls it made).  ``cli``, ``iteration`` and ``verification`` bind
``apply_*``, ``measures`` and ``input_state`` at import, so the wrapper is
installed on every module attribute that holds the function, not only on
the defining module.  A layer that no longer exists is reported as
absent.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

# (module, attribute) of every traced layer; a method is timed on the
# class, so ``DensityMatrix.__post_init__`` reports as linalg.DensityMatrix.
LAYERS = (
    ("linalg", "DensityMatrix.__post_init__"),
    ("linalg", "eig_hermitian"),
    ("linalg", "partial_trace_matrix"),
    ("linalg", "fidelity_pure"),
    ("cloners", "apply_local_cloning"),
    ("cloners", "apply_nonlocal_cloning"),
    ("cloners", "find_e2_crossings"),
    ("entanglement", "measures"),
    ("entanglement", "input_state"),
    ("iteration", "iterate"),
    ("verification", "compute_grid"),
    ("verification", "check_input_closed_forms"),
    ("verification", "check_local_oracle"),
    ("verification", "check_nonlocal_oracle"),
    ("verification", "check_measure_curves"),
    ("verification", "check_fidelities"),
    ("verification", "check_amplification_window"),
    ("verification", "check_iteration_decay"),
    ("verification", "check_channel_properties"),
    ("verification", "check_measure_properties"),
    ("verification", "check_sweep_determinism"),
    ("cli", "main"),
    ("cli", "compute_sweep_rows"),
    ("cli", "format_sweep_csv"),
)
PACKAGE = "triclone"
CHANNELS = ("cloners.apply_local_cloning", "cloners.apply_nonlocal_cloning")
ITERATE = "iteration.iterate"
CACHED = ("nonlocal_isometry", "local_isometry")


def layer_name(module: str, attr: str) -> str:
    return f"{module}.{attr.removesuffix('.__post_init__')}"


LAYER_NAMES = tuple(layer_name(m, a) for m, a in LAYERS)
COUNTER_NAMES = (
    *(f"{name}.calls" for name in LAYER_NAMES),
    "iteration.channel_calls_per_step",
    "cloners.isometry_cache.hits",
    "cloners.isometry_cache.misses",
    "linalg.DensityMatrix.per_op",
)
# Every per-layer metric of a traced run, in the order it is reported.
METRIC_NAMES = (
    *COUNTER_NAMES,
    *(f"{name}.self_s" for name in LAYER_NAMES),
    "trace.overhead_frac",
)


class Tracer:
    """Spans and per-rep counters of the layers in ``LAYERS``."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.absent: list[str] = []
        self.reps: list[dict] = []
        self._stack: list[list] = []
        self._restore: list[tuple] = []
        self._next_id = 0
        self._iterate_depth = 0
        self._cloners = None

    # -- installation -------------------------------------------------
    def install(self) -> None:
        self.absent = []
        for module, attr in LAYERS:
            name = layer_name(module, attr)
            try:
                mod = importlib.import_module(f"{PACKAGE}.{module}")
            except ImportError:
                self.absent.append(name)
                continue
            if "." in attr:
                cls_name, method = attr.split(".")
                owner = getattr(mod, cls_name, None)
                original = getattr(owner, "__dict__", {}).get(method)
                if not callable(original):
                    self.absent.append(name)
                    continue
                self._set(owner, method, self._wrap(name, original))
                continue
            original = getattr(mod, attr, None)
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            for loaded in list(sys.modules.values()):
                mod_name = getattr(loaded, "__name__", "")
                if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        self._set(loaded, key, wrapper)
        self._cloners = sys.modules.get(f"{PACKAGE}.cloners")

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def _set(self, owner, key, wrapper) -> None:
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(name, fn, args, kwargs)

        return traced

    # -- spans --------------------------------------------------------
    def _call(self, name, fn, args, kwargs):
        rep = self.reps[-1]
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else -1
        if name in CHANNELS and self._iterate_depth:
            rep["channel_calls_in_iterate"] += 1
        self._iterate_depth += name == ITERATE
        frame = [span_id, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self._iterate_depth -= name == ITERATE
            duration = end - start
            rep["calls"][name] += 1
            rep["self_s"][name] += duration - frame[1]
            rep["total_s"][name] += duration
            if self._stack:
                self._stack[-1][1] += duration
            self.spans.append((len(self.reps) - 1, span_id, parent, name, start, end))
        steps = getattr(result, "steps", None) if name == ITERATE else None
        if steps:
            rep["iterate_steps"] += len(steps) - 1
        return result

    # -- repetitions --------------------------------------------------
    def _cache_hits(self) -> int:
        return sum(f.cache_info().hits for f in self._cached())

    def cache_misses(self) -> int:
        """Isometry-cache misses since the process started."""
        return sum(f.cache_info().misses for f in self._cached())

    def _cached(self):
        funcs = (getattr(self._cloners, name, None) for name in CACHED)
        return [f for f in funcs if hasattr(f, "cache_info")]

    def begin_rep(self) -> None:
        self.reps.append(
            {
                "calls": Counter(),
                "self_s": Counter(),
                "total_s": Counter(),
                "channel_calls_in_iterate": 0,
                "iterate_steps": 0,
                "cache_hits": -self._cache_hits(),
            }
        )

    def end_rep(self) -> None:
        self.reps[-1]["cache_hits"] += self._cache_hits()

    def counters(self, rep: dict, ops: int) -> dict:
        """The exact counters of one rep; they must repeat for a fixed seed."""
        out = {f"{name}.calls": rep["calls"][name] for name in LAYER_NAMES}
        steps = rep["iterate_steps"]
        out["iteration.channel_calls_per_step"] = (
            rep["channel_calls_in_iterate"] / steps if steps else 0.0
        )
        out["cloners.isometry_cache.hits"] = rep["cache_hits"]
        out["cloners.isometry_cache.misses"] = self.cache_misses()
        out["linalg.DensityMatrix.per_op"] = rep["calls"]["linalg.DensityMatrix"] / ops
        return out

    def self_times(self) -> dict:
        """Median over reps of each layer's self time per rep."""
        return {
            f"{name}.self_s": statistics.median(r["self_s"][name] for r in self.reps)
            for name in LAYER_NAMES
        }

    def write_spans(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("rep,span,parent,name,start_s,end_s\n")
            for rep, span, parent, name, start, end in self.spans:
                fh.write(f"{rep},{span},{parent},{name},{start!r},{end!r}\n")
