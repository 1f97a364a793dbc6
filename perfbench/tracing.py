"""Span recorder for the traced benchmark run.

The traced run wraps public functions of each tsboost layer from the
benchmark's side, without editing the package. A wrapper replaces the
attribute that the *caller* looks up at call time: ``boost`` resolves
``distance_matrix`` in its own module namespace, so the wrapper goes on
``tsboost.boost.distance_matrix``, not on ``tsboost.distance``. Each call
records one span (id, name, start, end, parent id, run id, count) in
memory; spans are written out once, when the run ends.

A layer's self time is the duration of its spans minus the part covered by
their direct child spans. Counts such as distance pairs, resampling draws
and bytes are computed from argument shapes and file sizes at the layer
boundary, not reported by the program.

A target that no longer exists (a later refactor may delete a function)
is recorded as absent and skipped; the layers it fed then read 0.
"""

import csv
import functools
import importlib
import itertools
import os
import threading
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

# Metrics whose value is a count computed by the benchmark from argument
# shapes or file sizes, rather than measured time or a count of calls.
COMPUTED_COUNTS = ("distance.pairs", "boost.resample.draws", "cli.read.bytes", "cli.write.bytes")


def _rows(array):
    return int(np.atleast_2d(np.asarray(array)).shape[0])


def _pairs(args, kwargs, result, exc):
    # distance_matrix(values, centers, kind): one distance per (series, center)
    values = args[0] if args else kwargs["values"]
    centers = args[1] if len(args) > 1 else kwargs["centers"]
    return _rows(values) * _rows(centers)


def _draws(args, kwargs, result, exc):
    # draw_cluster_sample(column_weights, sample_size, rng)
    return int(args[1] if len(args) > 1 else kwargs["sample_size"])


def _flat(args, kwargs, result, exc):
    return int(exc is not None and type(exc).__name__ == "FlatCriterion")


def _sweeps(args, kwargs, result, exc):
    return 0 if result is None else int(result.sweeps)


def _file_bytes(args, kwargs, result, exc):
    return os.path.getsize(args[0] if args else kwargs["path"])


def _out_bytes(args, kwargs, result, exc):
    # cmd_*(args): everything under --out was written by this command, since
    # the benchmark gives each operation fresh output paths
    out = getattr(args[0], "out", None)
    if not out:
        return 0
    out = Path(out)
    if out.is_file():
        return out.stat().st_size
    if out.is_dir():
        return sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
    return 0


# (module, attribute the caller looks up, span name, count function)
TARGETS = (
    ("tsboost.boost", "run_boost", "boost.loop", None),
    ("tsboost.boost", "distance_matrix", "distance", _pairs),
    ("tsboost.evaluate", "distance_matrix", "distance", _pairs),
    ("tsboost.boost", "pd_probabilities", "pdclust", None),
    ("tsboost.boost", "loss_beta", "pdclust", None),
    ("tsboost.evaluate", "pd_probabilities", "pdclust", None),
    ("tsboost.cli", "bc_index", "pdclust", None),
    ("tsboost.boost", "compute_weights", "boost.weights", None),
    ("tsboost.boost", "draw_cluster_sample", "boost.resample", _draws),
    ("tsboost.boost", "estimate_center", "boost.estimate", None),
    ("tsboost.boost", "update_center_adaptive", "boost.update", None),
    ("tsboost.pspline", "select_lambda", "pspline.select", _flat),
    ("tsboost.pspline", "fit_pspline", "pspline.fit", None),
    ("tsboost.simgen", "generate", "simgen.generate", None),
    ("tsboost.cli", "generate", "simgen.generate", None),
    ("tsboost.cli", "run_fcm", "fcm", _sweeps),
    ("tsboost.cli", "fuzzy_rand", "evaluate.fuzzy_rand", None),
    ("tsboost.cli", "classic_rand", "evaluate.classic_rand", None),
    ("tsboost.cli", "reference_partition", "evaluate.reference", None),
    ("tsboost.cli", "read_dataset", "cli.read", _file_bytes),
    ("tsboost.cli", "read_labels", "cli.read", _file_bytes),
    ("tsboost.cli", "read_membership", "cli.read", _file_bytes),
    ("tsboost.cli", "cmd_simulate", "cli.write", _out_bytes),
    ("tsboost.cli", "cmd_cluster", "cli.write", _out_bytes),
    ("tsboost.cli", "cmd_evaluate", "cli.write", _out_bytes),
)

# per-layer metric -> unit, in report order
PER_LAYER_UNITS = {
    "pspline.select.calls": "count",
    "pspline.select.self_s": "s",
    "pspline.select.flat_frac": "ratio",
    "pspline.fit.calls": "count",
    "pspline.fit.self_s": "s",
    "distance.calls": "count",
    "distance.self_s": "s",
    "distance.pairs": "count",
    "boost.iterations": "count",
    "boost.loop.self_s": "s",
    "boost.weights.self_s": "s",
    "boost.resample.draws": "count",
    "boost.resample.self_s": "s",
    "boost.estimate.self_s": "s",
    "boost.update.calls": "count",
    "boost.update.self_s": "s",
    "boost.update.smooth_frac": "ratio",
    "pdclust.calls": "count",
    "pdclust.self_s": "s",
    "fcm.sweeps": "count",
    "fcm.self_s": "s",
    "evaluate.fuzzy_rand.self_s": "s",
    "evaluate.classic_rand.self_s": "s",
    "evaluate.reference.self_s": "s",
    "cli.read.self_s": "s",
    "cli.read.bytes": "B",
    "cli.write.self_s": "s",
    "cli.write.bytes": "B",
    "simgen.generate.self_s": "s",
    "trace.overhead_frac": "ratio",
}


class Tracer:
    """Records spans of wrapped calls while installed; restores on removal."""

    def __init__(self):
        self.spans = []  # (id, name, start, end, parent id, run id, count)
        self.run_id = None
        self.absent = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._saved = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn, count):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            sid = next(tracer._ids)
            stack.append(sid)
            result = exc = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as err:
                exc = err
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                n = count(args, kwargs, result, exc) if count else 0
                tracer.spans.append((sid, name, start, end, parent, tracer.run_id, n))

        return wrapper

    def install(self):
        for module_name, attr, name, count in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            fn = getattr(module, attr, None)
            if fn is None:
                if f"{module_name}.{attr}" not in self.absent:
                    self.absent.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, fn, count))

    def remove(self):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def absent_layers(self):
        """Span names all of whose targets are missing."""
        present = {name for module, attr, name, _ in TARGETS
                   if f"{module}.{attr}" not in self.absent}
        return sorted({name for _, _, name, _ in TARGETS} - present)

    def layer_metrics(self, run_id):
        """Per-layer self times and counts of one run id (one traced operation)."""
        spans = [s for s in self.spans if s[5] == run_id]
        child_time = defaultdict(float)
        child_names = defaultdict(set)
        for sid, name, start, end, parent, _, _ in spans:
            if parent is not None:
                child_time[parent] += end - start
                child_names[parent].add(name)
        self_s = defaultdict(float)
        calls = defaultdict(int)
        counts = defaultdict(int)
        smoothed_updates = 0
        for sid, name, start, end, _, _, n in spans:
            self_s[name] += (end - start) - child_time[sid]
            calls[name] += 1
            counts[name] += n
            if name == "boost.update" and "pspline.select" in child_names[sid]:
                smoothed_updates += 1

        def frac(num, den):
            return num / den if den else 0.0

        return {
            "pspline.select.calls": calls["pspline.select"],
            "pspline.select.self_s": self_s["pspline.select"],
            "pspline.select.flat_frac": frac(counts["pspline.select"], calls["pspline.select"]),
            "pspline.fit.calls": calls["pspline.fit"],
            "pspline.fit.self_s": self_s["pspline.fit"],
            "distance.calls": calls["distance"],
            "distance.self_s": self_s["distance"],
            "distance.pairs": counts["distance"],
            "boost.loop.self_s": self_s["boost.loop"],
            "boost.weights.self_s": self_s["boost.weights"],
            "boost.resample.draws": counts["boost.resample"],
            "boost.resample.self_s": self_s["boost.resample"],
            "boost.estimate.self_s": self_s["boost.estimate"],
            "boost.update.calls": calls["boost.update"],
            "boost.update.self_s": self_s["boost.update"],
            "boost.update.smooth_frac": frac(smoothed_updates, calls["boost.update"]),
            "pdclust.calls": calls["pdclust"],
            "pdclust.self_s": self_s["pdclust"],
            "fcm.sweeps": counts["fcm"],
            "fcm.self_s": self_s["fcm"],
            "evaluate.fuzzy_rand.self_s": self_s["evaluate.fuzzy_rand"],
            "evaluate.classic_rand.self_s": self_s["evaluate.classic_rand"],
            "evaluate.reference.self_s": self_s["evaluate.reference"],
            "cli.read.self_s": self_s["cli.read"],
            "cli.read.bytes": counts["cli.read"],
            "cli.write.self_s": self_s["cli.write"],
            "cli.write.bytes": counts["cli.write"],
            "simgen.generate.self_s": self_s["simgen.generate"],
        }

    def write(self, path):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["id", "name", "start", "end", "parent", "run", "count"])
            writer.writerows(
                [sid, name, repr(start), repr(end), "" if parent is None else parent, run, n]
                for sid, name, start, end, parent, run, n in self.spans
            )
