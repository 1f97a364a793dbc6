"""tsboost benchmark: fixed workloads, end-to-end and per-layer metrics.

Run from the repository root; the package is imported from ``src/``:

    python3 perfbench/run.py --workload paper-penrose --seed 0 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one process each

Workloads (see ``workloads.py``): ``paper-penrose``, ``long-periodogram``
and ``cli-pipeline``. A run repeats the workload's operation for at most
``--seconds`` seconds and reports medians over the operations.

With ``--trace 0`` the result line carries the end-to-end metrics:

* ``run_s``: wall seconds of one timed section (the ``run_boost`` call, or
  the three CLI commands), median over operations;
* ``setup_s``: seconds from the start of a fresh process to its first timed
  call (interpreter, imports, data generation, temp directories), median
  over several fresh processes;
* ``peak_rss_mb``: maximum resident set of the workload process.

It also prints and records, without a bound:

* ``series_iters_per_s``: N x iterations executed (summed over restarts;
  FCM sweeps on ``cli-pipeline``) per second of ``run_s``, median;
* ``bc_final`` and ``fuzzy_rand``: partition quality against the reference
  partition, computed outside the timed section; deterministic per seed;
* ``failed_frac``: failed / attempted operations.

With ``--trace 1`` it alternates untraced operations with traced ones
(set-up included) and reports per-layer self times and counts per traced
operation (see ``tracing.py``), plus ``trace.overhead_frac``.

Every operation passes the correctness gate in ``workloads.py``; in
addition every repetition must reproduce the first one's output digests
bit for bit. The last output line is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The environment,
the output digests and all figures also go to ``perfbench/out/``.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOAD_NAMES = ("paper-penrose", "long-periodogram", "cli-pipeline")
SETUP_PROBES = 7
CHILD_TIMEOUT_S = 175

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# Printed and recorded, but left out of the result line and its bounds: they
# change with the seed's inputs (FCM at N=3600 ends in one of two states, and
# its BC reads 1e-9..1e-3), or they read 0 on a correct run.
REPORTED_UNITS = {"series_iters_per_s": "1/s", "bc_final": "index",
                  "fuzzy_rand": "index", "failed_frac": "ratio"}


class ProgramMissing(Exception):
    pass


def load_program():
    """Import tsboost from this checkout's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import tsboost
    except ImportError as exc:
        raise ProgramMissing(f"cannot import tsboost from {src}: {exc}") from None
    location = Path(tsboost.__file__).resolve()
    if src.resolve() not in location.parents:
        raise ProgramMissing(f"tsboost was imported from {location}, not from {src}")
    return tsboost


def git_commit():
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def source_digest():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(tsboost, seed):
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "TSBOOST_THREADS": os.environ.get("TSBOOST_THREADS"),
        "tsboost.BACKEND": getattr(tsboost, "BACKEND", "absent"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "seed": seed,
    }


def measure_setup(workload, seed):
    """Median wall time from spawning a fresh process to its first timed call."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
             "--workload", workload, "--seed", str(seed)],
            stdout=subprocess.PIPE, text=True,
        )
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            proc.wait(timeout=CHILD_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        times.append(elapsed)
    return statistics.median(times)


def probe_setup(args):
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    state = workload.setup(args.seed, OUT)
    print("ready", flush=True)
    workload.teardown(state)
    return 0


class Run:
    """Operations, timings and gate results of one benchmark run."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failures = []  # (operation, message)
        self.digests = None
        self.run_s = []
        self.rates = []
        self.quality = None

    def operate(self, state, index, after_run=None):
        """One timed operation, then its untimed read-back and gate.

        Returns (seconds, outcome), both None if the operation raised; gate
        failures are recorded but keep the timing. ``after_run`` is called
        as soon as the timed section ends.
        """
        workload = self.workload
        self.attempted += len(workload.commands)
        start = time.perf_counter()
        try:
            raw = workload.run(state, index)
        except Exception as exc:  # a failed operation, counted and reported
            self.failures.append((f"{workload.commands[0]}#{index}", f"{type(exc).__name__}: {exc}"))
            return None, None
        finally:
            elapsed = time.perf_counter() - start
            if after_run is not None:
                after_run()
        outcome = workload.collect(state, index, raw)
        if outcome.digests:
            if self.digests is None:
                self.digests = outcome.digests
                self.quality = {"bc_final": outcome.bc_final, "fuzzy_rand": outcome.fuzzy_rand}
            elif outcome.digests != self.digests:
                outcome.failures.append(
                    (outcome.producer, "output digests differ from the first operation's"))
        self.failures += outcome.failures
        return elapsed, outcome

    @property
    def failed(self):
        return len({label for label, _ in self.failures})


def time_for_another(start, done, seconds):
    """Whether one more round, at the mean pace so far, still ends within ``seconds``."""
    spent = time.perf_counter() - start
    return spent + spent / done <= seconds


def timed_loop(workload, seed, seconds):
    run = Run(workload)
    state = workload.setup(seed, OUT)
    try:
        start = time.perf_counter()
        index = 0
        while True:
            elapsed, outcome = run.operate(state, index)
            if elapsed is not None:
                run.run_s.append(elapsed)
                run.rates.append(outcome.n_series * outcome.iterations / elapsed)
            index += 1
            if not time_for_another(start, index, seconds):
                break
    finally:
        workload.teardown(state)
    return run


def traced_loop(workload, seed, seconds):
    """Untraced and traced operations in turn; the traced ones repeat set-up."""
    from tracing import Tracer

    run = Run(workload)
    tracer = Tracer()
    untraced, traced, layers = [], [], []
    state = workload.setup(seed, OUT)
    try:
        start = time.perf_counter()
        index = 0
        while True:
            elapsed, _ = run.operate(state, index)
            if elapsed is not None:
                untraced.append(elapsed)
            index += 1
            tracer.run_id = index
            tracer.install()
            try:
                traced_state = workload.setup(seed, OUT)
            except BaseException:
                tracer.remove()
                raise
            try:
                elapsed, outcome = run.operate(traced_state, index, after_run=tracer.remove)
            finally:
                workload.teardown(traced_state)
            if elapsed is not None:
                traced.append(elapsed)
                layer = tracer.layer_metrics(index)
                layer["boost.iterations"] = outcome.iterations if workload.boosted else 0
                layers.append(layer)
            index += 1
            if not time_for_another(start, index // 2, seconds):
                break
    finally:
        workload.teardown(state)
    return run, tracer, untraced, traced, layers


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_one(args):
    try:
        tsboost = load_program()
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    import tracing

    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload]
    env = environment(tsboost, args.seed)
    print("env " + json.dumps(env, sort_keys=True))
    reported = {}
    if args.trace:
        run, tracer, untraced, traced, layers = traced_loop(workload, args.seed, args.seconds)
        succeeded = bool(untraced and traced)
    else:
        setup_s = measure_setup(args.workload, args.seed)
        run = timed_loop(workload, args.seed, args.seconds)
        succeeded = bool(run.run_s)
    for label, message in run.failures:
        print(f"FAIL {label}: {message}")
    if not succeeded:
        print("error: no operation completed", file=sys.stderr)
        return 1
    if run.digests:
        print("digest " + " ".join(f"{k}={v}" for k, v in sorted(run.digests.items())))
    if args.trace:
        metrics = {}
        for name, unit in tracing.PER_LAYER_UNITS.items():
            if name == "trace.overhead_frac":
                value = statistics.median(traced) / statistics.median(untraced) - 1.0
            else:
                value = statistics.median(layer[name] for layer in layers)
            metrics[name] = metric(value, unit)
        absent = tracer.absent_layers()
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.csv"
        tracer.write(spans_path)
        extra = {"absent_layers": absent, "absent_targets": tracer.absent,
                 "computed_counts": list(tracing.COMPUTED_COUNTS),
                 "traced_run_s": traced, "untraced_run_s": untraced,
                 "spans": str(spans_path.relative_to(ROOT))}
        print("absent layers: " + (", ".join(absent) or "none"))
        print("computed counts: " + ", ".join(tracing.COMPUTED_COUNTS))
    else:
        values = {
            "run_s": statistics.median(run.run_s),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "series_iters_per_s": statistics.median(run.rates),
            "bc_final": run.quality["bc_final"],
            "fuzzy_rand": run.quality["fuzzy_rand"],
            "failed_frac": run.failed / run.attempted,
        }
        metrics = {name: metric(values[name], unit) for name, unit in END_TO_END_UNITS.items()}
        reported = {name: metric(values[name], unit) for name, unit in REPORTED_UNITS.items()}
        extra = {"run_s_each": run.run_s, "reported": reported}
    for name, entry in metrics.items():
        print(f"  {name:<30} {entry['value']:>16.6g} {entry['unit']}")
    for name, entry in reported.items():
        print(f"  {name:<30} {entry['value']:>16.6g} {entry['unit']} (reported, no bound)")
    print(f"operations: {run.attempted} attempted, {run.failed} failed")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, env=env, digests=run.digests,
                  failures=[list(f) for f in run.failures], **extra)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


def run_all(args):
    """Each workload in its own process; one table of every metric and verdict."""
    rows, verdicts, status = [], [], 0
    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"{name}: exit code {done.returncode}")
            status = 1
            continue
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        result = json.loads(lines[-1])
        verdicts.append((name, result))
        record = json.loads((OUT / f"{name}-seed{args.seed}-trace{args.trace}.json").read_text())
        for metric_name, entry in {**result["metrics"], **record.get("reported", {})}.items():
            rows.append((name, metric_name, entry["value"], entry["unit"]))
    print()
    for name, metric_name, value, unit in rows:
        print(f"{name:<18} {metric_name:<30} {value:>16.6g} {unit}")
    for name, result in verdicts:
        verdict = "correct" if result["correct"] else "INCORRECT"
        print(f"{name:<18} {verdict}: {result['failed']} of {result['attempted']} operations failed")
    return status


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if args.probe_setup:
        load_program()
        return probe_setup(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
