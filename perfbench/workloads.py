"""The benchmark's three workloads and its correctness gate.

Every workload is a closed loop with one client in one process: the next
operation starts only when the previous one has returned. Inputs come from
the workload seed alone.

* ``paper-penrose``: the paper's simulated benchmark (N=360, n=10, K=6,
  Penrose distance, 100 iterations x 10 restarts), acceptance criterion 06.
  Arrays are tiny, so per-call overhead in lambda selection, the center
  update and the loop's random streams dominates; distance is about 3%.
* ``long-periodogram``: the same generator with n=200, periodogram
  distance, 10 iterations x 2 restarts. The O(n^2) periodogram dominates
  and lambda selection runs at m=44 bases; loop bookkeeping is small.
* ``cli-pipeline``: in-process ``tsboost.cli.main`` calls: simulate with
  cluster sizes x10 (N=3600, n=50), FCM clustering, then evaluation against
  the reference partition. It bypasses the boosted loop and puts CSV I/O,
  the FCM baseline and the fuzzy Rand index's N x N x K arrays on the path.

An operation is one ``run_boost`` call, or one CLI command.
"""

import contextlib
import csv
import hashlib
import io
import json
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tsboost import boost, cli, evaluate, simgen
from tsboost.boost import BoostConfig
from tsboost.core import ROW_SUM_TOL
from tsboost.distance import DistanceKind
from tsboost.simgen import DEFAULT_SIZES, SimConfig

# acceptance criterion 06 thresholds (tests/test_acceptance.py)
CRITERION_06_FUZZY_RAND = 0.80
CRITERION_06_BC = (0.20, 0.50)


@dataclass
class Outcome:
    """What one timed operation produced, read back outside the timed section."""

    membership: np.ndarray
    n_series: int
    iterations: int         # boost iterations over all restarts, or FCM sweeps
    bc_final: float
    fuzzy_rand: float
    digests: dict
    producer: str           # operation that produced membership and centers
    failures: list = field(default_factory=list)  # (operation, message)


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def _array_digest(array):
    return _sha256(np.ascontiguousarray(array, dtype="<f8").tobytes())


def membership_failures(P):
    """Correctness gate on a membership matrix: finite, nonnegative, stochastic rows."""
    P = np.asarray(P, dtype=float)
    if P.ndim != 2 or P.shape[0] == 0:
        return [f"membership has shape {P.shape}"]
    if not np.all(np.isfinite(P)):
        return ["membership has non-finite entries"]
    failures = []
    if np.any(P < 0):
        failures.append(f"membership has negative entries (min {P.min()!r})")
    worst = float(np.max(np.abs(P.sum(axis=1) - 1.0)))
    if worst > ROW_SUM_TOL:
        failures.append(f"membership row sums miss 1 by {worst!r} > {ROW_SUM_TOL!r}")
    return failures


def unit_interval_failures(name, value):
    if not (np.isfinite(value) and 0.0 <= value <= 1.0):
        return [f"{name} = {value!r} outside [0, 1]"]
    return []


class BoostWorkload:
    """Simulated data, then one ``run_boost`` call per operation."""

    commands = ("run_boost",)
    boosted = True

    def __init__(self, n_points, distance, maxiter, restarts, criterion_06=False):
        self.n_points = n_points
        self.distance = distance
        self.maxiter = maxiter
        self.restarts = restarts
        self.criterion_06 = criterion_06

    def setup(self, seed, scratch):
        data, labels = simgen.generate(SimConfig(seed=seed, n_points=self.n_points))
        config = BoostConfig(
            n_clusters=6, maxiter=self.maxiter, restarts=self.restarts,
            distance=self.distance, seed=seed,
        )
        return {"data": data, "labels": labels, "config": config, "reference": None}

    def teardown(self, state):
        pass

    def run(self, state, index):
        return boost.run_boost(state["data"], state["config"])

    def collect(self, state, index, result):
        if state["reference"] is None:
            state["reference"], _ = evaluate.reference_partition(
                state["data"], state["labels"], self.distance)
        membership = result.membership
        fr = evaluate.fuzzy_rand(membership, state["reference"])
        outcome = Outcome(
            membership=membership,
            n_series=membership.shape[0],
            iterations=sum(len(trace.beta) for trace in result.traces),
            bc_final=float(result.bc_final),
            fuzzy_rand=fr,
            digests={"membership": _array_digest(membership),
                     "centers": _array_digest(result.centers)},
            producer=f"run_boost#{index}",
        )
        messages = membership_failures(membership)
        messages += unit_interval_failures("bc_final", outcome.bc_final)
        messages += unit_interval_failures("fuzzy_rand", fr)
        if self.criterion_06:
            lo, hi = CRITERION_06_BC
            if not fr >= CRITERION_06_FUZZY_RAND:
                messages.append(f"criterion 06: fuzzy Rand {fr!r} < {CRITERION_06_FUZZY_RAND}")
            if not lo <= outcome.bc_final <= hi:
                messages.append(f"criterion 06: BC {outcome.bc_final!r} outside [{lo}, {hi}]")
        outcome.failures = [(outcome.producer, msg) for msg in messages]
        return outcome


class CliWorkload:
    """simulate -> cluster --algorithm fcm -> evaluate, through ``tsboost.cli.main``."""

    commands = ("simulate", "cluster", "evaluate")
    boosted = False
    sizes = ",".join(str(10 * s) for s in DEFAULT_SIZES)
    n_points = 50

    def setup(self, seed, scratch):
        return {"seed": seed, "dir": Path(tempfile.mkdtemp(prefix="cli-", dir=scratch))}

    def teardown(self, state):
        shutil.rmtree(state["dir"], ignore_errors=True)

    def _argv(self, state, index):
        op = state["dir"] / f"op{index}"
        sim, fit, seed = op / "sim", op / "fcm", str(state["seed"])
        return [
            ["simulate", "--out", str(sim), "--sizes", self.sizes,
             "--n", str(self.n_points), "--seed", seed],
            ["cluster", "--input", str(sim / "series.csv"), "--out", str(fit),
             "--algorithm", "fcm", "--k", "6", "--seed", seed],
            ["evaluate", "--membership", str(fit / "membership.csv"),
             "--reference-labels", str(sim / "labels.csv"),
             "--input", str(sim / "series.csv"), "--distance", "penrose",
             "--out", str(op / "report.json")],
        ]

    def run(self, state, index):
        """Exit code of each command; a command that raised reports its exception."""
        codes = []
        # command output would interleave with the benchmark's own report
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in self._argv(state, index):
                try:
                    code = cli.main(argv)
                except Exception as exc:  # a failed operation, counted and reported
                    code = f"{type(exc).__name__}: {exc}"
                codes.append(code)
                if code != 0:
                    break
        return codes

    def collect(self, state, index, codes):
        op = state["dir"] / f"op{index}"
        failures = []
        for command, code in zip(self.commands, codes + [None] * len(self.commands)):
            if code != 0:
                reason = "not run" if code is None else f"exit code {code!r}"
                failures.append((f"{command}#{index}", reason))
        if failures:
            shutil.rmtree(op, ignore_errors=True)
            return Outcome(np.empty((0, 0)), 0, 0, float("nan"), float("nan"), {},
                           f"cluster#{index}", failures)
        fit = op / "fcm"
        with open(fit / "membership.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        membership = np.array([[float(tok) for tok in row[1:]] for row in rows])
        with open(fit / "trace.csv", newline="", encoding="utf-8") as fh:
            sweeps = sum(1 for _ in fh) - 1
        report = json.loads((op / "report.json").read_text(encoding="utf-8"))
        outcome = Outcome(
            membership=membership,
            n_series=membership.shape[0],
            iterations=sweeps,
            bc_final=float(report["bc"]),
            fuzzy_rand=float(report["fuzzy_rand"]),
            digests={"membership": _sha256((fit / "membership.csv").read_bytes()),
                     "centers": _sha256((fit / "centers.csv").read_bytes())},
            producer=f"cluster#{index}",
        )
        shutil.rmtree(op, ignore_errors=True)
        outcome.failures = [(outcome.producer, msg) for msg in membership_failures(membership)]
        outcome.failures += [
            (f"evaluate#{index}", msg)
            for msg in unit_interval_failures("bc", outcome.bc_final)
            + unit_interval_failures("fuzzy_rand", outcome.fuzzy_rand)
        ]
        return outcome


WORKLOADS = {
    "paper-penrose": BoostWorkload(
        n_points=10, distance=DistanceKind.PENROSE_SHAPE,
        maxiter=100, restarts=10, criterion_06=True),
    "long-periodogram": BoostWorkload(
        n_points=200, distance=DistanceKind.PERIODOGRAM,
        maxiter=10, restarts=2),
    "cli-pipeline": CliWorkload(),
}
