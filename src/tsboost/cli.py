"""Command-line front end.

Subcommands: ``simulate`` (benchmark generator), ``cluster`` (boosted
clustering or the fuzzy c-means baseline), ``evaluate`` (partition quality
report) and ``smooth`` (single-series P-spline fit). Every run writes a
``manifest.json`` with the fully resolved configuration, input digests and
phase timings. All numbers are serialized in shortest round-trip decimal
form, so rereading an emitted CSV reproduces the in-memory values exactly.

Matrix tables (an id column, then float columns, the long ``id,t,value``
table among them) are read and written by a fast path: ``str.join`` of
each row's reprs, and ``np.loadtxt``. A table whose text the csv module
might read or write differently goes through the csv module instead, with
the same values and messages. Either way a table is written from chunks of
rows and read into one flat array of doubles, and an input's manifest
digest is hashed from fixed-size reads, so none of these holds a whole
table as Python floats or a whole file as bytes.

Exit codes: 0 success, 1 usage or configuration error, 2 any other package
error (bad data, an input that cannot be read, an output that cannot be
written or a run that cannot proceed) or a standard output closed by its
reader, as in ``tsboost evaluate ... | head -1``.
"""

import argparse
import array
import csv
import hashlib
import itertools
import json
import os
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import __version__
from .boost import BoostConfig, run_boost
from .core import Dataset, harden, validate_membership
from .distance import DistanceKind
from .errors import ConfigError, DomainTooShort, IoError, ParseError, TsboostError
from .evaluate import classic_rand, confusion_matrix, fuzzy_rand, reference_partition
from .fcm import FcmConfig, run_fcm
from .pdclust import bc_index
from . import pspline
from .simgen import SimConfig, generate


def _fmt(x):
    return repr(float(x))


def _write_csv(path, header, rows):
    with _open_output(path) as fh:
        # with \r\n as its line terminator the csv module quotes a field that
        # holds a lone \r, as it quotes one holding \n, so that the row reads
        # back; each row it writes is passed on ending in \n
        rows_out = SimpleNamespace(write=lambda line: fh.write(line[:-2] + "\n"))
        writer = csv.writer(rows_out, lineterminator="\r\n")
        writer.writerow(header)
        writer.writerows(rows)


# the csv module may quote an empty id and one holding any of these characters
_QUOTED_ID = ',"\r\n'

# matrix rows turned into Python floats at a time by _write_matrix
_WRITE_ROWS = 256


def _write_matrix(path, key, ids, prefix, matrix):
    """Write header ``key,<prefix>1,...`` and one row per id: the id, then its matrix row.

    Each row is joined into the text the csv module writes for it, a float
    as its repr (what _fmt gives). A table with an id that the csv module
    may quote is written by the csv module. Rows become Python floats
    ``_WRITE_ROWS`` at a time, so the table is never held as Python objects.
    """
    header = [key] + [f"{prefix}{j + 1}" for j in range(matrix.shape[1])]
    ids = [str(sid) for sid in ids]
    matrix = np.asarray(matrix, dtype=float)
    rows = itertools.chain.from_iterable(
        matrix[start : start + _WRITE_ROWS].tolist()
        for start in range(0, matrix.shape[0], _WRITE_ROWS))
    if any(not sid or any(char in sid for char in _QUOTED_ID) for sid in ids):
        _write_csv(path, header, ([sid] + row for sid, row in zip(ids, rows)))
        return
    with _open_output(path) as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(f"{sid},{','.join(map(repr, row))}\n" for sid, row in zip(ids, rows))


def _output_dir(path):
    """Create the --out directory of a command (with parents); IoError if it cannot be."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoError(f"{out}: cannot create output directory: {exc.strerror or exc}") from None
    return out


def _open_output(path):
    """Open an output file for writing; IoError if it cannot be."""
    try:
        return open(path, "w", newline="", encoding="utf-8")
    except OSError as exc:
        raise IoError(f"{path}: cannot write: {exc.strerror or exc}") from None


def _open_input(path):
    # utf-8-sig drops a leading byte order mark and reads any other UTF-8 as utf-8 does
    try:
        return open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise IoError(f"{path}: cannot read: {exc.strerror or exc}") from None


def _parse_float(token, path, line_no):
    try:
        return float(token)
    except ValueError:
        raise ParseError(f"{path}:{line_no}: not a number: {token!r}") from None


def _valid_header(header, columns):
    """Whether the header cells, stripped, read ``columns``; ``...`` stands for
    one or more columns of any name after the first (``id,t1,...,tn``)."""
    header = [cell.strip() for cell in header]
    expected = columns.split(",")
    if "..." in expected:
        return len(header) > 1 and header[0] == expected[0]
    return header == expected


def _read_table(path, columns):
    """Yield (line_no, row) for every non-blank data row of a CSV table; ParseError if bad.

    The header must be valid (``_valid_header``). Each row has as many fields
    as the header, and there is at least one row.
    """
    with _open_input(path) as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise ParseError(f"{path}:1: empty file")
            if not _valid_header(header, columns):
                raise ParseError(f"{path}:1: expected header {columns}")
            found = False
            for row in reader:
                if not row:
                    continue
                if len(row) != len(header):
                    raise ParseError(
                        f"{path}:{reader.line_num}: expected {len(header)} fields, got {len(row)}")
                found = True
                yield reader.line_num, row
        except csv.Error as exc:
            raise ParseError(f"{path}:{reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:
            # decoding runs on buffered chunks, so there is no reliable line number
            raise ParseError(f"{path}: not UTF-8 text: {exc.reason}") from None
    if not found:
        raise ParseError(f"{path}: no rows found")


# a line holding one of these may read differently through the csv module
# and float() than split at its commas and parsed by np.loadtxt: a quote or
# a carriage return changes how the csv module splits it, the csv module of
# Python 3.10 rejects NUL, and loadtxt strips the separators \x1c-\x1f as
# whitespace around a number, where float() rejects them
_NOT_PLAIN = '"\r\0\x1c\x1d\x1e\x1f'


def _read_plain_matrix(path, columns):
    """(ids, values) of a matrix CSV whose every line is plain, else None.

    A plain line ends in a newline, holds no ``_NOT_PLAIN`` character, is no
    longer than ``csv.field_size_limit()`` and has as many commas as a valid
    header. The csv module splits it at every comma, so its id is the text
    before the first comma, and ``np.loadtxt`` reads the numbers after it as
    ``float()`` does or fails. None, for any other file or a failure, leaves
    every value and message to the csv module. A path that is not a
    regular file, such as a pipe, may be readable only once, so it is left
    to the csv module unread.
    """
    if not os.path.isfile(path):
        return None
    limit = csv.field_size_limit()

    def plain(line):
        return (line.endswith("\n") and len(line) <= limit
                and not any(char in line for char in _NOT_PLAIN))

    with _open_input(path) as fh:
        try:
            header = fh.readline()
            if not (plain(header) and _valid_header(header[:-1].split(","), columns)):
                return None
            commas = header.count(",")
            start = fh.tell()
            ids = []
            for line in fh:
                if not (plain(line) and line.count(",") == commas):
                    return None
                ids.append(line.partition(",")[0])
            if not ids:
                return None
            fh.seek(start)
            values = np.loadtxt(fh, delimiter=",", usecols=range(1, commas + 1),
                                comments=None, ndmin=2)
        except ValueError:  # also a UnicodeDecodeError
            return None
    return ids, values


def _read_csv_matrix(path, columns):
    """``_read_matrix`` through the csv module and float(), for any file.

    The values go into one flat array of C doubles as each row is read, so
    the table is never held as Python floats, and the result is a view of
    that array, not a copy.
    """
    ids, flat = [], array.array("d")
    for line_no, row in _read_table(path, columns):
        ids.append(row[0])
        try:
            flat.fromlist(list(map(float, row[1:])))
        except ValueError:
            # the same float() again, token by token, to name the bad one
            flat.fromlist([_parse_float(tok, path, line_no) for tok in row[1:]])
    return ids, np.frombuffer(flat).reshape(len(ids), -1)


def _read_matrix(path, columns):
    """Matrix CSV (an id column, then float columns) -> (ids, one array row per data row)."""
    return _read_plain_matrix(path, columns) or _read_csv_matrix(path, columns)


def read_wide(path):
    """Wide CSV (header id,t1..tn) -> Dataset on an equally spaced [0,1] domain."""
    ids, values = _read_matrix(path, "id,t1,...,tn")
    domain = np.linspace(0.0, 1.0, values.shape[1])
    return Dataset(domain, values, ids)


def read_long(path):
    """Long CSV (header id,t,value) -> Dataset; the domain comes from the file.

    The table is read as a matrix (``_read_matrix``). Its rows are sorted by
    series, in order of first appearance, then by time and value, and the
    first series' times are the domain that every other series must share.
    """
    ids, table = _read_matrix(path, "id,t,value")
    series = {}
    codes = np.fromiter((series.setdefault(sid, len(series)) for sid in ids), np.intp, len(ids))
    times, values = table[np.lexsort((table[:, 1], table[:, 0], codes))].T
    times = np.split(times, np.cumsum(np.bincount(codes))[:-1])
    for sid, series_times in zip(list(series)[1:], times[1:]):
        if not np.array_equal(series_times, times[0]):
            raise ParseError(f"{path}: series {sid!r} does not share the common domain")
    return Dataset(times[0], values.reshape(len(series), -1), list(series))


def read_dataset(path, fmt="wide"):
    return read_long(path) if fmt == "long" else read_wide(path)


def read_labels(path):
    """Labels CSV (header id,label) -> (ids, labels)."""
    ids, labels = zip(*(row for _, row in _read_table(path, "id,label")))
    return list(ids), np.asarray(labels)


def read_membership(path):
    """Membership CSV (header id,p1..pK) -> (ids, (N, K) matrix).

    Rows must be probability vectors: entries in [0, 1] summing to 1.
    """
    ids, rows = _read_matrix(path, "id,p1,...,pK")
    try:
        return ids, validate_membership(rows)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None


# bytes per read when an input file is hashed
_DIGEST_READ = 1 << 16


def _digest(path):
    """SHA-256 of an input file, read in ``_DIGEST_READ`` blocks; None for a
    path that is not a regular file, such as a pipe, which was read once
    already."""
    if not os.path.isfile(path):
        return None
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(_DIGEST_READ), b""):
            digest.update(block)
    return digest.hexdigest()


def _write_manifest(out_dir, command, settings, inputs, timings):
    manifest = {"command": command, "version": __version__}
    for key, value in settings.items():
        manifest[key] = value
    for path in inputs:
        manifest[f"digest_{Path(path).name}"] = _digest(path)
    for phase, seconds in timings.items():
        manifest[f"timing_{phase}"] = round(seconds, 6)
    with _open_output(Path(out_dir) / "manifest.json") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


# -- subcommands ---------------------------------------------------------------

def cmd_simulate(args):
    try:
        sizes = tuple(int(tok) for tok in args.sizes.split(","))
    except ValueError:
        raise ConfigError(
            f"--sizes expects comma-separated integers, got {args.sizes!r}"
        ) from None
    config = SimConfig(
        sizes=sizes, n_points=args.n, sigma2_u=args.sigma2_u,
        ar_coef=args.ar_coef, ar_var=args.ar_var, seed=args.seed,
    )
    t0 = time.perf_counter()
    data, labels = generate(config)
    t1 = time.perf_counter()
    out = _output_dir(args.out)
    _write_matrix(out / "series.csv", "id", data.ids, "t", data.values)
    _write_csv(out / "labels.csv", ["id", "label"], zip(data.ids, labels.tolist()))
    t2 = time.perf_counter()
    _write_manifest(
        out, "simulate",
        {
            "sizes": list(sizes), "n": config.n_points, "seed": config.seed,
            "sigma2_e": config.sigma2_e, "sigma2_v": config.sigma2_v,
            "sigma2_u": config.sigma2_u, "ar_coef": config.ar_coef,
            "ar_var": config.ar_var,
        },
        [], {"generate": t1 - t0, "write": t2 - t1},
    )
    print(f"wrote {data.n_series} series to {out / 'series.csv'}")
    return 0


def cmd_cluster(args):
    # without --iters each algorithm keeps its config's default: 100 boosting
    # iterations, or FCM sweeps until convergence, capped at 500
    if args.algorithm == "fcm":
        limit = {} if args.iters is None else {"max_sweeps": args.iters}
        config = FcmConfig(
            n_clusters=args.k, fuzzifier=args.fuzzifier, seed=args.seed, **limit,
        )
    else:
        limit = {} if args.iters is None else {"maxiter": args.iters}
        config = BoostConfig(
            n_clusters=args.k, restarts=args.restarts,
            distance=DistanceKind(args.distance), seed=args.seed,
            criterion=args.lambda_criterion, **limit,
        )
    t0 = time.perf_counter()
    data = read_dataset(args.input, args.format)
    t1 = time.perf_counter()
    settings = {
        "algorithm": args.algorithm, "input": str(args.input), "format": args.format,
        "k": args.k, "seed": args.seed,
    }
    if args.algorithm == "fcm":
        result = run_fcm(data, config)
        t2 = time.perf_counter()
        trace_rows = [
            [1, sweep + 1, _fmt(obj), _fmt(float("nan"))]
            for sweep, obj in enumerate(result.objective_trace)
        ]
        bc_final = bc_index(result.membership)
        settings.update({"fuzzifier": args.fuzzifier, "max_sweeps": config.max_sweeps,
                         "sweeps": result.sweeps, "converged": result.converged,
                         "bc_final": bc_final})
    else:
        result = run_boost(data, config)
        t2 = time.perf_counter()
        trace_rows = [
            [restart + 1, it + 1, _fmt(beta), _fmt(bc)]
            for restart, trace in enumerate(result.traces)
            for it, (beta, bc) in enumerate(zip(trace.beta, trace.bc))
        ]
        bc_final = result.bc_final
        settings.update({
            "distance": args.distance, "iters": config.maxiter,
            "restarts": args.restarts, "lambda_criterion": args.lambda_criterion,
            "best_restart": result.restart_index + 1, "bc_final": bc_final,
        })
    # made only once the run has succeeded, so a failed run leaves no directory
    out = _output_dir(args.out)
    membership, centers = result.membership, result.centers
    _write_matrix(out / "membership.csv", "id", data.ids, "p", membership)
    _write_matrix(out / "centers.csv", "cluster", range(1, len(centers) + 1), "t", centers)
    _write_csv(out / "assignments.csv", ["id", "label"],
               zip(data.ids, harden(membership).tolist()))
    _write_csv(out / "trace.csv", ["restart", "iteration", "beta", "bc"], trace_rows)
    t3 = time.perf_counter()
    _write_manifest(out, "cluster", settings, [args.input],
                    {"read": t1 - t0, "run": t2 - t1, "write": t3 - t2})
    print(f"bc_final = {bc_final:.6f}; outputs in {out}")
    return 0


def cmd_evaluate(args):
    ids, membership = read_membership(args.membership)
    report = {"bc": bc_index(membership)}
    predicted = harden(membership)
    # rows are matched by position, so both sides must list the same ids in the same order
    if args.reference_membership is not None:
        reference_ids, reference = read_membership(args.reference_membership)
        if ids != reference_ids:
            raise ConfigError("membership ids do not match the reference membership ids")
        truth = harden(reference)
    else:
        if not args.input:
            raise ConfigError("--reference-labels requires --input")
        data = read_dataset(args.input, args.format)
        label_ids, truth = read_labels(args.reference_labels)
        if label_ids != data.ids:
            raise ConfigError("labels file ids do not match the input series ids")
        if ids != data.ids:
            raise ConfigError("membership ids do not match the input series ids")
        reference, _ = reference_partition(data, truth, DistanceKind(args.distance),
                                           criterion=args.lambda_criterion)
        report["reference_bc"] = bc_index(reference)
    report["fuzzy_rand"] = fuzzy_rand(membership, reference)
    report["classic_rand"] = classic_rand(predicted, truth)
    table, t_labels, p_labels = confusion_matrix(truth, predicted)
    for key in ("fuzzy_rand", "classic_rand", "bc", "reference_bc"):
        if key in report:
            print(f"{key} = {report[key]:.6f}")
    print("confusion matrix (rows = reference, columns = predicted):")
    print("  " + " ".join(f"{str(p):>6}" for p in p_labels))
    for t_label, row in zip(t_labels, table):
        print(f"{str(t_label):>2} " + " ".join(f"{c:>6}" for c in row))
    if args.out:
        report["confusion_matrix"] = table.tolist()
        report["confusion_truth_labels"] = [str(t) for t in t_labels]
        report["confusion_predicted_labels"] = [str(p) for p in p_labels]
        with _open_output(args.out) as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0


def cmd_smooth(args):
    data = read_dataset(args.input, args.format)
    series_id = data.ids[0] if args.series_id is None else args.series_id
    if series_id not in data.ids:
        raise ConfigError(f"series id {series_id!r} not found in {args.input}")
    series = data.values[data.ids.index(series_id)]
    # --degree and --penalty-order are options, so a basis they cannot build
    # is a configuration error, also when the domain is too short for it
    try:
        B = pspline.build_basis(data.domain, degree=args.degree)
        penalty = pspline.difference_penalty(B.shape[1], args.penalty_order)
    except (ValueError, DomainTooShort) as exc:
        raise ConfigError(str(exc)) from None
    criterion = pspline.LambdaCriterion(args.criterion)
    rows = pspline.select_rows(series, pspline._spectrum(B, penalty), criterion)
    lam, fitted = float(rows.lam[0]), B @ rows.coef[0]
    # a flat profile (an all-zero or constant series) picks nothing, so none is written
    profile = () if rows.flat[0] else zip(rows.lambdas, rows.scores[0])
    out = _output_dir(args.out)
    _write_csv(
        out / "fit.csv", ["t", "y", "fitted"],
        ([_fmt(t), _fmt(y), _fmt(f)] for t, y, f in
         zip(data.domain, series, fitted)),
    )
    _write_csv(
        out / "profile.csv", ["lambda", "score"],
        ([_fmt(point), _fmt(score)] for point, score in profile),
    )
    _write_manifest(out, "smooth", {
        "input": str(args.input), "series_id": series_id,
        "criterion": criterion.name, "degree": args.degree,
        "penalty_order": args.penalty_order, "lambda": lam,
    }, [args.input], {})
    print(f"series {series_id}: selected lambda = {lam:.6g} ({criterion.name})")
    return 0


# -- argument parsing ----------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def build_parser():
    parser = _Parser(prog="tsboost", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate the simulated benchmark")
    sim.add_argument("--out", required=True, help="output directory")
    sim.add_argument("--sizes", default="90,50,100,25,60,35",
                     help="comma-separated cluster sizes (6 values)")
    sim.add_argument("--n", type=int, default=10, help="time points per series")
    sim.add_argument("--sigma2-u", type=float, default=0.3, dest="sigma2_u")
    sim.add_argument("--ar-coef", type=float, default=0.5, dest="ar_coef")
    sim.add_argument("--ar-var", type=float, default=0.005, dest="ar_var")
    sim.add_argument("--seed", type=int, default=0)
    sim.set_defaults(func=cmd_simulate)

    clu = sub.add_parser("cluster", help="cluster a dataset")
    clu.add_argument("--input", required=True)
    clu.add_argument("--format", choices=("wide", "long"), default="wide")
    clu.add_argument("--out", required=True)
    clu.add_argument("--k", type=int, required=True)
    clu.add_argument("--algorithm", choices=("boost", "fcm"), default="boost")
    clu.add_argument("--distance", choices=[kind.value for kind in DistanceKind],
                       default="euclidean")
    clu.add_argument("--iters", type=int, default=None,
                     help="boosting iterations (boost, default 100) or the cap on "
                          "sweeps (fcm, default 500: run until converged)")
    clu.add_argument("--restarts", type=int, default=10)
    clu.add_argument("--seed", type=int, default=0)
    clu.add_argument("--lambda-criterion", choices=pspline.CRITERIA,
                     default="vcurve", dest="lambda_criterion")
    clu.add_argument("--fuzzifier", type=float, default=2.0, help="fcm only")
    clu.set_defaults(func=cmd_cluster)

    ev = sub.add_parser("evaluate", help="score a membership matrix")
    ev.add_argument("--membership", required=True)
    reference = ev.add_mutually_exclusive_group(required=True)
    reference.add_argument("--reference-membership", dest="reference_membership")
    reference.add_argument("--reference-labels", dest="reference_labels")
    ev.add_argument("--input", help="dataset; required with --reference-labels")
    ev.add_argument("--format", choices=("wide", "long"), default="wide")
    ev.add_argument("--distance", choices=[kind.value for kind in DistanceKind],
                      default="euclidean")
    ev.add_argument("--lambda-criterion", choices=pspline.CRITERIA,
                    default="vcurve", dest="lambda_criterion")
    ev.add_argument("--out", help="optional JSON report path")
    ev.set_defaults(func=cmd_evaluate)

    smo = sub.add_parser("smooth", help="P-spline fit of one series")
    smo.add_argument("--input", required=True)
    smo.add_argument("--format", choices=("wide", "long"), default="wide")
    smo.add_argument("--series-id", dest="series_id")
    smo.add_argument("--out", required=True)
    smo.add_argument("--criterion", choices=pspline.CRITERIA, default="vcurve")
    smo.add_argument("--degree", type=int, default=pspline.DEFAULT_DEGREE)
    smo.add_argument("--penalty-order", type=int, dest="penalty_order",
                     default=pspline.DEFAULT_PENALTY_ORDER)
    smo.set_defaults(func=cmd_smooth)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader of stdout has gone; point stdout at devnull, so that the
        # interpreter's final flush does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except TsboostError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
