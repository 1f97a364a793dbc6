import csv
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import tsboost
from tsboost import pspline
from tsboost.cli import (
    _digest, _read_csv_matrix, _write_matrix, main, read_dataset, read_long, read_membership,
    read_wide,
)
from tsboost.errors import ParseError


def write_wide(path, values, ids=None):
    values = np.asarray(values, dtype=float)
    n = values.shape[1]
    if ids is None:
        ids = [f"s{i+1:04d}" for i in range(values.shape[0])]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id"] + [f"t{j+1}" for j in range(n)])
        for sid, row in zip(ids, values):
            writer.writerow([sid] + [repr(float(v)) for v in row])


def manifest_without_timings(path):
    with open(path) as fh:
        manifest = json.load(fh)
    return {k: v for k, v in manifest.items() if not k.startswith("timing_")}


@pytest.fixture
def toy_csv(tmp_path, rng):
    values = rng.normal(size=(12, 10)) + np.repeat([0.0, 6.0, 12.0], 4)[:, None]
    path = tmp_path / "toy.csv"
    write_wide(path, values)
    return path


@pytest.fixture
def slow_fcm_csv(tmp_path):
    # unstructured data: FCM with K = 3 needs 193 sweeps here, more than the
    # 100 iterations that boosting defaults to
    path = tmp_path / "slow.csv"
    write_wide(path, np.random.default_rng(11).normal(size=(30, 4)))
    return path


@pytest.fixture(scope="module")
def sim(tmp_path_factory):
    """The paper's simulated benchmark at seed 0 (360 series, 10 points):
    series.csv and labels.csv, shared by the tests of a module, which only
    read them."""
    out = tmp_path_factory.mktemp("sim")
    assert main(["simulate", "--out", str(out), "--seed", "0"]) == 0
    return out


def bom_crlf_copy(path, copy):
    """A copy of path with a byte order mark and CRLF line ends, which the
    csv-module reader reads, since a carriage return is not plain text."""
    copy.write_bytes(b"\xef\xbb\xbf" + path.read_bytes().replace(b"\n", b"\r\n"))
    return copy


def long_copy(path, copy):
    """A long (id,t,value) copy of the wide table at path: the series in the
    wide order, each series' points in reverse time order."""
    data = read_wide(path)
    copy.write_text("id,t,value\n" + "".join(
        f"{sid},{t!r},{v!r}\n" for sid, row in zip(data.ids, data.values.tolist())
        for t, v in reversed(list(zip(data.domain.tolist(), row)))))
    return copy


class TestReaders:
    def test_wide_round_trip(self, tmp_path, rng):
        values = rng.normal(size=(4, 6))
        path = tmp_path / "data.csv"
        write_wide(path, values)
        data = read_wide(path)
        assert np.array_equal(data.values, values)  # exact, not approximate
        assert data.ids == ["s0001", "s0002", "s0003", "s0004"]

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_wide_from_pipe(self, tmp_path, rng):
        # a pipe, as in --input <(...), can be read only once
        values = rng.normal(size=(4, 6))
        path = tmp_path / "data.csv"
        write_wide(path, values)
        read_end, write_end = os.pipe()
        with os.fdopen(write_end, "wb") as fh:
            fh.write(path.read_bytes())
        try:
            data = read_wide(f"/dev/fd/{read_end}")
        finally:
            os.close(read_end)
        assert np.array_equal(data.values, values)

    def test_wide_malformed_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,t1,t2\na,1.0,2.0\nb,1.0\n")
        with pytest.raises(ParseError, match="3"):
            read_wide(path)

    def test_wide_non_numeric(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,t1,t2\na,1.0,oops\n")
        with pytest.raises(ParseError, match="2"):
            read_wide(path)

    def test_wide_bad_token_mid_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,t1,t2,t3\na,1.0,2.0,3.0\nb,1.0,1e-3x,3.0\nc,1.0,2.0,3.0\n")
        with pytest.raises(ParseError) as info:
            read_wide(path)
        assert str(info.value) == f"{path}:3: not a number: '1e-3x'"

    def test_wide_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("series,t1\na,1.0\n")
        with pytest.raises(ParseError):
            read_wide(path)

    def test_long_format(self, tmp_path):
        path = tmp_path / "long.csv"
        lines = ["id,t,value"]
        for sid in ("a", "b"):
            for t, v in zip((0.0, 0.5, 1.0), (1.0, 2.0, 3.0)):
                lines.append(f"{sid},{t},{v + (10 if sid == 'b' else 0)}")
        path.write_text("\n".join(lines) + "\n")
        data = read_long(path)
        assert data.n_series == 2
        assert np.array_equal(data.domain, [0.0, 0.5, 1.0])
        assert np.array_equal(data.values[1], [11.0, 12.0, 13.0])

    def test_long_shuffled_rows_match_wide(self, tmp_path, rng):
        # the rows of a long table in any order give the Dataset of the wide
        # table that lists its series in order of first appearance
        values = rng.normal(size=(7, 9))
        times = np.linspace(0.0, 1.0, 9).tolist()
        rows = [(f"s{i}", t, v)
                for i, row in enumerate(values.tolist()) for t, v in zip(times, row)]
        rows = [rows[i] for i in rng.permutation(len(rows))]
        path = tmp_path / "long.csv"
        path.write_text("id,t,value\n" + "".join(f"{sid},{t!r},{v!r}\n" for sid, t, v in rows))
        ids = list(dict.fromkeys(sid for sid, _, _ in rows))
        wide = tmp_path / "wide.csv"
        write_wide(wide, values[[int(sid[1:]) for sid in ids]], ids)
        data, expected = read_long(path), read_wide(wide)
        assert data.ids == expected.ids == ids
        assert np.array_equal(data.domain, expected.domain)
        assert np.array_equal(data.values, expected.values)

    def test_long_ragged_domain(self, tmp_path):
        path = tmp_path / "long.csv"
        path.write_text("id,t,value\na,0.0,1.0\na,1.0,2.0\nb,0.0,1.0\nb,0.7,2.0\n")
        with pytest.raises(ParseError):
            read_long(path)

    @pytest.mark.parametrize("fmt", ["wide", "long"])
    def test_bom_and_padded_header(self, tmp_path, fmt):
        # Excel's "CSV UTF-8" starts with a byte order mark; header cells may be padded
        plain, padded = tmp_path / "plain.csv", tmp_path / "padded.csv"
        if fmt == "wide":
            write_wide(plain, np.arange(12.0).reshape(3, 4))
        else:
            plain.write_text("id,t,value\n" + "".join(
                f"{sid},{t},{t + k}\n" for k, sid in enumerate("abc") for t in (0.0, 0.5, 1.0)))
        header, rest = plain.read_text().split("\n", 1)
        padded_header = ",".join(f" {cell} " for cell in header.split(","))
        padded.write_bytes(b"\xef\xbb\xbf" + f"{padded_header}\n{rest}".encode())
        a, b = read_dataset(plain, fmt), read_dataset(padded, fmt)
        assert a.ids == b.ids
        assert np.array_equal(a.domain, b.domain)
        assert np.array_equal(a.values, b.values)


def traced_peak(call, *args):
    """tracemalloc peak of call(*args) beyond what existed before it."""
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBoundedMemory:
    @pytest.mark.parametrize("prefix, rows", [("s", 20_000), ("s,", 5_000)],
                             ids=["join", "csv-module"])
    def test_matrix_writer_holds_chunks_of_rows(self, tmp_path, rng, prefix, rows):
        # both paths turn rows into Python floats a chunk at a time, so
        # neither holds the table as Python objects (about 4x its bytes);
        # an id with a comma takes the slower csv-module path, on fewer rows
        matrix = rng.normal(size=(rows, 50))
        ids = [f"{prefix}{i}" for i in range(rows)]
        peak = traced_peak(_write_matrix, tmp_path / "m.csv", "id", ids, "t", matrix)
        assert peak < matrix.nbytes

    @staticmethod
    def crlf_table(path, values):
        # CRLF line ends send the file to the csv-module reader
        with open(path, "w", newline="") as fh:
            fh.write("id," + ",".join(f"t{j + 1}" for j in range(values.shape[1])) + "\r\n")
            fh.writelines(f"s{i}," + ",".join(map(repr, row)) + "\r\n"
                          for i, row in enumerate(values.tolist()))
        return path

    def test_csv_module_reader_holds_float_arrays(self, tmp_path, rng):
        # the csv-module reader keeps C doubles, not N * n Python floats
        # (over 5x the values)
        values = rng.normal(size=(5_000, 50))
        path = self.crlf_table(tmp_path / "crlf.csv", values)
        peak = traced_peak(read_wide, path)
        assert np.array_equal(read_wide(path).values, values)
        assert peak < 4 * values.nbytes

    def test_csv_module_reader_holds_one_flat_array(self, tmp_path, rng):
        # the values go into one growing array of doubles, and the matrix is
        # a view of it: no array per row, and no copy that stacks them
        values = rng.normal(size=(5_000, 50))
        path = self.crlf_table(tmp_path / "crlf.csv", values)
        peak = traced_peak(_read_csv_matrix, path, "id,t1,...,tn")
        ids, matrix = _read_csv_matrix(path, "id,t1,...,tn")
        assert ids == [f"s{i}" for i in range(5_000)]
        assert np.array_equal(matrix, values)
        assert peak < 2 * values.nbytes

    def test_digest_reads_in_blocks(self, tmp_path):
        path = tmp_path / "big.csv"
        data = os.urandom(6 * 2**20)
        path.write_bytes(data)
        del data
        assert traced_peak(_digest, path) < 2**20
        assert _digest(path) == hashlib.sha256(path.read_bytes()).hexdigest()


class TestSimulate:
    def test_writes_expected_rows(self, tmp_path):
        out = tmp_path / "sim"
        code = main(["simulate", "--out", str(out), "--sizes", "2,2,2,2,2,2",
                     "--seed", "5"])
        assert code == 0
        data = read_wide(out / "series.csv")
        assert data.n_series == 12
        labels = (out / "labels.csv").read_text().strip().splitlines()
        assert labels[0] == "id,label"
        assert len(labels) == 13

    def test_rerun_byte_identical(self, tmp_path):
        # 2**64 + 5 is a seed of three 32-bit words, which keys every stream
        # with a multi-word seed
        for seed in ("9", str(2**64 + 5)):
            args = ["simulate", "--sizes", "3,3,3,3,3,3", "--seed", seed]
            out1, out2 = tmp_path / seed / "a", tmp_path / seed / "b"
            assert main(args + ["--out", str(out1)]) == 0
            assert main(args + ["--out", str(out2)]) == 0
            for name in ("series.csv", "labels.csv"):
                assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), seed
            assert (manifest_without_timings(out1 / "manifest.json")
                    == manifest_without_timings(out2 / "manifest.json")), seed


class TestCluster:
    @pytest.mark.parametrize("criterion", pspline.CRITERIA)
    def test_boost_outputs(self, tmp_path, toy_csv, criterion):
        # a short boosted run under each lambda criterion
        out = tmp_path / "run"
        code = main(["cluster", "--input", str(toy_csv), "--out", str(out),
                     "--k", "3", "--iters", "5", "--restarts", "2", "--seed", "1",
                     "--lambda-criterion", criterion])
        assert code == 0
        ids, membership = read_membership(out / "membership.csv")
        assert membership.shape == (12, 3)
        assert np.max(np.abs(membership.sum(axis=1) - 1.0)) < 1e-9
        assignments = (out / "assignments.csv").read_text().strip().splitlines()[1:]
        assert len(assignments) == 12
        assert all(line.split(",")[1] in {"1", "2", "3"} for line in assignments)
        trace = (out / "trace.csv").read_text().strip().splitlines()
        assert trace[0] == "restart,iteration,beta,bc"
        assert 2 <= len(trace) - 1 <= 2 * 5
        manifest = manifest_without_timings(out / "manifest.json")
        assert manifest["algorithm"] == "boost"
        assert manifest["k"] == 3
        assert manifest["lambda_criterion"] == criterion

    def test_rerun_byte_identical(self, tmp_path, toy_csv):
        # 2**64 + 5 is a seed of three 32-bit words, which keys every stream
        # with a multi-word seed
        for seed in ("2", str(2**64 + 5)):
            args = ["cluster", "--input", str(toy_csv), "--k", "3",
                    "--iters", "4", "--restarts", "2", "--seed", seed]
            out1, out2 = tmp_path / seed / "r1", tmp_path / seed / "r2"
            assert main(args + ["--out", str(out1)]) == 0
            assert main(args + ["--out", str(out2)]) == 0
            for name in ("membership.csv", "centers.csv", "assignments.csv", "trace.csv"):
                assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), seed

    @pytest.mark.parametrize("algorithm", ["fcm", "boost"])
    @pytest.mark.parametrize("copy", ["bom-crlf", "long"])
    def test_input_copy_writes_the_same_bytes(self, tmp_path, sim, copy, algorithm):
        # a copy of the simulated series with a byte order mark and CRLF line
        # ends, and a long copy in reverse time order, give the wide run's
        # bytes; FCM runs to convergence, the boosted run is short
        args = ["--k", "6", "--algorithm", algorithm, "--seed", "0"]
        if algorithm == "boost":
            args += ["--iters", "3", "--restarts", "2"]
        series = sim / "series.csv"
        if copy == "bom-crlf":
            args_copy = ["--input", str(bom_crlf_copy(series, tmp_path / "crlf.csv"))]
        else:
            args_copy = ["--input", str(long_copy(series, tmp_path / "long.csv")),
                         "--format", "long"]
        plain, other = tmp_path / "plain", tmp_path / "copy"
        assert main(["cluster", "--input", str(series), "--out", str(plain)] + args) == 0
        assert main(["cluster", "--out", str(other)] + args_copy + args) == 0
        for name in ("membership.csv", "centers.csv"):
            assert (plain / name).read_bytes() == (other / name).read_bytes(), name

    def test_paper_size_boost_bytes_do_not_depend_on_blas_threads(self, tmp_path, sim):
        # the paper's benchmark size (N = 360, n = 10, K = 6, 10 restarts), 20
        # iterations, in one child process with one OpenBLAS thread and one
        # with two: both write the same membership and center bytes
        paths = [str(Path(tsboost.__file__).parents[1]), os.environ.get("PYTHONPATH")]
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p),
                       OPENBLAS_NUM_THREADS=threads)
            proc = subprocess.run(
                [sys.executable, "-m", "tsboost.cli", "cluster", "--input", str(sim / "series.csv"),
                 "--out", str(tmp_path / threads), "--k", "6", "--distance", "penrose",
                 "--iters", "20", "--restarts", "10", "--seed", "0"],
                capture_output=True, text=True, env=env, timeout=300)
            assert proc.returncode == 0, proc.stderr
        for name in ("membership.csv", "centers.csv"):
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()

    def test_fcm_path(self, tmp_path, toy_csv):
        out = tmp_path / "fcm"
        code = main(["cluster", "--input", str(toy_csv), "--out", str(out),
                     "--k", "3", "--algorithm", "fcm", "--fuzzifier", "2",
                     "--seed", "0"])
        assert code == 0
        _, membership = read_membership(out / "membership.csv")
        assert membership.shape == (12, 3)
        assert np.max(np.abs(membership.sum(axis=1) - 1.0)) < 1e-9

    def test_fcm_fuzzifier_near_one(self, tmp_path, sim):
        # at m = 1.01 the membership powers d2 ** -100 of the simulated
        # series overflow or underflow; every membership must stay finite
        out = tmp_path / "fcm"
        assert main(["cluster", "--input", str(sim / "series.csv"), "--out", str(out),
                     "--k", "6", "--algorithm", "fcm", "--fuzzifier", "1.01",
                     "--seed", "0"]) == 0
        _, membership = read_membership(out / "membership.csv")
        assert np.all(np.isfinite(membership))
        assert np.max(np.abs(membership.sum(axis=1) - 1.0)) < 1e-9

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_pipe_input_digest_is_null(self, tmp_path, toy_csv):
        # a pipe, as in --input <(...), is read once: its digest is null,
        # not the digest of the nothing left to read again
        args = ["--k", "3", "--algorithm", "fcm", "--seed", "0"]
        assert main(["cluster", "--input", str(toy_csv), "--out", str(tmp_path / "file")]
                    + args) == 0
        read_end, write_end = os.pipe()
        with os.fdopen(write_end, "wb") as fh:
            fh.write(toy_csv.read_bytes())
        try:
            assert main(["cluster", "--input", f"/dev/fd/{read_end}",
                         "--out", str(tmp_path / "pipe")] + args) == 0
        finally:
            os.close(read_end)
        manifest = manifest_without_timings(tmp_path / "pipe" / "manifest.json")
        assert manifest[f"digest_{read_end}"] is None
        file_manifest = manifest_without_timings(tmp_path / "file" / "manifest.json")
        assert len(file_manifest["digest_toy.csv"]) == 64
        for name in ("membership.csv", "centers.csv"):
            assert ((tmp_path / "pipe" / name).read_bytes()
                    == (tmp_path / "file" / name).read_bytes())

    def test_carriage_return_id_reads_back(self, tmp_path):
        # an id holding a lone \r is written quoted, so evaluate reads the membership back
        path = tmp_path / "cr.csv"
        path.write_bytes(b'id,t1,t2\n"a\rb",0.0,1.0\nc,0.5,1.5\nd,9.0,8.0\ne,9.5,8.5\n')
        out = tmp_path / "fcm"
        assert main(["cluster", "--input", str(path), "--out", str(out),
                     "--k", "2", "--algorithm", "fcm"]) == 0
        membership = str(out / "membership.csv")
        assert main(["evaluate", "--membership", membership,
                     "--reference-membership", membership]) == 0
        assert read_membership(out / "membership.csv")[0] == ["a\rb", "c", "d", "e"]
        assert (out / "assignments.csv").read_bytes().split(b"\n")[1].startswith(b'"a\rb",')

    def test_fcm_converges_by_default(self, tmp_path, slow_fcm_csv):
        out = tmp_path / "fcm"
        assert main(["cluster", "--input", str(slow_fcm_csv), "--out", str(out),
                     "--k", "3", "--algorithm", "fcm"]) == 0
        manifest = manifest_without_timings(out / "manifest.json")
        assert manifest["max_sweeps"] == 500
        assert manifest["converged"] is True and manifest["sweeps"] > 100
        trace = (out / "trace.csv").read_text().strip().splitlines()
        assert len(trace) - 1 == manifest["sweeps"]

    def test_fcm_iters_caps_the_sweeps(self, tmp_path, slow_fcm_csv):
        out = tmp_path / "fcm"
        assert main(["cluster", "--input", str(slow_fcm_csv), "--out", str(out),
                     "--k", "3", "--algorithm", "fcm", "--iters", "5"]) == 0
        manifest = manifest_without_timings(out / "manifest.json")
        assert (manifest["max_sweeps"], manifest["sweeps"]) == (5, 5)
        assert manifest["converged"] is False

    def test_boost_iters_default_recorded(self, tmp_path, toy_csv):
        out = tmp_path / "run"
        assert main(["cluster", "--input", str(toy_csv), "--out", str(out),
                     "--k", "3", "--restarts", "1"]) == 0
        assert manifest_without_timings(out / "manifest.json")["iters"] == 100

    @pytest.mark.parametrize("case", [
        "k-above-n", "k-equals-n", "fcm-k-equals-n", "bad-sizes", "fuzzifier-nan",
        "sigma2-u-nan", "sigma2-u-inf", "penalty-order-0", "penalty-order-9",
        "negative-degree", "n-below-4",
        "degree-above-domain", "simulate-negative-seed", "boost-negative-seed",
        "fcm-negative-seed", "k-below-2", "boost-iters-0", "fcm-iters-0",
    ])
    def test_config_error_exit_code(self, tmp_path, toy_csv, capsys, case):
        out = str(tmp_path / "x")
        cluster = ["cluster", "--input", str(toy_csv), "--out", out]
        smooth = ["smooth", "--input", str(toy_csv), "--out", out]
        argv = {
            "k-above-n": cluster + ["--k", "99"],
            "k-equals-n": cluster + ["--k", "12"],  # toy has 12 series
            "fcm-k-equals-n": cluster + ["--k", "12", "--algorithm", "fcm"],
            "bad-sizes": ["simulate", "--out", out, "--sizes", "1,2,x"],
            "fuzzifier-nan": cluster + ["--k", "3", "--algorithm", "fcm", "--fuzzifier", "nan"],
            "sigma2-u-nan": ["simulate", "--out", out, "--sigma2-u", "nan"],
            "sigma2-u-inf": ["simulate", "--out", out, "--sigma2-u", "inf"],
            "penalty-order-0": smooth + ["--penalty-order", "0"],
            "penalty-order-9": smooth + ["--penalty-order", "9"],
            "negative-degree": smooth + ["--degree", "-1"],
            "n-below-4": ["simulate", "--out", out, "--n", "3"],
            "degree-above-domain": smooth + ["--degree", "20"],  # toy series have 10 points
            "simulate-negative-seed": ["simulate", "--out", out, "--seed", "-1"],
            "boost-negative-seed": cluster + ["--k", "3", "--seed", "-1"],
            "fcm-negative-seed": cluster + ["--k", "3", "--algorithm", "fcm", "--seed", "-1"],
            "k-below-2": cluster + ["--k", "1"],
            "boost-iters-0": cluster + ["--k", "3", "--iters", "0"],
            "fcm-iters-0": cluster + ["--k", "3", "--algorithm", "fcm", "--iters", "0"],
        }[case]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not os.path.exists(out)  # no empty --out directory left behind

    def test_data_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("id,t1,t2\na,1.0,nope\n")
        code = main(["cluster", "--input", str(bad), "--out", str(tmp_path / "y"),
                     "--k", "2"])
        assert code == 2

    def test_run_error_exit_code(self, tmp_path, toy_csv, capsys):
        # a huge fuzzifier underflows every membership weight: EmptyCluster
        code = main(["cluster", "--input", str(toy_csv), "--out", str(tmp_path / "y"),
                     "--k", "3", "--algorithm", "fcm", "--fuzzifier", "1e308"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("algorithm", ["fcm", "boost"])
    def test_overflowing_distances_exit_code(self, tmp_path, capsys, algorithm):
        # squared distances of a series at +-1e154 overflow to inf; both
        # algorithms exit 2 with one line, and FCM writes no NaN memberships
        values = np.random.default_rng(5).normal(size=(4, 4))
        values[0] = [1e154, -1e154, 1e154, -1e154]
        path = tmp_path / "big.csv"
        write_wide(path, values)
        out = tmp_path / "out"
        code = main(["cluster", "--input", str(path), "--out", str(out),
                     "--k", "2", "--algorithm", algorithm])
        assert code == 2
        err = capsys.readouterr().err
        assert err == "error: distances must be finite and nonnegative\n"
        assert not out.exists()  # no --out directory is made for a failed run

    @pytest.mark.parametrize("fmt", ["wide", "long"])
    def test_empty_input_exit_code(self, tmp_path, capsys, fmt):
        path = tmp_path / "empty.csv"
        path.write_bytes(b"")
        code = main(["cluster", "--input", str(path), "--format", fmt,
                     "--out", str(tmp_path / "y"), "--k", "2"])
        assert code == 2
        assert capsys.readouterr().err == f"error: {path}:1: empty file\n"
        assert not (tmp_path / "y").exists()

    @pytest.mark.parametrize("name", ["missing.csv", "."], ids=["missing", "directory"])
    def test_unreadable_input_exit_code(self, tmp_path, capsys, name):
        # a missing file and a directory both fail to open
        path = tmp_path / name
        code = main(["cluster", "--input", str(path), "--out", str(tmp_path / "y"),
                     "--k", "2"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("case", ["non-utf8", "oversized-field"])
    def test_undecodable_input_exit_code(self, tmp_path, capsys, case):
        # a byte that is not UTF-8, and a field over the csv module's 131,072-character limit
        path = tmp_path / "bad.csv"
        second_row = {"non-utf8": b"caf\xe9,1.0,2.0\n",
                      "oversized-field": b"b," + b"1" * 200_000 + b",2.0\n"}[case]
        path.write_bytes(b"id,t1,t2\na,1.0,2.0\n" + second_row)
        code = main(["cluster", "--input", str(path), "--out", str(tmp_path / "y"),
                     "--k", "2"])
        assert code == 2
        err = capsys.readouterr().err
        where = {"non-utf8": f"{path}: ", "oversized-field": f"{path}:3: "}[case]
        assert err.startswith(f"error: {where}") and err.count("\n") == 1

    def test_unwritable_output_exit_code(self, tmp_path, toy_csv, capsys):
        # --out names an existing file, so the output directory cannot be made
        code = main(["cluster", "--input", str(toy_csv), "--out", str(toy_csv),
                     "--k", "3", "--iters", "2", "--restarts", "1"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {toy_csv}: ") and err.count("\n") == 1

    def test_usage_error_exit_code(self):
        assert main(["cluster", "--k", "2"]) == 1  # missing required flags


class TestEvaluate:
    def test_self_comparison(self, tmp_path, toy_csv, capsys):
        out = tmp_path / "run"
        main(["cluster", "--input", str(toy_csv), "--out", str(out),
              "--k", "3", "--iters", "5", "--restarts", "2", "--seed", "1"])
        report_path = tmp_path / "report.json"
        code = main(["evaluate", "--membership", str(out / "membership.csv"),
                     "--reference-membership", str(out / "membership.csv"),
                     "--out", str(report_path)])
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["fuzzy_rand"] == 1.0
        assert report["classic_rand"] == 1.0
        captured = capsys.readouterr()
        assert "fuzzy_rand = 1.000000" in captured.out

    def test_reference_labels_path(self, tmp_path, toy_csv):
        out = tmp_path / "run"
        main(["cluster", "--input", str(toy_csv), "--out", str(out),
              "--k", "3", "--iters", "10", "--restarts", "3", "--seed", "1"])
        labels_path = tmp_path / "labels.csv"
        ids = [f"s{i+1:04d}" for i in range(12)]
        lines = ["id,label"] + [f"{sid},{1 + i // 4}" for i, sid in enumerate(ids)]
        labels_path.write_text("\n".join(lines) + "\n")
        report_path = tmp_path / "report.json"
        code = main(["evaluate", "--membership", str(out / "membership.csv"),
                     "--reference-labels", str(labels_path),
                     "--input", str(toy_csv), "--out", str(report_path)])
        assert code == 0
        report = json.loads(report_path.read_text())
        # the three level groups are far apart; hardened recovery is exact
        # even though the memberships stay softer than the reference
        assert report["classic_rand"] == 1.0
        assert report["fuzzy_rand"] > 0.7
        assert "reference_bc" in report

    def test_bom_crlf_copies_write_the_same_report(self, tmp_path, sim):
        # evaluate reads the membership and the series of such copies through
        # the csv-module reader; its report equals the plain run's byte for byte
        run = tmp_path / "fcm"
        assert main(["cluster", "--input", str(sim / "series.csv"), "--out", str(run),
                     "--k", "6", "--algorithm", "fcm", "--seed", "0"]) == 0
        membership, series = run / "membership.csv", sim / "series.csv"
        copies = (bom_crlf_copy(membership, tmp_path / "membership-crlf.csv"),
                  bom_crlf_copy(series, tmp_path / "series-crlf.csv"))
        reports = []
        for name, (member, data) in (("plain", (membership, series)), ("crlf", copies)):
            reports.append(tmp_path / f"{name}.json")
            assert main(["evaluate", "--membership", str(member),
                         "--reference-labels", str(sim / "labels.csv"),
                         "--input", str(data), "--out", str(reports[-1])]) == 0
        assert reports[0].read_bytes() == reports[1].read_bytes()

    def test_single_reference_label_exit_code(self, tmp_path, toy_csv, capsys):
        out = tmp_path / "run"
        assert main(["cluster", "--input", str(toy_csv), "--out", str(out),
                     "--k", "3", "--iters", "2", "--restarts", "1"]) == 0
        labels_path = tmp_path / "labels.csv"
        lines = ["id,label"] + [f"s{i + 1:04d},1" for i in range(12)]
        labels_path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = main(["evaluate", "--membership", str(out / "membership.csv"),
                     "--reference-labels", str(labels_path), "--input", str(toy_csv)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: reference labels hold 1 distinct label")
        assert captured.err.count("\n") == 1
        assert "fuzzy_rand" not in captured.out

    def test_unwritable_report_exit_code(self, tmp_path, toy_csv, capsys):
        out = tmp_path / "run"
        assert main(["cluster", "--input", str(toy_csv), "--out", str(out),
                     "--k", "3", "--iters", "2", "--restarts", "1"]) == 0
        capsys.readouterr()
        report = tmp_path / "missing" / "dir" / "r.json"
        code = main(["evaluate", "--membership", str(out / "membership.csv"),
                     "--reference-membership", str(out / "membership.csv"),
                     "--out", str(report)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {report}: ") and err.count("\n") == 1
        assert not report.parent.exists()

    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    def test_closed_stdout_exit_code(self, tmp_path, toy_csv, buffered):
        # the reader of stdout has gone before the report is printed, as
        # after ``| head -1``: exit 2 and nothing on stderr, not a traceback.
        # Buffered, the failing write comes at the flush, not at the print.
        out = tmp_path / "run"
        assert main(["cluster", "--input", str(toy_csv), "--out", str(out),
                     "--k", "3", "--iters", "2", "--restarts", "1"]) == 0
        membership = str(out / "membership.csv")
        read_end, write_end = os.pipe()
        os.close(read_end)
        paths = [str(Path(tsboost.__file__).parents[1]), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
        env.pop("PYTHONUNBUFFERED", None)
        if not buffered:
            env["PYTHONUNBUFFERED"] = "1"
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "tsboost.cli", "evaluate", "--membership", membership,
                 "--reference-membership", membership],
                stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=120)
        finally:
            os.close(write_end)
        assert proc.returncode == 2
        assert proc.stderr == ""

    def test_permuted_reference_ids_exit_code(self, tmp_path, capsys):
        # the same matrix under permuted ids is a different partition of the series
        member, reference = tmp_path / "m.csv", tmp_path / "r.csv"
        rows = [[0.9, 0.1], [0.2, 0.8], [0.6, 0.4]]
        for path, ids in ((member, "abc"), (reference, "cab")):
            lines = ["id,p1,p2"] + [f"{sid},{p},{q}" for sid, (p, q) in zip(ids, rows)]
            path.write_text("\n".join(lines) + "\n")
        code = main(["evaluate", "--membership", str(member),
                     "--reference-membership", str(reference)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: membership ids ") and captured.err.count("\n") == 1
        assert "fuzzy_rand" not in captured.out

    def test_reordered_membership_rows_exit_code(self, tmp_path, toy_csv, capsys):
        out = tmp_path / "run"
        assert main(["cluster", "--input", str(toy_csv), "--out", str(out),
                     "--k", "3", "--iters", "2", "--restarts", "1"]) == 0
        header, *rows = (out / "membership.csv").read_text().splitlines()
        reversed_rows = tmp_path / "reversed.csv"
        reversed_rows.write_text("\n".join([header] + rows[::-1]) + "\n")
        labels_path = tmp_path / "labels.csv"
        lines = ["id,label"] + [f"s{i + 1:04d},{1 + i // 4}" for i in range(12)]
        labels_path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = main(["evaluate", "--membership", str(reversed_rows),
                     "--reference-labels", str(labels_path), "--input", str(toy_csv)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: membership ids ") and captured.err.count("\n") == 1
        assert "fuzzy_rand" not in captured.out

    @pytest.mark.parametrize("case", ["no-input", "reversed-label-ids"])
    def test_reference_labels_config_error_exit_code(self, tmp_path, toy_csv, capsys, case):
        out = tmp_path / "run"
        assert main(["cluster", "--input", str(toy_csv), "--out", str(out),
                     "--k", "3", "--iters", "2", "--restarts", "1"]) == 0
        order = {"no-input": range(1, 13), "reversed-label-ids": range(12, 0, -1)}[case]
        labels_path = tmp_path / "labels.csv"
        labels_path.write_text(
            "id,label\n" + "".join(f"s{i:04d},{1 + (i - 1) // 4}\n" for i in order))
        argv = ["evaluate", "--membership", str(out / "membership.csv"),
                "--reference-labels", str(labels_path)]
        if case == "reversed-label-ids":
            argv += ["--input", str(toy_csv)]
        capsys.readouterr()
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == {
            "no-input": "error: --reference-labels requires --input\n",
            "reversed-label-ids": "error: labels file ids do not match the input series ids\n",
        }[case]
        assert "fuzzy_rand" not in captured.out

    def test_one_object_exit_code(self, tmp_path, capsys):
        # a Rand index needs a pair of objects: one data-error line, no numpy warning
        one = tmp_path / "one.csv"
        one.write_text("id,p1,p2\ns1,0.25,0.75\n")
        code = main(["evaluate", "--membership", str(one), "--reference-membership", str(one)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == "error: the fuzzy Rand index needs at least 2 objects, got 1\n"
        assert "fuzzy_rand" not in captured.out

    def test_missing_reference(self, tmp_path, toy_csv):
        assert main(["evaluate", "--membership", str(toy_csv)]) in (1, 2)

    def test_both_references_exit_code(self, tmp_path, toy_csv, capsys):
        # each reference alone scores; given both, neither is silently dropped
        out = tmp_path / "run"
        assert main(["cluster", "--input", str(toy_csv), "--out", str(out),
                     "--k", "3", "--iters", "2", "--restarts", "1"]) == 0
        labels_path = tmp_path / "labels.csv"
        lines = ["id,label"] + [f"s{i + 1:04d},{1 + i // 4}" for i in range(12)]
        labels_path.write_text("\n".join(lines) + "\n")
        membership = str(out / "membership.csv")
        capsys.readouterr()
        code = main(["evaluate", "--membership", membership,
                     "--reference-membership", membership,
                     "--reference-labels", str(labels_path), "--input", str(toy_csv)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "fuzzy_rand" not in captured.out

    @pytest.mark.parametrize("rows", [
        pytest.param([[0.7, 0.3], [-0.5, 1.5], [2.0, 3.0]], id="outside-unit-interval"),
        pytest.param([[0.7, 0.3], [0.5, 0.6], [0.2, 0.8]], id="row-sum"),
        pytest.param([[0.7, 0.3], [float("nan"), 1.0], [0.2, 0.8]], id="nan"),
    ])
    def test_invalid_membership_exit_code(self, tmp_path, capsys, rows):
        good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
        for path, matrix in ((good, [[0.7, 0.3], [0.5, 0.5], [0.2, 0.8]]), (bad, rows)):
            lines = ["id,p1,p2"] + [f"s{i},{a!r},{b!r}" for i, (a, b) in enumerate(matrix)]
            path.write_text("\n".join(lines) + "\n")
        for membership, reference in ((bad, good), (good, bad)):
            code = main(["evaluate", "--membership", str(membership),
                         "--reference-membership", str(reference)])
            assert code == 2
            captured = capsys.readouterr()
            assert captured.err.startswith(f"error: {bad}: membership ")
            assert captured.err.count("\n") == 1
            assert "bc =" not in captured.out


class TestSmooth:
    def test_profile_row_counts(self, tmp_path, rng):
        x = np.linspace(0, 1, 60)
        y = np.sin(2 * np.pi * x) + rng.normal(0, 0.1, size=60)
        path = tmp_path / "one.csv"
        write_wide(path, np.vstack([y, y]))
        out_gcv = tmp_path / "gcv"
        assert main(["smooth", "--input", str(path), "--out", str(out_gcv),
                     "--criterion", "gcv"]) == 0
        profile = (out_gcv / "profile.csv").read_text().strip().splitlines()
        assert len(profile) - 1 == 50  # one score per grid lambda
        out_v = tmp_path / "v"
        assert main(["smooth", "--input", str(path), "--out", str(out_v),
                     "--criterion", "vcurve"]) == 0
        profile = (out_v / "profile.csv").read_text().strip().splitlines()
        assert len(profile) - 1 == 49  # scores live on grid midpoints
        fit = (out_v / "fit.csv").read_text().strip().splitlines()
        assert fit[0] == "t,y,fitted"
        assert len(fit) - 1 == 60

    def test_criteria_agree_on_clear_signal(self, tmp_path, rng):
        x = np.linspace(0, 1, 100)
        truth = np.sin(2 * np.pi * x)
        y = truth + rng.normal(0, 0.1, size=100)
        path = tmp_path / "sine.csv"
        write_wide(path, np.vstack([y, y]))
        rmse = {}
        for crit in ("vcurve", "gcv"):
            out = tmp_path / crit
            assert main(["smooth", "--input", str(path), "--out", str(out),
                         "--criterion", crit]) == 0
            rows = (out / "fit.csv").read_text().strip().splitlines()[1:]
            fitted = np.array([float(r.split(",")[2]) for r in rows])
            rmse[crit] = float(np.sqrt(np.mean((fitted - truth) ** 2)))
        assert abs(rmse["vcurve"] - rmse["gcv"]) <= 0.25 * max(rmse.values())

    def test_constant_series_flat_fit(self, tmp_path):
        path = tmp_path / "const.csv"
        write_wide(path, np.full((2, 20), 2.5))
        out = tmp_path / "out"
        assert main(["smooth", "--input", str(path), "--out", str(out)]) == 0
        rows = (out / "fit.csv").read_text().strip().splitlines()[1:]
        fitted = np.array([float(r.split(",")[2]) for r in rows])
        assert np.max(np.abs(fitted - 2.5)) < 1e-8

    def test_constant_series_writes_header_only_profile(self, tmp_path):
        # every criterion's profile is flat on a constant, so none is written,
        # and the fit is taken at the largest grid lambda
        path = tmp_path / "const.csv"
        write_wide(path, np.full((2, 20), 2.5))
        for crit in ("aic", "loocv", "gcv", "lcurve", "vcurve"):
            out = tmp_path / crit
            assert main(["smooth", "--input", str(path), "--out", str(out),
                         "--criterion", crit]) == 0
            assert (out / "profile.csv").read_bytes() == b"lambda,score\n", crit
            assert '"lambda": 1000000.0,' in (out / "manifest.json").read_text(), crit

    @pytest.mark.parametrize("criterion", ["aic", "loocv", "gcv", "lcurve", "vcurve"])
    @pytest.mark.parametrize("magnitude", [1e153, 1e160, 1e300])
    def test_huge_series_fit_without_overflow(self, tmp_path, criterion, magnitude):
        # the squares of a series at +-1e153 and beyond overflow, which numpy
        # only warns about; the test settings in pyproject.toml make that an error
        values = np.random.default_rng(3).normal(size=(2, 12))
        values[0] = magnitude * np.resize([1.0, -1.0], 12)
        path = tmp_path / "big.csv"
        write_wide(path, values)
        out = tmp_path / "out"
        assert main(["smooth", "--input", str(path), "--out", str(out),
                     "--criterion", criterion]) == 0
        rows = (out / "fit.csv").read_text().strip().splitlines()[1:]
        assert np.all(np.isfinite([float(row.split(",")[2]) for row in rows]))

    @pytest.mark.parametrize("criterion", ["lcurve", "vcurve"])
    def test_series_whose_coefficients_overflow_exits_2(self, tmp_path, capsys, criterion):
        # at +-1e308 these criteria pick a fit whose spline coefficients
        # exceed the float range: one error line, and no fit.csv of NaN
        values = np.random.default_rng(3).normal(size=(2, 12))
        values[0] = 1e308 * np.resize([1.0, -1.0], 12)
        path = tmp_path / "big.csv"
        write_wide(path, values)
        out = tmp_path / "out"
        assert main(["smooth", "--input", str(path), "--out", str(out),
                     "--criterion", criterion]) == 2
        err = capsys.readouterr().err
        assert err == "error: the series' spline coefficients overflow the float range\n"
        assert not out.exists()

    def test_unknown_series_id(self, tmp_path):
        path = tmp_path / "d.csv"
        write_wide(path, np.zeros((2, 10)) + np.arange(10))
        assert main(["smooth", "--input", str(path), "--out", str(tmp_path / "o"),
                     "--series-id", "missing"]) == 1

    @pytest.mark.parametrize("criterion", pspline.CRITERIA)
    def test_series_id_picks_its_row(self, tmp_path, sim, criterion):
        # a simulated series under each lambda criterion: its lambda is one
        # of the points of the profile written beside the fit
        out = tmp_path / "fit"
        assert main(["smooth", "--input", str(sim / "series.csv"), "--out", str(out),
                     "--series-id", "s0003", "--criterion", criterion]) == 0
        data = read_wide(sim / "series.csv")
        rows = [row.split(",") for row in (out / "fit.csv").read_text().strip().splitlines()[1:]]
        assert [float(row[1]) for row in rows] == data.values[data.ids.index("s0003")].tolist()
        assert np.all(np.isfinite([float(row[2]) for row in rows]))
        manifest = manifest_without_timings(out / "manifest.json")
        assert (manifest["series_id"], manifest["criterion"]) == ("s0003", criterion)
        profile = (out / "profile.csv").read_text().strip().splitlines()[1:]
        assert manifest["lambda"] in [float(row.split(",")[0]) for row in profile]
