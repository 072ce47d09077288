"""CLI and orchestration tests: flags, artifacts, round-trip consistency, exit codes."""

import csv
import filecmp
import hashlib
import io
import multiprocessing
import os
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from digmix import cli, samplers
from digmix.cli import (
    EXIT_IO,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_USAGE,
    ExperimentSpec,
    build_dataset,
    build_parser,
    default_m,
    main,
    run_experiment,
    spec_from_args,
)
from digmix.diagnostics import posterior_similarity_matrix

# A test that patches the parent before its pool starts reaches the workers
# only when they are forked (not the default from Python 3.14 on).
needs_fork = pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                                reason="pool workers are not forked, so they miss the patch")
POOL_THREADS = [pytest.param(1, id="in-process"), pytest.param(2, id="pool", marks=needs_fork)]


def read_kv(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["key", "value"]
    return {k: v for k, v in rows[1:]}


def read_trace(path):
    data = np.genfromtxt(path, delimiter=",", names=True)
    return data


def tiny_spec(out_dir, **over):
    base = dict(
        data="miller", n=80, d=2, k_fit=3, methods=["SSG", "DIG"], replicas=2,
        iters=250, m=4, seed=0, window=50, snapshot_every=10,
        out_dir=str(out_dir), threads=1,
    )
    base.update(over)
    return ExperimentSpec(**base)


# ---------------------------------------------------------------- default m

def test_default_m_piecewise():
    assert default_m(1000) == 10
    assert default_m(5000) == 100
    assert default_m(10000) == 300
    assert default_m(50) == 1        # floor at 1
    assert default_m(1) == 1
    with pytest.raises(ValueError):
        default_m(0)


# ---------------------------------------------------------------- dataset building

def test_build_dataset_families():
    for family, n, d in [("miller", 50, 3), ("motivating5", 50, 2), ("misspec4", 50, 2)]:
        spec = ExperimentSpec(data=family, n=n, d=d, seed=1)
        ds = build_dataset(spec)
        assert ds.x.shape == (n, 2 if family != "miller" else d)
        assert ds.labels is not None


def test_build_dataset_standardize_defaults():
    miller = build_dataset(ExperimentSpec(data="miller", n=200, d=2, seed=0))
    assert miller.x.std(axis=0) == pytest.approx(np.ones(2), abs=1e-9)
    raw = build_dataset(ExperimentSpec(data="misspec4", n=200, seed=0))
    assert abs(raw.x.std(axis=0)[0] - 1.0) > 0.1
    forced = build_dataset(ExperimentSpec(data="misspec4", n=200, seed=0, standardize=True))
    assert forced.x.std(axis=0) == pytest.approx(np.ones(2), abs=1e-9)


def test_build_dataset_data_seed_independent_of_chain_seed():
    a = build_dataset(ExperimentSpec(data="miller", n=50, d=2, seed=0, data_seed=42))
    b = build_dataset(ExperimentSpec(data="miller", n=50, d=2, seed=99, data_seed=42))
    np.testing.assert_array_equal(a.x, b.x)


def test_build_dataset_csv(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("a,b,lab\n1,2,0\n3,4,1\n5,6,0\n")
    ds = build_dataset(ExperimentSpec(data="csv", csv_path=str(p), label_col="lab"))
    assert ds.x.shape == (3, 2)
    np.testing.assert_array_equal(ds.labels, [0, 1, 0])


# ---------------------------------------------------------------- validation

def test_spec_validation_errors():
    with pytest.raises(ValueError):
        tiny_spec("o", methods=[]).validate()
    with pytest.raises(ValueError):
        tiny_spec("o", methods=["XXX"]).validate()
    with pytest.raises(ValueError, match="more than once: SSG"):
        tiny_spec("o", methods=["SSG", "DIG", "SSG"]).validate()
    with pytest.raises(ValueError):
        tiny_spec("o", replicas=0).validate()
    with pytest.raises(ValueError):
        ExperimentSpec(data="csv").validate()
    with pytest.raises(ValueError):
        tiny_spec("o", data="nope").validate()
    for family, least in [("miller", 3), ("motivating5", 5), ("misspec4", 4)]:
        with pytest.raises(ValueError, match=f"--n >= {least}"):
            tiny_spec("o", data=family, n=least - 1, m=1).validate()
        tiny_spec("o", data=family, n=least, m=1).validate()
    with pytest.raises(ValueError, match="--d"):
        tiny_spec("o", d=0).validate()
    with pytest.raises(ValueError, match="--snapshot-every"):
        tiny_spec("o", snapshot_every=-5).validate()
    with pytest.raises(ValueError, match="--threads"):
        tiny_spec("o", threads=-1).validate()
    tiny_spec("o", snapshot_every=0, threads=0).validate()


# ---------------------------------------------------------------- experiment artifacts

def test_experiment_artifacts_and_roundtrip(tmp_path):
    out = tmp_path / "out"
    spec = tiny_spec(out)
    assert run_experiment(spec) == EXIT_OK

    names = sorted(p.name for p in out.iterdir())
    assert names == sorted(
        [f"trace_ssg_{r:02d}.csv" for r in range(2)]
        + [f"trace_dig_{r:02d}.csv" for r in range(2)]
        + ["summary_ssg.csv", "summary_dig.csv", "psm_ssg_00.csv", "psm_dig_00.csv",
           "alpha_gap.csv"]
    )

    # Round-trip: summary statistics recomputed from traces match the files.
    for method in ("ssg", "dig"):
        summary = read_kv(out / f"summary_{method}.csv")
        tails = []
        for r in range(2):
            tr = read_trace(out / f"trace_{method}_{r:02d}.csv")
            assert list(tr.dtype.names) == ["iter", "wall_ns", "cll", "lambda", "ess", "g_weight", "occupied"]
            assert len(tr) == spec.iters
            tails.append(tr["cll"][-spec.window:].mean())
        assert float(summary["cll_tail_mean"]) == pytest.approx(np.mean(tails), abs=1e-9)
        assert float(summary["cll_tail_sd"]) == pytest.approx(np.std(tails, ddof=1), abs=1e-9)
        assert summary["method"] == method.upper()
        assert "ari_final_mean" in summary        # miller data has labels
        assert "t2c_seconds_mean" in summary      # SSG reference available

    # PSM is square with unit diagonal.
    psm = np.loadtxt(out / "psm_dig_00.csv", delimiter=",")
    assert psm.shape == (spec.n, spec.n)
    np.testing.assert_allclose(np.diag(psm), 1.0, atol=1e-9)

    gaps = np.genfromtxt(out / "alpha_gap.csv", delimiter=",", names=True)
    assert len(gaps) > 0


def test_experiment_deterministic_reruns(tmp_path):
    spec_a = tiny_spec(tmp_path / "a")
    spec_b = tiny_spec(tmp_path / "b")
    run_experiment(spec_a)
    run_experiment(spec_b)
    for name in ("trace_dig_00.csv", "trace_ssg_01.csv", "psm_dig_00.csv", "alpha_gap.csv"):
        a, b = tmp_path / "a" / name, tmp_path / "b" / name
        # wall_ns differs between runs; compare everything else column-wise.
        if name.startswith("trace"):
            ta = read_trace(a)
            tb = read_trace(b)
            for col in ("iter", "cll", "lambda", "ess", "g_weight", "occupied"):
                np.testing.assert_array_equal(ta[col], tb[col])
        else:
            assert filecmp.cmp(a, b, shallow=False), name


def test_only_first_replica_keeps_snapshots(tmp_path, monkeypatch):
    traces = []
    run_job = cli._run_job

    def keep(args):
        traces.append((args[3].seed, run_job(args)))
        return traces[-1][1]

    monkeypatch.setattr(cli, "_run_job", keep)
    assert run_experiment(tiny_spec(tmp_path / "out", replicas=3)) == EXIT_OK
    assert len(traces) == 6
    for seed, tr in traces:
        assert bool(tr.snapshots) == (seed == 0)
        assert bool(tr.alpha_snapshots) == (seed == 0 and tr.method == "DIG")


# Digests of the files written by GOLDEN_ARGS, recorded before replicas >= 1
# stopped taking snapshots and before the PSM writer stopped calling savetxt.
# Trace files are hashed without their wall_ns column.
GOLDEN_ARGS = ["--n", "300", "--iters", "200", "--window", "50", "--replicas", "2", "--threads", "1"]
GOLDEN_DIGESTS = {
    "alpha_gap.csv": "a3c2705592663c6dfc811f523957e3cac603326050411dc81c616de48fae2351",
    "psm_dig_00.csv": "40ca7a3ff7a1d1229c1b08d4827ed33f9b1111411070b8768de602a980a5fcc4",
    "psm_rsg_00.csv": "bb5206a9f6fb221904bfd6de5f70f5f0967adeeb7d89421c63bcbe0a98de442e",
    "psm_ssg_00.csv": "357d0177b5884992d018fc6f62858e9f43030b2ea82a5abef5f92e50a16fd8e8",
    "trace_dig_00.csv": "67b6da0ff43dbeef02b099892553aebc67b9ffd9464e10185bc6db8ce87eacd1",
    "trace_dig_01.csv": "4a6ca34e92754bce1da597b103ff7b18cb454b04ad5ead18f899ace3e4e5d859",
    "trace_rsg_00.csv": "74aa2fd79b8c8d47417f00833f599dbcc46b0e4695636d93f14f14beb15f05d1",
    "trace_rsg_01.csv": "e99be8428b339ba99481c54678f1a73f13e3445c6c02ef99172fc14a94a259b6",
    "trace_ssg_00.csv": "c189db945420f93a3d1f7023838b4abea4477b7ac216f92258a2be911452818e",
    "trace_ssg_01.csv": "b1fb0c3f6cfa7898a4132d8b7d75ff55880a9fbf3e61d3e5d7e3007282892e82",
}


def output_digests(out):
    digests = {}
    for p in sorted(out.iterdir()):
        if p.name.startswith("summary_"):
            continue        # holds wall-clock seconds
        data = p.read_bytes()
        if p.name.startswith("trace_"):
            lines = data.decode().splitlines(keepends=True)
            data = "".join(",".join(c for i, c in enumerate(line.split(",")) if i != 1)
                           for line in lines).encode()
        digests[p.name] = hashlib.sha256(data).hexdigest()
    return digests


def test_golden_output_digests(tmp_path):
    out = tmp_path / "run"
    assert main([*GOLDEN_ARGS, "--out-dir", str(out)]) == EXIT_OK
    assert output_digests(out) == GOLDEN_DIGESTS


def test_golden_output_digests_in_pool(tmp_path):
    # Pool workers write their own chains' files; the later --threads wins.
    out = tmp_path / "run"
    assert main([*GOLDEN_ARGS, "--threads", "2", "--out-dir", str(out)]) == EXIT_OK
    assert output_digests(out) == GOLDEN_DIGESTS


def random_snapshots(n, K, S, seed=0):
    rng = np.random.default_rng(seed)
    base = rng.integers(0, K, n)
    snaps = []
    for _ in range(S):
        z = base.copy()
        moved = rng.random(n) < 0.3
        z[moved] = rng.integers(0, K, moved.sum())
        snaps.append(z.astype(np.int32))
    return snaps


@pytest.mark.parametrize("n,K,S", [(1, 1, 1), (5, 2, 1), (37, 3, 7), (200, 20, 60), (1500, 3, 60),
                                   (12, 8, 40)])
def test_write_matrix_matches_savetxt(tmp_path, n, K, S):
    # (200, 20, 60) and (12, 8, 40) have S*K > n; (1500, 3, 60) spans many
    # blocks of rows and many tiles of columns in each.
    snaps = random_snapshots(n, K, S)
    buf = io.BytesIO()
    np.savetxt(buf, posterior_similarity_matrix(snaps), delimiter=",", fmt="%.6g")
    path = tmp_path / "psm.csv"
    cli._write_psm(path, snaps)
    assert path.read_bytes() == buf.getvalue()
    assert [p.name for p in tmp_path.iterdir()] == ["psm.csv"]
    # The writer takes blocks of any height, the whole matrix included.
    counts = np.rint(posterior_similarity_matrix(snaps) * S)
    for rows in (1, 7, n):
        cli._write_matrix(path, (counts[r0:r0 + rows] for r0 in range(0, n, rows)), S)
        assert path.read_bytes() == buf.getvalue()


def test_write_matrix_peak_memory(tmp_path):
    # The command's PSM path, from snapshots to file, against one float64 (n, n) array.
    n, K, S = 1500, 3, 60
    snaps = random_snapshots(n, K, S)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        cli._write_psm(tmp_path / "psm.csv", snaps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * n * n * 8


def test_write_matrix_rejects_values_off_the_grid(tmp_path):
    counts = np.rint(posterior_similarity_matrix(random_snapshots(300, 3, 7)) * 7)
    for bad in (3.5, -1.0, 8.0, np.nan):
        blocks = counts.copy()
        blocks[250, 3] = bad        # not k/7 for k in 0..7, in the second block of rows
        with pytest.raises(ValueError, match="rows 200..299 .*k/7"):
            cli._write_matrix(tmp_path / "psm.csv", (blocks[:200], blocks[200:]), 7)
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("target", ["trace_dig_01.csv", "summary_ssg.csv", "psm_dig_00.csv",
                                    "alpha_gap.csv"])
def test_failed_write_leaves_no_partial_file(tmp_path, monkeypatch, target):
    partial = []

    class HalfWritten:
        """Writes half of the first chunk it is given, then fails."""

        def __init__(self, fh):
            self.fh = fh

        def write(self, text):
            self.fh.write(text[:len(text) // 2])
            self.fh.flush()
            partial.append(os.path.getsize(self.fh.name))
            raise OSError("no space left on device")

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

    def failing_open(path, *args, **kwargs):
        fh = open(path, *args, **kwargs)
        return HalfWritten(fh) if Path(path).name.startswith(f".{target}.") else fh

    monkeypatch.setattr(cli, "open", failing_open, raising=False)
    out = tmp_path / "out"
    with pytest.raises(OSError, match="no space"):
        run_experiment(tiny_spec(out, methods=["SSG", "RSG", "DIG"]))
    assert partial and partial[0] > 0
    names = [p.name for p in out.iterdir()]
    assert target not in names
    assert not [name for name in names if name.startswith(".") or name.endswith(".tmp")]


def test_single_replica_single_method(tmp_path):
    out = tmp_path / "one"
    spec = tiny_spec(out, methods=["DIG"], replicas=1, iters=100)
    assert run_experiment(spec) == EXIT_OK
    traces = [p.name for p in out.iterdir() if p.name.startswith("trace")]
    assert traces == ["trace_dig_00.csv"]
    summary = read_kv(out / "summary_dig.csv")
    assert "t2c_seconds_mean" not in summary     # no reference without >=2 SSG chains


# ---------------------------------------------------------------- argument parsing

def test_parser_and_spec_from_args(tmp_path):
    parser = build_parser()
    args = parser.parse_args([
        "--data", "misspec4", "--n", "300", "--k-fit", "10", "--methods", "dig,rsg",
        "--replicas", "3", "--iters", "1234", "--m", "7", "--seed", "5",
        "--data-seed", "49", "--window", "200", "--out-dir", str(tmp_path),
        "--standardize", "off", "--cll-mode", "state",
    ])
    spec = spec_from_args(args)
    assert spec.data == "misspec4"
    assert spec.methods == ["DIG", "RSG"]
    assert spec.k_fit == 10 and spec.m == 7 and spec.iters == 1234
    assert spec.seed == 5 and spec.data_seed == 49
    assert spec.standardize is False and spec.cll_mode == "state"


def test_parser_defaults_are_the_spec_defaults(monkeypatch):
    for var in list(os.environ):
        if var.startswith("DIGMIX_"):
            monkeypatch.delenv(var)
    assert spec_from_args(build_parser().parse_args([])) == ExperimentSpec()


def test_env_overrides(monkeypatch):
    monkeypatch.setenv("DIGMIX_N", "777")
    monkeypatch.setenv("DIGMIX_METHODS", "dig")
    args = build_parser().parse_args([])
    spec = spec_from_args(args)
    assert spec.n == 777
    assert spec.methods == ["DIG"]
    # Explicit flag beats the environment.
    args = build_parser().parse_args(["--n", "55"])
    assert spec_from_args(args).n == 55


@pytest.mark.parametrize("var,value,flag", [
    ("DIGMIX_N", "abc", "--n"),
    ("DIGMIX_THREADS", "two", "--threads"),
    ("DIGMIX_CLL_MODE", "mean", "--cll-mode"),
    ("DIGMIX_STANDARDIZE", "maybe", "--standardize"),
])
def test_env_values_get_their_flag_checks(tmp_path, monkeypatch, capsys, var, value, flag):
    monkeypatch.setenv(var, value)
    out = tmp_path / "run"
    code = main(["--n", "60", "--iters", "60", "--window", "20", "--replicas", "1",
                 "--out-dir", str(out)])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert var in err and flag in err and repr(value) in err
    assert not out.exists()


def test_label_col_numeric_coercion():
    args = build_parser().parse_args(["--label-col", "2"])
    assert spec_from_args(args).label_col == 2
    args = build_parser().parse_args(["--label-col", "class"])
    assert spec_from_args(args).label_col == "class"


# ---------------------------------------------------------------- exit codes

def test_main_usage_errors(tmp_path, capsys):
    assert main(["--data", "bogus"]) == EXIT_USAGE          # argparse choice failure
    assert main(["--data", "csv", "--out-dir", str(tmp_path)]) == EXIT_USAGE
    assert main(["--methods", "nope"]) == EXIT_USAGE
    assert main(["--replicas", "0"]) == EXIT_USAGE


def test_main_io_error(tmp_path):
    assert main([
        "--data", "csv", "--csv-path", str(tmp_path / "missing.csv"),
        "--k-fit", "2", "--out-dir", str(tmp_path),
    ]) == EXIT_IO


def test_main_happy_path(tmp_path):
    code = main([
        "--data", "miller", "--n", "60", "--d", "2", "--k-fit", "3",
        "--methods", "dig", "--replicas", "1", "--iters", "80", "--m", "3",
        "--window", "20", "--snapshot-every", "0", "--out-dir", str(tmp_path / "run"),
        "--threads", "1",
    ])
    assert code == EXIT_OK
    assert (tmp_path / "run" / "trace_dig_00.csv").exists()


def test_main_rejects_window_above_iters(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["--n", "200", "--replicas", "2", "--iters", "300", "--threads", "1",
                 "--out-dir", str(out)])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "--window" in err and "--iters" in err
    assert not out.exists() or not any(out.glob("trace_*.csv"))


@pytest.mark.parametrize("flags,message", [
    (["--n", "0"], "--n >= 3"),
    (["--n", "2"], "--n >= 3"),
    (["--data", "motivating5", "--n", "4"], "--n >= 5"),
    (["--data", "misspec4", "--n", "3"], "--n >= 4"),
    (["--d", "0"], "--d >= 1"),
    (["--snapshot-every", "-5"], "--snapshot-every >= 0"),
    (["--threads", "-1"], "--threads >= 0"),
    (["--methods", "ssg,dig,ssg"], "method given more than once: SSG"),
], ids=["n0", "miller-n2", "motivating5-n4", "misspec4-n3", "d0", "snapshot-every", "threads",
        "repeated-method"])
def test_main_rejects_bad_sizes(tmp_path, capsys, flags, message):
    out = tmp_path / "run"
    base = ["--n", "60", "--m", "1", "--iters", "60", "--window", "20", "--replicas", "1",
            "--threads", "1", "--out-dir", str(out)]
    assert main([*base, *flags]) == EXIT_USAGE
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("iters,written", [(18, False), (20, True)])
def test_short_run_skips_alpha_gap_with_a_warning(tmp_path, capsys, iters, written):
    # The gap series needs MIN_REFERENCE_SAMPLES (10) SSG samples from the
    # second half of the run: 18 iterations give 9, 20 give 10.
    out = tmp_path / "run"
    assert main(["--n", "60", "--iters", str(iters), "--window", "5", "--replicas", "2",
                 "--snapshot-every", "3", "--threads", "1", "--out-dir", str(out)]) == EXIT_OK
    err = capsys.readouterr().err
    assert ("warning: alpha_gap.csv not written: 9 post-burn-in SSG reference samples, fewer than 10"
            in err) != written
    methods = ("ssg", "rsg", "dig")
    expected = ({f"trace_{m}_{r:02d}.csv" for m in methods for r in range(2)}
                | {f"summary_{m}.csv" for m in methods} | {f"psm_{m}_00.csv" for m in methods})
    if written:
        expected.add("alpha_gap.csv")
    assert {p.name for p in out.iterdir()} == expected


@pytest.mark.parametrize("m", [0, 500])
def test_main_rejects_m_outside_range(tmp_path, capsys, m):
    out = tmp_path / "run"
    base = ["--iters", "60", "--window", "20", "--threads", "1", "--replicas", "1",
            "--out-dir", str(out), "--m", str(m)]
    assert main(["--n", "200", *base]) == EXIT_USAGE
    assert "--m" in capsys.readouterr().err
    # CSV data are checked once the file is loaded.
    p = tmp_path / "d.csv"
    p.write_text("a,b\n" + "".join(f"{i},{i % 7}\n" for i in range(30)))
    assert main(["--data", "csv", "--csv-path", str(p), "--k-fit", "2", *base]) == EXIT_USAGE
    assert "n = 30" in capsys.readouterr().err
    assert not out.exists() or not any(out.glob("trace_*.csv"))
    # SSG-only runs ignore --m.
    assert main(["--n", "60", "--methods", "ssg", "--snapshot-every", "0", *base]) == EXIT_OK


@pytest.mark.parametrize("threads", POOL_THREADS)
def test_chain_failure_exits_4_naming_the_chain(tmp_path, monkeypatch, capsys, threads):
    # Patched before the pool forks, so the workers inherit it.  It fails in
    # DIG replica 1 (seed 1), the last job, at iteration 37.
    real = samplers.sample_component_params

    def failing(*args, **kwargs):
        chain = sys._getframe(1).f_locals          # run_chain's frame
        if chain["config"].method == "DIG" and chain["config"].seed == 1 and chain["t"] == 37:
            raise FloatingPointError("overflow in the variance draw")
        return real(*args, **kwargs)

    monkeypatch.setattr(samplers, "sample_component_params", failing)
    out = tmp_path / "run"
    iters = 60
    code = main(["--n", "80", "--methods", "ssg,dig", "--replicas", "2", "--iters", str(iters),
                 "--window", "20", "--m", "4", "--threads", str(threads), "--out-dir", str(out)])
    assert code == EXIT_NUMERIC
    assert capsys.readouterr().err.splitlines() == [
        "numerical failure: DIG replica 1, iteration 37: FloatingPointError: overflow in the variance draw"]
    # Every job before the failing one finished and its files are whole; the
    # parent's files (summaries, gap series) are not written.
    names = sorted(p.name for p in out.iterdir())
    assert names == ["psm_dig_00.csv", "psm_ssg_00.csv", "trace_dig_00.csv", "trace_ssg_00.csv",
                     "trace_ssg_01.csv"]
    for name in names:
        if name.startswith("trace_"):
            assert len(read_trace(out / name)) == iters
        else:
            psm = np.loadtxt(out / name, delimiter=",")
            assert psm.shape == (80, 80) and np.all(np.diag(psm) == 1.0)


@pytest.mark.parametrize("threads", POOL_THREADS)
def test_programming_error_in_a_chain_propagates(tmp_path, monkeypatch, threads):
    # Only numerical failures exit 4; a bug reaches the caller with its own type.
    def broken(*args, **kwargs):
        raise TypeError("unexpected argument")

    monkeypatch.setattr(samplers, "sample_component_params", broken)
    with pytest.raises(TypeError, match="unexpected argument"):
        main(["--n", "80", "--methods", "ssg,dig", "--replicas", "2", "--iters", "20",
              "--window", "10", "--m", "4", "--threads", str(threads), "--out-dir", str(tmp_path / "run")])


@needs_fork
def test_failed_write_in_worker_leaves_no_partial_file(tmp_path, monkeypatch):
    # The pool path of test_failed_write_leaves_no_partial_file: a worker's
    # failed PSM write reaches the parent as the I/O error it is.
    def failing_open(path, *args, **kwargs):
        fh = open(path, *args, **kwargs)
        if Path(path).name.startswith(".psm_dig_00.csv."):
            fh.write("0,1\n")
            fh.close()
            raise OSError("no space left on device")
        return fh

    monkeypatch.setattr(cli, "open", failing_open, raising=False)
    out = tmp_path / "out"
    assert main(["--n", "80", "--methods", "ssg,dig", "--replicas", "2", "--iters", "60",
                 "--window", "20", "--m", "4", "--threads", "2", "--out-dir", str(out)]) == EXIT_IO
    names = [p.name for p in out.iterdir()]
    assert "psm_dig_00.csv" not in names and "psm_ssg_00.csv" in names
    assert not [name for name in names if name.startswith(".") or name.endswith(".tmp")]


@pytest.mark.parametrize("flags", [["--n", "40", "--k-fit", "1", "--m", "4"],
                                   ["--n", "5", "--k-fit", "8", "--m", "5"]], ids=["K=1", "K>n"])
def test_command_edge_cases(tmp_path, flags):
    out = tmp_path / "run"
    assert main([*flags, "--iters", "80", "--window", "20", "--replicas", "2", "--snapshot-every", "5",
                 "--threads", "1", "--out-dir", str(out)]) == EXIT_OK
    n = int(flags[1])
    for method in ("ssg", "rsg", "dig"):
        psm = np.loadtxt(out / f"psm_{method}_00.csv", delimiter=",", ndmin=2)
        assert psm.shape == (n, n) and np.all(np.diag(psm) == 1.0) and np.array_equal(psm, psm.T)
        if flags[3] == "1":
            assert np.all(psm == 1.0)
