"""Tests of the benchmark itself: a tiny run of every workload with every
check, and one test per check showing that it catches a corrupted output.

Run with ``python -m pytest bench``.
"""

from __future__ import annotations

import copy
import io
import json
import shutil
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

import run  # noqa: F401  (pins threads and puts src/ on the path first)
import checks
import workloads
from tracing import NullTracer
from digmix import cli, diagnostics
from digmix.model import VARIANCE_FLOOR, complete_log_likelihood, refresh_responsibilities
from digmix.samplers import DIG, SSG

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}

TINY = {
    workloads.Paper: dict(n=90, T=120, replicas=3, tail=40, window=30, warm_T=5),
    workloads.LargeN: dict(n=1500, d=3, K=4, m=45, T=7, warm_T=2),
    workloads.CliOutputs: dict(n=150, iters=60, window=20),
}


@pytest.fixture
def tiny(monkeypatch):
    for cls, sizes in TINY.items():
        for name, value in sizes.items():
            monkeypatch.setattr(cls, name, value)
    monkeypatch.setattr(run, "setup_samples", lambda args, first: [first])


def bench(workload: str, trace: int, details: bool = False):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)]) == 0
    result = json.loads(out.getvalue().splitlines()[-1])
    if details:
        return result, json.loads(err.getvalue().splitlines()[-1])["details"]
    return result


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_every_workload(tiny, workload):
    out = bench(workload, 0)
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert set(out["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in out["metrics"].values())
    traced = bench(workload, 1)
    assert traced["correct"] and traced["failed"] == 0
    assert set(traced["metrics"]) == PER_LAYER
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    assert all(m["unit"] == units[k] for r in (out, traced) for k, m in r["metrics"].items())


def test_same_seed_repeats_counts_and_t2c(tiny):
    (a, a_details), (b, b_details) = bench("paper", 1, True), bench("paper", 1, True)
    for name in ("dig.adaptation.lambda_solves", "ssg.samplers.draws_per_iter", "dig.samplers.draws_per_iter"):
        assert a["metrics"][name]["value"] == b["metrics"][name]["value"]
    for name in ("ssg_t2c_epochs", "dig_t2c_epochs"):
        assert a_details[name]["value"] == b_details[name]["value"]
    assert a["attempted"] == b["attempted"]


def test_traced_cli_reports_its_phases(tiny):
    _, details = bench("cli-outputs", 1, True)
    assert {"cli.chains_s", "cli.psm_s", "cli.write_s", "cli.summary_ms", "cli.trace_mb",
            "cli.psm_mb"} <= set(details)


def test_wrong_t2c_counts_as_failed(tiny, monkeypatch):
    real = diagnostics.time_to_converge

    def off_by_one(trace, reference, window):
        rep = real(trace, reference, window=window)
        if rep.t2c_iteration is not None and rep.t2c_iteration < trace.T:
            rep.t2c_iteration += 1
            rep.t2c_seconds = float(trace.wall_clock_ns[rep.t2c_iteration - 1]) / 1e9
        return rep

    monkeypatch.setattr(workloads.diagnostics, "time_to_converge", off_by_one)
    out = bench("paper", 0)
    assert not out["correct"] and out["failed"] > 0


def test_dropped_trace_row_counts_as_failed(tiny, monkeypatch):
    real = cli._write_trace

    def drop_last(path, trace):
        real(path, trace)
        lines = Path(path).read_text().splitlines(keepends=True)
        Path(path).write_text("".join(lines[:-1]))

    monkeypatch.setattr(cli, "_write_trace", drop_last)
    out = bench("cli-outputs", 0)
    assert not out["correct"] and out["failed"] == out["attempted"]


# ------------------------------------------------------------ single checks

@pytest.fixture(scope="module")
def chains():
    w = workloads.LargeN(5)
    w.n, w.d, w.K, w.m, w.T = 300, 2, 3, 20, 40
    inputs = w.setup()
    rnd, traces = w.run_chains(inputs, NullTracer())
    return w, inputs, dict(zip((c.method for c in rnd.chains), traces))


def test_chain_checks_pass_on_real_chains(chains):
    w, inputs, traces = chains
    for method, tr in traces.items():
        assert checks.check_chain(tr, method, w.n, w.K, VARIANCE_FLOOR, 100.0) == []
        assert checks.same_initial_state(traces[SSG].initial_state, tr.initial_state) == []


@pytest.mark.parametrize("corrupt", [
    lambda tr: setattr(tr, "allocation_draws", tr.allocation_draws - 1),
    lambda tr: setattr(tr.final_state, "pi", tr.final_state.pi * 1.01),
    lambda tr: tr.final_state.sigma2.__setitem__((0, 0), VARIANCE_FLOOR / 2),
    lambda tr: tr.final_state.z.__setitem__(0, 3),
    lambda tr: tr.wall_clock_ns.__setitem__(5, tr.wall_clock_ns[4] - 1),
    lambda tr: tr.g_weight.__setitem__(-1, tr.g_weight[-1] * 1.001),
    lambda tr: tr.lam.__setitem__(0, 0.5),
], ids=["draws", "simplex", "floor", "range", "clock", "g_weight", "lambda"])
def test_chain_check_catches(chains, corrupt):
    w, _, traces = chains
    tr = copy.deepcopy(traces[DIG])
    tr.s = 5          # so that g_weight is checked over most of the short chain
    tr.g_weight[5:] = [1.0 / (t - 5 + 2) for t in range(6, tr.T + 1)]
    assert checks.check_chain(tr, DIG, w.n, w.K, VARIANCE_FLOOR, 100.0) == []
    corrupt(tr)
    assert checks.check_chain(tr, DIG, w.n, w.K, VARIANCE_FLOOR, 100.0)


def test_initial_state_check_catches(chains):
    _, _, traces = chains
    other = copy.deepcopy(traces[DIG].initial_state)
    other.mu[0, 0] += 1e-9
    assert checks.same_initial_state(traces[SSG].initial_state, other)


def test_ari_check(chains):
    _, inputs, traces = chains
    z = traces[SSG].final_state.z
    value = diagnostics.adjusted_rand_index(z, inputs.dataset.labels)
    assert checks.check_ari(value, z, inputs.dataset.labels) == []
    assert checks.check_ari(value + 1e-6, z, inputs.dataset.labels)


def test_final_likelihood_check(chains):
    _, inputs, traces = chains
    ds, st = inputs.dataset, traces[DIG].final_state
    cll, resp = complete_log_likelihood(ds, st), refresh_responsibilities(ds, st).p
    assert checks.check_final_likelihood(ds.x, st, cll, resp, chunk=128) == []
    assert checks.check_final_likelihood(ds.x, st, cll * (1 + 1e-8), resp, chunk=128)
    bad = resp.copy()
    bad[7] = bad[7][::-1]
    assert checks.check_final_likelihood(ds.x, st, cll, bad, chunk=128)


def test_t2c_checks(chains):
    _, _, traces = chains
    ssg = [traces[SSG], traces[SSG]]
    tr = traces[DIG]
    reference = diagnostics.ssg_reference([traces[SSG], traces[DIG]], tail=10)
    rep = diagnostics.time_to_converge(tr, reference, window=10)
    assert rep.t2c_iteration is not None
    assert checks.check_t2c_iteration(tr.cll, 10, reference, rep.t2c_iteration) == []
    assert checks.check_t2c_iteration(tr.cll, 10, reference, rep.t2c_iteration + 1)
    assert checks.check_t2c_iteration(tr.cll, 10, reference, None)
    assert checks.check_t2c_seconds(tr.wall_clock_ns, rep.t2c_iteration, rep.t2c_seconds) == []
    assert checks.check_t2c_seconds(tr.wall_clock_ns, rep.t2c_iteration, rep.t2c_seconds + 1e-9)
    mean, var = checks.reference_level([t.cll for t in ssg], 10)
    assert mean == pytest.approx(traces[SSG].cll[-10:].mean()) and var == 0.0
    assert checks.check_reference([t.cll for t in ssg], 10, (mean, var)) == []
    assert checks.check_reference([t.cll for t in ssg], 10, (mean * (1 + 1e-6), var))


@pytest.fixture(scope="module")
def cli_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "out"
    w = workloads.CliOutputs(4)
    w.n, w.iters, w.window = 150, 60, 20
    assert cli.main(w.argv(out)) == 0
    return w, out


def corrupt_copy(src: Path, dst: Path, name: str, edit) -> Path:
    shutil.copytree(src, dst)
    path = dst / name
    path.write_text(edit(path.read_text()))
    return dst


def test_cli_check_passes(cli_out):
    w, out = cli_out
    assert checks.check_cli_outputs(out, w.methods, w.replicas, w.iters, w.window, w.n, cli.default_m(w.n)) == []


def _psm_edit(fn):
    def edit(text):
        mat = np.loadtxt(io.StringIO(text), delimiter=",")
        fn(mat)
        buf = io.StringIO()
        np.savetxt(buf, mat, delimiter=",", fmt="%.6g")
        return buf.getvalue()
    return edit


@pytest.mark.parametrize("name,edit", [
    ("trace_dig_01.csv", lambda t: "".join(t.splitlines(keepends=True)[:-1])),
    ("summary_dig.csv", lambda t: t.replace("t2c_iters_mean,", "t2c_iters_mean,1")),
    ("summary_ssg.csv", lambda t: t.replace("t2c_converged,", "t2c_converged,1")),
    ("psm_rsg_00.csv", _psm_edit(lambda m: m.__setitem__((0, 1), m[0, 1] + 0.5 if m[0, 1] < 0.5 else 0.0))),
    ("psm_ssg_00.csv", _psm_edit(lambda m: m.__setitem__((2, 2), 0.9))),
    ("psm_dig_00.csv", _psm_edit(lambda m: m.__setitem__(([0, 1], [1, 0]), 1.2))),
], ids=["row-dropped", "t2c-mean", "t2c-count", "asymmetric", "diagonal", "range"])
def test_cli_check_catches(cli_out, tmp_path, name, edit):
    w, out = cli_out
    bad = corrupt_copy(out, tmp_path / "bad", name, edit)
    assert checks.check_cli_outputs(bad, w.methods, w.replicas, w.iters, w.window, w.n, cli.default_m(w.n))


def test_cli_missing_file_raises(cli_out, tmp_path):
    w, out = cli_out
    bad = tmp_path / "bad"
    shutil.copytree(out, bad)
    (bad / "summary_rsg.csv").unlink()
    with pytest.raises(FileNotFoundError):
        checks.check_cli_outputs(bad, w.methods, w.replicas, w.iters, w.window, w.n, cli.default_m(w.n))
