"""The benchmark's workloads: inputs, one round of operations, and metrics.

A round is a fixed list of operations (one chain, or one command
invocation), and every round repeats it with the same inputs, so a fixed seed
gives the same chains in every round and in every run.  The first round's
outputs are checked against independent recomputations; later rounds check
that they repeat the first round bit for bit, plus the cheap properties.
"""

from __future__ import annotations

import functools
import json
import os
import pickle
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
from tracing import Tracer, timed_call

from digmix import cli, diagnostics, samplers
from digmix.datagen import gen_miller_harrison, standardize
from digmix.model import VARIANCE_FLOOR, complete_log_likelihood, empirical_bayes_hyperparams, refresh_responsibilities
from digmix.samplers import DIG, RSG, SSG, SamplerConfig

METHODS = (SSG, RSG, DIG)
LAMBDA = SamplerConfig().Lambda
OUT_ROOT = Path(__file__).resolve().parent / ".out"


def chain_seed(seed: int, replica: int) -> int:
    return 1000 * seed + replica


def median(values) -> float:
    return float(statistics.median(list(values)))


def chain_metrics(rounds) -> dict:
    """``<m>_sample_us`` and ``<m>_iter_us``: the method's total time over its total iterations.

    A total, not a median over chains: the host switches between a fast and a
    slow state for seconds at a time, and a median over chains jumps with the
    state most chains ran in, where a total moves with the share of time spent
    in each.
    """
    out = {}
    for method in METHODS:
        mine = [c for r in rounds for c in r.chains if c.method == method]
        key = method.lower()
        iters = sum(c.T for c in mine)
        out[f"{key}_sample_us"] = (sum(c.sample_ns for c in mine) / iters / 1e3, "us")
        out[f"{key}_iter_us"] = (sum(c.call_ns for c in mine) / iters / 1e3, "us")
    return out


def sampler_layer_metrics(chains) -> dict:
    """Busy time per wrapped call, per iteration, median over the method's traced chains."""
    out = {}
    for method in METHODS:
        key = method.lower()
        mine = [c for c in chains if c.method == method]
        for name in sorted({k for c in mine for k in c.busy_ns}):
            out[f"{name}_us"] = (median(c.busy_ns.get(name, 0) / c.T / 1e3 for c in mine), "us")
        out[f"{key}.samplers.self_us"] = (
            median((c.call_ns - sum(c.busy_ns.values())) / c.T / 1e3 for c in mine), "us")
        out[f"{key}.samplers.timed_fraction"] = (median(c.sample_ns / c.call_ns for c in mine), "ratio")
        out[f"{key}.samplers.draws_per_iter"] = (mine[0].draws / mine[0].T, "count")
        out[f"{key}.samplers.trace_mb"] = (median(c.trace_bytes / 1e6 for c in mine), "MB")
    dig = [c for c in chains if c.method == DIG]
    out["dig.adaptation.lambda_solves"] = (dig[0].calls.get("dig.adaptation.lambda_solves", 0), "count")
    return out


@dataclass
class Inputs:
    dataset: object = None
    prior: object = None
    inputs_ms: float = 0.0


@dataclass
class Chain:
    """Figures of one chain run; the trace itself is not kept past its round."""

    method: str
    replica: int
    T: int
    call_ns: int
    sample_ns: int
    draws: int
    t2c_iteration: int | None = None
    t2c_seconds: float | None = None
    busy_ns: dict = field(default_factory=dict)
    calls: dict = field(default_factory=dict)
    trace_bytes: int = 0


@dataclass
class Round:
    run_ns: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    chains: list = field(default_factory=list)
    layer: dict = field(default_factory=dict)
    out_bytes: int = 0


class ChainWorkload:
    """Library runs: replicas of all three methods, interleaved replica by replica."""

    n = d = K = m = T = replicas = warm_T = 0
    snapshot_every = 10

    def __init__(self, seed: int):
        self.seed = seed
        self.first_cll = {}          # (method, replica) -> first round's CLL trace

    def setup(self) -> Inputs:
        t0 = time.perf_counter_ns()
        dataset, _ = standardize(gen_miller_harrison(self.n, self.d, np.random.default_rng(self.seed)))
        prior = empirical_bayes_hyperparams(dataset, self.K)
        self.inputs_ms = (time.perf_counter_ns() - t0) / 1e6
        return Inputs(dataset, prior, self.inputs_ms)

    def config(self, method: str, replica: int, T: int) -> SamplerConfig:
        return SamplerConfig(method=method, T=T, m=None if method == SSG else self.m,
                             seed=chain_seed(self.seed, replica),
                             snapshot_every=self.snapshot_every, cll_mode="running")

    def warm(self, inputs: Inputs):
        """One short chain per method, so that timed chains find warm caches."""
        for method in METHODS:
            samplers.run_chain(inputs.dataset, self.K, inputs.prior, self.config(method, 0, self.warm_T))

    def run_chains(self, inputs: Inputs, tracer) -> tuple[Round, list]:
        rnd, traces = Round(), []
        traced = isinstance(tracer, Tracer)
        if traced:
            tracer.wrap_samplers()
        try:
            for rep in range(self.replicas):
                for method in METHODS:
                    label = method.lower()
                    tracer.label = label
                    tracer.reset()
                    trace, ns = timed_call(samplers.run_chain, inputs.dataset, self.K, inputs.prior,
                                           self.config(method, rep, self.T))
                    tracer.label = ""
                    rnd.run_ns += ns
                    ch = Chain(method, rep, self.T, ns, int(trace.wall_clock_ns[-1]), trace.allocation_draws,
                               trace_bytes=len(pickle.dumps(trace)))
                    if traced:
                        ch.busy_ns = {k: v for k, v in tracer.busy_ns.items() if k.startswith(label + ".")}
                        ch.calls = dict(tracer.calls)
                    rnd.out_bytes += ch.trace_bytes
                    rnd.chains.append(ch)
                    traces.append(trace)
        finally:
            tracer.close()
        return rnd, traces

    def score_ari(self, inputs: Inputs, rnd: Round, traces) -> dict:
        ari = {}
        for ch, trace in zip(rnd.chains, traces):
            value, ns = timed_call(diagnostics.adjusted_rand_index, trace.final_state.z, inputs.dataset.labels)
            rnd.run_ns += ns
            ari[ch.method, ch.replica] = value
        return ari

    def check_chains(self, inputs: Inputs, rnd: Round, traces, ari: dict):
        """Count every chain as an operation; it fails if any of its checks does."""
        initial = {}
        for ch, trace in zip(rnd.chains, traces):
            problems = checks.check_chain(trace, ch.method, self.n, self.K, VARIANCE_FLOOR, LAMBDA)
            initial.setdefault(ch.replica, trace.initial_state)
            problems += checks.same_initial_state(initial[ch.replica], trace.initial_state)
            problems += self.extra_checks(ch, trace)
            key = (ch.method, ch.replica)
            if key in self.first_cll:
                if not np.array_equal(self.first_cll[key], trace.cll):
                    problems.append("chain differs from the first round's with the same seed")
            else:
                self.first_cll[key] = trace.cll
                problems += checks.check_ari(ari[key], trace.final_state.z, inputs.dataset.labels)
                problems += self.first_round_checks(inputs, ch, trace)
            rnd.attempted += 1
            if problems:
                rnd.failed += 1
                rnd.problems += [f"{ch.method} replica {ch.replica}: {p}" for p in problems]

    def extra_checks(self, ch: Chain, trace) -> list[str]:
        return []

    def first_round_checks(self, inputs: Inputs, ch: Chain, trace) -> list[str]:
        return []

    def metrics(self, rounds) -> dict:
        """End-to-end figures; ``out_mb`` is the pickled traces one round returns."""
        out = chain_metrics(rounds)
        out["out_mb"] = (median(r.out_bytes / 1e6 for r in rounds), "MB")
        return out

    def layer_metrics(self, traced, plain) -> tuple[dict, dict]:
        """(per-layer metrics, details): the details are figures of this workload only."""
        out = sampler_layer_metrics([c for r in traced for c in r.chains])
        out["datagen.inputs_ms"] = (self.inputs_ms, "ms")
        details = {name: (median(r.layer[name] for r in traced), name.rsplit("_", 1)[1])
                   for name in sorted({k for r in traced for k in r.layer})}
        return out, details


class Paper(ChainWorkload):
    """Criterion 2's setting: n=1000, d=2, K=3, m=10, t2c window 200, running CLL."""

    name = "paper"
    n, d, K, m = 1000, 2, 3, 10
    T = 1000
    replicas = 8
    tail = 500
    window = 200
    warm_T = 200
    snapshot_every = 0

    def round(self, inputs: Inputs, tracer) -> Round:
        rnd, traces = self.run_chains(inputs, tracer)
        ssg = [tr for ch, tr in zip(rnd.chains, traces) if ch.method == SSG]
        self.reference, ns = timed_call(diagnostics.ssg_reference, ssg, tail=self.tail)
        rnd.run_ns += ns
        rnd.layer["diagnostics.reference_ms"] = ns / 1e6
        t2c_ns = 0
        for ch, trace in zip(rnd.chains, traces):
            rep, ns = timed_call(diagnostics.time_to_converge, trace, self.reference, window=self.window)
            t2c_ns += ns
            ch.t2c_iteration, ch.t2c_seconds = rep.t2c_iteration, rep.t2c_seconds
        rnd.run_ns += t2c_ns
        rnd.layer["diagnostics.t2c_ms"] = t2c_ns / 1e6 / len(rnd.chains)
        self.ssg_clls = [tr.cll for tr in ssg]
        self.check_chains(inputs, rnd, traces, self.score_ari(inputs, rnd, traces))
        return rnd

    def extra_checks(self, ch: Chain, trace) -> list[str]:
        return checks.check_t2c_seconds(trace.wall_clock_ns, ch.t2c_iteration, ch.t2c_seconds)

    def first_round_checks(self, inputs: Inputs, ch: Chain, trace) -> list[str]:
        problems = checks.check_t2c_iteration(trace.cll, self.window, self.reference, ch.t2c_iteration)
        if ch.method == SSG and ch.replica == 0:
            problems += checks.check_reference(self.ssg_clls, self.tail, self.reference)
        return problems

    def metrics(self, rounds) -> dict:
        censored = {m: sum(c.t2c_iteration is None for c in rounds[0].chains if c.method == m) for m in METHODS}
        print(f"paper: chains censored at T={self.T} (of {self.replicas}): {censored}; "
              f"t2c {self.t2c_metrics(rounds)}", file=sys.stderr)
        return super().metrics(rounds)

    def layer_metrics(self, traced, plain) -> tuple[dict, dict]:
        out, details = super().layer_metrics(traced, plain)
        details.update(self.t2c_metrics(plain))
        return out, details

    def t2c_metrics(self, rounds) -> dict:
        """Time to convergence, median over replicas, from untraced rounds.

        Median, not mean: chains whose labels switch make the mean swing by a
        quarter or more from one workload seed to the next.
        """
        out = {}
        for method in (SSG, DIG):
            key = method.lower()
            its, secs = [], []
            for rep in range(self.replicas):
                mine = [c for r in rounds for c in r.chains if c.method == method and c.replica == rep]
                it = mine[0].t2c_iteration
                # A censored chain is scored at the horizon, as the command's summary does.
                its.append(self.T if it is None else it)
                secs.append(median(c.sample_ns / 1e9 if it is None else c.t2c_seconds for c in mine))
            per_iter = self.n if method == SSG else self.m
            out[f"{key}_t2c_s"] = (median(secs), "s")
            out[f"{key}_t2c_epochs"] = (median(its) * per_iter / self.n, "epochs")
        return out


class LargeN(ChainWorkload):
    """The heaviest ROADMAP grid cell: n=1e5, d=10, K=20, m=default_m(n)."""

    name = "large-n"
    n, d, K = 100_000, 10, 20
    m = cli.default_m(100_000)
    T = 20
    replicas = 1
    warm_T = 3

    def round(self, inputs: Inputs, tracer) -> Round:
        rnd, traces = self.run_chains(inputs, tracer)
        self.check_chains(inputs, rnd, traces, self.score_ari(inputs, rnd, traces))
        return rnd

    def first_round_checks(self, inputs: Inputs, ch: Chain, trace) -> list[str]:
        ds, st = inputs.dataset, trace.final_state
        return checks.check_final_likelihood(ds.x, st, complete_log_likelihood(ds, st),
                                             refresh_responsibilities(ds, st).p)


class CliOutputs:
    """The digmix command with an argument list; every file it writes is checked."""

    name = "cli-outputs"
    n, d, K = 1500, 2, 3
    replicas = 2
    iters = 600
    window = 200
    methods = ("ssg", "rsg", "dig")

    def __init__(self, seed: int):
        self.seed = seed
        self.psm_digest = None

    def setup(self) -> Inputs:
        return Inputs()

    def warm(self, inputs: Inputs):
        """One untimed, unchecked invocation: the first one in a process runs slow."""
        out = OUT_ROOT / f"{self.name}-{os.getpid()}-warm"
        try:
            cli.main(self.argv(out))
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def argv(self, out: Path) -> list[str]:
        return ["--data", "miller", "--n", str(self.n), "--d", str(self.d), "--k-fit", str(self.K),
                "--methods", ",".join(self.methods), "--replicas", str(self.replicas),
                "--iters", str(self.iters), "--window", str(self.window),
                "--seed", str(chain_seed(self.seed, 0)), "--data-seed", str(self.seed),
                "--out-dir", str(out)]

    def round(self, inputs: Inputs, tracer) -> Round:
        out = OUT_ROOT / f"{self.name}-{os.getpid()}"
        shutil.rmtree(out, ignore_errors=True)
        traced = isinstance(tracer, Tracer)
        jobs = JobLog(out.parent / f"{out.name}.chains", tracer if traced else None)
        spans = CliSpans(tracer) if traced else None
        try:
            code, ns = timed_call(cli.main, self.argv(out))
        finally:
            if spans is not None:
                spans.close()
            jobs.close()
        rnd = Round(run_ns=ns, attempted=1)
        try:
            rnd.chains = jobs.read()
            rnd.out_bytes = sum(p.stat().st_size for p in out.iterdir())
            if spans is not None:
                rnd.layer = spans.figures(out)
            problems = [f"exit code {code}"] if code != 0 else self.check(out, rnd.chains)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problems = [f"outputs missing or unparsable: {exc}"]
        finally:
            shutil.rmtree(out, ignore_errors=True)
            jobs.remove()
        if problems:
            rnd.failed = 1
            rnd.problems = problems
        return rnd

    def check(self, out: Path, chains) -> list[str]:
        m = cli.default_m(self.n)
        first = self.psm_digest is None
        problems = checks.check_cli_outputs(out, self.methods, self.replicas, self.iters,
                                            self.window, self.n, m, check_psm=first)
        if sorted(c.method.lower() for c in chains) != sorted(self.methods * self.replicas):
            problems.append(f"chain log holds {sorted(c.method for c in chains)}")
        for c in chains:
            if c.T != self.iters or c.draws != self.iters * (self.n if c.method == SSG else m):
                problems.append(f"{c.method}: T={c.T}, allocation_draws={c.draws}")
        digest = checks.file_digest(sorted(out.glob("psm_*.csv")))
        if first:
            self.psm_digest = digest
        elif digest != self.psm_digest:
            problems.append("PSM files differ from the first round's with the same seed")
        return problems

    def metrics(self, rounds) -> dict:
        out = chain_metrics(rounds)
        out["out_mb"] = (median(r.out_bytes / 1e6 for r in rounds), "MB")
        return out

    def layer_metrics(self, traced, plain) -> tuple[dict, dict]:
        out = sampler_layer_metrics([c for r in traced for c in r.chains])
        details = {name: (median(r.layer[name] for r in traced), UNITS[name.rsplit("_", 1)[1]])
                   for name in sorted(traced[0].layer)}
        out["datagen.inputs_ms"] = details.pop("datagen.inputs_ms")
        return out, details


UNITS = {"s": "s", "ms": "ms", "mb": "MB"}


class JobLog:
    """Times each chain of the command from outside, in the pool worker that runs it.

    Wraps ``cli._run_job``; the pool pickles it by name and the forked workers
    find the wrapper there.  Each call appends one JSON line (method, T, call
    and sampling ns, allocation draws and, when traced, the busy time and
    call counts the sampler wrappers took in that worker) to ``path``, since a
    worker's counters die with it.
    """

    def __init__(self, path: Path, tracer: Tracer | None):
        self.path = path
        path.parent.mkdir(parents=True, exist_ok=True)
        path.unlink(missing_ok=True)
        self.orig = orig = cli._run_job

        @functools.wraps(orig)
        def job(args):
            config = args[3]
            if tracer is not None:
                tracer.label = config.method.lower()
                busy0, calls0 = dict(tracer.busy_ns), dict(tracer.calls)
            t0 = time.perf_counter_ns()
            trace = orig(args)
            row = {"method": trace.method, "T": trace.T, "call_ns": time.perf_counter_ns() - t0,
                   "sample_ns": int(trace.wall_clock_ns[-1]), "draws": trace.allocation_draws}
            if tracer is not None:
                tracer.label = ""
                row["busy"] = {k: v - busy0.get(k, 0) for k, v in tracer.busy_ns.items()
                               if k.startswith(config.method.lower() + ".")}
                row["calls"] = {k: v - calls0.get(k, 0) for k, v in tracer.calls.items()}
                row["trace_bytes"] = len(pickle.dumps(trace))
            with open(path, "a") as fh:
                fh.write(json.dumps(row) + "\n")
            return trace

        cli._run_job = job

    def close(self):
        cli._run_job = self.orig

    def read(self) -> list[Chain]:
        rows = [json.loads(line) for line in self.path.read_text().splitlines()]
        return [Chain(r["method"], i, r["T"], r["call_ns"], r["sample_ns"], r["draws"],
                      busy_ns=r.get("busy", {}), calls=r.get("calls", {}),
                      trace_bytes=r.get("trace_bytes", 0)) for i, r in enumerate(rows)]

    def remove(self):
        self.path.unlink(missing_ok=True)


class CliSpans:
    """Spans around the command's steps, told apart from outside.

    The parent process writes every file after the last chain returns, so the
    chain phase ends at the first post-chain call, the initial-state digest.
    The sampler wrappers are installed here too, before the command forks its
    pool, so that the workers inherit them (see :class:`JobLog`).
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.traces = []
        self.t_chains_end = None
        tracer.reset()
        tracer.label = ""
        tracer.wrap_samplers()
        tracer.wrap(cli, "build_dataset", "datagen.inputs")
        tracer.wrap(cli, "_state_digest", "cli.digest", on_call=self._chains_done)
        tracer.wrap(cli, "posterior_similarity_matrix", "cli.psm")
        for writer in ("_write_trace", "_write_kv", "_write_matrix"):
            tracer.wrap(cli, writer, "cli.write")
        tracer.wrap(cli, "summarize_method", "cli.summary",
                    on_call=lambda method, traces, *a, **k: self.traces.extend(traces))
        self.t_start = time.perf_counter_ns()

    def _chains_done(self, *args):
        if self.t_chains_end is None:
            self.t_chains_end = time.perf_counter_ns()

    def close(self):
        self.tracer.close()

    def figures(self, out: Path) -> dict:
        busy = self.tracer.busy_ns
        return {
            "datagen.inputs_ms": busy["datagen.inputs"] / 1e6,
            "cli.chains_s": (self.t_chains_end - self.t_start - busy["datagen.inputs"]) / 1e9,
            "cli.psm_s": busy["cli.psm"] / 1e9,
            "cli.write_s": busy["cli.write"] / 1e9,
            "cli.summary_ms": busy["cli.summary"] / 1e6,
            "cli.trace_mb": sum(len(pickle.dumps(tr)) for tr in self.traces) / 1e6,
            "cli.psm_mb": sum(p.stat().st_size for p in out.glob("psm_*.csv")) / 1e6,
        }


WORKLOADS = {w.name: w for w in (Paper, LargeN, CliOutputs)}
