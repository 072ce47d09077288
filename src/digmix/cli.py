"""Experiment driver: replicated chains, trace/summary serialization, CLI.

The orchestrator runs each requested method over R replicas with chain seeds
base_seed + replica_index (the same seed set for every method, so the
initialization block is identical across methods), then writes:

  - one trace CSV per method x replica (iter, wall_ns, cll, lambda, ess,
    g_weight, occupied),
  - one flat key,value summary file per method,
  - the posterior similarity matrix of each method's first replica,
  - the selection-weight convergence-gap series for the adaptive method
    (when a systematic-scan reference chain is available).

All files are written by the main process; workers only sample.  Each file is
written to a temporary name in the output directory and renamed into place,
so a failed write leaves neither a partial file nor the temporary behind.
Only replica 0 of each method takes snapshots: nothing reads those of the others.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .datagen import (
    CsvError,
    gen_miller_harrison,
    gen_misspec4,
    gen_motivating5,
    load_csv,
    standardize,
)
from .diagnostics import (
    adjusted_rand_index,
    alpha_limit_check,
    epochs,
    mode_allocation,
    posterior_similarity_matrix,
    ssg_reference,
    time_to_converge,
)
from .model import Dataset, empirical_bayes_hyperparams
from .samplers import DIG, RSG, SSG, ChainTrace, SamplerConfig, run_chain

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NUMERIC = 4

ENV_PREFIX = "DIGMIX_"

_FAMILIES = ("miller", "motivating5", "misspec4", "csv")
_METHOD_NAMES = {"ssg": SSG, "rsg": RSG, "dig": DIG}

# Synthetic families fitted on the standardized scale by default; the
# misspecified family is fitted raw because its cluster geometry (a 0.01-weight
# satellite component far from the bulk) is the point of the experiment and
# standardization would distort the reported likelihood scale.
_STANDARDIZE_DEFAULT = {"miller": True, "motivating5": True, "misspec4": False, "csv": False}

# Components of each generated family: the default --k-fit, and the least n
# its generator accepts.
_GENERATING_K = {"miller": 3, "motivating5": 5, "misspec4": 4}

# Cells per block of PSM rows turned into text at a time.
_WRITE_BLOCK_CELLS = 1 << 16


class UsageError(ValueError):
    """An invalid flag value that shows only once the data are loaded."""


def default_m(n: int) -> int:
    """Per-iteration update count: 1% of n up to 1000, 2% to 5000, 3% beyond."""
    if n < 1:
        raise ValueError("need n >= 1")
    if n <= 1000:
        return max(1, round(0.01 * n))
    if n <= 5000:
        return round(0.02 * n)
    return round(0.03 * n)


@dataclass
class ExperimentSpec:
    """Everything needed to run one experiment end to end."""

    data: str = "miller"
    csv_path: str | None = None
    label_col: str | int | None = None
    n: int = 1000
    d: int = 2
    k_fit: int | None = None
    methods: list[str] = field(default_factory=lambda: [SSG, RSG, DIG])
    replicas: int = 20
    iters: int = 5000
    m: int | None = None
    lambda_max: float = 100.0
    tanh_a: float = 1.0
    seed: int = 0
    data_seed: int | None = None
    window: int = 1000
    snapshot_every: int = 10
    out_dir: str = "out"
    threads: int | None = None
    standardize: bool | None = None   # None: family default
    cll_mode: str = "running"

    def validate(self):
        if self.data not in _FAMILIES:
            raise ValueError(f"unknown data family: {self.data}")
        if self.data == "csv" and not self.csv_path:
            raise ValueError("--data csv requires --csv-path")
        if not self.methods:
            raise ValueError("need at least one method")
        for meth in self.methods:
            if meth not in (SSG, RSG, DIG):
                raise ValueError(f"unknown method: {meth}")
        if self.replicas < 1:
            raise ValueError("need --replicas >= 1")
        if self.iters < 1:
            raise ValueError("need --iters >= 1")
        if self.k_fit is not None and self.k_fit < 1:
            raise ValueError("need --k-fit >= 1")
        if self.window < 2:
            raise ValueError("need --window >= 2")
        if self.window > self.iters:
            raise ValueError(f"--window ({self.window}) must not exceed --iters ({self.iters})")
        if self.data != "csv":
            if self.n < _GENERATING_K[self.data]:
                raise ValueError(f"need --n >= {_GENERATING_K[self.data]} for --data {self.data}")
            self.check_m(self.n)
        if self.d < 1:
            raise ValueError("need --d >= 1")
        if self.snapshot_every < 0:
            raise ValueError("need --snapshot-every >= 0")
        if self.threads is not None and self.threads < 0:
            raise ValueError("need --threads >= 0")
        if self.lambda_max <= 1:
            raise ValueError("need --lambda-max > 1")
        if self.tanh_a <= 0:
            raise ValueError("need --tanh-a > 0")

    def check_m(self, n: int):
        """Reject an explicit --m outside [1, n] when RSG or DIG runs; SSG ignores it."""
        if self.m is not None and {RSG, DIG} & set(self.methods) and not 1 <= self.m <= n:
            raise UsageError(f"need 1 <= --m <= n = {n} for RSG and DIG, got --m {self.m}")


def build_dataset(spec: ExperimentSpec) -> Dataset:
    """Generate or load the observations, applying standardization per spec."""
    dseed = spec.seed if spec.data_seed is None else spec.data_seed
    rng = np.random.default_rng(dseed)
    if spec.data == "miller":
        dataset = gen_miller_harrison(spec.n, spec.d, rng)
    elif spec.data == "motivating5":
        dataset = gen_motivating5(spec.n, rng)
    elif spec.data == "misspec4":
        dataset = gen_misspec4(spec.n, rng)
    else:
        dataset = load_csv(spec.csv_path, label_column=spec.label_col)
    do_std = _STANDARDIZE_DEFAULT[spec.data] if spec.standardize is None else spec.standardize
    if do_std:
        dataset, _ = standardize(dataset)
    return dataset


def default_k_fit(spec: ExperimentSpec, dataset: Dataset) -> int:
    if spec.k_fit is not None:
        return spec.k_fit
    if spec.data in _GENERATING_K:
        return _GENERATING_K[spec.data]
    if dataset.labels is not None:
        return int(dataset.labels.max()) + 1
    raise ValueError("--k-fit is required for unlabeled CSV data")


def _state_digest(state) -> str:
    h = hashlib.sha256()
    for arr in (state.z, state.pi, state.mu, state.sigma2):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def _run_job(args):
    dataset, k_fit, prior, config = args
    return run_chain(dataset, k_fit, prior, config)


@contextmanager
def _atomic_open(path: Path):
    """Text file opened under a temporary name beside ``path``, renamed onto it on success."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _write_trace(path: Path, trace: ChainTrace):
    with _atomic_open(path) as fh:
        w = csv.writer(fh)
        w.writerow(["iter", "wall_ns", "cll", "lambda", "ess", "g_weight", "occupied"])
        for t in range(trace.T):
            w.writerow([
                int(trace.iteration[t]),
                int(trace.wall_clock_ns[t]),
                repr(float(trace.cll[t])),
                repr(float(trace.lam[t])),
                repr(float(trace.ess[t])),
                repr(float(trace.g_weight[t])),
                int(trace.occupied[t]),
            ])


def _write_kv(path: Path, items):
    with _atomic_open(path) as fh:
        w = csv.writer(fh)
        w.writerow(["key", "value"])
        for k, v in items:
            w.writerow([k, repr(v) if isinstance(v, float) else v])


def _write_matrix(path: Path, psm: np.ndarray, S: int):
    """Write a PSM of fractions k/S, byte for byte as ``np.savetxt(fmt="%.6g", delimiter=",")``.

    The matrix holds at most S + 1 distinct values, so each is formatted once
    and every row is joined from the cached strings, a block of rows at a time.
    (Gathering the strings through a numpy object array is faster, but it
    raised the command's peak resident memory by about 8 MB at n=1500.)
    """
    cells = ["%.6g" % (k / S) for k in range(S + 1)]
    rows = max(1, _WRITE_BLOCK_CELLS // psm.shape[1])
    with _atomic_open(path) as fh:
        for r0 in range(0, len(psm), rows):
            block = psm[r0:r0 + rows]
            codes = np.rint(block * S).astype(np.intp)
            if codes.min() < 0 or codes.max() > S or not np.array_equal(codes / S, block):
                raise ValueError(f"PSM rows {r0}..{r0 + len(block) - 1} hold a value that is not k/{S}")
            fh.write("".join(",".join([cells[c] for c in row]) + "\n" for row in codes.tolist()))


def summarize_method(
    method: str,
    traces: list[ChainTrace],
    dataset: Dataset,
    spec: ExperimentSpec,
    reference: tuple[float, float] | None,
):
    """Flat key/value summary of one method's replica set."""
    tail = min(spec.window, traces[0].T)
    tail_means = np.array([tr.cll[-tail:].mean() for tr in traces])
    occ_final = np.array([int(tr.occupied[-1]) for tr in traces])
    items = [
        ("method", method),
        ("n", dataset.n),
        ("d", dataset.d),
        ("replicas", len(traces)),
        ("iters", traces[0].T),
        ("m", traces[0].m),
        ("window", spec.window),
        ("cll_tail_mean", float(tail_means.mean())),
        ("cll_tail_sd", float(tail_means.std(ddof=1)) if len(traces) > 1 else 0.0),
        ("occupied_final_mode", int(np.bincount(occ_final).argmax())),
        ("occupied_final_mean", float(occ_final.mean())),
    ]
    if reference is not None:
        iters, secs, converged = [], [], 0
        for tr in traces:
            rep = time_to_converge(tr, reference, window=spec.window)
            if rep.t2c_iteration is None:
                # Censored at the horizon: scored at the full run length.
                iters.append(tr.T)
                secs.append(float(tr.wall_clock_ns[-1]) / 1e9)
            else:
                iters.append(rep.t2c_iteration)
                secs.append(rep.t2c_seconds)
                converged += 1
        iters = np.array(iters, dtype=float)
        secs = np.array(secs)
        eps = epochs(iters, dataset.n, traces[0].m)
        items += [
            ("t2c_converged", converged),
            ("t2c_iters_mean", float(iters.mean())),
            ("t2c_seconds_mean", float(secs.mean())),
            ("t2c_seconds_sd", float(secs.std(ddof=1)) if len(secs) > 1 else 0.0),
            ("t2c_epochs_mean", float(eps.mean())),
            ("t2c_epochs_sd", float(eps.std(ddof=1)) if len(eps) > 1 else 0.0),
            ("reference_cll_mean", float(reference[0])),
            ("reference_cll_var", float(reference[1])),
        ]
    if dataset.labels is not None:
        ari_final = np.array([adjusted_rand_index(tr.final_state.z, dataset.labels) for tr in traces])
        items += [
            ("ari_final_mean", float(ari_final.mean())),
            ("ari_final_sd", float(ari_final.std(ddof=1)) if len(traces) > 1 else 0.0),
        ]
        tr0 = traces[0]
        snaps = [tr0.snapshots[t] for t in sorted(tr0.snapshots) if t > tr0.T - spec.window]
        if snaps:
            items.append(("ari_mode_first_replica",
                          float(adjusted_rand_index(mode_allocation(snaps), dataset.labels))))
    return items


def run_experiment(spec: ExperimentSpec) -> int:
    """Run all method x replica chains and write artifacts; returns exit code contribution."""
    spec.validate()
    dataset = build_dataset(spec)
    spec.check_m(dataset.n)
    k_fit = default_k_fit(spec, dataset)
    prior = empirical_bayes_hyperparams(dataset, k_fit)
    m = spec.m if spec.m is not None else default_m(dataset.n)

    jobs = []
    keys = []
    for method in spec.methods:
        for rep in range(spec.replicas):
            config = SamplerConfig(
                method=method,
                T=spec.iters,
                m=None if method == SSG else m,
                Lambda=spec.lambda_max,
                tanh_a=spec.tanh_a,
                seed=spec.seed + rep,
                snapshot_every=spec.snapshot_every if rep == 0 else 0,
                cll_mode=spec.cll_mode,
                collect_discomfort_reference=(method == SSG and rep == 0),
            )
            jobs.append((dataset, k_fit, prior, config))
            keys.append((method, rep))

    workers = spec.threads if spec.threads else (os.cpu_count() or 1)
    if workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            traces = list(pool.map(_run_job, jobs))
    else:
        traces = [_run_job(j) for j in jobs]

    by_method: dict[str, list[ChainTrace]] = {meth: [] for meth in spec.methods}
    for (method, _), trace in zip(keys, traces):
        by_method[method].append(trace)

    # Same seed must give the same initialization block regardless of method.
    for rep in range(spec.replicas):
        digests = {_state_digest(by_method[meth][rep].initial_state) for meth in spec.methods}
        if len(digests) != 1:
            raise RuntimeError(f"initial state differs across methods for replica {rep}")

    out = Path(spec.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    reference = None
    if SSG in by_method and len(by_method[SSG]) >= 2:
        reference = ssg_reference(by_method[SSG], tail=min(spec.window, spec.iters))

    for method in spec.methods:
        for rep, trace in enumerate(by_method[method]):
            _write_trace(out / f"trace_{method.lower()}_{rep:02d}.csv", trace)
            for msg in trace.warnings:
                print(f"[{method} replica {rep}] warning: {msg}", file=sys.stderr)
        _write_kv(out / f"summary_{method.lower()}.csv",
                  summarize_method(method, by_method[method], dataset, spec, reference))
        tr0 = by_method[method][0]
        if tr0.snapshots:
            snaps = [tr0.snapshots[t] for t in sorted(tr0.snapshots)]
            _write_matrix(out / f"psm_{method.lower()}_00.csv", posterior_similarity_matrix(snaps),
                          len(snaps))

    if DIG in by_method and SSG in by_method:
        ssg0 = by_method[SSG][0]
        dig0 = by_method[DIG][0]
        if ssg0.discomfort_reference is not None and dig0.alpha_snapshots:
            gaps = alpha_limit_check(dig0, ssg0)
            with _atomic_open(out / "alpha_gap.csv") as fh:
                w = csv.writer(fh)
                w.writerow(["iter", "max_abs_gap"])
                for t in sorted(gaps):
                    w.writerow([t, repr(gaps[t])])
    return EXIT_OK


def _env_default(name: str, fallback, cast):
    raw = os.environ.get(ENV_PREFIX + name)
    if raw is None:
        return fallback
    return cast(raw)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="digmix",
        description="Run replicated Gibbs-sampler experiments on mixture benchmarks.",
    )
    a = p.add_argument
    a("--data", choices=_FAMILIES, default=_env_default("DATA", "miller", str))
    a("--csv-path", default=_env_default("CSV_PATH", None, str))
    a("--label-col", default=_env_default("LABEL_COL", None, str))
    a("--n", type=int, default=_env_default("N", 1000, int))
    a("--d", type=int, default=_env_default("D", 2, int))
    a("--k-fit", type=int, default=_env_default("K_FIT", None, int))
    a("--methods", default=_env_default("METHODS", "ssg,rsg,dig", str))
    a("--replicas", type=int, default=_env_default("REPLICAS", 20, int))
    a("--iters", type=int, default=_env_default("ITERS", 5000, int))
    a("--m", type=int, default=_env_default("M", None, int))
    a("--lambda-max", type=float, default=_env_default("LAMBDA_MAX", 100.0, float))
    a("--tanh-a", type=float, default=_env_default("TANH_A", 1.0, float))
    a("--seed", type=int, default=_env_default("SEED", 0, int))
    a("--data-seed", type=int, default=_env_default("DATA_SEED", None, int))
    a("--window", type=int, default=_env_default("WINDOW", 1000, int))
    a("--snapshot-every", type=int, default=_env_default("SNAPSHOT_EVERY", 10, int))
    a("--out-dir", default=_env_default("OUT_DIR", "out", str))
    a("--threads", type=int, default=_env_default("THREADS", None, int))
    a("--standardize", choices=["on", "off"], default=_env_default("STANDARDIZE", None, str))
    a("--cll-mode", choices=["running", "state"], default=_env_default("CLL_MODE", "running", str))
    return p


def spec_from_args(args: argparse.Namespace) -> ExperimentSpec:
    label_col: str | int | None = args.label_col
    if isinstance(label_col, str) and label_col.lstrip("-").isdigit():
        label_col = int(label_col)
    methods = []
    for name in str(args.methods).split(","):
        name = name.strip().lower()
        if not name:
            continue
        if name not in _METHOD_NAMES:
            raise ValueError(f"unknown method: {name}")
        methods.append(_METHOD_NAMES[name])
    return ExperimentSpec(
        data=args.data,
        csv_path=args.csv_path,
        label_col=label_col,
        n=args.n,
        d=args.d,
        k_fit=args.k_fit,
        methods=methods,
        replicas=args.replicas,
        iters=args.iters,
        m=args.m,
        lambda_max=args.lambda_max,
        tanh_a=args.tanh_a,
        seed=args.seed,
        data_seed=args.data_seed,
        window=args.window,
        snapshot_every=args.snapshot_every,
        out_dir=args.out_dir,
        threads=args.threads,
        standardize=None if args.standardize is None else args.standardize == "on",
        cll_mode=args.cll_mode,
    )


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        spec = spec_from_args(args)
        spec.validate()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return run_experiment(spec)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (FileNotFoundError, OSError, CsvError) as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, FloatingPointError, RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
