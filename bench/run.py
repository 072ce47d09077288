"""Benchmark of the digmix samplers, diagnostics and command.

    python3 bench/run.py --workload {paper,large-n,cli-outputs} --seed N \
        --seconds S --trace {0,1}

Runs whole rounds of the workload until their program time, checks not
counted, reaches ``--seconds``, checks every output, and prints one JSON
object as the last
line of standard output: ``correct``, ``attempted``, ``failed`` and
``metrics`` (every end-to-end metric of BENCHMARK.json with ``--trace 0``,
every per-layer one with ``--trace 1``).  Figures that only one workload has
(time to convergence, the command's phases) go to standard error as one JSON
line.  See README.md in this directory.
"""

from __future__ import annotations

import time

T_START = time.perf_counter_ns()

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path

# One thread per numeric library: a second OpenBLAS thread only adds noise on
# a small machine.  Set before numpy is first imported, here and in children.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for var in THREAD_VARS:
    os.environ[var] = "1"

# The package under test is the checkout's own source, never an installed copy.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "digmix").is_dir():
    sys.exit(f"no digmix package under {SRC}")
sys.path.insert(0, str(SRC))
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

SETUP_PROBES = 2


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="time imports and input building only, print the seconds and exit")
    return p.parse_args(argv)


def setup(args):
    """Imports plus the workload's inputs; returns (workload, inputs, seconds)."""
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed)
    inputs = workload.setup()
    return workload, inputs, (time.perf_counter_ns() - T_START) / 1e9


def setup_samples(args, first: float) -> list[float]:
    """This process's set-up time plus that of fresh interpreters doing the same."""
    samples = [first]
    cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed), "--setup-probe"]
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=120)
        samples.append(float(done.stdout.split()[-1]))
    return samples


def peak_rss_mb() -> float:
    """High-water resident memory of this process.

    Not its children: a pool worker's peak counts the parent pages resident
    when it was forked, which depends on timing (20 MB apart between runs of
    one seed), and its chain's own memory is measured in-process elsewhere.
    """
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_rounds(workload, inputs, seconds: float, tracers) -> list:
    """Whole rounds, cycling through ``tracers``, until their program time
    reaches ``seconds``; the last round may run past it.  Checks are not counted."""
    rounds = []
    measured = 0.0
    while True:
        tracer = tracers[len(rounds) % len(tracers)]
        rnd = workload.round(inputs, tracer)
        rounds.append((tracer, rnd))
        measured += rnd.run_ns / 1e9
        if len(rounds) >= len(tracers) and measured >= seconds:
            return rounds


def main(argv=None) -> int:
    args = parse_args(argv)
    workload, inputs, setup_s = setup(args)
    if args.setup_probe:
        print(setup_s)
        return 0

    from tracing import NullTracer, Tracer

    workload.warm(inputs)
    tracers = [NullTracer(), Tracer()] if args.trace else [NullTracer()]
    rounds = run_rounds(workload, inputs, args.seconds, tracers)
    rss = peak_rss_mb()

    plain = [r for t, r in rounds if isinstance(t, NullTracer)]
    traced = [r for t, r in rounds if not isinstance(t, NullTracer)]
    every = plain + traced
    problems = [p for r in every for p in r.problems]
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)

    if args.trace:
        metrics, details = workload.layer_metrics(traced, plain)
        untraced_s = statistics.median(r.run_ns for r in plain)
        traced_s = statistics.median(r.run_ns for r in traced)
        metrics["tracing.overhead_pct"] = (100.0 * (traced_s / untraced_s - 1.0), "%")
        wanted = SPEC["per_layer"]
        names = {m["name"] for m in wanted}
        details.update((k, v) for k, v in metrics.items() if k not in names)
        # The untraced rounds' end-to-end figures, to reconcile the layers against.
        details.update((f"untraced.{k}", v) for k, v in workload.metrics(plain).items())
        print(json.dumps({"details": {k: {"value": v, "unit": u} for k, (v, u) in details.items()}}),
              file=sys.stderr)
    else:
        metrics = {
            "setup_s": (statistics.median(setup_samples(args, setup_s)), "s"),
            "run_s": (statistics.fmean(r.run_ns / 1e9 for r in plain), "s"),
            "peak_rss_mb": (rss, "MB"),
        }
        metrics.update(workload.metrics(plain))
        wanted = SPEC["end_to_end"]

    missing = [m["name"] for m in wanted if metrics.get(m["name"], (0, ""))[1] != m["unit"]]
    if missing:
        sys.exit(f"{args.workload}: no figure in the manifest's unit for {missing}")

    result = {
        "correct": not problems,
        "attempted": sum(r.attempted for r in every),
        "failed": sum(r.failed for r in every),
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
