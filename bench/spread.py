"""Spread of benchmark results over seeds, and the drift between two sets.

    python3 bench/spread.py SET_A.jsonl [SET_B.jsonl]

Each file holds one result line of ``bench/run.py`` per run (one workload).
For every metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them), the spread (distance
between the quartiles over the median) against the metric's bound in
BENCHMARK.json, and with a second set the change of median from the first.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: m.get("bound") for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def load(path: str) -> list[dict]:
    return [json.loads(line) for line in Path(path).read_text().splitlines() if line.strip()]


def summary(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        out[name] = (med, q1, q3, (q3 - q1) / med)
    return out


def main(argv: list[str]) -> int:
    sets = [load(p) for p in argv]
    for runs in sets:
        failed = {(r["failed"], r["attempted"]) for r in runs}
        print(f"{len(runs)} runs; all correct: {all(r['correct'] for r in runs)}; (failed, attempted): {sorted(failed)}")
    first = summary(sets[0])
    second = summary(sets[1]) if len(sets) > 1 else {}
    print(f"{'metric':24} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}"
          + (f" {'median2':>12} {'spread2':>7} {'drift':>7}" if second else ""))
    for name, (med, q1, q3, spread) in first.items():
        bound = BOUNDS.get(name)
        line = f"{name:24} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:7.3f} {bound if bound else '':>6}"
        if name in second:
            med2, _, _, spread2 = second[name]
            line += f" {med2:12.6g} {spread2:7.3f} {med2 / med - 1:+7.3f}"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
