"""Per-layer timing from outside the program.

A :class:`Tracer` replaces module attributes with timing wrappers.  It wraps
the name a caller looks up, not the defining module's: ``run_chain`` calls
the ``log_density_matrix`` it imported into ``digmix.samplers``, so the
wrapper goes on ``digmix.samplers.log_density_matrix``.  Busy time and call
counts accumulate under ``<label>.<layer>.<what>`` keys, where the label is
set by the workload around each chain (``ssg``, ``rsg``, ``dig``) or is empty.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

# (module, attribute, metric suffix) for every call the samplers make into
# another layer.  ``count_only`` entries are nested inside a timed call and
# only counted, so self time never subtracts them twice.
SAMPLER_CALLS = [
    ("digmix.samplers", "log_density_matrix", "model.density"),
    ("digmix.samplers", "sample_allocations_rows", "model.alloc"),
    ("digmix.samplers", "sample_mixture_weights", "model.pi"),
    ("digmix.samplers", "sample_component_params", "model.params"),
    ("digmix.samplers", "complete_log_likelihood", "model.cll"),
    ("digmix.samplers", "MixtureState", "model.state"),
    ("digmix.samplers", "refresh_responsibilities", "model.refresh"),
    ("digmix.samplers", "lambda_schedule", "adaptation.lambda"),
    ("digmix.samplers", "ess", "adaptation.ess"),
    ("digmix.samplers", "weight_pair", "adaptation.weights"),
    ("digmix.samplers", "refresh_due", "adaptation.weights"),
    ("digmix.samplers", "sample_without_replacement", "samplers.select"),
]
COUNT_ONLY = [
    ("digmix.adaptation", "solve_lambda", "adaptation.lambda_solves"),
]


class Tracer:
    """Timing wrappers on module attributes, removed again by :meth:`close`."""

    def __init__(self):
        self.label = ""
        self.busy_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self._saved = []

    def key(self, what: str) -> str:
        return f"{self.label}.{what}" if self.label else what

    def wrap(self, module, attr: str, what: str, count_only: bool = False, on_call=None):
        orig = getattr(module, attr)
        tracer = self

        @functools.wraps(orig)
        def timed(*args, **kwargs):
            if on_call is not None:
                on_call(*args, **kwargs)
            key = tracer.key(what)
            tracer.calls[key] += 1
            if count_only:
                return orig(*args, **kwargs)
            t0 = time.perf_counter_ns()
            try:
                return orig(*args, **kwargs)
            finally:
                tracer.busy_ns[key] += time.perf_counter_ns() - t0

        setattr(module, attr, timed)
        self._saved.append((module, attr, orig))

    def wrap_samplers(self):
        for mod, attr, what in SAMPLER_CALLS:
            self.wrap(importlib.import_module(mod), attr, what)
        for mod, attr, what in COUNT_ONLY:
            self.wrap(importlib.import_module(mod), attr, what, count_only=True)

    def reset(self):
        self.busy_ns.clear()
        self.calls.clear()

    def close(self):
        while self._saved:
            module, attr, orig = self._saved.pop()
            setattr(module, attr, orig)


class NullTracer:
    """Stands in for a Tracer in untraced runs."""

    label = ""

    def reset(self):
        pass

    def close(self):
        pass


def timed_call(fn, *args, **kwargs):
    """(result, elapsed ns) of one call."""
    t0 = time.perf_counter_ns()
    out = fn(*args, **kwargs)
    return out, time.perf_counter_ns() - t0
