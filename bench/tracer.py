"""In-memory span aggregation around the public functions of each layer.

The benchmark wraps the program's functions from the outside; nothing in
``src/`` knows about tracing. A span is one call of a wrapped function.
Spans are not kept one by one (the ``control`` workload makes hundreds of
thousands of them); each name keeps a count, total time, self time and a
log-bucket histogram of call durations from which p50/p99 are read.

Self time is a span's duration minus the part of it covered by child
spans, so summing self time over all names never counts an interval twice.
"""

from __future__ import annotations

import inspect
import math
import sys
import time
from dataclasses import dataclass, field

BUCKETS_PER_OCTAVE = 16
PERCENTILES = (99.9, 99.0, 90.0, 50.0)
MIN_BEYOND = 10


@dataclass
class SpanStats:
    count: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    hist: dict[int, int] = field(default_factory=dict)
    counters: dict[str, float] = field(default_factory=dict)

    def add(self, duration: float, child: float) -> None:
        self.count += 1
        self.total_s += duration
        self.self_s += duration - child
        b = bucket_of(duration)
        self.hist[b] = self.hist.get(b, 0) + 1


def bucket_of(duration: float) -> int:
    return math.floor(math.log2(max(duration, 1e-12)) * BUCKETS_PER_OCTAVE)


def hist_percentile(hist: dict[int, int], pct: float) -> float:
    """Percentile of a log-bucket histogram, interpolated inside its bucket.

    Returns 0.0 for an empty histogram.
    """
    n = sum(hist.values())
    if n == 0:
        return 0.0
    rank = pct / 100.0 * n
    seen = 0
    for b in sorted(hist):
        c = hist[b]
        if seen + c >= rank:
            frac = (rank - seen) / c
            return 2.0 ** ((b + frac) / BUCKETS_PER_OCTAVE)
        seen += c
    return 2.0 ** ((max(hist) + 1) / BUCKETS_PER_OCTAVE)


def merge_hists(*hists: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for h in hists:
        for b, c in h.items():
            out[b] = out.get(b, 0) + c
    return out


def tail_percentile(n: int) -> float | None:
    """Highest reported percentile with at least ten samples beyond it."""
    for pct in PERCENTILES:
        if n * (1000 - round(pct * 10)) >= MIN_BEYOND * 1000:
            return pct
    return None


class Tracer:
    """Collects spans for functions it wraps; one instance per traced run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[str, SpanStats] = {}
        self._children: list[float] = []

    def wrap(self, name: str, fn, on_call=None):
        """Return ``fn`` timed as span ``name``.

        ``on_call(stats, args, kwargs, result)`` may add counters after
        each call.
        """
        stats = self.stats.setdefault(name, SpanStats())
        children = self._children
        clock = self.clock

        def traced(*args, **kwargs):
            children.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - t0
                stats.add(duration, children.pop())
                if children:
                    children[-1] += duration
            if on_call is not None:
                on_call(stats, args, kwargs, result)
            return result

        return traced


def count_argument(param: str, signature: inspect.Signature):
    """``on_call`` hook adding the bound value of ``param`` as a counter."""

    def hook(stats, args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        stats.counters[param] = stats.counters.get(param, 0) + int(
            bound.arguments[param])

    return hook


def count_success(stats, args, kwargs, result) -> None:
    stats.counters["converged"] = (stats.counters.get("converged", 0)
                                   + int(bool(result.success)))


class _OptimizeProxy:
    """Stands in for ``scipy.optimize`` inside one module, so that only
    that module's ``minimize`` calls are timed."""

    def __init__(self, real, minimize):
        self._real = real
        self.minimize = minimize

    def __getattr__(self, name):
        return getattr(self._real, name)


# span name -> (defining module, attribute path, counter hook or parameter)
FUNCTION_SPANS = {
    "simulator.simulate_experiment": ("simulator", "simulate_experiment", None),
    "simulator.run_sequence": ("simulator", "run_sequence", None),
    "simulator.two_qubit_probe": ("simulator", "two_qubit_probe", None),
    "harness.append": ("harness", "ResultsStore.append", None),
    "harness.store_open": ("harness", "ResultsStore.__init__", None),
    "tomography.qst_mle": ("tomography", "qst_mle", None),
    "tomography.predict_batch": ("tomography", "predict_batch", None),
    "tomography.evaluate_split": ("tomography", "evaluate_split", None),
    "tomography.bootstrap_ci": ("tomography", "bootstrap_ci", "resamples"),
    "tomography.contract_fast": ("tomography", "contract_fast", None),
    "tomography.slot_coefficients": ("tomography", "slot_coefficients", None),
    "tomography.mle_project": ("tomography", "mle_project", None),
    "tomography.project_to_cptp": ("tomography", "project_to_cptp", None),
    "basis.build_duals": ("basis", "build_duals", None),
    "memory.cmi_value": ("memory", "cmi_value", None),
    "memory.bootstrap_cmi": ("memory", "bootstrap_cmi", "resamples"),
    "markov.estimate_step_channel": ("markov", "estimate_step_channel", None),
    "markov.characterize": ("markov", "characterize", None),
    "markov.compare_with_tensor": ("markov", "compare_with_tensor", None),
    "control.decoupling_objective": ("control", "decoupling_objective", None),
    "control.restoration_error": ("control", "restoration_error", None),
    "control.simulate_trajectory": ("control", "simulate_trajectory", None),
    "control.build_decoupling_tensor": ("control", "build_decoupling_tensor",
                                        None),
    "control.build_synthesis_tensor": ("control", "build_synthesis_tensor",
                                       None),
    "control.synthesis_loss": ("control", "synthesis_loss", None),
    "control.qpt": ("control", "qpt", None),
    "qcore.channel_init": ("qcore", "QuantumChannel.__post_init__", None),
}
# names patched only in the one module whose calls they should count
LOCAL_SPANS = {
    "qcore.check_unitary": ("simulator", "check_unitary"),
    "memory.minimize": ("memory", "optimize.minimize"),
    "control.minimize": ("control", "optimize.minimize"),
}


def install(tracer: Tracer, package: str = "proctensor") -> None:
    """Wrap every span target in the freshly imported ``package``.

    A function is replaced under every module-level name bound to it
    (``from .tomography import contract_fast`` in ``memory`` included), so
    calls are seen wherever the caller looks the name up. Methods are
    replaced on their class.
    """
    modules = {name[len(package) + 1:]: mod for name, mod in sys.modules.items()
               if name.startswith(package + ".") and mod is not None}
    for span, (mod_name, path, extra) in FUNCTION_SPANS.items():
        owner = modules[mod_name]
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, attr, tracer.wrap(span, getattr(cls, attr)))
            continue
        original = getattr(owner, path)
        hook = (None if extra is None
                else count_argument(extra, inspect.signature(original)))
        traced = tracer.wrap(span, original, hook)
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, traced)
    for span, (mod_name, path) in LOCAL_SPANS.items():
        owner = modules[mod_name]
        if path.startswith("optimize."):
            real = owner.optimize
            setattr(owner, "optimize", _OptimizeProxy(
                real, tracer.wrap(span, real.minimize, count_success)))
        else:
            setattr(owner, path, tracer.wrap(span, getattr(owner, path)))
