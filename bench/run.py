"""Benchmark of the proctensor pipeline, run through ``harness.run_plan``.

    python3 bench/run.py --workload grid --seed 0 --seconds 42 --trace 0

Each workload is a generated plan whose stages are run one ``run_plan``
call at a time, in canonical order, into a fresh store: the way
``proctensor run-plan --stage`` runs them. A run repeats that pipeline
(a *repetition*) until ``--seconds`` would be exceeded, each repetition
with its own plan seed ``seed * SEED_STRIDE + i``. Times are reported in
reference seconds (see ``host_probe``). Outputs are checked outside the
timed calls. The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` the run makes one untraced and one
traced repetition of the same plan seed and reports the per-layer metrics.
Everything runs in this one process; nothing under ``src/`` is modified.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = BENCH_DIR / "reference.json"

sys.path.insert(0, str(BENCH_DIR))
from tracer import SpanStats, Tracer, hist_percentile, install, \
    merge_hists, tail_percentile  # noqa: E402

FLOAT_TOL = 1e-9  # the golden-file tolerance of the test suite
SEED_STRIDE = 1000  # repetition i of --seed s runs plan seed s*SEED_STRIDE+i
SETUPS_PER_REP = 3  # extra set-ups per repetition, for the setup_s median
PROBE_LOOPS = 1500
PROBE_NOMINAL_S = 0.06  # host_probe() at the reference host speed
PROBE_MATRIX = np.array([[0.6, 0.8j], [0.8j, 0.6]])
# the full_survey physics shared by all workloads
PHYSICS = {"duration_ns": 2500.0, "env_init": "plus", "shots": 1600}


@dataclass(frozen=True)
class Workload:
    name: str
    pool_size: int
    basis_size: int
    resamples: int
    stages: tuple[str, ...]
    # value for harness.OPTIMIZER_RESTARTS; None keeps the program's own
    restarts: int | None = None

    def plan_doc(self, plan_seed: int) -> dict:
        return {"name": f"bench-{self.name}", **PHYSICS,
                "pool_size": self.pool_size, "basis_size": self.basis_size,
                "resamples": self.resamples, "master_seed": plan_seed,
                "pool_seed": plan_seed, "stages": list(self.stages)}


# Why these three: see bench/README.md. The optimiser stages run with one
# restart because the program's fixed 20 restarts and 11-point eta grid
# make one memory stage take 83 s and one synthesize stage 117 s, which no
# bounded run could repeat.
WORKLOADS = {
    "grid": Workload("grid", 28, 24, 10,
                     ("characterize", "evaluate", "markov")),
    "memory": Workload("memory", 14, 12, 10, ("characterize", "memory"),
                       restarts=1),
    "control": Workload("control", 14, 12, 10, ("decouple", "synthesize"),
                        restarts=1),
}

END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}
STAGES = ("characterize", "evaluate", "memory", "markov", "decouple",
          "synthesize")
QUALITY = {"eval_median_fidelity": "1", "memory_bits": "bits",
           "decouple_objective": "1", "synth_peak_fidelity": "1"}
# name -> unit, in the order BENCHMARK.json lists them
LAYER_METRICS = {
    "simulator.sequences": "count", "simulator.self_s": "s",
    "simulator.sequence_p50_us": "us", "simulator.sequence_p99_us": "us",
    "harness.appends": "count", "harness.append_self_s": "s",
    "harness.store_open_s": "s", "harness.records_bytes": "bytes",
    **{f"harness.{stage}_s": "s" for stage in STAGES},
    "harness.resume_s": "s",
    "tomography.qst_calls": "count", "tomography.qst_self_s": "s",
    "tomography.predict_calls": "count", "tomography.predict_self_s": "s",
    "tomography.evaluate_split_self_s": "s",
    "tomography.bootstrap_resamples": "count",
    "tomography.bootstrap_self_s": "s", "tomography.us_per_resample": "us",
    "tomography.contract_calls": "count", "tomography.contract_self_s": "s",
    "tomography.contract_p50_us": "us", "tomography.contract_p99_us": "us",
    "tomography.slot_coeff_calls": "count",
    "tomography.slot_coeff_self_s": "s",
    "tomography.mle_project_calls": "count",
    "tomography.mle_project_self_s": "s",
    "tomography.cptp_calls": "count", "tomography.cptp_self_s": "s",
    "basis.dual_builds": "count", "basis.dual_self_s": "s",
    "memory.cmi_evals": "count", "memory.cmi_self_s": "s",
    "memory.cmi_eval_p50_us": "us", "memory.cmi_eval_p99_us": "us",
    "memory.cmi_share": "1",
    "memory.bootstrap_resamples": "count", "memory.bootstrap_self_s": "s",
    "memory.optimizer_runs": "count", "memory.optimizer_converged": "1",
    "markov.channel_estimates": "count", "markov.characterize_self_s": "s",
    "markov.compare_self_s": "s",
    "control.decouple_evals": "count", "control.decouple_self_s": "s",
    "control.trajectory_self_s": "s", "control.tensor_build_self_s": "s",
    "control.synthesis_evals": "count", "control.synthesis_self_s": "s",
    "control.synthesis_eval_p50_us": "us",
    "control.synthesis_eval_p99_us": "us", "control.synthesis_share": "1",
    "control.qpt_calls": "count", "control.qpt_self_s": "s",
    "control.optimizer_runs": "count", "control.optimizer_converged": "1",
    "qcore.channels_built": "count", "qcore.unitary_checks": "count",
    **{f"quality.{name}": unit for name, unit in QUALITY.items()},
    "trace.overhead": "1",
}


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


# ---------------------------------------------------------------------------
# One repetition
# ---------------------------------------------------------------------------

@dataclass
class Rep:
    plan_seed: int
    setup_s: float = 0.0
    stage_s: dict[str, float] = field(default_factory=dict)
    stage_ref_s: dict[str, float] = field(default_factory=dict)
    resume_s: float = 0.0
    resume_ref_s: float = 0.0
    probes: list[float] = field(default_factory=list)
    wall_s: float = 0.0
    records_bytes: int = 0
    fingerprint: str = ""
    quality: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    @property
    def run_s(self) -> float:
        return sum(self.stage_s.values())

    @property
    def run_ref_s(self) -> float:
        return sum(self.stage_ref_s.values())


def host_probe() -> float:
    """Seconds for a fixed mix of small complex matrix products and Python
    loop overhead, the kind of work the program's kernels do.

    Host speed on a shared machine drifts by a quarter or more over tens of
    seconds, and a run sees one stretch of it. Dividing a call's time by the
    probe times around it, over ``PROBE_NOMINAL_S``, gives the time at a
    fixed reference speed.
    """
    a = PROBE_MATRIX
    t0 = time.perf_counter()
    for _ in range(PROBE_LOOPS):
        b = a @ a.conj().T
        np.kron(b, a)
        sum(range(16))
    return time.perf_counter() - t0


def timed(rep: Rep, call) -> tuple[object, Exception | None, float, float]:
    """Run ``call``; returns (result, error, seconds, reference seconds).

    The host is probed after the call; ``rep.probes[-1]`` must hold the
    probe taken before it.
    """
    t0 = time.perf_counter()
    try:
        result, error = call(), None
    except Exception as err:  # a raising call is a failed operation
        result, error = None, err
    seconds = time.perf_counter() - t0
    rep.probes.append(host_probe())
    speed = (rep.probes[-2] + rep.probes[-1]) / (2.0 * PROBE_NOMINAL_S)
    return result, error, seconds, seconds / speed


def set_up(wl: Workload, plan_seed: int, store_dir: Path,
           tracer: Tracer | None = None):
    """Fresh import of the package, validated plan, model, basis, store."""
    t0 = time.perf_counter()
    for name in [m for m in sys.modules
                 if m == "proctensor" or m.startswith("proctensor.")]:
        del sys.modules[name]
    harness = importlib.import_module("proctensor.harness")
    if wl.restarts is not None:
        if not hasattr(harness, "OPTIMIZER_RESTARTS"):
            raise BenchError("proctensor.harness.OPTIMIZER_RESTARTS is gone; "
                             "the optimiser workloads set it")
        harness.OPTIMIZER_RESTARTS = wl.restarts
    if tracer is not None:
        install(tracer)
    plan = harness.plan_from_dict(wl.plan_doc(plan_seed))
    plan.model()
    plan.basis()
    store = harness.ResultsStore(store_dir)
    return time.perf_counter() - t0, harness, plan, store


def expected_appends(stage: str, plan) -> int:
    return {"characterize": 12 * plan.pool_size ** 2,
            "evaluate": len(plan.eval_sizes()), "markov": 1, "memory": 3,
            "decouple": 1, "synthesize": 1}[stage]


def run_rep(wl: Workload, plan_seed: int, reference: dict,
            tracer: Tracer | None = None,
            expect_fingerprint: str | None = None) -> Rep:
    """Run the workload's stages and the resume once, then check them."""
    rep = Rep(plan_seed)
    store_dir = WORK / f"{wl.name}-{plan_seed}{'-traced' if tracer else ''}"
    shutil.rmtree(store_dir, ignore_errors=True)
    t_rep = time.perf_counter()
    rep.setup_s, harness, plan, store = set_up(wl, plan_seed, store_dir, tracer)
    ref = reference.get(wl.name, {}).get(str(plan_seed))
    rep.probes.append(host_probe())
    for stage in wl.stages:
        rep.attempted += 1
        counts, err, rep.stage_s[stage], rep.stage_ref_s[stage] = timed(
            rep, lambda: harness.run_plan(plan, store, stages=(stage,)))
        if err is not None:
            rep.failed += 1
            rep.notes.append(f"{stage} raised {type(err).__name__}: {err}")
            break
        want = expected_appends(stage, plan)
        problems = [] if counts == {**dict.fromkeys(counts, 0), stage: want} \
            else [f"appended {counts} records, expected {want}"]
        problems += check_stage(stage, store, plan, wl)
        if ref is not None:
            problems += compare_reference(stage, store, ref)
        if problems:
            rep.failed += 1
            rep.notes += [f"{stage}: {p}" for p in problems]
    else:
        rep.records_bytes = store.records_path.stat().st_size
        rep.fingerprint = store.payload_fingerprint()
        rep.quality = quality_of(store, plan)
        rep.attempted += 1
        counts, err, rep.resume_s, rep.resume_ref_s = timed(
            rep, lambda: harness.run_plan(plan, harness.ResultsStore(store_dir)))
        problems = [f"resume raised {type(err).__name__}: {err}"] if err else []
        if err is None and sum(counts.values()):
            problems.append(f"resume appended {counts}")
        if harness.ResultsStore(store_dir).payload_fingerprint() \
                != rep.fingerprint:
            problems.append("resume changed the store fingerprint")
        if expect_fingerprint is not None \
                and rep.fingerprint != expect_fingerprint:
            problems.append("traced store fingerprint differs from the "
                            "untraced one")
        if problems:
            rep.failed += 1
            rep.notes += problems
        if ref is not None:
            rep.notes.append("reference compared; fingerprint " + (
                "matches" if ref["fingerprint"] == rep.fingerprint
                else "differs"))
        else:
            rep.notes.append("reference not compared (plan seed not pinned)")
    shutil.rmtree(store_dir, ignore_errors=True)
    rep.wall_s = time.perf_counter() - t_rep
    return rep


# ---------------------------------------------------------------------------
# Correctness
# ---------------------------------------------------------------------------

def payloads(store, stage: str) -> list[dict]:
    return [doc["payload"] for doc in store.records(stage=stage)]


def check_stage(stage: str, store, plan, wl: Workload) -> list[str]:
    """Invariants that hold for every seed."""
    out = []
    rows = payloads(store, stage)
    pool = plan.pool_size
    if stage == "characterize":
        if len(rows) != 12 * pool ** 2:
            out.append(f"{len(rows)} experiment records")
        if any(sum(p["counts"]) != p["shots"] for p in rows):
            out.append("counts do not sum to shots")
    elif stage == "evaluate":
        if sorted(p["n"] for p in rows) != plan.eval_sizes():
            out.append("evaluation sizes differ from the plan's ladder")
        for p in rows:
            if not (0.0 < p["median"] <= 1.0 and p["ci_lo"] <= p["ci_hi"]
                    and p["count"] == 4 * (pool - p["n"]) ** 2):
                out.append(f"evaluation n={p['n']} out of range")
    elif stage == "markov":
        p = rows[0]
        if not all(0.0 < p[m]["median"] <= 1.0 and p[m]["count"] == 4 * pool ** 2
                   for m in ("tensor", "markov")):
            out.append("markov comparison out of range")
    elif stage == "memory":
        for p in rows:
            if not (0.0 <= p["bits"] <= 1.0 and p["ci_lo"] <= p["ci_hi"]):
                out.append(f"memory bound {p['placements']} out of range")
            if p["restarts"] != wl.restarts:
                out.append(f"ran {p['restarts']} restarts, set {wl.restarts}")
    elif stage == "decouple":
        p = rows[0]
        if not 0.0 <= p["objective"] <= p["identity_objective"] + 1e-6:
            out.append("decoupling objective worse than the identity gate")
        if p["restarts"] != wl.restarts:
            out.append(f"ran {p['restarts']} restarts, set {wl.restarts}")
    elif stage == "synthesize":
        points = rows[0]["points"]
        if len(points) != 11 or not all(
                q["loss"] >= 0.0 and -FLOAT_TOL <= q["process_fidelity"]
                <= 1.0 + FLOAT_TOL for q in points):
            out.append("synthesis sweep out of range")
    return out


def reference_entry(stage: str, store):
    """What the reference pins for a stage, or None for optimiser stages."""
    if stage == "characterize":
        digest = hashlib.sha256()
        for p in payloads(store, stage):
            digest.update(json.dumps(p, sort_keys=True).encode())
        return digest.hexdigest()
    if stage == "evaluate":
        return [{k: v for k, v in p.items() if k != "fidelity_table"}
                for p in payloads(store, stage)]
    if stage == "markov":
        return payloads(store, stage)
    return None


def json_close(actual, expected, path="$") -> list[str]:
    """Mismatches between two JSON values; floats within FLOAT_TOL."""
    if isinstance(expected, float):
        if not isinstance(actual, (int, float)) or \
                abs(actual - expected) > FLOAT_TOL * max(1.0, abs(expected)):
            return [f"{path}: {actual!r} != {expected!r}"]
        return []
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or sorted(actual) != sorted(expected):
            return [f"{path}: keys differ"]
        return [m for k in expected
                for m in json_close(actual[k], expected[k], f"{path}.{k}")]
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{path}: length differs"]
        return [m for i, (a, e) in enumerate(zip(actual, expected))
                for m in json_close(a, e, f"{path}[{i}]")]
    return [] if actual == expected else [f"{path}: {actual!r} != {expected!r}"]


def compare_reference(stage: str, store, ref: dict) -> list[str]:
    if stage not in ref:
        return []
    mismatches = json_close(reference_entry(stage, store), ref[stage],
                            f"reference.{stage}")
    return mismatches[:5]


def quality_of(store, plan) -> dict[str, float]:
    out = {}
    evals = [p for p in payloads(store, "evaluate") if p["n"] == plan.basis_size]
    if evals:
        out["eval_median_fidelity"] = evals[0]["median"]
    bounds = payloads(store, "memory")
    if bounds:
        out["memory_bits"] = max(p["bits"] for p in bounds)
    dec = payloads(store, "decouple")
    if dec:
        out["decouple_objective"] = dec[0]["objective"]
    syn = payloads(store, "synthesize")
    if syn:
        out["synth_peak_fidelity"] = max(q["process_fidelity"]
                                         for q in syn[0]["points"])
    return out


# ---------------------------------------------------------------------------
# Runs and metrics
# ---------------------------------------------------------------------------

def measure(wl: Workload, seed: int, seconds: float,
            reference: dict) -> tuple[list[Rep], list[float]]:
    """Repetitions until the next one would overrun ``seconds``.

    Returns the repetitions and the set-up samples in reference seconds.
    Extra set-ups are interleaved with the repetitions, so the samples span
    the whole run rather than one stretch of it.
    """
    t_start = time.perf_counter()
    setups: list[float] = []
    reps: list[Rep] = []
    while len(reps) < SEED_STRIDE:
        for i in range(SETUPS_PER_REP):
            scratch = WORK / f"setup-{i}"
            speed = host_probe() / PROBE_NOMINAL_S
            setups.append(set_up(wl, seed * SEED_STRIDE, scratch)[0] / speed)
            shutil.rmtree(scratch, ignore_errors=True)
        reps.append(run_rep(wl, seed * SEED_STRIDE + len(reps), reference))
        typical = statistics.median(r.wall_s for r in reps)
        if time.perf_counter() - t_start + typical > seconds:
            break
    return reps, setups


def end_to_end_metrics(reps: list[Rep], setups: list[float]) -> dict:
    """Times are in reference seconds (see ``host_probe``).

    ``run_s`` is the run's total stage time divided by its repetitions:
    the 3 to 8 repetitions of a run differ in plan seed and so in work,
    and their total averages that out better than their median does.
    """
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"setup_s": statistics.median(setups),
            "run_s": sum(r.run_ref_s for r in reps) / len(reps),
            "peak_rss_mb": peak_kb / 1024.0}


def layer_metrics(tracer: Tracer, plain: Rep, traced: Rep) -> dict:
    def s(name: str) -> SpanStats:
        return tracer.stats.get(name, SpanStats())

    def self_sum(*names: str) -> float:
        return sum(s(n).self_s for n in names)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def share(span: str, stage: str) -> float:
        return ratio(s(span).total_s, traced.stage_s.get(stage, 0.0))

    seqs = ("simulator.run_sequence", "simulator.two_qubit_probe")
    seq_hist = merge_hists(*(s(n).hist for n in seqs))
    boot = s("tomography.bootstrap_ci")
    resamples = boot.counters.get("resamples", 0)
    return {
        "simulator.sequences": sum(s(n).count for n in seqs),
        "simulator.self_s": self_sum("simulator.simulate_experiment", *seqs),
        "simulator.sequence_p50_us": hist_percentile(seq_hist, 50) * 1e6,
        "simulator.sequence_p99_us": hist_percentile(seq_hist, 99) * 1e6,
        "harness.appends": s("harness.append").count,
        "harness.append_self_s": s("harness.append").self_s,
        "harness.store_open_s": s("harness.store_open").total_s,
        "harness.records_bytes": traced.records_bytes,
        **{f"harness.{stage}_s": plain.stage_ref_s.get(stage, 0.0)
           for stage in STAGES},
        "harness.resume_s": plain.resume_ref_s,
        "tomography.qst_calls": s("tomography.qst_mle").count,
        "tomography.qst_self_s": s("tomography.qst_mle").self_s,
        "tomography.predict_calls": s("tomography.predict_batch").count,
        "tomography.predict_self_s": s("tomography.predict_batch").self_s,
        "tomography.evaluate_split_self_s":
            s("tomography.evaluate_split").self_s,
        "tomography.bootstrap_resamples": resamples,
        "tomography.bootstrap_self_s": boot.self_s,
        "tomography.us_per_resample": ratio(boot.total_s, resamples) * 1e6,
        "tomography.contract_calls": s("tomography.contract_fast").count,
        "tomography.contract_self_s": s("tomography.contract_fast").self_s,
        "tomography.contract_p50_us":
            hist_percentile(s("tomography.contract_fast").hist, 50) * 1e6,
        "tomography.contract_p99_us":
            hist_percentile(s("tomography.contract_fast").hist, 99) * 1e6,
        "tomography.slot_coeff_calls": s("tomography.slot_coefficients").count,
        "tomography.slot_coeff_self_s":
            s("tomography.slot_coefficients").self_s,
        "tomography.mle_project_calls": s("tomography.mle_project").count,
        "tomography.mle_project_self_s": s("tomography.mle_project").self_s,
        "tomography.cptp_calls": s("tomography.project_to_cptp").count,
        "tomography.cptp_self_s": s("tomography.project_to_cptp").self_s,
        "basis.dual_builds": s("basis.build_duals").count,
        "basis.dual_self_s": s("basis.build_duals").self_s,
        "memory.cmi_evals": s("memory.cmi_value").count,
        "memory.cmi_self_s": s("memory.cmi_value").self_s,
        "memory.cmi_eval_p50_us":
            hist_percentile(s("memory.cmi_value").hist, 50) * 1e6,
        "memory.cmi_eval_p99_us":
            hist_percentile(s("memory.cmi_value").hist, 99) * 1e6,
        "memory.cmi_share": share("memory.cmi_value", "memory"),
        "memory.bootstrap_resamples":
            s("memory.bootstrap_cmi").counters.get("resamples", 0),
        "memory.bootstrap_self_s": s("memory.bootstrap_cmi").self_s,
        "memory.optimizer_runs": s("memory.minimize").count,
        "memory.optimizer_converged": ratio(
            s("memory.minimize").counters.get("converged", 0),
            s("memory.minimize").count),
        "markov.channel_estimates": s("markov.estimate_step_channel").count,
        "markov.characterize_self_s": s("markov.characterize").self_s,
        "markov.compare_self_s": s("markov.compare_with_tensor").self_s,
        "control.decouple_evals": s("control.decoupling_objective").count
        + s("control.restoration_error").count,
        "control.decouple_self_s": self_sum("control.decoupling_objective",
                                            "control.restoration_error"),
        "control.trajectory_self_s": s("control.simulate_trajectory").self_s,
        "control.tensor_build_self_s": self_sum(
            "control.build_decoupling_tensor", "control.build_synthesis_tensor"),
        "control.synthesis_evals": s("control.synthesis_loss").count,
        "control.synthesis_self_s": s("control.synthesis_loss").self_s,
        "control.synthesis_eval_p50_us":
            hist_percentile(s("control.synthesis_loss").hist, 50) * 1e6,
        "control.synthesis_eval_p99_us":
            hist_percentile(s("control.synthesis_loss").hist, 99) * 1e6,
        "control.synthesis_share": share("control.synthesis_loss",
                                         "synthesize"),
        "control.qpt_calls": s("control.qpt").count,
        "control.qpt_self_s": s("control.qpt").self_s,
        "control.optimizer_runs": s("control.minimize").count,
        "control.optimizer_converged": ratio(
            s("control.minimize").counters.get("converged", 0),
            s("control.minimize").count),
        "qcore.channels_built": s("qcore.channel_init").count,
        "qcore.unitary_checks": s("qcore.check_unitary").count,
        **{f"quality.{name}": plain.quality.get(name, 0.0) for name in QUALITY},
        "trace.overhead": ratio(traced.run_ref_s, plain.run_ref_s),
    }


def summary_line(name: str, unit: str, samples: list[float]) -> str:
    n = len(samples)
    line = f"  {name:<24} {statistics.median(samples):.6g} {unit} (median, n={n}"
    tail = tail_percentile(n)
    if tail is not None and tail > 50:
        value = statistics.quantiles(samples, n=1000, method="inclusive")[
            round(tail * 10) - 1]
        line += f"; p{tail:g} {value:.6g}"
    return line + ")"


# ---------------------------------------------------------------------------
# Machine record
# ---------------------------------------------------------------------------

def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def machine_record(seed: int) -> dict:
    import numpy
    import scipy

    deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_config": blas.get("openblas configuration"),
            "threads_env": {k: v for k, v in sorted(os.environ.items())
                            if k.endswith("_NUM_THREADS")},
            "commit": git_commit(), "seed": seed}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=42.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def print_reps(reps: list[Rep]) -> None:
    for rep in reps:
        stages = ", ".join(f"{k} {v:.3f} s" for k, v in rep.stage_s.items())
        print(f"  plan seed {rep.plan_seed}: setup {rep.setup_s:.4f} s, "
              f"{stages}, resume {rep.resume_s:.3f} s; "
              f"{rep.attempted - rep.failed}/{rep.attempted} ok; "
              + "; ".join(rep.notes))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "proctensor" / "harness.py").is_file():
        print(f"bench: no proctensor sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import scipy.linalg  # noqa: F401  third-party imports stay out of setup_s
    import scipy.optimize  # noqa: F401

    wl = WORKLOADS[args.workload]
    reference = (json.loads(REFERENCE.read_text()) if REFERENCE.is_file()
                 else {})
    print("machine: " + json.dumps(machine_record(args.seed)))
    shutil.rmtree(WORK, ignore_errors=True)
    try:
        if args.trace:
            plain = run_rep(wl, args.seed * SEED_STRIDE, reference)
            tracer = Tracer()
            traced = run_rep(wl, args.seed * SEED_STRIDE, reference, tracer,
                             expect_fingerprint=plain.fingerprint)
            reps = [plain, traced]
            values = layer_metrics(tracer, plain, traced)
            units = LAYER_METRICS
        else:
            reps, setups = measure(wl, args.seed, args.seconds, reference)
            values = end_to_end_metrics(reps, setups)
            units = END_TO_END
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    print(f"workload {wl.name}, seed {args.seed}, trace {args.trace}: "
          f"{len(reps)} repetitions")
    print_reps(reps)
    probes = [p for r in reps for p in r.probes]
    print(f"host speed: probe median {statistics.median(probes):.4f} s, "
          f"reference {PROBE_NOMINAL_S} s, n={len(probes)}")
    if not args.trace:
        print("end-to-end, untraced, in reference seconds:")
        print(summary_line("setup_s", "s", setups))
        print(f"  {'run_s':<24} {values['run_s']:.6g} s "
              f"(total / {len(reps)} repetitions)")
        print(f"  {'peak_rss_mb':<24} {values['peak_rss_mb']:.6g} MB")
        print("per repetition, reference seconds [wall seconds]:")
        for name, ref_of, wall_of in [
                ("run_s", lambda r: r.run_ref_s, lambda r: r.run_s),
                *[(f"{stage}_s", lambda r, st=stage: r.stage_ref_s.get(st, 0.0),
                   lambda r, st=stage: r.stage_s.get(st, 0.0))
                  for stage in wl.stages],
                ("resume_s", lambda r: r.resume_ref_s, lambda r: r.resume_s)]:
            print(summary_line(name, "s", [ref_of(r) for r in reps])
                  + f" [{statistics.median(wall_of(r) for r in reps):.6g} s]")
        for name in QUALITY:
            vals = [r.quality[name] for r in reps if name in r.quality]
            if vals:
                print(summary_line(name, QUALITY[name], vals))
    else:
        for name, value in values.items():
            print(f"  {name:<34} {value:.6g} {units[name]}")
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    print(f"operations: {attempted} attempted, {failed} failed")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": values[k], "unit": units[k]}
                                  for k in units}}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as err:
        print(f"bench: {err}", file=sys.stderr)
        sys.exit(2)
