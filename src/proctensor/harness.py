"""Experiment orchestration: plans, the results store, staged runs, reports.

A plan is a JSON file naming the surrogate model, the control pool and the
stages to run. ``run_plan`` executes stages in dependency order against an
append-only results store; every stored numeric field is a deterministic
function of the plan and its seeds, so re-running a plan is a no-op and
re-running it into a fresh store reproduces the payloads byte for byte
(timestamps aside). ``report`` turns a store into plot-ready CSV files
plus a text summary.
"""

from __future__ import annotations

import csv
import fcntl
import functools
import hashlib
import json
import math
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields
from datetime import datetime, timezone
from itertools import groupby
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from .basis import MAX_POOL, ControlBasis, generate_haar_basis
from .control import (
    XY4_CYCLE,
    build_decoupling_tensor,
    build_synthesis_tensor,
    decoupling_model,
    optimize_decoupling,
    simulate_trajectory,
    synthesis_model,
    synthesis_sweep,
)
from .markov import bootstrap_median_ci, characterize as characterize_markov, \
    compare_with_tensor
from .memory import barrier_placements, bootstrap_cmi, maximize_cmi
from .qcore import NumericalError
from .simulator import AXES, SEModel, khz_to_rad_per_ns, make_model, \
    rng_stream, simulate_experiment
from .tomography import (
    STANDARD_STEPS,
    bootstrap_ci,
    build_standard_tensor,
    evaluate_split,
    prediction_fidelities,
    qst_mle,
    standard_slots,
)

SCHEMA_VERSION = "1.0"
RECORD_FIELDS = ("schema_version", "plan", "stage", "seed", "key")
STAGES = ("characterize", "evaluate", "memory", "markov", "decouple",
          "synthesize")
STAGE_DEPS = {"evaluate": ("characterize",), "memory": ("characterize",),
              "markov": ("characterize",)}
ENV_INITS = ("zero", "plus", "bell")
POOL_BOUNDS = (10, MAX_POOL)
OPTIMIZER_RESTARTS = 20
MAX_SHOTS = 2**63 - 1  # numpy's binomial and multinomial take int64 counts
ALPHA_RANGE = (0.1, 0.8)


class ConfigError(ValueError):
    """Invalid plan or store input; the message names the offending field."""


# the stored characterize grid: counts (P, pool, pool, 3, 2) and the QST
# states (P, pool, pool, 2, 2)
Grid = tuple[np.ndarray, np.ndarray]


# ---------------------------------------------------------------------------
# Plans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentPlan:
    name: str
    exchange_khz: float = 50.0
    zz_khz: float = 30.0
    duration_ns: float = 144.0
    idle_scale: float = 1.0
    env_init: str = "zero"
    env_reset: bool = False
    pool_size: int = 28
    pool_seed: int = 7
    basis_size: int = 24
    shots: int | None = 1600
    master_seed: int = 0
    resamples: int = 200
    stages: tuple[str, ...] = ("characterize", "evaluate")

    def model(self) -> SEModel:
        # one interval per slot of the standard tensor
        return make_model(env_init=self.env_init, steps=STANDARD_STEPS,
                          exchange_khz=self.exchange_khz, zz_khz=self.zz_khz,
                          duration_ns=self.duration_ns * self.idle_scale,
                          env_reset=self.env_reset)

    def basis(self) -> ControlBasis:
        return generate_haar_basis(self.pool_size, self.pool_seed)

    def eval_sizes(self) -> list[int]:
        ladder = set(range(POOL_BOUNDS[0], self.basis_size + 1, 2))
        ladder.add(self.basis_size)
        return sorted(ladder)


def _require(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise ConfigError(f"{path}: {message}")


def _is_finite(v) -> bool:
    try:
        return math.isfinite(v)
    except OverflowError:  # an integer beyond the float range
        return False


def plan_from_dict(raw: dict) -> ExperimentPlan:
    """Validate a parsed plan document; errors name the field path."""
    if not isinstance(raw, dict):
        raise ConfigError("plan: expected a JSON object")
    known = {f.name for f in fields(ExperimentPlan)}
    for key in raw:
        _require(key in known, key, "unknown field")
    _require("name" in raw, "name", "required field missing")
    data = dict(raw)

    def num(path, lo=None, allow_zero=False):
        if path not in data:
            return
        v = data[path]
        _require(isinstance(v, (int, float)) and not isinstance(v, bool)
                 and _is_finite(v), path, "must be a finite number")
        if lo is not None:
            _require(v > lo or (allow_zero and v >= lo), path,
                     f"must be {'>=' if allow_zero else '>'} {lo}")

    _require(isinstance(data["name"], str) and data["name"], "name",
             "must be a non-empty string")
    num("exchange_khz", 0.0, allow_zero=True)
    num("zz_khz", 0.0, allow_zero=True)
    num("duration_ns", 0.0)
    num("idle_scale", 0.0)
    if "env_init" in data:
        _require(data["env_init"] in ENV_INITS, "env_init",
                 f"must be one of {ENV_INITS}")
    if "env_reset" in data:
        _require(isinstance(data["env_reset"], bool), "env_reset",
                 "must be a boolean")
    for path, lo, hi in (("pool_size", *POOL_BOUNDS),
                         ("basis_size", *POOL_BOUNDS)):
        if path in data:
            v = data[path]
            _require(isinstance(v, int) and not isinstance(v, bool), path,
                     "must be an integer")
            _require(lo <= v <= hi, path, f"must be between {lo} and {hi}")
    if "shots" in data and data["shots"] is not None:
        v = data["shots"]
        _require(isinstance(v, int) and not isinstance(v, bool)
                 and 0 < v <= MAX_SHOTS, "shots",
                 f"must be a positive integer <= {MAX_SHOTS} or null")
    for path in ("master_seed", "pool_seed"):
        if path in data:
            v = data[path]
            _require(isinstance(v, int) and not isinstance(v, bool) and v >= 0,
                     path, "must be a non-negative integer")
    if "resamples" in data:
        v = data["resamples"]
        _require(isinstance(v, int) and not isinstance(v, bool) and v >= 2,
                 "resamples", "must be an integer >= 2")
    if "stages" in data:
        v = data["stages"]
        _require(isinstance(v, (list, tuple)), "stages", "must be a list")
        for i, s in enumerate(v):
            _require(s in STAGES, f"stages[{i}]",
                     f"unknown stage {s!r}; valid stages are {STAGES}")
        data["stages"] = tuple(dict.fromkeys(v))

    plan = ExperimentPlan(**data)
    try:
        # the unitarity check rejects the NaN of a phase that overflows
        with np.errstate(invalid="ignore"):
            plan.model()
    except NumericalError:
        raise  # a failed physicality guard is a numerical failure, not input
    except ValueError as err:
        t = plan.duration_ns * plan.idle_scale
        # blame a coupling whose phase 2pi * kHz * 1e-6 * t overflows a finite t
        for path in ("exchange_khz", "zz_khz"):
            _require(not math.isfinite(t) or math.isfinite(
                khz_to_rad_per_ns(getattr(plan, path)) * t), path,
                f"{getattr(plan, path):g} kHz over {t:g} ns overflows the "
                f"coupling phase ({err})")
        raise ConfigError(f"duration_ns: duration_ns * idle_scale = {t:g} ns "
                          f"gives no unitary interval propagator ({err})") from err
    if "evaluate" in plan.stages:
        _require(plan.basis_size < plan.pool_size, "basis_size",
                 "must be smaller than pool_size for a held-out evaluation")
    _require(plan.basis_size <= plan.pool_size, "basis_size",
             "must not exceed pool_size")
    return plan


def _markov_shots(plan: ExperimentPlan) -> int | None:
    """Shots per Markov baseline experiment: the grid's total budget over the
    baseline's 1 + 2 pool experiments per preparation (the grid's pool^2)."""
    pool = plan.pool_size
    return None if plan.shots is None else \
        int(round(plan.shots * pool ** 2 / (1 + 2 * pool)))


def _check_stages(plan: ExperimentPlan, stages: Iterable[str]) -> None:
    """Reject a plan that one of the resolved ``stages`` cannot run, before
    the run takes the store's lock."""
    if "evaluate" in stages:
        _require(plan.basis_size < plan.pool_size, "basis_size",
                 "must be smaller than pool_size for a held-out evaluation")
    if "markov" in stages and (shots := _markov_shots(plan) or 0) > MAX_SHOTS:
        raise ConfigError(f"shots: the Markov baseline scales it to {shots} "
                          f"per experiment, above {MAX_SHOTS}")


def load_plan(path: str | Path) -> ExperimentPlan:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"plan file not found: {p}")
    try:
        raw = json.loads(p.read_text())
    except json.JSONDecodeError as err:
        raise ConfigError(f"plan file {p}: invalid JSON ({err})") from err
    return plan_from_dict(raw)


# ---------------------------------------------------------------------------
# Results store
# ---------------------------------------------------------------------------

_PLAIN = (str, int, float, bool, type(None))


def _jsonify(obj):
    # exact containers of plain leaves are most of a large payload: recurse
    # only into what is not a plain leaf already
    kind = type(obj)
    if kind is dict:
        return {str(k): v if type(v) in _PLAIN else _jsonify(v)
                for k, v in obj.items()}
    if kind is list:
        return [v if type(v) in _PLAIN else _jsonify(v) for v in obj]
    if kind in _PLAIN:
        return obj
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonify(obj.tolist())  # a 0-d array gives a scalar
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


# the text of json.dumps(doc, sort_keys=True, separators=(",", ":")),
# from one encoder built once
_canonical = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


class ResultsStore:
    """Append-only line-delimited JSON store with content-hashed sidecars.

    Every record line carries the schema version, plan name, stage, seed
    and a unique record key; appends with an already-stored key are
    skipped, which is what makes interrupted runs resumable. A final line
    without its newline is an append cut short, or one still in progress:
    reading the store skips it, and only the writer lock (``lock()``)
    truncates it, so the resumed run writes that record again. Opening the
    store takes the lock for that repair unless another run holds it.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        (self.root / "sidecars").mkdir(exist_ok=True)
        self.records_path = self.root / "records.jsonl"
        self._load()
        if self.records_path.exists() \
                and self.records_path.stat().st_size != self._size:
            try:
                with self.lock():
                    pass
            except ConfigError:
                pass  # the writer may still be appending that line

    def _load(self, repair: bool = False) -> None:
        self._keys: set[str] = set()
        self._records: list[dict] = []
        self._size = 0  # bytes of whole lines this store has read or written
        if not self.records_path.exists():
            return
        data = self.records_path.read_bytes()
        complete = data.rfind(b"\n") + 1
        if repair and complete < len(data):
            with self.records_path.open("r+b") as fh:
                fh.truncate(complete)
        # lines end at b"\n" alone: str.splitlines also splits at \x1c-\x1e,
        # \x85 and \u2028-\u2029, which would shift the line numbers
        for i, line in enumerate(data[:complete].split(b"\n")[:-1]):
            try:
                doc = json.loads(line.decode())
            except UnicodeDecodeError as err:
                raise ConfigError(
                    f"store {self.records_path}: line {i + 1} is not UTF-8 "
                    f"({err})") from err
            except json.JSONDecodeError as err:
                raise ConfigError(
                    f"store {self.records_path}: line {i + 1} is not JSON "
                    f"({err})") from err
            self._check_record(doc, i)
            self._keys.add(doc["key"])
            self._records.append(doc)
        self._size = complete

    @contextmanager
    def lock(self):
        """Hold the writer lock, so that a second writer fails at once.
        Records another writer appended since this store last read the
        file are read first, and a torn final line is truncated."""
        with self.records_path.open("ab") as fh:
            try:
                fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except BlockingIOError:
                raise ConfigError(f"store {self.root}: another run is writing "
                                  "to it; wait for it to finish") from None
            if self.records_path.stat().st_size != self._size:
                self._load(repair=True)
            yield

    def _check_record(self, doc, line: int) -> None:
        where = f"store {self.records_path}: line {line + 1}"
        if not isinstance(doc, dict):
            raise ConfigError(f"{where} is not a JSON object")
        version = str(doc.get("schema_version", ""))
        major = version.split(".", 1)[0]
        if major != SCHEMA_VERSION.split(".", 1)[0]:
            raise ConfigError(
                f"{where} has schema version {version!r}; this reader "
                f"supports {SCHEMA_VERSION}")
        if not (all(f in doc for f in RECORD_FIELDS)
                and isinstance(doc["key"], str)
                and isinstance(doc.get("payload"), dict)):
            raise ConfigError(f"{where} is not a record: it needs "
                              f"{', '.join(RECORD_FIELDS)}, a string key and "
                              "a payload object")

    def has(self, key: str) -> bool:
        return key in self._keys

    def append(self, plan: str, stage: str, seed: int, key: str,
               payload: dict) -> bool:
        """Store one record; returns False when the key already exists."""
        return bool(self.extend(plan, stage, seed, [(key, payload)]))

    def extend(self, plan: str, stage: str, seed: int,
               rows: Iterable[tuple[str, dict]]) -> int:
        """Store ``(key, payload)`` rows with one write; returns how many
        were new. Rows whose key is already stored are skipped."""
        created = datetime.now(timezone.utc).isoformat()
        # sorted, the fields key and payload sit side by side, and the
        # rest are the same on every line: encode those once around them
        head, tail = _canonical({
            "schema_version": SCHEMA_VERSION, "plan": plan, "stage": stage,
            "seed": int(seed), "key": 0, "created_utc": created,
            "payload": 0}).split('"key":0,"payload":0', 1)
        docs, lines, fresh = [], [], set()
        for key, payload in rows:
            if key in self._keys or key in fresh:
                continue
            fresh.add(key)
            payload = _jsonify(payload)
            docs.append({"schema_version": SCHEMA_VERSION, "plan": plan,
                         "stage": stage, "seed": int(seed), "key": key,
                         "created_utc": created, "payload": payload})
            lines.append(f'{head}"key":{_canonical(key)},"payload":'
                         f'{_canonical(payload)}{tail}\n')
        if docs:
            with self.records_path.open("ab") as fh:
                fh.write("".join(lines).encode())
                self._size = fh.tell()
            self._keys |= fresh
            self._records.extend(docs)
        return len(docs)

    def records(self, stage: str | None = None,
                kind: str | None = None) -> list[dict]:
        out = []
        for doc in self._records:
            if stage is not None and doc["stage"] != stage:
                continue
            if kind is not None and doc["payload"].get("kind") != kind:
                continue
            out.append(doc)
        return out

    def save_array(self, arr: np.ndarray) -> str:
        """Write a sidecar .npy named by the content hash of the array."""
        a = np.ascontiguousarray(arr)
        digest = hashlib.sha256()
        digest.update(a.dtype.str.encode())
        digest.update(repr(a.shape).encode())
        digest.update(a.tobytes())
        name = digest.hexdigest()
        path = self.root / "sidecars" / f"{name}.npy"
        if not path.exists():
            np.save(path, a, allow_pickle=False)
        return name

    def load_array(self, name: str) -> np.ndarray:
        path = self.root / "sidecars" / f"{name}.npy"
        if not path.exists():
            raise ConfigError(f"sidecar not found: {path}")
        return np.load(path, allow_pickle=False)

    def payload_fingerprint(self) -> str:
        """Hash of every record minus timestamps, for determinism checks."""
        digest = hashlib.sha256()
        for doc in self._records:
            stripped = {k: v for k, v in doc.items() if k != "created_utc"}
            digest.update(_canonical(stripped).encode())
            digest.update(b"\n")
        return digest.hexdigest()


# ---------------------------------------------------------------------------
# Stage execution
# ---------------------------------------------------------------------------

def resolve_stages(requested: tuple[str, ...]) -> list[str]:
    """Requested stages plus their prerequisites, in canonical order."""
    wanted = set()
    for stage in requested:
        if stage not in STAGES:
            raise ConfigError(f"stages: unknown stage {stage!r}")
        wanted.add(stage)
        wanted.update(STAGE_DEPS.get(stage, ()))
    return [s for s in STAGES if s in wanted]


def _run_characterize(plan: ExperimentPlan, store: ResultsStore,
                      model: Callable[[], SEModel], basis: ControlBasis) -> int:
    """Simulate the standard grid and store each sequence's three axes.

    The whole grid is drawn, each record from its own streams; only
    sequences with an axis missing from the store are written, each grid
    row (i, j) at once.
    """
    pool = basis.size
    keys = list(np.ndindex(len(basis.preparations), pool, pool))
    axis_keys = [[f"experiment:p{i}_u{j}_u{k}:{ax}" for ax in AXES]
                 for i, j, k in keys]
    todo = [idx for idx, row in enumerate(axis_keys)
            if not all(store.has(key) for key in row)]
    if not todo:
        return 0
    counts = simulate_experiment(model(), standard_slots(basis), plan.shots,
                                 plan.master_seed)
    counts = counts.reshape(len(keys), len(AXES), 2)[todo].tolist()
    appended = 0
    for _, chunk in groupby(zip(todo, counts), key=lambda t: t[0] // pool):
        rows = []
        for idx, seq_counts in chunk:
            i, j, k = keys[idx]
            for ax, key, ax_counts in zip(AXES, axis_keys[idx], seq_counts):
                rows.append((key, {"kind": "experiment",
                                   "sequence_id": f"p{i}_u{j}_u{k}",
                                   "key_ijk": [i, j, k], "axis": ax,
                                   "counts": ax_counts,
                                   "shots": plan.shots, "record_index": idx}))
        appended += store.extend(plan.name, "characterize", plan.master_seed,
                                 rows)
    return appended


def _experiment_problem(p: dict, n_prep: int, pool: int) -> str | None:
    """What is wrong with a characterize payload, or None. A stored payload
    holds exact JSON types only (``json.loads`` and ``_jsonify`` make no
    others), so ``type(v) is int`` excludes bool."""
    ijk = p.get("key_ijk")
    if not (type(ijk) is list and len(ijk) == 3
            and type(ijk[0]) is type(ijk[1]) is type(ijk[2]) is int):
        return "key_ijk must be a list of three integers"
    if not (0 <= ijk[0] < n_prep and 0 <= ijk[1] < pool
            and 0 <= ijk[2] < pool):
        return f"key_ijk {ijk} is outside the {n_prep} x {pool} x {pool} grid"
    if p.get("axis") not in AXES:
        return f"axis must be one of {AXES}"
    counts = p.get("counts")
    if not (type(counts) is list and len(counts) == 2
            and type(counts[0]) in (int, float)
            and type(counts[1]) in (int, float)):
        return "counts must be a list of two numbers"
    shots = p.get("shots", False)
    if not (shots is None or (type(shots) is int and shots > 0)):
        return "shots must be a positive integer or null"
    if not isinstance(p.get("sequence_id"), str):
        return "sequence_id must be a string"
    return None


def _count_problem(plus, minus, shots: int | None) -> str | None:
    """What is wrong with one axis's counts, or None."""
    if plus < 0 or minus < 0:
        return f"has negative counts {plus}, {minus}"
    total = plus + minus
    if shots is None:
        if abs(total - 1.0) > 1e-9:
            return f"exact probabilities sum to {total}"
    elif int(plus) != plus or int(minus) != minus or total != shots:
        return f"counts {plus}+{minus} do not sum to shots={shots}"
    return None


def _records_from_store(plan: ExperimentPlan, store: ResultsStore,
                        basis: ControlBasis) -> np.ndarray:
    """Counts of the stored characterize grid, shape (P, pool, pool, 3, 2).

    Every record is checked as it is read: a malformed payload names its
    store line, and counts that are negative, miss the plan's shots, or
    are exact probabilities not summing to one name the sequence.
    """
    n_prep, pool = len(basis.preparations), basis.size
    axis_index = {ax: a for a, ax in enumerate(AXES)}
    found = {}  # flat (i, j, k, axis) index -> counts; a later line wins
    for line, doc in enumerate(store.records(), 1):
        p = doc["payload"]
        if doc["stage"] != "characterize" or p.get("kind") != "experiment":
            continue
        problem = _experiment_problem(p, n_prep, pool)
        if problem is not None:
            raise ConfigError(f"store {store.records_path}: line {line} is "
                              f"not an experiment record: {problem}")
        problem = _count_problem(*p["counts"], p["shots"])
        if problem is None and p["shots"] != plan.shots:
            problem = f"shots {p['shots']} differ from the plan's {plan.shots}"
        if problem is not None:
            raise ConfigError(f"store: sequence {p['sequence_id']}: axis "
                              f"{p['axis']} {problem}")
        i, j, k = p["key_ijk"]
        found[((i * pool + j) * pool + k) * len(AXES)
              + axis_index[p["axis"]]] = p["counts"]
    counts = np.zeros((n_prep, pool, pool, len(AXES), 2))
    seen = np.zeros(counts.shape[:-1], dtype=bool)
    where = np.fromiter(found, dtype=np.intp, count=len(found))
    counts.reshape(-1, 2)[where] = np.array(list(found.values()),
                                            dtype=float).reshape(-1, 2)
    seen.reshape(-1)[where] = True
    stored = seen.any(axis=-1)
    partial = np.argwhere(stored & ~seen.all(axis=-1))
    if partial.size:
        raise ConfigError("store: sequence p{}_u{}_u{} is missing axes; "
                          "re-run the characterize stage".format(*partial[0]))
    if not stored.all():
        raise ConfigError(
            f"store: characterize stage incomplete ({(~stored).sum()} of "
            f"{stored.size} sequences missing); re-run it")
    return counts


def _run_evaluate(plan: ExperimentPlan, store: ResultsStore,
                  basis: ControlBasis, grid: Callable[[], Grid]) -> int:
    todo = [n for n in plan.eval_sizes() if not store.has(f"evaluation:n{n}")]
    if not todo:
        return 0
    counts, states = grid()
    results = [evaluate_split(states, basis, n) for n in todo]
    # one bootstrap pass scores every size still missing
    lo, hi, _ = bootstrap_ci(counts, plan.shots, basis, todo,
                             resamples=plan.resamples, seed=plan.master_seed)
    appended = 0
    for n, result, ci_lo, ci_hi in zip(todo, results, lo, hi):
        # one row (i, j, k, fidelity) per held-out sequence, in C order
        i, j, k = np.indices(result.fidelities.shape).reshape(3, -1)
        sidecar = store.save_array(np.column_stack(
            [i, j + n, k + n, result.fidelities.ravel()]))
        payload = {"kind": "evaluation", "n": n,
                   "mean_infidelity": result.mean_infidelity,
                   "ci_lo": float(ci_lo), "ci_hi": float(ci_hi),
                   **asdict(result.stats), "fidelity_table": sidecar}
        appended += store.append(plan.name, "evaluate", plan.master_seed,
                                 f"evaluation:n{n}", payload)
    return appended


def _run_memory(plan: ExperimentPlan, store: ResultsStore,
                basis: ControlBasis, grid: Callable[[], Grid]) -> int:
    todo = {}
    for placements in barrier_placements(STANDARD_STEPS):
        key = "memory:" + "+".join(map(str, placements))
        if not store.has(key):
            todo[key] = placements
    if not todo:
        return 0
    appended = 0
    n = plan.basis_size
    counts, states = grid()
    pt = build_standard_tensor(states, basis, n)
    for key, placements in todo.items():
        result = maximize_cmi(pt, placements, restarts=OPTIMIZER_RESTARTS,
                              seed=plan.master_seed)
        interval = bootstrap_cmi(counts, plan.shots, basis, n, placements,
                                 result.params, resamples=plan.resamples,
                                 seed=plan.master_seed)
        payload = {"kind": "memory_bound",
                   "placements": list(placements), "n": n,
                   "bits": result.bits, "point": interval.point,
                   "ci_lo": interval.lo, "ci_hi": interval.hi,
                   "params": result.params,
                   "has_filler": len(result.params) == 12,
                   "restarts": OPTIMIZER_RESTARTS}
        appended += store.append(plan.name, "memory", plan.master_seed, key,
                                 payload)
    return appended


def _run_markov(plan: ExperimentPlan, store: ResultsStore,
                model: Callable[[], SEModel], basis: ControlBasis,
                grid: Callable[[], Grid]) -> int:
    if store.has("markov:comparison"):
        return 0
    _, states = grid()
    baseline = characterize_markov(model(), basis, _markov_shots(plan),
                                   master_seed=plan.master_seed + 101)
    n = plan.basis_size
    pt = build_standard_tensor(states, basis, n)
    # both models are scored on the whole grid
    tensor_fids = prediction_fidelities(pt, basis, states, basis.size)
    comparison = compare_with_tensor(tensor_fids, states, baseline)
    t_ci = bootstrap_median_ci(comparison.tensor_fids,
                               resamples=plan.resamples, seed=plan.master_seed)
    m_ci = bootstrap_median_ci(comparison.markov_fids,
                               resamples=plan.resamples,
                               seed=plan.master_seed + 1)

    payload = {"kind": "markov_comparison", "n": n,
               "tensor": {**asdict(comparison.tensor_stats),
                          "ci_lo": t_ci[0], "ci_hi": t_ci[1]},
               "markov": {**asdict(comparison.markov_stats),
                          "ci_lo": m_ci[0], "ci_hi": m_ci[1]},
               "median_gap": comparison.median_gap}
    return int(store.append(plan.name, "markov", plan.master_seed,
                            "markov:comparison", payload))


def _run_decouple(plan: ExperimentPlan, store: ResultsStore,
                  basis: ControlBasis) -> int:
    if store.has("decouple:result"):
        return 0
    dmodel = decoupling_model(exchange_khz=plan.exchange_khz,
                              zz_khz=plan.zz_khz)
    pt = build_decoupling_tensor(dmodel, basis, shots=plan.shots,
                                 master_seed=plan.master_seed + 202)
    result = optimize_decoupling(pt, restarts=OPTIMIZER_RESTARTS,
                                 seed=plan.master_seed)
    trajectories = [simulate_trajectory(cycle, exchange_khz=plan.exchange_khz,
                                        zz_khz=plan.zz_khz, label=label)
                    for cycle, label in ((None, "idle"),
                                         ((result.gate,), "decoupled"),
                                         (XY4_CYCLE, "xy4"))]
    payload = {"kind": "decoupling", **asdict(result),
               "restarts": OPTIMIZER_RESTARTS,
               "trajectories": [asdict(t) for t in trajectories]}
    return int(store.append(plan.name, "decouple", plan.master_seed,
                            "decouple:result", payload))


def _run_synthesize(plan: ExperimentPlan, store: ResultsStore,
                    basis: ControlBasis) -> int:
    if store.has("synthesize:sweep"):
        return 0
    smodel = synthesis_model(exchange_khz=plan.exchange_khz,
                             zz_khz=plan.zz_khz)
    pt = build_synthesis_tensor(smodel, basis, shots=plan.shots,
                                master_seed=plan.master_seed + 303)
    alpha = float(rng_stream(plan.master_seed, 606).uniform(*ALPHA_RANGE))
    points = synthesis_sweep(pt, smodel, alpha, restarts=OPTIMIZER_RESTARTS,
                             seed=plan.master_seed)
    payload = {"kind": "synthesis", "alpha": alpha,
               "points": [asdict(p) for p in points]}
    return int(store.append(plan.name, "synthesize", plan.master_seed,
                            "synthesize:sweep", payload))


def _plan_manifest(plan: ExperimentPlan) -> dict:
    doc = {f.name: getattr(plan, f.name) for f in fields(ExperimentPlan)
           if f.name != "stages"}
    doc["kind"] = "plan_manifest"
    return _jsonify(doc)


def _check_manifest(plan: ExperimentPlan, store: ResultsStore) -> None:
    """One store holds one plan configuration; staged runs must agree."""
    manifest = _plan_manifest(plan)
    existing = store.records(kind="plan_manifest")
    if not existing:
        store.append(plan.name, "plan", plan.master_seed, "plan:manifest",
                     manifest)
        return
    stored = existing[0]["payload"]
    diffs = sorted(k for k in manifest
                   if stored.get(k, object()) != manifest[k])
    if diffs:
        raise ConfigError(
            f"store {store.root}: already holds results for a different "
            f"plan configuration (fields differ: {', '.join(diffs)}); "
            "use a fresh --out directory")


def run_plan(plan: ExperimentPlan, store: ResultsStore,
             stages: tuple[str, ...] | None = None) -> dict[str, int]:
    """Execute the plan's stages; returns appended-record counts per stage.

    Already-stored records are skipped, so a rerun of the same plan is a
    no-op and an interrupted run resumes where it stopped. The store's
    writer lock is held for the whole call, so a second run on the same
    store fails instead of interleaving with this one.
    """
    ordered = resolve_stages(stages if stages is not None else plan.stages)
    _check_stages(plan, ordered)
    with store.lock():
        _check_manifest(plan, store)
        model = functools.cache(plan.model)  # built once, when first needed
        basis = plan.basis()
        counts: dict[str, int] = {}

        @functools.cache
        def grid() -> Grid:
            # read and estimate the stored grid once, when first needed
            counts = _records_from_store(plan, store, basis)
            return counts, qst_mle(counts, plan.shots)

        for stage in ordered:
            if stage == "characterize":
                counts[stage] = _run_characterize(plan, store, model, basis)
            elif stage == "evaluate":
                counts[stage] = _run_evaluate(plan, store, basis, grid)
            elif stage == "memory":
                counts[stage] = _run_memory(plan, store, basis, grid)
            elif stage == "markov":
                counts[stage] = _run_markov(plan, store, model, basis, grid)
            elif stage == "decouple":
                counts[stage] = _run_decouple(plan, store, basis)
            elif stage == "synthesize":
                counts[stage] = _run_synthesize(plan, store, basis)
        return counts


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def report(plan: ExperimentPlan, store: ResultsStore,
           out_dir: str | Path) -> dict[str, Path]:
    """Emit plot-ready CSVs plus a text summary for the stages present.

    The summary describes the configuration in the store's plan manifest,
    including any seed or shot override the run was given; ``plan`` must
    be the plan the store holds.
    """
    evaluations = sorted(store.records(stage="evaluate", kind="evaluation"),
                         key=lambda d: d["payload"]["n"])
    if not evaluations:
        raise ConfigError(
            "report requires the 'evaluate' stage; run it before reporting")
    manifests = store.records(kind="plan_manifest")
    if not manifests:
        raise ConfigError(f"store {store.root}: holds no plan manifest")
    held = manifests[0]["payload"]
    if held["name"] != plan.name:
        raise ConfigError(f"store {store.root}: holds plan {held['name']!r}, "
                          f"not {plan.name!r}")

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: dict[str, Path] = {}
    lines = [f"plan: {held['name']}", f"pool: {held['pool_size']} "
             f"(seed {held['pool_seed']}), shots: {held['shots']}",
             f"master seed: {held['master_seed']}"]

    rows = [[p["n"], p["mean_infidelity"], p["ci_lo"], p["ci_hi"]]
            for p in (d["payload"] for d in evaluations)]
    path = out / "fidelity_vs_n.csv"
    _write_csv(path, ["n", "mean_infidelity", "ci_lo", "ci_hi"], rows)
    written["fidelity_vs_n"] = path

    rows = [[p["n"], p["median"], p["q1"], p["q3"], p["whisker_lo"],
             p["whisker_hi"], p["mean"], p["count"]]
            for p in (d["payload"] for d in evaluations)]
    path = out / "box_stats.csv"
    _write_csv(path, ["n", "median", "q1", "q3", "whisker_lo", "whisker_hi",
                      "mean", "count"], rows)
    written["box_stats"] = path

    at_n = next((d["payload"] for d in evaluations
                 if d["payload"]["n"] == held["basis_size"]),
                evaluations[-1]["payload"])
    lines.append(f"reconstruction: held-out fidelity median "
                 f"{at_n['median']:.4f} at n={at_n['n']} "
                 f"(mean infidelity {at_n['mean_infidelity']:.3e}, "
                 f"95% CI [{at_n['ci_lo']:.3e}, {at_n['ci_hi']:.3e}])")

    memory_rows = store.records(stage="memory", kind="memory_bound")
    if memory_rows:
        rows, texts = [], []
        for doc in memory_rows:
            p = doc["payload"]
            name = "+".join(str(s) for s in p["placements"])
            rows.append([name, p["bits"], p["ci_lo"], p["ci_hi"]])
            texts.append(f"slots {name}: {p['bits']:.4f} bits "
                         f"[{p['ci_lo']:.4f}, {p['ci_hi']:.4f}]")
        path = out / "memory_bounds.csv"
        _write_csv(path, ["placements", "bits", "ci_lo", "ci_hi"], rows)
        written["memory_bounds"] = path
        lines.append("memory bounds: " + "; ".join(texts))

    markov_rows = store.records(stage="markov", kind="markov_comparison")
    if markov_rows:
        p = markov_rows[0]["payload"]
        rows = [[name, s["median"], s["q1"], s["q3"], s["whisker_lo"],
                 s["whisker_hi"], s["ci_lo"], s["ci_hi"]]
                for name, s in (("tensor", p["tensor"]),
                                ("markov", p["markov"]))]
        path = out / "markov_comparison.csv"
        _write_csv(path, ["model", "median", "q1", "q3", "whisker_lo",
                          "whisker_hi", "ci_lo", "ci_hi"], rows)
        written["markov_comparison"] = path
        lines.append(f"markov comparison: tensor median "
                     f"{p['tensor']['median']:.4f} vs composed "
                     f"{p['markov']['median']:.4f} "
                     f"(gap {100 * p['median_gap']:.3f}pp)")

    decouple_rows = store.records(stage="decouple", kind="decoupling")
    if decouple_rows:
        p = decouple_rows[0]["payload"]
        rows = []
        for traj in p["trajectories"]:
            for t, neg, mi, p1, p2 in zip(traj["time_ns"], traj["negativity"],
                                          traj["mutual_info_bits"],
                                          traj["purity_q1"],
                                          traj["purity_q2"]):
                rows.append([traj["label"], t, neg, mi, p1, p2])
        path = out / "control_trajectories.csv"
        _write_csv(path, ["label", "time_ns", "negativity",
                          "mutual_info_bits", "purity_q1", "purity_q2"], rows)
        written["control_trajectories"] = path
        axis = ", ".join(f"{v:.4f}" for v in p["axis"])
        lines.append(f"decoupling: angle {p['angle']:.4f} about ({axis}), "
                     f"objective {p['objective']:.3e}, degenerate: "
                     f"{'yes' if p['degenerate'] else 'no'}")

    synth_rows = store.records(stage="synthesize", kind="synthesis")
    if synth_rows:
        p = synth_rows[0]["payload"]
        rows = [[q["eta"], q["target_unitarity"], q["loss"],
                 q["process_fidelity"], q["realized_unitarity"]]
                for q in p["points"]]
        path = out / "synthesis_sweep.csv"
        _write_csv(path, ["eta", "target_unitarity", "loss",
                          "process_fidelity", "realized_unitarity"], rows)
        written["synthesis_sweep"] = path
        best = max(p["points"], key=lambda q: q["process_fidelity"])
        lines.append(f"synthesis: alpha {p['alpha']:.4f}, peak process "
                     f"fidelity {best['process_fidelity']:.4f} at eta "
                     f"{best['eta']:.2f}")

    summary = out / "summary.txt"
    summary.write_text("\n".join(lines) + "\n")
    written["summary"] = summary
    return written
