"""Plan validation, results store, staged execution and reports."""

import json
import tempfile
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, seed, settings, strategies as st

from proctensor import harness
from proctensor.basis import MAX_POOL
from proctensor.cli import main
from proctensor.harness import (
    MAX_SHOTS,
    STAGES,
    ConfigError,
    ExperimentPlan,
    ResultsStore,
    load_plan,
    plan_from_dict,
    report,
    resolve_stages,
    run_plan,
)
from proctensor.control import XY4_CYCLE, simulate_trajectory
from proctensor.qcore import u3_matrix
from proctensor.simulator import AXES, simulate_experiment
from proctensor.tomography import box_stats, standard_slots

from helpers import experiment_oracle, jsonify_oracle, standard_sequence

QUICKSTART = Path(__file__).parents[1] / "plans" / "quickstart.json"


# ---------------------------------------------------------------------------
# Plan validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("raw, fragment", [
    ({}, "name"),
    ({"name": ""}, "name"),
    ({"name": 3}, "name"),
    ({"name": "x", "frobnicate": 1}, "frobnicate"),
    ({"name": "x", "duration_ns": 0}, "duration_ns"),
    ({"name": "x", "idle_scale": 0}, "idle_scale"),
    ({"name": "x", "exchange_khz": "fast"}, "exchange_khz"),
    ({"name": "x", "env_init": "hot"}, "env_init"),
    ({"name": "x", "env_reset": "yes"}, "env_reset"),
    ({"name": "x", "pool_size": 9}, "pool_size"),
    ({"name": "x", "pool_size": 29}, "pool_size"),
    ({"name": "x", "basis_size": 11.5}, "basis_size"),
    ({"name": "x", "shots": 0}, "shots"),
    ({"name": "x", "shots": True}, "shots"),
    ({"name": "x", "master_seed": 1.5}, "master_seed"),
    ({"name": "x", "resamples": 1}, "resamples"),
    ({"name": "x", "stages": "evaluate"}, "stages"),
    ({"name": "x", "stages": ["characterize", "flobber"]}, "stages[1]"),
    # finite couplings whose phase 2pi * kHz overflows name their own field,
    # and an interval time that overflows names duration_ns
    ({"name": "x", "exchange_khz": 1e308}, "exchange_khz"),
    ({"name": "x", "zz_khz": 1e308}, "zz_khz"),
    ({"name": "x", "duration_ns": 1e200, "idle_scale": 1e200}, "duration_ns"),
])
def test_plan_rejects_bad_fields(raw, fragment):
    with pytest.raises(ConfigError) as err:
        plan_from_dict(raw)
    assert fragment in str(err.value)


def test_plan_defaults():
    plan = plan_from_dict({"name": "d"})
    assert plan.pool_size == 28
    assert plan.basis_size == 24
    assert plan.shots == 1600
    assert plan.stages == ("characterize", "evaluate")
    assert plan.env_init == "zero"


def test_plan_rejects_basis_not_below_pool_for_evaluation():
    raw = {"name": "x", "pool_size": 12, "basis_size": 12}
    with pytest.raises(ConfigError) as err:
        plan_from_dict(raw)
    assert "basis_size" in str(err.value)
    # without a held-out evaluation the full pool is a legal basis
    raw["stages"] = ["characterize", "memory"]
    assert plan_from_dict(raw).basis_size == 12


def test_plan_accepts_null_shots_and_dedups_stages():
    plan = plan_from_dict({"name": "x", "shots": None,
                           "stages": ["evaluate", "characterize", "evaluate"]})
    assert plan.shots is None
    assert plan.stages == ("evaluate", "characterize")


@pytest.mark.parametrize("basis_size, expected", [
    (24, [10, 12, 14, 16, 18, 20, 22, 24]),
    (13, [10, 12, 13]),
    (10, [10]),
])
def test_eval_sizes_ladder(basis_size, expected):
    plan = ExperimentPlan(name="x", pool_size=28, basis_size=basis_size)
    assert plan.eval_sizes() == expected


def test_load_plan_errors(tmp_path):
    with pytest.raises(ConfigError) as err:
        load_plan(tmp_path / "nope.json")
    assert "nope.json" in str(err.value)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError) as err:
        load_plan(bad)
    assert "invalid JSON" in str(err.value)


def test_load_plan_roundtrip(tmp_path):
    path = tmp_path / "plan.json"
    path.write_text(json.dumps({"name": "round", "shots": 400,
                                "stages": ["characterize"]}))
    plan = load_plan(path)
    assert plan.name == "round"
    assert plan.shots == 400


def test_resolve_stages_adds_dependencies():
    assert resolve_stages(("evaluate",)) == ["characterize", "evaluate"]
    assert resolve_stages(("markov", "memory")) == \
        ["characterize", "memory", "markov"]
    assert resolve_stages(("decouple",)) == ["decouple"]
    with pytest.raises(ConfigError):
        resolve_stages(("calibrate",))


# ---------------------------------------------------------------------------
# Results store
# ---------------------------------------------------------------------------

def test_store_append_skips_existing_keys(tmp_path):
    store = ResultsStore(tmp_path / "s")
    assert store.append("p", "characterize", 0, "k1", {"kind": "experiment"})
    assert not store.append("p", "characterize", 0, "k1", {"kind": "other"})
    assert store.has("k1")
    assert len(store.records()) == 1
    # a fresh handle sees the persisted record
    again = ResultsStore(tmp_path / "s")
    assert again.has("k1")
    assert again.records()[0]["payload"] == {"kind": "experiment"}


def test_store_rejects_unknown_schema_major_version(tmp_path):
    root = tmp_path / "s"
    store = ResultsStore(root)
    store.append("p", "characterize", 0, "k1", {"kind": "experiment"})
    doc = json.loads((root / "records.jsonl").read_text())
    doc["schema_version"] = "2.0"
    (root / "records.jsonl").write_text(json.dumps(doc) + "\n")
    with pytest.raises(ConfigError) as err:
        ResultsStore(root)
    assert "2.0" in str(err.value)


def test_store_rejects_corrupt_lines(tmp_path):
    root = tmp_path / "s"
    ResultsStore(root)
    (root / "records.jsonl").write_text("{broken\n")
    with pytest.raises(ConfigError) as err:
        ResultsStore(root)
    assert "line 1" in str(err.value)


def test_store_resumes_after_torn_final_line(tmp_path):
    plan = ExperimentPlan(name="torn", pool_size=10, basis_size=10, shots=400,
                          master_seed=3, stages=("characterize",))
    whole = ResultsStore(tmp_path / "whole")
    run_plan(plan, whole)
    root = tmp_path / "torn"
    run_plan(plan, ResultsStore(root))
    path = root / "records.jsonl"
    lines = path.read_bytes().splitlines(keepends=True)
    # a run killed mid-append leaves the start of its last record behind
    path.write_bytes(b"".join(lines[:-1]) + lines[-1][:len(lines[-1]) // 2])
    resumed = ResultsStore(root)
    assert len(resumed.records()) == len(lines) - 1
    assert path.read_bytes() == b"".join(lines[:-1])
    assert run_plan(plan, resumed) == {"characterize": 1}
    assert resumed.payload_fingerprint() == whole.payload_fingerprint()
    assert ResultsStore(root).payload_fingerprint() == whole.payload_fingerprint()


def test_store_resumes_after_tear_inside_a_grid_row(tmp_path):
    # characterize writes one grid row (i, j) per write; a kill part-way
    # through a row's write leaves complete lines and one torn last line
    plan = ExperimentPlan(name="torn", pool_size=10, basis_size=10, shots=400,
                          master_seed=3, stages=("characterize",))
    whole = ResultsStore(tmp_path / "whole")
    run_plan(plan, whole)
    root = tmp_path / "torn"
    run_plan(plan, ResultsStore(root))
    path = root / "records.jsonl"
    lines = path.read_bytes().splitlines(keepends=True)
    # line 1 is the manifest, lines 2-31 row (0, 0), lines 32-61 row (0, 1)
    kept = 44
    path.write_bytes(b"".join(lines[:kept]) + lines[kept][:50])
    resumed = ResultsStore(root)
    assert len(resumed.records()) == kept
    assert run_plan(plan, resumed) == {"characterize": len(lines) - kept}
    assert resumed.payload_fingerprint() == whole.payload_fingerprint()
    assert ResultsStore(root).payload_fingerprint() == whole.payload_fingerprint()
    _assert_records_read_back(resumed)


def test_store_extend_writes_rows_in_order_and_skips_known_keys(tmp_path):
    store = ResultsStore(tmp_path / "s")
    store.append("p", "characterize", 0, "k1", {"kind": "a"})
    rows = [(key, {"kind": kind}, f'{{"kind":"{kind}"}}')
            for key, kind in (("k1", "b"), ("k2", "c"), ("k2", "d"),
                              ("k3", "e"))]
    assert store.extend("p", "characterize", 0, rows) == 2
    again = ResultsStore(tmp_path / "s")
    assert [(d["key"], d["payload"]["kind"]) for d in again.records()] \
        == [("k1", "a"), ("k2", "c"), ("k3", "e")]
    assert again.payload_fingerprint() == store.payload_fingerprint()
    assert store.extend("p", "characterize", 0, []) == 0


def test_run_plan_rejects_corrupt_middle_line(tmp_path):
    root = tmp_path / "s"
    store = ResultsStore(root)
    for key in ("k1", "k2", "k3"):
        store.append("p", "characterize", 0, key, {"kind": "experiment"})
    path = root / "records.jsonl"
    lines = path.read_text().splitlines(keepends=True)
    lines[1] = lines[1][:20] + "\n"
    path.write_text("".join(lines))
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"name": "p", "pool_size": 10, "basis_size": 10,
                                "stages": ["characterize"]}))
    result = CliRunner().invoke(main, ["run-plan", "--plan", str(plan),
                                       "--out", str(root)])
    assert result.exit_code == 2
    assert "line 2 is not JSON" in result.output
    assert path.read_text() == "".join(lines)


def test_sidecar_roundtrip_and_content_addressing(tmp_path):
    store = ResultsStore(tmp_path / "s")
    rng = np.random.default_rng(3)
    arr = rng.normal(size=(5, 4))
    name = store.save_array(arr)
    assert store.save_array(arr.copy()) == name
    assert len(list((tmp_path / "s" / "sidecars").iterdir())) == 1
    np.testing.assert_array_equal(store.load_array(name), arr)
    other = store.save_array(arr + 1)
    assert other != name
    with pytest.raises(ConfigError):
        store.load_array("0" * 64)


def test_fingerprint_ignores_timestamps(tmp_path):
    a = ResultsStore(tmp_path / "a")
    b = ResultsStore(tmp_path / "b")
    for store in (a, b):
        store.append("p", "evaluate", 1, "k", {"kind": "evaluation", "n": 10})
    assert a.payload_fingerprint() == b.payload_fingerprint()
    b.append("p", "evaluate", 1, "k2", {"kind": "evaluation", "n": 12})
    assert a.payload_fingerprint() != b.payload_fingerprint()


@pytest.mark.parametrize("make_bytes, line, fragment", [
    (lambda lines: lines[0] + b"\xff\xfe\n", 2, "is not UTF-8"),
    # str.splitlines would read two records here, and count one line more
    (lambda lines: lines[0][:-1] + b"\x1e" + lines[1], 1, "is not JSON"),
], ids=["bad-byte", "record-separator"])
def test_store_line_that_is_not_one_utf8_json_object_exits_2(
        tmp_path, make_bytes, line, fragment):
    root = tmp_path / "s"
    store = ResultsStore(root)
    for key in ("k1", "k2"):
        store.append("p", "characterize", 0, key, {"kind": "experiment"})
    path = root / "records.jsonl"
    path.write_bytes(make_bytes(path.read_bytes().splitlines(keepends=True)))
    with pytest.raises(ConfigError) as err:
        ResultsStore(root)
    assert f"line {line} {fragment}" in str(err.value)
    result = CliRunner().invoke(main, ["report", "--plan", str(QUICKSTART),
                                       "--out", str(root)])
    assert result.exit_code == 2
    assert f"line {line} {fragment}" in result.output


def _assert_same_json(actual, expected):
    # equal values of identical types, all the way down
    assert type(actual) is type(expected)
    if isinstance(expected, dict):
        assert list(actual) == list(expected)
        for a, e in zip(actual, expected):
            assert type(a) is type(e)
            _assert_same_json(actual[a], expected[e])
    elif isinstance(expected, list):
        assert len(actual) == len(expected)
        for a, e in zip(actual, expected):
            _assert_same_json(a, e)
    elif isinstance(expected, float) and np.isnan(expected):
        assert np.isnan(actual)
    else:
        assert actual == expected


@pytest.mark.parametrize("obj", [
    np.float64(0.1), np.float32(0.1), np.int64(-7), np.uint8(200),
    np.bool_(True), True, None, "s", 3, 2.5,
    np.array(2.5),  # a 0-d array converts to its scalar
    np.arange(6.0).reshape(2, 3), np.array([[True], [False]]),
    (1, np.float64(2.0), ("a", np.int32(4))),
    {1: {np.str_("k"): [np.int64(3), (np.bool_(False),)]}, "x": None},
    [float("nan"), np.float64("inf"), -np.inf, np.array([np.nan, np.inf])],
    {"counts": [1, 2], "key_ijk": [0, 1, 2], "nested": [{"a": [[]]}]},
    np.array(-3), np.array(True),
], ids=lambda obj: type(obj).__name__)
def test_jsonify_equals_the_branch_per_type_oracle(obj):
    _assert_same_json(harness._jsonify(obj), jsonify_oracle(obj))


def test_store_lines_are_sorted_key_compact_json(tmp_path, monkeypatch):
    # every stage's records, written the way json.dumps writes them, for a
    # sampled and an exact plan
    monkeypatch.setattr(harness, "OPTIMIZER_RESTARTS", 1)
    for shots in (1600, None):
        plan = replace(load_plan(QUICKSTART), stages=STAGES, shots=shots)
        root = tmp_path / str(shots)
        run_plan(plan, ResultsStore(root))
        lines = (root / "records.jsonl").read_text().splitlines(keepends=True)
        assert {json.loads(line)["stage"] for line in lines} \
            == {"plan", *STAGES}
        for line in lines:
            doc = json.loads(line)
            assert line == harness._canonical(doc) + "\n"
            assert line == json.dumps(doc, sort_keys=True,
                                      separators=(",", ":")) + "\n"


def _key_sorted(obj):
    # dicts with their keys in sorted order; every other value as it is
    if isinstance(obj, dict):
        return {k: _key_sorted(obj[k]) for k in sorted(obj)}
    if isinstance(obj, list):
        return [_key_sorted(v) for v in obj]
    return obj


def _assert_records_read_back(store):
    # the writer's in-memory records are what a fresh reader parses from
    # the lines it wrote, down to the type of every value
    again = ResultsStore(store.root)
    mine, read = store.records(), again.records()
    assert [d["key"] for d in mine] == [d["key"] for d in read]
    for a, b in zip(mine, read):
        _assert_same_json(_key_sorted(a), _key_sorted(b))
    assert store.payload_fingerprint() == again.payload_fingerprint()


@pytest.mark.parametrize("plan", [
    load_plan(QUICKSTART),
    ExperimentPlan(name="exact", pool_size=11, basis_size=10, shots=None,
                   resamples=8, master_seed=5,
                   stages=("characterize", "evaluate")),
], ids=["quickstart", "exact"])
def test_writer_records_equal_the_lines_read_back(tmp_path, plan):
    store = ResultsStore(tmp_path)
    run_plan(plan, store)
    _assert_records_read_back(store)


_COUNT_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([-0.0, 5e-324, 0.1, float("nan"), float("inf"),
                     -float("inf")]))


@seed(20261020)
@settings(max_examples=25, deadline=None)
@given(cells=st.lists(st.tuples(st.integers(0, 3),
                                st.integers(0, MAX_POOL - 1),
                                st.integers(0, MAX_POOL - 1)),
                      min_size=1, max_size=4, unique=True),
       values=st.one_of(
           st.lists(st.integers(0, MAX_SHOTS), min_size=24, max_size=24),
           st.lists(_COUNT_FLOATS, min_size=24, max_size=24)),
       shots=st.one_of(st.none(), st.integers(1, MAX_SHOTS)),
       name=st.one_of(st.text(min_size=1),
                      st.text('"\\ é☃\x00', min_size=1)))
def test_characterize_lines_equal_the_canonical_encoder(cells, values, shots,
                                                        name):
    # characterize formats each line itself; it must write what _canonical
    # writes for the record, for any count it can be handed
    dtype = np.int64 if type(values[0]) is int else float
    grid = np.zeros((4, MAX_POOL, MAX_POOL, 3, 2), dtype=dtype)
    for cell, cell_counts in zip(cells, np.array(values, dtype=dtype)
                                 .reshape(-1, len(AXES), 2)):
        grid[cell] = cell_counts
    plan = ExperimentPlan(name=name, shots=shots)
    basis = SimpleNamespace(size=MAX_POOL, preparations=range(4))
    wanted = {f"experiment:p{i}_u{j}_u{k}:{ax}"
              for i, j, k in cells for ax in AXES}
    with tempfile.TemporaryDirectory() as root, \
            pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "simulate_experiment", lambda *args: grid)
        mp.setattr(harness, "standard_slots", lambda basis: None)
        store = ResultsStore(root)
        # every other sequence reads as stored, so only the cells are written
        mp.setattr(store, "has", lambda key: key not in wanted)
        assert harness._run_characterize(plan, store, lambda: None,
                                         basis) == len(wanted)
        lines = (Path(root) / "records.jsonl").read_text() \
            .splitlines(keepends=True)
        assert len(lines) == len(wanted)
        for line in lines:
            doc = json.loads(line)
            assert line == harness._canonical(doc) + "\n"
            i, j, k = doc["payload"]["key_ijk"]
            axis = AXES.index(doc["payload"]["axis"])
            _assert_same_json(doc["payload"]["counts"],
                              grid[i, j, k, axis].tolist())
        _assert_records_read_back(store)


# ---------------------------------------------------------------------------
# Staged execution on a small exact plan
# ---------------------------------------------------------------------------

SMALL_PLAN = dict(name="small", pool_size=11, basis_size=10, shots=None,
                  resamples=8, master_seed=5,
                  stages=("characterize", "evaluate", "memory", "markov"))


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    # fewer optimizer restarts keep the memory stage fast; the patched
    # value applies to every store built from this fixture
    saved = harness.OPTIMIZER_RESTARTS
    harness.OPTIMIZER_RESTARTS = 4
    try:
        plan = ExperimentPlan(**SMALL_PLAN)
        store = ResultsStore(tmp_path_factory.mktemp("run") / "store")
        counts = run_plan(plan, store)
        yield plan, store, counts
    finally:
        harness.OPTIMIZER_RESTARTS = saved


def test_run_counts_match_grid(small_run):
    plan, store, counts = small_run
    assert counts["characterize"] == 4 * 11 * 11 * 3
    assert counts["evaluate"] == 1
    assert counts["memory"] == 3
    assert counts["markov"] == 1


def test_standard_grid_size_for_full_pool():
    # the default 28-unitary pool enumerates 4*28*28 sequences, three
    # measured axes each
    plan = ExperimentPlan(name="full")
    n_prep, pool = 4, plan.pool_size
    assert n_prep * pool * pool * 3 == 9408


def test_rerun_appends_nothing(small_run):
    plan, store, _ = small_run
    before = store.payload_fingerprint()
    counts = run_plan(plan, store)
    assert all(c == 0 for c in counts.values())
    assert store.payload_fingerprint() == before


def test_rerun_does_not_load_the_grid(small_run, monkeypatch):
    # every key is stored, so no stage may read or estimate the grid
    plan, store, _ = small_run

    def fail(*args):
        raise AssertionError("grid loaded for a stage with no work")

    monkeypatch.setattr(harness, "_records_from_store", fail)
    monkeypatch.setattr(harness, "simulate_experiment", fail)
    assert all(c == 0 for c in run_plan(plan, store).values())


def test_model_is_built_only_for_a_stage_that_reads_it(small_run, tmp_path,
                                                       monkeypatch):
    # a no-op resume and a decouple-only run never touch the standard model
    plan, store, _ = small_run
    calls = []
    real = harness.make_model
    monkeypatch.setattr(harness, "make_model",
                        lambda **kw: calls.append(kw) or real(**kw))
    monkeypatch.setattr(harness, "OPTIMIZER_RESTARTS", 1)
    assert all(c == 0 for c in run_plan(plan, store).values())
    decouple = ExperimentPlan(name="d", pool_size=10, basis_size=10,
                              shots=None, stages=("decouple",))
    assert run_plan(decouple, ResultsStore(tmp_path / "d")) == {"decouple": 1}
    assert calls == []


def test_run_plan_reads_records_another_writer_appended(tmp_path):
    # a store opened before another run wrote to it must not append those
    # records again once it takes the writer lock
    plan = ExperimentPlan(name="x", pool_size=11, basis_size=10, shots=None,
                          stages=("characterize",))
    stale = ResultsStore(tmp_path)
    run_plan(plan, ResultsStore(tmp_path))
    before = (tmp_path / "records.jsonl").read_bytes()
    assert run_plan(plan, stale) == {"characterize": 0}
    assert (tmp_path / "records.jsonl").read_bytes() == before


@pytest.mark.parametrize("shots", [400, None])
def test_characterize_counts_equal_sampled_records(tmp_path, shots):
    # the stage must store, under each record's key and axis, the counts
    # of that grid entry; spot checks against the per-sequence oracle
    plan = ExperimentPlan(name="grid", pool_size=10, basis_size=10,
                          shots=shots, master_seed=11,
                          stages=("characterize",))
    store = ResultsStore(tmp_path / "s")
    run_plan(plan, store)
    want = simulate_experiment(plan.model(), standard_slots(plan.basis()),
                               shots, 11)
    rows = store.records(stage="characterize", kind="experiment")
    assert len(rows) == want.size // 2
    for doc in rows:
        p = doc["payload"]
        i, j, k = p["key_ijk"]
        assert p["sequence_id"] == f"p{i}_u{j}_u{k}"
        assert p["counts"] == want[i, j, k, AXES.index(p["axis"])].tolist()
        # integers when sampled, exact probabilities otherwise
        assert all(type(c) is (float if shots is None else int)
                   for c in p["counts"])
        assert p["shots"] == shots
    # the loader reads back exactly what was drawn
    assert np.array_equal(harness._records_from_store(plan, store,
                                                      plan.basis()), want)
    for doc in rows[::97]:
        p = doc["payload"]
        _, counts = experiment_oracle(
            plan.model(), standard_sequence(plan.basis(), *p["key_ijk"]),
            shots, 11, p["record_index"])
        assert p["counts"] == counts[AXES.index(p["axis"])].tolist()


def test_noiseless_run_reconstructs_exactly(small_run):
    _, store, _ = small_run
    payload = store.records(stage="evaluate", kind="evaluation")[0]["payload"]
    assert payload["n"] == 10
    assert payload["mean_infidelity"] < 1e-9
    assert payload["median"] == pytest.approx(1.0, abs=1e-9)


def test_evaluation_stats_match_sidecar_table(small_run):
    _, store, _ = small_run
    payload = store.records(stage="evaluate", kind="evaluation")[0]["payload"]
    table = store.load_array(payload["fidelity_table"])
    # held-out sequences draw both slots from outside the basis
    assert table.shape == (4 * (11 - 10) ** 2, 4)
    stats = box_stats(table[:, 3])
    for field in ("median", "q1", "q3", "whisker_lo", "whisker_hi", "mean"):
        assert payload[field] == pytest.approx(getattr(stats, field),
                                               abs=1e-12)
    assert payload["count"] == stats.count


def test_memory_payloads_cover_all_placements(small_run):
    _, store, _ = small_run
    rows = store.records(stage="memory", kind="memory_bound")
    placements = sorted(tuple(r["payload"]["placements"]) for r in rows)
    assert placements == [(1,), (1, 2), (2,)]
    for row in rows:
        p = row["payload"]
        assert p["ci_lo"] <= p["point"] <= p["ci_hi"]
        assert p["bits"] >= 0.0
        # single-slot barriers pad the other slot with a filler unitary
        assert p["has_filler"] == (len(p["placements"]) == 1)


def test_exact_plan_memory_intervals_are_points(small_run):
    # an exact grid is its own redraw, and the point and every redraw go
    # through one readout, so the interval closes on the point
    _, store, _ = small_run
    rows = store.records(stage="memory", kind="memory_bound")
    assert len(rows) == 3
    for row in rows:
        p = row["payload"]
        assert p["ci_lo"] == p["point"] == p["ci_hi"]


def test_memory_stage_resumed_after_a_tear_equals_one_call(tmp_path,
                                                           monkeypatch):
    # a kill while the stage writes placement 2 leaves placement 1 stored
    # and a torn line; the resumed stage must append the other two payloads
    # exactly as an uninterrupted call does
    monkeypatch.setattr(harness, "OPTIMIZER_RESTARTS", 2)
    plan = ExperimentPlan(name="torn", pool_size=11, basis_size=10, shots=400,
                          resamples=8, master_seed=3,
                          stages=("characterize", "memory"))
    whole = ResultsStore(tmp_path / "whole")
    run_plan(plan, whole)
    root = tmp_path / "torn"
    run_plan(plan, ResultsStore(root))
    path = root / "records.jsonl"
    lines = path.read_bytes().splitlines(keepends=True)
    assert [json.loads(line)["key"] for line in lines[-3:]] \
        == ["memory:1", "memory:2", "memory:1+2"]
    path.write_bytes(b"".join(lines[:-2]) + lines[-2][:60])
    resumed = ResultsStore(root)
    assert [d["key"] for d in resumed.records(stage="memory")] == ["memory:1"]
    assert run_plan(plan, resumed) == {"characterize": 0, "memory": 2}
    assert resumed.payload_fingerprint() == whole.payload_fingerprint()
    assert [d["payload"] for d in ResultsStore(root).records(stage="memory")] \
        == [d["payload"] for d in whole.records(stage="memory")]


def test_markov_payload_shape(small_run):
    _, store, _ = small_run
    payload = store.records(stage="markov", kind="markov_comparison")[0][
        "payload"]
    for side in ("tensor", "markov"):
        doc = payload[side]
        assert doc["count"] == 4 * 11 * 11
        assert doc["ci_lo"] <= doc["median"] <= doc["ci_hi"]
    gap = payload["tensor"]["median"] - payload["markov"]["median"]
    assert payload["median_gap"] == pytest.approx(gap, abs=1e-12)


def test_staged_run_equals_single_run(small_run, tmp_path):
    plan, store, _ = small_run
    staged = ResultsStore(tmp_path / "staged")
    for stage in ("characterize", "evaluate", "memory", "markov"):
        run_plan(plan, staged, stages=(stage,))
    assert staged.payload_fingerprint() == store.payload_fingerprint()


def test_staged_run_with_reopened_store_equals_single_run(small_run, tmp_path):
    # each stage on a fresh store object reads the grid back from disk
    plan, store, _ = small_run
    root = tmp_path / "staged"
    for stage in ("characterize", "evaluate", "memory", "markov"):
        run_plan(plan, ResultsStore(root), stages=(stage,))
    assert ResultsStore(root).payload_fingerprint() \
        == store.payload_fingerprint()


# ---------------------------------------------------------------------------
# The grid a store keeps for the stages after characterize
# ---------------------------------------------------------------------------

def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape \
        and np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("shots", [400, None], ids=["sampled", "exact"])
def test_characterize_seeds_the_grid_a_fresh_store_reads(tmp_path, shots,
                                                         monkeypatch):
    plan = ExperimentPlan(name="seed", pool_size=11, basis_size=10,
                          shots=shots, resamples=8, master_seed=13,
                          stages=("characterize", "evaluate"))
    store = ResultsStore(tmp_path)
    run_plan(plan, store, stages=("characterize",))
    counts, states = store._grid
    assert states is None  # the states are estimated by the first reader
    read = harness._records_from_store(plan, ResultsStore(tmp_path),
                                       plan.basis())
    assert _same_bits(counts, read)
    # the next stage takes the seeded grid without reading the records
    real = harness._records_from_store

    def fail(*args):
        raise AssertionError("the seeded grid was read again")

    monkeypatch.setattr(harness, "_records_from_store", fail)
    assert run_plan(plan, store) == {"characterize": 0, "evaluate": 1}
    got_counts, got_states = harness._stored_grid(plan, store, plan.basis())
    assert got_counts is counts
    assert _same_bits(got_states, harness.qst_mle(read, shots))
    monkeypatch.setattr(harness, "_records_from_store", real)
    reader = ResultsStore(tmp_path)
    assert all(_same_bits(a, b) for a, b in zip(
        harness._stored_grid(plan, reader, plan.basis()), store._grid))


def test_resumed_characterize_does_not_seed_the_grid(tmp_path):
    # the tear of test_store_resumes_after_tear_inside_a_grid_row: the
    # resumed run writes part of the grid, so the next stage reads it
    plan = ExperimentPlan(name="torn", pool_size=11, basis_size=10,
                          shots=400, resamples=8, master_seed=3,
                          stages=("characterize", "evaluate"))
    whole = ResultsStore(tmp_path / "whole")
    run_plan(plan, whole)
    root = tmp_path / "torn"
    run_plan(plan, ResultsStore(root), stages=("characterize",))
    path = root / "records.jsonl"
    lines = path.read_bytes().splitlines(keepends=True)
    kept = 44  # inside row (0, 1)
    path.write_bytes(b"".join(lines[:kept]) + lines[kept][:50])
    resumed = ResultsStore(root)
    assert run_plan(plan, resumed, stages=("characterize",)) \
        == {"characterize": len(lines) - kept}
    assert resumed._grid is None
    assert run_plan(plan, resumed) == {"characterize": 0, "evaluate": 1}
    assert resumed._grid is not None
    assert resumed.payload_fingerprint() == whole.payload_fingerprint()
    assert ResultsStore(root).payload_fingerprint() == whole.payload_fingerprint()


def test_grid_memo_follows_the_store(tmp_path):
    plan = ExperimentPlan(name="memo", pool_size=11, basis_size=10,
                          shots=400, resamples=8, master_seed=2,
                          stages=("characterize", "evaluate", "markov"))
    a, b = ResultsStore(tmp_path), ResultsStore(tmp_path)
    run_plan(plan, a, stages=("evaluate",))
    counts, states = a._grid
    for arr in (counts, states):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0, 0, 0] = 0
    # rows of another stage, or only known keys, leave the grid in place
    a.append(plan.name, "note", 2, "note:a", {"kind": "note"})
    a.extend(plan.name, "characterize", 2, [("experiment:p0_u0_u0:X", {}, "{}")])
    assert a._grid[0] is counts and a._grid[1] is states
    # another writer's characterize record reaches a's next call
    b.append(plan.name, "characterize", 2, "bad",
             dict(GOOD_EXPERIMENT, axis="W", shots=400, counts=[400, 0]))
    line = len((tmp_path / "records.jsonl").read_text().splitlines())
    with pytest.raises(ConfigError) as err:
        run_plan(plan, a, stages=("markov",))
    assert f"store {a.records_path}: line {line} is not an experiment " \
        "record" in str(err.value)
    # a's own characterize row drops the grid as well
    c = ResultsStore(tmp_path / "c")
    run_plan(plan, c, stages=("evaluate",))
    assert c._grid is not None
    c.append(plan.name, "characterize", 2, "extra",
             dict(GOOD_EXPERIMENT, shots=400, counts=[400, 0]))
    assert c._grid is None
    # grid rows cut from the file, then another writer's append: d's next
    # call reloads, walks the grid again and writes the cut rows back
    d = ResultsStore(tmp_path / "d")
    run_plan(plan, d, stages=("evaluate",))
    counts, states = d._grid
    lines = d.records_path.read_bytes().splitlines(keepends=True)
    kept = [ln for ln in lines if b'"sequence_id":"p3_u10_u' not in ln]
    assert len(lines) - len(kept) == 3 * 11
    d.records_path.write_bytes(b"".join(kept))
    ResultsStore(d.root).append(plan.name, "note", 2, "note:d",
                                {"kind": "note"})
    assert run_plan(plan, d, stages=("markov",)) \
        == {"characterize": 3 * 11, "markov": 1}
    assert _same_bits(d._grid[0], counts) and _same_bits(d._grid[1], states)


def test_kept_grid_skips_the_characterize_walk(tmp_path, monkeypatch):
    # while a store keeps its grid, every grid key is stored, so a later
    # stage's characterize dependency looks none of them up: whether the
    # grid was seeded by characterize or read after a reopened store's walk
    plan = ExperimentPlan(name="walk", pool_size=11, basis_size=10,
                          shots=400, resamples=8, master_seed=4,
                          stages=("characterize", "evaluate", "markov"))
    real = ResultsStore.has

    def has(self, key):
        assert not key.startswith("experiment:"), f"{key} looked up"
        return real(self, key)

    seeded = ResultsStore(tmp_path / "seeded")
    run_plan(plan, seeded, stages=("characterize",))
    assert seeded._grid is not None
    read = ResultsStore(tmp_path / "read")
    run_plan(plan, read, stages=("characterize",))
    read = ResultsStore(read.root)
    assert run_plan(plan, read, stages=("evaluate",)) \
        == {"characterize": 0, "evaluate": 1}
    assert read._grid is not None
    monkeypatch.setattr(ResultsStore, "has", has)
    assert run_plan(plan, seeded, stages=("evaluate",)) \
        == {"characterize": 0, "evaluate": 1}
    for store in (seeded, read):
        assert run_plan(plan, store, stages=("markov",)) \
            == {"characterize": 0, "markov": 1}
    monkeypatch.undo()
    whole = ResultsStore(tmp_path / "whole")
    run_plan(plan, whole)
    for store in (seeded, read):
        assert store.payload_fingerprint() == whole.payload_fingerprint()


def test_store_rejects_other_plan_config(small_run):
    plan, store, _ = small_run
    with pytest.raises(ConfigError) as err:
        run_plan(replace(plan, shots=400), store)
    assert "shots" in str(err.value)
    # same config with different stages is the staged-run pattern, allowed
    counts = run_plan(replace(plan, stages=("evaluate",)), store)
    assert counts == {"characterize": 0, "evaluate": 0}


def test_records_from_store_validates_foreign_stores(tmp_path):
    # running evaluate on a partial store self-heals because the
    # characterize dependency reruns first; the loader guards are for
    # stores written by something else, so exercise them directly
    plan = ExperimentPlan(**SMALL_PLAN)
    store = ResultsStore(tmp_path / "s")
    payload = {"kind": "experiment", "sequence_id": "p0_u0_u0",
               "key_ijk": [0, 0, 0], "axis": "X", "counts": [1.0, 0.0],
               "shots": None, "record_index": 0}
    store.append(plan.name, "characterize", 5, "experiment:p0_u0_u0:X",
                 payload)
    store.append(plan.name, "characterize", 5, "experiment:p0_u0_u0:Y",
                 dict(payload, axis="Y"))
    with pytest.raises(ConfigError) as err:
        harness._records_from_store(plan, store, plan.basis())
    assert "missing axes" in str(err.value)
    store.append(plan.name, "characterize", 5, "experiment:p0_u0_u0:Z",
                 dict(payload, axis="Z"))
    with pytest.raises(ConfigError) as err:
        harness._records_from_store(plan, store, plan.basis())
    assert "incomplete" in str(err.value)


GOOD_EXPERIMENT = {"kind": "experiment", "sequence_id": "p0_u0_u0",
                   "key_ijk": [0, 0, 0], "axis": "X", "counts": [1.0, 0.0],
                   "shots": None, "record_index": 0}


MISSING = object()


@pytest.mark.parametrize("change, fragment", [
    ({"key_ijk": MISSING}, "key_ijk"),
    ({"key_ijk": [0, 0]}, "key_ijk"),
    ({"key_ijk": [0, True, 0]}, "key_ijk"),
    ({"key_ijk": [4, 0, 0]}, "outside"),
    ({"key_ijk": [0, -1, 0]}, "outside"),
    ({"axis": "W"}, "axis"),
    ({"axis": MISSING}, "axis"),
    ({"counts": [1.0]}, "counts"),
    ({"counts": "1,0"}, "counts"),
    ({"shots": 0}, "shots"),
    ({"shots": MISSING}, "shots"),
    ({"sequence_id": 7}, "sequence_id"),
])
def test_records_from_store_names_the_bad_line(tmp_path, change, fragment):
    plan = ExperimentPlan(**SMALL_PLAN)
    store = ResultsStore(tmp_path / "s")
    store.append(plan.name, "characterize", 5, "a", GOOD_EXPERIMENT)
    bad = {k: v for k, v in {**GOOD_EXPERIMENT, "axis": "Y", **change}.items()
           if v is not MISSING}
    store.append(plan.name, "characterize", 5, "b", bad)
    with pytest.raises(ConfigError) as err:
        harness._records_from_store(plan, store, plan.basis())
    assert "line 2 is not an experiment record" in str(err.value)
    assert fragment in str(err.value)


def test_records_from_store_rejects_counts_that_miss_the_shots(tmp_path):
    plan = ExperimentPlan(**SMALL_PLAN)
    store = ResultsStore(tmp_path / "s")
    for ax in "XYZ":
        store.append(plan.name, "characterize", 5, ax,
                     dict(GOOD_EXPERIMENT, axis=ax, counts=[300, 99],
                          shots=400))
    with pytest.raises(ConfigError) as err:
        harness._records_from_store(plan, store, plan.basis())
    assert "p0_u0_u0" in str(err.value)


@pytest.mark.parametrize("shots, counts, fragment", [
    (1600, [800, 700], "do not sum"),
    (1600, [-1, 1601], "negative"),
    (1600, [800.5, 799.5], "do not sum"),  # not integers
    (None, [0.6, 0.5], "sum to 1.1"),
    (400, [200, 200], "differ from the plan"),  # the plan's shots are 1600
    (1600, [float("nan"), 1600], "not finite"),
    (1600, [float("inf"), 0], "not finite"),
    (1600, [10**400, 0], "not finite"),  # beyond the float range
    (None, [float("nan"), float("nan")], "not finite"),
    (None, [float("inf"), -float("inf")], "not finite"),
])
def test_records_from_store_rejects_invalid_counts(tmp_path, shots, counts,
                                                   fragment):
    # the checks a sequence's counts must pass before any estimate: each
    # failure names the sequence and the axis
    plan = ExperimentPlan(**dict(SMALL_PLAN,
                                 shots=1600 if shots == 400 else shots))
    store = ResultsStore(tmp_path / "s")
    good = [plan.shots, 0] if plan.shots is not None else [1.0, 0.0]
    for ax in "XYZ":
        bad = ax == "Y"
        store.append(plan.name, "characterize", 5, ax,
                     dict(GOOD_EXPERIMENT, axis=ax,
                          shots=shots if bad else plan.shots,
                          counts=counts if bad else good))
    with pytest.raises(ConfigError) as err:
        harness._records_from_store(plan, store, plan.basis())
    assert "sequence p0_u0_u0: axis Y" in str(err.value)
    assert fragment in str(err.value)


@pytest.mark.parametrize("shots", [400, None], ids=["sampled", "exact"])
def test_non_finite_stored_counts_exit_2_through_the_cli(tmp_path, shots):
    raw = {"name": "nan", "pool_size": 11, "basis_size": 10, "shots": shots,
           "resamples": 8, "stages": ["characterize", "evaluate"]}
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(raw))
    root = tmp_path / "s"
    run_plan(plan_from_dict(raw), ResultsStore(root), stages=("characterize",))
    path = root / "records.jsonl"
    lines = path.read_text().splitlines(keepends=True)
    doc = json.loads(lines[1])
    doc["payload"]["counts"][0] = float("nan")
    lines[1] = harness._canonical(doc) + "\n"
    path.write_text("".join(lines))
    result = CliRunner().invoke(main, ["run-plan", "--plan", str(plan_path),
                                       "--out", str(root),
                                       "--stage", "evaluate"])
    assert result.exit_code == 2
    assert f"sequence {doc['payload']['sequence_id']}" in result.output
    assert "not finite" in result.output


def test_records_from_store_later_line_wins(tmp_path):
    # two records for one (i, j, k, axis) under different keys: the loader
    # keeps the counts of the later line, in memory and read back
    plan = ExperimentPlan(name="dup", pool_size=10, basis_size=10, shots=400,
                          master_seed=3, stages=("characterize",))
    store = ResultsStore(tmp_path / "s")
    run_plan(plan, store)
    want = harness._records_from_store(plan, store, plan.basis())
    assert want[1, 2, 3, 1].tolist() not in ([400, 0], [0, 400])
    for key, counts in (("dup:a", [400, 0]), ("dup:b", [0, 400])):
        store.append(plan.name, "characterize", 3, key,
                     dict(GOOD_EXPERIMENT, sequence_id="p1_u2_u3",
                          key_ijk=[1, 2, 3], axis="Y", counts=counts,
                          shots=400))
    want[1, 2, 3, 1] = [0, 400]
    for reader in (store, ResultsStore(tmp_path / "s")):
        got = harness._records_from_store(plan, reader, plan.basis())
        assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def test_report_requires_evaluate_stage(tmp_path):
    plan = ExperimentPlan(name="empty")
    store = ResultsStore(tmp_path / "s")
    with pytest.raises(ConfigError) as err:
        report(plan, store, tmp_path / "report")
    assert "evaluate" in str(err.value)


def _evaluation_only_store(root):
    store = ResultsStore(root)
    store.append("ev", "evaluate", 0, "evaluation:n10", {
        "kind": "evaluation", "n": 10, "mean_infidelity": 0.01,
        "ci_lo": 0.005, "ci_hi": 0.02, "median": 0.99, "q1": 0.98,
        "q3": 0.995, "whisker_lo": 0.97, "whisker_hi": 1.0, "mean": 0.99,
        "count": 1, "fidelity_table": store.save_array(np.zeros((1, 4)))})
    return store


def test_report_requires_the_plan_manifest(tmp_path):
    # the summary describes the stored configuration, so a store without
    # its manifest cannot be reported
    store = _evaluation_only_store(tmp_path / "s")
    with pytest.raises(ConfigError, match="holds no plan manifest"):
        report(ExperimentPlan(name="ev"), store, tmp_path / "report")
    assert not (tmp_path / "report").exists()


def test_report_refuses_another_plans_store(tmp_path):
    store = _evaluation_only_store(tmp_path / "s")
    run_plan(ExperimentPlan(name="ev"), store, stages=())
    with pytest.raises(ConfigError, match="holds plan 'ev', not 'other'"):
        report(ExperimentPlan(name="other"), store, tmp_path / "report")


def test_report_writes_evaluation_tables(small_run, tmp_path):
    plan, store, _ = small_run
    written = report(plan, store, tmp_path / "report")
    assert set(written) == {"fidelity_vs_n", "box_stats", "memory_bounds",
                            "markov_comparison", "summary"}
    fidelity = written["fidelity_vs_n"].read_text().splitlines()
    assert fidelity[0] == "n,mean_infidelity,ci_lo,ci_hi"
    assert len(fidelity) == 2
    box = written["box_stats"].read_text().splitlines()
    assert box[0] == "n,median,q1,q3,whisker_lo,whisker_hi,mean,count"
    memory = written["memory_bounds"].read_text().splitlines()
    assert memory[0] == "placements,bits,ci_lo,ci_hi"
    assert [row.split(",")[0] for row in memory[1:]] == ["1", "2", "1+2"]
    summary = written["summary"].read_text()
    assert "median 1.0000" in summary
    assert "memory bounds" in summary
    assert "markov comparison" in summary


def _fake_trajectory(label):
    return {"label": label, "time_ns": [0.0, 500.0],
            "negativity": [0.0, 0.1], "mutual_info_bits": [0.0, 0.2],
            "purity_q1": [1.0, 0.9], "purity_q2": [1.0, 0.95]}


def test_report_includes_control_sections(tmp_path):
    # control rows are exercised against a handcrafted store so the slow
    # optimizer stages stay out of the unit suite
    plan = ExperimentPlan(name="ctl", resamples=4)
    store = ResultsStore(tmp_path / "s")
    run_plan(plan, store, stages=())  # writes the plan manifest only
    table = store.save_array(np.array([[0, 0, 0, 0.99]]))
    store.append("ctl", "evaluate", 0, "evaluation:n24", {
        "kind": "evaluation", "n": 24, "mean_infidelity": 0.01,
        "ci_lo": 0.005, "ci_hi": 0.02, "median": 0.99, "q1": 0.98,
        "q3": 0.995, "whisker_lo": 0.97, "whisker_hi": 1.0, "mean": 0.99,
        "count": 1, "fidelity_table": table})
    store.append("ctl", "decouple", 0, "decouple:result", {
        "kind": "decoupling", "params": [3.14, 0.0, 3.14],
        "objective": 1e-12, "identity_objective": 0.02,
        "axis": [1.0, 0.0, 0.0], "angle": 3.1416, "degenerate": False,
        "restarts": 4,
        "trajectories": [_fake_trajectory("idle"),
                         _fake_trajectory("decoupled"),
                         _fake_trajectory("xy4")]})
    store.append("ctl", "synthesize", 0, "synthesize:sweep", {
        "kind": "synthesis", "alpha": 0.4,
        "points": [{"eta": 0.0, "target_unitarity": 1.0, "loss": 0.01,
                    "params": [0.1, 0.2, 0.3], "process_fidelity": 0.99,
                    "realized_unitarity": 0.97},
                   {"eta": 0.5, "target_unitarity": 1 / 3, "loss": 0.2,
                    "params": [0.1, 0.2, 0.3], "process_fidelity": 0.7,
                    "realized_unitarity": 0.8}]})
    written = report(plan, store, tmp_path / "report")
    trajectories = written["control_trajectories"].read_text().splitlines()
    assert trajectories[0] == ("label,time_ns,negativity,mutual_info_bits,"
                               "purity_q1,purity_q2")
    labels = {row.split(",")[0] for row in trajectories[1:]}
    assert labels == {"idle", "decoupled", "xy4"}
    sweep = written["synthesis_sweep"].read_text().splitlines()
    assert sweep[0] == ("eta,target_unitarity,loss,process_fidelity,"
                        "realized_unitarity")
    assert len(sweep) == 3
    summary = written["summary"].read_text()
    assert "decoupling: angle 3.1416" in summary
    assert "synthesis: alpha 0.4000" in summary
    assert "peak process fidelity 0.9900 at eta 0.00" in summary


def test_decouple_payload_stores_simulated_trajectories(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "OPTIMIZER_RESTARTS", 3)
    plan = ExperimentPlan(name="dec-run", pool_size=10, basis_size=10,
                          shots=None, master_seed=4, stages=("decouple",))
    store = ResultsStore(tmp_path / "s")
    assert run_plan(plan, store) == {"decouple": 1}
    dec = store.records(stage="decouple")[0]["payload"]
    stored = dec["trajectories"]
    assert [t["label"] for t in stored] == ["idle", "decoupled", "xy4"]
    gate = u3_matrix(*dec["params"])
    for doc, cycle in zip(stored, (None, (gate,), XY4_CYCLE)):
        want = simulate_trajectory(cycle, exchange_khz=plan.exchange_khz,
                                   zz_khz=plan.zz_khz)
        assert doc["time_ns"] == want.time_ns.tolist()
        for name in ("negativity", "mutual_info_bits", "purity_q1",
                     "purity_q2"):
            assert doc[name] == getattr(want, name).tolist(), name


def test_control_stages_store_results(tmp_path):
    saved_restarts = harness.OPTIMIZER_RESTARTS
    saved_sweep = harness.synthesis_sweep
    harness.OPTIMIZER_RESTARTS = 3

    def small_sweep(pt, model, alpha, restarts, seed):
        return saved_sweep(pt, model, alpha, etas=[0.0, 0.3],
                           restarts=restarts, seed=seed)

    harness.synthesis_sweep = small_sweep
    try:
        plan = ExperimentPlan(name="ctl-run", pool_size=10, basis_size=10,
                              shots=None, master_seed=2,
                              stages=("decouple", "synthesize"))
        store = ResultsStore(tmp_path / "s")
        counts = run_plan(plan, store)
    finally:
        harness.OPTIMIZER_RESTARTS = saved_restarts
        harness.synthesis_sweep = saved_sweep
    assert counts == {"decouple": 1, "synthesize": 1}
    dec = store.records(stage="decouple")[0]["payload"]
    assert dec["objective"] <= dec["identity_objective"]
    labels = [t["label"] for t in dec["trajectories"]]
    assert labels == ["idle", "decoupled", "xy4"]
    syn = store.records(stage="synthesize")[0]["payload"]
    assert 0.1 <= syn["alpha"] <= 0.8
    assert [p["eta"] for p in syn["points"]] == [0.0, 0.3]
    assert all(0.0 <= p["process_fidelity"] <= 1.0 for p in syn["points"])
