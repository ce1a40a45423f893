"""Golden-file pins on the store schema and report tables.

The golden values were produced by this package on the reference
platform. Structure, keys and integer cells must match exactly; float
cells are compared to 1e-9 because linear-algebra backends may differ
in the last few ulps. Bit-exact determinism is asserted separately by
running the same plan twice in one session.
"""

import json
from pathlib import Path

import pytest

from proctensor.harness import (ExperimentPlan, ResultsStore, load_plan,
                               plan_from_dict, report, run_plan)

from helpers import assert_csv_close, assert_json_close

DATA = Path(__file__).parent / "data"

GOLDEN_PLAN = dict(name="golden", pool_size=11, basis_size=10, shots=1600,
                   resamples=6, master_seed=5,
                   stages=("characterize", "evaluate"))


def _strip_timestamps(text):
    lines = []
    for line in text.splitlines():
        doc = json.loads(line)
        doc.pop("created_utc", None)
        lines.append(json.dumps(doc, sort_keys=True, separators=(",", ":")))
    return "\n".join(lines)


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    plan = ExperimentPlan(**GOLDEN_PLAN)
    store = ResultsStore(root / "store")
    run_plan(plan, store)
    written = report(plan, store, root / "report")
    return plan, store, written


def test_store_head_matches_golden(golden_run):
    _, store, _ = golden_run
    lines = (store.root / "records.jsonl").read_text().splitlines()
    docs = [json.loads(line) for line in lines]
    evaluation = next(d for d in docs if d["stage"] == "evaluate")
    head = [docs[0], docs[1], evaluation]
    for doc in head:
        doc.pop("created_utc")
    golden = json.loads((DATA / "golden_store_head.json").read_text())
    assert_json_close(head, golden)


@pytest.mark.parametrize("name", ["fidelity_vs_n", "box_stats"])
def test_report_csv_matches_golden(golden_run, name):
    _, _, written = golden_run
    golden = (DATA / f"golden_{name}.csv").read_text()
    assert_csv_close(written[name].read_text(), golden, name)


def test_identical_plans_are_bit_exact(golden_run, tmp_path):
    plan, store, written = golden_run
    other = ResultsStore(tmp_path / "store")
    run_plan(plan, other)
    rewritten = report(plan, other, tmp_path / "report")
    first = _strip_timestamps((store.root / "records.jsonl").read_text())
    second = _strip_timestamps((other.root / "records.jsonl").read_text())
    assert first == second
    for name, path in written.items():
        assert rewritten[name].read_bytes() == path.read_bytes()


QUICKSTART = Path(__file__).parents[1] / "plans" / "quickstart.json"
# a small plan whose store holds a Markov comparison payload
MARKOV_PLAN = {"name": "mk", "pool_size": 12, "basis_size": 10, "shots": 1600,
               "resamples": 20, "master_seed": 3, "duration_ns": 2500.0,
               "env_init": "plus",
               "stages": ["characterize", "evaluate", "markov"]}
# a small plan whose store holds only the decoupling payload
DECOUPLE_PLAN = {"name": "d", "pool_size": 14, "basis_size": 12, "shots": 1600,
                 "master_seed": 0, "pool_seed": 0, "stages": ["decouple"]}
# a small plan whose store holds the memory and synthesis payloads, searched
# with the program's own restart count
MEMORY_SYNTHESIS_PLAN = {"name": "ms", "pool_size": 11, "basis_size": 10,
                         "shots": 1600, "resamples": 20, "master_seed": 1,
                         "stages": ["characterize", "memory", "synthesize"]}


@pytest.mark.parametrize("plan_of, fingerprint", [
    (lambda: load_plan(QUICKSTART),
     "aa3f54442e7bb771e62fa8814b82bae78b639c189f5abce41f0f2be0002ff9e6"),
    (lambda: plan_from_dict(MARKOV_PLAN),
     "88d25ef1f60a72304b10ebda152e446578f665209ebc2b5ededc755414f8459a"),
    (lambda: plan_from_dict(DECOUPLE_PLAN),
     "3174b552da801b5d8cdc85fddb84163f1c364ca39fad6083d469f539e4e507b4"),
    (lambda: plan_from_dict(MEMORY_SYNTHESIS_PLAN),
     "92dbbe1abe7a3be702f7d38f4705c3b2fd7db0abe6775a1dec09629c8d9fd97f"),
], ids=["quickstart", "markov", "decouple", "memory_synthesize"])
def test_quickstart_store_fingerprint_is_pinned(tmp_path, plan_of, fingerprint):
    # the whole store of the plan, every payload bit included
    plan = plan_of()
    store = ResultsStore(tmp_path / "store")
    run_plan(plan, store)
    assert store.payload_fingerprint() == fingerprint
