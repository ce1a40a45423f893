"""Command line entry points."""

import hashlib
import json
import os
import subprocess
import sys

from pathlib import Path

import click
import pytest
from click.testing import CliRunner

from proctensor import control, memory, qcore, tomography
from proctensor.cli import handle_errors, main
from proctensor.harness import ResultsStore
from proctensor.qcore import NumericalError


QUICKSTART = Path(__file__).parents[1] / "plans" / "quickstart.json"


@pytest.fixture
def runner():
    return CliRunner()


def test_generate_basis_is_deterministic(runner, tmp_path):
    digests = []
    for name in ("a.json", "b.json"):
        path = tmp_path / name
        result = runner.invoke(main, ["generate-basis", "--seed", "7",
                                      "--size", "12", "--out", str(path)])
        assert result.exit_code == 0, result.output
        digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
    assert digests[0] == digests[1]
    doc = json.loads((tmp_path / "a.json").read_text())
    assert doc["seed"] == 7
    assert len(doc["unitaries"]) == 12
    assert len(doc["preparations"]) == 4
    assert all("label" in p and "gate" in p for p in doc["preparations"])


def test_generate_basis_rejects_bad_size(runner, tmp_path):
    result = runner.invoke(main, ["generate-basis", "--size", "99",
                                  "--out", str(tmp_path / "x.json")])
    assert result.exit_code == 2
    assert "size" in result.output


def test_run_plan_missing_file(runner, tmp_path):
    result = runner.invoke(main, ["run-plan", "--plan",
                                  str(tmp_path / "nope.json"),
                                  "--out", str(tmp_path / "store")])
    assert result.exit_code == 2
    assert "nope.json" in result.output


def test_run_plan_invalid_plan(runner, tmp_path):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"name": "x", "pool_size": 7}))
    result = runner.invoke(main, ["run-plan", "--plan", str(plan),
                                  "--out", str(tmp_path / "store")])
    assert result.exit_code == 2
    assert "pool_size" in result.output


def test_plan_file_that_is_not_utf8_exits_2(runner, tmp_path):
    plan = tmp_path / "plan.json"
    plan.write_bytes(b"\xff\xfe{}")  # a UTF-16 byte order mark
    result = runner.invoke(main, ["run-plan", "--plan", str(plan),
                                  "--out", str(tmp_path / "store")])
    assert result.exit_code == 2, result.output
    assert f"plan file {plan}: not UTF-8" in result.output
    assert not (tmp_path / "store").exists()


def test_bad_shots_override(runner, tmp_path):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"name": "x"}))
    result = runner.invoke(main, ["run-plan", "--plan", str(plan),
                                  "--out", str(tmp_path / "store"),
                                  "--shots", "-5"])
    assert result.exit_code == 2
    assert "shots" in result.output


@pytest.mark.parametrize("fields, extra", [
    ({"master_seed": -1}, []),
    ({"pool_seed": -3}, []),
    ({}, ["--seed", "-5"]),
    ({}, ["--shots", "0"]),
    ({"duration_ns": float("inf")}, []),
    ({"duration_ns": float("-inf")}, []),
    ({"exchange_khz": float("inf")}, []),
    ({"zz_khz": float("inf")}, []),
    ({"idle_scale": float("inf")}, []),
    ({"zz_khz": float("nan")}, []),
    ({"duration_ns": 10 ** 400}, []),
    ({"duration_ns": 1e200, "idle_scale": 1e200}, []),
    ({"exchange_khz": 1e308}, []),
    ({"zz_khz": 1e308}, []),
    ({"shots": 10 ** 20}, []),
    ({}, ["--shots", str(2 ** 63)]),
], ids=["master-seed", "pool-seed", "seed-override", "shots-override",
        "duration-inf", "duration-minus-inf", "exchange-inf", "zz-inf",
        "idle-scale-inf", "zz-nan", "duration-huge-int", "interval-overflows",
        "exchange-overflows", "zz-overflows", "shots-beyond-int64",
        "shots-override-beyond-int64"])
def test_invalid_seed_or_number_exits_2(runner, tmp_path, fields, extra):
    # json writes inf and nan as Infinity and NaN, which json.loads accepts;
    # numpy's samplers take int64 shots, and a phase that overflows gives
    # no interval propagator
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"name": "x", "pool_size": 10,
                                "basis_size": 10, "shots": 64,
                                "stages": ["characterize"], **fields}))
    store = tmp_path / "store"
    result = runner.invoke(main, ["run-plan", "--plan", str(plan),
                                  "--out", str(store)] + extra)
    assert result.exit_code == 2, result.output
    assert result.output.startswith("config error: ")
    assert not (store / "records.jsonl").exists()


_SCIPY_FREE_RUN = """
import json, sys
import proctensor.cli
from proctensor import harness
harness.OPTIMIZER_RESTARTS = 1  # as the benchmark's optimiser workloads do
plan, out = sys.argv[1:]
proctensor.cli.main(["run-plan", "--plan", plan, "--out", out],
                    standalone_mode=False)
print(json.dumps(sorted(m for m in sys.modules if m.startswith("scipy"))))
"""


def test_no_stage_imports_scipy(tmp_path):
    # pytest has already loaded scipy, so the run needs a fresh interpreter
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({
        "name": "scipy-free", "pool_size": 11, "basis_size": 10,
        "shots": 64, "resamples": 2, "master_seed": 5,
        "stages": ["characterize", "evaluate", "memory", "markov",
                   "decouple", "synthesize"]}))
    src = Path(__file__).parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-c", _SCIPY_FREE_RUN, str(plan), str(tmp_path / "s")],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")]))})
    assert done.returncode == 0, done.stderr
    assert "synthesize: 1 records appended" in done.stdout
    assert json.loads(done.stdout.splitlines()[-1]) == []


def test_generate_basis_rejects_negative_seed(runner, tmp_path):
    path = tmp_path / "x.json"
    result = runner.invoke(main, ["generate-basis", "--seed", "-1",
                                  "--out", str(path)])
    assert result.exit_code == 2, result.output
    assert "seed: must be a non-negative integer" in result.output
    assert not path.exists()


def test_report_header_describes_the_stored_configuration(runner, tmp_path):
    # the run overrides the plan's seed and shots; the report must show the
    # values the store holds, and score the headline row at the stored
    # basis size even after the plan file changes
    plan = tmp_path / "plan.json"
    plan.write_text(QUICKSTART.read_text())
    store = tmp_path / "store"
    args = ["--plan", str(plan), "--out", str(store)]
    result = runner.invoke(main, ["run-plan"] + args
                           + ["--seed", "5", "--shots", "800"])
    assert result.exit_code == 0, result.output
    edited = json.loads(plan.read_text())
    edited.update(pool_size=20, basis_size=10)
    plan.write_text(json.dumps(edited))
    result = runner.invoke(main, ["report"] + args)
    assert result.exit_code == 0, result.output
    summary = (store / "report" / "summary.txt").read_text().splitlines()
    assert summary[:3] == ["plan: quickstart", "pool: 14 (seed 7), shots: 800",
                           "master seed: 5"]
    assert " at n=12 " in summary[3]


def test_report_requires_evaluate(runner, tmp_path):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"name": "x"}))
    result = runner.invoke(main, ["report", "--plan", str(plan),
                                  "--out", str(tmp_path / "store")])
    assert result.exit_code == 2
    assert "evaluate" in result.output


def test_report_on_a_path_without_a_store_creates_nothing(runner, tmp_path):
    out = tmp_path / "fresh"
    result = runner.invoke(main, ["report", "--plan", str(QUICKSTART),
                                  "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert f"{out} holds no results store" in result.output
    assert not out.exists()


@pytest.mark.parametrize("line", [
    "[1,2]",
    '{"schema_version":"1.0"}',
    '{"schema_version":"1.0","plan":"x","stage":"s","seed":0,"key":"k",'
    '"payload":[1]}',
    '{"schema_version":"1.0","plan":"x","stage":"s","seed":0,"key":[1],'
    '"payload":{}}',
])
def test_store_line_that_is_not_a_record_exits_2(runner, tmp_path, line):
    store = tmp_path / "store"
    store.mkdir()
    (store / "records.jsonl").write_text(line + "\n")
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"name": "x"}))
    result = runner.invoke(main, ["run-plan", "--plan", str(plan),
                                  "--out", str(store)])
    assert result.exit_code == 2, result.output
    assert "line 1" in result.output


def test_evaluate_with_the_whole_pool_as_basis_exits_2(runner, tmp_path):
    # the plan stages only characterize, so it loads; a held-out evaluation
    # of it has no held-out gates and must fail before the store is written
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"name": "q", "pool_size": 10, "basis_size": 10,
                                "shots": None, "stages": ["characterize"]}))
    store = tmp_path / "store"
    args = ["--plan", str(plan), "--out", str(store)]
    assert runner.invoke(main, ["run-plan"] + args).exit_code == 0
    before = (store / "records.jsonl").read_bytes()
    for out in (store, tmp_path / "fresh"):
        result = runner.invoke(main, ["evaluate", "--plan", str(plan),
                                      "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert "basis_size: must be smaller than pool_size" in result.output
    assert (store / "records.jsonl").read_bytes() == before
    assert not (tmp_path / "fresh" / "records.jsonl").exists()


@pytest.mark.parametrize("fields, stage, message", [
    # the Markov baseline scales the shots by pool^2 / (1 + 2 pool): 4.76x
    # at pool 10, past numpy's int64 sampler
    ({"pool_size": 10, "shots": 2**62}, "markov",
     "shots: the Markov baseline scales it to"),
], ids=["markov-shots"])
def test_stage_the_plan_cannot_run_exits_2(runner, tmp_path, fields, stage,
                                           message):
    # the plan loads; the stage is rejected before the store is written,
    # whether the plan lists it or the command line asks for it
    plan = tmp_path / "plan.json"
    for stages, extra in (([stage], []), (["characterize"], ["--stage", stage])):
        plan.write_text(json.dumps({"name": "q", "basis_size": 10, **fields,
                                    "stages": stages}))
        store = tmp_path / f"store-{len(extra)}"
        result = runner.invoke(main, ["run-plan", "--plan", str(plan),
                                      "--out", str(store)] + extra)
        assert result.exit_code == 2, result.output
        assert message in result.output
        assert not (store / "records.jsonl").exists()


def test_bad_characterize_payload_exits_2(runner, tmp_path):
    # a well-formed record whose experiment payload lacks its fields
    store = tmp_path / "store"
    store.mkdir()
    (store / "records.jsonl").write_text(
        '{"schema_version":"1.0","plan":"x","stage":"characterize","seed":0,'
        '"key":"k","payload":{"kind":"experiment"}}\n')
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"name": "x", "pool_size": 11,
                                "basis_size": 10, "shots": None}))
    result = runner.invoke(main, ["run-plan", "--plan", str(plan),
                                  "--out", str(store), "--stage", "evaluate"])
    assert result.exit_code == 2, result.output
    assert "line 1 is not an experiment record: key_ijk" in result.output


def test_counts_that_miss_the_shots_exit_2(runner, tmp_path):
    # a stored grid edited after characterize: one axis loses a count
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"name": "x", "pool_size": 11,
                                "basis_size": 10, "shots": 400}))
    store = tmp_path / "store"
    args = ["run-plan", "--plan", str(plan), "--out", str(store)]
    assert runner.invoke(main, args + ["--stage", "characterize"]).exit_code == 0
    path = store / "records.jsonl"
    lines = path.read_text().splitlines(keepends=True)
    at = next(n for n, line in enumerate(lines)
              if '"key":"experiment:p0_u0_u0:Z"' in line)
    doc = json.loads(lines[at])
    doc["payload"]["counts"][0] -= 1
    lines[at] = json.dumps(doc) + "\n"
    path.write_text("".join(lines))
    result = runner.invoke(main, args + ["--stage", "evaluate"])
    assert result.exit_code == 2, result.output
    assert "sequence p0_u0_u0: axis Z counts" in result.output


def test_second_writer_on_a_locked_store_exits_2(runner, tmp_path):
    # while one run holds the store's writer lock, a second run-plan on the
    # same store fails at once and appends nothing
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"name": "x", "pool_size": 11,
                                "basis_size": 10, "shots": None}))
    store = tmp_path / "store"
    args = ["run-plan", "--plan", str(plan), "--out", str(store)]
    assert runner.invoke(main, args + ["--stage", "characterize"]).exit_code == 0
    before = (store / "records.jsonl").read_bytes()
    with ResultsStore(store).lock():
        result = runner.invoke(main, args + ["--stage", "evaluate"])
    assert result.exit_code == 2, result.output
    assert f"store {store}: another run is writing to it" in result.output
    assert (store / "records.jsonl").read_bytes() == before
    # the lock is released with the first writer
    assert runner.invoke(main, args + ["--stage", "evaluate"]).exit_code == 0


def test_readers_leave_a_torn_line_of_a_locked_store(runner, tmp_path):
    # a record another run is still appending has no newline yet; opening
    # the store or reporting from it must not cut that line off
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"name": "x", "pool_size": 11,
                                "basis_size": 10, "shots": None,
                                "resamples": 4,
                                "stages": ["characterize", "evaluate"]}))
    store = tmp_path / "store"
    args = ["--plan", str(plan), "--out", str(store)]
    assert runner.invoke(main, ["run-plan"] + args).exit_code == 0
    path = store / "records.jsonl"
    whole = path.read_bytes()
    with ResultsStore(store).lock():
        with path.open("ab") as fh:
            fh.write(b'{"schema_version":"1.0","plan":"x","sta')
        before = path.read_bytes()
        reader = ResultsStore(store)
        assert path.read_bytes() == before
        result = runner.invoke(main, ["report"] + args)
        assert result.exit_code == 0, result.output
        assert path.read_bytes() == before
    assert len(reader.records()) == whole.count(b"\n")
    # once the lock is free, the next open repairs the torn line
    ResultsStore(store)
    assert path.read_bytes() == whole


def test_cptp_non_convergence_exits_3(runner, tmp_path, monkeypatch):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"name": "x", "pool_size": 11,
                                "basis_size": 10, "shots": 400}))
    store = tmp_path / "store"
    args = ["--plan", str(plan), "--out", str(store)]
    assert runner.invoke(main, ["run-plan"] + args
                         + ["--stage", "characterize"]).exit_code == 0
    monkeypatch.setattr(tomography, "CPTP_MAX_ITER", 1)
    result = runner.invoke(main, ["compare-markov"] + args)
    assert result.exit_code == 3, result.output
    assert "numerical failure: CPTP projection of Choi matrix (" \
        in result.output
    assert not ResultsStore(store).records(stage="markov")


def test_numerical_failures_exit_3(runner):
    @click.command()
    @handle_errors
    def boom():
        raise NumericalError("optimizer diverged")

    result = runner.invoke(boom, [])
    assert result.exit_code == 3
    assert "numerical failure: optimizer diverged" in result.output


def _nan(*args):
    return float("nan")


def _nan_per_lane(kernel, xs):
    return [float("nan")] * len(xs)


@pytest.mark.parametrize("command, module, objective, stub, stage", [
    ("memory-bound", memory, "cmi_value", _nan, "memory"),
    ("optimize-decoupling", control, "decoupling_objective", _nan, "decouple"),
    ("synthesize-gate", control, "synthesis_loss", _nan_per_lane, "synthesize"),
], ids=["memory", "decouple", "synthesize"])
def test_nan_search_exits_3(runner, tmp_path, monkeypatch, command, module,
                            objective, stub, stage):
    # a search whose every start ends on NaN must fail, not store NaN
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"name": "x", "pool_size": 11,
                                "basis_size": 10, "shots": 400}))
    store = tmp_path / "store"
    monkeypatch.setattr(module, objective, stub)
    result = runner.invoke(main, [command, "--plan", str(plan),
                                  "--out", str(store)])
    assert result.exit_code == 3, result.output
    assert "numerical failure: " in result.output
    assert "search failed on every restart" in result.output
    assert not ResultsStore(store).records(stage=stage)


def test_physicality_failure_exits_3(runner, tmp_path, monkeypatch):
    # force the trace guard to reject every state the evaluate stage checks
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"name": "x", "pool_size": 11,
                                "basis_size": 10, "shots": 400}))
    args = ["run-plan", "--plan", str(plan), "--out", str(tmp_path / "store")]
    assert runner.invoke(main, args + ["--stage", "characterize"]).exit_code == 0
    monkeypatch.setattr(qcore, "TRACE_TOL", -1.0)
    result = runner.invoke(main, args + ["--stage", "evaluate"])
    assert result.exit_code == 3, result.output
    assert "numerical failure: " in result.output
    assert "trace 1.0 != 1" in result.output


def test_run_plan_report_roundtrip(runner, tmp_path):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({
        "name": "cli-e2e", "pool_size": 11, "basis_size": 10,
        "shots": None, "resamples": 6, "master_seed": 5,
        "stages": ["characterize", "evaluate"]}))
    store = tmp_path / "store"

    result = runner.invoke(main, ["run-plan", "--plan", str(plan),
                                  "--out", str(store)])
    assert result.exit_code == 0, result.output
    assert "characterize: 1452 records appended" in result.output
    assert "evaluate: 1 records appended" in result.output

    # rerun resumes and appends nothing
    result = runner.invoke(main, ["run-plan", "--plan", str(plan),
                                  "--out", str(store)])
    assert result.exit_code == 0
    assert "characterize: 0 records appended" in result.output

    # the dedicated stage command hits the same store idempotently
    result = runner.invoke(main, ["evaluate", "--plan", str(plan),
                                  "--out", str(store)])
    assert result.exit_code == 0
    assert "evaluate: 0 records appended" in result.output

    # overriding shots now conflicts with the stored manifest
    result = runner.invoke(main, ["run-plan", "--plan", str(plan),
                                  "--out", str(store), "--shots", "400"])
    assert result.exit_code == 2
    assert "fields differ: shots" in result.output

    result = runner.invoke(main, ["report", "--plan", str(plan),
                                  "--out", str(store)])
    assert result.exit_code == 0, result.output
    report_dir = store / "report"
    assert (report_dir / "fidelity_vs_n.csv").exists()
    assert (report_dir / "box_stats.csv").exists()
    assert "median 1.0000" in (report_dir / "summary.txt").read_text()


def test_seed_override_changes_manifest(runner, tmp_path):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({
        "name": "seeded", "pool_size": 10, "basis_size": 10, "shots": 64,
        "master_seed": 0, "stages": ["characterize"]}))
    store = tmp_path / "store"
    result = runner.invoke(main, ["run-plan", "--plan", str(plan),
                                  "--out", str(store), "--seed", "9"])
    assert result.exit_code == 0, result.output
    manifest = ResultsStore(store).records(kind="plan_manifest")[0]
    assert manifest["payload"]["master_seed"] == 9
    assert manifest["payload"]["shots"] == 64
    rows = ResultsStore(store).records(stage="characterize")
    assert len(rows) == 4 * 10 * 10 * 3
    assert rows[0]["payload"]["shots"] == 64
    assert sum(rows[0]["payload"]["counts"]) == 64
