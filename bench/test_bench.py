"""Tests of the benchmark itself: python3 -m pytest -q bench"""

from __future__ import annotations

import io
import json
import re
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402
import tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

# quickstart-sized versions of the three workloads: same stages and code
# paths, smallest plans the harness accepts
SMALL = {
    "grid": run.Workload("grid", 11, 10, 2,
                         ("characterize", "evaluate", "markov")),
    "memory": run.Workload("memory", 10, 10, 2, ("characterize", "memory"),
                           restarts=1),
    "control": run.Workload("control", 10, 10, 2, ("decouple", "synthesize"),
                            restarts=1),
}


def test_metric_names_and_units():
    for table in (run.END_TO_END, run.LAYER_METRICS):
        for name, unit in table.items():
            assert NAME.fullmatch(name), name
            assert UNIT.fullmatch(unit), (name, unit)
    assert not set(run.END_TO_END) & set(run.LAYER_METRICS)


def test_benchmark_json_lists_what_run_emits():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} \
        == run.LAYER_METRICS
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])


@pytest.mark.parametrize("n, expected", [
    (0, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0),
    (999, 90.0), (1000, 99.0), (9999, 99.0), (10000, 99.9)])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert tracer.tail_percentile(n) == expected


def test_histogram_percentiles_track_the_samples():
    samples = [1e-6 * (1 + i) for i in range(1000)]
    hist = {}
    for d in samples:
        b = tracer.bucket_of(d)
        hist[b] = hist.get(b, 0) + 1
    width = 2.0 ** (1.0 / tracer.BUCKETS_PER_OCTAVE)
    for pct, exact in ((50, samples[499]), (99, samples[989])):
        got = tracer.hist_percentile(hist, pct)
        assert exact / width <= got <= exact * width
    assert tracer.hist_percentile({}, 50) == 0.0


def test_self_time_subtracts_nested_children():
    now = [0.0]
    tr = tracer.Tracer(clock=lambda: now[0])

    def leaf(dt):
        now[0] += dt

    leaf_t = tr.wrap("leaf", leaf)

    def mid():
        now[0] += 1.0
        leaf_t(2.0)
        leaf_t(3.0)

    mid_t = tr.wrap("mid", mid)

    def top():
        mid_t()
        now[0] += 4.0
        leaf_t(0.5)

    tr.wrap("top", top)()
    st = tr.stats
    assert (st["leaf"].count, st["leaf"].total_s, st["leaf"].self_s) \
        == (3, 5.5, 5.5)
    assert (st["mid"].total_s, st["mid"].self_s) == (6.0, 1.0)
    assert (st["top"].total_s, st["top"].self_s) == (10.5, 4.0)
    assert sum(s.self_s for s in st.values()) == st["top"].total_s


def test_span_closes_when_the_call_raises():
    now = [0.0]
    tr = tracer.Tracer(clock=lambda: now[0])

    def boom():
        now[0] += 1.0
        raise ValueError("x")

    outer = tr.wrap("outer", lambda f: f())
    with pytest.raises(ValueError):
        outer(tr.wrap("boom", boom))
    assert tr.stats["boom"].count == 1
    assert tr.stats["outer"].self_s == 0.0


def test_json_close_uses_the_golden_tolerance():
    assert run.json_close({"a": [1.0, 2]}, {"a": [1.0 + 1e-12, 2]}) == []
    assert run.json_close({"a": [1.0, 2]}, {"a": [1.0 + 1e-6, 2]})
    assert run.json_close({"a": [1.0, 3]}, {"a": [1.0, 2]})


def test_refuses_to_run_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "grid", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""


def _main(argv) -> tuple[list[str], dict]:
    out = io.StringIO()
    with redirect_stdout(out):
        assert run.main(argv) == 0
    lines = out.getvalue().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("name", list(SMALL))
def test_smoke_every_metric_is_emitted(name, monkeypatch, tmp_path):
    monkeypatch.setattr(run, "WORKLOADS", SMALL)
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    monkeypatch.setattr(run, "SETUPS_PER_REP", 1)
    for trace, table in ((0, run.END_TO_END), (1, run.LAYER_METRICS)):
        lines, result = _main(["--workload", name, "--seed", "3",
                               "--seconds", "0.1", "--trace", str(trace)])
        assert lines[0].startswith("machine: ")
        assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] == (1 + trace) * (len(SMALL[name].stages)
                                                     + 1)
        assert {k: v["unit"] for k, v in result["metrics"].items()} == table
        assert all(isinstance(v["value"], (int, float))
                   for v in result["metrics"].values())
        if trace == 0:
            assert all(v["value"] > 0 for v in result["metrics"].values())
        else:
            m = {k: v["value"] for k, v in result["metrics"].items()}
            assert m["trace.overhead"] > 0
            assert m["harness.appends"] > 0
    assert not (tmp_path / "work").exists()
