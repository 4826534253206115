"""Tests for the benchmark's own helpers.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench -q

The workload tests shrink the generators to the tier-1 corpus size, so
they exercise the same flows and checks as a paper-scale run in seconds.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import layers  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402


# -- percentiles -----------------------------------------------------------
def test_percentile_needs_ten_samples_beyond_it():
    assert stats.percentile(range(1, 101), 90) == 90
    with pytest.raises(ValueError, match="at least 10"):
        stats.percentile(range(1, 100), 90)
    assert stats.percentile(range(1, 21), 50) == 10
    with pytest.raises(ValueError):
        stats.percentile(range(1, 20), 50)


def test_percentile_rejects_out_of_range():
    with pytest.raises(ValueError):
        stats.percentile(range(1000), 100)
    with pytest.raises(ValueError):
        stats.percentile(range(1000), 0)


def test_quartiles_match_statistics_quantiles():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0]
    assert stats.quartiles(values) == (1.75, 3.5, 6.0)
    assert stats.relative_spread(values) == pytest.approx(4.25 / 3.5)


def test_quiet_samples_keeps_the_quietest_windows():
    loop = [1.0] * 10 + [5.0] * 10 + [2.0] * 10 + [9.0] * 15
    # windows of 10; the 5-sample tail joins the last one
    assert stats.quiet_samples([loop], 10, keep=10) == [1.0] * 10
    assert stats.quiet_samples([loop], 10, keep=15) == [1.0] * 10 + [2.0] * 10
    assert stats.quiet_samples([loop], 10, keep=30) == (
        [1.0] * 10 + [2.0] * 10 + [5.0] * 10)
    assert len(stats.quiet_samples([loop, [3.0] * 4], 10, keep=1000)) == 49
    with pytest.raises(ValueError):
        stats.quiet_samples([[]], 10, keep=10)


# -- self-time calculus ----------------------------------------------------
def test_self_time_is_duration_minus_direct_children():
    nodes = layers.forest([
        layers.Interval("b", 5.0, 9.0),
        layers.Interval("root", 0.0, 10.0),
        layers.Interval("c", 6.0, 7.0),
        layers.Interval("a", 1.0, 4.0),
        layers.Interval("other", 11.0, 12.0),
    ])
    by_name = {n.name: n for n in nodes}
    assert by_name["root"].self_time == pytest.approx(3.0)
    assert by_name["a"].self_time == pytest.approx(3.0)
    assert by_name["b"].self_time == pytest.approx(3.0)
    assert by_name["c"].self_time == pytest.approx(1.0)
    assert {n.name: n.root for n in nodes} == {
        "root": "root", "a": "root", "b": "root", "c": "root", "other": "other",
    }
    # self times of one tree add up to its root's duration
    assert sum(n.self_time for n in nodes if n.root == "root") == pytest.approx(10.0)


def test_rounding_at_a_span_end_does_not_break_nesting():
    end = 1000.123456789
    nodes = layers.forest([
        layers.Interval("outer", 1000.0, end),
        layers.Interval("inner", 1000.1, end + 1e-12),
    ])
    assert [n.root for n in nodes] == ["outer", "outer"]


def test_totals_group_by_root_and_name():
    tot = layers.totals(layers.forest([
        layers.Interval("phase.query", 0.0, 4.0),
        layers.Interval("mklgp", 1.0, 2.0),
        layers.Interval("phase.query", 5.0, 8.0),
        layers.Interval("mklgp", 5.5, 7.5),
    ]))
    assert tot.count("phase.query", "mklgp") == 2
    assert tot.self_s("phase.query", "mklgp") == pytest.approx(3.0)
    assert tot.self_s("phase.query", "phase.query") == pytest.approx(4.0)


# -- wrappers --------------------------------------------------------------
def test_wrapper_install_and_restore_leave_attributes_identical():
    wrappers = layers.Wrappers(layers.Recorder())
    targets = [(owner, attr) for owner, attr, _ in wrappers.targets()]
    before = {t: t[0].__dict__.get(t[1], "<absent>") for t in targets}
    wrappers.install()
    try:
        for owner, attr in targets:
            assert owner.__dict__[attr] is not before[(owner, attr)]
        with pytest.raises(RuntimeError):
            wrappers.install()
    finally:
        wrappers.restore()
    after = {t: t[0].__dict__.get(t[1], "<absent>") for t in targets}
    assert all(after[t] is before[t] for t in targets)


# -- workloads at tier-1 scale ---------------------------------------------
@pytest.fixture
def small(monkeypatch):
    monkeypatch.setattr(workloads, "HOTPOT_ARGS",
                        {"n_queries": 200, "corpus_scale": 1, "seed": 7})
    monkeypatch.setattr(workloads, "MOVIES_ARGS",
                        {"scale": 0.5, "n_queries": 150, "seed": 7})
    monkeypatch.setattr(workloads, "CHAIN_QUERIES", 120)
    monkeypatch.setattr(workloads, "TEXT_QUERIES", 120)
    monkeypatch.setattr(workloads, "MOVIES_QUERIES", 150)
    monkeypatch.setattr(workloads, "SETUP_REPEATS", 1)
    monkeypatch.setattr(workloads, "MOVIES_PROBE", 20)


def _run(name, tmp_path, trace=False):
    make_inputs, flow = workloads.WORKLOADS[name]
    inputs = make_inputs(3)
    bench = workloads.Bench(tmp_path, 0.0, trace)
    flow(bench, inputs)
    return bench, inputs


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_answers_match_their_references(small, tmp_path, name):
    bench, inputs = _run(name, tmp_path)
    assert bench.failed == 0
    assert bench.attempted > len(inputs.queries)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    metrics = bench.end_to_end(inputs)
    assert sorted(metrics) == sorted(m["name"] for m in spec["end_to_end"])
    assert all(value > 0 for value, _ in metrics.values())


@pytest.mark.parametrize("name", ["hotpot_text", "movies_feedback"])
def test_corrupted_reference_counts_as_failed(small, tmp_path, monkeypatch, name):
    honest = workloads.reference

    def corrupted(rag, queries):
        keys = honest(rag, queries)
        return [("corrupted",)] + keys[1:]

    monkeypatch.setattr(workloads, "reference", corrupted)
    bench, _ = _run(name, tmp_path)
    assert bench.failed > 0
    assert bench.failed / bench.attempted > 0


def test_traced_run_reports_every_layer_and_accounts_for_query_time(small, tmp_path):
    bench, inputs = _run("hotpot_chain_batch", tmp_path, trace=True)
    assert bench.failed == 0
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    metrics = bench.per_layer(inputs)
    assert sorted(metrics) == sorted(m["name"] for m in spec["per_layer"])
    per_query_ms = sum(metrics[m][0] for m in workloads.QUERY_LAYERS
                       if m.endswith("_ms"))
    per_query_ms += metrics["linegraph.candidates_us"][0] / 1e3
    wall = metrics["core.query_ms"][0]
    untraced = metrics["core.untraced_share"][0] * wall
    assert per_query_ms + untraced == pytest.approx(wall)
    assert metrics["exec.view_calls_per_query"][0] == 1.0
    assert metrics["llm.calls.ner"][0] > 0


def test_run_fails_without_program_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    code = run.main(["--workload", "hotpot_text", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""
