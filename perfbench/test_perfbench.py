"""Self-tests of the benchmark, on the small Austin city.

Run from the repository root with ``python -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import os

import pytest

import layers
import run as run_cli
import workloads
from spans import Span, Tracer

SMALL = workloads.City("Austin", "small")
BENCHMARK_JSON = os.path.join(os.path.dirname(run_cli.HERE), "BENCHMARK.json")


@pytest.fixture(scope="module")
def work_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("perfbench"))


def small_run(work_dir, name, trace, seconds=0.6, seed=5):
    return workloads.run(name, seed, seconds, trace, work_dir, city=SMALL)


def _declared(kind: str) -> dict:
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec[kind]}


def test_declared_metrics_match_the_code():
    assert _declared("end_to_end") == workloads.END_TO_END
    assert _declared("per_layer") == layers.PER_LAYER


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(work_dir, name, trace):
    result = small_run(work_dir, name, trace)
    units = layers.PER_LAYER if trace else workloads.END_TO_END
    out = run_cli.result_object(result, units)
    assert out["correct"] and out["failed"] == 0
    assert out["attempted"] >= 1
    assert set(out["metrics"]) == set(units)
    for metric, entry in out["metrics"].items():
        assert entry["unit"] == units[metric]
        assert isinstance(entry["value"], (int, float))
        assert entry["value"] >= 0
    json.dumps(out)  # the result line must serialize
    if not trace:
        for metric in workloads.END_TO_END:
            assert out["metrics"][metric]["value"] > 0, metric


@pytest.mark.parametrize(
    "name, method",
    [("v2v_warm", "earliest_arrival"), ("mixed_cold", "busiest_hubs"),
     ("serve", "ea_knn")],
)
def test_a_corrupted_answer_lands_in_the_failures(work_dir, monkeypatch, name,
                                                  method):
    owner = (workloads.router_mod.Router if name == "serve"
             else workloads.framework.PTLDB)
    original = getattr(owner, method)

    def corrupted(self, *args):
        value = original(self, *args)
        if isinstance(value, list):
            return value[:-1] if value else [(0, 0)]
        if isinstance(value, tuple):
            return (value[0] + 1,) + value[1:]
        return -1 if value is None else value + 1

    monkeypatch.setattr(owner, method, corrupted)
    result = small_run(work_dir, name, trace=False, seconds=0.8)
    assert not result.correct
    assert result.failed > 0
    assert result.metrics["ok_ratio"] < 1.0


def test_traced_self_times_reconcile_with_the_wall_total(work_dir):
    result = small_run(work_dir, "mixed_cold", trace=True, seconds=1.0)
    share = result.metrics["trace.unattributed_share"]
    assert 0 <= share <= layers.RECONCILE_TOLERANCE
    assert result.context["traced_requests"] > 0


def test_self_times_partition_each_request():
    # One request: a root over 0..100 with children over 10..30 and 40..90,
    # the second with a child over 50..60: self times 30, 20, 40 and 10.
    report = layers.SpanReport([
        Span(0, "ptldb.query", 0, 100, -1, 0, 1),
        Span(1, "session.execute", 10, 30, 0, 0, 1),
        Span(2, "executor.batch", 40, 90, 0, 0, 1),
        Span(3, "decode.record", 50, 60, 2, 0, 1),
    ])
    assert report.request_self_by_layer_ns() == {
        "ptldb": 30, "session": 20, "executor": 40, "decode": 10}
    assert sum(report.request_self_by_layer_ns().values()) == 100


def test_the_untraced_run_installs_no_wrappers(work_dir, monkeypatch):
    def refuse(self):
        raise AssertionError("an untraced run installed wrappers")

    monkeypatch.setattr(Tracer, "install", refuse)
    for name in sorted(workloads.WORKLOADS):
        assert small_run(work_dir, name, trace=False, seconds=0.3).correct


def test_a_traced_run_restores_every_attribute(work_dir):
    import inspect

    def current():
        out = {}
        for target in layers.TARGETS:
            owner, attr = target.resolve()
            out[target.path] = (attr in vars(owner),
                                inspect.getattr_static(owner, attr))
        return out

    before = current()
    result = small_run(work_dir, "serve", trace=True, seconds=0.4)
    assert current() == before
    # Replays shift their times, so the router's result cache stays cold;
    # the shard build went through the WAL.
    assert result.metrics["serving.cache_hit_ratio"] == 0
    assert result.metrics["wal.bytes_written"] > 0


def test_a_label_cache_miss_fails_the_run(tmp_path):
    workload = workloads.V2VWarm(str(tmp_path), SMALL)
    with pytest.raises(workloads.BenchError, match="label cache miss"):
        workload.setup(seed=1)


def test_the_same_seed_gives_the_same_inputs():
    tt = workloads.datasets.load_dataset(SMALL.name, SMALL.scale)
    cycle = [("v2v", "ea"), ("knn", "ld"), ("otm", "ea"), ("scan", "")]

    def take(seed):
        stream = workloads.Stream(tt, cycle, f"s-{seed}")
        return [next(stream) for _ in range(40)]

    assert take(1) == take(1)
    assert take(1) != take(2)
    assert workloads.draw_targets(100, 3) == workloads.draw_targets(100, 3)


def test_a_replay_shifts_only_time_parameters():
    Call = workloads.Call
    calls = [
        Call("v2v", "ea", (1, 2, 100)),
        Call("v2v", "sd", (1, 2, 100, 200)),
        Call("knn", "ld", (3, 500, 4)),
        Call("otm", "ea", (3, 500)),
        Call("scan", "busiest_hubs", (10,)),
    ]
    assert [c.shifted(7).args for c in calls] == [
        (1, 2, 107), (1, 2, 107, 207), (3, 507, 4), (3, 507), (10,)]


def test_a_call_counts_at_its_fastest_answered_replay():
    Call, Outcome = workloads.Call, workloads.Outcome
    call = Call("v2v", "ea", (1, 2, 100))
    outcomes = [
        Outcome(call, 0, 3.0, False),
        Outcome(call, 0, 1.0, False, error="mismatch"),
        Outcome(call, 0, 2.0, False),
        Outcome(call, 0, 0.5, True),
        Outcome(call, 1, 4.0, False),
    ]
    assert workloads.fastest(outcomes) == {0: ("v2v", 2.0), 1: ("v2v", 4.0)}
    assert workloads.fastest(outcomes, traced=True) == {0: ("v2v", 0.5)}
