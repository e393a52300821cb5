"""Tests of the benchmark itself: span arithmetic, checks, tiny runs.

The workload runs use small instances on the pure-Python core, which
needs no compiler; the compiled core is compared against it when it is
already built.
"""

import json
import shutil
import subprocess
import sys

import pytest

from perfbench import run, spans
from perfbench.spans import (
    SpanTable,
    Tracer,
    layer_self_times,
    layer_tracing_costs,
    outermost_totals,
    remove_tracing_cost,
    self_times,
    wrapper_costs,
)
from perfbench.workloads import BorrowChurn, FleetReads, PacketStorm, check
from repro.cluster.matchmaker import Matchmaker
from repro.sim.engine import Simulator

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def tiny_workloads():
    return [FleetReads(num_nodes=16, waves=3),
            BorrowChurn(num_nodes=16, shards=2, waves=12, link_flaps=2,
                        mn_crashes=1),
            PacketStorm(num_nodes=8, rounds=2, burst=10)]


@pytest.fixture
def python_core(monkeypatch):
    monkeypatch.setenv("SIM_CORE", "py")


def test_self_time_of_nested_spans():
    table = SpanTable.from_rows([
        ("bench.batch", 0, 100, -1),
        ("channels.drive", 10, 40, 0),
        ("sim.run", 20, 30, 1),
        ("fabric.switch", 50, 90, 0),
    ])
    assert list(self_times(table)) == [30, 20, 10, 40]
    assert layer_self_times(table) == {0: {"bench": 30, "channels": 20,
                                           "sim": 10, "fabric": 40}}


def test_self_time_of_overlapping_and_unsorted_spans():
    # Children overlap each other (10-60 and 40-80 cover 10-80 once),
    # one outlives its parent (only 90-100 counts), and the rows are
    # not in start order.
    table = SpanTable.from_rows([
        ("bench.batch", 0, 100, -1),
        ("sim.run", 40, 80, 0),
        ("sim.run", 10, 60, 0),
        ("fabric.phy", 90, 120, 0),
    ])
    assert list(self_times(table)) == [20, 40, 50, 30]
    totals = layer_self_times(table)[0]
    assert totals["bench"] == 20
    assert sum(totals.values()) == 140  # overlapping children both count


def test_layer_self_times_add_up_to_the_root():
    table = SpanTable.from_rows([
        ("bench.setup", 0, 50, -1),
        ("cluster.borrow", 5, 45, 0),
        ("runtime.plan", 10, 30, 1),
        ("bench.batch", 60, 160, -1),
        ("sim.run", 70, 150, 3),
        ("fabric.switch", 80, 90, 4),
        ("fabric.switch", 100, 130, 4),
    ])
    totals = layer_self_times(table)
    assert sum(totals[0].values()) == 50
    assert sum(totals[3].values()) == 100
    assert totals[3]["fabric"] == 40


def test_tracing_cost_moves_to_its_own_layer():
    # Each wrapped call costs 2 in its parent and 1 in its own span;
    # the hand-opened root has no own cost.
    table = SpanTable.from_rows([
        ("bench.batch", 0, 100, -1),
        ("sim.run", 10, 90, 0),
        ("fabric.switch", 20, 30, 1),
        ("fabric.switch", 40, 45, 1),
        ("fabric.phy", 41, 42, 3),
    ])
    costs = layer_tracing_costs(table, parent_cost=2, own_cost=1)[0]
    assert costs == {"bench": 2, "sim": 1 + 2 * 2, "fabric": 1 + 2 + 1 + 1}
    raw = layer_self_times(table)[0]
    assert raw == {"bench": 20, "sim": 65, "fabric": 15}
    corrected = remove_tracing_cost(raw, costs)
    assert corrected == {"bench": 18, "sim": 60, "fabric": 10, "trace": 12}
    assert sum(corrected.values()) == 100
    # A layer whose estimated cost exceeds its self time stops at zero.
    assert remove_tracing_cost({"sim": 3, "bench": 7}, {"sim": 5}) == {
        "sim": 0, "bench": 7, "trace": 3}


def test_wrapper_costs_are_measured(monkeypatch):
    monkeypatch.setattr(spans, "_CALIBRATION_CALLS", 2000)
    parent_cost, own_cost = wrapper_costs(lambda: Simulator(core="py"))
    assert parent_cost > 0
    assert own_cost >= 0


def test_outermost_calls_count_once():
    table = SpanTable.from_rows([
        ("bench.batch", 0, 100, -1),
        ("cluster.borrow", 10, 50, 0),
        ("runtime.plan", 15, 45, 1),
        ("cluster.borrow", 20, 40, 2),
        ("cluster.borrow", 60, 70, 0),
        ("bench.setup", 100, 120, -1),
        ("cluster.borrow", 105, 110, 5),
    ])
    assert outermost_totals(table, 0, {"cluster.borrow", "runtime.plan"}) == {
        "cluster.borrow": (2, 50), "runtime.plan": (1, 30)}


def test_tracer_wraps_and_restores(tmp_path):
    class Layer:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: next(ticks))
    original = Layer.__dict__["inner"]
    tracer.patch(Layer, "outer", "cluster.outer")
    tracer.patch(Layer, "inner", "runtime.inner")
    root = tracer.open("bench.batch")
    tracer.op_id = 7
    assert Layer().outer() == 2
    tracer.close(root)
    tracer.restore()
    assert Layer.__dict__["inner"] is original
    table = tracer.table
    assert [table.names[nid] for nid in table.name] == [
        "bench.batch", "cluster.outer", "runtime.inner"]
    assert list(table.parent) == [-1, 0, 1]
    assert list(table.op) == [0, 7, 7]
    table.dump(tmp_path / "spans")
    loaded = SpanTable.load(tmp_path / "spans")
    assert loaded.names == table.names
    assert list(loaded.end) == list(table.end)


def test_corrupted_results_fail_the_check(python_core):
    workload = PacketStorm(num_nodes=8, rounds=1, burst=5, core="py")
    state, _ = run.set_up(workload, 3)
    outcome = workload.run(state)
    assert check(outcome) == []
    reference = outcome.digest

    outcome.latencies_ns[0] += 1
    assert check(outcome, reference) == [
        "outcome changed after the batch finished"]
    # A batch whose simulation went differently seals another digest.
    assert check(outcome.seal(), reference) == [
        "simulated results differ from an earlier batch with the same seed"]

    outcome.latencies_ns.pop()
    outcome.completed -= 1
    outcome.untyped_failures += 1
    outcome.invariants["injected = delivered + dropped"][1] -= 1
    errors = check(outcome.seal())
    assert any("without a typed error" in error for error in errors)
    assert any("injected = delivered + dropped" in error for error in errors)


def test_leaked_allocation_fails_the_check(python_core, monkeypatch):
    workload = BorrowChurn(num_nodes=16, shards=2, waves=3, link_flaps=0,
                           mn_crashes=0)
    workload.core = "py"
    state, _ = run.set_up(workload, 5)
    original = Matchmaker.release
    calls = []

    def leaky_release(matchmaker, share):
        calls.append(share)
        if len(calls) == 3:  # forget to return this one to the monitor
            share.released = True
            matchmaker.shares.remove(share)
        else:
            original(matchmaker, share)

    monkeypatch.setattr(Matchmaker, "release", leaky_release)
    errors = check(workload.run(state))
    # The third release is in the first wave; the leak shows after each
    # of the three waves.
    assert "allocations leaked by a wave: 3 != 0" in errors


@pytest.mark.parametrize("workload", tiny_workloads(),
                         ids=lambda workload: workload.name)
def test_tiny_run_of_each_workload(workload, python_core):
    workload.core = "py"
    records = run.batches(workload, seed=5, seconds=0, minimum=2)
    assert [record["errors"] for record in records] == [[], []]
    metrics = run.end_to_end(records)
    assert {entry["name"] for entry in BENCHMARK["end_to_end"]} == set(metrics)
    assert all(value > 0 for value in metrics.values())


def test_traced_run_reports_every_per_layer_metric(python_core, tmp_path,
                                                    monkeypatch):
    monkeypatch.setattr(spans, "_CALIBRATION_CALLS", 2000)
    workload = BorrowChurn(num_nodes=16, shards=2, waves=12, link_flaps=2,
                           mn_crashes=1)
    workload.core = "py"
    _, errors, metrics, summary = run.traced(workload, 5, 0, tmp_path)
    assert errors == []
    assert {entry["name"] for entry in BENCHMARK["per_layer"]} == set(metrics)
    assert summary["self_sum_over_wall"] == pytest.approx(1.0)
    assert metrics["trace.self_s"] > 0
    assert (tmp_path / "borrow_churn.spans").is_file()


def test_python_and_compiled_cores_give_identical_results(monkeypatch):
    from repro.sim import engine

    if engine._load_ccore() is None:
        pytest.skip("compiled dispatch core not built")
    digests = {}
    for core in ("c", "py"):
        monkeypatch.setenv("SIM_CORE", core)
        workload = PacketStorm(num_nodes=8, rounds=2, burst=10, core=core)
        state, _ = run.set_up(workload, 9)
        assert state["sim"].core == core
        digests[core] = workload.run(state).digest
    assert digests["c"] == digests["py"]


def _refuse():
    raise run.BenchmarkError("core mismatch")


def _crash():
    raise ValueError("workload bug")


def test_child_failures_reach_the_parent():
    assert run.in_child(lambda: {"answer": 42}) == {"answer": 42}
    with pytest.raises(run.BenchmarkError, match="core mismatch"):
        run.in_child(_refuse)
    with pytest.raises(RuntimeError, match="child failed"):
        run.in_child(_crash)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "packet_storm",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin"})
    assert result.returncode != 0
    assert result.stdout == ""
