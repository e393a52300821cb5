"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fleet_reads --seed 1 --seconds 20 --trace 0

The command builds the compiled dispatch core from the checkout's own
``src/repro/sim/_ccore.c`` (outside every timed region), imports
``repro`` from the checkout's ``src/`` and refuses to run otherwise.

``--trace 0`` repeats {fresh set-up, fixed-work batch}, each in a
forked copy of the prepared process, until ``--seconds`` have passed
(at least three times) and reports the end-to-end metrics: the set-up
time (importing the program, timed once, plus the median set-up of a
repetition) and the median batch throughput, both in host time scaled
to the host's nominal speed (``reference.py``), the median peak memory,
and the batch's simulated results.  Every batch is checked, and every
batch of a run must reproduce the first one's simulated results exactly.

``--trace 1`` first runs untraced batches for half the budget, then
installs span recording (``layers.py``), sets up and runs one traced
batch, checks that it reproduces the untraced results, writes the spans
to ``.perfbench-out/<workload>.spans`` and reports the per-layer
metrics.  Their self times come from the traced batch only, with the
tracer's own cost (``spans.wrapper_costs``, timed before the traced
batch) moved out of every layer into ``trace.self_s``; counts and
ns/event come from the untraced batches.

The last line of standard output is the JSON result; a human-readable
summary goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Callable, Dict, List, Optional

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
MIN_BATCHES = 3


class BenchmarkError(RuntimeError):
    """The benchmark cannot measure this checkout; no result is printed."""


def prepare() -> float:
    """Build the checkout's compiled core and import its own ``repro``.

    Returns the host seconds spent importing the program and the
    workloads; the build in between is not counted.
    """
    if not (SRC / "repro" / "sim" / "_ccore.c").is_file():
        raise BenchmarkError(f"no repro sources under {SRC}")
    for path in (str(SRC), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)
    start = time.perf_counter()
    import repro
    from repro.sim import _ccore_build

    import_s = time.perf_counter() - start
    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise BenchmarkError(f"repro was imported from {repro.__file__}, "
                             f"not from {SRC}")
    try:
        _ccore_build.ensure_built()
    except _ccore_build.CCoreBuildError as error:
        raise BenchmarkError(f"cannot build the compiled core: {error}") from None
    start = time.perf_counter()
    import perfbench.workloads  # noqa: F401  (imports the whole program)

    return import_s + time.perf_counter() - start


def percentile(values: List[int], fraction: float) -> int:
    """Nearest-rank percentile of ``values``."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def set_up(workload, seed: int):
    """Fresh workload state and the host seconds each set-up step took."""
    phases: Dict[str, float] = {}
    last = [time.perf_counter()]

    def phase(name: str) -> None:
        now = time.perf_counter()
        phases[name] = now - last[0]
        last[0] = now

    state = workload.setup(seed, phase)
    return state, phases


def in_child(task: Callable[[], dict]) -> dict:
    """Run ``task`` in a forked child and return its JSON-able result.

    Each repetition gets a fresh copy of the prepared process.  Run one
    after another in a single process, repetitions slowed down by about
    2% each on the 2-CPU measurement host, so a median would depend on
    how many repetitions fit in the budget.
    """
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_end)
            try:
                payload = {"result": task()}
                status = 0
            except BenchmarkError as error:
                payload = {"error": str(error)}
            with os.fdopen(write_end, "w") as out:
                json.dump(payload, out)
        except Exception:
            traceback.print_exc()
        finally:
            sys.stderr.flush()
            os._exit(status)
    os.close(write_end)
    with os.fdopen(read_end) as source:
        text = source.read()
    _, status = os.waitpid(pid, 0)
    payload = json.loads(text) if text else {}
    if "error" in payload:
        raise BenchmarkError(payload["error"])
    if status != 0 or "result" not in payload:
        raise RuntimeError(f"benchmark child failed (wait status {status})")
    return payload["result"]


def repetition(workload, seed: int, reference: Optional[str]) -> dict:
    """One checked {fresh set-up, batch}: host times, peak memory, summary.

    ``setup_s`` and ``batch_s`` are scaled to the host's nominal speed
    (``reference.py``); ``host_setup_s`` and ``host_batch_s`` are the
    raw times.  Only a summary of the outcome goes back to the parent,
    so that the parent, which every later repetition is forked from,
    stays the same size.
    """
    from perfbench.reference import NOMINAL_S, reference_seconds
    from perfbench.workloads import check

    reset_peak_rss()
    before = reference_seconds()
    start = time.perf_counter()
    state, phases = set_up(workload, seed)
    ready = time.perf_counter()
    core = state["sim"].core
    if core != workload.core:
        raise BenchmarkError(f"{workload.name} declares the {workload.core!r} "
                             f"core but the simulator resolved {core!r}")
    outcome = workload.run(state)
    finish = time.perf_counter()
    reference_s = (before + reference_seconds()) / 2
    scale = NOMINAL_S / reference_s
    latencies = outcome.latencies_ns or [0]
    return {"setup_s": (ready - start) * scale,
            "batch_s": (finish - ready) * scale,
            "host_setup_s": ready - start, "host_batch_s": finish - ready,
            "reference_s": reference_s, "phases": phases,
            "peak_rss_mb": peak_rss_mb(),
            "errors": check(outcome, reference),
            "digest": outcome.digest, "attempted": outcome.attempted,
            "completed": outcome.completed,
            "typed_failures": outcome.typed_failures,
            "untyped_failures": outcome.untyped_failures,
            "events": outcome.events, "counters": outcome.counters,
            "sim_p50_ns": percentile(latencies, 0.50),
            "sim_p99_ns": percentile(latencies, 0.99)}


def batches(workload, seed: int, seconds: float, minimum: int = MIN_BATCHES):
    """Untraced repetitions, each in its own child, until ``seconds`` passed.

    Every repetition after the first must reproduce its digest.
    """
    records: List[dict] = []
    deadline = time.perf_counter() + seconds
    while len(records) < minimum or time.perf_counter() < deadline:
        reference = records[0]["digest"] if records else None
        records.append(in_child(lambda: repetition(workload, seed, reference)))
    return records


def reset_peak_rss() -> None:
    """Restart the process's peak-RSS count (Linux), best effort.

    A forked child otherwise inherits its parent's peak.
    """
    try:
        with open("/proc/self/clear_refs", "w") as control:
            control.write("5")
    except OSError:
        pass


def peak_rss_mb() -> float:
    """Peak resident memory since the last reset, in MiB."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(records, import_s: float = 0.0) -> Dict[str, float]:
    """End-to-end metrics of untraced repetitions.

    ``setup_s`` runs from the first import of the program to the first
    measured op: ``import_s`` (scaled like the repetitions' times) plus
    the median set-up of a repetition.
    """
    first = records[0]
    return {
        "setup_s": import_s + statistics.median(r["setup_s"] for r in records),
        "ops_per_s": statistics.median(r["completed"] / r["batch_s"]
                                       for r in records),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in records),
        "success_ratio": first["completed"] / first["attempted"],
        "sim_p50_ns": first["sim_p50_ns"],
        "sim_p99_ns": first["sim_p99_ns"],
    }


def declared_units(section: str) -> Dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {entry["name"]: entry["unit"] for entry in spec[section]}


def traced(workload, seed: int, seconds: float, out_dir: Path = OUT):
    """Untraced baseline batches, then one traced {set-up, batch}."""
    from perfbench import layers
    from perfbench.spans import (
        Tracer,
        layer_self_times,
        layer_tracing_costs,
        outermost_totals,
        remove_tracing_cost,
        wrapper_costs,
    )
    from perfbench.workloads import check
    from repro.sim.engine import Simulator

    records = batches(workload, seed, seconds / 2, minimum=1)
    baseline = records[0]
    untraced_batch_s = statistics.median(r["host_batch_s"] for r in records)
    parent_cost, own_cost = wrapper_costs(lambda: Simulator(core=workload.core))
    tracer = Tracer()
    layers.install(tracer)
    try:
        setup_root = tracer.open("bench.setup")
        state, _ = set_up(workload, seed)
        tracer.close(setup_root)

        def mark(op: int) -> None:
            tracer.op_id = op

        batch_root = tracer.open("bench.batch")
        outcome = workload.run(state, mark)
        tracer.close(batch_root)
    finally:
        tracer.restore()
    table = tracer.table
    errors = check(outcome, baseline["digest"])
    table.dump(out_dir / f"{workload.name}.spans")

    wall = table.end[batch_root] - table.start[batch_root]
    setup_wall = table.end[setup_root] - table.start[setup_root]
    per_root = layer_self_times(table)
    costs = layer_tracing_costs(table, parent_cost, own_cost)
    raw_self_ns = per_root[batch_root]
    self_ns = remove_tracing_cost(raw_self_ns, costs[batch_root])
    setup_self_ns = remove_tracing_cost(per_root[setup_root], costs[setup_root])
    calls = outermost_totals(table, batch_root,
                             {"channels.submit", *layers.TIMED_CALLS.values()})
    counters = baseline["counters"]
    events = baseline["events"]
    latency_cache = state["cluster"].latency_cache if "cluster" in state else None
    metrics: Dict[str, float] = {
        "setup.cluster_build_s": statistics.median(
            r["phases"]["cluster_build"] for r in records),
        "setup.transport_build_s": statistics.median(
            r["phases"]["transport_build"] for r in records),
        "setup.provision_s": statistics.median(
            r["phases"]["provision"] for r in records),
        "setup.control_plane_share": (setup_self_ns.get("cluster", 0)
                                      + setup_self_ns.get("runtime", 0)) / setup_wall,
        "sim.events": events,
        "sim.events_per_op": events / max(1, baseline["completed"]),
        "sim.ns_per_event": untraced_batch_s * 1e9 / max(1, events),
        "fabric.packets_delivered": counters["fabric.packets_delivered"],
        "fabric.replays": counters["fabric.replays"],
        "fabric.credit_stalls": counters["fabric.credit_stalls"],
        "fabric.admin_drops": counters["fabric.admin_drops"],
        "channels.ops_submitted": calls.get("channels.submit", (0, 0))[0],
        "cluster.latency_cache_hit_rate": (
            latency_cache.hit_rate if latency_cache is not None
            and latency_cache.lookups else 0.0),
        "runtime.borrow_yield": (
            counters.get("runtime.borrows_granted", 0)
            / max(1, counters.get("runtime.borrows_requested", 0))),
        "trace.overhead_ratio": (wall / 1e9) / untraced_batch_s,
        "trace.ns_per_span": parent_cost + own_cost,
        "trace.corrected_wall_ratio": (
            (wall - self_ns["trace"]) / 1e9 / untraced_batch_s),
        "trace.spans": len(table),
    }
    for name in ("channels.ops_completed", "channels.ops_timed_out",
                 "channels.retries", "channels.unmatched",
                 "channels.expected_peak", "cluster.borrows",
                 "cluster.releases", "runtime.refused_waves",
                 "runtime.tickets_replayed", "runtime.allocations_lost"):
        metrics[name] = counters.get(name, 0)
    for layer in layers.LAYERS:
        metrics[f"{layer}.self_s"] = self_ns.get(layer, 0) / 1e9
    for metric, span_name in layers.TIMED_CALLS.items():
        metrics[metric] = calls.get(span_name, (0, 0))[1] / 1e9
    summary = {"traced_wall_s": wall / 1e9,
               "self_share": {layer: value / wall
                              for layer, value in sorted(self_ns.items())},
               "raw_self_share": {layer: value / wall for layer, value
                                  in sorted(raw_self_ns.items())},
               "setup_wall_s": setup_wall / 1e9,
               "setup_self_share": {layer: value / setup_wall for layer, value
                                    in sorted(setup_self_ns.items())},
               "self_sum_over_wall": sum(self_ns.values()) / wall}
    if abs(summary["self_sum_over_wall"] - 1) > 0.1:
        errors.append("layer self times do not add up to the traced wall time")
    traced_record = {"attempted": outcome.attempted,
                     "untyped_failures": outcome.untyped_failures}
    return records + [traced_record], errors, metrics, summary


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        host_import_s = prepare()
        from perfbench.reference import NOMINAL_S, reference_seconds
        from perfbench.workloads import WORKLOADS

        if args.workload not in WORKLOADS:
            raise BenchmarkError(f"unknown workload {args.workload!r}; "
                                 f"choose from {sorted(WORKLOADS)}")
        workload = WORKLOADS[args.workload]()
        os.environ["SIM_CORE"] = workload.core
        if args.trace:
            records, errors, metrics, summary = traced(
                workload, args.seed, args.seconds)
            section = "per_layer"
        else:
            import_s = host_import_s * NOMINAL_S / reference_seconds()
            records = batches(workload, args.seed, args.seconds)
            errors = []
            metrics, section = end_to_end(records, import_s), "end_to_end"
            summary = {"import_s": round(import_s, 4),
                       "host_import_s": round(host_import_s, 4)}
        units = declared_units(section)
        if set(units) != set(metrics):
            raise BenchmarkError(
                f"metrics differ from BENCHMARK.json {section}: "
                f"{sorted(set(units) ^ set(metrics))}")
    except BenchmarkError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    untraced = [record for record in records if "batch_s" in record]
    for index, record in enumerate(untraced):
        errors.extend(f"batch {index}: {error}" for error in record["errors"])
    first = untraced[0]
    report = {
        "workload": workload.name, "seed": args.seed, "core": workload.core,
        "batches": len(untraced), "digest": first["digest"],
        **{key: first[key] for key in ("attempted", "completed",
                                       "typed_failures", "events")},
        "setup_s": [round(r["setup_s"], 4) for r in untraced],
        "batch_s": [round(r["batch_s"], 4) for r in untraced],
        "host_batch_s": [round(r["host_batch_s"], 4) for r in untraced],
        "reference_ms": [round(r["reference_s"] * 1e3, 2) for r in untraced],
        "peak_rss_mb": [round(r["peak_rss_mb"], 1) for r in untraced],
        "counters": first["counters"], "errors": errors, **summary,
    }
    print(json.dumps(report, indent=1), file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(record["attempted"] for record in records),
        "failed": sum(record["untyped_failures"] for record in records),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
