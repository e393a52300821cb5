"""Determinism regression guard for the fast-path engine rewrite.

The engine optimisations (fused dispatch loop, ready-queue fast path,
callback-chain receive path, calendar-queue scheduler, batched credit
returns) must preserve event ordering exactly: the same
``DeterministicRNG`` seed over the same fleet has to produce
byte-identical statistics, run after run -- and **across timer
backends**: the calendar queue dispatches in exactly the same
(time, seq) order as the binary heap, so their stats dumps must match
byte for byte too (the ``pin_backend`` fixture forces each backend on
the Python engine).  These tests drive a 16-node star sweep over the
full event fabric -- the heaviest deterministic workload in the suite
-- and compare canonical JSON dumps of every component's statistics.
"""

from dataclasses import replace

from repro.cluster import Cluster, ClusterConfig
from repro.experiments.fig_cluster_contention import (
    ClusterContentionConfig,
    _FabricRun,
    _probe_plan,
    run_fig_cluster_contention,
)
from repro.sim.rng import DeterministicRNG

STAR16 = ClusterContentionConfig(
    node_counts=(16,),
    topology="star",
    probes_per_node=2,
    cross_traffic_per_node=6,
)


def star16_dump(seed: int, contended: bool = True,
                closed_loop: bool = False) -> str:
    config = replace(STAR16, closed_loop=closed_loop)
    cluster = Cluster(ClusterConfig(num_nodes=16, topology="star"))
    probes = _probe_plan(cluster, config, DeterministicRNG(seed))
    run = _FabricRun(cluster, config, probes, contended=contended,
                     rng=DeterministicRNG(seed))
    return run.stats_dump()


def test_same_seed_star16_sweep_is_byte_identical():
    first = star16_dump(seed=7)
    second = star16_dump(seed=7)
    assert first == second


def test_same_seed_star16_uncontended_is_byte_identical():
    assert star16_dump(seed=7, contended=False) == star16_dump(
        seed=7, contended=False)


def _per_backend(pin_backend, **kwargs):
    dumps = []
    for backend in ("heap", "calendar"):
        pin_backend(backend)
        dumps.append(star16_dump(seed=7, **kwargs))
    return dumps


def test_heap_and_calendar_backends_are_byte_identical(pin_backend):
    # The calendar queue must preserve exact (time, seq) dispatch order:
    # the same seed under either backend yields the same stats dump.
    heap, calendar = _per_backend(pin_backend)
    assert heap == calendar


def test_heap_and_calendar_backends_identical_uncontended(pin_backend):
    heap, calendar = _per_backend(pin_backend, contended=False)
    assert heap == calendar


def test_heap_and_calendar_backends_identical_closed_loop(pin_backend):
    heap, calendar = _per_backend(pin_backend, closed_loop=True)
    assert heap == calendar


def test_same_seed_closed_loop_is_byte_identical():
    first = star16_dump(seed=7, closed_loop=True)
    second = star16_dump(seed=7, closed_loop=True)
    assert first == second


def test_closed_loop_differs_from_open_loop():
    # The responses double the traffic, so the dumps must differ.
    assert star16_dump(seed=7) != star16_dump(seed=7, closed_loop=True)


def test_different_seed_changes_the_sweep():
    # Sanity check that the dump actually captures the traffic pattern
    # (otherwise the byte-identity assertions above would be vacuous).
    assert star16_dump(seed=7) != star16_dump(seed=8)


def test_contention_report_is_reproducible():
    config = ClusterContentionConfig(node_counts=(2, 4), probes_per_node=2,
                                     cross_traffic_per_node=4)
    first = run_fig_cluster_contention(config)
    second = run_fig_cluster_contention(config)
    assert first.series == second.series


def test_closed_loop_report_is_reproducible():
    config = ClusterContentionConfig(node_counts=(2, 4), probes_per_node=2,
                                     cross_traffic_per_node=4,
                                     closed_loop=True)
    first = run_fig_cluster_contention(config)
    second = run_fig_cluster_contention(config)
    assert first.series == second.series
