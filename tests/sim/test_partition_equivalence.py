"""Merged-stats equivalence: partitioned executors vs the monolithic sim.

The acceptance bar for the partitioned fabric: the canonical merged
stats dump of a parallel (>= 2 partition) fat-tree run must be
byte-identical to the single-simulator run, on both timer backends, for
the in-process executor and the fork executor alike.
"""

import pytest

from repro.sim.partition import (ParallelFabricSpec, canonical_dump,
                                 plan_leaf_partitions, run_partitioned,
                                 run_sequential_baseline)
from repro.fabric.topology import build_fat_tree, build_mesh3d


def _staggered_spec(num_nodes=16, count=24, faults=()):
    """Cross-leaf traffic with no same-nanosecond injections."""
    injections = []
    time = 0
    for index in range(count):
        src = index % num_nodes
        dst = (index * 7 + 3) % num_nodes
        if dst == src:
            dst = (dst + 1) % num_nodes
        injections.append((time, src, dst, 256))
        time += 311
    return ParallelFabricSpec(num_nodes=num_nodes,
                              injections=tuple(injections),
                              faults=tuple(faults))


# ----------------------------------------------------------------------
# Partition planning
# ----------------------------------------------------------------------
def test_16_node_fat_tree_splits_into_leaf_and_spine_partitions():
    plan = plan_leaf_partitions(build_fat_tree(16))
    # Four leaves (radix 4) plus the spine partition.
    assert plan.num_partitions == 5
    assert plan.partitions[:4] == ((0, 1, 2, 3, 16), (4, 5, 6, 7, 17),
                                   (8, 9, 10, 11, 18), (12, 13, 14, 15, 19))
    assert plan.partitions[4] == (20, 21)  # spines, last partition
    owner = plan.node_partition()
    assert sorted(owner) == list(range(22))


def test_routerless_topologies_degenerate_to_a_single_partition():
    plan = plan_leaf_partitions(build_mesh3d())
    assert plan.num_partitions == 1
    assert plan.partitions[0] == tuple(range(8))


# ----------------------------------------------------------------------
# Byte-identical merged dumps (the tentpole acceptance criterion)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("timer_backend", ["heap", "calendar"],
                         indirect=True)
def test_inline_partitioned_dump_matches_monolithic(timer_backend):
    spec = _staggered_spec()
    assert plan_leaf_partitions(spec.build_topology()).num_partitions >= 2
    baseline = run_sequential_baseline(spec)
    partitioned = run_partitioned(spec, mode="inline")
    assert canonical_dump(partitioned) == canonical_dump(baseline)
    # The lookahead barrier costs zero extra simulated events.
    assert partitioned["events"] == baseline["events"]
    assert len(partitioned["deliveries"]) == len(spec.injections)


@pytest.mark.parametrize("timer_backend", ["heap", "calendar"],
                         indirect=True)
def test_forked_partitioned_dump_matches_monolithic(timer_backend):
    spec = _staggered_spec()
    baseline = canonical_dump(run_sequential_baseline(spec))
    for workers in (2, 4):
        forked = run_partitioned(spec, workers=workers, mode="fork")
        assert canonical_dump(forked) == baseline


def test_fork_and_inline_agree_with_surplus_workers():
    # More workers than partitions: the executor clamps, stays correct.
    spec = _staggered_spec(num_nodes=8, count=12)
    inline = canonical_dump(run_partitioned(spec, mode="inline"))
    forked = canonical_dump(run_partitioned(spec, workers=16, mode="fork"))
    assert forked == inline


def test_auto_mode_single_worker_runs_inline():
    spec = _staggered_spec(num_nodes=8, count=6)
    assert (canonical_dump(run_partitioned(spec, workers=1, mode="auto"))
            == canonical_dump(run_partitioned(spec, mode="inline")))


# ----------------------------------------------------------------------
# Churn faults on an inter-partition link
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode,workers", [("inline", 1), ("fork", 3)])
def test_boundary_link_fault_flap_stays_byte_identical(mode, workers):
    # Down the leaf16->spine20 link mid-run: deliveries in the window
    # arrive corrupted and ride the CRC/NAK replay path, which lives
    # entirely in the sending partition -- equivalence must survive.
    spec = _staggered_spec(faults=((1500, 16, 20, "down"),
                                   (5200, 16, 20, "up")))
    baseline = run_sequential_baseline(spec)
    faulted = sum(counters.get("packets_faulted_admin_down", 0)
                  for counters in baseline["counters"].values())
    assert faulted > 0  # the flap really hit in-flight traffic
    partitioned = run_partitioned(spec, workers=workers, mode=mode)
    assert canonical_dump(partitioned) == canonical_dump(baseline)


def test_executor_argument_validation():
    spec = _staggered_spec(num_nodes=8, count=2)
    with pytest.raises(ValueError):
        run_partitioned(spec, workers=0)
    with pytest.raises(ValueError):
        run_partitioned(spec, mode="threads")
