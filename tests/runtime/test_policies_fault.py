"""Unit tests for donor-selection policies and fault handling."""

import pytest

from repro.fabric.topology import build_mesh3d
from repro.runtime.agent import NodeAgent
from repro.runtime.fault import FaultHandler, RecoveryAction
from repro.runtime.monitor import AllocationError, MonitorNode
from repro.runtime.policies import (
    BandwidthAwarePolicy,
    DistanceFirstPolicy,
    LoadBalancedPolicy,
)
from repro.runtime.tables import LinkStatus, ResourceKind

MB = 1024 * 1024
GB = 1024 * MB


def build_monitor(policy=None, capacity=4 * GB):
    topology = build_mesh3d((2, 2, 2))
    monitor = MonitorNode(topology, policy=policy)
    for node in range(8):
        monitor.register_agent(NodeAgent(
            node_id=node, memory_capacity_bytes=capacity,
            num_accelerators=1, num_nics=1,
            neighbors=tuple(topology.neighbors(node))))
    return monitor


# ----------------------------------------------------------------------
# Policies
# ----------------------------------------------------------------------
def test_distance_first_is_the_default_policy():
    monitor = build_monitor()
    assert isinstance(monitor.policy, DistanceFirstPolicy)
    allocation = monitor.request_memory(requester=0, size_bytes=64 * MB)
    assert allocation.hops == 1


def test_distance_first_always_picks_a_neighbour_until_exhausted():
    monitor = build_monitor(policy=DistanceFirstPolicy(), capacity=1 * GB)
    neighbors = set(build_mesh3d((2, 2, 2)).neighbors(0))
    donors = [monitor.request_memory(0, 768 * MB).donor for _ in range(3)]
    assert set(donors) == neighbors


def test_load_balanced_policy_spreads_allocations():
    monitor = build_monitor(policy=LoadBalancedPolicy())
    donors = [monitor.request_memory(requester=0, size_bytes=64 * MB).donor
              for _ in range(6)]
    # Six small requests spread over (at least) the three neighbours
    # instead of piling onto one donor.
    counts = {donor: donors.count(donor) for donor in set(donors)}
    assert max(counts.values()) <= 2
    assert len(counts) >= 3


def test_distance_first_policy_piles_onto_the_nearest_donor():
    monitor = build_monitor(policy=DistanceFirstPolicy())
    donors = [monitor.request_memory(requester=0, size_bytes=64 * MB).donor
              for _ in range(4)]
    # Plenty of capacity on the first candidate, so it takes everything.
    assert len(set(donors)) == 1


def test_bandwidth_aware_policy_avoids_contended_paths():
    monitor = build_monitor(policy=BandwidthAwarePolicy(contention_weight=10.0))
    first = monitor.request_memory(requester=0, size_bytes=64 * MB)
    second = monitor.request_memory(requester=0, size_bytes=64 * MB)
    # The second allocation avoids the donor (and its link) already in use.
    assert second.donor != first.donor


def test_bandwidth_aware_weight_validation():
    with pytest.raises(ValueError):
        BandwidthAwarePolicy(contention_weight=-1)


def test_policies_only_reorder_but_never_invent_candidates():
    topology = build_mesh3d((2, 2, 2))
    monitor = build_monitor()
    candidates = monitor._candidate_donors(0, ResourceKind.MEMORY, 64 * MB)
    for policy in (DistanceFirstPolicy(), LoadBalancedPolicy(), BandwidthAwarePolicy()):
        ordered = policy.order(0, ResourceKind.MEMORY, list(candidates),
                               topology, monitor.rat)
        assert sorted(record.node_id for record in ordered) == \
            sorted(record.node_id for record in candidates)


# ----------------------------------------------------------------------
# Fault handling
# ----------------------------------------------------------------------
def test_link_down_reroutes_when_alternate_path_exists():
    monitor = build_monitor()
    handler = FaultHandler(monitor)
    allocation = monitor.request_memory(requester=0, size_bytes=64 * MB)
    donor = allocation.donor
    plan = handler.handle_link_down(0, donor)
    assert monitor.tst.status(0, donor) is LinkStatus.DOWN
    affected = plan.affected()
    assert len(affected) == 1
    # The 3D mesh always offers an alternate route between two nodes.
    assert affected[0].action is RecoveryAction.REROUTE
    assert affected[0].new_path is not None
    assert (0, donor) not in list(zip(affected[0].new_path, affected[0].new_path[1:]))


def test_mesh_donor_veto_follows_the_dimension_order_route():
    # Packets from 0 to 3 take the X-first route 0 -> 1 -> 3; networkx's
    # shortest path would be 0 -> 2 -> 3, a route the fabric never uses.
    monitor = build_monitor()
    monitor.tst.report(0, 2, LinkStatus.DOWN)
    allocation = monitor.request_memory(0, 64 * MB, donor=3)
    assert allocation.donor == 3
    assert allocation.hops == 2
    monitor.release(allocation)
    monitor.tst.report(1, 3, LinkStatus.DOWN)
    with pytest.raises(AllocationError):
        monitor.request_memory(0, 64 * MB, donor=3)


def test_mesh_link_down_affects_only_grants_routed_over_it():
    monitor = build_monitor()
    handler = FaultHandler(monitor)
    monitor.request_memory(0, 64 * MB, donor=3)
    assert handler.handle_link_down(0, 2).affected() == []
    affected = handler.handle_link_down(1, 3).affected()
    assert [step.action for step in affected] == [RecoveryAction.REROUTE]


def test_link_down_leaves_unrelated_allocations_alone():
    monitor = build_monitor()
    handler = FaultHandler(monitor)
    monitor.request_memory(requester=0, size_bytes=64 * MB)
    plan = handler.handle_link_down(6, 7)
    assert plan.count(RecoveryAction.UNAFFECTED) == 1
    assert plan.affected() == []


def test_node_failure_replaces_the_failed_donor():
    monitor = build_monitor()
    handler = FaultHandler(monitor)
    allocation = monitor.request_memory(requester=0, size_bytes=64 * MB)
    plan = handler.handle_node_failure(allocation.donor)
    assert plan.count(RecoveryAction.REALLOCATE) == 1
    step = plan.affected()[0]
    assert step.new_donor is not None and step.new_donor != allocation.donor
    # The original allocation record is gone; exactly one (the
    # replacement) remains active.
    active = monitor.rat.active()
    assert len(active) == 1
    assert active[0].donor == step.new_donor


def test_node_failure_revokes_what_the_failed_requester_held():
    monitor = build_monitor()
    handler = FaultHandler(monitor)
    allocation = monitor.request_memory(requester=3, size_bytes=64 * MB)
    plan = handler.handle_node_failure(3)
    assert plan.count(RecoveryAction.REVOKE) == 1
    assert monitor.rat.active() == []
    # The donor got its memory back.
    assert monitor.agent(allocation.donor).donated_bytes == 0


def test_heartbeat_sweep_handles_dead_nodes():
    monitor = build_monitor()
    handler = FaultHandler(monitor)
    monitor.request_memory(requester=0, size_bytes=64 * MB)
    # Nothing is stale yet.
    assert handler.check_heartbeats() == []
    # Let every heartbeat expire, then refresh only nodes 0-6: node 7 is dead.
    monitor.advance_time(10_000_000_000)
    for node in range(7):
        monitor.ingest_heartbeat(monitor.agent(node).heartbeat(monitor.now_ns))
    plans = handler.check_heartbeats()
    assert len(plans) == 1
    assert plans[0].event == "node7-failure"
    assert handler.events_handled == 1


# ----------------------------------------------------------------------
# Contention-aware policy
# ----------------------------------------------------------------------
def test_contention_aware_policy_avoids_measured_hot_links():
    from repro.runtime.policies import (ContentionAwarePolicy,
                                        FabricContentionTelemetry)
    # Node 0's neighbours in the mesh are 1, 2 and 4 (all one hop).
    # Saturate the links towards 1 and 2: the policy must prefer 4.
    telemetry = FabricContentionTelemetry(fractions={
        (0, 1): 0.9, (0, 2): 0.8})
    monitor = build_monitor(policy=ContentionAwarePolicy(telemetry=telemetry))
    allocation = monitor.request_memory(requester=0, size_bytes=64 * MB)
    assert allocation.donor == 4


def test_contention_aware_policy_falls_back_to_distance():
    from repro.runtime.policies import ContentionAwarePolicy
    # No telemetry wired: pure distance-first ordering (node-id ties).
    monitor = build_monitor(policy=ContentionAwarePolicy())
    allocation = monitor.request_memory(requester=0, size_bytes=64 * MB)
    assert allocation.hops == 1
    assert allocation.donor == 1


def test_contention_aware_weight_validation_and_registry():
    from repro.runtime.policies import (ContentionAwarePolicy, POLICIES,
                                        make_policy)
    with pytest.raises(ValueError):
        ContentionAwarePolicy(busy_weight=-1)
    assert "contention-aware" in POLICIES
    assert isinstance(make_policy("contention-aware"), ContentionAwarePolicy)


def test_contention_aware_policy_only_reorders_candidates():
    from repro.runtime.policies import (ContentionAwarePolicy,
                                        FabricContentionTelemetry)
    topology = build_mesh3d((2, 2, 2))
    monitor = build_monitor()
    candidates = monitor._candidate_donors(0, ResourceKind.MEMORY, 64 * MB)
    policy = ContentionAwarePolicy(
        telemetry=FabricContentionTelemetry(fractions={(0, 1): 1.0}))
    ordered = policy.order(0, ResourceKind.MEMORY, list(candidates),
                           topology, monitor.rat)
    assert sorted(record.node_id for record in ordered) == \
        sorted(record.node_id for record in candidates)
