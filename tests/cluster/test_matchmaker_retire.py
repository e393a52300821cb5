"""Releasing shares whose allocation a fault recovery already settled.

A link-down recovery that cannot reroute releases the allocation in
the Monitor Node (and may allocate a replacement donor) without telling
the matchmaker.  ``Matchmaker.release`` of such a share must retire it
-- stop sharing, drop the grant and the tracking -- and leave the
Monitor Node's books alone.
"""

import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.runtime.fault import FaultHandler, RecoveryAction

MB = 1024 * 1024


def _cut_off_donor(cluster, share):
    """Down the donor's only link; returns the recovery plan."""
    donor = share.donor
    (leaf,) = cluster.topology.neighbors(donor)
    return FaultHandler(cluster.monitor).handle_link_down(donor, leaf)


@pytest.mark.parametrize("shards", [None, 2])
def test_release_retires_a_share_the_fault_handler_settled(shards):
    cluster = Cluster(ClusterConfig(num_nodes=8, topology="fat_tree",
                                    monitor_shards=shards))
    matchmaker = cluster.matchmaker
    (share,) = matchmaker.borrow_memory(0, 64 * MB)
    plan = _cut_off_donor(cluster, share)
    (step,) = plan.affected()
    assert step.action is RecoveryAction.REALLOCATE
    books = [(record.allocation_id, record.donor)
             for record in cluster.monitor.rat.active()]
    assert share.allocation.record.allocation_id not in dict(books)

    matchmaker.release(share)

    assert share.released
    assert share not in matchmaker.shares
    assert share.grant not in cluster.system.grants
    # The replacement the fault handler allocated stays on the books.
    assert [(record.allocation_id, record.donor)
            for record in cluster.monitor.rat.active()] == books
    with pytest.raises(ValueError):
        matchmaker.release(share)


def test_release_retires_a_revoked_accelerator_share():
    cluster = Cluster(ClusterConfig(num_nodes=2, topology="star"))
    share = cluster.matchmaker.borrow_accelerator(0)
    plan = _cut_off_donor(cluster, share)
    assert [step.action for step in plan.affected()] == [RecoveryAction.REVOKE]
    cluster.matchmaker.release(share)
    assert share.released and cluster.matchmaker.shares == []
    assert cluster.monitor.rat.active() == []


def test_release_of_a_live_share_still_returns_it_to_the_monitor():
    cluster = Cluster(ClusterConfig(num_nodes=8, topology="fat_tree"))
    (share,) = cluster.matchmaker.borrow_memory(0, 64 * MB)
    cluster.matchmaker.release(share)
    assert cluster.monitor.rat.active() == []
    assert cluster.system.grants == []
