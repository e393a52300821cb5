"""Borrower/donor matchmaking across a cluster fleet.

The :class:`Matchmaker` is the fleet-level front door to the Monitor
Node: it turns "node R wants memory / an accelerator / a NIC" into a
donor allocation (ordered by the cluster's donor-selection policy), a
transport channel over the cluster's cached fabric paths, and the
matching sharing mechanism from :mod:`repro.core.sharing`.  Every
active relationship is tracked as a :class:`ResourceShare` so sweeps
can measure per-share latency and throughput and tear everything down
again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.sharing.remote_accelerator import RemoteAcceleratorTarget
from repro.core.sharing.remote_memory import RemoteMemoryGrant
from repro.core.sharing.remote_nic import VirtualNic
from repro.runtime.monitor import (
    Allocation,
    AllocationError,
    BatchPlanEntry,
    BatchPlanError,
)
from repro.runtime.shard import ShardUnavailableError
from repro.runtime.tables import ResourceKind


@dataclass(eq=False)
class ResourceShare:
    """One active borrower/donor relationship in the fleet.

    Identity equality (``eq=False``): shares are tracked and removed as
    live objects, and two field-identical shares must stay distinct.
    """

    kind: ResourceKind
    requester: int
    donor: int
    #: Bytes for memory shares, unit count otherwise.
    amount: int
    allocation: Allocation
    #: Fabric links on the route (including links into/out of routers).
    link_hops: int
    #: Router nodes crossed on the route.
    router_crossings: int
    #: The transport channel serving the share (CRMA for memory, RDMA
    #: for accelerator staging, QPair for NIC forwarding).
    channel: object
    grant: Optional[RemoteMemoryGrant] = None
    target: Optional[RemoteAcceleratorTarget] = None
    vnic: Optional[VirtualNic] = None
    released: bool = False


class Matchmaker:
    """Assigns resource shares across the fleet via the Monitor Node."""

    def __init__(self, cluster):
        self.cluster = cluster
        self.shares: List[ResourceShare] = []

    # ------------------------------------------------------------------
    # Individual borrows
    # ------------------------------------------------------------------
    def _record(self, kind: ResourceKind, requester: int,
                allocation: Allocation, amount: int, channel,
                **mechanism) -> ResourceShare:
        # The channel's path already encodes the route shape; reuse it
        # instead of re-running shortest-path queries on the topology.
        path = channel.path
        crossings = (path.external_router_count
                     if path.external_router is not None else 0)
        share = ResourceShare(
            kind=kind, requester=requester, donor=allocation.donor,
            amount=amount, allocation=allocation,
            link_hops=path.hops + crossings,
            router_crossings=crossings,
            channel=channel, **mechanism,
        )
        self.shares.append(share)
        return share

    def _borrow_memory_from(self, requester: int, size_bytes: int,
                            donor: Optional[int] = None) -> ResourceShare:
        """One Figure 2 flow: MN allocation (optionally pinned) + hot-plug."""
        allocation, grant = self.cluster.system.request_remote_memory(
            requester, size_bytes, donor=donor,
            channel_factory=lambda chosen: self.cluster.crma_channel(requester,
                                                                     chosen))
        return self._record(ResourceKind.MEMORY, requester, allocation,
                            size_bytes, grant.channel, grant=grant)

    def borrow_memory(self, requester: int, size_bytes: int,
                      spill: bool = True) -> List[ResourceShare]:
        """Borrow ``size_bytes`` of remote memory for ``requester``.

        Full Figure 2 flow against the policy-chosen donor, delegated to
        :meth:`VeniceSystem.request_remote_memory` with the CRMA channel
        built over the cluster's cached path.  When no single donor can
        cover the request and ``spill`` is true, the request is split
        across donors in policy-preference order (draining each donor's
        idle memory before moving on -- across leaves on a fat-tree), so
        a fleet with enough aggregate memory never refuses; each chunk
        becomes its own share with its own channel and grant.  Returns
        the created shares in allocation order (one entry in the common
        single-donor case).
        """
        try:
            return [self._borrow_memory_from(requester, size_bytes)]
        except AllocationError:
            if not spill:
                raise
        # Plan against advertised idle memory, then run one pinned
        # Figure 2 flow per planned chunk.  A stale record makes the
        # pinned request raise; unwind the partial borrow and surface
        # the failure rather than leave a half-satisfied request.
        plan = self.cluster.monitor.memory_spill_plan(requester, size_bytes)
        shares: List[ResourceShare] = []
        try:
            for donor, take in plan:
                shares.append(self._borrow_memory_from(requester, take,
                                                       donor=donor))
        except AllocationError:
            for share in reversed(shares):
                self.release(share)
            raise
        return shares

    # ------------------------------------------------------------------
    # Batched, overlappable borrows
    # ------------------------------------------------------------------
    def queue_requests(self,
                       requests: Sequence[Tuple[int, int]]) -> List[int]:
        """Park a batch of ``(requester, size)`` pairs on the MN queue.

        The batch must have the request queue to itself: planning
        consumes the *whole* queue, so requests parked there by another
        caller would be planned -- and allocated -- under this batch's
        name, misaligning the executed share lists.  A non-empty queue
        is therefore rejected up front.  Returns the issued tickets.
        """
        monitor = self.cluster.monitor
        if monitor.queued_requests:
            raise AllocationError(
                f"the MN request queue already holds "
                f"{monitor.queued_requests} parked request(s); plan them "
                "first -- a batch needs the queue to itself to keep "
                "its results aligned with its requests")
        return [monitor.queue_memory_request(requester, size_bytes)
                for requester, size_bytes in requests]

    def plan_queued(self) -> List["BatchPlanEntry"]:
        """Plan the parked batch, keeping the atomic-batch contract.

        On a capacity shortfall the MN re-queues every untouched ticket
        (:class:`BatchPlanError`); since this batch is all-or-nothing,
        those re-queued tickets are retired before re-raising so the
        queue is left clean for the caller's retry.  A
        :class:`ShardUnavailableError` (sharded monitor mid-crash) is
        passed through untouched -- the queue keeps the tickets and the
        failover replay owns them.
        """
        monitor = self.cluster.monitor
        try:
            return monitor.plan_queued_requests()
        except BatchPlanError as error:
            monitor.dequeue_tickets(error.requeued_tickets)
            raise

    def execute_plan(self, entries: Sequence["BatchPlanEntry"],
                     spill: bool = True) -> List[List[ResourceShare]]:
        """Run the pinned Figure 2 flow for every planned chunk.

        Each completed ticket is confirmed to the MN
        (:meth:`~repro.runtime.monitor.MonitorNode.complete_ticket`) so
        a sharded monitor retires it from crash-replay tracking.  On
        any failure the whole batch is unwound; if the failure was a
        shard-primary crash (:class:`ShardUnavailableError`) the
        batch's unfinished tickets stay in-flight so the promotion
        replays them, otherwise they are retired with the batch.
        """
        monitor = self.cluster.monitor
        results: List[List[ResourceShare]] = []
        created: List[ResourceShare] = []
        try:
            for entry in entries:
                if not spill and len(entry.plan) > 1:
                    raise AllocationError(
                        f"request for node {entry.requester} needs "
                        f"{len(entry.plan)} donors but spill is disabled")
                shares: List[ResourceShare] = []
                for donor, take in entry.plan:
                    share = self._borrow_memory_from(entry.requester, take,
                                                     donor=donor)
                    shares.append(share)
                    created.append(share)
                results.append(shares)
                monitor.complete_ticket(entry.ticket)
        except ShardUnavailableError:
            for share in reversed(created):
                self.release(share)
            raise
        except AllocationError:
            for share in reversed(created):
                self.release(share)
            for entry in entries:
                monitor.complete_ticket(entry.ticket)
            raise
        return results

    def borrow_queued(self, spill: bool = True) -> List[List[ResourceShare]]:
        """Plan and execute whatever is parked on the MN request queue.

        The retry entry point after a shard-primary failover: the
        promotion re-queued the replayed tickets, so planning the queue
        again finishes the interrupted batch.
        """
        return self.execute_plan(self.plan_queued(), spill=spill)

    def borrow_many(self, requests: Sequence[Tuple[int, int]],
                    spill: bool = True) -> List[List[ResourceShare]]:
        """Borrow memory for a whole batch of ``(requester, size)`` pairs.

        All requests are parked on the Monitor Node's request queue
        first, then donors are planned for the *entire* batch at once
        (:meth:`~repro.runtime.monitor.MonitorNode.plan_queued_requests`),
        so one batch never double-books a donor's idle memory and a
        sweep of N borrowers resolves its shares together instead of
        first-come-first-served.  Each planned chunk then runs the
        pinned Figure 2 flow.  On any stale-record failure the whole
        batch is unwound.  Returns one share list per request, aligned
        with ``requests`` order; pair with :meth:`touch_shares` to
        drive every borrower's first remote access concurrently over
        the fleet's event fabric.
        """
        self.queue_requests(requests)
        return self.borrow_queued(spill=spill)

    def touch_shares(self, shares: Sequence[ResourceShare],
                     size_bytes: int = 64) -> Dict[ResourceShare, int]:
        """Drive one first access per share concurrently (event backend).

        Submits one measured operation on every share's channel -- a
        CRMA read for memory shares, an RDMA page stage-in for
        accelerator shares, a QPair round trip for NIC shares -- and
        advances the fleet's shared simulator once for all of them, so
        the first accesses genuinely overlap and queue behind each
        other on shared links.  Returns each share's measured latency.
        """
        transport = self.cluster.event_transport()
        ops = []
        for share in shares:
            if share.kind is ResourceKind.MEMORY:
                ops.append(share.channel.submit_read(size_bytes))
            elif share.kind is ResourceKind.ACCELERATOR:
                ops.append(share.channel.submit_transfer(max(size_bytes, 64)))
            else:
                ops.append(share.channel.submit_round_trip(16,
                                                           max(size_bytes, 64)))
        transport.drive_all(ops)
        return {share: op.latency_ns for share, op in zip(shares, ops)}

    def borrow_accelerator(self, requester: int,
                           exclusive_mapping: bool = True) -> ResourceShare:
        """Borrow one remote accelerator (mailbox dispatch target)."""
        allocation = self.cluster.monitor.request_accelerator(requester)
        donor_node = self.cluster.node(allocation.donor)
        rdma = self.cluster.rdma_channel(requester, allocation.donor)
        target = RemoteAcceleratorTarget(
            accelerator=donor_node.primary_accelerator(),
            mailbox=donor_node.mailboxes[0],
            rdma=rdma,
            crma=self.cluster.crma_channel(requester, allocation.donor),
            qpair=self.cluster.qpair_channel(requester, allocation.donor),
            exclusive_mapping=exclusive_mapping,
        )
        return self._record(ResourceKind.ACCELERATOR, requester, allocation,
                            1, rdma, target=target)

    def borrow_nic(self, requester: int) -> ResourceShare:
        """Borrow one remote NIC as an IP-over-QPair virtual NIC."""
        allocation = self.cluster.monitor.request_nic(requester)
        donor_node = self.cluster.node(allocation.donor)
        qpair = self.cluster.qpair_channel(requester, allocation.donor)
        vnic = VirtualNic(real_nic=donor_node.primary_nic(), qpair=qpair)
        return self._record(ResourceKind.NIC, requester, allocation,
                            1, qpair, vnic=vnic)

    # ------------------------------------------------------------------
    # Fleet-level provisioning
    # ------------------------------------------------------------------
    def provision_fleet(self, memory_bytes_per_node: int = 0,
                        accelerators_per_node: int = 0,
                        nics_per_node: int = 0) -> List[ResourceShare]:
        """Every compute node borrows the requested shares from the fleet.

        Requesters are served in node order; the Monitor Node's donor
        policy spreads the matching donors.  Returns the newly created
        shares (in request order).
        """
        created: List[ResourceShare] = []
        for requester in self.cluster.node_ids:
            if memory_bytes_per_node > 0:
                created.extend(self.borrow_memory(requester,
                                                  memory_bytes_per_node))
            for _ in range(accelerators_per_node):
                created.append(self.borrow_accelerator(requester))
            for _ in range(nics_per_node):
                created.append(self.borrow_nic(requester))
        return created

    # ------------------------------------------------------------------
    # Teardown / queries
    # ------------------------------------------------------------------
    def release(self, share: ResourceShare) -> None:
        """Tear one share down and return the resource to its donor.

        A share whose allocation the Monitor Node no longer holds -- a
        link-down recovery that could not reroute already released it
        -- is retired instead (:meth:`retire`).
        """
        if share.released:
            raise ValueError("share is already released")
        monitor = self.cluster.monitor
        if not monitor.rat.is_active(share.allocation.record.allocation_id):
            self.retire(share)
            return
        if share.kind is ResourceKind.MEMORY:
            self.cluster.system.release_remote_memory(share.allocation,
                                                      share.grant)
        else:
            monitor.release(share.allocation)
        share.released = True
        self.shares.remove(share)

    def retire(self, share: ResourceShare) -> None:
        """Tear one share down, leaving the Monitor Node's books alone.

        For shares whose allocation the runtime has already settled
        (fault recovery): sharing stops, the grant is dropped and the
        matchmaker stops tracking the share.
        """
        if share.released:
            raise ValueError("share is already released")
        if share.grant is not None:
            self.cluster.system.retire_remote_memory(share.grant)
        share.released = True
        self.shares.remove(share)

    def release_all(self) -> None:
        """Tear down every active share (newest first)."""
        for share in list(reversed(self.shares)):
            self.release(share)

    def shares_of_kind(self, kind: ResourceKind) -> List[ResourceShare]:
        return [share for share in self.shares if share.kind is kind]

    def shares_for_donor(self, donor: int) -> List[ResourceShare]:
        return [share for share in self.shares if share.donor == donor]
