"""Monitor Node: global resource allocation for the rack.

The MN keeps the RRT/RAT/TST up to date from agent heartbeats and
answers allocation requests.  The donor-selection policy follows the
prototype: among nodes with enough idle resource it picks the one
closest (fewest fabric hops) to the requester, preferring donors whose
links to the requester are healthy.  Because RRT records can be stale,
the MN performs a handshake with the candidate donor's agent and
retries with the next candidate on refusal (Section 5.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.fabric.topology import Topology
from repro.runtime.agent import HeartbeatReport, NodeAgent
from repro.runtime.policies import DistanceFirstPolicy, DonorSelectionPolicy
from repro.runtime.tables import (
    AllocationRecord,
    LinkStatus,
    ResourceAllocationTable,
    ResourceKind,
    ResourceRecord,
    ResourceRegistrationTable,
    TopologyStatusTable,
)


class AllocationError(RuntimeError):
    """Raised when no donor can satisfy a request."""


class BatchPlanError(AllocationError):
    """A batch plan failed mid-way through the queue.

    Carries exactly which ticket died and which tickets were put back
    on the request queue, so callers can drop (or resize) the failed
    request and retry the rest precisely instead of re-queueing blind.
    """

    def __init__(self, message: str, failed_request: "QueuedRequest",
                 requeued_tickets: List[int]):
        super().__init__(message)
        #: Ticket of the request the fleet could not cover.
        self.failed_ticket = failed_request.ticket
        #: The failed request itself (requester, size) for resubmission.
        self.failed_request = failed_request
        #: Tickets restored to the queue, in their original FIFO order.
        self.requeued_tickets = requeued_tickets


@dataclass
class Allocation:
    """Result handed back to the requester."""

    record: AllocationRecord
    donor: int
    amount: int
    hops: int


@dataclass
class QueuedRequest:
    """One batched memory request parked on the MN's request queue."""

    ticket: int
    requester: int
    size_bytes: int


@dataclass
class BatchPlanEntry:
    """Planned donor split for one queued request.

    ``plan`` is ``[(donor, take_bytes), ...]`` -- a single entry in the
    common one-donor case, multiple when the request had to spill.
    """

    ticket: int
    requester: int
    plan: List[tuple]


class MonitorNode:
    """The central resource manager (must be spared in a real deployment;
    the prototype -- and this model -- run a single instance)."""

    def __init__(self, topology: Topology, heartbeat_timeout_ns: int = 5_000_000_000,
                 policy: Optional[DonorSelectionPolicy] = None):
        self.topology = topology
        self.heartbeat_timeout_ns = heartbeat_timeout_ns
        self.policy = policy or DistanceFirstPolicy()
        self.rrt = ResourceRegistrationTable()
        self.rat = ResourceAllocationTable()
        self.tst = TopologyStatusTable()
        self._agents: Dict[int, NodeAgent] = {}  # simlint: disable=SIM006 -- bounded by fleet size, agents never deregister
        #: node_id -> (rrt.version, memory/accelerator/nic records):
        #: the fused heartbeat's per-node row cache, validated against
        #: the RRT version so replaced records are never written stale.
        self._beat_rows: Dict[int, tuple] = {}  # simlint: disable=SIM006 -- bounded by fleet size
        self.now_ns = 0
        self.requests_handled = 0
        self.handshake_retries = 0
        self._request_queue: List[QueuedRequest] = []
        self._next_ticket = 0
        #: Releases that arrived while the donor's agent was gone (dead
        #: or deregistered): the RAT record is settled, but the donor's
        #: own books could not be -- reconciled when the donor returns.
        self.orphaned_releases = 0
        self._orphaned: Dict[int, Dict[ResourceKind, int]] = {}  # simlint: disable=SIM006 -- drained on donor recovery; bounded by fleet size

    # ------------------------------------------------------------------
    # Registration and heartbeats
    # ------------------------------------------------------------------
    def register_agent(self, agent: NodeAgent) -> None:
        """Register a node's agent and ingest an initial report."""
        self._agents[agent.node_id] = agent
        self.reconcile_orphaned_releases(agent.node_id)
        self.ingest_agent_heartbeat(agent)

    def adopt_agent(self, agent: NodeAgent) -> None:
        """Track an agent for handshakes without ingesting its resources.

        Used by the shard coordinator: a foreign requester's agent must
        be known to this shard (requester validation, handshake plumbing)
        while its resources stay registered with its owning shard -- no
        RRT row is created, so the node can never be picked as a donor
        here.
        """
        self._agents[agent.node_id] = agent

    def deregister_agent(self, node_id: int) -> None:
        """Forget a node's agent (decommission/migration).

        RRT/RAT rows are left to the fault paths; releases naming the
        departed donor are counted as orphaned until it re-registers.
        """
        self._agents.pop(node_id, None)

    @property
    def registered_nodes(self) -> List[int]:
        return sorted(self._agents)

    def agent(self, node_id: int) -> NodeAgent:
        try:
            return self._agents[node_id]
        except KeyError:
            raise AllocationError(f"node {node_id} is not registered") from None

    def advance_time(self, delta_ns: int) -> None:
        """Advance the runtime's notion of time (heartbeat bookkeeping)."""
        if delta_ns < 0:
            raise ValueError("time cannot move backwards")
        self.now_ns += delta_ns

    def _fold_resource(self, node_id: int, kind: ResourceKind,
                       capacity: int, available: int,
                       timestamp_ns: int) -> None:
        """Fold one (node, kind) availability row into the RRT.

        Refreshes the existing record in place when possible:
        replication ingests a heartbeat per commit/release, and
        rebuilding three validated dataclasses per report dominated the
        sharded-MN hot path.  Field-for-field identical to
        re-registering (register() overwrote the row with a fresh
        record, which also reset capabilities).
        """
        available = min(available, capacity)
        record = self.rrt.get(node_id, kind)
        if (record is not None and record.capacity == capacity
                and available >= 0):
            record.available = available
            record.last_heartbeat_ns = timestamp_ns
            record.capabilities = ""
        else:
            self.rrt.register(ResourceRecord(
                node_id=node_id, kind=kind, capacity=capacity,
                available=available, last_heartbeat_ns=timestamp_ns,
            ))

    def ingest_heartbeat(self, report: HeartbeatReport) -> None:
        """Fold one heartbeat report into the RRT and TST."""
        for kind in ResourceKind:
            self._fold_resource(report.node_id, kind,
                                report.capacity.get(kind, 0),
                                report.available.get(kind, 0),
                                report.timestamp_ns)
        # Sorted neighbours: TST rows must be folded in an order that
        # does not depend on how the agent's link_status dict was built.
        for neighbor in sorted(report.link_status):
            self.tst.report(report.node_id, neighbor,
                            report.link_status[neighbor],
                            now_ns=report.timestamp_ns)

    def ingest_agent_heartbeat(self, agent: NodeAgent,
                               now_ns: Optional[int] = None) -> None:
        """Fold an agent's current state straight into the RRT and TST.

        Byte-identical to ``ingest_heartbeat(agent.heartbeat(now_ns))``
        but skips materializing the :class:`HeartbeatReport` (two kind
        dicts, a link-table copy and a dataclass per beat) -- the
        replicated-commit path beats once per allocation, which made the
        report itself a measurable share of the sharded-MN hot path.
        ``now_ns`` stamps the beat; it defaults to this monitor's clock
        (callers beating several replicas pass one shared timestamp).
        """
        if now_ns is None:
            now_ns = self.now_ns
        node_id = agent.node_id
        rrt = self.rrt
        cached = self._beat_rows.get(node_id)
        if cached is not None and cached[0] == rrt.version:
            # Row-cache fast path: the three records were looked up on a
            # previous beat and no register() has replaced any RRT row
            # since.  Idle amounts are computed inline (each is the
            # agent's capacity minus non-negative commitments, so the
            # [0, capacity] clamp of the report path is already
            # satisfied) and the capacity recheck keeps the fold
            # semantics if a capacity ever changed in place.
            mem, acc, nic = cached[1], cached[2], cached[3]
            available = (agent.memory_capacity_bytes
                         - agent.local_memory_used_bytes
                         - agent.donated_bytes - agent.reserve_bytes)
            if available < 0:
                available = 0
            if (mem.capacity == agent.memory_capacity_bytes
                    and acc.capacity == agent.num_accelerators
                    and nic.capacity == agent.num_nics):
                mem.available = available
                mem.last_heartbeat_ns = now_ns
                mem.capabilities = ""
                available = agent.num_accelerators - agent.accelerators_donated
                acc.available = available if available > 0 else 0
                acc.last_heartbeat_ns = now_ns
                acc.capabilities = ""
                available = agent.num_nics - agent.nics_donated
                nic.available = available if available > 0 else 0
                nic.last_heartbeat_ns = now_ns
                nic.capabilities = ""
                for neighbor, status in agent.link_reports():
                    self.tst.report(node_id, neighbor, status, now_ns=now_ns)
                return
        # The _fold_resource fast path, inlined: one beat per replicated
        # commit/release makes even the three call frames per beat
        # measurable.
        rows = rrt.rows
        for kind, capacity, available in (
                (ResourceKind.MEMORY, agent.memory_capacity_bytes,
                 agent.idle_memory_bytes()),
                (ResourceKind.ACCELERATOR, agent.num_accelerators,
                 agent.idle_accelerators()),
                (ResourceKind.NIC, agent.num_nics, agent.idle_nics())):
            if available > capacity:
                available = capacity
            record = rows.get((node_id, kind))
            if (record is not None and record.capacity == capacity
                    and available >= 0):
                record.available = available
                record.last_heartbeat_ns = now_ns
                record.capabilities = ""
            else:
                self._fold_resource(node_id, kind, capacity, available,
                                    now_ns)
        mem = rows.get((node_id, ResourceKind.MEMORY))
        acc = rows.get((node_id, ResourceKind.ACCELERATOR))
        nic = rows.get((node_id, ResourceKind.NIC))
        if mem is not None and acc is not None and nic is not None:
            self._beat_rows[node_id] = (rrt.version, mem, acc, nic)
        for neighbor, status in agent.link_reports():
            self.tst.report(node_id, neighbor, status, now_ns=now_ns)

    def collect_heartbeats(self) -> None:
        """Poll every registered agent (one heartbeat round).

        Polling in sorted node order makes the broadcast order -- and
        therefore every downstream tie-break fed by heartbeat ingestion
        -- deterministic by construction instead of by dict insertion
        history.
        """
        for node_id in sorted(self._agents):
            self.ingest_agent_heartbeat(self._agents[node_id])

    def dead_nodes(self) -> List[int]:
        """Nodes whose heartbeats have stopped arriving."""
        return self.rrt.stale_nodes(self.now_ns, self.heartbeat_timeout_ns)

    # ------------------------------------------------------------------
    # Donor selection
    # ------------------------------------------------------------------
    def _donor_eligible(self, requester: int, record: ResourceRecord) -> bool:
        """Shared eligibility rules for every donor-selection path.

        Both the allocation loop and the spill planner must apply the
        same filters, or a spill plan could include a donor the pinned
        per-chunk allocation rejects (unwinding the whole borrow).
        Called *lazily* while walking the policy-ordered candidates --
        the path check walks the candidate's route, and the first
        candidate usually wins, so an eager per-candidate filter would
        pay O(N) route walks per request.
        """
        return (record.node_id in self._agents
                and self._path_usable(requester, record.node_id))

    def _candidate_donors(self, requester: int, kind: ResourceKind,
                          amount: int,
                          donor: Optional[int] = None) -> List[ResourceRecord]:
        """Donors with enough idle resource, ordered by the active policy."""
        candidates = [
            record for record in self.rrt.records_of_kind(kind)
            if record.node_id != requester and record.available >= amount
            and (donor is None or record.node_id == donor)
        ]
        return self.policy.order(requester, kind, candidates, self.topology, self.rat)

    def _eligible_memory_donors(self, requester: int,
                                available: Dict[int, int]):
        """Policy-ordered eligible memory donors, yielded lazily.

        ``available`` maps donor id to the idle bytes the caller is
        planning against -- the live RRT view for the unbatched spill
        path, a working copy for batch planning.  Yielding keeps the
        eligibility check (a route walk) lazy, so greedy
        consumers stop paying it once their demand is covered; both the
        spill planner and the batch planner walk this one generator, so
        their donor choices can never diverge.
        """
        candidates = [
            record for record in self.rrt.records_of_kind(ResourceKind.MEMORY)
            if record.node_id != requester
            and available.get(record.node_id, 0) > 0
        ]
        for record in self.policy.order(requester, ResourceKind.MEMORY,
                                        candidates, self.topology, self.rat):
            if self._donor_eligible(requester, record):
                yield record

    def partial_memory_plan(self, requester: int, size_bytes: int,
                            available: Dict[int, int]) -> tuple:
        """Drain policy-ordered donors towards ``size_bytes``; allow a shortfall.

        Returns ``(plan, remaining)`` where ``plan`` is the usual
        ``[(donor, take_bytes), ...]`` and ``remaining`` is the demand
        this monitor's donors could not cover.  The shard coordinator
        uses this to fill what it can from the owning shard before
        forwarding the remainder cross-leaf; the single-instance paths
        wrap it and treat any shortfall as an error.
        """
        plan: List[tuple] = []
        remaining = size_bytes
        for record in self._eligible_memory_donors(requester, available):
            if remaining <= 0:
                break
            take = min(available[record.node_id], remaining)
            plan.append((record.node_id, take))
            remaining -= take
        return plan, remaining

    def _greedy_memory_plan(self, requester: int, size_bytes: int,
                            available: Dict[int, int]) -> List[tuple]:
        """Drain policy-ordered donors until ``size_bytes`` is covered."""
        plan, remaining = self.partial_memory_plan(requester, size_bytes,
                                                   available)
        if remaining > 0:
            raise AllocationError(
                f"fleet cannot cover {size_bytes} bytes of memory for node "
                f"{requester}: {remaining} bytes short across "
                f"{len(plan)} donors")
        return plan

    def memory_spill_plan(self, requester: int,
                          size_bytes: int) -> List[tuple]:
        """Split a memory request across donors in policy-preference order.

        Returns ``[(donor, take_bytes), ...]`` covering ``size_bytes``
        by greedily draining each donor's advertised idle memory before
        moving to the policy's next choice -- the spill path used when
        no single donor can cover the request.  Raises
        :class:`AllocationError` when the whole fleet cannot.
        """
        if size_bytes <= 0:
            raise AllocationError("requested amount must be positive")
        available = {
            record.node_id: record.available
            for record in self.rrt.records_of_kind(ResourceKind.MEMORY)
        }
        return self._greedy_memory_plan(requester, size_bytes, available)

    # ------------------------------------------------------------------
    # Batched request queue
    # ------------------------------------------------------------------
    def queue_memory_request(self, requester: int, size_bytes: int) -> int:
        """Park one memory request on the batch queue; returns a ticket.

        Queued requests are not allocated until
        :meth:`plan_queued_requests` plans the whole batch, so a sweep
        of N borrowers can register every request first and then have
        donors assigned with knowledge of the *entire* demand instead
        of first-come-first-served greed.
        """
        if requester not in self._agents:
            raise AllocationError(
                f"requester node {requester} is not registered")
        if size_bytes <= 0:
            raise AllocationError("requested amount must be positive")
        ticket = self._next_ticket
        self._next_ticket += 1
        self._request_queue.append(
            QueuedRequest(ticket=ticket, requester=requester,
                          size_bytes=size_bytes))
        return ticket

    @property
    def queued_requests(self) -> int:
        """Requests currently parked on the batch queue."""
        return len(self._request_queue)

    def dequeue_tickets(self, tickets) -> int:
        """Drop specific parked requests from the batch queue.

        Lets the owner of a failed batch retire exactly the tickets a
        :class:`BatchPlanError` re-queued (keeping the atomic-batch
        contract) without disturbing requests parked by anyone else.
        Returns how many were removed.
        """
        drop = set(tickets)
        before = len(self._request_queue)
        self._request_queue = [queued for queued in self._request_queue
                               if queued.ticket not in drop]
        return before - len(self._request_queue)

    def plan_queued_requests(self) -> List[BatchPlanEntry]:
        """Plan donors for every queued request against shared capacity.

        Plans in FIFO order against a *working copy* of the advertised
        idle memory, so one batch never double-books a donor: bytes
        planned for an earlier ticket are unavailable to later ones.
        Each request prefers a single policy-ordered donor and spills
        across donors only when no single one can cover it (the same
        semantics as the unbatched borrow path).

        On success the queue is consumed.  On a mid-batch failure
        nothing was allocated (planning is not allocation), so every
        ticket *except* the failed one is put back on the queue in its
        original FIFO order and a :class:`BatchPlanError` is raised
        naming the failed ticket and the re-queued ones -- callers can
        drop or shrink exactly the request that died and retry the rest.
        """
        batch, self._request_queue = self._request_queue, []
        available: Dict[int, int] = {
            record.node_id: record.available
            for record in self.rrt.records_of_kind(ResourceKind.MEMORY)
        }
        entries: List[BatchPlanEntry] = []
        for request in batch:
            # Single-donor preference, then greedy spill in policy
            # order -- the same semantics as the unbatched borrow path
            # (request_memory, then memory_spill_plan on refusal), and
            # the same donor walk (_eligible_memory_donors).  Planning
            # is not an allocation: requests_handled counts only the
            # per-chunk pinned requests the caller actually issues.
            single = next(
                (record for record
                 in self._eligible_memory_donors(request.requester, available)
                 if available[record.node_id] >= request.size_bytes),
                None)
            if single is not None:
                plan = [(single.node_id, request.size_bytes)]
            else:
                try:
                    plan = self._greedy_memory_plan(request.requester,
                                                    request.size_bytes,
                                                    available)
                except AllocationError as error:
                    # Restore every other ticket (earlier-planned ones
                    # included: their plans were never executed) ahead
                    # of anything queued while this batch was parked.
                    untouched = [queued for queued in batch
                                 if queued.ticket != request.ticket]
                    self._request_queue = untouched + self._request_queue
                    raise BatchPlanError(
                        f"batched request (ticket {request.ticket}, after "
                        f"{len(entries)} earlier tickets): {error}",
                        failed_request=request,
                        requeued_tickets=[q.ticket for q in untouched],
                    ) from None
            for donor, take in plan:
                available[donor] -= take
            entries.append(BatchPlanEntry(ticket=request.ticket,
                                          requester=request.requester,
                                          plan=plan))
        return entries

    def complete_ticket(self, ticket: int) -> None:
        """A planned ticket's chunks were all allocated (batch protocol).

        The single-instance MN keeps no in-flight ticket state -- the
        plan either executes synchronously or the caller unwinds -- so
        this is a no-op hook.  The sharded coordinator overrides it to
        retire the ticket from its replay tracking; callers (the
        matchmaker) call it unconditionally so both monitors speak the
        same batch protocol.
        """

    def _path_usable(self, requester: int, donor: int) -> bool:
        """True when every link on the path is reported usable (or unknown).

        The TST keys links by the *unordered* node pair;
        ``reported_status`` normalises the same way, so a DOWN report
        vetoes the path whichever direction traverses the link, while
        unreported links (None) never veto -- only links somebody
        actually reported may, unlike ``status()`` which defaults
        unknown links to DOWN.
        """
        path = self.topology.path_nodes(requester, donor)
        reported = self.tst.reported_status
        for node_a, node_b in zip(path, path[1:]):
            if reported(node_a, node_b) is LinkStatus.DOWN:
                return False
        return True

    # ------------------------------------------------------------------
    # Allocation entry points
    # ------------------------------------------------------------------
    def request_memory(self, requester: int, size_bytes: int,
                       donor: Optional[int] = None) -> Allocation:
        """Allocate ``size_bytes`` of remote memory for ``requester``.

        ``donor`` pins the allocation to one node (used by the spill
        path, which has already planned per-donor amounts); the default
        lets the policy choose.
        """
        return self._request(requester, ResourceKind.MEMORY, size_bytes,
                             handshake=lambda agent: agent.handle_hot_remove(size_bytes),
                             donor=donor)

    def request_accelerator(self, requester: int) -> Allocation:
        """Allocate one remote accelerator for ``requester``."""
        return self._request(requester, ResourceKind.ACCELERATOR, 1,
                             handshake=lambda agent: agent.handle_accelerator_grant())

    def request_nic(self, requester: int) -> Allocation:
        """Allocate one remote NIC for ``requester``."""
        return self._request(requester, ResourceKind.NIC, 1,
                             handshake=lambda agent: agent.handle_nic_grant())

    def _request(self, requester: int, kind: ResourceKind, amount: int,
                 handshake, donor: Optional[int] = None) -> Allocation:
        if requester not in self._agents:
            raise AllocationError(f"requester node {requester} is not registered")
        if amount <= 0:
            raise AllocationError("requested amount must be positive")
        self.requests_handled += 1
        candidates = self._candidate_donors(requester, kind, amount, donor=donor)
        if not candidates:
            raise AllocationError(
                f"no donor has {amount} of {kind.value} available for node {requester}"
            )
        for record in candidates:
            if not self._donor_eligible(requester, record):
                continue
            agent = self._agents[record.node_id]
            if not handshake(agent):
                # Stale RRT record: refresh it and try the next donor.
                self.handshake_retries += 1
                self.ingest_agent_heartbeat(agent)
                continue
            self.ingest_agent_heartbeat(agent)
            allocation_record = self.rat.add(AllocationRecord(
                requester=requester, donor=record.node_id, kind=kind,
                amount=amount, created_at_ns=self.now_ns,
            ))
            return Allocation(
                record=allocation_record,
                donor=record.node_id,
                amount=amount,
                hops=self.topology.hop_map(requester)[record.node_id],
            )
        raise AllocationError(
            f"every candidate donor refused the {kind.value} request from node {requester}"
        )

    # ------------------------------------------------------------------
    # Release
    # ------------------------------------------------------------------
    def release(self, allocation: Allocation) -> None:
        """Return a previously granted allocation to its donor.

        A release naming a donor whose agent is gone (dead donor, or a
        node migrated off this shard) settles the RAT record but cannot
        settle the donor's own books -- the amount is counted as an
        *orphaned release* and reconciled into the RRT when the donor
        returns (:meth:`reconcile_orphaned_releases`), so a recovered
        donor's advertised capacity does not leak.
        """
        record = self.rat.release(allocation.record.allocation_id)
        agent = self._agents.get(record.donor)
        if agent is None:
            self.orphaned_releases += 1
            per_kind = self._orphaned.setdefault(record.donor, {})
            per_kind[record.kind] = per_kind.get(record.kind, 0) + record.amount
            return
        if record.kind is ResourceKind.MEMORY:
            agent.handle_hot_add_back(record.amount)
        elif record.kind is ResourceKind.ACCELERATOR:
            agent.handle_accelerator_release()
        elif record.kind is ResourceKind.NIC:
            agent.handle_nic_release()
        self.ingest_agent_heartbeat(agent)

    def orphaned_amount(self, node_id: int,
                        kind: ResourceKind = ResourceKind.MEMORY) -> int:
        """Released-but-unsettled amount owed to a currently-gone donor."""
        return self._orphaned.get(node_id, {}).get(kind, 0)

    def reconcile_orphaned_releases(self, node_id: int) -> int:
        """Settle releases that arrived while the donor's agent was gone.

        Called on the donor's recovery (``handle_node_recovery``) and on
        re-registration: hot-adds the orphaned memory back into the
        agent (capped at its outstanding donations -- a node that truly
        rebooted has no donation ledger left to shrink) and returns the
        granted accelerator/NIC units, then re-ingests the heartbeat so
        the RRT advertises the reconciled capacity.  Returns the number
        of settled orphan entries.
        """
        per_kind = self._orphaned.pop(node_id, None)
        if per_kind is None:
            return 0
        agent = self._agents.get(node_id)
        if agent is None:
            # Recovery without an agent: keep the debt on the books.
            self._orphaned[node_id] = per_kind
            return 0
        settled = 0
        memory = min(per_kind.get(ResourceKind.MEMORY, 0), agent.donated_bytes)
        if memory > 0:
            agent.handle_hot_add_back(memory)
            settled += 1
        units = min(per_kind.get(ResourceKind.ACCELERATOR, 0),
                    agent.accelerators_donated)
        for _ in range(units):
            agent.handle_accelerator_release()
        settled += 1 if units else 0
        units = min(per_kind.get(ResourceKind.NIC, 0), agent.nics_donated)
        for _ in range(units):
            agent.handle_nic_release()
        settled += 1 if units else 0
        self.ingest_agent_heartbeat(agent)
        return settled
