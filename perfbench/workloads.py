"""The benchmark's workloads: seeded inputs, a fixed-work batch, checks.

Every workload is a fixed amount of simulated work generated from the
seed alone.  :meth:`Workload.setup` builds a fresh cluster, so the
modelled fabric starts empty on every repetition; host-side memo caches
(cluster path memo, topology path cache, serialization memo) are warmed
by the provisioning step inside set-up.  :meth:`Workload.run` executes
the batch and returns an :class:`Outcome` holding everything simulated
it produced.  :func:`check` validates an outcome from its own fields,
so a corrupted outcome fails it.

Op latencies are simulated nanoseconds.  The host-time metrics are
taken around these calls by ``run.py``.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.cluster import Cluster, ClusterConfig
from repro.core.channels.backend import (
    EventTransport,
    OpTimeoutError,
    PendingOp,
    RetryPolicy,
    TransportError,
)
from repro.core.config import VeniceConfig
from repro.core.sharing.remote_memory import stop_sharing
from repro.core.system import VeniceSystem
from repro.fabric.packet import Packet, PacketKind
from repro.runtime.churn import ChurnConfig, ChurnEngine
from repro.runtime.fault import FaultHandler, RecoveryAction
from repro.runtime.monitor import Allocation, AllocationError

MIB = 1 << 20

#: A callable ``run.py`` passes to :meth:`Workload.run` to learn which op
#: is current (the traced run stamps it on spans).
OpMarker = Callable[[int], None]


def _no_marker(_op: int) -> None:
    return None


@dataclass
class Outcome:
    """What one batch did, in simulated terms plus the counts checks need."""

    #: Ops the batch issued; a refused borrow that the next wave retries
    #: counts once per attempt.
    attempted: int
    #: Ops that completed (the op's latency is in ``latencies_ns``).
    completed: int
    #: Ops that ended in a typed failure the model defines: an
    #: ``OpTimeoutError`` after its retries, or a borrow refused with
    #: ``BatchPlanError``/``ShardUnavailableError``.
    typed_failures: int
    #: Ops that ended in any other way (an untyped error); must be 0.
    untyped_failures: int
    #: Simulated latency of every completed op, in completion order.
    latencies_ns: List[int]
    #: Events dispatched during the batch, and the simulated end time.
    events: int
    sim_end_ns: int
    #: Model counters (fabric, channels, cluster, runtime) of the batch.
    counters: Dict[str, int] = field(default_factory=dict)
    #: Workload-specific invariants, each ``name -> (actual, expected)``.
    invariants: Dict[str, List[int]] = field(default_factory=dict)
    #: Digest of the fields above, taken when the batch finished.
    digest: str = ""

    def compute_digest(self) -> str:
        content = {
            "attempted": self.attempted,
            "completed": self.completed,
            "typed_failures": self.typed_failures,
            "untyped_failures": self.untyped_failures,
            "latencies_ns": self.latencies_ns,
            "events": self.events,
            "sim_end_ns": self.sim_end_ns,
            "counters": self.counters,
            "invariants": self.invariants,
        }
        blob = json.dumps(content, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()

    def seal(self) -> "Outcome":
        self.digest = self.compute_digest()
        return self


def check(outcome: Outcome, reference_digest: Optional[str] = None) -> List[str]:
    """Correctness errors of ``outcome`` (empty when it is correct).

    ``reference_digest`` is the digest of an earlier batch with the same
    seed; the simulation is deterministic, so any difference is an error.
    """
    errors = []
    if outcome.attempted < 1:
        errors.append("no op was attempted")
    settled = outcome.completed + outcome.typed_failures + outcome.untyped_failures
    if settled != outcome.attempted:
        errors.append(f"{outcome.attempted} ops attempted but {settled} settled")
    if outcome.untyped_failures:
        errors.append(f"{outcome.untyped_failures} ops failed without a typed error")
    if len(outcome.latencies_ns) != outcome.completed:
        errors.append(f"{outcome.completed} ops completed but "
                      f"{len(outcome.latencies_ns)} latencies recorded")
    if any(latency <= 0 for latency in outcome.latencies_ns):
        errors.append("an op completed in zero or negative simulated time")
    for name, (actual, expected) in sorted(outcome.invariants.items()):
        if actual != expected:
            errors.append(f"{name}: {actual} != {expected}")
    if outcome.digest != outcome.compute_digest():
        errors.append("outcome changed after the batch finished")
    if reference_digest is not None and outcome.digest != reference_digest:
        errors.append("simulated results differ from an earlier batch "
                      "with the same seed")
    return errors


def fabric_counters(fabric) -> Dict[str, int]:
    """Fabric-wide totals of the counters the per-layer metrics report."""
    totals = {"fabric.packets_delivered": 0, "fabric.replays": 0,
              "fabric.credit_stalls": 0, "fabric.admin_drops": 0,
              "fabric.dropped": 0}
    for key in sorted(fabric.datalinks):
        datalink = fabric.datalinks[key]
        counters = datalink.stats.counters
        totals["fabric.replays"] += counters["replays"].value
        totals["fabric.credit_stalls"] += datalink.credits.stall_count
        for name in ("link_faults", "packets_dropped_no_sink"):
            if name in counters:
                totals["fabric.dropped"] += counters[name].value
    for key in sorted(fabric.links):
        counter = fabric.links[key].stats.counters.get("packets_dropped_no_sink")
        if counter is not None:
            totals["fabric.dropped"] += counter.value
    for node_id in sorted(fabric.switches):
        counters = fabric.switches[node_id].stats.counters
        totals["fabric.packets_delivered"] += counters["packets_ejected"].value
        totals["fabric.admin_drops"] += counters["packets_dropped_admin_down"].value
        totals["fabric.dropped"] += counters["packets_dropped_admin_down"].value
        counter = counters.get("packets_dropped_no_sink")
        if counter is not None:
            totals["fabric.dropped"] += counter.value
    return totals


def load_nodes(cluster: Cluster, rng: random.Random) -> None:
    """Give a seeded quarter of the fleet no idle memory to donate.

    Those nodes run local work that uses all their memory; the rest use
    a seeded share of theirs.  Donor placement, and with it the route
    and the contention each share sees, then depends on the seed.
    """
    monitor = cluster.monitor
    nodes = list(cluster.node_ids)
    busy = set(rng.sample(nodes, len(nodes) // 4))
    for node in nodes:
        agent = monitor.agent(node)
        capacity = agent.memory_capacity_bytes
        agent.set_local_usage(capacity if node in busy
                              else rng.randrange(capacity // 2))
        monitor.ingest_agent_heartbeat(agent)


def retire_settled_share(cluster: Cluster, share) -> None:
    """Retire a share whose allocation the fault handler already settled.

    A link-down recovery that cannot reroute releases the allocation
    in the Monitor Node (and may allocate a replacement) without telling
    the matchmaker, so ``Matchmaker.release`` would release it twice and
    fail.  As the cluster churn experiment does for shares of crashed
    donors, the Monitor Node is left alone; the grant and the
    matchmaker's tracking are torn down here.
    """
    system = cluster.system
    grant = share.grant
    stop_sharing(grant, donor_map=system.node(grant.donor_node).memory_map,
                 recipient_map=system.node(grant.recipient_node).memory_map)
    system.grants.remove(grant)
    share.released = True
    cluster.matchmaker.shares.remove(share)


def _delta(after: Dict[str, int], before: Dict[str, int]) -> Dict[str, int]:
    return {name: value - before.get(name, 0) for name, value in after.items()}


def transport_counters(transport: EventTransport) -> Dict[str, int]:
    """Fabric and channel counters of an event transport, for deltas."""
    counters = fabric_counters(transport.fabric)
    counters.update({"channels.ops_completed": transport.ops_completed,
                     "channels.ops_timed_out": transport.ops_timed_out,
                     "channels.unmatched": transport.unmatched})
    return counters


class Workload:
    """One benchmark workload; subclasses define set-up and the batch."""

    name = ""
    #: Dispatch core the workload declares; the run fails if the
    #: simulator resolves to another one.
    core = "c"

    def setup(self, seed: int, phase: Callable[[str], None]) -> dict:
        """Build a fresh instance; ``phase(name)`` marks the end of each step.

        The returned state holds the simulator under ``"sim"``.
        """
        raise NotImplementedError

    def run(self, state: dict, mark: OpMarker = _no_marker) -> Outcome:
        raise NotImplementedError


class FleetReads(Workload):
    """Every node of a fat-tree reads from its borrowed share, in waves.

    Set-up builds the cluster and its event fabric, loads a seeded
    quarter of the nodes so that they cannot donate, and lets every
    node borrow ``SHARE_BYTES`` once through one batched matchmaker
    call.  The batch then runs ``waves`` closed-loop waves: in each,
    every borrower has one op in flight towards its donor -- a CRMA
    64 B read, an RDMA transfer or a QPair round trip, drawn from the
    seed with weights 1/2, 1/4, 1/4 -- and one ``drive_all`` runs the
    wave.
    """

    name = "fleet_reads"
    SHARE_BYTES = MIB

    def __init__(self, num_nodes: int = 256, waves: int = 120):
        self.num_nodes = num_nodes
        self.waves = waves

    def setup(self, seed, phase):
        cluster = Cluster(ClusterConfig(num_nodes=self.num_nodes,
                                        topology="fat_tree",
                                        transport_backend="event"))
        phase("cluster_build")
        transport = cluster.event_transport()
        phase("transport_build")
        rng = random.Random(seed)
        load_nodes(cluster, rng)
        batches = cluster.matchmaker.borrow_many(
            [(node, self.SHARE_BYTES) for node in cluster.node_ids])
        lanes = []
        for batch in batches:
            share = batch[0]  # a 1 MiB borrow never spills to a second donor
            lanes.append((share.channel,
                          cluster.rdma_channel(share.requester, share.donor),
                          cluster.qpair_channel(share.requester, share.donor)))
        # Per borrower and wave: (0, 64) = CRMA 64 B read, (1, size) =
        # RDMA transfer of 2-6 KiB, (2, size) = QPair round trip with a
        # 64 B-1 KiB response.  Sizes vary so that simulated latencies
        # spread over a range instead of a few values.
        schedule = [[(kind, (64, rng.randint(2048, 6144),
                             rng.randint(64, 1024))[kind])
                     for kind in (rng.choice((0, 0, 1, 2)) for _ in lanes)]
                    for _ in range(self.waves)]
        phase("provision")
        return {"cluster": cluster, "transport": transport, "sim": transport.sim,
                "lanes": lanes, "schedule": schedule}

    def run(self, state, mark=_no_marker):
        transport: EventTransport = state["transport"]
        sim = transport.sim
        lanes = state["lanes"]
        events_before = sim.events_processed
        counters_before = transport_counters(transport)
        latencies: List[int] = []
        attempted = typed = untyped = 0
        expected_peak = 0
        for wave, kinds in enumerate(state["schedule"]):
            mark(wave)
            ops: List[PendingOp] = []
            for (crma, rdma, qpair), (kind, size) in zip(lanes, kinds):
                if kind == 0:
                    ops.append(crma.submit_read(size))
                elif kind == 1:
                    ops.append(rdma.submit_transfer(size))
                else:
                    ops.append(qpair.submit_round_trip(16, size))
            attempted += len(ops)
            expected_peak = max(expected_peak, transport.expected_packets)
            try:
                transport.drive_all(ops)
            except TransportError:
                pass  # unresolved ops are counted as untyped below
            for op in ops:
                if op.done:
                    latencies.append(op.latency_ns)
                elif isinstance(op.error, OpTimeoutError):
                    typed += 1
                else:
                    untyped += 1
        counters = _delta(transport_counters(transport), counters_before)
        counters.update({"channels.expected_peak": expected_peak,
                         "channels.retries": 0})
        return Outcome(
            attempted=attempted, completed=len(latencies),
            typed_failures=typed, untyped_failures=untyped,
            latencies_ns=latencies,
            events=sim.events_processed - events_before, sim_end_ns=sim.now,
            counters=counters,
            invariants={"expect handlers left": [transport.expected_packets, 0],
                        "fabric drops": [counters["fabric.dropped"], 0]},
        ).seal()


class BorrowChurn(Workload):
    """Fleet-wide borrow, read, release waves under MN crashes and link flaps.

    A fat-tree cluster runs a sharded, replicated Monitor Node.  Each
    wave queues a borrow for every node, plans and executes the batch,
    does one deadline-guarded CRMA read per share and releases every
    share, then idles ``WAVE_GAP_NS`` of simulated time.  A churn
    campaign drawn from the seed crashes shard primaries and flaps
    links meanwhile.  A refused wave (``BatchPlanError``,
    ``ShardUnavailableError`` or another ``AllocationError``) counts
    each of its borrows as attempted and not completed, and the next
    wave tries again.  An op is one borrow, read, release cycle; its
    latency is the read's, retries and backoff included.
    """

    name = "borrow_churn"
    WAVE_GAP_NS = 15_000
    READ_DEADLINE_NS = 200_000

    def __init__(self, num_nodes: int = 64, shards: int = 4, waves: int = 200,
                 link_flaps: int = 8, mn_crashes: int = 4):
        self.num_nodes = num_nodes
        self.shards = shards
        self.waves = waves
        self.link_flaps = link_flaps
        self.mn_crashes = mn_crashes

    def setup(self, seed, phase):
        cluster = Cluster(ClusterConfig(num_nodes=self.num_nodes,
                                        topology="fat_tree",
                                        monitor_shards=self.shards,
                                        transport_backend="event"))
        phase("cluster_build")
        transport = cluster.event_transport()
        phase("transport_build")
        rng = random.Random(seed)
        requests = [(node, MIB) for node in cluster.node_ids]
        # Read size per wave and node: 64 B to 1 KiB.
        read_sizes = [{node: rng.randint(64, 1024)
                       for node in cluster.node_ids}
                      for _ in range(self.waves)]
        # Provisioning: one fleet borrow and release warms the path memo
        # and the planner's caches; the ledger is empty again after it.
        cluster.matchmaker.borrow_many(requests)
        cluster.matchmaker.release_all()
        monitor = cluster.monitor
        # The campaign spans the batch: each wave takes the gap plus
        # roughly one read round trip of simulated time.
        engine = ChurnEngine(
            transport, monitor,
            FaultHandler(monitor, reallocate_on_node_failure=False),
            ChurnConfig(seed=seed, horizon_ns=self.waves * 20_000,
                        link_flaps=self.link_flaps, router_failures=0,
                        node_crashes=0, mn_crashes=self.mn_crashes,
                        flap_duration_ns=20_000, mn_crash_down_ns=100_000,
                        heartbeat_period_ns=20_000,
                        heartbeat_timeout_ns=50_000))
        phase("provision")
        return {"cluster": cluster, "transport": transport, "sim": transport.sim,
                "engine": engine, "requests": requests,
                "read_sizes": read_sizes}

    def run(self, state, mark=_no_marker):
        cluster: Cluster = state["cluster"]
        transport: EventTransport = state["transport"]
        engine: ChurnEngine = state["engine"]
        matchmaker = cluster.matchmaker
        monitor = cluster.monitor
        sim = transport.sim
        requests = state["requests"]
        retry = RetryPolicy(max_attempts=3, backoff_ns=20_000)
        events_before = sim.events_processed
        counters_before = transport_counters(transport)
        latencies: List[int] = []
        attempted = typed = untyped = 0
        refused_waves = borrows = releases = retries = expected_peak = 0
        retired = replacements = strays = 0
        refusals: Dict[str, int] = {}
        engine.start()
        for wave in range(self.waves):
            mark(wave)
            attempted += len(requests)
            if monitor.queued_requests == 0:
                matchmaker.queue_requests(requests)
            try:
                batches = matchmaker.borrow_queued()
            except AllocationError as error:
                # A ShardUnavailableError keeps the tickets queued for
                # the failover replay; the other refusals retire them.
                kind = type(error).__name__
                refusals[kind] = refusals.get(kind, 0) + 1
                refused_waves += 1
                typed += len(requests)
                sim.run(until=sim.now + self.WAVE_GAP_NS)
                continue
            shares = [share for batch in batches for share in batch]
            borrows += len(shares)
            sizes = state["read_sizes"][wave]
            ops = [transport.submit_with_retry(
                lambda share=share: share.channel.submit_read(
                    sizes[share.requester], deadline_ns=self.READ_DEADLINE_NS),
                retry, label=f"read-n{share.requester}")
                for share in shares]
            expected_peak = max(expected_peak, transport.expected_packets)
            plans_seen = len(engine.plans)
            try:
                transport.drive_all(ops)
            except TransportError:
                pass  # unresolved ops are counted as untyped below
            steps = [step for plan in engine.plans[plans_seen:]
                     for step in plan.steps]
            settled = {step.allocation.allocation_id for step in steps
                       if step.action in (RecoveryAction.REVOKE,
                                          RecoveryAction.REALLOCATE)}
            # A request split over several donors is one op that
            # completes when its every chunk's read does.
            done = {}
            for share, op in zip(shares, ops):
                retries += op.attempts - 1
                entry = done.setdefault(share.requester, [0, False, False])
                if op.done:
                    entry[0] = max(entry[0], op.latency_ns)
                elif isinstance(op.error, OpTimeoutError):
                    entry[1] = True
                else:
                    entry[2] = True
            for requester in sorted(done):
                latency, timed_out, broken = done[requester]
                if broken:
                    untyped += 1
                elif timed_out:
                    typed += 1
                else:
                    latencies.append(latency)
            typed += len(requests) - len(done)
            for share in reversed(shares):
                if share.allocation.record.allocation_id in settled:
                    retire_settled_share(cluster, share)
                    retired += 1
                else:
                    matchmaker.release(share)
                    releases += 1
            # Replacements the fault handler allocated for settled
            # shares belong to no share; return them as well.  Releases
            # a crashed shard buffered apply when it fails over; any
            # other allocation still active leaked and fails the check.
            expected = Counter((step.allocation.requester, step.new_donor,
                                step.allocation.amount) for step in steps
                               if step.action is RecoveryAction.REALLOCATE)
            buffered = {allocation_id
                        for shard in monitor.coordinator.shards
                        for allocation_id in shard.pending_releases}
            for record in monitor.rat.active():
                key = (record.requester, record.donor, record.amount)
                if record.allocation_id in buffered:
                    continue
                if expected[key] > 0:
                    expected[key] -= 1
                    monitor.release(Allocation(record=record, donor=record.donor,
                                               amount=record.amount, hops=0))
                    replacements += 1
                else:
                    strays += 1
            sim.run(until=sim.now + self.WAVE_GAP_NS)
        engine.stop()
        sim.run_until_idle()
        counters = _delta(transport_counters(transport), counters_before)
        counters.update({
            "channels.expected_peak": expected_peak,
            "channels.retries": retries,
            "cluster.borrows": borrows,
            "cluster.releases": releases,
            "runtime.borrows_requested": attempted,
            "runtime.borrows_granted": attempted - refused_waves * len(requests),
            "runtime.refused_waves": refused_waves,
            "runtime.tickets_replayed": monitor.tickets_replayed,
            "runtime.allocations_lost": monitor.allocations_lost,
            "runtime.mn_crashes": engine.mn_crashes_applied,
            "runtime.link_flaps": engine.flaps_applied,
            "runtime.shares_settled_by_faults": retired,
            "runtime.fault_replacements_returned": replacements,
        })
        for kind, count in sorted(refusals.items()):
            counters[f"runtime.refused.{kind}"] = count
        return Outcome(
            attempted=attempted, completed=len(latencies),
            typed_failures=typed, untyped_failures=untyped,
            latencies_ns=latencies,
            events=sim.events_processed - events_before, sim_end_ns=sim.now,
            counters=counters,
            invariants={
                "expect handlers left": [transport.expected_packets, 0],
                "allocations lost": [monitor.allocations_lost, 0],
                "ledger balanced": [int(monitor.ledger_balanced()), 1],
                "shares left": [len(matchmaker.shares), 0],
                "active allocations left": [len(monitor.rat.active()), 0],
                "allocations leaked by a wave": [strays, 0],
            },
        ).seal()


class DeliveryLog:
    """Local sink of every switch: records each packet's simulated latency."""

    def __init__(self, sim):
        self.sim = sim
        self.latencies_ns: List[int] = []

    def deliver(self, packet: Packet) -> None:
        self.latencies_ns.append(self.sim.now - packet.created_at)


class PacketStorm(Workload):
    """Seeded all-to-all bursts of 256 B packets on a bare event fabric.

    Open loop in simulated time: every node injects ``burst`` packets
    per round, ``SPACING_NS`` apart, to seeded destinations; rounds
    start ``ROUND_GAP_NS`` apart.  A burst offers more than a node's
    access link carries, so packets queue and stall on credits, and the
    gap lets the fabric drain.  An op is one injected packet; its
    latency runs from the packet's scheduled injection time to its
    delivery.  A packet the fabric drops and counts is a typed failure.
    """

    name = "packet_storm"
    PAYLOAD_BYTES = 256
    SPACING_NS = 200
    ROUND_GAP_NS = 400_000

    def __init__(self, num_nodes: int = 64, rounds: int = 8, burst: int = 100,
                 core: str = "c"):
        self.num_nodes = num_nodes
        self.rounds = rounds
        self.burst = burst
        self.core = core
        if core != "c":
            self.name = f"packet_storm_{core}"

    def setup(self, seed, phase):
        system = VeniceSystem.build(VeniceConfig(num_nodes=self.num_nodes,
                                                 topology="fat_tree"))
        phase("cluster_build")
        fabric = system.build_event_fabric()
        phase("transport_build")
        log = DeliveryLog(fabric.sim)
        for node_id in sorted(fabric.switches):
            fabric.switches[node_id].attach_local_sink(log.deliver)
        rng = random.Random(seed)
        compute = system.topology.compute_nodes
        peers = {src: [node for node in compute if node != src]
                 for src in compute}
        injected = 0
        for round_index in range(self.rounds):
            base = round_index * self.ROUND_GAP_NS
            for src in compute:
                inject = fabric.switches[src].inject
                for slot in range(self.burst):
                    at = base + slot * self.SPACING_NS
                    packet = Packet(src=src, dst=rng.choice(peers[src]),
                                    kind=PacketKind.QPAIR_DATA,
                                    payload_bytes=self.PAYLOAD_BYTES,
                                    created_at=at)
                    fabric.sim.schedule_at(at, inject, packet)
                    injected += 1
        phase("provision")
        return {"fabric": fabric, "sim": fabric.sim, "log": log,
                "injected": injected}

    def run(self, state, mark=_no_marker):
        fabric = state["fabric"]
        sim = fabric.sim
        log: DeliveryLog = state["log"]
        mark(0)
        events_before = sim.events_processed
        sim.run_until_idle()
        counters = fabric_counters(fabric)
        delivered = len(log.latencies_ns)
        dropped = counters["fabric.dropped"]
        return Outcome(
            attempted=state["injected"], completed=delivered,
            typed_failures=dropped,
            untyped_failures=state["injected"] - delivered - dropped,
            latencies_ns=log.latencies_ns,
            events=sim.events_processed - events_before, sim_end_ns=sim.now,
            counters=counters,
            invariants={"injected = delivered + dropped":
                        [state["injected"], delivered + dropped],
                        "switch ejections": [counters["fabric.packets_delivered"],
                                             delivered]},
        ).seal()


WORKLOADS: Dict[str, Callable[[], Workload]] = {
    "fleet_reads": FleetReads,
    "borrow_churn": BorrowChurn,
    "packet_storm": PacketStorm,
    "packet_storm_py": lambda: PacketStorm(core="py"),
}
