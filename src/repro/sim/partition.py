"""Parallel per-leaf simulation with a conservative-lookahead barrier.

A fat-tree event fabric decomposes naturally: each leaf router plus its
compute nodes forms a partition whose components only interact with the
rest of the fabric through leaf<->spine links, and the spine routers
form one more partition.  Each partition gets its **own**
:class:`~repro.sim.engine.Simulator`; the partitions advance in
lock-step windows bounded by a *conservative lookahead*:

* **The cut.**  Every physical link and datalink -- including all of
  its credit, replay and receive-pipeline state -- is owned wholly by
  the partition of its *sending* switch.  The only interaction that
  crosses a partition boundary is the final hand-off of a clean,
  acknowledged packet into the receiving switch
  (:meth:`~repro.fabric.network.Switch.inject`), which in the
  monolithic fabric is a synchronous call that schedules the switch's
  ``_route`` one forwarding latency later.  Cross-partition datalinks
  therefore deliver into a :class:`BoundaryPort` that records
  ``(emit_time, port, emit_index, packet)`` instead of calling the
  foreign switch directly.

* **The lookahead.**  Let ``L`` be the minimum switch forwarding
  latency over the fabric (50 ns at Table-1 defaults).  A boundary
  emission at time ``t`` affects the receiving partition no earlier
  than ``t + L``.  With every partition clock aligned at a barrier and
  ``t_min`` the earliest pending event anywhere, every partition can
  safely run through the *horizon* ``H = t_min + L``: any emission in
  that window happens at ``t >= t_min``, so its effect lands at
  ``t + fwd >= t_min + L = H`` -- never inside the window that produced
  it.  ``Simulator.run(until=H)`` executes events at exactly ``H`` and
  parks the clock at ``H``, so all partitions leave each window
  aligned.

* **The barrier.**  Records collected from all partitions are sorted by
  the global key ``(emit_time, port_name, emit_index)`` and applied in
  that order: apply = bump the receiving switch's ``packets_switched``
  counter and ``schedule_at(emit_time + fwd_ns, switch._route,
  packet)`` on the receiver's simulator -- exactly the event the
  monolithic ``inject`` would have scheduled, at exactly the same
  simulated time, costing exactly the same one event.  An effect
  landing exactly **on** the horizon enters the receiver's ready deque
  (its clock is already at ``H``) and dispatches first thing in the
  next window, still at simulated time ``H``.

Because the apply order is a pure function of the records and the
per-partition simulators are deterministic, the merged execution is
reproducible: the sequential in-process executor
(:class:`PartitionedSim`) and the ``multiprocessing`` fork executor
(:func:`run_partitioned`) produce byte-identical merged stats dumps,
which the equivalence suite also pins against the single-simulator
fabric (see ``tests/sim/test_partition_equivalence.py``).

Ordering caveat (documented, by design): a cross-partition packet whose
effect ties to the nanosecond with an unrelated event of the receiving
partition may dispatch on the other side of that tie than the
monolithic interleaving chose.  Simulated *times* are always identical;
only same-instant tie order at the boundary is refined.  The
equivalence workloads stagger injections so no such tie occurs, and the
merged dumps are byte-identical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.fabric.datalink import DataLink
from repro.fabric.network import Switch, program_routes
from repro.fabric.packet import Packet, PacketKind
from repro.fabric.phy import PhysicalLink
from repro.fabric.topology import Topology, build_fat_tree
from repro.sim.engine import SimulationError, Simulator

__all__ = [
    "PartitionPlan", "plan_leaf_partitions", "BoundaryPort",
    "PartitionedFabric", "build_partitioned_fabric", "PartitionedSim",
    "PartitionedEventFabric",
    "ParallelFabricSpec", "build_spec_workload", "run_sequential_baseline",
    "run_partitioned", "canonical_dump",
]


# ----------------------------------------------------------------------
# Partition planning
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PartitionPlan:  # simlint: disable=SIM004 -- built once per run, never touched on the per-packet path
    """Assignment of topology nodes to partitions.

    ``partitions[pid]`` is the sorted tuple of node ids owned by
    partition ``pid``.  The plan is a pure function of the topology, so
    every process that builds it (inline runner, fork workers, the
    coordinating parent) derives identical ownership.
    """

    partitions: Tuple[Tuple[int, ...], ...]

    @property
    def num_partitions(self) -> int:
        return len(self.partitions)

    def node_partition(self) -> Dict[int, int]:
        """node id -> owning partition id."""
        owner: Dict[int, int] = {}
        for pid, nodes in enumerate(self.partitions):
            for node in nodes:
                owner[node] = pid
        return owner


def plan_leaf_partitions(topology: Topology) -> PartitionPlan:
    """Per-leaf partitioning: one partition per leaf router + one spine.

    A *leaf* is a router with at least one compute-node neighbour; its
    partition contains the leaf and its attached compute nodes.
    Routers without compute neighbours (the spines) share one final
    partition.  Topologies without routers (mesh, direct pair) fall
    back to a single partition -- the runner degenerates to the
    monolithic execution.
    """
    compute = set(topology.compute_nodes)
    leaves = [node for node in sorted(topology.router_nodes)
              if any(nbr in compute for nbr in topology.graph.neighbors(node))]
    spines = [node for node in sorted(topology.router_nodes)
              if node not in set(leaves)]
    if not leaves:
        return PartitionPlan(partitions=(tuple(topology.nodes),))
    assigned: Dict[int, int] = {}
    groups: List[List[int]] = []
    for leaf in leaves:
        pid = len(groups)
        members = [leaf]
        assigned[leaf] = pid
        for nbr in sorted(topology.graph.neighbors(leaf)):
            if nbr in compute and nbr not in assigned:
                members.append(nbr)
                assigned[nbr] = pid
        groups.append(sorted(members))
    leftovers = [node for node in topology.nodes
                 if node not in assigned and node not in set(spines)]
    if leftovers:
        # Compute nodes not under any leaf (irregular topologies) ride
        # with the first partition rather than failing the plan.
        groups[0] = sorted(groups[0] + leftovers)
    if spines:
        groups.append(sorted(spines))
    return PartitionPlan(partitions=tuple(tuple(g) for g in groups))


# ----------------------------------------------------------------------
# Partitioned fabric construction
# ----------------------------------------------------------------------
class BoundaryPort:
    """Cross-partition delivery sink standing in for ``Switch.inject``.

    Owned by the *sending* partition's datalink; appends boundary
    records instead of touching the foreign switch.  ``emit_index``
    restores per-port FIFO order inside the global barrier sort.
    """

    __slots__ = ("name", "dst_node", "sim", "records", "_emit_index")

    def __init__(self, name: str, dst_node: int, sim: Simulator) -> None:
        self.name = name
        self.dst_node = dst_node
        self.sim = sim
        self.records: List[Tuple[int, str, int, int, Packet]] = []
        self._emit_index = 0

    def __call__(self, packet: Packet) -> None:
        index = self._emit_index
        self._emit_index = index + 1
        self.records.append(
            (self.sim.now, self.name, index, self.dst_node, packet))

    def drain(self) -> List[Tuple[int, str, int, int, Packet]]:
        records, self.records = self.records, []
        return records


@dataclass
class PartitionedFabric:  # simlint: disable=SIM004 -- built once per run, never touched on the per-packet path
    """The event fabric split across per-partition simulators.

    Component dictionaries span the whole fabric (same keys and names
    as the monolithic ``EventFabric``); each component is bound to its
    owning partition's simulator.
    """

    sims: List[Simulator]
    switches: Dict[int, Switch]
    links: Dict[Tuple[int, int], PhysicalLink]
    datalinks: Dict[Tuple[int, int], DataLink]
    plan: PartitionPlan
    #: node id -> owning partition id (covers every switch).
    owner: Dict[int, int]
    boundary_ports: List[BoundaryPort]
    #: Conservative lookahead: min forwarding latency over all switches.
    lookahead_ns: int
    topology: Topology = field(repr=False, default=None)

    def apply_record(self, time: int, dst_node: int, packet: Packet) -> None:
        """Replay one boundary record on the receiving partition.

        Mirrors :meth:`Switch.inject` exactly -- counter bump plus one
        scheduled ``_route`` -- but anchored at the *emission* time, so
        the route dispatches at the same simulated instant the
        monolithic fabric would have used.
        """
        switch = self.switches[dst_node]
        switch._ctr_switched.value += 1
        switch.sim.schedule_at(time + switch._fwd_ns, switch._route, packet)


def build_partitioned_fabric(config, topology: Topology,
                             plan: Optional[PartitionPlan] = None,
                             sanitize: Optional[bool] = None,
                             ) -> PartitionedFabric:
    """Build the event fabric split over per-partition simulators.

    Mirrors ``VeniceSystem.build_event_fabric`` component for component
    (same names, port numbering and routing tables), except that each
    switch lives on its partition's simulator, each link/datalink pair
    lives on its *sender's* simulator, and cross-partition datalinks
    deliver into :class:`BoundaryPort` records instead of the foreign
    switch.  ``config`` is a ``FabricConfig`` (the ``fabric`` field of
    a ``VeniceConfig``).
    """
    plan = plan or plan_leaf_partitions(topology)
    owner = plan.node_partition()
    sims = [Simulator(sanitize=sanitize) for _ in range(plan.num_partitions)]
    base_switch = config.switch
    switches: Dict[int, Switch] = {}
    lookahead = None
    for node_id in topology.nodes:
        degree = topology.graph.degree(node_id)
        if degree + 1 > base_switch.radix:
            switch_config = replace(base_switch, radix=degree + 1)
        else:
            switch_config = base_switch
        switches[node_id] = Switch(sims[owner[node_id]], node_id,
                                   switch_config)
        fwd = switch_config.forwarding_latency_ns
        if lookahead is None or fwd < lookahead:
            lookahead = fwd
    if not lookahead or lookahead <= 0:
        raise SimulationError(
            "partitioned execution requires a positive switch forwarding "
            "latency (the conservative lookahead window)")
    links: Dict[Tuple[int, int], PhysicalLink] = {}
    datalinks: Dict[Tuple[int, int], DataLink] = {}
    boundary_ports: List[BoundaryPort] = []
    ports: Dict[Tuple[int, int], int] = {}
    port_counters = {node_id: 1 for node_id in switches}  # port 0 = local
    for node_a, node_b in topology.links:
        for src, dst in ((node_a, node_b), (node_b, node_a)):
            sim = sims[owner[src]]
            link = PhysicalLink(sim, config.link, name=f"link{src}->{dst}")
            datalink = DataLink(sim, link, config.datalink,
                                name=f"dl{src}->{dst}")
            if owner[dst] == owner[src]:
                datalink.connect(switches[dst].inject)
            else:
                port_sink = BoundaryPort(f"dl{src}->{dst}", dst, sim)
                boundary_ports.append(port_sink)
                datalink.connect(port_sink)
            links[(src, dst)] = link
            datalinks[(src, dst)] = datalink
            port = ports[(src, dst)] = port_counters[src]
            port_counters[src] += 1
            switches[src].attach_output(port, datalink)
    program_routes(topology, switches, ports)
    return PartitionedFabric(sims=sims, switches=switches, links=links,
                             datalinks=datalinks, plan=plan, owner=owner,
                             boundary_ports=boundary_ports,
                             lookahead_ns=lookahead, topology=topology)


# ----------------------------------------------------------------------
# In-process executor (sequential round-robin; the determinism vehicle)
# ----------------------------------------------------------------------
class PartitionedSim:
    """Simulator facade driving all partitions in lookahead windows.

    Exposes the subset of the :class:`Simulator` API the event
    transport uses (``now``, ``call_after``, ``cancel``, ``run``,
    ``run_until_idle``, ``events_processed``, ``len``), so an
    ``EventTransport`` can run unmodified over a partitioned fabric.
    Between windows every partition clock is aligned; inside a window
    the facade delegates to the currently-running partition, so
    transport callbacks fired by deliveries schedule on the simulator
    whose clock is live.

    Scheduling between windows lands on partition 0 (the control
    partition) -- with aligned clocks any choice is timing-equivalent,
    and a fixed rule keeps runs reproducible.  Handles returned by
    ``call_after`` are ``(simulator, entry)`` pairs; treat them as
    opaque and pass them back to :meth:`cancel`.
    """

    __slots__ = ("fabric", "_sims", "_now", "_active", "_pending",
                 "_defer_index")

    def __init__(self, fabric: PartitionedFabric) -> None:
        self.fabric = fabric
        self._sims = fabric.sims
        self._now = 0
        self._active: Optional[int] = None
        #: Boundary + deferred-injection records awaiting the barrier.
        self._pending: List[Tuple[int, str, int, int, Packet]] = []
        self._defer_index = 0

    # -- facade ---------------------------------------------------------
    @property
    def now(self) -> int:
        if self._active is not None:
            return self._sims[self._active].now
        return self._now

    @property
    def events_processed(self) -> int:
        return sum(sim.events_processed for sim in self._sims)

    @property
    def sanitize(self) -> bool:
        return self._sims[0].sanitize

    @property
    def lookahead_ns(self) -> int:
        return self.fabric.lookahead_ns

    def __len__(self) -> int:
        return sum(len(sim) for sim in self._sims) + len(self._pending)

    def _current_sim(self) -> Simulator:
        if self._active is not None:
            return self._sims[self._active]
        return self._sims[0]

    def call_after(self, delay: int, callback: Callable[..., None],
                   value: Any = None):
        sim = self._current_sim()
        return (sim, sim.call_after(delay, callback, value))

    def schedule_at(self, time: int, callback: Callable[..., None], *args):
        sim = self._current_sim()
        return (sim, sim.schedule_at(time, callback, *args))

    def cancel(self, handle) -> None:
        sim, entry = handle
        sim.cancel(entry)

    def is_cancelled(self, handle) -> bool:
        sim, entry = handle
        return sim.is_cancelled(entry)

    # -- partition-aware injection (cross-traffic, transport sources) ---
    def inject(self, node_id: int, packet: Packet) -> None:
        """Inject at a switch, deferring foreign-partition injections.

        Between windows (clocks aligned) or from the switch's own
        partition this is a direct ``Switch.inject``.  From a *running*
        foreign partition the injection becomes a barrier record -- its
        ``_route`` still dispatches at ``emit_time + fwd_ns``, which the
        lookahead guarantees lies at or beyond the next barrier.
        """
        owner = self.fabric.owner[node_id]
        if self._active is None or self._active == owner:
            self.fabric.switches[node_id].inject(packet)
            return
        index = self._defer_index
        self._defer_index = index + 1
        self._pending.append(
            (self._sims[self._active].now, f"@inject{node_id}", index,
             node_id, packet))

    # -- barrier loop ---------------------------------------------------
    def _drain_ports(self) -> None:
        for port in self.fabric.boundary_ports:
            if port.records:
                self._pending.extend(port.drain())

    def _apply_pending(self) -> None:
        if not self._pending:
            return
        records, self._pending = self._pending, []
        records.sort(key=lambda record: record[:3])
        apply_record = self.fabric.apply_record
        for time, _key, _index, dst_node, packet in records:
            apply_record(time, dst_node, packet)

    def _peek_min(self) -> Optional[int]:
        t_min = None
        for sim in self._sims:
            time = sim.peek()
            if time is not None and (t_min is None or time < t_min):
                t_min = time
        return t_min

    def run(self, until: Optional[int] = None,
            max_events: Optional[int] = None) -> int:
        """Drive all partitions in lookahead windows (see module notes).

        Same contract as :meth:`Simulator.run`: events at exactly
        ``until`` execute, and every partition clock ends at
        ``max(until, now)``.  ``max_events`` bounds the *total* events
        executed across partitions; the bound is checked at barriers,
        so a window may complete before the excess is detected.
        """
        budget = None if max_events is None else \
            self.events_processed + max_events
        lookahead = self.fabric.lookahead_ns
        while True:
            self._drain_ports()
            self._apply_pending()
            t_min = self._peek_min()
            if t_min is None or (until is not None and t_min > until):
                break
            horizon = t_min + lookahead
            if until is not None and horizon > until:
                horizon = until
            for pid, sim in enumerate(self._sims):
                self._active = pid
                try:
                    sim.run(until=horizon)
                finally:
                    self._active = None
            self._now = horizon
            if budget is not None and self.events_processed > budget:
                raise SimulationError(
                    f"exceeded max_events={max_events}; possible livelock")
        if until is not None and until > self._now:
            for sim in self._sims:
                sim.run(until=until)
            self._now = until
        return self._now

    def run_until_idle(self, max_events: int = 50_000_000) -> int:
        """Run every partition to completion with a livelock guard."""
        return self.run(max_events=max_events)


class PartitionedEventFabric:
    """Drop-in ``EventFabric`` over a partitioned build.

    Quacks like :class:`repro.core.system.EventFabric` -- fabric-wide
    ``switches`` / ``links`` / ``datalinks`` dictionaries plus a ``sim``
    -- except that ``sim`` is a :class:`PartitionedSim` facade and
    ``inject`` is partition-aware, so an unmodified ``EventTransport``
    drives all partitions through the lookahead barrier loop.
    """

    __slots__ = ("partitioned", "sim", "switches", "links", "datalinks")

    def __init__(self, fabric: PartitionedFabric) -> None:
        self.partitioned = fabric
        self.sim = PartitionedSim(fabric)
        self.switches = fabric.switches
        self.links = fabric.links
        self.datalinks = fabric.datalinks

    def inject(self, node_id: int, packet: Packet) -> None:
        self.sim.inject(node_id, packet)


# ----------------------------------------------------------------------
# Spec-driven workloads and canonical merged dumps
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ParallelFabricSpec:  # simlint: disable=SIM004 -- built once per run, never touched on the per-packet path
    """Picklable description of a fat-tree fabric workload.

    Fork workers rebuild the whole partitioned fabric from this spec
    (Table-1 default link/switch parameters), so the parent never ships
    live simulators across process boundaries.  ``injections`` are
    ``(time_ns, src, dst, payload_bytes)`` one-way packets, delivered
    to each destination's local sink.
    """

    num_nodes: int
    leaf_radix: int = 4
    num_spines: int = 2
    injections: Tuple[Tuple[int, int, int, int], ...] = ()
    #: ``(time_ns, src, dst, action)`` admin flaps on directed links;
    #: ``action`` is ``"down"`` or ``"up"``.  Scheduled on the link's
    #: own (sender-side) simulator, so fault timing is identical in the
    #: monolithic and partitioned builds.
    faults: Tuple[Tuple[int, int, int, str], ...] = ()

    def build_topology(self) -> Topology:
        return build_fat_tree(self.num_nodes, leaf_radix=self.leaf_radix,
                              num_spines=self.num_spines)


def _fabric_config():
    from repro.core.config import VeniceConfig
    return VeniceConfig().fabric


def build_spec_workload(spec: ParallelFabricSpec, switches: Dict[int, Switch],
                        links: Optional[Dict[Tuple[int, int],
                                             PhysicalLink]] = None,
                        ) -> List[Tuple[int, int, int, int]]:
    """Install a spec's injections, faults and delivery recorders.

    Injections and fault flaps are scheduled on each component's own
    simulator (monolithic and partitioned builds therefore cost
    identical events); every switch gets a local sink recording
    ``(arrival_time, src, dst, created_at)``.  Returns the live
    delivery list.
    """
    deliveries: List[Tuple[int, int, int, int]] = []
    for node_id in sorted(switches):
        switch = switches[node_id]

        def record(packet: Packet, _sim=switch.sim) -> None:
            deliveries.append(
                (_sim.now, packet.src, packet.dst, packet.created_at))

        switch.attach_local_sink(record)
    for time, src, dst, payload_bytes in spec.injections:
        switch = switches[src]
        packet = Packet(src=src, dst=dst, kind=PacketKind.QPAIR_DATA,
                        payload_bytes=payload_bytes, created_at=time)
        switch.sim.schedule_at(time, switch.inject, packet)
    if spec.faults:
        if links is None:
            raise ValueError("spec has faults but no links were provided")
        for time, src, dst, action in spec.faults:
            link = links[(src, dst)]
            flap = (link.set_admin_down if action == "down"
                    else link.set_admin_up)
            link.sim.schedule_at(time, flap)
    return deliveries


def _collect_counters(switches, links, datalinks,
                      keys: Optional[set] = None) -> Dict[str, Dict[str, int]]:
    counters: Dict[str, Dict[str, int]] = {}
    for node_id in sorted(switches):
        if keys is None or ("switch", node_id) in keys:
            stats = switches[node_id].stats
            counters[stats.name] = {
                name: counter.value
                for name, counter in sorted(stats.counters.items())}
    for collection, kind in ((links, "link"), (datalinks, "datalink")):
        for key in sorted(collection):
            if keys is None or (kind, key) in keys:
                stats = collection[key].stats
                counters[stats.name] = {
                    name: counter.value
                    for name, counter in sorted(stats.counters.items())}
    return counters


def _merged_dump(spec: ParallelFabricSpec, events: int,
                 deliveries: List[Tuple[int, int, int, int]],
                 counters: Dict[str, Dict[str, int]]) -> Dict[str, Any]:
    return {
        "workload": {
            "num_nodes": spec.num_nodes,
            "leaf_radix": spec.leaf_radix,
            "num_spines": spec.num_spines,
            "injections": len(spec.injections),
        },
        "events": events,
        "deliveries": sorted(deliveries),
        "counters": counters,
    }


def canonical_dump(dump: Dict[str, Any]) -> str:
    """Canonical JSON encoding for byte-identity comparisons."""
    return json.dumps(dump, sort_keys=True, separators=(",", ":"))


def run_sequential_baseline(spec: ParallelFabricSpec) -> Dict[str, Any]:
    """Run the spec on one monolithic simulator; return the merged dump."""
    from repro.core.config import VeniceConfig
    from repro.core.system import VeniceSystem

    config = VeniceConfig(num_nodes=spec.num_nodes, topology="fat_tree",
                          fat_tree_leaf_radix=spec.leaf_radix,
                          fat_tree_spines=spec.num_spines)
    fabric = VeniceSystem.build(config).build_event_fabric()
    deliveries = build_spec_workload(spec, fabric.switches, fabric.links)
    fabric.sim.run_until_idle()
    counters = _collect_counters(fabric.switches, fabric.links,
                                 fabric.datalinks)
    return _merged_dump(spec, fabric.sim.events_processed, deliveries,
                        counters)


def _run_inline(spec: ParallelFabricSpec) -> Dict[str, Any]:
    topology = spec.build_topology()
    fabric = build_partitioned_fabric(_fabric_config(), topology)
    deliveries = build_spec_workload(spec, fabric.switches, fabric.links)
    runner = PartitionedSim(fabric)
    runner.run_until_idle()
    counters = _collect_counters(fabric.switches, fabric.links,
                                 fabric.datalinks)
    return _merged_dump(spec, runner.events_processed, deliveries, counters)


# ----------------------------------------------------------------------
# Fork executor: partitions on worker processes
# ----------------------------------------------------------------------
def _component_keys(fabric: PartitionedFabric, pids: set) -> set:
    keys = set()
    for node_id in sorted(fabric.owner):
        if fabric.owner[node_id] in pids:
            keys.add(("switch", node_id))
    for key in sorted(fabric.links):
        if fabric.owner[key[0]] in pids:
            keys.add(("link", key))
            keys.add(("datalink", key))
    return keys


def _worker_main(conn, spec: ParallelFabricSpec,
                 assigned: Tuple[int, ...]) -> None:
    """Fork-worker loop: build everything, run only assigned partitions.

    The build is a pure function of the spec, so every worker (and the
    inline runner) owns identical component state; a worker simply
    never advances the simulators of partitions it was not assigned.
    """
    topology = spec.build_topology()
    fabric = build_partitioned_fabric(_fabric_config(), topology)
    deliveries = build_spec_workload(spec, fabric.switches, fabric.links)
    assigned_set = set(assigned)
    my_sims = [(pid, fabric.sims[pid]) for pid in assigned]
    my_ports = [port for pid in assigned for port in fabric.boundary_ports
                if fabric.sims[pid] is port.sim]
    try:
        while True:
            message = conn.recv()
            op = message[0]
            if op == "peek":
                conn.send([(pid, sim.peek()) for pid, sim in my_sims])
            elif op == "run":
                horizon = message[1]
                for _pid, sim in my_sims:
                    sim.run(until=horizon)
                records = []
                for port in my_ports:
                    records.extend(port.drain())
                conn.send(records)
            elif op == "apply":
                for time, _key, _index, dst_node, packet in message[1]:
                    fabric.apply_record(time, dst_node, packet)
                conn.send([(pid, sim.peek()) for pid, sim in my_sims])
            elif op == "finish":
                owned_nodes = {node for node in sorted(fabric.owner)
                               if fabric.owner[node] in assigned_set}
                my_deliveries = [record for record in deliveries
                                 if record[2] in owned_nodes]
                counters = _collect_counters(
                    fabric.switches, fabric.links, fabric.datalinks,
                    keys=_component_keys(fabric, assigned_set))
                events = sum(sim.events_processed for _pid, sim in my_sims)
                conn.send((events, my_deliveries, counters))
                return
            else:  # pragma: no cover - protocol error
                raise SimulationError(f"unknown worker op {op!r}")
    finally:
        conn.close()


def run_partitioned(spec: ParallelFabricSpec, workers: int = 1,
                    mode: str = "auto",
                    max_rounds: int = 1_000_000) -> Dict[str, Any]:
    """Run a spec over the partitioned fabric; return the merged dump.

    ``mode="inline"`` drives every partition sequentially in-process
    (the pure-python fallback -- byte-identical to fork mode and to the
    monolithic baseline, used by the determinism suites).
    ``mode="fork"`` spreads partitions round-robin over ``workers``
    processes coordinated through pipes.  ``mode="auto"`` picks fork
    when ``workers > 1`` and ``multiprocessing`` can fork, else inline.
    """
    if mode not in ("auto", "inline", "fork"):
        raise ValueError(f"unknown partition executor mode {mode!r}")
    if workers < 1:
        raise ValueError(f"workers must be positive, got {workers}")
    if mode == "auto":
        mode = "fork" if workers > 1 and _fork_available() else "inline"
    if mode == "inline":
        return _run_inline(spec)
    return _run_forked(spec, workers, max_rounds)


def _fork_available() -> bool:
    try:
        import multiprocessing
        return "fork" in multiprocessing.get_all_start_methods()
    except Exception:  # pragma: no cover - restricted environments
        return False


def _run_forked(spec: ParallelFabricSpec, workers: int,
                max_rounds: int) -> Dict[str, Any]:
    import multiprocessing

    context = multiprocessing.get_context("fork")
    topology = spec.build_topology()
    plan = plan_leaf_partitions(topology)
    owner = plan.node_partition()
    config = _fabric_config()
    lookahead = config.switch.forwarding_latency_ns
    workers = min(workers, plan.num_partitions)
    assignments: List[List[int]] = [[] for _ in range(workers)]
    for pid in range(plan.num_partitions):
        assignments[pid % workers].append(pid)
    pipes = []
    processes = []
    for worker_id in range(workers):
        parent_conn, child_conn = context.Pipe()
        process = context.Process(
            target=_worker_main,
            args=(child_conn, spec, tuple(assignments[worker_id])),
            daemon=True)
        process.start()
        child_conn.close()
        pipes.append(parent_conn)
        processes.append(process)
    try:
        pending: List[Tuple[int, str, int, int, Packet]] = []
        peeks: Optional[List[Optional[int]]] = None
        for _round in range(max_rounds):
            if peeks is None:
                for conn in pipes:
                    conn.send(("peek",))
                peeks = []
                for conn in pipes:
                    peeks.extend(time for _pid, time in conn.recv())
            live = [time for time in peeks if time is not None]
            if not live:
                break
            horizon = min(live) + lookahead
            for conn in pipes:
                conn.send(("run", horizon))
            pending = []
            for conn in pipes:
                pending.extend(conn.recv())
            pending.sort(key=lambda record: record[:3])
            batches: List[List] = [[] for _ in range(workers)]
            for record in pending:
                pid = owner[record[3]]
                batches[pid % workers].append(record)
            peeks = []
            for worker_id, conn in enumerate(pipes):
                conn.send(("apply", batches[worker_id]))
            for conn in pipes:
                peeks.extend(time for _pid, time in conn.recv())
        else:
            raise SimulationError(
                f"partitioned run exceeded {max_rounds} barrier rounds; "
                "possible livelock")
        events = 0
        deliveries: List[Tuple[int, int, int, int]] = []
        counters: Dict[str, Dict[str, int]] = {}
        for conn in pipes:
            conn.send(("finish",))
        for conn in pipes:
            worker_events, worker_deliveries, worker_counters = conn.recv()
            events += worker_events
            deliveries.extend(tuple(d) for d in worker_deliveries)
            counters.update(worker_counters)
        return _merged_dump(spec, events, deliveries, counters)
    finally:
        for conn in pipes:
            conn.close()
        for process in processes:
            process.join(timeout=30)
            if process.is_alive():  # pragma: no cover - hung worker
                process.terminate()
