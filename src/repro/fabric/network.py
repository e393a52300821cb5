"""Network layer: the low-radix on-chip switch and routing tables.

The Venice prototype embeds a custom radix-7 switch in each node so that
neighbouring nodes can communicate *switchlessly*, i.e. without
traversing a central external switch (Section 5.1.1).  The
:class:`Switch` here models that embedded switch: it looks up the output
port for a packet's destination, charges a small forwarding latency,
and hands the packet to the outgoing datalink (or to local ejection).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, Iterable, Mapping, Optional, Tuple

from repro.sim.engine import Simulator
from repro.sim.stats import StatsRegistry
from repro.fabric.datalink import DataLink
from repro.fabric.packet import Packet

if TYPE_CHECKING:
    from repro.fabric.topology import Topology


class RoutingError(RuntimeError):
    """Raised when a packet has no route to its destination."""


@dataclass(slots=True)
class RoutingEntry:
    """One row of the routing table (Figure 8, right-hand table)."""

    node_id: int
    out_port: int
    flow_id: int = 0
    valid: bool = True


class RoutingTable:
    """Destination-node to output-port mapping.

    ``version`` increments on every mutation so route consumers (the
    switch's resolved-route cache) can validate cached decisions with
    one integer compare instead of a lookup per packet.
    """

    __slots__ = ("_entries", "version")

    def __init__(self) -> None:
        self._entries: Dict[int, RoutingEntry] = {}  # simlint: disable=SIM006 -- routes are invalidated in place, bounded by fleet size
        self.version = 0

    def install(self, node_id: int, out_port: int, flow_id: int = 0) -> None:
        """Install or update the route towards ``node_id``."""
        self._entries[node_id] = RoutingEntry(node_id=node_id, out_port=out_port,
                                              flow_id=flow_id)
        self.version += 1

    def install_all(self, routes: Iterable[Tuple[int, int]]) -> None:
        """Install ``(node_id, out_port)`` routes in order (one bulk write)."""
        entries = self._entries
        installed = 0
        for node_id, out_port in routes:
            entries[node_id] = RoutingEntry(node_id, out_port)
            installed += 1
        self.version += installed

    def invalidate(self, node_id: int) -> None:
        entry = self._entries.get(node_id)
        if entry is not None:
            entry.valid = False
            self.version += 1

    def lookup(self, node_id: int) -> RoutingEntry:
        entry = self._entries.get(node_id)
        if entry is None or not entry.valid:
            raise RoutingError(f"no valid route to node {node_id}")
        return entry

    def has_route(self, node_id: int) -> bool:
        entry = self._entries.get(node_id)
        return entry is not None and entry.valid

    def __len__(self) -> int:
        return sum(1 for entry in self._entries.values() if entry.valid)


@dataclass
class SwitchConfig:
    """Parameters of the embedded switch."""

    #: Number of ports (the prototype implements a radix-7 switch:
    #: six mesh directions plus local ejection).
    radix: int = 7
    #: Per-hop forwarding latency through the crossbar, ns.
    forwarding_latency_ns: int = 50


class Switch:
    """Embedded low-radix switch of one Venice node.

    Port 0 is by convention the *local ejection* port, delivering
    packets destined to this node to the transport layer; the remaining
    ports connect to neighbouring nodes' datalinks.
    """

    LOCAL_PORT = 0

    __slots__ = ("sim", "node_id", "config", "name", "routing_table",
                 "stats", "_ctr_switched", "_ctr_ejected", "_ctr_unroutable",
                 "_ctr_admin_dropped", "_output_links", "_port_counters",
                 "_resolved", "_resolved_version", "_fwd_ns", "_call_after",
                 "_local_sink", "_admin_up")

    def __init__(self, sim: Simulator, node_id: int,
                 config: Optional[SwitchConfig] = None, name: str = ""):
        self.sim = sim
        self.node_id = node_id
        self.config = config or SwitchConfig()
        self.name = name or f"switch{node_id}"
        self.routing_table = RoutingTable()
        self.stats = StatsRegistry(self.name)
        (self._ctr_switched, self._ctr_ejected, self._ctr_unroutable,
         self._ctr_admin_dropped) = self.stats.bind_counters(
            "packets_switched", "packets_ejected", "packets_unroutable",
            "packets_dropped_admin_down")
        self._output_links: Dict[int, DataLink] = {}  # simlint: disable=SIM006 -- bounded by switch radix, ports are never detached
        #: Per-port forwarded counters, bound when the port is attached.
        self._port_counters: Dict[int, object] = {}  # simlint: disable=SIM006 -- bounded by switch radix, ports are never detached
        #: Resolved destination -> (datalink, port counter), validated
        #: against the routing-table version; one dict hit per packet
        #: replaces the lookup + port + counter triple on the hot path.
        self._resolved: Dict[int, tuple] = {}
        self._resolved_version = -1
        self._fwd_ns = self.config.forwarding_latency_ns
        self._call_after = sim.call_after
        self._local_sink: Optional[Callable[[Packet], None]] = None
        #: Administrative state (fault injection).  A downed switch --
        #: a failed router, or the embedded switch of a crashed node --
        #: black-holes every packet it would have routed or ejected;
        #: the drops are counted so the transport's packet-lifecycle
        #: audit still balances under churn.
        self._admin_up = True

    # ------------------------------------------------------------------
    # Administrative state (fault injection)
    # ------------------------------------------------------------------
    @property
    def admin_up(self) -> bool:
        """False while a fault campaign holds this switch down."""
        return self._admin_up

    def set_admin_down(self) -> None:
        """Fail the switch: routed and ejected packets are dropped."""
        self._admin_up = False

    def set_admin_up(self) -> None:
        """Restore the switch; forwarding resumes for new packets."""
        self._admin_up = True

    def attach_output(self, port: int, datalink: DataLink) -> None:
        """Attach the datalink serving an output port."""
        if port == self.LOCAL_PORT:
            raise ValueError("port 0 is reserved for local ejection")
        if port < 0 or port >= self.config.radix:
            raise ValueError(f"port {port} outside switch radix {self.config.radix}")
        self._output_links[port] = datalink
        self._port_counters[port] = self.stats.counter(f"port{port}_forwarded")
        # Re-attaching a port must drop resolved routes through it; the
        # cache is otherwise only validated against the routing table.
        self._resolved.clear()
        self._resolved_version = -1

    def attach_local_sink(self, sink: Callable[[Packet], None]) -> None:
        """Attach the transport-layer receive path of this node."""
        self._local_sink = sink

    @property
    def ports_in_use(self) -> int:
        return len(self._output_links)

    def inject(self, packet: Packet) -> None:
        """Accept a packet from the local transport layer or a neighbour."""
        self._ctr_switched.value += 1
        self._call_after(self._fwd_ns, self._route, packet)

    def _route(self, packet: Packet) -> None:
        if not self._admin_up:
            # The upstream datalink already finished its accounting
            # (credit returned, replay window pruned) before handing the
            # packet over, so dropping here leaks nothing -- the packet
            # just never completes its op, which is the timeout path's
            # job to notice.
            self._ctr_admin_dropped.value += 1
            return
        dst = packet.dst
        if dst == self.node_id:
            self._eject(packet)
            return
        table = self.routing_table
        if self._resolved_version != table.version:
            self._resolved.clear()
            self._resolved_version = table.version
        resolved = self._resolved.get(dst)
        if resolved is None:
            resolved = self._resolved[dst] = self._resolve(dst)
        datalink, counter = resolved
        counter.value += 1
        datalink.send_and_forget(packet)

    def _resolve(self, dst: int) -> tuple:
        """Route lookup slow path; failures are never cached."""
        try:
            entry = self.routing_table.lookup(dst)
        except RoutingError:
            self._ctr_unroutable.value += 1
            raise
        datalink = self._output_links.get(entry.out_port)
        if datalink is None:
            self._ctr_unroutable.value += 1
            raise RoutingError(
                f"{self.name}: route to node {dst} uses unattached port "
                f"{entry.out_port}"
            )
        return datalink, self._port_counters[entry.out_port]

    def _eject(self, packet: Packet) -> None:
        self._ctr_ejected.value += 1
        if self._local_sink is None:
            self.stats.counter("packets_dropped_no_sink").increment()
            return
        self._local_sink(packet)


def program_routes(topology: "Topology", switches: Mapping[int, Switch],
                   ports: Mapping[Tuple[int, int], int]) -> None:
    """Install every switch's route to every compute node.

    ``ports[(src, dst)]`` is the output port of ``src``'s link towards
    ``dst``.  Each switch gets, for every compute node other than
    itself, the port of the link to the topology's next hop -- one
    route-table read per (switch, destination) pair.
    """
    destinations = topology.compute_nodes
    for src in sorted(switches):
        next_hops = topology.next_hops(src)
        routes = []
        for destination in destinations:
            if destination == src:
                continue
            hop = next_hops.get(destination)
            if hop is None:
                topology.next_hop(src, destination)  # raises the typed error
            routes.append((destination, ports[(src, hop)]))
        switches[src].routing_table.install_all(routes)
