"""Which calls of the program open a span, and the layer each belongs to.

Layers are named after packages: ``sim`` (the dispatch loops of
``sim/engine.py`` and ``sim/_ccore.c``), ``fabric`` (phy, datalink,
switch and router), ``channels`` (``core.channels``: the event
transport and the CRMA/RDMA/QPair channels), ``cluster`` (matchmaker,
path memo, channel construction) and ``runtime`` (monitor, shards,
churn and fault handling).  ``bench`` is the benchmark's own
code.  Time inside a wrapped call that no inner wrapped call covers is
that layer's self time; for example the C loop's own dispatch cost
stays in ``sim`` while the fabric callbacks it makes are ``fabric``.

The fabric entries include the private methods the event loop
dispatches to (``_route``, ``_rx_done``, ``_tx_complete``, ...):
without them every scheduled fabric step would count as ``sim`` time.
Wrapping replaces class attributes, so :func:`install` must run before
the objects that keep bound methods (sinks, link receivers) are built.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.cluster.cluster import Cluster
from repro.cluster.matchmaker import Matchmaker
from repro.core.channels.backend import EventTransport
from repro.core.channels.crma import CrmaChannel
from repro.core.channels.qpair import QPairChannel
from repro.core.channels.rdma import RdmaChannel
from repro.core.system import VeniceSystem
from repro.fabric.datalink import DataLink
from repro.fabric.network import Switch
from repro.fabric.phy import PhysicalLink
from repro.fabric.router import ExternalRouter
from repro.runtime.churn import ChurnEngine
from repro.runtime.fault import FaultHandler
from repro.runtime.monitor import MonitorNode
from repro.runtime.shard import ShardCoordinator, ShardedMonitor
from repro.sim import engine

from .spans import Tracer
from .workloads import DeliveryLog

#: (class, span name, method names).
ENTRY_POINTS: List[Tuple[type, str, Tuple[str, ...]]] = [
    (engine.Simulator, "sim.run", ("run", "run_until_idle")),
    (VeniceSystem, "fabric.build", ("build_event_fabric",)),
    (Switch, "fabric.switch", ("inject", "_route", "_eject")),
    (DataLink, "fabric.datalink",
     ("send", "send_and_forget", "_sf_granted", "_sf_processed", "_sf_sent",
      "_on_packet_arrival", "_rx_done", "_request_replay", "_start_replay")),
    (PhysicalLink, "fabric.phy", ("offer", "send", "_tx_complete", "_deliver")),
    (ExternalRouter, "fabric.router",
     ("receive", "_forward", "_fused_complete", "_resume_pipeline")),
    (EventTransport, "channels.submit",
     ("submit_one_way", "submit_round_trip", "submit_occupancy",
      "submit_stream")),
    (EventTransport, "channels.submit_retry", ("submit_with_retry",)),
    (EventTransport, "channels.drive", ("drive_all", "drive_until")),
    (EventTransport, "channels.deliver", ("_deliver", "_timeout")),
    (CrmaChannel, "channels.op", ("submit_read",)),
    (RdmaChannel, "channels.op", ("submit_transfer",)),
    (QPairChannel, "channels.op", ("submit_round_trip", "submit_message")),
    (Matchmaker, "cluster.borrow",
     ("borrow_many", "borrow_queued", "queue_requests", "plan_queued",
      "execute_plan", "borrow_memory", "_borrow_memory_from")),
    (Matchmaker, "cluster.release", ("release", "release_all")),
    (Cluster, "cluster.path", ("path_between",)),
    (Cluster, "cluster.channel", ("crma_channel", "rdma_channel",
                                  "qpair_channel")),
    (MonitorNode, "runtime.plan", ("plan_queued_requests",)),
    (ShardedMonitor, "runtime.plan", ("plan_queued_requests",)),
    (ShardCoordinator, "runtime.plan", ("plan_batch", "plan_one")),
    (MonitorNode, "runtime.monitor", ("request_memory", "release")),
    (ShardedMonitor, "runtime.monitor", ("request_memory", "release")),
    (ShardedMonitor, "runtime.failover", ("check_failover",)),
    (ChurnEngine, "runtime.heartbeat", ("_pump",)),
    (ChurnEngine, "runtime.fault", ("_apply", "_heal")),
    (FaultHandler, "runtime.fault",
     ("handle_link_down", "handle_link_up", "check_heartbeats")),
    (DeliveryLog, "bench.sink", ("deliver",)),
]

#: Span names whose outermost calls the per-layer metrics total.
TIMED_CALLS = {"cluster.borrow_s": "cluster.borrow",
               "cluster.release_s": "cluster.release",
               "runtime.plan_s": "runtime.plan",
               "runtime.heartbeat_s": "runtime.heartbeat",
               "runtime.failover_s": "runtime.failover"}

LAYERS = ("sim", "fabric", "channels", "cluster", "runtime", "bench", "trace")


def install(tracer: Tracer) -> None:
    """Wrap every entry point; :meth:`Tracer.restore` undoes it.

    The compiled core keeps ``run`` in an instance slot, so compiled
    simulators get their ``run`` wrapped as they are constructed.
    """
    for owner, name, methods in ENTRY_POINTS:
        for method in methods:
            tracer.patch(owner, method, name)
    csim = engine._CSimulator
    construct = csim.__init__

    def traced_init(sim, *args, **kwargs):
        construct(sim, *args, **kwargs)
        sim.run = tracer.wrap("sim.run", sim.run)

    tracer.replace(csim, "__init__", traced_init)
