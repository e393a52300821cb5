"""Golden fingerprints of the event fabric model.

Two small seeded runs are reduced to a fingerprint -- dispatched event
count, simulated end time, a sha256 of the delivery latencies and the
fabric counters summed over every component -- and compared with
literal constants.  The hop chain (phy -> datalink -> credit pool ->
switch) is a host-time optimisation target; any change to it that moves
a single event, delay or counter changes the model and must fail here
instead of shifting results silently.  Each fingerprint is checked on
the Python engine under both timer backends and on the compiled core.

* ``storm``: a fault-free all-to-all packet storm on a bare 16-node
  fat-tree, dense enough that senders stall on datalink credits.
* ``wave``: one ``EventTransport.drive_all`` wave of mixed CRMA reads,
  RDMA transfers and QPair round trips on a 16-node event cluster.
* ``lossy_link``: one datalink over a lossy physical link whose transmit
  queue is shorter than the credit window, so senders also park in the
  link's blocked-sender FIFO and corrupted packets are replayed.
"""

import hashlib
import random
from collections import Counter
from typing import Dict, List, Tuple

import pytest

from repro.cluster.cluster import Cluster, ClusterConfig
from repro.core.config import VeniceConfig
from repro.core.system import VeniceSystem
from repro.fabric.datalink import DataLink, DataLinkConfig
from repro.fabric.packet import Packet, PacketKind
from repro.fabric.phy import LinkConfig, PhysicalLink
from repro.sim import engine
from repro.sim.engine import Simulator
from repro.sim.rng import DeterministicRNG

_ccore_available = engine._load_ccore() is not None

CORES = [
    "heap",
    "calendar",
    pytest.param("c", marks=pytest.mark.skipif(
        not _ccore_available,
        reason="compiled dispatch core not built "
               "(python -m repro.sim._ccore_build)")),
]

STORM_GOLDEN = {
    "events": 46421,
    "end_ns": 423927,
    "latency_sha256": (
        "0be49f9758608fde0b4c142cc9d34919"
        "5776cf1ac26f8858b3d0eacad4c39a18"),
    "counters": {
        "buffer_overflows": 0,
        "busy_ns": 4989472,
        "bytes_sent": 3118720,
        "crc_errors": 0,
        "credit_flushes": 6920,
        "credit_stalls": 2617,
        "credits_replenished": 6920,
        "credits_returned": 6920,
        "credits_taken": 6920,
        "link_faults": 0,
        "packets_corrupted": 0,
        "packets_dropped_admin_down": 0,
        "packets_ejected": 1920,
        "packets_faulted_admin_down": 0,
        "packets_offered": 6920,
        "packets_received": 6920,
        "packets_sent": 13840,
        "packets_switched": 8840,
        "packets_unroutable": 0,
        "port1_forwarded": 2793,
        "port2_forwarded": 866,
        "port3_forwarded": 881,
        "port4_forwarded": 840,
        "port5_forwarded": 1540,
        "port6_forwarded": 0,
        "replay_misses": 0,
        "replays": 0,
    },
}

WAVE_GOLDEN = {
    "events": 2061,
    "end_ns": 52459,
    "latency_sha256": (
        "b5e5aa248365203d2e69d358c38f09fa"
        "86d5ee8364e6050778d66f706d543124"),
    "counters": {
        "buffer_overflows": 0,
        "busy_ns": 292868,
        "bytes_sent": 183084,
        "crc_errors": 0,
        "credit_flushes": 279,
        "credit_stalls": 0,
        "credits_replenished": 356,
        "credits_returned": 356,
        "credits_taken": 356,
        "link_faults": 0,
        "ops_completed": 48,
        "packets_corrupted": 0,
        "packets_dropped_admin_down": 0,
        "packets_ejected": 95,
        "packets_faulted_admin_down": 0,
        "packets_offered": 356,
        "packets_received": 356,
        "packets_sent": 712,
        "packets_switched": 451,
        "packets_unroutable": 0,
        "port1_forwarded": 138,
        "port2_forwarded": 40,
        "port3_forwarded": 53,
        "port4_forwarded": 42,
        "port5_forwarded": 83,
        "port6_forwarded": 0,
        "replay_misses": 0,
        "replays": 0,
        "unmatched": 0,
    },
}


LOSSY_LINK_GOLDEN = {
    "events": 1546,
    "end_ns": 220005,
    "latency_sha256": (
        "ab6dba75c93a1d8b88042ffea77d697c"
        "63f022a8ddb80bece0d936b8a3494528"),
    "counters": {
        "buffer_overflows": 0,
        "busy_ns": 218110,
        "bytes_sent": 136288,
        "crc_errors": 218,
        "credit_flushes": 120,
        "credit_stalls": 104,
        "credits_returned": 120,
        "link_faults": 12,
        "packets_corrupted": 218,
        "packets_faulted_admin_down": 0,
        "packets_offered": 326,
        "packets_received": 108,
        "packets_sent": 446,
        "replay_misses": 0,
        "replays": 218,
    },
}


def _select_core(core: str, pin_backend, monkeypatch) -> None:
    if core == "c":
        monkeypatch.setenv("SIM_CORE", "c")
    else:
        pin_backend(core)


def _check_core(sim, core: str) -> None:
    # The sanitizer always runs the instrumented Python loop.
    if core == "c":
        assert sim.core == "c" or sim.sanitize
    else:
        assert sim.core == "py"
        assert sim.scheduler == core


def _summed_counters(fabric) -> Dict[str, int]:
    """Every fabric counter, summed by name over all components."""
    totals: Counter = Counter()
    groups = (fabric.links, fabric.datalinks, fabric.switches)
    for group in groups:
        for key in sorted(group):
            for name, counter in group[key].stats.counters.items():
                totals[name] += counter.value
    for key in sorted(fabric.datalinks):
        pool = fabric.datalinks[key].credits
        totals["credit_stalls"] += pool.stall_count
        totals["credit_flushes"] += pool.flush_count
        totals["credits_taken"] += pool.total_taken
        totals["credits_replenished"] += pool.total_replenished
    return dict(sorted(totals.items()))


def _sha256(values: List[int]) -> str:
    return hashlib.sha256(",".join(map(str, values)).encode()).hexdigest()


def storm_fingerprint() -> Tuple[dict, object]:
    system = VeniceSystem.build(VeniceConfig(num_nodes=16,
                                             topology="fat_tree"))
    fabric = system.build_event_fabric()
    sim = fabric.sim
    latencies: List[int] = []

    def deliver(packet: Packet) -> None:
        latencies.append(sim.now - packet.created_at)

    for node_id in sorted(fabric.switches):
        fabric.switches[node_id].attach_local_sink(deliver)
    rng = random.Random(5)
    compute = system.topology.compute_nodes
    for round_index in range(3):
        base = round_index * 150_000
        for src in compute:
            peers = [node for node in compute if node != src]
            for slot in range(40):
                at = base + slot * 120
                packet = Packet(src=src, dst=rng.choice(peers),
                                kind=PacketKind.QPAIR_DATA,
                                payload_bytes=rng.choice((64, 256, 1024)),
                                created_at=at)
                sim.schedule_at(at, fabric.switches[src].inject, packet)
    sim.run_until_idle()
    return {"events": sim.events_processed, "end_ns": sim.now,
            "latency_sha256": _sha256(latencies),
            "counters": _summed_counters(fabric)}, sim


def wave_fingerprint() -> Tuple[dict, object]:
    cluster = Cluster(ClusterConfig(num_nodes=16, topology="fat_tree",
                                    transport_backend="event"))
    transport = cluster.event_transport()
    sim = transport.sim
    rng = random.Random(11)
    nodes = list(cluster.node_ids)
    ops = []
    for src in nodes:
        for _ in range(3):
            dst = rng.choice([node for node in nodes if node != src])
            kind = rng.choice(("crma", "crma", "rdma", "qpair"))
            if kind == "crma":
                ops.append(cluster.crma_channel(src, dst).submit_read(64))
            elif kind == "rdma":
                ops.append(cluster.rdma_channel(src, dst).submit_transfer(
                    rng.randint(2048, 6144)))
            else:
                ops.append(cluster.qpair_channel(src, dst).submit_round_trip(
                    16, rng.randint(64, 1024)))
    transport.drive_all(ops)
    assert all(op.done for op in ops)
    counters = _summed_counters(transport.fabric)
    counters.update({"ops_completed": transport.ops_completed,
                     "unmatched": transport.unmatched})
    return {"events": sim.events_processed, "end_ns": sim.now,
            "latency_sha256": _sha256([op.latency_ns for op in ops]),
            "counters": counters}, sim


def lossy_link_fingerprint() -> Tuple[dict, object]:
    sim = Simulator()
    link = PhysicalLink(sim, LinkConfig(bit_error_rate=2e-4, queue_capacity=2),
                        name="lossy", rng=DeterministicRNG(3))
    datalink = DataLink(sim, link, DataLinkConfig(), name="lossy_dl")
    deliveries: List[int] = []
    datalink.connect(lambda packet: deliveries.extend((sim.now, packet.sequence)))
    rng = random.Random(9)
    for index in range(120):
        packet = Packet(src=0, dst=1, kind=PacketKind.QPAIR_DATA,
                        payload_bytes=rng.choice((64, 512)))
        sim.schedule_at(index * 150, datalink.send_and_forget, packet)
    sim.run_until_idle()
    counters: Counter = Counter()
    for component in (link, datalink):
        for name, counter in component.stats.counters.items():
            counters[name] += counter.value
    counters["credit_stalls"] = datalink.credits.stall_count
    counters["credit_flushes"] = datalink.credits.flush_count
    return {"events": sim.events_processed, "end_ns": sim.now,
            "latency_sha256": _sha256(deliveries),
            "counters": dict(sorted(counters.items()))}, sim


@pytest.mark.parametrize("core", CORES)
def test_packet_storm_fingerprint(core, pin_backend, monkeypatch):
    _select_core(core, pin_backend, monkeypatch)
    fingerprint, sim = storm_fingerprint()
    _check_core(sim, core)
    assert fingerprint["counters"]["credit_stalls"] > 0
    assert fingerprint == STORM_GOLDEN


@pytest.mark.parametrize("core", CORES)
def test_transport_wave_fingerprint(core, pin_backend, monkeypatch):
    _select_core(core, pin_backend, monkeypatch)
    fingerprint, sim = wave_fingerprint()
    _check_core(sim, core)
    assert fingerprint == WAVE_GOLDEN


@pytest.mark.parametrize("core", CORES)
def test_lossy_link_fingerprint(core, pin_backend, monkeypatch):
    _select_core(core, pin_backend, monkeypatch)
    fingerprint, sim = lossy_link_fingerprint()
    _check_core(sim, core)
    assert fingerprint["counters"]["replays"] > 0
    assert fingerprint == LOSSY_LINK_GOLDEN
