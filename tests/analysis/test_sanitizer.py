"""Runtime sanitizer tests: invariants, mutation detection, lockstep.

The mutation tests re-introduce the three historical engine bugs at
class level (``__slots__`` forbids instance patching) and assert the
sanitizer catches each one -- the sanitizer's own regression suite.
"""

from dataclasses import dataclass
from heapq import heappush
from typing import List, Optional, Tuple

import pytest

from repro.core.config import VeniceConfig
from repro.core.system import VeniceSystem
from repro.fabric.datalink import DataLink, DataLinkConfig
from repro.fabric.packet import Packet, PacketKind
from repro.fabric.phy import LinkConfig, PhysicalLink
from repro.sim.engine import SanitizerError, SimulationError, Simulator
from repro.sim.resources import CreditPool
from repro.sim.rng import DeterministicRNG


def _noop(_value=None):
    return None


# ----------------------------------------------------------------------
# Sanitizer plumbing
# ----------------------------------------------------------------------
def test_sanitize_off_by_default(monkeypatch):
    monkeypatch.delenv("SIM_SANITIZE", raising=False)
    assert Simulator().sanitize is False


def test_sanitize_env_var_enables(monkeypatch):
    monkeypatch.setenv("SIM_SANITIZE", "1")
    assert Simulator().sanitize is True
    monkeypatch.setenv("SIM_SANITIZE", "0")
    assert Simulator().sanitize is False
    monkeypatch.setenv("SIM_SANITIZE", "1")
    # An explicit argument beats the environment.
    assert Simulator(sanitize=False).sanitize is False


def test_dispatch_trace_requires_sanitize(monkeypatch):
    monkeypatch.delenv("SIM_SANITIZE", raising=False)
    with pytest.raises(SimulationError):
        Simulator().enable_dispatch_trace()


@pytest.mark.parametrize("timer_backend", ["heap", "calendar"],
                         indirect=True)
def test_sanitized_run_dispatches_in_total_order(timer_backend):
    sim = Simulator(sanitize=True)
    trace = sim.enable_dispatch_trace()
    fired = []
    for delay in (500, 100, 300, 100, 700, 200):
        sim.call_after(delay, fired.append)
    sim.run()
    assert sim.scheduler == timer_backend
    assert len(trace) == 6
    keys = [(time, seq) for time, seq, _name in trace]
    assert keys == sorted(keys)
    assert [time for time, _seq, _name in trace] == [
        100, 100, 200, 300, 500, 700]


# ----------------------------------------------------------------------
# Mutation 1: backwards clock
# ----------------------------------------------------------------------
def test_mutation_backwards_clock_detected():
    sim = Simulator(sanitize=True)
    sim.call_after(100, _noop)
    sim.run()
    assert sim.now == 100
    # Mutation: a corrupted component bypasses schedule() and plants a
    # raw timer entry behind the current clock.
    heappush(sim._queue, [50, 10 ** 9, _noop, None, True])  # simlint: disable=SIM007 -- deliberate white-box corruption
    with pytest.raises(SanitizerError, match="backwards clock"):
        sim.run()


def test_unsanitized_run_misses_backwards_clock(monkeypatch):
    # The control: without the sanitizer the same corruption dispatches
    # silently -- which is exactly why the sanitizer exists.
    monkeypatch.delenv("SIM_SANITIZE", raising=False)
    # core="py": the corruption is planted by reaching into the Python
    # engine's raw heap list, which the compiled core does not have.
    sim = Simulator(core="py")
    sim.call_after(100, _noop)
    sim.run()
    heappush(sim._queue, [50, 10 ** 9, _noop, None, True])  # simlint: disable=SIM007 -- deliberate white-box corruption
    sim.run()
    # The clock silently jumped backwards -- the corruption the
    # sanitizer turns into a hard error.
    assert sim.now == 50


# ----------------------------------------------------------------------
# Mutation 2: replenish credit destruction (the PR 1 bug)
# ----------------------------------------------------------------------
def _buggy_replenish(self, amount=1):
    """Re-introduced bug: clamp to maximum *before* granting waiters."""
    self._credits = min(self.maximum, self._credits + amount)
    self.total_replenished += amount
    while self._waiters and self._credits >= self._waiters[0][0]:
        want, grant, arg = self._waiters.popleft()
        self._credits -= want
        self.total_taken += want
        grant(arg)


def _buggy_flush_replenish(self, amount=None):
    """The same bug planted in the coalesced flush the datalink arms."""
    if amount is None:
        amount = self._pending_replenish
        self._pending_replenish = 0
        self.flush_count += 1
    _buggy_replenish(self, amount)


def test_mutation_credit_destruction_detected(monkeypatch):
    sim = Simulator(sanitize=True)
    pool = CreditPool(sim, initial=0, maximum=2)
    pool.take(2)
    pool.take(2)
    assert pool.pending_waiters() == 2
    monkeypatch.setattr(CreditPool, "replenish", _buggy_replenish)
    # The bulk return owes both takers 2 credits; the buggy order clamps
    # to 2 first and silently destroys the second taker's credits.  The
    # buggy code performs no checks itself -- the conservation ledger
    # catches the corruption at the next pool operation.
    pool.replenish(4)
    with pytest.raises(SanitizerError, match="conservation violated"):
        pool.try_take(1)


def _over_returning_datalink(sim):
    """A 2-credit datalink with four packets parked on credits.

    The receiver owes the sender three credits beyond its window, so
    the first credit return it flushes carries 4 credits while the
    pool holds none: the only shape in which the clamp order decides
    whether credits owed to blocked senders survive.  A seventh packet
    is sent once the burst has drained.
    """
    link = PhysicalLink(sim, LinkConfig())
    datalink = DataLink(sim, link, DataLinkConfig(credits=2, credit_batch=1))
    received = []
    datalink.connect(received.append)
    for _ in range(6):
        datalink.send_and_forget(
            Packet(src=0, dst=1, kind=PacketKind.QPAIR_DATA,
                   payload_bytes=64))
    assert datalink.credits.pending_waiters() == 4
    datalink._credits_owed = 3
    sim.schedule_at(50_000, datalink.send_and_forget,
                    Packet(src=0, dst=1, kind=PacketKind.QPAIR_DATA,
                           payload_bytes=64))
    return datalink, received


def test_mutation_flush_credit_destruction_detected(monkeypatch):
    # The datalink returns credits through the coalesced flush event
    # (armed inline by DataLink._rx_done), not through replenish(); the
    # same clamp-before-grant bug planted there must be caught too.  The
    # buggy flush skips its own entry audit, so the destroyed credits
    # surface at the datalink's next inline credit take.
    sim = Simulator(sanitize=True)
    datalink, _received = _over_returning_datalink(sim)
    monkeypatch.setattr(CreditPool, "_flush_replenish",
                        _buggy_flush_replenish)
    with pytest.raises(SanitizerError, match="conservation violated"):
        sim.run_until_idle()


def test_over_returning_datalink_is_clean_without_the_mutation():
    # The control: the real flush grants all four parked senders before
    # clamping, so every packet is delivered and the ledger balances.
    sim = Simulator(sanitize=True)
    datalink, received = _over_returning_datalink(sim)
    sim.run_until_idle()
    assert len(received) == 7
    assert datalink.credits.pending_waiters() == 0
    datalink.credits.check_conservation()


def test_send_and_forget_audits_conservation():
    # send_and_forget takes its credit inline instead of through
    # try_take; under the sanitizer it must still run try_take's
    # conservation audit, so a credit destroyed behind the ledger's
    # back is caught at the next per-hop take.
    sim = Simulator(sanitize=True)
    link = PhysicalLink(sim, LinkConfig())
    datalink = DataLink(sim, link, DataLinkConfig())
    datalink.connect(_noop)
    datalink.credits._credits -= 1
    with pytest.raises(SanitizerError, match="conservation violated"):
        datalink.send_and_forget(
            Packet(src=0, dst=1, kind=PacketKind.QPAIR_DATA,
                   payload_bytes=64))


def test_conservation_check_passes_on_honest_pool(sim):
    pool = CreditPool(sim, initial=3, maximum=5)
    pool.try_take(2)
    pool.replenish(4)
    pool.check_conservation()
    assert pool.available == 5  # 3 - 2 + 4 clamped to maximum


def test_conservation_check_detects_out_of_range(sim):
    pool = CreditPool(sim, initial=1, maximum=2)
    pool._credits = 7
    with pytest.raises(SanitizerError, match="conservation violated"):
        pool.check_conservation()


# ----------------------------------------------------------------------
# Mutation 3: unpruned replay counters (the PR 2 bug)
# ----------------------------------------------------------------------
def _leaky_rx_done(self, packet):
    """Re-introduced bug: per-sequence replay tracking never pruned."""
    self._pending_replay.pop(packet.sequence, None)
    # (the _replay_attempts.pop(...) on delivery is gone)
    owed = self._credits_owed + 1
    self._ctr_credits_returned.value += 1
    queue = self._rx_queue
    if queue:
        if owed >= self._credit_batch:
            self._flush_credits(owed)
        else:
            self._credits_owed = owed
        self._call_after(self._processing_ns, self._rx_done, queue.popleft())
    else:
        self._flush_credits(owed)
        self._rx_busy = False
    if self._sink is not None:
        self._sink(packet)


def _lossy_datalink(sim):
    """A flow-controlled datalink whose wire corrupts ~half its packets."""
    wire_bits = (48 + 16) * 8  # payload + header bytes, in bits
    link = PhysicalLink(sim, LinkConfig(bit_error_rate=0.5 / wire_bits),
                        rng=DeterministicRNG(7))
    datalink = DataLink(sim, link, DataLinkConfig())
    datalink.connect(_noop)
    return datalink


def test_mutation_unpruned_replay_counters_detected(monkeypatch):
    sim = Simulator(sanitize=True)
    datalink = _lossy_datalink(sim)
    monkeypatch.setattr(DataLink, "_rx_done", _leaky_rx_done)
    with pytest.raises(SanitizerError, match="unpruned replay"):
        for index in range(200):
            datalink.send_and_forget(
                Packet(src=0, dst=1, kind=PacketKind.QPAIR_DATA,
                       payload_bytes=48))
            sim.run_until_idle()


def test_pruned_replay_tracking_stays_bounded():
    # The control: the real receive path prunes on delivery, so the same
    # lossy traffic keeps the tracking map within the credit window.
    sim = Simulator(sanitize=True)
    datalink = _lossy_datalink(sim)
    for index in range(200):
        datalink.send_and_forget(
            Packet(src=0, dst=1, kind=PacketKind.QPAIR_DATA,
                   payload_bytes=48))
        sim.run_until_idle()
    assert datalink.stats.counter("crc_errors").value > 0
    assert datalink.tracked_replay_sequences() <= DataLinkConfig().credits


# ----------------------------------------------------------------------
# Packet lifecycle accounting
# ----------------------------------------------------------------------
def _event_system():
    return VeniceSystem.build(config=VeniceConfig.pair(),
                              transport_backend="event", sanitize=True)


def test_transport_lifecycle_audit_passes_on_clean_run():
    transport = _event_system().event_transport()
    assert transport.sim.sanitize is True
    ops = [transport.submit_one_way(0, 1, 256, PacketKind.QPAIR_DATA),
           transport.submit_round_trip(1, 0, 64, 256, 500,
                                       PacketKind.CRMA_READ,
                                       PacketKind.CRMA_READ_RESP)]
    transport.drive_all(ops)  # runs the audit at idleness
    assert transport.packets_injected == transport.packets_delivered == 3
    transport.check_packet_lifecycle()


def test_transport_lifecycle_audit_detects_lost_packet():
    transport = _event_system().event_transport()
    transport.drive_all([
        transport.submit_one_way(0, 1, 256, PacketKind.QPAIR_DATA)])
    # Mutation: a packet evaporates between injection and delivery.
    transport.packets_injected += 1
    with pytest.raises(SanitizerError, match="packet lifecycle"):
        transport.check_packet_lifecycle()


def test_transport_lifecycle_audit_detects_handler_leak():
    transport = _event_system().event_transport()
    # A handler registered for a packet that is never injected survives
    # any number of idle drains: the stale-handler leak.
    orphan = Packet(src=0, dst=1, kind=PacketKind.QPAIR_DATA,
                    payload_bytes=64)
    transport.expect(orphan, _noop)
    with pytest.raises(SanitizerError, match="stale-handler leak"):
        transport.check_packet_lifecycle()


# ----------------------------------------------------------------------
# Lockstep heap-vs-calendar cross-check
# ----------------------------------------------------------------------
#: One dispatch-trace record: (time, seq, callback qualname).
TraceEntry = Tuple[int, int, str]


@dataclass(frozen=True)
class Divergence:
    """First dispatch where the heap and calendar traces disagree."""

    index: int
    heap_entry: Optional[TraceEntry]
    calendar_entry: Optional[TraceEntry]

    def render(self) -> str:
        def fmt(entry: Optional[TraceEntry]) -> str:
            if entry is None:
                return "<stream ended>"
            time, seq, name = entry
            return f"t={time} seq={seq} {name}"
        return (f"dispatch #{self.index}: "
                f"heap {fmt(self.heap_entry)} != "
                f"calendar {fmt(self.calendar_entry)}")


@dataclass
class CrossCheckResult:
    """Outcome of one lockstep run."""

    events_heap: int
    events_calendar: int
    divergence: Optional[Divergence]

    @property
    def ok(self) -> bool:
        return self.divergence is None


def lockstep_cross_check(pin_backend, build) -> CrossCheckResult:
    """Run ``build``'s workload on both backends and diff dispatch order.

    An end-state diff says nothing about *where* two backends diverge;
    the first dispatch where the traces disagree is where the bug is.
    ``build`` receives a fresh sanitizing simulator (pinned to each
    backend in turn by ``pin_backend``) and must set up the workload;
    it is called twice, so any state it closes over is shared between
    the runs.  Traces record callback *qualnames*, so logically
    identical callbacks from the two builds compare equal.
    """
    traces: List[List[TraceEntry]] = []
    counts: List[int] = []
    for backend in ("heap", "calendar"):
        pin_backend(backend)
        sim = Simulator(sanitize=True)
        trace = sim.enable_dispatch_trace()
        build(sim)
        sim.run()
        traces.append(trace)
        counts.append(sim.events_processed)
    heap_trace, calendar_trace = traces
    divergence = None
    for index in range(max(len(heap_trace), len(calendar_trace))):
        heap_entry = heap_trace[index] if index < len(heap_trace) else None
        cal_entry = (calendar_trace[index]
                     if index < len(calendar_trace) else None)
        if heap_entry != cal_entry:
            divergence = Divergence(index=index, heap_entry=heap_entry,
                                    calendar_entry=cal_entry)
            break
    return CrossCheckResult(events_heap=counts[0], events_calendar=counts[1],
                            divergence=divergence)


def _timer_and_credit_workload(sim):
    pool = CreditPool(sim, initial=2, maximum=4)
    for delay in (300, 100, 700, 100, 500):
        sim.call_after(delay, _noop)
    for _ in range(4):
        pool.take(1)
    sim.call_after(250, lambda _v=None: pool.replenish(2))
    sim.call_after(600, lambda _v=None: pool.replenish(2))


def _fabric_workload(sim):
    link = PhysicalLink(sim, LinkConfig())
    datalink = DataLink(sim, link, DataLinkConfig(credits=4))
    datalink.connect(_noop)
    for index in range(32):
        datalink.send_and_forget(
            Packet(src=0, dst=1, kind=PacketKind.QPAIR_DATA,
                   payload_bytes=64 + 16 * (index % 3)))


@pytest.mark.parametrize("build", [_timer_and_credit_workload,
                                   _fabric_workload])
def test_lockstep_identical_across_schedulers(build, pin_backend):
    result = lockstep_cross_check(pin_backend, build)
    assert result.ok, result.divergence.render()
    assert result.events_heap == result.events_calendar > 0


def _diverging_build_factory():
    seen = []

    def build(sim):
        # Models a scheduler-order bug: the two runs schedule different
        # callbacks at the same timestamp.
        sim.call_after(10, _noop if not seen else _other_noop)
        seen.append(sim)

    return build


def _other_noop(_value=None):
    return None


def test_lockstep_reports_first_divergence(pin_backend):
    result = lockstep_cross_check(pin_backend, _diverging_build_factory())
    assert not result.ok
    assert result.divergence.index == 0
    rendered = result.divergence.render()
    assert "_noop" in rendered and "_other_noop" in rendered


def test_lockstep_reports_length_divergence(pin_backend):
    seen = []

    def build(sim):
        sim.call_after(10, _noop)
        if seen:
            sim.call_after(20, _noop)
        seen.append(sim)

    result = lockstep_cross_check(pin_backend, build)
    assert not result.ok
    assert result.divergence.index == 1
    assert result.divergence.heap_entry is None
    assert "<stream ended>" in result.divergence.render()
