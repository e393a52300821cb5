"""Blocking resources built on top of the process/event model.

* :class:`Store`      -- bounded FIFO queue of items (models buffers,
  mailbox queues, packet queues).
* :class:`Resource`   -- counting resource with ``acquire``/``release``
  (models ports, DMA engines, accelerator slots).
* :class:`CreditPool` -- integer credit counter with blocking ``take``
  (models credit-based flow control at the datalink and QPair layers).

Each blocking operation returns a :class:`SimEvent`; a process waits by
yielding it.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Optional, Tuple

from repro.sim.engine import SanitizerError, SimulationError, Simulator
from repro.sim.process import SimEvent


class Store:
    """Bounded FIFO of items with blocking put/get semantics."""

    __slots__ = ("sim", "name", "capacity", "_items", "_getters", "_putters",
                 "_put_name", "_get_name")

    def __init__(self, sim: Simulator, capacity: Optional[int] = None, name: str = "store"):
        if capacity is not None and capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self._items: Deque[Any] = deque()
        self._getters: Deque[SimEvent] = deque()
        self._putters: Deque[tuple] = deque()  # (event, item)
        # Event names are hoisted out of put()/get(): building one
        # f-string per packet shows up in fabric hot-path profiles.
        self._put_name = name + ".put"
        self._get_name = name + ".get"

    def __len__(self) -> int:
        return len(self._items)

    @property
    def is_full(self) -> bool:
        return self.capacity is not None and len(self._items) >= self.capacity

    def put(self, item: Any) -> SimEvent:
        """Enqueue ``item``; the returned event triggers once accepted.

        The immediate-acceptance paths mark the fresh event succeeded in
        place: it cannot have waiters yet, so this equals ``succeed(None)``
        without the call overhead (this is the per-packet fast path).
        """
        event = SimEvent(self.sim, name=self._put_name)
        if self._getters:
            self._getters.popleft().succeed(item)
            event._succeeded = True
        elif self.capacity is None or len(self._items) < self.capacity:
            self._items.append(item)
            event._succeeded = True
        else:
            self._putters.append((event, item))
        return event

    def try_put(self, item: Any) -> bool:
        """Non-blocking put; returns False if the store is full."""
        if self._getters:
            self._getters.popleft().succeed(item)
            return True
        if self.is_full:
            return False
        self._items.append(item)
        return True

    def get(self) -> SimEvent:
        """Dequeue an item; the returned event triggers with the item."""
        event = SimEvent(self.sim, name=self._get_name)
        if self._items:
            # Fresh event, no waiters possible: succeed in place.
            event._value = self._items.popleft()
            event._succeeded = True
            if self._putters:
                self._admit_waiting_putter()
        else:
            self._getters.append(event)
        return event

    def try_get(self) -> tuple:
        """Non-blocking get; returns ``(ok, item)``."""
        if not self._items:
            return False, None
        item = self._items.popleft()
        self._admit_waiting_putter()
        return True, item

    def _admit_waiting_putter(self) -> None:
        if self._putters and not self.is_full:
            event, item = self._putters.popleft()
            self._items.append(item)
            event.succeed(None)


class Resource:
    """Counting resource (capacity N) with FIFO acquisition order."""

    __slots__ = ("sim", "name", "capacity", "_in_use", "_waiters",
                 "_acquire_name")

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = "resource"):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self._in_use = 0
        self._waiters: Deque[SimEvent] = deque()
        self._acquire_name = name + ".acquire"

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def available(self) -> int:
        return self.capacity - self._in_use

    def acquire(self) -> SimEvent:
        """Request a unit; the returned event fires once granted."""
        event = SimEvent(self.sim, name=self._acquire_name)
        if self._in_use < self.capacity:
            self._in_use += 1
            # Fresh event, no waiters possible: succeed in place.
            event._succeeded = True
        else:
            self._waiters.append(event)
        return event

    def release(self) -> None:
        """Return a unit, granting it to the oldest waiter if any."""
        if self._in_use <= 0:
            raise SimulationError(f"release on idle resource {self.name!r}")
        if self._waiters:
            # Hand the unit directly to the next waiter.
            self._waiters.popleft().succeed(None)
        else:
            self._in_use -= 1


class CreditPool:
    """Integer credit counter used for credit-based flow control.

    Senders ``take(n)`` credits (blocking until available) before
    transmitting; receivers ``replenish(n)`` when buffers drain.

    Blocked takers wait in one FIFO of ``(amount, grant, arg)`` entries;
    granting an entry calls ``grant(arg)`` exactly once.  :meth:`take`
    parks ``(amount, event.succeed, None)``, so a process resumes
    through its :class:`SimEvent`; :meth:`take_then` parks
    ``(amount, sim.call_soon, callback)``, so a callback chain (the
    datalink's stalled ``send_and_forget``) is scheduled directly with
    the same single ``call_soon`` and no event object.

    When the owning simulator sanitizes, every pool operation entry
    point re-checks the conservation invariant
    (:meth:`check_conservation`), so a buggy replenish path that
    silently destroys or mints credits is caught at the next pool
    operation even if the buggy code itself performs no checks.  Code
    that takes credits inline instead of through :meth:`try_take`
    (``DataLink.send_and_forget``) runs the same check itself.
    """

    __slots__ = ("sim", "name", "maximum", "_take_name", "_credits",
                 "_waiters", "_pending_replenish", "total_taken",
                 "total_replenished", "stall_count", "flush_count",
                 "_initial", "_clamped", "_sanitize", "_call_soon")

    def __init__(self, sim: Simulator, initial: int, maximum: Optional[int] = None,
                 name: str = "credits"):
        if initial < 0:
            raise ValueError(f"initial credits must be non-negative, got {initial}")
        if maximum is not None and maximum < initial:
            raise ValueError("maximum credits below initial credits")
        self.sim = sim
        self.name = name
        self.maximum = maximum if maximum is not None else initial
        self._take_name = name + ".take"
        self._credits = initial
        #: Blocked takers, FIFO: (amount, grant, arg); see the class doc.
        self._waiters: Deque[Tuple[int, Callable[[Any], Any], Any]] = deque()
        #: Credits accrued towards the next coalesced flush (see
        #: :meth:`schedule_replenish`).
        self._pending_replenish = 0
        self.total_taken = 0
        self.total_replenished = 0
        self.stall_count = 0
        self.flush_count = 0
        self._initial = initial
        #: Credits legitimately discarded by the post-grant clamp; part
        #: of the conservation ledger so clamped returns are
        #: distinguishable from silently destroyed credits.
        self._clamped = 0
        self._sanitize = bool(getattr(sim, "sanitize", False))
        self._call_soon = sim.call_soon

    @property
    def available(self) -> int:
        return self._credits

    def _check_amount(self, amount: int) -> None:
        if amount <= 0:
            raise ValueError(f"credit amount must be positive, got {amount}")
        if amount > self.maximum:
            raise SimulationError(
                f"requesting {amount} credits exceeds pool maximum {self.maximum}"
            )

    def take(self, amount: int = 1) -> SimEvent:
        """Consume ``amount`` credits; blocks (via event) until granted."""
        self._check_amount(amount)
        if self._sanitize:
            self.check_conservation()
        event = SimEvent(self.sim, name=self._take_name)
        if not self._waiters and self._credits >= amount:
            self._credits -= amount
            self.total_taken += amount
            # Fresh event, no waiters possible: succeed in place.
            event._succeeded = True
        else:
            self.stall_count += 1
            self._waiters.append((amount, event.succeed, None))
        return event

    def take_then(self, callback: Callable[[Any], Any], amount: int = 1) -> None:
        """Consume ``amount`` credits, then run ``callback(None)``.

        The callback form of :meth:`take`, for callback chains: when
        the credits are free and nobody waits, they are taken now and
        ``callback`` is scheduled at the current time; otherwise the
        call counts a stall and parks ``callback`` in the waiter FIFO,
        and the grant schedules it.  Either way exactly one
        ``call_soon`` runs it -- the same event a :meth:`take` event
        with one waiter costs -- and no :class:`SimEvent` is allocated.
        """
        self._check_amount(amount)
        if self._sanitize:
            self.check_conservation()
        if not self._waiters and self._credits >= amount:
            self._credits -= amount
            self.total_taken += amount
            self._call_soon(callback)
        else:
            self.stall_count += 1
            self._waiters.append((amount, self._call_soon, callback))

    def try_take(self, amount: int = 1) -> bool:
        """Non-blocking take; returns ``False`` if short on credits."""
        if self._sanitize:
            self.check_conservation()
        if self._waiters or self._credits < amount:
            return False
        self._credits -= amount
        self.total_taken += amount
        return True

    def replenish(self, amount: int = 1) -> None:
        """Return ``amount`` credits and grant any now-satisfiable waiters.

        Waiters are granted before the pool is clamped to ``maximum``:
        credits owed to blocked senders must never be destroyed by the
        clamp.  Shares its grant-and-clamp routine with the coalesced
        flush (:meth:`_flush_replenish`).
        """
        if amount <= 0:
            raise ValueError(f"replenish amount must be positive, got {amount}")
        self._flush_replenish(amount)

    def schedule_replenish(self, amount: int = 1, delay: int = 0) -> None:
        """Return ``amount`` credits ``delay`` ns from now, coalesced.

        Batched credit return: the first pending credit arms a single
        flush event (:meth:`_flush_replenish`) ``delay`` ns out, and
        credits accrued before it fires ride along in the same wakeup
        pass -- N returns coalesce into one waiter-granting sweep
        instead of N events.  The window is anchored at the *first*
        credit's deadline: the ``delay`` of later calls in the window
        is ignored, so with a constant per-caller delay (the datalink's
        fixed return latency) coalesced credits return at or before
        their own deadline, while mixed delays may return a credit
        earlier or later than its own ``delay`` would.  Receivers only
        return credits for buffer slots that have already drained, so
        an early return cannot overflow.  ``DataLink._rx_done`` arms
        the same flush inline on its per-packet path.

        Flush-on-idle guarantee: arming is unconditional -- pending
        credits always have a scheduled flush event, so the batch can
        never be stranded and no waiter is left blocked when the
        simulation quiesces.
        """
        if amount <= 0:
            raise ValueError(f"replenish amount must be positive, got {amount}")
        if self._pending_replenish:
            self._pending_replenish += amount
            return
        self._pending_replenish = amount
        self.sim.call_after(delay, self._flush_replenish)

    def _flush_replenish(self, amount: Optional[int] = None) -> None:
        """Return credits: grant waiters in FIFO order, then clamp.

        The one grant-and-clamp routine.  The scheduler calls it with
        ``None`` as the coalesced flush event, which returns every
        pending credit; :meth:`replenish` calls it with an explicit
        amount.
        """
        if amount is None:
            if self._sanitize:
                self.check_conservation()
            amount = self._pending_replenish
            self._pending_replenish = 0
            self.flush_count += 1
        self._credits += amount
        self.total_replenished += amount
        waiters = self._waiters
        while waiters and self._credits >= waiters[0][0]:
            want, grant, arg = waiters.popleft()
            self._credits -= want
            self.total_taken += want
            grant(arg)
        if self._credits > self.maximum:
            if self._sanitize and waiters:
                raise SanitizerError(
                    f"credit pool {self.name!r}: clamping "
                    f"{self._credits - self.maximum} credits while "
                    f"{len(waiters)} taker(s) are still blocked "
                    "(waiters must be granted before the clamp)")
            self._clamped += self._credits - self.maximum
            self._credits = self.maximum
        if self._sanitize:
            self.check_conservation()

    def check_conservation(self) -> None:
        """Assert the credit-conservation invariant of this pool.

        ``initial + replenished - taken - clamped`` must equal the
        credits currently available, which must lie in
        ``[0, maximum]``.  A mismatch means some code path destroyed or
        minted credits without going through the ledger -- the shape of
        the historical replenish bug that clamped to ``maximum`` before
        granting blocked waiters.
        """
        expected = (self._initial + self.total_replenished
                    - self.total_taken - self._clamped)
        if expected != self._credits:
            raise SanitizerError(
                f"credit pool {self.name!r} conservation violated: "
                f"initial={self._initial} + "
                f"replenished={self.total_replenished} - "
                f"taken={self.total_taken} - clamped={self._clamped} "
                f"= {expected}, but {self._credits} credits are available")
        if not 0 <= self._credits <= self.maximum:
            raise SanitizerError(
                f"credit pool {self.name!r} holds {self._credits} credits, "
                f"outside [0, {self.maximum}]")

    @property
    def pending_replenish(self) -> int:
        """Credits accrued towards the next coalesced flush."""
        return self._pending_replenish

    def pending_waiters(self) -> int:
        return len(self._waiters)
