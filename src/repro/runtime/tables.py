"""Monitor-node tables: RRT, RAT and TST (Section 5.3).

These are functional data structures -- the runtime layer in the paper
is software, so no timing model is attached beyond what the Monitor
Node itself charges for request handling.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


class ResourceKind(enum.Enum):
    """Types of shareable resources tracked by the runtime."""

    MEMORY = "memory"
    ACCELERATOR = "accelerator"
    NIC = "nic"


@dataclass
class ResourceRecord:
    """One RRT row: a resource (or pool thereof) available on a node."""

    node_id: int
    kind: ResourceKind
    #: Bytes for memory, unit count for accelerators/NICs.
    capacity: int
    #: Currently unallocated amount.
    available: int
    #: Free-form capability description (e.g. accelerator kernel type).
    capabilities: str = ""
    #: Simulated time of the last heartbeat that refreshed this record.
    last_heartbeat_ns: int = 0

    def __post_init__(self) -> None:
        if self.capacity < 0 or self.available < 0:
            raise ValueError("capacity and availability must be non-negative")
        if self.available > self.capacity:
            raise ValueError("availability cannot exceed capacity")


class ResourceRegistrationTable:
    """RRT: available resources in the rack, keyed by (node, kind)."""

    def __init__(self) -> None:
        self._records: Dict[Tuple[int, ResourceKind], ResourceRecord] = {}  # simlint: disable=SIM006 -- bounded by nodes x resource kinds
        # Per-kind key order, rebuilt only when a *new* (node, kind) key
        # appears.  Heartbeats refresh existing keys in place, so the
        # planner's per-request records_of_kind() calls skip the full
        # sort that used to dominate the sharded-MN hot path.
        self._kind_keys: Optional[Dict[ResourceKind, List[Tuple[int, ResourceKind]]]] = None  # simlint: disable=SIM006 -- bounded by nodes x resource kinds
        # Bumped on every register() (insert *or* replace).  Hot paths
        # that cache record objects (the Monitor Node's fused heartbeat)
        # key their cache on this, so a replaced record is never
        # refreshed through a stale reference.
        self.version = 0

    def register(self, record: ResourceRecord) -> None:
        """Insert or refresh the record for (node, kind)."""
        key = (record.node_id, record.kind)
        if key not in self._records:
            self._kind_keys = None
        self._records[key] = record
        self.version += 1

    def get(self, node_id: int, kind: ResourceKind) -> Optional[ResourceRecord]:
        return self._records.get((node_id, kind))

    @property
    def rows(self) -> Dict[Tuple[int, ResourceKind], ResourceRecord]:
        """The live (node, kind) -> record mapping, for read-mostly hot
        paths that want one ``dict.get`` per probe.  Callers must not
        add or remove keys directly -- inserting through anything but
        :meth:`register` would bypass the per-kind order cache."""
        return self._records

    def records_of_kind(self, kind: ResourceKind) -> List[ResourceRecord]:
        # Sorted by node id: this list seeds the donor-candidate order,
        # so ties in the selection policy must not be broken by the
        # registration history baked into dict insertion order.
        if self._kind_keys is None:
            self._kind_keys = {}
            for key in sorted(self._records, key=lambda k: (k[0], k[1].value)):
                self._kind_keys.setdefault(key[1], []).append(key)
        records = self._records
        return [records[key] for key in self._kind_keys.get(kind, ())]

    def total_available(self, kind: ResourceKind) -> int:
        return sum(record.available for record in self.records_of_kind(kind))

    def nodes(self) -> List[int]:
        return sorted({node_id for node_id, _ in self._records})

    def stale_nodes(self, now_ns: int, timeout_ns: int) -> List[int]:
        """Nodes whose newest heartbeat is older than ``timeout_ns``."""
        newest: Dict[int, int] = {}
        for (node_id, _), record in self._records.items():  # simlint: disable=SIM001 -- max() fold is order-insensitive
            newest[node_id] = max(newest.get(node_id, 0), record.last_heartbeat_ns)
        return sorted(node for node, beat in newest.items()
                      if now_ns - beat > timeout_ns)


_allocation_ids = itertools.count(1)


@dataclass
class AllocationRecord:
    """One RAT row: an active allocation of a resource to a requester."""

    requester: int
    donor: int
    kind: ResourceKind
    amount: int
    allocation_id: int = field(default_factory=lambda: next(_allocation_ids))
    created_at_ns: int = 0
    released: bool = False

    def __post_init__(self) -> None:
        if self.amount <= 0:
            raise ValueError("allocation amount must be positive")


class ResourceAllocationTable:
    """RAT: every allocation the Monitor Node has granted."""

    def __init__(self) -> None:
        self._records: List[AllocationRecord] = []
        # Insertion-ordered id -> record view of the not-yet-released
        # records.  `released` is only ever flipped by release(), so the
        # dict mirrors the filtered-list order exactly while making
        # release() O(1) instead of a scan over every allocation the
        # table has ever granted (the sharded-MN release hot path).
        self._active_by_id: Dict[int, AllocationRecord] = {}  # simlint: disable=SIM006 -- bounded by concurrently active allocations

    def add(self, record: AllocationRecord) -> AllocationRecord:
        self._records.append(record)
        # Allocation ids come from a process-wide counter, so collisions
        # cannot happen; setdefault keeps first-match release semantics
        # anyway should a caller ever hand-craft a duplicate id.
        self._active_by_id.setdefault(record.allocation_id, record)
        return record

    def release(self, allocation_id: int) -> AllocationRecord:
        record = self._active_by_id.pop(allocation_id, None)
        if record is None:
            raise KeyError(f"no active allocation with id {allocation_id}")
        record.released = True
        return record

    def is_active(self, allocation_id: int) -> bool:
        return allocation_id in self._active_by_id

    def active(self) -> List[AllocationRecord]:
        return list(self._active_by_id.values())

    def active_for_requester(self, requester: int) -> List[AllocationRecord]:
        return [record for record in self.active() if record.requester == requester]

    def active_for_donor(self, donor: int) -> List[AllocationRecord]:
        return [record for record in self.active() if record.donor == donor]

    def allocated_amount(self, donor: int, kind: ResourceKind) -> int:
        return sum(record.amount for record in self.active()
                   if record.donor == donor and record.kind == kind)


class LinkStatus(enum.Enum):
    """Health of one fabric link as reported by the node agents."""

    UP = "up"
    DEGRADED = "degraded"
    DOWN = "down"


class TopologyStatusTable:
    """TST: per-link status, keyed by the unordered node pair."""

    def __init__(self) -> None:
        self._status: Dict[Tuple[int, int], LinkStatus] = {}  # simlint: disable=SIM006 -- bounded by the topology's link count
        self._reported_at: Dict[Tuple[int, int], int] = {}  # simlint: disable=SIM006 -- bounded by the topology's link count

    @staticmethod
    def _key(node_a: int, node_b: int) -> Tuple[int, int]:
        return (node_a, node_b) if node_a <= node_b else (node_b, node_a)

    def report(self, node_a: int, node_b: int, status: LinkStatus,
               now_ns: int = 0) -> None:
        key = self._key(node_a, node_b)
        self._status[key] = status
        self._reported_at[key] = now_ns

    def status(self, node_a: int, node_b: int) -> LinkStatus:
        return self._status.get(self._key(node_a, node_b), LinkStatus.DOWN)

    def reported_status(self, node_a: int, node_b: int) -> Optional[LinkStatus]:
        """The reported status, or None when nobody reported this link.

        One lookup replaces the ``status()``-plus-known-links pattern --
        path checks that must ignore unreported links used to rebuild a
        set of every known link per query.
        """
        return self._status.get(self._key(node_a, node_b))

    def is_usable(self, node_a: int, node_b: int) -> bool:
        return self.status(node_a, node_b) in (LinkStatus.UP, LinkStatus.DEGRADED)

    def links(self) -> List[Tuple[int, int, LinkStatus]]:
        return [(a, b, status) for (a, b), status in sorted(self._status.items())]
