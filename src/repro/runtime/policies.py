"""Donor-selection policies for the Monitor Node.

The prototype's allocator "only considers distance" (Section 5.3), but
the paper calls out that a production runtime should also weigh the
nature of the sharing (bandwidth demand), existing traffic on the
involved links, and load balance across donors.  This module implements
that design space as pluggable policies so the runtime experiments can
compare them:

* :class:`DistanceFirstPolicy`   -- the prototype's policy: fewest hops,
  ties broken by node id.
* :class:`LoadBalancedPolicy`    -- fewest *active allocations already
  placed on the donor*, then distance: spreads borrowed resources so no
  single donor becomes a hot spot.
* :class:`BandwidthAwarePolicy`  -- avoids donors whose path to the
  requester is already carrying allocated traffic, weighting distance
  by the number of existing allocations that share links with the
  candidate path.
* :class:`ContentionAwarePolicy` -- the measured version of the above:
  instead of *assuming* every allocation loads its path, it consumes
  the event backend's per-link ``busy_fraction`` telemetry (via
  :class:`FabricContentionTelemetry`) and steers donor choice away
  from links that are actually saturated right now.

Policies only *order* candidates; the Monitor Node still performs the
stale-record handshake and retries down the ordered list.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.fabric.topology import Topology
from repro.runtime.tables import (
    ResourceAllocationTable,
    ResourceKind,
    ResourceRecord,
)


class DonorSelectionPolicy:
    """Orders candidate donor records for one allocation request."""

    name = "abstract"

    def order(self, requester: int, kind: ResourceKind,
              candidates: List[ResourceRecord], topology: Topology,
              rat: ResourceAllocationTable) -> List[ResourceRecord]:
        """Return ``candidates`` sorted from most to least preferred."""
        raise NotImplementedError


class DistanceFirstPolicy(DonorSelectionPolicy):
    """The prototype's allocator: nearest donor first."""

    name = "distance-first"

    def order(self, requester, kind, candidates, topology, rat):
        hops = topology.hop_map(requester)
        return sorted(candidates, key=lambda record: (
            hops[record.node_id], record.node_id))


class LoadBalancedPolicy(DonorSelectionPolicy):
    """Prefer donors carrying the fewest active allocations.

    Distance is the tie-breaker, so nearby donors are still preferred
    among equally loaded ones.
    """

    name = "load-balanced"

    def order(self, requester, kind, candidates, topology, rat):
        def load(record: ResourceRecord) -> int:
            return len(rat.active_for_donor(record.node_id))

        hops = topology.hop_map(requester)
        return sorted(candidates, key=lambda record: (
            load(record), hops[record.node_id], record.node_id))


class BandwidthAwarePolicy(DonorSelectionPolicy):
    """Penalise donors whose path shares links with existing allocations.

    Each active allocation is assumed to load every link on the route
    between its requester and donor; a candidate's score is its hop
    count plus ``contention_weight`` times the number of loaded links on
    its own path.  This captures the paper's observation that "existing
    traffic over involved links" should influence donor choice.
    """

    name = "bandwidth-aware"

    def __init__(self, contention_weight: float = 2.0):
        if contention_weight < 0:
            raise ValueError("contention weight must be non-negative")
        self.contention_weight = contention_weight

    @staticmethod
    def _path_links(topology: Topology, src: int, dst: int) -> List[Tuple[int, int]]:
        path = topology.path_nodes(src, dst)
        return [tuple(sorted(pair)) for pair in zip(path, path[1:])]

    def _link_load(self, topology: Topology,
                   rat: ResourceAllocationTable) -> Dict[Tuple[int, int], int]:
        load: Dict[Tuple[int, int], int] = {}
        for record in rat.active():
            for link in self._path_links(topology, record.requester, record.donor):
                load[link] = load.get(link, 0) + 1
        return load

    def order(self, requester, kind, candidates, topology, rat):
        link_load = self._link_load(topology, rat)
        hops = topology.hop_map(requester)

        def score(record: ResourceRecord) -> float:
            contended = sum(
                link_load.get(link, 0)
                for link in self._path_links(topology, requester, record.node_id)
            )
            return hops[record.node_id] + self.contention_weight * contended

        return sorted(candidates, key=lambda record: (score(record), record.node_id))


class FabricContentionTelemetry:
    """Live per-link busy fractions read off the event fabric.

    The event backend's :class:`~repro.fabric.phy.PhysicalLink` keeps a
    busy-time counter per direction; this adapter exposes the hotter
    direction of each unordered pair, which is what donor selection
    cares about (a saturated down-link slows the borrow no matter which
    way the request flowed).  Constructed from anything with a
    ``links`` dict keyed by directed ``(src, dst)`` pairs -- the
    :class:`~repro.core.system.EventFabric` -- or handed explicit
    fractions (tests, closed-form sweeps).
    """

    def __init__(self, fabric=None,
                 fractions: Optional[Dict[Tuple[int, int], float]] = None):
        if fabric is None and fractions is None:
            raise ValueError("telemetry needs a fabric or explicit fractions")
        self._fabric = fabric
        self._fractions = dict(fractions) if fractions is not None else None

    def link_busy(self, node_a: int, node_b: int) -> float:
        """Busy fraction of the hotter direction of one link (0.0 unknown)."""
        key = (node_a, node_b) if node_a <= node_b else (node_b, node_a)
        if self._fractions is not None:
            return self._fractions.get(key, 0.0)
        busy = 0.0
        for direction in (key, (key[1], key[0])):
            link = self._fabric.links.get(direction)
            if link is not None:
                busy = max(busy, link.busy_fraction())
        return busy


class ContentionAwarePolicy(DonorSelectionPolicy):
    """Steer donor choice away from links that are *measured* saturated.

    Scores each candidate as its hop count plus ``busy_weight`` times
    the summed busy fraction of the links on its path, so a donor one
    hop further away wins as soon as the nearer donor's path carries
    more than ``1 / busy_weight`` of extra measured load.  With no
    telemetry attached the busy term is zero and the ordering collapses
    to :class:`DistanceFirstPolicy` -- the policy can be installed
    before the fabric exists and wired up later.
    """

    name = "contention-aware"

    def __init__(self, telemetry: Optional[FabricContentionTelemetry] = None,
                 busy_weight: float = 8.0):
        if busy_weight < 0:
            raise ValueError("busy weight must be non-negative")
        self.telemetry = telemetry
        self.busy_weight = busy_weight

    def order(self, requester, kind, candidates, topology, rat):
        telemetry = self.telemetry
        hop_map = topology.hop_map(requester)

        def score(record: ResourceRecord) -> float:
            hops = hop_map[record.node_id]
            if telemetry is None:
                return float(hops)
            path = topology.path_nodes(requester, record.node_id)
            busy = sum(telemetry.link_busy(a, b)
                       for a, b in zip(path, path[1:]))
            return hops + self.busy_weight * busy

        return sorted(candidates, key=lambda record: (score(record), record.node_id))


#: Registry of the built-in policies, keyed by their public names.
POLICIES = {
    policy.name: policy
    for policy in (DistanceFirstPolicy, LoadBalancedPolicy,
                   BandwidthAwarePolicy, ContentionAwarePolicy)
}


def make_policy(name: str, **kwargs) -> DonorSelectionPolicy:
    """Instantiate a donor-selection policy by its registry name."""
    try:
        policy_class = POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown donor policy {name!r}; choose from {', '.join(sorted(POLICIES))}"
        ) from None
    return policy_class(**kwargs)
