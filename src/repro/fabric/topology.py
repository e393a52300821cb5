"""Topology builders and hop-distance queries.

The prototype connects eight nodes in a 3D mesh (a 2x2x2 cube).  The
latency-analysis experiments additionally use a directly connected node
pair and a pair joined through one external router.  The
:class:`Topology` class captures nodes, links and the one route per
node pair that the fabric's routing tables and the control plane's hop
and path queries share; the Venice system builder
(:mod:`repro.core.system`) uses it to wire switches and to program
routing tables.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

import networkx as nx


@dataclass
class Topology:  # simlint: disable=SIM004 -- built once per experiment, never touched on the per-packet path
    """A named interconnection topology over integer node identifiers.

    **Routes.**  The topology defines one route per ordered node pair,
    and every consumer reads it: the event fabric's routing tables, the
    closed-form path shapes and the control plane's hop and path
    queries.  On a coordinate mesh (:func:`build_mesh3d`) the route is
    dimension order, X then Y then Z.  Everywhere else the next hop from
    a source is fixed by one breadth-first search from that source that
    visits neighbours in graph-adjacency order, the first discovery of a
    node winning.  On the direct pair, the star and every fat-tree shape
    this is the path ``networkx.shortest_path`` returns.  A route is the
    chain of next hops the fabric follows, so the path a query returns
    is the path packets take.

    One search per source fills two int maps, ``{dst: next hop}`` and
    ``{dst: hops}``; path lists are built and memoised only when a
    caller asks for one.  The graph is immutable once route queries
    begin -- builders finish the graph before returning, and fault
    injection copies it before removing edges.  The tables are dropped
    when the O(1) node count changes (edge counting walks the adjacency
    in networkx); code that adds an edge between *existing* nodes after
    querying routes must call :meth:`invalidate_path_cache`.
    """

    name: str
    graph: nx.Graph = field(default_factory=nx.Graph)
    #: Optional grid coordinates for mesh topologies (node -> (x, y, z)).
    coordinates: Dict[int, Tuple[int, int, int]] = field(default_factory=dict)
    #: Nodes that are routers rather than compute nodes.
    router_nodes: List[int] = field(default_factory=list)
    #: node -> neighbour dict, snapshot of the graph's adjacency for searches.
    _adjacency: Dict[int, Dict[int, dict]] = field(
        default_factory=dict, repr=False, compare=False)
    #: src -> ({dst: next hop}, {dst: hops}), one entry per searched source.
    _routes: Dict[int, Tuple[Dict[int, int], Dict[int, int]]] = field(
        default_factory=dict, repr=False, compare=False)
    #: (src, dst) -> node list of the route, built on first request.
    _path_cache: Dict[Tuple[int, int], List[int]] = field(
        default_factory=dict, repr=False, compare=False)
    _route_stamp: int = field(default=-1, repr=False, compare=False)

    @property
    def nodes(self) -> List[int]:
        return sorted(self.graph.nodes)

    @property
    def compute_nodes(self) -> List[int]:
        routers = set(self.router_nodes)
        return [node for node in self.nodes if node not in routers]

    @property
    def links(self) -> List[Tuple[int, int]]:
        return [tuple(sorted(edge)) for edge in self.graph.edges]

    def neighbors(self, node: int) -> List[int]:
        return sorted(self.graph.neighbors(node))

    def invalidate_path_cache(self) -> None:
        """Drop the route tables and memoised paths after an in-place graph edit."""
        self._adjacency.clear()
        self._routes.clear()
        self._path_cache.clear()
        self._route_stamp = -1

    def _table(self, src: int) -> Tuple[Dict[int, int], Dict[int, int]]:
        """The (next hop, hops) maps of ``src``, searched on first use."""
        stamp = self.graph.number_of_nodes()
        if stamp != self._route_stamp:
            self.invalidate_path_cache()
            self._adjacency.update(self.graph.adjacency())
            self._route_stamp = stamp
        table = self._routes.get(src)
        if table is None:
            table = self._routes[src] = self._search(src)
        return table

    def _search(self, src: int) -> Tuple[Dict[int, int], Dict[int, int]]:
        """One breadth-first search from ``src``; meshes then take dimension order."""
        adjacency = self._adjacency
        if src not in adjacency:
            raise nx.NodeNotFound(f"Source {src} is not in G")
        next_hops: Dict[int, int] = {}
        hops = {src: 0}
        frontier = [src]
        depth = 0
        while frontier:
            depth += 1
            reached = []
            for node in frontier:
                # A node inherits the first hop of whoever discovered it
                # first; adjacency order breaks ties between equal paths.
                first = next_hops.get(node)
                for neighbor in adjacency[node]:
                    if neighbor not in hops:
                        hops[neighbor] = depth
                        next_hops[neighbor] = neighbor if first is None else first
                        reached.append(neighbor)
            frontier = reached
        here = self.coordinates.get(src)
        if here is not None:
            at = {coord: node for node, coord in self.coordinates.items()}
            for dst, there in self.coordinates.items():
                if dst == src:
                    continue
                for axis in range(3):
                    if there[axis] != here[axis]:
                        step = list(here)
                        step[axis] += 1 if there[axis] > here[axis] else -1
                        next_hops[dst] = at[tuple(step)]
                        break
                hops[dst] = sum(abs(a - b) for a, b in zip(here, there))
        return next_hops, hops

    def _no_route(self, src: int, dst: int) -> Exception:
        """The networkx exception for a pair without a route."""
        if src not in self.graph or dst not in self.graph:
            return nx.NodeNotFound(f"Either source {src} or target {dst} is not in G")
        return nx.NetworkXNoPath(f"No path between {src} and {dst}.")

    def next_hops(self, src: int) -> Dict[int, int]:
        """``{dst: next hop}`` from ``src``; read-only, shared with the table."""
        return self._table(src)[0]

    def hop_map(self, src: int) -> Dict[int, int]:
        """``{dst: hops}`` from ``src`` (``src`` maps to 0); read-only, shared."""
        return self._table(src)[1]

    def hop_count(self, src: int, dst: int) -> int:
        """Number of fabric hops on the route from src to dst."""
        if src == dst:
            return 0
        hops = self._table(src)[1].get(dst)
        if hops is None:
            raise self._no_route(src, dst)
        return hops

    def next_hop(self, src: int, dst: int) -> int:
        """First node after src on the route towards dst."""
        if src == dst:
            raise ValueError("next_hop undefined for src == dst")
        hop = self._table(src)[0].get(dst)
        if hop is None:
            raise self._no_route(src, dst)
        return hop

    def path_nodes(self, src: int, dst: int) -> List[int]:
        """Node sequence (inclusive) of the route, as a shared memoised list.

        For per-request hot paths that only iterate: the caller must
        treat the result as read-only (it is shared with the cache).
        """
        self._table(src)
        path = self._path_cache.get((src, dst))
        if path is None:
            path = [src]
            node = src
            while node != dst:
                node = self._table(node)[0].get(dst)
                if node is None:
                    raise self._no_route(src, dst)
                path.append(node)
            self._path_cache[(src, dst)] = path
        return path

    def shortest_path(self, src: int, dst: int) -> List[int]:
        """Node sequence (inclusive) of the route, as a fresh list."""
        return list(self.path_nodes(src, dst))

    def route_shape(self, src: int, dst: int) -> Tuple[int, int]:
        """(link count, router nodes crossed) of the route.

        One route lookup answers both questions; hot paths should prefer
        this over separate ``hop_count`` / ``router_crossings`` calls.
        """
        if src == dst:
            return 0, 0
        path = self.path_nodes(src, dst)
        routers = set(self.router_nodes)
        return len(path) - 1, sum(1 for node in path[1:-1] if node in routers)

    def router_crossings(self, src: int, dst: int) -> int:
        """Number of router nodes crossed on the route."""
        return self.route_shape(src, dst)[1]

    def is_connected(self) -> bool:
        return nx.is_connected(self.graph) if self.graph.number_of_nodes() else True

    def diameter(self) -> int:
        if self.graph.number_of_nodes() <= 1:
            return 0
        return nx.diameter(self.graph)

    def validate(self) -> None:
        """Raise if the topology is unusable (disconnected or empty)."""
        if self.graph.number_of_nodes() == 0:
            raise ValueError(f"topology {self.name!r} has no nodes")
        if not self.is_connected():
            raise ValueError(f"topology {self.name!r} is disconnected")


def build_direct_pair(node_a: int = 0, node_b: int = 1) -> Topology:
    """Two nodes joined by a single optical link (Section 4.2 setup)."""
    topo = Topology(name="direct_pair")
    topo.graph.add_edge(node_a, node_b)
    return topo


def build_star(num_nodes: int, router_id: Optional[int] = None) -> Topology:
    """Nodes connected through one central external router (Figure 6)."""
    if num_nodes < 2:
        raise ValueError("a star topology needs at least two compute nodes")
    router = router_id if router_id is not None else num_nodes
    topo = Topology(name="star")
    for node in range(num_nodes):
        topo.graph.add_edge(node, router)
    topo.router_nodes.append(router)
    return topo


def build_mesh3d(dims: Tuple[int, int, int] = (2, 2, 2)) -> Topology:
    """3D mesh of ``dims`` nodes (the prototype uses a 2x2x2 mesh)."""
    x_dim, y_dim, z_dim = dims
    if min(dims) < 1:
        raise ValueError(f"mesh dimensions must be positive, got {dims}")
    topo = Topology(name=f"mesh3d_{x_dim}x{y_dim}x{z_dim}")

    def node_id(x: int, y: int, z: int) -> int:
        return x + y * x_dim + z * x_dim * y_dim

    for x, y, z in itertools.product(range(x_dim), range(y_dim), range(z_dim)):
        node = node_id(x, y, z)
        topo.graph.add_node(node)
        topo.coordinates[node] = (x, y, z)
        if x + 1 < x_dim:
            topo.graph.add_edge(node, node_id(x + 1, y, z))
        if y + 1 < y_dim:
            topo.graph.add_edge(node, node_id(x, y + 1, z))
        if z + 1 < z_dim:
            topo.graph.add_edge(node, node_id(x, y, z + 1))
    return topo


def build_fat_tree(num_nodes: int, leaf_radix: int = 4,
                   num_spines: int = 2) -> Topology:
    """Two-level multi-router fat-tree for N-node clusters.

    Compute nodes attach to leaf routers (``leaf_radix`` nodes per
    leaf); every leaf connects to every spine router, so any two nodes
    are at most four links apart: same-leaf pairs cross one router,
    cross-leaf pairs cross three (leaf, spine, leaf).  When all nodes
    fit under a single leaf no spine level is created.
    """
    if num_nodes < 2:
        raise ValueError("a fat-tree needs at least two compute nodes")
    if leaf_radix < 1:
        raise ValueError(f"leaf radix must be positive, got {leaf_radix}")
    if num_spines < 1:
        raise ValueError(f"spine count must be positive, got {num_spines}")
    num_leaves = -(-num_nodes // leaf_radix)
    topo = Topology(name=f"fat_tree_{num_nodes}n_{num_leaves}l")
    leaf_base = num_nodes
    for node in range(num_nodes):
        topo.graph.add_edge(node, leaf_base + node // leaf_radix)
    topo.router_nodes.extend(range(leaf_base, leaf_base + num_leaves))
    if num_leaves > 1:
        spine_base = leaf_base + num_leaves
        for spine in range(spine_base, spine_base + num_spines):
            topo.router_nodes.append(spine)
            for leaf in range(leaf_base, leaf_base + num_leaves):
                topo.graph.add_edge(leaf, spine)
    return topo


def dimension_order_route(topo: Topology, src: int, dst: int) -> List[int]:
    """The topology's route from src to dst as a fresh node list.

    X-then-Y-then-Z on a mesh with coordinates; the breadth-first route
    of :class:`Topology` elsewhere.
    """
    if src == dst:
        return [src]
    return topo.shortest_path(src, dst)
