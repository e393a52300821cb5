"""Unit tests for topology builders and routing helpers."""

import itertools

import networkx as nx
import pytest

from repro.fabric.topology import (
    Topology,
    build_direct_pair,
    build_fat_tree,
    build_mesh3d,
    build_star,
    dimension_order_route,
)


def test_direct_pair_has_one_link():
    topo = build_direct_pair()
    assert topo.nodes == [0, 1]
    assert topo.links == [(0, 1)]
    assert topo.hop_count(0, 1) == 1
    assert topo.diameter() == 1


def test_mesh3d_2x2x2_shape():
    topo = build_mesh3d((2, 2, 2))
    assert len(topo.nodes) == 8
    # Each node in a 2x2x2 mesh has exactly 3 neighbours.
    assert all(len(topo.neighbors(node)) == 3 for node in topo.nodes)
    assert len(topo.links) == 12
    assert topo.diameter() == 3


def test_mesh3d_hop_counts_follow_manhattan_distance():
    topo = build_mesh3d((2, 2, 2))
    # Node 0 = (0,0,0), node 7 = (1,1,1).
    assert topo.hop_count(0, 7) == 3
    assert topo.hop_count(0, 1) == 1
    assert topo.hop_count(0, 0) == 0


def test_mesh3d_larger_dimensions():
    topo = build_mesh3d((3, 2, 1))
    assert len(topo.nodes) == 6
    assert topo.is_connected()


def test_mesh3d_rejects_zero_dimension():
    with pytest.raises(ValueError):
        build_mesh3d((0, 2, 2))


def test_star_topology_routes_through_router():
    topo = build_star(4)
    assert len(topo.compute_nodes) == 4
    assert len(topo.router_nodes) == 1
    router = topo.router_nodes[0]
    assert topo.hop_count(0, 1) == 2
    assert topo.next_hop(0, 1) == router


def test_star_requires_two_nodes():
    with pytest.raises(ValueError):
        build_star(1)


def test_fat_tree_two_levels():
    topo = build_fat_tree(16, leaf_radix=4, num_spines=2)
    topo.validate()
    assert topo.compute_nodes == list(range(16))
    # Four leaves plus two spines.
    assert len(topo.router_nodes) == 6
    # Same-leaf pairs: two links, one router crossed.
    assert topo.hop_count(0, 1) == 2
    assert topo.router_crossings(0, 1) == 1
    # Cross-leaf pairs: four links through leaf -> spine -> leaf.
    assert topo.hop_count(0, 15) == 4
    assert topo.router_crossings(0, 15) == 3
    assert topo.router_crossings(0, 0) == 0


def test_fat_tree_single_leaf_has_no_spines():
    topo = build_fat_tree(3, leaf_radix=4)
    topo.validate()
    assert len(topo.router_nodes) == 1
    assert topo.hop_count(0, 2) == 2
    assert topo.diameter() == 2


def test_fat_tree_rejects_degenerate_shapes():
    with pytest.raises(ValueError):
        build_fat_tree(1)
    with pytest.raises(ValueError):
        build_fat_tree(8, leaf_radix=0)
    with pytest.raises(ValueError):
        build_fat_tree(8, num_spines=0)


def test_router_crossings_on_star():
    topo = build_star(4)
    assert topo.router_crossings(0, 1) == 1
    assert topo.router_crossings(0, 0) == 0


def test_next_hop_on_mesh():
    topo = build_mesh3d((2, 2, 2))
    path = topo.shortest_path(0, 7)
    assert path[0] == 0 and path[-1] == 7
    assert topo.next_hop(0, 7) == path[1]
    with pytest.raises(ValueError):
        topo.next_hop(3, 3)


def test_dimension_order_route_is_x_then_y_then_z():
    topo = build_mesh3d((2, 2, 2))
    route = dimension_order_route(topo, 0, 7)
    # 0=(0,0,0) -> 1=(1,0,0) -> 3=(1,1,0) -> 7=(1,1,1)
    assert route == [0, 1, 3, 7]


def test_dimension_order_route_trivial_and_fallback():
    topo = build_mesh3d((2, 2, 2))
    assert dimension_order_route(topo, 4, 4) == [4]
    star = build_star(3)
    assert dimension_order_route(star, 0, 1) == star.shortest_path(0, 1)


def test_validate_rejects_empty_and_disconnected():
    empty = Topology(name="empty")
    with pytest.raises(ValueError):
        empty.validate()
    disconnected = Topology(name="split")
    disconnected.graph.add_edge(0, 1)
    disconnected.graph.add_node(2)
    with pytest.raises(ValueError):
        disconnected.validate()


# ----------------------------------------------------------------------
# Route table: one breadth-first search per source
# ----------------------------------------------------------------------
def _breadth_first_shapes():
    yield build_direct_pair()
    yield build_direct_pair(5, 9)
    for size in (2, 3, 8):
        yield build_star(size)
    # Full and partial last leaves, one to four spines.
    for num_nodes, radix, spines in itertools.product(
            (5, 10, 16, 17), (3, 4), (1, 2, 3, 4)):
        yield build_fat_tree(num_nodes, leaf_radix=radix, num_spines=spines)


@pytest.mark.parametrize("topo", list(_breadth_first_shapes()),
                         ids=lambda topo: f"{topo.name}-{len(topo.nodes)}")
def test_every_route_equals_networkx_shortest_path(topo):
    for src, dst in itertools.product(topo.nodes, repeat=2):
        expected = nx.shortest_path(topo.graph, src, dst)
        assert topo.shortest_path(src, dst) == expected
        assert topo.path_nodes(src, dst) == expected
        assert dimension_order_route(topo, src, dst) == expected
        assert topo.hop_count(src, dst) == len(expected) - 1
        assert topo.hop_map(src)[dst] == len(expected) - 1
        if src != dst:
            assert topo.next_hop(src, dst) == expected[1]
            assert topo.next_hops(src)[dst] == expected[1]


def _reference_dimension_order(topo, src, dst):
    """X-then-Y-then-Z walk over the mesh coordinates."""
    coord_to_node = {coord: node for node, coord in topo.coordinates.items()}
    current = list(topo.coordinates[src])
    target = topo.coordinates[dst]
    path = [src]
    for axis in range(3):
        while current[axis] != target[axis]:
            current[axis] += 1 if target[axis] > current[axis] else -1
            path.append(coord_to_node[tuple(current)])
    return path


@pytest.mark.parametrize("dims", [(2, 2, 2), (3, 2, 2), (4, 3, 1), (1, 1, 5)])
def test_mesh_routes_are_dimension_order(dims):
    topo = build_mesh3d(dims)
    for src, dst in itertools.product(topo.nodes, repeat=2):
        route = _reference_dimension_order(topo, src, dst)
        assert topo.path_nodes(src, dst) == route
        assert topo.shortest_path(src, dst) == route
        assert topo.hop_count(src, dst) == nx.shortest_path_length(
            topo.graph, src, dst)
        assert topo.route_shape(src, dst) == (len(route) - 1, 0)


def test_mesh_path_queries_follow_the_fabric_not_networkx():
    # networkx goes 0 -> 2 -> 3; the fabric's X-first route is 0 -> 1 -> 3.
    topo = build_mesh3d((2, 2, 2))
    assert nx.shortest_path(topo.graph, 0, 3) == [0, 2, 3]
    assert topo.path_nodes(0, 3) == [0, 1, 3]
    assert topo.next_hop(0, 3) == 1


def test_shortest_path_returns_a_private_copy():
    topo = build_fat_tree(8, leaf_radix=4)
    path = topo.shortest_path(0, 7)
    path.append(99)
    assert topo.shortest_path(0, 7) == [0, 8, 10, 9, 7]


def test_missing_nodes_raise_node_not_found():
    topo = build_fat_tree(8, leaf_radix=4)
    for query in (topo.shortest_path, topo.path_nodes, topo.hop_count,
                  topo.next_hop, topo.route_shape):
        with pytest.raises(nx.NodeNotFound):
            query(0, 99)
        with pytest.raises(nx.NodeNotFound):
            query(99, 0)
    with pytest.raises(nx.NodeNotFound):
        topo.shortest_path(99, 99)
    with pytest.raises(nx.NodeNotFound):
        topo.hop_map(99)


def test_disconnected_pairs_raise_no_path():
    topo = Topology(name="split")
    topo.graph.add_edge(0, 1)
    topo.graph.add_edge(2, 3)
    for query in (topo.shortest_path, topo.path_nodes, topo.hop_count,
                  topo.next_hop, topo.route_shape):
        with pytest.raises(nx.NetworkXNoPath):
            query(0, 3)
    assert topo.hop_count(0, 1) == 1


def test_route_tables_follow_graph_edits():
    topo = Topology(name="line")
    topo.graph.add_edge(0, 1)
    topo.graph.add_edge(1, 2)
    assert topo.path_nodes(0, 2) == [0, 1, 2]
    # A new node changes the node-count stamp: tables are rebuilt.
    topo.graph.add_edge(2, 3)
    assert topo.hop_count(0, 3) == 3
    # An edge between existing nodes needs an explicit invalidation.
    topo.graph.add_edge(0, 3)
    assert topo.hop_count(0, 3) == 3
    topo.invalidate_path_cache()
    assert topo.hop_count(0, 3) == 1
    assert topo.path_nodes(0, 3) == [0, 3]
