"""Routing tables installed by both fabric builders.

``build_event_fabric`` and ``build_partitioned_fabric`` program every
switch from the topology's route table.  The reference below is the
per-link loop they used before: for every directed link ``src -> dst``
it asks networkx (or the mesh's dimension-order walk) for the route to
every compute node and installs the link's port where the route leaves
``src`` towards ``dst``.  Both builders must install exactly the same
tables, entry for entry, with the same table version.
"""

import networkx as nx
import pytest

from repro.core.config import VeniceConfig
from repro.core.system import VeniceSystem
from repro.fabric.topology import (
    build_direct_pair,
    build_fat_tree,
    build_mesh3d,
    build_star,
)
from repro.sim.partition import build_partitioned_fabric, plan_leaf_partitions


def _reference_route(topo, src, dst):
    if src not in topo.coordinates or dst not in topo.coordinates:
        return nx.shortest_path(topo.graph, src, dst)
    coord_to_node = {coord: node for node, coord in topo.coordinates.items()}
    current = list(topo.coordinates[src])
    target = topo.coordinates[dst]
    path = [src]
    for axis in range(3):
        while current[axis] != target[axis]:
            current[axis] += 1 if target[axis] > current[axis] else -1
            path.append(coord_to_node[tuple(current)])
    return path


def _reference_tables(topo):
    """{switch: {destination: port}} and install counts, per-link loop."""
    tables = {node: {} for node in topo.nodes}
    installs = {node: 0 for node in topo.nodes}
    port_counters = {node: 1 for node in topo.nodes}
    for node_a, node_b in topo.links:
        for src, dst in ((node_a, node_b), (node_b, node_a)):
            port = port_counters[src]
            port_counters[src] += 1
            for destination in topo.compute_nodes:
                if destination == src:
                    continue
                route = _reference_route(topo, src, destination)
                if len(route) > 1 and route[1] == dst:
                    tables[src][destination] = port
                    installs[src] += 1
    return tables, installs


def _installed(switches):
    tables = {node: {entry.node_id: entry.out_port
                     for entry in switch.routing_table._entries.values()}
              for node, switch in switches.items()}
    versions = {node: switch.routing_table.version
                for node, switch in switches.items()}
    return tables, versions


def _configs():
    yield VeniceConfig(num_nodes=2, topology="direct_pair")
    yield VeniceConfig(num_nodes=6, topology="star")
    yield VeniceConfig(num_nodes=8, topology="mesh3d", mesh_dims=(2, 2, 2))
    yield VeniceConfig(num_nodes=12, topology="mesh3d", mesh_dims=(3, 2, 2))
    # A partial last leaf and one to three spines.
    for spines in (1, 2, 3):
        yield VeniceConfig(num_nodes=18, topology="fat_tree",
                           fat_tree_leaf_radix=4, fat_tree_spines=spines)


@pytest.mark.parametrize("config", list(_configs()),
                         ids=lambda config: f"{config.topology}-{config.num_nodes}")
def test_event_fabric_tables_match_the_per_link_reference(config):
    system = VeniceSystem.build(config, sanitize=False)
    fabric = system.build_event_fabric()
    tables, versions = _installed(fabric.switches)
    expected, installs = _reference_tables(system.topology)
    assert tables == expected
    assert versions == installs


@pytest.mark.parametrize("topo", [
    build_direct_pair(),
    build_star(5),
    build_mesh3d((2, 2, 2)),
    build_fat_tree(18, leaf_radix=4, num_spines=1),
    build_fat_tree(18, leaf_radix=4, num_spines=3),
], ids=lambda topo: topo.name)
def test_partitioned_fabric_tables_match_the_per_link_reference(topo):
    fabric = build_partitioned_fabric(VeniceConfig().fabric, topo,
                                      plan=plan_leaf_partitions(topo),
                                      sanitize=False)
    tables, versions = _installed(fabric.switches)
    expected, installs = _reference_tables(topo)
    assert tables == expected
    assert versions == installs
