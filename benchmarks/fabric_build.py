"""Host time to build a fat-tree cluster's event fabric.

Times ``Cluster(ClusterConfig(num_nodes=N, topology="fat_tree",
transport_backend="event")).event_transport()`` -- switches, links,
datalinks and every routing table -- for each fleet size, in a fresh
interpreter per measurement so one size's tables never warm the next.
Given several source trees (``--tree``), the trees run interleaved and
their order flips each round, so host drift and throttling fall on
both sides alike; each cell keeps the best of ``--rounds``.

    PYTHONPATH=src python benchmarks/fabric_build.py \\
        --tree ../parent/src --tree src --sizes 64 256 512 1024

Prints one JSON object: ``{tree: {N: best seconds}}`` plus the host's
CPU count.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Dict, List

_MEASURE = """
import time
from repro.cluster.cluster import Cluster, ClusterConfig
cluster = Cluster(ClusterConfig(num_nodes={n}, topology="fat_tree",
                                transport_backend="event"))
start = time.perf_counter()
cluster.event_transport()
print(time.perf_counter() - start)
"""


def build_seconds(tree: str, num_nodes: int) -> float:
    """One fabric build of ``num_nodes`` from the package under ``tree``."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(tree))
    out = subprocess.run([sys.executable, "-c", _MEASURE.format(n=num_nodes)],
                         env=env, check=True, capture_output=True, text=True)
    return float(out.stdout.strip().splitlines()[-1])


def measure(trees: List[str], sizes: List[int],
            rounds: int) -> Dict[str, Dict[int, float]]:
    best: Dict[str, Dict[int, float]] = {tree: {} for tree in trees}
    for round_index in range(rounds):
        order = trees if round_index % 2 == 0 else list(reversed(trees))
        for num_nodes in sizes:
            for tree in order:
                seconds = build_seconds(tree, num_nodes)
                previous = best[tree].get(num_nodes)
                if previous is None or seconds < previous:
                    best[tree][num_nodes] = seconds
    return best


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", action="append", default=None,
                        help="source directory holding the repro package "
                             "(repeat to interleave trees; default: src)")
    parser.add_argument("--sizes", type=int, nargs="+",
                        default=[64, 256, 512, 1024])
    parser.add_argument("--rounds", type=int, default=3)
    args = parser.parse_args(argv)
    trees = args.tree or ["src"]
    best = measure(trees, args.sizes, args.rounds)
    print(json.dumps({
        "nproc": os.cpu_count(),
        "rounds": args.rounds,
        "build_s": {tree: {str(n): round(s, 4) for n, s in sorted(cells.items())}
                    for tree, cells in best.items()},
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
