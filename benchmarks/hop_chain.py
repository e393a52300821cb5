"""Engine events/sec of the fabric hop chain, source trees interleaved.

Runs the ``pair``, ``star``, ``fat_tree`` and ``closed_loop`` workloads
of ``benchmarks/harness.py`` -- bare PHY + datalink + switch fabrics,
where nearly every dispatched event is a hop-chain step -- at
``--scale`` times their default per-node budgets (the defaults finish
in well under 0.1 s, too short to time on a shared host), on both
dispatch cores, for each checkout given with ``--tree``, one fresh
interpreter per cell (each checkout's own harness and ``src``), each
run keeping the best of ``--repeats`` in-process repeats (the first
pass in a fresh interpreter pays warm-up).  The checkouts run interleaved and their order flips
each round, so host drift and throttling fall on every side alike; each
cell keeps the best of ``--rounds``.

    python benchmarks/hop_chain.py --tree ../parent --tree . \
        --rounds 3 --repeats 3 --scale 10

Prints one JSON object: ``{tree: {core: {workload: best events/sec}}}``
plus each cell's dispatched event count (equal across checkouts when the
change preserves the model) and the host's CPU count.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from typing import Dict, List, Tuple

#: The harness's default per-node budget of each workload (packets, or
#: round trips for closed_loop).
BUDGETS = {"pair": 1600, "star": 300, "fat_tree": 160, "closed_loop": 250}
CORES = ("py", "c")


def run_cell(tree: str, workload: str, core: str, repeats: int,
             scale: int) -> Tuple[float, int]:
    """One harness run; returns (events/sec, events)."""
    root = os.path.abspath(tree)
    with tempfile.TemporaryDirectory() as scratch:
        report_path = os.path.join(scratch, "report.json")
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        env.pop("SIM_SANITIZE", None)
        subprocess.run([sys.executable,
                        os.path.join(root, "benchmarks", "harness.py"),
                        "--workload", workload, "--core", core,
                        "--repeats", str(repeats),
                        "--packets-per-node", str(BUDGETS[workload] * scale),
                        "--json", report_path],
                       env=env, cwd=root, check=True, capture_output=True)
        with open(report_path) as handle:
            row = json.load(handle)["workloads"][workload]
    return row["events_per_sec"], row["events"]


def measure(trees: List[str], rounds: int, repeats: int,
            scale: int) -> Tuple[dict, dict]:
    best: Dict[str, Dict[str, Dict[str, float]]] = {
        tree: {core: {} for core in CORES} for tree in trees}
    events: Dict[str, Dict[str, Dict[str, int]]] = {
        tree: {core: {} for core in CORES} for tree in trees}
    for round_index in range(rounds):
        order = trees if round_index % 2 == 0 else list(reversed(trees))
        for core in CORES:
            for workload in BUDGETS:
                for tree in order:
                    rate, count = run_cell(tree, workload, core, repeats,
                                           scale)
                    cells = best[tree][core]
                    cells[workload] = max(rate, cells.get(workload, 0.0))
                    events[tree][core][workload] = count
    return best, events


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", action="append", default=None,
                        help="checkout root holding src/ and benchmarks/ "
                             "(repeat to interleave checkouts; default: .)")
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--scale", type=int, default=10)
    args = parser.parse_args(argv)
    trees = args.tree or ["."]
    best, events = measure(trees, args.rounds, args.repeats, args.scale)
    print(json.dumps({
        "nproc": os.cpu_count(),
        "rounds": args.rounds,
        "repeats": args.repeats,
        "scale": args.scale,
        "events_per_sec": {tree: {core: {name: round(rate, 1)
                                         for name, rate in cells.items()}
                                  for core, cells in per_core.items()}
                           for tree, per_core in best.items()},
        "events": events,
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
