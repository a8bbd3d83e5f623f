#!/usr/bin/env python3
"""Print one SHA-256 over the enclosing subgraphs extracted on a workload's graph.

Builds the graph of one perfbench workload with perfbench/gen.py: the training
graph for train-mild, the test graph for the eval workloads.  It then extracts,
in this order, the enclosing subgraph of every test target, every validation
target and the first 300 graph triples, each followed by NEGATIVES seeded
negatives (`trainlab.sample_negative`, which keeps one end of the triple, as a
rank query keeps its fixed entity):

    python3 scripts/extraction_digest.py --workload rank-skewed --hops 2

The digest covers every extraction's triples, source indexes and levels, in
extraction order.  Two checkouts that print the same line extract the same
subgraphs, so an extraction refactor can be checked against its parent by
running this script in both.  The program is imported from this checkout's src/.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import numpy as np  # noqa: E402

import gen  # noqa: E402
import spec  # noqa: E402
from rmpi import kgstore, subgraph, trainlab  # noqa: E402
from rmpi.cli import _count  # noqa: E402

GRAPH_TRIPLES = 300  # graph triples extracted, from the first
NEGATIVES = 4  # seeded negatives per extracted triple
NEGATIVE_SEED = 0


def targets(bench: kgstore.Benchmark, graph: kgstore.KnowledgeGraph) -> list:
    """The triples to extract, in order: each listed triple, then its negatives."""
    rng = np.random.default_rng(NEGATIVE_SEED)
    out = []
    for t in list(bench.test) + list(bench.valid) + graph.triples[:GRAPH_TRIPLES]:
        out.append(kgstore.Triple(*t))
        out.extend(trainlab.sample_negative(t, graph, rng) for _ in range(NEGATIVES))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(spec.WORKLOADS), required=True)
    parser.add_argument("--hops", type=_count, required=True)
    args = parser.parse_args(argv)

    w = spec.WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory() as tmp:
        gen.generate(tmp, seed=spec.GRAPH_SEED, **w["gen"])
        bench = kgstore.load_benchmark(tmp)
    graph = bench.train if w["kind"] == "train" else bench.test_graph
    digest = hashlib.sha256()
    todo = targets(bench, graph)
    for t in todo:
        sub = subgraph.extract_enclosing(graph, t, args.hops)
        record = (tuple(map(tuple, sub.triples)), sub.source_indexes, sub.levels)
        digest.update(repr(record).encode("ascii") + b"\n")
    print(f"extraction_digest: {args.workload} K={args.hops}: {len(todo)} subgraphs, "
          f"sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
