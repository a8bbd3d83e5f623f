#!/usr/bin/env python3
"""Score the classify-hub graph, or rank on rank-skewed's, at a chosen depth: CPU triples/s and peak RSS.

Builds the graph of perfbench's classify-hub workload with perfbench/gen.py
and a seeded, never-trained checkpoint of the chosen variant and depth, as
scripts/digest.py builds them for its score lines.  It then scores the first
N test targets and one sampled negative each, as `rmpi eval --task classify`
does:

    python3 scripts/hub_probe.py --hops 3 --variant ne-ta [--targets 100] [--passes 7]

With --task rank it builds rank-skewed's graph instead and ranks the first N
test queries on both sides against 49 candidates each
(`evalbench.rank_queries`), as `rmpi eval --task rank` does, so that each
query's 50 triples share its fixed entity.

The first line gives the first pass and ends with the K-hop balls it walked
and those it found in the graph's memo (kgstore.khop_ball).  A second line
gives the incidence rows each layer summed, and all the rows of the scored
batches' Incidences, totalled over the batches of a second, untimed pass.  A
third gives the largest heap peak that tracemalloc traces in one scored
forward (`trainlab.score_sample`) above what was traced when it began, over
a third, untimed pass: unlike peak RSS, it resolves changes of a fraction of
a MB.  With --passes N above 1, N passes are timed one after another in this
process, and a line gives the median and quartiles of their CPU seconds: one
pass per process cannot resolve a change of 10%, since the same checkout's
single passes spread by more than that from run to run.  The last line gives
the CPU seconds the timed passes spent extracting, in `SampleCache.sample`
and `samples`, of all their CPU seconds, and the enclosing subgraphs a pass
built and how many of them took the array route (an intersection of at
least `subgraph.ARRAY_ROUTE_ENTITIES` entities), so that one run splits a
change's gain between extraction and the rest.  The program is imported
from this checkout's src/.
"""

from __future__ import annotations

import argparse
import contextlib
import resource
import sys
import time
import tracemalloc

import numpy as np

import digest  # puts this checkout's src/ and perfbench/ on sys.path

import spec  # noqa: E402
from rmpi import evalbench, rmpnet, subgraph, trainlab  # noqa: E402
from rmpi.cli import VARIANTS, _count, _hops  # noqa: E402


def summed_rows(run, hops: int) -> list[int]:
    """The incidence rows each layer sums, then all the rows, totalled over
    the batches of a second pass of `run`: counted outside the timed pass,
    whose peak RSS the counting would move."""
    summed = [0] * (hops + 1)
    incidences = rmpnet.scoring_incidences

    def counted(*batch):
        inc, order = incidences(*batch)
        for k, rows in enumerate(inc.layer_rows + (len(inc.rows),)):
            summed[k] += rows
        return inc, order

    rmpnet.scoring_incidences = counted
    try:
        run()
    finally:
        rmpnet.scoring_incidences = incidences
    return summed


def forward_peak(run) -> int:
    """The largest traced heap peak of one scored forward above what was
    traced when it began, in bytes, over a pass of `run`: traced outside
    the timed pass, whose time and peak RSS tracing would move."""
    peak = 0
    score_sample = trainlab.score_sample

    def traced(*args, **kwargs):
        nonlocal peak
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        out = score_sample(*args, **kwargs)
        peak = max(peak, tracemalloc.get_traced_memory()[1] - before)
        return out

    trainlab.score_sample = traced
    tracemalloc.start()
    try:
        run()
    finally:
        tracemalloc.stop()
        trainlab.score_sample = score_sample
    return peak


@contextlib.contextmanager
def extraction_clock():
    """Within the block, the CPU seconds spent in SampleCache.sample and
    samples, timed at the outermost call (samples serves a lone triple
    through sample), the enclosing subgraphs built, and how many of them the
    array route built."""
    out = {"seconds": 0.0, "built": 0, "array": 0}
    depth = 0
    cache = trainlab.SampleCache
    inner = (cache.sample, cache.samples, subgraph._enclosing, subgraph._array_enclosing)

    def clocked(fn):
        def wrapper(*args):
            nonlocal depth
            depth += 1
            start = time.process_time()
            try:
                return fn(*args)
            finally:
                depth -= 1
                if not depth:
                    out["seconds"] += time.process_time() - start
        return wrapper

    def counted(fn, key):
        def wrapper(*args):
            out[key] += 1
            return fn(*args)
        return wrapper

    cache.sample, cache.samples = clocked(inner[0]), clocked(inner[1])
    subgraph._enclosing = counted(inner[2], "built")
    subgraph._array_enclosing = counted(inner[3], "array")
    try:
        yield out
    finally:
        cache.sample, cache.samples, subgraph._enclosing, subgraph._array_enclosing = inner


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--hops", type=_hops, required=True)
    parser.add_argument("--variant", choices=sorted(VARIANTS), required=True)
    parser.add_argument("--targets", type=_count, default=None,
                        help="score the first N test targets (default: all)")
    parser.add_argument("--passes", type=_count, default=1,
                        help="time N passes in this process (default: 1)")
    parser.add_argument("--task", choices=("classify", "rank"), default="classify",
                        help="classify classify-hub's targets, or rank rank-skewed's "
                             "queries (default: classify)")
    args = parser.parse_args(argv)

    workload = "classify-hub" if args.task == "classify" else "rank-skewed"
    bench = digest.benchmark(workload, digest.SCORING_SEED)
    ckpt = digest.checkpoint(bench, args.hops, args.variant)
    targets = bench.test[: args.targets]
    graph = bench.test_graph
    if args.task == "classify":
        def run():
            return evalbench.classify(ckpt, graph, targets, seed=spec.EVAL_SEED)
    else:
        def run():
            return evalbench.rank_queries(ckpt, graph, targets, seed=spec.EVAL_SEED)
    walks, hits = graph.khop_walks, graph.khop_hits
    passes = []
    with extraction_clock() as extraction:
        for _ in range(args.passes):
            start = time.process_time()
            result = run()
            passes.append(time.process_time() - start)
            if len(passes) == 1:
                walks, hits = graph.khop_walks - walks, graph.khop_hits - hits
    seconds = passes[0]
    if args.task == "classify":
        scored, quality = len(result.scores), f"auc-pr {result.auc_pr:.4f}"
    else:
        scored, quality = len(result.ranks) + sum(result.candidate_counts), f"mrr {result.mrr:.4f}"
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux
    print(f"hub_probe: {args.variant} K={args.hops}: {scored} triples in {seconds:.2f} CPU s, "
          f"{scored / seconds:.1f} triples/s, peak RSS {peak_mb:.1f} MB, {quality}, "
          f"{walks} K-hop walks and {hits} memo hits")
    summed = summed_rows(run, args.hops)
    print(f"hub_probe: incidence rows summed by layers 1..{args.hops}: "
          f"{', '.join(map(str, summed[:-1]))} of {summed[-1]}")
    peak = forward_peak(run)
    print(f"hub_probe: largest traced peak of one scored forward: {peak / 2**20:.2f} MiB")
    if args.passes > 1:
        q1, median, q3 = np.percentile(passes, [25, 50, 75])
        print(f"hub_probe: {args.passes} passes: median {median:.4f} CPU s a pass, "
              f"quartiles {q1:.4f} to {q3:.4f}")
    print(f"hub_probe: {args.passes} timed passes: {extraction['seconds']:.4f} of "
          f"{sum(passes):.4f} CPU s in SampleCache.sample and samples; a pass built "
          f"{extraction['built'] // args.passes} enclosing subgraphs, "
          f"{extraction['array'] // args.passes} by the array route (intersections of at "
          f"least {subgraph.ARRAY_ROUTE_ENTITIES} entities)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
