#!/usr/bin/env python3
"""Train on a generated skewed graph for a few steps: step time, edges and memory.

Generates a training graph with perfbench/gen.py (entities, triples and the
skew `a` of its rank^-a endpoint law, NUM_RELATIONS relations) and runs the
first N steps of `trainlab.train` on it (batch BATCH, seed SEED, d=32, edge
dropout 0.5, one negative), then stops:

    python3 scripts/train_probe.py [--hops 2] [--variant base] [--steps 60]

The defaults are classify-hub's training graph (2500 entities, 3500 triples,
a=0.8) and its base model at K=2.  The paper-like setting, a graph of the
order of the largest inductive splits the paper trains on (4,700 entities,
34,000 triples, a=0.5; 14 relations, as the generator always draws), with
the ne-ta model:

    python3 scripts/train_probe.py --entities 4700 --triples 34000 --skew 0.5 \
        --variant ne-ta

It prints four lines:

- the CPU seconds of `SampleCache.precompute` of the positives in the
  training run (validation precomputes its triples too, later), the
  K-hop balls it walked and those it found in the graph's memo
  (kgstore.khop_ball), and the memory the cache retains after it, from
  tracemalloc over a second, untimed precompute (K-hop memo cleared, after
  a full collection);
- the median CPU ms and wall ms of a step, from one step's end to the next
  (the first from the end of precompute; validation, if a run reaches it,
  excluded); CPU time past the wall time is other threads', such as OpenBLAS
  workers';
- the layer-1 relation-view edges of each step's batch, p50 and max;
- the process's peak RSS after the steps, and its RSS as each step's
  forward begins, when no earlier step should hold memory: p50 and max.

The program is imported from this checkout's src/.
"""

from __future__ import annotations

import argparse
import gc
import math
import resource
import statistics
import sys
import tempfile
import time
import tracemalloc

import digest  # puts this checkout's src/ and perfbench/ on sys.path

import gen  # noqa: E402
import spec  # noqa: E402
from rmpi import kgstore, rmpnet, trainlab  # noqa: E402
from rmpi.cli import _count, _hops, _number  # noqa: E402
from rmpi.rmpnet import VARIANTS  # noqa: E402

BATCH = 16
SEED = 1  # the training seed and the seed of the graph's names, as perfbench's --seed 1
HUB = spec.WORKLOADS["classify-hub"]["gen"]


class _Done(Exception):
    """Raised after the last probed step's update, to leave training."""


def _skew(text: str) -> float:
    """An argparse type: a finite number >= 0."""
    value = _number(text)
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {value}")
    return value


def rss_mb() -> float:
    """The process's resident set now, in MB."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0  # kB
    raise RuntimeError("no VmRSS line in /proc/self/status")


def retained_mib(graph, config, positives) -> float:
    """MiB a SampleCache holds after precomputing the positives, traced."""
    def settle():
        graph.khop_memo.clear()
        graph.khop_memo_entries = 0
        gc.collect()

    settle()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        cache = trainlab.SampleCache(graph, config)
        cache.precompute(positives)
        settle()
        return (tracemalloc.get_traced_memory()[0] - before) / 2**20
    finally:
        tracemalloc.stop()


def probe(bench: kgstore.Benchmark, config: trainlab.TrainConfig, steps: int) -> dict:
    """Run the first `steps` steps of training; what the probe prints."""
    out = {"step_ms": [], "wall_ms": [], "edges": [], "rss": []}
    clock = {"last": None}  # (CPU, wall) seconds as the last step ended

    def now():
        return time.process_time(), time.perf_counter()
    inner = {
        "precompute": trainlab.SampleCache.precompute,
        "adam_step": trainlab.adam_step,
        "score_triples": trainlab.score_triples,
        "score_sample": trainlab.score_sample,
        "propagate": rmpnet.propagate,
    }

    def precompute(cache, triples):  # the first call, the positives', is reported
        graph = cache.graph
        walks, hits = graph.khop_walks, graph.khop_hits
        start = time.process_time()
        inner["precompute"](cache, triples)
        clock["last"] = now()
        out.setdefault("precompute_s", clock["last"][0] - start)
        out.setdefault("khop", (graph.khop_walks - walks, graph.khop_hits - hits))

    def adam_step(*args, **kwargs):
        result = inner["adam_step"](*args, **kwargs)
        last, clock["last"] = clock["last"], now()
        out["step_ms"].append(1000.0 * (clock["last"][0] - last[0]))
        out["wall_ms"].append(1000.0 * (clock["last"][1] - last[1]))
        if len(out["step_ms"]) == steps:
            raise _Done
        return result

    def score_triples(*args, **kwargs):
        result = inner["score_triples"](*args, **kwargs)
        clock["last"] = now()  # validation is no step's time
        return result

    def score_sample(*args, training=False, **kwargs):
        if training:
            out["rss"].append(rss_mb())
        return inner["score_sample"](*args, training=training, **kwargs)

    def propagate(batch, *args, **kwargs):
        if batch.training:
            out["edges"].append(len(batch.layer_edges[0]))
        return inner["propagate"](batch, *args, **kwargs)

    wrapped = {"precompute": precompute, "adam_step": adam_step,
               "score_triples": score_triples, "score_sample": score_sample,
               "propagate": propagate}
    owners = {"precompute": trainlab.SampleCache, "propagate": rmpnet}
    for name, fn in wrapped.items():
        setattr(owners.get(name, trainlab), name, fn)
    try:
        trainlab.train(bench, config)
    except _Done:
        pass
    finally:
        for name, fn in inner.items():
            setattr(owners.get(name, trainlab), name, fn)
    out["peak_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--entities", type=_count, default=HUB["entities"])
    parser.add_argument("--triples", type=_count, default=HUB["triples"])
    parser.add_argument("--skew", type=_skew, default=HUB["a"],
                        help="the generator's a: endpoints drawn with probability ~ rank^-a")
    parser.add_argument("--hops", type=_hops, default=2)
    parser.add_argument("--variant", choices=sorted(VARIANTS), default="base")
    parser.add_argument("--steps", type=_count, default=60, help="training steps to run")
    args = parser.parse_args(argv)
    if args.entities < 2:
        parser.error(f"argument --entities: must be >= 2, got {args.entities}")

    with tempfile.TemporaryDirectory() as tmp:
        gen.generate(tmp, entities=args.entities, triples=args.triples, a=args.skew,
                     seed=spec.GRAPH_SEED, valid=HUB["valid"], test=HUB["test"], labels=SEED)
        bench = kgstore.load_benchmark(tmp)
    model = rmpnet.variant_config(args.variant, hops=args.hops)
    per_epoch = -(-len(bench.train.triples) // BATCH)
    epochs = -(-args.steps // per_epoch)
    config = trainlab.TrainConfig(model=model, batch_size=BATCH, seed=SEED,
                                  epochs=epochs, patience=epochs)
    out = probe(bench, config, args.steps)
    cache_mib = retained_mib(bench.train, model, list(bench.train.triples))

    head = (f"train_probe: {args.variant} K={args.hops}, {args.entities} entities, "
            f"{len(bench.train.triples)} triples, a={args.skew:g}")
    edges = out["edges"]
    print(f"{head}: precompute {out['precompute_s']:.2f} CPU s, "
          f"{out['khop'][0]} K-hop walks and {out['khop'][1]} memo hits, "
          f"cache retains {cache_mib:.2f} MiB")
    print(f"{head}: {len(out['step_ms'])} steps of batch {BATCH}, "
          f"median {statistics.median(out['step_ms']):.1f} CPU ms and "
          f"{statistics.median(out['wall_ms']):.1f} wall ms a step")
    print(f"{head}: layer-1 edges a step p50 {statistics.median_low(edges)}, max {max(edges)}")
    print(f"{head}: peak RSS {out['peak_mb']:.1f} MB, RSS as a step begins "
          f"p50 {statistics.median(out['rss']):.1f} MB, max {max(out['rss']):.1f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
