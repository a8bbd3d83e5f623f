#!/usr/bin/env python3
"""Print 44 SHA-256 lines that show whether two checkouts extract, train, score and rank alike.

    python3 scripts/digest.py

Copy this script into a parent checkout, run it in both and diff the
output: the same lines mean the same subgraphs, relation views, training
runs, scores and ranks, bit for bit.  It takes no arguments, builds each of
perfbench's workload graphs once with perfbench/gen.py, and imports the
program from this checkout's src/.  The lines, in order:

- `extraction_digest`, two each for train-mild (its training graph),
  rank-skewed and classify-hub (their test graphs) at K = 1, 2 and 3, over
  the enclosing subgraphs of every test target, every validation target and
  the first GRAPH_TRIPLES graph triples, each followed by NEGATIVES seeded
  negatives (`trainlab.sample_negative`, which keeps one end of the triple,
  as a rank query keeps its fixed entity).  The first hashes their triples,
  the graph's indices of their graph triples and the levels of those
  (`trainlab.build_sample`'s); the second their relation views' shapes and
  int32 (src, type, dst) rows (`subgraph.to_relation_view`, as
  `rmpi dump-subgraph` builds them).
- `training_digest`, base and ne-ta, trained for EPOCHS epochs at seed
  TRAINING_SEED as train-mild trains (K=2, d=32, edge dropout 0.5, batch
  16): the per-epoch losses and validation AUC-PRs, the best epoch and a
  hash of the kept parameters.
- `score_digest`, rank-skewed and classify-hub at K = 1, 2 and 3, base and
  ne-ta: a hash of the float64 scores that a seeded, never-trained
  `checkpoint` gives every test target and a seeded negative of each on the
  test graph, first one triple at a time, then stacked into batches by one
  `trainlab.score_triples` call.
- `rank_digest`, rank-skewed (every test query) and classify-hub (the first
  RANK_QUERIES), at K = 1, 2 and 3, base and ne-ta: a hash of the ranks, the
  candidate counts and the float64 scores of every query's triples that
  `evalbench.rank_queries` gives on both sides with the same `checkpoint`,
  each query's triples sharing its fixed entity.
"""

from __future__ import annotations

import functools
import hashlib
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import numpy as np  # noqa: E402

import gen  # noqa: E402
import spec  # noqa: E402
from rmpi import evalbench, kgstore, rmpnet, subgraph, trainlab  # noqa: E402

GRAPH_TRIPLES = 300  # graph triples extracted, from the first
NEGATIVES = 4  # seeded negatives per extracted triple
NEGATIVE_SEED = 0
TRAINING_SEED = 3  # the training seed, and the seed of the graph's labels
EPOCHS = 2
SCORING_SEED = 1  # the names and parameters perfbench draws with --seed 1
RANK_QUERIES = 10  # classify-hub's test queries ranked, from the first


@functools.cache
def benchmark(workload: str, labels: int | None = None) -> kgstore.Benchmark:
    """The workload's generated benchmark, its names drawn with `labels`
    (default: the graph seed)."""
    with tempfile.TemporaryDirectory() as tmp:
        gen.generate(tmp, seed=spec.GRAPH_SEED, labels=labels, **spec.WORKLOADS[workload]["gen"])
        return kgstore.load_benchmark(tmp)


def checkpoint(bench: kgstore.Benchmark, hops: int, variant: str) -> trainlab.Checkpoint:
    """A never-trained checkpoint of the variant at depth `hops`, seeded
    with SCORING_SEED, over the benchmark's relations."""
    config = rmpnet.variant_config(variant, hops=hops, dim=32)
    vocab = bench.vocab
    return trainlab.Checkpoint(
        config=config,
        params=rmpnet.init_params(config, vocab.num_relations,
                                  np.random.default_rng([SCORING_SEED, 7])),
        vocab_digest=vocab.digest(),
        relation_names=tuple(vocab.relation_names),
        seen_flags=tuple(vocab.relation_seen(r) for r in range(vocab.num_relations)),
    )


def extraction_lines(workload: str, hops: int) -> list[str]:
    bench = benchmark(workload)
    graph = bench.train if spec.WORKLOADS[workload]["kind"] == "train" else bench.test_graph
    rng = np.random.default_rng(NEGATIVE_SEED)
    todo = []  # each listed triple, then its negatives
    for t in list(bench.test) + list(bench.valid) + graph.triples[:GRAPH_TRIPLES]:
        todo.append(kgstore.Triple(*t))
        todo.extend(trainlab.sample_negative(t, graph, rng) for _ in range(NEGATIVES))
    digest, views = hashlib.sha256(), hashlib.sha256()
    edges = 0
    config = rmpnet.ModelConfig(hops=hops)
    for t in todo:
        sub = subgraph.extract_enclosing(graph, t, hops)
        levels = trainlab.build_sample(graph, t, config).levels
        record = (tuple(map(tuple, sub.triples)), tuple(sub.indexes.tolist()),
                  tuple(levels.tolist()))
        digest.update(repr(record).encode("ascii") + b"\n")
        view = subgraph.to_relation_view(sub).edges
        views.update(repr(view.shape).encode("ascii") + view.astype("<i4").tobytes())
        edges += len(view)
    return [f"extraction_digest: {workload} K={hops}: {len(todo)} subgraphs, "
            f"sha256 {digest.hexdigest()}",
            f"extraction_digest: {workload} K={hops}: {edges} relation-view edges, "
            f"sha256 {views.hexdigest()}"]


def params_digest(params: dict) -> str:
    """SHA-256 over every parameter's name, shape and float64 bytes, by name."""
    digest = hashlib.sha256()
    for name in sorted(params):
        value = params[name]
        digest.update(f"{name} {value.shape}\n".encode("ascii"))
        digest.update(value.astype("<f8").tobytes())
    return digest.hexdigest()


def training_line(variant: str) -> str:
    model = rmpnet.variant_config(variant, hops=2, dim=32, edge_dropout=0.5)
    config = trainlab.TrainConfig(model=model, batch_size=16, seed=TRAINING_SEED, epochs=EPOCHS)
    ckpt = trainlab.train(benchmark("train-mild", TRAINING_SEED), config)
    return (f"training_digest: {variant}: train loss {ckpt.history['train_loss']!r}, "
            f"val auc-pr {ckpt.history['val_auc']!r}, best epoch {ckpt.best_epoch}, "
            f"params sha256 {params_digest(ckpt.params)}")


def score_line(workload: str, hops: int, variant: str) -> str:
    bench = benchmark(workload, SCORING_SEED)
    ckpt = checkpoint(bench, hops, variant)
    graph = bench.test_graph
    rng = np.random.default_rng(NEGATIVE_SEED)
    triples = []
    for t in bench.test:
        triples += [kgstore.Triple(*t), trainlab.sample_negative(t, graph, rng)]
    cache = trainlab.SampleCache(graph, ckpt.config)
    lookup = trainlab.relation_lookup(ckpt, graph.vocab)

    def scores(of):
        return trainlab.score_triples(ckpt.params, ckpt.config, cache, of, lookup, None,
                                      spec.EVAL_SEED)

    alone = np.concatenate([scores([t]) for t in triples])
    stacked = scores(triples)
    digest = hashlib.sha256(alone.astype("<f8").tobytes() + stacked.astype("<f8").tobytes())
    return (f"score_digest: {workload} {variant} K={hops}: {len(triples)} triples, "
            f"sha256 {digest.hexdigest()}")


def rank_line(workload: str, hops: int, variant: str) -> str:
    bench = benchmark(workload, SCORING_SEED)
    ckpt = checkpoint(bench, hops, variant)
    queries = bench.test if workload == "rank-skewed" else bench.test[:RANK_QUERIES]
    scored = []
    inner = evalbench.score_triples

    def kept(*args, **kwargs):
        scores = inner(*args, **kwargs)
        scored.append(scores)
        return scores

    evalbench.score_triples = kept
    try:
        result = evalbench.rank_queries(ckpt, bench.test_graph, queries, seed=spec.EVAL_SEED)
    finally:
        evalbench.score_triples = inner
    record = repr((result.ranks, result.candidate_counts)).encode("ascii")
    digest = hashlib.sha256(record + np.concatenate(scored).astype("<f8").tobytes())
    return (f"rank_digest: {workload} {variant} K={hops}: {len(result.ranks)} ranks, "
            f"sha256 {digest.hexdigest()}")


def main() -> int:
    for workload in ("train-mild", "rank-skewed", "classify-hub"):
        for hops in (1, 2, 3):
            print(*extraction_lines(workload, hops), sep="\n")
    for variant in ("base", "ne-ta"):
        print(training_line(variant))
    for workload in ("rank-skewed", "classify-hub"):
        for hops in (1, 2, 3):
            for variant in ("base", "ne-ta"):
                print(score_line(workload, hops, variant))
    for workload in ("rank-skewed", "classify-hub"):
        for hops in (1, 2, 3):
            for variant in ("base", "ne-ta"):
                print(rank_line(workload, hops, variant))
    return 0


if __name__ == "__main__":
    if sys.argv[1:]:
        sys.exit("usage: python3 scripts/digest.py (it takes no arguments)")
    sys.exit(main())
