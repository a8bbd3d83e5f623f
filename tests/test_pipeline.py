"""End-to-end learning evidence on small synthetic benchmarks.

The chain task is built so the right answer is readable from subgraph
structure alone: a true endpoint fact encloses its chain's two support
edges, while a corrupted one lands across chains and encloses nothing.
A model that learns anything useful separates the two cleanly.
"""

from __future__ import annotations

import numpy as np
import pytest

from rmpi.evalbench import classify, rank_queries
from rmpi.rmpnet import ModelConfig
from rmpi.trainlab import (
    SampleCache,
    TrainConfig,
    relation_lookup,
    resolve_schema_vectors,
    score_triples,
    train,
)

from synth import chain_benchmark

CHAIN_MODEL = ModelConfig(dim=8, hops=2, edge_dropout=0.0)


def chain_train_config(seed: int, epochs: int = 8) -> TrainConfig:
    return TrainConfig(
        model=CHAIN_MODEL,
        lr=0.01,
        batch_size=16,
        margin=2.0,
        epochs=epochs,
        patience=epochs,
        seed=seed,
    )


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_chain_task_classification_reaches_perfect_auc(seed):
    bench = chain_benchmark(seed=seed)
    ckpt = train(bench, chain_train_config(seed))
    losses = ckpt.history["train_loss"]
    assert losses[-1] < losses[0]
    # Negative draws fixed at seed 0 so every trained model faces the
    # same corrupted set.
    result = classify(ckpt, bench.test_graph, bench.test, seed=0)
    assert result.auc_pr >= 0.999


@pytest.mark.parametrize("seed", [0, 1])
def test_chain_task_ranking_puts_truth_first(seed):
    bench = chain_benchmark(seed=seed)
    ckpt = train(bench, chain_train_config(seed))
    result = rank_queries(ckpt, bench.test_graph, bench.test, num_neg=20, seed=seed)
    assert set(result.ranks) == {1}
    assert result.mrr == 1.0
    assert result.hits[1] == 1.0


def test_schema_vectors_carry_model_to_renamed_relations():
    # Two structurally identical benchmarks whose entity and relation
    # names share nothing.  With schema init the relation identity lives
    # in the ontology vectors, so handing the renamed relations the same
    # vectors must reproduce the scores exactly.
    bench_a = chain_benchmark(seed=0, entity_prefix="e", relation_names=("s0", "s1", "s2"))
    bench_b = chain_benchmark(seed=0, entity_prefix="f", relation_names=("u0", "u1", "u2"))
    base = [np.random.default_rng([77, i]).normal(size=300) for i in range(3)]
    vecs_a = {f"s{i}": base[i] for i in range(3)}
    vecs_b = {f"u{i}": base[i] for i in range(3)}

    model = ModelConfig(dim=8, hops=2, edge_dropout=0.0, init_mode="schema")
    config = TrainConfig(model=model, lr=0.01, margin=2.0, epochs=4, seed=0)
    ckpt = train(bench_a, config, schema_vectors=vecs_a)

    def score(bench, vecs):
        cache = SampleCache(bench.test_graph, model)
        resolved = resolve_schema_vectors(vecs, bench.vocab, model)
        return score_triples(ckpt.params, model, cache, bench.test, None, resolved, 0)

    scores_a = score(bench_a, vecs_a)
    scores_b = score(bench_b, vecs_b)
    assert np.allclose(scores_a, scores_b, rtol=0.0, atol=1e-12)


def test_random_init_does_not_transfer_to_renamed_relations():
    # Contrast case for the schema test: with learned per-relation rows,
    # renamed relations are unseen, fall back to fresh draws, and score
    # differently.
    bench_a = chain_benchmark(seed=0, entity_prefix="e", relation_names=("s0", "s1", "s2"))
    bench_b = chain_benchmark(seed=0, entity_prefix="f", relation_names=("u0", "u1", "u2"))

    model = ModelConfig(dim=8, hops=2, edge_dropout=0.0)
    config = TrainConfig(model=model, lr=0.01, margin=2.0, epochs=4, seed=0)
    ckpt = train(bench_a, config)

    assert relation_lookup(ckpt, bench_b.vocab).tolist() == [-1, -1, -1]

    def score(bench):
        cache = SampleCache(bench.test_graph, model)
        relation_rows = relation_lookup(ckpt, bench.vocab)
        return score_triples(ckpt.params, model, cache, bench.test, relation_rows, None, 0)

    scores_a = score(bench_a)
    scores_b = score(bench_b)
    assert not np.allclose(scores_a, scores_b, atol=1e-6)
