import gc
import json
import os
import re
import subprocess
import sys
import textwrap
import warnings
import weakref
from collections import Counter
from dataclasses import fields

import numpy as np
import pytest

from rmpi import numkit, trainlab
from rmpi.evalbench import rank_entities, rank_of
from rmpi.kgstore import Benchmark, KnowledgeGraph, Triple, load_benchmark
from rmpi.numkit import Tape
from rmpi.rmpnet import (
    FeatureSource, ModelConfig, ModelError, bind_params, init_params, score_sample,
    stack_samples,
)
from rmpi.subgraph import (
    NO_LABELS,
    RelationViewGraph,
    extract_enclosing,
    to_relation_view,
)
from rmpi.trainlab import (
    Checkpoint,
    SampleCache,
    TrainConfig,
    TrainError,
    build_sample,
    load_checkpoint,
    margin_loss,
    relation_lookup,
    resolve_schema_vectors,
    sample_negative,
    save_checkpoint,
    train,
)

from oracles import disclosing_neighbors
from synth import make_vocab, random_graph, toy_benchmark, write_benchmark_dir


def small_config(**overrides):
    model = ModelConfig(dim=4, hops=2, edge_dropout=0.0)
    defaults = dict(model=model, lr=0.01, batch_size=8, margin=2.0, epochs=3, seed=0)
    defaults.update(overrides)
    return TrainConfig(**defaults)


# ---------------------------------------------------------------- negatives

def test_negative_changes_exactly_one_side():
    graph = random_graph(np.random.default_rng(0), 10, 2, 25)
    rng = np.random.default_rng(1)
    pos = graph.triples[0]
    for _ in range(200):
        neg = sample_negative(pos, graph, rng)
        assert neg.relation == pos.relation
        assert (neg.head != pos.head) != (neg.tail != pos.tail)


def test_negative_never_returns_positive_in_tiny_space():
    # two entities, positive in the graph: only (B,r,B) and (A,r,A) remain
    vocab = make_vocab(2, 1)
    pos = Triple(0, 0, 1)
    graph = KnowledgeGraph(vocab, [pos])
    seen = set()
    for seed in range(300):
        neg = sample_negative(pos, graph, np.random.default_rng(seed))
        assert neg != pos
        seen.add(neg)
    assert seen == {Triple(1, 0, 1), Triple(0, 0, 0)}


def test_negative_seeded_reproducible():
    graph = random_graph(np.random.default_rng(3), 8, 2, 20)
    pos = graph.triples[5]
    runs = [
        [sample_negative(pos, graph, np.random.default_rng(42)) for _ in range(20)]
        for _ in range(2)
    ]
    assert runs[0] == runs[1]


def test_negative_collision_avoidance_rate():
    # every corruption except (3,r,1) and (0,r,3) is already in the graph;
    # the extra edge keeps entity 3 inside the sampling pool
    vocab = make_vocab(4, 2)
    pos = Triple(0, 0, 1)
    rows = [Triple(e, 0, 1) for e in (1, 2)] + [Triple(0, 0, e) for e in (0, 2)]
    graph = KnowledgeGraph(vocab, [pos] + rows + [Triple(3, 1, 3)])

    def collision_rate(retries, n=400):
        rng = np.random.default_rng(7)
        hits = sum(
            graph.has_triple(sample_negative(pos, graph, rng, retries=retries))
            for _ in range(n)
        )
        return hits / n

    assert collision_rate(retries=5) < 0.2
    assert collision_rate(retries=0) > 0.5


def test_negative_replacement_distribution():
    scipy_stats = pytest.importorskip("scipy.stats")
    n_entities = 10
    vocab = make_vocab(n_entities, 2)
    pos = Triple(0, 0, 1)
    # self loops on a second relation pull every entity into the pool
    loops = [Triple(e, 1, e) for e in range(n_entities)]
    graph = KnowledgeGraph(vocab, [pos] + loops)
    rng = np.random.default_rng(11)
    counts = np.zeros(n_entities)
    n = 2000
    for _ in range(n):
        neg = sample_negative(pos, graph, rng)
        repl = neg.head if neg.head != pos.head else neg.tail
        counts[repl] += 1
    # accepted draws are uniform over the 18 valid (side, entity) combos:
    # entity 0 only survives as a tail, entity 1 only as a head
    weights = np.full(n_entities, 2.0)
    weights[0] = weights[1] = 1.0
    expected = weights / weights.sum() * n
    assert scipy_stats.chisquare(counts, expected).pvalue > 0.01
    # untouched entities are mutually uniform
    assert scipy_stats.chisquare(counts[2:]).pvalue > 0.01


def hinge(pos, neg, margin):
    tape = Tape()
    return margin_loss(tape.const(pos), tape.const(neg), margin).value


def test_margin_loss_examples():
    assert hinge([5.0], [1.0], 10.0) == 6.0
    assert hinge([5.0, 3.0], [1.0, -2.0], 1.0) == 0.0  # separated by >= margin
    assert hinge([2.0, 2.0], [0.0, 5.0], 1.0) == 4.0


@pytest.mark.parametrize("field, value", [
    ("lr", -0.5), ("lr", float("nan")), ("lr", float("inf")),
    ("margin", -3.0), ("margin", 0.0), ("margin", float("nan")), ("margin", float("inf")),
])
def test_train_config_rejects_bad_lr_or_margin(field, value):
    name = {"lr": "learning rate", "margin": "margin"}[field]
    with pytest.raises(TrainError, match=f"{name} must be"):
        small_config(**{field: value})


def test_margin_loss_length_mismatch():
    tape = Tape()
    with pytest.raises(TrainError):
        margin_loss(tape.const([1.0, 2.0]), tape.const([0.0]), 1.0)


def test_margin_loss_zero_iff_separated():
    rng = np.random.default_rng(0)
    for _ in range(50):
        pos = rng.normal(size=4)
        neg = rng.normal(size=4)
        gamma = float(rng.uniform(0.1, 3.0))
        loss = hinge(pos, neg, gamma)
        assert loss >= 0.0
        assert (loss == 0.0) == bool(np.all(pos - neg >= gamma))


def test_build_sample_reads_disclosing_neighbors():
    graph = random_graph(np.random.default_rng(8), 10, 3, 24)
    ne = ModelConfig(dim=4, hops=2, use_disclosing=True)
    base = ModelConfig(dim=4, hops=2)
    for target in graph.triples[:6] + [Triple(0, 1, 9), Triple(3, 2, 3)]:
        labels = build_sample(graph, target, ne).labels
        assert labels.dtype == np.int32
        assert labels.tolist() == [graph.triples[i].relation
                                   for i in disclosing_neighbors(graph, target)]
        assert len(build_sample(graph, target, base).labels) == 0


def twin_graph(rng, n_entities):
    """A random graph over entities 0 .. n_entities - 1 with self-loops,
    and duplicate, parallel and inverse twins of a third of its triples;
    two more entities, n_entities and n_entities + 1, have no triple."""
    rows = [Triple(int(h), int(rng.integers(3)), int(t))
            for h, t in rng.integers(n_entities, size=(3 * n_entities, 2))]
    for h, r, t in rows[: n_entities]:
        rows += [Triple(h, r, t), Triple(h, (r + 1) % 3, t), Triple(t, r, h), Triple(h, r, h)]
    return KnowledgeGraph(make_vocab(n_entities + 2, 3), rows)


@pytest.mark.parametrize("hops", [1, 2, 3])
def test_built_sample_decodes_to_its_extraction(hops):
    # a sample's int32 indices, int8 levels and int32 labels give back, in
    # order, the triples and levels of the enclosing subgraph and the labels
    # of the disclosing neighbours; a cached one holds 5 bytes per triple
    # and 4 per label
    rng = np.random.default_rng(hops)
    for trial in range(6):
        n = int(rng.integers(3, 12))
        graph = twin_graph(rng, n)
        lone = Triple(n, 2, n + 1)  # no triple at either end
        targets = graph.triples[:8] + [lone, Triple(0, 2, n), Triple(1, 0, 1)] + [
            Triple(int(h), 2, int(t)) for h, t in rng.integers(n, size=(6, 2))]
        for config in (ModelConfig(dim=4, hops=hops),
                       ModelConfig(dim=4, hops=hops, use_disclosing=True)):
            cache = SampleCache(graph, config)
            cache.precompute(targets)
            for target in targets:
                sample = cache.sample(target)
                assert cache.sample(target) is sample
                assert build_sample(graph, target, config).target is target  # not a copy
                sub = extract_enclosing(graph, target, hops)
                assert sample.indexes.dtype == np.int32 and sample.levels.dtype == np.int8
                assert sample.labels.dtype == np.int32
                decoded = tuple(graph.triples[i] for i in sample.indexes.tolist())
                assert decoded + (sample.target,) == sub.triples
                assert np.array_equal(sample.levels, sub.levels)
                assert graph.arrays[:, sample.indexes].T.tolist() == [list(t) for t in decoded]
                want = [graph.triples[i].relation for i in disclosing_neighbors(graph, target)]
                assert sample.labels.tolist() == (want if config.use_disclosing else [])
                assert sample.nbytes == 5 * len(decoded) + 4 * len(sample.labels)
            assert cache.sample(lone).indexes.shape == (0,)


@pytest.mark.parametrize("hops", [1, 2, 3])
def test_enclosing_record_carries_the_disclosing_labels(hops):
    # the one record extract_enclosing returns with disclosing=True holds
    # the enclosing subgraph's arrays and the labels the set-and-sort
    # reference route gathers, for self-loops, duplicate, parallel and
    # inverse twins, lone targets and targets equal to a graph triple;
    # without it, the labels are NO_LABELS itself
    rng = np.random.default_rng(10 + hops)
    for trial in range(6):
        n = int(rng.integers(3, 12))
        graph = twin_graph(rng, n)
        lone = Triple(n, 2, n + 1)
        half_lone = Triple(0, 1, n)
        targets = graph.triples[:12] + [lone, half_lone, Triple(1, 0, 1), Triple(n, 0, n)] + [
            Triple(int(h), int(rng.integers(3)), int(t)) for h, t in rng.integers(n, size=(6, 2))]
        for target in targets:
            plain = extract_enclosing(graph, target, hops)
            sub = extract_enclosing(graph, target, hops, disclosing=True)
            assert plain.labels is NO_LABELS
            assert np.array_equal(sub.indexes, plain.indexes)
            assert np.array_equal(sub.levels, plain.levels)
            assert sub.target == plain.target
            want = graph.arrays[1][disclosing_neighbors(graph, target)]
            assert sub.labels.dtype == np.int32
            assert sub.labels.tolist() == want.tolist()
        assert extract_enclosing(graph, lone, hops, disclosing=True).labels.shape == (0,)


VARIANTS = {
    "base": dict(),
    "ne": dict(use_disclosing=True),
    "ta": dict(target_attention=True),
    "ne-ta": dict(use_disclosing=True, target_attention=True),
    "ne-ta-conc": dict(use_disclosing=True, target_attention=True, fusion="conc"),
    "ne-ta-schema": dict(use_disclosing=True, target_attention=True, init_mode="schema",
                         schema_hidden=8, schema_dim=16),
}
UNSEEN = 3  # relation without a learned row: scored with a fresh seeded vector


def scoring_graph():
    """Random triples over entities 0-11 plus a hub, entity 0, meeting 1-11;
    entity 12 has no triple, and relation 3 labels a few of them."""
    graph = random_graph(np.random.default_rng(6), 12, 3, 16)
    graph.vocab.entity_id("e12", create=True)
    graph.vocab.relation_id("r3", create=True)
    hub = [Triple(0, e % 3, e) for e in range(1, 12)]
    unseen = [Triple(4, UNSEEN, 7), Triple(7, UNSEEN, 0)]
    return KnowledgeGraph(graph.vocab, graph.triples + hub + unseen)


def scoring_setup(variant, graph):
    config = ModelConfig(dim=4, hops=2, **VARIANTS[variant])
    params = init_params(config, graph.vocab.num_relations, np.random.default_rng(1))
    schema = None
    if config.init_mode == "schema":
        schema = np.stack([np.random.default_rng([2, r]).normal(size=config.schema_dim)
                           for r in range(graph.vocab.num_relations)])
    relation_rows = np.arange(graph.vocab.num_relations)
    relation_rows[UNSEEN] = -1
    return config, params, dict(relation_rows=relation_rows, schema_vectors=schema, run_seed=5)


def forward_alone(graph, triple, config, params, relation_rows, schema_vectors, run_seed):
    """The triple's score from a one-sample forward on a recording tape."""
    tape = Tape()
    pvars = bind_params(tape, params)
    source = FeatureSource(tape, pvars, config, relation_rows, schema_vectors, run_seed)
    return score_sample([build_sample(graph, triple, config)], source, pvars, config).value[0]


def scored_batches(monkeypatch, budget=None):
    """Record the samples of each score_sample call, optionally under a budget."""
    if budget is not None:
        monkeypatch.setattr(trainlab, "SCORE_BATCH_ROWS", budget)
    calls = []
    inner = trainlab.score_sample

    def spy(samples, *args, **kwargs):
        calls.append(list(samples))
        return inner(samples, *args, **kwargs)

    monkeypatch.setattr(trainlab, "score_sample", spy)
    return calls


SCORED = [
    Triple(0, 1, 5),  # hub to hub neighbour: the largest view
    Triple(1, 2, 4), Triple(0, 1, 9), Triple(3, 2, 3),
    Triple(12, 0, 12),  # no triple at either end: empty view, no disclosing neighbour
    Triple(12, 1, 2),  # one end outside the graph: the target alone
    Triple(4, UNSEEN, 7), Triple(7, UNSEEN, 9),
    Triple(5, 0, 0), Triple(2, 2, 6),
]


@pytest.mark.parametrize("variant", ["base", "ne-ta", "ne-ta-schema"])
def test_relation_ids_outside_the_vocabulary_do_not_score(variant):
    # -1 would index the last relation's row and num_relations past the
    # arrays: each is refused before any array is indexed by it
    graph = scoring_graph()
    config, params, context = scoring_setup(variant, graph)
    num_relations = graph.vocab.num_relations
    for relation in (-1, num_relations):
        for triples in ([Triple(1, relation, 4)], graph.triples[:3] + [Triple(1, relation, 4)]):
            with pytest.raises(ModelError, match=f"relation id {relation} is outside"):
                trainlab.score_triples(params, config, SampleCache(graph, config), triples,
                                       **context)


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("budget", [None, 250, 10**6], ids=["default", "small", "one-batch"])
def test_score_triples_matches_recorded_forward(monkeypatch, variant, budget):
    graph = scoring_graph()
    config, params, context = scoring_setup(variant, graph)
    triples = graph.triples[:5] + SCORED
    calls = scored_batches(monkeypatch, budget)
    got = trainlab.score_triples(params, config, SampleCache(graph, config), triples, **context)
    assert sum(map(len, calls)) == len(triples)
    assert len(calls) == 1 if budget == 10**6 else len(calls) >= 2
    for score, t in zip(got, triples):
        assert score == forward_alone(graph, t, config, params, **context)


@pytest.mark.parametrize("variant", ["base", "ne-ta", "ne-ta-conc"])
def test_repeated_triple_scores_the_same_in_every_batch(monkeypatch, variant):
    graph = scoring_graph()
    config, params, context = scoring_setup(variant, graph)
    repeated = Triple(1, 2, 4)
    triples = [repeated] + SCORED[:3] + [repeated] + SCORED[3:] + [repeated, repeated]
    calls = scored_batches(monkeypatch, budget=400)
    got = trainlab.score_triples(params, config, SampleCache(graph, config), triples, **context)
    at = [i for i, t in enumerate(triples) if t == repeated]
    holding = [c for c in calls if any(s.target == repeated for s in c)]
    assert len({len(c) for c in holding}) > 1  # batch-mates differ in number
    assert len(set(got[at].tolist())) == 1


@pytest.mark.parametrize("variant", ["base", "ne-ta"])
def test_scoring_builds_no_relation_view(monkeypatch, variant):
    from rmpi import evalbench, rmpnet, subgraph

    def refuse(*args, **kwargs):
        raise AssertionError("scoring built a relation view")

    for module in (subgraph, rmpnet, trainlab):
        for name in ("to_relation_view", "prune_to_target"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    graph = scoring_graph()
    config, params, context = scoring_setup(variant, graph)
    ckpt = Checkpoint(config, params, graph.vocab.digest(), tuple(graph.vocab.relation_names),
                      (True,) * graph.vocab.num_relations)
    cache = SampleCache(graph, config)
    got = trainlab.score_triples(params, config, cache, graph.triples + SCORED, **context)
    assert np.isfinite(got).all()
    evalbench.classify(ckpt, graph, SCORED[:4], cache=cache)
    evalbench.rank_queries(ckpt, graph, SCORED[:2], num_neg=5, cache=cache)


@pytest.mark.parametrize("task", ["classify", "rank"])
def test_scoring_refuses_a_cache_of_another_extraction(monkeypatch, task):
    # a cache's samples are its config's subgraphs: read by a model of
    # another depth, or with or without the disclosing neighbours, they
    # score wrong numbers and raise nothing, so score_triples refuses them
    # before it extracts anything
    from rmpi import evalbench, subgraph

    def refuse(*args, **kwargs):
        raise AssertionError("extracted before checking the cache")

    graph = scoring_graph()
    if task == "classify":  # a base cache for an ne-ta checkpoint
        built = ModelConfig(dim=4)
        config = ModelConfig(dim=4, use_disclosing=True, target_attention=True)
    else:  # a K=2 cache for a K=3 checkpoint
        built, config = ModelConfig(dim=4, hops=2), ModelConfig(dim=4, hops=3)
    params = init_params(config, graph.vocab.num_relations, np.random.default_rng(1))
    ckpt = Checkpoint(config, params, graph.vocab.digest(), tuple(graph.vocab.relation_names),
                      (True,) * graph.vocab.num_relations)
    cache = SampleCache(graph, built)
    # scoring extracts through extract_enclosing_list, training through
    # extract_enclosing, and every extraction first reads the K-hop balls
    monkeypatch.setattr(trainlab, "extract_enclosing", refuse)
    monkeypatch.setattr(trainlab, "extract_enclosing_list", refuse)
    monkeypatch.setattr(subgraph, "khop_ball", refuse)
    want = (f"sample cache extracts with hops={built.hops}, use_disclosing={built.use_disclosing}, "
            f"but the model has hops={config.hops}, use_disclosing={config.use_disclosing}")
    with pytest.raises(TrainError, match=re.escape(want)) as raised:
        if task == "classify":
            evalbench.classify(ckpt, graph, SCORED[:4], cache=cache)
        else:
            evalbench.rank_queries(ckpt, graph, SCORED[:2], num_neg=5, cache=cache)
    assert raised.traceback[-1].name == "score_triples"


def test_score_batches_stay_within_the_row_budget(monkeypatch):
    graph = scoring_graph()
    config, params, context = scoring_setup("ne-ta", graph)
    triples = graph.triples + SCORED
    for budget in (1, 25, 60, 200):
        calls = scored_batches(monkeypatch, budget)
        trainlab.score_triples(params, config, SampleCache(graph, config), triples, **context)
        assert sum(map(len, calls)) == len(triples)
        for samples in calls:
            rows = sum(trainlab.sample_rows(s, config.hops) for s in samples)
            assert rows <= budget or len(samples) == 1
        assert any(len(samples) > 1 for samples in calls) == (budget > 1)


@pytest.mark.parametrize("hops", [1, 2, 3])
def test_sample_rows_counts_as_comparing_every_level(hops):
    # levels are at most K + 1, so counting the levels K and K + 1 gives
    # the nodes and receivers that comparing each level with K gives
    rng = np.random.default_rng(hops)
    for use_disclosing in (False, True):
        config = ModelConfig(dim=4, hops=hops, use_disclosing=use_disclosing)
        for _ in range(20):
            graph = random_graph(rng, int(rng.integers(2, 40)), 3, int(rng.integers(0, 80)))
            for _ in range(5):
                u, v = (int(e) for e in rng.integers(graph.vocab.num_entities, size=2))
                sample = build_sample(graph, Triple(u, 2, v), config)
                levels = sample.levels.tolist() + [0]  # the target's is 0
                nodes = sum(level <= hops for level in levels)
                receivers = sum(level < hops for level in levels)
                want = 4 * nodes + 6 * receivers + len(sample.labels)
                if nodes == 1:  # the target alone: its feature row
                    want = 1 + len(sample.labels)
                assert trainlab.sample_rows(sample, hops) == want


@pytest.mark.parametrize("hops", [1, 2, 3])
def test_sample_rows_of_an_empty_sample_are_its_feature_and_labels(hops):
    # a sample that is its target alone makes no incidence row and no typed
    # sum: it counts its feature row and its disclosing neighbours
    vocab = make_vocab(12, 3)
    chain = [Triple(i, 0, i + 1) for i in range(8)]  # 0 - 1 - ... - 8
    graph = KnowledgeGraph(vocab, chain + [Triple(9, 1, 10)])
    for use_disclosing in (False, True):
        config = ModelConfig(dim=4, hops=hops, use_disclosing=use_disclosing)
        bare = build_sample(graph, Triple(11, 2, 11), config)
        assert len(bare.indexes) == 0 and len(bare.labels) == 0
        assert trainlab.sample_rows(bare, hops) == 1
        lone = build_sample(graph, Triple(9, 2, 11), config)  # ne: 9's triple is a neighbour
        assert len(lone.indexes) == 0
        assert trainlab.sample_rows(lone, hops) == 1 + len(lone.labels) == 1 + use_disclosing
        held = build_sample(graph, Triple(0, 2, 2), config)
        assert trainlab.sample_rows(held, hops) > 10 + len(held.labels)


def isomorphic_candidates_graph():
    """Tail query (a, q, b) where b and the candidates c1, c2 each hang off a
    two-step path a -r1- x -r2- b of their own, so the three views match up
    to entity names, listed in the same order; d and 8 are one more pair."""
    vocab = make_vocab(9, 3)  # a=0 b=1 c1=2 c2=3, their paths' middles 4-6, d=7 and 8
    triples = [Triple(0, 1, 4), Triple(0, 1, 5), Triple(0, 1, 6),
               Triple(4, 2, 1), Triple(5, 2, 2), Triple(6, 2, 3), Triple(7, 1, 8)]
    return KnowledgeGraph(vocab, triples), Triple(0, 0, 1)


# Parameter seeds and a budget under which products that round by their row
# count put the truth above its twins when the truth and the twins are in
# batches of different sizes, which moves the rank.
@pytest.mark.parametrize("variant, seed", [("base", 3), ("ne-ta", 2)])
@pytest.mark.parametrize("budget", [None, 30])
def test_rank_with_isomorphic_candidates_keeps_its_ties(monkeypatch, variant, seed, budget):
    graph, query = isomorphic_candidates_graph()
    config = ModelConfig(dim=32, hops=2, **VARIANTS[variant])
    params = init_params(config, graph.vocab.num_relations, np.random.default_rng(seed))
    ckpt = Checkpoint(config, params, graph.vocab.digest(), tuple(graph.vocab.relation_names),
                      (True,) * graph.vocab.num_relations)
    alone = {e: forward_alone(graph, Triple(0, 0, e), config, params, None, None, 0)
             for e in range(graph.vocab.num_entities)}
    twins = [e for e in alone if e != query.tail and alone[e] == alone[query.tail]]
    assert twins == [2, 3]
    calls = scored_batches(monkeypatch, budget)
    got = rank_entities(ckpt, graph, query, "tail", num_neg=49)
    assert got.rank == rank_of(alone[query.tail], [alone[e] for e in alone if e != query.tail])
    assert len(calls) == 1 if budget is None else len(calls) > 2


# ---------------------------------------------------------------- cache

def same_sample(a, b):
    """Whether two samples hold the same graph, target and arrays."""
    return a.graph is b.graph and a.target == b.target and all(
        x.dtype == y.dtype and np.array_equal(x, y)
        for x, y in ((a.indexes, b.indexes), (a.levels, b.levels), (a.labels, b.labels))
    )


def test_cache_keeps_only_the_triples_its_callers_name():
    graph = random_graph(np.random.default_rng(2), 8, 2, 16)
    config = ModelConfig(dim=4, hops=2)
    # scoring keeps nothing, not even graph triples: no caller named them
    cache = SampleCache(graph, config)
    params = init_params(config, graph.vocab.num_relations, np.random.default_rng(1))
    trainlab.score_triples(params, config, cache, graph.triples)
    assert not cache._store
    member = graph.triples[0]
    assert cache.sample(member) is not cache.sample(member)
    cache.precompute([member])
    assert cache.sample(member) is cache.sample(member) is cache._store[member]
    outsider = Triple(0, 0, 1)
    while graph.has_triple(outsider):
        outsider = Triple(outsider.head, 0, outsider.tail + 1)
    first = cache.sample(outsider)
    assert outsider not in cache._store
    assert same_sample(cache.sample(outsider), first)
    got, want = cache.sample(member), build_sample(graph, member, config)
    assert same_sample(got, want)
    got_layers, want_layers = (stack_samples([s], config.hops, training=True).layer_edges
                               for s in (got, want))
    assert len(got_layers) == len(want_layers) == config.hops
    assert all(np.array_equal(a, b) for a, b in zip(got_layers, want_layers))


def test_cached_samples_hold_no_edges():
    # a cached sample keeps its extraction only: a training step builds the
    # edges it reads for itself, so no view or edge array outlives the step
    graph = random_graph(np.random.default_rng(2), 8, 2, 16)
    config = ModelConfig(dim=4, hops=2)
    cache = SampleCache(graph, config)
    cache.precompute(graph.triples)
    assert set(cache._store) == set(graph.triples)
    samples = list(cache._store.values())
    assert any(len(to_relation_view(extract_enclosing(graph, t, config.hops)).edges)
               for t in cache._store)
    tape = Tape()
    pvars = bind_params(tape, init_params(config, 2, np.random.default_rng(0)))
    score_sample(samples, FeatureSource(tape, pvars, config), pvars, config,
                 training=True, drop_rng=np.random.default_rng(0))
    for sample in samples:
        assert not hasattr(sample, "__dict__")  # nothing cached beside the fields
        assert [f.name for f in fields(sample)] == ["graph", "indexes", "target", "levels",
                                                     "labels"]
        assert sample.graph is graph and isinstance(sample.target, Triple)
        n = len(sample.indexes)
        assert sample.indexes.shape == sample.levels.shape == (n,)
        assert sample.labels.shape == (0,)  # the base variant reads no disclosing labels
        assert not any(isinstance(getattr(sample, f.name), RelationViewGraph)
                       for f in fields(sample))


def test_training_builds_no_relation_view(monkeypatch):
    # a training step cuts its layers by the extracted levels, out of one
    # join over its batch, so neither the per-sample view nor its pruning
    # runs; the steps still read edges
    from rmpi import rmpnet, subgraph

    def refuse(*args, **kwargs):
        raise AssertionError("training built a relation view")

    for module in (subgraph, rmpnet, trainlab):
        for name in ("to_relation_view", "prune_to_target"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    edges = []
    inner = rmpnet.propagate

    def spying(batch, *args, **kwargs):
        if batch.training:
            edges.append(sum(len(e) for e in batch.layer_edges))
        return inner(batch, *args, **kwargs)

    monkeypatch.setattr(rmpnet, "propagate", spying)
    bench = toy_benchmark(seed=3, n_entities=10, n_train=24, n_valid=6)
    for model in (ModelConfig(dim=4, hops=2),
                  ModelConfig(dim=4, hops=3, use_disclosing=True, target_attention=True)):
        ckpt = train(bench, small_config(model=model, epochs=2))
        assert len(ckpt.history["train_loss"]) == 2
    assert len(edges) == 2 * 2 * 3 and max(edges) > 0  # 3 steps an epoch


@pytest.mark.parametrize("model", [
    ModelConfig(dim=4, hops=2, edge_dropout=0.5),
    ModelConfig(dim=4, hops=3, edge_dropout=0.5, use_disclosing=True, target_attention=True),
], ids=["base", "ne-ta"])
def test_step_graph_is_freed_before_the_next_step(monkeypatch, model):
    # a step's scores are read by its whole recorded graph, so once they are
    # gone no Var of the graph is left; reference counting alone must free
    # them, so the cyclic collector stays off
    last = []  # a weak reference to the previous training step's scores
    forwards = 0
    inner = trainlab.score_sample

    def watching(*args, training=False, **kwargs):
        nonlocal forwards
        if training:
            forwards += 1
            assert not last or last[-1]() is None, f"step {forwards - 1}'s graph outlived it"
        out = inner(*args, training=training, **kwargs)
        if training:
            last.append(weakref.ref(out.value))
        return out

    monkeypatch.setattr(trainlab, "score_sample", watching)
    bench = toy_benchmark(seed=3, n_entities=10, n_train=24, n_valid=6)
    enabled = gc.isenabled()
    gc.disable()
    try:
        train(bench, small_config(model=model, epochs=2))
    finally:
        if enabled:
            gc.enable()
    assert forwards == 2 * 3  # 3 steps an epoch
    assert last[-1]() is None  # the last step's too, once training returned


def test_train_builds_each_positive_once(monkeypatch):
    bench = toy_benchmark(seed=3, n_entities=10, n_train=24, n_valid=6)
    graph = bench.train
    built = Counter()
    inner = trainlab.build_sample

    def counting(g, triple, config):
        built[triple] += 1
        return inner(g, triple, config)

    monkeypatch.setattr(trainlab, "build_sample", counting)
    train(bench, small_config(epochs=3, patience=5))
    on_graph = {t: n for t, n in built.items() if graph.has_triple(t)}
    assert on_graph == {t: 1 for t in graph.triples}
    assert sum(built.values()) > len(on_graph)  # negatives are built on the fly


def test_train_indexes_only_the_training_graph(tmp_path, graphs_built):
    data = write_benchmark_dir(
        tmp_path / "bench",
        train=[(f"a{i}", f"r{i % 2}", f"a{(3 * i + 1) % 8}") for i in range(12)],
        valid=[("a0", "r1", "a5"), ("a2", "r0", "a7")],
        test_graph=[("x0", "r0", "x1"), ("x1", "r1", "x2")],
        test=[("x0", "r1", "x2")],
    )
    bench = load_benchmark(str(data))
    train(bench, small_config(epochs=1))
    assert graphs_built == [bench.train]


def test_train_builds_each_validation_triple_once(monkeypatch):
    bench = toy_benchmark(seed=3, n_entities=10, n_train=24, n_valid=6)
    built = Counter()
    scored = []
    inner_build, inner_score = trainlab.build_sample, trainlab.score_triples
    inner_list = trainlab.extract_enclosing_list

    def counting(g, triple, config):
        built[triple] += 1
        return inner_build(g, triple, config)

    def counting_list(g, triples, k, **kwargs):  # scoring builds through the list extractor
        built.update(triples)
        return inner_list(g, triples, k, **kwargs)

    def spying(params, config, cache, triples, *rest):
        scored.append(list(triples))
        return inner_score(params, config, cache, triples, *rest)

    monkeypatch.setattr(trainlab, "build_sample", counting)
    monkeypatch.setattr(trainlab, "extract_enclosing_list", counting_list)
    monkeypatch.setattr(trainlab, "score_triples", spying)
    train(bench, small_config(epochs=3, patience=5))
    assert len(scored) == 3 and scored[0] == scored[1] == scored[2]
    assert scored[0][: len(bench.valid)] == bench.valid
    assert len(scored[0]) == 2 * len(bench.valid)  # the targets, then their negatives
    assert all(built[t] == 1 for t in scored[0])


def test_precompute_keeps_exactly_the_triples_it_is_handed(monkeypatch):
    # a triple off the graph, as a validation negative is, is kept like a
    # positive; a triple already kept is not built again; nothing else is kept
    graph = random_graph(np.random.default_rng(2), 8, 2, 16)
    cache = SampleCache(graph, ModelConfig(dim=4, hops=2))
    outsider = Triple(0, 0, 1)
    while graph.has_triple(outsider):
        outsider = Triple(outsider.head, 0, outsider.tail + 1)
    handed = [outsider, graph.triples[0], outsider]
    cache.precompute(handed)
    assert set(cache._store) == set(handed)
    kept = dict(cache._store)
    assert cache.sample(outsider) is cache.sample(outsider) is kept[outsider]
    monkeypatch.setattr(trainlab, "build_sample", pytest.fail)
    cache.precompute(handed)
    assert cache._store == kept
    assert cache.samples(handed) == [kept[t] for t in handed]


def test_stored_samples_in_a_list_are_never_extracted_again(monkeypatch):
    from rmpi import subgraph

    graph = random_graph(np.random.default_rng(2), 8, 2, 16)
    config = ModelConfig(dim=4, hops=2, use_disclosing=True)
    cache = SampleCache(graph, config)
    members = graph.triples[:3]
    cache.precompute(members)
    outsiders = [Triple(h, 0, t) for h in range(8) for t in range(8)
                 if not graph.has_triple(Triple(h, 0, t))][:6]
    kept, passing = outsiders[:3], outsiders[3:]
    cache.precompute(kept)
    first = cache.samples(kept + passing + kept)
    assert all(first[i] is first[i + 6] is cache._store[t] for i, t in enumerate(kept))
    assert not set(passing) & set(cache._store)
    handed = []
    inner = trainlab.extract_enclosing_list

    def refusing(g, targets, k, **kwargs):
        assert not set(targets) & set(cache._store), "re-extracted a stored sample"
        handed.append(list(targets))
        return inner(g, targets, k, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("extracted one triple at a time")

    monkeypatch.setattr(trainlab, "extract_enclosing_list", refusing)
    monkeypatch.setattr(trainlab, "build_sample", refuse)
    monkeypatch.setattr(subgraph, "extract_enclosing", refuse)
    mixed = [kept[0], members[0], passing[0], kept[1], members[1], passing[0], passing[1]]
    got = cache.samples(mixed)
    assert handed == [[passing[0], passing[1]]]  # each distinct triple built once
    for sample, t in zip(got, mixed):
        if t in cache._store:
            assert sample is cache._store[t]
        else:
            assert same_sample(sample, extract_enclosing(graph, t, 2, disclosing=True))
    assert got[2] is got[5]
    handed.clear()
    stored = cache.samples([kept[2], members[2]])
    assert stored[0] is cache._store[kept[2]] and stored[1] is cache._store[members[2]]
    assert cache.samples([kept[2]])[0] is cache._store[kept[2]]  # a lone triple reads it too
    assert handed == []


def test_scoring_hands_the_extractor_a_bounded_chunk(monkeypatch):
    graph = scoring_graph()
    config, params, context = scoring_setup("ne-ta", graph)
    triples = [Triple(h, r, t) for h in range(13) for r in range(3) for t in range(13)][:300]
    handed = []
    inner = trainlab.extract_enclosing_list

    def counting(g, targets, k, **kwargs):
        handed.append(len(targets))
        return inner(g, targets, k, **kwargs)

    monkeypatch.setattr(trainlab, "extract_enclosing_list", counting)
    got = trainlab.score_triples(params, config, SampleCache(graph, config), triples, **context)
    assert len(got) == 300 and sum(handed) == 300
    assert max(handed) == trainlab.SCORE_CHUNK_TRIPLES < 300
    graph = random_graph(np.random.default_rng(3), 80, 3, 160)
    ckpt = Checkpoint(config, init_params(config, 3, np.random.default_rng(1)),
                      graph.vocab.digest(), tuple(graph.vocab.relation_names), (True,) * 3)
    handed.clear()
    rank_entities(ckpt, graph, graph.triples[0], "tail", num_neg=49)
    assert handed == [50]  # a query's triples are read at once: the truth and 49 candidates


# ---------------------------------------------------------------- checkpoints

def make_checkpoint(seed=0, **model_overrides):
    config = ModelConfig(dim=4, hops=2, **model_overrides)
    params = init_params(config, 3, np.random.default_rng(seed))
    return Checkpoint(
        config=config,
        params=params,
        vocab_digest="d" * 64,
        relation_names=("r0", "r1", "r2"),
        seen_flags=(True, True, False),
        best_val_auc=0.5,
        best_epoch=2,
        history={"train_loss": [1.0, 0.5]},
    )


def test_checkpoint_round_trip(tmp_path):
    ckpt = make_checkpoint()
    save_checkpoint(ckpt, str(tmp_path))
    back = load_checkpoint(str(tmp_path))
    assert back.config == ckpt.config
    assert back.vocab_digest == ckpt.vocab_digest
    assert back.relation_names == ckpt.relation_names
    assert back.seen_flags == ckpt.seen_flags
    assert back.best_val_auc == ckpt.best_val_auc
    assert back.best_epoch == ckpt.best_epoch
    assert back.history == ckpt.history
    assert set(back.params) == set(ckpt.params)
    for name, value in ckpt.params.items():
        stored = value.astype(np.float32).astype(np.float64)
        assert back.params[name].dtype == np.float64
        assert np.array_equal(back.params[name], stored)


def test_checkpoint_load_closes_its_files(tmp_path):
    save_checkpoint(make_checkpoint(), str(tmp_path))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        load_checkpoint(str(tmp_path))
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_checkpoint_resave_identical_bytes(tmp_path):
    ckpt = make_checkpoint()
    a, b = tmp_path / "a", tmp_path / "b"
    save_checkpoint(ckpt, str(a))
    save_checkpoint(load_checkpoint(str(a)), str(b))
    for name in ("manifest.json", "params.bin"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_checkpoint_missing_file(tmp_path):
    ckpt = make_checkpoint()
    save_checkpoint(ckpt, str(tmp_path))
    os.remove(tmp_path / "params.bin")
    with pytest.raises(TrainError, match="missing"):
        load_checkpoint(str(tmp_path))


@pytest.mark.parametrize("cut", [-8, -1, 4])
def test_checkpoint_rejects_params_block_of_wrong_length(tmp_path, cut):
    save_checkpoint(make_checkpoint(), str(tmp_path))
    params = tmp_path / "params.bin"
    raw = params.read_bytes()
    params.write_bytes(raw[:cut] if cut < 0 else raw + bytes(cut))
    with pytest.raises(TrainError, match="parameter block"):
        load_checkpoint(str(tmp_path))


def test_checkpoint_rejects_unknown_version(tmp_path):
    ckpt = make_checkpoint()
    save_checkpoint(ckpt, str(tmp_path))
    manifest = (tmp_path / "manifest.json").read_text().replace(
        '"format_version": 1', '"format_version": 99'
    )
    (tmp_path / "manifest.json").write_text(manifest)
    with pytest.raises(TrainError, match="format"):
        load_checkpoint(str(tmp_path))


def test_relation_lookup_matches_by_name():
    ckpt = make_checkpoint()
    vocab = make_vocab(2, 0)
    for name in ("r2", "r0", "novel"):
        vocab.relation_id(name, create=True)
    relation_rows = relation_lookup(ckpt, vocab)
    # r2 exists but was unseen at training, r0 is checkpoint row 0, and
    # "novel" was never in the checkpoint
    assert relation_rows.tolist() == [-1, 0, -1]


def test_resolve_schema_vectors():
    vocab = make_vocab(2, 2)
    named = {"r0": np.ones(5), "r1": np.zeros(5)}
    schema = ModelConfig(init_mode="schema", schema_dim=5)
    by_id = resolve_schema_vectors(named, vocab, schema)
    assert by_id.shape == (2, 5)
    assert by_id[0] @ by_id[0] == 5.0
    with pytest.raises(TrainError, match="missing"):
        resolve_schema_vectors({"r0": np.ones(5)}, vocab, schema)
    with pytest.raises(TrainError, match="needs pretrained schema vectors"):
        resolve_schema_vectors(None, vocab, schema)
    for given in (None, named, {"r0": np.ones(5)}):  # random init reads none
        assert resolve_schema_vectors(given, vocab, ModelConfig()) is None


def test_resolve_schema_vectors_checks_width():
    vocab = make_vocab(2, 2)
    named = {"r0": np.ones(5), "r1": np.zeros(5)}
    def schema(width):
        return ModelConfig(init_mode="schema", schema_dim=width)

    assert resolve_schema_vectors(named, vocab, schema(5)).shape == (2, 5)
    with pytest.raises(TrainError, match="width 7"):
        resolve_schema_vectors(named, vocab, schema(7))


def test_train_accepts_configured_vector_width():
    bench = toy_benchmark(seed=2, n_entities=8, n_train=16, n_valid=4)
    model = ModelConfig(dim=4, hops=2, edge_dropout=0.0, init_mode="schema",
                        schema_dim=16)
    config = small_config(model=model, epochs=1)
    named = {name: np.random.default_rng([5, i]).normal(size=16)
             for i, name in enumerate(bench.vocab.relation_names)}
    ckpt = train(bench, config, schema_vectors=named)
    assert ckpt.params["schema_w2"].shape == (model.schema_hidden, 16)
    with pytest.raises(TrainError, match="width"):
        wrong = {k: v[:8] for k, v in named.items()}
        train(bench, config, schema_vectors=wrong)


# ---------------------------------------------------------------- training

def test_zero_epochs_returns_initialized_params():
    bench = toy_benchmark(seed=1, n_entities=8, n_train=16, n_valid=4)
    config = small_config(epochs=0)
    ckpt = train(bench, config)
    reference = init_params(config.model, bench.vocab.num_relations, np.random.default_rng(config.seed))
    assert set(ckpt.params) == set(reference)
    for name in reference:
        assert np.array_equal(ckpt.params[name], reference[name])
    assert ckpt.best_epoch is None
    assert ckpt.best_val_auc is None


def test_train_same_seed_identical():
    bench = toy_benchmark(seed=2, n_entities=8, n_train=14, n_valid=4)
    config = small_config(epochs=2, seed=9)
    a = train(bench, config)
    b = train(bench, config)
    assert a.history == b.history
    for name in a.params:
        assert np.array_equal(a.params[name], b.params[name])


BLAS_THREADS_RUN = textwrap.dedent("""
    import json

    from rmpi import numkit, trainlab
    from synth import toy_benchmark

    get, put = numkit._openblas_threads()
    put(3)  # the caller's count
    seen = []
    forward = trainlab.score_sample

    def spy(*args, **kwargs):
        seen.append(get())
        return forward(*args, **kwargs)

    trainlab.score_sample = spy
    config = trainlab.TrainConfig(model=trainlab.ModelConfig(dim=4, hops=2), epochs=1, batch_size=4)
    trainlab.train(toy_benchmark(seed=2, n_entities=8, n_train=14, n_valid=4), config)
    print(json.dumps([sorted(set(seen)), len(seen), get()]))
""")


@pytest.mark.skipif(numkit._openblas_threads() is None,
                    reason="numpy's BLAS is not the wheel's OpenBLAS")
def test_train_runs_blas_on_one_thread_and_restores_the_callers_count():
    # in a fresh interpreter, whose OpenBLAS no other test has set: every
    # forward of the training run, its steps and validation, reads one
    # thread, and the caller's three are back when train returns
    here = os.path.dirname(os.path.abspath(__file__))
    path = os.pathsep.join([os.path.join(os.path.dirname(here), "src"), here])
    done = subprocess.run([sys.executable, "-c", BLAS_THREADS_RUN], capture_output=True,
                          text=True, timeout=120, check=True, env={**os.environ, "PYTHONPATH": path})
    threads, forwards, after = json.loads(done.stdout)
    assert threads == [1] and forwards >= 4 and after == 3


def test_train_seed_changes_trajectory():
    bench = toy_benchmark(seed=2, n_entities=8, n_train=14, n_valid=4)
    a = train(bench, small_config(epochs=2, seed=1))
    b = train(bench, small_config(epochs=2, seed=2))
    assert any(
        not np.array_equal(a.params[name], b.params[name]) for name in a.params
    )


def test_training_reduces_loss():
    bench = toy_benchmark(seed=3, n_entities=10, n_train=30, n_valid=6)
    config = small_config(epochs=10, lr=0.02)
    ckpt = train(bench, config)
    losses = ckpt.history["train_loss"]
    assert len(losses) == 10
    assert losses[-1] < losses[0]


def test_best_selection_takes_max_validation_auc():
    bench = toy_benchmark(seed=4, n_entities=9, n_train=20, n_valid=6)
    ckpt = train(bench, small_config(epochs=5))
    assert ckpt.best_val_auc == max(ckpt.history["val_auc"])
    assert ckpt.history["val_auc"][ckpt.best_epoch] == ckpt.best_val_auc


def test_patience_stops_stalled_run():
    bench = toy_benchmark(seed=5, n_entities=8, n_train=12, n_valid=4)
    # zero learning rate freezes parameters, so validation never improves
    config = small_config(epochs=50, lr=0.0, patience=3)
    ckpt = train(bench, config)
    assert ckpt.best_epoch == 0
    assert len(ckpt.history["val_auc"]) == 4  # epochs 0..patience
    for name, value in ckpt.params.items():
        assert np.array_equal(
            value,
            init_params(config.model, bench.vocab.num_relations,
                        np.random.default_rng(config.seed))[name],
        )


def test_no_validation_keeps_final_params():
    bench = toy_benchmark(seed=6, n_entities=8, n_train=12, n_valid=0)
    ckpt = train(bench, small_config(epochs=2))
    assert ckpt.best_val_auc is None
    assert ckpt.best_epoch == 1
    reference = init_params(
        ckpt.config, bench.vocab.num_relations, np.random.default_rng(0)
    )
    assert any(
        not np.array_equal(ckpt.params[name], reference[name]) for name in ckpt.params
    )


def test_schema_mode_requires_vectors():
    bench = toy_benchmark(seed=7, n_entities=8, n_train=12, n_valid=4)
    config = small_config(model=ModelConfig(dim=4, hops=2, init_mode="schema"))
    with pytest.raises(TrainError, match="schema"):
        train(bench, config)


def test_schema_mode_trains():
    bench = toy_benchmark(seed=7, n_entities=8, n_train=12, n_valid=3)
    config = small_config(
        model=ModelConfig(dim=4, hops=2, init_mode="schema", edge_dropout=0.0),
        epochs=1,
    )
    rng = np.random.default_rng(0)
    vectors = {name: rng.normal(size=300) for name in bench.vocab.relation_names}
    ckpt = train(bench, config, schema_vectors=vectors)
    assert "schema_w1" in ckpt.params and "rel_emb" not in ckpt.params
    for value in ckpt.params.values():
        assert np.all(np.isfinite(value))


def test_checkpoint_records_vocabulary():
    bench = toy_benchmark(seed=8, n_entities=8, n_train=12, n_valid=3)
    ckpt = train(bench, small_config(epochs=1))
    assert ckpt.vocab_digest == bench.vocab.digest()
    assert ckpt.relation_names == tuple(bench.vocab.relation_names)
    assert all(ckpt.seen_flags)


def test_trained_checkpoint_saves_and_reloads(tmp_path):
    bench = toy_benchmark(seed=9, n_entities=8, n_train=12, n_valid=3)
    ckpt = train(bench, small_config(epochs=1))
    save_checkpoint(ckpt, str(tmp_path))
    back = load_checkpoint(str(tmp_path))
    assert back.config == ckpt.config
    for name, value in ckpt.params.items():
        assert np.allclose(back.params[name], value, atol=1e-6)
