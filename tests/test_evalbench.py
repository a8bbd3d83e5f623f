import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rmpi.evalbench as evalbench
from rmpi.evalbench import (
    EvalError,
    RankingResult,
    auc_pr,
    classify,
    rank_entities,
    rank_of,
    rank_queries,
    recombine,
    write_report,
)
from rmpi.kgstore import KnowledgeGraph, Triple, load_benchmark
from rmpi.rmpnet import ModelConfig, init_params
from rmpi.trainlab import Checkpoint

from oracles import average_precision_ref, trapezoid_pr_area
from synth import make_vocab, write_benchmark_dir


# ---------------------------------------------------------------- auc_pr

def test_auc_pr_perfect_separation():
    assert auc_pr([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0


def test_auc_pr_interleaved_hand_value():
    value = auc_pr([0.9, 0.8, 0.7, 0.6], [1, 0, 1, 0])
    assert value == (1.0 + 2.0 / 3.0) / 2.0
    assert abs(value - 0.8333) < 1e-4


def test_auc_pr_all_positive():
    assert auc_pr([0.3, 0.1, 0.2], [1, 1, 1]) == 1.0


def test_auc_pr_ties_keep_input_order():
    # all scores equal: the stable sort ranks positives by input position
    assert auc_pr([1.0, 1.0, 1.0, 1.0], [0, 1, 0, 1]) == (1 / 2 + 2 / 4) / 2
    assert auc_pr([1.0, 1.0, 1.0, 1.0], [1, 0, 1, 0]) == (1.0 + 2.0 / 3.0) / 2.0


def test_auc_pr_rejects_degenerate_input():
    with pytest.raises(EvalError):
        auc_pr([0.5, 0.4], [0, 0])
    with pytest.raises(EvalError):
        auc_pr([0.5, 0.4], [1])


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_auc_pr_matches_reference(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 40))
    scores = rng.normal(size=n)
    labels = rng.integers(0, 2, size=n)
    labels[int(rng.integers(n))] = 1
    value = auc_pr(scores, labels)
    assert abs(value - average_precision_ref(list(scores), list(labels))) < 1e-12
    assert 0.0 <= value <= 1.0


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_auc_pr_near_trapezoid_integration(seed):
    rng = np.random.default_rng(seed)
    n = 200 + int(rng.integers(0, 100))
    scores = rng.normal(size=n)
    labels = (rng.random(size=n) < 0.4).astype(int)
    labels[0] = 1
    assert abs(auc_pr(scores, labels) - trapezoid_pr_area(list(scores), list(labels))) < 0.02


# ---------------------------------------------------------------- rank_of

def test_rank_of_cases():
    assert rank_of(5.0, [1.0, 2.0, 3.0]) == 1
    assert rank_of(0.0, np.zeros(49)) == 50  # ties count against
    assert rank_of(1.0, [2.0, 1.0, 0.0]) == 3


@given(st.lists(st.floats(-5, 5), min_size=1, max_size=30), st.integers(0, 999))
@settings(max_examples=60, deadline=None)
def test_rank_of_permutation_invariant(cand, seed):
    rng = np.random.default_rng(seed)
    gt = float(rng.uniform(-5, 5))
    shuffled = list(cand)
    rng.shuffle(shuffled)
    assert rank_of(gt, cand) == rank_of(gt, shuffled)
    assert 1 <= rank_of(gt, cand) <= len(cand) + 1


# ---------------------------------------------------------------- fixtures

def chain_graph(n_entities=60, n_relations=2):
    vocab = make_vocab(n_entities, n_relations)
    triples = [
        Triple(i, i % n_relations, i + 1) for i in range(n_entities - 1)
    ]
    return KnowledgeGraph(vocab, triples)


def make_ckpt(graph, seed=0, zero_score=False):
    config = ModelConfig(dim=4, hops=2, edge_dropout=0.0)
    params = init_params(config, graph.vocab.num_relations, np.random.default_rng(seed))
    if zero_score:
        params["score_w"] = np.zeros_like(params["score_w"])
    n_rel = graph.vocab.num_relations
    return Checkpoint(
        config=config,
        params=params,
        vocab_digest=graph.vocab.digest(),
        relation_names=tuple(graph.vocab.relation_names),
        seen_flags=(True,) * n_rel,
    )


# ---------------------------------------------------------------- classify

def test_classify_pools_positives_then_negatives():
    graph = chain_graph(12)
    ckpt = make_ckpt(graph)
    targets = graph.triples[:6]
    result = classify(ckpt, graph, targets, seed=3)
    assert len(result.scores) == 12
    assert result.labels == (1,) * 6 + (0,) * 6
    assert 0.0 <= result.auc_pr <= 1.0


def test_classify_deterministic_per_seed():
    graph = chain_graph(12)
    ckpt = make_ckpt(graph)
    targets = graph.triples[:5]
    a = classify(ckpt, graph, targets, seed=3)
    b = classify(ckpt, graph, targets, seed=3)
    assert a == b


def test_classify_perfect_scorer(monkeypatch):
    graph = chain_graph(12)
    ckpt = make_ckpt(graph)
    targets = set(graph.triples[:6])

    def fake_scores(params, config, cache, triples, *args, **kwargs):
        return np.array([1.0 if Triple(*t) in targets else 0.0 for t in triples])

    monkeypatch.setattr(evalbench, "score_triples", fake_scores)
    result = classify(ckpt, graph, sorted(targets), seed=0)
    assert result.auc_pr == 1.0


def test_classify_rejects_empty_targets():
    graph = chain_graph(8)
    with pytest.raises(EvalError):
        classify(make_ckpt(graph), graph, [], seed=0)


# ---------------------------------------------------------------- ranking

def test_rank_constant_scorer_is_pessimistic():
    graph = chain_graph(60)
    ckpt = make_ckpt(graph, zero_score=True)
    outcome = rank_entities(ckpt, graph, graph.triples[0], "tail", seed=1)
    assert outcome.num_candidates == 49
    assert outcome.rank == 50


def test_rank_small_pool_uses_every_entity():
    graph = chain_graph(8)
    ckpt = make_ckpt(graph, zero_score=True)
    outcome = rank_entities(ckpt, graph, graph.triples[0], "head", seed=1)
    assert outcome.num_candidates == 7
    assert outcome.rank == 8


def test_rank_ground_truth_on_top(monkeypatch):
    graph = chain_graph(12)
    ckpt = make_ckpt(graph)

    def fake_scores(params, config, cache, triples, *args, **kwargs):
        return np.linspace(1.0, 0.0, len(triples))  # query scored first

    monkeypatch.setattr(evalbench, "score_triples", fake_scores)
    outcome = rank_entities(ckpt, graph, graph.triples[0], "tail", seed=0)
    assert outcome.rank == 1


@pytest.mark.parametrize("side", ["head", "tail"])
def test_rank_without_candidates_is_an_error(side):
    vocab = make_vocab(3, 1)
    empty = KnowledgeGraph(vocab, [])
    with pytest.raises(EvalError, match=rf"{side} of query \(0, 0, 1\)"):
        rank_entities(make_ckpt(empty), empty, Triple(0, 0, 1), side)
    with pytest.raises(EvalError, match="no candidate entities"):
        rank_queries(make_ckpt(empty), empty, [Triple(0, 0, 1)], sides=(side,))


def test_rank_with_one_candidate_reports_it():
    # the graph's only other entity than the truth is the whole pool
    graph = KnowledgeGraph(make_vocab(2, 1), [Triple(0, 0, 1)])
    ckpt = make_ckpt(graph, zero_score=True)
    assert rank_entities(ckpt, graph, Triple(0, 0, 1), "tail", num_neg=49) == (2, 1)
    # a graph whose one entity is the truth leaves none
    loop = KnowledgeGraph(make_vocab(2, 1), [Triple(1, 0, 1)])
    with pytest.raises(EvalError, match="tail of query"):
        rank_entities(make_ckpt(loop), loop, Triple(0, 0, 1), "tail")


@pytest.mark.parametrize("task", ["classify", "rank"])
def test_eval_indexes_only_the_test_graph(tmp_path, graphs_built, task):
    data = write_benchmark_dir(
        tmp_path / "bench",
        train=[("a0", "ra", "a1"), ("a1", "rb", "a2")],
        test_graph=[("b0", "ra", "b1"), ("b1", "rb", "b2"), ("b2", "ra", "b3")],
        test=[("b0", "rb", "b2"), ("b1", "ra", "b3")],
    )
    bench = load_benchmark(str(data))
    graph = bench.test_graph
    ckpt = make_ckpt(graph)
    if task == "classify":
        classify(ckpt, graph, bench.test, seed=0)
    else:
        rank_queries(ckpt, graph, bench.test, num_neg=2, seed=0)
    assert graphs_built == [graph]


def test_rank_rejects_unknown_side():
    graph = chain_graph(8)
    with pytest.raises(EvalError, match="side"):
        rank_entities(make_ckpt(graph), graph, graph.triples[0], "middle")


def copied_pool_candidates(entities, truth, num_neg, rng):
    """The candidate rule as first written: copy the list without the truth."""
    pool = [e for e in entities if e != truth]
    if len(pool) > num_neg:
        picked = rng.choice(len(pool), size=num_neg, replace=False)
        pool = [pool[i] for i in picked]
    return pool


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=40), max_size=30, unique=True),
    st.integers(min_value=-1, max_value=41),
    st.integers(min_value=1, max_value=35),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_candidates_match_the_copied_pool_rule(entities, truth, num_neg, seed):
    # truths in the list and absent from it, pools above and below num_neg
    entities = sorted(entities)
    got = evalbench.candidate_entities(entities, truth, num_neg, np.random.default_rng(seed))
    want = copied_pool_candidates(entities, truth, num_neg, np.random.default_rng(seed))
    assert got == want
    assert truth not in got


def test_candidates_by_hand():
    entities = list(range(0, 20, 2))
    assert evalbench.candidate_entities(entities, 4, 9, None) == [0, 2, 6, 8, 10, 12, 14, 16, 18]
    assert evalbench.candidate_entities(entities, 5, 10, None) == entities
    for truth in (0, 4, 5, 18, 19):
        for num_neg in (1, 5, 8):
            got = evalbench.candidate_entities(entities, truth, num_neg, np.random.default_rng(3))
            want = copied_pool_candidates(entities, truth, num_neg, np.random.default_rng(3))
            assert got == want and len(got) == num_neg


def test_rank_queries_both_sides_aggregation():
    graph = chain_graph(60)
    ckpt = make_ckpt(graph, zero_score=True)
    queries = graph.triples[:3]
    result = rank_queries(ckpt, graph, queries, seed=2, hits_at=(1, 10, 50))
    assert len(result.ranks) == 6  # head and tail per query
    assert result.ranks == (50,) * 6
    assert result.mrr == pytest.approx(0.02)
    assert result.hits == {1: 0.0, 10: 0.0, 50: 1.0}
    one_side = rank_queries(ckpt, graph, queries, sides=("head",), seed=2)
    assert len(one_side.ranks) == 3


def test_rank_queries_deterministic():
    graph = chain_graph(20)
    ckpt = make_ckpt(graph)
    queries = graph.triples[:2]
    a = rank_queries(ckpt, graph, queries, num_neg=10, seed=5)
    b = rank_queries(ckpt, graph, queries, num_neg=10, seed=5)
    assert a.ranks == b.ranks
    assert np.mean([1.0 / r for r in a.ranks]) == pytest.approx(a.mrr)


def test_ranking_result_validates_hits_monotone():
    with pytest.raises(EvalError, match="non-decreasing"):
        RankingResult(
            ranks=(2,), candidate_counts=(5,), mrr=0.5, hits={1: 0.5, 10: 0.2}
        )


# ---------------------------------------------------------------- recombine

def seed_version_dirs(tmp_path):
    vi = write_benchmark_dir(
        tmp_path / "vi",
        train=[("a0", "ra", "a1"), ("a1", "rb", "a2")],
        valid=[("a0", "rb", "a2")],
        test_graph=[("a0", "ra", "a2")],
        test=[("a1", "ra", "a2")],
    )
    vj = write_benchmark_dir(
        tmp_path / "vj",
        train=[("b0", "ra", "b1")],
        test_graph=[("b0", "ra", "b1"), ("b1", "rc", "b2"), ("a0", "rc", "b3")],
        test=[("b2", "rc", "b0"), ("b0", "ra", "b2"), ("b4", "rb", "a2")],
    )
    return vi, vj


def test_recombine_filters_and_splits(tmp_path):
    vi, vj = seed_version_dirs(tmp_path)
    out = tmp_path / "cross"
    result = recombine(str(vi), str(vj), str(out))

    assert result.unseen_relations == ("rc",)
    assert (out / "unseen_relations.txt").read_text() == "rc\n"

    semi = result.semi
    assert len(semi.test_graph.triples) == 2  # the a0 row is dropped
    assert len(semi.test) == 2
    assert len(semi.train.triples) == 2 and len(semi.valid) == 1

    fully = result.fully
    names = {
        (
            fully.vocab.entity_names[t.head],
            fully.vocab.relation_names[t.relation],
            fully.vocab.entity_names[t.tail],
        )
        for t in list(fully.test_graph.triples) + list(fully.test)
    }
    assert names == {("b1", "rc", "b2"), ("b2", "rc", "b0")}


def test_recombine_outputs_are_loadable_benchmarks(tmp_path):
    vi, vj = seed_version_dirs(tmp_path)
    out = tmp_path / "cross"
    recombine(str(vi), str(vj), str(out))
    for setting in ("semi", "fully"):
        bench = load_benchmark(str(out / setting))
        train_entities = {bench.vocab.entity_names[e] for e in bench.train.entities}
        for t in list(bench.test_graph.triples) + list(bench.test):
            assert bench.vocab.entity_names[t.head] not in train_entities
            assert bench.vocab.entity_names[t.tail] not in train_entities


def test_recombine_relation_counts(tmp_path):
    # relation tallies over the semi and fully test sides
    vi, vj = seed_version_dirs(tmp_path)
    result = recombine(str(vi), str(vj), str(tmp_path / "cross"))
    semi_rel = {
        result.semi.vocab.relation_names[t.relation]
        for t in list(result.semi.test_graph.triples) + list(result.semi.test)
    }
    fully_rel = {
        result.fully.vocab.relation_names[t.relation]
        for t in list(result.fully.test_graph.triples) + list(result.fully.test)
    }
    assert semi_rel == {"ra", "rc"}
    assert fully_rel == {"rc"}
    assert set(result.unseen_relations) == semi_rel - {"ra", "rb"}


def test_recombine_with_self_warns_empty_fully(tmp_path):
    vi, _ = seed_version_dirs(tmp_path)
    out = tmp_path / "self"
    with pytest.warns(UserWarning, match="empty fully"):
        result = recombine(str(vi), str(vi), str(out))
    assert result.unseen_relations == ()
    assert len(result.fully.test_graph.triples) == 0
    assert len(result.fully.test) == 0


# ---------------------------------------------------------------- reports

def test_write_report_formats(tmp_path):
    metrics = {"auc_pr": 0.5, "mrr": 0.25, "hits@10": 1.0}
    tsv_path, json_path = write_report(metrics, str(tmp_path), stem="out")
    lines = open(tsv_path).read().splitlines()
    assert lines == ["auc_pr\t0.5", "mrr\t0.25", "hits@10\t1.0"]
    assert json.load(open(json_path)) == metrics
