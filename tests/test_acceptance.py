"""Acceptance gate: one numbered test per stated criterion.

Run with `pytest tests/test_acceptance.py -v` to get one pass/fail/skip line
per criterion.  Criteria 5-8 need the public benchmark datasets on disk;
they skip with instructions when `RMPI_DATA_DIR` does not provide them (see
README, "Benchmark data").  Everything else runs self-contained.
"""

import os
import time
from dataclasses import replace

import numpy as np
import pytest

import oracles
from synth import make_vocab, random_graph, toy_benchmark

from rmpi.evalbench import auc_pr, classify, rank_entities, rank_of, rank_queries, recombine
from rmpi.kgstore import KnowledgeGraph, Triple, load_benchmark
from rmpi.numkit import Tape, dot, segment_softmax
from rmpi.rmpnet import (
    ModelConfig,
    bind_params,
    init_params,
    propagate,
    score_sample,
    stack_samples,
    FeatureSource,
)
from rmpi.schema import load_schema, pretrain, save_vectors, load_vectors
from rmpi.subgraph import (
    EDGE_TYPE_NAMES,
    NO_LABELS,
    extract_disclosing,
    extract_enclosing,
    prune_to_target,
    to_relation_view,
)
from rmpi.trainlab import Checkpoint, SampleCache, TrainConfig, build_sample, train

DATA_ENV = "RMPI_DATA_DIR"
BENCH_FILES = ("train.txt", "valid.txt", "test_graph.txt", "test.txt")


def _dataset(name):
    """Resolve a benchmark directory or skip with provisioning instructions."""
    root = os.environ.get(DATA_ENV)
    hint = (
        f"provide the public GraIL-format split as {name}/ with files "
        f"{', '.join(BENCH_FILES)} (see README, 'Benchmark data' for the "
        "renaming of the released files)"
    )
    if not root:
        pytest.skip(f"set {DATA_ENV} to a dataset directory; {hint}")
    path = os.path.join(root, name)
    missing = [f for f in BENCH_FILES if not os.path.isfile(os.path.join(path, f))]
    if missing:
        pytest.skip(f"{path} lacks {missing}; {hint}")
    return path


def _schema_path():
    root = os.environ.get(DATA_ENV)
    if not root:
        pytest.skip(f"set {DATA_ENV} to a dataset directory containing nell_schema.tsv")
    path = os.path.join(root, "nell_schema.tsv")
    if not os.path.isfile(path):
        pytest.skip(
            f"{path} not found; provide the NELL ontology as tab-separated "
            "subject<TAB>predicate<TAB>object rows using the rdfs predicates"
        )
    return path


def _source(tape, pvars, config):
    # no row map: every relation id is its own embedding row
    return FeatureSource(tape, pvars, config)


def _variant_grid(dim=4, hops=2):
    out = []
    for ne in (False, True):
        for ta in (False, True):
            for fu in ("sum", "conc") if ne else ("sum",):
                out.append(
                    ModelConfig(
                        hops=hops, dim=dim, edge_dropout=0.0,
                        use_disclosing=ne, target_attention=ta, fusion=fu,
                    )
                )
    return out


# -------------------------------------------------------------- criterion 1

def test_criterion_01_line_graph_matches_bruteforce_oracle():
    rng = np.random.default_rng(1001)
    start = time.monotonic()
    for trial in range(200):
        n_e = int(rng.integers(2, 9))
        n_r = int(rng.integers(1, 6))
        g = random_graph(rng, n_e, n_r, int(rng.integers(1, 31)))
        target = Triple(
            int(rng.integers(n_e)), int(rng.integers(n_r)), int(rng.integers(n_e))
        )
        extract = extract_enclosing if trial % 2 else extract_disclosing
        sub = extract(g, target, 2)
        rvg = to_relation_view(sub)
        got = {(s, EDGE_TYPE_NAMES[et], d) for s, et, d in rvg.edges}
        assert got == oracles.relation_view_edges(sub.triples)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"200 line-graph checks took {elapsed:.1f}s"
    print(f"criterion 1 PASS: 200 graphs edge-identical to oracle in {elapsed:.1f}s")


# -------------------------------------------------------------- criterion 2

def test_criterion_02_pruned_propagation_equals_full_graph():
    rng = np.random.default_rng(1002)
    start = time.monotonic()
    for trial in range(100):
        n_e = int(rng.integers(5, 10))
        n_r = int(rng.integers(3, 6))
        g = random_graph(rng, n_e, n_r, int(rng.integers(8, 19)))
        target = Triple(
            int(rng.integers(n_e)), n_r - 1, int(rng.integers(n_e))
        )
        config = ModelConfig(
            hops=2, dim=5, edge_dropout=0.0, target_attention=bool(trial % 2)
        )
        params = init_params(config, n_r, np.random.default_rng(2000 + trial))
        sample = build_sample(g, target, config)
        tape = Tape()
        pvars = bind_params(tape, params)
        batch = stack_samples([sample], config.hops)
        table = _source(tape, pvars, config).table(batch.labels)
        h_target = propagate(batch, table, pvars, config)
        rvg = to_relation_view(extract_enclosing(g, target, config.hops))
        h0 = {i: params["rel_emb"][lab] for i, lab in enumerate(rvg.labels)}
        want = oracles.full_forward(
            rvg.labels, rvg.edges, rvg.target_index,
            h0, params, config.hops, config.leaky_slope, config.target_attention,
        )
        np.testing.assert_allclose(h_target.value[0], want, atol=1e-9)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"100 pruning checks took {elapsed:.1f}s"
    print(f"criterion 2 PASS: pruned == full propagation (1e-9) in {elapsed:.1f}s")


# -------------------------------------------------------------- criterion 3

def test_criterion_03_gradients_match_finite_differences():
    rng = np.random.default_rng(1003)
    start = time.monotonic()
    subgraphs = []
    while len(subgraphs) < 20:
        n_e = int(rng.integers(4, 8))
        g = random_graph(rng, n_e, 4, int(rng.integers(6, 13)))
        target = Triple(int(rng.integers(n_e)), 3, int(rng.integers(n_e)))
        rvg = to_relation_view(extract_enclosing(g, target, 2))
        if 3 <= rvg.num_nodes <= 6:
            subgraphs.append((g, target))
    worst = 0.0
    for gi, (g, target) in enumerate(subgraphs):
        for config in _variant_grid(dim=3):
            params = init_params(config, 4, np.random.default_rng(3000 + gi))
            sample = build_sample(g, target, config)

            def loss_fn(p):
                tape = Tape()
                pvars = bind_params(tape, p)
                return float(
                    score_sample([sample], _source(tape, pvars, config), pvars, config,
                                 training=True).value[0]
                )

            tape = Tape()
            pvars = bind_params(tape, params)
            # the training forward, the one differentiated; dropout 0
            out = score_sample([sample], _source(tape, pvars, config), pvars, config,
                               training=True)
            grads = tape.backward(dot(out, tape.const(np.ones(1))))
            worst = max(worst, oracles.check_grads(loss_fn, grads, params))
    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"gradient suite took {elapsed:.1f}s"
    print(
        f"criterion 3 PASS: 20 subgraphs x 6 variant configs, worst rel err "
        f"{worst:.2e} in {elapsed:.1f}s"
    )


# -------------------------------------------------------------- criterion 4

def test_criterion_04_metric_units():
    value = auc_pr([0.9, 0.8, 0.7, 0.6], [1, 0, 1, 0])
    assert abs(value - 0.8333) <= 1e-4

    assert rank_of(0.0, np.zeros(49)) == 50

    # end to end: a zero scoring head makes every score identical
    vocab = make_vocab(60, 2)
    graph = KnowledgeGraph(vocab, [Triple(i, i % 2, i + 1) for i in range(59)])
    config = ModelConfig(dim=4, hops=2, edge_dropout=0.0)
    params = init_params(config, 2, np.random.default_rng(0))
    params["score_w"] = np.zeros_like(params["score_w"])
    ckpt = Checkpoint(
        config=config, params=params, vocab_digest=vocab.digest(),
        relation_names=tuple(vocab.relation_names), seen_flags=(True, True),
    )
    outcome = rank_entities(ckpt, graph, graph.triples[0], "tail", seed=4)
    assert outcome.num_candidates == 49 and outcome.rank == 50

    rng = np.random.default_rng(40)
    for _ in range(25):
        tape = Tape()
        size = int(rng.integers(1, 9))
        weights = segment_softmax(tape.const(rng.normal(size=size)), np.zeros(size, int), 1).value
        assert np.all(weights >= 0.0)
        assert abs(weights.sum() - 1.0) <= 1e-12
    print("criterion 4 PASS: AUC-PR 0.8333, constant-scorer rank 50, simplex holds")


# -------------------------------------------------------------- criterion 5

def test_criterion_05_recombination_reproduces_published_counts(tmp_path):
    v2 = _dataset("NELL-995.v2")
    v3 = _dataset("NELL-995.v3")
    start = time.monotonic()
    result = recombine(v2, v3, str(tmp_path / "NELL-995.v2.v3"))

    def relations(bench):
        rows = list(bench.test_graph.triples) + list(bench.test)
        return {bench.vocab.relation_names[t.relation] for t in rows}

    semi_rel = relations(result.semi)
    fully_rel = relations(result.fully)
    elapsed = time.monotonic() - start
    assert len(semi_rel) == 116, f"semi relations {len(semi_rel)} != 116"
    assert len(result.unseen_relations) == 49
    assert len(fully_rel) == 49, f"fully relations {len(fully_rel)} != 49"
    assert elapsed < 10.0
    print(f"criterion 5 PASS: semi 116 relations (49 unseen), fully 49, {elapsed:.1f}s")


# -------------------------------------------------------------- criteria 6-8 helpers

def _train_and_classify(bench, model, seeds, epochs, schema_vectors=None):
    aucs = []
    checkpoints = []
    for seed in seeds:
        config = TrainConfig(model=model, epochs=epochs, seed=seed)
        ckpt = train(bench, config, schema_vectors=schema_vectors)
        cache = SampleCache(bench.test_graph, model)
        result = classify(ckpt, bench.test_graph, bench.test, seed=seed,
                          schema_vectors=schema_vectors, cache=cache)
        aucs.append(result.auc_pr)
        checkpoints.append(ckpt)
    return float(np.mean(aucs)), checkpoints


# -------------------------------------------------------------- criterion 6

def test_criterion_06_partially_inductive_wn18rr_floors():
    data = _dataset("WN18RR.v1")
    bench = load_benchmark(data)
    model = ModelConfig()  # defaults: 2 hops, dim 32, dropout 0.5
    mean_auc, checkpoints = _train_and_classify(
        bench, model, seeds=range(5), epochs=30
    )
    hits = []
    for seed, ckpt in enumerate(checkpoints):
        cache = SampleCache(bench.test_graph, model)
        ranking = rank_queries(
            ckpt, bench.test_graph, bench.test, num_neg=49, seed=seed,
            hits_at=(10,), cache=cache,
        )
        hits.append(ranking.hits[10])
    mean_hits = float(np.mean(hits))
    assert mean_auc * 100.0 >= 90.0, f"AUC-PR {mean_auc * 100:.2f} below the 90 floor"
    assert mean_hits * 100.0 >= 75.0, f"Hits@10 {mean_hits * 100:.2f} below the 75 floor"
    print(
        f"criterion 6 PASS: WN18RR.v1 mean AUC-PR {mean_auc * 100:.2f}, "
        f"Hits@10 {mean_hits * 100:.2f}"
    )


# -------------------------------------------------------------- criterion 7

def _nell_v1_v3(tmp_path):
    v1 = _dataset("NELL-995.v1")
    v3 = _dataset("NELL-995.v3")
    out = tmp_path / "NELL-995.v1.v3"
    recombine(v1, v3, str(out))
    return load_benchmark(str(out / "semi")), load_benchmark(str(out / "fully"))


def test_criterion_07_fully_inductive_random_init_floors(tmp_path):
    semi, fully = _nell_v1_v3(tmp_path)
    model = ModelConfig()
    mean_semi, checkpoints = _train_and_classify(semi, model, range(5), epochs=30)

    fully_aucs = []
    for seed, ckpt in enumerate(checkpoints):
        cache = SampleCache(fully.test_graph, model)
        result = classify(ckpt, fully.test_graph, fully.test, seed=seed, cache=cache)
        assert len(result.scores) == 2 * len(fully.test)  # every target scored
        fully_aucs.append(result.auc_pr)
    mean_fully = float(np.mean(fully_aucs))
    assert mean_semi * 100.0 >= 78.0, f"semi AUC-PR {mean_semi * 100:.2f} below 78"
    assert mean_fully * 100.0 >= 75.0, f"fully AUC-PR {mean_fully * 100:.2f} below 75"
    print(
        f"criterion 7 PASS: NELL-995.v1.v3 random init semi {mean_semi * 100:.2f}, "
        f"fully {mean_fully * 100:.2f}"
    )


# -------------------------------------------------------------- criterion 8

def test_criterion_08_schema_pipeline(tmp_path):
    schema_file = _schema_path()
    semi, _ = _nell_v1_v3(tmp_path)

    schema = load_schema(schema_file)
    assert len(schema.node_names) == 1186, f"schema nodes {len(schema.node_names)}"
    assert len(schema.edges) == 3055, f"schema triples {len(schema.edges)}"
    emb = pretrain(schema, dim=300, epochs=300, seed=0)
    losses = np.asarray(emb.loss_history)
    smoothed = oracles.moving_average(losses, window=10)
    tol = 0.05 * smoothed.max()
    after_warmup = smoothed[30:]
    assert losses[-1] < 0.5 * losses[0], "pretraining loss did not shrink"
    assert np.all(np.diff(after_warmup) <= tol), "epoch-mean loss not monotone"

    vec_dir = tmp_path / "schema_vectors"
    save_vectors(emb, str(vec_dir))
    vectors = load_vectors(str(vec_dir))

    mean_random, _ = _train_and_classify(semi, ModelConfig(), range(5), epochs=30)
    mean_schema, _ = _train_and_classify(
        semi, ModelConfig(init_mode="schema"), range(5), epochs=30,
        schema_vectors=vectors,
    )
    gain = (mean_schema - mean_random) * 100.0
    assert gain >= 3.0, f"schema init gains {gain:.2f} points, below 3"
    print(
        f"criterion 8 PASS: pretraining converged; schema init {mean_schema * 100:.2f} "
        f"vs random {mean_random * 100:.2f} (+{gain:.2f})"
    )


# -------------------------------------------------------------- criterion 9

def test_criterion_09_empty_subgraph_robustness():
    # two disjoint communities; the target spans them, so the enclosing
    # subgraph holds the injected target edge and nothing else
    vocab = make_vocab(8, 3)
    rows = [
        Triple(0, 0, 1), Triple(1, 1, 2), Triple(2, 0, 3), Triple(3, 1, 0),
        Triple(4, 0, 5), Triple(5, 1, 6), Triple(6, 0, 7), Triple(7, 1, 4),
    ]
    graph = KnowledgeGraph(vocab, rows)
    target = Triple(0, 2, 4)

    scores = {}
    for config in _variant_grid(dim=4):
        sample = build_sample(graph, target, config)
        rvg = to_relation_view(extract_enclosing(graph, target, config.hops))
        assert rvg.num_nodes == 1
        assert rvg.edges.shape == (0, 3)
        tape = Tape()
        pvars = bind_params(tape, init_params(config, 3, np.random.default_rng(9)))
        out = score_sample([sample], _source(tape, pvars, config), pvars, config)
        assert np.isfinite(out.value).all()
        key = (config.use_disclosing, config.target_attention, config.fusion)
        scores[key] = float(out.value[0])

    # NE variants must react to the disclosing neighborhood, base must not
    ne_config = ModelConfig(dim=4, hops=2, edge_dropout=0.0, use_disclosing=True)
    sample = build_sample(graph, target, ne_config)
    assert len(sample.labels), "target endpoints have one-hop context"
    # collapse every neighbor onto one label so the label multiset changes
    relabeled = replace(sample, labels=np.zeros_like(sample.labels))
    assert sorted(relabeled.labels.tolist()) != sorted(sample.labels.tolist())
    params = init_params(ne_config, 3, np.random.default_rng(9))

    def run(cfg, s):
        tape = Tape()
        pvars = bind_params(tape, params)
        return float(score_sample([s], _source(tape, pvars, cfg), pvars, cfg).value[0])

    assert run(ne_config, sample) != run(ne_config, relabeled)

    base_config = ModelConfig(dim=4, hops=2, edge_dropout=0.0)
    base_params = init_params(base_config, 3, np.random.default_rng(9))

    def run_base(s):
        tape = Tape()
        pvars = bind_params(tape, base_params)
        return float(
            score_sample(
                [replace(s, labels=NO_LABELS)],
                _source(tape, pvars, base_config), pvars, base_config,
            ).value[0]
        )

    assert run_base(sample) == run_base(relabeled)
    print("criterion 9 PASS: all variants score empty subgraphs; NE reacts to context")
