import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from rmpi import numkit as nk
from rmpi import rmpnet, subgraph
from rmpi.kgstore import KnowledgeGraph, Triple
from rmpi.numkit import Tape
from rmpi.rmpnet import (
    FeatureSource,
    ModelConfig,
    ModelError,
    SampleBatch,
    bind_params,
    disclosing_aggregate,
    fresh_unseen_vector,
    init_params,
    layer_param,
    propagate,
    score,
    score_sample,
    stack_samples,
)
from rmpi.subgraph import (
    EDGE_TYPE_NAMES,
    NO_LABELS,
    RelationViewGraph,
    Subgraph,
    extract_disclosing,
    extract_enclosing,
    prune_to_target,
    to_relation_view,
)
from synth import edge_array, make_vocab, random_graph


def seen_rows(num_seen, num_relations=100):
    """A row map under which relations 0 .. num_seen - 1 have learned rows."""
    ids = np.arange(num_relations)
    return np.where(ids < num_seen, ids, -1)


def make_source(tape, pvars, config, num_seen=100, schema=None, run_seed=0):
    return FeatureSource(tape, pvars, config, seen_rows(num_seen), schema, run_seed)


def build_sample(graph, target, config):
    labels = NO_LABELS
    if config.use_disclosing:
        drvg = to_relation_view(extract_disclosing(graph, target, config.hops))
        labels = np.array([label for _, label in oracles.disclosing_one_hop(drvg)],
                          dtype=np.int32)
    sub = extract_enclosing(graph, target, config.hops)
    return Subgraph(graph, sub.indexes, sub.target, sub.levels, labels)


def sample_triples(sample):
    """A sample's nodes as triples: its graph triples, then its target."""
    return tuple(sample.graph.triples[i] for i in sample.indexes) + (sample.target,)


def view_batch(rvg, hops, disclosing=()):
    """A training batch of one sample over the hand-made view rvg, whose
    layers read prune_to_target's edges of rvg.  Those edges need not be
    the ones its triples would give, so tests of one layer's arithmetic
    may give any."""
    labels = sorted(set(rvg.labels).union(label for _, label in disclosing))
    row = {label: i for i, label in enumerate(labels)}
    return SampleBatch(
        labels=np.array(labels),
        node_rows=np.array([row[label] for label in rvg.labels], dtype=np.intp),
        node_sample=np.zeros(rvg.num_nodes, dtype=np.intp),
        targets=np.array([rvg.target_index]),
        depth=hops,
        layer_edges=prune_to_target(rvg, hops),
        incidences=None,
        disc_rows=np.array([row[label] for _, label in disclosing], dtype=np.intp),
        disc_sample=np.zeros(len(disclosing), dtype=np.intp),
    )


def pruned(graph, target, hops):
    """Per layer 1..K, K = hops, the view edges the training forward of
    target's sample reads."""
    return prune_to_target(to_relation_view(extract_enclosing(graph, target, hops)), hops)


def run_score(graph, target, config, params, run_seed=0, training=False, drop_rng=None):
    sample = build_sample(graph, target, config)
    tape = Tape()
    pvars = bind_params(tape, params)
    source = make_source(tape, pvars, config, run_seed=run_seed)
    out = score_sample([sample], source, pvars, config, training=training, drop_rng=drop_rng)
    return float(out.value[0]), tape, out


def target_features(samples, source, pvars, config):
    """The scoring propagate over the stacked samples, initial features
    from source."""
    batch = stack_samples(samples, config.hops)
    return propagate(batch, source.table(batch.labels), pvars, config)


def propagate_from(tape, batch, feature_by_label, pvars, config):
    """The training forward, without dropout, over one hand-made view's
    batch whose nodes start from the given features."""
    table = tape.const(np.stack([feature_by_label[label] for label in batch.labels]))
    return propagate(batch, table, pvars, config, training=True).value[0]


def total(out):
    """Scalar sum of a (B,) score Var, for backward."""
    return nk.dot(out, out.tape.const(np.ones(out.value.shape)))


# ----------------------------------------------------- initial features

def test_seen_relation_reads_embedding_row():
    config = ModelConfig(dim=4, edge_dropout=0.0)
    rng = np.random.default_rng(0)
    params = init_params(config, 5, rng)
    tape = Tape()
    pvars = bind_params(tape, params)
    src = make_source(tape, pvars, config, num_seen=5)
    np.testing.assert_array_equal(src.table(np.array([3, 1])).value, params["rel_emb"][[3, 1]])


def test_shared_label_shares_feature_node():
    graph = KnowledgeGraph(make_vocab(3, 3), [Triple(0, 2, 1), Triple(1, 2, 2)])
    sample = Subgraph(graph, np.array([0, 1], dtype=np.int32), Triple(0, 1, 2),
                      np.array([1, 1], dtype=np.int8), NO_LABELS)
    batch = stack_samples([sample], 2, training=True)
    # one feature row per distinct label: nodes sharing a relation read the
    # same row, so their gradients meet in one embedding row
    assert list(batch.labels) == [1, 2]
    assert batch.node_rows[0] == batch.node_rows[1]
    assert batch.node_rows[0] != batch.node_rows[2]


def test_samples_of_different_graphs_do_not_stack():
    # a sample's indices mean triples of its own graph only
    graphs = [random_graph(np.random.default_rng(seed), 5, 3, 12) for seed in (0, 1)]
    config = ModelConfig(hops=2, dim=4)
    samples = [build_sample(g, Triple(0, 1, 2), config) for g in graphs]
    for training in (False, True):
        stack_samples(samples[:1] * 2, 2, training)
        with pytest.raises(ModelError, match="samples of different graphs"):
            stack_samples(samples, 2, training)


def test_unseen_relation_draw_is_per_run_and_per_label():
    config = ModelConfig(dim=8, edge_dropout=0.0)
    params = init_params(config, 2, np.random.default_rng(0))
    tape = Tape()
    pvars = bind_params(tape, params)
    src_a = make_source(tape, pvars, config, num_seen=2, run_seed=7)
    v5, v6 = src_a.table(np.array([5, 6])).value
    assert not np.array_equal(v5, v6)
    # same run seed reproduces the draw, different seed changes it
    np.testing.assert_array_equal(v5, fresh_unseen_vector(7, 5, 8))
    assert not np.array_equal(v5, fresh_unseen_vector(8, 5, 8))


def test_a_source_draws_each_unseen_label_once(monkeypatch):
    # the forwards of one scoring call share a source: each unseen label is
    # drawn at the first table that reads it, and later tables read the draw
    config = ModelConfig(dim=8, edge_dropout=0.0)
    params = init_params(config, 2, np.random.default_rng(0))
    tape = Tape(record=False)
    pvars = bind_params(tape, params)
    drawn = []

    def counted(run_seed, label, dim):
        drawn.append(label)
        return fresh_unseen_vector(run_seed, label, dim)

    monkeypatch.setattr(rmpnet, "fresh_unseen_vector", counted)
    source = make_source(tape, pvars, config, num_seen=2, run_seed=7)
    first = source.table(np.array([0, 5, 6])).value
    again = source.table(np.array([1, 5, 6, 9])).value
    assert drawn == [5, 6, 9]
    np.testing.assert_array_equal(again[1:3], first[1:])
    np.testing.assert_array_equal(again[3], fresh_unseen_vector(7, 9, 8))
    np.testing.assert_array_equal(again[0], params["rel_emb"][1])
    make_source(tape, pvars, config, num_seen=2, run_seed=7).table(np.array([5]))
    assert drawn == [5, 6, 9, 5]  # a new source draws afresh


def test_unseen_draw_matches_initializer_distribution_scale():
    dim = 16
    draws = np.stack([fresh_unseen_vector(0, lab, dim) for lab in range(400)])
    assert abs(draws.std() - 1 / np.sqrt(dim)) < 0.02


def test_schema_projection_identity_padded():
    config = ModelConfig(dim=3, schema_hidden=5, init_mode="schema", edge_dropout=0.0)
    params = init_params(config, 2, np.random.default_rng(0))
    params["schema_w2"] = np.zeros((5, 300))
    params["schema_w2"][:5, :5] = np.eye(5)
    params["schema_w1"] = np.zeros((3, 5))
    params["schema_w1"][:3, :3] = np.eye(3)
    onto = np.zeros(300)
    onto[1] = 1.0
    tape = Tape()
    pvars = bind_params(tape, params)
    vectors = np.stack([np.zeros(300)] * 4 + [onto])  # relation 4's is onto
    src = FeatureSource(tape, pvars, config, schema_vectors=vectors)
    np.testing.assert_allclose(src.table(np.array([4])).value[0], [0.0, 1.0, 0.0], atol=0)


def test_schema_mode_missing_vector_errors():
    # resolve_schema_vectors checks every relation's vector once; schema
    # mode given none fails as the source is made, before any forward
    config = ModelConfig(dim=3, init_mode="schema", edge_dropout=0.0)
    params = init_params(config, 2, np.random.default_rng(0))
    tape = Tape()
    pvars = bind_params(tape, params)
    with pytest.raises(ModelError, match="schema vector"):
        FeatureSource(tape, pvars, config)


# ----------------------------------------------------- single layers

def fixed_identity_params(config, num_relations=6):
    params = init_params(config, num_relations, np.random.default_rng(0))
    for k in range(1, config.hops + 1):
        for e in range(6):
            params[layer_param(k, e)] = np.eye(config.dim)
    return params


def silence_layer(params, config, layer):
    """Zero one layer's weights, so that layer passes its input through."""
    for e in range(6):
        params[layer_param(layer, e)] = np.zeros((config.dim, config.dim))
    return params


def star_rvg():
    # nodes: 0 target, 1 neighbor; one typed edge 1 -> 0
    return RelationViewGraph(
        nodes=(Triple(0, 0, 1), Triple(2, 1, 0)),
        labels=(0, 1),
        edges=edge_array((1, 2, 0)),
        target_index=0,
    )


def test_message_layer_single_neighbor_identity():
    config = ModelConfig(hops=2, dim=3, target_attention=True, edge_dropout=0.0)
    batch = view_batch(star_rvg(), 2)
    h_i = np.array([0.2, -0.4, 1.0])
    h_j = np.array([0.5, -1.0, 2.0])
    tape = Tape()
    # layer 1 alone: the final layer's zero weights pass the target through
    pvars = bind_params(tape, silence_layer(fixed_identity_params(config), config, 2))
    out = propagate_from(tape, batch, {0: h_i, 1: h_j}, pvars, config)
    np.testing.assert_allclose(out, np.maximum(h_j, 0) + h_i, atol=1e-12)
    # the neighbor itself has no incoming edges: pure residual, so the final
    # layer's identity message from it is relu(h_j) again
    tape = Tape()
    pvars = bind_params(tape, fixed_identity_params(config))
    out = propagate_from(tape, batch, {0: h_i, 1: h_j}, pvars, config)
    np.testing.assert_allclose(out, np.maximum(h_j, 0) + (np.maximum(h_j, 0) + h_i), atol=0)


def test_message_layer_relu_clips():
    config = ModelConfig(hops=2, dim=2, edge_dropout=0.0)
    params = silence_layer(fixed_identity_params(config), config, 2)
    tape = Tape()
    pvars = bind_params(tape, params)
    out = propagate_from(
        tape, view_batch(star_rvg(), 2), {0: np.zeros(2), 1: np.array([1.0, -2.0])},
        pvars, config,
    )
    np.testing.assert_allclose(out, [1.0, 0.0], atol=0)


def test_message_layer_schedule_violation():
    # the layers a batch was pruned for must be the model's layers
    config = ModelConfig(hops=2, dim=2, edge_dropout=0.0)
    params = fixed_identity_params(config)
    tape = Tape()
    pvars = bind_params(tape, params)
    table = tape.const(np.zeros((2, 2)))
    with pytest.raises(ModelError, match="depth"):
        propagate(view_batch(star_rvg(), 1), table, pvars, config, training=True)


def test_final_layer_no_neighbors_keeps_previous():
    config = ModelConfig(hops=2, dim=3, edge_dropout=0.0)
    params = fixed_identity_params(config)
    rvg = RelationViewGraph(
        nodes=(Triple(0, 0, 1),), labels=(0,), edges=edge_array(), target_index=0
    )
    tape = Tape()
    pvars = bind_params(tape, params)
    prev = np.array([0.3, -0.7, 0.1])
    out = propagate_from(tape, view_batch(rvg, 2), {0: prev}, pvars, config)
    np.testing.assert_allclose(out, prev, atol=0)


def test_final_layer_one_neighbor_identity():
    config = ModelConfig(hops=1, dim=2, edge_dropout=0.0)
    params = fixed_identity_params(config)
    tape = Tape()
    pvars = bind_params(tape, params)
    out = propagate_from(
        tape, view_batch(star_rvg(), 1), {0: np.array([0.5, 0.5]), 1: np.array([1.0, 2.0])},
        pvars, config,
    )
    np.testing.assert_allclose(out, [1.5, 2.5], atol=0)


def test_final_layer_two_edge_types_sum_plus_residual():
    config = ModelConfig(hops=1, dim=2, edge_dropout=0.0)
    rng = np.random.default_rng(5)
    params = init_params(config, 4, rng)
    rvg = RelationViewGraph(
        nodes=(Triple(0, 0, 1), Triple(1, 1, 2), Triple(2, 2, 0)),
        labels=(0, 1, 2),
        edges=edge_array((1, 0, 0), (2, 3, 0)),
        target_index=0,
    )
    tape = Tape()
    pvars = bind_params(tape, params)
    h = {i: np.array([0.3 * i + 0.1, -0.2 * i]) for i in range(3)}
    out = propagate_from(tape, view_batch(rvg, 1), h, pvars, config)
    want = (
        np.maximum(
            params[layer_param(1, 0)] @ h[1] + params[layer_param(1, 3)] @ h[2], 0
        )
        + h[0]
    )
    np.testing.assert_allclose(out, want, atol=1e-12)


def test_attention_groups_normalize_per_edge_type():
    # single neighbor per type: every softmax group has one element, so TA on
    # must equal TA off
    rng = np.random.default_rng(8)
    config_ta = ModelConfig(hops=2, dim=4, target_attention=True, edge_dropout=0.0)
    config_eq = ModelConfig(hops=2, dim=4, target_attention=False, edge_dropout=0.0)
    params = init_params(config_ta, 6, rng)
    rvg = RelationViewGraph(
        nodes=(Triple(0, 0, 1), Triple(1, 1, 2), Triple(0, 2, 3)),
        labels=(0, 1, 2),
        edges=edge_array((1, 0, 0), (2, 3, 0), (0, 1, 1)),
        target_index=0,
    )
    batch = view_batch(rvg, 2)
    scores = []
    for config in (config_ta, config_eq):
        tape = Tape()
        pvars = bind_params(tape, params)
        src = make_source(tape, pvars, config)
        h = propagate(batch, src.table(batch.labels), pvars, config, training=True)
        scores.append(h.value[0].copy())
    np.testing.assert_allclose(scores[0], scores[1], atol=1e-12)


def test_attention_identical_neighbors_average():
    # two same-type neighbors with identical features: weighted sum with
    # attention gives exactly one message, plain sum gives two.  The final
    # layer ignores attention, so a 2-hop config with a silenced final layer
    # shows the attention layer's output.
    rvg = RelationViewGraph(
        nodes=(Triple(0, 0, 1), Triple(2, 1, 0), Triple(3, 1, 0)),
        labels=(0, 1, 1),
        edges=edge_array((1, 2, 0), (2, 2, 0)),
        target_index=0,
    )
    config2 = ModelConfig(hops=2, dim=3, target_attention=True, edge_dropout=0.0)
    params2 = silence_layer(fixed_identity_params(config2), config2, 2)
    tape2 = Tape()
    pvars2 = bind_params(tape2, params2)
    v = np.array([0.4, 0.7, -0.2])
    out = propagate_from(tape2, view_batch(rvg, 2), {0: np.zeros(3), 1: v}, pvars2, config2)
    np.testing.assert_allclose(out, np.maximum(v, 0), atol=1e-12)


# ----------------------------------------------------- score

def test_score_linear_example():
    config = ModelConfig(dim=4, edge_dropout=0.0)
    params = init_params(config, 2, np.random.default_rng(0))
    params["score_w"] = np.ones((1, 4))
    tape = Tape()
    pvars = bind_params(tape, params)
    h = tape.const(np.array([[1.0, 2.0, 0.0, 0.0], [0.0, 0.0, -1.0, 0.5]]))
    np.testing.assert_allclose(score(h, None, pvars, config).value, [3.0, -0.5])


def test_score_sum_fusion_with_zero_disc_equals_base():
    config_ne = ModelConfig(dim=4, use_disclosing=True, fusion="sum", edge_dropout=0.0)
    params = init_params(config_ne, 2, np.random.default_rng(1))
    tape = Tape()
    pvars = bind_params(tape, params)
    h = tape.const(np.array([[0.5, -1.0, 2.0, 0.3]]))
    zero = tape.const(np.zeros((1, 4)))
    with_disc = float(score(h, zero, pvars, config_ne).value[0])
    config_base = ModelConfig(dim=4, edge_dropout=0.0)
    base = float(score(h, None, pvars, config_base).value[0])
    assert with_disc == pytest.approx(base)


def test_score_conc_with_stacked_identity_equals_sum():
    config_conc = ModelConfig(dim=3, use_disclosing=True, fusion="conc", edge_dropout=0.0)
    params = init_params(config_conc, 2, np.random.default_rng(2))
    params["fusion_w"] = np.hstack([np.eye(3), np.eye(3)])
    config_sum = ModelConfig(dim=3, use_disclosing=True, fusion="sum", edge_dropout=0.0)
    tape = Tape()
    pvars = bind_params(tape, params)
    h = tape.const(np.array([[0.1, 0.2, 0.3]]))
    hd = tape.const(np.array([[-0.3, 0.5, 0.0]]))
    assert float(score(h, hd, pvars, config_conc).value[0]) == pytest.approx(
        float(score(h, hd, pvars, config_sum).value[0])
    )


def test_score_argument_mismatch_errors():
    config_ne = ModelConfig(dim=3, use_disclosing=True, edge_dropout=0.0)
    config_base = ModelConfig(dim=3, edge_dropout=0.0)
    params = init_params(config_ne, 2, np.random.default_rng(0))
    tape = Tape()
    pvars = bind_params(tape, params)
    h = tape.const(np.zeros((1, 3)))
    with pytest.raises(ModelError):
        score(h, None, pvars, config_ne)
    with pytest.raises(ModelError):
        score(h, h, pvars, config_base)


# ----------------------------------------------------- disclosing

def disclose(neigh, target_label, source, pvars, config):
    """disclosing_aggregate of one target with the given neighborhood."""
    rvg = RelationViewGraph(
        nodes=(Triple(0, target_label, 1),), labels=(target_label,), edges=edge_array(),
        target_index=0,
    )
    batch = view_batch(rvg, config.hops, tuple(neigh))
    return disclosing_aggregate(batch, source.table(batch.labels), pvars, config).value[0]


def test_disclosing_single_neighbor():
    config = ModelConfig(dim=3, use_disclosing=True, edge_dropout=0.0)
    params = init_params(config, 4, np.random.default_rng(3))
    tape = Tape()
    pvars = bind_params(tape, params)
    src = make_source(tape, pvars, config)
    out = disclose([(0, 2)], 1, src, pvars, config)
    want = np.maximum(params["disc_w"] @ params["rel_emb"][2], 0)
    np.testing.assert_allclose(out, want, atol=1e-12)


def test_disclosing_empty_is_zero():
    config = ModelConfig(dim=5, use_disclosing=True, edge_dropout=0.0)
    params = init_params(config, 4, np.random.default_rng(3))
    tape = Tape()
    pvars = bind_params(tape, params)
    src = make_source(tape, pvars, config)
    np.testing.assert_array_equal(disclose([], 1, src, pvars, config), np.zeros(5))


def test_disclosing_identical_neighbors_halve():
    config = ModelConfig(dim=3, use_disclosing=True, edge_dropout=0.0)
    params = init_params(config, 4, np.random.default_rng(4))
    tape = Tape()
    pvars = bind_params(tape, params)
    src = make_source(tape, pvars, config)
    one = disclose([(0, 2)], 1, src, pvars, config)
    two = disclose([(0, 2), (5, 2)], 1, src, pvars, config)
    np.testing.assert_allclose(two, one, atol=1e-12)


def test_disclosing_matches_scalar_oracle():
    rng = np.random.default_rng(6)
    config = ModelConfig(dim=4, use_disclosing=True, edge_dropout=0.0)
    params = init_params(config, 6, rng)
    tape = Tape()
    pvars = bind_params(tape, params)
    src = make_source(tape, pvars, config)
    neigh = [(0, 1), (1, 3), (2, 5), (3, 1)]
    out = disclose(neigh, 2, src, pvars, config)
    h0 = {lab: params["rel_emb"][lab] for lab in (1, 2, 3, 5)}
    want = oracles.disclosing_forward(
        [lab for _, lab in neigh], 2, h0, params["disc_w"], 0.2, 4
    )
    np.testing.assert_allclose(out, want, atol=1e-12)


# ----------------------------------------------------- composed forward

def variant_configs(dim=4, hops=2, dropout=0.0):
    out = []
    for ne in (False, True):
        for ta in (False, True):
            fusions = ("sum", "conc") if ne else ("sum",)
            for fu in fusions:
                out.append(
                    ModelConfig(
                        hops=hops, dim=dim, edge_dropout=dropout,
                        use_disclosing=ne, target_attention=ta, fusion=fu,
                    )
                )
    return out


def test_full_forward_matches_scalar_oracle_across_variants():
    rng = np.random.default_rng(17)
    for trial in range(6):
        g = random_graph(rng, 7, 5, 14)
        target = Triple(int(rng.integers(7)), 4, int(rng.integers(7)))
        for config in variant_configs():
            params = init_params(config, 6, np.random.default_rng(100 + trial))
            sample = build_sample(g, target, config)
            tape = Tape()
            pvars = bind_params(tape, params)
            src = make_source(tape, pvars, config)
            h_target = target_features([sample], src, pvars, config)

            rvg = to_relation_view(extract_enclosing(g, target, config.hops))
            h0 = {i: params["rel_emb"][lab] for i, lab in enumerate(rvg.labels)}
            want_h = oracles.full_forward(
                rvg.labels, rvg.edges, rvg.target_index,
                h0, params, config.hops, config.leaky_slope, config.target_attention,
            )
            np.testing.assert_allclose(h_target.value[0], want_h, atol=1e-9)


def test_score_sample_matches_scalar_oracle_end_to_end():
    rng = np.random.default_rng(23)
    for trial in range(5):
        g = random_graph(rng, 7, 5, 15)
        target = Triple(int(rng.integers(7)), 4, int(rng.integers(7)))
        for config in variant_configs():
            params = init_params(config, 6, np.random.default_rng(300 + trial))
            sample = build_sample(g, target, config)
            got, _, _ = run_score(g, target, config, params)

            rvg = to_relation_view(extract_enclosing(g, target, config.hops))
            h0 = {i: params["rel_emb"][lab] for i, lab in enumerate(rvg.labels)}
            want_h = oracles.full_forward(
                rvg.labels, rvg.edges, rvg.target_index,
                h0, params, config.hops, config.leaky_slope, config.target_attention,
            )
            want_disc = None
            if config.use_disclosing:
                h0_by_label = {lab: params["rel_emb"][lab] for lab in range(6)}
                want_disc = oracles.disclosing_forward(
                    sample.labels.tolist(), target.relation,
                    h0_by_label, params["disc_w"], config.leaky_slope, config.dim,
                )
            want = oracles.score_forward(
                want_h, want_disc, params, config.use_disclosing, config.fusion
            )
            assert abs(got - want) <= 1e-9


def test_pruning_exactness_unit():
    # the acceptance suite runs 100 of these; a quick screen here
    rng = np.random.default_rng(29)
    for trial in range(15):
        g = random_graph(rng, 8, 4, 16)
        target = Triple(int(rng.integers(8)), 3, int(rng.integers(8)))
        for ta in (False, True):
            config = ModelConfig(hops=2, dim=4, target_attention=ta, edge_dropout=0.0)
            params = init_params(config, 4, np.random.default_rng(trial))
            sample = build_sample(g, target, config)
            tape = Tape()
            pvars = bind_params(tape, params)
            src = make_source(tape, pvars, config)
            via_pruned = target_features([sample], src, pvars, config).value[0]
            rvg = to_relation_view(extract_enclosing(g, target, config.hops))
            h0 = {i: params["rel_emb"][lab] for i, lab in enumerate(rvg.labels)}
            via_full = oracles.full_forward(
                rvg.labels, rvg.edges, rvg.target_index,
                h0, params, config.hops, config.leaky_slope, ta,
            )
            assert np.abs(via_pruned - via_full).max() <= 1e-9


def test_unseen_relabeled_forward_is_finite():
    rng = np.random.default_rng(31)
    g = random_graph(rng, 6, 4, 12)
    target = Triple(0, 3, 1)
    for config in variant_configs():
        params = init_params(config, 4, rng)
        sample = build_sample(g, target, config)
        tape = Tape()
        pvars = bind_params(tape, params)
        # every label reported unseen: nothing may touch the embedding table
        src = FeatureSource(tape, pvars, config, seen_rows(0), run_seed=3)
        out = score_sample([sample], src, pvars, config)
        assert np.isfinite(out.value).all()


def test_dropout_off_forward_is_bitwise_deterministic():
    rng = np.random.default_rng(37)
    g = random_graph(rng, 7, 4, 14)
    target = Triple(1, 3, 2)
    config = ModelConfig(hops=2, dim=4, use_disclosing=True, target_attention=True,
                         edge_dropout=0.0)
    params = init_params(config, 4, np.random.default_rng(0))
    a, _, _ = run_score(g, target, config, params)
    b, _, _ = run_score(g, target, config, params)
    assert np.float64(a).tobytes() == np.float64(b).tobytes()


def test_training_dropout_changes_messages_and_is_seeded():
    rng = np.random.default_rng(41)
    g = random_graph(rng, 8, 4, 24)
    target = Triple(0, 3, 1)
    config = ModelConfig(hops=2, dim=4, edge_dropout=0.5)
    params = init_params(config, 4, np.random.default_rng(0))
    eval_score, _, _ = run_score(g, target, config, params)
    seeded = [
        run_score(g, target, config, params, training=True,
                  drop_rng=np.random.default_rng(5))[0]
        for _ in range(2)
    ]
    assert seeded[0] == seeded[1]  # same mask stream, same result
    others = {
        run_score(g, target, config, params, training=True,
                  drop_rng=np.random.default_rng(s))[0]
        for s in range(20)
    }
    assert len(others) > 1  # masks actually vary
    assert any(abs(o - eval_score) > 1e-12 for o in others)


def test_training_forward_without_stream_errors():
    rng = np.random.default_rng(43)
    g = random_graph(rng, 6, 4, 18)
    config = ModelConfig(hops=2, dim=4, edge_dropout=0.5)
    params = init_params(config, 4, rng)
    with pytest.raises(ModelError, match="dropout"):
        run_score(g, Triple(0, 3, 1), config, params, training=True)


class DropEveryEdge:
    """A dropout stream whose draws are all 0, below any dropout rate, so
    that every layer drops each of its edges."""

    def random(self, n):
        return np.zeros(n)


@pytest.mark.parametrize("ta", [False, True])
def test_training_layers_that_keep_no_edge_pass_the_initial_features(ta):
    # every layer of the training forward is skipped once dropout has left
    # it no edge, the last one too, so each target keeps its initial
    # feature row and no layer weight gets a gradient
    g = random_graph(np.random.default_rng(41), 8, 4, 24)
    config = ModelConfig(hops=2, dim=4, edge_dropout=0.5, target_attention=ta)
    params = init_params(config, 4, np.random.default_rng(0))
    samples = [build_sample(g, t, config) for t in (Triple(0, 3, 1), Triple(2, 1, 3))]
    batch = stack_samples(samples, config.hops, training=True)
    assert all(len(edges) for edges in batch.layer_edges)  # each layer has edges to drop
    tape = Tape()
    pvars = bind_params(tape, params)
    table = make_source(tape, pvars, config).table(batch.labels)
    h = propagate(batch, table, pvars, config, training=True, drop_rng=DropEveryEdge())
    assert np.array_equal(h.value, table.value[batch.node_rows[batch.targets]])
    grads = tape.backward(total(score(h, None, pvars, config)))
    assert all(np.isfinite(grad).all() for grad in grads.values())
    layers = [layer_param(k, e) for k in range(1, config.hops + 1) for e in range(6)]
    assert all(not grads[name].any() for name in layers)
    assert grads["rel_emb"].any()


def test_empty_subgraph_scores_from_initial_embedding():
    vocab_entities, vocab_relations = 6, 4
    rng = np.random.default_rng(47)
    g = random_graph(rng, vocab_entities, vocab_relations, 0)
    target = Triple(0, 2, 1)
    config = ModelConfig(hops=2, dim=4, edge_dropout=0.0)
    params = init_params(config, vocab_relations, rng)
    got, _, _ = run_score(g, target, config, params)
    want = float(params["score_w"][0] @ params["rel_emb"][2])
    assert got == pytest.approx(want, abs=1e-12)


def test_empty_subgraph_every_variant_finite():
    rng = np.random.default_rng(53)
    g = random_graph(rng, 6, 4, 0)
    target = Triple(2, 1, 3)
    for config in variant_configs():
        params = init_params(config, 4, rng)
        got, _, _ = run_score(g, target, config, params)
        assert np.isfinite(got)


def test_ne_score_depends_on_disclosing_labels():
    # two targets with identical (empty) enclosing subgraphs but different
    # disclosing neighborhoods must score differently under the NE variant
    from rmpi.kgstore import KnowledgeGraph
    from synth import make_vocab

    vocab = make_vocab(8, 5)
    g = KnowledgeGraph(vocab, [Triple(0, 0, 4), Triple(1, 1, 5)])
    config = ModelConfig(hops=2, dim=4, use_disclosing=True, edge_dropout=0.0)
    params = init_params(config, 5, np.random.default_rng(3))
    # same scoring relation, heads with different attached context relations
    s_a, _, _ = run_score(g, Triple(0, 3, 6), config, params)
    s_b, _, _ = run_score(g, Triple(1, 3, 6), config, params)
    assert abs(s_a - s_b) > 1e-8

    base = ModelConfig(hops=2, dim=4, edge_dropout=0.0)
    b_a, _, _ = run_score(g, Triple(0, 3, 6), base, params)
    b_b, _, _ = run_score(g, Triple(1, 3, 6), base, params)
    assert b_a == pytest.approx(b_b, abs=1e-12)  # base variant is blind to context


# ----------------------------------------------------- batches

def mixed_batch_targets():
    """A graph and targets covering what a batch can mix: enclosing views
    with and without edges, self-loops, isolated endpoints, a duplicate
    target and relations without a learned row (labels 3 and 4 are unseen
    under seen_rows(3))."""
    graph = random_graph(np.random.default_rng(62), 12, 5, 16)  # 0 and 1 isolated
    targets = [
        graph.triples[0], Triple(0, 4, 0), graph.triples[2], Triple(1, 3, 8),
        graph.triples[0], Triple(2, 4, 2), graph.triples[5],
    ]
    return graph, targets


@pytest.mark.parametrize("training", [False, True])
def test_label_table_is_the_sorted_distinct_labels(training):
    # stack_samples counts the relation ids a batch's labels take rather
    # than sorting them, yet gives np.unique's labels and inverse rows,
    # dtypes included, over batches mixing node labels, disclosing labels
    # and relations absent from the graph; a batch with an id outside the
    # vocabulary raises ModelError
    rng = np.random.default_rng(29)
    for trial in range(30):
        n, num_relations = int(rng.integers(2, 12)), int(rng.integers(1, 7))
        graph = random_graph(rng, n, num_relations, int(rng.integers(1, 25)))
        targets = [graph.triples[int(i)] for i in rng.integers(graph.num_triples, size=3)] + [
            Triple(int(rng.integers(n)), int(rng.integers(num_relations + trial % 3)),
                   int(rng.integers(n))) for _ in range(int(rng.integers(1, 5)))]
        config = ModelConfig(dim=4, hops=int(rng.integers(1, 4)), use_disclosing=bool(trial % 2))
        samples = [build_sample(graph, t, config) for t in targets]
        if max(t.relation for t in targets) >= num_relations:
            outside = f"outside the vocabulary's 0 .. {num_relations - 1}"
            with pytest.raises(ModelError, match=outside):
                stack_samples(samples, config.hops, training=training)
            continue
        batch = stack_samples(samples, config.hops, training=training)
        disc = np.concatenate([s.labels for s in samples])
        if training:  # every node, in sample order
            nodes = np.concatenate([np.append(graph.arrays[1][s.indexes], s.target.relation)
                                    for s in samples]).astype(np.intp)
            labels, rows = np.unique(np.concatenate([nodes, disc]), return_inverse=True)
            assert batch.node_rows.dtype == rows.dtype
            assert np.array_equal(batch.node_rows, rows[: len(nodes)])
        else:  # the nodes within K steps, reordered by level
            nodes = np.concatenate([
                np.append(graph.arrays[1][s.indexes][s.levels <= config.hops], s.target.relation)
                for s in samples]).astype(np.intp)
            labels, rows = np.unique(np.concatenate([nodes, disc]), return_inverse=True)
            assert batch.node_rows.dtype == rows.dtype
            assert sorted(batch.labels[batch.node_rows].tolist()) == sorted(nodes.tolist())
        assert batch.labels.dtype == labels.dtype
        assert np.array_equal(batch.labels, labels)
        assert batch.disc_rows.dtype == rows.dtype
        assert np.array_equal(batch.disc_rows, rows[len(rows) - len(disc):])
    for values in (rng.integers(-3, 9, size=40), rng.integers(0, 5, size=1), np.array([7, 2, 7]),
                   np.array([4, 2, 4]), np.array([2, -1]), np.array([5])):
        values = values.astype(np.intp)
        if values.min() < 0 or values.max() >= 5:
            with pytest.raises(ModelError, match="is outside the vocabulary's 0 .. 4"):
                rmpnet._label_table(values, 5)
            continue
        got = rmpnet._label_table(values, 5)
        want = np.unique(values, return_inverse=True)
        assert all(a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(got, want))


def score_batch(samples, config, params, **kwargs):
    tape = Tape()
    pvars = bind_params(tape, params)
    source = make_source(tape, pvars, config, num_seen=3)
    return score_sample(samples, source, pvars, config, **kwargs).value


def test_batch_scores_equal_samples_scored_alone():
    graph, targets = mixed_batch_targets()
    for config in variant_configs():
        params = init_params(config, 5, np.random.default_rng(7))
        samples = [build_sample(graph, t, config) for t in targets]
        edges = [len(pruned(graph, t, config.hops)[0]) for t in targets]
        assert 0 in edges and max(edges) > 0
        batched = score_batch(samples, config, params)
        alone = [score_batch([s], config, params)[0] for s in samples]
        np.testing.assert_allclose(batched, alone, rtol=0, atol=1e-12)


def test_identical_samples_score_bitwise_equal_at_any_position():
    graph, targets = mixed_batch_targets()
    for config in variant_configs():
        params = init_params(config, 5, np.random.default_rng(8))
        samples = [build_sample(graph, t, config) for t in targets]
        for i in range(len(samples)):
            # sample i sits at position i and again at position 2i + 1
            got = score_batch(samples[:i] + [samples[i]] + samples, config, params)
            assert got[i].tobytes() == got[2 * i + 1].tobytes()


def test_batched_margin_loss_gradients_match_finite_differences():
    from oracles import check_grads

    graph, targets = mixed_batch_targets()
    margin = 5.0
    for config in variant_configs(dim=3):
        params = init_params(config, 5, np.random.default_rng(13))
        samples = [build_sample(graph, t, config) for t in (targets[0], targets[2], targets[6])]

        def margin_loss(tape, p):
            pvars = bind_params(tape, p)
            # the training forward, as training's loss reads; dropout 0
            scores = score_sample(samples, make_source(tape, pvars, config, num_seen=3),
                                  pvars, config, training=True)
            # the first sample is the positive, the other two its negatives
            gaps = nk.sub(nk.take(scores, [1, 2]), nk.take(scores, [0, 0]))
            return total(nk.relu(nk.shift(gaps, margin)))

        tape = Tape()
        loss = margin_loss(tape, params)
        assert float(loss.value) > 0
        check_grads(lambda p: float(margin_loss(Tape(), p).value), tape.backward(loss), params)


def test_training_tape_size_does_not_grow_with_batch():
    graph = random_graph(np.random.default_rng(67), 8, 4, 40)
    config = ModelConfig(hops=2, dim=4, target_attention=True, use_disclosing=True,
                         edge_dropout=0.5)
    params = init_params(config, 4, np.random.default_rng(0))
    sample = build_sample(graph, graph.triples[0], config)
    assert len(pruned(graph, graph.triples[0], config.hops)[-1]) >= 10

    def tape_nodes(copies):
        tape = Tape()
        pvars = bind_params(tape, params)
        score_sample([sample] * copies, make_source(tape, pvars, config), pvars, config,
                     training=True, drop_rng=np.random.default_rng(1))
        return len(tape._nodes)

    assert tape_nodes(32) == tape_nodes(2)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=2, max_value=9),
    st.integers(min_value=0, max_value=24),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_training_layer_edges_are_each_samples_pruned_edges(n_entities, n_triples, k, size,
                                                             seed):
    # the spans of a training batch, expanded and cut by the extracted
    # levels, give each layer the edges prune_to_target gives every
    # sample's own view, their node ids offset in sample order, in the same
    # order; and, as a set, the edges the pairwise oracle types into the
    # receivers its frontier walk finds
    rng = np.random.default_rng(seed)
    isolated = (n_entities, n_entities + 1)
    rows = [Triple(int(h), int(rng.integers(3)), int(t))
            for h, t in rng.integers(n_entities, size=(n_triples, 2))]  # self-loops too
    for h, r, t in rows[: n_triples // 3]:  # a duplicate, a parallel and an inverse twin
        rows += [Triple(h, r, t), Triple(h, (r + 1) % 3, t), Triple(t, r, h)]
    graph = KnowledgeGraph(make_vocab(n_entities + 2, 4), rows)
    targets = []
    for _ in range(size):
        u, v = (int(e) for e in rng.integers(n_entities, size=2))
        kind = rng.random()
        if kind < 0.25:
            v = u
        elif kind < 0.4:
            u, v = isolated  # a bare target
        targets.append(Triple(u, 3, v))
    samples = [build_sample(graph, t, ModelConfig(hops=k)) for t in targets]
    offsets = np.cumsum([0] + [len(s.indexes) + 1 for s in samples])
    want = [np.concatenate([pruned(graph, t, k)[layer] + (off, 0, off)
                            for t, off in zip(targets, offsets)]) for layer in range(k)]
    got = stack_samples(samples, k, training=True).layer_edges
    assert len(got) == k
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
    for s, lo, hi in zip(samples, offsets, offsets[1:]):
        typed = oracles.relation_view_edges(sample_triples(s))
        for layer, edges in enumerate(got, start=1):
            edges = edges[(edges[:, 2] >= lo) & (edges[:, 2] < hi)] - (lo, 0, lo)
            _, oracle = oracles.prune_frontiers(typed, len(s.indexes), k - layer + 1)
            assert {(src, EDGE_TYPE_NAMES[e], dst) for src, e, dst in edges.tolist()} == oracle


# ----------------------------------------------------- scoring forward

# Scores of the scoring forward (message passing over entity incidences)
# against the training forward without dropout (over the relation view):
# the same sums in another order, so equal to rounding.
TOL = dict(rtol=1e-12, atol=1e-12)
SCHEMA = dict(init_mode="schema", schema_hidden=6, schema_dim=5)


def forward_pair(samples, config, params, schema=None):
    """(scoring, training) scores of the samples, each as one batch."""
    out = []
    for training in (False, True):
        tape = Tape()
        pvars = bind_params(tape, params)
        source = make_source(tape, pvars, config, schema=schema)
        kwargs = dict(training=True, drop_rng=np.random.default_rng(0)) if training else {}
        out.append(score_sample(samples, source, pvars, config, **kwargs).value)
    return out


def hub_twin_graph(rng):
    """A hub, entity 0, with self-loops, parallel, inverse and duplicate
    triples among random ones over entities 0-11; 12 and 13 have none."""
    rows = [Triple(0, int(rng.integers(4)), int(e)) for e in rng.integers(1, 12, 16)]
    rows += [Triple(int(h), int(rng.integers(4)), int(t)) for h, t in rng.integers(1, 12, (14, 2))]
    rows += [Triple(0, 1, 0), Triple(0, 2, 0), Triple(5, 3, 5)]  # self-loops
    rows += [Triple(0, 3, 5), Triple(0, 2, 5), Triple(5, 1, 0), Triple(5, 0, 0)]  # twins
    rows += rows[:6]  # duplicates
    return KnowledgeGraph(make_vocab(14, 5), rows)


SCORING_TARGETS = [
    Triple(0, 4, 5), Triple(0, 4, 0), Triple(5, 4, 5), Triple(3, 4, 0), Triple(0, 4, 12),
    Triple(12, 4, 13), Triple(2, 4, 7), Triple(0, 0, 5),
]


@pytest.mark.parametrize("hops", [1, 2, 3])
@pytest.mark.parametrize("variant", [
    dict(), dict(use_disclosing=True), dict(target_attention=True),
    dict(use_disclosing=True, target_attention=True),
    dict(use_disclosing=True, target_attention=True, fusion="conc"),
    dict(use_disclosing=True, target_attention=True, **SCHEMA),
], ids=["base", "ne", "ta", "ne-ta", "ne-ta-conc", "ne-ta-schema"])
def test_scoring_forward_matches_the_view_forward(hops, variant):
    rng = np.random.default_rng(hops)
    for trial in range(3):
        graph = hub_twin_graph(rng) if trial else random_graph(rng, 14, 5, 30)
        config = ModelConfig(hops=hops, dim=4, edge_dropout=0.0, **variant)
        params = init_params(config, 5, np.random.default_rng(trial))
        schema = None
        if config.init_mode == "schema":
            schema = np.stack([rng.normal(size=config.schema_dim) for r in range(5)])
        samples = [build_sample(graph, t, config) for t in SCORING_TARGETS]
        hub_view = max(len(pruned(graph, t, hops)[0]) for t in SCORING_TARGETS) > 40
        assert hub_view or not trial
        got, want = forward_pair(samples, config, params, schema)
        np.testing.assert_allclose(got, want, **TOL)


@pytest.mark.parametrize("attention", [False, True])
def test_scoring_forward_exact_at_a_twin_dominated_hub(attention):
    # 300 parallel twins of the target, with features a million times the
    # others': a sum over the hub less the twins' block must not be the
    # hub's total less the block's, whose rounding would swamp the rest.
    # PARA and LOOP weights are zero, so in one layer the twins reach no
    # score, and the others' weights and features pass their sums on.
    twins = [Triple(0, 1, 1)] * 300
    others = [Triple(0, 2, 2), Triple(2, 3, 1), Triple(3, 2, 0), Triple(1, 3, 3), Triple(0, 3, 1)]
    graph = KnowledgeGraph(random_graph(np.random.default_rng(0), 6, 5, 0).vocab, twins + others)
    config = ModelConfig(hops=1, dim=4, edge_dropout=0.0, target_attention=attention)
    params = init_params(config, 5, np.random.default_rng(1))
    params["rel_emb"] = np.abs(params["rel_emb"])
    params["rel_emb"][1] *= 1e6
    for e in range(6):  # H-T, T-H, H-H, T-T pass on; PARA, LOOP drop
        params[layer_param(1, e)] = np.eye(4) if e < 4 else np.zeros((4, 4))
    samples = [build_sample(graph, t, config) for t in (Triple(0, 0, 1), Triple(4, 4, 5))]
    assert len(sample_triples(samples[0])) == 306  # the twins and every other triple
    got, want = forward_pair(samples, config, params)
    assert np.abs(want).max() < 1e3  # the twins' features do not reach the scores
    np.testing.assert_allclose(got, want, **TOL)


@pytest.mark.parametrize("disclosing", [False, True])
def test_scoring_attention_exact_over_a_wide_logit_spread(disclosing):
    # Source j, a parallel twin of receiver i, scores a logit of 900 against
    # the target and k one of 0.  i's H-H group holds k alone, whose softmax
    # weight is 1; shifted by the largest logit of the sample (or of the
    # run, j's) it would underflow to 0/0.  Layer 1 passes k's feature on.
    graph = KnowledgeGraph(random_graph(np.random.default_rng(0), 6, 4, 0).vocab, [
        Triple(2, 1, 3), Triple(2, 2, 3), Triple(2, 3, 4),
    ])
    config = ModelConfig(hops=2, dim=4, edge_dropout=0.0, target_attention=True,
                         use_disclosing=disclosing)
    params = init_params(config, 4, np.random.default_rng(2))
    u, v = np.eye(4)[0], np.eye(4)[1]
    params["rel_emb"][:] = [30 * u, 0.1 * v, 30 * u, 30 * v]
    for e in range(6):
        params[layer_param(1, e)] = np.eye(4)
    samples = [build_sample(graph, Triple(3, 0, 4), config)]
    assert len(sample_triples(samples[0])) == 4
    got, want = forward_pair(samples, config, params)
    np.testing.assert_allclose(got, want, **TOL)


def kept_nodes(graph, targets, hops):
    """Per target, the triples and levels of its enclosing subgraph that a
    depth-hops scoring batch keeps, those within hops steps of the target,
    target last."""
    kept = []
    for target in targets:
        sub = extract_enclosing(graph, target, hops)
        levels = sub.levels.tolist() + [0]  # the target's is 0
        pairs = [(t, level) for t, level in zip(sub.triples, levels) if level <= hops]
        kept.append(([t for t, _ in pairs], [level for _, level in pairs]))
    return kept


def scoring_incidences_of(kept, hops):
    """subgraph.scoring_incidences of a batch whose sample s keeps the
    triples and levels kept[s], a sample that keeps its target alone handed
    over at level hops + 1, as stack_samples hands it."""
    nodes = [t for triples, _ in kept for t in triples]
    ends = np.array([[t.head for t in nodes], [t.tail for t in nodes]], dtype=np.intp)
    level = np.array([level if len(levels) > 1 else hops + 1
                      for _, levels in kept for level in levels])
    sample = np.repeat(np.arange(len(kept)), [len(triples) for triples, _ in kept])
    return subgraph.scoring_incidences(ends.reshape(2, -1), level, sample, hops)


@pytest.mark.parametrize("hops", [2, 3])
def test_each_scoring_layer_sums_only_the_runs_its_receivers_read(hops):
    # layer k sums the first rows, whole runs: exactly the runs in which a
    # span of a node it updates takes a row.  So the last layer sums the
    # rows at the targets' entities alone, a small share of a sample that
    # reaches the hub; the second target has no neighbour, so it is the
    # last node and makes no row
    graph = hub_twin_graph(np.random.default_rng(1))
    targets = [Triple(3, 4, 8), Triple(12, 4, 13)]
    kept = kept_nodes(graph, targets, hops)
    inc, order = scoring_incidences_of(kept, hops)
    for layer in range(1, hops + 1):
        spans = inc.spans[: inc.receivers[layer - 1]].reshape(-1, 4)
        taking = spans[(spans[:, 1] > spans[:, 0]) | (spans[:, 2] < spans[:, 3])]
        read = set(inc.runs.starts.searchsorted(taking[:, 0], "right") - 1)
        assert read == set(range(inc.runs.runs_in(inc.layer_rows[layer - 1])))
    nodes = [[t for ts, _ in kept for t in ts][i] for i in order]
    sample = np.repeat([0, 1], [len(ts) for ts, _ in kept])[order]
    assert nodes[0] == targets[0] and nodes[-1] == targets[1] and sample[-1] == 1
    assert inc.receivers[-1] == 1 and len(nodes) - 1 not in inc.rows
    near = {j for j, t in enumerate(nodes)
            if j > 0 and {t.head, t.tail} & {targets[sample[j]].head, targets[sample[j]].tail}}
    assert set(inc.rows[: inc.layer_rows[-1]].tolist()) - {0} == near - {len(nodes) - 1}
    assert 0 < inc.layer_rows[-1] < len(inc.rows) / 4
    assert sum(0 in (t.head, t.tail) for t in kept[0][0]) > 5 and len(kept[1][0]) == 1  # the hub


@pytest.mark.parametrize("attention", [False, True])
def test_incidence_sums_in_blocks_of_columns_equal_one_block(monkeypatch, attention):
    # a budget of one value cuts 20 feature columns (21 with the softmax's
    # ones) into blocks of 8; the sums of every layer are bit for bit those
    # of one block, on the base path and on the attention path, where
    # logits a thousand apart send some groups to the SHIFT_GAP second shift
    graph = hub_twin_graph(np.random.default_rng(1))
    targets = [Triple(3, 4, 8), Triple(0, 4, 5), Triple(12, 4, 13)]
    hops = 3
    kept = kept_nodes(graph, targets, hops)
    inc, _ = scoring_incidences_of(kept, hops)
    rng = np.random.default_rng(2)
    n = sum(len(ts) for ts, _ in kept)
    h = rng.normal(size=(n, 20))
    logits = rng.normal(size=n) * 1000 if attention else None
    calls = []
    run_sums = nk.run_sums

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return run_sums(*args, **kwargs)

    monkeypatch.setattr(nk, "run_sums", counted)
    whole = [rmpnet._incidence_sums(h, inc, layer, logits) for layer in range(1, hops + 1)]
    if attention:  # a second call for the groups shifted a second time
        assert len(calls) > hops
    monkeypatch.setattr(nk, "RUN_SUMS_VALUES", 1)
    for layer, want in enumerate(whole, start=1):
        got = rmpnet._incidence_sums(h, inc, layer, logits)
        assert got.shape == want.shape == (inc.receivers[layer - 1] * 6, 20)
        assert np.array_equal(got, want)


def mixed_empty_batch(rng, hops):
    """A graph and samples of targets of which some hold a triple within
    hops steps and some are their target alone: isolated ends, ends
    outside every triple's reach, self-loops and graph triples."""
    n = int(rng.integers(3, 9))
    rows = [Triple(int(h), int(rng.integers(5)), int(t))
            for h, t in rng.integers(n, size=(int(rng.integers(1, 14)), 2))]
    graph = KnowledgeGraph(make_vocab(n + 3, 5), rows)  # n .. n + 2 isolated
    targets = []
    for _ in range(int(rng.integers(1, 9))):
        kind = rng.random()
        if kind < 0.35:  # the target alone
            targets.append(Triple(int(rng.integers(n, n + 3)), int(rng.integers(5)),
                                  int(rng.integers(n + 3))))
        elif kind < 0.5:
            targets.append(rows[int(rng.integers(len(rows)))])
        else:
            u, v = (int(e) for e in rng.integers(n, size=2))
            targets.append(Triple(u, int(rng.integers(5)), u if kind < 0.6 else v))
    return graph, targets


def holds_a_triple(sample, hops):
    return bool((sample.levels <= hops).any())


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["base", "ne-ta"]), st.integers(min_value=1, max_value=3),
       st.integers(min_value=0, max_value=2**31 - 1))
def test_batches_mixing_empty_samples_score_each_as_alone(variant, hops, seed):
    # a sample that is its target alone skips the scoring layers in a batch
    # that lays out others: every score, theirs and the others', is bit for
    # bit the sample's forward alone
    rng = np.random.default_rng(seed)
    graph, targets = mixed_empty_batch(rng, hops)
    config = rmpnet.variant_config(variant, hops=hops, dim=4, edge_dropout=0.0)
    params = init_params(config, 5, np.random.default_rng(seed % 7))
    samples = [build_sample(graph, t, config) for t in targets]
    batched = score_batch(samples, config, params)
    for s, got in zip(samples, batched):
        assert got.tobytes() == score_batch([s], config, params)[0].tobytes()


@pytest.mark.parametrize("hops", [1, 2, 3])
def test_incidences_leave_out_the_targets_of_empty_samples(hops):
    # the target of a sample that is its target alone is no layer's
    # receiver, makes no row and comes after every node laid out; the
    # targets of the others are the first nodes, in sample order
    rng = np.random.default_rng(hops)
    seen = 0
    for _ in range(40):
        graph, targets = mixed_empty_batch(rng, hops)
        config = ModelConfig(hops=hops, dim=4)
        samples = [build_sample(graph, t, config) for t in targets]
        held = np.array([holds_a_triple(s, hops) for s in samples])
        batch = stack_samples(samples, hops)
        if not held.any():
            assert batch.incidences is None
            continue
        seen += not held.all()
        inc, n = batch.incidences, len(batch.node_rows)
        assert np.array_equal(batch.targets[held], np.arange(held.sum()))
        assert np.array_equal(batch.targets[~held], np.arange(n - (~held).sum(), n))
        assert inc.receivers[-1] == held.sum() and inc.receivers[0] <= n - (~held).sum()
        assert len(inc.spans) == inc.receivers[0]
        assert not np.isin(inc.rows, batch.targets[~held]).any()
        assert np.array_equal(batch.node_sample[batch.targets], np.arange(len(samples)))
    assert seen > 5


def test_an_all_empty_batch_skips_the_layers(monkeypatch):
    # a batch whose every sample is its target alone lays out nothing and
    # scores each target from its initial feature
    graph = random_graph(np.random.default_rng(5), 6, 5, 8)  # 6 .. 8 isolated
    graph = KnowledgeGraph(make_vocab(9, 5), graph.triples)
    config = rmpnet.variant_config("ne-ta", hops=2, dim=4, edge_dropout=0.0)
    params = init_params(config, 5, np.random.default_rng(1))
    samples = [build_sample(graph, t, config)
               for t in (Triple(6, 1, 7), Triple(7, 3, 7), Triple(8, 4, 6), Triple(6, 1, 7))]
    assert not any(holds_a_triple(s, 2) for s in samples)
    alone = [score_batch([s], config, params)[0] for s in samples]

    def refuse(*args, **kwargs):
        raise AssertionError("an all-empty batch reached the layers")

    monkeypatch.setattr(rmpnet, "scoring_incidences", refuse)
    monkeypatch.setattr(rmpnet, "_incidence_sums", refuse)
    batch = stack_samples(samples, 2)
    assert batch.incidences is None and np.array_equal(batch.targets, np.arange(4))
    got = score_batch(samples, config, params)
    assert [g.tobytes() for g in got] == [a.tobytes() for a in alone]


# ----------------------------------------------------- gradients

def test_composed_gradients_match_finite_differences():
    # the training forward, the one differentiated; dropout 0, so it drops
    # no edge
    from oracles import check_grads

    rng = np.random.default_rng(59)
    g = random_graph(rng, 6, 4, 10)
    target = Triple(int(rng.integers(6)), 3, int(rng.integers(6)))
    for config in variant_configs(dim=3):
        params = init_params(config, 4, np.random.default_rng(11))
        sample = build_sample(g, target, config)

        def loss_fn(p):
            tape = Tape()
            pvars = bind_params(tape, p)
            src = make_source(tape, pvars, config)
            return float(score_sample([sample], src, pvars, config, training=True).value[0])

        tape = Tape()
        pvars = bind_params(tape, params)
        src = make_source(tape, pvars, config)
        out = score_sample([sample], src, pvars, config, training=True)
        grads = tape.backward(total(out))
        check_grads(loss_fn, grads, params)


def test_backward_through_the_scoring_forward_raises():
    config = ModelConfig(hops=2, dim=3, edge_dropout=0.0, target_attention=True)
    graph = random_graph(np.random.default_rng(5), 6, 4, 10)
    sample = build_sample(graph, Triple(0, 3, 1), config)
    assert len(sample_triples(sample)) > 1
    tape = Tape()
    pvars = bind_params(tape, init_params(config, 4, np.random.default_rng(0)))
    out = score_sample([sample], make_source(tape, pvars, config), pvars, config)
    with pytest.raises(nk.NumkitError, match="outside the tape"):
        tape.backward(total(out))


def test_deepest_model_reads_levels_at_the_top_of_their_type():
    # at K = MAX_HOPS = 126 a triple between two entities K steps from both
    # ends of the target is of level K + 1 = 127, the largest int8; both
    # forwards leave it out.  One hop deeper is refused.
    k = subgraph.MAX_HOPS
    u, v, w, x, y = range(5)
    path = iter(range(5, 5 + 2 * k))
    rows = [Triple(u, 2, v)]  # the ends are neighbours in the graph too
    for end in (u, v):  # a path of K - 1 steps from each end of the target to w
        prev = end
        for _ in range(k - 2):
            nxt = next(path)
            rows.append(Triple(prev, 0, nxt))
            prev = nxt
        rows.append(Triple(prev, 0, w))
    rows += [Triple(w, 1, x), Triple(w, 1, y), Triple(x, 2, y)]
    graph = KnowledgeGraph(make_vocab(5 + 2 * k, 4), rows)
    target = Triple(u, 3, v)
    config = ModelConfig(hops=k, dim=2, edge_dropout=0.0)
    sample = build_sample(graph, target, config)
    levels = dict(zip(sample_triples(sample), sample.levels.tolist()))
    assert levels[Triple(x, 2, y)] == k + 1 == np.iinfo(np.int8).max
    assert levels[Triple(w, 1, x)] == levels[Triple(w, 1, y)] == k
    assert len(levels) == len(rows)
    params = init_params(config, 4, np.random.default_rng(0))
    got, want = forward_pair([sample], config, params)
    np.testing.assert_allclose(got, want, **TOL)
    with pytest.raises(ModelError, match="hops must be in 1..126, got 127"):
        ModelConfig(hops=k + 1)
    with pytest.raises(subgraph.SubgraphError, match="hop count must be in 1..126, got 127"):
        extract_enclosing(graph, target, k + 1)


def test_config_validation():
    with pytest.raises(ModelError):
        ModelConfig(hops=0)
    with pytest.raises(ModelError):
        ModelConfig(edge_dropout=1.0)
    with pytest.raises(ModelError):
        ModelConfig(fusion="mean")
    with pytest.raises(ModelError):
        ModelConfig(init_mode="onehot")
    round_trip = ModelConfig.from_dict(ModelConfig(dim=8).to_dict())
    assert round_trip == ModelConfig(dim=8)


def test_variant_config_sets_the_variant_and_the_given_fields():
    for name, ne, ta in [("base", False, False), ("ne", True, False),
                         ("ta", False, True), ("ne-ta", True, True)]:
        assert rmpnet.variant_config(name, hops=3, fusion="conc") == ModelConfig(
            hops=3, fusion="conc", use_disclosing=ne, target_attention=ta)
    with pytest.raises(ModelError, match="variant must be one of"):
        rmpnet.variant_config("ne-ne")
