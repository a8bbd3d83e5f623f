import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from rmpi import kgstore, subgraph, trainlab
from rmpi.kgstore import KnowledgeGraph, Triple, khop_neighbors
from rmpi.rmpnet import ModelConfig, stack_samples
from rmpi.subgraph import (
    EDGE_TYPE_NAMES,
    NO_EDGES,
    SubgraphError,
    RelationViewGraph,
    dump_relation_view,
    extract_disclosing,
    extract_enclosing,
    prune_to_target,
    to_relation_view,
)
from rmpi.trainlab import build_sample
from synth import edge_array, make_vocab, random_graph


def named_edges(rvg):
    return {(s, EDGE_TYPE_NAMES[et], d) for (s, et, d) in rvg.edges}


def entities(sub):
    """The entities of a subgraph's triples, the target's included."""
    return frozenset(e for h, _, t in sub.triples for e in (h, t))


def four_triple_graph():
    # A=0 B=1 C=2 D=3; r1..r4 = 0..3, r_t = 4
    vocab = make_vocab(4, 5, seen={0, 1, 2, 3})
    g = KnowledgeGraph(
        vocab,
        [Triple(0, 0, 1), Triple(1, 1, 2), Triple(0, 2, 2), Triple(2, 3, 3)],
    )
    return g, Triple(0, 4, 2)


# ------------------------------------------------------- extraction

def test_enclosing_four_triple_example():
    g, target = four_triple_graph()
    sub = extract_enclosing(g, target, 1)
    assert entities(sub) == frozenset({0, 1, 2})
    assert sub.triples == (Triple(0, 0, 1), Triple(1, 1, 2), Triple(0, 2, 2), target)
    assert sub.triples[len(sub.indexes)] == target
    assert sub.kind == "enclosing"


def test_disclosing_four_triple_example():
    g, target = four_triple_graph()
    sub = extract_disclosing(g, target, 1)
    assert entities(sub) == frozenset({0, 1, 2, 3})
    assert set(sub.triples[:-1]) == set(g.triples)
    assert sub.triples[-1] == target
    assert sub.kind == "disclosing"


def test_extraction_and_samples_are_one_record(monkeypatch):
    # an enclosing subgraph, a disclosing one and an ne sample: one record
    # type, whose read-backs read right on each; a base sample and an ne
    # sample are each the one record its extraction returns, the ne one
    # carrying the labels beside the enclosing subgraph's arrays
    g, target = four_triple_graph()
    extracted = []

    def extract(*args, **kwargs):
        extracted.append(extract_enclosing(*args, **kwargs))
        return extracted[-1]

    monkeypatch.setattr(trainlab, "extract_enclosing", extract)
    base = build_sample(g, target, ModelConfig(hops=1))
    assert base is extracted[-1]
    assert base.labels is subgraph.NO_LABELS
    ne = build_sample(g, target, ModelConfig(hops=1, use_disclosing=True))
    assert ne is extracted[-1] and len(extracted) == 2
    enclosing = extract_enclosing(g, target, 1)
    assert ne.graph is enclosing.graph and ne.target is enclosing.target is target
    assert np.array_equal(ne.indexes, enclosing.indexes)
    assert np.array_equal(ne.levels, enclosing.levels)
    disclosing = extract_disclosing(g, target, 1)
    for sub, kind in ((enclosing, "enclosing"), (disclosing, "disclosing"), (ne, "enclosing")):
        assert type(sub) is subgraph.Subgraph and not hasattr(sub, "__dict__")
        assert sub.kind == kind
        assert sub.indexes.dtype == np.int32
    assert enclosing.triples == ne.triples == (
        Triple(0, 0, 1), Triple(1, 1, 2), Triple(0, 2, 2), target)
    assert disclosing.triples == tuple(g.triples) + (target,)
    assert enclosing.levels.dtype == np.int8 and disclosing.levels is None
    assert ne.labels.dtype == np.int32 and ne.labels.tolist() == [0, 1, 2, 3]
    assert enclosing.nbytes == 5 * 3  # int32 index and int8 level per triple
    assert disclosing.nbytes == 4 * 4  # no levels
    assert ne.nbytes == 5 * 3 + 4 * 4  # and an int32 per label


def test_enclosing_disconnected_endpoints_only_target_edge():
    vocab = make_vocab(6, 3)
    # two separate components, u=0 and v=3 unrelated
    g = KnowledgeGraph(vocab, [Triple(0, 0, 1), Triple(1, 0, 2), Triple(3, 1, 4), Triple(4, 1, 5)])
    sub = extract_enclosing(g, Triple(0, 2, 3), 1)
    assert sub.triples == (Triple(0, 2, 3),)
    assert entities(sub) == frozenset({0, 3})


def test_enclosing_single_triple_identity():
    vocab = make_vocab(2, 2)
    g = KnowledgeGraph(vocab, [Triple(0, 0, 1)])
    sub = extract_enclosing(g, Triple(0, 1, 1), 2)
    assert entities(sub) == frozenset({0, 1})
    assert sub.triples == (Triple(0, 0, 1), Triple(0, 1, 1))


def test_disclosing_disconnected_union():
    vocab = make_vocab(6, 3)
    g = KnowledgeGraph(vocab, [Triple(0, 0, 1), Triple(3, 1, 4)])
    sub = extract_disclosing(g, Triple(0, 2, 3), 1)
    assert entities(sub) == frozenset({0, 1, 3, 4})
    assert set(sub.triples) == {Triple(0, 0, 1), Triple(3, 1, 4), Triple(0, 2, 3)}


def test_disclosing_large_k_covers_graph():
    g, target = four_triple_graph()
    sub = extract_disclosing(g, target, 10)
    assert entities(sub) == frozenset({0, 1, 2, 3})
    assert len(sub.triples) == 5


def test_target_instance_stays_unique_when_already_in_graph():
    vocab = make_vocab(3, 2)
    g = KnowledgeGraph(vocab, [Triple(0, 0, 1), Triple(0, 1, 1), Triple(1, 0, 2)])
    for extract in (extract_enclosing, extract_disclosing):
        sub = extract(g, Triple(0, 1, 1), 2)
        assert sum(1 for t in sub.triples if t == Triple(0, 1, 1)) == 1


def test_extraction_rejects_bad_inputs():
    g, target = four_triple_graph()
    with pytest.raises(SubgraphError):
        extract_enclosing(g, target, 0)
    with pytest.raises(Exception):
        extract_enclosing(g, Triple(99, 0, 1), 2)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=2, max_value=10),
    st.integers(min_value=1, max_value=25),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_extraction_matches_floyd_warshall_oracles(n_entities, n_triples, k, seed):
    rng = np.random.default_rng(seed)
    g = random_graph(rng, n_entities, 4, n_triples)
    u = int(rng.integers(n_entities))
    v = int(rng.integers(n_entities))
    target = Triple(u, 3, v)

    want_ent, want_triples = oracles.enclosing_subgraph(g, target, k)
    sub = extract_enclosing(g, target, k)
    assert entities(sub) == frozenset(want_ent)
    assert list(sub.triples[:-1]) == want_triples

    want_ent_d, want_triples_d = oracles.disclosing_subgraph(g, target, k)
    sub_d = extract_disclosing(g, target, k)
    assert entities(sub_d) == frozenset(want_ent_d)
    assert list(sub_d.triples[:-1]) == want_triples_d

    # enclosing entity set never exceeds the disclosing one
    assert entities(sub) <= entities(sub_d)


# ------------------------------------------------------- relation view

def test_relation_view_basic_pair_types():
    g, target = four_triple_graph()
    rvg = to_relation_view(extract_enclosing(g, target, 1))
    # node order: T1=(A,r1,B) T2=(B,r2,C) T3=(A,r3,C) T0=target
    e = named_edges(rvg)
    assert (0, "T-H", 1) in e  # T1 tail B = T2 head
    assert (1, "H-T", 0) in e
    assert (2, "PARA", 3) in e and (3, "PARA", 2) in e
    assert (2, "H-H", 3) not in e and (2, "T-T", 3) not in e
    assert (3, "H-H", 2) not in e and (3, "T-T", 2) not in e


def test_relation_view_single_node():
    vocab = make_vocab(4, 2)
    g = KnowledgeGraph(vocab, [Triple(2, 0, 3)])
    sub = extract_enclosing(g, Triple(0, 1, 1), 1)
    rvg = to_relation_view(sub)
    assert rvg.num_nodes == 1
    assert rvg.edges.shape == (0, 3)
    assert rvg.target_index == 0
    assert rvg.labels == (1,)


def test_relation_view_labels_follow_relations():
    g, target = four_triple_graph()
    rvg = to_relation_view(extract_disclosing(g, target, 1))
    assert rvg.labels == tuple(t.relation for t in rvg.nodes)
    assert rvg.nodes[rvg.target_index] == target


def test_self_loop_pair_can_be_both_para_and_loop():
    vocab = make_vocab(1, 2)
    g = KnowledgeGraph(vocab, [Triple(0, 0, 0)])
    sub = extract_enclosing(g, Triple(0, 1, 0), 1)
    rvg = to_relation_view(sub)
    e = named_edges(rvg)
    assert (0, "PARA", 1) in e and (0, "LOOP", 1) in e
    basic = {n for (s, n, d) in e if (s, d) == (0, 1)}
    assert basic == {"PARA", "LOOP"}


def test_duplicate_triples_become_para_nodes():
    vocab = make_vocab(2, 2)
    g = KnowledgeGraph(vocab, [Triple(0, 0, 1), Triple(0, 0, 1)])
    rvg = to_relation_view(extract_enclosing(g, Triple(0, 1, 1), 1))
    assert rvg.num_nodes == 3
    e = named_edges(rvg)
    assert (0, "PARA", 1) in e and (1, "PARA", 0) in e
    assert rvg.labels[0] == rvg.labels[1] == 0


def test_no_self_edges_ever():
    rng = np.random.default_rng(7)
    for _ in range(20):
        g = random_graph(rng, 6, 3, 12)
        sub = extract_disclosing(g, Triple(0, 2, 3), 2)
        rvg = to_relation_view(sub)
        assert all(s != d for (s, _, d) in rvg.edges)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=2, max_value=8),
    st.integers(min_value=1, max_value=20),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_relation_view_matches_pairwise_oracle(n_entities, n_triples, seed):
    rng = np.random.default_rng(seed)
    g = random_graph(rng, n_entities, 4, n_triples)
    target = Triple(int(rng.integers(n_entities)), 3, int(rng.integers(n_entities)))
    sub = extract_disclosing(g, target, 2)
    rvg = to_relation_view(sub)
    assert named_edges(rvg) == oracles.relation_view_edges(sub.triples)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=2, max_value=8),
    st.integers(min_value=1, max_value=20),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_edge_types_sound_against_their_definitions(n_entities, n_triples, seed):
    rng = np.random.default_rng(seed)
    g = random_graph(rng, n_entities, 4, n_triples)
    target = Triple(int(rng.integers(n_entities)), 3, int(rng.integers(n_entities)))
    rvg = to_relation_view(extract_disclosing(g, target, 2))
    e = named_edges(rvg)
    for s, name, d in e:
        h1, _, t1 = rvg.nodes[s]
        h2, _, t2 = rvg.nodes[d]
        ok = {
            "H-T": h1 == t2,
            "T-H": t1 == h2,
            "H-H": h1 == h2,
            "T-T": t1 == t2,
            "PARA": h1 == h2 and t1 == t2,
            "LOOP": h1 == t2 and t1 == h2,
        }[name]
        assert ok
        if name == "PARA":
            assert (s, "H-H", d) not in e and (s, "T-T", d) not in e
        if name == "LOOP":
            assert (s, "H-T", d) not in e and (s, "T-H", d) not in e


def hub_graph():
    """A hub, entity 0, with 165 triple ends, among them parallel, inverse,
    self-loop and duplicate triples: the hub's ends include both ends of one
    triple."""
    rows = [Triple(0, i % 4, i) if i % 3 else Triple(i, i % 4, 0) for i in range(1, 161)]
    rows += [
        Triple(0, 2, 1),  # parallel to (0, 1, 1)
        Triple(0, 2, 1),  # duplicate of it
        Triple(1, 0, 0),  # inverse of both
        Triple(0, 3, 0),  # self-loops, one on the hub
        Triple(2, 1, 2),
        Triple(1, 2, 2),
        Triple(3, 1, 1),
    ]
    return KnowledgeGraph(make_vocab(161, 5), rows), Triple(0, 4, 1)


def test_relation_view_matches_pairwise_oracle_at_hub_scale():
    g, target = hub_graph()
    sub = extract_disclosing(g, target, 1)
    assert len(sub.triples) == g.num_triples + 1
    rvg = to_relation_view(sub)
    want = oracles.relation_view_edges(sub.triples)
    assert len(want) > 20000
    assert named_edges(rvg) == want
    assert len(rvg.edges) == len(want)  # no edge listed twice


def test_relation_view_edge_array_contract():
    g, target = hub_graph()
    rvg = to_relation_view(extract_disclosing(g, target, 1))
    e = rvg.edges
    assert e.dtype == np.int32
    assert e.ndim == 2 and e.shape[1] == 3 and len(e) > 0
    # strictly increasing (dst, type, src): sorted, and no row twice
    key = (e[:, 2].astype(np.int64) * len(EDGE_TYPE_NAMES) + e[:, 1]) * rvg.num_nodes + e[:, 0]
    assert (np.diff(key) > 0).all()
    assert not e.flags.writeable
    with pytest.raises(ValueError):
        e[0, 0] = 1


def test_views_without_shared_entities_share_the_empty_edge_array():
    vocab = make_vocab(4, 2)
    one_node = to_relation_view(
        extract_enclosing(KnowledgeGraph(vocab, [Triple(2, 0, 3)]), Triple(0, 1, 1), 1)
    )
    assert one_node.num_nodes == 1
    assert one_node.edges is NO_EDGES
    assert all(e is NO_EDGES for e in prune_to_target(one_node, 2))
    # two nodes sharing no entity; a self-loop shares only with itself
    for first in (Triple(2, 0, 3), Triple(2, 0, 2)):
        sub = subgraph.Subgraph(
            graph=KnowledgeGraph(vocab, [first]),
            indexes=np.array([0], dtype=np.int32),
            target=Triple(0, 1, 1),
            levels=None,
            labels=subgraph.NO_LABELS,
        )
        assert sub.triples == (first, Triple(0, 1, 1))
        assert to_relation_view(sub).edges is NO_EDGES


def layer_one_edges(sample, hops):
    """The relation-view edges a training step of a depth-hops model
    expands for sample, by the pairwise oracle: those into its triples of
    level below K = hops, the layer-1 receivers."""
    triples = tuple(sample.graph.triples[i] for i in sample.indexes) + (sample.target,)
    levels = sample.levels.tolist() + [0]  # the target's is 0
    edges = oracles.relation_view_edges(triples)
    return sum(1 for _, _, dst in edges if levels[dst] < hops)


def test_view_over_edge_ceiling_raises_naming_target(monkeypatch):
    # a training step builds the edges of all its samples at once, so the
    # ceiling bounds the step, and the error names the sample whose
    # receivers take the most edges
    g, target = hub_graph()
    config = ModelConfig(dim=4, hops=1)
    small = Triple(100, 4, 150)  # two triples at the hub, one at each end
    samples = [build_sample(g, t, config) for t in (small, target, small)]
    edges = [layer_one_edges(s, config.hops) for s in samples]
    assert 0 < edges[0] < edges[1]
    monkeypatch.setattr(subgraph, "MAX_VIEW_EDGES", max(edges))
    with pytest.raises(SubgraphError, match=re.escape(f"target {target} needs {sum(edges)} edges")):
        stack_samples(samples, config.hops, training=True)
    for sample in samples:  # each alone is within the ceiling
        stack_samples([sample], config.hops, training=True)


def test_view_builds_at_the_edge_ceiling_and_raises_one_below(monkeypatch):
    g, target = hub_graph()
    sub = extract_disclosing(g, target, 1)
    edges = len(oracles.relation_view_edges(sub.triples))
    monkeypatch.setattr(subgraph, "MAX_VIEW_EDGES", edges)
    assert len(to_relation_view(sub).edges) == edges
    monkeypatch.setattr(subgraph, "MAX_VIEW_EDGES", edges - 1)
    with pytest.raises(SubgraphError, match=re.escape(f"target {target} needs {edges} edges, "
                                                      f"over the limit of {edges - 1}")):
        to_relation_view(sub)


# ------------------------------------------------------- pruning

def make_rvg(n, edges, target):
    # labels are irrelevant for pruning; nodes get dummy triples
    return RelationViewGraph(
        nodes=tuple(Triple(0, 0, 0) for _ in range(n)),
        labels=tuple(0 for _ in range(n)),
        edges=edge_array(*edges),
        target_index=target,
    )


def layer_sets(layers):
    """Each layer's (src, type, dst) rows, as a set."""
    return [set(map(tuple, e.tolist())) for e in layers]


def test_prune_star_two_layers():
    # X=1, Y=2 point at target 0; no reciprocal edges
    rvg = make_rvg(3, [(1, 0, 0), (2, 0, 0)], target=0)
    star = {(1, 0, 0), (2, 0, 0)}
    assert layer_sets(prune_to_target(rvg, 2)) == [star, star]


def test_prune_star_with_reciprocal_edges_revisits_target():
    rvg = make_rvg(3, [(1, 0, 0), (2, 0, 0), (0, 1, 1), (0, 1, 2)], target=0)
    star = {(1, 0, 0), (2, 0, 0)}
    everything = star | {(0, 1, 1), (0, 1, 2)}
    # N^1 = {1, 2}; the reciprocal edges feed them, so only the last layer,
    # which updates the target alone, leaves those edges out
    assert layer_sets(prune_to_target(rvg, 2)) == [everything, star]
    # N^2 = {0}: the target reappears, and adds no receiver
    assert layer_sets(prune_to_target(rvg, 3)) == [everything, everything, star]


def test_prune_target_without_incoming_edges():
    rvg = make_rvg(3, [(0, 0, 1), (1, 0, 2)], target=0)
    assert layer_sets(prune_to_target(rvg, 2)) == [set(), set()]


def test_prune_fully_connected_k1():
    edges = []
    for i in range(3):
        for j in range(3):
            if i != j:
                edges.append((i, 2, j))
    rvg = make_rvg(3, edges, target=1)
    # only edges into the target survive at depth 1
    assert layer_sets(prune_to_target(rvg, 1)) == [{(0, 2, 1), (2, 2, 1)}]


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=2, max_value=8),
    st.integers(min_value=1, max_value=20),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_prune_matches_reverse_bfs_oracle(n_entities, n_triples, k, seed):
    rng = np.random.default_rng(seed)
    g = random_graph(rng, n_entities, 4, n_triples)
    target = Triple(int(rng.integers(n_entities)), 3, int(rng.integers(n_entities)))
    rvg = to_relation_view(extract_enclosing(g, target, k))
    layers = prune_to_target(rvg, k)
    rows = [tuple(e) for e in rvg.edges.tolist()]
    frontiers, want_first = oracles.prune_frontiers(rows, rvg.target_index, k)
    assert len(layers) == k
    assert layer_sets(layers)[0] == want_first
    for layer, edges in enumerate(layers, start=1):
        # layer l reads the edges into N^0 ∪ ... ∪ N^(k-l)
        receivers = set().union(*frontiers[: k - layer + 1])
        assert set(map(tuple, edges.tolist())) == {e for e in rows if e[2] in receivers}
        # a masked subset of the view's edges, so still in (dst, type, src) order
        key = edges[:, 2].astype(np.int64) * len(EDGE_TYPE_NAMES) + edges[:, 1]
        assert (np.diff(key * rvg.num_nodes + edges[:, 0]) > 0).all()


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=2, max_value=8),
    st.integers(min_value=1, max_value=24),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_receiver_levels_are_prunings_node_sets(n_entities, n_triples, k, seed):
    # the levels the extraction measures give the nodes that reach the
    # target within j steps of the relation view, at every depth up to k
    rng = np.random.default_rng(seed)
    g = random_graph(rng, n_entities, 4, n_triples)
    g = KnowledgeGraph(g.vocab, g.triples + g.triples[:3])  # duplicates
    target = Triple(int(rng.integers(n_entities)), 3, int(rng.integers(n_entities)))
    for depth in range(1, k + 1):
        assert_levels_are_prunings_node_sets(extract_enclosing(g, target, depth), depth)


def assert_levels_are_prunings_node_sets(sub, depth):
    rvg = to_relation_view(sub)
    frontiers, _ = oracles.prune_frontiers([tuple(e) for e in rvg.edges.tolist()],
                                           rvg.target_index, depth)
    levels = sub.levels.tolist() + [0]  # the target's is 0
    assert len(levels) == len(sub.triples)
    for j in range(depth + 1):
        assert ({i for i, level in enumerate(levels) if level <= j}
                == set().union(*frontiers[: j + 1]))
    assert all(level <= depth + 1 for level in levels)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=2, max_value=9),
    st.integers(min_value=1, max_value=20),
    st.integers(min_value=1, max_value=3),
    st.sampled_from([0, 1, 16]),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_extraction_on_a_warm_memo_matches_the_oracles(n_entities, n_triples, k, per_row, seed):
    # many targets from one graph, most sharing an end with the one before,
    # as a rank query's candidates share its fixed entity
    rng = np.random.default_rng(seed)
    g = random_graph(rng, n_entities, 4, n_triples)
    u = int(rng.integers(n_entities))
    with mock.patch.object(kgstore, "KHOP_MEMO_IDS_PER_ROW", per_row):
        for _ in range(15):
            if rng.random() < 0.3:
                u = int(rng.integers(n_entities))
            v = int(rng.integers(n_entities))
            target = Triple(u, 3, v) if rng.random() < 0.5 else Triple(v, 3, u)
            depth = int(rng.integers(1, k + 1))
            sub = extract_enclosing(g, target, depth)
            want_ent, want_triples = oracles.enclosing_subgraph(g, target, depth)
            assert entities(sub) == frozenset(want_ent)
            assert list(sub.triples[:-1]) == want_triples
            idxs = sub.indexes.tolist()
            assert list(idxs) == sorted(set(idxs))
            assert [g.triples[i] for i in idxs] == want_triples
            assert_levels_are_prunings_node_sets(sub, depth)
            want_ent_d, want_triples_d = oracles.disclosing_subgraph(g, target, depth)
            assert list(extract_disclosing(g, target, depth).triples[:-1]) == want_triples_d
            assert g.khop_memo_entries <= g.khop_memo_budget or len(g.khop_memo) == 1


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=2, max_value=8),
    st.integers(min_value=4, max_value=25),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_each_ball_is_walked_once_under_the_budget(n_entities, n_triples, k, seed):
    # at most n_entities balls of at most n_entities ids, and 16 ids a row
    # of at least 4 triples' rows: every ball fits the budget
    rng = np.random.default_rng(seed)
    g = random_graph(rng, n_entities, 4, n_triples)
    for _ in range(2):
        for t in g.triples:
            extract_enclosing(g, t, k)
            extract_disclosing(g, t, k)
    ends = {(e, k) for t in g.triples for e in (t.head, t.tail)}
    assert set(g.khop_memo) == ends
    assert g.khop_walks == len(ends)
    assert g.khop_hits == 8 * len(g.triples) - len(ends)
    assert g.khop_memo_entries <= g.khop_memo_budget


def no_inner_walk(*args, **kwargs):
    raise AssertionError("walked inside the intersection")


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=1, max_value=10),
    st.integers(min_value=0, max_value=25),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_pruning_distances_match_floyd_warshall(n_entities, n_triples, k, seed):
    # inside any entity set holding u and v, with the u–v link added
    rng = np.random.default_rng(seed)
    g = random_graph(rng, n_entities, 3, n_triples)
    u, v = int(rng.integers(n_entities)), int(rng.integers(n_entities))
    common = {e for e in range(n_entities) if rng.random() < 0.7} | {u, v}
    induced = [t for t in g.triples if t.head in common and t.tail in common]
    dist = oracles.floyd_warshall(n_entities, induced + [Triple(u, 0, v)])
    want = {e: int(min(dist[u][e], dist[v][e])) for e in common
            if dist[u][e] <= k and dist[v][e] <= k}
    assert subgraph._pruning_distances(g, u, v, common, k) == want


@pytest.mark.parametrize("rows, target, want, hops", [
    # a self-loop at u, then at v; the far triple is not reached
    ([Triple(0, 0, 0), Triple(2, 1, 3)], Triple(0, 2, 1), [0], (1, 2, 3)),
    ([Triple(2, 1, 3), Triple(1, 0, 1)], Triple(0, 2, 1), [1], (1, 2, 3)),
    # u == v: its self-loops, but not the instance equal to the target
    ([Triple(0, 0, 0), Triple(0, 2, 0), Triple(0, 1, 0), Triple(2, 1, 3)], Triple(0, 2, 0),
     [0, 2], (1, 2, 3)),
    # duplicated target instances are left out, another u–v triple is kept
    ([Triple(0, 2, 1), Triple(0, 0, 1), Triple(0, 2, 1)], Triple(0, 2, 1), [1], (1, 2, 3)),
    # parallel, inverse and duplicate u–v triples, self-loops at both ends,
    # and neighbours of u or v that are not neighbours of both at K = 1
    ([Triple(0, 0, 1), Triple(1, 1, 0), Triple(0, 0, 1), Triple(1, 3, 1), Triple(0, 3, 0),
      Triple(0, 1, 2), Triple(3, 1, 1)], Triple(0, 2, 1), [0, 1, 2, 3, 4], (1,)),
    # at K = 2 entity 2 is in both neighbourhoods, through 3 and through 4,
    # but no triple joins it to u or v inside the intersection
    ([Triple(0, 1, 3), Triple(3, 1, 2), Triple(1, 0, 4), Triple(4, 0, 2), Triple(0, 3, 0)],
     Triple(0, 2, 1), [4], (2,)),
])
def test_bare_target_keeps_its_end_triples_at_level_one(rows, target, want, hops):
    g = KnowledgeGraph(make_vocab(5, 4), rows)
    for k in hops:
        sub = extract_enclosing(g, target, k)
        assert sub.indexes.tolist() == want
        assert sub.triples == tuple(rows[i] for i in want) + (target,)
        assert sub.levels.tolist() == [1] * len(want)
        _, want_triples = oracles.enclosing_subgraph(g, target, k)
        assert list(sub.triples[:-1]) == want_triples
    for k in (1, 2, 3):
        assert_levels_are_prunings_node_sets(extract_enclosing(g, target, k), k)


def test_target_with_a_shared_neighbour_walks_the_intersection(monkeypatch):
    g = KnowledgeGraph(make_vocab(3, 2), [Triple(0, 0, 2), Triple(2, 1, 1)])
    monkeypatch.setattr(subgraph, "_pruning_distances", no_inner_walk)
    with pytest.raises(AssertionError, match="walked inside the intersection"):
        extract_enclosing(g, Triple(0, 1, 1), 1)


def test_bare_target_has_level_zero_only():
    vocab = make_vocab(4, 2)
    g = KnowledgeGraph(vocab, [Triple(2, 0, 3)])
    for k in (1, 2, 3):
        sub = extract_enclosing(g, Triple(0, 1, 1), k)
        assert sub.triples == (Triple(0, 1, 1),)
        assert sub.levels.shape == (0,)  # the target's 0 is not held
    assert extract_disclosing(g, Triple(0, 1, 1), 1).levels is None


def same_record(got, want):
    """Whether two records hold the same graph, target and arrays, with the
    same dtypes and read-only flags."""
    pairs = ((got.indexes, want.indexes), (got.levels, want.levels), (got.labels, want.labels))
    return got.graph is want.graph and got.target == want.target and all(
        a.dtype == b.dtype and a.flags.writeable == b.flags.writeable and np.array_equal(a, b)
        for a, b in pairs)


@pytest.mark.parametrize("disclosing", [False, True])
def test_a_plain_tuple_target_gives_the_triples_record(disclosing):
    # near, bare and far targets, and one equal to a graph triple
    g = KnowledgeGraph(make_vocab(6, 3), [Triple(e, 0, e + 1) for e in range(5)]
                       + [Triple(5, 1, 5), Triple(0, 1, 0), Triple(2, 2, 3)])
    for target in (Triple(1, 2, 3), Triple(5, 0, 4), Triple(0, 2, 5), Triple(2, 2, 3)):
        for k in (1, 2):
            got = extract_enclosing(g, tuple(target), k, disclosing=disclosing)
            assert type(got.target) is Triple
            assert same_record(got, extract_enclosing(g, target, k, disclosing=disclosing))


def rank_query(rng, graph, fixed, side, n):
    """A query at the fixed entity and n candidates of its other side, the
    fixed entity among them, as a rank query's triples share it."""
    others = rng.permutation(graph.vocab.num_entities)[:n].tolist() + [fixed]
    return [Triple(e, 3, fixed) if side == "head" else Triple(fixed, 3, e) for e in others]


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=2, max_value=10),
    st.integers(min_value=0, max_value=25),
    st.integers(min_value=1, max_value=3),
    st.booleans(),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_list_extraction_equals_extracting_each_target(n_entities, n_triples, k, disclosing,
                                                       seed):
    # small random graphs hold self-loops and duplicate triples; entity
    # n_entities has no triple, and relation 3 none, so that a target may
    # equal a graph triple only where one is copied in
    rng = np.random.default_rng(seed)
    g = random_graph(rng, n_entities, 3, n_triples)
    vocab = g.vocab
    vocab.entity_id(f"e{n_entities}", create=True)
    vocab.relation_id("r3", create=True)
    g = KnowledgeGraph(vocab, g.triples)
    queries = [rank_query(rng, g, int(rng.integers(n_entities + 1)), side, 4)
               for side in ("head", "tail") for _ in range(3)]
    queries.append(rank_query(rng, g, n_entities, "tail", 3))  # an isolated fixed entity
    queries.append(list(g.triples[:4]))  # targets that are graph triples
    mixed = [t for q in queries for t in q]
    mixed = [mixed[i] for i in rng.permutation(len(mixed))]  # larger balls that differ
    for targets in queries + [mixed]:
        got = subgraph.extract_enclosing_list(g, targets, k, disclosing=disclosing)
        assert len(got) == len(targets)
        for sub, t in zip(got, targets):
            assert same_record(sub, extract_enclosing(g, t, k, disclosing=disclosing))
            _, want_triples = oracles.enclosing_subgraph(g, t, k)
            assert list(sub.triples[:-1]) == want_triples


def test_targets_whose_balls_share_only_their_ends_walk_nothing(monkeypatch):
    # the path 0 - 1 - 2 - 3 - 4 - 5, self-loops at 5, 0 and 5 again: at
    # K = 1, (0, 5) keeps only the self-loops of its ends, and (5, 4) the
    # triples among its ends, without a walk; (1, 3) shares 2, so it walks
    g = KnowledgeGraph(make_vocab(6, 2), [Triple(e, 0, e + 1) for e in range(5)]
                       + [Triple(5, 1, 5), Triple(0, 1, 0), Triple(5, 1, 5)])
    bare = [Triple(0, 1, 5), Triple(5, 0, 4)]
    want = [extract_enclosing(g, t, 1, disclosing=True) for t in bare]
    monkeypatch.setattr(subgraph, "_pruning_distances", no_inner_walk)
    got = subgraph.extract_enclosing_list(g, bare, 1, disclosing=True)
    assert all(same_record(a, b) for a, b in zip(got, want))
    assert [sub.indexes.tolist() for sub in got] == [[5, 6, 7], [4, 5, 7]]
    assert [sub.levels.tolist() for sub in got] == [[1, 1, 1], [1, 1, 1]]
    assert [extract_enclosing(g, t, 1).indexes.tolist() for t in bare] == [[5, 6, 7], [4, 5, 7]]
    for sub in subgraph.extract_enclosing_list(g, [Triple(1, 0, 4), Triple(4, 1, 1)], 1):
        assert sub.indexes is subgraph.NO_INDEXES and sub.levels is subgraph.NO_LEVELS
        assert not sub.indexes.flags.writeable and not sub.levels.flags.writeable
    with pytest.raises(AssertionError, match="walked inside the intersection"):
        subgraph.extract_enclosing_list(g, [Triple(1, 0, 3)], 1)


# the cut-over that sends every intersection down one route
ROUTES = {"array": 0, "loop": 1 << 30}


def routed(route, extract, *args, **kwargs):
    """An extraction with every intersection sent down one route."""
    with mock.patch.object(subgraph, "ARRAY_ROUTE_ENTITIES", ROUTES[route]):
        return extract(*args, **kwargs)


def same_record_and_sharing(got, want):
    """same_record, and an empty array is the shared NO_* one in both."""
    return same_record(got, want) and all(
        (a is shared) == (b is shared)
        for a, b, shared in ((got.indexes, want.indexes, subgraph.NO_INDEXES),
                             (got.levels, want.levels, subgraph.NO_LEVELS),
                             (got.labels, want.labels, subgraph.NO_LABELS)))


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=1, max_value=10),
    st.integers(min_value=0, max_value=30),
    st.integers(min_value=1, max_value=3),
    st.booleans(),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_array_and_loop_routes_give_the_same_records(n_entities, n_triples, k, disclosing,
                                                     seed):
    # random graphs with self-loops and duplicate triples; entity n_entities
    # is isolated, and relation 3 is in no triple, so that a target equals a
    # graph triple only where one is copied in
    rng = np.random.default_rng(seed)
    g = random_graph(rng, n_entities, 3, n_triples)
    vocab = g.vocab
    vocab.entity_id(f"e{n_entities}", create=True)
    vocab.relation_id("r3", create=True)
    g = KnowledgeGraph(vocab, g.triples)
    ends = rng.integers(n_entities + 1, size=(12, 2)).tolist()
    targets = [Triple(u, 3, v) for u, v in ends]
    targets += [Triple(u, 3, u) for u, _ in ends[:3]]  # u == v
    targets += [Triple(n_entities, 3, ends[0][0]), Triple(ends[1][0], 3, n_entities)]  # isolated
    targets += g.triples[:5]  # targets equal to graph triples
    routes = {route: routed(route, subgraph.extract_enclosing_list, g, targets, k,
                            disclosing=disclosing) for route in ROUTES}
    for i, t in enumerate(targets):
        alone = {route: routed(route, extract_enclosing, g, t, k, disclosing=disclosing)
                 for route in ROUTES}
        assert same_record_and_sharing(routes["array"][i], routes["loop"][i])
        assert same_record_and_sharing(alone["array"], alone["loop"])
        assert same_record_and_sharing(alone["array"], routes["array"][i])
        want_ent, want_triples = oracles.enclosing_subgraph(g, t, k)
        assert list(alone["array"].triples[:-1]) == want_triples
        assert entities(alone["array"]) == frozenset(want_ent)


@pytest.mark.parametrize("route", sorted(ROUTES))
@pytest.mark.parametrize("k", [1, 2])
def test_an_entity_the_vocabulary_gains_after_indexing_has_no_rows(route, k):
    # the graph is indexed, then its vocabulary gains entity 10: targets at
    # it read no rows there, as on a graph indexed after the gain, and keep
    # the other end's disclosing labels
    def indexed_then_grown():
        g = random_graph(np.random.default_rng(k), 10, 3, 30, allow_self_loops=False)
        assert len(g.incident) == len(g.csr.starts) - 1 == 10
        return g, g.vocab.entity_id("e10", create=True)

    g, new = indexed_then_grown()
    fresh = KnowledgeGraph(g.vocab, g.triples)
    targets = [Triple(0, 1, new), Triple(new, 2, 3), Triple(new, 0, new)]
    got = routed(route, subgraph.extract_enclosing_list, g, targets, k, disclosing=True)
    g_alone = indexed_then_grown()[0]
    for t, sub in zip(targets, got):
        alone = routed(route, extract_enclosing, g_alone, t, k, disclosing=True)
        want = routed(route, extract_enclosing, fresh, t, k, disclosing=True)
        for record in (sub, alone):
            assert record.indexes is subgraph.NO_INDEXES and record.levels is subgraph.NO_LEVELS
            assert record.labels.tolist() == want.labels.tolist() == [
                g.triples[i].relation for i in oracles.disclosing_neighbors(g, t)]
        assert want.indexes is subgraph.NO_INDEXES
    assert len(got[0].labels) and len(got[1].labels)  # the in-range ends have rows
    g, new = indexed_then_grown()
    assert khop_neighbors(g, new, k) == {new: 0}
    assert extract_disclosing(g, targets[0], k).indexes.tolist() == \
        extract_disclosing(fresh, targets[0], k).indexes.tolist()


def hub_pair_graph(shared: int):
    """u = 0 and v = 1, joined, and `shared` entities 2 .. shared + 1 each
    joined to both, a self-loop at one and a second u–v instance: at K = 1
    the intersection holds shared + 2 entities."""
    rows = [Triple(0, 0, 1)]
    for e in range(2, shared + 2):
        rows += [Triple(0, 1, e), Triple(e, 2, 1)]
    rows += [Triple(2, 0, 2), Triple(1, 1, 0), Triple(0, 0, 1)]
    return KnowledgeGraph(make_vocab(shared + 2, 4), rows)


def test_the_cut_over_sends_thirty_entities_down_the_array_route(monkeypatch):
    # one entity below the cut-over takes the loop route, as the spy on the
    # array route shows; an intersection of the cut-over's size takes the
    # array route
    assert subgraph.ARRAY_ROUTE_ENTITIES == 30
    taken = []
    array_enclosing = subgraph._array_enclosing

    def spy(graph, target, common, k):
        taken.append(len(common))
        return array_enclosing(graph, target, common, k)

    monkeypatch.setattr(subgraph, "_array_enclosing", spy)
    target = Triple(0, 0, 1)  # equal to two graph triples, left out
    for size, route in ((29, []), (30, [30])):
        for targets in ([target], [target, Triple(1, 3, 0)]):
            g = hub_pair_graph(size - 2)
            taken.clear()
            alone = extract_enclosing(g, target, 1)
            assert taken == route
            listed = subgraph.extract_enclosing_list(g, targets, 1)
            assert taken == route * (1 + len(targets))
            assert same_record_and_sharing(listed[0], alone)
            _, want_triples = oracles.enclosing_subgraph(g, target, 1)
            assert list(alone.triples[:-1]) == want_triples
            # the shared entities' triples, the self-loop, a level further, and
            # the inverse u–v triple
            assert alone.levels.tolist() == [1] * (2 * size - 4) + [2, 1]


def test_array_route_on_a_hub_graph_matches_the_loop_route_and_the_oracles():
    # intersections past the cut-over, as a hub's are, at the module's own
    # cut-over, and in the level sets pruning would find
    rng = np.random.default_rng(5)
    g = random_graph(rng, 60, 4, 300)
    targets = [Triple(int(u), 3, int(v)) for u, v in rng.integers(60, size=(20, 2))]
    taken = []
    array_enclosing = subgraph._array_enclosing
    with mock.patch.object(subgraph, "_array_enclosing",
                           lambda *args: taken.append(1) or array_enclosing(*args)):
        for k in (1, 2):
            got = subgraph.extract_enclosing_list(g, targets, k, disclosing=True)
            for t, sub in zip(targets, got):
                assert same_record_and_sharing(
                    sub, routed("loop", extract_enclosing, g, t, k, disclosing=True))
                _, want_triples = oracles.enclosing_subgraph(g, t, k)
                assert list(sub.triples[:-1]) == want_triples
                assert_levels_are_prunings_node_sets(sub, k)
    assert len(taken) >= 20


@pytest.mark.parametrize("variant", [ModelConfig(dim=4, hops=2),
                                     ModelConfig(dim=4, hops=3, use_disclosing=True,
                                                 target_attention=True)],
                         ids=["base", "ne-ta"])
def test_scoring_a_query_together_equals_scoring_each_triple_alone(variant):
    from rmpi.rmpnet import init_params

    rng = np.random.default_rng(4)
    g = random_graph(rng, 12, 3, 30)
    params = init_params(variant, g.vocab.num_relations, np.random.default_rng(1))
    for fixed, side in ((0, "head"), (5, "tail"), (11, "tail")):
        triples = rank_query(rng, g, fixed, side, 11)
        triples = [Triple(h, 2, t) for h, _, t in triples]
        together = trainlab.score_triples(params, variant, trainlab.SampleCache(g, variant),
                                          triples)
        alone = [trainlab.score_triples(params, variant, trainlab.SampleCache(g, variant), [t])
                 for t in triples]
        assert together.tolist() == np.concatenate(alone).tolist()


# ------------------------------------------------------- disclosing one-hop

def test_disclosing_one_hop_four_triple_example():
    g, target = four_triple_graph()
    rvg = to_relation_view(extract_disclosing(g, target, 1))
    neigh = oracles.disclosing_one_hop(rvg)
    # all four graph triples touch the target entities A or C
    assert [i for i, _ in neigh] == [0, 1, 2, 3]
    assert [lab for _, lab in neigh] == [0, 1, 2, 3]


def test_disclosing_one_hop_isolated_target():
    vocab = make_vocab(4, 2)
    g = KnowledgeGraph(vocab, [Triple(2, 0, 3)])
    rvg = to_relation_view(extract_disclosing(g, Triple(0, 1, 1), 1))
    assert oracles.disclosing_one_hop(rvg) == []


def test_disclosing_one_hop_singleton():
    vocab = make_vocab(3, 2)
    g = KnowledgeGraph(vocab, [Triple(0, 0, 2)])
    rvg = to_relation_view(extract_disclosing(g, Triple(0, 1, 1), 1))
    assert oracles.disclosing_one_hop(rvg) == [(0, 0)]


def test_one_hop_neighbors_share_an_entity_with_target():
    rng = np.random.default_rng(11)
    for _ in range(25):
        g = random_graph(rng, 8, 4, 18)
        target = Triple(int(rng.integers(8)), 3, int(rng.integers(8)))
        rvg = to_relation_view(extract_disclosing(g, target, 2))
        tset = {target.head, target.tail}
        for i, _ in oracles.disclosing_one_hop(rvg):
            h, _, t = rvg.nodes[i]
            assert {h, t} & tset


# ------------------------------------------------------- disclosing read

def view_route(graph, target, k):
    """disclosing_one_hop over the full disclosing view, keyed by graph index."""
    sub = extract_disclosing(graph, target, k)
    neigh = oracles.disclosing_one_hop(to_relation_view(sub))
    return tuple((int(sub.indexes[i]), lab) for i, lab in neigh)


def neighbor_pairs(graph, target):
    """The reference disclosing neighbours as (parent-graph triple index,
    label) pairs."""
    return tuple((i, graph.triples[i].relation)
                 for i in oracles.disclosing_neighbors(graph, target))


def carried_labels(graph, target, k):
    """The disclosing labels extract_enclosing carries, as a list."""
    labels = extract_enclosing(graph, target, k, disclosing=True).labels
    assert labels.dtype == np.int32
    return labels.tolist()


def test_disclosing_neighbors_match_view_route_on_random_graphs():
    rng = np.random.default_rng(17)
    for _ in range(30):
        g = random_graph(rng, 10, 4, 20)
        member = g.triples[int(rng.integers(g.num_triples))]
        other = Triple(int(rng.integers(10)), int(rng.integers(4)), int(rng.integers(10)))
        for target in (member, other):
            got = neighbor_pairs(g, target)
            for k in (1, 2, 3):
                assert got == view_route(g, target, k)
                assert carried_labels(g, target, k) == [lab for _, lab in got]


def hand_graph():
    # entities 1 and 5 are isolated
    return KnowledgeGraph(
        make_vocab(6, 4),
        [
            Triple(0, 1, 2),
            Triple(0, 0, 0),  # self-loop on u
            Triple(0, 1, 2),  # duplicate instance
            Triple(0, 2, 2),  # parallel
            Triple(2, 3, 0),  # inverse
            Triple(3, 0, 4),  # unrelated
            Triple(2, 0, 3),
        ],
    )


@pytest.mark.parametrize(
    "target,want",
    [
        # every instance equal to the target is skipped, the rest listed once
        (Triple(0, 1, 2), ((1, 0), (3, 2), (4, 3), (6, 0))),
        # not a member: the target's twins are ordinary neighbors
        (Triple(0, 3, 2), ((0, 1), (1, 0), (2, 1), (3, 2), (4, 3), (6, 0))),
        # u == v, equal to the self-loop instance
        (Triple(0, 0, 0), ((0, 1), (2, 1), (3, 2), (4, 3))),
        # isolated endpoints
        (Triple(1, 0, 5), ()),
    ],
)
def test_disclosing_neighbors_hand_cases(target, want):
    g = hand_graph()
    assert neighbor_pairs(g, target) == want
    for k in (1, 2, 3):
        assert view_route(g, target, k) == want
        assert carried_labels(g, target, k) == [lab for _, lab in want]


# ------------------------------------------------------- dump

def test_dump_relation_view_format():
    g, target = four_triple_graph()
    rvg = to_relation_view(extract_enclosing(g, target, 1))
    text = dump_relation_view(rvg, g.vocab)
    lines = text.strip().split("\n")
    assert lines[0] == "#nodes\t4\ttarget\t3"
    assert lines[1] == "#node\t0\te0\tr0\te1"
    assert "2\tPARA\t3" in lines
    # edge lines parse back into the same edge set
    parsed = {
        (int(a), n, int(b))
        for a, n, b in (l.split("\t") for l in lines if not l.startswith("#"))
    }
    assert parsed == named_edges(rvg)


# Dump text recorded from the pairwise view build that the entity join
# replaced: the dump's format and edge order must not change.
DUMPS = {
    "four-enclosing": (
        "#nodes\t4\ttarget\t3\n#node\t0\te0\tr0\te1\n#node\t1\te1\tr1\te2\n"
        "#node\t2\te0\tr2\te2\n#node\t3\te0\tr4\te2\n0\tT-H\t1\n0\tH-H\t2\n"
        "0\tH-H\t3\n1\tH-T\t0\n1\tT-T\t2\n1\tT-T\t3\n2\tH-H\t0\n2\tT-T\t1\n"
        "2\tPARA\t3\n3\tH-H\t0\n3\tT-T\t1\n3\tPARA\t2\n"
    ),
    "four-disclosing": (
        "#nodes\t5\ttarget\t4\n#node\t0\te0\tr0\te1\n#node\t1\te1\tr1\te2\n"
        "#node\t2\te0\tr2\te2\n#node\t3\te2\tr3\te3\n#node\t4\te0\tr4\te2\n"
        "0\tT-H\t1\n0\tH-H\t2\n0\tH-H\t4\n1\tH-T\t0\n1\tT-H\t3\n1\tT-T\t2\n"
        "1\tT-T\t4\n2\tT-H\t3\n2\tH-H\t0\n2\tT-T\t1\n2\tPARA\t4\n3\tH-T\t1\n"
        "3\tH-T\t2\n3\tH-T\t4\n4\tT-H\t3\n4\tH-H\t0\n4\tT-T\t1\n4\tPARA\t2\n"
    ),
    "hand-enclosing": (
        "#nodes\t6\ttarget\t5\n#node\t0\te0\tr1\te2\n#node\t1\te0\tr0\te0\n"
        "#node\t2\te0\tr1\te2\n#node\t3\te0\tr2\te2\n#node\t4\te2\tr3\te0\n"
        "#node\t5\te0\tr3\te2\n0\tH-T\t1\n0\tH-H\t1\n0\tPARA\t2\n0\tPARA\t3\n"
        "0\tPARA\t5\n0\tLOOP\t4\n1\tH-T\t4\n1\tT-H\t0\n1\tT-H\t2\n1\tT-H\t3\n"
        "1\tT-H\t5\n1\tH-H\t0\n1\tH-H\t2\n1\tH-H\t3\n1\tH-H\t5\n1\tT-T\t4\n"
        "2\tH-T\t1\n2\tH-H\t1\n2\tPARA\t0\n2\tPARA\t3\n2\tPARA\t5\n2\tLOOP\t4\n"
        "3\tH-T\t1\n3\tH-H\t1\n3\tPARA\t0\n3\tPARA\t2\n3\tPARA\t5\n3\tLOOP\t4\n"
        "4\tT-H\t1\n4\tT-T\t1\n4\tLOOP\t0\n4\tLOOP\t2\n4\tLOOP\t3\n4\tLOOP\t5\n"
        "5\tH-T\t1\n5\tH-H\t1\n5\tPARA\t0\n5\tPARA\t2\n5\tPARA\t3\n5\tLOOP\t4\n"
    ),
    "hand-disclosing": (
        "#nodes\t7\ttarget\t6\n#node\t0\te0\tr1\te2\n#node\t1\te0\tr0\te0\n"
        "#node\t2\te0\tr1\te2\n#node\t3\te0\tr2\te2\n#node\t4\te2\tr3\te0\n"
        "#node\t5\te2\tr0\te3\n#node\t6\te0\tr3\te2\n0\tH-T\t1\n0\tT-H\t5\n"
        "0\tH-H\t1\n0\tPARA\t2\n0\tPARA\t3\n0\tPARA\t6\n0\tLOOP\t4\n1\tH-T\t4\n"
        "1\tT-H\t0\n1\tT-H\t2\n1\tT-H\t3\n1\tT-H\t6\n1\tH-H\t0\n1\tH-H\t2\n"
        "1\tH-H\t3\n1\tH-H\t6\n1\tT-T\t4\n2\tH-T\t1\n2\tT-H\t5\n2\tH-H\t1\n"
        "2\tPARA\t0\n2\tPARA\t3\n2\tPARA\t6\n2\tLOOP\t4\n3\tH-T\t1\n3\tT-H\t5\n"
        "3\tH-H\t1\n3\tPARA\t0\n3\tPARA\t2\n3\tPARA\t6\n3\tLOOP\t4\n4\tT-H\t1\n"
        "4\tH-H\t5\n4\tT-T\t1\n4\tLOOP\t0\n4\tLOOP\t2\n4\tLOOP\t3\n4\tLOOP\t6\n"
        "5\tH-T\t0\n5\tH-T\t2\n5\tH-T\t3\n5\tH-T\t6\n5\tH-H\t4\n6\tH-T\t1\n"
        "6\tT-H\t5\n6\tH-H\t1\n6\tPARA\t0\n6\tPARA\t2\n6\tPARA\t3\n6\tLOOP\t4\n"
    ),
}


@pytest.mark.parametrize("case", sorted(DUMPS))
def test_dump_relation_view_text_unchanged(case):
    # the hand graph's target (0, 3, 2) is not a member, so both instances of
    # (0, 1, 2) stay beside the self-loop (0, 0, 0)
    graph, target = four_triple_graph() if case.startswith("four") else (hand_graph(), Triple(0, 3, 2))
    extract = extract_enclosing if case.endswith("enclosing") else extract_disclosing
    rvg = to_relation_view(extract(graph, target, 1))
    assert dump_relation_view(rvg, graph.vocab) == DUMPS[case]
