import re
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from rmpi import kgstore, subgraph
from rmpi.kgstore import KnowledgeGraph, Triple
from rmpi.rmpnet import ModelConfig, stack_samples
from rmpi.subgraph import (
    EDGE_TYPE_NAMES,
    NO_EDGES,
    SubgraphError,
    RelationViewGraph,
    disclosing_neighbors,
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
    assert sub.triples[sub.target_position] == target
    assert sub.kind == "enclosing"


def test_disclosing_four_triple_example():
    g, target = four_triple_graph()
    sub = extract_disclosing(g, target, 1)
    assert entities(sub) == frozenset({0, 1, 2, 3})
    assert set(sub.triples[:-1]) == set(g.triples)
    assert sub.triples[-1] == target
    assert sub.kind == "disclosing"


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
        sub = subgraph.EntitySubgraph(
            triples=(first, Triple(0, 1, 1)),
            source_indexes=(0, None),
            target=Triple(0, 1, 1),
            kind="disclosing",
        )
        assert to_relation_view(sub).edges is NO_EDGES


def join_rows(sub):
    """The rows of the join that builds sub's view: per entity, the square
    of the number of triple ends there."""
    ends = Counter(e for h, _, t in sub.triples for e in (h, t))
    return sum(c * c for c in ends.values())


def test_view_over_join_ceiling_raises_naming_target(monkeypatch):
    # a training step joins the triples of all its samples at once, so the
    # ceiling bounds the step, and the error names the sample with the most
    # join rows
    g, target = hub_graph()
    config = ModelConfig(dim=4, hops=1)
    small = Triple(100, 4, 150)  # two triples at the hub, one at each end
    samples = [build_sample(g, t, config) for t in (small, target, small)]
    rows = [join_rows(s.sub) for s in samples]
    assert rows[0] < rows[1]
    monkeypatch.setattr(subgraph, "MAX_JOIN_ROWS", max(rows))
    with pytest.raises(SubgraphError, match=re.escape(f"target {target} needs {sum(rows)}")):
        stack_samples(samples, training=True)
    for sample in samples:  # each alone is within the ceiling
        stack_samples([sample], training=True)


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
    for t in g.triples[:3]:
        g.add(t)  # duplicates
    target = Triple(int(rng.integers(n_entities)), 3, int(rng.integers(n_entities)))
    for depth in range(1, k + 1):
        assert_levels_are_prunings_node_sets(extract_enclosing(g, target, depth), depth)


def assert_levels_are_prunings_node_sets(sub, depth):
    rvg = to_relation_view(sub)
    frontiers, _ = oracles.prune_frontiers([tuple(e) for e in rvg.edges.tolist()],
                                           rvg.target_index, depth)
    levels = sub.levels
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
    st.sampled_from([1, 6, 4096]),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_extraction_on_a_warm_memo_matches_the_oracles(n_entities, n_triples, k, cap, seed):
    # many targets from one graph, most sharing an end with the one before,
    # as a rank query's candidates share its fixed entity; the graph grows
    # between some of them, which must clear the memoised K-hop maps
    rng = np.random.default_rng(seed)
    g = random_graph(rng, n_entities, 4, n_triples)
    u = int(rng.integers(n_entities))
    with mock.patch.object(kgstore, "KHOP_MEMO_ENTRIES", cap):
        for _ in range(15):
            if rng.random() < 0.2:
                g.add(Triple(int(rng.integers(n_entities)), int(rng.integers(4)),
                             int(rng.integers(n_entities))))
            if rng.random() < 0.3:
                u = int(rng.integers(n_entities))
            v = int(rng.integers(n_entities))
            target = Triple(u, 3, v) if rng.random() < 0.5 else Triple(v, 3, u)
            depth = int(rng.integers(1, k + 1))
            sub = extract_enclosing(g, target, depth)
            want_ent, want_triples = oracles.enclosing_subgraph(g, target, depth)
            assert entities(sub) == frozenset(want_ent)
            assert list(sub.triples[:-1]) == want_triples
            idxs = sub.source_indexes[:-1]
            assert list(idxs) == sorted(set(idxs))
            assert [g.triples[i] for i in idxs] == want_triples
            assert_levels_are_prunings_node_sets(sub, depth)
            want_ent_d, want_triples_d = oracles.disclosing_subgraph(g, target, depth)
            assert list(extract_disclosing(g, target, depth).triples[:-1]) == want_triples_d
            assert g.khop_memo_entries <= cap or len(g.khop_memo) == 1


def no_inner_walk(*args, **kwargs):
    raise AssertionError("a bare target needs no walk inside its intersection")


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
def test_bare_target_exits_with_its_end_triples_at_level_one(monkeypatch, rows, target, want,
                                                             hops):
    g = KnowledgeGraph(make_vocab(5, 4), rows)
    monkeypatch.setattr(subgraph, "_pruning_distances", no_inner_walk)
    for k in hops:
        sub = extract_enclosing(g, target, k)
        assert sub.source_indexes == tuple(want) + (None,)
        assert sub.triples == tuple(rows[i] for i in want) + (target,)
        assert sub.levels == (1,) * len(want) + (0,)
        _, want_triples = oracles.enclosing_subgraph(g, target, k)
        assert list(sub.triples[:-1]) == want_triples
    monkeypatch.undo()
    for k in (1, 2, 3):
        assert_levels_are_prunings_node_sets(extract_enclosing(g, target, k), k)


def test_target_with_a_shared_neighbour_walks_the_intersection(monkeypatch):
    g = KnowledgeGraph(make_vocab(3, 2), [Triple(0, 0, 2), Triple(2, 1, 1)])
    monkeypatch.setattr(subgraph, "_pruning_distances", no_inner_walk)
    with pytest.raises(AssertionError, match="bare target"):
        extract_enclosing(g, Triple(0, 1, 1), 1)


def test_bare_target_has_level_zero_only():
    vocab = make_vocab(4, 2)
    g = KnowledgeGraph(vocab, [Triple(2, 0, 3)])
    for k in (1, 2, 3):
        sub = extract_enclosing(g, Triple(0, 1, 1), k)
        assert sub.triples == (Triple(0, 1, 1),)
        assert sub.levels == (0,)
    assert extract_disclosing(g, Triple(0, 1, 1), 1).levels == ()


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
    return tuple((sub.source_indexes[i], lab) for i, lab in neigh)


def test_disclosing_neighbors_match_view_route_on_random_graphs():
    rng = np.random.default_rng(17)
    for _ in range(30):
        g = random_graph(rng, 10, 4, 20)
        member = g.triples[int(rng.integers(g.num_triples))]
        other = Triple(int(rng.integers(10)), int(rng.integers(4)), int(rng.integers(10)))
        for target in (member, other):
            got = disclosing_neighbors(g, target)
            for k in (1, 2, 3):
                assert got == view_route(g, target, k)


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
    assert disclosing_neighbors(g, target) == want
    for k in (1, 2, 3):
        assert view_route(g, target, k) == want


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
