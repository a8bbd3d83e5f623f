import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from rmpi import subgraph
from rmpi.kgstore import KnowledgeGraph, Triple
from rmpi.rmpnet import ModelConfig
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
    assert sub.entities == frozenset({0, 1, 2})
    assert sub.triples == (Triple(0, 0, 1), Triple(1, 1, 2), Triple(0, 2, 2), target)
    assert sub.triples[sub.target_position] == target
    assert sub.kind == "enclosing"


def test_disclosing_four_triple_example():
    g, target = four_triple_graph()
    sub = extract_disclosing(g, target, 1)
    assert sub.entities == frozenset({0, 1, 2, 3})
    assert set(sub.triples[:-1]) == set(g.triples)
    assert sub.triples[-1] == target
    assert sub.kind == "disclosing"


def test_enclosing_disconnected_endpoints_only_target_edge():
    vocab = make_vocab(6, 3)
    # two separate components, u=0 and v=3 unrelated
    g = KnowledgeGraph(vocab, [Triple(0, 0, 1), Triple(1, 0, 2), Triple(3, 1, 4), Triple(4, 1, 5)])
    sub = extract_enclosing(g, Triple(0, 2, 3), 1)
    assert sub.triples == (Triple(0, 2, 3),)
    assert sub.entities == frozenset({0, 3})


def test_enclosing_single_triple_identity():
    vocab = make_vocab(2, 2)
    g = KnowledgeGraph(vocab, [Triple(0, 0, 1)])
    sub = extract_enclosing(g, Triple(0, 1, 1), 2)
    assert sub.entities == frozenset({0, 1})
    assert sub.triples == (Triple(0, 0, 1), Triple(0, 1, 1))


def test_disclosing_disconnected_union():
    vocab = make_vocab(6, 3)
    g = KnowledgeGraph(vocab, [Triple(0, 0, 1), Triple(3, 1, 4)])
    sub = extract_disclosing(g, Triple(0, 2, 3), 1)
    assert sub.entities == frozenset({0, 1, 3, 4})
    assert set(sub.triples) == {Triple(0, 0, 1), Triple(3, 1, 4), Triple(0, 2, 3)}


def test_disclosing_large_k_covers_graph():
    g, target = four_triple_graph()
    sub = extract_disclosing(g, target, 10)
    assert sub.entities == frozenset({0, 1, 2, 3})
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
    assert sub.entities == frozenset(want_ent)
    assert list(sub.triples[:-1]) == want_triples

    want_ent_d, want_triples_d = oracles.disclosing_subgraph(g, target, k)
    sub_d = extract_disclosing(g, target, k)
    assert sub_d.entities == frozenset(want_ent_d)
    assert list(sub_d.triples[:-1]) == want_triples_d

    # enclosing entity set never exceeds the disclosing one
    assert sub.entities <= sub_d.entities


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


def test_suppression_flag_emits_all_matches():
    vocab = make_vocab(2, 3)
    g = KnowledgeGraph(vocab, [Triple(0, 0, 1), Triple(0, 1, 1)])
    sub = extract_enclosing(g, Triple(0, 2, 1), 1)
    rvg = to_relation_view(sub, suppress_merged=False)
    e = named_edges(rvg)
    # parallel pair now carries PARA plus the basic matches
    assert {(0, "PARA", 1), (0, "H-H", 1), (0, "T-T", 1)} <= e
    want = oracles.relation_view_edges(sub.triples, suppress_merged=False)
    assert e == want


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
    st.booleans(),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_relation_view_matches_pairwise_oracle(n_entities, n_triples, suppress, seed):
    rng = np.random.default_rng(seed)
    g = random_graph(rng, n_entities, 4, n_triples)
    target = Triple(int(rng.integers(n_entities)), 3, int(rng.integers(n_entities)))
    sub = extract_disclosing(g, target, 2)
    rvg = to_relation_view(sub, suppress_merged=suppress)
    assert named_edges(rvg) == oracles.relation_view_edges(sub.triples, suppress_merged=suppress)


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


@pytest.mark.parametrize("suppress", [True, False])
def test_relation_view_matches_pairwise_oracle_at_hub_scale(suppress):
    g, target = hub_graph()
    sub = extract_disclosing(g, target, 1)
    assert len(sub.triples) == g.num_triples + 1
    rvg = to_relation_view(sub, suppress_merged=suppress)
    want = oracles.relation_view_edges(sub.triples, suppress_merged=suppress)
    assert len(want) > 20000
    assert named_edges(rvg) == want
    assert len(rvg.edges) == len(want)  # no edge listed twice


@pytest.mark.parametrize("suppress", [True, False])
def test_relation_view_edge_array_contract(suppress):
    g, target = hub_graph()
    rvg = to_relation_view(extract_disclosing(g, target, 1), suppress_merged=suppress)
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
    assert all(e is NO_EDGES for e in prune_to_target(one_node, 2).layer_edges)
    # two nodes sharing no entity; a self-loop shares only with itself
    for first in (Triple(2, 0, 3), Triple(2, 0, 2)):
        sub = subgraph.EntitySubgraph(
            entities=frozenset({0, 1, first.head, first.tail}),
            triples=(first, Triple(0, 1, 1)),
            source_indexes=(0, None),
            target=Triple(0, 1, 1),
            kind="disclosing",
        )
        for suppress in (True, False):
            assert to_relation_view(sub, suppress_merged=suppress).edges is NO_EDGES


def test_view_over_join_ceiling_raises_naming_target(monkeypatch):
    g, target = hub_graph()
    config = ModelConfig(dim=4, hops=1)
    assert build_sample(g, target, config).rvg.num_nodes > 4
    monkeypatch.setattr(subgraph, "MAX_JOIN_ROWS", 10)
    with pytest.raises(SubgraphError, match=re.escape(f"target {target} needs")):
        build_sample(g, target, config)


# ------------------------------------------------------- pruning

def make_rvg(n, edges, target):
    # labels are irrelevant for pruning; nodes get dummy triples
    return RelationViewGraph(
        nodes=tuple(Triple(0, 0, 0) for _ in range(n)),
        labels=tuple(0 for _ in range(n)),
        edges=edge_array(*edges),
        target_index=target,
    )


def pruned_edges(pn):
    """(src, type, dst) of every edge the first layer consumes, sorted."""
    return tuple(sorted(tuple(e) for e in pn.layer_edges[0].tolist()))


def test_prune_star_two_layers():
    # X=1, Y=2 point at target 0; no reciprocal edges
    rvg = make_rvg(3, [(1, 0, 0), (2, 0, 0)], target=0)
    pn = prune_to_target(rvg, 2)
    assert pn.frontiers[0] == {0}
    assert pn.frontiers[1] == {1, 2}
    assert pn.frontiers[2] == set()
    assert set(pruned_edges(pn)) == {(1, 0, 0), (2, 0, 0)}


def test_prune_star_with_reciprocal_edges_revisits_target():
    rvg = make_rvg(3, [(1, 0, 0), (2, 0, 0), (0, 1, 1), (0, 1, 2)], target=0)
    pn = prune_to_target(rvg, 2)
    assert pn.frontiers[1] == {1, 2}
    assert pn.frontiers[2] == {0}  # target reappears through the reciprocal edges
    assert set(pruned_edges(pn)) == {(1, 0, 0), (2, 0, 0), (0, 1, 1), (0, 1, 2)}


def test_prune_target_without_incoming_edges():
    rvg = make_rvg(3, [(0, 0, 1), (1, 0, 2)], target=0)
    pn = prune_to_target(rvg, 2)
    assert pn.frontiers[1] == set()
    assert pn.frontiers[2] == set()
    assert pruned_edges(pn) == ()


def test_prune_fully_connected_k1():
    edges = []
    for i in range(3):
        for j in range(3):
            if i != j:
                edges.append((i, 2, j))
    rvg = make_rvg(3, edges, target=1)
    pn = prune_to_target(rvg, 1)
    assert pn.frontiers[1] == {0, 2}
    # only edges into the target survive at depth 1
    assert set(pruned_edges(pn)) == {(0, 2, 1), (2, 2, 1)}


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
    pn = prune_to_target(rvg, k)
    rows = [tuple(e) for e in rvg.edges.tolist()]
    want_frontiers, want_edges = oracles.prune_frontiers(rows, rvg.target_index, k)
    assert [set(f) for f in pn.frontiers] == want_frontiers
    assert set(pruned_edges(pn)) == want_edges
    # prune closure: every frontier node reaches the previous frontier
    for depth in range(1, len(pn.frontiers)):
        prev = pn.frontiers[depth - 1]
        for node in pn.frontiers[depth]:
            assert any(s == node and d in prev for (s, _, d) in rows)


def test_cumulative_frontier_union():
    rvg = make_rvg(3, [(1, 0, 0), (2, 0, 0), (0, 1, 1)], target=0)
    pn = prune_to_target(rvg, 2)
    assert pn.cumulative(0) == {0}
    assert pn.cumulative(1) == {0, 1, 2}


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
