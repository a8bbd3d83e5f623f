import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmpi import kgstore
from rmpi.fileio import write_rows
from rmpi.kgstore import (
    KGError,
    KnowledgeGraph,
    Triple,
    Vocabulary,
    khop_neighbors,
    load_benchmark,
)
from oracles import floyd_warshall
from synth import make_vocab, random_graph, write_benchmark_dir


# ---------------------------------------------------------------- khop

def test_khop_isolated_entity():
    vocab = make_vocab(3, 1)
    g = KnowledgeGraph(vocab, [Triple(0, 0, 1)])
    # entity 2 is in the vocabulary but touches no triple of this graph
    assert khop_neighbors(g, 2, 3) == {2: 0}


def test_khop_chain():
    vocab = make_vocab(4, 1)
    g = KnowledgeGraph(vocab, [Triple(0, 0, 1), Triple(1, 0, 2), Triple(2, 0, 3)])
    assert khop_neighbors(g, 0, 2) == {0: 0, 1: 1, 2: 2}
    assert khop_neighbors(g, 0, 0) == {0: 0}


def test_khop_direction_ignored():
    vocab = make_vocab(3, 1)
    g = KnowledgeGraph(vocab, [Triple(1, 0, 0), Triple(1, 0, 2)])
    assert khop_neighbors(g, 0, 1) == {0: 0, 1: 1}
    assert khop_neighbors(g, 0, 2) == {0: 0, 1: 1, 2: 2}


def test_khop_errors():
    vocab = make_vocab(2, 1)
    g = KnowledgeGraph(vocab, [Triple(0, 0, 1)])
    with pytest.raises(KGError):
        khop_neighbors(g, 5, 1)
    with pytest.raises(KGError):
        khop_neighbors(g, -1, 1)
    with pytest.raises(KGError):
        khop_neighbors(g, 0, -1)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=30),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_khop_matches_floyd_warshall(n_entities, n_triples, k, seed):
    rng = np.random.default_rng(seed)
    g = random_graph(rng, n_entities, 3, n_triples)
    dist = floyd_warshall(n_entities, g.triples)
    for center in range(n_entities):
        got = khop_neighbors(g, center, k)
        want = {j: int(dist[center][j]) for j in range(n_entities) if dist[center][j] <= k}
        assert got == want


def test_khop_maps_are_read_only_and_shared():
    vocab = make_vocab(3, 1)
    g = KnowledgeGraph(vocab, [Triple(0, 0, 1), Triple(1, 0, 2)])
    got = khop_neighbors(g, 0, 1)
    assert got is khop_neighbors(g, 0, 1)
    with pytest.raises(TypeError):
        got[2] = 2
    with pytest.raises(TypeError):
        del got[0]
    with pytest.raises(AttributeError):
        got.pop(1)
    assert khop_neighbors(g, 0, 1) == {0: 0, 1: 1}


def test_add_clears_the_khop_memo():
    vocab = make_vocab(3, 1)
    g = KnowledgeGraph(vocab, [Triple(0, 0, 1)])
    assert khop_neighbors(g, 0, 2) == {0: 0, 1: 1}
    g.add(Triple(1, 0, 2))
    assert not g.khop_memo and g.khop_memo_entries == 0
    assert khop_neighbors(g, 0, 2) == {0: 0, 1: 1, 2: 2}


def test_triple_arrays_are_built_once_and_rebuilt_after_add():
    vocab = make_vocab(3, 2)
    g = KnowledgeGraph(vocab, [Triple(0, 1, 1), Triple(2, 0, 2)])
    arrays = g.arrays
    assert arrays is g.arrays  # built once
    assert arrays.dtype == np.int32 and not arrays.flags.writeable
    assert arrays.tolist() == [[0, 2], [1, 0], [1, 2]]  # heads, relations, tails
    g.add(Triple(1, 1, 0))
    assert arrays.tolist() == [[0, 2], [1, 0], [1, 2]]  # a held array keeps its triples
    assert g.arrays.tolist() == [[0, 2, 1], [1, 0, 1], [1, 2, 0]]
    assert KnowledgeGraph(vocab, []).arrays.shape == (3, 0)


@pytest.mark.parametrize("cap", [1, 3, 10, 40])
def test_khop_memo_stays_within_its_cap(monkeypatch, cap):
    monkeypatch.setattr(kgstore, "KHOP_MEMO_ENTRIES", cap)
    rng = np.random.default_rng(cap)
    g = random_graph(rng, 12, 3, 20)
    for _ in range(200):
        center, k = int(rng.integers(12)), int(rng.integers(4))
        got = khop_neighbors(g, center, k)
        memo = g.khop_memo
        assert next(reversed(memo)) == (center, k)  # the latest map is the newest
        assert g.khop_memo_entries == sum(len(m) for m in memo.values())
        assert g.khop_memo_entries <= cap or len(memo) == 1
        assert got == kgstore.bfs(g.incident, center, k)


# ---------------------------------------------------------------- graph

def test_duplicate_triples_are_distinct_instances():
    vocab = make_vocab(2, 1)
    g = KnowledgeGraph(vocab, [Triple(0, 0, 1), Triple(0, 0, 1)])
    assert g.num_triples == 2
    assert len(g.incident[0]) == 2
    assert {idx for (_, idx) in g.incident[0]} == {0, 1}


def test_incidence_lists_self_loop_once_and_parallel_pair_twice():
    vocab = make_vocab(3, 2)
    g = KnowledgeGraph(vocab, [Triple(0, 0, 0), Triple(0, 0, 1), Triple(1, 1, 0)])
    assert g.incident == {0: [(0, 0), (1, 1), (1, 2)], 1: [(0, 1), (0, 2)]}
    assert sorted(g.entities) == [0, 1]


def test_out_of_range_ids_rejected():
    vocab = make_vocab(2, 1)
    with pytest.raises(KGError):
        KnowledgeGraph(vocab, [Triple(0, 0, 9)])
    with pytest.raises(KGError):
        KnowledgeGraph(vocab, [Triple(0, 4, 1)])


def test_entity_list_sorted_and_membership():
    vocab = make_vocab(5, 1)
    g = KnowledgeGraph(vocab, [Triple(3, 0, 1), Triple(1, 0, 4)])
    assert g.entity_list() == [1, 3, 4]
    assert g.has_triple(Triple(3, 0, 1))
    assert not g.has_triple(Triple(3, 0, 4))


# ---------------------------------------------------------------- loading

def _toy_rows():
    train = [("a", "p", "b"), ("b", "q", "c"), ("a", "p", "b")]
    valid = [("a", "q", "c")]
    test_graph = [("x", "p", "y"), ("y", "s", "z")]
    test = [("x", "s", "z")]
    return train, valid, test_graph, test


def test_load_benchmark_counts_and_flags(tmp_path):
    train, valid, test_graph, test = _toy_rows()
    d = write_benchmark_dir(tmp_path / "bench", train, valid, test_graph, test)
    bench = load_benchmark(str(d))
    assert bench.train.num_triples == 3  # duplicate preserved
    assert len(bench.valid) == 1
    assert bench.test_graph.num_triples == 2
    assert len(bench.test) == 1
    assert bench.vocab.num_entities == 6
    assert bench.vocab.num_relations == 3
    seen = {bench.vocab.relation_names[r] for r in bench.vocab.seen_relations()}
    unseen = {bench.vocab.relation_names[r] for r in bench.vocab.unseen_relations()}
    assert seen == {"p", "q"}
    assert unseen == {"s"}


def test_load_benchmark_identity_split_has_no_unseen(tmp_path):
    train, valid, _, _ = _toy_rows()
    d = write_benchmark_dir(tmp_path / "bench", train, valid, train, valid)
    bench = load_benchmark(str(d))
    assert bench.vocab.unseen_relations() == frozenset()


def test_load_benchmark_shared_id_space(tmp_path):
    d = write_benchmark_dir(
        tmp_path / "bench",
        train=[("a", "p", "b")],
        test_graph=[("a", "p", "c")],
    )
    bench = load_benchmark(str(d))
    # "a" and "p" resolve to the same ids in both graphs
    assert bench.train.triples[0].head == bench.test_graph.triples[0].head
    assert bench.train.triples[0].relation == bench.test_graph.triples[0].relation


def test_load_benchmark_missing_file(tmp_path):
    d = write_benchmark_dir(tmp_path / "bench", [("a", "p", "b")])
    (d / "test.txt").unlink()
    with pytest.raises(KGError, match="test.txt"):
        load_benchmark(str(d))


def test_load_benchmark_malformed_line_reports_position(tmp_path):
    d = write_benchmark_dir(tmp_path / "bench", [("a", "p", "b")])
    with open(d / "valid.txt", "w") as fh:
        fh.write("a\tp\tb\n")
        fh.write("broken line without tabs\n")
    with pytest.raises(KGError, match=r"valid.txt:2"):
        load_benchmark(str(d))


def test_load_benchmark_empty_field_reports_position(tmp_path):
    d = write_benchmark_dir(tmp_path / "bench", [("a", "p", "b")])
    (d / "train.txt").write_text("a\tp\tb\na\t\tb\n")  # no relation named ""
    with pytest.raises(KGError, match=r"train.txt:2: empty field"):
        load_benchmark(str(d))


def test_load_benchmark_empty_train_rejected(tmp_path):
    d = write_benchmark_dir(tmp_path / "bench", [])
    with pytest.raises(KGError, match="empty training file"):
        load_benchmark(str(d))


def test_vocab_digest_tracks_seen_flags():
    v1 = make_vocab(2, 2, seen={0, 1})
    v2 = make_vocab(2, 2, seen={0})
    v3 = make_vocab(2, 2, seen={0})
    assert v1.digest() != v2.digest()
    assert v2.digest() == v3.digest()


def test_write_triples_tab_format(tmp_path):
    vocab = make_vocab(2, 1)
    path = tmp_path / "out.txt"
    ent, rel = vocab.entity_names, vocab.relation_names
    write_rows(str(path), [(ent[0], rel[0], ent[1])])
    assert path.read_text() == "e0\tr0\te1\n"
