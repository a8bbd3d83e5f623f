import itertools
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmpi import kgstore
from rmpi.fileio import read_rows, write_rows
from rmpi.kgstore import (
    BENCHMARK_FILES,
    Benchmark,
    KGError,
    KnowledgeGraph,
    Triple,
    Vocabulary,
    khop_ball,
    khop_neighbors,
    load_benchmark,
)
from oracles import floyd_warshall
from synth import make_vocab, random_graph, write_benchmark_dir


def brute_rows(triples, n_entities):
    """Each entity's (other end, triple index) pairs, by a scan of the
    triples: a triple under each of its ends, in triple order, a self-loop
    once, under its entity."""
    return [[(t if h == e else h, i) for i, (h, _, t) in enumerate(triples) if e in (h, t)]
            for e in range(n_entities)]


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
    for center, k in ((5, 1), (-1, 1), (0, -1)):
        with pytest.raises(KGError):
            khop_ball(g, center, k)
    assert not g.khop_memo and g.khop_walks == 0


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
        assert khop_ball(g, center, k).tolist() == sorted(want)


def test_khop_maps_are_read_only_and_shared():
    vocab = make_vocab(3, 1)
    g = KnowledgeGraph(vocab, [Triple(0, 0, 1), Triple(1, 0, 2)])
    got = khop_neighbors(g, 0, 1)
    with pytest.raises(TypeError):
        got[2] = 2
    with pytest.raises(TypeError):
        del got[0]
    with pytest.raises(AttributeError):
        got.pop(1)
    assert khop_neighbors(g, 0, 1) == {0: 0, 1: 1}
    ball = khop_ball(g, 0, 1)
    assert ball is khop_ball(g, 0, 1)  # shared, from the memo
    assert ball.dtype == np.int32 and not ball.flags.writeable
    with pytest.raises(ValueError):
        ball[0] = 2
    assert khop_ball(g, 0, 1).tolist() == sorted(kgstore.bfs(g.incident, 0, 1)) == [0, 1]


def test_triple_arrays_are_built_once():
    vocab = make_vocab(3, 2)
    g = KnowledgeGraph(vocab, [Triple(0, 1, 1), Triple(2, 0, 2)])
    arrays = g.arrays
    assert arrays is g.arrays  # built once
    assert arrays.dtype == np.int32 and not arrays.flags.writeable
    assert arrays.tolist() == [[0, 2], [1, 0], [1, 2]]  # heads, relations, tails
    assert KnowledgeGraph(vocab, []).arrays.shape == (3, 0)


@pytest.mark.parametrize("seed", range(6))
def test_csr_index_holds_the_incidence_rows_in_triple_order(seed):
    # self-loops once, duplicates and parallel pairs each, isolated entities none
    rng = np.random.default_rng(seed)
    g = random_graph(rng, 8, 3, int(rng.integers(0, 30)))
    starts, other, triple = g.csr
    assert g.csr is g.csr  # built once
    assert len(starts) == g.vocab.num_entities + 1 and starts[0] == 0
    for array in (starts, other, triple):
        assert array.dtype == np.int32 and not array.flags.writeable
    want = brute_rows(g.triples, g.vocab.num_entities)
    assert len(g.incident) == len(want)
    for e, pairs in enumerate(want):
        rows = slice(starts[e], starts[e + 1])
        assert list(zip(other[rows].tolist(), triple[rows].tolist())) == pairs
        assert list(g.incident[e]) == pairs  # the loop route's view of the same rows
    empty = [g.incident[e] for e, pairs in enumerate(want) if not pairs]
    assert all(rows == () and rows is empty[0] for rows in empty)  # one shared tuple
    assert starts[-1] == len(other) == len(triple) == sum(map(len, want))


@pytest.mark.parametrize("per_row", [0, 1, 2, 3, 10, 16, 40])
def test_khop_memo_stays_within_its_cap(monkeypatch, per_row):
    monkeypatch.setattr(kgstore, "KHOP_MEMO_IDS_PER_ROW", per_row)
    rng = np.random.default_rng(per_row)
    g = random_graph(rng, 12, 3, 20)
    rows = sum(map(len, brute_rows(g.triples, 12)))
    assert g.khop_memo_budget == per_row * rows
    for _ in range(200):
        center, k = int(rng.integers(12)), int(rng.integers(4))
        got = khop_ball(g, center, k)
        memo = g.khop_memo
        assert next(reversed(memo)) == (center, k)  # the latest ball is the newest
        assert g.khop_memo_entries == sum(len(m) for m in memo.values())
        assert g.khop_memo_entries <= per_row * rows or len(memo) == 1
        assert got.tolist() == sorted(kgstore.bfs(g.incident, center, k))
    assert g.khop_walks + g.khop_hits == 200


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
    assert g.incident == [[(0, 0), (1, 1), (1, 2)], [(0, 1), (0, 2)], ()]
    assert g.entities == [0, 1]


def test_out_of_range_ids_rejected():
    vocab = make_vocab(2, 1)
    with pytest.raises(KGError):
        KnowledgeGraph(vocab, [Triple(0, 0, 9)])
    with pytest.raises(KGError):
        KnowledgeGraph(vocab, [Triple(0, 4, 1)])


def test_entity_list_sorted_and_membership():
    vocab = make_vocab(5, 1)
    g = KnowledgeGraph(vocab, [Triple(3, 0, 1), Triple(1, 0, 4)])
    assert g.entities == [1, 3, 4]
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
    names = bench.vocab.relation_names
    seen = {names[r] for r in bench.vocab.seen_relations()}
    assert seen == {"p", "q"}
    assert set(names) - seen == {"s"}


def test_load_benchmark_identity_split_has_no_unseen(tmp_path):
    train, valid, _, _ = _toy_rows()
    d = write_benchmark_dir(tmp_path / "bench", train, valid, train, valid)
    bench = load_benchmark(str(d))
    assert bench.vocab.seen_relations() == frozenset(range(bench.vocab.num_relations))


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


@pytest.mark.parametrize("name", BENCHMARK_FILES)
def test_load_benchmark_checks_every_file_before_any_graph_is_read(tmp_path, name):
    # the graphs are indexed only when read, but every file is read at load
    d = write_benchmark_dir(tmp_path / "bench", *_toy_rows())
    with open(d / name, "a") as fh:
        fh.write("no tabs here\n")
    with pytest.raises(KGError, match=rf"{name}:\d+"):
        load_benchmark(str(d))
    (d / name).unlink()
    with pytest.raises(KGError, match=f"missing benchmark file: .*{name}"):
        load_benchmark(str(d))


def test_benchmark_indexes_each_graph_once_when_first_read(tmp_path, graphs_built):
    bench = load_benchmark(str(write_benchmark_dir(tmp_path / "bench", *_toy_rows())))
    assert graphs_built == []
    incident = bench.test_graph.incident
    assert graphs_built == [bench.test_graph]
    assert bench.train.has_triple(bench.train.triples[0])
    assert graphs_built == [bench.test_graph, bench.train]
    assert bench.train.entities and bench.test_graph.arrays.shape == (3, 2)
    assert bench.test_graph.incident is incident  # built once
    assert graphs_built == [bench.test_graph, bench.train]


def test_benchmark_keeps_the_graphs_it_is_given(graphs_built):
    graph = random_graph(np.random.default_rng(0), 6, 2, 10)
    bench = Benchmark(graph.vocab, graph, [], graph, [])
    assert bench.train is graph and bench.test_graph is graph
    assert graphs_built == []


def _random_rows(rng, prefix, n_entities, n_relations, n_rows):
    # repeated rows and a self-loop included
    rows = [
        (f"{prefix}{rng.integers(n_entities)}", f"r{rng.integers(n_relations)}",
         f"{prefix}{rng.integers(n_entities)}")
        for _ in range(n_rows)
    ]
    return rows + rows[: n_rows // 4] + [(f"{prefix}1", "r0", f"{prefix}1")]


@pytest.mark.parametrize("seed", range(4))
def test_lazy_graphs_equal_graphs_indexed_at_load(tmp_path, seed):
    # each structure a graph derives on first read, against one indexed
    # here by brute force from the rows as written
    rng = np.random.default_rng(seed)
    rows = {
        "train.txt": _random_rows(rng, "a", 12, 3, 40),
        "valid.txt": _random_rows(rng, "a", 12, 4, 5),
        # after some entities of its own, some of the training graph's,
        # whose smaller ids it indexes later
        "test_graph.txt": _random_rows(rng, "b", 10, 5, 30) + _random_rows(rng, "a", 12, 3, 8),
        "test.txt": _random_rows(rng, "b", 10, 5, 5),
    }
    d = write_benchmark_dir(tmp_path / "bench", *rows.values())
    bench = load_benchmark(str(d))

    # the id space: names in first-seen order over the files, seen = in train
    vocab = Vocabulary()
    for name in BENCHMARK_FILES:
        for h, r, t in read_rows(os.path.join(d, name), KGError):
            vocab.entity_id(h, create=True)
            vocab.relation_id(r, create=True)
            vocab.entity_id(t, create=True)
    for _, r, _ in rows["train.txt"]:
        vocab.mark_seen(vocab.relation_id(r))
    assert bench.vocab.digest() == vocab.digest()

    for graph, name in ((bench.train, "train.txt"), (bench.test_graph, "test_graph.txt")):
        triples = [(vocab.entity_id(h), vocab.relation_id(r), vocab.entity_id(t))
                   for h, r, t in rows[name]]
        ends = {e for h, _, t in triples for e in (h, t)}
        assert graph.vocab is bench.vocab
        assert graph.triples == triples
        assert any(h == t for h, _, t in triples) and len(set(triples)) < len(triples)
        # under each end, in triple order; a self-loop once, under its entity
        assert [list(pairs) for pairs in graph.incident] == brute_rows(triples, vocab.num_entities)
        assert graph.entities == sorted(ends)
        assert graph.arrays.dtype == np.int32 and not graph.arrays.flags.writeable
        assert graph.arrays.tolist() == [[t[j] for t in triples] for j in range(3)]
        for cand in itertools.product(range(vocab.num_entities), range(vocab.num_relations),
                                      range(vocab.num_entities)):
            assert graph.has_triple(Triple(*cand)) == any(cand == t for t in triples)
    assert bench.vocab.digest() == vocab.digest()  # building them named nothing new


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
