"""Triple store for knowledge-graph benchmarks.

A benchmark directory holds four files of (head, relation, tail) name rows
(train.txt, valid.txt, test_graph.txt, test.txt; `fileio` reads and writes
them).  All four files share one entity/relation id space; relations that
never occur in the training graph are flagged unseen.  Duplicate rows are
kept as distinct triple instances because downstream graphs treat every
edge instance as a node of its own.  Loading reads and checks all four
files, for the id space and the seen flags, but a `Benchmark` indexes each
graph only when it is first read: eval reads only the test graph, and
training only the training graph.

A graph keeps one adjacency index, `incident`: each entity maps to the
(other end, triple index) pairs of the triples it is an end of, listed in
the order the triples were added.  Edges are read undirected, so a triple
is listed under both of its ends and a self-loop once, under its entity.
`arrays` holds the same triples as one int32 array, built once when read,
so that subgraphs and samples can hold triple indices and gather their
ends and relations in one step.
`bfs` walks that index for `khop_neighbors`; extraction walks it too,
inside the neighbourhood a target's two ends share.  A graph memoises its
K-hop maps per (entity, k), since the candidates of a rank query all share
the query's fixed entity; `add` clears the memo, and it holds at most
KHOP_MEMO_ENTRIES map entries in all (or one larger map), evicting the
least recently used maps.
"""

from __future__ import annotations

import hashlib
import os
from collections import OrderedDict
from types import MappingProxyType
from typing import Iterable, KeysView, Mapping, NamedTuple

import numpy as np

from .fileio import read_rows


class KGError(Exception):
    """Raised for malformed benchmark data or out-of-range ids."""


class Triple(NamedTuple):
    head: int
    relation: int
    tail: int


BENCHMARK_FILES = ("train.txt", "valid.txt", "test_graph.txt", "test.txt")


class Vocabulary:
    """Bidirectional name<->id maps for entities and relations.

    Ids are dense and assigned in first-seen order.  Each relation carries a
    seen flag: True iff the relation occurs in the training graph.
    """

    def __init__(self) -> None:
        self._entity_ids: dict[str, int] = {}
        self.entity_names: list[str] = []
        self._relation_ids: dict[str, int] = {}
        self.relation_names: list[str] = []
        self._seen: list[bool] = []

    @property
    def num_entities(self) -> int:
        return len(self.entity_names)

    @property
    def num_relations(self) -> int:
        return len(self.relation_names)

    def entity_id(self, name: str, create: bool = False) -> int:
        eid = self._entity_ids.get(name)
        if eid is None:
            if not create:
                raise KGError(f"unknown entity name: {name!r}")
            eid = len(self.entity_names)
            self._entity_ids[name] = eid
            self.entity_names.append(name)
        return eid

    def relation_id(self, name: str, create: bool = False) -> int:
        rid = self._relation_ids.get(name)
        if rid is None:
            if not create:
                raise KGError(f"unknown relation name: {name!r}")
            rid = len(self.relation_names)
            self._relation_ids[name] = rid
            self.relation_names.append(name)
            self._seen.append(False)
        return rid

    def mark_seen(self, rid: int) -> None:
        self._seen[rid] = True

    def relation_seen(self, rid: int) -> bool:
        return self._seen[rid]

    def seen_relations(self) -> frozenset[int]:
        return frozenset(r for r, s in enumerate(self._seen) if s)

    def unseen_relations(self) -> frozenset[int]:
        return frozenset(r for r, s in enumerate(self._seen) if not s)

    def digest(self) -> str:
        """Content hash of the id maps and seen flags."""
        h = hashlib.sha256()
        for name in self.entity_names:
            h.update(name.encode("utf-8") + b"\x00")
        h.update(b"\x01")
        for rid, name in enumerate(self.relation_names):
            flag = b"1" if self._seen[rid] else b"0"
            h.update(name.encode("utf-8") + b"\x1f" + flag + b"\x00")
        return h.hexdigest()


# Most (entity, distance) entries the K-hop maps memoised on one graph hold
# in all; a map larger than this is still kept, alone.  A rank query touches
# its fixed entity's map for each candidate, so the map stays in.  A cap
# of 4096 gave the same rank speed at twice the memory.  At K=2 with no
# cap the memo grows well past this: train-mild's training graph held
# 20,876 entries in 998 maps (about 0.9 MB of dicts) after 2 epochs, and
# rank-skewed's test graph 37,157 entries (about 1.6 MB) after one pass.
# On classify-hub one of the largest hub maps (1,232 entries) fills the
# cap alone, so about 395 of a pass's 400 K-hop calls walk the graph.
KHOP_MEMO_ENTRIES = 1 << 11


class KnowledgeGraph:
    """A multiset of triples over a shared vocabulary, with an incidence index.

    `incident` maps each entity to the (other end, triple index) pairs of
    its triples, so edge instances (not just endpoint pairs) can be
    recovered; `entities` is a read-only view of its keys.  `khop_memo`
    holds the K-hop maps khop_neighbors handed out, least recently used
    first, and `khop_memo_entries` their total size.  `add` drops the memo
    and the triple arrays, which are built again when next read.
    """

    def __init__(self, vocab: Vocabulary, triples: Iterable[Triple]) -> None:
        self.vocab = vocab
        self.triples: list[Triple] = []
        self.incident: dict[int, list[tuple[int, int]]] = {}
        self._members: set[Triple] = set()
        self._entity_list: list[int] | None = None
        self._arrays: np.ndarray | None = None
        self.khop_memo: OrderedDict[tuple[int, int], Mapping[int, int]] = OrderedDict()
        self.khop_memo_entries = 0
        for t in triples:
            self.add(Triple(*t))

    def add(self, t: Triple) -> None:
        ne, nr = self.vocab.num_entities, self.vocab.num_relations
        if not (0 <= t.head < ne and 0 <= t.tail < ne):
            raise KGError(f"entity id out of range in {t}")
        if not (0 <= t.relation < nr):
            raise KGError(f"relation id out of range in {t}")
        idx = len(self.triples)
        self.incident.setdefault(t.head, []).append((t.tail, idx))
        if t.tail != t.head:
            self.incident.setdefault(t.tail, []).append((t.head, idx))
        self.triples.append(t)
        self._members.add(t)
        self._entity_list = None
        self._arrays = None
        if self.khop_memo:
            self.khop_memo.clear()
            self.khop_memo_entries = 0

    @property
    def entities(self) -> KeysView[int]:
        return self.incident.keys()

    @property
    def num_triples(self) -> int:
        return len(self.triples)

    @property
    def arrays(self) -> np.ndarray:
        """(3, T) int32, read-only: the heads, relations and tails of the
        triples, column i for triple i."""
        if self._arrays is None:
            flat = np.fromiter((x for t in self.triples for x in t), np.int32, 3 * len(self.triples))
            self._arrays = np.ascontiguousarray(flat.reshape(-1, 3).T)
            self._arrays.flags.writeable = False
        return self._arrays

    def has_triple(self, t: Triple) -> bool:
        return Triple(*t) in self._members

    def entity_list(self) -> list[int]:
        # sorted so that uniform sampling is reproducible across runs
        if self._entity_list is None:
            self._entity_list = sorted(self.entities)
        return self._entity_list

    def relations(self) -> frozenset[int]:
        return frozenset(t.relation for t in self.triples)


def bfs(incident: dict, start: int, k: int) -> dict[int, int]:
    """Entities within k undirected hops of start in an incidence index,
    mapped to their hop distance; start is at distance 0."""
    dist = {start: 0}
    frontier = [start]
    d = 0
    while frontier and d < k:
        d += 1
        nxt = []
        for e in frontier:
            for n, _ in incident.get(e, ()):
                if n not in dist:
                    dist[n] = d
                    nxt.append(n)
        frontier = nxt
    return dist


def khop_neighbors(graph: KnowledgeGraph, center: int, k: int) -> Mapping[int, int]:
    """Entities within k undirected hops of center, mapped to their hop distance.

    The center is always present at distance 0, even when isolated.  Raises
    KGError for an id outside the vocabulary or a negative k.  The map is
    read-only, since it is memoised on the graph and shared by every caller
    until the graph changes or the memo evicts it.
    """
    if not (0 <= center < graph.vocab.num_entities):
        raise KGError(f"unknown entity id: {center}")
    if k < 0:
        raise KGError(f"negative hop count: {k}")
    memo, key = graph.khop_memo, (center, k)
    got = memo.get(key)
    if got is not None:
        memo.move_to_end(key)
        return got
    got = memo[key] = MappingProxyType(bfs(graph.incident, center, k))
    graph.khop_memo_entries += len(got)
    while graph.khop_memo_entries > KHOP_MEMO_ENTRIES and len(memo) > 1:
        graph.khop_memo_entries -= len(memo.popitem(last=False)[1])
    return got


class Benchmark:
    """A benchmark's four files in one id space: the training and test graphs,
    and the validation and test targets.

    `train` and `test_graph` may be given as KnowledgeGraphs or as their
    triples.  Triples become a KnowledgeGraph the first time the attribute
    is read, and that graph is kept, so a run indexes only the graph it
    reads: eval scores over the test graph, training over the training graph.
    """

    def __init__(
        self,
        vocab: Vocabulary,
        train: KnowledgeGraph | list[Triple],
        valid: list[Triple],
        test_graph: KnowledgeGraph | list[Triple],
        test: list[Triple],
    ) -> None:
        self.vocab = vocab
        self.valid = valid
        self.test = test
        self._graphs = {"train": train, "test_graph": test_graph}

    def _graph(self, name: str) -> KnowledgeGraph:
        got = self._graphs[name]
        if not isinstance(got, KnowledgeGraph):
            got = self._graphs[name] = KnowledgeGraph(self.vocab, got)
        return got

    @property
    def train(self) -> KnowledgeGraph:
        return self._graph("train")

    @property
    def test_graph(self) -> KnowledgeGraph:
        return self._graph("test_graph")


def load_benchmark(directory: str) -> Benchmark:
    """Load the four benchmark files of a directory into one id space.

    Ids are assigned in first-seen order over train, valid, test_graph, test
    (in that file order), which makes loading deterministic.  Every file is
    read and checked here; an empty training file is an error, the other
    files may be empty.  Neither graph is indexed until it is read.
    """
    paths = {name: os.path.join(directory, name) for name in BENCHMARK_FILES}
    for name, path in paths.items():
        if not os.path.isfile(path):
            raise KGError(f"missing benchmark file: {path}")

    vocab = Vocabulary()
    raw: dict[str, list[Triple]] = {}
    for name in BENCHMARK_FILES:
        triples = []
        for h, r, t in read_rows(paths[name], KGError):
            triples.append(
                Triple(
                    vocab.entity_id(h, create=True),
                    vocab.relation_id(r, create=True),
                    vocab.entity_id(t, create=True),
                )
            )
        raw[name] = triples

    if not raw["train.txt"]:
        raise KGError(f"empty training file: {paths['train.txt']}")
    for t in raw["train.txt"]:
        vocab.mark_seen(t.relation)

    return Benchmark(
        vocab=vocab,
        train=raw["train.txt"],
        valid=raw["valid.txt"],
        test_graph=raw["test_graph.txt"],
        test=raw["test.txt"],
    )
