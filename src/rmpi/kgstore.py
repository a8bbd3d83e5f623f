"""Triple store for knowledge-graph benchmarks.

A benchmark directory holds four files of (head, relation, tail) name rows
(train.txt, valid.txt, test_graph.txt, test.txt; `fileio` reads and writes
them).  All four files share one entity/relation id space; relations that
never occur in the training graph are flagged unseen.  Duplicate rows are
kept as distinct triple instances because downstream graphs treat every
edge instance as a node of its own.

A graph is fixed when built: it checks its ids and keeps its triples, and
builds each structure derived from them the first time it is read, so a run
indexes only the graph it reads (eval the test graph, training the training
graph).  The graph has one incidence index, `csr`: compressed sparse rows
of int32 arrays, each entity's rows the other end and the index of one of
its triples, in triple order.  Edges are read undirected, so a triple is
listed under both of its ends and a self-loop once, under its entity.
`incident` is the same rows as Python lists for loops, one per entity id,
built from `csr` when the index is first read; `entities` are the ids with
rows.  `arrays` holds the triples as one int32 array, so that subgraphs and
samples can hold triple indices and gather their ends and relations in one
step; `self_loops` lists each entity's self-loops, all a target whose ends
are far apart keeps.  `bfs` walks the index; extraction walks it too, inside
the neighbourhood a target's two ends share, by Python loops over
`incident` or by array operations over `csr`.  Extraction reads each K-hop
ball through `khop_ball`, which memoises it on the graph per (entity, k) as
an ascending int32 array of entity ids, so that the candidates of a rank
query, which all share the query's fixed entity, and every later pass over
the same targets walk each ball once.  The memo's budget scales with the
graph's index: KHOP_MEMO_IDS_PER_ROW ids per incidence row in all (or one
larger ball), evicting the least recently used balls.  `khop_neighbors` is
the walk's distance map, unmemoised.
"""

from __future__ import annotations

import hashlib
import os
from collections import OrderedDict
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple

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


class IncidenceRows(NamedTuple):
    """The incidence index in compressed sparse rows (KnowledgeGraph.csr):
    entity e's rows are starts[e] .. starts[e + 1] - 1, each the other end
    and the index of one of its triples."""

    starts: np.ndarray  # (num_entities + 1,) int32
    other: np.ndarray  # (R,) int32
    triple: np.ndarray  # (R,) int32


# Most entity ids the K-hop balls memoised on one graph hold in all, per
# incidence row of its index (a triple has two rows, a self-loop one); a
# ball larger than the budget is still kept, alone.  That is 64 bytes of ids
# a row, less than the index itself costs a row.  At K=2 the budget holds
# every ball of train-mild's training graph (20,876 ids against 64k) and of
# rank-skewed's test graph (38,470 against 80k), and every ball a
# classify-hub pass reads (44,264 against 112k), so perfbench's later passes
# walk none; on a paper-like graph (4,700 entities, 34,000 triples, a=0.5)
# it holds 1.09M of the 1.9M ids of all K=2 balls, about 4.4 MB.
KHOP_MEMO_IDS_PER_ROW = 16


class KnowledgeGraph:
    """A multiset of triples over a shared vocabulary, fixed when built.

    `csr` holds each entity's (other end, triple index) rows, so edge
    instances (not just endpoint pairs) can be recovered, and `incident`
    the same rows as one Python list per entity id; `entities` are the ids
    with rows, ascending.  An entity the vocabulary gains after the index
    is built has no rows: a walk from it extends `incident` with empty
    rows up to it, and the array route reads past the end of `csr` as no
    rows.  The index, the member set behind `has_triple`, `arrays` and
    `self_loops` are each built the first time they are read.  `khop_memo`
    holds the K-hop balls khop_ball handed out, least recently used first,
    and `khop_memo_entries` their total size in ids; `khop_walks` counts
    the balls khop_ball walked the index for, and `khop_hits` those it
    found in the memo.
    """

    def __init__(self, vocab: Vocabulary, triples: Iterable[Triple]) -> None:
        self.vocab = vocab
        # a Triple is kept as it is, not copied
        self.triples = [t if type(t) is Triple else Triple(*t) for t in triples]
        ne, nr = vocab.num_entities, vocab.num_relations
        for t in self.triples:
            if not (0 <= t.head < ne and 0 <= t.tail < ne):
                raise KGError(f"entity id out of range in {t}")
            if not (0 <= t.relation < nr):
                raise KGError(f"relation id out of range in {t}")
        self.khop_memo: OrderedDict[tuple[int, int], np.ndarray] = OrderedDict()
        self.khop_memo_entries = 0
        self.khop_walks = 0
        self.khop_hits = 0

    @cached_property
    def csr(self) -> IncidenceRows:
        """The incidence index as read-only int32 arrays (IncidenceRows),
        each entity's rows in triple order: under each end of a triple, a
        self-loop once, under its entity."""
        heads, _, tails = self.arrays
        ids = np.arange(len(heads), dtype=np.int32)
        twice = heads != tails  # a self-loop has one row
        end = np.concatenate([heads, tails[twice]])
        triple = np.concatenate([ids, ids[twice]])
        order = np.lexsort((triple, end))
        starts = np.zeros(self.vocab.num_entities + 1, dtype=np.int32)
        np.cumsum(np.bincount(end, minlength=self.vocab.num_entities), out=starts[1:])
        other = np.concatenate([tails, heads[twice]])[order]
        triple = triple[order]
        for array in (starts, other, triple):
            array.flags.writeable = False
        return IncidenceRows(starts, other, triple)

    @cached_property
    def incident(self) -> list:
        """`csr` for Python loops: entity e's rows as a list of (other end,
        triple index) pairs at incident[e]; the entities without rows share
        the empty tuple."""
        starts, other, triple = self.csr
        pairs = list(zip(other.tolist(), triple.tolist()))
        bounds = starts.tolist()
        return [pairs[a:b] if a < b else () for a, b in zip(bounds, bounds[1:])]

    @cached_property
    def self_loops(self) -> dict[int, list[int]]:
        """Each entity with self-loops, mapped to their indices, ascending."""
        loops: dict[int, list[int]] = {}
        for idx, (head, _, tail) in enumerate(self.triples):
            if head == tail:
                loops.setdefault(head, []).append(idx)
        return loops

    @property
    def khop_memo_budget(self) -> int:
        """Most ids the K-hop memo holds in all, but for one larger ball."""
        return KHOP_MEMO_IDS_PER_ROW * len(self.csr.other)

    @cached_property
    def entities(self) -> list[int]:
        """The ids of the entities with rows in the index, ascending, so that
        uniform sampling is reproducible across runs."""
        return np.diff(self.csr.starts).nonzero()[0].tolist()

    @property
    def num_triples(self) -> int:
        return len(self.triples)

    @cached_property
    def arrays(self) -> np.ndarray:
        """(3, T) int32, read-only: the heads, relations and tails of the
        triples, column i for triple i."""
        flat = np.fromiter((x for t in self.triples for x in t), np.int32, 3 * len(self.triples))
        arrays = np.ascontiguousarray(flat.reshape(-1, 3).T)
        arrays.flags.writeable = False
        return arrays

    @cached_property
    def _members(self) -> frozenset[Triple]:
        return frozenset(self.triples)

    def has_triple(self, t: Triple) -> bool:
        return Triple(*t) in self._members

    def relations(self) -> frozenset[int]:
        return frozenset(t.relation for t in self.triples)


def bfs(incident: list, start: int, k: int) -> dict[int, int]:
    """Entities within k undirected hops of start in an incidence index
    (KnowledgeGraph.incident), mapped to their hop distance; start is at
    distance 0."""
    dist = {start: 0}
    frontier = [start]
    d = 0
    while frontier and d < k:
        d += 1
        nxt = []
        for e in frontier:
            for n, _ in incident[e]:
                if n not in dist:
                    dist[n] = d
                    nxt.append(n)
        frontier = nxt
    return dist


def _check_walk(graph: KnowledgeGraph, center: int, k: int) -> None:
    if not (0 <= center < graph.vocab.num_entities):
        raise KGError(f"unknown entity id: {center}")
    if k < 0:
        raise KGError(f"negative hop count: {k}")
    # an entity the vocabulary gained after indexing has no rows; extraction
    # walks both ends of a target before it reads their rows
    incident = graph.incident
    if center >= len(incident):
        incident.extend([()] * (graph.vocab.num_entities - len(incident)))


def khop_neighbors(graph: KnowledgeGraph, center: int, k: int) -> Mapping[int, int]:
    """Entities within k undirected hops of center, mapped to their hop distance.

    The center is always present at distance 0, even when isolated.  Raises
    KGError for an id outside the vocabulary or a negative k.  The map is
    read-only; it is walked on each call, not memoised (extraction reads
    khop_ball).
    """
    _check_walk(graph, center, k)
    return MappingProxyType(bfs(graph.incident, center, k))


def khop_ball(graph: KnowledgeGraph, center: int, k: int) -> np.ndarray:
    """The entities within k undirected hops of center, the center included,
    as a read-only ascending int32 array of ids.

    Memoised on the graph and shared by every caller until the memo evicts
    it: the memo holds at most graph.khop_memo_budget ids in all, or one
    larger ball, and evicts the least recently used balls first.  Raises
    KGError for an id outside the vocabulary or a negative k.
    """
    memo, key = graph.khop_memo, (center, k)
    ball = memo.get(key)
    if ball is not None:
        memo.move_to_end(key)
        graph.khop_hits += 1
        return ball
    _check_walk(graph, center, k)
    dist = bfs(graph.incident, center, k)
    ball = np.fromiter(dist, np.int32, len(dist))
    ball.sort()
    ball.flags.writeable = False
    memo[key] = ball
    graph.khop_walks += 1
    graph.khop_memo_entries += len(ball)
    budget = graph.khop_memo_budget
    while graph.khop_memo_entries > budget and len(memo) > 1:
        graph.khop_memo_entries -= len(memo.popitem(last=False)[1])
    return ball


class Benchmark(NamedTuple):
    """A benchmark's four files in one id space: the training and test graphs,
    and the validation and test targets."""

    vocab: Vocabulary
    train: KnowledgeGraph
    valid: list[Triple]
    test_graph: KnowledgeGraph
    test: list[Triple]


def load_benchmark(directory: str) -> Benchmark:
    """Load the four benchmark files of a directory into one id space.

    Ids are assigned in first-seen order over train, valid, test_graph, test
    (in that file order), which makes loading deterministic.  Every file is
    read and checked here; an empty training file is an error, the other
    files may be empty.  Neither graph is indexed until a run reads it.
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
        train=KnowledgeGraph(vocab, raw["train.txt"]),
        valid=raw["valid.txt"],
        test_graph=KnowledgeGraph(vocab, raw["test_graph.txt"]),
        test=raw["test.txt"],
    )
