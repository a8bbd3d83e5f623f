"""Target-centred subgraph extraction and the relation-view transformation.

Around a target triple (u, r_t, v) two entity subgraphs are cut out of a
knowledge graph: the *enclosing* subgraph (intersection of the K-hop
neighborhoods of u and v, pruned) and the *disclosing* subgraph (their
union, unpruned).  The enclosing one is turned into a relation-view graph: a
directed graph with one node per triple instance, labelled by its relation,
and six typed edges describing how two triples share entities.  Each edge
type matches one end of a triple with one end of another, so the sources of
a receiver's edges of one type are the ends at one of its entities, less
the parallel or inverse twins that get a PARA or LOOP edge in place of the
generic matches.  _end_rows decides that typing once, as spans over the
triples' ends sorted by entity, and every consumer reads those spans:
view_layers expands them into (src, type, dst) edge rows sorted by (dst,
type, src), for to_relation_view (`rmpi dump-subgraph`) and for training,
whose per-edge dropout needs the edges and which builds all the triples of a
step at once (rmpnet.stack_samples); scoring_incidences lays them out for
the scoring forward, which sums over them without the edges, which grow
with the square of entity degree.  Message passing only needs the part of
the view that reaches the target within K steps: layer k reads the edges
into the triples of level at most K - k, the levels extract_enclosing
measures, and prune_to_target finds the same layers by walking one view's
edges back from the target.  The model reads only the target's one-hop
in-neighbors in the disclosing view, the triples sharing an entity with the
target, so extract_enclosing, asked for them, reads their labels straight
off the graph's incidence index into the one record it returns;
extract_disclosing builds the whole union subgraph only for inspection.

Both extractions return one Subgraph record, whose docstring gives its
format; consumers gather ends and labels by index.  Extraction reads the
K-hop balls the graph memoises (kgstore.khop_ball), so each (entity, K) is
walked once while the memo holds it: the candidates of a rank query, which
share its fixed entity, walk that entity's neighbourhood once, and a later
pass over the same targets walks none; extract_enclosing_list searches a
rank query's candidates in their fixed entity's ball at once.  Pruning walks
the graph's incidence index (KnowledgeGraph.csr) inside the intersection,
and the triples are then gathered at the entities it keeps, by one of two
routes over that index that give the same record bit for bit.  A small
intersection, as most of a sparse graph's are, takes the loop route: Python
over the index's per-entity lists (KnowledgeGraph.incident), which reads
only the rows it needs.  An intersection of at least ARRAY_ROUTE_ENTITIES
entities, as a hub's is, takes the array route: a fixed number of numpy
calls over the index's arrays, which cost about as much for a few rows as
for a hub's thousands, so that it is cheaper than the loop only past some
tens of entities.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from . import numkit as nk
from .fileio import format_row
from .kgstore import (
    KnowledgeGraph,
    Triple,
    khop_ball,
    khop_neighbors,  # noqa: F401  perfbench's tracer wraps it under this name too
)

# Edge types of the relation view.  For an ordered pair n1=(h1,_,t1),
# n2=(h2,_,t2) the basic patterns are single shared-position matches; PARA
# and LOOP are the two-position patterns (parallel and inverse triples).
H_T, T_H, H_H, T_T, PARA, LOOP = range(6)
EDGE_TYPE_NAMES = ("H-T", "T-H", "H-H", "T-T", "PARA", "LOOP")
NUM_EDGE_TYPES = 6


class SubgraphError(Exception):
    pass


# Deepest extraction: a level, at most K + 1, is held in an int8.
MAX_HOPS = np.iinfo(np.int8).max - 1


NO_LABELS = np.empty(0, dtype=np.int32)
NO_LABELS.flags.writeable = False
NO_INDEXES = np.empty(0, dtype=np.int32)
NO_INDEXES.flags.writeable = False
NO_LEVELS = np.empty(0, dtype=np.int8)
NO_LEVELS.flags.writeable = False


@dataclass(frozen=True, eq=False, slots=True)
class Subgraph:
    """A cut-out subgraph of one target triple, as compact arrays over its
    graph: the one record extraction returns, SampleCache keeps and
    rmpnet.stack_samples stacks.

    `indexes` holds its graph triples as int32 indices into the graph's
    arrays (KnowledgeGraph.arrays), ascending; the target is apart, since
    it is not a graph triple (an instance equal to it is left out), and
    counts as the last node.  An enclosing subgraph holds per graph triple
    its int8 level, the least j with it in pruning's N^j, at most K + 1
    (extract_enclosing); the target's, 0, is not held.  A disclosing one
    holds no levels.  A model sample is the enclosing subgraph, carrying
    for the ne variants the int32 labels of the target's disclosing
    neighbours (extract_enclosing with `disclosing` set): 5 bytes per
    triple and 4 per label.  Nothing is built from them and kept: a
    training batch builds its view edges at each step."""

    graph: KnowledgeGraph = field(repr=False)
    indexes: np.ndarray  # (n,) int32
    target: Triple
    levels: np.ndarray | None  # (n,) int8; None when disclosing
    labels: np.ndarray  # (m,) int32; NO_LABELS when unused

    @property
    def kind(self) -> str:
        return "disclosing" if self.levels is None else "enclosing"

    @property
    def triples(self) -> tuple[Triple, ...]:
        """The graph triples, then the target, built on each read."""
        triples = self.graph.triples
        return tuple([triples[i] for i in self.indexes.tolist()]) + (self.target,)

    @property
    def nbytes(self) -> int:
        """Bytes its arrays hold."""
        levels = 0 if self.levels is None else self.levels.nbytes
        return self.indexes.nbytes + levels + self.labels.nbytes


@dataclass(frozen=True)
class RelationViewGraph:
    nodes: tuple[Triple, ...]
    labels: tuple[int, ...]  # relation id per node
    # (E, 3) int32 rows (src, edge_type, dst), sorted by (dst, type, src),
    # the order pruning and the layers read them; read-only.  Equality
    # compares the nodes, labels and target only.
    edges: np.ndarray = field(repr=False, compare=False)
    target_index: int

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)


NO_EDGES = np.empty((0, 3), dtype=np.int32)
NO_EDGES.flags.writeable = False


def _induced_triples(graph: KnowledgeGraph, entities, target: Triple) -> list[int]:
    """Indices, ascending, of the triples with both ends inside `entities`,
    skipping instances equal to the target so that the injected target edge
    stays unique."""
    triples, incident = graph.triples, graph.incident
    picked = []
    for e in entities:
        for other, idx in incident[e]:
            # a triple is listed under both ends: take it at its smaller one
            if other >= e and other in entities and triples[idx] != target:
                picked.append(idx)
    picked.sort()
    return picked


def _pruning_distances(graph: KnowledgeGraph, u: int, v: int, common,
                       k: int) -> dict[int, int]:
    """The entities pruning keeps, each with its distance from the nearer of
    u and v in the subgraph induced on `common` and u and v, plus the u–v
    link: those within k of both there.

    One walk of the graph's incidence index inside `common` from both ends
    at once.  With the link, an entity's distances from u and v differ by
    at most one, so it is within k of both when its distance d from the
    nearer is below k, or when d = k and both ends reach it in d steps.
    `ends` marks by bit which ends reach an entity in its d steps.
    """
    incident = graph.incident
    ends = {u: 1, v: 2} if u != v else {u: 3}
    dist = dict.fromkeys(ends, 0)
    frontier = list(ends)
    for d in range(1, k + 1):
        nxt = []
        for e in frontier:
            bits = ends[e]
            for n, _ in incident[e]:
                if n not in dist:
                    if n in common:
                        dist[n] = d
                        ends[n] = bits
                        nxt.append(n)
                elif dist[n] == d:
                    ends[n] |= bits
        frontier = nxt
    return {e: d for e, d in dist.items() if d < k or ends[e] == 3}


def extract_enclosing(graph: KnowledgeGraph, target: Triple, k: int, *,
                      disclosing: bool = False) -> Subgraph:
    """extract_enclosing_list of the one target, without the grouping, which
    would cost a lone target more than its search."""
    if type(target) is not Triple:  # a Triple is kept: a cached sample shares its key's tuple
        target = Triple(*target)
    if not 1 <= k <= MAX_HOPS:
        raise SubgraphError(f"hop count must be in 1..{MAX_HOPS}, got {k}")
    small, large = khop_ball(graph, target[0], k), khop_ball(graph, target[2], k)
    if len(small) > len(large):
        small, large = large, small
    (common,) = _search(large, [small])
    return _enclosing(graph, target, common, k, disclosing)


def extract_enclosing_list(graph: KnowledgeGraph, targets, k: int, *,
                           disclosing: bool = False) -> list[Subgraph]:
    """K-hop enclosing subgraph of each target triple, in order.

    Entity set: N_K(u) ∩ N_K(v) in the parent graph, then pruned: distances
    are re-measured inside the induced subgraph (with the target edge, so u
    and v are adjacent), and every entity isolated or farther than K from
    either center there is dropped, which can leave just the target edge.
    The balls come from kgstore.khop_ball, memoised on the graph; a target's
    smaller ball is searched in its larger one (_search), at once for all
    targets whose larger ball is the same array, as a rank query's
    candidates share their fixed entity's, so no more ids are searched than
    target by target.  The distances are measured by one walk of the graph's
    index within the intersection from u and v at once (_pruning_distances),
    unless it holds no entity but u and v, the walk's own seeds (a far
    target's, whose ends are more than 2K apart, holds none at all).  An
    intersection of ARRAY_ROUTE_ENTITIES entities or more is walked and
    gathered by array operations instead (_array_enclosing), to the same
    record: the loop's Python cost grows with the rows it reads, and the
    arrays' numpy calls cost more than that only on small intersections
    (_enclosing).

    The same distances give each triple's level: N^0 is the target, and N^j
    the triples sharing an entity with one in N^(j-1), pruning's node sets,
    since two distinct triples share an entity exactly when the relation
    view has an edge between them.  So a triple's level is 1 plus the least
    distance of its ends from u or v: pruning keeps every entity on a
    shortest path of length at most K, so these are the distances inside the
    pruned subgraph too, and a level is at most K + 1.  Layer k' of a
    depth-K pass updates the triples of level at most K - k', and reads only
    those of level at most K - k' + 1.

    Pruning comes first, so the triples are gathered at the kept entities
    alone (_induced_triples), which is exact: they are the intersection's
    triples with both ends kept.  A target keeping only u and v, at distance
    0, has each of its triples, those joining u and v and their self-loops,
    at level 1; empty subgraphs share the read-only NO_INDEXES and
    NO_LEVELS.  With `disclosing` set, the record also carries the labels of
    the target's disclosing neighbours (_disclosing_labels), as the ne
    variants' samples do; otherwise NO_LABELS.
    """
    if not 1 <= k <= MAX_HOPS:
        raise SubgraphError(f"hop count must be in 1..{MAX_HOPS}, got {k}")
    targets = [t if type(t) is Triple else Triple(*t) for t in targets]  # as extract_enclosing
    groups = {}  # id of a larger ball: the ball, then its targets' indexes and smaller balls
    for i, (u, _, v) in enumerate(targets):
        small, large = khop_ball(graph, u, k), khop_ball(graph, v, k)
        if len(small) > len(large):
            small, large = large, small
        groups.setdefault(id(large), [large]).append((i, small))
    commons = [None] * len(targets)
    for large, *members in groups.values():
        for (i, _), common in zip(members, _search(large, [small for _, small in members])):
            commons[i] = common
    return [_enclosing(graph, t, common, k, disclosing) for t, common in zip(targets, commons)]


def _search(large: np.ndarray, smalls: list[np.ndarray]) -> list[list[int]]:
    """The ids of each ascending array of `smalls` that are in the ascending
    `large`, found by one searchsorted for them all."""
    ids = np.concatenate(smalls) if len(smalls) > 1 else smalls[0]  # a lone ball is not copied
    hit = large.take(large.searchsorted(ids), mode="clip") == ids
    found = ids[hit].tolist()
    if len(smalls) == 1:
        return [found]
    ends = hit.cumsum().take(np.cumsum([len(small) for small in smalls]) - 1).tolist()
    return [found[start:end] for start, end in zip([0, *ends], ends)]


# Intersections of at least this many entities take the array route
# (_array_enclosing), smaller ones the loop route.  The array route makes
# about 50 numpy calls at K=2 whatever the size, about 40 us, where the
# loop's cost grows with the rows it reads.  Per target at K=2 (best of 5,
# one process, 2 shared CPUs): below 5 entities 6 us by the loop against
# 39 us; at 100-299 entities 474 against 118 us on classify-hub's graph and
# 861 against 193 us on a paper-like one (4,700 entities, 34,000 triples,
# a=0.5).  The routes cross near 15 entities on classify-hub, 25 on the
# paper-like graph and 60-100 on the sparser train-mild and rank-skewed
# graphs, whose entities have fewer rows; at 30 the array route cuts
# classify-hub's extraction to x0.32 and costs train-mild's and
# rank-skewed's x1.004 and x1.016.
ARRAY_ROUTE_ENTITIES = 30


def _enclosing(graph: KnowledgeGraph, target: Triple, common: list[int], k: int,
               disclosing: bool) -> Subgraph:
    """extract_enclosing_list's record of one target, from the entities of
    its two balls' intersection, ascending.

    Two routes give the same record bit for bit.  An intersection of at
    least ARRAY_ROUTE_ENTITIES entities takes the array route: the walk,
    the gather and the levels as array operations over the graph's CSR
    index (_array_enclosing), each a fixed number of numpy calls per hop.
    A smaller one takes the loop route, a walk of the same index's
    per-entity lists in Python (_pruning_distances, _induced_triples),
    which costs less than those calls when there are few rows to read;
    most targets of a sparse graph take it.  It reads the triples among u
    and v alone, with no walk, when the intersection holds no other entity.
    """
    labels = _disclosing_labels(graph, target) if disclosing else NO_LABELS
    if len(common) >= ARRAY_ROUTE_ENTITIES:
        idxs, levels = _array_enclosing(graph, target, common, k)
        if not len(idxs):
            return Subgraph(graph, NO_INDEXES, target, NO_LEVELS, labels)
        return Subgraph(graph, idxs, target, levels, labels)
    u, _, v = target
    inside = set(common)
    inside.discard(u)
    inside.discard(v)
    near = _pruning_distances(graph, u, v, inside, k) if inside else {u: 0, v: 0}
    idxs = _induced_triples(graph, near, target)
    if not idxs:
        return Subgraph(graph, NO_INDEXES, target, NO_LEVELS, labels)
    triples, levels = graph.triples, []
    for i in idxs:
        h, _, t = triples[i]
        levels.append(1 + min(near[h], near[t]))
    return Subgraph(graph, np.array(idxs, dtype=np.int32), target,
                    np.array(levels, dtype=np.int8), labels)


def _array_enclosing(graph: KnowledgeGraph, target: Triple, common: list[int],
                     k: int) -> tuple[np.ndarray, np.ndarray]:
    """The loop route's int32 triple indexes and int8 levels, by array
    operations over graph.csr, with scratch arrays as long as the
    intersection and the rows its entities have.

    The entities `ids`, the intersection with u and v, are numbered by
    their place in it.  Their rows are sorted by (triple, place): a triple
    with both ends among them has two rows, side by side, and a self-loop
    one, marked as its other end is its own, so the triples they induce
    come out ascending, each with its two ends' places, the smaller first.
    The walk is _pruning_distances' over those triples: per hop, the ends
    not yet reached of the triples at the frontier take the distance and
    the OR of the frontier ends' bits.  The triples kept are those with
    both ends kept, less the instances equal to the target, which join u
    and v.
    """
    starts, other, triple = graph.csr
    u, r, v = target
    at = bisect_left(common, u)
    joined = at < len(common) and common[at] == u  # then v is in common too
    ids = np.array(common if joined else sorted([*common, u, v]), dtype=np.int32)
    m = len(ids)
    first = starts.take(ids, mode="clip")  # an id past the index has no rows
    count = starts.take(ids + 1, mode="clip") - first
    rows = np.arange(count.sum())
    rows += (first - count.cumsum() + count).repeat(count)
    place = np.arange(m).repeat(count)
    bits = m.bit_length()
    key = triple[rows].astype(np.int64)
    key <<= bits
    key += place
    key <<= 1
    key += other[rows] == ids[place]  # a self-loop's one row
    key.sort()
    tid = key >> (bits + 1)
    pair = np.zeros(len(key), dtype=bool)  # a row and the next: a triple's two ends
    pair[:-1] = tid[1:] == tid[:-1]
    entry = (pair | (key & 1).astype(bool)).nonzero()[0]
    place = (key >> 1) & ((1 << bits) - 1)
    src, dst, tid = place[entry], place[entry + pair[entry]], tid[entry]
    pu, pv = ids.searchsorted((u, v)).tolist()
    dist = np.full(m, -1, dtype=np.int8)  # -1: not reached; k <= MAX_HOPS
    ends = np.zeros(m, dtype=np.int8)
    dist[pu] = dist[pv] = 0
    ends[pu] = 1
    ends[pv] |= 2
    for d in range(1, k + 1):
        at_src, at_dst = dist[src], dist[dst]
        out = (at_src == d - 1) & (at_dst < 0)
        back = (at_dst == d - 1) & (at_src < 0)
        reached = np.concatenate((dst[out], src[back]))
        if not len(reached):
            break
        dist[reached] = d
        np.bitwise_or.at(ends, reached, ends[np.concatenate((src[out], dst[back]))])
    kept = dist >= 0
    kept &= (dist < k) | (ends == 3)
    keep = kept[src] & kept[dst]
    if joined:
        lo, hi = min(pu, pv), max(pu, pv)
        same = keep & (src == lo) & (dst == hi)
        if same.any():  # an instance equal to the target is left out
            heads, relations, tails = graph.arrays
            same &= (heads[tid] == u) & (relations[tid] == r) & (tails[tid] == v)
            keep &= ~same
    levels = np.minimum(dist[src[keep]], dist[dst[keep]])
    levels += 1
    return tid[keep].astype(np.int32), levels


def _disclosing_labels(graph: KnowledgeGraph, target: Triple) -> np.ndarray:
    """The int32 labels of the target's one-hop neighbours in its
    disclosing view, in graph triple order, or NO_LABELS when it has none:
    all the model reads of the disclosing subgraph.

    Every triple instance incident to u or v shares an entity with the
    target and so has at least one typed edge into it, for any K >= 1; no
    other triple does.  Each instance is listed once, self-loops and
    triples joining u and v included, and instances equal to the target
    are skipped as extract_disclosing skips them.  Each end's incidence
    list is read once, in triple order: a triple joining u and v is taken
    from u's list, where only such a triple can equal the target, and the
    two ascending lists are merged by one sort.
    """
    incident, triples = graph.incident, graph.triples
    u, _, v = target
    idxs = [i for other, i in incident[u] if other != v or triples[i] != target]
    if u != v:
        idxs += [i for other, i in incident[v] if other != u]
        idxs.sort()
    return graph.arrays[1].take(idxs) if idxs else NO_LABELS


def extract_disclosing(graph: KnowledgeGraph, target: Triple, k: int) -> Subgraph:
    """K-hop disclosing subgraph: union of the two neighborhoods, no pruning."""
    target = Triple(*target)
    if k < 1:
        raise SubgraphError(f"hop count must be >= 1, got {k}")
    u, _, v = target
    entities = set(khop_ball(graph, u, k).tolist()).union(khop_ball(graph, v, k).tolist())
    idxs = np.array(_induced_triples(graph, entities, target), dtype=np.int32)
    return Subgraph(graph, idxs, target, None, NO_LABELS)


# Most relation-view edges a build may expand, counted from the spans before
# any is allocated.  It bounds a training step, which builds the edges into
# the layer-1 receivers of all its samples at once.  A step's traced peak,
# backward included, is about 65 bytes per edge for base and 85 for ne-ta at
# K=2 (numpy's traced allocations on the largest of the first 40 steps of an
# epoch on classify-hub's graph, batch 16: 0.74M edges, 48 and 63 MB), so
# 0.54 and 0.71 GB at this ceiling; at K=3, 85 and 111 bytes (4.4M edges).
# A build over the ceiling raises SubgraphError, which the CLI reports with
# exit code 2, rather than running the machine out of memory.
MAX_VIEW_EDGES = 1 << 23


def to_relation_view(sub: Subgraph) -> RelationViewGraph:
    """Directed typed graph over triple instances.

    An edge n1 -> n2 of some type means n1's feature flows to n2; both
    directions of a pair are classified independently.  A pair sharing
    entities at several positions yields several typed edges, except that a
    PARA match always hides H-H/T-T for that pair and a LOOP match hides
    H-T/T-H, so a message is never double-counted by a generic pattern
    subsumed in a specific one.  The view is one sample of view_layers
    whose every node receives.
    """
    triples = sub.triples
    rows = np.array(triples, dtype=np.intp)
    ends = np.concatenate([rows[:, 0], rows[:, 2]])
    zeros = np.zeros(len(triples), dtype=np.intp)
    (edges,) = view_layers(ends, zeros, zeros, 1, [sub.target])
    return RelationViewGraph(
        nodes=triples,
        labels=tuple(t.relation for t in triples),
        edges=edges,
        target_index=len(sub.indexes),
    )


def view_layers(ends: np.ndarray, node_sample: np.ndarray, levels: np.ndarray, depth: int,
                targets) -> tuple[np.ndarray, ...]:
    """Per layer k = 1..depth, the relation-view edges into the nodes of
    level at most depth - k, as read-only (E_k, 3) int32 rows (src, type,
    dst) sorted by (dst, type, src): node i, from the subgraph of
    targets[node_sample[i]], has its head at ends[i] and its tail at
    ends[n + i].

    Every edge type matches one end of the source with one end of the
    receiver, so the edges into a receiver are the rows of its spans
    (_end_rows): each span is expanded into its rows' nodes, and the edges
    sorted.  A build of more edges than MAX_VIEW_EDGES, counted from the
    spans first, names the target whose receivers take the most.  A batch
    without edges shares one empty array per layer.
    """
    n = len(node_sample)
    ends, num_ids = _dense_ids(ends, node_sample)
    receivers = (levels < depth).nonzero()[0]
    _, _, node_of, spans = _end_rows(ends, num_ids, receivers)
    ranges = spans.reshape(-1, 2)  # per receiver and type: rows start .. cut-1, resume .. stop-1
    length = ranges[:, 1] - ranges[:, 0]
    count = int(length.sum())
    if not count:
        return (NO_EDGES,) * depth
    if count > MAX_VIEW_EDGES:
        per_receiver = length.reshape(len(receivers), -1).sum(1)
        worst = np.bincount(node_sample[receivers], weights=per_receiver).argmax()
        raise SubgraphError(
            f"relation view of target {targets[worst]} needs {count} edges, "
            f"over the limit of {MAX_VIEW_EDGES}"
        )
    at = np.arange(count)  # per edge, the row of its source
    at += (ranges[:, 0] - length.cumsum() + length).repeat(length)
    bits = n.bit_length()  # key: receiver, then type, then `bits` of src
    key = (np.arange(len(ranges)) >> 1).repeat(length)
    key <<= bits
    key += node_of[at]
    at = None
    key.sort()  # the order pruning and the layers read: receivers ascend as their nodes
    edges = np.empty((len(key), 3), dtype=np.int32)
    edges[:, 0] = key & ((1 << bits) - 1)
    key >>= bits
    edges[:, 1] = key % NUM_EDGE_TYPES
    edges[:, 2] = receivers[key // NUM_EDGE_TYPES]
    edges.flags.writeable = False
    level = levels[edges[:, 2]]
    return (edges,) + tuple(edges[level <= depth - k] for k in range(2, depth + 1))


def _dense_ids(ends: np.ndarray, sample: np.ndarray) -> tuple[np.ndarray, int]:
    """The entity at each end (node i's head end at i, its tail end at n +
    i) renumbered 0 .. m-1 by (sample, entity), so that no two samples
    share one and keys over them stay small, and m."""
    ends = ends + np.concatenate([sample, sample]) * (int(ends.max()) + 1)
    by_id = ends.argsort()
    by_entity = ends[by_id]
    new_id = np.concatenate([[0], by_entity[1:] != by_entity[:-1]]).cumsum()
    ends[by_id] = new_id
    return ends, int(new_id[-1]) + 1


def _end_rows(ends: np.ndarray, num_ids: int, receivers):
    """The ends at the receivers' entities, sorted, and where each
    receiver's typed message sources lie among them: the one edge typing of
    the relation view, which view_layers expands into edges and the scoring
    forward sums over (scoring_incidences).

    ends gives the entity of node i's head end at i and of its tail end at
    n + i (_dense_ids); receivers indexes the receiving nodes.  Every end
    at an entity of a receiver is a row, sorted by (entity, end, entity at
    the triple's other end, node), so that the ends of one kind at one
    entity form a run, and within it the ends sharing the other entity too
    a block.  A receiver's H-T, T-H, H-H and T-T sources are each a run less
    one block, of the twins that give PARA or LOOP in place of those types,
    and its PARA and LOOP sources are a block less the node itself, or the
    whole block of its inverse twins: each the span (start, cut, resume,
    stop) of rows start .. cut-1 and resume .. stop-1.

    Returns per row its run, 2 * entity + (a tail end), its block, and its
    node, and the (Q, 6, 4) spans per receiver and edge type.
    """
    n = len(ends) // 2
    heads, tails = ends[:n], ends[n:]
    heads_r, tails_r = heads[receivers], tails[receivers]
    touched = np.zeros(num_ids, dtype=bool)
    touched[heads_r] = True
    touched[tails_r] = True
    read = touched[ends].nonzero()[0]
    key = np.concatenate([2 * heads * num_ids + tails, (2 * tails + 1) * num_ids + heads])[read]
    by_key = key.argsort(kind="stable")  # twins in node order
    key, read = key[by_key], read[by_key]
    n_rows = len(key)
    run = key // num_ids
    run_at = np.concatenate([[0], np.bincount(run, minlength=2 * num_ids).cumsum()])  # by run id
    new_block = key[1:] != key[:-1]
    unit = np.concatenate([[0], new_block]).cumsum()  # the block of each row
    block_at = np.concatenate([[0], new_block.nonzero()[0] + 1, [n_rows]])
    own = np.empty(2 * n, dtype=np.intp)  # the row of every end read
    own[read] = np.arange(n_rows)
    own = np.concatenate([own[:n][receivers], own[n:][receivers]])  # the receivers' head, tail ends
    q = len(heads_r)
    own = own.reshape(2, q)
    spans = np.empty((NUM_EDGE_TYPES, 4, q), dtype=np.intp)  # per type, (start, cut, resume, stop)
    # H-T, T-H, H-H, T-T: the run of the source end's kind at the node's
    # end, less the block whose other entity is the node's other end: that
    # of its own end for H-H and T-T, of its inverse twins, searched for,
    # for H-T and T-H
    heads2, tails2 = 2 * heads_r, 2 * tails_r
    runs = np.concatenate([tails2, heads2 + 1, heads2, tails2 + 1]).reshape(4, 1, q)
    spans[:4, ::3] = run_at[runs + [[0], [1]]]
    inverse = runs[:2, 0] * num_ids + [heads_r, tails_r]
    spans[:2, 1] = key.searchsorted(inverse)
    spans[:2, 2] = key.searchsorted(inverse, "right")
    spans[2:4, 1:3] = block_at[unit[own][:, None] + [[0], [1]]]
    # PARA: the node's own head-end block, that of H-H, less itself; LOOP:
    # the block of inverse twins, that of H-T, whole, or for a self-loop as
    # PARA
    spans[4] = spans[2, [1, 1, 2, 2]]
    spans[4, 1] = own[0]
    spans[4, 2] = own[0] + 1
    spans[5] = spans[0, [1, 2, 2, 2]]
    self_loop = heads_r == tails_r
    spans[5][:, self_loop] = spans[4][:, self_loop]
    return run, unit, read % n, spans.transpose(2, 0, 1)


@dataclass(frozen=True)
class Incidences:
    """Where the scoring forward reads each receiver's typed message sums.

    The nodes of a scoring batch are ordered by level, so that the nodes
    layer k updates are the first receivers[k-1], the targets first: the
    last layer's receivers.  The target of a sample that is its target
    alone has level K + 1 (rmpnet.stack_samples), so it comes last, past
    every layer's receivers, and has no row, run or span.  The rows and
    spans are _end_rows' for the layer-1 receivers, each typed sum
    a span's rows (numkit.run_sums), except that PARA and LOOP read copies
    of the head rows, which follow the rows, each block of them a run of
    its own, so that their spans too are a run less a cut.  A span that
    takes no row is (0, 0, 0, 0).

    The runs are then reordered, each kept whole and in order, by how many
    layers read them, deepest first: a run is read by the layers that
    update a receiver with a span taking a row of it.  As the receivers of layer k +
    1 are among those of layer k, layer k reads the first layer_rows[k-1]
    rows, and it fills and accumulates the running sums of those alone; a
    run no span takes a row of comes last and no layer sums it.
    """

    receivers: tuple  # per layer 1..K, how many nodes it updates
    layer_rows: tuple  # per layer 1..K, how many rows it sums: the first, whole runs
    rows: np.ndarray  # (R,) node per row
    runs: nk.Runs
    spans: np.ndarray  # (receivers[0], 6, 4) per receiver and edge type
    unit: np.ndarray  # (R,) what a span may cut: the row's block, or in a block run the row


def scoring_incidences(ends: np.ndarray, level: np.ndarray, sample: np.ndarray,
                       depth: int) -> tuple[Incidences, np.ndarray]:
    """The Incidences of a scoring batch whose node i, of level level[i]
    and from sample sample[i], has its head at ends[0, i] and its tail at
    ends[1, i], and the order of its nodes: by level, then as given, each
    sample's nodes in subgraph order.  The receivers of layer k are the
    nodes of level at most depth - k, so a node of level depth + 1, the
    target of a sample that is its target alone, is none of them and
    comes last.

    Small batches are common and numpy's calls cost microseconds each, so
    this uses array methods and np.concatenate over its wrapper functions.
    """
    order = level.argsort(kind="stable")
    level = level[order]
    receivers = tuple(int(level.searchsorted(depth - k, "right")) for k in range(1, depth + 1))
    q = receivers[0]
    ends, num_ids = _dense_ids(ends[:, order].ravel(), sample[order])
    run, unit, rows, spans = _end_rows(ends, num_ids, slice(q))
    n_rows = len(run)
    # PARA and LOOP read copies of the head rows that follow the rows, in
    # order, each block of them a run of its own
    is_head = run % 2 == 0
    head_rows = is_head.nonzero()[0]
    copy = np.concatenate([[0], is_head.cumsum()]) + n_rows  # of the head rows up to each row
    spans[:, 4:] = copy[spans[:, 4:]]
    rows = np.concatenate([rows, rows[head_rows]])
    run_at = np.concatenate([[0], (run[1:] != run[:-1]).nonzero()[0] + 1])
    head_unit = unit[head_rows]
    new_copy_block = (head_unit[1:] != head_unit[:-1]).nonzero()[0] + 1
    starts = np.concatenate([run_at, n_rows + np.concatenate([[0], new_copy_block])])
    n_rows += len(head_rows)
    lengths = np.concatenate([starts[1:], [n_rows]]) - starts
    # order the runs by how many layers read them, deepest first, each
    # run's rows kept in order, so that each layer reads the first rows: a
    # run is read by as many layers as update the deepest receiver with a
    # span taking a row of it, and the nodes are ordered by level
    spans = spans.reshape(-1, 4)
    start, cut, resume, stop = spans.T
    taking = (cut > start) | (resume < stop)
    run_of = np.zeros(n_rows + 1, dtype=np.intp)
    run_of[starts[1:]] = 1
    run_of = run_of.cumsum()[start]  # the run of each span's first row
    reads = np.zeros(len(starts), dtype=level.dtype)
    np.maximum.at(reads, run_of[taking], (depth - level[:q]).repeat(NUM_EDGE_TYPES)[taking])
    layer_rows = np.bincount(reads, lengths, depth + 1)[:0:-1].cumsum()[::-1]
    by_reads = (-reads).argsort(kind="stable")
    lengths = lengths[by_reads]
    placed = lengths.cumsum() - lengths  # each run's first row in that order
    shift = placed - starts[by_reads]
    moved = np.empty_like(shift)  # each run's shift, by run
    moved[by_reads] = shift
    by_row = np.arange(n_rows) - shift.repeat(lengths)  # the rows in that order
    inc = Incidences(
        receivers=receivers,
        layer_rows=tuple(int(m) for m in layer_rows),
        rows=rows[by_row],
        runs=nk.Runs(placed, n_rows),
        spans=np.where(taking[:, None], spans + moved[run_of][:, None], 0).reshape(q, -1, 4),
        unit=np.concatenate([unit, unit[-1] + 1 + np.arange(len(head_rows))])[by_row],
    )
    return inc, order


def prune_to_target(rvg: RelationViewGraph, k: int) -> tuple[np.ndarray, ...]:
    """The edges each layer of a depth-k pass reads, layers 1..k.

    Walking incoming edges back from the target, N^j collects every node
    with a typed edge into some node of N^(j-1), so N^0 ∪ ... ∪ N^j holds
    the nodes that reach the target within j steps.  Layer k' updates the nodes
    of N^0 ∪ ... ∪ N^(k-k'), so it reads exactly the edges into them: an
    (E_k', 3) array, a masked subset of the view's edges and so in the
    view's (dst, type, src) order.  A view without edges shares one empty
    array per layer.
    """
    if k < 1:
        raise SubgraphError(f"depth must be >= 1, got {k}")
    if not (0 <= rvg.target_index < rvg.num_nodes):
        raise SubgraphError(f"invalid target index {rvg.target_index}")
    edges = rvg.edges
    if not len(edges):
        return (NO_EDGES,) * k

    src, dst = edges[:, 0], edges[:, 2]
    receivers = np.zeros((k, rvg.num_nodes), dtype=bool)  # row j: N^0 .. N^j
    receivers[0][rvg.target_index] = True
    for j in range(1, k):
        receivers[j] = receivers[j - 1]
        receivers[j][src[receivers[j - 1][dst]]] = True

    edges = edges[receivers[k - 1][dst]]  # layer 1's; every later layer's are among them
    return (edges,) + tuple(
        edges[receivers[k - layer][edges[:, 2]]] for layer in range(2, k + 1)
    )


def dump_relation_view(rvg: RelationViewGraph, vocab=None) -> str:
    """Text form for eyeballing and diffing: node table, then the edges
    sorted by (src, type, dst)."""
    def ent(e):
        return vocab.entity_names[e] if vocab is not None else str(e)

    def rel(r):
        return vocab.relation_names[r] if vocab is not None else str(r)

    lines = [format_row(("#nodes", rvg.num_nodes, "target", rvg.target_index))]
    for i, t in enumerate(rvg.nodes):
        lines.append(format_row(("#node", i, ent(t.head), rel(t.relation), ent(t.tail))))
    edges = rvg.edges
    for src, et, dst in edges[np.lexsort((edges[:, 2], edges[:, 1], edges[:, 0]))].tolist():
        lines.append(format_row((src, EDGE_TYPE_NAMES[et], dst)))
    return "\n".join(lines) + "\n"
