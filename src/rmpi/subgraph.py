"""Target-centred subgraph extraction and the relation-view transformation.

Around a target triple (u, r_t, v) two entity subgraphs are cut out of a
knowledge graph: the *enclosing* subgraph (intersection of the K-hop
neighborhoods of u and v, pruned) and the *disclosing* subgraph (their
union, unpruned).  The enclosing one is turned into a relation-view graph: a
directed graph with one node per triple instance, labelled by its relation,
and six typed edges describing how two triples share entities.  Each edge
type matches one end of a triple with one end of another, so view_edges
builds the edges as one join of the triples' ends grouped by entity, into a
read-only (E, 3) int32 array of (src, type, dst) rows sorted by (dst, type,
src).  A pair of parallel or inverse triples gets a PARA or LOOP edge in
place of the generic matches that pattern covers.  Message passing only
needs the part of that graph that reaches the target within K steps: layer
k reads the edges into the triples of level at most K - k, the levels
extract_enclosing measures.  Training, whose per-edge dropout needs the
edges, joins all the triples of a step at once (rmpnet.stack_samples);
scoring passes messages over the triples' shared entities instead, without
the edges, which grow with the square of entity degree.  to_relation_view
and prune_to_target build one subgraph's view and its layers, for `rmpi
dump-subgraph` and as the reference the levels are checked against.  The
model reads only the target's one-hop in-neighbors in the disclosing view,
the triples sharing an entity with the target, so disclosing_neighbors
reads them straight off the graph's incidence index; extract_disclosing
builds the whole union subgraph only for inspection.

Extraction reads the K-hop maps the graph memoises, so the candidates of a
rank query, which share its fixed entity, walk that entity's neighbourhood
once.  Pruning walks the graph's incidence index inside the intersection,
and a bare target, whose intersection adds no triple beyond those at u and
v, skips it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fileio import format_row
from .kgstore import KnowledgeGraph, Triple, khop_neighbors

# Edge types of the relation view.  For an ordered pair n1=(h1,_,t1),
# n2=(h2,_,t2) the basic patterns are single shared-position matches; PARA
# and LOOP are the two-position patterns (parallel and inverse triples).
H_T, T_H, H_H, T_T, PARA, LOOP = range(6)
EDGE_TYPE_NAMES = ("H-T", "T-H", "H-H", "T-T", "PARA", "LOOP")
NUM_EDGE_TYPES = 6


class SubgraphError(Exception):
    pass


@dataclass(frozen=True)
class EntitySubgraph:
    triples: tuple[Triple, ...]  # target instance is always the last element
    source_indexes: tuple  # parent-graph triple index per element, None for the target
    target: Triple
    kind: str  # "enclosing" | "disclosing"
    # enclosing: per element, the least j with it in pruning's N^j, else
    # K + 1 (extract_enclosing); disclosing: ()
    levels: tuple = ()

    @property
    def target_position(self) -> int:
        return len(self.triples) - 1


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
    triples = graph.triples
    picked = []
    for e in entities:
        for other, idx in graph.incident.get(e, ()):
            # a triple is listed under both ends: take it at its smaller one
            if other >= e and other in entities and triples[idx] != target:
                picked.append(idx)
    picked.sort()
    return picked


def _subgraph(graph: KnowledgeGraph, idxs: list[int], target: Triple, kind: str,
              levels: tuple = ()) -> EntitySubgraph:
    """The subgraph of the triples idxs, with the target appended last."""
    return EntitySubgraph(
        triples=tuple(graph.triples[i] for i in idxs) + (target,),
        source_indexes=tuple(idxs) + (None,),
        target=target,
        kind=kind,
        levels=levels,
    )


def _pruning_distances(graph: KnowledgeGraph, u: int, v: int, common,
                       k: int) -> dict[int, int]:
    """The entities pruning keeps, each with its distance from the nearer of
    u and v in the subgraph induced on `common` plus the u–v link: those
    within k of both there.

    One walk of the graph's incidence index inside `common` from both ends
    at once.  With the link, an entity's distances from u and v differ by
    at most one, so it is within k of both when its distance d from the
    nearer is below k, or when d = k and both ends reach it in d steps.
    `ends` marks by bit which ends reach an entity in its d steps.
    """
    ends = {u: 1, v: 2} if u != v else {u: 3}
    dist = dict.fromkeys(ends, 0)
    frontier = list(ends)
    for d in range(1, k + 1):
        nxt = []
        for e in frontier:
            bits = ends[e]
            for n, _ in graph.incident.get(e, ()):
                if n not in dist:
                    if n in common:
                        dist[n] = d
                        ends[n] = bits
                        nxt.append(n)
                elif dist[n] == d:
                    ends[n] |= bits
        frontier = nxt
    return {e: d for e, d in dist.items() if d < k or ends[e] == 3}


def extract_enclosing(graph: KnowledgeGraph, target: Triple, k: int) -> EntitySubgraph:
    """K-hop enclosing subgraph of the target triple.

    Entity set: N_K(u) ∩ N_K(v) in the parent graph, then pruned.  Pruning
    re-measures distances inside the induced subgraph (with the target edge
    present, so u and v are adjacent) and drops every entity that is isolated or
    farther than K from either center there.  The result can degenerate to
    just the target edge.  The K-hop maps come from khop_neighbors, which
    memoises them on the graph, so the candidates of a rank query share
    their fixed entity's map; the distances inside are measured by one walk
    of the graph's own index within the intersection, from u and v at once
    (_pruning_distances).

    The same distances give each triple's level: N^0 is the target, and N^j
    the triples sharing an entity with one in N^(j-1), which are pruning's
    node sets, since two distinct triples share an entity exactly when the
    relation view has an edge between them.  So a triple's level is 1 plus
    the least distance of its ends from u or v: pruning keeps every entity
    on a shortest path of length at most K, so these are the distances
    inside the pruned subgraph too, and at most K, so a level is at most
    K + 1.  Layer k' of a depth-K pass updates the triples of level at most
    K - k', and reads only triples of level at most K - k' + 1.

    A bare target exits early, skipping the walk and the level loop: one
    whose induced triples all join u and v or loop at one of them, as when
    the intersection holds only u and v.  Every other entity of the
    intersection is then isolated in it, so pruning drops it, while u and
    v are each within one step of both, so every triple is kept, at level
    1.  At K=2 this holds for 90% of the benchmark's rank candidates and
    for 45% of its training positives and negatives.
    """
    target = Triple(*target)
    if k < 1:
        raise SubgraphError(f"hop count must be >= 1, got {k}")
    u, _, v = target
    common = khop_neighbors(graph, u, k).keys() & khop_neighbors(graph, v, k).keys()
    common.update((u, v))
    idxs = _induced_triples(graph, common, target)
    triples, ends = graph.triples, (u, v)
    for i in idxs:
        h, _, t = triples[i]
        if h not in ends or t not in ends:
            break
    else:  # bare: no induced triple leaves u and v
        return _subgraph(graph, idxs, target, "enclosing", (1,) * len(idxs) + (0,))

    near = _pruning_distances(graph, u, v, common, k)
    kept, levels = [], []
    for i in idxs:
        h, _, t = triples[i]
        if h in near and t in near:
            kept.append(i)
            levels.append(1 + min(near[h], near[t]))
    levels.append(0)  # the target
    return _subgraph(graph, kept, target, "enclosing", tuple(levels))


def extract_disclosing(graph: KnowledgeGraph, target: Triple, k: int) -> EntitySubgraph:
    """K-hop disclosing subgraph: union of the two neighborhoods, no pruning."""
    target = Triple(*target)
    if k < 1:
        raise SubgraphError(f"hop count must be >= 1, got {k}")
    u, _, v = target
    entities = khop_neighbors(graph, u, k).keys() | khop_neighbors(graph, v, k).keys()
    return _subgraph(graph, _induced_triples(graph, entities, target), target, "disclosing")


# Most rows one join of view_edges may hold: the sum over entities of the
# squared number of triple ends there, a little above the edge count.  The
# join peaks at about 62 bytes per row (3.9M edges took 231 MB over the
# process's base), so about 0.5 GB at this ceiling.  It bounds a training
# step, which joins the triples of all its samples: the largest step of an
# epoch on the benchmark's hub graph (classify-hub, K=2, batch 16) joins
# 2.1M rows.  A larger join raises SubgraphError, which the CLI reports with
# exit code 2, rather than running the machine out of memory.
MAX_JOIN_ROWS = 1 << 23

# Edge type of a join row by 4 * twin + 2 * (src end is a tail) + (dst end
# is a tail), where twin says the pair also matches at its other two ends
# (parallel or inverse triples); -1 drops the row.  A twin pair has all four
# basic rows: its H-H row becomes PARA, its H-T row LOOP, and T-T and T-H go.
_EDGE_TYPE = np.array([H_H, H_T, T_H, T_T, PARA, LOOP, -1, -1])


def to_relation_view(sub: EntitySubgraph) -> RelationViewGraph:
    """Directed typed graph over triple instances.

    An edge n1 -> n2 of some type means n1's feature flows to n2; both
    directions of a pair are classified independently.  A pair sharing
    entities at several positions yields several typed edges, except that a
    PARA match always hides H-H/T-T for that pair and a LOOP match hides
    H-T/T-H, so a message is never double-counted by a generic pattern
    subsumed in a specific one.
    """
    heads, labels, tails = zip(*sub.triples)
    return RelationViewGraph(
        nodes=tuple(sub.triples),
        labels=labels,
        edges=view_edges(np.array(heads), np.array(tails),
                         np.zeros(len(heads), dtype=np.intp), [sub.target]),
        target_index=sub.target_position,
    )


def view_edges(heads: np.ndarray, tails: np.ndarray, node_sample: np.ndarray,
               targets) -> np.ndarray:
    """The relation-view edges of the triples with these heads and tails,
    triple i from the subgraph of targets[node_sample[i]], by one join.

    Every edge type matches one end of the source triple with one end of
    the destination, so the edges are the pairs of ends at one entity: the
    ends are sorted by entity, and each end meets every end of its group.
    A join over MAX_JOIN_ROWS names the target with the most of its rows.
    """
    n = len(heads)
    if n < 2:
        return NO_EDGES
    inc = np.concatenate([heads, tails])  # entity at end k: triple k % n, a tail when k >= n
    mate = np.concatenate([tails, heads])  # entity at the other end of end k's triple
    order = inc.argsort()
    ent = inc[order]
    lo, hi = ent.searchsorted(ent), ent.searchsorted(ent, "right")
    size = hi - lo  # per sorted end, the number of ends at its entity
    stop = size.cumsum()  # the join rows of sorted end p end at stop[p]
    rows = int(stop[-1])  # each end meets its whole group, itself included
    if rows == 2 * n:  # no entity has two ends
        return NO_EDGES
    if rows > MAX_JOIN_ROWS:
        worst = np.bincount(node_sample[order % n], weights=size).argmax()
        raise SubgraphError(
            f"relation view of target {targets[worst]} needs {rows} join rows, "
            f"over the limit of {MAX_JOIN_ROWS}"
        )
    node, tail, mate = order % n, (order >= n).view(np.int8), mate[order]  # per sorted end
    # The rows pair dst end p, repeated size[p] times, with each src end of
    # its group, lo[p] .. hi[p]-1.  Row arrays are updated in place, so that
    # few of them are alive at once.
    s = np.arange(rows)
    s -= (stop - hi).repeat(size)
    dst, src = node.repeat(size), node[s]
    code = (mate.repeat(size) == mate[s]).view(np.int8)  # _EDGE_TYPE's column
    code <<= 1
    code += tail[s]
    code <<= 1
    code += tail.repeat(size)
    s = None
    etype = _EDGE_TYPE[code]
    keep = src != dst
    keep &= etype >= 0
    bits = n.bit_length()  # key: dst, then 3 bits of type (6 types), then `bits` of src
    key = dst
    key <<= 3
    key += etype
    key <<= bits
    key += src
    key = key[keep]
    if not len(key):
        return NO_EDGES
    key.sort()  # the order pruning and the layers read
    edges = np.empty((len(key), 3), dtype=np.int32)
    edges[:, 0] = key & ((1 << bits) - 1)
    key >>= bits
    edges[:, 1] = key & 7
    key >>= 3
    edges[:, 2] = key
    edges.flags.writeable = False
    return edges


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


def disclosing_neighbors(graph: KnowledgeGraph, target: Triple) -> tuple[tuple[int, int], ...]:
    """One-hop neighborhood of the target in its disclosing view, as
    (parent-graph triple index, label) in ascending index order.

    Every triple instance incident to u or v shares an entity with the target
    and so has at least one typed edge into it, for any K >= 1; no other
    triple does.  Each instance is listed once, self-loops and triples
    touching both endpoints included, and instances equal to the target are
    skipped as extract_disclosing skips them.
    """
    target = Triple(*target)
    u, _, v = target
    idxs = {idx for e in (u, v) for _, idx in graph.incident.get(e, ())}
    return tuple(
        (i, graph.triples[i].relation)
        for i in sorted(idxs)
        if graph.triples[i] != target
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
