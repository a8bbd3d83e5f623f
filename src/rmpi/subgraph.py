"""Target-centred subgraph extraction and the relation-view transformation.

Around a target triple (u, r_t, v) two entity subgraphs are cut out of a
knowledge graph: the *enclosing* subgraph (intersection of the K-hop
neighborhoods of u and v, pruned) and the *disclosing* subgraph (their
union, unpruned).  The enclosing one is turned into a relation-view graph: a
directed graph with one node per triple instance, labelled by its relation,
and six typed edges describing how two triples share entities.  Each edge
type matches one end of a triple with one end of another, so
to_relation_view builds the edges as one join of the triples' ends grouped
by entity, into a read-only (E, 3) int32 array of (src, type, dst) rows
sorted by (dst, type, src).  Message passing only ever needs the part of
that graph that can reach the target node within K steps, which
prune_to_target computes as frontier sets and, per layer, as the masked
subsets of that array the message-passing engine reads.  The
model reads only the target's one-hop in-neighbors in the disclosing view,
and those are exactly the triples sharing an entity with the target, so
disclosing_neighbors reads them straight off the graph's incidence index;
extract_disclosing builds the whole union subgraph only for inspection
(`rmpi dump-subgraph --kind disclosing`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .kgstore import KnowledgeGraph, Triple, bfs, khop_neighbors, link

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
    entities: frozenset[int]
    triples: tuple[Triple, ...]  # target instance is always the last element
    source_indexes: tuple  # parent-graph triple index per element, None for the target
    target: Triple
    kind: str  # "enclosing" | "disclosing"

    @property
    def target_position(self) -> int:
        return len(self.triples) - 1


@dataclass(frozen=True)
class RelationViewGraph:
    nodes: tuple[Triple, ...]
    labels: tuple[int, ...]  # relation id per node
    # (E, 3) int32 rows (src, edge_type, dst), sorted by (dst, type, src),
    # the order pruning and the layers read them; read-only.  Equality
    # compares the nodes, labels and target only, as for layer_edges below.
    edges: np.ndarray = field(repr=False, compare=False)
    target_index: int

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)


@dataclass(frozen=True)
class PrunedNeighborhood:
    frontiers: tuple[frozenset[int], ...]  # N^0 .. N^K
    # Per layer k = 1..K, the edges that layer consumes, those with dst in
    # N^0..N^(K-k): an (E_k, 3) int array of (src, type, dst) rows sorted by
    # (dst, type, src), the order a layer sums its messages in.  A function of
    # the relation view and the frontiers, so equality ignores it.
    layer_edges: tuple[np.ndarray, ...] = field(repr=False, compare=False)

    def cumulative(self, j: int) -> set[int]:
        """N^0 ∪ ... ∪ N^j."""
        out: set[int] = set()
        for f in self.frontiers[: j + 1]:
            out.update(f)
        return out


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


def _subgraph(graph: KnowledgeGraph, idxs: list[int], target: Triple, kind: str) -> EntitySubgraph:
    """The subgraph of the triples idxs, with the target appended last."""
    triples = [graph.triples[i] for i in idxs]
    entities = {target.head, target.tail}
    for h, _, t in triples:
        entities.add(h)
        entities.add(t)
    return EntitySubgraph(
        entities=frozenset(entities),
        triples=tuple(triples) + (target,),
        source_indexes=tuple(idxs) + (None,),
        target=target,
        kind=kind,
    )


def extract_enclosing(graph: KnowledgeGraph, target: Triple, k: int) -> EntitySubgraph:
    """K-hop enclosing subgraph of the target triple.

    Entity set: N_K(u) ∩ N_K(v) in the parent graph, then pruned.  Pruning
    re-measures distances inside the induced subgraph (with the target edge
    present, so u and v are adjacent) and drops every entity that is isolated or
    farther than K from either center there.  The result can degenerate to
    just the target edge.
    """
    target = Triple(*target)
    if k < 1:
        raise SubgraphError(f"hop count must be >= 1, got {k}")
    u, _, v = target
    common = khop_neighbors(graph, u, k).keys() & khop_neighbors(graph, v, k).keys()
    common.update((u, v))
    idxs = _induced_triples(graph, common, target)

    inner: dict[int, list] = {}  # incidence index of the induced subgraph
    link(inner, u, v, None)
    for i in idxs:
        h, _, t = graph.triples[i]
        link(inner, h, t, i)
    kept = bfs(inner, u, k).keys() & bfs(inner, v, k).keys()
    idxs = [i for i in idxs if graph.triples[i].head in kept and graph.triples[i].tail in kept]
    return _subgraph(graph, idxs, target, "enclosing")


def extract_disclosing(graph: KnowledgeGraph, target: Triple, k: int) -> EntitySubgraph:
    """K-hop disclosing subgraph: union of the two neighborhoods, no pruning."""
    target = Triple(*target)
    if k < 1:
        raise SubgraphError(f"hop count must be >= 1, got {k}")
    u, _, v = target
    entities = khop_neighbors(graph, u, k).keys() | khop_neighbors(graph, v, k).keys()
    return _subgraph(graph, _induced_triples(graph, entities, target), target, "disclosing")


# Most rows the join in to_relation_view may hold: the sum over entities of
# the squared number of triple ends there, a little above the view's edge
# count.  Building a view peaks at about 62 bytes per row (3.9M edges took
# 231 MB over the process's base, and scoring that view with the base model,
# d=32, K=2, stayed under that peak), so a view at this ceiling needs about
# 0.5 GB.  The largest benchmark view has about 250k edges, 1/33 of it.  A
# larger view raises SubgraphError, which the CLI reports with exit code 2,
# rather than running the machine out of memory.
MAX_JOIN_ROWS = 1 << 23

# Edge type of a join row by 4 * twin + 2 * (src end is a tail) + (dst end
# is a tail), where twin says the pair also matches at its other two ends
# (parallel or inverse triples); row [suppress_merged], -1 drops the row.
# A twin pair has all four basic rows; with suppression its H-H row becomes
# PARA, its H-T row LOOP, and T-T and T-H go.
_EDGE_TYPE = np.array([
    [H_H, H_T, T_H, T_T, H_H, H_T, T_H, T_T],
    [H_H, H_T, T_H, T_T, PARA, LOOP, -1, -1],
])


def to_relation_view(sub: EntitySubgraph, suppress_merged: bool = True) -> RelationViewGraph:
    """Directed typed graph over triple instances.

    An edge n1 -> n2 of some type means n1's feature flows to n2; both
    directions of a pair are classified independently.  A pair sharing
    entities at several positions yields several typed edges.  With
    suppress_merged (the default) a PARA match hides H-H/T-T for that pair
    and a LOOP match hides H-T/T-H, so a message is never double-counted by
    a generic pattern subsumed in a specific one.
    """
    heads, labels, tails = zip(*sub.triples)
    return RelationViewGraph(
        nodes=tuple(sub.triples),
        labels=labels,
        edges=_view_edges(heads, tails, sub.target, suppress_merged),
        target_index=sub.target_position,
    )


def _view_edges(heads: tuple, tails: tuple, target: Triple, suppress_merged: bool) -> np.ndarray:
    """The edges of to_relation_view, by one join of the triples' ends.

    Every edge type matches one end of the source triple with one end of
    the destination, so the edges are the pairs of ends at one entity: the
    ends are sorted by entity, and each end meets every end of its group.
    """
    n = len(heads)
    if n < 2:
        return NO_EDGES
    inc = np.array(heads + tails)  # entity at end k: triple k % n, a tail when k >= n
    mate = np.array(tails + heads)  # entity at the other end of end k's triple
    order = inc.argsort()
    ent = inc[order]
    lo, hi = ent.searchsorted(ent), ent.searchsorted(ent, "right")
    size = hi - lo  # per sorted end, the number of ends at its entity
    stop = size.cumsum()  # the join rows of sorted end p end at stop[p]
    rows = int(stop[-1])  # each end meets its whole group, itself included
    if rows == 2 * n:  # no entity has two ends
        return NO_EDGES
    if rows > MAX_JOIN_ROWS:
        raise SubgraphError(
            f"relation view of target {target} needs {rows} join rows, "
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
    etype = _EDGE_TYPE[int(suppress_merged)][code]
    keep = src != dst
    keep &= etype >= 0
    bits = n.bit_length()  # key: dst, then 3 bits of type (6 types), then `bits` of src
    key = dst
    key <<= 3
    key += etype
    key <<= bits
    key += src
    if suppress_merged:
        key = key[keep]
    else:  # a twin pair's H-H and H-T rows also give its PARA and LOOP edges
        extra = keep & (code >> 1 == 2)
        merged = _EDGE_TYPE[1][code[extra]] - etype[extra]
        key = np.concatenate((key[keep], key[extra] + (merged << bits)))
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


def prune_to_target(rvg: RelationViewGraph, k: int) -> PrunedNeighborhood:
    """Frontier sets N^0..N^K walking incoming edges back from the target.

    N^k collects every node with a typed edge into some node of N^(k-1);
    frontiers are not cumulative, so a node (the target included) can appear
    in several of them.  Layer k of a depth-K pass updates N^0..N^(K-k), so
    it consumes exactly the edges into those nodes; layer_edges holds them,
    masked subsets of the view's edges and so in the view's (dst, type, src)
    order.  A view without edges shares one empty array per layer.
    """
    if k < 1:
        raise SubgraphError(f"depth must be >= 1, got {k}")
    if not (0 <= rvg.target_index < rvg.num_nodes):
        raise SubgraphError(f"invalid target index {rvg.target_index}")
    edges = rvg.edges
    if not len(edges):
        return PrunedNeighborhood(
            frontiers=(frozenset([rvg.target_index]),) + (frozenset(),) * k,
            layer_edges=(NO_EDGES,) * k,
        )

    src, dst = edges[:, 0], edges[:, 2]
    member = np.zeros((k + 1, rvg.num_nodes), dtype=bool)  # member[j]: N^j
    member[0][rvg.target_index] = True
    for j in range(1, k + 1):
        member[j][src[member[j - 1][dst]]] = True

    receivers = np.logical_or.accumulate(member[:k], axis=0)  # row j: N^0..N^j
    edges = edges[receivers[k - 1][dst]]  # layer 1's; every later layer's are among them
    return PrunedNeighborhood(
        frontiers=tuple(frozenset(row.nonzero()[0].tolist()) for row in member),
        layer_edges=(edges,) + tuple(
            edges[receivers[k - layer][edges[:, 2]]] for layer in range(2, k + 1)
        ),
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

    lines = [f"#nodes\t{rvg.num_nodes}\ttarget\t{rvg.target_index}"]
    for i, t in enumerate(rvg.nodes):
        lines.append(f"#node\t{i}\t{ent(t.head)}\t{rel(t.relation)}\t{ent(t.tail)}")
    edges = rvg.edges
    for src, et, dst in edges[np.lexsort((edges[:, 2], edges[:, 1], edges[:, 0]))].tolist():
        lines.append(f"{src}\t{EDGE_TYPE_NAMES[et]}\t{dst}")
    return "\n".join(lines) + "\n"
