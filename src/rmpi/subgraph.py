"""Target-centred subgraph extraction and the relation-view transformation.

Around a target triple (u, r_t, v) two entity subgraphs are cut out of a
knowledge graph: the *enclosing* subgraph (intersection of the K-hop
neighborhoods of u and v, pruned) and the *disclosing* subgraph (their
union, unpruned).  The enclosing one is turned into a relation-view graph: a
directed graph with one node per triple instance, labelled by its relation,
and six typed edges describing how two triples share entities.  Message
passing only ever needs the part of that graph that can reach the target
node within K steps, which prune_to_target computes as frontier sets and,
per layer, as the int arrays of edges the message-passing engine reads.  The
model reads only the target's one-hop in-neighbors in the disclosing view,
and those are exactly the triples sharing an entity with the target, so
disclosing_neighbors reads them straight off the adjacency indexes;
extract_disclosing builds the whole union subgraph only for inspection
(`rmpi dump-subgraph --kind disclosing`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

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
    edges: tuple[tuple[int, int, int], ...]  # (src, edge_type, dst), sorted
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


def _induced_triples(graph: KnowledgeGraph, entities: set[int], target: Triple):
    """Triples with both endpoints inside `entities`, skipping instances equal
    to the target so that the injected target edge stays unique."""
    picked = []
    for e in entities:
        for rel, tail, idx in graph.out_adj.get(e, ()):
            if tail in entities and graph.triples[idx] != target:
                picked.append(idx)
    picked.sort()
    return picked


def _bfs_in_triples(adj: dict[int, set[int]], start: int, limit: int) -> dict[int, int]:
    dist = {start: 0}
    frontier = [start]
    d = 0
    while frontier and d < limit:
        d += 1
        nxt = []
        for e in frontier:
            for n in adj.get(e, ()):
                if n not in dist:
                    dist[n] = d
                    nxt.append(n)
        frontier = nxt
    return dist


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
    du = khop_neighbors(graph, u, k)
    dv = khop_neighbors(graph, v, k)
    common = set(du) & set(dv)
    common.update((u, v))

    idxs = _induced_triples(graph, common, target)

    # undirected adjacency of the induced subgraph, target edge included
    adj: dict[int, set[int]] = {}
    for i in idxs:
        h, _, t = graph.triples[i]
        adj.setdefault(h, set()).add(t)
        adj.setdefault(t, set()).add(h)
    adj.setdefault(u, set()).add(v)
    adj.setdefault(v, set()).add(u)

    su = _bfs_in_triples(adj, u, k)
    sv = _bfs_in_triples(adj, v, k)
    kept = {e for e in common if e in su and e in sv}
    kept.update((u, v))

    idxs = [i for i in idxs if graph.triples[i][0] in kept and graph.triples[i][2] in kept]
    entities = {u, v}
    for i in idxs:
        h, _, t = graph.triples[i]
        entities.add(h)
        entities.add(t)

    return EntitySubgraph(
        entities=frozenset(entities),
        triples=tuple(graph.triples[i] for i in idxs) + (target,),
        source_indexes=tuple(idxs) + (None,),
        target=target,
        kind="enclosing",
    )


def extract_disclosing(graph: KnowledgeGraph, target: Triple, k: int) -> EntitySubgraph:
    """K-hop disclosing subgraph: union of the two neighborhoods, no pruning."""
    target = Triple(*target)
    if k < 1:
        raise SubgraphError(f"hop count must be >= 1, got {k}")
    u, _, v = target
    entities = set(khop_neighbors(graph, u, k)) | set(khop_neighbors(graph, v, k))
    entities.update((u, v))
    idxs = _induced_triples(graph, entities, target)
    covered = {u, v}
    for i in idxs:
        h, _, t = graph.triples[i]
        covered.add(h)
        covered.add(t)
    return EntitySubgraph(
        entities=frozenset(covered),
        triples=tuple(graph.triples[i] for i in idxs) + (target,),
        source_indexes=tuple(idxs) + (None,),
        target=target,
        kind="disclosing",
    )


def _pair_edge_types(n1: Triple, n2: Triple, suppress_merged: bool) -> list[int]:
    h1, _, t1 = n1
    h2, _, t2 = n2
    types = []
    para = h1 == h2 and t1 == t2
    loop = h1 == t2 and t1 == h2
    if para:
        types.append(PARA)
    if loop:
        types.append(LOOP)
    if not (para and suppress_merged):
        if h1 == h2:
            types.append(H_H)
        if t1 == t2:
            types.append(T_T)
    if not (loop and suppress_merged):
        if h1 == t2:
            types.append(H_T)
        if t1 == h2:
            types.append(T_H)
    return types


def to_relation_view(sub: EntitySubgraph, suppress_merged: bool = True) -> RelationViewGraph:
    """Directed typed graph over triple instances.

    An edge n1 -> n2 of some type means n1's feature flows to n2; both
    directions of a pair are classified independently.  A pair sharing
    entities at several positions yields several typed edges.  With
    suppress_merged (the default) a PARA match hides H-H/T-T for that pair
    and a LOOP match hides H-T/T-H, so a message is never double-counted by
    a generic pattern subsumed in a specific one.
    """
    nodes = sub.triples
    by_entity: dict[int, list[int]] = {}
    for i, (h, _, t) in enumerate(nodes):
        by_entity.setdefault(h, []).append(i)
        if t != h:
            by_entity.setdefault(t, []).append(i)

    pairs: set[tuple[int, int]] = set()
    for members in by_entity.values():
        for i in members:
            for j in members:
                if i != j:
                    pairs.add((i, j))

    edges = []
    for i, j in pairs:
        for et in _pair_edge_types(nodes[i], nodes[j], suppress_merged):
            edges.append((i, et, j))
    edges.sort()

    return RelationViewGraph(
        nodes=tuple(nodes),
        labels=tuple(t.relation for t in nodes),
        edges=tuple(edges),
        target_index=sub.target_position,
    )


def prune_to_target(rvg: RelationViewGraph, k: int) -> PrunedNeighborhood:
    """Frontier sets N^0..N^K walking incoming edges back from the target.

    N^k collects every node with a typed edge into some node of N^(k-1);
    frontiers are not cumulative, so a node (the target included) can appear
    in several of them.  Layer k of a depth-K pass updates N^0..N^(K-k), so
    it consumes exactly the edges into those nodes; layer_edges holds them.
    A view without edges shares one empty array per layer.
    """
    if k < 1:
        raise SubgraphError(f"depth must be >= 1, got {k}")
    if not (0 <= rvg.target_index < rvg.num_nodes):
        raise SubgraphError(f"invalid target index {rvg.target_index}")
    if not rvg.edges:
        return PrunedNeighborhood(
            frontiers=(frozenset([rvg.target_index]),) + (frozenset(),) * k,
            layer_edges=(NO_EDGES,) * k,
        )

    # fromiter: np.array on the tuples would take twice the time and a
    # temporary several times the array's size
    flat = itertools.chain.from_iterable(rvg.edges)
    edges = np.fromiter(flat, dtype=np.int32, count=3 * len(rvg.edges)).reshape(-1, 3)
    src, dst = edges[:, 0], edges[:, 2]
    member = np.zeros((k + 1, rvg.num_nodes), dtype=bool)  # member[j]: N^j
    member[0, rvg.target_index] = True
    for j in range(1, k + 1):
        member[j, src[member[j - 1, dst]]] = True

    receivers = np.logical_or.accumulate(member[:k], axis=0)  # row j: N^0..N^j
    edges = edges[receivers[k - 1, dst]]  # layer 1's; every later layer's are among them
    edges = edges[np.lexsort((edges[:, 0], edges[:, 1], edges[:, 2]))]
    return PrunedNeighborhood(
        frontiers=tuple(frozenset(np.flatnonzero(row).tolist()) for row in member),
        layer_edges=(edges,) + tuple(
            edges[receivers[k - layer, edges[:, 2]]] for layer in range(2, k + 1)
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
    idxs = set()
    for e in {u, v}:
        idxs.update(idx for _, _, idx in graph.out_adj.get(e, ()))
        idxs.update(idx for _, _, idx in graph.in_adj.get(e, ()))
    return tuple(
        (i, graph.triples[i].relation)
        for i in sorted(idxs)
        if graph.triples[i] != target
    )


def dump_relation_view(rvg: RelationViewGraph, vocab=None) -> str:
    """Text form for eyeballing and diffing: node table, then sorted edges."""
    def ent(e):
        return vocab.entity_names[e] if vocab is not None else str(e)

    def rel(r):
        return vocab.relation_names[r] if vocab is not None else str(r)

    lines = [f"#nodes\t{rvg.num_nodes}\ttarget\t{rvg.target_index}"]
    for i, t in enumerate(rvg.nodes):
        lines.append(f"#node\t{i}\t{ent(t.head)}\t{rel(t.relation)}\t{ent(t.tail)}")
    for src, et, dst in rvg.edges:
        lines.append(f"{src}\t{EDGE_TYPE_NAMES[et]}\t{dst}")
    return "\n".join(lines) + "\n"
