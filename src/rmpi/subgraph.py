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
target, so disclosing_neighbors reads them straight off the graph's
incidence index; extract_disclosing builds the whole union subgraph only for
inspection.

Extraction reads the K-hop maps the graph memoises, so the candidates of a
rank query, which share its fixed entity, walk that entity's neighbourhood
once.  Pruning walks the graph's incidence index inside the intersection,
and a bare target, whose intersection adds no triple beyond those at u and
v, skips it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import numkit as nk
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


# Most join rows a relation-view build may stand for: the sum over entities
# of the squared number of triple ends there, the rows a join of every pair
# of ends at an entity would hold, a little above the edge count.  The build
# counts them from the entity ids before it expands any edge, and expands
# only the edges into its receivers, at about 40 bytes per edge at its peak
# (numpy's traced allocations: 43 MB for a 32-sample training batch of the
# benchmark's hub graph at K=2, 1.1M edges into layer-1 receivers of 2.6M
# join rows), so at most about 0.34 GB at this ceiling.  It bounds a
# training step, which builds the edges of all its samples at once: the
# largest step of an epoch on the hub graph (classify-hub, K=2, batch 16)
# stands for 2.1M join rows.  A build over the ceiling raises SubgraphError,
# which the CLI reports with exit code 2, rather than running the machine
# out of memory.
MAX_JOIN_ROWS = 1 << 23


def to_relation_view(sub: EntitySubgraph) -> RelationViewGraph:
    """Directed typed graph over triple instances.

    An edge n1 -> n2 of some type means n1's feature flows to n2; both
    directions of a pair are classified independently.  A pair sharing
    entities at several positions yields several typed edges, except that a
    PARA match always hides H-H/T-T for that pair and a LOOP match hides
    H-T/T-H, so a message is never double-counted by a generic pattern
    subsumed in a specific one.  The view is one sample of view_layers
    whose every node receives.
    """
    n = len(sub.triples)
    zeros = np.zeros(n, dtype=np.intp)
    (edges,) = view_layers(sub.triples, zeros, zeros, 1, [sub.target])
    return RelationViewGraph(
        nodes=tuple(sub.triples),
        labels=tuple(t.relation for t in sub.triples),
        edges=edges,
        target_index=sub.target_position,
    )


def view_layers(triples, node_sample: np.ndarray, levels: np.ndarray, depth: int,
                targets) -> tuple[np.ndarray, ...]:
    """Per layer k = 1..depth, the relation-view edges into the nodes of
    level at most depth - k, as read-only (E_k, 3) int32 rows (src, type,
    dst) sorted by (dst, type, src): node i is triples[i], from the
    subgraph of targets[node_sample[i]].

    Every edge type matches one end of the source with one end of the
    receiver, so the edges into a receiver are the rows of its spans
    (_end_rows): each span is expanded into its rows' nodes, and the edges
    sorted.  A build over MAX_JOIN_ROWS names the target with the most of
    its join rows.  A batch without edges shares one empty array per layer.
    """
    n = len(triples)
    ends = np.fromiter([t.head for t in triples] + [t.tail for t in triples], np.intp, 2 * n)
    ends, num_ids = _dense_ids(ends, node_sample)
    count = np.bincount(ends)  # per entity, the ends there
    rows = int(count @ count)
    if rows == 2 * n:  # no entity has two ends
        return (NO_EDGES,) * depth
    if rows > MAX_JOIN_ROWS:
        sample = np.empty(num_ids, dtype=np.intp)
        sample[ends] = np.concatenate([node_sample, node_sample])
        worst = np.bincount(sample, weights=count * count).argmax()
        raise SubgraphError(
            f"relation view of target {targets[worst]} needs {rows} join rows, "
            f"over the limit of {MAX_JOIN_ROWS}"
        )
    receivers = (levels < depth).nonzero()[0]
    _, _, node_of, spans = _end_rows(ends, num_ids, receivers)
    ranges = spans.reshape(-1, 2)  # per receiver and type: rows start .. cut-1, resume .. stop-1
    length = ranges[:, 1] - ranges[:, 0]
    if not length.any():
        return (NO_EDGES,) * depth
    at = np.arange(int(length.sum()))  # per edge, the row of its source
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
    layer k updates are the first receivers[k-1], the targets first.  The
    rows and spans are _end_rows' for the layer-1 receivers, each typed sum
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


def scoring_incidences(kept, sizes, depth: int) -> tuple[Incidences, np.ndarray]:
    """The Incidences of a scoring batch whose sample s keeps the triples
    and levels kept[s], and the order of its nodes: by level, then sample,
    then subgraph order.

    Small batches are common and numpy's calls cost microseconds each, so
    this uses array methods and np.concatenate over its wrapper functions.
    """
    level = np.array([lv for _, levels in kept for lv in levels])
    order = level.argsort(kind="stable")
    level = level[order]
    receivers = tuple(int(level.searchsorted(depth - k, "right")) for k in range(1, depth + 1))
    q = receivers[0]
    triples = [t for kept_triples, _ in kept for t in kept_triples]
    ends = np.fromiter([t.head for t in triples] + [t.tail for t in triples], np.intp,
                       2 * len(triples)).reshape(2, -1)[:, order].ravel()
    sample = np.arange(len(sizes)).repeat(sizes)[order]
    ends, num_ids = _dense_ids(ends, sample)
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
