"""Layered relational message passing over the triples of an enclosing subgraph.

The model scores a target triple from the relation view of its enclosing
subgraph: one node per triple, labelled by its relation, with typed edges
between triples that share an entity.  Initial features come either from a
learned embedding table or from a projection of pretrained schema vectors,
each read through an array indexed by relation id, 0 .. num_relations - 1:
a row map into the table (-1 for a relation unseen in training, which
takes a fresh seeded draw) or one schema vector per relation.  Intermediate
layers aggregate incoming messages per edge type, optionally weighted by
target-aware attention, with a residual combination; the last layer updates
only the target with equal-weight aggregation.  A disclosing variant adds a
one-hop aggregate over the target's neighbors in the unpruned union
subgraph (the triples sharing an entity with it, read from the graph
without building that subgraph's relation view), fused by summation or
concatenation before the linear scorer.

Everything runs as array operations over a batch of samples, each a
subgraph.Subgraph record, stacked into one block-diagonal graph, its nodes'
ends and labels gathered from the graph's arrays by the samples' triple
indices, their distinct labels checked against the vocabulary's relation
ids and resolved once into a feature table, and each layer transforms its
(node, edge type) group sums by the types' weights in one matrix product.
Every edge type matches one end of the source with one end of the
receiver, so a receiver's typed sources are the triples at one of its
entities, less the parallel or inverse twins that give PARA or LOOP in
their place: subgraph._end_rows decides that typing once, as one span per
receiver and type over the triples' ends grouped by entity.  There are two
forwards over those spans, for the same model:

- Training drops every view edge independently, which no sum over shared
  entities can express, so stack_samples expands the spans of a training
  batch's layer-1 receivers into their relation-view edges
  (subgraph.view_layers), cuts each layer's by the levels the extraction
  measured, and the training forward sums the sources of every group along
  them.  Samples keep no edges between steps.
- Without dropout the scoring forward reads every typed sum off running
  sums over the spans (Incidences), in time and memory linear in the
  subgraph's triples; the edges, which grow with the square of entity
  degree, are never built.  Its rows are ordered so that each layer's
  runs, those its receivers read, are the first rows, and each layer sums
  those alone: the last layer only the targets' runs.

`propagate`'s `training` flag picks the forward: every forward inside
`trainlab.score_triples` (classification, ranking and validation) scores.
Only the training forward is differentiated, so the scoring forward sums
on plain arrays and records no backward rule of its own.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import numkit as nk
from .numkit import Tape, Var
from .subgraph import (
    MAX_HOPS,
    NUM_EDGE_TYPES,
    Incidences,
    scoring_incidences,
    view_layers,
)

FUSION_MODES = ("sum", "conc")
INIT_MODES = ("random", "schema")
SCHEMA_DIM = 300


class ModelError(Exception):
    pass


@dataclass(frozen=True)
class ModelConfig:
    hops: int = 2              # K: extraction radius and message-passing depth
    dim: int = 32              # d
    leaky_slope: float = 0.2
    edge_dropout: float = 0.5
    use_disclosing: bool = False   # aggregate the disclosing one-hop neighborhood
    target_attention: bool = False
    fusion: str = "sum"
    init_mode: str = "random"
    schema_hidden: int = 128   # m, width of the projection between schema and model space
    schema_dim: int = SCHEMA_DIM   # width of the pretrained ontology vectors

    def __post_init__(self):
        if not 1 <= self.hops <= MAX_HOPS:
            raise ModelError(f"hops must be in 1..{MAX_HOPS}, got {self.hops}")
        if not (0 <= self.edge_dropout < 1):
            raise ModelError(f"edge dropout must be in [0, 1), got {self.edge_dropout}")
        if self.fusion not in FUSION_MODES:
            raise ModelError(f"fusion must be one of {FUSION_MODES}, got {self.fusion!r}")
        if self.init_mode not in INIT_MODES:
            raise ModelError(f"init mode must be one of {INIT_MODES}, got {self.init_mode!r}")
        if self.dim < 1 or self.schema_hidden < 1 or self.schema_dim < 1:
            raise ModelError("dimensions must be positive")

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "ModelConfig":
        return ModelConfig(**d)


# The paper's variants by name: (use_disclosing, target_attention).
VARIANTS = {
    "base": (False, False),
    "ne": (True, False),
    "ta": (False, True),
    "ne-ta": (True, True),
}


def variant_config(name: str, **fields) -> ModelConfig:
    """The ModelConfig of a named variant, with its other fields given."""
    if name not in VARIANTS:
        raise ModelError(f"variant must be one of {sorted(VARIANTS)}, got {name!r}")
    use_disclosing, target_attention = VARIANTS[name]
    return ModelConfig(use_disclosing=use_disclosing, target_attention=target_attention, **fields)


def _xavier(rng: np.random.Generator, shape) -> np.ndarray:
    limit = math.sqrt(6.0 / (shape[0] + shape[1]))
    return rng.uniform(-limit, limit, size=shape)


def embedding_draw(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    # relation features start small; scale 1/sqrt(d) keeps dot products O(1)
    return rng.normal(0.0, 1.0 / math.sqrt(dim), size=(n, dim))


def fresh_unseen_vector(run_seed: int, label: int, dim: int) -> np.ndarray:
    """Deterministic per-run draw for a relation without a learned row.

    Seeding by (run seed, label) makes the vector a function of the relation
    id alone, so every subgraph sees the same feature for a shared label no
    matter in which order labels are encountered.
    """
    rng = np.random.default_rng([run_seed, label])
    return embedding_draw(rng, 1, dim)[0]


def layer_param(k: int, edge_type: int) -> str:
    return f"layer{k}_type{edge_type}"


def param_shapes(config: ModelConfig, num_relations: int) -> dict[str, tuple[int, int]]:
    """The configured variant's parameter shapes by name, in draw order."""
    d = config.dim
    if config.init_mode == "random":
        shapes = {"rel_emb": (num_relations, d)}
    else:
        shapes = {"schema_w1": (d, config.schema_hidden),
                  "schema_w2": (config.schema_hidden, config.schema_dim)}
    shapes.update({layer_param(k, e): (d, d)
                   for k in range(1, config.hops + 1) for e in range(NUM_EDGE_TYPES)})
    if config.use_disclosing:
        shapes["disc_w"] = (d, d)
        if config.fusion == "conc":
            shapes["fusion_w"] = (d, 2 * d)
    shapes["score_w"] = (1, d)
    return shapes


def init_params(config: ModelConfig, num_relations: int, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Fresh parameter dict for the configured variant."""
    return {name: embedding_draw(rng, *shape) if name == "rel_emb" else _xavier(rng, shape)
            for name, shape in param_shapes(config, num_relations).items()}


def bind_params(tape: Tape, params: dict[str, np.ndarray]) -> dict[str, Var]:
    return tape.bind(params)


class FeatureSource:
    """Resolves relation labels to initial feature vectors on one tape.

    `table(labels)` gives one row per label, a relation id in 0 ..
    num_relations - 1.  In random mode `relation_rows[label]` is the
    label's embedding-table row, or -1 for a relation that has no learned
    row (unseen at training time), which takes a fresh vector from the
    initializer distribution, seeded per run and per label; without a row
    map every label is its own row.  Each unseen label is drawn once per
    source, at the first table that reads it, and a scoring call's forwards
    share one source.  In schema mode the row for a label is the
    projection of `schema_vectors[label]`, a (num_relations, schema_dim)
    array of pretrained vectors.
    """

    def __init__(
        self,
        tape: Tape,
        pvars: dict[str, Var],
        config: ModelConfig,
        relation_rows: np.ndarray | None = None,
        schema_vectors: np.ndarray | None = None,
        run_seed: int = 0,
    ):
        if config.init_mode == "schema" and schema_vectors is None:
            raise ModelError("schema init mode needs a schema vector per relation")
        self.tape = tape
        self.pvars = pvars
        self.config = config
        self.relation_rows = relation_rows
        self.schema_vectors = schema_vectors
        self.run_seed = run_seed
        self._unseen: dict[int, np.ndarray] = {}  # the draws made, by label

    def table(self, labels: np.ndarray) -> Var:
        """(len(labels), d) initial features, row i for labels[i]."""
        if self.config.init_mode == "schema":
            vecs = self.tape.const(self.schema_vectors[labels])
            return _apply(self.pvars["schema_w1"], _apply(self.pvars["schema_w2"], vecs))
        emb = self.pvars["rel_emb"]
        if self.relation_rows is None:
            return nk.take(emb, labels)
        rows = self.relation_rows[labels]
        unseen = rows < 0
        if unseen.any():
            draws = [self._unseen_vector(label) for label in labels[unseen].tolist()]
            rows[unseen] = np.arange(len(emb.value), len(emb.value) + len(draws))
            emb = nk.concat([emb, self.tape.const(np.stack(draws))])
        return nk.take(emb, rows)

    def _unseen_vector(self, label: int) -> np.ndarray:
        vector = self._unseen.get(label)
        if vector is None:
            vector = self._unseen[label] = fresh_unseen_vector(self.run_seed, label,
                                                               self.config.dim)
        return vector


@dataclass(frozen=True)
class SampleBatch:
    """Samples stacked into one block-diagonal graph.

    The node ids of a sample are offset by the node counts of the samples
    before it, so no edge or run joins two samples.  The *_rows arrays
    index `labels`, the batch's distinct relation labels, which are the
    rows of its feature table: relation ids of the graph's vocabulary, 0 ..
    num_relations - 1, as stack_samples checks.  A training batch holds
    every triple of each sample's enclosing subgraph and, per layer, the
    relation-view edges it reads, in (dst, type, src) order, each sample's
    target after its triples.  A scoring batch holds the nodes within K
    steps of each target and their Incidences, None when every sample is
    its target alone, and orders its nodes as scoring_incidences does, by
    level: the targets of samples that hold a triple first, in sample
    order, and the targets of samples that are their target alone last,
    past every layer's receivers.  `targets` gives each sample's target
    node in either layout.
    """

    labels: np.ndarray  # (L,) distinct labels, ascending
    node_rows: np.ndarray  # (N,) label row per node
    node_sample: np.ndarray  # (N,) sample per node
    targets: np.ndarray  # (B,) node id of each sample's target
    depth: int  # K, the depth the samples were stacked for
    layer_edges: tuple | None  # training: per layer 1..K, (E_k, 3) (src, type, dst) over node ids
    incidences: Incidences | None  # scoring
    disc_rows: np.ndarray  # (M,) label row per disclosing neighbor
    disc_sample: np.ndarray  # (M,) sample per disclosing neighbor

    @property
    def size(self) -> int:
        return len(self.targets)

    @property
    def training(self) -> bool:
        return self.layer_edges is not None


def stack_samples(samples, depth: int, training: bool = False) -> SampleBatch:
    """One block-diagonal graph of a sequence of samples of one graph, laid
    out for the training forward or the scoring forward of a depth-`depth`
    model.  Each sample's nodes are its graph triples, then its target; the
    scoring forward keeps those within `depth` steps of the target and
    lays out only the samples that keep a triple: it hands
    scoring_incidences the target of a sample that is its target alone at
    level depth + 1, so that it makes no rows and no layer updates it."""
    samples = list(samples)
    if not samples:
        raise ModelError("cannot score an empty batch")
    graph = samples[0].graph
    if any(s.graph is not graph for s in samples):
        raise ModelError("cannot stack samples of different graphs")
    sizes = np.array([len(s.indexes) + 1 for s in samples])
    is_target = np.zeros(sizes.sum(), dtype=bool)
    is_target[sizes.cumsum() - 1] = True
    nodes = np.empty((4, len(is_target)), dtype=np.intp)  # head, relation, tail, level
    nodes[:, is_target] = np.array([(*s.target, 0) for s in samples]).T
    in_graph = ~is_target
    nodes[:3, in_graph] = graph.arrays[:, np.concatenate([s.indexes for s in samples])]
    nodes[3, in_graph] = np.concatenate([s.levels for s in samples])
    sample_ids = np.arange(len(samples))
    node_sample = sample_ids.repeat(sizes)
    layer_edges = incidences = order = None
    ends = slice(0, 3, 2)  # the head and tail rows
    if training:
        layer_edges = view_layers(nodes[ends].ravel(), node_sample, nodes[3], depth,
                                  [s.target for s in samples])
    else:
        kept = nodes[3] <= depth
        if not kept.all():
            nodes, node_sample, is_target = nodes[:, kept], node_sample[kept], is_target[kept]
    targets = is_target.nonzero()[0]
    if not training and len(targets) < len(is_target):  # some sample has more than its target
        # the target of a sample that is its target alone sorts past every
        # layer's receivers, at level K + 1, so it makes no row.  Such a
        # target follows another target, or is node 0, before which index
        # -1 reads the last node: a target too
        alone = targets[is_target[targets - 1]]
        if len(alone):
            nodes[3, alone] = depth + 1
        incidences, order = scoring_incidences(nodes[ends], nodes[3], node_sample, depth)
    disc_labels = np.concatenate([s.labels for s in samples])
    labels, label_rows = _label_table(np.concatenate([nodes[1], disc_labels]),
                                      graph.vocab.num_relations)
    node_rows, disc_rows = np.split(label_rows, [len(node_sample)])
    if order is not None:
        node_rows, node_sample = node_rows[order], node_sample[order]
        if len(alone):
            position = np.empty_like(order)  # of each node in that order
            position[order] = np.arange(len(order))
            targets = position[targets]
        else:  # the targets are the first nodes, in sample order
            targets = sample_ids
    return SampleBatch(
        labels=labels,
        node_rows=node_rows,
        node_sample=node_sample,
        targets=targets,
        depth=depth,
        layer_edges=layer_edges,
        incidences=incidences,
        disc_rows=disc_rows,
        disc_sample=sample_ids.repeat([len(s.labels) for s in samples]),
    )


def _label_table(labels: np.ndarray, num_relations: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct labels, ascending, and each label's row among them, as
    np.unique(labels, return_inverse=True) gives them, from a count of each
    relation id rather than a sort.  ModelError for a label outside 0 ..
    num_relations - 1, before anything is indexed by it."""
    if labels.min() < 0 or labels.max() >= num_relations:
        bad = labels[(labels < 0) | (labels >= num_relations)][0]
        raise ModelError(f"relation id {bad} is outside the vocabulary's 0 .. {num_relations - 1}")
    count = np.bincount(labels, minlength=num_relations)
    row = (count > 0).cumsum() - 1  # per relation id, its row if present
    return count.nonzero()[0], row[labels]


def _apply(w: Var, x: Var) -> Var:
    """W applied to every row of x."""
    return nk.grouped_apply(x, [w])


def propagate(
    batch: SampleBatch,
    table: Var,
    pvars: dict[str, Var],
    config: ModelConfig,
    training: bool = False,
    drop_rng=None,
) -> Var:
    """h_target^K of every sample, (B, d), after K layers over the batch.

    Layer k < K updates every node that can still reach its target, N^0 ..
    N^(K-k): per edge type it sums the transformed features of its incoming
    neighbors, with target-aware attention weights normalised within each
    (node, type) group when configured, and adds its own previous feature
    to the rectified total.  A node with no incoming message keeps its
    feature.  Layer K updates only the targets, with equal weights.

    The training forward reads each layer's relation-view edges and drops
    every edge of a layer independently with the configured probability,
    one Boolean mask per layer from drop_rng.  The scoring forward, without
    dropout, reads every typed sum from the batch's Incidences; its nodes
    are ordered by level, so each layer, the last too, updates a prefix of
    them, and a sample that is its target alone, whose target comes after
    every layer's receivers, keeps its initial feature, as it would after
    layers that add it nothing.  A batch of such samples alone skips the
    layers.  It records no gradients: backward through its scores raises.
    """
    K = config.hops
    if batch.depth != K:
        raise ModelError(f"samples pruned to depth {batch.depth}, model depth {K}")
    if training != batch.training:
        raise ModelError(f"batch stacked for training={batch.training}, forward {training}")
    dropping = training and config.edge_dropout > 0
    if dropping and drop_rng is None:
        raise ModelError("training-mode forward needs a dropout stream")
    if training:
        layers = batch.layer_edges
        alone = not any(len(edges) for edges in layers)
    else:
        layers = [batch.incidences] * K
        alone = batch.incidences is None
    if alone:  # no target has a message
        return nk.take(table, batch.node_rows[batch.targets])
    h = nk.take(table, batch.node_rows)
    n = len(batch.node_rows)
    for layer, edges in enumerate(layers, start=1):
        last = layer == K  # only the targets (scoring: those of samples holding a triple)
        attend = config.target_attention and not last
        if training:
            if dropping and len(edges):
                edges = edges[drop_rng.random(len(edges)) >= config.edge_dropout]
            if not len(edges):
                continue
            seg = batch.node_sample[edges[:, 2]] if last else edges[:, 2]
            logits = _logits(h, batch, config) if attend else None
            summed = _edge_sums(h, edges, seg, batch.size if last else n, logits)
        else:
            logits = _logits(h, batch, config).value if attend else None
            summed = nk.unrecorded([h], _incidence_sums(h.value, edges, layer, logits))
        typed = [pvars[layer_param(layer, e)] for e in range(NUM_EDGE_TYPES)]
        messages = nk.relu(nk.grouped_apply(summed, typed))
        if last:
            q = len(messages.value)
            if q == batch.size:
                return nk.add(messages, nk.take(h, batch.targets))
            # scoring: the targets of the samples that hold a triple, the
            # first q nodes, take the messages; the others keep their rows
            out = h.value[batch.targets]
            out[batch.targets < q] += messages.value
            return nk.unrecorded([h, messages], out)
        if training:
            h = nk.add(messages, h)
        else:  # the receivers are the first nodes of this forward's own h
            h.value[: len(messages.value)] += messages.value
            h = nk.unrecorded([h, messages], h.value)
    return nk.take(h, batch.targets)


def _logits(h: Var, batch: SampleBatch, config: ModelConfig) -> Var:
    """(N,) target-aware attention logit of every node as a source."""
    anchors = nk.take(h, batch.targets[batch.node_sample])
    return nk.leaky_relu(nk.rowdot(h, anchors), config.leaky_slope)


def _edge_sums(h: Var, edges, seg, n_out: int, logits: Var | None) -> Var:
    """(n_out * 6, d) sums of h over the sources of each (receiver seg[i],
    type) group of view edges, row r * 6 + e for type e into r,
    softmax-weighted within the group by the sources' logits when given."""
    src, etype = edges[:, 0], edges[:, 1]
    groups = seg * NUM_EDGE_TYPES + etype
    n_groups = n_out * NUM_EDGE_TYPES
    weights = None
    if logits is not None:
        weights = nk.segment_softmax(nk.take(logits, src), groups, n_groups)
    return nk.gather_sum(h, src, groups, n_groups, weights)


# Largest gap below a group's softmax shift at which its largest weight
# keeps full precision: terms within 1e-16 of it stay normal numbers (down
# to exp(-708)).
SHIFT_GAP = 600.0


def _incidence_sums(h: np.ndarray, inc: Incidences, layer: int, logits) -> np.ndarray:
    """(q * 6, d) typed message sums into the first q nodes, those the
    layer updates, row r * 6 + e for type e into node r, from running sums
    over the runs the layer reads, softmax-weighted within the group by the
    sources' logits when given.

    A group's softmax is shifted by its run's largest logit.  That is the
    group's own maximum, as segment_softmax shifts by, unless the group
    cuts the run's first maximum, when it is the largest logit outside the
    cut: weights a factor below the group's own, which cancels in the
    ratio, but underflows when the gap passes SHIFT_GAP.  Those groups read
    the rows summed a second time, shifted by their own maximum.
    """
    spans = inc.spans[: inc.receivers[layer - 1]].reshape(-1, 4)
    m = inc.layer_rows[layer - 1]
    rows = inc.rows[:m]
    if logits is None:
        return nk.run_sums(h, inc.runs, spans, rows)
    k = inc.runs.runs_in(m)
    unit, starts = inc.unit[:m], inc.runs.starts[:k]
    run = np.arange(k).repeat(inc.runs.lengths[:k])
    score = logits[rows]
    top = np.maximum.reduceat(score, starts)[run]
    first_top = np.minimum.reduceat(np.where(score == top, np.arange(m), m), starts)
    top_unit = unit[first_top][run]
    second = np.maximum.reduceat(np.where(unit == top_unit, -np.inf, score), starts)[run]
    cut = np.minimum(spans[:, 1], m - 1)  # a row of the unit a group cuts, if any
    far = (spans[:, 1] < spans[:, 2]) & (unit[cut] == top_unit[cut]) & (top[cut] - second[cut] > SHIFT_GAP)
    # weighted rows, with a column of ones for the softmax's denominator:
    # rows of the top unit never count in a group shifted by `second`
    with_one = np.concatenate([h, np.ones((len(h), 1))], axis=1)
    sums = nk.run_sums(with_one, inc.runs, spans, rows, np.exp(score - top))
    if far.any():
        shifted = np.exp(score - np.maximum(second, score))
        sums[far] = nk.run_sums(with_one, inc.runs, spans[far], rows, shifted)
    total = sums[:, -1:]  # an empty group's is 0, and so are its sums
    return np.divide(sums[:, :-1], total, out=np.zeros_like(sums[:, :-1]), where=total != 0)


def disclosing_aggregate(
    batch: SampleBatch,
    table: Var,
    pvars: dict[str, Var],
    config: ModelConfig,
) -> Var:
    """Attention-weighted one-hop aggregate over each sample's disclosing
    neighborhood, (B, d).

    Works on initial features only.  An empty neighborhood yields a zero
    row, which keeps the fused score well defined when the target has no
    connected context at all.
    """
    if not len(batch.disc_rows):
        return table.tape.const(np.zeros((batch.size, config.dim)))
    transformed = _apply(pvars["disc_w"], table)  # W h0 per distinct label
    neigh = nk.take(transformed, batch.disc_rows)
    anchors = nk.take(transformed, batch.node_rows[batch.targets][batch.disc_sample])
    logits = nk.leaky_relu(nk.rowdot(neigh, anchors), config.leaky_slope)
    alpha = nk.segment_softmax(logits, batch.disc_sample, batch.size)
    return nk.relu(
        nk.gather_sum(transformed, batch.disc_rows, batch.disc_sample, batch.size, alpha)
    )


def score(h_target: Var, h_disc: Var | None, pvars: dict[str, Var], config: ModelConfig) -> Var:
    """(B,) plausibility of each target triple from its (B, d) representation."""
    if config.use_disclosing:
        if h_disc is None:
            raise ModelError("disclosing variant needs the one-hop aggregate")
        if config.fusion == "sum":
            fused = nk.add(h_target, h_disc)
        else:
            fused = _apply(pvars["fusion_w"], nk.concat([h_target, h_disc], axis=1))
    else:
        if h_disc is not None:
            raise ModelError("base variant must not receive a disclosing aggregate")
        fused = h_target
    weights = nk.take(pvars["score_w"], np.zeros(fused.value.shape[0], dtype=np.intp))
    return nk.rowdot(fused, weights)


def score_sample(
    samples,
    source: FeatureSource,
    pvars: dict[str, Var],
    config: ModelConfig,
    training: bool = False,
    drop_rng=None,
) -> Var:
    """(B,) scores of a sequence of samples, run as one stacked graph."""
    batch = stack_samples(samples, config.hops, training)
    table = source.table(batch.labels)
    h_target = propagate(batch, table, pvars, config, training, drop_rng)
    h_disc = None
    if config.use_disclosing:
        h_disc = disclosing_aggregate(batch, table, pvars, config)
    return score(h_target, h_disc, pvars, config)
