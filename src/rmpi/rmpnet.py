"""Layered relational message passing over pruned relation-view graphs.

The model scores a target triple from the relation-view graph of its
enclosing subgraph.  Nodes carry relation labels; initial features come
either from a learned embedding table (fresh seeded draws for relations
unseen in training) or from a projection of pretrained schema vectors.
Intermediate layers aggregate incoming messages per edge type, optionally
weighted by target-aware attention, with a residual combination; the last
layer updates only the target with equal-weight aggregation.  A disclosing
variant adds a one-hop aggregate over the target's neighbors in the unpruned
union subgraph (the triples sharing an entity with it, read from the graph
without building that subgraph's relation view), fused by summation or
concatenation before the linear scorer.

Everything runs as array operations over a batch.  The samples are stacked
into one block-diagonal graph, their distinct labels resolved once into a
feature table.  Each layer then gathers the source features of every
(destination, edge type) group and sums them, softmax-weighted within the
group under attention, and transforms the group sums by their edge types'
weights in one matrix product.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import numkit as nk
from .numkit import Tape, Var
from .subgraph import NO_EDGES, NUM_EDGE_TYPES, RelationViewGraph

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
        if self.hops < 1:
            raise ModelError(f"hops must be >= 1, got {self.hops}")
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


def init_params(config: ModelConfig, num_relations: int, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Fresh parameter dict for the configured variant."""
    params: dict[str, np.ndarray] = {}
    d = config.dim
    if config.init_mode == "random":
        params["rel_emb"] = embedding_draw(rng, num_relations, d)
    else:
        params["schema_w1"] = _xavier(rng, (d, config.schema_hidden))
        params["schema_w2"] = _xavier(rng, (config.schema_hidden, config.schema_dim))
    for k in range(1, config.hops + 1):
        for e in range(NUM_EDGE_TYPES):
            params[layer_param(k, e)] = _xavier(rng, (d, d))
    if config.use_disclosing:
        params["disc_w"] = _xavier(rng, (d, d))
        if config.fusion == "conc":
            params["fusion_w"] = _xavier(rng, (d, 2 * d))
    params["score_w"] = _xavier(rng, (1, d))
    return params


def bind_params(tape: Tape, params: dict[str, np.ndarray]) -> dict[str, Var]:
    return {name: tape.param(name, value) for name, value in params.items()}


class FeatureSource:
    """Resolves relation labels to initial feature vectors on one tape.

    `table(labels)` gives one row per label.  `lookup` maps a label to its
    embedding-table row, or None for relations that have no learned row
    (unseen at training time); those take a fresh vector from the
    initializer distribution, seeded per run and per label.  In schema mode
    every row is the projection of the label's pretrained vector.
    """

    def __init__(
        self,
        tape: Tape,
        pvars: dict[str, Var],
        config: ModelConfig,
        lookup=None,
        schema_vectors: dict[int, np.ndarray] | None = None,
        run_seed: int = 0,
    ):
        self.tape = tape
        self.pvars = pvars
        self.config = config
        self.lookup = lookup if lookup is not None else (lambda label: label)
        self.schema_vectors = schema_vectors
        self.run_seed = run_seed

    def table(self, labels) -> Var:
        """(len(labels), d) initial features, row i for labels[i]."""
        labels = [int(label) for label in labels]
        cfg = self.config
        if cfg.init_mode == "schema":
            for label in labels:
                if self.schema_vectors is None or label not in self.schema_vectors:
                    raise ModelError(f"no schema vector for relation id {label}")
            vecs = self.tape.const(np.stack([self.schema_vectors[label] for label in labels]))
            return _apply(self.pvars["schema_w1"], _apply(self.pvars["schema_w2"], vecs))
        emb = self.pvars["rel_emb"]
        rows = [self.lookup(label) for label in labels]
        unseen = [label for label, row in zip(labels, rows) if row is None]
        if unseen:
            draws = [fresh_unseen_vector(self.run_seed, label, cfg.dim) for label in unseen]
            extra = iter(range(emb.value.shape[0], emb.value.shape[0] + len(unseen)))
            rows = [next(extra) if row is None else row for row in rows]
            emb = nk.concat([emb, self.tape.const(np.stack(draws))])
        return nk.take(emb, rows)


@dataclass(frozen=True)
class SubgraphSample:
    """Model-ready extraction product for one target triple."""

    rvg: RelationViewGraph
    # per layer 1..K, the (E_k, 3) edges it reads (prune_to_target): a
    # function of rvg and the depth, so equality ignores it
    pruned: tuple = field(repr=False, compare=False)
    disclosing: tuple = ()  # ((parent-graph triple index, label), ...) or () when unused
    target_label: int = 0


@dataclass(frozen=True)
class SampleBatch:
    """Samples stacked into one block-diagonal relation-view graph.

    The node ids of a sample are offset by the node counts of the samples
    before it, so no edge joins two samples.  The *_rows arrays index
    `labels`, the batch's distinct relation labels, which are the rows of
    its feature table.
    """

    labels: np.ndarray  # (L,) distinct labels, ascending
    node_rows: np.ndarray  # (N,) label row per node
    node_sample: np.ndarray  # (N,) sample per node
    targets: np.ndarray  # (B,) node id of each sample's target
    layer_edges: tuple  # per layer, (E_k, 3) (src, type, dst) over node ids
    disc_rows: np.ndarray  # (M,) label row per disclosing neighbor
    disc_sample: np.ndarray  # (M,) sample per disclosing neighbor
    target_rows: np.ndarray  # (B,) label row of each sample's target relation

    @property
    def size(self) -> int:
        return len(self.targets)


def stack_samples(samples) -> SampleBatch:
    """One block-diagonal graph of a sequence of samples pruned to one depth."""
    samples = list(samples)
    if not samples:
        raise ModelError("cannot score an empty batch")
    depths = {len(s.pruned) for s in samples}
    if len(depths) != 1:
        raise ModelError(f"samples pruned to different depths: {sorted(depths)}")
    sizes = [s.rvg.num_nodes for s in samples]
    offsets = list(itertools.accumulate(sizes, initial=0))
    node_labels = [label for s in samples for label in s.rvg.labels]
    disc_labels = [label for s in samples for _, label in s.disclosing]
    target_labels = [s.target_label for s in samples]
    labels = sorted(set(node_labels).union(disc_labels, target_labels))
    row = {label: i for i, label in enumerate(labels)}

    def rows(of):
        return np.array([row[label] for label in of], dtype=np.intp)

    sample_ids = np.arange(len(samples))
    return SampleBatch(
        labels=np.array(labels),
        node_rows=rows(node_labels),
        node_sample=np.repeat(sample_ids, sizes),
        targets=np.array([off + s.rvg.target_index for off, s in zip(offsets, samples)]),
        layer_edges=tuple(
            _offset_edges([s.pruned[k] for s in samples], offsets)
            for k in range(depths.pop())
        ),
        disc_rows=rows(disc_labels),
        disc_sample=np.repeat(sample_ids, [len(s.disclosing) for s in samples]),
        target_rows=rows(target_labels),
    )


def _offset_edges(per_sample, offsets) -> np.ndarray:
    shifted = [e + (off, 0, off) if off else e for e, off in zip(per_sample, offsets) if len(e)]
    if len(shifted) == 1:
        return shifted[0]
    return np.concatenate(shifted) if shifted else NO_EDGES


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
    feature.  Layer K updates only the targets, with equal weights.  In
    training, every edge of a layer is dropped independently with the
    configured probability, one Boolean mask per layer from drop_rng.
    """
    K = config.hops
    if len(batch.layer_edges) != K:
        raise ModelError(f"samples pruned to depth {len(batch.layer_edges)}, model depth {K}")
    dropping = training and config.edge_dropout > 0
    if dropping and drop_rng is None:
        raise ModelError("training-mode forward needs a dropout stream")
    if not any(len(edges) for edges in batch.layer_edges):
        return nk.take(table, batch.node_rows[batch.targets])
    h = nk.take(table, batch.node_rows)
    for layer, edges in enumerate(batch.layer_edges, start=1):
        if dropping and len(edges):
            edges = edges[drop_rng.random(len(edges)) >= config.edge_dropout]
        if layer == K:  # only the targets, each its sample's one receiver
            prev = nk.take(h, batch.targets)
            if len(edges):
                seg = batch.node_sample[edges[:, 2]]
                prev = nk.add(_aggregate(h, edges, seg, batch.size, layer, pvars, None), prev)
            return prev
        if not len(edges):
            continue
        scores = None
        if config.target_attention:
            anchors = nk.take(h, batch.targets[batch.node_sample])
            scores = nk.leaky_relu(nk.rowdot(h, anchors), config.leaky_slope)
        n = len(batch.node_rows)
        h = nk.add(_aggregate(h, edges, edges[:, 2], n, layer, pvars, scores), h)
    return h


def _aggregate(h: Var, edges, seg, n_out: int, layer: int, pvars, scores: Var | None) -> Var:
    """(n_out, d) rectified sums over each receiver seg[i] of W_type h_src.

    The sources of each (receiver, type) group are summed first, weighted by
    a softmax of their scores within the group when scores are given; the
    group sums are then transformed by their types' weights in one product.
    """
    src, etype = edges[:, 0], edges[:, 1]
    groups = seg * NUM_EDGE_TYPES + etype
    n_groups = n_out * NUM_EDGE_TYPES
    weights = None
    if scores is not None:
        weights = nk.segment_softmax(nk.take(scores, src), groups, n_groups)
    summed = nk.gather_sum(h, src, groups, n_groups, weights)  # row r * 6 + e: type e into r
    typed = [pvars[layer_param(layer, e)] for e in range(NUM_EDGE_TYPES)]
    return nk.relu(nk.grouped_apply(summed, typed))


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
    anchors = nk.take(transformed, batch.target_rows[batch.disc_sample])
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
    batch = stack_samples(samples)
    table = source.table(batch.labels)
    h_target = propagate(batch, table, pvars, config, training, drop_rng)
    h_disc = None
    if config.use_disclosing:
        h_disc = disclosing_aggregate(batch, table, pvars, config)
    return score(h_target, h_disc, pvars, config)
