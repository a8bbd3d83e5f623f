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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import numkit as nk
from .numkit import Tape, Var
from .subgraph import NUM_EDGE_TYPES, PrunedNeighborhood, RelationViewGraph

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
        return {
            "hops": self.hops,
            "dim": self.dim,
            "leaky_slope": self.leaky_slope,
            "edge_dropout": self.edge_dropout,
            "use_disclosing": self.use_disclosing,
            "target_attention": self.target_attention,
            "fusion": self.fusion,
            "init_mode": self.init_mode,
            "schema_hidden": self.schema_hidden,
            "schema_dim": self.schema_dim,
        }

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

    Features are cached per label, so two nodes sharing a relation get the
    very same tape node and gradients flow into one embedding row.  `lookup`
    maps a label to its embedding-table row, or None for relations that have
    no learned row (unseen at training time); those draw a fresh vector from
    the initializer distribution, seeded per run and per label.
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
        self._cache: dict[int, Var] = {}

    def h0(self, label: int) -> Var:
        got = self._cache.get(label)
        if got is not None:
            return got
        cfg = self.config
        if cfg.init_mode == "schema":
            if self.schema_vectors is None or label not in self.schema_vectors:
                raise ModelError(f"no schema vector for relation id {label}")
            vec = self.tape.const(self.schema_vectors[label])
            out = nk.matvec(self.pvars["schema_w1"], nk.matvec(self.pvars["schema_w2"], vec))
        else:
            row_idx = self.lookup(label)
            if row_idx is not None:
                out = nk.row(self.pvars["rel_emb"], row_idx)
            else:
                out = self.tape.const(fresh_unseen_vector(self.run_seed, label, cfg.dim))
        self._cache[label] = out
        return out


def initial_features(rvg: RelationViewGraph, source: FeatureSource, nodes=None) -> dict[int, Var]:
    """h0 per node index (all nodes by default, or a restriction)."""
    which = range(rvg.num_nodes) if nodes is None else sorted(nodes)
    return {i: source.h0(rvg.labels[i]) for i in which}


def _drop_edges(incoming, config, training, drop_rng):
    if not training or config.edge_dropout <= 0 or not incoming:
        return incoming
    if drop_rng is None:
        raise ModelError("training-mode forward needs a dropout stream")
    return tuple(e for e in incoming if drop_rng.random() >= config.edge_dropout)


def _aggregate(pvars, feats, target_feat, srcs_by_type, layer, config, attention):
    """Sum over edge types of (optionally attention-weighted) transformed messages."""
    parts = []
    for etype in sorted(srcs_by_type):
        srcs = srcs_by_type[etype]
        w = pvars[layer_param(layer, etype)]
        transformed = [nk.matvec(w, feats[s]) for s in srcs]
        if attention:
            logits = nk.stack(
                [nk.leaky_relu(nk.dot(target_feat, feats[s]), config.leaky_slope) for s in srcs]
            )
            parts.append(nk.weighted_sum(nk.softmax(logits), transformed))
        else:
            parts.append(transformed[0] if len(transformed) == 1 else nk.add_n(transformed))
    if not parts:
        return None
    return nk.relu(parts[0] if len(parts) == 1 else nk.add_n(parts))


def _group_incoming(pruned: PrunedNeighborhood, node: int, config, training, drop_rng):
    incoming = _drop_edges(pruned.in_edges.get(node, ()), config, training, drop_rng)
    groups: dict[int, list[int]] = {}
    for src, etype in incoming:
        groups.setdefault(etype, []).append(src)
    return groups


def message_layer(
    rvg: RelationViewGraph,
    pruned: PrunedNeighborhood,
    feats: dict[int, Var],
    layer: int,
    pvars: dict[str, Var],
    config: ModelConfig,
    training: bool = False,
    drop_rng=None,
) -> dict[int, Var]:
    """One intermediate layer: update every node still useful to the target.

    At layer k that is the union N^0..N^(K-k).  Each updated node aggregates
    its (possibly dropped) incoming messages per edge type and adds its own
    previous feature.  Attention weights compare neighbors against the
    target's most recently computed feature.
    """
    K = config.hops
    if not (1 <= layer < K):
        raise ModelError(f"intermediate layer index {layer} out of range for depth {K}")
    target = rvg.target_index
    try:
        target_feat = feats[target]
    except KeyError:
        raise ModelError("target feature missing from schedule") from None
    out: dict[int, Var] = {}
    for node in sorted(pruned.cumulative(K - layer)):
        groups = _group_incoming(pruned, node, config, training, drop_rng)
        try:
            agg = _aggregate(
                pvars, feats, target_feat, groups, layer, config, config.target_attention
            )
            prev = feats[node]
        except KeyError as missing:
            raise ModelError(f"feature for node {missing} missing from schedule") from None
        out[node] = prev if agg is None else nk.add(agg, prev)
    return out


def final_layer(
    rvg: RelationViewGraph,
    pruned: PrunedNeighborhood,
    feats: dict[int, Var],
    pvars: dict[str, Var],
    config: ModelConfig,
    training: bool = False,
    drop_rng=None,
) -> Var:
    """Last layer: equal-weight aggregation into the target node only."""
    target = rvg.target_index
    groups = _group_incoming(pruned, target, config, training, drop_rng)
    try:
        agg = _aggregate(pvars, feats, feats[target], groups, config.hops, config, False)
        prev = feats[target]
    except KeyError as missing:
        raise ModelError(f"feature for node {missing} missing from schedule") from None
    return prev if agg is None else nk.add(agg, prev)


def propagate(
    rvg: RelationViewGraph,
    pruned: PrunedNeighborhood,
    source: FeatureSource,
    pvars: dict[str, Var],
    config: ModelConfig,
    training: bool = False,
    drop_rng=None,
) -> Var:
    """Full depth-K pass over the pruned neighborhood; returns h_target^K."""
    feats = initial_features(rvg, source, pruned.cumulative(config.hops))
    for layer in range(1, config.hops):
        feats = message_layer(rvg, pruned, feats, layer, pvars, config, training, drop_rng)
    return final_layer(rvg, pruned, feats, pvars, config, training, drop_rng)


def disclosing_aggregate(
    neigh: list[tuple[int, int]],
    target_label: int,
    source: FeatureSource,
    pvars: dict[str, Var],
    config: ModelConfig,
) -> Var:
    """Attention-weighted one-hop aggregate over the disclosing neighborhood.

    Works on initial features only.  Empty neighborhood yields a zero
    vector, which keeps the fused score well defined when the target has no
    connected context at all.
    """
    if not neigh:
        return source.tape.const(np.zeros(config.dim))
    w = pvars["disc_w"]
    wt = nk.matvec(w, source.h0(target_label))
    transformed = [nk.matvec(w, source.h0(label)) for _, label in neigh]
    logits = nk.stack(
        [nk.leaky_relu(nk.dot(wt, tv), config.leaky_slope) for tv in transformed]
    )
    return nk.relu(nk.weighted_sum(nk.softmax(logits), transformed))


def score(h_target: Var, h_disc: Var | None, pvars: dict[str, Var], config: ModelConfig) -> Var:
    """Scalar plausibility of the target triple."""
    if config.use_disclosing:
        if h_disc is None:
            raise ModelError("disclosing variant needs the one-hop aggregate")
        if config.fusion == "sum":
            fused = nk.add(h_target, h_disc)
        else:
            fused = nk.matvec(pvars["fusion_w"], nk.concat(h_target, h_disc))
    else:
        if h_disc is not None:
            raise ModelError("base variant must not receive a disclosing aggregate")
        fused = h_target
    return nk.dot(nk.row(pvars["score_w"], 0), fused)


@dataclass(frozen=True)
class SubgraphSample:
    """Model-ready extraction product for one target triple."""

    rvg: RelationViewGraph
    pruned: PrunedNeighborhood
    disclosing: tuple = ()  # ((parent-graph triple index, label), ...) or () when unused
    target_label: int = 0


def score_sample(
    sample: SubgraphSample,
    source: FeatureSource,
    pvars: dict[str, Var],
    config: ModelConfig,
    training: bool = False,
    drop_rng=None,
) -> Var:
    h_target = propagate(
        sample.rvg, sample.pruned, source, pvars, config, training, drop_rng
    )
    h_disc = None
    if config.use_disclosing:
        h_disc = disclosing_aggregate(
            list(sample.disclosing), sample.target_label, source, pvars, config
        )
    return score(h_target, h_disc, pvars, config)
