"""Training: negative sampling, subgraph batching, margin ranking, checkpoints.

One training step scores a batch of positives and their sampled negatives in
one forward pass on one tape, applies the margin ranking loss and one Adam
update.  After every epoch the model is scored on the held-out validation
targets (classification AUC-PR against a fixed negative set) and the
best-scoring parameters are kept, with early stopping on patience.
A checkpoint is a `fileio` manifest-plus-block directory: the manifest holds
the model config, relation names and history, the block the parameters.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np

from .fileio import floats, read_block_dir, write_block_dir
from .kgstore import Benchmark, KnowledgeGraph, Triple, Vocabulary
from .numkit import Tape, adam_step
from . import numkit as nk
from .rmpnet import (
    FeatureSource,
    ModelConfig,
    bind_params,
    init_params,
    param_shapes,
    score_sample,
)
from .subgraph import (
    Subgraph,
    extract_enclosing,
    extract_enclosing_list,
    to_relation_view,  # noqa: F401  perfbench's tracer wraps it under this name too
)

CHECKPOINT_PARAMS = "params.bin"
FORMAT_VERSION = 1


class TrainError(Exception):
    pass


@dataclass(frozen=True)
class TrainConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    lr: float = 0.001
    batch_size: int = 16
    margin: float = 10.0
    epochs: int = 10
    seed: int = 0
    patience: int = 10
    num_negatives: int = 1

    def __post_init__(self):
        if not 0 <= self.lr < math.inf:  # 0 freezes the parameters
            raise TrainError(f"learning rate must be finite and >= 0, got {self.lr}")
        if not 0 < self.margin < math.inf:
            raise TrainError(f"margin must be positive and finite, got {self.margin}")
        if self.batch_size < 1:
            raise TrainError(f"batch size must be >= 1, got {self.batch_size}")
        if self.epochs < 0 or self.patience < 1 or self.num_negatives < 1:
            raise TrainError("epochs must be >= 0, patience and negatives >= 1")


# ------------------------------------------------------------------ samples

def build_sample(graph: KnowledgeGraph, triple: Triple, config: ModelConfig) -> Subgraph:
    """The model's sample of a triple: its enclosing subgraph, carrying for
    the ne variants the labels of the triple's disclosing neighbours."""
    return extract_enclosing(graph, triple, config.hops, disclosing=config.use_disclosing)


# Most rows score_triples stacks into one forward, counted by sample_rows.
# On the benchmark's rank queries (ne-ta, K=2, d=32; scripts/hub_probe.py
# --task rank) the largest traced heap peak of one forward was 1.17 MiB
# with this budget, as with 1000 rows or one sample a forward: the peak of
# the largest sample alone; 4000 rows gave 1.90 MiB and an unbounded batch
# 2.80 MiB.  Against 1000 rows it makes 175 forwards of the 140 queries,
# not 239.
SCORE_BATCH_ROWS = 2000

# Most triples score_triples extracts at once: a rank query's 50 together.
SCORE_CHUNK_TRIPLES = 64


def sample_rows(sample: Subgraph, depth: int) -> int:
    """A sample's share of a stacked scoring forward of K = depth layers,
    in rows of its arrays: per node within K steps of its target, its
    feature and the three rows layer 1 sums over (its two ends and its
    head end again); six typed sums per node layer 1 updates; and its
    disclosing neighbours.  Later layers sum and update no more.  A level
    is at most K + 1, so the nodes are the target and the graph triples not
    of level K + 1, and the receivers those of them not of level K.  A
    sample that is its target alone makes no rows and is no receiver
    (rmpnet.stack_samples), so it counts its feature and its disclosing
    neighbours alone."""
    levels = sample.levels.tobytes()  # one byte a level, counted without numpy's call overhead
    nodes = len(levels) + 1 - levels.count(depth + 1)
    if nodes == 1:
        return 1 + len(sample.labels)
    receivers = nodes - levels.count(depth)
    return 4 * nodes + 6 * receivers + len(sample.labels)


class SampleCache:
    """In-memory extraction memo for one graph and one model config.

    It keeps exactly the samples `precompute` builds: a training run's
    positives, scored every epoch, and its fixed validation targets and
    negatives, kept from the first validation on.  Every other triple, such
    as a transient negative or a held-out target, is built on each use, so
    memory stays bounded by the graph and validation sizes.  A training
    negative equal to a graph triple reads that positive's precomputed
    sample.  A sample is a subgraph.Subgraph record, compact arrays only:
    no edges, which grow with the square of entity degree, outlive a
    training step.
    """

    def __init__(self, graph: KnowledgeGraph, config: ModelConfig):
        self.graph = graph
        self.config = config
        self._store: dict[Triple, Subgraph] = {}

    def sample(self, triple: Triple) -> Subgraph:
        got = self._store.get(triple)
        return got if got is not None else build_sample(self.graph, triple, self.config)

    def samples(self, triples: list[Triple]) -> list[Subgraph]:
        """The samples of these triples: those stored, and the rest built at
        once, each once (extract_enclosing_list)."""
        if len(triples) == 1:  # a lone triple skips the list's bookkeeping
            return [self.sample(triples[0])]
        store = self._store
        built = dict.fromkeys(t for t in triples if t not in store)
        if built:
            built.update(zip(built, extract_enclosing_list(
                self.graph, list(built), self.config.hops, disclosing=self.config.use_disclosing)))
        return [built[t] if t in built else store[t] for t in triples]

    def precompute(self, triples):
        """Build and keep the samples of these triples."""
        for t in triples:
            self._store[t] = self.sample(t)


# ------------------------------------------------------------------ sampling

def sample_negative(
    pos: Triple, graph: KnowledgeGraph, rng: np.random.Generator, retries: int = 5
) -> Triple:
    """Corrupt head or tail (fair coin) with a uniform graph entity.

    Up to `retries` resamples avoid candidates already present in the
    graph; the last draw is accepted regardless so sampling terminates on
    dense graphs.  The positive itself is never returned as long as any
    other corruption is constructible.
    """
    entities = graph.entities
    if not entities:
        raise TrainError("cannot sample negatives from an empty graph")
    pos = Triple(*pos)
    avoidable = (
        len(entities) > 1 or entities[0] != pos.head or entities[0] != pos.tail
    )

    def draw() -> Triple:
        repl = entities[int(rng.integers(len(entities)))]
        if rng.random() < 0.5:
            return Triple(repl, pos.relation, pos.tail)
        return Triple(pos.head, pos.relation, repl)

    cand = pos
    for _ in range(retries + 1):
        cand = draw()
        guard = 0
        while avoidable and cand == pos and guard < 1000:
            cand = draw()
            guard += 1
        if not graph.has_triple(cand):
            return cand
    return cand


def margin_loss(pos: nk.Var, neg: nk.Var, margin: float) -> nk.Var:
    """Sum over pairs of max(0, neg - pos + margin), on the scores' tape."""
    if pos.shape != neg.shape:
        raise TrainError(f"score shape mismatch: {pos.shape} vs {neg.shape}")
    hinges = nk.relu(nk.shift(nk.sub(neg, pos), margin))
    return nk.dot(hinges, hinges.tape.const(np.ones(hinges.shape)))


# ------------------------------------------------------------------ checkpoint

@dataclass
class Checkpoint:
    config: ModelConfig
    params: dict[str, np.ndarray]
    vocab_digest: str
    relation_names: tuple[str, ...]
    seen_flags: tuple[bool, ...]
    best_val_auc: float | None = None
    best_epoch: int | None = None
    history: dict = field(default_factory=dict)


def save_checkpoint(ckpt: Checkpoint, directory: str) -> None:
    names = sorted(ckpt.params)
    manifest = {
        "format_version": FORMAT_VERSION,
        "model_config": ckpt.config.to_dict(),
        "vocab_digest": ckpt.vocab_digest,
        "relations": list(ckpt.relation_names),
        "seen": [bool(s) for s in ckpt.seen_flags],
        "best_val_auc": ckpt.best_val_auc,
        "best_epoch": ckpt.best_epoch,
        "history": ckpt.history,
        "params": [
            {"name": n, "shape": list(ckpt.params[n].shape)} for n in names
        ],
    }
    write_block_dir(directory, CHECKPOINT_PARAMS, manifest, [ckpt.params[n] for n in names])


def load_checkpoint(directory: str) -> Checkpoint:
    """Read a checkpoint directory; TrainError when a file is missing or
    its manifest is not the JSON object save_checkpoint writes."""
    return read_block_dir(directory, CHECKPOINT_PARAMS, "checkpoint", TrainError, _checkpoint)


def _checkpoint(manifest: dict, block: bytes, params_path: str) -> Checkpoint:
    if manifest.get("format_version") != FORMAT_VERSION:
        raise TrainError(
            f"unsupported checkpoint format {manifest.get('format_version')!r}"
        )
    config = ModelConfig.from_dict(manifest["model_config"])
    relations, seen = manifest["relations"], manifest["seen"]
    if len(seen) != len(relations):
        raise ValueError(f"{len(seen)} seen flags for {len(relations)} relations")
    layout = [(entry["name"], tuple(entry["shape"])) for entry in manifest["params"]]
    mismatched = set(layout) ^ set(param_shapes(config, len(relations)).items())
    if mismatched:
        raise ValueError(f"parameters do not fit the model config: {sorted(mismatched)}")
    counts = [int(np.prod(shape)) for _, shape in layout]
    if len(block) != 4 * sum(counts):
        raise TrainError(
            f"parameter block {params_path} holds {len(block)} bytes, "
            f"not the {4 * sum(counts)} its manifest lists"
        )
    params = {}
    offset = 0
    for (name, shape), count in zip(layout, counts):
        params[name] = floats(block, offset, shape)
        offset += count * 4
    return Checkpoint(
        config=config,
        params=params,
        vocab_digest=manifest["vocab_digest"],
        relation_names=tuple(relations),
        seen_flags=tuple(bool(s) for s in seen),
        best_val_auc=manifest.get("best_val_auc"),
        best_epoch=manifest.get("best_epoch"),
        history=manifest.get("history", {}),
    )


# ------------------------------------------------------------------ scoring

def relation_lookup(ckpt: Checkpoint, vocab: Vocabulary) -> np.ndarray:
    """The row map FeatureSource reads: per relation id of `vocab`, its
    checkpoint embedding row, an int array of vocab.num_relations entries,
    -1 where the checkpoint has no trained row (the unseen-draw path).

    Relations are matched by name; a relation absent from the checkpoint or
    outside its seen set has no trained row.
    """
    rows = {name: row for row, (name, seen)
            in enumerate(zip(ckpt.relation_names, ckpt.seen_flags)) if seen}
    return np.array([rows.get(name, -1) for name in vocab.relation_names], dtype=np.intp)


def resolve_schema_vectors(
    named_vectors: dict[str, np.ndarray] | None,
    vocab: Vocabulary,
    config: ModelConfig,
) -> np.ndarray | None:
    """The schema vectors a model of `config` reads, one
    (vocab.num_relations, config.schema_dim) array, row r for relation id r.

    None for random init, which reads none, whatever is given.  Schema init
    needs a vector of width config.schema_dim for every relation of the
    vocabulary: TrainError when vectors are not given, miss a relation or
    have another width.
    """
    if config.init_mode != "schema":
        return None
    if named_vectors is None:
        raise TrainError("schema init mode needs pretrained schema vectors")
    out = np.empty((vocab.num_relations, config.schema_dim))
    missing = []
    for rid, name in enumerate(vocab.relation_names):
        vec = named_vectors.get(name)
        if vec is None:
            missing.append(name)
        else:
            vec = np.asarray(vec, dtype=np.float64)
            if vec.shape != (config.schema_dim,):
                raise TrainError(
                    f"schema vector for {name!r} has shape {vec.shape}; the "
                    f"model was configured for width {config.schema_dim}"
                )
            out[rid] = vec
    if missing:
        raise TrainError(
            f"schema vectors missing for {len(missing)} relations, "
            f"first: {missing[:5]}"
        )
    return out


def score_triples(
    params: dict[str, np.ndarray],
    config: ModelConfig,
    cache: SampleCache,
    triples,
    relation_rows: np.ndarray | None = None,
    schema_vectors: np.ndarray | None = None,
    run_seed: int = 0,
) -> np.ndarray:
    """Dropout-off scores for a list of triples, in stacked forwards, their
    relations' features read as FeatureSource reads them.

    Samples are read SCORE_CHUNK_TRIPLES triples at a time
    (SampleCache.samples) and appended to one batch until the next would
    take it past SCORE_BATCH_ROWS rows (sample_rows); the batch is then
    scored by one forward and a new one begun, and a sample over the budget
    is scored alone.  The chunk and the budget bound the arrays held at
    once: when a rank query's fixed entity is a hub, each of its 50 triples
    carries the hub's neighbours.  Every score is bit-identical to the
    triple's forward alone, since no operation of the forward rounds a
    sample's values by its batch-mates (see numkit._product).  The forwards
    share one non-recording tape, which keeps no node, so a batch's arrays
    are freed as soon as its forward returns.  TrainError if the cache
    extracts with other hops or use_disclosing than `config`.
    """
    built, wanted = (f"hops={c.hops}, use_disclosing={c.use_disclosing}" for c in (cache.config, config))
    if built != wanted:
        raise TrainError(f"sample cache extracts with {built}, but the model has {wanted}")
    tape = Tape(record=False)
    pvars = bind_params(tape, params)
    source = FeatureSource(tape, pvars, config, relation_rows, schema_vectors, run_seed)
    triples = [t if type(t) is Triple else Triple(*t) for t in triples]
    scores, batch, rows = [], [], 0
    for start in range(0, len(triples), SCORE_CHUNK_TRIPLES):
        for sample in cache.samples(triples[start:start + SCORE_CHUNK_TRIPLES]):
            size = sample_rows(sample, config.hops)
            if batch and rows + size > SCORE_BATCH_ROWS:
                scores.append(score_sample(batch, source, pvars, config).value)
                batch, rows = [], 0
            batch.append(sample)
            rows += size
    if batch:
        scores.append(score_sample(batch, source, pvars, config).value)
    return np.concatenate(scores) if scores else np.empty(0)


# ------------------------------------------------------------------ training

@nk.one_blas_thread()
def train(
    benchmark: Benchmark,
    config: TrainConfig,
    schema_vectors: dict[str, np.ndarray] | None = None,
    log=None,
) -> Checkpoint:
    """Margin-ranking training with per-epoch validation model selection,
    its BLAS on one thread (numkit.one_blas_thread).  Its SampleCache keeps
    the positives, built before the first step, and the validation targets
    and their fixed negatives, built at the first validation."""
    say = log if log is not None else (lambda msg: None)
    vocab = benchmark.vocab
    graph = benchmark.train
    mc = config.model

    id_vectors = resolve_schema_vectors(schema_vectors, vocab, mc)
    rng_init = np.random.default_rng(config.seed)
    params = init_params(mc, vocab.num_relations, rng_init)
    seen = tuple(vocab.relation_seen(r) for r in range(vocab.num_relations))
    relation_rows = np.array([r if s else -1 for r, s in enumerate(seen)], dtype=np.intp)

    cache = SampleCache(graph, mc)
    positives = list(graph.triples)
    cache.precompute(positives)

    rng_shuffle = np.random.default_rng([config.seed, 101])
    rng_neg = np.random.default_rng([config.seed, 102])
    rng_drop = np.random.default_rng([config.seed, 103])
    rng_valneg = np.random.default_rng([config.seed, 104])

    valid = list(benchmark.valid)
    valid_negatives = [sample_negative(t, graph, rng_valneg) for t in valid]

    def validation_auc() -> float | None:
        if not valid:
            return None
        from .evalbench import auc_pr  # late import, evalbench imports this module

        scored = valid + valid_negatives
        if not val_history:  # the first validation keeps their samples for the later ones
            cache.precompute(scored)
        scores = score_triples(params, mc, cache, scored, relation_rows, id_vectors, config.seed)
        labels = np.array([1] * len(valid) + [0] * len(valid_negatives))
        return auc_pr(scores, labels)

    adam_state = None

    def train_step(batch: list[Triple]) -> float:
        """One update from a batch of positives; returns the batch's loss.

        The step's graph, its gradients and its negatives' samples are held
        by this call's locals alone, so they are freed when it returns,
        before the next step begins.
        """
        nonlocal adam_state
        samples = []  # each positive, then its negatives
        for pos in batch:
            samples.append(cache.sample(pos))
            for _ in range(config.num_negatives):
                neg = sample_negative(pos, graph, rng_neg)
                samples.append(cache.sample(neg))
        tape = Tape()
        pvars = bind_params(tape, params)
        source = FeatureSource(tape, pvars, mc, relation_rows, id_vectors, config.seed)
        scores = score_sample(samples, source, pvars, mc, training=True, drop_rng=rng_drop)
        positions = np.arange(len(samples)).reshape(len(batch), -1)
        loss = margin_loss(
            nk.take(scores, np.repeat(positions[:, 0], config.num_negatives)),
            nk.take(scores, positions[:, 1:].ravel()),
            config.margin,
        )
        grads = tape.backward(loss)
        # clear() breaks the tape's cycle with its nodes; the graph is freed
        # when this call returns and drops scores, loss and the other locals
        tape.clear()
        _, adam_state = adam_step(params, grads, adam_state, lr=config.lr)
        return float(loss.value)

    best_params = copy.deepcopy(params)
    best_auc = -1.0
    best_epoch = None
    train_losses: list[float] = []
    val_history: list[float] = []

    for epoch in range(config.epochs):
        order = rng_shuffle.permutation(len(positives))
        epoch_loss = 0.0
        for start in range(0, len(order), config.batch_size):
            batch = [positives[i] for i in order[start : start + config.batch_size]]
            epoch_loss += train_step(batch)

        train_losses.append(epoch_loss / max(1, len(positives)))
        auc = validation_auc()
        if auc is not None:
            val_history.append(auc)
            if auc > best_auc:
                best_auc = auc
                best_epoch = epoch
                best_params = copy.deepcopy(params)
            say(
                f"epoch {epoch}: train loss {train_losses[-1]:.4f}, "
                f"val auc-pr {auc:.4f} (best {best_auc:.4f} @ {best_epoch})"
            )
            if epoch - best_epoch >= config.patience:
                say(f"early stop at epoch {epoch}")
                break
        else:
            # no validation targets: keep the final parameters
            best_params = copy.deepcopy(params)
            best_epoch = epoch
            say(f"epoch {epoch}: train loss {train_losses[-1]:.4f} (no validation)")

    return Checkpoint(
        config=mc,
        params=best_params,
        vocab_digest=vocab.digest(),
        relation_names=tuple(vocab.relation_names),
        seen_flags=seen,
        best_val_auc=None if best_auc < 0 else best_auc,
        best_epoch=best_epoch,
        history={"train_loss": train_losses, "val_auc": val_history},
    )
