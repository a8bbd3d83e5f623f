"""Ontological schema ingestion and translational vector pretraining.

A schema file holds (subject, predicate, object) rows, read by `fileio`,
whose predicates are restricted to four vocabularies: rdfs:subPropertyOf,
rdfs:domain, rdfs:range and rdfs:subClassOf.  Nodes are KG relations and
concept types.  Vectors are trained with the classic translational
objective (L1 energy, margin ranking against uniformly corrupted triples)
and only relation-node vectors get exported, as a `fileio` manifest plus
float32 block, for use as initial model features.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fileio import floats, read_block_dir, read_rows, write_block_dir

SCHEMA_PREDICATES = (
    "rdfs:subPropertyOf",
    "rdfs:domain",
    "rdfs:range",
    "rdfs:subClassOf",
)
SUB_PROPERTY_OF, DOMAIN, RANGE, SUB_CLASS_OF = range(4)


class SchemaError(Exception):
    pass


@dataclass(frozen=True)
class SchemaGraph:
    node_names: tuple[str, ...]
    edges: tuple[tuple[int, int, int], ...]  # (subject, predicate, object)

    @property
    def num_nodes(self) -> int:
        return len(self.node_names)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def relation_nodes(self) -> list[int]:
        """Nodes that act as KG relations rather than concept types.

        A node is a relation if it ever appears on either side of
        subPropertyOf or as the subject of a domain/range assertion.
        """
        out = set()
        for s, p, o in self.edges:
            if p == SUB_PROPERTY_OF:
                out.add(s)
                out.add(o)
            elif p in (DOMAIN, RANGE):
                out.add(s)
        return sorted(out)


def load_schema(path: str) -> SchemaGraph:
    pred_ids = {name: i for i, name in enumerate(SCHEMA_PREDICATES)}
    names: list[str] = []
    ids: dict[str, int] = {}

    def node(name: str) -> int:
        got = ids.get(name)
        if got is None:
            got = len(names)
            ids[name] = got
            names.append(name)
        return got

    def check(row) -> str | None:
        if row[1] not in pred_ids:
            return f"predicate {row[1]!r} not in {list(SCHEMA_PREDICATES)}"

    edges = [(node(s), pred_ids[p], node(o)) for s, p, o in read_rows(path, SchemaError, check)]
    return SchemaGraph(node_names=tuple(names), edges=tuple(edges))


@dataclass(frozen=True)
class SchemaEmbedding:
    node_names: tuple[str, ...]
    vectors: np.ndarray  # (num_nodes, dim) float64
    predicates: np.ndarray  # (4, dim)
    loss_history: tuple[float, ...]

    @cached_property
    def _rows(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.node_names)}

    def vector(self, name: str) -> np.ndarray:
        idx = self._rows.get(name)
        if idx is None:
            raise SchemaError(f"no vector for schema node {name!r}")
        return self.vectors[idx]


def pretrain(
    schema: SchemaGraph,
    dim: int = 300,
    epochs: int = 300,
    lr: float = 0.02,
    margin: float = 1.0,
    seed: int = 0,
    batch_size: int = 256,
) -> SchemaEmbedding:
    """Margin-ranking translational embedding of the schema graph.

    Each step corrupts subject or object (fair coin) with a uniform node and
    applies the L1-energy subgradient to violating pairs.  Node vectors are
    renormalized to unit L2 at the end of every epoch.
    """
    if schema.num_edges == 0:
        raise SchemaError("cannot pretrain on an empty schema")
    if not (0 < lr < math.inf and 0 < margin < math.inf):
        raise SchemaError(f"lr and margin must be positive and finite, got {lr} and {margin}")
    rng = np.random.default_rng(seed)
    n = schema.num_nodes
    bound = 6.0 / np.sqrt(dim)
    ent = rng.uniform(-bound, bound, size=(n, dim))
    pred = rng.uniform(-bound, bound, size=(4, dim))
    pred /= np.linalg.norm(pred, axis=1, keepdims=True)

    triples = np.asarray(schema.edges, dtype=np.int64)
    losses = []
    for _ in range(epochs):
        perm = rng.permutation(len(triples))
        epoch_loss = 0.0
        for start in range(0, len(perm), batch_size):
            batch = triples[perm[start : start + batch_size]]
            s, p, o = batch[:, 0], batch[:, 1], batch[:, 2]
            corrupt_subject = rng.random(len(batch)) < 0.5
            repl = rng.integers(n, size=len(batch))
            s_neg = np.where(corrupt_subject, repl, s)
            o_neg = np.where(corrupt_subject, o, repl)

            d_pos = ent[s] + pred[p] - ent[o]
            d_neg = ent[s_neg] + pred[p] - ent[o_neg]
            viol = margin + np.abs(d_pos).sum(1) - np.abs(d_neg).sum(1)
            epoch_loss += float(np.maximum(viol, 0.0).sum())
            active = (viol > 0).astype(np.float64)[:, None]

            g_pos = np.sign(d_pos) * active
            g_neg = -np.sign(d_neg) * active
            np.add.at(ent, s, -lr * g_pos)
            np.add.at(ent, o, lr * g_pos)
            np.add.at(ent, s_neg, -lr * g_neg)
            np.add.at(ent, o_neg, lr * g_neg)
            np.add.at(pred, p, -lr * (g_pos + g_neg))

        norms = np.linalg.norm(ent, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        ent /= norms
        losses.append(epoch_loss / len(triples))

    return SchemaEmbedding(
        node_names=schema.node_names,
        vectors=ent,
        predicates=pred,
        loss_history=tuple(losses),
    )


# ------------------------------------------------------------------ export

BLOCK_NAME = "vectors.bin"


def save_vectors(emb: SchemaEmbedding, out_dir: str, names=None) -> None:
    """Export selected node vectors as a manifest of (name, byte offset)
    entries, in block order, plus their float32 block."""
    if names is None:
        names = list(emb.node_names)
    dim = emb.vectors.shape[1]
    entries = [{"name": name, "offset": i * dim * 4} for i, name in enumerate(names)]
    write_block_dir(
        out_dir, BLOCK_NAME, {"dim": dim, "entries": entries}, [emb.vector(n) for n in names]
    )


def load_vectors(directory: str) -> dict[str, np.ndarray]:
    """Read back an exported vector directory as name -> float64 vector;
    SchemaError when a file is missing or the manifest is malformed."""
    return read_block_dir(directory, BLOCK_NAME, "vector", SchemaError, _vectors)


def _vectors(manifest: dict, block: bytes, block_path: str) -> dict[str, np.ndarray]:
    dim = int(manifest["dim"])
    if dim < 1:
        raise SchemaError(f"vector width must be >= 1, got {dim}")
    need = max((int(e["offset"]) + 4 * dim for e in manifest["entries"]), default=0)
    if need > len(block):
        raise SchemaError(
            f"vector block {block_path} holds {len(block)} bytes; the manifest needs {need}"
        )
    return {e["name"]: floats(block, int(e["offset"]), (dim,)) for e in manifest["entries"]}
