"""Evaluation: AUC-PR classification, 49-negative entity ranking, recombination.

Two protocols.  Triple classification pairs every test target with one
sampled negative and reports average precision over the pooled scores.
Entity ranking corrupts one side of a query with up to 49 distinct sampled
entities and reports the pessimistic rank of the ground truth, aggregated
into MRR and Hits@n.  `recombine` builds fully-inductive benchmarks by
pairing one version's training graph with another version's testing graph,
filtered at the entity-name level.
"""

from __future__ import annotations

import os
import warnings
from bisect import bisect_left
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .fileio import write_json, write_rows
from .kgstore import (
    Benchmark,
    KnowledgeGraph,
    Triple,
    load_benchmark,
)
from .trainlab import (
    Checkpoint,
    SampleCache,
    relation_lookup,
    resolve_schema_vectors,
    sample_negative,
    score_triples,
)


class EvalError(Exception):
    pass


# ------------------------------------------------------------------ metrics

def auc_pr(scores, labels) -> float:
    """Average precision with a stable descending sort.

    Ties keep input order, so the value is deterministic for any scorer.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise EvalError("scores and labels must be equal-length vectors")
    positives = int(np.sum(labels == 1))
    if positives == 0:
        raise EvalError("AUC-PR undefined without positive labels")
    order = np.argsort(-scores, kind="stable")
    hits = (labels[order] == 1).astype(np.float64)
    precision = np.cumsum(hits) / np.arange(1, len(hits) + 1)
    return float(np.sum(precision[hits == 1]) / positives)


def rank_of(gt_score: float, candidate_scores) -> int:
    """1 + #{better candidates} + #{tied candidates}: ties count against."""
    cand = np.asarray(candidate_scores, dtype=np.float64)
    return int(1 + np.sum(cand > gt_score) + np.sum(cand == gt_score))


# ------------------------------------------------------------------ results

@dataclass(frozen=True)
class ClassificationResult:
    auc_pr: float
    scores: tuple
    labels: tuple

    def __post_init__(self):
        if not 0.0 <= self.auc_pr <= 1.0:
            raise EvalError(f"AUC-PR out of range: {self.auc_pr}")


@dataclass(frozen=True)
class RankingResult:
    ranks: tuple            # one per (query, side) pair, evaluation order
    candidate_counts: tuple
    mrr: float
    hits: dict              # {n: fraction of ranks <= n}

    def __post_init__(self):
        for rank, count in zip(self.ranks, self.candidate_counts):
            if not 1 <= rank <= count + 1:
                raise EvalError(f"rank {rank} outside 1..{count + 1}")
        if self.ranks and not 0.0 < self.mrr <= 1.0:
            raise EvalError(f"MRR out of range: {self.mrr}")
        ordered = sorted(self.hits)
        fracs = [self.hits[n] for n in ordered]
        if any(a > b for a, b in zip(fracs, fracs[1:])):
            raise EvalError("hits@n must be non-decreasing in n")


class RankOutcome(NamedTuple):
    rank: int
    num_candidates: int


# ------------------------------------------------------------------ scoring

def _scoring_context(ckpt: Checkpoint, graph: KnowledgeGraph, schema_vectors, cache):
    """The relation row map, schema vectors and sample cache that score on
    `graph`; EvalError if a given cache extracts from another graph."""
    if cache is None:
        cache = SampleCache(graph, ckpt.config)
    elif cache.graph is not graph:
        raise EvalError("the sample cache was built on another graph than the one scored")
    relation_rows = relation_lookup(ckpt, graph.vocab)
    return relation_rows, resolve_schema_vectors(schema_vectors, graph.vocab, ckpt.config), cache


def classify(
    ckpt: Checkpoint,
    graph: KnowledgeGraph,
    targets,
    seed: int = 0,
    schema_vectors: dict[str, np.ndarray] | None = None,
    cache: SampleCache | None = None,
) -> ClassificationResult:
    """One sampled negative per target, AUC-PR over the pooled scores."""
    targets = [Triple(*t) for t in targets]
    if not targets:
        raise EvalError("classification needs at least one target")
    relation_rows, id_vectors, cache = _scoring_context(ckpt, graph, schema_vectors, cache)
    rng = np.random.default_rng([seed, 201])
    negatives = [sample_negative(t, graph, rng) for t in targets]
    scores = score_triples(ckpt.params, ckpt.config, cache, targets + negatives,
                           relation_rows, id_vectors, seed)
    labels = np.array([1] * len(targets) + [0] * len(negatives))
    return ClassificationResult(
        auc_pr=auc_pr(scores, labels),
        scores=tuple(float(s) for s in scores),
        labels=tuple(int(x) for x in labels),
    )


def _corrupted(query: Triple, side: str, entity: int) -> Triple:
    if side == "head":
        return Triple(entity, query.relation, query.tail)
    return Triple(query.head, query.relation, entity)


def candidate_entities(entities: list[int], truth: int, num_neg: int,
                       rng: np.random.Generator) -> list[int]:
    """Up to num_neg distinct entities of a sorted entity list, never the
    truth: a uniform draw without replacement from the entities other than
    the truth, or all of them, in order, when there are at most num_neg.

    The truth's place in the list is found by bisection, and draw i is the
    i-th entity other than the truth, so no copy of the list without it
    is made.
    """
    pos = bisect_left(entities, truth)
    skip = pos < len(entities) and entities[pos] == truth  # the truth is listed
    size = len(entities) - skip
    if size <= num_neg:
        return entities[:pos] + entities[pos + skip:]
    cut = pos if skip else size  # draws from here on sit one place past the truth
    picked = rng.choice(size, size=num_neg, replace=False).tolist()
    return [entities[i + (i >= cut)] for i in picked]


def rank_entities(
    ckpt: Checkpoint,
    graph: KnowledgeGraph,
    query: Triple,
    side: str,
    num_neg: int = 49,
    seed: int = 0,
    rng: np.random.Generator | None = None,
    schema_vectors: dict[str, np.ndarray] | None = None,
    cache: SampleCache | None = None,
) -> RankOutcome:
    """Rank the ground truth against distinct corrupted candidates.

    Candidates replace the chosen side with uniform entities other than the
    ground truth; when the graph has fewer than `num_neg` other entities
    every one is used and the actual count is reported, and when it has
    none the query cannot be ranked and EvalError is raised.  `seed` fixes the
    run's unseen-relation draws; candidate sampling uses `rng` when given so
    a driver can give every query its own stream.
    """
    if side not in ("head", "tail"):
        raise EvalError(f"side must be 'head' or 'tail', got {side!r}")
    query = Triple(*query)
    relation_rows, id_vectors, cache = _scoring_context(ckpt, graph, schema_vectors, cache)
    if rng is None:
        rng = np.random.default_rng([seed, 301])
    truth = query.head if side == "head" else query.tail
    pool = candidate_entities(graph.entity_list(), truth, num_neg, rng)
    if not pool:
        raise EvalError(
            f"no candidate entities to rank the {side} of query {tuple(query)} "
            "against: the graph has no entity other than the truth"
        )
    candidates = [_corrupted(query, side, e) for e in pool]
    scores = score_triples(
        ckpt.params, ckpt.config, cache, [query] + candidates, relation_rows, id_vectors, seed
    )
    return RankOutcome(rank_of(scores[0], scores[1:]), len(candidates))


SIDE_CODES = {"head": 1, "tail": 2}


def rank_queries(
    ckpt: Checkpoint,
    graph: KnowledgeGraph,
    queries,
    sides=("head", "tail"),
    num_neg: int = 49,
    seed: int = 0,
    hits_at=(1, 5, 10),
    schema_vectors: dict[str, np.ndarray] | None = None,
    cache: SampleCache | None = None,
) -> RankingResult:
    """Rank every (query, side) pair; aggregate MRR and Hits@n."""
    queries = [Triple(*q) for q in queries]
    if not queries:
        raise EvalError("ranking needs at least one query")
    for side in sides:
        if side not in SIDE_CODES:
            raise EvalError(f"unknown side {side!r}")
    cache = cache if cache is not None else SampleCache(graph, ckpt.config)
    ranks = []
    counts = []
    for qi, query in enumerate(queries):
        for side in sides:
            outcome = rank_entities(
                ckpt, graph, query, side, num_neg, seed=seed,
                rng=np.random.default_rng([seed, qi, SIDE_CODES[side]]),
                schema_vectors=schema_vectors, cache=cache,
            )
            ranks.append(outcome.rank)
            counts.append(outcome.num_candidates)
    arr = np.array(ranks, dtype=np.float64)
    return RankingResult(
        ranks=tuple(ranks),
        candidate_counts=tuple(counts),
        mrr=float(np.mean(1.0 / arr)),
        hits={n: float(np.mean(arr <= n)) for n in hits_at},
    )


# ------------------------------------------------------------------ recombination

UNSEEN_FILE = "unseen_relations.txt"


@dataclass(frozen=True)
class RecombinedBench:
    semi: Benchmark
    fully: Benchmark
    unseen_relations: tuple


def _named(bench: Benchmark, triples) -> list[tuple[str, str, str]]:
    vocab = bench.vocab
    return [
        (vocab.entity_names[t.head], vocab.relation_names[t.relation], vocab.entity_names[t.tail])
        for t in triples
    ]


def recombine(train_dir: str, test_dir: str, out_dir: str) -> RecombinedBench:
    """Cross two benchmark versions into semi and fully inductive testbeds.

    The training side (train + valid) is taken from `train_dir`.  The test
    graph and targets of `test_dir` are filtered to drop every triple that
    touches a training-graph entity, matching entities by name.  The
    remainder is the semi testbed; restricting it to relations whose names
    never occur in the training graph gives the fully testbed, whose
    relation names are also written to unseen_relations.txt.
    """
    src = load_benchmark(train_dir)
    other = load_benchmark(test_dir)

    train_entities = {src.vocab.entity_names[e] for e in src.train.entities}
    train_relations = {
        src.vocab.relation_names[r] for r in src.train.relations()
    }

    def keep(row):
        h, _, t = row
        return h not in train_entities and t not in train_entities

    semi_graph = [row for row in _named(other, other.test_graph.triples) if keep(row)]
    semi_targets = [row for row in _named(other, other.test) if keep(row)]

    semi_relations = {r for _, r, _ in semi_graph} | {r for _, r, _ in semi_targets}
    unseen = tuple(sorted(semi_relations - train_relations))
    fully_graph = [row for row in semi_graph if row[1] in unseen]
    fully_targets = [row for row in semi_targets if row[1] in unseen]
    if not fully_graph and not fully_targets:
        warnings.warn(
            "recombination produced an empty fully-inductive testbed", stacklevel=2
        )

    train_rows = _named(src, src.train.triples)
    valid_rows = _named(src, src.valid)
    for setting, graph_rows, target_rows in (
        ("semi", semi_graph, semi_targets),
        ("fully", fully_graph, fully_targets),
    ):
        directory = os.path.join(out_dir, setting)
        os.makedirs(directory, exist_ok=True)
        write_rows(os.path.join(directory, "train.txt"), train_rows)
        write_rows(os.path.join(directory, "valid.txt"), valid_rows)
        write_rows(os.path.join(directory, "test_graph.txt"), graph_rows)
        write_rows(os.path.join(directory, "test.txt"), target_rows)
    write_rows(os.path.join(out_dir, UNSEEN_FILE), ((name,) for name in unseen))

    semi = load_benchmark(os.path.join(out_dir, "semi"))
    fully = load_benchmark(os.path.join(out_dir, "fully"))
    _check_recombined(semi, fully, train_entities, unseen)
    return RecombinedBench(semi=semi, fully=fully, unseen_relations=unseen)


def _check_recombined(semi, fully, train_entities, unseen):
    def test_rows(bench):
        return _named(bench, bench.test_graph.triples + bench.test)

    for bench in (semi, fully):
        test_names = {e for h, _, t in test_rows(bench) for e in (h, t)}
        overlap = test_names & train_entities
        if overlap:
            raise EvalError(
                f"testbed leaks training entities: {sorted(overlap)[:5]}"
            )
    fully_rows = test_rows(fully)
    if not {r for _, r, _ in fully_rows} <= set(unseen):
        raise EvalError("fully-inductive testbed contains seen relations")
    if not set(fully_rows) <= set(test_rows(semi)):
        raise EvalError("fully-inductive triples must be a subset of semi")


# ------------------------------------------------------------------ reports

def write_report(metrics: dict, out_dir: str, stem: str = "metrics") -> tuple[str, str]:
    """Emit metrics as both a TSV table and a JSON document."""
    os.makedirs(out_dir, exist_ok=True)
    tsv_path = os.path.join(out_dir, f"{stem}.tsv")
    json_path = os.path.join(out_dir, f"{stem}.json")
    write_rows(tsv_path, metrics.items())
    write_json(json_path, metrics)
    return tsv_path, json_path
