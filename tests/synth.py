"""Synthetic graph builders shared across test modules."""

from __future__ import annotations

import numpy as np

from rmpi.kgstore import KnowledgeGraph, Triple, Vocabulary


def make_vocab(n_entities: int, n_relations: int, seen: set[int] | None = None) -> Vocabulary:
    vocab = Vocabulary()
    for i in range(n_entities):
        vocab.entity_id(f"e{i}", create=True)
    for j in range(n_relations):
        vocab.relation_id(f"r{j}", create=True)
        if seen is None or j in seen:
            vocab.mark_seen(j)
    return vocab


def edge_array(*rows) -> np.ndarray:
    """(src, type, dst) rows as a relation view stores its edges: an (E, 3)
    int32 array sorted by (dst, type, src)."""
    rows = sorted(rows, key=lambda e: (e[2], e[1], e[0]))
    return np.array(rows, dtype=np.int32).reshape(-1, 3)


def random_graph(
    rng: np.random.Generator,
    n_entities: int,
    n_relations: int,
    n_triples: int,
    allow_self_loops: bool = True,
) -> KnowledgeGraph:
    vocab = make_vocab(n_entities, n_relations)
    triples = []
    for _ in range(n_triples):
        h = int(rng.integers(n_entities))
        t = int(rng.integers(n_entities))
        if not allow_self_loops:
            while t == h:
                t = int(rng.integers(n_entities))
        r = int(rng.integers(n_relations))
        triples.append(Triple(h, r, t))
    return KnowledgeGraph(vocab, triples)


def toy_benchmark(
    seed: int = 0,
    n_entities: int = 12,
    n_relations: int = 3,
    n_train: int = 40,
    n_valid: int = 8,
):
    """Random in-memory benchmark whose validation targets share the train graph."""
    from rmpi.kgstore import Benchmark

    rng = np.random.default_rng(seed)
    graph = random_graph(rng, n_entities, n_relations, n_train)
    valid = [
        Triple(
            int(rng.integers(n_entities)),
            int(rng.integers(n_relations)),
            int(rng.integers(n_entities)),
        )
        for _ in range(n_valid)
    ]
    return Benchmark(graph.vocab, graph, valid, graph, [])


def chain_benchmark(
    seed: int = 0,
    n_chains: int = 16,
    held_frac: float = 0.5,
    entity_prefix: str = "e",
    relation_names: tuple[str, str, str] = ("r0", "r1", "r2"),
):
    """Disjoint a-r0-b-r1-c chains where r2 links each chain's endpoints.

    Half the r2 facts stay in the graph, the rest become validation and test
    targets.  A positive target sits on a chain whose r0/r1 edges land in its
    subgraph; a corrupted one lands on an unrelated chain and sees nothing.
    That makes the task solvable from subgraph structure alone.
    """
    from rmpi.kgstore import Benchmark

    rng = np.random.default_rng(seed)
    vocab = Vocabulary()
    for i in range(3 * n_chains):
        vocab.entity_id(f"{entity_prefix}{i}", create=True)
    for name in relation_names:
        rid = vocab.relation_id(name, create=True)
        vocab.mark_seen(rid)
    rows, endpoint_facts = [], []
    for c in range(n_chains):
        a, b, cc = 3 * c, 3 * c + 1, 3 * c + 2
        rows.append(Triple(a, 0, b))
        rows.append(Triple(b, 1, cc))
        endpoint_facts.append(Triple(a, 2, cc))
    order = rng.permutation(n_chains)
    n_held = int(round(held_frac * n_chains))
    held = [endpoint_facts[i] for i in order[:n_held]]
    kept = [endpoint_facts[i] for i in order[n_held:]]
    graph = KnowledgeGraph(vocab, rows + kept)
    valid, test = held[: n_held // 2], held[n_held // 2 :]
    return Benchmark(vocab, graph, valid, graph, test)


def write_benchmark_dir(path, train, valid=(), test_graph=(), test=()):
    """Write raw (head, rel, tail) name-triples into the four benchmark files."""
    path.mkdir(parents=True, exist_ok=True)
    for fname, rows in (
        ("train.txt", train),
        ("valid.txt", valid),
        ("test_graph.txt", test_graph),
        ("test.txt", test),
    ):
        with open(path / fname, "w", encoding="utf-8") as fh:
            for h, r, t in rows:
                fh.write(f"{h}\t{r}\t{t}\n")
    return path
