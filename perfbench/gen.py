"""Seeded skewed-graph generator for the benchmark.

Writes the four-file benchmark layout (train.txt, valid.txt, test_graph.txt,
test.txt) that `rmpi.kgstore.load_benchmark` reads.  Both graphs have the same
size and skew; the test side uses fresh entity names and the same relations,
so evaluation is inductive.  Every endpoint is drawn with probability
proportional to rank^-a over the entity ranks.

Endpoints are drawn by stratified inverse-CDF sampling: draw j of m uses the
uniform (j + U_j) / m, and the draws are then shuffled.  The marginal is the
same rank^-a law, but how often a hub is hit varies far less between seeds,
so timings depend on the skew rather than on how many targets one seed
happened to put on the biggest hub.
"""

from __future__ import annotations

import os

import numpy as np

NUM_RELATIONS = 14
FILES = ("train.txt", "valid.txt", "test_graph.txt", "test.txt")


def _endpoints(rng: np.random.Generator, cdf: np.ndarray, m: int) -> np.ndarray:
    u = (np.arange(m) + rng.random(m)) / m
    ranks = np.minimum(np.searchsorted(cdf, u, side="right"), len(cdf) - 1)
    return rng.permutation(ranks)


def skewed_triples(
    rng: np.random.Generator,
    n_entities: int,
    count: int,
    a: float,
    avoid: frozenset = frozenset(),
) -> list[tuple[int, int, int]]:
    """`count` distinct (head rank, relation, tail rank) triples, no self-loops,
    none in `avoid`.  Relations are balanced over NUM_RELATIONS."""
    weights = np.arange(1, n_entities + 1, dtype=np.float64) ** -a
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    out: list[tuple[int, int, int]] = []
    taken = set(avoid)
    for _ in range(100):
        need = count - len(out)
        if need <= 0:
            return out
        m = need + need // 5 + 16
        heads = _endpoints(rng, cdf, m)
        tails = _endpoints(rng, cdf, m)
        rels = rng.permutation(np.arange(m) % NUM_RELATIONS)
        for h, r, t in zip(heads.tolist(), rels.tolist(), tails.tolist()):
            if h == t or (h, r, t) in taken:
                continue
            taken.add((h, r, t))
            out.append((h, r, t))
            if len(out) == count:
                return out
    raise ValueError(
        f"cannot draw {count} distinct triples over {n_entities} entities at a={a}"
    )


def _write(path: str, prefix: str, triples, names, rel_names) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for h, r, t in triples:
            fh.write(f"{prefix}{names[h]}\tr{rel_names[r]}\t{prefix}{names[t]}\n")


def generate(
    out_dir: str,
    entities: int,
    triples: int,
    a: float,
    seed: int,
    valid: int = 100,
    test: int = 50,
    labels: int | None = None,
) -> None:
    """Write a benchmark directory; the same arguments give byte-identical files.

    Each side is a graph of `triples` triples over `entities` entity ranks plus
    held-out targets drawn from the same law and absent from that graph:
    `valid` targets for the training side, `test` for the test side.  `seed`
    draws this topology, in line order.  `labels` (default:
    `seed`) draws the entity and relation names.  Names do not change the
    ids the loader assigns, which follow line order, so one topology under
    other labels has the same ids, and the same seeded draws of negatives and
    candidates pick the same triples.
    """
    if entities < 2 or triples < 1 or valid < 0 or test < 0 or a < 0:
        raise ValueError("need entities >= 2, triples >= 1, valid/test/a >= 0")
    os.makedirs(out_dir, exist_ok=True)
    for prefix, files, held in (("a", FILES[:2], valid), ("b", FILES[2:], test)):
        rng = np.random.default_rng([seed, ord(prefix)])
        graph = skewed_triples(rng, entities, triples, a)
        targets = skewed_triples(rng, entities, held, a, avoid=frozenset(graph))
        lab = np.random.default_rng([seed if labels is None else labels, ord(prefix), 1])
        names, rel_names = lab.permutation(entities), lab.permutation(NUM_RELATIONS)
        for path, rows in zip(files, (graph, targets)):
            _write(os.path.join(out_dir, path), prefix, rows, names, rel_names)

