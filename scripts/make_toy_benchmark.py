#!/usr/bin/env python3
"""Generate a small self-contained benchmark directory plus a toy schema.

The task is relation composition on disjoint chains: r0 followed by r1
implies r2 between the chain endpoints.  The training side uses one set
of entities, the inductive test side a fresh set, so evaluation runs on
entities never seen during training.  Half of the r2 facts stay in each
graph as support, the rest become validation or test targets.

A second benchmark copy renames the test-side relations to s0/s1/s2,
names that never occur in training.  The schema declares each s-relation
with the same domain, range and super-property as its r counterpart, so
ontology vectors carry the relation identity that the training labels
cannot.

Output layout:

    OUT/bench/                 train/valid/test_graph/test .txt files
    OUT/bench_unseen/          same, with test-side relations renamed
    OUT/schema.tsv             ontology rows for schema pretraining
"""

import argparse
import os

import numpy as np

from rmpi.cli import _count, _number, _seed
from rmpi.fileio import write_rows

RENAME = {"r0": "s0", "r1": "s1", "r2": "s2"}


def schema_rows():
    rows = []
    for prefix in ("r", "s"):
        rows += [
            (f"{prefix}0", "rdfs:domain", "ClassA"),
            (f"{prefix}0", "rdfs:range", "ClassB"),
            (f"{prefix}1", "rdfs:domain", "ClassB"),
            (f"{prefix}1", "rdfs:range", "ClassC"),
            (f"{prefix}2", "rdfs:domain", "ClassA"),
            (f"{prefix}2", "rdfs:range", "ClassC"),
            (f"{prefix}0", "rdfs:subPropertyOf", "linked"),
            (f"{prefix}1", "rdfs:subPropertyOf", "linked"),
        ]
    rows += [
        ("ClassA", "rdfs:subClassOf", "Thing"),
        ("ClassB", "rdfs:subClassOf", "Thing"),
        ("ClassC", "rdfs:subClassOf", "Thing"),
    ]
    return rows


def chain_rows(prefix, n_chains):
    """Support edges and endpoint facts for n disjoint three-entity chains."""
    support, endpoints = [], []
    for c in range(n_chains):
        a, b, cc = (f"{prefix}{3 * c + i}" for i in range(3))
        support.append((a, "r0", b))
        support.append((b, "r1", cc))
        endpoints.append((a, "r2", cc))
    return support, endpoints


def split_endpoints(endpoints, held_frac, rng):
    """(kept, held): a held_frac share of the endpoint facts, at least one,
    held out as targets."""
    order = rng.permutation(len(endpoints))
    n_held = max(1, int(round(held_frac * len(endpoints))))
    held = [endpoints[i] for i in order[:n_held]]
    kept = [endpoints[i] for i in order[n_held:]]
    return kept, held


def _fraction(text):
    """An argparse type: a number in (0, 1]."""
    value = _number(text)
    if not 0 < value <= 1:
        raise argparse.ArgumentTypeError(f"must be in (0, 1], got {value}")
    return value


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="output directory")
    ap.add_argument("--chains", type=_count, default=24, help="training chains")
    ap.add_argument("--test-chains", type=_count, default=12, help="inductive test chains")
    ap.add_argument("--held-frac", type=_fraction, default=0.5,
                    help="fraction of endpoint facts held out as targets")
    ap.add_argument("--seed", type=_seed, default=0)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)

    support, endpoints = chain_rows("a", args.chains)
    kept, held = split_endpoints(endpoints, args.held_frac, rng)
    train = support + kept
    valid = held

    ind_support, ind_endpoints = chain_rows("b", args.test_chains)
    ind_kept, test = split_endpoints(ind_endpoints, args.held_frac, rng)
    test_graph = ind_support + ind_kept

    renamed = lambda rows: [(h, RENAME[r], t) for h, r, t in rows]
    for name, tg, tt in (
        ("bench", test_graph, test),
        ("bench_unseen", renamed(test_graph), renamed(test)),
    ):
        bench_dir = os.path.join(args.out, name)
        os.makedirs(bench_dir, exist_ok=True)
        write_rows(os.path.join(bench_dir, "train.txt"), train)
        write_rows(os.path.join(bench_dir, "valid.txt"), valid)
        write_rows(os.path.join(bench_dir, "test_graph.txt"), tg)
        write_rows(os.path.join(bench_dir, "test.txt"), tt)
        print(f"wrote {bench_dir}: train {len(train)} valid {len(valid)} "
              f"test_graph {len(tg)} test {len(tt)}")

    schema_path = os.path.join(args.out, "schema.tsv")
    rows = schema_rows()
    write_rows(schema_path, rows)
    print(f"wrote {schema_path}: {len(rows)} rows")


if __name__ == "__main__":
    main()
