#!/usr/bin/env python3
"""Print one SHA-256 over the scores of a workload's test targets and negatives.

Builds the graph of one perfbench eval workload with perfbench/gen.py and a
seeded, never-trained checkpoint of the chosen variant and depth, as
scripts/hub_probe.py does.  It then scores every test target and one seeded
negative of each (`trainlab.sample_negative`) on the test graph, as
evaluation scores them, first one triple at a time and then all in one
`trainlab.score_triples` call, which stacks them into batches:

    python3 scripts/score_digest.py --workload classify-hub --hops 3 --variant ne-ta

The digest covers the float64 bytes of both passes' scores, in order.  Two
checkouts that print the same line score alike, bit for bit, alone and in
batches, so a refactor of the scoring forward can be checked against its
parent by running this script in both.  The program is imported from this
checkout's src/.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import numpy as np  # noqa: E402

import gen  # noqa: E402
import spec  # noqa: E402
from rmpi import kgstore, rmpnet, trainlab  # noqa: E402
from rmpi.cli import VARIANTS, _count  # noqa: E402

SEED = 1  # the names and parameters perfbench draws with --seed 1
NEGATIVE_SEED = 0
WORKLOADS = ("classify-hub", "rank-skewed")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--hops", type=_count, required=True)
    parser.add_argument("--variant", choices=sorted(VARIANTS), required=True)
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        gen.generate(tmp, seed=spec.GRAPH_SEED, labels=SEED, **spec.WORKLOADS[args.workload]["gen"])
        bench = kgstore.load_benchmark(tmp)
    use_disclosing, target_attention = VARIANTS[args.variant]
    config = rmpnet.ModelConfig(hops=args.hops, dim=32, use_disclosing=use_disclosing,
                                target_attention=target_attention)
    vocab = bench.vocab
    ckpt = trainlab.Checkpoint(
        config=config,
        params=rmpnet.init_params(config, vocab.num_relations, np.random.default_rng([SEED, 7])),
        vocab_digest=vocab.digest(),
        relation_names=tuple(vocab.relation_names),
        seen_flags=tuple(vocab.relation_seen(r) for r in range(vocab.num_relations)),
    )
    graph = bench.test_graph
    rng = np.random.default_rng(NEGATIVE_SEED)
    triples = []
    for t in bench.test:
        triples += [kgstore.Triple(*t), trainlab.sample_negative(t, graph, rng)]
    cache = trainlab.SampleCache(graph, config)
    lookup = trainlab.relation_lookup(ckpt, graph.vocab)

    def scores(of):
        return trainlab.score_triples(ckpt.params, config, cache, of, lookup, None, spec.EVAL_SEED)

    alone = np.concatenate([scores([t]) for t in triples])
    stacked = scores(triples)
    digest = hashlib.sha256(alone.astype("<f8").tobytes() + stacked.astype("<f8").tobytes())
    print(f"score_digest: {args.workload} {args.variant} K={args.hops}: {len(triples)} triples, "
          f"sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
