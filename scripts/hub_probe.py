#!/usr/bin/env python3
"""Score the classify-hub graph at a chosen depth: CPU triples/s and peak RSS.

Builds the graph of perfbench's classify-hub workload with perfbench/gen.py,
a seeded, never-trained checkpoint of the chosen variant and depth, and
scores the first N test targets and one sampled negative each, as
`rmpi eval --task classify` does:

    python3 scripts/hub_probe.py --hops 3 --variant ne-ta [--targets 100]

A second line gives the incidence rows each layer summed, and all the rows
of the scored batches' Incidences, totalled over the batches of a second,
untimed pass.  The program is imported from this checkout's src/.
"""

from __future__ import annotations

import argparse
import os
import resource
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import numpy as np  # noqa: E402

import gen  # noqa: E402
import spec  # noqa: E402
from rmpi import evalbench, kgstore, rmpnet, trainlab  # noqa: E402
from rmpi.cli import VARIANTS, _count  # noqa: E402

SEED = 1  # the names and parameters perfbench draws with --seed 1


def summed_rows(ckpt, graph, targets) -> list[int]:
    """The incidence rows each layer sums, then all the rows, totalled over
    the batches of a second classification pass: counted outside the timed
    pass, whose peak RSS the counting would move."""
    summed = [0] * (ckpt.config.hops + 1)
    incidences = rmpnet.scoring_incidences

    def counted(*batch):
        inc, order = incidences(*batch)
        for k, rows in enumerate(inc.layer_rows + (len(inc.rows),)):
            summed[k] += rows
        return inc, order

    rmpnet.scoring_incidences = counted
    try:
        evalbench.classify(ckpt, graph, targets, seed=spec.EVAL_SEED)
    finally:
        rmpnet.scoring_incidences = incidences
    return summed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--hops", type=_count, required=True)
    parser.add_argument("--variant", choices=sorted(VARIANTS), required=True)
    parser.add_argument("--targets", type=_count, default=None,
                        help="score the first N test targets (default: all)")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        gen.generate(tmp, seed=spec.GRAPH_SEED, labels=SEED, **spec.WORKLOADS["classify-hub"]["gen"])
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
    targets = bench.test[: args.targets]
    start = time.process_time()
    result = evalbench.classify(ckpt, bench.test_graph, targets, seed=spec.EVAL_SEED)
    seconds = time.process_time() - start
    scored = len(result.scores)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux
    print(f"hub_probe: {args.variant} K={args.hops}: {scored} triples in {seconds:.2f} CPU s, "
          f"{scored / seconds:.1f} triples/s, peak RSS {peak_mb:.1f} MB, auc-pr {result.auc_pr:.4f}")
    summed = summed_rows(ckpt, bench.test_graph, targets)
    print(f"hub_probe: incidence rows summed by layers 1..{args.hops}: "
          f"{', '.join(map(str, summed[:-1]))} of {summed[-1]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
