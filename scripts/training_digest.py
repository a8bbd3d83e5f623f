#!/usr/bin/env python3
"""Print the history and a parameter SHA-256 of two short training runs.

Builds the graph of perfbench's train-mild workload with perfbench/gen.py and
trains on it for EPOCHS epochs at seed SEED, as that workload trains (K=2,
d=32, edge dropout 0.5, batch 16), once for the base variant and once for
ne-ta:

    python3 scripts/training_digest.py

For each variant it prints the per-epoch training losses and validation
AUC-PRs, the best epoch and one SHA-256 over the kept parameters.  Two
checkouts that print the same lines train alike, bit for bit, so a refactor
of the training path can be checked against its parent by running this
script in both.  The program is imported from this checkout's src/.
"""

from __future__ import annotations

import hashlib
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import gen  # noqa: E402
import spec  # noqa: E402
from rmpi import kgstore, rmpnet, trainlab  # noqa: E402
from rmpi.cli import VARIANTS  # noqa: E402

SEED = 3  # the training seed, and the seed of the graph's labels
EPOCHS = 2


def params_digest(params: dict) -> str:
    """SHA-256 over every parameter's name, shape and float64 bytes, by name."""
    digest = hashlib.sha256()
    for name in sorted(params):
        value = params[name]
        digest.update(f"{name} {value.shape}\n".encode("ascii"))
        digest.update(value.astype("<f8").tobytes())
    return digest.hexdigest()


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        gen.generate(tmp, seed=spec.GRAPH_SEED, labels=SEED, **spec.WORKLOADS["train-mild"]["gen"])
        bench = kgstore.load_benchmark(tmp)
    for variant in ("base", "ne-ta"):
        use_disclosing, target_attention = VARIANTS[variant]
        model = rmpnet.ModelConfig(hops=2, dim=32, edge_dropout=0.5,
                                   use_disclosing=use_disclosing,
                                   target_attention=target_attention)
        config = trainlab.TrainConfig(model=model, batch_size=16, seed=SEED, epochs=EPOCHS)
        ckpt = trainlab.train(bench, config)
        print(f"training_digest: {variant}: train loss {ckpt.history['train_loss']!r}, "
              f"val auc-pr {ckpt.history['val_auc']!r}, best epoch {ckpt.best_epoch}, "
              f"params sha256 {params_digest(ckpt.params)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
