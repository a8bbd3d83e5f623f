"""The on-disk formats, pinned byte for byte, and their shared readers."""

import numpy as np
import pytest

from rmpi.fileio import read_rows, write_rows
from rmpi.rmpnet import ModelConfig, layer_param
from rmpi.schema import SchemaEmbedding, load_vectors, save_vectors
from rmpi.trainlab import Checkpoint, load_checkpoint, save_checkpoint

CHECKPOINT_MANIFEST = """\
{
 "best_epoch": 1,
 "best_val_auc": 0.75,
 "dtype": "<f4",
 "format_version": 1,
 "history": {
  "train_loss": [
   2.5
  ],
  "val_auc": [
   0.75
  ]
 },
 "model_config": {
  "dim": 1,
  "edge_dropout": 0.5,
  "fusion": "sum",
  "hops": 1,
  "init_mode": "random",
  "leaky_slope": 0.2,
  "schema_dim": 300,
  "schema_hidden": 128,
  "target_attention": false,
  "use_disclosing": false
 },
 "params": [
  {
   "name": "layer1_type0",
   "shape": [
    1,
    1
   ]
  },
  {
   "name": "layer1_type1",
   "shape": [
    1,
    1
   ]
  },
  {
   "name": "layer1_type2",
   "shape": [
    1,
    1
   ]
  },
  {
   "name": "layer1_type3",
   "shape": [
    1,
    1
   ]
  },
  {
   "name": "layer1_type4",
   "shape": [
    1,
    1
   ]
  },
  {
   "name": "layer1_type5",
   "shape": [
    1,
    1
   ]
  },
  {
   "name": "rel_emb",
   "shape": [
    2,
    1
   ]
  },
  {
   "name": "score_w",
   "shape": [
    1,
    1
   ]
  }
 ],
 "relations": [
  "r0",
  "r1"
 ],
 "seen": [
  true,
  false
 ],
 "vocab_digest": "d1"
}
"""
# layer1_type0..5 = [[0.5]], [[-1]], [[1.5]], [[-2]], [[0.25]], [[3]], then
# rel_emb = [[-0.5], [4]], then score_w = [[0.125]], little-endian float32
CHECKPOINT_PARAMS = (
    b"\x00\x00\x00?\x00\x00\x80\xbf\x00\x00\xc0?\x00\x00\x00\xc0\x00\x00\x80>\x00\x00@@"
    b"\x00\x00\x00\xbf\x00\x00\x80@" b"\x00\x00\x00>"
)

VECTOR_MANIFEST = """\
{
 "dim": 2,
 "dtype": "<f4",
 "entries": [
  {
   "name": "q1",
   "offset": 0
  },
  {
   "name": "q0",
   "offset": 8
  }
 ]
}
"""
# q1 = [0.125, 4], then q0 = [1, -0.5]
VECTOR_BLOCK = b"\x00\x00\x00>\x00\x00\x80@" b"\x00\x00\x80?\x00\x00\x00\xbf"

LAYER_VALUES = (0.5, -1.0, 1.5, -2.0, 0.25, 3.0)


def tiny_checkpoint():
    return Checkpoint(
        config=ModelConfig(dim=1, hops=1),
        params={
            **{layer_param(1, e): np.array([[v]]) for e, v in enumerate(LAYER_VALUES)},
            "rel_emb": np.array([[-0.5], [4.0]]),
            "score_w": np.array([[0.125]]),
        },
        vocab_digest="d1",
        relation_names=("r0", "r1"),
        seen_flags=(True, False),
        best_val_auc=0.75,
        best_epoch=1,
        history={"train_loss": [2.5], "val_auc": [0.75]},
    )


def test_checkpoint_bytes_are_pinned(tmp_path):
    save_checkpoint(tiny_checkpoint(), str(tmp_path))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.json", "params.bin"]
    assert (tmp_path / "manifest.json").read_bytes() == CHECKPOINT_MANIFEST.encode()
    assert (tmp_path / "params.bin").read_bytes() == CHECKPOINT_PARAMS

    params = load_checkpoint(str(tmp_path)).params
    assert {n: p.tolist() for n, p in params.items()} == {
        **{layer_param(1, e): [[v]] for e, v in enumerate(LAYER_VALUES)},
        "rel_emb": [[-0.5], [4.0]],
        "score_w": [[0.125]],
    }


def test_vector_export_bytes_are_pinned(tmp_path):
    emb = SchemaEmbedding(
        node_names=("q0", "C", "q1"),
        vectors=np.array([[1.0, -0.5], [0.0, 2.0], [0.125, 4.0]]),
        predicates=np.zeros((4, 2)),
        loss_history=(1.0,),
    )
    save_vectors(emb, str(tmp_path), names=["q1", "q0"])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.json", "vectors.bin"]
    assert (tmp_path / "manifest.json").read_bytes() == VECTOR_MANIFEST.encode()
    assert (tmp_path / "vectors.bin").read_bytes() == VECTOR_BLOCK

    vectors = load_vectors(str(tmp_path))
    assert list(vectors) == ["q1", "q0"]
    assert vectors["q1"].tolist() == [0.125, 4.0]
    assert vectors["q0"].tolist() == [1.0, -0.5]


def test_rows_of_any_width_and_value_type(tmp_path):
    path = tmp_path / "rows.tsv"
    write_rows(str(path), [("unseen",), ("mrr", 0.5), ("a", "r", 3)])
    assert path.read_text() == "unseen\nmrr\t0.5\na\tr\t3\n"
    write_rows(str(path), [("a", "r", 3), ("b", "s", "c")])
    assert read_rows(str(path), ValueError) == [("a", "r", "3"), ("b", "s", "c")]


def test_blank_lines_are_skipped_and_still_numbered(tmp_path):
    path = tmp_path / "rows.tsv"
    path.write_text("a\tr\tb\n\n\nc\ts\td\n\n")
    assert read_rows(str(path), ValueError) == [("a", "r", "b"), ("c", "s", "d")]
    with pytest.raises(ValueError, match=r"^rows\.tsv:4: no rows of s$"):
        read_rows(str(path), ValueError, lambda row: "no rows of s" if row[1] == "s" else None)
    path.write_text("a\tr\tb\n\n\nc\ts\n")
    with pytest.raises(ValueError, match=r"^rows\.tsv:4: expected 3 tab-separated fields, got 2$"):
        read_rows(str(path), ValueError)
    path.write_text("\na\t\tb\n")
    with pytest.raises(ValueError, match=r"^rows\.tsv:2: empty field$"):
        read_rows(str(path), ValueError)
