"""Every file format the program reads or writes, each in one place.

Tab-separated rows: one row per line, fields joined by tabs.  Benchmark
splits and ontology schemas are rows of three fields and are read back;
metric tables and the unseen-relation list are written only.  Empty lines
are skipped on reading.

JSON documents: run manifests, metric reports and the manifests below,
written with indent 1, sorted keys and a trailing newline.

Manifest plus block: a directory holding `manifest.json` and one packed
block of little-endian float32 values, written back to back in row-major
order.  Checkpoints and exported schema vectors use it; each lists its own
entries in the manifest and locates them in the block by its own rule.
"""

from __future__ import annotations

import json
import os

import numpy as np

MANIFEST = "manifest.json"
BLOCK_DTYPE = "<f4"


def format_row(row) -> str:
    """One row as a line of tab-separated fields, without the newline."""
    return "\t".join(map(str, row))


def read_rows(path: str, error: type[Exception], check=None) -> list[tuple[str, str, str]]:
    """The three-field rows of a tab-separated file, in file order.

    A line of another width, a row with an empty field, or a row for which
    `check(row)` returns a message, raises `error` naming the file and line.
    """
    rows = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise error(
                    f"{os.path.basename(path)}:{lineno}: expected 3 tab-separated "
                    f"fields, got {len(parts)}"
                )
            if not all(parts):
                raise error(f"{os.path.basename(path)}:{lineno}: empty field")
            row = (parts[0], parts[1], parts[2])
            if check is not None:
                problem = check(row)
                if problem:
                    raise error(f"{os.path.basename(path)}:{lineno}: {problem}")
            rows.append(row)
    return rows


def write_rows(path: str, rows) -> None:
    """Write rows of any width, one tab-separated line each."""
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(format_row(row) + "\n")


def write_json(path: str, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def write_block_dir(directory: str, block_name: str, manifest: dict, arrays) -> None:
    """Write the manifest, with the block's dtype added, and the arrays
    back to back as float32 into the block."""
    os.makedirs(directory, exist_ok=True)
    write_json(os.path.join(directory, MANIFEST), {**manifest, "dtype": BLOCK_DTYPE})
    with open(os.path.join(directory, block_name), "wb") as fh:
        for a in arrays:
            fh.write(np.ascontiguousarray(a, dtype=BLOCK_DTYPE).tobytes())


def read_block_dir(directory: str, block_name: str, kind: str, error: type[Exception], parse):
    """Read a manifest-plus-block directory and return `parse(manifest,
    block, block_path)`, where the manifest is a JSON object and the block
    the raw bytes.

    A missing file raises `error`; so does a manifest that is not a JSON
    object, or whose entries `parse` cannot read (KeyError, TypeError or
    ValueError), naming it a malformed `kind` manifest.
    """
    manifest_path = os.path.join(directory, MANIFEST)
    block_path = os.path.join(directory, block_name)
    for p in (manifest_path, block_path):
        if not os.path.isfile(p):
            raise error(f"missing {kind} file: {p}")
    try:
        with open(manifest_path, encoding="utf-8") as fh:
            manifest = json.load(fh)
        if not isinstance(manifest, dict):
            raise TypeError(f"expected a JSON object, got {type(manifest).__name__}")
        with open(block_path, "rb") as fh:
            block = fh.read()
        return parse(manifest, block, block_path)
    except (KeyError, TypeError, ValueError) as exc:
        raise error(f"malformed {kind} manifest {manifest_path}: {exc!r}") from exc


def floats(block: bytes, offset: int, shape) -> np.ndarray:
    """The float32 values of `shape` at a byte offset of a block, as float64."""
    count = int(np.prod(shape))
    raw = np.frombuffer(block, dtype=BLOCK_DTYPE, count=count, offset=offset)
    return raw.reshape(shape).astype(np.float64)
