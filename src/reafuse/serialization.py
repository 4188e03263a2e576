"""Binary tensor containers and JSON manifests.

A ``.raft`` file holds one float64 tensor:

    bytes 0..3   magic ``b"RAFT"``
    bytes 4..7   format version, u32 little-endian (currently 1)
    bytes 8..11  rank, u32 little-endian
    then         rank extents, u64 little-endian each
    then         payload, float64 row-major little-endian

A demo's output is a set of such containers, one per pyramid level, plus a
JSON manifest giving each level's file, shape, kernel channels and
orientations.  A level is a feature map, a Tensor [B, K*N, H, W]; N comes
from the layer, so the caller passes it.  All JSON is written with sorted
keys and no timestamps, so identical inputs produce byte-identical files;
that is what makes the demo-determinism check meaningful.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

from .tensor import Tensor

__all__ = [
    "FormatError",
    "write_raft",
    "read_raft",
    "write_json",
    "save_feature_maps",
]

MAGIC = b"RAFT"
VERSION = 1
_HEADER = struct.Struct("<4sII")


class FormatError(ValueError):
    """A container file violates the documented byte layout."""


def write_raft(path, value) -> None:
    """Serialize a Tensor / ndarray to one container file."""
    arr = value.data if isinstance(value, Tensor) else np.asarray(value, dtype=np.float64)
    # note: ascontiguousarray would promote rank-0 tensors to rank 1
    arr = np.asarray(arr, dtype="<f8", order="C")
    with open(path, "wb") as f:
        f.write(_HEADER.pack(MAGIC, VERSION, arr.ndim))
        f.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        f.write(arr.reshape(-1).view(np.uint8))  # the array's own buffer, no copy


def read_raft(path) -> np.ndarray:
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise FormatError(f"{path}: truncated header ({len(raw)} bytes)")
    magic, version, rank = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}")
    if version != VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    offset = _HEADER.size
    if len(raw) < offset + 8 * rank:
        raise FormatError(f"{path}: truncated extents for rank {rank}")
    shape = struct.unpack_from(f"<{rank}Q", raw, offset)
    offset += 8 * rank
    count = math.prod(shape)  # exact: a product of u64 extents may exceed 2^64
    if len(raw) != offset + 8 * count:
        raise FormatError(f"{path}: payload is {len(raw) - offset} bytes, expected {8 * count}")
    try:
        return np.frombuffer(raw, dtype="<f8", offset=offset).astype(np.float64).reshape(shape)
    except ValueError as exc:  # an empty payload with extents numpy cannot index
        raise FormatError(f"{path}: extents {shape} not representable: {exc}") from exc


def write_json(path, payload: dict) -> None:
    """Canonical JSON: sorted keys, fixed separators, trailing newline."""
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def save_feature_maps(maps: list[Tensor], orientations: int, out_dir,
                      extra: dict | None = None) -> Path:
    """Write pyramid levels as level0.raft.., plus a manifest echoing metadata."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    levels = []
    for i, fm in enumerate(maps):
        filename = f"level{i}.raft"
        write_raft(out / filename, fm)
        levels.append({
            "file": filename,
            "shape": list(fm.shape),
            "kernel_channels": fm.shape[1] // orientations,
            "orientations": orientations,
        })
    payload = {"kind": "feature-maps", "version": VERSION, "levels": levels}
    if extra:
        payload.update(extra)
    write_json(out / "manifest.json", payload)
    return out
