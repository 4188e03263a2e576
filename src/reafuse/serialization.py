"""Binary tensor containers and JSON manifests.

A ``.raft`` file holds one float64 tensor:

    bytes 0..3   magic ``b"RAFT"``
    bytes 4..7   format version, u32 little-endian (currently 1)
    bytes 8..11  rank, u32 little-endian
    then         rank extents, u64 little-endian each
    then         payload, float64 row-major little-endian

Manifests are JSON files describing a set of containers -- either a full
parameter set or a demo output (pyramid levels).  A parameter-set manifest
holds the ``PyramidConfig`` it was built from and each tensor's dotted name,
file and shape; the structure and every layer's widths follow from those, so
it describes no layers of its own.  All JSON is written with sorted keys and
no timestamps, so identical inputs produce byte-identical files; that is what
makes the demo-determinism check meaningful.
"""

from __future__ import annotations

import dataclasses
import json
import math
import struct
from pathlib import Path

import numpy as np

from .groupequiv import ReFeatureMap
from .pyramid import PyramidConfig, PyramidParams, init_pyramid, named_parameters
from .tensor import Tensor

__all__ = [
    "FormatError",
    "write_raft",
    "read_raft",
    "write_json",
    "save_pyramid_params",
    "load_pyramid_params",
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


def _tensor_filename(dotted: str) -> str:
    """stages[0][1].weight -> stages.0.1.weight.raft"""
    return dotted.replace("[", ".").replace("]", "") + ".raft"


def save_pyramid_params(params: PyramidParams, out_dir) -> Path:
    """Write every tensor as a container plus one manifest.json; returns the dir."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    entries = []
    for dotted, tensor in named_parameters(params):
        filename = _tensor_filename(dotted)
        write_raft(out / filename, tensor)
        entries.append({"name": dotted, "file": filename, "shape": list(tensor.shape)})
    write_json(out / "manifest.json", {
        "kind": "pyramid-params",
        "version": VERSION,
        "config": dataclasses.asdict(params.config),
        "tensors": entries,
    })
    return out


def _container_path(src: Path, entry: dict) -> Path:
    """The container a manifest entry names: a relative path inside ``src``."""
    file = entry["file"]
    path = src / file
    if Path(file).is_absolute() or not path.resolve().is_relative_to(src.resolve()):
        raise ValueError(f"tensor {entry['name']!r}: file {file!r} is not inside {src}")
    return path


def load_pyramid_params(in_dir) -> PyramidParams:
    """Rebuild a parameter set from save_pyramid_params output.

    The structure is reconstructed from the config echo, then every tensor is
    overwritten from its container; a round trip is value-exact.  A manifest
    or container that cannot be used raises FormatError, and so does a
    manifest of another version or one naming a file outside ``in_dir``; a
    file that cannot be read raises OSError.
    """
    src = Path(in_dir)
    raw = (src / "manifest.json").read_bytes()
    try:
        manifest = json.loads(raw)
        if manifest.get("kind") != "pyramid-params":
            raise ValueError(f"manifest kind {manifest.get('kind')!r}")
        version = manifest.get("version")
        if type(version) is not int or version != VERSION:
            raise ValueError(f"manifest version {version!r}, expected {VERSION}")
        config = PyramidConfig(**manifest["config"])
        stored = {e["name"]: _container_path(src, e) for e in manifest["tensors"]}
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{src}: unusable manifest: {exc!r}") from exc
    params = init_pyramid(config)
    for key, tensor in named_parameters(params):
        if key not in stored:
            raise FormatError(f"{src}: manifest missing tensor {key}")
        if not stored[key].is_file():
            raise FormatError(f"{src}: missing container {stored[key].name}")
        arr = read_raft(stored[key])
        if arr.shape != tensor.shape:
            raise FormatError(
                f"{src}: tensor {key} shaped {arr.shape}, expected {tensor.shape}"
            )
        tensor.data[...] = arr
    return params


def save_feature_maps(maps: list[ReFeatureMap], out_dir, extra: dict | None = None) -> Path:
    """Write pyramid levels as level0.raft.., plus a manifest echoing metadata."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    levels = []
    for i, fm in enumerate(maps):
        filename = f"level{i}.raft"
        write_raft(out / filename, fm.data)
        levels.append({
            "file": filename,
            "shape": list(fm.shape),
            "kernel_channels": fm.kernel_channels,
            "orientations": fm.orientations,
        })
    payload = {"kind": "feature-maps", "version": VERSION, "levels": levels}
    if extra:
        payload.update(extra)
    write_json(out / "manifest.json", payload)
    return out
