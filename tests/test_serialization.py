"""Tensor container byte format and the feature-map manifest."""

import json
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reafuse.pyramid import PyramidConfig, init_pyramid, run_pyramid
from reafuse.serialization import FormatError, read_raft, save_feature_maps, write_raft
from reafuse.tensor import Rng, Tensor


def test_raft_round_trip_various_ranks(tmp_path):
    rng = np.random.default_rng(0)
    for i, shape in enumerate(((), (5,), (2, 3), (2, 3, 4, 5), (0,), (2, 0, 3))):
        arr = rng.normal(size=shape)
        p = tmp_path / f"r{i}.raft"
        write_raft(p, arr)
        back = read_raft(p)
        assert back.shape == arr.shape
        np.testing.assert_array_equal(back, arr)


def test_write_raft_writes_the_payload_without_copying_it(tmp_path):
    arr = np.random.default_rng(1).normal(size=(256, 1024))  # 2 MB
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        write_raft(tmp_path / "big.raft", arr)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - start < arr.nbytes // 8, (peak - start) / arr.nbytes
    np.testing.assert_array_equal(read_raft(tmp_path / "big.raft"), arr)


def test_raft_exact_byte_layout(tmp_path):
    arr = np.array([[1.0, 2.0], [3.0, 4.0]])
    p = tmp_path / "t.raft"
    write_raft(p, arr)
    want = (struct.pack("<4sII", b"RAFT", 1, 2)
            + struct.pack("<2Q", 2, 2)
            + struct.pack("<4d", 1.0, 2.0, 3.0, 4.0))
    assert p.read_bytes() == want


def test_raft_rejects_corrupt_files(tmp_path):
    arr = np.arange(6.0).reshape(2, 3)
    p = tmp_path / "ok.raft"
    write_raft(p, arr)
    raw = bytearray(p.read_bytes())

    bad_magic = tmp_path / "magic.raft"
    bad_magic.write_bytes(b"JUNK" + bytes(raw[4:]))
    with pytest.raises(FormatError):
        read_raft(bad_magic)

    bad_version = tmp_path / "version.raft"
    v = bytearray(raw)
    v[4] = 9
    bad_version.write_bytes(bytes(v))
    with pytest.raises(FormatError):
        read_raft(bad_version)

    truncated = tmp_path / "trunc.raft"
    truncated.write_bytes(bytes(raw[:-8]))
    with pytest.raises(FormatError):
        read_raft(truncated)

    tiny = tmp_path / "tiny.raft"
    tiny.write_bytes(b"RA")
    with pytest.raises(FormatError):
        read_raft(tiny)


@pytest.mark.parametrize("extents", [(2**32, 2**32), (2**63, 2**63, 4), (0, 2**63), (0, 2**62)])
def test_raft_rejects_extents_past_the_address_space(tmp_path, extents):
    # (2^32, 2^32) wraps to 0 in a u64 product; with no payload it used to
    # reach numpy's reshape and fail there
    p = tmp_path / "huge.raft"
    p.write_bytes(struct.pack("<4sII", b"RAFT", 1, len(extents))
                  + struct.pack(f"<{len(extents)}Q", *extents))
    with pytest.raises(FormatError):
        read_raft(p)


_SMALL_ARRAYS = st.lists(st.integers(0, 3), max_size=3).map(
    lambda shape: np.arange(float(np.prod(shape))).reshape(shape))


def _container(tmp_path, arr) -> bytes:
    p = tmp_path / "src.raft"
    write_raft(p, arr)
    return p.read_bytes()


def _read_or_format_error(path):
    try:
        return read_raft(path)
    except FormatError:
        return None


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(arr=_SMALL_ARRAYS, data=st.data())
def test_raft_truncated_containers_raise_format_error(tmp_path, arr, data):
    raw = _container(tmp_path, arr)
    cut = data.draw(st.integers(0, len(raw) - 1))
    p = tmp_path / "cut.raft"
    p.write_bytes(raw[:cut])
    with pytest.raises(FormatError):
        read_raft(p)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(arr=_SMALL_ARRAYS, data=st.data())
def test_raft_bit_flips_raise_only_format_error(tmp_path, arr, data):
    raw = bytearray(_container(tmp_path, arr))
    bit = data.draw(st.integers(0, 8 * len(raw) - 1))
    raw[bit // 8] ^= 1 << (bit % 8)
    p = tmp_path / "flip.raft"
    p.write_bytes(bytes(raw))
    back = _read_or_format_error(p)
    if bit >= 8 * (len(raw) - 8 * arr.size):  # a payload bit: still a valid container
        assert back is not None and back.shape == arr.shape


def test_feature_map_manifest(tmp_path):
    cfg = PyramidConfig(levels=2, kernel_channels=2, orientations=4,
                        reduction=1, variant="Baseline", seed=1)
    params = init_pyramid(cfg)
    levels = run_pyramid(Tensor(Rng(2).uniform((2, 3, 8, 8))), params)
    out = save_feature_maps(levels, tmp_path / "maps", extra={"note": "test"})
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["kind"] == "feature-maps"
    assert manifest["note"] == "test"
    assert len(manifest["levels"]) == 2
    for i, entry in enumerate(manifest["levels"]):
        arr = read_raft(out / entry["file"])
        np.testing.assert_array_equal(arr, levels[i].data.data)
        assert entry["orientations"] == 4
