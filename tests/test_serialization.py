"""Tensor container byte format, manifests, and parameter round trips."""

import json
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reafuse import serialization
from reafuse.pyramid import (
    VARIANTS,
    PyramidConfig,
    init_pyramid,
    named_parameters,
    run_pyramid,
)
from reafuse.serialization import (
    FormatError,
    load_pyramid_params,
    read_raft,
    save_feature_maps,
    save_pyramid_params,
    write_raft,
)
from reafuse.tensor import Rng, Tensor


def test_raft_round_trip_various_ranks(tmp_path):
    rng = np.random.default_rng(0)
    for shape in ((), (5,), (2, 3), (2, 3, 4, 5)):
        arr = rng.normal(size=shape)
        p = tmp_path / f"r{len(shape)}.raft"
        write_raft(p, arr)
        back = read_raft(p)
        assert back.shape == arr.shape
        np.testing.assert_array_equal(back, arr)


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


@pytest.mark.parametrize("variant", VARIANTS)
def test_pyramid_params_round_trip(tmp_path, variant):
    cfg = PyramidConfig(levels=2, kernel_channels=2, orientations=4,
                        reduction=1, variant=variant, seed=5)
    params = init_pyramid(cfg)
    out = save_pyramid_params(params, tmp_path / "model")
    loaded = load_pyramid_params(out)
    assert loaded.config == cfg
    pairs = list(zip(named_parameters(params), named_parameters(loaded), strict=True))
    for (name_a, a), (name_b, b) in pairs:
        assert name_a == name_b
        np.testing.assert_array_equal(a.data, b.data)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["kind"] == "pyramid-params"
    assert [e["name"] for e in manifest["tensors"]] == [
        name.removeprefix("params.") for (name, _), _ in pairs]


def test_param_save_is_byte_reproducible(tmp_path):
    cfg = PyramidConfig(levels=2, kernel_channels=2, orientations=2,
                        reduction=1, variant="PlusReCA", seed=9)
    a = save_pyramid_params(init_pyramid(cfg), tmp_path / "a")
    b = save_pyramid_params(init_pyramid(cfg), tmp_path / "b")
    files_a = sorted(p.name for p in a.iterdir())
    files_b = sorted(p.name for p in b.iterdir())
    assert files_a == files_b
    for name in files_a:
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_load_rejects_wrong_kind_and_missing_tensor(tmp_path):
    cfg = PyramidConfig(levels=2, kernel_channels=1, orientations=1,
                        reduction=1, variant="Baseline", seed=0)
    out = save_pyramid_params(init_pyramid(cfg), tmp_path / "m")
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["kind"] = "something-else"
    (out / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(FormatError):
        load_pyramid_params(out)
    manifest["kind"] = "pyramid-params"
    (out / "manifest.json").write_text(json.dumps(manifest))
    (out / manifest["tensors"][0]["file"]).unlink()
    with pytest.raises(FormatError):
        load_pyramid_params(out)


def test_load_rejects_null_reduction_naming_it(tmp_path):
    cfg = PyramidConfig(levels=2, kernel_channels=2, orientations=2,
                        reduction=1, variant="PlusSE", seed=3)
    out = save_pyramid_params(init_pyramid(cfg), tmp_path / "m")
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["config"]["reduction"] = None  # what an auto-reduction manifest held
    (out / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(FormatError, match="reduction"):
        load_pyramid_params(out)


def _saved_manifest(tmp_path):
    cfg = PyramidConfig(levels=2, kernel_channels=2, orientations=2,
                        reduction=1, variant="Baseline", seed=6)
    out = save_pyramid_params(init_pyramid(cfg), tmp_path / "m")
    return out, json.loads((out / "manifest.json").read_text())


@pytest.mark.parametrize("file", ["/etc/passwd", "ABSOLUTE", "../x.raft", "sub/../../x.raft"])
def test_load_rejects_container_paths_outside_the_directory(tmp_path, file):
    out, manifest = _saved_manifest(tmp_path)
    entry = manifest["tensors"][0]
    # a valid container of the right shape, outside the directory
    outside = tmp_path / "x.raft"
    write_raft(outside, read_raft(out / entry["file"]))
    entry["file"] = str(outside) if file == "ABSOLUTE" else file
    (out / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(FormatError, match=f"tensor '{entry['name']}'.*not inside"):
        load_pyramid_params(out)


@pytest.mark.parametrize("version", [2, 0, "1", 1.0, True, None])
def test_load_rejects_other_manifest_versions(tmp_path, version):
    out, manifest = _saved_manifest(tmp_path)
    if version is None:
        del manifest["version"]
    else:
        manifest["version"] = version
    (out / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(FormatError, match="manifest version"):
        load_pyramid_params(out)


def test_load_rejects_kernel_channels_over_the_cap_before_building(tmp_path, monkeypatch):
    out, manifest = _saved_manifest(tmp_path)
    manifest["config"]["kernel_channels"] = 4096
    (out / "manifest.json").write_text(json.dumps(manifest))

    def no_build(config):
        raise AssertionError("init_pyramid ran on an over-cap config")

    monkeypatch.setattr(serialization, "init_pyramid", no_build)
    with pytest.raises(FormatError, match="kernel_channels"):
        load_pyramid_params(out)


def test_load_rejects_levels_over_the_cap_before_building(tmp_path, monkeypatch):
    out, manifest = _saved_manifest(tmp_path)
    manifest["config"]["levels"] = 40
    (out / "manifest.json").write_text(json.dumps(manifest))

    def no_build(config):
        raise AssertionError("init_pyramid ran on an over-cap config")

    monkeypatch.setattr(serialization, "init_pyramid", no_build)
    with pytest.raises(FormatError, match=r"levels must be in \[2, 9\], got 40"):
        load_pyramid_params(out)


def _tree_paths(node, path=()):
    """Every position in a JSON tree, as the key/index path leading to it."""
    yield path
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _tree_paths(child, path + (key,))


# small values only: a mutated config still builds a tiny pyramid
_MANIFEST_VALUES = (st.none() | st.booleans() | st.integers(-2, 5)
                    | st.sampled_from([2.5, "", "x", "PlusReCA", "manifest.json",
                                       "stem.weight.raft", [], {}, [1], {"kind": 1}]))


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_load_mutated_manifest_loads_or_raises_format_error(tmp_path, data):
    cfg = PyramidConfig(levels=2, kernel_channels=2, orientations=2,
                        reduction=1, variant="ReAFFPN", seed=4)
    out = save_pyramid_params(init_pyramid(cfg), tmp_path / "m")
    manifest = json.loads((out / "manifest.json").read_text())
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(list(_tree_paths(manifest))))
        delete = data.draw(st.booleans()) and path
        value = data.draw(_MANIFEST_VALUES)
        if not path:
            manifest = value
            continue
        parent = manifest
        for key in path[:-1]:
            parent = parent[key]
        if delete:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    text = json.dumps(manifest).encode()
    if data.draw(st.booleans()):  # and sometimes the bytes themselves break
        cut = data.draw(st.integers(0, len(text)))
        text = text[:cut] + data.draw(st.sampled_from([b"", b"\xff", b"}"]))
    (out / "manifest.json").write_bytes(text)
    try:
        loaded = load_pyramid_params(out)
    except FormatError:
        return
    stored = {e["name"]: e["file"] for e in json.loads(text)["tensors"]}
    for name, tensor in named_parameters(loaded):  # each tensor is its named file
        np.testing.assert_array_equal(tensor.data,
                                      read_raft(out / stored[name.removeprefix("params.")]))


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
