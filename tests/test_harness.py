"""Config validation, report/exit-code semantics, and CLI behavior."""

import dataclasses
import hashlib
import json
import os
import platform
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reafuse import cli, harness, pyramid
from reafuse.autograd import gradcheck
from reafuse.harness import (
    ConfigError,
    HarnessConfig,
    Report,
    _gradcheck_cases,
    load_config,
    run_demo,
    run_gradcheck,
    run_oracle,
    run_verify,
)
from reafuse.pyramid import VARIANTS
from reafuse.tensor import Rng, ShapeError, Tensor

from references import action_law_failures, reference_seed_residuals

TINY = dict(levels=2, kernel_channels=2, orientations=2, reduction=1,
            image_size=8, batch=2, seeds=2, trials=10, seed=5)


def write_config(tmp_path, **overrides):
    payload = {**TINY, **overrides}
    p = tmp_path / "config.json"
    p.write_text(json.dumps(payload))
    return p


def test_defaults_validate():
    cfg = HarnessConfig()
    assert cfg.variant == "ReAFFPN" and cfg.orientations == 4


def test_load_config_rejects_unknown_keys(tmp_path):
    p = write_config(tmp_path, imagesize=16)
    with pytest.raises(ConfigError, match="unknown keys"):
        load_config(p)


def test_load_config_rejects_bad_types(tmp_path, capsys):
    p = write_config(tmp_path, levels="three")
    with pytest.raises(ConfigError):
        load_config(p)
    p1 = write_config(tmp_path, reduction=None)
    with pytest.raises(ConfigError, match="reduction"):
        load_config(p1)
    assert cli.entrypoint(["verify", "--config", str(p1)]) == 2
    assert "reduction" in capsys.readouterr().err
    p2 = tmp_path / "list.json"
    p2.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="JSON object"):
        load_config(p2)
    p3 = tmp_path / "broken.json"
    p3.write_text("{nope")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(p3)


@pytest.mark.parametrize("key", ["pass_threshold", "fail_threshold", "oracle_tolerance",
                                 "gradcheck_tolerance", "gradcheck_step"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"),
                                   pytest.param(10**400, id="int-too-large-for-a-float")])
def test_load_config_rejects_non_finite_floats(tmp_path, capsys, key, value):
    p = write_config(tmp_path, **{key: value})
    with pytest.raises(ConfigError, match=key):
        load_config(p)
    with pytest.raises(ConfigError, match=key):
        HarnessConfig(**{**TINY, key: value})
    assert cli.entrypoint(["oracle" if key == "oracle_tolerance" else "verify",
                           "--config", str(p)]) == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("key,value", [("seed", 7.9), ("levels", 2.7), ("kernel_channels", 2.5),
                                       ("orientations", 2.2), ("reduction", 1.5),
                                       ("image_size", 8.5), ("batch", 2.1), ("seeds", 1.5),
                                       ("trials", 10.5), ("reseeds", 0.5)])
def test_load_config_rejects_non_integral_integers(tmp_path, key, value):
    with pytest.raises(ConfigError, match=key):
        load_config(write_config(tmp_path, **{key: value}))


def test_load_config_accepts_integral_floats(tmp_path):
    cfg = load_config(write_config(tmp_path, seed=7.0, levels=2.0))
    assert cfg.seed == 7 and isinstance(cfg.seed, int) and cfg.levels == 2


def test_load_config_caps_seeds(tmp_path, capsys):
    assert load_config(write_config(tmp_path, seeds=1000)).seeds == 1000
    p = write_config(tmp_path, seeds=1001)
    with pytest.raises(ConfigError, match="seeds 1001 above the cap"):
        load_config(p)
    assert cli.entrypoint(["verify", "--config", str(p)]) == 2
    assert "seeds" in capsys.readouterr().err


def test_load_config_caps_trials(tmp_path, capsys):
    assert load_config(write_config(tmp_path, trials=10000)).trials == 10000
    p = write_config(tmp_path, trials=10001)
    with pytest.raises(ConfigError, match="trials 10001 above the cap"):
        load_config(p)
    assert cli.entrypoint(["oracle", "--config", str(p)]) == 2
    assert "trials" in capsys.readouterr().err


def test_load_config_caps_reseeds(tmp_path, capsys):
    cap = harness.MAX_RESEEDS
    assert load_config(write_config(tmp_path, reseeds=cap)).reseeds == cap
    p = write_config(tmp_path, reseeds=cap + 1)
    with pytest.raises(ConfigError, match=f"reseeds {cap + 1} above the cap"):
        load_config(p)
    assert cli.entrypoint(["verify", "--config", str(p)]) == 2
    assert "reseeds" in capsys.readouterr().err
    with pytest.raises(ConfigError, match="reseeds 1000000000000 above the cap"):
        HarnessConfig(reseeds=10**12)


def test_pyramid_levels_cap_is_the_deepest_the_image_cap_allows():
    deepest = pyramid.MAX_LEVELS
    # the smallest image of that depth, at the smallest batch, fills the image cap
    assert 2 ** (deepest - 1) * 2 == harness.MAX_IMAGE_SIZE_X_BATCH
    assert HarnessConfig(levels=deepest, image_size=256, batch=2).levels == deepest
    with pytest.raises(ConfigError, match="spatial size not divisible"):
        HarnessConfig(levels=deepest + 1, image_size=256, batch=2)


def test_load_config_caps_image_size_times_batch(tmp_path, capsys):
    # the largest benchmark config (image_size 128, batch 4) sits at the cap
    cfg = load_config(write_config(tmp_path, image_size=128, batch=4))
    assert cfg.image_size * cfg.batch == 512
    for size, batch in ((128, 5), (256, 4), (1024, 2)):
        p = write_config(tmp_path, image_size=size, batch=batch)
        with pytest.raises(ConfigError, match=r"image_size x batch .* above the cap"):
            load_config(p)
        assert cli.entrypoint(["demo", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
        assert "image_size x batch" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_load_config_caps_level0_activations(tmp_path, capsys):
    # the cap is the default width (8 x 4) at the largest input, 256 x 256, batch 2
    cap = harness.MAX_LEVEL0_VALUES
    assert HarnessConfig(image_size=256, batch=2).image_size == 256
    configs = Path(__file__).resolve().parents[1] / "configs"
    for path in sorted(configs.glob("*.json")):
        cfg = load_config(path)
        assert cfg.kernel_channels * cfg.orientations * cfg.image_size ** 2 * cfg.batch <= cap
    # demo-large: configs/default.json as Baseline at 128 x 128, batch 4, half the cap
    large = dataclasses.replace(load_config(configs / "default.json"), variant="Baseline",
                                image_size=128, batch=4)
    assert large.kernel_channels * large.orientations * 128 ** 2 * 4 == 2_097_152 == cap // 2
    with pytest.raises(ConfigError, match=r"kernel_channels x orientations x image_size\^2 "
                                          r"x batch = 64 x 4 x 256\^2 x 2 = 33554432 above"):
        HarnessConfig(kernel_channels=64, image_size=256, batch=2)
    for k, n, size, batch in ((12, 4, 256, 2), (64, 2, 128, 4), (64, 1, 256, 2)):
        p = write_config(tmp_path, kernel_channels=k, orientations=n, reduction=2,
                         image_size=size, batch=batch)
        with pytest.raises(ConfigError, match="above the cap"):
            load_config(p)
        assert cli.entrypoint(["demo", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
        assert "kernel_channels x orientations x image_size^2 x batch" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_load_config_caps_kernel_channels(tmp_path, capsys):
    cap = pyramid.MAX_KERNEL_CHANNELS
    assert load_config(write_config(tmp_path, kernel_channels=cap)).kernel_channels == cap
    p = write_config(tmp_path, kernel_channels=4096, reduction=2)
    with pytest.raises(ConfigError, match="kernel_channels must be in"):
        load_config(p)
    assert cli.entrypoint(["demo", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
    assert "kernel_channels" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
    # rejected by the config check itself, before any weight is drawn
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match="kernel_channels"):
            HarnessConfig(kernel_channels=4096, reduction=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


_JSON_SCALARS = (st.none() | st.booleans() | st.floats() | st.text(max_size=4)
                 | st.integers(-(10**30), 10**400))
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                 max_size=3),
    max_leaves=4)
_CONFIG_KEYS = st.sampled_from(sorted(HarnessConfig.__dataclass_fields__)) | st.text(max_size=4)
# mostly plausible values, so that validation gets past the type checks
_CONFIG_VALUES = (st.integers(-2, 70) | st.sampled_from([1e-12, 1e-5, 1e-2, 0.5, 2.0])
                  | st.sampled_from(["ReAFFPN", "PlusSE", "Nope"]) | _JSON_VALUES)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(payload=st.dictionaries(_CONFIG_KEYS, _CONFIG_VALUES, max_size=8)
       | st.builds(lambda over: {**TINY, **over},
                   st.dictionaries(_CONFIG_KEYS, _CONFIG_VALUES, max_size=2)))
def test_load_config_loads_or_raises_config_error(tmp_path, payload):
    p = tmp_path / "fuzz.json"
    p.write_text(json.dumps(payload))
    try:
        cfg = load_config(p)
    except ConfigError:
        return
    assert dataclasses.replace(cfg) == cfg  # rebuilding runs the same checks


def test_load_config_rejects_huge_levels_without_computing_the_power(tmp_path):
    with pytest.raises(ConfigError, match="spatial size not divisible"):
        load_config(write_config(tmp_path, levels=10**400))


def test_load_config_rejects_undecodable_files(tmp_path):
    too_long = tmp_path / "long.json"
    too_long.write_text('{"seed": ' + "9" * 5000 + "}")
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"variant": "\xe9"}')  # not UTF-8
    for p in (too_long, latin1):
        with pytest.raises(ConfigError):
            load_config(p)


def test_load_config_rejects_too_deep_nesting(tmp_path, capsys):
    # the decoder raises RecursionError here, which is not a ValueError
    p = tmp_path / "deep.json"
    p.write_text("[" * 200_000)
    with pytest.raises(ConfigError, match="is not valid JSON"):
        load_config(p)
    assert cli.entrypoint(["verify", "--config", str(p)]) == 2
    assert "is not valid JSON" in capsys.readouterr().err


def test_shipped_configs_within_caps():
    configs = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))
    assert configs
    for path in configs:
        load_config(path)


def test_cli_nan_threshold_exits_2(tmp_path, capsys):
    p = write_config(tmp_path, pass_threshold=float("nan"))
    assert "NaN" in p.read_text()
    assert cli.entrypoint(["verify", "--config", str(p)]) == 2
    assert "pass_threshold" in capsys.readouterr().err


def test_cli_unsupported_orientations_exits_2(tmp_path, capsys):
    # the stem and the stages rotate pixels, so the pyramid needs N | 4
    p = write_config(tmp_path, orientations=3)
    assert cli.entrypoint(["verify", "--config", str(p)]) == 2
    assert "orientations must be 1, 2 or 4, got 3" in capsys.readouterr().err


def test_indivisible_spatial_size_is_a_config_error(tmp_path):
    p = write_config(tmp_path, image_size=9, levels=3)
    with pytest.raises(ConfigError, match="spatial size not divisible"):
        load_config(p)


def test_threshold_and_range_validation():
    with pytest.raises(ConfigError):
        HarnessConfig(pass_threshold=1e-2, fail_threshold=1e-10)
    with pytest.raises(ConfigError):
        HarnessConfig(batch=1)
    with pytest.raises(ConfigError, match="orientations must be 1, 2 or 4, got 3"):
        HarnessConfig(orientations=3)
    with pytest.raises(ConfigError):
        HarnessConfig(gradcheck_step=1e-9)
    with pytest.raises(ConfigError):
        HarnessConfig(seed=2**64)
    with pytest.raises(ConfigError):
        HarnessConfig(kernel_channels=8, reduction=3)
    # a config checks itself as it is built, so no caller can skip the checks
    with pytest.raises(ConfigError, match="pass_threshold must be below"):
        HarnessConfig(pass_threshold=1.0)
    with pytest.raises(ConfigError, match="seeds and trials must be positive"):
        HarnessConfig(seeds=0)
    with pytest.raises(ConfigError, match="seeds 1001 above the cap"):
        HarnessConfig(seeds=1001)
    with pytest.raises(ConfigError, match="does not fit in u64"):
        dataclasses.replace(HarnessConfig(), seed=2**64)


@pytest.mark.parametrize("overrides,message,integral", [
    pytest.param({"seeds": 1.5}, "seeds must be an integer, got 1.5", False, id="seeds"),
    pytest.param({"trials": 2.5}, "trials must be an integer, got 2.5", False, id="trials"),
    pytest.param({"reseeds": 1.5}, "reseeds must be an integer, got 1.5", False, id="reseeds"),
    pytest.param({"batch": 2.0}, "batch must be an integer, got 2.0", True, id="batch"),
    pytest.param({"image_size": 8.0, "levels": 2}, "image_size must be an integer, got 8.0",
                 True, id="image_size"),
    pytest.param({"variant": 3}, "variant must be a string, got 3", False, id="variant"),
    pytest.param({"pass_threshold": "1e-10"}, "pass_threshold must be a number, got '1e-10'",
                 False, id="pass_threshold"),
])
def test_harness_config_checks_types_on_every_route(tmp_path, overrides, message, integral):
    # built in Python, these ran (seeds, trials, reseeds, batch) or failed
    # outside ConfigError (image_size) while only load_config checked types
    exact = f"^{re.escape(message)}$"
    with pytest.raises(ConfigError, match=exact):
        HarnessConfig(**overrides)
    with pytest.raises(ConfigError, match=exact):
        dataclasses.replace(HarnessConfig(**TINY), **overrides)
    p = write_config(tmp_path, **overrides)
    if integral:
        # JSON has one number type: a file's 2.0 is the integer 2
        ints = {k: int(v) for k, v in overrides.items()}
        assert load_config(p) == HarnessConfig(**{**TINY, **ints})
    else:
        with pytest.raises(ConfigError, match=exact):
            load_config(p)


@pytest.mark.parametrize("name", list(HarnessConfig.__dataclass_fields__))
def test_harness_config_rejects_any_json_value_with_config_error(name):
    # every value JSON can hold, as Python builds it: a config error or a config
    for value in (None, True, False, "", "8", "ReAFFPN", [], [8], {}, 0.5, 8.0, -0.0,
                  float("nan"), float("-inf"), -1, 0, 1, 8, 10**400):
        try:
            HarnessConfig(**{name: value})
        except ConfigError:
            pass


def test_exit_code_precedence():
    base = dict(command="verify", seed=0, config={})
    ok = Report(**base, verdicts={"a": True})
    assert ok.exit_code == 0 and ok.passed
    failed = Report(**base, verdicts={"a": False}, inconclusive=True)
    assert failed.exit_code == 1  # definite failure outranks inconclusive
    inconclusive = Report(**base, verdicts={"a": True}, inconclusive=True)
    assert inconclusive.exit_code == 4 and not inconclusive.passed
    nonfinite = Report(**base, verdicts={"a": False}, non_finite=True)
    assert nonfinite.exit_code == 3


def test_report_json_is_self_contained():
    r = Report(command="oracle", seed=9, config={"trials": 3},
               results={"conv2d": {"max_abs_deviation": 0.0}},
               verdicts={"conv2d": True}, timings={"total": 0.1})
    payload = json.loads(r.to_json())
    assert payload["exit_code"] == 0
    assert payload["config"]["trials"] == 3
    assert payload["results"]["conv2d"]["max_abs_deviation"] == 0.0


def test_run_verify_tiny_config():
    report = run_verify(HarnessConfig(**TINY))
    assert report.exit_code == 0, report.summary_lines()
    assert set(report.results) == {"Baseline", "PlusSE", "PlusReCA", "PlusIAFF", "ReAFFPN"}
    assert report.verdicts["g_act and the input rotation obey the C_2 group laws"] is True
    for variant in ("Baseline", "PlusReCA", "ReAFFPN"):
        assert report.results[variant]["worst"] <= 1e-10
    for variant in ("PlusSE", "PlusIAFF"):
        assert report.results[variant]["weakest"] >= 1e-2
        assert len(report.results[variant]["per_level"]) == 2


def test_rotate_composition_law_exhaustive():
    # verify rotates its input by the generator only, which is sound only if
    # _rotate is an action of C_N, bit for bit
    image = Rng(23).uniform((2, 3, 8, 8))
    for n in (1, 2, 4):
        cfg = HarnessConfig(**{**TINY, "orientations": n})
        assert action_law_failures(lambda a, s: harness._rotate(cfg, Tensor(a), s).data,
                                   image, n) == []


def test_run_verify_trivial_group_is_vacuous():
    report = run_verify(HarnessConfig(**{**TINY, "orientations": 1}))
    assert report.exit_code == 0
    assert report.verdicts["g_act and the input rotation obey the C_1 group laws"] is True
    assert report.results["PlusSE"].get("vacuous") is True
    assert report.results["Baseline"]["worst"] == 0.0


@pytest.mark.parametrize("cfg", [
    HarnessConfig(**{**TINY, "orientations": 1}),
    HarnessConfig(**TINY),
    HarnessConfig(**{**TINY, "orientations": 4}),
    load_config(Path(__file__).resolve().parents[1] / "configs" / "small.json"),
], ids=["tiny-n1", "tiny", "tiny-n4", "small.json"])
def test_run_verify_shared_backbone_equals_full_forward_passes(cfg):
    # verify compares the generator, element 1, with the identity
    report = run_verify(cfg)
    assert report.exit_code == 0, report.summary_lines()
    assert set(report.results) == set(VARIANTS)
    assert set(report.timings) == {*VARIANTS, "backbone", "total", "workers"}
    generator = range(1, min(2, cfg.orientations))
    for variant in VARIANTS:
        per_seed = reference_seed_residuals(cfg, variant, generator)
        assert report.results[variant]["per_level"] == [max(r) for r in zip(*per_seed)]


def _count_calls(monkeypatch, tmp_path, stage="toy_backbone"):
    """Record every call of ``stage`` in every verify process, with verify
    split over two workers.  Each call appends one line to a file opened
    with O_APPEND, which a forked worker shares with the parent; the
    returned function reads the calls back as (variant, parameter seed)."""
    log = tmp_path / f"{stage}.calls"
    real = getattr(pyramid, stage)

    def counted(x, params):
        fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
        try:
            os.write(fd, f"{params.config.variant} {params.config.seed}\n".encode())
        finally:
            os.close(fd)
        return real(x, params)

    def calls():
        lines = log.read_text().splitlines() if log.exists() else []
        return [(variant, int(seed)) for variant, seed in map(str.split, lines)]

    # seeds and reseeds share one verify path, which calls the harness's names
    monkeypatch.setattr(harness, stage, counted)
    _force_workers(monkeypatch, 2)
    return calls


def _force_workers(monkeypatch, workers):
    monkeypatch.setattr(harness, "_workers", lambda count: workers)


@pytest.mark.parametrize("n", [1, 2, 4], ids=["n1", "n2", "n4"])
def test_run_verify_runs_the_backbone_once_per_seed_and_element(monkeypatch, tmp_path, n):
    calls = _count_calls(monkeypatch, tmp_path)
    cfg = HarnessConfig(**{**TINY, "orientations": n})
    report = run_verify(cfg)
    reseeds = sum(r.get("reseeds_used", 0) for r in report.results.values())
    # one backbone forward per seed for the identity and one for the
    # generator, not one per variant or per group element; a reseed runs
    # the same two for its one variant
    assert len(calls()) == (cfg.seeds + reseeds) * min(2, n)


@pytest.mark.parametrize("n", [1, 2, 4], ids=["n1", "n2", "n4"])
def test_run_verify_runs_the_laterals_once_per_seed_and_element(monkeypatch, tmp_path, n):
    calls = _count_calls(monkeypatch, tmp_path, "lateral_maps")
    cfg = HarnessConfig(**{**TINY, "orientations": n})
    report = run_verify(cfg)
    reseeds = sum(r.get("reseeds_used", 0) for r in report.results.values())
    # the five heads of a seed share one set of laterals per element checked
    assert len(calls()) == (cfg.seeds + reseeds) * min(2, n)


def test_draw_residuals_leaves_the_shared_laterals_untouched(monkeypatch):
    # build_pyramid consumes the list it is given; every head gets a copy,
    # so the shared list keeps its maps and the maps keep their bytes
    shared = []
    real = pyramid.lateral_maps

    def recorded(feats, params):
        laterals = real(feats, params)
        shared.append((laterals, list(laterals), [lat.data.copy() for lat in laterals]))
        return laterals

    monkeypatch.setattr(harness, "lateral_maps", recorded)
    cfg = HarnessConfig(**TINY)
    timings = dict.fromkeys(("backbone", *VARIANTS), 0.0)
    residuals = harness._draw_residuals(cfg, Rng(7), list(VARIANTS), timings)
    assert all(residuals[v] is not None for v in VARIANTS)
    assert len(shared) == min(2, cfg.orientations)  # the identity and the generator
    for laterals, objects, before in shared:
        assert len(laterals) == cfg.levels
        assert all(lat is obj for lat, obj in zip(laterals, objects))
        for lat, data in zip(laterals, before):
            assert lat.data.tobytes() == data.tobytes()


def test_run_verify_reseeds_run_one_variant_with_its_own_draw(monkeypatch, tmp_path):
    calls = _count_calls(monkeypatch, tmp_path)
    # no draw breaks by 10: every must-break seed spends its whole reseed budget
    cfg = HarnessConfig(**{**TINY, "fail_threshold": 10.0})
    report = run_verify(cfg)
    assert report.exit_code == 4 and report.inconclusive
    reseeds = {v: report.results[v]["reseeds_used"] for v in ("PlusSE", "PlusIAFF")}
    assert reseeds == {"PlusSE": cfg.seeds * cfg.reseeds, "PlusIAFF": cfg.seeds * cfg.reseeds}
    assert len(calls()) == (cfg.seeds + sum(reseeds.values())) * min(2, cfg.orientations)
    reseed_draws = {v: {seed for variant, seed in calls() if variant == v} for v in reseeds}
    assert len(reseed_draws["PlusSE"]) == cfg.seeds * cfg.reseeds
    assert not reseed_draws["PlusSE"] & reseed_draws["PlusIAFF"]


@pytest.mark.parametrize("n", [1, 2, 4], ids=["n1", "n2", "n4"])
def test_verify_builds_each_variants_parameters_as_init_pyramid(n):
    cfg = HarnessConfig(**{**TINY, "orientations": n})
    param_seed = 1234
    params = harness._variant_params(cfg, param_seed, list(VARIANTS))
    assert list(params) == list(VARIANTS)
    for variant in VARIANTS:
        got = pyramid.named_parameters(params[variant])
        want = pyramid.named_parameters(
            pyramid.init_pyramid(cfg.pyramid_config(variant, param_seed)))
        assert params[variant].config == cfg.pyramid_config(variant, param_seed)
        assert [name for name, _ in got] == [name for name, _ in want]
        for (name, a), (_, b) in zip(got, want):
            assert np.array_equal(a.data, b.data), (variant, name)


def test_verify_runs_init_pyramid_once_per_draw(monkeypatch):
    calls = []
    real = pyramid.init_pyramid

    def counted(config):
        calls.append(config.variant)
        return real(config)

    monkeypatch.setattr(harness, "init_pyramid", counted)
    _force_workers(monkeypatch, 1)
    cfg = HarnessConfig(**TINY)
    timings = dict.fromkeys(("backbone", *VARIANTS), 0.0)
    harness._draw_residuals(cfg, Rng(7), list(VARIANTS), timings)
    assert calls == [VARIANTS[0]]
    # a seed's shared draw, then one draw of its variant per reseed
    calls.clear()
    report = run_verify(dataclasses.replace(cfg, fail_threshold=10.0))
    reseeds = {v: report.results[v]["reseeds_used"] for v in ("PlusSE", "PlusIAFF")}
    assert calls.count(VARIANTS[0]) == cfg.seeds
    assert {v: calls.count(v) for v in reseeds} == reseeds
    assert len(calls) == cfg.seeds + sum(reseeds.values())


def test_run_verify_non_finite_backbone_fails_every_variant(monkeypatch):
    real = pyramid.toy_backbone

    def poisoned(x, params):
        return [Tensor(np.full(f.shape, np.nan)) for f in real(x, params)]

    monkeypatch.setattr(harness, "toy_backbone", poisoned)
    report = run_verify(HarnessConfig(**TINY))
    assert report.exit_code == 3 and report.non_finite
    assert report.results == {v: {"finite": False} for v in VARIANTS}
    assert report.verdicts == {"g_act and the input rotation obey the C_2 group laws": True,
                               **{f"{v} finite": False for v in VARIANTS}}


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _verify_with_workers(monkeypatch, cfg, workers):
    _force_workers(monkeypatch, workers)
    report = run_verify(cfg)
    _no_child_left()
    assert report.timings["workers"] == min(workers, cfg.seeds)
    return report


@pytest.mark.parametrize("n", [1, 2, 4], ids=["n1", "n2", "n4"])
def test_run_verify_split_equals_serial(monkeypatch, n):
    # three seeds: two workers get one seed and two; five workers are more
    # than there are seeds, so three processes run
    cfg = HarnessConfig(**{**TINY, "orientations": n, "seeds": 3})
    serial = _verify_with_workers(monkeypatch, cfg, 1)
    for workers in (2, 3, 5):
        split = _verify_with_workers(monkeypatch, cfg, workers)
        assert split.results == serial.results, workers
        assert split.verdicts == serial.verdicts, workers
        assert split.exit_code == serial.exit_code == 0


def test_run_verify_split_non_finite_seed_in_a_worker(monkeypatch):
    # seed 1 is in the second worker's share; its backbone is NaN, seeds 0
    # and 2 are not
    cfg = HarnessConfig(**{**TINY, "seeds": 3})
    poisoned_seed = Rng(cfg.seed).derive("verify/1").derive("params").seed
    real = pyramid.toy_backbone

    def poisoned(x, params):
        feats = real(x, params)
        if params.config.seed != poisoned_seed:
            return feats
        return [Tensor(np.full(f.shape, np.nan)) for f in feats]

    monkeypatch.setattr(harness, "toy_backbone", poisoned)
    serial = _verify_with_workers(monkeypatch, cfg, 1)
    split = _verify_with_workers(monkeypatch, cfg, 2)
    assert serial.exit_code == split.exit_code == 3
    assert split.non_finite and serial.non_finite
    assert split.results == serial.results == {v: {"finite": False} for v in VARIANTS}
    assert split.verdicts == serial.verdicts


@pytest.mark.parametrize("n", [2, 4], ids=["n2", "n4"])
def test_run_verify_one_variant_non_finite(monkeypatch, n):
    # PlusIAFF's heads are NaN on seed 1, in the second worker's share when split;
    # the other variants and PlusIAFF's other seeds are untouched
    cfg = HarnessConfig(**{**TINY, "orientations": n, "seeds": 3})
    clean = _verify_with_workers(monkeypatch, cfg, 1)
    poisoned_seed = Rng(cfg.seed).derive("verify/1").derive("params").seed
    real = pyramid.build_pyramid

    def poisoned(laterals, params):
        levels = real(laterals, params)
        if (params.config.variant, params.config.seed) != ("PlusIAFF", poisoned_seed):
            return levels
        return [Tensor(np.full(fm.shape, np.nan)) for fm in levels]

    monkeypatch.setattr(harness, "build_pyramid", poisoned)
    serial = _verify_with_workers(monkeypatch, cfg, 1)
    split = _verify_with_workers(monkeypatch, cfg, 2)
    for report in (serial, split):
        assert report.exit_code == 3 and report.non_finite
        assert report.results["PlusIAFF"] == {"finite": False}
        assert [name for name, ok in report.verdicts.items() if not ok] == ["PlusIAFF finite"]
        for variant in VARIANTS:
            if variant != "PlusIAFF":
                assert report.results[variant] == clean.results[variant], variant
    assert split.results == serial.results
    assert split.verdicts == serial.verdicts


def test_draw_residuals_frees_each_head_before_the_next(monkeypatch):
    # Traced memory as each head starts on the identity's laterals: a head
    # whose two pyramids outlive its residuals (held by a loop variable, say)
    # adds 2.58 level-0 maps to the next variant's entry; released, the five
    # entries lie within 0.07 maps of each other.
    entries, level0 = [], []
    real = pyramid.build_pyramid

    def recorded(laterals, params):
        entries.append(tracemalloc.get_traced_memory()[0])
        level0.append(laterals[0].data.nbytes)
        return real(laterals, params)

    monkeypatch.setattr(harness, "build_pyramid", recorded)
    cfg = HarnessConfig(**{**TINY, "levels": 3, "kernel_channels": 4, "orientations": 4,
                           "image_size": 32})
    timings = dict.fromkeys(("backbone", *VARIANTS), 0.0)
    tracemalloc.start()
    try:
        residuals = harness._draw_residuals(cfg, Rng(7), list(VARIANTS), timings)
    finally:
        tracemalloc.stop()
    assert all(residuals[v] is not None for v in VARIANTS)
    assert len(entries) == 2 * len(VARIANTS)  # the identity and the generator per head
    identity = entries[::2]
    assert max(identity) - min(identity) <= level0[0], [
        (e - min(identity)) / level0[0] for e in identity]


def _fail_in(monkeypatch, where):
    """Make a split run fail in a worker (its backbone raises) or in the
    parent (its fork of the second worker fails, the first one running)."""
    parent = os.getpid()
    if where == "worker":
        real = pyramid.toy_backbone

        def failing(x, params):
            if os.getpid() != parent:
                raise ShapeError("raised in the worker")
            return real(x, params)

        # verify calls the harness's name, demo's run_pyramid the pyramid's
        monkeypatch.setattr(harness, "toy_backbone", failing)
        monkeypatch.setattr(pyramid, "toy_backbone", failing)
        return ShapeError, "raised in the worker"
    forks = []
    real_fork = os.fork

    def failing_fork():
        forks.append(None)
        if len(forks) == 2:
            raise BlockingIOError("raised in the parent")
        return real_fork()

    monkeypatch.setattr(os, "fork", failing_fork)
    return BlockingIOError, "raised in the parent"


def _open_fds():
    """How many descriptors this process holds open; None where
    ``/proc/self/fd`` is missing."""
    fds = Path("/proc/self/fd")
    return len(list(fds.iterdir())) if fds.is_dir() else None


@pytest.mark.parametrize("where", ["worker", "parent"])
def test_run_verify_split_raises_and_reaps(monkeypatch, where):
    error, message = _fail_in(monkeypatch, where)
    _force_workers(monkeypatch, 2)
    fds = _open_fds()
    with pytest.raises(error, match=f"^{message}$"):
        run_verify(HarnessConfig(**TINY))
    _no_child_left()
    assert _open_fds() == fds  # every pipe is closed, the failed fork's too


def test_fork_map_errors_kill_and_reap_every_worker():
    assert harness._fork_map(lambda share: share * share, [1, 2, 3]) == [1, 4, 9]
    _no_child_left()

    def vanish(share):
        if share == 1:
            os._exit(0)
        return share

    with pytest.raises(RuntimeError, match="exited without reporting"):
        harness._fork_map(vanish, [0, 1, 2])
    _no_child_left()

    def fail_first(share):
        if share:
            time.sleep(60)  # killed once the first share's error is read
        raise ValueError("the first share failed")

    start = time.monotonic()
    with pytest.raises(ValueError, match="^the first share failed$"):
        harness._fork_map(fail_first, [0, 1])
    _no_child_left()
    assert time.monotonic() - start < 30


def test_verify_workers_rule(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)

    def workers(seeds=20, **env):
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        try:
            return harness._workers(seeds)
        finally:
            for var in env:
                monkeypatch.delenv(var)

    assert workers() == 1  # BLAS may use every core: one process
    assert workers(OPENBLAS_NUM_THREADS="1") == 4
    assert workers(OMP_NUM_THREADS="1") == 4
    assert workers(OPENBLAS_NUM_THREADS="2") == 2
    assert workers(OPENBLAS_NUM_THREADS="3") == 1
    assert workers(OPENBLAS_NUM_THREADS="8") == 1
    assert workers(OPENBLAS_NUM_THREADS="4", OMP_NUM_THREADS="1") == 1  # OpenBLAS's own first
    for bad in ("one", "", "0", "-1", "1.5"):
        assert workers(OPENBLAS_NUM_THREADS=bad) == 1, bad  # counts as unset
        assert workers(OPENBLAS_NUM_THREADS=bad, OMP_NUM_THREADS="1") == 4, bad
    assert workers(seeds=3, OPENBLAS_NUM_THREADS="1") == 3
    assert workers(seeds=1, OPENBLAS_NUM_THREADS="1") == 1
    # verify's seeds and demo's samples share one rule: contiguous, balanced
    # shares, one per process that runs; with the BLAS thread count unset,
    # one share
    assert harness._shares(2, workers(seeds=2)) == [slice(0, 2)]
    assert harness._shares(2, workers(seeds=2, OMP_NUM_THREADS="1")) == [
        slice(0, 1), slice(1, 2)]
    assert harness._shares(3, 5) == [slice(0, 1), slice(1, 2), slice(2, 3)]
    assert harness._shares(20, 3) == [slice(0, 6), slice(6, 13), slice(13, 20)]


def test_run_oracle_tiny_config():
    report = run_oracle(HarnessConfig(**TINY))
    assert report.exit_code == 0
    for name, outcome in report.results.items():
        assert outcome["max_abs_deviation"] <= 1e-12, name


def test_run_oracle_judges_each_check_by_its_own_trials(monkeypatch):
    cfg = HarnessConfig(**TINY)
    clean = run_oracle(cfg)
    monkeypatch.setattr(harness, "_oracle_lift_conv", lambda rng: float("nan"))
    poisoned = run_oracle(cfg)
    assert poisoned.exit_code == 3 and poisoned.non_finite
    assert poisoned.results.pop("lift_conv") == {"finite": False}
    assert poisoned.verdicts.pop("lift_conv finite") is False
    del clean.results["lift_conv"]
    del clean.verdicts[f"lift_conv matches reference (<= {cfg.oracle_tolerance:g})"]
    assert poisoned.results == clean.results
    assert poisoned.verdicts == clean.verdicts and all(clean.verdicts.values())


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_run_gradcheck_reports_non_finite_gradients(monkeypatch, bad):
    from reafuse import tensor as ops
    from reafuse.tensor import _record

    def cases(config, rng):
        x = Tensor(np.ones((3,)))
        yield "square", lambda: ops.tsum(ops.mul(x, x)), [x]
        y = Tensor(np.ones((3,)))
        yield "poisoned", lambda: ops.tsum(_record(Tensor(y.data * 2.0), "poisoned", (y,),
                                                   lambda g: (g * bad,))), [y]

    monkeypatch.setattr(harness, "_gradcheck_cases", cases)
    report = run_gradcheck(HarnessConfig(**TINY))
    assert report.exit_code == 3 and report.non_finite
    assert report.verdicts["poisoned gradients finite"] is False
    assert report.verdicts[f"square grad matches finite differences "
                           f"(<= {report.config['gradcheck_tolerance']:g})"] is True
    assert set(report.results) == {"square"}


def test_run_demo_writes_identical_artifacts(tmp_path):
    cfg = HarnessConfig(**TINY)
    r1 = run_demo(cfg, tmp_path / "one")
    r2 = run_demo(cfg, tmp_path / "two")
    assert r1.exit_code == 0 and r2.exit_code == 0
    for name in r1.results["files"]:
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()


def test_run_demo_reports_only_the_files_it_wrote(tmp_path):
    # a 3-level demo, then a 2-level one into the same directory: the stale
    # level2.raft of the first is not one the second wrote
    run_demo(HarnessConfig(**{**TINY, "levels": 3}), tmp_path)
    report = run_demo(HarnessConfig(**TINY), tmp_path)
    assert report.exit_code == 0
    assert report.results["files"] == ["level0.raft", "level1.raft", "manifest.json"]
    assert len(report.results["levels"]) == 2
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert [level["file"] for level in manifest["levels"]] == ["level0.raft", "level1.raft"]


def test_run_demo_non_finite_writes_nothing(monkeypatch, tmp_path):
    # Baseline's forward, in one process or split over two, is NaN in all
    real = pyramid.build_pyramid

    def poisoned(laterals, params):
        return [Tensor(np.full(fm.shape, np.nan)) for fm in real(laterals, params)]

    monkeypatch.setattr(pyramid, "build_pyramid", poisoned)
    for workers in (1, 2):
        _force_workers(monkeypatch, workers)
        report = run_demo(HarnessConfig(**{**TINY, "variant": "Baseline"}),
                          tmp_path / "out")
        _no_child_left()
        assert report.exit_code == 3 and report.non_finite
        assert report.verdicts == {"pyramid outputs finite": False}
        assert not list(tmp_path.rglob("*.raft"))
        assert report.timings["workers"] == workers
        assert set(report.timings) == {"workers", "forward", "total"}


def test_run_demo_non_finite_in_a_worker_writes_nothing(monkeypatch, tmp_path):
    # Baseline's workers run the whole forward; only theirs is NaN
    parent = os.getpid()
    real = pyramid.build_pyramid

    def poisoned(laterals, params):
        levels = real(laterals, params)
        if os.getpid() == parent:
            return levels
        return [Tensor(np.full(fm.shape, np.nan)) for fm in levels]

    monkeypatch.setattr(pyramid, "build_pyramid", poisoned)
    _force_workers(monkeypatch, 2)
    report = run_demo(HarnessConfig(**{**TINY, "variant": "Baseline"}),
                      tmp_path / "out")
    _no_child_left()
    assert report.exit_code == 3 and report.non_finite
    assert report.verdicts == {"pyramid outputs finite": False}
    assert not list(tmp_path.rglob("*.raft"))
    assert report.timings["workers"] == 2


@pytest.mark.parametrize("variant", VARIANTS)
def test_run_demo_runs_the_head_in_the_parent_only_with_attention(monkeypatch, tmp_path,
                                                                   variant):
    # every toy_backbone and build_pyramid call, in any process, appends its
    # stage and pid to a file opened with O_APPEND, which a forked worker
    # shares with the parent
    log = tmp_path / "stages.pids"

    def logged(stage):
        real = getattr(pyramid, stage)

        def call(x, params):
            fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
            try:
                os.write(fd, f"{stage} {os.getpid()}\n".encode())
            finally:
                os.close(fd)
            return real(x, params)

        return call

    for stage in ("toy_backbone", "build_pyramid"):
        monkeypatch.setattr(pyramid, stage, logged(stage))
    _force_workers(monkeypatch, 2)
    report = run_demo(HarnessConfig(**{**TINY, "variant": variant}),
                      tmp_path / "out")
    _no_child_left()
    assert report.exit_code == 0, report.summary_lines()
    calls = [line.split() for line in log.read_text().splitlines()]
    for stage in ("toy_backbone", "build_pyramid"):
        pids = [int(pid) for name, pid in calls if name == stage]
        if variant == "Baseline":  # no attention: the two workers run it all
            assert len(set(pids)) == 2 and os.getpid() not in pids, stage
        else:  # attention couples the samples: one process, no fork
            assert pids == [os.getpid()], stage
    assert report.timings["workers"] == (2 if variant == "Baseline" else 1)


@pytest.mark.parametrize("batch", [3, 5])
@pytest.mark.parametrize("n", [1, 2, 4], ids=["n1", "n2", "n4"])
def test_run_pyramid_without_attention_splits_by_batch(n, batch):
    # the property demo's whole-forward split rests on: with no attention,
    # every op acts on each sample alone, so a share's levels are the rows
    # of the whole batch's, bit for bit
    params = pyramid.init_pyramid(pyramid.PyramidConfig(
        levels=3, kernel_channels=8, orientations=n, variant="Baseline", seed=11))
    assert all(att is None for att in params.attention)
    image = Rng(batch).uniform((batch, 3, 32, 32))
    whole = [fm.data for fm in pyramid.run_pyramid(Tensor(image), params)]
    for workers in range(2, batch + 1):
        for rows in harness._shares(batch, workers):
            levels = pyramid.run_pyramid(Tensor(image[rows]), params)
            for level, want in zip(levels, whole):
                assert np.array_equal(level.data, want[rows]), (workers, rows)


def _digests(out_dir):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out_dir.iterdir()}


@pytest.mark.parametrize("variant", VARIANTS)
def test_run_demo_split_writes_the_serial_bytes(monkeypatch, tmp_path, variant):
    # TINY at batch 3: two workers get one sample and two; five workers are
    # more than there are samples, so three processes run Baseline's forward.
    # A pyramid with attention runs in one process whatever the worker count.
    # At TINY's widths an attention head split wrongly still writes the serial
    # bytes (PlusSE's matmuls round alike at every row count), so the wider
    # case, at batch 4, is the one where a split that couples the samples shows.
    for size in (dict(batch=3),
                 dict(levels=3, kernel_channels=8, orientations=4, image_size=32, batch=4)):
        cfg = HarnessConfig(**{**TINY, **size, "variant": variant})
        digests = {}
        for workers in (1, 2, 3, 5):
            out = tmp_path / f"{cfg.image_size}-{workers}"
            _force_workers(monkeypatch, workers)
            report = run_demo(cfg, out)
            _no_child_left()
            assert report.exit_code == 0, report.summary_lines()
            assert report.timings["workers"] == (
                min(workers, cfg.batch) if variant == "Baseline" else 1)
            assert set(report.timings) == {"workers", "forward", "write", "total"}
            digests[workers] = _digests(out)
        assert digests[1] and all(d == digests[1] for d in digests.values()), (variant, size)


@pytest.mark.parametrize("where", ["worker", "parent"])
def test_run_demo_split_raises_and_reaps(monkeypatch, tmp_path, where):
    # Baseline's is the forward demo splits
    error, message = _fail_in(monkeypatch, where)
    _force_workers(monkeypatch, 2)
    fds = _open_fds()
    with pytest.raises(error, match=f"^{message}$"):
        run_demo(HarnessConfig(**{**TINY, "variant": "Baseline"}),
                 tmp_path / "out")
    _no_child_left()
    assert _open_fds() == fds  # every pipe is closed, the failed fork's too
    assert not (tmp_path / "out").exists()


def test_import_loads_no_process_machinery():
    # the fork machinery imports what it needs when verify or demo splits
    # its work, so no command pays for it at start-up
    script = ("import sys, reafuse; print(' '.join(sorted({'multiprocessing', 'concurrent', "
              "'subprocess', 'signal', 'socket', 'mmap'} & set(sys.modules))))")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []


# -- command-line front-end ---------------------------------------------------


_ALLOCATOR_PROBE = """
import os
import numpy as np
{setup}
def rss():
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
before = rss()
for _ in range(3):
    a = np.ones(2 * 2**20)  # 16 MiB, every page touched
    del a
print((rss() - before) / 2**20)
"""


@pytest.mark.skipif(not (os.path.exists("/proc/self/statm")
                         and platform.libc_ver()[0] == "glibc"),
                    reason="glibc allocator policy, read through /proc/self/statm")
def test_cli_allocator_policy_gives_freed_maps_back_and_import_leaves_it_alone():
    # with glibc's defaults the first 16 MiB buffer freed raises the dynamic
    # mmap threshold to 16 MiB, so the next ones come from the heap, which
    # keeps them resident; under the policy each one is unmapped when freed
    def grown_mib(setup):
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        for name in ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_"):
            env.pop(name, None)
        done = subprocess.run([sys.executable, "-c", _ALLOCATOR_PROBE.format(setup=setup)],
                              env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        return float(done.stdout)

    assert grown_mib("from reafuse import cli; cli._set_allocator_policy()") < 2
    assert grown_mib("import reafuse") > 14


def test_cli_verify_and_report_file(tmp_path):
    cfg = write_config(tmp_path, seeds=1, trials=5)
    report_path = tmp_path / "report.json"
    code = cli.entrypoint(["oracle", "--config", str(cfg), "--json", str(report_path)])
    assert code == 0
    payload = json.loads(report_path.read_text())
    assert payload["command"] == "oracle" and payload["passed"]


def test_cli_seed_override(tmp_path):
    cfg = write_config(tmp_path, seeds=1, trials=5)
    out = tmp_path / "report.json"
    assert cli.entrypoint(["oracle", "--config", str(cfg), "--seed", "77",
                           "--json", str(out)]) == 0
    assert json.loads(out.read_text())["seed"] == 77
    assert cli.entrypoint(["oracle", "--config", str(cfg), "--seed", "-1"]) == 2


def test_cli_invalid_config_paths(tmp_path, capsys):
    assert cli.entrypoint(["verify", "--config", str(tmp_path / "missing.json")]) == 2
    bad = write_config(tmp_path, image_size=7)
    assert cli.entrypoint(["verify", "--config", str(bad)]) == 2
    assert "spatial size not divisible" in capsys.readouterr().err


def test_cli_demo_requires_out_and_writable_target(tmp_path):
    cfg = write_config(tmp_path)
    # --out belongs to demo alone: a usage error, which argparse exits with 2
    for argv in (["demo", "--config", str(cfg)],
                 ["verify", "--config", str(cfg), "--out", str(tmp_path / "v")]):
        with pytest.raises(SystemExit) as exited:
            cli.entrypoint(argv)
        assert exited.value.code == 2, argv
    assert cli.entrypoint(["demo", "--config", str(cfg),
                           "--out", "/proc/definitely/not/writable"]) == 2
    assert cli.entrypoint(["demo", "--config", str(cfg), "--out", str(tmp_path / "d")]) == 0


def test_python_m_reafuse_runs_the_cli(tmp_path):
    # the path of the installed script: __main__ -> cli.main -> sys.exit
    root = Path(__file__).resolve().parents[1]
    small = str(root / "configs" / "small.json")
    env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "reafuse", *argv], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)

    done = run("oracle", "--config", small, "--json", "r.json")
    assert done.returncode == 0, done.stderr
    report = json.loads((tmp_path / "r.json").read_text())
    assert report["command"] == "oracle" and report["passed"] and report["exit_code"] == 0
    for argv in (["demo", "--config", small], ["verify", "--config", small, "--out", "x"]):
        done = run(*argv)
        assert done.returncode == 2, argv
        assert "usage:" in done.stderr, argv
    assert not (tmp_path / "x").exists()


def test_cli_maps_non_finite_to_exit_3(tmp_path, monkeypatch):
    cfg = write_config(tmp_path)

    def explode(config):
        raise FloatingPointError("synthetic overflow")

    monkeypatch.setattr(cli, "run_verify", explode)
    assert cli.entrypoint(["verify", "--config", str(cfg)]) == 3


@pytest.mark.parametrize("seed,case,index", [
    # a pre-activation 2.8e-6 from a relu kink, outside a fixed 1e-6 window
    (7539301380088159303, "pyramid 2-level ReAFFPN", 1),
    # O(h^2) truncation error of 2.6e-6 .. 4.6e-6 in the plain central difference
    (12247516548737317978, "plain_iaff_forward", 8),
    (10985569071395579521, "plain_iaff_forward", 0),
    (9473270733391984511, "plain_iaff_forward", 0),
])
def test_gradcheck_regression_seeds(seed, case, index):
    # the tensor of each case that failed at the default step and tolerance,
    # checked on every coordinate with the cases the CLI builds for the seed
    cfg = HarnessConfig(seed=seed)
    cases = {name: (loss, wrt) for name, loss, wrt in
             _gradcheck_cases(cfg, Rng(seed).derive("gradcheck").derive("cases"))}
    loss, wrt = cases[case]
    tensor = wrt[index]
    report = gradcheck(loss, [tensor], Rng(0), h=cfg.gradcheck_step,
                       tol=cfg.gradcheck_tolerance, max_coords=tensor.size)
    assert report.passed, report.failures
    assert report.checked + report.skipped_kinks == tensor.size
    assert report.skipped_kinks == (1 if case.startswith("pyramid") else 0)
