"""Config validation, report/exit-code semantics, and CLI behavior."""

import dataclasses
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reafuse import cli, harness, pyramid
from reafuse import tensor as ops
from reafuse.autograd import gradcheck
from reafuse.groupequiv import ReFeatureMap, g_act, relative_residual
from reafuse.harness import (
    ConfigError,
    HarnessConfig,
    Report,
    _gradcheck_cases,
    load_config,
    run_demo,
    run_oracle,
    run_verify,
)
from reafuse.pyramid import VARIANTS, init_pyramid, run_pyramid
from reafuse.tensor import Rng, Tensor

TINY = dict(levels=2, kernel_channels=2, orientations=2, reduction=1,
            image_size=8, batch=2, seeds=2, trials=10, seed=5)


def write_config(tmp_path, **overrides):
    payload = {**TINY, **overrides}
    p = tmp_path / "config.json"
    p.write_text(json.dumps(payload))
    return p


def test_defaults_validate():
    cfg = HarnessConfig().validate()
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
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_load_config_rejects_non_finite_floats(tmp_path, key, value):
    with pytest.raises(ConfigError, match=key):
        load_config(write_config(tmp_path, **{key: value}))


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
        HarnessConfig(reseeds=10**12).validate()


def test_pyramid_levels_cap_is_the_deepest_the_image_cap_allows():
    deepest = pyramid.MAX_LEVELS
    # the smallest image of that depth, at the smallest batch, fills the image cap
    assert 2 ** (deepest - 1) * 2 == harness.MAX_IMAGE_SIZE_X_BATCH
    assert HarnessConfig(levels=deepest, image_size=256, batch=2).validate().levels == deepest
    with pytest.raises(ConfigError, match="spatial size not divisible"):
        HarnessConfig(levels=deepest + 1, image_size=256, batch=2).validate()


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
    assert HarnessConfig(image_size=256, batch=2).validate().image_size == 256
    configs = Path(__file__).resolve().parents[1] / "configs"
    for path in sorted(configs.glob("*.json")):
        cfg = load_config(path)
        assert cfg.kernel_channels * cfg.orientations * cfg.image_size ** 2 * cfg.batch <= cap
    # demo-large: configs/default.json as Baseline at 128 x 128, batch 4, half the cap
    large = dataclasses.replace(load_config(configs / "default.json"), variant="Baseline",
                                image_size=128, batch=4).validate()
    assert large.kernel_channels * large.orientations * 128 ** 2 * 4 == 2_097_152 == cap // 2
    with pytest.raises(ConfigError, match=r"kernel_channels x orientations x image_size\^2 "
                                          r"x batch = 64 x 4 x 256\^2 x 2 = 33554432 above"):
        HarnessConfig(kernel_channels=64, image_size=256, batch=2).validate()
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
            HarnessConfig(kernel_channels=4096, reduction=2).validate()
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
    assert cfg == cfg.validate()


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
        HarnessConfig(pass_threshold=1e-2, fail_threshold=1e-10).validate()
    with pytest.raises(ConfigError):
        HarnessConfig(batch=1).validate()
    with pytest.raises(ConfigError, match="orientations must be 1, 2 or 4, got 3"):
        HarnessConfig(orientations=3).validate()
    with pytest.raises(ConfigError):
        HarnessConfig(gradcheck_step=1e-9).validate()
    with pytest.raises(ConfigError):
        HarnessConfig(seed=2**64).validate()
    with pytest.raises(ConfigError):
        HarnessConfig(kernel_channels=8, reduction=3).validate()


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
    report = run_verify(HarnessConfig(**TINY).validate())
    assert report.exit_code == 0, report.summary_lines()
    assert set(report.results) == {"Baseline", "PlusSE", "PlusReCA", "PlusIAFF", "ReAFFPN"}
    for variant in ("Baseline", "PlusReCA", "ReAFFPN"):
        assert report.results[variant]["worst"] <= 1e-10
    for variant in ("PlusSE", "PlusIAFF"):
        assert report.results[variant]["weakest"] >= 1e-2
        assert len(report.results[variant]["per_level"]) == 2


def test_run_verify_trivial_group_is_vacuous():
    report = run_verify(HarnessConfig(**{**TINY, "orientations": 1}).validate())
    assert report.exit_code == 0
    assert report.results["PlusSE"].get("vacuous") is True
    assert report.results["Baseline"]["worst"] == 0.0


def _reference_residuals(cfg, variant, rng):
    image = Tensor(rng.derive("image").uniform((cfg.batch, 3, cfg.image_size, cfg.image_size)))
    params = init_pyramid(cfg.pyramid_config(variant, rng.derive("params").seed))
    base = run_pyramid(image, params)
    residuals = [0.0] * cfg.levels
    for s in range(1, cfg.orientations):
        got = run_pyramid(ops.rot90(image, s * 4 // cfg.orientations), params)
        for l in range(cfg.levels):
            residuals[l] = max(residuals[l], relative_residual(got[l], g_act(base[l], s)))
    return residuals


def _reference_per_level(cfg, variant):
    """verify's per-level residuals for one variant from full forward passes
    per seed and group element, with verify's seed derivation and reseeds."""
    master = Rng(cfg.seed)
    per_level = [0.0] * cfg.levels
    for idx in range(cfg.seeds):
        rng = master.derive(f"verify/{idx}")
        residuals = _reference_residuals(cfg, variant, rng)
        attempt = 0
        while (variant in ("PlusSE", "PlusIAFF") and max(residuals) < cfg.fail_threshold
               and attempt < cfg.reseeds):
            attempt += 1
            residuals = _reference_residuals(
                cfg, variant, rng.derive(f"reseed/{variant}/{attempt}"))
        per_level = [max(a, b) for a, b in zip(per_level, residuals)]
    return per_level


@pytest.mark.parametrize("cfg", [
    HarnessConfig(**TINY).validate(),
    load_config(Path(__file__).resolve().parents[1] / "configs" / "small.json"),
], ids=["tiny", "small.json"])
def test_run_verify_shared_backbone_equals_full_forward_passes(cfg):
    report = run_verify(cfg)
    assert report.exit_code == 0, report.summary_lines()
    assert set(report.results) == set(VARIANTS)
    assert set(report.timings) == {*VARIANTS, "backbone", "total"}
    for variant in VARIANTS:
        assert report.results[variant]["per_level"] == _reference_per_level(cfg, variant)


def _count_calls(monkeypatch, stage="toy_backbone"):
    calls = []
    real = getattr(pyramid, stage)

    def counted(x, params):
        calls.append((params.config.variant, params.config.seed))
        return real(x, params)

    # seeds and reseeds share one verify path, which calls the harness's names
    monkeypatch.setattr(harness, stage, counted)
    return calls


def test_run_verify_runs_the_backbone_once_per_seed_and_element(monkeypatch):
    calls = _count_calls(monkeypatch)
    cfg = HarnessConfig(**TINY).validate()
    report = run_verify(cfg)
    reseeds = sum(r.get("reseeds_used", 0) for r in report.results.values())
    # one backbone forward per seed and group element, not one per variant
    # too; a reseed runs one backbone forward per element for its one variant
    assert len(calls) == (cfg.seeds + reseeds) * cfg.orientations


def test_run_verify_runs_the_laterals_once_per_seed_and_element(monkeypatch):
    calls = _count_calls(monkeypatch, "lateral_maps")
    cfg = HarnessConfig(**TINY).validate()
    report = run_verify(cfg)
    reseeds = sum(r.get("reseeds_used", 0) for r in report.results.values())
    # the five heads of a seed share one set of laterals per group element
    assert len(calls) == (cfg.seeds + reseeds) * cfg.orientations


def test_draw_residuals_leaves_the_shared_laterals_untouched(monkeypatch):
    # build_pyramid consumes the list it is given; every head gets a copy,
    # so the shared list keeps its maps and the maps keep their bytes
    shared = []
    real = pyramid.lateral_maps

    def recorded(feats, params):
        laterals = real(feats, params)
        shared.append((laterals, list(laterals), [lat.data.data.copy() for lat in laterals]))
        return laterals

    monkeypatch.setattr(harness, "lateral_maps", recorded)
    cfg = HarnessConfig(**TINY).validate()
    timings = dict.fromkeys(("backbone", *VARIANTS), 0.0)
    residuals = harness._draw_residuals(cfg, Rng(7), list(VARIANTS), timings)
    assert all(residuals[v] is not None for v in VARIANTS)
    assert len(shared) == cfg.orientations
    for laterals, objects, before in shared:
        assert len(laterals) == cfg.levels
        assert all(lat is obj for lat, obj in zip(laterals, objects))
        for lat, data in zip(laterals, before):
            assert lat.data.data.tobytes() == data.tobytes()


def test_run_verify_reseeds_run_one_variant_with_its_own_draw(monkeypatch):
    calls = _count_calls(monkeypatch)
    # no draw breaks by 10: every must-break seed spends its whole reseed budget
    cfg = HarnessConfig(**{**TINY, "fail_threshold": 10.0}).validate()
    report = run_verify(cfg)
    assert report.exit_code == 4 and report.inconclusive
    reseeds = {v: report.results[v]["reseeds_used"] for v in ("PlusSE", "PlusIAFF")}
    assert reseeds == {"PlusSE": cfg.seeds * cfg.reseeds, "PlusIAFF": cfg.seeds * cfg.reseeds}
    assert len(calls) == (cfg.seeds + sum(reseeds.values())) * cfg.orientations
    reseed_draws = {v: {seed for variant, seed in calls if variant == v} for v in reseeds}
    assert len(reseed_draws["PlusSE"]) == cfg.seeds * cfg.reseeds
    assert not reseed_draws["PlusSE"] & reseed_draws["PlusIAFF"]


def test_run_verify_non_finite_backbone_fails_every_variant(monkeypatch):
    real = pyramid.toy_backbone

    def poisoned(x, params):
        return [ReFeatureMap(Tensor(np.full(f.shape, np.nan)), f.kernel_channels, f.orientations)
                for f in real(x, params)]

    monkeypatch.setattr(harness, "toy_backbone", poisoned)
    report = run_verify(HarnessConfig(**TINY).validate())
    assert report.exit_code == 3 and report.non_finite
    assert report.results == {v: {"finite": False} for v in VARIANTS}
    assert report.verdicts == {f"{v} finite": False for v in VARIANTS}


def test_run_oracle_tiny_config():
    report = run_oracle(HarnessConfig(**TINY).validate())
    assert report.exit_code == 0
    for name, outcome in report.results.items():
        assert outcome["max_abs_deviation"] <= 1e-12, name


def test_run_demo_writes_identical_artifacts(tmp_path):
    cfg = HarnessConfig(**TINY).validate()
    r1 = run_demo(cfg, tmp_path / "one")
    r2 = run_demo(cfg, tmp_path / "two")
    assert r1.exit_code == 0 and r2.exit_code == 0
    for name in r1.results["files"]:
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()


# -- command-line front-end ---------------------------------------------------


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
    assert cli.entrypoint(["demo", "--config", str(cfg)]) == 2
    assert cli.entrypoint(["demo", "--config", str(cfg),
                           "--out", "/proc/definitely/not/writable"]) == 2
    assert cli.entrypoint(["demo", "--config", str(cfg), "--out", str(tmp_path / "d")]) == 0


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
    cfg = HarnessConfig(seed=seed).validate()
    cases = {name: (loss, wrt) for name, loss, wrt in
             _gradcheck_cases(cfg, Rng(seed).derive("gradcheck").derive("cases"))}
    loss, wrt = cases[case]
    tensor = wrt[index]
    report = gradcheck(loss, [tensor], Rng(0), h=cfg.gradcheck_step,
                       tol=cfg.gradcheck_tolerance, max_coords=tensor.size)
    assert report.passed, report.failures
    assert report.checked + report.skipped_kinks == tensor.size
    assert report.skipped_kinks == (1 if case.startswith("pyramid") else 0)
