"""Tests of the benchmark's own code: span arithmetic, metric names, seeded
configs and the correctness gates.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import run
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture
def reafuse_path(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))


def fake_clock(*ticks):
    it = iter(ticks)
    return lambda: next(it)


# -- spans ---------------------------------------------------------------------------


def test_self_time_subtracts_nested_spans_and_ops():
    rec = tracer.Recorder(clock=fake_clock(0.0, 1.0, 3.0, 4.0, 4.5, 10.0))

    def inner():
        return "inner"

    def outer():
        rec.call("layer.inner", inner, (), {})           # 1.0 .. 3.0
        return rec.call_op("tensor.add", lambda: None, (), {}, True)  # 4.0 .. 4.5

    rec.call("layer.outer", outer, (), {})              # 0.0 .. 10.0
    totals = rec.span_totals()
    assert totals["layer.inner"] == [1, 2.0]
    assert totals["layer.outer"] == [1, 7.5]
    assert totals["tensor.add"] == [1, 0.5]
    assert rec.ops == {("layer.outer", "tensor.add"): [1, 0.5, 0.5, 0]}
    (_, _, inner_parent, *_), (outer_id, _, outer_parent, *_) = rec.spans
    assert inner_parent == outer_id and outer_parent is None


def test_nested_ops_fold_into_their_parent_op():
    rec = tracer.Recorder(clock=fake_clock(0.0, 1.0, 2.0, 5.0))
    rec.call_op("tensor.batchnorm",
                lambda: rec.call_op("tensor.mul", lambda: None, (), {}, True), (), {}, False)
    assert rec.ops[("tensor.batchnorm", "tensor.mul")] == [1, 1.0, 1.0, 0]
    assert rec.ops[("", "tensor.batchnorm")] == [1, 5.0, 4.0, 0]


def test_span_stacks_are_per_thread():
    rec = tracer.Recorder()
    seen = []

    def worker():
        rec.call("layer.worker", lambda: None, (), {})

    def outer():
        t = threading.Thread(target=worker)
        t.start()
        t.join(timeout=10)
        seen.append(t.is_alive())

    rec.call("layer.outer", outer, (), {})
    assert seen == [False]
    parents = {name: parent for _, name, parent, *_ in rec.spans}
    assert parents == {"layer.worker": None, "layer.outer": None}


def test_install_traces_without_changing_results(reafuse_path):
    import numpy as np
    from reafuse import autograd, pyramid, reca, tensor
    from reafuse.tensor import Rng, Tensor

    rng = Rng(3)
    x = Tensor(rng.uniform((2, 3, 5, 5)), requires_grad=True)
    w = Tensor(rng.uniform((2, 3, 3, 3)), requires_grad=True)

    def loss():
        return tensor.tsum(tensor.relu(tensor.conv2d(x, w)))

    plain = autograd.gradcheck(loss, [x, w], Rng(1), max_coords=4)
    originals = (tensor.conv2d, reca.conv2d, pyramid.run_pyramid, autograd.Tape.trace)
    rec = tracer.Recorder()
    restore = tracer.install(rec)
    try:
        assert reca.conv2d is tensor.conv2d is not originals[0]
        traced = autograd.gradcheck(loss, [x, w], Rng(1), max_coords=4)
    finally:
        restore()
    assert (tensor.conv2d, reca.conv2d, pyramid.run_pyramid, autograd.Tape.trace) == originals
    assert (traced.checked, traced.skipped_kinks, traced.max_rel_error) == \
        (plain.checked, plain.skipped_kinks, plain.max_rel_error)
    evaluated = traced.checked + traced.skipped_kinks
    metrics = tracer.layer_metrics(rec, {})
    assert metrics["autograd.loss_evals"] == 1 + 2 * evaluated
    assert metrics["tensor.conv2d.calls"] == 1 + 2 * evaluated
    assert metrics["tensor.conv2d.gflop"] == pytest.approx(
        metrics["tensor.conv2d.calls"] * 2 * 2 * 25 * 3 * 9 * 2 / 1e9)
    assert metrics["autograd.tape_nodes"] == 3  # conv2d, relu, sum of the one replay
    assert metrics["tensor.graph_nodes"] == 3 * metrics["autograd.loss_evals"]
    assert np.isfinite(list(metrics.values())).all()


# -- metric names --------------------------------------------------------------------


def benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_metric_names_and_units_are_valid():
    for units in (run.END_TO_END_UNITS, tracer.PER_LAYER_UNITS):
        for name, unit in units.items():
            assert NAME.fullmatch(name), name
            assert UNIT.fullmatch(unit), unit


def test_benchmark_json_matches_what_the_benchmark_reports():
    spec = benchmark_json()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.PER_LAYER_UNITS
    assert {w["name"]: w["why"] for w in spec["workloads"]} == \
        {w.name: w.why for w in workloads.WORKLOADS.values() if w.name not in workloads.UNLISTED}
    assert set(workloads.UNLISTED) <= set(workloads.WORKLOADS)
    assert spec["paths"] == ["perfbench"]


def test_traced_run_reports_every_per_layer_metric():
    base = {"verdict_s": 2.0, "report": {"command": "verify", "results": {},
                                         "timings": dict.fromkeys(workloads.VARIANTS, 0.25)}}
    from_spans = tracer.layer_metrics(tracer.Recorder(), {})
    outside = run.outside_metrics(base, traced_s=3.0, written=0, save_s=0.0)
    assert not set(from_spans) & set(outside)
    assert set(from_spans) | set(outside) == set(tracer.PER_LAYER_UNITS)
    assert outside["harness.outside_variants_s"] == pytest.approx(0.75)
    assert outside["trace.overhead_s"] == pytest.approx(1.0)


# -- seeded configs ------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generated_config_follows_the_seed(name, reafuse_path, tmp_path):
    from reafuse import load_config

    w = workloads.WORKLOADS[name]
    a, again, b = (workloads.generate_config(w, s) for s in (7, 7, 8))
    assert a == again
    assert a["seed"] != b["seed"]
    assert {k: v for k, v in a.items() if k != "seed"} == \
        {k: v for k, v in b.items() if k != "seed"}
    assert {k: a[k] for k in w.overrides} == w.overrides
    path = tmp_path / "config.json"
    path.write_text(json.dumps(a))
    assert load_config(path).seed == a["seed"]


def test_implied_gradcheck_coords_matches_the_suite():
    # eleven cases at N=4, r=2: the count the gradcheck report gives at the seed commit
    assert workloads.implied_gradcheck_coords(workloads.DEFAULT_CONFIG) == 1766


# -- correctness gates ---------------------------------------------------------------


def verify_report(config):
    results = {}
    for v in workloads.VARIANTS:
        must_break = v not in workloads.EQUIVARIANT_VARIANTS
        results[v] = {"finite": True, "seeds": config["seeds"], "must_break": must_break,
                      "worst": 0.9 if must_break else 3e-15}
        if must_break:
            results[v].update(reseeds_used=1, undemonstrated_seeds=0)
    return {"command": "verify", "seed": config["seed"], "results": results,
            "verdicts": {f"{v} ok": True for v in workloads.VARIANTS},
            "non_finite": False, "inconclusive": False, "passed": True}


def test_verify_gate_accepts_a_good_report_and_counts_units():
    config = workloads.generate_config(workloads.WORKLOADS["verify-default"], 1)
    problems, units = workloads.check_verify(verify_report(config), config, 0)
    assert problems == []
    assert units == (5 * 20 + 2) * 3


@pytest.mark.parametrize("doctor", [
    lambda r: r["results"]["ReAFFPN"].update(worst=1e-3),
    lambda r: r["results"]["PlusSE"].update(undemonstrated_seeds=1),
    lambda r: r["results"].pop("PlusReCA"),
    lambda r: r["verdicts"].update({"Baseline ok": False}),
    lambda r: r.update(inconclusive=True),
    lambda r: r.update(seed=1),
])
def test_verify_gate_rejects_a_doctored_report(doctor):
    config = workloads.generate_config(workloads.WORKLOADS["verify-default"], 1)
    report = verify_report(config)
    doctor(report)
    assert workloads.check_verify(report, config, 0)[0]


def test_verify_gate_rejects_a_failing_exit_code():
    config = workloads.generate_config(workloads.WORKLOADS["verify-default"], 1)
    assert workloads.check_verify(verify_report(config), config, 1)[0]


def test_gradcheck_gate_rejects_too_few_coordinates():
    config = workloads.generate_config(workloads.WORKLOADS["gradcheck-default"], 1)
    report = {"command": "gradcheck", "seed": config["seed"], "verdicts": {"all": True},
              "passed": True,
              "results": {"a": {"checked_coords": 1700, "skipped_kinks": 66}}}
    assert workloads.check_gradcheck(report, config, 0) == ([], 1766)
    report["results"]["a"]["checked_coords"] = 1699
    assert workloads.check_gradcheck(report, config, 0)[0]


def test_demo_gate_checks_level_shapes():
    config = workloads.generate_config(workloads.WORKLOADS["demo-large"], 1)
    report = {"command": "demo", "seed": config["seed"], "verdicts": {"all": True},
              "passed": True, "results": {
                  "levels": [[4, 32, 128, 128], [4, 32, 64, 64], [4, 32, 32, 32]],
                  "files": ["level0.raft", "level1.raft", "level2.raft", "manifest.json"]}}
    assert workloads.check_demo(report, config, 0) == ([], 3)
    report["results"]["levels"][2] = [4, 32, 16, 16]
    assert workloads.check_demo(report, config, 0)[0]


def test_artifact_digest_sees_names_and_bytes(tmp_path):
    (tmp_path / "a").write_bytes(b"xy")
    first = workloads.artifact_digest(tmp_path)
    (tmp_path / "a").write_bytes(b"xz")
    assert workloads.artifact_digest(tmp_path) != first


# -- process handling ----------------------------------------------------------------


def test_run_child_reports_exit_code_and_peak_rss(tmp_path):
    wall, rss, code = run.run_child([sys.executable, "-c", "raise SystemExit(3)"],
                                    tmp_path / "log", timeout=60)
    assert code == 3 and wall > 0 and rss > 1


def test_fails_without_a_result_when_the_program_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(run.__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_runs", "__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "demo-large",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
