"""The reafuse benchmark: time until ``reafuse verify|gradcheck|demo`` gives a
verdict a user can trust, measured from outside, one CLI child at a time.

    python3 perfbench/run.py --workload verify-default --seed 1 --seconds 55 --trace 0

Run from anywhere inside a source checkout; the program is taken from the
checkout's ``src/`` (no install needed).  Each workload (see
``workloads.py``) runs ``reafuse <command> --config <generated.json>`` as a
closed loop: one child at a time, each started when the previous one has
exited, with ``OPENBLAS_NUM_THREADS=1``, ``OMP_NUM_THREADS=1`` and
``REAFUSE_THREADS`` unset.  Every child's JSON report goes through the
workload's correctness gate; a child that fails it counts in the result's
``failed`` (the failed runs, against ``attempted``).

``--trace 0`` measures the end-to-end metrics with tracing off:

* ``setup_s``      median wall time of a child that imports reafuse and
                   validates the generated config, then exits;
* ``verdict_s``    median wall time of one CLI child, spawn to exit;
* ``peak_rss_mb``  median of the children's peak resident set (wait4);
* ``checks_per_s`` verified units per second of ``verdict_s``: residual
                   comparisons (verify), finite-difference coordinates
                   evaluated (gradcheck), pyramid levels written (demo).

A new child starts while it is expected (from the last one) to end within
``--seconds``; at least one always runs.  Half the set-up children run
before the loop and half after, so both medians span the same stretch of a
machine whose speed drifts.  ``--trace 1`` runs one untraced child, then the
same command traced in process by ``tracer.py``, and reports the per-layer
metrics plus the tracing overhead (traced minus untraced wall time).

The last line of standard output is the result object; the lines before it
give each metric's quartiles and sample count, and the environment.  The
exit code is 0 whenever a result is printed, ``correct`` true or not, and 2
when none can be (no program to run, a set-up child that fails).  Run files
go to ``perfbench/_runs/<workload>/seed-<n>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads
from tracer import PER_LAYER_UNITS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUNS = BENCH_DIR / "_runs"

END_TO_END_UNITS = {"setup_s": "s", "verdict_s": "s", "peak_rss_mb": "MB",
                    "checks_per_s": "1/s"}
SETUP_SAMPLES = 10
DEADLINE_S = 170.0  # a run must end within 180 s
SETUP_CODE = "import sys, reafuse; reafuse.load_config(sys.argv[1])"


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (missing program, broken setup)."""


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("REAFUSE_THREADS", None)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv: list[str], log: Path, timeout: float) -> tuple[float, float, int]:
    """Run one child to completion: (wall seconds, peak RSS in MB, exit code).

    The child is reaped with ``wait4`` so its own peak RSS is read; a timer
    kills it if it outlives ``timeout``.
    """
    with log.open("wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT,
                                env=child_env(), cwd=ROOT)
        killer = threading.Timer(max(timeout, 0.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def git_commit() -> str:
    if not (ROOT / ".git").exists():  # git would search the parent directories
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(run_dir: Path) -> dict:
    log = run_dir / "envinfo.log"
    _, _, code = run_child([sys.executable, str(BENCH_DIR / "envinfo.py")], log, 60)
    if code != 0:
        raise BenchError(f"environment probe failed, see {log}")
    env = json.loads(log.read_text(encoding="utf-8").splitlines()[-1])
    env["git_commit"] = git_commit()
    return env


class Run:
    """One benchmark invocation: a workload, its generated config and run files."""

    def __init__(self, workload: workloads.Workload, seed: int):
        self.workload = workload
        self.config = workloads.generate_config(workload, seed)
        self.dir = RUNS / workload.name / f"seed-{seed}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.config_path = self.dir / "config.json"
        self.config_path.write_text(json.dumps(self.config, indent=2) + "\n", encoding="utf-8")
        self.artifacts = self.dir / "artifacts"
        self.started = time.perf_counter()
        self.digests: list[str] = []

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.started)

    def cli_args(self, tag: str) -> list[str]:
        args = [self.workload.command, "--config", str(self.config_path),
                "--json", str(self.dir / f"{tag}.report.json")]
        if self.workload.command == "demo":
            shutil.rmtree(self.artifacts, ignore_errors=True)
            args += ["--out", str(self.artifacts)]
        return args

    def check(self, tag: str, exit_code: int) -> dict:
        """Gate one finished child by the report it wrote."""
        report_path = self.dir / f"{tag}.report.json"
        try:
            report = json.loads(report_path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            return {"problems": [f"no readable report: {exc}"], "units": 0, "report": {}}
        gate = workloads.GATES[self.workload.command]
        problems, units = gate(report, self.config, exit_code)
        if self.workload.command == "demo" and not problems:
            digest = workloads.artifact_digest(self.artifacts)
            if self.digests and digest != self.digests[0]:
                problems.append(f"artifact digest {digest} != first run's {self.digests[0]}")
            self.digests.append(digest)
        return {"problems": problems, "units": units, "report": report}

    def cli_child(self, tag: str, argv_prefix: list[str] | None = None) -> dict:
        """Run one CLI child (or the traced equivalent) and gate it."""
        prefix = argv_prefix or [sys.executable, "-m", "reafuse"]
        argv = prefix + self.cli_args(tag)
        wall, rss, code = run_child(argv, self.dir / f"{tag}.log", self.remaining())
        sample = {"tag": tag, "verdict_s": wall, "rss_mb": rss, "exit": code,
                  **self.check(tag, code)}
        if sample["problems"]:
            print(f"{tag}: FAILED gate: {'; '.join(sample['problems'])}")
        return sample

    def setup_samples(self, count: int) -> list[float]:
        times = []
        argv = [sys.executable, "-c", SETUP_CODE, str(self.config_path)]
        log = self.dir / "setup.log"
        for _ in range(count):
            wall, _, code = run_child(argv, log, self.remaining())
            if code != 0:
                raise BenchError(f"setup child exited {code}, see {log}")
            times.append(wall)
        return times

    def cleanup(self) -> None:
        shutil.rmtree(self.artifacts, ignore_errors=True)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def timed(run: Run, seconds: float) -> tuple[dict, list[dict], list[str]]:
    setup = run.setup_samples(SETUP_SAMPLES // 2)
    loop_start = time.perf_counter()
    samples: list[dict] = []
    last = 0.0
    while (not samples or time.perf_counter() - loop_start + last <= seconds) \
            and run.remaining() > last:
        samples.append(run.cli_child(f"run{len(samples)}"))
        last = samples[-1]["verdict_s"]
    setup += run.setup_samples(SETUP_SAMPLES - len(setup))
    series = {
        "setup_s": setup,
        "verdict_s": [s["verdict_s"] for s in samples],
        "peak_rss_mb": [s["rss_mb"] for s in samples],
        "checks_per_s": [s["units"] / s["verdict_s"] for s in samples],
    }
    metrics, lines = {}, []
    for name, values in series.items():
        q1, med, q3 = quartiles(values)
        metrics[name] = med
        lines.append(f"{name}: median {med:.6g} {END_TO_END_UNITS[name]}, quartiles "
                     f"[{q1:.6g}, {q3:.6g}], n={len(values)}")
    return metrics, samples, lines


def outside_metrics(base: dict, traced_s: float, written: int, save_s: float) -> dict:
    """Per-layer metrics not taken from spans: the untraced child's harness
    timings, the bytes the traced demo wrote, and the tracing overhead."""
    report = base["report"]
    verify = report.get("command") == "verify"
    variant_s = {v: report["timings"][v] if verify else 0.0 for v in workloads.VARIANTS}
    return {
        **{f"harness.variant_s.{v}": t for v, t in variant_s.items()},
        "harness.reseeds_used": sum(r.get("reseeds_used", 0)
                                    for r in report["results"].values()) if verify else 0,
        "harness.outside_variants_s":
            base["verdict_s"] - sum(variant_s.values()) if verify else 0.0,
        "serialization.bytes_written": written,
        "serialization.mb_per_s": written / 1e6 / save_s if save_s else 0.0,
        "trace.overhead_s": traced_s - base["verdict_s"],
    }


def traced(run: Run) -> tuple[dict, list[dict], list[str]]:
    base = run.cli_child("untraced")
    trace_dir = run.dir / "trace"
    tracer_prefix = [sys.executable, str(BENCH_DIR / "tracer.py"), "--out", str(trace_dir), "--"]
    traced_sample = run.cli_child("traced", tracer_prefix)
    samples = [base, traced_sample]
    layers_path = trace_dir / "layers.json"
    if not layers_path.exists():
        return {}, samples, [f"traced run left no layer metrics in {trace_dir}"]
    metrics = json.loads(layers_path.read_text(encoding="utf-8"))
    art = run.artifacts
    written = sum(p.stat().st_size for p in art.iterdir()) if art.is_dir() else 0
    metrics.update(outside_metrics(base, traced_sample["verdict_s"], written,
                                   metrics["serialization.save.self_s"]))
    lines = [f"traced verdict_s {traced_sample['verdict_s']:.6g} s, untraced "
             f"{base['verdict_s']:.6g} s, spans in {trace_dir}"]
    return metrics, samples, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="reafuse benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "reafuse" / "__init__.py").is_file():
        print(f"perfbench: no reafuse sources under {SRC}", file=sys.stderr)
        return 2
    run = Run(workloads.WORKLOADS[args.workload], args.seed)
    try:
        env = environment(run.dir)
        if args.trace:
            values, samples, lines = traced(run)
            units = PER_LAYER_UNITS
        else:
            values, samples, lines = timed(run, args.seconds)
            units = END_TO_END_UNITS
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        run.cleanup()
    failed = sum(1 for s in samples if s["problems"])
    correct = failed == 0 and set(values) == set(units)
    result = {
        "correct": correct,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items() if name in values},
    }
    record = {"workload": args.workload, "seed": args.seed, "config": run.config,
              "environment": env, "digests": run.digests,
              "samples": [{k: v for k, v in s.items() if k != "report"} for s in samples],
              "result": result}
    (run.dir / "result.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"workload {args.workload} seed {args.seed} ({run.workload.why})")
    print("environment: " + json.dumps(env, sort_keys=True))
    if run.digests:
        print(f"artifact digest {run.digests[0]} (identical in {len(run.digests)} runs)")
    for line in lines:
        print(line)
    print(f"failed_runs: {failed} of {len(samples)} runs failed the correctness gate")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
