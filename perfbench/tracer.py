"""Outside-in tracing of one ``reafuse`` CLI run, for the per-layer metrics.

Run as a script, it imports ``reafuse``, rebinds every public function of each
layer module in every ``reafuse`` module that holds a reference to it, runs
``reafuse.cli.entrypoint`` in this process and writes the spans and
counters to ``--out``.  Nothing under ``src/`` is edited; the wrappers never
copy or mutate arguments (gradcheck perturbs parameters in place and reads
the relu trace through ``tensor.relu``).

Layers are the modules.  ``cli`` is only the entry point and ``naive`` is the
oracle, so neither is timed as a layer.

Spans keep name, start, end and parent.  Parent stacks are per thread,
because ``run_verify`` evaluates variants on a pool thread.  ``tensor`` ops
run about 1.5M times in a gradcheck, so their spans are folded into
counters keyed by (parent span name, op) instead of being stored.

    PYTHONPATH=src python3 perfbench/tracer.py --out DIR -- verify --config CFG --json REPORT
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import itertools
import json
import statistics
import sys
import threading
import time
from pathlib import Path

LAYERS = ("tensor", "autograd", "groupequiv", "reca", "reaff", "pyramid", "harness",
          "serialization")
UNTRACED_MODULES = ("reafuse.naive",)

# tensor ops grouped the way the per-layer metrics report them
OP_GROUPS = {
    "conv2d": ("conv2d",),
    "structural": ("take", "reshape", "stack", "concat", "transpose"),
    "pointwise": ("add", "sub", "mul", "div", "neg", "relu", "sigmoid", "power"),
    "spatial": ("rot90", "upsample_nearest2x", "blockmean2x", "global_avg_pool"),
    "reduce": ("tsum", "tmean", "affine"),
    "batchnorm": ("batchnorm",),
    "matmul": ("matmul",),
}
# ops built from other ops: their output is already counted by the inner op
COMPOSITE_OPS = ("batchnorm", "tmean", "affine")

# per-layer metric -> unit; the traced run reports exactly these
PER_LAYER_UNITS = {
    "tensor.conv2d.calls": "count",
    "tensor.conv2d.self_s": "s",
    "tensor.conv2d.gflop": "GFLOP",
    "tensor.conv2d.computed_mb": "MB",
    "tensor.conv2d.gflops_per_s": "GFLOP/s",
    "tensor.structural.calls": "count",
    "tensor.structural.self_s": "s",
    "tensor.pointwise.calls": "count",
    "tensor.pointwise.self_s": "s",
    "tensor.spatial.self_s": "s",
    "tensor.reduce.self_s": "s",
    "tensor.batchnorm.self_s": "s",
    "tensor.matmul.self_s": "s",
    "tensor.graph_nodes": "count",
    "tensor.tensors_created": "count",
    "autograd.backward.calls": "count",
    "autograd.backward.self_s": "s",
    "autograd.gradcheck.self_s": "s",
    "autograd.tape_nodes": "count",
    "autograd.tape_use_ratio": "ratio",
    "autograd.loss_evals": "count",
    "autograd.loss_eval_ms.p50": "ms",
    "autograd.loss_eval_ms.p95": "ms",
    "autograd.coords_checked": "count",
    "autograd.kinks_skipped": "count",
    "autograd.checked_ratio": "ratio",
    "groupequiv.lift_conv.self_s": "s",
    "groupequiv.group_conv.calls": "count",
    "groupequiv.group_conv.self_s": "s",
    "groupequiv.g_act.calls": "count",
    "groupequiv.g_act.self_s": "s",
    "groupequiv.relative_residual.self_s": "s",
    "groupequiv.split_merge.self_s": "s",
    "reca.attention_logits.calls": "count",
    "reca.attention_logits.self_s": "s",
    "reca.conv_blocks.calls": "count",
    "reca.conv_blocks.self_s": "s",
    "reca.reca_forward.self_s": "s",
    "reca.se_forward.self_s": "s",
    "reaff.reaff_forward.calls": "count",
    "reaff.reaff_forward.self_s": "s",
    "reaff.rem_fuse.self_s": "s",
    "reaff.plain_iaff_forward.self_s": "s",
    "pyramid.forward.calls": "count",
    "pyramid.forward_ms.p50": "ms",
    "pyramid.forward_ms.p95": "ms",
    "pyramid.backbone.self_s": "s",
    "pyramid.top_down.self_s": "s",
    "pyramid.init.self_s": "s",
    **{f"harness.variant_s.{v}": "s"
       for v in ("Baseline", "PlusSE", "PlusReCA", "PlusIAFF", "ReAFFPN")},
    "harness.reseeds_used": "count",
    "harness.outside_variants_s": "s",
    "serialization.save.self_s": "s",
    "serialization.bytes_written": "bytes",
    "serialization.mb_per_s": "MB/s",
    "trace.overhead_s": "s",
}


class Recorder:
    """In-memory spans and op counters, safe to feed from several threads.

    ``clock`` is injectable so tests can drive self-time arithmetic exactly.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[tuple] = []   # (id, name, parent_id, thread, start, end, self_s)
        self.ops: dict[tuple[str, str], list] = {}  # (parent name, op) -> [calls, total_s, self_s, nodes]
        self.counters: dict[str, float] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)

    def add(self, counter: str, amount: float) -> None:
        with self._lock:
            self.counters[counter] = self.counters.get(counter, 0) + amount

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args, kwargs):
        """Run ``fn`` inside a stored span; frames are [name, id, child_s]."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        frame = [name, next(self._ids), 0.0]
        stack.append(frame)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = self.clock()
            stack.pop()
            dur = end - start
            if parent is not None:
                parent[2] += dur
            record = (frame[1], name, parent[1] if parent else None,
                      threading.get_ident(), start, end, dur - frame[2])
            with self._lock:
                self.spans.append(record)

    def call_op(self, name: str, fn, args, kwargs, count_node: bool):
        """Run a tensor op inside a span folded into the per-parent counter."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        frame = [name, 0, 0.0]
        stack.append(frame)
        start = self.clock()
        out = None
        try:
            out = fn(*args, **kwargs)
            return out
        finally:
            end = self.clock()
            stack.pop()
            dur = end - start
            if parent is not None:
                parent[2] += dur
            node = count_node and getattr(out, "backward_fn", None) is not None
            key = (parent[0] if parent else "", name)
            with self._lock:
                entry = self.ops.get(key)
                if entry is None:
                    entry = self.ops[key] = [0, 0.0, 0.0, 0]
                entry[0] += 1
                entry[1] += dur
                entry[2] += dur - frame[2]
                entry[3] += node

    def durations(self, name: str) -> list[float]:
        return [end - start for _, n, _, _, start, end, _ in self.spans if n == name]

    def span_totals(self) -> dict[str, list]:
        """Span name (ops included) -> [calls, self_s]."""
        totals: dict[str, list] = {}
        for _, name, _, _, _, _, self_s in self.spans:
            entry = totals.setdefault(name, [0, 0.0])
            entry[0] += 1
            entry[1] += self_s
        for (_, op), (calls, _, self_s, _) in self.ops.items():
            entry = totals.setdefault(op, [0, 0.0])
            entry[0] += calls
            entry[1] += self_s
        return totals

    def write(self, out_dir: Path) -> None:
        """Spans as JSON lines, op counters and counters as JSON."""
        out_dir.mkdir(parents=True, exist_ok=True)
        with (out_dir / "spans.jsonl").open("w", encoding="utf-8") as fh:
            for span_id, name, parent, thread, start, end, self_s in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "parent": parent,
                                     "thread": thread, "start": start, "end": end,
                                     "self_s": self_s}) + "\n")
        ops = [{"parent": p, "op": op, "calls": c, "total_s": t, "self_s": s, "graph_nodes": n}
               for (p, op), (c, t, s, n) in sorted(self.ops.items())]
        (out_dir / "ops.json").write_text(json.dumps(ops, indent=1), encoding="utf-8")
        (out_dir / "counters.json").write_text(json.dumps(self.counters, indent=1),
                                               encoding="utf-8")


def _conv2d_work(recorder: Recorder, args, kwargs, out) -> None:
    """Computed forward FLOPs and compulsory bytes (operands + result, float64)."""
    x = args[0] if args else kwargs["x"]
    w = args[1] if len(args) > 1 else kwargs["w"]
    batch, cin, h, wd = x.shape
    cout, _, kh, kw = w.shape
    _, _, oh, ow = out.shape
    recorder.add("conv2d.flop", 2.0 * batch * cout * oh * ow * cin * kh * kw)
    recorder.add("conv2d.bytes", 8.0 * (batch * cin * h * wd + cout * cin * kh * kw
                                        + batch * cout * oh * ow))


def _wrapper(recorder: Recorder, layer: str, name: str, fn):
    span = f"{layer}.{name}"
    if layer == "tensor":
        count_node = name not in COMPOSITE_OPS
        if name == "conv2d":
            @functools.wraps(fn)
            def wrapped(*args, **kwargs):
                out = recorder.call_op(span, fn, args, kwargs, True)
                _conv2d_work(recorder, args, kwargs, out)
                return out
        else:
            @functools.wraps(fn)
            def wrapped(*args, **kwargs):
                return recorder.call_op(span, fn, args, kwargs, count_node)
    elif span == "autograd.gradcheck":
        @functools.wraps(fn)
        def wrapped(loss_fn, *args, **kwargs):
            def timed_loss():
                return recorder.call("autograd.loss_eval", loss_fn, (), {})
            return recorder.call(span, fn, (timed_loss, *args), kwargs)
    else:
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            return recorder.call(span, fn, args, kwargs)
    return wrapped


def install(recorder: Recorder):
    """Rebind the public functions of every layer; returns the undo callable."""
    importlib.import_module("reafuse.cli")
    replacements = {}
    for layer in LAYERS:
        module = importlib.import_module(f"reafuse.{layer}")
        for attr in module.__all__:
            fn = getattr(module, attr)
            if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                replacements[fn] = _wrapper(recorder, layer, attr, fn)
    undo = []
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "reafuse" and not mod_name.startswith("reafuse."):
            continue
        if mod_name in UNTRACED_MODULES:
            continue
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in replacements:
                setattr(module, attr, replacements[value])
                undo.append((module, attr, value))

    # Tape.trace is a classmethod: count the nodes of every tape backward replays
    from reafuse.autograd import Tape
    original_trace = Tape.__dict__["trace"]

    def trace(cls, root):
        tape = original_trace.__func__(cls, root)
        recorder.add("autograd.tape_nodes", len(tape.nodes))
        return tape

    Tape.trace = classmethod(trace)

    def restore():
        for module, attr, value in undo:
            setattr(module, attr, value)
        Tape.trace = original_trace

    return restore


def _pct(values: list[float], q: int) -> float:
    """The q-th percentile (statistics' exclusive method); 0 with no values."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(recorder: Recorder, report: dict) -> dict[str, float]:
    """Per-layer metrics measured by the spans of one traced run.

    ``report`` is that run's CLI report.  The metrics taken from the untraced
    run (``harness.*``, written bytes, tracing overhead) are added by the
    caller, so tracing cannot inflate them.
    """
    totals = recorder.span_totals()

    def calls(*spans):
        return sum(totals.get(s, [0, 0.0])[0] for s in spans)

    def self_s(*spans):
        return sum(totals.get(s, [0, 0.0])[1] for s in spans)

    def group(name):
        spans = [f"tensor.{op}" for op in OP_GROUPS[name]]
        return calls(*spans), self_s(*spans)

    counters = recorder.counters
    m: dict[str, float] = {}
    conv_calls, conv_self = group("conv2d")
    gflop = counters.get("conv2d.flop", 0.0) / 1e9
    m["tensor.conv2d.calls"] = conv_calls
    m["tensor.conv2d.self_s"] = conv_self
    m["tensor.conv2d.gflop"] = gflop
    m["tensor.conv2d.computed_mb"] = counters.get("conv2d.bytes", 0.0) / 1e6
    m["tensor.conv2d.gflops_per_s"] = _ratio(gflop, conv_self)
    for name in ("structural", "pointwise"):
        m[f"tensor.{name}.calls"], m[f"tensor.{name}.self_s"] = group(name)
    for name in ("spatial", "reduce", "batchnorm", "matmul"):
        m[f"tensor.{name}.self_s"] = group(name)[1]
    graph_nodes = sum(entry[3] for entry in recorder.ops.values())
    m["tensor.graph_nodes"] = graph_nodes
    m["tensor.tensors_created"] = counters.get("tensor.tensors_created", 0)

    loss_ms = [d * 1e3 for d in recorder.durations("autograd.loss_eval")]
    tape_nodes = counters.get("autograd.tape_nodes", 0)
    grad_results = report.get("results", {}).values() if report.get("command") == "gradcheck" else []
    checked = sum(r.get("checked_coords", 0) for r in grad_results)
    skipped = sum(r.get("skipped_kinks", 0) for r in grad_results)
    m["autograd.backward.calls"] = calls("autograd.backward")
    m["autograd.backward.self_s"] = self_s("autograd.backward")
    m["autograd.gradcheck.self_s"] = self_s("autograd.gradcheck")
    m["autograd.tape_nodes"] = tape_nodes
    m["autograd.tape_use_ratio"] = _ratio(tape_nodes, graph_nodes)
    m["autograd.loss_evals"] = len(loss_ms)
    m["autograd.loss_eval_ms.p50"] = _pct(loss_ms, 50)
    m["autograd.loss_eval_ms.p95"] = _pct(loss_ms, 95)
    m["autograd.coords_checked"] = checked
    m["autograd.kinks_skipped"] = skipped
    m["autograd.checked_ratio"] = _ratio(checked, checked + skipped)

    m["groupequiv.lift_conv.self_s"] = self_s("groupequiv.lift_conv")
    m["groupequiv.group_conv.calls"] = calls("groupequiv.group_conv")
    m["groupequiv.group_conv.self_s"] = self_s("groupequiv.group_conv")
    m["groupequiv.g_act.calls"] = calls("groupequiv.g_act")
    m["groupequiv.g_act.self_s"] = self_s("groupequiv.g_act")
    m["groupequiv.relative_residual.self_s"] = self_s("groupequiv.relative_residual")
    m["groupequiv.split_merge.self_s"] = self_s("groupequiv.split_orientations",
                                                "groupequiv.merge_orientations")

    m["reca.attention_logits.calls"] = calls("reca.attention_logits")
    m["reca.attention_logits.self_s"] = self_s("reca.attention_logits")
    m["reca.conv_blocks.calls"] = calls("reca.conv_block_a", "reca.conv_block_b")
    m["reca.conv_blocks.self_s"] = self_s("reca.conv_block_a", "reca.conv_block_b")
    m["reca.reca_forward.self_s"] = self_s("reca.reca_forward")
    m["reca.se_forward.self_s"] = self_s("reca.se_forward")

    m["reaff.reaff_forward.calls"] = calls("reaff.reaff_forward")
    m["reaff.reaff_forward.self_s"] = self_s("reaff.reaff_forward")
    m["reaff.rem_fuse.self_s"] = self_s("reaff.rem_fuse")
    m["reaff.plain_iaff_forward.self_s"] = self_s("reaff.plain_iaff_forward")

    forward_ms = [d * 1e3 for d in recorder.durations("pyramid.run_pyramid")]
    m["pyramid.forward.calls"] = calls("pyramid.run_pyramid")
    m["pyramid.forward_ms.p50"] = _pct(forward_ms, 50)
    m["pyramid.forward_ms.p95"] = _pct(forward_ms, 95)
    m["pyramid.backbone.self_s"] = self_s("pyramid.toy_backbone")
    m["pyramid.top_down.self_s"] = self_s("pyramid.build_pyramid")
    m["pyramid.init.self_s"] = self_s("pyramid.init_pyramid")

    m["serialization.save.self_s"] = sum(
        s for name, (_, s) in totals.items() if name.startswith("serialization."))
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="directory for spans and metrics")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER,
                        help="arguments for reafuse.cli.entrypoint, after --")
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    from reafuse.cli import build_parser, entrypoint
    from reafuse.tensor import Tensor

    report_path = build_parser().parse_args(cli_args).json
    if not report_path:
        parser.error("the traced command needs --json <path>")
    recorder = Recorder()
    restore = install(recorder)
    first_seq = Tensor(0.0).seq
    try:
        code = recorder.call("cli.entrypoint", entrypoint, (cli_args,), {})
    finally:
        restore()
    recorder.add("tensor.tensors_created", Tensor(0.0).seq - first_seq - 1)
    out = Path(args.out)
    recorder.write(out)
    if Path(report_path).exists():  # also for a failed verdict, which the caller gates
        report = json.loads(Path(report_path).read_text(encoding="utf-8"))
        metrics = layer_metrics(recorder, report)
        (out / "layers.json").write_text(json.dumps(metrics, indent=1), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
