"""Span recording around the calls into codag's modules, and its arithmetic.

A span is one wrapped call: its name, start, end, the span that was open
when it started (its parent) and a few work counts (rows, bytes, picks,
computed FLOPs). Spans live in memory and are written out as JSON lines,
one file per process, when ``Tracer.flush`` runs.

The wrappers are installed from outside the program: each name is replaced
where it is looked up (``from ... import`` binds a second name in the
caller's module), so the program's own files stay untouched.
"""

import functools
import json
import os
import time

# Per-layer metric name -> (unit, better). The traced run reports all of them.
LAYER_METRICS = {
    "evaluate.accuracy.calls": ("count", "lower"),
    "evaluate.accuracy.s": ("s", "lower"),
    "evaluate.accuracy.rows": ("rows", "lower"),
    "nnmodel.gradient.calls": ("count", "lower"),
    "nnmodel.gradient.s": ("s", "lower"),
    "nnmodel.gradient.us_per_call": ("us", "lower"),
    "nnmodel.gradient.mflop_computed": ("MFLOP", "lower"),
    "nnmodel.gradient.mbyte_computed": ("MB", "lower"),
    "nnmodel.gradient.mflop_per_s_computed": ("MFLOP/s", "higher"),
    "nnmodel.sgd_step.calls": ("count", "lower"),
    "nnmodel.sgd_step.s": ("s", "lower"),
    "nnmodel.sgd_step.us_per_call": ("us", "lower"),
    "augment.randmix.calls": ("count", "lower"),
    "augment.randmix.s": ("s", "lower"),
    "augment.randmix.us_per_call": ("us", "lower"),
    "nnmodel.forward.calls": ("count", "lower"),
    "nnmodel.forward.s": ("s", "lower"),
    "nnmodel.forward.rows": ("rows", "lower"),
    "nnmodel.forward.mflop_computed": ("MFLOP", "lower"),
    "nnmodel.forward.mbyte_computed": ("MB", "lower"),
    "nnmodel.features.calls": ("count", "lower"),
    "nnmodel.features.s": ("s", "lower"),
    "generalize.train_dg_source.s": ("s", "lower"),
    "generalize.train_dg_source.self_s": ("s", "lower"),
    "generalize.train_dg_target.s": ("s", "lower"),
    "generalize.train_dg_target.self_s": ("s", "lower"),
    "adapt.adapt_domain.s": ("s", "lower"),
    "adapt.adapt_domain.self_s": ("s", "lower"),
    "adapt.centroid_pseudo_labels.calls": ("count", "lower"),
    "adapt.centroid_pseudo_labels.s": ("s", "lower"),
    "adapt.generate_pseudo_labels.s": ("s", "lower"),
    "replay.update_buffer.s": ("s", "lower"),
    "replay.herding_select.calls": ("count", "lower"),
    "replay.herding_select.s": ("s", "lower"),
    "replay.herding_select.picks": ("count", "lower"),
    "orchestrate.save_run_state.calls": ("count", "lower"),
    "orchestrate.save_run_state.s": ("s", "lower"),
    "orchestrate.state_json_bytes": ("bytes", "lower"),
    "nnmodel.save_checkpoint.calls": ("count", "lower"),
    "nnmodel.save_checkpoint.s": ("s", "lower"),
    "nnmodel.save_checkpoint.bytes": ("bytes", "lower"),
    "data.build.calls": ("count", "lower"),
    "data.build.s": ("s", "lower"),
    "data.load_csv_domain.s": ("s", "lower"),
    "data.load_csv_domain.rows": ("rows", "lower"),
    "orchestrate.run_seed.calls": ("count", "lower"),
    "orchestrate.run_seed.s": ("s", "lower"),
    "orchestrate.run_stage.self_s": ("s", "lower"),
    "orchestrate.pool_idle_s": ("s", "lower"),
    "cli.build_config.s": ("s", "lower"),
    "cli.report.s": ("s", "lower"),
    "trace.overhead_frac": ("frac", "lower"),
}


def _layer_widths(params) -> list[tuple[int, int]]:
    """(fan_in, fan_out) of every matmul in the forward pass, head last."""
    blocks = params.blocks
    n_ext = (len(blocks) - 2) // 2
    return [blocks[f"ext{i}.w"].shape for i in range(n_ext)] + [blocks["head.w"].shape]


def _matmul_work(n: int, m: int, k: int) -> tuple[int, int]:
    """FLOPs and float64 operand bytes of one (n x m) @ (m x k) product."""
    return 2 * n * m * k, 8 * (n * m + m * k + n * k)


def forward_work(params, rows: int) -> tuple[int, int]:
    """Computed matmul FLOPs and bytes of ``nnmodel.forward`` on ``rows`` rows."""
    flops = nbytes = 0
    for fan_in, fan_out in _layer_widths(params):
        f, b = _matmul_work(rows, fan_in, fan_out)
        flops, nbytes = flops + f, nbytes + b
    return flops, nbytes


def gradient_work(params, rows: int, freeze_head: bool) -> tuple[int, int]:
    """Computed matmul FLOPs and bytes of ``nnmodel.gradient`` on ``rows`` rows.

    Forward products, one weight-gradient product per layer (none for a
    frozen head), and one input-gradient product per layer except the first.
    """
    flops, nbytes = forward_work(params, rows)
    widths = _layer_widths(params)
    for i, (fan_in, fan_out) in enumerate(widths):
        if not (freeze_head and i == len(widths) - 1):
            f, b = _matmul_work(fan_in, rows, fan_out)  # a_in.T @ dz
            flops, nbytes = flops + f, nbytes + b
        if i > 0:
            f, b = _matmul_work(rows, fan_out, fan_in)  # dz @ w.T
            flops, nbytes = flops + f, nbytes + b
    return flops, nbytes


class Tracer:
    """In-memory span store for one process; forked children start empty."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self._reset()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self):
        self.pid = os.getpid()
        self.spans: list[dict] = []
        self._stack: list[str] = []
        self._count = 0

    def wrap(self, name: str, fn, measure=None):
        """``fn`` recorded as span ``name``; ``measure(args, kwargs, result)`` adds counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._count += 1
            sid = f"{self.pid}:{self._count}"
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
            span = {"id": sid, "parent": parent, "name": name, "start": start, "end": end}
            if measure is not None:
                span["counts"] = measure(args, kwargs, result)
            self.spans.append(span)
            return result

        return traced

    def flush(self) -> None:
        """Append this process's spans to its own file and forget them."""
        if not self.spans:
            return
        path = os.path.join(self.out_dir, f"spans-{self.pid}.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
        self.spans = []


def _rows(args, kwargs, result):
    return {"rows": len(args[1])}


def _forward_counts(args, kwargs, result):
    rows = len(args[1])
    flops, nbytes = forward_work(args[0], rows)
    return {"rows": rows, "flop": flops, "byte": nbytes}


def _gradient_counts(args, kwargs, result):
    rows = len(args[2])
    flops, nbytes = gradient_work(args[1], rows, kwargs.get("freeze_head", False))
    return {"rows": rows, "flop": flops, "byte": nbytes}


def _file_bytes(path_of):
    def measure(args, kwargs, result):
        return {"bytes": os.path.getsize(path_of(args))}
    return measure


def install(tracer: Tracer) -> None:
    """Wrap every traced call site of the codag package in place."""
    from codag import adapt, cli, data, evaluate, generalize, nnmodel, orchestrate, replay

    def wrap(module, attr, name, measure=None):
        setattr(module, attr, tracer.wrap(name, getattr(module, attr), measure))

    wrap(cli, "build_config", "cli.build_config")
    wrap(cli, "cmd_report", "cli.report")
    wrap(cli, "run_experiment", "orchestrate.run_experiment",
         lambda args, kwargs, result: {"jobs": kwargs.get("jobs", 1)})
    wrap(orchestrate, "run_stage", "orchestrate.run_stage")
    wrap(orchestrate, "save_run_state", "orchestrate.save_run_state",
         _file_bytes(lambda args: os.path.join(args[1], "state.json")))
    wrap(orchestrate, "save_checkpoint", "nnmodel.save_checkpoint",
         _file_bytes(lambda args: args[1]))
    wrap(orchestrate, "adapt_domain", "adapt.adapt_domain")
    wrap(orchestrate, "generate_pseudo_labels", "adapt.generate_pseudo_labels")
    wrap(orchestrate, "train_dg_source", "generalize.train_dg_source")
    wrap(orchestrate, "train_dg_target", "generalize.train_dg_target")
    wrap(orchestrate, "update_buffer", "replay.update_buffer")
    wrap(orchestrate, "accuracy", "evaluate.accuracy", _rows)
    wrap(adapt, "centroid_pseudo_labels", "adapt.centroid_pseudo_labels")
    for module in (adapt, generalize):
        wrap(module, "gradient", "nnmodel.gradient", _gradient_counts)
    for module in (adapt, generalize, evaluate):
        wrap(module, "forward", "nnmodel.forward", _forward_counts)
    for module in (adapt, replay):
        wrap(module, "features", "nnmodel.features", _rows)
    wrap(generalize, "randmix", "augment.randmix")
    wrap(replay, "herding_select", "replay.herding_select",
         lambda args, kwargs, result: {"picks": int(args[1])})
    wrap(data, "load_csv_domain", "data.load_csv_domain",
         lambda args, kwargs, result: {"rows": len(result)})
    wrap(data.SequenceConfig, "build", "data.build")
    wrap(nnmodel.Sgd, "step", "nnmodel.sgd_step")

    # Pool workers leave through os._exit, so each flushes after every seed.
    traced_run_seed = tracer.wrap("orchestrate.run_seed", orchestrate.run_seed)

    @functools.wraps(orchestrate.run_seed)
    def run_seed(*args, **kwargs):
        try:
            return traced_run_seed(*args, **kwargs)
        finally:
            tracer.flush()

    orchestrate.run_seed = run_seed


def load_spans(out_dir: str) -> list[dict]:
    spans = []
    for name in sorted(os.listdir(out_dir)):
        if name.startswith("spans-") and name.endswith(".jsonl"):
            with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
                spans.extend(json.loads(line) for line in fh)
    return spans


def _covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    clipped = sorted((max(s, start), min(e, end)) for s, e in intervals)
    total, cur_s, cur_e = 0.0, None, None
    for s, e in clipped:
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans: list[dict]) -> dict[str, float]:
    """Span id -> duration minus the part of it that its child spans cover."""
    children: dict[str, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    return {
        span["id"]: (span["end"] - span["start"])
        - _covered(span["start"], span["end"], children.get(span["id"], ()))
        for span in spans
    }


def subtree_self_gap(spans: list[dict], root_name: str) -> float:
    """Largest |sum of self times in a ``root_name`` subtree - root duration|."""
    selfs = self_times(spans)
    children: dict[str, list[str]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span["id"])
    gap = 0.0
    for span in spans:
        if span["name"] != root_name:
            continue
        total, todo = 0.0, [span["id"]]
        while todo:
            sid = todo.pop()
            total += selfs[sid]
            todo.extend(children.get(sid, ()))
        gap = max(gap, abs(total - (span["end"] - span["start"])))
    return gap


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Every per-layer metric except ``trace.overhead_frac`` from one traced run."""
    selfs = self_times(spans)
    totals: dict[str, dict[str, float]] = {}
    for span in spans:
        entry = totals.setdefault(span["name"], {"calls": 0, "s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["s"] += span["end"] - span["start"]
        entry["self_s"] += selfs[span["id"]]
        for key, value in (span.get("counts") or {}).items():
            entry[key] = entry.get(key, 0) + value

    def get(name, key):
        return totals.get(name, {}).get(key, 0)

    def per_call_us(name):
        calls = get(name, "calls")
        return 1e6 * get(name, "s") / calls if calls else 0.0

    # Pool workers are idle for the part of jobs x pooled wall that no seed fills.
    pooled = [s for s in spans
              if s["name"] == "orchestrate.run_experiment" and s["counts"]["jobs"] > 1]
    seed_spans = [s for s in spans if s["name"] == "orchestrate.run_seed"]
    pool_idle = 0.0
    for run in pooled:
        inside = sum(s["end"] - s["start"] for s in seed_spans
                     if run["start"] <= s["start"] and s["end"] <= run["end"])
        pool_idle += run["counts"]["jobs"] * (run["end"] - run["start"]) - inside

    grad_s = get("nnmodel.gradient", "s")
    out = {}
    for metric in LAYER_METRICS:
        name, _, key = metric.rpartition(".")
        if key in ("calls", "s", "self_s", "rows", "picks", "bytes"):
            out[metric] = get(name, key)
        elif key == "us_per_call":
            out[metric] = per_call_us(name)
        elif key == "mflop_computed":
            out[metric] = get(name, "flop") / 1e6
        elif key == "mbyte_computed":
            out[metric] = get(name, "byte") / 1e6
    out["nnmodel.gradient.mflop_per_s_computed"] = (
        get("nnmodel.gradient", "flop") / grad_s / 1e6 if grad_s else 0.0)
    out["orchestrate.state_json_bytes"] = get("orchestrate.save_run_state", "bytes")
    out["orchestrate.pool_idle_s"] = pool_idle
    return out
