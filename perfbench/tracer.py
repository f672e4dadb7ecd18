"""Per-layer tracing of csimae from outside the library.

The tracer replaces module and class attributes that the library looks
up at call time (``T.linear``, ``M._block``, ``AdamW.step``, ...) with
timing wrappers, and wraps the ``_backward`` closure of every Tensor a
traced op returns, so backward time lands on the op that made the
node.  Nothing under ``src/`` is edited; ``uninstall`` restores every
attribute.

Spans are kept in memory as ``[name, start, end, parent, step, block,
stage, extra]``, where stage is ``setup`` or ``run``, and written out
when the run ends.  A span's self time is its duration minus the time
its direct children cover; spans nest strictly because the library is
single-threaded.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from csimae import checkpoint as C
from csimae import data as D
from csimae import evaluate as E
from csimae import harmonize as H
from csimae import mae as M
from csimae import qc as Q
from csimae import scaling as S
from csimae import synth as Y
from csimae import tensors as T
from csimae import training as R

# tensors op -> reported group
OP_GROUPS = {
    "linear": "linear",
    "matmul": "matmul",
    "softmax": "softmax",
    "layer_norm": "layer_norm",
    "gelu": "gelu",
    "gather_rows": "gather",
    "gather_tokens": "gather",
    "slice_": "shape",
    "reshape": "shape",
    "transpose": "shape",
    "swap_last": "shape",
    "concat": "shape",
    "add": "elementwise",
    "sub": "elementwise",
    "mul": "elementwise",
    "square": "elementwise",
    "sum_": "loss",
    "mean_": "loss",
    "mse": "loss",
    "softmax_cross_entropy": "loss",
}
GROUPS = ("linear", "matmul", "softmax", "layer_norm", "gelu", "gather", "shape", "elementwise", "loss")
MAE_BLOCKS = ("embed", "attention", "ffn", "layer_norm", "dec_head", "loss")

# mae scope -> block of a tensors op called directly inside it
_SCOPE_BLOCK = {
    "attention": lambda op: "attention",
    "block": lambda op: "layer_norm" if op == "layer_norm" else "ffn",
    "encode": lambda op: "layer_norm" if op == "layer_norm" else "embed",
    "dec_tokens": lambda op: "embed",
    "decode": lambda op: "dec_head",
    "loss": lambda op: "loss",
}

# span name -> training phase it opens; descendants inherit the phase
PHASES = {
    "training.masked_val_loss": "val",
    "mae.forward_loss": "forward",
    "tensors.backward": "backward",
    "training.adamw": "adamw",
    "training.sample_mask": "mask",
}
STEP_PHASES = ("mask", "forward", "backward", "adamw")

NAME, START, END, PARENT, STEP, BLOCK, STAGE, EXTRA = range(8)

# every per-layer metric the traced run reports, with its unit
PER_LAYER = (
    [(f"tensors.{g}.{k}", "s") for g in GROUPS for k in ("fwd_s", "bwd_s")]
    + [(f"tensors.{g}.calls", "count") for g in GROUPS]
    + [("tensors.linear.gflop", "GFLOP"), ("tensors.matmul.gflop", "GFLOP"), ("tensors.tape_s", "s")]
    + [("tensors.graph_nodes", "count"), ("tensors.graph_views", "count"), ("tensors.retained_mb", "MB"),
       ("tensors.grad_retained_mb", "MB"), ("tensors.step_peak_mb", "MB")]
    + [(f"mae.{b}.{k}", "s") for b in MAE_BLOCKS for k in ("fwd_s", "bwd_s")]
    + [("mae.encode.fwd_s", "s"), ("mae.decode.fwd_s", "s")]
    + [(f"training.{p}_s", "s") for p in ("forward", "backward", "adamw", "mask", "val")]
    + [("training.step_s_p50", "s"), ("training.step_s_tail", "s"), ("training.step_s_n", "count"),
       ("training.achieved_gflops", "GFLOP/s"), ("training.flop_ratio", "ratio"),
       ("training.rejected_steps", "count")]
    + [(f"evaluate.{f}_s", "s") for f in ("encode_features", "train_classifier", "predict")]
    + [("evaluate.predict_graph_nodes", "count")]
    + [("checkpoint.clone_params_s", "s"), ("checkpoint.clone_calls", "count"),
       ("checkpoint.save_s", "s"), ("checkpoint.load_s", "s")]
    + [(f"data.{f}_s", "s") for f in ("save_recording", "load_recording", "write_clip_store", "load_clips")]
    + [("data.bytes_written_mb", "MB"), ("data.bytes_read_mb", "MB")]
    + [("synth.simulate_cfr_s", "s"), ("synth.generate_task_s", "s")]
    + [("harmonize.harmonize_recording_s", "s"), ("harmonize.clips_out", "count")]
    + [("qc.clean_window_s", "s"), ("qc.windows", "count"), ("qc.kept_ratio", "ratio"),
       ("qc.outliers_repaired", "count")]
    + [("trace.overhead_ratio", "ratio"), ("trace.coverage", "ratio"), ("error_rate", "ratio")]
)
MB = 1024.0 * 1024.0


class Tracer:
    """Installs timing wrappers; records spans, graph stats and counters."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.scopes = []
        self.enabled = True
        self.stage = "setup"
        self.step = 0
        self.graphs = []  # (nodes, views, owned_bytes, grad_bytes) per backward
        self.predict_nodes = []
        self.rejected_steps = 0
        self._patches = []
        self._tape = T.tape

    # -- spans ---------------------------------------------------------
    def open(self, name, block=None, extra=None):
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.step, block, self.stage, extra])
        idx = len(self.spans) - 1
        self.stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][END] = time.perf_counter()
        self.stack.pop()

    @contextmanager
    def paused(self):
        """Run library code with every wrapper passing straight through."""
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    # -- installation --------------------------------------------------
    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _timed(self, owner, attr, name, scope=None, after=None):
        orig = owner.__dict__[attr]
        tr = self

        def wrapper(*args, **kw):
            if not tr.enabled:
                return orig(*args, **kw)
            idx = tr.open(name)
            if scope:
                tr.scopes.append(scope)
            try:
                out = orig(*args, **kw)
            finally:
                if scope:
                    tr.scopes.pop()
                tr.close(idx)
            if after is not None:
                after(idx, args, out)
            return out

        self._patch(owner, attr, wrapper)

    def _op(self, opname):
        orig = T.__dict__[opname]
        group = OP_GROUPS[opname]
        fwd_name, bwd_name = f"tensors.{group}.fwd", f"tensors.{group}.bwd"
        tr = self

        def wrapper(*args, **kw):
            if not tr.enabled:
                return orig(*args, **kw)
            block = _SCOPE_BLOCK[tr.scopes[-1]](opname) if tr.scopes else None
            idx = tr.open(fwd_name, block)
            try:
                out = orig(*args, **kw)
            finally:
                tr.close(idx)
            flops = _gemm_flops(opname, args, out)
            if flops:
                tr.spans[idx][EXTRA] = flops[0]
            bw = out._backward
            if bw is not None and not getattr(bw, "traced", False):
                out._backward = tr._backward_wrapper(bw, bwd_name, block, flops[1] if flops else 0.0)
            return out

        self._patch(T, opname, wrapper)

    def _backward_wrapper(self, closure, name, block, flops):
        tr = self

        def traced_backward(g):
            if not tr.enabled:
                return closure(g)
            idx = tr.open(name, block, flops or None)
            try:
                return closure(g)
            finally:
                tr.close(idx)

        traced_backward.traced = True
        return traced_backward

    def install(self):
        for opname in OP_GROUPS:
            self._op(opname)
        self._timed(T, "tape", "tensors.tape")
        self._patch(T.Tensor, "backward", self._tensor_backward(T.Tensor.__dict__["backward"]))

        self._timed(M, "_attention", "mae._attention", scope="attention")
        self._timed(M, "_block", "mae._block", scope="block")
        self._timed(M, "mae_loss", "mae.mae_loss", scope="loss")
        self._timed(M, "sample_mask", "training.sample_mask")
        cls = M.MaskedAutoencoder
        self._timed(cls, "encode", "mae.encode", scope="encode")
        self._timed(cls, "_decoder_tokens", "mae._decoder_tokens", scope="dec_tokens")
        self._timed(cls, "decode", "mae.decode", scope="decode")
        self._timed(cls, "forward_loss", "mae.forward_loss", after=self._count_clips)
        self._timed(cls, "encode_features", "mae.encode_features")

        self._timed(R.AdamW, "step", "training.adamw", after=self._after_adamw)
        self._timed(R, "masked_val_loss", "training.masked_val_loss")

        self._timed(E, "encode_features", "evaluate.encode_features")
        self._timed(E, "train_classifier", "evaluate.train_classifier")
        self._patch(E, "predict", self._predict(E.__dict__["predict"]))

        self._timed(C, "clone_params", "checkpoint.clone_params")
        self._timed(C, "save_checkpoint", "checkpoint.save_checkpoint")
        self._timed(C, "load_checkpoint", "checkpoint.load_checkpoint")

        self._timed(D, "save_recording", "data.save_recording", after=self._bytes(lambda a, o: a[0].data.nbytes))
        self._timed(D, "load_recording", "data.load_recording", after=self._bytes(lambda a, o: o.data.nbytes))
        self._timed(D, "write_clip_store", "data.write_clip_store", after=self._bytes(lambda a, o: _clip_bytes(a[0])))
        self._timed(D, "load_clips", "data.load_clips", after=self._bytes(lambda a, o: _clip_bytes(o)))

        self._timed(Y, "simulate_cfr", "synth.simulate_cfr")
        self._timed(Y, "generate_task", "synth.generate_task")
        self._timed(H, "harmonize_recording", "harmonize.harmonize_recording", after=self._count_harmonized)
        self._timed(Q, "clean_window", "qc.clean_window", after=self._count_window)
        return self

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- wrappers with bookkeeping ---------------------------------------
    def _tensor_backward(self, orig):
        tr = self

        def backward(tensor):
            if not tr.enabled:
                return orig(tensor)
            # graph stats are taken outside the span, so they cost no step time
            nodes = tr._tape(tensor).nodes
            idx = tr.open("tensors.backward")
            try:
                orig(tensor)
            finally:
                tr.close(idx)
            views = sum(1 for n in nodes if n.data.base is not None)
            owned = sum(n.data.nbytes for n in nodes if n.data.base is None)
            grads = sum(n.grad.nbytes for n in nodes if n.grad is not None)
            if tr.stage == "run":
                tr.graphs.append((len(nodes), views, owned, grads))

        return backward

    def _predict(self, orig):
        tr = self

        def predict(forward_fn, params, x, batch_size=32):
            if not tr.enabled:
                return orig(forward_fn, params, x, batch_size)
            first = [True]

            def counted(xb, p):
                logits = forward_fn(xb, p)
                if first[0] and tr.stage == "run":
                    first[0] = False
                    tr.predict_nodes.append(len(tr._tape(logits).nodes))
                return logits

            idx = tr.open("evaluate.predict")
            try:
                return orig(counted, params, x, batch_size)
            finally:
                tr.close(idx)

        return predict

    def _count_clips(self, idx, args, out):
        self.spans[idx][EXTRA] = int(args[1].shape[0])

    def _after_adamw(self, idx, args, ok):
        if not ok:
            self.rejected_steps += 1
        self.step += 1

    def _bytes(self, size):
        def after(idx, args, out):
            self.spans[idx][EXTRA] = float(size(args, out))

        return after

    def _count_harmonized(self, idx, args, out):
        self.spans[idx][EXTRA] = len(out[0])

    def _count_window(self, idx, args, out):
        self.spans[idx][EXTRA] = (bool(out[1].kept), int(out[1].outliers_repaired))

    # -- output --------------------------------------------------------
    def dump(self, path):
        """One JSON list per span: name, start, end, parent, step, block, stage, extra."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
        return path


def _clip_bytes(clips):
    return sum(c.data.nbytes for c in clips)


def _gemm_flops(opname, args, out):
    """(forward, backward) FLOPs of a linear/matmul call, computed from shapes."""
    if opname == "linear":
        x, w = args[0], args[1]
        fwd = 2.0 * (x.data.size // x.data.shape[-1]) * w.data.shape[0] * w.data.shape[1]
        return fwd, fwd * (int(x.requires_grad) + int(w.requires_grad))
    if opname == "matmul":
        a, b = args[0], args[1]
        fwd = 2.0 * out.data.size * a.data.shape[-1]
        return fwd, fwd * (int(a.requires_grad) + int(b.requires_grad))
    return None


# ---------------------------------------------------------------------
# aggregation


def _self_times(spans):
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] is not None:
            child[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]


def _phases(spans):
    out = []
    for s in spans:
        inherited = out[s[PARENT]] if s[PARENT] is not None else None
        out.append(inherited or PHASES.get(s[NAME]))
    return out


def _tail(samples):
    """Highest of p99/p90/p75/p50 with at least ten samples beyond it, else the max."""
    n = len(samples)
    for p in (99, 90, 75, 50):
        if n * (100 - p) / 100.0 >= 10:
            return float(np.percentile(samples, p))
    return float(max(samples)) if samples else 0.0


def layer_metrics(tracer, n_trials, model_cfg=None):
    """Per-layer metrics: one traced setup plus the mean of one measured trial.

    Sums over spans of the measured region are divided by ``n_trials``;
    spans of the traced setup are added once.  Step statistics, graph
    sizes and FLOP ratios use measured-region training steps only.
    """
    spans = tracer.spans
    selft = _self_times(spans)
    phase = _phases(spans)
    out = defaultdict(float)

    def add(key, value, span):
        out[key] += value if span[STAGE] == "setup" else value / n_trials

    step_time = defaultdict(float)
    step_clips = defaultdict(int)
    covered = 0.0
    gemm_train = 0.0
    for s, st, ph in zip(spans, selft, phase):
        name, dur = s[NAME], s[END] - s[START]
        run = s[STAGE] == "run"
        if name.startswith("tensors.") and name.endswith((".fwd", ".bwd")):
            _, group, kind = name.split(".")
            add(f"tensors.{group}.{kind}_s", st, s)
            if kind == "fwd":
                add(f"tensors.{group}.calls", 1, s)
            if s[EXTRA]:
                add(f"tensors.{group}.gflop", s[EXTRA] / 1e9, s)
                if run and ph in ("forward", "backward"):
                    gemm_train += s[EXTRA]
            if s[BLOCK]:
                add(f"mae.{s[BLOCK]}.{kind}_s", st, s)
            if run and ph in ("forward", "backward"):
                covered += st
        elif name == "tensors.tape":
            add("tensors.tape_s", dur, s)
            if run and ph == "backward":
                covered += st
        elif name in ("mae.encode", "mae.decode"):
            if ph != "backward":
                add(f"{name}.fwd_s", dur, s)
        elif name == "checkpoint.clone_params":
            add("checkpoint.clone_params_s", dur, s)
            add("checkpoint.clone_calls", 1, s)
        elif name in ("checkpoint.save_checkpoint", "checkpoint.load_checkpoint"):
            add(name.replace("_checkpoint", "") + "_s", dur, s)
        elif name.startswith(("data.", "synth.", "harmonize.", "evaluate.")):
            add(f"{name}_s", dur, s)
            if name in ("data.save_recording", "data.write_clip_store"):
                add("data.bytes_written_mb", s[EXTRA] / MB, s)
            elif name in ("data.load_recording", "data.load_clips"):
                add("data.bytes_read_mb", s[EXTRA] / MB, s)
            elif name == "harmonize.harmonize_recording":
                add("harmonize.clips_out", s[EXTRA], s)
        elif name == "qc.clean_window":
            add("qc.clean_window_s", dur, s)
            add("qc.windows", 1, s)
            kept, repaired = s[EXTRA]
            add("qc.kept_windows", int(kept), s)
            add("qc.outliers_repaired", repaired, s)
        if run and ph in STEP_PHASES and PHASES.get(name) == ph and (s[PARENT] is None or phase[s[PARENT]] != ph):
            out[f"training.{ph}_s"] += dur / n_trials
            step_time[s[STEP]] += dur
            if ph == "forward":
                step_clips[s[STEP]] += s[EXTRA] or 0
            if ph == "adamw":
                covered += dur
        elif run and ph == "val" and name == "training.masked_val_loss":
            out["training.val_s"] += dur / n_trials

    kept = out.pop("qc.kept_windows", 0.0)
    out["qc.kept_ratio"] = kept / out["qc.windows"] if out["qc.windows"] else 0.0

    steps = [step_time[k] for k in sorted(step_time)]
    out["training.step_s_p50"] = float(np.median(steps)) if steps else 0.0
    out["training.step_s_tail"] = _tail(steps)
    out["training.step_s_n"] = len(steps)
    out["training.rejected_steps"] = tracer.rejected_steps / n_trials
    fwd_bwd = out["training.forward_s"] + out["training.backward_s"]
    step_total = fwd_bwd + out["training.adamw_s"]
    out["trace.coverage"] = covered / n_trials / step_total if step_total else 0.0
    clips = sum(step_clips.values())
    if model_cfg is not None and clips and fwd_bwd:
        est = 3.0 * S.estimate_flops(model_cfg, "pretrain_step") * clips
        out["training.achieved_gflops"] = est / 1e9 / (fwd_bwd * n_trials)
        out["training.flop_ratio"] = est / gemm_train if gemm_train else 0.0

    if tracer.graphs:
        g = np.array(tracer.graphs, dtype=np.float64)
        out["tensors.graph_nodes"] = float(g[:, 0].mean())
        out["tensors.graph_views"] = float(g[:, 1].mean())
        out["tensors.retained_mb"] = float(g[:, 2].mean() / MB)
        out["tensors.grad_retained_mb"] = float(g[:, 3].mean() / MB)
        out["tensors.step_peak_mb"] = float((g[:, 2] + g[:, 3]).max() / MB)
    if tracer.predict_nodes:
        out["evaluate.predict_graph_nodes"] = float(np.mean(tracer.predict_nodes))
    return dict(out)
