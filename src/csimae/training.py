"""Pretraining loop: AdamW, cosine schedule with linear warmup, early stopping.

Everything is seeded and single-threaded-deterministic: the validation
split, the per-epoch shuffles, and the per-clip mask plans all derive
from the run seed, and validation masks are fixed across epochs so val
losses compare like for like.  Wall-clock timings and peak RSS go to a
sidecar file so the metrics stream itself is bit-reproducible.
"""

from __future__ import annotations

import json
import math
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import data as D
from . import checkpoint as C
from . import mae as M


class TrainError(ValueError):
    pass


@dataclass
class TrainConfig:
    peak_lr: float = 1e-4
    warmup_steps: int = 1000
    batch_size: int = 128
    weight_decay: float = 0.03
    betas: tuple = (0.9, 0.999)
    adam_eps: float = 1e-8
    early_stop_patience: int = 5
    max_epochs: int = 40
    seed: int = 0
    val_fraction: float = 0.05

    def validate(self):
        positive = ("peak_lr", "warmup_steps", "batch_size", "max_epochs")
        for name in positive:
            if getattr(self, name) <= 0:
                raise TrainError(f"{name} must be positive")
        if self.early_stop_patience < 1:
            raise TrainError("early_stop_patience must be >= 1")
        if not 0 < self.val_fraction < 1:
            raise TrainError("val_fraction must be in (0, 1)")
        return self


def lr_at(step: int, config: TrainConfig, total_steps: int) -> float:
    """Linear warmup 0 -> peak, then cosine decay to 0 at total_steps."""
    if total_steps <= config.warmup_steps:
        raise TrainError(f"total_steps {total_steps} must exceed warmup_steps {config.warmup_steps}")
    if step < 0:
        raise TrainError("step must be >= 0")
    if step <= config.warmup_steps:
        return config.peak_lr * step / config.warmup_steps
    progress = (step - config.warmup_steps) / (total_steps - config.warmup_steps)
    progress = min(progress, 1.0)
    return config.peak_lr * 0.5 * (1.0 + math.cos(math.pi * progress))


def adamw_step(params: dict, grads: dict, state: dict, lr: float, config: TrainConfig) -> bool:
    """One decoupled-weight-decay Adam update, in place.

    Rejects the whole step (returns False) when any gradient is
    non-finite.  ``state`` holds per-name first/second moments plus the
    shared step count.  The moments are allocated on the first step and
    updated in place after it, so a step allocates no new optimizer state.
    """
    names = sorted(grads)
    for name in names:
        if not np.isfinite(grads[name]).all():
            return False
    state["t"] = state.get("t", 0) + 1
    t = state["t"]
    b1, b2 = config.betas
    c1 = 1.0 - b1**t
    c2 = 1.0 - b2**t
    for name in names:
        g = grads[name]
        p = params[name].data
        buf = state.setdefault(name, {"m": np.zeros_like(p), "v": np.zeros_like(p)})
        m, v = buf["m"], buf["v"]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        if config.weight_decay:
            p -= lr * config.weight_decay * p
        p -= lr * (m / c1) / (np.sqrt(v / c2) + config.adam_eps)
    return True


class AdamW:
    """Stateful wrapper over ``adamw_step`` bound to a parameter dict."""

    def __init__(self, params: dict, config: TrainConfig):
        self.params = params
        self.config = config
        self.state = {}

    def step(self, lr: float) -> bool:
        grads = {k: t.grad for k, t in self.params.items() if t.requires_grad and t.grad is not None}
        ok = adamw_step(self.params, grads, self.state, lr, self.config)
        for t in self.params.values():
            t.zero_grad()
        return ok


class EarlyStopper:
    """Best-value tracking with a patience window (strict improvement)."""

    def __init__(self, patience: int, mode: str = "min"):
        self.patience = patience
        self.sign = 1.0 if mode == "min" else -1.0
        self.best = math.inf
        self.best_epoch = 0

    def update(self, epoch: int, value: float) -> bool:
        if self.sign * value < self.best:
            self.best = self.sign * value
            self.best_epoch = epoch
            return True
        return False

    def should_stop(self, epoch: int) -> bool:
        return epoch - self.best_epoch >= self.patience

    @property
    def best_value(self) -> float:
        return self.sign * self.best


@dataclass
class RunMetrics:
    steps: list = field(default_factory=list)  # {"step", "lr", "train_loss", "rejected"}
    epochs: list = field(default_factory=list)  # {"epoch", "val_loss"|"val_accuracy", "best"}
    timing: list = field(default_factory=list)  # {"epoch", "wall_seconds", "peak_rss_mb"} (volatile)

    def add_step(self, step, lr, loss, rejected):
        """``rejected`` marks a step whose update AdamW refused (non-finite gradient)."""
        if self.steps and step <= self.steps[-1]["step"]:
            raise TrainError("steps must be strictly increasing")
        self.steps.append({"step": step, "lr": lr, "train_loss": loss, "rejected": rejected})

    def add_epoch(self, record):
        self.epochs.append(record)

    def save(self, run_dir) -> Path:
        """metrics.jsonl holds the deterministic stream; wall-clock and peak
        RSS go to timing.jsonl so metrics files stay bit-identical across runs."""
        run_dir = Path(run_dir)
        run_dir.mkdir(parents=True, exist_ok=True)
        with open(run_dir / "metrics.jsonl", "w", encoding="utf-8") as fh:
            for rec in self.steps:
                fh.write(json.dumps({"kind": "step", **rec}, sort_keys=True) + "\n")
            for rec in self.epochs:
                fh.write(json.dumps({"kind": "epoch", **rec}, sort_keys=True) + "\n")
        with open(run_dir / "timing.jsonl", "w", encoding="utf-8") as fh:
            for rec in self.timing:
                fh.write(json.dumps({"kind": "timing", **rec}, sort_keys=True) + "\n")
        return run_dir / "metrics.jsonl"


@dataclass
class PretrainResult:
    params: dict
    model_config: M.ModelConfig
    best_epoch: int
    best_val_loss: float
    metrics: RunMetrics
    aborted: bool = False


def _peak_rss_mb() -> float:
    """This process's peak resident set size so far, in MB (Linux reports ``ru_maxrss`` in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _batches(order: np.ndarray, batch_size: int):
    """Full batches plus the trailing partial batch (kept, not dropped)."""
    for i in range(0, len(order), batch_size):
        yield order[i : i + batch_size]


def val_mask_plans(model_cfg: M.ModelConfig, n_val: int, seed: int) -> list:
    """Fixed seed-derived validation masks, identical every epoch."""
    return [M.sample_mask(model_cfg.n_patches, model_cfg.mask_ratio, [seed, 40, j]) for j in range(n_val)]


def masked_val_loss(model: M.MaskedAutoencoder, clips: np.ndarray, plans: list, batch_size: int) -> float:
    total, n = 0.0, 0
    for i in range(0, len(clips), batch_size):
        batch, bplans = clips[i : i + batch_size], plans[i : i + batch_size]
        loss, _ = model.forward_loss(batch, bplans)
        total += float(loss.data) * len(batch)
        n += len(batch)
    return total / n


def pretrain_arrays(clips: np.ndarray, model_cfg: M.ModelConfig, cfg: TrainConfig, run_dir=None) -> PretrainResult:
    """Masked-reconstruction pretraining over an in-memory clip tensor."""
    cfg.validate()
    n = len(clips)
    if n < 2:
        raise TrainError("need at least 2 clips to carve a validation split")
    order = np.random.default_rng([cfg.seed, 1]).permutation(n)
    n_val = max(1, int(round(cfg.val_fraction * n)))
    val_idx, train_idx = order[:n_val], order[n_val:]
    if not len(train_idx):
        raise TrainError("validation split consumed every clip")

    steps_per_epoch = math.ceil(len(train_idx) / cfg.batch_size)
    total_steps = cfg.max_epochs * steps_per_epoch
    model = M.MaskedAutoencoder(model_cfg, seed=[cfg.seed, 0])
    opt = AdamW(model.params, cfg)
    metrics = RunMetrics()
    stopper = EarlyStopper(cfg.early_stop_patience, mode="min")
    val_clips = clips[val_idx]
    val_plans = val_mask_plans(model_cfg, n_val, cfg.seed)

    best_params = C.clone_params(model.params)
    best_epoch = 0
    aborted = False
    step = 0
    for epoch in range(1, cfg.max_epochs + 1):
        t0 = time.monotonic()
        shuffled = train_idx[np.random.default_rng([cfg.seed, 2, epoch]).permutation(len(train_idx))]
        for batch_idx in _batches(shuffled, cfg.batch_size):
            step += 1
            plans = [
                M.sample_mask(model_cfg.n_patches, model_cfg.mask_ratio, [cfg.seed, 3, epoch, int(i)])
                for i in batch_idx
            ]
            loss, _ = model.forward_loss(clips[batch_idx], plans)
            train_loss = float(loss.data)
            if not math.isfinite(train_loss):
                aborted = True
                break
            loss.backward()
            lr = lr_at(step, cfg, total_steps)
            ok = opt.step(lr)
            metrics.add_step(step, lr, train_loss, rejected=not ok)
        if aborted:
            break
        val_loss = masked_val_loss(model, val_clips, val_plans, cfg.batch_size)
        improved = stopper.update(epoch, val_loss)
        metrics.add_epoch({"epoch": epoch, "val_loss": val_loss, "best": improved})
        metrics.timing.append({"epoch": epoch, "wall_seconds": time.monotonic() - t0, "peak_rss_mb": _peak_rss_mb()})
        if improved:
            best_params = C.clone_params(model.params)
            best_epoch = epoch
        if stopper.should_stop(epoch):
            break

    result = PretrainResult(
        params=best_params,
        model_config=model_cfg,
        best_epoch=best_epoch,
        best_val_loss=stopper.best_value if best_epoch else math.inf,
        metrics=metrics,
        aborted=aborted,
    )
    if run_dir is not None:
        run_dir = Path(run_dir)
        metrics.save(run_dir)
        C.save_checkpoint(
            run_dir / "checkpoint.ckpt",
            best_params,
            model_cfg,
            extra={"best_epoch": best_epoch, "best_val_loss": result.best_val_loss, "aborted": aborted},
        )
    return result


def pretrain(
    manifest: D.DatasetManifest,
    store_dir,
    model_cfg: M.ModelConfig,
    cfg: TrainConfig,
    run_dir=None,
    clip_ids: list | None = None,
) -> PretrainResult:
    """Load clips from the store and run ``pretrain_arrays``."""
    if not manifest.entries:
        raise TrainError("empty manifest")
    clips = D.load_clips(store_dir, manifest, clip_ids)
    x, _ = D.stack_clips(clips)
    return pretrain_arrays(x, model_cfg, cfg, run_dir=run_dir)
