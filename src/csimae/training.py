"""The seeded training loop, and MAE pretraining through it.

``fit`` is the one loop every run goes through: MAE pretraining here and
the supervised, linear-probe and fine-tune runs in ``evaluate``.  It
runs AdamW (betas and eps fixed at ``ADAM_BETAS`` and ``ADAM_EPS``)
under a cosine schedule with linear warmup and stops early on a
validation slice.  Everything is seeded and single-threaded
deterministic: the validation split, the per-epoch shuffles and the
per-clip mask plans all derive from the run seed, and validation masks
are fixed across epochs so val losses compare like for like.  Each
step's loss, lr and rejected flag go to the deterministic metrics
stream; wall-clock timings and peak RSS go to a sidecar file so the
metrics stream itself is bit-reproducible.
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


ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8


@dataclass
class TrainConfig:
    peak_lr: float = 1e-4
    warmup_steps: int = 1000
    batch_size: int = 128
    weight_decay: float = 0.03
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
    """One decoupled-weight-decay Adam update (``ADAM_BETAS``, ``ADAM_EPS``), in place.

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
    b1, b2 = ADAM_BETAS
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
        p -= lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
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
class FitResult:
    """What ``fit`` returns: the best params kept, the epoch that kept them, and the run's records."""

    params: dict
    best_epoch: int  # 0 when no epoch improved on the start
    best_value: float  # best validation value; +inf ("min") or -inf ("max") when best_epoch is 0
    metrics: RunMetrics
    aborted: bool = False  # a non-finite loss stopped the run; params are the best kept before it

    @property
    def rejected_steps(self) -> int:
        return sum(s["rejected"] for s in self.metrics.steps)


def _peak_rss_mb() -> float:
    """This process's peak resident set size so far, in MB (Linux reports ``ru_maxrss`` in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def val_split(n: int, cfg: TrainConfig, stream: int) -> tuple:
    """(val, fit) indices: the first ``val_fraction`` of the ``[seed, stream]`` permutation of ``range(n)``."""
    cfg.validate()
    order = np.random.default_rng([cfg.seed, stream]).permutation(n)
    n_val = max(1, int(round(cfg.val_fraction * n)))
    if n <= n_val:
        raise TrainError(f"a validation slice of {n_val} leaves none of {n} items to fit")
    return order[:n_val], order[n_val:]


_VAL_KEYS = {"min": "val_loss", "max": "val_accuracy"}


def fit(params: dict, fit_idx, cfg: TrainConfig, stream: int, batch_loss, val_metric, mode: str = "min") -> FitResult:
    """The seeded loop every training run shares.

    Each epoch visits ``fit_idx`` in the ``[seed, stream + 1, epoch]``
    order, in batches of ``cfg.batch_size`` with the trailing partial
    batch kept.  ``batch_loss(idx, epoch)`` returns the loss Tensor of
    one batch; its backward pass and an AdamW step under the warmup-cosine
    schedule follow.  ``val_metric()`` scores ``params`` after each epoch;
    the best-scoring params (``mode`` "min" or "max") are cloned and the
    run stops after ``early_stop_patience`` epochs without improvement.
    Every step lands in ``metrics``, rejected optimizer steps flagged.  A
    non-finite loss stops the run with ``aborted`` set.
    """
    val_key = _VAL_KEYS[mode]
    total_steps = cfg.max_epochs * math.ceil(len(fit_idx) / cfg.batch_size)
    opt = AdamW(params, cfg)
    stopper = EarlyStopper(cfg.early_stop_patience, mode)
    metrics = RunMetrics()
    best_params = C.clone_params(params)
    aborted = False
    step = 0
    for epoch in range(1, cfg.max_epochs + 1):
        t0 = time.monotonic()
        shuffled = fit_idx[np.random.default_rng([cfg.seed, stream + 1, epoch]).permutation(len(fit_idx))]
        for i in range(0, len(shuffled), cfg.batch_size):
            step += 1
            loss = batch_loss(shuffled[i : i + cfg.batch_size], epoch)
            train_loss = float(loss.data)
            if not math.isfinite(train_loss):
                aborted = True
                break
            loss.backward()
            lr = lr_at(step, cfg, total_steps)
            metrics.add_step(step, lr, train_loss, rejected=not opt.step(lr))
        if aborted:
            break
        value = val_metric()
        improved = stopper.update(epoch, value)
        metrics.add_epoch({"epoch": epoch, val_key: value, "best": improved})
        metrics.timing.append({"epoch": epoch, "wall_seconds": time.monotonic() - t0, "peak_rss_mb": _peak_rss_mb()})
        if improved:
            best_params = C.clone_params(params)
        if stopper.should_stop(epoch):
            break
    return FitResult(best_params, stopper.best_epoch, stopper.best_value, metrics, aborted)


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


def pretrain_arrays(clips: np.ndarray, model_cfg: M.ModelConfig, cfg: TrainConfig, run_dir=None) -> FitResult:
    """Masked-reconstruction pretraining over an in-memory clip tensor, through ``fit`` on streams 1/2."""
    val_idx, train_idx = val_split(len(clips), cfg, 1)
    model = M.MaskedAutoencoder(model_cfg, seed=[cfg.seed, 0])
    val_clips = clips[val_idx]
    val_plans = val_mask_plans(model_cfg, len(val_idx), cfg.seed)

    def batch_loss(idx, epoch):
        plans = [M.sample_mask(model_cfg.n_patches, model_cfg.mask_ratio, [cfg.seed, 3, epoch, int(i)]) for i in idx]
        return model.forward_loss(clips[idx], plans)[0]

    def val_loss():
        return masked_val_loss(model, val_clips, val_plans, cfg.batch_size)

    res = fit(model.params, train_idx, cfg, 1, batch_loss, val_loss, mode="min")
    if run_dir is not None:
        run_dir = Path(run_dir)
        res.metrics.save(run_dir)
        C.save_checkpoint(
            run_dir / "checkpoint.ckpt",
            res.params,
            model_cfg,
            extra={"best_epoch": res.best_epoch, "best_val_loss": res.best_value, "aborted": res.aborted},
        )
    return res


def pretrain(manifest: D.DatasetManifest, store_dir, model_cfg: M.ModelConfig, cfg: TrainConfig, run_dir=None) -> FitResult:
    """Load every clip of the manifest from the store and run ``pretrain_arrays``."""
    if not manifest.entries:
        raise TrainError("empty manifest")
    clips = D.load_clips(store_dir, manifest)
    x, _ = D.stack_clips(clips)
    return pretrain_arrays(x, model_cfg, cfg, run_dir=run_dir)
