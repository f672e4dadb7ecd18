"""The seeded training loop, and MAE pretraining through it.

``fit`` is the one loop every run goes through: MAE pretraining here and
the supervised, linear-probe and fine-tune runs in ``evaluate``.  It
runs AdamW (betas and eps fixed at ``ADAM_BETAS`` and ``ADAM_EPS``)
under a cosine schedule with linear warmup, keeps the params of the epoch
of lowest validation loss and stops ``early_stop_patience`` epochs after
it; a validation loss is the ``mean_batch_loss`` of a validation
slice.  Everything is seeded and single-threaded deterministic: the
validation split, the per-epoch shuffles and the per-clip mask plans all
derive from the run seed, and validation masks are fixed across epochs
so val losses compare like for like.  Each step's loss, lr and rejected
flag go to the deterministic metrics stream; wall-clock timings and peak
RSS go to a sidecar file so the metrics stream itself is bit-reproducible.
A run's step budget must leave steps after the warmup; ``fit_budget``
judges it on a count, so a run's planner (such as ``evaluate.plan_fold``)
refuses one that cannot train before any data loads; ``fit`` is the backstop.

Each clip set and each parameter set is held once.  ``pretrain`` reads
its store straight into one clip array, and every training batch and
the validation slice are ``mae.ClipRows`` of it: the MAE step gathers
its patches from that array, so no batch is copied.  ``adamw_step``
writes every update into a fresh array, so ``fit`` keeps its start and
each best epoch by reference rather than by copy, and a gradient lives
only until its update is written.  Validation runs on frozen views of
the params (``checkpoint.frozen_params``), so it builds no graph.
"""

from __future__ import annotations

import math
import resource
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import data as D
from . import checkpoint as C
from . import mae as M
from . import tensors as T


class TrainError(ValueError):
    pass


ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    peak_lr: float = 1e-4
    warmup_steps: int = 1000
    batch_size: int = 128
    weight_decay: float = 0.03
    early_stop_patience: int = 5
    max_epochs: int = 40
    seed: int = 0
    val_fraction: float = 0.05

    def __post_init__(self):
        for name in ("warmup_steps", "batch_size", "early_stop_patience", "max_epochs", "seed"):
            value = getattr(self, name)
            if type(value) is not int:
                raise TrainError(f"{name} must be an integer, got {value!r}")
        for name in ("peak_lr", "weight_decay"):
            if not math.isfinite(getattr(self, name)):
                raise TrainError(f"{name} must be finite")
        positive = ("peak_lr", "warmup_steps", "batch_size", "max_epochs")
        for name in positive:
            if not getattr(self, name) > 0:
                raise TrainError(f"{name} must be positive")
        if self.weight_decay < 0:
            raise TrainError("weight_decay must be >= 0")
        if self.early_stop_patience < 1:
            raise TrainError("early_stop_patience must be >= 1")
        if not 0 < self.val_fraction < 1:
            raise TrainError("val_fraction must be in (0, 1)")


def step_budget(n_fit: int, cfg: TrainConfig) -> int:
    """The run's total steps: ``max_epochs`` epochs of ``n_fit`` items in batches of ``batch_size``.

    A budget that leaves no step after ``warmup_steps`` raises ``TrainError``.
    """
    total_steps = cfg.max_epochs * math.ceil(n_fit / cfg.batch_size)
    if total_steps <= cfg.warmup_steps:
        raise TrainError(f"total_steps {total_steps} must exceed warmup_steps {cfg.warmup_steps}")
    return total_steps


def fit_budget(n: int, cfg: TrainConfig) -> int:
    """``step_budget`` of a run on ``n`` items, after ``val_split`` takes its validation slice.

    It reads the count alone, so a run that cannot train (a ``TrainError``)
    is refused before anything loads.
    """
    _, fit_idx = val_split(n, cfg, 0)
    return step_budget(len(fit_idx), cfg)


def lr_at(step: int, config: TrainConfig, total_steps: int) -> float:
    """Linear warmup 0 -> peak, then cosine decay to 0 at ``total_steps``, a ``step_budget``."""
    if step <= config.warmup_steps:
        return config.peak_lr * step / config.warmup_steps
    progress = (step - config.warmup_steps) / (total_steps - config.warmup_steps)
    progress = min(progress, 1.0)
    return config.peak_lr * 0.5 * (1.0 + math.cos(math.pi * progress))


def adamw_step(params: dict, grads: dict, state: dict, lr: float, config: TrainConfig) -> bool:
    """One decoupled-weight-decay Adam update (``ADAM_BETAS``, ``ADAM_EPS``) into fresh arrays.

    Rejects the whole step (returns False) when any gradient is
    non-finite.  ``state`` holds per-name first/second moments plus the
    shared step count.  The moments are allocated on the first step and
    updated in place after it, so a step allocates no new optimizer state.
    Each parameter's update is written into a fresh array that then
    replaces its tensor's ``data``: the array the tensor held keeps its
    bits, so whoever else holds it (``fit``'s best epoch, a checkpoint a
    fine-tune started from) holds it unchanged and no copy is needed.
    Each gradient is popped from ``grads`` once its update is written (and
    the old array dropped, unless someone else holds it), so the new
    arrays take the gradients' place as the step goes and it needs at
    most one parameter's worth of memory beyond what it started with.
    The update runs one flat block of ``tensors.BLOCK_ELEMS`` entries at
    a time, through views of the parameter and its moments, so its
    temporaries stay block-sized; it is elementwise, so the bits are
    those of the whole parameter at once.  A parameter that is not
    C-contiguous, whose moments (made by ``np.zeros_like``, in its
    layout) would flatten to copies, raises ``TrainError`` before
    anything is updated.
    """
    names = sorted(grads)
    for name in names:
        if not np.isfinite(grads[name]).all():
            return False
    for name in names:
        if not params[name].data.flags.c_contiguous:
            raise TrainError(f"AdamW updates {name} through flat views and needs it C-contiguous")
    state["t"] = state.get("t", 0) + 1
    t = state["t"]
    c1 = 1.0 - ADAM_BETAS[0] ** t
    c2 = 1.0 - ADAM_BETAS[1] ** t
    for name in names:
        tensor = params[name]
        if name not in state:
            state[name] = {"m": np.zeros_like(tensor.data), "v": np.zeros_like(tensor.data)}
        buf = state[name]
        tensor.data = _adamw_update(tensor.data, grads.pop(name), buf["m"], buf["v"], lr, config.weight_decay, c1, c2)
    return True


def _adamw_update(p, g, m, v, lr, weight_decay, c1, c2) -> np.ndarray:
    """``p`` after one update, as a fresh array; the moments ``m`` and ``v`` are updated in place."""
    b1, b2 = ADAM_BETAS
    new = np.empty_like(p)
    flat = [a.reshape(-1) for a in (p, new, m, v, g)]  # p, new, m and v are C-contiguous: views
    for i in range(0, new.size, T.BLOCK_ELEMS):
        p_blk, new_blk, m_blk, v_blk, g_blk = (a[i : i + T.BLOCK_ELEMS] for a in flat)
        m_blk *= b1
        m_blk += (1.0 - b1) * g_blk
        v_blk *= b2
        v_blk += (1.0 - b2) * (g_blk * g_blk)
        if weight_decay:
            np.subtract(p_blk, lr * weight_decay * p_blk, out=new_blk)
        else:
            new_blk[...] = p_blk
        new_blk -= lr * (m_blk / c1) / (np.sqrt(v_blk / c2) + ADAM_EPS)
    return new


class AdamW:
    """Stateful wrapper over ``adamw_step`` bound to a parameter dict.

    ``step`` takes every gradient off its tensor before the update, so
    after it no parameter holds a ``grad`` and each gradient is freed as
    soon as ``adamw_step`` has used it.
    """

    def __init__(self, params: dict, config: TrainConfig):
        self.params = params
        self.config = config
        self.state = {}

    def step(self, lr: float) -> bool:
        grads = {k: t.grad for k, t in self.params.items() if t.requires_grad and t.grad is not None}
        for t in self.params.values():
            t.zero_grad()
        return adamw_step(self.params, grads, self.state, lr, self.config)


@dataclass(frozen=True)
class RunMetrics:
    """A run's records, built once, when ``fit`` returns."""

    steps: tuple  # {"step", "lr", "train_loss", "rejected"}; "rejected" marks an update AdamW refused
    epochs: tuple  # {"epoch", "val_loss", "best"}; "best" marks a new lowest val_loss
    timing: tuple  # {"epoch", "wall_seconds", "peak_rss_mb"} (volatile)

    def save(self, run_dir) -> Path:
        """metrics.jsonl holds the deterministic stream; wall-clock and peak
        RSS go to timing.jsonl so metrics files stay bit-identical across runs."""
        run_dir = Path(run_dir)
        steps = [{"kind": "step", **rec} for rec in self.steps]
        path = D.write_jsonl(run_dir / "metrics.jsonl", steps + [{"kind": "epoch", **rec} for rec in self.epochs])
        D.write_jsonl(run_dir / "timing.jsonl", [{"kind": "timing", **rec} for rec in self.timing])
        return path


@dataclass(frozen=True)
class FitResult:
    """What ``fit`` returns: the best params kept, the epoch that kept them, and the run's records."""

    params: dict
    best_epoch: int  # 0 when no epoch improved on the start
    best_value: float  # lowest validation loss; +inf when best_epoch is 0
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
    order = np.random.default_rng([cfg.seed, stream]).permutation(n)
    n_val = max(1, int(round(cfg.val_fraction * n)))
    if n <= n_val:
        raise TrainError(f"a validation slice of {n_val} leaves none of {n} items to fit")
    return order[:n_val], order[n_val:]


def fit(params: dict, fit_idx, cfg: TrainConfig, stream: int, batch_loss, val_loss) -> FitResult:
    """The seeded loop every training run shares.

    Each epoch visits ``fit_idx`` in the ``[seed, stream + 1, epoch]``
    order, in batches of ``cfg.batch_size`` with the trailing partial
    batch kept.  ``batch_loss(idx, epoch)`` returns the loss Tensor of
    one batch; its backward pass and an AdamW step under the warmup-cosine
    schedule follow.  ``val_loss()`` scores ``params`` after each epoch,
    and each epoch's value is recorded under ``val_loss``.  The run keeps
    the params of the epoch of lowest validation loss (the first of a
    tie), or the start when no epoch improves on it, and it stops once
    ``early_stop_patience`` epochs have passed since that epoch.  It keeps
    them by reference, copying nothing: ``adamw_step`` writes every update
    into a fresh array, so the arrays of a kept epoch never change.  The
    run holds its live params, the kept ones while they differ, the
    AdamW moments and one batch's graph.  The step budget is judged
    (``step_budget``) before the first step.
    Every step lands in ``metrics``, rejected optimizer steps flagged;
    the record is built once, when the run returns.  A non-finite loss
    stops the run with ``aborted`` set.
    """
    total_steps = step_budget(len(fit_idx), cfg)
    opt = AdamW(params, cfg)
    best, best_epoch = math.inf, 0  # the lowest validation loss, and the epoch that reached it
    steps, epochs, timing = [], [], []
    best_params = C.shared_params(params)
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
            steps.append({"step": step, "lr": lr, "train_loss": train_loss, "rejected": not opt.step(lr)})
        if aborted:
            break
        value = val_loss()
        improved = value < best
        if improved:
            best, best_epoch, best_params = value, epoch, C.shared_params(params)
        epochs.append({"epoch": epoch, "val_loss": value, "best": improved})
        timing.append({"epoch": epoch, "wall_seconds": time.monotonic() - t0, "peak_rss_mb": _peak_rss_mb()})
        if epoch - best_epoch >= cfg.early_stop_patience:
            break
    return FitResult(best_params, best_epoch, best, RunMetrics(tuple(steps), tuple(epochs), tuple(timing)), aborted)


def val_mask_plans(model_cfg: M.ModelConfig, n_val: int, seed: int) -> list:
    """Fixed seed-derived validation masks, identical every epoch."""
    return [M.sample_mask(model_cfg.n_patches, model_cfg.mask_ratio, [seed, 40, j]) for j in range(n_val)]


def mean_batch_loss(batch_loss, n: int, batch_size: int) -> float:
    """Mean of ``batch_loss(sl)`` over ``n`` items in slices of ``batch_size``, each weighted by its length."""
    total = 0.0
    for i in range(0, n, batch_size):
        sl = slice(i, min(i + batch_size, n))
        total += float(batch_loss(sl).data) * (sl.stop - sl.start)
    return total / n


def masked_val_loss(model: M.MaskedAutoencoder, clips, plans: list, batch_size: int) -> float:
    """``mean_batch_loss`` of the masked reconstruction over ``clips``, run on frozen views of the params: no graph.

    ``clips`` is a clip array or an ``mae.ClipRows``; each batch is a
    slice of it, so rows of a larger array are scored where they lie.
    """
    frozen = M.MaskedAutoencoder(model.cfg, params=C.frozen_params(model.params))
    return mean_batch_loss(lambda sl: frozen.forward_loss(clips[sl], plans[sl])[0], len(clips), batch_size)


def pretrain_arrays(clips: np.ndarray, model_cfg: M.ModelConfig, cfg: TrainConfig) -> FitResult:
    """Masked-reconstruction pretraining over an in-memory clip tensor, through ``fit`` on streams 1/2.

    Holds ``clips`` as given and nothing more of it: each training batch
    and the validation slice are ``mae.ClipRows`` of ``clips``, whose
    patches the step reads where they lie.  Writes nothing: the caller
    saves ``metrics`` and the params it wants kept.
    """
    val_idx, train_idx = val_split(len(clips), cfg, 1)
    model = M.MaskedAutoencoder(model_cfg, seed=[cfg.seed, 0])
    val_plans = val_mask_plans(model_cfg, len(val_idx), cfg.seed)

    def batch_loss(idx, epoch):
        plans = [M.sample_mask(model_cfg.n_patches, model_cfg.mask_ratio, [cfg.seed, 3, epoch, int(i)]) for i in idx]
        return model.forward_loss(M.ClipRows(clips, idx), plans)[0]

    def val_loss():
        return masked_val_loss(model, M.ClipRows(clips, val_idx), val_plans, cfg.batch_size)

    return fit(model.params, train_idx, cfg, 1, batch_loss, val_loss)


def pretrain(manifest: D.DatasetManifest, store_dir, model_cfg: M.ModelConfig, cfg: TrainConfig) -> FitResult:
    """Read every clip of the manifest into one array and run ``pretrain_arrays`` on it; writes nothing.

    The store is read by ``data.load_clip_array``, so the run holds the
    clips once, as that (N, 600, 90) float32 array.
    """
    return pretrain_arrays(D.load_clip_array(store_dir, manifest), model_cfg, cfg)
