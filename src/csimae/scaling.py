"""Scaling studies: data-fraction / capacity / masking / patch sweeps,
log-linear fits, and analytic FLOPs estimates.

Each sweep cell is one ``evaluate.run_fold`` on the same held-out
split: it pretrains on a pool drawn from the fold's training clips,
fine-tunes, and scores the one test set whose hash every row records.
Data-fraction pools are nested per seed so scale effects are not
confounded with sample luck.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import data as D
from . import evaluate as E
from . import mae as M
from . import training as R


class SweepError(ValueError):
    pass


SWEEP_AXES = ("data_fraction", "model_variant", "mask_ratio", "patch_size")


@dataclass
class SweepSpec:
    axis: str
    values: list
    seeds: list = field(default_factory=lambda: [0])

    def validate(self):
        if self.axis not in SWEEP_AXES:
            raise SweepError(f"axis must be one of {SWEEP_AXES}")
        if len(self.values) < 2:
            raise SweepError("need at least 2 sweep values")
        if len({json.dumps(v) for v in self.values}) != len(self.values):
            raise SweepError(f"sweep values repeat: {self.values}")
        if self.axis == "data_fraction" and not all(0 < v <= 1 for v in self.values):
            raise SweepError("fractions must lie in (0, 1]")
        if not self.seeds or not all(type(s) is int for s in self.seeds) or len(set(self.seeds)) != len(self.seeds):
            raise SweepError(f"need one or more distinct integer seeds, got {self.seeds}")
        return self


@dataclass
class SweepContext:
    """Everything a sweep cell needs: corpus, downstream task, configs."""

    store_dir: str
    manifest: D.DatasetManifest
    domain_key: str
    held_out_value: str
    model_cfg: M.ModelConfig
    pretrain_cfg: R.TrainConfig
    train_cfg: R.TrainConfig
    label_fraction: float = 1.0


@dataclass
class ScalingFit:
    points: list  # (log10 size, accuracy)
    slope: float
    intercept: float
    r_squared: float


def fit_loglinear(points) -> ScalingFit:
    """Ordinary least squares over (log10 size, accuracy) pairs.

    r^2 is defined as 0 when the targets have zero variance.
    """
    points = [(float(x), float(y)) for x, y in points]
    if len(points) < 2:
        raise SweepError("need at least 2 points")
    x = np.array([p[0] for p in points])
    y = np.array([p[1] for p in points])
    if np.allclose(x, x[0]):
        raise SweepError("all x values identical")
    xm, ym = x.mean(), y.mean()
    slope = float(((x - xm) * (y - ym)).sum() / ((x - xm) ** 2).sum())
    intercept = float(ym - slope * xm)
    ss_tot = float(((y - ym) ** 2).sum())
    if ss_tot == 0.0:
        return ScalingFit(points, slope, intercept, 0.0)
    ss_res = float(((y - (slope * x + intercept)) ** 2).sum())
    return ScalingFit(points, slope, intercept, 1.0 - ss_res / ss_tot)


def estimate_flops(model_cfg: M.ModelConfig, mode: str) -> float:
    """Analytic FLOPs for one clip, multiply-accumulate counted as 2 FLOPs.

    Per transformer block over T tokens at width D, in multiply-accumulates:
    attention 4*T*D^2 + 2*T^2*D, FFN 2*E*T*D^2 with E = ``ffn_expansion``.
    ``pretrain_step`` runs the encoder on visible tokens plus the decoder on
    all tokens, and the reconstruction head on masked tokens only;
    ``inference`` runs the encoder on the full sequence only.
    """
    if mode not in ("pretrain_step", "inference"):
        raise SweepError(f"unknown mode {mode!r}")
    cfg = model_cfg
    n_p, plen = cfg.n_patches, cfg.patch_len

    def block(tokens, dim):
        attention = 4 * tokens * dim**2 + 2 * tokens**2 * dim
        ffn = 2 * cfg.ffn_expansion * tokens * dim**2
        return 2 * (attention + ffn)

    if mode == "inference":
        t_enc = n_p + 1
        total = 2 * n_p * plen * cfg.enc_dim  # patch embedding
        total += cfg.enc_layers * block(t_enc, cfg.enc_dim)
        return float(total)
    t_enc = cfg.n_visible + 1
    t_dec = n_p + 1
    total = 2 * cfg.n_visible * plen * cfg.enc_dim
    total += cfg.enc_layers * block(t_enc, cfg.enc_dim)
    total += 2 * t_enc * cfg.enc_dim * cfg.dec_dim  # latent projection
    total += cfg.dec_layers * block(t_dec, cfg.dec_dim)
    total += 2 * cfg.n_masked * cfg.dec_dim * plen  # reconstruction head, masked rows only
    return float(total)


def test_set_hash(test_ids) -> str:
    return hashlib.sha256("\n".join(sorted(test_ids)).encode()).hexdigest()[:16]


def nested_subset(ids, fraction: float, seed) -> list:
    """Seeded prefix subset: smaller fractions are contained in larger ones."""
    order = np.random.default_rng([seed, 21]).permutation(len(ids))
    n = math.ceil(fraction * len(ids))
    if n < 2:
        raise SweepError(f"fraction {fraction} yields fewer than one batch of clips")
    return [ids[i] for i in order[:n]]


def _cell_model_cfg(ctx: SweepContext, axis: str, value) -> M.ModelConfig:
    if axis == "model_variant":
        return replace(ctx.model_cfg, variant=value, enc_layers=0, enc_dim=0, enc_heads=0)
    if axis == "mask_ratio":
        return replace(ctx.model_cfg, mask_ratio=float(value))
    if axis == "patch_size":
        pt, pf = value
        return replace(ctx.model_cfg, patch_time=int(pt), patch_freq=int(pf))
    return ctx.model_cfg


def sweep_cells(spec: SweepSpec, ctx: SweepContext) -> tuple:
    """(held-out split, its test ids, each cell's (value, seed, model config, pool ids) in row order).

    The pretraining pool is the fold's training ids, or their
    ``nested_subset`` on the data_fraction axis.  A value that makes no
    valid model config or pool raises; nothing trains.
    """
    spec.validate()
    split = D.SplitSpec("leave_one_domain_out", ctx.domain_key, ctx.held_out_value)
    train_ids, test_ids = D.make_split(ctx.manifest, split)
    cells = []
    for value in spec.values:
        model_cfg = _cell_model_cfg(ctx, spec.axis, value)
        for seed in spec.seeds:
            pool = nested_subset(train_ids, float(value), seed) if spec.axis == "data_fraction" else train_ids
            cells.append((value, seed, model_cfg, pool))
    return split, test_ids, cells


def run_sweep(spec: SweepSpec, ctx: SweepContext) -> list:
    """Grid of (value x seed) cells -> result rows, one ``evaluate.run_fold`` per cell.

    Each cell pretrains on its pool, fine-tunes on its seed's labeled
    budget and scores the shared held-out test set.
    """
    split, test_ids, cells = sweep_cells(spec, ctx)
    shared_hash = test_set_hash(test_ids)
    rows = []
    for value, seed, model_cfg, pool in cells:
        tcfg, pcfg = replace(ctx.train_cfg, seed=seed), replace(ctx.pretrain_cfg, seed=seed)
        (result,), pretrained = E.run_fold(
            ctx.manifest, ctx.store_dir, split, ["ft"], model_cfg, tcfg, ctx.label_fraction, pcfg, pool=pool
        )
        rows.append(
            {
                "axis": spec.axis,
                "value": value,
                "seed": seed,
                "n_pretrain": len(pool),
                "pretrain_val_loss": pretrained.best_value,
                "accuracy": result.accuracy,
                "n_test": result.n_test,
                "test_set_hash": shared_hash,
            }
        )
    return rows


def save_rows(rows, path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
    return path


def load_rows(path) -> list:
    return [json.loads(line) for line in Path(path).read_text(encoding="utf-8").splitlines() if line]


def summarize_rows(rows) -> str:
    """Value x mean-accuracy table (seeds aggregated), stable ordering."""
    groups = {}
    for r in rows:
        key = json.dumps(r["value"])
        groups.setdefault(key, []).append(r["accuracy"])
    lines = [f"{'value':>16}  {'n':>3}  {'mean_acc':>8}  {'min':>6}  {'max':>6}"]
    for key in sorted(groups):
        accs = groups[key]
        lines.append(
            f"{key:>16}  {len(accs):>3}  {np.mean(accs):8.4f}  {min(accs):6.4f}  {max(accs):6.4f}"
        )
    return "\n".join(lines)
