"""Scaling studies: data-fraction / capacity / masking / patch sweeps,
log-linear fits, and analytic FLOPs estimates.

``sweep_cells`` plans every cell, an ``evaluate.Cell``, before any trains:
one fold per seed, shared by every value.  ``run_sweep`` takes the cells and
judges nothing again: ``evaluate.run_cell`` pretrains each on a pool of its
fold's training clips, then fine-tunes and scores that encoder on the one
test set whose hash every row records.  Data-fraction pools are nested per
seed so scale effects are not confounded with sample luck.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import data as D
from . import evaluate as E
from . import mae as M
from . import training as R


class SweepError(ValueError):
    pass


SWEEP_AXES = ("data_fraction", "model_variant", "mask_ratio", "patch_size")


@dataclass(frozen=True)
class SweepSpec:
    axis: str
    values: list
    seeds: list = field(default_factory=lambda: [0])

    def __post_init__(self):
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


@dataclass(frozen=True)
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
    return [ids[i] for i in order[: math.ceil(fraction * len(ids))]]


def _cell_model_cfg(model_cfg: M.ModelConfig, axis: str, value) -> M.ModelConfig:
    if axis == "model_variant":
        return replace(model_cfg, variant=value, enc_layers=0, enc_dim=0, enc_heads=0)
    if axis == "mask_ratio":
        return replace(model_cfg, mask_ratio=float(value))
    if axis == "patch_size":
        pt, pf = value
        return replace(model_cfg, patch_time=int(pt), patch_freq=int(pf))
    return model_cfg


def sweep_cells(
    spec: SweepSpec, manifest: D.DatasetManifest, split: D.SplitSpec, model_cfg: M.ModelConfig,
    pretrain_cfg: R.TrainConfig, train_cfg: R.TrainConfig, label_fraction: float,
) -> list:
    """Each cell's (value, ``evaluate.Cell``) in row order, values then seeds.

    A seed's fold, ``evaluate.plan_fold`` of ``split`` at that seed, serves
    every value; a cell pretrains at its seed on the fold's training ids, or
    their ``nested_subset`` on the data_fraction axis.  A value that makes no
    valid model config raises, and so does a cell that cannot train, as a
    ``SweepError`` naming it.  Nothing loads or trains.
    """
    folds, cells = {}, []
    for value in spec.values:
        cell_model_cfg = _cell_model_cfg(model_cfg, spec.axis, value)
        for seed in spec.seeds:
            try:
                if seed not in folds:
                    folds[seed] = E.plan_fold(manifest, split, replace(train_cfg, seed=seed), label_fraction)
                fold = folds[seed]
                pool = nested_subset(fold.train_ids, float(value), seed) if spec.axis == "data_fraction" else fold.train_ids
                cells.append((value, E.Cell(fold, cell_model_cfg, replace(pretrain_cfg, seed=seed), pool)))
            except E.EvalError as e:
                raise SweepError(f"{spec.axis} {value!r}, seed {seed}: cannot train: {e}") from e
    return cells


def run_sweep(axis: str, manifest: D.DatasetManifest, store_dir, cells) -> list:
    """``sweep_cells``' cells -> result rows, one ``evaluate.run_cell`` per cell.

    Each cell pretrains on its pool, fine-tunes on its fold's labeled
    budget and scores the fold's test set.
    """
    rows = []
    for value, cell in cells:
        pretrained, (result,) = E.run_cell(manifest, store_dir, cell, ["ft"])
        rows.append(
            {
                "axis": axis,
                "value": value,
                "seed": cell.fold.train_cfg.seed,
                "n_pretrain": len(cell.pool),
                "pretrain_val_loss": pretrained.best_value,
                "accuracy": result.accuracy,
                "n_test": result.n_test,
                "test_set_hash": test_set_hash(cell.fold.test_ids),
            }
        )
    return rows


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
