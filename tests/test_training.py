"""Schedule endpoints, AdamW hand values, early stopping, pretrain smoke runs, the shared loop's contracts."""

import json
import math

import numpy as np
import pytest

from csimae import evaluate as E
from csimae import mae as M
from csimae import tensors as T
from csimae import training as R


def test_lr_schedule_endpoints_and_midpoint():
    cfg = R.TrainConfig(peak_lr=1e-4, warmup_steps=1000)
    total = 5000
    assert R.lr_at(1000, cfg, total) == pytest.approx(1e-4)
    assert R.lr_at(0, cfg, total) == 0.0
    assert R.lr_at(5000, cfg, total) == pytest.approx(0.0, abs=1e-20)
    assert R.lr_at(3000, cfg, total) == pytest.approx(0.5e-4)


def test_lr_schedule_requires_room_after_warmup():
    cfg = R.TrainConfig(warmup_steps=1000)
    with pytest.raises(R.TrainError, match="warmup"):
        R.lr_at(10, cfg, 1000)


def test_adamw_first_step_hand_value():
    cfg = R.TrainConfig(peak_lr=1e-4, weight_decay=0.03)
    params = {"p": T.Tensor(np.array([1.0], dtype=np.float32), requires_grad=True)}
    state = {}
    ok = R.adamw_step(params, {"p": np.array([0.5], dtype=np.float32)}, state, 1e-4, cfg)
    assert ok
    assert params["p"].data[0] == pytest.approx(0.999897, abs=1e-6)


def test_adamw_zero_grad_zero_wd_is_fixed_point():
    cfg = R.TrainConfig(weight_decay=0.0)
    params = {"p": T.Tensor(np.array([2.5], dtype=np.float32), requires_grad=True)}
    R.adamw_step(params, {"p": np.zeros(1, dtype=np.float32)}, {}, 1e-4, cfg)
    assert params["p"].data[0] == 2.5


def test_adamw_identical_inputs_identical_updates():
    cfg = R.TrainConfig()
    params = {
        "a": T.Tensor(np.full(3, 1.5, dtype=np.float32), requires_grad=True),
        "b": T.Tensor(np.full(3, 1.5, dtype=np.float32), requires_grad=True),
    }
    g = np.full(3, -0.7, dtype=np.float32)
    R.adamw_step(params, {"a": g.copy(), "b": g.copy()}, {}, 1e-3, cfg)
    np.testing.assert_array_equal(params["a"].data, params["b"].data)


def test_adamw_rejects_nonfinite_grads():
    cfg = R.TrainConfig()
    params = {"p": T.Tensor(np.ones(2, dtype=np.float32), requires_grad=True)}
    before = params["p"].data.copy()
    ok = R.adamw_step(params, {"p": np.array([1.0, np.nan], dtype=np.float32)}, {}, 1e-3, cfg)
    assert not ok
    np.testing.assert_array_equal(params["p"].data, before)


def test_early_stopping_patience_arithmetic():
    # val losses 1.0, 0.9, 0.9 ... -> best at epoch 2, stop after epoch 7
    stopper = R.EarlyStopper(patience=5, mode="min")
    losses = [1.0, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9]
    stopped_after = None
    for epoch, v in enumerate(losses, start=1):
        stopper.update(epoch, v)
        if stopper.should_stop(epoch):
            stopped_after = epoch
            break
    assert stopped_after == 7
    assert stopper.best_epoch == 2


def desk_cfg(**kw):
    defaults = dict(warmup_steps=5, batch_size=16, max_epochs=6, seed=0, val_fraction=0.1)
    defaults.update(kw)
    return R.TrainConfig(**defaults)


def desk_model_cfg(**kw):
    defaults = dict(
        variant="tiny",
        patch_time=100,
        patch_freq=15,
        dec_layers=2,
        dec_dim=128,
        dec_heads=4,
        mask_ratio=0.8,
    )
    defaults.update(kw)
    return M.ModelConfig(**defaults)


def synthetic_clip_batch(n, seed=0):
    """Structured clips (shared low-rank temporal patterns + noise)."""
    rng = np.random.default_rng(seed)
    t = np.linspace(0, 1, 600)[:, None]
    basis = np.stack([np.sin(2 * np.pi * f * t[:, 0]) for f in (1, 3, 7)], axis=1)  # (600, 3)
    mix = rng.standard_normal((n, 3, 90))
    x = np.einsum("tk,nkc->ntc", basis, mix) + 0.1 * rng.standard_normal((n, 600, 90))
    x = (x - x.mean(axis=2, keepdims=True)) / x.std(axis=2, keepdims=True)
    return x.astype(np.float32)


def test_pretrain_smoke_loss_decreases(tmp_path):
    clips = synthetic_clip_batch(48, seed=1)
    result = R.pretrain_arrays(clips, desk_model_cfg(), desk_cfg(), run_dir=tmp_path / "run")
    assert not result.aborted
    first = result.metrics.steps[0]["train_loss"]
    last = result.metrics.steps[-1]["train_loss"]
    assert last < first
    assert (tmp_path / "run" / "checkpoint.ckpt").exists()
    assert (tmp_path / "run" / "metrics.jsonl").exists()


def test_pretrain_metrics_deterministic(tmp_path):
    clips = synthetic_clip_batch(32, seed=2)
    r1 = R.pretrain_arrays(clips, desk_model_cfg(), desk_cfg(max_epochs=3), run_dir=tmp_path / "a")
    r2 = R.pretrain_arrays(clips, desk_model_cfg(), desk_cfg(max_epochs=3), run_dir=tmp_path / "b")
    assert (tmp_path / "a" / "metrics.jsonl").read_bytes() == (tmp_path / "b" / "metrics.jsonl").read_bytes()
    assert (tmp_path / "a" / "checkpoint.ckpt").read_bytes() == (tmp_path / "b" / "checkpoint.ckpt").read_bytes()
    assert r1.params.keys() == r2.params.keys()
    assert all(r1.params[k].data.tobytes() == r2.params[k].data.tobytes() for k in r1.params)


def test_validation_masks_are_fixed_across_epochs():
    cfg = desk_model_cfg()
    plans_a = R.val_mask_plans(cfg, 5, seed=9)
    plans_b = R.val_mask_plans(cfg, 5, seed=9)
    for a, b in zip(plans_a, plans_b):
        np.testing.assert_array_equal(a.masked_idx, b.masked_idx)


def test_epochs_after_best_never_exceed_patience(tmp_path):
    clips = synthetic_clip_batch(32, seed=3)
    cfg = desk_cfg(max_epochs=12, early_stop_patience=2)
    result = R.pretrain_arrays(clips, desk_model_cfg(), cfg)
    last_epoch = result.metrics.epochs[-1]["epoch"]
    assert last_epoch - result.best_epoch <= cfg.early_stop_patience


def test_overfit_frozen_batch_reduces_loss(tmp_path):
    # quick variant of the acceptance overfit check: 60 steps, 8 clips
    from csimae import data as D
    from csimae import synth as S

    spec = S.SynthTaskSpec(n_classes=2, n_environments=1, n_subjects=1, clips_per_cell=4, seed=77)
    manifest = S.generate_task(spec, tmp_path / "store")
    clips, _ = D.stack_clips(D.load_clips(tmp_path / "store", manifest))
    cfg = desk_model_cfg()
    model = M.MaskedAutoencoder(cfg, seed=5)
    tcfg = desk_cfg(warmup_steps=6, max_epochs=1)
    opt = R.AdamW(model.params, tcfg)
    plans = [M.sample_mask(cfg.n_patches, cfg.mask_ratio, [6, i]) for i in range(len(clips))]
    losses = []
    for step in range(1, 61):
        loss, _ = model.forward_loss(clips, plans)
        losses.append(float(loss.data))
        loss.backward()
        opt.step(R.lr_at(step, tcfg, 200))
    assert losses[-1] < 0.7 * losses[0]


def test_rejected_step_is_recorded_in_metrics(tmp_path, monkeypatch):
    real, calls = R.adamw_step, []

    def refuse_second(params, grads, state, lr, config):
        calls.append(lr)
        return False if len(calls) == 2 else real(params, grads, state, lr, config)

    monkeypatch.setattr(R, "adamw_step", refuse_second)
    clips = synthetic_clip_batch(20, seed=4)
    R.pretrain_arrays(clips, desk_model_cfg(), desk_cfg(warmup_steps=1, max_epochs=2), run_dir=tmp_path)
    lines = (tmp_path / "metrics.jsonl").read_text().splitlines()
    steps = [r for r in map(json.loads, lines) if r["kind"] == "step"]
    assert len(steps) == len(calls) == 4
    assert [r["rejected"] for r in steps] == [False, True, False, False]


def test_timing_records_wall_seconds_and_peak_rss_per_epoch(tmp_path):
    clips = synthetic_clip_batch(20, seed=5)
    R.pretrain_arrays(clips, desk_model_cfg(), desk_cfg(warmup_steps=1, max_epochs=2), run_dir=tmp_path)
    records = [json.loads(line) for line in (tmp_path / "timing.jsonl").read_text().splitlines()]
    assert [r["epoch"] for r in records] == [1, 2]
    assert all(set(r) == {"kind", "epoch", "wall_seconds", "peak_rss_mb"} for r in records)
    assert 0 < records[0]["peak_rss_mb"] <= records[1]["peak_rss_mb"]
    metrics = (tmp_path / "metrics.jsonl").read_text()
    assert "peak_rss_mb" not in metrics and "wall_seconds" not in metrics


def test_adamw_updates_moments_in_place_with_the_allocating_update_bits():
    cfg = R.TrainConfig(weight_decay=0.03)
    rng = np.random.default_rng(6)
    p0 = rng.standard_normal((4, 5)).astype(np.float32)
    grads = [rng.standard_normal((4, 5)).astype(np.float32) for _ in range(3)]
    params, state = {"p": T.Tensor(p0.copy(), requires_grad=True)}, {}
    # reference: the same update with freshly allocated moments every step
    p, m, v = p0.copy(), np.zeros_like(p0), np.zeros_like(p0)
    b1, b2 = R.ADAM_BETAS
    for t, g in enumerate(grads, start=1):
        assert R.adamw_step(params, {"p": g}, state, 1e-3, cfg)
        if t == 1:
            moments = state["p"]["m"], state["p"]["v"]
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * (g * g)
        p -= 1e-3 * cfg.weight_decay * p
        p -= 1e-3 * (m / (1.0 - b1**t)) / (np.sqrt(v / (1.0 - b2**t)) + R.ADAM_EPS)
        assert params["p"].data.tobytes() == p.tobytes()
    assert state["p"]["m"] is moments[0] and state["p"]["v"] is moments[1]
    assert state["p"]["m"].tobytes() == m.tobytes() and state["p"]["v"].tobytes() == v.tobytes()


def test_pretrain_val_split_is_the_prefix_of_the_seed_stream_1_permutation(monkeypatch):
    real, seen = R.masked_val_loss, []

    def spy(model, clips, plans, batch_size):
        seen.append(clips.copy())
        return real(model, clips, plans, batch_size)

    monkeypatch.setattr(R, "masked_val_loss", spy)
    clips = synthetic_clip_batch(20, seed=6)
    cfg = desk_cfg(warmup_steps=1, max_epochs=1, seed=4)
    R.pretrain_arrays(clips, desk_model_cfg(), cfg)
    n_val = max(1, int(round(cfg.val_fraction * len(clips))))
    expect = np.random.default_rng([cfg.seed, 1]).permutation(len(clips))[:n_val]
    assert len(seen) == 1
    np.testing.assert_array_equal(seen[0], clips[expect])


def _tiny_head_problem():
    rng = np.random.default_rng(8)
    labels = rng.integers(0, 2, 30)
    feats = rng.standard_normal((30, 4)).astype(np.float32)
    fwd = lambda x, p: E.head_forward(T.Tensor(x), p)
    return fwd, E.init_head(4, 2, seed=9, hidden=False), feats, labels


def test_pretraining_and_classifier_training_both_run_through_fit(monkeypatch):
    real, calls = R.fit, []

    def spy(params, fit_idx, cfg, stream, batch_loss, val_metric, mode="min"):
        res = real(params, fit_idx, cfg, stream, batch_loss, val_metric, mode)
        calls.append((stream, mode, res))
        return res

    monkeypatch.setattr(R, "fit", spy)
    pre = R.pretrain_arrays(synthetic_clip_batch(20, seed=7), desk_model_cfg(), desk_cfg(warmup_steps=1, max_epochs=1))
    fwd, params, feats, labels = _tiny_head_problem()
    run = E.train_classifier(fwd, params, feats, labels, R.TrainConfig(warmup_steps=1, max_epochs=2))
    assert [(stream, mode) for stream, mode, _ in calls] == [(1, "min"), (7, "max")]
    assert pre is calls[0][2] and run is calls[1][2]
    assert [set(e) for e in run.metrics.epochs] == [{"epoch", "val_accuracy", "best"}] * 2
    assert len(run.metrics.steps) == 2 and len(run.metrics.timing) == 2


@pytest.mark.parametrize("caller", ["pretrain", "classifier"])
def test_a_fit_set_emptied_by_the_val_slice_raises_train_error(caller):
    cfg = R.TrainConfig(warmup_steps=1, max_epochs=1, val_fraction=0.5)
    with pytest.raises(R.TrainError, match="leaves none of 1 items to fit"):
        if caller == "pretrain":
            R.pretrain_arrays(synthetic_clip_batch(1, seed=8), desk_model_cfg(), cfg)
        else:
            fwd, params, feats, labels = _tiny_head_problem()
            E.train_classifier(fwd, params, feats[:1], labels[:1], cfg)
