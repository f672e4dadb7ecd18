"""Schedule endpoints, AdamW hand values, early stopping, pretrain smoke runs, the shared loop's contracts."""

import json
import math

import numpy as np
import pytest

from csimae import checkpoint as C
from csimae import data as D
from csimae import evaluate as E
from csimae import mae as M
from csimae import synth as S
from csimae import tensors as T
from csimae import training as R


def test_lr_schedule_endpoints_and_midpoint():
    cfg = R.TrainConfig(peak_lr=1e-4, warmup_steps=1000)
    total = 5000
    assert R.lr_at(1000, cfg, total) == pytest.approx(1e-4)
    assert R.lr_at(0, cfg, total) == 0.0
    assert R.lr_at(5000, cfg, total) == pytest.approx(0.0, abs=1e-20)
    assert R.lr_at(3000, cfg, total) == pytest.approx(0.5e-4)


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


def test_after_an_adamw_step_no_parameter_holds_a_grad():
    params = {k: T.Tensor(np.full(3, v, dtype=np.float32), requires_grad=True) for k, v in (("a", 1.0), ("b", 2.0))}
    opt, seen = R.AdamW(params, R.TrainConfig()), []
    for ok_grad in (True, False):  # an applied step, then a rejected one
        for t in params.values():
            t.grad = np.full(3, 0.5 if ok_grad else np.nan, dtype=np.float32)
        seen.append(opt.step(1e-3))
        assert all(t.grad is None for t in params.values())
    assert seen == [True, False]


def test_adamw_step_leaves_the_arrays_it_was_given_and_puts_the_update_in_the_params():
    rng = np.random.default_rng(44)
    params = {k: T.Tensor(rng.standard_normal((5, 3), dtype=np.float32), requires_grad=True) for k in "ab"}
    given = {k: t.data for k, t in params.items()}
    bits = {k: a.tobytes() for k, a in given.items()}
    grads = {k: rng.standard_normal((5, 3), dtype=np.float32) for k in params}
    want = {k: adamw_reference(given[k], [grads[k]], 1e-3, R.TrainConfig()) for k in params}
    assert R.adamw_step(params, dict(grads), {}, 1e-3, R.TrainConfig())
    for k in params:
        assert given[k].tobytes() == bits[k]  # the given arrays keep their bits
        assert params[k].data is not given[k] and params[k].data.tobytes() == want[k].tobytes()
    used = dict(grads)
    R.adamw_step(params, used, {}, 1e-3, R.TrainConfig())
    assert used == {}  # each gradient is dropped once its update is written


def adamw_reference(p0, grads, lr, cfg):
    """``p0`` after AdamW steps on ``grads``, by the whole-array arithmetic ``adamw_step`` blocks."""
    p, m, v = p0.copy(), np.zeros_like(p0), np.zeros_like(p0)
    b1, b2 = R.ADAM_BETAS
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * (g * g)
        p -= lr * cfg.weight_decay * p
        p -= lr * (m / (1.0 - b1**t)) / (np.sqrt(v / (1.0 - b2**t)) + R.ADAM_EPS)
    return p


@pytest.mark.parametrize("val_losses, best_epoch", [([1.0, 0.9, 0.95, 0.97], 2), ([math.nan] * 4, 0)],
                         ids=["best-epoch", "start"])
def test_fit_keeps_its_start_and_best_epoch_by_reference(monkeypatch, val_losses, best_epoch):
    def no_clone(params):
        raise AssertionError("fit copied the params")

    monkeypatch.setattr(C, "clone_params", no_clone)
    cfg = R.TrainConfig(warmup_steps=1, batch_size=2, max_epochs=4, early_stop_patience=4, weight_decay=0.03)
    params = {"w": T.Tensor(np.array([[0.3, -0.2]], dtype=np.float32), requires_grad=True)}
    seen = [params["w"].data.copy()]  # the start, then each epoch's params as its validation sees them
    losses = iter(val_losses)
    batch_loss = lambda idx, epoch: T.softmax_cross_entropy(params["w"], np.array([0]))

    def val_loss():
        seen.append(params["w"].data.copy())
        return next(losses)

    res = R.fit(params, np.arange(4), cfg, 1, batch_loss, val_loss, 1)
    assert res.best_epoch == best_epoch and len(seen) == 5
    assert len({a.tobytes() for a in seen}) == 5  # every epoch moved the params
    assert res.params["w"].data.tobytes() == seen[best_epoch].tobytes()
    assert res.params["w"].requires_grad


def test_early_stopping_patience_arithmetic():
    # val losses 1.0, 0.9, 0.9 ... -> best at epoch 2, stop after epoch 7
    cfg = R.TrainConfig(warmup_steps=1, batch_size=4, max_epochs=8, early_stop_patience=5)
    params = {"w": T.Tensor(np.zeros((1, 2), dtype=np.float32), requires_grad=True)}
    losses = iter([1.0, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9])
    batch_loss = lambda idx, epoch: T.softmax_cross_entropy(params["w"], np.array([0]))
    res = R.fit(params, np.arange(4), cfg, 1, batch_loss, lambda: next(losses), 1)
    assert [e["epoch"] for e in res.metrics.epochs] == [1, 2, 3, 4, 5, 6, 7]
    assert [e["best"] for e in res.metrics.epochs] == [True, True, False, False, False, False, False]
    assert (res.best_epoch, res.best_value) == (2, 0.9)


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


def save_run(result, run_dir):
    """What ``csimae pretrain`` writes of a result: its metrics streams and its checkpoint."""
    result.metrics.save(run_dir)
    extra = {"best_epoch": result.best_epoch, "best_val_loss": result.best_value, "aborted": result.aborted}
    C.save_checkpoint(run_dir / "checkpoint.ckpt", result.params, desk_model_cfg(), extra=extra)


def test_pretrain_smoke_loss_decreases(tmp_path):
    clips = synthetic_clip_batch(48, seed=1)
    result = R.pretrain_arrays(clips, desk_model_cfg(), desk_cfg())
    save_run(result, tmp_path / "run")
    assert not result.aborted
    first = result.metrics.steps[0]["train_loss"]
    last = result.metrics.steps[-1]["train_loss"]
    assert last < first
    assert (tmp_path / "run" / "checkpoint.ckpt").exists()
    assert (tmp_path / "run" / "metrics.jsonl").exists()


def test_pretrain_metrics_deterministic(tmp_path):
    clips = synthetic_clip_batch(32, seed=2)
    r1 = R.pretrain_arrays(clips, desk_model_cfg(), desk_cfg(max_epochs=3))
    r2 = R.pretrain_arrays(clips, desk_model_cfg(), desk_cfg(max_epochs=3))
    save_run(r1, tmp_path / "a")
    save_run(r2, tmp_path / "b")
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
    R.pretrain_arrays(clips, desk_model_cfg(), desk_cfg(warmup_steps=1, max_epochs=2)).metrics.save(tmp_path)
    lines = (tmp_path / "metrics.jsonl").read_text().splitlines()
    steps = [r for r in map(json.loads, lines) if r["kind"] == "step"]
    assert len(steps) == len(calls) == 4
    assert [r["rejected"] for r in steps] == [False, True, False, False]


def test_timing_records_wall_seconds_and_peak_rss_per_epoch(tmp_path):
    clips = synthetic_clip_batch(20, seed=5)
    R.pretrain_arrays(clips, desk_model_cfg(), desk_cfg(warmup_steps=1, max_epochs=2)).metrics.save(tmp_path)
    records = [json.loads(line) for line in (tmp_path / "timing.jsonl").read_text().splitlines()]
    assert [r["epoch"] for r in records] == [1, 2]
    assert all(set(r) == {"kind", "epoch", "wall_seconds", "peak_rss_mb"} for r in records)
    assert 0 < records[0]["peak_rss_mb"] <= records[1]["peak_rss_mb"]
    metrics = (tmp_path / "metrics.jsonl").read_text()
    assert "peak_rss_mb" not in metrics and "wall_seconds" not in metrics


# a parameter larger than one block: a flattening that copied would update the copy and leave it as it was
@pytest.mark.parametrize("shape", [(4, 5), (T.BLOCK_ELEMS // 64 + 3, 64)], ids=["one-block", "several-blocks"])
def test_adamw_updates_moments_in_place_with_the_allocating_update_bits(shape):
    cfg = R.TrainConfig(weight_decay=0.03)
    rng = np.random.default_rng(6)
    p0 = rng.standard_normal(shape).astype(np.float32)
    grads = [rng.standard_normal(shape).astype(np.float32) for _ in range(3)]
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


def adamw_steps(shape, n_steps=3):
    """The params and moments after ``n_steps`` seeded AdamW steps on one (shape) parameter."""
    rng = np.random.default_rng(41)
    params, state = {"p": T.Tensor(rng.standard_normal(shape, dtype=np.float32), requires_grad=True)}, {}
    for _ in range(n_steps):
        assert R.adamw_step(params, {"p": rng.standard_normal(shape, dtype=np.float32)}, state, 1e-3, R.TrainConfig())
    return [params["p"].data.tobytes(), state["p"]["m"].tobytes(), state["p"]["v"].tobytes()]


def test_adamw_in_small_blocks_is_bit_equal_to_one_block(monkeypatch):
    whole = adamw_steps((7, 11))
    monkeypatch.setattr(T, "BLOCK_ELEMS", 16)  # five blocks of 16 entries and a ragged last one of 13
    assert adamw_steps((7, 11)) == whole


def test_adamw_rejects_a_non_contiguous_parameter_before_updating_any():
    rng = np.random.default_rng(43)
    params = {"a": T.Tensor(rng.standard_normal((3, 4), dtype=np.float32), requires_grad=True),
              "b": T.Tensor(rng.standard_normal((4, 3), dtype=np.float32).T, requires_grad=True)}
    before = params["a"].data.copy()
    state = {}
    with pytest.raises(R.TrainError, match="b .*C-contiguous"):
        R.adamw_step(params, {k: np.ones((3, 4), np.float32) for k in params}, state, 1e-3, R.TrainConfig())
    assert state == {} and params["a"].data.tobytes() == before.tobytes()


def test_pretrain_val_split_is_the_prefix_of_the_seed_stream_1_permutation(monkeypatch):
    real, seen = R.masked_val_loss, []

    def spy(model, clips, plans, batch_size):
        seen.append(clips)
        return real(model, clips, plans, batch_size)

    monkeypatch.setattr(R, "masked_val_loss", spy)
    clips = synthetic_clip_batch(20, seed=6)
    cfg = desk_cfg(warmup_steps=1, max_epochs=1, seed=4)
    R.pretrain_arrays(clips, desk_model_cfg(), cfg)
    n_val = max(1, int(round(cfg.val_fraction * len(clips))))
    expect = np.random.default_rng([cfg.seed, 1]).permutation(len(clips))[:n_val]
    assert len(seen) == 1 and isinstance(seen[0], M.ClipRows)
    assert seen[0].clips is clips  # scored where it lies: no copy of the slice
    np.testing.assert_array_equal(seen[0].rows, expect)


def _tiny_head_problem():
    rng = np.random.default_rng(8)
    labels = rng.integers(0, 2, 30)
    feats = rng.standard_normal((30, 4)).astype(np.float32)
    fwd = lambda x, p: E.head_forward(T.Tensor(x), p)
    return fwd, E.init_head(4, 2, seed=9), feats, labels


def test_pretraining_and_classifier_training_both_run_through_fit(monkeypatch):
    real, calls = R.fit, []

    def spy(params, fit_idx, cfg, stream, batch_loss, val_loss, item_rows):
        res = real(params, fit_idx, cfg, stream, batch_loss, val_loss, item_rows)
        calls.append((stream, res))
        return res

    monkeypatch.setattr(R, "fit", spy)
    pre = R.pretrain_arrays(synthetic_clip_batch(20, seed=7), desk_model_cfg(), desk_cfg(warmup_steps=1, max_epochs=1))
    fwd, params, feats, labels = _tiny_head_problem()
    run = E.train_classifier(fwd, params, feats, labels, R.TrainConfig(warmup_steps=1, max_epochs=2), 1)
    assert [stream for stream, _ in calls] == [1, 7]
    assert pre is calls[0][1] and run is calls[1][1]
    assert [set(e) for e in run.metrics.epochs] == [{"epoch", "val_loss", "best"}] * 2
    assert len(run.metrics.steps) == 2 and len(run.metrics.timing) == 2


@pytest.mark.parametrize("caller", ["pretrain", "classifier"])
def test_a_fit_set_emptied_by_the_val_slice_raises_train_error(caller):
    cfg = R.TrainConfig(warmup_steps=1, max_epochs=1, val_fraction=0.5)
    with pytest.raises(R.TrainError, match="leaves none of 1 items to fit"):
        if caller == "pretrain":
            R.pretrain_arrays(synthetic_clip_batch(1, seed=8), desk_model_cfg(), cfg)
        else:
            fwd, params, feats, labels = _tiny_head_problem()
            E.train_classifier(fwd, params, feats[:1], labels[:1], cfg, 1)


def test_a_step_budget_with_no_room_after_warmup_fails_before_any_clip_loads(tmp_path, monkeypatch):
    # 12 clips: a 1-clip val slice leaves 11, one batch of 128 per epoch, 40 steps against the default 1000 warmup
    store = tmp_path / "store"
    manifest = S.generate_task(S.SynthTaskSpec(n_classes=2, n_environments=2, n_subjects=1, clips_per_cell=3), store)
    loaded = []
    monkeypatch.setattr(D, "load_clips", lambda *a, **kw: loaded.append(a))
    monkeypatch.setattr(D, "load_clip_array", lambda *a, **kw: loaded.append(a))
    cfg = R.TrainConfig()
    # the planner judges the run on the manifest's size alone; fit refuses it again, as the backstop
    with pytest.raises(R.TrainError, match="total_steps 40 must exceed warmup_steps 1000"):
        R.fit_budget(len(manifest.entries), cfg)
    assert len(manifest.entries) == 12 and not loaded
    batches = []
    with pytest.raises(R.TrainError, match="total_steps 40 must exceed warmup_steps 1000"):
        R.fit({}, np.arange(11), cfg, 1, lambda idx, epoch: batches.append(idx), lambda: 0.0, 1)
    assert not batches


def test_a_classifier_keeps_its_lowest_val_loss_epoch_not_its_first_perfect_accuracy(monkeypatch):
    rng = np.random.default_rng(3)
    labels = rng.integers(0, 2, 60)
    feats = rng.standard_normal((60, 4)).astype(np.float32) * 0.1
    feats[:, 0] += labels * 2 - 1
    # a 12-item validation slice in batches of 8 and 4
    cfg = R.TrainConfig(
        peak_lr=0.1, warmup_steps=1, batch_size=8, max_epochs=8, early_stop_patience=8, weight_decay=0.0,
        val_fraction=0.2,
    )
    fwd, params = lambda x, p: E.head_forward(T.Tensor(x), p), E.init_head(4, 2, seed=9)
    val_idx, _ = R.val_split(len(feats), cfg, 7)
    real, accs = R.fit, []

    def spy(params, fit_idx, cfg, stream, batch_loss, val_loss, item_rows):
        def scored():
            accs.append(E.accuracy(E.predict(fwd, params, feats[val_idx], 32), labels[val_idx]))
            return val_loss()

        return real(params, fit_idx, cfg, stream, batch_loss, scored, item_rows)

    monkeypatch.setattr(R, "fit", spy)
    run = E.train_classifier(fwd, params, feats, labels, cfg, 1)
    assert accs == [1.0] * cfg.max_epochs  # validation accuracy is at its maximum from epoch 1 on
    assert run.best_epoch == cfg.max_epochs
    losses = [e["val_loss"] for e in run.metrics.epochs]
    assert all(b < a for a, b in zip(losses, losses[1:]))  # while validation loss keeps falling
    # the kept value is the mean cross-entropy per validation item of the kept params
    logits = E.head_forward(T.Tensor(feats[val_idx]), run.params).data.astype(np.float64)
    top = logits.max(axis=1)
    xent = top + np.log(np.exp(logits - top[:, None]).sum(axis=1)) - logits[np.arange(len(val_idx)), labels[val_idx]]
    assert run.best_value == losses[-1] == pytest.approx(xent.mean(), rel=1e-5)


def test_pretrain_holds_its_clips_once_up_to_the_first_batch(tmp_path, monkeypatch):
    import tracemalloc

    store = tmp_path / "store"
    spec = S.SynthTaskSpec(n_classes=2, n_environments=2, n_subjects=1, clips_per_cell=12, seed=21)
    manifest = S.generate_task(spec, store)
    clip_bytes = len(manifest.entries) * D.CLIP_TIME_LEN * D.CLIP_CHAN_LEN * 4
    cfg = R.TrainConfig(warmup_steps=1, batch_size=4, max_epochs=2, val_fraction=0.05)
    # a model whose params are a few hundred KB, so the clips dominate what the run holds
    model_cfg = M.ModelConfig(variant="custom", enc_layers=1, enc_dim=16, enc_heads=2, dec_layers=1, dec_dim=16,
                              dec_heads=2, patch_time=150, patch_freq=18)

    class FirstBatch(Exception):
        pass

    real = R.fit

    def spy(params, fit_idx, cfg, stream, batch_loss, val_loss, item_rows):
        def first(idx, epoch):
            raise FirstBatch(tracemalloc.get_traced_memory()[1])

        return real(params, fit_idx, cfg, stream, first, val_loss, item_rows)

    monkeypatch.setattr(R, "fit", spy)
    tracemalloc.start()
    try:
        with pytest.raises(FirstBatch) as stop:
            R.pretrain(manifest, store, model_cfg, cfg)
    finally:
        tracemalloc.stop()
    high = stop.value.args[0]  # the traced high-water from entry to the first batch_loss call
    assert len(manifest.entries) == 48 and high < 1.3 * clip_bytes, high / clip_bytes


@pytest.mark.parametrize("fault", ["half-cut", "non-finite"])
def test_a_bad_shard_fails_pretrain_with_the_loaders_message(tmp_path, fault):
    store = tmp_path / "store"
    manifest = S.generate_task(S.SynthTaskSpec(n_classes=2, n_environments=2, n_subjects=1, clips_per_cell=3), store)
    shard = store / manifest.entries[0].shard_path
    raw = bytearray(shard.read_bytes())
    if fault == "half-cut":
        del raw[len(raw) // 2 :]
    else:  # the last float32 of the fifth clip becomes NaN: readable, but no clip
        end = manifest.entries[5].byte_offset
        raw[end - 4 : end] = np.float32(np.nan).tobytes()
    shard.write_bytes(bytes(raw))
    with pytest.raises(D.DataError) as want:
        D.load_clips(store, manifest)
    with pytest.raises(D.DataError) as got:
        R.pretrain(manifest, store, desk_model_cfg(), R.TrainConfig(warmup_steps=1, batch_size=4, max_epochs=2))
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith(f"{shard} at byte ")
    assert ("truncated" if fault == "half-cut" else "null sentinels remain") in str(got.value)


def test_frozen_passes_cover_the_items_in_order_on_graph_free_views_of_the_params():
    params = {"w": T.Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)}
    seen = []

    def fn(sl, p):
        seen.append((sl.start, sl.stop))
        assert p.keys() == params.keys()
        assert p["w"].data is params["w"].data and not p["w"].requires_grad  # shared, not copied
        assert T.add(p["w"], p["w"])._backward is None  # so a pass builds no graph
        return sl.stop - sl.start

    assert R.frozen_passes(fn, params, 7, 3) == [3, 3, 1]
    assert seen == [(0, 3), (3, 6), (6, 7)]
    assert R.frozen_passes(fn, params, 6, 3) == [3, 3] and seen[3:] == [(0, 3), (3, 6)]
    assert params["w"].requires_grad and params["w"].grad is None


def test_a_pass_holds_a_batch_or_the_clips_pass_tokens_hold_if_fewer():
    assert R.pass_size(128, 37) == R.PASS_TOKENS // 37 == 55  # desk clips
    assert R.pass_size(32, 37) == 32
    assert R.pass_size(128, 601) == 3  # paper small clips
    assert R.pass_size(32, R.PASS_TOKENS + 1) == 1  # an item over the budget still passes, alone


def test_masked_val_loss_builds_no_graph_and_keeps_the_graph_passes_bits(monkeypatch):
    cfg = desk_model_cfg()
    model = M.MaskedAutoencoder(cfg, seed=[3, 0])
    clips, plans = synthetic_clip_batch(5, seed=9), R.val_mask_plans(cfg, 5, seed=3)
    real, losses = M.MaskedAutoencoder.forward_loss, []

    def spy(self, x, p):
        out = real(self, x, p)
        losses.append(out[0])
        return out

    monkeypatch.setattr(M.MaskedAutoencoder, "forward_loss", spy)
    value = R.masked_val_loss(model, clips, plans, 2)
    assert len(losses) == 3 and all(l._backward is None and not l.requires_grad for l in losses)
    graph = [real(model, clips[i : i + 2], plans[i : i + 2])[0] for i in range(0, 5, 2)]
    assert all(g._backward is not None for g in graph)
    assert [l.data.tobytes() for l in losses] == [g.data.tobytes() for g in graph]
    assert value == sum(float(g.data) * n for g, n in zip(graph, (2, 2, 1))) / 5


def test_masked_val_loss_batches_no_more_clips_than_a_graph_free_pass_holds(monkeypatch):
    cfg = desk_model_cfg()
    model = M.MaskedAutoencoder(cfg, seed=[3, 0])
    clips, plans = synthetic_clip_batch(5, seed=9), R.val_mask_plans(cfg, 5, seed=3)
    in_twos = R.masked_val_loss(model, clips, plans, 2)
    monkeypatch.setattr(R, "PASS_TOKENS", 2 * 37 + 36)  # two desk clips of 37 rows a pass, not three
    assert R.masked_val_loss(model, clips, plans, 5) == in_twos


def test_masked_val_loss_on_clip_rows_gives_the_copied_slice_bits():
    cfg = desk_model_cfg()
    model = M.MaskedAutoencoder(cfg, seed=[4, 0])
    store, rows = synthetic_clip_batch(8, seed=10), np.array([6, 1, 1, 3, 7])
    plans = R.val_mask_plans(cfg, len(rows), seed=4)
    value = R.masked_val_loss(model, M.ClipRows(store, rows), plans, 2)
    assert value == R.masked_val_loss(model, store[rows], plans, 2)


def _desk_step(clips, cfg, fail_part=None, model=None):
    """One ``fit`` step over every clip for ``model``, a fresh desk MAE by default; epoch 1's NaN val loss ends the run.

    Returns the live params, the run and the index runs ``batch_loss`` saw.
    The ``fail_part``-th run (counting from 1) is scored on NaN clips.
    """
    model_cfg = desk_model_cfg()
    model = model or M.MaskedAutoencoder(model_cfg, seed=[0, 0])
    seen = []

    def batch_loss(idx, epoch):
        seen.append(idx.tolist())
        plans = [M.sample_mask(model_cfg.n_patches, model_cfg.mask_ratio, [0, 3, epoch, int(i)]) for i in idx]
        x = np.full_like(clips, np.nan) if len(seen) == fail_part else clips
        return model.forward_loss(M.ClipRows(x, idx), plans)[0]

    run = R.fit(model.params, np.arange(len(clips)), cfg, 1, batch_loss, lambda: math.nan, 1 + model_cfg.n_patches)
    return model.params, run, seen


def _one_step_cfg(batch_size):
    return desk_cfg(warmup_steps=1, batch_size=batch_size, max_epochs=2, early_stop_patience=1)


def test_a_batch_within_the_step_budget_runs_whole_with_the_bits_of_an_unbounded_budget(monkeypatch):
    clips, cfg = synthetic_clip_batch(8, seed=14), _one_step_cfg(8)
    real, norms = R.adamw_step, []

    def spy(params, grads, state, lr, config):
        norms.append(math.sqrt(sum(np.sum(g.astype(np.float64) ** 2) for g in grads.values())))
        return real(params, grads, state, lr, config)

    monkeypatch.setattr(R, "adamw_step", spy)
    params, run, seen = _desk_step(clips, cfg)
    assert len(seen) == 1 and sorted(seen[0]) == list(range(8))  # one call per step, with the whole batch
    monkeypatch.setattr(R, "STEP_TOKENS", 10**9)
    params_u, run_u, seen_u = _desk_step(clips, cfg)
    assert seen_u == seen and run.metrics.steps == run_u.metrics.steps and run.metrics.epochs == run_u.metrics.epochs
    assert all(params[k].data.tobytes() == params_u[k].data.tobytes() for k in params)
    # and the step is the one a whole batch's loss, unseeded backward and AdamW step make by hand
    model_cfg = desk_model_cfg()
    model = M.MaskedAutoencoder(model_cfg, seed=[0, 0])
    idx = np.array(seen[0])
    plans = [M.sample_mask(model_cfg.n_patches, model_cfg.mask_ratio, [0, 3, 1, int(i)]) for i in idx]
    loss = model.forward_loss(M.ClipRows(clips, idx), plans)[0]
    loss.backward()
    R.AdamW(model.params, cfg).step(run.metrics.steps[0]["lr"])
    assert run.metrics.steps[0]["train_loss"] == float(loss.data)
    assert all(params[k].data.tobytes() == model.params[k].data.tobytes() for k in params)
    assert run.metrics.steps[0]["grad_norm"] == pytest.approx(norms[0], rel=1e-6)


def test_a_batch_over_the_step_budget_sums_near_equal_micro_batches_into_the_whole_batch_step(monkeypatch):
    clips, cfg = synthetic_clip_batch(8, seed=14), _one_step_cfg(8)
    params, run, seen = _desk_step(clips, cfg)
    monkeypatch.setattr(R, "STEP_TOKENS", 3 * 37 + 36)  # three desk clips of 37 rows a micro-batch, not four
    params_m, run_m, seen_m = _desk_step(clips, cfg)
    assert [len(part) for part in seen_m] == [3, 3, 2] and sum(seen_m, []) == seen[0]  # in order
    step, step_m = run.metrics.steps[0], run_m.metrics.steps[0]
    assert step_m["train_loss"] == pytest.approx(step["train_loss"], rel=1e-6)
    assert step_m["grad_norm"] == pytest.approx(step["grad_norm"], rel=1e-6)
    diff = math.sqrt(sum(np.sum((params[k].data - params_m[k].data).astype(np.float64) ** 2) for k in params))
    norm = math.sqrt(sum(np.sum(params[k].data.astype(np.float64) ** 2) for k in params))
    assert diff <= 1e-5 * norm


def test_a_non_finite_micro_batch_loss_aborts_the_step_and_leaves_no_gradient(monkeypatch):
    monkeypatch.setattr(R, "STEP_TOKENS", 3 * 37)
    params, run, seen = _desk_step(synthetic_clip_batch(8, seed=15), _one_step_cfg(8), fail_part=2)
    assert [len(part) for part in seen] == [3, 3]  # the second part's loss is NaN: the step stops there
    assert run.aborted and run.metrics.steps == () and run.metrics.epochs == ()
    assert all(t.grad is None for t in params.values())


def test_a_micro_batched_step_peaks_below_a_whole_batch_of_half_its_size():
    import tracemalloc

    clips, model_cfg = synthetic_clip_batch(256, seed=16), desk_model_cfg()
    model, fitted = (M.MaskedAutoencoder(model_cfg, seed=[s, 0]) for s in (1, 0))
    plans = [M.sample_mask(model_cfg.n_patches, model_cfg.mask_ratio, [1, i]) for i in range(128)]
    tracemalloc.start()
    try:
        loss = model.forward_loss(M.ClipRows(clips, np.arange(128)), plans)[0]
        loss.backward()
        whole = tracemalloc.get_traced_memory()[1]  # one B=128 forward and backward
        del loss, model
        tracemalloc.reset_peak()
        _, run, seen = _desk_step(clips, _one_step_cfg(256), model=fitted)  # B=256 as three micro-batches
        split = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [len(part) for part in seen] == [86, 85, 85] and len(run.metrics.steps) == 1
    assert split < whole, (split / 2**20, whole / 2**20)
