"""Scaling lab: log-linear fits, FLOPs estimates, sweep mechanics."""

import re
from dataclasses import replace

import numpy as np
import pytest

from csimae import data as D
from csimae import mae as M
from csimae import scaling as L
from csimae import synth as S
from csimae import tensors as T
from csimae import training as R


def test_fit_two_points_exactly():
    fit = L.fit_loglinear([(1, 0.5), (2, 0.6)])
    assert fit.slope == pytest.approx(0.1)
    assert fit.intercept == pytest.approx(0.4)
    assert fit.r_squared == pytest.approx(1.0)


def test_fit_constant_targets():
    fit = L.fit_loglinear([(1, 0.7), (2, 0.7), (3, 0.7)])
    assert fit.slope == 0.0
    assert fit.r_squared == 0.0


def test_fit_rejects_identical_x():
    with pytest.raises(L.SweepError, match="identical"):
        L.fit_loglinear([(2, 0.5), (2, 0.6)])


def test_fit_recovers_noisy_slope():
    rng = np.random.default_rng(0)
    slopes = []
    for _ in range(50):
        x = np.arange(1, 6, dtype=float)
        y = 0.05 * x + 0.4 + rng.normal(0, 0.001, 5)
        slopes.append(L.fit_loglinear(list(zip(x, y))).slope)
    assert np.mean(slopes) == pytest.approx(0.05, abs=0.02)


def test_fit_is_invariant_to_point_order():
    pts = [(1.0, 0.45), (3.0, 0.61), (2.0, 0.52), (4.0, 0.70)]
    a = L.fit_loglinear(pts)
    b = L.fit_loglinear(list(reversed(pts)))
    assert a.slope == pytest.approx(b.slope) and a.r_squared == pytest.approx(b.r_squared)


def test_flops_strictly_increase_with_variant_size():
    for mode in ("pretrain_step", "inference"):
        vals = [L.estimate_flops(M.ModelConfig(variant=v), mode) for v in ("tiny", "small", "base", "large")]
        assert all(a < b for a, b in zip(vals, vals[1:])), mode


def test_inference_to_pretrain_ratio_grows_with_size():
    ratios = []
    for v in ("tiny", "small", "base", "large"):
        cfg = M.ModelConfig(variant=v)
        ratios.append(L.estimate_flops(cfg, "inference") / L.estimate_flops(cfg, "pretrain_step"))
    assert ratios[0] < 1.0
    assert ratios[-1] > 1.0
    assert all(a < b for a, b in zip(ratios, ratios[1:]))


def test_small_pretrain_flops_near_reference_scale():
    est = L.estimate_flops(M.ModelConfig(variant="small"), "pretrain_step")
    assert 12.19e9 / 2 < est < 12.19e9 * 2


@pytest.mark.parametrize("mode", ["inference", "pretrain_step"])
def test_flops_equal_counted_gemm_flops(monkeypatch, mode):
    cfg = M.ModelConfig(
        variant="custom",
        enc_layers=2,
        enc_dim=8,
        enc_heads=2,
        dec_layers=1,
        dec_dim=12,
        dec_heads=3,
        patch_time=150,
        patch_freq=18,
        mask_ratio=0.75,
        ffn_expansion=3,
    )
    counted = []
    linear, matmul, head = T.linear, T.matmul, T.masked_mse_head
    attention_sublayer, ffn_sublayer = T.attention_sublayer, T.ffn_sublayer

    def counting_linear(x, w, b=None):
        counted.append(2 * x.data.size * w.shape[1])
        return linear(x, w, b)

    def counting_matmul(a, b):
        out = matmul(a, b)
        counted.append(2 * out.data.size * a.shape[-1])
        return out

    def counting_attention_sublayer(x, ln_g, ln_b, w_qkv, b_qkv, w_proj, b_proj, n_heads):
        b, t, d = x.shape
        counted.append(2 * b * t * (w_qkv.data.size + w_proj.data.size))  # the qkv and proj GEMMs
        counted.append(4 * b * t * t * d)  # the q kᵀ and weights @ v GEMMs
        return attention_sublayer(x, ln_g, ln_b, w_qkv, b_qkv, w_proj, b_proj, n_heads)

    def counting_ffn_sublayer(x, ln_g, ln_b, w1, b1, w2, b2):
        rows = x.data.size // x.shape[-1]
        counted.append(2 * rows * (w1.data.size + w2.data.size))  # fc1 and fc2 GEMMs
        return ffn_sublayer(x, ln_g, ln_b, w1, b1, w2, b2)

    def counting_head(x, w, b, idx, targets):
        counted.append(2 * idx.size * w.shape[0] * w.shape[1])  # the head GEMM on the B·M gathered rows
        return head(x, w, b, idx, targets)

    monkeypatch.setattr(T, "linear", counting_linear)
    monkeypatch.setattr(T, "matmul", counting_matmul)
    monkeypatch.setattr(T, "masked_mse_head", counting_head)
    monkeypatch.setattr(T, "attention_sublayer", counting_attention_sublayer)
    monkeypatch.setattr(T, "ffn_sublayer", counting_ffn_sublayer)
    model = M.MaskedAutoencoder(cfg, seed=0)
    clips = np.random.default_rng(0).standard_normal((1, 600, 90)).astype(np.float32)
    if mode == "inference":
        model.encode_features(clips)
    else:
        model.forward_loss(clips, [M.sample_mask(cfg.n_patches, cfg.mask_ratio, [0, 1])])
    assert sum(counted) == L.estimate_flops(cfg, mode)


def test_nested_subsets_are_prefixes():
    ids = [f"id{i:03d}" for i in range(200)]
    small = L.nested_subset(ids, 0.05, seed=3)
    large = L.nested_subset(ids, 0.50, seed=3)
    assert set(small) <= set(large)
    assert len(small) == 10 and len(large) == 100
    assert L.nested_subset(ids, 1.0, seed=3) != ids[:0]
    assert sorted(L.nested_subset(ids, 1.0, seed=3)) == ids


def micro_plan(tmp_path, **kw):
    """``sweep_cells``' arguments past the spec, on a micro store at ``tmp_path / "store"``."""
    spec = S.SynthTaskSpec(n_classes=2, n_environments=2, n_subjects=1, clips_per_cell=10, seed=21)
    manifest = S.generate_task(spec, tmp_path / "store")
    model_cfg = M.ModelConfig(
        variant="custom",
        enc_layers=2,
        enc_dim=16,
        enc_heads=2,
        dec_layers=1,
        dec_dim=16,
        dec_heads=2,
        patch_time=150,
        patch_freq=18,
        mask_ratio=0.75,
    )
    tcfg = R.TrainConfig(warmup_steps=1, batch_size=16, max_epochs=2, seed=0, val_fraction=0.2)
    defaults = dict(
        manifest=manifest,
        split=D.SplitSpec("leave_one_domain_out", "environment", "env1"),
        model_cfg=model_cfg,
        pretrain_cfg=tcfg,
        train_cfg=tcfg,
        label_fraction=1.0,
    )
    defaults.update(kw)
    return defaults


def test_run_sweep_grid_counts_and_shared_test_set(tmp_path, monkeypatch):
    plan = micro_plan(tmp_path)
    real, pools = R.pretrain_arrays, []

    def spy(clips, model_cfg, cfg):
        pools.append(clips.copy())
        return real(clips, model_cfg, cfg)

    monkeypatch.setattr(R, "pretrain_arrays", spy)
    spec = L.SweepSpec(axis="data_fraction", values=[0.5, 1.0], seeds=[0, 1])
    cells = L.sweep_cells(spec, **plan)
    # one fold per seed, shared by both values
    assert all(a.fold is b.fold for (_, a), (_, b) in zip(cells[:2], cells[2:]))
    rows = L.run_sweep(spec.axis, plan["manifest"], tmp_path / "store", cells)
    assert len(rows) == 4
    assert len({r["test_set_hash"] for r in rows}) == 1
    assert {r["value"] for r in rows} == {0.5, 1.0}
    full = [r for r in rows if r["value"] == 1.0][0]
    half = [r for r in rows if r["value"] == 0.5][0]
    assert full["n_pretrain"] == 20 and half["n_pretrain"] == 10
    # each cell pretrains on its pool of env0 clips only, never on the held-out env1
    assert [len(x) for x in pools] == [r["n_pretrain"] for r in rows] == [10, 10, 20, 20]
    clips = D.load_clips(tmp_path / "store", plan["manifest"])
    held_out = {c.data.tobytes() for c in clips if c.labels["environment"] == "env1"}
    training = {c.data.tobytes() for c in clips if c.labels["environment"] != "env1"}
    for x in pools:
        pooled = {row.tobytes() for row in x}
        assert len(pooled) == len(x) and pooled <= training and not pooled & held_out


# (axis, values, plan overrides, the refusal): each sweep's last cell, or every cell, cannot train
UNTRAINABLE_SWEEPS = {
    "one-clip-pool": ("data_fraction", [1.0, 0.01], {}, "data_fraction 0.01, seed 0: cannot train: "
                      "pretraining pool of 1 clips: a validation slice of 1 leaves none of 1 items to fit"),
    "short-pretraining": ("data_fraction", [1.0, 0.1], {"pretrain_cfg": R.TrainConfig(warmup_steps=3, batch_size=2,
                          max_epochs=2, val_fraction=0.2)}, "data_fraction 0.1, seed 0: cannot train: "
                          "pretraining pool of 2 clips: total_steps 2 must exceed warmup_steps 3"),
    "short-fine-tuning": ("mask_ratio", [0.5, 0.75], {"train_cfg": R.TrainConfig(warmup_steps=100, batch_size=16,
                          max_epochs=2, val_fraction=0.2)}, "mask_ratio 0.5, seed 0: cannot train: "
                          "labeled set of 20 clips: total_steps 2 must exceed warmup_steps 100"),
}


@pytest.mark.parametrize("case", UNTRAINABLE_SWEEPS)
def test_a_sweep_with_a_cell_that_cannot_train_pretrains_nothing(tmp_path, case):
    axis, values, overrides, refusal = UNTRAINABLE_SWEEPS[case]
    # the sweep's plan refuses it, so no cell of it reaches a runner
    with pytest.raises(L.SweepError, match=f"^{re.escape(refusal)}$"):
        L.sweep_cells(L.SweepSpec(axis=axis, values=values), **micro_plan(tmp_path, **overrides))


def test_model_variant_cells_take_each_variants_sizes(tmp_path):
    plan = micro_plan(tmp_path)
    cells = L.sweep_cells(L.SweepSpec(axis="model_variant", values=["tiny", "small"]), **plan)
    assert [(value, cell.fold.train_cfg.seed) for value, cell in cells] == [("tiny", 0), ("small", 0)]
    for value, cell in cells:
        cfg = cell.model_cfg
        assert (cfg.variant, (cfg.enc_layers, cfg.enc_dim, cfg.enc_heads)) == (value, M.VARIANTS[value])
        # every other field is the sweep's model's
        assert replace(cfg, variant="custom", enc_layers=2, enc_dim=16, enc_heads=2) == plan["model_cfg"]


def test_sweep_spec_validation():
    for axis in ("nope", "exclude_target"):
        with pytest.raises(L.SweepError, match="axis"):
            L.SweepSpec(axis=axis, values=[1, 2])
    with pytest.raises(L.SweepError, match="2 sweep values"):
        L.SweepSpec(axis="mask_ratio", values=[0.8])
    with pytest.raises(L.SweepError, match="fractions"):
        L.SweepSpec(axis="data_fraction", values=[0.5, 1.5])
    for axis, values in (("mask_ratio", [0.5, 0.5]), ("patch_size", [[150, 18], [150, 18]])):
        with pytest.raises(L.SweepError, match="repeat"):
            L.SweepSpec(axis=axis, values=values)
    for seeds in ([], ["a"], [0, 0], [1.5], [True]):
        with pytest.raises(L.SweepError, match="distinct integer seeds"):
            L.SweepSpec(axis="mask_ratio", values=[0.5, 0.8], seeds=seeds)


def test_rows_round_trip_and_summary(tmp_path):
    rows = [
        {"axis": "mask_ratio", "value": 0.5, "seed": 0, "accuracy": 0.8, "test_set_hash": "x"},
        {"axis": "mask_ratio", "value": 0.8, "seed": 0, "accuracy": 0.9, "test_set_hash": "x"},
    ]
    path = D.write_jsonl(tmp_path / "rows.jsonl", rows)
    assert D.read_jsonl(path) == rows
    table = L.summarize_rows(rows)
    assert "0.8" in table and "mean_acc" in table
