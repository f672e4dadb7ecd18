"""Downstream regimes: feature extraction, freeze contracts, scoring rules."""

import numpy as np
import pytest

from csimae import checkpoint as C
from csimae import data as D
from csimae import evaluate as E
from csimae import mae as M
from csimae import synth as S
from csimae import tensors as T
from csimae import training as R


def micro_cfg(**kw):
    defaults = dict(
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
    defaults.update(kw)
    return M.ModelConfig(**defaults)


def micro_train_cfg(**kw):
    defaults = dict(warmup_steps=1, batch_size=16, max_epochs=4, seed=0, val_fraction=0.2)
    defaults.update(kw)
    return R.TrainConfig(**defaults)


def micro_corpus(tmp_path, clips_per_cell=6, seed=5):
    spec = S.SynthTaskSpec(
        n_classes=2, n_environments=2, n_subjects=1, clips_per_cell=clips_per_cell, seed=seed
    )
    manifest = S.generate_task(spec, tmp_path / "store")
    return manifest, D.load_clips(tmp_path / "store", manifest)


def test_encode_clip_shape_and_determinism():
    cfg = micro_cfg()
    params = M.init_params(cfg, seed=0)
    clip = np.random.default_rng(0).standard_normal((600, 90)).astype(np.float32)
    a = E.encode_clip(params, cfg, clip)
    b = E.encode_clip(params, cfg, clip)
    assert a.shape == (16,)
    assert a.tobytes() == b.tobytes()


def test_encode_clip_is_sensitive_to_input():
    cfg = micro_cfg()
    params = M.init_params(cfg, seed=1)
    clip = np.random.default_rng(1).standard_normal((600, 90)).astype(np.float32)
    poked = clip.copy()
    poked[17, 33] += 1.0
    a, b = E.encode_clip(params, cfg, clip), E.encode_clip(params, cfg, poked)
    assert np.linalg.norm(a - b) > 0


def test_cls_feature_width_matches_small_variant():
    cfg = M.ModelConfig(variant="small")
    params = M.init_params(cfg, seed=0)
    clip = np.random.default_rng(2).standard_normal((600, 90)).astype(np.float32)
    assert E.encode_clip(params, cfg, clip).shape == (384,)


def _perceptron_separates(feats, labels, epochs=200):
    """Margin-classifier oracle: perceptron converges iff linearly separable."""
    w = np.zeros(feats.shape[1] + 1)
    x = np.hstack([feats, np.ones((len(feats), 1))])
    y = labels * 2 - 1
    for _ in range(epochs):
        mistakes = 0
        for xi, yi in zip(x, y):
            if yi * (w @ xi) <= 0:
                w += yi * xi
                mistakes += 1
        if mistakes == 0:
            return True
    return False


def test_linear_probe_hits_one_on_separable_features():
    rng = np.random.default_rng(3)
    n = 120
    labels = rng.integers(0, 2, n)
    feats = rng.standard_normal((n, 16)).astype(np.float32) * 0.1
    feats[:, 0] += (labels * 2 - 1) * 3.0
    assert _perceptron_separates(feats[:80], labels[:80])

    head_cfg = E.HeadConfig(n_classes=2, hidden_dims=[])
    params = E.init_head(16, head_cfg, seed=4)
    fwd = lambda x, p: E.head_forward(T.Tensor(x), p, head_cfg)
    cfg = micro_train_cfg(max_epochs=30, peak_lr=5e-2, weight_decay=0.0)
    best, _, _ = E.train_classifier(fwd, params, feats[:80], labels[:80], cfg)
    pred = E.predict(fwd, best, feats[80:])
    assert E.accuracy(pred, labels[80:]) == 1.0


def test_non_finite_lp_loss_is_recorded_and_scored_with_the_kept_params(tmp_path, monkeypatch):
    manifest, clips = micro_corpus(tmp_path)
    cfg = micro_cfg()
    train = [c for c in clips if c.labels["environment"] == "env0"]
    test = [c for c in clips if c.labels["environment"] == "env1"]
    encode = E.encode_features
    calls = []

    def nan_train_features(params, model_cfg, x):
        feats = encode(params, model_cfg, x)
        if not calls:  # the first call encodes the training clips
            feats[:, 0] = np.nan
        calls.append(len(x))
        return feats

    ckpt = (M.init_params(cfg, seed=6), cfg)
    assert not E.run_regime("lp", ckpt, train, test, E.HeadConfig(2), micro_train_cfg()).aborted
    monkeypatch.setattr(E, "encode_features", nan_train_features)
    result = E.run_regime("lp", ckpt, train, test, E.HeadConfig(2), micro_train_cfg())
    assert calls == [len(train), len(test)]
    assert result.aborted and result.to_json()["aborted"] is True
    assert result.best_epoch == 0 and result.n_test == len(test)
    # scored with the head as initialised: the only params kept before the abort
    lp_head = E.HeadConfig(2, hidden_dims=[])
    head0 = E.init_head(cfg.enc_dim, lp_head, [0, 12])
    vocab = E._class_vocab(c.labels["class"] for c in train)
    y_test = np.array([vocab[c.labels["class"]] for c in test])
    f_test = encode(ckpt[0], cfg, D.stack_clips(test)[0])
    pred = E.predict(lambda f, p: E.head_forward(T.Tensor(f), p, lp_head), head0, f_test)
    assert result.accuracy == E.accuracy(pred, y_test)


def test_linear_probe_never_mutates_encoder(tmp_path):
    manifest, clips = micro_corpus(tmp_path)
    cfg = micro_cfg()
    ckpt_params = M.init_params(cfg, seed=6)
    before = {k: v.data.copy() for k, v in ckpt_params.items()}
    train = [c for c in clips if c.labels["environment"] == "env0"]
    test = [c for c in clips if c.labels["environment"] == "env1"]
    result = E.run_regime("lp", (ckpt_params, cfg), train, test, E.HeadConfig(2), micro_train_cfg())
    assert 0.0 <= result.accuracy <= 1.0
    for k, v in ckpt_params.items():
        assert v.data.tobytes() == before[k].tobytes(), k


def test_supervised_regime_ignores_checkpoint(tmp_path):
    manifest, clips = micro_corpus(tmp_path)
    cfg = micro_cfg()
    train = [c for c in clips if c.labels["environment"] == "env0"]
    test = [c for c in clips if c.labels["environment"] == "env1"]
    r = E.run_regime("supervised", None, train, test, E.HeadConfig(2), micro_train_cfg(), model_cfg=cfg)
    assert r.regime == "supervised" and r.n_test == len(test)


def test_regime_determinism(tmp_path):
    manifest, clips = micro_corpus(tmp_path)
    cfg = micro_cfg()
    train = [c for c in clips if c.labels["environment"] == "env0"]
    test = [c for c in clips if c.labels["environment"] == "env1"]
    a = E.run_regime("supervised", None, train, test, E.HeadConfig(2), micro_train_cfg(), model_cfg=cfg)
    b = E.run_regime("supervised", None, train, test, E.HeadConfig(2), micro_train_cfg(), model_cfg=cfg)
    assert a.accuracy == b.accuracy and a.per_class == b.per_class


def test_unseen_test_classes_are_excluded_not_scored(tmp_path):
    manifest, clips = micro_corpus(tmp_path)
    cfg = micro_cfg()
    train = [c for c in clips if c.labels["environment"] == "env0" and c.labels["class"] == "c0"]
    train += [c for c in clips if c.labels["environment"] == "env0" and c.labels["class"] == "c1"][:3]
    test = [c for c in clips if c.labels["environment"] == "env1"]
    fake = D.CsiClip(
        data=test[0].data.copy(),
        labels={**test[0].labels, "class": "c9"},
        provenance=D.Provenance("ghost", 0, 0, 0, 0),
    )
    r = E.run_regime("supervised", None, train, test + [fake], E.HeadConfig(2), micro_train_cfg(), model_cfg=cfg)
    assert r.n_excluded == 1
    assert r.n_test == len(test)


def test_per_class_accuracy_consistent_with_confusion_rows():
    pred = np.array([0, 0, 1, 1, 2, 0])
    truth = np.array([0, 1, 1, 1, 2, 2])
    vocab = {"a": 0, "b": 1, "c": 2}
    per = E.per_class_accuracy(pred, truth, vocab)
    assert per == {"a": 1.0, "b": pytest.approx(2 / 3), "c": 0.5}
    assert E.accuracy(pred, truth) == pytest.approx(4 / 6)


def test_select_labeled_is_stratified_and_seeded():
    clips = []
    for i in range(40):
        clips.append(
            D.CsiClip(
                data=np.zeros((600, 90), dtype=np.float32),
                labels={"class": f"c{i % 2}"},
                provenance=D.Provenance(f"s{i}", 0, 0, 0, 0),
            )
        )
    sub = E.select_labeled(clips, 0.25, seed=0)
    assert len(sub) == 10
    counts = {}
    for c in sub:
        counts[c.labels["class"]] = counts.get(c.labels["class"], 0) + 1
    assert counts == {"c0": 5, "c1": 5}
    again = E.select_labeled(clips, 0.25, seed=0)
    assert [c.clip_id for c in again] == [c.clip_id for c in sub]


def test_cross_domain_suite_fold_count(tmp_path):
    spec = S.SynthTaskSpec(n_classes=2, n_environments=3, n_subjects=1, clips_per_cell=4, seed=9)
    manifest = S.generate_task(spec, tmp_path / "store")
    results = E.cross_domain_suite(
        manifest,
        tmp_path / "store",
        "environment",
        ["supervised"],
        micro_cfg(),
        E.HeadConfig(2),
        micro_train_cfg(max_epochs=2),
    )
    assert len(results) == 3
    assert {r.split["held_out_value"] for r in results} == {"env0", "env1", "env2"}
    macro = E.macro_average(results)
    assert set(macro) == {"supervised"} and 0.0 <= macro["supervised"] <= 1.0


def test_ft_starts_from_checkpoint_weights(tmp_path):
    manifest, clips = micro_corpus(tmp_path)
    cfg = micro_cfg()
    x, _ = D.stack_clips(clips)
    res = R.pretrain_arrays(x, cfg, micro_train_cfg(max_epochs=2))
    train = [c for c in clips if c.labels["environment"] == "env0"]
    test = [c for c in clips if c.labels["environment"] == "env1"]
    r = E.run_regime("ft", (res.params, cfg), train, test, E.HeadConfig(2), micro_train_cfg(max_epochs=2))
    assert r.regime == "ft" and 0.0 <= r.accuracy <= 1.0
    # checkpoint itself must remain untouched by fine-tuning
    assert C.params_equal(res.params, res.params)
