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


def cross_domain(manifest, store, regimes, tcfg, pcfg, label_fraction):
    """A whole cross-domain suite: every cell planned, then run."""
    cells = E.cross_domain_cells(manifest, "environment", regimes, micro_cfg(), tcfg, pcfg, label_fraction)
    return [r for cell in cells for r in E.run_cell(manifest, store, cell, regimes)[1]]


def micro_corpus(tmp_path, clips_per_cell=6, seed=5):
    spec = S.SynthTaskSpec(
        n_classes=2, n_environments=2, n_subjects=1, clips_per_cell=clips_per_cell, seed=seed
    )
    manifest = S.generate_task(spec, tmp_path / "store")
    return manifest, D.load_clips(tmp_path / "store", manifest)


def test_encode_features_shape_and_determinism():
    cfg = micro_cfg()
    params = M.init_params(cfg, seed=0)
    clip = np.random.default_rng(0).standard_normal((600, 90)).astype(np.float32)
    a = E.encode_features(params, cfg, clip[None])[0]
    b = E.encode_features(params, cfg, clip[None])[0]
    assert a.shape == (16,)
    assert a.tobytes() == b.tobytes()


def test_encode_features_is_sensitive_to_input():
    cfg = micro_cfg()
    params = M.init_params(cfg, seed=1)
    clip = np.random.default_rng(1).standard_normal((600, 90)).astype(np.float32)
    poked = clip.copy()
    poked[17, 33] += 1.0
    a, b = E.encode_features(params, cfg, clip[None])[0], E.encode_features(params, cfg, poked[None])[0]
    assert np.linalg.norm(a - b) > 0


def test_cls_feature_width_matches_small_variant():
    cfg = M.ModelConfig(variant="small")
    params = M.init_params(cfg, seed=0)
    clip = np.random.default_rng(2).standard_normal((600, 90)).astype(np.float32)
    assert E.encode_features(params, cfg, clip[None])[0].shape == (384,)


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

    params = E.init_head(16, 2, seed=4)
    fwd = lambda x, p: E.head_forward(T.Tensor(x), p)
    cfg = micro_train_cfg(max_epochs=30, peak_lr=5e-2, weight_decay=0.0)
    best = E.train_classifier(fwd, params, feats[:80], labels[:80], cfg, 1).params
    pred = E.predict(fwd, best, feats[80:], 32)
    assert E.accuracy(pred, labels[80:]) == 1.0


def test_every_regime_starts_train_classifier_from_the_same_linear_head(tmp_path, monkeypatch):
    manifest, clips = micro_corpus(tmp_path)
    cfg = micro_cfg()
    train = [c for c in clips if c.labels["environment"] == "env0"]
    test = [c for c in clips if c.labels["environment"] == "env1"]
    real, heads = E.train_classifier, []

    def spy(forward_fn, params, x_train, y_train, train_cfg, item_rows):
        heads.append({k: v.data.copy() for k, v in params.items() if k.startswith("head.")})
        return real(forward_fn, params, x_train, y_train, train_cfg, item_rows)

    monkeypatch.setattr(E, "train_classifier", spy)
    ckpt = (M.init_params(cfg, seed=6), cfg)
    for regime in ("lp", "ft", "supervised"):
        E.run_regime(regime, ckpt, train, test, E.HeadConfig(2), micro_train_cfg(max_epochs=2))
    head0 = E.init_head(cfg.enc_dim, 2, [0, 12])
    assert len(heads) == 3
    for head in heads:
        assert head.keys() == head0.keys() == {"head.out.w", "head.out.b"}
        assert all(head[k].tobytes() == head0[k].data.tobytes() for k in head0)


@pytest.mark.parametrize("regime", E.REGIMES)
def test_a_test_side_with_no_class_of_the_labeled_clips_is_refused_before_training(tmp_path, monkeypatch, regime):
    manifest, clips = micro_corpus(tmp_path)
    cfg = micro_cfg()
    train = [c for c in clips if c.labels["environment"] == "env0"]
    test = [
        D.CsiClip(c.data, {**c.labels, "class": "c9"}, c.provenance) for c in clips if c.labels["environment"] == "env1"
    ]
    trained = []
    monkeypatch.setattr(E, "train_classifier", lambda *a: trained.append(a))
    ckpt = (M.init_params(cfg, seed=6), cfg)
    with pytest.raises(E.EvalError, match="no test clip to score: 12 of 12 have a class the labeled clips lack"):
        E.run_regime(regime, ckpt, train, test, E.HeadConfig(2), micro_train_cfg())
    assert not trained


def test_rejected_lp_step_is_counted_in_the_result(tmp_path, monkeypatch):
    manifest, clips = micro_corpus(tmp_path)
    cfg = micro_cfg()
    train = [c for c in clips if c.labels["environment"] == "env0"]
    test = [c for c in clips if c.labels["environment"] == "env1"]
    ckpt = (M.init_params(cfg, seed=6), cfg)
    clean = E.run_regime("lp", ckpt, train, test, E.HeadConfig(2), micro_train_cfg())
    assert clean.rejected_steps == 0 and clean.to_json()["rejected_steps"] == 0
    real, calls = R.adamw_step, []

    def refuse_second(params, grads, state, lr, config):
        calls.append(lr)
        return False if len(calls) == 2 else real(params, grads, state, lr, config)

    monkeypatch.setattr(R, "adamw_step", refuse_second)
    result = E.run_regime("lp", ckpt, train, test, E.HeadConfig(2), micro_train_cfg())
    assert len(calls) == 4 and not result.aborted
    assert result.rejected_steps == 1 and result.to_json()["rejected_steps"] == 1


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
    head0 = E.init_head(cfg.enc_dim, 2, [0, 12])
    vocab = E._class_vocab(c.labels["class"] for c in train)
    y_test = np.array([vocab[c.labels["class"]] for c in test])
    f_test = encode(ckpt[0], cfg, D.stack_clips(test)[0])
    pred = E.predict(lambda f, p: E.head_forward(T.Tensor(f), p), head0, f_test, 32)
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


def test_a_batch_size_other_than_the_train_configs_is_refused(tmp_path):
    manifest, clips = micro_corpus(tmp_path, clips_per_cell=2)
    with pytest.raises(E.EvalError, match="batch_size 8 differs from train_cfg.batch_size 16"):
        E.run_regime("supervised", None, clips, clips, E.HeadConfig(2), micro_train_cfg(), micro_cfg(), batch_size=8)


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


def _oracle_in_domain_8020(manifest, seed):
    """make_split's in_domain_8020 as its own per-class loop, before data.stratified_draw."""
    groups = {}
    for e in manifest.entries:
        groups.setdefault(e.labels.get("class"), []).append(e.clip_id)
    rng = np.random.default_rng([seed, 8020])
    train, test = [], []
    for key in sorted(groups, key=str):
        ids = sorted(groups[key])
        order = rng.permutation(len(ids))
        take = {ids[i] for i in order[: int(round(0.2 * len(ids)))]}
        test.extend(sorted(take))
        train.extend(sorted(set(ids) - take))
    return sorted(train), sorted(test)


def _oracle_select_labeled(clips, fraction, seed):
    """select_labeled as its own per-class loop, before data.stratified_draw."""
    if fraction >= 1.0:
        return list(clips)
    by_class = {}
    for c in clips:
        by_class.setdefault(c.labels.get("class"), []).append(c)
    rng = np.random.default_rng([seed, 13])
    chosen = []
    for key in sorted(by_class, key=str):
        group = sorted(by_class[key], key=lambda c: c.clip_id)
        order = rng.permutation(len(group))
        chosen.extend(group[i] for i in order[: max(1, int(round(fraction * len(group))))])
    return sorted(chosen, key=lambda c: c.clip_id)


def test_both_per_class_draws_match_their_own_loops_on_random_manifests():
    rng = np.random.default_rng(2024)
    data = np.zeros((600, 90), dtype=np.float32)
    classes = ["c0", "c1", "c2", "c10", 1, "1", None]  # None: the clip has no class label
    for _ in range(40):
        n = int(rng.integers(1, 40))
        clips = []
        for k in rng.permutation(1000)[:n]:
            cls = classes[rng.integers(len(classes))]
            labels = {"environment": "env0"} if cls is None else {"class": cls, "environment": "env0"}
            clips.append(D.CsiClip(data, labels, D.Provenance(f"s{k}", 0, 0, 0, int(k) % 3)))
        manifest = D.DatasetManifest(
            [D.ManifestEntry(c.clip_id, "shard-0000.bin", 0, c.labels, c.provenance) for c in clips]
        )
        for seed in (0, 1, 17):
            split = D.make_split(manifest, D.SplitSpec("in_domain_8020", seed=seed))
            assert split == _oracle_in_domain_8020(manifest, seed)
            for fraction in (0.05, 0.25, 0.5, 0.8, 1.0):
                got = E.select_labeled(clips, fraction, seed)
                assert [c.clip_id for c in got] == [c.clip_id for c in _oracle_select_labeled(clips, fraction, seed)]


def test_cross_domain_cells_fold_count(tmp_path):
    spec = S.SynthTaskSpec(n_classes=2, n_environments=3, n_subjects=1, clips_per_cell=4, seed=9)
    manifest = S.generate_task(spec, tmp_path / "store")
    tcfg = micro_train_cfg(max_epochs=2)
    store = tmp_path / "store"
    results = cross_domain(manifest, store, ["supervised"], tcfg, tcfg, 1.0)
    assert len(results) == 3
    assert {r.split["held_out_value"] for r in results} == {"env0", "env1", "env2"}
    macro = E.macro_average([r.to_json() for r in results])
    assert set(macro) == {"supervised"} and 0.0 <= macro["supervised"] <= 1.0


def test_cross_domain_pretraining_pools_hold_no_held_out_clip(tmp_path, monkeypatch):
    spec = S.SynthTaskSpec(n_classes=2, n_environments=3, n_subjects=1, clips_per_cell=4, seed=9)
    manifest = S.generate_task(spec, tmp_path / "store")
    clips = D.load_clips(tmp_path / "store", manifest)
    real, pools = R.pretrain_arrays, []

    def spy(x, model_cfg, cfg):
        pools.append(x.copy())
        return real(x, model_cfg, cfg)

    monkeypatch.setattr(R, "pretrain_arrays", spy)
    tcfg = micro_train_cfg(max_epochs=2)
    results = cross_domain(manifest, tmp_path / "store", ["lp"], tcfg, tcfg, 1.0)
    assert [r.split["held_out_value"] for r in results] == ["env0", "env1", "env2"]
    assert [len(x) for x in pools] == [16, 16, 16]
    for x, r in zip(pools, results):
        pooled = {row.tobytes() for row in x}
        env = r.split["held_out_value"]
        held_out = {c.data.tobytes() for c in clips if c.labels["environment"] == env}
        training = {c.data.tobytes() for c in clips if c.labels["environment"] != env}
        assert not pooled & held_out and pooled == training


@pytest.mark.parametrize("case", ["one-class-labeled-set", "short-pretraining"])
def test_a_suite_whose_last_fold_cannot_train_pretrains_nothing(tmp_path, case):
    full, _ = micro_corpus(tmp_path)
    env0 = [e for e in full.entries if e.labels["environment"] == "env0"]
    if case == "one-class-labeled-set":  # env0 holds class c0 only, so the env1 fold trains on one class
        kept = [e for e in env0 if e.labels["class"] == "c0"]
        pcfg, refusal = micro_train_cfg(max_epochs=2), "n_classes must be >= 2"
    else:  # env0 holds one clip of each class: the env1 fold pretrains 1 clip of its 2, 2 steps, after a 2-step warmup
        kept = [next(e for e in env0 if e.labels["class"] == c) for c in ("c0", "c1")]
        pcfg = micro_train_cfg(max_epochs=2, warmup_steps=2, batch_size=4)
        refusal = "pretraining pool of 2 clips: total_steps 2 must exceed warmup_steps 2$"
    manifest = D.DatasetManifest(kept + [e for e in full.entries if e.labels["environment"] == "env1"])
    # the suite's plan refuses it, so no fold of it reaches a runner
    with pytest.raises(E.EvalError, match=f"^fold environment=env1 cannot train: {refusal}"):
        E.cross_domain_cells(manifest, "environment", ["lp", "ft"], micro_cfg(), micro_train_cfg(max_epochs=2), pcfg, 1.0)


def test_a_suite_whose_last_fold_has_no_test_clip_to_score_trains_nothing(tmp_path):
    spec = S.SynthTaskSpec(n_classes=3, n_environments=3, n_subjects=1, clips_per_cell=2, seed=9)
    full = S.generate_task(spec, tmp_path / "store")
    # env2 holds class c2 only and the other environments never do, so the env2 fold labels no class it tests
    kept = [e for e in full.entries if (e.labels["environment"] == "env2") == (e.labels["class"] == "c2")]
    manifest = D.DatasetManifest(kept)
    tcfg = micro_train_cfg(max_epochs=2)
    with pytest.raises(E.EvalError, match="^fold environment=env2 cannot train: no test clip to score: 2 of 2 "):
        E.cross_domain_cells(manifest, "environment", ["supervised"], micro_cfg(), tcfg, tcfg, 1.0)


def test_run_fold_scores_the_encoder_it_is_given_and_never_pretrains(tmp_path, monkeypatch):
    manifest, _ = micro_corpus(tmp_path)
    split = D.SplitSpec("leave_one_domain_out", "environment", "env1")
    params = M.init_params(micro_cfg(), seed=[0, 0])

    def spy(*args, **kw):
        raise AssertionError("run_fold pretrained")

    monkeypatch.setattr(R, "pretrain_arrays", spy)
    fold = E.plan_fold(manifest, split, micro_train_cfg(max_epochs=2), 1.0)
    args = (manifest, tmp_path / "store", fold, ["lp", "ft"], micro_cfg())
    results = E.run_fold(*args, checkpoint=params)
    assert [r.regime for r in results] == ["lp", "ft"]
    with pytest.raises(E.EvalError, match="needs a pretrained checkpoint"):
        E.run_fold(*args)


def test_a_cell_refuses_a_pool_outside_the_training_side_or_one_that_cannot_train(tmp_path):
    manifest, clips = micro_corpus(tmp_path)
    split = D.SplitSpec("leave_one_domain_out", "environment", "env1")
    held_out = next(c.clip_id for c in clips if c.labels["environment"] == "env1")
    fold = E.plan_fold(manifest, split, micro_train_cfg(), 1.0)
    for pcfg in (micro_train_cfg(), None):  # the leak guard holds whether or not the cell pretrains
        with pytest.raises(E.EvalError, match="outside the training side"):
            E.Cell(fold, micro_cfg(), pcfg, fold.train_ids[:6] + [held_out])
    # the 12 env0 clips fit 10 of them, one step an epoch, 4 in all; one clip leaves none to fit
    for pool, refusal in (
        (fold.train_ids, "pretraining pool of 12 clips: total_steps 4 must exceed warmup_steps 4"),
        (fold.train_ids[:1], "pretraining pool of 1 clips: a validation slice of 1 leaves none of 1 items to fit"),
    ):
        with pytest.raises(E.EvalError, match=f"^{refusal}$"):
            E.Cell(fold, micro_cfg(), micro_train_cfg(warmup_steps=4), pool)
    assert E.Cell(fold, micro_cfg(), None, fold.train_ids[:1]).pool == fold.train_ids[:1]  # nothing pretrains


def test_a_hand_planned_cell_is_the_cross_domain_suites_fold(tmp_path):
    manifest, _ = micro_corpus(tmp_path)
    store, regimes, tcfg = tmp_path / "store", ["supervised", "lp", "ft"], micro_train_cfg(max_epochs=2)
    suite = cross_domain(manifest, store, regimes, tcfg, tcfg, 0.5)
    split = D.SplitSpec("leave_one_domain_out", "environment", "env1", seed=tcfg.seed)
    fold = E.plan_fold(manifest, split, tcfg, 0.5)
    pretrained, results = E.run_cell(manifest, store, E.Cell(fold, micro_cfg(), tcfg, fold.train_ids), regimes)
    assert [r.to_json() for r in results] == [r.to_json() for r in suite if r.split["held_out_value"] == "env1"]
    assert pretrained.best_epoch > 0


def test_a_fold_whose_training_side_lacks_a_class_excludes_its_test_clips(tmp_path):
    spec = S.SynthTaskSpec(n_classes=3, n_environments=3, n_subjects=1, clips_per_cell=4, seed=9)
    full = S.generate_task(spec, tmp_path / "store")
    # class c2 is recorded in env0 only, so the env0 fold never trains on it
    manifest = D.DatasetManifest(
        [e for e in full.entries if e.labels["class"] != "c2" or e.labels["environment"] == "env0"]
    )
    tcfg = micro_train_cfg(max_epochs=2)
    store = tmp_path / "store"
    results = cross_domain(manifest, store, ["supervised"], tcfg, tcfg, 1.0)
    folds = {r.split["held_out_value"]: r for r in results}
    assert (folds["env0"].n_test, folds["env0"].n_excluded) == (8, 4)
    assert set(folds["env0"].per_class) == {"c0", "c1"}
    assert [(folds[e].n_test, folds[e].n_excluded) for e in ("env1", "env2")] == [(8, 0), (8, 0)]


def test_ft_starts_from_checkpoint_weights(tmp_path, monkeypatch):
    manifest, clips = micro_corpus(tmp_path)
    cfg = micro_cfg()
    x, _ = D.stack_clips(clips)
    res = R.pretrain_arrays(x, cfg, micro_train_cfg(max_epochs=2))
    before = C.clone_params(res.params)
    train = [c for c in clips if c.labels["environment"] == "env0"]
    test = [c for c in clips if c.labels["environment"] == "env1"]
    encode, seen = M.MaskedAutoencoder.encode, []

    def spy(model, tokens, visible_idx):
        seen.append({k: v.data.copy() for k, v in model.params.items() if k.startswith("enc.")})
        return encode(model, tokens, visible_idx)

    monkeypatch.setattr(M.MaskedAutoencoder, "encode", spy)
    r = E.run_regime("ft", (res.params, cfg), train, test, E.HeadConfig(2), micro_train_cfg(max_epochs=2))
    assert r.regime == "ft" and 0.0 <= r.accuracy <= 1.0
    enc = {k: v.data for k, v in before.items() if k.startswith("enc.")}
    assert seen[0].keys() == enc.keys()
    assert all(seen[0][k].tobytes() == enc[k].tobytes() for k in enc)
    assert any(seen[-1][k].tobytes() != enc[k].tobytes() for k in enc)  # fine-tuning moved the encoder
    # the checkpoint itself is untouched by fine-tuning
    assert res.params.keys() == before.keys()
    assert all(res.params[k].data.tobytes() == before[k].data.tobytes() for k in before)


@pytest.mark.parametrize("regime", E.REGIMES)
def test_run_regime_never_stacks_its_clips_and_encodes_one_batch_at_a_time(tmp_path, monkeypatch, regime):
    manifest, clips = micro_corpus(tmp_path)
    cfg = micro_cfg()
    train = [c for c in clips if c.labels["environment"] == "env0"]
    test = [c for c in clips if c.labels["environment"] == "env1"]

    def no_stack(clips):
        raise AssertionError("run_regime stacked its clips")

    encode, seen = M.MaskedAutoencoder.encode_features, []

    def spy(model, x):
        seen.append(len(x))
        return encode(model, x)

    monkeypatch.setattr(D, "stack_clips", no_stack)
    monkeypatch.setattr(M.MaskedAutoencoder, "encode_features", spy)
    monkeypatch.setattr(R, "PASS_TOKENS", 5 * (1 + cfg.n_patches) + 1)  # five clips a graph-free pass
    ckpt = (M.init_params(cfg, seed=6), cfg)
    result = E.run_regime(regime, ckpt, train, test, E.HeadConfig(2), micro_train_cfg(batch_size=4, max_epochs=2))
    assert result.n_test == len(test) == 12
    if regime == "lp":  # one feature pass over each side, five clips at a time
        assert seen == [5, 5, 2, 5, 5, 2]
    else:
        assert seen and max(seen) <= 4


def test_train_classifier_and_predict_give_the_same_bits_on_an_array_and_on_its_rows():
    rng = np.random.default_rng(12)
    feats = rng.standard_normal((30, 4)).astype(np.float32)
    labels = rng.integers(0, 2, 30)
    fwd = lambda x, p: E.head_forward(T.Tensor(x), p)
    cfg = micro_train_cfg(batch_size=4, max_epochs=3)
    runs = [E.train_classifier(fwd, E.init_head(4, 2, seed=9), x, labels, cfg, 1) for x in (feats, list(feats))]
    assert runs[0].metrics.steps == runs[1].metrics.steps and runs[0].metrics.epochs == runs[1].metrics.epochs
    assert all(runs[0].params[k].data.tobytes() == runs[1].params[k].data.tobytes() for k in runs[0].params)
    preds = [E.predict(fwd, runs[0].params, x, 4) for x in (feats, list(feats))]
    assert preds[0].tobytes() == preds[1].tobytes()


def test_validation_and_prediction_build_no_graph_and_keep_the_graph_passes_bits():
    rng = np.random.default_rng(13)
    feats = rng.standard_normal((30, 4)).astype(np.float32)
    labels = rng.integers(0, 2, 30)
    calls = []

    def fwd(x, p):
        logits = E.head_forward(T.Tensor(x), p)
        graph = E.head_forward(T.Tensor(x), C.shared_params(p))  # the same pass on trainable params
        assert graph._backward is not None and logits.data.tobytes() == graph.data.tobytes()
        calls.append("graph" if logits._backward is not None else "free")
        return logits

    # 24 items to fit in batches of 4 and a 6-item validation slice in batches of 4 and 2
    cfg = micro_train_cfg(batch_size=4, max_epochs=2, early_stop_patience=2)
    run = E.train_classifier(fwd, E.init_head(4, 2, seed=9), feats, labels, cfg, 1)
    E.predict(fwd, run.params, feats[:10], 4)
    assert calls == (["graph"] * 6 + ["free"] * 2) * 2 + ["free"] * 3


def test_run_fold_loads_only_the_labeled_and_the_test_clips(tmp_path, monkeypatch):
    manifest, _ = micro_corpus(tmp_path)
    store, cfg, tcfg = tmp_path / "store", micro_cfg(), micro_train_cfg(max_epochs=2)
    split = D.SplitSpec("leave_one_domain_out", "environment", "env1")
    params, regimes = M.init_params(cfg, seed=[0, 0]), ["supervised", "lp", "ft"]
    train_ids, test_ids = D.make_split(manifest, split)
    # the reference loads the whole training side and draws the budget on its clips
    train_clips = D.load_clips(store, manifest, train_ids)
    labeled = E.select_labeled(train_clips, 0.25, tcfg.seed)
    test_clips = D.load_clips(store, manifest, test_ids)
    desc = {"protocol": split.protocol, "domain_key": split.domain_key, "held_out_value": split.held_out_value}
    want = [
        E.run_regime(r, (params, cfg), labeled, test_clips, E.HeadConfig(2), tcfg, cfg, split_desc=desc).to_json()
        for r in regimes
    ]
    real, loaded = D.load_clips, []

    def spy(store_dir, manifest, clip_ids=None):
        loaded.append(list(clip_ids))
        return real(store_dir, manifest, clip_ids)

    monkeypatch.setattr(D, "load_clips", spy)
    got = E.run_fold(manifest, store, E.plan_fold(manifest, split, tcfg, 0.25), regimes, cfg, checkpoint=params)
    assert loaded == [[c.clip_id for c in labeled], test_ids]
    assert len(labeled) == 4 and len(train_ids) == 12  # 2 of each class's 6
    assert [r.to_json() for r in got] == want
