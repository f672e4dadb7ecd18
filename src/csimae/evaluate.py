"""Downstream classification harness: supervised, linear-probe, fine-tune.

All three regimes share one seeded loop: cross-entropy on the CLS
feature, AdamW at batch 32, cosine schedule, early stopping on a
validation slice of the training set.  Linear probing trains a single
linear layer on frozen features and never touches encoder weights;
fine-tuning updates encoder and head; supervised starts the encoder
from random init.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import checkpoint as C
from . import data as D
from . import mae as M
from . import tensors as T
from . import training as R


class EvalError(ValueError):
    pass


REGIMES = ("supervised", "lp", "ft")


@dataclass
class HeadConfig:
    n_classes: int
    hidden_dims: list | None = None  # None -> one hidden layer of encoder width

    def validate(self):
        if self.n_classes < 2:
            raise EvalError("need at least 2 classes")
        return self


@dataclass
class EvalResult:
    regime: str
    split: dict
    accuracy: float
    per_class: dict
    n_train: int
    n_test: int
    n_excluded: int
    seed: int
    best_epoch: int = 0
    aborted: bool = False  # a non-finite loss stopped training; scored with the params kept before it

    def to_json(self):
        return {
            "regime": self.regime,
            "split": self.split,
            "accuracy": self.accuracy,
            "per_class": self.per_class,
            "n_train": self.n_train,
            "n_test": self.n_test,
            "n_excluded": self.n_excluded,
            "seed": self.seed,
            "best_epoch": self.best_epoch,
            "aborted": self.aborted,
        }


def head_dims(feat_dim: int, cfg: HeadConfig) -> list:
    hidden = [feat_dim] if cfg.hidden_dims is None else list(cfg.hidden_dims)
    return [feat_dim] + hidden + [cfg.n_classes]


def init_head(feat_dim: int, cfg: HeadConfig, seed, dtype=np.float32) -> dict:
    rng = np.random.default_rng(seed)
    params = {}
    dims = head_dims(feat_dim, cfg)
    for i in range(len(dims) - 1):
        name = f"head.fc{i}" if i < len(dims) - 2 else "head.out"
        M._init_linear(params, name, dims[i], dims[i + 1], rng, dtype)
    return params


def head_forward(feats: T.Tensor, params: dict, cfg: HeadConfig) -> T.Tensor:
    """MLP head on CLS features: hidden layers with GELU, then logits."""
    n_hidden = 1 if cfg.hidden_dims is None else len(cfg.hidden_dims)
    x = feats
    for i in range(n_hidden):
        x = T.gelu(T.linear(x, params[f"head.fc{i}.w"], params[f"head.fc{i}.b"]))
    return T.linear(x, params["head.out.w"], params["head.out.b"])


def encode_clip(checkpoint_params: dict, model_cfg: M.ModelConfig, clip: np.ndarray) -> np.ndarray:
    """Deterministic, mask-free CLS feature for one 600x90 clip."""
    if clip.shape != (model_cfg.input_time, model_cfg.input_chan):
        raise EvalError(f"clip shape {clip.shape} does not match model input")
    model = M.MaskedAutoencoder(model_cfg, params=checkpoint_params)
    return model.encode_features(clip[None].astype(np.float32)).data[0]


def encode_features(params: dict, model_cfg: M.ModelConfig, clips: np.ndarray, batch_size: int = 64) -> np.ndarray:
    """Frozen (graph-free) CLS features for a clip tensor."""
    frozen = {k: T.Tensor(v.data) for k, v in params.items()}
    model = M.MaskedAutoencoder(model_cfg, params=frozen)
    outs = [model.encode_features(clips[i : i + batch_size]).data for i in range(0, len(clips), batch_size)]
    return np.concatenate(outs, axis=0)


def _class_vocab(labels) -> dict:
    return {name: i for i, name in enumerate(sorted(set(labels)))}


def _labels_of(clips, label_key):
    return [c.labels[label_key] for c in clips]


def train_classifier(forward_fn, params: dict, x_train, y_train, cfg: R.TrainConfig, batch_size: int = 32):
    """Shared seeded loop: CE loss, AdamW, early stop on val accuracy.

    ``forward_fn(x_slice, params) -> logits Tensor``.  Returns
    (best params, best epoch, history records).  A non-finite loss stops
    training: the history ends with ``{"epoch": e, "aborted": True}`` and
    the best params kept so far are returned.
    """
    cfg.validate()
    n = len(x_train)
    order = np.random.default_rng([cfg.seed, 7]).permutation(n)
    n_val = max(1, int(round(cfg.val_fraction * n)))
    val_idx, fit_idx = order[:n_val], order[n_val:]
    if not len(fit_idx):
        raise EvalError("training set too small for a validation slice")
    steps_per_epoch = math.ceil(len(fit_idx) / batch_size)
    total_steps = cfg.max_epochs * steps_per_epoch
    opt = R.AdamW(params, cfg)
    stopper = R.EarlyStopper(cfg.early_stop_patience, mode="max")
    best = C.clone_params(params)
    best_epoch = 0
    history = []
    step = 0
    for epoch in range(1, cfg.max_epochs + 1):
        shuffled = fit_idx[np.random.default_rng([cfg.seed, 8, epoch]).permutation(len(fit_idx))]
        for i in range(0, len(shuffled), batch_size):
            idx = shuffled[i : i + batch_size]
            step += 1
            logits = forward_fn(x_train[idx], params)
            loss = T.softmax_cross_entropy(logits, y_train[idx])
            if not math.isfinite(float(loss.data)):
                history.append({"epoch": epoch, "aborted": True})
                return best, best_epoch, history
            loss.backward()
            opt.step(R.lr_at(step, cfg, total_steps))
        val_acc = accuracy(predict(forward_fn, params, x_train[val_idx], batch_size), y_train[val_idx])
        improved = stopper.update(epoch, val_acc)
        history.append({"epoch": epoch, "val_accuracy": val_acc, "best": improved})
        if improved:
            best = C.clone_params(params)
            best_epoch = epoch
        if stopper.should_stop(epoch):
            break
    return best, best_epoch, history


def predict(forward_fn, params: dict, x, batch_size: int = 32) -> np.ndarray:
    preds = []
    for i in range(0, len(x), batch_size):
        logits = forward_fn(x[i : i + batch_size], params)
        preds.append(np.argmax(logits.data, axis=1))
    return np.concatenate(preds)


def accuracy(pred: np.ndarray, truth: np.ndarray) -> float:
    return float((pred == truth).mean()) if len(truth) else 0.0


def per_class_accuracy(pred: np.ndarray, truth: np.ndarray, vocab: dict) -> dict:
    inv = {i: name for name, i in vocab.items()}
    out = {}
    for i, name in sorted(inv.items()):
        mask = truth == i
        if mask.any():
            out[name] = float((pred[mask] == i).mean())
    return out


def run_regime(
    regime: str,
    checkpoint,  # (params, model_cfg) tuple or None
    train_clips,
    test_clips,
    head_cfg: HeadConfig,
    train_cfg: R.TrainConfig,
    model_cfg: M.ModelConfig | None = None,
    label_key: str = "class",
    split_desc: dict | None = None,
    batch_size: int = 32,
) -> EvalResult:
    """Train one regime and score exact-match accuracy on the test clips.

    Test clips whose class never appears in training are excluded from
    scoring (counted in ``n_excluded``), not scored as wrong.
    """
    if regime not in REGIMES:
        raise EvalError(f"unknown regime {regime!r}")
    head_cfg.validate()
    if regime in ("lp", "ft") and checkpoint is None:
        raise EvalError(f"regime {regime} needs a pretrained checkpoint")
    if checkpoint is not None and model_cfg is None:
        model_cfg = checkpoint[1]
    if model_cfg is None:
        raise EvalError("supervised regime needs a model config")

    vocab = _class_vocab(_labels_of(train_clips, label_key))
    if len(vocab) != head_cfg.n_classes:
        raise EvalError(f"head expects {head_cfg.n_classes} classes, train set has {len(vocab)}")
    y_train = np.array([vocab[l] for l in _labels_of(train_clips, label_key)])
    keep = [i for i, l in enumerate(_labels_of(test_clips, label_key)) if l in vocab]
    n_excluded = len(test_clips) - len(keep)
    test_clips = [test_clips[i] for i in keep]
    y_test = np.array([vocab[l] for l in _labels_of(test_clips, label_key)])
    x_train, _ = D.stack_clips(train_clips)
    x_test, _ = D.stack_clips(test_clips)

    if regime == "lp":
        enc_params, _ = checkpoint
        f_train = encode_features(enc_params, model_cfg, x_train)
        f_test = encode_features(enc_params, model_cfg, x_test)
        params = init_head(model_cfg.enc_dim, HeadConfig(head_cfg.n_classes, hidden_dims=[]), [train_cfg.seed, 12])
        lp_head = HeadConfig(head_cfg.n_classes, hidden_dims=[])
        fwd = lambda feats, p: head_forward(T.Tensor(feats), p, lp_head)
        best, best_epoch, history = train_classifier(fwd, params, f_train, y_train, train_cfg, batch_size)
        pred = predict(fwd, best, f_test, batch_size)
    else:
        if regime == "ft":
            enc_params = C.clone_params(checkpoint[0])
        else:
            enc_params = M.init_params(model_cfg, seed=[train_cfg.seed, 11])
        params = {k: v for k, v in enc_params.items() if k.startswith("enc.")}
        params.update(init_head(model_cfg.enc_dim, head_cfg, [train_cfg.seed, 12]))
        model = M.MaskedAutoencoder(model_cfg, params=params)

        def fwd(clip_batch, p):
            return head_forward(model.encode_features(clip_batch, params=p), p, head_cfg)

        best, best_epoch, history = train_classifier(fwd, params, x_train, y_train, train_cfg, batch_size)
        pred = predict(fwd, best, x_test, batch_size)

    return EvalResult(
        regime=regime,
        split=split_desc or {},
        accuracy=accuracy(pred, y_test),
        per_class=per_class_accuracy(pred, y_test, vocab),
        n_train=len(train_clips),
        n_test=len(test_clips),
        n_excluded=n_excluded,
        seed=train_cfg.seed,
        best_epoch=best_epoch,
        aborted=bool(history) and history[-1].get("aborted", False),
    )


def select_labeled(clips, fraction: float, seed) -> list:
    """Seeded per-class subset: the limited-label downstream budget."""
    if fraction >= 1.0:
        return list(clips)
    by_class = {}
    for c in clips:
        by_class.setdefault(c.labels.get("class"), []).append(c)
    rng = np.random.default_rng([seed, 13])
    chosen = []
    for key in sorted(by_class, key=str):
        group = sorted(by_class[key], key=lambda c: c.clip_id)
        n = max(1, int(round(fraction * len(group))))
        order = rng.permutation(len(group))
        chosen.extend(group[i] for i in order[:n])
    return sorted(chosen, key=lambda c: c.clip_id)


def cross_domain_suite(
    manifest: D.DatasetManifest,
    store_dir,
    domain_key: str,
    regimes,
    model_cfg: M.ModelConfig,
    head_cfg: HeadConfig,
    train_cfg: R.TrainConfig,
    pretrain_cfg: R.TrainConfig | None = None,
    label_fraction: float = 1.0,
    label_key: str = "class",
) -> list:
    """One leave-one-domain-out fold per domain value, each regime.

    For lp/ft the encoder is pretrained per fold on the training-pool
    clips only (the held-out domain never enters pretraining).
    """
    values = [v for v in manifest.label_values(domain_key) if v]
    if len(values) < 2:
        raise EvalError("need at least 2 domain values")
    results = []
    for value in values:
        split = D.SplitSpec("leave_one_domain_out", domain_key, value, seed=train_cfg.seed)
        train_ids, test_ids = D.make_split(manifest, split)
        train_clips = D.load_clips(store_dir, manifest, train_ids)
        test_clips = D.load_clips(store_dir, manifest, test_ids)
        ckpt = None
        if any(r in ("lp", "ft") for r in regimes):
            x, _ = D.stack_clips(train_clips)
            res = R.pretrain_arrays(x, model_cfg, pretrain_cfg or train_cfg)
            ckpt = (res.params, model_cfg)
        labeled = select_labeled(train_clips, label_fraction, train_cfg.seed)
        desc = {"protocol": "leave_one_domain_out", "domain_key": domain_key, "held_out_value": value}
        for regime in regimes:
            results.append(
                run_regime(regime, ckpt, labeled, test_clips, head_cfg, train_cfg, model_cfg, label_key, desc)
            )
    return results


def macro_average(results) -> dict:
    """Mean accuracy per regime across folds."""
    by_regime = {}
    for r in results:
        by_regime.setdefault(r.regime, []).append(r.accuracy)
    return {k: float(np.mean(v)) for k, v in sorted(by_regime.items())}
