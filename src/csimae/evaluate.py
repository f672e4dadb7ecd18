"""Downstream classification harness: supervised, linear-probe, fine-tune.

Every downstream result comes from ``run_fold``: one split, an encoder
pretrained on its training side only, each regime scored on its test side.

All three regimes train through ``training.fit``, the seeded loop that
pretraining also runs: cross-entropy on the CLS feature, AdamW at the
``TrainConfig``'s batch size, cosine schedule, early stopping on
accuracy over a validation slice of the training set.  Every step is
recorded, rejected optimizer steps included.  Linear probing trains a
single linear layer on frozen features and never touches encoder
weights; fine-tuning updates encoder and head; supervised starts the
encoder from random init.  The fine-tune and supervised head is one
hidden layer of encoder width: linear, GELU, linear.  Every
regime classifies ``LABEL_KEY``, the key ``select_labeled`` draws its
budget over; a task on another label, such as user identification,
would thread its key through ``run_fold`` into both.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import checkpoint as C
from . import data as D
from . import mae as M
from . import tensors as T
from . import training as R


class EvalError(ValueError):
    pass


REGIMES = ("supervised", "lp", "ft")
LABEL_KEY = "class"  # the label every regime is trained and scored on
ENCODE_BATCH_SIZE = 64  # clips per frozen-encoder forward in ``encode_features``


@dataclass
class HeadConfig:
    n_classes: int

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
    rejected_steps: int = 0  # optimizer steps AdamW refused (non-finite gradient)

    def to_json(self):
        return asdict(self)


def init_head(feat_dim: int, n_classes: int, seed, hidden: bool) -> dict:
    """``head.out`` (feat_dim -> n_classes), after ``head.fc0`` (feat_dim -> feat_dim) when ``hidden``."""
    layout = M.linear_layout("head.fc0", feat_dim, feat_dim) if hidden else []
    return M.init_layout(layout + M.linear_layout("head.out", feat_dim, n_classes), seed)


def head_forward(feats: T.Tensor, params: dict) -> T.Tensor:
    """Logits from CLS features: fc0 -> GELU -> out, or ``out`` alone without fc0."""
    if "head.fc0.w" in params:
        feats = T.gelu(T.linear(feats, params["head.fc0.w"], params["head.fc0.b"]))
    return T.linear(feats, params["head.out.w"], params["head.out.b"])


def encode_features(params: dict, model_cfg: M.ModelConfig, clips: np.ndarray) -> np.ndarray:
    """Frozen (graph-free) CLS features for a clip tensor, ``ENCODE_BATCH_SIZE`` clips at a time."""
    frozen = {k: T.Tensor(v.data) for k, v in params.items()}
    model = M.MaskedAutoencoder(model_cfg, params=frozen)
    n = ENCODE_BATCH_SIZE
    outs = [model.encode_features(clips[i : i + n]).data for i in range(0, len(clips), n)]
    return np.concatenate(outs, axis=0)


def _class_vocab(labels) -> dict:
    return {name: i for i, name in enumerate(sorted(set(labels)))}


def _labels_of(clips):
    return [c.labels[LABEL_KEY] for c in clips]


def train_classifier(forward_fn, params: dict, x_train, y_train, cfg: R.TrainConfig):
    """Cross-entropy through ``training.fit`` on streams 7/8, early-stopping on val accuracy.

    ``forward_fn(x_slice, params) -> logits Tensor``.  Training and
    validation batches hold ``cfg.batch_size`` items.  Returns the
    run's ``training.FitResult``; its ``params`` are the best kept.
    """
    val_idx, fit_idx = R.val_split(len(x_train), cfg, 7)

    def batch_loss(idx, epoch):
        return T.softmax_cross_entropy(forward_fn(x_train[idx], params), y_train[idx])

    def val_accuracy():
        return accuracy(predict(forward_fn, params, x_train[val_idx], cfg.batch_size), y_train[val_idx])

    return R.fit(params, fit_idx, cfg, 7, batch_loss, val_accuracy, mode="max")


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
    split_desc: dict | None = None,
    batch_size: int | None = None,
) -> EvalResult:
    """Train one regime and score exact-match accuracy on the test clips.

    Training, validation and test batches hold ``train_cfg.batch_size``
    clips; ``batch_size``, when given, must restate it.  Test clips
    whose class never appears in training are excluded from scoring
    (counted in ``n_excluded``), not scored as wrong.
    """
    if regime not in REGIMES:
        raise EvalError(f"unknown regime {regime!r}")
    if batch_size not in (None, train_cfg.batch_size):
        raise EvalError(f"batch_size {batch_size} differs from train_cfg.batch_size {train_cfg.batch_size}")
    head_cfg.validate()
    if regime in ("lp", "ft") and checkpoint is None:
        raise EvalError(f"regime {regime} needs a pretrained checkpoint")
    if checkpoint is not None and model_cfg is None:
        model_cfg = checkpoint[1]
    if model_cfg is None:
        raise EvalError("supervised regime needs a model config")

    vocab = _class_vocab(_labels_of(train_clips))
    if len(vocab) != head_cfg.n_classes:
        raise EvalError(f"head expects {head_cfg.n_classes} classes, train set has {len(vocab)}")
    y_train = np.array([vocab[l] for l in _labels_of(train_clips)])
    keep = [i for i, l in enumerate(_labels_of(test_clips)) if l in vocab]
    n_excluded = len(test_clips) - len(keep)
    test_clips = [test_clips[i] for i in keep]
    y_test = np.array([vocab[l] for l in _labels_of(test_clips)])
    x_train, _ = D.stack_clips(train_clips)
    x_test, _ = D.stack_clips(test_clips)

    if regime == "lp":
        enc_params, _ = checkpoint
        f_train = encode_features(enc_params, model_cfg, x_train)
        f_test = encode_features(enc_params, model_cfg, x_test)
        params = init_head(model_cfg.enc_dim, head_cfg.n_classes, [train_cfg.seed, 12], hidden=False)
        fwd = lambda feats, p: head_forward(T.Tensor(feats), p)
        run = train_classifier(fwd, params, f_train, y_train, train_cfg)
        pred = predict(fwd, run.params, f_test, train_cfg.batch_size)
    else:
        if regime == "ft":
            enc_params = C.clone_params(checkpoint[0])
        else:
            enc_params = M.init_params(model_cfg, seed=[train_cfg.seed, 11])
        params = {k: v for k, v in enc_params.items() if k.startswith("enc.")}
        params.update(init_head(model_cfg.enc_dim, head_cfg.n_classes, [train_cfg.seed, 12], hidden=True))

        def fwd(clip_batch, p):
            return head_forward(M.MaskedAutoencoder(model_cfg, params=p).encode_features(clip_batch), p)

        run = train_classifier(fwd, params, x_train, y_train, train_cfg)
        pred = predict(fwd, run.params, x_test, train_cfg.batch_size)

    return EvalResult(
        regime=regime,
        split=split_desc or {},
        accuracy=accuracy(pred, y_test),
        per_class=per_class_accuracy(pred, y_test, vocab),
        n_train=len(train_clips),
        n_test=len(test_clips),
        n_excluded=n_excluded,
        seed=train_cfg.seed,
        best_epoch=run.best_epoch,
        aborted=run.aborted,
        rejected_steps=run.rejected_steps,
    )


def select_labeled(clips, fraction: float, seed) -> list:
    """Seeded per-class subset: the limited-label downstream budget."""
    if fraction >= 1.0:
        return list(clips)
    by_class = {}
    for c in clips:
        by_class.setdefault(c.labels.get(LABEL_KEY), []).append(c)
    rng = np.random.default_rng([seed, 13])
    chosen = []
    for key in sorted(by_class, key=str):
        group = sorted(by_class[key], key=lambda c: c.clip_id)
        n = max(1, int(round(fraction * len(group))))
        order = rng.permutation(len(group))
        chosen.extend(group[i] for i in order[:n])
    return sorted(chosen, key=lambda c: c.clip_id)


def run_fold(
    manifest: D.DatasetManifest,
    store_dir,
    split: D.SplitSpec,
    regimes,
    model_cfg: M.ModelConfig,
    train_cfg: R.TrainConfig,
    label_fraction: float,
    pretrain_cfg: R.TrainConfig | None = None,
    checkpoint: dict | None = None,
    pool=None,
) -> tuple:
    """Score each regime on one split -> (EvalResults, pretraining ``FitResult`` or None).

    Loads the split's clips once.  When a regime needs an encoder and no
    ``checkpoint`` (params of ``model_cfg``) is given, pretrains one
    under ``pretrain_cfg`` (default ``train_cfg``) on the training clips,
    or on the ``pool`` ids among them in pool order; a pool id outside
    the training side raises ``EvalError``.  The head's classes are the
    labeled clips'; test clips of any other class count in ``n_excluded``.
    """
    train_ids, test_ids = D.make_split(manifest, split)
    train_clips = D.load_clips(store_dir, manifest, train_ids)
    test_clips = D.load_clips(store_dir, manifest, test_ids)
    pretrained = None
    if checkpoint is None and any(r in ("lp", "ft") for r in regimes):
        by_id = {c.clip_id: c for c in train_clips}
        pool = train_ids if pool is None else pool
        if not set(pool) <= by_id.keys():
            raise EvalError(f"pretraining pool holds clips outside the training side of {split}")
        x, _ = D.stack_clips([by_id[i] for i in pool])
        pretrained = R.pretrain_arrays(x, model_cfg, pretrain_cfg or train_cfg)
        checkpoint = pretrained.params
    labeled = select_labeled(train_clips, label_fraction, train_cfg.seed)
    head_cfg = HeadConfig(n_classes=len(_class_vocab(_labels_of(labeled))))
    ckpt = None if checkpoint is None else (checkpoint, model_cfg)
    desc = {"protocol": split.protocol, "domain_key": split.domain_key, "held_out_value": split.held_out_value}
    results = [
        run_regime(regime, ckpt, labeled, test_clips, head_cfg, train_cfg, model_cfg, split_desc=desc)
        for regime in regimes
    ]
    return results, pretrained


def cross_domain_suite(
    manifest: D.DatasetManifest,
    store_dir,
    domain_key: str,
    regimes,
    model_cfg: M.ModelConfig,
    train_cfg: R.TrainConfig,
    pretrain_cfg: R.TrainConfig | None = None,
    label_fraction: float = 1.0,
) -> list:
    """One leave-one-domain-out ``run_fold`` per ``data.domain_values`` entry, each regime.

    For lp/ft the encoder is pretrained per fold on that fold's training
    clips only (the held-out domain never enters pretraining).
    """
    results = []
    for value in D.domain_values(manifest, domain_key):
        split = D.SplitSpec("leave_one_domain_out", domain_key, value, seed=train_cfg.seed)
        results += run_fold(manifest, store_dir, split, regimes, model_cfg, train_cfg, label_fraction, pretrain_cfg)[0]
    return results


def macro_average(records) -> dict:
    """Mean accuracy per regime across folds, over ``EvalResult.to_json`` records."""
    by_regime = {}
    for r in records:
        by_regime.setdefault(r["regime"], []).append(r["accuracy"])
    return {k: float(np.mean(v)) for k, v in sorted(by_regime.items())}
