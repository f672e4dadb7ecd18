"""Downstream classification harness: supervised, linear-probe, fine-tune.

Every downstream result comes from ``run_fold``: one planned fold, each
regime scored on its test side.  A cross-domain fold or a sweep cell, which
pretrains an encoder on its fold's training side and then scores it, is one
``Cell``, run by ``run_cell``.  A fold is judged once, on the manifest alone,
when ``plan_fold`` plans it, and a cell's pool when the ``Cell`` is built;
the runners take the plans and judge nothing again.

All three regimes classify with one linear head and train through
``training.fit``, the seeded loop that pretraining also runs:
cross-entropy on the CLS feature, AdamW at the ``TrainConfig``'s batch
size, cosine schedule, and the epoch of lowest cross-entropy on a
validation slice of the training set kept, with early stopping after it.
Every step is recorded, rejected optimizer steps included.  The regimes
differ only in where the encoder starts and whether it trains: linear
probing trains the head on frozen features and never touches encoder
weights; fine-tuning updates encoder and head; supervised starts the
encoder from random init.  Every
regime classifies ``data.LABEL_KEY``, the label ``select_labeled``'s
``data.stratified_draw`` draws the budget over; a task on another label,
such as user identification, would thread its key through ``plan_fold``
into both.

Each clip set is held once.  ``run_fold`` loads only the labeled clips and
the test clips, and every pass over them (training, validation,
prediction, lp's feature pass) builds one batch from the clips' own arrays
when that batch runs.  Validation and prediction run on frozen views of
the params (``checkpoint.frozen_params``), so they build no graph.
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
ENCODE_BATCH_SIZE = 64  # clips per frozen-encoder forward in ``encode_features``


@dataclass(frozen=True)
class HeadConfig:
    n_classes: int

    def __post_init__(self):
        if self.n_classes < 2:
            raise EvalError("n_classes must be >= 2")


@dataclass(frozen=True)
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


def init_head(feat_dim: int, n_classes: int, seed) -> dict:
    """The linear head ``head.out`` (feat_dim -> n_classes)."""
    return M.init_layout(M.linear_layout("head.out", feat_dim, n_classes), seed)


def head_forward(feats: T.Tensor, params: dict) -> T.Tensor:
    """Logits from CLS features."""
    return T.linear(feats, params["head.out.w"], params["head.out.b"])


def _batch(xs, idx) -> np.ndarray:
    """``xs[idx]`` as one array, built when the batch runs.

    ``xs`` is an array, indexed as is, or a sequence of equal-shaped
    arrays, whose selected items are stacked; ``idx`` is a slice or an
    index array.  Either way the batch holds the bytes of the array
    indexing would give, so a caller need not stack the whole sequence.
    """
    if isinstance(xs, np.ndarray):
        return xs[idx]
    return np.stack(xs[idx] if isinstance(idx, slice) else [xs[i] for i in idx])


def encode_features(params: dict, model_cfg: M.ModelConfig, clips) -> np.ndarray:
    """Frozen (graph-free) CLS features of ``clips``, ``ENCODE_BATCH_SIZE`` clips at a time.

    ``clips`` is an (N, 600, 90) array or a sequence of (600, 90) arrays;
    one batch of them is built at a time, and only the (N, enc_dim)
    features outlive the call.
    """
    model = M.MaskedAutoencoder(model_cfg, params=C.frozen_params(params))
    n = ENCODE_BATCH_SIZE
    outs = [model.encode_features(_batch(clips, slice(i, i + n))).data for i in range(0, len(clips), n)]
    return np.concatenate(outs, axis=0)


def _class_vocab(labels) -> dict:
    return {name: i for i, name in enumerate(sorted(set(labels)))}


def _labels_of(clips):
    return [c.labels[D.LABEL_KEY] for c in clips]


def train_classifier(forward_fn, params: dict, x_train, y_train, cfg: R.TrainConfig):
    """Cross-entropy through ``training.fit`` on streams 7/8, keeping the epoch of lowest val loss.

    ``forward_fn(x_batch, params) -> logits Tensor``.  ``x_train`` is an
    array or a sequence of arrays, held as given: each training and
    validation batch of ``cfg.batch_size`` items is built when it runs
    and dropped after it.  The validation loss is their
    ``training.mean_batch_loss``, run on frozen views of ``params``, so it
    builds no graph.  Returns the run's ``training.FitResult``; its
    ``params`` are the best kept.
    """
    val_idx, fit_idx = R.val_split(len(x_train), cfg, 7)

    def xent(idx, p):
        return T.softmax_cross_entropy(forward_fn(_batch(x_train, idx), p), y_train[idx])

    def batch_loss(idx, epoch):
        return xent(idx, params)

    def val_loss():
        frozen = C.frozen_params(params)
        return R.mean_batch_loss(lambda sl: xent(val_idx[sl], frozen), len(val_idx), cfg.batch_size)

    return R.fit(params, fit_idx, cfg, 7, batch_loss, val_loss)


def predict(forward_fn, params: dict, x, batch_size: int) -> np.ndarray:
    """Argmax class of each item of ``x`` (an array or a sequence of arrays).

    Runs on frozen views of ``params``, so it builds no graph, and builds
    one batch of ``batch_size`` items at a time; only the predictions
    outlive a batch.
    """
    frozen = C.frozen_params(params)
    preds = []
    for i in range(0, len(x), batch_size):
        logits = forward_fn(_batch(x, slice(i, i + batch_size)), frozen)
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
    clips; ``batch_size``, when given, must restate it.  The clips are
    held as given, never stacked: each batch is built from the clips' own
    arrays when it runs, and lp's feature pass encodes ``ENCODE_BATCH_SIZE``
    clips at a time and keeps only their features.  ft trains tensors over
    the checkpoint's own arrays (``checkpoint.shared_params``), which its
    updates leave as they were.  Test clips
    whose class never appears in training are excluded from scoring
    (counted in ``n_excluded``), not scored as wrong; when that leaves
    none, ``EvalError`` is raised before any training.
    """
    if regime not in REGIMES:
        raise EvalError(f"unknown regime {regime!r}")
    if batch_size not in (None, train_cfg.batch_size):
        raise EvalError(f"batch_size {batch_size} differs from train_cfg.batch_size {train_cfg.batch_size}")
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
    if not keep:
        raise EvalError(f"no test clip to score: {n_excluded} of {len(test_clips)} have a class the labeled clips lack")
    test_clips = [test_clips[i] for i in keep]
    y_test = np.array([vocab[l] for l in _labels_of(test_clips)])
    x_train = [c.data for c in train_clips]
    x_test = [c.data for c in test_clips]

    if regime == "lp":
        x_train = encode_features(checkpoint[0], model_cfg, x_train)
        x_test = encode_features(checkpoint[0], model_cfg, x_test)
        params = {}
        fwd = lambda feats, p: head_forward(T.Tensor(feats), p)
    else:
        if regime == "ft":
            enc_params = C.shared_params(checkpoint[0])
        else:
            enc_params = M.init_params(model_cfg, seed=[train_cfg.seed, 11])
        params = {k: v for k, v in enc_params.items() if k.startswith("enc.")}

        def fwd(clip_batch, p):
            return head_forward(M.MaskedAutoencoder(model_cfg, params=p).encode_features(clip_batch), p)

    params.update(init_head(model_cfg.enc_dim, head_cfg.n_classes, [train_cfg.seed, 12]))
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
    """The limited-label downstream budget: ``max(1, round(fraction n))`` of each class's ``n`` clips.

    A ``data.stratified_draw`` on stream ``[seed, 13]``, in clip id order.
    ``clips`` may be clips or manifest entries: the draw reads only their
    ids and labels, so a budget can be drawn before any clip loads.
    """
    if fraction >= 1.0:
        return list(clips)
    ids = D.stratified_draw(clips, lambda n: max(1, int(round(fraction * n))), [seed, 13])
    return sorted((c for c in clips if c.clip_id in ids), key=lambda c: c.clip_id)


@dataclass(frozen=True)
class Fold:
    """One fold of a store as ``plan_fold`` judged it: the plan every fold runner takes."""

    split: D.SplitSpec
    train_ids: list
    test_ids: list
    labeled: list  # the manifest entries of the labeled budget, in clip id order
    head_cfg: HeadConfig
    train_cfg: R.TrainConfig  # the config the labeled budget was drawn and judged with


def plan_fold(manifest: D.DatasetManifest, split: D.SplitSpec, train_cfg: R.TrainConfig, label_fraction: float) -> Fold:
    """``split``'s fold of ``manifest``, judged once, before any clip loads.

    ``data.make_split`` forms the fold, the labeled set is
    ``select_labeled``'s budget of its training side and the head's
    classes are that set's classes.  A split ``make_split`` refuses
    (``SplitError``) raises, and so does (``EvalError``) a labeled set of
    fewer than two classes, with no test clip of one of them, or with no
    ``training.fit_budget`` step after the warmup.
    """
    train_ids, test_ids = D.make_split(manifest, split)
    labeled = select_labeled([manifest.by_id(i) for i in train_ids], label_fraction, train_cfg.seed)
    vocab = _class_vocab(_labels_of(labeled))
    head_cfg = HeadConfig(n_classes=len(vocab))
    if not any(manifest.by_id(i).labels[D.LABEL_KEY] in vocab for i in test_ids):
        n = len(test_ids)
        raise EvalError(f"no test clip to score: {n} of {n} have a class the labeled clips lack")
    _judge_budget("labeled set", labeled, train_cfg)
    return Fold(split, train_ids, test_ids, labeled, head_cfg, train_cfg)


def _judge_budget(name: str, clips, cfg: R.TrainConfig):
    """``training.fit_budget`` of ``clips``; a refusal is an ``EvalError`` naming them."""
    try:
        R.fit_budget(len(clips), cfg)
    except R.TrainError as e:
        raise EvalError(f"{name} of {len(clips)} clips: {e}") from e


@dataclass(frozen=True)
class Cell:
    """Pretrain on ``pool``, then score on ``fold``: the plan ``run_cell`` takes, judged when built.

    A pool id outside the fold's training side, which would leak the held-out
    domain, or a pool with no step after its warmup raises ``EvalError``.
    """

    fold: Fold
    model_cfg: M.ModelConfig
    pretrain_cfg: R.TrainConfig | None  # None: nothing pretrains
    pool: list  # the training ids pretraining reads, in pool order

    def __post_init__(self):
        if not set(self.pool) <= set(self.fold.train_ids):
            raise EvalError(f"pretraining pool holds clips outside the training side of {self.fold.split}")
        if self.pretrain_cfg is not None:
            _judge_budget("pretraining pool", self.pool, self.pretrain_cfg)


def run_fold(
    manifest: D.DatasetManifest, store_dir, fold: Fold, regimes, model_cfg: M.ModelConfig, checkpoint: dict | None = None
) -> list:
    """Score each regime on one planned fold -> its ``EvalResult``s.

    lp and ft start from ``checkpoint``, params of ``model_cfg``.  Each
    regime trains at ``fold.train_cfg`` on the fold's labeled clips and
    sizes its head by ``fold.head_cfg``; test clips of any other class
    count in ``n_excluded``.  Only the labeled clips and the test clips
    load, and they are held, once, for the whole fold.
    """
    labeled = D.load_clips(store_dir, manifest, [e.clip_id for e in fold.labeled])
    test_clips = D.load_clips(store_dir, manifest, fold.test_ids)
    ckpt = None if checkpoint is None else (checkpoint, model_cfg)
    split = fold.split
    desc = {"protocol": split.protocol, "domain_key": split.domain_key, "held_out_value": split.held_out_value}
    return [
        run_regime(regime, ckpt, labeled, test_clips, fold.head_cfg, fold.train_cfg, model_cfg, split_desc=desc)
        for regime in regimes
    ]


def run_cell(manifest: D.DatasetManifest, store_dir, cell: Cell, regimes) -> tuple:
    """``training.pretrain`` on the pool's sub-manifest, in pool order, then ``run_fold`` from that encoder.

    Returns (the pretraining ``training.FitResult``, or None when the cell
    pretrains nothing, and the ``EvalResult`` list).
    """
    if cell.pretrain_cfg is None:
        return None, run_fold(manifest, store_dir, cell.fold, regimes, cell.model_cfg)
    pool = D.DatasetManifest([manifest.by_id(i) for i in cell.pool])
    pretrained = R.pretrain(pool, store_dir, cell.model_cfg, cell.pretrain_cfg)
    return pretrained, run_fold(manifest, store_dir, cell.fold, regimes, cell.model_cfg, pretrained.params)


def cross_domain_cells(
    manifest: D.DatasetManifest, domain_key: str, regimes, model_cfg: M.ModelConfig, train_cfg: R.TrainConfig,
    pretrain_cfg: R.TrainConfig, label_fraction: float,
) -> list:
    """The planned leave-one-domain-out ``Cell`` of each ``data.domain_values`` entry.

    ``regimes`` must be distinct ``REGIMES``.  A cell pretrains on its
    fold's whole training side, and only for lp or ft; one that cannot
    train raises ``EvalError`` naming its fold.  Nothing loads or trains.
    """
    if set(regimes) - set(REGIMES) or len(set(regimes)) != len(regimes):
        raise EvalError(f"regimes must be distinct ones of {', '.join(REGIMES)}, got {', '.join(regimes)}")
    pretrain_cfg = pretrain_cfg if {"lp", "ft"} & set(regimes) else None
    cells = []
    for value in D.domain_values(manifest, domain_key):
        split = D.SplitSpec("leave_one_domain_out", domain_key, value, seed=train_cfg.seed)
        try:
            fold = plan_fold(manifest, split, train_cfg, label_fraction)
            cells.append(Cell(fold, model_cfg, pretrain_cfg, fold.train_ids))
        except EvalError as e:
            raise EvalError(f"fold {domain_key}={value} cannot train: {e}") from e
    return cells


def macro_average(records) -> dict:
    """Mean accuracy per regime across folds, over ``EvalResult.to_json`` records."""
    by_regime = {}
    for r in records:
        by_regime.setdefault(r["regime"], []).append(r["accuracy"])
    return {k: float(np.mean(v)) for k, v in sorted(by_regime.items())}
