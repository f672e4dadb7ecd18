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
differ only in where the encoder starts and whether it trains.  A run
gets its encoder as one ``(params or None, ModelConfig)`` pair: linear
probing trains the head on frozen features of its params and never
touches encoder weights; fine-tuning updates encoder and head from them;
supervised starts the encoder from random init of the config.  The
regimes that need the params are ``PRETRAINED_REGIMES``.  Every
regime classifies ``data.LABEL_KEY``, the label ``select_labeled``'s
``data.stratified_draw`` draws the budget over; a task on another label,
such as user identification, would thread its key through ``plan_fold``
into both.

Each clip set is held once.  ``run_fold`` loads only the labeled clips and
the test clips, and every pass over them (training, validation,
prediction, lp's feature pass) builds one batch from the clips' own arrays
when that batch runs.  An item counts as its longest sequence,
``1 + n_patches`` token rows for a clip and one for an lp feature.
Training runs a batch over ``training.STEP_TOKENS`` rows as micro-batches
(``training.fit``).  The graph-free passes, classifier validation, lp's
feature pass and prediction, each run through ``training.frozen_passes``:
on frozen views of the params, so they build no graph, and in slices of
``training.pass_size`` items, which hold at most ``training.PASS_TOKENS``
rows and, for validation and prediction, no more than a batch.
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
PRETRAINED_REGIMES = ("lp", "ft")  # the regimes that start from the encoder's pretrained params


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
    """Graph-free CLS features of ``clips``: ``training.frozen_passes`` of as many clips as ``PASS_TOKENS`` rows hold.

    ``clips`` is an (N, 600, 90) array or a sequence of (600, 90) arrays;
    one pass of them is built at a time, and only the (N, enc_dim)
    features outlive the call.
    """
    def features(sl, p):
        return M.MaskedAutoencoder(model_cfg, params=p).encode_features(_batch(clips, sl)).data

    size = R.pass_size(len(clips), 1 + model_cfg.n_patches)
    return np.concatenate(R.frozen_passes(features, params, len(clips), size), axis=0)


def _class_vocab(labels) -> dict:
    return {name: i for i, name in enumerate(sorted(set(labels)))}


def _labels_of(clips):
    return [c.labels[D.LABEL_KEY] for c in clips]


def train_classifier(forward_fn, params: dict, x_train, y_train, cfg: R.TrainConfig, item_rows: int):
    """Cross-entropy through ``training.fit`` on streams 7/8, keeping the epoch of lowest val loss.

    ``forward_fn(x_batch, params) -> logits Tensor``.  ``x_train`` is an
    array or a sequence of arrays, held as given, each item ``item_rows``
    token rows long: each training micro-batch (``training.fit``) and
    validation pass (``training.pass_size``) is built when it runs and
    dropped after it.  The validation loss is the passes'
    ``training.mean_batch_loss``, which builds no graph.  Returns the run's
    ``training.FitResult``; its ``params`` are the best kept.
    """
    val_idx, fit_idx = R.val_split(len(x_train), cfg, 7)

    def xent(idx, p):
        return T.softmax_cross_entropy(forward_fn(_batch(x_train, idx), p), y_train[idx])

    def batch_loss(idx, epoch):
        return xent(idx, params)

    def val_loss():
        size = R.pass_size(cfg.batch_size, item_rows)
        return R.mean_batch_loss(lambda sl, p: xent(val_idx[sl], p), params, len(val_idx), size)

    return R.fit(params, fit_idx, cfg, 7, batch_loss, val_loss, item_rows)


def predict(forward_fn, params: dict, x, batch_size: int) -> np.ndarray:
    """Argmax class of each item of ``x`` (an array or a sequence of arrays).

    Runs through ``training.frozen_passes`` of ``batch_size`` items, so it
    builds no graph; only the predictions outlive a pass.
    """
    def classes(sl, p):
        return np.argmax(forward_fn(_batch(x, sl), p).data, axis=1)

    return np.concatenate(R.frozen_passes(classes, params, len(x), batch_size))


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
    encoder: tuple,  # (params or None, ModelConfig)
    train_clips,
    test_clips,
    head_cfg: HeadConfig,
    train_cfg: R.TrainConfig,
    split_desc: dict | None = None,
    batch_size: int | None = None,
) -> EvalResult:
    """Train one regime and score exact-match accuracy on the test clips.

    ``encoder`` is the ``(params or None, ModelConfig)`` pair: a regime in
    ``PRETRAINED_REGIMES`` starts from its params and needs them;
    supervised starts from a random init of its config.

    Training, validation and test batches hold at most
    ``train_cfg.batch_size`` items; ``batch_size``, when given, must
    restate it.  An item is a clip of ``1 + n_patches`` token rows, or for
    lp its one-row feature: a training batch over ``training.STEP_TOKENS``
    rows runs as micro-batches, and a validation or test batch, like each
    of lp's feature passes, holds at most ``training.PASS_TOKENS`` rows.
    The clips are held as given, never stacked: each batch is built from
    the clips' own arrays when it runs, and lp's feature pass keeps only
    their features.  ft trains tensors over the encoder's own arrays
    (``checkpoint.shared_params``), which its updates leave as they were.
    Test clips whose class never appears in training are excluded from
    scoring (counted in ``n_excluded``), not scored as wrong; when that
    leaves none, ``EvalError`` is raised before any training.
    """
    enc_params, model_cfg = encoder
    if regime not in REGIMES:
        raise EvalError(f"unknown regime {regime!r}")
    if batch_size not in (None, train_cfg.batch_size):
        raise EvalError(f"batch_size {batch_size} differs from train_cfg.batch_size {train_cfg.batch_size}")
    if regime in PRETRAINED_REGIMES and enc_params is None:
        raise EvalError(f"regime {regime} needs a pretrained checkpoint")

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
        x_train = encode_features(enc_params, model_cfg, x_train)
        x_test = encode_features(enc_params, model_cfg, x_test)
        params, item_rows = {}, 1
        fwd = lambda feats, p: head_forward(T.Tensor(feats), p)
    else:
        item_rows = 1 + model_cfg.n_patches
        if regime == "ft":
            start = C.shared_params(enc_params)
        else:
            start = M.init_params(model_cfg, seed=[train_cfg.seed, 11])
        params = {k: v for k, v in start.items() if k.startswith("enc.")}

        def fwd(clip_batch, p):
            return head_forward(M.MaskedAutoencoder(model_cfg, params=p).encode_features(clip_batch), p)

    params.update(init_head(model_cfg.enc_dim, head_cfg.n_classes, [train_cfg.seed, 12]))
    run = train_classifier(fwd, params, x_train, y_train, train_cfg, item_rows)
    pred = predict(fwd, run.params, x_test, R.pass_size(train_cfg.batch_size, item_rows))

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


def run_fold(manifest: D.DatasetManifest, store_dir, fold: Fold, regimes, encoder: tuple) -> list:
    """Score each regime on one planned fold -> its ``EvalResult``s.

    ``encoder`` is the ``(params or None, ModelConfig)`` pair every regime
    gets (``run_regime``): lp and ft start from its params.  Each regime
    trains at ``fold.train_cfg`` on the fold's labeled clips and
    sizes its head by ``fold.head_cfg``; test clips of any other class
    count in ``n_excluded``.  Only the labeled clips and the test clips
    load, and they are held, once, for the whole fold.
    """
    labeled = D.load_clips(store_dir, manifest, [e.clip_id for e in fold.labeled])
    test_clips = D.load_clips(store_dir, manifest, fold.test_ids)
    split = fold.split
    desc = {"protocol": split.protocol, "domain_key": split.domain_key, "held_out_value": split.held_out_value}
    return [
        run_regime(regime, encoder, labeled, test_clips, fold.head_cfg, fold.train_cfg, split_desc=desc)
        for regime in regimes
    ]


def run_cell(manifest: D.DatasetManifest, store_dir, cell: Cell, regimes) -> tuple:
    """``training.pretrain`` on the pool's sub-manifest, in pool order, then ``run_fold`` from that encoder.

    ``run_fold`` gets ``(pretrained params, cell.model_cfg)``, or
    ``(None, cell.model_cfg)`` when the cell pretrains nothing.  Returns
    (the pretraining ``training.FitResult`` or None, and the
    ``EvalResult`` list).
    """
    pretrained = params = None
    if cell.pretrain_cfg is not None:
        pool = D.DatasetManifest([manifest.by_id(i) for i in cell.pool])
        pretrained = R.pretrain(pool, store_dir, cell.model_cfg, cell.pretrain_cfg)
        params = pretrained.params
    return pretrained, run_fold(manifest, store_dir, cell.fold, regimes, (params, cell.model_cfg))


def cross_domain_cells(
    manifest: D.DatasetManifest, domain_key: str, regimes, model_cfg: M.ModelConfig, train_cfg: R.TrainConfig,
    pretrain_cfg: R.TrainConfig, label_fraction: float,
) -> list:
    """The planned leave-one-domain-out ``Cell`` of each ``data.domain_values`` entry.

    ``regimes`` must be distinct ``REGIMES``.  A cell pretrains on its
    fold's whole training side, and only when a regime is one of
    ``PRETRAINED_REGIMES``; one that cannot train raises ``EvalError``
    naming its fold.  Nothing loads or trains.
    """
    if set(regimes) - set(REGIMES) or len(set(regimes)) != len(regimes):
        raise EvalError(f"regimes must be distinct ones of {', '.join(REGIMES)}, got {', '.join(regimes)}")
    pretrain_cfg = pretrain_cfg if set(PRETRAINED_REGIMES) & set(regimes) else None
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
