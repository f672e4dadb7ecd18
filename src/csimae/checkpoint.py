"""Named-tensor checkpoint container.

A checkpoint is a ``data`` tensor file: its metadata holds the model
config, optional extra metadata and the sorted tensor names, and one
float32 record follows per name.  Sorting plus the codec's fixed
endianness makes checkpoints bit-reproducible.  Checkpoints written in
the earlier layout, with its own per-tensor framing, no longer load.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from . import data as D
from . import tensors as T
from .mae import ModelConfig, param_layout

_MAGIC = b"CSICKPT2"


class CheckpointError(ValueError):
    pass


def save_checkpoint(path, params: dict, config: ModelConfig, extra: dict | None = None) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    names = sorted(params)
    meta = {"config": config.to_json(), "extra": extra or {}, "names": names}
    return D.write_tensor_file(path, _MAGIC, meta, [np.asarray(params[n].data, dtype="<f4") for n in names])


def load_checkpoint(path) -> tuple:
    """Returns (params dict of trainable float32 Tensors, ModelConfig, extra dict).

    A file that is no intact tensor file of this kind, whose metadata does
    not describe a ``ModelConfig`` and one distinct name per float32 record,
    or whose tensor names and shapes are not the model layout of that
    config raises ``CheckpointError``.
    """
    try:
        meta, arrays = D.read_tensor_file(path, _MAGIC)
    except D.DataError as exc:
        raise CheckpointError(str(exc)) from None
    try:
        return _unpack(meta, arrays)
    except CheckpointError as exc:
        raise CheckpointError(f"{path}: {exc}") from None


def _unpack(meta: dict, arrays: list) -> tuple:
    try:
        config, extra, names = ModelConfig.from_json(meta["config"]), meta["extra"], meta["names"]
    except (ValueError, TypeError, KeyError) as exc:
        raise CheckpointError(f"metadata is not a model config, extra and names ({exc})") from None
    if not (isinstance(names, list) and all(isinstance(n, str) for n in names) and len(set(names)) == len(names)):
        raise CheckpointError("tensor names are not distinct strings")
    if len(names) != len(arrays):
        raise CheckpointError(f"{len(names)} tensor names for {len(arrays)} records")
    not_f4 = [n for n, a in zip(names, arrays) if a.dtype != np.float32]
    if not_f4:
        raise CheckpointError(f"tensor(s) not float32: {', '.join(not_f4[:3])}")
    params = {n: T.Tensor(a, requires_grad=True) for n, a in zip(names, arrays)}
    _check_layout(params, config)
    return params, config, extra


def _check_layout(params: dict, config: ModelConfig):
    want = {name: shape for name, shape, _ in param_layout(config)}
    got = {name: t.shape for name, t in params.items()}
    bad = sorted(n for n in want.keys() | got.keys() if want.get(n) != got.get(n))
    if bad:
        diffs = ", ".join(f"{n} {got.get(n, 'missing')} where the config has {want.get(n, 'none')}" for n in bad[:3])
        raise CheckpointError(f"{len(bad)} tensor(s) differ from the model config's layout: {diffs}")


def clone_params(params: dict) -> dict:
    """Trainable copies of every tensor in ``params``.

    The library no longer copies params (see ``shared_params``); the bench
    and the tests still call this.
    """
    return {k: T.Tensor(v.data.copy(), requires_grad=True) for k, v in params.items()}


def shared_params(params: dict) -> dict:
    """Trainable tensors over ``params``' own arrays, copying none.

    ``training.adamw_step`` gives each update a fresh array, so training
    these leaves the arrays of ``params`` as they were.
    """
    return {k: T.Tensor(v.data, requires_grad=True) for k, v in params.items()}


def frozen_params(params: dict) -> dict:
    """Graph-free tensors over ``params``' own arrays: a pass run on them records no backward and copies nothing."""
    return {k: T.Tensor(v.data) for k, v in params.items()}
