"""Named-tensor checkpoint container.

Layout: magic, format version, a JSON block holding the model config and
optional metadata, then each tensor (sorted by name) as
name / ndim / dims / float32 little-endian payload.  Sorting plus fixed
endianness makes checkpoints bit-reproducible.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

from . import tensors as T
from .data import _read_exact
from .mae import ModelConfig, param_layout

_MAGIC = b"CSICKPT1"


class CheckpointError(ValueError):
    pass


def save_checkpoint(path, params: dict, config: ModelConfig, extra: dict | None = None) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    meta = {"config": config.to_json(), "extra": extra or {}}
    blob = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<II", len(blob), len(params)))
        fh.write(blob)
        for name in sorted(params):
            arr = np.ascontiguousarray(params[name].data, dtype="<f4")
            nb = name.encode("utf-8")
            fh.write(struct.pack("<II", len(nb), arr.ndim))
            fh.write(nb)
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.tobytes())
    return path


def load_checkpoint(path) -> tuple:
    """Returns (params dict of trainable float32 Tensors, ModelConfig, extra dict).

    A file that ends before its declared contents, whose metadata is not
    UTF-8 JSON describing a ``ModelConfig``, or whose tensor names and
    shapes are not the model layout of that config raises ``CheckpointError``.
    """
    try:
        with open(path, "rb") as fh:
            if fh.read(8) != _MAGIC:
                raise CheckpointError("not a checkpoint file")
            blob_len, n_tensors = struct.unpack("<II", _read_exact(fh, 8, "header"))
            blob = _read_exact(fh, blob_len, "metadata")
            try:
                meta = json.loads(blob.decode("utf-8"))
                config, extra = ModelConfig.from_json(meta["config"]), meta["extra"]
            except (ValueError, TypeError, KeyError) as exc:
                raise CheckpointError(f"metadata is not a UTF-8 JSON model config ({exc})") from None
            params = {}
            for _ in range(n_tensors):
                name_len, ndim = struct.unpack("<II", _read_exact(fh, 8, "tensor header"))
                name = _read_exact(fh, name_len, "tensor name").decode("utf-8")
                shape = struct.unpack(f"<{ndim}I", _read_exact(fh, 4 * ndim, f"shape of {name}"))
                payload = _read_exact(fh, math.prod(shape) * 4, f"payload of {name}")
                arr = np.frombuffer(payload, dtype="<f4").reshape(shape)
                params[name] = T.Tensor(arr.astype(np.float32), requires_grad=True)
            _check_layout(params, config)
    except ValueError as exc:  # DataError from a short read, CheckpointError, a name that is not UTF-8
        raise CheckpointError(f"{path}: {exc}") from None
    return params, config, extra


def _check_layout(params: dict, config: ModelConfig):
    want = {name: shape for name, shape, _ in param_layout(config)}
    got = {name: t.shape for name, t in params.items()}
    bad = sorted(n for n in want.keys() | got.keys() if want.get(n) != got.get(n))
    if bad:
        diffs = ", ".join(f"{n} {got.get(n, 'missing')} where the config has {want.get(n, 'none')}" for n in bad[:3])
        raise CheckpointError(f"{len(bad)} tensor(s) differ from the model config's layout: {diffs}")


def clone_params(params: dict) -> dict:
    """Trainable copies of every tensor in ``params``."""
    return {k: T.Tensor(v.data.copy(), requires_grad=True) for k, v in params.items()}
