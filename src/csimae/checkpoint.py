"""Named-tensor checkpoint container.

Layout: magic, format version, a JSON block holding the model config and
optional metadata, then each tensor (sorted by name) as
name / ndim / dims / float32 little-endian payload.  Sorting plus fixed
endianness makes checkpoints bit-reproducible.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from . import tensors as T
from .mae import ModelConfig

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


def _read_exact(fh, n: int, path, what: str) -> bytes:
    buf = fh.read(n)
    if len(buf) != n:
        raise CheckpointError(f"{path}: truncated in {what} ({len(buf)} of {n} bytes)")
    return buf


def load_checkpoint(path, requires_grad: bool = True) -> tuple:
    """Returns (params dict of float32 Tensors, ModelConfig, extra dict).

    A file that ends before its declared contents raises ``CheckpointError``.
    """
    with open(path, "rb") as fh:
        if fh.read(8) != _MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint file")
        blob_len, n_tensors = struct.unpack("<II", _read_exact(fh, 8, path, "header"))
        meta = json.loads(_read_exact(fh, blob_len, path, "metadata").decode("utf-8"))
        params = {}
        for _ in range(n_tensors):
            name_len, ndim = struct.unpack("<II", _read_exact(fh, 8, path, "tensor header"))
            name = _read_exact(fh, name_len, path, "tensor name").decode("utf-8")
            shape = struct.unpack(f"<{ndim}I", _read_exact(fh, 4 * ndim, path, f"shape of {name}"))
            n = int(np.prod(shape)) * 4
            arr = np.frombuffer(_read_exact(fh, n, path, f"payload of {name}"), dtype="<f4").reshape(shape)
            params[name] = T.Tensor(arr.astype(np.float32), requires_grad=requires_grad)
    return params, ModelConfig.from_json(meta["config"]), meta["extra"]


def clone_params(params: dict, requires_grad: bool = True) -> dict:
    return {k: T.Tensor(v.data.copy(), requires_grad=requires_grad) for k, v in params.items()}


def params_equal(a: dict, b: dict) -> bool:
    return set(a) == set(b) and all(a[k].data.tobytes() == b[k].data.tobytes() for k in a)
