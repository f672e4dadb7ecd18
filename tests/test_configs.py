"""Every config, spec and data record checks itself when built, so none can exist invalid,
and all but two are frozen, so none can be made invalid afterwards."""

import dataclasses
import importlib
import inspect
import pkgutil

import numpy as np
import pytest

import csimae
from csimae import data as D
from csimae import evaluate as E
from csimae import harmonize as H
from csimae import mae as M
from csimae import qc as Q
from csimae import scaling as L
from csimae import synth as S
from csimae import training as R

NAN, INF = float("nan"), float("inf")

RECORDING = {
    "data": np.zeros((10, 3, 1, 30), dtype=complex),
    "sampling_rate": 100.0,
    "center_frequency": 5e9,
    "bandwidth": 20e6,
    "n_recv": 1,
    "n_apr": 3,
}
CLIP = {"data": np.zeros((600, 90), dtype=np.float32), "labels": {}, "provenance": D.Provenance("src", 0, 0, 0, 0)}
ENTRY = {"clip_id": "src/t0/r0/c0/w0", "shard_path": "shard-0000.bin", "byte_offset": 0, "labels": {},
         "provenance": D.Provenance("src", 0, 0, 0, 0)}
DESK_MODEL = {"variant": "tiny", "patch_time": 100, "patch_freq": 15}  # 36 patches

# (class, the fields of a valid instance, one bad field and value, the error its module raises, what its message says)
CONFIGS = [
    (R.TrainConfig, {}, ("batch_size", 0), R.TrainError, "batch_size"),
    (H.HarmonizeConfig, {}, ("stride_seconds", 0.0), H.HarmonizeError, "stride_seconds"),
    (Q.QcConfig, {}, ("outlier_k", 0.0), ValueError, "outlier_k"),
    (D.SplitSpec, {"protocol": "in_domain_8020"}, ("protocol", "nope"), D.SplitError, "protocol"),
    (E.HeadConfig, {"n_classes": 2}, ("n_classes", 1), E.EvalError, "n_classes"),
    (L.SweepSpec, {"axis": "mask_ratio", "values": [0.5, 0.75]}, ("seeds", [0, 0]), L.SweepError, "seeds"),
    (S.SynthTaskSpec, {}, ("clips_per_cell", 0), S.SceneError, "clips_per_cell"),
    (S.SceneSpec, {"paths": [S.PathComponent(1 + 0j, 0.0, 0.0)]}, ("paths", []), S.SceneError, "paths"),
    (S.PathComponent, {"gain": 1 + 0j, "delay": 0.0, "doppler": 0.0}, ("delay", -1e-9), S.SceneError, "delay"),
    # non-finite and empty values; each names its field
    (R.TrainConfig, {}, ("peak_lr", NAN), R.TrainError, "peak_lr"),
    (R.TrainConfig, {}, ("peak_lr", INF), R.TrainError, "peak_lr"),
    (R.TrainConfig, {}, ("weight_decay", -0.1), R.TrainError, "weight_decay"),
    (R.TrainConfig, {}, ("weight_decay", NAN), R.TrainError, "weight_decay"),
    (Q.QcConfig, {}, ("outlier_k", NAN), ValueError, "outlier_k"),
    (Q.QcConfig, {}, ("outlier_k", INF), ValueError, "outlier_k"),
] + [
    (S.SynthTaskSpec, {}, (name, 0), S.SceneError, name)
    for name in ("n_classes", "n_environments", "n_subjects", "n_bands", "n_devices", "n_packets", "n_f")
] + [
    # a mask ratio whose floor(ratio * n_patches) is 0 masks nothing
    (M.ModelConfig, DESK_MODEL, ("mask_ratio", 0.01), M.ModelError, "mask_ratio"),
] + [
    # integer fields refuse floats and bools
    (R.TrainConfig, {}, (name, value), R.TrainError, name)
    for name, value in (("warmup_steps", 1.0), ("batch_size", 2.5), ("early_stop_patience", True),
                        ("max_epochs", 2.0), ("seed", 0.5))
] + [
    (S.SynthTaskSpec, {}, (name, 1.5), S.SceneError, name)
    for name in ("n_classes", "n_environments", "n_subjects", "n_bands", "n_devices", "clips_per_cell", "n_packets", "n_f")
] + [
    (S.SynthTaskSpec, {}, ("n_classes", True), S.SceneError, "n_classes"),
] + [
    # data records: the error and message their readers pass on
    (D.ChannelRecording, RECORDING, ("bandwidth", 33e6), D.DataError, "bandwidth"),
    (D.ChannelRecording, RECORDING, ("n_apr", 2), D.DataError, "n_rx"),
    (D.ChannelRecording, RECORDING, ("sampling_rate", 0.0), D.DataError, "sampling_rate"),
    (D.ChannelRecording, RECORDING, ("data", np.zeros((10, 3, 30), dtype=complex)), D.DataError, "4-D"),
    (D.ChannelRecording, RECORDING, ("data", np.zeros((10, 3, 1, 0), dtype=complex)), D.DataError, "subcarrier"),
    (D.CsiClip, CLIP, ("data", np.zeros((10, 90), dtype=np.float32)), D.DataError, r"src/t0/r0/c0/w0: shape"),
    (D.CsiClip, CLIP, ("data", np.zeros((600, 90))), D.DataError, "dtype float64"),
    (D.CsiClip, CLIP, ("data", np.full((600, 90), np.nan, dtype=np.float32)), D.DataError, "null sentinels"),
    (D.ManifestEntry, ENTRY, ("byte_offset", -1), D.DataError, "^byte_offset -1 is not a non-negative integer$"),
    (D.ManifestEntry, ENTRY, ("byte_offset", "0"), D.DataError, "^byte_offset '0' is not a non-negative integer$"),
    (D.ManifestEntry, ENTRY, ("byte_offset", False), D.DataError, "byte_offset"),
    (D.ManifestEntry, ENTRY, ("clip_id", 7), D.DataError, "^clip_id 7 is not a string$"),
    (D.ManifestEntry, ENTRY, ("shard_path", None), D.DataError, "^shard_path None is not a string$"),
    (D.ManifestEntry, ENTRY, ("labels", ["c0"]), D.DataError, r"^labels \['c0'\] is not an object$"),
]


def _id(value):
    return f"{value.dtype}{list(value.shape)}" if isinstance(value, np.ndarray) else repr(value)


# the first case of a class is named for it alone, the others for their field and value too
IDS = []
for cls, _, (name, value), _, _ in CONFIGS:
    IDS.append(cls.__name__ if cls.__name__ not in IDS else f"{cls.__name__}-{name}={_id(value)}")


@pytest.mark.parametrize("cls, valid, bad, error, message", CONFIGS, ids=IDS)
def test_a_config_cannot_be_built_invalid(cls, valid, bad, error, message):
    name, value = bad
    with pytest.raises(error, match=message):
        cls(**{**valid, name: value})
    with pytest.raises(error, match=message):
        dataclasses.replace(cls(**valid), **{name: value})


def _dataclasses() -> set:
    """Every dataclass that a ``csimae`` module defines."""
    modules = [importlib.import_module(f"csimae.{m.name}") for m in pkgutil.iter_modules(csimae.__path__)]
    return {
        cls
        for module in modules
        for _, cls in inspect.getmembers(module, inspect.isclass)
        if dataclasses.is_dataclass(cls) and cls.__module__ == module.__name__
    }


def test_no_dataclass_keeps_a_validate_method():
    classes = _dataclasses()
    assert {D.ChannelRecording, D.CsiClip, D.ManifestEntry, M.ModelConfig, R.TrainConfig} <= classes
    assert [cls.__qualname__ for cls in classes if hasattr(cls, "validate")] == []


def test_every_dataclass_but_the_recording_is_frozen():
    classes = _dataclasses()
    mutable = {D.ChannelRecording}
    assert mutable | {Q.WindowQc, Q.QcReport, D.DatasetManifest, M.ModelConfig, E.Fold, E.Cell, R.RunMetrics} <= classes
    for cls in classes - mutable:
        instance = object.__new__(cls)  # unbuilt, so only the frozen check can refuse the assignment
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(instance, dataclasses.fields(cls)[0].name, None)
    assert [cls.__qualname__ for cls in mutable if cls.__dataclass_params__.frozen] == []
