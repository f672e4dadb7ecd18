"""Every config and spec dataclass checks itself when built, so none can exist invalid."""

import dataclasses

import pytest

from csimae import data as D
from csimae import evaluate as E
from csimae import harmonize as H
from csimae import qc as Q
from csimae import scaling as L
from csimae import synth as S
from csimae import training as R

NAN, INF = float("nan"), float("inf")

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
]
# the first case of a class is named for it alone, the others for their field and value too
IDS = []
for cls, _, (name, value), _, _ in CONFIGS:
    IDS.append(cls.__name__ if cls.__name__ not in IDS else f"{cls.__name__}-{name}={value}")


@pytest.mark.parametrize("cls, valid, bad, error, message", CONFIGS, ids=IDS)
def test_a_config_cannot_be_built_invalid(cls, valid, bad, error, message):
    name, value = bad
    assert not hasattr(cls, "validate")
    with pytest.raises(error, match=message):
        cls(**{**valid, name: value})
    with pytest.raises(error, match=message):
        dataclasses.replace(cls(**valid), **{name: value})
