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

# (class, the fields of a valid instance, one bad field and value, the error its module raises)
CONFIGS = [
    (R.TrainConfig, {}, ("batch_size", 0), R.TrainError),
    (H.HarmonizeConfig, {}, ("stride_seconds", 0.0), H.HarmonizeError),
    (Q.QcConfig, {}, ("outlier_k", 0.0), ValueError),
    (D.SplitSpec, {"protocol": "in_domain_8020"}, ("protocol", "nope"), D.SplitError),
    (E.HeadConfig, {"n_classes": 2}, ("n_classes", 1), E.EvalError),
    (L.SweepSpec, {"axis": "mask_ratio", "values": [0.5, 0.75]}, ("seeds", [0, 0]), L.SweepError),
    (S.SynthTaskSpec, {}, ("clips_per_cell", 0), S.SceneError),
    (S.SceneSpec, {"paths": [S.PathComponent(1 + 0j, 0.0, 0.0)]}, ("paths", []), S.SceneError),
    (S.PathComponent, {"gain": 1 + 0j, "delay": 0.0, "doppler": 0.0}, ("delay", -1e-9), S.SceneError),
]


@pytest.mark.parametrize("cls, valid, bad, error", CONFIGS, ids=[c[0].__name__ for c in CONFIGS])
def test_a_config_cannot_be_built_invalid(cls, valid, bad, error):
    name, value = bad
    assert not hasattr(cls, "validate")
    with pytest.raises(error):
        cls(**{**valid, name: value})
    with pytest.raises(error):
        dataclasses.replace(cls(**valid), **{name: value})
