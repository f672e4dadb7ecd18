"""The benchmark tracer still finds, wraps and restores every library attribute it times."""

import importlib.util
from pathlib import Path

from csimae import checkpoint as C
from csimae import data as D
from csimae import evaluate as E
from csimae import harmonize as H
from csimae import mae as M
from csimae import qc as Q
from csimae import synth as Y
from csimae import tensors as T
from csimae import training as R

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
OWNERS = (T, M, R, E, C, D, Y, H, Q, T.Tensor, M.MaskedAutoencoder, R.AdamW)


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_against_the_library_and_restores_every_attribute():
    # install() looks each wrapped name up in its owner's __dict__, so a renamed
    # or deleted library function fails here, not only in a traced benchmark run
    tracer_module = load_tracer()
    before = {owner: dict(vars(owner)) for owner in OWNERS}
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        assert all(T.__dict__[op] is not before[T][op] for op in tracer_module.OP_GROUPS)
        assert M.MaskedAutoencoder.__dict__["forward_loss"] is not before[M.MaskedAutoencoder]["forward_loss"]
    finally:
        tracer.uninstall()
    for owner, attrs in before.items():
        now = dict(vars(owner))
        assert now.keys() == attrs.keys(), owner
        assert all(now[k] is v for k, v in attrs.items()), owner
