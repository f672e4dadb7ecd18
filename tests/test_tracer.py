"""The benchmark tracer still finds, wraps and restores every library attribute it times."""

import ast
import importlib.util
import inspect
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


def test_every_public_engine_op_is_called_by_the_library_or_timed_by_the_tracer():
    # the engine's op set is the model's: an op neither src nor the bench reaches is dead code
    called = set()
    for path in Path(T.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "T":
                called.add(node.attr)
            elif isinstance(node, ast.Name) and path.name == "tensors.py":
                called.add(node.id)
    public = {n for n, f in vars(T).items() if inspect.isfunction(f) and f.__module__ == T.__name__ and n[0] != "_"}
    unreached = public - called - set(load_tracer().OP_GROUPS) - {"grad_check", "tape", "as_tensor"}
    assert not unreached, sorted(unreached)
