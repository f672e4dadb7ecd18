"""Every benchmark workload still sets up, runs a trial and passes its own checks against the library."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.fixture(scope="module")
def W():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up by name
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_runs_one_trial_and_passes_its_checks_at_tiny_size(W, tmp_path, name):
    # the benchmark calls the library by name and signature; a change that breaks
    # one of those calls, or an output its checks read, fails here
    wl, _ = W.make(name, 3, tmp_path / "work", size="tiny")
    wl.setup()
    wl.warm()
    trial = wl.trial()
    assert trial.attempted >= 1 and trial.failed == 0 and trial.clips > 0
    assert isinstance(wl.check([trial]), dict)
