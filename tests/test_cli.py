"""CLI wiring: run directories, config precedence, determinism, exit codes."""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from csimae import cli
from csimae import data as D
from csimae import synth as S


MICRO_MODEL = {
    "variant": "custom",
    "enc_layers": 2,
    "enc_dim": 16,
    "enc_heads": 2,
    "dec_layers": 1,
    "dec_dim": 16,
    "dec_heads": 2,
    "patch_time": 150,
    "patch_freq": 18,
    "mask_ratio": 0.75,
}
MICRO_TRAIN = {"warmup_steps": 1, "batch_size": 16, "max_epochs": 2, "val_fraction": 0.2, "seed": 0}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "micro.json"
    cfg.write_text(json.dumps({"sections": {"model": MICRO_MODEL, "train": MICRO_TRAIN}}))
    rc = cli.main(
        [
            "synth-gen",
            "--out",
            str(root / "gen"),
            "--seed",
            "31",
            "--classes",
            "2",
            "--environments",
            "2",
            "--subjects",
            "1",
            "--clips-per-cell",
            "8",
        ]
    )
    assert rc == 0
    return root


def test_synth_gen_outputs(workdir):
    store = workdir / "gen" / "store"
    manifest = D.DatasetManifest.load(store)
    assert len(manifest.entries) == 2 * 2 * 8
    resolved = json.loads((workdir / "gen" / "resolved_config.json").read_text())
    assert resolved["command"] == "synth-gen"
    assert resolved["sections"]["task"]["seed"] == 31
    sums = (workdir / "gen" / "checksums.txt").read_text()
    assert "store/manifest.json" in sums


def test_out_dir_must_be_fresh(workdir):
    rc = cli.main(["synth-gen", "--out", str(workdir / "gen"), "--clips-per-cell", "1"])
    assert rc == 2


def test_unknown_config_keys_rejected(workdir, capsys):
    bad = workdir / "bad.json"
    bad.write_text(json.dumps({"sections": {"train": {"learning_rate_typo": 1, "bogus": 2}}}))
    rc = cli.main(
        ["pretrain", "--store", str(workdir / "gen" / "store"), "--out", str(workdir / "bad-run"), "--config", str(bad)]
    )
    assert rc == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert "bogus" in err["message"] and "learning_rate_typo" in err["message"]


def test_pretrain_and_downstream_flow(workdir):
    store = str(workdir / "gen" / "store")
    cfg = str(workdir / "micro.json")
    rc = cli.main(["pretrain", "--store", store, "--out", str(workdir / "pt"), "--config", cfg])
    assert rc == 0
    ckpt = workdir / "pt" / "checkpoint.ckpt"
    assert ckpt.exists()
    assert (workdir / "pt" / "metrics.jsonl").exists()
    assert (workdir / "pt" / "timing.jsonl").exists()

    rc = cli.main(
        [
            "finetune",
            "--store",
            store,
            "--out",
            str(workdir / "ft"),
            "--config",
            cfg,
            "--checkpoint",
            str(ckpt),
            "--held-out",
            "env1",
        ]
    )
    assert rc == 0
    result = json.loads((workdir / "ft" / "result.json").read_text())
    assert result["regime"] == "ft" and 0.0 <= result["accuracy"] <= 1.0

    rc = cli.main(
        [
            "probe",
            "--store",
            store,
            "--out",
            str(workdir / "lp"),
            "--config",
            cfg,
            "--checkpoint",
            str(ckpt),
            "--held-out",
            "env1",
        ]
    )
    assert rc == 0

    rc = cli.main(
        [
            "supervised",
            "--store",
            store,
            "--out",
            str(workdir / "sup"),
            "--config",
            cfg,
            "--held-out",
            "env1",
        ]
    )
    assert rc == 0
    assert json.loads((workdir / "sup" / "result.json").read_text())["regime"] == "supervised"


def test_probe_without_checkpoint_fails(workdir, capsys):
    rc = cli.main(
        [
            "probe",
            "--store",
            str(workdir / "gen" / "store"),
            "--out",
            str(workdir / "lp-fail"),
            "--config",
            str(workdir / "micro.json"),
            "--held-out",
            "env1",
        ]
    )
    assert rc == 2
    assert "checkpoint" in capsys.readouterr().err


def test_pretrain_runs_are_bit_identical(workdir):
    store = str(workdir / "gen" / "store")
    cfg = str(workdir / "micro.json")
    assert cli.main(["pretrain", "--store", store, "--out", str(workdir / "detA"), "--config", cfg]) == 0
    assert cli.main(["pretrain", "--store", store, "--out", str(workdir / "detB"), "--config", cfg]) == 0
    a = (workdir / "detA" / "metrics.jsonl").read_bytes()
    b = (workdir / "detB" / "metrics.jsonl").read_bytes()
    assert a == b
    assert (workdir / "detA" / "checkpoint.ckpt").read_bytes() == (workdir / "detB" / "checkpoint.ckpt").read_bytes()


def test_run_reproducible_from_resolved_config(workdir):
    store = str(workdir / "gen" / "store")
    resolved = str(workdir / "detA" / "resolved_config.json")
    assert cli.main(["pretrain", "--store", store, "--out", str(workdir / "detC"), "--config", resolved]) == 0
    assert (workdir / "detC" / "metrics.jsonl").read_bytes() == (workdir / "detA" / "metrics.jsonl").read_bytes()


def test_harmonize_command(workdir):
    rng = np.random.default_rng(0)
    scene = S.SceneSpec(
        paths=[S.PathComponent(1.0, 20e-9, 5.0)],
        noise_std=0.02,
        n_t=600,
        sampling_rate=200.0,
        seed=1,
    )
    rec = S.simulate_cfr(scene)
    rec.labels = {"class": "c0", "environment": "env0"}
    rec.source_id = "cli-rec"
    rec_path = workdir / "rec.csir"
    D.save_recording(rec, rec_path)
    rc = cli.main(["harmonize", "--recordings", str(rec_path), "--out", str(workdir / "harm")])
    assert rc == 0
    manifest = D.DatasetManifest.load(workdir / "harm" / "store")
    assert len(manifest.entries) == 2  # 3 s -> 2 windows, 1 link, 1 channel
    assert (workdir / "harm" / "qc_report.jsonl").exists()


def test_ingest_and_clean_commands(workdir):
    rec_path = workdir / "rec.csir"
    rc = cli.main(["ingest", "--recordings", str(rec_path), "--out", str(workdir / "ing")])
    assert rc == 0
    index = json.loads((workdir / "ing" / "index.json").read_text())
    assert index[0]["source_id"] == "cli-rec"

    rc = cli.main(
        [
            "clean",
            "--store",
            str(workdir / "gen" / "store"),
            "--blocklist",
            "synth-c0e0s0b0d0-0000",
            "--recordings",
            str(rec_path),
            "--out",
            str(workdir / "cln"),
        ]
    )
    assert rc == 0
    filtered = D.DatasetManifest.from_json((workdir / "cln" / "manifest.json").read_text())
    assert "synth-c0e0s0b0d0-0000" not in {e.provenance.source_id for e in filtered.entries}
    assert (workdir / "cln" / "qc_report.jsonl").exists()


def test_grad_check_exit_codes():
    assert cli.main(["grad-check", "--bits", "32"]) == 0
    assert cli.main(["grad-check", "--bits", "64"]) == 0
    assert cli.main(["grad-check", "--bits", "32", "--threshold", "1e-12"]) == 1


THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def test_threads_flag_with_equals_sets_thread_vars(tmp_path, monkeypatch):
    for var in THREAD_VARS:
        monkeypatch.setenv(var, "1")
    row = {"axis": "data_fraction", "value": 0.1, "seed": 0, "accuracy": 0.5, "test_set_hash": "h"}
    (tmp_path / "rows.jsonl").write_text(json.dumps(row) + "\n")
    assert cli.main(["report", "--run-dir", str(tmp_path), "--threads=4"]) == 0
    assert all(os.environ[var] == "4" for var in THREAD_VARS)


@pytest.mark.parametrize("tail", [["--threads"], ["--threads="], ["--threads", "zero"]])
def test_threads_flag_without_value_is_config_error(tmp_path, monkeypatch, capsys, tail):
    for var in THREAD_VARS:
        monkeypatch.setenv(var, "1")
    rc = cli.main(["report", "--run-dir", str(tmp_path)] + tail)
    assert rc == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "config" and "--threads" in err["message"]
    assert all(os.environ[var] == "1" for var in THREAD_VARS)


def test_report_is_idempotent(workdir, tmp_path):
    run = tmp_path / "sweepdir"
    run.mkdir()
    rows = [
        {"axis": "data_fraction", "value": 0.1, "seed": 0, "accuracy": 0.5, "test_set_hash": "h"},
        {"axis": "data_fraction", "value": 1.0, "seed": 0, "accuracy": 0.7, "test_set_hash": "h"},
    ]
    (run / "rows.jsonl").write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    assert cli.main(["report", "--run-dir", str(run)]) == 0
    first = (run / "report.txt").read_text()
    assert cli.main(["report", "--run-dir", str(run)]) == 0
    assert (run / "report.txt").read_text() == first
