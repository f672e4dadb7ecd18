"""CLI wiring: run directories, config precedence, determinism, exit codes."""

import argparse
import dataclasses
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


def test_truncated_recording_gives_json_error_record(tmp_path, capsys):
    rng = np.random.default_rng(5)
    rec = D.ChannelRecording(
        data=rng.standard_normal((40, 3, 1, 30)) + 0j, sampling_rate=100.0, center_frequency=5e9,
        bandwidth=20e6, n_recv=1, n_apr=3, source_id="cli-cut",
    )
    raw = D.save_recording(rec, tmp_path / "full.csir").read_bytes()
    cut = tmp_path / "cut.csir"
    cut.write_bytes(raw[: len(raw) // 2])
    rc = cli.main(["ingest", "--recordings", str(cut), "--out", str(tmp_path / "out")])
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "DataError" and str(cut) in err["message"] and "truncated" in err["message"]


def _micro_checkpoint(path):
    from csimae import checkpoint as C
    from csimae import mae as M

    cfg = M.ModelConfig(**MICRO_MODEL)
    return C.save_checkpoint(path, M.init_params(cfg, seed=3), cfg)


def test_corrupt_checkpoint_gives_checkpoint_error_record(workdir, tmp_path, capsys):
    ckpt = _micro_checkpoint(tmp_path / "m.ckpt")
    raw = bytearray(ckpt.read_bytes())
    raw[16] = 0xFF  # first byte of the JSON block
    ckpt.write_bytes(bytes(raw))
    rc = cli.main(
        ["finetune", "--store", str(workdir / "gen" / "store"), "--out", str(tmp_path / "ft"),
         "--config", str(workdir / "micro.json"), "--checkpoint", str(ckpt), "--held-out", "env1"]
    )
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "CheckpointError" and str(ckpt) in err["message"]


def test_checkpoint_missing_a_tensor_gives_checkpoint_error_record(workdir, tmp_path, capsys):
    from csimae import checkpoint as C
    from csimae import mae as M

    cfg = M.ModelConfig(**MICRO_MODEL)
    params = M.init_params(cfg, seed=3)
    del params["enc.cls"]
    ckpt = C.save_checkpoint(tmp_path / "m.ckpt", params, cfg)
    rc = cli.main(
        ["probe", "--store", str(workdir / "gen" / "store"), "--out", str(tmp_path / "lp"),
         "--config", str(workdir / "micro.json"), "--checkpoint", str(ckpt), "--held-out", "env1"]
    )
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "CheckpointError" and str(ckpt) in err["message"] and "enc.cls" in err["message"]


def test_corrupt_manifest_gives_data_error_record(workdir, tmp_path, capsys):
    bad = tmp_path / "manifest.json"
    bad.write_text("{not json")
    rc = cli.main(
        ["pretrain", "--store", str(workdir / "gen" / "store"), "--manifest", str(bad), "--out", str(tmp_path / "pt"),
         "--config", str(workdir / "micro.json")]
    )
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "DataError" and str(bad) in err["message"] and "not a clip manifest" in err["message"]


def test_manifest_entry_of_the_wrong_type_gives_data_error_record(workdir, tmp_path, capsys):
    doc = json.loads((workdir / "gen" / "store" / "manifest.json").read_text())
    doc["entries"][0]["byte_offset"] = "0"
    bad = tmp_path / "manifest.json"
    bad.write_text(json.dumps(doc))
    rc = cli.main(
        ["pretrain", "--store", str(workdir / "gen" / "store"), "--manifest", str(bad), "--out", str(tmp_path / "pt"),
         "--config", str(workdir / "micro.json")]
    )
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "DataError"
    assert err["message"] == f"{bad}: not a clip manifest (entry 0: byte_offset '0' is not a non-negative integer)"


def test_rejected_probe_step_is_written_to_result_json(workdir, tmp_path, monkeypatch):
    from csimae import training as R

    ckpt = _micro_checkpoint(tmp_path / "m.ckpt")
    real, calls = R.adamw_step, []

    def refuse_first(params, grads, state, lr, config):
        calls.append(lr)
        return False if len(calls) == 1 else real(params, grads, state, lr, config)

    monkeypatch.setattr(R, "adamw_step", refuse_first)
    rc = cli.main(
        ["probe", "--store", str(workdir / "gen" / "store"), "--out", str(tmp_path / "lp"),
         "--config", str(workdir / "micro.json"), "--checkpoint", str(ckpt), "--held-out", "env1"]
    )
    assert rc == 0 and len(calls) > 1
    result = json.loads((tmp_path / "lp" / "result.json").read_text())
    assert result["rejected_steps"] == 1 and result["aborted"] is False


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


# ---------------------------------------------------------------------
# pinned behaviour of the result-producing commands (batch size passed as a
# flag, so it does not depend on how a file's train.batch_size is merged)

BATCH = ["--batch-size", "16"]


@pytest.fixture(scope="module")
def pinned(workdir):
    """One checkpoint, finetune, eval-cross-domain and sweep run on the micro store."""
    store = str(workdir / "gen" / "store")
    cfg = str(workdir / "micro.json")
    runs = workdir / "pinned"
    assert cli.main(["pretrain", "--store", store, "--out", str(runs / "pt"), "--config", cfg]) == 0
    ckpt = str(runs / "pt" / "checkpoint.ckpt")
    ft = ["finetune", "--store", store, "--checkpoint", ckpt, "--held-out", "env1"] + BATCH
    xd = ["eval-cross-domain", "--store", store] + BATCH
    sw = ["sweep", "--store", store, "--axis", "data_fraction", "--values", "[0.5, 1.0]", "--held-out", "env1"] + BATCH
    commands = {"ft": ft, "xd": xd, "sweep": sw}
    for name, argv in commands.items():
        assert cli.main(argv + ["--out", str(runs / name), "--config", cfg]) == 0
    return runs, commands


def test_eval_cross_domain_writes_results_and_macro(pinned):
    runs, _ = pinned
    records = [json.loads(line) for line in (runs / "xd" / "results.jsonl").read_text().splitlines()]
    assert len(records) == 2 * 3  # two environment folds x three regimes
    macro = json.loads((runs / "xd" / "macro.json").read_text())
    assert set(macro) == {"ft", "lp", "supervised"}
    for regime, acc in macro.items():
        assert acc == pytest.approx(np.mean([r["accuracy"] for r in records if r["regime"] == regime]), abs=1e-12)


def test_report_over_results_prints_macro_accuracies(pinned, capsys):
    runs, _ = pinned
    capsys.readouterr()
    assert cli.main(["report", "--run-dir", str(runs / "xd")]) == 0
    header, *rows = capsys.readouterr().out.strip().splitlines()
    assert header.split() == ["regime", "folds", "macro_acc"]
    macro = json.loads((runs / "xd" / "macro.json").read_text())
    assert {r.split()[0]: r.split()[2] for r in rows} == {k: f"{v:.4f}" for k, v in macro.items()}
    assert {r.split()[1] for r in rows} == {"2"}


def test_sweep_writes_rows_on_one_test_set(pinned):
    runs, _ = pinned
    rows = [json.loads(line) for line in (runs / "sweep" / "rows.jsonl").read_text().splitlines()]
    assert [r["value"] for r in rows] == [0.5, 1.0]
    assert len({r["test_set_hash"] for r in rows}) == 1
    assert (runs / "sweep" / "summary.txt").read_text().startswith("           value")


@pytest.mark.parametrize(
    "name, files",
    [("ft", ["result.json"]), ("xd", ["results.jsonl", "macro.json"]), ("sweep", ["rows.jsonl", "summary.txt"])],
)
def test_result_runs_reproducible_from_resolved_config(pinned, name, files):
    runs, commands = pinned
    resolved = str(runs / name / "resolved_config.json")
    assert cli.main(commands[name] + ["--out", str(runs / f"{name}-again"), "--config", resolved]) == 0
    for f in files:
        assert (runs / f"{name}-again" / f).read_bytes() == (runs / name / f).read_bytes()


def _faulty_recording(path, n_t=700):
    """3.5 s at 200 Hz with a dead stretch and spikes, so QC has work to do."""
    scene = S.SceneSpec(paths=[S.PathComponent(1.0, 20e-9, 5.0)], noise_std=0.02, n_t=n_t, sampling_rate=200.0, seed=4)
    rec = S.simulate_cfr(scene)
    rec.labels = {"class": "c0", "environment": "env0"}
    rec.source_id = "qc-rec"
    rec.data[20:60] = np.nan
    rec.data[450, :, :, 3] *= 40.0
    return D.save_recording(rec, path)


def test_clean_and_harmonize_write_the_same_qc_report(tmp_path):
    rec = str(_faulty_recording(tmp_path / "rec.csir"))
    cfg = tmp_path / "qc.json"
    cfg.write_text(json.dumps({"sections": {"harmonize": {"window_seconds": 1.5}, "qc": {"outlier_k": 2.5}}}))
    assert cli.main(["clean", "--recordings", rec, "--out", str(tmp_path / "cln"), "--config", str(cfg)]) == 0
    assert cli.main(["harmonize", "--recordings", rec, "--out", str(tmp_path / "harm"), "--config", str(cfg)]) == 0
    report = (tmp_path / "cln" / "qc_report.jsonl").read_bytes()
    assert report == (tmp_path / "harm" / "qc_report.jsonl").read_bytes()
    assert json.loads(report)["n_windows"] == 3  # 1.5 s windows at 1 s stride over 3.5 s


# ---------------------------------------------------------------------
# one path from flags and config file to configs and the run record


def test_file_batch_size_beats_the_downstream_default_and_a_flag_beats_the_file(pinned):
    runs, _ = pinned
    store = str(runs.parent / "gen" / "store")
    ckpt = str(runs / "pt" / "checkpoint.ckpt")
    argv = ["finetune", "--store", store, "--checkpoint", ckpt, "--held-out", "env1", "--config"]
    assert cli.main(argv + [str(runs.parent / "micro.json"), "--out", str(runs / "bs-file")]) == 0
    resolved = json.loads((runs / "bs-file" / "resolved_config.json").read_text())
    assert resolved["sections"]["train"]["batch_size"] == 16
    assert cli.main(argv + [str(runs.parent / "micro.json"), "--out", str(runs / "bs-flag"), "--batch-size", "8"]) == 0
    resolved = json.loads((runs / "bs-flag" / "resolved_config.json").read_text())
    assert resolved["sections"]["train"]["batch_size"] == 8


@pytest.mark.parametrize("command", ["finetune", "probe", "supervised", "eval-cross-domain", "sweep"])
@pytest.mark.parametrize("flag, want", [([], 16), (["--batch-size", "8"], 8)], ids=["file", "flag"])
def test_downstream_runs_train_at_the_batch_size_they_record(pinned, tmp_path, monkeypatch, command, flag, want):
    from csimae import training as R

    runs, _ = pinned
    ckpt = str(runs / "pt" / "checkpoint.ckpt")
    argv = {
        "finetune": ["--checkpoint", ckpt, "--held-out", "env1"],
        "probe": ["--checkpoint", ckpt, "--held-out", "env1"],
        "supervised": ["--held-out", "env1"],
        "eval-cross-domain": ["--regimes", "supervised"],
        "sweep": ["--axis", "data_fraction", "--values", "[0.5, 1.0]", "--held-out", "env1"],
    }[command]
    real, seen = R.fit, []

    def spy(params, fit_idx, cfg, stream, *rest, **kw):
        if stream == 7:  # the classifier's stream; pretraining runs on stream 1
            seen.append(cfg.batch_size)
        return real(params, fit_idx, cfg, stream, *rest, **kw)

    monkeypatch.setattr(R, "fit", spy)
    out = tmp_path / "out"
    argv = [command, "--store", str(runs.parent / "gen" / "store"), "--config", str(runs.parent / "micro.json")] + argv
    assert cli.main(argv + flag + ["--out", str(out)]) == 0
    assert json.loads((out / "resolved_config.json").read_text())["sections"]["train"]["batch_size"] == want
    assert seen and set(seen) == {want}


def test_clean_reruns_from_its_own_record(tmp_path):
    rec = str(_faulty_recording(tmp_path / "rec.csir"))
    cfg = tmp_path / "qc.json"
    cfg.write_text(json.dumps({"sections": {"harmonize": {"window_seconds": 1.5}}}))
    assert cli.main(["clean", "--recordings", rec, "--out", str(tmp_path / "a"), "--config", str(cfg)]) == 0
    resolved = tmp_path / "a" / "resolved_config.json"
    assert json.loads(resolved.read_text())["sections"]["harmonize"]["window_seconds"] == 1.5
    assert cli.main(["clean", "--recordings", rec, "--out", str(tmp_path / "b"), "--config", str(resolved)]) == 0
    assert (tmp_path / "b" / "qc_report.jsonl").read_bytes() == (tmp_path / "a" / "qc_report.jsonl").read_bytes()


@pytest.mark.parametrize(
    "argv, config",
    [
        (["pretrain", "--lr", "-1"], None),
        (["pretrain", "--mask-ratio", "1.5"], None),
        (["supervised", "--protocol", "nope", "--held-out", "env1"], None),
        (["sweep", "--axis", "nope", "--values", "[0.5, 1.0]", "--held-out", "env1"], None),
        (["sweep", "--axis", "data_fraction", "--values", "[0.5", "--held-out", "env1"], None),
        (["pretrain"], "[1, 2]"),
        (["pretrain"], "{not json"),
        (["pretrain"], "missing"),
        (["eval-cross-domain", "--regimes", "lp,nope"], None),
        (["eval-cross-domain", "--regimes", "supervised,supervised"], None),
        (["supervised", "--held-out", "env9"], None),
        (["supervised"], None),
        (["sweep", "--axis", "data_fraction", "--values", "[0.5, 1.0]", "--held-out", "env9"], None),
        (["sweep", "--axis", "mask_ratio", "--values", "[0.75, 1.5]", "--held-out", "env1"], None),
        (["sweep", "--axis", "patch_size", "--values", "[[150, 18], [7, 7]]", "--held-out", "env1"], None),
        (["sweep", "--axis", "data_fraction", "--values", "[1.0, 0.01]", "--held-out", "env1"], None),
        (["sweep", "--axis", "mask_ratio", "--values", "[0.5, 0.75]", "--seeds", '["a"]', "--held-out", "env1"], None),
        (["eval-cross-domain", "--domain-key", "nope"], None),
        (["supervised", "--held-out", "env1", "--label-fraction", "-3"], None),
        (["supervised", "--held-out", "env1", "--label-fraction", "0"], None),
        (["supervised", "--held-out", "env1", "--label-fraction", "2"], None),
        (["eval-cross-domain", "--label-fraction", "nan"], None),
        (["sweep", "--axis", "mask_ratio", "--values", "[0.5, 0.75]", "--held-out", "env1", "--label-fraction", "1.5"],
         None),
        (["sweep", "--axis", "mask_ratio", "--values", "[0.5, 0.5]", "--held-out", "env1"], None),
        (["pretrain"], '{"train": {"betas": [0.9, 0.95]}}'),
        (["synth-gen"], '{"task": {"band_centers": [6e9]}}'),
        (["supervised", "--held-out", "env1"], '{"trian": {"batch_size": 4}}'),
        (["supervised", "--held-out", "env1", "--checkpoint", "/nonexistent.ckpt"], None),
        (["ingest", "--recordings", "rec.csir"], "{}"),
        (["ingest", "--recordings", "a/rec.csir", "b/rec.csir"], None),
        (["finetune", "--checkpoint", "pt.ckpt", "--held-out", "env1", "--variant", "base"], None),
        (["supervised", "--protocol", "in_domain_8020", "--held-out", "env9"], None),
        (["sweep", "--axis", "mask_ratio", "--values", "[0.5, 0.75]", "--held-out", "env1", "--seed", "5",
          "--seeds", "[0, 1]"], None),
        (["supervised", "--protocol", "in_domain_8020", "--domain-key", "subject"], None),
        (["clean", "--blocklist", "synth-c0e0s0b0d0-0000"], None),
        (["clean"], None),
    ],
    ids=[
        "lr",
        "mask-ratio",
        "protocol",
        "axis",
        "values",
        "config-list",
        "config-not-json",
        "config-missing",
        "regimes",
        "regimes-repeated",
        "held-out",
        "held-out-missing",
        "sweep-held-out",
        "sweep-mask-ratio",
        "sweep-patch-size",
        "sweep-pool-too-small",
        "sweep-seeds",
        "domain-key",
        "label-fraction-negative",
        "label-fraction-zero",
        "label-fraction-above-one",
        "cross-domain-label-fraction",
        "sweep-label-fraction",
        "sweep-values-repeated",
        "config-removed-train-field",
        "config-removed-task-field",
        "config-misspelled-section",
        "supervised-checkpoint",
        "ingest-config",
        "ingest-same-file-name",
        "finetune-model-flag",
        "in-domain-held-out",
        "sweep-seed-and-seeds",
        "in-domain-domain-key",
        "clean-blocklist-without-store",
        "clean-without-inputs",
    ],
)
def test_bad_flag_or_config_is_a_config_error(workdir, tmp_path, capsys, monkeypatch, argv, config):
    from csimae import training as R

    trained = []
    monkeypatch.setattr(R, "fit", lambda *a, **kw: trained.append(a))
    store = [] if argv[0] in ("synth-gen", "ingest", "clean") else ["--store", str(workdir / "gen" / "store")]
    tail = store + ["--out", str(tmp_path / "out")]
    if config is not None:
        path = tmp_path / "cfg.json"
        if config != "missing":
            path.write_text(config)
        tail += ["--config", str(path)]
    assert cli.main(argv + tail) == 2
    assert json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"] == "config"
    assert not (tmp_path / "out").exists()
    assert not trained


# each command that reads a store, on a split data's own check rejects: a manifest
# in which one clip lacks the domain label, or a held-out value the store lacks
SPLIT_ARGV = {
    "finetune": ["--held-out", "env1"],
    "probe": ["--held-out", "env1"],
    "supervised": ["--held-out", "env1"],
    "eval-cross-domain": ["--regimes", "supervised"],
    "sweep": ["--axis", "mask_ratio", "--values", "[0.5, 0.75]", "--held-out", "env1"],
}
BAD_SPLITS = [(c, "unlabeled-clip") for c in SPLIT_ARGV] + [
    (c, "absent-held-out") for c in SPLIT_ARGV if c != "eval-cross-domain"  # it takes no held-out value
]


@pytest.mark.parametrize("command, fault", BAD_SPLITS, ids=[f"{c}-{f}" for c, f in BAD_SPLITS])
def test_a_split_the_store_cannot_form_is_a_config_error(workdir, tmp_path, capsys, monkeypatch, command, fault):
    from csimae import training as R

    trained = []
    monkeypatch.setattr(R, "fit", lambda *a, **kw: trained.append(a))
    store = workdir / "gen" / "store"
    argv = [command, "--store", str(store), "--config", str(workdir / "micro.json"), "--out", str(tmp_path / "out")]
    if command in ("finetune", "probe"):
        argv += ["--checkpoint", str(_micro_checkpoint(tmp_path / "m.ckpt"))]
    if fault == "unlabeled-clip":
        doc = json.loads((store / "manifest.json").read_text())
        del doc["entries"][0]["labels"]["environment"]
        (tmp_path / "manifest.json").write_text(json.dumps(doc))
        argv += SPLIT_ARGV[command] + ["--manifest", str(tmp_path / "manifest.json")]
    else:
        argv += [{"env1": "env9"}.get(a, a) for a in SPLIT_ARGV[command]]
    assert cli.main(argv) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "config" and ("lack domain label" if fault == "unlabeled-clip" else "absent") in err["message"]
    assert not (tmp_path / "out").exists()
    assert not trained


def test_a_single_fold_command_writes_its_cross_domain_row(workdir, tmp_path):
    common = ["--store", str(workdir / "gen" / "store"), "--config", str(workdir / "micro.json")]
    common += ["--label-fraction", "0.5"]
    assert cli.main(["supervised", "--held-out", "env1", "--out", str(tmp_path / "sup")] + common) == 0
    assert cli.main(["eval-cross-domain", "--regimes", "supervised", "--out", str(tmp_path / "xd")] + common) == 0
    rows = [json.loads(line) for line in (tmp_path / "xd" / "results.jsonl").read_text().splitlines()]
    (row,) = [r for r in rows if r["split"]["held_out_value"] == "env1"]
    assert json.loads((tmp_path / "sup" / "result.json").read_text()) == row


def test_flags_set_the_fields_their_dest_names(workdir, tmp_path):
    cfg = tmp_path / "cfg.json"
    sections = {"model": MICRO_MODEL, "train": MICRO_TRAIN, "split": {"protocol": "in_domain_8020"}}
    cfg.write_text(json.dumps({"sections": sections}))
    argv = ["supervised", "--store", str(workdir / "gen" / "store"), "--config", str(cfg), "--out", str(tmp_path / "sup")]
    argv += ["--seed", "5", "--lr", "2e-3", "--patience", "3"]
    assert cli.main(argv) == 0
    resolved = json.loads((tmp_path / "sup" / "resolved_config.json").read_text())
    train, split = resolved["sections"]["train"], resolved["sections"]["split"]
    assert (train["peak_lr"], train["early_stop_patience"], train["seed"]) == (2e-3, 3, 5)
    assert split == {"protocol": "in_domain_8020", "domain_key": "environment", "held_out_value": None, "seed": 5}
    assert "func" not in resolved["args"] and resolved["args"]["seed"] == 5


# a valid value, other than the field's default, for every flag whose dest names a config field
FLAG_VALUES = {
    "seed": "5",
    "n_classes": "2",
    "n_environments": "4",
    "n_subjects": "1",
    "clips_per_cell": "7",
    "window_seconds": "3.0",
    "stride_seconds": "0.5",
    "max_missing_fraction": "0.2",
    "outlier_k": "3.0",
    "variant": "tiny",
    "patch_time": "50",
    "patch_freq": "9",
    "mask_ratio": "0.5",
    "dec_layers": "2",
    "dec_dim": "64",
    "dec_heads": "4",
    "peak_lr": "0.001",
    "warmup_steps": "7",
    "batch_size": "8",
    "weight_decay": "0.1",
    "max_epochs": "3",
    "early_stop_patience": "2",
    "val_fraction": "0.1",
    "protocol": "in_domain_8020",
    "domain_key": "subject",
    "held_out_value": "env1",
}
REQUIRED_VALUES = {"--axis": "mask_ratio", "--values": "[0.5, 0.75]"}
# command flags that name a config field but set no section: eval-cross-domain scores every
# value of its domain key, so it builds no split; grad-check seeds its fixed tiny model
COMMAND_FLAGS = {("eval-cross-domain", "domain_key"), ("grad-check", "seed")}


def _section_flag_cases():
    from csimae import harmonize as H
    from csimae import mae as M
    from csimae import qc as Q
    from csimae import training as R

    classes = (S.SynthTaskSpec, H.HarmonizeConfig, Q.QcConfig, M.ModelConfig, R.TrainConfig, D.SplitSpec)
    fields = {f.name for cls in classes for f in dataclasses.fields(cls)}
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for command, parser in sub.choices.items():
        required = [a.option_strings[0] for a in parser._actions if a.required]
        required = [x for flag in required for x in (flag, REQUIRED_VALUES.get(flag, "x"))]
        for action in parser._actions:
            if action.dest in fields and (command, action.dest) not in COMMAND_FLAGS:
                yield pytest.param(command, required, action, id=f"{command}{action.option_strings[0]}")


@pytest.mark.parametrize("command, required, action", list(_section_flag_cases()))
def test_every_section_flag_reaches_its_config(command, required, action):
    argv = [command] + required + [action.option_strings[0], FLAG_VALUES[action.dest]]
    if "split" in cli.COMMAND_SECTIONS[command] and action.dest not in ("protocol", "held_out_value"):
        argv += ["--held-out", "env1"]  # leave-one-domain-out, the downstream default, needs one
    args = cli.build_parser().parse_args(argv)
    configs = cli._configs(args, cli.DOWNSTREAM_DEFAULTS)
    configs.pop("pretrain", None)  # takes no flags
    carriers = [c for c in configs.values() if action.dest in {f.name for f in dataclasses.fields(c)}]
    assert carriers, f"{command} accepts {action.option_strings[0]} but builds no config with {action.dest}"
    assert all(getattr(c, action.dest) == getattr(args, action.dest) for c in carriers)


def test_sweep_trains_at_the_train_seed_it_records(workdir, tmp_path, monkeypatch):
    from types import SimpleNamespace

    from csimae import scaling as L

    seeds = []

    def fake_run_fold(manifest, store, split, regimes, model_cfg, train_cfg, label_fraction, pretrain_cfg, pool):
        seeds.append((train_cfg.seed, pretrain_cfg.seed))
        return (SimpleNamespace(accuracy=0.5, n_test=16),), SimpleNamespace(best_value=1.0)

    monkeypatch.setattr(L.E, "run_fold", fake_run_fold)
    argv = ["sweep", "--store", str(workdir / "gen" / "store"), "--config", str(workdir / "micro.json")]
    argv += ["--axis", "mask_ratio", "--values", "[0.5, 0.75]", "--held-out", "env1", "--seed", "5"]
    assert cli.main(argv + ["--out", str(tmp_path / "sw")]) == 0
    assert seeds == [(5, 5), (5, 5)]
    assert json.loads((tmp_path / "sw" / "resolved_config.json").read_text())["sections"]["train"]["seed"] == 5
    rows = [json.loads(line) for line in (tmp_path / "sw" / "rows.jsonl").read_text().splitlines()]
    assert [r["seed"] for r in rows] == [5, 5]
