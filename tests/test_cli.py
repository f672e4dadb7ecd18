"""CLI wiring: run directories, config precedence, determinism, exit codes."""

import argparse
import dataclasses
import importlib
import json
import os
import shutil
import signal
from pathlib import Path

import numpy as np
import pytest

from csimae import cli
from csimae import data as D
from csimae import synth as S
from tensorfile import tensor_file_parts


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


def test_checkpoint_is_required_exactly_by_the_downstream_commands_of_pretrained_regimes():
    from csimae import evaluate as E

    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    takes = {
        name for name, parser in sub.choices.items()
        for a in parser._actions if "--checkpoint" in a.option_strings and a.required
    }
    assert takes == {name for name, regime in cli.REGIME_OF.items() if regime in E.PRETRAINED_REGIMES}
    assert takes == {"finetune", "probe"}
    assert not any("--checkpoint" in a.option_strings for a in sub.choices["supervised"]._actions)


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


def test_a_synth_task_that_generation_cannot_run_is_a_config_error(tmp_path, capsys):
    config = tmp_path / "task.json"
    config.write_text(json.dumps({"task": {"bandwidth": 160e6, "n_f": 4}}))
    argv = ["synth-gen", "--config", str(config), "--clips-per-cell", "1", "--out", str(tmp_path / "gen")]
    assert cli.main(argv) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "config" and "4 subcarriers cannot fill 8 channels" in err["message"]
    assert not (tmp_path / "gen").exists()


def test_pretrain_runs_are_bit_identical(workdir):
    store = str(workdir / "gen" / "store")
    cfg = str(workdir / "micro.json")
    assert cli.main(["pretrain", "--store", store, "--out", str(workdir / "detA"), "--config", cfg]) == 0
    assert cli.main(["pretrain", "--store", store, "--out", str(workdir / "detB"), "--config", cfg]) == 0
    a = (workdir / "detA" / "metrics.jsonl").read_bytes()
    b = (workdir / "detB" / "metrics.jsonl").read_bytes()
    assert a == b
    assert (workdir / "detA" / "checkpoint.ckpt").read_bytes() == (workdir / "detB" / "checkpoint.ckpt").read_bytes()


def test_bit_identical_runs_have_the_same_checksums_but_for_their_run_record(workdir):
    def sums(run):
        lines = (workdir / run / "checksums.txt").read_text().splitlines()
        return {name: digest for digest, name in (line.split("  ") for line in lines)}

    a, b = sums("detA"), sums("detB")
    assert "timing.jsonl" not in a and (workdir / "detA" / "timing.jsonl").exists()
    assert {"metrics.jsonl", "checkpoint.ckpt", "resolved_config.json"} <= set(a) == set(b)
    assert [name for name in a if a[name] != b[name]] == ["resolved_config.json"]


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
    for command in ("ingest", "clean", "harmonize"):
        rc = cli.main([command, "--recordings", str(cut), "--out", str(tmp_path / command)])
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "DataError" and str(cut) in err["message"] and "truncated" in err["message"]
        assert not (tmp_path / command).exists()


def test_harmonizing_a_recording_too_short_for_a_clip_is_a_config_error_before_the_run_directory(tmp_path, capsys):
    scene = S.SceneSpec(paths=[S.PathComponent(1.0, 20e-9, 5.0)], n_t=40, sampling_rate=100.0, seed=1)
    rec = S.simulate_cfr(scene)
    rec.labels, rec.source_id = {"class": "c0", "environment": "env0"}, "cli-short"
    path = D.save_recording(rec, tmp_path / "short.csir")
    assert cli.main(["harmonize", "--recordings", str(path), "--out", str(tmp_path / "out")]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "config" and "no clips" in err["message"]
    assert not (tmp_path / "out").exists()


def _micro_checkpoint(path):
    from csimae import checkpoint as C
    from csimae import mae as M

    cfg = M.ModelConfig(**MICRO_MODEL)
    return C.save_checkpoint(path, M.init_params(cfg, seed=3), cfg)


def test_corrupt_checkpoint_gives_checkpoint_error_record(workdir, tmp_path, capsys):
    from csimae import checkpoint as C

    ckpt = _micro_checkpoint(tmp_path / "m.ckpt")
    raw = bytearray(ckpt.read_bytes())
    raw[tensor_file_parts(raw, C._MAGIC)["metadata"]] = 0xFF  # first byte of the JSON block
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


def test_threads_is_an_unknown_flag(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for var in cli.THREAD_VARS:
        monkeypatch.setenv(var, "1")
    for head in (["ingest", "--recordings", "r.csir", "--out", "o"], ["report", "--run-dir", "."]):
        assert cli.main(head + ["--threads", "4"]) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err == {"error": "config", "message": "unrecognized arguments: --threads 4"}
    assert all(os.environ[var] == "1" for var in cli.THREAD_VARS)
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "env",
    [
        {"OMP_NUM_THREADS": "3", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": None},
        {"OMP_NUM_THREADS": None, "OPENBLAS_NUM_THREADS": None, "MKL_NUM_THREADS": None, "CSIMAE_THREADS": "4"},
    ],
    ids=["some-set", "none-set-and-csimae-threads-ignored"],
)
def test_the_run_record_names_the_thread_variables_the_process_saw(tmp_path, monkeypatch, env):
    rec = str(_faulty_recording(tmp_path / "rec.csir"))
    for var, value in env.items():
        if value is None:
            monkeypatch.delenv(var, raising=False)
        else:
            monkeypatch.setenv(var, value)
    assert cli.main(["ingest", "--recordings", rec, "--out", str(tmp_path / "ing")]) == 0
    resolved = json.loads((tmp_path / "ing" / "resolved_config.json").read_text())
    want = {var: env[var] for var in cli.THREAD_VARS}
    assert resolved["threads"] == {**want, "cpu_count": os.cpu_count()}
    assert all(os.environ.get(var) == env[var] for var in cli.THREAD_VARS)


def test_report_without_a_table_is_a_config_error(tmp_path, capsys):
    assert cli.main(["report", "--run-dir", str(tmp_path)]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "config" and "no rows.jsonl or results.jsonl" in err["message"]
    assert not (tmp_path / "report.txt").exists()


def test_report_is_idempotent(workdir, tmp_path):
    run = tmp_path / "sweepdir"
    run.mkdir()
    rows = [
        {"axis": "data_fraction", "value": 0.1, "seed": 0, "n_pretrain": 2, "accuracy": 0.5, "test_set_hash": "h"},
        {"axis": "data_fraction", "value": 1.0, "seed": 0, "n_pretrain": 20, "accuracy": 0.7, "test_set_hash": "h"},
    ]
    (run / "rows.jsonl").write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    assert cli.main(["report", "--run-dir", str(run)]) == 0
    first = (run / "report.txt").read_text()
    assert cli.main(["report", "--run-dir", str(run)]) == 0
    assert (run / "report.txt").read_text() == first


# a fault names a key the second record lacks, or sets it to a JSON value; "truncated" cuts the file
REPORT_FAULTS = [(table, fault) for table in ("rows", "results") for fault in ("truncated", "accuracy")] + [
    ("rows", "value"),
    ("rows", "n_pretrain"),
    ("results", "regime"),
] + [(table, f"accuracy={bad}") for table in ("rows", "results") for bad in ('"x"', "null", "true")]


@pytest.mark.parametrize("table, fault", REPORT_FAULTS, ids=[f"{t}-{f}" for t, f in REPORT_FAULTS])
def test_report_on_a_bad_table_gives_data_error_record_naming_the_file_and_line(tmp_path, capsys, table, fault):
    record = {"axis": "data_fraction", "regime": "ft", "value": 0.1, "seed": 0, "n_pretrain": 2, "accuracy": 0.5}
    key, setting, value = fault.partition("=")
    second = {k: v for k, v in record.items() if k != key}  # the whole record when the fault is a cut
    if setting:
        second[key] = json.loads(value)
    text = json.dumps(record) + "\n" + json.dumps(second) + "\n"
    path = tmp_path / f"{table}.jsonl"
    path.write_text(text[:-6] if fault == "truncated" else text)
    assert cli.main(["report", "--run-dir", str(tmp_path)]) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "DataError" and f"{path} line 2: " in err["message"]
    assert not (tmp_path / "report.txt").exists()


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


def test_report_on_a_data_fraction_sweep_adds_its_log_linear_fit_and_on_other_axes_does_not(pinned, tmp_path):
    from csimae import scaling as L

    runs, _ = pinned
    assert cli.main(["report", "--run-dir", str(runs / "sweep")]) == 0
    *table, fit_line = (runs / "sweep" / "report.txt").read_text().splitlines()
    rows = D.read_jsonl(runs / "sweep" / "rows.jsonl")
    assert "\n".join(table) == L.summarize_rows(rows)
    fit = L.fit_loglinear([(np.log10(r["n_pretrain"]), r["accuracy"]) for r in rows])
    assert fit_line.split()[-6:] == ["slope", f"{fit.slope:.4f}", "intercept", f"{fit.intercept:.4f}", "r2", f"{fit.r_squared:.4f}"]
    other = [dict(r, axis="mask_ratio", value=v) for r, v in zip(rows, (0.5, 0.75))]
    D.write_jsonl(tmp_path / "rows.jsonl", other)
    assert cli.main(["report", "--run-dir", str(tmp_path)]) == 0
    assert (tmp_path / "report.txt").read_text() == L.summarize_rows(other) + "\n"


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
        (["pretrain", "--dec-heads", "0"], None),
        (["pretrain", "--patch-time", "0"], None),
        (["pretrain", "--dec-layers", "-1"], None),
        (["pretrain", "--dec-dim", "0"], None),
        (["pretrain", "--patch-freq", "-3"], None),
        (["pretrain"], '{"model": {"variant": "custom", "enc_layers": 1, "enc_dim": 8, "enc_heads": 2.0}}'),
        (["sweep", "--axis", "patch_size", "--values", "[[0, 3], [30, 3]]", "--held-out", "env1"], None),
        (["sweep", "--axis", "model_variant", "--values", '["tiny", "huge"]', "--held-out", "env1"], None),
        (["synth-gen", "--window-seconds", "60"], None),
        (["pretrain"], "out-a-file"),
        (["synth-gen", "--environments", "0"], None),
        (["pretrain", "--lr", "nan"], None),
        (["synth-gen", "--name", "other"], None),
        (["pretrain", "--variant", "tiny", "--patch-time", "100", "--patch-freq", "15", "--mask-ratio", "0.01"], None),
        (["sweep", "--axis", "mask_ratio", "--values", "[0.5, 0.01]", "--held-out", "env1", "--variant", "tiny",
          "--patch-time", "100", "--patch-freq", "15"], None),
        (["pretrain"], '{"train": {"batch_size": 2.5}}'),
        (["synth-gen"], '{"task": {"clips_per_cell": 1.5}}'),
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
        "dec-heads-zero",
        "patch-time-zero",
        "dec-layers-negative",
        "dec-dim-zero",
        "patch-freq-negative",
        "enc-heads-a-float",
        "sweep-patch-size-zero",
        "sweep-model-variant",
        "synth-gen-window-too-long",
        "out-a-file",
        "synth-gen-no-environments",
        "lr-nan",
        "synth-gen-name",
        "mask-ratio-masks-none",
        "sweep-mask-ratio-masks-none",
        "config-batch-size-a-float",
        "config-clips-per-cell-a-float",
    ],
)
def test_bad_flag_or_config_is_a_config_error(workdir, tmp_path, capsys, monkeypatch, argv, config):
    from csimae import training as R

    trained = []
    monkeypatch.setattr(R, "fit", lambda *a, **kw: trained.append(a))
    out = tmp_path / "out"
    if config == "out-a-file":  # --out names an existing file, which stays as it was
        out.write_text("a file")
        config = None
    store = [] if argv[0] in ("synth-gen", "ingest", "clean") else ["--store", str(workdir / "gen" / "store")]
    tail = store + ["--out", str(out)]
    if config is not None:
        path = tmp_path / "cfg.json"
        if config != "missing":
            path.write_text(config)
        tail += ["--config", str(path)]
    assert cli.main(argv + tail) == 2
    assert json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"] == "config"
    assert out.read_text() == "a file" if out.is_file() else not out.exists()
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
    configs = cli._configs(args)
    configs.pop("pretrain", None)  # takes no flags
    carriers = [c for c in configs.values() if action.dest in {f.name for f in dataclasses.fields(c)}]
    assert carriers, f"{command} accepts {action.option_strings[0]} but builds no config with {action.dest}"
    assert all(getattr(c, action.dest) == getattr(args, action.dest) for c in carriers)


def test_sweep_trains_at_the_train_seed_it_records(workdir, tmp_path, monkeypatch):
    from types import SimpleNamespace

    from csimae import scaling as L

    train_seeds, pretrain_seeds = [], []

    def fake_pretrain(manifest, store, model_cfg, cfg):
        pretrain_seeds.append(cfg.seed)
        return SimpleNamespace(params={}, best_value=1.0)

    def fake_run_fold(manifest, store, fold, regimes, encoder):
        train_seeds.append(fold.train_cfg.seed)
        return [SimpleNamespace(accuracy=0.5, n_test=16)]

    monkeypatch.setattr(L.E.R, "pretrain", fake_pretrain)
    monkeypatch.setattr(L.E, "run_fold", fake_run_fold)
    argv = ["sweep", "--store", str(workdir / "gen" / "store"), "--config", str(workdir / "micro.json")]
    argv += ["--axis", "mask_ratio", "--values", "[0.5, 0.75]", "--held-out", "env1", "--seed", "5"]
    assert cli.main(argv + ["--out", str(tmp_path / "sw")]) == 0
    assert list(zip(train_seeds, pretrain_seeds)) == [(5, 5), (5, 5)]
    assert json.loads((tmp_path / "sw" / "resolved_config.json").read_text())["sections"]["train"]["seed"] == 5
    rows = [json.loads(line) for line in (tmp_path / "sw" / "rows.jsonl").read_text().splitlines()]
    assert [r["seed"] for r in rows] == [5, 5]


# ---------------------------------------------------------------------
# one run lifecycle: a run that fails once it has started leaves no --out behind

# each run command's flags past --store, --config and --out, and the library call
# a fault is injected into; the fault comes after the call, so the run has written
# what it writes up to there
LIFECYCLE_RUNS = {
    "synth-gen": (["--classes", "2", "--environments", "2", "--subjects", "1", "--clips-per-cell", "1"],
                  ("synth", "generate_task")),
    "ingest": (["--recordings", "{rec}"], ("data", "load_recording")),
    "clean": (["--recordings", "{rec}", "--store", "{store}"], ("qc", "write_reports")),
    "harmonize": (["--recordings", "{rec}"], ("qc", "write_reports")),
    "pretrain": ([], ("checkpoint", "save_checkpoint")),
    "finetune": (["--checkpoint", "{ckpt}", "--held-out", "env1"], ("evaluate", "run_fold")),
    "probe": (["--checkpoint", "{ckpt}", "--held-out", "env1"], ("evaluate", "run_fold")),
    "supervised": (["--held-out", "env1"], ("evaluate", "run_fold")),
    "eval-cross-domain": (["--regimes", "supervised"], ("evaluate", "run_cell")),
    "sweep": (["--axis", "mask_ratio", "--values", "[0.5, 0.75]", "--held-out", "env1"], ("evaluate", "run_cell")),
}


def _failing_after(real, error):
    """``real``, then ``error("injected")``: a fault once the call has done its work."""

    def late_fault(*a, **kw):
        real(*a, **kw)
        raise error("injected")

    return late_fault


LIFECYCLE_FAULTS = [(c, f) for c in LIFECYCLE_RUNS for f in ("injected", "interrupt")] + [
    ("pretrain", "truncated-shard"),
    ("supervised", "truncated-shard"),
]


@pytest.mark.parametrize("command, fault", LIFECYCLE_FAULTS, ids=[f"{c}-{f}" for c, f in LIFECYCLE_FAULTS])
def test_a_run_that_fails_once_started_leaves_no_out(workdir, tmp_path, capsys, monkeypatch, command, fault):
    flags, (module, name) = LIFECYCLE_RUNS[command]
    store, cfg = tmp_path / "store", workdir / "micro.json"
    shutil.copytree(workdir / "gen" / "store", store)
    paths = {"rec": _faulty_recording(tmp_path / "rec.csir"), "store": store, "ckpt": _micro_checkpoint(tmp_path / "m.ckpt")}
    if fault in ("injected", "interrupt"):
        lib = importlib.import_module(f"csimae.{module}")
        error = RuntimeError if fault == "injected" else KeyboardInterrupt
        monkeypatch.setattr(lib, name, _failing_after(getattr(lib, name), error))
    else:
        shard = store / "shard-0000.bin"
        shard.write_bytes(shard.read_bytes()[: shard.stat().st_size // 2])
    argv = [command] + [a.format(**paths) for a in flags] + ["--out", str(tmp_path / "runs" / "out")]
    if command in cli.STORE_COMMANDS:
        argv += ["--store", str(store), "--config", str(cfg)]
    before = sorted(tmp_path.rglob("*"))
    if fault == "interrupt":
        with pytest.raises(KeyboardInterrupt):
            cli.main(argv)
    else:
        assert cli.main(argv) == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        if fault == "injected":
            assert err == {"error": "RuntimeError", "message": "injected"}
        else:
            assert err["error"] == "DataError" and "truncated" in err["message"]
    assert capsys.readouterr().out == ""
    assert sorted(tmp_path.rglob("*")) == before


def test_a_run_into_an_existing_empty_out_succeeds_and_a_failed_one_leaves_it_empty(tmp_path, capsys, monkeypatch):
    from csimae import qc as Q

    rec = str(_faulty_recording(tmp_path / "rec.csir"))
    done, failed = tmp_path / "done", tmp_path / "failed"
    done.mkdir()
    failed.mkdir()
    assert cli.main(["harmonize", "--recordings", rec, "--out", str(done)]) == 0
    assert (done / "store" / "manifest.json").exists() and (done / "resolved_config.json").exists()
    monkeypatch.setattr(Q, "write_reports", _failing_after(Q.write_reports, RuntimeError))
    assert cli.main(["harmonize", "--recordings", rec, "--out", str(failed)]) == 1
    assert failed.is_dir() and not any(failed.iterdir())
    assert str(failed) not in capsys.readouterr().out


def test_a_failed_run_keeps_a_sibling_run_in_the_parent_it_created(tmp_path, monkeypatch):
    from csimae import qc as Q

    rec = str(_faulty_recording(tmp_path / "rec.csir"))
    results = tmp_path / "results"
    real = Q.write_reports

    def sibling_then_fault(*a, **kw):
        real(*a, **kw)
        assert cli.main(["ingest", "--recordings", rec, "--out", str(results / "ing")]) == 0
        raise RuntimeError("injected")

    monkeypatch.setattr(Q, "write_reports", sibling_then_fault)
    assert cli.main(["harmonize", "--recordings", rec, "--out", str(results / "harm")]) == 1
    assert sorted(p.name for p in results.iterdir()) == ["ing"]
    assert (results / "ing" / "index.json").exists() and (results / "ing" / "checksums.txt").exists()


def test_a_relative_out_lands_under_the_working_directory(tmp_path, monkeypatch):
    rec = str(_faulty_recording(tmp_path / "rec.csir"))
    (tmp_path / "cwd").mkdir()
    monkeypatch.chdir(tmp_path / "cwd")
    monkeypatch.setenv("CSIMAE_OUT_ROOT", str(tmp_path / "root"))  # ignored: --out is taken as given
    assert cli.main(["ingest", "--recordings", rec, "--out", "runs/ing"]) == 0
    assert json.loads((tmp_path / "cwd" / "runs" / "ing" / "index.json").read_text())[0]["source_id"] == "qc-rec"
    assert not (tmp_path / "root").exists()


def test_a_pretrain_whose_warmup_outlasts_its_steps_fails_before_loading_and_leaves_no_out(
    workdir, tmp_path, capsys, monkeypatch
):  # a config error: pretrain plans its step budget on the manifest
    loaded = []
    monkeypatch.setattr(D, "load_clips", lambda *a, **kw: loaded.append(a))
    monkeypatch.setattr(D, "load_clip_array", lambda *a, **kw: loaded.append(a))
    cfg = tmp_path / "model.json"
    cfg.write_text(json.dumps({"sections": {"model": MICRO_MODEL}}))  # the default warmup_steps, 1000
    store, out = workdir / "gen" / "store", tmp_path / "runs" / "pt"
    argv = ["pretrain", "--store", str(store), "--config", str(cfg), "--max-epochs", "2", "--out", str(out)]
    before = sorted(tmp_path.rglob("*"))
    assert cli.main(argv) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err == {"error": "config", "message": "total_steps 2 must exceed warmup_steps 1000"}
    assert not loaded
    assert sorted(tmp_path.rglob("*")) == before


# a sweep whose last cell pretrains 2 clips (one step an epoch) after a 2-step warmup, a suite whose
# folds fine-tune 13 of 16 labeled clips for 2 steps after a 1000-step warmup, a pretrain of 26 of 32
# clips for 4 steps after it, and single folds that fine-tune, probe or train 13 of 16 labeled clips
# for 2 steps after it
UNTRAINABLE_RUNS = {
    "sweep": (["--axis", "data_fraction", "--values", "[1.0, 0.1]", "--held-out", "env1"],
              "data_fraction 0.1, seed 0: cannot train: pretraining pool of 2 clips: "
              "total_steps 2 must exceed warmup_steps 2"),
    "eval-cross-domain": (["--regimes", "ft", "--warmup-steps", "1000"],
                          "fold environment=env0 cannot train: labeled set of 16 clips: "
                          "total_steps 2 must exceed warmup_steps 1000"),
    "pretrain": (["--warmup-steps", "1000"], "total_steps 4 must exceed warmup_steps 1000"),
    "finetune": (["--checkpoint", "{ckpt}", "--held-out", "env1", "--warmup-steps", "1000"],
                 "labeled set of 16 clips: total_steps 2 must exceed warmup_steps 1000"),
    "probe": (["--checkpoint", "{ckpt}", "--held-out", "env1", "--warmup-steps", "1000"],
              "labeled set of 16 clips: total_steps 2 must exceed warmup_steps 1000"),
    "supervised": (["--held-out", "env1", "--warmup-steps", "1000"],
                   "labeled set of 16 clips: total_steps 2 must exceed warmup_steps 1000"),
}


@pytest.mark.parametrize("command", UNTRAINABLE_RUNS)
def test_a_cell_or_fold_that_cannot_train_is_a_config_error_before_anything_trains(
    workdir, tmp_path, capsys, monkeypatch, command
):
    from csimae import training as R

    trained = []
    monkeypatch.setattr(R, "fit", lambda *a: trained.append(a))
    flags, message = UNTRAINABLE_RUNS[command]
    flags = [a.format(ckpt=_micro_checkpoint(tmp_path / "m.ckpt")) for a in flags]
    cfg = tmp_path / "c.json"
    pretrain = {**MICRO_TRAIN, "warmup_steps": 2, "batch_size": 4}
    cfg.write_text(json.dumps({"sections": {"model": MICRO_MODEL, "train": MICRO_TRAIN, "pretrain": pretrain}}))
    out = tmp_path / "runs" / "out"
    argv = [command, "--store", str(workdir / "gen" / "store"), "--config", str(cfg), "--out", str(out)] + flags
    assert cli.main(argv) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err == {"error": "config", "message": message}
    assert trained == [] and not (tmp_path / "runs").exists()


def test_a_suite_names_the_pretraining_pool_that_cannot_train(tmp_path, capsys):
    # no --config: the pretraining pool takes the default section, whose 1000-step warmup the flags never reach
    store = tmp_path / "gen" / "store"
    gen = ["--classes", "2", "--environments", "2", "--subjects", "1", "--clips-per-cell", "6"]
    assert cli.main(["synth-gen", *gen, "--out", str(tmp_path / "gen")]) == 0
    model = ["--variant", "tiny", "--patch-time", "100", "--patch-freq", "15", "--dec-layers", "1", "--dec-dim", "32"]
    argv = ["eval-cross-domain", "--store", str(store), *model, "--dec-heads", "2", "--max-epochs", "2"]
    assert cli.main(argv + ["--warmup-steps", "1", "--out", str(tmp_path / "xd")]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    message = "fold environment=env0 cannot train: pretraining pool of 12 clips: total_steps 40 must exceed warmup_steps 1000"
    assert err == {"error": "config", "message": message}
    assert not (tmp_path / "xd").exists()


@pytest.fixture(scope="module")
def three_classes(tmp_path_factory):
    """A store of 3 classes in 3 environments, 2 clips each."""
    store = tmp_path_factory.mktemp("three") / "store"
    S.generate_task(S.SynthTaskSpec(n_classes=3, n_environments=3, n_subjects=1, clips_per_cell=2, seed=9), store)
    return store


# a manifest whose env0 and env1 hold class c0 only, so the fold that holds out env2 labels one class, and one
# whose env2 holds c2 only and the other environments never do, so that fold labels no class it tests
LABELED_SET_FAULTS = {
    "one-class": (lambda e: e.labels["environment"] == "env2" or e.labels["class"] == "c0", "n_classes must be >= 2"),
    "no-test-class": (lambda e: (e.labels["environment"] == "env2") == (e.labels["class"] == "c2"),
                      "no test clip to score: 2 of 2 have a class the labeled clips lack"),
}


@pytest.mark.parametrize("command", ["supervised", "eval-cross-domain"])
@pytest.mark.parametrize("fault", LABELED_SET_FAULTS)
def test_a_labeled_set_that_cannot_train_or_be_scored_is_a_config_error_before_anything_trains(
    three_classes, tmp_path, capsys, monkeypatch, command, fault
):
    from csimae import training as R

    trained = []
    monkeypatch.setattr(R, "fit", lambda *a: trained.append(a))
    keep, message = LABELED_SET_FAULTS[fault]
    D.DatasetManifest([e for e in D.DatasetManifest.load(three_classes).entries if keep(e)]).save(tmp_path)
    cfg = tmp_path / "micro.json"
    cfg.write_text(json.dumps({"sections": {"model": MICRO_MODEL, "train": MICRO_TRAIN}}))
    flags = ["--held-out", "env2"] if command == "supervised" else ["--regimes", "supervised"]
    argv = [command, "--store", str(three_classes), "--manifest", str(tmp_path / "manifest.json")]
    argv += ["--config", str(cfg), "--out", str(tmp_path / "runs" / "out")] + flags
    assert cli.main(argv) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "config" and err["message"].endswith(message)
    if command == "eval-cross-domain":
        assert err["message"].startswith("fold environment=env2 cannot train: ")
    assert trained == [] and not (tmp_path / "runs").exists()


def test_each_fold_and_cell_is_judged_once(workdir, tmp_path, monkeypatch):
    from collections import Counter

    from csimae import training as R

    calls = Counter()
    for module, name in ((D, "make_split"), (R, "fit_budget")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, _real=real, _name=name: calls.update([_name]) or _real(*a))
    common = ["--store", str(workdir / "gen" / "store"), "--config", str(workdir / "micro.json")]
    # two folds: one split and two step budgets each, for the labeled set and the pool; a sweep's cells
    # share their seed's fold: one split and labeled set per seed, one step budget per cell's pool
    sweep = ["sweep", "--axis", "mask_ratio", "--values", "[0.5, 0.75]", "--held-out", "env1"]
    runs = {
        "eval-cross-domain": (["eval-cross-domain", "--regimes", "supervised,lp,ft"], 2, 4),
        "sweep": (sweep, 1, 3),
        "sweep-2-seeds": (sweep + ["--seeds", "[0, 1]"], 2, 6),
    }
    for name, (argv, splits, budgets) in runs.items():
        calls.clear()
        assert cli.main(argv + common + ["--out", str(tmp_path / name)]) == 0
        assert calls == {"make_split": splits, "fit_budget": budgets}, name


def test_each_cell_pretrains_once_and_a_supervised_suite_never(workdir, tmp_path, monkeypatch):
    from csimae import training as R

    pools, real = [], R.pretrain
    monkeypatch.setattr(R, "pretrain", lambda manifest, *a: pools.append(len(manifest.entries)) or real(manifest, *a))
    common = ["--store", str(workdir / "gen" / "store"), "--config", str(workdir / "micro.json")]
    sweep = ["sweep", "--axis", "data_fraction", "--values", "[1.0, 0.5]", "--seeds", "[0, 1]", "--held-out", "env1"]
    runs = {  # two folds of 16 training clips; a sweep's 2 x 2 cells pretrain on 16 or 8 of them
        "supervised": (["eval-cross-domain", "--regimes", "supervised"], []),
        "lp-ft": (["eval-cross-domain", "--regimes", "lp,ft"], [16, 16]),
        "sweep": (sweep, [16, 16, 8, 8]),
    }
    for name, (argv, want) in runs.items():
        pools.clear()
        assert cli.main(argv + common + ["--out", str(tmp_path / name)]) == 0
        assert pools == want, name


@pytest.mark.parametrize("missing", ["manifest", "store", "checkpoint"])
def test_a_missing_input_file_is_a_typed_error_naming_it_and_leaves_no_out(workdir, tmp_path, capsys, missing):
    gone = tmp_path / "gone" / {"manifest": "manifest.json", "store": "store", "checkpoint": "m.ckpt"}[missing]
    store = gone if missing == "store" else workdir / "gen" / "store"
    ckpt = gone if missing == "checkpoint" else _micro_checkpoint(tmp_path / "m.ckpt")
    out = tmp_path / "runs" / "ft"
    argv = ["finetune", "--store", str(store), "--checkpoint", str(ckpt), "--held-out", "env1", "--out", str(out)]
    argv += ["--config", str(workdir / "micro.json")] + (["--manifest", str(gone)] if missing == "manifest" else [])
    assert cli.main(argv) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == ("CheckpointError" if missing == "checkpoint" else "DataError")
    assert err["message"].startswith(str(gone)) and "cannot open (No such file or directory)" in err["message"]
    assert not (tmp_path / "runs").exists()


def test_sigterm_during_a_run_takes_the_interrupt_path_and_restores_the_handler(workdir, tmp_path, capsys, monkeypatch):
    from csimae import checkpoint as C

    real = C.save_checkpoint

    def terminated_after(*a, **kw):
        real(*a, **kw)
        os.kill(os.getpid(), signal.SIGTERM)

    monkeypatch.setattr(C, "save_checkpoint", terminated_after)
    argv = ["pretrain", "--store", str(workdir / "gen" / "store"), "--config", str(workdir / "micro.json")]
    before = sorted(tmp_path.rglob("*"))
    earlier = lambda signum, frame: None  # what a SIGTERM outside a run does: nothing
    previous = signal.signal(signal.SIGTERM, earlier)
    try:
        with pytest.raises(SystemExit) as stop:
            cli.main(argv + ["--out", str(tmp_path / "runs" / "pt")])
        assert signal.getsignal(signal.SIGTERM) is earlier
    finally:
        signal.signal(signal.SIGTERM, previous)
    assert stop.value.code == 143
    assert capsys.readouterr().out == ""
    assert sorted(tmp_path.rglob("*")) == before


def test_a_run_from_another_thread_runs_and_leaves_sigterm_alone(tmp_path):
    import threading

    rec, before = str(_faulty_recording(tmp_path / "rec.csir")), signal.getsignal(signal.SIGTERM)
    codes = []
    argv = ["ingest", "--recordings", rec, "--out", str(tmp_path / "ing")]
    worker = threading.Thread(target=lambda: codes.append(cli.main(argv)))
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive() and codes == [0]
    assert (tmp_path / "ing" / "index.json").exists()
    assert signal.getsignal(signal.SIGTERM) is before
