"""Command-line entry point.

Every run command (one in COMMAND_SECTIONS) has one lifecycle, in main:
it builds the configs, creates --out, runs into it and writes the run
record, and on any failure, an interrupt or SIGTERM included, it removes
what the run wrote, so a failed run leaves no --out (one that existed
empty stays empty). SIGTERM then ends the process with exit 143. Every
config checks itself when it is built, so a bad one is refused before
--out exists. COMMAND_SECTIONS declares the config sections each command
builds, and a command takes --config and the flags of those sections
only. A config field takes, from lowest to highest precedence: the
dataclass default, the command default, the config file's section, and
the flag whose argparse dest names the field. The command defaults are
the downstream runs' batch size of 32 (DOWNSTREAM_COMMANDS) and the
leave-one-domain-out split protocol, so a file's train.batch_size beats
the 32. The pretrain section falls back to the file's train section and
takes no flags. finetune and probe build no model section: the encoder
and its config come from the required --checkpoint. One config file can
serve the whole pipeline, as a command leaves unread the sections it
does not build; a section that no command builds is a config error.

The commands that read a clip store are declared once, in
STORE_COMMANDS, and take --store and --manifest (read in place of the
store's own manifest). Each plans its runs once on that manifest, before
any clip loads (fit_budget, plan_fold, cross_domain_cells or sweep_cells),
and its runners take the plans and judge nothing again.

resolved_config.json holds every config the command built, its flags,
and the BLAS thread variables and core count the process saw. A run
directory is reproducible from it plus the input store: rerun at the same
thread variables on a host with the same core count, it gives the same
checksums.txt (every file but the volatile timing.jsonl) except the line
of resolved_config.json, whose args hold the rerun's own --out. A bad
flag or config file, such as a --label-fraction outside (0, 1], a sweep
value that makes no valid model or an --out that is not a directory, is
a config error: exit 2 and a JSON record, before anything trains. So is
whatever a store command's plan refuses (_plan): a held-out value the
store lacks, a clip without the domain label, a labeled set with one
class or with no class of the test side, or a run, labeled set or
pretraining pool (the refusal names which) with no step after its warmup.
Any other failure, a missing or corrupt input file included, is exit 1 and
a JSON record naming the error.

BLAS threads are capped by the variables BLAS reads itself:
OMP_NUM_THREADS, OPENBLAS_NUM_THREADS or MKL_NUM_THREADS. --out is taken
as given, so a relative one lands under the working directory.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import shutil
import signal
import sys
import threading
from collections import Counter
from pathlib import Path

import numpy as np

from . import checkpoint as C
from . import data as D
from . import evaluate as E
from . import harmonize as H
from . import mae as M
from . import qc as Q
from . import scaling as L
from . import synth as S
from . import tensors as T
from . import training as R


class CliError(ValueError):
    pass


def _load_sections(config_path: str | None) -> dict:
    if not config_path:
        return {}
    try:
        doc = json.loads(Path(config_path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as e:
        raise CliError(f"cannot read config file {config_path}: {e}") from e
    sections = doc.get("sections", doc) if isinstance(doc, dict) else None
    if not isinstance(sections, dict):
        raise CliError(f"config file {config_path} is not a JSON object of sections")
    return sections


def _build(cls, section: dict, args=None, default: dict | None = None):
    """Merge default < file section < flags named like a field into ``cls``."""
    if not isinstance(section, dict):
        raise CliError(f"{cls.__name__} section is not a JSON object")
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(section) - names)
    if unknown:
        raise CliError(f"unknown {cls.__name__} keys: {', '.join(unknown)}")
    merged = {**(default or {}), **section}
    merged.update({k: v for k, v in (vars(args) if args else {}).items() if k in names and v is not None})
    try:
        return cls(**merged)
    except (TypeError, ValueError) as e:
        raise CliError(f"invalid {cls.__name__}: {e}") from e


# the variables that cap BLAS threads, recorded with each run: a checkpoint's bits depend on them
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# the config sections each command builds; build_parser gives a command
# --config and the flags of these sections only
COMMAND_SECTIONS = {
    "synth-gen": ("task", "harmonize", "qc"),
    "ingest": (),
    "clean": ("harmonize", "qc"),
    "harmonize": ("harmonize", "qc"),
    "pretrain": ("model", "train"),
    "finetune": ("train", "split"),
    "probe": ("train", "split"),
    "supervised": ("model", "train", "split"),
    "eval-cross-domain": ("model", "train", "pretrain"),
    "sweep": ("model", "train", "pretrain", "split"),
}

# the commands that read a clip store: each takes --store and --manifest, and
# plans its runs on the manifest (_plan) before any clip loads
STORE_COMMANDS = ("pretrain", "finetune", "probe", "supervised", "eval-cross-domain", "sweep")

# the regime each single-fold downstream command runs
REGIME_OF = {"finetune": "ft", "probe": "lp", "supervised": "supervised"}

# the downstream runs and their command defaults: below the config file, unlike flags
DOWNSTREAM_COMMANDS = (*REGIME_OF, "eval-cross-domain", "sweep")
DOWNSTREAM_DEFAULTS = {"train": {"batch_size": 32}, "split": {"protocol": "leave_one_domain_out"}}


def _configs(args) -> dict:
    """Build the config sections ``args.command`` declares from ``--config`` and the flags.

    A file section that no command builds is an error. The ``pretrain``
    section falls back to the file's ``train`` section and takes no flags.
    """
    classes = {
        "task": S.SynthTaskSpec,
        "harmonize": H.HarmonizeConfig,
        "qc": Q.QcConfig,
        "model": M.ModelConfig,
        "train": R.TrainConfig,
        "split": D.SplitSpec,
    }
    sections = _load_sections(getattr(args, "config", None))  # ingest takes no --config
    unknown = sorted(set(sections) - set(classes) - {"pretrain"})
    if unknown:
        raise CliError(f"unknown config sections: {', '.join(unknown)}")
    defaults = DOWNSTREAM_DEFAULTS if args.command in DOWNSTREAM_COMMANDS else {}
    return {
        name: _build(R.TrainConfig, sections.get("pretrain", sections.get("train", {})))
        if name == "pretrain"
        else _build(classes[name], sections.get(name, {}), args, defaults.get(name))
        for name in COMMAND_SECTIONS[args.command]
    }


def _persist_run(out: Path, command: str, configs: dict, args):
    """Write resolved_config.json (every config built, the flags, and the thread variables and
    core count that a checkpoint's bits depend on) and checksums.txt, the sha256 of every file
    the run wrote except the volatile timing.jsonl."""
    doc = {
        "command": command,
        "args": {k: v for k, v in vars(args).items() if k != "func"},
        "sections": {name: dataclasses.asdict(cfg) for name, cfg in configs.items()},
        "threads": {**{var: os.environ.get(var) for var in THREAD_VARS}, "cpu_count": os.cpu_count()},
    }
    D.write_json(out / "resolved_config.json", doc)
    lines = []
    for p in sorted(out.rglob("*")):
        if p.is_file() and p.name not in ("checksums.txt", "timing.jsonl"):
            digest = hashlib.sha256(p.read_bytes()).hexdigest()
            lines.append(f"{digest}  {p.relative_to(out)}")
    (out / "checksums.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")


def _open_store(args):
    """--store's manifest, or --manifest read in its place; only the manifest is read."""
    return D.DatasetManifest.read(args.manifest) if args.manifest else D.DatasetManifest.load(args.store)


def _plan(judge, *args):
    """``judge(*args)``, a store command's plan of its runs; whatever it refuses is a config error."""
    try:
        return judge(*args)
    except (TypeError, ValueError) as e:
        raise CliError(str(e)) from e


def _fraction(text: str) -> float:
    value = float(text)
    if not 0 < value <= 1:
        raise argparse.ArgumentTypeError(f"needs a fraction in (0, 1], got {text!r}")
    return value


def _json_list(text: str) -> list:
    try:
        value = json.loads(text)
    except ValueError:
        value = None
    if not isinstance(value, list):
        raise argparse.ArgumentTypeError(f"needs a JSON list, got {text!r}")
    return value


class _Parser(argparse.ArgumentParser):
    """Bad flags end as the JSON config error record, like bad config files."""

    def error(self, message):
        raise CliError(message)


def _add_section_flags(p, section: str):
    """The flags of one config section; each dest names the field it sets. pretrain has none."""
    if section == "task":
        p.add_argument("--seed", type=int)
        p.add_argument("--classes", type=int, dest="n_classes")
        p.add_argument("--environments", type=int, dest="n_environments")
        p.add_argument("--subjects", type=int, dest="n_subjects")
        p.add_argument("--clips-per-cell", type=int, dest="clips_per_cell")
    elif section == "harmonize":
        p.add_argument("--window-seconds", type=float, dest="window_seconds")
        p.add_argument("--stride-seconds", type=float, dest="stride_seconds")
    elif section == "qc":
        p.add_argument("--max-missing-fraction", type=float, dest="max_missing_fraction")
        p.add_argument("--outlier-k", type=float, dest="outlier_k")
    elif section == "model":
        p.add_argument("--variant", choices=["tiny", "small", "base", "large", "custom"])
        p.add_argument("--patch-time", type=int, dest="patch_time")
        p.add_argument("--patch-freq", type=int, dest="patch_freq")
        p.add_argument("--mask-ratio", type=float, dest="mask_ratio")
        p.add_argument("--dec-layers", type=int, dest="dec_layers")
        p.add_argument("--dec-dim", type=int, dest="dec_dim")
        p.add_argument("--dec-heads", type=int, dest="dec_heads")
    elif section == "train":
        p.add_argument("--lr", type=float, dest="peak_lr")
        p.add_argument("--warmup-steps", type=int, dest="warmup_steps")
        p.add_argument("--batch-size", type=int, dest="batch_size")
        p.add_argument("--weight-decay", type=float, dest="weight_decay")
        p.add_argument("--max-epochs", type=int, dest="max_epochs")
        p.add_argument("--patience", type=int, dest="early_stop_patience")
        p.add_argument("--seed", type=int)
        p.add_argument("--val-fraction", type=float, dest="val_fraction")
    elif section == "split":
        p.add_argument("--protocol")
        p.add_argument("--domain-key", dest="domain_key")
        p.add_argument("--held-out", dest="held_out_value")


def _add_command(sub, name: str, func, **kw):
    """A command; a run command (one in COMMAND_SECTIONS) takes --out, the store flags if it
    reads one, --label-fraction if it runs downstream, and --config and its sections' flags."""
    p = sub.add_parser(name, **kw)
    p.set_defaults(func=func)
    if name not in COMMAND_SECTIONS:
        return p
    p.add_argument("--out", required=True)
    if name in STORE_COMMANDS:
        p.add_argument("--store", required=True)
        p.add_argument("--manifest", help="a manifest of the store's clips, read in place of its own")
    if name in DOWNSTREAM_COMMANDS:
        p.add_argument("--label-fraction", type=_fraction, dest="label_fraction", default=1.0)
    if COMMAND_SECTIONS[name]:
        p.add_argument("--config")
    for section in COMMAND_SECTIONS[name]:
        _add_section_flags(p, section)
    return p


# ---------------------------------------------------------------------
# subcommands; a run command takes (args, cfg, out) and returns the summary main prints


def cmd_synth_gen(args, cfg, out):
    task = cfg["task"]
    if not H.window_slices(task.n_packets, task.sampling_rate, cfg["harmonize"]):
        seconds = task.n_packets / task.sampling_rate
        raise CliError(f"a {cfg['harmonize'].window_seconds} s window is longer than a {seconds} s synthetic recording")
    manifest = S.generate_task(task, out / "store", cfg["harmonize"], cfg["qc"])
    return f"wrote {len(manifest.entries)} clips to {out / 'store'}"


def cmd_ingest(args, cfg, out):
    repeated = sorted(name for name, n in Counter(Path(p).name for p in args.recordings).items() if n > 1)
    if repeated:
        raise CliError(f"recordings share a file name, and each is copied under its name: {', '.join(repeated)}")
    rec_dir = out / "recordings"
    rec_dir.mkdir()
    index = []
    for path in args.recordings:
        rec = D.load_recording(path)
        index.append(
            {
                "file": Path(path).name,
                "source_id": rec.source_id,
                "labels": rec.labels,
                "shape": list(rec.data.shape),
                "sampling_rate": rec.sampling_rate,
                "bandwidth": rec.bandwidth,
            }
        )
        (rec_dir / Path(path).name).write_bytes(Path(path).read_bytes())
    D.write_json(out / "index.json", index)
    return f"ingested {len(index)} recordings into {rec_dir}"


def cmd_clean(args, cfg, out):
    if args.blocklist and not args.store:
        raise CliError("--blocklist needs --store, the store whose manifest it filters")
    if not (args.recordings or args.store):
        raise CliError("clean needs --recordings to QC-report, --store to filter, or both")
    reports = [H.qc_recording(D.load_recording(p), cfg["harmonize"], cfg["qc"]) for p in args.recordings or []]
    if reports:
        Q.write_reports(reports, out / "qc_report.jsonl")
    if args.store:
        filtered, log = Q.apply_blocklist(D.DatasetManifest.load(args.store), args.blocklist or [])
        filtered.save(out)
        D.write_json(out / "blocklist_log.json", log)
        for w in log["warnings"]:
            print(f"warning: {w}", file=sys.stderr)
    return f"clean outputs in {out}"


def cmd_harmonize(args, cfg, out):
    clips, reports = [], []
    for path in args.recordings:
        rec_clips, report = H.harmonize_recording(D.load_recording(path), cfg["harmonize"], cfg["qc"])
        clips.extend(rec_clips)
        reports.append(report)
    if not clips:
        raise CliError("harmonization produced no clips (all windows dropped or too short)")
    manifest = D.write_clip_store(clips, out / "store")
    Q.write_reports(reports, out / "qc_report.jsonl")
    return f"wrote {len(manifest.entries)} clips from {len(args.recordings)} recordings"


def cmd_pretrain(args, cfg, out):
    manifest = _open_store(args)
    _plan(R.fit_budget, len(manifest.entries), cfg["train"])
    result = R.pretrain(manifest, args.store, cfg["model"], cfg["train"])
    result.metrics.save(out)
    extra = {"best_epoch": result.best_epoch, "best_val_loss": result.best_value, "aborted": result.aborted}
    C.save_checkpoint(out / "checkpoint.ckpt", result.params, cfg["model"], extra=extra)
    status = "aborted (non-finite loss)" if result.aborted else "done"
    return f"pretrain {status}: best epoch {result.best_epoch}, val loss {result.best_value:.6f}"


def cmd_downstream(args, cfg, out):
    regime = REGIME_OF[args.command]
    manifest = _open_store(args)
    fold = _plan(E.plan_fold, manifest, cfg["split"], cfg["train"], args.label_fraction)
    params = None
    if regime in E.PRETRAINED_REGIMES:
        params, cfg["model"], _ = C.load_checkpoint(args.checkpoint)  # recorded as the model section
    (result,) = E.run_fold(manifest, args.store, fold, [regime], (params, cfg["model"]))
    D.write_json(out / "result.json", result.to_json())
    return f"{regime} accuracy {result.accuracy:.4f} on {result.n_test} clips ({result.n_excluded} excluded)"


def cmd_eval_cross_domain(args, cfg, out):
    regimes = args.regimes.split(",")
    manifest = _open_store(args)
    cells = _plan(
        E.cross_domain_cells, manifest, args.domain_key, regimes, cfg["model"], cfg["train"], cfg["pretrain"],
        args.label_fraction,
    )
    records = [r.to_json() for cell in cells for r in E.run_cell(manifest, args.store, cell, regimes)[1]]
    D.write_jsonl(out / "results.jsonl", records)
    macro = E.macro_average(records)
    D.write_json(out / "macro.json", macro)
    return "\n".join(f"{regime}: macro accuracy {acc:.4f}" for regime, acc in macro.items())


def cmd_sweep(args, cfg, out):
    if args.seed is not None and args.seeds is not None:
        raise CliError("--seed and --seeds both set the sweep's training seeds; give one of them")
    spec = _build(L.SweepSpec, {}, args, {"seeds": [cfg["train"].seed]})
    manifest = _open_store(args)
    cells = _plan(
        L.sweep_cells, spec, manifest, cfg["split"], cfg["model"], cfg["pretrain"], cfg["train"], args.label_fraction
    )
    rows = L.run_sweep(spec.axis, manifest, args.store, cells)
    D.write_jsonl(out / "rows.jsonl", rows)
    summary = L.summarize_rows(rows)
    (out / "summary.txt").write_text(summary + "\n", encoding="utf-8")
    return summary


def _read_table(path: Path, group_key: str) -> list:
    """The records of a run's JSON-lines table.

    A record without ``accuracy`` or ``group_key``, one whose accuracy
    is not a number, or a data_fraction row without the positive integer
    ``n_pretrain`` its log-linear fit reads, raises ``DataError`` naming
    the file and line.
    """
    records = D.read_jsonl(path)
    for line, record in enumerate(records, 1):
        missing = [k for k in (group_key, "accuracy") if k not in record]
        if missing:
            raise D.DataError(f"{path} line {line}: no {' or '.join(missing)}")
        if type(record["accuracy"]) not in (int, float):
            raise D.DataError(f"{path} line {line}: accuracy {record['accuracy']!r} is not a number")
        n = record.get("n_pretrain")
        if record.get("axis") == "data_fraction" and not (type(n) is int and n > 0):
            raise D.DataError(f"{path} line {line}: data_fraction row has no positive integer n_pretrain")
    return records


def cmd_report(args):
    run = Path(args.run_dir)
    rows_path = run / "rows.jsonl"
    results_path = run / "results.jsonl"
    if rows_path.exists():
        rows = _read_table(rows_path, "value")
        table = L.summarize_rows(rows)
        sized = [(math.log10(r["n_pretrain"]), r["accuracy"]) for r in rows if r.get("axis") == "data_fraction"]
        if sized:
            try:
                fit = L.fit_loglinear(sized)
                line = f"slope {fit.slope:.4f}  intercept {fit.intercept:.4f}  r2 {fit.r_squared:.4f}"
            except L.SweepError as e:
                line = f"none ({e})"
            table += f"\nfit of accuracy on log10 n_pretrain: {line}"
    elif results_path.exists():
        records = _read_table(results_path, "regime")
        folds = Counter(r["regime"] for r in records)
        lines = [f"{'regime':>12}  {'folds':>5}  {'macro_acc':>9}"]
        for regime, acc in E.macro_average(records).items():
            lines.append(f"{regime:>12}  {folds[regime]:>5}  {acc:9.4f}")
        table = "\n".join(lines)
    else:
        raise CliError(f"no rows.jsonl or results.jsonl under {run}")
    (run / "report.txt").write_text(table + "\n", encoding="utf-8")
    print(table)
    return 0


def cmd_grad_check(args):
    dtype = np.float64 if args.bits == 64 else np.float32
    threshold = args.threshold if args.threshold is not None else (1e-6 if args.bits == 64 else 1e-4)
    cfg = M.ModelConfig(
        variant="custom",
        enc_layers=2,
        enc_dim=8,
        enc_heads=2,
        dec_layers=1,
        dec_dim=8,
        dec_heads=2,
        patch_time=2,
        patch_freq=2,
        mask_ratio=0.5,
        input_time=6,
        input_chan=4,
    )
    model = M.MaskedAutoencoder(cfg, seed=args.seed, dtype=dtype)
    rng = np.random.default_rng(args.seed)
    # two clips, so the sums over the batch (positions, mask token, weights) are checked too
    clips = rng.standard_normal((2, 6, 4)).astype(dtype)
    plans = [M.sample_mask(cfg.n_patches, cfg.mask_ratio, [args.seed, 1, i]) for i in range(2)]
    names = sorted(model.params)

    def f(*tensors):
        loss, _ = M.MaskedAutoencoder(cfg, params=dict(zip(names, tensors))).forward_loss(clips, plans)
        return loss

    err = T.grad_check(f, [model.params[n] for n in names])
    print(f"max relative gradient error ({args.bits}-bit): {err:.3e} (threshold {threshold:.0e})")
    return 0 if err < threshold else 1


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="csimae", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    _add_command(sub, "synth-gen", cmd_synth_gen, help="generate a labeled synthetic dataset")

    p = _add_command(sub, "ingest", cmd_ingest, help="validate and catalog recording files")
    p.add_argument("--recordings", nargs="+", required=True)

    p = _add_command(sub, "clean", cmd_clean, help="QC-report recordings and/or apply a blocklist")
    p.add_argument("--recordings", nargs="*")
    p.add_argument("--store")
    p.add_argument("--blocklist", nargs="*")

    p = _add_command(sub, "harmonize", cmd_harmonize, help="recordings -> canonical clip store")
    p.add_argument("--recordings", nargs="+", required=True)

    _add_command(sub, "pretrain", cmd_pretrain, help="masked-reconstruction pretraining")

    for name, regime in REGIME_OF.items():
        p = _add_command(sub, name, cmd_downstream, help=f"{regime} downstream evaluation")
        if regime in E.PRETRAINED_REGIMES:
            p.add_argument("--checkpoint", required=True)

    p = _add_command(sub, "eval-cross-domain", cmd_eval_cross_domain, help="leave-one-domain-out folds, all regimes")
    p.add_argument("--domain-key", dest="domain_key", default="environment")
    p.add_argument("--regimes", default="supervised,lp,ft")

    p = _add_command(sub, "sweep", cmd_sweep, help="scaling/ablation sweeps")
    p.add_argument("--axis", required=True)
    p.add_argument("--values", type=_json_list, required=True, help="JSON list")
    p.add_argument("--seeds", type=_json_list, help="JSON list; default [train seed]")

    p = _add_command(sub, "report", cmd_report, help="aggregate a run directory into a table")
    p.add_argument("--run-dir", dest="run_dir", required=True)

    p = _add_command(sub, "grad-check", cmd_grad_check, help="autodiff vs finite differences on a tiny model")
    p.add_argument("--bits", type=int, choices=[32, 64], default=32)
    p.add_argument("--threshold", type=float)
    p.add_argument("--seed", type=int, default=0)

    return parser


def _run(args) -> str:
    """The run lifecycle; the record holds ``cfg`` as the command leaves it (finetune and probe
    add the checkpoint's model). A failure empties --out, removes it and each parent it created
    that is empty (other runs may share one), and propagates."""
    cfg = _configs(args)
    out = Path(args.out)
    if out.is_dir() and any(out.iterdir()):
        raise CliError(f"output directory {out} already exists and is not empty")
    made = [p for p in [out, *out.parents] if not p.exists()]  # --out, then up
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:  # such as an --out that names a file
        raise CliError(f"cannot make output directory {out}: {e}") from e
    try:
        summary = args.func(args, cfg, out)
        _persist_run(out, args.command, cfg, args)
    except BaseException:
        for p in list(out.iterdir()):
            if p.is_dir() and not p.is_symlink():
                shutil.rmtree(p)
            else:
                p.unlink()
        for p in made:
            try:
                p.rmdir()
            except OSError:
                break
        raise
    return summary


def _terminate(signum, frame):
    """SIGTERM during a run: leave through the lifecycle's failure path, as an interrupt does."""
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command not in COMMAND_SECTIONS:
            return args.func(args)
        handles = threading.current_thread() is threading.main_thread()  # only it may set a handler
        previous = signal.signal(signal.SIGTERM, _terminate) if handles else None
        try:
            summary = _run(args)
        finally:
            if handles:
                signal.signal(signal.SIGTERM, previous)
        print(summary)
        return 0
    except CliError as e:
        print(json.dumps({"error": "config", "message": str(e)}), file=sys.stderr)
        return 2
    except Exception as e:  # noqa: BLE001 - boundary: emit machine-readable record
        print(json.dumps({"error": type(e).__name__, "message": str(e)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
