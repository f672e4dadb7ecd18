"""Command-line entry point.

Every run resolves its configuration (defaults < config file < environment
< flags), writes the resolved merge next to its outputs, and checksums
everything it produced, so a run directory is reproducible from its own
resolved_config.json plus the input store.

Environment variables are limited to CSIMAE_THREADS (BLAS/OpenMP thread
cap, applied before numpy loads) and CSIMAE_OUT_ROOT (prefix for
relative --out paths).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
from pathlib import Path


class CliError(ValueError):
    pass


def _apply_threads(argv):
    """Set thread env vars before numpy is imported anywhere.

    ``--threads N`` and ``--threads=N`` override CSIMAE_THREADS; the value
    must be a positive integer.
    """
    threads = os.environ.get("CSIMAE_THREADS") or None
    for i, arg in enumerate(argv):
        if arg == "--threads":
            threads = argv[i + 1] if i + 1 < len(argv) else ""
        elif arg.startswith("--threads="):
            threads = arg.partition("=")[2]
    if threads is None:
        return
    if not (threads.isdecimal() and int(threads) > 0):
        raise CliError(f"--threads / CSIMAE_THREADS needs a positive integer, got {threads!r}")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads


def _out_dir(path: str) -> Path:
    root = os.environ.get("CSIMAE_OUT_ROOT", "")
    out = Path(root) / path if root and not os.path.isabs(path) else Path(path)
    if out.exists() and any(out.iterdir()):
        raise CliError(f"output directory {out} already exists and is not empty")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_sections(config_path: str | None) -> dict:
    if not config_path:
        return {}
    doc = json.loads(Path(config_path).read_text(encoding="utf-8"))
    return doc.get("sections", doc)


def _build(cls, section: dict, overrides: dict):
    """Merge file section < flag overrides into a config dataclass."""
    merged = dict(section)
    merged.update({k: v for k, v in overrides.items() if v is not None})
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(merged) - names)
    if unknown:
        raise CliError(f"unknown {cls.__name__} keys: {', '.join(unknown)}")
    try:
        obj = cls(**merged)
    except (TypeError, ValueError) as e:
        raise CliError(f"invalid {cls.__name__}: {e}") from e
    validate = getattr(obj, "validate", None)
    if validate:
        validate()
    return obj


def _persist_run(out: Path, command: str, sections: dict, args_rec: dict):
    doc = {"command": command, "args": args_rec, "sections": sections}
    (out / "resolved_config.json").write_text(json.dumps(doc, indent=2, sort_keys=True), encoding="utf-8")
    lines = []
    for p in sorted(out.rglob("*")):
        if p.is_file() and p.name != "checksums.txt":
            digest = hashlib.sha256(p.read_bytes()).hexdigest()
            lines.append(f"{digest}  {p.relative_to(out)}")
    (out / "checksums.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")


def _section(cfg) -> dict:
    d = dataclasses.asdict(cfg)
    return {k: (list(v) if isinstance(v, tuple) else v) for k, v in d.items()}


def _load_store(args):
    from . import data as D

    manifest = (
        D.DatasetManifest.from_json(Path(args.manifest).read_text(encoding="utf-8"))
        if getattr(args, "manifest", None)
        else D.DatasetManifest.load(args.store)
    )
    return args.store, manifest


def _model_overrides(args) -> dict:
    return {
        "variant": args.variant,
        "patch_time": args.patch_time,
        "patch_freq": args.patch_freq,
        "mask_ratio": args.mask_ratio,
        "dec_layers": args.dec_layers,
        "dec_dim": args.dec_dim,
        "dec_heads": args.dec_heads,
    }


def _train_overrides(args, batch_default=None) -> dict:
    out = {
        "peak_lr": args.lr,
        "warmup_steps": args.warmup_steps,
        "batch_size": args.batch_size if args.batch_size is not None else batch_default,
        "weight_decay": args.weight_decay,
        "max_epochs": args.max_epochs,
        "early_stop_patience": args.patience,
        "seed": args.seed,
        "val_fraction": args.val_fraction,
    }
    return out


def _add_model_flags(p):
    p.add_argument("--variant", choices=["tiny", "small", "base", "large", "custom"])
    p.add_argument("--patch-time", type=int, dest="patch_time")
    p.add_argument("--patch-freq", type=int, dest="patch_freq")
    p.add_argument("--mask-ratio", type=float, dest="mask_ratio")
    p.add_argument("--dec-layers", type=int, dest="dec_layers")
    p.add_argument("--dec-dim", type=int, dest="dec_dim")
    p.add_argument("--dec-heads", type=int, dest="dec_heads")


def _add_train_flags(p):
    p.add_argument("--lr", type=float)
    p.add_argument("--warmup-steps", type=int, dest="warmup_steps")
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--weight-decay", type=float, dest="weight_decay")
    p.add_argument("--max-epochs", type=int, dest="max_epochs")
    p.add_argument("--patience", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--val-fraction", type=float, dest="val_fraction")


def _add_common(p):
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.add_argument("--threads", help="BLAS/OpenMP thread cap")


# ---------------------------------------------------------------------
# subcommands


def cmd_synth_gen(args):
    from . import harmonize as H
    from . import qc as Q
    from . import synth as S

    sections = _load_sections(args.config)
    task = _build(
        S.SynthTaskSpec,
        sections.get("task", {}),
        {
            "seed": args.seed,
            "n_classes": args.classes,
            "n_environments": args.environments,
            "n_subjects": args.subjects,
            "clips_per_cell": args.clips_per_cell,
        },
    )
    hcfg = _build(H.HarmonizeConfig, sections.get("harmonize", {}), {})
    qcfg = _build(Q.QcConfig, sections.get("qc", {}), {})
    out = _out_dir(args.out)
    manifest = S.generate_task(task, out / "store", hcfg, qcfg, dataset_name=args.name)
    _persist_run(
        out,
        "synth-gen",
        {"task": _section(task), "harmonize": _section(hcfg), "qc": _section(qcfg)},
        {"out": str(out), "name": args.name},
    )
    print(f"wrote {len(manifest.entries)} clips to {out / 'store'}")
    return 0


def cmd_ingest(args):
    from . import data as D

    out = _out_dir(args.out)
    rec_dir = out / "recordings"
    rec_dir.mkdir()
    index = []
    for path in args.recordings:
        rec = D.load_recording(path)
        dest = rec_dir / Path(path).name
        dest.write_bytes(Path(path).read_bytes())
        index.append(
            {
                "file": dest.name,
                "source_id": rec.source_id,
                "labels": rec.labels,
                "shape": list(rec.data.shape),
                "sampling_rate": rec.sampling_rate,
                "bandwidth": rec.bandwidth,
            }
        )
    (out / "index.json").write_text(json.dumps(index, indent=2, sort_keys=True), encoding="utf-8")
    _persist_run(out, "ingest", {}, {"out": str(out), "recordings": [str(r) for r in args.recordings]})
    print(f"ingested {len(index)} recordings into {rec_dir}")
    return 0


def cmd_clean(args):
    from . import data as D
    from . import harmonize as H
    from . import qc as Q

    sections = _load_sections(args.config)
    qcfg = _build(
        Q.QcConfig,
        sections.get("qc", {}),
        {"max_missing_fraction": args.max_missing_fraction, "outlier_k": args.outlier_k},
    )
    hcfg = _build(H.HarmonizeConfig, sections.get("harmonize", {}), {})
    out = _out_dir(args.out)
    reports = []
    for path in args.recordings or []:
        rec = D.load_recording(path)
        report = Q.QcReport(source_id=rec.source_id)
        links = H.extract_links(rec, hcfg)
        slices = H.window_slices(rec.n_t, rec.sampling_rate, hcfg)
        for link in links:
            for start, n in slices:
                _, window_qc = Q.clean_window(link.data[start : start + n], qcfg)
                report.add_window(window_qc)
        reports.append(report.finalize())
    if reports:
        Q.write_reports(reports, out / "qc_report.jsonl")
    if args.store:
        manifest = D.DatasetManifest.load(args.store)
        filtered, log = Q.apply_blocklist(manifest, args.blocklist or [])
        (out / "manifest.json").write_text(filtered.to_json(), encoding="utf-8")
        (out / "blocklist_log.json").write_text(json.dumps(log, indent=2, sort_keys=True), encoding="utf-8")
        for w in log["warnings"]:
            print(f"warning: {w}", file=sys.stderr)
    _persist_run(out, "clean", {"qc": _section(qcfg)}, {"out": str(out), "blocklist": args.blocklist or []})
    print(f"clean outputs in {out}")
    return 0


def cmd_harmonize(args):
    from . import data as D
    from . import harmonize as H
    from . import qc as Q

    sections = _load_sections(args.config)
    hcfg = _build(
        H.HarmonizeConfig,
        sections.get("harmonize", {}),
        {"window_seconds": args.window_seconds, "stride_seconds": args.stride_seconds},
    )
    qcfg = _build(Q.QcConfig, sections.get("qc", {}), {})
    out = _out_dir(args.out)
    clips, reports = [], []
    for path in args.recordings:
        rec = D.load_recording(path)
        rec_clips, report = H.harmonize_recording(rec, hcfg, qcfg)
        clips.extend(rec_clips)
        reports.append(report)
    if not clips:
        raise CliError("harmonization produced no clips (all windows dropped or too short)")
    manifest = D.write_clip_store(clips, out / "store", n_workers=args.workers)
    Q.write_reports(reports, out / "qc_report.jsonl")
    _persist_run(
        out,
        "harmonize",
        {"harmonize": _section(hcfg), "qc": _section(qcfg)},
        {"out": str(out), "recordings": [str(r) for r in args.recordings], "workers": args.workers},
    )
    print(f"wrote {len(manifest.entries)} clips from {len(args.recordings)} recordings")
    return 0


def cmd_pretrain(args):
    from . import data as D
    from . import mae as M
    from . import training as R

    sections = _load_sections(args.config)
    model_cfg = _build(M.ModelConfig, sections.get("model", {}), _model_overrides(args))
    tcfg = _build(R.TrainConfig, sections.get("train", {}), _train_overrides(args))
    store, manifest = _load_store(args)
    out = _out_dir(args.out)
    result = R.pretrain(manifest, store, model_cfg, tcfg, run_dir=out)
    _persist_run(
        out,
        "pretrain",
        {"model": _section(model_cfg), "train": _section(tcfg)},
        {"out": str(out), "store": str(args.store), "manifest": args.manifest},
    )
    status = "aborted (non-finite loss)" if result.aborted else "done"
    print(f"pretrain {status}: best epoch {result.best_epoch}, val loss {result.best_val_loss:.6f}")
    return 0


def _run_downstream(args, regime: str):
    from . import checkpoint as C
    from . import data as D
    from . import evaluate as E
    from . import mae as M
    from . import training as R

    sections = _load_sections(args.config)
    tcfg = _build(R.TrainConfig, sections.get("train", {}), _train_overrides(args, batch_default=32))
    store, manifest = _load_store(args)
    split = _build(
        D.SplitSpec,
        sections.get("split", {}),
        {
            "protocol": args.protocol,
            "domain_key": args.domain_key,
            "held_out_value": args.held_out,
            "seed": args.seed,
        },
    )
    train_ids, test_ids = D.make_split(manifest, split)
    train_clips = D.load_clips(store, manifest, train_ids)
    test_clips = D.load_clips(store, manifest, test_ids)
    labeled = E.select_labeled(train_clips, args.label_fraction, tcfg.seed)

    ckpt = None
    model_cfg = None
    if regime in ("ft", "lp"):
        if not args.checkpoint:
            raise CliError(f"regime {regime} requires --checkpoint")
        params, model_cfg, _ = C.load_checkpoint(args.checkpoint)
        ckpt = (params, model_cfg)
    else:
        model_cfg = _build(M.ModelConfig, sections.get("model", {}), _model_overrides(args))

    classes = sorted({c.labels.get("class") for c in labeled})
    head_cfg = E.HeadConfig(n_classes=len(classes))
    out = _out_dir(args.out)
    result = E.run_regime(
        regime,
        ckpt,
        labeled,
        test_clips,
        head_cfg,
        tcfg,
        model_cfg=model_cfg,
        split_desc={"protocol": split.protocol, "domain_key": split.domain_key, "held_out_value": split.held_out_value},
    )
    (out / "result.json").write_text(json.dumps(result.to_json(), indent=2, sort_keys=True), encoding="utf-8")
    _persist_run(
        out,
        regime,
        {"train": _section(tcfg), "model": _section(model_cfg), "split": _section(split)},
        {"out": str(out), "store": str(args.store), "checkpoint": args.checkpoint, "label_fraction": args.label_fraction},
    )
    print(f"{regime} accuracy {result.accuracy:.4f} on {result.n_test} clips ({result.n_excluded} excluded)")
    return 0


def cmd_eval_cross_domain(args):
    from . import evaluate as E
    from . import mae as M
    from . import training as R

    sections = _load_sections(args.config)
    model_cfg = _build(M.ModelConfig, sections.get("model", {}), _model_overrides(args))
    tcfg = _build(R.TrainConfig, sections.get("train", {}), _train_overrides(args, batch_default=32))
    pcfg = _build(R.TrainConfig, sections.get("pretrain", sections.get("train", {})), {})
    store, manifest = _load_store(args)
    regimes = args.regimes.split(",")
    out = _out_dir(args.out)
    classes = len(manifest.label_values("class"))
    results = E.cross_domain_suite(
        manifest,
        store,
        args.domain_key,
        regimes,
        model_cfg,
        E.HeadConfig(n_classes=classes),
        tcfg,
        pretrain_cfg=pcfg,
        label_fraction=args.label_fraction,
    )
    with open(out / "results.jsonl", "w", encoding="utf-8") as fh:
        for r in results:
            fh.write(json.dumps(r.to_json(), sort_keys=True) + "\n")
    macro = E.macro_average(results)
    (out / "macro.json").write_text(json.dumps(macro, indent=2, sort_keys=True), encoding="utf-8")
    _persist_run(
        out,
        "eval-cross-domain",
        {"model": _section(model_cfg), "train": _section(tcfg), "pretrain": _section(pcfg)},
        {"out": str(out), "store": str(args.store), "domain_key": args.domain_key, "regimes": regimes},
    )
    for regime, acc in macro.items():
        print(f"{regime}: macro accuracy {acc:.4f}")
    return 0


def cmd_sweep(args):
    from . import evaluate as E
    from . import mae as M
    from . import scaling as L
    from . import training as R
    from . import data as D

    sections = _load_sections(args.config)
    model_cfg = _build(M.ModelConfig, sections.get("model", {}), _model_overrides(args))
    tcfg = _build(R.TrainConfig, sections.get("train", {}), _train_overrides(args, batch_default=32))
    pcfg = _build(R.TrainConfig, sections.get("pretrain", sections.get("train", {})), {})
    store, manifest = _load_store(args)
    spec = L.SweepSpec(
        axis=args.axis,
        values=json.loads(args.values),
        seeds=json.loads(args.seeds),
    ).validate()
    values = [tuple(v) if isinstance(v, list) else v for v in spec.values]
    spec.values = values
    classes = len(manifest.label_values("class"))
    ctx = L.SweepContext(
        store_dir=store,
        manifest=manifest,
        domain_key=args.domain_key,
        held_out_value=args.held_out,
        model_cfg=model_cfg,
        head_cfg=E.HeadConfig(n_classes=classes),
        pretrain_cfg=pcfg,
        train_cfg=tcfg,
        label_fraction=args.label_fraction,
    )
    if args.exclude_store:
        ctx.exclude_store_dir = args.exclude_store
        ctx.exclude_manifest = D.DatasetManifest.load(args.exclude_store)
    out = _out_dir(args.out)
    rows = L.run_sweep(spec, ctx)
    L.save_rows(rows, out / "rows.jsonl")
    (out / "summary.txt").write_text(L.summarize_rows(rows) + "\n", encoding="utf-8")
    _persist_run(
        out,
        "sweep",
        {"model": _section(model_cfg), "train": _section(tcfg), "pretrain": _section(pcfg)},
        {
            "out": str(out),
            "store": str(args.store),
            "axis": args.axis,
            "values": args.values,
            "seeds": args.seeds,
            "domain_key": args.domain_key,
            "held_out": args.held_out,
        },
    )
    print(L.summarize_rows(rows))
    return 0


def cmd_report(args):
    from . import scaling as L

    run = Path(args.run_dir)
    rows_path = run / "rows.jsonl"
    results_path = run / "results.jsonl"
    if rows_path.exists():
        table = L.summarize_rows(L.load_rows(rows_path))
    elif results_path.exists():
        records = L.load_rows(results_path)
        groups = {}
        for r in records:
            groups.setdefault(r["regime"], []).append(r["accuracy"])
        lines = [f"{'regime':>12}  {'folds':>5}  {'macro_acc':>9}"]
        import numpy as np

        for regime in sorted(groups):
            lines.append(f"{regime:>12}  {len(groups[regime]):>5}  {np.mean(groups[regime]):9.4f}")
        table = "\n".join(lines)
    else:
        raise CliError(f"no rows.jsonl or results.jsonl under {run}")
    (run / "report.txt").write_text(table + "\n", encoding="utf-8")
    print(table)
    return 0


def cmd_grad_check(args):
    from . import mae as M
    from . import tensors as T

    import numpy as np

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
    clips = rng.standard_normal((1, 6, 4)).astype(dtype)
    plans = [M.sample_mask(cfg.n_patches, cfg.mask_ratio, [args.seed, 1])]
    names = sorted(model.params)

    def f(*tensors):
        loss, _ = model.forward_loss(clips, plans, params=dict(zip(names, tensors)))
        return loss

    err = T.grad_check(f, [model.params[n] for n in names])
    print(f"max relative gradient error ({args.bits}-bit): {err:.3e} (threshold {threshold:.0e})")
    return 0 if err < threshold else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="csimae", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth-gen", help="generate a labeled synthetic dataset")
    _add_common(p)
    p.add_argument("--seed", type=int)
    p.add_argument("--classes", type=int)
    p.add_argument("--environments", type=int)
    p.add_argument("--subjects", type=int)
    p.add_argument("--clips-per-cell", type=int, dest="clips_per_cell")
    p.add_argument("--name", default="synth")
    p.set_defaults(func=cmd_synth_gen)

    p = sub.add_parser("ingest", help="validate and catalog recording files")
    _add_common(p)
    p.add_argument("--recordings", nargs="+", required=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("clean", help="QC-report recordings and/or apply a blocklist")
    _add_common(p)
    p.add_argument("--recordings", nargs="*")
    p.add_argument("--store")
    p.add_argument("--blocklist", nargs="*")
    p.add_argument("--max-missing-fraction", type=float, dest="max_missing_fraction")
    p.add_argument("--outlier-k", type=float, dest="outlier_k")
    p.set_defaults(func=cmd_clean)

    p = sub.add_parser("harmonize", help="recordings -> canonical clip store")
    _add_common(p)
    p.add_argument("--recordings", nargs="+", required=True)
    p.add_argument("--window-seconds", type=float, dest="window_seconds")
    p.add_argument("--stride-seconds", type=float, dest="stride_seconds")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_harmonize)

    p = sub.add_parser("pretrain", help="masked-reconstruction pretraining")
    _add_common(p)
    p.add_argument("--store", required=True)
    p.add_argument("--manifest")
    _add_model_flags(p)
    _add_train_flags(p)
    p.set_defaults(func=cmd_pretrain)

    for regime, name in (("ft", "finetune"), ("lp", "probe"), ("supervised", "supervised")):
        p = sub.add_parser(name, help=f"{regime} downstream evaluation")
        _add_common(p)
        p.add_argument("--store", required=True)
        p.add_argument("--manifest")
        p.add_argument("--checkpoint")
        p.add_argument("--protocol", default="leave_one_domain_out")
        p.add_argument("--domain-key", dest="domain_key", default="environment")
        p.add_argument("--held-out", dest="held_out")
        p.add_argument("--label-fraction", type=float, dest="label_fraction", default=1.0)
        _add_model_flags(p)
        _add_train_flags(p)
        p.set_defaults(func=lambda a, r=regime: _run_downstream(a, r))

    p = sub.add_parser("eval-cross-domain", help="leave-one-domain-out folds, all regimes")
    _add_common(p)
    p.add_argument("--store", required=True)
    p.add_argument("--manifest")
    p.add_argument("--domain-key", dest="domain_key", default="environment")
    p.add_argument("--regimes", default="supervised,lp,ft")
    p.add_argument("--label-fraction", type=float, dest="label_fraction", default=1.0)
    _add_model_flags(p)
    _add_train_flags(p)
    p.set_defaults(func=cmd_eval_cross_domain)

    p = sub.add_parser("sweep", help="scaling/ablation sweeps")
    _add_common(p)
    p.add_argument("--store", required=True)
    p.add_argument("--manifest")
    p.add_argument("--axis", required=True)
    p.add_argument("--values", required=True, help="JSON list")
    p.add_argument("--seeds", default="[0]", help="JSON list")
    p.add_argument("--domain-key", dest="domain_key", default="environment")
    p.add_argument("--held-out", dest="held_out", required=True)
    p.add_argument("--label-fraction", type=float, dest="label_fraction", default=1.0)
    p.add_argument("--exclude-store", dest="exclude_store")
    _add_model_flags(p)
    _add_train_flags(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("report", help="aggregate a run directory into a table")
    p.add_argument("--run-dir", dest="run_dir", required=True)
    p.add_argument("--threads")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("grad-check", help="autodiff vs finite differences on a tiny model")
    p.add_argument("--bits", type=int, choices=[32, 64], default=32)
    p.add_argument("--threshold", type=float)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads")
    p.set_defaults(func=cmd_grad_check)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        _apply_threads(argv)
        args = build_parser().parse_args(argv)
        return args.func(args)
    except CliError as e:
        print(json.dumps({"error": "config", "message": str(e)}), file=sys.stderr)
        return 2
    except Exception as e:  # noqa: BLE001 - boundary: emit machine-readable record
        print(json.dumps({"error": type(e).__name__, "message": str(e)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
