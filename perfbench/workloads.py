"""The four benchmark workloads: set-up, one closed-loop trial, checks.

Every workload builds its inputs from the seed alone, runs the library
on them in a closed loop (the next trial starts when the previous one
has returned), and checks the outputs.  A trial is a fixed amount of
work, so every trial of a run must give the same digest.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from csimae import checkpoint as C
from csimae import data as D
from csimae import evaluate as E
from csimae import harmonize as H
from csimae import mae as M
from csimae import qc as Q
from csimae import synth as Y
from csimae import tensors as T
from csimae import training as R


class CheckFailed(AssertionError):
    """An output of the library is wrong."""


@dataclass
class Trial:
    seconds: float  # library time of the trial
    clips: float  # clips the trial processed (throughput numerator)
    digest: str
    attempted: int
    failed: int
    info: dict = field(default_factory=dict)


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else json.dumps(p, sort_keys=True).encode())
    return h.hexdigest()[:16]


def _params_digest(params: dict) -> bytes:
    return b"".join(k.encode() + params[k].data.tobytes() for k in sorted(params))


def desk_model(size: str) -> M.ModelConfig:
    """The desk shape: tiny encoder 6x192, patch 100x15 (36 patches, 8 visible), decoder 2x128."""
    if size == "tiny":
        return M.ModelConfig(variant="custom", enc_layers=1, enc_dim=32, enc_heads=2,
                             dec_layers=1, dec_dim=32, dec_heads=2, patch_time=100, patch_freq=15)
    return M.ModelConfig(variant="tiny", patch_time=100, patch_freq=15, dec_layers=2, dec_dim=128, dec_heads=4)


def small_model(size: str) -> M.ModelConfig:
    """The paper's `small` shape: encoder 8x384, patch 30x3 (600 patches, 120 visible), decoder 4x512."""
    if size == "tiny":
        return M.ModelConfig(variant="custom", enc_layers=1, enc_dim=32, enc_heads=2,
                             dec_layers=1, dec_dim=32, dec_heads=2)
    return M.ModelConfig(variant="small")


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# ---------------------------------------------------------------------
# pretraining


class Pretrain:
    """``training.pretrain_arrays`` for a fixed number of steps on synthetic clips.

    The training pool is exactly one batch, so each epoch is one step
    followed by one validation pass, and a trial is ``steps`` steps from
    the same initial parameters.
    """

    def __init__(self, seed, workdir, model_cfg, batch, n_val, steps, task, lr):
        self.seed, self.workdir = seed, workdir
        self.model_cfg, self.batch, self.n_val, self.steps, self.task = model_cfg, batch, n_val, steps, task
        n = batch + n_val
        self.train_cfg = R.TrainConfig(
            peak_lr=lr, warmup_steps=1, batch_size=batch, max_epochs=steps,
            early_stop_patience=steps, seed=seed, val_fraction=n_val / n,
        )

    def setup(self):
        spec = Y.SynthTaskSpec(seed=self.seed, **self.task)
        store = _fresh(self.workdir / "store")
        manifest = Y.generate_task(spec, store)
        self.x, _ = D.stack_clips(D.load_clips(store, manifest))
        if len(self.x) != self.batch + self.n_val:
            raise CheckFailed(f"synthesized {len(self.x)} clips, expected {self.batch + self.n_val}")

    def warm(self):
        """One step (AdamW at lr 0) on a model that is dropped afterwards, so
        the trials reuse the memory it touched."""
        cfg = self.model_cfg
        model = M.MaskedAutoencoder(cfg, seed=[self.seed, 0])
        plans = [M.sample_mask(cfg.n_patches, cfg.mask_ratio, [self.seed, 9, i]) for i in range(self.batch)]
        loss, _ = model.forward_loss(self.x[: self.batch], plans)
        loss.backward()
        R.AdamW(model.params, self.train_cfg).step(0.0)

    def trial(self) -> Trial:
        t0 = time.perf_counter()
        res = R.pretrain_arrays(self.x, self.model_cfg, self.train_cfg)
        seconds = time.perf_counter() - t0
        losses = [s["train_loss"] for s in res.metrics.steps]
        val = [e["val_loss"] for e in res.metrics.epochs]
        finite = sum(1 for v in losses if math.isfinite(v))
        return Trial(
            seconds=seconds,
            clips=float(self.batch * len(res.metrics.epochs)),
            digest=_sha(losses, val, _params_digest(res.params)),
            attempted=self.steps,
            failed=self.steps - finite,
            info={"train_losses": losses, "val_losses": val, "aborted": res.aborted},
        )

    def initial_val_loss(self) -> float:
        """Masked val loss before any step, on the split and masks ``pretrain_arrays`` uses."""
        order = np.random.default_rng([self.seed, 1]).permutation(len(self.x))
        val_x = self.x[order[: self.n_val]]
        model = M.MaskedAutoencoder(self.model_cfg, seed=[self.seed, 0])
        plans = R.val_mask_plans(self.model_cfg, self.n_val, self.seed)
        return R.masked_val_loss(model, val_x, plans, self.batch)

    def check(self, trials) -> dict:
        first = trials[0].info
        if first["aborted"] or len(first["train_losses"]) != self.steps:
            raise CheckFailed(f"pretraining stopped after {len(first['train_losses'])} of {self.steps} steps")
        if not all(math.isfinite(v) for v in first["train_losses"] + first["val_losses"]):
            raise CheckFailed(f"non-finite loss: {first}")
        start = self.initial_val_loss()
        final = first["val_losses"][-1]
        if not final < start:
            raise CheckFailed(f"val loss did not fall: {start} -> {final}")
        return {"pretrain_val_loss": final, "initial_val_loss": start, "train_losses": first["train_losses"]}

    def throughput(self, trials) -> dict:
        return {"pretrain_clips_per_s": _median_rate(trials)}


# ---------------------------------------------------------------------
# downstream


class Finetune:
    """``run_regime("ft")`` then ``run_regime("lp")`` on the env2 hold-out,
    then ``encode_features`` over every clip for inference throughput."""

    def __init__(self, seed, workdir, model_cfg, clips_per_cell, epochs, batch=32):
        self.seed, self.workdir, self.model_cfg = seed, workdir, model_cfg
        self.clips_per_cell, self.epochs, self.batch = clips_per_cell, epochs, batch
        self.head = E.HeadConfig(n_classes=3)
        # a third of the labeled pool is the early-stopping slice, so a fit epoch is whole batches
        self.train_cfg = R.TrainConfig(
            peak_lr=1e-4, warmup_steps=1, batch_size=batch, max_epochs=epochs,
            early_stop_patience=epochs, seed=seed, val_fraction=1 / 3,
        )

    def setup(self):
        spec = Y.SynthTaskSpec(seed=self.seed, clips_per_cell=self.clips_per_cell)
        store = _fresh(self.workdir / "store")
        manifest = Y.generate_task(spec, store)
        split = D.SplitSpec("leave_one_domain_out", "environment", "env2")
        train_ids, test_ids = D.make_split(manifest, split)
        self.train = D.load_clips(store, manifest, train_ids)
        self.test = D.load_clips(store, manifest, test_ids)
        self.x_all, _ = D.stack_clips(self.train + self.test)
        self.n_held_out = sum(1 for e in manifest.entries if e.labels["environment"] == "env2")
        ckpt = self.workdir / "encoder.ckpt"
        C.save_checkpoint(ckpt, M.init_params(self.model_cfg, seed=[self.seed, 0]), self.model_cfg)
        self.params, cfg, _ = C.load_checkpoint(ckpt)
        if cfg != self.model_cfg:
            raise CheckFailed("checkpoint round trip changed the model config")

    def warm(self):
        model = M.MaskedAutoencoder(self.model_cfg, params=C.clone_params(self.params))
        T.sum_(model.encode_features(self.x_all[: self.batch])).backward()

    def trial(self) -> Trial:
        ckpt = (self.params, self.model_cfg)
        t0 = time.perf_counter()
        ft = E.run_regime("ft", ckpt, self.train, self.test, self.head, self.train_cfg, batch_size=self.batch)
        t1 = time.perf_counter()
        lp = E.run_regime("lp", ckpt, self.train, self.test, self.head, self.train_cfg, batch_size=self.batch)
        t2 = time.perf_counter()
        feats = E.encode_features(self.params, self.model_cfg, self.x_all)
        t3 = time.perf_counter()
        labeled = len(self.train) * self.epochs
        bad = [r.regime for r in (ft, lp) if not (0.0 <= r.accuracy <= 1.0 and r.n_test == self.n_held_out)]
        bad += ["infer"] * int(not np.isfinite(feats).all() or feats.shape != (len(self.x_all), self.model_cfg.enc_dim))
        return Trial(
            seconds=t2 - t0,
            clips=2.0 * labeled,
            digest=_sha([ft.to_json(), lp.to_json()], feats.tobytes()),
            attempted=3,
            failed=len(bad),
            info={
                "ft": ft.to_json(), "lp": lp.to_json(), "bad": bad,
                "ft_clips_per_s": labeled / (t1 - t0),
                "lp_clips_per_s": labeled / (t2 - t1),
                "infer_clips_per_s": len(self.x_all) / (t3 - t2),
            },
        )

    def check(self, trials) -> dict:
        first = trials[0].info
        if first["bad"]:
            raise CheckFailed(f"invalid downstream results for {first['bad']}: {first}")
        return {
            "ft_accuracy": first["ft"]["accuracy"], "lp_accuracy": first["lp"]["accuracy"],
            "n_test": first["ft"]["n_test"], "n_held_out": self.n_held_out,
        }

    def throughput(self, trials) -> dict:
        med = lambda k: float(np.median([t.info[k] for t in trials]))
        return {
            "finetune_clips_per_s": _median_rate(trials),
            "ft_clips_per_s": med("ft_clips_per_s"),
            "lp_clips_per_s": med("lp_clips_per_s"),
            "infer_clips_per_s": med("infer_clips_per_s"),
        }


# ---------------------------------------------------------------------
# ingest


WINDOW = 200  # packets in a 2 s QC window at 100 Hz
STRIDE = 100


@dataclass
class FaultPlan:
    """Faults injected into one recording and the QC outcome they imply."""

    nulls: np.ndarray  # packet indices set to NaN+NaNj
    dead: tuple  # (window index, antenna) held constant for that whole window
    spikes: list  # (packet, antenna, subcarrier)

    def expected(self, n_windows):
        """Per window: (verdict, missing fraction, spikes inside) in clean_window's order."""
        out = []
        for w in range(n_windows):
            lo, hi = w * STRIDE, w * STRIDE + WINDOW
            n_null = int(((self.nulls >= lo) & (self.nulls < hi)).sum())
            frac = n_null / WINDOW
            if frac > Q.QcConfig().max_missing_fraction:
                verdict = "missing"
            elif self.dead[0] == w:
                verdict = "antenna"
            else:
                verdict = "filled" if n_null else "kept"
            spikes = sum(1 for t, _, _ in self.spikes if lo <= t < hi)
            out.append((verdict, frac, spikes))
        return out


def inject_faults(rec: D.ChannelRecording, rng, n_windows: int) -> FaultPlan:
    """One heavy null burst (drops one window), one light burst (filled),
    one dead-antenna window (dropped) and a dozen amplitude spikes."""
    w_dead, w_heavy = (int(v) for v in rng.choice(n_windows, 2, replace=False))
    heavy = np.arange(w_heavy * STRIDE + STRIDE - 12, w_heavy * STRIDE + STRIDE + 12)
    start = int(rng.integers(0, rec.n_t - 6))
    nulls = np.union1d(heavy, np.arange(start, start + 6))
    antenna = int(rng.integers(0, rec.n_apr))
    dead_rows = range(w_dead * STRIDE, w_dead * STRIDE + WINDOW)
    rec.data[w_dead * STRIDE : w_dead * STRIDE + WINDOW, antenna] = 0.05
    spikes = []
    while len(spikes) < 12:
        t, a, f = int(rng.integers(0, rec.n_t)), int(rng.integers(0, rec.n_apr)), int(rng.integers(0, rec.n_f))
        if t in nulls or (a == antenna and t in dead_rows) or (t, a, f) in spikes:
            continue
        spikes.append((t, a, f))
        rec.data[t, a, :, f] = 50.0
    rec.data[nulls] = complex(np.nan, np.nan)
    return FaultPlan(nulls=nulls, dead=(w_dead, antenna), spikes=spikes)


class Ingest:
    """Recording file -> harmonized, QC'd clips -> clip store -> read back.

    Each recording (10 s at 40 MHz from ``simulate_cfr``, with injected
    faults) goes through ``save_recording``, ``load_recording``,
    ``harmonize_recording``, ``write_clip_store`` and ``load_clips`` in
    turn; a trial is one pass over the pool.
    """

    def __init__(self, seed, workdir, n_recordings, seconds_long):
        self.seed, self.workdir = seed, workdir
        self.n_recordings, self.n_packets = n_recordings, int(seconds_long * 100)
        self.n_windows = (self.n_packets - WINDOW) // STRIDE + 1

    def setup(self):
        spec = Y.SynthTaskSpec(seed=self.seed, n_packets=self.n_packets, n_f=60, bandwidth=40e6)
        cells = list(spec.cells())
        self.pool, self.plans = [], []
        for r in range(self.n_recordings):
            scene, labels = Y.scene_for_clip(spec, cells[r % len(cells)], r)
            rec = Y.simulate_cfr(scene)
            rec.labels, rec.source_id = labels, f"ingest-{r:03d}"
            self.plans.append(inject_faults(rec, np.random.default_rng([self.seed, 31, r]), self.n_windows))
            self.pool.append(rec)
        _fresh(self.workdir / "ingest")

    def warm(self):
        pass  # nothing is cached between recordings

    def trial(self) -> Trial:
        root = self.workdir / "ingest"
        seconds, clips, failed = 0.0, 0, 0
        h = hashlib.sha256()
        for r, rec in enumerate(self.pool):
            path, store = root / f"rec-{r:03d}.csir", root / f"store-{r:03d}"
            t0 = time.perf_counter()
            D.save_recording(rec, path)
            back = D.load_recording(path)
            out, report = H.harmonize_recording(back)
            if out:
                manifest = D.write_clip_store(out, store)
                stored = D.load_clips(store, manifest)
            seconds += time.perf_counter() - t0
            if not out:
                failed += 1
                continue
            self._check_round_trip(rec, back, out, stored, report, self.plans[r])
            clips += len(stored)
            for c in stored:
                h.update(c.clip_id.encode() + c.data.tobytes())
        return Trial(seconds=seconds, clips=float(clips), digest=h.hexdigest()[:16],
                     attempted=len(self.pool), failed=failed)

    def _check_round_trip(self, rec, back, clips, stored, report, plan):
        if back.data.tobytes() != rec.data.tobytes() or back.labels != rec.labels or back.source_id != rec.source_id:
            raise CheckFailed(f"{rec.source_id}: recording read back differs from what was written")
        for a, b in zip(clips, stored):
            if a.clip_id != b.clip_id or a.labels != b.labels or a.data.tobytes() != b.data.tobytes():
                raise CheckFailed(f"{a.clip_id}: clip read back differs from what was written")
        exp = plan.expected(self.n_windows)
        counts = {v: sum(1 for e in exp if e[0] == v) for v in ("kept", "filled", "missing", "antenna")}
        n_kept = counts["kept"] + counts["filled"]
        got = (report.n_windows, report.n_kept, report.n_dropped_missing, report.n_dropped_antenna)
        want = (self.n_windows, n_kept, counts["missing"], counts["antenna"])
        if got != want or len(stored) != 2 * n_kept:
            raise CheckFailed(f"{rec.source_id}: QC windows/kept/missing/antenna {got}, faults imply {want}")
        if report.missing_fraction != max(e[1] for e in exp):
            raise CheckFailed(f"{rec.source_id}: max missing fraction {report.missing_fraction}")
        spikes = sum(e[2] for e in exp if e[0] in ("kept", "filled"))
        if report.outliers_repaired < spikes:
            raise CheckFailed(f"{rec.source_id}: {report.outliers_repaired} repairs < {spikes} injected spikes")

    def check(self, trials) -> dict:
        """Window by window, QC verdicts and fills match the injected faults."""
        cfg, qcfg = H.HarmonizeConfig(), Q.QcConfig()
        totals = dict.fromkeys(("kept", "filled", "missing", "antenna"), 0)
        for rec, plan in zip(self.pool, self.plans):
            (link,) = H.extract_links(rec, cfg)
            slices = H.window_slices(rec.n_t, rec.sampling_rate, cfg)
            for (start, n), (verdict, frac, _) in zip(slices, plan.expected(self.n_windows)):
                cleaned, wq = Q.clean_window(link.data[start : start + n], qcfg)
                if wq.kept:
                    got = "filled" if wq.missing_fraction > 0 else "kept"
                else:
                    got = "antenna" if wq.impaired_antennas else "missing"
                if got != verdict or wq.missing_fraction != frac:
                    raise CheckFailed(f"{rec.source_id} window at {start}: QC {got} {wq.missing_fraction}, "
                                      f"faults imply {verdict} {frac}")
                if wq.kept and not np.isfinite(cleaned).all():
                    raise CheckFailed(f"{rec.source_id} window at {start}: nulls left after filling")
                totals[verdict] += 1
        return {"qc_windows": totals}

    def throughput(self, trials) -> dict:
        return {"ingest_clips_per_s": _median_rate(trials)}


def _median_rate(trials) -> float:
    return float(np.median([t.clips / t.seconds for t in trials]))


# ---------------------------------------------------------------------


def make(name: str, seed: int, workdir: Path, size: str = "full"):
    """The workload and the model config its FLOPs are counted against (or None)."""
    tiny = size == "tiny"
    if name == "pretrain-desk":
        cfg = desk_model(size)
        task = {"clips_per_cell": 1} if tiny else {"clips_per_cell": 8}
        batch, n_val = (16, 2) if tiny else (128, 16)
        return Pretrain(seed, workdir, cfg, batch, n_val, steps=2, task=task, lr=1e-4), cfg
    if name == "pretrain-small":
        cfg = small_model(size)
        task = {"clips_per_cell": 1, "n_environments": 1, "n_subjects": 1}
        return Pretrain(seed, workdir, cfg, batch=2, n_val=1, steps=2, task=task, lr=3e-5), cfg
    if name == "finetune-desk":
        return Finetune(seed, workdir, desk_model(size), clips_per_cell=2 if tiny else 8, epochs=2), None
    if name == "ingest":
        return Ingest(seed, workdir, n_recordings=2 if tiny else 8, seconds_long=4 if tiny else 10), None
    raise ValueError(f"unknown workload {name!r}")
