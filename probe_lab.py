"""Tuning probe for the desk-scale acceptance experiments (not part of the package)."""

import sys
import time

import numpy as np

from csimae import data as D
from csimae import evaluate as E
from csimae import mae as M
from csimae import synth as S
from csimae import training as R

T0 = time.time()


def log(msg):
    print(f"[{time.time() - T0:7.1f}s] {msg}", flush=True)


def desk_model():
    return M.ModelConfig(
        variant="tiny", patch_time=100, patch_freq=15, dec_layers=2, dec_dim=128, dec_heads=4, mask_ratio=0.8
    )


def main(out_root):
    spec = S.SynthTaskSpec(seed=1234)  # defaults: 3 classes x 3 envs x 2 subjects x 111
    store = f"{out_root}/store"
    log(f"generating {3*3*2*spec.clips_per_cell} clips")
    manifest = S.generate_task(spec, store)
    log(f"store ready: {len(manifest.entries)} clips")

    split = D.SplitSpec("leave_one_domain_out", "environment", "env2")
    mcfg = desk_model()
    pcfg = R.TrainConfig(batch_size=128, warmup_steps=20, max_epochs=15, early_stop_patience=5, seed=0, val_fraction=0.05)
    t = time.time()
    # a fold labeling its whole training side, judged at the pretraining config: the pool pretraining reads
    res = E.pretrain_fold(manifest, store, E.plan_fold(manifest, split, pcfg, 1.0), mcfg, pcfg)
    log(f"pretrain done in {time.time()-t:.0f}s best epoch {res.best_epoch} val {res.best_value:.2f}")

    for frac in (0.05, 0.10):
        for lr in (1e-3, 1e-4):
            accs = {"supervised": [], "ft": [], "lp": []}
            for seed in (0, 1, 2):
                tcfg = R.TrainConfig(
                    peak_lr=lr, warmup_steps=5, batch_size=32, max_epochs=12,
                    early_stop_patience=5, seed=seed, val_fraction=0.15,
                )
                fold = E.plan_fold(manifest, split, tcfg, frac)
                for regime in ("supervised", "ft", "lp"):
                    t = time.time()
                    (r,) = E.run_fold(manifest, store, fold, [regime], mcfg, res.params)
                    accs[regime].append(r.accuracy)
                    log(f"frac={frac} lr={lr} seed={seed} {regime}: acc={r.accuracy:.3f} ({time.time()-t:.0f}s, best_ep={r.best_epoch})")
            log(
                f"== frac={frac} lr={lr}: sup={np.mean(accs['supervised']):.3f} "
                f"ft={np.mean(accs['ft']):.3f} lp={np.mean(accs['lp']):.3f}"
            )


if __name__ == "__main__":
    main(sys.argv[1])
