"""csimae benchmark: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload pretrain-desk --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 1

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The line before
it (``# detail ...``) carries the environment, the determinism digest,
each workload's own throughput figures and the checks; the same record
goes to ``perfbench/.out/``.  ``--workload all`` runs every workload in
a fresh process of its own.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("pretrain-desk", "pretrain-small", "finetune-desk", "ingest")
N_SETUP = 3  # set-ups per run; setup_s is their median
MIN_TRIALS = 4  # a run measures at least this many trials, and for at least --seconds
END_TO_END = {"setup_s": "s", "clips_per_s": "clips/s", "peak_rss_mb": "MB"}
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="measured time per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny: seconds-long smoke sizes")
    return ap.parse_args(argv)


def pin_threads() -> int:
    """Pin BLAS/OpenMP threads to the CPUs this process may use (before numpy loads)."""
    n = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(n)
    return n


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(threads: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": threads,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def measure(args, env: dict) -> tuple:
    """Set up N_SETUP times, run trials for ``args.seconds``, check; return (result, detail)."""
    import numpy as np

    import tracer as TR
    import workloads as W

    workdir = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    tracer = None
    try:
        wl, model_cfg = W.make(args.workload, args.seed, workdir, args.size)
        setup_s = []
        for rep in range(N_SETUP):
            if args.trace and rep == N_SETUP - 1:
                tracer = TR.Tracer().install()
            t0 = time.perf_counter()
            wl.setup()
            with tracer.paused() if tracer else nullcontext():
                wl.warm()
            setup_s.append(time.perf_counter() - t0)

        if tracer:
            tracer.stage = "run"
        trials = []
        start = time.perf_counter()
        while len(trials) < MIN_TRIALS or time.perf_counter() - start < args.seconds:
            trials.append(wl.trial())
        untraced = None
        if tracer:
            # one more trial with every wrapper passing through, for the tracing overhead
            with tracer.paused():
                untraced = wl.trial()
            tracer.uninstall()

        digests = sorted({t.digest for t in trials + ([untraced] if untraced else [])})
        error = None
        checks = {}
        try:
            if len(digests) != 1:
                raise W.CheckFailed(f"trials of one run disagree: digests {digests}")
            checks = wl.check(trials)
        except W.CheckFailed as exc:
            error = str(exc)
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(t.attempted for t in trials)
    failed = sum(t.failed for t in trials)
    rate = float(np.median([t.clips / t.seconds for t in trials]))
    if tracer:
        metrics = TR.layer_metrics(tracer, len(trials), model_cfg)
        metrics["trace.overhead_ratio"] = rate / (untraced.clips / untraced.seconds)
        metrics["error_rate"] = failed / attempted
        values = {name: (metrics.get(name, 0.0), unit) for name, unit in TR.PER_LAYER}
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        got = {"setup_s": float(np.median(setup_s)), "clips_per_s": rate, "peak_rss_mb": peak_mb}
        values = {name: (got[name], unit) for name, unit in END_TO_END.items()}

    result = {
        "correct": error is None,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in values.items()},
    }
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "size": args.size, "env": env, "digest": digests[0] if len(digests) == 1 else digests,
        "error": error, "trials": len(trials), "setup_s": setup_s,
        "trial_s": [t.seconds for t in trials], "error_rate": failed / attempted,
        **wl.throughput(trials), **checks,
    }
    out = HERE / ".out"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer:
        tracer.dump(out / f"{tag}.spans.jsonl")
    out.mkdir(exist_ok=True)
    (out / f"{tag}.json").write_text(json.dumps({"result": result, "detail": detail}, indent=1))
    return result, detail


def run_all(args) -> int:
    """Each workload in a fresh process; their result lines, keyed by workload, last."""
    results, status = {}, 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(f"[{name}] {line}", flush=True)
        if proc.returncode or not lines:
            print(f"[{name}] exited with code {proc.returncode}", file=sys.stderr)
            status = 1
            continue
        results[name] = json.loads(lines[-1])
        status |= int(not results[name]["correct"])
        for k, m in results[name]["metrics"].items():
            print(f"[{name}] {k} = {m['value']:.6g} {m['unit']}", flush=True)
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    threads = pin_threads()
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        import csimae  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import csimae from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    env = environment(threads)
    result, detail = measure(args, env)
    print("# detail " + json.dumps(detail), flush=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
