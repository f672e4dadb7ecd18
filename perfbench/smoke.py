"""Smoke test of the benchmark itself, at tiny sizes, in well under a minute.

    python3 perfbench/smoke.py

For every workload it runs ``run.py`` untraced and traced and checks:

- the result line has exactly the keys correct, attempted, failed and
  metrics;
- every metric named in BENCHMARK.json is emitted with its unit;
- the run is correct, with no failures;
- the traced and untraced runs give the same digest, so the wrappers
  leave the arithmetic unchanged.

It also checks that the benchmark refuses to run, without printing a
result, when the library's sources are absent.  Exits non-zero on the
first problem.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = ["--seed", "3", "--seconds", "0.5", "--size", "tiny"]


def fail(msg):
    print(f"smoke: FAIL {msg}")
    sys.exit(1)


def run(script: Path, workload: str, trace: int, cwd: Path = ROOT):
    cmd = [sys.executable, str(script), "--workload", workload, "--trace", str(trace)] + RUN
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170)


def check_result(workload, trace, spec):
    proc = run(HERE / "run.py", workload, trace)
    if proc.returncode:
        fail(f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2].removeprefix("# detail "))
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        fail(f"{workload} trace={trace}: {result['correct']=} {result['failed']=} {detail.get('error')}")
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        fail(f"{workload} trace={trace}: metrics/units differ from BENCHMARK.json: "
             f"missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}, "
             f"units {[(k, got[k], want[k]) for k in set(got) & set(want) if got[k] != want[k]]}")
    for k, v in result["metrics"].items():
        if not isinstance(v["value"], (int, float)) or not math.isfinite(v["value"]):
            fail(f"{workload}: metric {k} = {v['value']!r}")
        if not trace and v["value"] <= 0:
            fail(f"{workload}: end-to-end metric {k} = {v['value']}")
    return detail["digest"]


def check_bare_directory():
    """Only BENCHMARK.json and perfbench/: the run must fail without a result line."""
    bare = HERE / ".work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in HERE.glob("*.py"):
        shutil.copy(f, bare / "perfbench")
    try:
        proc = run(bare / "perfbench" / "run.py", "ingest", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    if proc.returncode == 0 or last.startswith("{"):
        fail(f"bare directory: exit {proc.returncode}, last line {last!r}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for wl in (w["name"] for w in spec["workloads"]):
        untraced = check_result(wl, 0, spec)
        traced = check_result(wl, 1, spec)
        if untraced != traced:
            fail(f"{wl}: traced digest {traced} != untraced {untraced}")
        print(f"smoke: {wl} ok (digest {untraced})", flush=True)
    check_bare_directory()
    print("smoke: bare directory refused ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
