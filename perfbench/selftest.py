"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json at a tiny size (``--tiny``), with and
without tracing, and checks that:

- each run exits 0 with a correct result and no failed op;
- each run prints every metric BENCHMARK.json names for its mode, with the
  unit given there;
- a planted wrong output (``--plant-fault``) is counted as failed;
- compare.py, given the same runs as parent and change, finds no regression;
- the launcher, copied without the coneq sources, exits non-zero and prints
  nothing.

Scratch files go to .perfbench-out/selftest/ in the checkout.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SCRATCH = ROOT / ".perfbench-out" / "selftest"


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems: list[str] = []
    shutil.rmtree(SCRATCH, ignore_errors=True)
    for side in ("parent", "change"):
        (SCRATCH / side).mkdir(parents=True)

    for workload in (w["name"] for w in spec["workloads"]):
        base = ["--workload", workload, "--seed", "7", "--seconds", "0.1", "--tiny"]
        for trace, wanted in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            done = run_bench(ROOT, *base, "--trace", trace)
            label = f"{workload} --trace {trace}"
            if done.returncode != 0:
                problems.append(f"{label}: exit {done.returncode}: {done.stderr[-500:]}")
                continue
            result = json.loads(done.stdout.splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{label}: {result['attempted']} attempted, "
                                f"{result['failed']} failed")
            for metric in wanted:
                got = result["metrics"].get(metric["name"])
                if got is None or got.get("unit") != metric["unit"]:
                    problems.append(f"{label}: metric {metric['name']} printed as {got}")
            if trace == "0":
                for side in ("parent", "change"):
                    (SCRATCH / side / f"{workload}.txt").write_text(done.stdout)

        done = run_bench(ROOT, *base, "--trace", "0", "--plant-fault")
        result = json.loads(done.stdout.splitlines()[-1]) if done.returncode == 0 else None
        if not result or result["correct"] or result["failed"] < 1:
            problems.append(f"{workload}: planted fault not counted: {result}")

    done = subprocess.run([sys.executable, str(BENCH_DIR / "compare.py"),
                           str(SCRATCH / "parent"), str(SCRATCH / "change")],
                          capture_output=True, text=True, timeout=60)
    if done.returncode != 0 or "regressed" in done.stdout:
        problems.append(f"compare of identical runs: exit {done.returncode}\n{done.stdout}")

    bare = SCRATCH / "bare"
    shutil.copytree(BENCH_DIR, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    done = run_bench(bare, "--workload", "ray-cloud", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    if done.returncode == 0 or done.stdout.strip():
        problems.append(f"bare copy: exit {done.returncode}, stdout {done.stdout!r}")

    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
