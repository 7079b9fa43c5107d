"""Compare two sets of benchmark runs: the parent and the change.

Usage:

    python3 perfbench/compare.py PARENT CHANGE

PARENT and CHANGE are each a directory, or a list of files separated by
commas, holding the standard output of runs of perfbench/run.py, one run
per file.  Runs with ``--trace 1`` are ignored.  For every workload and
end-to-end metric of BENCHMARK.json it prints each side's median and
quartiles, the share of seed-matched pairs that the change wins, and a
verdict:

- improved: the change wins at least nine tenths of the pairs (ties count
  for neither), its median is better by more than the distance between the
  parent's quartiles, and no more of its ops fail than the parent's;
- regressed: its median is worse than the parent's by more than the
  metric's bound;
- unresolved: the parent's quartiles are further apart than the bound, so
  neither of the other two can be told from noise, unless every change run
  is better than every parent run;
- unchanged: otherwise.

It exits 1 when any verdict is "regressed".
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_runs(spec: str) -> list[dict]:
    path = Path(spec)
    files = sorted(p for p in path.iterdir() if p.is_file()) if path.is_dir() else [
        Path(p) for p in spec.split(",")]
    runs = []
    for file in files:
        lines = [line for line in file.read_text().splitlines() if line.strip()]
        if len(lines) < 2:
            continue
        try:
            run, result = json.loads(lines[-2]).get("run"), json.loads(lines[-1])
        except (json.JSONDecodeError, AttributeError):
            continue
        if run and not run["trace"]:
            runs.append({**run, **result})
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def fail_ratio(runs: list[dict]) -> float:
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def verdict(parent: dict, change: dict, lower_is_better: bool, bound: float,
            more_failures: bool) -> tuple[str, int, int]:
    """Verdict and (wins, pairs) for seed -> value maps of the two sides."""
    sign = 1.0 if lower_is_better else -1.0
    (p_q1, p_med, p_q3), (_, c_med, _) = (quartiles(list(parent.values())),
                                          quartiles(list(change.values())))
    seeds = parent.keys() & change.keys()
    wins = sum(1 for s in seeds if sign * (change[s] - parent[s]) < 0)
    gain = sign * (p_med - c_med)
    if (seeds and wins >= 0.9 * len(seeds) and gain > p_q3 - p_q1
            and not more_failures):
        return "improved", wins, len(seeds)
    if (p_q3 - p_q1) / p_med > bound:
        beats_all = all(sign * (c - p) < 0 for c in change.values()
                        for p in parent.values())
        return ("unchanged" if beats_all else "unresolved"), wins, len(seeds)
    if -gain / p_med > bound:
        return "regressed", wins, len(seeds)
    return "unchanged", wins, len(seeds)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load_runs(argv[0]), load_runs(argv[1])
    for key in ("cpu_model", "nproc", "python", "numpy", "blas"):
        seen = {str(r["env"].get(key)) for r in parent + change}
        if len(seen) > 1:
            print(f"warning: runs differ in {key}: {sorted(seen)}")
    header = (f"{'workload':<14}{'metric':<13}{'parent median [q1, q3]':<40}"
              f"{'change median [q1, q3]':<40}{'delta':>8}{'wins':>8}  verdict")
    print(header)
    any_regressed = False
    for workload in [w["name"] for w in spec["workloads"]]:
        sides = [[r for r in runs if r["workload"] == workload]
                 for runs in (parent, change)]
        if not all(sides):
            print(f"{workload:<14}(no runs on one side)")
            continue
        ratios = [fail_ratio(runs) for runs in sides]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [{r["seed"]: r["metrics"][name]["value"] for r in runs
                       if name in r["metrics"]} for runs in sides]
            if not all(values):
                continue
            result, wins, pairs = verdict(values[0], values[1],
                                          metric["better"] == "lower",
                                          metric["bound"], ratios[1] > ratios[0])
            any_regressed |= result == "regressed"
            stats = [quartiles(list(side.values())) for side in values]
            cells = [f"{med:.6g} [{q1:.6g}, {q3:.6g}] {metric['unit']}"
                     for q1, med, q3 in stats]
            delta = stats[1][1] / stats[0][1] - 1.0
            print(f"{workload:<14}{name:<13}{cells[0]:<40}{cells[1]:<40}"
                  f"{delta:>+8.1%}{f'{wins}/{pairs}':>8}  {result}")
        print(f"{workload:<14}{'fail_ratio':<13}{ratios[0]:<40.3g}{ratios[1]:<40.3g}")
    return 1 if any_regressed else 0


if __name__ == "__main__":
    sys.exit(main())
