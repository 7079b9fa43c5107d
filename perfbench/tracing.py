"""In-memory spans recorded around the benchmark's own calls into coneq.

A span is (name, start_ns, end_ns, op, ok): ``op`` is the id of the op the
span belongs to (None for batch spans) and ``ok`` is False when the call
raised.  Spans are kept in a list while the run lasts and written out as
JSON lines when it ends; every per-layer metric is derived from them.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

OP = "op"
BATCH_TRACED = "batch.traced"
BATCH_UNTRACED = "batch.untraced"


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, int, int, int | None, bool]] = []
        self.op: int | None = None

    def record(self, name: str, start_ns: int, end_ns: int, op: int | None) -> None:
        self.spans.append((name, start_ns, end_ns, op, True))

    def wrap(self, name, fn):
        """fn, recording one span per call; ``name`` is a string or a
        function of the call's arguments."""
        naming = name if callable(name) else (lambda *a, **k: name)

        def traced(*args, **kwargs):
            ok = False
            start = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                end = time.perf_counter_ns()
                self.spans.append((naming(*args, **kwargs), start, end, self.op, ok))

        return traced

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for name, start, end, op, ok in self.spans:
                handle.write(json.dumps({"name": name, "start_ns": start,
                                         "end_ns": end, "op": op, "ok": ok}) + "\n")


def _seconds(spans) -> list[float]:
    return [(end - start) * 1e-9 for _, start, end, _, _ in spans]


def _median(values) -> float:
    return float(np.median(values)) if values else 0.0


def layer_metrics(spans, functions, suite_groups) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, as name -> (value, unit), from recorded spans.

    ``functions`` names the wrapped public functions ("module.function");
    ``suite_groups`` maps a section of suites.py to its suite names.
    """
    by_name: dict[str, list] = {}
    for span in spans:
        by_name.setdefault(span[0], []).append(span)
    out: dict[str, tuple[float, str]] = {}
    covered = 0.0
    for fn in functions:
        calls = by_name.get(fn, [])
        durations = _seconds(calls)
        covered += sum(durations)
        out[f"{fn}.calls"] = (len(calls), "count")
        out[f"{fn}.busy_s"] = (sum(durations), "s")
        out[f"{fn}.p50_us"] = (_median(durations) * 1e6, "us")
        out[f"{fn}.failed"] = (sum(1 for s in calls if not s[4]), "count")
    for group, names in suite_groups.items():
        group_busy = 0.0
        for suite in names:
            busy = sum(_seconds(by_name.get(f"suites.{suite}", [])))
            group_busy += busy
            out[f"suites.{suite}.busy_s"] = (busy, "s")
        covered += group_busy
        out[f"verify.{group}.busy_s"] = (group_busy, "s")
    ops = _seconds(by_name.get(OP, []))
    out["op_p99_us"] = (float(np.percentile(ops, 99)) * 1e6 if ops else 0.0, "us")
    traced_batches = _seconds(by_name.get(BATCH_TRACED, []))
    out["trace.coverage_ratio"] = (
        covered / sum(traced_batches) if traced_batches else 0.0, "ratio")
    traced = _median(traced_batches)
    untraced = _median(_seconds(by_name.get(BATCH_UNTRACED, [])))
    out["trace.overhead_ratio"] = (traced / untraced if untraced else 0.0, "ratio")
    return out
