"""One measured benchmark process; started by perfbench/run.py.

It imports coneq from the checkout's ``src/``, makes the workload's inputs
from ``--seed``, runs the warm-up ops, and then runs batches of ops in a
closed loop for ``--seconds``: each op starts when the previous one ends.
With ``--trace 0`` op times are also given in reference units (see
``Reference``).  With ``--trace 1`` untraced and traced batches alternate;
every traced call is recorded as a span, and the spans are written to
``.perfbench-out/`` when the run ends.  The last line of standard output is
the result as JSON, with an extra ``env`` key that the launcher removes.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
from collections import deque
from pathlib import Path

import numpy as np

import coneq
from coneq.errors import QuadricError
from run import OUT_DIR, SRC, build_parser
from tracing import BATCH_TRACED, BATCH_UNTRACED, OP, Tracer, layer_metrics
from workloads import FUNCTIONS, SUITE_GROUPS, WORKLOADS


# Reference work run between ops, one slice per REF_PERIOD_S of op time:
# Python arithmetic and small numpy calls, the mix coneq's own calls make,
# but independent of coneq.  On a shared host, absolute times drift by tens
# of percent over minutes; an op's time divided by the mean time of the
# REF_WINDOW slices before it and the slices due after it, taken on the same
# core around the same moment, does not.
REF_PERIOD_S = 0.025
REF_ROUNDS = 250
REF_WINDOW = 8
_REF_VECTOR = np.arange(8) + 0.5j


def reference_slice() -> float:
    """Run one reference slice; return its wall time in seconds."""
    start = time.perf_counter_ns()
    total = 0j
    for i in range(REF_ROUNDS):
        v = _REF_VECTOR * complex(i, 1)
        total += complex(np.vdot(v, _REF_VECTOR)) + float(np.linalg.norm(v)) + (i * i) % 7
    return (time.perf_counter_ns() - start) * 1e-9


class Reference:
    """Converts op times to reference units, running slices as they fall due."""

    def __init__(self):
        self.window = deque((reference_slice() for _ in range(REF_WINDOW)),
                            maxlen=REF_WINDOW)
        self.slices = list(self.window)
        self.owed = 0.0

    def normalize(self, seconds: float) -> float:
        """``seconds`` of op time in reference units, scaled by the slices
        run before the op and those that fall due after it."""
        self.owed += seconds
        fresh = []
        while self.owed >= REF_PERIOD_S:
            fresh.append(reference_slice())
            self.owed -= REF_PERIOD_S
        scale = statistics.fmean([*self.window, *fresh])
        self.window.extend(fresh)
        self.slices += fresh
        return seconds / scale


def _blas() -> str | None:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return None
    return f"{blas.get('name')} {blas.get('version')}"


def main(argv=None) -> int:
    parser = build_parser()
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the launcher when it started this process")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after the warm-up and report setup_s only")
    args = parser.parse_args(argv)
    if Path(coneq.__file__).resolve().parent != SRC / "coneq":
        print(f"error: imported coneq from {coneq.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](tiny=args.tiny)
    rng = np.random.default_rng(args.seed)
    plain = workload.bind()
    for inp in workload.warmup_inputs(args.seed, rng):
        workload.check(inp, workload.op(plain, inp))
    reference = None if args.trace else Reference()
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = Tracer()
    modes = (plain, workload.bind(tracer)) if args.trace else (plain,)
    walls, latencies, raw_walls, raw_latencies = [], [], [], []
    attempted = failed = op_id = batches = 0
    plant = args.plant_fault
    end = time.perf_counter() + args.seconds
    while True:
        for api in modes:
            traced = api is not plain
            inputs = workload.inputs(args.seed, rng, workload.batch)
            outputs, normalized = [], []
            batch_start = time.perf_counter_ns()
            for inp in inputs:
                op_id += 1
                tracer.op = op_id
                start = time.perf_counter_ns()
                try:
                    out = workload.op(api, inp)
                except QuadricError:
                    out = None
                stop = time.perf_counter_ns()
                seconds = (stop - start) * 1e-9
                if traced:
                    tracer.record(OP, start, stop, op_id)
                outputs.append((inp, out, seconds))
                if reference:
                    normalized.append(reference.normalize(seconds))
            batch_stop = time.perf_counter_ns()
            tracer.record(BATCH_TRACED if traced else BATCH_UNTRACED,
                          batch_start, batch_stop, None)
            batches += 1
            if reference:
                raw = [s for _, _, s in outputs]
                if workload.op_is_batch:
                    raw, normalized = [sum(raw)], [sum(normalized)]
                raw_walls.append(sum(raw))
                raw_latencies += raw
                walls.append(sum(normalized))
                latencies += normalized
            for inp, out, _ in outputs:
                if out is None:
                    units = bad = workload.units(inp)
                else:
                    if plant:
                        out, plant = workload.corrupt(out), False
                    units, bad = workload.check(inp, out)
                attempted += units
                failed += bad
        if time.perf_counter() >= end and batches >= workload.min_batches:
            break

    raw_metrics = {}
    if not reference:
        metrics = layer_metrics(tracer.spans, FUNCTIONS, SUITE_GROUPS)
        tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_ref": (statistics.median(walls), "ref"),
            "op_p50_ref": (statistics.median(latencies), "ref"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        raw_metrics = {"wall_s": statistics.median(raw_walls),
                       "op_p50_us": statistics.median(raw_latencies) * 1e6,
                       "ref_slice_us": statistics.median(reference.slices) * 1e6,
                       "ref_slices": len(reference.slices)}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
        "env": {"numpy": np.__version__, "blas": _blas()},
        "raw": raw_metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
