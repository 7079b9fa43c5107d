"""Command line interface.

Subcommands: sample, verify, chart, metric, cometric, aperp, torus, oracle.
Primary output is deterministic JSON (or CSV for torus tables) on stdout; a
one-line human summary per action goes to stderr.  Exit codes: 0 success,
1 verification failure, 2 usage or invalid input.  When --seed is omitted
the CONEQ_SEED environment variable is used, defaulting to 0; seeds must be
non-negative.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys

import numpy as np

from . import charts, metrics, quotients, suites
from .core import (DEFAULT_TOL, ConePoint, CVector, Signature, basis_vector,
                   sample_cone_point)
from .errors import NotIsotropicError, QuadricError

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

__all__ = ["main", "run"]


class UsageError(Exception):
    pass


def _parse_sig(text: str) -> Signature:
    try:
        p_text, q_text = text.split(",")
        return Signature(int(p_text), int(q_text))
    except (ValueError, TypeError) as exc:
        raise UsageError(f"--sig expects 'p,q' with p,q >= 1, got {text!r}") from exc


def _parse_reals(text: str, non_finite=UsageError) -> np.ndarray:
    """Comma-separated reals; the empty string is the empty list, and any
    other empty field is a UsageError.  A nan or inf raises ``non_finite``
    here, before numpy arithmetic on it can print a RuntimeWarning."""
    try:
        values = np.array([float(v) for v in text.split(",")] if text else [])
    except ValueError as exc:
        raise UsageError(f"could not parse number list {text!r}") from exc
    if not np.isfinite(values).all():
        raise non_finite(f"non-finite number in {text!r}")
    return values


def _parse_components(text: str, sig: Signature) -> np.ndarray:
    # A vector with a nan or inf component is not an isotropic cone point.
    flat = _parse_reals(text, NotIsotropicError)
    if flat.size != 2 * sig.n:
        raise UsageError(
            f"expected {2 * sig.n} numbers (re,im interleaved for {sig.n} "
            f"components), got {flat.size}"
        )
    return flat[0::2] + 1j * flat[1::2]


def _resolve_seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    try:
        seed = int(os.environ.get("CONEQ_SEED", "0"))
    except ValueError as exc:
        raise UsageError("CONEQ_SEED must be an integer") from exc
    if seed < 0:
        raise UsageError(f"CONEQ_SEED must be an integer >= 0, got {seed}")
    return seed


def _emit(args, text: str, summary: str) -> None:
    out = getattr(args, "out", None)
    if out:
        try:
            with open(out, "w") as handle:
                handle.write(text)
        except OSError as exc:
            raise UsageError(f"could not write --out {out!r}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)
    print(summary, file=sys.stderr)


def _emit_json(args, payload, summary: str) -> None:
    _emit(args, json.dumps(payload, indent=2) + "\n", summary)


def _standard_chart(sig: Signature) -> charts.ChartFrame:
    x = ConePoint(basis_vector(sig, 0) + basis_vector(sig, sig.n - 1))
    return charts.make_chart(x)


def _chart_from_args(args, sig: Signature) -> charts.ChartFrame:
    center = getattr(args, "center", None)
    if center is None:
        return _standard_chart(sig)
    return charts.make_chart(ConePoint(CVector(_parse_components(center, sig), sig)))


def _tol(args) -> float:
    return DEFAULT_TOL if args.tol is None else args.tol


def _pairs(values) -> list[list[float]]:
    return [[float(np.real(v)), float(np.imag(v))] for v in values]


# ------------------------------------------------------------- commands


def _cmd_sample(args) -> int:
    sig = _parse_sig(args.sig)
    seed = _resolve_seed(args)
    count = args.trials if args.trials is not None else 1
    points = [sample_cone_point(sig, seed + k) for k in range(count)]
    payload = {
        "signature": sig.to_json(),
        "seed": seed,
        "points": [pt.to_json() for pt in points],
    }
    worst = max(pt.isotropy_residual for pt in points)
    _emit_json(args, payload,
               f"sampled {count} cone point(s) in {sig}, worst residual {worst:.3e}")
    return EXIT_OK


def _report_lines(reports) -> str:
    lines = []
    for rep in reports:
        status = "ok" if rep.ok else "FAIL"
        lines.append(
            f"{rep.suite} {rep.signature}: {rep.passes}/{rep.trials} passed, "
            f"worst {rep.worst_residual:.3e} [{status}]"
        )
    return "\n".join(lines)


def _run_reports(args, names) -> int:
    sig = _parse_sig(args.sig) if args.sig else None
    seed = _resolve_seed(args)
    if args.trials is not None and args.trials > suites.MAX_TRIALS:
        raise UsageError(f"--trials must be <= 2**32, got {args.trials}")
    reports = suites.run_many(names, sig, args.trials, seed, args.tol)
    ok = all(rep.ok for rep in reports)
    payload = {"ok": ok, "reports": [rep.to_json() for rep in reports]}
    _emit_json(args, payload, _report_lines(reports))
    return EXIT_OK if ok else EXIT_FAIL


def _cmd_verify(args) -> int:
    if args.suite == "all":
        names = suites.suite_names()
    elif args.suite in suites.SUITES:
        names = [args.suite]
    else:
        known = ", ".join(suites.suite_names())
        raise UsageError(f"unknown suite {args.suite!r}; choose from: all, {known}")
    return _run_reports(args, names)


def _cmd_oracle(args) -> int:
    return _run_reports(args, ["field-axioms", "exact-roundtrip", "twin-agreement"])


def _cmd_chart(args) -> int:
    sig = _parse_sig(args.sig)
    chart = _chart_from_args(args, sig)
    if args.mode == "forward":
        y_flat = _parse_reals(args.y)
        if y_flat.size != 2 * (sig.n - 2):
            raise UsageError(
                f"--y expects {2 * (sig.n - 2)} numbers, got {y_flat.size}"
            )
        y = y_flat[0::2] + 1j * y_flat[1::2]
        point = charts.kappa0(chart, args.r, y)
        rep = quotients.canonicalize_phase(point)
        payload = {
            "signature": sig.to_json(),
            "r": args.r,
            "y": _pairs(y),
            "kappa0": point.to_json(),
            "class": rep.to_json(),
        }
        _emit_json(args, payload,
                   f"chart forward at r={args.r}: residual {point.isotropy_residual:.3e}")
        return EXIT_OK
    b = ConePoint(CVector(_parse_components(args.b, sig), sig))
    result = charts.chart_inverse(chart, b, tol=_tol(args))
    if result is charts.IN_APERP:
        _emit_json(args, charts.IN_APERP.to_json(), "point is orthogonal to the chart center")
        return EXIT_OK
    r_val, y = result
    payload = {"result": "chart", "r": r_val, "y": _pairs(y)}
    _emit_json(args, payload, f"chart inverse: r={r_val:.6g}")
    return EXIT_OK


def _cmd_metric(args) -> int:
    sig = _parse_sig(args.sig)
    x = ConePoint(CVector(_parse_components(args.x, sig), sig))
    g = metrics.induced_metric(x, args.frame)
    payload = {"signature": sig.to_json(), "frame": args.frame,
               "metric": g.to_json()}
    _emit_json(args, payload,
               f"induced metric in {args.frame} frame, signature {g.signature}")
    return EXIT_OK


def _cmd_cometric(args) -> int:
    sig = _parse_sig(args.sig)
    x = ConePoint(CVector(_parse_components(args.x, sig), sig))
    co = metrics.cotangent_metric_qtilde(x)
    payload = {"signature": sig.to_json(), "cometric": co.to_json()}
    _emit_json(args, payload,
               f"cometric rank {co.rank}, radical dimension {co.signature[2]}")
    return EXIT_OK


def _cmd_aperp(args) -> int:
    sig = _parse_sig(args.sig)
    chart = _chart_from_args(args, sig)
    if args.mode == "classify":
        b = ConePoint(CVector(_parse_components(args.b, sig), sig))
        cls = charts.aperp_classify(chart, b, tol=_tol(args))
        _emit_json(args, cls.to_json(), f"boundary class: {cls.kind}")
        return EXIT_OK
    seed = _resolve_seed(args)
    dim = charts.aperp_dimension_estimate(chart, seed)
    expected = 2 * sig.n - 5
    payload = {"signature": sig.to_json(), "dimension": dim, "expected": expected}
    _emit_json(args, payload, f"generic stratum dimension {dim} (expected {expected})")
    return EXIT_OK if dim == expected else EXIT_FAIL


def _cmd_torus(args) -> int:
    sig = Signature(1, 1)
    seed = _resolve_seed(args)
    count = args.trials if args.trials is not None else 8
    steps = args.steps
    two_pi = 2.0 * np.pi
    rows = []
    for base in range(count):
        x = sample_cone_point(sig, seed + base)
        phi1, phi2 = quotients.torus_coords(x)
        for j in range(steps + 1):
            t = two_pi * j / steps
            orbit = quotients.torus_coords(
                ConePoint(complex(np.exp(1j * t)) * x.vector)
            )
            rows.append((base, "orbit", t, orbit[0], orbit[1]))
            rows.append((base, "null_plus", t,
                         (phi1 + t) % two_pi, (phi2 + t) % two_pi))
            rows.append((base, "null_minus", t,
                         (phi1 + t) % two_pi, (phi2 - t) % two_pi))
    if args.format == "json":
        payload = {
            "rows": [
                {"base": b, "kind": kind, "t": t, "phi1": a, "phi2": c}
                for b, kind, t, a, c in rows
            ]
        }
        _emit_json(args, payload, f"torus table: {len(rows)} rows")
        return EXIT_OK
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["base", "kind", "t", "phi1", "phi2"])
    for b, kind, t, a, c in rows:
        writer.writerow([b, kind, f"{t:.12g}", f"{a:.12g}", f"{c:.12g}"])
    _emit(args, buffer.getvalue(), f"torus table: {len(rows)} rows")
    return EXIT_OK


# --------------------------------------------------------------- parser


def _checked(text: str, convert, ok, expected: str):
    """convert(text) when it parses and passes ok, else the argparse error
    "expected <expected>, got <text>".  Raising ArgumentTypeError, not
    ValueError, keeps argparse from naming the type function."""
    try:
        value = convert(text)
    except ValueError:
        pass
    else:
        if ok(value):
            return value
    raise argparse.ArgumentTypeError(f"expected {expected}, got {text}")


def _positive_int(text: str) -> int:
    return _checked(text, int, lambda v: v >= 1, "an integer >= 1")


def _seed(text: str) -> int:
    # numpy's generators take only non-negative seeds.
    return _checked(text, int, lambda v: v >= 0, "an integer >= 0")


def _finite(text: str) -> float:
    return _checked(text, float, math.isfinite, "a finite number")


def _tolerance(text: str) -> float:
    return _checked(text, float, lambda v: math.isfinite(v) and v >= 0.0,
                    "a finite number >= 0")


def _add_common(parser, *, sig=True, seed=True, trials=True, tol=True):
    if sig:
        parser.add_argument("--sig", help="signature p,q (e.g. 2,2)")
    if seed:
        parser.add_argument("--seed", type=_seed, default=None,
                            help="seed (default: CONEQ_SEED or 0)")
    if trials:
        parser.add_argument("--trials", type=_positive_int, default=None)
    if tol:
        parser.add_argument("--tol", type=_tolerance, default=None)
    parser.add_argument("--out", default=None, help="write output to a file")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The coneq parser, built once per process and shared.

    parse_args keeps no state between calls, and no default is read from
    the environment (CONEQ_SEED is read when a command runs), so one parser
    serves every call of main.
    """
    parser = argparse.ArgumentParser(
        prog="coneq",
        description="Isotropic cones of indefinite Hermitian spaces: "
                    "quotients, metrics, charts, and verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("sample", help="sample certified cone points")
    _add_common(sp, tol=False)
    sp.set_defaults(func=_cmd_sample, sig_required=True)

    sp = sub.add_parser("verify", help="run a named verification suite")
    sp.add_argument("--suite", required=True,
                    help="suite name or 'all' (see docs for the list)")
    _add_common(sp)
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("chart", help="compactification chart")
    chart_sub = sp.add_subparsers(dest="mode", required=True)
    fwd = chart_sub.add_parser("forward", help="evaluate the chart at (r, y)")
    fwd.add_argument("--r", type=_finite, default=0.0)
    fwd.add_argument("--y", default="",
                     help="re,im interleaved middle coordinates")
    fwd.add_argument("--center", default=None,
                     help="chart center components, re,im interleaved")
    _add_common(fwd, seed=False, trials=False, tol=False)
    fwd.set_defaults(func=_cmd_chart, sig_required=True)
    inv = chart_sub.add_parser("inverse", help="invert the chart at a point")
    inv.add_argument("--b", required=True,
                     help="point components, re,im interleaved")
    inv.add_argument("--center", default=None)
    _add_common(inv, seed=False, trials=False)
    inv.set_defaults(func=_cmd_chart, sig_required=True)

    sp = sub.add_parser("metric", help="induced metric at a cone point")
    sp.add_argument("--x", required=True, help="point components, re,im interleaved")
    sp.add_argument("--frame", choices=["adapted", "epsilon"], default="adapted")
    _add_common(sp, seed=False, trials=False, tol=False)
    sp.set_defaults(func=_cmd_metric, sig_required=True)

    sp = sub.add_parser("cometric", help="quotient cometric at a cone point")
    sp.add_argument("--x", required=True, help="point components, re,im interleaved")
    _add_common(sp, seed=False, trials=False, tol=False)
    sp.set_defaults(func=_cmd_cometric, sig_required=True)

    sp = sub.add_parser("aperp", help="orthogonal boundary stratum")
    aperp_sub = sp.add_subparsers(dest="mode", required=True)
    cl = aperp_sub.add_parser("classify", help="classify a boundary point")
    cl.add_argument("--b", required=True)
    cl.add_argument("--center", default=None)
    _add_common(cl, seed=False, trials=False)
    cl.set_defaults(func=_cmd_aperp, sig_required=True)
    dm = aperp_sub.add_parser("dim", help="estimate the generic stratum dimension")
    dm.add_argument("--center", default=None)
    _add_common(dm, trials=False, tol=False)
    dm.set_defaults(func=_cmd_aperp, sig_required=True)

    sp = sub.add_parser("torus", help="signature (1,1) torus tables")
    sp.add_argument("--steps", type=_positive_int, default=16)
    sp.add_argument("--format", choices=["csv", "json"], default="csv")
    _add_common(sp, sig=False, tol=False)
    sp.set_defaults(func=_cmd_torus)

    sp = sub.add_parser("oracle", help="run the exact-arithmetic oracle suites")
    _add_common(sp)
    sp.set_defaults(func=_cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    if getattr(args, "sig_required", False) and not getattr(args, "sig", None):
        print("error: --sig is required for this command", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except QuadricError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
