"""The four benchmark workloads.

Each workload makes its inputs from a seeded generator, runs one op per
input through the public API, and checks the op's outputs.  Ops reach coneq
only through the namespace that ``bind`` returns, so that the traced run can
wrap exactly the benchmark's own calls, never the library's internal ones.

Why these workloads:

- verify-all: the user's verification path, ``coneq verify --suite all`` at
  default trials over the default signatures.  Small n, so per-call Python
  overhead dominates and every layer runs.  It runs as one
  ``coneq verify --suite <name> --sig <p,q> --seed <seed>`` call per suite
  and signature, which does the same work and lets the reference loop run
  between the calls.
- ray-cloud: quotient maps over fresh cone points at (5,5).  Quotients do
  almost all the work; charts, metrics and exact do none.
- chart-frames: chart and metric construction at fresh points at (5,5).
  Charts and metrics dominate; quotients do nothing.
- exact-oracle: the exact Q(i) chart round trip against its float twin on
  one prebuilt chart at (5,5).  Exact dominates; charts are only read.
"""

from __future__ import annotations

import importlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from types import SimpleNamespace

import numpy as np

from coneq import charts, cli, exact, suites
from coneq.core import ConePoint, Signature, sample_cone_point

SIG = Signature(5, 5)

# Public functions whose calls the point workloads time, as "module.function".
FUNCTIONS = (
    "core.sample_cone_point",
    "quotients.canonicalize_ray",
    "quotients.canonicalize_phase",
    "quotients.proj_equivalent",
    "charts.make_chart",
    "charts.kappa0",
    "charts.chart_inverse",
    "metrics.induced_metric",
    "metrics.cotangent_metric_qtilde",
    "exact.exact_kappa0",
    "exact.exact_chart_inverse",
)

# The sections of suites.py, which group the per-suite times of verify-all.
SUITE_GROUPS = {
    "core": ("hermitian", "sesquilinearity", "unitary-invariance",
             "orthonormalize", "cone-sampler"),
    "quotients": ("cross-section", "sphere-chart", "phase-retraction",
                  "u1-action"),
    "metrics": ("metric-scaling", "radical", "metric-signature",
                "lift-independence", "conformal-class", "cometric-rank",
                "skew-form"),
    "charts": ("witt-extension", "kappa-certificates", "kappa-roundtrip",
               "chart-domain", "aperp-partition"),
    "exact": ("field-axioms", "exact-roundtrip", "twin-agreement"),
}


def _resolve(name: str):
    module, function = name.split(".")
    return getattr(importlib.import_module(f"coneq.{module}"), function)


def _close(got, want, tol: float) -> bool:
    """|got - want| <= tol * max(1, |want|), in the Euclidean norm."""
    want = np.asarray(want)
    return bool(np.linalg.norm(np.asarray(got) - want)
                <= tol * max(1.0, float(np.linalg.norm(want))))


class Workload:
    name = ""
    calls: tuple[str, ...] = ()
    batch = 1          # ops per timed batch, the fixed work behind wall_ref
    warmup = 3         # untimed ops before the first batch
    min_batches = 1    # batches run even when --seconds has passed
    op_is_batch = False  # whether op_p50 times whole batches

    def __init__(self, tiny: bool = False):
        if tiny:
            self.batch, self.warmup = 2, 1

    def bind(self, tracer=None):
        """Namespace of the functions this workload calls, by short name,
        each wrapped in a span when a tracer is given."""
        api = {}
        for name in self.calls:
            fn = _resolve(name)
            api[name.split(".")[1]] = tracer.wrap(name, fn) if tracer else fn
        return SimpleNamespace(**api)

    def inputs(self, seed: int, rng, count: int) -> list:
        """``count`` op inputs, from the workload seed or the generator
        seeded with it."""
        raise NotImplementedError

    def warmup_inputs(self, seed: int, rng) -> list:
        return self.inputs(seed, rng, self.warmup)

    def op(self, api, inp):
        raise NotImplementedError

    def units(self, inp) -> int:
        """Units of work the op on ``inp`` attempts."""
        return 1

    def check(self, inp, out) -> tuple[int, int]:
        """(attempted, failed) units of work for one op."""
        return 1, 0 if self.valid(inp, out) else 1

    def valid(self, inp, out) -> bool:
        raise NotImplementedError

    def corrupt(self, out):
        """A wrong version of ``out`` that ``check`` must reject."""
        raise NotImplementedError


class VerifyAll(Workload):
    name = "verify-all"
    # One batch is one whole verification, longer than a run's --seconds;
    # a second one halves the noise of a single one.
    min_batches = 2
    # Users wait on the whole verification, not on one suite.
    op_is_batch = True

    def __init__(self, tiny: bool = False):
        super().__init__(tiny)
        # None runs each suite at its default trials.
        self.trials = 1 if tiny else None
        # The (suite, signature) runs of ``--suite all``, in its order.
        self.runs = [
            (name, sig)
            for name, defn in suites.SUITES.items()
            for sig in (suites.DEFAULT_SIGNATURES if defn.per_signature else (None,))
        ]
        self.batch = len(self.runs)

    def bind(self, tracer=None):
        main = cli.main
        if tracer:
            main = tracer.wrap(lambda argv: f"suites.{argv[2]}", main)
        return SimpleNamespace(main=main)

    def warmup_inputs(self, seed, rng):
        # One trial per suite runs every code path once.
        return [(seed, name, sig, 1) for name, sig in self.runs]

    def inputs(self, seed, rng, count):
        # Every batch repeats ``coneq verify --suite all --seed <seed>``.
        return [(seed, name, sig, self.trials) for name, sig in self.runs][:count]

    def units(self, inp):
        _, name, _, trials = inp
        return suites.SUITES[name].trials if trials is None else trials

    def op(self, api, inp):
        seed, name, sig, trials = inp
        argv = ["verify", "--suite", name, "--seed", str(seed)]
        if sig is not None:
            argv += ["--sig", f"{sig.p},{sig.q}"]
        if trials is not None:
            argv += ["--trials", str(trials)]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = api.main(argv)
        return code, json.loads(out.getvalue())

    def check(self, inp, out):
        code, payload = out
        expected = self.units(inp)
        reports = payload["reports"]
        passes = sum(rep["passes"] for rep in reports)
        trials = sum(rep["trials"] for rep in reports)
        failed = max(expected - passes, 0)
        if code != 0 or payload["ok"] is not True or trials != expected:
            failed = max(failed, 1)
        return expected, failed

    def corrupt(self, out):
        code, payload = out
        first = payload["reports"][0]
        first["passes"] -= 1
        first["failures"] += 1
        payload["ok"] = False
        return 1, payload


class RayCloud(Workload):
    name = "ray-cloud"
    batch = 100
    calls = ("core.sample_cone_point", "quotients.canonicalize_ray",
             "quotients.canonicalize_phase", "quotients.proj_equivalent")

    def inputs(self, seed, rng, count):
        seeds = rng.integers(0, 2**32, count)
        factors = (np.exp(rng.standard_normal(count))
                   * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, count)))
        return list(zip(seeds.tolist(), factors.tolist()))

    def op(self, api, inp):
        seed, factor = inp
        x = api.sample_cone_point(SIG, seed)
        ray = api.canonicalize_ray(x)
        api.canonicalize_phase(x)
        copy = ConePoint(factor * x.vector)
        return ray.components, api.proj_equivalent(x, copy)

    def valid(self, inp, out):
        components, equivalent = out
        p = SIG.p
        return (abs(np.linalg.norm(components[:p]) - 1.0) <= 1e-9
                and abs(np.linalg.norm(components[p:]) - 1.0) <= 1e-9
                and bool(equivalent))

    def corrupt(self, out):
        return 2.0 * out[0], out[1]


class ChartFrames(Workload):
    name = "chart-frames"
    batch = 40
    calls = ("charts.make_chart", "charts.kappa0", "charts.chart_inverse",
             "metrics.induced_metric", "metrics.cotangent_metric_qtilde")
    metric_signature = (2 * SIG.p - 1, 2 * SIG.q - 1, 0)
    cometric_rank = 2 * SIG.n - 4

    def inputs(self, seed, rng, count):
        m = SIG.n - 2
        return [
            (sample_cone_point(SIG, int(rng.integers(0, 2**32))),
             float(2.0 * rng.standard_normal()),
             rng.standard_normal(m) + 1j * rng.standard_normal(m))
            for _ in range(count)
        ]

    def op(self, api, inp):
        x, r, y = inp
        chart = api.make_chart(x)
        back = api.chart_inverse(chart, api.kappa0(chart, r, y))
        metric = api.induced_metric(x)
        cometric = api.cotangent_metric_qtilde(x)
        return back, metric.signature, cometric.rank, cometric.signature[2]

    def valid(self, inp, out):
        _, r, y = inp
        back, signature, rank, nullity = out
        if back is charts.IN_APERP:
            return False
        r_back, y_back = back
        return (_close(r_back, r, 1e-9) and _close(y_back, y, 1e-9)
                and signature == self.metric_signature
                and rank == self.cometric_rank and nullity == 1)

    def corrupt(self, out):
        (r_back, y_back), *rest = out
        return ((r_back + 1.0, y_back), *rest)


class ExactOracle(Workload):
    name = "exact-oracle"
    batch = 60
    calls = ("exact.exact_kappa0", "exact.exact_chart_inverse",
             "charts.kappa0", "charts.chart_inverse")

    def __init__(self, tiny: bool = False):
        super().__init__(tiny)
        self.rational = exact.standard_rational_chart(SIG)
        self.floated = charts.make_chart(ConePoint(self.rational.x.to_cvector()))

    def inputs(self, seed, rng, count):
        def frac(num, den):
            return Fraction(int(rng.integers(-num, num + 1)),
                            int(rng.integers(1, den + 1)))

        out = []
        for _ in range(count):
            r = frac(20, 12)
            y = tuple(exact.QGaussian(frac(9, 9), frac(9, 9))
                      for _ in range(SIG.n - 2))
            out.append((r, y, float(r), np.array([c.to_complex() for c in y])))
        return out

    def op(self, api, inp):
        r, y, r_float, y_float = inp
        point = api.exact_kappa0(self.rational, r, y)
        back = api.exact_chart_inverse(self.rational, point)
        float_point = api.kappa0(self.floated, r_float, y_float)
        float_back = api.chart_inverse(self.floated, float_point)
        return point, back, float_point, float_back

    def valid(self, inp, out):
        r, y, r_float, y_float = inp
        point, back, float_point, float_back = out
        if back is charts.IN_APERP or float_back is charts.IN_APERP:
            return False
        return (back == (r, y)
                and _close(float_point.components,
                           point.to_cvector().components, 1e-12)
                and _close(float_back[0], r_float, 1e-12)
                and _close(float_back[1], y_float, 1e-12))

    def corrupt(self, out):
        point, (r_back, y_back), *rest = out
        return (point, (r_back + 1, y_back), *rest)


WORKLOADS = {cls.name: cls for cls in (VerifyAll, RayCloud, ChartFrames, ExactOracle)}
