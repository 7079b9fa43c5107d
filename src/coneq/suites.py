"""Named verification suites runnable from the CLI.

Each suite checks one invariant of the library on seeded random data and
reports pass/fail counts plus the worst residual seen.  A suite is one
trial function trial(sig, rng, tol) -> (ok, residual, detail); run_suite
runs it once per trial and gives trial k the stream of
make_rng(seed, p, q, k), an independent substream of the seed for the
signature (p, q).  That one stream feeds everything the trial draws: its
own numbers and the samplers, which take the Generator in place of an int
seed.  Reports are therefore reproducible byte for byte (timing aside).
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import cache

import numpy as np

from . import charts, exact, metrics, quotients
from .core import (
    DEFAULT_TOL,
    ConePoint,
    CVector,
    Signature,
    _norm,
    _owned,
    _trial_streams,
    form_eval,
    sample_cone_point,
    sample_pseudo_unitary,
    verify_isometry,
)
from .errors import NotInAperpError, QuadricError

MAX_TRIALS = 2**32  # trial k is one 32-bit spawn word of its stream

DEFAULT_SIGNATURES = (
    Signature(1, 1),
    Signature(1, 2),
    Signature(2, 2),
    Signature(2, 3),
    Signature(3, 3),
)

__all__ = ["RunReport", "SUITES", "suite_names", "run_suite", "run_many"]


@dataclass
class RunReport:
    """Outcome of one suite on one signature."""

    suite: str
    signature: str
    seed: int
    trials: int
    passes: int
    failures: int
    worst_residual: float
    elapsed_seconds: float
    counterexample: dict | None = None

    @property
    def ok(self) -> bool:
        return self.failures == 0

    def to_json(self) -> dict:
        return asdict(self)


def _random_vector(sig: Signature, rng) -> CVector:
    return _owned(rng.standard_normal(sig.n) + 1j * rng.standard_normal(sig.n), sig)


def _float_input(sig: Signature, rng):
    """Float chart coordinates (r, y)."""
    y = rng.standard_normal(sig.n - 2) + 1j * rng.standard_normal(sig.n - 2)
    return float(2.0 * rng.standard_normal()), y


def _rational_input(sig: Signature, rng):
    """Exact chart coordinates (r, y) over the Gaussian rationals."""
    r = Fraction(int(rng.integers(-20, 21)), int(rng.integers(1, 13)))
    return r, tuple(exact.random_qgaussian(rng) for _ in range(sig.n - 2))


# ----------------------------------------------------------------- core


def _hermitian(sig, rng, tol):
    u = _random_vector(sig, rng)
    v = _random_vector(sig, rng)
    val = form_eval(u, v)
    res = abs(form_eval(v, u) - np.conj(val)) / max(1.0, abs(val))
    return res <= tol, res, {}


def _sesquilinearity(sig, rng, tol):
    u, w, v = (_random_vector(sig, rng) for _ in range(3))
    a = complex(rng.standard_normal(), rng.standard_normal())
    b = complex(rng.standard_normal(), rng.standard_normal())
    first = form_eval(a * u + b * w, v) - a * form_eval(u, v) - b * form_eval(w, v)
    second = (
        form_eval(v, a * u + b * w)
        - np.conj(a) * form_eval(v, u)
        - np.conj(b) * form_eval(v, w)
    )
    scale = max(1.0, abs(form_eval(u, v)), abs(form_eval(w, v)))
    res = max(abs(first), abs(second)) / scale
    return res <= tol, res, {}


def _unitary_invariance(sig, rng, tol):
    u = sample_pseudo_unitary(sig, rng)
    x = _random_vector(sig, rng)
    y = _random_vector(sig, rng)
    val = form_eval(x, y)
    res = abs(form_eval(u.apply(x), u.apply(y)) - val) / max(1.0, abs(val))
    ok = res <= tol and verify_isometry(u, tol=tol)
    return ok, res, {}


def _cone_sampler(sig, rng, tol):
    x = sample_cone_point(sig, rng)
    xp, xm, _ = quotients.split_decompose(x)
    res = max(x.isotropy_residual, abs(xp.norm() - xm.norm()) / x.vector.norm())
    return res <= tol, res, {}


# ------------------------------------------------------------ quotients


def _cross_section(sig, rng, tol):
    x = sample_cone_point(sig, rng)
    ray = quotients.canonicalize_ray(x)
    res = max(abs(ray.plus_norm - 1.0), abs(ray.minus_norm - 1.0))
    if quotients.canonicalize_ray(ray) is not ray:
        return False, 1.0, {"check": "idempotence"}
    lam = float(np.exp(rng.standard_normal()))
    ray2 = quotients.canonicalize_ray(ConePoint(lam * x.vector))
    res = max(
        res,
        float(_norm(ray2.components - ray.components))
        / float(_norm(ray.components)),
    )
    return res <= tol, res, {}


def _sphere_chart(sig, rng, tol):
    split = (
        quotients.sample_split(sig, rng)
        if rng.integers(2)
        else quotients.standard_split(sig)
    )
    x = sample_cone_point(sig, rng)
    ray = quotients.canonicalize_ray(x, split)
    sp = ray.sphere_plus()
    sm = ray.sphere_minus()
    res = max(abs(_norm(sp) - 1.0), abs(_norm(sm) - 1.0))
    rebuilt = split.from_coefficients(np.concatenate([sp, sm]))
    res = max(
        res,
        float(_norm(rebuilt.components - ray.components))
        / float(_norm(ray.components)),
    )
    return res <= tol, res, {"split": split.label}


def _phase_retraction(sig, rng, tol):
    x = sample_cone_point(sig, rng)
    rep = quotients.canonicalize_phase(x)
    piv = rep.components[rep.pivot_index]
    res = abs(piv.imag) / abs(piv)
    # The lowest index within PIVOT_TIE_TOL of the top modulus, on the moduli
    # the pivot was chosen from.
    mags = np.abs(quotients.canonicalize_ray(x).components)
    ties = mags[:rep.pivot_index] >= mags.max() * (1.0 - quotients.PIVOT_TIE_TOL)
    if piv.real <= 0 or abs(piv) < mags.max() * (1 - 1e-9) or ties.any():
        return False, 1.0, {"check": "pivot"}
    if quotients.canonicalize_phase(rep) is not rep:
        return False, 1.0, {"check": "idempotence"}
    c = np.exp(rng.standard_normal()) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    rep2 = quotients.canonicalize_phase(ConePoint(c * x.vector))
    res = max(
        res,
        float(_norm(rep2.components - rep.components))
        / float(_norm(rep.components)),
    )
    return res <= tol, res, {}


def _u1_action(sig, rng, tol):
    x = sample_cone_point(sig, rng)
    theta = float(rng.uniform(0, 2 * np.pi))
    shifted = ConePoint(np.exp(1j * theta) * x.vector)
    if sig == Signature(1, 1):
        phi = quotients.torus_coords(x)
        phi2 = quotients.torus_coords(shifted)
        res = max(
            abs(np.exp(1j * (phi2[0] - phi[0] - theta)) - 1.0),
            abs(np.exp(1j * (phi2[1] - phi[1] - theta)) - 1.0),
        )
        return res <= tol, float(res), {}
    ok = quotients.proj_equivalent(x, shifted, tol)
    return ok, 0.0 if ok else 1.0, {}


# -------------------------------------------------------------- metrics


def _metric_scaling(sig, rng, tol):
    x = sample_cone_point(sig, rng)
    basis = metrics.quotient_basis(x)
    g = metrics.induced_metric(x)
    scale = float(np.max(np.abs(g.entries)))
    res = 0.0
    for lam in (0.5, 2.0, 3.7):
        scaled_point = ConePoint(lam * x.vector)
        scaled_basis = [lam * v for v in basis]
        g_lam = metrics.induced_metric(scaled_point, basis=scaled_basis)
        res = max(
            res,
            float(np.max(np.abs(g_lam.entries - lam**2 * g.entries))) / scale,
        )
    return res <= tol, res, {}


def _radical(sig, rng, tol):
    x = sample_cone_point(sig, rng)
    tangent = np.column_stack([x.components, metrics._quotient_columns(x)])
    z = tangent @ rng.standard_normal(tangent.shape[1])
    res = float(np.max(metrics._tangency_residuals(
        x, np.column_stack([tangent, z]))))
    g = metrics.induced_metric(x)
    ok = res <= tol and g.signature == (2 * sig.p - 1, 2 * sig.q - 1, 0)
    return ok, res, {"quotient_signature": list(g.signature)}


def _lift_independence(sig, rng, tol):
    x = sample_cone_point(sig, rng)
    basis = metrics._quotient_columns(x)
    cv, cw = rng.standard_normal((2, basis.shape[1]))
    v = _owned(basis @ cv, sig)
    w = _owned(basis @ cw, sig)
    s, t = rng.standard_normal(2)
    base = form_eval(v, w).real
    shifted = form_eval(v + complex(s) * x.vector, w + complex(t) * x.vector).real
    scale = max(1.0, abs(base))
    res = abs(shifted - base) / scale
    return res <= tol, res, {}


def _conformal_class(sig, rng, tol):
    x = sample_cone_point(sig, rng)
    split = quotients.standard_split(sig)
    other = quotients.sample_split(sig, rng)
    factor, res = metrics.conformal_factor(x, split, other)
    # The factor is (R_a / R_b)^2, R the common block norm under each split.
    want = (quotients.split_decompose(x, split)[2]
            / quotients.split_decompose(x, other)[2]) ** 2
    res = max(res, abs(factor - want) / want)
    return (factor > 0 and res <= tol), res, {"factor": factor}


def _cometric_rank(sig, rng, tol):
    n = sig.n
    co = metrics.cotangent_metric_qtilde(sample_cone_point(sig, rng))
    want_rank = 2 * n - 4 if n >= 3 else 0
    ok = co.rank == want_rank and co.signature[2] == 1
    res = 0.0
    if n == 2:
        res = float(np.max(np.abs(co.entries)))
        ok = ok and res <= 1e-10
    else:
        # 0 + diag(eta_mid (x) (1, 1)): the [1:, 1:] block of G0^-1 exactly.
        want = np.zeros((2 * n - 3, 2 * n - 3))
        want[1:, 1:] = np.diag(np.repeat(sig.eta[1:-1], 2))
        res = float(np.max(np.abs(co.entries - want)))
        ok = ok and res <= max(tol, 1e-12)
    return ok, res, {"rank": co.rank, "signature": list(co.signature)}


def _skew_form(sig, rng, tol):
    x = quotients.canonicalize_ray(sample_cone_point(sig, rng)).point
    tangent = np.column_stack([x.components, metrics._quotient_columns(x)])
    tangent.flags.writeable = False
    coeffs = rng.standard_normal((2, tangent.shape[1]))
    va = _owned(tangent @ coeffs[0], sig)
    vb = _owned(tangent @ coeffs[1], sig)
    anti = (abs(metrics.skew_form(x, va, vb) + metrics.skew_form(x, vb, va))
            / max(1.0, abs(form_eval(va, vb))))
    chart = charts.make_chart(x)
    e1, en = chart.witt_plus(), chart.witt_minus()
    x_res = float(_norm((e1 + en - x.vector).components)) / x.vector.norm()
    if not x_res <= min(tol, 1e-12):
        return False, x_res, {"check": "e_1 + e_n != x", "x_residual": x_res}
    pinned = abs(abs(metrics.skew_form(x, x.vector, 1j * e1)) - 1.0)
    # x pairs only with f3 = i(e_1 - e_n) in the tangent frame [x, ix, 2iu,
    # m_j, i m_j], where |Im f(x, f3)| = f(e_1, e_1) - f(e_n, e_n) = 2.  The
    # frame is certified tangent once, as skew_form certifies its arguments
    # (each residual is scale-free, so the unit columns pass where it does),
    # and best is skew_form(x, x, y^) per unit column y^ without the re-check.
    metrics._certify_tangency(metrics._tangency_residuals(x, tangent),
                              metrics._SKEW_MESSAGE)
    best = max(abs(form_eval(x.vector, y * (1.0 / y.norm())).imag)
               for y in (_owned(c, sig) for c in tangent.T))
    res = max(anti, pinned, abs(best - 2.0 / (e1 - en).norm()))
    return res <= tol, res, {"max_pairing": best}


# --------------------------------------------------------------- charts


def _kappa_roundtrip(sig, rng, tol):
    chart = charts.make_chart(sample_cone_point(sig, rng))
    r, y = _float_input(sig, rng)
    point = charts.kappa0(chart, r, y)
    cert = max(abs(form_eval(point.vector, point.vector)),
               abs(form_eval(chart.x.vector, point.vector) - 1.0))
    if not cert <= min(tol, 1e-10):
        return False, cert, {"check": "f(k, k) = 0 and f(x, k) = 1"}
    back = charts.chart_inverse(chart, point)
    if back is charts.IN_APERP:
        return False, 1.0, {"check": "unexpected InAperp"}
    r2, y2 = back
    res = max(
        abs(r2 - r) / max(1.0, abs(r)),
        float(_norm(y2 - y)) / max(1.0, float(_norm(y))),
    )
    b = sample_cone_point(sig, rng)
    inv = charts.chart_inverse(chart, b)
    if inv is not charts.IN_APERP:
        rb, yb = inv
        if not quotients.proj_equivalent(charts.kappa0(chart, rb, yb), b):
            return False, 1.0, {"check": "class not fixed"}
    return res <= tol, res, {}


def _chart_domain(sig, rng, tol):
    chart = charts.make_chart(sample_cone_point(sig, rng))
    boundary = charts.sample_aperp_point(chart, rng)
    if charts.chart_inverse(chart, boundary) is not charts.IN_APERP:
        return False, 1.0, {"check": "boundary point not flagged"}
    interior = sample_cone_point(sig, rng)
    pairing = abs(form_eval(interior.vector, chart.x.vector))
    scale = interior.vector.norm() * chart.x.vector.norm()
    if pairing > 1e-6 * scale:
        if charts.chart_inverse(chart, interior) is charts.IN_APERP:
            return False, 1.0, {"check": "interior point flagged"}
    # near = b + t u lies off the boundary by 10 times is_perp's tolerance:
    # f(u, x) = 1, so |f(near, x)| = t = 10 DEFAULT_TOL ||b|| ||x||.
    t = 10.0 * DEFAULT_TOL * boundary.vector.norm() * chart.x.vector.norm()
    if charts.is_perp(boundary.vector + t * chart.u, chart.x):
        return False, 1.0, {"check": "near point read as orthogonal"}
    phase_a = complex(np.exp(1j * rng.uniform(0, 2 * np.pi)))
    lam = float(np.exp(rng.standard_normal()))
    same = charts.is_perp(ConePoint(phase_a * lam * boundary.vector), chart.x)
    return same, 0.0 if same else 1.0, {}


def _aperp_partition(sig, rng, tol):
    chart = charts.make_chart(sample_cone_point(sig, rng))
    b = charts.sample_aperp_point(chart, rng, apex_probability=0.3)
    cls = charts.aperp_classify(chart, b)
    res = 0.0
    if cls.kind == "Apex":
        if not quotients.proj_equivalent(b, chart.x):
            return False, 1.0, {"check": "apex not the center class"}
    else:
        res = max(
            abs(_norm(cls.plus_coords) - 1.0),
            abs(_norm(cls.minus_coords) - 1.0),
        )
        c = complex(np.exp(rng.standard_normal())
                    * np.exp(1j * rng.uniform(0, 2 * np.pi)))
        cls2 = charts.aperp_classify(chart, ConePoint(c * b.vector))
        res = max(
            res,
            abs(cls2.alpha - cls.alpha) / max(1.0, abs(cls.alpha)),
            float(_norm(cls2.plus_coords - cls.plus_coords)),
            float(_norm(cls2.minus_coords - cls.minus_coords)),
        )
    interior = sample_cone_point(sig, rng)
    pairing = abs(form_eval(interior.vector, chart.x.vector))
    if pairing > 1e-6 * interior.vector.norm() * chart.x.vector.norm():
        try:
            charts.aperp_classify(chart, interior)
            return False, 1.0, {"check": "non-boundary point accepted"}
        except NotInAperpError:
            pass
    return res <= tol, res, {"kind": cls.kind}


# --------------------------------------------------------------- oracle


def _field_axioms(sig, rng, tol):
    one = exact.QGaussian.one()
    a, b, c = (exact.random_qgaussian(rng) for _ in range(3))
    checks = [
        (a + b) + c == a + (b + c),
        (a * b) * c == a * (b * c),
        a * (b + c) == a * b + a * c,
        a + b == b + a,
        a * b == b * a,
        a - a == exact.QGaussian.zero(),
        a * one == a,
        (a * b).conjugate() == a.conjugate() * b.conjugate(),
        (a * b).norm2() == a.norm2() * b.norm2(),
    ]
    if not a.is_zero():
        checks.append(a * (one / a) == one)
    ok = all(checks)
    return ok, 0.0 if ok else 1.0, {}


def _exact_roundtrip(sig, rng, tol):
    chart = exact.standard_rational_chart(sig)
    ok = exact.exact_kappa_roundtrip(chart, *_rational_input(sig, rng))
    return ok, 0.0 if ok else 1.0, {}


@cache
def _twin_charts(sig):
    """The standard rational chart and the float chart at its center."""
    rational = exact.standard_rational_chart(sig)
    return rational, charts.make_chart(ConePoint(rational.x.to_cvector()))


def _twin_agreement(sig, rng, tol):
    rational, floated = _twin_charts(sig)
    r, y = _rational_input(sig, rng)
    exact_point = exact.exact_kappa0(rational, r, y)
    float_point = charts.kappa0(floated, float(r), [c.to_complex() for c in y])
    res = (float(_norm(float_point.components
                       - exact_point.to_cvector().components))
           / max(1.0, float(_norm(float_point.components))))
    back = charts.chart_inverse(floated, exact_point.to_cvector())
    exact_back = exact.exact_chart_inverse(rational, exact_point)
    if back is charts.IN_APERP or exact_back is charts.IN_APERP:
        return False, 1.0, {"check": "unexpected InAperp"}
    r_f, y_f = back
    r_e, y_e = exact_back
    res = max(res, abs(r_f - float(r_e)) / max(1.0, abs(r_f)))
    if y_f.size:
        y_e = np.array([c.to_complex() for c in y_e])
        res = max(res, float(_norm(y_f - y_e)))
    return res <= tol, res, {}


@dataclass(frozen=True)
class SuiteDef:
    """A suite: its trial function fn, default trial count and tolerance."""

    fn: object
    trials: int
    tol: float
    description: str
    per_signature: bool = True


SUITES: dict[str, SuiteDef] = {
    "hermitian": SuiteDef(_hermitian, 200, 1e-12,
                          "f(v,u) equals conj(f(u,v))"),
    "sesquilinearity": SuiteDef(_sesquilinearity, 200, 1e-10,
                                "linear in the first slot, conjugate-linear in the second"),
    "unitary-invariance": SuiteDef(_unitary_invariance, 100, 1e-9,
                                   "sampled pseudo-unitaries preserve the form"),
    "cone-sampler": SuiteDef(_cone_sampler, 500, 1e-10,
                             "cone samples are isotropic with balanced blocks"),
    "cross-section": SuiteDef(_cross_section, 200, 1e-9,
                              "ray representatives land on the unit-sphere cross-section"),
    "sphere-chart": SuiteDef(_sphere_chart, 200, 1e-12,
                             "sphere coordinates are unit and reconstruct the representative"),
    "phase-retraction": SuiteDef(_phase_retraction, 200, 1e-9,
                                 "phase reps are pivot-positive, ties to the lowest index"),
    "u1-action": SuiteDef(_u1_action, 200, 1e-9,
                          "unit phases shift torus angles and fix projective classes"),
    "metric-scaling": SuiteDef(_metric_scaling, 50, 1e-9,
                       "metric scales by lambda^2 along the ray"),
    "radical": SuiteDef(_radical, 50, 1e-10,
                        "x spans the tangent radical; quotient signature (2p-1, 2q-1, 0)"),
    "lift-independence": SuiteDef(_lift_independence, 100, 1e-10,
                                  "metric values ignore the choice of tangent lifts"),
    "conformal-class": SuiteDef(_conformal_class, 25, 1e-8,
                                "two splits give the same metric up to the factor (R_a/R_b)^2"),
    "cometric-rank": SuiteDef(_cometric_rank, 20, 1e-9,
                              "quotient cometric has rank 2n-4 with a line radical"),
    "skew-form": SuiteDef(_skew_form, 100, 1e-10,
                          "e_1 + e_n = x; skew form antisymmetric, |f(x, i e_1)| = 1"),
    "kappa-roundtrip": SuiteDef(_kappa_roundtrip, 200, 1e-9,
                                "kappa0 is certified; the inverse undoes it and fixes classes"),
    "chart-domain": SuiteDef(_chart_domain, 100, 1e-9,
                             "boundary points are flagged InAperp, interior and near ones not"),
    "aperp-partition": SuiteDef(_aperp_partition, 100, 1e-9,
                                "boundary classes split into apex and normalized generic data"),
    "field-axioms": SuiteDef(_field_axioms, 300, 0.0,
                             "Gaussian rationals satisfy exact field identities",
                             per_signature=False),
    "exact-roundtrip": SuiteDef(_exact_roundtrip, 50, 0.0,
                                "exact chart round trips return inputs verbatim"),
    "twin-agreement": SuiteDef(_twin_agreement, 50, 1e-12,
                               "float chart agrees with the exact oracle on rational charts"),
}


def suite_names() -> list[str]:
    return list(SUITES)


def _error(exc: QuadricError) -> dict:
    return {"error": type(exc).__name__, "message": str(exc)}


def run_suite(name: str, signature: Signature | None = None,
              trials: int | None = None, seed: int = 0,
              tol: float | None = None) -> list[RunReport]:
    """Run one named suite, one report per signature.

    Trial k draws make_rng(seed, p, q, k)'s stream from one generator per
    signature, re-keyed per trial: no trial may keep rng after it returns.
    A trial that raises a QuadricError fails with residual inf; the others run.
    Trials outside 1..MAX_TRIALS are a ValueError: no report is ok unchecked.
    """
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}")
    defn = SUITES[name]
    n_trials = defn.trials if trials is None else int(trials)
    if not 1 <= n_trials <= MAX_TRIALS:
        raise ValueError(f"trials must be >= 1 and <= 2**32, got {n_trials}")
    threshold = defn.tol if tol is None else float(tol)
    if not defn.per_signature:
        sigs = [signature or Signature(1, 1)]
    else:
        sigs = [signature] if signature is not None else list(DEFAULT_SIGNATURES)
    reports = []
    for sig in sigs:
        start = time.perf_counter()
        passes = failures = 0
        worst = 0.0
        counterexample = None
        for k, rng in enumerate(_trial_streams(seed, (sig.p, sig.q), n_trials)):
            try:
                ok, residual, detail = defn.fn(sig, rng, threshold)
            except QuadricError as exc:
                ok, residual, detail = False, float("inf"), _error(exc)
            worst = max(worst, residual)
            if ok:
                passes += 1
            else:
                failures += 1
                if counterexample is None:
                    counterexample = {"trial": k, "residual": residual,
                                      **detail}
        reports.append(
            RunReport(
                suite=name,
                signature=str(sig) if defn.per_signature else "-",
                seed=seed,
                trials=n_trials,
                passes=passes,
                failures=failures,
                worst_residual=worst,
                elapsed_seconds=time.perf_counter() - start,
                counterexample=counterexample,
            )
        )
    return reports


def run_many(names, signature=None, trials=None, seed=0, tol=None) -> list[RunReport]:
    reports = []
    for name in names:
        reports.extend(run_suite(name, signature, trials, seed, tol))
    return reports
