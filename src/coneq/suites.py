"""Named verification suites runnable from the CLI.

Each suite checks one invariant of the library on seeded random data and
reports pass/fail counts plus the worst residual seen.  Suites are
deterministic: trial k of a run draws from an independent substream of the
given seed, so reports are reproducible byte for byte (timing aside).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import charts, exact, metrics, quotients
from .core import (
    ConePoint,
    CVector,
    Signature,
    _gram,
    form_eval,
    make_rng,
    orthonormalize_indefinite,
    sample_cone_point,
    sample_pseudo_unitary,
    verify_isometry,
)
from .errors import NotInAperpError, QuadricError

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
        return {
            "suite": self.suite,
            "signature": self.signature,
            "seed": self.seed,
            "trials": self.trials,
            "passes": self.passes,
            "failures": self.failures,
            "worst_residual": self.worst_residual,
            "elapsed_seconds": self.elapsed_seconds,
            "counterexample": self.counterexample,
        }


def _random_vector(sig: Signature, rng) -> CVector:
    return CVector(
        rng.standard_normal(sig.n) + 1j * rng.standard_normal(sig.n), sig
    )


def _columns(vectors) -> np.ndarray:
    return np.column_stack([v.components for v in vectors])


def _trial_rng(seed, sig, trial, *extra):
    # Fold the signature into the substream so batteries do not reuse draws.
    return make_rng(seed, sig.p, sig.q, trial, *extra)


def _loop(trials, body):
    """Run body(k) -> (ok, residual, detail); aggregate counts."""
    passes = failures = 0
    worst = 0.0
    counterexample = None
    for k in range(trials):
        ok, residual, detail = body(k)
        worst = max(worst, residual)
        if ok:
            passes += 1
        else:
            failures += 1
            if counterexample is None:
                counterexample = {"trial": k, "residual": residual, **detail}
    return passes, failures, worst, counterexample


# ----------------------------------------------------------------- core


def _suite_hermitian(sig, trials, seed, tol):
    def body(k):
        rng = _trial_rng(seed, sig, k)
        u = _random_vector(sig, rng)
        v = _random_vector(sig, rng)
        val = form_eval(u, v)
        res = abs(form_eval(v, u) - np.conj(val)) / max(1.0, abs(val))
        return res <= tol, res, {}

    return _loop(trials, body)


def _suite_sesquilinearity(sig, trials, seed, tol):
    def body(k):
        rng = _trial_rng(seed, sig, k)
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

    return _loop(trials, body)


def _suite_unitary_invariance(sig, trials, seed, tol):
    def body(k):
        rng = _trial_rng(seed, sig, k)
        u = sample_pseudo_unitary(sig, int(rng.integers(0, 2**32)))
        x = _random_vector(sig, rng)
        y = _random_vector(sig, rng)
        val = form_eval(x, y)
        res = abs(form_eval(u.apply(x), u.apply(y)) - val) / max(1.0, abs(val))
        ok = res <= tol and verify_isometry(u, tol=tol)
        return ok, res, {}

    return _loop(trials, body)


def _suite_orthonormalize(sig, trials, seed, tol):
    def body(k):
        rng = _trial_rng(seed, sig, k)
        n = sig.n
        u = sample_pseudo_unitary(sig, int(rng.integers(0, 2**32)))
        count = int(rng.integers(1, n + 1))
        columns = sorted(rng.choice(n, size=count, replace=False).tolist())
        tp = sum(1 for j in columns if j < sig.p)
        tq = count - tp
        mix = np.eye(count) + 0.3 * rng.standard_normal((count, count))
        mixed = [CVector(c, sig) for c in (u.matrix[:, columns] @ mix).T]
        out = _columns(orthonormalize_indefinite(mixed, (tp, tq)))
        want = np.diag([1.0] * tp + [-1.0] * tq)
        res = float(np.max(np.abs(_gram(out, out, sig) - want)))
        return res <= tol, res, {"target": [tp, tq]}

    return _loop(trials, body)


def _suite_cone_sampler(sig, trials, seed, tol):
    def body(k):
        rng = _trial_rng(seed, sig, k)
        x = sample_cone_point(sig, int(rng.integers(0, 2**32)))
        xp, xm, _ = quotients.split_decompose(x)
        res = max(
            x.isotropy_residual,
            abs(xp.norm() - xm.norm()) / x.vector.norm(),
        )
        return res <= tol, res, {}

    return _loop(trials, body)


# ------------------------------------------------------------ quotients


def _suite_cross_section(sig, trials, seed, tol):
    def body(k):
        rng = _trial_rng(seed, sig, k)
        x = sample_cone_point(sig, int(rng.integers(0, 2**32)))
        ray = quotients.canonicalize_ray(x)
        res = max(abs(ray.plus_norm - 1.0), abs(ray.minus_norm - 1.0))
        if quotients.canonicalize_ray(ray) is not ray:
            return False, 1.0, {"check": "idempotence"}
        lam = float(np.exp(rng.standard_normal()))
        ray2 = quotients.canonicalize_ray(ConePoint(lam * x.vector))
        res = max(
            res,
            float(np.linalg.norm(ray2.components - ray.components))
            / float(np.linalg.norm(ray.components)),
        )
        return res <= tol, res, {}

    return _loop(trials, body)


def _suite_sphere_chart(sig, trials, seed, tol):
    def body(k):
        rng = _trial_rng(seed, sig, k)
        use_transported = k % 2 == 1
        split = (
            quotients.sample_split(sig, int(rng.integers(0, 2**32)))
            if use_transported
            else quotients.standard_split(sig)
        )
        x = sample_cone_point(sig, int(rng.integers(0, 2**32)))
        ray = quotients.canonicalize_ray(x, split)
        sp = ray.sphere_plus()
        sm = ray.sphere_minus()
        res = max(
            abs(np.linalg.norm(sp) - 1.0), abs(np.linalg.norm(sm) - 1.0)
        )
        rebuilt = split.from_coefficients(np.concatenate([sp, sm]))
        res = max(
            res,
            float(np.linalg.norm(rebuilt.components - ray.components))
            / float(np.linalg.norm(ray.components)),
        )
        return res <= tol, res, {"split": split.label}

    return _loop(trials, body)


def _suite_phase_retraction(sig, trials, seed, tol):
    def body(k):
        rng = _trial_rng(seed, sig, k)
        x = sample_cone_point(sig, int(rng.integers(0, 2**32)))
        rep = quotients.canonicalize_phase(x)
        piv = rep.components[rep.pivot_index]
        res = abs(piv.imag) / abs(piv)
        if piv.real <= 0 or abs(piv) < np.max(np.abs(rep.components)) * (1 - 1e-9):
            return False, 1.0, {"check": "pivot"}
        if quotients.canonicalize_phase(rep) is not rep:
            return False, 1.0, {"check": "idempotence"}
        c = np.exp(rng.standard_normal()) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        rep2 = quotients.canonicalize_phase(ConePoint(c * x.vector))
        res = max(
            res,
            float(np.linalg.norm(rep2.components - rep.components))
            / float(np.linalg.norm(rep.components)),
        )
        return res <= tol, res, {}

    return _loop(trials, body)


def _suite_u1_action(sig, trials, seed, tol):
    torus_case = sig == Signature(1, 1)

    def body(k):
        rng = _trial_rng(seed, sig, k)
        x = sample_cone_point(sig, int(rng.integers(0, 2**32)))
        theta = float(rng.uniform(0, 2 * np.pi))
        shifted = ConePoint(np.exp(1j * theta) * x.vector)
        if torus_case:
            phi = quotients.torus_coords(x)
            phi2 = quotients.torus_coords(shifted)
            res = max(
                abs(np.exp(1j * (phi2[0] - phi[0] - theta)) - 1.0),
                abs(np.exp(1j * (phi2[1] - phi[1] - theta)) - 1.0),
            )
            return res <= tol, float(res), {}
        ok = quotients.proj_equivalent(x, shifted, tol)
        return ok, 0.0 if ok else 1.0, {}

    return _loop(trials, body)


# -------------------------------------------------------------- metrics


def _suite_metric_scaling(sig, trials, seed, tol):
    def body(k):
        rng = _trial_rng(seed, sig, k)
        x = sample_cone_point(sig, int(rng.integers(0, 2**32)))
        frame = metrics.adapted_frame(x)
        g = metrics.induced_metric(x, basis=frame.quotient_basis,
                                   labels=frame.quotient_labels)
        scale = float(np.max(np.abs(g.entries)))
        res = 0.0
        for lam in (0.5, 2.0, 3.7):
            scaled_point = ConePoint(lam * x.vector)
            scaled_basis = [lam * v for v in frame.quotient_basis]
            g_lam = metrics.induced_metric(scaled_point, basis=scaled_basis)
            res = max(
                res,
                float(np.max(np.abs(g_lam.entries - lam**2 * g.entries))) / scale,
            )
        return res <= tol, res, {}

    return _loop(trials, body)


def _suite_radical(sig, trials, seed, tol):
    def body(k):
        rng = _trial_rng(seed, sig, k)
        x = sample_cone_point(sig, int(rng.integers(0, 2**32)))
        frame = metrics.adapted_frame(x)
        xv = x.vector
        tangent = _columns(frame.tangent_basis)
        res = float(np.max(np.abs(_gram(x.components, tangent, sig).real)
                           / (xv.norm() * np.linalg.norm(tangent, axis=0))))
        z = CVector(tangent @ rng.standard_normal(tangent.shape[1]), sig)
        res = max(res, abs(form_eval(xv, z).real) / (xv.norm() * max(z.norm(), 1e-12)))
        g = metrics.induced_metric(x, basis=frame.quotient_basis,
                                   labels=frame.quotient_labels)
        ok = res <= tol and g.signature[2] == 0
        return ok, res, {"quotient_signature": list(g.signature)}

    return _loop(trials, body)


def _suite_metric_signature(sig, trials, seed, tol):
    expected = (2 * sig.p - 1, 2 * sig.q - 1, 0)

    def body(k):
        rng = _trial_rng(seed, sig, k)
        x = sample_cone_point(sig, int(rng.integers(0, 2**32)))
        g = metrics.induced_metric(x)
        ok = g.signature == expected
        return ok, 0.0 if ok else 1.0, {"signature": list(g.signature)}

    return _loop(trials, body)


def _suite_lift_independence(sig, trials, seed, tol):
    def body(k):
        rng = _trial_rng(seed, sig, k)
        x = sample_cone_point(sig, int(rng.integers(0, 2**32)))
        frame = metrics.adapted_frame(x)
        basis = _columns(frame.quotient_basis)
        cv, cw = rng.standard_normal((2, basis.shape[1]))
        v = CVector(basis @ cv, sig)
        w = CVector(basis @ cw, sig)
        s, t = rng.standard_normal(2)
        base = form_eval(v, w).real
        shifted = form_eval(v + complex(s) * x.vector, w + complex(t) * x.vector).real
        scale = max(1.0, abs(base))
        res = abs(shifted - base) / scale
        return res <= tol, res, {}

    return _loop(trials, body)


def _suite_conformal_class(sig, trials, seed, tol):
    def body(k):
        rng = _trial_rng(seed, sig, k)
        x = sample_cone_point(sig, int(rng.integers(0, 2**32)))
        other = quotients.sample_split(sig, int(rng.integers(0, 2**32)))
        factor, res = metrics.conformal_factor(
            x, quotients.standard_split(sig), other
        )
        return (factor > 0 and res <= tol), res, {"factor": factor}

    return _loop(trials, body)


def _suite_cometric_rank(sig, trials, seed, tol):
    n = sig.n

    def body(k):
        rng = _trial_rng(seed, sig, k)
        x = sample_cone_point(sig, int(rng.integers(0, 2**32)))
        co = metrics.cotangent_metric_qtilde(x)
        want_rank = 2 * n - 4 if n >= 3 else 0
        ok = co.rank == want_rank and co.signature[2] == 1
        res = 0.0
        if n == 2:
            res = float(np.max(np.abs(co.entries)))
            ok = ok and res <= 1e-10
        else:
            mids_eta = [1.0] * (2 * (sig.p - 1)) + [-1.0] * (2 * (sig.q - 1))
            inclusion = np.vstack(
                [np.zeros(2 * n - 4), np.eye(2 * n - 4)]
            )
            dual = metrics.dualize_degenerate(inclusion, np.diag(mids_eta))
            res = float(np.max(np.abs(co.entries - dual.entries)))
            ok = ok and res <= max(tol, 1e-12)
        return ok, res, {"rank": co.rank, "signature": list(co.signature)}

    return _loop(trials, body)


def _suite_skew_form(sig, trials, seed, tol):
    def body(k):
        rng = _trial_rng(seed, sig, k)
        x = quotients.canonicalize_ray(
            sample_cone_point(sig, int(rng.integers(0, 2**32)))
        ).point
        frame = metrics.adapted_frame(x)
        tangent = _columns(frame.tangent_basis)
        coeffs = rng.standard_normal((2, tangent.shape[1]))
        va = CVector(tangent @ coeffs[0], sig)
        vb = CVector(tangent @ coeffs[1], sig)
        anti = abs(
            metrics.skew_form(x, va, vb) + metrics.skew_form(x, vb, va)
        ) / max(1.0, abs(form_eval(va, vb)))
        e1, en = frame.witt_basis[0], frame.witt_basis[-1]
        pinned = abs(abs(metrics.skew_form(x, x.vector, 1j * e1)) - 1.0)
        best = 0.0
        for y in frame.tangent_basis:
            best = max(
                best, abs(metrics.skew_form(x, x.vector, y * (1.0 / y.norm())))
            )
        # x pairs only with f3 = i(e_1 - e_n) in the tangent basis, where
        # |Im f(x, f3)| = f(e_1, e_1) - f(e_n, e_n) = 2.
        res = max(anti, pinned, abs(best - 2.0 / (e1 - en).norm()))
        return res <= tol, res, {"max_pairing": best}

    return _loop(trials, body)


# --------------------------------------------------------------- charts


def _suite_witt_extension(sig, trials, seed, tol):
    eta = np.diag(sig.eta)

    def body(k):
        rng = _trial_rng(seed, sig, k)
        x = sample_cone_point(sig, int(rng.integers(0, 2**32)))
        basis = _columns(charts.extend_to_witt_basis(x))
        res = float(np.max(np.abs(_gram(basis, basis, sig) - eta)))
        rebuilt = basis[:, 0] + basis[:, -1]
        res_x = (
            float(np.linalg.norm(rebuilt - x.components)) / x.vector.norm()
        )
        ok = res <= tol and res_x <= 1e-12
        return ok, max(res, res_x), {"x_residual": res_x}

    return _loop(trials, body)


def _suite_kappa_certificates(sig, trials, seed, tol):
    def body(k):
        rng = _trial_rng(seed, sig, k)
        chart = charts.make_chart(
            sample_cone_point(sig, int(rng.integers(0, 2**32)))
        )
        y = rng.standard_normal(sig.n - 2) + 1j * rng.standard_normal(sig.n - 2)
        r = float(2.0 * rng.standard_normal())
        point = charts.kappa0(chart, r, y)
        res = max(
            abs(form_eval(point.vector, point.vector)),
            abs(form_eval(chart.x.vector, point.vector) - 1.0),
        )
        return res <= tol, res, {}

    return _loop(trials, body)


def _suite_kappa_roundtrip(sig, trials, seed, tol):
    def body(k):
        rng = _trial_rng(seed, sig, k)
        chart = charts.make_chart(
            sample_cone_point(sig, int(rng.integers(0, 2**32)))
        )
        y = rng.standard_normal(sig.n - 2) + 1j * rng.standard_normal(sig.n - 2)
        r = float(2.0 * rng.standard_normal())
        back = charts.chart_inverse(chart, charts.kappa0(chart, r, y))
        if back is charts.IN_APERP:
            return False, 1.0, {"check": "unexpected InAperp"}
        r2, y2 = back
        res = max(
            abs(r2 - r) / max(1.0, abs(r)),
            float(np.linalg.norm(y2 - y)) / max(1.0, float(np.linalg.norm(y))),
        )
        b = sample_cone_point(sig, int(rng.integers(0, 2**32)))
        inv = charts.chart_inverse(chart, b)
        if inv is not charts.IN_APERP:
            rb, yb = inv
            if not quotients.proj_equivalent(charts.kappa0(chart, rb, yb), b):
                return False, 1.0, {"check": "class not fixed"}
        return res <= tol, res, {}

    return _loop(trials, body)


def _suite_chart_domain(sig, trials, seed, tol):
    def body(k):
        rng = _trial_rng(seed, sig, k)
        chart = charts.make_chart(
            sample_cone_point(sig, int(rng.integers(0, 2**32)))
        )
        boundary = charts.sample_aperp_point(chart, int(rng.integers(0, 2**32)))
        if charts.chart_inverse(chart, boundary) is not charts.IN_APERP:
            return False, 1.0, {"check": "boundary point not flagged"}
        interior = sample_cone_point(sig, int(rng.integers(0, 2**32)))
        pairing = abs(form_eval(interior.vector, chart.x.vector))
        scale = interior.vector.norm() * chart.x.vector.norm()
        if pairing > 1e-6 * scale:
            if charts.chart_inverse(chart, interior) is charts.IN_APERP:
                return False, 1.0, {"check": "interior point flagged"}
        phase_a = complex(np.exp(1j * rng.uniform(0, 2 * np.pi)))
        lam = float(np.exp(rng.standard_normal()))
        same = charts.is_perp(
            ConePoint(phase_a * lam * boundary.vector), chart.x
        )
        return same, 0.0 if same else 1.0, {}

    return _loop(trials, body)


def _suite_aperp_partition(sig, trials, seed, tol):
    def body(k):
        rng = _trial_rng(seed, sig, k)
        chart = charts.make_chart(
            sample_cone_point(sig, int(rng.integers(0, 2**32)))
        )
        b = charts.sample_aperp_point(
            chart, int(rng.integers(0, 2**32)), apex_probability=0.3
        )
        cls = charts.aperp_classify(chart, b)
        res = 0.0
        if cls.kind == "Apex":
            if not quotients.proj_equivalent(b, chart.x):
                return False, 1.0, {"check": "apex not the center class"}
        else:
            res = max(
                abs(np.linalg.norm(cls.plus_coords) - 1.0),
                abs(np.linalg.norm(cls.minus_coords) - 1.0),
            )
            c = complex(
                np.exp(rng.standard_normal())
                * np.exp(1j * rng.uniform(0, 2 * np.pi))
            )
            cls2 = charts.aperp_classify(chart, ConePoint(c * b.vector))
            res = max(
                res,
                abs(cls2.alpha - cls.alpha) / max(1.0, abs(cls.alpha)),
                float(np.linalg.norm(cls2.plus_coords - cls.plus_coords)),
                float(np.linalg.norm(cls2.minus_coords - cls.minus_coords)),
            )
        interior = sample_cone_point(sig, int(rng.integers(0, 2**32)))
        pairing = abs(form_eval(interior.vector, chart.x.vector))
        if pairing > 1e-6 * interior.vector.norm() * chart.x.vector.norm():
            try:
                charts.aperp_classify(chart, interior)
                return False, 1.0, {"check": "non-boundary point accepted"}
            except NotInAperpError:
                pass
        return res <= tol, res, {"kind": cls.kind}

    return _loop(trials, body)


# --------------------------------------------------------------- oracle


def _suite_field_axioms(sig, trials, seed, tol):
    one = exact.QGaussian.one()
    zero = exact.QGaussian.zero()

    def body(k):
        rng = make_rng(seed, 99, k)
        a, b, c = (exact.random_qgaussian(rng) for _ in range(3))
        checks = [
            (a + b) + c == a + (b + c),
            (a * b) * c == a * (b * c),
            a * (b + c) == a * b + a * c,
            a + b == b + a,
            a * b == b * a,
            a - a == zero,
            a * one == a,
            (a * b).conjugate() == a.conjugate() * b.conjugate(),
            (a * b).norm2() == a.norm2() * b.norm2(),
        ]
        if not a.is_zero():
            checks.append(a * (one / a) == one)
        ok = all(checks)
        return ok, 0.0 if ok else 1.0, {}

    return _loop(trials, body)


def _suite_exact_roundtrip(sig, trials, seed, tol):
    chart = exact.standard_rational_chart(sig)

    def body(k):
        rng = make_rng(seed, sig.p, sig.q, k)
        r = Fraction(int(rng.integers(-20, 21)), int(rng.integers(1, 13)))
        y = tuple(exact.random_qgaussian(rng) for _ in range(sig.n - 2))
        ok = exact.exact_kappa_roundtrip(chart, r, y)
        return ok, 0.0 if ok else 1.0, {}

    return _loop(trials, body)


def _suite_twin_agreement(sig, trials, seed, tol):
    rational = exact.standard_rational_chart(sig)
    center = ConePoint(rational.x.to_cvector())
    floated = charts.make_chart(center)

    def body(k):
        rng = make_rng(seed, sig.p, sig.q, k, 5)
        r = Fraction(int(rng.integers(-20, 21)), int(rng.integers(1, 13)))
        y = tuple(exact.random_qgaussian(rng) for _ in range(sig.n - 2))
        exact_point = exact.exact_kappa0(rational, r, y)
        float_point = charts.kappa0(
            floated, float(r), [c.to_complex() for c in y]
        )
        res = float(
            np.linalg.norm(
                float_point.components - exact_point.to_cvector().components
            )
        ) / max(1.0, float(np.linalg.norm(float_point.components)))
        back = charts.chart_inverse(floated, exact_point.to_cvector())
        exact_back = exact.exact_chart_inverse(rational, exact_point)
        if back is charts.IN_APERP or exact_back is charts.IN_APERP:
            return False, 1.0, {"check": "unexpected InAperp"}
        r_f, y_f = back
        r_e, y_e = exact_back
        res = max(res, abs(r_f - float(r_e)) / max(1.0, abs(r_f)))
        if y_f.size:
            res = max(
                res,
                float(
                    np.linalg.norm(
                        y_f - np.array([c.to_complex() for c in y_e])
                    )
                ),
            )
        return res <= tol, res, {}

    return _loop(trials, body)


@dataclass(frozen=True)
class SuiteDef:
    fn: object
    trials: int
    tol: float
    description: str
    per_signature: bool = True


SUITES: dict[str, SuiteDef] = {
    "hermitian": SuiteDef(_suite_hermitian, 200, 1e-12,
                          "f(v,u) equals conj(f(u,v))"),
    "sesquilinearity": SuiteDef(_suite_sesquilinearity, 200, 1e-10,
                                "linear in the first slot, conjugate-linear in the second"),
    "unitary-invariance": SuiteDef(_suite_unitary_invariance, 100, 1e-9,
                                   "sampled pseudo-unitaries preserve the form"),
    "orthonormalize": SuiteDef(_suite_orthonormalize, 100, 1e-9,
                               "orthonormalization hits the target Gram matrix"),
    "cone-sampler": SuiteDef(_suite_cone_sampler, 500, 1e-10,
                             "cone samples are isotropic with balanced blocks"),
    "cross-section": SuiteDef(_suite_cross_section, 200, 1e-9,
                              "ray representatives land on the unit-sphere cross-section"),
    "sphere-chart": SuiteDef(_suite_sphere_chart, 200, 1e-12,
                             "sphere coordinates are unit and reconstruct the representative"),
    "phase-retraction": SuiteDef(_suite_phase_retraction, 200, 1e-9,
                                 "phase canonicalization is a retraction onto pivot-positive reps"),
    "u1-action": SuiteDef(_suite_u1_action, 200, 1e-9,
                          "unit phases shift torus angles and fix projective classes"),
    "metric-scaling": SuiteDef(_suite_metric_scaling, 50, 1e-9,
                       "metric scales by lambda^2 along the ray"),
    "radical": SuiteDef(_suite_radical, 50, 1e-10,
                        "the ray direction spans the radical of the tangent metric"),
    "metric-signature": SuiteDef(_suite_metric_signature, 100, 1e-9,
                                 "quotient metric has signature (2p-1, 2q-1, 0)"),
    "lift-independence": SuiteDef(_suite_lift_independence, 100, 1e-10,
                                  "metric values ignore the choice of tangent lifts"),
    "conformal-class": SuiteDef(_suite_conformal_class, 25, 1e-8,
                                "two splits give the same metric up to a positive factor"),
    "cometric-rank": SuiteDef(_suite_cometric_rank, 20, 1e-9,
                              "quotient cometric has rank 2n-4 with a line radical"),
    "skew-form": SuiteDef(_suite_skew_form, 100, 1e-10,
                          "skew form is antisymmetric and pairs x with i e_1 at modulus 1"),
    "witt-extension": SuiteDef(_suite_witt_extension, 100, 1e-9,
                       "Witt extension: Gram equals eta and e_1 + e_n = x"),
    "kappa-certificates": SuiteDef(_suite_kappa_certificates, 300, 1e-10,
                                   "chart outputs are isotropic and normalized against x"),
    "kappa-roundtrip": SuiteDef(_suite_kappa_roundtrip, 200, 1e-9,
                                "chart inverse undoes the chart and fixes classes"),
    "chart-domain": SuiteDef(_suite_chart_domain, 100, 1e-9,
                             "boundary points are flagged InAperp, interior points are not"),
    "aperp-partition": SuiteDef(_suite_aperp_partition, 100, 1e-9,
                                "boundary classes split into apex and normalized generic data"),
    "field-axioms": SuiteDef(_suite_field_axioms, 300, 0.0,
                             "Gaussian rationals satisfy exact field identities",
                             per_signature=False),
    "exact-roundtrip": SuiteDef(_suite_exact_roundtrip, 50, 0.0,
                                "exact chart round trips return inputs verbatim"),
    "twin-agreement": SuiteDef(_suite_twin_agreement, 50, 1e-12,
                               "float chart agrees with the exact oracle on rational charts"),
}


def suite_names() -> list[str]:
    return list(SUITES)


def run_suite(name: str, signature: Signature | None = None,
              trials: int | None = None, seed: int = 0,
              tol: float | None = None) -> list[RunReport]:
    """Run one named suite, one report per signature."""
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}")
    defn = SUITES[name]
    n_trials = defn.trials if trials is None else int(trials)
    threshold = defn.tol if tol is None else float(tol)
    if not defn.per_signature:
        sigs = [signature or Signature(1, 1)]
    else:
        sigs = [signature] if signature is not None else list(DEFAULT_SIGNATURES)
    reports = []
    for sig in sigs:
        start = time.perf_counter()
        try:
            passes, failures, worst, ce = defn.fn(sig, n_trials, seed, threshold)
        except QuadricError as exc:
            passes, failures, worst = 0, n_trials, float("inf")
            ce = {"error": type(exc).__name__, "message": str(exc)}
        elapsed = time.perf_counter() - start
        reports.append(
            RunReport(
                suite=name,
                signature=str(sig) if defn.per_signature else "-",
                seed=seed,
                trials=n_trials,
                passes=passes,
                failures=failures,
                worst_residual=worst,
                elapsed_seconds=elapsed,
                counterexample=ce,
            )
        )
    return reports


def run_many(names, signature=None, trials=None, seed=0, tol=None) -> list[RunReport]:
    reports = []
    for name in names:
        reports.extend(run_suite(name, signature, trials, seed, tol))
    return reports
