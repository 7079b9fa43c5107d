"""Failed certificates carry their residual and threshold as attributes;
their messages are unchanged."""

import pickle

import numpy as np
import pytest

from coneq import (
    DEFAULT_TOL,
    ChartFrame,
    ConePoint,
    CVector,
    DegenerateInputError,
    GroupElement,
    InternalContractError,
    NondegeneracyError,
    NotIsometryError,
    NotIsotropicError,
    QuadricError,
    RayRep,
    Signature,
    Split,
    TangencyError,
    UnsupportedChartError,
    basis_vector,
    chart_inverse,
    conformal_factor,
    cotangent_metric_qtilde,
    hyperbolic_partner,
    induced_metric,
    kappa0,
    make_chart,
    quotient_basis,
    sample_cone_point,
    sample_split,
    skew_form,
    standard_split,
)
from coneq import charts, core, metrics, quotients
from coneq.exact import RationalChart, standard_rational_chart
from coneq.metrics import TANGENCY_TOL

SIG11 = Signature(1, 1)
SIG22 = Signature(2, 2)


def standard_center():
    return ConePoint(basis_vector(SIG22, 0) + basis_vector(SIG22, 3))


class TestQuadricErrorAttributes:
    def test_default_is_none(self):
        exc = QuadricError("plain")
        assert exc.residual is None and exc.threshold is None
        assert str(exc) == "plain" and exc.args == ("plain",)

    def test_attributes_leave_the_message_alone(self):
        exc = TangencyError("bad", residual=2.0, threshold=1.0)
        assert str(exc) == "bad" and exc.args == ("bad",)
        assert repr(exc) == "TangencyError('bad')"
        assert (exc.residual, exc.threshold) == (2.0, 1.0)

    def test_pickle_keeps_them(self):
        exc = pickle.loads(pickle.dumps(
            NotIsotropicError("m", residual=0.5, threshold=1e-9)))
        assert str(exc) == "m"
        assert (exc.residual, exc.threshold) == (0.5, 1e-9)


class TestCertificatesSetThem:
    def test_cone_point(self):
        v = CVector(np.array([1, 0.5j, 0.2, 0]), SIG22)
        with pytest.raises(NotIsotropicError) as info:
            ConePoint(v, tol=1e-6)
        exc = info.value
        assert exc.threshold == 1e-6
        assert exc.residual > exc.threshold
        expected = (1 + 0.25 - 0.04) / (1 + 0.25 + 0.04)
        assert exc.residual == pytest.approx(expected, rel=1e-15)
        assert str(exc) == (f"|f(x,x)|/||x||^2 = {exc.residual:.3e} "
                            f"exceeds tol {1e-6:.3e}")

    def test_cone_point_non_finite_measures_nothing(self):
        with pytest.raises(NotIsotropicError) as info:
            ConePoint(CVector(np.array([1, np.inf, 1, 0]), SIG22))
        assert info.value.residual is None and info.value.threshold is None

    def test_chart_frame(self):
        x = sample_cone_point(SIG22, 1)
        good = make_chart(x)
        with pytest.raises(UnsupportedChartError) as info:
            ChartFrame(x, basis_vector(SIG22, 0), good.mu_basis)
        exc = info.value
        assert exc.threshold == DEFAULT_TOL
        assert exc.residual > exc.threshold
        assert str(exc) == f"chart identities fail by {exc.residual:.3e}"

    def test_chart_frame_count_error_measures_nothing(self):
        x = sample_cone_point(SIG22, 1)
        with pytest.raises(UnsupportedChartError) as info:
            ChartFrame(x, hyperbolic_partner(x), (basis_vector(SIG22, 1),))
        assert info.value.residual is None

    def test_frame_gram_tangency(self):
        # The partner u has f(u, x) = 1, so it is not tangent at x.
        x = sample_cone_point(SIG22, 2)
        u = hyperbolic_partner(x)
        basis = list(quotient_basis(x))
        basis[2] = u
        with pytest.raises(TangencyError) as info:
            induced_metric(x, basis=basis)
        exc = info.value
        assert exc.threshold == TANGENCY_TOL
        assert exc.residual == pytest.approx(
            1.0 / (u.norm() * x.vector.norm()), rel=1e-12)
        assert str(exc) == (f"basis vector 2 has tangency residual "
                            f"{exc.residual:.3e} at x")

    def test_cometric_inversion(self):
        # A nearly dependent pair of frame vectors leaves the Gram invertible
        # in floating point, with an inversion residual above 1e-6.
        x = sample_cone_point(SIG22, 1)
        base = list(quotient_basis(x))
        raised = []
        for eps in (1e-5, 1e-6, 1e-7):
            basis = base[:]
            basis[3] = base[2] + eps * base[3]
            try:
                cotangent_metric_qtilde(x, basis=basis)
            except NondegeneracyError as exc:
                raised.append(exc)
        assert raised
        for exc in raised:
            assert exc.threshold == 1e-6
            assert exc.residual > exc.threshold
            assert str(exc) == (f"quotient metric inversion failed "
                                f"(residual {exc.residual:.3e})")

    @pytest.mark.parametrize("eps", [1e-5, 1e-8, 1e-10, 1e-13])
    def test_cometric_rejects_a_numerically_singular_gram(self, eps):
        # G G^-1 = I holds to rounding at eps = 1e-8 and below, where
        # cond(G) is about 1e16; the residual is then kappa(G) eps.
        x = sample_cone_point(SIG22, 1)
        basis = list(quotient_basis(x))
        basis[3] = basis[2] + eps * basis[3]
        with pytest.raises(NondegeneracyError) as info:
            cotangent_metric_qtilde(x, basis=basis)
        exc = info.value
        assert exc.threshold == 1e-6 and exc.residual > exc.threshold
        assert str(exc) == ("quotient metric inversion failed "
                            f"(residual {exc.residual:.3e})")

    @pytest.mark.parametrize("eps", [1e-4, 1e-3])
    def test_cometric_keeps_a_well_conditioned_gram(self, eps):
        x = sample_cone_point(SIG22, 1)
        basis = list(quotient_basis(x))
        basis[3] = basis[2] + eps * basis[3]
        assert cotangent_metric_qtilde(x, basis=basis).signature == (2, 2, 1)

    def test_rational_chart(self):
        good = standard_rational_chart(SIG22)
        with pytest.raises(UnsupportedChartError) as info:
            RationalChart(good.x, good.u, tuple(reversed(good.mu_basis)))
        exc = info.value
        # f(e_3, e_3) = -1 where the middle slot wants +1, and vice versa.
        assert (exc.residual, exc.threshold) == (2.0, 0.0)
        assert str(exc) == "chart data do not satisfy the chart identities exactly"
        # A wrong middle-vector count measures nothing.
        with pytest.raises(UnsupportedChartError) as info:
            RationalChart(good.x, good.u, good.mu_basis[:1])
        assert info.value.residual is None and info.value.threshold is None

    def test_split(self):
        # Columns (1, 1) and (1, -1): f-Gram [[0, 2], [2, 0]] against eta.
        basis = (CVector(np.array([1, 1]), SIG11), CVector(np.array([1, -1]), SIG11))
        with pytest.raises(NotIsometryError) as info:
            Split(basis)
        exc = info.value
        assert (exc.residual, exc.threshold) == (2.0, DEFAULT_TOL)
        assert str(exc) == f"basis Gram deviates from eta by {2.0:.3e}"

    def test_group_element(self):
        # U = 2I gives U^H eta U - eta = 3 eta.
        with pytest.raises(NotIsometryError) as info:
            GroupElement(2.0 * np.eye(2), SIG11, tol=1e-10)
        exc = info.value
        assert (exc.residual, exc.threshold) == (3.0, 1e-10)
        assert str(exc) == (f"||U^H eta U - eta||_max = {3.0:.3e} "
                            f"exceeds tol {1e-10:.3e}")

    @pytest.mark.parametrize("plus, minus, worst", [
        (1.5, 1.0, 0.5), (1.0, 0.75, 0.25), (1.0, np.nan, np.nan),
    ])
    def test_ray_rep_unit_norms(self, plus, minus, worst):
        point = ConePoint(CVector(np.array([1, 1]), SIG11))
        with pytest.raises(DegenerateInputError) as info:
            RayRep(point, standard_split(SIG11), plus, minus)
        exc = info.value
        assert exc.threshold == 1e-9
        np.testing.assert_equal(exc.residual, worst)
        assert str(exc) == "ray representative blocks must have unit norm"

    def test_kappa0_normalization(self):
        # A partner 5e-10 too long passes the chart check (relative 1e-9)
        # but not kappa0's f(x, kappa0) = 1 at 1e-10; ||x|| ||u|| = 1 here.
        x = standard_center()
        good = make_chart(x)
        chart = ChartFrame(x, (1.0 + 5e-10) * good.u, good.mu_basis)
        with pytest.raises(InternalContractError) as info:
            kappa0(chart, 0.0, [0.0, 0.0])
        exc = info.value
        assert exc.threshold == 1e-10
        assert exc.residual == pytest.approx(5e-10, rel=1e-6)
        pairing = 1.0 + 5e-10 + 0j
        assert str(exc) == f"chart normalization f(x, kappa0) = {pairing:.15g} != 1"

    def test_chart_inverse_drift(self):
        # b = e_1 is not isotropic: the drift is f(b, b)/2 over ||b||^2.
        chart = make_chart(standard_center())
        with pytest.raises(InternalContractError) as info:
            chart_inverse(chart, basis_vector(SIG22, 0))
        exc = info.value
        assert (exc.residual, exc.threshold) == (0.5, 1e-6)
        assert str(exc) == ("recovered Re(beta) deviates from -f(y,y)/2 by "
                            f"{0.5:.3e} relative to ||b'||^2")

    def test_skew_form_tangency(self):
        x = sample_cone_point(SIG22, 2)
        u = hyperbolic_partner(x)
        tangent = quotient_basis(x)[0]
        with pytest.raises(TangencyError) as info:
            skew_form(x, tangent, u)
        exc = info.value
        assert exc.threshold == TANGENCY_TOL
        assert exc.residual == pytest.approx(
            1.0 / (u.norm() * x.vector.norm()), rel=1e-12)
        assert str(exc) == (f"skew form argument has tangency residual "
                            f"{exc.residual:.3e}")

    def test_conformal_factor_fit(self, monkeypatch):
        fit = metrics._quotient_fit

        def loose_fit(xa, cols):
            return fit(xa, cols)[0], 1e-3

        monkeypatch.setattr(metrics, "_quotient_fit", loose_fit)
        x = sample_cone_point(SIG22, 4)
        with pytest.raises(TangencyError) as info:
            conformal_factor(x, standard_split(SIG22), sample_split(SIG22, 1))
        exc = info.value
        assert (exc.residual, exc.threshold) == (1e-3, 1e-8)
        assert str(exc) == ("frames do not span a common quotient "
                            f"(residual {1e-3:.3e})")


def _nan_residuals(x, cols):
    return np.full(cols.shape[1], np.nan)


def _nan_cone_point(mp):
    mp.setattr(core, "_isotropy_sums", lambda vec: (np.nan, 1.0))
    ConePoint(basis_vector(SIG11, 0) + basis_vector(SIG11, 1))


def _nan_group_element(mp):
    mp.setattr(core, "_pseudo_unitarity_residual", lambda mat, sig: np.nan)
    GroupElement(np.eye(2), SIG11)


def _nan_split(mp):
    mp.setattr(quotients, "_pseudo_unitarity_residual", lambda mat, sig: np.nan)
    Split((basis_vector(SIG11, 0), basis_vector(SIG11, 1)))


def _nan_ray_rep(mp):
    point = ConePoint(CVector(np.array([1, 1]), SIG11))
    RayRep(point, standard_split(SIG11), np.nan, 1.0)


def _nan_chart_frame(mp):
    x = sample_cone_point(SIG22, 1)
    u = CVector(np.array([np.nan, 0, 0, 0]), SIG22)
    ChartFrame(x, u, make_chart(x).mu_basis)


def _nan_kappa0(mp):
    chart = make_chart(standard_center())
    form = charts.form_eval
    mp.setattr(charts, "form_eval", lambda a, b: (
        complex(np.nan, 0.0) if a is chart.x.vector else form(a, b)))
    kappa0(chart, 0.0, [0.0, 0.0])


def _nan_chart_inverse(mp):
    chart = make_chart(standard_center())
    mp.setattr(charts, "_frame_coords",
               lambda chart, v: (complex(np.nan, 0.0), np.zeros(2, complex)))
    chart_inverse(chart, basis_vector(SIG22, 0))


def _nan_frame_gram(mp):
    x = sample_cone_point(SIG22, 2)
    mp.setattr(metrics, "_tangency_residuals", _nan_residuals)
    induced_metric(x, basis=quotient_basis(x))


def _nan_skew_form(mp):
    x = sample_cone_point(SIG22, 2)
    tangent = quotient_basis(x)[0]
    mp.setattr(metrics, "_tangency_residuals", _nan_residuals)
    skew_form(x, tangent, tangent)


def _nan_quotient_gram(mp):
    x = sample_cone_point(SIG22, 2)
    mp.setattr(metrics, "_quotient_target", lambda sig: np.full((6, 6), np.nan))
    induced_metric(x)


def _nan_cometric_row(mp):
    x = sample_cone_point(SIG22, 2)
    induced_metric(x)
    mp.setattr(metrics, "_norm", lambda a: np.float64(np.nan))
    cotangent_metric_qtilde(x)


def _nan_cometric(mp):
    x = sample_cone_point(SIG22, 2)
    mp.setattr(np.linalg, "inv", lambda a: np.full(a.shape, np.nan))
    cotangent_metric_qtilde(x)


def _nan_conformal_fit(mp):
    fit = metrics._quotient_fit
    mp.setattr(metrics, "_quotient_fit", lambda xa, cols: (fit(xa, cols)[0], np.nan))
    conformal_factor(sample_cone_point(SIG22, 4), standard_split(SIG22),
                     sample_split(SIG22, 1))


@pytest.mark.parametrize("drive, error, threshold, message", [
    (_nan_cone_point, NotIsotropicError, DEFAULT_TOL,
     f"|f(x,x)|/||x||^2 = nan exceeds tol {DEFAULT_TOL:.3e}"),
    (_nan_group_element, NotIsometryError, DEFAULT_TOL,
     f"||U^H eta U - eta||_max = nan exceeds tol {DEFAULT_TOL:.3e}"),
    (_nan_split, NotIsometryError, DEFAULT_TOL, "basis Gram deviates from eta by nan"),
    (_nan_ray_rep, DegenerateInputError, 1e-9,
     "ray representative blocks must have unit norm"),
    (_nan_chart_frame, UnsupportedChartError, DEFAULT_TOL, "chart identities fail by nan"),
    (_nan_kappa0, InternalContractError, 1e-10,
     f"chart normalization f(x, kappa0) = {complex(np.nan, 0.0):.15g} != 1"),
    (_nan_chart_inverse, InternalContractError, 1e-6,
     "recovered Re(beta) deviates from -f(y,y)/2 by nan relative to ||b'||^2"),
    (_nan_frame_gram, TangencyError, TANGENCY_TOL,
     "basis vector 0 has tangency residual nan at x"),
    (_nan_skew_form, TangencyError, TANGENCY_TOL,
     "skew form argument has tangency residual nan"),
    (_nan_quotient_gram, NondegeneracyError, (1.0 - 2.0 * DEFAULT_TOL) / 4.0,
     "quotient Gram deviates from G0 by nan"),
    (_nan_cometric, NondegeneracyError, 1e-6,
     "quotient metric inversion failed (residual nan)"),
    (_nan_cometric_row, NondegeneracyError, DEFAULT_TOL,
     "cometric row f3* deviates from its radical by nan"),
    (_nan_conformal_fit, TangencyError, 1e-8,
     "frames do not span a common quotient (residual nan)"),
], ids=["cone-point", "group-element", "split", "ray-rep", "chart-frame", "kappa0",
        "chart-inverse", "frame-gram", "skew-form", "quotient-gram", "cometric",
        "cometric-row", "conformal-fit"])
def test_a_nan_residual_fails_every_certificate(monkeypatch, drive, error, threshold,
                                                message):
    with pytest.raises(error) as info:
        drive(monkeypatch)
    exc = info.value
    assert np.isnan(exc.residual) and exc.threshold == threshold
    assert str(exc) == message
