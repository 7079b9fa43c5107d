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
    NondegeneracyError,
    NotIsotropicError,
    QuadricError,
    Signature,
    TangencyError,
    UnsupportedChartError,
    adapted_frame,
    basis_vector,
    cotangent_metric_qtilde,
    hyperbolic_partner,
    induced_metric,
    make_chart,
    sample_cone_point,
)
from coneq.metrics import TANGENCY_TOL

SIG22 = Signature(2, 2)


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
        basis = list(adapted_frame(x).quotient_basis)
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
        base = list(adapted_frame(x).quotient_basis)
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
