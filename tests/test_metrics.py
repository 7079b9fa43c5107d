import gc
import weakref

import numpy as np
import pytest

from coneq import charts, metrics
from coneq import (
    ConePoint,
    CVector,
    MetricMatrix,
    NondegeneracyError,
    Signature,
    TangencyError,
    UnsupportedFrameError,
    basis_vector,
    conformal_factor,
    cotangent_metric_qtilde,
    extend_to_witt_basis,
    form_eval,
    hyperbolic_partner,
    induced_metric,
    make_chart,
    quotient_basis,
    sample_cone_point,
    sample_split,
    skew_form,
    standard_split,
)

SIG11 = Signature(1, 1)
SIG22 = Signature(2, 2)


def vec(sig, *values):
    return CVector(np.array(values, dtype=complex), sig)


def null22():
    return ConePoint(basis_vector(SIG22, 0) + basis_vector(SIG22, 3))


def signature_of(entries):
    entries = np.asarray(entries)
    labels = [f"v{i}" for i in range(entries.shape[0])]
    return MetricMatrix.from_entries(entries, labels).signature


def tangency(x, v):
    return metrics._tangency_residuals(x, v.components[:, None])[0]


class TestMetricMatrix:
    def test_diagonal_signature(self):
        g = MetricMatrix.from_entries(np.diag([1.0, -1.0]), ("a", "b"))
        assert g.signature == (1, 1, 0)
        assert g.rank == 2 and g.dim == 2
        assert g.radical_basis.shape == (0, 2)

    def test_hyperbolic_block(self):
        g = MetricMatrix.from_entries([[0.0, 2.0], [2.0, 0.0]], ("f2", "f3"))
        assert g.signature == (1, 1, 0)

    def test_zero_matrix(self):
        g = MetricMatrix.from_entries([[0.0]], ("z",))
        assert g.signature == (0, 0, 1)
        np.testing.assert_array_equal(g.radical_basis, [[1.0]])

    def test_scale_pins_threshold(self):
        # a lone 1e-15 entry is full rank against its own scale but sits in
        # the radical once the threshold is pinned to an external scale
        loose = MetricMatrix.from_entries([[1e-15]], ("z",))
        assert loose.signature == (1, 0, 0)
        pinned = MetricMatrix.from_entries([[1e-15]], ("z",), scale=1.0)
        assert pinned.signature == (0, 0, 1)
        assert pinned.scale == 1.0

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            MetricMatrix.from_entries([[0.0, 1.0], [0.0, 0.0]], ("a", "b"))

    @pytest.mark.parametrize("lam", [10.0 ** k for k in range(-12, 13, 2)])
    def test_symmetry_check_is_scale_free(self, lam):
        # The skew part is half the largest entry at every scale, so the
        # skew matrix is always rejected and the symmetric one accepted.
        with pytest.raises(ValueError, match="deviate from symmetric"):
            signature_of(lam * np.array([[1.0, 0.5], [-0.5, 1.0]]))
        assert signature_of(lam * np.array([[1.0, 0.5], [0.5, 1.0]])) == (2, 0, 0)

    def test_label_count_checked(self):
        with pytest.raises(ValueError):
            MetricMatrix.from_entries(np.eye(2), ("a",))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_entries_near_the_float_maximum(self):
        # e - e.T and e + e.T would overflow here; halves do not.
        assert signature_of(np.diag([1e308, -1e308])) == (1, 1, 0)
        g = MetricMatrix.from_entries([[1e308, 1e308], [1e308, -1e308]],
                                      ("a", "b"))
        assert g.signature == (1, 1, 0)
        np.testing.assert_array_equal(g.entries, [[1e308, 1e308],
                                                  [1e308, -1e308]])
        with pytest.raises(ValueError, match="deviate from symmetric"):
            signature_of(np.array([[1.0, 1e308], [-1e308, 1.0]]))

    def test_json(self):
        g = MetricMatrix.from_entries(np.diag([2.0, 0.0]), ("a", "b"))
        data = g.to_json()
        assert data["signature"] == [1, 0, 1]
        assert data["basis_labels"] == ["a", "b"]
        assert len(data["radical_basis"]) == 1

    def test_metric_signature_helper(self):
        assert signature_of(np.diag([3.0, -2.0, 0.0])) == (1, 1, 1)
        assert signature_of(np.eye(2)) == (2, 0, 0)


class TestAdaptedFrame:
    """The adapted quotient frame [ix, 2iu, m_j, i m_j], served by
    quotient_basis and labelled by induced_metric(x).basis_labels."""

    def test_structure_at_standard_point(self):
        x = null22()
        basis = quotient_basis(x)
        assert len(extend_to_witt_basis(x)) == 4
        assert len(basis) == 6
        assert induced_metric(x).basis_labels == ("f2", "f3", "e2", "ie2",
                                                  "e3", "ie3")
        np.testing.assert_allclose(
            basis[0].components, 1j * x.components, atol=1e-15
        )

    def test_members_are_tangent(self):
        for sig in (SIG11, Signature(1, 2), SIG22, Signature(3, 2)):
            x = sample_cone_point(sig, 12)
            assert tangency(x, x.vector) <= 1e-10
            for v in quotient_basis(x):
                assert tangency(x, v) <= 1e-10

    def test_members_are_read_only_views(self):
        x = sample_cone_point(SIG22, 3)
        basis = quotient_basis(x)
        assert all(v.components.base is basis[0].components.base for v in basis)
        for v in basis:
            with pytest.raises(ValueError):
                v.components[0] = 0.0

    def test_tangency_residual_detects_normal_direction(self):
        x = null22()
        assert tangency(x, basis_vector(SIG22, 0)) > 0.1


class TestInducedMetric:
    def test_adapted_pinned_matrix(self):
        x = ConePoint(vec(SIG11, 1, 1))
        g = induced_metric(x)
        np.testing.assert_allclose(g.entries, [[0.0, 2.0], [2.0, 0.0]],
                                   atol=1e-14)
        assert g.signature == (1, 1, 0)
        assert g.basis_labels == ("f2", "f3")

    def test_adapted_block_structure(self):
        g = induced_metric(null22())
        want = np.zeros((6, 6))
        want[0, 1] = want[1, 0] = 2.0
        want[2, 2] = want[3, 3] = 1.0
        want[4, 4] = want[5, 5] = -1.0
        np.testing.assert_allclose(g.entries, want, atol=1e-12)
        assert g.signature == (3, 3, 0)

    def test_epsilon_frame(self):
        x = ConePoint(vec(SIG11, 1, 1))
        g = induced_metric(x, frame="epsilon")
        np.testing.assert_allclose(g.entries, np.diag([1.0, -1.0]),
                                   atol=1e-14)
        assert g.basis_labels == ("eps1", "eps2")

    def test_epsilon_frame_off_axis(self):
        g = induced_metric(sample_cone_point(SIG11, 31), frame="epsilon")
        np.testing.assert_allclose(g.entries, np.diag([1.0, -1.0]),
                                   atol=1e-12)

    def test_epsilon_requires_dimension_two(self):
        with pytest.raises(UnsupportedFrameError):
            induced_metric(null22(), frame="epsilon")

    def test_unknown_frame_name(self):
        with pytest.raises(ValueError):
            induced_metric(null22(), frame="nope")

    def test_full_tangent_basis_is_degenerate(self):
        x = null22()
        g = induced_metric(x, basis=(x.vector, *quotient_basis(x)))
        assert g.signature == (3, 3, 1)

    def test_non_tangent_basis_rejected(self):
        x = ConePoint(vec(SIG11, 1, 1))
        with pytest.raises(TangencyError):
            induced_metric(x, basis=(basis_vector(SIG11, 0),))


class TestSkewForm:
    def test_pairs_ray_with_phase_direction(self):
        x = ConePoint(vec(SIG11, 1, 1))
        e1 = extend_to_witt_basis(x)[0]
        value = skew_form(x, x.vector, 1j * e1)
        assert value == -1.0

    def test_unit_pairing_at_sampled_points(self):
        # f(x, e1) = 1 for the Witt basis at any x, so the pairing of the
        # ray direction with i e1 is -1 regardless of scale
        for seed in range(20):
            x = sample_cone_point(SIG22, seed)
            value = skew_form(x, x.vector, 1j * extend_to_witt_basis(x)[0])
            assert abs(value + 1.0) <= 1e-9

    def test_antisymmetric(self):
        x = sample_cone_point(SIG22, 4)
        basis = quotient_basis(x)
        a, b = basis[0], basis[2]
        assert skew_form(x, a, b) == -skew_form(x, b, a)

    def test_non_tangent_rejected(self):
        x = ConePoint(vec(SIG11, 1, 1))
        with pytest.raises(TangencyError):
            skew_form(x, basis_vector(SIG11, 0), 1j * x.vector)


class TestCotangentMetric:
    def test_rank_zero_in_dimension_two(self):
        g = cotangent_metric_qtilde(ConePoint(vec(SIG11, 1, 1)))
        assert g.dim == 1
        assert g.signature == (0, 0, 1)
        assert abs(g.entries[0, 0]) <= 1e-10
        assert g.basis_labels == ("f3*",)

    def test_rank_and_radical_in_dimension_four(self):
        g = cotangent_metric_qtilde(null22())
        assert g.dim == 5
        assert g.rank == 4
        assert g.signature == (2, 2, 1)
        assert g.radical_basis.shape == (1, 5)
        # radical is the f3* direction at the standard point
        np.testing.assert_allclose(
            np.abs(g.radical_basis[0]), [1, 0, 0, 0, 0], atol=1e-12
        )

    def test_inverse_square_scaling(self):
        x = sample_cone_point(SIG22, 6)
        basis = quotient_basis(x)
        labels = induced_metric(x).basis_labels
        lam = 1.7
        g = cotangent_metric_qtilde(x, basis=basis, labels=labels)
        x2 = ConePoint(lam * x.vector)
        scaled_basis = tuple(lam * v for v in basis)
        g2 = cotangent_metric_qtilde(x2, basis=scaled_basis, labels=labels)
        np.testing.assert_allclose(
            g2.entries, g.entries / lam**2, atol=1e-10 * g.scale
        )

    def test_matches_abstract_dualization_exactly(self):
        # The [1:, 1:] block of G0^-1: 0 + diag(1, 1, -1, -1).
        g = cotangent_metric_qtilde(null22())
        np.testing.assert_allclose(g.entries, np.diag([0.0, 1.0, 1.0, -1.0, -1.0]),
                                   atol=1e-14)
        assert signature_of(np.diag([0.0, 1.0, 1.0, -1.0, -1.0])) == g.signature


class TestQuotientCoefficients:
    """conformal_factor's fit: coefficients in the adapted quotient frame,
    modulo the ray direction."""

    def test_recovers_frame_member(self):
        # Every frame member's coefficients are its unit column.
        x = null22()
        frame = metrics._quotient_columns(x, metrics._balance(x))
        coeffs, residual = metrics._quotient_fit(x, frame)
        np.testing.assert_allclose(coeffs, np.eye(6), atol=1e-12)
        assert residual <= 1e-12

    def test_ray_direction_projects_out(self):
        x = null22()
        coeffs, residual = metrics._quotient_fit(x, x.components[:, None])
        np.testing.assert_allclose(coeffs, np.zeros((6, 1)), atol=1e-12)
        assert residual <= 1e-12


class TestConformalFactor:
    def test_same_split_gives_unit_factor(self):
        x = sample_cone_point(SIG22, 3)
        split = standard_split(SIG22)
        factor, residual = conformal_factor(x, split, split)
        assert abs(factor - 1.0) <= 1e-10
        assert residual <= 1e-10

    def test_transported_split_positive_factor(self):
        x = sample_cone_point(SIG22, 3)
        factor, residual = conformal_factor(
            x, standard_split(SIG22), sample_split(SIG22, 19)
        )
        assert factor > 0
        assert residual <= 1e-8

    def test_factor_is_norm_ratio_squared(self):
        from coneq import canonicalize_ray

        x = sample_cone_point(Signature(2, 3), 8)
        sa = standard_split(Signature(2, 3))
        sb = sample_split(Signature(2, 3), 2)
        factor, residual = conformal_factor(x, sa, sb)
        mu = canonicalize_ray(x, sb).point.vector.norm() \
            / canonicalize_ray(x, sa).point.vector.norm()
        assert abs(factor - mu**2) <= 1e-8 * mu**2
        assert residual <= 1e-8


class TestOneFramePerPoint:
    """make_chart(x) and the metrics' default frames share one Witt frame,
    and the default quotient Gram is computed once, per point."""

    SIGS = [SIG22, Signature(3, 2), Signature(5, 5)]

    @staticmethod
    def assert_same_bits(a: MetricMatrix, b: MetricMatrix):
        assert a.entries.tobytes() == b.entries.tobytes()
        assert a.basis_labels == b.basis_labels
        assert a.signature == b.signature
        assert a.radical_basis.shape == b.radical_basis.shape
        assert a.radical_basis.tobytes() == b.radical_basis.tobytes()
        assert a.scale == b.scale

    @pytest.mark.parametrize("sig", SIGS, ids=str)
    def test_witt_frame_built_once(self, sig, monkeypatch):
        calls = []
        builder = charts._frame_block

        def counting(x, v_hint):
            calls.append(x)
            return builder(x, v_hint)

        monkeypatch.setattr(charts, "_frame_block", counting)
        x = sample_cone_point(sig, 4)
        make_chart(x)
        induced_metric(x)
        cotangent_metric_qtilde(x)
        assert len(calls) == 1

    @pytest.mark.parametrize("sig", SIGS, ids=str)
    def test_hinted_charts_bypass_the_cache(self, sig):
        hint = basis_vector(sig, 1) + 0.3 * basis_vector(sig, sig.n - 2)
        for seed in range(3):
            x = sample_cone_point(sig, seed)
            hinted_u = hyperbolic_partner(x, hint).components.tobytes()
            default_u = hyperbolic_partner(x).components.tobytes()
            # Default first, then hinted, then default again.
            assert make_chart(x).u.components.tobytes() == default_u
            assert make_chart(x, hint).u.components.tobytes() == hinted_u
            assert make_chart(x).u.components.tobytes() == default_u
            # Hinted first on a fresh point.
            y = ConePoint(x.vector)
            assert make_chart(y, hint).u.components.tobytes() == hinted_u
            assert make_chart(y).u.components.tobytes() == default_u
            assert make_chart(y, hint).u.components.tobytes() == hinted_u

    @pytest.mark.parametrize("sig", SIGS, ids=str)
    @pytest.mark.parametrize("cometric_first", [False, True])
    def test_metrics_after_a_chart_match_a_fresh_point(self, sig,
                                                       cometric_first):
        hint = basis_vector(sig, 0) + 0.5 * basis_vector(sig, sig.n - 1)
        for seed in range(3):
            x = sample_cone_point(sig, seed)
            make_chart(x, hint)
            make_chart(x)
            if cometric_first:
                co = cotangent_metric_qtilde(x)
                g = induced_metric(x)
            else:
                g = induced_metric(x)
                co = cotangent_metric_qtilde(x)
            self.assert_same_bits(g, induced_metric(ConePoint(x.vector)))
            self.assert_same_bits(co,
                                  cotangent_metric_qtilde(ConePoint(x.vector)))
            # Served again from the point, still the same.
            self.assert_same_bits(g, induced_metric(x))
            self.assert_same_bits(co, cotangent_metric_qtilde(x))

    @pytest.mark.parametrize("sig", [SIG11] + SIGS, ids=str)
    def test_chart_check_runs_once(self, sig, monkeypatch):
        # The chart identity check is charts._certify_frame, which
        # make_chart and the ChartFrame constructor share; the kept default
        # frame is wrapped without it.
        calls = []
        check = charts._certify_frame

        def counting(x, cols):
            calls.append(x)
            check(x, cols)

        monkeypatch.setattr(charts, "_certify_frame", counting)
        x = sample_cone_point(sig, 4)
        make_chart(x)
        charts.extend_to_witt_basis(x)
        induced_metric(x)
        cotangent_metric_qtilde(x)
        quotient_basis(x)
        assert len(calls) == 1

    @pytest.mark.parametrize("sig", [SIG11] + SIGS, ids=str)
    def test_kept_frame_is_read_only(self, sig):
        x = sample_cone_point(sig, 2)
        first = make_chart(x)
        again = make_chart(x)
        assert again.u is first.u and again.mu_basis is first.mu_basis
        assert again._columns is first._columns
        u, mids, cols = x._derived["witt"]
        with pytest.raises(ValueError):
            cols[0, 0] = 0.0
        with pytest.raises(ValueError):
            u.components[0] = 0.0
        for m in mids:
            with pytest.raises(ValueError):
                m.components[0] = 0.0

    @pytest.mark.parametrize("sig", SIGS, ids=str)
    def test_kept_frame_passes_its_check(self, sig):
        # The wrapped frame is the one that was certified: a fresh
        # ChartFrame on the same data passes with the same columns.
        x = sample_cone_point(sig, 6)
        make_chart(x)
        kept = make_chart(x)
        fresh = charts.ChartFrame(x, kept.u, kept.mu_basis)
        assert fresh._columns.tobytes() == kept._columns.tobytes()
        assert kept.u.components.tobytes() == fresh.u.components.tobytes()
        assert len(kept.mu_basis) == len(fresh.mu_basis)
        for a, b in zip(kept.mu_basis, fresh.mu_basis):
            assert a.components.tobytes() == b.components.tobytes()

    def test_no_reference_cycle(self):
        # The point must die by reference counting alone: a cycle through
        # whatever it keeps would leave it to the cyclic collector.
        x = sample_cone_point(Signature(5, 5), 0)
        make_chart(x)
        induced_metric(x)
        cotangent_metric_qtilde(x)
        ref = weakref.ref(x)
        gc.disable()
        try:
            del x
            assert ref() is None
        finally:
            gc.enable()


class TestClosedForm:
    """The default metrics certify their Gram against G0 and take signature,
    radical and scale from it, with one pairing pass and no eigh or svd."""

    SIGS = [SIG11, Signature(1, 2), SIG22, Signature(3, 2), Signature(5, 5)]

    @pytest.mark.parametrize("sig", SIGS, ids=str)
    def test_one_pairing_pass_and_no_eigh_or_svd(self, sig, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the default metric path decomposed a matrix")

        pairings = []
        gram = metrics._gram

        def counting(a, b, s):
            pairings.append(a.shape)
            return gram(a, b, s)

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        monkeypatch.setattr(np.linalg, "svd", refuse)
        monkeypatch.setattr(metrics, "_gram", counting)
        x = sample_cone_point(sig, 5)
        induced_metric(x)
        cotangent_metric_qtilde(x)
        assert len(pairings) == 1

    @pytest.mark.parametrize("sig", SIGS, ids=str)
    def test_invariants_are_those_of_g0(self, sig):
        n = sig.n
        for seed in range(5):
            x = sample_cone_point(sig, seed)
            g = induced_metric(x)
            assert g.signature == (2 * sig.p - 1, 2 * sig.q - 1, 0)
            assert g.radical_basis.shape == (0, 2 * n - 2) and g.scale == 2.0
            # The eigenvalues agree with the closed form.
            assert MetricMatrix.from_entries(g.entries, g.basis_labels).signature \
                == g.signature
            np.testing.assert_allclose(g.entries, metrics._quotient_target(sig),
                                       atol=1e-12)
            co = cotangent_metric_qtilde(x)
            assert co.signature == (2 * sig.p - 2, 2 * sig.q - 2, 1)
            assert co.radical_basis.tolist() == [[1.0] + [0.0] * (2 * n - 4)]
            assert co.scale == (1.0 if n >= 3 else 0.5)
            assert MetricMatrix.from_entries(co.entries, co.basis_labels,
                                             scale=co.scale).signature == co.signature
            assert not co.entries.flags.writeable
            assert np.array_equal(co.entries, co.entries.T)

    @pytest.mark.parametrize("metric", [induced_metric, cotangent_metric_qtilde])
    def test_a_wrong_f3_column_fails_the_g0_certificate(self, metric, monkeypatch):
        columns = metrics._quotient_columns

        def half_f3(x, s=1.0):
            cols = columns(x, s)
            cols[:, 1] *= 0.5
            return cols

        monkeypatch.setattr(metrics, "_quotient_columns", half_f3)
        with pytest.raises(NondegeneracyError) as info:
            metric(sample_cone_point(SIG22, 3))
        assert info.value.residual == pytest.approx(np.sqrt(2.0), rel=1e-12)
        assert str(info.value) == (f"quotient Gram deviates from G0 by "
                                   f"{info.value.residual:.3e}")

    def test_a_non_tangent_column_fails_the_one_pairing_pass(self, monkeypatch):
        columns = metrics._quotient_columns

        def partner_in_slot_2(x, s=1.0):
            cols = columns(x, s)
            cols[:, 2] = make_chart(x).u.components
            return cols

        monkeypatch.setattr(metrics, "_quotient_columns", partner_in_slot_2)
        with pytest.raises(TangencyError, match="basis vector 2 has tangency"):
            induced_metric(sample_cone_point(SIG22, 3))

    def test_threshold_follows_tol(self):
        assert metrics._g0_threshold(1e-9) == (1.0 - 2e-9) / 4.0
        assert metrics._g0_threshold(0.5) == 0.0
        x = sample_cone_point(SIG22, 3)
        assert induced_metric(x, tol=1e-12).signature == (3, 3, 0)
        with pytest.raises(NondegeneracyError):
            induced_metric(x, tol=0.5)

    def test_the_cometric_row_is_certified_at_tol(self):
        x = sample_cone_point(Signature(3, 3), 3)
        co = cotangent_metric_qtilde(x)
        row = abs(co.entries[0, 0]) + np.linalg.norm(co.entries[1:, 0])
        assert 0.0 < row <= 1e-15
        with pytest.raises(NondegeneracyError) as info:
            cotangent_metric_qtilde(x, tol=row / 2.0)
        assert info.value.residual == row and info.value.threshold == row / 2.0
        assert str(info.value) == (f"cometric row f3* deviates from its radical "
                                   f"by {row:.3e}")

    @pytest.mark.parametrize("sig", SIGS[1:], ids=str)
    def test_points_isotropic_to_1e_10_keep_their_answer(self, sig):
        # Points ConePoint accepts at the default tolerance: f(2iu, 2iu)
        # reads about n^2 / |x_j|^4 times the isotropy residual, above 1e-9
        # here, but neither the signature nor the cometric's radical
        # depends on it.
        deviations = []
        for seed in range(4):
            c = sample_cone_point(sig, seed).components.copy()
            c[0] *= 1.0 + 6e-10
            x = ConePoint(CVector(c, sig))
            deviations.append(metrics._quotient_gram(x, 1e-9)[1])
            assert induced_metric(x).signature == (2 * sig.p - 1, 2 * sig.q - 1, 0)
            co = cotangent_metric_qtilde(x)
            assert co.signature == (2 * sig.p - 2, 2 * sig.q - 2, 1)
            assert MetricMatrix.from_entries(co.entries, co.basis_labels,
                                             scale=co.scale).signature == co.signature
        assert max(deviations) > 1e-9

    def test_conformal_factor_builds_two_frames(self, monkeypatch):
        calls = []
        columns = metrics._quotient_columns

        def counting(x, s=1.0):
            calls.append(s)
            return columns(x, s)

        monkeypatch.setattr(metrics, "_quotient_columns", counting)
        sig = Signature(3, 3)
        conformal_factor(sample_cone_point(sig, 4), standard_split(sig),
                         sample_split(sig, 1))
        assert len(calls) == 2


def _parent_quotient_basis(x):
    """Reference adapted quotient frame [ix, 2iu, m_j, i m_j]: CVector
    arithmetic on the chart frame, one vector at a time."""
    chart = make_chart(x)
    quotient = [1j * x.vector, 2j * chart.u]
    for m in chart.mu_basis:
        quotient.extend([m, 1j * m])
    return np.column_stack([v.components for v in quotient])


class TestQuotientColumns:
    """The (n, 2n - 2) array frame equals the adapted quotient frame."""

    SIGS = [SIG11, Signature(1, 2), SIG22, Signature(3, 3), Signature(5, 5)]
    SCALES = [1e-8, 1e-4, 1.0, 1e4, 1e8]

    @pytest.mark.parametrize("sig", SIGS, ids=str)
    def test_array_frame_equals_adapted_frame(self, sig):
        for seed in range(8):
            for s in self.SCALES:
                x = ConePoint(s * sample_cone_point(sig, seed).vector)
                cols = metrics._quotient_columns(x)
                reference = _parent_quotient_basis(x)
                basis = quotient_basis(x)
                wrapped = np.column_stack([v.components for v in basis])
                assert cols.shape == (sig.n, 2 * sig.n - 2)
                assert np.all(cols == reference)
                assert np.all(wrapped == reference)
                assert cols.tobytes() == reference.tobytes()
                assert wrapped.tobytes() == reference.tobytes()
                assert len(basis) == 2 * sig.n - 2

    @pytest.mark.parametrize("sig", SIGS, ids=str)
    def test_default_gram_equals_the_explicit_frame(self, sig):
        # The default Gram and the symmetrized Gram of the same balanced
        # frame, passed as an explicit basis, agree bit for bit.
        for seed in range(8):
            for s in self.SCALES:
                v = s * sample_cone_point(sig, seed).vector
                x = ConePoint(v)
                frame = metrics._quotient_columns(x, metrics._balance(x))
                basis = [CVector(c, sig) for c in frame.T]
                labels = metrics._quotient_labels(sig.n)
                explicit, _ = metrics._frame_gram(ConePoint(v), basis, labels)
                gram, _ = metrics._quotient_gram(ConePoint(v), 1e-9)
                want = explicit * 0.5 + explicit.T * 0.5
                assert gram.tobytes() == want.tobytes()
                g = induced_metric(ConePoint(v))
                assert g.entries.tobytes() == want.tobytes()
                assert g.basis_labels == labels


@pytest.mark.filterwarnings("error")
class TestNonFiniteInput:
    """A non-finite tangent vector reads tangency residual inf, and a
    non-finite matrix is a ValueError; numpy warns nothing on either."""

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_tangency_residual(self, bad):
        x = sample_cone_point(SIG22, 1)
        assert tangency(x, vec(SIG22, 1, bad, 0, 1)) == np.inf
        assert tangency(x, vec(SIG22, 0, 0, 0, 0)) == 0.0

    def test_skew_form_rejects_an_inf_argument(self):
        x = sample_cone_point(SIG22, 1)
        b = vec(SIG22, 1, np.inf, 0, 1)
        with pytest.raises(TangencyError) as info:
            skew_form(x, b, b)
        assert info.value.residual == np.inf

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    @pytest.mark.parametrize("metric", [induced_metric, cotangent_metric_qtilde])
    def test_a_non_finite_basis_column_is_not_tangent(self, metric, bad):
        x = sample_cone_point(SIG22, 1)
        basis = list(quotient_basis(x))
        basis[1] = vec(SIG22, 1, bad, 0, 1)
        with pytest.raises(TangencyError) as info:
            metric(x, basis=basis)
        assert info.value.residual == np.inf
        assert str(info.value) == "basis vector 1 has tangency residual inf at x"

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_metric_signature(self, bad):
        with pytest.raises(ValueError, match="finite"):
            signature_of(np.array([[bad]]))
