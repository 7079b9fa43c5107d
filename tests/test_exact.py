from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coneq import (
    IN_APERP,
    ConePoint,
    CVector,
    DegenerateInputError,
    InternalContractError,
    QGaussian,
    QVector,
    RationalChart,
    Signature,
    UnsupportedChartError,
    chart_inverse,
    exact_basis_vector,
    exact_chart_inverse,
    exact_form_eval,
    exact_hyperbolic_partner,
    exact_isotropy,
    exact_kappa0,
    exact_kappa_roundtrip,
    kappa0,
    make_chart,
    make_rng,
    standard_rational_chart,
)
from coneq import exact
from coneq.exact import random_qgaussian

qi = QGaussian

SIG11 = Signature(1, 1)
SIG22 = Signature(2, 2)

fractions = st.builds(
    Fraction,
    st.integers(min_value=-30, max_value=30),
    st.integers(min_value=1, max_value=12),
)
gaussians = st.builds(QGaussian, fractions, fractions)
# About half the entries zero, so vectors with sparse support are common.
sparse_gaussians = st.one_of(st.just(QGaussian(0)), gaussians)


def qvec(sig, *values):
    return QVector(tuple(qi(*v) if isinstance(v, tuple) else qi(v)
                         for v in values), sig)


class TestQGaussian:
    def test_arithmetic(self):
        a = qi(1, 2)
        b = qi(3, -1)
        assert a + b == qi(4, 1)
        assert a - b == qi(-2, 3)
        assert a * b == qi(5, 5)
        assert -a == qi(-1, -2)
        assert 1 / qi(0, 1) == qi(0, -1)
        assert (a / b) * b == a

    def test_mixed_scalars(self):
        assert qi(1, 1) + 2 == qi(3, 1)
        assert 2 - qi(1, 1) == qi(1, -1)
        assert Fraction(1, 2) * qi(2, 4) == qi(1, 2)
        assert 2 / qi(1, 1) == qi(1, -1)

    def test_conjugate_and_norm(self):
        z = qi(Fraction(3, 5), Fraction(4, 5))
        assert z.conjugate() == qi(Fraction(3, 5), Fraction(-4, 5))
        assert z.norm2() == Fraction(1)
        assert z * z.conjugate() == QGaussian.one()

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            QGaussian(1.0, Fraction(0))
        with pytest.raises(TypeError):
            qi(1) + 0.5

    def test_qi_rejects_floats(self):
        for args in ((0.1,), (1, 0.5), (0.0, 0)):
            with pytest.raises(TypeError, match="floats are not exact"):
                qi(*args)
        assert qi(1, Fraction(-2, 3)) == QGaussian(Fraction(1), Fraction(-2, 3))

    def test_fraction_strings_accepted(self):
        assert qi("1/3", "-2/7") == QGaussian(Fraction(1, 3), Fraction(-2, 7))

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            qi(1) / QGaussian.zero()

    def test_to_complex(self):
        assert qi(Fraction(1, 2), 3).to_complex() == 0.5 + 3j

    @settings(max_examples=150, deadline=None)
    @given(gaussians, gaussians, gaussians)
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + QGaussian.zero() == a
        assert a * QGaussian.one() == a

    @settings(max_examples=150, deadline=None)
    @given(gaussians)
    def test_multiplicative_inverse(self, a):
        if a.is_zero():
            with pytest.raises(ZeroDivisionError):
                1 / a
        else:
            assert a * (1 / a) == QGaussian.one()


class TestQVector:
    def test_vector_arithmetic(self):
        u = qvec(SIG11, 1, (0, 1))
        v = qvec(SIG11, 2, 0)
        assert (u + v).components[0] == qi(3)
        assert (u - v).components[0] == qi(-1)
        assert u.scale(qi(0, 1)).components[1] == qi(-1, 0)
        assert (-u).components[1] == qi(0, -1)
        assert not u.is_zero()
        assert u.scale(qi(0)).is_zero()

    def test_length_checked(self):
        with pytest.raises(ValueError):
            QVector((qi(1),), SIG11)

    def test_to_cvector(self):
        u = qvec(SIG11, (Fraction(1, 2), 0), (0, Fraction(1, 4)))
        c = u.to_cvector()
        assert isinstance(c, CVector)
        np.testing.assert_array_equal(c.components, [0.5, 0.25j])


class TestExactForm:
    def test_pinned_value(self):
        u = qvec(SIG11, (2, 1), 1)
        v = qvec(SIG11, 1, (0, 1))
        assert exact_form_eval(u, v) == qi(2, 2)

    def test_matches_float_form(self):
        from coneq import form_eval

        u = qvec(SIG11, (2, 1), 1)
        v = qvec(SIG11, 1, (0, 1))
        exact = exact_form_eval(u, v).to_complex()
        assert form_eval(u.to_cvector(), v.to_cvector()) == exact

    def test_isotropy(self):
        assert exact_isotropy(qvec(SIG11, (3, 4), 5))
        assert not exact_isotropy(qvec(SIG11, 1, 2))
        with pytest.raises(DegenerateInputError):
            exact_isotropy(qvec(SIG11, 0, 0))


class TestExactPartner:
    def test_pinned_value(self):
        u = exact_hyperbolic_partner(qvec(SIG11, 1, (0, 1)))
        assert u.components == (qi(Fraction(1, 2)), qi(0, Fraction(-1, 2)))

    def test_agrees_with_float_twin(self):
        x = qvec(SIG22, (3, 4), 0, (0, 3), 4)
        assert exact_isotropy(x)
        exact = exact_hyperbolic_partner(x)
        floats = make_chart(ConePoint(x.to_cvector())).u
        np.testing.assert_allclose(
            floats.components, exact.to_cvector().components, atol=1e-15
        )

    def test_exact_identities(self):
        x = qvec(SIG22, (3, 4), 0, (0, 3), 4)
        u = exact_hyperbolic_partner(x)
        assert exact_form_eval(u, u).is_zero()
        assert exact_form_eval(u, x) == QGaussian.one()


class TestRationalChart:
    def test_standard_chart(self):
        chart = standard_rational_chart(SIG22)
        assert chart.signature == SIG22
        assert chart.x.components[0] == qi(1)
        assert chart.u.components[0] == qi(Fraction(1, 2))
        assert len(chart.mu_basis) == 2

    def test_bad_chart_rejected(self):
        good = standard_rational_chart(SIG22)
        with pytest.raises(UnsupportedChartError):
            RationalChart(good.x, good.u, tuple(reversed(good.mu_basis)))
        with pytest.raises(UnsupportedChartError):
            RationalChart(good.x, good.x, good.mu_basis)

    @pytest.mark.parametrize("factor, residual", [
        (qi(10**400), float("inf")),
        (qi(10**200), 1e200),
        (qi(1 + Fraction(1, 10**200)), 1e-200),
        (qi(1 + Fraction(1, 10**400)), 5e-324),
    ], ids=["overflow", "huge", "tiny", "subnormal"])
    def test_residual_at_every_scale(self, factor, residual):
        # f(u, x) - 1 = factor - 1 is the one deviation.  Its modulus is the
        # residual within rounding: inf past the float range, and the least
        # subnormal, not 0, below it.
        std = standard_rational_chart(SIG11)
        with pytest.raises(UnsupportedChartError) as err:
            RationalChart(std.x, std.u.scale(factor), ())
        assert err.value.residual > err.value.threshold == 0.0
        assert err.value.residual == pytest.approx(residual, rel=1e-15, abs=0)


class TestExactChart:
    def test_pinned_kappa0(self):
        chart = standard_rational_chart(SIG22)
        out = exact_kappa0(chart, Fraction(7, 3), [qi(3), qi(0)])
        assert out.components == (
            qi(-4, Fraction(7, 3)), qi(3), qi(0), qi(-5, Fraction(7, 3))
        )

    def test_float_r_rejected(self):
        chart = standard_rational_chart(SIG22)
        with pytest.raises(TypeError):
            exact_kappa0(chart, 0.5, [qi(0), qi(0)])

    def test_inverse_pinned(self):
        chart = standard_rational_chart(SIG22)
        out = exact_kappa0(chart, Fraction(7, 3), [qi(3), qi(0)])
        r, y = exact_chart_inverse(chart, out)
        assert r == Fraction(7, 3)
        assert y == (qi(3), qi(0))

    def test_perp_input_returns_sentinel(self):
        chart = standard_rational_chart(SIG22)
        assert exact_chart_inverse(chart, exact_basis_vector(SIG22, 1)) is IN_APERP
        assert exact_chart_inverse(chart, chart.x) is IN_APERP

    def test_roundtrip_random(self):
        rng = make_rng(77)
        for sig in (SIG11, Signature(1, 2), SIG22, Signature(2, 3)):
            chart = standard_rational_chart(sig)
            for _ in range(20):
                r = Fraction(int(rng.integers(-20, 21)),
                             int(rng.integers(1, 13)))
                y = [random_qgaussian(rng) for _ in range(sig.n - 2)]
                assert exact_kappa_roundtrip(chart, r, y)

    def test_twin_agreement_with_float_chart(self):
        sig = SIG22
        exact_chart = standard_rational_chart(sig)
        float_chart = make_chart(ConePoint(exact_chart.x.to_cvector()))
        rng = make_rng(5)
        for _ in range(20):
            r = Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 10)))
            y = [random_qgaussian(rng, 6, 6) for _ in range(sig.n - 2)]
            exact_out = exact_kappa0(exact_chart, r, y)
            float_out = kappa0(float_chart, float(r),
                               [c.to_complex() for c in y])
            np.testing.assert_allclose(
                float_out.components, exact_out.to_cvector().components,
                atol=1e-12,
            )
            r_back, y_back = chart_inverse(float_chart, float_out)
            assert abs(r_back - float(r)) <= 1e-12
            np.testing.assert_allclose(
                y_back, [c.to_complex() for c in y], atol=1e-12
            )


big_fractions = st.builds(
    Fraction,
    st.integers(min_value=-10**30, max_value=10**30),
    st.integers(min_value=1, max_value=10**30),
)
big_gaussians = st.builds(QGaussian, big_fractions, big_fractions)


@st.composite
def vector_pairs(draw):
    sig = Signature(draw(st.integers(1, 5)), draw(st.integers(1, 5)))
    entries = st.one_of(st.just(QGaussian(0)), big_gaussians)
    comps = st.lists(entries, min_size=sig.n, max_size=sig.n)
    return sig, draw(comps), draw(comps)


class TestIntegerRepresentation:
    @settings(max_examples=200, deadline=None)
    @given(vector_pairs())
    def test_form_matches_written_out_fraction_sum(self, pair):
        sig, us, vs = pair
        re = im = Fraction(0)
        for j, (a, b) in enumerate(zip(us, vs)):
            sign = 1 if j < sig.p else -1
            re += sign * (a.re * b.re + a.im * b.im)
            im += sign * (a.im * b.re - a.re * b.im)
        assert exact_form_eval(QVector(us, sig), QVector(vs, sig)) == QGaussian(re, im)
        assert QVector(us, sig) + QVector(vs, sig) == QVector(
            [a + b for a, b in zip(us, vs)], sig)

    @settings(max_examples=200, deadline=None)
    @given(big_gaussians, big_gaussians, big_fractions)
    def test_scalar_operations_match_fraction_parts(self, z, w, c):
        (a, b), (e, f) = (z.re, z.im), (w.re, w.im)
        n2 = e * e + f * f
        cases = [
            (z + w, (a + e, b + f)), (z - w, (a - e, b - f)),
            (z * w, (a * e - b * f, a * f + b * e)), (-z, (-a, -b)),
            (z, (a, b)), (z.conjugate(), (a, -b)), (z + c, (a + c, b)),
            (c - z, (c - a, -b)), (c * z, (c * a, c * b)), (z - c, (a - c, b)),
        ]
        if n2:
            cases += [(z / w, ((a * e + b * f) / n2, (b * e - a * f) / n2)),
                      (c / w, (c * e / n2, -c * f / n2))]
        else:
            with pytest.raises(ZeroDivisionError):
                z / w
        for got, (re, im) in cases:
            assert (got.re, got.im) == (re, im)
            assert got.d > 0 and gcd(got.a, got.b, got.d) == 1
            assert QGaussian(got.re, got.im) == got
        assert z.norm2() == a * a + b * b
        assert z.is_zero() == (a == 0 and b == 0)
        assert z.to_complex() == complex(float(a), float(b))

    def test_equality_and_hash_ignore_how_values_are_written(self):
        pairs = [
            (qvec(SIG11, Fraction(2, 4), 1), qvec(SIG11, Fraction(1, 2), 1)),
            (qvec(SIG11, 3, (0, -2)), qvec(SIG11, Fraction(3), (0, Fraction(-6, 3)))),
            (qvec(SIG11, "6/8", 0), qvec(SIG11, Fraction(3, 4), Fraction(0, 5))),
            (qvec(SIG11, 0, 0), qvec(SIG11, Fraction(0, 7), 0).scale(qi(5, 3))),
        ]
        scalars = [
            (qi("2/4"), qi(Fraction(1, 2))),
            (qi(3, "-6/3"), qi(Fraction(9, 3), -2)),
            (qi(0, 0), qi(Fraction(0, 7), "0/5")),
            (qi(1, 1) / qi(0, 2), qi(Fraction(1, 2), Fraction(-1, 2))),
        ]
        for a, b in pairs + scalars:
            assert a == b
            assert hash(a) == hash(b)
        assert len({a for a, _ in pairs} | {b for _, b in pairs}) == len(pairs)
        assert len({a for a, _ in scalars} | {b for _, b in scalars}) == len(scalars)
        assert (qi("2/4").a, qi("2/4").b, qi("2/4").d) == (1, 0, 2)
        # Arithmetic lands on the same reduced representation.
        third = qvec(SIG11, Fraction(1, 3), Fraction(2, 3))
        assert third + third + third == qvec(SIG11, 1, 2)
        assert (third + third + third).den == 1

    def test_components_are_gaussians(self):
        u = qvec(SIG22, (Fraction(1, 2), 3), Fraction(-2, 6), (0, Fraction(5, 4)), 7)
        assert isinstance(u.components, tuple)
        assert all(type(c) is QGaussian for c in u.components)
        assert u.components == (qi(Fraction(1, 2), 3), qi(Fraction(-1, 3)),
                                qi(0, Fraction(5, 4)), qi(7))
        assert QVector(u.components, SIG22) == u

    @pytest.mark.parametrize("sig, r, y, expected", [
        (SIG22, "1/4", [("-1", "7"), ("-4/3", "1/3")],
         [("-212/9", "1/4"), ("-1/1", "7/1"), ("-4/3", "1/3"), ("-221/9", "1/4")]),
        (Signature(5, 5), "-20",
         [("-9", "5/4"), ("-6", "-4/7"), ("3/4", "-7/6"), ("7", "1/2"),
          ("1", "2"), ("-7/8", "0"), ("2/3", "1/7"), ("-4/3", "-8")],
         [("-2739263/56448", "-20/1"), ("-9/1", "5/4"), ("-6/1", "-4/7"),
          ("3/4", "-7/6"), ("7/1", "1/2"), ("1/1", "2/1"), ("-7/8", "0/1"),
          ("2/3", "1/7"), ("-4/3", "-8/1"), ("-2795711/56448", "-20/1")]),
    ])
    def test_seeded_kappa0_matches_golden(self, sig, r, y, expected):
        # Inputs are make_rng(2024, p, q): r from integers(-20, 21) over
        # integers(1, 13), then n - 2 draws of random_qgaussian.
        rng = make_rng(2024, sig.p, sig.q)
        drawn_r = Fraction(int(rng.integers(-20, 21)), int(rng.integers(1, 13)))
        drawn_y = [random_qgaussian(rng) for _ in range(sig.n - 2)]
        assert drawn_r == Fraction(r)
        assert drawn_y == [qi(a, b) for a, b in y]
        chart = standard_rational_chart(sig)
        out = exact_kappa0(chart, drawn_r, drawn_y)
        assert out == QVector([qi(a, b) for a, b in expected], sig)
        assert exact_chart_inverse(chart, out) == (drawn_r, tuple(drawn_y))

    @pytest.mark.parametrize("sig", [SIG11, SIG22, Signature(5, 5)])
    def test_standard_chart_is_built_once_per_signature(self, sig):
        assert standard_rational_chart(sig) is standard_rational_chart(sig)
        assert standard_rational_chart(sig) is standard_rational_chart(
            Signature(sig.p, sig.q))

    @pytest.mark.parametrize("bounds", [(9, 9), (6, 6), (1, 1), (30, 12)])
    def test_random_qgaussian_matches_the_fraction_path(self, bounds):
        # Four draws, n1, d1, n2, d2, as QGaussian(n1/d1, n2/d2) took them
        # through two Fractions: the same fields and the same stream after.
        max_num, max_den = bounds
        got_rng, want_rng = make_rng(36, *bounds), make_rng(36, *bounds)
        for _ in range(500):
            got = random_qgaussian(got_rng, max_num, max_den)
            want = QGaussian(*(Fraction(int(want_rng.integers(-max_num, max_num + 1)),
                                        int(want_rng.integers(1, max_den + 1)))
                               for _ in range(2)))
            assert (got.a, got.b, got.d) == (want.a, want.b, want.d)
        assert got_rng.integers(2**63) == want_rng.integers(2**63)


# The chart maps on QGaussian arithmetic, written out as the oracle first
# computed them; the integer kernels must agree with them exactly.
def _ref_form(us, vs, sig):
    total = QGaussian.zero()
    for j, (a, b) in enumerate(zip(us, vs)):
        term = a * b.conjugate()
        total = total + term if j < sig.p else total - term
    return total


def ref_kappa0(chart, r, coords):
    sig = chart.signature
    mids = [m.components for m in chart.mu_basis]
    y = [sum((c * m[k] for c, m in zip(coords, mids)), QGaussian.zero())
         for k in range(sig.n)]
    beta = QGaussian(-_ref_form(y, y, sig).re / 2, r)
    return QVector([yk + uk + beta * xk for yk, uk, xk
                    in zip(y, chart.u.components, chart.x.components)], sig)


def ref_chart_inverse(chart, b):
    sig = chart.signature
    pairing = _ref_form(b.components, chart.x.components, sig)
    if pairing.is_zero():
        return IN_APERP
    z = [c / pairing for c in b.components]
    beta = _ref_form(z, chart.u.components, sig)
    return beta.im, tuple((1 if j < sig.p - 1 else -1)
                          * _ref_form(z, m.components, sig)
                          for j, m in enumerate(chart.mu_basis))


_PHASES = (qi(Fraction(3, 5), Fraction(4, 5)), qi(Fraction(5, 13), Fraction(12, 13)),
           qi(Fraction(-8, 17), Fraction(15, 17)))


def _boosted_chart(sig, mix=False):
    """The standard chart moved by a rational pseudo-unitary map.

    The boost in the (e_1, e_n) plane, cosh = 5/4 and sinh = 3/4, gives
    x = 2(e_1 + e_n) and u = (e_1 - e_n)/4.  With mix, rotations inside each
    sign block (by 3/5, 4/5 and by 5/13, 12/13, where the block has room)
    and unit phases on the middles make every vector of the chart carry a
    non-unit denominator."""
    p, n = sig.p, sig.n

    def move(v):
        c = list(v.components)
        c[0], c[-1] = (c[0] * Fraction(5, 4) + c[-1] * Fraction(3, 4),
                       c[0] * Fraction(3, 4) + c[-1] * Fraction(5, 4))
        if mix and p >= 2:
            c[0], c[1] = (c[0] * Fraction(3, 5) - c[1] * Fraction(4, 5),
                          c[0] * Fraction(4, 5) + c[1] * Fraction(3, 5))
        if mix and n - p >= 2:
            c[p], c[-1] = (c[p] * Fraction(5, 13) - c[-1] * Fraction(12, 13),
                           c[p] * Fraction(12, 13) + c[-1] * Fraction(5, 13))
        return QVector(c, sig)

    std = standard_rational_chart(sig)
    mids = [m.scale(_PHASES[j % 3]) if mix else m for j, m in enumerate(std.mu_basis)]
    return RationalChart(move(std.x), move(std.u), tuple(move(m) for m in mids))


CHARTS = {
    "standard": standard_rational_chart,
    "boosted": _boosted_chart,
    "mixed": lambda sig: _boosted_chart(sig, mix=True),
}


@st.composite
def chart_points(draw):
    sig = Signature(draw(st.integers(1, 5)), draw(st.integers(1, 5)))
    y = draw(st.lists(sparse_gaussians, min_size=sig.n - 2, max_size=sig.n - 2))
    b = draw(st.lists(sparse_gaussians, min_size=sig.n, max_size=sig.n))
    return sig, draw(fractions), y, QVector(b, sig)


class TestIntegerKernels:
    def test_moved_charts_carry_non_unit_denominators(self):
        sig = Signature(3, 3)
        assert _boosted_chart(sig).u.den == 4
        mixed = _boosted_chart(sig, mix=True)
        assert all(v.den > 1 for v in (mixed.x, mixed.u, *mixed.mu_basis))
        assert len({m.den for m in mixed.mu_basis}) > 1

    @pytest.mark.parametrize("kind", sorted(CHARTS))
    @settings(max_examples=100, deadline=None)
    @given(point=chart_points())
    def test_chart_maps_equal_the_gaussian_reference(self, kind, point):
        sig, r, y, b = point
        chart = CHARTS[kind](sig)
        out = exact_kappa0(chart, r, y)
        assert out == ref_kappa0(chart, r, y)
        back = exact_chart_inverse(chart, out)
        assert back == ref_chart_inverse(chart, out) == (r, tuple(y))
        # A generic b is not isotropic, so only the maps themselves run.
        assert exact_chart_inverse(chart, b) == ref_chart_inverse(chart, b)


def _unchecked_chart(x, u, mids):
    """Chart data that skip RationalChart's validation."""
    chart = object.__new__(RationalChart)
    chart.__dict__.update(x=x, u=u, mu_basis=tuple(mids))
    return chart


class TestExactCertificates:
    SIG = Signature(2, 2)

    def _data(self):
        std = standard_rational_chart(self.SIG)
        e = [exact_basis_vector(self.SIG, j) for j in range(self.SIG.n)]
        return std, e

    def test_non_orthonormal_middles_raise(self):
        # f(y, y) is summed as eta_j |c_j|^2, which assumes eta-orthonormal
        # middles; with m_2 = 2 e_2 the isotropy certificate must catch it.
        std, e = self._data()
        mids = (e[1].scale(qi(2)), e[2])
        with pytest.raises(UnsupportedChartError):
            RationalChart(std.x, std.u, mids)
        chart = _unchecked_chart(std.x, std.u, mids)
        with pytest.raises(InternalContractError, match="must be isotropic"):
            exact_kappa0(chart, Fraction(1, 3), [qi(1, 2), qi(Fraction(1, 2))])

    def test_kappa0_is_one_combination_and_two_pairings(self, monkeypatch):
        calls = []
        combine, pairing = exact._combine, exact._pairing

        def counted_combine(terms, sig):
            calls.append("_combine")
            return combine(terms, sig)

        def counted_pairing(u, v):
            calls.append("_pairing")
            return pairing(u, v)

        sig = Signature(3, 2)
        chart = _boosted_chart(sig, mix=True)
        coords = [qi(1, 2), qi(Fraction(-3, 4), 5), qi(0, Fraction(2, 7))]
        want = ref_kappa0(chart, Fraction(5, 3), coords)
        monkeypatch.setattr(exact, "_combine", counted_combine)
        monkeypatch.setattr(exact, "_pairing", counted_pairing)
        out = exact_kappa0(chart, Fraction(5, 3), coords)
        # kappa0 in one combination, then its two certificates.
        assert calls == ["_combine", "_pairing", "_pairing"]
        assert out == want

    def test_non_isotropic_output_raises(self):
        std, e = self._data()
        # f(u, x) = 1 but f(u, u) = 1.
        with pytest.raises(UnsupportedChartError):
            RationalChart(std.x, e[0], std.mu_basis)
        chart = _unchecked_chart(std.x, e[0], std.mu_basis)
        with pytest.raises(InternalContractError, match="must be isotropic"):
            exact_kappa0(chart, 1, [qi(0), qi(0)])

    def test_unnormalized_output_raises(self):
        std, e = self._data()
        # u isotropic with f(u, x) = 2: at y = 0 the output stays isotropic.
        u = e[0] - e[-1]
        with pytest.raises(UnsupportedChartError):
            RationalChart(std.x, u, std.mu_basis)
        chart = _unchecked_chart(std.x, u, std.mu_basis)
        with pytest.raises(InternalContractError, match="normalization failed"):
            exact_kappa0(chart, Fraction(3, 7), [qi(0), qi(0)])

    def test_inverse_beta_check_raises(self):
        std, e = self._data()
        mids = (e[1].scale(qi(2)), e[2])
        with pytest.raises(UnsupportedChartError):
            RationalChart(std.x, std.u, mids)
        b = exact_kappa0(std, Fraction(1, 3), [qi(1, 2), qi(Fraction(1, 2))])
        chart = _unchecked_chart(std.x, std.u, mids)
        with pytest.raises(InternalContractError, match="Re\\(beta\\)"):
            exact_chart_inverse(chart, b)

    @pytest.mark.parametrize("kind", sorted(CHARTS))
    def test_perp_input_returns_sentinel(self, kind):
        chart = CHARTS[kind](self.SIG)
        for b in (chart.x, chart.mu_basis[0], chart.mu_basis[1] + chart.x.scale(qi(2, 1))):
            assert exact_chart_inverse(chart, b) is IN_APERP

    def test_partner_orthogonal_hint_raises(self):
        std, e = self._data()
        with pytest.raises(InternalContractError, match="orthogonal to x"):
            exact_hyperbolic_partner(std.x, v_hint=e[1])
