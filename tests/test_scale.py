"""Scale invariance: a positive rescale s of the input point, s = 10^u with
u uniform in [-8, 8], leaves every quotient, chart and certificate unchanged;
the quotient metrics keep their signature, rank and radical for every
s = 10^k, |k| <= 300.

The chart centre is never rescaled in a round trip: a fixed (r, y) on
make_chart(s x) names a different class, which nears the apex as s grows.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coneq import (
    IN_APERP,
    ChartFrame,
    ConePoint,
    NotIsotropicError,
    Signature,
    UnsupportedChartError,
    UnsupportedFrameError,
    aperp_classify,
    canonicalize_phase,
    canonicalize_ray,
    chart_inverse,
    conformal_factor,
    cotangent_metric_qtilde,
    induced_metric,
    kappa0,
    make_chart,
    quotient_basis,
    sample_aperp_point,
    sample_cone_point,
    sample_split,
    skew_form,
    split_decompose,
    standard_split,
)
from coneq.core import _norm

signatures = st.sampled_from(
    [Signature(1, 1), Signature(1, 2), Signature(2, 2), Signature(2, 3),
     Signature(3, 3)]
)
seeds = st.integers(min_value=0, max_value=2**16)
scales = st.floats(min_value=-8.0, max_value=8.0).map(lambda u: 10.0**u)


def scaled(point, s):
    return ConePoint(s * point.vector)


def assert_close(a, b, tol=1e-9):
    a, b = np.asarray(a), np.asarray(b)
    assert np.linalg.norm(a - b) <= tol * max(1.0, np.linalg.norm(b))


@settings(max_examples=60, deadline=None)
@given(signatures, seeds, scales)
def test_quotient_representatives_ignore_scale(sig, seed, s):
    x = sample_cone_point(sig, seed)
    assert_close(canonicalize_ray(scaled(x, s)).components,
                 canonicalize_ray(x).components)
    assert_close(canonicalize_phase(scaled(x, s)).components,
                 canonicalize_phase(x).components)


@settings(max_examples=60, deadline=None)
@given(signatures, seeds, scales)
def test_chart_inverse_ignores_scale(sig, seed, s):
    chart = make_chart(sample_cone_point(sig, seed))
    b = sample_cone_point(sig, seed + 1)
    want = chart_inverse(chart, b)
    got = chart_inverse(chart, scaled(b, s))
    if want is IN_APERP:
        assert got is IN_APERP
        return
    assert_close(got[0], want[0])
    assert_close(got[1], want[1])


@settings(max_examples=60, deadline=None)
@given(signatures, seeds, scales)
def test_aperp_class_ignores_scale(sig, seed, s):
    chart = make_chart(sample_cone_point(sig, seed))
    b = sample_aperp_point(chart, seed, apex_probability=0.3)
    want = aperp_classify(chart, b)
    got = aperp_classify(chart, scaled(b, s))
    assert got.kind == want.kind
    assert_close(got.alpha, want.alpha)
    assert_close(got.plus_coords, want.plus_coords)
    assert_close(got.minus_coords, want.minus_coords)


@settings(max_examples=60, deadline=None)
@given(signatures, seeds, scales, st.floats(min_value=-5.0, max_value=5.0))
def test_chart_certificates_hold_at_every_scale(sig, seed, s, r):
    x = sample_cone_point(sig, seed)
    rng = np.random.default_rng(seed)
    y = rng.standard_normal(sig.n - 2) + 1j * rng.standard_normal(sig.n - 2)
    for chart, coords in ((make_chart(x), s * y), (make_chart(scaled(x, s)), y)):
        out = kappa0(chart, r, coords)
        assert out.isotropy_residual <= 1e-10


# Multiplying by 2^k is exact, so a rescale by 2^k must keep every bit of
# the certificates and maps below, from deep in the subnormal-square range
# (k = -1000) to the edge of overflow (k = 1000).
POW2_EXPONENTS = [-1000, -700, -520, -200, 200, 700, 1000]
# The metrics build make_chart(x) on the power-of-two representative of x.
METRIC_EXPONENTS = [-1000, -500, -200, 200, 500, 1000]


@pytest.mark.parametrize("sig", [Signature(p, q) for p in range(1, 6)
                                 for q in range(1, 6)], ids=str)
def test_power_of_two_rescale_keeps_every_bit(sig):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed in range(6):
            x = sample_cone_point(sig, seed)
            b = sample_cone_point(sig, seed + 1)
            chart = make_chart(x)
            ray = canonicalize_ray(x).components
            proj = canonicalize_phase(x).components
            inverse = chart_inverse(chart, b)
            splits = (standard_split(sig), sample_split(sig, seed + 50))
            factor = conformal_factor(x, *splits)
            metric = induced_metric(x).entries
            cometric = cotangent_metric_qtilde(x).entries
            for k in METRIC_EXPONENTS:
                y = ConePoint(math.ldexp(1.0, k) * x.vector)
                assert induced_metric(y).entries.tobytes() == metric.tobytes()
                assert (cotangent_metric_qtilde(y).entries.tobytes()
                        == cometric.tobytes())
            for k in POW2_EXPONENTS:
                lam = math.ldexp(1.0, k)
                y = ConePoint(lam * x.vector)
                assert y.isotropy_residual == x.isotropy_residual
                assert np.array_equal(canonicalize_ray(y).components, ray)
                assert np.array_equal(canonicalize_phase(y).components, proj)
                assert conformal_factor(y, *splits) == factor
                got = chart_inverse(chart, lam * b.vector)
                if inverse is IN_APERP:
                    assert got is IN_APERP
                else:
                    assert got[0] == inverse[0]
                    assert np.array_equal(got[1], inverse[1])


@pytest.mark.parametrize("sig", [Signature(p, q) for p in range(1, 6)
                                 for q in range(1, 6)], ids=str)
def test_power_of_two_rescale_keeps_the_ray_scale(sig):
    # R squares its block norms by a product, which is correctly rounded;
    # C pow(n, 2) is not, and moved R's last bit at (4,3), seed 108, 2^-300.
    for seed in range(200):
        x = sample_cone_point(sig, seed)
        r = split_decompose(x)[2]
        for k in (-300, 300):
            y = ConePoint(math.ldexp(1.0, k) * x.vector)
            assert split_decompose(y)[2] == math.ldexp(r, k)
    if sig == Signature(4, 3):
        x = sample_cone_point(sig, 108)
        y = ConePoint(math.ldexp(1.0, -300) * x.vector)
        assert np.array_equal(canonicalize_ray(y).components, canonicalize_ray(x).components)
        assert np.array_equal(canonicalize_phase(y).components,
                              canonicalize_phase(x).components)


@pytest.mark.parametrize("sig", [Signature(p, q) for p in range(1, 6)
                                 for q in range(1, 6)], ids=str)
def test_power_of_two_rescale_keeps_the_chart_frame(sig):
    # make_chart(2^k x) has the partner u(x) / 2^k and the middles of
    # make_chart(x), bit for bit, with no numpy warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed in range(6):
            x = sample_cone_point(sig, seed)
            cols = make_chart(x)._columns
            for k in METRIC_EXPONENTS:
                got = make_chart(ConePoint(math.ldexp(1.0, k) * x.vector))._columns
                assert got[:, 0].tobytes() == (cols[:, 0] * math.ldexp(1.0, -k)).tobytes()
                assert got[:, 1:].tobytes() == cols[:, 1:].tobytes()


@pytest.mark.parametrize("sig", [Signature(p, q) for p in range(1, 6)
                                 for q in range(1, 6)], ids=str)
def test_quotient_metrics_are_right_at_every_scale(sig):
    # At lambda x, lambda = 10^k, the induced metric has signature
    # (2p-1, 2q-1, 0) and the cometric rank 2n-4 (0 at n = 2) with a line
    # radical.  A QuadricError would be no wrong answer, but none is raised
    # here, and numpy warns nothing.
    want_rank = 2 * sig.n - 4 if sig.n >= 3 else 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in [*range(-300, 301, 2), -155, 155]:
            x = ConePoint(10.0**k * sample_cone_point(sig, k % 7).vector)
            g = induced_metric(x)
            assert g.signature == (2 * sig.p - 1, 2 * sig.q - 1, 0), k
            co = cotangent_metric_qtilde(x)
            assert (co.rank, co.signature[2]) == (want_rank, 1), k


@pytest.mark.parametrize("sig", [Signature(1, 1), Signature(2, 3), Signature(5, 5)],
                         ids=str)
def test_chart_frame_constructor_at_every_scale(sig):
    # The public constructor certifies a frame centred past 1e+-154 as
    # make_chart does, and still rejects a partner off by 1e-6.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in (-300, -155, 155, 300):
            x = ConePoint(10.0**k * sample_cone_point(sig, 2).vector)
            chart = make_chart(x)
            fresh = ChartFrame(x, chart.u, chart.mu_basis)
            assert fresh._columns.tobytes() == chart._columns.tobytes()
            with pytest.raises(UnsupportedChartError):
                ChartFrame(x, (1.0 + 1e-6) * chart.u, chart.mu_basis)


@pytest.mark.parametrize("sig", [Signature(2, 2), Signature(3, 3)], ids=str)
def test_explicit_basis_gram_past_the_float_range(sig):
    # Gram entries near 1e310: a QuadricError names the basis before any
    # product overflows, and numpy warns nothing.
    x = sample_cone_point(sig, 3)
    lam = 1e155
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UnsupportedFrameError, match="past the float range"):
            induced_metric(ConePoint(lam * x.vector),
                           basis=[lam * v for v in quotient_basis(x)])


@pytest.mark.parametrize("lam", [1e-165, 1e-170, 1e-200])
def test_explicit_basis_gram_below_the_normal_range(lam):
    # Gram entries near 1e-330 would flush to zero and read as a zero
    # metric: a QuadricError names the basis before any product is formed.
    x = sample_cone_point(Signature(2, 2), 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UnsupportedFrameError, match="below the normal float range"):
            induced_metric(ConePoint(lam * x.vector),
                           basis=[lam * v for v in quotient_basis(x)])


def test_explicit_basis_gram_at_1e_minus_150_keeps_its_signature():
    x = sample_cone_point(Signature(2, 2), 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = induced_metric(ConePoint(1e-150 * x.vector),
                           basis=[1e-150 * v for v in quotient_basis(x)])
    assert g.signature == (3, 3, 0)


def test_norm_keeps_every_bit_under_power_of_two_rescale():
    # _norm(2^k a) == 2^k _norm(a) wherever that is a normal float, with no
    # warning: numpy's own sum of squares overflows from about k = 510 and
    # underflows from about k = -540.
    arrays = []
    for sig in (Signature(1, 1), Signature(2, 3), Signature(5, 5)):
        c = sample_cone_point(sig, 4).components
        arrays += [c, c.real, c[::2], np.concatenate([c.imag, [0.0]])]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a in arrays:
            base = _norm(a)
            for k in range(-1000, 1001):
                lam = math.ldexp(1.0, k)
                want = base * lam
                if not np.array_equal((a * lam) / lam, a) or want < 2.0**-1022:
                    continue
                assert _norm(a * lam) == want, k


@pytest.mark.parametrize("sig", [Signature(2, 2), Signature(3, 3)], ids=str)
def test_skew_form_keeps_its_bits_under_power_of_two_rescale(sig):
    # skew_form(2^k x, 2^k a, 2^-k b) is Im f(a, b), in range, and its
    # tangency check pairs and norms on balanced vectors, so no sum
    # overflows or underflows.
    x = sample_cone_point(sig, 3)
    basis = quotient_basis(x)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a, b in ((basis[0], basis[2]), (basis[1], basis[3]),
                     (basis[2], basis[-1])):
            value = skew_form(x, a, b)
            for k in (600, -600, 900, -900):
                lam = math.ldexp(1.0, k)
                got = skew_form(ConePoint(lam * x.vector), lam * a, b * (1.0 / lam))
                assert got == value, k


@pytest.mark.parametrize("sig", [Signature(2, 2), Signature(2, 3)], ids=str)
def test_kappa0_at_large_chart_coordinates(sig):
    # A large r or y gives a certified point with no numpy warning; an f(y, y)
    # past the float range is named before the representative is formed.
    chart = make_chart(sample_cone_point(sig, 4))
    y = np.zeros(sig.n - 2, dtype=complex)
    y[0] = 0.5
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for r, y0 in ((1e200, 0.5), (0.5, 1e80), (1e300, 1e150)):
            y[0] = y0
            point = kappa0(chart, r, y)
            assert np.isfinite(point.components).all()
            assert point.isotropy_residual <= 1e-10
        y[0] = 1e160
        with pytest.raises(NotIsotropicError, match=r"f\(y, y\) = (-?inf|nan) "):
            kappa0(chart, 0.5, y)
