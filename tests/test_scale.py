"""Scale invariance: a positive rescale s of the input point, s = 10^u with
u uniform in [-8, 8], leaves every quotient, chart and certificate unchanged.

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
    ConePoint,
    Signature,
    aperp_classify,
    canonicalize_phase,
    canonicalize_ray,
    chart_inverse,
    conformal_factor,
    kappa0,
    make_chart,
    sample_aperp_point,
    sample_cone_point,
    sample_split,
    standard_split,
)

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
