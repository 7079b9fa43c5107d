"""Scale invariance: a positive rescale s of the input point, s = 10^u with
u uniform in [-8, 8], leaves every quotient, chart and certificate unchanged.

The chart centre is never rescaled in a round trip: a fixed (r, y) on
make_chart(s x) names a different class, which nears the apex as s grows.
"""

import numpy as np
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
    kappa0,
    make_chart,
    sample_aperp_point,
    sample_cone_point,
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
