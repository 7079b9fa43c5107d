"""Scale invariance.  The quadric is the isotropic cone modulo positive
rescales, so every public map is homogeneous under x -> lambda x.  WEIGHTS
gives each map an input builder and weights: argument i times lambda^w_i
makes part j of the result lambda^out_j times what it was.  One property
runs every row, in the test its row names; each other public name has a
reason in REASONS.  The tests after those are outside the table's form:
sweeps, range guards, rejections.
"""

import functools
import math
from typing import Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import coneq
from coneq import (
    IN_APERP, ChartFrame, ConePoint, CVector, NotIsotropicError, Signature,
    UnsupportedChartError, UnsupportedFrameError, cotangent_metric_qtilde, induced_metric,
    kappa0, make_chart, quotient_basis, sample_aperp_point, sample_cone_point, sample_split,
    standard_split,
)
from coneq.core import _norm

pytestmark = pytest.mark.filterwarnings("error")  # numpy's warnings included

SIGNATURES = [Signature(p, q) for p in range(1, 6) for q in range(1, 6)]
# 2^k: inside the scale rule's unscaled range (|k| <= 300), at its edges
# (500, -520) and past them to the edge of the float range.
POW2 = (-520, *(s * k for k in (200, 300, 500, 600, 700, 900, 1000) for s in (1, -1)))
# u of the 10^u rescale, one per seed, spread over [-8, 8].
POW10 = (-8.0, -5.3, -2.1, 0.7, 3.9, 8.0)


def _boundary(x, b, seed):
    """(x, b'), b' on the boundary stratum of x's chart."""
    return [(x, sample_aperp_point(make_chart(x), seed, apex_probability=0.3))]


def _kappa_args(x, b, seed):
    rng, n = np.random.default_rng(seed), x.signature.n - 2
    y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return [(x, rng.uniform(-5.0, 5.0), y)]


def _tangent_pairs(x, b, seed):
    basis = quotient_basis(x)
    pairs = ((0, 2), (1, 3), (2, -1)) if len(basis) > 2 else ((0, 1),)
    return [(x, basis[i], basis[j]) for i, j in pairs]


def _parts(*names):
    return lambda out: tuple(getattr(out, name) for name in names)


def _frame(chart):
    return chart._columns[:, 0], chart._columns[:, 1:]


def _chart_inverse(x, b):
    """chart_inverse on make_chart(x), IN_APERP as a pair of them."""
    out = coneq.chart_inverse(make_chart(x), b)
    return (out, out) if out is IN_APERP else out


class Row(NamedTuple):
    weights: tuple  # of each argument
    out: tuple  # of each part of view(result)
    # (x, b, seed) -> argument tuples, x and b drawn at seed and seed + 1
    build: Callable = lambda x, b, seed: [(x,)]
    view: Callable = lambda out: out if isinstance(out, tuple) else (out,)
    call: Callable = None  # the public name itself unless given
    seeds: tuple = tuple(range(6))
    ks: tuple = POW2  # of the 2^k rescales
    test: str = "every_bit"  # which of the four _rescale_law tests runs the row


# R's last bit moved under C pow(n, 2) at rare seeds: (4,3) seed 108 at 2^-300.
RAY_SEEDS = (*range(6), 108)
# kappa0 and chart_inverse on make_chart(2^k x) pair unbalanced vectors and
# overflow from |k| = 520 (ROADMAP item 1): those two laws stop at 500.
K500 = tuple(k for k in POW2 if abs(k) <= 500)
WEIGHTS = {
    "ConePoint": Row((1,), (0,), lambda x, b, seed: [(x.vector,)], _parts("isotropy_residual")),
    "form_eval": Row((1, -1), (0,), lambda x, b, seed: [(x.vector, b.vector)]),
    "canonicalize_ray": Row((1,), (0,), seeds=RAY_SEEDS, test="the_ray_scale"),
    "canonicalize_phase": Row((1,), (0,), seeds=RAY_SEEDS, test="the_ray_scale"),
    "split_decompose": Row((1,), (1, 1, 1), seeds=RAY_SEEDS, test="the_ray_scale"),
    "split_decompose at 200 seeds": Row((1,), (1,), view=lambda out: out[2:], test="the_ray_scale",
                                        seeds=tuple(range(200)), ks=(300, -300)),
    "proj_equivalent": Row((0, 1), (0,), lambda x, b, seed: [
        (x, ConePoint((seed + 0.5) * np.exp(1j * seed) * x.vector)), (x, b)]),
    "torus_coords": Row((1,), (0, 0), lambda x, b, seed: [(x,)] if x.signature.n == 2 else []),
    "make_chart": Row((1,), (-1, 0), view=_frame, test="the_chart_frame"),
    "ChartFrame": Row((1, -1, 0), (-1, 0), lambda x, b, seed: [
        (x, make_chart(x).u, make_chart(x).mu_basis)], _frame, test="the_chart_frame"),
    "extend_to_witt_basis": Row((1,), (0,), view=lambda basis: (
        np.array([m.components for m in basis[1:-1]]),)),
    "kappa0": Row((1, -2, -1), (-1,), _kappa_args,
                  call=lambda x, r, y: kappa0(make_chart(x), r, y), ks=K500),
    "chart_inverse": Row((0, 1), (0, 0), lambda x, b, seed: [(x, b), (x, b.vector)],
                         call=_chart_inverse),
    "chart_inverse on the rescaled chart": Row((1, 0), (-2, -1), lambda x, b, seed: [(x, b)],
                                               call=_chart_inverse, ks=K500),
    "is_perp": Row((1, -1), (0,), lambda x, b, seed: [(_boundary(x, b, seed)[0][1], x), (b, x)]),
    "aperp_classify": Row((0, 1), (0, 0, 0, 0), _boundary,
                          _parts("kind", "alpha", "plus_coords", "minus_coords"),
                          lambda x, b: coneq.aperp_classify(make_chart(x), b)),
    "quotient_basis": Row((1,), (1, -1, 0), view=lambda basis: (
        basis[0], basis[1], np.array([v.components for v in basis[2:]]))),
    "induced_metric": Row((1,), (0,), view=_parts("entries")),
    "cotangent_metric_qtilde": Row((1,), (0,), view=_parts("entries")),
    # b times 2^-1000 is subnormal: no exact rescale.
    "skew_form": Row((1, 1, -1), (0,), _tangent_pairs, test="skew_form",
                     ks=tuple(k for k in POW2 if abs(k) < 1000)),
    "conformal_factor": Row((1, 0, 0), (0, 0), lambda x, b, seed: [
        (x, standard_split(x.signature), sample_split(x.signature, seed + 50))]),
}

REASONS = {name: why for why, names in {
    # verify_isometry reads a GroupElement alone, which has no scale.
    "a type": "Signature CVector GroupElement InAperp AperpClass MetricMatrix Split RayRep "
              "ProjRep QGaussian QVector RationalChart RunReport verify_isometry",
    "an error class": "QuadricError SignatureMismatchError DegenerateInputError NotIsotropicError "
                      "NotIsometryError NondegeneracyError UnsupportedSignatureError "
                      "UnsupportedFrameError UnsupportedChartError TangencyError "
                      "NotInAperpError InternalContractError",
    "a constant": "DEFAULT_TOL IN_APERP SUITES basis_vector standard_split",
    "a sampler": "make_rng sample_cone_point sample_pseudo_unitary sample_split "
                 "sample_aperp_point aperp_dimension_estimate random_qgaussian",
    "an exact-only map": "exact_form_eval exact_isotropy exact_basis_vector exact_kappa0 "
                         "exact_hyperbolic_partner standard_rational_chart "
                         "exact_chart_inverse exact_kappa_roundtrip",
    "a suite runner": "suite_names run_suite run_many",
}.items() for name in names.split()}


def _times(a, m):
    """a times m, each real part on its own as core._unit scales: a complex
    times a float can turn a -0.0 part into +0.0."""
    if isinstance(a, (ConePoint, CVector)):
        vec = CVector(_times(a.components, m), a.signature)
        return ConePoint(vec) if isinstance(a, ConePoint) else vec
    if isinstance(a, complex):
        return complex(a.real * m, a.imag * m)
    if isinstance(a, np.ndarray) and a.dtype.kind == "c":
        return (np.ascontiguousarray(a).view(np.float64) * m).view(np.complex128)
    return a * m


def _agrees(got, want, m, exact):
    """got == want m, bit for bit or to 1e-9 relative to max(1, ||want||),
    vectors by their components; class kinds, verdicts and IN_APERP by ==."""
    got, want = getattr(got, "components", got), getattr(want, "components", want)
    if not isinstance(want, (float, complex, np.ndarray)):
        return got == want
    if exact:
        got, want = np.asarray(got), np.asarray(want if m == 1.0 else _times(want, m))
        return got.dtype == want.dtype and got.tobytes() == want.tobytes()
    diff = np.asarray(_times(got, 1.0 / m)) - want
    return np.linalg.norm(diff) <= 1e-9 * max(1.0, np.linalg.norm(want))


def _rescale_law(sig, test):
    """The WEIGHTS rows of test at sig: at lambda = 2^k bit for bit, and at
    lambda = 10^u to 1e-9.  Each point is drawn once and each input rescaled
    once per power, so the rows share them, as one point's maps share the
    frame kept on it."""
    cone = functools.cache(lambda seed: sample_cone_point(sig, seed))
    kept = {}  # (id(a), m) -> (a, a m)

    def times(a, m):
        if (id(a), m) not in kept:
            kept[id(a), m] = a, _times(a, m)
        return kept[id(a), m][1]

    failed = []  # (row, seed, exponent, part)
    for name, row in ((n, r) for n, r in WEIGHTS.items() if r.test == test):
        call = row.call or getattr(coneq, name.split()[0])
        for seed in row.seeds:
            scales = [(k, True) for k in row.ks] + [(POW10[seed % len(POW10)], False)]
            for args in row.build(cone(seed), cone(seed + 1), seed):
                want = row.view(call(*args))
                for e, exact in scales:  # power(w) = lambda^w, lambda = 2^e exactly or 10^e
                    power = ((lambda w: math.ldexp(1.0, e * w)) if exact
                             else (lambda w: 10.0 ** (e * w)))
                    got = row.view(call(*(times(a, power(w)) if w else a
                                          for a, w in zip(args, row.weights))))
                    failed += [(name, seed, e, i) for i, (g, v, w) in
                               enumerate(zip(got, want, row.out, strict=True))
                               if not _agrees(g, v, power(w), exact)]
    assert not failed


@pytest.mark.parametrize("sig", SIGNATURES, ids=str)
def test_power_of_two_rescale_keeps_every_bit(sig):
    _rescale_law(sig, "every_bit")


@pytest.mark.parametrize("sig", SIGNATURES, ids=str)
def test_power_of_two_rescale_keeps_the_ray_scale(sig):
    _rescale_law(sig, "the_ray_scale")


@pytest.mark.parametrize("sig", SIGNATURES, ids=str)
def test_power_of_two_rescale_keeps_the_chart_frame(sig):
    _rescale_law(sig, "the_chart_frame")


@pytest.mark.parametrize("sig", SIGNATURES, ids=str)
def test_skew_form_keeps_its_bits_under_power_of_two_rescale(sig):
    _rescale_law(sig, "skew_form")


def test_every_public_name_has_a_row_or_a_reason():
    rows = {key.split()[0] for key in WEIGHTS}
    assert not rows & REASONS.keys()
    assert (rows | REASONS.keys()) ^ set(coneq.__all__) == set()
    assert {row.test for row in WEIGHTS.values()} == {
        "every_bit", "the_ray_scale", "the_chart_frame", "skew_form"}
    for name, why in REASONS.items():
        obj = getattr(coneq, name)
        is_error = isinstance(obj, type) and issubclass(obj, coneq.QuadricError)
        assert is_error == (why == "an error class"), name


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([Signature(1, 1), Signature(1, 2), Signature(2, 2),
                        Signature(2, 3), Signature(3, 3)]),
       st.integers(min_value=0, max_value=2**16),
       st.floats(min_value=-8.0, max_value=8.0).map(lambda u: 10.0**u),
       st.floats(min_value=-5.0, max_value=5.0))
def test_chart_certificates_hold_at_every_scale(sig, seed, s, r):
    # A fixed (r, y) on a chart whose centre or coordinates alone are
    # rescaled names another class: no law ties the two, but each is certified.
    x = sample_cone_point(sig, seed)
    rng = np.random.default_rng(seed)
    y = rng.standard_normal(sig.n - 2) + 1j * rng.standard_normal(sig.n - 2)
    for chart, coords in ((make_chart(x), s * y), (make_chart(ConePoint(s * x.vector)), y)):
        out = kappa0(chart, r, coords)
        assert out.isotropy_residual <= 1e-10


@pytest.mark.parametrize("sig", SIGNATURES, ids=str)
def test_quotient_metrics_are_right_at_every_scale(sig):
    # At lambda x, lambda = 10^k, the induced metric has signature
    # (2p-1, 2q-1, 0) and the cometric rank 2n-4 (0 at n = 2) with a line
    # radical.  A QuadricError would be no wrong answer, but none is raised
    # here, and numpy warns nothing.
    want_rank = 2 * sig.n - 4 if sig.n >= 3 else 0
    for k in [*range(-300, 301, 2), -155, 155]:
        x = ConePoint(10.0**k * sample_cone_point(sig, k % 7).vector)
        g = induced_metric(x)
        assert g.signature == (2 * sig.p - 1, 2 * sig.q - 1, 0), k
        co = cotangent_metric_qtilde(x)
        assert (co.rank, co.signature[2]) == (want_rank, 1), k


@pytest.mark.parametrize("sig", [Signature(1, 1), Signature(2, 3), Signature(5, 5)], ids=str)
def test_chart_frame_constructor_at_every_scale(sig):
    # The public constructor certifies a frame centred past 1e+-154 as
    # make_chart does, and still rejects a partner off by 1e-6.
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
    with pytest.raises(UnsupportedFrameError, match="past the float range"):
        induced_metric(ConePoint(lam * x.vector),
                       basis=[lam * v for v in quotient_basis(x)])


@pytest.mark.parametrize("lam", [1e-165, 1e-170, 1e-200])
def test_explicit_basis_gram_below_the_normal_range(lam):
    # Gram entries near 1e-330 would flush to zero and read as a zero
    # metric: a QuadricError names the basis before any product is formed.
    x = sample_cone_point(Signature(2, 2), 3)
    with pytest.raises(UnsupportedFrameError, match="below the normal float range"):
        induced_metric(ConePoint(lam * x.vector),
                       basis=[lam * v for v in quotient_basis(x)])


def test_explicit_basis_gram_at_1e_minus_150_keeps_its_signature():
    x = sample_cone_point(Signature(2, 2), 3)
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
    for a in arrays:
        base = _norm(a)
        for k in range(-1000, 1001):
            lam = math.ldexp(1.0, k)
            want = base * lam
            if not np.array_equal((a * lam) / lam, a) or want < 2.0**-1022:
                continue
            assert _norm(a * lam) == want, k


@pytest.mark.parametrize("sig", [Signature(2, 2), Signature(2, 3)], ids=str)
def test_kappa0_at_large_chart_coordinates(sig):
    # A large r or y gives a certified point with no numpy warning; an f(y, y)
    # past the float range is named before the representative is formed.
    chart = make_chart(sample_cone_point(sig, 4))
    y = np.zeros(sig.n - 2, dtype=complex)
    y[0] = 0.5
    for r, y0 in ((1e200, 0.5), (0.5, 1e80), (1e300, 1e150)):
        y[0] = y0
        point = kappa0(chart, r, y)
        assert np.isfinite(point.components).all()
        assert point.isotropy_residual <= 1e-10
    y[0] = 1e160
    with pytest.raises(NotIsotropicError, match=r"f\(y, y\) = (-?inf|nan) "):
        kappa0(chart, 0.5, y)
