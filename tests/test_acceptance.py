"""Desk-scale acceptance battery.

One test per headline guarantee, each a self-contained property check over
seeded samples at the documented tolerance.  Signatures range over all
(p, q) with p, q >= 1 and p + q <= 6 unless a guarantee names a specific
list.  The whole module runs in well under a minute.
"""

import numpy as np
from fractions import Fraction

from coneq import (
    ConePoint,
    Signature,
    aperp_classify,
    aperp_dimension_estimate,
    canonicalize_ray,
    chart_inverse,
    conformal_factor,
    cotangent_metric_qtilde,
    exact_kappa_roundtrip,
    extend_to_witt_basis,
    form_eval,
    induced_metric,
    kappa0,
    make_chart,
    make_rng,
    proj_equivalent,
    quotient_basis,
    sample_aperp_point,
    sample_cone_point,
    sample_split,
    standard_rational_chart,
    torus_coords,
)
from coneq.exact import random_qgaussian

BATTERY = [Signature(1, 1), Signature(1, 2), Signature(2, 2),
           Signature(2, 3), Signature(3, 3)]

ALL_SIGNATURES = [
    Signature(p, q)
    for n in range(2, 7)
    for p in range(1, n)
    for q in [n - p]
]


def circular_close(a, b, tol):
    delta = abs(a - b) % (2.0 * np.pi)
    return min(delta, 2.0 * np.pi - delta) <= tol


def test_cross_section_lands_on_unit_sphere_product():
    # 10^3 points per signature: both block norms 1 within 1e-9, canonical
    # form idempotent and invariant under positive rescaling
    for sig in ALL_SIGNATURES:
        rng = make_rng(101, sig.p, sig.q)
        for trial in range(1000):
            x = sample_cone_point(sig, 1000 * sig.n + trial)
            ray = canonicalize_ray(x)
            assert abs(ray.plus_norm - 1.0) <= 1e-9
            assert abs(ray.minus_norm - 1.0) <= 1e-9
            again = canonicalize_ray(ConePoint(ray.point.vector))
            assert np.linalg.norm(again.components - ray.components) <= 1e-9
            lam = float(np.exp(1.5 * rng.standard_normal()))
            scaled = canonicalize_ray(ConePoint(lam * x.vector))
            assert np.linalg.norm(scaled.components - ray.components) <= 1e-9


def test_metric_scales_with_square_of_ray_parameter():
    # ||G_{lambda x} - lambda^2 G_x|| <= 1e-9 ||G_x||, 100 trials per
    # signature, lambda in {0.5, 2, 3.7}
    for sig in ALL_SIGNATURES:
        for trial in range(100):
            x = sample_cone_point(sig, 2000 + trial)
            basis = quotient_basis(x)
            g = induced_metric(x, basis=basis)
            norm_g = np.linalg.norm(g.entries)
            for lam in (0.5, 2.0, 3.7):
                x2 = ConePoint(lam * x.vector)
                basis2 = tuple(lam * v for v in basis)
                g2 = induced_metric(x2, basis=basis2)
                defect = np.linalg.norm(g2.entries - lam**2 * g.entries)
                assert defect <= 1e-9 * norm_g


def test_quotient_metric_signature_matches_split_dimensions():
    # eigen-signature (2p-1, 2q-1, 0) in 100% of 10^3 trials per listed
    # signature
    for sig in BATTERY:
        want = (2 * sig.p - 1, 2 * sig.q - 1, 0)
        for trial in range(1000):
            x = sample_cone_point(sig, 3000 + trial)
            assert induced_metric(x).signature == want


def test_two_dimensional_case_is_flat_torus():
    # epsilon frame diag(1,-1) within 1e-12; scalar phase shifts both torus
    # angles equally within 1e-9; quotient cometric vanishes (<= 1e-10)
    sig = Signature(1, 1)
    rng = make_rng(44)
    for trial in range(1000):
        x = sample_cone_point(sig, 4000 + trial)
        g = induced_metric(x, frame="epsilon")
        assert np.max(np.abs(g.entries - np.diag([1.0, -1.0]))) <= 1e-12
        phi1, phi2 = torus_coords(x)
        shift = float(rng.uniform(0.0, 2.0 * np.pi))
        s1, s2 = torus_coords(ConePoint(np.exp(1j * shift) * x.vector))
        assert circular_close(s1, phi1 + shift, 1e-9)
        assert circular_close(s2, phi2 + shift, 1e-9)
        co = cotangent_metric_qtilde(x)
        assert co.entries.shape == (1, 1)
        assert abs(co.entries[0, 0]) <= 1e-10


def test_witt_extension_is_orthonormal_and_recovers_base_point():
    # Gram = eta within 1e-9 (max entry) and e_1 + e_n = x within 1e-12,
    # 10^3 random cone points per signature
    for sig in ALL_SIGNATURES:
        eta_witt = np.diag(
            [1.0] + [1.0] * (sig.p - 1) + [-1.0] * (sig.q - 1) + [-1.0]
        )
        for trial in range(1000):
            x = sample_cone_point(sig, 5000 + trial)
            basis = extend_to_witt_basis(x)
            gram = np.array(
                [[form_eval(a, b) for b in basis] for a in basis]
            )
            assert np.max(np.abs(gram - eta_witt)) <= 1e-9
            recon = (basis[0] + basis[-1]).components - x.components
            assert np.linalg.norm(recon) <= 1e-12


def test_chart_certificates_roundtrip_and_exact_oracle():
    # 10^4 chart evaluations with |f(k,k)| <= 1e-10 and |f(x,k)-1| <= 1e-10;
    # float roundtrip within 1e-9; exact roundtrip true on 10^3 rational
    # inputs
    total = 0
    chart_seed = 0
    while total < 10_000:
        sig = ALL_SIGNATURES[chart_seed % len(ALL_SIGNATURES)]
        chart = make_chart(sample_cone_point(sig, 6000 + chart_seed))
        rng = make_rng(202, chart_seed)
        for _ in range(100):
            r = float(2.0 * rng.standard_normal())
            y = rng.standard_normal(sig.n - 2) + 1j * rng.standard_normal(sig.n - 2)
            out = kappa0(chart, r, y)
            assert abs(form_eval(out.vector, out.vector)) <= 1e-10
            assert abs(form_eval(chart.x.vector, out.vector) - 1.0) <= 1e-10
            r_back, y_back = chart_inverse(chart, out)
            assert abs(r_back - r) <= 1e-9
            assert np.linalg.norm(y_back - y) <= 1e-9
            total += 1
        chart_seed += 1

    exact_total = 0
    while exact_total < 1000:
        sig = ALL_SIGNATURES[exact_total % len(ALL_SIGNATURES)]
        chart = standard_rational_chart(sig)
        rng = make_rng(303, exact_total)
        r = Fraction(int(rng.integers(-20, 21)), int(rng.integers(1, 13)))
        y = [random_qgaussian(rng) for _ in range(sig.n - 2)]
        assert exact_kappa_roundtrip(chart, r, y)
        exact_total += 1


def test_projective_cometric_rank_and_radical():
    # rank 2n-4 with one-dimensional radical for n in {3..6}, rank 0 for
    # n = 2, at singular-value threshold 1e-9 of the largest
    for sig in ALL_SIGNATURES:
        for trial in range(25):
            x = sample_cone_point(sig, 7000 + trial)
            co = cotangent_metric_qtilde(x, tol=1e-9)
            if sig.n == 2:
                assert co.rank == 0
            else:
                assert co.rank == 2 * sig.n - 4
                assert co.signature[2] == 1


def test_induced_metrics_from_different_splits_are_conformal():
    # metrics from two random splits at the same ray-quotient point agree
    # up to a positive factor with relative residual <= 1e-8, 100 trials
    # per signature
    for sig in ALL_SIGNATURES:
        for trial in range(100):
            x = sample_cone_point(sig, 8000 + trial)
            split_a = sample_split(sig, 2 * trial)
            split_b = sample_split(sig, 2 * trial + 1)
            factor, residual = conformal_factor(x, split_a, split_b)
            assert factor > 0.0
            assert residual <= 1e-8


def test_boundary_stratum_partition_and_dimension():
    # 10^3 boundary points split cleanly into the apex class and generic
    # classes with normalization residuals <= 1e-9; the generic stratum has
    # numerical dimension 2n-5 for (2,2) and (3,3)
    sigs = [Signature(2, 2), Signature(2, 3), Signature(3, 2),
            Signature(3, 3), Signature(2, 4), Signature(4, 2),
            Signature(1, 2), Signature(1, 5), Signature(5, 1)]
    kinds = {"Apex": 0, "Generic": 0}
    total = 0
    chart_idx = 0
    while total < 1000:
        sig = sigs[chart_idx % len(sigs)]
        chart = make_chart(sample_cone_point(sig, 9000 + chart_idx))
        for seed in range(25):
            b = sample_aperp_point(chart, 100 * chart_idx + seed)
            cls = aperp_classify(chart, b, tol=1e-9)
            kinds[cls.kind] += 1
            is_center_class = proj_equivalent(b, chart.x)
            assert (cls.kind == "Apex") == is_center_class
            if cls.kind == "Apex":
                assert cls.alpha == 1.0 + 0.0j
                assert np.all(cls.plus_coords == 0)
                assert np.all(cls.minus_coords == 0)
            else:
                norms = (np.linalg.norm(cls.plus_coords) ** 2
                         + np.linalg.norm(cls.minus_coords) ** 2)
                assert abs(norms - 2.0) <= 1e-9
                coords = np.concatenate([cls.plus_coords, cls.minus_coords])
                # gauge pivot: first entry whose magnitude ties the top
                mags = np.abs(coords)
                ties = np.nonzero(mags >= mags.max() * (1.0 - 1e-12))[0]
                pivot = coords[ties[0]]
                assert abs(pivot.imag) <= 1e-9 * abs(pivot)
                assert pivot.real > 0
                moved = aperp_classify(chart, ConePoint(2.5j * b.vector))
                assert abs(moved.alpha - cls.alpha) <= 1e-9
            total += 1
        chart_idx += 1
    assert kinds["Apex"] > 0 and kinds["Generic"] > 0

    for sig in (Signature(2, 2), Signature(3, 3)):
        chart = make_chart(sample_cone_point(sig, 77))
        assert aperp_dimension_estimate(chart, seed=1) == 2 * sig.n - 5
