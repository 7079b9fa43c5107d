import dataclasses
import itertools
import warnings

import numpy as np
import pytest

from coneq import (
    ConePoint,
    CVector,
    DegenerateInputError,
    NotIsometryError,
    ProjRep,
    RayRep,
    Signature,
    Split,
    UnsupportedSignatureError,
    basis_vector,
    canonicalize_phase,
    canonicalize_ray,
    form_eval,
    proj_equivalent,
    sample_cone_point,
    sample_split,
    split_decompose,
    standard_split,
    torus_coords,
)
from coneq.core import _gram

SIG11 = Signature(1, 1)
SIG22 = Signature(2, 2)


def vec(sig, *values):
    return CVector(np.array(values, dtype=complex), sig)


def gram(split):
    return np.array([[form_eval(u, v) for v in split.basis] for u in split.basis])


class TestSplit:
    def test_standard_split_is_axes(self):
        s = standard_split(SIG22)
        assert s.label == "standard"
        np.testing.assert_array_equal(s.matrix, np.eye(4))

    def test_rejects_non_orthonormal_basis(self):
        with pytest.raises(NotIsometryError):
            Split((vec(SIG11, 1, 1), vec(SIG11, 1, -1)))

    def test_rejects_wrong_count(self):
        with pytest.raises(ValueError):
            Split((basis_vector(SIG22, 0),))

    def test_transported_split_has_eta_gram(self):
        s = sample_split(SIG22, 7)
        assert s.label == "transported-7"
        np.testing.assert_allclose(gram(s), np.diag(SIG22.eta), atol=1e-10)

    def test_coefficient_roundtrip(self):
        s = sample_split(Signature(2, 3), 3)
        x = sample_cone_point(Signature(2, 3), 5).vector
        back = s.from_coefficients(s.coefficients(x))
        np.testing.assert_allclose(back.components, x.components, atol=1e-12)

    def test_standard_coefficients_are_components(self):
        s = standard_split(SIG22)
        x = vec(SIG22, 1j, 2, 0, 1 - 1j)
        np.testing.assert_array_equal(s.coefficients(x), x.components)

    def test_json_shape(self):
        data = sample_split(SIG11, 0).to_json()
        assert data["label"] == "transported-0"
        assert data["signature"] == {"p": 1, "q": 1}
        assert len(data["basis"]) == 2


SIGNATURES = [Signature(p, q) for p, q in itertools.product(range(1, 6), repeat=2)]


class TestSplitCoefficients:
    def test_coefficients_equal_the_gram_row(self):
        # eta * conj(M) is kept on the split; the coordinates keep the bits
        # of eta * core._gram(v, M).
        for sig in (SIG11, SIG22, Signature(2, 3), Signature(5, 5)):
            for split in (standard_split(sig), sample_split(sig, 3)):
                for seed in range(8):
                    v = sample_cone_point(sig, seed).vector
                    expected = sig.eta * _gram(v.components, split.matrix, sig)
                    assert (split.coefficients(v).tobytes()
                            == expected.tobytes())
        with pytest.raises(ValueError):
            standard_split(SIG22)._pairing[0, 0] = 0.0


class TestSharedStandardSplit:
    def test_built_once_per_signature(self):
        assert standard_split(SIG22) is standard_split(Signature(2, 2))
        assert standard_split(SIG22) is not standard_split(SIG11)

    def test_shared_split_is_read_only(self):
        s = standard_split(Signature(2, 3))
        assert not s.matrix.flags.writeable
        assert all(not v.components.flags.writeable for v in s.basis)
        with pytest.raises(ValueError):
            s.matrix[0, 0] = 2.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            s.label = "other"

    @pytest.mark.parametrize("sig", SIGNATURES, ids=str)
    def test_matches_a_freshly_built_split(self, sig):
        fresh = Split(tuple(basis_vector(sig, j) for j in range(sig.n)))
        for seed in range(3):
            x = sample_cone_point(sig, seed)
            a, b = canonicalize_ray(x), canonicalize_ray(x, fresh)
            assert np.array_equal(a.components, b.components)
            assert a.plus_norm == b.plus_norm and a.minus_norm == b.minus_norm
            a, b = canonicalize_phase(x), canonicalize_phase(x, fresh)
            assert np.array_equal(a.components, b.components)
            assert a.pivot_index == b.pivot_index
            shared, built = split_decompose(x), split_decompose(x, fresh)
            assert np.array_equal(shared[0].components, built[0].components)
            assert np.array_equal(shared[1].components, built[1].components)
            assert shared[2] == built[2]
            c = x.components
            r = np.sqrt((np.linalg.norm(c[: sig.p]) ** 2
                         + np.linalg.norm(c[sig.p :]) ** 2) / 2.0)
            assert shared[2] == float(r)


class TestSplitDecompose:
    def test_pinned_example(self):
        x_plus, x_minus, r = split_decompose(vec(SIG11, 2, 2))
        np.testing.assert_array_equal(x_plus.components, [2, 0])
        np.testing.assert_array_equal(x_minus.components, [0, 2])
        assert r == 2.0

    def test_standard_null_vector(self):
        x = ConePoint(basis_vector(SIG22, 0) + basis_vector(SIG22, 3))
        x_plus, x_minus, r = split_decompose(x)
        np.testing.assert_array_equal(x_plus.components, [1, 0, 0, 0])
        np.testing.assert_array_equal(x_minus.components, [0, 0, 0, 1])
        assert r == 1.0

    def test_blocks_sum_and_sign(self):
        sig = Signature(2, 3)
        split = sample_split(sig, 11)
        x = sample_cone_point(sig, 4)
        x_plus, x_minus, r = split_decompose(x, split)
        np.testing.assert_allclose(
            (x_plus + x_minus).components, x.components, atol=1e-12
        )
        # on the cone both blocks carry the same form-norm R
        assert abs(form_eval(x_plus, x_plus) - r**2) <= 1e-9 * r**2
        assert abs(form_eval(x_minus, x_minus) + r**2) <= 1e-9 * r**2
        assert abs(form_eval(x_plus, x_minus)) <= 1e-9 * r**2


class TestCanonicalizeRay:
    def test_pinned_example(self):
        ray = canonicalize_ray(vec(SIG11, 3, 3j))
        np.testing.assert_allclose(ray.components, [1, 1j], atol=1e-15)
        assert ray.plus_norm == 1.0 and ray.minus_norm == 1.0

    def test_idempotent_object_identity(self):
        ray = canonicalize_ray(sample_cone_point(SIG22, 8))
        assert canonicalize_ray(ray) is ray
        assert canonicalize_ray(ray, ray.split) is ray

    def test_scale_invariance(self):
        x = sample_cone_point(SIG22, 2)
        a = canonicalize_ray(x)
        b = canonicalize_ray(ConePoint(7.5 * x.vector))
        np.testing.assert_allclose(a.components, b.components, atol=1e-12)

    def test_transported_split_unit_blocks(self):
        sig = Signature(3, 2)
        split = sample_split(sig, 21)
        ray = canonicalize_ray(sample_cone_point(sig, 6), split)
        assert abs(np.linalg.norm(ray.sphere_plus()) - 1.0) <= 1e-12
        assert abs(np.linalg.norm(ray.sphere_minus()) - 1.0) <= 1e-12

    def test_sphere_accessors_standard_split(self):
        ray = canonicalize_ray(vec(SIG22, 1, 0, 0, 1j))
        np.testing.assert_allclose(ray.sphere_plus(), [1, 0], atol=1e-15)
        np.testing.assert_allclose(ray.sphere_minus(), [0, 1j], atol=1e-15)
        np.testing.assert_allclose(ray.x_plus().components, [1, 0, 0, 0],
                                   atol=1e-15)
        np.testing.assert_allclose(ray.x_minus().components, [0, 0, 0, 1j],
                                   atol=1e-15)

    def test_rep_constructor_enforces_unit_norms(self):
        point = ConePoint(vec(SIG11, 2, 2))
        with pytest.raises(Exception):
            RayRep(point, standard_split(SIG11), 2.0, 2.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rep_constructor_rejects_non_finite_norms(self, bad):
        point = ConePoint(vec(SIG11, 1, 1))
        with pytest.raises(DegenerateInputError):
            RayRep(point, standard_split(SIG11), bad, 1.0)
        with pytest.raises(DegenerateInputError):
            RayRep(point, standard_split(SIG11), 1.0, bad)

    def test_json(self):
        ray = canonicalize_ray(vec(SIG11, 1, 1))
        data = ray.to_json()
        assert data["split"] == "standard"
        assert data["plus_norm"] == 1.0 and data["minus_norm"] == 1.0


class TestRayScaleFree:
    # The block sums overflow at 1e155 and above, and are subnormal or zero
    # at 1e-160 and below; R is taken on c / max|c_j| there.
    SCALES = [1e155, 1e160, 1e300, 1e-160, 1e-170, 1e-300]

    @pytest.mark.parametrize("scale", SCALES)
    def test_canonical_reps_at_extreme_scales(self, scale):
        x = sample_cone_point(SIG22, 3)
        ray_ref = canonicalize_ray(x)
        proj_ref = canonicalize_phase(x)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y = ConePoint(scale * x.vector)
            ray = canonicalize_ray(y)
            proj = canonicalize_phase(y)
        assert abs(ray.plus_norm - 1.0) <= 1e-12
        assert abs(ray.minus_norm - 1.0) <= 1e-12
        np.testing.assert_allclose(ray.components, ray_ref.components,
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(proj.components, proj_ref.components,
                                   rtol=0, atol=1e-12)
        assert proj.pivot_index == proj_ref.pivot_index

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_transported_split_at_extreme_scales(self, scale):
        sig = Signature(3, 2)
        split = sample_split(sig, 21)
        x = sample_cone_point(sig, 6)
        ref = canonicalize_ray(x, split)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ray = canonicalize_ray(ConePoint(scale * x.vector), split)
            _, _, r = split_decompose(scale * x.vector, split)
        np.testing.assert_allclose(ray.components, ref.components,
                                   rtol=0, atol=1e-12)
        assert abs(r / (scale * split_decompose(x, split)[2]) - 1.0) <= 1e-14

    def test_common_path_keeps_its_bits(self):
        # R equals the unscaled formula, np.linalg.norm's, bit for bit.
        for sig in (SIG11, SIG22, Signature(2, 3), Signature(5, 5)):
            for split in (standard_split(sig), sample_split(sig, 4)):
                for seed in range(8):
                    for scale in (1e-150, 1e-8, 1.0, 1e8, 1e150):
                        v = scale * sample_cone_point(sig, seed).vector
                        c = split.coefficients(v)
                        p = sig.p
                        expected = float(np.sqrt(
                            (np.linalg.norm(c[:p]) ** 2
                             + np.linalg.norm(c[p:]) ** 2) / 2.0))
                        assert split_decompose(v, split)[2] == expected

    def test_zero_still_collapses(self):
        with pytest.raises(DegenerateInputError, match="scale R collapsed"):
            split_decompose(vec(SIG22, 0, 0, 0, 0))


class TestCanonicalizePhase:
    def test_pinned_example(self):
        rep = canonicalize_phase(vec(SIG11, 1j, 1j))
        np.testing.assert_allclose(rep.components, [1, 1], atol=1e-15)
        assert rep.pivot_index == 0

    def test_tie_breaks_to_lowest_index(self):
        rep = canonicalize_phase(vec(SIG11, 1, 1j))
        assert rep.pivot_index == 0
        np.testing.assert_allclose(rep.components, [1, 1j], atol=1e-15)

    def test_idempotent_object_identity(self):
        rep = canonicalize_phase(sample_cone_point(SIG22, 3))
        assert canonicalize_phase(rep) is rep
        assert isinstance(rep, ProjRep)

    def test_full_group_invariance(self):
        x = sample_cone_point(SIG22, 14)
        rep = canonicalize_phase(x)
        moved = canonicalize_phase(ConePoint(2.5 * np.exp(0.8j) * x.vector))
        np.testing.assert_allclose(moved.components, rep.components, atol=1e-12)

    def test_pivot_is_real_positive(self):
        for seed in range(25):
            rep = canonicalize_phase(sample_cone_point(Signature(2, 3), seed))
            pivot = rep.components[rep.pivot_index]
            assert abs(pivot.imag) <= 1e-12
            assert pivot.real > 0


class TestProjEquivalent:
    def test_orbit_members_match(self):
        x = sample_cone_point(SIG22, 9)
        assert proj_equivalent(x, ConePoint(3j * x.vector))

    def test_distinct_points_differ(self):
        assert not proj_equivalent(
            sample_cone_point(SIG22, 1), sample_cone_point(SIG22, 2)
        )

    def test_split_agnostic_verdict(self):
        x = sample_cone_point(SIG22, 9)
        y = ConePoint(-2.0 * x.vector)
        assert proj_equivalent(x, y, split=sample_split(SIG22, 5))


class TestTorusCoords:
    def test_base_point(self):
        assert torus_coords(vec(SIG11, 1, 1)) == (0.0, 0.0)

    def test_pinned_angles(self):
        phi1, phi2 = torus_coords(vec(SIG11, 1j, -1))
        assert abs(phi1 - np.pi / 2) <= 1e-12
        assert abs(phi2 - np.pi) <= 1e-12

    def test_scale_invariant(self):
        x = sample_cone_point(SIG11, 3)
        assert torus_coords(x) == torus_coords(ConePoint(4.2 * x.vector))

    def test_phase_shifts_both_angles(self):
        x = sample_cone_point(SIG11, 5)
        phi1, phi2 = torus_coords(x)
        delta = 1.1
        s1, s2 = torus_coords(ConePoint(np.exp(1j * delta) * x.vector))
        assert abs(np.mod(s1 - phi1 - delta, 2 * np.pi)) <= 1e-12 or \
            abs(np.mod(s1 - phi1 - delta, 2 * np.pi) - 2 * np.pi) <= 1e-12
        assert abs(np.mod(s2 - phi2 - delta, 2 * np.pi)) <= 1e-12 or \
            abs(np.mod(s2 - phi2 - delta, 2 * np.pi) - 2 * np.pi) <= 1e-12

    def test_range(self):
        for seed in range(50):
            phi1, phi2 = torus_coords(sample_cone_point(SIG11, seed))
            assert 0.0 <= phi1 < 2 * np.pi
            assert 0.0 <= phi2 < 2 * np.pi

    def test_wrong_signature_rejected(self):
        with pytest.raises(UnsupportedSignatureError):
            torus_coords(sample_cone_point(SIG22, 0))


@pytest.mark.filterwarnings("error")
class TestNonFiniteSplitInput:
    """A non-finite vector has no split coordinates: DegenerateInputError
    before any arithmetic, so numpy warns nothing."""

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_coefficients(self, bad):
        with pytest.raises(DegenerateInputError):
            standard_split(SIG22).coefficients(vec(SIG22, 1, bad, 0, 1))

    def test_split_decompose(self):
        with pytest.raises(DegenerateInputError):
            split_decompose(vec(SIG22, 1, np.inf, 0, 1), standard_split(SIG22))

    def test_a_cone_point_takes_the_same_coefficients(self):
        # A ConePoint is finite by its certificate, so it skips the check.
        for split in (standard_split(SIG22), sample_split(SIG22, 2)):
            x = sample_cone_point(SIG22, 5)
            assert (split.coefficients(x).tobytes()
                    == split.coefficients(x.vector).tobytes())
