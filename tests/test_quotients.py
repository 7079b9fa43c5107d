import dataclasses
import functools
import gc
import itertools
import math
import warnings
import weakref

import numpy as np
import pytest

from coneq import (
    charts,
    core,
    quotients,
    ConePoint,
    CVector,
    DegenerateInputError,
    NotIsometryError,
    NotIsotropicError,
    ProjRep,
    RayRep,
    Signature,
    SignatureMismatchError,
    Split,
    UnsupportedSignatureError,
    basis_vector,
    canonicalize_phase,
    canonicalize_ray,
    form_eval,
    make_rng,
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
ALL_SIGNATURES = [Signature(p, q) for p in range(1, 6) for q in range(1, 6)]


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


class TestIdentitySplit:
    SIGNED_ZEROS = [(0.0, -0.0, 1 - 2j, complex(-0.0, -0.0)),
                    (complex(-0.0, 0.0), 3.0, complex(0.0, -0.0), -1.5j),
                    (0j, 0j, 0j, 0j)]

    def test_identity_splits_return_the_components(self):
        fresh = Split(tuple(basis_vector(SIG22, j) for j in range(4)),
                      label="transported")
        for split in (standard_split(SIG22), fresh):
            assert split._identity
            for values in self.SIGNED_ZEROS:
                v = vec(SIG22, *values)
                c = split.coefficients(v)
                assert c.tobytes() == v.components.tobytes()
                assert not c.flags.writeable

    def test_other_splits_take_the_gram_row(self):
        # A sign flip is pseudo-unitary but not I: its coordinates are the
        # product, whatever the label.
        flipped = Split((-1.0 * basis_vector(SIG22, 0),
                         *(basis_vector(SIG22, j) for j in range(1, 4))),
                        label="standard")
        for split in (flipped, sample_split(SIG22, 3)):
            assert not split._identity
            for values in self.SIGNED_ZEROS:
                v = vec(SIG22, *values)
                expected = SIG22.eta * _gram(v.components, split.matrix, SIG22)
                c = split.coefficients(v)
                assert c.tobytes() == expected.tobytes()
                assert not c.flags.writeable

    def test_a_fresh_default_ray_and_phase_take_no_norm(self, monkeypatch):
        from coneq import core, quotients

        calls = []
        norm = core._norm

        def counted(a, *top):
            calls.append(a.shape)
            return norm(a, *top)

        sig = Signature(5, 5)
        x = sample_cone_point(sig, 12)
        monkeypatch.setattr(core, "_norm", counted)
        monkeypatch.setattr(quotients, "_norm", counted)
        ray = canonicalize_ray(x)
        proj = canonicalize_phase(x)
        # R, the block norms and both certificates read the sums each
        # ConePoint's certificate took once.
        assert calls == []
        monkeypatch.undo()
        fresh = ConePoint(x.vector)
        assert ray.components.tobytes() == canonicalize_ray(fresh).components.tobytes()
        assert proj.components.tobytes() == canonicalize_phase(fresh).components.tobytes()

    @pytest.mark.parametrize("sig", SIGNATURES, ids=str)
    def test_block_norms_are_numpys(self, sig):
        # plus_norm and minus_norm are read off the scaled point's
        # certificate sums; they keep np.linalg.norm's bits on the blocks.
        p = sig.p
        for seed in range(8):
            x = sample_cone_point(sig, seed)
            c = x.components
            plus, minus = np.linalg.norm(c[:p]), np.linalg.norm(c[p:])
            assert split_decompose(x)[2] == math.sqrt((plus * plus + minus * minus) / 2.0)
            for k in (0, 900, -900):
                ray = canonicalize_ray(ConePoint(math.ldexp(1.0, k) * x.vector))
                assert ray.plus_norm == np.linalg.norm(ray.components[:p])
                assert ray.minus_norm == np.linalg.norm(ray.components[p:])

    def test_proj_equivalent_takes_one_norm(self, monkeypatch):
        from coneq import core, quotients

        calls = []
        norm = core._norm

        def counted(a, *top):
            calls.append(a.shape)
            return norm(a, *top)

        sig = Signature(5, 5)
        x, y = sample_cone_point(sig, 3), sample_cone_point(sig, 4)
        x2 = ConePoint(x.vector * (3.0 * np.exp(0.5j)))
        monkeypatch.setattr(core, "_norm", counted)
        monkeypatch.setattr(quotients, "_norm", counted)
        # Only ||a - b|| is summed; the scale is read off the kept sums.
        assert proj_equivalent(x, x2)
        assert calls == [(10,)]
        assert not proj_equivalent(x, y)
        assert calls == [(10,), (10,)]

    @pytest.mark.parametrize("sig", SIGNATURES, ids=str)
    def test_a_plain_vector_gives_the_cone_points_scale(self, sig):
        # 2^-485 puts both block sums below 1e-290, where _norm re-sums.
        for seed in range(4):
            x = sample_cone_point(sig, seed)
            for k in (0, -485, 900, -900):
                v = math.ldexp(1.0, k) * x.vector
                plain = split_decompose(CVector(v.components, sig))[2]
                assert plain == split_decompose(ConePoint(v))[2]


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
        x_plus, x_minus, _ = split_decompose(ray, ray.split)
        np.testing.assert_allclose(x_plus.components, [1, 0, 0, 0], atol=1e-15)
        np.testing.assert_allclose(x_minus.components, [0, 0, 0, 1j], atol=1e-15)

    def test_sphere_accessors_share_one_coefficient_product(self, monkeypatch):
        sig = Signature(3, 2)
        split = sample_split(sig, 21)
        ray = canonicalize_ray(sample_cone_point(sig, 6), split)
        fresh = split.coefficients(ray.point)
        calls = []
        coefficients = Split.coefficients

        def counted(self, v):
            calls.append(v)
            return coefficients(self, v)

        monkeypatch.setattr(Split, "coefficients", counted)
        sp, sm = ray.sphere_plus(), ray.sphere_minus()
        assert ray.sphere_plus().tobytes() == sp.tobytes()
        assert len(calls) == 1
        assert np.concatenate([sp, sm]).tobytes() == fresh.tobytes()
        for block in (sp, sm):
            with pytest.raises(ValueError):
                block[0] = 0.0

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

    def test_plain_vectors_with_unequal_small_blocks_are_covariant(self):
        # Blocks near 1e-153 and 1e-155 take the re-sum branch, where the
        # smaller norm's square is subnormal unless both share one scale.
        rng = make_rng(355, 1)
        for _ in range(2000):
            z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            v = CVector(np.concatenate([1e-153 * z[:2], 1e-155 * z[2:]]), SIG22)
            up = split_decompose(CVector(2.0**500 * v.components, SIG22))[2]
            assert split_decompose(v)[2] == 2.0**-500 * up

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

    def test_signature_mismatch_names_both(self):
        a = sample_cone_point(Signature(1, 2), 0)
        b = sample_cone_point(SIG11, 0)
        with pytest.raises(SignatureMismatchError,
                           match=r"^signature mismatch: \(1,2\) vs \(1,1\)$"):
            proj_equivalent(a, b)


class TestKeptRepresentatives:
    SIGS = [SIG11, SIG22, Signature(2, 3), Signature(5, 5)]

    @staticmethod
    def assert_same_bits(a, b):
        assert a.components.tobytes() == b.components.tobytes()
        if isinstance(a, RayRep):
            assert a.signature == b.signature
            assert a.split.label == b.split.label
            assert a.plus_norm == b.plus_norm and a.minus_norm == b.minus_norm
            assert a.point.isotropy_residual == b.point.isotropy_residual
        else:
            assert a.to_json() == b.to_json()

    @pytest.mark.parametrize("sig", SIGS, ids=str)
    def test_repeated_calls_return_the_kept_object(self, sig):
        x = sample_cone_point(sig, 4)
        ray = canonicalize_ray(x)
        proj = canonicalize_phase(x)
        assert canonicalize_ray(x) is ray
        assert canonicalize_phase(x) is proj
        assert canonicalize_phase(ray) is proj
        assert proj_equivalent(x, x)
        assert canonicalize_ray(x) is ray and canonicalize_phase(x) is proj
        fresh = ConePoint(x.vector)
        self.assert_same_bits(ray, canonicalize_ray(fresh))
        self.assert_same_bits(proj, canonicalize_phase(fresh))

    @pytest.mark.parametrize("sig", SIGS, ids=str)
    def test_kept_objects_match_an_uncached_split(self, sig):
        # A split equal to the standard one, but not it, computes afresh on
        # every call and gets the same bits as the kept representatives.
        x = sample_cone_point(sig, 7)
        axes = Split(tuple(basis_vector(sig, j) for j in range(sig.n)))
        ray = canonicalize_ray(x, axes)
        assert canonicalize_ray(x, axes) is not ray
        self.assert_same_bits(ray, canonicalize_ray(x))
        self.assert_same_bits(canonicalize_phase(x, axes), canonicalize_phase(x))

    def test_explicit_standard_split_returns_the_kept_object(self):
        x = sample_cone_point(SIG22, 5)
        split = standard_split(SIG22)
        assert canonicalize_ray(x, split) is canonicalize_ray(x)
        assert canonicalize_phase(x, split) is canonicalize_phase(x)
        assert canonicalize_phase(x) is canonicalize_phase(x, split)

    def test_transported_split_neither_reads_nor_writes(self):
        sig = Signature(3, 2)
        split = sample_split(sig, 21)
        x = sample_cone_point(sig, 6)
        moved = canonicalize_ray(x, split)
        assert moved.split is split
        assert "ray" not in x._derived
        ray = canonicalize_ray(x)
        proj = canonicalize_phase(x)
        again = canonicalize_ray(x, split)
        assert again.split is split and again is not moved
        assert again.components.tobytes() == moved.components.tobytes()
        moved_proj = canonicalize_phase(x, split)
        assert moved_proj.split is split
        assert "proj" not in moved.point._derived
        assert x._derived["ray"] is ray and ray.point._derived["proj"] is proj
        assert canonicalize_ray(x) is ray and canonicalize_phase(x) is proj

    def test_no_reference_cycle(self):
        # The point and both representatives must die by reference counting
        # alone: a cycle through what the point keeps would leave them to the
        # cyclic collector, and memory would grow with the points made.
        x = sample_cone_point(Signature(5, 5), 0)
        ray = canonicalize_ray(x)
        proj = canonicalize_phase(x)
        assert proj_equivalent(x, ConePoint(2j * x.vector))
        refs = [weakref.ref(x), weakref.ref(ray.point), weakref.ref(proj.point)]
        gc.disable()
        try:
            del x, ray, proj
            assert [r() for r in refs] == [None, None, None]
        finally:
            gc.enable()


def _rep_rows(vectors):
    """quotients._default_reps's inputs for a list of vectors: the stacked
    components, their moduli, max|x_j| per row and the block sums (S+, S-),
    each summed by core._sum_sq as a cone point's certificate sums it."""
    x = np.array([v.components for v in vectors])
    mods = np.abs(x)
    p = vectors[0].signature.p
    sums = tuple(np.array([core._sum_sq(v.components[part]) for v in vectors])
                 for part in (slice(None, p), slice(p, None)))
    return x, mods, mods.max(axis=1), sums


class TestRayBlocks:
    """quotients._default_reps builds a block of rows' ray and phase
    representatives at once: per kept row canonicalize_ray and
    canonicalize_phase of a fresh ConePoint, bit for bit, each point certified
    by its constructor when the row is drawn; a row it leaves (None) is
    canonicalized on the object path."""

    @staticmethod
    def assert_object_reps(ray, vector):
        want = canonicalize_ray(ConePoint(vector))
        want_proj, proj = canonicalize_phase(want), ray.point._derived["proj"]
        assert ray.split is want.split is proj.split is standard_split(vector.signature)
        assert (type(ray.plus_norm), type(ray.minus_norm)) == (float, float)
        assert (ray.plus_norm, ray.minus_norm) == (want.plus_norm, want.minus_norm)
        assert type(proj.pivot_index) is int and proj.pivot_index == want_proj.pivot_index
        for got, exp in ((ray.point, want.point), (proj.point, want_proj.point)):
            assert got.components.tobytes() == exp.components.tobytes()
            assert got.isotropy_residual == exp.isotropy_residual
            (mods, top), (want_mods, want_top) = (
                point.vector.__dict__["_moduli"] for point in (got, exp))
            assert mods.tobytes() == want_mods.tobytes()
            assert type(top) is float and top == want_top
            assert got.vector.__dict__["_sums"] == exp.vector.__dict__["_sums"]
            assert not (got.components.flags.writeable or mods.flags.writeable)

    @pytest.mark.parametrize("sig", ALL_SIGNATURES, ids=str)
    def test_block_reps_are_the_object_paths(self, sig):
        # The rows run_suite gives it, a block of 1,024 then one: every row of
        # the first is kept and read by both canonicalizations, and the last,
        # below the crossover, is left to the object path.  Then the kernel
        # itself on a one-row block.
        for k, (_, draw) in enumerate(core._trial_points(sig, sig.n, core._KEY_BLOCK + 1,
                                                         quotients._default_reps)):
            x = draw()
            if k == core._KEY_BLOCK:
                assert x._derived == {}
                continue
            assert set(x._derived) == {"ray"}
            ray = x._derived["ray"]
            self.assert_object_reps(ray, x.vector)
            assert set(ray.point._derived) == {"proj"}
            assert canonicalize_ray(x) is ray
            assert canonicalize_phase(x) is ray.point._derived["proj"]
        x = sample_cone_point(sig, make_rng(2**64 + 1, sig.p, sig.q, 0)).vector
        (kept,) = quotients._default_reps(sig, *_rep_rows([x]))
        self.assert_object_reps(kept()["ray"], x)

    @pytest.mark.parametrize("sig", ALL_SIGNATURES, ids=str)
    def test_signed_zeros(self, sig):
        # Real and imaginary rows, with exact zeros in the other part.
        vectors = []
        for seed in range(4):
            rng = make_rng(seed, 13)
            a, b = rng.standard_normal(sig.p), rng.standard_normal(sig.q)
            real = np.concatenate([a / np.linalg.norm(a), -b / np.linalg.norm(b)])
            x = sample_cone_point(sig, seed).vector
            vectors += [x, 1j * x, CVector(real.astype(complex), sig), CVector(real * 1j, sig)]
        for kept, v in zip(quotients._default_reps(sig, *_rep_rows(vectors)), vectors):
            self.assert_object_reps(kept()["ray"], v)

    @pytest.mark.parametrize("sig", [Signature(2, 3), Signature(3, 3), Signature(4, 5)], ids=str)
    def test_pivot_ties_go_to_the_lowest_index(self, sig):
        # The top modulus twice: |x_0| = |x_1| exactly, |x_1| = |x_p| exactly
        # across the blocks (x_0 below them), and |x_1| above |x_0| by 1e-13 of
        # it, inside PIVOT_TIE_TOL.  The pivot is the lowest index within the
        # tolerance of the top modulus: 0, 1 and 0.
        p, q = sig.p, sig.q
        rng = make_rng(0, 17)
        phases = lambda k: np.exp(2j * np.pi * rng.uniform(size=k))
        vectors, pivots = [], []
        for tie, pivot in (("equal", 0), ("across", 1), ("near", 0)) * 4:
            c = complex(phases(1)[0])
            plus = 0.3 * phases(p)
            if tie == "across":
                plus[1] = c
                minus = np.r_[-c.conjugate(), phases(q - 1) * np.sqrt(0.09 * (p - 1) / (q - 1))]
            else:
                plus[:2] = c * (1.0 - 1e-13 if tie == "near" else 1.0), 1j * c
                minus = phases(q) * np.sqrt(np.vdot(plus, plus).real / q)
            vectors.append(CVector(np.r_[plus, minus], sig))
            pivots.append(pivot)
        for kept, v, pivot in zip(quotients._default_reps(sig, *_rep_rows(vectors)),
                                  vectors, pivots):
            ray = kept()["ray"]
            self.assert_object_reps(ray, v)
            assert ray.point._derived["proj"].pivot_index == pivot

    @pytest.mark.parametrize("sig", [SIG22, Signature(2, 3), Signature(5, 5)], ids=str)
    def test_rows_out_of_range_or_uncertified_are_left_to_the_object_path(self, sig):
        vectors = [sample_cone_point(sig, seed).vector for seed in range(6)]
        # A block sum below 1e-290, max|x_j| below 1e-153 and above 1e150:
        # the object path canonicalizes these on its scale rule.
        for k, lam in ((1, 1e-150), (2, 2.0**-600), (3, 1e151)):
            vectors[k] = lam * vectors[k]
        # Isotropic to about 1e-6 only: the ray representative's certificate fails.
        off = vectors[4].components.copy()
        off[0] += 1e-5 * abs(off[0])
        vectors[4] = CVector(off, sig)
        reps = quotients._default_reps(sig, *_rep_rows(vectors))
        assert [k for k, kept in enumerate(reps) if kept is None] == [1, 2, 3, 4]
        for k in (0, 5):
            self.assert_object_reps(reps[k]()["ray"], vectors[k])
        for k in (1, 2, 3):
            assert canonicalize_phase(ConePoint(vectors[k])).components.shape == (sig.n,)
        with pytest.raises(NotIsotropicError):
            canonicalize_ray(ConePoint(vectors[4], tol=1e-4))

    @pytest.mark.parametrize("sig", [SIG11, Signature(1, 3), Signature(2, 3), Signature(5, 5)],
                             ids=str)
    def test_frames_on_the_ray_points_are_make_charts(self, sig):
        # Given the frame kernel, each kept ray point keeps make_chart's frame
        # too, bit for bit _frame_block's on a fresh ray point.
        frames = functools.partial(quotients._default_reps, frames=charts._default_frames)
        for _, draw in core._trial_points(sig, 3, 50, frames):
            x = draw()
            point = x._derived["ray"].point
            assert set(point._derived) == {"proj", "unit", "witt"}
            self.assert_object_reps(x._derived["ray"], x.vector)
            fresh = canonicalize_ray(ConePoint(x.vector)).point
            cols, uh = charts._frame_block(fresh, None)
            got_cols, got_uh = point._derived["witt"]
            assert got_cols.tobytes() == cols.tobytes() and got_uh.tobytes() == uh.tobytes()
            assert point._derived["unit"][1:] == core._unit(fresh)[1:]
            assert charts.make_chart(point)._columns is got_cols


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

    def test_a_point_keeps_its_ray_representative(self):
        x = sample_cone_point(SIG11, 9)
        angles = torus_coords(x)
        assert x._derived["ray"] is canonicalize_ray(x)
        assert torus_coords(x) == angles == torus_coords(x.vector)

    def test_representatives_give_their_points_angles(self):
        # A representative is not passed through unscaled: its point is
        # ray-normalized again, as a fresh copy of that point would be.
        x = sample_cone_point(SIG11, 11)
        for rep in (canonicalize_ray(x), canonicalize_phase(x)):
            assert torus_coords(rep) == torus_coords(ConePoint(rep.point.vector))


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
        # A ConePoint's coordinates are its vector's; the finiteness check
        # reads the modulus pass its certificate kept.
        for split in (standard_split(SIG22), sample_split(SIG22, 2)):
            x = sample_cone_point(SIG22, 5)
            assert (split.coefficients(x).tobytes()
                    == split.coefficients(x.vector).tobytes())
