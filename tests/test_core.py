import collections
import math
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from coneq import (
    ConePoint,
    CVector,
    DegenerateInputError,
    GroupElement,
    InternalContractError,
    NotIsometryError,
    NotIsotropicError,
    Signature,
    SignatureMismatchError,
    Split,
    basis_vector,
    form_eval,
    make_chart,
    make_rng,
    sample_aperp_point,
    sample_cone_point,
    sample_pseudo_unitary,
    sample_split,
    verify_isometry,
)
from coneq import core
from coneq.errors import certify
from coneq.core import (
    _gram,
    _norm,
    _pseudo_unitarity_residual,
    _trial_keys,
    _trial_streams,
)

SIG11 = Signature(1, 1)
SIG22 = Signature(2, 2)
BATTERY = [Signature(1, 1), Signature(1, 2), Signature(2, 2),
           Signature(2, 3), Signature(3, 3)]

finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
complexes = st.builds(complex, finite, finite)


def vec(sig, *values):
    return CVector(np.array(values, dtype=complex), sig)


class TestSignature:
    def test_basic(self):
        sig = Signature(2, 3)
        assert sig.n == 5
        np.testing.assert_array_equal(sig.eta, [1, 1, -1, -1, -1])

    def test_rejects_zero_counts(self):
        with pytest.raises(ValueError):
            Signature(0, 2)
        with pytest.raises(ValueError):
            Signature(2, 0)

    def test_rejects_non_ints(self):
        with pytest.raises(TypeError):
            Signature(1.0, 1)

    def test_equality_and_hash(self):
        assert Signature(2, 3) == Signature(2, 3)
        assert Signature(2, 3) != Signature(3, 2)
        assert len({Signature(1, 1), Signature(1, 1)}) == 1


class TestCVector:
    def test_len_checked(self):
        with pytest.raises(ValueError):
            CVector(np.zeros(3), SIG11)

    def test_components_read_only(self):
        v = vec(SIG11, 1, 2)
        with pytest.raises(ValueError):
            v.components[0] = 5.0

    def test_arithmetic_results_read_only_and_unaliased(self):
        # Arithmetic wraps its fresh result without the constructor's copy.
        u = vec(SIG22, 1, 2j, 3, 4)
        w = vec(SIG22, 1j, 1, 0, 2)
        for out in (u + w, u - w, -u, u * 2.0, 2j * u, u * 1.0,
                    sample_cone_point(SIG22, 0).vector):
            assert not out.components.flags.writeable
            assert out.components.shape == (4,)
            assert out.components.dtype == np.complex128
            assert not np.shares_memory(out.components, u.components)
            assert not np.shares_memory(out.components, w.components)
            with pytest.raises(ValueError):
                out.components[0] = 5.0

    def test_fresh_arrays_wrapped_read_only(self):
        # Library results built on fresh arrays, or on views of a certified
        # read-only matrix, are wrapped as they are: n complex components
        # that no caller can write through, equal to the copying constructor's.
        from coneq import exact, quotients, suites

        for sig in (SIG11, SIG22, Signature(2, 3)):
            x = sample_cone_point(sig, 5)
            u = sample_pseudo_unitary(sig, 5)
            split = sample_split(sig, 5)
            chart = make_chart(x)
            outs = [basis_vector(sig, sig.n - 1), u.apply(x.vector),
                    *split.basis, *quotients.split_decompose(x, split)[:2],
                    *quotients.split_decompose(x)[:2],
                    exact.standard_rational_chart(sig).u.to_cvector(),
                    suites._random_vector(sig, make_rng(5))]
            if sig.p >= 2 and sig.q >= 2:
                outs.append(sample_aperp_point(chart, 5, apex_probability=0.0).vector)
            for out in outs:
                assert isinstance(out, CVector) and out.signature == sig
                assert out.components.shape == (sig.n,)
                assert out.components.dtype == np.complex128
                assert not out.components.flags.writeable
                with pytest.raises(ValueError):
                    out.components[0] = 5.0
                copied = CVector(out.components, sig).components
                assert copied.tobytes() == np.ascontiguousarray(out.components).tobytes()
            np.testing.assert_array_equal(split.matrix, u.matrix)
            with pytest.raises(SignatureMismatchError):
                u.apply(CVector(np.ones(sig.n + 1), Signature(sig.p + 1, sig.q)))

    def test_arithmetic(self):
        u = vec(SIG11, 1, 2j)
        w = vec(SIG11, 1j, 1)
        np.testing.assert_allclose((u + w).components, [1 + 1j, 1 + 2j])
        np.testing.assert_allclose((u - w).components, [1 - 1j, -1 + 2j])
        np.testing.assert_allclose((2j * u).components, [2j, -4])
        np.testing.assert_allclose((-u).components, [-1, -2j])

    def test_numpy_scalar_multiplication_preserves_type(self):
        u = vec(SIG11, 1, 1)
        out = np.complex128(2j) * u
        assert isinstance(out, CVector)
        np.testing.assert_allclose(out.components, [2j, 2j])

    def test_mismatched_signatures_rejected(self):
        a = CVector(np.ones(3), Signature(1, 2))
        b = CVector(np.ones(3), Signature(2, 1))
        with pytest.raises(SignatureMismatchError):
            a + b
        with pytest.raises(SignatureMismatchError):
            a - b

    def test_equal_signatures_need_not_be_one_object(self):
        a = CVector(np.ones(3), Signature(1, 2))
        b = CVector(np.ones(3), Signature(1, 2))
        np.testing.assert_array_equal((a + b).components, 2 * np.ones(3))
        assert form_eval(a, b) == -1.0

    def test_json_roundtrip(self):
        v = vec(SIG22, 1 + 2j, 0, -1j, 3)
        assert v.to_json() == {
            "signature": {"p": 2, "q": 2},
            "components": [[1.0, 2.0], [0.0, 0.0], [0.0, -1.0], [3.0, 0.0]],
        }


class TestFormEval:
    def test_pinned_value(self):
        # eta = diag(1, -1): (2+i)*conj(1) - 1*conj(i) = 2 + 2i
        u = vec(SIG11, 2 + 1j, 1)
        v = vec(SIG11, 1, 1j)
        assert form_eval(u, v) == 2 + 2j

    def test_null_diagonal(self):
        assert form_eval(vec(SIG11, 1, 1), vec(SIG11, 1, 1)) == 0

    def test_signature_mismatch(self):
        with pytest.raises(SignatureMismatchError):
            form_eval(vec(SIG11, 1, 1), CVector(np.ones(3), Signature(2, 1)))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(complexes, min_size=2, max_size=2),
           st.lists(complexes, min_size=2, max_size=2))
    def test_hermitian_symmetry(self, a, b):
        u, v = vec(SIG11, *a), vec(SIG11, *b)
        lhs = form_eval(v, u)
        rhs = np.conj(form_eval(u, v))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(complexes, min_size=2, max_size=2), complexes)
    def test_first_slot_linearity(self, a, c):
        u = vec(SIG11, *a)
        v = vec(SIG11, 1, 2j)
        lhs = form_eval(c * u, v)
        rhs = c * form_eval(u, v)
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))
        # conjugate-linear in the second slot
        lhs2 = form_eval(v, c * u)
        rhs2 = np.conj(c) * form_eval(v, u)
        assert abs(lhs2 - rhs2) <= 1e-9 * max(1.0, abs(rhs2))


    def test_gram_accepts_vectors_in_either_slot(self):
        sig = Signature(2, 3)
        rng = make_rng(3)
        a = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        b = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))

        def f(u, v):
            return form_eval(CVector(u, sig), CVector(v, sig))

        cases = [
            (a, b, [[f(ai, bj) for bj in b.T] for ai in a.T]),
            (a, b[:, 0], [f(ai, b[:, 0]) for ai in a.T]),
            (a[:, 0], b, [f(a[:, 0], bj) for bj in b.T]),
            (a[:, 0], b[:, 0], f(a[:, 0], b[:, 0])),
        ]
        for left, right, want in cases:
            got = _gram(left, right, sig)
            assert got.shape == np.shape(want)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)


class TestIsotropy:
    def test_positive_vector_not_isotropic(self):
        with pytest.raises(NotIsotropicError):
            ConePoint(vec(SIG11, 1, 0))

    def test_standard_null_vector(self):
        x = basis_vector(SIG22, 0) + basis_vector(SIG22, 3)
        assert ConePoint(x).isotropy_residual == 0.0

    def test_near_null_within_relative_tolerance(self):
        x = vec(SIG11, 1, 1 + 1e-12)
        assert ConePoint(x, tol=1e-9).isotropy_residual <= 1e-9
        with pytest.raises(NotIsotropicError):
            ConePoint(x, tol=1e-15)

    def test_zero_vector_rejected(self):
        with pytest.raises(DegenerateInputError):
            ConePoint(vec(SIG11, 0, 0))


class TestConePoint:
    def test_certifies_isotropy(self):
        with pytest.raises(NotIsotropicError):
            ConePoint(vec(SIG11, 1, 0))

    def test_zero_rejected(self):
        with pytest.raises(DegenerateInputError):
            ConePoint(vec(SIG11, 0, 0))

    def test_residual_recorded(self):
        x = ConePoint(vec(SIG11, 1, 1))
        assert x.isotropy_residual == 0.0
        assert x.signature == SIG11

    def test_relaxed_tolerance(self):
        v = vec(SIG11, 1, 1 + 1e-8)
        with pytest.raises(NotIsotropicError):
            ConePoint(v, tol=1e-12)
        pt = ConePoint(v, tol=1e-6)
        assert pt.isotropy_residual < 1e-7


class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_cone_point_rejected(self, bad):
        with pytest.raises(NotIsotropicError):
            ConePoint(vec(SIG11, bad, bad))
        with pytest.raises(NotIsotropicError):
            ConePoint(vec(SIG22, 1, bad, 1, 0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_split_rejected(self, bad):
        with pytest.raises(NotIsometryError):
            Split((vec(SIG11, bad, 0), vec(SIG11, 0, 1)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_group_element_rejected(self, bad):
        with pytest.raises(NotIsometryError):
            GroupElement(np.array([[bad, 0.0], [0.0, 1.0]]), SIG11)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejected_without_numpy_warnings(self, bad):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(NotIsotropicError):
                ConePoint(vec(SIG22, 1, bad, 1, 0))
            with pytest.raises(NotIsometryError):
                Split((vec(SIG11, bad, 0), vec(SIG11, 0, 1)))
            with pytest.raises(NotIsometryError):
                GroupElement(np.array([[bad, 0.0], [0.0, 1.0]]), SIG11)
        assert [str(w.message) for w in caught] == []


def _reference_residual(v):
    """The isotropy residual |S+ - S-| / (S+ + S-) from one sum per standard
    block, S = re.re + im.im, as np.linalg.norm sums a complex array."""
    p = v.signature.p
    plus, minus = (float(np.dot(b.real, b.real)) + float(np.dot(b.imag, b.imag))
                   for b in (v.components[:p], v.components[p:]))
    return abs(plus - minus) / (plus + minus)


class TestCertificateScale:
    # ||x||^2 overflows at 1e160 and 1e300 (n components of modulus ~1 times
    # the scale), is subnormal at 1e-160 and underflows to 0 at 1e-170.
    SCALES = [1e300, 1e160, 1e-160, 1e-170, 1e-300]

    @pytest.mark.parametrize("scale", SCALES)
    def test_isotropic_accepted_without_warning(self, scale):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for sig in BATTERY:
                x = sample_cone_point(sig, 3).vector
                pt = ConePoint(scale * x, tol=1e-12)
                assert pt.isotropy_residual <= 1e-14

    @pytest.mark.parametrize("scale", SCALES)
    def test_non_isotropic_rejected_without_warning(self, scale):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v = scale * vec(SIG22, 1, 0.5j, 0.2, 0)
            with pytest.raises(NotIsotropicError):
                ConePoint(v)

    @pytest.mark.parametrize("scale", [1e160, 1e-170])
    def test_mixed_scales(self, scale):
        # One huge or tiny pair beside a zero and an ordinary pair: only the
        # ratio to the largest modulus matters.
        x = vec(SIG22, scale, 1e-3 * scale, 1e-3j * scale, scale)
        assert ConePoint(x).isotropy_residual <= 1e-15

    def test_zero_and_non_finite_errors_unchanged(self):
        with pytest.raises(DegenerateInputError, match="cone points must be nonzero"):
            ConePoint(vec(SIG22, 0, 0, 0, 0))
        with pytest.raises(NotIsotropicError, match=r"\|\|x\|\|\^2 = inf is not"):
            ConePoint(vec(SIG22, 1e160, np.inf, 1, 0))
        with pytest.raises(NotIsotropicError, match=r"\|\|x\|\|\^2 = nan is not"):
            ConePoint(vec(SIG22, 1e-170, np.nan, 1, 0))

    def test_residual_bits_unchanged_at_normal_scales(self):
        for p in range(1, 6):
            for q in range(1, 6):
                sig = Signature(p, q)
                for seed in range(8):
                    x = sample_cone_point(sig, seed)
                    assert x.isotropy_residual == _reference_residual(x.vector)
                    for scale in (1e-150, 1e-20, 3.0, 1e20, 1e150):
                        v = scale * x.vector
                        assert (ConePoint(v).isotropy_residual
                                == _reference_residual(v))


class TestRng:
    def test_deterministic(self):
        a = make_rng(5).standard_normal(4)
        b = make_rng(5).standard_normal(4)
        np.testing.assert_array_equal(a, b)

    def test_paths_split_streams(self):
        a = make_rng(5, 0).standard_normal(4)
        b = make_rng(5, 1).standard_normal(4)
        assert not np.allclose(a, b)


class TestTrialKeys:
    SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 1, 2**128 + 5]
    PREFIXES = [(1, 1), (3, 3), (5, 5), (2**40, 2)]

    @pytest.mark.parametrize("prefix", PREFIXES, ids=str)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_keys_are_numpys_at_block_edges(self, seed, prefix):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            keys = _trial_keys(seed, prefix, 0, 1026)
            last = _trial_keys(seed, prefix, 2**32 - 2, 2**32)
        for k in (0, 1, 1023, 1024, 1025):
            ss = np.random.SeedSequence(seed, spawn_key=(*prefix, k))
            assert keys[k] == ss.generate_state(2, np.uint64).tolist()
        for k, key in zip((2**32 - 2, 2**32 - 1), last):
            ss = np.random.SeedSequence(seed, spawn_key=(*prefix, k))
            assert key == ss.generate_state(2, np.uint64).tolist()

    def test_streams_match_make_rng_across_blocks(self):
        want = [make_rng(2**64 + 1, 2, 3, k).standard_normal(3)
                for k in (0, 1, 1023, 1024, 1025)]
        got = [rng.standard_normal(3) for k, rng
               in enumerate(_trial_streams(2**64 + 1, (2, 3), 1026))
               if k in (0, 1, 1023, 1024, 1025)]
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("block", [0, 1])
    def test_a_flipped_key_bit_is_an_internal_error(self, monkeypatch, block):
        from coneq import core

        keys = core._trial_keys

        def flipped(seed, prefix, start, stop):
            out = keys(seed, prefix, start, stop)
            if start == max(1, block * core._KEY_BLOCK):
                out[0][1] ^= 1 << 17
            return out

        monkeypatch.setattr(core, "_trial_keys", flipped)
        with pytest.raises(InternalContractError, match="trial key"):
            for _ in _trial_streams(3, (2, 2), core._KEY_BLOCK + 2):
                pass


class TestSamplers:
    def test_cone_point_deterministic(self):
        a = sample_cone_point(SIG22, 42)
        b = sample_cone_point(SIG22, 42)
        np.testing.assert_array_equal(a.components, b.components)
        assert not np.allclose(
            a.components, sample_cone_point(SIG22, 43).components
        )

    def test_cone_point_certified(self):
        for sig in BATTERY:
            for seed in range(30):
                x = sample_cone_point(sig, seed)
                assert x.isotropy_residual <= 1e-12

    def test_pseudo_unitary_preserves_form(self):
        for sig in BATTERY:
            u = sample_pseudo_unitary(sig, 3)
            assert verify_isometry(u, tol=1e-10)
            a = sample_cone_point(sig, 1).vector
            b = sample_cone_point(sig, 2).vector
            assert abs(form_eval(u.apply(a), u.apply(b)) - form_eval(a, b)) <= 1e-9

    def test_pseudo_unitary_deterministic(self):
        a = sample_pseudo_unitary(SIG22, 9)
        b = sample_pseudo_unitary(SIG22, 9)
        np.testing.assert_array_equal(a.matrix, b.matrix)


class TestCayleySampler:
    """sample_pseudo_unitary(sig, seed) is the Cayley transform
    (I - A/2)^-1 (I + A/2) of A = eta B / ||eta B||_F, B the anti-Hermitian
    part of make_rng(seed)'s first two (n, n) normal draws as re + i im."""

    @staticmethod
    def generator(sig, seed):
        rng = make_rng(seed)
        n = sig.n
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a = sig.eta[:, None] * (g - g.conj().T) / 2.0
        return a / np.linalg.norm(a)

    def test_solves_the_cayley_system(self):
        for sig in BATTERY + [Signature(5, 5)]:
            for seed in range(10):
                a = self.generator(sig, seed)
                eye = np.eye(sig.n)
                u = sample_pseudo_unitary(sig, seed).matrix
                np.testing.assert_allclose((eye - a / 2.0) @ u, eye + a / 2.0,
                                           rtol=0, atol=1e-14)

    def test_pseudo_unitary_to_rounding(self):
        for p in range(1, 6):
            for q in range(1, 6):
                sig = Signature(p, q)
                for seed in range(50):
                    u = sample_pseudo_unitary(sig, seed).matrix
                    assert _pseudo_unitarity_residual(u, sig) <= 1e-14

    def test_zero_generator_gives_identity(self, monkeypatch):
        class Zeros:
            def standard_normal(self, shape):
                return np.zeros(shape)

        monkeypatch.setattr("coneq.core._stream", lambda seed, *path: Zeros())
        np.testing.assert_array_equal(
            sample_pseudo_unitary(SIG22, 0).matrix, np.eye(4))


# Real and imaginary parts of equal length 0-12, entries in [-1, 1].
part_pairs = st.integers(0, 12).flatmap(lambda n: st.tuples(
    hnp.arrays(np.float64, n, elements=st.floats(-1.0, 1.0)),
    hnp.arrays(np.float64, n, elements=st.floats(-1.0, 1.0))))


class TestNormKernels:
    @settings(max_examples=300, deadline=None)
    @given(part_pairs, st.booleans(), st.floats(-150.0, 150.0))
    def test_norm_matches_numpy_bit_for_bit(self, parts, complex_valued, exponent):
        re, im = parts
        a = (re + 1j * im if complex_valued else re) * 10.0**exponent
        assert type(_norm(a)) is np.float64
        # A strided view goes through numpy's ravel copy, as in linalg.norm.
        for v in (a, a[::2]):
            top = float(np.abs(v).max()) if v.size else 0.0
            if top == 0.0 or 1e-140 < top < 1e150:
                # numpy's sum of squares is in range: the same bits.
                assert _norm(v) == np.linalg.norm(v)
            else:
                # Past it numpy's sum reads 0 or inf; _norm is numpy's norm of
                # the power-of-two-balanced array, scaled back.
                s = math.ldexp(1.0, min(-math.frexp(top)[1], 1023))
                assert _norm(v) == np.linalg.norm(v * s) / s


ALL_SIGNATURES = [Signature(p, q) for p in range(1, 6) for q in range(1, 6)]


class TestKeptModulusPass:
    def test_kept_moduli_are_numpys_and_read_only(self):
        for sig in ALL_SIGNATURES:
            for seed in range(8):
                x = sample_cone_point(sig, seed)
                mods, top = x.vector._modulus_pass()
                assert mods.tobytes() == np.abs(x.components).tobytes()
                assert not mods.flags.writeable
                assert top == mods.max()
                with pytest.raises(ValueError):
                    mods[0] = 0.0

    def test_the_certificate_forms_the_pass_once(self):
        x = sample_cone_point(Signature(3, 2), 4)
        kept = x.vector.__dict__["_moduli"]
        assert x.vector._modulus_pass() is kept
        # Arithmetic makes a new vector, with a pass of its own.
        y = 2.0 * x.vector
        assert "_moduli" not in y.__dict__
        assert y._modulus_pass()[1] == 2.0 * kept[1]

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_a_non_finite_vector_has_a_non_finite_top(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            top = vec(SIG22, 1, bad, 0, 1)._modulus_pass()[1]
        assert not top < math.inf


def _same_point(got, want):
    """Bit for bit: components, isotropy residual and the kept |x_j| pass and
    block sums."""
    assert got.components.tobytes() == want.components.tobytes()
    assert got.isotropy_residual == want.isotropy_residual
    (mods, top), (want_mods, want_top) = got.vector._moduli, want.vector._moduli
    assert mods.tobytes() == want_mods.tobytes() and top == want_top
    assert not mods.flags.writeable and not got.components.flags.writeable
    assert got.vector._sums == want.vector._sums


def _position(rng):
    """A Philox generator's whole state, as plain values."""
    state = rng.bit_generator.state
    return ([v.tolist() for v in state["state"].values()], state["buffer"].tolist(),
            state["buffer_pos"], state["has_uint32"], state["uinteger"])


class _ShrinkingGenerator(np.random.Generator):
    """Philox, with the first `shrink` normals after each re-key 1e-7 times
    Philox's: the sampler's first block norm falls below 1e-6."""

    shrink = 0

    def standard_normal(self, size=None):
        out = super().standard_normal(size)
        if self.shrink and size is not None:
            k = min(self.shrink, out.size)
            out[:k] *= 1e-7
            self.shrink -= k
        return out


class TestConePointBlocks:
    """core._cone_points draws a block of trials' cone points at once:
    sample_cone_point on each trial's stream, bit for bit, rng left where the
    sampler leaves it."""

    @pytest.mark.parametrize("sig", ALL_SIGNATURES, ids=str)
    def test_block_points_are_the_samplers(self, sig):
        for seed, n in ((2**64 + 1, 1), (sig.n, core._KEY_BLOCK + 1)):
            for k, (rng, draw) in enumerate(core._trial_points(sig, seed, n)):
                want_rng = make_rng(seed, sig.p, sig.q, k)
                _same_point(draw(), sample_cone_point(sig, want_rng))
                assert _position(rng) == _position(want_rng)
            assert k == n - 1

    @pytest.mark.parametrize("sig", [SIG11, Signature(2, 3), Signature(5, 4)], ids=str)
    def test_a_rejected_block_is_drawn_again(self, sig, monkeypatch):
        keys = _trial_keys(0, (sig.p, sig.q), 0, 4)
        rekey = core._rekey

        def shrink_after(rng, key):
            rng.shrink = 2 * sig.p if key == keys[2] else 0
            return rekey(rng, key)

        monkeypatch.setattr(core, "_rekey", shrink_after)
        rng = _ShrinkingGenerator(np.random.Philox(0))
        got = [(draw(), _position(rng)) for draw in core._cone_points(sig, rng, keys)]
        for k, key in enumerate(keys):
            want_rng = shrink_after(_ShrinkingGenerator(np.random.Philox(0)), key)
            want = sample_cone_point(sig, want_rng)
            _same_point(got[k][0], want)
            assert got[k][1] == _position(want_rng)
            # Only trial 2 draws its first block twice.
            fresh = sample_cone_point(sig, rekey(np.random.Generator(np.random.Philox(0)), key))
            assert (fresh.components.tobytes() == want.components.tobytes()) == (k != 2)

    def test_a_failed_certificate_raises_in_its_draw(self, monkeypatch):
        # The constructor certifies each row from its kept sums when it is
        # drawn, so the error is the trial's and the next row still comes.
        monkeypatch.setattr(core, "certify", lambda residual, threshold, *a:
                            certify(residual, -1.0, *a))
        draws = core._cone_points(SIG22, make_rng(0), _trial_keys(0, (2, 2), 0, 2))
        with pytest.raises(NotIsotropicError) as err:
            next(draws)()
        assert err.value.threshold == -1.0
        with pytest.raises(NotIsotropicError):
            next(draws)()


class TestSamplersTakeAStream:
    """A sampler given the Generator make_rng(s) (make_rng(s, 3) for boundary
    points) draws exactly what it draws from the int seed s."""

    @pytest.mark.parametrize("sig", ALL_SIGNATURES, ids=str)
    def test_int_seed_is_its_stream(self, sig):
        chart = make_chart(sample_cone_point(sig, 99))
        for seed in (*range(10), *INT_SEEDS[2:]):
            assert (sample_cone_point(sig, make_rng(seed)).components.tobytes()
                    == sample_cone_point(sig, seed).components.tobytes())
            assert (sample_pseudo_unitary(sig, make_rng(seed)).matrix.tobytes()
                    == sample_pseudo_unitary(sig, seed).matrix.tobytes())
            split = sample_split(sig, seed)
            assert split.label == f"transported-{seed}"
            assert split.matrix.tobytes() == sample_split(sig, make_rng(seed)).matrix.tobytes()
            for apex in (0.1, 0.5):
                assert (sample_aperp_point(chart, make_rng(seed, 3), apex).components.tobytes()
                        == sample_aperp_point(chart, seed, apex).components.tobytes())

    def test_a_stream_is_drawn_from_in_place(self):
        rng = make_rng(4)
        first = sample_cone_point(SIG22, rng)
        second = sample_cone_point(SIG22, rng)
        assert not np.array_equal(first.components, second.components)
        assert np.array_equal(first.components, sample_cone_point(SIG22, 4).components)

    def test_split_label_names_an_int_seed_only(self):
        assert sample_split(SIG22, 7).label == "transported-7"
        assert sample_split(SIG22, make_rng(7)).label == "transported"
        assert np.array_equal(sample_split(SIG22, make_rng(7)).matrix,
                              sample_split(SIG22, 7).matrix)


INT_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 1, 2**128 + 5]


def _in_thread(fn, *args):
    """fn(*args) run to completion in a new thread: (result, exception)."""
    out = [None, None]

    def run():
        try:
            out[0] = fn(*args)
        except Exception as exc:  # handed back to the test to assert on
            out[1] = exc

    thread = threading.Thread(target=run)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    return out


class TestIntSeedStreams:
    """An int seed re-keys one generator per thread to make_rng(seed, *path)'s
    stream: the same state and draws, and no generator built per call."""

    @pytest.mark.parametrize("path", [(), (3,), (7,)], ids=str)
    @pytest.mark.parametrize("seed", INT_SEEDS)
    def test_state_and_draws_are_make_rngs(self, seed, path):
        for _ in range(2):  # the thread's first key, then a re-key
            want = make_rng(seed, *path)
            got = core._stream(seed, *path)
            np.testing.assert_equal(got.bit_generator.state, want.bit_generator.state)
            assert got.standard_normal(7).tobytes() == want.standard_normal(7).tobytes()
            assert got.uniform() == want.uniform()
            assert got.random(dtype=np.float32) == want.random(dtype=np.float32)

    @pytest.mark.parametrize("bad", [-1, 2.5, "7", None, np.int64(9)])
    def test_seed_coercion_and_errors_are_make_rngs(self, bad):
        try:
            want = make_rng(bad).standard_normal(3)
        except Exception as exc:
            with pytest.raises(type(exc)):
                core._stream(bad)
        else:
            assert core._stream(bad).standard_normal(3).tobytes() == want.tobytes()

    def test_interleaved_threads_get_the_sequential_samples(self):
        sig = Signature(3, 2)
        seeds = [range(0, 60), range(2**64, 2**64 + 60)]

        def draws(seeds):
            return [(sample_cone_point(sig, s).components.tobytes(),
                     sample_pseudo_unitary(sig, s).matrix.tobytes()) for s in seeds]

        want = [draws(batch) for batch in seeds]
        got = [[], []]
        turns = threading.Barrier(2, timeout=30)

        def run(t):
            for s in seeds[t]:
                turns.wait()
                got[t] += draws([s])

        # Switch threads as often as the interpreter allows, within calls too.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(t,)) for t in (0, 1)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == want

    def test_a_stream_is_this_threads_alone(self):
        # Thread A's stream, drawn from before and after thread B re-keys its
        # own generator, is make_rng's throughout.
        rng = core._stream(5)
        first = rng.standard_normal(2)
        other, exc = _in_thread(lambda: core._stream(6).standard_normal(2))
        assert exc is None
        second = rng.standard_normal(2)
        want = make_rng(5)
        assert first.tobytes() == want.standard_normal(2).tobytes()
        assert second.tobytes() == want.standard_normal(2).tobytes()
        assert other.tobytes() == make_rng(6).standard_normal(2).tobytes()

    def test_a_corrupted_hash_constant_fails_a_threads_first_key(self, monkeypatch):
        hash_b = core._HASH_B
        monkeypatch.setattr(core, "_HASH_B", (hash_b[0] ^ 1 << 9, *hash_b[1:]))
        _, exc = _in_thread(sample_cone_point, SIG22, 0)
        assert isinstance(exc, InternalContractError)
        assert "stream key" in str(exc)
        # The trial streams hash with the same constants.
        with pytest.raises(InternalContractError, match="trial key"):
            list(_trial_streams(3, (2, 2), 2))

    def test_make_rng_is_built_at_most_once_per_thread(self, monkeypatch):
        from coneq import charts

        calls = []
        real = core.make_rng

        def counting(seed, *path):
            calls.append(threading.get_ident())
            return real(seed, *path)

        chart = make_chart(sample_cone_point(SIG22, 1))
        for module in (core, charts):
            monkeypatch.setattr(module, "make_rng", counting, raising=False)

        def hundred():
            for seed in range(25):
                sample_cone_point(SIG22, seed)
                sample_pseudo_unitary(SIG22, seed)
                sample_split(SIG22, seed)
                sample_aperp_point(chart, seed)

        hundred()
        assert _in_thread(hundred) == [None, None]
        assert all(n <= 1 for n in collections.Counter(calls).values())


class TestVerifyIsometry:
    def test_identity(self):
        assert verify_isometry(GroupElement(np.eye(2), SIG11))

    def test_stretch_rejected(self):
        # Accepted at tol 4 (residual 3), rejected at the default tol.
        stretch = GroupElement(np.diag([2.0, 1.0]), SIG11, tol=4.0)
        assert not verify_isometry(stretch)
        assert verify_isometry(stretch, tol=4.0)

    def test_group_element_certifies(self):
        with pytest.raises(NotIsometryError):
            GroupElement(np.diag([2.0, 1.0]), SIG11)

    def test_apply_checks_signature(self):
        u = sample_pseudo_unitary(SIG11, 0)
        with pytest.raises(SignatureMismatchError,
                           match=r"^signature mismatch: \(1,2\) vs \(1,1\)$"):
            u.apply(CVector(np.ones(3), Signature(1, 2)))
