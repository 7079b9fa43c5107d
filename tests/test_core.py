import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coneq import (
    ConePoint,
    CVector,
    DegenerateInputError,
    DegenerateSubspaceError,
    GroupElement,
    NotIsometryError,
    NotIsotropicError,
    Signature,
    SignatureMismatchError,
    Split,
    basis_vector,
    form_eval,
    is_isotropic,
    make_rng,
    orthonormalize_indefinite,
    sample_cone_point,
    sample_pseudo_unitary,
    verify_isometry,
)
from coneq.core import _expm, _gram

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

    def test_json_roundtrip(self):
        v = vec(SIG22, 1 + 2j, 0, -1j, 3)
        back = CVector.from_json(v.to_json())
        assert back.signature == SIG22
        np.testing.assert_array_equal(back.components, v.components)


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
        assert not is_isotropic(vec(SIG11, 1, 0))

    def test_standard_null_vector(self):
        x = basis_vector(SIG22, 0) + basis_vector(SIG22, 3)
        assert is_isotropic(x)

    def test_near_null_within_relative_tolerance(self):
        x = vec(SIG11, 1, 1 + 1e-12)
        assert is_isotropic(x, tol=1e-9)
        assert not is_isotropic(x, tol=1e-15)

    def test_zero_vector_rejected(self):
        with pytest.raises(DegenerateInputError):
            is_isotropic(vec(SIG11, 0, 0))

    def test_accepts_cone_point(self):
        assert is_isotropic(ConePoint(vec(SIG11, 1, 1j)))


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
        assert not verify_isometry(np.array([[bad, 0.0], [0.0, 1.0]]), SIG11)

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
            assert not verify_isometry(np.array([[bad, 0.0], [0.0, 1.0]]),
                                       SIG11)
        assert [str(w.message) for w in caught] == []


class TestOrthonormalize:
    def test_rescales_axes(self):
        out = orthonormalize_indefinite(
            [basis_vector(SIG22, 1), 2.0 * basis_vector(SIG22, 2)], (1, 1)
        )
        np.testing.assert_array_equal(out[0].components, [0, 1, 0, 0])
        np.testing.assert_array_equal(out[1].components, [0, 0, 1, 0])

    def test_nearly_dependent_input(self):
        vectors = [vec(SIG11, 1, 0.999), vec(SIG11, 0, 1)]
        out = orthonormalize_indefinite(vectors, (1, 1))
        gram = np.array([[form_eval(a, b) for b in out] for a in out])
        np.testing.assert_allclose(gram, np.diag([1, -1]), atol=1e-9)

    def test_isotropic_pair_recovery(self):
        vectors = [vec(SIG11, 1, 1), vec(SIG11, 1, -1)]
        out = orthonormalize_indefinite(vectors, (1, 1))
        gram = np.array([[form_eval(a, b) for b in out] for a in out])
        np.testing.assert_allclose(gram, np.diag([1, -1]), atol=1e-12)

    def test_degenerate_span_rejected(self):
        vectors = [vec(SIG11, 1, 1), vec(SIG11, 2, 2)]
        with pytest.raises(DegenerateSubspaceError):
            orthonormalize_indefinite(vectors, (1, 1))
        with pytest.raises(DegenerateSubspaceError):
            orthonormalize_indefinite([vec(SIG11, 1, 1)], (1, 0))

    def test_wrong_target_count(self):
        with pytest.raises(ValueError):
            orthonormalize_indefinite([basis_vector(SIG22, 0)], (1, 1))

    def test_wrong_span_signature(self):
        with pytest.raises(DegenerateSubspaceError):
            orthonormalize_indefinite(
                [basis_vector(SIG22, 1), basis_vector(SIG22, 2)], (2, 0)
            )

    def test_empty_input(self):
        assert orthonormalize_indefinite([], (0, 0)) == []

    def test_signature_target_object(self):
        out = orthonormalize_indefinite(
            [basis_vector(SIG11, 0), basis_vector(SIG11, 1)], SIG11
        )
        assert len(out) == 2

    def test_random_spans(self):
        for sig in BATTERY:
            rng = make_rng(17, sig.p, sig.q)
            u = sample_pseudo_unitary(sig, 17 + sig.n)
            cols = [CVector(u.matrix[:, j], sig) for j in range(sig.n)]
            mix = np.eye(sig.n) + 0.25 * rng.standard_normal((sig.n, sig.n))
            mixed = [
                sum((complex(mix[i, j]) * cols[i] for i in range(sig.n)),
                    start=CVector(np.zeros(sig.n), sig))
                for j in range(sig.n)
            ]
            out = orthonormalize_indefinite(mixed, sig)
            gram = np.array([[form_eval(a, b) for b in out] for a in out])
            np.testing.assert_allclose(gram, np.diag(sig.eta), atol=1e-9)


    def test_signature_mismatch(self):
        vectors = [basis_vector(Signature(1, 3), 0), basis_vector(SIG22, 2)]
        with pytest.raises(SignatureMismatchError):
            orthonormalize_indefinite(vectors, (1, 1))

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_isotropic_pairs_recombine_exactly(self, p):
        sig = Signature(p, p)
        vectors = [basis_vector(sig, j) + s * basis_vector(sig, p + j)
                   for j in range(p) for s in (1.0, -1.0)]
        out = orthonormalize_indefinite(vectors, sig)
        gram = np.array([[form_eval(a, b) for b in out] for a in out])
        np.testing.assert_array_equal(gram, np.diag(sig.eta))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 2**32 - 1),
           st.booleans())
    def test_pseudo_unitary_mixed_spans(self, p, q, seed, isotropic):
        # The image under a pseudo-unitary U of either the isotropic pairs
        # e_j +- e_{p+j}, which reach the recombination step, or a span of
        # standard basis vectors mixed within itself.
        sig = Signature(p, q)
        rng = make_rng(seed)
        u = sample_pseudo_unitary(sig, seed).matrix
        if isotropic:
            k = min(p, q)
            pairs = np.zeros((sig.n, 2 * k))
            for j in range(k):
                pairs[j, 2 * j : 2 * j + 2] = 1.0
                pairs[p + j, 2 * j : 2 * j + 2] = (1.0, -1.0)
            span, tp, tq = u @ pairs, k, k
        else:
            k = int(rng.integers(1, sig.n + 1))
            columns = np.sort(rng.choice(sig.n, size=k, replace=False))
            tp = int(np.sum(columns < p))
            tq = k - tp
            span = u[:, columns] @ (np.eye(k) + 0.3 * rng.standard_normal((k, k)))
        out = orthonormalize_indefinite([CVector(c, sig) for c in span.T], (tp, tq))
        cols = np.column_stack([v.components for v in out])
        # Positive block first: the target Gram lists +1 before -1.
        want = np.diag([1.0] * tp + [-1.0] * tq)
        assert np.max(np.abs(_gram(cols, cols, sig) - want)) <= 1e-12
        coef = np.linalg.lstsq(cols, span, rcond=None)[0]
        resid = np.linalg.norm(cols @ coef - span, axis=0) / np.linalg.norm(span, axis=0)
        assert np.max(resid) <= 1e-10


class TestRng:
    def test_deterministic(self):
        a = make_rng(5).standard_normal(4)
        b = make_rng(5).standard_normal(4)
        np.testing.assert_array_equal(a, b)

    def test_paths_split_streams(self):
        a = make_rng(5, 0).standard_normal(4)
        b = make_rng(5, 1).standard_normal(4)
        assert not np.allclose(a, b)


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


class TestExpm:
    def test_zero_gives_identity(self):
        np.testing.assert_array_equal(_expm(np.zeros((3, 3))), np.eye(3))

    def test_rotation_block(self):
        theta = 0.7
        a = np.array([[0.0, -theta], [theta, 0.0]])
        want = np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        )
        np.testing.assert_allclose(_expm(a), want, atol=1e-14)

    def test_against_scipy(self):
        scipy_linalg = pytest.importorskip("scipy.linalg")
        rng = make_rng(11)
        for k in range(5):
            a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            np.testing.assert_allclose(
                _expm(a), scipy_linalg.expm(a), atol=1e-11
            )


class TestVerifyIsometry:
    def test_identity(self):
        assert verify_isometry(np.eye(2), SIG11)

    def test_stretch_rejected(self):
        assert not verify_isometry(np.diag([2.0, 1.0]), SIG11)

    def test_raw_matrix_needs_signature(self):
        with pytest.raises(ValueError):
            verify_isometry(np.eye(2))

    def test_group_element_certifies(self):
        with pytest.raises(NotIsometryError):
            GroupElement(np.diag([2.0, 1.0]), SIG11)

    def test_apply_checks_signature(self):
        u = sample_pseudo_unitary(SIG11, 0)
        with pytest.raises(SignatureMismatchError):
            u.apply(CVector(np.ones(3), Signature(1, 2)))

    def test_json(self):
        u = sample_pseudo_unitary(SIG11, 0)
        data = u.to_json()
        assert data["signature"] == {"p": 1, "q": 1}
        assert len(data["matrix"]) == 2 and len(data["matrix"][0]) == 2
