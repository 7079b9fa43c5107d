import warnings

import numpy as np
import pytest

from coneq import (
    IN_APERP,
    charts,
    core,
    ChartFrame,
    ConePoint,
    CVector,
    DegenerateInputError,
    InternalContractError,
    NotInAperpError,
    NotIsotropicError,
    Signature,
    UnsupportedChartError,
    UnsupportedSignatureError,
    aperp_classify,
    aperp_dimension_estimate,
    basis_vector,
    canonicalize_phase,
    chart_inverse,
    extend_to_witt_basis,
    form_eval,
    is_perp,
    kappa0,
    make_chart,
    make_rng,
    proj_equivalent,
    sample_aperp_point,
    sample_cone_point,
)
from coneq.core import _pow2_scale

SIG11 = Signature(1, 1)
SIG22 = Signature(2, 2)
ALL_SIGNATURES = [Signature(p, q) for p in range(1, 6) for q in range(1, 6)]


def vec(sig, *values):
    return CVector(np.array(values, dtype=complex), sig)


def null22():
    return ConePoint(basis_vector(SIG22, 0) + basis_vector(SIG22, 3))


class TestHyperbolicPartner:
    def test_pinned_example(self):
        u = make_chart(null22()).u
        np.testing.assert_array_equal(u.components, [0.5, 0, 0, -0.5])

    def test_contract_at_sampled_points(self):
        for sig in (SIG11, Signature(1, 2), SIG22, Signature(3, 2)):
            for seed in range(10):
                x = sample_cone_point(sig, seed)
                u = make_chart(x).u
                assert abs(form_eval(u, u)) <= 1e-12 * u.norm() ** 2
                assert abs(form_eval(u, x.vector) - 1.0) <= 1e-12

    def test_complex_pivot(self):
        u = make_chart(ConePoint(vec(SIG11, 1j, 1))).u
        np.testing.assert_allclose(u.components, [0.5j, -0.5], atol=1e-15)

    def test_explicit_hint(self):
        x = null22()
        u = make_chart(x, v_hint=basis_vector(SIG22, 3)).u
        assert abs(form_eval(u, u)) <= 1e-14
        assert abs(form_eval(u, x.vector) - 1.0) <= 1e-14

    def test_orthogonal_hint_rejected(self):
        with pytest.raises(InternalContractError):
            make_chart(null22(), v_hint=basis_vector(SIG22, 1))


class TestWittBasis:
    def test_standard_point_gives_standard_basis(self):
        basis = extend_to_witt_basis(null22())
        assert len(basis) == 4
        np.testing.assert_array_equal(
            np.column_stack([v.components for v in basis]), np.eye(4)
        )

    def test_gram_is_eta_in_witt_order(self):
        for sig in (Signature(1, 2), Signature(2, 2), Signature(3, 2)):
            x = sample_cone_point(sig, 9)
            basis = extend_to_witt_basis(x)
            # order: e_1 (+), middle positives, middle negatives, e_n (-)
            signs = [1.0] + [1.0] * (sig.p - 1) + [-1.0] * (sig.q - 1) + [-1.0]
            gram = np.array([[form_eval(a, b) for b in basis] for a in basis])
            np.testing.assert_allclose(gram, np.diag(signs), atol=1e-9)

    def test_reconstructs_x_and_u(self):
        x = sample_cone_point(SIG22, 5)
        basis = extend_to_witt_basis(x)
        np.testing.assert_allclose(
            (basis[0] + basis[-1]).components, x.components, atol=1e-12
        )
        u = make_chart(x).u
        np.testing.assert_allclose(
            (0.5 * (basis[0] - basis[-1])).components, u.components, atol=1e-12
        )

    def test_minimal_dimension_has_no_middles(self):
        basis = extend_to_witt_basis(ConePoint(vec(SIG11, 1, 1)))
        assert len(basis) == 2

    def test_is_the_chart_frame_bit_for_bit(self):
        for sig in (SIG11, Signature(1, 3), SIG22, Signature(3, 2),
                    Signature(5, 5)):
            for seed in range(5):
                x = sample_cone_point(sig, seed)
                chart = make_chart(x)
                frame = [chart.witt_plus(), *chart.mu_basis,
                         chart.witt_minus()]
                basis = extend_to_witt_basis(x)
                assert len(basis) == len(frame)
                for v, f in zip(basis, frame):
                    assert v.components.tobytes() == f.components.tobytes()


class TestChartFrame:
    def test_make_chart_standard(self):
        chart = make_chart(null22())
        np.testing.assert_array_equal(chart.u.components, [0.5, 0, 0, -0.5])
        assert len(chart.mu_basis) == 2
        np.testing.assert_array_equal(chart.witt_plus().components, [1, 0, 0, 0])
        np.testing.assert_array_equal(chart.witt_minus().components, [0, 0, 0, 1])

    @pytest.mark.parametrize("p", range(1, 6))
    @pytest.mark.parametrize("q", range(1, 6))
    def test_default_frame_pinned_at_standard_center(self, p, q):
        # At x = e_1 + e_n, u = (e_1 - e_n)/2 and the middles are the
        # standard axes e_2 ... e_{n-1}, to the bit (signed zeros included).
        sig = Signature(p, q)
        n = sig.n
        chart = make_chart(ConePoint(basis_vector(sig, 0)
                                     + basis_vector(sig, n - 1)))
        u = np.zeros(n, dtype=complex)
        u[0], u[-1] = 0.5, -0.5
        assert chart.u.components.tobytes() == u.tobytes()
        mids = chart._columns[:, 1:]
        assert mids.tobytes() == np.eye(n, dtype=complex)[:, 1:-1].tobytes()

    def test_no_middles_in_dimension_two(self):
        chart = make_chart(ConePoint(vec(SIG11, 1, 1)))
        assert chart.mu_basis == ()

    def test_validates_identities(self):
        x = null22()
        good_mids = tuple(basis_vector(SIG22, j) for j in (1, 2))
        with pytest.raises(UnsupportedChartError):
            ChartFrame(x, basis_vector(SIG22, 0), good_mids)  # u not isotropic
        with pytest.raises(UnsupportedChartError):
            ChartFrame(x, make_chart(x).u, good_mids[:1])

    def test_hint_sets_the_partner(self):
        x = sample_cone_point(SIG22, 3)
        hint = basis_vector(SIG22, 1) + 0.3 * basis_vector(SIG22, 2)
        chart = make_chart(x, v_hint=hint)
        np.testing.assert_array_equal(
            chart.u.components, _reference_partner(x, hint).components
        )

    def test_scale_covariant(self):
        x = sample_cone_point(Signature(3, 3), 5)
        base = make_chart(x)
        for k in range(-8, 9):
            scaled = ConePoint(10.0**k * x.vector)
            chart = make_chart(scaled)
            np.testing.assert_array_equal(
                chart.u.components, _reference_partner(scaled).components
            )
            for m, m0 in zip(chart.mu_basis, base.mu_basis):
                np.testing.assert_allclose(m.components, m0.components,
                                           atol=1e-12)

    @pytest.mark.parametrize("scale", [1e-153, 1e154])
    def test_builds_near_the_ends_of_the_float_range(self, scale):
        # ||x||^2 is 1e-306 or 1e308 here; no pairing may overflow.
        for sig in (SIG11, SIG22, Signature(3, 3), Signature(5, 5)):
            for seed in range(5):
                x = sample_cone_point(sig, seed)
                x = ConePoint((scale / x.vector.norm()) * x.vector)
                chart = make_chart(x)
                assert len(chart.mu_basis) == sig.n - 2
                assert len(extend_to_witt_basis(x)) == sig.n

    def test_perturbed_middle_rejected_at_every_scale(self):
        x = sample_cone_point(Signature(3, 3), 5)
        base = make_chart(x)
        mids = list(base.mu_basis)
        mids[0] = mids[0] * (1.0 + 1e-6)
        for k in range(-8, 9):
            with pytest.raises(UnsupportedChartError):
                ChartFrame(ConePoint(10.0**k * x.vector), base.u * 10.0**-k,
                           mids)

    def test_transported_center(self):
        chart = make_chart(sample_cone_point(Signature(2, 3), 20))
        assert chart.signature == Signature(2, 3)
        assert len(chart.mu_basis) == 3


def _reference_partner(x, v_hint=None):
    """Reference partner in CVector arithmetic, from v = v_hint or the
    standard basis vector at the largest-modulus component of x."""
    vec = x.vector
    if v_hint is None:
        v = basis_vector(x.signature, int(np.argmax(np.abs(vec.components))))
    else:
        v = v_hint
    pairing = form_eval(v, vec)
    shift = 0.5 * form_eval(v, v) / pairing.conjugate()
    return (v - shift * vec) * (1.0 / pairing)


def _reference_reflection_complement(a):
    mods = np.abs(a)
    j = int(np.argmax(mods))
    v = a / mods[j]
    v[j] += v[j] * np.sqrt(np.vdot(v, v).real)
    keep = np.arange(a.shape[0]) != j
    return (np.eye(a.shape[0])[:, keep]
            - np.outer(v, v[keep].conj()) * (2.0 / np.vdot(v, v).real))


def _reference_frame(x, v_hint=None):
    """Reference frame (u, middles, columns), built one CVector per middle
    and restacked into the columns."""
    sig, p, c = x.signature, x.signature.p, x.components
    u = _reference_partner(x, v_hint)
    mids = np.zeros((sig.n, sig.n - 2), dtype=np.complex128)
    mids[:p, :p - 1] = _reference_reflection_complement(c[:p])
    mids[p:, p - 1:] = _reference_reflection_complement(c[p:])
    mids -= c[:, None] * (mids.T @ (sig.eta * u.components.conj()))
    middles = [CVector(m, sig) for m in mids.T]
    cols = np.column_stack([u.components] + [m.components for m in middles])
    return u, middles, cols


class TestFrameMatchesReference:
    """The array builder writes the same bits, signed zeros included, as
    the per-vector reference construction, for default and hinted charts
    and for the ChartFrame constructor."""

    @staticmethod
    def centres(sig, seed):
        x = sample_cone_point(sig, seed)
        yield x
        yield ConePoint(1j * x.vector)
        # Real and imaginary components with exact zeros in the other part.
        rng = make_rng(seed, 13)
        a, b = rng.standard_normal(sig.p), rng.standard_normal(sig.q)
        real = np.concatenate([a / np.linalg.norm(a), b / np.linalg.norm(b)])
        yield ConePoint(CVector(real.astype(complex), sig))
        yield ConePoint(CVector(real * 1j, sig))

    @staticmethod
    def assert_same_frame(chart, reference):
        u, middles, cols = reference
        assert chart._columns.tobytes() == cols.tobytes()
        assert chart.u.components.tobytes() == u.components.tobytes()
        assert len(chart.mu_basis) == len(middles)
        for m, ref in zip(chart.mu_basis, middles):
            assert m.components.tobytes() == ref.components.tobytes()

    @pytest.mark.parametrize("p", range(1, 6))
    @pytest.mark.parametrize("q", range(1, 6))
    def test_bit_for_bit(self, p, q):
        sig = Signature(p, q)
        for seed in range(10):
            rng = make_rng(seed, 12)
            hint = CVector(rng.standard_normal(sig.n)
                           + 1j * rng.standard_normal(sig.n), sig)
            for x in self.centres(sig, seed):
                reference = _reference_frame(x)
                self.assert_same_frame(make_chart(x), reference)
                # Served again from the point.
                self.assert_same_frame(make_chart(x), reference)
                self.assert_same_frame(
                    ChartFrame(x, reference[0], reference[1]), reference)
                self.assert_same_frame(make_chart(x, hint),
                                       _reference_frame(x, hint))

    def test_frame_vectors_are_read_only_views(self):
        chart = make_chart(sample_cone_point(Signature(3, 2), 1))
        for v in (chart.u, *chart.mu_basis):
            assert np.shares_memory(v.components, chart._columns)
            with pytest.raises(ValueError):
                v.components[0] = 0.0


def _frame_rows(vectors):
    """charts._default_frames's inputs for a list of vectors: the stacked
    components, their moduli and max|x_j| per row."""
    x = np.array([v.components for v in vectors])
    mods = np.abs(x)
    return x, mods, mods.max(axis=1)


class TestFrameBlocks:
    """charts._default_frames builds a block of rows' default chart frames
    at once: per kept row core._unit(x) and _frame_block(x, None) on a fresh
    ConePoint, bit for bit; a row it leaves (None) is built on the object path."""

    @staticmethod
    def assert_object_frame(kept, vector):
        x = ConePoint(vector)
        cols, uh = charts._frame_block(x, None)
        xh, s, x_norm = core._unit(x)
        (got_cols, got_uh), (got_xh, got_s, got_norm) = kept["witt"], kept["unit"]
        assert got_cols.shape == cols.shape and got_cols.tobytes() == cols.tobytes()
        assert got_uh.tobytes() == uh.tobytes() and got_xh.tobytes() == xh.tobytes()
        assert (type(got_s), type(got_norm)) == (float, float)
        assert (got_s, got_norm) == (s, x_norm)
        assert not (got_cols.flags.writeable or got_uh.flags.writeable
                    or got_xh.flags.writeable)

    @pytest.mark.parametrize("sig", ALL_SIGNATURES, ids=str)
    def test_block_frames_are_the_object_paths(self, sig):
        # The rows run_suite gives it, a block of 1,024 then one: every row of
        # the first is kept and read as make_chart's frame, and the last, below
        # the crossover, is left to the object path.  Then the kernel itself
        # on a one-row block.
        for k, (_, draw) in enumerate(core._trial_points(sig, sig.n, core._KEY_BLOCK + 1,
                                                         charts._default_frames)):
            x = draw()
            if k == core._KEY_BLOCK:
                assert x._derived == {}
                continue
            assert set(x._derived) == {"unit", "witt"}
            self.assert_object_frame(x._derived, x.vector)
            assert make_chart(x)._columns is x._derived["witt"][0]
        x = sample_cone_point(sig, make_rng(2**64 + 1, sig.p, sig.q, 0)).vector
        (kept,) = charts._default_frames(sig, *_frame_rows([x]))
        self.assert_object_frame(kept, x)

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
        for kept, v in zip(charts._default_frames(sig, *_frame_rows(vectors)), vectors):
            self.assert_object_frame(kept, v)

    @pytest.mark.parametrize("sig", [SIG22, Signature(2, 3), Signature(5, 5)], ids=str)
    def test_rows_out_of_range_or_uncertified_are_left_to_the_object_path(self, sig):
        vectors = [sample_cone_point(sig, seed).vector for seed in range(6)]
        # ||x||^2 below 1e-290, max|x_j| below 1e-153 and above 1e150: the
        # object path builds these frames on its scale rule.
        for k, lam in ((1, 1e-150), (2, 2.0**-600), (3, 1e151)):
            vectors[k] = lam * vectors[k]
        # Isotropic to about 1e-6 only: the chart identities fail.
        off = vectors[4].components.copy()
        off[0] += 1e-5 * abs(off[0])
        vectors[4] = CVector(off, sig)
        frames = charts._default_frames(sig, *_frame_rows(vectors))
        assert [k for k, kept in enumerate(frames) if kept is None] == [1, 2, 3, 4]
        for k in (0, 5):
            self.assert_object_frame(frames[k], vectors[k])
        for k in (1, 2, 3):
            assert make_chart(ConePoint(vectors[k]))._columns.shape == (sig.n, sig.n - 1)
        with pytest.raises(UnsupportedChartError):
            make_chart(ConePoint(vectors[4], tol=1e-4))


def _reference_kappa0(chart, r, y_coords):
    """kappa0 in CVector arithmetic, f(y, y) = S+ - S- from y's standard
    blocks, each summed re.re + im.im on y times the power of two of the
    scale rule."""
    sig = chart.signature
    coords = np.asarray(y_coords, dtype=np.complex128).reshape(-1)
    y = CVector(chart._columns[:, 1:] @ coords, sig)
    s = _pow2_scale(float(np.abs(y.components).max()))
    ys = y.components * s
    plus, minus = (float(np.dot(b.real, b.real)) + float(np.dot(b.imag, b.imag))
                   for b in (ys[:sig.p], ys[sig.p:]))
    beta = complex(-0.5 * ((plus - minus) / s / s), float(r))
    vec = y + chart.u + beta * chart.x.vector
    out = ConePoint(vec, tol=1e-10)
    pairing = form_eval(chart.x.vector, out.vector)
    assert abs(pairing - 1.0) / (chart.x.vector.norm() * vec.norm()) <= 1e-10
    return out


def _reference_chart_inverse(chart, b, tol=1e-9):
    """chart_inverse in CVector arithmetic: b at a power-of-two scale, b'
    = b / f(b, x), its frame pairings, and the drift summed at the scale of
    ||b'||."""
    sig = chart.signature
    bv = b.vector if isinstance(b, ConePoint) else b
    s = _pow2_scale(float(np.abs(bv.components).max()))
    if s != 1.0:
        bv = bv * s
    xv = chart.x.vector
    pairing = form_eval(bv, xv)
    b_norm = bv.norm()
    if abs(pairing) <= tol * b_norm * xv.norm():
        return IN_APERP
    bp = bv * (1.0 / pairing)
    pairings = bp.components @ (sig.eta[:, None] * chart._columns.conj())
    beta, y = complex(pairings[0]), sig.eta[1:-1] * pairings[1:]
    s = _pow2_scale(b_norm / abs(pairing))
    drift, ys, bs = ((beta.real, y, bp) if s == 1.0
                     else (beta.real * s * s, y * s, bp * s))
    fyy = float(np.add.reduce(sig.eta[1:-1] * np.abs(ys) ** 2))
    assert abs(drift + 0.5 * fyy) / bs.norm() ** 2 <= 1e-6
    return float(beta.imag), y


class TestChartMapsMatchReference:
    """kappa0 and chart_inverse write the same bits, signed zeros included,
    as the CVector reference: at every signature up to (5,5), for b rescaled
    by 2^k, |k| <= 1000, and for b on or near the boundary stratum."""

    @staticmethod
    def assert_same_point(got, want):
        assert got.components.tobytes() == want.components.tobytes()
        assert got.isotropy_residual == want.isotropy_residual

    @staticmethod
    def assert_same_coords(chart, b, tol=1e-9):
        want = _reference_chart_inverse(chart, b, tol)
        got = chart_inverse(chart, b, tol)
        if want is IN_APERP:
            assert got is IN_APERP
            return
        assert np.float64(got[0]).tobytes() == np.float64(want[0]).tobytes()
        assert got[1].tobytes() == want[1].tobytes()

    @pytest.mark.parametrize("p", range(1, 6))
    @pytest.mark.parametrize("q", range(1, 6))
    def test_bit_for_bit(self, p, q):
        sig = Signature(p, q)
        k = sig.n - 2
        for seed in range(3):
            rng = make_rng(seed, 14)
            chart = make_chart(sample_cone_point(sig, seed))
            for scale in (1e-6, 1.0, 1e6):
                r = float(scale * rng.standard_normal())
                y = scale * (rng.standard_normal(k) + 1j * rng.standard_normal(k))
                out = kappa0(chart, r, y)
                self.assert_same_point(out, _reference_kappa0(chart, r, y))
                self.assert_same_coords(chart, out, tol=0.0)
            b = sample_cone_point(sig, seed + 20).vector
            for e in (-1000, -999, -500, -1, 0, 1, 500, 999, 1000):
                self.assert_same_coords(chart, CVector(b.components * 2.0**e, sig))
            # On the boundary stratum, and near it, where ||b'|| is large.
            self.assert_same_coords(chart, sample_aperp_point(chart, seed))
            self.assert_same_coords(chart, chart.x)
            self.assert_same_coords(chart, chart.x.vector + 1e-10 * chart.u, tol=0.0)
            self.assert_same_coords(chart, kappa0(chart, 1e12, np.full(k, 1 + 1j)),
                                    tol=0.0)


class TestKappa:
    def test_pinned_value(self):
        out = kappa0(make_chart(null22()), 2.0, [1.0, 0.0])
        np.testing.assert_allclose(out.components, [2j, 1, 0, -1 + 2j],
                                   atol=1e-15)

    def test_two_dimensional_formula(self):
        chart = make_chart(ConePoint(vec(SIG11, 1, 1)))
        out = kappa0(chart, 3.0, [])
        np.testing.assert_allclose(out.components, [0.5 + 3j, -0.5 + 3j],
                                   atol=1e-15)

    def test_origin_maps_to_partner(self):
        chart = make_chart(null22())
        out = kappa0(chart, 0.0, [0.0, 0.0])
        np.testing.assert_allclose(out.components, chart.u.components,
                                   atol=1e-15)

    def test_output_certified(self):
        chart = make_chart(sample_cone_point(Signature(2, 3), 2))
        rng = np.random.default_rng(0)
        for _ in range(25):
            y = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            out = kappa0(chart, float(rng.standard_normal()), y)
            assert out.isotropy_residual <= 1e-10
            assert abs(form_eval(chart.x.vector, out.vector) - 1.0) <= 1e-10

    def test_certified_at_every_scale(self):
        # The rounding of f(x, kappa0) grows like |y|^2; the certificate is
        # relative to ||x|| ||kappa0||, so it holds from |y| = 1e-8 to 1e8.
        chart = make_chart(sample_cone_point(Signature(3, 3), 5))
        y = np.array([1.0, 1j, 0.5, -1.0])
        for k in range(-8, 9):
            out = kappa0(chart, 0.5, 10.0**k * y)
            assert out.isotropy_residual <= 1e-10

    @pytest.mark.parametrize("eps", [1e-10, 3e-10])
    def test_kappa0_on_frames_within_the_constructor_tolerance(self, eps):
        # ChartFrame certifies its middles to 1e-9 and kappa0 its output to
        # 1e-10: f(y, y) from the ambient y holds on every accepted frame,
        # where the coordinate sum eta_j |c_j|^2 assumes exact orthonormality.
        accepted = 0
        for p in (2, 3, 5):
            sig = Signature(p, p)
            k = sig.n - 2
            for seed in range(20):
                x = sample_cone_point(sig, seed)
                base = make_chart(x)
                rng = make_rng(seed, 31)
                mids = [m * (1.0 + eps * rng.standard_normal()) for m in base.mu_basis]
                try:
                    chart = ChartFrame(x, base.u, mids)
                except UnsupportedChartError:
                    continue
                accepted += 1
                for size in (1e-8, 1.0, 1e4, 1e8):
                    y = rng.standard_normal(k) + 1j * rng.standard_normal(k)
                    y *= size / np.linalg.norm(y)
                    out = kappa0(chart, float(rng.standard_normal()) * size * size, y)
                    assert out.isotropy_residual <= 1e-10
        assert accepted >= 40

    def test_an_isotropic_y_past_the_square_range_maps(self):
        # |y_j|^2 overflows on each block, but f(y, y) = 0 exactly: the block
        # sums are taken at the scale rule's power of two, so nothing is nan.
        chart = make_chart(null22())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = kappa0(chart, 0.5, [1e160, 1e160])
        np.testing.assert_array_equal(out.components,
                                      [0.5 + 0.5j, 1e160, 1e160, -0.5 + 0.5j])
        r, y = chart_inverse(chart, out, tol=0.0)
        assert r == 0.5
        np.testing.assert_array_equal(y, [1e160, 1e160])

    def test_wrong_coordinate_count(self):
        with pytest.raises(ValueError):
            kappa0(make_chart(null22()), 1.0, [1.0])

    def test_projective_version_matches(self):
        chart = make_chart(null22())
        rep = canonicalize_phase(kappa0(chart, 2.0, [1.0, 0.0]))
        assert proj_equivalent(rep, kappa0(chart, 2.0, [1.0, 0.0]))


class TestChartMapsReadKeptSums:
    """A kappa0 then chart_inverse round trip sums no norm: f(y, y) and the
    norms of both certificates come from block sums each ConePoint kept."""

    @pytest.mark.parametrize("sig", [SIG11, Signature(2, 3), Signature(5, 5)], ids=str)
    def test_round_trip_takes_no_norm_and_two_pairings(self, sig, monkeypatch):
        from coneq import charts, core

        calls = []
        norm, pairing = core._norm, core.form_eval

        def counted_norm(a, *top):
            calls.append("norm")
            return norm(a, *top)

        def counted_pairing(u, v):
            calls.append("form_eval")
            return pairing(u, v)

        chart = make_chart(sample_cone_point(sig, 6))
        rng = make_rng(6, 32)
        k = sig.n - 2
        y = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        for module in (core, charts):
            monkeypatch.setattr(module, "_norm", counted_norm)
            monkeypatch.setattr(module, "form_eval", counted_pairing)
        r, back = chart_inverse(chart, kappa0(chart, 0.75, y))
        # f(x, kappa0) for the normalization, f(b, x) for the inverse.
        assert calls == ["form_eval", "form_eval"]
        assert r == pytest.approx(0.75, rel=1e-12)
        np.testing.assert_allclose(back, y, rtol=1e-12)

    @pytest.mark.parametrize("sig", [SIG22, Signature(3, 2), Signature(5, 5)], ids=str)
    def test_the_frame_pairing_is_formed_once_per_chart(self, sig):
        from coneq import charts, core

        x = sample_cone_point(sig, 8)
        chart = make_chart(x)
        public = ChartFrame(x, chart.u, chart.mu_basis)
        hinted = make_chart(x, sample_cone_point(sig, 9).vector)
        for c in (chart, public, hinted):
            kept = c._pairing()
            assert not kept.flags.writeable
            for seed in range(4):
                b = sample_cone_point(sig, seed).vector
                # The same operands as core._gram, so the same bits.
                for v in (b.components, (2.0 - 1j) * b.components):
                    got = charts._frame_coords(c, v)
                    want = core._gram(v, c._columns, sig)
                    assert complex(want[0]) == got[0]
                    assert (sig.eta[1:-1] * want[1:]).tobytes() == got[1].tobytes()
                chart_inverse(c, b)
                if sig.p > 1 and sig.q > 1:
                    aperp_classify(c, sample_aperp_point(c, seed, 0.0))
            assert c._pairing() is kept
        # make_chart(x)'s pairing is kept on x and shared by every wrap of
        # its frame; a public or hinted frame keeps its own.
        assert x._derived["witt_pairing"] is chart._pairing() is make_chart(x)._pairing()
        assert public.__dict__["witt_pairing"] is public._pairing()
        assert hinted.__dict__["witt_pairing"] is hinted._pairing()
        assert "witt_pairing" not in chart.__dict__


class TestChartInverse:
    def test_pinned_roundtrip(self):
        chart = make_chart(null22())
        r, y = chart_inverse(chart, kappa0(chart, 2.0, [1.0, 0.0]))
        assert abs(r - 2.0) <= 1e-12
        np.testing.assert_allclose(y, [1.0, 0.0], atol=1e-12)

    def test_center_is_outside_range(self):
        chart = make_chart(null22())
        assert chart_inverse(chart, chart.x) is IN_APERP

    def test_perp_combination_is_outside_range(self):
        chart = make_chart(null22())
        b = ConePoint(
            basis_vector(SIG22, 1) + basis_vector(SIG22, 2)
            + 5.0 * chart.x.vector
        )
        assert chart_inverse(chart, b) is IN_APERP

    def test_representative_independent(self):
        chart = make_chart(sample_cone_point(SIG22, 13))
        out = kappa0(chart, -1.25, [0.5 - 1j, 2.0])
        r1, y1 = chart_inverse(chart, out)
        r2, y2 = chart_inverse(chart, ConePoint(3.0 * np.exp(0.4j) * out.vector))
        assert abs(r1 - r2) <= 1e-10
        np.testing.assert_allclose(y1, y2, atol=1e-10)

    def test_roundtrip_random(self):
        chart = make_chart(sample_cone_point(Signature(3, 2), 17))
        rng = np.random.default_rng(4)
        for _ in range(25):
            r = float(2.0 * rng.standard_normal())
            y = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            r_back, y_back = chart_inverse(chart, kappa0(chart, r, y))
            assert abs(r_back - r) <= 1e-9 * max(1.0, abs(r))
            np.testing.assert_allclose(y_back, y, atol=1e-9)

    def test_sentinel_json(self):
        assert IN_APERP.to_json() == {"result": "InAperp"}

    def test_near_boundary_points_are_inverted(self):
        # Far out in the chart, f(b', b')/2 = Re(beta) + f(y,y)/2 rounds to
        # about eps ||b'||^2 while beta grows only like ||b'||, so the
        # identity is judged relative to ||b'||^2.  r itself is conditioned
        # like eps r^2.
        for sig in (SIG22, Signature(3, 3)):
            chart = make_chart(sample_cone_point(sig, 5))
            y = np.full(sig.n - 2, 1.0 + 1.0j)
            for r in (1e10, 1e11, 1e12, 1e13):
                r_back, _ = chart_inverse(chart, kappa0(chart, r, y), tol=0.0)
                assert abs(r_back - r) <= 1e-14 * r**2
        x = ConePoint(vec(SIG22, 1, 1, 1, 1))
        chart = make_chart(x)
        b = ConePoint(x.vector + 1e-10 * chart.u)
        r_back, y_back = chart_inverse(chart, b, tol=0.0)
        assert r_back == 0.0
        assert np.max(np.abs(y_back)) <= 1e-5  # rounding at ||b'|| ~ 1e10


class TestChartChangeLaw:
    """Moving the partner to u' = kappa0(base, r_w, w) is a Heisenberg
    translation of the chart: (r, y) -> (r - r_w + Im f(y, w), y - w)."""

    @pytest.mark.parametrize("sig", [Signature(1, 3), SIG22, Signature(2, 5),
                                     Signature(3, 3)], ids=str)
    def test_partner_change_is_a_heisenberg_translation(self, sig):
        eta = sig.eta[1:-1]
        k = sig.n - 2
        for seed in range(20):
            rng = make_rng(seed, 11)
            x = sample_cone_point(sig, seed)
            base = make_chart(x)
            r, r_w = rng.standard_normal(2)
            y = rng.standard_normal(k) + 1j * rng.standard_normal(k)
            w = rng.standard_normal(k) + 1j * rng.standard_normal(k)
            moved = make_chart(x, kappa0(base, r_w, w).vector)
            r_got, y_got = chart_inverse(moved, kappa0(base, r, y))
            r_want = r - r_w + float(np.sum(eta * y * np.conj(w)).imag)
            scale = (1.0 + np.linalg.norm(y) + np.linalg.norm(w)) ** 2
            assert abs(r_got - r_want) <= 1e-12 * scale
            assert np.max(np.abs(y_got - (y - w))) <= 1e-12 * scale


class TestIsPerp:
    def test_self_perp_on_cone(self):
        x = null22()
        assert is_perp(x, x)

    def test_partner_not_perp(self):
        chart = make_chart(null22())
        assert not is_perp(chart.x, chart.u)

    def test_representative_mix(self):
        from coneq import canonicalize_ray

        chart = make_chart(null22())
        b = sample_aperp_point(chart, 23)
        assert is_perp(b, chart.x)
        assert is_perp(canonicalize_ray(b), canonicalize_phase(chart.x))

    @pytest.mark.parametrize("rho", [1e-4, 0.1, 10.0, 1e4])
    @pytest.mark.parametrize("sig", [SIG22, Signature(3, 3), Signature(5, 5)], ids=str)
    def test_decides_at_its_tolerance(self, sig, rho):
        # b = b0 + c u with b0 a boundary point and f(u, x) = 1, c sized so
        # that |f(b, x)| / (||b|| ||x||) = rho tol: True exactly when rho < 1,
        # for either argument at 2^-600, 1 and 2^600 times itself.
        tol = 1e-9
        for seed in range(4):
            chart = make_chart(sample_cone_point(sig, seed))
            x = chart.x.vector
            b0 = sample_aperp_point(chart, seed, apex_probability=0.0).vector
            phase = np.exp(1j * make_rng(seed).uniform(0, 2 * np.pi))
            b = b0 + complex(rho * tol * b0.norm() * x.norm() * phase) * chart.u
            ratio = abs(form_eval(b, x)) / (b.norm() * x.norm())
            assert abs(ratio / (rho * tol) - 1.0) <= 0.05
            for k in (-600, 0, 600):
                s = 2.0 ** k
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    assert is_perp(s * b, x) is (rho < 1.0)
                    assert is_perp(b, ConePoint(s * x)) is (rho < 1.0)


class TestQueriesAtEveryScale:
    # Far outside 1e-153..1e150, where ||b||^2 and the pairings with b
    # overflow or underflow unless b is brought to unit scale first.
    SCALES = [1e155, 1e200, 1e300, 1e-160, 1e-300]

    @pytest.mark.parametrize("scale", SCALES)
    def test_chart_inverse(self, scale):
        for sig in (SIG11, SIG22, Signature(3, 2)):
            for seed in range(4):
                chart = make_chart(sample_cone_point(sig, seed))
                b = sample_cone_point(sig, seed + 10)
                r, y = chart_inverse(chart, b)
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    r_got, y_got = chart_inverse(chart, ConePoint(scale * b.vector))
                assert abs(r_got - r) <= 1e-12 * max(1.0, abs(r))
                np.testing.assert_allclose(y_got, y, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("scale", SCALES)
    def test_aperp_classify(self, scale):
        for sig in (SIG11, SIG22, Signature(3, 2)):
            for seed in range(4):
                chart = make_chart(sample_cone_point(sig, seed))
                b = sample_aperp_point(chart, seed, apex_probability=0.3)
                want = aperp_classify(chart, b)
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    got = aperp_classify(chart, ConePoint(scale * b.vector))
                assert got.kind == want.kind
                assert abs(got.alpha - want.alpha) <= 1e-12 * abs(want.alpha)
                np.testing.assert_allclose(got.plus_coords, want.plus_coords,
                                           rtol=1e-12, atol=1e-12)
                np.testing.assert_allclose(got.minus_coords, want.minus_coords,
                                           rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("scale", SCALES)
    def test_is_perp(self, scale):
        for seed in range(4):
            chart = make_chart(sample_cone_point(SIG22, seed))
            x, y = chart.x, sample_cone_point(SIG22, seed + 10)
            b = sample_aperp_point(chart, seed, apex_probability=0.0)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                for s_a, s_b in ((scale, 1.0), (1.0, scale), (scale, scale)):
                    assert not is_perp(ConePoint(s_a * y.vector),
                                       ConePoint(s_b * x.vector))
                    assert is_perp(ConePoint(s_a * b.vector),
                                   ConePoint(s_b * x.vector))


class TestQueriesWithoutAClass:
    """A zero or non-finite b has no class: every chart query raises
    DegenerateInputError before any pairing, and numpy warns nothing.  A nan
    after the first component is one that max(map(abs, ...)) would skip."""

    BAD = {
        "zero": [0, 0, 0, 0],
        "inf": [1, np.inf, 0, 1],
        "nan_first": [np.nan, 1, 0, 1],
        "nan_later": [1, 0, np.nan, 1],
    }
    QUERIES = {
        "chart_inverse": lambda chart, b: chart_inverse(chart, b),
        "is_perp": lambda chart, b: is_perp(b, chart.x),
        "is_perp_second": lambda chart, b: is_perp(chart.x, b),
        "aperp_classify": lambda chart, b: aperp_classify(chart, b),
    }

    @pytest.mark.parametrize("bad", list(BAD))
    @pytest.mark.parametrize("query", list(QUERIES))
    def test_rejected(self, query, bad):
        chart = make_chart(null22())
        b = vec(SIG22, *self.BAD[bad])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateInputError):
                self.QUERIES[query](chart, b)


class TestAperpClassify:
    def test_apex_class(self):
        chart = make_chart(null22())
        cls = aperp_classify(chart, ConePoint(3j * chart.x.vector))
        assert cls.kind == "Apex"
        assert cls.alpha == 1.0 + 0.0j
        np.testing.assert_array_equal(cls.plus_coords, [0.0])
        np.testing.assert_array_equal(cls.minus_coords, [0.0])

    def test_pinned_generic_class(self):
        chart = make_chart(null22())
        b = ConePoint(
            basis_vector(SIG22, 1) + basis_vector(SIG22, 2)
            + 5.0 * chart.x.vector
        )
        cls = aperp_classify(chart, b)
        assert cls.kind == "Generic"
        assert abs(cls.alpha - 5.0) <= 1e-12
        np.testing.assert_allclose(cls.plus_coords, [1.0], atol=1e-12)
        np.testing.assert_allclose(cls.minus_coords, [1.0], atol=1e-12)

    def test_invariant_under_scalar_action(self):
        chart = make_chart(sample_cone_point(SIG22, 3))
        b = sample_aperp_point(chart, 40)
        cls = aperp_classify(chart, b)
        moved = aperp_classify(chart, ConePoint(-1.5j * b.vector))
        assert moved.kind == cls.kind
        assert abs(moved.alpha - cls.alpha) <= 1e-9
        np.testing.assert_allclose(moved.plus_coords, cls.plus_coords,
                                   atol=1e-9)
        np.testing.assert_allclose(moved.minus_coords, cls.minus_coords,
                                   atol=1e-9)

    def test_generic_normalization(self):
        chart = make_chart(sample_cone_point(Signature(2, 3), 6))
        for seed in range(40):
            b = sample_aperp_point(chart, seed, apex_probability=0.0)
            cls = aperp_classify(chart, b)
            assert cls.kind == "Generic"
            total = np.linalg.norm(cls.plus_coords) ** 2 \
                + np.linalg.norm(cls.minus_coords) ** 2
            assert abs(total - 2.0) <= 1e-9

    def test_non_perp_rejected(self):
        chart = make_chart(null22())
        with pytest.raises(NotInAperpError):
            aperp_classify(chart, basis_vector(SIG22, 0))

    def test_apex_only_signatures(self):
        chart = make_chart(sample_cone_point(Signature(1, 2), 1))
        for seed in range(15):
            cls = aperp_classify(chart, sample_aperp_point(chart, seed))
            assert cls.kind == "Apex"

    def test_json_shapes(self):
        chart = make_chart(null22())
        apex = aperp_classify(chart, chart.x).to_json()
        assert apex == {"kind": "Apex", "alpha": [1.0, 0.0]}
        generic = aperp_classify(
            chart, sample_aperp_point(chart, 2, apex_probability=0.0)
        ).to_json()
        assert set(generic) == {"kind", "alpha", "plus", "minus"}


class TestSampleAperp:
    def test_samples_lie_in_boundary(self):
        chart = make_chart(sample_cone_point(SIG22, 30))
        for seed in range(30):
            b = sample_aperp_point(chart, seed)
            assert b.isotropy_residual <= 1e-9
            assert is_perp(b, chart.x)

    def test_deterministic(self):
        chart = make_chart(null22())
        a = sample_aperp_point(chart, 5)
        b = sample_aperp_point(chart, 5)
        np.testing.assert_array_equal(a.components, b.components)


class TestStratumDimension:
    def test_dimension_four(self):
        chart = make_chart(null22())
        for seed in (1, 7, 13):
            assert aperp_dimension_estimate(chart, seed=seed) == 3

    def test_dimension_six(self):
        chart = make_chart(sample_cone_point(Signature(3, 3), 3))
        assert aperp_dimension_estimate(chart) == 7

    def test_step_robustness(self):
        chart = make_chart(null22())
        assert aperp_dimension_estimate(chart, step=1e-4) == 3
        assert aperp_dimension_estimate(chart, step=1e-6) == 3

    def test_thin_signatures_rejected(self):
        chart = make_chart(sample_cone_point(Signature(1, 2), 0))
        with pytest.raises(UnsupportedSignatureError):
            aperp_dimension_estimate(chart)


@pytest.mark.filterwarnings("error")
class TestKappa0NonFinite:
    """kappa0 rejects a non-finite r or y before any arithmetic, with the
    NotIsotropicError its output would fail, and numpy warns nothing."""

    @pytest.mark.parametrize("r, y", [(np.inf, [0, 0]), (-np.inf, [1, 0]),
                                      (1.0, [np.inf, 0]), (1.0, [0, -np.inf])])
    def test_rejected(self, r, y):
        with pytest.raises(NotIsotropicError):
            kappa0(make_chart(null22()), r, y)


@pytest.mark.filterwarnings("error")
def test_chart_inverse_near_a_tiny_centre_sums_without_overflow():
    # At a centre eps x of norm about 1e-154, b' and y reach 1e154 and f(y, y)
    # would overflow; summed at a power-of-two scale, the drift certificate
    # holds, and the coordinates are those at x scaled by 1/eps^2 and 1/eps.
    eps = 1e-154
    x = sample_cone_point(SIG22, 3)
    b = sample_cone_point(SIG22, 4)
    chart = make_chart(ConePoint(eps * x.vector))
    r, y = chart_inverse(chart, b)
    r0, y0 = chart_inverse(make_chart(x), b)
    assert r == pytest.approx(r0 / eps**2, rel=1e-9)
    np.testing.assert_allclose(y * eps, y0, rtol=1e-9)
