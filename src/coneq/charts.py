"""Witt bases at a cone point and the affine compactification chart.

Given a cone point x, a hyperbolic partner u (isotropic, f(u, x) = 1) splits
the space as  span{x, u} + M,  where M is the orthogonal complement of the
hyperbolic plane.  The chart

    kappa0(r, y) = y + u + (-f(y, y)/2 + r i) x,    y in M, r real,

parametrizes every projective class except those orthogonal to x; that
exceptional set (the orthogonal boundary stratum) is stratified into the
apex class of x itself and a generic part, classified here by normalized
coordinates.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_TOL,
    ConePoint,
    CVector,
    Signature,
    _as_vector,
    _check_same_signature,
    _gram,
    _norm,
    _owned,
    _pow2_scale,
    _pow2_scaled,
    _stream,
    _sum_sq,
    _unit,
    form_eval,
)
from .errors import (
    DegenerateInputError,
    InternalContractError,
    NotInAperpError,
    NotIsotropicError,
    UnsupportedChartError,
    UnsupportedSignatureError,
    certify,
)
from .quotients import _pivot_index, canonicalize_phase

__all__ = [
    "ChartFrame",
    "InAperp",
    "IN_APERP",
    "AperpClass",
    "extend_to_witt_basis",
    "make_chart",
    "kappa0",
    "chart_inverse",
    "is_perp",
    "aperp_classify",
    "aperp_dimension_estimate",
    "sample_aperp_point",
]


def _partner(x: ConePoint, v_hint: CVector | None) -> tuple[np.ndarray, np.ndarray]:
    """(u, u^), fresh arrays: the hyperbolic partner u of x, isotropic with
    f(u, x) = 1, from v_hint or else the standard basis vector v at the
    largest-modulus component of x (ties to the lowest index), and u^ = u / s,
    the partner of core._unit(x)'s x^ = s x.  u = v' - f(v', v') x / 2 for
    v' = v / f(v, x) is formed as w / f(v, x), w = v - f(v, v) x^ / (2 conj
    f(v, x^)), so that no 1/|f(v, x)|^2 overflows; f(v, x^) = s f(v, x)
    exactly, so w is x's own and u^ = w / f(v, x^) is u / s to the bit."""
    sig = x.signature
    xh, s, x_norm = _unit(x)
    if v_hint is None:
        # v = e_j: f(v, x^), f(v, v) and ||v|| to the bit of form_eval and
        # CVector.norm, without their loops over the zero components.
        j = int(x.vector._modulus_pass()[0].argmax())
        eta, cj = float(sig.eta[j]), complex(xh[j])
        v = np.zeros(sig.n, dtype=np.complex128)
        v[j] = 1.0
        pairing_h = complex(eta * cj.real + 0.0, 0.0 - eta * cj.imag)
        self_pairing, v_norm = complex(eta, 0.0), 1.0
    else:
        v = v_hint.components
        pairing_h = form_eval(v_hint, _owned(xh, sig))
        self_pairing, v_norm = form_eval(v_hint, v_hint), v_hint.norm()
    pairing = pairing_h / s  # f(v, x), exactly
    if abs(pairing) <= 1e-12 * v_norm * x_norm:
        raise InternalContractError(
            "candidate vector is orthogonal to x; pick a different hint"
        )
    w = v - xh * (0.5 * self_pairing / pairing_h.conjugate())
    return w * (1.0 / pairing), w * (1.0 / pairing_h)


@functools.lru_cache(maxsize=128)
def _without_column(k: int, j: int) -> tuple[np.ndarray, np.ndarray]:
    """The indices other than j in range(k), and the columns of I_k at them."""
    keep = np.flatnonzero(np.arange(k) != j)
    eye = np.eye(k)[:, keep]
    keep.flags.writeable = eye.flags.writeable = False
    return keep, eye


def _reflection_complement(a: np.ndarray, out: np.ndarray) -> None:
    """Write into out an orthonormal basis of a^perp in C^k: the columns other
    than j of the Householder reflection I - 2 v v^H / (v^H v) that maps a
    onto e_j, for the largest-modulus a_j (ties to the lowest index) and
    v = a + (a_j / |a_j|) ||a|| e_j, so that v_j does not cancel (Golub &
    Van Loan, Matrix Computations, 5.1).  A one-element block has none."""
    if a.shape[0] == 1:
        return
    mods = np.abs(a)
    j = int(mods.argmax())
    # Scale-free; a unit pivot keeps v^H v from overflow and underflow.
    v = a / mods[j]
    v[j] += v[j] * np.sqrt(np.vdot(v, v).real)
    keep, eye = _without_column(a.shape[0], j)
    np.subtract(eye, v[:, None] * v[keep].conj() * (2.0 / np.vdot(v, v).real),
                out=out)


def _frame_block(x: ConePoint, v_hint: CVector | None) -> tuple[np.ndarray, np.ndarray]:
    """(cols, u^): the chart frame at x, the partner u then an eta-orthonormal
    basis m_2, ..., m_{n-1} (positive block first) of the complement of
    span{x, u}, as columns 1: of one read-only (n, n) array, column 0 x as
    core._pow2_scaled gives it, certified on it; and _partner's read-only u^.
    Built on core._unit(x)'s x^ = s x: every product pairs O(1) numbers.

    With x = (a, b) in the standard split, u_s = (a, -b) / ||x||^2 spans with
    x a plane whose complement is a^perp + b^perp, one Householder reflection
    per block.  The Eichler transvection m -> m - f(m, w) x, w = u - u_s -
    f(u, u_s) x, fixes x, sends u_s to u and moves that complement onto the
    one of span{x, u} (Scharlau, Quadratic and Hermitian Forms, ch. 7); each
    such m is orthogonal to x and u_s, so f(m, w) x = f(m, u^) x^.
    """
    sig = x.signature
    p = sig.p
    c = _unit(x)[0]
    block = np.zeros((sig.n, sig.n), dtype=np.complex128)
    block[:, 0] = _pow2_scaled(x.components, x.vector._modulus_pass()[1])[0]
    u, uh = _partner(x, v_hint)
    block[:, 1] = u
    _reflection_complement(c[:p], block[:p, 2:p + 1])
    _reflection_complement(c[p:], block[p:, p + 1:])
    mids = block[:, 2:]
    mids -= c[:, None] * _gram(mids, uh, sig)
    block.flags.writeable = uh.flags.writeable = False
    _certify_frame(x, block)
    return block[:, 1:], uh


@functools.lru_cache(maxsize=128)
def _frame_target(sig: Signature, ux: float) -> np.ndarray:
    """[f(c_i, a_j)] a chart frame's columns c = [u, m_2, ...] must have against
    a = [x, u, m_2, ...]: f(u, x) = ux, f(m_j, m_k) = eta_jk, all else zero."""
    target = np.zeros((sig.n - 1, sig.n), dtype=np.complex128)
    target[0, 0] = ux
    target[1:, 2:] = np.diag(sig.eta[1:-1])
    target.flags.writeable = False
    return target


def _certify_frame(x: ConePoint, against: np.ndarray) -> None:
    """The chart identities of the frame [u, m_2, ...] = against[:, 1:] at x,
    each deviation relative to its norm product, else UnsupportedChartError.
    x (against[:, 0]) and u enter as core._pow2_scaled gives them, f(u, x)
    against the product of their factors: no pairing or norm over- or underflows."""
    sig = x.signature
    sx = _pow2_scale(x.vector._modulus_pass()[1])
    # max|u_j| by Python's abs, the same hypot as np.abs but faster at small n.
    us, su = _pow2_scaled(against[:, 1], max(map(abs, against[:, 1].tolist())))
    if su != 1.0:
        against = against.copy()
        against[:, 1] = us
    # np.linalg.norm(against, axis=0) and core._gram(against[:, 1:], against).
    conj = against.conj()
    norms = np.sqrt(np.add.reduce((conj * against).real, axis=0))
    gram = against[:, 1:].T @ (sig.eta[:, None] * conj)
    deviation = np.abs(gram - _frame_target(sig, sx * su)) / (norms[1:, None] * norms)
    certify(float(deviation.max()), DEFAULT_TOL, UnsupportedChartError,
            "chart identities fail by {residual:.3e}")


def extend_to_witt_basis(x: ConePoint) -> list[CVector]:
    """Basis [e_1, m_2, ..., m_{n-1}, e_n] with e_1 + e_n = x, where e_1,
    e_n span a hyperbolic plane and the m_j are eta-orthonormal (positive
    block first) and orthogonal to it: the frame of make_chart(x)."""
    chart = make_chart(x)
    return [chart.witt_plus(), *chart.mu_basis, chart.witt_minus()]


@dataclass(frozen=True, eq=False, init=False)
class ChartFrame:
    """Chart center x, hyperbolic partner u, and an eta-orthonormal basis of
    the orthogonal complement M (positive directions first), held as one
    read-only array _columns = [u, m_2, ..., m_{n-1}] that the chart maps
    multiply by; u and mu_basis are read-only CVector views of its columns,
    formed on first access and kept beside it (on x for make_chart(x))."""

    x: ConePoint
    _columns: np.ndarray

    def __init__(self, x: ConePoint, u: CVector, mu_basis: tuple[CVector, ...]):
        sig = x.signature
        mu_basis = tuple(mu_basis)
        if len(mu_basis) != sig.n - 2:
            raise UnsupportedChartError(f"need {sig.n - 2} middle vectors, got {len(mu_basis)}")
        for v in (u, *mu_basis):
            _check_same_signature(v, x)
        xs, _ = _pow2_scaled(x.components, x.vector._modulus_pass()[1])
        block = np.column_stack([xs, u.components, *(m.components for m in mu_basis)])
        block.flags.writeable = False
        _certify_frame(x, block)
        self.__dict__.update(x=x, _columns=block[:, 1:])

    def _store(self) -> dict:
        """Where data derived from the frame is kept: on x for make_chart(x)'s
        frame, so every chart wrapping it shares them, else on this chart."""
        derived = self.x._derived
        return derived if derived.get("witt", (None,))[0] is self._columns else self.__dict__

    def _views(self) -> tuple[CVector, tuple[CVector, ...]]:
        store = self._store()
        if "witt_views" not in store:
            cols, sig = self._columns, self.signature
            store["witt_views"] = (_owned(cols[:, 0], sig),
                                   tuple(_owned(m, sig) for m in cols[:, 1:].T))
        return store["witt_views"]

    def _pairing(self) -> np.ndarray:
        """eta[:, None] * conj(_columns), read-only, formed once per frame:
        v @ it is core._gram(v, _columns), the pairings [f(v, c_j)]."""
        store = self._store()
        if "witt_pairing" not in store:
            pairing = self.signature.eta[:, None] * self._columns.conj()
            pairing.flags.writeable = False
            store["witt_pairing"] = pairing
        return store["witt_pairing"]

    u = property(lambda self: self._views()[0])
    mu_basis = property(lambda self: self._views()[1])

    @property
    def signature(self) -> Signature:
        return self.x.signature

    def witt_plus(self) -> CVector:
        """e_1 = x/2 + u."""
        return 0.5 * self.x.vector + self.u

    def witt_minus(self) -> CVector:
        """e_n = x/2 - u."""
        return 0.5 * self.x.vector - self.u


def _default_frame(x: ConePoint) -> tuple[np.ndarray, np.ndarray]:
    """_frame_block(x, None), make_chart(x)'s frame, built once and kept on x."""
    kept = x._derived.get("witt")
    if kept is None:
        kept = x._derived["witt"] = _frame_block(x, None)
    return kept


def make_chart(x: ConePoint, v_hint: CVector | None = None) -> ChartFrame:
    """Witt extension of x, with the partner u that v_hint sets (_partner),
    packaged as a chart frame built by one array pass and certified once.
    The default frame (no hint) is kept on x (_default_frame), and later
    calls wrap it without running the chart check again."""
    cols = (_default_frame(x) if v_hint is None else _frame_block(x, v_hint))[0]
    chart = object.__new__(ChartFrame)
    chart.__dict__.update(x=x, _columns=cols)
    return chart


def _unit_pair(x: ConePoint) -> tuple[np.ndarray, np.ndarray]:
    """(x^, u^) = (s x, u / s) for core._unit(x)'s s and make_chart(x)'s
    partner u, read-only: f(u^, x^) = 1, both of norm O(1) at every scale."""
    return _unit(x)[0], _default_frame(x)[1]


def kappa0(chart: ChartFrame, r: float, y_coords) -> ConePoint:
    """Isotropic representative y + u + (-f(y,y)/2 + r i) x of the chart
    point (r, y), f(y, y) from y's block sums, not the coordinates (a frame's
    middles are eta-orthonormal only to 1e-9); certified with f(kappa0,
    kappa0) = 0 and f(x, kappa0) = 1 at tolerance 1e-10, relative to
    ||kappa0||^2 and to ||x|| ||kappa0|| (at least 1 by Cauchy-Schwarz), as
    the rounding grows like |y|^2.  A non-finite r or y, or an f(y, y) or r
    for which beta x would overflow, raises NotIsotropicError before kappa0 is formed."""
    sig = chart.signature
    coords = np.asarray(y_coords, dtype=np.complex128).reshape(-1)
    if coords.shape != (sig.n - 2,):
        raise ValueError(f"expected {sig.n - 2} chart coordinates, got {coords.shape[0]}")
    r = float(r)
    if not (math.isfinite(r) and np.isfinite(coords).all()):
        raise NotIsotropicError(f"chart point r = {r}, y = {coords} is not finite")
    y = chart._columns[:, 1:] @ coords
    x_norm = _unit(chart.x)[2]
    ys, s = _pow2_scaled(y, max(map(abs, y.tolist())))
    fyy = (_sum_sq(ys[:sig.p]) - _sum_sq(ys[sig.p:])) / s / s
    beta = complex(-0.5 * fyy, r)
    # |beta x_j| <= (|Re beta| + |Im beta|) ||x||; twice that bound finite
    # leaves room to add y + u, whose entries are below sqrt(|f(y, y)|).
    if not math.isfinite((abs(beta.real) + abs(beta.imag)) * 2.0 * x_norm):
        raise NotIsotropicError(
            f"chart point r = {r}, y = {coords}: f(y, y) = {fyy:.6g} puts "
            f"(-f(y, y)/2 + r i) x past the float range")
    vec = y + chart._columns[:, 0] + chart.x.components * beta
    out = ConePoint(_owned(vec, sig), tol=1e-10)
    pairing = form_eval(chart.x.vector, out.vector)
    plus, minus, s = out.vector._block_sums()
    certify(abs(pairing - 1.0) / (x_norm * (math.sqrt(plus + minus) / s)), 1e-10,
            InternalContractError,
            "chart normalization f(x, kappa0) = {pairing:.15g} != 1", pairing=pairing)
    return out


def _balanced(vec: CVector) -> CVector:
    """vec as core._pow2_scaled gives it, top from vec's kept modulus pass:
    the same class, on which pairings and norms neither overflow nor
    underflow.  A zero or non-finite vec has no class: DegenerateInputError."""
    top = vec._modulus_pass()[1]
    if not 0.0 < top < np.inf:
        raise DegenerateInputError(f"need a nonzero finite vector, max|v_j| = {top}")
    comps, s = _pow2_scaled(vec.components, top)
    return vec if s == 1.0 else _owned(comps, vec.signature)


def is_perp(a, b, tol: float = DEFAULT_TOL) -> bool:
    """Whether |f(a, b)| <= tol * ||a|| * ||b||; independent of the chosen
    representatives of either class, at every finite scale of each."""
    av = _balanced(_as_vector(a))
    bv = _balanced(_as_vector(b))
    return abs(form_eval(av, bv)) <= tol * av.norm() * bv.norm()


@dataclass(frozen=True)
class InAperp:
    """Sentinel result: the requested class is orthogonal to the chart
    center, hence outside the chart's range."""

    def to_json(self) -> dict:
        return {"result": "InAperp"}


IN_APERP = InAperp()


def _frame_coords(chart: ChartFrame, v: np.ndarray) -> tuple[complex, np.ndarray]:
    """f(v, u) and the coordinates eta_j f(v, m_j) along mu_basis, v an array."""
    pairings = v @ chart._pairing()
    return complex(pairings[0]), chart.signature.eta[1:-1] * pairings[1:]


def chart_inverse(chart: ChartFrame, b, tol: float = DEFAULT_TOL):
    """Chart coordinates (r, y) of the class of b, y along mu_basis, or
    IN_APERP when b is orthogonal to the chart center at tolerance.

    The recovered data satisfy Re f(b', u) = -f(y, y)/2 for b' = b / f(b, x);
    the deviation equals f(b', b')/2, so it is re-verified relative to
    ||b'||^2.  A rescale of b by 2^k keeps every bit of the result.
    """
    bv = _balanced(_as_vector(b))
    pairing = form_eval(bv, chart.x.vector)
    plus, minus, s = bv._block_sums()
    b_norm = math.sqrt(plus + minus) / s
    if abs(pairing) <= tol * b_norm * _unit(chart.x)[2]:
        return IN_APERP
    beta, y = _frame_coords(chart, bv.components * (1.0 / pairing))
    # ||b'|| = ||b|| / |f(b, x)| reaches 1e154 on a chart centred near ||x|| =
    # 1e-154: the drift is summed on y s, s = _pow2_scale(||b'||), over (||b'|| s)^2.
    ys, s = _pow2_scaled(y, bp_norm := b_norm / abs(pairing))
    fyy = float(np.add.reduce(chart.signature.eta[1:-1] * np.abs(ys) ** 2))
    certify(abs(beta.real * s * s + 0.5 * fyy) / (s * bp_norm) ** 2, 1e-6,
            InternalContractError,
            "recovered Re(beta) deviates from -f(y,y)/2 by {residual:.3e} "
            "relative to ||b'||^2")
    return float(beta.imag), y


@dataclass(frozen=True, eq=False)
class AperpClass:
    """Normalized invariants of a boundary class.

    Apex: the class of the chart center itself (alpha normalized to 1, no
    middle coordinates).  Generic: middle coordinates rescaled so each block
    has unit norm, with a joint phase gauge fixed by the largest-modulus
    middle entry; alpha transforms covariantly under both normalizations.
    """

    kind: str
    alpha: complex
    plus_coords: np.ndarray
    minus_coords: np.ndarray

    def to_json(self) -> dict:
        out = {"kind": self.kind,
               "alpha": [self.alpha.real, self.alpha.imag]}
        if self.kind == "Generic":
            out["plus"] = [[c.real, c.imag] for c in self.plus_coords]
            out["minus"] = [[c.real, c.imag] for c in self.minus_coords]
        return out


def aperp_classify(chart: ChartFrame, b, tol: float = DEFAULT_TOL) -> AperpClass:
    """Classify a boundary point as the apex class or a generic class.

    b must be isotropic and orthogonal to the chart center.  Coordinates are
    taken in the Witt basis of the chart: b = alpha x + sum_j m_j mu_j.
    """
    bv = _balanced(_as_vector(b))
    xv = chart.x.vector
    if not is_perp(bv, xv, tol):
        raise NotInAperpError(
            "point is not orthogonal to the chart center at tolerance"
        )
    alpha, m = _frame_coords(chart, bv.components)
    total = np.sqrt(abs(alpha) ** 2 + float(np.sum(np.abs(m) ** 2)))
    if total == 0.0:
        raise NotInAperpError("zero coordinates in the boundary chart")
    p1 = chart.signature.p - 1
    if _norm(m) <= tol * total:
        return AperpClass("Apex", 1.0 + 0.0j, m[:p1] * 0.0, m[p1:] * 0.0)
    s_plus = float(_norm(m[:p1]) ** 2)
    s_minus = float(_norm(m[p1:]) ** 2)
    s = np.sqrt((s_plus + s_minus) / 2.0)
    m = m / s
    alpha = alpha / s
    mags = np.abs(m)
    pivot = _pivot_index(mags, mags.max())
    gauge = m[pivot] / abs(m[pivot])
    m = m * np.conj(gauge)
    alpha = alpha * np.conj(gauge)
    return AperpClass("Generic", complex(alpha), m[:p1], m[p1:])


def _boundary_point(chart: ChartFrame, alpha: complex, mp, mm) -> ConePoint:
    """alpha x + sum_j m_j mu_j, with the negative block mm rescaled to the
    norm of the positive block mp so that the point is isotropic."""
    mm = mm * (_norm(mp) / _norm(mm))
    mids = chart._columns[:, 1:] @ np.concatenate([mp, mm])
    return ConePoint(_owned(alpha * chart.x.components + mids, chart.signature))


def sample_aperp_point(chart: ChartFrame, seed: int | np.random.Generator,
                       apex_probability: float = 0.1) -> ConePoint:
    """Isotropic sample orthogonal to the chart center.

    With probability apex_probability the sample is a multiple of the center
    (the apex class); otherwise the middle blocks are drawn complex-normal
    and the negative block is rescaled to restore isotropy.  Signatures with
    p = 1 or q = 1 only admit apex points.  An int seed draws from
    make_rng(seed, 3); a Generator is drawn from in place.
    """
    sig = chart.signature
    rng = _stream(seed, 3)
    alpha = rng.standard_normal() + 1j * rng.standard_normal()
    apex_only = sig.p < 2 or sig.q < 2
    if apex_only or rng.uniform() < apex_probability:
        return ConePoint(alpha * chart.x.vector)
    p1, q1 = sig.p - 1, sig.q - 1
    mp = rng.standard_normal(p1) + 1j * rng.standard_normal(p1)
    mm = rng.standard_normal(q1) + 1j * rng.standard_normal(q1)
    while _norm(mp) < 1e-3 or _norm(mm) < 1e-3:
        mp = rng.standard_normal(p1) + 1j * rng.standard_normal(p1)
        mm = rng.standard_normal(q1) + 1j * rng.standard_normal(q1)
    return _boundary_point(chart, alpha, mp, mm)


def aperp_dimension_estimate(chart: ChartFrame, seed: int = 0,
                             step: float = 1e-5) -> int:
    """Numerical dimension of the generic boundary stratum.

    Builds the parametrization (alpha, middle coordinates) -> canonical
    projective representative at a random base point, differentiates it by
    central differences, and returns the rank of the Jacobian (singular
    values above 1e-6 of the largest).
    """
    sig = chart.signature
    if sig.p < 2 or sig.q < 2:
        raise UnsupportedSignatureError(
            "generic boundary stratum is empty when p or q is 1"
        )
    n = sig.n
    p1 = sig.p - 1
    rng = _stream(seed, 7)
    dim = 2 + 2 * (n - 2)

    def embed(params: np.ndarray) -> np.ndarray:
        alpha = params[0] + 1j * params[1]
        m = params[2::2] + 1j * params[3::2]
        rep = canonicalize_phase(_boundary_point(chart, alpha, m[:p1], m[p1:]))
        return np.concatenate([rep.components.real, rep.components.imag])

    base = rng.standard_normal(dim)
    while (_norm(base[2 : 2 + 2 * p1]) < 0.3
           or _norm(base[2 + 2 * p1 :]) < 0.3):
        base = rng.standard_normal(dim)
    jac = np.zeros((2 * n, dim))
    for k in range(dim):
        up = base.copy()
        up[k] += step
        down = base.copy()
        down[k] -= step
        jac[:, k] = (embed(up) - embed(down)) / (2.0 * step)
    sv = np.linalg.svd(jac, compute_uv=False)
    if sv[0] == 0.0:
        return 0
    return int(np.sum(sv > 1e-6 * sv[0]))
