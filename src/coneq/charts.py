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
    form_eval,
    make_rng,
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
from .quotients import ProjRep, Split, _pivot_index, canonicalize_phase

__all__ = [
    "ChartFrame",
    "InAperp",
    "IN_APERP",
    "AperpClass",
    "hyperbolic_partner",
    "extend_to_witt_basis",
    "make_chart",
    "kappa0",
    "kappa",
    "chart_inverse",
    "is_perp",
    "aperp_classify",
    "aperp_dimension_estimate",
    "sample_aperp_point",
]


def hyperbolic_partner(x: ConePoint, v_hint: CVector | None = None) -> CVector:
    """Isotropic u with f(u, x) = 1, spanning a hyperbolic plane with x.

    Starts from v_hint, or else from the standard basis vector at the
    largest-modulus component of x (ties to the lowest index); normalizes
    v' = v / f(v, x) and returns u = v' - f(v', v') x / 2, computed as
    (v - f(v, v) x / (2 conj f(v, x))) / f(v, x) so that no 1/|f(v, x)|^2
    overflows when x is small.
    """
    return _owned(_partner(x, v_hint), x.signature)


def _partner(x: ConePoint, v_hint: CVector | None) -> np.ndarray:
    """The components of hyperbolic_partner(x, v_hint), as a fresh array."""
    vec = x.vector
    c = vec.components
    if v_hint is None:
        # v = e_j: f(v, x), f(v, v) and ||v|| to the bit of form_eval and
        # CVector.norm, without their loops over the zero components.
        j = int(np.argmax(np.abs(c)))
        eta, cj = float(x.signature.eta[j]), complex(c[j])
        v = np.zeros(c.shape[0], dtype=np.complex128)
        v[j] = 1.0
        pairing = complex(eta * cj.real + 0.0, 0.0 - eta * cj.imag)
        self_pairing, v_norm = complex(eta, 0.0), 1.0
    else:
        v = v_hint.components
        pairing = form_eval(v_hint, vec)
        self_pairing, v_norm = form_eval(v_hint, v_hint), v_hint.norm()
    if abs(pairing) <= 1e-12 * v_norm * vec.norm():
        raise InternalContractError(
            "candidate vector is orthogonal to x; pick a different hint"
        )
    shift = 0.5 * self_pairing / pairing.conjugate()
    return (v - c * shift) * (1.0 / pairing)


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
    Van Loan, Matrix Computations, 5.1)."""
    mods = np.abs(a)
    j = int(np.argmax(mods))
    # Scale-free; a unit pivot keeps v^H v from overflow and underflow.
    v = a / mods[j]
    v[j] += v[j] * np.sqrt(np.vdot(v, v).real)
    keep, eye = _without_column(a.shape[0], j)
    np.subtract(eye, v[:, None] * v[keep].conj() * (2.0 / np.vdot(v, v).real),
                out=out)


def _frame_block(x: ConePoint, v_hint: CVector | None) -> np.ndarray:
    """The chart frame at x as one read-only (n, n - 1) array: the partner
    hyperbolic_partner(x, v_hint), then an eta-orthonormal basis m_2, ...,
    m_{n-1} (positive block first) of the orthogonal complement of the
    hyperbolic plane span{x, u}.

    Write x = (a, b) in the standard split.  The partner u_s = (a, -b) /
    ||x||^2 spans with x a plane whose complement is a^perp + b^perp, with
    one Householder reflection per block.  The Eichler transvection that
    fixes x and sends u_s to u moves that complement onto the one of
    span{x, u}: m -> m - f(m, w) x, with w = u - u_s - f(u, u_s) x
    (Scharlau, Quadratic and Hermitian Forms, ch. 7).  Each such m is
    orthogonal to x and u_s, so f(m, w) = f(m, u).
    """
    sig = x.signature
    p = sig.p
    c = x.components
    cols = np.zeros((sig.n, sig.n - 1), dtype=np.complex128)
    u = _partner(x, v_hint)
    cols[:, 0] = u
    _reflection_complement(c[:p], cols[:p, 1:p])
    _reflection_complement(c[p:], cols[p:, p:])
    mids = cols[:, 1:]
    mids -= c[:, None] * _gram(mids, u, sig)
    cols.flags.writeable = False
    return cols


@functools.lru_cache(maxsize=128)
def _frame_target(sig: Signature) -> np.ndarray:
    """[f(c_i, a_j)] that a chart frame's columns c = [u, m_2, ...] must have
    against a = [x, u, m_2, ...]: f(u, x) = 1, f(m_j, m_k) = eta_jk, and
    every other pairing zero."""
    target = np.zeros((sig.n - 1, sig.n), dtype=np.complex128)
    target[0, 0] = 1.0
    target[1:, 2:] = np.diag(sig.eta[1:-1])
    target.flags.writeable = False
    return target


def _certify_frame(x: ConePoint, cols: np.ndarray) -> None:
    """The chart identities of the frame columns cols = [u, m_2, ...] at x,
    each deviation relative to its norm product, so that the check does not
    depend on the scale of x: UnsupportedChartError otherwise."""
    sig = x.signature
    against = np.column_stack((x.components, cols))
    # np.linalg.norm(against, axis=0), without the wrapper's dispatch.
    norms = np.sqrt(np.add.reduce((against.conj() * against).real, axis=0))
    deviation = (np.abs(_gram(cols, against, sig) - _frame_target(sig))
                 / (norms[1:, None] * norms))
    certify(float(deviation.max()), DEFAULT_TOL, UnsupportedChartError,
            "chart identities fail by {residual:.3e}")


def _frame_views(cols: np.ndarray, sig: Signature) -> tuple:
    """(u, mu_basis, cols): read-only CVector views of the frame columns."""
    return (_owned(cols[:, 0], sig),
            tuple(_owned(m, sig) for m in cols[:, 1:].T), cols)


def extend_to_witt_basis(x: ConePoint) -> list[CVector]:
    """Basis [e_1, m_2, ..., m_{n-1}, e_n] with e_1 + e_n = x, where e_1,
    e_n span a hyperbolic plane and the m_j are eta-orthonormal (positive
    block first) and orthogonal to it: the frame of make_chart(x)."""
    chart = make_chart(x)
    return [chart.witt_plus(), *chart.mu_basis, chart.witt_minus()]


@dataclass(frozen=True, eq=False)
class ChartFrame:
    """Chart center x, hyperbolic partner u, and an eta-orthonormal basis of
    the orthogonal complement M (positive directions first).

    u and mu_basis are views of one read-only (n, n - 1) array of columns
    [u, m_2, ..., m_{n-1}], which the chart maps multiply by."""

    x: ConePoint
    u: CVector
    mu_basis: tuple[CVector, ...]

    def __post_init__(self):
        sig = self.x.signature
        mu_basis = tuple(self.mu_basis)
        if len(mu_basis) != sig.n - 2:
            raise UnsupportedChartError(
                f"need {sig.n - 2} middle vectors, got {len(mu_basis)}"
            )
        for v in (self.u, *mu_basis):
            _check_same_signature(v, self.x)
        cols = np.column_stack([self.u.components]
                               + [m.components for m in mu_basis])
        cols.flags.writeable = False
        _certify_frame(self.x, cols)
        _set_frame(self, *_frame_views(cols, sig))

    @property
    def signature(self) -> Signature:
        return self.x.signature

    def witt_plus(self) -> CVector:
        """e_1 = x/2 + u."""
        return 0.5 * self.x.vector + self.u

    def witt_minus(self) -> CVector:
        """e_n = x/2 - u."""
        return 0.5 * self.x.vector - self.u


def _set_frame(chart: ChartFrame, u: CVector, mu_basis: tuple[CVector, ...],
               cols: np.ndarray) -> None:
    object.__setattr__(chart, "u", u)
    object.__setattr__(chart, "mu_basis", mu_basis)
    object.__setattr__(chart, "_columns", cols)


def make_chart(x: ConePoint, v_hint: CVector | None = None) -> ChartFrame:
    """Witt extension of x, with partner hyperbolic_partner(x, v_hint),
    packaged as a chart frame.

    Hinted and default frames are built by one array pass and certified
    once.  The default frame (no hint) is kept on x, and later calls wrap
    it without running the chart check again."""
    frame = x._derived.get("witt") if v_hint is None else None
    if frame is None:
        cols = _frame_block(x, v_hint)
        _certify_frame(x, cols)
        frame = _frame_views(cols, x.signature)
        if v_hint is None:
            x._derived["witt"] = frame
    chart = object.__new__(ChartFrame)
    object.__setattr__(chart, "x", x)
    _set_frame(chart, *frame)
    return chart


def kappa0(chart: ChartFrame, r: float, y_coords) -> ConePoint:
    """Isotropic representative y + u + (-f(y,y)/2 + r i) x of the chart
    point (r, y); certified with f(kappa0, kappa0) = 0 and f(x, kappa0) = 1
    at tolerance 1e-10, relative to ||kappa0||^2 and to ||x|| ||kappa0||
    (at least 1 by Cauchy-Schwarz), since the rounding grows like |y|^2.
    A non-finite r or y raises NotIsotropicError before any arithmetic."""
    sig = chart.signature
    coords = np.asarray(y_coords, dtype=np.complex128).reshape(-1)
    if coords.shape != (sig.n - 2,):
        raise ValueError(
            f"expected {sig.n - 2} chart coordinates, got {coords.shape[0]}"
        )
    r = float(r)
    if not (math.isfinite(r) and np.isfinite(coords).all()):
        raise NotIsotropicError(f"chart point r = {r}, y = {coords} is not finite")
    y = _owned(chart._columns[:, 1:] @ coords, sig)
    beta = complex(-0.5 * form_eval(y, y).real, r)
    vec = y + chart.u + beta * chart.x.vector
    out = ConePoint(vec, tol=1e-10)
    pairing = form_eval(chart.x.vector, out.vector)
    certify(abs(pairing - 1.0) / (chart.x.vector.norm() * vec.norm()), 1e-10,
            InternalContractError,
            "chart normalization f(x, kappa0) = {pairing:.15g} != 1", pairing=pairing)
    return out


def kappa(chart: ChartFrame, r: float, y_coords, split: Split | None = None) -> ProjRep:
    """Projective chart map: the canonical class of kappa0(r, y)."""
    return canonicalize_phase(kappa0(chart, r, y_coords), split)


def _balanced(vec: CVector) -> CVector:
    """vec times core._pow2_scale(max|vec_j|): the same class, on which
    pairings and norms neither overflow nor underflow.  A zero or non-finite
    vec has no class: DegenerateInputError."""
    top = float(np.abs(vec.components).max())
    if not 0.0 < top < np.inf:
        raise DegenerateInputError(f"need a nonzero finite vector, max|v_j| = {top}")
    s = _pow2_scale(top)
    return vec if s == 1.0 else vec * s


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


def _frame_coords(chart: ChartFrame, v: CVector) -> tuple[complex, np.ndarray]:
    """f(v, u) and the coordinates eta_j f(v, m_j) of v along mu_basis."""
    sig = chart.signature
    pairings = _gram(v.components, chart._columns, sig)
    return complex(pairings[0]), sig.eta[1:-1] * pairings[1:]


def chart_inverse(chart: ChartFrame, b, tol: float = DEFAULT_TOL):
    """Chart coordinates (r, y) of the class of b, or IN_APERP when b is
    orthogonal to the chart center at tolerance.

    y is returned as the coefficient vector along mu_basis.  The recovered
    data satisfy Re f(b', u) = -f(y, y)/2 for the rescaled representative
    b' with f(b', x) = 1; that identity is re-verified relative to
    ||b'||^2, since the deviation Re f(b', u) + f(y, y)/2 equals
    f(b', b')/2 and so grows like ||b'||^2.  A rescale of b by 2^k keeps
    every bit of the result.
    """
    bv = _balanced(_as_vector(b))
    xv = chart.x.vector
    pairing = form_eval(bv, xv)
    b_norm = bv.norm()
    if abs(pairing) <= tol * b_norm * xv.norm():
        return IN_APERP
    bp = bv * (1.0 / pairing)
    beta, y = _frame_coords(chart, bp)
    # ||b'|| = ||b|| / |f(b, x)| reaches 1e154 on a chart centred near
    # ||x|| = 1e-154; the drift is then summed on b' times _pow2_scale(||b'||).
    s = _pow2_scale(b_norm / abs(pairing))
    drift, ys, bs = ((beta.real, y, bp) if s == 1.0
                     else (beta.real * s * s, y * s, bp * s))
    fyy = float(np.add.reduce(chart.signature.eta[1:-1] * np.abs(ys) ** 2))
    certify(abs(drift + 0.5 * fyy) / bs.norm() ** 2, 1e-6, InternalContractError,
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
    alpha, m = _frame_coords(chart, bv)
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
    pivot = _pivot_index(m)
    gauge = m[pivot] / abs(m[pivot])
    m = m * np.conj(gauge)
    alpha = alpha * np.conj(gauge)
    return AperpClass("Generic", complex(alpha), m[:p1], m[p1:])


def _boundary_point(chart: ChartFrame, alpha: complex, mp, mm) -> ConePoint:
    """alpha x + sum_j m_j mu_j, with the negative block mm rescaled to the
    norm of the positive block mp so that the point is isotropic."""
    mm = mm * (_norm(mp) / _norm(mm))
    mids = chart._columns[:, 1:] @ np.concatenate([mp, mm])
    return ConePoint(CVector(alpha * chart.x.components + mids, chart.signature))


def sample_aperp_point(chart: ChartFrame, seed: int,
                       apex_probability: float = 0.1) -> ConePoint:
    """Deterministic isotropic sample orthogonal to the chart center.

    With probability apex_probability the sample is a multiple of the center
    (the apex class); otherwise the middle blocks are drawn complex-normal
    and the negative block is rescaled to restore isotropy.  Signatures with
    p = 1 or q = 1 only admit apex points.
    """
    sig = chart.signature
    rng = make_rng(seed, 3)
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
    rng = make_rng(seed, 7)
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
