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
    _pow2_scale,
    basis_vector,
    form_eval,
    make_rng,
)
from .errors import (
    DegenerateInputError,
    InternalContractError,
    NotInAperpError,
    UnsupportedChartError,
    UnsupportedSignatureError,
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
    vec = x.vector
    if v_hint is not None:
        v = v_hint
    else:
        j = int(np.argmax(np.abs(vec.components)))
        v = basis_vector(x.signature, j)
    pairing = form_eval(v, vec)
    if abs(pairing) <= 1e-12 * v.norm() * vec.norm():
        raise InternalContractError(
            "candidate vector is orthogonal to x; pick a different hint"
        )
    shift = 0.5 * form_eval(v, v) / pairing.conjugate()
    return (v - shift * vec) * (1.0 / pairing)


def _reflection_complement(a: np.ndarray) -> np.ndarray:
    """Orthonormal basis of a^perp in C^k: the columns other than j of the
    Householder reflection I - 2 v v^H / (v^H v) that maps a onto e_j, for
    the largest-modulus a_j (ties to the lowest index) and
    v = a + (a_j / |a_j|) ||a|| e_j, so that v_j does not cancel (Golub &
    Van Loan, Matrix Computations, 5.1)."""
    mods = np.abs(a)
    j = int(np.argmax(mods))
    # Scale-free; a unit pivot keeps v^H v from overflow and underflow.
    v = a / mods[j]
    v[j] += v[j] * np.sqrt(np.vdot(v, v).real)
    keep = np.arange(a.shape[0]) != j
    return (np.eye(a.shape[0])[:, keep]
            - np.outer(v, v[keep].conj()) * (2.0 / np.vdot(v, v).real))


def _middles(x: ConePoint, u: CVector) -> list[CVector]:
    """Eta-orthonormal basis (positive block first) of the orthogonal
    complement of the hyperbolic plane span{x, u}.

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
    mids = np.zeros((sig.n, sig.n - 2), dtype=np.complex128)
    mids[:p, :p - 1] = _reflection_complement(c[:p])
    mids[p:, p - 1:] = _reflection_complement(c[p:])
    mids -= c[:, None] * _gram(mids, u.components, sig)
    return [CVector(m, sig) for m in mids.T]


def extend_to_witt_basis(x: ConePoint) -> list[CVector]:
    """Basis [e_1, m_2, ..., m_{n-1}, e_n] with e_1 + e_n = x, where e_1,
    e_n span a hyperbolic plane and the m_j are eta-orthonormal (positive
    block first) and orthogonal to it: the frame of make_chart(x)."""
    chart = make_chart(x)
    return [chart.witt_plus(), *chart.mu_basis, chart.witt_minus()]


@dataclass(frozen=True, eq=False)
class ChartFrame:
    """Chart center x, hyperbolic partner u, and an eta-orthonormal basis of
    the orthogonal complement M (positive directions first)."""

    x: ConePoint
    u: CVector
    mu_basis: tuple[CVector, ...]

    def __post_init__(self):
        object.__setattr__(self, "mu_basis", tuple(self.mu_basis))
        sig = self.x.signature
        if len(self.mu_basis) != sig.n - 2:
            raise UnsupportedChartError(
                f"need {sig.n - 2} middle vectors, got {len(self.mu_basis)}"
            )
        for v in (self.u, *self.mu_basis):
            _check_same_signature(v, self.x)
        # Columns u, m_2, ..., m_{n-1}, which the chart maps multiply by.
        cols = np.column_stack([self.u.components]
                               + [m.components for m in self.mu_basis])
        cols.flags.writeable = False
        object.__setattr__(self, "_columns", cols)
        # f(u, x) = 1, f(m_j, m_k) = eta, all other pairings vanish; each
        # deviation is taken relative to its norm product, so that the
        # check does not depend on the scale of x.
        target = np.zeros((sig.n - 1, sig.n), dtype=np.complex128)
        target[0, 0] = 1.0
        target[1:, 2:] = np.diag(sig.eta[1:-1])
        against = np.column_stack([self.x.components, cols])
        norms = np.linalg.norm(against, axis=0)
        deviation = (np.abs(_gram(cols, against, sig) - target)
                     / np.outer(norms[1:], norms))
        worst = float(deviation.max())
        if not worst <= DEFAULT_TOL:
            raise UnsupportedChartError(
                f"chart identities fail by {worst:.3e}",
                residual=worst, threshold=DEFAULT_TOL,
            )

    @property
    def signature(self) -> Signature:
        return self.x.signature

    def witt_plus(self) -> CVector:
        """e_1 = x/2 + u."""
        return 0.5 * self.x.vector + self.u

    def witt_minus(self) -> CVector:
        """e_n = x/2 - u."""
        return 0.5 * self.x.vector - self.u

    def to_json(self) -> dict:
        return {
            "signature": self.signature.to_json(),
            "x": self.x.vector.to_json()["components"],
            "u": self.u.to_json()["components"],
            "mu_basis": [m.to_json()["components"] for m in self.mu_basis],
        }


def make_chart(x: ConePoint, v_hint: CVector | None = None) -> ChartFrame:
    """Witt extension of x, with partner hyperbolic_partner(x, v_hint),
    packaged as a chart frame.

    The default frame (no hint) is built and certified once per point: its
    partner, middles and read-only columns are kept on x, and later calls
    wrap them without running the chart check again."""
    if v_hint is None and "witt" in x._derived:
        return _certified_chart(x, *x._derived["witt"])
    u = hyperbolic_partner(x, v_hint)
    chart = ChartFrame(x, u, tuple(_middles(x, u)))
    if v_hint is None:
        x._derived["witt"] = (chart.u, chart.mu_basis, chart._columns)
    return chart


def _certified_chart(x: ConePoint, u: CVector, mu_basis: tuple[CVector, ...],
                     columns: np.ndarray) -> ChartFrame:
    """ChartFrame on data that already passed its chart check at x, made
    without running the check again."""
    chart = object.__new__(ChartFrame)
    object.__setattr__(chart, "x", x)
    object.__setattr__(chart, "u", u)
    object.__setattr__(chart, "mu_basis", mu_basis)
    object.__setattr__(chart, "_columns", columns)
    return chart


def _coords_to_vector(chart: ChartFrame, y_coords) -> CVector:
    sig = chart.signature
    coords = np.asarray(y_coords, dtype=np.complex128).reshape(-1)
    if coords.shape != (sig.n - 2,):
        raise ValueError(
            f"expected {sig.n - 2} chart coordinates, got {coords.shape[0]}"
        )
    return CVector(chart._columns[:, 1:] @ coords, sig)


def kappa0(chart: ChartFrame, r: float, y_coords) -> ConePoint:
    """Isotropic representative y + u + (-f(y,y)/2 + r i) x of the chart
    point (r, y); certified with f(kappa0, kappa0) = 0 and f(x, kappa0) = 1
    at tolerance 1e-10, relative to ||kappa0||^2 and to ||x|| ||kappa0||
    (at least 1 by Cauchy-Schwarz), since the rounding grows like |y|^2."""
    y = _coords_to_vector(chart, y_coords)
    beta = complex(-0.5 * form_eval(y, y).real, float(r))
    vec = y + chart.u + beta * chart.x.vector
    out = ConePoint(vec, tol=1e-10)
    pairing = form_eval(chart.x.vector, out.vector)
    if abs(pairing - 1.0) > 1e-10 * chart.x.vector.norm() * vec.norm():
        raise InternalContractError(
            f"chart normalization f(x, kappa0) = {pairing:.15g} != 1",
            residual=abs(pairing - 1.0) / (chart.x.vector.norm() * vec.norm()),
            threshold=1e-10,
        )
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
    if abs(pairing) <= tol * bv.norm() * xv.norm():
        return IN_APERP
    bp = bv * (1.0 / pairing)
    beta, y = _frame_coords(chart, bp)
    fyy = float(np.add.reduce(chart.signature.eta[1:-1] * np.abs(y) ** 2))
    drift = abs(beta.real + 0.5 * fyy) / bp.norm() ** 2
    if drift > 1e-6:
        raise InternalContractError(
            f"recovered Re(beta) deviates from -f(y,y)/2 by {drift:.3e} "
            "relative to ||b'||^2",
            residual=drift, threshold=1e-6,
        )
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
