"""Tangent spaces of the cone, induced metrics, and the quotient cometric.

The tangent space at a cone point x is { X : Re f(X, x) = 0 }.  The real
part of the form restricted there is degenerate exactly along x, descends to
the ray quotient, and changes by lambda^2 under x -> lambda x, so the ray
quotient carries a conformal class of signature (2p-1, 2q-1).  On the
projective quadric the right object is a degenerate cometric: invert the
quotient metric and restrict to the annihilator of the phase direction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .charts import extend_to_witt_basis, make_chart
from .core import (
    DEFAULT_TOL,
    ConePoint,
    CVector,
    _gram,
    _owned,
    form_eval,
)
from .errors import (
    NondegeneracyError,
    TangencyError,
    UnsupportedFrameError,
    certify,
)
from .quotients import Split, canonicalize_ray

# Relative tolerance used when certifying that basis vectors are tangent.
TANGENCY_TOL = 1e-8

__all__ = [
    "MetricMatrix",
    "AdaptedFrame",
    "adapted_frame",
    "tangency_residual",
    "induced_metric",
    "metric_signature",
    "skew_form",
    "cotangent_metric_qtilde",
    "dualize_degenerate",
    "quotient_coefficients",
    "conformal_factor",
]


@dataclass(frozen=True, eq=False)
class MetricMatrix:
    """Real symmetric matrix of a (possibly degenerate) metric in a basis.

    signature is the triple (n_plus, n_minus, n_zero) counted at threshold
    tol * scale; radical_basis rows span the numerical kernel.  scale
    defaults to the largest |eigenvalue| but can be pinned externally, which
    matters when the matrix itself is a near-zero block of a larger object.
    """

    entries: np.ndarray
    basis_labels: tuple[str, ...]
    signature: tuple[int, int, int]
    radical_basis: np.ndarray
    scale: float

    @classmethod
    def from_entries(cls, entries, basis_labels, tol: float = DEFAULT_TOL,
                     scale: float | None = None) -> "MetricMatrix":
        e = np.array(entries, dtype=float)
        if e.ndim != 2 or e.shape[0] != e.shape[1]:
            raise ValueError(f"entries must be square, got {e.shape}")
        if not np.isfinite(e).all():
            raise ValueError("entries must be finite")
        labels = tuple(basis_labels)
        if len(labels) != e.shape[0]:
            raise ValueError("one label per basis vector required")
        # Both are formed from halves, so that no finite entry overflows;
        # halving a normal float is exact, so neither changes a bit there.
        half, half_t = e * 0.5, e.T * 0.5
        skew = 2.0 * float(np.abs(half - half_t).max()) if e.size else 0.0
        sym_scale = float(np.abs(e).max()) if e.size else 0.0
        if skew > 1e-8 * sym_scale:
            raise ValueError(f"entries deviate from symmetric by {skew:.3e}")
        e = half + half_t
        e.flags.writeable = False
        if e.size:
            evals, evecs = np.linalg.eigh(e)
        else:
            evals, evecs = np.zeros(0), np.zeros((0, 0))
        eff_scale = float(np.abs(evals).max()) if evals.size else 0.0
        if scale is not None:
            eff_scale = float(scale)
        threshold = tol * eff_scale
        n_plus = int(np.count_nonzero(evals > threshold))
        n_minus = int(np.count_nonzero(evals < -threshold))
        n_zero = e.shape[0] - n_plus - n_minus
        radical = evecs[:, np.abs(evals) <= threshold].T.copy()
        radical.flags.writeable = False
        return cls(e, labels, (n_plus, n_minus, n_zero), radical, eff_scale)

    @property
    def rank(self) -> int:
        return self.signature[0] + self.signature[1]

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def to_json(self) -> dict:
        return {
            "basis_labels": list(self.basis_labels),
            "entries": [[float(v) for v in row] for row in self.entries],
            "signature": list(self.signature),
            "radical_basis": [[float(v) for v in row] for row in self.radical_basis],
            "scale": self.scale,
        }


def metric_signature(g, tol: float = DEFAULT_TOL) -> tuple[int, int, int]:
    """Eigenvalue signs of a symmetric matrix at threshold tol * max|eig|."""
    entries = g.entries if isinstance(g, MetricMatrix) else np.asarray(g, dtype=float)
    return MetricMatrix.from_entries(
        entries, [f"v{i}" for i in range(entries.shape[0])], tol
    ).signature


@dataclass(frozen=True, eq=False)
class AdaptedFrame:
    """Witt-aligned frames at a cone point x.

    tangent_basis is {f1 = x, f2 = ix, f3 = i(e_1 - e_n)} followed by the
    middle vectors m_j, i m_j; quotient_basis drops f1 and spans the tangent
    space modulo the ray direction.
    """

    x: ConePoint
    witt_basis: tuple[CVector, ...]
    tangent_basis: tuple[CVector, ...]
    quotient_basis: tuple[CVector, ...]
    quotient_labels: tuple[str, ...]


def _quotient_columns(x: ConePoint) -> np.ndarray:
    """The adapted quotient frame [i x, i(e_1 - e_n), m_2, i m_2, ...] at x
    as the columns of one (n, 2n - 2) array, from make_chart(x)'s frame.

    f3 is formed as the difference of e_1 = x/2 + u and e_n = x/2 - u,
    with the same float operations as CVector arithmetic on the Witt basis,
    so this array equals adapted_frame(x).quotient_basis bit for bit."""
    chart_cols = make_chart(x)._columns
    xc = x.components
    u = chart_cols[:, 0]
    half = xc * complex(0.5)
    cols = np.empty((xc.shape[0], 2 * xc.shape[0] - 2), dtype=np.complex128)
    cols[:, 0] = xc * 1j
    cols[:, 1] = ((half + u) - (half - u)) * 1j
    cols[:, 2::2] = chart_cols[:, 1:]
    cols[:, 3::2] = chart_cols[:, 1:] * 1j
    return cols


def _quotient_labels(n: int) -> tuple[str, ...]:
    labels = ["f2", "f3"]
    for k in range(2, n):
        labels.extend([f"e{k}", f"ie{k}"])
    return tuple(labels)


def adapted_frame(x: ConePoint) -> AdaptedFrame:
    """Build the adapted tangent and quotient frames at x."""
    sig = x.signature
    cols = _quotient_columns(x)
    cols.flags.writeable = False
    quotient = tuple(_owned(c, sig) for c in cols.T)
    return AdaptedFrame(
        x,
        tuple(extend_to_witt_basis(x)),
        (x.vector, *quotient),
        quotient,
        _quotient_labels(sig.n),
    )


def _tangency_residuals(x: ConePoint, cols: np.ndarray) -> np.ndarray:
    """|Re f(c_j, x)| / (||c_j|| ||x||) for each column c_j of cols, zero
    for a zero column and inf, with no arithmetic on it, for a non-finite
    one: the one tangency check, bounded by TANGENCY_TOL."""
    finite = np.isfinite(cols).all(axis=0)
    if not finite.all():
        return np.where(finite, _tangency_residuals(x, np.where(finite, cols, 0)), np.inf)
    along_x = np.abs(_gram(x.components, cols, x.signature).real)
    denom = np.linalg.norm(cols, axis=0) * x.vector.norm()
    return np.divide(along_x, denom, out=np.zeros_like(along_x), where=denom > 0)


def tangency_residual(x: ConePoint, vec: CVector) -> float:
    """|Re f(X, x)| relative to the norms; zero means tangent at x."""
    return float(_tangency_residuals(x, vec.components[:, None])[0])


def _frame_gram(x: ConePoint, basis, labels) -> tuple[np.ndarray, tuple[str, ...]]:
    """Read-only Gram [Re f(v_i, v_j)] and labels of a tangent frame at x;
    raises TangencyError off the tangent space.  The default, the adapted
    quotient frame, is certified and computed once per point and kept on x."""
    if basis is None:
        if "quotient_gram" not in x._derived:
            x._derived["quotient_gram"] = (
                _tangent_gram(x, _quotient_columns(x)),
                _quotient_labels(x.signature.n),
            )
        return x._derived["quotient_gram"]
    basis = tuple(basis)
    if labels is None:
        labels = tuple(f"v{i}" for i in range(len(basis)))
    cols = np.column_stack([v.components for v in basis])
    return _tangent_gram(x, cols), labels


def _certify_tangent(x: ConePoint, cols: np.ndarray, message: str) -> None:
    """TangencyError, message formatted at the first non-tangent column's index."""
    res = _tangency_residuals(x, cols)
    index = int(np.argmax(~(res <= TANGENCY_TOL)))
    certify(float(res[index]), TANGENCY_TOL, TangencyError, message, index=index)


def _tangent_gram(x: ConePoint, cols: np.ndarray) -> np.ndarray:
    """Read-only Gram [Re f(c_i, c_j)] of the columns of cols, after
    certifying each column tangent at x (TangencyError otherwise)."""
    _certify_tangent(x, cols, "basis vector {index} has tangency residual "
                              "{residual:.3e} at x")
    gram = _gram(cols, cols, x.signature).real
    gram.flags.writeable = False
    return gram


def induced_metric(x: ConePoint, frame: str = "adapted", *,
                   basis=None, labels=None,
                   tol: float = DEFAULT_TOL) -> MetricMatrix:
    """Matrix [Re f(v_i, v_j)] of the induced metric in a tangent frame.

    frame="adapted" uses the quotient basis of the adapted frame at x (the
    metric there is nondegenerate of signature (2p-1, 2q-1)).
    frame="epsilon" is the two-dimensional case only: {i e_1, i e_n} of the
    Witt basis, where the matrix is diag(1, -1).  An explicit `basis`
    overrides the named frame, e.g. to evaluate at a transported frame or
    over the full tangent basis.
    """
    if basis is None and frame == "epsilon":
        if x.signature.n != 2:
            raise UnsupportedFrameError(
                "epsilon frame exists only in signature (1,1)"
            )
        witt = extend_to_witt_basis(x)
        basis = (1j * witt[0], 1j * witt[1])
        labels = ("eps1", "eps2")
    elif basis is None and frame != "adapted":
        raise ValueError(f"unknown frame {frame!r}")
    entries, labels = _frame_gram(x, basis, labels)
    return MetricMatrix.from_entries(entries, labels, tol)


def skew_form(x: ConePoint, vec_a: CVector, vec_b: CVector) -> float:
    """Value Im f(X, Y) of the induced skew form on tangent vectors at x."""
    _certify_tangent(x, np.column_stack([vec_a.components, vec_b.components]),
                     "skew form argument has tangency residual {residual:.3e}")
    return float(form_eval(vec_a, vec_b).imag)


def cotangent_metric_qtilde(x: ConePoint, *, basis=None, labels=None,
                            tol: float = DEFAULT_TOL) -> MetricMatrix:
    """Degenerate cometric of the projective quadric at the class of x.

    Inverts the quotient metric and restricts to the annihilator of the
    phase direction (the first quotient frame member, the class of ix).
    Rank is 2n-4 with a one-dimensional radical for n >= 3, and zero for
    n = 2; the rank threshold is pinned to the largest singular value of
    the full inverse before restriction.
    """
    gram, labels = _frame_gram(x, basis, labels)
    try:
        inverse = np.linalg.inv(gram)
        sv = np.linalg.svd(inverse, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NondegeneracyError("quotient metric is singular") from exc
    # G G^-1 = I can hold to rounding for a numerically singular G, so the
    # residual is at least kappa(G) eps; np.maximum keeps a nan from either.
    residual = float(np.maximum(np.abs(gram @ inverse - np.eye(gram.shape[0])).max(),
                                sv[0] / sv[-1] * np.finfo(float).eps))
    certify(residual, 1e-6, NondegeneracyError,
            "quotient metric inversion failed (residual {residual:.3e})")
    full_scale = float(sv[0])
    sub = inverse[1:, 1:]
    dual_labels = tuple(f"{l}*" for l in labels[1:])
    return MetricMatrix.from_entries(sub, dual_labels, tol, scale=full_scale)


def dualize_degenerate(inclusion, f1, tol: float = DEFAULT_TOL) -> MetricMatrix:
    """Degenerate dual form iota f1^{-1} iota^T on the ambient dual space.

    inclusion: real (w_dim, v_dim) matrix of full column rank embedding the
    nondegenerate piece; f1: real symmetric invertible (v_dim, v_dim) matrix.
    The result has rank v_dim and the radical is returned with it.
    """
    a = np.asarray(inclusion, dtype=float)
    f = np.asarray(f1, dtype=float)
    if a.ndim != 2:
        raise ValueError("inclusion must be a matrix")
    if not (np.isfinite(a).all() and np.isfinite(f).all()):
        raise ValueError("inclusion and f1 must be finite")
    if f.shape != (a.shape[1], a.shape[1]):
        raise ValueError("f1 must be square matching inclusion columns")
    sv = np.linalg.svd(f, compute_uv=False) if f.size else np.zeros(0)
    if f.size and sv[-1] <= tol * sv[0]:
        raise NondegeneracyError("f1 is singular at tolerance")
    dual = a @ np.linalg.inv(f) @ a.T if f.size else np.zeros((a.shape[0],) * 2)
    labels = tuple(f"w{i}*" for i in range(a.shape[0]))
    return MetricMatrix.from_entries(dual, labels, tol)


def quotient_coefficients(x: ConePoint, basis, vectors):
    """Real coefficients of `vectors` in `basis`, modulo the ray direction.

    Solves the real least-squares problem over span(basis + {x}) and drops
    the x coefficient.  Returns (coefficient matrix, relative residual);
    column k holds the coefficients of vectors[k].
    """
    def realify(v: CVector) -> np.ndarray:
        return np.concatenate([v.components.real, v.components.imag])

    cols = [realify(b) for b in basis] + [realify(x.vector)]
    a = np.column_stack(cols)
    b = np.column_stack([realify(v) for v in vectors])
    sol, _, _, _ = np.linalg.lstsq(a, b, rcond=None)
    residual = float(np.linalg.norm(a @ sol - b) / max(np.linalg.norm(b), 1e-30))
    return sol[: len(basis), :], residual


def conformal_factor(x, split_a: Split, split_b: Split):
    """Factor between the quotient metrics built from two different splits.

    Canonicalizes x with each split, builds independent adapted frames, and
    expresses one metric in the other's frame on the shared ray-quotient
    tangent space.  Returns (factor, relative residual); the two metrics
    agree up to this positive factor when the residual is small.
    """
    ray_a = canonicalize_ray(x, split_a)
    ray_b = canonicalize_ray(x, split_b)
    xa, xb = ray_a.point, ray_b.point
    g_a = _frame_gram(xa, None, None)[0]
    g_b = _frame_gram(xb, None, None)[0]
    mu = xb.vector.norm() / xa.vector.norm()
    coeffs, fit_residual = quotient_coefficients(
        xa, adapted_frame(xa).quotient_basis, adapted_frame(xb).quotient_basis
    )
    certify(fit_residual, 1e-8, TangencyError,
            "frames do not span a common quotient (residual {residual:.3e})")
    change = coeffs / mu
    inv_change = np.linalg.inv(change)
    in_frame_a = inv_change.T @ g_b @ inv_change
    num = float(np.tensordot(in_frame_a, g_a))
    den = float(np.tensordot(g_a, g_a))
    factor = num / den
    residual = float(
        np.linalg.norm(in_frame_a - factor * g_a)
        / (abs(factor) * np.linalg.norm(g_a))
    )
    return factor, residual
