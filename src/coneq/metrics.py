"""Tangent spaces of the cone, induced metrics, and the quotient cometric.

The tangent space at a cone point x is { X : Re f(X, x) = 0 }.  The real
part of the form restricted there is degenerate exactly along x, descends to
the ray quotient, and changes by lambda^2 under x -> lambda x, so the ray
quotient carries a conformal class of signature (2p-1, 2q-1).  On the
projective quadric the right object is a degenerate cometric: invert the
quotient metric and restrict to the annihilator of the phase direction.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .charts import _default_frame, _unit_pair, extend_to_witt_basis
from .core import (
    DEFAULT_TOL,
    ConePoint,
    CVector,
    Signature,
    _gram,
    _norm,
    _owned,
    _pow2_scaled,
    _unit,
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
    "quotient_basis",
    "induced_metric",
    "skew_form",
    "cotangent_metric_qtilde",
    "conformal_factor",
]


@dataclass(frozen=True, eq=False)
class MetricMatrix:
    """Real symmetric matrix of a (possibly degenerate) metric in a basis.

    signature is the triple (n_plus, n_minus, n_zero) counted at threshold
    tol * scale; radical_basis rows span the numerical kernel.  from_entries
    reads all three off the eigenvalues, with scale the largest |eigenvalue|;
    the default quotient metrics take them from their exact Gram G0 instead
    (see _quotient_gram).
    """

    entries: np.ndarray
    basis_labels: tuple[str, ...]
    signature: tuple[int, int, int]
    radical_basis: np.ndarray
    scale: float

    @classmethod
    def from_entries(cls, entries, basis_labels,
                     tol: float = DEFAULT_TOL) -> "MetricMatrix":
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
        scale = float(np.abs(evals).max()) if evals.size else 0.0
        threshold = tol * scale
        n_plus = int(np.count_nonzero(evals > threshold))
        n_minus = int(np.count_nonzero(evals < -threshold))
        n_zero = e.shape[0] - n_plus - n_minus
        radical = evecs[:, np.abs(evals) <= threshold].T.copy()
        radical.flags.writeable = False
        return cls(e, labels, (n_plus, n_minus, n_zero), radical, scale)

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


def _quotient_columns(x: ConePoint, pair: tuple | None = None) -> np.ndarray:
    """The adapted quotient frame [i x, 2i u, m_2, i m_2, ...] at x as the
    columns of one (n, 2n - 2) array, from make_chart(x)'s kept frame, with
    (x, u) = pair if given (charts._unit_pair(x): the balanced frame).  f3 =
    2iu, not e_1 - e_n = (x/2 + u) - (x/2 - u), which cancels if ||x|| >> ||u||."""
    chart_cols = _default_frame(x)[0]
    xc, uc = (x.components, chart_cols[:, 0]) if pair is None else pair
    n = chart_cols.shape[0]
    cols = np.empty((n, 2 * n - 2), dtype=np.complex128)
    cols[:, 0] = xc * 1j
    cols[:, 1] = uc * 2j
    cols[:, 2::2] = chart_cols[:, 1:]
    cols[:, 3::2] = chart_cols[:, 1:] * 1j
    return cols


@functools.lru_cache(maxsize=128)
def _quotient_labels(n: int, suffix: str = "") -> tuple[str, ...]:
    labels = ["f2", "f3"]
    for k in range(2, n):
        labels.extend([f"e{k}", f"ie{k}"])
    return tuple(label + suffix for label in labels)


def quotient_basis(x: ConePoint) -> tuple[CVector, ...]:
    """Read-only CVector views of the columns of _quotient_columns(x), the
    adapted quotient frame [ix, 2iu, m_j, i m_j] that induced_metric(x)'s
    labels name; its Gram is taken on the balanced frame (charts._unit_pair),
    which in exact arithmetic changes no entry."""
    cols = _quotient_columns(x)
    cols.flags.writeable = False
    return tuple(_owned(c, x.signature) for c in cols.T)


def _tangency_residuals(x: ConePoint, cols: np.ndarray) -> np.ndarray:
    """|Re f(c_j, x)| / (||c_j|| ||x||) for each column c_j of cols, zero
    for a zero column and inf, with no arithmetic on it, for a non-finite
    one: the one tangency check, bounded by TANGENCY_TOL.  x and each
    column enter as core._pow2_scaled gives them, which keeps the ratio, so
    no pairing or norm over- or underflows at any finite scale."""
    finite = np.isfinite(cols).all(axis=0)
    if not finite.all():
        return np.where(finite, _tangency_residuals(x, np.where(finite, cols, 0)), np.inf)
    xc, _ = _pow2_scaled(x.components, x.vector._modulus_pass()[1])
    cols, _ = _pow2_scaled(cols, np.abs(cols).max(axis=0).tolist())
    along_x = np.abs(_gram(xc, cols, x.signature).real)
    # np.linalg.norm(cols, axis=0), without the wrapper's dispatch.
    norms = np.sqrt(np.add.reduce((cols.conj() * cols).real, axis=0))
    denom = norms * float(_norm(xc))
    return np.divide(along_x, denom, out=np.zeros_like(along_x), where=denom > 0)


_BASIS_MESSAGE = "basis vector {index} has tangency residual {residual:.3e} at x"


def _certify_tangency(residuals: np.ndarray, message: str) -> None:
    """TangencyError, message formatted at the first column whose residual
    is not within TANGENCY_TOL."""
    index = int((~(residuals <= TANGENCY_TOL)).argmax())
    certify(float(residuals[index]), TANGENCY_TOL, TangencyError, message,
            index=index)


@functools.lru_cache(maxsize=128)
def _quotient_target(sig: Signature) -> np.ndarray:
    """G0 = [[0, 2], [2, 0]] + diag(eta_mid (x) (1, 1)), the Gram of the
    adapted quotient frame [ix, 2iu, m_j, i m_j] in exact arithmetic at
    every scale of x: f(x, x) = f(u, u) = 0, f(u, x) = 1, f(m_j, x) =
    f(m_j, u) = 0 and f(m_j, m_k) = eta_jk, positive middles first."""
    dim = 2 * sig.n - 2
    target = np.zeros((dim, dim))
    target[0, 1] = target[1, 0] = 2.0
    target[2:, 2:] = np.diag(np.repeat(sig.eta[1:-1], 2))
    target.flags.writeable = False
    return target


@functools.lru_cache(maxsize=128)
def _identity(dim: int) -> np.ndarray:
    """The read-only dim x dim identity, formed once per dimension."""
    eye = np.eye(dim)
    eye.flags.writeable = False
    return eye


def _g0_threshold(tol: float) -> float:
    """The largest ||G - G0||_F that _quotient_gram accepts at tol."""
    return (1.0 - 2.0 * tol) / 4.0


def _quotient_gram(x: ConePoint, tol: float,
                   cols: np.ndarray | None = None) -> tuple[np.ndarray, float]:
    """(G, delta): the read-only Gram [Re f(c_i, c_j)] of the balanced frame
    cols = _quotient_columns(x, _unit_pair(x)), symmetrized from halves, and
    delta = ||G - G0||_F, kept on x, then certified at tol:
    NondegeneracyError unless delta <= _g0_threshold(tol) = (1 - 2 tol) / 4.

    The one pairing pass also certifies tangency: column 0 is i x^ and
    f(c, i x^) = -i f(c, x^) exactly, so |Im f(c_j, c_0)| / (||c_j||
    ||c_0||) is column j's tangency residual (TangencyError).

    What the threshold fixes, with ||G - G0||_2 <= delta <= 1/4 and Weyl's
    inequality (each eigenvalue of a symmetric matrix moves by at most the
    2-norm of a symmetric perturbation):
      - G0's eigenvalues are +-2 and, for n >= 3, +-1; its scale is 2.
        Each eigenvalue of G keeps its sign and exceeds 2 tol in modulus,
        as 1 - delta > 2 tol for tol < 1/2: signature (2p-1, 2q-1, 0).
      - G0^-1 = [[0, 1/2], [1/2, 0]] + diag(eta_mid (x) (1, 1)) has norm
        s0 = 1 (n >= 3) or 1/2 (n = 2), and G^-1 - G0^-1 = -G0^-1 (G - G0)
        G^-1 gives ||G^-1 - G0^-1||_2 <= delta / (1 - delta) <= 1/3.  The
        cometric S = (G^-1)[1:, 1:] is 0 + diag(eta_mid (x) (1, 1)) at G0;
        write S = [[a, b^T], [b, D]].  Against [[a, 0], [0, D]], Weyl keeps
        every eigenvalue of S but one beyond 1 - 2 delta / (1 - delta) >
        tol s0, with the sign of D's, and the last within |a| + ||b|| of 0.
        The inversion certificate keeps the computed inverse within
        (4/3) dim 1e-6 of G^-1, far inside that margin.
      - So cotangent_metric_qtilde certifies |a| + ||b|| <= tol s0 on the
        S it returns.  A bound on delta alone that fixed the zero would be
        about tol, and it rejects points that ConePoint accepts: the f3
        entry f(2iu, 2iu) grows like n^2 / |x_j|^4 times the isotropy
        residual, where the zero moves only by G[0, 0] / 4.
    """
    kept = x._derived.get("quotient_gram")
    if kept is None:
        if cols is None:
            cols = _quotient_columns(x, _unit_pair(x))
        pairings = _gram(cols, cols, x.signature)
        norms = np.sqrt(np.add.reduce((cols.conj() * cols).real, axis=0))
        _certify_tangency(np.abs(pairings[:, 0].imag) / (norms * norms[0]),
                          _BASIS_MESSAGE)
        real = pairings.real
        gram = real * 0.5 + real.T * 0.5
        gram.flags.writeable = False
        kept = x._derived["quotient_gram"] = (
            gram, float(_norm(gram - _quotient_target(x.signature))))
    certify(kept[1], _g0_threshold(tol), NondegeneracyError,
            "quotient Gram deviates from G0 by {residual:.3e}")
    return kept


def induced_metric(x: ConePoint, frame: str = "adapted", *, basis=None,
                   tol: float = DEFAULT_TOL) -> MetricMatrix:
    """Matrix [Re f(v_i, v_j)] of the induced metric in a tangent frame.

    frame="adapted" uses the quotient basis at x, where the metric has
    signature (2p-1, 2q-1): the Gram of its balanced form is certified
    against G0, whose signature, empty radical and scale 2 it takes
    (_quotient_gram).  frame="epsilon" is n = 2 only: {i e_1, i e_n} of the
    Witt basis, diag(1, -1).  An explicit `basis`, labelled v0, v1, ...,
    overrides the frame; it and the epsilon frame certify each member
    tangent (TangencyError) and read signature and radical off the
    eigenvalues.  A basis whose Gram products could overflow raises
    UnsupportedFrameError before any is formed.
    """
    if basis is None:
        if frame == "adapted":
            sig = x.signature
            gram, _ = _quotient_gram(x, tol)
            radical = np.zeros((0, gram.shape[0]))
            radical.flags.writeable = False
            return MetricMatrix(gram, _quotient_labels(sig.n),
                                (2 * sig.p - 1, 2 * sig.q - 1, 0), radical, 2.0)
        if frame != "epsilon":
            raise ValueError(f"unknown frame {frame!r}")
        if x.signature.n != 2:
            raise UnsupportedFrameError(
                "epsilon frame exists only in signature (1,1)"
            )
        witt = extend_to_witt_basis(x)
        basis = (1j * witt[0], 1j * witt[1])
        labels = ("eps1", "eps2")
    else:
        basis = tuple(basis)
        labels = tuple(f"v{i}" for i in range(len(basis)))
    cols = np.column_stack([v.components for v in basis])
    _certify_tangency(_tangency_residuals(x, cols), _BASIS_MESSAGE)
    # Each product and partial sum of the Gram is at most n max|c_ij|^2: below
    # the smallest normal float, every entry would be subnormal or zero.
    top = float(np.abs(cols).max())
    if not math.isfinite(2.0 * cols.shape[0] * top * top):
        raise UnsupportedFrameError(
            f"basis entries of modulus {top:.3e} can put the Gram past the float range")
    if top > 0.0 and cols.shape[0] * top * top < sys.float_info.min:
        raise UnsupportedFrameError(
            f"basis entries of modulus {top:.3e} put the Gram below the normal float range")
    return MetricMatrix.from_entries(_gram(cols, cols, x.signature).real, labels, tol)


_SKEW_MESSAGE = "skew form argument has tangency residual {residual:.3e}"


def skew_form(x: ConePoint, vec_a: CVector, vec_b: CVector) -> float:
    """Value Im f(X, Y) of the induced skew form on tangent vectors at x."""
    cols = np.column_stack([vec_a.components, vec_b.components])
    _certify_tangency(_tangency_residuals(x, cols), _SKEW_MESSAGE)
    return float(form_eval(vec_a, vec_b).imag)


def cotangent_metric_qtilde(x: ConePoint, *, tol: float = DEFAULT_TOL) -> MetricMatrix:
    """Degenerate cometric of the projective quadric at the class of x.

    Inverts the quotient metric and restricts to the annihilator of the
    phase direction (the class of ix): rank 2n-4 with a line radical for
    n >= 3, zero for n = 2.  The balanced Gram G is certified against G0,
    max|G G^-1 - I| against 1e-6 and the f3* row against the radical
    (NondegeneracyError); the signature (2p-2, 2q-2, 1), the f3* radical
    axis and the scale, the norm of G0^-1, are then G0's (_quotient_gram).
    """
    gram, _ = _quotient_gram(x, tol)
    # Certified, G has every eigenvalue beyond 3/4 in modulus: invertible.
    inverse = np.linalg.inv(gram)
    residual = float(np.abs(gram @ inverse - _identity(gram.shape[0])).max())
    certify(residual, 1e-6, NondegeneracyError,
            "quotient metric inversion failed (residual {residual:.3e})")
    sub = inverse[1:, 1:]
    sig = x.signature
    entries = sub * 0.5 + sub.T * 0.5
    entries.flags.writeable = False
    scale = 1.0 if sig.n >= 3 else 0.5
    certify(abs(float(entries[0, 0])) + float(_norm(entries[1:, 0])), tol * scale,
            NondegeneracyError,
            "cometric row f3* deviates from its radical by {residual:.3e}")
    radical = np.zeros((1, sub.shape[0]))
    radical[0, 0] = 1.0
    radical.flags.writeable = False
    return MetricMatrix(entries, _quotient_labels(sig.n, "*")[1:],
                        (2 * sig.p - 2, 2 * sig.q - 2, 1), radical, scale)


def _quotient_fit(xa: ConePoint, cols: np.ndarray) -> tuple[np.ndarray, float]:
    """(C, residual): C = G^-1 Re f(Q, cols), the real coefficients of the
    tangent columns cols in the balanced quotient frame
    Q = _quotient_columns(xa, _unit_pair(xa)), G its certified Gram;
    residual = ||cols - Q C minus its part along xa|| / ||cols||."""
    q = _quotient_columns(xa, _unit_pair(xa))
    gram, _ = _quotient_gram(xa, DEFAULT_TOL, q)
    coeffs = np.linalg.solve(gram, _gram(q, cols, xa.signature).real)
    rest = cols - q @ coeffs
    xc = xa.components
    rest -= np.outer(xc, (xc.conj() @ rest).real / (xc.conj() @ xc).real)
    return coeffs, float(np.linalg.norm(rest) / np.linalg.norm(cols))


def conformal_factor(x, split_a: Split, split_b: Split):
    """Factor between the quotient metrics built from two different splits.

    Canonicalizes x with each split to xa and xb, solves for xb's balanced
    quotient frame in xa's against the certified Gram at xa (TangencyError
    if the fit's residual exceeds 1e-8), and expresses the metric at xb in
    xa's frame, each frame built once and each Gram the one kept on its
    point.  Returns (factor, relative residual).
    """
    xa = canonicalize_ray(x, split_a).point
    xb = canonicalize_ray(x, split_b).point
    cols_b = _quotient_columns(xb, _unit_pair(xb))
    g_b, _ = _quotient_gram(xb, DEFAULT_TOL, cols_b)
    mu = _unit(xb)[2] / _unit(xa)[2]
    coeffs, fit_residual = _quotient_fit(xa, cols_b)
    certify(fit_residual, 1e-8, TangencyError,
            "frames do not span a common quotient (residual {residual:.3e})")
    g_a, _ = _quotient_gram(xa, DEFAULT_TOL)
    inv_change = np.linalg.inv(coeffs / mu)
    in_frame_a = inv_change.T @ g_b @ inv_change
    factor = float(np.tensordot(in_frame_a, g_a)) / float(np.tensordot(g_a, g_a))
    residual = float(np.linalg.norm(in_frame_a - factor * g_a)
                     / (abs(factor) * np.linalg.norm(g_a)))
    return factor, residual
