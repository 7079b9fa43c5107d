"""Indefinite Hermitian spaces H_{p,q} and their isotropic vectors.

The ambient space is C^n, n = p + q, carrying the form

    f(u, v) = sum_j eta_j * u_j * conj(v_j),    eta = (+1 x p, -1 x q),

linear in the first slot and conjugate-linear in the second.  This module
owns the form itself, the value types (signatures, vectors, certified cone
points, pseudo-unitary matrices), indefinite orthonormalization, and the
seeded samplers everything downstream draws from.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateInputError,
    DegenerateSubspaceError,
    NotIsometryError,
    NotIsotropicError,
    SignatureMismatchError,
)

DEFAULT_TOL = 1e-9

__all__ = [
    "DEFAULT_TOL",
    "Signature",
    "CVector",
    "ConePoint",
    "GroupElement",
    "make_rng",
    "form_eval",
    "is_isotropic",
    "basis_vector",
    "orthonormalize_indefinite",
    "sample_cone_point",
    "sample_pseudo_unitary",
    "verify_isometry",
]


def make_rng(seed: int, *path: int) -> np.random.Generator:
    """Counter-based generator for `seed`, split along `path`.

    Distinct paths give statistically independent streams, so trial k of a
    batch can use make_rng(seed, k) without coupling to trial k+1.
    """
    ss = np.random.SeedSequence(int(seed), spawn_key=tuple(int(k) for k in path))
    return np.random.Generator(np.random.Philox(ss))


@dataclass(frozen=True)
class Signature:
    """Signature (p, q) of an indefinite Hermitian space, p, q >= 1."""

    p: int
    q: int

    def __post_init__(self):
        if not (isinstance(self.p, int) and isinstance(self.q, int)):
            raise TypeError("signature entries must be ints")
        if self.p < 1 or self.q < 1:
            raise ValueError("signature requires p >= 1 and q >= 1")

    @property
    def n(self) -> int:
        return self.p + self.q

    @cached_property
    def eta(self) -> np.ndarray:
        """Diagonal of the form as a length-n real array."""
        e = np.concatenate([np.ones(self.p), -np.ones(self.q)])
        e.flags.writeable = False
        return e

    def __str__(self):
        return f"({self.p},{self.q})"

    def to_json(self) -> dict:
        return {"p": self.p, "q": self.q}


def _as_components(values, n: int) -> np.ndarray:
    arr = np.array(values, dtype=np.complex128)
    if arr.shape != (n,):
        raise ValueError(f"expected {n} components, got shape {arr.shape}")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class CVector:
    """Vector in C^n tagged with the signature of its ambient space."""

    components: np.ndarray
    signature: Signature

    # Keep numpy scalars from hijacking arithmetic via ufunc dispatch.
    __array_ufunc__ = None

    def __post_init__(self):
        object.__setattr__(
            self, "components", _as_components(self.components, self.signature.n)
        )

    def __add__(self, other: "CVector") -> "CVector":
        _check_same_signature(self, other)
        return CVector(self.components + other.components, self.signature)

    def __sub__(self, other: "CVector") -> "CVector":
        _check_same_signature(self, other)
        return CVector(self.components - other.components, self.signature)

    def __neg__(self) -> "CVector":
        return CVector(-self.components, self.signature)

    def __mul__(self, scalar) -> "CVector":
        return CVector(self.components * complex(scalar), self.signature)

    __rmul__ = __mul__

    def norm(self) -> float:
        """Euclidean norm (not the indefinite form)."""
        return float(np.linalg.norm(self.components))

    def to_json(self) -> dict:
        return {
            "signature": self.signature.to_json(),
            "components": [[float(c.real), float(c.imag)] for c in self.components],
        }

    @classmethod
    def from_json(cls, data: dict) -> "CVector":
        sig = Signature(int(data["signature"]["p"]), int(data["signature"]["q"]))
        comps = [complex(re, im) for re, im in data["components"]]
        return cls(np.array(comps), sig)


def _check_same_signature(u, v):
    if u.signature != v.signature:
        raise SignatureMismatchError(
            f"signature mismatch: {u.signature} vs {v.signature}"
        )


def basis_vector(sig: Signature, index: int) -> CVector:
    """Standard basis vector e_index (0-based) of H_{p,q}."""
    comps = np.zeros(sig.n, dtype=np.complex128)
    comps[index] = 1.0
    return CVector(comps, sig)


def form_eval(u: CVector, v: CVector) -> complex:
    """Evaluate the Hermitian form f(u, v).

    Linear in u, conjugate-linear in v; f(v, u) == conj(f(u, v)).
    """
    _check_same_signature(u, v)
    return complex(
        np.sum(u.signature.eta * u.components * np.conj(v.components))
    )


def _gram(a: np.ndarray, b: np.ndarray, sig: Signature) -> np.ndarray:
    """Matrix [f(a_i, b_j)] for vectors stacked as the columns of a and b.

    A one-dimensional a or b is a single vector: the result is then the row
    [f(a, b_j)] or the column [f(a_i, b)], or f(a, b) when both are.
    """
    eta = sig.eta if b.ndim == 1 else sig.eta[:, None]
    return a.T @ (eta * b.conj())


def _as_vector(obj) -> CVector:
    """The CVector behind a vector, a cone point, or a ray or projective
    representative."""
    if isinstance(obj, CVector):
        return obj
    if isinstance(obj, ConePoint):
        return obj.vector
    return obj.point.vector


def is_isotropic(x, tol: float = DEFAULT_TOL) -> bool:
    """Whether |f(x, x)| <= tol * ||x||^2 for nonzero x."""
    vec = _as_vector(x)
    nrm2 = float(np.sum(np.abs(vec.components) ** 2))
    if nrm2 == 0.0:
        raise DegenerateInputError("isotropy is undefined for the zero vector")
    return abs(form_eval(vec, vec)) <= tol * nrm2


@dataclass(frozen=True, eq=False)
class ConePoint:
    """A nonzero vector certified isotropic at construction time."""

    vector: CVector
    tol: InitVar[float] = DEFAULT_TOL
    isotropy_residual: float = field(init=False)

    def __post_init__(self, tol):
        nrm2 = float(np.sum(np.abs(self.vector.components) ** 2))
        if nrm2 == 0.0:
            raise DegenerateInputError("cone points must be nonzero")
        # Checked before the form, which would warn on inf components.
        if not math.isfinite(nrm2):
            raise NotIsotropicError(f"||x||^2 = {nrm2} is not finite")
        residual = abs(form_eval(self.vector, self.vector)) / nrm2
        if not residual <= tol:
            raise NotIsotropicError(
                f"|f(x,x)|/||x||^2 = {residual:.3e} exceeds tol {tol:.3e}"
            )
        object.__setattr__(self, "isotropy_residual", residual)

    @property
    def signature(self) -> Signature:
        return self.vector.signature

    @property
    def components(self) -> np.ndarray:
        return self.vector.components

    def to_json(self) -> dict:
        out = self.vector.to_json()
        out["isotropy_residual"] = self.isotropy_residual
        return out


def _pseudo_unitarity_residual(matrix: np.ndarray, sig: Signature) -> float:
    # inf for non-finite entries, checked before the Gram, which would warn.
    if not np.isfinite(matrix).all():
        return np.inf
    return float(np.max(np.abs(_gram(matrix, matrix, sig) - np.diag(sig.eta))))


@dataclass(frozen=True, eq=False)
class GroupElement:
    """Matrix certified pseudo-unitary: U^dagger eta U = eta within tol."""

    matrix: np.ndarray
    signature: Signature
    tol: InitVar[float] = DEFAULT_TOL

    def __post_init__(self, tol):
        n = self.signature.n
        mat = np.array(self.matrix, dtype=np.complex128)
        if mat.shape != (n, n):
            raise ValueError(f"expected a {n}x{n} matrix, got {mat.shape}")
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)
        residual = _pseudo_unitarity_residual(mat, self.signature)
        if not residual <= tol:
            raise NotIsometryError(
                f"||U^H eta U - eta||_max = {residual:.3e} exceeds tol {tol:.3e}"
            )

    def apply(self, v: CVector) -> CVector:
        if v.signature != self.signature:
            raise SignatureMismatchError(
                f"signature mismatch: {v.signature} vs {self.signature}"
            )
        return CVector(self.matrix @ v.components, self.signature)

    def to_json(self) -> dict:
        return {
            "signature": self.signature.to_json(),
            "matrix": [
                [[float(z.real), float(z.imag)] for z in row] for row in self.matrix
            ],
        }


def verify_isometry(u, signature: Signature | None = None, tol: float = DEFAULT_TOL) -> bool:
    """Whether ||U^dagger eta U - eta||_max <= tol.

    Accepts a GroupElement (signature taken from it) or a raw square matrix
    together with an explicit signature.
    """
    if isinstance(u, GroupElement):
        sig = u.signature
        mat = u.matrix
    else:
        if signature is None:
            raise ValueError("raw matrices need an explicit signature")
        sig = signature
        mat = np.asarray(u, dtype=np.complex128)
        if mat.shape != (sig.n, sig.n):
            raise ValueError(f"expected a {sig.n}x{sig.n} matrix, got {mat.shape}")
    return _pseudo_unitarity_residual(mat, sig) <= tol


def orthonormalize_indefinite(vectors, target, tol: float = 1e-10) -> list[CVector]:
    """Eta-orthonormalize `vectors` to Gram diag(+1 x p', -1 x q').

    `target` is the (p', q') signature of the span, as a Signature or a pair
    of non-negative ints.  Uses modified Gram-Schmidt with pivoting on the
    largest |f(v, v)|, plus a recombination step: when every remaining
    self-product vanishes but a cross-product does not (a basis of isotropic
    vectors spanning a nondegenerate space), two members are recombined as
    v_i + v_j or v_i + i*v_j to expose a usable pivot.  Output lists the
    positive-norm vectors first.  Raises DegenerateSubspaceError when all
    remaining products vanish at tolerance.
    """
    if isinstance(target, Signature):
        tp, tq = target.p, target.q
    else:
        tp, tq = int(target[0]), int(target[1])
        if tp < 0 or tq < 0:
            raise ValueError("target counts must be non-negative")
    vectors = list(vectors)
    if len(vectors) != tp + tq:
        raise ValueError(
            f"need exactly {tp + tq} vectors for target ({tp},{tq}), got {len(vectors)}"
        )
    if not vectors:
        return []
    sig = vectors[0].signature
    for v in vectors[1:]:
        _check_same_signature(vectors[0], v)
    cols = np.column_stack([v.components for v in vectors])
    return [CVector(c, sig) for c in _orthonormal_columns(cols, sig, tp, tol).T]


def _self_products(cols: np.ndarray, sig: Signature) -> np.ndarray:
    """[f(c_j, c_j)] for the columns c_j, as reals."""
    return sig.eta @ (np.abs(cols) ** 2)


def _orthonormal_columns(cols: np.ndarray, sig: Signature, tp: int,
                         tol: float = 1e-10) -> np.ndarray:
    """orthonormalize_indefinite on the (n, k) columns of cols, for a span
    with tp positive directions; returns the basis as columns."""
    tq = cols.shape[1] - tp
    scale = float(np.max(np.linalg.norm(cols, axis=0)))
    if scale == 0.0:
        raise DegenerateSubspaceError("all input vectors are zero")
    floor = tol * scale**2
    plus: list[np.ndarray] = []
    minus: list[np.ndarray] = []
    while cols.shape[1]:
        s = _self_products(cols, sig)
        pivot = int(np.argmax(np.abs(s)))
        while abs(s[pivot]) <= floor:
            cols = _recombine_isotropic(cols, sig, floor)
            s = _self_products(cols, sig)
            pivot = int(np.argmax(np.abs(s)))
        sign = 1.0 if s[pivot] > 0 else -1.0
        v = cols[:, pivot] * (1.0 / np.sqrt(abs(s[pivot])))
        (plus if sign > 0 else minus).append(v)
        cols = np.delete(cols, pivot, axis=1)
        cols = cols - v[:, None] * (sign * _gram(cols, v, sig))
    if len(plus) != tp or len(minus) != tq:
        raise DegenerateSubspaceError(
            f"span has signature ({len(plus)},{len(minus)}), expected ({tp},{tq})"
        )
    # A second projection pass keeps the Gram residual near machine
    # precision even for nearly dependent inputs.
    return _reorthogonalize(np.column_stack(plus + minus), tp, sig)


def _recombine_isotropic(cols: np.ndarray, sig: Signature, floor: float) -> np.ndarray:
    """Replace one of a cross-paired set of isotropic columns so a
    Gram-Schmidt pivot exists; error out if the span is degenerate."""
    # Pairs i < j in row-major order, so ties go to the first pair.
    ii, jj = np.triu_indices(cols.shape[1], 1)
    cross = np.abs(_gram(cols, cols, sig))[ii, jj]
    if not cross.size or cross.max() <= floor:
        raise DegenerateSubspaceError(
            "form vanishes on the span at tolerance; no orthonormal basis exists"
        )
    best = int(np.argmax(cross))
    i, j = ii[best], jj[best]
    cands = cols[:, [i]] + cols[:, [j]] * np.array([1.0, 1j])
    s = np.abs(_self_products(cands, sig))
    out = cols.copy()
    out[:, i] = cands[:, 0] if s[0] >= s[1] else cands[:, 1]
    return out


def _reorthogonalize(basis: np.ndarray, tp: int, sig: Signature) -> np.ndarray:
    """One sweep of exact-sign Gram-Schmidt against already-final columns."""
    signs = np.where(np.arange(basis.shape[1]) < tp, 1.0, -1.0)
    out = np.empty_like(basis)
    for k in range(basis.shape[1]):
        done = out[:, :k]
        w = basis[:, k] - done @ (signs[:k] * _gram(basis[:, k], done, sig))
        out[:, k] = w * (1.0 / np.sqrt(abs(_self_products(w, sig))))
    return out


def sample_cone_point(sig: Signature, seed: int) -> ConePoint:
    """Deterministic isotropic sample: unit complex-normal directions on the
    positive and negative blocks, then a common log-normal scale and phase."""
    rng = make_rng(seed)
    p, q = sig.p, sig.q

    def unit_block(k):
        z = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        while np.linalg.norm(z) < 1e-6:
            z = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        return z / np.linalg.norm(z)

    xp = unit_block(p)
    xm = unit_block(q)
    c = np.exp(0.75 * rng.standard_normal()) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    return ConePoint(CVector(c * np.concatenate([xp, xm]), sig), tol=1e-12)


def _expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring over a Taylor series."""
    n = a.shape[0]
    norm = np.linalg.norm(a, ord=np.inf)
    s = max(0, int(np.ceil(np.log2(norm))) + 1) if norm > 0 else 0
    x = a / (2.0**s)
    term = np.eye(n, dtype=np.complex128)
    total = np.eye(n, dtype=np.complex128)
    for k in range(1, 60):
        term = term @ x / k
        total = total + term
        if np.linalg.norm(term, ord=np.inf) <= 1e-18 * np.linalg.norm(total, ord=np.inf):
            break
    for _ in range(s):
        total = total @ total
    return total


def sample_pseudo_unitary(sig: Signature, seed: int, scale: float = 1.0) -> GroupElement:
    """Deterministic pseudo-unitary sample exp(eta * B), B anti-Hermitian.

    The generator A = eta B satisfies A^dagger eta + eta A = 0 exactly, so
    exp(A) preserves the form; A is normalized to Frobenius norm `scale`.
    """
    rng = make_rng(seed)
    n = sig.n
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    b = (g - g.conj().T) / 2.0
    a = sig.eta[:, None] * b
    nrm = np.linalg.norm(a)
    if nrm > 0:
        a = a * (scale / nrm)
    return GroupElement(_expm(a), sig, tol=1e-10)
