"""Indefinite Hermitian spaces H_{p,q} and their isotropic vectors.

The ambient space is C^n, n = p + q, carrying the form

    f(u, v) = sum_j eta_j * u_j * conj(v_j),    eta = (+1 x p, -1 x q),

linear in the first slot and conjugate-linear in the second.  This module
owns the form itself, the value types (signatures, vectors, certified cone
points, pseudo-unitary matrices) and the seeded samplers everything
downstream draws from.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateInputError,
    NotIsometryError,
    NotIsotropicError,
    SignatureMismatchError,
    certify,
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
        return _owned(self.components + other.components, self.signature)

    def __sub__(self, other: "CVector") -> "CVector":
        _check_same_signature(self, other)
        return _owned(self.components - other.components, self.signature)

    def __neg__(self) -> "CVector":
        return _owned(-self.components, self.signature)

    def __mul__(self, scalar) -> "CVector":
        return _owned(self.components * complex(scalar), self.signature)

    __rmul__ = __mul__

    def norm(self) -> float:
        """Euclidean norm (not the indefinite form)."""
        return float(_norm(self.components))

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


def _owned(components: np.ndarray, sig: Signature) -> CVector:
    """CVector on a complex array of length n that no caller can write
    through: the fresh result of arithmetic, or a view of a read-only array.
    It is made read-only in place instead of copied."""
    components.flags.writeable = False
    vec = object.__new__(CVector)
    object.__setattr__(vec, "components", components)
    object.__setattr__(vec, "signature", sig)
    return vec


def _check_same_signature(u, v):
    if u.signature is not v.signature and u.signature != v.signature:
        raise SignatureMismatchError(
            f"signature mismatch: {u.signature} vs {v.signature}"
        )


def _norm(a: np.ndarray) -> np.float64:
    """2-norm of a 1-D real or complex array, bit-identical to
    np.linalg.norm(a): the same dot products on the same raveled array,
    without the wrapper's dispatch.  The np.float64 result keeps numpy's
    scalar arithmetic (inf, not an exception, on overflow)."""
    a = a.ravel(order="K")
    if a.dtype.kind == "c":
        re, im = a.real, a.imag
        return np.float64(math.sqrt(re.dot(re) + im.dot(im)))
    return np.float64(math.sqrt(a.dot(a)))


def basis_vector(sig: Signature, index: int) -> CVector:
    """Standard basis vector e_index (0-based) of H_{p,q}."""
    comps = np.zeros(sig.n, dtype=np.complex128)
    comps[index] = 1.0
    return CVector(comps, sig)


def form_eval(u: CVector, v: CVector) -> complex:
    """Evaluate the Hermitian form f(u, v).

    Linear in u, conjugate-linear in v; f(v, u) == conj(f(u, v)) bit for bit.
    The sums run on Python floats, each product rounded on its own: numpy's
    complex multiply may fuse one of the two products in a part and so round
    u_j conj(v_j) and v_j conj(u_j) differently.  At the small n used here
    the loop is also faster than the numpy calls it replaces.
    """
    _check_same_signature(u, v)
    re = im = 0.0
    for e, a, b in zip(u.signature.eta.tolist(), u.components.tolist(),
                       v.components.tolist()):
        re += e * (a.real * b.real + a.imag * b.imag)
        im += e * (a.imag * b.real - a.real * b.imag)
    return complex(re, im)


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


def _pow2_scale(top: float) -> float:
    """Factor for an array c with top = max|c_j|: 1.0 if 1e-153 < top < 1e150,
    where top^2 is normal and no sum of fewer than 1e8 squares overflows;
    else 2^-e for top = m 2^e (at most 2^1023).  A power of two scales every
    sum exactly (Anderson, ACM TOMS 44, 2017), so a sum keeps its bits
    wherever the unscaled one is a normal float."""
    if 1e-153 < top < 1e150:
        return 1.0
    return math.ldexp(1.0, min(-math.frexp(top)[1], 1023))


def _isotropy_sums(vec: CVector) -> tuple[float, float]:
    """(|f(x, x)|, ||x||^2) for x = vec, each summed once on x times
    _pow2_scale(max|x_j|).  A zero or non-finite x gives |f(x, x)| = nan
    with ||x||^2 = 0, inf or nan, on which the callers reject it."""
    c = vec.components
    absx = np.abs(c)
    top = float(absx.max())
    if not 0.0 < top < math.inf:
        return math.nan, top
    s = _pow2_scale(top)
    if s != 1.0:
        c = s * c
        absx = s * absx
    nrm2 = float(np.add.reduce(absx**2))
    return abs(complex(np.add.reduce(vec.signature.eta * c * np.conj(c)))), nrm2


def is_isotropic(x, tol: float = DEFAULT_TOL) -> bool:
    """Whether |f(x, x)| <= tol * ||x||^2 for nonzero x."""
    abs_f, nrm2 = _isotropy_sums(_as_vector(x))
    if nrm2 == 0.0:
        raise DegenerateInputError("isotropy is undefined for the zero vector")
    return abs_f <= tol * nrm2


@dataclass(frozen=True, eq=False)
class ConePoint:
    """A nonzero vector certified isotropic at construction time."""

    vector: CVector
    tol: InitVar[float] = DEFAULT_TOL
    isotropy_residual: float = field(init=False)
    # Data derived from x alone, kept by the modules that compute it: the
    # default chart partner and middles, and the default quotient Gram.  No
    # entry refers back to the point, so it is freed as soon as it is dropped.
    _derived: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self, tol):
        abs_f, nrm2 = _isotropy_sums(self.vector)
        if nrm2 == 0.0:
            raise DegenerateInputError("cone points must be nonzero")
        if not math.isfinite(nrm2):
            raise NotIsotropicError(f"||x||^2 = {nrm2} is not finite")
        object.__setattr__(self, "isotropy_residual", abs_f / nrm2)
        certify(self.isotropy_residual, tol, NotIsotropicError,
                "|f(x,x)|/||x||^2 = {residual:.3e} exceeds tol {threshold:.3e}")

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
    return float(np.abs(_gram(matrix, matrix, sig) - np.diag(sig.eta)).max())


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
        certify(_pseudo_unitarity_residual(mat, self.signature), tol, NotIsometryError,
                "||U^H eta U - eta||_max = {residual:.3e} exceeds tol {threshold:.3e}")

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


def sample_cone_point(sig: Signature, seed: int) -> ConePoint:
    """Deterministic isotropic sample: unit complex-normal directions on the
    positive and negative blocks, then a common log-normal scale and phase."""
    rng = make_rng(seed)
    p, q = sig.p, sig.q

    def unit_block(k):
        z = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        while _norm(z) < 1e-6:
            z = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        return z / _norm(z)

    xp = unit_block(p)
    xm = unit_block(q)
    c = np.exp(0.75 * rng.standard_normal()) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    return ConePoint(_owned(c * np.concatenate([xp, xm]), sig), tol=1e-12)


def sample_pseudo_unitary(sig: Signature, seed: int) -> GroupElement:
    """Deterministic pseudo-unitary sample: the Cayley transform
    U = (I - A/2)^-1 (I + A/2) of A = eta B, B anti-Hermitian.

    A^dagger eta + eta A = 0, so U preserves the form in exact arithmetic
    (Iserles et al., Acta Numerica 9, 2000).  A is normalized to Frobenius
    norm 1, so ||A||_2 <= 1 keeps I - A/2 invertible; a zero A gives I.
    """
    rng = make_rng(seed)
    n = sig.n
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    b = (g - g.conj().T) / 2.0
    a = sig.eta[:, None] * b
    nrm = np.linalg.norm(a)
    if nrm > 0:
        a = a / nrm
    eye = np.eye(n)
    return GroupElement(np.linalg.solve(eye - a / 2.0, eye + a / 2.0), sig, tol=1e-10)
