"""Quotients of the isotropic cone by rescaling and by phase.

Dividing the cone Q by positive rescalings gives the ray quotient, realized
here by the cross-section where the positive and negative parts of a point
both have unit norm (so the quotient is a product of two spheres).  Dividing
further by unit phases gives the projective quadric.  Both quotients get a
canonical representative per orbit: ray representatives fix the scale, and
projective representatives additionally rotate the largest component to the
positive real axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

from .core import (
    DEFAULT_TOL,
    ConePoint,
    CVector,
    Signature,
    _as_vector,
    _check_same_signature,
    _norm,
    _owned,
    _pow2_balance,
    _pow2_scaled,
    _pseudo_unitarity_residual,
    basis_vector,
    sample_pseudo_unitary,
)
from .errors import (
    DegenerateInputError,
    NotIsometryError,
    UnsupportedSignatureError,
    certify,
)

# Relative modulus gap below which two components count as tied when picking
# the phase pivot; ties resolve to the lowest index.
PIVOT_TIE_TOL = 1e-12

__all__ = [
    "Split",
    "RayRep",
    "ProjRep",
    "standard_split",
    "sample_split",
    "split_decompose",
    "canonicalize_ray",
    "canonicalize_phase",
    "proj_equivalent",
    "torus_coords",
]


@dataclass(frozen=True, eq=False)
class Split:
    """An orthogonal splitting of H_{p,q} into a positive-definite and a
    negative-definite subspace, given by an eta-orthonormal basis listing the
    positive directions first.  _identity records whether the basis matrix
    is exactly I, tested once at construction; the label plays no part."""

    basis: tuple[CVector, ...]
    label: str = "standard"
    _identity: bool = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "basis", tuple(self.basis))
        if not self.basis:
            raise ValueError("split needs a basis")
        sig = self.basis[0].signature
        if len(self.basis) != sig.n:
            raise ValueError(f"need {sig.n} basis vectors, got {len(self.basis)}")
        for v in self.basis:
            _check_same_signature(v, self.basis[0])
        certify(_pseudo_unitarity_residual(self.matrix, sig), DEFAULT_TOL,
                NotIsometryError, "basis Gram deviates from eta by {residual:.3e}")
        object.__setattr__(self, "_identity",
                           bool(np.array_equal(self.matrix, np.eye(sig.n))))

    @property
    def signature(self) -> Signature:
        return self.basis[0].signature

    @cached_property
    def matrix(self) -> np.ndarray:
        """Basis vectors as columns; pseudo-unitary by the Gram invariant."""
        m = np.column_stack([v.components for v in self.basis])
        m.flags.writeable = False
        return m

    @cached_property
    def _pairing(self) -> np.ndarray:
        """eta * conj(matrix), the right factor of core._gram against the
        basis, formed once: v @ _pairing = [f(v, b_j)]."""
        m = self.signature.eta[:, None] * self.matrix.conj()
        m.flags.writeable = False
        return m

    def coefficients(self, v: CVector | ConePoint) -> np.ndarray:
        """Coordinates of v in this basis, c_j = eta_j * f(v, b_j), as a
        read-only array.  When the basis matrix is exactly I they are v's
        components themselves, which equal the product up to the sign of a
        zero.  A non-finite v has none: DegenerateInputError, before any
        arithmetic, read off v's kept modulus pass (a ConePoint's was formed
        by its certificate)."""
        _check_same_signature(v, self.basis[0])
        vec = _as_vector(v)
        if not vec._modulus_pass()[1] < math.inf:
            raise DegenerateInputError("split coordinates need a finite vector")
        if self._identity:
            return vec.components
        c = self.signature.eta * np.dot(vec.components, self._pairing)
        c.flags.writeable = False
        return c

    def _coordinate_vector(self, vec: CVector) -> CVector:
        """coefficients(vec) as a vector of H_{p,q}, whose form they keep: vec
        itself when the matrix is I.  Its kept sums give the block norms."""
        coeffs = self.coefficients(vec)
        return vec if self._identity else _owned(coeffs, vec.signature)

    def from_coefficients(self, coeffs) -> CVector:
        return CVector(self.matrix @ np.asarray(coeffs, dtype=np.complex128),
                       self.signature)


@cache
def standard_split(sig: Signature) -> Split:
    """The split along the standard coordinate axes.

    Built and verified once per signature; every caller shares the result,
    which is immutable (read-only basis and matrix arrays)."""
    return Split(tuple(basis_vector(sig, j) for j in range(sig.n)), label="standard")


def sample_split(sig: Signature, seed: int | np.random.Generator) -> Split:
    """The standard split transported by sample_pseudo_unitary(sig, seed),
    labelled "transported-<seed>" for an int seed and "transported" for a
    Generator, which is drawn from in place."""
    u = sample_pseudo_unitary(sig, seed)
    # Views of the certified, read-only matrix: nothing to copy.
    basis = tuple(_owned(c, sig) for c in u.matrix.T)
    stream = isinstance(seed, np.random.Generator)
    return Split(basis, label="transported" if stream else f"transported-{seed}")


def split_decompose(x, split: Split | None = None) -> tuple[CVector, CVector, float]:
    """Decompose x = x_plus + x_minus along a split and report the common
    scale R = sqrt((||x_plus||^2 + ||x_minus||^2) / 2).

    For isotropic x the two block norms agree and both equal R.
    """
    vec = _as_vector(x)
    if split is None:
        split = standard_split(vec.signature)
    coeffs, r = _ray_scale(vec, split)
    p = split.signature.p
    x_plus = _owned(split.matrix[:, :p] @ coeffs[:p], vec.signature)
    x_minus = _owned(split.matrix[:, p:] @ coeffs[p:], vec.signature)
    return x_plus, x_minus, r


def _ray_scale(vec: CVector, split: Split) -> tuple[np.ndarray, float]:
    """Split coefficients c of vec and R = sqrt((|c+|^2 + |c-|^2)/2), the block
    norms _norm's, off the kept sums of split._coordinate_vector(vec) (vec under
    I); DegenerateInputError when c is 0 or not finite, or R <= DEFAULT_TOL ||vec||."""
    c = split._coordinate_vector(vec)
    top = c._modulus_pass()[1]
    if 0.0 < top < math.inf:
        plus, minus, s = c._block_sums()
        norms, t = (math.sqrt(plus), math.sqrt(minus)), 1.0
        if min(plus, minus) < 1e-290:  # _norm re-sums c s; t keeps both squares normal
            cs, p = _pow2_scaled(c.components, top)[0], vec.signature.p
            norms = _norm(cs[:p], top * s), _norm(cs[p:], top * s)
            t = _pow2_balance(max(norms))
            norms = norms[0] * t, norms[1] * t
        # n * n is correctly rounded, so R(2^k x) = 2^k R(x); C pow(n, 2) is not.
        sum_sq = norms[0] * norms[0] + norms[1] * norms[1]
        r = math.sqrt(sum_sq / 2.0) / t
        v_norm = math.sqrt(sum_sq) / t if c is vec else _norm(_pow2_scaled(vec.components, top)[0])
        if r > DEFAULT_TOL * v_norm:
            return c.components, r / s
    raise DegenerateInputError("scale R collapsed below tolerance")


@dataclass(frozen=True, eq=False)
class RayRep:
    """Canonical representative of a null ray: both split blocks unit-norm."""

    point: ConePoint
    split: Split
    plus_norm: float
    minus_norm: float

    def __post_init__(self):
        dev_minus = abs(self.minus_norm - 1.0)
        # max drops a nan second argument, so dev_minus is certified alone too.
        for dev in (max(abs(self.plus_norm - 1.0), dev_minus), dev_minus):
            certify(dev, 1e-9, DegenerateInputError,
                    "ray representative blocks must have unit norm")

    @property
    def signature(self) -> Signature:
        return self.point.signature

    @property
    def components(self) -> np.ndarray:
        return self.point.components

    @cached_property
    def _coefficients(self) -> np.ndarray:
        """Split coordinates of the point, formed once (read-only); both
        sphere accessors are views of it."""
        return self.split.coefficients(self.point)

    def sphere_plus(self) -> np.ndarray:
        """Unit vector in C^p: split coordinates of the positive block."""
        return self._coefficients[: self.signature.p]

    def sphere_minus(self) -> np.ndarray:
        """Unit vector in C^q: split coordinates of the negative block."""
        return self._coefficients[self.signature.p :]


@dataclass(frozen=True, eq=False)
class ProjRep:
    """Canonical representative of a projective class: a ray representative
    whose largest component is rotated onto the positive real axis."""

    point: ConePoint
    split: Split
    pivot_index: int

    @property
    def signature(self) -> Signature:
        return self.point.signature

    @property
    def components(self) -> np.ndarray:
        return self.point.components

    def to_json(self) -> dict:
        out = self.point.to_json()
        out["split"] = self.split.label
        out["pivot_index"] = self.pivot_index
        return out


def canonicalize_ray(x, split: Split | None = None) -> RayRep:
    """Scale a cone point so both split blocks land on unit spheres.

    Canonical representatives pass through unchanged, which makes the map
    idempotent on the nose rather than up to rounding.  Under the default
    split the representative is built and certified once per point and kept
    on it; other splits compute it on every call.
    """
    if isinstance(x, RayRep):
        if split is None or split is x.split:
            return x
        x = x.point
    point = x if isinstance(x, ConePoint) else ConePoint(x)
    default = standard_split(point.signature)
    if split is not None and split is not default:
        return _ray_rep(point, split)
    ray = point._derived.get("ray")
    if ray is None:
        ray = point._derived["ray"] = _ray_rep(point, default)
    return ray


def _ray_rep(point: ConePoint, split: Split) -> RayRep:
    _, r = _ray_scale(point.vector, split)
    scaled = ConePoint(point.vector * (1.0 / r))
    # Block norms in the split's (f-orthonormal) coordinates, the f-norms the
    # cross-section pins to 1; under I the scaled point's certificate summed them.
    plus, minus, s = split._coordinate_vector(scaled.vector)._block_sums()
    return RayRep(scaled, split, math.sqrt(plus) / s, math.sqrt(minus) / s)


def _pivot_index(mags: np.ndarray, top: float) -> int:
    """The lowest index whose modulus in mags is within PIVOT_TIE_TOL of
    the largest, top = max(mags)."""
    return int((mags >= top * (1.0 - PIVOT_TIE_TOL)).argmax())


def canonicalize_phase(x, split: Split | None = None) -> ProjRep:
    """Canonical projective representative: ray-normalize, then divide out
    the phase of the largest-modulus component (ties to the lowest index).

    Under the default split the result is kept on the ray representative's
    point, so each point is ray-normalized and rotated once."""
    if isinstance(x, ProjRep):
        if split is None or split is x.split:
            return x
        x = x.point
    ray = canonicalize_ray(x, split)
    if ray.split is not standard_split(ray.signature):
        return _proj_rep(ray)
    proj = ray.point._derived.get("proj")
    if proj is None:
        proj = ray.point._derived["proj"] = _proj_rep(ray)
    return proj


def _proj_rep(ray: RayRep) -> ProjRep:
    comps = ray.components
    j = _pivot_index(*ray.point.vector._modulus_pass())
    phase = comps[j] / abs(comps[j])
    point = ConePoint(ray.point.vector * np.conj(phase))
    return ProjRep(point, ray.split, j)


def proj_equivalent(x, y, tol: float = DEFAULT_TOL, split: Split | None = None) -> bool:
    """Whether x and y represent the same point of the projective quadric."""
    a = canonicalize_phase(x, split)
    b = canonicalize_phase(y, split)
    _check_same_signature(a, b)
    scale = max(math.sqrt(plus + minus) / s for plus, minus, s
                in (a.point.vector._block_sums(), b.point.vector._block_sums()))
    return float(_norm(a.components - b.components)) <= tol * scale


def torus_coords(x) -> tuple[float, float]:
    """Angles (phi1, phi2) in [0, 2*pi) of a signature-(1,1) ray
    representative, one per coordinate of the canonical scaling."""
    vec = _as_vector(x)
    if vec.signature != Signature(1, 1):
        raise UnsupportedSignatureError(
            f"torus coordinates need signature (1,1), got {vec.signature}"
        )
    # A representative's point, not the representative, which would pass
    # through unscaled; a point keeps its ray representative for reuse.
    ray = canonicalize_ray(x.point if isinstance(x, (RayRep, ProjRep)) else x)
    angles = np.mod(np.angle(ray.components), 2.0 * np.pi)
    # mod can return 2*pi when the angle underflows from below
    angles[angles >= 2.0 * np.pi] = 0.0
    return float(angles[0]), float(angles[1])
