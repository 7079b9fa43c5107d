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
from dataclasses import dataclass
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
    _pow2_scale,
    _pseudo_unitarity_residual,
    basis_vector,
    sample_pseudo_unitary,
)
from .errors import (
    DegenerateInputError,
    NotIsometryError,
    SignatureMismatchError,
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
    positive directions first."""

    basis: tuple[CVector, ...]
    label: str = "standard"

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
        """Coordinates of v in this basis: c_j = eta_j * f(v, b_j).  A
        non-finite v has none: DegenerateInputError, before any arithmetic;
        a ConePoint is finite by its certificate and is not checked again."""
        _check_same_signature(v, self.basis[0])
        if not (isinstance(v, ConePoint) or np.isfinite(v.components).all()):
            raise DegenerateInputError("split coordinates need a finite vector")
        return self.signature.eta * np.dot(v.components, self._pairing)

    def from_coefficients(self, coeffs) -> CVector:
        return CVector(self.matrix @ np.asarray(coeffs, dtype=np.complex128),
                       self.signature)

    def to_json(self) -> dict:
        return {
            "label": self.label,
            "signature": self.signature.to_json(),
            "basis": [v.to_json()["components"] for v in self.basis],
        }


@cache
def standard_split(sig: Signature) -> Split:
    """The split along the standard coordinate axes.

    Built and verified once per signature; every caller shares the result,
    which is immutable (read-only basis and matrix arrays)."""
    return Split(tuple(basis_vector(sig, j) for j in range(sig.n)), label="standard")


def sample_split(sig: Signature, seed: int) -> Split:
    """The standard split transported by a sampled pseudo-unitary map."""
    u = sample_pseudo_unitary(sig, seed)
    basis = tuple(CVector(u.matrix[:, j], sig) for j in range(sig.n))
    return Split(basis, label=f"transported-{seed}")


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
    x_plus = CVector(split.matrix[:, :p] @ coeffs[:p], vec.signature)
    x_minus = CVector(split.matrix[:, p:] @ coeffs[p:], vec.signature)
    return x_plus, x_minus, r


def _ray_scale(vec: CVector | ConePoint, split: Split) -> tuple[np.ndarray, float]:
    """Split coefficients c of vec and the scale R = sqrt((|c+|^2 + |c-|^2)/2),
    with the sums and ||vec|| taken once on c and vec times
    core._pow2_scale(max|c_j|); raises DegenerateInputError when c is zero
    or not finite, or when R <= DEFAULT_TOL * ||vec||."""
    coeffs = split.coefficients(vec)
    top = float(np.abs(coeffs).max())
    if 0.0 < top < math.inf:
        s = _pow2_scale(top)
        c, v = (coeffs, vec.components) if s == 1.0 else (s * coeffs, s * vec.components)
        p = split.signature.p
        r = float(np.sqrt((_norm(c[:p]) ** 2 + _norm(c[p:]) ** 2) / 2.0))
        if r > DEFAULT_TOL * float(_norm(v)):
            return coeffs, r / s
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

    def sphere_plus(self) -> np.ndarray:
        """Unit vector in C^p: split coordinates of the positive block."""
        return self.split.coefficients(self.point)[: self.signature.p]

    def sphere_minus(self) -> np.ndarray:
        """Unit vector in C^q: split coordinates of the negative block."""
        return self.split.coefficients(self.point)[self.signature.p :]

    def x_plus(self) -> CVector:
        return split_decompose(self.point, self.split)[0]

    def x_minus(self) -> CVector:
        return split_decompose(self.point, self.split)[1]

    def to_json(self) -> dict:
        out = self.point.to_json()
        out["split"] = self.split.label
        out["plus_norm"] = self.plus_norm
        out["minus_norm"] = self.minus_norm
        return out


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
    idempotent on the nose rather than up to rounding.
    """
    if isinstance(x, RayRep):
        if split is None or split is x.split:
            return x
        x = x.point
    point = x if isinstance(x, ConePoint) else ConePoint(x)
    if split is None:
        split = standard_split(point.signature)
    _, r = _ray_scale(point, split)
    scaled = ConePoint(point.vector * (1.0 / r))
    # Block norms in the split's own (f-orthonormal) coordinates; these are
    # the f-norms of the two blocks and are what the cross-section pins to 1.
    coeffs = split.coefficients(scaled)
    p = split.signature.p
    return RayRep(
        scaled,
        split,
        float(_norm(coeffs[:p])),
        float(_norm(coeffs[p:])),
    )


def _pivot_index(components: np.ndarray) -> int:
    mags = np.abs(components)
    top = float(mags.max())
    candidates = np.nonzero(mags >= top * (1.0 - PIVOT_TIE_TOL))[0]
    return int(candidates[0])


def canonicalize_phase(x, split: Split | None = None) -> ProjRep:
    """Canonical projective representative: ray-normalize, then divide out
    the phase of the largest-modulus component (ties to the lowest index)."""
    if isinstance(x, ProjRep):
        if split is None or split is x.split:
            return x
        x = x.point
    ray = canonicalize_ray(x, split)
    comps = ray.components
    j = _pivot_index(comps)
    phase = comps[j] / abs(comps[j])
    point = ConePoint(ray.point.vector * np.conj(phase))
    return ProjRep(point, ray.split, j)


def proj_equivalent(x, y, tol: float = DEFAULT_TOL, split: Split | None = None) -> bool:
    """Whether x and y represent the same point of the projective quadric."""
    a = canonicalize_phase(x, split)
    b = canonicalize_phase(y, split)
    if a.signature != b.signature:
        raise SignatureMismatchError(
            f"signature mismatch: {a.signature} vs {b.signature}"
        )
    scale = max(_norm(a.components), _norm(b.components))
    return float(_norm(a.components - b.components)) <= tol * scale


def torus_coords(x) -> tuple[float, float]:
    """Angles (phi1, phi2) in [0, 2*pi) of a signature-(1,1) ray
    representative, one per coordinate of the canonical scaling."""
    vec = _as_vector(x)
    if vec.signature != Signature(1, 1):
        raise UnsupportedSignatureError(
            f"torus coordinates need signature (1,1), got {vec.signature}"
        )
    ray = canonicalize_ray(ConePoint(vec))
    angles = np.mod(np.angle(ray.components), 2.0 * np.pi)
    # mod can return 2*pi when the angle underflows from below
    angles[angles >= 2.0 * np.pi] = 0.0
    return float(angles[0]), float(angles[1])
