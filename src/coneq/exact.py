"""Exact oracle over the Gaussian rationals Q(i).

Everything here runs on pairs of fractions.Fraction with no rounding, so
identities that hold over the rationals (isotropy of the chart map, chart
round trips) can be asserted with ==, not tolerances.  The oracle never
orthonormalizes: it only accepts charts whose data already satisfy the
chart identities exactly, such as the standard rational chart at
x = e_1 + e_n.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .charts import IN_APERP
from .core import CVector, Signature
from .errors import (
    DegenerateInputError,
    InternalContractError,
    SignatureMismatchError,
    UnsupportedChartError,
)

__all__ = [
    "QGaussian",
    "QVector",
    "RationalChart",
    "qi",
    "exact_form_eval",
    "exact_isotropy",
    "exact_basis_vector",
    "exact_hyperbolic_partner",
    "standard_rational_chart",
    "exact_kappa0",
    "exact_chart_inverse",
    "exact_kappa_roundtrip",
    "random_qgaussian",
]


def _as_fraction(value) -> Fraction:
    if isinstance(value, float):
        raise TypeError("floats are not exact; pass Fraction, int, or str")
    return Fraction(value)


@dataclass(frozen=True)
class QGaussian:
    """Gaussian rational re + im*i with exact Fraction parts."""

    re: Fraction
    im: Fraction

    def __post_init__(self):
        object.__setattr__(self, "re", _as_fraction(self.re))
        object.__setattr__(self, "im", _as_fraction(self.im))

    @classmethod
    def zero(cls) -> "QGaussian":
        return cls(Fraction(0), Fraction(0))

    @classmethod
    def one(cls) -> "QGaussian":
        return cls(Fraction(1), Fraction(0))

    def __add__(self, other) -> "QGaussian":
        other = _coerce(other)
        return QGaussian(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other) -> "QGaussian":
        other = _coerce(other)
        return QGaussian(self.re - other.re, self.im - other.im)

    def __rsub__(self, other) -> "QGaussian":
        return _coerce(other) - self

    def __neg__(self) -> "QGaussian":
        return QGaussian(-self.re, -self.im)

    def __mul__(self, other) -> "QGaussian":
        other = _coerce(other)
        return QGaussian(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other) -> "QGaussian":
        other = _coerce(other)
        n2 = other.norm2()
        if n2 == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return QGaussian(
            (self.re * other.re + self.im * other.im) / n2,
            (self.im * other.re - self.re * other.im) / n2,
        )

    def __rtruediv__(self, other) -> "QGaussian":
        return _coerce(other) / self

    def conjugate(self) -> "QGaussian":
        return QGaussian(self.re, -self.im)

    def norm2(self) -> Fraction:
        """|z|^2 = re^2 + im^2, exact."""
        return self.re * self.re + self.im * self.im

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def to_complex(self) -> complex:
        return complex(float(self.re), float(self.im))

    def to_json(self) -> dict:
        return {
            "re": f"{self.re.numerator}/{self.re.denominator}",
            "im": f"{self.im.numerator}/{self.im.denominator}",
        }

    @classmethod
    def from_json(cls, data: dict) -> "QGaussian":
        return cls(Fraction(data["re"]), Fraction(data["im"]))


def _coerce(value) -> QGaussian:
    if isinstance(value, QGaussian):
        return value
    if isinstance(value, (int, Fraction)):
        return QGaussian(Fraction(value), Fraction(0))
    raise TypeError(f"cannot coerce {type(value).__name__} to QGaussian")


def qi(re=0, im=0) -> QGaussian:
    """Shorthand constructor from ints, Fractions, or fraction strings."""
    return QGaussian(Fraction(re), Fraction(im))


@dataclass(frozen=True)
class QVector:
    """Vector over the Gaussian rationals tagged with a signature."""

    components: tuple[QGaussian, ...]
    signature: Signature

    def __post_init__(self):
        comps = tuple(_coerce(c) for c in self.components)
        if len(comps) != self.signature.n:
            raise ValueError(
                f"expected {self.signature.n} components, got {len(comps)}"
            )
        object.__setattr__(self, "components", comps)

    def __add__(self, other: "QVector") -> "QVector":
        _check_sig(self, other)
        return QVector(
            tuple(a + b for a, b in zip(self.components, other.components)),
            self.signature,
        )

    def __sub__(self, other: "QVector") -> "QVector":
        _check_sig(self, other)
        return QVector(
            tuple(a - b for a, b in zip(self.components, other.components)),
            self.signature,
        )

    def __neg__(self) -> "QVector":
        return QVector(tuple(-c for c in self.components), self.signature)

    def scale(self, factor) -> "QVector":
        factor = _coerce(factor)
        return QVector(
            tuple(factor * c for c in self.components), self.signature
        )

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    def to_cvector(self) -> CVector:
        return CVector(
            np.array([c.to_complex() for c in self.components]), self.signature
        )

    def to_json(self) -> dict:
        return {
            "signature": self.signature.to_json(),
            "components": [c.to_json() for c in self.components],
        }

    @classmethod
    def from_json(cls, data: dict) -> "QVector":
        sig = Signature(int(data["signature"]["p"]), int(data["signature"]["q"]))
        return cls(
            tuple(QGaussian.from_json(c) for c in data["components"]), sig
        )


def _check_sig(u: QVector, v: QVector):
    if u.signature != v.signature:
        raise SignatureMismatchError(
            f"signature mismatch: {u.signature} vs {v.signature}"
        )


def exact_basis_vector(sig: Signature, index: int) -> QVector:
    comps = [QGaussian.zero()] * sig.n
    comps[index] = QGaussian.one()
    return QVector(tuple(comps), sig)


def exact_form_eval(u: QVector, v: QVector) -> QGaussian:
    """The Hermitian form evaluated exactly: sum eta_j u_j conj(v_j)."""
    _check_sig(u, v)
    total = QGaussian.zero()
    for j, (a, b) in enumerate(zip(u.components, v.components)):
        term = a * b.conjugate()
        total = total + (term if u.signature.eta[j] > 0 else -term)
    return total


def exact_isotropy(x: QVector) -> bool:
    """Whether f(x, x) == 0 exactly; the zero vector is rejected."""
    if x.is_zero():
        raise DegenerateInputError("isotropy is undefined for the zero vector")
    return exact_form_eval(x, x).is_zero()


def exact_hyperbolic_partner(x: QVector, v_hint: QVector | None = None) -> QVector:
    """Exact twin of the hyperbolic partner: same pivot rule, no rounding."""
    if v_hint is not None:
        v = v_hint
    else:
        best = Fraction(-1)
        pivot = 0
        for j, c in enumerate(x.components):
            n2 = c.norm2()
            if n2 > best:
                best = n2
                pivot = j
        v = exact_basis_vector(x.signature, pivot)
    pairing = exact_form_eval(v, x)
    if pairing.is_zero():
        raise InternalContractError("candidate vector is orthogonal to x")
    vp = v.scale(QGaussian.one() / pairing)
    half = QGaussian(Fraction(1, 2), Fraction(0))
    return vp - x.scale(half * exact_form_eval(vp, vp))


@dataclass(frozen=True)
class RationalChart:
    """Chart data over the Gaussian rationals, validated exactly.

    The oracle does not orthonormalize, so the hyperbolic-pair and
    orthonormality identities must hold on the nose."""

    x: QVector
    u: QVector
    mu_basis: tuple[QVector, ...]

    def __post_init__(self):
        object.__setattr__(self, "mu_basis", tuple(self.mu_basis))
        sig = self.x.signature
        if len(self.mu_basis) != sig.n - 2:
            raise UnsupportedChartError(
                f"need {sig.n - 2} middle vectors, got {len(self.mu_basis)}"
            )
        # f(x, x) = 0 and, as in ChartFrame, the Gram of [u, m...] against
        # [x, u, m...]: f(u, x) = 1, f(m_j, m_k) = eta, all else zero.
        rows = (self.u, *self.mu_basis)
        gram = [[exact_form_eval(a, b) for b in (self.x, *rows)] for a in rows]
        target = [[QGaussian.zero()] * sig.n for _ in rows]
        target[0][0] = QGaussian.one()
        for i in range(1, sig.n - 1):
            target[i][i + 1] = _coerce(int(sig.eta[i]))
        if not exact_form_eval(self.x, self.x).is_zero() or gram != target:
            raise UnsupportedChartError(
                "chart data do not satisfy the chart identities exactly"
            )

    @property
    def signature(self) -> Signature:
        return self.x.signature


def standard_rational_chart(sig: Signature) -> RationalChart:
    """The chart at x = e_1 + e_n with u = (e_1 - e_n)/2 and the standard
    middle basis e_2, ..., e_{n-1}."""
    e_first = exact_basis_vector(sig, 0)
    e_last = exact_basis_vector(sig, sig.n - 1)
    x = e_first + e_last
    u = (e_first - e_last).scale(QGaussian(Fraction(1, 2), Fraction(0)))
    mids = tuple(exact_basis_vector(sig, j) for j in range(1, sig.n - 1))
    return RationalChart(x, u, mids)


def exact_kappa0(chart: RationalChart, r, y_coords) -> QVector:
    """Exact chart map y + u + (-f(y,y)/2 + r i) x."""
    r = _as_fraction(r)
    coords = tuple(_coerce(c) for c in y_coords)
    if len(coords) != chart.signature.n - 2:
        raise ValueError(
            f"expected {chart.signature.n - 2} coordinates, got {len(coords)}"
        )
    y = chart.x.scale(QGaussian.zero())
    for c, m in zip(coords, chart.mu_basis):
        y = y + m.scale(c)
    fyy = exact_form_eval(y, y)
    if fyy.im != 0:
        raise InternalContractError("f(y, y) must be real")
    beta = QGaussian(-fyy.re / 2, r)
    out = y + chart.u + chart.x.scale(beta)
    if not exact_form_eval(out, out).is_zero():
        raise InternalContractError("exact chart output must be isotropic")
    if exact_form_eval(chart.x, out) != QGaussian.one():
        raise InternalContractError("exact chart normalization failed")
    return out


def exact_chart_inverse(chart: RationalChart, b: QVector):
    """Exact chart coordinates of b, or IN_APERP when f(b, x) == 0."""
    pairing = exact_form_eval(b, chart.x)
    if pairing.is_zero():
        return IN_APERP
    z = b.scale(QGaussian.one() / pairing)
    beta = exact_form_eval(z, chart.u)
    y = []
    fyy = Fraction(0)
    for j, m in enumerate(chart.mu_basis):
        sign = 1 if j < chart.signature.p - 1 else -1
        coord = exact_form_eval(z, m) / _coerce(sign)
        y.append(coord)
        fyy += sign * coord.norm2()
    if exact_isotropy(b) and 2 * beta.re != -fyy:
        raise InternalContractError(
            "recovered Re(beta) must equal -f(y,y)/2 for isotropic input"
        )
    return beta.im, tuple(y)


def exact_kappa_roundtrip(chart: RationalChart, r, y_coords) -> bool:
    """Whether chart_inverse(kappa0(r, y)) returns exactly (r, y)."""
    r = _as_fraction(r)
    coords = tuple(_coerce(c) for c in y_coords)
    out = exact_kappa0(chart, r, coords)
    back = exact_chart_inverse(chart, out)
    if back is IN_APERP:
        return False
    r_back, y_back = back
    return r_back == r and y_back == coords


def random_qgaussian(rng: np.random.Generator, max_num: int = 9,
                     max_den: int = 9) -> QGaussian:
    """Small random Gaussian rational drawn from a seeded generator."""
    def frac():
        return Fraction(
            int(rng.integers(-max_num, max_num + 1)),
            int(rng.integers(1, max_den + 1)),
        )

    return QGaussian(frac(), frac())
