"""Exact oracle over the Gaussian rationals Q(i).

Public scalars are pairs of Fractions; vectors keep integer numerators over
one common denominator.  Inside, a scalar is an integer triple, so the
vector arithmetic, the form and the chart maps are integer sums, and
Fractions are built only for what is returned.
Nothing is rounded, so identities over the rationals (isotropy of the chart
map, chart round trips) are asserted with ==, not tolerances.  The oracle
never orthonormalizes: it only accepts charts whose data already satisfy
the chart identities exactly, such as the standard chart at x = e_1 + e_n.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import gcd, lcm

import numpy as np

from .charts import IN_APERP
from .core import CVector, Signature
from .errors import (DegenerateInputError, InternalContractError,
                     SignatureMismatchError, UnsupportedChartError)

__all__ = [
    "QGaussian", "QVector", "RationalChart", "qi", "exact_form_eval",
    "exact_isotropy", "exact_basis_vector", "exact_hyperbolic_partner",
    "standard_rational_chart", "exact_kappa0", "exact_chart_inverse",
    "exact_kappa_roundtrip", "random_qgaussian",
]


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
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
        return self + -_coerce(other)

    def __rsub__(self, other) -> "QGaussian":
        return _coerce(other) - self

    def __neg__(self) -> "QGaussian":
        return QGaussian(-self.re, -self.im)

    def __mul__(self, other) -> "QGaussian":
        o = _coerce(other)
        return QGaussian(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "QGaussian":
        o = _coerce(other)
        n2 = o.norm2()
        if n2 == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return self * QGaussian(o.re / n2, -o.im / n2)

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


def _coerce(value) -> QGaussian:
    if isinstance(value, QGaussian):
        return value
    if isinstance(value, (int, Fraction)):
        return QGaussian(Fraction(value), Fraction(0))
    raise TypeError(f"cannot coerce {type(value).__name__} to QGaussian")


def qi(re=0, im=0) -> QGaussian:
    """Shorthand constructor from ints, Fractions, or fraction strings;
    floats are rejected, as by QGaussian."""
    return QGaussian(re, im)


# Inside the oracle a Gaussian rational is an integer triple (a, b, d),
# meaning (a + b i) / d with d > 0.
_UNIT = (1, 0, 1)


def _one_den(z: QGaussian) -> tuple[int, int, int]:
    """(a, b, d) with z = (a + b i) / d and d > 0."""
    d = lcm(z.re.denominator, z.im.denominator)
    return (z.re.numerator * (d // z.re.denominator),
            z.im.numerator * (d // z.im.denominator), d)


def _gaussian(a: int, b: int, d: int) -> QGaussian:
    """The triple (a, b, d) as a QGaussian; its parts are Fractions already,
    so QGaussian's coercion is skipped."""
    z = object.__new__(QGaussian)
    z.__dict__.update(re=Fraction(a, d), im=Fraction(b, d))
    return z


def _reciprocal(a: int, b: int, d: int) -> tuple[int, int, int]:
    """1 / ((a + b i) / d) = d (a - b i) / (a^2 + b^2), for a + b i != 0."""
    return d * a, -d * b, a * a + b * b


@dataclass(frozen=True, init=False)
class QVector:
    """Vector over the Gaussian rationals tagged with a signature.

    Component j is (re[j] + im[j] i) / den, with den > 0 and all numerators
    and den reduced by their joint gcd: equal vectors have equal fields, so
    == and hash do not depend on how the components were written."""

    re: tuple[int, ...]
    im: tuple[int, ...]
    den: int
    signature: Signature

    def __init__(self, components, signature: Signature):
        comps = [_one_den(_coerce(c)) for c in components]
        if len(comps) != signature.n:
            raise ValueError(f"expected {signature.n} components, got {len(comps)}")
        den = lcm(*(d for _, _, d in comps))
        _vector([a * (den // d) for a, _, d in comps],
                [b * (den // d) for _, b, d in comps], den, signature, self)

    @property
    def components(self) -> tuple[QGaussian, ...]:
        return tuple(_gaussian(a, b, self.den) for a, b in zip(self.re, self.im))

    def __add__(self, other: "QVector") -> "QVector":
        _check_sig(self, other)
        return _combine(((_UNIT, self), (_UNIT, other)), self.signature)

    def __sub__(self, other: "QVector") -> "QVector":
        return self + -other

    def __neg__(self) -> "QVector":
        return _vector([-a for a in self.re], [-b for b in self.im],
                       self.den, self.signature)

    def scale(self, factor) -> "QVector":
        return _combine(((_one_den(_coerce(factor)), self),), self.signature)

    def is_zero(self) -> bool:
        return not any(self.re) and not any(self.im)

    def to_cvector(self) -> CVector:
        # int / int rounds correctly, as float(Fraction) does.
        return CVector(np.array([complex(a / self.den, b / self.den)
                                 for a, b in zip(self.re, self.im)]), self.signature)


def _vector(re, im, den: int, sig: Signature, vec: QVector | None = None) -> QVector:
    """(re + im i) / den for den > 0, reduced; fills vec when it is given."""
    vec = object.__new__(QVector) if vec is None else vec
    g = gcd(den, *re, *im)
    vec.__dict__.update(re=tuple(a // g for a in re), im=tuple(b // g for b in im),
                        den=den // g, signature=sig)
    return vec


def _combine(terms, sig: Signature) -> QVector:
    """sum c v over (c, v) in terms, each c an (a, b, d) triple, as integers
    over the lcm of the products d * v.den.  Zero entries are skipped, so a
    term on a basis vector costs one multiply-add."""
    den = lcm(*(d * v.den for (_, _, d), v in terms))
    re, im = [0] * sig.n, [0] * sig.n
    for (a, b, d), v in terms:
        s = den // (d * v.den)
        a, b = a * s, b * s
        for j, (c, e) in enumerate(zip(v.re, v.im)):
            if c or e:
                re[j] += a * c - b * e
                im[j] += a * e + b * c
    return _vector(re, im, den, sig)


def _check_sig(u: QVector, v: QVector):
    if u.signature != v.signature:
        raise SignatureMismatchError(f"signature mismatch: {u.signature} vs {v.signature}")


def exact_basis_vector(sig: Signature, index: int) -> QVector:
    re = [0] * sig.n
    re[index] = 1
    return _vector(re, [0] * sig.n, 1, sig)


def _pairing(u: QVector, v: QVector) -> tuple[int, int, int]:
    """f(u, v) as (a, b, d) with f = (a + b i) / d: integer multiply-adds
    over the product of the two denominators, one per nonzero entry of v."""
    _check_sig(u, v)
    p = u.signature.p
    re = im = 0
    for j, (a, b, c, d) in enumerate(zip(u.re, u.im, v.re, v.im)):
        if c or d:
            if j < p:
                re += a * c + b * d
                im += b * c - a * d
            else:
                re -= a * c + b * d
                im -= b * c - a * d
    return re, im, u.den * v.den


def exact_form_eval(u: QVector, v: QVector) -> QGaussian:
    """The Hermitian form evaluated exactly: sum eta_j u_j conj(v_j)."""
    return _gaussian(*_pairing(u, v))


def exact_isotropy(x: QVector) -> bool:
    """Whether f(x, x) == 0 exactly; the zero vector is rejected."""
    if x.is_zero():
        raise DegenerateInputError("isotropy is undefined for the zero vector")
    return not any(_pairing(x, x)[:2])


def exact_hyperbolic_partner(x: QVector, v_hint: QVector | None = None) -> QVector:
    """Exact twin of the hyperbolic partner: same pivot rule, no rounding."""
    v = v_hint
    if v is None:
        # den^2 |x_j|^2; the first maximum is the pivot.
        norms = [a * a + b * b for a, b in zip(x.re, x.im)]
        v = exact_basis_vector(x.signature, norms.index(max(norms)))
    a, b, d = _pairing(v, x)
    if not (a or b):
        raise InternalContractError("candidate vector is orthogonal to x")
    sig = x.signature
    vp = _combine(((_reciprocal(a, b, d), v),), sig)
    a, b, d = _pairing(vp, vp)
    return _combine(((_UNIT, vp), ((-a, -b, 2 * d), x)), sig)


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
            target[i][i + 1] = qi(1 if i < sig.p else -1)
        fxx = exact_form_eval(self.x, self.x)
        if not fxx.is_zero() or gram != target:
            deviations = [fxx] + [g - t for g_row, t_row in zip(gram, target)
                                  for g, t in zip(g_row, t_row)]
            raise UnsupportedChartError(
                "chart data do not satisfy the chart identities exactly",
                residual=max(abs(d.to_complex()) for d in deviations),
                threshold=0.0,
            )

    @property
    def signature(self) -> Signature:
        return self.x.signature


@cache
def standard_rational_chart(sig: Signature) -> RationalChart:
    """The chart at x = e_1 + e_n with u = (e_1 - e_n)/2 and the standard
    middle basis e_2, ..., e_{n-1}.  It is built and validated once per
    signature; the chart is immutable, so every caller shares it."""
    e = [exact_basis_vector(sig, j) for j in range(sig.n)]
    return RationalChart(e[0] + e[-1], (e[0] - e[-1]).scale(Fraction(1, 2)), tuple(e[1:-1]))


def exact_kappa0(chart: RationalChart, r, y_coords) -> QVector:
    """Exact chart map y + u + (-f(y,y)/2 + r i) x."""
    r = _as_fraction(r)
    coords = [_one_den(_coerce(c)) for c in y_coords]
    sig = chart.signature
    if len(coords) != sig.n - 2:
        raise ValueError(f"expected {sig.n - 2} coordinates, got {len(coords)}")
    y = _combine(tuple(zip(coords, chart.mu_basis)), sig)
    a, b, d = _pairing(y, y)
    if b:
        raise InternalContractError("f(y, y) must be real")
    # beta = -f(y, y)/2 + r i over the denominator 2 d r.den
    beta = (-a * r.denominator, 2 * d * r.numerator, 2 * d * r.denominator)
    out = _combine(((_UNIT, y), (_UNIT, chart.u), (beta, chart.x)), sig)
    a, b, _ = _pairing(out, out)
    if a or b:
        raise InternalContractError("exact chart output must be isotropic")
    # f(x, out) = 1 exactly when its conjugate f(out, x) is; _pairing skips
    # the zero entries of its second argument.
    a, b, d = _pairing(out, chart.x)
    if a != d or b:
        raise InternalContractError("exact chart normalization failed")
    return out


def exact_chart_inverse(chart: RationalChart, b: QVector):
    """Exact chart coordinates of b, or IN_APERP when f(b, x) == 0."""
    fbx = _pairing(b, chart.x)
    if not (fbx[0] or fbx[1]):
        return IN_APERP
    z = _combine(((_reciprocal(*fbx), b),), chart.signature)
    beta_re, beta_im, beta_den = _pairing(z, chart.u)
    # y_j = eta_j f(z, m_j), with eta_j = 1 for the first p - 1 middles.
    p = chart.signature.p - 1
    y = [_pairing(z, m) for m in chart.mu_basis]
    if exact_isotropy(b):
        # f(y, y) = sum eta_j |y_j|^2 = N / L^2 over the lcm L of the dens.
        den = lcm(*(d for _, _, d in y))
        num = sum((1 if j < p else -1) * (re * re + im * im) * (den // d) ** 2
                  for j, (re, im, d) in enumerate(y))
        if 2 * beta_re * den * den != -num * beta_den:
            raise InternalContractError(
                "recovered Re(beta) must equal -f(y,y)/2 for isotropic input"
            )
    return Fraction(beta_im, beta_den), tuple(
        _gaussian(re, im, d) if j < p else _gaussian(-re, -im, d)
        for j, (re, im, d) in enumerate(y))


def exact_kappa_roundtrip(chart: RationalChart, r, y_coords) -> bool:
    """Whether chart_inverse(kappa0(r, y)) returns exactly (r, y)."""
    r = _as_fraction(r)
    coords = tuple(_coerce(c) for c in y_coords)
    back = exact_chart_inverse(chart, exact_kappa0(chart, r, coords))
    return back is not IN_APERP and back == (r, coords)


def random_qgaussian(rng: np.random.Generator, max_num: int = 9,
                     max_den: int = 9) -> QGaussian:
    """Small random Gaussian rational drawn from a seeded generator."""
    return QGaussian(*(Fraction(int(rng.integers(-max_num, max_num + 1)),
                                int(rng.integers(1, max_den + 1))) for _ in range(2)))
