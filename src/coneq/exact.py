"""Exact oracle over the Gaussian rationals Q(i).

A scalar (QGaussian) is an integer triple (a, b, d), meaning (a + b i) / d,
and a vector keeps integer numerators over one common denominator, so the
arithmetic, the form and the chart maps are integer sums.  Nothing is
rounded: identities over the rationals (isotropy of the chart map, chart
round trips) are asserted with ==, not tolerances.  The oracle never
orthonormalizes; it only accepts charts whose data already satisfy the chart
identities exactly, such as the standard chart at x = e_1 + e_n.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from math import gcd, inf, lcm, ldexp, sqrt, ulp

import numpy as np

from .charts import IN_APERP
from .core import CVector, Signature, _owned
from .errors import (DegenerateInputError, InternalContractError,
                     SignatureMismatchError, UnsupportedChartError, certify)

__all__ = [
    "QGaussian", "QVector", "RationalChart", "exact_form_eval",
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


@dataclass(frozen=True, init=False)
class QGaussian:
    """Gaussian rational (a + b i) / d in integers, d > 0 and gcd(a, b, d) = 1:
    equal values have equal fields.  QGaussian(re, im) takes ints, Fractions
    or fraction strings; floats are rejected."""

    a: int
    b: int
    d: int

    def __init__(self, re=0, im=0):
        re, im = _as_fraction(re), _as_fraction(im)
        _gaussian(re.numerator * im.denominator, im.numerator * re.denominator,
                  re.denominator * im.denominator, self)

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    @classmethod
    def zero(cls) -> "QGaussian":
        return _gaussian(0, 0, 1)

    @classmethod
    def one(cls) -> "QGaussian":
        return _gaussian(1, 0, 1)

    def __add__(self, other) -> "QGaussian":
        o = _coerce(other)
        return _gaussian(self.a * o.d + o.a * self.d, self.b * o.d + o.b * self.d,
                         self.d * o.d)

    __radd__ = __add__

    def __sub__(self, other) -> "QGaussian":
        return self + -_coerce(other)

    def __rsub__(self, other) -> "QGaussian":
        return _coerce(other) + -self

    def __neg__(self) -> "QGaussian":
        return _gaussian(-self.a, -self.b, self.d)

    def __mul__(self, other) -> "QGaussian":
        o = _coerce(other)
        return _gaussian(self.a * o.a - self.b * o.b, self.a * o.b + self.b * o.a,
                         self.d * o.d)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "QGaussian":
        # (a + b i)/d / ((c + e i)/f) = f (a + b i)(c - e i) / (d (c^2 + e^2))
        o = _coerce(other)
        n2 = o.a * o.a + o.b * o.b
        if not n2:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return _gaussian(o.d * (self.a * o.a + self.b * o.b),
                         o.d * (self.b * o.a - self.a * o.b), self.d * n2)

    def __rtruediv__(self, other) -> "QGaussian":
        return _coerce(other) / self

    def conjugate(self) -> "QGaussian":
        return _gaussian(self.a, -self.b, self.d)

    def norm2(self) -> Fraction:
        """|z|^2 = (a^2 + b^2) / d^2, exact."""
        return Fraction(self.a * self.a + self.b * self.b, self.d * self.d)

    def is_zero(self) -> bool:
        return not (self.a or self.b)

    def to_complex(self) -> complex:
        # int / int rounds correctly, as float(Fraction) does.
        return complex(self.a / self.d, self.b / self.d)


def _gaussian(a: int, b: int, d: int, z: QGaussian | None = None) -> QGaussian:
    """(a + b i) / d for d > 0, reduced; fills z when it is given."""
    g = gcd(a, b, d)
    z = object.__new__(QGaussian) if z is None else z
    z.__dict__.update(a=a // g, b=b // g, d=d // g)
    return z


def _coerce(value) -> QGaussian:
    if isinstance(value, QGaussian):
        return value
    if isinstance(value, (int, Fraction)):
        return QGaussian(value)
    raise TypeError(f"cannot coerce {type(value).__name__} to QGaussian")


_UNIT = QGaussian.one()


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
        comps = [_coerce(c) for c in components]
        if len(comps) != signature.n:
            raise ValueError(f"expected {signature.n} components, got {len(comps)}")
        den = lcm(*(c.d for c in comps))
        _vector([c.a * (den // c.d) for c in comps],
                [c.b * (den // c.d) for c in comps], den, signature, self)

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
        return _combine(((_coerce(factor), self),), self.signature)

    @cached_property
    def _support(self) -> tuple[tuple[int, int, int, int], ...]:
        """(j, re[j], im[j], eta_j) at each nonzero entry j; not a field."""
        p = self.signature.p
        return tuple((j, c, e, 1 if j < p else -1)
                     for j, (c, e) in enumerate(zip(self.re, self.im)) if c or e)

    def is_zero(self) -> bool:
        return not any(self.re) and not any(self.im)

    def to_cvector(self) -> CVector:
        # int / int rounds correctly, as float(Fraction) does.
        return _owned(np.array([complex(a / self.den, b / self.den)
                                for a, b in zip(self.re, self.im)]), self.signature)


def _vector(re, im, den: int, sig: Signature, vec: QVector | None = None) -> QVector:
    """(re + im i) / den for den > 0, reduced; fills vec when it is given."""
    vec = object.__new__(QVector) if vec is None else vec
    g = gcd(den, *re, *im)
    vec.__dict__.update(re=tuple(a // g for a in re), im=tuple(b // g for b in im),
                        den=den // g, signature=sig)
    return vec


def _combine(terms, sig: Signature) -> QVector:
    """sum z v over (z, v) in terms, each z a QGaussian, as integers over the
    lcm of the products z.d * v.den.  Each term runs over v's support, so a
    term on a basis vector costs one multiply-add."""
    den = lcm(*(z.d * v.den for z, v in terms))
    re, im = [0] * sig.n, [0] * sig.n
    for z, v in terms:
        s = den // (z.d * v.den)
        a, b = z.a * s, z.b * s
        for j, c, e, _ in v._support:
            re[j] += a * c - b * e
            im[j] += a * e + b * c
    return _vector(re, im, den, sig)


def _check_sig(u: QVector, v: QVector):
    if u.signature is not v.signature and u.signature != v.signature:
        raise SignatureMismatchError(f"signature mismatch: {u.signature} vs {v.signature}")


def exact_basis_vector(sig: Signature, index: int) -> QVector:
    re = [0] * sig.n
    re[index] = 1
    return _vector(re, [0] * sig.n, 1, sig)


def _pairing(u: QVector, v: QVector) -> tuple[int, int, int]:
    """f(u, v) as (a, b, d) with f = (a + b i) / d: integer multiply-adds
    over the product of the two denominators, one per entry of v's support."""
    _check_sig(u, v)
    ure, uim = u.re, u.im
    re = im = 0
    for j, c, d, eta in v._support:
        a, b = (ure[j], uim[j]) if eta > 0 else (-ure[j], -uim[j])
        re += a * c + b * d
        im += b * c - a * d
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
    # 1 / f(v, x) = d (a - b i) / (a^2 + b^2) for f(v, x) = (a + b i) / d.
    vp = _combine(((_gaussian(d * a, -d * b, a * a + b * b), v),), sig)
    a, b, d = _pairing(vp, vp)
    return _combine(((_UNIT, vp), (_gaussian(-a, -b, 2 * d), x)), sig)


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
            target[i][i + 1] = QGaussian(1 if i < sig.p else -1)
        fxx = exact_form_eval(self.x, self.x)
        if not fxx.is_zero() or gram != target:
            # max |deviation|, via w / 4^e in [1/2, 4): inf past floats, never 0.
            w = max(d.norm2() for d in [fxx] + [g - t for g_row, t_row in zip(gram, target)
                                                for g, t in zip(g_row, t_row)])
            e = (w.numerator.bit_length() - w.denominator.bit_length()) // 2
            try:
                residual = max(ldexp(sqrt(w / Fraction(4) ** e), e), ulp(0.0))
            except OverflowError:
                residual = inf
            certify(residual, 0.0, UnsupportedChartError,
                    "chart data do not satisfy the chart identities exactly")

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
    """Exact chart map y + u + (-f(y,y)/2 + r i) x, formed in one combination."""
    r = _as_fraction(r)
    coords = [_coerce(c) for c in y_coords]
    sig = chart.signature
    if len(coords) != sig.n - 2:
        raise ValueError(f"expected {sig.n - 2} coordinates, got {len(coords)}")
    # f(y, y) = sum eta_j |c_j|^2 on the eta-orthonormal middles, N / L^2 for L = lcm(dens).
    p, den = sig.p - 1, lcm(*(c.d for c in coords))
    num = sum((1 if j < p else -1) * (c.a * c.a + c.b * c.b) * (den // c.d) ** 2
              for j, c in enumerate(coords))
    d = 2 * den * den
    beta = _gaussian(-num * r.denominator, d * r.numerator, d * r.denominator)
    out = _combine((*zip(coords, chart.mu_basis), (_UNIT, chart.u), (beta, chart.x)), sig)
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
    fa, fb, fd = _pairing(b, chart.x)
    if not (fa or fb):
        return IN_APERP
    z = _combine(((_gaussian(fd * fa, -fd * fb, fa * fa + fb * fb), b),), chart.signature)
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
    """Small random Gaussian rational drawn from a seeded generator: re =
    n1/d1, then im = n2/d2, put straight over d1 d2 and reduced once."""
    n1, d1, n2, d2 = (int(rng.integers(lo, hi)) for lo, hi
                      in ((-max_num, max_num + 1), (1, max_den + 1)) * 2)
    return _gaussian(n1 * d2, n2 * d1, d1 * d2)
