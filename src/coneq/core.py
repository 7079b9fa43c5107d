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
import threading
from dataclasses import InitVar, dataclass, field
from functools import cached_property, partial

import numpy as np

from .errors import (
    DegenerateInputError,
    InternalContractError,
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
    return np.random.Generator(np.random.Philox(_seed_sequence(seed, path)))


def _seed_sequence(seed: int, path: tuple) -> np.random.SeedSequence:
    """make_rng's SeedSequence, seed and path coerced by int() (and rejected as it rejects)."""
    return np.random.SeedSequence(int(seed), spawn_key=tuple(map(int, path)))


# numpy's SeedSequence hash constants (bit_generator.pyx; NEP 19 keeps its output stable).
_INIT_A, _MULT_A, _MIX_L, _MIX_R = 0x43B0D7E5, 0x931E8875, 0xCA01F9DD, 0x4973F715
_HASH_B = tuple(0x8B51F9DD * pow(0x58F38DED, i, 2**32) % 2**32  # INIT_B MULT_B^i
                for i in range(5))
_KEY_BLOCK = 1024


def _output_hash(pool) -> tuple:
    """Philox's key [k0, k1], SeedSequence.generate_state(2, uint64), from the 4
    words of its pool: Python ints, or uint64 arrays of words for a key per entry."""
    a, b, c, d = [(v := (w ^ h) * m & 0xFFFFFFFF) ^ v >> 16
                  for w, h, m in zip(pool, _HASH_B, _HASH_B[1:])]
    return a | b << 32, c | d << 32


def _trial_keys(seed: int, prefix: tuple[int, ...], start: int, stop: int) -> list:
    """Philox keys [k0, k1] of make_rng(seed, *prefix, k), start <= k < stop <= 2^32:
    k hashed into SeedSequence(seed, spawn_key=prefix)'s pool, then _output_hash,
    over all k at once.  Constants are Python ints mod 2^32: numpy scalars warn."""
    ss = np.random.SeedSequence(seed, spawn_key=prefix)
    sizes = [max(1, -(-int(n).bit_length() // 32)) for n in (seed, *prefix)]
    j = 4 * (max(4, sizes[0]) + sum(sizes[1:]))  # hashmix calls before k's
    h = np.array([[_INIT_A * pow(_MULT_A, j + i, 2**32) % 2**32] for i in range(5)], np.uint32)
    v = (np.arange(start, stop, dtype=np.uint32) ^ h[:4]) * h[1:]  # 4 hashmix
    v ^= v >> 16
    w = np.array([[_MIX_L * c % 2**32] for c in ss.pool.tolist()], np.uint32) - _MIX_R * v
    w ^= w >> 16
    return np.stack(_output_hash(w.astype(np.uint64)), axis=1).tolist()


def _rekey(rng: np.random.Generator, key: list) -> np.random.Generator:
    """rng with Philox key `key`, counter 0 and an empty buffer: the stream of
    every SeedSequence whose generate_state(2, uint64) is key, since a
    counter-based generator's key fixes its stream (Salmon et al., SC'11)."""
    rng.bit_generator.state = {
        "bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": key},
        "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return rng


def _trial_key_blocks(rng: np.random.Generator, seed: int, prefix: tuple[int, ...], n: int):
    """Yield the Philox keys of make_rng(seed, *prefix, k), 0 <= k < n, a list per
    block of _KEY_BLOCK trials.  Key 0 is read off rng = make_rng(seed, *prefix, 0);
    the others are hashed a block at a time, each block's first certified against
    numpy's SeedSequence."""
    for start in range(0, n, _KEY_BLOCK):
        keys = [] if start else [rng.bit_generator.state["state"]["key"].tolist()]
        if (lo := max(start, 1)) < (stop := min(n, start + _KEY_BLOCK)):
            hashed = _trial_keys(seed, prefix, lo, stop)
            want = np.random.SeedSequence(seed, spawn_key=(*prefix, lo)).generate_state(2, "u8")
            if hashed[0] != want.tolist():
                raise InternalContractError(f"trial key {lo}: {hashed[0]}, numpy's {want}")
            keys += hashed
        yield keys


def _trial_streams(seed: int, prefix: tuple[int, ...], n: int):
    """Yield one Generator n >= 1 times, re-keyed to make_rng(seed, *prefix, k)'s stream."""
    rng = make_rng(seed, *prefix, 0)
    for keys in _trial_key_blocks(rng, seed, prefix, n):
        for key in keys:
            yield _rekey(rng, key)


def _trial_points(sig: Signature, seed: int, n: int):
    """Yield (rng, draw) n >= 1 times, rng as _trial_streams(seed, (p, q), n) yields
    it: draw() is sample_cone_point(sig, rng) on trial k's fresh stream, bit for
    bit, and leaves rng where that call leaves it.  _cone_points draws a key
    block's points at once."""
    rng = make_rng(seed, sig.p, sig.q, 0)
    for keys in _trial_key_blocks(rng, seed, (sig.p, sig.q), n):
        for draw in _cone_points(sig, rng, keys):
            yield rng, draw


def _cone_points(sig: Signature, rng: np.random.Generator, keys: list):
    """Yield one draw per Philox key, in order: draw() is sample_cone_point(sig, rng)
    on the key's fresh stream, bit for bit, with rng left where the sampler
    leaves it.  Call each draw before taking the next.

    Each key's draws come first, as the sampler makes them: standard_normal(2n + 1)
    then uniform(0, 2 pi).  Then the unit blocks, scale, phase, |x_j| and the
    isotropy block sums run once over all rows, each row meeting the sampler's
    own operations: the same elementwise ufuncs, and one strided ddot per part
    and row (np.vecdot on the .real and .imag views, as ndarray.dot and np.vdot
    take them in _sum_sq).  A row's ConePoint is built with its _moduli and
    _sums kept, so its constructor certifies it from them.  Before a row's draw
    rng is re-keyed and the row's draws replayed, which costs what saving and
    restoring its state would and keeps no state per row.  A row whose block
    norm is below 1e-6 (the sampler draws that block again) or whose top |x_j|
    is outside _pow2_scale's unit range is left to sample_cone_point."""
    size, p = 2 * sig.n + 1, sig.p
    draws, turns = np.empty((len(keys), size)), np.empty(len(keys))
    for i, key in enumerate(keys):
        draws[i] = _rekey(rng, key).standard_normal(size)
        turns[i] = rng.uniform(0, 2 * np.pi)
    # A declined row may divide by a vanishing norm; its values are not used.
    with np.errstate(all="ignore"):
        blocks, norms = [], []
        for lo, k in ((0, p), (2 * p, sig.q)):
            z = draws[:, lo:lo + k] + 1j * draws[:, lo + k:lo + 2 * k]
            norms.append(np.sqrt(np.vecdot(z.real, z.real) + np.vecdot(z.imag, z.imag)))
            blocks.append(z / norms[-1][:, None])
        c = np.exp(0.75 * draws[:, -1]) * np.exp(1j * turns)
        x = c[:, None] * np.concatenate(blocks, axis=1)
        mods = np.abs(x)
        xp, xm = x[:, :p], x[:, p:]
        plus = (np.vecdot(xp.real, xp.real) + np.vecdot(xp.imag, xp.imag)).tolist()
        minus = (np.vecdot(xm.real, xm.real) + np.vecdot(xm.imag, xm.imag)).tolist()
        tops = mods.max(axis=1)
    x.flags.writeable = mods.flags.writeable = False
    kept = ((np.minimum(*norms) >= 1e-6) & (1e-153 < tops) & (tops < 1e150)).tolist()
    for i, (key, top) in enumerate(zip(keys, tops.tolist())):
        _rekey(rng, key)
        if not kept[i]:
            yield partial(sample_cone_point, sig, rng)
            continue
        rng.standard_normal(size)
        rng.uniform(0, 2 * np.pi)
        vec = _owned(x[i], sig)
        vec.__dict__.update(_moduli=(mods[i], top), _sums=(plus[i], minus[i], 1.0))
        yield partial(ConePoint, vec, 1e-12)


_THREAD = threading.local()


def _stream(seed: int | np.random.Generator, *path: int) -> np.random.Generator:
    """The stream a seeded sampler draws from: seed itself when it is a
    Generator, drawn from in place, else make_rng(seed, *path)'s, bit for bit:
    this thread's one generator re-keyed to that stream, valid until the
    thread's next int-seeded call.  Each thread's first key is certified
    against numpy's SeedSequence."""
    if isinstance(seed, np.random.Generator):
        return seed
    ss = _seed_sequence(seed, path)
    key = list(_output_hash(ss.pool.tolist()))
    rng = getattr(_THREAD, "rng", None)
    if rng is None:
        want = ss.generate_state(2, "u8").tolist()
        if key != want:
            raise InternalContractError(f"stream key {key}, numpy's {want}")
        rng = _THREAD.rng = np.random.Generator(np.random.Philox(ss))
    return _rekey(rng, key)


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


@dataclass(frozen=True, eq=False)
class CVector:
    """Vector in C^n tagged with the signature of its ambient space."""

    components: np.ndarray
    signature: Signature

    # Keep numpy scalars from hijacking arithmetic via ufunc dispatch.
    __array_ufunc__ = None

    def __post_init__(self):
        arr = np.array(self.components, dtype=np.complex128)
        if arr.shape != (self.signature.n,):
            raise ValueError(f"expected {self.signature.n} components, got shape {arr.shape}")
        arr.flags.writeable = False
        object.__setattr__(self, "components", arr)

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
        return float(_norm(self.components, self.__dict__.get("_moduli", (0, math.inf))[1]))

    def _modulus_pass(self) -> tuple[np.ndarray, float]:
        """(|v_j| read-only, max|v_j|), formed on first use (normally by
        ConePoint's certificate) and kept in the instance dict for every later
        query.  max is nan when a component is, else inf if one is infinite."""
        kept = self.__dict__.get("_moduli")
        if kept is None:
            mods = np.abs(self.components)
            mods.flags.writeable = False
            kept = self.__dict__["_moduli"] = (mods, float(mods.max()))
        return kept

    def _block_sums(self) -> tuple[float, float, float]:
        """(S+, S-, s): _norm's sums on the standard blocks of v s, s from
        _pow2_scaled(v, max|v_j|), for a finite nonzero v; kept like _moduli."""
        kept = self.__dict__.get("_sums")
        if kept is None:
            c, s = _pow2_scaled(self.components, self._modulus_pass()[1])
            p = self.signature.p
            kept = self.__dict__["_sums"] = (_sum_sq(c[:p]), _sum_sq(c[p:]), s)
        return kept

    def to_json(self) -> dict:
        return {
            "signature": self.signature.to_json(),
            "components": [[float(c.real), float(c.imag)] for c in self.components],
        }


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


def _sum_sq(a: np.ndarray, dot=np.ndarray.dot) -> float:
    """sum |a_j|^2 as np.linalg.norm sums it: re.re + im.im on the raveled a."""
    a = a.ravel(order="K")
    if a.dtype.kind == "c":
        re, im = a.real, a.imag
        return float(dot(re, re)) + float(dot(im, im))
    return float(dot(a, a))


def _norm(a: np.ndarray, top: float = math.inf) -> np.float64:
    """2-norm of a real or complex array, right at every finite scale.

    In range it is np.linalg.norm(a) bit for bit: _sum_sq by ndarray.dot in
    place when top, max|a_j| or a bound on it, is below 1e150, else by
    np.vdot, which does not warn on overflow.  When the sum is below 1e-290
    (above it a subnormal square is off by under 2^-59 of its last place) or
    inf, and every entry is finite, it is taken again on a times
    _pow2_balance(max|a_j|) and the scale undone, so a rescale by 2^k keeps
    every bit of a normal result."""
    ss = _sum_sq(a, np.ndarray.dot if top < 1e150 else np.vdot)
    if not 1e-290 <= ss < math.inf:
        top = float(np.abs(a).max()) if a.size else 0.0
        if 0.0 < top < math.inf:
            # The balanced array's sum is in range: one level of recursion.
            s = _pow2_balance(top)
            return np.float64(float(_norm(a * s)) / s)
    return np.float64(math.sqrt(ss))


def basis_vector(sig: Signature, index: int) -> CVector:
    """Standard basis vector e_index (0-based) of H_{p,q}."""
    comps = np.zeros(sig.n, dtype=np.complex128)
    comps[index] = 1.0
    return _owned(comps, sig)


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
    else _pow2_balance(top)."""
    if 1e-153 < top < 1e150:
        return 1.0
    return _pow2_balance(top)


def _pow2_balance(top: float) -> float:
    """2^-e for top = m 2^e, 0.5 <= m < 1, at most 2^1023: the power of two
    that brings top into [0.5, 1) (or above 2^-52 from a subnormal top)."""
    return math.ldexp(1.0, min(-math.frexp(top)[1], 1023))


def _pow2_scaled(a: np.ndarray, top):
    """(a s, s), the one scale rule: s = _pow2_scale(top), top = max|a_j| or a
    bound on it (a as is when s is 1.0), or per column of a 2-D a for a list
    of tops.  A power of two scales every sum exactly (Anderson, ACM TOMS
    44, 2017): sums on the result keep their bits and never over- or underflow."""
    if isinstance(top, list):
        s = [_pow2_scale(t) for t in top]
        return (a * np.array(s), s) if any(t != 1.0 for t in s) else (a, s)
    s = _pow2_scale(top)
    return (a, s) if s == 1.0 else (a * s, s)


def _isotropy_sums(vec: CVector) -> tuple[float, float]:
    """(|f(x, x)|, ||x||^2) = (|S+ - S-|, S+ + S-) off vec's kept block sums;
    (nan, 0, inf or nan) for a zero or non-finite x, which ConePoint rejects."""
    top = vec._modulus_pass()[1]
    if not 0.0 < top < math.inf:
        return math.nan, top
    plus, minus, _ = vec._block_sums()
    return abs(plus - minus), plus + minus


@dataclass(frozen=True, eq=False)
class ConePoint:
    """A nonzero vector certified isotropic at construction time."""

    vector: CVector
    tol: InitVar[float] = DEFAULT_TOL
    isotropy_residual: float = field(init=False)
    # Data derived from x alone, kept by the modules that compute it: "unit"
    # (_unit), the default chart frame ("witt", "witt_views", "witt_pairing"),
    # the default quotient Gram ("quotient_gram"), the ray representative under
    # the standard split ("ray") and, on its point, the projective one ("proj").
    # None refers back to the point, so a dropped point is freed by its
    # reference count.
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


def _unit(x: ConePoint) -> tuple[np.ndarray, float, float]:
    """(x^, s, ||x||), kept on x: x^ = s x, read-only, for s =
    _pow2_balance(||x||), taken at every scale (unlike _pow2_scaled), so x
    and 2^k x share x^ bit for bit.  The chart frame and the metrics'
    balanced frame are built on it."""
    kept = x._derived.get("unit")
    if kept is None:
        s = _pow2_balance(norm := float(_norm(x.components, x.vector._modulus_pass()[1])))
        # Each real part times s, which keeps the sign of a zero where a
        # complex product with s + 0i can flip it.
        xh = (np.ascontiguousarray(x.components).view(np.float64) * s).view(np.complex128)
        xh.flags.writeable = False
        kept = x._derived["unit"] = (xh, s, norm)
    return kept


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
        _check_same_signature(v, self)
        return _owned(self.matrix @ v.components, self.signature)


def verify_isometry(u: GroupElement, tol: float = DEFAULT_TOL) -> bool:
    """Whether ||U^dagger eta U - eta||_max <= tol for a GroupElement U."""
    return _pseudo_unitarity_residual(u.matrix, u.signature) <= tol


def sample_cone_point(sig: Signature, seed: int | np.random.Generator) -> ConePoint:
    """Isotropic sample: unit complex-normal directions on the positive and
    negative blocks, then a common log-normal scale and phase.  An int seed
    draws from make_rng(seed), so it gives the same point on every call; a
    Generator is drawn from in place."""
    rng = _stream(seed)
    p, q = sig.p, sig.q

    def unit_block(k):
        z = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        while (size := _norm(z)) < 1e-6:
            z = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        return z / size

    xp = unit_block(p)
    xm = unit_block(q)
    c = np.exp(0.75 * rng.standard_normal()) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    return ConePoint(_owned(c * np.concatenate([xp, xm]), sig), tol=1e-12)


def sample_pseudo_unitary(sig: Signature,
                          seed: int | np.random.Generator) -> GroupElement:
    """Pseudo-unitary sample: the Cayley transform
    U = (I - A/2)^-1 (I + A/2) of A = eta B, B anti-Hermitian.

    A^dagger eta + eta A = 0, so U preserves the form in exact arithmetic
    (Iserles et al., Acta Numerica 9, 2000).  A is normalized to Frobenius
    norm 1, so ||A||_2 <= 1 keeps I - A/2 invertible; a zero A gives I.
    The seed is an int, for make_rng(seed), or a Generator drawn from in
    place, as in sample_cone_point.
    """
    rng = _stream(seed)
    n = sig.n
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    b = (g - g.conj().T) / 2.0
    a = sig.eta[:, None] * b
    nrm = np.linalg.norm(a)
    if nrm > 0:
        a = a / nrm
    eye = np.eye(n)
    return GroupElement(np.linalg.solve(eye - a / 2.0, eye + a / 2.0), sig, tol=1e-10)
