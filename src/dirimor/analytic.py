"""Analytic functions on the unit disc and the Mobius machinery behind every norm.

All function objects evaluate vectorized: ``f(z)``, ``f.derivative(z)`` and
``f.deriv_abs2(z)`` accept complex scalars or numpy arrays of any shape and
return matching shapes.  Every norm reads a function through |f'|^2, so
scans take it from ``deriv_abs2``, which power kernels, ``log1`` and the
J_g, I_g images compute without the complex derivative (an image's is a
:class:`SymbolProduct`, whose symbol factor a translate scan shares between
the images of one symbol); ``derivative`` stays the check route.  Interior
points are plain ``complex`` values with ``|z| < 1``; points on the unit
circle are carried by :class:`BoundaryPoint` (an angle, modulus exactly 1)
so that boundary evaluation never goes through the interior code path.

Functions are immutable after construction and safe to share between
workers.  Each one carries

* a certified evaluation radius (the open disc unless truncated),
* an optional boundary trace (``theta -> f(e^{i theta})``),
* a tuple of singular directions on the circle, used by the quadrature
  module to grade meshes toward the points where mass concentrates, and
  the width of the boundary trace's features there (0.0 when unknown).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

TWO_PI = 2.0 * math.pi


class EvaluationDomainError(ValueError):
    """Raised when a function is evaluated outside its certified radius."""


class TruncationError(ValueError):
    """Raised when a requested series truncation cannot meet its tail tolerance."""


def require_interior(z, r_max: float = 1.0) -> None:
    m = np.max(np.abs(z))
    if m > r_max + 1e-14:
        raise EvaluationDomainError(
            f"evaluation at |z|={m:.17g} exceeds certified radius {r_max:.17g}"
        )


@dataclass(frozen=True)
class BoundaryPoint:
    """A point on the unit circle, stored as its angle in [0, 2*pi)."""

    angle: float

    def __post_init__(self):
        object.__setattr__(self, "angle", float(self.angle) % TWO_PI)

    @property
    def point(self) -> complex:
        return complex(math.cos(self.angle), math.sin(self.angle))


@dataclass(frozen=True)
class SpaceParams:
    """The exponent pair (p, lam) together with the derived exponents.

    ``box_exponent``       power of |I| in the Carleson-box quantity (p*lam)
    ``translate_exponent`` power of (1-|a|^2) weighting translate seminorms,
                           p*(1-lam)/2
    """

    p: float
    lam: float
    box_exponent: float = field(init=False)
    translate_exponent: float = field(init=False)

    def __post_init__(self):
        if not (0.0 < self.p <= 1.0):
            raise ValueError(f"p must lie in (0, 1], got {self.p}")
        if not (0.0 <= self.lam <= 1.0):
            raise ValueError(f"lam must lie in [0, 1], got {self.lam}")
        object.__setattr__(self, "box_exponent", self.p * self.lam)
        object.__setattr__(self, "translate_exponent", self.p * (1.0 - self.lam) / 2.0)


# ---------------------------------------------------------------------------
# Mobius automorphisms
# ---------------------------------------------------------------------------


def mobius_apply(a, z):
    """The disc automorphism (a - z) / (1 - conj(a) z); swaps 0 and a.

    Vectorized in both arguments (broadcasting)."""
    if np.max(np.abs(a)) >= 1.0:
        raise ValueError("Mobius parameter must be interior, |a| < 1")
    return (a - z) / (1.0 - np.conj(a) * z)


def mobius_derivative(a, z):
    """d/dz of the automorphism: -(1 - |a|^2) / (1 - conj(a) z)^2."""
    return -(1.0 - np.abs(a) ** 2) / (1.0 - np.conj(a) * z) ** 2


# ---------------------------------------------------------------------------
# The function type
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SymbolProduct:
    """|h'|^2 = own(z) * symbol(z) of an operator image h of f with symbol g:
    ``own`` reads f and ``symbol`` is a bound method of g (``g.abs2`` for
    I_g, ``g.deriv_abs2`` for J_g), so the images of one symbol carry equal
    ``symbol`` factors, which a scan evaluates once per grid."""

    own: Callable
    symbol: Callable

    def __call__(self, z):
        return self.own(z) * self.symbol(z)


@dataclass(frozen=True)
class AnalyticFunction:
    """An evaluable analytic function on the disc.

    ``eval_fn`` and ``deriv_fn`` are vectorized callables on complex arrays.
    ``deriv_abs2_fn``, when given, computes |f'|^2 directly; without it
    ``deriv_abs2`` squares the modulus of ``deriv_fn``.
    ``r_max`` is the certified evaluation radius; 1.0 means the open disc.
    ``singular_angles`` lists boundary directions toward which the function
    (or its derivative) concentrates; quadrature grids grade toward them.
    ``angular_hint`` is the minimum angular sampling that resolves the
    function's smooth oscillation (e.g. polynomial degree).
    ``singular_width`` is the smallest angular scale on which the boundary
    trace varies near its singular directions (1 - |c| for an interior
    power kernel); boundary double integrals grade no finer than it.
    0.0 means unknown: they then grade as deep as their t-panels.
    """

    label: str
    eval_fn: Callable
    deriv_fn: Callable
    boundary_fn: Optional[Callable] = None
    singular_angles: tuple = ()
    angular_hint: int = 64
    r_max: float = 1.0
    #: True when |f'|^2 oscillates angularly far above angular_hint (lacunary
    #: series); such functions need equal-weight angular rules, where the
    #: oscillation integrates exactly by aliasing, not graded Gauss panels.
    oscillatory: bool = False
    deriv_abs2_fn: Optional[Callable] = None
    singular_width: float = 0.0

    def __call__(self, z):
        if self.r_max < 1.0:
            require_interior(z, self.r_max)
        return self.eval_fn(z)

    def derivative(self, z):
        if self.r_max < 1.0:
            require_interior(z, self.r_max)
        return self.deriv_fn(z)

    def deriv_abs2(self, z):
        """|f'(z)|^2, the density every norm reads."""
        if self.r_max < 1.0:
            require_interior(z, self.r_max)
        if self.deriv_abs2_fn is None:
            return np.abs(self.deriv_fn(z)) ** 2
        return self.deriv_abs2_fn(z)

    def abs2(self, z):
        """|f(z)|^2, the factor a symbol f gives |(I_f h)'|^2."""
        return np.abs(self(z)) ** 2

    def deriv_abs2_factors(self):
        """(own, symbol) with |f'|^2 = own(z) * symbol(z); symbol is None
        unless ``deriv_abs2_fn`` is a :class:`SymbolProduct`."""
        fn = self.deriv_abs2_fn
        if isinstance(fn, SymbolProduct):
            return fn.own, fn.symbol
        return self.deriv_abs2, None

    def at_zero(self) -> complex:
        return complex(self.eval_fn(0.0 + 0.0j))

    @property
    def has_boundary_values(self) -> bool:
        return self.boundary_fn is not None

    def boundary(self, theta):
        if self.boundary_fn is None:
            raise EvaluationDomainError(
                f"{self.label}: no boundary trace available"
            )
        return self.boundary_fn(theta)

    # Linear algebra on functions, used by operator linearity checks and
    # by the multiplication operator.
    def __add__(self, other: "AnalyticFunction") -> "AnalyticFunction":
        bnd = None
        if self.boundary_fn is not None and other.boundary_fn is not None:
            fb, gb = self.boundary_fn, other.boundary_fn
            bnd = lambda t: fb(t) + gb(t)
        fe, ge, fd, gd = self.eval_fn, other.eval_fn, self.deriv_fn, other.deriv_fn
        return AnalyticFunction(
            label=f"({self.label}+{other.label})",
            eval_fn=lambda z: fe(z) + ge(z),
            deriv_fn=lambda z: fd(z) + gd(z),
            boundary_fn=bnd,
            singular_angles=tuple(sorted(set(self.singular_angles) | set(other.singular_angles))),
            angular_hint=max(self.angular_hint, other.angular_hint),
            r_max=min(self.r_max, other.r_max),
            oscillatory=self.oscillatory or other.oscillatory,
            # an unknown width (0.0) leaves the sum's width unknown
            singular_width=min(self.singular_width, other.singular_width),
        )

    def scaled(self, alpha: complex) -> "AnalyticFunction":
        alpha = complex(alpha)
        bnd = None
        if self.boundary_fn is not None:
            fb = self.boundary_fn
            bnd = lambda t: alpha * fb(t)
        fe, fd, fa2 = self.eval_fn, self.deriv_fn, self.deriv_abs2
        a2 = abs(alpha) ** 2
        # replace() would keep self's deriv_abs2_fn (a SymbolProduct included)
        # without the |alpha|^2 factor
        return replace(
            self,
            label=f"({alpha!r}*{self.label})",
            eval_fn=lambda z: alpha * fe(z),
            deriv_fn=lambda z: alpha * fd(z),
            boundary_fn=bnd,
            deriv_abs2_fn=lambda z: a2 * fa2(z),
        )


# ---------------------------------------------------------------------------
# Built-in families
# ---------------------------------------------------------------------------


def _horner(coeffs, z):
    acc = np.zeros_like(np.asarray(z, dtype=complex))
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def make_taylor(coeffs: Sequence[complex]) -> AnalyticFunction:
    """Polynomial with exact evaluation, derivative and boundary trace."""
    coeffs = tuple(complex(c) for c in coeffs)
    if not coeffs:
        coeffs = (0.0 + 0.0j,)
    dcoeffs = _derivative_coeffs(coeffs)
    deg = len(coeffs) - 1
    label = "taylor:" + ",".join(_format_complex(c) for c in coeffs)

    def ev(z):
        return _horner(coeffs, z)

    def dv(z):
        return _horner(dcoeffs, z)

    def bnd(theta):
        return _horner(coeffs, np.exp(1j * np.asarray(theta, dtype=float)))

    return AnalyticFunction(
        label=label,
        eval_fn=ev,
        deriv_fn=dv,
        boundary_fn=bnd,
        angular_hint=max(64, 4 * deg + 8),
    )


def _derivative_coeffs(cs: Sequence[complex]) -> tuple:
    """Taylor coefficients of the derivative; (0j,) for a constant."""
    return tuple(k * c for k, c in enumerate(cs))[1:] or (0j,)


def constant(c: complex) -> AnalyticFunction:
    return make_taylor([c])


def _format_complex(c: complex) -> str:
    if c.imag == 0.0:
        return f"{c.real:g}"
    return f"{c.real:g}{c.imag:+g}i"


def make_power_kernel(c, s: float) -> AnalyticFunction:
    """The kernel f(z) = (1 - conj(c) z)^(-s), principal branch, f(0) = 1.

    ``c`` may be an interior complex point or a :class:`BoundaryPoint`.
    For |c| <= 1 the quantity 1 - conj(c) z has positive real part on the
    disc, so the principal power is unambiguous.  A boundary ``c`` with
    s > 0 is singular at z = c on the circle; the singular direction is
    flagged so quadrature can grade toward it, and no boundary trace is
    exposed in that case.
    """
    if isinstance(c, BoundaryPoint):
        cc = c.point
        on_boundary = True
    else:
        cc = complex(c)
        on_boundary = abs(abs(cc) - 1.0) <= 1e-14
        if abs(cc) > 1.0 + 1e-14:
            raise ValueError(f"kernel base point must satisfy |c| <= 1, got {abs(cc)}")
    s = float(s)
    if s < 0.0:
        raise ValueError(f"kernel exponent must be >= 0, got {s}")
    if s == 0.0 or cc == 0.0:
        return make_taylor([1.0])

    cbar = np.conj(cc)
    cr, ci = cc.real, cc.imag
    s2c2 = s * s * abs(cc) ** 2
    label = f"kernel:c={_format_complex(cc)},s={s:g}"

    def ev(z):
        return np.exp(-s * np.log(1.0 - cbar * np.asarray(z, dtype=complex)))

    def dv(z):
        w = 1.0 - cbar * np.asarray(z, dtype=complex)
        return s * cbar * np.exp(-(s + 1.0) * np.log(w))

    def dv_abs2(z):
        # s^2 |c|^2 |1 - conj(c) z|^(-2 (s + 1)), built in place: one complex
        # and one real grid-sized array, with the bits of the plain expression
        w = np.multiply(cbar, np.asarray(z, dtype=complex))
        np.subtract(1.0, w, out=w)
        np.square(w.real, out=w.real)
        np.square(w.imag, out=w.imag)
        out = np.add(w.real, w.imag)
        out **= -(s + 1.0)
        out *= s2c2
        return out

    bnd = None
    if not on_boundary:
        def bnd(theta):
            # |w|^(-s) e^(-i s arg w) with w = 1 - conj(c) e^(i theta), in real
            # arithmetic: no complex log or exp
            th = np.atleast_1d(np.asarray(theta, dtype=float))  # in-place steps need arrays
            cos, sin = np.cos(th), np.sin(th)
            wr = 1.0 - (cr * cos + ci * sin)
            wi = ci * cos - cr * sin
            out = np.empty(th.shape, dtype=complex)
            ang = np.arctan2(wi, wr)
            ang *= -s
            np.square(wr, out=wr)
            np.square(wi, out=wi)
            wr += wi
            wr **= -0.5 * s
            np.cos(ang, out=cos)
            np.sin(ang, out=sin)
            np.multiply(wr, cos, out=out.real)
            np.multiply(wr, sin, out=out.imag)
            return out if np.ndim(theta) else out[0]

    return AnalyticFunction(
        label=label,
        eval_fn=ev,
        deriv_fn=dv,
        boundary_fn=bnd,
        singular_angles=(float(np.angle(cc)) % TWO_PI,),
        angular_hint=64,
        deriv_abs2_fn=dv_abs2,
        singular_width=0.0 if on_boundary else 1.0 - abs(cc),
    )


# Gap series are certified up to radius GAP_R_MAX, where the truncation
# tail must stay within GAP_TAIL_TOL.
GAP_R_MAX = 1.0 - 2.0 ** -12
GAP_TAIL_TOL = 1e-8


def gap_tail_bound(coeff_rule: Callable[[int], complex], K: int, r_max: float) -> float:
    """Estimated truncation tail  sum_{k>K} |a_k| r_max^(2^k)  of a gap series."""
    total = 0.0
    for k in range(K + 1, K + 64):
        e = 2.0 ** k
        if e * math.log(r_max) < -745.0:  # underflow: remaining terms vanish
            break
        total += abs(coeff_rule(k)) * r_max ** e
    return total


def make_gap_series(
    coeff_rule: Callable[[int], complex],
    K: int,
    *,
    label: Optional[str] = None,
) -> AnalyticFunction:
    """Truncated lacunary series  sum_{k=1..K} a_k z^(2^k).

    The truncation is evaluated by repeated squaring, exactly, anywhere on
    the closed disc; interior evaluation is nevertheless refused beyond
    GAP_R_MAX, where the truncation is no longer certified to represent the
    full series within GAP_TAIL_TOL.  The boundary trace is the trace of the
    truncation itself (a polynomial).
    """
    if K < 1:
        raise TruncationError("gap series needs at least one term")
    tail = gap_tail_bound(coeff_rule, K, GAP_R_MAX)
    if tail > GAP_TAIL_TOL:
        raise TruncationError(
            f"gap series truncation K={K} leaves tail {tail:.3e} > {GAP_TAIL_TOL:.3e} "
            f"at radius {GAP_R_MAX}"
        )
    a = np.array([complex(coeff_rule(k)) for k in range(1, K + 1)])
    # the derivative's coefficients a_k 2^k, each part scaled on its own: a
    # power of 2 moves no bits, so (a_k 2^k) z^(2^k) is (a_k z^(2^k)) 2^k
    scale = 2.0 ** np.arange(1, K + 1)
    a_scaled = np.empty_like(a)
    a_scaled.real, a_scaled.imag = a.real * scale, a.imag * scale

    def _sum_terms(z, with_factors):
        # in place: the same operations, in the same order, as
        # power = power * power; acc = acc + c_k * power
        z = np.asarray(z, dtype=complex)
        coeffs = a_scaled if with_factors else a
        acc = np.zeros_like(z)
        term = np.empty_like(z)
        power = z * z  # z^(2^1); squared in place to z^(2^k)
        for k in range(1, K + 1):
            if k > 1:
                power *= power
            np.multiply(coeffs[k - 1], power, out=term)
            acc += term
        return acc if acc.ndim else acc[()]

    def ev(z):
        return _sum_terms(z, with_factors=False)

    def dv(z):
        # derivative sum a_k 2^k z^(2^k - 1); the z=0 limit is 0
        z = np.asarray(z, dtype=complex)
        nz = z != 0
        if nz.all():
            out = _sum_terms(z, with_factors=True) / z
        else:
            out = np.zeros_like(z)
            if np.any(nz):
                out[nz] = _sum_terms(z[nz], with_factors=True) / z[nz]
        if out.shape == ():
            return complex(out)
        return out

    def bnd(theta):
        return _sum_terms(np.exp(1j * np.asarray(theta, dtype=float)), with_factors=False)

    return AnalyticFunction(
        label=label or f"gap:K={K}",
        eval_fn=ev,
        deriv_fn=dv,
        boundary_fn=bnd,
        angular_hint=64,
        r_max=GAP_R_MAX,
        oscillatory=True,
    )


def log_kernel() -> AnalyticFunction:
    """g(z) = log(1/(1-z)), principal branch; g(0) = 0, singular toward 1."""

    def ev(z):
        return -np.log(1.0 - np.asarray(z, dtype=complex))

    def dv(z):
        return 1.0 / (1.0 - np.asarray(z, dtype=complex))

    def dv_abs2(z):
        w = 1.0 - np.asarray(z, dtype=complex)
        return 1.0 / (w.real ** 2 + w.imag ** 2)

    return AnalyticFunction(
        label="log1",
        eval_fn=ev,
        deriv_fn=dv,
        singular_angles=(0.0,),
        angular_hint=64,
        deriv_abs2_fn=dv_abs2,
    )


# ---------------------------------------------------------------------------
# Hyperbolic translates
# ---------------------------------------------------------------------------


def mobius_translate(f: AnalyticFunction, a: complex) -> AnalyticFunction:
    """The normalized translate g(z) = f(phi_a(z)) - f(a); g(0) = 0 exactly.

    g'(z) = f'(phi_a(z)) * phi_a'(z).  Singular directions of f move to
    phi_a of themselves (phi_a maps the circle to itself); the direction of
    ``a`` is added because the derivative factor concentrates there.
    """
    a = complex(a)
    if abs(a) >= 1.0:
        raise ValueError("translate parameter must satisfy |a| < 1")
    fa = complex(f(a * (1.0 + 0j)))
    fe, fd = f.eval_fn, f.deriv_fn

    def ev(z):
        return fe(mobius_apply(a, z)) - fa

    def dv(z):
        return fd(mobius_apply(a, z)) * mobius_derivative(a, z)

    moved = tuple(
        float(np.angle(mobius_apply(a, BoundaryPoint(t).point))) % TWO_PI
        for t in f.singular_angles
    )
    extra = (float(np.angle(a)) % TWO_PI,) if a != 0 else ()

    r_max = f.r_max
    if r_max < 1.0:
        # phi_a maps |z| <= rho into |w| <= (|a|+rho)/(1+|a| rho); invert at r_max
        r_max = max(0.0, (f.r_max - abs(a)) / (1.0 - abs(a) * f.r_max))

    return AnalyticFunction(
        label=f"translate({f.label},a={_format_complex(a)})",
        eval_fn=ev,
        deriv_fn=dv,
        singular_angles=tuple(sorted(set(moved) | set(extra))),
        angular_hint=f.angular_hint,
        r_max=r_max,
        oscillatory=f.oscillatory,
    )
