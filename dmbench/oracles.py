"""Reference values for the benchmark's correctness checks.

Every value here is computed from a closed form or a one-dimensional
reduction with numpy and the standard library only; nothing is imported
from dirimor, so a fault in the program cannot leak into its own reference.

Conventions follow the program's: the area measure is normalized
(``dm = r dr dtheta / pi``, disc mass 1), arc lengths ``|I|`` are normalized
(the full circle has length 1), and boundary double integrals use raw arc
length ``dtheta``.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi


def beta_fn(a: float, b: float) -> float:
    """Euler's Beta function B(a, b)."""
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


def _graded_gauss(lo: float, hi: float, *, toward_lo=True, toward_hi=False,
                  levels: int = 60, uniform: int = 16, order: int = 24):
    """Composite Gauss-Legendre nodes on [lo, hi], graded geometrically toward
    the chosen endpoints, where the integrands below have power-type kinks."""
    width = hi - lo
    breaks = [lo + width * np.linspace(0.0, 1.0, uniform + 1)]
    offsets = width / uniform * 2.0 ** -np.arange(1, levels + 1, dtype=float)
    if toward_lo:
        breaks.append(lo + offsets)
    if toward_hi:
        breaks.append(hi - offsets)
    b = np.unique(np.concatenate(breaks))
    x, w = np.polynomial.legendre.leggauss(order)
    half = 0.5 * np.diff(b)
    nodes = b[:-1, None] + half[:, None] * (x[None, :] + 1.0)
    wts = half[:, None] * w[None, :]
    return nodes.ravel(), wts.ravel()


# ---------------------------------------------------------------------------
# translate workload
# ---------------------------------------------------------------------------


def identity_translate_seminorm(p: float, t: float) -> float:
    """Weighted Dirichlet seminorm of z o phi_a - a, with t = |a|^2.

    By the change of variables it is the integral of (1-|phi_a(z)|^2)^p dm,
    and expanding (1 - conj(a) z)^(-p) in powers of z gives the series
        (1-t)^p sum_n ((p)_n / n!)^2 t^n B(n+1, p+1),
    whose terms decay like n^(p-3) t^n; the sum runs until t^n drops below
    1e-22, which bounds the neglected tail far below double precision.
    """
    if not 0.0 <= t < 1.0:
        raise ValueError("need 0 <= |a|^2 < 1")
    if t == 0.0:
        return math.sqrt(1.0 / (p + 1.0))
    n_terms = int(min(5e7, 50.0 / -math.log(t))) + 64
    n = np.arange(n_terms, dtype=float)
    # (p)_n / n! and B(n+1, p+1) by their exact term ratios
    poch = np.concatenate([[1.0], np.cumprod((n[:-1] + p) / (n[:-1] + 1.0))])
    beta = (1.0 / (p + 1.0)) * np.concatenate(
        [[1.0], np.cumprod((n[:-1] + 1.0) / (n[:-1] + p + 2.0))]
    )
    series = float(np.sum(poch ** 2 * np.exp(n * math.log(t)) * beta))
    return math.sqrt((1.0 - t) ** p * series)


# ---------------------------------------------------------------------------
# boundary workload
# ---------------------------------------------------------------------------


def identity_arc_double(L: float, p: float) -> float:
    """Double integral over I x I of |f(u)-f(v)|^2 / |u-v|^(2-p) for f(z) = z.

    For f = z, |f(u)-f(v)|^2 / |u-v|^(2-p) = (2 sin(|u-v|/2))^p depends on
    u - v alone, which reduces the double integral over an arc of radian
    length L to 2 * integral_0^L (L - t) (2 sin(t/2))^p dt.
    """
    t, w = _graded_gauss(0.0, L, toward_lo=True, toward_hi=L >= TWO_PI)
    vals = (L - t) * (2.0 * np.sin(0.5 * t)) ** p
    return 2.0 * float(np.dot(w, vals))


def polynomial_full_circle_double(coeffs, p: float) -> float:
    """Full-circle double integral of |f(u)-f(v)|^2 / |u-v|^(2-p) for a
    polynomial with Taylor coefficients a_n.

    Integrating over u first, the cross terms of |f(u) - f(u-t)|^2 vanish,
    leaving 2 pi sum |a_n|^2 integral_0^2pi (2 - 2 cos nt) (2 sin(t/2))^(p-2) dt.
    The t-integrand behaves like n^2 t^p at both ends, so graded Gauss
    panels integrate it to near machine precision.
    """
    t, w = _graded_gauss(0.0, TWO_PI, toward_lo=True, toward_hi=True, uniform=64)
    kern = (2.0 * np.sin(0.5 * t)) ** (p - 2.0)
    total = 0.0
    for n, a in enumerate(coeffs):
        if n == 0 or a == 0:
            continue
        total += abs(a) ** 2 * float(np.dot(w, (2.0 - 2.0 * np.cos(n * t)) * kern))
    return TWO_PI * total


# ---------------------------------------------------------------------------
# box workload
# ---------------------------------------------------------------------------


def polynomial_disc_box(coeffs, p: float) -> float:
    """Integral over the disc of |f'|^2 (1-|z|^2)^p dm for a polynomial:
    sum n^2 |a_n|^2 B(n, p+1), from orthogonality of z^(n-1) on circles."""
    return float(sum(
        n * n * abs(a) ** 2 * beta_fn(n, p + 1.0)
        for n, a in enumerate(coeffs) if n >= 1
    ))


def identity_box(length: float, p: float) -> float:
    """Integral over the Carleson box S(I) of (1-|z|^2)^p dm (f = z, f' = 1).

    S(I) has angular fraction |I| and radii [1-|I|, 1), so the integral is
    |I| (1 - (1-|I|)^2)^(p+1) / (p+1)."""
    r0 = 1.0 - length
    return length * (1.0 - r0 * r0) ** (p + 1.0) / (p + 1.0)


def identity_gpcm_at_origin(p: float) -> float:
    """The gpcm ratio of g = z at w = 0.

    S(0) is the whole disc, mu = (1-|z|^2)^p dm has mass 1/(p+1), and the
    point box of z has mass mu(S(z)) = (1-r)(1-r^2)^(p+1)/(p+1), r = |z|.
    The ratio mu(D)^-1 integral mu(S(z))^2 (1-|z|^2)^(-2-p) dm reduces to
    (1/(p+1)) integral_0^1 (1-r)^2 (1-r^2)^p 2r dr.
    """
    r, w = _graded_gauss(0.0, 1.0, toward_lo=False, toward_hi=True)
    vals = (1.0 - r) ** 2 * (1.0 - r * r) ** p * 2.0 * r
    return float(np.dot(w, vals)) / (p + 1.0)


# ---------------------------------------------------------------------------
# verify workload
# ---------------------------------------------------------------------------


def gap_block_limit(q: float, p: float) -> float:
    """Limit of sum_k 2^(k(1-p)) |a_k|^2 for a_k = 2^(-k(1-q)/2): the terms are
    2^(-k(p-q)), a geometric series with sum 1 / (1 - 2^-(p-q))."""
    return 1.0 / (1.0 - 2.0 ** -(p - q))
