"""Lacunary (power-of-two gap) series: membership criteria by coefficient
block sums, the derivative growth criterion, and the two-kernel integral
estimate that certifies the test family.

The dyadic block criterion groups Taylor coefficients by exponent blocks
[2^k, 2^(k+1)); a gap series with exponents 2^k has exactly one coefficient
per block.  Block sums here run from k = 0 with the coefficient rule
evaluated at k = 0 as well, which makes the geometric closed forms exact:
sum_{k>=0} 2^(-k(p-q)) = 1/(1 - 2^-(p-q)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .analytic import AnalyticFunction, make_gap_series
from .quadrature import RadialAnnuliGrid, TWO_PI, integrate_disc

RATIO_CONVERGENT_CUTOFF = 0.999


@dataclass(frozen=True)
class GapCoefficients:
    """Coefficient rule k -> a_k for exponents n_k = 2^k, evaluated up to K."""

    rule: Callable
    K: int

    def __post_init__(self):
        if self.K < 1:
            raise ValueError("need at least one block")

    def value(self, k: int) -> complex:
        return complex(self.rule(k))

    def magnitudes(self, start: int = 0):
        return np.array([abs(self.value(k)) for k in range(start, self.K + 1)])


def remark_coefficient_rule(q: float) -> Callable:
    """a_k = 2^(-k(1-q)/2), the critical-decay lacunary coefficients."""
    if not (0.0 < q < 1.0):
        raise ValueError("the critical rule needs q in (0, 1)")
    return lambda k: 2.0 ** (-k * (1.0 - q) / 2.0)


def remark_example(q: float, K: int = 20) -> AnalyticFunction:
    """The gap series with coefficients 2^(-k(1-q)/2): a bounded-criterion
    member at every exponent above q, divergent at q itself."""
    return make_gap_series(
        remark_coefficient_rule(q), K, label=f"gap:q={q:g},K={K}"
    )


@dataclass(frozen=True)
class BlockSumReport:
    exponent: float
    partial_sums: tuple
    terms: tuple
    classification: str  # convergent-trend | divergent-trend
    limit_estimate: Optional[float]

    @property
    def final_sum(self) -> float:
        return self.partial_sums[-1]


def gap_block_sums(coeffs: GapCoefficients, q: float) -> BlockSumReport:
    """Partial sums S_K = sum_{k=0..K} 2^(k(1-q)) |a_k|^2 (K = coeffs.K) with
    a ratio-test classification on the last terms and, for convergent
    trends, a geometric extrapolation of the limit (exact for geometric
    tails)."""
    if not (0.0 < q < 1.0):
        raise ValueError("block-sum exponent must lie in (0, 1)")
    K = coeffs.K
    mags = coeffs.magnitudes(0)
    terms = (2.0 ** (np.arange(K + 1) * (1.0 - q))) * mags ** 2
    sums = np.cumsum(terms)
    tail = terms[-5:]
    if np.all(tail == 0.0):
        classification = "convergent-trend"
        limit = float(sums[-1])
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = tail[1:] / tail[:-1]
        ratios = ratios[np.isfinite(ratios)]
        mean_ratio = float(np.mean(ratios)) if ratios.size else 1.0
        if mean_ratio < RATIO_CONVERGENT_CUTOFF:
            classification = "convergent-trend"
            rho = mean_ratio
            limit = float(sums[-1] + terms[-1] * rho / (1.0 - rho))
        else:
            classification = "divergent-trend"
            limit = None
    return BlockSumReport(
        exponent=q,
        partial_sums=tuple(float(s) for s in sums),
        terms=tuple(float(t) for t in terms),
        classification=classification,
        limit_estimate=limit,
    )


def yamashita_limsup(coeffs: GapCoefficients, q: float) -> float:
    """Tail maximum of |a_k| 2^(k(1-(1+q)/2)) over k in [K/2, K] (K = coeffs.K): the
    derivative-growth criterion sup |f'(z)|(1-|z|)^((1+q)/2) < inf holds for
    gap series exactly when this limsup is finite; for the built-in
    eventually-geometric rules the tail max is the limsup."""
    lo = coeffs.K // 2
    ks = np.arange(lo, coeffs.K + 1)
    vals = coeffs.magnitudes(lo) * 2.0 ** (ks * (1.0 - (1.0 + q) / 2.0))
    return float(np.max(vals))


# ---------------------------------------------------------------------------
# Two-kernel weighted integral estimate
# ---------------------------------------------------------------------------


def pzh_check(
    u: complex,
    v: complex,
    r: float,
    s: float,
    t: float,
) -> float:
    """Normalized two-kernel integral
        (1-|u|^2)^(r+t-s-2) * integral of (1-|z|^2)^s / (|1-conj(u)z|^r |1-conj(v)z|^t) dm.

    Admissible parameters: s > -1, r > 0, t > 0 and 0 < r+t-s-2 < r; the
    normalized value stays bounded as |u| -> 1, which the scans verify.
    ``v`` may lie on the closed disc.  The disc grid is graded toward the
    directions of u and v, and its depth grows as they approach the circle.
    """
    if s <= -1.0:
        raise ValueError("need s > -1")
    if r <= 0.0 or t <= 0.0:
        raise ValueError("need r > 0 and t > 0")
    kappa = r + t - s - 2.0
    if not (0.0 < kappa < r):
        raise ValueError(
            f"exponent combination r+t-s-2 = {kappa:g} must lie in (0, r) = (0, {r:g})"
        )
    u = complex(u)
    v = complex(v)
    if abs(u) >= 1.0:
        raise ValueError("u must be interior")
    if abs(v) > 1.0 + 1e-14:
        raise ValueError("v must satisfy |v| <= 1")

    foci = tuple(
        sorted(
            {float(np.angle(w)) % TWO_PI for w in (u, v) if abs(w) > 1e-14}
        )
    )
    k_u = max(int(-math.log2(max(1.0 - abs(w), 1e-12))) for w in (u, v))
    # without foci the grid is uniform, which reads no panel setting
    grid = RadialAnnuliGrid(depth=min(40, max(26, k_u + 12)), foci=foci, panel_order=6)

    uc, vc = np.conj(u), np.conj(v)

    def field(z):
        return (
            (1.0 - np.abs(z) ** 2) ** s
            / (np.abs(1.0 - uc * z) ** r * np.abs(1.0 - vc * z) ** t)
        )

    res = integrate_disc(field, grid)
    return float(res.value * (1.0 - abs(u) ** 2) ** kappa)


def pzh_scan(
    r: float,
    s: float,
    t: float,
    *,
    k_levels: int = 10,
):
    """Normalized two-kernel values at u = v = 1 - 2^-k, k = 0..k_levels."""
    out = []
    for k in range(k_levels + 1):
        u = complex(1.0 - 2.0 ** -k)
        out.append((k, pzh_check(u, u, r, s, t)))
    return out
