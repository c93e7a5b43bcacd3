"""Integration and multiplication operators on disc functions, and the
test-family ratio scans that probe their boundedness empirically.

The three operators share one identity (integration by parts):

    J_g(f)(z) = M_g(f)(z) - f(0) g(0) - I_g(f)(z)

where J_g integrates f g', I_g integrates f' g, and M_g multiplies by g.
Operator *values* come from quadrature along the radial segment [0, z]
(graded toward the far endpoint, 120-480 nodes depending on how close the
segment gets to a flagged singularity); operator *derivatives* are closed
form, which is what every norm computation consumes: J_g and I_g give
|h'|^2 as |f|^2 |g'|^2 and |f'|^2 |g|^2 through ``deriv_abs2``.

Boundedness is never certified: a scan reports per-c norm ratios over the
test family f_c(z) = (1 - conj(c) z)^(-p(1-lam)/2) with c marching toward
the boundary, and classifies the tail slope of log(ratio) against
log2(1/(1-|c|)) with the shared 0.1 threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .analytic import AnalyticFunction, SpaceParams, SymbolProduct, make_power_kernel
from .norms import ParamGrid, classify_trend, dm_norms_translate, trend_slope
from .quadrature import TWO_PI, _gauss_on


# Operator kinds are plain string tags.
JG = "Jg"
IG = "Ig"
MG = "Mg"


# ---------------------------------------------------------------------------
# Radial path quadrature
# ---------------------------------------------------------------------------


# Gauss nodes per panel of the radial path rule
PATH_ORDER = 10
# interior_samples draws points of modulus below SAMPLE_R_CAP
SAMPLE_R_CAP = 0.95


def _path_breaks(depth: int) -> np.ndarray:
    pts = [0.0, 0.5]
    pts.extend(1.0 - 2.0 ** -m for m in range(2, depth))
    pts.append(1.0)
    return np.array(pts)


def path_integral(integrand: Callable, z):
    """integral over [0, z] of integrand(w) dw along the radial segment.

    Parametrizes w = s z on graded panels refining toward s = 1, where the
    integrand may steepen if z points near a singular direction; one node
    layout of PATH_ORDER-point Gauss panels is shared by all requested z
    (120-480 nodes by proximity)."""
    z = np.asarray(z, dtype=complex)
    flat = z.ravel()
    if flat.size == 0:
        return z
    closest = float(np.max(np.abs(flat)))
    breaks = _path_breaks(int(np.clip(int(-math.log2(max(1.0 - closest, 1e-12))) + 8, 12, 48)))
    s_nodes, s_wts = [], []
    for i in range(len(breaks) - 1):
        n, w = _gauss_on(breaks[i], breaks[i + 1], PATH_ORDER)
        s_nodes.append(n)
        s_wts.append(w)
    s = np.concatenate(s_nodes)
    sw = np.concatenate(s_wts)
    vals = integrand(s[:, None] * flat[None, :])
    out = flat * (sw @ vals)
    return out.reshape(z.shape) if z.shape else complex(out[0])


def _op_common(f: AnalyticFunction, g: AnalyticFunction):
    return dict(
        singular_angles=tuple(sorted(set(f.singular_angles) | set(g.singular_angles))),
        angular_hint=max(f.angular_hint, g.angular_hint),
        r_max=min(f.r_max, g.r_max),
        oscillatory=f.oscillatory or g.oscillatory,
    )


def apply_Jg(f: AnalyticFunction, g: AnalyticFunction) -> AnalyticFunction:
    """h with h' = f g' and h(0) = 0; values by radial path quadrature."""
    fe, gd = f.eval_fn, g.deriv_fn

    def dv(z):
        return fe(z) * gd(z)

    def ev(z):
        return path_integral(dv, z)

    return AnalyticFunction(
        label=f"Jg[{g.label}]({f.label})",
        eval_fn=ev,
        deriv_fn=dv,
        deriv_abs2_fn=SymbolProduct(f.abs2, g.deriv_abs2),
        **_op_common(f, g),
    )


def apply_Ig(f: AnalyticFunction, g: AnalyticFunction) -> AnalyticFunction:
    """h with h' = f' g and h(0) = 0; values by radial path quadrature."""
    fd, ge = f.deriv_fn, g.eval_fn

    def dv(z):
        return fd(z) * ge(z)

    def ev(z):
        return path_integral(dv, z)

    return AnalyticFunction(
        label=f"Ig[{g.label}]({f.label})",
        eval_fn=ev,
        deriv_fn=dv,
        deriv_abs2_fn=SymbolProduct(f.deriv_abs2, g.abs2),
        **_op_common(f, g),
    )


def apply_Mg(f: AnalyticFunction, g: AnalyticFunction) -> AnalyticFunction:
    """Pointwise product g f with derivative f' g + f g'."""
    fe, ge, fd, gd = f.eval_fn, g.eval_fn, f.deriv_fn, g.deriv_fn

    def ev(z):
        return fe(z) * ge(z)

    def dv(z):
        return fd(z) * ge(z) + fe(z) * gd(z)

    bnd = None
    if f.boundary_fn is not None and g.boundary_fn is not None:
        fb, gb = f.boundary_fn, g.boundary_fn
        bnd = lambda t: fb(t) * gb(t)
    return AnalyticFunction(
        label=f"Mg[{g.label}]({f.label})",
        eval_fn=ev,
        deriv_fn=dv,
        boundary_fn=bnd,
        **_op_common(f, g),
    )


def apply_operator(kind: str, f: AnalyticFunction, g: AnalyticFunction) -> AnalyticFunction:
    """T f for the operator tag ``kind`` ("Jg", "Ig" or "Mg"); an unknown tag
    raises ValueError naming it.

    The operators are looked up at call time, so a rebinding of ``apply_Jg``
    and its siblings (as a tracer does) reaches every caller."""
    ops = {JG: apply_Jg, IG: apply_Ig, MG: apply_Mg}
    if kind not in ops:
        raise ValueError(f"unknown operator kind {kind!r}; expected one of {sorted(ops)}")
    return ops[kind](f, g)


# ---------------------------------------------------------------------------
# Integration-by-parts residual
# ---------------------------------------------------------------------------


def ibp_residual(f: AnalyticFunction, g: AnalyticFunction, samples) -> float:
    """max over sample points of |J_g f - (M_g f - f(0) g(0) - I_g f)|."""
    z = np.asarray(samples, dtype=complex)
    jg = apply_Jg(f, g)(z)
    ig = apply_Ig(f, g)(z)
    mg = apply_Mg(f, g)(z)
    resid = jg - (mg - f.at_zero() * g.at_zero() - ig)
    return float(np.max(np.abs(resid)))


def interior_samples(n: int, seed: int) -> np.ndarray:
    """n points uniform in area on the disc |z| < SAMPLE_R_CAP."""
    rng = np.random.default_rng(seed)
    r = SAMPLE_R_CAP * np.sqrt(rng.uniform(0.0, 1.0, n))
    t = rng.uniform(0.0, TWO_PI, n)
    return r * np.exp(1j * t)


# ---------------------------------------------------------------------------
# Test family and ratio scans
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TestFamilyEntry:
    c: complex
    level: int
    function: AnalyticFunction
    norm: float


@dataclass(frozen=True)
class TestFamily:
    """The kernels f_c with their translate-norms, and the scan that normed
    them: ``k_c`` radii 1 - 2^-k times ``n_directions`` directions, normed
    together by one ``dm_norms_translate`` on ``params`` and ``norm_grid``.
    Ratio scans norm every image T f_c with this same scan."""

    params: SpaceParams
    entries: tuple
    norm_max: float
    norm_min: float
    k_c: int
    n_directions: int
    norm_grid: ParamGrid


def make_test_family(
    params: SpaceParams,
    *,
    k_c: int = 10,
    n_directions: int = 8,
    norm_grid: Optional[ParamGrid] = None,
) -> TestFamily:
    """The kernels f_c with exponent p(1-lam)/2 over the scan c-grid, each
    with its translate-norm; c = 0 gives the constant 1 (norm exactly 1).

    The c-grid follows the a-grid radii 1 - 2^-k on the positive real axis
    plus rotations; the proofs this scan operationalizes localize at c
    approaching the boundary, and rotations guard against direction-specific
    mesh artifacts.  ``norm_grid`` defaults to ``ParamGrid(k_a=max(8, k_c),
    a_angle_cap=16)``; the family records it, and ``ratio_scan`` norms with it."""
    norm_grid = norm_grid or ParamGrid(k_a=max(8, k_c), a_angle_cap=16)
    s = params.translate_exponent
    kernels = []
    for k in range(1, k_c + 1):
        r = 1.0 - 2.0 ** -k
        for m in range(n_directions):
            c = r * np.exp(2j * math.pi * m / n_directions)
            kernels.append((complex(c), k, make_power_kernel(c, s)))
    reports = dm_norms_translate([fc for *_, fc in kernels], params, norm_grid)
    entries = [TestFamilyEntry(0.0 + 0.0j, 0, make_power_kernel(0.0, 0.0), 1.0)]
    entries += [TestFamilyEntry(c, k, fc, rep.value) for (c, k, fc), rep in zip(kernels, reports)]
    norms = [e.norm for e in entries]
    return TestFamily(params, tuple(entries), max(norms), min(norms),
                      k_c=k_c, n_directions=n_directions, norm_grid=norm_grid)


@dataclass(frozen=True)
class RatioScanReport:
    kind: str
    symbol: str
    rows: tuple          # (c, level, norm_fc, norm_Tfc, ratio)
    max_ratio: float
    slope: float         # log(ratio) per unit level over the tail
    classification: str  # bounded-trend | unbounded-trend
    grid: dict

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "symbol": self.symbol,
            "max_ratio": self.max_ratio,
            "slope": self.slope,
            "classification": self.classification,
            "grid": self.grid,
            "rows": [
                {
                    "c": {"re": c.real, "im": c.imag},
                    "level": lvl,
                    "norm_fc": nf,
                    "norm_Tfc": nt,
                    "ratio": r,
                }
                for (c, lvl, nf, nt, r) in self.rows
            ],
        }


def ratio_scan(kind: str, g: AnalyticFunction, family: TestFamily) -> RatioScanReport:
    """Norm ratios ||T f_c|| / ||f_c|| over the test family, with the tail
    trend of log(ratio) against the level k (radius 1 - 2^-k).

    ``kind`` is an operator tag ("Jg", "Ig" or "Mg"); an unknown tag raises
    ``ValueError``.  Each T f_c is normed with the family's own scan
    (``family.params`` and ``family.norm_grid``), so both
    sides of a ratio come from one grid; ``grid`` reports the family's
    ``k_c`` and ``n_directions`` and the settings that scan read.  All
    images go through one ``dm_norms_translate``, so the images that share
    a disc grid share its Mobius weights, and the I_g and J_g images share
    g's factor of |h'|^2, evaluated once per grid."""
    images = [apply_operator(kind, e.function, g) for e in family.entries]
    reports = dm_norms_translate(images, family.params, family.norm_grid)
    rows = []
    per_level: dict = {}
    for e, rep in zip(family.entries, reports):
        nh = rep.value
        ratio = nh / e.norm if e.norm > 0 else 0.0
        rows.append((e.c, e.level, e.norm, nh, ratio))
        per_level[e.level] = max(per_level.get(e.level, 0.0), ratio)
    levels = sorted(per_level)
    slope = trend_slope(levels, [per_level[l] for l in levels])
    return RatioScanReport(
        kind=kind,
        symbol=g.label,
        rows=tuple(rows),
        max_ratio=max(r for *_, r in rows) if rows else 0.0,
        slope=slope,
        classification=classify_trend(slope),
        grid={"k_c": family.k_c, "n_directions": family.n_directions,
              **{k: v for k, v in reports[0].grid.items() if k != "scan"}},
    )
