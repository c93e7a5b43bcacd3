"""Quadrature over the disc, Carleson boxes, lunes and boundary arc squares.

Geometry conventions
--------------------
Area integrals use the normalized measure ``dm = r dr dtheta / pi`` (the
disc has mass 1).  Arc lengths are normalized: an :class:`Arc` of length
``|I| = 1`` is the full circle, and the Carleson box of an arc is
``S(I) = { r e^{i theta} : 1 - |I| <= r < 1, e^{i theta} in I }``.
The point box ``S(w)`` uses the angular half-width ``pi (1 - |w|)``, so the
arc associated with ``w`` has normalized length ``1 - |w|``; the two box
families cohere only under this normalization.  Boundary double integrals
use *raw* arc length ``|du| = dtheta``.

Mesh design
-----------
The radial direction is always resolved by dyadic annuli ``[1-2^-j,
1-2^-(j-1)]`` with a fixed-order Gauss rule per annulus; this handles the
integrable weights ``(1-|z|^2)^p`` to near machine accuracy per annulus, so
the only radial error is the truncated outer ring, which is estimated by
geometric extrapolation of the per-annulus sums and reported.

The angular direction is either uniform (trapezoid; spectrally exact for
trigonometric polynomials of degree below the node count) or graded:
composite Gauss panels whose widths shrink geometrically toward a set of
focus angles, down to the local radial scale ``1 - r``.  Graded layouts are
anchored at the first focus so that rotating a problem rotates its grid,
making rotation-symmetric inputs produce bitwise-symmetric results.

Every integration returns the per-dyadic-level contributions along with the
value; scan-type callers use these prefixes to expose divergence trends as
a function of radial depth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, cached_property
from typing import Callable, Optional, Sequence

import numpy as np

TWO_PI = 2.0 * math.pi


class QuadratureError(RuntimeError):
    """A node produced a non-finite sample; carries the node location."""

    def __init__(self, message, location=None):
        super().__init__(message)
        self.location = location


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error: float
    level_sums: tuple  # contribution per absolute dyadic level j (1-r ~ 2^-j)
    nodes_used: int
    flags: tuple = ()

    def prefix_value(self, level: int) -> float:
        """Integral truncated to levels <= level (radial depth truncation)."""
        return float(sum(v for j, v in enumerate(self.level_sums) if j <= level))


@lru_cache(maxsize=32)
def _gauss(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def _gauss_on(a: float, b: float, order: int):
    x, w = _gauss(order)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w


def _panel_nodes(breaks: np.ndarray, order: int):
    """Gauss nodes/weights on each cell of a sorted breakpoint array."""
    x, w = _gauss(order)
    a = breaks[:-1]
    half = 0.5 * np.diff(breaks)
    nodes = a[:, None] + half[:, None] * (x[None, :] + 1.0)
    wts = half[:, None] * w[None, :]
    return nodes.ravel(), wts.ravel()


# ---------------------------------------------------------------------------
# Angular layouts
# ---------------------------------------------------------------------------


def graded_breakpoints(lo, hi, delta, foci, base_panels, *, wrap=False):
    """Sorted panel breakpoints on [lo, hi], graded toward the given angles.

    Each focus contributes breakpoints at geometric offsets delta/2, delta,
    2 delta, ... on both sides (using periodic images when ``wrap``), on top
    of ``base_panels`` uniform background cells.  The finest panels adjacent
    to a focus have width ~delta/2, matching the local radial scale.
    """
    width = hi - lo
    pts = [np.linspace(lo, hi, max(1, int(base_panels)) + 1)]
    delta = max(float(delta), 1e-12)
    for phi in foci:
        images = (phi,) if not wrap else (phi - TWO_PI, phi, phi + TWO_PI)
        for p in images:
            if p < lo - width or p > hi + width:
                continue
            offs = [0.0]
            step = 0.5 * delta
            while step < width:
                offs.append(step)
                step *= 2.0
            cand = np.concatenate([p - np.array(offs), p + np.array(offs)])
            cand = cand[(cand > lo) & (cand < hi)]
            pts.append(cand)
    b = np.unique(np.concatenate(pts))
    keep = np.concatenate([[True], np.diff(b) > delta * 2.0 ** -10])
    b = b[keep]
    if b[-1] != hi:
        b = np.append(b[:-1] if hi - b[-1] < delta * 2.0 ** -10 else b, hi)
    if b[0] != lo:
        b = np.insert(b, 0, lo)
    return b


def angular_nodes(lo, hi, delta, foci, base_panels, order, *, wrap=False):
    breaks = graded_breakpoints(lo, hi, delta, foci, base_panels, wrap=wrap)
    return _panel_nodes(breaks, order)


def _window_nodes(wlo, whi, delta, foci, base_panels, order):
    width = whi - wlo
    nb = max(4, min(base_panels, int(math.ceil(width / (TWO_PI / 64))) + 3))
    return angular_nodes(wlo, whi, delta, foci, nb, order)


# ---------------------------------------------------------------------------
# The global disc grid
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RadialAnnuliGrid:
    """Dyadic annuli covering [0, 1-2^-depth] with per-annulus rules.

    Uniform mode (no foci): annulus j carries max(n_min, 8*2^min(j, growth_cap))
    equally weighted angles.  Graded mode (foci given): composite Gauss
    panels graded toward each focus with finest width ~2^-j, over
    ``base_panels`` background cells, anchored at the first focus.
    """

    depth: int = 24
    radial_order: int = 8
    n_min: int = 64
    growth_cap: int = 11
    foci: tuple = ()
    panel_order: int = 8
    base_panels: int = 16

    def __post_init__(self):
        if self.depth < 2:
            raise ValueError("grid depth must be at least 2")

    @cached_property
    def _nodes(self):
        zs, ws, lv = [], [], []
        anchor = self.foci[0] if self.foci else 0.0
        for j in range(self.depth):
            r0 = 1.0 - 2.0 ** -j
            r1 = 1.0 - 2.0 ** -(j + 1)
            rr, rw = _gauss_on(r0, r1, self.radial_order)
            if self.foci:
                th, tw = angular_nodes(
                    anchor, anchor + TWO_PI, 2.0 ** -(j + 1), self.foci,
                    self.base_panels, self.panel_order, wrap=True,
                )
            else:
                n = max(self.n_min, 8 * 2 ** min(j, self.growth_cap))
                th = (np.arange(n) + 0.5) * (TWO_PI / n)
                tw = np.full(n, TWO_PI / n)
            z = rr[:, None] * np.exp(1j * th[None, :])
            w = (rw * rr)[:, None] * tw[None, :] / math.pi
            zs.append(z.ravel())
            ws.append(w.ravel())
            lv.append(np.full(z.size, j, dtype=np.int32))
        return np.concatenate(zs), np.concatenate(ws), np.concatenate(lv)

    def nodes(self):
        """(z, weights, dyadic level) arrays; weights sum to (1-2^-depth)^2."""
        return self._nodes

    def describe(self) -> dict:
        return {
            "kind": "radial-annuli",
            "depth": self.depth,
            "radial_order": self.radial_order,
            "n_min": self.n_min,
            "growth_cap": self.growth_cap,
            "foci": list(self.foci),
            "panel_order": self.panel_order,
            "base_panels": self.base_panels,
        }


def _finalize(vals, w, levels, depth, nodes_used, flags=()):
    contrib = vals * w
    per = np.bincount(levels, weights=contrib, minlength=depth)
    value = float(np.sum(per))
    tail = _tail_estimate(per)
    err = abs(float(per[-1])) + tail if len(per) >= 1 else 0.0
    return QuadratureResult(value, err, tuple(float(x) for x in per), nodes_used, flags)


def _tail_estimate(per_level):
    if len(per_level) < 3:
        return 0.0
    c1, c0 = abs(float(per_level[-1])), abs(float(per_level[-2]))
    if c0 <= 0.0 or c1 <= 0.0:
        return 0.0
    rho = min(c1 / c0, 0.95)
    return c1 * rho / (1.0 - rho)


def _check_finite(vals, z, what):
    bad = ~np.isfinite(vals)
    if np.any(bad):
        z = np.broadcast_to(np.asarray(z), bad.shape)
        loc = complex(z.ravel()[np.flatnonzero(bad.ravel())[0]])
        raise QuadratureError(
            f"{what}: non-finite sample at node z={loc:.12g}", location=loc
        )


def integrate_disc(field: Callable, grid: RadialAnnuliGrid) -> QuadratureResult:
    """Integral of a real scalar field over the disc against dm (mass 1).

    The omitted outer ring [1-2^-depth, 1) contributes at most
    C 2^(-depth (p+1)) when the field is a bounded factor times the weight
    (1-|z|^2)^p; the reported ``error`` bounds it by geometric extrapolation
    of the per-annulus sums, which adapts to the field's actual decay.
    """
    z, w, lv = grid.nodes()
    vals = np.asarray(field(z), dtype=float)
    _check_finite(vals, z, "integrate_disc")
    return _finalize(vals, w, lv, grid.depth, z.size)


# ---------------------------------------------------------------------------
# Regions: boxes, lunes, intersections
# ---------------------------------------------------------------------------


def _canonical_pieces(lo: float, hi: float):
    """Split an angular interval into pieces inside [0, 2 pi]."""
    width = hi - lo
    if width <= 0.0:
        return ()
    if width >= TWO_PI - 1e-15:
        return ((0.0, TWO_PI),)
    lo = lo % TWO_PI
    hi = lo + width
    if hi <= TWO_PI:
        return ((lo, hi),)
    return ((lo, TWO_PI), (0.0, hi - TWO_PI))


def _pieces_width(pieces) -> float:
    return float(sum(hi - lo for lo, hi in pieces))


def _intersect_pieces(a_pieces, b_pieces):
    if _pieces_width(a_pieces) >= TWO_PI - 1e-15:
        return tuple(b_pieces)
    if _pieces_width(b_pieces) >= TWO_PI - 1e-15:
        return tuple(a_pieces)
    out = []
    for alo, ahi in a_pieces:
        for blo, bhi in b_pieces:
            lo, hi = max(alo, blo), min(ahi, bhi)
            if hi - lo > 1e-15:
                out.append((lo, hi))
    return tuple(sorted(out))


@dataclass(frozen=True)
class Arc:
    """Subarc of the circle: center angle (radians) and normalized length."""

    center: float
    length: float

    def __post_init__(self):
        if not (0.0 < self.length <= 1.0):
            raise ValueError(f"arc length must lie in (0, 1], got {self.length}")
        object.__setattr__(self, "center", float(self.center) % TWO_PI)

    @property
    def radian_length(self) -> float:
        return TWO_PI * self.length


@dataclass(frozen=True)
class Region:
    """Radially outer region: radial range [r_lo, 1) x angular pieces.

    ``lune`` regions carry (boundary angle, chord radius h) and clip their
    angular window per radius against the chord |b - z| = h.
    """

    kind: str
    r_lo: float
    pieces: tuple
    lune: Optional[tuple] = None

    @staticmethod
    def full_disc() -> "Region":
        return Region("disc", 0.0, ((0.0, TWO_PI),))

    @staticmethod
    def empty() -> "Region":
        return Region("empty", 1.0, ())

    @staticmethod
    def box_of_arc(arc: Arc) -> "Region":
        half = math.pi * arc.length
        return Region(
            "box_of_arc", 1.0 - arc.length,
            _canonical_pieces(arc.center - half, arc.center + half),
        )

    @staticmethod
    def box_of_point(w: complex) -> "Region":
        w = complex(w)
        r = abs(w)
        if r >= 1.0:
            raise ValueError("point box requires an interior point")
        if r == 0.0:
            return Region("box_of_point", 0.0, ((0.0, TWO_PI),))
        half = math.pi * (1.0 - r)
        c = math.atan2(w.imag, w.real)
        return Region("box_of_point", r, _canonical_pieces(c - half, c + half))

    @staticmethod
    def lune_of(b_angle: float, h: float) -> "Region":
        if h <= 0.0:
            raise ValueError("lune chord radius must be positive")
        if h >= 2.0:
            return Region.full_disc()
        b = float(b_angle) % TWO_PI
        half_max = 2.0 * math.asin(min(1.0, h / 2.0))
        return Region(
            "lune", max(0.0, 1.0 - h),
            _canonical_pieces(b - half_max, b + half_max),
            lune=(b, float(h)),
        )

    @property
    def is_empty(self) -> bool:
        return self.kind == "empty" or not self.pieces

    def windows_at(self, r: float):
        """Angular pieces of the region at radius r."""
        if self.lune is None:
            return self.pieces
        b, h = self.lune
        if r <= 0.0:
            return ((0.0, TWO_PI),) if h > 1.0 else ()
        c = (1.0 + r * r - h * h) / (2.0 * r)
        if c >= 1.0:
            return ()
        if c <= -1.0:
            return ((0.0, TWO_PI),)
        half = math.acos(c)
        return _canonical_pieces(b - half, b + half)

    def angular_fraction(self) -> float:
        return _pieces_width(self.pieces) / TWO_PI

    def normalized_area(self) -> float:
        """dm-area; exact for box kinds, quadrature for lunes."""
        if self.is_empty:
            return 0.0
        if self.lune is None:
            return self.angular_fraction() * (1.0 - self.r_lo ** 2)
        return integrate_region(lambda z: np.ones(z.shape, dtype=float), self).value


def region_intersect(a: Region, b: Region) -> Region:
    """Intersection of two box-like regions (radial range and angular pieces)."""
    if a.lune is not None or b.lune is not None:
        raise ValueError("region_intersect supports box-like regions only")
    if a.is_empty or b.is_empty:
        return Region.empty()
    pieces = _intersect_pieces(a.pieces, b.pieces)
    if not pieces:
        return Region.empty()
    return Region("intersection", max(a.r_lo, b.r_lo), pieces)


# ---------------------------------------------------------------------------
# Fitted region quadrature
# ---------------------------------------------------------------------------


def region_node_arrays(
    region: Region,
    *,
    rel_depth: int = 28,
    radial_order: int = 8,
    foci: tuple = (),
    base_panels: int = 8,
    panel_order: int = 8,
    max_level: Optional[int] = None,
):
    """Quadrature nodes fitted to a region.

    Radial panels are dyadic in the distance to the boundary, scaled to the
    region's own radial extent (``rel_depth`` levels); ``max_level`` caps the
    absolute dyadic depth (nodes with 1-r < 2^-max_level are dropped), which
    scan code uses to expose depth trends.  Returns (z, w, abs_level).
    """
    if region.is_empty:
        return (np.empty(0, complex), np.empty(0), np.empty(0, dtype=np.int32))
    d = 1.0 - region.r_lo
    zs, ws, lv = [], [], []
    for ell in range(rel_depth):
        lo_r = 1.0 - d * 2.0 ** -ell
        hi_r = 1.0 - d * 2.0 ** -(ell + 1)
        if max_level is not None:
            cap_r = 1.0 - 2.0 ** -max_level
            if lo_r >= cap_r:
                break
            hi_r = min(hi_r, cap_r)
        rr, rw = _gauss_on(lo_r, hi_r, radial_order)
        if region.lune is not None:
            # chord-clipped window varies with radius: build per radial node
            for i in range(len(rr)):
                r = rr[i]
                windows = region.windows_at(r)
                if not windows:
                    continue
                delta = 1.0 - r
                j_abs = min(int(-math.log2(max(delta, 1e-300))), 4000)
                for (wlo, whi) in windows:
                    th, tw = _window_nodes(wlo, whi, delta, foci, base_panels, panel_order)
                    zs.append(r * np.exp(1j * th))
                    ws.append((rw[i] * r / math.pi) * tw)
                    lv.append(np.full(th.size, j_abs, dtype=np.int32))
        else:
            # constant window: one angular layout per radial panel, graded to
            # the panel's finest radial scale, tensored with the radial nodes
            delta = 1.0 - hi_r
            j_abs = min(int(-math.log2(max(1.0 - 0.5 * (lo_r + hi_r), 1e-300))), 4000)
            for (wlo, whi) in region.pieces:
                th, tw = _window_nodes(wlo, whi, delta, foci, base_panels, panel_order)
                z = rr[:, None] * np.exp(1j * th[None, :])
                w = (rw * rr)[:, None] * tw[None, :] / math.pi
                zs.append(z.ravel())
                ws.append(w.ravel())
                lv.append(np.full(z.size, j_abs, dtype=np.int32))
    if not zs:
        return (np.empty(0, complex), np.empty(0), np.empty(0, dtype=np.int32))
    return np.concatenate(zs), np.concatenate(ws), np.concatenate(lv)


def integrate_region(
    field: Callable,
    region: Region,
    *,
    rel_depth: int = 28,
    radial_order: int = 8,
    foci: tuple = (),
    base_panels: int = 8,
    panel_order: int = 8,
    max_level: Optional[int] = None,
) -> QuadratureResult:
    """Integral of a field over a region against dm, on a fitted graded mesh."""
    if region.is_empty:
        return QuadratureResult(0.0, 0.0, (), 0, flags=("empty",))
    z, w, lv = region_node_arrays(
        region,
        rel_depth=rel_depth,
        radial_order=radial_order,
        foci=foci,
        base_panels=base_panels,
        panel_order=panel_order,
        max_level=max_level,
    )
    if z.size == 0:
        return QuadratureResult(0.0, 0.0, (), 0, flags=("empty",))
    vals = np.asarray(field(z), dtype=float)
    _check_finite(vals, z, f"integrate_region[{region.kind}]")
    depth = int(np.max(lv)) + 1
    return _finalize(vals, w, lv, depth, z.size)


# ---------------------------------------------------------------------------
# Boundary double integrals over I x I
# ---------------------------------------------------------------------------


def chord_gap(u_theta, v_theta):
    """|e^{iu} - e^{iv}| as points of the plane."""
    return 2.0 * np.abs(np.sin(0.5 * (np.asarray(u_theta) - np.asarray(v_theta))))


def arc_double_integral(
    F: Callable,
    arc: Arc,
    beta: float = 0.0,
    *,
    t_depth: int = 40,
    t_order: int = 8,
    s_base: int = 8,
    s_order: int = 8,
    v_foci: tuple = (),
    resolution_check: bool = True,
) -> QuadratureResult:
    """Integral of F(u, v) over I x I with raw arc-length measure dtheta^2.

    F takes two angle arrays that broadcast against each other (a stacked
    ``(t_order, n)`` block against a ``(t_order, n)`` or ``(n,)`` array)
    and returns nonnegative reals of the broadcast shape; it may blow up
    like |u-v|^-beta (beta < 1) at the diagonal.  F must be symmetric,
    F(u, v) = F(v, u): a proper arc integrates 2 F(u, v) over the half
    u > v, and raises ValueError when F(v, u) differs from F(u, v) beyond
    rtol 1e-12 on one row of nodes.  The difference angle t is
    resolved on dyadic panels refining toward t=0 (and toward t=2 pi for the
    full circle), so no node ever lands on the diagonal.  The error estimate
    combines a coarse re-run with the geometric tail of the t-panels.
    """
    if beta >= 1.0:
        raise ValueError("diagonal singularity exponent must satisfy beta < 1")

    # the smallest dyadic t-panel must stay above the angle grid's float
    # resolution, or u = v + t rounds onto the diagonal
    t_floor = 64.0 * np.finfo(float).eps * TWO_PI
    t_depth = min(t_depth, max(8, int(math.log2(arc.radian_length / t_floor))))

    def _run(t_depth_, t_order_, s_base_, s_order_):
        if arc.length >= 1.0:
            return _double_full_circle(F, t_depth_, t_order_, s_base_, s_order_, v_foci)
        return _double_proper_arc(F, arc, t_depth_, t_order_, s_base_, s_order_, v_foci)

    value, panel_sums, n_nodes = _run(t_depth, t_order, s_base, s_order)
    tail = _tail_estimate(np.array(panel_sums)) if len(panel_sums) >= 3 else 0.0
    err = tail
    flags = ()
    if resolution_check:
        v2, _, _ = _run(max(8, t_depth - 8), max(4, t_order // 2), max(4, s_base // 2), max(4, s_order // 2))
        err += abs(value - v2)
    return QuadratureResult(float(value), float(err), tuple(panel_sums), n_nodes, flags)


def _dyadic_panels(total: float, depth: int):
    """Panels of (0, total]: [total 2^-(m+1), total 2^-m], m = 0..depth-1."""
    edges = total * 2.0 ** -np.arange(depth + 1, dtype=float)
    return [(edges[m + 1], edges[m]) for m in range(depth)]


def _double_proper_arc(F, arc, t_depth, t_order, s_base, s_order, v_foci):
    L = arc.radian_length
    a0 = arc.center - 0.5 * L
    total = 0.0
    panel_sums = []
    n_nodes = 0
    for (tlo, thi) in _dyadic_panels(L, t_depth):
        tt, tw = _gauss_on(tlo, thi, t_order)
        t_mid = 0.5 * (tlo + thi)
        s_nodes, s_wts = _s_layout(a0, L, t_mid, v_foci, s_base, s_order)
        # Gauss t-nodes are interior to (0, L], so every span L - t is positive
        span = L - tt
        v = a0 + s_nodes[None, :] * span[:, None]
        u = v + tt[:, None]
        vals = np.asarray(F(u, v), dtype=float)
        _check_finite(vals, v, "arc_double_integral")
        if not panel_sums:
            _require_symmetric(F, u[0], v[0], vals[0])
        vals = 2.0 * vals
        panel = 0.0
        for k in range(len(tt)):
            panel += tw[k] * span[k] * float(np.dot(s_wts, vals[k]))
        n_nodes += vals.size
        total += panel
        panel_sums.append(panel)
    # dyadic panels run coarse to fine, so the finest (diagonal-adjacent)
    # contributions sit last, where the tail extrapolation reads them
    return total, panel_sums, n_nodes


def _require_symmetric(F, u, v, vals):
    back = np.asarray(F(v, u), dtype=float)
    if not np.allclose(back, vals, rtol=1e-12, atol=0.0):
        raise ValueError(
            "arc_double_integral needs a symmetric integrand: F(v, u) differs "
            f"from F(u, v) by up to {float(np.max(np.abs(back - vals))):.3e}"
        )


def _s_layout(a0, L, t_mid, v_foci, s_base, s_order):
    span = max(L - t_mid, 1e-300)
    foci_s = []
    for phi in v_foci:
        for image in (phi - TWO_PI, phi, phi + TWO_PI):
            for target in (image, image - t_mid):  # v-side and u-side roots
                s = (target - a0) / span
                if -0.25 < s < 1.25:
                    foci_s.append(s)
    delta_s = max(t_mid / span * 0.25, 1e-9)
    return angular_nodes(0.0, 1.0, delta_s, tuple(foci_s), s_base, s_order)


def _double_full_circle(F, t_depth, t_order, s_base, s_order, v_foci):
    total = 0.0
    panel_sums = []
    n_nodes = 0
    halves = [(x, y) for (x, y) in _dyadic_panels(math.pi, t_depth)]
    panels = [(lo, hi) for lo, hi in halves] + [(TWO_PI - hi, TWO_PI - lo) for lo, hi in halves]
    order_key = sorted(range(len(panels)), key=lambda i: min(panels[i][0], TWO_PI - panels[i][1]))
    for idx in order_key[::-1]:  # coarse first, finest (nearest diagonal) last
        tlo, thi = panels[idx]
        tt, tw = _gauss_on(tlo, thi, t_order)
        t_mid = 0.5 * (tlo + thi)
        gap_scale = min(t_mid, TWO_PI - t_mid)
        foci = []
        for phi in v_foci:
            foci.extend([phi, phi - t_mid])
        th, tww = angular_nodes(
            0.0, TWO_PI, max(0.25 * gap_scale, 1e-9), tuple(foci), s_base, s_order, wrap=True
        )
        vals = np.asarray(F(th[None, :] + tt[:, None], th), dtype=float)
        _check_finite(vals, th, "arc_double_integral")
        panel = 0.0
        for k in range(len(tt)):
            panel += tw[k] * float(np.dot(tww, vals[k]))
        n_nodes += vals.size
        total += panel
        panel_sums.append(panel)
    return total, panel_sums, n_nodes


# ---------------------------------------------------------------------------
# Cumulative box-mass tables (for measure self-interaction scans)
# ---------------------------------------------------------------------------


class BoxMassTable:
    """Fast approximate masses mu([r0,1) x interval) of a fixed density.

    Builds midpoint slabs (per dyadic annulus) x uniform angular cells and
    stores per-row cumulative sums; a box mass is then a handful of linear
    interpolations.  Rows straddling r0 enter with their overlap fraction.
    Accuracy is grid-limited; intended for scan quantities where the same
    measure is queried against thousands of boxes.
    """

    def __init__(self, density: Callable, *, depth: int = 12, slabs: int = 8,
                 n_min: int = 64, growth_cap: int = 10):
        rows = []
        for j in range(depth):
            r0 = 1.0 - 2.0 ** -j
            h = (2.0 ** -j - 2.0 ** -(j + 1)) / slabs
            n = max(n_min, 8 * 2 ** min(j, growth_cap))
            th = (np.arange(n) + 0.5) * (TWO_PI / n)
            e = np.exp(1j * th)
            for i in range(slabs):
                lo = r0 + i * h
                rc = lo + 0.5 * h
                dens = np.asarray(density(rc * e), dtype=float)
                _check_finite(dens, rc * e, "BoxMassTable")
                cell = dens * (rc * h * (TWO_PI / n) / math.pi)
                cum = np.concatenate([[0.0], np.cumsum(cell)])
                rows.append((lo, lo + h, n, cum))
        self._rows = rows
        self.depth = depth

    def total_mass(self) -> float:
        return float(sum(cum[-1] for (_, _, _, cum) in self._rows))

    def box_masses(self, r_lo: np.ndarray, pieces_list) -> np.ndarray:
        """Masses for Q query boxes given radial floors and piece lists."""
        q = len(r_lo)
        # one column per angular piece; empty columns hold (0, 0), mass 0
        m = max(2, max(map(len, pieces_list), default=0))
        lo = np.zeros((m, q)); hi = np.zeros((m, q))
        for i, pieces in enumerate(pieces_list):
            for c, (a, b) in enumerate(pieces):
                lo[c, i], hi[c, i] = a, b
        out = np.zeros(q)
        r_lo = np.asarray(r_lo, dtype=float)
        for (slo, shi, n, cum) in self._rows:
            frac = np.clip((shi - r_lo) / (shi - slo), 0.0, 1.0)
            active = frac > 0.0
            if not np.any(active):
                continue
            scale = n / TWO_PI
            grid = np.arange(n + 1, dtype=float)
            cols = np.interp(hi * scale, grid, cum) - np.interp(lo * scale, grid, cum)
            seg = cols[0]
            for col in cols[1:]:
                seg = seg + col
            out += frac * seg
        return out

    def region_mass(self, region: Region) -> float:
        if region.is_empty:
            return 0.0
        return float(self.box_masses(np.array([region.r_lo]), [region.pieces])[0])
