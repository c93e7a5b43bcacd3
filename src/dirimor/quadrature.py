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

Every region is integrated on its own window: S(w) is the window
``(-h, h)`` about ``c = arg w`` with ``h = pi (1 - |w|)``, the box of an arc
the window of its half-length about its centre, and the lune
``{|e^{ib} - z| < h}`` at radius r the window of its chord half-angle about
``b``.  A region across angle 0 is then laid out exactly as its rotations
are, and :meth:`BoxMassTable.box_masses` reads any one interval of the line
periodically, each annulus a box reaches whole from one summed row.

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
focus angles and their periodic images ``phi +- 2 pi``, down to the local
radial scale ``1 - r``.  A window is one tuple ``(lo, hi, delta, foci,
base_panels)``, and one layout, :func:`_lay_out`, places the panels of every
graded rule from a list of them; :func:`_gauss_panels` maps them to Gauss
nodes.  :func:`window_nodes` does both through the memoized
:func:`graded_breakpoints` for a graded disc grid's annuli (on the turn
from its first focus, so that rotating a problem rotates its grid), the
radial panels of a box or point box and the t-panels' v-rules of a boundary
double integral; the radial nodes of a lune (background cells from
:func:`fitted_panels`), whose layouts recur rarely, skip the memo.  A piece
that ends at angle 0 (or 2 pi) is thus graded toward a focus just across
that seam, and the window (-pi, pi) toward a focus at pi from both ends.

Every integration returns the per-dyadic-level contributions along with the
value; scan-type callers use these prefixes to expose divergence trends as
a function of radial depth.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache, cached_property
from typing import Callable, Optional

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


@lru_cache(maxsize=32)
def _gauss(order: int):
    return np.polynomial.legendre.leggauss(order)


def _gauss_on(a: float, b: float, order: int):
    x, w = _gauss(order)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w


# ---------------------------------------------------------------------------
# Angular layouts
# ---------------------------------------------------------------------------


def _lay_out(windows):
    """Sorted panel breakpoints of each window of ``windows``, graded toward
    its focus angles: one array per window.

    A window is one tuple ``(lo, hi, delta, foci, base_panels)``.  Each
    focus and its images phi +- 2 pi within one window width of [lo, hi]
    contribute breakpoints at geometric offsets delta/2, delta, 2 delta, ...
    on both sides, on top of ``base_panels`` uniform background cells.  The
    finest panels adjacent to a focus have width ~delta/2.
    """
    out = []
    for lo, hi, delta, foci, base_panels in windows:
        width = hi - lo
        pts = [np.linspace(lo, hi, max(1, int(base_panels)) + 1)]
        delta = max(float(delta), 1e-12)
        for phi in foci:
            for p in (phi - TWO_PI, phi, phi + TWO_PI):
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
        out.append(b)
    return tuple(out)


# Distinct layouts in the calls asked for: a round of the box benchmark, 58
# in 474; a dm_seminorm_box scan at the default ParamGrid(), 157 in 157, all
# of which the next scan with the same focus offsets asks for again; V4, V1
# and V5 at the default config, 172 in 863, 301 in 1,007 and 294 in 1,977.
@lru_cache(maxsize=1024)
def graded_breakpoints(windows):
    """The layout of :func:`_lay_out`, memoized on the whole tuple of
    windows (``foci`` must be a tuple).  Its arrays are read-only, since
    they are shared by every caller and thread that asks for the same
    layout."""
    breaks = _lay_out(windows)
    for b in breaks:
        b.flags.writeable = False
    return breaks


def fitted_panels(wlo, whi, base_panels):
    """Background cells of a fitted region's window (wlo, whi): one per
    2 pi / 64 of its width plus 3, at least 4 and at most ``base_panels``."""
    return max(4, min(base_panels, int(math.ceil((whi - wlo) / (TWO_PI / 64))) + 3))


def window_nodes(windows, order):
    """The one graded angular rule: Gauss nodes of every window of the list
    ``windows``, laid out by one memoized :func:`graded_breakpoints` call
    and mapped by :func:`_gauss_panels`.

    Each window ``(lo, hi, delta, foci, base_panels)`` gets Gauss panels of
    ``order`` nodes on its own breakpoints, so its nodes are those of a list
    holding it alone, bit for bit.  Returns (th, tw, bounds): the windows'
    nodes and weights end to end, window k at ``th[bounds[k]:bounds[k + 1]]``;
    an empty list gives empty arrays."""
    return _gauss_panels(graded_breakpoints(tuple(windows)), order)


def _gauss_panels(breaks, order):
    """(th, tw, bounds) of Gauss panels of ``order`` nodes on the cells of
    each breakpoint array of ``breaks``, as :func:`window_nodes` returns."""
    # the cells of every window, each (b[i], b[i + 1]); none joins two windows
    lo = np.concatenate([np.empty(0), *(b[:-1] for b in breaks)])
    half = 0.5 * (np.concatenate([np.empty(0), *(b[1:] for b in breaks)]) - lo)
    x, w = _gauss(order)
    th = lo[:, None] + half[:, None] * (x[None, :] + 1.0)
    tw = half[:, None] * w[None, :]
    bounds = list(itertools.accumulate((order * (b.size - 1) for b in breaks), initial=0))
    return th.ravel(), tw.ravel(), bounds


def radial_panels(d: float, depth: int, order: int, max_level: Optional[int] = None):
    """Gauss rules on the dyadic radial panels [1 - d 2^-l, 1 - d 2^-(l+1)].

    Yields (rr, rw, delta, j_abs) for l = 0..depth-1: the panel's nodes and
    weights, its outer distance delta = 1 - r_hi to the circle, and the
    absolute dyadic level int(-log2(1 - r_mid)) of its midpoint.  With
    ``max_level`` the panels stop at 1 - 2^-max_level (the panel crossing it
    is cut there).  An ``order`` below 1 raises ValueError.
    """
    if order < 1:
        raise ValueError(f"radial order must be at least 1, got {order}")
    cap_r = None if max_level is None else 1.0 - 2.0 ** -max_level
    for ell in range(depth):
        lo_r = 1.0 - d * 2.0 ** -ell
        hi_r = 1.0 - d * 2.0 ** -(ell + 1)
        if cap_r is not None:
            if lo_r >= cap_r:
                return
            hi_r = min(hi_r, cap_r)
        rr, rw = _gauss_on(lo_r, hi_r, order)
        yield rr, rw, 1.0 - hi_r, int(-math.log2(max(1.0 - 0.5 * (lo_r + hi_r), 1e-300)))


# ---------------------------------------------------------------------------
# The global disc grid
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RadialAnnuliGrid:
    """Dyadic annuli covering [0, 1-2^-depth] with per-annulus rules.

    Uniform mode (no foci): annulus j carries max(n_min, 8*2^min(j, growth_cap))
    equally weighted angles.  Graded mode (foci given): composite Gauss
    panels graded toward each focus with finest width ~2^-j, over
    ``base_panels`` background cells, anchored at the first focus, all
    annuli in one :func:`window_nodes` pass.  Each annulus carries a Gauss
    rule of RADIAL_ORDER radial nodes.  A ``panel_order`` or ``base_panels``
    below 1 raises ValueError naming it.
    """

    RADIAL_ORDER = 8

    depth: int = 24
    n_min: int = 64
    growth_cap: int = 11
    foci: tuple = ()
    panel_order: int = 8
    base_panels: int = 16

    def __post_init__(self):
        # a window's foci are part of its layout's memo key
        object.__setattr__(self, "foci", tuple(self.foci))
        if self.depth < 2:
            raise ValueError("grid depth must be at least 2")
        for name in ("panel_order", "base_panels"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")

    def ring_sizes(self) -> tuple:
        """Uniform mode: the angle count N_j of each annulus j; annulus j holds
        RADIAL_ORDER * N_j consecutive nodes, ring by ring."""
        return tuple(max(self.n_min, 8 * 2 ** min(j, self.growth_cap)) for j in range(self.depth))

    @cached_property
    def _nodes(self):
        panels = list(radial_panels(1.0, self.depth, self.RADIAL_ORDER))
        if self.foci:
            lo = self.foci[0]
            th, tw, bounds = window_nodes([(lo, lo + TWO_PI, d, self.foci, self.base_panels)
                                           for _, _, d, _ in panels], self.panel_order)
            e = np.exp(1j * th)
            rings = [(e[lo:hi], tw[lo:hi]) for lo, hi in zip(bounds[:-1], bounds[1:])]
        else:  # one ring at a time: a uniform grid's angles are many
            rings = ((np.exp(1j * ((np.arange(n) + 0.5) * (TWO_PI / n))), np.full(n, TWO_PI / n))
                     for n in self.ring_sizes())
        # each annulus's block is written in place, with no copies to join
        size = self.RADIAL_ORDER * (bounds[-1] if self.foci else sum(self.ring_sizes()))
        z, w, lv = np.empty(size, dtype=complex), np.empty(size), np.empty(size, dtype=np.int32)
        pos = 0
        for j, ((rr, rw, _, _), (e, tw)) in enumerate(zip(panels, rings)):
            blk = slice(pos, pos := pos + rr.size * e.size)
            np.multiply(rr[:, None], e[None, :], out=z[blk].reshape(rr.size, -1))
            np.multiply((rw * rr)[:, None], tw[None, :], out=w[blk].reshape(rr.size, -1))
            w[blk] /= math.pi
            lv[blk] = j
        return z, w, lv

    def nodes(self):
        """(z, weights, dyadic level) arrays; weights sum to (1-2^-depth)^2."""
        return self._nodes

    def describe(self) -> dict:
        return {
            "kind": "radial-annuli",
            "depth": self.depth,
            "radial_order": self.RADIAL_ORDER,
            "n_min": self.n_min,
            "growth_cap": self.growth_cap,
            "foci": list(self.foci),
            "panel_order": self.panel_order,
            "base_panels": self.base_panels,
        }


def _finalize(vals, w, levels, depth, nodes_used):
    contrib = vals * w
    per = np.bincount(levels, weights=contrib, minlength=depth)
    value = float(np.sum(per))
    tail = _tail_estimate(per)
    err = abs(float(per[-1])) + tail if len(per) >= 1 else 0.0
    return QuadratureResult(value, err, tuple(float(x) for x in per), nodes_used)


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
        raise QuadratureError(f"{what}: non-finite sample at node z={loc:.12g}", location=loc)


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
# Arcs and lunes
# ---------------------------------------------------------------------------


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


# angular background cells of a lune window
LUNE_BASE_PANELS = 8


def region_node_arrays(
    b: float,
    h: float,
    *,
    rel_depth: int = 28,
    radial_order: int = 8,
    foci: tuple = (),
    panel_order: int = 8,
):
    """Quadrature nodes of the lune {z : |e^{ib} - z| < h} in the disc.

    Radial panels are dyadic in the distance to the circle over the lune's
    radial range (1 - min(h, 1), 1), ``rel_depth`` levels deep.  At each
    radial node r the lune is the one interval b +- acos((1 + r^2 - h^2) / 2r),
    the full turn when the cosine is <= -1; it is integrated on its own window
    about b, graded toward the offsets of ``foci`` down to 1 - r.  Returns
    (z, w, abs_level), each node's level int(-log2(1 - r)); the windows of
    all radial nodes are laid out in one :func:`_lay_out` call.  A
    ``rel_depth``, ``radial_order`` or ``panel_order`` below 1 raises
    ValueError naming it.
    """
    if not h > 0.0:
        raise ValueError(f"lune chord radius h must be positive, got {h}")
    for name, value in (("rel_depth", rel_depth), ("panel_order", panel_order)):
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")
    offs = tuple((ph - b + math.pi) % TWO_PI - math.pi for ph in foci)
    panels = list(radial_panels(min(h, 1.0), rel_depth, radial_order))
    rr, rw = np.concatenate([p[0] for p in panels]), np.concatenate([p[1] for p in panels])
    windows, levels = [], []
    for r in rr.tolist():
        # Gauss nodes lie above 1 - h, where the cosine is below 1
        half = math.acos(max((1.0 + r * r - h * h) / (2.0 * r), -1.0))
        windows.append((-half, half, 1.0 - r, offs, fitted_panels(-half, half, LUNE_BASE_PANELS)))
        levels.append(int(-math.log2(max(1.0 - r, 1e-300))))
    # laid out without the memo: a lune's layout is asked for once and is
    # large (tens of kB), so memoizing it only fills the memo
    th, tw, bounds = _gauss_panels(_lay_out(windows), panel_order)
    counts = np.diff(bounds)
    z = np.repeat(rr, counts) * np.exp(1j * (b + th))
    w = np.repeat(rw * rr / math.pi, counts) * tw
    return z, w, np.repeat(np.array(levels, dtype=np.int32), counts)


def integrate_lune(
    field: Callable,
    b: float,
    h: float,
    *,
    rel_depth: int = 28,
    radial_order: int = 8,
    foci: tuple = (),
    panel_order: int = 8,
) -> QuadratureResult:
    """Integral of a field against dm over the lune {z : |e^{ib} - z| < h},
    on the nodes of :func:`region_node_arrays`."""
    z, w, lv = region_node_arrays(b, h, rel_depth=rel_depth, radial_order=radial_order,
                                  foci=foci, panel_order=panel_order)
    vals = np.asarray(field(z), dtype=float)
    _check_finite(vals, z, "integrate_lune")
    return _finalize(vals, w, lv, int(np.max(lv)) + 1, z.size)


# ---------------------------------------------------------------------------
# Boundary double integrals over I x I
# ---------------------------------------------------------------------------


def chord_gap(u_theta, v_theta):
    """|e^{iu} - e^{iv}| as points of the plane."""
    return 2.0 * np.abs(np.sin(0.5 * (np.asarray(u_theta) - np.asarray(v_theta))))


# Gauss nodes per dyadic t-panel of a boundary double integral
ARC_T_ORDER = 8
# Nodes per integrand call of a boundary double integral: whole t-panels are
# stacked side by side until the next one would pass this many, and a panel
# larger than it goes alone.  A whole arc in one call costs memory (+29 %
# peak on the boundary benchmark) and saves no time.
ARC_BLOCK = 4096


def arc_double_integral(
    F: Callable,
    arc: Arc,
    beta: float = 0.0,
    *,
    t_depth: int = 40,
    s_base: int = 8,
    s_order: int = 8,
    v_foci: tuple = (),
    focus_width: float = 0.0,
    resolution_check: bool = False,
) -> QuadratureResult:
    """Integral of F(u, v) over I x I with raw arc-length measure dtheta^2.

    F takes two angle arrays that broadcast against each other (a stacked
    ``(ARC_T_ORDER, n)`` block against a ``(ARC_T_ORDER, n)`` or ``(n,)`` array)
    and returns nonnegative reals of the broadcast shape; it may blow up
    like |u-v|^-beta (beta < 1) at the diagonal.  Row k of a block holds the
    k-th t-node of whole t-panels set side by side, their v-nodes as columns,
    at most ``ARC_BLOCK`` nodes a call unless one panel alone holds more.
    F must be symmetric, F(u, v) = F(v, u): a proper arc integrates
    2 F(u, v) over the half u > v, and raises ValueError when F(v, u)
    differs from F(u, v) beyond rtol 1e-12 on the first panel's first row.
    The difference angle t = u - v is resolved on ``t_depth`` dyadic panels
    refining toward t=0 (and toward t=2 pi for the full circle), so no node
    ever lands on the diagonal.  A non-finite value raises
    :class:`QuadratureError` naming the first such node in panel order.

    On each t-panel the v-nodes (``s_base`` background cells of ``s_order``
    nodes) are graded toward ``v_foci`` (the v-side roots) and toward their
    shifts by the panel's midpoint t (the u-side roots), with finest cells
    of about a quarter of t: the integrand's diagonal scale.  Every panel's
    v-rule comes from one :func:`window_nodes` call per arc, on (0, 2 pi)
    for the full circle and in the units s of :func:`_s_layout` for a proper
    arc.  ``focus_width`` is the angular width of the integrand's features
    at ``v_foci`` (an interior power kernel's 1 - |c|); the grading stops at
    a floor of a quarter of it, because finer cells resolve nothing the
    integrand holds.  With the default 0.0 the grading follows t alone.  A
    panel's sum is taken one t-node at a time, whatever block it sits in.
    The error estimate is the geometric tail of the t-panels.  A
    ``t_depth``, ``s_base`` or ``s_order`` below 1 raises ValueError, and so
    does ``resolution_check=True``: no re-run.
    """
    if beta >= 1.0:
        raise ValueError("diagonal singularity exponent must satisfy beta < 1")
    for name, value in (("t_depth", t_depth), ("s_base", s_base), ("s_order", s_order)):
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")
    if resolution_check:
        raise ValueError("resolution_check=True: arc_double_integral runs no coarse re-run")
    full = arc.length >= 1.0
    L = arc.radian_length
    a0 = arc.center - 0.5 * L
    # the t-panels halve L toward t = 0, or on the full circle pi toward both
    # ends of (0, 2 pi); the smallest must stay above the angle grid's float
    # resolution, or u = v + t rounds onto the diagonal
    t_range = math.pi if full else L
    t_floor = 64.0 * np.finfo(float).eps * TWO_PI
    t_depth = min(t_depth, max(8, int(math.log2(t_range / t_floor))))

    tlo, thi = (np.array(e) for e in zip(*_t_panels(t_range, full, t_depth)))
    x, w = _gauss(ARC_T_ORDER)
    t_mid, half = 0.5 * (tlo + thi), 0.5 * (thi - tlo)
    tt = t_mid[:, None] + half[:, None] * x  # (panels, ARC_T_ORDER)
    tw = half[:, None] * w
    mids = t_mid.tolist()
    if full:
        nodes, vw, bounds = window_nodes(
            [(0.0, TWO_PI, max(0.25 * min(m, TWO_PI - m), 0.25 * focus_width, 1e-9),
              tuple(g for phi in v_foci for g in (phi, phi - m)), s_base) for m in mids], s_order)
        scale = tw
    else:
        nodes, vw, bounds = window_nodes(
            [(0.0, 1.0, *_s_layout(a0, L, m, v_foci, focus_width), s_base) for m in mids], s_order)
        # Gauss t-nodes are interior to (0, L], so every span L - t is positive
        span = L - tt
        scale = 2.0 * tw * span
    counts = np.diff(bounds)

    total, panel_sums = 0.0, []
    for first, last in _panel_blocks(counts):
        lo, reps = bounds[first], counts[first:last]
        # column j of the block is v-node j of its panel, row k its k-th t-node
        v = nodes[lo:bounds[last]]
        if not full:
            v = a0 + v * np.repeat(span[first:last].T, reps, axis=1)
        u = v + np.repeat(tt[first:last].T, reps, axis=1)
        vals = np.asarray(F(u, v), dtype=float)
        cols = [slice(bounds[i] - lo, bounds[i + 1] - lo) for i in range(first, last)]
        if not np.all(np.isfinite(vals)):
            for c in cols:
                _check_finite(vals[:, c], v[..., c], "arc_double_integral")
        if not full and first == 0:
            _require_symmetric(F, u[0, cols[0]], v[0, cols[0]], vals[0, cols[0]])
        for i, c in zip(range(first, last), cols):
            panel_vw = vw[bounds[i]:bounds[i + 1]]
            panel = 0.0
            for k in range(ARC_T_ORDER):
                panel += scale[i, k] * float(np.dot(panel_vw, vals[k, c]))
            total += panel
            panel_sums.append(panel)
    err = _tail_estimate(np.array(panel_sums))
    return QuadratureResult(float(total), float(err), tuple(panel_sums), ARC_T_ORDER * bounds[-1])


def _panel_blocks(counts):
    """Runs [first, last) of consecutive t-panels, ``counts[i]`` v-nodes each,
    whose stacked nodes stay within ``ARC_BLOCK``; a larger panel runs alone."""
    blocks, first, size = [], 0, 0
    for i, n in enumerate(counts.tolist()):
        if size and size + ARC_T_ORDER * n > ARC_BLOCK:
            blocks.append((first, i))
            first, size = i, 0
        size += ARC_T_ORDER * n
    blocks.append((first, len(counts)))
    return blocks


def _t_panels(t_range, full, depth):
    """The dyadic t-panels, coarse to fine, so that the finest (diagonal-
    adjacent) contributions sit last, where the tail extrapolation reads them.

    The panels [t_range 2^-(m+1), t_range 2^-m], m = 0..depth-1, and on the
    full circle (t_range = pi) also their mirrors about pi.  A level's two
    panels tie in distance to the diagonal up to rounding, which orders them."""
    edges = t_range * 2.0 ** -np.arange(depth + 1, dtype=float)
    panels = [(edges[m + 1], edges[m]) for m in range(depth)]
    if not full:
        return panels
    panels += [(TWO_PI - hi, TWO_PI - lo) for lo, hi in panels]
    return sorted(panels, key=lambda p: min(p[0], TWO_PI - p[1]))[::-1]


def _require_symmetric(F, u, v, vals):
    back = np.asarray(F(v, u), dtype=float)
    if not np.allclose(back, vals, rtol=1e-12, atol=0.0):
        raise ValueError(
            "arc_double_integral needs a symmetric integrand: F(v, u) differs "
            f"from F(u, v) by up to {float(np.max(np.abs(back - vals))):.3e}"
        )


def _s_layout(a0, L, t_mid, v_foci, focus_width):
    """The v-grading of a proper arc's t-panel in s = (v - a0) / (L - t_mid),
    on [0, 1]: (delta_s, foci_s), graded toward the v- and u-side roots of
    ``v_foci`` down to a quarter of t_mid, but no finer than a quarter of
    ``focus_width``.  Their images 2 pi away lie beyond one window width and
    add no breakpoints."""
    span = max(L - t_mid, 1e-300)
    foci_s = []
    for phi in v_foci:
        for image in (phi - TWO_PI, phi, phi + TWO_PI):
            for target in (image, image - t_mid):  # v-side and u-side roots
                s = (target - a0) / span
                if -0.25 < s < 1.25:
                    foci_s.append(s)
    delta_s = max(t_mid / span * 0.25, focus_width / span * 0.25, 1e-9)
    return delta_s, tuple(foci_s)


# ---------------------------------------------------------------------------
# Cumulative box-mass tables (for measure self-interaction scans)
# ---------------------------------------------------------------------------


class BoxMassTable:
    """Approximate masses mu([r0, 1) x interval) of a fixed density.

    Each dyadic annulus ``[1 - 2^-j, 1 - 2^-(j+1))`` is cut into ``SLABS``
    midpoint slabs of uniform angular cells, and is stored as one
    ``(SLABS + 1, n + 1)`` block of cumulative cell sums (one float per cell
    plus a leading zero per row): a row per slab, and last the whole
    annulus's row, the sum of the slab rows.  A query reads a row
    periodically: whole turns as multiples of the row total, whole cells as
    a difference of cumulative sums and the two end cells by their covered
    fractions.  A box that reaches the whole annulus reads its last row
    once; a box whose r0 falls inside the annulus reads the slabs it
    reaches, each with its overlap fraction.  Accuracy is grid-limited;
    intended for scan quantities where the same measure is queried against
    thousands of boxes.
    """

    SLABS = 8  # midpoint slabs per dyadic annulus

    def __init__(self, density: Callable, *, depth: int = 12):
        blocks = []
        # annulus j has the angle count of a uniform disc grid's ring j
        sizes = RadialAnnuliGrid(depth=depth, n_min=64, growth_cap=10).ring_sizes()
        for j, n in enumerate(sizes):
            r0 = 1.0 - 2.0 ** -j
            h = (2.0 ** -j - 2.0 ** -(j + 1)) / self.SLABS
            th = (np.arange(n) + 0.5) * (TWO_PI / n)
            e = np.exp(1j * th)
            cum = np.zeros((self.SLABS + 1, n + 1))
            for i in range(self.SLABS):
                rc = (r0 + i * h) + 0.5 * h
                dens = np.asarray(density(rc * e), dtype=float)
                _check_finite(dens, rc * e, "BoxMassTable")
                np.cumsum(dens * (rc * h * (TWO_PI / n) / math.pi), out=cum[i, 1:])
                cum[-1] += cum[i]  # the whole annulus: slab rows added in order
            blocks.append((r0, h, cum))
        self._blocks = blocks
        self.depth = depth

    def total_mass(self) -> float:
        return float(sum(s for (_, _, cum) in self._blocks for s in cum[:-1, -1]))

    def box_masses(self, r_lo: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Masses of the boxes [r_lo[i], 1) x (lo[i], hi[i]), one angular
        interval per box with lo[i] <= hi[i]; the interval may lie anywhere
        on the real line and may span whole turns.  The three arguments are
        1-d arrays of one length; other shapes raise ValueError, and so does
        a box with a non-finite r_lo, lo or hi or with hi < lo, naming the
        first such box by its index.

        Each row is read periodically: the whole turns between the two ends
        enter as an exact multiple of the row total, the whole cells between
        them as a difference of cumulative sums, and the two end cells by
        their covered fractions.  Moving an end inside its cell then moves
        the mass by a share of that cell alone; reading each end as an
        interpolated cumulative sum would round it to the row total.

        The boxes are taken in order of r_lo.  The cells and end fractions
        of an annulus are located once for all the boxes that reach it; the
        prefix of boxes with r_lo <= r0 reads the annulus's summed row, and
        the boxes that start inside the annulus read its slab rows in one
        gather, each slab's share added in slab order."""
        r_lo, lo, hi = (np.asarray(a, dtype=float) for a in (r_lo, lo, hi))
        if r_lo.ndim != 1 or lo.shape != r_lo.shape or hi.shape != r_lo.shape:
            raise ValueError("box_masses needs r_lo, lo and hi as 1-d arrays of one length, "
                             f"got shapes {r_lo.shape}, {lo.shape} and {hi.shape}")
        finite = np.isfinite(r_lo) & np.isfinite(lo) & np.isfinite(hi)
        bad = np.flatnonzero(~(finite & (hi >= lo)))
        if bad.size:
            i = int(bad[0])
            if not finite[i]:
                raise ValueError(f"box {i} needs a finite r_lo, lo and hi, got (r_lo, lo, hi) = "
                                 f"({float(r_lo[i])!r}, {float(lo[i])!r}, {float(hi[i])!r})")
            raise ValueError(f"box {i} needs lo <= hi, got (lo, hi) = "
                             f"({float(lo[i])!r}, {float(hi[i])!r})")
        order = np.argsort(r_lo, kind="stable")
        r_lo = r_lo[order]
        turns_hi, hi = np.divmod(hi[order], TWO_PI)
        turns_lo, lo = np.divmod(lo[order], TWO_PI)
        turns = turns_hi - turns_lo
        out = np.zeros(len(r_lo))
        for r0, h, cum in self._blocks:
            n = cum.shape[1] - 1
            # the boxes that reach the annulus's last slab reach all others
            m = int(np.searchsorted(r_lo, (r0 + (self.SLABS - 1) * h) + h))
            if m == 0:
                continue
            x_lo, x_hi = lo[:m] * (n / TWO_PI), hi[:m] * (n / TWO_PI)
            # an angle just below 2 pi can scale to n: it ends cell n - 1
            i_lo = np.minimum(x_lo.astype(np.intp), n - 1)
            i_hi = np.minimum(x_hi.astype(np.intp), n - 1)
            f_lo, f_hi = x_lo - i_lo, x_hi - i_hi
            # boxes from r0 or below take every slab whole
            w = int(np.searchsorted(r_lo[:m], r0, side="right"))
            out[:w] += _read_row(cum[-1], i_lo[:w], i_hi[:w], f_lo[:w], f_hi[:w], turns[:w])
            if m == w:
                continue
            # the boxes that start inside the annulus read all its slab rows
            # in one gather, a slab they do not reach at fraction 0, and add
            # them in slab order
            part = slice(w, m)
            slo = r0 + np.arange(self.SLABS)[:, None] * h
            shi = slo + h
            frac = np.clip((shi - r_lo[part]) / (shi - slo), 0.0, 1.0)
            slabs = frac * _read_row(cum[:-1], i_lo[part], i_hi[part], f_lo[part], f_hi[part],
                                     turns[part])
            for share in slabs:
                out[part] += share
        result = np.empty_like(out)
        result[order] = out
        return result


def _read_row(rows, i_lo, i_hi, f_lo, f_hi, turns):
    """The mass of cumulative row ``rows`` (or of each row of a 2-d stack of
    them) between two ends, each given as its cell and covered fraction,
    plus ``turns`` whole turns."""
    a, b = rows[..., i_lo], rows[..., i_hi]
    part_hi = f_hi * (rows[..., i_hi + 1] - b)
    part_lo = f_lo * (rows[..., i_lo + 1] - a)
    return (b - a) + (part_hi - part_lo) + turns * rows[..., -1:]
