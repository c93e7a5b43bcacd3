"""Norms, seminorms and Carleson-type quantities for functions on the disc.

Every supremum in the underlying definitions ranges over a continuum (all
interior points a, all subarcs I); here each is scanned over a finite
deterministic grid and reported as a :class:`NormReport` carrying the
maximizer, the grid description, and a refinement trace.  Membership in the
spaces involved is not decidable by finite sampling, so divergence is always
reported as a *trend*: the slope of log(quantity) against grid level over
the last few levels, with a shared threshold (0.1) separating
"bounded-trend" from "unbounded-trend".

Three scan axes are used, matching where each quantity's divergence lives:

* translate-type quantities scan interior points a at radii 1 - 2^-k
  (level axis = k);
* box-type quantities integrate a derivative measure over Carleson boxes
  and expose the radial depth truncation 1 - 2^-L (level axis = L), which
  is where lacunary-measure divergence shows up;
* boundary/sup-type quantities scan radii toward the circle.

Two independent routes exist for the translate seminorm (translate then
integrate, or change of variables to the weight (1-|phi_a|^2)^p), and a
coefficient-side oracle exists for the weighted Dirichlet norm of
polynomials; tests hold these pairs together.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .analytic import AnalyticFunction, SpaceParams, mobius_translate
from .quadrature import (
    Arc,
    BoxMassTable,
    RadialAnnuliGrid,
    TWO_PI,
    arc_double_integral,
    chord_gap,
    fitted_panels,
    integrate_disc,
    radial_panels,
    window_nodes,
)

TREND_SLOPE_THRESHOLD = 0.1
TREND_TAIL_POINTS = 5


class UnsupportedFunctionError(ValueError):
    """The requested quantity needs a capability the function lacks."""


# ---------------------------------------------------------------------------
# Reports, grids, trends
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NormReport:
    """A scanned quantity: its value, where the scan attained it, and how it
    moved under the last refinement step.

    A scan's report also keeps the entries it reduced, each led by its grid
    level, and the reducer that made it of them, so :meth:`upto` can read
    the scan on a coarser grid; neither enters equality or :meth:`as_dict`."""

    quantity: str
    value: float
    maximizer: object
    grid: dict
    refinement_delta: float
    error: float = 0.0
    flags: tuple = ()
    levels: tuple = ()  # (level, running value) trace along the scan axis
    entries: tuple = field(default=(), compare=False, repr=False)
    reducer: Optional[Callable] = field(default=None, compare=False, repr=False)

    def upto(self, level: int) -> "NormReport":
        """The report of this scan cut to grid levels <= ``level`` (a-level,
        arc level or ray level): the scan's reducer run again on the entries
        of those levels, with the grid's level field lowered to match.  It
        equals the report of a scan on the cut grid wherever an entry's value
        does not depend on the grid's depth; the flags the scan passed in
        (gpcm's "degenerate") and the grid's other fields stay the scan's."""
        if self.reducer is None:
            raise ValueError(f"the {self.quantity} report keeps no scan entries")
        if level < 0:
            raise ValueError(f"level must be at least 0, got {level}")
        return self.reducer(tuple(e for e in self.entries if e[0] <= level), level)

    def as_dict(self) -> dict:
        maximizer = self.maximizer
        if isinstance(maximizer, complex):
            maximizer = {"re": maximizer.real, "im": maximizer.imag}
        elif isinstance(maximizer, Arc):
            maximizer = {"center": maximizer.center, "length": maximizer.length}
        return {
            "quantity": self.quantity,
            "value": self.value,
            "maximizer": maximizer,
            "grid": self.grid,
            "refinement_delta": self.refinement_delta,
            "error": self.error,
            "flags": list(self.flags),
            "levels": [[int(l), float(v)] for l, v in self.levels],
        }


@dataclass(frozen=True)
class ParamGrid:
    """Finite scan grids for the a-suprema and arc-suprema.

    Interior points: radii 1 - 2^-k for k = 0..k_a with min(max(8, 8*2^k),
    a_angle_cap) equispaced directions (k = 0 is the single point a = 0).
    The cap keeps deep scans affordable; directions always include angle 0,
    where the built-in families concentrate.  Arcs: dyadic lengths 2^-j for
    j = 0..k_arc at n_centers equispaced centers (j = 0 is the full circle).
    Translate scans integrate on disc grids of radial dyadic ``depth`` with
    ``base_panels`` background angular panels; the other scans read neither.
    """

    k_a: int = 10
    a_angle_cap: int = 64
    k_arc: int = 12
    n_centers: int = 64
    depth: int = 24
    base_panels: int = 16

    def __post_init__(self):
        for name, least in (("k_a", 0), ("a_angle_cap", 1), ("k_arc", 0), ("n_centers", 1),
                            ("depth", 2), ("base_panels", 1)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be at least {least}, got {getattr(self, name)}")

    def a_points(self):
        pts = [(0, 0.0 + 0.0j)]
        for k in range(1, self.k_a + 1):
            r = 1.0 - 2.0 ** -k
            n = min(max(8, 8 * 2 ** k), self.a_angle_cap)
            for m in range(n):
                pts.append((k, r * np.exp(2j * math.pi * m / n)))
        return pts

    def a_points_by_direction(self):
        groups: dict = {}
        for level, a in self.a_points():
            key = None if a == 0 else round(float(np.angle(a)) % TWO_PI, 12)
            groups.setdefault(key, []).append((level, a))
        return sorted(groups.items(), key=lambda kv: (kv[0] is not None, kv[0] or 0.0))

    def arcs(self):
        out = [(0, Arc(0.0, 1.0))]
        for j in range(1, self.k_arc + 1):
            for m in range(self.n_centers):
                out.append((j, Arc(TWO_PI * m / self.n_centers, 2.0 ** -j)))
        return out

    def refined(self) -> "ParamGrid":
        return replace(self, k_a=self.k_a + 1, k_arc=self.k_arc + 1)


def trend_slope(levels, values) -> float:
    """Least-squares slope of log(value) against level over the last
    TREND_TAIL_POINTS points."""
    xs, ys = [], []
    for x, y in zip(levels, values):
        if y > 0 and math.isfinite(y):
            xs.append(float(x))
            ys.append(math.log(y))
    if len(xs) < 2:
        return 0.0
    xs, ys = np.array(xs[-TREND_TAIL_POINTS:]), np.array(ys[-TREND_TAIL_POINTS:])
    xm, ym = xs.mean(), ys.mean()
    denom = float(np.sum((xs - xm) ** 2))
    if denom == 0.0:
        return 0.0
    return float(np.sum((xs - xm) * (ys - ym)) / denom)


def classify_trend(slope: float) -> str:
    return "unbounded-trend" if slope > TREND_SLOPE_THRESHOLD else "bounded-trend"


def _trace_report(quantity, value, maximizer, grid, trace, entries, reducer, *,
                  error=0.0, flags=()) -> NormReport:
    """A scanned quantity's report, keeping the scan's ``entries`` and its
    ``reducer``.  Its refinement delta (the relative change over the last
    step), trend flag and levels all come from the (level, running value)
    ``trace``, which holds at least one level."""
    delta = 0.0
    if len(trace) >= 2 and trace[-1][1] != 0.0:
        delta = abs(trace[-1][1] - trace[-2][1]) / abs(trace[-1][1])
    slope = trend_slope([l for l, _ in trace], [v for _, v in trace])
    flags = tuple(flags) + (classify_trend(slope),)
    return NormReport(quantity=quantity, value=value, maximizer=maximizer, grid=grid,
                      refinement_delta=delta, error=error, flags=tuple(flags),
                      levels=tuple(trace), entries=tuple(entries), reducer=reducer)


def _scan_report(quantity, entries, grid, axis, *, offset=0.0, flags=()) -> NormReport:
    """The report of a supremum scanned over (level, point, value) entries,
    each with an optional fourth element, its error; ``axis`` names the
    field of the ``grid`` dict that holds the deepest level.

    Its value is ``offset`` plus the first strict maximum of the values,
    attained at that entry's point (``None`` when no value is positive) with
    that entry's error (0.0 without).  Its levels trace is the running
    maximum of the per-level maxima, each plus ``offset``, in increasing
    level order; a scan without entries traces the single level (0, offset)."""
    best, chosen = 0.0, None
    per_level: dict = {0: 0.0} if not entries else {}
    for i, (level, _, v, *_) in enumerate(entries):
        per_level[level] = max(per_level.get(level, 0.0), v)
        if v > best:
            best, chosen = v, i
    trace, running = [], 0.0
    for level in sorted(per_level):
        running = max(running, per_level[level])
        trace.append((level, offset + running))
    maximizer = None if chosen is None else entries[chosen][1]
    error = 0.0 if chosen is None or len(entries[chosen]) < 4 else entries[chosen][3]

    def cut(kept, level):
        return _scan_report(quantity, kept, {**grid, axis: min(level, grid[axis])}, axis,
                            offset=offset, flags=flags)

    return _trace_report(quantity, offset + best, maximizer, grid, trace, entries, cut,
                         error=error, flags=flags)


# ---------------------------------------------------------------------------
# Grid selection per function
# ---------------------------------------------------------------------------


def effective_depth(f: AnalyticFunction, depth: int) -> int:
    """Radial depth reachable inside the function's certified radius."""
    if f.r_max >= 1.0:
        return depth
    return max(2, min(depth, int(-math.log2(1.0 - f.r_max) + 1e-9)))


def grid_for_function(
    f: AnalyticFunction,
    depth: int = 28,
    *,
    extra_foci: tuple = (),
    panel_order: int = 6,
    base_panels: int = 16,
    growth_cap: int = 0,
) -> RadialAnnuliGrid:
    """A disc grid adapted to the function: graded toward its singular
    directions when it has any, otherwise uniform at its angular hint.

    Lacunary (oscillatory) functions must stay on uniform (equal-weight)
    angles, where trigonometric aliasing keeps their oscillation integrated
    exactly; graded panels would sample it incoherently.
    """
    depth = effective_depth(f, depth)
    foci = tuple(sorted(set(f.singular_angles) | set(extra_foci)))
    if foci and not f.oscillatory:
        return RadialAnnuliGrid(
            depth=depth, foci=foci, panel_order=panel_order, base_panels=base_panels
        )
    return RadialAnnuliGrid(depth=depth, n_min=f.angular_hint, growth_cap=growth_cap)


def _require_weight_exponent(name: str, value: float) -> None:
    """The weight (1-|z|^2)^p is integrable on the disc exactly for p > -1;
    any other or non-finite exponent raises ValueError naming ``name``."""
    if not (math.isfinite(value) and value > -1.0):
        raise ValueError(f"{name} must be a finite weight exponent above -1, got {value!r}")


def derivative_density(g: AnalyticFunction, p: float) -> Callable:
    """The density of the measure |g'(z)|^2 (1-|z|^2)^p dm(z) of a symbol g."""
    return lambda z: g.deriv_abs2(z) * (1.0 - np.abs(z) ** 2) ** p


# ---------------------------------------------------------------------------
# Weighted Dirichlet norm and its coefficient oracle
# ---------------------------------------------------------------------------


def beta_moment(n: int, p: float) -> float:
    """integral over D of |z|^(2(n-1)) (1-|z|^2)^p dm = Gamma(n)Gamma(p+1)/Gamma(n+p+1)."""
    return math.exp(math.lgamma(n) + math.lgamma(p + 1.0) - math.lgamma(n + p + 1.0))


def dirichlet_norm_coeff(coeffs: Sequence[complex], p: float) -> float:
    """Coefficient-side oracle for the weighted Dirichlet norm of a polynomial:
    sqrt(|a_0|^2 + sum n^2 |a_n|^2 Gamma(n)Gamma(p+1)/Gamma(n+p+1))."""
    coeffs = [complex(c) for c in coeffs]
    total = abs(coeffs[0]) ** 2 if coeffs else 0.0
    for n in range(1, len(coeffs)):
        total += n * n * abs(coeffs[n]) ** 2 * beta_moment(n, p)
    return math.sqrt(total)


def dirichlet_norm(f: AnalyticFunction, p: float) -> NormReport:
    """sqrt(|f(0)|^2 + integral of |f'|^2 (1-|z|^2)^p dm), on the function's
    own disc grid of depth 40.  An exponent p that is not finite or not
    above -1 raises ValueError."""
    _require_weight_exponent("p", p)
    grid = grid_for_function(f, 40, panel_order=8, base_panels=24)
    res = integrate_disc(derivative_density(f, p), grid)
    f0 = abs(f.at_zero())
    value = math.sqrt(f0 * f0 + max(res.value, 0.0))
    prev = math.sqrt(f0 * f0 + max(res.value - res.level_sums[-1], 0.0))
    delta = abs(value - prev) / value if value > 0 else 0.0
    return NormReport(
        quantity="dirichlet",
        value=value,
        maximizer=None,
        grid=grid.describe(),
        refinement_delta=delta,
        error=res.error,
    )


# ---------------------------------------------------------------------------
# Translate seminorms and translate-type norms
# ---------------------------------------------------------------------------


def translate_seminorm(
    f: AnalyticFunction,
    p: float,
    a: complex,
    *,
    route: str = "weight",
    depth: int = 28,
    panel_order: int = 6,
    base_panels: int = 16,
) -> float:
    """The weighted Dirichlet seminorm of f o phi_a - f(a).

    route="weight" integrates |f'(z)|^2 (1-|phi_a(z)|^2)^p by the change of
    variables; route="translate" builds the translate and integrates
    |(f o phi_a)'|^2 (1-|z|^2)^p directly.  The two must agree within
    quadrature tolerance.  A p outside (-1, inf) or a non-finite a raises
    ValueError naming it.
    """
    _require_weight_exponent("p", p)
    a = complex(a)
    if not cmath.isfinite(a):
        raise ValueError(f"a must be a finite translate point, got {a!r}")
    if abs(a) >= 1.0:
        raise ValueError("translate point must satisfy |a| < 1")
    if route == "translate":
        g = mobius_translate(f, a)
        if g.r_max < 0.5:
            raise UnsupportedFunctionError(
                f"{f.label}: translate route needs evaluation up to |z| ~ 1, but the "
                f"translate's certified radius is {g.r_max:.3g}; use route='weight'"
            )
        grid = grid_for_function(
            g, depth, panel_order=panel_order, base_panels=base_panels,
            growth_cap=_growth_for_radius(abs(a)),
        )
        res = integrate_disc(derivative_density(g, p), grid)
        return math.sqrt(max(res.value, 0.0))
    if route != "weight":
        raise ValueError(f"unknown route {route!r}")
    extra = (float(np.angle(a)) % TWO_PI,) if a != 0 else ()
    grid = grid_for_function(
        f, depth, extra_foci=extra, panel_order=panel_order,
        base_panels=base_panels, growth_cap=_growth_for_radius(abs(a)),
    )
    return float(_group_rows([f], p, grid, lambda bases, z: _point_rows(bases, z, p, [a]))[0, 0])


def _growth_for_radius(r: float) -> int:
    if r <= 0.0:
        return 0
    return max(4, int(-math.log2(max(1.0 - r, 1e-12))) + 2)


# Gauss order of the graded angular panels of translate scans
TRANSLATE_PANEL_ORDER = 4
# Members of a translate-scan group whose bases are held at once; each block
# shares one Mobius weight per point, and a small block bounds the memory
MEMBER_BLOCK = 2


def _translate_scan(
    fs: Sequence[AnalyticFunction],
    p: float,
    weight_of_a: Callable[[float], float],
    grid: ParamGrid,
    desc: dict,
) -> list:
    """The report of each function f of fs: |f(0)| plus the maximum over the
    a-grid of weight_of_a(|a|) times the translate seminorm of f at a, on
    disc grids of the grid's ``depth`` and ``base_panels``.

    Non-oscillatory functions (polynomials and kernels alike) get one graded
    grid per scan direction, with that direction as an extra focus; the
    |f'|^2 evaluation is reused across the radii of the direction.
    Oscillatory functions keep a single uniform grid, dense enough in angle
    for the deepest Mobius weight scanned, and scan ``grid.a_points()`` on it
    through ``_uniform_rows``: a level whose direction count divides every
    ring size of that grid takes the rotation-shift route, any other level
    the per-point loop of ``_point_rows``.

    Functions whose grids for a direction (or whose uniform grids) are equal
    form one group, scanned on one build of the grid by ``_group_rows``: the
    radial weight and each symbol factor are evaluated once per grid, each
    ray frame once per direction and block of MEMBER_BLOCK members, and
    each Mobius weight once per point and block.  The kernels return
    seminorm tables; this scan alone weights each seminorm s into the entry
    (level, a, weight_of_a(|a|) s).  Each function's entries come in the
    order of its own scan: direction by direction, or ``grid.a_points()``
    order on a uniform grid; the first maximum wins.  Each report is named
    ``desc["scan"]``, and its grid is ``desc`` plus the settings the scan read.
    """
    entries = [[] for _ in fs]

    def scan(discs, pts, run):
        """Extend function i's entries by its weighted row of run(bases, z,
        disc) at pts, for each (i, grid) of discs; equal grids are built once,
        one at a time (popped, so a grid's nodes are freed before the next)."""
        weights = np.array([weight_of_a(abs(a)) for _, a in pts])
        groups: dict = {}
        for i, disc in discs:
            groups.setdefault(disc, []).append(i)
        while groups:
            disc, members = groups.popitem()
            table = _group_rows([fs[i] for i in members], p, disc,
                                lambda bases, z: run(bases, z, disc)) * weights
            for i, row in zip(members, table.tolist()):
                entries[i].extend((level, a, v) for (level, a), v in zip(pts, row))

    focal = [i for i, f in enumerate(fs) if not f.oscillatory]
    for _, pts in grid.a_points_by_direction():
        ang = next((float(np.angle(a)) % TWO_PI for _, a in pts if a != 0), None)
        extra = (ang,) if ang is not None else ()
        scan([(i, grid_for_function(fs[i], grid.depth, extra_foci=extra,
                                    panel_order=TRANSLATE_PANEL_ORDER,
                                    base_panels=grid.base_panels)) for i in focal],
             pts, lambda bases, z, disc: _point_rows(bases, z, p, [a for _, a in pts]))
    cap = min(grid.k_a + 1, 11)
    pts = grid.a_points()
    scan([(i, grid_for_function(f, grid.depth, growth_cap=cap))
          for i, f in enumerate(fs) if f.oscillatory],
         pts, lambda bases, z, disc: _uniform_rows(bases, z, p, pts, disc))
    desc = {**desc, "k_a": grid.k_a, "a_angle_cap": grid.a_angle_cap,
            "depth": grid.depth, "base_panels": grid.base_panels}
    return [_scan_report(desc["scan"], es, desc, "k_a", offset=abs(f.at_zero()))
            for f, es in zip(fs, entries)]


def _group_rows(fs, p, disc, run) -> np.ndarray:
    """The seminorm table of fs on the disc grid ``disc``, a row per function:
    the tables of run(bases, z) for blocks of MEMBER_BLOCK members, stacked.

    A base is |f'|^2 (1-|z|^2)^p w, built in place in the operation order of
    ``derivative_density(f, p)(z) * w``, so it matches that bit for bit.
    The radial weight and each symbol factor (keyed on the symbol) are
    evaluated once per grid, after the first |f'|^2 that needs them, and
    dropped before the last block is scanned; a block's bases are freed
    before the next block's are built.  run allocates its own work arrays
    (a ray frame and a weight, 24 bytes per node, and a row when a block
    holds more than one base) after the block's bases are built."""
    z, w, _ = disc.nodes()
    shared: dict = {}

    def once(key, make):
        if key not in shared:
            shared[key] = make()
        return shared[key]

    def base(f):
        own, symbol = f.deriv_abs2_factors()
        d2 = own(z)
        if symbol is not None:
            d2 *= once(symbol, lambda: symbol(z))
        d2 *= once(None, lambda: (1.0 - np.abs(z) ** 2) ** p)  # the radial weight
        d2 *= w
        return d2

    tables = []
    for lo in range(0, len(fs), MEMBER_BLOCK):
        bases = [base(f) for f in fs[lo:lo + MEMBER_BLOCK]]
        if lo + MEMBER_BLOCK >= len(fs):
            shared.clear()
        tables.append(run(bases, z))
        del bases
    return np.concatenate(tables)


# Below this |a| the Mobius weight is 1 in double precision, and a point
# reads as a = 0 (the ray frame's 1/|a| would overflow near |a| = 1e-154)
TINY_A = 2.0 ** -54
# Points whose unit vectors a/|a| differ by at most this share a ray frame
FRAME_TOL = 4e-16
# Nodes per block of a ray frame's build: the complex buffer stays in cache
FRAME_BLOCK = 16384


def _ray_frame(u, z, x, y2):
    """x <- Re(conj(u) z) and y2 <- Im(conj(u) z)^2, the frame of the ray
    through the unit vector u: built in node blocks through one small complex
    buffer, so every grid-sized pass is contiguous."""
    cu = np.conj(u)
    buf = np.empty(min(FRAME_BLOCK, z.size), dtype=complex)
    for lo in range(0, z.size, FRAME_BLOCK):
        blk = slice(lo, lo + buf.size)
        zb = z[blk]
        b = buf[:zb.size]
        np.multiply(cu, zb, out=b)
        x[blk] = b.real
        np.square(b.imag, out=y2[blk])


def _mobius_weight(rho, x, y2, p, q):
    """q <- ((1-|a|^2)/|1-conj(a) z|^2)^p at a = rho u, read in the frame
    (x, y2) of the ray through u: |1-conj(a) z|^2 = rho^2 ((1/rho - x)^2 + y^2),
    in five real passes; ``**=`` keeps numpy's scalar-power fast paths.
    Needs rho >= TINY_A."""
    np.subtract(1.0 / rho, x, out=q)
    q *= q
    q += y2
    np.divide((1.0 - rho * rho) / (rho * rho), q, out=q)
    q **= p
    return q


def _point_rows(bases, z, p, points) -> np.ndarray:
    """The seminorm table of the bases at the translate ``points``: cell
    [i, j] is sqrt(max(np.sum(base_i * q_j), 0)), with one Mobius weight q_j
    per point shared by the bases, each taking its product in a work row;
    the last base's product overwrites q, which that point needs no more,
    so a single base needs no row.  The weight is read in the frame of the
    point's ray (:func:`_ray_frame`), built once for consecutive points whose
    unit vectors agree within FRAME_TOL (so once for a scan direction).  The
    frame (x, y2), q and the row are allocated at the first point with
    |a| >= TINY_A; a point below that takes the a = 0 sum, bit for bit."""
    sem2 = np.empty((len(bases), len(points)))
    u0 = None
    for j, a in enumerate(points):
        rho = abs(a)
        if rho >= TINY_A:
            u = complex(a) / rho  # each part rounded once, whatever a's type
            if u0 is None:
                x, y2, q = np.empty(z.shape), np.empty(z.shape), np.empty(z.shape)
                row = np.empty(z.shape) if len(bases) > 1 else None
            if u0 is None or abs(u - u0) > FRAME_TOL:
                _ray_frame(u, z, x, y2)
                u0 = u
            _mobius_weight(rho, x, y2, p, q)
        for i, b in enumerate(bases):
            sem2[i, j] = np.sum(b if rho < TINY_A else
                                np.multiply(b, q, out=q if i == len(bases) - 1 else row))
    return np.sqrt(np.maximum(sem2, 0.0))


def _uniform_rows(bases, z, p, pts, disc) -> np.ndarray:
    """The seminorm table of ``_point_rows`` at the points of the (level, a)
    list ``pts`` (a ParamGrid's ``a_points()``), on a uniform disc grid.

    Level k of the a-grid is the orbit r_k e^{2 pi i m/n}, m = 0..n-1, and
    ring j of the grid has N_j angles (i + 1/2) 2 pi/N_j.  When n divides
    every N_j, the Mobius weight of direction m is the weight W0 of a = r_k
    shifted by m N_j/n slots on each ring (block-circulant).  With each
    ring's angles cut into n blocks and G[b, d] the sum of base on block b
    times W0 on block d, the seminorm^2 of direction m is
    sum_b G[b, (b - m) mod n]: one weight pass per level, shared by the
    bases, in place of n per base.  W0 is read in the frame of the real
    axis and overwrites the frame's x, so it holds 16 bytes per node.  This
    drifts from the per-point loop by rounding only (about 3e-14 relative);
    a = 0 and every other level take that loop, bit for bit, with one ray
    frame per point.
    """
    rings = disc.ring_sizes()
    order = disc.RADIAL_ORDER
    assert order * sum(rings) == z.size, "uniform disc grid expected"
    blocks = []
    for level, group in itertools.groupby(pts, key=lambda pt: pt[0]):
        orbit = [a for _, a in group]
        n = len(orbit)
        if level == 0 or any(size % n for size in rings):
            blocks.append(_point_rows(bases, z, p, orbit))
            continue
        rho = abs(orbit[0])
        w0, y2 = np.empty(z.shape), np.empty(z.shape)
        _ray_frame(complex(orbit[0]) / rho, z, w0, y2)
        _mobius_weight(rho, w0, y2, p, w0)  # the weight overwrites the frame's x
        del y2
        m = np.arange(n)
        sem2 = []
        for b in bases:
            gram = np.zeros((n, n))
            start = 0
            for size in rings:
                stop = start + order * size
                bb = b[start:stop].reshape(order, n, size // n)
                v = w0[start:stop].reshape(order, n, size // n)
                gram += np.matmul(bb, v.transpose(0, 2, 1)).sum(axis=0)
                start = stop
            sem2.append(gram[m[None, :], (m[None, :] - m[:, None]) % n].sum(axis=1))
        blocks.append(np.sqrt(np.maximum(sem2, 0.0)))
    return np.concatenate(blocks, axis=1)


def dm_norms_translate(
    fs: Sequence[AnalyticFunction],
    params: SpaceParams,
    grid: Optional[ParamGrid] = None,
) -> list:
    """The translate norm of each function of fs, from one translate scan:
    functions that need the same disc grid share its construction."""
    s = params.translate_exponent
    weight = lambda r: (1.0 - r * r) ** s
    return _translate_scan(fs, params.p, weight, grid or ParamGrid(), {"scan": "dm-translate"})


def dm_norm_translate(
    f: AnalyticFunction,
    params: SpaceParams,
    grid: Optional[ParamGrid] = None,
) -> NormReport:
    """|f(0)| + sup over the a-grid of (1-|a|^2)^(p(1-lam)/2) ||f o phi_a - f(a)||_Dp."""
    return dm_norms_translate([f], params, grid)[0]


def general_morrey_norm(
    f: AnalyticFunction,
    p: float,
    s: float,
    grid: Optional[ParamGrid] = None,
) -> NormReport:
    """|f(0)| + sup over the a-grid of (1-|a|)^s ||f o phi_a - f(a)||_Dp.

    The power weight here uses (1-|a|); it differs from the (1-|a|^2)
    convention of the translate norm by a factor bounded in [1, 2^s].
    s = 0 gives the Mobius-invariant scan.  A p outside (-1, inf) or an s
    outside [0, inf) raises ValueError naming it.
    """
    _require_weight_exponent("p", p)
    if not (math.isfinite(s) and s >= 0):
        raise ValueError(f"s must be a finite power-weight exponent >= 0, got {s!r}")
    weight = lambda r: (1.0 - r) ** s
    return _translate_scan([f], p, weight, grid or ParamGrid(), {"scan": "morrey", "s": s})[0]


# ---------------------------------------------------------------------------
# Box-type quantities
# ---------------------------------------------------------------------------

TRACE_LEVEL_CAP = 24
# Fitted box grids: BOX_REL_DEPTH dyadic radial panels below each box's top,
# and angular Gauss panels of order BOX_PANEL_ORDER over at most
# BOX_BASE_PANELS background cells.
BOX_REL_DEPTH = 16
BOX_PANEL_ORDER = 6
BOX_BASE_PANELS = 6


def _box_level_sums(f: AnalyticFunction, p_list: Sequence[float], grid: ParamGrid,
                    radial_order: int):
    """Per-arc, per-exponent dyadic-level sums of |f'|^2 (1-|z|^2)^p over S(I),
    with Gauss rules of ``radial_order`` nodes on the radial panels.

    Returns a list of (level_j, Arc, sums), one per arc in ``grid.arcs()``
    order, with sums shaped (len(p_list), TRACE_LEVEL_CAP+2); the final slot
    collects contributions deeper than the trace cap so that the full-depth
    value is the row sum.  All exponents share the same nodes, which makes
    nodewise-dominated integrand inequalities carry over to the computed
    values exactly.

    Each box is integrated on its own window about the arc's centre, graded
    toward the offsets of the foci within 2.5 half-widths of it and their
    periodic images; arcs of one level with equal offsets form one batch.
    The radial plan (:func:`_box_radial_plan`) is made once per level and
    shared by all its batches.
    """
    max_level = None
    if f.r_max < 1.0:
        max_level = effective_depth(f, 10 ** 6)
    exponents = tuple(map(float, p_list))
    arcs = grid.arcs()
    batches: dict = {}
    for i, (j, arc) in enumerate(arcs):
        half = math.pi * arc.length
        offs = tuple(
            (ph - arc.center + math.pi) % TWO_PI - math.pi
            for ph in f.singular_angles
            if min((ph - arc.center) % TWO_PI, (arc.center - ph) % TWO_PI) < 2.5 * half
        )
        batches.setdefault((j, offs), []).append(i)
    lengths = {j: arc.length for j, arc in arcs}
    plans = {j: _box_radial_plan(length, exponents, radial_order, max_level)
             for j, length in lengths.items()}
    out = [None] * len(arcs)
    for (j, offs), members in batches.items():
        batch = _box_sums(f, [arcs[i][1] for i in members], offs, plans[j])
        for i, sums in zip(members, batch):
            out[i] = (*arcs[i], sums)
    return out


class _BoxRadialPlan(NamedTuple):
    """The radial side of every box of one length (:func:`_box_radial_plan`)."""

    n_exponents: int
    deltas: tuple  # each panel's outer distance 1 - r_hi to the circle
    panels: tuple  # (rr, rw rr / pi, (1 - rr^2)^p rows, level slot) per panel


# A round of the box benchmark asks for 43 distinct plans in 223 calls; one
# dm_seminorm_box scan at the default ParamGrid() asks for 13.
@functools.lru_cache(maxsize=128)
def _box_radial_plan(length, exponents, radial_order, max_level) -> _BoxRadialPlan:
    """The radial panels below a box of ``length`` (``BOX_REL_DEPTH`` of them,
    cut at ``max_level``): per panel its nodes rr, their dm-weights
    rw rr / pi, each node's row (1 - r^2)^p over the tuple ``exponents``
    and the slot of its level in the sums.

    Plans are memoized on their arguments, since every scan of a box length
    asks for the same plan again; their arrays are read-only, since one plan
    is shared by every caller and thread that asks for it."""
    p_arr = np.array(exponents, dtype=float)
    deltas, panels = [], []
    for rr, rw, delta, j_abs in radial_panels(length, BOX_REL_DEPTH, radial_order, max_level):
        # each node's weights on a scalar base: an array base takes other
        # numpy power loops (a square-root fast path at p = 0.5, a SIMD
        # loop), whose last bits differ
        oms = np.array([(1.0 - r ** 2) ** p_arr for r in rr])
        wr = rw * rr / math.pi
        for a in (rr, wr, oms):
            a.flags.writeable = False
        deltas.append(delta)
        panels.append((rr, wr, oms, min(j_abs, TRACE_LEVEL_CAP + 1)))
    return _BoxRadialPlan(len(p_arr), tuple(deltas), tuple(panels))


def _box_sums(f, arcs, offs, plan: _BoxRadialPlan):
    """Level sums, shaped (len(arcs), plan.n_exponents, TRACE_LEVEL_CAP + 2),
    of the boxes of ``arcs``, all of the plan's length.

    Every radial panel carries one angular window (-half, half) about each
    arc's centre, graded toward the focus offsets ``offs``; the windows of
    all panels come from one :func:`quadrature.window_nodes` pass, and their
    angles e^{i(centre + th)} from one exponential.  Per panel there is one
    |f'|^2 evaluation on the (radial node, arc, angle) block and one stacked
    product with the nodes' weight rows; the panel's nodes then enter their
    level's sums in node order, through one accumulation along the nodes
    with the running sums stacked in front."""
    half = math.pi * arcs[0].length
    centers = np.array([a.center for a in arcs])
    nb = fitted_panels(-half, half, BOX_BASE_PANELS)
    th, tw, bounds = window_nodes([(-half, half, d, offs, nb) for d in plan.deltas], BOX_PANEL_ORDER)
    e = np.exp(1j * (centers[:, None] + th[None, :]))
    sums = np.zeros((len(arcs), plan.n_exponents, TRACE_LEVEL_CAP + 2))
    for (rr, wr, oms, slot), lo, hi in zip(plan.panels, bounds[:-1], bounds[1:]):
        d2 = f.deriv_abs2(rr[:, None, None] * e[:, lo:hi])
        wrows = wr[:, None] * tw[lo:hi]
        # per-node, per-arc sums of |f'|^2 * angular weights; each node's
        # slice takes the kernel d2[i] @ wrows[i] takes (matrix-vector, or
        # a dot product for one arc)
        rows = np.matmul(d2, wrows[:, :, None])[..., 0]
        stack = np.concatenate([sums[None, :, :, slot], rows[:, :, None] * oms[:, None, :]])
        # an accumulation adds row after row whatever the shape; a reduction
        # of a (n, 1, 1) stack would sum its nodes pairwise first
        sums[:, :, slot] = np.add.accumulate(stack, axis=0)[-1]
    return sums


def _box_scan_report(name, weighted, grid, extra_desc=None) -> NormReport:
    """Assemble a box-type report from per-arc (arc, weight, level sums) data.

    ``weighted``: list of (level_j, arc, weight, sums_row) with sums_row the
    dyadic-level contributions of the measure over S(arc).  The scan trace
    runs over the radial depth truncation; the report keeps ``weighted`` as
    its entries, and its ``upto`` cuts them by arc level.
    """
    wgt = np.array([w for _, _, w, _ in weighted])
    rows = np.array([row for _, _, _, row in weighted])
    # an axis-1 sum rounds each row as a 1-D np.sum of it does (pairwise);
    # np.cumsum would not
    totals = wgt * np.sum(rows, axis=1)
    i = int(np.argmax(totals))  # first maximum wins
    best_val, best_arc = (float(totals[i]), weighted[i][1]) if totals[i] > 0.0 else (0.0, None)
    trace = [
        (L, float(np.max(wgt * np.sum(rows[:, : L + 1], axis=1), initial=0.0)))
        for L in range(TRACE_LEVEL_CAP + 1)
    ]
    trace.append((TRACE_LEVEL_CAP + 1, best_val))
    # drop leading empty levels
    trace = [(l, v) for l, v in trace if v > 0.0] or [(0, 0.0)]
    desc = {"scan": name, "k_arc": grid.k_arc, "n_centers": grid.n_centers, **(extra_desc or {})}

    def cut(kept, level):
        cut_grid = replace(grid, k_arc=min(level, grid.k_arc))
        return _box_scan_report(name, kept, cut_grid, extra_desc)

    return _trace_report(name, best_val, best_arc, desc, trace, weighted, cut)


def dm_seminorm_box(
    f: AnalyticFunction,
    params: SpaceParams,
    grid: Optional[ParamGrid] = None,
    *,
    radial_order: int = 6,
) -> NormReport:
    """sup over arcs of |I|^(-p lam) integral over S(I) of |f'|^2 (1-|z|^2)^p dm.

    Reported unsquare-rooted; lam = 1 gives the Mobius-invariant box scan.
    The levels trace shows the quantity under radial depth truncation.
    """
    grid = grid or ParamGrid()
    sums = _box_level_sums(f, [params.p], grid, radial_order)
    weighted = [
        (j, arc, arc.length ** -params.box_exponent, row[0]) for j, arc, row in sums
    ]
    return _box_scan_report("dm-box", weighted, grid,
                            {"radial_order": radial_order, "p": params.p, "lam": params.lam})


def qp_quantity(f: AnalyticFunction, q: float, grid: Optional[ParamGrid] = None, *,
                radial_order: int = 6) -> NormReport:
    """The lam = 1 box scan: sup |I|^-q integral over S(I) of |f'|^2 (1-|z|^2)^q dm."""
    return dm_seminorm_box(f, SpaceParams(q, 1.0), grid, radial_order=radial_order)


def qp_log_quantity(
    g: AnalyticFunction,
    p: float,
    grid: Optional[ParamGrid] = None,
    *,
    radial_order: int = 6,
) -> NormReport:
    """sup over arcs of (log(1/|I|))^2 |I|^-p integral over S(I) of the
    derivative measure; the full circle contributes with log factor 0."""
    if not (0.0 < p < 1.0):
        raise ValueError("the logarithmic box scan needs p in (0, 1)")
    grid = grid or ParamGrid()
    sums = _box_level_sums(g, [p], grid, radial_order)
    weighted = []
    for j, arc, row in sums:
        logf = 0.0 if arc.length >= 1.0 else math.log(1.0 / arc.length) ** 2
        weighted.append((j, arc, logf * arc.length ** -p, row[0]))
    return _box_scan_report("qp-log", weighted, grid, {"radial_order": radial_order, "p": p})


def box_quantity_pair(
    f: AnalyticFunction,
    p1: float,
    p2: float,
    grid: Optional[ParamGrid] = None,
    *,
    radial_order: int = 6,
):
    """Box integrals of the derivative measure at two weight exponents on the
    same nodes: list of (arc, value_p1, value_p2), one per arc in
    ``grid.arcs()`` order.  Sharing nodes preserves nodewise integrand
    domination in the computed values.  An exponent that is not finite or
    not above -1 raises ValueError."""
    _require_weight_exponent("p1", p1)
    _require_weight_exponent("p2", p2)
    grid = grid or ParamGrid()
    sums = _box_level_sums(f, [p1, p2], grid, radial_order)
    return [
        (arc, float(np.sum(row[0])), float(np.sum(row[1]))) for _, arc, row in sums
    ]


# ---------------------------------------------------------------------------
# Boundary double-integral seminorm
# ---------------------------------------------------------------------------


def boundary_double_seminorm(
    f: AnalyticFunction,
    params: SpaceParams,
    grid: Optional[ParamGrid] = None,
    *,
    t_depth: int = 36,
) -> NormReport:
    """sup over arcs of |I|^(-p lam) double integral over I x I of
    |f(u)-f(v)|^2 / |u-v|^(2-p) with raw arc-length measure.

    Needs a boundary trace; the arc-length power uses normalized |I| while
    |du||dv| stays in radians, so values differ from the box quantity by a
    fixed dimensional constant, which ratio-stability checks absorb.
    """
    if not f.has_boundary_values:
        raise UnsupportedFunctionError(
            f"{f.label}: boundary double integral needs a boundary trace"
        )
    grid = grid or ParamGrid(k_arc=10, n_centers=16)
    p = params.p

    def F(u, v):
        return np.abs(f.boundary(u) - f.boundary(v)) ** 2 / chord_gap(u, v) ** (2.0 - p)

    entries = []
    for j, arc in grid.arcs():
        res = arc_double_integral(
            F, arc, beta=1.0 - p,
            t_depth=t_depth, v_foci=f.singular_angles, focus_width=f.singular_width,
        )
        entries.append((j, arc, res.value * arc.length ** -params.box_exponent, res.error))
    desc = {"scan": "boundary-double", "k_arc": grid.k_arc, "n_centers": grid.n_centers,
            "t_depth": t_depth}
    return _scan_report("boundary-double", entries, desc, "k_arc")


# ---------------------------------------------------------------------------
# Growth envelope and sup-norm scans
# ---------------------------------------------------------------------------

# Equispaced ray directions of the growth envelope, and the cap on the
# angle count per radius of the sup-norm scan.
GROWTH_DIRECTIONS = 16
HINF_MAX_ANGLES = 8192


def _ray_scan(quantity, f, k_max, angles_at, weight_at, grid) -> NormReport:
    """max of weight_at(r) |f(z)| over radii r = 1 - 2^-k (k = 0..k_max) and
    the angles ``angles_at(k)``; k = 0 is the single point z = 0.

    The levels trace is the running maximum over k, and the maximizer is
    the first node attaining the maximum (``None`` when every value is 0).
    A negative k_max comes only from a negative ``k_levels``."""
    if k_max < 0:
        raise ValueError(f"k_levels must be at least 0, got {k_max}")
    entries = []
    for k in range(k_max + 1):
        r = 1.0 - 2.0 ** -k
        z = r * np.exp(1j * angles_at(k)) if r > 0 else np.array([0.0 + 0.0j])
        vals = np.abs(f(z)) * weight_at(r)
        i = int(np.argmax(vals))
        entries.append((k, complex(z[i]), float(vals[i])))
    return _scan_report(quantity, entries, grid, "k_levels")


def growth_envelope(
    f: AnalyticFunction,
    params: SpaceParams,
    *,
    k_levels: int = 12,
) -> NormReport:
    """max over sampled rays of |f(z)| (1-|z|)^(p(1-lam)/2).

    Radii 1 - 2^-k for k = 0..k_levels along GROWTH_DIRECTIONS equispaced
    directions plus the function's own singular directions (clipped to its
    certified radius).  The levels trace is the running maximum over k."""
    s = params.translate_exponent
    n = GROWTH_DIRECTIONS
    dirs = np.array(sorted(set(f.singular_angles) | {TWO_PI * m / n for m in range(n)}))
    k_max = min(k_levels, effective_depth(f, k_levels))
    grid = {"scan": "growth", "k_levels": k_max, "n_directions": n}
    return _ray_scan("growth", f, k_max, lambda k: dirs, lambda r: (1.0 - r) ** s, grid)


def hinf_sup(g: AnalyticFunction, *, k_levels: int = 10) -> NormReport:
    """max of |g| over radii 1 - 2^-k and min(max(64, 8 2^k), HINF_MAX_ANGLES)
    equispaced angles.

    The levels trace is the running maximum over k; an unbounded-trend flag
    means the boundary sup keeps growing as the circle is approached."""
    k_max = min(k_levels, effective_depth(g, k_levels))

    def angles_at(k):
        n = min(max(64, 8 * 2 ** k), HINF_MAX_ANGLES)
        return TWO_PI * np.arange(n) / n

    grid = {"scan": "hinf", "k_levels": k_max, "n_max": HINF_MAX_ANGLES}
    return _ray_scan("hinf", g, k_max, angles_at, lambda r: 1.0, grid)


# ---------------------------------------------------------------------------
# Measure self-interaction scan
# ---------------------------------------------------------------------------

# Dyadic depth of the box-mass table, and the fitted quadrature of each S(w):
# GPCM_REL_DEPTH dyadic radial panels of GPCM_RADIAL_ORDER nodes below the
# box's top, and angular Gauss panels of order GPCM_PANEL_ORDER over
# GPCM_BASE_PANELS background cells.
GPCM_TABLE_DEPTH = 12
GPCM_REL_DEPTH = 8
GPCM_RADIAL_ORDER = 4
GPCM_BASE_PANELS = 4
GPCM_PANEL_ORDER = 4


def _gpcm_nodes(w: complex, singular_angles, table_depth: int):
    """Nodes of S(w) on its window (-h, h) about c = arg w, h = pi (1 - |w|),
    and the box S(z) cap S(w) of each node z = r e^{i (c + th)}.

    Returns (r, th, weight, lo, hi): each node's radius, window angle and
    dm-weight, and S(z) cap S(w) as the one angular interval (lo, hi) in
    absolute angle.  The window is graded toward the offsets of the singular
    angles and, for w != 0, toward its centre; the radial panels stop at
    1 - 2^-table_depth, where the mass table ends.  S(z) has half-width
    pi (1 - r) <= h about th, so the interval (th -+ pi (1 - r)) clipped to
    (-h, h) is the whole intersection when 3 h <= 2 pi, which holds on the
    w-grid (|w| >= 1/2); at w = 0, S(w) is the disc and nothing is clipped.
    """
    c = math.atan2(w.imag, w.real)
    h = math.pi * (1.0 - abs(w))
    offs = {(ph - c + math.pi) % TWO_PI - math.pi for ph in singular_angles}
    if w != 0:
        offs.add(0.0)
    offs = tuple(sorted(offs))
    panels = list(radial_panels(1.0 - abs(w), GPCM_REL_DEPTH, GPCM_RADIAL_ORDER, table_depth))
    nb = fitted_panels(-h, h, GPCM_BASE_PANELS)
    th_all, tw_all, bounds = window_nodes([(-h, h, delta, offs, nb) for _, _, delta, _ in panels],
                                          GPCM_PANEL_ORDER)
    rs, ths, wts = [], [], []
    for (rr, rw, _, _), lo, hi in zip(panels, bounds[:-1], bounds[1:]):
        th, tw = th_all[lo:hi], tw_all[lo:hi]
        rs.append(np.repeat(rr, th.size))
        ths.append(np.tile(th, rr.size))
        wts.append(((rw * rr)[:, None] * tw[None, :] / math.pi).ravel())
    r, th, weight = (np.concatenate(a) for a in (rs, ths, wts))
    lo, hi = th - math.pi * (1.0 - r), th + math.pi * (1.0 - r)
    if w != 0:
        lo, hi = np.maximum(lo, -h), np.minimum(hi, h)
    return r, th, weight, lo + c, hi + c


def gpcm_quantity(
    g: AnalyticFunction,
    p: float,
    *,
    k_w: int = 6,
    w_angle_cap: int = 16,
) -> NormReport:
    """sup over the w-grid of
    mu(S(w))^-1 integral over S(w) of mu(S(z) cap S(w))^2 (1-|z|^2)^(-2-p) dm(z)
    for the derivative measure mu of g.

    Box masses of mu come from a cumulative table over a fixed grid (built
    once per symbol): every mu(S(w)) in one batched query, then one query per
    w for the boxes S(z) cap S(w) at all nodes z of S(w).  Each S(w) is
    integrated on its own window about arg w (:func:`_gpcm_nodes`), so a box
    across angle 0 is laid out as its rotations are, and each S(z) cap S(w)
    is one angular interval read off the node's window coordinates.  Points
    with vanishing mu(S(w)) are skipped and recorded: these include every w
    with no radial panel above the table's depth.  A scan with no positive
    value reports 0 with a "degenerate" flag.  An exponent p that is not
    finite or not above -1 raises ValueError, and so do a ``k_w`` below 0
    and a ``w_angle_cap`` below 1."""
    _require_weight_exponent("p", p)
    for name, value, least in (("k_w", k_w, 0), ("w_angle_cap", w_angle_cap, 1)):
        if value < least:
            raise ValueError(f"{name} must be at least {least}, got {value}")
    table_depth = min(GPCM_TABLE_DEPTH, effective_depth(g, GPCM_TABLE_DEPTH))
    table = BoxMassTable(derivative_density(g, p), depth=table_depth)
    total = table.total_mass()
    pts = ParamGrid(k_a=k_w, a_angle_cap=w_angle_cap).a_points()

    ws = np.array([wpt for _, wpt in pts], dtype=complex)
    c = np.arctan2(ws.imag, ws.real)
    h = math.pi * (1.0 - np.abs(ws))
    mu_boxes = table.box_masses(np.abs(ws), c - h, c + h).tolist()

    entries = []
    skipped = 0
    for (k, wpt), mu_sw in zip(pts, mu_boxes):
        if not (mu_sw > 1e-14 * max(total, 1e-300)):
            skipped += 1
            continue
        r0, _, w, lo, hi = _gpcm_nodes(complex(wpt), g.singular_angles, table_depth)
        masses = table.box_masses(r0, lo, hi)
        integrand = masses ** 2 / (1.0 - r0 ** 2) ** (2.0 + p)
        entries.append((k, complex(wpt), float(np.sum(integrand * w)) / mu_sw))
    grid = {"scan": "gpcm", "k_w": k_w, "w_angle_cap": w_angle_cap,
            "table_depth": table_depth, "skipped": skipped}
    degenerate = not any(v > 0.0 for *_, v in entries)
    return _scan_report("gpcm", entries, grid, "k_w", flags=("degenerate",) if degenerate else ())
