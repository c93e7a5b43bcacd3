"""Quadrature oracles: beta-integral exactness, closed-form box and lune
areas, additivity, refinement convergence, diagonal-avoiding double
integrals."""

import math
import re

import numpy as np
import pytest

from dirimor.analytic import SpaceParams, make_power_kernel, make_taylor
from dirimor.norms import (
    BOX_REL_DEPTH,
    GPCM_BASE_PANELS,
    GPCM_PANEL_ORDER,
    GPCM_RADIAL_ORDER,
    GPCM_REL_DEPTH,
    GPCM_TABLE_DEPTH,
    ParamGrid,
    _box_radial_plan,
    _box_sums,
    _gpcm_nodes,
    box_quantity_pair,
    derivative_density,
)
from dirimor import quadrature
from dirimor.quadrature import (
    ARC_BLOCK,
    ARC_T_ORDER,
    Arc,
    BoxMassTable,
    LUNE_BASE_PANELS,
    QuadratureError,
    RadialAnnuliGrid,
    _gauss,
    _gauss_on,
    _s_layout,
    _t_panels,
    _tail_estimate,
    arc_double_integral,
    chord_gap,
    fitted_panels,
    graded_breakpoints,
    integrate_disc,
    integrate_lune,
    radial_panels,
    region_node_arrays,
    window_nodes,
)
from dirimor.verify import parse_function_spec

TWO_PI = 2 * math.pi


def beta_moment(n, p):
    """integral over D of |z|^(2(n-1)) (1-|z|^2)^p dm = Gamma(n)Gamma(p+1)/Gamma(n+p+1)."""
    return math.exp(math.lgamma(n) + math.lgamma(p + 1) - math.lgamma(n + p + 1))


# -- disc grid ----------------------------------------------------------------


def test_weights_positive_and_cover_disc():
    g = RadialAnnuliGrid(depth=20)
    z, w, lv = g.nodes()
    assert np.all(w > 0)
    covered = (1 - 2.0 ** -20) ** 2
    assert abs(np.sum(w) - covered) / covered < 1e-12


def test_constant_field_is_one():
    g = RadialAnnuliGrid(depth=40)
    res = integrate_disc(lambda z: np.ones(z.shape), g)
    assert res.value == pytest.approx(1.0, abs=5e-12)


def test_radial_closed_forms():
    g = RadialAnnuliGrid(depth=40)
    r1 = integrate_disc(lambda z: 1 - np.abs(z) ** 2, g)
    assert r1.value == pytest.approx(0.5, rel=1e-10)
    r2 = integrate_disc(lambda z: np.abs(z) ** 2, g)
    assert r2.value == pytest.approx(0.5, rel=1e-10)


@pytest.mark.parametrize("p", [0.25, 0.5, 0.75, 1.0])
def test_monomial_beta_oracle(p):
    g = RadialAnnuliGrid(depth=40)
    z, w, lv = g.nodes()
    a2 = np.abs(z) ** 2
    wt = (1 - a2) ** p
    for n in range(1, 21):
        val = float(np.sum(a2 ** (n - 1) * wt * w))
        assert abs(val - beta_moment(n, p)) / beta_moment(n, p) < 1e-6


def test_graded_grid_matches_uniform_on_smooth_field():
    uni = RadialAnnuliGrid(depth=30)
    gra = RadialAnnuliGrid(depth=30, foci=(0.7,), panel_order=8, base_panels=32)
    f = lambda z: (1 - np.abs(z) ** 2) ** 0.5 * np.abs(1 + 0.5 * z) ** 2
    a = integrate_disc(f, uni).value
    b = integrate_disc(f, gra).value
    assert a == pytest.approx(b, rel=1e-8)


def test_singular_field_error_estimate_is_honest():
    # |f'|^2 (1-|z|^2)^p for the boundary kernel with s=0.15, p=0.5:
    # density ~ |1-z|^(-2.3) (1-|z|^2)^0.5 converges slowly (~2^(-0.2 j) per
    # annulus); the geometric tail estimate must account for the depth gap
    p, s = 0.5, 0.15
    f = lambda z: (s ** 2) * np.abs(1 - z) ** (-2 - 2 * s) * (1 - np.abs(z) ** 2) ** p
    r1 = integrate_disc(f, RadialAnnuliGrid(depth=28, foci=(0.0,)))
    r2 = integrate_disc(f, RadialAnnuliGrid(depth=40, foci=(0.0,), base_panels=24, panel_order=8))
    assert abs(r1.value - r2.value) <= 1.5 * (r1.error + r2.error)
    # tail-corrected values agree much more tightly than the raw ones
    assert (r1.value + r1.error) == pytest.approx(r2.value + r2.error, rel=5e-3)


def test_nonfinite_sample_reports_location():
    g = RadialAnnuliGrid(depth=6)

    def bad(z):
        out = np.ones(z.shape)
        out[np.abs(z) > 0.9] = np.nan
        return out

    with pytest.raises(QuadratureError) as exc:
        integrate_disc(bad, g)
    assert exc.value.location is not None
    assert abs(exc.value.location) > 0.9


# -- boxes and lunes ----------------------------------------------------------


def box_closed_form(length, p):
    """integral of (1-|z|^2)^p over S(I), |I| = length, as a box row computes
    it: |I| (1 - (1-|I|)^2)^(p+1) / (p+1), less the same form over the sliver
    within |I| 2^-BOX_REL_DEPTH of the circle, where the box's radial panels
    stop."""
    r_hi = 1.0 - length * 2.0 ** -BOX_REL_DEPTH
    outer = (1.0 - r_hi ** 2) ** (p + 1)
    return length * ((1.0 - (1.0 - length) ** 2) ** (p + 1) - outer) / (p + 1)


def _z_rows(p1, p2, k_arc=3, n_centers=4):
    """box_quantity_pair rows of f(z) = z, where |f'| = 1."""
    return box_quantity_pair(make_taylor([0, 1]), p1, p2, ParamGrid(k_arc=k_arc, n_centers=n_centers))


def test_box_area_closed_form():
    # |I| = 1/2: area = |I| (2|I| - |I|^2) = 0.375 in full
    for arc, q0, _ in _z_rows(0.0, 1.0):
        assert q0 == pytest.approx(box_closed_form(arc.length, 0.0), rel=1e-12), arc
        if arc.length == 0.5:
            assert q0 == pytest.approx(0.375, rel=3e-5)  # the sliver above the panels


def test_box_weighted_closed_form():
    for arc, _, q1 in _z_rows(0.0, 1.0):
        assert q1 == pytest.approx(box_closed_form(arc.length, 1.0), rel=1e-12), arc
        if arc.length == 0.5:
            assert q1 == pytest.approx(0.140625, rel=1e-9)


def lune_area(h):
    """Normalized area of {|1 - z| < h} in the disc: the lens of the unit
    circle and the circle of radius h about 1, over pi."""
    if h >= 2.0:
        return 1.0
    lens = h * h * math.acos(h / 2) + 2 * math.asin(h / 2) - 0.5 * h * math.sqrt(4 - h * h)
    return lens / math.pi


def test_lune_covering_disc():
    for h in (2.0, 3.0):
        res = integrate_lune(lambda z: np.ones(z.shape), 0.0, h)
        assert res.value == pytest.approx(1.0, rel=2e-8)


def test_lune_area_against_chord_geometry():
    # the chord half-angle has a square-root edge at r = 1 - h (and a kink at
    # r = h - 1 when h > 1), which the radial Gauss panels resolve to ~1e-4
    for b in (0.0, 2.5):
        for h in (2.0 ** -6, 0.5, 1.0, 1.5):
            got = integrate_lune(lambda z: np.ones(z.shape), b, h).value
            assert got == pytest.approx(lune_area(h), rel=2e-4), (b, h)


@pytest.mark.parametrize("kw", [{"base_panels": 0}, {"base_panels": -2},
                                {"panel_order": 0}, {"panel_order": -1}])
def test_disc_grid_rejects_rule_sizes_below_one_by_name(kw):
    # base_panels 0 ran on one background cell while describe() reported 0,
    # and panel_order 0 failed in numpy's Gauss rule, naming no argument
    (name, value), = kw.items()
    with pytest.raises(ValueError, match=rf"^{name} must be at least 1, got {value}$"):
        RadialAnnuliGrid(depth=4, foci=(0.0,), **kw)


def test_lune_rejects_panel_order_below_one_by_name():
    with pytest.raises(ValueError, match=r"^panel_order must be at least 1, got 0$"):
        integrate_lune(lambda z: np.ones(z.shape), 0.0, 0.5, panel_order=0)


@pytest.mark.parametrize("kw", [{"rel_depth": 0}, {"rel_depth": -2},
                                {"panel_order": 0}, {"panel_order": -1}])
@pytest.mark.parametrize("lune", [region_node_arrays,
                                  lambda *a, **kw: integrate_lune(np.abs, *a, **kw)])
def test_lune_nodes_reject_rule_sizes_below_one_by_name(lune, kw):
    # rel_depth 0 failed in numpy's concatenate and panel_order 0 in its
    # Gauss rule, naming no argument
    (name, value), = kw.items()
    with pytest.raises(ValueError, match=rf"^{name} must be at least 1, got {value}$"):
        lune(0.0, 0.5, **kw)


def _per_node_lune(b, h, *, rel_depth=28, radial_order=8, foci=(), panel_order=8):
    """A lune's (z, w, abs_level) one radial node at a time, each node's
    window from a window_nodes call of its own: the reference for the one
    layout call of region_node_arrays."""
    offs = tuple((ph - b + math.pi) % TWO_PI - math.pi for ph in foci)
    zs, ws, lv = [], [], []
    for rr, rw, _, _ in radial_panels(min(h, 1.0), rel_depth, radial_order):
        for r, wr in zip(rr.tolist(), rw.tolist()):
            half = math.acos(max((1.0 + r * r - h * h) / (2.0 * r), -1.0))
            window = (-half, half, 1.0 - r, offs, fitted_panels(-half, half, LUNE_BASE_PANELS))
            th, tw, _ = window_nodes([window], panel_order)
            zs.append(r * np.exp(1j * (b + th)))
            ws.append((wr * r / math.pi) * tw)
            lv.append(np.full(th.size, int(-math.log2(max(1.0 - r, 1e-300))), dtype=np.int32))
    return np.concatenate(zs), np.concatenate(ws), np.concatenate(lv)


@pytest.mark.parametrize("b,h", [(0.0, 0.5), (0.0, 2.0 ** -12), (2.5, 0.5), (1.0, 1.5),
                                 (0.0, 3.0)])
@pytest.mark.parametrize("kw", [
    dict(rel_depth=24, radial_order=6, panel_order=6, foci=(0.0,)),  # V3's lunes
    {},
])
def test_lune_nodes_equal_per_node_windows_bitwise(b, h, kw, monkeypatch):
    # every radial node's window comes from one layout call, and each node's
    # nodes, weights and level are those of its own window
    calls = []
    builder = quadrature.window_nodes
    monkeypatch.setattr(quadrature, "window_nodes",
                        lambda *a: calls.append(a) or builder(*a))
    got = region_node_arrays(b, h, **kw)
    assert len(calls) == 1
    monkeypatch.undo()
    for g, want in zip(got, _per_node_lune(b, h, **kw)):
        assert g.dtype == want.dtype and np.array_equal(g, want)


@pytest.mark.parametrize("h", [0.0, -0.5, float("nan")])
def test_lune_rejects_nonpositive_h(h):
    with pytest.raises(ValueError, match="h must be positive"):
        integrate_lune(lambda z: np.ones(z.shape), 0.0, h)


def test_point_box_geometry():
    # the nodes of S(w) lie in [|w|, 1) x (-h, h) about arg w, h = pi (1 - |w|),
    # and their weights sum to the area of S(w) up to the panels' top
    for w in (0.0, 0.9 * np.exp(0.4j), 0.75 * np.exp(-2.0j)):
        r, th, wt, lo, hi = _gpcm_nodes(complex(w), (), GPCM_TABLE_DEPTH)
        h = math.pi * (1 - abs(w))
        assert np.all((r >= abs(w)) & (r < 1)) and np.all(np.abs(th) <= h)
        r_hi = 1 - max((1 - abs(w)) * 2.0 ** -GPCM_REL_DEPTH, 2.0 ** -GPCM_TABLE_DEPTH)
        area = (1 - abs(w)) * (r_hi ** 2 - abs(w) ** 2)
        assert float(np.sum(wt)) == pytest.approx(area, rel=1e-12), w


def _panel_nodes(breaks, order):
    """Gauss nodes and weights on each cell of one sorted breakpoint array."""
    x, w = _gauss(order)
    half = 0.5 * np.diff(breaks)
    return (breaks[:-1, None] + half[:, None] * (x + 1.0)).ravel(), (half[:, None] * w).ravel()


def _one_window(wlo, whi, delta, foci, base_panels, order):
    """A fitted window's nodes straight from its breakpoints, with the
    window's background cells (fitted_panels)."""
    (breaks,) = graded_breakpoints(((wlo, whi, delta, tuple(foci),
                                     fitted_panels(wlo, whi, base_panels)),))
    return _panel_nodes(breaks, order)


def test_fitted_panels_count_the_window_width():
    # one cell per 2 pi / 64 plus 3, between 4 and the base count; a width
    # a hair above a multiple of 2 pi / 64 takes one more
    assert fitted_panels(-1e-3, 1e-3, 6) == 4
    assert fitted_panels(-math.pi / 16, math.pi / 16, 6) == 6
    assert fitted_panels(-math.pi / 16, math.pi / 16, 80) == 7
    assert fitted_panels(-math.pi, math.pi, 80) == 67
    assert fitted_panels(-math.pi, math.pi, 3) == 4
    assert fitted_panels(0.0, 0.09817477042468115, 80) == 5  # 1.000000000000001 cells


@pytest.mark.parametrize("wlo,whi,foci", [
    (-math.pi / 16, math.pi / 16, (-0.1,)),  # graded
    (-math.pi / 16, math.pi / 16, ()),  # uniform
    (-math.pi, math.pi, (0.0, 3.0)),  # the full turn, graded across the seam
    (-math.pi, math.pi, ()),
])
def test_window_builder_equals_per_window_rules_bitwise(wlo, whi, foci):
    deltas = [(whi - wlo) / 2 * 2.0 ** -l for l in range(1, 17)]
    windows = [(wlo, whi, delta, foci, fitted_panels(wlo, whi, 6)) for delta in deltas]
    th, tw, bounds = window_nodes(windows, 6)
    assert len(bounds) == len(deltas) + 1 and bounds[-1] == th.size == tw.size
    for k, delta in enumerate(deltas):
        want_th, want_tw = _one_window(wlo, whi, delta, foci, 6, 6)
        assert np.array_equal(th[bounds[k]:bounds[k + 1]], want_th), k
        assert np.array_equal(tw[bounds[k]:bounds[k + 1]], want_tw), k
    one_th, one_tw, _ = window_nodes(windows[3:4], 6)
    assert np.array_equal(one_th, th[bounds[3]:bounds[4]])
    assert np.array_equal(one_tw, tw[bounds[3]:bounds[4]])
    empty = window_nodes([], 6)
    assert empty[0].size == empty[1].size == 0 and list(empty[2]) == [0]


@pytest.mark.parametrize("wlo,whi", [(0.0, TWO_PI), (0.0, 1.0), (-math.pi / 16, math.pi / 16)])
def test_window_builder_with_per_window_foci_equals_one_call_per_window(wlo, whi):
    # each window graded toward foci of its own (none, one, several, some
    # outside the window, as a boundary arc's t-panels ask) is the window a
    # one-window call builds, bit for bit
    rng = np.random.default_rng(28)
    width = whi - wlo
    deltas = [width * 2.0 ** -rng.uniform(1.0, 30.0) for _ in range(24)]
    foci = [tuple(wlo + width * rng.uniform(-0.5, 1.5, k % 4)) for k in range(24)]
    windows = [(wlo, whi, delta, fk, 8) for delta, fk in zip(deltas, foci)]
    th, tw, bounds = window_nodes(windows, 8)
    assert len(bounds) == len(deltas) + 1 and bounds[-1] == th.size == tw.size
    for k, window in enumerate(windows):
        want_th, want_tw, _ = window_nodes([window], 8)
        assert np.array_equal(th[bounds[k]:bounds[k + 1]], want_th), k
        assert np.array_equal(tw[bounds[k]:bounds[k + 1]], want_tw), k


@pytest.mark.parametrize("base_panels", [1, 3, 16, 80])
@pytest.mark.parametrize("foci", [(0.7,), (0.3, 2.0), (math.pi, 0.0)])
def test_graded_disc_grid_equals_per_annulus_build_bitwise(foci, base_panels):
    # the one-pass grid (every annulus's window in one builder pass, one
    # exponential) against each annulus built on its own breakpoints
    g = RadialAnnuliGrid(depth=14, foci=foci, panel_order=4, base_panels=base_panels)
    zs, ws, lv = [], [], []
    for j, (rr, rw, delta, _) in enumerate(radial_panels(1.0, g.depth, g.RADIAL_ORDER)):
        (breaks,) = graded_breakpoints(((foci[0], foci[0] + TWO_PI, delta, foci, base_panels),))
        th, tw = _panel_nodes(breaks, g.panel_order)
        zs.append((rr[:, None] * np.exp(1j * th[None, :])).ravel())
        ws.append(((rw * rr)[:, None] * tw[None, :] / math.pi).ravel())
        lv.append(np.full(zs[-1].size, j, dtype=np.int32))
    for got, want in zip(g.nodes(), (zs, ws, lv)):
        assert np.array_equal(got, np.concatenate(want))


@pytest.mark.parametrize("w", [0.0, 0.5 * np.exp(0.3j), 0.9 * np.exp(-2.0j), 0.995])
def test_gpcm_nodes_equal_per_panel_windows_bitwise(w):
    # the windows of all radial panels of S(w) come from one builder pass;
    # each panel's nodes are those of its own window
    w = complex(w)
    foci = (0.0, 2.5)
    c, h = math.atan2(w.imag, w.real), math.pi * (1 - abs(w))
    offs = {(ph - c + math.pi) % TWO_PI - math.pi for ph in foci} | ({0.0} if w != 0 else set())
    rs, ths, wts = [], [], []
    for rr, rw, delta, _ in radial_panels(1 - abs(w), GPCM_REL_DEPTH, GPCM_RADIAL_ORDER,
                                          GPCM_TABLE_DEPTH):
        th, tw = _one_window(-h, h, delta, tuple(sorted(offs)), GPCM_BASE_PANELS,
                             GPCM_PANEL_ORDER)
        for r, wr in zip(rr, rw):
            rs.append(np.full(th.size, r))
            ths.append(th)
            wts.append(wr * r * tw / math.pi)
    r, th, wt, _, _ = _gpcm_nodes(w, foci, GPCM_TABLE_DEPTH)
    assert np.array_equal(r, np.concatenate(rs))
    assert np.array_equal(th, np.concatenate(ths))
    assert np.array_equal(wt, np.concatenate(wts))


def _window_integral(field, centre, wlo, whi, r_lo, foci=()):
    """integral of a field over [r_lo, 1) x (centre + wlo, centre + whi) on
    the window rule of the box scans."""
    total = 0.0
    for rr, rw, delta, _ in radial_panels(1.0 - r_lo, 28, 8):
        th, tw = _one_window(wlo, whi, delta, foci, 8, 8)
        z = rr[:, None] * np.exp(1j * (centre + th[None, :]))
        total += float(np.sum(field(z) * ((rw * rr)[:, None] * tw[None, :]))) / math.pi
    return total


def test_additivity_two_way_split():
    field = lambda z: 1 + 0.5 * np.real(z) + np.abs(z) ** 2
    arc = Arc(1.0, 0.25)
    half = math.pi * arc.length
    r_lo = 1 - arc.length
    v = _window_integral(field, arc.center, -half, half, r_lo, (0.3,))
    v2 = (_window_integral(field, arc.center, -half, 0.0, r_lo, (0.3,))
          + _window_integral(field, arc.center, 0.0, half, r_lo, (0.3,)))
    assert v == pytest.approx(v2, rel=1e-8)


def test_refinement_convergence_polynomial():
    field = lambda z: np.abs(z) ** 4 * (1 - np.abs(z) ** 2)
    v1 = integrate_lune(field, 0.0, 0.5, rel_depth=28).value
    v2 = integrate_lune(field, 0.0, 0.5, rel_depth=56).value
    assert v1 == pytest.approx(v2, rel=1e-8)


def test_box_monotonicity():
    # nested boxes about one centre, under |f'|^2 (1-|z|^2)^(1/2) > 0
    f = make_taylor([0, 1, 0.5])
    vals = [float(np.sum(_box_sums(f, [Arc(0.2, ln)], (), _box_radial_plan(ln, (0.5,), 6, None))))
            for ln in [1 / 16, 1 / 8, 1 / 4, 1 / 2, 1.0]]
    assert all(vals[i] <= vals[i + 1] * (1 + 1e-9) for i in range(len(vals) - 1))


def test_depth_cap_truncates():
    # max_level=L keeps radii below 1-2^-L, i.e. dyadic levels 0..L-1, and the
    # panels cover [0, 1-2^-L] exactly
    panels = list(radial_panels(1.0, 28, 8, max_level=6))
    assert max(j for *_, j in panels) == 5
    area = sum(float(np.sum(2 * rr * rw)) for rr, rw, _, _ in panels)
    assert area == pytest.approx((1 - 2.0 ** -6) ** 2, rel=1e-12)
    full = list(radial_panels(1.0, 28, 8))
    assert [j for *_, j in full[:6]] == [j for *_, j in panels]


# -- boundary double integrals -------------------------------------------------


def test_double_integral_constant():
    res = arc_double_integral(lambda u, v: np.ones(np.shape(u)), Arc(0.7, 0.25))
    assert res.value == pytest.approx((math.pi / 2) ** 2, rel=1e-8)


def test_double_integral_full_circle_moment():
    # integral of |u-v|^2 = 2 - 2cos(theta-phi) over the torus = 2 (2 pi)^2
    F = lambda u, v: chord_gap(u, v) ** 2
    res = arc_double_integral(F, Arc(0.0, 1.0))
    assert res.value == pytest.approx(2 * (2 * math.pi) ** 2, rel=1e-8)


def test_double_integral_fractional_kernel_vs_1d_reduction():
    # F = |u-v|^(1/2) over the full torus reduces to 2 pi * integral of
    # (2 sin(t/2))^(1/2) dt; midpoint rule on the reduction is the oracle
    F = lambda u, v: chord_gap(u, v) ** 0.5
    res = arc_double_integral(F, Arc(0.0, 1.0), beta=-0.5)
    n = 2 ** 20
    t = (np.arange(n) + 0.5) * (TWO_PI / n)
    oracle = TWO_PI * float(np.sum((2 * np.abs(np.sin(t / 2))) ** 0.5) * (TWO_PI / n))
    assert res.value == pytest.approx(oracle, rel=1e-6)


def test_double_integral_singular_kernel():
    # beta = 0.5 singularity: F = |u-v|^(-1/2) on an arc; compare against a
    # brute staggered midpoint rule at two resolutions
    F = lambda u, v: chord_gap(u, v) ** -0.5
    arc = Arc(0.0, 0.125)
    res = arc_double_integral(F, arc, beta=0.5)

    def brute(n):
        L = arc.radian_length
        u = arc.center - L / 2 + (np.arange(n) + 0.5) * (L / n)
        v = arc.center - L / 2 + (np.arange(n + 1) + 0.5) * (L / (n + 1))
        uu, vv = np.meshgrid(u, v, indexing="ij")
        return float(np.sum(F(uu, vv)) * (L / n) * (L / (n + 1)))

    b1, b2 = brute(1500), brute(3000)
    assert abs(b1 - b2) / b2 < 2e-3
    assert res.value == pytest.approx(b2, rel=5e-3)


def test_double_integral_never_touches_diagonal():
    seen = []

    def F(u, v):
        gap = chord_gap(u, v)
        seen.append(np.min(gap))
        return np.ones(np.shape(u))

    arc_double_integral(F, Arc(0.0, 0.5))
    assert min(seen) > 0.0


@pytest.mark.parametrize("arc", [Arc(0.7, 0.25), Arc(0.7, 1.0)])
def test_double_integral_t_panels_stay_above_the_float_floor(arc):
    # however deep the t-panels are asked to go, every difference angle F
    # sees stays 64 eps 2 pi away from the diagonal, on both of its sides
    t_floor = 64.0 * np.finfo(float).eps * TWO_PI
    seen = []

    def F(u, v):
        t = np.abs(u - v)
        seen.append(float(np.min(np.minimum(t, TWO_PI - t))))
        return np.ones(np.broadcast(u, v).shape)

    arc_double_integral(F, arc, t_depth=60)
    assert min(seen) >= t_floor


def test_double_integral_rotation_invariance():
    F = lambda u, v: chord_gap(u, v) ** 0.5
    a = arc_double_integral(F, Arc(0.0, 1.0)).value
    b = arc_double_integral(F, Arc(2.0, 1.0)).value
    assert a == pytest.approx(b, rel=1e-12)


def _block_sizes(arc, t_depth):
    """(node count of each F call, the integral's nodes_used)."""
    sizes = []

    def F(u, v):
        sizes.append(np.broadcast(u, v).size)
        return chord_gap(u, v) ** 0.5

    return sizes, arc_double_integral(F, arc, t_depth=t_depth).nodes_used


def test_double_integral_calls_F_once_per_block_of_t_panels():
    # F sees whole t-panels stacked up to ARC_BLOCK nodes a call (it saw one
    # call per t-panel), and a proper arc adds one call for its symmetry check
    for arc, panels in ((Arc(0.7, 0.25), 36), (Arc(0.7, 1.0), 72)):
        sizes, nodes = _block_sizes(arc, 36)
        if arc.length < 1.0:
            assert sizes.pop(1) == nodes // (ARC_T_ORDER * panels)  # one row of panel 0
        assert sum(sizes) == nodes
        # greedy stacking: no block passes ARC_BLOCK, and any two neighbours do
        assert max(sizes) <= ARC_BLOCK
        assert all(a + b > ARC_BLOCK for a, b in zip(sizes[:-1], sizes[1:]))
        assert len(sizes) <= 2 * nodes // ARC_BLOCK + 1
        assert len(sizes) <= panels // 7


@pytest.mark.parametrize("kw,message", [
    ({"t_depth": 0}, "t_depth must be at least 1, got 0"),
    ({"t_depth": -3}, "t_depth must be at least 1, got -3"),
    ({"s_order": 0}, "s_order must be at least 1, got 0"),
    ({"s_base": 0}, "s_base must be at least 1, got 0"),
    ({"resolution_check": True}, "resolution_check=True: arc_double_integral runs no"),
])
@pytest.mark.parametrize("arc", [Arc(0.3, 0.25), Arc(0.3, 1.0)])
def test_double_integral_rejects_bad_rule_arguments_by_name(arc, kw, message):
    # t_depth 0 or below read value 0.0 with error 0.0, s_order 0 failed in
    # numpy's Gauss rule, s_base 0 ran on one background cell, and the coarse
    # re-run is gone
    with pytest.raises(ValueError, match=rf"^{re.escape(message)}"):
        arc_double_integral(lambda u, v: np.ones(np.broadcast(u, v).shape), arc, **kw)


def test_double_integral_rejects_asymmetric_integrand():
    F = lambda u, v: 1.0 + 0.5 * np.sin(u - v)
    with pytest.raises(ValueError, match="symmetric"):
        arc_double_integral(F, Arc(0.7, 0.25))


@pytest.mark.parametrize("arc", [Arc(1.0, 0.25), Arc(1.0, 1.0)])
def test_double_integral_nan_near_diagonal_names_node(arc):
    F = lambda u, v: np.where(chord_gap(u, v) < 1e-6, np.nan, 1.0)
    with pytest.raises(QuadratureError) as exc:
        arc_double_integral(F, arc)
    loc = exc.value.location
    assert loc.imag == 0.0
    offset = (loc.real - arc.center + math.pi) % TWO_PI - math.pi
    assert abs(offset) <= 0.5 * arc.radian_length


def _per_panel_arc_integral(F, arc, *, t_depth, v_foci=(), focus_width=0.0):
    """(value, error, level_sums, nodes_used) of a boundary double integral
    built one t-panel at a time: one v-rule and one F call per panel, each
    panel summed one t-node at a time.  The reference for the stacked blocks
    of arc_double_integral."""
    full = arc.length >= 1.0
    L = arc.radian_length
    a0 = arc.center - 0.5 * L
    t_range = math.pi if full else L
    t_floor = 64.0 * np.finfo(float).eps * TWO_PI
    t_depth = min(t_depth, max(8, int(math.log2(t_range / t_floor))))
    total, sums, n_nodes = 0.0, [], 0
    for tlo, thi in _t_panels(t_range, full, t_depth):
        tt, tw = _gauss_on(tlo, thi, ARC_T_ORDER)
        t_mid = 0.5 * (tlo + thi)
        if full:
            foci = tuple(g for phi in v_foci for g in (phi, phi - t_mid))
            gap = max(0.25 * min(t_mid, TWO_PI - t_mid), 0.25 * focus_width, 1e-9)
            v, vw, _ = window_nodes([(0.0, TWO_PI, gap, foci, 8)], 8)
            scale = tw
        else:
            delta_s, foci_s = _s_layout(a0, L, t_mid, v_foci, focus_width)
            s, vw, _ = window_nodes([(0.0, 1.0, delta_s, foci_s, 8)], 8)
            span = L - tt
            v = a0 + s[None, :] * span[:, None]
            scale = 2.0 * tw * span
        vals = np.asarray(F(v + tt[:, None], v), dtype=float)
        panel = 0.0
        for k in range(ARC_T_ORDER):
            panel += scale[k] * float(np.dot(vw, vals[k]))
        n_nodes += vals.size
        total += panel
        sums.append(panel)
    return float(total), float(_tail_estimate(np.array(sums))), tuple(sums), n_nodes


def _boundary_integrand(spec, p=0.5):
    f = parse_function_spec(spec)

    def F(u, v):
        return np.abs(f.boundary(u) - f.boundary(v)) ** 2 / chord_gap(u, v) ** (2.0 - p)
    return f, F


def _as_tuple(res):
    return res.value, res.error, res.level_sums, res.nodes_used


ARC_CASES = [Arc(0.0, 1.0), Arc(2.0, 1.0), Arc(1.3, 0.25), Arc(0.05, 0.125), Arc(4.0, 2.0 ** -5)]


@pytest.mark.parametrize("t_depth", [36, 44])
@pytest.mark.parametrize("spec", ["taylor:0,1,0.5,-0.25", "kernel:c=0.9+0i,s=0.35",
                                  "gap:q=0.5,K=20"])
def test_double_integral_equals_per_panel_reference_bitwise(spec, t_depth):
    # the full circle and proper arcs, one across angle 0 (Arc(0.05, 0.125)),
    # with the kernel's foci and width passed as the boundary scans pass them
    f, F = _boundary_integrand(spec)
    for arc in ARC_CASES:
        got = arc_double_integral(F, arc, beta=0.5, t_depth=t_depth, v_foci=f.singular_angles,
                                  focus_width=f.singular_width)
        want = _per_panel_arc_integral(F, arc, t_depth=t_depth, v_foci=f.singular_angles,
                                       focus_width=f.singular_width)
        assert _as_tuple(got) == want, arc


@pytest.mark.parametrize("spec", ["taylor:0,1,0.5,-0.25", "kernel:c=0.9+0i,s=0.35"])
def test_double_integral_bits_do_not_hang_on_the_block_size(spec, monkeypatch):
    # one t-panel a call and a whole arc in one call give the bits of the
    # default blocks
    f, F = _boundary_integrand(spec)
    kw = {"beta": 0.5, "t_depth": 36, "v_foci": f.singular_angles,
          "focus_width": f.singular_width}
    want = [_as_tuple(arc_double_integral(F, arc, **kw)) for arc in ARC_CASES]
    for block in (1, 10 ** 9):
        monkeypatch.setattr(quadrature, "ARC_BLOCK", block)
        assert [_as_tuple(arc_double_integral(F, arc, **kw)) for arc in ARC_CASES] == want


# -- mass tables ----------------------------------------------------------------


def test_mass_table_against_fitted_quadrature():
    # mu(S(w)) of (1-|z|^2)^(1/2) dm in closed form: (1-|w|) (1-|w|^2)^(3/2) / 1.5
    dens = lambda z: (1 - np.abs(z) ** 2) ** 0.5
    table = BoxMassTable(dens, depth=14)
    assert table.total_mass() == pytest.approx(2 / 3, rel=1e-3)
    for w in [0.0, 0.5, 0.8 * np.exp(1j * 2.0)]:
        r, c = abs(w), float(np.angle(w))
        h = math.pi * (1 - r)
        got = float(table.box_masses(np.array([r]), np.array([c - h]), np.array([c + h]))[0])
        assert got == pytest.approx((1 - r) * (1 - r ** 2) ** 1.5 / 1.5, rel=5e-3), w


def test_disc_refinement_convergence_polynomial():
    field = lambda z: np.abs(z) ** 6 * (1 - np.abs(z) ** 2)
    v1 = integrate_disc(field, RadialAnnuliGrid(depth=30)).value
    v2 = integrate_disc(field, RadialAnnuliGrid(depth=60)).value
    assert abs(v1 - v2) / v2 < 1e-8


def test_arc_validation():
    with pytest.raises(ValueError):
        Arc(0.0, 0.0)
    with pytest.raises(ValueError):
        Arc(0.0, 1.5)
    a = Arc(-1.0, 0.25)
    assert 0 <= a.center < TWO_PI


def test_graded_grid_weights_cover_disc():
    g = RadialAnnuliGrid(depth=18, foci=(0.3, 2.0), panel_order=4, base_panels=12)
    z, w, lv = g.nodes()
    assert np.all(w > 0)
    covered = (1 - 2.0 ** -18) ** 2
    assert abs(np.sum(w) - covered) / covered < 1e-12


def _kernel_table(depth=8):
    f = make_power_kernel(0.9, 0.35)
    return BoxMassTable(lambda z: np.abs(f.derivative(z)) ** 2 * (1 - np.abs(z) ** 2) ** 0.5,
                        depth=depth)


# (r_lo, lo, hi): inside [0, 2 pi], across 0, across 2 pi, inside (-2 pi, 0),
# ending on 0 and on 2 pi, a whole turn below zero, full circles from
# several starts, and a sliver
PERIODIC_BOXES = [
    (0.5, 0.3, 1.9), (0.0, 0.0, TWO_PI), (0.75, -0.4, 0.2), (0.9, -0.05, 0.05),
    (0.3, 6.0, 7.0), (0.6, TWO_PI - 0.1, TWO_PI + 0.3), (0.4, -5.5, -0.5),
    (0.95, -3.0, -2.9), (0.2, -1.0, 0.0), (0.7, 5.0, TWO_PI), (0.85, -11.0, -10.2),
    (0.1, -1.0, TWO_PI - 1.0), (0.5, -math.pi, math.pi), (0.3, 2.5, 2.5 + TWO_PI),
    (0.99, 1.0, 1.0 + 1e-9),
]


def test_box_masses_read_one_interval_periodically():
    # shifting an interval by whole turns reads the same mass, and splitting
    # it at an interior angle reads the sum of its two parts
    table = _kernel_table()
    one = lambda r_lo, lo, hi: float(table.box_masses(np.array([r_lo]), np.array([lo]),
                                                      np.array([hi]))[0])
    for r_lo, lo, hi in PERIODIC_BOXES:
        got = one(r_lo, lo, hi)
        assert got > 0.0
        for k in (-2, 1, 3):
            shifted = one(r_lo, lo + k * TWO_PI, hi + k * TWO_PI)
            assert shifted == pytest.approx(got, rel=1e-12), (r_lo, lo, hi, k)
        for t in (0.25, 0.5, 0.9):
            mid = lo + t * (hi - lo)
            parts = one(r_lo, lo, mid) + one(r_lo, mid, hi)
            assert parts == pytest.approx(got, rel=1e-12), (r_lo, lo, hi, t)
    # an empty interval holds no mass; a full turn holds the table's whole
    # mass wherever it starts
    assert table.box_masses(np.array([0.5]), np.array([2.0]), np.array([2.0]))[0] == 0.0
    assert table.box_masses(np.array([0.0]), np.array([-7.0]), np.array([TWO_PI - 7.0]))[0] \
        == pytest.approx(table.total_mass(), rel=1e-12)


def test_box_masses_of_a_radial_density_hang_on_width_alone():
    # a reference that does not read across angle 0: under a density constant
    # in angle, each interval holds twice the mass of half its width placed
    # at 0.25, inside (0, 2 pi)
    table = BoxMassTable(lambda z: (1 - np.abs(z) ** 2) ** 0.5, depth=8)
    for r_lo, lo, hi in PERIODIC_BOXES:
        if hi - lo < 1e-6:  # a sliver's mass is below the cumulative sums' resolution
            continue
        got, half = table.box_masses(np.array([r_lo, r_lo]), np.array([lo, 0.25]),
                                     np.array([hi, 0.25 + 0.5 * (hi - lo)]))
        assert got == pytest.approx(2.0 * half, rel=1e-12), (r_lo, lo, hi)


# the deepest gpcm node boxes of log1 and of the boundary kernel at
# k_w=3, w_angle_cap=8 that sit in a direction of low density
DEEP_NARROW_BOXES = [
    ("log1", 0.9994778164823228, 3.139302746996302, 3.142583722802222),
    ("kernel:c=1+0i,s=auto", 0.9989556329646455, -2.2551010583862396, -2.2485391067743974),
]


@pytest.mark.parametrize("spec,r_lo,lo,hi", DEEP_NARROW_BOXES, ids=["log1", "kernel:c=1"])
def test_narrow_box_masses_keep_their_digits(spec, r_lo, lo, hi):
    # moving both ends by one ulp moves these masses by about 1.1e-13; read
    # as the difference of two interpolated cumulative sums, they moved by
    # 1.1e-10 (log1) and 7.9e-11 (kernel), digits lost to the row totals
    params = SpaceParams(0.5, 0.4)
    table = BoxMassTable(derivative_density(parse_function_spec(spec, params), params.p),
                         depth=GPCM_TABLE_DEPTH)
    at, moved = table.box_masses(np.full(2, r_lo), np.array([lo, np.nextafter(lo, 9.0)]),
                                 np.array([hi, np.nextafter(hi, 9.0)]))
    assert moved == pytest.approx(at, rel=2e-13)


def test_box_masses_batch_equals_single_queries():
    table = _kernel_table()
    r_lo, lo, hi = (np.array(col) for col in zip(*PERIODIC_BOXES))
    singles = [float(table.box_masses(r_lo[i:i + 1], lo[i:i + 1], hi[i:i + 1])[0])
               for i in range(len(r_lo))]
    assert table.box_masses(r_lo, lo, hi).tolist() == singles
    assert table.box_masses(r_lo[::-1], lo[::-1], hi[::-1]).tolist() == singles[::-1]



def _slab_rows(density, depth):
    """Per annulus (r0, n, slab rows): each slab's (lower edge, upper edge,
    cumulative row), the rows computed one by one as the table lays them."""
    annuli = []
    sizes = RadialAnnuliGrid(depth=depth, n_min=64, growth_cap=10).ring_sizes()
    for j, n in enumerate(sizes):
        r0 = 1.0 - 2.0 ** -j
        h = (2.0 ** -j - 2.0 ** -(j + 1)) / BoxMassTable.SLABS
        e = np.exp(1j * ((np.arange(n) + 0.5) * (TWO_PI / n)))
        rows = []
        for i in range(BoxMassTable.SLABS):
            slo = r0 + i * h
            rc = slo + 0.5 * h
            cell = np.asarray(density(rc * e), dtype=float) * (rc * h * (TWO_PI / n) / math.pi)
            rows.append((slo, slo + h, np.concatenate([[0.0], np.cumsum(cell)])))
        annuli.append((r0, n, rows))
    return annuli


def _read_rows(lo, hi, n):
    """A reader of cumulative rows of n cells over the intervals (lo, hi)."""
    turns_hi, hi = np.divmod(hi, TWO_PI)
    turns_lo, lo = np.divmod(lo, TWO_PI)
    x_lo, x_hi = lo * (n / TWO_PI), hi * (n / TWO_PI)
    i_lo = np.minimum(x_lo.astype(np.intp), n - 1)
    i_hi = np.minimum(x_hi.astype(np.intp), n - 1)

    def read(cum):
        part_hi = (x_hi - i_hi) * (cum[i_hi + 1] - cum[i_hi])
        part_lo = (x_lo - i_lo) * (cum[i_lo + 1] - cum[i_lo])
        seg = (cum[i_hi] - cum[i_lo]) + (part_hi - part_lo)
        return seg + (turns_hi - turns_lo) * cum[-1]
    return read


def _per_row_masses(density, depth, r_lo, lo, hi):
    """(box masses, total mass) of a table kept as one cumulative row per
    slab, each box read on its own: an annulus it reaches whole from the sum
    of the slab rows (added in order), one it starts inside slab row after
    slab row with the slab's overlap fraction.  The reference."""
    out = np.zeros(len(r_lo))
    total = 0.0
    for r0, n, rows in _slab_rows(density, depth):
        read = _read_rows(lo, hi, n)
        whole = np.zeros(n + 1)
        for *_, cum in rows:
            whole += cum
            total += cum[-1]
        at = r_lo <= r0
        out[at] += read(whole)[at]
        for slo, shi, cum in rows:
            frac = np.clip((shi - r_lo) / (shi - slo), 0.0, 1.0)
            at = (r_lo > r0) & (frac > 0.0)
            out[at] += (frac * read(cum))[at]
    return out, total


def _per_slab_masses(density, depth, r_lo, lo, hi):
    """Box masses read slab row after slab row, each with its overlap
    fraction, whole annuli too."""
    out = np.zeros(len(r_lo))
    for r0, n, rows in _slab_rows(density, depth):
        read = _read_rows(lo, hi, n)
        for slo, shi, cum in rows:
            frac = np.clip((shi - r_lo) / (shi - slo), 0.0, 1.0)
            if np.any(frac > 0.0):
                out += frac * read(cum)
    return out


def _kernel_density():
    f = make_power_kernel(0.9, 0.35)
    return lambda z: f.deriv_abs2(z) * (1 - np.abs(z) ** 2) ** 0.5


def test_box_masses_equal_per_row_reference_bitwise():
    # one block per annulus, queries taken in order of r_lo: the bits of
    # the per-box rule, on unsorted queries of every kind
    density = _kernel_density()
    depth = 8
    table = BoxMassTable(density, depth=depth)
    rng = np.random.default_rng(20)
    r_lo = rng.uniform(0.0, 1.0, 400)
    lo = rng.uniform(-9.0, 9.0, 400)
    hi = lo + rng.uniform(0.0, TWO_PI, 400)
    # at 0 and inside a slab, beyond the table's depth, across angle 0 and
    # 2 pi, a full turn and gpcm's w = 0 box
    r_lo[:6] = [0.0, 0.5 + 0.3 * 2.0 ** -4, 1.0 - 2.0 ** -(depth + 1), 0.999, 0.7, 0.0]
    lo[:6] = [-0.3, TWO_PI - 0.2, 0.1, -1.0, 1.0, -math.pi]
    hi[:6] = [0.4, TWO_PI + 0.2, 0.5, 1.0, 1.0 + TWO_PI, math.pi]
    got = table.box_masses(r_lo, lo, hi)
    want, total = _per_row_masses(density, depth, r_lo, lo, hi)
    assert np.array_equal(got, want)
    assert got[2] == got[3] == 0.0
    assert table.total_mass() == total
    assert table.box_masses(np.zeros(0), np.zeros(0), np.zeros(0)).shape == (0,)
    # one float per cell and one leading zero per slab row and per summed row
    sizes = RadialAnnuliGrid(depth=depth, n_min=64, growth_cap=10).ring_sizes()
    assert sum(cum.nbytes for *_, cum in table._blocks) \
        == 8 * (BoxMassTable.SLABS + 1) * sum(n + 1 for n in sizes)


def test_box_masses_equal_slab_by_slab_reference_on_deep_and_wound_boxes():
    # boxes that start inside an annulus at every depth of the table read its
    # slab rows in one gather; intervals of up to three whole turns, from
    # anywhere on the line
    density = _kernel_density()
    depth = 10
    table = BoxMassTable(density, depth=depth)
    rng = np.random.default_rng(28)
    r_lo = 1.0 - 2.0 ** -rng.uniform(0.0, depth + 1, 3000)
    r_lo[:40] = 1.0 - 2.0 ** -np.arange(40) / 4  # slab and annulus edges, and beyond
    lo = rng.uniform(-20.0, 20.0, 3000)
    hi = lo + rng.uniform(0.0, 3.0 * TWO_PI, 3000)
    hi[40:80] = lo[40:80] + TWO_PI * rng.integers(1, 4, 40)  # whole turns
    got = table.box_masses(r_lo, lo, hi)
    want, _ = _per_row_masses(density, depth, r_lo, lo, hi)
    assert np.array_equal(got, want)


def test_box_masses_of_whole_annuli_drift_from_the_slab_rows_at_rounding():
    # reading an annulus a box reaches whole from the summed row, not slab
    # row after slab row, moves these masses of gpcm's table depth by at
    # most 7.6e-13 relative (the wide boxes) and 1.0e-15 of the table's
    # mass (the narrow deep ones, whose few cells cancel digits in both)
    density = _kernel_density()
    depth = 12
    table = BoxMassTable(density, depth=depth)
    rng = np.random.default_rng(20)
    r_lo = rng.uniform(0.0, 1.0, 4000)
    lo = rng.uniform(-9.0, 9.0, 4000)
    hi = lo + rng.uniform(0.0, TWO_PI, 4000)
    got = table.box_masses(r_lo, lo, hi)
    want = _per_slab_masses(density, depth, r_lo, lo, hi)
    assert np.array_equal(got == 0.0, want == 0.0)
    held = want > 0.0
    assert np.max(np.abs(got[held] - want[held]) / want[held]) <= 1e-12
    r_lo = 1.0 - 2.0 ** -rng.uniform(0.0, depth + 1, 4000)
    hi = lo + TWO_PI * 2.0 ** -rng.uniform(0.0, 14.0, 4000)
    got = table.box_masses(r_lo, lo, hi)
    want = _per_slab_masses(density, depth, r_lo, lo, hi)
    assert np.max(np.abs(got - want)) <= 1.5e-15 * table.total_mass()


def test_box_masses_reject_bad_input_by_box_index():
    table = _kernel_table(depth=4)
    ones = np.ones(3)
    # a NaN r_lo read mass 0, and an infinite end failed on an index out of
    # bounds that named no box
    for col, value in ((0, np.nan), (1, -np.inf), (2, np.inf), (2, np.nan)):
        args = [np.full(3, 0.5), np.zeros(3), ones.copy()]
        args[col][1] = value
        with pytest.raises(ValueError, match=r"box 1 needs a finite r_lo, lo and hi"):
            table.box_masses(*args)
    # the first bad box is named, whatever its fault
    with pytest.raises(ValueError, match=r"box 0 needs lo <= hi"):
        table.box_masses(np.array([0.5, np.nan]), np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    # lengths that differ raised a bare IndexError
    with pytest.raises(ValueError, match=r"1-d arrays of one length, got shapes \(2,\), \(1,\)"):
        table.box_masses(np.array([0.5, 0.6]), np.zeros(1), ones[:1])
    with pytest.raises(ValueError, match="1-d arrays"):
        table.box_masses(np.full((2, 2), 0.5), np.zeros((2, 2)), np.ones((2, 2)))


def test_box_masses_reject_reversed_intervals():
    table = _kernel_table(depth=4)
    r_lo = np.full(4, 0.5)
    with pytest.raises(ValueError, match=r"box 2 needs lo <= hi, got \(lo, hi\) = \(1\.0, 0\.5\)"):
        table.box_masses(r_lo, np.array([0.0, 1.0, 1.0, 2.0]), np.array([1.0, 1.0, 0.5, 1.0]))
    with pytest.raises(ValueError, match="box 0"):
        table.box_masses(r_lo[:1], np.array([np.nan]), np.array([1.0]))
    # a width of 2 pi plus rounding is a full turn, not an error
    full = table.box_masses(np.zeros(2), np.array([-math.pi, 0.1]),
                            np.array([math.pi, 0.1 + TWO_PI + 1e-15]))
    assert full == pytest.approx(table.total_mass(), rel=1e-12)


def test_breakpoints_cached_read_only_and_list_foci_accepted():
    field = lambda z: np.abs(z) ** 2
    as_list = integrate_lune(field, 0.3, 0.25, foci=[0.0]).value
    assert as_list == integrate_lune(field, 0.3, 0.25, foci=(0.0,)).value
    grid = RadialAnnuliGrid(depth=6, foci=[0.5, 2.0], panel_order=4)
    for got, want in zip(grid.nodes(), RadialAnnuliGrid(depth=6, foci=(0.5, 2.0), panel_order=4).nodes()):
        assert np.array_equal(got, want)
    layout =((0.0, TWO_PI, 2.0 ** -6, (1.0,), 16), (0.0, 1.0, 2.0 ** -9, (), 4))
    b = graded_breakpoints(layout)
    assert b is graded_breakpoints(layout)
    for breaks in b:
        with pytest.raises(ValueError):
            breaks[0] = 1.0
