"""Quadrature oracles: beta-integral exactness, closed-form region areas,
additivity, refinement convergence, diagonal-avoiding double integrals."""

import math

import numpy as np
import pytest

from dirimor.analytic import make_power_kernel
from dirimor.quadrature import (
    Arc,
    BoxMassTable,
    QuadratureError,
    RadialAnnuliGrid,
    Region,
    _canonical_pieces,
    arc_double_integral,
    chord_gap,
    graded_breakpoints,
    integrate_disc,
    integrate_region,
    region_intersect,
)

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


# -- regions ------------------------------------------------------------------


def _fraction(reg):
    """The share of the circle a region's angular pieces cover."""
    return sum(hi - lo for lo, hi in reg.pieces) / TWO_PI


def test_box_area_closed_form():
    # |I| = 1/2: area = |I| (2|I| - |I|^2) = 0.375
    reg = Region.box_of_arc(Arc(0.3, 0.5))
    res = integrate_region(lambda z: np.ones(z.shape), reg)
    # relative depth 2^-28 leaves ~2e-9 of the area in the outer sliver
    assert res.value == pytest.approx(0.375, rel=1e-8)
    # and in closed form from the box's angular width and inner radius
    assert _fraction(reg) * (1 - reg.r_lo ** 2) == pytest.approx(0.375, rel=1e-8)


def test_box_weighted_closed_form():
    reg = Region.box_of_arc(Arc(0.0, 0.5))
    res = integrate_region(lambda z: 1 - np.abs(z) ** 2, reg)
    assert res.value == pytest.approx(0.140625, rel=1e-9)


def test_lune_covering_disc():
    reg = Region.lune_of(0.0, 2.0)
    assert reg.kind == "disc"
    res = integrate_region(lambda z: np.ones(z.shape), reg)
    assert res.value == pytest.approx(1.0, rel=2e-8)


def test_lune_area_against_chord_geometry():
    # area of {|1 - z| < h} inside the disc, via an independent midpoint scan
    h = 0.5
    reg = Region.lune_of(0.0, h)
    got = integrate_region(lambda z: np.ones(z.shape), reg).value
    n = 4001
    rr = np.linspace(1e-9, 1 - 1e-9, n)
    width = np.arccos(np.clip((1 + rr ** 2 - h ** 2) / (2 * rr), -1, 1))
    ref = float(np.trapezoid(2 * width * rr / math.pi, rr))
    assert got == pytest.approx(ref, rel=2e-4)


def test_empty_region_flagged():
    res = integrate_region(lambda z: np.ones(z.shape), Region.empty())
    assert res.value == 0.0 and res.error == 0.0
    assert "empty" in res.flags


def test_point_box_geometry():
    s0 = Region.box_of_point(0.0)
    assert _fraction(s0) == pytest.approx(1.0)
    w = 0.9 * np.exp(0.4j)
    sw = Region.box_of_point(w)
    assert sw.r_lo == pytest.approx(0.9)
    assert _fraction(sw) == pytest.approx(0.1)


def test_region_intersections():
    w = 0.8 * np.exp(1.1j)
    sw = Region.box_of_point(w)
    s0 = Region.box_of_point(0.0)
    both = region_intersect(s0, sw)
    assert both.r_lo == pytest.approx(sw.r_lo)
    assert both.pieces == sw.pieces
    same = region_intersect(sw, sw)
    assert same.r_lo == sw.r_lo and same.pieces == sw.pieces
    far = region_intersect(Region.box_of_point(0.9), Region.box_of_point(-0.9))
    assert far.is_empty


def test_intersection_wraparound():
    a = Region.box_of_point(0.9 * np.exp(1j * 0.05))
    b = Region.box_of_point(0.9 * np.exp(-1j * 0.05))
    both = region_intersect(a, b)
    assert not both.is_empty
    # overlap is a single arc through angle 0, width 2*pi*0.1 - 0.1
    assert sum(hi - lo for lo, hi in both.pieces) == pytest.approx(TWO_PI * 0.1 - 0.1, rel=1e-12)


def test_additivity_two_way_split():
    field = lambda z: 1 + 0.5 * np.real(z) + np.abs(z) ** 2
    arc = Arc(1.0, 0.25)
    whole = Region.box_of_arc(arc)
    half = math.pi * arc.length
    left = Region("box_of_arc", whole.r_lo, ((arc.center - half, arc.center),))
    right = Region("box_of_arc", whole.r_lo, ((arc.center, arc.center + half),))
    v = integrate_region(field, whole).value
    v2 = integrate_region(field, left).value + integrate_region(field, right).value
    assert v == pytest.approx(v2, rel=1e-8)


def test_refinement_convergence_polynomial():
    field = lambda z: np.abs(z) ** 4 * (1 - np.abs(z) ** 2)
    reg = Region.box_of_arc(Arc(0.0, 0.25))
    v1 = integrate_region(field, reg, rel_depth=28).value
    v2 = integrate_region(field, reg, rel_depth=56).value
    assert v1 == pytest.approx(v2, rel=1e-8)


def test_box_monotonicity():
    field = lambda z: (1 - np.abs(z) ** 2) ** 0.5 + 0.1
    vals = []
    for ln in [1 / 16, 1 / 8, 1 / 4, 1 / 2, 1.0]:
        vals.append(integrate_region(field, Region.box_of_arc(Arc(0.2, ln))).value)
    assert all(vals[i] <= vals[i + 1] * (1 + 1e-9) for i in range(len(vals) - 1))


def test_depth_cap_truncates():
    field = lambda z: np.ones(z.shape)
    reg = Region.box_of_arc(Arc(0.0, 1.0))
    res = integrate_region(field, reg, max_level=6)
    assert res.value == pytest.approx((1 - 2.0 ** -6) ** 2, rel=1e-10)
    # max_level=L keeps radii below 1-2^-L, i.e. dyadic levels 0..L-1
    full = integrate_region(field, reg)
    assert sum(full.level_sums[:6]) == pytest.approx(res.value, rel=1e-10)


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

    arc_double_integral(F, Arc(0.0, 0.5), resolution_check=False)
    assert min(seen) > 0.0


def test_double_integral_rotation_invariance():
    F = lambda u, v: chord_gap(u, v) ** 0.5
    a = arc_double_integral(F, Arc(0.0, 1.0), resolution_check=False).value
    b = arc_double_integral(F, Arc(2.0, 1.0), resolution_check=False).value
    assert a == pytest.approx(b, rel=1e-12)


def _integrand_calls(arc, t_depth):
    calls = []

    def F(u, v):
        calls.append(np.shape(u))
        return chord_gap(u, v) ** 0.5

    arc_double_integral(F, arc, t_depth=t_depth, resolution_check=False)
    return len(calls)


def test_double_integral_one_call_per_t_panel():
    assert _integrand_calls(Arc(0.7, 0.25), 36) <= 36 + 1
    assert _integrand_calls(Arc(0.7, 1.0), 36) <= 2 * 36


def test_double_integral_rejects_asymmetric_integrand():
    F = lambda u, v: 1.0 + 0.5 * np.sin(u - v)
    with pytest.raises(ValueError, match="symmetric"):
        arc_double_integral(F, Arc(0.7, 0.25), resolution_check=False)


@pytest.mark.parametrize("arc", [Arc(1.0, 0.25), Arc(1.0, 1.0)])
def test_double_integral_nan_near_diagonal_names_node(arc):
    F = lambda u, v: np.where(chord_gap(u, v) < 1e-6, np.nan, 1.0)
    with pytest.raises(QuadratureError) as exc:
        arc_double_integral(F, arc, resolution_check=False)
    loc = exc.value.location
    assert loc.imag == 0.0
    offset = (loc.real - arc.center + math.pi) % TWO_PI - math.pi
    assert abs(offset) <= 0.5 * arc.radian_length


# -- mass tables ----------------------------------------------------------------


def test_mass_table_against_fitted_quadrature():
    dens = lambda z: (1 - np.abs(z) ** 2) ** 0.5
    table = BoxMassTable(dens, depth=14)
    assert table.total_mass() == pytest.approx(2 / 3, rel=1e-3)
    for w in [0.0, 0.5, 0.8 * np.exp(1j * 2.0)]:
        reg = Region.box_of_point(w)
        fitted = integrate_region(dens, reg).value
        assert table.region_mass(reg) == pytest.approx(fitted, rel=5e-3)


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


def test_mass_table_counts_every_piece():
    # two wrapped boxes whose intersection has three angular pieces
    both = region_intersect(
        Region.box_of_arc(Arc(-1.25, 3.5 / TWO_PI)),
        Region.box_of_arc(Arc(1.6, 3.8 / TWO_PI)),
    )
    assert len(both.pieces) == 3
    table = BoxMassTable(lambda z: np.ones(z.shape), depth=6)
    singles = [table.region_mass(Region("piece", both.r_lo, (pc,))) for pc in both.pieces]
    assert table.region_mass(both) == pytest.approx(sum(singles), rel=1e-12)


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
    table = _kernel_table()
    for r_lo, lo, hi in PERIODIC_BOXES:
        got = float(table.box_masses(np.array([r_lo]), np.array([lo]), np.array([hi]))[0])
        want = table.region_mass(Region("box", r_lo, _canonical_pieces(lo, hi)))
        assert got == pytest.approx(want, rel=1e-12, abs=0.0), (r_lo, lo, hi)
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


def test_box_masses_batch_equals_single_queries():
    table = _kernel_table()
    r_lo, lo, hi = (np.array(col) for col in zip(*PERIODIC_BOXES))
    singles = [float(table.box_masses(r_lo[i:i + 1], lo[i:i + 1], hi[i:i + 1])[0])
               for i in range(len(r_lo))]
    assert table.box_masses(r_lo, lo, hi).tolist() == singles
    assert table.box_masses(r_lo[::-1], lo[::-1], hi[::-1]).tolist() == singles[::-1]


def test_breakpoints_cached_read_only_and_list_foci_accepted():
    field = lambda z: np.abs(z) ** 2
    reg = Region.box_of_arc(Arc(0.3, 0.25))
    as_list = integrate_region(field, reg, foci=[0.0]).value
    assert as_list == integrate_region(field, reg, foci=(0.0,)).value
    b = graded_breakpoints(0.0, TWO_PI, 2.0 ** -6, (1.0,), 16, wrap=True)
    assert b is graded_breakpoints(0.0, TWO_PI, 2.0 ** -6, (1.0,), 16, wrap=True)
    with pytest.raises(ValueError):
        b[0] = 1.0
