"""Norm computations against the coefficient oracle, the two-route translate
identity, closed-form box quantities, and the scan report contracts."""

import dataclasses
import math

import numpy as np
import pytest

from dirimor.analytic import BoundaryPoint, SpaceParams, log_kernel, make_power_kernel, make_taylor
from dirimor.norms import (
    BOX_PANEL_ORDER,
    BOX_REL_DEPTH,
    GPCM_TABLE_DEPTH,
    TRACE_LEVEL_CAP,
    NormReport,
    ParamGrid,
    UnsupportedFunctionError,
    beta_moment,
    boundary_double_seminorm,
    box_quantity_pair,
    classify_trend,
    dirichlet_norm,
    _box_radial_plan,
    _box_scan_report,
    _box_sums,
    _gpcm_nodes,
    _group_rows,
    _growth_for_radius,
    _point_rows,
    dirichlet_norm_coeff,
    dm_norm_translate,
    dm_norms_translate,
    derivative_density,
    dm_seminorm_box,
    effective_depth,
    general_morrey_norm,
    gpcm_quantity,
    grid_for_function,
    growth_envelope,
    hinf_sup,
    qp_log_quantity,
    qp_quantity,
    translate_seminorm,
    trend_slope,
)
from dirimor import norms
from dirimor.gaps import remark_example
from dirimor.operators import IG, JG, apply_Jg, apply_operator
from dirimor.quadrature import (
    Arc,
    BoxMassTable,
    arc_double_integral,
    chord_gap,
    fitted_panels,
    graded_breakpoints,
    integrate_lune,
    radial_panels,
    window_nodes,
)
from dirimor.verify import RunConfig, _boundary_suite, build_suite, parse_function_spec

RNG = np.random.default_rng(1234)
TWO_PI = 2 * math.pi


def gap(q, K=20):
    from dirimor.analytic import make_gap_series

    return make_gap_series(lambda k: 2.0 ** (-k * (1 - q) / 2.0), K, label=f"gap:q={q},K={K}")


# -- Dirichlet norm vs coefficient oracle -------------------------------------


def test_dirichlet_examples():
    c = make_taylor([2.5])
    assert dirichlet_norm(c, 1.0).value == pytest.approx(2.5, rel=1e-12)
    ident = make_taylor([0, 1])
    assert dirichlet_norm(ident, 1.0).value == pytest.approx(math.sqrt(0.5), rel=1e-9)
    sq = make_taylor([0, 0, 1])
    assert dirichlet_norm(sq, 0.5).value == pytest.approx(math.sqrt(4 / 3.75), rel=1e-9)


@pytest.mark.parametrize("p", [-1.5, float("nan"), float("inf")])
def test_dirichlet_norm_rejects_bad_exponents(p):
    # p = -1.5 returned 1217.7 for f = z, and p = nan failed naming a node
    with pytest.raises(ValueError, match=rf"^p must .* got {p!r}"):
        dirichlet_norm(make_taylor([0, 1]), p)


def test_coeff_oracle_values():
    assert dirichlet_norm_coeff([1], 0.7) == 1.0
    assert dirichlet_norm_coeff([0, 1], 1.0) == pytest.approx(math.sqrt(0.5), rel=1e-14)
    # Parseval cross-check: the n-th monomial moment is the beta integral
    assert beta_moment(1, 1.0) == pytest.approx(0.5)
    assert beta_moment(2, 0.5) == pytest.approx(1 / 3.75)


@pytest.mark.parametrize("p", [0.25, 0.5, 0.75, 1.0])
def test_oracle_agreement_random_polynomials(p):
    for _ in range(3):
        deg = int(RNG.integers(1, 21))
        coeffs = RNG.normal(size=deg + 1) + 1j * RNG.normal(size=deg + 1)
        f = make_taylor(coeffs)
        got = dirichlet_norm(f, p).value
        want = dirichlet_norm_coeff(coeffs, p)
        assert abs(got - want) / want < 1e-6


# -- translate seminorm --------------------------------------------------------


def test_translate_seminorm_trivial():
    c = make_taylor([4.2])
    assert translate_seminorm(c, 0.7, 0.3 + 0.1j) == pytest.approx(0.0, abs=1e-12)
    ident = make_taylor([0, 1])
    assert translate_seminorm(ident, 1.0, 0.0) == pytest.approx(math.sqrt(0.5), rel=1e-8)


def test_translate_rotation_symmetry():
    ident = make_taylor([0, 1])
    v1 = translate_seminorm(ident, 1.0, 0.5)
    v2 = translate_seminorm(ident, 1.0, 0.5j)
    assert v1 == pytest.approx(v2, rel=1e-10)


@pytest.mark.parametrize("a", [0.5, 0.5j, 0.9])
@pytest.mark.parametrize(
    "f",
    [make_taylor([0, 1]), make_taylor([0, 0, 1]), make_power_kernel(0.9, 0.35)],
    ids=lambda f: f.label,
)
def test_translate_two_routes_agree(f, a):
    kw = dict(depth=32, panel_order=8, base_panels=24)
    v1 = translate_seminorm(f, 0.5, a, route="weight", **kw)
    v2 = translate_seminorm(f, 0.5, a, route="translate", **kw)
    assert abs(v1 - v2) / v1 < 1e-5


def _plain_seminorm(f, p, a, grid, u=None):
    # the Mobius weight in the frame of the ray through u (default a/|a|,
    # in Python's complex arithmetic):
    # with zeta = conj(u) z = x + iy and rho = |a|,
    # |1 - conj(a) z|^2 = rho^2 ((1/rho - x)^2 + y^2)
    z, w, _ = grid.nodes()
    base = f.deriv_abs2(z) * (1.0 - np.abs(z) ** 2) ** p * w
    rho = abs(a)
    zeta = np.conj(complex(a) / rho if u is None else u) * z
    q = (1.0 - rho * rho) / (rho * rho) / ((1.0 / rho - zeta.real) ** 2 + zeta.imag ** 2)
    return math.sqrt(max(float(np.sum(base * q ** p)), 0.0))


@pytest.mark.parametrize("p", [0.5, 0.3])
@pytest.mark.parametrize(
    "f, scan_grid",
    [
        (make_power_kernel(0.9, 0.15),
         dict(extra_foci=(math.pi / 4,), panel_order=4)),  # graded
        (gap(0.5), dict(growth_cap=11)),  # uniform
    ],
    ids=["graded", "uniform"],
)
def test_scan_group_equals_plain_weight_bitwise(f, scan_grid, p):
    # the work-array reduction must reproduce the plain expression bit for
    # bit, for a group of one and for a group of more than MEMBER_BLOCK; the
    # points of one ray share the frame of the first
    disc = grid_for_function(f, 24, **scan_grid)
    pts = [(1.0 - 2.0 ** -k) * np.exp(1j * math.pi / 4) for k in range(1, 11)]
    u = complex(pts[0]) / abs(pts[0])
    group = [f, f.scaled(0.5 + 2j), make_taylor([1, 2, 0, 1]), f]
    assert len(group) > norms.MEMBER_BLOCK
    for fs in ([f], group):
        table = _group_rows(fs, p, disc, lambda bases, z: _point_rows(bases, z, p, pts))
        assert table.shape == (len(fs), len(pts))
        for g, got in zip(fs, table):
            for a, val in zip(pts, got):
                assert val == _plain_seminorm(g, p, a, disc, u)
    for a in pts:
        # the grid translate_seminorm builds for a
        own = grid_for_function(f, 24, extra_foci=(float(np.angle(a)) % (2 * math.pi),),
                                panel_order=4, growth_cap=_growth_for_radius(abs(a)))
        assert translate_seminorm(f, p, a, route="weight", depth=24, panel_order=4) == \
            _plain_seminorm(f, p, a, own)


def _shift_and_loop(monkeypatch, f, grid, p=0.5):
    """(row of _uniform_rows, row of the per-point loop over the same
    a-points and grid, levels _uniform_rows left to the per-point loop)."""
    disc = grid_for_function(f, grid.depth, growth_cap=min(grid.k_a + 1, 11))
    pts = grid.a_points()
    level_of = {a: level for level, a in pts}
    loop = _group_rows([f], p, disc,
                       lambda bases, z: _point_rows(bases, z, p, [a for _, a in pts]))[0]
    looped = set()

    def spy(bases, z, p, points):
        looped.update(level_of[a] for a in points)
        return _point_rows(bases, z, p, points)

    monkeypatch.setattr(norms, "_point_rows", spy)
    shift = _group_rows([f], p, disc,
                        lambda bases, z: norms._uniform_rows(bases, z, p, pts, disc))[0]
    assert shift.shape == loop.shape == (len(pts),)
    return shift, loop, looped


@pytest.mark.parametrize("cap", [8, 16, 64])
@pytest.mark.parametrize(
    "f",
    [gap(0.5), make_taylor([1, 2, 0, 1]),
     apply_Jg(make_power_kernel(0.5, 0.3), remark_example(0.3))],
    ids=["gap", "polynomial", "Jg-image"],
)
def test_shift_route_matches_point_loop(monkeypatch, f, cap):
    # every level k >= 1 is a full orbit whose size divides every ring
    grid = ParamGrid(k_a=6, a_angle_cap=cap, depth=12, base_panels=8)
    shift, loop, looped = _shift_and_loop(monkeypatch, f, grid)
    assert looped == {0}
    assert shift[0] == loop[0]
    for got, want in zip(shift, loop):
        assert abs(got - want) <= 1e-13 * want


@pytest.mark.parametrize(
    "degree, cap, looped_levels",
    [(2, 3, set(range(7))), (2, 12, set(range(7))), (15, 8, set(range(7))),
     (22, 64, {0, 3, 4, 5, 6})],
    ids=["cap-3", "cap-12", "hint-68", "hint-96-mixed"],
)
def test_shift_route_falls_back_bitwise(monkeypatch, degree, cap, looped_levels):
    # a level whose direction count fails to divide some ring size keeps the
    # per-point loop bit for bit; a degree-22 polynomial (angular hint 96)
    # routes its 16- and 32-direction levels and loops its 64-direction ones
    coeffs = np.random.default_rng(degree).normal(size=degree + 1)
    grid = ParamGrid(k_a=6, a_angle_cap=cap, depth=12, base_panels=8)
    shift, loop, looped = _shift_and_loop(monkeypatch, make_taylor(coeffs), grid)
    assert looped == looped_levels
    for (level, _), got, want in zip(grid.a_points(), shift, loop):
        if level in looped_levels:
            assert got == want
        else:
            assert abs(got - want) <= 1e-13 * want



def _complex_weight(a, z, p):
    # the Mobius weight as the complex expression it was first computed by
    return ((1.0 - abs(a) ** 2) / np.abs(1.0 - np.conj(a) * z) ** 2) ** p


@pytest.mark.parametrize("p", [0.5, 0.3])
@pytest.mark.parametrize(
    "f, scan_grid",
    [
        (make_power_kernel(0.9, 0.15),
         dict(extra_foci=(math.pi / 4,), panel_order=4)),  # graded
        (gap(0.5), dict(growth_cap=11)),  # uniform
    ],
    ids=["graded", "uniform"],
)
def test_ray_frame_weight_matches_complex_expression(f, scan_grid, p):
    # the ray frame moves weights and seminorms at rounding only, out to
    # |a| = 1 - 2^-11, on and off the grid's focus direction
    disc = grid_for_function(f, 28, **scan_grid)
    z, w, _ = disc.nodes()
    base = f.deriv_abs2(z) * (1.0 - np.abs(z) ** 2) ** p * w
    x, y2, q = np.empty(z.shape), np.empty(z.shape), np.empty(z.shape)
    for theta in (math.pi / 4, 2.0):
        pts = [(1.0 - 2.0 ** -k) * np.exp(1j * theta) for k in range(1, 12)]
        row = _group_rows([f], p, disc, lambda bases, z: _point_rows(bases, z, p, pts))[0]
        for a, val in zip(pts, row):
            rho = abs(a)
            norms._ray_frame(complex(a) / rho, z, x, y2)
            norms._mobius_weight(rho, x, y2, p, q)
            want = _complex_weight(a, z, p)
            assert np.max(np.abs(q - want) / want) <= 1e-12
            plain = math.sqrt(float(np.sum(base * want)))
            assert abs(val - plain) <= 1e-14 * plain


@pytest.mark.parametrize("u", [1.0, 1j, np.exp(1j * math.pi / 4), -1.0])
def test_tiny_translate_points_read_the_a0_value(u):
    # 1/|a| overflows near |a| = 1e-154; below 2^-54 the weight is 1 in
    # double precision, so such points must read as a = 0, not overflow
    f, p = make_taylor([0, 1]), 0.5
    disc = grid_for_function(f, 24, extra_foci=(math.pi / 4,), panel_order=4)
    tiny = [1e-8, 1e-160, 1e-300, 5e-324]
    pts = [0j] + [t * u for t in tiny]
    assert all(0.0 < abs(a) < 1e-7 for a in pts[1:])
    row = _group_rows([f], p, disc, lambda bases, z: _point_rows(bases, z, p, pts))[0]
    v0 = row[0]
    for val in row[1:]:
        assert abs(val - v0) <= 1e-15 * v0
    t0 = translate_seminorm(f, p, 0.0)
    for t in tiny:
        assert abs(translate_seminorm(f, p, t * u) - t0) <= 1e-15 * t0


@pytest.mark.parametrize("s", [0.0, 0.3])
def test_scan_entries_weight_the_kernel_table(s):
    # the kernels return bare seminorms; the scan labels each with its
    # (level, a), in a_points() order on a uniform grid, and weights it
    f, p = gap(0.5), 0.5
    grid = ParamGrid(k_a=5, a_angle_cap=16, depth=12, base_panels=8)
    disc = grid_for_function(f, grid.depth, growth_cap=min(grid.k_a + 1, 11))
    pts = grid.a_points()
    row = _group_rows([f], p, disc,
                      lambda bases, z: norms._uniform_rows(bases, z, p, pts, disc))[0]
    entries = general_morrey_norm(f, p, s, grid).entries
    assert [e[:2] for e in entries] == pts
    assert [e[2] for e in entries] == [(1.0 - abs(a)) ** s * v
                                       for (_, a), v in zip(pts, row.tolist())]
    assert all(type(e[2]) is float for e in entries)


# -- dm norms -------------------------------------------------------------------


def test_dm_norm_constant():
    rep = dm_norm_translate(make_taylor([3 - 4j]), SpaceParams(0.5, 0.4), ParamGrid(k_a=3))
    assert rep.value == pytest.approx(5.0, rel=1e-12)


def test_dm_norm_lambda_zero_matches_weighted_sup():
    # lam = 0: weight (1-|a|^2)^(p/2); finite for polynomials, stable report
    f = make_taylor([0, 1])
    rep = dm_norm_translate(f, SpaceParams(1.0, 0.0), ParamGrid(k_a=6))
    assert rep.value > 0
    assert "bounded-trend" in rep.flags
    assert rep.maximizer is not None
    assert abs(rep.maximizer) < 1.0


def test_dm_norm_fpl_stable():
    params = SpaceParams(0.5, 0.4)
    f = make_power_kernel(BoundaryPoint(0.0), params.translate_exponent)
    r1 = dm_norm_translate(f, params, ParamGrid(k_a=7))
    r2 = dm_norm_translate(f, params, ParamGrid(k_a=9))
    assert r2.value <= r1.value * 3 and r1.value <= r2.value
    assert "bounded-trend" in r2.flags


def test_morrey_norm_conventions():
    f = make_taylor([0, 1])
    rep = general_morrey_norm(f, 1.0, 1.0, ParamGrid(k_a=6))
    assert rep.value > 0
    rep0 = general_morrey_norm(f, 0.5, 0.0, ParamGrid(k_a=5))
    # s = 0: plain sup of translate seminorms (Mobius-invariant scan)
    direct = max(
        translate_seminorm(f, 0.5, a, depth=24, panel_order=4)
        for _, a in ParamGrid(k_a=5).a_points()
    )
    assert rep0.value == pytest.approx(abs(f.at_zero()) + direct, rel=1e-6)



NAN = float("nan")


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda f: general_morrey_norm(f, NAN, 0.1, ParamGrid(k_a=2)), r"^p must .* got nan$"),
        (lambda f: translate_seminorm(f, NAN, 0.5), r"^p must .* got nan$"),
        (lambda f: general_morrey_norm(f, -1.5, 0.1, ParamGrid(k_a=2)), r"^p must .* got -1\.5$"),
        (lambda f: translate_seminorm(f, -1.5, 0.5), r"^p must .* got -1\.5$"),
        (lambda f: general_morrey_norm(f, 0.5, NAN, ParamGrid(k_a=2)), r"^s must .* got nan$"),
        (lambda f: translate_seminorm(f, 0.5, NAN), r"^a must .* got \(nan\+0j\)$"),
    ],
    ids=["morrey-p-nan", "seminorm-p-nan", "morrey-p-below-1", "seminorm-p-below-1",
         "morrey-s-nan", "seminorm-a-nan"],
)
def test_translate_path_rejects_bad_input_by_name(call, message):
    # each was accepted: morrey at p = nan read 0.0 and at s = nan dropped its
    # NaN entries (0.816), the seminorm at p = nan read nan, p = -1.5 gave
    # finite values though the weight is not integrable there, and a = nan
    # failed converting NaN to an integer
    with pytest.raises(ValueError, match=message):
        call(make_taylor([0, 1]))


# -- box quantities ---------------------------------------------------------------


def test_box_quantity_closed_form_candidate():
    # f(z) = z, p = 1, lam = 1, arc |I| = 1/2: 0.140625 / 0.5 = 0.28125
    f = make_taylor([0, 1])
    grid = ParamGrid(k_arc=1, n_centers=4)
    rep = dm_seminorm_box(f, SpaceParams(1.0, 1.0), grid)
    for arc, q, _ in box_quantity_pair(f, 1.0, 1.0, grid):
        if arc.length == 0.5:
            assert q / 0.5 == pytest.approx(0.28125, rel=1e-8)
    # the scan includes the full circle (j=0), whose quantity is 1/2
    assert rep.value == pytest.approx(0.5, rel=1e-6)
    assert rep.maximizer == Arc(0.0, 1.0)


def test_box_scan_maximizer_in_grid():
    f = make_power_kernel(0.9, 0.5)
    grid = ParamGrid(k_arc=6, n_centers=16)
    rep = dm_seminorm_box(f, SpaceParams(0.5, 0.4), grid)
    assert rep.maximizer.length in [1.0] + [2.0 ** -j for j in range(1, 7)]
    assert rep.value > 0


def test_box_scan_is_invariant_under_rotation_by_pi():
    # the boundary kernel at angle 0 puts its singularity on the seam of
    # [0, 2 pi), where boxes used to be cut in two; its rotation by pi must
    # read the same
    params = SpaceParams(0.5, 0.4)
    grid = ParamGrid(k_arc=6, n_centers=8)
    a, b = (dm_seminorm_box(parse_function_spec(f"kernel:c={c}+0i,s=auto", params), params, grid)
            for c in ("1", "-1"))
    assert a.value == pytest.approx(b.value, rel=1e-9)


def test_lune_at_zero_matches_rotated_lune():
    # V3's lune integral of the boundary kernel at b = 0 against the lune at
    # b = pi of the kernel rotated by pi; the two differ by rounding of the
    # rotated nodes near the kernel's focus, at most 2.1e-9 over these h
    params = SpaceParams(0.5, 0.4)
    for j in range(1, 13):
        h = 2.0 ** -j
        a, b = (integrate_lune(
            derivative_density(make_power_kernel(BoundaryPoint(c), params.translate_exponent),
                               params.p),
            c, h, foci=(c,), rel_depth=24, radial_order=6,
            panel_order=BOX_PANEL_ORDER).value for c in (0.0, math.pi))
        assert a == pytest.approx(b, rel=5e-9), h


def _rotated(f, alpha):
    """z -> f(e^{-i alpha} z), with its singular directions turned by alpha."""
    u = complex(math.cos(-alpha), math.sin(-alpha))
    return dataclasses.replace(
        f, eval_fn=lambda z: f.eval_fn(u * z), deriv_fn=lambda z: u * f.deriv_fn(u * z),
        deriv_abs2_fn=lambda z: f.deriv_abs2(u * z),
        singular_angles=tuple((a + alpha) % TWO_PI for a in f.singular_angles))


def _polynomial_box(coeffs, arc, p):
    """integral over S(I) of |f'|^2 (1-|z|^2)^p dm for a polynomial f, to the
    box rows' depth: |f'|^2 = sum_nm n m a_n conj(a_m) r^(n+m-2) e^(i(n-m)t),
    whose angular integral over I is closed, E_nm = int_I e^(i(n-m)t) dt,
    times a radial Gauss sum of 24 nodes on each dyadic panel."""
    half = math.pi * arc.length
    terms = [(n, n * a) for n, a in enumerate(coeffs) if n > 0 and a != 0]
    x, wx = np.polynomial.legendre.leggauss(24)
    total = 0.0
    for ell in range(BOX_REL_DEPTH):
        lo = 1 - arc.length * 2.0 ** -ell
        hi = 1 - arc.length * 2.0 ** -(ell + 1)
        r = 0.5 * (lo + hi) + 0.5 * (hi - lo) * x
        rw = 0.5 * (hi - lo) * wx * r * (1 - r ** 2) ** p / math.pi
        for n, bn in terms:
            for m, bm in terms:
                k = n - m
                e = 2 * half if k == 0 else 2 * math.sin(k * half) / k * np.exp(1j * k * arc.center)
                total += float(np.real(bn * np.conj(bm) * e * np.sum(rw * r ** (n + m - 2))))
    return total


@pytest.mark.parametrize(
    "spec", ["taylor:1,2,0,1", "kernel:c=0.9+0i,s=auto", "kernel:c=1+0i,s=auto", "log1"])
def test_box_rows_match_region_integrals(spec):
    # polynomial rows against the closed angular form of |f'|^2 over each box;
    # rows of a singular function against the rows of it turned by pi on the
    # arcs turned by pi, with the exponent pair dominated nodewise on each row
    params = SpaceParams(0.5, 0.4)
    f = parse_function_spec(spec, params)
    grid = ParamGrid(k_arc=6, n_centers=8)
    p1, p2 = 0.3, 0.6
    rows = box_quantity_pair(f, p1, p2, grid)
    assert [arc for arc, _, _ in rows] == [arc for _, arc in grid.arcs()]
    if spec.startswith("taylor:"):
        coeffs = [float(a) for a in spec.split(":")[1].split(",")]
        for arc, q1, q2 in rows:
            for got, p in ((q1, p1), (q2, p2)):
                assert got == pytest.approx(_polynomial_box(coeffs, arc, p), rel=1e-9), (arc, p)
        return

    def key(arc, turn):
        # arc m of a level turned by pi is arc m + 4; the full circle is itself
        return arc.length, (round(arc.center / (TWO_PI / 8)) + (turn if arc.length < 1 else 0)) % 8

    turned = {key(arc, 0): (q1, q2)
              for arc, q1, q2 in box_quantity_pair(_rotated(f, math.pi), p1, p2, grid)}
    for arc, q1, q2 in rows:
        assert turned[key(arc, 4)] == pytest.approx((q1, q2), rel=1e-10), arc
        assert q2 <= (2 * arc.length) ** (p2 - p1) * q1 * (1 + 1e-12), arc


def test_box_pair_inequality_nodewise():
    # integral with weight p2 <= (2|I|)^(p2-p1) integral with weight p1,
    # guaranteed nodewise on shared nodes
    p1, p2 = 0.3, 0.6
    grid = ParamGrid(k_arc=6, n_centers=8)
    for f in [make_taylor([0, 1]), make_power_kernel(0.9, 0.35), log_kernel()]:
        for arc, q1, q2 in box_quantity_pair(f, p1, p2, grid):
            bound = (2 * arc.length) ** (p2 - p1) * q1
            assert q2 <= bound * (1 + 1e-12)



def test_box_scan_layouts_are_memoized_across_scans():
    # a scan of the default grid asks for one layout per batch of boxes, and
    # a second scan with the same focus offsets asks for the same layouts;
    # memoized one window at a time, its 2,512 windows, asked for in the same
    # cyclic order, evicted each other from the memo and missed every call
    params, grid = SpaceParams(0.5, 0.4), ParamGrid()
    dm_seminorm_box(parse_function_spec("kernel:c=0.9+0i,s=auto", params), params, grid)
    before = graded_breakpoints.cache_info()
    dm_seminorm_box(parse_function_spec("kernel:c=0.5+0i,s=auto", params), params, grid)
    after = graded_breakpoints.cache_info()
    assert after.misses == before.misses
    assert after.hits > before.hits


def _box_sums_per_node(f, p_arr, arcs, offs, radial_order, max_level):
    """_box_sums one radial node and one exponent at a time: the reference."""
    length = arcs[0].length
    centers = np.array([a.center for a in arcs])
    half = math.pi * length
    sums = np.zeros((len(arcs), len(p_arr), TRACE_LEVEL_CAP + 2))
    for rr, rw, delta, j_abs in radial_panels(length, BOX_REL_DEPTH, radial_order, max_level):
        nb = fitted_panels(-half, half, norms.BOX_BASE_PANELS)
        th, tw, _ = window_nodes([(-half, half, delta, offs, nb)], BOX_PANEL_ORDER)
        j_abs = min(j_abs, TRACE_LEVEL_CAP + 1)
        e = np.exp(1j * (centers[:, None] + th[None, :]))
        d2 = f.deriv_abs2(rr[:, None, None] * e)
        for i in range(len(rr)):
            wrow = (rw[i] * rr[i] / math.pi) * tw
            one_minus_p = (1.0 - rr[i] ** 2) ** p_arr
            row = d2[i] @ wrow
            for q, om in enumerate(one_minus_p):
                sums[:, q, j_abs] += om * row
    return sums


@pytest.mark.parametrize("n_arcs", [1, 8, 16, "full"])
@pytest.mark.parametrize("p_list", [(0.5,), (0.3, 0.6)])
@pytest.mark.parametrize(
    "spec", ["taylor:1,2,0,1", "kernel:c=0.9+0i,s=auto", "log1", "gap:q=0.5,K=20"])
def test_box_sums_equal_per_node_loop_bitwise(spec, p_list, n_arcs):
    # one window pass, one exponential and one stacked product per batch
    # and panel, and one ordered accumulation of the nodes give the
    # per-node, per-exponent loop's bits; p = 0.5 guards the square-root
    # fast path of an array power.  16 arcs are a level of qp's grid.
    f = parse_function_spec(spec, SpaceParams(0.5, 0.4))
    max_level = effective_depth(f, 10 ** 6) if f.r_max < 1.0 else None
    p_arr = np.array(p_list)
    if n_arcs == "full":
        arcs = [Arc(0.0, 1.0)]
    elif n_arcs == 16:
        arcs = [Arc(m * TWO_PI / 16, 1 / 16) for m in range(16)]
    else:
        arcs = [Arc(0.1 + m * TWO_PI / 8, 1 / 16) for m in range(n_arcs)]
    offs = (-0.1,)
    got = _box_sums(f, arcs, offs, _box_radial_plan(arcs[0].length, tuple(p_list), 6, max_level))
    assert np.array_equal(got, _box_sums_per_node(f, p_arr, arcs, offs, 6, max_level))


@pytest.mark.parametrize("radial_order", [7, 8, 12])
def test_box_sums_keep_node_order_on_one_column(radial_order):
    # one arc and one exponent stack a panel's nodes as a single column,
    # which a reduction would sum pairwise once it holds 8 or more rows
    f = make_power_kernel(0.9, 0.35)
    p_arr = np.array([0.5])
    arcs = [Arc(0.0, 1.0)]
    plan = _box_radial_plan(1.0, (0.5,), radial_order, None)
    got = _box_sums(f, arcs, (0.0,), plan)
    assert np.array_equal(got, _box_sums_per_node(f, p_arr, arcs, (0.0,), radial_order, None))


@pytest.mark.parametrize("length,p_list,max_level", [
    (1.0, [0.5], None), (2.0 ** -3, [0.3, 0.6], None), (2.0 ** -10, [0.3, 0.6], 12),
], ids=["one-exponent", "two-exponents", "cut-at-max-level"])
def test_box_radial_plans_are_memoized_read_only(length, p_list, max_level):
    plan = _box_radial_plan(length, tuple(p_list), 6, max_level)
    assert _box_radial_plan(length, tuple(p_list), 6, max_level) is plan
    fresh = _box_radial_plan.__wrapped__(length, tuple(p_list), 6, max_level)
    assert fresh is not plan
    assert (plan.n_exponents, plan.deltas) == (fresh.n_exponents, fresh.deltas) == \
        (len(p_list), tuple(d for *_, d, _ in radial_panels(length, BOX_REL_DEPTH, 6, max_level)))
    assert len(plan.panels) == len(fresh.panels) > 0
    for panel, want in zip(plan.panels, fresh.panels):
        assert panel[3] == want[3]
        for got_a, want_a in zip(panel[:3], want[:3]):
            assert np.array_equal(got_a, want_a) and not got_a.flags.writeable
    if max_level is not None:  # the last panel is cut at 1 - 2^-max_level
        assert plan.deltas[-1] == 2.0 ** -max_level
        assert len(plan.panels) < BOX_REL_DEPTH


def test_box_sums_of_a_level_below_the_certified_depth_stay_zero():
    # the gap series is certified to 1 - 2^-12: boxes of length 2^-12 hold
    # no radial panel above that depth, and their sums stay zero
    f = parse_function_spec("gap:q=0.5,K=20", SpaceParams(0.5, 0.4))
    assert effective_depth(f, 10 ** 6) == 12
    plan = _box_radial_plan(2.0 ** -12, (0.3, 0.6), 6, 12)
    assert plan.panels == () and plan.deltas == ()
    rows = box_quantity_pair(f, 0.3, 0.6, ParamGrid(k_arc=12, n_centers=4))
    assert all(q1 == 0.0 and q2 == 0.0 for arc, q1, q2 in rows if arc.length == 2.0 ** -12)
    assert all(q1 > 0.0 and q2 > 0.0 for arc, q1, q2 in rows if arc.length == 2.0 ** -11)


def test_qp_log_trivial_and_interior_max():
    c = make_taylor([7])
    rep = qp_log_quantity(c, 0.5, ParamGrid(k_arc=4, n_centers=8))
    assert rep.value == 0.0
    f = make_taylor([0, 1])
    rep2 = qp_log_quantity(f, 0.5, ParamGrid(k_arc=8, n_centers=8))
    assert rep2.value > 0
    assert 1.0 > rep2.maximizer.length > 2.0 ** -8


def test_qp_depth_trace_grows_for_critical_gap():
    # the lacunary symbol at its critical exponent gains box mass linearly
    # with radial depth; the trace exposes it
    g = gap(0.3)
    rep = qp_quantity(g, 0.3, ParamGrid(k_arc=4, n_centers=8))
    lv = dict(rep.levels)
    xs = [j for j in range(4, 12) if j in lv]
    ys = [lv[j] for j in xs]
    assert len(xs) >= 6
    corr = np.corrcoef(xs, ys)[0, 1]
    assert corr > 0.9


# -- boundary double seminorm -----------------------------------------------------


def test_boundary_double_requires_trace():
    with pytest.raises(UnsupportedFunctionError):
        boundary_double_seminorm(log_kernel(), SpaceParams(0.5, 0.4))


@pytest.mark.parametrize("t_depth", [0, -3])
def test_boundary_double_rejects_t_depth_below_one(t_depth):
    # with no t-panel the scan read 0.0 and "bounded-trend"
    with pytest.raises(ValueError, match=rf"^t_depth must be at least 1, got {t_depth}"):
        boundary_double_seminorm(make_taylor([0, 1]), SpaceParams(0.5, 0.4),
                                 ParamGrid(k_arc=1, n_centers=2), t_depth=t_depth)


def test_boundary_double_constant_zero():
    rep = boundary_double_seminorm(
        make_taylor([3]), SpaceParams(0.5, 0.4), ParamGrid(k_arc=2, n_centers=4)
    )
    assert rep.value == pytest.approx(0.0, abs=1e-12)


def test_boundary_double_rotation_invariance():
    f = make_taylor([0, 1])
    g = make_taylor([0, 1j])  # rotated copy
    grid = ParamGrid(k_arc=1, n_centers=1)
    a = boundary_double_seminorm(f, SpaceParams(0.5, 0.4), grid).value
    b = boundary_double_seminorm(g, SpaceParams(0.5, 0.4), grid).value
    assert a == pytest.approx(b, rel=1e-9)


def test_boundary_double_identity_full_circle():
    # f(z) = z: integrand |u-v|^2 / |u-v|^(2-p) = |u-v|^p; p = 0.5 reduces to
    # a 1-d integral of (2 sin(t/2))^(1/2)
    f = make_taylor([0, 1])
    grid = ParamGrid(k_arc=1, n_centers=2)
    rep = boundary_double_seminorm(f, SpaceParams(0.5, 1.0), grid)
    n = 2 ** 20
    t = (np.arange(n) + 0.5) * (2 * math.pi / n)
    oracle = 2 * math.pi * float(np.mean((2 * np.abs(np.sin(t / 2))) ** 0.5)) * 2 * math.pi
    # the full-circle arc has |I| = 1 so the prefactor is 1
    lv = dict(rep.levels)
    assert lv[0] == pytest.approx(oracle, rel=1e-5)


def test_boundary_double_converges_in_t_depth():
    # V5 scans at one t-depth, so the boundary suite must already have
    # converged in it: from t_depth 36 to 44 every level of the trace moves by
    # at most 4.8e-9 relative (gap:q=0.5,K=20, whose full circle sets the
    # supremum), the same figure as on V5's own arc grid
    params = SpaceParams(0.5, 0.4)
    suite = _boundary_suite(build_suite(RunConfig(), params))
    grid = ParamGrid(k_arc=1, n_centers=2)
    for name, f in suite:
        base = boundary_double_seminorm(f, params, grid, t_depth=36)
        deep = boundary_double_seminorm(f, params, grid, t_depth=44)
        for (lv, a), (_, b) in zip(base.levels, deep.levels):
            assert b == pytest.approx(a, rel=1e-8, abs=1e-12), (name, lv)


def _douglas_weights(n_max, p):
    """W(n) = integral over (0, 2 pi) of |1 - e^(int)|^2 |1 - e^(it)|^(p-2) dt for
    n = 0..n_max, in closed form: 4 pi g (1 - (-a)_n / (1 + a)_n) with
    a = p/2 - 1 and g = Gamma(2a + 1) / Gamma(a + 1)^2."""
    a = 0.5 * p - 1.0
    g = math.gamma(2.0 * a + 1.0) / math.gamma(a + 1.0) ** 2
    n = np.arange(n_max, dtype=float)
    ratio = np.concatenate([[1.0], np.cumprod((n - a) / (n + 1.0 + a))])
    return 4.0 * math.pi * g * (1.0 - ratio)


def _douglas_full_circle(terms, p):
    """Douglas's formula: the full-circle double integral of
    |f(u) - f(v)|^2 / |e^(iu) - e^(iv)|^(2-p) is 2 pi sum |a_n|^2 W(n)."""
    n = np.array([k for k, _ in terms])
    a = np.array([c for _, c in terms])
    return 2.0 * math.pi * float(np.sum(np.abs(a) ** 2 * _douglas_weights(int(n.max()), p)[n]))


def _kernel_terms(c, s):
    """(n, (s)_n conj(c)^n / n!) while |c|^(2n) > 1e-20; the tail of the
    Douglas sum then sits far below the tolerances tested."""
    n_max = int(math.ceil(math.log(1e-20) / math.log(abs(c) ** 2)))
    terms, a = [], 1.0 + 0.0j
    for n in range(n_max + 1):
        terms.append((n, a))
        a *= (s + n) / (n + 1.0) * np.conj(c)
    return terms


def test_douglas_weights_match_the_moments_they_reduce_to():
    # W(1) = M(p) and W(2) = 4 M(p) - M(p + 2), where
    # M(q) = integral of (2 sin(t/2))^q = 2 pi Gamma(q + 1) / Gamma(q/2 + 1)^2
    M = lambda q: 2.0 * math.pi * math.gamma(q + 1.0) / math.gamma(0.5 * q + 1.0) ** 2
    for p in (0.25, 0.5, 0.75):
        W = _douglas_weights(2, p)
        assert W[0] == 0.0
        assert W[1] == pytest.approx(M(p), rel=1e-14)
        assert W[2] == pytest.approx(4.0 * M(p) - M(p + 2.0), rel=1e-14)


def _open_item_1(why):
    return pytest.mark.xfail(strict=True, reason=f"ROADMAP item 1 (open): {why}")


@pytest.mark.parametrize("spec,terms,rel", [
    pytest.param("taylor:1,2,0,1", lambda: [(1, 2.0), (3, 1.0)], 5e-14,  # measured 9.7e-15
                 id="taylor:1,2,0,1"),
    pytest.param("kernel:c=0.5+0i,s=auto", lambda: _kernel_terms(0.5, 0.15), 5e-14,  # 6.0e-15
                 id="kernel:c=0.5"),
    pytest.param("kernel:c=0.9+0i,s=auto", lambda: _kernel_terms(0.9, 0.15), 5e-8,  # -2.23e-8
                 id="kernel:c=0.9"),
    pytest.param("kernel:c=0.99+0i,s=auto", lambda: _kernel_terms(0.99, 0.15), 1e-12,  # +2.02e-4
                 id="kernel:c=0.99", marks=_open_item_1(
                     "the t-panels sweep wider than the kernel's width 1 - |c|")),
    pytest.param("gap:q=0.5,K=20", lambda: [(2 ** k, 2.0 ** (-0.25 * k)) for k in range(1, 21)],
                 1e-9, id="gap:q=0.5,K=20", marks=_open_item_1(  # +2.24e-2
                     "8 Gauss nodes per t-panel cannot resolve z^(2^k)")),
])
def test_boundary_double_full_circle_matches_douglas_formula(spec, terms, rel):
    # s=auto is p (1 - lam) / 2 = 0.15; gap:q=0.5 has a_k = 2^(-k/4) on z^(2^k)
    params = SpaceParams(0.5, 0.4)
    f = parse_function_spec(spec, params)
    want = _douglas_full_circle(terms(), params.p)
    # the full circle has |I| = 1, so level 0 of the trace is its plain integral
    got = dict(boundary_double_seminorm(f, params, ParamGrid(k_arc=0, n_centers=1)).levels)[0]
    assert got == pytest.approx(want, rel=rel)


def _boundary_integrand(f, p):
    return lambda u, v: np.abs(f.boundary(u) - f.boundary(v)) ** 2 / chord_gap(u, v) ** (2.0 - p)


@pytest.mark.parametrize("c,least_fall", [(0.5, 2.0), (0.9, 2.0), (0.99, 1.8)])
def test_boundary_grading_floor_at_the_kernel_width(c, least_fall):
    # grading the v-nodes no finer than a quarter of the kernel's width 1 - |c|
    # moves no arc's value beyond rounding, and cuts the scan's nodes (measured
    # falls: 2.63x, 2.30x and 1.86x; the 0.99 kernel's narrow width keeps more)
    params = SpaceParams(0.5, 0.4)
    f = parse_function_spec(f"kernel:c={c}+0i,s=auto", params)
    assert f.singular_width == pytest.approx(1.0 - c, rel=1e-12)
    F = _boundary_integrand(f, params.p)
    nodes = {True: 0, False: 0}
    for _, arc in ParamGrid(k_arc=3, n_centers=8).arcs():
        res = {}
        for floored, g in ((True, f), (False, dataclasses.replace(f, singular_width=0.0))):
            res[floored] = arc_double_integral(
                F, arc, beta=1.0 - params.p, t_depth=36, v_foci=g.singular_angles,
                focus_width=g.singular_width)
            nodes[floored] += res[floored].nodes_used
        assert res[True].value == pytest.approx(res[False].value, rel=1e-12), arc
    assert nodes[False] >= least_fall * nodes[True]


@pytest.mark.parametrize("spec", ["taylor:1,2,0,1", "gap:q=0.5,K=20"])
def test_boundary_scan_without_width_keeps_the_t_grading(spec):
    # a function of unknown width (0.0) scans on exactly the grading it had
    # before widths existed: the default of arc_double_integral
    params = SpaceParams(0.5, 0.4)
    f = parse_function_spec(spec, params)
    assert f.singular_width == 0.0
    grid = ParamGrid(k_arc=3, n_centers=8)
    F = _boundary_integrand(f, params.p)
    per_level = {}
    for j, arc in grid.arcs():
        v = arc_double_integral(F, arc, beta=1.0 - params.p, t_depth=36,
                                v_foci=f.singular_angles).value
        per_level[j] = max(per_level.get(j, 0.0), v * arc.length ** -params.box_exponent)
    running = list(np.maximum.accumulate([per_level[j] for j in sorted(per_level)]))
    assert [v for _, v in boundary_double_seminorm(f, params, grid).levels] == running


# -- growth envelope / hinf -------------------------------------------------------


def test_growth_envelope_constant():
    assert growth_envelope(make_taylor([2 - 1j]), SpaceParams(0.5, 0.4)).value == pytest.approx(
        math.sqrt(5), rel=1e-12
    )


def test_growth_envelope_fpl_plateau():
    params = SpaceParams(0.5, 0.4)
    f = make_power_kernel(BoundaryPoint(0.0), params.translate_exponent)
    # on the ray toward the singularity, |f|(1-r)^s = 1 exactly
    env = growth_envelope(f, params)
    assert env.value == pytest.approx(1.0, rel=1e-9)
    # the maximum sits on the singular ray, angle 0
    assert env.maximizer.imag == 0.0 and 0.0 <= env.maximizer.real < 1.0
    vals = [v for _, v in env.levels]
    assert all(vals[i] <= vals[i + 1] for i in range(len(vals) - 1))


def test_growth_envelope_identity_decreasing():
    f = make_taylor([0, 1])
    env = growth_envelope(f, SpaceParams(0.5, 0.4))
    assert env.value <= 1.0


def test_hinf_scan():
    rep = hinf_sup(make_taylor([1.5]))
    assert rep.value == pytest.approx(1.5, rel=1e-12)
    rep2 = hinf_sup(make_taylor([0, 1]))
    assert rep2.value == pytest.approx(1.0, rel=1e-3)
    assert "bounded-trend" in rep2.flags
    rep3 = hinf_sup(log_kernel())
    assert rep3.value == pytest.approx(10 * math.log(2), rel=1e-2)
    assert "unbounded-trend" in rep3.flags
    # the running max is nondecreasing (maximum principle)
    vals = [v for _, v in rep3.levels]
    assert all(vals[i] <= vals[i + 1] + 1e-15 for i in range(len(vals) - 1))


def test_ray_scans_reject_negative_depth():
    # a scan of no radius at all must not report a bounded supremum of 0
    f = make_taylor([0, 1])
    with pytest.raises(ValueError, match="k_levels"):
        hinf_sup(f, k_levels=-1)
    with pytest.raises(ValueError, match="k_levels"):
        growth_envelope(f, SpaceParams(0.5, 0.4), k_levels=-2)
    assert hinf_sup(f, k_levels=0).levels == ((0, 0.0),)


@pytest.mark.parametrize("field,value", [("depth", 1), ("depth", 0), ("base_panels", 0)])
def test_param_grid_rejects_sizes_the_scans_would_change(field, value):
    # a translate scan would run at depth 2 or on one background panel and
    # report the size it was given
    with pytest.raises(ValueError, match=field):
        ParamGrid(**{field: value})
    ParamGrid(depth=2, base_panels=1)


def test_box_scans_reject_radial_order_below_1():
    f = make_taylor([0, 1])
    with pytest.raises(ValueError, match="radial order"):
        dm_seminorm_box(f, SpaceParams(0.5, 0.4), ParamGrid(k_arc=1, n_centers=2), radial_order=0)
    with pytest.raises(ValueError, match="radial order"):
        list(radial_panels(0.5, 4, -1))


# -- gpcm --------------------------------------------------------------------------


def test_gpcm_degenerate_constant():
    rep = gpcm_quantity(make_taylor([5]), 0.5, k_w=2)
    assert rep.value == 0.0
    assert "degenerate" in rep.flags


def test_gpcm_identity_at_origin_oracle():
    # g(z) = z, p = 0.5: mu = (1-|z|^2)^0.5 dm; at w = 0 the quantity is
    # mu(D)^-1 * integral of mu(S(z))^2 (1-|z|^2)^-2.5 dm.  Brute-force oracle:
    # mu(S(z)) = (1-|z|) * (1-|z|^2)^1.5 / 1.5 by the radial closed form.
    p = 0.5
    g = make_taylor([0, 1])
    rep = gpcm_quantity(g, p, k_w=0)
    n = 2001
    rr = np.linspace(1e-9, 1 - 1e-9, n)
    mu_sz = (1 - rr) * (1 - rr ** 2) ** 1.5 / 1.5
    integrand = mu_sz ** 2 / (1 - rr ** 2) ** 2.5 * 2 * rr
    inner = float(np.trapezoid(integrand, rr))
    oracle = inner / (2 / 3)
    assert rep.value == pytest.approx(oracle, rel=2e-2)


def test_gpcm_gap_symbol_bounded_scan():
    g = gap(0.2)
    rep = gpcm_quantity(g, 0.5, k_w=5)
    assert rep.value > 0
    assert "unbounded-trend" not in rep.flags


def test_gpcm_kernel_at_angle_0_equals_its_rotation_by_pi():
    # S(w) is laid out on its own window about arg w, so the box at angle 0,
    # which straddles the seam of [0, 2 pi), is integrated as its rotations are
    params = SpaceParams(0.5, 0.4)
    at_0, at_pi = (gpcm_quantity(parse_function_spec(s, params), params.p, k_w=4, w_angle_cap=4)
                   for s in ("kernel:c=1+0i,s=auto", "kernel:c=-1+0i,s=auto"))
    assert at_0.value == pytest.approx(at_pi.value, rel=1e-12)
    assert at_0.maximizer == pytest.approx(-at_pi.maximizer, abs=1e-15)


def test_gpcm_node_boxes_match_region_geometry():
    # every node of every S(w) at k_w=3, w_angle_cap=8 (the full box at w = 0,
    # boxes across angle 0, windows graded toward the kernel's focus at 0):
    # the interval gpcm queries has the width of S(z) cap S(w), counted on a
    # fine grid of S(z)'s angles, and under a density constant in angle it
    # holds that width's share of the ring's mass
    f = parse_function_spec("kernel:c=0.9+0i,s=auto", SpaceParams(0.5, 0.4))
    table = BoxMassTable(lambda z: (1 - np.abs(z) ** 2) ** 0.5, depth=GPCM_TABLE_DEPTH)
    n_fine = 512
    fine = (np.arange(n_fine) + 0.5) / n_fine - 0.5
    straddles = 0
    for _, w in ParamGrid(k_a=3, a_angle_cap=8).a_points():
        w = complex(w)
        c, h = math.atan2(w.imag, w.real), math.pi * (1 - abs(w))
        straddles += w != 0 and (c - h < 0 < c + h or c - h < -math.pi)
        r, th, _, lo, hi = _gpcm_nodes(w, f.singular_angles, GPCM_TABLE_DEPTH)
        # S(z) is the arc arg z +- pi (1 - r); count its fine angles inside S(w)
        step = TWO_PI * (1 - r)
        phi = (c + th)[:, None] + step[:, None] * fine[None, :]
        inside = np.abs((phi - c + math.pi) % TWO_PI - math.pi) < h if w != 0 else True
        width = step * np.sum(np.broadcast_to(inside, phi.shape), axis=1) / n_fine
        assert np.all(np.abs((hi - lo) - width) <= step / n_fine + 1e-12)
        ring = table.box_masses(r, np.zeros_like(r), np.full_like(r, TWO_PI))
        got = table.box_masses(r, lo, hi)
        assert np.all(np.abs(got - ring * width / TWO_PI) <= ring * (step / n_fine + 1e-12) / TWO_PI)
    assert straddles > 0


@pytest.mark.parametrize("p1,p2,bad", [(0.3, float("nan"), "p2"), (-2.0, 0.6, "p1"),
                                       (float("inf"), 0.6, "p1"), (0.3, -1.0, "p2")])
def test_box_pair_rejects_bad_exponents(p1, p2, bad):
    # (1 - |z|^2)^p is integrable exactly for p > -1; a NaN exponent gave
    # NaN rows and p1 = -2 read 32767.25 on the full circle
    value = p1 if bad == "p1" else p2
    with pytest.raises(ValueError, match=rf"^{bad} must .* got {value!r}"):
        box_quantity_pair(make_taylor([0, 1]), p1, p2, ParamGrid(k_arc=2, n_centers=2))


@pytest.mark.parametrize("p", [float("nan"), -1.5, -1.0, float("-inf")])
def test_gpcm_rejects_bad_exponents(p):
    # a NaN exponent failed inside BoxMassTable, and p = -1.5 returned 16.8
    with pytest.raises(ValueError, match=rf"^p must .* got {p!r}"):
        gpcm_quantity(make_taylor([0, 1]), p, k_w=2, w_angle_cap=2)


@pytest.mark.parametrize("kw,message", [({"k_w": -1}, "k_w must be at least 0, got -1"),
                                        ({"w_angle_cap": 0}, "w_angle_cap must be at least 1, got 0")])
def test_gpcm_rejects_an_empty_w_grid_by_argument_name(kw, message):
    # these failed inside ParamGrid, naming its fields k_a and a_angle_cap
    with pytest.raises(ValueError, match=rf"^{message}$"):
        gpcm_quantity(make_taylor([0, 1]), 0.5, **kw)


@pytest.mark.parametrize("spec,k_w,skipped", [("taylor:0,1", 13, 2), ("gap:q=0.5,K=20", 12, 1)])
def test_gpcm_skips_w_beyond_the_mass_table(spec, k_w, skipped):
    # mu(S(w)) is exactly 0 once |w| >= 1 - 2^-table_depth, where no radial
    # panel of S(w) lies inside the table; such w are skipped, not integrated
    params = SpaceParams(0.5, 0.4)
    rep = gpcm_quantity(parse_function_spec(spec, params), params.p, k_w=k_w, w_angle_cap=1)
    assert rep.grid["table_depth"] == GPCM_TABLE_DEPTH
    assert rep.grid["skipped"] == skipped
    assert rep.value > 0.0 and rep.maximizer is not None


# -- trend helpers -------------------------------------------------------------------


def test_trend_slope_and_classification():
    ks = list(range(10))
    flat = [5.0] * 10
    assert classify_trend(trend_slope(ks, flat)) == "bounded-trend"
    growing = [2.0 ** k for k in ks]
    assert classify_trend(trend_slope(ks, growing)) == "unbounded-trend"
    assert trend_slope(ks, growing) == pytest.approx(math.log(2), rel=1e-9)


def test_report_serialization():
    f = make_taylor([0, 1])
    rep = dm_norm_translate(f, SpaceParams(0.5, 0.4), ParamGrid(k_a=3))
    d = rep.as_dict()
    assert set(d) == {
        "quantity", "value", "maximizer", "grid", "refinement_delta",
        "error", "flags", "levels",
    }
    assert isinstance(d["maximizer"], dict)


def _box_report_per_arc(weighted):
    """The per-arc loop that _box_scan_report replaced: (value, arc, trace)."""
    best_val, best_arc = 0.0, None
    for _, arc, wgt, row in weighted:
        tot = wgt * float(np.sum(row))
        if tot > best_val:
            best_val, best_arc = tot, arc
    trace = []
    for L in range(TRACE_LEVEL_CAP + 1):
        v = 0.0
        for _, _, wgt, row in weighted:
            v = max(v, wgt * float(np.sum(row[: L + 1])))
        trace.append((L, v))
    trace.append((TRACE_LEVEL_CAP + 1, best_val))
    trace = [(l, v) for l, v in trace if v > 0.0] or [(0, 0.0)]
    return best_val, best_arc, tuple(trace)


def test_box_scan_report_equals_per_arc_loop():
    rng = np.random.default_rng(77)
    grid = ParamGrid(k_arc=5, n_centers=8)
    for trial in range(20):
        weighted = []
        for j, arc in grid.arcs():
            # arcs of level j carry no mass above level j; every row keeps at
            # least 8 nonzero levels, so the prefix sums are pairwise sums
            row = np.zeros(TRACE_LEVEL_CAP + 2)
            row[j:] = rng.lognormal(0.0, 2.0, row.size - j)
            weighted.append((j, arc, float(rng.uniform(0.5, 2.0)), row))
        # a tie after the maximum: the first maximum wins
        j, arc, wgt, row = max(weighted, key=lambda e: e[2] * float(np.sum(e[3])))
        weighted.append((j, Arc(arc.center + 0.1, arc.length), wgt, row.copy()))
        rep = _box_scan_report("dm-box", weighted, grid)
        value, best_arc, trace = _box_report_per_arc(weighted)
        assert rep.value == value
        assert rep.maximizer is best_arc
        assert rep.levels == trace
    zero = [(j, arc, 1.0, np.zeros(TRACE_LEVEL_CAP + 2)) for j, arc in grid.arcs()]
    rep = _box_scan_report("dm-box", zero, grid)
    assert rep.maximizer is None
    assert (rep.value, rep.levels) == (0.0, ((0, 0.0),))


def test_monotone_arc_suprema():
    # enlarging the arc grid never decreases the reported supremum
    f = make_power_kernel(0.9, 0.5)
    params = SpaceParams(0.5, 0.4)
    vals = []
    for k_arc in (2, 4, 6):
        rep = dm_seminorm_box(f, params, ParamGrid(k_arc=k_arc, n_centers=8))
        vals.append(rep.value)
    assert vals[0] <= vals[1] * (1 + 1e-12) and vals[1] <= vals[2] * (1 + 1e-12)


def test_lambda_one_is_qp_scan():
    f = make_taylor([0, 1])
    grid = ParamGrid(k_arc=4, n_centers=8)
    a = dm_seminorm_box(f, SpaceParams(0.5, 1.0), grid)
    b = qp_quantity(f, 0.5, grid)
    assert a.value == b.value


def test_param_grid_deterministic_and_anchored():
    g = ParamGrid(k_a=4, a_angle_cap=8, k_arc=3, n_centers=4)
    assert g.a_points() == g.a_points()
    assert g.arcs() == g.arcs()
    # level 0 is the single point a = 0; every level's directions include 0
    pts = g.a_points()
    assert pts[0] == (0, 0)
    for k in range(1, 5):
        angles = [np.angle(a) % (2 * math.pi) for lvl, a in pts if lvl == k]
        assert min(angles) < 1e-12


def test_translate_route_degrades_gracefully_on_capped_radius():
    from dirimor.analytic import make_gap_series

    f = make_gap_series(lambda k: 2.0 ** (-k * 0.35), 20)
    # moderate a: the translate's certified radius shrinks but stays usable,
    # and the quadrature depth adapts to it
    assert translate_seminorm(f, 0.5, 0.9, route="translate") > 0
    # a close to the cap: the translate's radius collapses below usability;
    # the route refuses instead of silently truncating
    with pytest.raises(UnsupportedFunctionError):
        translate_seminorm(f, 0.5, 0.9995, route="translate")
    # beyond the certified radius even f(a) is refused
    from dirimor.analytic import EvaluationDomainError

    with pytest.raises(EvaluationDomainError):
        translate_seminorm(f, 0.5, 0.9999, route="translate")
    # the change-of-variables route handles both points fine
    assert translate_seminorm(f, 0.5, 0.9995, route="weight") > 0


def test_translate_seminorm_closed_form_identity_function():
    # f(z) = z, p = 1: the translate seminorm squared has the closed form
    #   (1-t) (t + (1-t) log(1-t)) / t^2,   t = |a|^2,
    # from expanding (1-|a|^2)(1-|w|^2)/|1-conj(a) w|^2 in a geometric series
    # and integrating monomials: sum t^n / ((n+1)(n+2)).
    f = make_taylor([0, 1])
    for a_abs in (0.3, 0.7, 0.9):
        t = a_abs ** 2
        want = math.sqrt((1 - t) * (t + (1 - t) * math.log(1 - t)) / t ** 2)
        got = translate_seminorm(f, 1.0, a_abs, depth=32, panel_order=8, base_panels=24)
        assert got == pytest.approx(want, rel=1e-6)


def test_box_integral_closed_form_general_p():
    # f(z) = z over S(I): |I| * (1 - (1-|I|)^2)^(p+1) / (p+1), up to the
    # sliver within |I| 2^-BOX_REL_DEPTH of the circle
    f = make_taylor([0, 1])
    for p in (0.25, 0.5, 0.75):
        for arc, got, _ in box_quantity_pair(f, p, p, ParamGrid(k_arc=3, n_centers=3)):
            sliver = 1 - (1 - arc.length * 2.0 ** -BOX_REL_DEPTH) ** 2
            want = arc.length * ((1 - (1 - arc.length) ** 2) ** (p + 1) - sliver ** (p + 1)) / (p + 1)
            assert got == pytest.approx(want, rel=1e-10)


def test_qp_log_full_circle_contributes_zero():
    # the |I| = 1 arc enters the logarithmic scan with factor 0
    f = make_taylor([0, 1])
    rep = qp_log_quantity(f, 0.5, ParamGrid(k_arc=0, n_centers=1))
    assert rep.value == 0.0


def test_batched_translate_scan_equals_one_scan_per_function():
    # functions sharing a grid share one build, and an oscillatory function
    # keeps its uniform grid; every report must equal its one-function scan
    params = SpaceParams(0.5, 0.4)
    specs = ["taylor:1", "taylor:0,1", "taylor:1,2,0,1", "kernel:c=0.9+0i,s=auto",
             "kernel:c=0+0.9i,s=auto", "log1", "gap:q=0.2,K=20", "gap:q=0.5,K=20",
             "taylor:0,1"]
    fs = [parse_function_spec(spec, params) for spec in specs]
    # operator images share their grid per direction and their symbol
    # factor: I_g and J_g of ray kernels by log1 and by a polynomial, of the
    # family's constant entry, by a gap symbol (uniform grid, shared w0),
    # and a scaled image, which carries no symbol factor
    s = params.translate_exponent
    ray = [make_power_kernel(1.0 - 2.0 ** -k, s) for k in (1, 2, 3)]
    one = make_power_kernel(0.0, 0.0)
    images = [apply_operator(kind, f, g)
              for g in (log_kernel(), make_taylor([0.5, 0.5]))
              for kind in (IG, JG) for f in [one] + ray]
    images += [apply_operator(kind, f, gap(0.3)) for kind in (IG, JG) for f in (one, ray[1])]
    images.append(images[1].scaled(0.5 + 2j))
    fs += images
    grid = ParamGrid(k_a=4, a_angle_cap=8, depth=12, base_panels=8)
    # the I_g images by log1 share the direction-0 grid, a group larger than
    # one member block
    assert len({grid_for_function(f, grid.depth, extra_foci=(0.0,),
                                  panel_order=norms.TRANSLATE_PANEL_ORDER,
                                  base_panels=grid.base_panels) for f in images[:4]}) == 1
    assert norms.MEMBER_BLOCK < 4
    batched = [r.as_dict() for r in dm_norms_translate(fs, params, grid)]
    single = [dm_norm_translate(f, params, grid).as_dict() for f in fs]
    assert batched == single
    assert batched[1] == batched[8]


def test_refined_scan_traces_the_base_scan_bitwise():
    # a refinement adds one radius to the a-grid: per-direction graded grids
    # do not depend on k_a, and the uniform grid's angle cap min(k_a + 1, 11)
    # is 11 at k_a = 10 and 11, so the refined trace at the base k_a is the
    # base value; likewise a deeper growth envelope traces the shallower one
    params = SpaceParams(0.5, 0.4)
    specs = ["taylor:1,2,0,1", "kernel:c=0.9+0i,s=auto", "gap:q=0.5,K=20"]
    fs = [parse_function_spec(spec, params) for spec in specs]
    grid = ParamGrid(k_a=10, a_angle_cap=8, depth=12)
    base = dm_norms_translate(fs, params, grid)
    refined = dm_norms_translate(fs, params, grid.refined())
    assert [dict(r.levels)[10] for r in refined] == [b.value for b in base]
    for f in fs[1:]:
        deep = growth_envelope(f, params, k_levels=14)
        shallow = growth_envelope(f, params, k_levels=12)
        assert dict(deep.levels)[12] == shallow.value
    # V5's boundary scan: a refinement adds one arc level, and each arc is
    # integrated on its own, so the refined trace at k_arc is the base value
    arcs = ParamGrid(k_arc=2, n_centers=4)
    for f in fs:
        base = boundary_double_seminorm(f, params, arcs, t_depth=12)
        refined = boundary_double_seminorm(f, params, arcs.refined(), t_depth=12)
        assert dict(refined.levels)[2] == base.value


UPTO_SPECS = ["taylor:0,1", "taylor:1,2,0,1", "kernel:c=0.9+0i,s=auto",
              "kernel:c=1+0i,s=auto", "log1"]


def _upto_scans(quantity, fs, params, depth):
    """The reports of ``quantity`` for fs on grids ``depth`` levels deep."""
    if quantity == "dm-translate":
        grid = ParamGrid(k_a=depth, a_angle_cap=32, depth=10, base_panels=8)
        return dm_norms_translate(fs, params, grid)
    arcs = ParamGrid(k_arc=depth, n_centers=4)
    if quantity == "dm-box":
        return [dm_seminorm_box(f, params, arcs, radial_order=4) for f in fs]
    if quantity == "qp":
        return [qp_quantity(f, 0.3, arcs, radial_order=4) for f in fs]
    if quantity == "boundary-double":
        return [boundary_double_seminorm(f, params, arcs, t_depth=12) for f in fs]
    return [growth_envelope(f, params, k_levels=2 * depth) for f in fs]


@pytest.mark.parametrize("quantity", ["dm-translate", "dm-box", "qp", "boundary-double",
                                      "growth"])
def test_upto_equals_a_scan_on_the_cut_grid(quantity):
    # each entry of these scans is computed on its own, whatever the grid's
    # depth, so the report read up to a level is the cut grid's report bit
    # for bit; a_angle_cap 32 adds directions at a-level 2
    params = SpaceParams(0.5, 0.4)
    specs = UPTO_SPECS + (["gap:q=0.5,K=20"] if quantity != "dm-translate" else [])
    fs = [parse_function_spec(spec, params) for spec in specs]
    if quantity == "boundary-double":
        fs = [f for f in fs if f.has_boundary_values]
    deep = _upto_scans(quantity, fs, params, 3)
    for level in (0, 1, 2):
        cut = _upto_scans(quantity, fs, params, level)
        for d, c in zip(deep, cut):
            view = d.upto(2 * level if quantity == "growth" else level)
            assert view == c and view.as_dict() == c.as_dict()
    assert [d.upto(99) for d in deep] == deep
    with pytest.raises(ValueError, match="level"):
        deep[0].upto(-1)


def test_upto_needs_the_scan_entries():
    with pytest.raises(ValueError, match="keeps no scan entries"):
        NormReport("q", 0.0, None, {}, 0.0).upto(1)


# -- one reducer for every point and arc supremum ------------------------------

REDUCED_SPECS = ["kernel:c=0.9+0i,s=auto", "taylor:1,2,0,1", "taylor:1", "taylor:0"]
SMALL_A = ParamGrid(k_a=3, a_angle_cap=8, depth=12, base_panels=8)
SMALL_ARCS = ParamGrid(k_arc=2, n_centers=4)


def _ray_points(angles_of, k_max):
    pts = [0j]
    for k in range(1, k_max + 1):
        pts += list((1.0 - 2.0 ** -k) * np.exp(1j * angles_of(k)))
    return pts


def _reduced_scan(quantity, f, params):
    """(report, |f(0)| offset of its value, the points it scanned)."""
    f0 = abs(f.at_zero())
    a_points = [a for _, a in SMALL_A.a_points()]
    if quantity == "translate":
        return dm_norm_translate(f, params, SMALL_A), f0, a_points
    if quantity == "morrey":
        return general_morrey_norm(f, params.p, 0.3, SMALL_A), f0, a_points
    if quantity == "boundary":
        rep = boundary_double_seminorm(f, params, SMALL_ARCS)
        return rep, 0.0, [arc for _, arc in SMALL_ARCS.arcs()]
    if quantity == "growth":
        rep = growth_envelope(f, params, k_levels=6)
        dirs = np.array(sorted(set(f.singular_angles) | {2 * math.pi * m / 16 for m in range(16)}))
        return rep, 0.0, _ray_points(lambda k: dirs, rep.grid["k_levels"])
    if quantity == "hinf":
        rep = hinf_sup(f, k_levels=4)
        n_at = lambda k: min(max(64, 8 * 2 ** k), rep.grid["n_max"])
        angles_of = lambda k: 2 * math.pi * np.arange(n_at(k)) / n_at(k)
        return rep, 0.0, _ray_points(angles_of, rep.grid["k_levels"])
    rep = gpcm_quantity(f, params.p, k_w=2, w_angle_cap=4)
    return rep, 0.0, [complex(w) for _, w in ParamGrid(k_a=2, a_angle_cap=4).a_points()]


@pytest.mark.parametrize("spec", REDUCED_SPECS)
@pytest.mark.parametrize("quantity", ["translate", "morrey", "boundary", "growth", "hinf", "gpcm"])
def test_scan_reports_share_one_reduction(quantity, spec):
    # the value is the last running maximum of the trace, and the maximizer
    # is a scanned point exactly when some scanned value is positive; the
    # constant 1 has positive values only in the sup-type scans, and 0 nowhere
    params = SpaceParams(0.5, 0.4)
    rep, f0, points = _reduced_scan(quantity, parse_function_spec(spec, params), params)
    # every scan traces at least one level, also a gpcm scan that skips
    # every point (g constant)
    assert rep.levels
    vals = [v for _, v in rep.levels]
    assert rep.value == vals[-1]
    assert all(a <= b for a, b in zip(vals, vals[1:]))
    none_positive = spec == "taylor:0" or (spec == "taylor:1" and quantity not in ("growth", "hinf"))
    assert (rep.maximizer is None) == none_positive
    if none_positive:
        assert rep.value == f0
    else:
        assert rep.value > f0
        assert rep.maximizer in points
    assert ("degenerate" in rep.flags) == (quantity == "gpcm" and none_positive)
