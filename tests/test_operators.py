"""Operator identities: closed-form examples, the integration-by-parts
residual, linearity, derivative contracts, and scan classifications."""

import math

import numpy as np
import pytest

from dirimor.analytic import SpaceParams, log_kernel, make_power_kernel, make_taylor
from dirimor.norms import TRANSLATE_PANEL_ORDER, ParamGrid, dm_norms_translate, grid_for_function
from dirimor.operators import (
    IG,
    JG,
    MG,
    apply_Ig,
    apply_Jg,
    apply_Mg,
    apply_operator,
    ibp_residual,
    interior_samples,
    make_test_family,
    path_integral,
    ratio_scan,
)

Z = interior_samples(40, seed=7)


def test_unknown_operator_kind_named():
    with pytest.raises(ValueError, match="'Xg'"):
        ratio_scan("Xg", make_taylor([1]), make_test_family(PARAMS, k_c=0))
    with pytest.raises(ValueError, match="'Xg'"):
        apply_operator("Xg", make_taylor([1]), make_taylor([1]))


def test_jg_of_constant_recovers_symbol():
    g = make_taylor([2, 1, 3])
    h = apply_Jg(make_taylor([1]), g)
    assert np.max(np.abs(h(Z) - (g(Z) - g.at_zero()))) < 1e-12
    assert abs(h.at_zero()) < 1e-15


def test_jg_identity_pair():
    h = apply_Jg(make_taylor([0, 1]), make_taylor([0, 1]))
    assert np.max(np.abs(h(Z) - Z ** 2 / 2)) < 1e-13
    h2 = apply_Jg(make_taylor([1]), make_taylor([0, 1]))
    assert np.max(np.abs(h2(Z) - Z)) < 1e-13


def test_ig_trivial_cases():
    assert np.max(np.abs(apply_Ig(make_taylor([5]), log_kernel())(Z))) < 1e-14
    f = make_taylor([2, 1, 1])
    h = apply_Ig(f, make_taylor([1]))
    assert np.max(np.abs(h(Z) - (f(Z) - f.at_zero()))) < 1e-12
    h2 = apply_Ig(make_taylor([0, 1]), make_taylor([0, 1]))
    assert np.max(np.abs(h2(Z) - Z ** 2 / 2)) < 1e-13


def test_mg_product():
    f = make_taylor([1, 1])
    g = make_taylor([0, 1])
    h = apply_Mg(f, g)
    assert complex(h(0.5)) == pytest.approx(0.75)
    assert np.max(np.abs(apply_Mg(make_taylor([0]), g)(Z))) == 0.0
    assert np.max(np.abs(apply_Mg(f, make_taylor([1]))(Z) - f(Z))) < 1e-14


def test_operator_derivative_contracts():
    f = make_power_kernel(0.9, 0.35)
    g = log_kernel()
    jg, ig = apply_Jg(f, g), apply_Ig(f, g)
    assert np.max(np.abs(jg.derivative(Z) - f(Z) * g.derivative(Z))) < 1e-13
    assert np.max(np.abs(ig.derivative(Z) - f.derivative(Z) * g(Z))) < 1e-13
    # values must differentiate back to the closed form (validates the path rule)
    h = 1e-6 * (1 - np.abs(Z))
    fd = (jg(Z + h) - jg(Z - h)) / (2 * h)
    rel = np.abs(fd - jg.derivative(Z)) / np.maximum(np.abs(jg.derivative(Z)), 1e-30)
    assert np.max(rel) < 1e-5


def test_path_integral_polynomial_exact():
    # integral of w^3 over [0, z] = z^4/4; Gauss panels are exact
    vals = path_integral(lambda w: w ** 3, Z)
    assert np.max(np.abs(vals - Z ** 4 / 4)) < 1e-14


def test_ibp_hand_example():
    f = make_taylor([1, 1])
    g = make_taylor([0, 1])
    z = 0.5 + 0j
    jg = complex(apply_Jg(f, g)(z))
    ig = complex(apply_Ig(f, g)(z))
    mg = complex(apply_Mg(f, g)(z))
    assert jg == pytest.approx(0.625, rel=1e-12)
    assert ig == pytest.approx(0.125, rel=1e-12)
    assert mg - f.at_zero() * g.at_zero() - ig == pytest.approx(0.625, rel=1e-12)
    assert ibp_residual(f, g, Z) < 1e-12


def test_ibp_residual_polynomials():
    f = make_taylor([1, -2, 0.5, 1j])
    g = make_taylor([0.3, 1, 2])
    assert ibp_residual(f, g, interior_samples(100, seed=11)) < 1e-8


def test_ibp_residual_singular_pair():
    f = make_power_kernel(0.9, 0.15)
    g = log_kernel()
    assert ibp_residual(f, g, interior_samples(100, seed=13)) < 1e-6


def test_linearity_of_operators():
    f1 = make_taylor([0, 1, 1])
    f2 = make_power_kernel(0.8, 0.4)
    g = make_taylor([0.5, 0.5])
    alpha = 1.5 - 0.5j
    combo = f1.scaled(alpha) + f2
    for apply_ in (apply_Jg, apply_Ig, apply_Mg):
        lhs = apply_(combo, g)(Z)
        rhs = alpha * apply_(f1, g)(Z) + apply_(f2, g)(Z)
        scale = np.maximum(np.abs(rhs), 1e-12)
        assert np.max(np.abs(lhs - rhs) / scale) < 1e-10


# -- test family / ratio scans -------------------------------------------------


PARAMS = SpaceParams(0.5, 0.4)
SMALL_GRID = ParamGrid(k_a=6, a_angle_cap=8, depth=16, base_panels=10)


def small_family(k_c=6, n_directions=4):
    return make_test_family(PARAMS, k_c=k_c, n_directions=n_directions, norm_grid=SMALL_GRID)


def test_family_constant_entry_and_uniformity():
    fam = small_family()
    assert fam.entries[0].c == 0
    assert fam.entries[0].norm == 1.0
    assert fam.norm_max / fam.norm_min <= 10.0


def test_family_norms_rotation_invariant():
    fam = small_family(k_c=3, n_directions=4)
    by_level: dict = {}
    for e in fam.entries[1:]:
        by_level.setdefault(e.level, []).append(e.norm)
    for level, norms in by_level.items():
        assert max(norms) / min(norms) < 1 + 1e-6


def test_ratio_scan_constant_symbol_jg():
    fam = small_family(k_c=4, n_directions=4)
    rep = ratio_scan(JG, make_taylor([3]), fam)
    assert rep.max_ratio == 0.0
    assert rep.classification == "bounded-trend"


def test_ratio_scan_bounded_vs_unbounded_ig():
    # the 0.1 threshold separates the dichotomy at the pinned c-depth 10:
    # the bounded symbol's ratios saturate while log1's grow like the level
    grid = ParamGrid(k_a=10, a_angle_cap=8, depth=20, base_panels=10)
    fam = make_test_family(PARAMS, k_c=10, n_directions=2, norm_grid=grid)
    bounded = ratio_scan(IG, make_taylor([0.5, 0.5]), fam)
    assert bounded.classification == "bounded-trend"
    unbounded = ratio_scan(IG, log_kernel(), fam)
    assert unbounded.classification == "unbounded-trend"
    assert unbounded.slope > 0.1
    assert unbounded.max_ratio > bounded.max_ratio


def test_ratio_scan_report_serializes():
    fam = small_family(k_c=3, n_directions=2)
    rep = ratio_scan(MG, make_taylor([1, 0.25]), fam)
    d = rep.as_dict()
    assert d["kind"] == "Mg"
    assert d["grid"] == {"k_c": 3, "n_directions": 2, "k_a": 6, "a_angle_cap": 8,
                         "depth": 16, "base_panels": 10}
    assert len(d["rows"]) == len(fam.entries)
    assert d["classification"] in ("bounded-trend", "unbounded-trend")


def test_multiplier_bounded_trend_implies_symbol_conditions():
    # measured form of the multiplier necessity: when the Mg scan is
    # bounded-trend, the symbol's sup-norm scan and its Mobius-invariant box
    # scan are bounded-trend too
    from dirimor.norms import hinf_sup, qp_quantity

    g = make_taylor([0.5, 0.5])
    fam = small_family(k_c=6, n_directions=2)
    rep = ratio_scan(MG, g, fam)
    assert rep.classification == "bounded-trend"
    assert "bounded-trend" in hinf_sup(g).flags
    assert "bounded-trend" in qp_quantity(g, PARAMS.p, ParamGrid(k_arc=6, n_centers=8)).flags


def test_family_builds_one_grid_per_distinct_key(monkeypatch):
    # count node-array builds by wrapping the cached property
    from functools import cached_property

    from dirimor.quadrature import RadialAnnuliGrid

    built = []
    nodes_fn = RadialAnnuliGrid.__dict__["_nodes"].func

    def counted(grid):
        built.append(grid)
        return nodes_fn(grid)

    prop = cached_property(counted)
    prop.__set_name__(RadialAnnuliGrid, "_nodes")
    monkeypatch.setattr(RadialAnnuliGrid, "_nodes", prop)
    fam = small_family(k_c=3, n_directions=2)

    kernels = [e.function for e in fam.entries[1:]]
    keys = set()
    for key, pts in SMALL_GRID.a_points_by_direction():
        foci = () if key is None else (float(np.angle(pts[0][1])) % (2 * math.pi),)
        keys |= {(key, grid_for_function(f, SMALL_GRID.depth, extra_foci=foci,
                                         panel_order=TRANSLATE_PANEL_ORDER,
                                         base_panels=SMALL_GRID.base_panels))
                 for f in kernels}
    assert not any(f.oscillatory for f in kernels)
    assert len(built) == len(keys)
    assert len(keys) < len(kernels) * len(SMALL_GRID.a_points_by_direction())


def test_ratio_scan_shares_symbol_factor_and_mobius_weights(monkeypatch):
    # the I_g images of one family share each direction's disc grid: log1's
    # |g|^2 is evaluated once per grid built (not once per image), each ray
    # frame once per (direction, grid) and block of MEMBER_BLOCK images, and
    # each Mobius weight once per (point, grid) and block
    import dataclasses
    from collections import Counter
    from functools import cached_property

    from dirimor import norms
    from dirimor.quadrature import RadialAnnuliGrid

    fam = small_family(k_c=3, n_directions=1)
    log1 = log_kernel()
    ev = log1.eval_fn
    symbol_args = []
    g = dataclasses.replace(log1, eval_fn=lambda z: (symbol_args.append(z), ev(z))[1])

    built = []
    nodes_fn = RadialAnnuliGrid.__dict__["_nodes"].func

    def counted(grid):
        out = nodes_fn(grid)
        built.append(out[0])
        return out

    prop = cached_property(counted)
    prop.__set_name__(RadialAnnuliGrid, "_nodes")
    monkeypatch.setattr(RadialAnnuliGrid, "_nodes", prop)
    frames, weights = Counter(), Counter()
    frame_of = {}  # id of a frame's x -> (unit vector, grid nodes) it was last built for
    ray_frame, mobius = norms._ray_frame, norms._mobius_weight

    def counted_frame(u, z, x, y2):
        frames[round(float(np.angle(u)) % (2 * math.pi), 12), id(z)] += 1
        frame_of[id(x)] = (u, z)
        return ray_frame(u, z, x, y2)

    def counted_weight(rho, x, y2, p, q):
        u, z = frame_of[id(x)]
        weights[rho * u, id(z)] += 1
        return mobius(rho, x, y2, p, q)

    monkeypatch.setattr(norms, "_ray_frame", counted_frame)
    monkeypatch.setattr(norms, "_mobius_weight", counted_weight)
    ratio_scan(IG, g, fam)

    assert len(built) == len(SMALL_GRID.a_points_by_direction())
    on_grids = [id(z) for z in symbol_args if any(z is nodes for nodes in built)]
    assert sorted(on_grids) == sorted(id(z) for z in built)
    assert {z for _, z in weights} <= {id(z) for z in built}
    assert len(weights) == len(SMALL_GRID.a_points()) - 1  # a = 0 needs no weight
    assert max(weights.values()) == math.ceil(len(fam.entries) / norms.MEMBER_BLOCK)
    assert norms.MEMBER_BLOCK < len(fam.entries)
    # one frame per direction (a = 0 has none), on that direction's grid
    assert {z for _, z in frames} <= {id(z) for z in built}
    assert len(frames) == len(SMALL_GRID.a_points_by_direction()) - 1
    assert set(frames.values()) == {math.ceil(len(fam.entries) / norms.MEMBER_BLOCK)}


def test_family_norms_reproduced_by_its_own_grid():
    # the family's grid carries its whole translate scan, so norming the
    # family's functions on it again gives every recorded norm
    fam = small_family(k_c=3, n_directions=2)
    reports = dm_norms_translate([e.function for e in fam.entries], fam.params, fam.norm_grid)
    assert [r.value for r in reports] == [e.norm for e in fam.entries]
