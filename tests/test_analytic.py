"""Core contracts of the analytic-function layer: Mobius identities, built-in
families against closed-form values, derivative consistency, and the |f'|^2
path against the complex derivative."""

import math
import tracemalloc

import numpy as np
import pytest

from dirimor.analytic import (
    BoundaryPoint,
    EvaluationDomainError,
    SpaceParams,
    TruncationError,
    constant,
    log_kernel,
    make_gap_series,
    make_power_kernel,
    make_taylor,
    mobius_apply,
    mobius_derivative,
    mobius_translate,
)
from dirimor.operators import IG, JG, MG, apply_operator
from dirimor.quadrature import RadialAnnuliGrid

RNG = np.random.default_rng(20260808)


def random_interior(n, r_cap=0.99):
    r = r_cap * np.sqrt(RNG.uniform(0, 1, n))
    t = RNG.uniform(0, 2 * np.pi, n)
    return r * np.exp(1j * t)


def test_mobius_swaps_zero_and_a():
    assert mobius_apply(0.5, 0.0) == pytest.approx(0.5)
    assert mobius_apply(0.5, 0.5) == pytest.approx(0.0)
    z = random_interior(50)
    assert np.allclose(mobius_apply(0.0, z), -z)
    with pytest.raises(ValueError):
        mobius_apply(1.2, 0.0)


def test_mobius_involution():
    a = random_interior(200, r_cap=0.99)
    z = random_interior(200)
    for ai in a[:200]:
        w = mobius_apply(ai, mobius_apply(ai, z))
        assert np.max(np.abs(w - z)) < 1e-9


def test_mobius_modulus_identity():
    # |phi_a'(z)| (1 - |z|^2) = 1 - |phi_a(z)|^2
    a = random_interior(100, r_cap=0.95)
    z = random_interior(100)
    lhs = np.abs(mobius_derivative(a, z)) * (1 - np.abs(z) ** 2)
    rhs = 1 - np.abs(mobius_apply(a, z)) ** 2
    assert np.max(np.abs(lhs - rhs) / rhs) < 1e-10


def test_mobius_boundary_to_boundary():
    u = np.exp(1j * RNG.uniform(0, 2 * np.pi, 100))
    w = mobius_apply(0.3 + 0.4j, u)
    assert np.max(np.abs(np.abs(w) - 1.0)) < 1e-12


def test_space_params_derived():
    sp = SpaceParams(0.5, 0.4)
    assert sp.box_exponent == pytest.approx(0.2)
    assert sp.translate_exponent == pytest.approx(0.15)
    with pytest.raises(ValueError):
        SpaceParams(0.0, 0.5)
    with pytest.raises(ValueError):
        SpaceParams(0.5, 1.5)


def test_boundary_point_normalizes():
    b = BoundaryPoint(2 * math.pi + 0.25)
    assert b.angle == pytest.approx(0.25)
    assert abs(b.point) == pytest.approx(1.0)


# -- polynomials -------------------------------------------------------------


def test_taylor_examples():
    one = make_taylor([1])
    assert one(0.3 + 0.1j) == pytest.approx(1.0)
    ident = make_taylor([0, 1])
    assert ident(0.25 + 0.5j) == pytest.approx(0.25 + 0.5j)
    assert ident.derivative(0.7j) == pytest.approx(1.0)
    f = make_taylor([1, 0, 2])
    assert f(0.5) == pytest.approx(1.5)
    assert f.at_zero() == pytest.approx(1.0)


def test_taylor_boundary_matches_eval_limit():
    f = make_taylor([1, 2, 0, 1])
    theta = RNG.uniform(0, 2 * np.pi, 32)
    u = np.exp(1j * theta)
    # polynomial: boundary trace is the same Horner evaluation
    assert np.allclose(f.boundary(theta), sum(c * u ** k for k, c in enumerate([1, 2, 0, 1])))


# -- power kernels -----------------------------------------------------------


def test_kernel_values():
    f = make_power_kernel(0.9, 0.35)
    assert complex(f(0.5)) == pytest.approx(0.55 ** -0.35, rel=1e-12)
    assert f.at_zero() == pytest.approx(1.0)
    # s = 0 collapses to the constant 1
    g = make_power_kernel(0.7, 0.0)
    assert g(0.4 + 0.2j) == pytest.approx(1.0)


def test_kernel_derivative_formula():
    f = make_power_kernel(0.8j, 0.6)
    z = random_interior(64)
    expected = 0.6 * np.conj(0.8j) * (1 - np.conj(0.8j) * z) ** (-1.6)
    assert np.allclose(f.derivative(z), expected, rtol=1e-12)


def test_boundary_kernel_is_flagged_singular():
    f = make_power_kernel(BoundaryPoint(0.0), 0.15)
    assert f.singular_angles == (0.0,)
    assert not f.has_boundary_values
    with pytest.raises(EvaluationDomainError):
        f.boundary(np.array([0.1]))
    # on the positive radius: (1-r)^(-s), real
    r = np.array([0.5, 0.9, 0.99])
    assert np.allclose(f(r), (1 - r) ** -0.15, rtol=1e-12)


def test_interior_kernel_has_boundary_trace():
    f = make_power_kernel(0.9, 0.35)
    theta = np.array([0.0, 1.0, 3.0])
    vals = f.boundary(theta)
    assert np.allclose(vals, (1 - 0.9 * np.exp(1j * theta)) ** (-0.35 + 0j), rtol=1e-12)


@pytest.mark.parametrize("c", [0.9, 0.99, 0.3 + 0.4j, -0.6 + 0.7j, -0.5 - 0.5j, 0.2 - 0.9j])
@pytest.mark.parametrize("s", [0.15, 0.35])
def test_kernel_trace_in_real_arithmetic_matches_complex_log(c, s):
    # the trace |w|^(-s) e^(-i s arg w) against exp(-s log w), w = 1 - conj(c) e^(i theta),
    # over four turns either side of 0, for c in every quadrant
    f = make_power_kernel(c, s)
    theta = np.concatenate([RNG.uniform(-8 * np.pi, 8 * np.pi, 20000),
                            np.linspace(-8 * np.pi, 8 * np.pi, 4000)])
    plain = np.exp(-s * np.log(1.0 - np.conj(c) * np.exp(1j * theta)))
    got = f.boundary(theta)
    assert np.max(np.abs(got - plain) / np.abs(plain)) < 1e-15
    # any shape, a scalar angle included, gives the same values
    assert np.array_equal(f.boundary(theta.reshape(5, -1)).ravel(), got)
    assert f.boundary(float(theta[0])) == pytest.approx(got[0], rel=1e-15)


def test_singular_width_propagation():
    k9, k5 = make_power_kernel(0.9, 0.35), make_power_kernel(0.5j, 0.35)
    assert k9.singular_width == pytest.approx(0.1, rel=1e-12)
    assert k5.singular_width == 0.5
    # unknown (0.0) for a boundary kernel and every family without a kernel's width
    for f in (make_power_kernel(BoundaryPoint(0.0), 0.15), make_taylor([1, 2]),
              make_gap_series(remark_rule(0.5), 20), log_kernel()):
        assert f.singular_width == 0.0
    assert k9.scaled(2j).singular_width == k9.singular_width
    assert (k9 + k5).singular_width == k9.singular_width
    assert (k5 + k9).singular_width == k9.singular_width
    assert (k9 + make_taylor([0, 1])).singular_width == 0.0
    assert mobius_translate(k9, 0.5).singular_width == 0.0
    for kind in (IG, JG, MG):
        assert apply_operator(kind, k9, k5).singular_width == 0.0


# -- gap series --------------------------------------------------------------


def remark_rule(q):
    return lambda k: 2.0 ** (-k * (1.0 - q) / 2.0)


def test_gap_series_values():
    f = make_gap_series(remark_rule(0.3), K=20)
    assert f(0.0) == pytest.approx(0.0)
    assert f.derivative(0.0) == pytest.approx(0.0)
    # a_2 = 2^(-0.7)
    a2 = 2.0 ** -0.7
    assert a2 == pytest.approx(0.61557, abs=1e-5)
    # direct sum cross-check at a modest point
    z = 0.6 - 0.2j
    direct = sum(2.0 ** (-k * 0.35) * z ** (2 ** k) for k in range(1, 21))
    assert complex(f(z)) == pytest.approx(direct, rel=1e-13)
    ddirect = sum(2.0 ** (-k * 0.35) * 2 ** k * z ** (2 ** k - 1) for k in range(1, 21))
    assert complex(f.derivative(z)) == pytest.approx(ddirect, rel=1e-13)


def test_gap_series_truncation_guard():
    with pytest.raises(TruncationError):
        make_gap_series(remark_rule(0.3), K=6)
    f = make_gap_series(remark_rule(0.3), K=20)
    with pytest.raises(EvaluationDomainError):
        f(0.9999999)
    # boundary trace of the truncation itself stays available
    assert np.isfinite(complex(f.boundary(np.array([1.0]))[0]).real)


def test_log_kernel():
    g = log_kernel()
    assert g.at_zero() == pytest.approx(0.0)
    r = 1 - 2.0 ** -8
    assert complex(g(r)).real == pytest.approx(8 * math.log(2), rel=1e-12)
    assert complex(g.derivative(0.5)) == pytest.approx(2.0)
    assert g.singular_angles == (0.0,)


# -- derivative consistency (finite differences) ------------------------------


@pytest.mark.parametrize(
    "fn",
    [
        make_taylor([1, 2, 0, 1]),
        make_power_kernel(0.9, 0.35),
        make_power_kernel(BoundaryPoint(0.0), 0.15),
        make_gap_series(remark_rule(0.3), K=20),
        log_kernel(),
    ],
    ids=lambda f: f.label,
)
def test_derivative_matches_centered_difference(fn):
    z = random_interior(100, r_cap=min(0.97, fn.r_max * 0.98))
    h = 1e-5 * (1 - np.abs(z))
    fd = (fn(z + h) - fn(z - h)) / (2 * h)
    dv = fn.derivative(z)
    rel = np.abs(fd - dv) / np.maximum(np.abs(dv), 1e-30)
    assert np.max(rel) < 1e-6


# -- the |f'|^2 path ------------------------------------------------------------


def graded_nodes(f):
    """Nodes of a graded disc grid out to |z| = 1 - 2^-24, or to the
    function's certified radius when that is smaller."""
    depth = 24 if f.r_max >= 1.0 else int(-math.log2(1.0 - f.r_max))
    z, _, _ = RadialAnnuliGrid(depth=depth, foci=(0.0, 1.3), panel_order=4, base_panels=8).nodes()
    return z


KERNEL = make_power_kernel(0.9, 0.35)
BOUNDARY_KERNEL = make_power_kernel(1.0, 0.15)
SYMBOLS = (make_taylor([0.5, 0.5]), log_kernel(), make_gap_series(remark_rule(0.5), K=20))


@pytest.mark.parametrize(
    "fn",
    [
        make_taylor([1, 2, 0, 1]),
        constant(2 - 1j),
        KERNEL,
        make_power_kernel(-0.3 + 0.8j, 1.2),
        BOUNDARY_KERNEL,
        make_power_kernel(BoundaryPoint(2.0), 0.35),
        make_gap_series(remark_rule(0.3), K=20),
        log_kernel(),
        KERNEL.scaled(0.5 + 2j),
        make_taylor([0, 1, 1]) + KERNEL,
        mobius_translate(KERNEL, 0.5 - 0.3j),
        mobius_translate(log_kernel(), 0.9j),
    ] + [apply_operator(kind, f, g) for kind in (JG, IG, MG)
         for f in (KERNEL, BOUNDARY_KERNEL) for g in SYMBOLS],
    ids=lambda f: f.label,
)
def test_deriv_abs2_matches_derivative(fn):
    # scans read |f'|^2 through deriv_abs2; the complex derivative checks it
    z = graded_nodes(fn)
    want = np.abs(fn.derivative(z)) ** 2
    assert np.all(np.abs(fn.deriv_abs2(z) - want) <= 1e-13 * want)



KERNEL_PAIRS = [(0.9, 0.35), (0.5 + 0.3j, 1.0), (-0.99j, 0.5), (1.0, 0.15), (-0.3 + 0.8j, 2.0)]


@pytest.mark.parametrize("c,s", KERNEL_PAIRS)
def test_kernel_deriv_abs2_in_place_equals_plain_expression_bitwise(c, s):
    # the in-place |f'|^2 of a power kernel has the plain expression's bits,
    # out to radius 1 - 2^-24, and one call holds no grid-sized array beyond
    # its complex work array and its result
    f = make_power_kernel(c, s)
    n = 20000
    z = (1.0 - 2.0 ** -RNG.uniform(0.0, 24.0, n)) * np.exp(1j * RNG.uniform(0.0, 2 * np.pi, n))
    w = 1.0 - np.conj(complex(c)) * z
    plain = s * s * abs(complex(c)) ** 2 * (w.real ** 2 + w.imag ** 2) ** -(s + 1.0)
    assert np.array_equal(f.deriv_abs2(z), plain)
    tracemalloc.start()
    try:
        f.deriv_abs2(z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.2 * 8 * n  # bytes: three reals a point


def test_scaled_deriv_abs2_carries_the_factor():
    # replace() would keep the kernel's own |f'|^2 and drop |alpha|^2
    z = graded_nodes(KERNEL)
    alpha = 0.5 + 2j
    assert np.array_equal(KERNEL.scaled(alpha).deriv_abs2(z), abs(alpha) ** 2 * KERNEL.deriv_abs2(z))


def test_symbol_product_never_outlives_its_image():
    # an I_g image's |h'|^2 is a SymbolProduct, read by scans through
    # deriv_abs2_factors; whatever builds a new |f'|^2 from it (scaled,
    # __add__, M_g, translates, replace() with a new deriv_abs2_fn) must not
    # carry the product without its own factor
    from dataclasses import replace

    from dirimor.analytic import SymbolProduct

    g = log_kernel()
    img = apply_operator(IG, KERNEL, g)
    assert isinstance(img.deriv_abs2_fn, SymbolProduct)
    own, symbol = img.deriv_abs2_factors()
    z = graded_nodes(img)
    assert np.array_equal(own(z) * symbol(z), img.deriv_abs2(z))
    alpha = 0.5 + 2j
    scaled = img.scaled(alpha)
    assert np.array_equal(scaled.deriv_abs2(z), abs(alpha) ** 2 * img.deriv_abs2(z))
    assert scaled.deriv_abs2_factors()[1] is None
    zs = random_interior(12, r_cap=0.9)
    derived = [scaled, img + img, apply_operator(MG, img, make_taylor([1, 0.5])),
               mobius_translate(img, 0.3 - 0.2j), replace(img, deriv_abs2_fn=None)]
    for h in derived:
        assert h.deriv_abs2_factors()[1] is None
        want = np.abs(h.derivative(zs)) ** 2
        assert np.all(np.abs(h.deriv_abs2(zs) - want) <= 1e-12 * want)
    # the images of one symbol object share its factor; another object does not
    assert apply_operator(IG, make_taylor([0, 1]), g).deriv_abs2_factors()[1] == symbol
    assert apply_operator(IG, KERNEL, log_kernel()).deriv_abs2_factors()[1] != symbol


def test_deriv_abs2_checks_the_certified_radius():
    f = make_gap_series(remark_rule(0.3), K=20)
    with pytest.raises(EvaluationDomainError):
        f.deriv_abs2(0.9999999)


# -- translates ---------------------------------------------------------------


def test_translate_examples():
    ident = make_taylor([0, 1])
    g = mobius_translate(ident, 0.0)
    z = random_interior(20)
    assert np.allclose(g(z), -z)

    c = constant(3.5 - 1j)
    h = mobius_translate(c, 0.3 + 0.2j)
    assert np.max(np.abs(h(z))) < 1e-14

    g2 = mobius_translate(ident, 0.5)
    assert complex(g2(0.25)) == pytest.approx(0.25 / 0.875 - 0.5, rel=1e-14)


@pytest.mark.parametrize("a", [0.0, 0.5, -0.3 + 0.6j, 0.9j])
def test_translate_vanishes_at_zero(a):
    for f in [make_taylor([2, 1, 4]), make_power_kernel(0.9, 0.35), log_kernel()]:
        g = mobius_translate(f, a)
        assert abs(g.at_zero()) < 1e-13


def test_translate_derivative_chain_rule():
    f = make_power_kernel(0.7, 0.5)
    a = 0.4 - 0.3j
    g = mobius_translate(f, a)
    z = random_interior(50, r_cap=0.9)
    h = 1e-6 * (1 - np.abs(z))
    fd = (g(z + h) - g(z - h)) / (2 * h)
    assert np.max(np.abs(fd - g.derivative(z)) / np.abs(g.derivative(z))) < 1e-5


def test_translate_moves_singular_directions():
    f = make_power_kernel(BoundaryPoint(0.0), 0.2)
    a = 0.5
    g = mobius_translate(f, a)
    # phi_a(1) = (0.5-1)/(1-0.5) = -1: singular direction moves to angle pi
    assert any(abs(t - math.pi) < 1e-12 for t in g.singular_angles)


def test_function_algebra():
    f = make_taylor([1, 2])
    g = make_taylor([0, 0, 3])
    s = f + g
    assert complex(s(0.5)) == pytest.approx(1 + 1 + 0.75)
    sc = f.scaled(2j)
    assert complex(sc(0.5)) == pytest.approx(2j * 2.0)
