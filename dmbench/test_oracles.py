"""Checks of the benchmark's reference values against brute-force numpy sums.

    python3 -m pytest dmbench/test_oracles.py -q

Each oracle reduces a disc or arc integral to a closed form or a 1-D
integral; here the same quantity is summed directly on a 2-D grid at small
size, so a wrong reduction cannot hide behind the program's agreement.
"""

import math
import time

import numpy as np
import pytest

import oracles
import tracer

P = 0.5


def disc_integral(field, n_s=400, n_theta=256):
    """Integral of field(z) dm over the disc (dm = r dr dtheta / pi).

    With s = r^2, dm = ds dtheta / (2 pi); Gauss panels in s graded toward
    s = 1 absorb the (1-s)^p kink, and the periodic trapezoid rule in theta
    is spectrally accurate for smooth integrands."""
    edges = np.concatenate([np.linspace(0.0, 0.5, 9), 1.0 - 0.5 * 2.0 ** -np.arange(1, 40)])
    edges = np.unique(np.append(edges, 1.0))
    x, w = np.polynomial.legendre.leggauss(n_s // len(edges) + 8)
    half = 0.5 * np.diff(edges)
    s = (edges[:-1, None] + half[:, None] * (x + 1.0)).ravel()
    ws = (half[:, None] * w).ravel()
    th = 2.0 * math.pi * np.arange(n_theta) / n_theta
    z = np.sqrt(s)[:, None] * np.exp(1j * th)[None, :]
    return float(np.sum(ws[:, None] * field(z)) / n_theta)


def test_translate_series_matches_disc_integral():
    for a in (0.0, 0.5, 0.3 + 0.6j):
        t = abs(a) ** 2
        # (1 - |phi_a(z)|^2) = (1-|a|^2)(1-|z|^2) / |1 - conj(a) z|^2
        brute = disc_integral(lambda z: ((1 - t) * (1 - abs(z) ** 2) / abs(1 - np.conj(a) * z) ** 2) ** P)
        assert oracles.identity_translate_seminorm(P, t) == pytest.approx(math.sqrt(brute), rel=1e-9)


def test_translate_series_matches_translate_route_series():
    # |(z o phi_a)'|^2 = (1-t)^2 / |1 - conj(a) z|^4 = (1-t)^2 |sum (n+1) conj(a)^n z^n|^2
    for t in (0.1, 0.75, (1 - 2.0 ** -6) ** 2):
        n = np.arange(20000, dtype=float)
        beta = np.exp([math.lgamma(k + 1.0) + math.lgamma(P + 1.0) - math.lgamma(k + P + 2.0)
                       for k in n])
        other = (1 - t) ** 2 * float(np.sum((n + 1) ** 2 * t ** n * beta))
        assert oracles.identity_translate_seminorm(P, t) ** 2 == pytest.approx(other, rel=1e-9)


def test_arc_reduction_matches_tensor_sum():
    # midpoint rule on the square I x I; the integrand is bounded with a
    # |u-v|^p kink on the diagonal, so the rule converges like h^(1+p)
    L, n = 1.0, 3000
    u = (np.arange(n) + 0.5) * (L / n)
    d = u[:, None] - u[None, :]
    brute = float(np.sum((2.0 * np.abs(np.sin(0.5 * d))) ** P)) * (L / n) ** 2
    assert oracles.identity_arc_double(L, P) == pytest.approx(brute, rel=1e-5)


def test_full_circle_coefficient_sum_matches_torus_sum():
    coeffs = [0.5, 1.0 - 0.5j, 0.0, 0.25j]
    n = 1500
    h = 2.0 * math.pi / n
    v = np.arange(n) * h
    u = v + 0.5 * h  # offset grid: no node on the diagonal

    def f(t):
        return sum(c * np.exp(1j * k * t) for k, c in enumerate(coeffs))

    d = u[:, None] - v[None, :]
    vals = np.abs(f(u)[:, None] - f(v)[None, :]) ** 2 / (2.0 * np.abs(np.sin(0.5 * d))) ** (2.0 - P)
    brute = float(np.sum(vals)) * h * h
    assert oracles.polynomial_full_circle_double(coeffs, P) == pytest.approx(brute, rel=1e-3)
    # f = z: the coefficient sum and the arc reduction agree on the full circle
    assert oracles.polynomial_full_circle_double([0, 1], P) == pytest.approx(
        oracles.identity_arc_double(2.0 * math.pi, P), rel=1e-12)


def test_beta_moment_box_sum_matches_disc_integral():
    coeffs = [1.0, 2.0, 0.0, 1.0 - 1.0j]

    def dens(z):
        fp = sum(k * c * z ** (k - 1) for k, c in enumerate(coeffs) if k)
        return np.abs(fp) ** 2 * (1.0 - np.abs(z) ** 2) ** P

    assert oracles.polynomial_disc_box(coeffs, P) == pytest.approx(disc_integral(dens), rel=1e-9)


def test_identity_box_matches_polar_sum():
    # midpoint sums over the box's polar rectangle [1-|I|, 1) x I, with the
    # angular half-width pi |I| of the program's convention
    for length in (1.0, 0.25, 2.0 ** -6):
        n_r, n_t = 20000, 64
        r = 1.0 - length + (np.arange(n_r) + 0.5) * (length / n_r)
        t = -math.pi * length + (np.arange(n_t) + 0.5) * (2.0 * math.pi * length / n_t)
        cell = (length / n_r) * (2.0 * math.pi * length / n_t) / math.pi
        z = r[:, None] * np.exp(1j * t)[None, :]
        brute = float(np.sum((1.0 - np.abs(z) ** 2) ** P * np.abs(z)) * cell)
        assert oracles.identity_box(length, P) == pytest.approx(brute, rel=1e-5)


def test_gpcm_at_origin_matches_direct_box_masses():
    # mu(S(z)) by a 1-D Gauss sum over the point box's radii, times its
    # angular fraction 1 - |z|; then the outer integral by the midpoint rule
    x, w = np.polynomial.legendre.leggauss(40)
    n = 20000
    r = (np.arange(n) + 0.5) / n
    rho = r[:, None] + (1.0 - r[:, None]) * 0.5 * (x + 1.0)
    radial = np.sum((1.0 - rho ** 2) ** P * 2.0 * rho * (0.5 * (1.0 - r[:, None])) * w, axis=1)
    mu_box = (1.0 - r) * radial
    mass = 1.0 / (P + 1.0)
    brute = float(np.sum(mu_box ** 2 * (1.0 - r ** 2) ** (-2.0 - P) * 2.0 * r) / n) / mass
    # the (1-rho^2)^p kink at rho = 1 limits the inner Gauss sums to ~1e-5
    assert oracles.identity_gpcm_at_origin(P) == pytest.approx(brute, rel=1e-4)


def test_gap_block_limit_matches_partial_sums():
    q, p = 0.3, 0.6
    k = np.arange(1000)
    terms = 2.0 ** (k * (1.0 - p)) * (2.0 ** (-k * (1.0 - q) / 2.0)) ** 2
    assert oracles.gap_block_limit(q, p) == pytest.approx(float(np.sum(terms)), rel=1e-12)


def test_layer_self_time_excludes_child_layers():
    spans = tracer.Tracer()
    inner = spans.wrap("analytic.eval_fn", lambda z: time.sleep(0.05) or z, tracer._point_count)
    outer = spans.wrap("norms.hinf_sup", lambda: (time.sleep(0.05), inner(np.zeros(7)))[1])
    spans.enabled = True
    outer()
    m = spans.layer_metrics()
    assert m["analytic.calls"] == 1 and m["analytic.points"] == 7
    assert m["norms.scans"] == 1
    assert 0.05 <= m["norms.self_s"] < 0.09
    assert 0.05 <= m["analytic.s"] < 0.09
