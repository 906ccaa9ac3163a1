"""Coupling kernel: closed form vs quadrature, symmetries, coefficients."""

import tracemalloc

import numpy as np
import pytest

import fiberdbp.kernel
from fiberdbp import (DbpConfig, LinkConfig, StepGeometry,
                      analytic_coefficients, coefficient_memory,
                      make_dbp_coefficient_set, step_kernel)
from fiberdbp.kernel import (_coeff_grid_eval, _kernel_segments,
                             _unscaled_transform)

from oracles import dense_coeff_grid_eval, kernel_quadrature, volterra_oracle

# frozen regression pins, three-span step at 52.3125 GHz subband rate, 1 mW
C0_CENTER = 7.1189805043e-3
C1_CENTER = 6.0764035721e-4
SUB_RATE = 1.125 * 93e9 / 2


def test_closed_form_matches_quadrature(geom240):
    rng = np.random.default_rng(11)
    mu = rng.uniform(-SUB_RATE, SUB_RATE, 40)
    nu = rng.uniform(-SUB_RATE, SUB_RATE, 40)
    closed = step_kernel(mu, nu, geom240)
    quad = kernel_quadrature(mu, nu, geom240)
    err = np.abs(closed - quad) / np.max(np.abs(quad))
    assert err.max() < 1e-6


def test_single_span_geometry():
    geom = StepGeometry(length_km=80.0, span_km=80.0)
    rng = np.random.default_rng(12)
    mu = rng.uniform(-SUB_RATE, SUB_RATE, 25)
    nu = rng.uniform(-SUB_RATE, SUB_RATE, 25)
    err = np.abs(step_kernel(mu, nu, geom)
                 - kernel_quadrature(mu, nu, geom))
    assert err.max() / np.abs(kernel_quadrature(mu, nu, geom)).max() < 1e-6


def _brute_kernel(mu, nu, geom, nodes_per_km=200):
    """First-principles integral of gamma g(s) exp(-2jb(s - rho L)).

    g(s) follows the sawtooth span power profile, normalized to 1 at the
    step input; independent of the library's segment bookkeeping. Simpson
    panels never straddle a span boundary (g jumps there).
    """
    b = 2 * np.pi ** 2 * geom.beta2_ps2_km * 1e-24 * np.asarray(nu) \
        * (np.asarray(mu) - np.asarray(nu))
    a = geom.alpha_np_km
    # split [0, L] at the amplifier positions
    edges = [0.0]
    s_amp = geom.span_km
    while s_amp < geom.length_km - 1e-12:
        edges.append(s_amp)
        s_amp += geom.span_km
    edges.append(geom.length_km)

    total = np.zeros(np.shape(b), dtype=complex)
    for s0, s1 in zip(edges[:-1], edges[1:]):
        num = (int(nodes_per_km * (s1 - s0)) + 3) | 1
        s = np.linspace(s0, s1, num)
        pos = np.mod(s0, geom.span_km) + (s - s0)
        g = np.exp(-a * pos)
        w = np.ones(num)
        w[1:-1:2], w[2:-1:2] = 4.0, 2.0
        w *= (s[1] - s[0]) / 3.0
        phase = np.exp(-2j * np.multiply.outer(
            b, s - geom.rho * geom.length_km))
        total += phase @ (g * w)
    return geom.gamma_w_km * total


def test_fractional_span_geometry():
    # step shorter than a span: exercises the piecewise evaluation that the
    # whole-span closed form cannot cover
    geom = StepGeometry(length_km=26.7, span_km=80.0)
    rng = np.random.default_rng(13)
    mu = rng.uniform(-SUB_RATE, SUB_RATE, 25)
    nu = rng.uniform(-SUB_RATE, SUB_RATE, 25)
    got = step_kernel(mu, nu, geom)
    ref = _brute_kernel(mu, nu, geom)
    assert np.abs(got - ref).max() / np.abs(ref).max() < 1e-6


def test_multi_span_fractional_geometry():
    # 2.5 spans, asymmetric splitting
    geom = StepGeometry(length_km=200.0, span_km=80.0, rho=0.2)
    rng = np.random.default_rng(17)
    mu = rng.uniform(-SUB_RATE, SUB_RATE, 16)
    nu = rng.uniform(-SUB_RATE, SUB_RATE, 16)
    got = step_kernel(mu, nu, geom)
    ref = _brute_kernel(mu, nu, geom)
    assert np.abs(got - ref).max() / np.abs(ref).max() < 1e-6


def test_near_singular_points(geom240):
    # the closed form divides by sin(b Lsp); probe additively perturbed
    # b-singularities where that denominator crosses zero
    beta2 = geom240.beta2_ps2_km * 1e-24
    lsp = geom240.span_km
    eps = 1e-3
    # b = 4 pi^2 beta2 mu nu; pick mu = nu so b Lsp = k pi
    for k in (1, 2):
        target = k * np.pi / (4 * np.pi ** 2 * abs(beta2) * lsp)
        mu = np.sqrt(target) + eps
        closed = step_kernel(mu, mu, geom240)
        quad = kernel_quadrature(mu, mu, geom240, num_points=40001)
        assert abs(closed - quad) / abs(quad) < 1e-6


def test_kernel_zero_frequency_is_effective_length(geom240):
    # K(0,0) = gamma times the loss-profile integral over the step
    got = step_kernel(0.0, 0.0, geom240)
    alpha = geom240.alpha_np_km
    lsp = geom240.span_km
    expect = geom240.gamma_w_km * geom240.num_spans \
        * (1 - np.exp(-alpha * lsp)) / alpha
    assert abs(got - expect) / expect < 1e-12
    assert abs(got.imag) < 1e-12 * abs(got)
    assert abs(got / geom240.gamma_w_km
               - geom240.effective_length_km) < 1e-9


def test_kernel_time_reversal(geom240):
    # negating both frequencies leaves the kernel unchanged
    rng = np.random.default_rng(14)
    mu = rng.uniform(-SUB_RATE, SUB_RATE, 30)
    nu = rng.uniform(-SUB_RATE, SUB_RATE, 30)
    a = step_kernel(mu, nu, geom240)
    b = step_kernel(-mu, -nu, geom240)
    assert np.abs(a - b).max() < 1e-12 * np.abs(a).max()


def test_step_kernel_splitting_ratio_is_pure_phase(geom240):
    # moving the rotation point inside a span-aligned step multiplies the
    # kernel by exp(-2jb(0.5 - rho)L) and leaves the magnitude alone
    mu, nu = 7.1e9, -3.3e9
    raw = step_kernel(mu, nu, geom240)
    geom = StepGeometry(length_km=geom240.length_km, span_km=geom240.span_km,
                        rho=0.2)
    stepped = step_kernel(mu, nu, geom)
    assert abs(abs(stepped) - abs(raw)) < 1e-9 * abs(raw)
    b = 2 * np.pi ** 2 * geom.beta2_ps2_km * 1e-24 * nu * (mu - nu)
    shift = np.exp(-2j * b * (0.5 - geom.rho) * geom.length_km)
    assert abs(stepped - raw * shift) < 1e-9 * abs(raw)


def test_coefficients_frozen_values(geom240):
    c0 = analytic_coefficients(geom240, 0.0, 22, SUB_RATE, 1e-3)
    assert c0.size == 45
    assert abs(c0[22] - C0_CENTER) / C0_CENTER < 1e-8
    c1 = analytic_coefficients(geom240, SUB_RATE, 45, SUB_RATE, 1e-3)
    assert abs(c1[45] - C1_CENTER) / C1_CENTER < 1e-8


def test_coefficients_match_volterra_oracle(geom240):
    # independent quadrature route: diagonal of the 2D response grid
    c0 = analytic_coefficients(geom240, 0.0, 10, SUB_RATE, 1e-3)
    d = volterra_oracle(geom240, SUB_RATE, 10, 1e-3)
    diag = np.real(np.diag(d))
    assert np.abs(diag - c0).max() < 1e-6 * np.abs(c0).max()


def test_volterra_grid_hermitian(geom240):
    d = volterra_oracle(geom240, SUB_RATE, 6, 1e-3)
    assert np.abs(d - d.conj().T).max() < 1e-12 * np.abs(d).max()


def test_coefficients_even_in_lag(geom240):
    c0 = analytic_coefficients(geom240, 0.0, 15, SUB_RATE, 1e-3)
    assert np.abs(c0 - c0[::-1]).max() < 1e-10 * np.abs(c0).max()


def test_coefficients_linear_in_gamma_and_power(geom240):
    c_base = analytic_coefficients(geom240, 0.0, 8, SUB_RATE, 1e-3)
    c_p = analytic_coefficients(geom240, 0.0, 8, SUB_RATE, 3e-3)
    assert np.abs(c_p - 3 * c_base).max() < 1e-12 * np.abs(c_base).max()
    geom_g = StepGeometry(length_km=240.0, span_km=80.0,
                          gamma_w_km=2 * geom240.gamma_w_km)
    c_g = analytic_coefficients(geom_g, 0.0, 8, SUB_RATE, 1e-3)
    assert np.abs(c_g - 2 * c_base).max() < 1e-12 * np.abs(c_base).max()


def test_memory_rule(geom240):
    assert 2 * coefficient_memory(0, geom240, 1.125 * 93e9, 2) + 1 == 45
    assert 2 * coefficient_memory(1, geom240, 1.125 * 93e9, 2) + 1 == 91
    # memory grows with band separation and never drops below one tap
    tiny = StepGeometry(length_km=1.0, span_km=80.0)
    assert coefficient_memory(0, tiny, 1e9, 1) >= 1


def test_interband_coefficients_asymmetric_support(geom240):
    # walk-off shifts the inter-band response off center
    c1 = analytic_coefficients(geom240, SUB_RATE, 60, SUB_RATE, 1e-3)
    lags = np.arange(-60, 61)
    mass = np.abs(c1)
    centroid = float(np.sum(lags * mass) / np.sum(mass))
    assert abs(centroid) > 1.0


@pytest.mark.parametrize("bad", [-1, 0])
def test_coefficient_rejects_bad_memory(geom240, bad):
    with pytest.raises(ValueError):
        analytic_coefficients(geom240, 0.0, bad, SUB_RATE, 1e-3)


@pytest.mark.parametrize("num_spans, rho", [(3, 0.5), (5, 0.15)])
@pytest.mark.parametrize("h", [0, 1])
@pytest.mark.parametrize("num_nodes", [65, 601])
def test_chunked_transform_matches_dense(num_spans, rho, h, num_nodes,
                                         monkeypatch):
    geom = StepGeometry(length_km=80.0 * num_spans, span_km=80.0, rho=rho)
    args = (geom, h * SUB_RATE, 20, SUB_RATE, 1e-3, num_nodes)
    ref = dense_coeff_grid_eval(*args)
    # one tile holding the whole grid, tiles of 7 rows with a ragged last
    # tile, and one row per tile (budget below a row)
    assert num_nodes % 7
    for budget in (num_nodes ** 2, 7 * num_nodes, num_nodes - 1):
        monkeypatch.setattr(fiberdbp.kernel, "_TILE_ELEMENTS", budget)
        _unscaled_transform.cache_clear()
        got = _coeff_grid_eval(*args)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max(), budget


@pytest.mark.parametrize("num_spans", [1, 5, 15])
@pytest.mark.parametrize("rho", [0.0, 0.1, 0.15, 0.5, 1.0])
def test_span_aligned_steps_use_closed_form_at_every_rho(num_spans, rho,
                                                         monkeypatch):
    rng = np.random.default_rng(19)
    # the random pairs, then three with b = 0: mu = nu = 0, mu = nu, nu = 0
    mu = np.append(rng.uniform(-SUB_RATE, 2 * SUB_RATE, 200),
                   [0.0, 3e10, -2e10])
    nu = np.append(rng.uniform(-SUB_RATE, 2 * SUB_RATE, 200),
                   [0.0, 3e10, 0.0])

    def unexpected(*args):
        raise AssertionError("span-aligned step took the piecewise path")

    # lossy fiber, and lossless fiber where sinh(w)/w is sin(bL)/(bL)
    for alpha in (0.2, 0.0):
        geom = StepGeometry(length_km=80.0 * num_spans, span_km=80.0,
                            alpha_db_km=alpha, rho=rho)
        ref = _kernel_segments(mu, nu, geom)
        with monkeypatch.context() as m:
            m.setattr(fiberdbp.kernel, "_kernel_segments", unexpected)
            got = step_kernel(mu, nu, geom)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max(), alpha


def test_transform_memory_grows_linearly_in_nodes():
    geom = StepGeometry(length_km=400.0, span_km=80.0, rho=0.15)

    def peak(num_nodes):
        _unscaled_transform.cache_clear()
        tracemalloc.start()
        try:
            _coeff_grid_eval(geom, 0.0, 20, SUB_RATE, 1e-3, num_nodes)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(1025), peak(2049)
    # a dense n x n evaluation quadruples here
    assert large < 2.5 * small
    # fixed-size tiles: only the length-(2n - 1) diagonal sums grow with n
    assert large < 16 * 2 ** 20


def test_second_power_reuses_the_kernel_transform(monkeypatch):
    # taps at one geometry differ across launch powers only by their
    # final scale, so a build at a second power evaluates no kernel tile
    cfg = DbpConfig(link=LinkConfig(num_spans=5, span_length_km=80.0),
                    variant="CB_ESSFM", n_steps=5, n_subbands=2,
                    splitting_ratio=0.15, block_size=4096, overlap=1024,
                    oversampling=1.125)
    rate = 1.125 * 32e9
    _unscaled_transform.cache_clear()
    make_dbp_coefficient_set(cfg, rate, 1e-3)
    tiles = []
    real = fiberdbp.kernel.step_kernel
    monkeypatch.setattr(fiberdbp.kernel, "step_kernel",
                        lambda *a: tiles.append(a) or real(*a))
    cached = make_dbp_coefficient_set(cfg, rate, 2e-3)
    assert tiles == []
    _unscaled_transform.cache_clear()
    fresh = make_dbp_coefficient_set(cfg, rate, 2e-3)
    assert tiles
    assert cached.coeffs.keys() == fresh.coeffs.keys() == {0, 1}
    for h, c in fresh.coeffs.items():
        assert np.array_equal(cached.coeffs[h], c)
