"""Validation oracles for the kernel and channel modules, kept with the tests.

Each oracle computes what a fiberdbp routine computes by a slower, more
direct route: quadrature of the step kernel, dense Gauss-Legendre Volterra
coefficients, the dense n x n kernel transform that the row-chunked one
replaced, and the allocating split-step loop that the in-place one replaced.
"""

import numpy as np

from fiberdbp.channel import LinkConfig, _gvd_phasor
from fiberdbp.kernel import StepGeometry, _beat, _simpson_weights, step_kernel


def kernel_quadrature(mu, nu, geom: StepGeometry,
                      num_points: int | None = None) -> np.ndarray:
    """Step kernel by direct numerical integration (validation oracle).

    Composite Simpson integration of gamma g(z) exp(-j 2 b z) over the
    symmetric window [-L/2, L/2], per span segment so the power-profile
    discontinuities fall on segment edges. ``num_points`` is the node count
    per span; as a rule it should be at least ten per oscillation of the
    integrand (period pi/|b| in z). The default targets relative errors
    below 1e-8.
    """
    n_sp = geom.num_spans
    lsp = geom.span_km
    alpha = geom.alpha_np_km
    shape = np.broadcast(np.asarray(mu), np.asarray(nu)).shape
    b = np.broadcast_to(_beat(mu, nu, geom), shape).ravel().astype(float)

    if num_points is None:
        osc = np.max(np.abs(2 * b)) * lsp / (2 * np.pi)
        num_points = int(max(801, np.ceil(100 * osc)))
    if num_points % 2 == 0:
        num_points += 1

    zeta = np.linspace(0.0, lsp, num_points)
    profile = (geom.gamma_w_km * np.exp(-alpha * zeta)
               * _simpson_weights(num_points, lsp))

    total = np.zeros(b.size, dtype=complex)
    for k in range(n_sp):
        z0 = -geom.length_km / 2.0 + k * lsp
        total += np.exp(-2j * np.outer(b, z0 + zeta)) @ profile
    return total.reshape(shape) if shape else total[0]


def volterra_oracle(geom: StepGeometry, subband_rate: float, window: int,
                    reference_power_w: float) -> np.ndarray:
    """Dense intraband Volterra phase coefficients d[m, n] (oracle).

    d[m, n] = (P / R'^2) \\iint K(mu, nu) e^{j 2 pi (m mu - n nu)/R'} dmu dnu
    over the centered square of side R', evaluated with composite
    12-point Gauss-Legendre panels (a scheme independent of analytic_coefficients).
    The returned matrix is the Hermitian part of the raw transform — the
    phase component of the perturbation, so that the quadratic form built
    from it is real — and its diagonal is the separation-0 coefficient
    vector. Guarded to window <= 64; the matrix is O((2 window + 1)^2)
    integrals.
    """
    if window > 64:
        raise ValueError("window too large; the dense oracle is O(window^2)")
    rp = subband_rate
    # worst-case phase rate vs frequency: tap lattice + kernel oscillation
    omega = (2 * np.pi * window / rp
             + 8 * np.pi ** 2 * abs(geom.beta2_s2_km) * rp * geom.length_km)
    panels = int(np.ceil(1.5 * omega * rp / (2 * np.pi))) + 8

    nodes, wts = np.polynomial.legendre.leggauss(12)
    edges = np.linspace(-rp / 2.0, rp / 2.0, panels + 1)
    mid = (edges[:-1] + edges[1:]) / 2.0
    half = (edges[1:] - edges[:-1]) / 2.0
    f = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()
    w = (half[:, None] * wts[None, :]).ravel()

    kern = step_kernel(f[:, None], f[None, :], geom)
    m = np.arange(-window, window + 1)
    left = (w[:, None] * np.exp(2j * np.pi * np.outer(f, m) / rp))
    right = (w[:, None] * np.exp(-2j * np.pi * np.outer(f, m) / rp))
    d = (left.T @ kern @ right) * reference_power_w / rp ** 2
    return 0.5 * (d + d.conj().T)



def dense_coeff_grid_eval(geom: StepGeometry, separation_hz: float,
                          memory: int, subband_rate: float,
                          reference_power_w: float,
                          num_nodes: int) -> np.ndarray:
    """kernel._coeff_grid_eval on the dense n x n grid (reference).

    Builds the whole Hermitian-part kernel, sums its diagonals with
    np.trace and applies the (2 memory + 1) x (2n - 1) phase matrix.
    O(n^2) memory; for small grids only.
    """
    rp = subband_rate
    offs = np.linspace(-rp / 2.0, rp / 2.0, num_nodes)
    mu = separation_hz + offs
    kern = step_kernel(mu[:, None], mu[None, :], geom)
    kern = 0.5 * (kern + kern.conj().T)
    wgt = _simpson_weights(num_nodes, rp)
    kern = kern * wgt[:, None] * wgt[None, :]

    # diagonal sums over trace offsets: S[d] = sum_{q-p=d} w_p w_q K[p,q]
    n = num_nodes
    diag_sum = np.empty(2 * n - 1, dtype=complex)
    for off in range(-(n - 1), n):
        diag_sum[off + n - 1] = np.trace(kern, offset=off)

    d = np.arange(-(n - 1), n)
    m = np.arange(-memory, memory + 1)
    phases = np.exp(-2j * np.pi * np.outer(m, d) / (n - 1))
    c = phases @ diag_sum
    return c * reference_power_w / rp ** 2


def split_step_oracle(field: np.ndarray, rate: float, link: LinkConfig,
                      steps: np.ndarray, inverse: bool) -> np.ndarray:
    """Split-step integration of the fiber part of the spans (no EDFA).

    ``field`` is (2, n) and is left unmodified. With ``inverse`` the exact
    inverse of every forward fine step is applied in reverse order (negated
    dispersion and nonlinear rotation, loss turned into growth).
    """
    n = field.shape[-1]
    alpha = link.alpha_np_km
    gamma = link.gamma_w_km
    sgn = -1.0 if inverse else 1.0
    order = steps[::-1] if inverse else steps

    half_cache: dict[float, np.ndarray] = {}
    leff_cache: dict[float, float] = {}
    for dz in order:
        if dz not in half_cache:
            half_cache[dz] = (_gvd_phasor(n, rate, sgn * link.beta2_s2_km, dz / 2.0)
                              * np.exp(-sgn * alpha * dz / 4.0))
            leff_cache[dz] = (dz if alpha == 0.0
                              else 2.0 / alpha * np.sinh(alpha * dz / 2.0))

    spec = np.fft.fft(field, axis=-1)
    for dz in order:
        half = half_cache[dz]
        spec *= half
        field = np.fft.ifft(spec, axis=-1)
        power = np.abs(field[0]) ** 2 + np.abs(field[1]) ** 2
        field *= np.exp(-1j * sgn * gamma * leff_cache[dz] * power)
        spec = np.fft.fft(field, axis=-1)
        spec *= half
    return np.fft.ifft(spec, axis=-1)
