"""Validation oracles for the kernel, channel, dbp and optimize modules.

Each oracle computes what a fiberdbp routine computes by a slower, more
direct route: quadrature of the step kernel, dense Gauss-Legendre Volterra
coefficients, the dense n x n kernel transform that the row-chunked one
replaced, the allocating split-step loop, with one full-length phasor per
step length, that the in-place one replaced, the allocating one-set block
engine that the batched one replaced, and the coefficient optimizer that
evaluated its finite-difference Jacobian one backpropagation run at a time.
"""

from dataclasses import replace

import numpy as np

from fiberdbp.channel import LinkConfig, dispersion_phase
from fiberdbp.dbp import DbpConfig, build_mimo_transfer
from fiberdbp.kernel import StepGeometry, _beat, _simpson_weights, step_kernel
from fiberdbp.metrics import (prepare_dbp_input, remove_mean_phase,
                              symbols_from_dbp_output)
from fiberdbp.optimize import _fit_least_squares
from fiberdbp.signals import DualPolWaveform


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


def _gvd_phasor(n: int, rate: float, beta2_s2_km: float, dz_km: float) -> np.ndarray:
    f = np.fft.fftfreq(n, d=1.0 / rate)
    return np.exp(-2j * np.pi ** 2 * beta2_s2_km * f ** 2 * dz_km)


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


def _nlpr_oracle(fields, mimo, theta_scale):
    intens = np.abs(fields[0]) ** 2 + np.abs(fields[1]) ** 2
    spec_i = np.fft.rfft(intens, axis=-1)
    theta_hat = np.einsum("ilk,lk->ik", mimo, spec_i)
    theta = np.fft.irfft(theta_hat, n=fields.shape[-1], axis=-1) * theta_scale
    return fields * np.exp(-1j * theta)[None, :, :]


def dbp_oracle(w: DualPolWaveform, cfg: DbpConfig, coeffs=None) -> np.ndarray:
    """Blockwise backpropagation of one waveform with one tap set.

    The engine as it was before it took a batch of tap sets: fresh arrays
    at every step, exp(-j theta) rotations, and an fftshift / ifftshift
    round trip around the subband split. Returns the (2, n) output field.
    """
    n, n_sb, bs = w.num_samples, cfg.n_subbands, cfg.block_size
    n_prime = bs // n_sb
    rate = w.sample_rate
    if cfg.n_steps == 0:
        lengths, final = [], cfg.link.total_length_km
    else:
        step, rho = cfg.step_length_km, cfg.splitting_ratio
        lengths = [(1 - rho) * step] + [rho * step + (1 - rho) * step] * (
            cfg.n_steps - 1)
        final = rho * step
        scales = coeffs.step_scales / coeffs.reference_power_w
    if cfg.variant == "CB_ESSFM":
        # the absolute frequency of each bin, split as process() splits
        freqs = np.fft.ifftshift(np.fft.fftshift(np.fft.fftfreq(
            bs, 1.0 / rate)).reshape(n_sb, n_prime), axes=-1)
        if cfg.n_steps:
            mimo = build_mimo_transfer(coeffs, n_prime)
    else:
        freqs = np.fft.fftfreq(bs, 1.0 / rate)
    k = dispersion_phase(cfg.link.beta2_s2_km, freqs)
    phasors = {dz: np.exp(-1j * dz * k) for dz in set(lengths + [final])}

    def process(blk):
        if cfg.variant == "CB_ESSFM":
            spec = np.fft.fftshift(np.fft.fft(blk, axis=-1), axes=-1)
            sub = np.fft.ifftshift(spec.reshape(2, n_sb, n_prime) / n_sb,
                                   axes=-1)
            for st in range(cfg.n_steps):
                sub = sub * phasors[lengths[st]]
                fields = _nlpr_oracle(np.fft.ifft(sub, axis=-1), mimo,
                                      scales[st])
                sub = np.fft.fft(fields, axis=-1)
            sub = sub * phasors[final]
            spec = np.fft.fftshift(sub, axes=-1).reshape(2, bs) * n_sb
            return np.fft.ifft(np.fft.ifftshift(spec, axes=-1), axis=-1)
        spec = np.fft.fft(blk, axis=-1)
        for st in range(cfg.n_steps):
            taps = coeffs.coeffs[0]
            wing = (taps.size - 1) // 2
            spec = spec * phasors[lengths[st]]
            field = np.fft.ifft(spec, axis=-1)
            intens = np.abs(field[0]) ** 2 + np.abs(field[1]) ** 2
            if wing:
                padded = np.concatenate([intens[-wing:], intens,
                                         intens[:wing]])
                theta = np.convolve(padded, taps[::-1], mode="valid")
            else:
                theta = taps[0] * intens
            field *= np.exp(-1j * theta * scales[st])[None, :]
            spec = np.fft.fft(field, axis=-1)
        spec = spec * phasors[final]
        return np.fft.ifft(spec, axis=-1)

    keep = bs - cfg.overlap
    half = cfg.overlap // 2
    out = np.empty_like(w.field)
    for b in range(int(np.ceil(n / keep))):
        idx = ((b * keep - half) % n + np.arange(bs)) % n
        span = min(keep, n - b * keep)
        out[:, b * keep: b * keep + span] = process(w.field[:, idx])[
            :, half: half + span]
    return out


def solve_in_package(fun, x0, max_nfev):
    """The tuner's trust-region fit, one residual evaluation at a time."""
    x, f, _ = _fit_least_squares(lambda xs: map(fun, xs), x0, max_nfev)
    return x, f


def optimize_oracle(train, cfg: DbpConfig, init, solve=solve_in_package):
    """Band-by-band tap fit that runs one backpropagation per residual.

    The coefficient optimizer before its Jacobian columns were batched:
    solve(fun, x0, max_nfev) -> (x, fun(x)) fits each band, by default
    with the tuner's own solver evaluating fun point by point, over
    dbp_oracle. Returns (taps by separation, training MSE path).
    """
    idx = (train.wdm.num_channels - 1) // 2
    w = prepare_dbp_input(train.train_rx, train.wdm, cfg, idx)
    tx = train.train_record.channel(idx)

    def residuals(coeffs):
        out = DualPolWaveform(dbp_oracle(w, cfg, coeffs), w.sample_rate,
                              w.center_freq)
        rx, _ = remove_mean_phase(symbols_from_dbp_output(out, train.wdm), tx)
        r = (rx - tx).ravel() / np.sqrt(2 * rx.shape[-1])
        return np.concatenate([r.real, r.imag])

    def unpack(params, h):
        return params.copy() if h else np.concatenate([params[:0:-1], params])

    current = replace(init, coeffs={h: np.zeros_like(c)
                                    for h, c in init.coeffs.items()})
    path = []
    for h in sorted(init.coeffs):
        c = init.coeffs[h]
        x0 = c[(c.size - 1) // 2:] if h == 0 else c.copy()

        def fun(params, h=h):
            return residuals(replace(current, coeffs={
                **current.coeffs, h: unpack(params, h)}))

        x, f = solve(fun, x0, 50 * (x0.size + 1))
        current = replace(current, coeffs={**current.coeffs,
                                           h: unpack(x, h)})
        path.append(float(np.sum(f ** 2)))
    return current.coeffs, tuple(path)
