"""Ground-truth fiber propagation: split-step Manakov with EDFA spans.

The forward model is the polarization-coupled (Manakov) nonlinear
Schroedinger equation with attenuation, integrated by the symmetric
split-step Fourier method: each fine step applies half of the linear
operator (dispersion and loss), a nonlinear phase rotation proportional to
the local effective length and the total instantaneous power |x|^2 + |y|^2,
and the second linear half. Dispersion uses H(z, f) = exp(-j 2 pi^2 beta2
f^2 z); the matching nonlinear rotation is exp(-j phi), phi >= 0.

After each span an EDFA restores the span loss exactly and, when enabled,
adds circular complex white Gaussian ASE per polarization.

The backward propagator applies the exact algebraic inverse of every fine
step in reverse order, so a noise-free forward/backward round trip
reconstructs the input to FFT round-off; it doubles as the ideal (fine-step)
digital backpropagation reference.

Every span has the same fine-step plan, so both propagators build the
(half-step phasor, rotation coefficient) operators once per link and hand
them to each span. A span runs in place on the field: each polarization row
is Fourier-transformed as a 1-D array in place, and the total power and the
rotation cos(phi) + j sin(phi) go to work buffers, so no fine step
allocates. The output is bit-identical to the direct loop that builds its
operators per span and allocates every step (``split_step_oracle`` in
tests/oracles.py).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.constants import c as _C_M_S, h as _H_JS

from .signals import DualPolWaveform

LN10_OVER_10 = np.log(10.0) / 10.0


@dataclass(frozen=True)
class LinkConfig:
    """Physical description of the amplified multi-span link."""

    num_spans: int
    span_length_km: float
    alpha_db_per_km: float = 0.2
    dispersion_d_ps_nm_km: float = 17.0
    gamma_w_km: float = 1.27
    edfa_noise_figure_db: float = 4.5
    reference_wavelength_nm: float = 1550.0

    def __post_init__(self):
        if self.num_spans < 1 or self.span_length_km <= 0:
            raise ValueError("link must have at least one positive span")
        if self.alpha_db_per_km < 0 or self.gamma_w_km < 0:
            raise ValueError("alpha and gamma must be non-negative")

    @property
    def alpha_np_km(self) -> float:
        """Power attenuation in 1/km."""
        return self.alpha_db_per_km * LN10_OVER_10

    @property
    def beta2_ps2_km(self) -> float:
        """Derived from D: beta2 = -D lambda^2 / (2 pi c), in ps^2/km."""
        lam_m = self.reference_wavelength_nm * 1e-9
        beta2_s2_m = -self.dispersion_d_ps_nm_km * 1e-6 * lam_m ** 2 / (2 * np.pi * _C_M_S)
        return beta2_s2_m * 1e24 * 1e3

    @property
    def beta2_s2_km(self) -> float:
        return self.beta2_ps2_km * 1e-24

    @property
    def total_length_km(self) -> float:
        return self.num_spans * self.span_length_km

    @property
    def span_gain_db(self) -> float:
        return self.alpha_db_per_km * self.span_length_km

    @property
    def carrier_freq_hz(self) -> float:
        return _C_M_S / (self.reference_wavelength_nm * 1e-9)

    @property
    def span_effective_length_km(self) -> float:
        a = self.alpha_np_km
        if a == 0:
            return self.span_length_km
        return (1.0 - np.exp(-a * self.span_length_km)) / a


@dataclass(frozen=True)
class SimSettings:
    """Split-step controller and noise switches for the ground truth.

    Exactly one of ``step_km`` (uniform fine steps) and ``max_phase_rad``
    (steps bounded by the nonlinear phase accumulated per step, denser where
    the power is high, capped at ``max_step_km``) selects the controller.
    """

    step_km: float | None = None
    max_phase_rad: float | None = None
    max_step_km: float = 1.0
    noise_enabled: bool = True
    noise_seed: int = 0

    def __post_init__(self):
        if self.step_km is None and self.max_phase_rad is None:
            object.__setattr__(self, "step_km", 0.1)
        if (self.step_km is None) == (self.max_phase_rad is None):
            raise ValueError("set exactly one of step_km / max_phase_rad")
        bound = self.step_km if self.step_km is not None else self.max_phase_rad
        if bound <= 0 or self.max_step_km <= 0:
            raise ValueError("step controller bounds must be positive")


def span_step_sizes(link: LinkConfig, sim: SimSettings,
                    launch_power_w: float) -> np.ndarray:
    """Fine-step lengths (km) covering one span, identical for every span."""
    length = link.span_length_km
    if sim.step_km is not None:
        k = max(1, int(np.ceil(length / sim.step_km - 1e-12)))
        return np.full(k, length / k)

    a = link.alpha_np_km
    leff = link.span_effective_length_km
    k = max(1, int(np.ceil(link.gamma_w_km * launch_power_w * leff
                           / sim.max_phase_rad)))
    i = np.arange(1, k)
    if a > 0:
        phase_pts = -np.log(1.0 - (i / k) * (1.0 - np.exp(-a * length))) / a
    else:
        phase_pts = length * i / k
    cap = max(1, int(np.ceil(length / sim.max_step_km - 1e-12)))
    grid_pts = length * np.arange(1, cap) / cap
    cuts = np.unique(np.concatenate([[0.0], phase_pts, grid_pts, [length]]))
    return np.diff(cuts)


def _gvd_phasor(n: int, rate: float, beta2_s2_km: float, dz_km: float) -> np.ndarray:
    f = np.fft.fftfreq(n, d=1.0 / rate)
    return np.exp(-2j * np.pi ** 2 * beta2_s2_km * f ** 2 * dz_km)


def ase_variance_per_pol(link: LinkConfig, bandwidth_hz: float) -> float:
    """Total ASE power (W) per polarization over ``bandwidth_hz``.

    PSD per polarization h nu (G F - 1) / 2 from the amplifier gain G and
    noise figure F (linear).
    """
    gain = 10.0 ** (link.span_gain_db / 10.0)
    nf = 10.0 ** (link.edfa_noise_figure_db / 10.0)
    psd = _H_JS * link.carrier_freq_hz * (gain * nf - 1.0) / 2.0
    return psd * bandwidth_hz


def edfa(w: DualPolWaveform, gain_db: float, nf_db: float, seed,
         noise_enabled: bool = True, carrier_hz: float | None = None) -> DualPolWaveform:
    """Lumped amplifier: scalar field gain plus seeded ASE loading.

    ASE per polarization is circular complex Gaussian with total power
    h nu (G F - 1) / 2 per Hz over the simulated band, nu defaulting to the
    1550 nm carrier.
    """
    if gain_db < 0:
        raise ValueError("EDFA gain must be non-negative")
    g = 10.0 ** (gain_db / 20.0)
    out = DualPolWaveform(w.field * g, w.sample_rate, w.center_freq)
    if noise_enabled:
        gain = 10.0 ** (gain_db / 10.0)
        nf = 10.0 ** (nf_db / 10.0)
        nu = _C_M_S / 1550e-9 if carrier_hz is None else carrier_hz
        var = _H_JS * nu * (gain * nf - 1.0) / 2.0 * w.sample_rate
        # drawn in the order x re, x im, y re, y im
        draws = np.random.default_rng(seed).standard_normal(
            (2, 2, w.num_samples))
        out.field += np.sqrt(var / 2.0) * (draws[:, 0] + 1j * draws[:, 1])
    return out


def _step_operators(n: int, rate: float, link: LinkConfig, steps: np.ndarray,
                    inverse: bool) -> list[tuple[np.ndarray, float]]:
    """(half-step phasor, rotation coefficient) of every fine step of a span.

    Listed in the order ``_run_spans`` applies them; with ``inverse`` the
    steps run in reverse with negated dispersion and rotation and loss
    turned into growth. Steps of equal length share one phasor array, so
    the list holds one array per distinct step length.
    """
    alpha = link.alpha_np_km
    sgn = -1.0 if inverse else 1.0
    built: dict[float, tuple[np.ndarray, float]] = {}
    for dz in steps:
        if dz not in built:
            half = (_gvd_phasor(n, rate, sgn * link.beta2_s2_km, dz / 2.0)
                    * np.exp(-sgn * alpha * dz / 4.0))
            leff = dz if alpha == 0.0 else 2.0 / alpha * np.sinh(alpha * dz / 2.0)
            built[dz] = (half, -sgn * link.gamma_w_km * leff)
    return [built[dz] for dz in (steps[::-1] if inverse else steps)]


def _run_spans(field: np.ndarray,
               operators: list[tuple[np.ndarray, float]]) -> None:
    """Split-step integration of the fiber part of one span (no EDFA).

    ``field`` is a C-contiguous (2, n) complex128 array and is transformed
    in place by ``operators``, the per-link list from ``_step_operators``.
    Each polarization row is transformed as a 1-D array in place (a batch
    transform of the (2, n) field allocates scratch on every call), and the
    power P, the phase coef P and the rotation exp(j coef P), written as
    cos + j sin, go to work buffers allocated once per call, so no fine step
    allocates.
    """
    n = field.shape[-1]
    power = np.empty(n)
    phase = np.empty(n)
    rot = np.empty(n, dtype=np.complex128)

    def fft_rows(transform):
        for row in field:
            transform(row, out=row)

    fft_rows(np.fft.fft)
    for half, coef in operators:
        field *= half
        fft_rows(np.fft.ifft)
        np.square(np.abs(field[0], out=power), out=power)
        np.square(np.abs(field[1], out=phase), out=phase)
        power += phase
        np.multiply(power, coef, out=phase)
        np.cos(phase, out=rot.real)
        np.sin(phase, out=rot.imag)
        field *= rot
        fft_rows(np.fft.fft)
        field *= half
    fft_rows(np.fft.ifft)


def propagate_link(w: DualPolWaveform, link: LinkConfig, sim: SimSettings,
                   checkpoint=None, first_span: int = 0) -> DualPolWaveform:
    """Propagate through every span of the link, EDFA after each span.

    ASE is seeded per span from sim.noise_seed, so runs are reproducible and
    spans are statistically independent. ``checkpoint(span_index, waveform)``
    is called with a snapshot after each amplifier when provided. Passing
    first_span > 0 resumes a checkpointed run: w must then be the snapshot
    taken after amplifier first_span, and the remaining spans keep the seeds
    they would have had in the uninterrupted run.
    """
    w.require_finite()
    _check_headroom(w)
    operators = _step_operators(w.num_samples, w.sample_rate, link,
                                span_step_sizes(link, sim, w.power),
                                inverse=False)
    out = w.copy()
    for span in range(first_span, link.num_spans):
        _run_spans(out.field, operators)
        out = edfa(out, link.span_gain_db, link.edfa_noise_figure_db,
                   (sim.noise_seed, span), noise_enabled=sim.noise_enabled,
                   carrier_hz=link.carrier_freq_hz)
        if checkpoint is not None:
            checkpoint(span + 1, out.copy())
    return out


def backward_propagate(w: DualPolWaveform, link: LinkConfig,
                       sim: SimSettings) -> DualPolWaveform:
    """Exact noise-free inverse of propagate_link (ideal backpropagation).

    Spans are undone last-to-first: the amplifier gain is removed, then the
    fiber fine steps are inverted in reverse order with the same step
    sequence the forward pass used.
    """
    w.require_finite()
    g = 10.0 ** (link.span_gain_db / 20.0)
    # the received power equals the launch power (loss exactly compensated),
    # so this reproduces the forward pass's step sequence
    operators = _step_operators(w.num_samples, w.sample_rate, link,
                                span_step_sizes(link, sim, w.power),
                                inverse=True)
    out = w.copy()
    for _ in range(link.num_spans):
        out.field /= g
        _run_spans(out.field, operators)
    return out


def _check_headroom(w: DualPolWaveform, edge_fraction: float = 0.04,
                    max_energy_fraction: float = 0.02):
    """Reject inputs whose spectrum already fills the outer band edge."""
    spec = np.sum(np.abs(np.fft.fft(w.field, axis=-1)) ** 2, axis=0)
    n = spec.size
    k = max(1, int(edge_fraction * n / 2))
    edge = np.sum(spec[n // 2 - k:n // 2 + k])
    total = np.sum(spec)
    if total > 0 and edge / total > max_energy_fraction:
        raise ValueError(
            "sample rate leaves no spectral headroom for nonlinear broadening")
