"""Coupled-band enhanced split-step digital backpropagation engine.

The engine undoes fiber propagation blockwise (overlap-and-save): each block
of N samples is Fourier transformed, partitioned into N_sb contiguous
subbands of N' = N / N_sb bins (the package's only subband split, done on
the block spectrum and undone after the last step), and run through N_st
asymmetric steps. A step applies dispersion compensation per subband (at
the subband's absolute frequencies, so inter-subband walk-off is carried by
the dispersion phase) followed by a nonlinear phase rotation of the
(2, N_sb, N') time-domain field array by a filtered function of the joint
intensity. The first step compensates a fraction (1 - rho) of a step length
of dispersion, interior steps a full length (adjacent half-blocks merged),
and a final dispersion stage adds the remaining rho fraction, so the
rotation sits at fraction rho inside each step. Every variant runs this one
step loop; the single-band variants are the case N_sb = 1, and a variant
differs from another only in the filter that turns intensity into phase.
One engine pass can carry a batch of tap sets on the same input (a leading
axis on every array); run_dbp passes one set, and the coefficient optimizer
passes the perturbed sets of a Jacobian.

Variants
--------
CB_ESSFM    MIMO filter over N_sb subbands, applied per rfft bin (nlpr_step)
ESSFM       N_sb = 1, circular time-domain FIR of the intensity
OSSFM       ESSFM with a single tap
EDC         dispersion compensation only (N_st = 0)
IDEAL_SSFM  fine-step inverse split-step over the whole sequence (oracle)

Backpropagation uses the transmission fiber's parameters with opposite
signs; coefficient sets built here are already negated accordingly.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np

from .channel import LinkConfig, SimSettings, backward_propagate
from .kernel import (CoefficientSet, StepGeometry, analytic_coefficients,
                     coefficient_memory, geometry_fingerprint)
from .signals import DualPolWaveform

VARIANTS = ("EDC", "OSSFM", "ESSFM", "CB_ESSFM", "IDEAL_SSFM")
COEFFICIENT_SOURCES = ("analytic", "optimized")
TAP_SAFETY = 1.5  # tap support over the walk-off memory rule


@dataclass(frozen=True)
class DbpConfig:
    """Engine configuration; the physical link is part of the config.

    n_steps is the number of nonlinear steps N_st (0 for EDC; total
    fine-step count for IDEAL_SSFM). oversampling records the samples per
    symbol the engine runs at (used by the cost model and block planning,
    not by the math).
    """

    link: LinkConfig
    variant: str = "CB_ESSFM"
    n_steps: int = 1
    n_subbands: int = 1
    splitting_ratio: float = 0.5
    block_size: int = 8192
    overlap: int = 0
    oversampling: float = 1.125
    coefficient_source: str = "analytic"

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.coefficient_source not in COEFFICIENT_SOURCES:
            raise ValueError(
                f"unknown coefficient_source {self.coefficient_source!r}; "
                f"expected one of {COEFFICIENT_SOURCES}")
        if self.variant == "EDC":
            if self.n_steps != 0:
                raise ValueError("EDC means zero nonlinear steps")
        elif self.variant == "IDEAL_SSFM":
            if self.n_steps < 1:
                raise ValueError("IDEAL_SSFM needs at least one fine step")
        elif self.n_steps < 0:
            raise ValueError("n_steps must be >= 0")
        if self.variant in ("OSSFM", "ESSFM") and self.n_subbands != 1:
            raise ValueError(f"{self.variant} is single-band")
        if self.n_subbands < 1:
            raise ValueError("n_subbands must be >= 1")
        if not 0.0 <= self.splitting_ratio <= 1.0:
            raise ValueError("splitting_ratio must be in [0, 1]")
        if self.block_size <= self.overlap or self.overlap < 0:
            raise ValueError("need block_size > overlap >= 0")
        if self.block_size % self.n_subbands:
            raise ValueError("block_size must divide into n_subbands")
        if self.overlap % (2 * self.n_subbands):
            raise ValueError("overlap must be a multiple of 2*n_subbands")

    @property
    def uses_coefficients(self) -> bool:
        """Whether the engine reads a coefficient set: not for EDC, the
        fine-step oracle, or zero nonlinear steps."""
        return self.variant not in ("EDC", "IDEAL_SSFM") and self.n_steps > 0

    @property
    def step_length_km(self) -> float:
        return self.link.total_length_km / max(self.n_steps, 1)

    def step_geometry(self) -> StepGeometry:
        """Geometry of one (span-aligned, representative) step."""
        return StepGeometry(
            length_km=self.step_length_km,
            span_km=self.link.span_length_km,
            alpha_db_km=self.link.alpha_db_per_km,
            beta2_ps2_km=self.link.beta2_ps2_km,
            gamma_w_km=self.link.gamma_w_km,
            rho=self.splitting_ratio)


def channel_memory_samples(link: LinkConfig, bandwidth_hz: float,
                           sample_rate_hz: float) -> int:
    """Duration of the link's dispersive response, in samples.

    Group-delay spread 2 pi |beta2| L_total B across bandwidth B, times the
    sample rate.
    """
    spread = (2 * np.pi * abs(link.beta2_s2_km) * link.total_length_km
              * bandwidth_hz)
    return int(np.ceil(spread * sample_rate_hz))


def gvd_phasor(freqs_hz: np.ndarray, delta_z_km: float,
               beta2_ps2_km: float) -> np.ndarray:
    """Dispersion-compensation transfer exp(j 2 pi^2 beta2 dz f^2) per bin.

    The inverse of the fiber's dispersion transfer over delta_z at the given
    bin frequencies; every entry has unit magnitude.
    """
    phase = 2 * np.pi ** 2 * beta2_ps2_km * 1e-24 * delta_z_km * freqs_hz ** 2
    return np.exp(1j * phase)


def build_mimo_transfer(coeffs: CoefficientSet, block_len: int) -> np.ndarray:
    """Per-bin coupling matrices of the nonlinear-phase MIMO filter.

    Returns the (n_sb, n_sb, block_len // 2 + 1) matrix over the real-FFT
    bins of the per-subband block (block_len time samples): entry (i, l)
    filters the intensity of subband l into the phase of subband i. Each tap
    vector c_h is placed as a circular impulse response centered on sample 0
    of the block and real-FFT'd; entry (i, i+h) gets the separation +h
    response, entry (i, i-h) its index-reversed (conjugate) pair, and cross
    terms carry the 3/2 degeneracy prefactor. The diagonal is real because
    same-band coefficients are even-symmetric.
    """
    n_sb = coeffs.n_sb
    matrix = np.zeros((n_sb, n_sb, block_len // 2 + 1), dtype=complex)
    spectra = {}
    for h, c in coeffs.coeffs.items():
        _check_tap_length(h, c, block_len)
        buf = np.zeros(block_len)
        m = np.arange(c.size) - (c.size - 1) // 2
        buf[m % block_len] = c
        spectra[h] = np.fft.rfft(buf)
    for i in range(n_sb):
        for ell in range(n_sb):
            h = ell - i
            if abs(h) not in spectra:
                continue
            resp = spectra[abs(h)]
            if h < 0:
                resp = resp.conj()
            matrix[i, ell] = resp if h == 0 else 1.5 * resp
    diag = matrix[np.arange(n_sb), np.arange(n_sb)]
    peak = np.max(np.abs(diag)) or 1.0
    if np.max(np.abs(diag.imag)) > 1e-10 * peak:
        raise ValueError("diagonal transfer entries must be real")
    return matrix


def _check_tap_length(h: int, taps: np.ndarray, block_len: int):
    if taps.size > block_len:
        raise ValueError(f"separation-{h} taps longer than the block")


def _mimo_phase(matrix: np.ndarray, intens: np.ndarray, theta: np.ndarray):
    """theta_i = irfft(sum_l T[i, l] rfft(I_l)) of (B, n_sb, N') intensities,
    matrix the (B, n_sb, n_sb, N'/2 + 1) stack of the sets' MIMO transfers."""
    spec_i = np.fft.rfft(intens, axis=-1)
    theta_hat = np.einsum("bilk,blk->bik", matrix, spec_i)
    np.fft.irfft(theta_hat, n=intens.shape[-1], axis=-1, out=theta)


def _fir_phase(taps: list, intens: np.ndarray, theta: np.ndarray):
    """theta = circular FIR of the (B, 1, N) single-band intensities, one
    tap vector per set."""
    for row, i_row, c in zip(theta[:, 0], intens[:, 0], taps):
        wing = (c.size - 1) // 2
        if wing:
            padded = np.concatenate([i_row[-wing:], i_row, i_row[:wing]])
            row[:] = np.convolve(padded, c[::-1], mode="valid")
        else:
            np.multiply(i_row, c[0], out=row)


def _nonlinear_step(fields: np.ndarray, phase, scales: np.ndarray,
                    work: tuple):
    """Rotate (B, 2, n_sb, N') time-domain fields in place, B tap sets.

    phase(intens, theta) writes the filtered phase of the (B, n_sb, N')
    joint intensities into theta; scales are the sets' (B,) phase scales.
    work holds the intensity, theta and the rotation, each (B, n_sb, N').
    The rotation is cos + j sin of -theta, which is how np.exp(-1j * theta)
    rounds.
    """
    intens, theta, rot = work
    np.square(np.abs(fields[:, 0], out=intens), out=intens)
    np.square(np.abs(fields[:, 1], out=theta), out=theta)
    intens += theta
    phase(intens, theta)
    theta *= scales[:, None, None]
    np.negative(theta, out=theta)
    np.cos(theta, out=rot.real)
    np.sin(theta, out=rot.imag)
    fields *= rot[:, None]


def _rotation_work(batch: int, n_sb: int, n_prime: int) -> tuple:
    shape = (batch, n_sb, n_prime)
    return np.empty(shape), np.empty(shape), np.empty(shape, dtype=complex)


def nlpr_step(fields: np.ndarray, mimo: np.ndarray,
              theta_scale: float) -> np.ndarray:
    """Apply the nonlinear phase rotation to (2, n_sb, N') time-domain fields.

    theta_i = irfft( sum_l T[i,l] rfft(I_l) ) * theta_scale, where
    I_l = |x_l|^2 + |y_l|^2 and T = mimo (build_mimo_transfer at N'); both
    polarizations of subband i rotate by exp(-j theta_i). Phase-only, so
    per-sample 4D magnitude is preserved. theta_scale is the step's power
    scale over the coefficient set's reference power.
    """
    n_sb = mimo.shape[0]
    if (fields.ndim != 3 or fields.shape[:2] != (2, n_sb)
            or fields.shape[-1] // 2 + 1 != mimo.shape[-1]):
        raise ValueError("transfer matrix does not match the subband set")
    out = np.array(fields, dtype=complex)[None]
    _nonlinear_step(out, partial(_mimo_phase, mimo[None]),
                    np.array([theta_scale]),
                    _rotation_work(1, n_sb, fields.shape[-1]))
    return out[0]


def _tap_memory(cfg: DbpConfig, h: int, sample_rate_hz: float,
                memory: int | None = None) -> int:
    """One-sided tap count N_c of the separation-h vector.

    An explicit ``memory`` wins; otherwise OSSFM gets a single tap (0) and
    every other variant the walk-off memory rule times TAP_SAFETY.
    """
    if memory is not None:
        return memory
    if cfg.variant == "OSSFM":
        return 0
    return coefficient_memory(h, cfg.step_geometry(), 1.0, sample_rate_hz,
                              cfg.n_subbands, safety=TAP_SAFETY)


def make_dbp_coefficient_set(cfg: DbpConfig, sample_rate_hz: float,
                             reference_power_w: float, oversample: int = 8,
                             memory: int | None = None) -> CoefficientSet:
    """Analytic, engine-ready coefficients for a backpropagation config.

    Coefficients are computed for one representative (span-aligned) step of
    the link, negated for backpropagation, and shared by all steps; the
    per-step power decay is carried by step_scales (power at each step's
    forward input relative to launch, in the order the engine applies the
    steps). Tap counts come from the walk-off memory rule times TAP_SAFETY;
    ``memory`` overrides them (0 gives the single-tap set used by OSSFM).
    Configs that read no set (DbpConfig.uses_coefficients) raise ValueError.
    """
    if not cfg.uses_coefficients:
        raise ValueError(f"{cfg.variant} at N_st = {cfg.n_steps} takes no "
                         "coefficient set")
    n_sb = cfg.n_subbands
    sub_rate = sample_rate_hz / n_sb
    geom = cfg.step_geometry()
    coeffs = {}
    for h in range(n_sb):
        mem_h = _tap_memory(cfg, h, sample_rate_hz, memory)
        c = analytic_coefficients(geom, h * sub_rate, max(mem_h, 1), sub_rate,
                                  reference_power_w, oversample=oversample)
        if mem_h == 0:
            c = c[c.size // 2: c.size // 2 + 1]
        coeffs[h] = -c
    return _assemble_set(cfg, sample_rate_hz, reference_power_w, coeffs)


def _assemble_set(cfg: DbpConfig, sample_rate_hz: float,
                  reference_power_w: float, coeffs: dict) -> CoefficientSet:
    n_sb = cfg.n_subbands
    sub_rate = sample_rate_hz / n_sb
    geom = cfg.step_geometry()
    alpha = cfg.link.alpha_np_km
    lsp = cfg.link.span_length_km
    lengths = np.full(cfg.n_steps, cfg.step_length_km)
    starts = np.cumsum(np.concatenate([[0.0], lengths[:-1]]))
    scales = np.exp(-alpha * np.mod(starts, lsp))[::-1]
    return CoefficientSet(
        n_sb=n_sb, subband_rate=sub_rate, subband_spacing=sub_rate,
        reference_power_w=reference_power_w,
        phase_norm_rad=-cfg.link.gamma_w_km * reference_power_w
        * geom.effective_length_km,
        step_scales=scales,
        geometry_hash=geometry_fingerprint(geom, n_sb, sub_rate, sub_rate,
                                           cfg.n_steps),
        coeffs=coeffs)


def standard_ssfm_coefficient_set(cfg: DbpConfig, sample_rate_hz: float,
                                  reference_power_w: float,
                                  memory: int | None = None) -> CoefficientSet:
    """All-zero taps except a central one equal to the per-step nonlinear
    phase at the reference power (the classic split-step starting point)."""
    if not cfg.uses_coefficients:
        raise ValueError(f"{cfg.variant} at N_st = {cfg.n_steps} takes no "
                         "coefficient set")
    coeffs = {h: np.zeros(2 * _tap_memory(cfg, h, sample_rate_hz, memory) + 1)
              for h in range(cfg.n_subbands)}
    out = _assemble_set(cfg, sample_rate_hz, reference_power_w, coeffs)
    coeffs[0][coeffs[0].size // 2] = out.phase_norm_rad
    return out


def _charge_block(counter, cfg: DbpConfig, wing: int):
    """Price one block of the engine on a CostCounter, stage by stage.

    CB_ESSFM pays one outer FFT pair, a subband FFT pair per step and the
    MIMO filter; the single-band variants pay a full-grid FFT pair per
    dispersion stage and a symmetric FIR of one-sided length wing.
    """
    n, n_st, n_sb = cfg.block_size, cfg.n_steps, cfg.n_subbands
    n_prime = n // n_sb
    coupled = cfg.variant == "CB_ESSFM"
    counter.cfft(n, 4 if coupled else 4 * (n_st + 1),
                 "outer_fft" if coupled else "fft")
    counter.fixed_cmul(2 * n * (n_st + 1), "gvd")
    if coupled:
        counter.cfft(n_prime, 4 * n_sb * n_st, "subband_fft")
    if not n_st:
        return
    counter.rmul(4 * n * n_st, "intensity")
    counter.radd(3 * n * n_st, "intensity")
    if coupled:
        cross = n_st * n_sb * (n_sb - 1) * n_prime / 2
        counter.rfft(n_prime, 2 * n_sb * n_st, "mimo")
        counter.fixed_cmul(cross, "mimo")
        counter.real_scale(n_st * n / 2, "mimo")
        counter.cadd(cross, "mimo")
    else:
        counter.rmul(n * (wing + 1) * n_st, "fir")
        counter.radd(n * 2 * wing * n_st, "fir")
    counter.lut_exp(n * n_st)
    counter.pair_shared_cmul(n * n_st, "rotation")


class _BlockEngine:
    """Precomputed per-block state for B tap sets that share one config.

    Every set runs the same config on the same input block; only the taps
    (and their power scales) differ. ``process`` maps one (2, N) block to
    the (B, 2, N) outputs in a buffer that the next call overwrites. Every
    variant runs one step loop on a (B, 2, N_sb, N') subband array, with
    N_sb = 1 for EDC, OSSFM and ESSFM: per-subband dispersion, then the
    nonlinear phase rotation. The variant chooses only the rotation's phase
    filter (the MIMO transfer for CB_ESSFM, the per-set FIR for OSSFM and
    ESSFM) and its counted prices. The steps run in place in buffers
    allocated once per engine; the subband split and merge are two
    precomputed gathers, skipped at N_sb = 1 where they are the identity.
    """

    def __init__(self, cfg: DbpConfig, rate: float, coeff_sets: list):
        self.cfg = cfg
        n = cfg.block_size
        n_sb = cfg.n_subbands
        n_prime = n // n_sb
        batch = len(coeff_sets)
        self.wing = 0

        if cfg.n_steps == 0:
            # zero nonlinear steps (EDC, or any variant at N_st = 0): the
            # single full-length dispersion filter, no coefficients involved
            self.gvd_lengths = []
            self.final_gvd = cfg.link.total_length_km
        else:
            for coeffs in coeff_sets:
                if coeffs is None:
                    raise ValueError(f"{cfg.variant} requires a coefficient set")
                if coeffs.n_sb != n_sb:
                    raise ValueError(
                        "coefficient set built for a different n_subbands")
                if coeffs.num_steps != cfg.n_steps:
                    raise ValueError(
                        f"coefficient set built for {coeffs.num_steps} steps, "
                        f"config runs {cfg.n_steps}")
                for h, c in coeffs.coeffs.items():
                    _check_tap_length(h, c, n_prime)
            self.scales = np.array([c.step_scales / c.reference_power_w
                                    for c in coeff_sets])
            step = cfg.step_length_km
            rho = cfg.splitting_ratio
            # dispersion lengths around the rotations: (1-rho) of the first
            # step, merged interiors, rho of the last
            interior = rho * step + (1 - rho) * step
            self.gvd_lengths = [(1 - rho) * step] + [interior] * (cfg.n_steps - 1)
            self.final_gvd = rho * step
            self.work = _rotation_work(batch, n_sb, n_prime)
            # the phase filter holds the taps only, never the engine
            if cfg.variant == "CB_ESSFM":
                self.phase = partial(_mimo_phase, np.stack(
                    [build_mimo_transfer(c, n_prime) for c in coeff_sets]))
            else:
                taps = [c.coeffs[0] for c in coeff_sets]
                self.phase = partial(_fir_phase, taps)
                self.wing = (taps[0].size - 1) // 2

        # per-subband dispersion at the subbands' absolute frequencies (the
        # block's own grid at N_sb = 1)
        sub_rate = rate / n_sb
        centers = (np.arange(n_sb) + 0.5) * sub_rate - rate / 2
        freqs = centers[:, None] + np.fft.fftfreq(n_prime, 1.0 / sub_rate)[None, :]
        self._phasors = {dz: gvd_phasor(freqs, dz, cfg.link.beta2_ps2_km)
                         for dz in set(self.gvd_lengths + [self.final_gvd])}
        self.sub = np.empty((batch, 2, n_sb, n_prime), dtype=complex)
        self.out = self.sub.reshape(batch, 2, n)
        self.split = self.merge = None
        if n_sb > 1:
            # block bin of subband s, subband bin k: the fftshifted block
            # spectrum cut into n_sb pieces, each ifftshifted
            self.split = np.fft.ifftshift(
                np.fft.fftshift(np.arange(n)).reshape(n_sb, n_prime), axes=-1)
            self.merge = np.argsort(self.split.ravel())
            self.out = np.empty((batch, 2, n), dtype=complex)

    def process(self, blk: np.ndarray, counter=None) -> np.ndarray:
        if counter is not None:
            _charge_block(counter, self.cfg, self.wing)
        n_sb = self.cfg.n_subbands
        sub = self.sub
        spec = np.fft.fft(blk, axis=-1)
        if self.split is None:
            sub[:] = spec[:, None]
        else:
            np.divide(spec[:, self.split], n_sb, out=sub)
        for st, dz in enumerate(self.gvd_lengths):
            sub *= self._phasors[dz]
            np.fft.ifft(sub, axis=-1, out=sub)
            _nonlinear_step(sub, self.phase, self.scales[:, st], self.work)
            np.fft.fft(sub, axis=-1, out=sub)
        sub *= self._phasors[self.final_gvd]
        out = self.out
        if self.merge is not None:
            sub *= n_sb
            np.take(sub.reshape(out.shape), self.merge, axis=-1, out=out)
        return np.fft.ifft(out, axis=-1, out=out)


def _run_blocks(w: DualPolWaveform, cfg: DbpConfig, coeff_sets: list,
                counter=None) -> np.ndarray:
    """(B, 2, n) outputs of one engine pass of B tap sets over w's blocks."""
    n = w.num_samples
    keep = cfg.block_size - cfg.overlap
    if cfg.block_size > n:
        raise ValueError("block_size exceeds the sequence length")
    mem = channel_memory_samples(cfg.link, w.sample_rate, w.sample_rate)
    if cfg.overlap < mem and cfg.block_size < n:
        warnings.warn(
            f"overlap {cfg.overlap} is below the channel memory (~{mem} "
            "samples); blocks will leak dispersion across the discard zone",
            RuntimeWarning)

    engine = _BlockEngine(cfg, w.sample_rate, coeff_sets)
    field = w.field
    out = np.empty((len(coeff_sets),) + field.shape, dtype=complex)
    half = cfg.overlap // 2
    nblocks = int(np.ceil(n / keep))
    for b in range(nblocks):
        start = (b * keep - half) % n
        idx = (start + np.arange(cfg.block_size)) % n
        proc = engine.process(field[:, idx], counter)
        span = min(keep, n - b * keep)
        out[..., b * keep: b * keep + span] = proc[..., half: half + span]
    return out


def run_dbp(w: DualPolWaveform, cfg: DbpConfig,
            coeffs: CoefficientSet | None = None,
            counter=None) -> DualPolWaveform:
    """Backpropagate a waveform with the configured variant.

    Blockwise overlap-and-save: blocks of block_size samples advance by
    block_size - overlap, and overlap/2 samples are discarded on each side
    of every processed block. The input is treated as circular, which makes
    the framing exact for the periodic test signals used throughout.
    IDEAL_SSFM instead runs a fine-step inverse propagation of the whole
    sequence (n_steps fine steps over the link).
    """
    w.require_finite()
    if cfg.variant == "IDEAL_SSFM":
        sim = SimSettings(step_km=cfg.link.total_length_km / cfg.n_steps,
                          noise_enabled=False)
        return backward_propagate(w, cfg.link, sim, w.power)
    out = _run_blocks(w, cfg, [coeffs], counter)[0]
    return DualPolWaveform(out, w.sample_rate, w.center_freq)
