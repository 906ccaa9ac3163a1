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
passes the perturbed sets of a Jacobian. A pass runs on its caller and,
while a CPU is idle, one helper thread from the process's CPU budget
(cpus): one set's blocks, or a batch's sets, are cut in two halves, and
each thread runs its half with its own buffers and the shared read-only
plan. Every block of every set runs the same code either way, so the
output does not depend on the thread count.

Variants
--------
CB_ESSFM  MIMO filter over N_sb subbands, applied per rfft bin (nlpr_step)
ESSFM     N_sb = 1, circular time-domain FIR of the intensity
OSSFM     ESSFM with a single tap
EDC       dispersion compensation only (N_st = 0)

The ideal-backpropagation reference is not a variant: it is
channel.backward_propagate on a uniform fine-step plan.

Backpropagation uses the transmission fiber's parameters with opposite
signs; coefficient sets built here are already negated accordingly.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from functools import partial
from types import MappingProxyType

import numpy as np

from .channel import LinkConfig, dispersion_phase
from .cpus import in_two
from .kernel import (CoefficientSet, StepGeometry, analytic_coefficients,
                     coefficient_memory, geometry_fingerprint)
from .signals import DualPolWaveform, check_numbers

VARIANTS = ("EDC", "OSSFM", "ESSFM", "CB_ESSFM")
COEFFICIENT_SOURCES = ("analytic", "optimized")
TAP_SAFETY = 1.5  # tap support over the walk-off memory rule


@dataclass(frozen=True)
class DbpConfig:
    """Engine configuration; the physical link is part of the config.

    n_steps is the number of nonlinear steps N_st (0 for EDC), each of
    link length / N_st. n_steps, n_subbands, block_size and overlap are
    integers. oversampling records the samples per symbol the engine runs
    at, at least 1 (used by the cost model and block planning, not by the
    math). Every invalid field raises ValueError here, before any run.
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
        check_numbers(self)
        if not self.oversampling >= 1:
            raise ValueError("oversampling must be finite and >= 1: the "
                             "backpropagation rate is at least the symbol "
                             "rate")
        if self.variant == "EDC":
            if self.n_steps != 0:
                raise ValueError("EDC means zero nonlinear steps")
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
        """Whether the engine reads a coefficient set: not for EDC or zero
        nonlinear steps."""
        return self.variant != "EDC" and self.n_steps > 0

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
    The rotation is cos + j sin of theta times the negated scale, which
    rounds as -(theta * scale), and so as np.exp(-1j * theta * scale).
    """
    intens, theta, rot = work
    np.square(np.abs(fields[:, 0], out=intens), out=intens)
    np.square(np.abs(fields[:, 1], out=theta), out=theta)
    intens += theta
    phase(intens, theta)
    theta *= -scales[:, None, None]
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
    return coefficient_memory(h, cfg.step_geometry(), sample_rate_hz,
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
        n_sb=n_sb, subband_rate=sub_rate, reference_power_w=reference_power_w,
        phase_norm_rad=-cfg.link.gamma_w_km * reference_power_w
        * geom.effective_length_km,
        step_scales=scales,
        geometry_hash=geometry_fingerprint(geom, n_sb, sub_rate, cfg.n_steps),
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


# a run cycles through a handful of geometries (perfbench's receiver
# ladder through six, its tuned splitting-ratio sweep through four), and
# a plan at 16384-sample blocks holds at most about 1 MB
@functools.lru_cache(maxsize=8)
def _dispersion_plan(beta2_s2_km: float, rate: float, n: int, n_sb: int,
                     lengths: tuple) -> tuple:
    """The data-independent part of an engine: (phasors, split, merge).

    phasors maps each dispersion length in ``lengths`` (km) to its
    (n_sb, n / n_sb) compensation at the absolute frequency of each block
    bin; split and merge are the subband gathers (None at n_sb = 1, where
    they are the identity). Every array is read-only, since the cache
    shares it between engines and threads.
    """
    n_prime = n // n_sb
    split = merge = None
    freqs = np.fft.fftfreq(n, 1.0 / rate)
    if n_sb > 1:
        # block bin of subband s, subband bin k: the fftshifted block
        # spectrum cut into n_sb pieces, each ifftshifted
        split = np.fft.ifftshift(
            np.fft.fftshift(np.arange(n)).reshape(n_sb, n_prime), axes=-1)
        merge = np.argsort(split.ravel())
        freqs = freqs[split]
        split.flags.writeable = merge.flags.writeable = False
    # the compensation exp(-1j dz k) as cos + j sin of -dz k, which is how
    # np.exp rounds it (its real part is +-0)
    k = dispersion_phase(beta2_s2_km, freqs)
    arg = np.empty(k.shape)
    phasors = {}
    for dz in lengths:
        phasor = phasors[dz] = np.empty(k.shape, dtype=complex)
        np.multiply(k, -dz, out=arg)
        np.cos(arg, out=phasor.real)
        np.sin(arg, out=phasor.imag)
        phasor.flags.writeable = False
    return MappingProxyType(phasors), split, merge


class _BlockEngine:
    """Precomputed per-block plan for B tap sets that share one config.

    Every set runs the same config on the same input block; only the taps
    (and their power scales) differ. Every variant runs one step loop on a
    (b, 2, N_sb, N') subband array, with N_sb = 1 for EDC, OSSFM and ESSFM:
    per-subband dispersion, then the nonlinear phase rotation. The variant
    chooses only the rotation's phase filter (the MIMO transfer for
    CB_ESSFM, the per-set FIR for OSSFM and ESSFM). The dispersion plan
    (phasors per dispersion length, and the subband split and merge
    gathers, skipped at N_sb = 1 where they are the identity) depends on
    the geometry only and comes from a bounded cache, _dispersion_plan, so
    engines of one geometry share it; construction does only the per-set
    work: validation, scales and the phase filter. The whole plan is
    read-only once built, so threads share it. ``lane(sets)`` gives one
    thread the plan's view for a slice of the sets and its own buffers,
    allocated once; ``process`` maps one (2, N) block to that lane's
    (b, 2, N) outputs, in a buffer that the lane's next call overwrites.
    """

    def __init__(self, cfg: DbpConfig, rate: float, coeff_sets: list):
        self.cfg = cfg
        n = cfg.block_size
        n_sb = cfg.n_subbands
        n_prime = n // n_sb
        self.batch = len(coeff_sets)

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
                built = coeffs.subband_rate * n_sb
                if not math.isclose(built, rate, rel_tol=1e-12):
                    raise ValueError(
                        f"coefficient set built for a {built:.10g} Hz "
                        f"sample rate, waveform sampled at {rate:.10g} Hz")
                if coeffs.num_steps != cfg.n_steps:
                    raise ValueError(
                        f"coefficient set built for {coeffs.num_steps} steps, "
                        f"config runs {cfg.n_steps}")
                if cfg.variant != "CB_ESSFM" and 0 not in coeffs.coeffs:
                    raise ValueError(
                        f"{cfg.variant} needs separation-0 taps; the set "
                        f"has separations {sorted(coeffs.coeffs)}")
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
            # the phase filter holds the taps only, never the engine; a
            # lane applies it to its own slice of the per-set data
            if cfg.variant == "CB_ESSFM":
                self.filter = (_mimo_phase, np.stack(
                    [build_mimo_transfer(c, n_prime) for c in coeff_sets]))
            else:
                self.filter = (_fir_phase, [c.coeffs[0] for c in coeff_sets])

        self.phasors, self.split, self.merge = _dispersion_plan(
            cfg.link.beta2_s2_km, rate, n, n_sb,
            tuple(sorted(set(self.gvd_lengths + [self.final_gvd]))))

    def lane(self, sets: slice) -> tuple:
        """One thread's view of the sets ``sets``: their phase filter and
        scales (views of the plan) and its own (sub, out, work) buffers."""
        n = self.cfg.block_size
        n_sb = self.cfg.n_subbands
        batch = len(range(self.batch)[sets])
        sub = np.empty((batch, 2, n_sb, n // n_sb), dtype=complex)
        out = sub.reshape(batch, 2, n)
        if self.merge is not None:
            out = np.empty((batch, 2, n), dtype=complex)
        if not self.gvd_lengths:
            return None, None, sub, out, None
        fn, data = self.filter
        return (partial(fn, data[sets]), self.scales[sets], sub, out,
                _rotation_work(batch, n_sb, n // n_sb))

    def process(self, blk: np.ndarray, lane: tuple) -> np.ndarray:
        phase, scales, sub, out, work = lane
        n_sb = self.cfg.n_subbands
        spec = np.fft.fft(blk, axis=-1)
        if self.split is None:
            sub[:] = spec[:, None]
        else:
            np.divide(spec[:, self.split], n_sb, out=sub)
        for st, dz in enumerate(self.gvd_lengths):
            sub *= self.phasors[dz]
            np.fft.ifft(sub, axis=-1, out=sub)
            _nonlinear_step(sub, phase, scales[:, st], work)
            np.fft.fft(sub, axis=-1, out=sub)
        sub *= self.phasors[self.final_gvd]
        if self.merge is not None:
            sub *= n_sb
            np.take(sub.reshape(out.shape), self.merge, axis=-1, out=out)
        return np.fft.ifft(out, axis=-1, out=out)


def _run_blocks(w: DualPolWaveform, cfg: DbpConfig, coeff_sets: list,
                counter=None) -> np.ndarray:
    """(B, 2, n) outputs of one engine pass of B tap sets over w's blocks.

    cpus.in_two runs the pass whole in the caller or cut in two halves,
    the second on a helper thread: by blocks for one set and by sets for
    several. It cuts when the helper's blocks hold at least cpus.MIN_SHARE
    samples (both polarizations of its sets) and a CPU is idle. Each part
    has its own lane of buffers and writes its own slice of the output,
    and every block of every set runs the same code either way, so the
    output is the same bits. A counter, if given, tallies the blocks
    processed in counter.blocks, in the calling thread.
    """
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
    batch = len(coeff_sets)
    out = np.empty((batch,) + field.shape, dtype=complex)
    half = cfg.overlap // 2
    nblocks = int(np.ceil(n / keep))

    def run(k, parts):
        blocks, sets = range(nblocks), slice(None)
        if batch == 1:
            blocks = blocks[_part(nblocks, k, parts)]
        else:
            sets = _part(batch, k, parts)
        lane = engine.lane(sets)
        for b in blocks:
            start = (b * keep - half) % n
            idx = (start + np.arange(cfg.block_size)) % n
            proc = engine.process(field[:, idx], lane)
            span = min(keep, n - b * keep)
            cols = slice(b * keep, b * keep + span)
            out[sets, :, cols] = proc[..., half: half + span]

    # samples per array operation in the helper's part: its blocks of the
    # one set, or every block of its half of the sets, both polarizations
    if batch == 1:
        share = 2 * cfg.block_size if nblocks > 1 else 0
    else:
        share = 2 * cfg.block_size * (batch // 2)
    in_two(run, share)
    if counter is not None:
        counter.blocks += nblocks
    return out


def _part(size: int, k: int, parts: int) -> slice:
    """Part k of ``parts`` near-equal parts of range(size), the first ones
    the longer."""
    return slice(-(-k * size // parts), -(-(k + 1) * size // parts))


def run_dbp(w: DualPolWaveform, cfg: DbpConfig,
            coeffs: CoefficientSet | None = None,
            counter=None) -> DualPolWaveform:
    """Backpropagate a waveform with the configured variant.

    Blockwise overlap-and-save: blocks of block_size samples advance by
    block_size - overlap, and overlap/2 samples are discarded on each side
    of every processed block. The input is treated as circular, which makes
    the framing exact for the periodic test signals used throughout. A
    counter (complexity.CostCounter) tallies the blocks processed.
    """
    w.require_finite()
    out = _run_blocks(w, cfg, [coeffs], counter)[0]
    return DualPolWaveform(out, w.sample_rate, w.center_freq)
