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

Every span has the same fine-step plan, so both propagators build it once
per link as scalars (length, rotation coefficient and loss factor of each
fine step). A span runs in place on the field with work buffers of O(n)
size, whatever the number of distinct step lengths (see ``_run_spans``),
and its output is bit-identical to the direct loop that builds one
full-length phasor per step length and allocates every step
(``split_step_oracle`` in tests/oracles.py).

A span is split like every other cut in two of the package, through
``cpus.in_two`` with the row length as its share: while a CPU is idle and
a row holds at least ``cpus.MIN_SHARE`` samples, it runs its two
polarization rows on two threads, the caller and one helper, which share
one set of work buffers and meet at two barriers per fine step. After the
first, |x|^2 + |y|^2 is complete and each thread computes the rotation
over half of the samples and the next step's phasor over half of the
bins, so that trig is done once; after the second, each thread rotates
and disperses its own row. A span that got a helper keeps it to its end.
Either way the output is the same bits.

A checkpointed link writes each span's snapshot while the next span
propagates: ``propagate_link`` hands the checkpoint callback a copy of
the amplified field on a writer thread, ``fiberdbp-checkpoint``. At most
one checkpoint is in flight, so the calls keep span order and never
overlap. A file replacement waits mostly on a disk flush (tens of ms), so
the writer takes no CPU from the budget of ``cpus.in_two`` and the span
keeps its two row threads. Both threads are ``cpus.helper`` threads: when
each is joined and whose error is raised follows its rules.
"""

from __future__ import annotations

import threading
from contextlib import ExitStack
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import cpus
from .signals import DualPolWaveform, check_numbers

# SI defining constants, exact since 2019
_C_M_S = 299_792_458.0
_H_JS = 6.626_070_15e-34
LN10_OVER_10 = np.log(10.0) / 10.0
# propagate_link refuses a transmitted spectrum with more than
# HEADROOM_MAX_ENERGY_FRACTION of its energy in the outer
# HEADROOM_EDGE_FRACTION of the sampled band
HEADROOM_EDGE_FRACTION = 0.04
HEADROOM_MAX_ENERGY_FRACTION = 0.02


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
        check_numbers(self, positive=("span_length_km",
                                      "reference_wavelength_nm"))
        if self.num_spans < 1:
            raise ValueError("link must have at least one span")
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
    the power is high, capped at ``max_step_km``) selects the controller;
    with neither set, ``max_phase_rad`` is 2e-3, the plan of every shipped
    config.
    """

    step_km: float | None = None
    max_phase_rad: float | None = None
    max_step_km: float = 1.0
    noise_enabled: bool = True
    noise_seed: int = 0

    def __post_init__(self):
        if self.step_km is None and self.max_phase_rad is None:
            object.__setattr__(self, "max_phase_rad", 2e-3)
        if (self.step_km is None) == (self.max_phase_rad is None):
            raise ValueError("set exactly one of step_km / max_phase_rad")
        check_numbers(self, positive=("step_km", "max_phase_rad",
                                      "max_step_km"))


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


def ase_variance_per_pol(link: LinkConfig, bandwidth_hz: float) -> float:
    """Total ASE power (W) per polarization over ``bandwidth_hz``.

    PSD per polarization h nu (G F - 1) / 2 from the amplifier gain G and
    noise figure F (linear).
    """
    gain = 10.0 ** (link.span_gain_db / 10.0)
    nf = 10.0 ** (link.edfa_noise_figure_db / 10.0)
    psd = _H_JS * link.carrier_freq_hz * (gain * nf - 1.0) / 2.0
    return psd * bandwidth_hz


def edfa(w: DualPolWaveform, link: LinkConfig, seed,
         noise_enabled: bool = True) -> DualPolWaveform:
    """Lumped amplifier restoring one span's loss, plus seeded ASE loading.

    The field gain is link.span_gain_db. ASE per polarization is circular
    complex Gaussian with total power ase_variance_per_pol(link,
    w.sample_rate), white over the simulated band.
    """
    g = 10.0 ** (link.span_gain_db / 20.0)
    out = DualPolWaveform(w.field * g, w.sample_rate, w.center_freq)
    if noise_enabled:
        scale = np.sqrt(ase_variance_per_pol(link, w.sample_rate) / 2.0)
        rng = np.random.default_rng(seed)
        # drawn in the order x re, x im, y re, y im, one row at a time
        draws = np.empty((2, w.num_samples))
        for row in out.field:
            rng.standard_normal(out=draws)
            draws *= scale
            row.real += draws[0]
            row.imag += draws[1]
    return out


def dispersion_phase(beta2_s2_km: float, freqs_hz: np.ndarray) -> np.ndarray:
    """k = -2 pi^2 beta2 f^2 per km (beta2 in s^2/km, f in Hz): the fiber's
    dispersion over z is exp(1j z k), and its compensation exp(-1j z k)."""
    return -2.0 * np.pi ** 2 * beta2_s2_km * freqs_hz ** 2


def _step_operators(link: LinkConfig, steps: np.ndarray, inverse: bool
                    ) -> tuple[float, list[tuple[float, float, float]]]:
    """Signed beta2 and per-step scalars of a span's fine steps.

    Returns beta2 in s^2/km (negated with ``inverse``) and, in the order
    ``_run_spans`` applies them, (dz, rotation coefficient, half-step loss
    factor) for every fine step; with ``inverse`` the steps run in reverse
    with negated rotation and loss turned into growth. Nothing here depends
    on the sample count: ``_run_spans`` builds each step's phasor in place.
    """
    alpha = link.alpha_np_km
    sgn = -1.0 if inverse else 1.0
    ops = []
    for dz in (steps[::-1] if inverse else steps):
        leff = dz if alpha == 0.0 else 2.0 / alpha * np.sinh(alpha * dz / 2.0)
        ops.append((dz, -sgn * link.gamma_w_km * leff,
                    np.exp(-sgn * alpha * dz / 4.0)))
    return sgn * link.beta2_s2_km, ops


def _run_spans(field: np.ndarray, rate: float,
               operators: tuple[float, list[tuple[float, float, float]]]
               ) -> None:
    """Split-step integration of the fiber part of one span (no EDFA).

    ``field`` is a C-contiguous (2, n) complex128 array sampled at ``rate``
    and is transformed in place by ``operators``, the per-link plan from
    ``_step_operators``. Each polarization row is transformed as a 1-D
    array in place (a batch transform of the (2, n) field allocates scratch
    on every call). The half-step phasor exp(-2j pi^2 beta2 f^2 dz/2) times
    the loss factor is written as cos + j sin over bins 0..n//2; f^2 is
    even and ``fftfreq`` negates exactly, so the reversed view
    ``half[n-m:0:-1]`` (m = n//2 + 1) serves bins m..n-1. Every work buffer
    is allocated here, once, and shared by the threads: the phasors
    ``half`` (2, m), one slot for this step and one for the next (a step as
    long as the one before keeps its slot, so it is not rebuilt), their
    argument ``arg`` (m), |x|^2 and |y|^2 ``square`` (2, n), ``phase`` (n)
    and the rotation ``rot`` = exp(j coef P) (n). No fine step allocates.

    Each fine step runs in three phases. (1) Each thread disperses,
    inverse-transforms and squares its own rows. (2) After barrier A, each
    thread forms P = |x|^2 + |y|^2 times coef and its cos and sin over its
    share of the samples, and builds its share of the next step's phasor
    bins. (3) After barrier B, each thread rotates its rows, transforms
    them forward and disperses them again. The trig is computed once, not
    once per thread, and elementwise ufuncs on a share round as they do on
    the whole array, so the output is bit-identical to one thread running
    both rows with one share covering everything; that is also the code
    the serial path runs.

    ``cpus.in_two`` decides, at the start of the span, whether a helper
    thread runs row 1 beside the caller's row 0: a span under
    ``cpus.MIN_SHARE`` samples a row runs in the caller without asking the
    budget, and a span that got a helper keeps it to the end of the span.
    An error in either thread aborts both barriers, so that the other
    thread returns; ``cpus.helper`` then raises the error of the thread
    that failed (the caller's, if both did).
    """
    beta2, steps = operators
    n = field.shape[-1]
    m = n // 2 + 1
    # phase per km of each bin; a half step's phase is gvd_f2 * (dz / 2)
    gvd_f2 = dispersion_phase(beta2, np.fft.rfftfreq(n, d=1.0 / rate))
    slots = [0]  # phasor slot of each step: a new length takes the other
    for k in range(1, len(steps)):
        slots.append(slots[-1] ^ (steps[k][0] != steps[k - 1][0]))
    half = np.empty((2, m), dtype=np.complex128)
    arg = np.empty(m)
    square = np.empty((2, n))
    phase = np.empty(n)
    rot = np.empty(n, dtype=np.complex128)
    # barriers A and B of the docstring, waited at only by a split span
    barriers = (threading.Barrier(2), threading.Barrier(2))
    # cut at a multiple of 64 so that each part's vector loops cover the
    # elements one pass over the whole array would
    cuts = [size // 2 // 64 * 64 for size in (n, m)]

    def build(k, bins):
        """Step k's phasor over ``bins``."""
        dz, _, loss = steps[k]
        out, a = half[slots[k], bins], arg[bins]
        np.multiply(gvd_f2[bins], dz / 2.0, out=a)
        np.cos(a, out=out.real)
        np.sin(a, out=out.imag)
        out *= loss

    def disperse(row, k):
        np.multiply(row[:m], half[slots[k]], out=row[:m])
        np.multiply(row[m:], half[slots[k], n - m:0:-1], out=row[m:])

    def run(part, parts):
        """Every fine step on row ``part`` (both rows when whole), with this
        part's samples and bins of the rotation and the phasors."""
        rows = range(part, 2, parts)
        samples, bins = [slice(part * c, None if part == parts - 1 else c)
                         for c in cuts]
        ph, sq0, sq1 = phase[samples], square[0, samples], square[1, samples]
        cos, sin = rot.real[samples], rot.imag[samples]
        try:
            for r in rows:
                np.fft.fft(field[r], out=field[r])
            for k in range(len(steps)):
                for r in rows:
                    disperse(field[r], k)
                    np.fft.ifft(field[r], out=field[r])
                    np.square(np.abs(field[r], out=square[r]), out=square[r])
                if parts == 2:
                    barriers[0].wait()
                np.add(sq0, sq1, out=ph)
                ph *= steps[k][1]
                np.cos(ph, out=cos)
                np.sin(ph, out=sin)
                if k + 1 < len(steps) and slots[k + 1] != slots[k]:
                    build(k + 1, bins)
                if parts == 2:
                    barriers[1].wait()
                for r in rows:
                    field[r] *= rot
                    np.fft.fft(field[r], out=field[r])
                    disperse(field[r], k)
            for r in rows:
                np.fft.ifft(field[r], out=field[r])
        except threading.BrokenBarrierError:
            return  # the other part raised, and cpus.helper raises it
        except BaseException:
            for barrier in barriers:
                barrier.abort()
            raise

    build(0, slice(None))
    cpus.in_two(run, n)


def propagate_link(w: DualPolWaveform, link: LinkConfig, sim: SimSettings,
                   checkpoint=None, first_span: int = 0,
                   snapshot: DualPolWaveform | None = None) -> DualPolWaveform:
    """Propagate the transmitted waveform ``w`` through every span of the link.

    An EDFA follows each span. ASE is seeded per span from sim.noise_seed,
    so runs are reproducible and spans are statistically independent.
    Passing first_span > 0 with the ``snapshot`` taken after amplifier
    first_span resumes a checkpointed run bit-exactly: the fine-step plan
    still comes from ``w`` (the snapshot's power includes ASE), and the
    remaining spans keep the seeds they would have had in the
    uninterrupted run.

    When provided, ``checkpoint(span_index, waveform)`` is called after
    each amplifier with a snapshot of its own, on a ``cpus.helper`` thread
    named ``fiberdbp-checkpoint``, while the next span propagates. At most
    one checkpoint is in flight: each writer is joined before the next one
    starts, so the calls come in span order, one at a time, and every one
    has returned when this function returns. By the helper's rules, a
    checkpoint's error is raised once the span running meanwhile has
    finished, and no later checkpoint is called; an error in the caller
    (an interrupt during a span, say) waits for the checkpoint in flight,
    so the file it writes is left whole, and is the one raised. The writer
    mostly waits on the disk, so it takes no CPU from ``cpus.in_two``'s
    budget.
    """
    w.require_finite()
    _check_headroom(w)
    if (not 0 <= first_span <= link.num_spans
            or (first_span > 0) != (snapshot is not None)):
        raise ValueError("resuming needs 0 < first_span <= num_spans and the "
                         "snapshot taken after that amplifier")
    if snapshot is not None:
        snapshot.require_finite()
        if (snapshot.num_samples, snapshot.sample_rate) != (w.num_samples,
                                                            w.sample_rate):
            raise ValueError("snapshot does not match the transmitted waveform")
    operators = _step_operators(link, span_step_sizes(link, sim, w.power),
                                inverse=False)
    out = (w if snapshot is None else snapshot).copy()
    with ExitStack() as writer:
        for span in range(first_span, link.num_spans):
            _run_spans(out.field, out.sample_rate, operators)
            out = edfa(out, link, (sim.noise_seed, span),
                       noise_enabled=sim.noise_enabled)
            if checkpoint is not None:
                writer.close()  # joins the checkpoint in flight
                writer.enter_context(cpus.helper(
                    partial(checkpoint, span + 1, out.copy()),
                    "fiberdbp-checkpoint"))
    return out


def backward_propagate(w: DualPolWaveform, link: LinkConfig, sim: SimSettings,
                       launch_power_w: float) -> DualPolWaveform:
    """Exact noise-free inverse of propagate_link (ideal backpropagation).

    Spans are undone last-to-first: the amplifier gain is removed, then the
    fiber fine steps are inverted in reverse order. The steps are planned
    from ``launch_power_w``, the power of the waveform propagate_link was
    handed, so they are the forward pass's steps; the received power is
    higher by the ASE, and an adaptive plan from it can take another step
    count. A uniform plan (``sim.step_km``) does not read the power.
    """
    w.require_finite()
    g = 10.0 ** (link.span_gain_db / 20.0)
    operators = _step_operators(
        link, span_step_sizes(link, sim, launch_power_w), inverse=True)
    out = w.copy()
    for _ in range(link.num_spans):
        out.field /= g
        _run_spans(out.field, out.sample_rate, operators)
    return out


def _check_headroom(w: DualPolWaveform):
    """Reject inputs whose spectrum already fills the outer band edge."""
    spec = np.sum(np.abs(np.fft.fft(w.field, axis=-1)) ** 2, axis=0)
    n = spec.size
    k = max(1, int(HEADROOM_EDGE_FRACTION * n / 2))
    edge = np.sum(spec[n // 2 - k:n // 2 + k])
    total = np.sum(spec)
    if total > 0 and edge / total > HEADROOM_MAX_ENERGY_FRACTION:
        raise ValueError(
            "sample rate leaves no spectral headroom for nonlinear broadening")
