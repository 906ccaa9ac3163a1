"""Waveform containers, WDM signal synthesis, and spectral-grid operations.

A signal is one Jones vector per sample: DualPolWaveform.field is a (2, N)
complex array in physical units (sqrt(W)), row 0 the x and row 1 the y
polarization, so ``mean(|x|^2 + |y|^2)`` is the total power in watts. Every
module computes on that array directly; ``x`` and ``y`` are row views for
readers that want one polarization. All spectral operations (pulse
shaping, matched filtering, resampling, demultiplexing) take and return
one waveform, transform its rows on the block FFT grid and treat the
sequence as circularly periodic, which keeps block-based processing free
of edge transients. Every receiver, the coefficient tuner included, runs
the same matched_filter and resample on each waveform it scores; batches
of tap sets and the engine's subband partition live in dbp. The receive
stages (matched_filter, resample, demux_channel) hand their y row to a
helper thread when cpus.in_two grants one, and otherwise transform the
(2, N) array whole (demux_channel row by row); a row's transform is the
same bits either way.

Main entry points
-----------------
generate_wdm      : synthesize a WDM comb of RRC-shaped QAM channels
matched_filter    : apply the root-raised-cosine receive filter
resample          : FFT-grid rate conversion (zero-pad up, fold down)
demux_channel     : brick-wall extraction of one channel to baseband
"""

from __future__ import annotations

import math
import numbers
import re
from dataclasses import dataclass, fields

import numpy as np

from .cpus import in_two

OOB_TOL = 1e-3  # largest energy fraction resample folds without allow_alias


class AliasingError(ValueError):
    """Raised when a rate conversion would fold signal energy onto itself."""


def check_numbers(config, positive=()) -> None:
    """Raise ValueError unless every ``int`` field of a dataclass holds an
    integer, every ``float`` one a finite number (or None where annotated
    ``float | None``) and every field named in ``positive`` a number > 0."""
    for f in fields(config):  # the annotations are strings (PEP 563)
        value = getattr(config, f.name)
        if f.type == "int":
            ok = isinstance(value, (int, np.integer))
            kind = "an integer"
        elif f.type in ("float", "float | None"):
            ok = ((value is None and f.type != "float")
                  or (isinstance(value, numbers.Real) and math.isfinite(value)
                      and (f.name not in positive or value > 0)))
            kind = "finite and positive" if f.name in positive else "finite"
        else:
            continue
        if not ok or isinstance(value, bool):
            raise ValueError(f"{f.name} must be {kind}, got {value!r}")


@dataclass
class DualPolWaveform:
    """Dual-polarization complex baseband waveform.

    Attributes
    ----------
    field : np.ndarray
        (2, N) complex128 Jones-vector samples in sqrt(W): row 0 is the x
        polarization, row 1 the y polarization. Any other shape raises
        ValueError at construction.
    sample_rate : float
        Sample rate in Hz.
    center_freq : float
        Absolute optical frequency offset (Hz) of this baseband
        representation relative to the full-band reference.

    ``x`` and ``y`` are read-only properties returning the row views
    ``field[0]`` and ``field[1]`` (writes through them change ``field``).
    """

    field: np.ndarray
    sample_rate: float
    center_freq: float = 0.0

    def __post_init__(self):
        self.field = np.asarray(self.field, dtype=np.complex128)
        if self.field.ndim != 2 or self.field.shape[0] != 2:
            raise ValueError("field must be a (2, N) array, got shape "
                             f"{self.field.shape}")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")

    @property
    def x(self) -> np.ndarray:
        return self.field[0]

    @property
    def y(self) -> np.ndarray:
        return self.field[1]

    @property
    def num_samples(self) -> int:
        return self.field.shape[1]

    @property
    def power(self) -> float:
        """Mean total power in W (both polarizations)."""
        # per-sample sum first: propagate_link plans its steps from this
        # value, and another summation order can move it by an ulp
        return float(np.mean(np.abs(self.x) ** 2 + np.abs(self.y) ** 2))

    def require_finite(self):
        if not np.all(np.isfinite(self.field)):
            raise ValueError("waveform contains non-finite samples")

    def copy(self) -> "DualPolWaveform":
        return DualPolWaveform(self.field.copy(), self.sample_rate,
                               self.center_freq)


def _parse_format(fmt) -> int:
    """Constellation identifier -> QAM order (e.g. '64-qam' -> 64)."""
    if isinstance(fmt, (int, np.integer)):
        order = int(fmt)
    else:
        m = re.fullmatch(r"(?:qam[-_]?(\d+)|(\d+)[-_]?qam|(\d+))",
                         str(fmt).strip().lower())
        if not m:
            raise ValueError(f"unknown constellation format: {fmt!r}")
        order = int(next(g for g in m.groups() if g))
    side = int(round(np.sqrt(order)))
    if side * side != order or order < 4:
        raise ValueError(f"unsupported QAM order: {order}")
    return order


@dataclass(frozen=True)
class WdmConfig:
    """WDM transmitter configuration.

    launch_power_dbm_per_channel is the power of one channel with both
    polarizations combined.
    """

    baud_rate: float
    num_channels: int = 1
    spacing: float = 0.0
    rolloff: float = 0.05
    format: str = "64-qam"
    launch_power_dbm_per_channel: float = 0.0

    def __post_init__(self):
        check_numbers(self, positive=("baud_rate",))
        if self.num_channels < 1:
            raise ValueError("num_channels must be >= 1")
        if not 0 <= self.rolloff < 1:
            raise ValueError("rolloff must be in [0, 1)")
        if (self.num_channels > 1
                and self.spacing < self.baud_rate * (1 + self.rolloff)):
            raise ValueError("channel spacing below occupied bandwidth")
        _parse_format(self.format)

    @property
    def mod_order(self) -> int:
        return _parse_format(self.format)

    @property
    def launch_power_w(self) -> float:
        return 10.0 ** (self.launch_power_dbm_per_channel / 10.0) * 1e-3

    @property
    def total_bandwidth(self) -> float:
        """Occupied WDM bandwidth in Hz."""
        return ((self.num_channels - 1) * self.spacing
                + self.baud_rate * (1 + self.rolloff))

    @property
    def center_channel(self) -> int:
        """Index of the channel every receiver recovers: the comb's center."""
        return (self.num_channels - 1) // 2

    @property
    def channel_freqs(self) -> np.ndarray:
        """Nominal channel center frequencies (Hz, comb centered at 0)."""
        idx = np.arange(self.num_channels) - (self.num_channels - 1) / 2.0
        return idx * self.spacing

    def with_power(self, dbm: float) -> "WdmConfig":
        return WdmConfig(self.baud_rate, self.num_channels, self.spacing,
                         self.rolloff, self.format, dbm)


@dataclass
class SymbolRecord:
    """Transmitted symbols, unit average energy per polarization.

    symbols has shape (num_channels, 2, num_symbols).
    """

    symbols: np.ndarray
    baud_rate: float
    format: str
    seed: int

    @property
    def num_symbols(self) -> int:
        return self.symbols.shape[-1]

    def channel(self, idx: int) -> np.ndarray:
        """(2, num_symbols) symbol array of one channel."""
        return self.symbols[idx]


def qam_constellation(order: int) -> np.ndarray:
    """Square-QAM constellation normalized to unit average energy."""
    side = int(round(np.sqrt(order)))
    if side * side != order:
        raise ValueError("order must be a perfect square")
    levels = np.arange(-(side - 1), side, 2, dtype=float)
    points = (levels[:, None] + 1j * levels[None, :]).ravel()
    return points / np.sqrt(np.mean(np.abs(points) ** 2))


def raised_cosine_spectrum(freq: np.ndarray, baud: float, rolloff: float) -> np.ndarray:
    """Raised-cosine magnitude response (unit passband) on a frequency grid."""
    f = np.abs(np.asarray(freq, dtype=float))
    pass_edge = (1 - rolloff) * baud / 2
    stop_edge = (1 + rolloff) * baud / 2
    rc = np.zeros_like(f)
    rc[f <= pass_edge] = 1.0
    if rolloff > 0:
        roll = (f > pass_edge) & (f < stop_edge)
        rc[roll] = 0.5 * (1 + np.cos(np.pi / (rolloff * baud) * (f[roll] - pass_edge)))
    return rc


def generate_wdm(cfg: WdmConfig, num_symbols: int, sim_rate: float | None = None,
                 seed: int = 0) -> tuple[DualPolWaveform, SymbolRecord]:
    """Synthesize a WDM waveform of RRC-shaped QAM channels.

    Pulse shaping is done in the frequency domain on the block FFT grid: the
    symbol-sequence DFT is tiled across the grid and weighted by the
    root-raised-cosine response, which makes the sequence circularly periodic
    and the matched-filter cascade exactly Nyquist. Channel centers snap to
    the FFT bin grid (bin pitch baud_rate/num_symbols).

    The realized sample rate is the nearest integer-samples-per-symbol rate
    at or above ``sim_rate`` (default: twice the total WDM bandwidth, for
    nonlinear-broadening headroom).

    Returns
    -------
    (DualPolWaveform, SymbolRecord)
        Waveform at the realized rate, and the transmitted symbols with unit
        average energy per polarization.
    """
    if num_symbols < 1:
        raise ValueError("num_symbols must be >= 1")
    requested = 2.0 * cfg.total_bandwidth if sim_rate is None else float(sim_rate)
    if requested < cfg.total_bandwidth - 1e-6:
        raise ValueError("sim_rate does not cover the WDM band")
    sps = max(2, int(np.ceil(requested / cfg.baud_rate - 1e-9)))

    m = num_symbols
    n = m * sps
    rate = sps * cfg.baud_rate
    rng = np.random.default_rng(seed)
    points = qam_constellation(cfg.mod_order)

    symbols = points[rng.integers(0, points.size, size=(cfg.num_channels, 2, m))]
    freqs = np.fft.fftfreq(n, d=1.0 / rate)
    df = rate / n  # == baud_rate / num_symbols

    spec = np.zeros((2, n), dtype=np.complex128)
    amp = np.sqrt(cfg.launch_power_w / 2.0)  # per polarization
    for ch, f_c in enumerate(cfg.channel_freqs):
        k_c = int(np.round(f_c / df))
        rc = raised_cosine_spectrum(freqs - k_c * df, cfg.baud_rate, cfg.rolloff)
        band = np.flatnonzero(rc > 0)
        # unit expected power per polarization before the amp scaling
        g = np.sqrt(rc[band]) * np.sqrt(n * n / (m * np.sum(rc[band])))
        s_rep = np.fft.fft(symbols[ch], axis=-1)[:, (band - k_c) % m]
        spec[:, band] += amp * g * s_rep

    wave = DualPolWaveform(np.fft.ifft(spec, axis=-1), rate, 0.0)
    record = SymbolRecord(symbols, cfg.baud_rate, cfg.format, seed)
    return wave, record


def matched_filter(w: DualPolWaveform, cfg: WdmConfig) -> DualPolWaveform:
    """Apply the root-raised-cosine receive filter (unit passband gain).

    The waveform must already be centered on the target channel; together
    with the transmitter shaping the cascade is exactly Nyquist, so symbol
    instants are ISI-free back to back.
    """
    freqs = np.fft.fftfreq(w.num_samples, d=1.0 / w.sample_rate)
    g = np.sqrt(raised_cosine_spectrum(freqs, cfg.baud_rate, cfg.rolloff))
    out = np.empty_like(w.field)

    def run(k, parts):
        rows = slice(k, 2, parts)
        np.fft.fft(w.field[rows], axis=-1, out=out[rows])
        out[rows] *= g
        np.fft.ifft(out[rows], axis=-1, out=out[rows])

    in_two(run, w.num_samples)
    return DualPolWaveform(out, w.sample_rate, w.center_freq)


def _regrid(spec: np.ndarray, new_len: int) -> np.ndarray:
    """Map unshifted FFT bins onto a new grid length by signed frequency.

    Upsampling places bins (zero padding); downsampling folds aliases. Both
    are the exact resampling of the underlying periodic bandlimited signal.
    Source bins are added in ascending order, in runs that land on
    contiguous target bins, so every target sums its aliases in bin order.
    """
    n = spec.shape[-1]
    pos = (n + 1) // 2  # bins below pos carry the non-negative frequencies
    out = np.zeros(spec.shape[:-1] + (new_len,), dtype=np.complex128)
    j = 0
    while j < n:
        t = (j if j < pos else j - n) % new_len
        run = min(new_len - t, (pos if j < pos else n) - j)
        out[..., t:t + run] += spec[..., j:j + run]
        j += run
    return out


def resample(w: DualPolWaveform, new_rate: float,
             allow_alias: bool = False) -> DualPolWaveform:
    """FFT-grid rate conversion preserving in-band content exactly.

    Downsampling folds the spectrum at the new rate, which is the exact
    resample of the periodic bandlimited signal; energy outside the new
    Nyquist band beyond OOB_TOL (fraction of total) raises AliasingError
    unless ``allow_alias`` — symbol-rate decimation after a matched filter
    legitimately exploits the fold.
    """
    n, rate = w.num_samples, w.sample_rate
    new_len_f = n * new_rate / rate
    new_len = int(round(new_len_f))
    if abs(new_len_f - new_len) > 1e-6:
        raise ValueError("new_rate not representable on this block grid")
    if new_len == n:
        return w.copy()
    spec = np.empty_like(w.field)

    def forward(k, parts):
        rows = slice(k, 2, parts)
        np.fft.fft(w.field[rows], axis=-1, out=spec[rows])

    in_two(forward, n)
    if new_len < n and not allow_alias:
        oob = np.abs(np.fft.fftfreq(n, d=1.0 / rate)) > new_rate / 2
        total = np.sum(np.abs(spec) ** 2)
        frac = np.sum(np.abs(spec[..., oob]) ** 2) / total if total > 0 else 0.0
        if frac > OOB_TOL:
            raise AliasingError(
                f"{frac:.2e} of signal energy beyond the new Nyquist band")
    out = np.empty((2, new_len), dtype=np.complex128)

    def inverse(k, parts):
        rows = slice(k, 2, parts)
        np.multiply(_regrid(spec[rows], new_len), new_len / n, out=out[rows])
        np.fft.ifft(out[rows], axis=-1, out=out[rows])

    in_two(inverse, new_len)
    return DualPolWaveform(out, new_len * rate / n, w.center_freq)


def demux_channel(w: DualPolWaveform, channel_freq: float,
                  bandwidth: float) -> DualPolWaveform:
    """Extract one channel to baseband with a brick-wall bin selection.

    The output rate is the realized bandwidth (a whole number of FFT bins,
    forced even); the channel center snaps to the bin grid and is recorded in
    the returned waveform's center_freq.
    """
    n = w.num_samples
    df = w.sample_rate / n
    n_bins = int(round(bandwidth / df))
    n_bins -= n_bins % 2
    if n_bins < 2 or n_bins > n:
        raise ValueError("bandwidth out of range for this grid")
    c = int(round(channel_freq / df))
    lo = n // 2 + c - n_bins // 2
    if lo < 0 or lo + n_bins > n:
        raise ValueError("channel band exceeds the sampled spectrum")
    # bins lo .. lo + n_bins - 1 of the fftshifted spectrum, ifftshifted,
    # picked from the unshifted spectrum of each row. Each thread reuses
    # one row of spec for its rows; spec is allocated here, in the caller:
    # a helper thread gets a glibc allocator arena of its own, which keeps
    # its peak working set after the thread exits (perfbench
    # receiver_ladder read up to 78 MB peak RSS, against 71 MB, with the
    # spectra allocated in the helper). The share is the output row: one
    # transform at n does not pay for a helper (the desk tuner's
    # 14 336-sample demux took 2.5 times as long split)
    band = np.fft.ifftshift((np.arange(lo, lo + n_bins) - n // 2) % n)
    field = np.empty((2, n_bins), dtype=np.complex128)
    spec = np.empty((2, n), dtype=np.complex128)

    def run(k, parts):
        for r in range(k, 2, parts):
            np.fft.fft(w.field[r], out=spec[k])
            np.take(spec[k], band, out=field[r])
            field[r] *= n_bins / n
            np.fft.ifft(field[r], out=field[r])

    in_two(run, n_bins)
    return DualPolWaveform(field, n_bins * df, w.center_freq + c * df)
