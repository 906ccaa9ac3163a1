"""Receiver-side symbol recovery and SNR estimation.

The simulation chain is synchronized by construction (no timing or carrier
recovery is needed), so the receiver reduces to: channel demux, resampling
to the backpropagation rate, backpropagation, matched filtering, decimation
to the symbol rate, amplitude denormalization, and removal of the single
mean phase rotation left by the nonlinear phase model. Noise is whatever
remains relative to the transmitted symbols.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import LinkConfig, ase_variance_per_pol
from .dbp import DbpConfig, run_dbp
from .kernel import CoefficientSet
from .signals import (DualPolWaveform, SymbolRecord, WdmConfig, demux_channel,
                      matched_decimate, resample)

SNR_CAP_DB = 100.0


@dataclass(frozen=True)
class SnrResult:
    """Pooled and per-polarization SNR of recovered symbols."""

    snr_db: float
    snr_x_db: float
    snr_y_db: float
    mean_phase_removed: float
    num_symbols: int
    exact_match: bool = False

    def __post_init__(self):
        if self.num_symbols <= 0:
            raise ValueError("num_symbols must be positive")
        if not np.isfinite(self.snr_db):
            raise ValueError("snr must be finite")


def remove_mean_phase(rx: np.ndarray, tx: np.ndarray) -> tuple[np.ndarray, float]:
    """Rotate rx by the conjugate of its mean phase offset against tx.

    The phase is estimated jointly over both polarizations (the nonlinear
    phase rotation model is polarization-common). rx and tx are (2, M)
    symbol arrays. Returns the rotated rx and the removed phase in radians.
    """
    if rx.ndim != 2 or rx.shape[0] != 2 or rx.shape != tx.shape:
        raise ValueError("rx and tx must be (2, M) arrays of equal shape")
    corr = np.sum(rx * tx.conj())
    if abs(corr) == 0.0:
        raise ValueError("zero cross-correlation; mean phase undefined")
    phi = float(np.angle(corr))
    return rx * np.exp(-1j * phi), phi


def _snr_db(sig: float, noise: float) -> tuple[float, bool]:
    if sig == 0:
        raise ValueError("tx symbols carry no energy")
    # fused-multiply-add residue keeps bit-identical inputs from giving a
    # mathematically zero difference; 300 dB down counts as exact
    if noise <= sig * 1e-30:
        return SNR_CAP_DB, True
    return min(10 * np.log10(sig / noise), SNR_CAP_DB), False


def _row_energies(a: np.ndarray) -> np.ndarray:
    """sum |a|^2 along each row of a (2, M) complex array.

    Summed by einsum over the real and imaginary parts, not by a BLAS dot:
    OpenBLAS's worker threads spin on after a call, on the CPU the receive
    chain's helper threads run on (a desk receive pass took 1.6 times as
    long with np.vdot here, at OpenBLAS's default thread count).
    """
    parts = np.ascontiguousarray(a).view(np.float64)
    return np.einsum("ij,ij->i", parts, parts)


def snr(rx: np.ndarray, tx: np.ndarray) -> SnrResult:
    """SNR of rx against the transmitted symbols tx.

    SNR_dB = 10 log10( sum|tx|^2 / sum|rx - tx|^2 ), pooled over both
    polarizations after removing the joint mean phase (remove_mean_phase);
    per-polarization figures use the same alignment, and the pooled one
    adds their energies. An exact match reports the cap value with a flag
    instead of infinity. rx and tx are (2, M) symbol arrays.
    """
    rx, phi = remove_mean_phase(rx, tx)
    sig = _row_energies(tx)
    noise = _row_energies(rx - tx)
    pooled, exact = _snr_db(sig.sum(), noise.sum())
    sx, _ = _snr_db(sig[0], noise[0])
    sy, _ = _snr_db(sig[1], noise[1])
    return SnrResult(pooled, sx, sy, phi, rx.shape[-1], exact)


def prepare_dbp_input(w: DualPolWaveform, wdm: WdmConfig, dbp_cfg: DbpConfig,
                      channel_index: int | None = None) -> DualPolWaveform:
    """Extract one WDM channel and resample it to the backpropagation rate.

    The channel is cut out with a brick-wall demux one channel-spacing wide
    (capped at the backpropagation rate, dbp_cfg.oversampling times the
    symbol rate). The result can be fed to run_dbp repeatedly, e.g. while
    iterating on coefficients. The channel defaults to the center one.
    """
    if channel_index is None:
        channel_index = wdm.center_channel
    rate = dbp_cfg.oversampling * wdm.baud_rate
    if wdm.num_channels > 1:
        bw = min(wdm.spacing, rate)
        w = demux_channel(w, wdm.channel_freqs[channel_index], bw)
    elif w.sample_rate > rate:
        w = demux_channel(w, 0.0, rate)
    if w.sample_rate != rate:
        w = resample(w, rate)
    return w


def symbols_from_dbp_output(w: DualPolWaveform, wdm: WdmConfig) -> np.ndarray:
    """Matched filter, decimate to the symbol rate, undo the launch scaling.

    The filter and the decimation are one step (signals.matched_decimate),
    so each row takes one forward and one inverse transform. Returns
    (2, num_symbols) soft symbols on the constellation grid; mean phase is
    left in (snr removes it).
    """
    w = matched_decimate(w, wdm)
    return w.field / np.sqrt(wdm.launch_power_w / 2)


def recover_symbols(w: DualPolWaveform, wdm: WdmConfig, dbp_cfg: DbpConfig,
                    coeffs: CoefficientSet | None = None) -> np.ndarray:
    """Full receiver for the center WDM channel: (2, num_symbols) soft symbols.

    Chains prepare_dbp_input, run_dbp, and symbols_from_dbp_output.
    """
    w = prepare_dbp_input(w, wdm, dbp_cfg)
    w = run_dbp(w, dbp_cfg, coeffs)
    return symbols_from_dbp_output(w, wdm)


def evaluate(rx: DualPolWaveform, record: SymbolRecord, wdm: WdmConfig,
             dbp_cfg: DbpConfig,
             coeffs: CoefficientSet | None = None) -> SnrResult:
    """Receive the center WDM channel and score it against its symbols.

    snr(recover_symbols(...), record.channel(wdm.center_channel)).
    """
    return snr(recover_symbols(rx, wdm, dbp_cfg, coeffs),
               record.channel(wdm.center_channel))


def ase_limited_snr_db(link: LinkConfig, wdm: WdmConfig) -> float:
    """Closed-form SNR of a linear link with ideal dispersion compensation.

    Each of the num_spans amplifiers adds white noise of power spectral
    density h*nu*(G*F - 1)/2 per polarization; root-raised-cosine matched
    filtering plus symbol-rate sampling folds that into a noise variance of
    PSD * baud per polarization (the folded raised-cosine spectrum is flat).
    SNR = (P_channel / 2) / (num_spans * PSD * baud).
    """
    psd = ase_variance_per_pol(link, 1.0)
    noise = link.num_spans * psd * wdm.baud_rate
    return 10 * np.log10(wdm.launch_power_w / 2 / noise)
