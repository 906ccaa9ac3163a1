"""Real-multiplication and real-addition accounting for the engine variants.

Counting conventions (these make the published cost figures reproducible):

* complex x complex multiply: 3 RM + 5 RA (3-multiplier scheme);
* complex x precomputed complex constant: 3 RM + 3 RA (the two extra
  additions are folded into the stored constants);
* two complex multiplies sharing one multiplier (both polarizations rotated
  by the same phasor): 6 RM + 8 RA per pair;
* complex x real: 2 RM;
* complex addition: 2 RA;
* split-radix complex FFT of size n: n log2 n - 3n + 4 RM and
  3n log2 n - 3n + 4 RA; real-input (or real-output) FFT: half of each;
* exponentials via look-up table: 0 RM / 0 RA;
* scalar normalizations, index shuffles and FFT shifts: free (folded into
  precomputed constants).

Costs are reported per 2D (single-polarization) symbol: a block of N
samples at n samples per symbol yields (N - N_ov) new samples, i.e.
2 (N - N_ov) / n new 2D symbols.

Every price comes from one per-block stage table per engine (coupled-band
or single-band). The steady-state prices (dbp_cost, cb_essfm_cost,
essfm_time_domain_cost) divide one block's table over its N - N_ov new
samples; their docstrings give the closed forms the tables sum to, which
the tests check. count_runtime_multiplies prices the blocks the engine's
tiling runs over a given waveform, without running the engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .dbp import DbpConfig, _tap_memory
from .kernel import CoefficientSet
from .signals import DualPolWaveform


@dataclass
class CostReport:
    """Per-2D-symbol cost with a per-stage breakdown.

    breakdown maps stage names to (rm, ra) pairs in per-2D units; the
    totals are their sums in the breakdown's order.
    """

    breakdown: dict[str, tuple[float, float]]

    @property
    def rm_per_2d(self) -> float:
        return sum(v[0] for v in self.breakdown.values())

    @property
    def ra_per_2d(self) -> float:
        return sum(v[1] for v in self.breakdown.values())


def _cfft_cost(size: int) -> tuple[float, float]:
    # the split-radix count is negative at size 3 and meaningless below
    if size < 4:
        raise ValueError(f"FFT size {size} is below 4, where the split-radix "
                         "count does not hold")
    lg = math.log2(size)
    return size * lg - 3 * size + 4, 3 * size * lg - 3 * size + 4


def _cb_block_counts(block_size: int, n_steps: int,
                     n_subbands: int) -> dict[str, tuple[float, float]]:
    """Exact per-block (RM, RA) pieces of the coupled-band engine, in the
    order the engine runs them."""
    n, n_st, n_sb = block_size, n_steps, n_subbands
    n_prime = n // n_sb
    fm, fa = _cfft_cost(n)
    sm, sa = _cfft_cost(n_prime)
    out = {"outer_fft": (4 * fm, 4 * fa),
           "gvd": ((n_st + 1) * 6 * n, (n_st + 1) * 6 * n),
           "subband_fft": (4 * n_sb * n_st * sm, 4 * n_sb * n_st * sa)}
    if n_st:
        lg = math.log2(n_prime)
        out["intensity"] = (n_st * 4 * n, n_st * 3 * n)
        out["mimo"] = (n_st * (n * lg + n / 2 * (3 * n_sb - 7) + 4 * n_sb),
                       n_st * (3 * n * lg + n / 2 * (5 * n_sb - 11) + 4 * n_sb))
        out["exp_lut"] = (0.0, 0.0)
        out["rotation"] = (n_st * 6 * n, n_st * 8 * n)
    return out


def _time_block_counts(block_size: int, n_steps: int,
                       n_taps: int) -> dict[str, tuple[float, float]]:
    """Per-block pieces of the time-domain (single-band) engine, in the
    order the engine runs them."""
    n, n_st = block_size, n_steps
    fm, fa = _cfft_cost(n)
    out = {"fft": (4 * (n_st + 1) * fm, 4 * (n_st + 1) * fa),
           "gvd": ((n_st + 1) * 6 * n, (n_st + 1) * 6 * n)}
    if n_st:
        out["intensity"] = (n_st * 4 * n, n_st * 3 * n)
        # symmetric filter: n_taps + 1 unique coefficients on real samples
        out["fir"] = (n_st * n * (n_taps + 1), n_st * n * 2 * n_taps)
        out["exp_lut"] = (0.0, 0.0)
        out["rotation"] = (n_st * 6 * n, n_st * 8 * n)
    return out


def _block_table(cfg: DbpConfig, n_taps: int) -> dict[str, tuple[float, float]]:
    """Per-block stage table of a config: the coupled-band one for
    CB_ESSFM, the single-band one at n_taps one-sided FIR taps otherwise."""
    if cfg.variant == "CB_ESSFM":
        return _cb_block_counts(cfg.block_size, cfg.n_steps, cfg.n_subbands)
    return _time_block_counts(cfg.block_size, cfg.n_steps, n_taps)


def _per_2d_report(table: dict[str, tuple[float, float]], oversampling: float,
                   samples: int, blocks: int = 1) -> CostReport:
    """Price ``blocks`` blocks of a per-block table over ``samples`` output
    samples at ``oversampling`` samples per symbol: 2 samples / oversampling
    2D symbols."""
    scale = oversampling / (2 * samples)
    return CostReport({k: (blocks * m * scale, blocks * a * scale)
                       for k, (m, a) in table.items()})


def cb_essfm_cost(block_size: int, overlap: int, oversampling: float,
                  n_steps: int, n_subbands: int = 1) -> CostReport:
    """Cost of the coupled-band engine, priced from its per-block table.

    The table sums to the closed form
    RM/2D = (n/2) (N/(N-N_ov)) [ (5 N_st + 4) log2(N/N_sb)
            + N_st (3 N_sb + 1)/2 + 4 log2 N_sb - 6
            + (20 N_sb N_st + 16)/N ]
    and the companion RA/2D with coefficients (15 N_st + 12),
    N_st (5 N_sb - 1)/2, 12 log2 N_sb.
    """
    _check_block(block_size, overlap, oversampling, n_subbands, n_steps)
    return _per_2d_report(_cb_block_counts(block_size, n_steps, n_subbands),
                          oversampling, block_size - overlap)


def essfm_time_domain_cost(block_size: int, overlap: int, oversampling: float,
                           n_steps: int, n_taps: int = 0) -> CostReport:
    """Cost of the time-domain single-band engine, priced from its
    per-block table.

    The table sums to the closed form
    RM/2D = (n/2) (N/(N-N_ov)) [ (N_st+1)(4 log2 N - 6 + 16/N)
            + N_st (11 + N_c) ], RA/2D with (12 log2 N - 6 + 16/N) and
    N_st (11 + 2 N_c). A single tap (N_c = 0) gives the optimized
    split-step cost; N_st = 0 gives plain dispersion compensation.
    """
    _check_block(block_size, overlap, oversampling, 1, n_steps)
    if n_taps < 0:
        raise ValueError("n_taps must be >= 0")
    return _per_2d_report(_time_block_counts(block_size, n_steps, n_taps),
                          oversampling, block_size - overlap)


def dbp_cost(cfg: DbpConfig, sample_rate_hz: float) -> CostReport:
    """Steady-state cost of one backpropagation config.

    CB_ESSFM is priced as cb_essfm_cost; EDC, OSSFM and ESSFM as
    essfm_time_domain_cost, ESSFM with the tap count that
    make_dbp_coefficient_set builds at sample_rate_hz (the walk-off memory
    rule; no taps are built).
    """
    n_taps = _tap_memory(cfg, 0, sample_rate_hz) if cfg.uses_coefficients else 0
    return _per_2d_report(_block_table(cfg, n_taps), cfg.oversampling,
                          cfg.block_size - cfg.overlap)


def _check_block(block_size, overlap, oversampling, n_subbands, n_steps):
    if n_subbands < 1:
        raise ValueError("n_subbands must be >= 1")
    if not 0 <= overlap < block_size:
        raise ValueError("need block_size > overlap >= 0")
    if block_size % n_subbands:
        raise ValueError("block_size must divide into n_subbands")
    if n_steps < 0:
        raise ValueError("n_steps must be >= 0")
    if not (math.isfinite(oversampling) and oversampling > 0):
        raise ValueError("oversampling must be finite and > 0")


def count_runtime_multiplies(w: DualPolWaveform, cfg: DbpConfig,
                             coeffs: CoefficientSet | None = None) -> CostReport:
    """Cost of running the engine on w with the tap set coeffs.

    Prices the blocks the engine's tiling runs over w
    (DbpConfig.num_blocks) from the same per-block table as dbp_cost, the
    single-band FIR at the tap count of coeffs, which must be a set the
    engine accepts (DbpConfig.check_coefficient_set). Unlike dbp_cost it
    counts the tiling's real block count: a sequence that does not divide
    into whole block strides pays for the extra boundary block. No engine
    pass runs.
    """
    blocks = cfg.num_blocks(w.num_samples)
    wing = 0
    if cfg.uses_coefficients:
        cfg.check_coefficient_set(coeffs, w.sample_rate)
        if 0 in coeffs.coeffs:
            wing = (coeffs.coeffs[0].size - 1) // 2
    return _per_2d_report(_block_table(cfg, wing), cfg.oversampling,
                          w.num_samples, blocks)
