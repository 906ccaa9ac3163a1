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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .dbp import DbpConfig, _tap_memory
from .kernel import CoefficientSet
from .signals import DualPolWaveform

_CSV_COLUMNS = ("variant", "N_st", "N_sb", "N", "N_ov", "n",
                "RM_per_2D", "RA_per_2D")


@dataclass
class CostReport:
    """Per-2D-symbol cost with a per-stage breakdown.

    breakdown maps stage names to (rm, ra) pairs in the same per-2D units;
    the totals must equal the breakdown sums.
    """

    rm_per_2d: float
    ra_per_2d: float
    breakdown: dict[str, tuple[float, float]]

    def __post_init__(self):
        self.validate()

    def validate(self):
        rm = sum(v[0] for v in self.breakdown.values())
        ra = sum(v[1] for v in self.breakdown.values())
        for name, (m, a) in self.breakdown.items():
            if m < 0 or a < 0:
                raise ValueError(f"negative count in stage {name!r}")
        if not math.isclose(rm, self.rm_per_2d, rel_tol=1e-9, abs_tol=1e-9) \
                or not math.isclose(ra, self.ra_per_2d, rel_tol=1e-9, abs_tol=1e-9):
            raise ValueError("breakdown does not sum to the totals")

    def csv_row(self, variant: str, n_steps: int, n_subbands: int,
                block_size: int, overlap: int, oversampling: float) -> dict:
        return dict(zip(_CSV_COLUMNS, (variant, n_steps, n_subbands,
                                       block_size, overlap, oversampling,
                                       self.rm_per_2d, self.ra_per_2d)))


def _cfft_cost(size: int) -> tuple[float, float]:
    lg = math.log2(size)
    return size * lg - 3 * size + 4, 3 * size * lg - 3 * size + 4


def _cb_block_counts(block_size: int, n_steps: int,
                     n_subbands: int) -> dict[str, tuple[float, float]]:
    """Exact per-block (RM, RA) pieces of the coupled-band engine."""
    n, n_st, n_sb = block_size, n_steps, n_subbands
    n_prime = n // n_sb
    fm, fa = _cfft_cost(n)
    sm, sa = _cfft_cost(n_prime)
    out = {"outer_fft": (4 * fm, 4 * fa),
           "subband_fft": (4 * n_sb * n_st * sm, 4 * n_sb * n_st * sa),
           "gvd": ((n_st + 1) * 6 * n, (n_st + 1) * 6 * n)}
    if n_st:
        lg = math.log2(n_prime)
        out["intensity"] = (n_st * 4 * n, n_st * 3 * n)
        out["mimo"] = (n_st * (n * lg + n / 2 * (3 * n_sb - 7) + 4 * n_sb),
                       n_st * (3 * n * lg + n / 2 * (5 * n_sb - 11) + 4 * n_sb))
        out["rotation"] = (n_st * 6 * n, n_st * 8 * n)
        out["exp_lut"] = (0.0, 0.0)
    return out


def _time_block_counts(block_size: int, n_steps: int,
                       n_taps: int) -> dict[str, tuple[float, float]]:
    """Per-block pieces of the time-domain (single-band) engine."""
    n, n_st = block_size, n_steps
    fm, fa = _cfft_cost(n)
    out = {"fft": (4 * (n_st + 1) * fm, 4 * (n_st + 1) * fa),
           "gvd": ((n_st + 1) * 6 * n, (n_st + 1) * 6 * n)}
    if n_st:
        out["intensity"] = (n_st * 4 * n, n_st * 3 * n)
        # symmetric filter: n_taps + 1 unique coefficients on real samples
        out["fir"] = (n_st * n * (n_taps + 1), n_st * n * 2 * n_taps)
        out["rotation"] = (n_st * 6 * n, n_st * 8 * n)
        out["exp_lut"] = (0.0, 0.0)
    return out


def _per_2d_report(blocks: dict[str, tuple[float, float]],
                   scale: float) -> CostReport:
    """Scale raw (RM, RA) stage counts to per-2D units; totals are summed in
    the stages' order."""
    breakdown = {k: (m * scale, a * scale) for k, (m, a) in blocks.items()}
    return CostReport(sum(v[0] for v in breakdown.values()),
                      sum(v[1] for v in breakdown.values()), breakdown)


def cb_essfm_cost(block_size: int, overlap: int, oversampling: float,
                  n_steps: int, n_subbands: int = 1) -> CostReport:
    """Closed-form cost of the coupled-band engine.

    RM/2D = (n/2) (N/(N-N_ov)) [ (5 N_st + 4) log2(N/N_sb)
            + N_st (3 N_sb + 1)/2 + 4 log2 N_sb - 6
            + (20 N_sb N_st + 16)/N ]
    and the companion RA/2D with coefficients (15 N_st + 12),
    N_st (5 N_sb - 1)/2, 12 log2 N_sb. The report's breakdown carries the
    same total split by stage (the two routes are checked against each
    other on every call).
    """
    _check_block(block_size, overlap, n_subbands, n_steps)
    n, n_ov, n_sps = block_size, overlap, oversampling
    n_st, n_sb = n_steps, n_subbands
    pref = (n_sps / 2) * (n / (n - n_ov))
    rm = pref * ((5 * n_st + 4) * math.log2(n / n_sb)
                 + n_st * (3 * n_sb + 1) / 2 + 4 * math.log2(n_sb) - 6
                 + (20 * n_sb * n_st + 16) / n)
    ra = pref * ((15 * n_st + 12) * math.log2(n / n_sb)
                 + n_st * (5 * n_sb - 1) / 2 + 12 * math.log2(n_sb) - 6
                 + (20 * n_sb * n_st + 16) / n)
    report = _per_2d_report(_cb_block_counts(n, n_st, n_sb),
                            n_sps / (2 * (n - n_ov)))
    if not (math.isclose(rm, report.rm_per_2d, rel_tol=1e-9)
            and math.isclose(ra, report.ra_per_2d, rel_tol=1e-9)):
        raise AssertionError("stage breakdown disagrees with the closed form")
    return report


def essfm_time_domain_cost(block_size: int, overlap: int, oversampling: float,
                           n_steps: int, n_taps: int = 0) -> CostReport:
    """Closed-form cost of the time-domain single-band engine.

    RM/2D = (n/2) (N/(N-N_ov)) [ (N_st+1)(4 log2 N - 6 + 16/N)
            + N_st (11 + N_c) ], RA/2D with (12 log2 N - 6 + 16/N) and
    N_st (11 + 2 N_c). A single tap (N_c = 0) gives the optimized
    split-step cost; N_st = 0 gives plain dispersion compensation.
    """
    _check_block(block_size, overlap, 1, n_steps)
    if n_taps < 0:
        raise ValueError("n_taps must be >= 0")
    n, n_ov, n_sps, n_st = block_size, overlap, oversampling, n_steps
    pref = (n_sps / 2) * (n / (n - n_ov))
    rm = pref * ((n_st + 1) * (4 * math.log2(n) - 6 + 16 / n)
                 + n_st * (11 + n_taps))
    ra = pref * ((n_st + 1) * (12 * math.log2(n) - 6 + 16 / n)
                 + n_st * (11 + 2 * n_taps))
    report = _per_2d_report(_time_block_counts(n, n_st, n_taps),
                            n_sps / (2 * (n - n_ov)))
    if not (math.isclose(rm, report.rm_per_2d, rel_tol=1e-9)
            and math.isclose(ra, report.ra_per_2d, rel_tol=1e-9)):
        raise AssertionError("stage breakdown disagrees with the closed form")
    return report


def dbp_cost(cfg: DbpConfig, sample_rate_hz: float) -> CostReport:
    """Closed-form cost of one backpropagation config.

    CB_ESSFM is priced by cb_essfm_cost; EDC, OSSFM and ESSFM by
    essfm_time_domain_cost, ESSFM with the tap count that
    make_dbp_coefficient_set builds at sample_rate_hz (the walk-off memory
    rule; no taps are built).
    """
    if cfg.variant == "CB_ESSFM":
        return cb_essfm_cost(cfg.block_size, cfg.overlap, cfg.oversampling,
                             cfg.n_steps, cfg.n_subbands)
    n_taps = _tap_memory(cfg, 0, sample_rate_hz) if cfg.n_steps else 0
    return essfm_time_domain_cost(cfg.block_size, cfg.overlap,
                                  cfg.oversampling, cfg.n_steps, n_taps)


def _check_block(block_size, overlap, n_subbands, n_steps):
    if block_size <= overlap:
        raise ValueError("need block_size > overlap")
    if block_size % n_subbands:
        raise ValueError("block_size must divide into n_subbands")
    if n_steps < 0:
        raise ValueError("n_steps must be >= 0")


class CostCounter:
    """Tally of the blocks one engine run processes (run_dbp's counter)."""

    def __init__(self):
        self.blocks = 0


# the order the engine runs its stages in; totals are summed in this order
_ENGINE_STAGES = ("outer_fft", "fft", "gvd", "subband_fft", "intensity",
                  "mimo", "fir", "exp_lut", "rotation")


def count_runtime_multiplies(w: DualPolWaveform, cfg: DbpConfig,
                             coeffs: CoefficientSet | None = None) -> CostReport:
    """Run the engine on w, tally its blocks, and report their cost.

    Each processed block is priced from the same per-block table as the
    closed forms (_cb_block_counts, _time_block_counts), the single-band
    FIR at the tap count of the set that ran. The count reflects the run's
    true block tiling (a sequence that does not divide into whole block
    strides pays for the extra boundary block), which is the point of
    cross-validating the closed forms.
    """
    from .dbp import run_dbp
    counter = CostCounter()
    run_dbp(w, cfg, coeffs, counter=counter)
    if cfg.variant == "CB_ESSFM":
        table = _cb_block_counts(cfg.block_size, cfg.n_steps, cfg.n_subbands)
    else:
        wing = (coeffs.coeffs[0].size - 1) // 2 if cfg.n_steps else 0
        table = _time_block_counts(cfg.block_size, cfg.n_steps, wing)
    run = {k: (counter.blocks * table[k][0], counter.blocks * table[k][1])
           for k in _ENGINE_STAGES if k in table}
    return _per_2d_report(run, cfg.oversampling / (2 * w.num_samples))
