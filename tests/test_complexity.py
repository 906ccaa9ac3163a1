"""Arithmetic cost model: dual-route checks, counters, per-config pricing.

The golden 681 / 75 / 32 RM/2D values are pinned on the closed forms in
test_acceptance.py and on the per-config dispatch (dbp_cost) here.
"""

import numpy as np
import pytest

from fiberdbp import (DbpConfig, LinkConfig, SimSettings, WdmConfig,
                      cb_essfm_cost, count_runtime_multiplies, dbp_cost,
                      essfm_time_domain_cost, generate_wdm,
                      make_dbp_coefficient_set, propagate_link, run_dbp)
from fiberdbp.complexity import CostCounter

# full-scale block parameters
N, N_OV, SPS = 16384, 1800, 1.125


def test_golden_multiplication_counts():
    # the published counts reached through the per-config dispatch that
    # the CLI and the demos price with
    link = LinkConfig(num_spans=2, span_length_km=80.0)

    def price(variant, n_steps, n_sb):
        cfg = DbpConfig(link=link, variant=variant, n_steps=n_steps,
                        n_subbands=n_sb, block_size=N, overlap=N_OV,
                        oversampling=SPS)
        return round(dbp_cost(cfg, 36e9).rm_per_2d)

    assert price("CB_ESSFM", 15, 2) == 681
    assert price("CB_ESSFM", 1, 2) == 75
    assert price("EDC", 0, 1) == 32


def test_breakdown_sums_to_total():
    rep = cb_essfm_cost(N, N_OV, SPS, 15, 2)
    rm = sum(v[0] for v in rep.breakdown.values())
    ra = sum(v[1] for v in rep.breakdown.values())
    assert rm == pytest.approx(rep.rm_per_2d, rel=1e-12)
    assert ra == pytest.approx(rep.ra_per_2d, rel=1e-12)
    assert set(rep.breakdown) == {"outer_fft", "subband_fft", "gvd",
                                  "intensity", "mimo", "rotation", "exp_lut"}


def test_single_band_cb_specializes_to_essfm_shape():
    # with one subband and the same tap budget the two cost routes describe
    # the same algorithm apart from FIR-vs-MIMO bookkeeping; totals match
    # when the ESSFM taps equal the MIMO taps of the single band
    for n_st in (1, 3, 15):
        cb = cb_essfm_cost(N, N_OV, SPS, n_st, 1)
        # same FFT structure: outer pair plus per-step pair on the full grid
        es = essfm_time_domain_cost(N, N_OV, SPS, n_st, 1)
        assert cb.breakdown["outer_fft"][0] \
            + cb.breakdown["subband_fft"][0] \
            == pytest.approx(es.breakdown["fft"][0], rel=1e-12)
        assert cb.breakdown["gvd"] == es.breakdown["gvd"]


def test_cost_monotonic_in_steps_and_bands():
    costs = [cb_essfm_cost(N, N_OV, SPS, k, 2).rm_per_2d
             for k in (1, 2, 5, 15, 30)]
    assert all(a < b for a, b in zip(costs, costs[1:]))
    # more subbands shrink the FFTs but grow the MIMO: not monotone, but
    # every value stays positive and finite
    for n_sb in (1, 2, 4, 8):
        assert cb_essfm_cost(N, N_OV, SPS, 15, n_sb).rm_per_2d > 0


def test_overlap_overhead_scales_cost():
    lean = cb_essfm_cost(N, 0, SPS, 15, 2).rm_per_2d
    padded = cb_essfm_cost(N, N // 2, SPS, 15, 2).rm_per_2d
    assert padded == pytest.approx(2 * lean, rel=1e-12)


def test_csv_row_columns():
    row = cb_essfm_cost(N, N_OV, SPS, 15, 2).csv_row("CB_ESSFM", 15, 2, N,
                                                     N_OV, SPS)
    assert list(row) == ["variant", "N_st", "N_sb", "N", "N_ov", "n",
                        "RM_per_2D", "RA_per_2D"]
    assert row["variant"] == "CB_ESSFM" and row["N"] == N


@pytest.fixture(scope="module")
def counted_setup():
    link = LinkConfig(num_spans=2, span_length_km=80.0)
    wdm = WdmConfig(baud_rate=32e9, launch_power_dbm_per_channel=0.0)
    w, _ = generate_wdm(wdm, 2048, sim_rate=64e9, seed=31)
    rx = propagate_link(w, link, SimSettings(max_phase_rad=2e-3,
                                             noise_enabled=False))
    return link, rx


def run_counted(link, rx, variant, n_steps, n_sb, block, overlap):
    cfg = DbpConfig(link=link, variant=variant, n_steps=n_steps,
                    n_subbands=n_sb, block_size=block, overlap=overlap,
                    oversampling=2.0)
    coeffs = None
    if cfg.uses_coefficients:
        coeffs = make_dbp_coefficient_set(cfg, rx.sample_rate, 1e-3,
                                          oversample=16)
    return cfg, count_runtime_multiplies(rx, cfg, coeffs)


def test_counter_matches_formula_exact_tiling(counted_setup):
    link, rx = counted_setup
    # 4096 samples, keep 1024 -> exactly 4 blocks: the closed forms assume
    # this tiling, so counted and analytic costs agree to rounding, stage
    # by stage; the ESSFM price takes its tap count from the memory rule,
    # the run from the built taps
    for variant, n_steps, n_sb in (("EDC", 0, 1), ("OSSFM", 2, 1),
                                   ("ESSFM", 2, 1), ("CB_ESSFM", 2, 2),
                                   ("CB_ESSFM", 2, 4), ("CB_ESSFM", 0, 2)):
        cfg, rep = run_counted(link, rx, variant, n_steps, n_sb, 2048, 1024)
        ref = dbp_cost(cfg, rx.sample_rate)
        case = f"{variant} N_st={n_steps} N_sb={n_sb}"
        assert rep.rm_per_2d == pytest.approx(ref.rm_per_2d, rel=1e-9), case
        assert rep.ra_per_2d == pytest.approx(ref.ra_per_2d, rel=1e-9), case
        assert rep.breakdown.keys() == ref.breakdown.keys(), case
        for stage, (rm, ra) in ref.breakdown.items():
            got = rep.breakdown[stage]
            assert got == pytest.approx((rm, ra), rel=1e-9), (case, stage)


def test_counter_partial_final_block_within_one_percent(counted_setup):
    link, rx = counted_setup
    # keep 1536 does not divide 4096: the final block is partially used, so
    # the counted cost exceeds the steady-state formula by less than the
    # one-block overshoot
    cfg, rep = run_counted(link, rx, "CB_ESSFM", 2, 2, 2048, 512)
    ref = cb_essfm_cost(2048, 512, 2.0, 2, 2)
    blocks_used = int(np.ceil(4096 / 1536))
    overshoot = blocks_used * 1536 / 4096
    assert rep.rm_per_2d == pytest.approx(ref.rm_per_2d * overshoot,
                                          rel=0.01)


def test_counter_tallies_processed_blocks(counted_setup):
    # the engine tallies the blocks it runs, whole and partial; the report
    # prices exactly that many blocks from the closed forms' block table
    link, rx = counted_setup
    for block, overlap, blocks in ((2048, 1024, 4), (2048, 512, 3)):
        cfg = DbpConfig(link=link, variant="EDC", n_steps=0, block_size=block,
                        overlap=overlap, oversampling=2.0)
        counter = CostCounter()
        run_dbp(rx, cfg, counter=counter)
        assert counter.blocks == blocks
        per_block = essfm_time_domain_cost(block, overlap, 2.0, 0)
        used = blocks * (block - overlap) / rx.num_samples
        assert count_runtime_multiplies(rx, cfg).rm_per_2d == pytest.approx(
            per_block.rm_per_2d * used, rel=1e-12)
