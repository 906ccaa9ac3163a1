"""Arithmetic cost model: stage tables against the paper's closed forms,
per-config pricing, and the engine's block tiling.

The golden 681 / 75 / 32 RM/2D values are pinned on cb_essfm_cost and
essfm_time_domain_cost in test_acceptance.py, and here on the per-config
dispatch (dbp_cost) and on the tiling's block count
(count_runtime_multiplies).
"""

import math

import numpy as np
import pytest

from fiberdbp import (DbpConfig, DualPolWaveform, LinkConfig, SimSettings,
                      WdmConfig, cb_essfm_cost, count_runtime_multiplies,
                      dbp_cost, essfm_time_domain_cost, generate_wdm,
                      make_dbp_coefficient_set, propagate_link, run_dbp)
from fiberdbp.dbp import _BlockEngine
from conftest import spy_budget
from oracles import cb_essfm_closed_form, essfm_closed_form

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


def test_stage_tables_sum_to_the_closed_forms():
    # the closed forms of the docstrings are the oracle of every price
    for n in (1024, 2048, 4096, 16384):
        for n_ov in (0, 64, n // 8, n // 2):
            for n_st in range(31):
                for n_sb in (1, 2, 4, 8):
                    rep = cb_essfm_cost(n, n_ov, SPS, n_st, n_sb)
                    rm, ra = cb_essfm_closed_form(n, n_ov, SPS, n_st, n_sb)
                    case = (n, n_ov, n_st, n_sb)
                    assert math.isclose(rep.rm_per_2d, rm, rel_tol=1e-9), case
                    assert math.isclose(rep.ra_per_2d, ra, rel_tol=1e-9), case
                for n_c in range(41):
                    rep = essfm_time_domain_cost(n, n_ov, SPS, n_st, n_c)
                    rm, ra = essfm_closed_form(n, n_ov, SPS, n_st, n_c)
                    case = (n, n_ov, n_st, n_c)
                    assert math.isclose(rep.rm_per_2d, rm, rel_tol=1e-9), case
                    assert math.isclose(rep.ra_per_2d, ra, rel_tol=1e-9), case


@pytest.mark.parametrize("price, args, message", [
    (cb_essfm_cost, (N, N_OV, SPS, 15, 0), "n_subbands must be >= 1"),
    (cb_essfm_cost, (N, -10, SPS, 15, 2), "overlap >= 0"),
    (essfm_time_domain_cost, (N, -2, SPS, 15), "overlap >= 0"),
    (cb_essfm_cost, (N, N_OV, float("nan"), 15, 2), "oversampling"),
    (cb_essfm_cost, (N, N_OV, -1.125, 15, 2), "oversampling"),
    (essfm_time_domain_cost, (N, N_OV, float("inf"), 0), "oversampling"),
    (essfm_time_domain_cost, (N, N_OV, 0.0, 0), "oversampling"),
    # the split-radix count is negative at size 3: FFTs below 4 are refused
    (cb_essfm_cost, (3, 0, 1.0, 0, 1), "FFT size 3"),
    (cb_essfm_cost, (6, 0, 1.0, 1, 2), "FFT size 3"),
    (dbp_cost, (DbpConfig(link=LinkConfig(num_spans=2, span_length_km=80.0),
                          variant="CB_ESSFM", n_steps=1, n_subbands=4,
                          block_size=4, overlap=0, oversampling=SPS), 36e9),
     "FFT size 1")],
    ids=["no_subbands", "cb_negative_overlap", "essfm_negative_overlap",
         "nan_oversampling", "negative_oversampling", "inf_oversampling",
         "zero_oversampling", "outer_fft_of_3", "subband_fft_of_3",
         "subband_fft_of_1"])
def test_cost_functions_refuse_bad_blocks(price, args, message):
    with pytest.raises(ValueError, match=message):
        price(*args)


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


@pytest.mark.parametrize("cpus", [1, 2])
def test_engine_processes_num_blocks(counted_setup, monkeypatch, cpus):
    # the engine runs exactly the blocks of the tiling rule, whole and
    # partial, whether its pass runs on one thread or is split in two
    link, rx = counted_setup
    monkeypatch.setattr("fiberdbp.cpus.usable_cpus", lambda: cpus)
    monkeypatch.setattr("fiberdbp.cpus.MIN_SHARE", 0)
    entered = spy_budget(monkeypatch, "enter")
    processed = []
    process = _BlockEngine.process

    def spy(self, blk, lane):
        processed.append(blk.shape)
        return process(self, blk, lane)

    monkeypatch.setattr(_BlockEngine, "process", spy)
    for block, overlap, blocks in ((2048, 1024, 4), (2048, 512, 3)):
        cfg = DbpConfig(link=link, variant="EDC", n_steps=0, block_size=block,
                        overlap=overlap, oversampling=2.0)
        assert cfg.num_blocks(rx.num_samples) == blocks
        processed.clear()
        run_dbp(rx, cfg)
        assert processed == [(2, block)] * blocks
    assert entered == [cpus == 2] * 2


def test_counted_cost_runs_no_engine_pass(counted_setup, monkeypatch):
    # the report prices the tiling's blocks from the per-block table, and
    # refuses the tap sets the engine would refuse, without an engine pass
    link, rx = counted_setup

    def refuse(*args, **kwargs):
        raise AssertionError("count_runtime_multiplies ran the engine")

    monkeypatch.setattr("fiberdbp.dbp._run_blocks", refuse)
    for block, overlap, blocks in ((2048, 1024, 4), (2048, 512, 3)):
        cfg = DbpConfig(link=link, variant="EDC", n_steps=0, block_size=block,
                        overlap=overlap, oversampling=2.0)
        per_block = essfm_time_domain_cost(block, overlap, 2.0, 0)
        used = blocks * (block - overlap) / rx.num_samples
        assert count_runtime_multiplies(rx, cfg).rm_per_2d == pytest.approx(
            per_block.rm_per_2d * used, rel=1e-12)
    cfg = DbpConfig(link=link, variant="CB_ESSFM", n_steps=2, n_subbands=2,
                    block_size=2048, overlap=1024, oversampling=2.0)
    with pytest.raises(ValueError, match="requires a coefficient set"):
        count_runtime_multiplies(rx, cfg)
    other = DbpConfig(link=link, variant="CB_ESSFM", n_steps=1, n_subbands=2,
                      block_size=2048, overlap=1024, oversampling=2.0)
    taps = make_dbp_coefficient_set(other, rx.sample_rate, 1e-3, memory=2)
    with pytest.raises(ValueError, match="built for 1 steps"):
        count_runtime_multiplies(rx, cfg, taps)
    long = DbpConfig(link=link, variant="EDC", n_steps=0, block_size=8192)
    with pytest.raises(ValueError, match="block_size exceeds"):
        count_runtime_multiplies(rx, long)


def test_counted_golden_costs_with_split_passes():
    # two whole full-scale blocks: their counted cost is the published one
    link = LinkConfig(num_spans=2, span_length_km=80.0)
    n = 2 * (N - N_OV)
    rng = np.random.default_rng(0)
    w = DualPolWaveform(1e-2 * (rng.standard_normal((2, n))
                                + 1j * rng.standard_normal((2, n))), 36e9)
    for variant, n_steps, n_sb, golden in (("CB_ESSFM", 15, 2, 681),
                                           ("CB_ESSFM", 1, 2, 75),
                                           ("EDC", 0, 1, 32)):
        cfg = DbpConfig(link=link, variant=variant, n_steps=n_steps,
                        n_subbands=n_sb, block_size=N, overlap=N_OV,
                        oversampling=SPS)
        coeffs = None
        if cfg.uses_coefficients:
            coeffs = make_dbp_coefficient_set(cfg, 36e9, 1e-3)
        rep = count_runtime_multiplies(w, cfg, coeffs)
        assert round(rep.rm_per_2d) == golden, variant
