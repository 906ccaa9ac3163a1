"""Acceptance suite: one test per headline requirement of the toolkit.

Each test pins an externally visible behavior at its production operating
point: exact arithmetic-cost golden values, closed-form/quadrature kernel
agreement, coefficient properties, variant reduction identities, linear and
ideal-backpropagation round trips, nonlinear-rotation equivalence, block
partition invariance, and the desk-scale SNR ordering and splitting-ratio
shape. The desk-scale tests share their forward simulations through module
fixtures. The final 15-span reproduction is gated behind RUN_FULL_SCALE=1:
its pieces, timed one by one on a 2-vCPU VM, add up to about 45-50
minutes, an estimate that no end-to-end run has measured yet.
"""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import fiberdbp
from fiberdbp import (DbpConfig, LinkConfig, SimSettings, StepGeometry,
                      WdmConfig, analytic_coefficients, backward_propagate,
                      build_mimo_transfer, build_training_set, cb_essfm_cost,
                      channel_memory_samples, essfm_time_domain_cost,
                      evaluate, generate_wdm, make_dbp_coefficient_set,
                      nlpr_step, optimize_coefficients, prepare_dbp_input,
                      propagate_link, recover_symbols, run_dbp, snr,
                      step_kernel)
from fiberdbp.metrics import symbols_from_dbp_output
from fiberdbp.optimize import _concurrent_map

from conftest import rel_rms
from oracles import kernel_quadrature, volterra_oracle

# full-scale block parameters for the cost golden values
N_FULL, N_OV_FULL, SPS = 16384, 1800, 1.125

# desk system: 5 x 80 km, 3 WDM channels at 32 GBd, 2^15 symbols
DESK_LINK = LinkConfig(num_spans=5, span_length_km=80.0)
DESK_WDM = WdmConfig(baud_rate=32e9, num_channels=3, spacing=37.5e9,
                     rolloff=0.1, format="64-qam",
                     launch_power_dbm_per_channel=2.0)
DESK_RATE = SPS * 32e9
NSYM = 32768
POWER_GRID = (-4.0, -2.0, 0.0, 2.0, 4.0)
RHO_GRID = (0.0, 0.1, 0.15, 0.2, 0.5, 1.0)
SIM_ON = SimSettings(max_phase_rad=2e-3, noise_enabled=True, noise_seed=9)
SIM_OFF = SimSettings(max_phase_rad=2e-3, noise_enabled=False)


def desk_cfg(**kw):
    base = dict(link=DESK_LINK, variant="CB_ESSFM", n_steps=5, n_subbands=2,
                block_size=4096, overlap=1024, oversampling=SPS)
    base.update(kw)
    return DbpConfig(**base)


def central_snr(rx, rec, wdm, dcfg, coeffs):
    return evaluate(rx, rec, wdm, dcfg, coeffs).snr_db


def central_symbols(rx, rec, wdm, dcfg, coeffs):
    return (recover_symbols(rx, wdm, dcfg, coeffs),
            rec.channel(wdm.center_channel))


# ---------------------------------------------------------------- arithmetic


def test_golden_multiplication_counts():
    # coupled-band cost at the full-scale block size, and the linear-only
    # specialization, must hit the published integer counts exactly
    assert round(cb_essfm_cost(N_FULL, N_OV_FULL, SPS, 15, 2).rm_per_2d) == 681
    assert round(cb_essfm_cost(N_FULL, N_OV_FULL, SPS, 1, 2).rm_per_2d) == 75
    assert round(essfm_time_domain_cost(N_FULL, N_OV_FULL, SPS, 0).rm_per_2d) == 32


# -------------------------------------------------------------------- kernel


def test_closed_form_matches_quadrature_over_geometry_grid():
    rng = np.random.default_rng(101)
    span = SPS * 93e9
    for length in (26.7, 80.0, 240.0):
        for n_sp in (1, 2, 3):
            geom = StepGeometry(length_km=length, span_km=length / n_sp)
            mu = rng.uniform(-span, span, 100)
            nu = rng.uniform(-span, span, 100)
            # append points within 1e-3 of the removable denominator zeros
            # sin(b lsp) = 0, b = 2 pi^2 beta2 nu (mu - nu)
            beta2 = geom.beta2_ps2_km * 1e-24
            lsp = geom.span_km
            nu0 = 30e9
            for k in (1, 2):
                for eps in (1e-3, -1e-3):
                    b = (k * np.pi + eps) / lsp
                    mu = np.append(mu, nu0 + b / (2 * np.pi ** 2 * beta2 * nu0))
                    nu = np.append(nu, nu0)
            closed = step_kernel(mu, nu, geom)
            quad = kernel_quadrature(mu, nu, geom, num_points=40001)
            scale = np.abs(quad).max()
            err = np.abs(closed - quad) / np.maximum(np.abs(quad), 1e-3 * scale)
            assert err.max() < 1e-6, \
                f"L={length} n_sp={n_sp}: max rel err {err.max():.2e}"


def test_coefficient_properties(geom240):
    sub_rate = SPS * 93e9 / 2

    c0 = analytic_coefficients(geom240, 0.0, 15, sub_rate, 1e-3)
    assert np.abs(c0 - c0[::-1]).max() < 1e-10 * np.abs(c0).max()

    c_p = analytic_coefficients(geom240, 0.0, 8, sub_rate, 1e-3)
    assert np.abs(analytic_coefficients(geom240, 0.0, 8, sub_rate, 3e-3)
                  - 3 * c_p).max() < 1e-12 * np.abs(c_p).max()
    geom_g = StepGeometry(length_km=240.0, span_km=80.0,
                          gamma_w_km=2 * geom240.gamma_w_km)
    assert np.abs(analytic_coefficients(geom_g, 0.0, 8, sub_rate, 1e-3)
                  - 2 * c_p).max() < 1e-12 * np.abs(c_p).max()

    rng = np.random.default_rng(14)
    mu = rng.uniform(-sub_rate, sub_rate, 50)
    nu = rng.uniform(-sub_rate, sub_rate, 50)
    fwd = step_kernel(mu, nu, geom240)
    rev = step_kernel(-mu, -nu, geom240)
    assert np.abs(fwd - rev).max() < 1e-10 * np.abs(fwd).max()

    c30 = analytic_coefficients(geom240, 0.0, 30, sub_rate, 1e-3)
    d = volterra_oracle(geom240, sub_rate, 30, 1e-3)
    assert d.shape == (61, 61)
    diag = np.real(np.diag(d))
    assert np.abs(diag - c30).max() < 1e-6 * np.abs(c30).max()


# ------------------------------------------------------- reduction identities


@pytest.fixture(scope="module")
def reduction_wave():
    wdm = WdmConfig(baud_rate=32e9, launch_power_dbm_per_channel=2.0)
    tx, _ = generate_wdm(wdm, 16384, sim_rate=64e9, seed=21)
    return propagate_link(tx, DESK_LINK, SIM_OFF)


def red_cfg(**kw):
    base = dict(link=DESK_LINK, n_steps=5, block_size=32768, overlap=0,
                oversampling=2.0)
    base.update(kw)
    return DbpConfig(**base)


def red_run(w, cfg, **kw):
    coeffs = None
    if cfg.uses_coefficients:
        coeffs = make_dbp_coefficient_set(cfg, w.sample_rate, 1e-3, **kw)
    return run_dbp(w, cfg, coeffs)


def test_variant_reduction_identities(reduction_wave):
    w = reduction_wave

    cb = red_run(w, red_cfg(variant="CB_ESSFM", n_subbands=1,
                            splitting_ratio=0.5))
    es = red_run(w, red_cfg(variant="ESSFM"))
    assert rel_rms(cb.field, es.field) < 1e-12

    es0 = red_run(w, red_cfg(variant="ESSFM"), memory=0)
    os_ = red_run(w, red_cfg(variant="OSSFM"))
    assert rel_rms(es0.field, os_.field) < 1e-12

    edc = red_run(w, red_cfg(variant="EDC", n_steps=0))
    for variant, n_sb in (("CB_ESSFM", 2), ("ESSFM", 1)):
        out = red_run(w, red_cfg(variant=variant, n_steps=0, n_subbands=n_sb))
        assert rel_rms(out.field, edc.field) < 1e-12


# ----------------------------------------------------------------- round trip


def test_linear_round_trip_recovers_transmit_snr():
    wdm = WdmConfig(baud_rate=32e9, launch_power_dbm_per_channel=0.0)
    link = LinkConfig(num_spans=15, span_length_km=80.0, gamma_w_km=0.0)
    tx, rec = generate_wdm(wdm, 8192, seed=9)
    rx = propagate_link(tx, link, SIM_OFF)
    edc = DbpConfig(link=link, variant="EDC", n_steps=0,
                    block_size=int(8192 * SPS), overlap=0, oversampling=SPS)
    s = central_snr(rx, rec, wdm, edc, None)
    assert s > 60.0, f"linear round trip SNR {s:.1f} dB"


def test_ideal_backpropagation_inverts_nonlinear_channel():
    # full-bandwidth processing: the nonlinearly broadened spectrum must
    # survive both the forward simulation and the receiver resampling. The
    # ideal receiver is the simulator run backward in 0.8 km steps (1500
    # over the link) from the launch power, without noise.
    wdm = WdmConfig(baud_rate=32e9, launch_power_dbm_per_channel=0.0)
    link = LinkConfig(num_spans=15, span_length_km=80.0)
    tx, rec = generate_wdm(wdm, 8192, sim_rate=128e9, seed=9)
    rx = propagate_link(tx, link, SIM_OFF)
    full_band = DbpConfig(link=link, variant="EDC", n_steps=0,
                          oversampling=4.0)  # sets the 128 GS/s input rate
    w = prepare_dbp_input(rx, wdm, full_band)
    out = backward_propagate(w, link, SimSettings(step_km=0.8,
                                                  noise_enabled=False),
                             w.power)
    center = (wdm.num_channels - 1) // 2
    s = snr(symbols_from_dbp_output(out, wdm), rec.channel(center)).snr_db
    assert s > 40.0, f"ideal backpropagation SNR {s:.1f} dB"


# ----------------------------------------------------------- rotation formula


def test_rotation_matches_direct_circular_formula():
    cfg = desk_cfg()
    coeffs = make_dbp_coefficient_set(cfg, 64e9, 1e-3)
    rng = np.random.default_rng(5)
    n_prime = 256
    # (polarization, subband, sample) time-domain fields
    fields = np.stack([np.stack([rng.normal(size=n_prime) * 0.03 + 0j,
                                 rng.normal(size=n_prime) * 0.03 + 0j])
                       for _ in range(2)], axis=1)
    got = nlpr_step(fields, build_mimo_transfer(coeffs, n_prime), 1.0 / 1e-3)

    intens = np.abs(fields[0]) ** 2 + np.abs(fields[1]) ** 2
    for i in range(2):
        theta = np.zeros(n_prime)
        for ell in range(2):
            c = coeffs.coeffs[abs(ell - i)]
            w = (c.size - 1) // 2
            weight = 1.0 if ell == i else 1.5
            sgn = 1 if ell >= i else -1
            for m, cm in zip(range(-w, w + 1), c):
                theta += weight * cm * np.roll(intens[ell], sgn * m)
        theta /= 1e-3
        for pol in range(2):
            assert rel_rms(got[pol, i],
                           fields[pol, i] * np.exp(-1j * theta)) < 1e-10


# ------------------------------------------------------ partition invariance


def test_block_partition_invariance():
    wdm = replace(DESK_WDM, launch_power_dbm_per_channel=-10.0)
    tx, rec = generate_wdm(wdm, 16384, seed=9)
    rx = propagate_link(tx, DESK_LINK, SIM_ON)
    mem = channel_memory_samples(DESK_LINK, DESK_RATE, DESK_RATE)
    overlap = 2688
    # the overlap-save error falls to 1e-4 only at about 20 channel memories
    assert overlap >= 20 * mem
    outs = []
    for block in (8192, 16384):
        dcfg = desk_cfg(block_size=block, overlap=overlap)
        coeffs = make_dbp_coefficient_set(dcfg, DESK_RATE, wdm.launch_power_w)
        outs.append(run_dbp(prepare_dbp_input(rx, wdm, dcfg, 1), dcfg, coeffs))
    err = rel_rms(outs[0].field, outs[1].field)
    assert err < 1e-4, f"partition deviation {err:.2e}"


# ------------------------------------------------------------- desk fixtures


@pytest.fixture(scope="module")
def desk_sims():
    """Forward simulations of the desk system over the launch-power grid.

    They run one thread per usable CPU, highest power (most fine steps)
    first; each is seeded on its own, so the thread count changes nothing.
    """
    def simulate(p):
        wdm = replace(DESK_WDM, launch_power_dbm_per_channel=p)
        tx, rec = generate_wdm(wdm, NSYM, seed=9)
        return wdm, rec, propagate_link(tx, DESK_LINK, SIM_ON)

    powers = sorted(POWER_GRID, reverse=True)
    sims = dict(zip(powers, _concurrent_map(simulate, powers)))
    return {p: sims[p] for p in POWER_GRID}


@pytest.fixture(scope="module")
def best_power(desk_sims):
    sweep = {}
    for p, (wdm, rec, rx) in desk_sims.items():
        coeffs = make_dbp_coefficient_set(desk_cfg(), DESK_RATE,
                                          wdm.launch_power_w)
        sweep[p] = central_snr(rx, rec, wdm, desk_cfg(), coeffs)
    best = max(sweep, key=sweep.get)
    assert min(POWER_GRID) < best < max(POWER_GRID), \
        "sweep optimum must be interior to the grid"
    return best


@pytest.fixture(scope="module")
def desk_train(desk_sims, best_power):
    wdm = desk_sims[best_power][0]
    return build_training_set(DESK_LINK, wdm, 16384,
                              sim=SimSettings(max_phase_rad=2e-3,
                                              noise_enabled=True),
                              train_seed=1, val_seed=2)


@pytest.fixture(scope="module")
def rho_profile(desk_sims, best_power, desk_train):
    """Per splitting ratio: tuned coefficients, validation MSE, eval SNR."""
    wdm, rec, rx = desk_sims[best_power]
    prof = {}
    for rho in RHO_GRID:
        d = desk_cfg(splitting_ratio=rho)
        init = make_dbp_coefficient_set(d, DESK_RATE, wdm.launch_power_w)
        res = optimize_coefficients(desk_train, d, init)
        prof[rho] = (res.final_val_mse, res.coeffs,
                     central_snr(rx, rec, wdm, d, res.coeffs))
    return prof


# ------------------------------------------------------------- desk behavior


def test_desk_variant_ordering(desk_sims, best_power, rho_profile):
    wdm, rec, rx = desk_sims[best_power]
    results = {}
    for variant in ("EDC", "OSSFM", "ESSFM"):
        d = desk_cfg(variant=variant, n_steps=0 if variant == "EDC" else 5,
                     n_subbands=1)
        coeffs = None if variant == "EDC" else \
            make_dbp_coefficient_set(d, DESK_RATE, wdm.launch_power_w)
        results[variant] = central_snr(rx, rec, wdm, d, coeffs)
    best_rho = min(rho_profile, key=lambda r: rho_profile[r][0])
    results["CB_ESSFM"] = rho_profile[best_rho][2]

    chain = ("EDC", "OSSFM", "ESSFM", "CB_ESSFM")
    report = "  ".join(f"{v}={results[v]:.3f}" for v in chain) \
        + f"  (power {best_power:+.0f} dBm, rho {best_rho})"
    flags = []
    for lo, hi in zip(chain, chain[1:]):
        margin = results[hi] - results[lo]
        assert margin > 0.0, f"{hi} <= {lo}: {report}"
        if margin < 0.05:
            flags.append(f"{hi} over {lo} only {margin:.3f} dB")
    if flags:
        print(f"FLAG for inspection: {'; '.join(flags)}  [{report}]")
    print(report)


def test_interior_splitting_beats_symmetric(rho_profile):
    interior = max(rho_profile[r][2] for r in (0.1, 0.15, 0.2))
    symmetric = rho_profile[0.5][2]
    assert interior > symmetric, \
        f"interior best {interior:.3f} dB <= symmetric {symmetric:.3f} dB"


def test_endpoint_splitting_symmetry(desk_sims, best_power, rho_profile):
    # rho = 0 (all of a step's dispersion before its rotation) and rho = 1
    # (all of it after) converge to the same fine-step backpropagation, so
    # their SNR gap is a per-step model error that vanishes as the steps
    # shorten. Pinned as that law: (a) with analytic taps at four steps per
    # span the endpoints agree within the estimator noise; (b) the analytic
    # gap falls significantly from 5 to 10 to 20 steps; (c) at one step per
    # span, taps tuned for each endpoint recover part of the gap. Per-block
    # SNR differences are paired so the shared-noise part cancels.
    wdm, rec, rx = desk_sims[best_power]
    n_blocks = 8
    size = NSYM // n_blocks

    def block_deltas(n_st, coeffs):
        streams = {}
        for rho in (0.0, 1.0):
            d = desk_cfg(n_steps=n_st, splitting_ratio=rho)
            streams[rho] = central_symbols(rx, rec, wdm, d, coeffs[rho])
        deltas = []
        for i in range(n_blocks):
            sl = slice(i * size, (i + 1) * size)
            s0 = snr(streams[0.0][0][:, sl], streams[0.0][1][:, sl]).snr_db
            s1 = snr(streams[1.0][0][:, sl], streams[1.0][1][:, sl]).snr_db
            deltas.append(s0 - s1)
        return np.array(deltas)

    def three_sem(deltas):
        return 3 * float(np.std(deltas, ddof=1) / np.sqrt(n_blocks))

    deltas = {}
    for n_st in (5, 10, 20):
        analytic = {rho: make_dbp_coefficient_set(
            desk_cfg(n_steps=n_st, splitting_ratio=rho), DESK_RATE,
            wdm.launch_power_w) for rho in (0.0, 1.0)}
        deltas[f"analytic {n_st}"] = block_deltas(n_st, analytic)
    deltas["tuned 5"] = block_deltas(
        5, {rho: rho_profile[rho][1] for rho in (0.0, 1.0)})
    report = "SNR(rho=0) - SNR(rho=1) by taps and steps over 5 spans: " \
        + "; ".join(f"{k}: {d.mean():+.3f} dB (3 SEM {three_sem(d):.3f})"
                    for k, d in deltas.items())

    fine = deltas["analytic 20"]
    assert abs(fine.mean()) <= three_sem(fine), \
        f"endpoints disagree at 4 steps per span. {report}"
    for hi, lo in (("analytic 5", "analytic 10"),
                   ("analytic 10", "analytic 20"),
                   ("analytic 5", "tuned 5")):
        drop = deltas[hi] - deltas[lo]
        assert drop.mean() > three_sem(drop), (
            f"gap {lo} is not below gap {hi} by more than 3 SEM of the "
            f"paired drop: {drop.mean():+.3f} <= {three_sem(drop):.3f} dB. "
            f"{report}")


# ----------------------------------------------------------------- full scale


@pytest.mark.skipif(os.environ.get("RUN_FULL_SCALE") != "1",
                    reason="15-span run, about 45-50 min estimated "
                           "(unmeasured); set RUN_FULL_SCALE=1")
def test_full_scale_gain_over_linear_equalization():
    wdm_base = WdmConfig(baud_rate=93e9, num_channels=5, spacing=100e9,
                         rolloff=0.05, format="64-qam",
                         launch_power_dbm_per_channel=3.0)
    link = LinkConfig(num_spans=15, span_length_km=80.0)
    rate = SPS * 93e9
    rho_grid = (0.1, 0.15, 0.2, 0.5)

    def full_cfg(**kw):
        base = dict(link=link, variant="CB_ESSFM", n_steps=15, n_subbands=2,
                    block_size=16384, overlap=2048, oversampling=SPS)
        base.update(kw)
        return DbpConfig(**base)

    peaks = {"EDC": -np.inf, 15: -np.inf, 1: -np.inf}
    for p in (2.0, 3.0, 4.0):
        wdm = replace(wdm_base, launch_power_dbm_per_channel=p)
        tx, rec = generate_wdm(wdm, NSYM, seed=9)
        rx = propagate_link(tx, link, SIM_ON)
        edc = full_cfg(variant="EDC", n_steps=0, n_subbands=1)
        peaks["EDC"] = max(peaks["EDC"],
                           central_snr(rx, rec, wdm, edc, None))
        # training waveforms must hold at least one full processing block
        train = build_training_set(link, wdm, 16384,
                                   sim=SimSettings(max_phase_rad=2e-3,
                                                   noise_enabled=True),
                                   train_seed=1, val_seed=2)
        for n_st in (15, 1):
            tuned = []
            for rho in rho_grid:
                d = full_cfg(n_steps=n_st, splitting_ratio=rho)
                init = make_dbp_coefficient_set(d, rate, wdm.launch_power_w)
                res = optimize_coefficients(train, d, init)
                tuned.append((res.final_val_mse, rho, res.coeffs))
            _, rho, coeffs = min(tuned, key=lambda t: t[0])
            d = full_cfg(n_steps=n_st, splitting_ratio=rho)
            peaks[n_st] = max(peaks[n_st],
                              central_snr(rx, rec, wdm, d, coeffs))
        print(f"power {p:+.0f} dBm done: {peaks}")

    gain_15 = peaks[15] - peaks["EDC"]
    gain_1 = peaks[1] - peaks["EDC"]
    print(f"full scale: EDC {peaks['EDC']:.3f}, 15-step gain {gain_15:.3f}, "
          f"1-step gain {gain_1:.3f} dB")
    assert 0.8 <= gain_15 <= 1.2, f"15-step gain {gain_15:.3f} dB"
    assert 0.19 <= gain_1 <= 0.49, f"1-step gain {gain_1:.3f} dB"


# the 1-step full-scale taps (n = 10 769 kernel grid nodes) at a splitting
# ratio off the step center; prints wall seconds and peak RSS in KiB. The
# peak is VmHWM, this process's own: Linux carries ru_maxrss across exec,
# so ru_maxrss would read at least the peak of the pytest process
ONE_STEP_TAPS = """
import time
from fiberdbp import DbpConfig, LinkConfig, make_dbp_coefficient_set
cfg = DbpConfig(link=LinkConfig(num_spans=15, span_length_km=80.0),
                variant="CB_ESSFM", n_steps=1, n_subbands=2,
                splitting_ratio=0.15, block_size=16384, overlap=1800,
                oversampling=1.125)
t0 = time.perf_counter()
make_dbp_coefficient_set(cfg, 1.125 * 93e9, 10 ** 0.3 * 1e-3)
seconds = time.perf_counter() - t0
with open("/proc/self/status") as status:
    print(seconds, next(line.split()[1] for line in status
                        if line.startswith("VmHWM:")))
"""


@pytest.mark.skipif(os.environ.get("RUN_FULL_SCALE") != "1",
                    reason="minute-long full-scale tap build; "
                           "set RUN_FULL_SCALE=1")
def test_full_scale_one_step_taps_fit_in_half_a_gigabyte():
    src = str(Path(fiberdbp.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", ONE_STEP_TAPS], env=env,
                         capture_output=True, text=True, check=True).stdout
    seconds, rss_kib = out.split()
    rss_mb = int(rss_kib) / 1024
    print(f"1-step full-scale taps: {float(seconds):.1f} s, {rss_mb:.0f} MB")
    assert rss_mb < 512
