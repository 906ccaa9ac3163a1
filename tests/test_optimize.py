"""Coefficient optimizer and sweep helper tests.

The optimizer cases are built around links where the right answer is known
from physics: on a linear link the best taps are zero, and on a nonlinear
link a tap-shaped rotation fitted from data should land near the analytic
shape. The never-degrade guard is exercised with deliberately mismatched
train/validation splits.
"""

import threading
import time
from dataclasses import fields, replace
from unittest import mock

import numpy as np
import pytest
import scipy.optimize
from hypothesis import example, given, settings, strategies as st

import fiberdbp.channel
import fiberdbp.optimize
from fiberdbp import (DbpConfig, LinkConfig, SimSettings, SweepResult,
                      TrainingSet, WdmConfig, build_training_set, evaluate,
                      generate_wdm, make_dbp_coefficient_set,
                      optimize_coefficients, propagate_link, run_dbp,
                      standard_ssfm_coefficient_set,
                      sweep_launch_power, sweep_splitting_ratio)
from fiberdbp.dbp import _run_blocks
from fiberdbp.metrics import remove_mean_phase, symbols_from_dbp_output
from fiberdbp.optimize import (DIFF_STEP, _concurrent_map, _fit_least_squares,
                               _Objective, receiver_coefficients,
                               score_receivers)
from oracles import optimize_oracle

WDM = WdmConfig(32e9, 1, 0.0, 0.1, "64-qam", 2.0)
LINK_LIN = LinkConfig(2, 80.0, gamma_w_km=0.0)
LINK_NL = LinkConfig(2, 80.0)
SIM_OFF = SimSettings(max_phase_rad=2e-3, noise_enabled=False)
RATE = 1.125 * 32e9

CFG_LIN = DbpConfig(link=LINK_LIN, variant="ESSFM", n_steps=2, block_size=576,
                    overlap=0, oversampling=1.125)
CFG_NL = replace(CFG_LIN, link=LINK_NL)
# three blocks of two subbands per training run
CFG_CB = replace(CFG_NL, variant="CB_ESSFM", n_subbands=2, block_size=288,
                 overlap=96)


@pytest.fixture(scope="module")
def train_linear():
    return build_training_set(LINK_LIN, WDM, 512, sim=SIM_OFF)


@pytest.fixture(scope="module")
def train_nonlinear():
    return build_training_set(LINK_NL, WDM, 512, sim=SIM_OFF)


@pytest.fixture(scope="module")
def analytic_nl():
    return make_dbp_coefficient_set(CFG_NL, RATE, WDM.launch_power_w,
                                    oversample=16, memory=6)


def test_linear_link_drives_taps_to_zero(train_linear, analytic_nl):
    # start from taps fitted to a nonlinear link; on a linear one the
    # optimizer should discover they only hurt and null them out
    res = optimize_coefficients(train_linear, CFG_LIN, analytic_nl)
    assert res.improved
    assert res.final_val_mse < 1e-3 * res.init_val_mse
    peak = np.max(np.abs(res.coeffs.coeffs[0]))
    assert peak < 1e-6 * np.max(np.abs(analytic_nl.coeffs[0]))


def test_guard_returns_init_when_validation_degrades(analytic_nl):
    # train split sees a nonlinear channel, validation split a linear one:
    # zero taps are perfect for validation, so whatever the fit learns from
    # the train split must degrade it and the guard has to fire
    tx_nl, rec_nl = generate_wdm(WDM, 512, seed=1)
    rx_nl = propagate_link(tx_nl, LINK_NL, SIM_OFF)
    tx_lin, rec_lin = generate_wdm(WDM, 512, seed=2)
    rx_lin = propagate_link(tx_lin, LINK_LIN, SIM_OFF)
    mixed = TrainingSet(WDM, rx_nl, rec_nl, rx_lin, rec_lin)
    zero = replace(analytic_nl, coeffs={h: np.zeros_like(c)
                                        for h, c in analytic_nl.coeffs.items()})

    res = optimize_coefficients(mixed, CFG_LIN, zero)
    assert not res.improved
    assert res.coeffs is zero
    assert res.final_val_mse == res.init_val_mse


def test_recovers_analytic_tap_shape_from_spike_init(train_nonlinear,
                                                     analytic_nl):
    # a single-tap rotation is the generic starting point; the fitted
    # vector should line up with the analytic shape, not some arbitrary
    # minimum of the training objective
    spike = standard_ssfm_coefficient_set(CFG_NL, RATE, WDM.launch_power_w,
                                          memory=6)
    res = optimize_coefficients(train_nonlinear, CFG_NL, spike)
    assert res.improved
    a = analytic_nl.coeffs[0]
    b = res.coeffs.coeffs[0]
    corr = np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b))
    assert corr > 0.9


def test_tuned_taps_stay_even_symmetric(train_nonlinear, analytic_nl):
    res = optimize_coefficients(train_nonlinear, CFG_NL, analytic_nl)
    c0 = res.coeffs.coeffs[0]
    assert np.array_equal(c0, c0[::-1])


def test_optimizer_is_deterministic(train_nonlinear, analytic_nl):
    r1 = optimize_coefficients(train_nonlinear, CFG_NL, analytic_nl)
    r2 = optimize_coefficients(train_nonlinear, CFG_NL, analytic_nl)
    assert r1.improved == r2.improved
    assert r1.final_val_mse == r2.final_val_mse
    for h in r1.coeffs.coeffs:
        assert np.array_equal(r1.coeffs.coeffs[h], r2.coeffs.coeffs[h])
    assert r1.train_mse_path == r2.train_mse_path


@pytest.fixture(scope="module")
def tap_bases():
    return {cfg.variant: (cfg, make_dbp_coefficient_set(cfg, RATE,
                                                        WDM.launch_power_w))
            for cfg in (CFG_NL, CFG_CB)}


@settings(max_examples=12, deadline=None)
@given(variant=st.sampled_from(["ESSFM", "CB_ESSFM"]),
       batch=st.integers(1, 5), seed=st.integers(0, 2 ** 16),
       sets_per_pass=st.sampled_from([1, 2, None]))
@example(variant="CB_ESSFM", batch=5, seed=0, sets_per_pass=2)
@example(variant="ESSFM", batch=3, seed=1, sets_per_pass=1)
def test_batched_residuals_equal_single_runs(train_nonlinear, tap_bases,
                                             variant, batch, seed,
                                             sets_per_pass):
    # perturbed tap sets in a random order, scored in engine passes of
    # one, two or all sets: each must equal the residual of its own
    # backpropagation run, computed here from run_dbp
    cfg, base = tap_bases[variant]
    rng = np.random.default_rng(seed)

    def perturbed(c, h):
        r = rng.standard_normal(c.size)
        return c * (1 + 1e-3 * (r + r[::-1] if h == 0 else r))  # even h = 0

    sets = [replace(base, coeffs={h: perturbed(c, h)
                                  for h, c in base.coeffs.items()})
            for _ in range(batch)]
    obj = _Objective(train_nonlinear, cfg)
    budget = fiberdbp.optimize._BATCH_BYTES
    if sets_per_pass is not None:
        budget = sets_per_pass * obj.set_bytes + obj.set_bytes // 2
    passes = []
    with mock.patch.object(fiberdbp.optimize, "_BATCH_BYTES", budget), \
            mock.patch.object(fiberdbp.optimize, "_run_blocks",
                              lambda w, cfg, sets: passes.append(len(sets))
                              or _run_blocks(w, cfg, sets)):
        got = list(obj.iter_residuals(sets))
    k = sets_per_pass or batch
    assert passes == [k] * (batch // k) + [batch % k] * (batch % k > 0)
    assert len(got) == batch
    for coeffs, r in zip(sets, got):
        out = run_dbp(obj.w_train, cfg, coeffs)
        rx, _ = remove_mean_phase(symbols_from_dbp_output(out, WDM),
                                  obj.tx_train)
        err = (rx - obj.tx_train).ravel() / np.sqrt(2 * rx.shape[-1])
        single = np.concatenate([err.real, err.imag])
        assert np.array_equal(r, single)
        assert np.array_equal(list(obj.iter_residuals([coeffs]))[0], single)


@pytest.mark.parametrize("cfg", [CFG_NL, CFG_CB], ids=["ESSFM", "CB_ESSFM"])
def test_fit_reproduces_serial_optimizer(train_nonlinear, cfg):
    # batched Jacobian columns must leave the solver's trajectory untouched
    init = standard_ssfm_coefficient_set(cfg, RATE, WDM.launch_power_w,
                                         memory=4)
    res = optimize_coefficients(train_nonlinear, cfg, init)
    taps, path = optimize_oracle(train_nonlinear, cfg, init)
    assert res.improved
    assert res.train_mse_path == path
    for h, c in taps.items():
        assert np.array_equal(res.coeffs.coeffs[h], c)


def test_no_jacobian_after_the_terminating_step(train_nonlinear,
                                                monkeypatch):
    # every tap set the engine sees on the training split is a residual
    # evaluation (a pass of one set) or a Jacobian column (a pass of P
    # sets); the last training pass is the step that ended the fit
    init = standard_ssfm_coefficient_set(CFG_NL, RATE, WDM.launch_power_w,
                                         memory=4)
    passes = []
    monkeypatch.setattr(fiberdbp.optimize, "_run_blocks",
                        lambda w, cfg, sets: passes.append(len(sets))
                        or _run_blocks(w, cfg, sets))
    res = optimize_coefficients(train_nonlinear, CFG_NL, init)
    (fit,) = res.fits.values()
    p = (init.coeffs[0].size + 1) // 2
    train, val = passes[:-2], passes[-2:]  # val: init and tuned sets
    assert val == [1, 1]
    assert sum(train) == fit.nfev + p * fit.njev
    assert train.count(p) == fit.njev and train.count(1) == fit.nfev
    assert train[:2] == [1, p] and train[-1] == 1
    assert fit.termination != "max_nfev"


# synthetic residual problems for the solver; each reaches one path of it
_T = np.linspace(0.0, 1.0, 40)
_A = np.random.default_rng(0).standard_normal((30, 4))
_B = np.random.default_rng(1).standard_normal(30)


def _rosenbrock(p):
    return np.array([10 * (p[1] - p[0] ** 2), 1 - p[0]])


def _log_ratio(p):
    # a Gauss-Newton step from 4 overshoots 0.01 past 0, where log fails
    log = np.log(p[0] / 0.01) if p[0] > 0 else -np.inf
    return np.array([log, 0.1 * (p[0] - 0.01)])


SYNTHETIC = {
    # (residuals, x0, max_nfev, the path the fit must reach)
    "linear": (lambda p: _A @ p - _B, np.zeros(4), 100, "gauss-newton"),
    "exponential": (lambda p: p[0] * np.exp(-p[1] * _T) + p[2]
                    - 2 * np.exp(-1.3 * _T) - 0.5,
                    np.array([1.0, 0.5, 0.0]), 400, "bounded"),
    "rosenbrock": (_rosenbrock, np.array([-1.2, 1.0]), 300, "bounded"),
    # p[1] never enters: its Jacobian column is exactly zero
    "rank_deficient": (lambda p: p[0] * _T + p[2] * _T ** 2 - np.sqrt(_T),
                       np.array([0.3, 0.7, 0.0]), 300, "rank-deficient"),
    "non_finite": (_log_ratio, np.array([4.0]), 100, "non-finite"),
    "capped": (_rosenbrock, np.array([-1.2, 1.0]), 7, "max_nfev"),
}


def _scipy_trf(fun, x0, max_nfev):
    sol = scipy.optimize.least_squares(fun, x0, method="trf",
                                       diff_step=DIFF_STEP,
                                       max_nfev=max_nfev)
    return sol.x, sol.fun


def _assert_fit_matches(x, f, want_x, want_f, cost0):
    # x within 1e-6 of the peak |x| and the cost within 1e-12 of the
    # initial cost; measured: at most 7.4e-8 and 1e-16 (the SVD is numpy's
    # LAPACK here, scipy's there)
    assert np.max(np.abs(x - want_x)) <= 1e-6 * np.max(np.abs(want_x))
    assert abs(np.dot(f, f) - np.dot(want_f, want_f)) <= 1e-12 * cost0


@pytest.mark.parametrize("case", [*SYNTHETIC, "ESSFM", "CB_ESSFM"])
def test_solver_matches_scipy_trf(request, monkeypatch, case):
    if case not in SYNTHETIC:
        # the band-by-band fit against scipy's serial trf per band; a
        # band's start depends on the bands before it, so its MSE moves
        # with their rounding (measured 2.4e-10 relative)
        cfg = {"ESSFM": CFG_NL, "CB_ESSFM": CFG_CB}[case]
        train = request.getfixturevalue("train_nonlinear")
        init = standard_ssfm_coefficient_set(cfg, RATE, WDM.launch_power_w,
                                             memory=4)
        res = optimize_coefficients(train, cfg, init)
        taps, path = optimize_oracle(train, cfg, init, _scipy_trf)
        peak = max(np.max(np.abs(c)) for c in taps.values())
        for h, c in taps.items():
            assert np.max(np.abs(res.coeffs.coeffs[h] - c)) <= 1e-6 * peak
        np.testing.assert_allclose(res.train_mse_path, path, rtol=1e-9)
        return
    fun, x0, max_nfev, path = SYNTHETIC[case]
    reached = set()
    real_step = fiberdbp.optimize._trust_region_step

    def step(uf, s, V, delta, alpha, m):
        p, alpha = real_step(uf, s, V, delta, alpha, m)
        reached.add("gauss-newton" if alpha == 0 else "bounded")
        if s[-1] <= np.finfo(float).eps * m * s[0]:
            reached.add("rank-deficient")
        return p, alpha

    def residuals(p):
        r = fun(p)
        if not np.all(np.isfinite(r)):
            reached.add("non-finite")
        return r

    monkeypatch.setattr(fiberdbp.optimize, "_trust_region_step", step)
    x, f, fit = _fit_least_squares(lambda xs: map(residuals, xs), x0,
                                   max_nfev)
    if fit.termination == "max_nfev":
        reached.add("max_nfev")
    assert path in reached
    assert fit.nfev <= max_nfev
    _assert_fit_matches(x, f, *_scipy_trf(fun, x0, max_nfev),
                        np.dot(fun(x0), fun(x0)))


def test_training_set_rejects_shared_seed():
    tx, rec = generate_wdm(WDM, 64, seed=5)
    rx = propagate_link(tx, LINK_LIN, SIM_OFF)
    with pytest.raises(ValueError, match="different seeds"):
        TrainingSet(WDM, rx, rec, rx, rec)


def test_training_set_refuses_shared_seed_before_simulating(monkeypatch):
    def unexpected(*args, **kwargs):
        raise AssertionError("simulated a transmission")

    monkeypatch.setattr(fiberdbp.optimize, "propagate_link", unexpected)
    with pytest.raises(ValueError, match="different seeds"):
        build_training_set(LINK_NL, WDM, 64, SIM_OFF, train_seed=3,
                           val_seed=3)


@pytest.mark.parametrize("cpus", [None, 1, 2])
def test_training_set_is_the_serial_composition(monkeypatch, pool_widths,
                                                cpus):
    # a small ASE-on link: each transmission draws its own symbols and
    # noise, so the pair is the same whatever thread runs it
    sim = SimSettings(max_phase_rad=2e-3, noise_enabled=True)
    if cpus is not None:
        # the one CPU budget: this patch sizes the pool and the span threads
        monkeypatch.setattr(fiberdbp.cpus, "usable_cpus", lambda: cpus)
    got = build_training_set(LINK_NL, WDM, 128, sim, train_seed=4,
                             val_seed=7)
    width = min(fiberdbp.cpus.usable_cpus(), 2)
    assert pool_widths == ([width] if width > 1 else [])
    for seed, rx, record in ((4, got.train_rx, got.train_record),
                             (7, got.val_rx, got.val_record)):
        tx, want_record = generate_wdm(WDM, 128, seed=seed)
        want_rx = propagate_link(tx, LINK_NL, replace(sim, noise_seed=seed))
        assert np.array_equal(rx.field, want_rx.field)
        assert rx.sample_rate == want_rx.sample_rate
        assert np.array_equal(record.symbols, want_record.symbols)
        assert record.seed == seed


def test_concurrent_map_keeps_input_order(monkeypatch, pool_widths):
    # the first items finish last, so pool completion order is reversed
    def slow(i):
        time.sleep(0.02 * (4 - i))
        return i * i

    for cpus in (2, 8):
        monkeypatch.setattr(fiberdbp.cpus, "usable_cpus", lambda: cpus)
        assert _concurrent_map(slow, range(5)) == [0, 1, 4, 9, 16]
    # one thread per usable CPU, no more threads than items
    assert pool_widths == [2, 5]


def test_concurrent_map_runs_inline_without_a_pool(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("built a thread pool")

    monkeypatch.setattr(fiberdbp.optimize, "ThreadPoolExecutor", no_pool)
    here = threading.get_ident()

    def where(x):
        return x, threading.get_ident()

    monkeypatch.setattr(fiberdbp.cpus, "usable_cpus", lambda: 1)
    assert _concurrent_map(where, [1, 2, 3]) == [(1, here), (2, here),
                                                  (3, here)]
    monkeypatch.setattr(fiberdbp.cpus, "usable_cpus", lambda: 4)
    assert _concurrent_map(where, [5]) == [(5, here)]
    assert _concurrent_map(where, []) == []


def test_sweep_result_rows_and_best():
    sw = SweepResult("rho", np.array([0.1, 0.5, 0.9]),
                     np.array([20.0, 22.5, 21.0]))
    rows = sw.csv_rows()
    assert [list(r) for r in rows] == [["rho", "SNR_dB"]] * 3
    assert rows[1] == {"rho": 0.5, "SNR_dB": 22.5}
    assert sw.best_value == sw.values[np.argmax(sw.snr_db)] == 0.5
    assert sw.best_snr_db == 22.5
    # a tie goes to the first maximum on the grid
    tie = SweepResult("rho", np.array([0.1, 0.5, 0.9]),
                      np.array([22.5, 20.0, 22.5]))
    assert (tie.best_value, tie.best_snr_db) == (0.1, 22.5)


def test_splitting_ratio_sweep_reports_grid_argmax(train_nonlinear):
    tx, rec = generate_wdm(WDM, 256, seed=9)
    rx = propagate_link(tx, LINK_NL, SIM_OFF)
    cfg = replace(CFG_NL, block_size=288, n_steps=1)
    sw = sweep_splitting_ratio([0.1, 0.5], rx, rec, WDM, cfg)
    assert sw.parameter == "rho"
    assert np.all(np.isfinite(sw.snr_db))
    assert sw.best_value == sw.values[np.argmax(sw.snr_db)]
    assert sw.best_snr_db == np.max(sw.snr_db)


def test_launch_power_sweep_fresh_simulation_per_point():
    cfg = DbpConfig(link=LINK_NL, variant="EDC", n_steps=0, block_size=288,
                    overlap=0, oversampling=1.125)
    sw = sweep_launch_power([-2.0, 2.0], LINK_NL, WDM, cfg, num_symbols=256,
                            sim=SIM_OFF)
    assert sw.parameter == "power_dbm"
    assert np.all(np.isfinite(sw.snr_db))
    # noise off: higher launch power means more uncompensated distortion
    assert sw.snr_db[0] > sw.snr_db[1]
    assert sw.best_value == -2.0


def test_launch_power_sweep_builds_no_taps_at_zero_steps(monkeypatch,
                                                        train_nonlinear):
    # at N_st = 0 the engine reads no set, so the tap rule builds and tunes
    # none, with or without a training set, and the curve is the EDC one
    built = []
    real = fiberdbp.optimize.make_dbp_coefficient_set
    monkeypatch.setattr(fiberdbp.optimize, "make_dbp_coefficient_set",
                        lambda *a, **kw: built.append(a) or real(*a, **kw))
    monkeypatch.setattr(fiberdbp.optimize, "optimize_coefficients",
                        lambda *a: built.append(a))
    edc = DbpConfig(link=LINK_NL, variant="EDC", n_steps=0, block_size=288,
                    overlap=0, oversampling=1.125)
    zero_step = (edc, replace(edc, variant="CB_ESSFM", n_subbands=2))
    curves = [sweep_launch_power([-2.0, 2.0], LINK_NL, WDM, cfg,
                                 num_symbols=256, sim=SIM_OFF).snr_db
              for cfg in zero_step]
    for cfg in zero_step:
        assert receiver_coefficients(cfg, WDM) is None
        assert receiver_coefficients(cfg, WDM, train_nonlinear) is None
    assert built == []
    np.testing.assert_allclose(curves[1], curves[0], rtol=0, atol=1e-9)


def _assert_same_set(got, want):
    for f in fields(want):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if f.name == "coeffs":
            assert a.keys() == b.keys()
            assert all(np.array_equal(a[h], b[h]) for h in b)
        else:
            assert np.array_equal(a, b), f.name


def test_receiver_coefficients_are_analytic_then_tuned(train_nonlinear):
    # a receiver's taps: the analytic set at its sample rate and launch
    # power, refined on the training set when one is given
    analytic = make_dbp_coefficient_set(CFG_NL, CFG_NL.oversampling
                                        * WDM.baud_rate, WDM.launch_power_w)
    _assert_same_set(receiver_coefficients(CFG_NL, WDM), analytic)
    tuned = optimize_coefficients(train_nonlinear, CFG_NL, analytic)
    assert tuned.improved
    _assert_same_set(receiver_coefficients(CFG_NL, WDM, train_nonlinear),
                     tuned.coeffs)


def test_score_receivers_is_evaluate_per_config(train_nonlinear):
    # one transmission, every receiver with its own taps: the scores are
    # evaluate's, config by config and in order, analytic or tuned
    tx, rec = generate_wdm(WDM, 512, seed=9)
    rx = propagate_link(tx, LINK_NL, SIM_OFF)
    edc = replace(CFG_NL, variant="EDC", n_steps=0)
    for train in (None, train_nonlinear):
        got = score_receivers([CFG_NL, edc], rx, rec, WDM, train)
        want = [evaluate(rx, rec, WDM, d,
                         receiver_coefficients(d, WDM, train)).snr_db
                for d in (CFG_NL, edc)]
        assert got.dtype == float
        np.testing.assert_array_equal(got, want)
    assert got[0] > got[1]
