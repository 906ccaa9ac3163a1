"""Forward fiber propagation: dispersion, SPM, loss/gain, ASE, inverse."""

import numpy as np
import pytest

from fiberdbp import (DualPolWaveform, LinkConfig, SimSettings, WdmConfig,
                      backward_propagate, edfa, generate_wdm, propagate_link,
                      span_step_sizes)
from conftest import rel_rms


def two_span_link(**kw):
    base = dict(num_spans=2, span_length_km=80.0)
    base.update(kw)
    return LinkConfig(**base)


def test_gvd_only_matches_analytic_filter():
    link = two_span_link(gamma_w_km=0.0)
    sim = SimSettings(step_km=1.0, noise_enabled=False)
    wdm = WdmConfig(baud_rate=32e9, launch_power_dbm_per_channel=0.0)
    w, _ = generate_wdm(wdm, 1024, sim_rate=64e9, seed=1)
    out = propagate_link(w, link, sim)
    f = np.fft.fftfreq(w.num_samples, 1.0 / w.sample_rate)
    # loss and gain cancel; only the accumulated quadratic phase remains
    phasor = np.exp(-2j * np.pi ** 2 * link.beta2_ps2_km * 1e-24
                    * link.total_length_km * f ** 2)
    expect = np.fft.ifft(np.fft.fft(w.x) * phasor)
    assert rel_rms(out.x, expect) < 1e-9


def test_cw_spm_phase_is_exact():
    link = two_span_link()
    sim = SimSettings(step_km=0.05, noise_enabled=False)
    p0 = 2e-3
    n = 512
    cw = DualPolWaveform([np.full(n, np.sqrt(p0), complex),
                          np.zeros(n, complex)], 64e9, 0.0)
    out = propagate_link(cw, link, sim)
    alpha = link.alpha_np_km
    leff = (1 - np.exp(-alpha * link.span_length_km)) / alpha
    # CW sees no dispersion; each span rotates by gamma P Leff
    expect_phase = -link.gamma_w_km * p0 * leff * link.num_spans
    got_phase = np.angle(out.x[0] / cw.x[0])
    assert abs(got_phase - expect_phase) < 1e-6
    assert abs(out.power - cw.power) / cw.power < 1e-12


def test_dual_pol_cw_uses_total_intensity():
    # Manakov coupling: with both polarizations lit, each sees the sum power
    link = two_span_link()
    sim = SimSettings(step_km=0.05, noise_enabled=False)
    n = 64
    p_each = 1e-3
    a = np.full(n, np.sqrt(p_each), complex)
    both = propagate_link(DualPolWaveform([a, a], 64e9, 0.0), link, sim)
    alone = propagate_link(DualPolWaveform([a, np.zeros(n, complex)], 64e9,
                                           0.0), link, sim)
    phase_both = np.angle(both.x[0] / a[0])
    phase_alone = np.angle(alone.x[0] / a[0])
    assert abs(phase_both - 2 * phase_alone) < 1e-6


def test_backward_undoes_forward():
    link = two_span_link()
    sim = SimSettings(step_km=0.1, noise_enabled=False)
    wdm = WdmConfig(baud_rate=32e9, launch_power_dbm_per_channel=3.0)
    w, _ = generate_wdm(wdm, 1024, sim_rate=64e9, seed=2)
    rx = propagate_link(w, link, sim)
    back = backward_propagate(rx, link, sim)
    assert rel_rms(back.field, w.field) < 1e-9


def test_step_halving_shrinks_error():
    link = two_span_link()
    wdm = WdmConfig(baud_rate=32e9, launch_power_dbm_per_channel=6.0)
    w, _ = generate_wdm(wdm, 512, sim_rate=64e9, seed=3)
    ref = propagate_link(w, link, SimSettings(step_km=0.025,
                                              noise_enabled=False))
    errs = []
    for dz in (0.8, 0.4, 0.2):
        out = propagate_link(w, link, SimSettings(step_km=dz,
                                                  noise_enabled=False))
        errs.append(rel_rms(out.x, ref.x))
    # symmetric split step converges at second order: ratio about 4
    assert errs[0] / errs[1] > 3.0
    assert errs[1] / errs[2] > 3.0


def test_adaptive_steps_respect_phase_bound():
    link = two_span_link()
    sim = SimSettings(max_phase_rad=1e-3, noise_enabled=False)
    p = 5e-3
    steps = span_step_sizes(link, sim, p)
    assert np.all(steps > 0)
    assert abs(steps.sum() - link.span_length_km) < 1e-9
    # the first (highest-power) step carries at most the phase budget
    assert link.gamma_w_km * p * steps[0] <= 1e-3 * (1 + 1e-9)
    assert steps.max() <= sim.max_step_km + 1e-12


def test_edfa_gain_and_ase_variance():
    n = 200_000
    rate = 64e9
    w = DualPolWaveform(np.zeros((2, n), complex), rate, 0.0)
    gain_db, nf_db = 16.0, 4.5
    out = edfa(w, gain_db, nf_db, seed=(0, 1), carrier_hz=193.4e12)
    g = 10 ** (gain_db / 10)
    f = 10 ** (nf_db / 10)
    h = 6.62607015e-34
    psd = h * 193.4e12 * (g * f - 1) / 2  # one polarization
    expect = psd * rate
    got_x = np.mean(np.abs(out.x) ** 2)
    got_y = np.mean(np.abs(out.y) ** 2)
    assert abs(got_x - expect) / expect < 0.02
    assert abs(got_y - expect) / expect < 0.02
    # deterministic per seed
    again = edfa(w, gain_db, nf_db, seed=(0, 1), carrier_hz=193.4e12)
    assert np.array_equal(out.x, again.x)


def test_noise_off_is_pure_gain():
    w = DualPolWaveform([np.ones(32, complex), np.zeros(32, complex)], 1e9,
                        0.0)
    out = edfa(w, 20.0, 4.5, seed=0, noise_enabled=False)
    assert np.allclose(out.x, 10.0 * w.x, rtol=1e-12)


def test_checkpoint_resume_is_bit_exact(desk_link, desk_wdm):
    sim = SimSettings(max_phase_rad=2e-3, noise_enabled=True, noise_seed=3)
    w, _ = generate_wdm(desk_wdm, 512, seed=11)
    snaps = {}
    full = propagate_link(w, desk_link, sim,
                          checkpoint=lambda k, s: snaps.update({k: s}))
    resumed = propagate_link(snaps[2], desk_link, sim, first_span=2)
    assert np.array_equal(full.x, resumed.x)
    assert np.array_equal(full.y, resumed.y)


def test_sim_settings_xor():
    with pytest.raises(ValueError):
        SimSettings(step_km=0.1, max_phase_rad=1e-3)
    s = SimSettings()
    assert s.step_km == 0.1 and s.max_phase_rad is None
