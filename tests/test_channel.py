"""Forward fiber propagation: dispersion, SPM, loss/gain, ASE, inverse."""

import numpy as np
import pytest

from fiberdbp import (DualPolWaveform, LinkConfig, SimSettings, WdmConfig,
                      backward_propagate, edfa, generate_wdm, propagate_link,
                      span_step_sizes)
from fiberdbp.channel import _run_spans, _step_operators
from conftest import rel_rms
from oracles import split_step_oracle


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


# 1024 samples stay small; 10240 complex samples (160 KiB a row) exceed
# glibc's 128 KiB mmap threshold, where the batch transforms allocated
@pytest.mark.parametrize("inverse", [False, True], ids=["forward", "inverse"])
@pytest.mark.parametrize("n", [1024, 10240])
@pytest.mark.parametrize("plan", [dict(step_km=2.0),
                                  dict(max_phase_rad=4e-3, max_step_km=8.0)],
                         ids=["uniform", "adaptive"])
def test_run_spans_matches_oracle_bit_for_bit(plan, n, inverse):
    link = LinkConfig(num_spans=1, span_length_km=80.0)
    p0, rate = 6e-3, 64e9
    steps = span_step_sizes(link, SimSettings(**plan), p0)
    assert len(np.unique(steps)) == (1 if "step_km" in plan else steps.size)
    rng = np.random.default_rng(n)
    field = np.sqrt(p0 / 4) * (rng.standard_normal((2, n))
                               + 1j * rng.standard_normal((2, n)))
    got = field.copy()
    _run_spans(got, _step_operators(n, rate, link, steps, inverse))
    assert np.array_equal(got, split_step_oracle(field, rate, link, steps,
                                                 inverse))


def test_link_matches_oracle_spans_bit_for_bit(desk_link, desk_wdm):
    sim = SimSettings(max_phase_rad=2e-3, noise_enabled=True, noise_seed=4)
    w, _ = generate_wdm(desk_wdm, 512, seed=12)
    rate, g = w.sample_rate, 10.0 ** (desk_link.span_gain_db / 20.0)
    steps = span_step_sizes(desk_link, sim, w.power)
    ref = w
    for span in range(desk_link.num_spans):
        ref = DualPolWaveform(
            split_step_oracle(ref.field, rate, desk_link, steps, False), rate)
        ref = edfa(ref, desk_link.span_gain_db, desk_link.edfa_noise_figure_db,
                   (sim.noise_seed, span), carrier_hz=desk_link.carrier_freq_hz)
    rx = propagate_link(w, desk_link, sim)
    assert np.array_equal(rx.field, ref.field)

    back = rx.field
    steps = span_step_sizes(desk_link, sim, rx.power)
    for _ in range(desk_link.num_spans):
        back = split_step_oracle(back / g, rate, desk_link, steps, True)
    assert np.array_equal(backward_propagate(rx, desk_link, sim).field, back)


def test_propagation_leaves_inputs_and_snapshots_intact(desk_link, desk_wdm):
    sim = SimSettings(max_phase_rad=2e-3, noise_enabled=True, noise_seed=6)
    w, _ = generate_wdm(desk_wdm, 512, seed=13)
    tx = w.field.tobytes()
    snaps, taken = {}, {}

    def keep(span, snap):
        snaps[span] = snap
        taken[span] = snap.field.tobytes()

    rx = propagate_link(w, desk_link, sim, checkpoint=keep)
    assert w.field.tobytes() == tx
    # every snapshot still holds the bytes it had when it was handed over
    assert {k: s.field.tobytes() for k, s in snaps.items()} == taken
    propagate_link(snaps[2], desk_link, sim, first_span=2)
    assert snaps[2].field.tobytes() == taken[2]
    received = rx.field.tobytes()
    backward_propagate(rx, desk_link, sim)
    assert rx.field.tobytes() == received


def test_sim_settings_xor():
    with pytest.raises(ValueError):
        SimSettings(step_km=0.1, max_phase_rad=1e-3)
    s = SimSettings()
    assert s.step_km == 0.1 and s.max_phase_rad is None
