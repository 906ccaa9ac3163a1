"""Forward fiber propagation: dispersion, SPM, loss/gain, ASE, inverse."""

import itertools
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from fiberdbp import (DualPolWaveform, LinkConfig, SimSettings, WdmConfig,
                      backward_propagate, edfa, generate_wdm,
                      propagate_link, span_step_sizes)
from fiberdbp.channel import _run_spans, _step_operators, ase_variance_per_pol
from fiberdbp.cpus import BUDGET
from conftest import rel_rms, spy_budget
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
    back = backward_propagate(rx, link, sim, w.power)
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
    link = LinkConfig(num_spans=1, span_length_km=80.0)
    out = edfa(w, link, seed=(0, 1))
    g = 10 ** (link.span_gain_db / 10)
    f = 10 ** (link.edfa_noise_figure_db / 10)
    h = 6.62607015e-34
    psd = h * link.carrier_freq_hz * (g * f - 1) / 2  # one polarization
    expect = psd * rate
    got_x = np.mean(np.abs(out.x) ** 2)
    got_y = np.mean(np.abs(out.y) ** 2)
    assert abs(got_x - expect) / expect < 0.02
    assert abs(got_y - expect) / expect < 0.02
    # deterministic per seed
    again = edfa(w, link, seed=(0, 1))
    assert np.array_equal(out.x, again.x)


def test_edfa_adds_the_scaled_draws_bit_for_bit():
    # the ASE is added to the real and imaginary parts in place; it must
    # equal adding the complex noise sqrt(var/2) (x re + j x im, ...)
    n = 114_688
    rng = np.random.default_rng(9)
    w = DualPolWaveform(rng.standard_normal((2, n))
                        + 1j * rng.standard_normal((2, n)), 64e9, 0.0)
    link = LinkConfig(num_spans=1, span_length_km=80.0)
    draws = np.random.default_rng((3, 1)).standard_normal((2, 2, n))
    var = ase_variance_per_pol(link, w.sample_rate)
    expect = (w.field * 10.0 ** (link.span_gain_db / 20.0)
              + np.sqrt(var / 2.0) * (draws[:, 0] + 1j * draws[:, 1]))
    got = edfa(w, link, seed=(3, 1)).field
    assert np.array_equal(got.view(np.uint64), expect.view(np.uint64))


def test_noise_off_is_pure_gain():
    w = DualPolWaveform([np.ones(32, complex), np.zeros(32, complex)], 1e9,
                        0.0)
    link = LinkConfig(num_spans=1, span_length_km=100.0)  # 20 dB
    out = edfa(w, link, seed=0, noise_enabled=False)
    assert np.allclose(out.x, 10.0 * w.x, rtol=1e-12)


def test_checkpoint_resume_is_bit_exact(desk_link, desk_wdm):
    sim = SimSettings(max_phase_rad=2e-3, noise_enabled=True, noise_seed=3)
    w, _ = generate_wdm(desk_wdm, 512, seed=11)
    snaps = {}
    full = propagate_link(w, desk_link, sim,
                          checkpoint=lambda k, s: snaps.update({k: s}))
    resumed = propagate_link(w, desk_link, sim, first_span=2,
                             snapshot=snaps[2])
    assert np.array_equal(full.x, resumed.x)
    assert np.array_equal(full.y, resumed.y)


def test_resume_plans_from_the_transmitted_waveform():
    # ASE raises every snapshot's power; with the phase budget just under a
    # step-count boundary, a plan made from the snapshot has one more step
    link = LinkConfig(num_spans=3, span_length_km=80.0)
    wdm = WdmConfig(baud_rate=32e9, num_channels=1,
                    launch_power_dbm_per_channel=0.0)
    w, _ = generate_wdm(wdm, 256, seed=5)
    budget = link.gamma_w_km * w.power * link.span_effective_length_km
    sim = SimSettings(max_phase_rad=budget / 118.9, max_step_km=80.0,
                      noise_seed=1)
    snaps = {}
    full = propagate_link(w, link, sim,
                          checkpoint=lambda k, s: snaps.update({k: s}))
    assert len(span_step_sizes(link, sim, w.power)) == 119
    assert len(span_step_sizes(link, sim, snaps[1].power)) == 120
    resumed = propagate_link(w, link, sim, first_span=1, snapshot=snaps[1])
    assert np.array_equal(resumed.field, full.field)
    with pytest.raises(ValueError, match="snapshot"):
        propagate_link(w, link, sim, first_span=1)


def test_propagation_memory_does_not_grow_with_distinct_steps(desk_wdm,
                                                              monkeypatch):
    # two CPUs, so that the span splits over two threads on any machine
    monkeypatch.setattr("fiberdbp.cpus.usable_cpus", lambda: 2)
    link = LinkConfig(num_spans=1, span_length_km=80.0)
    sim = SimSettings(max_phase_rad=2e-3, noise_seed=1)
    w, _ = generate_wdm(desk_wdm, 4800, seed=7)
    n = w.num_samples
    assert n >= 2 ** 15
    assert np.unique(span_step_sizes(link, sim, w.power)).size > 100
    field_bytes = 32 * n  # one (2, n) complex128 field
    # Live at once, counted in fields: the running copy (1). In a span, one
    # working set shared by both threads: |x|^2 and |y|^2 (1/2), phase
    # (1/4), rotation (1/2), the phasors of this step and the next (1/2),
    # their argument (1/8) and the gvd f^2 table (1/8), so 3.0 fields. At
    # the EDFA, the amplified copy (1) and one row's (2, n) normal draws
    # (1/2), so 2.5. The rest up to 4 covers the step plan, RNG state and
    # small temporaries. One full-length phasor per distinct step length
    # would add half a field each, and a phase, rotation and phasor per
    # thread about one field.
    tracemalloc.start()
    try:
        propagate_link(w, link, sim)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * field_bytes, peak / field_bytes


def test_span_threads_split_the_step_trig(monkeypatch):
    # the rotation over n samples and each new phasor over m = n//2 + 1 bins
    # take one cos and one sin per element, however many threads share them
    link = LinkConfig(num_spans=1, span_length_km=80.0)
    steps = span_step_sizes(link, SimSettings(max_phase_rad=4e-3,
                                              max_step_km=8.0), 6e-3)
    assert np.unique(steps).size == steps.size
    n = 10241
    m = n // 2 + 1
    entered = spy_budget(monkeypatch, "enter")
    seen = {"cos": [], "sin": []}
    for name, calls in seen.items():
        monkeypatch.setattr(np, name, counting(getattr(np, name), calls))
    for cpus in (1, 2):
        monkeypatch.setattr("fiberdbp.cpus.usable_cpus", lambda: cpus)
        for calls in seen.values():
            calls.clear()
        _run_spans(random_field(n, 3), 64e9, _step_operators(link, steps,
                                                             False))
        assert {name: sum(calls) for name, calls in seen.items()} == {
            "cos": steps.size * (n + m), "sin": steps.size * (n + m)}
    assert entered == [False, True]


# 1024 samples stay small; 10240 complex samples (160 KiB a row) exceed
# glibc's 128 KiB mmap threshold, where the batch transforms allocated; the
# odd sizes have no Nyquist bin, so the negative-frequency fold differs
@pytest.mark.parametrize("inverse", [False, True], ids=["forward", "inverse"])
@pytest.mark.parametrize("n", [1024, 10240, 1023, 10241])
@pytest.mark.parametrize("plan", [dict(step_km=2.0),
                                  dict(max_phase_rad=4e-3, max_step_km=8.0)],
                         ids=["uniform", "adaptive"])
def test_run_spans_matches_oracle_bit_for_bit(plan, n, inverse, monkeypatch):
    link = LinkConfig(num_spans=1, span_length_km=80.0)
    p0, rate = 6e-3, 64e9
    steps = span_step_sizes(link, SimSettings(**plan), p0)
    assert len(np.unique(steps)) == (1 if "step_km" in plan else steps.size)
    field = random_field(n, n, p0)
    expect = split_step_oracle(field, rate, link, steps, inverse)
    entered = spy_budget(monkeypatch, "enter")
    # one CPU runs both rows in the calling thread, two split them
    for cpus in (1, 2):
        monkeypatch.setattr("fiberdbp.cpus.usable_cpus", lambda: cpus)
        got = field.copy()
        _run_spans(got, rate, _step_operators(link, steps, inverse))
        assert np.array_equal(got, expect)
    assert entered == [False, True]


def counting(ufunc, calls):
    """``ufunc`` that appends the size of its first argument to ``calls``."""
    def counted(x, *args, **kwargs):
        calls.append(np.size(x))
        return ufunc(x, *args, **kwargs)
    return counted


def random_field(n, seed, p0=6e-3):
    rng = np.random.default_rng(seed)
    return np.sqrt(p0 / 4) * (rng.standard_normal((2, n))
                              + 1j * rng.standard_normal((2, n)))


@pytest.mark.parametrize("fold_at", ["first", "middle", "last"])
def test_span_folds_when_the_cpus_shrink(fold_at, monkeypatch):
    # the CPU count is read at every step: two when the span enters, one
    # from the barrier of step k on, so the helper is given back at step k
    link = LinkConfig(num_spans=1, span_length_km=80.0)
    steps = span_step_sizes(link, SimSettings(max_phase_rad=4e-3,
                                              max_step_km=8.0), 6e-3)
    k = {"first": 0, "middle": steps.size // 2, "last": steps.size - 1}
    reads = itertools.count()
    # read 0 is the span's entry, read j + 1 the barrier of step j
    monkeypatch.setattr("fiberdbp.cpus.usable_cpus",
                        lambda: 2 if next(reads) <= k[fold_at] else 1)
    folds = spy_budget(monkeypatch, "fold")
    # the helper lags after the fold: the caller must not touch row 1 first
    fft, caller = np.fft.fft, threading.current_thread()

    def lagging_fft(*args, **kwargs):
        if threading.current_thread() is not caller and any(folds):
            time.sleep(0.05)
        return fft(*args, **kwargs)

    monkeypatch.setattr(np.fft, "fft", lagging_fft)
    field = random_field(10241, 1)
    got = field.copy()
    _run_spans(got, 64e9, _step_operators(link, steps, False))
    assert folds == [False] * k[fold_at] + [True]
    assert np.array_equal(got, split_step_oracle(field, 64e9, link, steps,
                                                 False))
    assert BUDGET.running == 0


def test_concurrent_spans_fold_and_match_serial(monkeypatch):
    # four spans at once on two CPUs: the first to enter takes a helper and
    # folds it when the next enters; every span still equals its serial run
    monkeypatch.setattr("fiberdbp.cpus.usable_cpus", lambda: 2)
    folds = spy_budget(monkeypatch, "fold")
    link = LinkConfig(num_spans=1, span_length_km=80.0)
    steps = span_step_sizes(link, SimSettings(step_km=1.0), 6e-3)
    operators = _step_operators(link, steps, False)
    fields = [random_field(4096, seed) for seed in range(4)]
    expect = [split_step_oracle(f, 64e9, link, steps, False) for f in fields]
    results = [[] for _ in fields]
    start = threading.Barrier(len(fields))

    def simulate(i):
        start.wait(timeout=60)
        for _ in range(3):
            got = fields[i].copy()
            _run_spans(got, 64e9, operators)
            results[i].append(got)

    threads = [threading.Thread(target=simulate, args=(i,))
               for i in range(len(fields))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert [len(r) for r in results] == [3] * len(fields)
    assert all(np.array_equal(got, ref)
               for runs, ref in zip(results, expect) for got in runs)
    assert sum(folds) > 0
    assert BUDGET.running == 0


def test_split_spans_share_their_buffers_under_fast_switching(monkeypatch):
    # two spans at once, each split over two threads (four threads, no
    # fold); each thread writes halves of the rotation and of the next
    # phasor that its partner reads after a barrier, so a read that ran
    # ahead of a write would change bits, and distinct step lengths make
    # every step build a phasor
    monkeypatch.setattr("fiberdbp.cpus.usable_cpus", lambda: 4)
    entered = spy_budget(monkeypatch, "enter")
    folds = spy_budget(monkeypatch, "fold")
    link = LinkConfig(num_spans=1, span_length_km=80.0)
    steps = span_step_sizes(link, SimSettings(max_phase_rad=4e-3,
                                              max_step_km=8.0), 6e-3)
    operators = _step_operators(link, steps, False)
    fields = [random_field(4096, seed) for seed in (5, 6)]
    expect = [split_step_oracle(f, 64e9, link, steps, False) for f in fields]
    results = [[] for _ in fields]
    start = threading.Barrier(len(fields))

    def simulate(i):
        start.wait(timeout=60)
        for _ in range(3):
            got = fields[i].copy()
            _run_spans(got, 64e9, operators)
            results[i].append(got)

    threads = [threading.Thread(target=simulate, args=(i,))
               for i in range(len(fields))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert entered == [True] * 6 and not any(folds)
    assert all(len(runs) == 3 and all(np.array_equal(got, ref)
                                       for got in runs)
               for runs, ref in zip(results, expect))
    assert BUDGET.running == 0


class Failure(Exception):
    pass


def fail_ifft_in(monkeypatch, fails, error):
    """Make np.fft.ifft raise ``error`` in threads where ``fails()`` holds."""
    ifft = np.fft.ifft

    def failing(*args, **kwargs):
        if fails():
            raise error
        return ifft(*args, **kwargs)

    monkeypatch.setattr(np.fft, "ifft", failing)


@pytest.mark.parametrize("raising", ["helper", "caller"])
def test_span_error_reaches_the_caller(raising, monkeypatch):
    monkeypatch.setattr("fiberdbp.cpus.usable_cpus", lambda: 2)
    error = Failure if raising == "helper" else KeyboardInterrupt
    link = LinkConfig(num_spans=1, span_length_km=80.0)
    operators = _step_operators(link, np.full(40, 2.0), False)
    field = random_field(4096, 2)
    caught = []

    def caller():
        try:
            _run_spans(field, 64e9, operators)
        except BaseException as exc:
            caught.append(exc)

    before = threading.active_count()
    worker = threading.Thread(target=caller)
    fail_ifft_in(monkeypatch, lambda: (threading.current_thread() is worker)
                 == (raising == "caller"), error)
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()
    assert [type(e) for e in caught] == [error]
    assert threading.active_count() == before
    assert BUDGET.running == 0


@pytest.mark.parametrize("fails", [False, True], ids=["returns", "raises"])
def test_no_thread_outlives_a_simulation(fails, desk_link, desk_wdm,
                                         monkeypatch):
    monkeypatch.setattr("fiberdbp.cpus.usable_cpus", lambda: 2)
    entered = spy_budget(monkeypatch, "enter")
    sim = SimSettings(max_phase_rad=2e-3, noise_seed=1)
    w, _ = generate_wdm(desk_wdm, 128, seed=1)
    rx = propagate_link(w, desk_link, sim)
    if fails:  # the helper thread of the first span raises
        main = threading.main_thread()
        fail_ifft_in(monkeypatch, lambda: threading.current_thread()
                     is not main, Failure)
    before = threading.active_count()
    for run in (lambda: propagate_link(w, desk_link, sim),
                lambda: backward_propagate(rx, desk_link, sim, w.power)):
        if fails:
            with pytest.raises(Failure):
                run()
        else:
            run()
        assert threading.active_count() == before
        assert BUDGET.running == 0
    assert all(entered)


def test_link_matches_oracle_spans_bit_for_bit(desk_link, desk_wdm):
    sim = SimSettings(max_phase_rad=2e-3, noise_enabled=True, noise_seed=4)
    w, _ = generate_wdm(desk_wdm, 512, seed=12)
    rate, g = w.sample_rate, 10.0 ** (desk_link.span_gain_db / 20.0)
    steps = span_step_sizes(desk_link, sim, w.power)
    ref = w
    for span in range(desk_link.num_spans):
        ref = DualPolWaveform(
            split_step_oracle(ref.field, rate, desk_link, steps, False), rate)
        ref = edfa(ref, desk_link, (sim.noise_seed, span))
    rx = propagate_link(w, desk_link, sim)
    assert np.array_equal(rx.field, ref.field)

    back = rx.field
    for _ in range(desk_link.num_spans):
        back = split_step_oracle(back / g, rate, desk_link, steps, True)
    assert np.array_equal(
        backward_propagate(rx, desk_link, sim, w.power).field, back)


def test_backward_plans_from_the_launch_power(desk_link, desk_wdm):
    # ASE raises the received power across an adaptive step boundary here:
    # the forward pass plans 119 steps a span, the received power 120
    sim = SimSettings(max_phase_rad=2e-3, noise_enabled=True, noise_seed=3)
    w, _ = generate_wdm(desk_wdm.with_power(0.0), 1024, seed=3)
    rx = propagate_link(w, desk_link, sim)
    steps = span_step_sizes(desk_link, sim, w.power)
    assert (steps.size, span_step_sizes(desk_link, sim, rx.power).size) \
        == (119, 120)
    g = 10.0 ** (desk_link.span_gain_db / 20.0)
    back = rx.field
    for _ in range(desk_link.num_spans):
        back = split_step_oracle(back / g, rx.sample_rate, desk_link, steps,
                                 True)
    assert np.array_equal(
        backward_propagate(rx, desk_link, sim, w.power).field, back)


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
    propagate_link(w, desk_link, sim, first_span=2, snapshot=snaps[2])
    assert snaps[2].field.tobytes() == taken[2]
    received = rx.field.tobytes()
    backward_propagate(rx, desk_link, sim, w.power)
    assert rx.field.tobytes() == received


def test_sim_settings_xor():
    with pytest.raises(ValueError):
        SimSettings(step_km=0.1, max_phase_rad=1e-3)
    s = SimSettings()
    assert s.step_km == 0.1 and s.max_phase_rad is None


@pytest.mark.parametrize("bad, field", [
    ({"num_spans": 2.0}, "num_spans"), ({"num_spans": True}, "num_spans"),
    ({"span_length_km": float("nan")}, "span_length_km"),
    ({"alpha_db_per_km": float("nan")}, "alpha_db_per_km"),
    ({"dispersion_d_ps_nm_km": float("inf")}, "dispersion_d_ps_nm_km"),
    ({"gamma_w_km": float("nan")}, "gamma_w_km"),
    ({"edfa_noise_figure_db": float("nan")}, "edfa_noise_figure_db"),
    ({"reference_wavelength_nm": 0.0}, "reference_wavelength_nm")])
def test_link_config_rejects_malformed_numbers(bad, field):
    # the link must fail here, not with a TypeError inside propagate_link
    with pytest.raises(ValueError, match=field):
        LinkConfig(**{"num_spans": 2, "span_length_km": 80.0, **bad})
    # a lossless, linear, dispersion-free link stays legal
    LinkConfig(num_spans=np.int64(2), span_length_km=80.0,
               alpha_db_per_km=0.0, gamma_w_km=0.0, dispersion_d_ps_nm_km=0.0)


@pytest.mark.parametrize("bad, field", [
    ({"step_km": float("nan")}, "step_km"),
    ({"max_phase_rad": float("inf")}, "max_phase_rad"),
    ({"max_phase_rad": 1e-3, "max_step_km": float("nan")}, "max_step_km"),
    ({"noise_seed": 1.5}, "noise_seed")])
def test_sim_settings_reject_malformed_numbers(bad, field):
    with pytest.raises(ValueError, match=field):
        SimSettings(**bad)
