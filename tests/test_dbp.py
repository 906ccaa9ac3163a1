"""Backpropagation engine: reductions, framing, NLPR, coefficient builder."""

import re
import sys
import threading
import types
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import fiberdbp
from fiberdbp import (CoefficientSet, DbpConfig, DualPolWaveform, LinkConfig,
                      SimSettings, WdmConfig,
                      backward_propagate, build_mimo_transfer,
                      channel_memory_samples, generate_wdm,
                      make_dbp_coefficient_set, nlpr_step, propagate_link,
                      run_dbp, standard_ssfm_coefficient_set)
from fiberdbp.channel import dispersion_phase
from fiberdbp.cpus import BUDGET, MIN_SHARE
from fiberdbp.dbp import VARIANTS, _run_blocks
from conftest import rel_rms, spy_budget
from oracles import dbp_oracle

RATE = 64e9


@pytest.fixture(scope="module")
def link():
    return LinkConfig(num_spans=3, span_length_km=80.0)


@pytest.fixture(scope="module")
def test_wave(link):
    wdm = WdmConfig(baud_rate=32e9, launch_power_dbm_per_channel=2.0)
    w, _ = generate_wdm(wdm, 4096, sim_rate=RATE, seed=21)
    return propagate_link(w, link, SimSettings(max_phase_rad=2e-3,
                                               noise_enabled=False))


def cfg_for(link, **kw):
    base = dict(link=link, n_steps=3, block_size=4096, overlap=1024,
                oversampling=2.0)
    base.update(kw)
    return DbpConfig(**base)


def run(w, cfg, **kw):
    coeffs = None
    if cfg.uses_coefficients:
        coeffs = make_dbp_coefficient_set(cfg, w.sample_rate, 1e-3, **kw)
    return run_dbp(w, cfg, coeffs)


def test_config_invariants(link):
    with pytest.raises(ValueError):
        DbpConfig(link=link, variant="EDC", n_steps=2)
    with pytest.raises(ValueError):
        DbpConfig(link=link, variant="OSSFM", n_subbands=2)
    with pytest.raises(ValueError):
        DbpConfig(link=link, block_size=1024, overlap=1024)
    with pytest.raises(ValueError):
        DbpConfig(link=link, n_subbands=3, block_size=1024)
    with pytest.raises(ValueError):
        DbpConfig(link=link, n_subbands=2, block_size=1024, overlap=30)
    with pytest.raises(ValueError):
        DbpConfig(link=link, splitting_ratio=1.5)
    # the ideal reference is backward_propagate, not an engine variant
    with pytest.raises(ValueError, match="unknown variant"):
        DbpConfig(link=link, variant="IDEAL_SSFM", n_steps=1500)
    # inputs that used to construct and then fail deep inside a run
    with pytest.raises(ValueError, match="n_steps must be an integer"):
        DbpConfig(link=link, n_steps=1.5)
    with pytest.raises(ValueError, match="oversampling"):
        DbpConfig(link=link, oversampling=0.0)


@st.composite
def valid_configs(draw):
    """Keyword arguments of a DbpConfig that must construct."""
    variant = draw(st.sampled_from(VARIANTS))
    n_sb = draw(st.integers(1, 4)) if variant == "CB_ESSFM" else 1
    n_steps = 0 if variant == "EDC" else draw(st.integers(0, 30))
    overlap = 2 * n_sb * draw(st.integers(0, 64))
    return dict(variant=variant, n_steps=n_steps, n_subbands=n_sb,
                splitting_ratio=draw(st.floats(0.0, 1.0)),
                block_size=overlap + n_sb * draw(st.integers(1, 512)),
                overlap=overlap, oversampling=draw(st.floats(1.0, 16.0)))


def _not_integral(value) -> bool:
    return not float(value).is_integer()


@st.composite
def one_bad_field(draw):
    """A valid config with exactly one field (or block/overlap pair) made
    invalid."""
    cfg = draw(valid_configs())
    n_sb, block, overlap = cfg["n_subbands"], cfg["block_size"], cfg["overlap"]
    non_integral = st.floats().filter(_not_integral)
    bad = draw(st.sampled_from(("variant", "n_steps", "n_subbands",
                                "splitting_ratio", "block_overlap",
                                "oversampling")))
    if bad == "variant":
        cfg["variant"] = draw(st.text().filter(lambda v: v not in VARIANTS))
    elif bad == "n_steps":
        cfg["n_steps"] = draw(
            non_integral | st.integers(max_value=-1)
            | (st.integers(min_value=1) if cfg["variant"] == "EDC"
               else st.nothing()))
    elif bad == "n_subbands":
        cfg["n_subbands"] = draw(
            non_integral | st.integers(max_value=0)
            | (st.integers(min_value=2)
               if cfg["variant"] in ("OSSFM", "ESSFM") else st.nothing()))
    elif bad == "splitting_ratio":
        cfg["splitting_ratio"] = draw(
            st.floats(max_value=-1e-9)
            | st.floats(min_value=1.0, exclude_min=True) | st.just(np.nan))
    elif bad == "block_overlap":
        pairs = [
            # overlap reaching the block
            st.integers(0, 8).map(lambda j: (block, block + 2 * n_sb * j)),
            st.integers(1, 8).map(lambda j: (block, -2 * n_sb * j)),
            # overlap off the 2 * n_sb grid
            st.integers(1, 2 * n_sb - 1).map(lambda r: (block, overlap + r)),
            non_integral.map(lambda v: (v, overlap)),
            non_integral.map(lambda v: (block, v))]
        if n_sb > 1:  # block off the n_sb grid
            pairs.append(st.integers(1, n_sb - 1).map(
                lambda r: (block + r, overlap)))
        cfg["block_size"], cfg["overlap"] = draw(st.one_of(pairs))
    else:
        cfg["oversampling"] = draw(
            st.floats(max_value=1.0, exclude_max=True)
            | st.sampled_from([np.nan, np.inf, -np.inf]))
    return cfg


@settings(max_examples=200, deadline=None)
@given(valid_configs())
def test_valid_configs_construct(kw):
    cfg = DbpConfig(link=LinkConfig(num_spans=3, span_length_km=80.0), **kw)
    assert cfg.uses_coefficients == (kw["variant"] != "EDC"
                                     and kw["n_steps"] > 0)


@settings(max_examples=300, deadline=None)
@given(one_bad_field())
def test_invalid_configs_rejected_at_construction(kw):
    with pytest.raises(ValueError):
        DbpConfig(link=LinkConfig(num_spans=3, span_length_km=80.0), **kw)


def test_single_band_cb_equals_essfm(link, test_wave):
    cb = run(test_wave, cfg_for(link, variant="CB_ESSFM", n_subbands=1,
                                splitting_ratio=0.5))
    es = run(test_wave, cfg_for(link, variant="ESSFM"))
    assert rel_rms(cb.field, es.field) < 1e-12


def test_zero_memory_essfm_equals_ossfm(link, test_wave):
    # memory 0 needs a finer analytic grid to pass the convergence check
    es = run(test_wave, cfg_for(link, variant="ESSFM"), memory=0,
             oversample=16)
    os_ = run(test_wave, cfg_for(link, variant="OSSFM"), oversample=16)
    assert rel_rms(es.field, os_.field) < 1e-12


@pytest.mark.parametrize("cb_n_sb", [2, 4])
def test_zero_steps_equals_edc(link, test_wave, cb_n_sb):
    # CB-ESSFM at N_st = 0 is the engine's subband split, per-subband
    # dispersion at each bin's absolute frequency, and merge: it must
    # reproduce full-band EDC at even and at odd subband lengths
    for block in (4096, 4096 - cb_n_sb):
        edc = run(test_wave, cfg_for(link, variant="EDC", n_steps=0,
                                     block_size=block))
        for variant, n_sb in (("CB_ESSFM", cb_n_sb), ("ESSFM", 1)):
            out = run(test_wave, cfg_for(link, variant=variant, n_steps=0,
                                         n_subbands=n_sb, block_size=block))
            assert rel_rms(out.field, edc.field) < 1e-12, block


def test_single_block_equals_blockwise(link, test_wave):
    whole = run(test_wave, cfg_for(link, variant="CB_ESSFM", n_subbands=2,
                                   block_size=8192, overlap=0))
    split = run(test_wave, cfg_for(link, variant="CB_ESSFM", n_subbands=2,
                                   block_size=4096, overlap=2048))
    err = rel_rms(split.field, whole.field)
    assert err < 1e-3


PARTITION_LINK = LinkConfig(num_spans=1, span_length_km=80.0)


@pytest.fixture(scope="module")
def partition_case():
    """A weakly nonlinear one-span waveform, its CB-ESSFM taps, and the
    run whose blocks are the whole (circular) waveform: no partition."""
    wdm = WdmConfig(baud_rate=32e9, launch_power_dbm_per_channel=-10.0)
    w, _ = generate_wdm(wdm, 2048, sim_rate=RATE, seed=21)
    w = propagate_link(w, PARTITION_LINK,
                       SimSettings(max_phase_rad=2e-3, noise_enabled=False))
    whole = cfg_for(PARTITION_LINK, variant="CB_ESSFM", n_steps=1,
                    n_subbands=2, block_size=w.num_samples, overlap=8)
    coeffs = make_dbp_coefficient_set(whole, RATE, wdm.launch_power_w)
    return w, coeffs, run_dbp(w, whole, coeffs).field


@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_block_partition_invariance_over_drawn_partitions(partition_case,
                                                          data):
    # overlaps of 24 to 40 channel memories: the overlap-save error decays
    # slowly with the overlap, from about 1e-3 at 1.5 memories to 1e-4 at
    # about 20; block sizes even or odd in subband length
    w, coeffs, whole = partition_case
    n = w.num_samples
    mem = channel_memory_samples(PARTITION_LINK, RATE, RATE)
    overlap = 4 * data.draw(st.integers(-(-24 * mem // 4), 40 * mem // 4),
                            label="overlap / 4")
    block = 2 * data.draw(st.integers((overlap + 128) // 2, n // 2),
                          label="block_size / 2")
    cfg = cfg_for(PARTITION_LINK, variant="CB_ESSFM", n_steps=1,
                  n_subbands=2, block_size=block, overlap=overlap)
    err = rel_rms(run_dbp(w, cfg, coeffs).field, whole)
    assert err < 1e-4, f"partition deviation {err:.2e}"


@pytest.fixture(scope="module")
def reduction_wave():
    """A small one-span waveform at 4 dBm, where the phase filter shows."""
    wdm = WdmConfig(baud_rate=32e9, launch_power_dbm_per_channel=4.0)
    w, _ = generate_wdm(wdm, 1024, sim_rate=RATE, seed=22)
    return propagate_link(w, PARTITION_LINK, SimSettings(
        max_phase_rad=2e-3, noise_enabled=False)), wdm.launch_power_w


@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_variant_reductions_over_drawn_configs(reduction_wave, data):
    # the one step loop's two reductions, at any splitting ratio, step
    # count, block size and overlap: CB-ESSFM at one subband runs ESSFM's
    # taps through the MIMO transfer instead of the FIR, and at zero steps
    # every variant is the subband split, dispersion and merge of EDC
    w, power = reduction_wave
    n = w.num_samples
    mem = channel_memory_samples(PARTITION_LINK, RATE, RATE)
    rho = data.draw(st.floats(0.0, 1.0), label="rho")
    n_steps = data.draw(st.integers(1, 3), label="n_steps")
    n_sb = data.draw(st.integers(1, 4), label="zero-step CB-ESSFM n_sb")
    overlap = 2 * n_sb * data.draw(
        st.integers(-(-mem // (2 * n_sb)), n // (8 * n_sb)),
        label="overlap / (2 n_sb)")
    block = n_sb * data.draw(st.integers(overlap // n_sb + 1, n // n_sb),
                             label="block_size / n_sb")

    def out(variant, **kw):
        cfg = cfg_for(PARTITION_LINK, variant=variant, block_size=block,
                      overlap=overlap, splitting_ratio=rho, **kw)
        coeffs = None
        if cfg.uses_coefficients:
            coeffs = make_dbp_coefficient_set(
                replace(cfg, variant="ESSFM"), RATE, power)
        return run_dbp(w, cfg, coeffs).field

    essfm = out("ESSFM", n_steps=n_steps)
    assert rel_rms(out("CB_ESSFM", n_steps=n_steps), essfm) < 1e-12
    edc = out("EDC", n_steps=0)
    for variant, n_sb_v in (("OSSFM", 1), ("ESSFM", 1), ("CB_ESSFM", n_sb)):
        got = out(variant, n_steps=0, n_subbands=n_sb_v)
        assert rel_rms(got, edc) < 1e-12, variant


@pytest.fixture(scope="module")
def long_wave():
    wdm = WdmConfig(baud_rate=32e9, launch_power_dbm_per_channel=4.0)
    return generate_wdm(wdm, 12288, sim_rate=RATE, seed=24)[0]


@pytest.mark.parametrize("block_size", [4096, 16384])
@pytest.mark.parametrize("variant, n_sb, n_steps", [
    ("EDC", 1, 0), ("OSSFM", 1, 3), ("ESSFM", 1, 3), ("CB_ESSFM", 2, 3),
    ("CB_ESSFM", 3, 2), ("CB_ESSFM", 2, 0)])
def test_run_dbp_matches_oracle_engine_bit_for_bit(link, long_wave,
                                                   block_size, variant, n_sb,
                                                   n_steps, monkeypatch):
    # the one-set engine before batching, fresh arrays and exp rotations;
    # three subbands give an odd subband length for the split gather
    cfg = cfg_for(link, variant=variant, n_subbands=n_sb, n_steps=n_steps,
                  block_size=block_size - block_size % n_sb,
                  overlap=384 * n_sb, splitting_ratio=0.3)
    coeffs = None
    if cfg.uses_coefficients:
        coeffs = make_dbp_coefficient_set(cfg, RATE, 1e-3)
    # one CPU runs every block in the caller, two hand half of them to a
    # helper; blocks below the split threshold (4095 samples, for three
    # subbands) stay in the caller without asking the budget
    entered = spy_budget(monkeypatch, "enter")
    split = 2 * cfg.block_size >= MIN_SHARE
    expect = dbp_oracle(long_wave, cfg, coeffs)
    for cpus in (1, 2):
        monkeypatch.setattr("fiberdbp.cpus.usable_cpus", lambda: cpus)
        entered.clear()
        got = run_dbp(long_wave, cfg, coeffs)
        assert entered == ([cpus == 2] if split else []), cpus
        assert np.array_equal(got.field, expect), cpus


def test_overlap_below_memory_warns(link, test_wave):
    cfg = cfg_for(link, variant="EDC", n_steps=0, overlap=16)
    with pytest.warns(RuntimeWarning):
        run_dbp(test_wave, cfg)


def test_block_larger_than_signal_rejected(link, test_wave):
    cfg = cfg_for(link, variant="EDC", n_steps=0, block_size=16384,
                  overlap=0)
    with pytest.raises(ValueError):
        run_dbp(test_wave, cfg)


@pytest.mark.parametrize("variant, n_sb", [("CB_ESSFM", 2), ("ESSFM", 1)])
@pytest.mark.parametrize("built, runs", [(5, 3), (3, 5)])
def test_coefficient_set_bound_to_step_count(link, test_wave, variant, n_sb,
                                             built, runs):
    # a set carries one power scale per step: too many must not run
    # silently, too few must not fail partway through the blocks
    coeffs = make_dbp_coefficient_set(
        cfg_for(link, variant=variant, n_subbands=n_sb, n_steps=built),
        RATE, 1e-3)
    cfg = cfg_for(link, variant=variant, n_subbands=n_sb, n_steps=runs)
    with pytest.raises(ValueError, match=f"built for {built} steps"):
        run_dbp(test_wave, cfg, coeffs)


@pytest.mark.parametrize("variant, n_sb", [("CB_ESSFM", 2), ("ESSFM", 1)])
def test_coefficient_set_bound_to_sample_rate(link, test_wave, variant, n_sb):
    # taps sample the kernel on the subband grid: a set built at another
    # rate must not run on this waveform
    cfg = cfg_for(link, variant=variant, n_subbands=n_sb)
    coeffs = make_dbp_coefficient_set(cfg, 1.5 * RATE, 1e-3)
    with pytest.raises(ValueError, match=re.escape(
            f"built for a {1.5 * RATE:.10g} Hz sample rate, waveform "
            f"sampled at {RATE:.10g} Hz")):
        run_dbp(test_wave, cfg, coeffs)


@pytest.mark.filterwarnings("ignore:overlap")
@pytest.mark.parametrize("variant, n_sb", [("OSSFM", 1), ("ESSFM", 1),
                                           ("CB_ESSFM", 2)])
@pytest.mark.parametrize("n_taps", [401, 601])
def test_taps_longer_than_block_rejected(link, test_wave, variant, n_sb,
                                         n_taps):
    # 256-sample (sub)band blocks: 401 taps would wrap around the block and
    # 601 would not fit it; every variant refuses both before it runs
    cfg = cfg_for(link, variant=variant, n_subbands=n_sb,
                  block_size=256 * n_sb, overlap=0)
    coeffs = standard_ssfm_coefficient_set(cfg, RATE, 1e-3,
                                           memory=(n_taps - 1) // 2)
    with pytest.raises(ValueError, match="separation-0 taps longer than"):
        run_dbp(test_wave, cfg, coeffs)


@pytest.mark.parametrize("variant", ["OSSFM", "ESSFM"])
def test_single_band_set_without_center_taps_rejected(link, test_wave,
                                                      variant):
    # a valid set may omit separations; the single-band FIR needs h = 0
    cfg = cfg_for(link, variant=variant)
    coeffs = CoefficientSet(1, RATE, 1e-3, -0.1, np.ones(cfg.n_steps), "any",
                            {})
    with pytest.raises(ValueError, match="needs separation-0 taps"):
        run_dbp(test_wave, cfg, coeffs)


def test_edc_inverts_linear_channel(link):
    lin = LinkConfig(num_spans=3, span_length_km=80.0, gamma_w_km=0.0)
    wdm = WdmConfig(baud_rate=32e9, launch_power_dbm_per_channel=0.0)
    w, _ = generate_wdm(wdm, 4096, sim_rate=RATE, seed=22)
    rx = propagate_link(w, lin, SimSettings(step_km=1.0,
                                            noise_enabled=False))
    out = run_dbp(rx, cfg_for(lin, variant="EDC", n_steps=0))
    assert rel_rms(out.field, w.field) < 1e-4


def test_gvd_step_sign_opposes_forward():
    # the fiber applies exp(1j dz k) over dz, and the engine compensates a
    # step with exp(-1j dz k), k = dispersion_phase
    f = np.fft.fftfreq(256, 1.0 / RATE)
    spec = np.fft.fft(np.random.default_rng(0).normal(size=256)
                      + 0j)
    k = dispersion_phase(-21.683e-24, f)
    fwd = spec * np.exp(-2j * np.pi ** 2 * (-21.683) * 1e-24 * 50.0 * f ** 2)
    assert rel_rms(spec * np.exp(1j * 50.0 * k), fwd) < 1e-12
    back = fwd * np.exp(-1j * 50.0 * k)
    assert rel_rms(back, spec) < 1e-12


def test_mimo_transfer_structure(link):
    cfg = cfg_for(link, variant="CB_ESSFM", n_subbands=2)
    coeffs = make_dbp_coefficient_set(cfg, RATE, 1e-3)
    mimo = build_mimo_transfer(coeffs, 128)
    assert mimo.shape == (2, 2, 65)
    # diagonal entries are real (even intra-band taps)
    assert np.abs(mimo[0, 0].imag).max() < 1e-12 * np.abs(mimo[0, 0]).max()
    # cross entries are conjugate pairs with the 3/2 XPM weight
    assert np.allclose(mimo[0, 1], np.conj(mimo[1, 0]))
    ratio = np.abs(mimo[0, 1][0] / mimo[0, 0][0])
    c0 = coeffs.coeffs[0]
    c1 = coeffs.coeffs[1]
    expect = 1.5 * abs(c1.sum()) / abs(c0.sum())
    assert abs(ratio - expect) / expect < 1e-9


def test_nlpr_matches_direct_circular_formula(link):
    # frequency-domain MIMO rotation vs the lag-sum definition, on three
    # subbands so the separation-2 taps and both neighbor directions enter
    n_sb = 3
    cfg = cfg_for(link, variant="CB_ESSFM", n_subbands=n_sb,
                  block_size=3072, overlap=1536)
    coeffs = make_dbp_coefficient_set(cfg, RATE, 1e-3)
    rng = np.random.default_rng(5)
    n_prime = 256
    # (polarization, subband, sample) time-domain fields
    fields = (rng.normal(size=(2, n_sb, n_prime)) * 0.03
              + 1j * rng.normal(size=(2, n_sb, n_prime)) * 0.03)
    got = nlpr_step(fields, build_mimo_transfer(coeffs, n_prime), 1.0 / 1e-3)

    intens = np.abs(fields[0]) ** 2 + np.abs(fields[1]) ** 2
    for i in range(n_sb):
        theta = np.zeros(n_prime)
        for ell in range(n_sb):
            c = coeffs.coeffs[abs(ell - i)]
            w = (c.size - 1) // 2
            weight = 1.0 if ell == i else 1.5
            # circular convolution sum_m c[m] I[k - m]; the lag axis flips
            # between upper and lower band neighbors (conjugate transfer)
            sgn = 1 if ell >= i else -1
            for m, cm in zip(range(-w, w + 1), c):
                theta += weight * cm * np.roll(intens[ell], sgn * m)
        theta /= 1e-3
        for pol in range(2):
            assert rel_rms(got[pol, i],
                           fields[pol, i] * np.exp(-1j * theta)) < 1e-10


def test_nlpr_step_rejects_mismatched_fields(link):
    cfg = cfg_for(link, variant="CB_ESSFM", n_subbands=2)
    mimo = build_mimo_transfer(make_dbp_coefficient_set(cfg, RATE, 1e-3), 256)
    fields = np.ones((2, 2, 256), complex)
    assert nlpr_step(fields, mimo, 1.0).shape == fields.shape
    for bad in (fields[:, :1], fields[..., :128], fields[:1]):
        with pytest.raises(ValueError, match="does not match"):
            nlpr_step(bad, mimo, 1.0)


@st.composite
def nlpr_inputs(draw):
    """Random (2, n_sb, N') fields, per-separation taps and a phase scale."""
    n_sb = draw(st.integers(1, 3))
    n_prime = draw(st.sampled_from([8, 16]))
    values = st.floats(-10, 10, allow_subnormal=False)
    parts = draw(arrays(np.float64, (2, 2, n_sb, n_prime), elements=values))
    taps = {}
    for h in range(n_sb):
        c = draw(arrays(np.float64, 2 * draw(st.integers(0, 3)) + 1,
                        elements=values))
        taps[h] = c + c[::-1] if h == 0 else c  # same-band taps are even
    coeffs = CoefficientSet(n_sb, 1.0, 1.0, 0.0, np.ones(1), "any", taps)
    return (parts[0] + 1j * parts[1], build_mimo_transfer(coeffs, n_prime),
            draw(st.floats(-100, 100)))


@settings(max_examples=30, deadline=None)
@given(nlpr_inputs())
def test_nlpr_step_preserves_joint_intensity(case):
    # phase-only: each sample's |x|^2 + |y|^2 survives any taps and scale
    fields, mimo, scale = case
    out = nlpr_step(fields, mimo, scale)
    before = np.abs(fields[0]) ** 2 + np.abs(fields[1]) ** 2
    after = np.abs(out[0]) ** 2 + np.abs(out[1]) ** 2
    np.testing.assert_allclose(after, before, rtol=1e-12, atol=0)


def test_coefficient_set_step_scales(link):
    # three steps per 240 km: engine applies steps in backward order, so
    # the scales run from the last span's input power backwards
    cfg = cfg_for(link, variant="CB_ESSFM", n_subbands=2, n_steps=3)
    coeffs = make_dbp_coefficient_set(cfg, RATE, 1e-3)
    assert coeffs.step_scales.shape == (3,)
    assert np.allclose(coeffs.step_scales, 1.0)  # span-aligned steps
    cfg6 = cfg_for(link, variant="CB_ESSFM", n_subbands=2, n_steps=6)
    scales6 = make_dbp_coefficient_set(cfg6, RATE, 1e-3).step_scales
    mid = np.exp(-link.alpha_np_km * 40.0)
    assert np.allclose(scales6, [mid, 1.0] * 3)


def test_ssfm_coefficient_set_is_single_spike(link):
    cfg = cfg_for(link, variant="OSSFM")
    c = standard_ssfm_coefficient_set(cfg, RATE, 1e-3)
    taps = c.coeffs[0]
    assert taps.size == 1
    assert taps[0] == pytest.approx(c.phase_norm_rad)


def test_builder_rejects_linear_variants(link):
    # the engine reads no set for EDC or N_st = 0
    for variant, steps in (("EDC", 0), ("CB_ESSFM", 0)):
        cfg = cfg_for(link, variant=variant, n_steps=steps)
        assert not cfg.uses_coefficients
        for build in (make_dbp_coefficient_set, standard_ssfm_coefficient_set):
            with pytest.raises(ValueError, match="takes no coefficient set"):
                build(cfg, RATE, 1e-3)
    assert cfg_for(link, variant="OSSFM", n_steps=1).uses_coefficients


def test_channel_memory_scales(link):
    m1 = channel_memory_samples(link, 36e9, RATE)
    m2 = channel_memory_samples(LinkConfig(num_spans=6, span_length_km=80.0),
                                36e9, RATE)
    assert m2 == pytest.approx(2 * m1, abs=1)
    assert m1 > 0


def test_ideal_ssfm_restores_nonlinear_channel(link):
    # the ideal reference: the simulator run backward on the forward run's
    # uniform 0.25 km plan, from the launch power
    wdm = WdmConfig(baud_rate=32e9, launch_power_dbm_per_channel=4.0)
    w, _ = generate_wdm(wdm, 2048, sim_rate=RATE, seed=23)
    sim = SimSettings(step_km=0.25, noise_enabled=False)
    rx = propagate_link(w, link, sim)
    out = backward_propagate(rx, link, sim, rx.power)
    assert rel_rms(out.field, w.field) < 1e-2


def split_case(link, wave_len=6 * 4096):
    """A waveform and a CB_ESSFM config whose single-set passes split."""
    cfg = cfg_for(link, variant="CB_ESSFM", n_subbands=2, n_steps=2,
                  block_size=MIN_SHARE // 2, overlap=512)
    rng = np.random.default_rng(wave_len)
    w = DualPolWaveform(3e-2 * (rng.standard_normal((2, wave_len))
                                + 1j * rng.standard_normal((2, wave_len))),
                        RATE)
    return w, cfg, make_dbp_coefficient_set(cfg, RATE, 1e-3)


def test_batched_pass_splits_by_sets(link, monkeypatch):
    # several tap sets: each thread runs every block for half of the sets;
    # each set's output equals its one-set pass on one CPU
    w, cfg, base = split_case(link)
    sets = [replace(base, step_scales=base.step_scales * (1 + 0.1 * i))
            for i in range(3)]
    monkeypatch.setattr("fiberdbp.cpus.usable_cpus", lambda: 1)
    alone = [_run_blocks(w, cfg, [c])[0] for c in sets]
    monkeypatch.setattr("fiberdbp.cpus.usable_cpus", lambda: 2)
    entered = spy_budget(monkeypatch, "enter")
    batched = _run_blocks(w, cfg, sets)
    assert entered == [True]
    assert all(np.array_equal(a, b) for a, b in zip(batched, alone))


class Failure(Exception):
    pass


@pytest.mark.parametrize("raising", ["helper", "caller"])
def test_engine_error_reaches_the_caller(link, raising, monkeypatch):
    monkeypatch.setattr("fiberdbp.cpus.usable_cpus", lambda: 2)
    entered = spy_budget(monkeypatch, "enter")
    w, cfg, coeffs = split_case(link)
    error = Failure if raising == "helper" else KeyboardInterrupt
    caught = []

    def caller():
        try:
            run_dbp(w, cfg, coeffs)
        except BaseException as exc:
            caught.append(exc)

    before = threading.active_count()
    worker = threading.Thread(target=caller)
    ifft = np.fft.ifft

    def failing(*args, **kwargs):
        if (threading.current_thread() is worker) == (raising == "caller"):
            raise error
        return ifft(*args, **kwargs)

    monkeypatch.setattr(np.fft, "ifft", failing)
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()
    assert entered == [True]
    assert [type(e) for e in caught] == [error]
    assert threading.active_count() == before
    assert BUDGET.running == 0


def test_concurrent_passes_match_serial(link, monkeypatch):
    # four receivers at once on two CPUs: the budget hands out at most one
    # helper while the count is below the CPUs; every output equals its
    # run on one CPU
    cases = [split_case(link, 6 * 4096 + 512 * i) for i in range(4)]
    monkeypatch.setattr("fiberdbp.cpus.usable_cpus", lambda: 1)
    expect = [run_dbp(*case).field for case in cases]
    monkeypatch.setattr("fiberdbp.cpus.usable_cpus", lambda: 2)
    entered = spy_budget(monkeypatch, "enter")
    results = [[] for _ in cases]
    start = threading.Barrier(len(cases))

    def receive(i):
        start.wait(timeout=60)
        for _ in range(3):
            results[i].append(run_dbp(*cases[i]).field)

    threads = [threading.Thread(target=receive, args=(i,))
               for i in range(len(cases))]
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
    assert [len(r) for r in results] == [3] * len(cases)
    assert all(np.array_equal(got, ref)
               for runs, ref in zip(results, expect) for got in runs)
    assert len(entered) == 12 and not all(entered)
    assert BUDGET.running == 0


def test_helpers_call_no_public_function(desk_wdm, monkeypatch):
    # a tracer that wraps the package's public functions keeps one span
    # stack, so every call into them must come from the caller's thread
    monkeypatch.setattr("fiberdbp.cpus.usable_cpus", lambda: 2)
    entered = spy_budget(monkeypatch, "enter")
    threads = set()
    modules = [m for name, m in sys.modules.items()
               if name == "fiberdbp" or name.startswith("fiberdbp.")]
    public = {fn for m in modules for name, fn in vars(m).items()
              if not name.startswith("_")
              and isinstance(fn, types.FunctionType)
              and fn.__module__.startswith("fiberdbp")}

    def wrap(fn):
        def wrapper(*args, **kwargs):
            threads.add(threading.current_thread())
            return fn(*args, **kwargs)
        return wrapper

    for module in modules:
        for name, fn in list(vars(module).items()):
            if isinstance(fn, types.FunctionType) and fn in public:
                monkeypatch.setattr(module, name, wrap(fn))
    link = LinkConfig(num_spans=1, span_length_km=80.0)
    cfg = DbpConfig(link=link, n_steps=1, n_subbands=2, block_size=4096,
                    overlap=1024)
    tx, record = generate_wdm(desk_wdm, 8192, seed=3)
    rx = fiberdbp.propagate_link(tx, link, SimSettings(step_km=20.0,
                                                       noise_enabled=False))
    coeffs = fiberdbp.make_dbp_coefficient_set(cfg, 36e9,
                                               desk_wdm.launch_power_w)
    fiberdbp.evaluate(rx, record, desk_wdm, cfg, coeffs)
    # the span, the demux, the engine, the matched filter, and the two row
    # steps of the decimation
    assert entered == [True] * 6
    assert threads == {threading.current_thread()}
