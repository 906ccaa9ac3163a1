"""Backpropagation engine: reductions, framing, NLPR, coefficient builder."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from fiberdbp import (CoefficientSet, DbpConfig, LinkConfig, SimSettings, WdmConfig,
                      build_mimo_transfer, channel_memory_samples,
                      generate_wdm, gvd_phasor, make_dbp_coefficient_set,
                      nlpr_step, propagate_link, run_dbp,
                      standard_ssfm_coefficient_set)
from conftest import rel_rms
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
    with pytest.raises(ValueError, match="IDEAL_SSFM needs at least one"):
        DbpConfig(link=link, variant="IDEAL_SSFM", n_steps=0)


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
    # dispersion at the subband centre frequencies, and merge: it must
    # reproduce full-band EDC
    edc = run(test_wave, cfg_for(link, variant="EDC", n_steps=0))
    for variant, n_sb in (("CB_ESSFM", cb_n_sb), ("ESSFM", 1)):
        out = run(test_wave, cfg_for(link, variant=variant, n_steps=0,
                                     n_subbands=n_sb))
        assert rel_rms(out.field, edc.field) < 1e-12


def test_single_block_equals_blockwise(link, test_wave):
    whole = run(test_wave, cfg_for(link, variant="CB_ESSFM", n_subbands=2,
                                   block_size=8192, overlap=0))
    split = run(test_wave, cfg_for(link, variant="CB_ESSFM", n_subbands=2,
                                   block_size=4096, overlap=2048))
    err = rel_rms(split.field, whole.field)
    assert err < 1e-3


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
                                                   n_steps):
    # the one-set engine before batching, fresh arrays and exp rotations;
    # three subbands give an odd subband length for the split gather
    cfg = cfg_for(link, variant=variant, n_subbands=n_sb, n_steps=n_steps,
                  block_size=block_size - block_size % n_sb,
                  overlap=384 * n_sb, splitting_ratio=0.3)
    coeffs = None
    if cfg.uses_coefficients:
        coeffs = make_dbp_coefficient_set(cfg, RATE, 1e-3)
    got = run_dbp(long_wave, cfg, coeffs)
    assert np.array_equal(got.field, dbp_oracle(long_wave, cfg, coeffs))


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


def test_edc_inverts_linear_channel(link):
    lin = LinkConfig(num_spans=3, span_length_km=80.0, gamma_w_km=0.0)
    wdm = WdmConfig(baud_rate=32e9, launch_power_dbm_per_channel=0.0)
    w, _ = generate_wdm(wdm, 4096, sim_rate=RATE, seed=22)
    rx = propagate_link(w, lin, SimSettings(step_km=1.0,
                                            noise_enabled=False))
    out = run_dbp(rx, cfg_for(lin, variant="EDC", n_steps=0))
    assert rel_rms(out.field, w.field) < 1e-4


def test_gvd_step_sign_opposes_forward():
    f = np.fft.fftfreq(256, 1.0 / RATE)
    spec = np.fft.fft(np.random.default_rng(0).normal(size=256)
                      + 0j)
    fwd = spec * np.exp(-2j * np.pi ** 2 * (-21.683) * 1e-24 * 50.0 * f ** 2)
    back = fwd * gvd_phasor(f, 50.0, -21.683)
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
    coeffs = CoefficientSet(n_sb, 1.0, 1.0, 1.0, 0.0, np.ones(1), "any", taps)
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
    # the engine reads no set for EDC, the fine-step oracle, or N_st = 0
    for variant, steps in (("EDC", 0), ("IDEAL_SSFM", 300), ("CB_ESSFM", 0)):
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
    wdm = WdmConfig(baud_rate=32e9, launch_power_dbm_per_channel=4.0)
    w, _ = generate_wdm(wdm, 2048, sim_rate=RATE, seed=23)
    rx = propagate_link(w, link, SimSettings(step_km=0.25,
                                             noise_enabled=False))
    out = run_dbp(rx, DbpConfig(link=link, variant="IDEAL_SSFM",
                                n_steps=960, block_size=4096,
                                oversampling=2.0))
    assert rel_rms(out.field, w.field) < 1e-2
