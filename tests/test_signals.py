"""Waveform generation, resampling, demultiplexing, waveform containers."""

import numpy as np
import pytest

from fiberdbp import (DualPolWaveform, WdmConfig, demux_channel, generate_wdm,
                      matched_filter, resample)
from fiberdbp.cpus import MIN_SHARE
from fiberdbp.signals import (_receive_filter, _regrid, matched_decimate,
                              raised_cosine_spectrum)
from conftest import rel_rms, spy_budget


def single_channel(power_dbm=0.0, fmt="64-qam", rolloff=0.1):
    return WdmConfig(baud_rate=32e9, num_channels=1, rolloff=rolloff,
                     format=fmt, launch_power_dbm_per_channel=power_dbm)


def test_generation_is_seed_deterministic(desk_wdm):
    a, ra = generate_wdm(desk_wdm, 512, seed=4)
    b, rb = generate_wdm(desk_wdm, 512, seed=4)
    assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
    assert np.array_equal(ra.symbols, rb.symbols)
    c, _ = generate_wdm(desk_wdm, 512, seed=5)
    assert not np.array_equal(a.x, c.x)


def test_total_power_matches_target(desk_wdm):
    w, _ = generate_wdm(desk_wdm, 8192, seed=1)
    total_dbm = 10 * np.log10(w.power * 1e3)
    expect = desk_wdm.launch_power_dbm_per_channel \
        + 10 * np.log10(desk_wdm.num_channels)
    assert abs(total_dbm - expect) < 0.1


def test_per_channel_power(desk_wdm):
    w, _ = generate_wdm(desk_wdm, 8192, seed=2)
    for f_c in desk_wdm.channel_freqs:
        ch = demux_channel(w, f_c, desk_wdm.baud_rate
                           * (1 + desk_wdm.rolloff))
        dbm = 10 * np.log10(ch.power * 1e3)
        assert abs(dbm - desk_wdm.launch_power_dbm_per_channel) < 0.15


def test_symbol_record_channel_shape(desk_wdm):
    _, rec = generate_wdm(desk_wdm, 256, seed=0)
    assert rec.symbols.shape == (3, 2, 256)
    ch = rec.channel(1)
    assert ch.shape == (2, 256)
    assert rec.num_symbols == 256


@pytest.mark.parametrize("num_channels, center", [(1, 0), (3, 1), (4, 1),
                                                  (5, 2)])
def test_center_channel_is_the_comb_middle(num_channels, center):
    wdm = WdmConfig(32e9, num_channels, 37.5e9)
    assert wdm.center_channel == center
    assert wdm.channel_freqs[center] == min(wdm.channel_freqs, key=abs)


@pytest.mark.parametrize("bad, field", [
    ({"baud_rate": 0}, "baud_rate"), ({"baud_rate": -1}, "baud_rate"),
    ({"baud_rate": float("nan")}, "baud_rate"),
    ({"num_channels": 3.0}, "num_channels"),
    ({"spacing": float("inf")}, "spacing"),
    ({"launch_power_dbm_per_channel": float("nan")},
     "launch_power_dbm_per_channel")])
def test_wdm_config_rejects_malformed_numbers(bad, field):
    # the comb must fail here, not inside generate_wdm
    with pytest.raises(ValueError, match=field):
        WdmConfig(**{"baud_rate": 32e9, **bad})


def test_qam_constellation_is_normalized():
    _, rec = generate_wdm(single_channel(fmt="16-qam"), 4096, seed=7)
    sym = rec.channel(0)
    # unit average energy per polarization, 12 distinct levels for 16-QAM
    assert abs(np.mean(np.abs(sym) ** 2) - 1.0) < 0.05
    levels = np.unique(np.round(sym.real * np.sqrt(10)))
    assert set(levels) == {-3, -1, 1, 3}


def test_matched_filter_removes_isi():
    cfg = single_channel()
    w, rec = generate_wdm(cfg, 2048, sim_rate=128e9, seed=3)
    filtered = matched_filter(w, cfg)
    one_sps = resample(filtered, cfg.baud_rate, allow_alias=True)
    sym = one_sps.field / np.sqrt(cfg.launch_power_w / 2)
    err = rel_rms(sym, rec.channel(0))
    assert err < 5e-4


def test_resample_round_trip_is_exact():
    cfg = single_channel()
    w, _ = generate_wdm(cfg, 1024, sim_rate=64e9, seed=8)
    up = resample(w, 128e9)
    back = resample(up, 64e9)
    assert rel_rms(back.field, w.field) < 1e-12
    assert up.num_samples == 2 * w.num_samples
    # energy is preserved either way
    assert abs(up.power - w.power) < 1e-12 * w.power


def test_resample_guards_against_aliasing():
    cfg = single_channel(rolloff=0.1)
    w, _ = generate_wdm(cfg, 1024, sim_rate=128e9, seed=8)
    with pytest.raises(ValueError):
        resample(w, 32e9)  # 32 GHz < 35.2 GHz occupied band
    out = resample(w, 36e9)  # 1.125 samples/symbol clears 1.1 R
    assert out.num_samples == 1024 * 36 // 32


@pytest.mark.parametrize("n, new_len", [(2304, 2048), (1001, 250), (8, 3),
                                         (7, 16), (1000, 2048), (9, 9)])
def test_regrid_adds_aliases_in_bin_order(n, new_len):
    # reference: one np.add.at per row, which adds source bins in order
    rng = np.random.default_rng(n + new_len)
    spec = rng.standard_normal((3, 2, n)) + 1j * rng.standard_normal((3, 2, n))
    signed = np.arange(n)
    signed = np.where(signed < (n + 1) // 2, signed, signed - n)
    expect = np.zeros((3, 2, new_len), dtype=complex)
    for row, src in zip(expect.reshape(6, new_len), spec.reshape(6, n)):
        np.add.at(row, np.mod(signed, new_len), src)
    assert np.array_equal(_regrid(spec, new_len), expect)


def test_demux_selects_one_channel(desk_wdm):
    w, rec = generate_wdm(desk_wdm, 2048, seed=6)
    # single-channel reference built from the same symbols
    ch = demux_channel(w, 0.0, desk_wdm.baud_rate * (1 + desk_wdm.rolloff))
    alone = WdmConfig(baud_rate=desk_wdm.baud_rate, num_channels=1,
                      rolloff=desk_wdm.rolloff, format=desk_wdm.format,
                      launch_power_dbm_per_channel=desk_wdm
                      .launch_power_dbm_per_channel)
    w1 = resample(ch, desk_wdm.baud_rate * 2, allow_alias=True)
    filt = matched_filter(w1, alone)
    sym = resample(filt, desk_wdm.baud_rate, allow_alias=True)
    est = sym.field / np.sqrt(alone.launch_power_w / 2)
    # neighbors at 37.5 GHz barely overlap the 35.2 GHz band edge
    assert rel_rms(est, rec.channel(1)) < 0.02


@pytest.mark.parametrize("n", [1000, 1001])
def test_demux_takes_exact_bins_of_the_shifted_spectrum(n):
    rng = np.random.default_rng(n)
    w = DualPolWaveform(rng.standard_normal((2, n))
                        + 1j * rng.standard_normal((2, n)), 64e9, 5e9)
    df = w.sample_rate / n
    shifted = np.fft.fftshift(np.fft.fft(w.field, axis=-1), axes=-1)
    for f_c, bw in ((0.0, 16e9), (20e9, 24e9), (-31e9, 2e9)):
        ch = demux_channel(w, f_c, bw)
        n_bins = round(ch.sample_rate / df)
        lo = n // 2 + round((ch.center_freq - w.center_freq) / df) - n_bins // 2
        sl = shifted[:, lo:lo + n_bins] * (n_bins / n)
        expect = np.fft.ifft(np.fft.ifftshift(sl, axes=-1), axis=-1)
        assert np.array_equal(ch.field, expect)


def test_waveform_copy_is_independent():
    w = DualPolWaveform([np.ones(8, complex), np.zeros(8, complex)], 1.0, 0.0)
    c = w.copy()
    c.x[:] = 0
    assert w.x[0] == 1.0


@pytest.mark.parametrize("shape", [(8,), (1, 8), (3, 8), (8, 2), (2, 8, 1)])
def test_waveform_rejects_non_jones_field(shape):
    with pytest.raises(ValueError, match=r"\(2, N\)"):
        DualPolWaveform(np.zeros(shape, complex), 1.0)


def test_waveform_polarizations_are_field_rows():
    w = DualPolWaveform(np.arange(6).reshape(2, 3), 1.0)
    assert w.field.dtype == np.complex128 and w.num_samples == 3
    assert np.shares_memory(w.x, w.field) and np.shares_memory(w.y, w.field)
    assert np.array_equal(w.y, [3, 4, 5])
    with pytest.raises(AttributeError):
        w.x = np.zeros(3)


@pytest.mark.parametrize("cpus", [1, 2])
def test_row_steps_equal_the_whole_field_transforms(cpus, monkeypatch):
    # rows long enough to split (the demux's output rows too): one CPU
    # transforms both in the caller, two hand row 1 to a helper; either way
    # each row equals its row of the (2, n) transforms
    n = 2 * MIN_SHARE + 1
    rng = np.random.default_rng(cpus)
    w = DualPolWaveform(rng.standard_normal((2, n))
                        + 1j * rng.standard_normal((2, n)), 64e9, 5e9)
    monkeypatch.setattr("fiberdbp.cpus.usable_cpus", lambda: cpus)
    entered = spy_budget(monkeypatch, "enter")
    cfg = single_channel()
    spec = np.fft.fft(w.field, axis=-1)
    freqs = np.fft.fftfreq(n, 1.0 / w.sample_rate)
    g = np.sqrt(raised_cosine_spectrum(freqs, cfg.baud_rate, cfg.rolloff))
    assert np.array_equal(matched_filter(w, cfg).field,
                          np.fft.ifft(spec * g, axis=-1))
    for new_len, alias in ((2 * n, False), (n // 2, True), (n - 2, False)):
        expect = np.fft.ifft(_regrid(spec, new_len) * (new_len / n), axis=-1)
        got = resample(w, w.sample_rate * new_len / n, allow_alias=alias)
        assert np.array_equal(got.field, expect)
    df = w.sample_rate / n
    ch = demux_channel(w, 8e9, 40e9)
    n_bins = round(ch.sample_rate / df)
    assert n_bins >= MIN_SHARE
    lo = n // 2 + round((ch.center_freq - w.center_freq) / df) - n_bins // 2
    sl = np.fft.fftshift(spec, axes=-1)[:, lo:lo + n_bins] * (n_bins / n)
    assert np.array_equal(ch.field,
                          np.fft.ifft(np.fft.ifftshift(sl, axes=-1), axis=-1))
    # the matched filter, one row step per resample, the demux
    assert entered == [cpus == 2] * 5


@pytest.mark.parametrize("cpus", [1, 2])
def test_symbol_step_equals_the_whole_field_expression(cpus, monkeypatch):
    # 18 432 samples at 36 GS/s down to 16 384 symbols: one CPU runs both
    # rows in the caller, two hand row y to a helper
    cfg = single_channel()
    n = 18432
    rng = np.random.default_rng(10 + cpus)
    w = DualPolWaveform(rng.standard_normal((2, n))
                        + 1j * rng.standard_normal((2, n)), 36e9)
    monkeypatch.setattr("fiberdbp.cpus.usable_cpus", lambda: cpus)
    entered = spy_budget(monkeypatch, "enter")
    got = matched_decimate(w, cfg)
    new_len = n * 32 // 36
    freqs = np.fft.fftfreq(n, 1.0 / w.sample_rate)
    g = np.sqrt(raised_cosine_spectrum(freqs, cfg.baud_rate, cfg.rolloff))
    spec = np.fft.fft(w.field, axis=-1) * g
    expect = np.fft.ifft(_regrid(spec, new_len) * (new_len / n), axis=-1)
    assert np.array_equal(got.field, expect)
    assert got.sample_rate == cfg.baud_rate
    assert entered == [cpus == 2]


@pytest.mark.parametrize("n, rate", [(2304, 36e9), (1125, 36e9),
                                     (18432, 36e9), (4096, 64e9),
                                     (1001, 32e9)],
                         ids=["desk", "odd", "ladder", "2sps", "at-baud"])
def test_symbol_step_matches_filter_then_resample(n, rate):
    cfg = single_channel()
    rng = np.random.default_rng(n)
    w = DualPolWaveform(rng.standard_normal((2, n))
                        + 1j * rng.standard_normal((2, n)), rate, 3e9)
    filtered = matched_filter(w, cfg)
    expect = resample(filtered, cfg.baud_rate, allow_alias=True)
    got = matched_decimate(w, cfg)
    assert got.num_samples == expect.num_samples
    assert (got.sample_rate, got.center_freq) == (expect.sample_rate, 3e9)
    err = np.linalg.norm(got.field - expect.field) / np.linalg.norm(
        expect.field)
    assert err <= 1e-12
    if rate == cfg.baud_rate:  # no regrid: the matched filter itself
        assert np.array_equal(got.field, filtered.field)


def test_receive_filter_is_cached_and_read_only():
    g = _receive_filter(2304, 36e9, 32e9, 0.1)
    assert _receive_filter(2304, 36e9, 32e9, 0.1) is g
    with pytest.raises(ValueError, match="read-only"):
        g[0] = 0.0
    bound = _receive_filter.cache_parameters()["maxsize"]
    for k in range(bound + 2):
        _receive_filter(64 + k, 36e9, 32e9, 0.1)
    assert _receive_filter.cache_info().currsize == bound
