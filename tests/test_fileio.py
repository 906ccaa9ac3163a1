"""Round-trip and validation tests for the on-disk formats."""

import json
import struct
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from fiberdbp import (CoefficientSet, DbpConfig, DualPolWaveform, LinkConfig,
                      WdmConfig, fileio, generate_wdm, load_coefficients,
                      load_symbols, load_waveform, make_dbp_coefficient_set,
                      read_csv, save_coefficients, save_symbols,
                      save_waveform, write_csv)


@pytest.fixture(scope="module")
def waveform():
    w, rec = generate_wdm(WdmConfig(32e9, 1, 0.0, 0.1, "16-qam", 0.0), 128,
                          seed=7)
    return w, rec


def test_waveform_round_trip_exact(tmp_path, waveform):
    w, _ = waveform
    p = tmp_path / "w.fdbp"
    save_waveform(p, w)
    back = load_waveform(p)
    assert np.array_equal(back.x, w.x) and np.array_equal(back.y, w.y)
    assert back.sample_rate == w.sample_rate
    assert back.center_freq == w.center_freq


def test_waveform_rewrite_is_byte_identical(tmp_path, waveform):
    w, _ = waveform
    p1, p2 = tmp_path / "a.fdbp", tmp_path / "b.fdbp"
    save_waveform(p1, w)
    save_waveform(p2, load_waveform(p1))
    assert p1.read_bytes() == p2.read_bytes()


def test_waveform_file_layout(tmp_path):
    # header, then per sample xRe xIm yRe yIm as little-endian float64
    field = np.array([[1 + 2j, 3 + 4j], [5 + 6j, 7 + 8j]])
    p = tmp_path / "two.fdbp"
    save_waveform(p, DualPolWaveform(field, 64e9, -37.5e9))
    assert p.read_bytes() == (
        struct.pack("<4sHddQ", b"FDBP", 1, 64e9, -37.5e9, 2)
        + struct.pack("<8d", 1, 2, 5, 6, 3, 4, 7, 8))


@settings(max_examples=30, deadline=None)
@given(arrays(np.float64, st.tuples(st.just(2), st.integers(1, 8), st.just(2)),
              elements=st.floats(allow_nan=False, allow_infinity=False)))
@example(np.array([[[-0.0, 0.0]], [[0.0, -0.0]]]))
def test_waveform_save_load_save_is_byte_exact(parts):
    # (2, N, 2) float64 (re, im) pairs viewed as a (2, N) field, so signed
    # zeros reach the file unchanged
    field = parts.view(np.complex128)[..., 0]
    with tempfile.TemporaryDirectory() as tmp:
        p1, p2 = Path(tmp) / "a.fdbp", Path(tmp) / "b.fdbp"
        save_waveform(p1, DualPolWaveform(field, 1e9))
        save_waveform(p2, load_waveform(p1))
        assert p1.read_bytes()[-parts.nbytes:] == parts.transpose(1, 0, 2) \
            .astype("<f8").tobytes()
        assert p2.read_bytes() == p1.read_bytes()


def test_chunked_waveform_payload_equals_the_whole_field_copy(tmp_path):
    # several write chunks plus a remainder, from a row-major field
    n = 3 * fileio.WRITE_CHUNK_SAMPLES + 1001
    rng = np.random.default_rng(4)
    field = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
    p = tmp_path / "long.fdbp"
    save_waveform(p, DualPolWaveform(field, 64e9, 5e9))
    assert p.read_bytes() == (
        struct.pack("<4sHddQ", b"FDBP", 1, 64e9, 5e9, n)
        + field.T.astype("<c16").tobytes())


def test_chunked_waveform_load_equals_the_whole_payload_copy(tmp_path):
    # several read chunks plus a remainder, held once: the field and one
    # chunk, where the whole payload read as bytes and copied made two fields
    n = 8 * fileio.WRITE_CHUNK_SAMPLES + 1001
    rng = np.random.default_rng(5)
    field = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
    p = tmp_path / "long.fdbp"
    save_waveform(p, DualPolWaveform(field, 64e9, 5e9))
    payload = p.read_bytes()[struct.calcsize("<4sHddQ"):]
    expect = np.frombuffer(payload, dtype="<f8").view("<c16").reshape(
        n, 2).T.astype(np.complex128, order="C")
    tracemalloc.start()
    try:
        got = load_waveform(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got.field, expect) and got.field.flags.c_contiguous
    assert (got.sample_rate, got.center_freq) == (64e9, 5e9)
    assert peak < 1.2 * field.nbytes, peak / field.nbytes


def test_waveform_rejects_bad_magic_and_version(tmp_path, waveform):
    w, _ = waveform
    p = tmp_path / "w.fdbp"
    save_waveform(p, w)
    raw = bytearray(p.read_bytes())

    bad = tmp_path / "bad.fdbp"
    bad.write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(ValueError, match="not a waveform"):
        load_waveform(bad)

    raw[4] = 99  # version field
    bad.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="unsupported version"):
        load_waveform(bad)


def test_waveform_rejects_truncation(tmp_path, waveform):
    w, _ = waveform
    p = tmp_path / "w.fdbp"
    save_waveform(p, w)
    raw = p.read_bytes()

    cut = tmp_path / "cut.fdbp"
    cut.write_bytes(raw[:10])
    with pytest.raises(ValueError, match="truncated header"):
        load_waveform(cut)
    cut.write_bytes(raw[:len(raw) - 8])
    with pytest.raises(ValueError, match="truncated payload"):
        load_waveform(cut)


def test_waveform_rejects_trailing_data(tmp_path):
    p = tmp_path / "four.fdbp"
    save_waveform(p, DualPolWaveform(np.ones((2, 4), dtype=complex), 64e9,
                                     0.0))
    p.write_bytes(p.read_bytes() + bytes(40))
    with pytest.raises(ValueError, match="trailing data"):
        load_waveform(p)


class _PayloadFails:
    """Waveform whose header fields read fine and whose samples raise."""

    sample_rate, center_freq, num_samples = 64e9, 0.0, 4

    @property
    def field(self):
        raise OSError("disk full after the header")


def test_failed_waveform_write_keeps_previous_file(tmp_path, waveform):
    p = tmp_path / "ckpt_span002.fdbp"
    save_waveform(p, waveform[0])
    before = p.read_bytes()
    with pytest.raises(OSError, match="disk full"):
        save_waveform(p, _PayloadFails())
    assert p.read_bytes() == before
    assert list(tmp_path.iterdir()) == [p]


def test_symbol_record_round_trip(tmp_path, waveform):
    _, rec = waveform
    p = tmp_path / "syms.npz"
    save_symbols(p, rec)
    back = load_symbols(p)
    assert np.array_equal(back.symbols, rec.symbols)
    assert back.baud_rate == rec.baud_rate
    assert back.format == rec.format
    assert back.seed == rec.seed


def test_coefficients_round_trip_exact(tmp_path):
    cfg = DbpConfig(link=LinkConfig(2, 80.0), variant="CB_ESSFM", n_steps=2,
                    n_subbands=2, block_size=1024, overlap=256)
    coeffs = make_dbp_coefficient_set(cfg, 36e9, 1e-3, oversample=16,
                                      memory=5)
    p = tmp_path / "c.json"
    save_coefficients(p, coeffs, config_hash="deadbeef00000000")
    back = load_coefficients(p)
    assert back.n_sb == coeffs.n_sb
    assert back.subband_rate == coeffs.subband_rate
    assert back.phase_norm_rad == coeffs.phase_norm_rad
    assert np.array_equal(back.step_scales, coeffs.step_scales)
    assert back.geometry_hash == coeffs.geometry_hash
    assert sorted(back.coeffs) == sorted(coeffs.coeffs)
    for h in coeffs.coeffs:
        assert np.array_equal(back.coeffs[h], coeffs.coeffs[h])
    assert json.loads(p.read_text())["config_hash"] == "deadbeef00000000"


def test_coefficients_validated_on_both_ends(tmp_path):
    taps = {0: np.array([0.1, 0.2, 0.1])}
    good = CoefficientSet(1, 18e9, 1e-3, -0.1, np.ones(2), "abc", taps)
    p = tmp_path / "c.json"
    save_coefficients(p, good)
    saved = json.loads(p.read_text())
    for key, value, message in (
            ("coeffs", {"0": [0.1, 0.2]}, "odd length"),
            # these ran and returned a non-finite field
            ("reference_power_w", 0.0, "reference_power_w"),
            ("step_scales", [float("nan"), 1.0], "step_scales")):
        p.write_text(json.dumps({**saved, key: value}))
        with pytest.raises(ValueError, match=message):
            load_coefficients(p)

    with pytest.raises(ValueError, match="even-symmetric"):
        CoefficientSet(1, 18e9, 1e-3, -0.1, np.ones(2), "abc",
                       {0: np.array([0.1, 0.2, 0.3])})
    for power in (0.0, -1e-3, np.nan, np.inf):
        with pytest.raises(ValueError, match="reference_power_w"):
            CoefficientSet(1, 18e9, power, -0.1, np.ones(2), "abc", taps)
    for scales in ([np.nan, 1.0], [1.0, np.inf], np.ones((2, 1)), 1.0):
        with pytest.raises(ValueError, match="step_scales"):
            CoefficientSet(1, 18e9, 1e-3, -0.1, scales, "abc", taps)


def test_coefficient_hash_and_file_keys_hold(tmp_path):
    # the geometry hash text and the file keys outlive the fields they once
    # carried: a step offset and a subband spacing equal to the rate
    cfg = DbpConfig(LinkConfig(2, 80.0), "CB_ESSFM", n_steps=2, n_subbands=2,
                    block_size=1024, overlap=256)
    coeffs = make_dbp_coefficient_set(cfg, 36e9, 1e-3, oversample=16,
                                      memory=5)
    assert coeffs.geometry_hash == "15474300b72e4aa9"
    p = tmp_path / "c.json"
    save_coefficients(p, coeffs)
    doc = json.loads(p.read_text())
    assert doc["subband_spacing"] == doc["subband_rate"] == 18e9
    assert load_coefficients(p).geometry_hash == coeffs.geometry_hash


def test_csv_round_trip_and_hash_column(tmp_path):
    rows = [{"rho": 0.1, "SNR_dB": 21.5}, {"rho": 0.5, "SNR_dB": 22.0}]
    p = tmp_path / "t.csv"
    write_csv(p, rows, config_hash="cafe")
    back = read_csv(p)
    assert [list(r) for r in back] == [["rho", "SNR_dB", "config_hash"]] * 2
    assert back[0]["config_hash"] == "cafe"
    assert float(back[1]["SNR_dB"]) == 22.0
    # caller-provided hash must not clobber an explicit column
    write_csv(p, [{"a": 1, "config_hash": "own"}], config_hash="cafe")
    assert read_csv(p)[0]["config_hash"] == "own"


def test_csv_refuses_empty_table(tmp_path):
    with pytest.raises(ValueError, match="empty"):
        write_csv(tmp_path / "e.csv", [])
