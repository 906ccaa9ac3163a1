"""On-disk formats for waveforms, symbol records, coefficient sets, and CSV.

Waveforms use a little-endian binary container (magic ``FDBP``) so repeated
runs with the same seed produce byte-identical files. Coefficient sets are
JSON (floats survive the round trip exactly via repr semantics). Symbol
records ride on numpy's npz. CSV files carry a header row and, when the
caller passes one, a config_hash column so every artifact can be traced to
the exact configuration that produced it.
"""

from __future__ import annotations

import csv
import json
import os
import struct
from pathlib import Path

import numpy as np

from .kernel import CoefficientSet
from .signals import DualPolWaveform, SymbolRecord

_MAGIC = b"FDBP"
_VERSION = 1
_HEADER = struct.Struct("<4sHddQ")
# samples interleaved and written at a time by save_waveform (1 MiB)
WRITE_CHUNK_SAMPLES = 1 << 15


def save_waveform(path, w: DualPolWaveform) -> None:
    """Write magic, version, rates, then per sample xRe xIm yRe yIm float64
    (the (N, 2) transpose of the field).

    The payload is interleaved through one buffer of WRITE_CHUNK_SAMPLES
    samples, not as a whole-field copy. The bytes go to a temporary file
    beside ``path`` that is then renamed onto it, so a write that fails or
    is interrupted leaves any previous file at ``path`` whole (a checkpoint
    that ``simulate --resume`` reads).
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(_HEADER.pack(_MAGIC, _VERSION, w.sample_rate,
                                  w.center_freq, w.num_samples))
            field = w.field
            chunk = np.empty((min(field.shape[1], WRITE_CHUNK_SAMPLES), 2),
                             dtype="<c16")
            for start in range(0, field.shape[1], WRITE_CHUNK_SAMPLES):
                part = field[:, start:start + WRITE_CHUNK_SAMPLES].T
                np.copyto(chunk[:len(part)], part)
                fh.write(chunk[:len(part)])
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def load_waveform(path) -> DualPolWaveform:
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) != _HEADER.size:
            raise ValueError(f"{path}: truncated header")
        magic, version, rate, center, count = _HEADER.unpack(head)
        if magic != _MAGIC:
            raise ValueError(f"{path}: not a waveform file")
        if version != _VERSION:
            raise ValueError(f"{path}: unsupported version {version}")
        data = np.frombuffer(fh.read(count * 32), dtype="<f8")
        trailing = fh.read(1)
    # checked in float64 units before the complex view, so that a cut of
    # half a complex value also reports truncation
    if data.size != count * 4:
        raise ValueError(f"{path}: truncated payload")
    if trailing:
        raise ValueError(f"{path}: trailing data")
    field = data.view("<c16").reshape(count, 2).T
    return DualPolWaveform(field.astype(np.complex128, order="C"), rate,
                           center)


def save_symbols(path, record: SymbolRecord) -> None:
    np.savez(path, symbols=record.symbols, baud_rate=record.baud_rate,
             format=record.format, seed=record.seed)


def load_symbols(path) -> SymbolRecord:
    with np.load(path) as data:
        return SymbolRecord(data["symbols"], float(data["baud_rate"]),
                            str(data["format"]), int(data["seed"]))


def save_coefficients(path, coeffs: CoefficientSet,
                      config_hash: str | None = None) -> None:
    coeffs.validate()
    doc = {
        "n_sb": coeffs.n_sb,
        "subband_rate": coeffs.subband_rate,
        "subband_spacing": coeffs.subband_rate,  # kept: the format holds it
        "reference_power_w": coeffs.reference_power_w,
        "phase_norm_rad": coeffs.phase_norm_rad,
        "step_scales": list(map(float, coeffs.step_scales)),
        "geometry_hash": coeffs.geometry_hash,
        "coeffs": {str(h): list(map(float, c)) for h, c in coeffs.coeffs.items()},
    }
    if config_hash is not None:
        doc["config_hash"] = config_hash
    Path(path).write_text(json.dumps(doc, indent=1) + "\n")


def load_coefficients(path) -> CoefficientSet:
    doc = json.loads(Path(path).read_text())
    out = CoefficientSet(
        n_sb=int(doc["n_sb"]), subband_rate=float(doc["subband_rate"]),
        reference_power_w=float(doc["reference_power_w"]),
        phase_norm_rad=float(doc["phase_norm_rad"]),
        step_scales=np.asarray(doc["step_scales"], float),
        geometry_hash=str(doc["geometry_hash"]),
        coeffs={int(h): np.asarray(c, float)
                for h, c in doc["coeffs"].items()})
    out.validate()
    return out


def write_csv(path, rows: list[dict], config_hash: str | None = None) -> None:
    """One header row then the data; column order follows the first row."""
    if not rows:
        raise ValueError("refusing to write an empty table")
    rows = [dict(r) for r in rows]
    if config_hash is not None:
        for r in rows:
            r.setdefault("config_hash", config_hash)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)


def read_csv(path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return [dict(row) for row in csv.DictReader(fh)]
