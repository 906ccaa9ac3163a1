"""What a fiberdbp process loads: never scipy.

Every CLI subcommand, benchmark run and gated full-scale subprocess is a
short process, so what ``import fiberdbp`` drags in is paid by each of
them. The package imports numpy and the standard library: the tuner runs
its own trust-region solver, and the two SI constants the simulator needs
are written out. Only the tests import scipy, as a reference.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import scipy.constants

import fiberdbp
from fiberdbp import channel

# a desk receive and a tiny desk tuning in a fresh interpreter; prints the
# scipy modules loaded after the import, after receiving and after tuning
DESK_RUN = """
import json, sys
from dataclasses import replace


def scipy_modules():
    return sorted(m for m in sys.modules
                  if m == "scipy" or m.startswith("scipy."))


import fiberdbp
from fiberdbp import (DbpConfig, LinkConfig, SimSettings, WdmConfig,
                      build_training_set, dbp_cost, evaluate, generate_wdm,
                      make_dbp_coefficient_set, optimize_coefficients,
                      propagate_link)

seen = {"import": scipy_modules()}
link = LinkConfig(num_spans=5, span_length_km=80.0)
wdm = WdmConfig(baud_rate=32e9, num_channels=3, spacing=37.5e9,
                rolloff=0.1, format="64-qam",
                launch_power_dbm_per_channel=2.0)
sim = SimSettings(max_phase_rad=2e-3, noise_enabled=True, noise_seed=9)
rate = 1.125 * 32e9
cb = DbpConfig(link=link, variant="CB_ESSFM", n_steps=5, n_subbands=2,
               splitting_ratio=0.5, block_size=1024, overlap=256,
               oversampling=1.125)
edc = replace(cb, variant="EDC", n_steps=0, n_subbands=1)
tx, record = generate_wdm(wdm, 1024, seed=9)
rx = propagate_link(tx, link, sim)
taps = make_dbp_coefficient_set(cb, rate, wdm.launch_power_w)
snr_db = [evaluate(rx, record, wdm, edc).snr_db,
          evaluate(rx, record, wdm, cb, taps).snr_db]
dbp_cost(cb, rate)
seen["receive"] = scipy_modules()
train = build_training_set(link, wdm, 1024, sim)
optimize_coefficients(train, cb, taps)
seen["tune"] = scipy_modules()
print(json.dumps({"seen": seen, "snr_db": snr_db}))
"""


def run_desk_in_fresh_interpreter() -> dict:
    src = str(Path(fiberdbp.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", DESK_RUN], env=env,
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out.splitlines()[-1])


def test_scipy_is_never_loaded():
    got = run_desk_in_fresh_interpreter()
    assert list(got["seen"]) == ["import", "receive", "tune"]
    for stage, loaded in got["seen"].items():
        assert loaded == [], f"{stage} loaded {loaded}"
    # the run did receive: CB-ESSFM beats EDC on the desk link
    edc_db, cb_db = got["snr_db"]
    assert cb_db > edc_db


def test_si_constants_are_scipys_bit_for_bit():
    assert channel._C_M_S == scipy.constants.c
    assert channel._H_JS == scipy.constants.h
