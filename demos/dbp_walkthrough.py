"""Walk the receiver ladder from linear-only equalization to coupled-band
backpropagation on a small WDM system, and watch the SNR climb.

The script simulates 3 x 32 GBd channels over 5 x 80 km of fiber with
amplifier noise, then recovers the central channel with progressively
richer receivers:

  EDC       one dispersion filter, no nonlinear processing
  OSSFM     one scalar nonlinear phase per step
  ESSFM     the phase becomes a filtered version of the signal intensity
  CB-ESSFM  two subbands exchange intensities through a MIMO filter bank

Finally the coupled-band taps are tuned on an independently seeded
training transmission, which is how the engine is meant to be deployed.
Runs in about two minutes.
"""

import time

import numpy as np

from fiberdbp import (DbpConfig, LinkConfig, SimSettings, WdmConfig,
                      build_training_set, evaluate, generate_wdm,
                      make_dbp_coefficient_set, optimize_coefficients,
                      propagate_link)

LINK = LinkConfig(num_spans=5, span_length_km=80.0)
WDM = WdmConfig(baud_rate=32e9, num_channels=3, spacing=37.5e9, rolloff=0.1,
                format="64-qam", launch_power_dbm_per_channel=0.0)
RATE = 1.125 * 32e9
NSYM = 8192


def receiver(rx, rec, dcfg, coeffs):
    return evaluate(rx, rec, WDM, dcfg, coeffs).snr_db


def cfg(**kw):
    base = dict(link=LINK, n_steps=5, block_size=2048, overlap=512,
                oversampling=1.125)
    base.update(kw)
    return DbpConfig(**base)


def main():
    print(__doc__)
    t0 = time.time()
    print(f"Simulating {WDM.num_channels} channels, {NSYM} symbols, "
          f"{LINK.num_spans} spans with amplifier noise ...")
    tx, rec = generate_wdm(WDM, NSYM, seed=9)
    rx = propagate_link(tx, LINK, SimSettings(max_phase_rad=2e-3,
                                              noise_enabled=True,
                                              noise_seed=9))
    print(f"  done in {time.time() - t0:.0f}s "
          f"(composite rate {tx.sample_rate / 1e9:.0f} GS/s)\n")

    ladder = [
        ("EDC", cfg(variant="EDC", n_steps=0),
         "dispersion filter only; every nonlinear distortion survives"),
        ("OSSFM", cfg(variant="OSSFM"),
         "adds one scalar phase rotation per step"),
        ("ESSFM", cfg(variant="ESSFM"),
         "the rotation now sees a time-filtered intensity"),
        ("CB-ESSFM", cfg(variant="CB_ESSFM", n_subbands=2),
         "two subbands, cross-band intensities via the MIMO bank"),
    ]
    results = {}
    for name, dcfg, story in ladder:
        coeffs = None
        if dcfg.n_steps:
            coeffs = make_dbp_coefficient_set(dcfg, RATE, WDM.launch_power_w)
        results[name] = receiver(rx, rec, dcfg, coeffs)
        gain = results[name] - results.get("EDC", results[name])
        print(f"  {name:9s} {results[name]:6.2f} dB  (+{gain:4.2f})  {story}")

    cb = cfg(variant="CB_ESSFM", n_subbands=2, splitting_ratio=0.15)
    coeffs = make_dbp_coefficient_set(cb, RATE, WDM.launch_power_w)
    c0, c1 = coeffs.coeffs[0], coeffs.coeffs[1]
    print(f"\nAnalytic coupled-band taps at splitting ratio 0.15:")
    print(f"  in-band   {c0.size} taps, center {c0[c0.size // 2]:.3e}, "
          f"even-symmetric")
    print(f"  cross-band {c1.size} taps, center {c1[c1.size // 2]:.3e}, "
          f"walk-off shifts its mass off center by "
          f"{np.sum(np.arange(c1.size) * np.abs(c1)) / np.sum(np.abs(c1)) - c1.size // 2:+.1f} samples")

    print("\nTuning the taps on an independently seeded transmission ...")
    t0 = time.time()
    train = build_training_set(LINK, WDM, NSYM,
                               sim=SimSettings(max_phase_rad=2e-3,
                                               noise_enabled=True),
                               train_seed=1, val_seed=2)
    res = optimize_coefficients(train, cb, coeffs)
    tuned = receiver(rx, rec, cb, res.coeffs)
    print(f"  validation MSE {res.init_val_mse:.3e} -> {res.final_val_mse:.3e} "
          f"in {time.time() - t0:.0f}s")
    print(f"  CB-ESSFM, splitting ratio 0.15, tuned taps: {tuned:6.2f} dB "
          f"(+{tuned - results['EDC']:.2f} over EDC)")
    print("\nFive steps of coupled-band processing recover most of the "
          "nonlinear penalty;\nthe rest of the gap to the noise floor is "
          "amplifier noise, which no receiver removes.")


if __name__ == "__main__":
    main()
