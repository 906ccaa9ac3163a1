"""How many real multiplications does each dB of nonlinear gain cost?

The arithmetic model prices every stage of the coupled-band engine --
outer FFT pair, per-subband dispersion filters, intensity products, MIMO
filter bank, rotation -- in real multiplications per transmitted 2D
symbol (RM/2D), the currency used to compare receiver DSP designs.

Part 1 prices the production block size (N=16384, overlap 1800, 1.125
samples/symbol, 2 subbands) as a function of step count.
Part 2 verifies the closed forms against an instrumented engine run that
counts actual multiplies.
Part 3 pairs cost with measured SNR on a small 5-span system, giving the
quality-per-multiplication picture. About a minute end to end.
"""

import time

from fiberdbp import (DbpConfig, LinkConfig, SimSettings, WdmConfig,
                      cb_essfm_cost, count_runtime_multiplies, dbp_cost,
                      essfm_time_domain_cost, evaluate, generate_wdm,
                      make_dbp_coefficient_set, propagate_link)

N, N_OV, SPS = 16384, 1800, 1.125


def main():
    print(__doc__)

    print("Part 1: production block size, cost vs step count")
    print(f"  {'receiver':24s} {'RM/2D':>8s}")
    edc = essfm_time_domain_cost(N, N_OV, SPS, 0)
    print(f"  {'EDC (linear only)':24s} {edc.rm_per_2d:8.0f}")
    for n_st in (1, 2, 5, 15, 30):
        rep = cb_essfm_cost(N, N_OV, SPS, n_st, 2)
        label = f"CB-ESSFM, {n_st:2d} step" + ("s" if n_st > 1 else "")
        print(f"  {label:24s} {rep.rm_per_2d:8.0f}")
    rep = cb_essfm_cost(N, N_OV, SPS, 15, 2)
    print("  15-step breakdown: "
          + ", ".join(f"{k} {v[0]:.0f}" for k, v in rep.breakdown.items()))

    print("\nPart 2: counted multiplies vs closed form (exact tiling)")
    link = LinkConfig(num_spans=2, span_length_km=80.0)
    wdm = WdmConfig(baud_rate=32e9, launch_power_dbm_per_channel=0.0)
    w, _ = generate_wdm(wdm, 2048, sim_rate=64e9, seed=31)
    rx = propagate_link(w, link, SimSettings(max_phase_rad=2e-3,
                                             noise_enabled=False))
    cfg = DbpConfig(link=link, variant="CB_ESSFM", n_steps=2, n_subbands=2,
                    block_size=2048, overlap=1024, oversampling=2.0)
    coeffs = make_dbp_coefficient_set(cfg, rx.sample_rate, 1e-3, oversample=16)
    counted = count_runtime_multiplies(rx, cfg, coeffs)
    formula = cb_essfm_cost(2048, 1024, 2.0, 2, 2)
    print(f"  counted {counted.rm_per_2d:.3f} RM/2D, "
          f"closed form {formula.rm_per_2d:.3f} RM/2D, "
          f"relative gap {abs(counted.rm_per_2d / formula.rm_per_2d - 1):.1e}")

    print("\nPart 3: what the multiplications buy (5 x 80 km, 3 x 32 GBd)")
    t0 = time.time()
    link = LinkConfig(num_spans=5, span_length_km=80.0)
    wdm = WdmConfig(baud_rate=32e9, num_channels=3, spacing=37.5e9,
                    rolloff=0.1, format="64-qam",
                    launch_power_dbm_per_channel=0.0)
    rate = SPS * 32e9
    tx, rec = generate_wdm(wdm, 8192, seed=9)
    rx = propagate_link(tx, link, SimSettings(max_phase_rad=2e-3,
                                              noise_enabled=True,
                                              noise_seed=9))

    def receiver(variant, n_steps, n_sb):
        dcfg = DbpConfig(link=link, variant=variant, n_steps=n_steps,
                         n_subbands=n_sb, block_size=2048, overlap=512,
                         oversampling=SPS)
        coeffs = None
        if n_steps:
            coeffs = make_dbp_coefficient_set(dcfg, rate, wdm.launch_power_w)
        s = evaluate(rx, rec, wdm, dcfg, coeffs).snr_db
        return s, dbp_cost(dcfg, rate).rm_per_2d

    print(f"  {'receiver':22s} {'RM/2D':>7s} {'SNR':>7s} {'gain':>6s}")
    base = None
    for label, variant, n_steps, n_sb in (
            ("EDC", "EDC", 0, 1),
            ("CB-ESSFM, 1 step", "CB_ESSFM", 1, 2),
            ("CB-ESSFM, 5 steps", "CB_ESSFM", 5, 2),
            ("ESSFM, 5 steps", "ESSFM", 5, 1)):
        s, cost = receiver(variant, n_steps, n_sb)
        base = s if base is None else base
        print(f"  {label:22s} {cost:7.0f} {s:7.2f} {s - base:+6.2f}")
    print(f"  ({time.time() - t0:.0f}s)")
    print("\nThe first step buys the most; extra steps sharpen the gain at "
          "roughly linear cost.\nCoupled-band processing at the small block "
          "size spends its FFTs on subband traffic,\nso its advantage over "
          "plain ESSFM grows with block size and signal bandwidth.")


if __name__ == "__main__":
    main()
