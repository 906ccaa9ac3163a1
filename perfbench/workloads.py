"""The benchmark's three workloads, each a closed loop with one caller.

Every workload replays, through the library API, the call sequence of a
``fiberdbp`` subcommand a researcher waits on: ``simulate`` followed by
``dbp`` (link_sim), ``dbp`` over the receiver ladder (receiver_ladder), and
``sweep`` over the splitting ratio with tuned taps (coeff_tuning). The
system parameters are the desk and full-scale configurations, written out
here so that the benchmark does not move when a config file changes.

Inputs come from the workload seed only: ``--seed n`` selects input set
``n % POOL``, and every random draw (symbols, ASE) of that set uses a seed
derived from it. The outputs of each input set were recorded on the commit
that defined the benchmark (reference.json) and every run checks against
them.
"""

from __future__ import annotations

import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from fiberdbp import channel, complexity, dbp, fileio, metrics, optimize, signals

POOL = 16

DESK_WDM = signals.WdmConfig(baud_rate=32.0e9, num_channels=3, spacing=37.5e9,
                             rolloff=0.1, format="64-qam",
                             launch_power_dbm_per_channel=0.0)
DESK_LINK = channel.LinkConfig(num_spans=5, span_length_km=80.0)
DESK_SIM = channel.SimSettings(max_phase_rad=2.0e-3, noise_enabled=True)
DESK_DBP = dbp.DbpConfig(link=DESK_LINK, variant="CB_ESSFM", n_steps=5,
                         n_subbands=2, splitting_ratio=0.5, block_size=1024,
                         overlap=256, oversampling=1.125)

FULL_WDM = signals.WdmConfig(baud_rate=93.0e9, num_channels=5,
                             spacing=100.0e9, rolloff=0.05, format="64-qam",
                             launch_power_dbm_per_channel=3.0)
FULL_DBP = dbp.DbpConfig(link=channel.LinkConfig(num_spans=15,
                                                 span_length_km=80.0),
                         variant="CB_ESSFM", n_steps=3, n_subbands=2,
                         splitting_ratio=0.5, block_size=16384, overlap=1800,
                         oversampling=1.125)

CENTER = (DESK_WDM.num_channels - 1) // 2


def seed_base(seed: int) -> int:
    return 1000 * (seed % POOL + 1)


def desk_rate(cfg: dbp.DbpConfig = DESK_DBP) -> float:
    return cfg.oversampling * DESK_WDM.baud_rate


def receive(rec, rx, record, wdm, cfg, coeffs, label: str) -> float:
    """One receive chain; its time and sample count go to rx.<label>."""
    t0 = time.perf_counter()
    w = metrics.prepare_dbp_input(rx, wdm, cfg, CENTER)
    out = dbp.run_dbp(w, cfg, coeffs)
    res = metrics.snr(metrics.symbols_from_dbp_output(out, wdm),
                      record.channel(CENTER))
    rec.chain(label, w.num_samples, time.perf_counter() - t0)
    return res.snr_db


def simulate(rec, tx, link, sim, checkpoint=None):
    """propagate_link, timed as one transmission."""
    steps = len(channel.span_step_sizes(link, sim, tx.power)) * link.num_spans
    t0 = time.perf_counter()
    rx = channel.propagate_link(tx, link, sim, checkpoint=checkpoint)
    rec.simulation(tx.num_samples, steps, time.perf_counter() - t0)
    return rx


def build_taps(rec, cfg, rate, power_w):
    t0 = time.perf_counter()
    coeffs = dbp.make_dbp_coefficient_set(cfg, rate, power_w)
    rec.sample("taps_s", time.perf_counter() - t0)
    return coeffs


class LinkSim:
    """Desk link over a launch-power grid; the simulator does the work.

    Setup generates the transmitted comb, writes the analytic taps for
    every grid point (``fiberdbp coeffs``) and makes one warm-up
    transmission. Each operation is one
    transmission: propagate with per-span checkpoints, save tx, rx and
    symbols (``fiberdbp simulate``), load them and the taps back and
    receive the centre channel with EDC and the desk CB-ESSFM
    (``fiberdbp dbp``). One cycle covers the whole grid.
    """

    name = "link_sim"
    setups = 3
    powers_dbm = (-2.0, 0.0, 2.0, 4.0)
    num_symbols = 2048

    def __init__(self, seed: int, workdir: Path):
        self.base = seed_base(seed)
        self.dir = workdir
        self.edc = replace(DESK_DBP, variant="EDC", n_steps=0, n_subbands=1)

    def setup(self, rec, j):
        self.points = []
        for i, p in enumerate(self.powers_dbm):
            wdm = DESK_WDM.with_power(p)
            tx, record = signals.generate_wdm(wdm, self.num_symbols,
                                              seed=self.base + 10 + i)
            coeffs = build_taps(rec, DESK_DBP, desk_rate(), wdm.launch_power_w)
            path = self.dir / f"coeffs_p{i}.json"
            fileio.save_coefficients(path, coeffs)
            self.points.append((wdm, tx, record, path))
        # a warm-up transmission, so that lazy set-up is paid before timing
        simulate(rec, self.points[0][1], DESK_LINK,
                 replace(DESK_SIM, noise_seed=self.base + 10))

    def cycle(self, rec):
        for i, (wdm, tx, record, coeff_path) in enumerate(self.points):
            key = f"p{wdm.launch_power_dbm_per_channel:g}"
            with rec.op(f"transmission.{key}"):
                with rec.timed("op_s", f"transmission.{key}"):
                    d = self.dir
                    rx = simulate(rec, tx, DESK_LINK,
                                  replace(DESK_SIM, noise_seed=self.base + 10 + i),
                                  lambda span, w: fileio.save_waveform(
                                      d / f"ckpt_span{span:03d}.fdbp", w))
                    fileio.save_waveform(d / "tx.fdbp", tx)
                    fileio.save_waveform(d / "rx.fdbp", rx)
                    fileio.save_symbols(d / "symbols.npz", record)
                    rx_in = fileio.load_waveform(d / "rx.fdbp")
                    record_in = fileio.load_symbols(d / "symbols.npz")
                    coeffs = fileio.load_coefficients(coeff_path)
                    edc_snr = receive(rec, rx_in, record_in, wdm, self.edc,
                                      None, "EDC.n1024")
                    cb_snr = receive(rec, rx_in, record_in, wdm, DESK_DBP,
                                     coeffs, "CB_ESSFM.n1024")
                rec.expect(np.array_equal(rx_in.x, rx.x)
                           and np.array_equal(rx_in.y, rx.y),
                           f"{key}: waveform changed on a save/load round trip")
                ckpts = len(list(self.dir.glob("ckpt_span*.fdbp")))
                rec.expect(ckpts == DESK_LINK.num_spans,
                           f"{key}: {ckpts} checkpoints for "
                           f"{DESK_LINK.num_spans} spans")
                rec.output(f"{key}.rx_power_w", rx.power)
                rec.output(f"{key}.edc_snr_db", edc_snr)
                rec.output(f"{key}.cb_snr_db", cb_snr)

    def finish(self, rec):
        pass

    def snr_db(self, outputs) -> float:
        return outputs["p0.edc_snr_db"]


class ReceiverLadder:
    """EDC -> OSSFM -> ESSFM -> CB-ESSFM at the desk and production blocks.

    Setup simulates one desk transmission at 0 dBm, saves it, writes each
    variant's analytic taps and loads everything back (``fiberdbp
    simulate``, ``coeffs``, ``dbp --coeffs``). Each operation is one pass
    of the ladder over one input set: eight whole receive chains. One cycle
    passes over every input set.
    """

    name = "receiver_ladder"
    setups = 2
    num_symbols = 16384  # 18432 DBP samples: room for one 16384 block
    blocks = ((4096, 1024), (16384, 1800))

    def __init__(self, seed: int, workdir: Path):
        self.base = seed_base(seed)
        self.dir = workdir
        self.inputs = []
        self.variants = {
            "EDC": replace(DESK_DBP, variant="EDC", n_steps=0, n_subbands=1),
            "OSSFM": replace(DESK_DBP, variant="OSSFM", n_subbands=1),
            "ESSFM": replace(DESK_DBP, variant="ESSFM", n_subbands=1),
            "CB_ESSFM": replace(DESK_DBP, splitting_ratio=0.15),
        }

    def ladder(self):
        for n, n_ov in self.blocks:
            for name, cfg in self.variants.items():
                yield f"{name}.n{n}", name, replace(cfg, block_size=n,
                                                    overlap=n_ov)

    def setup(self, rec, j):
        seed = self.base + 20 + j
        tx, record = signals.generate_wdm(DESK_WDM, self.num_symbols, seed=seed)
        rx = simulate(rec, tx, DESK_LINK, replace(DESK_SIM, noise_seed=seed))
        d = self.dir / f"in{j}"
        d.mkdir(exist_ok=True)
        fileio.save_waveform(d / "rx.fdbp", rx)
        fileio.save_symbols(d / "symbols.npz", record)
        coeffs = {"EDC": None}
        for name, cfg in self.variants.items():
            if name != "EDC":
                fileio.save_coefficients(
                    d / f"{name}.json",
                    build_taps(rec, cfg, desk_rate(cfg), DESK_WDM.launch_power_w))
                coeffs[name] = fileio.load_coefficients(d / f"{name}.json")
        self.inputs.append((fileio.load_waveform(d / "rx.fdbp"),
                            fileio.load_symbols(d / "symbols.npz"), coeffs))

    def cycle(self, rec):
        for j, (rx, record, coeffs) in enumerate(self.inputs):
            with rec.op(f"pass.in{j}"):
                got = {}
                with rec.timed("op_s", f"pass.in{j}"):
                    for label, name, cfg in self.ladder():
                        got[label] = receive(rec, rx, record, DESK_WDM, cfg,
                                             coeffs[name], label)
                for label, value in got.items():
                    rec.output(f"in{j}.{label}.snr_db", value)

    def finish(self, rec):
        """Counted RM/2D of every rung: exact, and must not change."""
        rx, _, coeffs = self.inputs[0]
        with rec.span("accounting"):
            for label, name, cfg in self.ladder():
                with rec.op(f"count.{label}"):
                    w = metrics.prepare_dbp_input(rx, DESK_WDM, cfg, CENTER)
                    rm = complexity.count_runtime_multiplies(w, cfg,
                                                             coeffs[name])
                    rec.output(f"{label}.rm_per_2d", rm.rm_per_2d)

    def snr_db(self, outputs) -> float:
        return outputs["in0.CB_ESSFM.n16384.snr_db"]


class CoeffTuning:
    """Tuned splitting-ratio sweeps and the full-scale analytic build.

    Setup simulates a desk training set (train and val seeds) and one eval
    transmission at 2 dBm. Each operation is one ``sweep_splitting_ratio``
    call with ``train=`` (``fiberdbp sweep`` with tuned taps) plus its CSV,
    and an EDC receive of the eval waveform as the linear baseline. One
    cycle sweeps every input set. After the last cycle the run builds the
    full-scale 3-step taps once (an operation of its own, timed as taps_s):
    inside the cycle its 7 s would leave room for only four sweeps a run.
    """

    name = "coeff_tuning"
    setups = 2
    num_symbols = 2048
    power_dbm = 2.0
    rhos = (0.0, 0.15, 0.5, 1.0)

    def __init__(self, seed: int, workdir: Path):
        self.base = seed_base(seed)
        self.dir = workdir
        self.wdm = DESK_WDM.with_power(self.power_dbm)
        self.inputs = []

    def setup(self, rec, j):
        s = self.base + 30 + 3 * j
        train = optimize.build_training_set(DESK_LINK, self.wdm,
                                            self.num_symbols, DESK_SIM,
                                            train_seed=s, val_seed=s + 1)
        tx, record = signals.generate_wdm(self.wdm, self.num_symbols,
                                          seed=s + 2)
        rx = simulate(rec, tx, DESK_LINK, replace(DESK_SIM, noise_seed=s + 2))
        self.inputs.append((train, rx, record))

    def cycle(self, rec):
        edc = replace(DESK_DBP, variant="EDC", n_steps=0, n_subbands=1)
        for j, (train, rx, record) in enumerate(self.inputs):
            path = self.dir / f"sweep_rho_in{j}.csv"
            with rec.op(f"sweep.in{j}"):
                with rec.timed("op_s", f"sweep.in{j}"):
                    res = optimize.sweep_splitting_ratio(
                        self.rhos, rx, record, self.wdm, DESK_DBP, train=train)
                    fileio.write_csv(path, res.csv_rows())
                    edc_snr = receive(rec, rx, record, self.wdm, edc, None,
                                      "EDC.n1024")
                back = fileio.read_csv(path)
                rec.expect([float(r["SNR_dB"]) for r in back]
                           == list(res.snr_db),
                           f"in{j}: sweep CSV does not read back")
                for rho, value in zip(self.rhos, res.snr_db):
                    rec.output(f"in{j}.rho{rho:g}.tuned_snr_db", value)
                rec.output(f"in{j}.edc_snr_db", edc_snr)
                rec.expect(res.best_snr_db > edc_snr,
                           f"in{j}: tuned CB-ESSFM does not beat EDC")

    def finish(self, rec):
        with rec.op("fullscale_taps"):
            with rec.timed("taps_s", "fullscale_taps"):
                coeffs = dbp.make_dbp_coefficient_set(
                    FULL_DBP, FULL_DBP.oversampling * FULL_WDM.baud_rate,
                    FULL_WDM.launch_power_w)
            for h, c in coeffs.coeffs.items():
                rec.output(f"fullscale.taps{h}", c.tolist())

    def snr_db(self, outputs) -> float:
        return max(v for k, v in outputs.items()
                   if k.startswith("in0.") and k.endswith("tuned_snr_db"))


WORKLOADS = {w.name: w for w in (LinkSim, ReceiverLadder, CoeffTuning)}
