"""Config-driven experiment runner.

One YAML file fully determines an experiment: the WDM comb, the link, the
backpropagation engine, simulation controls, seeds, and optional sweep
grids. Every artifact written (waveforms, symbol records, coefficient
sets, CSV tables) carries the configuration hash so results can always be
traced back; re-running an unchanged config reproduces identical files.

Subcommands: simulate, coeffs, optimize, dbp, sweep, cost, figure. They
run on the CPUs of the affinity mask (cpus.usable_cpus), which ``taskset``
limits: the simulated spans, the engine's block passes and the receive
chain's spectral steps take a helper thread from that one budget while a
CPU is idle. No option sets a thread count, and outputs ignore it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import numbers
import re
import sys
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np
import yaml

from . import fileio
from .channel import LinkConfig, SimSettings, propagate_link
from .complexity import dbp_cost
from .dbp import DbpConfig, make_dbp_coefficient_set, run_dbp
from .metrics import prepare_dbp_input, snr, symbols_from_dbp_output
from .optimize import (TrainingSet, build_training_set, optimize_coefficients,
                       receiver_coefficients, score_receivers,
                       sweep_launch_power, sweep_splitting_ratio)
from .signals import WdmConfig, check_numbers, demux_channel, generate_wdm

FIGURE_IDS = ("snr_vs_nsb", "snr_vs_rho", "snr_vs_steps",
              "snr_vs_complexity", "snr_vs_length")


class _ConfigLoader(yaml.SafeLoader):
    """SafeLoader that also accepts floats like 32.0e9 (no signed exponent)."""


_ConfigLoader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"""^(?:[-+]?(?:[0-9][0-9_]*)\.[0-9_]*(?:[eE][-+]?[0-9]+)?
                   |[-+]?(?:[0-9][0-9_]*)(?:[eE][-+]?[0-9]+)
                   |\.[0-9_]+(?:[eE][-+]?[0-9]+)?
                   |[-+]?\.(?:inf|Inf|INF)
                   |\.(?:nan|NaN|NAN))$""", re.X),
    list("-+0123456789."))


_DEFAULT_SEEDS = {"train": 1, "val": 2, "eval": 9}
_SWEEP_GRIDS = {"rho": numbers.Real, "power_dbm": numbers.Real,
                "n_steps": numbers.Integral, "n_subbands": numbers.Integral,
                "num_spans": numbers.Integral}


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one experiment needs, loadable from a single YAML file."""

    wdm: WdmConfig
    link: LinkConfig
    dbp: dict
    sim: SimSettings = field(default_factory=lambda: SimSettings(
        max_phase_rad=2e-3))
    num_symbols: int = 4096
    sim_rate_hz: float | None = None
    seeds: dict = field(default_factory=lambda: dict(_DEFAULT_SEEDS))
    sweeps: dict = field(default_factory=dict)
    output_dir: str = "out"
    checkpoint_spans: bool = False

    @classmethod
    def from_yaml(cls, path) -> "ExperimentConfig":
        doc = yaml.load(Path(path).read_text(), Loader=_ConfigLoader)
        return cls.from_dict(doc)

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        """Build from a plain document; absent keys take the field defaults."""
        extra = set(doc) - {f.name for f in fields(cls)}
        if extra:
            raise ValueError(f"unknown config keys: {sorted(extra)}")
        parse = {"wdm": lambda d: WdmConfig(**d),
                 "link": lambda d: LinkConfig(**d),
                 "sim": lambda d: SimSettings(**d),
                 "dbp": dict, "sweeps": dict,
                 "seeds": lambda d: {**_DEFAULT_SEEDS, **d},
                 "output_dir": str, "checkpoint_spans": bool}
        cfg = cls(**{key: parse.get(key, lambda v: v)(value)
                     for key, value in doc.items()})
        cfg.validate()
        return cfg

    def to_dict(self) -> dict:
        return asdict(self)

    def config_hash(self) -> str:
        # output_dir is an execution detail: two runs of the same experiment
        # must hash alike no matter where they ran
        doc = self.to_dict()
        del doc["output_dir"]
        canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:16]

    def dbp_config(self, **overrides) -> DbpConfig:
        return DbpConfig(link=self.link, **{**self.dbp, **overrides})

    def dbp_rate_hz(self) -> float:
        return self.dbp_config().oversampling * self.wdm.baud_rate

    def validate(self):
        check_numbers(self, positive=("sim_rate_hz",))
        self.dbp_config()  # exercises the engine invariants
        if self.num_symbols < 2:
            raise ValueError("num_symbols must be >= 2")
        if {"train", "val", "eval"} - set(self.seeds):
            raise ValueError("seeds must define train, val and eval")
        for key, grid in self.sweeps.items():
            if key not in _SWEEP_GRIDS:
                raise ValueError(f"unknown sweep grid {key!r}")
            kind = _SWEEP_GRIDS[key]
            if not (isinstance(grid, (list, tuple)) and grid and all(
                    isinstance(v, kind) and not isinstance(v, bool)
                    and math.isfinite(v) for v in grid)):
                what = "integers" if kind is numbers.Integral else "numbers"
                raise ValueError(f"sweep grid {key!r} must be a non-empty "
                                 f"list of finite {what}, got {grid!r}")


def _simulate_eval(cfg: ExperimentConfig):
    tx, record = generate_wdm(cfg.wdm, cfg.num_symbols,
                              sim_rate=cfg.sim_rate_hz, seed=cfg.seeds["eval"])
    return propagate_link(tx, cfg.link, cfg.sim), record


def _build_training_set(cfg: ExperimentConfig) -> TrainingSet:
    """The train/val pair of cfg's seeds, on its link at its launch power."""
    return build_training_set(cfg.link, cfg.wdm, cfg.num_symbols, cfg.sim,
                              cfg.seeds["train"], cfg.seeds["val"],
                              cfg.sim_rate_hz)


def _training_set(cfg: ExperimentConfig,
                  dcfgs: list[DbpConfig]) -> TrainingSet | None:
    """Training set shared by every row of one command that tunes its taps.

    None when no row of dcfgs reads a tuned coefficient set, so
    receiver_coefficients(d, cfg.wdm, train) tunes exactly those rows.
    """
    if not any(d.coefficient_source == "optimized" and d.uses_coefficients
               for d in dcfgs):
        return None
    return _build_training_set(cfg)


def _scan(cfg: ExperimentConfig, dcfgs: list[DbpConfig]) -> np.ndarray:
    """SNR of each receiver of dcfgs on cfg's evaluation transmission."""
    rx, record = _simulate_eval(cfg)
    return score_receivers(dcfgs, rx, record, cfg.wdm,
                           _training_set(cfg, dcfgs))


def _ladder(dcfg: DbpConfig, steps_grid) -> list[DbpConfig]:
    """EDC, then OSSFM, ESSFM and CB-ESSFM at each step count of the grid."""
    out = [replace(dcfg, variant="EDC", n_steps=0, n_subbands=1)]
    for n_st in steps_grid:
        for name in ("OSSFM", "ESSFM", "CB_ESSFM"):
            out.append(replace(dcfg, variant=name, n_steps=int(n_st),
                               n_subbands=dcfg.n_subbands
                               if name == "CB_ESSFM" else 1))
    return out


def _out_dir(cfg: ExperimentConfig, args) -> Path:
    out = Path(args.out or cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_simulate(cfg: ExperimentConfig, args) -> int:
    out = _out_dir(cfg, args)
    ckpt = snapshot = None
    start_span = 0
    tx, record = generate_wdm(cfg.wdm, cfg.num_symbols,
                              sim_rate=cfg.sim_rate_hz, seed=cfg.seeds["eval"])
    if cfg.checkpoint_spans:
        def ckpt(span, w):
            fileio.save_waveform(out / f"ckpt_span{span:03d}.fdbp", w)
        if args.resume:
            done = sorted(out.glob("ckpt_span*.fdbp"))
            if done:
                start_span = int(done[-1].stem[-3:])
                snapshot = fileio.load_waveform(done[-1])
                print(f"resuming after span {start_span}")
    rx = propagate_link(tx, cfg.link, cfg.sim, checkpoint=ckpt,
                        first_span=start_span, snapshot=snapshot)
    fileio.save_waveform(out / "tx.fdbp", tx)
    fileio.save_waveform(out / "rx.fdbp", rx)
    fileio.save_symbols(out / "symbols.npz", record)

    # per-channel power audit on the transmitted comb
    audit = {}
    for c, f_c in enumerate(cfg.wdm.channel_freqs):
        ch = demux_channel(tx, f_c, cfg.wdm.baud_rate * (1 + cfg.wdm.rolloff))
        audit[f"channel_{c}"] = float(10 * np.log10(ch.power * 1e3))
    manifest = {"config_hash": cfg.config_hash(), "seed": cfg.seeds["eval"],
                "seeds": cfg.seeds, "num_symbols": cfg.num_symbols,
                "sample_rate_hz": tx.sample_rate,
                "target_power_dbm": cfg.wdm.launch_power_dbm_per_channel,
                "per_channel_power_dbm": audit,
                "files": ["tx.fdbp", "rx.fdbp", "symbols.npz"]}
    fileio.save_json(out / "manifest.json", manifest)
    print(f"simulate: wrote {out}/tx.fdbp rx.fdbp symbols.npz "
          f"(hash {manifest['config_hash']})")
    return 0


def cmd_coeffs(cfg: ExperimentConfig, args) -> int:
    out = _out_dir(cfg, args)
    dcfg = cfg.dbp_config()
    coeffs = make_dbp_coefficient_set(dcfg, cfg.dbp_rate_hz(),
                                      cfg.wdm.launch_power_w)
    fileio.save_coefficients(out / "coeffs.json", coeffs, cfg.config_hash())
    taps = {h: c.size for h, c in coeffs.coeffs.items()}
    print(f"coeffs: wrote {out}/coeffs.json (taps per band: {taps})")
    return 0


def cmd_optimize(cfg: ExperimentConfig, args) -> int:
    out = _out_dir(cfg, args)
    dcfg = cfg.dbp_config()
    train = _build_training_set(cfg)
    init = make_dbp_coefficient_set(dcfg, cfg.dbp_rate_hz(),
                                    cfg.wdm.launch_power_w)
    result = optimize_coefficients(train, dcfg, init)
    fileio.save_coefficients(out / "coeffs_optimized.json", result.coeffs,
                             cfg.config_hash())
    report = {"config_hash": cfg.config_hash(), "improved": result.improved,
              "init_val_mse": result.init_val_mse,
              "final_val_mse": result.final_val_mse,
              "train_mse_path": list(result.train_mse_path),
              "bands": {str(h): asdict(fit) for h, fit in result.fits.items()}}
    fileio.save_json(out / "optimize_report.json", report)
    print(f"optimize: improved={result.improved} "
          f"val MSE {result.init_val_mse:.3e} -> {result.final_val_mse:.3e}")
    return 0


def cmd_dbp(cfg: ExperimentConfig, args) -> int:
    out = _out_dir(cfg, args)
    dcfg = cfg.dbp_config()
    rx = fileio.load_waveform(args.waveform or out / "rx.fdbp")
    coeffs = fileio.load_coefficients(args.coeffs) if args.coeffs \
        else receiver_coefficients(dcfg, cfg.wdm, _training_set(cfg, [dcfg]))
    w = prepare_dbp_input(rx, cfg.wdm, dcfg)
    post = run_dbp(w, dcfg, coeffs)
    fileio.save_waveform(out / "dbp_out.fdbp", post)
    rows = [{"variant": dcfg.variant, "N_st": dcfg.n_steps,
             "N_sb": dcfg.n_subbands, "rho": dcfg.splitting_ratio}]
    symbols_path = args.symbols or out / "symbols.npz"
    if Path(symbols_path).exists():
        record = fileio.load_symbols(symbols_path)
        result = snr(symbols_from_dbp_output(post, cfg.wdm),
                     record.channel(cfg.wdm.center_channel))
        rows[0].update(SNR_dB=result.snr_db, SNR_x_dB=result.snr_x_db,
                       SNR_y_dB=result.snr_y_db,
                       num_symbols=result.num_symbols)
        print(f"dbp: {dcfg.variant} SNR {result.snr_db:.2f} dB")
    else:
        print("dbp: no symbol record found, wrote waveform only")
    fileio.write_csv(out / "dbp_result.csv", rows, cfg.config_hash())
    return 0


def cmd_sweep(cfg: ExperimentConfig, args) -> int:
    if "rho" not in cfg.sweeps and "power_dbm" not in cfg.sweeps:
        raise SystemExit("sweep runs the rho and power_dbm grids; the config "
                         "declares neither")
    out = _out_dir(cfg, args)
    dcfg = cfg.dbp_config()
    train = _training_set(cfg, [dcfg])
    wrote = []
    if "rho" in cfg.sweeps:
        rx, record = _simulate_eval(cfg)
        res = sweep_splitting_ratio(cfg.sweeps["rho"], rx, record, cfg.wdm,
                                    dcfg, train)
        fileio.write_csv(out / "sweep_rho.csv", res.csv_rows(),
                         cfg.config_hash())
        wrote.append(f"sweep_rho.csv (best rho {res.best_value:g}, "
                     f"{res.best_snr_db:.2f} dB)")
    if "power_dbm" in cfg.sweeps:
        res = sweep_launch_power(
            cfg.sweeps["power_dbm"], cfg.link, cfg.wdm, dcfg, cfg.num_symbols,
            cfg.sim, cfg.seeds["eval"], train,
            sim_rate_hz=cfg.sim_rate_hz)
        fileio.write_csv(out / "sweep_power.csv", res.csv_rows(),
                         cfg.config_hash())
        wrote.append(f"sweep_power.csv (best {res.best_value:g} dBm, "
                     f"{res.best_snr_db:.2f} dB)")
    for line in wrote:
        print("sweep:", line)
    return 0


def cmd_cost(cfg: ExperimentConfig, args) -> int:
    out = _out_dir(cfg, args)
    dcfg = cfg.dbp_config()
    steps_grid = cfg.sweeps.get("n_steps", [dcfg.n_steps])
    rate = cfg.dbp_rate_hz()
    rows = [dbp_cost(d, rate).csv_row(d.variant, d.n_steps, d.n_subbands,
                                      d.block_size, d.overlap, d.oversampling)
            for d in _ladder(dcfg, steps_grid)
            if d.variant == "EDC" or d.n_steps]
    seen = set()
    rows = [r for r in rows
            if (key := tuple(r.values())) not in seen and not seen.add(key)]
    fileio.write_csv(out / "cost.csv", rows, cfg.config_hash())
    print(f"cost: wrote {out}/cost.csv ({len(rows)} rows)")
    return 0


def _figure_rows(cfg: ExperimentConfig, figure_id: str) -> list[dict]:
    dcfg = cfg.dbp_config()
    if figure_id == "snr_vs_length":
        rows = []
        for spans in cfg.sweeps.get("num_spans", [1, 3, 5]):
            sub = replace(cfg, link=replace(cfg.link, num_spans=int(spans)))
            rows.append({"num_spans": int(spans),
                         "length_km": sub.link.total_length_km,
                         "SNR_dB": _scan(sub, [sub.dbp_config()])[0]})
        return rows

    if figure_id == "snr_vs_rho":
        dcfgs = [replace(dcfg, splitting_ratio=float(r)) for r in
                 cfg.sweeps.get("rho", [round(0.1 * k, 1) for k in range(11)])]
        labels = [{"rho": d.splitting_ratio} for d in dcfgs]
    elif figure_id == "snr_vs_nsb":
        # CB-ESSFM is the one variant with subbands
        dcfgs = [replace(dcfg, variant="CB_ESSFM", n_subbands=int(n))
                 for n in cfg.sweeps.get("n_subbands", [1, 2, 4, 8])]
        labels = [{"N_sb": d.n_subbands} for d in dcfgs]
    else:
        # the step grid x variants (EDC once, as N_st = 0)
        dcfgs = _ladder(dcfg, cfg.sweeps.get("n_steps", [dcfg.n_steps]))
        labels = [{"variant": d.variant, "N_st": d.n_steps,
                   "N_sb": d.n_subbands} for d in dcfgs]
    rows = [{**label, "SNR_dB": s}
            for label, s in zip(labels, _scan(cfg, dcfgs))]
    if figure_id == "snr_vs_complexity":
        for d, row in zip(dcfgs, rows):
            cost = dbp_cost(d, cfg.dbp_rate_hz())
            row.update(RM_per_2D=cost.rm_per_2d, RA_per_2D=cost.ra_per_2d)
    return rows


def cmd_figure(cfg: ExperimentConfig, args) -> int:
    out = _out_dir(cfg, args)
    if args.figure_id not in FIGURE_IDS:
        raise SystemExit(f"figure_id must be one of {FIGURE_IDS}")
    rows = _figure_rows(cfg, args.figure_id)
    path = out / f"{args.figure_id}.csv"
    fileio.write_csv(path, rows, cfg.config_hash())
    print(f"figure: wrote {path} ({len(rows)} rows)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fiberdbp",
        description="fiber nonlinearity compensation experiment runner")
    parser.add_argument("--config", required=True, help="YAML experiment file")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the evaluation seed (seeds.eval)")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("simulate").add_argument("--resume", action="store_true")
    sub.add_parser("coeffs")
    sub.add_parser("optimize")
    p_dbp = sub.add_parser("dbp")
    p_dbp.add_argument("--waveform", default=None)
    p_dbp.add_argument("--symbols", default=None)
    p_dbp.add_argument("--coeffs", default=None)
    sub.add_parser("sweep")
    sub.add_parser("cost")
    sub.add_parser("figure").add_argument("figure_id", choices=FIGURE_IDS)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cfg = ExperimentConfig.from_yaml(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seeds={**cfg.seeds, "eval": args.seed})
    handler = {"simulate": cmd_simulate, "coeffs": cmd_coeffs,
               "optimize": cmd_optimize, "dbp": cmd_dbp, "sweep": cmd_sweep,
               "cost": cmd_cost, "figure": cmd_figure}[args.command]
    return handler(cfg, args)


if __name__ == "__main__":
    sys.exit(main())
