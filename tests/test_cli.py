"""Experiment-runner tests: config parsing, hashing, and subcommands.

Everything runs in-process through main(argv) on a deliberately small
system (1 channel, 2 spans, 256 symbols) so the full artifact chain stays
fast enough for a unit suite.
"""

import argparse
import json
import re
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import fiberdbp.channel
import fiberdbp.cli
import fiberdbp.optimize
from fiberdbp import (build_training_set, dbp_cost, generate_wdm,
                      load_coefficients, load_waveform, propagate_link,
                      read_csv, sweep_launch_power, sweep_splitting_ratio,
                      write_csv)
from fiberdbp.cli import FIGURE_IDS, ExperimentConfig, build_parser, main

ROOT = Path(__file__).resolve().parents[1]

MINI_YAML = """\
wdm:
  baud_rate: 32.0e9
  num_channels: 1
  rolloff: 0.1
  format: 64-qam
  launch_power_dbm_per_channel: 2.0
link:
  num_spans: 2
  span_length_km: 80.0
dbp:
  variant: ESSFM
  n_steps: 2
  block_size: 288
  overlap: 64
  oversampling: 1.125
sim:
  max_phase_rad: 2.0e-3
  noise_enabled: false
num_symbols: 256
seeds: {train: 1, val: 2, eval: 9}
sweeps:
  rho: [0.1, 0.9]
  power_dbm: [0.0, 2.0]
  n_steps: [1, 2]
"""


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg_path = root / "mini.yaml"
    cfg_path.write_text(MINI_YAML)
    return root, cfg_path


def run(cfg_path, out, *args):
    return main(["--config", str(cfg_path), "--out", str(out), *args])


def counting(monkeypatch, name, module=fiberdbp.cli):
    """Wrap module.<name> (default fiberdbp.cli) so its calls are counted."""
    real = getattr(module, name)
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_yaml_exponent_floats_parse_as_numbers(ws):
    _, cfg_path = ws
    cfg = ExperimentConfig.from_yaml(cfg_path)
    assert cfg.wdm.baud_rate == 32.0e9
    assert isinstance(cfg.sim.max_phase_rad, float)


def test_unknown_keys_and_bad_sweeps_rejected(ws):
    _, cfg_path = ws
    doc = ExperimentConfig.from_yaml(cfg_path).to_dict()
    doc["typo_key"] = 1
    with pytest.raises(ValueError, match="typo_key"):
        ExperimentConfig.from_dict(doc)
    del doc["typo_key"]
    doc["sweeps"] = {"bogus": [1, 2]}
    with pytest.raises(ValueError, match="bogus"):
        ExperimentConfig.from_dict(doc).validate()


def test_unknown_coefficient_source_rejected(ws):
    _, cfg_path = ws
    doc = ExperimentConfig.from_yaml(cfg_path).to_dict()
    doc["dbp"]["coefficient_source"] = "optimised"
    with pytest.raises(ValueError, match="'optimised'.*'analytic', 'optimized'"):
        ExperimentConfig.from_dict(doc)


def test_dbp_rate_below_symbol_rate_rejected(ws):
    # the engine config owns the rule; the experiment config reaches it
    _, cfg_path = ws
    doc = ExperimentConfig.from_yaml(cfg_path).to_dict()
    doc["dbp"]["oversampling"] = 0.5
    with pytest.raises(ValueError, match="oversampling must be finite and >= 1"):
        ExperimentConfig.from_dict(doc)


def test_absent_keys_take_field_defaults(ws):
    _, cfg_path = ws
    cfg = ExperimentConfig.from_yaml(cfg_path)
    doc = {"wdm": asdict(cfg.wdm), "link": asdict(cfg.link), "dbp": cfg.dbp,
           "seeds": {"eval": 5}}
    got = ExperimentConfig.from_dict(doc)
    assert got == ExperimentConfig(cfg.wdm, cfg.link, cfg.dbp,
                                   seeds={"train": 1, "val": 2, "eval": 5})
    assert got.to_dict() == asdict(got)


def test_config_hash_ignores_execution_only_keys(ws):
    _, cfg_path = ws
    cfg = ExperimentConfig.from_yaml(cfg_path)
    doc = cfg.to_dict()
    doc["output_dir"] = "elsewhere"
    assert ExperimentConfig.from_dict(doc).config_hash() == cfg.config_hash()
    doc["num_symbols"] = 512
    assert ExperimentConfig.from_dict(doc).config_hash() != cfg.config_hash()


def test_config_hash_of_a_stored_config_holds():
    # artifacts written by earlier runs of configs/desk.yaml carry this hash
    cfg = ExperimentConfig.from_yaml(ROOT / "configs" / "desk.yaml")
    assert cfg.config_hash() == "2c638bb364b4cd16"


def test_thread_count_key_rejected(ws):
    # the CPU budget is the affinity mask; a stale threads key is a typo
    root, _ = ws
    stale = root / "stale_threads.yaml"
    stale.write_text(MINI_YAML + "threads: 2\n")
    with pytest.raises(ValueError, match=r"unknown config keys: \['threads'\]"):
        ExperimentConfig.from_yaml(stale)


@pytest.mark.parametrize("grid", [
    {"rho": 0.5}, {"rho": []}, {"rho": [0.1, float("nan")]},
    {"power_dbm": [[0.0, 2.0]]}, {"power_dbm": ["2"]},
    {"n_steps": [1, 2.5]}, {"n_subbands": [2.0]}, {"num_spans": [True]}])
def test_malformed_sweep_grids_rejected_at_load(ws, grid):
    # sweep would otherwise simulate its transmissions before the grid fails
    _, cfg_path = ws
    doc = ExperimentConfig.from_yaml(cfg_path).to_dict()
    doc["sweeps"] = grid
    with pytest.raises(ValueError, match=f"sweep grid '{next(iter(grid))}'"):
        ExperimentConfig.from_dict(doc)


@pytest.mark.parametrize("key, value, message", [
    ("num_symbols", 1000.7, "num_symbols must be an integer"),
    ("sim_rate_hz", float("nan"), "sim_rate_hz must be finite and positive"),
    ("sim_rate_hz", -96e9, "sim_rate_hz must be finite and positive")])
def test_malformed_config_numbers_rejected_at_load(ws, key, value, message):
    # neither is rounded nor loaded to fail later inside generate_wdm
    _, cfg_path = ws
    doc = ExperimentConfig.from_yaml(cfg_path).to_dict()
    doc[key] = value
    with pytest.raises(ValueError, match=message):
        ExperimentConfig.from_dict(doc)


def test_simulate_writes_artifacts_and_manifest(ws):
    root, cfg_path = ws
    out = root / "sim"
    assert run(cfg_path, out, "simulate") == 0
    manifest = json.loads((out / "manifest.json").read_text())
    cfg = ExperimentConfig.from_yaml(cfg_path)
    assert manifest["config_hash"] == cfg.config_hash()
    for name in manifest["files"]:
        assert (out / name).exists()
    # launch power audit: single channel at 2 dBm
    audit = manifest["per_channel_power_dbm"]["channel_0"]
    assert audit == pytest.approx(2.0, abs=0.2)
    tx = load_waveform(out / "tx.fdbp")
    assert tx.num_samples == 256 * int(manifest["sample_rate_hz"] / 32e9)


def test_optimize_report_traces_each_band_fit(ws):
    # per band: the solver's iterations, evaluations, Jacobians and the
    # test that ended the fit, next to the tuned set it reports on
    root, cfg_path = ws
    out = root / "opt"
    assert run(cfg_path, out, "optimize") == 0
    report = json.loads((out / "optimize_report.json").read_text())
    coeffs = fiberdbp.fileio.load_coefficients(out / "coeffs_optimized.json")
    assert report["config_hash"] == \
        ExperimentConfig.from_yaml(cfg_path).config_hash()
    assert list(report["bands"]) == [str(h) for h in sorted(coeffs.coeffs)]
    assert len(report["train_mse_path"]) == len(report["bands"])
    for fit in report["bands"].values():
        assert set(fit) == {"iterations", "nfev", "njev", "termination"}
        assert 1 <= fit["iterations"] < fit["nfev"]
        assert 1 <= fit["njev"] <= fit["nfev"]
        assert fit["termination"] in ("gtol", "ftol", "xtol",
                                      "ftol and xtol", "max_nfev")


def test_simulate_rerun_is_byte_identical(ws):
    root, cfg_path = ws
    a, b = root / "rep_a", root / "rep_b"
    run(cfg_path, a, "simulate")
    run(cfg_path, b, "simulate")
    for name in ("tx.fdbp", "rx.fdbp"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_simulate_resume_matches_uninterrupted_run(ws):
    root, _ = ws
    cfg_path = root / "ckpt.yaml"
    cfg_path.write_text(MINI_YAML.replace("noise_enabled: false",
                                          "noise_enabled: true")
                        + "checkpoint_spans: true\n")
    full, part = root / "ckpt_full", root / "ckpt_part"
    run(cfg_path, full, "simulate")
    part.mkdir()
    snap = "ckpt_span001.fdbp"
    (part / snap).write_bytes((full / snap).read_bytes())
    assert run(cfg_path, part, "simulate", "--resume") == 0
    assert (part / "rx.fdbp").read_bytes() == (full / "rx.fdbp").read_bytes()


def test_coeffs_then_dbp_chain(ws):
    root, cfg_path = ws
    out = root / "chain"
    run(cfg_path, out, "simulate")
    assert run(cfg_path, out, "coeffs") == 0
    coeffs = load_coefficients(out / "coeffs.json")
    assert coeffs.coeffs[0].size % 2 == 1

    assert run(cfg_path, out, "dbp", "--coeffs", str(out / "coeffs.json"),
               "--waveform", str(out / "rx.fdbp")) == 0
    rows = read_csv(out / "dbp_result.csv")
    assert float(rows[0]["SNR_dB"]) > 15.0
    post = load_waveform(out / "dbp_out.fdbp")
    assert post.sample_rate == 1.125 * 32e9


def test_sweep_rho_csv(ws):
    root, cfg_path = ws
    out = root / "sw"
    run(cfg_path, out, "simulate")
    assert run(cfg_path, out, "sweep") == 0
    rows = read_csv(out / "sweep_rho.csv")
    assert [float(r["rho"]) for r in rows] == [0.1, 0.9]
    assert all(np.isfinite(float(r["SNR_dB"])) for r in rows)
    power_rows = read_csv(out / "sweep_power.csv")
    assert [float(r["power_dbm"]) for r in power_rows] == [0.0, 2.0]


def test_tuned_power_sweep_does_not_depend_on_the_cpu_count(
        ws, monkeypatch, pool_widths):
    # tuned points run one per usable CPU, each seeded on its own
    _, cfg_path = ws
    cfg = ExperimentConfig.from_yaml(cfg_path)
    train = build_training_set(cfg.link, cfg.wdm, cfg.num_symbols, cfg.sim,
                               cfg.seeds["train"], cfg.seeds["val"])
    del pool_widths[:]  # the training pair's
    curves = []
    for cpus in (1, 2):
        monkeypatch.setattr(fiberdbp.cpus, "usable_cpus", lambda: cpus)
        res = sweep_launch_power([0.0, 2.0, 4.0], cfg.link, cfg.wdm,
                                 cfg.dbp_config(), cfg.num_symbols, cfg.sim,
                                 cfg.seeds["eval"], train=train)
        curves.append(res.snr_db.tobytes())
    assert pool_widths == [2]
    assert curves[0] == curves[1]


def test_seed_flag_is_the_config_eval_seed(ws):
    # --seed overrides seeds.eval for every subcommand that simulates an
    # evaluation transmission, and the artifacts hash the seed in use
    root, _ = ws
    text = MINI_YAML.replace("  power_dbm: [0.0, 2.0]\n", "")
    text = text.replace("  n_steps: [1, 2]\n", "")
    flag, conf = root / "seed_flag.yaml", root / "seed_conf.yaml"
    flag.write_text(text)
    conf.write_text(text.replace("eval: 9", "eval: 5"))
    assert run(flag, root / "seed_flag", "--seed", "5", "sweep") == 0
    assert run(conf, root / "seed_conf", "sweep") == 0
    assert (root / "seed_flag" / "sweep_rho.csv").read_bytes() \
        == (root / "seed_conf" / "sweep_rho.csv").read_bytes()
    assert run(flag, root / "seed_flag", "--seed", "5", "simulate") == 0
    manifest = json.loads((root / "seed_flag" / "manifest.json").read_text())
    assert manifest["config_hash"] \
        == ExperimentConfig.from_yaml(conf).config_hash()


def test_cost_table_structure(ws):
    root, cfg_path = ws
    out = root / "cost"
    assert run(cfg_path, out, "cost") == 0
    rows = read_csv(out / "cost.csv")
    header = list(rows[0])
    assert header[:8] == ["variant", "N_st", "N_sb", "N", "N_ov", "n",
                          "RM_per_2D", "RA_per_2D"]
    edc = [r for r in rows if r["variant"] == "EDC"]
    assert len(edc) == 1 and int(edc[0]["N_st"]) == 0
    variants = {r["variant"] for r in rows}
    assert variants == {"EDC", "OSSFM", "ESSFM", "CB_ESSFM"}
    assert all(float(r["RM_per_2D"]) > 0 for r in rows)


def test_cost_table_uses_closed_forms_only(ws, monkeypatch):
    # tap counts come from the memory rule; building the taps just to read
    # their length would not fit in memory at full scale
    root, cfg_path = ws
    plain, closed = root / "cost_plain", root / "cost_closed"
    assert run(cfg_path, plain, "cost") == 0

    def refuse(*args, **kwargs):
        raise AssertionError("cost table built analytic coefficients")

    monkeypatch.setattr("fiberdbp.dbp.analytic_coefficients", refuse)
    assert run(cfg_path, closed, "cost") == 0
    assert (closed / "cost.csv").read_bytes() \
        == (plain / "cost.csv").read_bytes()


def test_figure_steps_scan_includes_zero_step_reference(ws):
    root, cfg_path = ws
    out = root / "fig"
    run(cfg_path, out, "simulate")
    assert run(cfg_path, out, "figure", "snr_vs_steps") == 0
    rows = read_csv(out / "snr_vs_steps.csv")
    edc = [r for r in rows if r["variant"] == "EDC"]
    assert len(edc) == 1 and int(edc[0]["N_st"]) == 0
    scanned = {(r["variant"], int(r["N_st"])) for r in rows
               if r["variant"] == "ESSFM"}
    assert scanned == {("ESSFM", 1), ("ESSFM", 2)}
    snrs = {r["variant"]: float(r["SNR_dB"]) for r in rows
            if int(r["N_st"]) in (0, 2)}
    assert snrs["ESSFM"] > snrs["EDC"]


# each figure's columns before config_hash and its row count on MINI_YAML:
# rho 0.1 and 0.9; EDC once, then three variants at N_st 1 and 2; the
# default subband (1, 2, 4, 8) and span (1, 3, 5) grids
FIGURE_TABLES = {
    "snr_vs_nsb": (["N_sb", "SNR_dB"], 4),
    "snr_vs_rho": (["rho", "SNR_dB"], 2),
    "snr_vs_steps": (["variant", "N_st", "N_sb", "SNR_dB"], 7),
    "snr_vs_complexity": (["variant", "N_st", "N_sb", "SNR_dB", "RM_per_2D",
                           "RA_per_2D"], 7),
    "snr_vs_length": (["num_spans", "length_km", "SNR_dB"], 3),
}


@pytest.mark.parametrize("figure_id", FIGURE_IDS)
def test_every_figure_writes_its_table(ws, figure_id):
    root, cfg_path = ws
    out = root / "figs"
    assert run(cfg_path, out, "figure", figure_id) == 0
    rows = read_csv(out / f"{figure_id}.csv")
    columns, count = FIGURE_TABLES[figure_id]
    assert list(rows[0]) == columns + ["config_hash"]
    assert len(rows) == count
    assert all(np.isfinite(float(r["SNR_dB"])) for r in rows)


def test_subband_figure_scans_cb_essfm_whatever_the_variant(ws):
    # MINI_YAML's receiver is single-band ESSFM; the subband grid runs the
    # one variant with subbands, so its rows are a CB-ESSFM config's
    root, cfg_path = ws
    cb_path = root / "mini_cb.yaml"
    cb_path.write_text(MINI_YAML.replace("variant: ESSFM",
                                         "variant: CB_ESSFM"))
    tables = []
    for path, out in ((cfg_path, root / "nsb"), (cb_path, root / "nsb_cb")):
        assert run(path, out, "figure", "snr_vs_nsb") == 0
        tables.append([(r["N_sb"], r["SNR_dB"])
                       for r in read_csv(out / "snr_vs_nsb.csv")])
    assert tables[0] == tables[1]
    assert [n for n, _ in tables[0]] == ["1", "2", "4", "8"]


def test_complexity_figure_prices_every_row(ws):
    root, cfg_path = ws
    out = root / "fig_cost"
    assert run(cfg_path, out, "figure", "snr_vs_complexity") == 0
    cfg = ExperimentConfig.from_yaml(cfg_path)
    rate = cfg.dbp_rate_hz()
    for r in read_csv(out / "snr_vs_complexity.csv"):
        d = cfg.dbp_config(variant=r["variant"], n_steps=int(r["N_st"]),
                           n_subbands=int(r["N_sb"]))
        assert float(r["RM_per_2D"]) == dbp_cost(d, rate).rm_per_2d


def test_rho_figure_is_the_rho_sweep(ws):
    # both score the config's rho grid on one evaluation transmission
    root, cfg_path = ws
    out = root / "rho_both"
    assert run(cfg_path, out, "sweep") == 0
    assert run(cfg_path, out, "figure", "snr_vs_rho") == 0
    assert (out / "snr_vs_rho.csv").read_bytes() \
        == (out / "sweep_rho.csv").read_bytes()


def test_zero_step_rows_build_no_taps(ws, monkeypatch):
    # at N_st = 0 every variant is EDC and the engine reads no taps: only
    # the three N_st = 1 rows may build a coefficient set
    root, _ = ws
    cfg_path = root / "steps01.yaml"
    cfg_path.write_text(MINI_YAML.replace("n_steps: [1, 2]",
                                          "n_steps: [0, 1]"))
    built = counting(monkeypatch, "make_dbp_coefficient_set",
                     fiberdbp.optimize)
    out = root / "fig01"
    assert run(cfg_path, out, "figure", "snr_vs_steps") == 0
    assert len(built) == 3
    rows = read_csv(out / "snr_vs_steps.csv")
    assert [(r["variant"], int(r["N_st"])) for r in rows] == [
        ("EDC", 0), ("OSSFM", 0), ("ESSFM", 0), ("CB_ESSFM", 0),
        ("OSSFM", 1), ("ESSFM", 1), ("CB_ESSFM", 1)]
    assert len({r["SNR_dB"] for r in rows[:4]}) == 1


def test_optimized_sweep_builds_one_training_set(ws, monkeypatch):
    # the training set is simulated once per command, at the config's
    # launch power, tunes the taps of every rho and power point, and gives
    # the same curves as the library sweeps handed a training set built
    # from the config's seeds
    root, _ = ws
    text = MINI_YAML.replace("  oversampling: 1.125\n",
                             "  oversampling: 1.125\n"
                             "  coefficient_source: optimized\n")
    text = text.replace("  n_steps: [1, 2]\n", "")
    cfg_path = root / "optimized.yaml"
    cfg_path.write_text(text)
    cfg = ExperimentConfig.from_yaml(cfg_path)
    assert cfg.dbp_config().coefficient_source == "optimized"

    trained = counting(monkeypatch, "build_training_set")
    tuned = counting(monkeypatch, "optimize_coefficients", fiberdbp.optimize)
    out = root / "sw_opt"
    assert run(cfg_path, out, "sweep") == 0
    assert len(trained) == 1
    assert len(tuned) == len(cfg.sweeps["rho"]) + len(cfg.sweeps["power_dbm"])
    monkeypatch.undo()

    def training_set():
        return build_training_set(cfg.link, cfg.wdm, cfg.num_symbols,
                                  cfg.sim, cfg.seeds["train"],
                                  cfg.seeds["val"], cfg.sim_rate_hz)

    tx, record = generate_wdm(cfg.wdm, cfg.num_symbols,
                              sim_rate=cfg.sim_rate_hz, seed=cfg.seeds["eval"])
    rho_ref = sweep_splitting_ratio(cfg.sweeps["rho"],
                                    propagate_link(tx, cfg.link, cfg.sim),
                                    record, cfg.wdm, cfg.dbp_config(),
                                    train=training_set())
    write_csv(root / "sw_opt_rho_ref.csv", rho_ref.csv_rows(),
              cfg.config_hash())
    assert (out / "sweep_rho.csv").read_bytes() \
        == (root / "sw_opt_rho_ref.csv").read_bytes()

    ref = sweep_launch_power(cfg.sweeps["power_dbm"], cfg.link, cfg.wdm,
                             cfg.dbp_config(), cfg.num_symbols, cfg.sim,
                             cfg.seeds["eval"], train=training_set())
    write_csv(root / "sw_opt_ref.csv", ref.csv_rows(), cfg.config_hash())
    assert (out / "sweep_power.csv").read_bytes() \
        == (root / "sw_opt_ref.csv").read_bytes()


def test_sweep_without_its_grids_rejected(ws, monkeypatch):
    # figure-only grids give sweep nothing to run: it must stop before it
    # simulates the training set, naming the grids it does run
    root, _ = ws
    text = MINI_YAML.replace("  oversampling: 1.125\n",
                             "  oversampling: 1.125\n"
                             "  coefficient_source: optimized\n")
    text = text.replace("  rho: [0.1, 0.9]\n", "")
    text = text.replace("  power_dbm: [0.0, 2.0]\n", "")
    cfg_path = root / "figure_grids_only.yaml"
    cfg_path.write_text(text)
    trained = counting(monkeypatch, "build_training_set")
    out = root / "sw_none"
    with pytest.raises(SystemExit, match="rho and power_dbm"):
        run(cfg_path, out, "sweep")
    assert trained == []
    assert not out.exists()


def test_unknown_subcommand_rejected(ws):
    _, cfg_path = ws
    with pytest.raises(SystemExit):
        main(["--config", str(cfg_path), "frobnicate"])


def test_readme_names_every_command_line_option():
    # the README's Command line section and build_parser() list the same
    # options, subcommand options included
    defined = set()
    parsers = [build_parser()]
    while parsers:
        parser = parsers.pop()
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                parsers += action.choices.values()
            else:
                defined.update(action.option_strings)
    defined -= {"-h", "--help"}
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    assert set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section)) == defined
