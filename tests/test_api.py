"""The package namespace: exactly the names its callers import.

The demos, the tests and the benchmark import from ``fiberdbp``; the
command line imports from the submodules. A name with no caller stays in
its module and out of the package namespace.
"""

import ast
import types
from pathlib import Path

import fiberdbp

ROOT = Path(__file__).resolve().parents[1]

PUBLIC = {
    # signals
    "DualPolWaveform", "WdmConfig", "demux_channel", "generate_wdm",
    "matched_filter", "resample",
    # channel
    "LinkConfig", "SimSettings", "backward_propagate", "edfa",
    "propagate_link", "span_step_sizes",
    # kernel
    "CoefficientSet", "StepGeometry", "analytic_coefficients",
    "coefficient_memory", "step_kernel",
    # dbp
    "DbpConfig", "build_mimo_transfer", "channel_memory_samples",
    "make_dbp_coefficient_set", "nlpr_step", "run_dbp",
    "standard_ssfm_coefficient_set",
    # complexity
    "cb_essfm_cost", "count_runtime_multiplies", "dbp_cost",
    "essfm_time_domain_cost",
    # metrics
    "ase_limited_snr_db", "evaluate", "prepare_dbp_input", "recover_symbols",
    "remove_mean_phase", "snr",
    # optimize
    "SweepResult", "TrainingSet", "build_training_set",
    "optimize_coefficients", "sweep_launch_power", "sweep_splitting_ratio",
    # fileio
    "load_coefficients", "load_symbols", "load_waveform", "read_csv",
    "save_coefficients", "save_symbols", "save_waveform", "write_csv",
}


def exported():
    return {name for name in fiberdbp.__all__
            if not isinstance(getattr(fiberdbp, name), types.ModuleType)}


def imported_from_package():
    names = set()
    for folder in ("demos", "tests", "perfbench"):
        for path in sorted((ROOT / folder).glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom) \
                        and node.module == "fiberdbp":
                    names.update(a.name for a in node.names)
    return names


def test_package_exports_exactly_the_public_set():
    assert exported() == PUBLIC


def test_every_export_has_a_caller():
    used = imported_from_package()
    modules = {name for name in fiberdbp.__all__
               if isinstance(getattr(fiberdbp, name), types.ModuleType)}
    assert used - modules == PUBLIC


def private_cross_imports():
    """(importing module, "module.name") for every relative import of an
    underscore name inside the package."""
    found = set()
    for path in sorted((ROOT / "src" / "fiberdbp").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level:
                found.update((path.stem, f"{node.module}.{a.name}")
                             for a in node.names if a.name.startswith("_"))
    return found


def test_private_names_cross_modules_only_into_the_engine():
    # batches of tap sets stop at dbp: the tuner drives the batched engine
    # pass, and every receiver recovers symbols through public functions
    assert private_cross_imports() == {("optimize", "dbp._run_blocks"),
                                       ("complexity", "dbp._tap_memory")}
