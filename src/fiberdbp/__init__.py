"""Fiber nonlinearity compensation by coupled-band enhanced split-step DBP.

The package splits into a forward ground-truth simulator (signals, channel),
the receiver-side compensation engine (kernel, dbp), tuning and evaluation
(optimize, metrics), an exact arithmetic cost model (complexity), and a
config-driven experiment runner (cli, fileio).
"""

from .channel import (LinkConfig, SimSettings, backward_propagate, edfa,
                      propagate_link, span_step_sizes)
from .complexity import (cb_essfm_cost, count_runtime_multiplies, dbp_cost,
                         essfm_time_domain_cost)
from .dbp import (DbpConfig, build_mimo_transfer, channel_memory_samples,
                  make_dbp_coefficient_set, nlpr_step, run_dbp,
                  standard_ssfm_coefficient_set)
from .fileio import (load_coefficients, load_symbols, load_waveform, read_csv,
                     save_coefficients, save_symbols, save_waveform,
                     write_csv)
from .kernel import (CoefficientSet, StepGeometry, analytic_coefficients,
                     coefficient_memory, step_kernel)
from .metrics import (ase_limited_snr_db, evaluate, prepare_dbp_input,
                      recover_symbols, remove_mean_phase, snr)
from .optimize import (SweepResult, TrainingSet, build_training_set,
                       optimize_coefficients, sweep_launch_power,
                       sweep_splitting_ratio)
from .signals import (DualPolWaveform, WdmConfig, demux_channel, generate_wdm,
                      matched_filter, resample)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
