"""Data-driven tuning of backpropagation coefficients and system knobs.

The coefficient optimizer minimizes the mean square error between recovered
and transmitted symbols, exactly the quantity the receiver's SNR measures.
To keep the search well-posed it works band by band: the same-band taps are
fitted first (all cross-band taps zero), then each cross-band vector in
turn with the earlier ones frozen. Symmetries are built into the
parameterization: only one half of the same-band vector is free (the other
half is its mirror image), and only the +h orientation of each cross-band
vector is represented.

Every receiver grid (both sweeps, every CLI figure) is scored by
score_receivers, each config with its receiver_coefficients (tuned when
handed ``train=``); a SweepResult derives its best point from the curve.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import channel
from .channel import LinkConfig, SimSettings, propagate_link
from .dbp import DbpConfig, _run_blocks, make_dbp_coefficient_set
from .kernel import CoefficientSet
from .metrics import (evaluate, prepare_dbp_input, remove_mean_phase,
                      symbols_from_dbp_output)
from .signals import DualPolWaveform, SymbolRecord, WdmConfig, generate_wdm

MAX_ITER_PER_BAND = 50
DIFF_STEP = 1e-6
_BATCH_BYTES = 64 << 20  # working memory of one batched engine pass


@dataclass(frozen=True)
class TrainingSet:
    """Received waveforms plus ground truth for fitting and validation.

    The two splits must come from independently seeded symbol sequences;
    fitting and the never-degrade guard both evaluate symbol MSE, each on
    its own split.
    """

    wdm: WdmConfig
    train_rx: DualPolWaveform
    train_record: SymbolRecord
    val_rx: DualPolWaveform
    val_record: SymbolRecord

    def __post_init__(self):
        if self.train_record.seed == self.val_record.seed:
            raise ValueError("training and validation must use different seeds")


def _concurrent_map(fn, items) -> list:
    """[fn(x) for x in items], in a pool of one thread per usable CPU.

    items is a sequence. Runs inline on one usable CPU or at most one item;
    results come back in input order either way.
    """
    threads = channel.usable_cpus()
    if threads <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(min(threads, len(items))) as pool:
        return list(pool.map(fn, items))


def build_training_set(link: LinkConfig, wdm: WdmConfig, num_symbols: int,
                       sim: SimSettings, train_seed: int = 1,
                       val_seed: int = 2,
                       sim_rate_hz: float | None = None) -> TrainingSet:
    """Simulate two independently seeded transmissions over the same link.

    The two run concurrently, one thread per usable CPU (at most two).
    Each seed draws its own symbols and ASE, so the output does not depend
    on the thread count. Equal seeds are refused before anything runs.
    """
    if train_seed == val_seed:
        raise ValueError("training and validation must use different seeds")

    def transmission(seed):
        tx, record = generate_wdm(wdm, num_symbols, sim_rate=sim_rate_hz,
                                  seed=seed)
        return propagate_link(tx, link, replace(sim, noise_seed=seed)), record

    (train_rx, train_rec), (val_rx, val_rec) = _concurrent_map(
        transmission, (train_seed, val_seed))
    return TrainingSet(wdm, train_rx, train_rec, val_rx, val_rec)


@dataclass(frozen=True)
class OptimizationResult:
    """Tuned coefficient set plus the evidence for (non-)improvement."""

    coeffs: CoefficientSet
    improved: bool
    init_val_mse: float
    final_val_mse: float
    train_mse_path: tuple[float, ...]


def _symbol_error(rx: np.ndarray, tx: np.ndarray) -> np.ndarray:
    """rx - tx once the joint mean phase is removed, as snr scores it."""
    return remove_mean_phase(rx, tx)[0] - tx


def _symbol_mse(rx: np.ndarray, tx: np.ndarray) -> float:
    return float(np.mean(np.abs(_symbol_error(rx, tx)) ** 2))


class _Objective:
    """Residual evaluator: every tap set is backpropagated in a batched
    engine pass, one pass per chunk of sets (a single set is a batch of
    one); each set's output then goes through the receiver's own
    symbols_from_dbp_output."""

    def __init__(self, train: TrainingSet, cfg: DbpConfig):
        self.cfg = cfg
        idx = train.wdm.center_channel
        self.wdm = train.wdm
        self.w_train = prepare_dbp_input(train.train_rx, train.wdm, cfg)
        self.w_val = prepare_dbp_input(train.val_rx, train.wdm, cfg)
        self.tx_train = train.train_record.channel(idx)
        self.tx_val = train.val_record.channel(idx)
        # working memory per set of a batched pass: about eight complex
        # (2, n + N) arrays
        self.set_bytes = 8 * 32 * (self.w_train.num_samples + cfg.block_size)

    def _symbols(self, w: DualPolWaveform, sets: list) -> list:
        return [symbols_from_dbp_output(DualPolWaveform(f, w.sample_rate),
                                        self.wdm)
                for f in _run_blocks(w, self.cfg, sets)]

    def val_mse(self, coeffs: CoefficientSet) -> float:
        """Symbol MSE of one set on the validation split."""
        return _symbol_mse(self._symbols(self.w_val, [coeffs])[0], self.tx_val)

    def residuals(self, coeffs: CoefficientSet) -> np.ndarray:
        return self.batch_residuals([coeffs])[0]

    def batch_residuals(self, sets: list) -> list:
        """Symbol residuals of every set on the training split."""
        chunk = max(1, _BATCH_BYTES // self.set_bytes)
        out = []
        for i in range(0, len(sets), chunk):
            out += map(self._symbol_residuals,
                       self._symbols(self.w_train, sets[i:i + chunk]))
        return out

    def _symbol_residuals(self, rx: np.ndarray) -> np.ndarray:
        r = _symbol_error(rx, self.tx_train).ravel() / np.sqrt(2 * rx.shape[-1])
        return np.concatenate([r.real, r.imag])


def _pack(c: np.ndarray, h: int) -> np.ndarray:
    # same-band vectors are even-symmetric: only center + one wing is free
    return c[(c.size - 1) // 2:] if h == 0 else c.copy()


def _unpack(params: np.ndarray, h: int) -> np.ndarray:
    if h:
        return params.copy()
    return np.concatenate([params[:0:-1], params])


def optimize_coefficients(train: TrainingSet, cfg: DbpConfig,
                          init: CoefficientSet) -> OptimizationResult:
    """Fit coefficient vectors band by band on the training split.

    Each band's taps are refined by trust-region least squares with
    finite-difference gradients (relative step 1e-6, at most 50 iterations
    per band). scipy forms each Jacobian by its 2-point rule; the perturbed
    tap sets it asks for are scored together, in one batched engine pass
    per chunk of sets (chunks sized to a fixed memory budget), and score
    bit for bit as one backpropagation run per set would, so the fit is
    the serial one. Cross-band vectors beyond the one being fitted stay
    zero until their turn, mirroring the iterative scheme the analytic
    shapes are the starting point for. If the final set fails to beat the
    initialization on the validation split, the initialization is returned
    unchanged with improved=False.
    """
    # imported here, its one caller, so `import fiberdbp` loads no scipy
    import scipy.optimize

    obj = _Objective(train, cfg)
    init.validate()
    work = {h: np.zeros_like(c) for h, c in init.coeffs.items()}
    current = replace(init, coeffs=work)
    path = []
    for h in sorted(init.coeffs):
        x0 = _pack(init.coeffs[h], h)

        def trial(params, h=h):
            return replace(current, coeffs={**current.coeffs,
                                            h: _unpack(params, h)})

        def batch_map(fun, xs, trial=trial):
            # fun is scipy's wrapper of the residuals below; the batch
            # computes the same values for every point
            return obj.batch_residuals([trial(x) for x in xs])

        sol = scipy.optimize.least_squares(
            lambda params, trial=trial: obj.residuals(trial(params)), x0,
            method="trf", diff_step=DIFF_STEP,
            max_nfev=MAX_ITER_PER_BAND * (x0.size + 1), workers=batch_map)
        current = trial(sol.x)
        path.append(float(np.sum(sol.fun ** 2)))

    init_val = obj.val_mse(init)
    final_val = obj.val_mse(current)
    if final_val > init_val:
        return OptimizationResult(init, False, init_val, init_val, tuple(path))
    current.validate()
    return OptimizationResult(current, True, init_val, final_val, tuple(path))


def receiver_coefficients(cfg: DbpConfig, wdm: WdmConfig,
                          train: TrainingSet | None = None
                          ) -> CoefficientSet | None:
    """The tap set a receiver runs with at wdm's launch power.

    None when the engine reads no taps (EDC, or no steps); otherwise the
    analytic set at the receiver's sample rate, refined by
    optimize_coefficients when a training set is given.
    """
    if not cfg.uses_coefficients:
        return None
    coeffs = make_dbp_coefficient_set(cfg, cfg.oversampling * wdm.baud_rate,
                                      wdm.launch_power_w)
    if train is not None:
        coeffs = optimize_coefficients(train, cfg, coeffs).coeffs
    return coeffs


def score_receivers(dcfgs, eval_rx: DualPolWaveform,
                    eval_record: SymbolRecord, wdm: WdmConfig,
                    train: TrainingSet | None = None) -> np.ndarray:
    """SNR (dB) on one transmission of each config, in order, each with
    its receiver_coefficients(d, wdm, train)."""
    return np.array([evaluate(eval_rx, eval_record, wdm, d,
                              receiver_coefficients(d, wdm, train)).snr_db
                     for d in dcfgs], float)


@dataclass(frozen=True)
class SweepResult:
    """Grid, measured SNR curve, and its best point (the first maximum)."""

    parameter: str
    values: np.ndarray
    snr_db: np.ndarray

    @property
    def best_value(self) -> float:
        return float(self.values[np.argmax(self.snr_db)])

    @property
    def best_snr_db(self) -> float:
        return float(self.snr_db[np.argmax(self.snr_db)])

    def csv_rows(self) -> list[dict]:
        return [{self.parameter: float(v), "SNR_dB": float(s)}
                for v, s in zip(self.values, self.snr_db)]


def sweep_splitting_ratio(rhos, eval_rx: DualPolWaveform,
                          eval_record: SymbolRecord, wdm: WdmConfig,
                          cfg: DbpConfig,
                          train: TrainingSet | None = None) -> SweepResult:
    """SNR versus the dispersion fraction placed after the rotation.

    Coefficients are rebuilt analytically at every grid point (and refined
    on the training set when one is given); the received waveform and
    launch power stay fixed.
    """
    rhos = np.asarray(rhos, float)
    dcfgs = [replace(cfg, splitting_ratio=float(rho)) for rho in rhos]
    return SweepResult("rho", rhos, score_receivers(dcfgs, eval_rx,
                                                    eval_record, wdm, train))


def sweep_launch_power(powers_dbm, link: LinkConfig, wdm: WdmConfig,
                       cfg: DbpConfig, num_symbols: int, sim: SimSettings,
                       eval_seed: int = 9, train: TrainingSet | None = None,
                       sim_rate_hz: float | None = None) -> SweepResult:
    """SNR versus per-channel launch power over a fresh simulation per point.

    Each point receives with receiver_coefficients at its own power: the
    analytic set, refined on the training set when one is given. The grid
    points run one thread per usable CPU (channel.usable_cpus); every
    point is seeded on its own, so the curve does not depend on the CPU
    count. The training set arrives built, so no pool runs inside another.
    """
    powers_dbm = np.asarray(powers_dbm, float)

    def point(p_dbm):
        wdm_p = wdm.with_power(float(p_dbm))
        tx, record = generate_wdm(wdm_p, num_symbols, sim_rate=sim_rate_hz,
                                  seed=eval_seed)
        rx = propagate_link(tx, link, sim)
        return score_receivers([cfg], rx, record, wdm_p, train)[0]

    curve = np.array(_concurrent_map(point, powers_dbm))
    return SweepResult("power_dbm", powers_dbm, curve)
