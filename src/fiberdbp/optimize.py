"""Data-driven tuning of backpropagation coefficients and system knobs.

The coefficient optimizer minimizes the mean square error between recovered
and transmitted symbols, exactly the quantity the receiver's SNR measures.
To keep the search well-posed it works band by band: the same-band taps are
fitted first (all cross-band taps zero), then each cross-band vector in
turn with the earlier ones frozen. Symmetries are built into the
parameterization: only one half of the same-band vector is free (the other
half is its mirror image), and only the +h orientation of each cross-band
vector is represented.

Sweeps (splitting ratio, launch power) evaluate the full simulate/receive
chain on a grid and report the argmax along with the whole curve.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
import scipy.optimize

from .channel import LinkConfig, SimSettings, propagate_link
from .dbp import DbpConfig, _run_blocks, make_dbp_coefficient_set
from .kernel import CoefficientSet
from .metrics import (_symbols_from_field, evaluate, prepare_dbp_input,
                      remove_mean_phase)
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
    channel_index: int | None = None

    def __post_init__(self):
        if self.train_record.seed == self.val_record.seed:
            raise ValueError("training and validation must use different seeds")


def build_training_set(link: LinkConfig, wdm: WdmConfig, num_symbols: int,
                       sim: SimSettings | None = None, train_seed: int = 1,
                       val_seed: int = 2,
                       sim_rate_hz: float | None = None) -> TrainingSet:
    """Simulate two independently seeded transmissions over the same link."""
    sim = sim or SimSettings(max_phase_rad=2e-3, noise_enabled=True)
    sets = []
    for seed in (train_seed, val_seed):
        tx, record = generate_wdm(wdm, num_symbols, sim_rate=sim_rate_hz,
                                  seed=seed)
        rx = propagate_link(tx, link, replace(sim, noise_seed=seed))
        sets.append((rx, record))
    return TrainingSet(wdm, sets[0][0], sets[0][1], sets[1][0], sets[1][1])


@dataclass(frozen=True)
class OptimizationResult:
    """Tuned coefficient set plus the evidence for (non-)improvement."""

    coeffs: CoefficientSet
    improved: bool
    init_val_mse: float
    final_val_mse: float
    train_mse_path: tuple[float, ...]


def _symbol_mse(rx: np.ndarray, tx: np.ndarray) -> float:
    rx, _ = remove_mean_phase(rx, tx)
    return float(np.mean(np.abs(rx - tx) ** 2))


class _Objective:
    """Residual evaluator: every tap set is scored in a batched engine pass,
    one pass per chunk of sets (a single set is a batch of one)."""

    def __init__(self, train: TrainingSet, cfg: DbpConfig):
        self.cfg = cfg
        idx = train.channel_index
        if idx is None:
            idx = (train.wdm.num_channels - 1) // 2
        self.wdm = train.wdm
        self.w_train = prepare_dbp_input(train.train_rx, train.wdm, cfg, idx)
        self.w_val = prepare_dbp_input(train.val_rx, train.wdm, cfg, idx)
        self.tx_train = train.train_record.channel(idx)
        self.tx_val = train.val_record.channel(idx)
        # working memory per set of a batched pass: about eight complex
        # (2, n + N) arrays
        self.set_bytes = 8 * 32 * (self.w_train.num_samples + cfg.block_size)

    def _symbols(self, w: DualPolWaveform, sets: list) -> np.ndarray:
        fields = _run_blocks(w, self.cfg, sets)
        return _symbols_from_field(fields, w.sample_rate, self.wdm)

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
        rx, _ = remove_mean_phase(rx, self.tx_train)
        r = (rx - self.tx_train).ravel() / np.sqrt(2 * rx.shape[-1])
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


@dataclass(frozen=True)
class SweepResult:
    """Grid, measured SNR curve, and the best grid point."""

    parameter: str
    values: np.ndarray
    snr_db: np.ndarray
    best_value: float
    best_snr_db: float

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
    curve = np.empty(rhos.size)
    p_ref = wdm.launch_power_w
    for i, rho in enumerate(rhos):
        cfg_rho = replace(cfg, splitting_ratio=float(rho))
        rate = cfg_rho.oversampling * wdm.baud_rate
        coeffs = None
        if cfg_rho.uses_coefficients:
            coeffs = make_dbp_coefficient_set(cfg_rho, rate, p_ref)
            if train is not None:
                coeffs = optimize_coefficients(train, cfg_rho, coeffs).coeffs
        curve[i] = evaluate(eval_rx, eval_record, wdm, cfg_rho,
                            coeffs).snr_db
    best = int(np.argmax(curve))
    return SweepResult("rho", rhos, curve, float(rhos[best]), float(curve[best]))


def sweep_launch_power(powers_dbm, link: LinkConfig, wdm: WdmConfig,
                       cfg: DbpConfig, num_symbols: int = 4096,
                       sim: SimSettings | None = None, eval_seed: int = 9,
                       coeff_fn=None, sim_rate_hz: float | None = None,
                       threads: int = 1) -> SweepResult:
    """SNR versus per-channel launch power over a fresh simulation per point.

    coeff_fn(cfg, rate_hz, power_w) supplies the coefficient set at each
    power (default: analytic sets when DbpConfig.uses_coefficients, else
    nothing). With threads > 1 the grid
    points run in a thread pool; every point is seeded on its own, so the
    curve does not depend on the thread count.
    """
    powers_dbm = np.asarray(powers_dbm, float)
    sim = sim or SimSettings(max_phase_rad=2e-3, noise_enabled=True)

    def point(p_dbm):
        wdm_p = wdm.with_power(float(p_dbm))
        tx, record = generate_wdm(wdm_p, num_symbols, sim_rate=sim_rate_hz,
                                  seed=eval_seed)
        rx = propagate_link(tx, link, sim)
        rate = cfg.oversampling * wdm_p.baud_rate
        if coeff_fn is not None:
            coeffs = coeff_fn(cfg, rate, wdm_p.launch_power_w)
        elif cfg.uses_coefficients:
            coeffs = make_dbp_coefficient_set(cfg, rate, wdm_p.launch_power_w)
        else:
            coeffs = None
        return evaluate(rx, record, wdm_p, cfg, coeffs).snr_db

    if threads > 1:
        with ThreadPoolExecutor(threads) as pool:
            curve = np.array(list(pool.map(point, powers_dbm)))
    else:
        curve = np.array([point(p) for p in powers_dbm])
    best = int(np.argmax(curve))
    return SweepResult("power_dbm", powers_dbm, curve,
                       float(powers_dbm[best]), float(curve[best]))
