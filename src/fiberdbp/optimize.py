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
from numpy.linalg import norm

from . import cpus
from .channel import LinkConfig, SimSettings, propagate_link
from .dbp import DbpConfig, _run_blocks, make_dbp_coefficient_set
from .kernel import CoefficientSet
from .metrics import (evaluate, prepare_dbp_input, remove_mean_phase,
                      symbols_from_dbp_output)
from .signals import DualPolWaveform, SymbolRecord, WdmConfig, generate_wdm

MAX_ITER_PER_BAND = 50
DIFF_STEP = 1e-6
_TOL = 1e-8  # the fit's ftol, xtol and gtol
_EPS = np.finfo(float).eps
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
    threads = cpus.usable_cpus()
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
class BandFit:
    """How the trust-region fit of one band's taps went.

    nfev counts residual evaluations (the start point and every trial
    step), njev the finite-difference Jacobians (one tap set per free tap
    each); termination is the test that ended the fit: "gtol", "ftol",
    "xtol", "ftol and xtol", or "max_nfev" when the evaluations ran out.
    """

    iterations: int
    nfev: int
    njev: int
    termination: str


@dataclass(frozen=True)
class OptimizationResult:
    """Tuned coefficient set plus the evidence for (non-)improvement."""

    coeffs: CoefficientSet
    improved: bool
    init_val_mse: float
    final_val_mse: float
    train_mse_path: tuple[float, ...]
    fits: dict[int, BandFit]


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
        return list(self.iter_residuals(sets))

    def iter_residuals(self, sets: list):
        """batch_residuals, yielded set by set as each engine pass returns."""
        chunk = max(1, _BATCH_BYTES // self.set_bytes)
        for i in range(0, len(sets), chunk):
            yield from map(self._symbol_residuals,
                           self._symbols(self.w_train, sets[i:i + chunk]))

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


# The trust-region fit below ports scipy.optimize.least_squares(method="trf",
# tr_solver="exact", x_scale=1) without bounds (scipy's trf_no_bounds and
# solve_lsq_trust_region, BSD-3-Clause, Copyright (c) 2001-2002 Enthought,
# Inc., 2003 SciPy Developers), so its iterates are trf's up to rounding.
# It departs from trf in forming no Jacobian at the point where the fit
# stops, and in writing each Jacobian into one preallocated array.


def _jacobian_into(J: np.ndarray, residuals_of, x: np.ndarray,
                   f: np.ndarray) -> None:
    """The 2-point finite-difference Jacobian of f at x, written into J.

    Column i is stepped by DIFF_STEP |x_i|, or by sqrt(eps) max(1, |x_i|)
    where that step leaves x_i unchanged (x_i = 0 among others); each
    column is written as its residuals arrive.
    """
    sign = np.where(x >= 0, 1.0, -1.0)
    h = DIFF_STEP * sign * np.abs(x)
    h = np.where((x + h) - x == 0,
                 _EPS ** 0.5 * sign * np.maximum(1.0, np.abs(x)), h)
    points = np.tile(x, (x.size, 1))
    points[np.diag_indices(x.size)] += h
    for i, fi in enumerate(residuals_of(points)):
        J[:, i] = (fi - f) / (points[i, i] - x[i])


def _trust_region_step(uf: np.ndarray, s: np.ndarray, V: np.ndarray,
                       delta: float, alpha: float, m: int):
    """Minimize |J p + f| over |p| <= delta, from the thin SVD
    J = U diag(s) V^T of the (m, n) Jacobian and uf = U^T f.

    The Gauss-Newton step when J has full rank and that step lies inside
    the region; otherwise Moré's iteration on the Levenberg-Marquardt
    parameter alpha (started from the previous one, at most 10 rounds,
    |p| within 1 % of delta), with p then scaled onto the boundary.
    Returns (p, alpha).
    """
    suf = s * uf

    def phi_and_derivative(a):
        denom = s ** 2 + a
        p_norm = norm(suf / denom)
        return p_norm - delta, -np.sum(suf ** 2 / denom ** 3) / p_norm

    full_rank = m >= len(V) and s[-1] > _EPS * m * s[0]
    if full_rank:
        p = -V.dot(uf / s)
        if norm(p) <= delta:
            return p, 0.0
    alpha_upper = norm(suf) / delta
    alpha_lower = 0.0
    if full_rank:
        phi, phi_prime = phi_and_derivative(0.0)
        alpha_lower = -phi / phi_prime
    elif alpha == 0:
        alpha = max(0.001 * alpha_upper, (alpha_lower * alpha_upper) ** 0.5)
    for _ in range(10):
        if alpha < alpha_lower or alpha > alpha_upper:
            alpha = max(0.001 * alpha_upper,
                        (alpha_lower * alpha_upper) ** 0.5)
        phi, phi_prime = phi_and_derivative(alpha)
        if phi < 0:
            alpha_upper = alpha
        ratio = phi / phi_prime
        alpha_lower = max(alpha_lower, alpha - ratio)
        alpha -= (phi + delta) * ratio / delta
        if np.abs(phi) < 0.01 * delta:
            break
    p = -V.dot(suf / (s ** 2 + alpha))
    p *= delta / norm(p)
    return p, alpha


def _fit_least_squares(residuals_of, x0: np.ndarray, max_nfev: int):
    """Minimize |f(x)|² / 2 from x0 by trust-region least squares.

    residuals_of(points) yields f at each row of points, in order. Each
    iteration takes the SVD of the finite-difference Jacobian J (one
    preallocated (m, len(x0)) array), then tries steps until one lowers
    the cost: a non-finite trial shrinks the region to a quarter of the
    step, and the radius is otherwise updated from the ratio of actual
    to predicted reduction. The fit stops on the ftol, xtol or gtol test
    (each _TOL) or after max_nfev residual evaluations; no Jacobian is
    formed at the point where it stops. Returns (x, f(x), BandFit).
    """
    def fun(x):
        (f,) = residuals_of(x[None])
        return f

    x = np.array(x0, float)
    f = fun(x)
    if not np.all(np.isfinite(f)):
        raise ValueError("residuals are not finite at the initial taps")
    m = f.size
    J = np.empty((m, x.size), order="F")
    _jacobian_into(J, residuals_of, x, f)
    nfev = njev = 1
    iterations = 0
    cost = 0.5 * np.dot(f, f)
    g = J.T.dot(f)
    delta = norm(x) or 1.0
    alpha = 0.0
    status = None
    while True:
        if norm(g, ord=np.inf) < _TOL:
            status = "gtol"
        if status is not None or nfev == max_nfev:
            break
        U, s, Vt = np.linalg.svd(J, full_matrices=False)
        uf = U.T.dot(f)
        reduction = -1
        while reduction <= 0 and nfev < max_nfev:
            step, alpha = _trust_region_step(uf, s, Vt.T, delta, alpha, m)
            Js = J.dot(step)
            predicted = -(0.5 * np.dot(Js, Js) + np.dot(step, g))
            x_new = x + step
            f_new = fun(x_new)
            nfev += 1
            step_norm = norm(step)
            if not np.all(np.isfinite(f_new)):
                delta = 0.25 * step_norm
                continue
            cost_new = 0.5 * np.dot(f_new, f_new)
            reduction = cost - cost_new
            if predicted > 0:
                ratio = reduction / predicted
            else:
                ratio = 1 if predicted == reduction == 0 else 0
            delta_new = delta
            if ratio < 0.25:
                delta_new = 0.25 * step_norm
            elif ratio > 0.75 and step_norm > 0.95 * delta:
                delta_new = 2.0 * delta
            ftol = reduction < _TOL * cost and ratio > 0.25
            xtol = step_norm < _TOL * (_TOL + norm(x))
            if ftol or xtol:
                status = ("ftol and xtol" if ftol and xtol
                          else "ftol" if ftol else "xtol")
                break
            alpha *= delta / delta_new
            delta = delta_new
        iterations += 1
        if reduction > 0:
            x, f, cost = x_new, f_new, cost_new
            if status is None and nfev < max_nfev:
                _jacobian_into(J, residuals_of, x, f)
                njev += 1
                g = J.T.dot(f)
    return x, f, BandFit(iterations, nfev, njev, status or "max_nfev")


def optimize_coefficients(train: TrainingSet, cfg: DbpConfig,
                          init: CoefficientSet) -> OptimizationResult:
    """Fit coefficient vectors band by band on the training split.

    Each band's taps are refined by trust-region least squares
    (_fit_least_squares) with 2-point finite-difference Jacobians
    (relative step DIFF_STEP), at most MAX_ITER_PER_BAND * (P + 1)
    residual evaluations for P free taps. The perturbed tap sets of a
    Jacobian are scored together, in one batched engine pass per chunk of
    sets (chunks sized to a fixed memory budget), and score bit for bit
    as one backpropagation run per set would, so the fit is the serial
    one. Cross-band vectors beyond the one being fitted stay zero until
    their turn, mirroring the iterative scheme the analytic shapes are
    the starting point for. If the final set fails to beat the
    initialization on the validation split, the initialization is returned
    unchanged with improved=False.
    """
    obj = _Objective(train, cfg)
    init.validate()
    work = {h: np.zeros_like(c) for h, c in init.coeffs.items()}
    current = replace(init, coeffs=work)
    path = []
    fits = {}
    for h in sorted(init.coeffs):
        x0 = _pack(init.coeffs[h], h)

        def trial(params, h=h):
            return replace(current, coeffs={**current.coeffs,
                                            h: _unpack(params, h)})

        x, f, fits[h] = _fit_least_squares(
            lambda xs, trial=trial: obj.iter_residuals(list(map(trial, xs))),
            x0, MAX_ITER_PER_BAND * (x0.size + 1))
        current = trial(x)
        path.append(float(np.sum(f ** 2)))

    init_val = obj.val_mse(init)
    final_val = obj.val_mse(current)
    if final_val > init_val:
        return OptimizationResult(init, False, init_val, init_val,
                                  tuple(path), fits)
    current.validate()
    return OptimizationResult(current, True, init_val, final_val,
                              tuple(path), fits)


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
    points run one thread per usable CPU (cpus.usable_cpus); every
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
