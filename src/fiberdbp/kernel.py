"""Nonlinear-interference kernel and perturbation coefficients.

The first-order (frequency-resolved logarithmic perturbation) model of a
dispersive nonlinear step expresses the nonlinear phase rotation as a
bilinear form of the signal spectrum with kernel

    K(mu, nu) = \\int gamma g(z) H(z, mu) H*(z, nu) H(-z, mu - nu) dz

over the step, where H(z, f) = exp(-j 2 pi^2 beta2 f^2 z) is the dispersion
transfer and g(z) the normalized power profile. Because the integrand only
depends on b = 2 pi^2 beta2 nu (mu - nu), the kernel of a step made of N_sp
identical spans has the closed form

    K = gamma e^{-a L/N_sp} sinh((a + jb) L/N_sp) sin(bL)
        / ((a + jb) sin(b L/N_sp)),       a = alpha/2,

with removable singularities at b -> 0 and sin(b L/N_sp) -> 0. Since a is
a scalar, sinh((a + jb) L/N_sp) = sinh(aL/N_sp) cos(bL/N_sp)
+ j cosh(aL/N_sp) sin(bL/N_sp) needs only real trigonometry per element.

This module provides the closed form, its exact piecewise counterpart for
steps that are not whole spans, the memory-length rule for the
filtered-phase coefficients, and the analytic coefficient integration: the
kernel on an oversampled uniform grid, reduced in tiles of a fixed element
count to its weighted diagonal sums, then one FFT of those sums folded
over the transform period gives the taps. The quadrature and Volterra
oracles that validate it live with the tests.
"""

from __future__ import annotations

import functools
import hashlib
import warnings
from dataclasses import dataclass, field

import numpy as np

from .channel import LN10_OVER_10

CONV_TOL = 1e-3  # tap change under grid doubling that warns
IMAG_TOL = 1e-9  # discarded imaginary residue over the peak that warns
# kernel elements per tile in _unscaled_transform (1 MB per complex
# temporary): tiles hold this many at every node count n, so only the
# length-(2n - 1) diagonal sums grow with n
_TILE_ELEMENTS = 65536


@dataclass(frozen=True)
class StepGeometry:
    """Geometry of one nonlinear step of a fiber link.

    Attributes
    ----------
    length_km : float
        Step length L.
    span_km : float
        Amplifier span length of the underlying link; the power profile
        resets at every span boundary.
    alpha_db_km, beta2_ps2_km, gamma_w_km : float
        Fiber attenuation, group-velocity dispersion, and nonlinear
        coefficient.
    rho : float
        Splitting ratio: the nonlinear phase rotation sits after a fraction
        (1 - rho) of the step's dispersion in backpropagation order, i.e. at
        rho * L from the forward start of the step.

    The step starts at a span boundary.
    """

    length_km: float
    span_km: float
    alpha_db_km: float = 0.2
    beta2_ps2_km: float = -21.683
    gamma_w_km: float = 1.27
    rho: float = 0.5

    def __post_init__(self):
        if self.length_km <= 0 or self.span_km <= 0:
            raise ValueError("lengths must be positive")
        if not 0.0 <= self.rho <= 1.0:
            raise ValueError("rho must be in [0, 1]")

    @property
    def alpha_np_km(self) -> float:
        """Power attenuation in 1/km."""
        return self.alpha_db_km * LN10_OVER_10

    @property
    def beta2_s2_km(self) -> float:
        return self.beta2_ps2_km * 1e-24

    @property
    def num_spans(self) -> int:
        """Number of identical spans in the step (whole-span steps only)."""
        n = self.length_km / self.span_km
        if abs(n - round(n)) > 1e-9:
            raise ValueError("step is not an integer number of spans")
        return int(round(n))

    @property
    def effective_length_km(self) -> float:
        """Integral of the power profile over the step, input-normalized."""
        a = self.alpha_np_km
        if a == 0:
            return self.length_km
        total = 0.0
        for z0, z1 in self._segments():
            total += (1.0 - np.exp(-a * (z1 - z0))) / a
        return total

    def _segments(self) -> list[tuple[float, float]]:
        """Span pieces of the step's piecewise-exponential power profile.

        Returns (z_start, z_end) pieces on the kernel axis, where z = 0 is
        the nonlinear-rotation position (rho * L from the step's forward
        start). Every piece starts at the step input or at an amplifier, so
        the power profile is exp(-alpha (z - z_start)) on each.
        """
        z_nl = self.rho * self.length_km
        pieces = []
        pos = 0.0
        while pos < self.length_km - 1e-12:
            z1 = min(pos + self.span_km, self.length_km)
            pieces.append((pos - z_nl, z1 - z_nl))
            pos = z1
        return pieces


def _sin_ratio(x: np.ndarray, n: int) -> np.ndarray:
    """sin(n x)/sin(x) with the removable singularities filled in."""
    x = np.asarray(x, dtype=float)
    k = np.round(x / np.pi)
    eps = x - k * np.pi
    sign = np.where((k.astype(np.int64) * (n - 1)) % 2 == 0, 1.0, -1.0)
    return sign * n * np.sinc(n * eps / np.pi) / np.sinc(eps / np.pi)


def _sinhc(x: float, y: np.ndarray) -> np.ndarray:
    """sinh(w)/w at w = x + jy for a real scalar x, stable at w -> 0.

    sinh(x + jy) = sinh(x) cos(y) + j cosh(x) sin(y), so cos(y) and sin(y)
    are the only transcendentals taken per element; dividing by w is
    multiplying by conj(w) / |w|^2.
    """
    y = np.asarray(y, dtype=float)
    sh, ch = np.sinh(x), np.cosh(x)
    cos, sin = np.cos(y), np.sin(y)
    den = x * x + y * y
    small = den < 1e-12  # |w| < 1e-6
    den = np.where(small, 1.0, den)
    out = np.empty(y.shape, dtype=complex)
    out.real = (x * sh * cos + ch * y * sin) / den
    out.imag = (x * ch * sin - sh * y * cos) / den
    out[small] = 1.0 + (x + 1j * y[small]) ** 2 / 6.0
    return out


def _beat(mu, nu, geom: StepGeometry) -> np.ndarray:
    """b = 2 pi^2 beta2 nu (mu - nu), in 1/km for Hz inputs."""
    return 2 * np.pi ** 2 * geom.beta2_s2_km * np.asarray(nu) * (np.asarray(mu) - np.asarray(nu))


def _closed_form(b: np.ndarray, geom: StepGeometry,
                 shift_km: float) -> np.ndarray:
    """Closed form at beat b with the window shifted by shift_km.

    The shift multiplies the symmetric-window kernel by
    exp(-2j b shift_km); a zero shift is the symmetric window itself.
    """
    lsp = geom.span_km
    a = geom.alpha_np_km / 2.0
    y = b * lsp
    k = _sinhc(a * lsp, y)
    k *= (geom.gamma_w_km * np.exp(-a * lsp) * lsp
          * _sin_ratio(y, geom.num_spans))
    if shift_km:
        k *= np.exp(-2j * shift_km * b)
    return k[()]  # a scalar for scalar inputs


def _kernel_segments(mu, nu, geom: StepGeometry) -> np.ndarray:
    """Exact kernel for any step length and splitting ratio.

    Each span piece of the power profile is a pure exponential, so the
    kernel integral has a closed antiderivative per piece; this evaluates
    the sum exactly for fractional spans and asymmetric (rho != 0.5)
    windows.
    """
    alpha = geom.alpha_np_km
    b = _beat(mu, nu, geom)
    shape = np.shape(b)
    b = np.atleast_1d(b).astype(float)
    total = np.zeros(b.shape, dtype=complex)
    for z0, z1 in geom._segments():
        w = (alpha + 2j * b) * (z1 - z0)
        small = np.abs(w) < 1e-9
        safe = np.where(small, 1.0, w)
        core = np.where(small, 1.0 - w / 2.0, (1.0 - np.exp(-safe)) / safe)
        total += np.exp(-2j * b * z0) * (z1 - z0) * core
    total *= geom.gamma_w_km
    return total.reshape(shape) if shape else total[0]


def step_kernel(mu, nu, geom: StepGeometry) -> np.ndarray:
    """Kernel of a step honoring its splitting ratio.

    A step of whole spans uses the closed form: moving the rotation point
    from the step center to rho * L only shifts the integration window,
    which multiplies the kernel by exp(-2j b (1/2 - rho) L). Fractional-span
    steps use the exact piecewise evaluation. mu and nu are frequencies in
    Hz (broadcast together); the kernel is in 1/W (gamma times the
    effective length at mu = nu).
    """
    n = geom.length_km / geom.span_km
    if abs(n - round(n)) <= 1e-9 and round(n) >= 1:
        return _closed_form(_beat(mu, nu, geom), geom,
                            (0.5 - geom.rho) * geom.length_km)
    return _kernel_segments(mu, nu, geom)


def coefficient_memory(h: int, geom: StepGeometry, sample_rate: float,
                       n_sb: int, safety: float = 1.0) -> int:
    """One-sided tap count N_c for the separation-h coefficient vector.

    The two-sided support 2 N_c + 1 tracks the walk-off spread
    pi L |beta2| (f_s / N_sb)^2 (h + 1) at sample rate f_s; the return
    value is at least 1.
    """
    width = (np.pi * geom.length_km * abs(geom.beta2_s2_km)
             * (sample_rate / n_sb) ** 2 * (h + 1) * safety)
    return max(1, int(np.ceil((width - 1.0) / 2.0)))


def _simpson_weights(num_nodes: int, span: float) -> np.ndarray:
    if num_nodes % 2 == 0:
        raise ValueError("Simpson rule needs an odd node count")
    w = np.ones(num_nodes)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (span / (num_nodes - 1)) / 3.0


def _coeff_grid_eval(geom: StepGeometry, separation_hz: float, memory: int,
                     subband_rate: float, reference_power_w: float,
                     num_nodes: int) -> np.ndarray:
    """Coefficient vector from one weighted uniform-grid kernel transform.

    The transform is taken of the Hermitian part of the kernel: the
    anti-Hermitian component of the first-order perturbation operator
    describes parametric power transfer rather than phase rotation, so the
    phase model drops it (equivalently, keeps the real part of the raw
    transform). The result is real up to quadrature round-off.

    The transform does not depend on the reference power, which only
    scales it; it is cached, so sets built at several launch powers over
    one geometry evaluate the kernel once.
    """
    c = _unscaled_transform(geom, separation_hz, memory, subband_rate,
                            num_nodes)
    return c * reference_power_w / subband_rate ** 2


# sized for the full-scale reproduction, which builds 4 rho x 2 step counts
# at each launch power, each set two separations on two grids: 32
# transforms of at most 673 taps each stay cached from one power to the next
@functools.lru_cache(maxsize=64)
def _unscaled_transform(geom: StepGeometry, separation_hz: float,
                        memory: int, subband_rate: float,
                        num_nodes: int) -> np.ndarray:
    """Taps m = -memory..memory of the kernel transform at unit power
    scale, read-only since the cache shares it.

    The kernel is evaluated in tiles of whole rows holding at most
    _TILE_ELEMENTS values (one row when a row is longer), so the working
    set grows with num_nodes only through the diagonal sums.
    """
    rp = subband_rate
    n = num_nodes
    mu = separation_hz + np.linspace(-rp / 2.0, rp / 2.0, n)
    wgt = _simpson_weights(n, rp)

    # raw diagonal sums R[d] = sum_{q-p=d} w_p w_q K[p,q], stored at d + n-1;
    # row p of the kernel adds to R[-p], ..., R[n-1-p]
    raw = np.zeros(2 * n - 1, dtype=complex)
    rows = max(1, _TILE_ELEMENTS // n)
    for p0 in range(0, n, rows):
        tile = step_kernel(mu[p0:p0 + rows, None], mu[None, :], geom)
        tile *= wgt[p0:p0 + rows, None]
        tile *= wgt[None, :]
        for p, row in enumerate(tile, start=p0):
            raw[n - 1 - p:2 * n - 1 - p] += row
    # Hermitian part: S[d] = (R[d] + conj R[-d]) / 2
    diag_sum = 0.5 * (raw + raw[::-1].conj())

    # c[m] = sum_d exp(-2 pi j m d / (n-1)) S[d]: the phase has period n-1
    # in d, so fold S modulo n-1 and take one FFT
    period = n - 1
    folded = diag_sum[:period] + diag_sum[period:2 * period]
    folded[0] += diag_sum[2 * period]
    m = np.arange(-memory, memory + 1)
    c = np.fft.fft(folded)[m % period]
    c.flags.writeable = False
    return c


def analytic_coefficients(geom: StepGeometry, separation_hz: float,
                          memory: int, subband_rate: float,
                          reference_power_w: float,
                          oversample: int = 8) -> np.ndarray:
    """Filtered-phase coefficients for one subband separation.

    Integrates (P / R'^2) K(mu, nu) exp(j 2 pi (mu - nu) m / R') over the
    square of side R' centered at the separation frequency, on a uniform
    grid oversampled ``oversample``-fold relative to the 2 * memory + 1 tap
    lattice, and decimates the resulting transform to the taps. Only the
    Hermitian (phase) part of the kernel contributes; see _coeff_grid_eval.

    Returns the real coefficient vector (length 2 * memory + 1, index m
    running from -memory to +memory). The imaginary quadrature residue is
    discarded; a residue above IMAG_TOL of the peak, like a grid-doubling
    change above CONV_TOL, emits a precision warning.
    """
    if memory < 1:
        raise ValueError("memory must be >= 1")
    # few-tap sets still need enough nodes to resolve the kernel itself
    base = max(oversample * (2 * memory + 1), 64)
    base += base % 2  # odd node count
    num_nodes = base + 1

    coarse = _coeff_grid_eval(geom, separation_hz, memory, subband_rate,
                              reference_power_w, num_nodes)
    c = _coeff_grid_eval(geom, separation_hz, memory, subband_rate,
                         reference_power_w, 2 * (num_nodes - 1) + 1)
    change = np.max(np.abs(c - coarse)) / max(np.max(np.abs(c)), 1e-300)
    if change > CONV_TOL:
        warnings.warn(
            f"coefficient grid not converged (doubling changes {change:.1e});"
            " increase oversample", RuntimeWarning)

    peak = np.max(np.abs(c))
    residue = np.max(np.abs(c.imag)) / peak if peak > 0 else 0.0
    if residue > IMAG_TOL:
        warnings.warn(
            f"imaginary residue {residue:.1e} of peak discarded from "
            "coefficients", RuntimeWarning)
    return np.ascontiguousarray(c.real)


@dataclass
class CoefficientSet:
    """Nonlinear-phase filter taps for a coupled-band backpropagation step.

    coeffs maps subband separation h (in units of the subband spacing, which
    equals subband_rate; 0 <= h < n_sb) to a real tap vector c_h[m],
    m = -N_c(h)..N_c(h). The engine applies exp(-j theta) with theta built
    from these taps on intensities normalized by reference_power_w (finite,
    > 0), scaled per step by step_scales (1-D, finite).
    phase_norm_rad is the average per-step nonlinear phase used as the
    normalization when sets are stored or compared.
    """

    n_sb: int
    subband_rate: float
    reference_power_w: float
    phase_norm_rad: float
    step_scales: np.ndarray
    geometry_hash: str
    coeffs: dict[int, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        self.step_scales = np.asarray(self.step_scales, dtype=float)
        self.coeffs = {int(h): np.asarray(c, dtype=float)
                       for h, c in self.coeffs.items()}
        self.validate()

    def validate(self):
        if self.n_sb < 1:
            raise ValueError("n_sb must be >= 1")
        if not (np.isfinite(self.reference_power_w)
                and self.reference_power_w > 0):
            raise ValueError("reference_power_w must be finite and > 0")
        if self.step_scales.ndim != 1 or not np.all(
                np.isfinite(self.step_scales)):
            raise ValueError("step_scales must be 1-D and finite")
        for h, c in self.coeffs.items():
            if not (0 <= h < self.n_sb):
                raise ValueError(f"separation {h} outside 0..n_sb-1")
            if c.ndim != 1 or c.size % 2 == 0:
                raise ValueError("tap vectors must be 1-D with odd length")
            if not np.all(np.isfinite(c)):
                raise ValueError("tap vectors must be finite")
        if 0 in self.coeffs:
            c0 = self.coeffs[0]
            peak = np.max(np.abs(c0))
            if peak > 0 and np.max(np.abs(c0 - c0[::-1])) > 1e-9 * peak:
                raise ValueError("separation-0 taps must be even-symmetric")

    @property
    def num_steps(self) -> int:
        return self.step_scales.size


def geometry_fingerprint(geom: StepGeometry, n_sb: int, subband_rate: float,
                         num_steps: int) -> str:
    """Short stable hash identifying the geometry a coefficient set fits.

    The text keeps a 0.0 (a step offset) and a second subband_rate (the
    subband spacing) in their fixed positions, so stored hashes hold.
    """
    text = "|".join(
        f"{v:.12e}" for v in (
            geom.length_km, geom.span_km, geom.alpha_db_km,
            geom.beta2_ps2_km, geom.gamma_w_km, geom.rho,
            0.0, n_sb, subband_rate, subband_rate, num_steps))
    return hashlib.sha256(text.encode()).hexdigest()[:16]
