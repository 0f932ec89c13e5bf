"""Parameter recovery from (noisy) time series.

Pair couplings come from weighted least squares of a damped sin^2 model with
the oscillation frequency seeded by the FFT peak (sin^2 fits are multimodal
in J, so three starts around the peak bin are tried). Decay constants come
from one-parameter exponential fits, and intensity-scaling exponents from
log-log linear regression.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.optimize


# the fewest finite time points a pair-coupling fit takes
MIN_PAIR_POINTS = 8


class FitError(RuntimeError):
    """Degenerate data or no converged fit."""


@dataclass(frozen=True)
class FitResult:
    parameters: dict
    std_errors: dict
    residual_norm: float


def pair_coupling_model(t, coupling, tau_d, p_inf):
    """p(t) = p_inf + (sin^2(J t) - p_inf) exp(-t / tau_d)."""
    return p_inf + (np.sin(coupling * t) ** 2 - p_inf) * np.exp(-t / tau_d)


def binomial_sigma(values, shots):
    """Per-point standard deviation with the variance floored at 1/shots."""
    p = np.clip(values, 0.0, 1.0)
    shots = np.broadcast_to(np.asarray(shots, dtype=float), p.shape)
    variance = np.maximum(p * (1 - p), 1.0 / shots) / shots
    return np.sqrt(variance)


def _clean_series(times, values):
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.shape != values.shape:
        raise ValueError("times and values must have matching shapes")
    keep = np.isfinite(values)
    return times[keep], values[keep], keep


def fit_pair_coupling(times, values, shots) -> FitResult:
    """Recover (J, tau_d, p_inf) from a P(up,up)-style oscillation.

    Needs MIN_PAIR_POINTS strictly increasing points spanning roughly half an
    oscillation. shots (a scalar or per-point array) sets the
    inverse-binomial-variance weights. Raises FitError for constant series or
    if no start converges.
    """
    times, values, keep = _clean_series(times, values)
    shots = np.broadcast_to(np.asarray(shots, dtype=float), keep.shape)[keep]
    if times.size < MIN_PAIR_POINTS:
        raise ValueError(f"need at least {MIN_PAIR_POINTS} finite time points")
    # the FFT seed takes its frequency grid from the median time step
    if not np.all(np.diff(times) > 0):
        raise ValueError("time points must be strictly increasing")
    if np.ptp(values) < 1e-12:
        raise FitError("series is constant; coupling is unidentifiable")

    dt = float(np.median(np.diff(times)))
    spectrum = np.abs(np.fft.rfft(values - values.mean()))
    freqs = np.fft.rfftfreq(times.size, dt)
    peak = 1 + int(np.argmax(spectrum[1:]))
    bin_width = freqs[1]
    # sin^2(Jt) oscillates at ordinary frequency J / pi
    couplings = [math.pi * max(freqs[peak] + k * bin_width, 0.25 * bin_width)
                 for k in (-1, 0, 1)]

    span = times.max() - times.min()
    sigma = binomial_sigma(values, shots)
    p_inf0 = float(np.clip(values.mean(), 0.05, 0.95))
    bounds = ([0.0, 1e-3 * span, 0.0], [np.inf, np.inf, 1.0])

    best = None
    for j0 in couplings:
        try:
            popt, pcov = scipy.optimize.curve_fit(
                pair_coupling_model, times, values,
                p0=[j0, 2.0 * span, p_inf0], sigma=sigma,
                absolute_sigma=True, bounds=bounds, maxfev=20000)
        except (RuntimeError, scipy.optimize.OptimizeWarning):
            continue
        resid = (pair_coupling_model(times, *popt) - values) / sigma
        cost = float(np.linalg.norm(resid))
        if best is None or cost < best[0]:
            best = (cost, popt, pcov)

    if best is None:
        raise FitError("no multi-start converged")
    cost, popt, pcov = best
    errors = np.sqrt(np.clip(np.diag(pcov), 0.0, None))
    return FitResult(
        parameters={"coupling": popt[0], "tau_d": popt[1], "p_inf": popt[2]},
        std_errors={"coupling": errors[0], "tau_d": errors[1], "p_inf": errors[2]},
        residual_norm=cost,
    )


def fit_exponential(times, values, model: str) -> FitResult:
    """One-parameter fit of exp(-t/tau) ('decay') or 1 - exp(-t/tau)
    ('inverse'); returns tau in the units of times."""
    if model not in ("decay", "inverse"):
        raise ValueError("model must be 'decay' or 'inverse'")
    times, values, _ = _clean_series(times, values)
    if times.size == 0:
        raise ValueError("series is empty")
    if times.size < 2:
        raise ValueError("need at least 2 points to fit a decay constant")
    if times.min() == times.max():
        raise FitError("need at least 2 distinct time points to fit a decay "
                       "constant")

    def curve(t, tau):
        decay = np.exp(-t / tau)
        return decay if model == "decay" else 1.0 - decay

    # log-linear initial guess from the decaying branch
    z = values if model == "decay" else 1.0 - values
    usable = (z > 1e-9) & (times >= 0)
    span = times.max() - times.min()
    tau0 = span
    # a grid too wide for float arithmetic overflows here; that is a FitError
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        try:
            # a line through points at one time has no slope
            if np.unique(times[usable]).size >= 2:
                slope = np.polyfit(times[usable], np.log(z[usable]), 1)[0]
                if slope < 0:
                    tau0 = -1.0 / slope
            popt, pcov = scipy.optimize.curve_fit(
                curve, times, values, p0=[tau0],
                bounds=([1e-12 * span], [np.inf]), maxfev=20000)
        except FloatingPointError as err:
            raise FitError(
                f"exponential fit left the float range: {err}") from err
        except RuntimeError as err:
            raise FitError(f"exponential fit did not converge: {err}") from err
    if not (np.all(np.isfinite(popt)) and np.all(np.isfinite(pcov))):
        raise FitError("exponential fit has no finite covariance")
    resid = float(np.linalg.norm(curve(times, *popt) - values))
    return FitResult(
        parameters={"tau": popt[0]},
        std_errors={"tau": float(np.sqrt(max(pcov[0, 0], 0.0)))},
        residual_norm=resid,
    )


def fit_power_law(omegas, taus) -> FitResult:
    """Log-log linear regression tau = amplitude * omega**exponent."""
    omegas = np.asarray(omegas, dtype=float)
    taus = np.asarray(taus, dtype=float)
    if omegas.shape != taus.shape:
        raise ValueError("omegas and taus must have matching shapes")
    if omegas.size < 3:
        raise ValueError("need at least 3 points for a power-law fit")
    if np.any(omegas <= 0) or np.any(taus <= 0):
        raise ValueError("power-law fit needs strictly positive values")

    x = np.log(omegas)
    y = np.log(taus)
    if np.unique(x).size < 2:  # one intensity gives the line no slope
        raise FitError("power-law fit needs at least 2 distinct intensities")
    n = x.size
    x_bar = x.mean()
    sxx = float(np.sum((x - x_bar) ** 2))
    slope = float(np.sum((x - x_bar) * (y - y.mean())) / sxx)
    intercept = float(y.mean() - slope * x_bar)
    fitted = intercept + slope * x
    rss = float(np.sum((y - fitted) ** 2))
    dof = max(n - 2, 1)
    s2 = rss / dof
    slope_err = math.sqrt(s2 / sxx)
    intercept_err = math.sqrt(s2 * (1.0 / n + x_bar**2 / sxx))
    amplitude = math.exp(intercept)
    return FitResult(
        parameters={"amplitude": amplitude, "exponent": slope},
        std_errors={"amplitude": amplitude * intercept_err,
                    "exponent": slope_err},
        residual_norm=math.sqrt(rss),
    )
