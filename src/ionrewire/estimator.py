"""Parameter recovery from (noisy) time series.

Pair couplings come from weighted least squares of a damped sin^2 model with
the oscillation frequency seeded by the FFT peak (sin^2 fits are multimodal
in J, so three starts around the peak bin are tried). Decay constants come
from one-parameter exponential fits, and intensity-scaling exponents from
log-log linear regression.

The two nonlinear fits run `_least_squares`, a bounded Levenberg-Marquardt
fitter (Marquardt, J. SIAM 11(2), 1963) on the analytic Jacobian of each
model, with standard errors from the pseudo-inverse of J^T W J. They fit
decay rates 1 / tau between two bounds: no decay within the data then ends
a fit on a bound instead of sending tau to infinity, and so does a decay far
faster than the first time step.
"""

import math
from dataclasses import dataclass

import numpy as np


# the fewest finite time points a pair-coupling fit takes
MIN_PAIR_POINTS = 8
# the slowest decay rate a fit takes, in units of 1 / (time span): a decay
# constant a billion times the span is no decay within the data
RATE_FLOOR = 1e-9
# Levenberg-Marquardt: the most model evaluations of one fit, and the
# relative fall of the sum of squares below which a lightly damped step
# ends it
MAX_EVALS = 1000
FTOL = 1e-10


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
    """Per-point standard deviation sqrt(p (1 - p) / shots) of the observed
    frequency p, with p (1 - p) floored at 1/shots, so the variance at
    1/shots^2."""
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
    inverse-binomial-variance weights. J is bounded by the Nyquist limit of
    the median time step. Raises FitError for constant series or if no start
    converges.
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

    starts, nyquist = _pair_starts(times, values)
    sigma = binomial_sigma(values, shots)
    best, float_error = None, None
    for start in starts:
        try:
            fit = _pair_fit(times, values, sigma, start, nyquist)
        except FloatingPointError as err:
            float_error = err
            continue
        except RuntimeError:
            continue
        if best is None or fit[2] < best[2]:
            best = fit

    if best is None and float_error is not None:
        raise FitError(f"pair fit left the float range: {float_error}")
    if best is None:
        raise FitError("no multi-start converged")
    (coupling, tau_d, p_inf), errors, cost = best
    return FitResult(
        parameters={"coupling": coupling, "tau_d": tau_d, "p_inf": p_inf},
        std_errors={"coupling": errors[0], "tau_d": errors[1], "p_inf": errors[2]},
        residual_norm=cost,
    )


def _pair_starts(times, values):
    """The starts (J, tau_d, p_inf) of a pair fit, with J in the FFT peak
    bin and the two bins beside it, and the largest J the median time step
    dt resolves, pi / (2 dt): sin^2(J t) oscillates at ordinary frequency
    J / pi, and on a uniform grid pi / dt - J takes the values of J. A start
    at or above that limit is dropped; at the limit, the model's slope in J
    vanishes on a uniform grid, so a fit could not leave it."""
    dt = float(np.median(np.diff(times)))
    spectrum = np.abs(np.fft.rfft(values - values.mean()))
    freqs = np.fft.rfftfreq(times.size, dt)
    peak = 1 + int(np.argmax(spectrum[1:]))
    bin_width = freqs[1]
    couplings = [math.pi * max(freqs[peak] + k * bin_width, 0.25 * bin_width)
                 for k in (-1, 0, 1)]
    nyquist = math.pi / (2.0 * dt)
    span = times.max() - times.min()
    p_inf0 = float(np.clip(values.mean(), 0.05, 0.95))
    starts = [(j0, 2.0 * span, p_inf0) for j0 in couplings if j0 < nyquist]
    return starts, nyquist


def _pair_rate_model(t, coupling, rate, p_inf):
    return pair_coupling_model(t, coupling, 1.0 / rate, p_inf)


def _pair_jacobian(t, coupling, rate, p_inf):
    """The derivatives of _pair_rate_model by (J, rate, p_inf), one row
    each."""
    damping = np.exp(-rate * t)
    return np.array([np.sin(2.0 * coupling * t) * t * damping,
                     (p_inf - np.sin(coupling * t) ** 2) * t * damping,
                     1.0 - damping])


def _pair_fit(times, values, sigma, start, nyquist):
    """The pair fit from start = (J, tau_d, p_inf), with J in [0, nyquist],
    tau_d at least 1e-3 of the time span and p_inf in [0, 1]. Returns
    ((J, tau_d, p_inf), their standard errors, the weighted residual norm).
    """
    span = times.max() - times.min()
    coupling, tau_d, p_inf = start
    # a time grid too fine or too wide for float arithmetic overflows the
    # normal equations
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        (coupling, rate, p_inf), errors, cost = _least_squares(
            _pair_rate_model, _pair_jacobian, times, values,
            [coupling, 1.0 / tau_d, p_inf],
            ([0.0, RATE_FLOOR / span, 0.0], [nyquist, 1e3 / span, 1.0]), sigma)
        return (np.array([coupling, 1.0 / rate, p_inf]),
                errors / [1.0, rate**2, 1.0], cost)


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
            tau, error, resid = _exponential_fit(times, values, model, tau0,
                                                 1e-12 * span)
        except FloatingPointError as err:
            raise FitError(
                f"exponential fit left the float range: {err}") from err
        except RuntimeError as err:
            raise FitError(f"exponential fit did not converge: {err}") from err
    if not (math.isfinite(tau) and math.isfinite(error)):
        raise FitError("exponential fit has no finite covariance")
    return FitResult(parameters={"tau": tau}, std_errors={"tau": error},
                     residual_norm=resid)


def _exponential_fit(times, values, model, tau0, tau_min):
    """exp(-t / tau) ('decay') or 1 - exp(-t / tau) ('inverse') fitted from
    tau0, with tau at least tau_min. Returns (tau, its standard error, the
    residual norm)."""
    sign = 1.0 if model == "decay" else -1.0

    def curve(t, rate):
        decay = np.exp(-rate * t)
        return decay if model == "decay" else 1.0 - decay

    def jacobian(t, rate):
        return (-sign * t * np.exp(-rate * t))[np.newaxis]

    span = times.max() - times.min()
    (rate,), (error,), resid = _least_squares(
        curve, jacobian, times, values, [1.0 / tau0],
        ([RATE_FLOOR / span], [1.0 / tau_min]))
    return 1.0 / rate, error / rate**2, resid


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


def _least_squares(model, jacobian, t, y, start, bounds, sigma=None):
    """Least squares of model(t, *p) against y, weighted by 1 / sigma, for
    p within bounds = (lower, upper), by Levenberg-Marquardt.

    Each step solves (A + damping diag A) dp = -g, with A = J^T W J and g =
    J^T W r, for the parameters no bound holds: one on a bound that its
    gradient or its step points out of sits the step out. A step that leaves
    the bounds
    is tried both clipped onto them and reflected off them, and the better
    point is kept. A step that does not lower the sum of squares is retried
    with ten times the damping; one that does divides the damping by ten.
    The fit ends when a step at most as damped as the first lowers the sum
    by at most FTOL of it, or when no step lowers it at all.

    Returns (p, the standard errors from the pseudo-inverse of A, the
    weighted residual norm); without sigma, the errors are scaled by the
    residual variance. Raises RuntimeError after MAX_EVALS model
    evaluations.
    """
    lower, upper = (np.asarray(b, dtype=float) for b in bounds)
    weights = 1.0 if sigma is None else 1.0 / np.asarray(sigma)

    def evaluate(q):
        r = weights * (model(t, *q) - y)
        return r @ r, r, q

    cost, r, p = evaluate(np.clip(np.asarray(start, dtype=float), lower,
                                  upper))
    damping, evals, done = 1e-3, 1, False
    while True:
        jac = weights * jacobian(t, *p)  # one row per parameter
        if done:
            break
        grad = jac @ r
        held = ((p <= lower) & (grad > 0)) | ((p >= upper) & (grad < 0))
        while True:
            if evals >= MAX_EVALS:
                raise RuntimeError(f"no convergence in {MAX_EVALS} model "
                                   f"evaluations")
            step = _damped_step(jac, grad, held, damping)
            leaving = ((p <= lower) & (step < 0)) | ((p >= upper) & (step > 0))
            if leaving.any():
                held |= leaving
                step = _damped_step(jac, grad, held, damping)
            trial = p + step
            trials = [np.clip(trial, lower, upper)]
            outside = (trial < lower) | (trial > upper)
            if outside.any():
                mirrored = np.where(trial < lower, 2.0 * lower - trial,
                                    2.0 * upper - trial)
                trials.append(np.clip(np.where(outside, mirrored, trial),
                                      lower, upper))
            cost_trial, r_trial, trial = min(map(evaluate, trials),
                                             key=lambda e: e[0])
            evals += len(trials)
            if cost_trial <= cost:
                break
            damping *= 10.0
        done = ((damping <= 1e-3 or cost_trial == cost)
                and cost - cost_trial <= FTOL * cost)
        p, r, cost = trial, r_trial, cost_trial
        damping = max(damping / 10.0, 1e-15)

    # the pseudo-inverse takes columns scaled to a largest entry of 1, so
    # that no parameter's units set which directions it discards
    sizes = np.max(np.abs(jac), axis=1)
    sizes[sizes == 0] = 1.0
    _, s, vt = np.linalg.svd((jac / sizes[:, np.newaxis]).T,
                             full_matrices=False)
    keep = s > np.finfo(float).eps * max(jac.shape) * s[0]
    errors = np.sqrt(np.sum((vt[keep] / s[keep, np.newaxis]) ** 2, axis=0))
    errors /= sizes
    if sigma is None:
        # both callers fit more points than parameters
        errors *= math.sqrt(cost / (y.size - p.size))
    return p, errors, math.sqrt(cost)


def _damped_step(jac, grad, held, damping):
    """The Levenberg-Marquardt step (A + damping diag A) dp = -g over the
    parameters not held, which keep their values."""
    free = np.flatnonzero(~held)
    normal = jac[free] @ jac[free].T
    scale = np.diag(normal).copy()
    scale[scale == 0] = 1.0
    step = np.zeros(held.size)
    step[free] = np.linalg.solve(normal + np.diag(damping * scale), -grad[free])
    return step
