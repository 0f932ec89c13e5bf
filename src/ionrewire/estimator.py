"""Parameter recovery from (noisy) time series.

Pair couplings come from weighted least squares of a damped sin^2 model with
the oscillation frequency seeded by the FFT peak (sin^2 fits are multimodal
in J, so three starts around the peak bin are tried). Decay constants come
from one-parameter exponential fits, and intensity-scaling exponents from
log-log linear regression.

The two nonlinear fits run `_curve_fit`, which does the float operations of
scipy 1.17.1's `curve_fit` with bounds in the same order: `least_squares`'
trust-region-reflective solver (Branch, Coleman and Li, SIAM J. Sci.
Comput. 21(1), 1999) with the exact trust-region subproblem, a forward-
difference Jacobian and the covariance from an SVD. It keeps only what the
two fits use: linear loss, unit variable scaling, the default tolerances and
20,000 residual evaluations.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import norm


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

    # the solver measures its steps against the norm of the parameters; a
    # time grid too fine or too wide for float arithmetic overflows it
    with np.errstate(over="ignore"):
        start_norm = norm([max(couplings), 2.0 * span, p_inf0])
    if not np.isfinite(start_norm):
        raise FitError(f"pair fit left the float range: the start J = "
                       f"{max(couplings):.3g}, tau_d = {2.0 * span:.3g} has "
                       f"no finite norm")

    best = None
    for j0 in couplings:
        try:
            popt, pcov = _curve_fit(pair_coupling_model, times, values,
                                    [j0, 2.0 * span, p_inf0], bounds,
                                    sigma=sigma)
        except RuntimeError:
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
            popt, pcov = _curve_fit(curve, times, values, [tau0],
                                    ([1e-12 * span], [np.inf]))
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


# least_squares' default tolerances and curve_fit's maxfev
_FTOL = _XTOL = _GTOL = 1e-8
_MAX_NFEV = 20000
_EPS = np.finfo(float).eps


def _curve_fit(model, xdata, ydata, p0, bounds, sigma=None):
    """scipy 1.17.1's `curve_fit(model, xdata, ydata, p0, sigma=sigma,
    absolute_sigma=sigma is not None, bounds=bounds, maxfev=20000)`, bit for
    bit, calling model as often. Returns (popt, pcov); the covariance is
    scaled by the residual variance when no sigma is given. Raises scipy's
    errors: RuntimeError when 20,000 residual evaluations do not converge,
    ValueError for a start outside the bounds or non-finite residuals."""
    lb, ub = (np.asarray(b, dtype=float) for b in bounds)
    ydata = np.asarray_chkfinite(ydata, float)
    xdata = np.asarray_chkfinite(xdata, float)
    # scipy weights by 1 / sigma; a factor 1.0 changes no bit
    weights = 1.0 if sigma is None else 1.0 / np.asarray(sigma)

    def residuals(params):
        return weights * (model(xdata, *params) - ydata)

    x0 = np.atleast_1d(p0).astype(float)
    if np.any(lb >= ub):
        raise ValueError("Each lower bound must be strictly less than each "
                         "upper bound.")
    if not np.all((x0 >= lb) & (x0 <= ub)):
        raise ValueError("Initial guess is outside of provided bounds")
    x0 = _strictly_feasible(x0, lb, ub, rstep=1e-10)
    f0 = residuals(x0)
    J0 = _jacobian(residuals, x0, f0, lb, ub)
    if not np.all(np.isfinite(f0)):
        raise ValueError("Residuals are not finite in the initial point.")

    x, cost, jac, status = _trf_bounds(residuals, x0, f0, J0, lb, ub)
    if status == 0:
        raise RuntimeError("Optimal parameters not found: The maximum number "
                           "of function evaluations is exceeded.")
    # Moore-Penrose inverse of J^T J, discarding zero singular values
    _, s, VT = _svd(jac)
    threshold = _EPS * max(jac.shape) * s[0]
    s = s[s > threshold]
    VT = VT[:s.size]
    pcov = np.dot(VT.T / s**2, VT)
    if np.isnan(pcov).any():
        pcov = np.full((x.size, x.size), np.inf)
    elif sigma is None:
        # both callers fit more points than parameters
        pcov = pcov * (2 * cost / (ydata.size - x0.size))
    return x, pcov


def _svd(a):
    """scipy.linalg.svd(a, full_matrices=False): numpy's gesdd SVD, which
    gives scipy's bits, behind scipy's check for infs and NaNs. U and V^T
    come back in Fortran order, as LAPACK writes them for scipy: the
    products taken with them keep their bits only in that layout."""
    u, s, vt = np.linalg.svd(np.asarray_chkfinite(a), full_matrices=False)
    return np.asfortranarray(u), s, np.asfortranarray(vt)


def _jacobian(fun, x0, f0, lb, ub):
    """scipy's `approx_derivative(fun, x0, "2-point", f0=f0,
    bounds=(lb, ub))`: forward differences, a step turned back or shortened
    where it would leave the bounds."""
    h = _EPS**0.5 * ((x0 >= 0).astype(float) * 2 - 1) * np.maximum(
        1.0, np.abs(x0))
    lower_dist = x0 - lb
    upper_dist = ub - x0
    x = x0 + h
    violated = (x < lb) | (x > ub)
    fitting = np.abs(h) <= np.maximum(lower_dist, upper_dist)
    h[violated & fitting] *= -1
    forward = (upper_dist >= lower_dist) & ~fitting
    h[forward] = upper_dist[forward]
    backward = (upper_dist < lower_dist) & ~fitting
    h[backward] = -lower_dist[backward]
    # the steps as taken, before the first call, as scipy takes them
    dx = [(x0[i] + h[i]) - x0[i] for i in range(x0.size)]
    J_transposed = np.empty((x0.size, f0.size))
    for i in range(x0.size):
        x1 = np.copy(x0)
        x1[i] = x0[i] + h[i]
        J_transposed[i] = (fun(x1) - f0) / dx[i]
    return J_transposed.T


def _strictly_feasible(x, lb, ub, rstep):
    """scipy's `make_strictly_feasible`: x moved off each bound it is
    active on, by rstep relative to the bound, or to the next float inward
    when rstep is 0."""
    if rstep == 0:
        lower, upper = x <= lb, x >= ub
    else:
        lower_dist = x - lb
        upper_dist = ub - x
        lower = np.isfinite(lb) & (lower_dist <= np.minimum(
            upper_dist, rstep * np.maximum(1, np.abs(lb))))
        upper = np.isfinite(ub) & (upper_dist <= np.minimum(
            lower_dist, rstep * np.maximum(1, np.abs(ub))))
    lower &= ~upper
    x_new = x.copy()
    if rstep == 0:
        x_new[lower] = np.nextafter(lb[lower], ub[lower])
        x_new[upper] = np.nextafter(ub[upper], lb[upper])
    else:
        x_new[lower] = lb[lower] + rstep * np.maximum(1, np.abs(lb[lower]))
        x_new[upper] = ub[upper] - rstep * np.maximum(1, np.abs(ub[upper]))
    tight_bounds = (x_new < lb) | (x_new > ub)
    x_new[tight_bounds] = 0.5 * (lb[tight_bounds] + ub[tight_bounds])
    return x_new


def _trf_bounds(fun, x, f, J, lb, ub):
    """scipy 1.17.1's `trf_bounds` with unit scaling, linear loss and the
    exact trust-region solver: Coleman-Li scaled steps, reflected off the
    bounds and kept strictly inside them. Returns (x, cost, J, status),
    status 0 when the evaluations ran out, else the tolerance met."""
    # least_squares evaluates through a VectorFunction, which serves a
    # repeat of the last point evaluated without calling fun
    last = [x, f]

    def residuals(x_new):
        if not np.array_equal(x_new, last[0]):
            last[:] = x_new, fun(x_new)
        return last[1]

    nfev = 1
    m, n = J.shape
    cost = 0.5 * np.dot(f, f)
    g = J.T.dot(f)
    v, dv = _scaling_vector(x, g, lb, ub)
    Delta = norm(x / v**0.5)
    if Delta == 0:
        Delta = 1.0
    f_augmented = np.zeros(m + n)
    J_augmented = np.empty((m + n, n))
    alpha = 0.0  # the Levenberg-Marquardt parameter
    status = None
    while True:
        v, dv = _scaling_vector(x, g, lb, ub)
        g_norm = norm(g * v, ord=np.inf)
        if g_norm < _GTOL:
            status = 1
        if status is not None or nfev == _MAX_NFEV:
            break
        # the trust-region problem in Coleman-Li's scaled ("hat") variables
        d = v**0.5
        diag_h = g * dv
        g_h = d * g
        f_augmented[:m] = f
        J_augmented[:m] = J * d
        J_h = J_augmented[:m]
        J_augmented[m:] = np.diag(diag_h**0.5)
        U, s, V = _svd(J_augmented)
        V = V.T
        uf = U.T.dot(f_augmented)
        # how far a step stays back from the bounds
        theta = max(0.995, 1 - g_norm)
        actual_reduction = -1
        while actual_reduction <= 0 and nfev < _MAX_NFEV:
            p_h, alpha = _trust_region_step(n, m, uf, s, V, Delta, alpha)
            p = d * p_h
            step, step_h, predicted_reduction = _select_step(
                x, J_h, diag_h, g_h, p, p_h, d, Delta, lb, ub, theta)
            x_new = _strictly_feasible(x + step, lb, ub, rstep=0)
            f_new = residuals(x_new)
            nfev += 1
            step_h_norm = norm(step_h)
            if not np.all(np.isfinite(f_new)):
                Delta = 0.25 * step_h_norm
                continue
            cost_new = 0.5 * np.dot(f_new, f_new)
            actual_reduction = cost - cost_new
            # the radius follows the ratio of actual to predicted reduction
            if predicted_reduction > 0:
                ratio = actual_reduction / predicted_reduction
            elif predicted_reduction == actual_reduction == 0:
                ratio = 1
            else:
                ratio = 0
            Delta_new = Delta
            if ratio < 0.25:
                Delta_new = 0.25 * step_h_norm
            elif ratio > 0.75 and step_h_norm > 0.95 * Delta:
                Delta_new *= 2.0
            ftol_met = actual_reduction < _FTOL * cost and ratio > 0.25
            xtol_met = norm(step) < _XTOL * (_XTOL + norm(x))
            if ftol_met or xtol_met:
                status = 4 if ftol_met and xtol_met else 2 if ftol_met else 3
                break
            alpha *= Delta / Delta_new
            Delta = Delta_new
        if actual_reduction > 0:
            x = x_new
            f = f_new
            cost = cost_new
            J = _jacobian(fun, x, f, lb, ub)
            g = J.T.dot(f)
    return x, cost, J, status or 0


def _scaling_vector(x, g, lb, ub):
    """Coleman and Li's scaling vector v and its derivative dv."""
    v = np.ones_like(x)
    dv = np.zeros_like(x)
    mask = (g < 0) & np.isfinite(ub)
    v[mask] = ub[mask] - x[mask]
    dv[mask] = -1
    mask = (g > 0) & np.isfinite(lb)
    v[mask] = x[mask] - lb[mask]
    dv[mask] = 1
    return v, dv


def _trust_region_step(n, m, uf, s, V, Delta, alpha):
    """scipy's `solve_lsq_trust_region` (More's 1977 iteration, rtol 0.01,
    10 iterations): the step of norm at most Delta from the SVD (U, s, V)
    of the augmented Jacobian, uf = U^T f, and the Levenberg-Marquardt
    parameter for the next call. Returns (step, alpha)."""
    def phi_and_derivative(alpha):
        denom = s**2 + alpha
        p_norm = norm(suf / denom)
        phi = p_norm - Delta
        phi_prime = -np.sum(suf ** 2 / denom**3) / p_norm
        return phi, phi_prime

    suf = s * uf
    full_rank = m >= n and s[-1] > _EPS * m * s[0]
    if full_rank:
        p = -V.dot(uf / s)
        if norm(p) <= Delta:
            return p, 0.0
    alpha_upper = norm(suf) / Delta
    if full_rank:
        phi, phi_prime = phi_and_derivative(0.0)
        alpha_lower = -phi / phi_prime
    else:
        alpha_lower = 0.0
    if not full_rank and alpha == 0:
        alpha = max(0.001 * alpha_upper, (alpha_lower * alpha_upper)**0.5)
    for _ in range(10):
        if alpha < alpha_lower or alpha > alpha_upper:
            alpha = max(0.001 * alpha_upper, (alpha_lower * alpha_upper)**0.5)
        phi, phi_prime = phi_and_derivative(alpha)
        if phi < 0:
            alpha_upper = alpha
        ratio = phi / phi_prime
        alpha_lower = max(alpha_lower, alpha - ratio)
        alpha -= (phi + Delta) * ratio / Delta
        if np.abs(phi) < 0.01 * Delta:
            break
    p = -V.dot(suf / (s**2 + alpha))
    p *= Delta / norm(p)
    return p, alpha


def _select_step(x, J_h, diag_h, g_h, p, p_h, d, Delta, lb, ub, theta):
    """scipy's trust-region-reflective step choice: the trust-region step
    if it stays inside the bounds, else the best of that step cut short,
    its reflection off the bound it hits, and the scaled anti-gradient.
    Returns (step, step_h, predicted reduction)."""
    if np.all((x + p >= lb) & (x + p <= ub)):
        p_value = _evaluate_quadratic(J_h, g_h, p_h, diag_h)
        return p, p_h, -p_value

    p_stride, hits = _step_size_to_bound(x, p, lb, ub)
    # the direction reflected off the bounds hit
    r_h = np.copy(p_h)
    r_h[hits.astype(bool)] *= -1
    r = d * r_h
    # the step cut short at the bound
    p *= p_stride
    p_h *= p_stride
    x_on_bound = x + p
    # the reflected step ends at the feasible region's or the trust
    # region's boundary, whichever comes first
    _, to_tr = _intersect_trust_region(p_h, r_h, Delta)
    to_bound, _ = _step_size_to_bound(x_on_bound, r, lb, ub)
    r_stride = min(to_bound, to_tr)
    if r_stride > 0:
        r_stride_l = (1 - theta) * p_stride / r_stride
        if r_stride == to_bound:
            r_stride_u = theta * to_bound
        else:
            r_stride_u = to_tr
    else:
        r_stride_l = 0
        r_stride_u = -1
    if r_stride_l <= r_stride_u:
        a, b, c = _quadratic_1d(J_h, g_h, r_h, diag_h, s0=p_h)
        r_stride, r_value = _minimize_quadratic_1d(
            a, b, r_stride_l, r_stride_u, c=c)
        r_h *= r_stride
        r_h += p_h
        r = r_h * d
    else:
        r_value = np.inf
    # step back from the bound, strictly inside
    p *= theta
    p_h *= theta
    p_value = _evaluate_quadratic(J_h, g_h, p_h, diag_h)
    ag_h = -g_h
    ag = d * ag_h
    to_tr = Delta / norm(ag_h)
    to_bound, _ = _step_size_to_bound(x, ag, lb, ub)
    if to_bound < to_tr:
        ag_stride = theta * to_bound
    else:
        ag_stride = to_tr
    a, b = _quadratic_1d(J_h, g_h, ag_h, diag_h)
    ag_stride, ag_value = _minimize_quadratic_1d(a, b, 0, ag_stride)
    ag_h *= ag_stride
    ag *= ag_stride
    if p_value < r_value and p_value < ag_value:
        return p, p_h, -p_value
    elif r_value < p_value and r_value < ag_value:
        return r, r_h, -r_value
    else:
        return ag, ag_h, -ag_value


def _step_size_to_bound(x, s, lb, ub):
    """The largest t with x + t s inside the bounds, and which bounds that
    step reaches (-1 lower, 1 upper, 0 neither)."""
    non_zero = np.nonzero(s)
    s_non_zero = s[non_zero]
    steps = np.empty_like(x)
    steps.fill(np.inf)
    with np.errstate(over='ignore'):
        steps[non_zero] = np.maximum((lb - x)[non_zero] / s_non_zero,
                                     (ub - x)[non_zero] / s_non_zero)
    min_step = np.min(steps)
    return min_step, np.equal(steps, min_step) * np.sign(s).astype(int)


def _intersect_trust_region(x, s, Delta):
    """The two t where x + t s meets the sphere of radius Delta, in
    ascending order."""
    a = np.dot(s, s)
    if a == 0:
        raise ValueError("`s` is zero.")
    b = np.dot(x, s)
    c = np.dot(x, x) - Delta**2
    if c > 0:
        raise ValueError("`x` is not within the trust region.")
    d = np.sqrt(b*b - a*c)  # the root of a quarter of the discriminant
    q = -(b + math.copysign(d, b))
    t1 = q / a
    t2 = c / q
    if t1 < t2:
        return t1, t2
    else:
        return t2, t1


def _quadratic_1d(J, g, s, diag, s0=None):
    """The coefficients of the model 0.5 |J x|^2 + g.x + 0.5 x.diag.x along
    x = s0 + t s: (a, b) for t^2 and t, and c too when s0 is given."""
    v = J.dot(s)
    a = np.dot(v, v)
    a += np.dot(s * diag, s)
    a *= 0.5
    b = np.dot(g, s)
    if s0 is None:
        return a, b
    u = J.dot(s0)
    b += np.dot(u, v)
    c = 0.5 * np.dot(u, u) + np.dot(g, s0)
    b += np.dot(s0 * diag, s)
    c += 0.5 * np.dot(s0 * diag, s0)
    return a, b, c


def _minimize_quadratic_1d(a, b, lb, ub, c=0):
    """The minimum of a t^2 + b t + c on [lb, ub], as (t, value)."""
    t = [lb, ub]
    if a != 0:
        extremum = -0.5 * b / a
        if lb < extremum < ub:
            t.append(extremum)
    t = np.asarray(t)
    y = t * (a * t + b) + c
    min_index = np.argmin(y)
    return t[min_index], y[min_index]


def _evaluate_quadratic(J, g, s, diag):
    """The model 0.5 (|J s|^2 + s.diag.s) + g.s at the step s."""
    Js = J.dot(s)
    q = np.dot(Js, Js)
    q += np.dot(s * diag, s)
    l = np.dot(s, g)
    return 0.5 * q + l
