"""The library's ports of scipy.optimize, and its fitter, against scipy.

`coupling._minimize_scalar_bounded` and `coupling._brentq` and
`crystal._line_search_wolfe2` each do the float operations of one scipy
1.17.1 routine in the same order: these tests run the routine and its port
on the same seeded problems and compare every returned bit and every
function call. Another scipy release may change its arithmetic, so they skip
there. `estimator._least_squares` is no port: the fits it runs are checked
for agreement with `scipy.optimize.curve_fit` on random series, to stated
tolerances. scipy is a test dependency only.
"""

import math
import warnings
from collections import Counter

import numpy as np
import pytest

scipy = pytest.importorskip("scipy", reason="scipy, the ports' reference, "
                                              "is not installed")
if scipy.__version__ != "1.17.1":
    pytest.skip(f"the ports follow scipy 1.17.1, not {scipy.__version__}",
                allow_module_level=True)
import scipy.optimize  # noqa: E402

from ionrewire import (  # noqa: E402
    PhysicalConstants,
    TrapConfig,
    compute_normal_modes,
    solve_equilibrium,
)
from ionrewire import coupling as coupling_module  # noqa: E402
from ionrewire import crystal as crystal_module  # noqa: E402
from ionrewire import estimator as estimator_module  # noqa: E402
from ionrewire.coupling import RamanDrive, calibrate_detuning  # noqa: E402
from ionrewire.crystal import _alphas  # noqa: E402
from ionrewire.estimator import (  # noqa: E402
    binomial_sigma,
    fit_pair_coupling,
    pair_coupling_model,
)

TWO_PI = 2 * np.pi


def bits(value):
    return np.asarray(value, dtype=float).tobytes()


class Logged:
    """A function that logs the bits of every argument it is called with."""

    def __init__(self, fun):
        self.fun, self.calls = fun, []

    def __call__(self, x, *args):
        self.calls.append(bits(x))
        return self.fun(x, *args)


# ---------------------------------------------------------------------------
# calibration: the bounded minimizer and brentq


def unimodal(seed):
    """A smooth or kinked function with one minimum in a random window."""
    rng = np.random.default_rng(seed)
    center, scale = rng.normal(scale=10.0), 10.0 ** rng.uniform(-3, 3)
    power = rng.choice([2.0, 4.0, 1.5, 0.5])
    lo = center - scale * rng.uniform(0.01, 3.0)
    hi = center + scale * rng.uniform(0.01, 3.0)
    if seed % 5 == 0:  # the minimum on an edge
        lo = center + scale * rng.uniform(0.0, 1.0)
        hi = lo + scale * rng.uniform(0.1, 3.0)
    return (lambda x: np.abs((x - center) / scale) ** power
            + 0.1 * np.sin(x / scale)), lo, hi


def monotone(seed):
    """A function that changes sign once in a random bracket."""
    rng = np.random.default_rng(seed)
    root, scale = rng.normal(scale=1e4), 10.0 ** rng.uniform(-2, 5)
    kind = seed % 4
    funs = [lambda x: math.atan((x - root) / scale),
            lambda x: ((x - root) / scale) ** 3,
            lambda x: math.expm1((x - root) / scale),
            lambda x: np.float64(x - root) / scale + 1e-3 * math.sin(x)]
    lo = root - scale * rng.uniform(0.0, 50.0)
    hi = root + scale * rng.uniform(0.0, 50.0)
    return funs[kind], lo, hi


def test_bounded_minimizer_on_random_unimodal_functions():
    for seed in range(300):
        fun, lo, hi = unimodal(seed)
        xatol = 1e-9 * (hi - lo) if seed % 2 else 1e-5
        ours, ref = Logged(fun), Logged(fun)
        x = coupling_module._minimize_scalar_bounded(ours, lo, hi, xatol)
        result = scipy.optimize.minimize_scalar(
            ref, bounds=(lo, hi), method="bounded", options={"xatol": xatol})
        assert ours.calls == ref.calls, seed
        assert bits(x) == bits(result.x), seed


def test_bounded_minimizer_stops_at_500_calls():
    # a minimum at 0 with a tolerance far below what 500 calls resolve
    ours, ref = Logged(abs), Logged(abs)
    x = coupling_module._minimize_scalar_bounded(ours, -1.0, 2.0, 1e-300)
    result = scipy.optimize.minimize_scalar(
        ref, bounds=(-1.0, 2.0), method="bounded", options={"xatol": 1e-300})
    assert bits(x) == bits(result.x)
    assert ours.calls == ref.calls
    assert len(ours.calls) == 500


def test_brentq_on_random_monotone_functions():
    for seed in range(400):
        fun, lo, hi = monotone(seed)
        ours, ref = Logged(fun), Logged(fun)
        try:
            expected = scipy.optimize.brentq(ref, lo, hi, xtol=1e-3)
        except ValueError as err:
            with pytest.raises(ValueError, match=str(err)):
                coupling_module._brentq(ours, lo, hi)
        else:
            assert bits(coupling_module._brentq(ours, lo, hi)) == bits(expected)
        assert ours.calls == ref.calls, seed


def test_brentq_errors_are_scipys():
    with pytest.raises(ValueError, match="f\\(a\\) and f\\(b\\) must have "
                                         "different signs"):
        coupling_module._brentq(lambda x: x * x + 1.0, -1.0, 2.0)
    with pytest.raises(RuntimeError) as err:
        scipy.optimize.brentq(lambda x: math.atan(x - 1.5), -1e300, 1e300,
                              xtol=1e-3)
    with pytest.raises(RuntimeError, match=str(err.value)):
        coupling_module._brentq(lambda x: math.atan(x - 1.5), -1e300, 1e300)


def scipy_minimize_scalar_bounded(func, x1, x2, xatol):
    return scipy.optimize.minimize_scalar(
        func, bounds=(x1, x2), method="bounded", options={"xatol": xatol}).x


def scipy_brentq(f, xa, xb):
    return scipy.optimize.brentq(f, xa, xb, xtol=1e-3)


CALIBRATIONS = [
    # (n ions, trap in Hz, crystal seed, target Hz, pair, side)
    (2, (0.978e6, 1.748e6, 1.798e6), 7, 750.0, (0, 1), "above"),
    (3, (0.978e6, 1.748e6, 1.798e6), 5, 450.0, (0, 1), "above"),
    (3, (0.978e6, 1.748e6, 1.798e6), 5, -300.0, (0, 2), "below"),
    (6, (0.4e6, 1.9e6, 2.1e6), 1, 2.0e3, (2, 3), "above"),
    (8, (1.0e6, 1.3e6, 3.0e6), 2, 1.5e3, (0, 5), "above"),
]


@pytest.mark.parametrize("case", range(len(CALIBRATIONS)))
def test_real_calibrations(monkeypatch, case):
    n, freqs, seed, target_hz, pair, side = CALIBRATIONS[case]
    constants = PhysicalConstants.for_mass_u(171.0)
    trap = TrapConfig.from_hz(*freqs)
    modes = compute_normal_modes(
        constants, trap, solve_equilibrium(constants, trap, n, seed))
    drive = RamanDrive.perpendicular_beams(TWO_PI * 76e3, detuning=0.0)
    matrix_calls = []
    coupling_matrix = coupling_module.coupling_matrix

    def logged_matrix(modes, drive, *args, **kwargs):
        matrix_calls.append(bits(drive.detuning))
        return coupling_matrix(modes, drive, *args, **kwargs)

    def calibrate():
        matrix_calls.clear()
        mu = calibrate_detuning(modes, drive, constants, TWO_PI * target_hz,
                                pair, side)
        return mu, list(matrix_calls)

    monkeypatch.setattr(coupling_module, "coupling_matrix", logged_matrix)
    ours = calibrate()
    monkeypatch.setattr(coupling_module, "_minimize_scalar_bounded",
                        scipy_minimize_scalar_bounded)
    monkeypatch.setattr(coupling_module, "_brentq", scipy_brentq)
    ref = calibrate()
    assert bits(ours[0]) == bits(ref[0])
    assert ours[1] == ref[1]
    assert len(ours[1]) > 20


# ---------------------------------------------------------------------------
# the crystal's fallback step search


class Counted:
    """The crystal's potential and gradient, or a quadratic's, counting
    asks and logging the points asked."""

    def __init__(self, hessian=None):
        self.hessian = hessian
        self.asked = []

    def potential(self, u, alphas):
        self.asked.append(("f", bits(u)))
        if self.hessian is None:
            return crystal_module._Pass(u, alphas).energy
        return 0.5 * np.dot(u, np.dot(self.hessian, u)) + np.sum(u)

    def gradient(self, u, alphas):
        self.asked.append(("g", bits(u)))
        if self.hessian is None:
            return crystal_module._Pass(u, alphas).gradient.copy()
        return np.dot(self.hessian, u) + 1.0


def wolfe_problems(seed):
    """(hessian or None, alphas, xk, pk, old_old_fval shift): a random
    quadratic or a random ion configuration, and a descent direction
    scaled so that the first step is short, right or far too long."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 8))
    traps = [(1.0e6, 1.7e6, 1.8e6), (0.4e6, 1.9e6, 2.1e6),
             (1.0e6, 1.3e6, 3.0e6)]
    alphas = _alphas(TrapConfig.from_hz(*traps[seed % 3]))
    if seed % 2:
        a = rng.normal(size=(3 * n, 3 * n))
        hessian = a @ a.T + 10.0 ** rng.uniform(-3, 1) * np.eye(3 * n)
        if seed % 7 == 1:  # indefinite: doubling runs out
            hessian -= 5.0 * np.eye(3 * n)
    else:
        hessian = None
    xk = rng.normal(scale=0.75 * max(n, 2) ** (1 / 3), size=3 * n)
    scale = 10.0 ** rng.uniform(-6, 4)
    shift = [0.0, 1e-3, 1.0, 1e3][seed % 4]
    return hessian, alphas, xk, scale, shift


def test_wolfe_search_on_random_problems(monkeypatch):
    outcomes = set()
    for seed in range(400):
        hessian, alphas, xk, scale, shift = wolfe_problems(seed)
        ours, ref = Counted(hessian), Counted(hessian)
        gfk = ours.gradient(xk, alphas)
        pk = -scale * gfk
        old_fval = ours.potential(xk, alphas)
        old_old_fval = old_fval + shift
        ours.asked.clear()
        monkeypatch.setattr(crystal_module, "potential", ours.potential)
        monkeypatch.setattr(crystal_module, "gradient", ours.gradient)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            stp, fval, g = crystal_module._line_search_wolfe2(
                alphas, xk, pk, gfk, old_fval, old_old_fval)
            expected = scipy.optimize.line_search(
                ref.potential, ref.gradient, xk, pk, gfk, old_fval,
                old_old_fval, args=(alphas,), c1=1e-4, c2=0.9, amax=1e100)
        assert ours.asked == ref.asked, seed
        asks = [kind for kind, _ in ours.asked]
        assert (asks.count("f"), asks.count("g")) == expected[1:3], seed
        if expected[0] is None:
            assert stp is None, seed
            outcomes.add("fail")
            continue
        assert bits([stp, fval]) == bits([expected[0], expected[3]]), seed
        if expected[5] is None:
            assert g is None, seed
            outcomes.add("step, no gradient")
        else:
            assert g.tobytes() == np.asarray(expected[5]).tobytes(), seed
            outcomes.add("step")
    assert outcomes == {"step", "step, no gradient", "fail"}


# ---------------------------------------------------------------------------
# the fits: estimator's Levenberg-Marquardt fitter against curve_fit's
# trust-region-reflective fit of the same model, from the same starts and
# within the same bounds. Where the two end at one minimum (weighted residual
# norms within SAME of each other), each parameter curve_fit pins down (its
# standard error is nonzero and below its value) agrees within 0.01 of that
# error, and its standard error within 0.1% of the one the analytic Jacobian
# gives at curve_fit's optimum: curve_fit's own covariance rests on a
# forward-difference Jacobian, which flat directions leave noisy.

SAME = 1e-9


def decay(t, tau):
    return np.exp(-t / tau)


def inverse(t, tau):
    return 1.0 - np.exp(-t / tau)


def analytic_errors(model, times, values, popt, sigma):
    """Standard errors at popt from the pseudo-inverse of J^T W J, with the
    Jacobian by the parameters curve_fit fits; without sigma, scaled by the
    residual variance."""
    if model is pair_coupling_model:
        coupling, tau_d, p_inf = popt
        damping = np.exp(-times / tau_d)
        jac = np.array([np.sin(2 * coupling * times) * times * damping,
                        (np.sin(coupling * times) ** 2 - p_inf) * damping
                        * times / tau_d**2,
                        1 - damping]) / sigma
    else:
        (tau,) = popt
        sign = 1.0 if model is decay else -1.0
        jac = (sign * np.exp(-times / tau) * times / tau**2)[np.newaxis]
    _, s, vt = np.linalg.svd(jac.T, full_matrices=False)
    keep = s > np.finfo(float).eps * max(jac.shape) * s[0]
    # a parameter of a flat direction may get an infinite error
    with np.errstate(over="ignore"):
        errors = np.sqrt(np.sum((vt[keep] / s[keep, np.newaxis]) ** 2,
                                axis=0))
    if sigma is None:
        resid = model(times, *popt) - values
        errors *= math.sqrt(resid @ resid / (values.size - len(popt)))
    return errors


def against_scipy(ours, model, times, values, starts, bounds, sigma=None):
    """Our fit, (parameters, standard errors, residual norm), against the
    best curve_fit from the starts: 'worse', 'better', or 'same' once the
    two are checked to agree. Also returns curve_fit's parameters."""
    weights = 1.0 if sigma is None else 1.0 / sigma
    best = None
    for p0 in starts:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", scipy.optimize.OptimizeWarning)
                popt, pcov = scipy.optimize.curve_fit(
                    model, times, values, p0=p0, sigma=sigma,
                    absolute_sigma=sigma is not None, bounds=bounds,
                    maxfev=20000)
        except RuntimeError:
            continue
        norm = np.linalg.norm(weights * (model(times, *popt) - values))
        if best is None or norm < best[0]:
            best = norm, popt, np.sqrt(np.diag(pcov))
    params, errors, norm = (np.atleast_1d(x) for x in ours)
    ref_norm, popt, ref_errors = best
    if norm > ref_norm * (1 + SAME):
        return "worse", popt
    if norm < ref_norm * (1 - SAME):
        return "better", popt
    pinned = (ref_errors > 0) & (ref_errors < np.abs(popt))
    assert np.all(np.abs(params - popt)[pinned]
                  <= 0.01 * ref_errors[pinned]), (params, popt, ref_errors)
    # where curve_fit's covariance discards a direction (an error of 0), the
    # fitter keeps it, and the other errors depend on that choice
    if np.all(ref_errors > 0):
        oracle = analytic_errors(model, times, values, popt, sigma)
        np.testing.assert_allclose(errors[pinned], oracle[pinned], rtol=1e-3)
    return "same", popt


def on_bound(popt, bounds):
    return bool(np.any(np.isclose(popt, bounds[0], rtol=1e-6)
                       | np.isclose(popt, bounds[1], rtol=1e-6)))


def test_pair_fits_on_random_series():
    outcomes, bound_hits = Counter(), 0
    for seed in range(150):
        rng = np.random.default_rng(seed)
        times = np.sort(rng.uniform(0.0, 1e-3, int(rng.integers(8, 60))))
        coupling = rng.uniform(2e3, 3e4)
        tau_d = 10.0 ** rng.uniform(-5, -1)
        p_inf = rng.choice([0.0, 1.0, rng.uniform(0, 1)])
        shots = int(rng.integers(5, 200))
        truth = np.clip(pair_coupling_model(times, coupling, tau_d, p_inf),
                        0.0, 1.0)
        values = rng.binomial(shots, truth) / shots
        if np.ptp(values) == 0:
            continue
        fit = fit_pair_coupling(times, values, shots)
        names = ("coupling", "tau_d", "p_inf")
        ours = ([fit.parameters[k] for k in names],
                [fit.std_errors[k] for k in names], fit.residual_norm)
        # fit_pair_coupling's starts and bounds
        starts, nyquist = estimator_module._pair_starts(times, values)
        span = times.max() - times.min()
        bounds = ([0.0, 1e-3 * span, 0.0],
                  [nyquist, span / estimator_module.RATE_FLOOR, 1.0])
        outcome, popt = against_scipy(ours, pair_coupling_model, times,
                                      values, starts, bounds,
                                      binomial_sigma(values, shots))
        outcomes[outcome] += 1
        bound_hits += outcome == "same" and on_bound(popt, bounds)
    # the sin^2 fit is multimodal, and from these starts each fitter ends
    # in the lower minimum on some series: curve_fit on 3 of the 146, the
    # fitter on 21
    assert outcomes["same"] > 110 and bound_hits > 40
    assert outcomes["worse"] <= 3 and outcomes["better"] > 2 * outcomes["worse"]


@pytest.mark.parametrize("model", [decay, inverse])
def test_exponential_fits_on_random_series(model):
    outcomes, bound_hits = Counter(), 0
    for seed in range(150):
        rng = np.random.default_rng(seed)
        times = np.sort(rng.uniform(0.0, 1.0, int(rng.integers(2, 40))))
        tau = 10.0 ** rng.uniform(-3, 1)
        values = model(times, tau) + rng.normal(scale=0.05, size=times.size)
        span = times.max() - times.min()
        # fit_exponential's bound, or one above the best tau, where it ends
        lower = 1e-12 * span if seed % 3 else tau * rng.uniform(2.0, 5.0)
        tau0 = max(span * rng.uniform(0.1, 10.0), lower)
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            ours = estimator_module._exponential_fit(
                times, values, model.__name__, tau0, lower)
        bounds = ([lower], [span / estimator_module.RATE_FLOOR])
        outcome, popt = against_scipy(ours, model, times, values, [[tau0]],
                                      bounds)
        outcomes[outcome] += 1
        bound_hits += outcome == "same" and on_bound(popt, bounds)
    assert outcomes["worse"] == 0
    assert outcomes["same"] > 120 and bound_hits > 20


def test_a_start_outside_the_bounds_is_clipped_into_them():
    # curve_fit refuses a start outside its bounds; the fitter starts from
    # the nearest point inside them
    times = np.linspace(0.0, 1.0, 5)
    values = np.exp(-times)
    fit = estimator_module._exponential_fit
    assert (fit(times, values, "decay", 1e-14, 1e-12)
            == fit(times, values, "decay", 1e-12, 1e-12))
    outcome, _ = against_scipy(fit(times, values, "decay", 1e-14, 1e-12),
                               decay, times, values, [[1e-12]],
                               ([1e-12], [1.0 / estimator_module.RATE_FLOOR]))
    assert outcome == "same"
