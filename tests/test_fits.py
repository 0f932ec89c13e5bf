"""The pair fit's Nyquist bound, and the coverage harness of its errors."""

import math

import numpy as np
import pytest

from ionrewire.estimator import (
    _pair_fit,
    binomial_sigma,
    fit_pair_coupling,
    pair_coupling_model,
)
from oracles import fit_coverage


def test_an_aliased_series_is_fitted_below_the_nyquist_limit():
    # on a uniform grid of step dt, J and its alias pi / dt - J take the same
    # values, and J up to the limit pi / (2 dt) is resolved. Near the limit
    # one FFT start lies above it, and a fit from there ends on the alias at
    # the same residual norm: an unbounded fit returned 1.07 of the limit
    times = np.linspace(0.0, 3e-3, 31)
    limit = math.pi / (2 * times[1])
    for coupling in (0.93 * limit, 1.07 * limit):
        values = pair_coupling_model(times, coupling, 5.5e-3, 0.5)
        fit = fit_pair_coupling(times, values, 150)
        assert fit.parameters["coupling"] == pytest.approx(0.93 * limit,
                                                           rel=1e-6)
        assert fit.residual_norm < 1e-6


def test_a_fit_past_the_limit_ends_on_it():
    # on a jittered grid, a J above the limit has no exact alias below it;
    # from a start below the limit, the fit stops at the limit
    rng = np.random.default_rng(5)
    times = np.sort(np.linspace(0.0, 3e-3, 31)
                    + rng.uniform(-2e-5, 2e-5, 31))
    times[0] = 0.0
    limit = math.pi / (2 * np.median(np.diff(times)))
    values = pair_coupling_model(times, 1.02 * limit, 5.5e-3, 0.5)
    (coupling, _, _), _, _ = _pair_fit(times, values,
                                       binomial_sigma(values, 150),
                                       (0.98 * limit, 6e-3, 0.5), limit)
    assert coupling == limit


def test_fit_coverage_counts_every_pair_fit(tmp_path):
    # fig4e-g fits three pairs a run; the fractions are not checked against
    # 68% and 95%, which the fits do not yet meet
    within_1, within_2, fits = fit_coverage("fig4e-g", range(2), tmp_path)
    assert fits == 6
    assert 0.0 <= within_1 <= within_2 <= 1.0
