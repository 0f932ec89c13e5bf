import numpy as np
import pytest

from ionrewire.estimator import (
    FitError,
    binomial_sigma,
    fit_exponential,
    fit_pair_coupling,
    fit_power_law,
    pair_coupling_model,
)

TWO_PI = 2 * np.pi


def synthetic_oscillation(j, tau_d, p_inf, times):
    return pair_coupling_model(times, j, tau_d, p_inf)


class TestPairCoupling:
    times = np.linspace(0.0, 3e-3, 31)
    shots = 150

    def test_noiseless_round_trip(self):
        j, tau_d, p_inf = TWO_PI * 750.0, 5.5e-3, 0.5
        values = synthetic_oscillation(j, tau_d, p_inf, self.times)
        result = fit_pair_coupling(self.times, values, self.shots)
        assert result.parameters["coupling"] == pytest.approx(j, rel=1e-6)
        assert result.parameters["tau_d"] == pytest.approx(tau_d, rel=1e-4)
        assert result.parameters["p_inf"] == pytest.approx(p_inf, abs=1e-6)

    def test_binomial_noise_coverage(self):
        # experiment-scale statistics: 150 shots per point
        j, tau_d, p_inf = TWO_PI * 750.0, 5.5e-3, 0.5
        truth = synthetic_oscillation(j, tau_d, p_inf, self.times)
        shots = 150
        hits = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            observed = rng.binomial(shots, truth) / shots
            result = fit_pair_coupling(self.times, observed, shots=shots)
            err = abs(result.parameters["coupling"] - j)
            if err <= 3 * result.std_errors["coupling"]:
                hits += 1
        assert hits >= 95

    def test_constant_series_raises_fit_error(self):
        with pytest.raises(FitError):
            fit_pair_coupling(self.times, np.full_like(self.times, 0.25),
                              self.shots)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            fit_pair_coupling(self.times[:5], np.sin(self.times[:5]), self.shots)

    @pytest.mark.parametrize("order", ["reversed", "repeated", "unsorted"])
    def test_time_points_must_increase(self, order):
        values = synthetic_oscillation(TWO_PI * 750.0, 5.5e-3, 0.5, self.times)
        times = {"reversed": self.times[::-1],
                 "repeated": np.full_like(self.times, 1e-3),
                 "unsorted": np.roll(self.times, 1)}[order]
        with pytest.raises(ValueError, match="strictly increasing"):
            fit_pair_coupling(times, values, self.shots)

    def test_nan_points_are_ignored(self):
        j = TWO_PI * 600.0
        values = synthetic_oscillation(j, np.inf, 0.5, self.times)
        values = np.where(np.arange(values.size) % 7 == 3, np.nan, values)
        result = fit_pair_coupling(self.times, values, self.shots)
        assert result.parameters["coupling"] == pytest.approx(j, rel=1e-6)

    def test_time_unit_rescaling(self):
        j, tau_d, p_inf = TWO_PI * 750.0, 5.5e-3, 0.5
        values = synthetic_oscillation(j, tau_d, p_inf, self.times)
        seconds = fit_pair_coupling(self.times, values, self.shots)
        millis = fit_pair_coupling(self.times * 1e3, values, self.shots)
        assert millis.parameters["coupling"] == pytest.approx(
            seconds.parameters["coupling"] / 1e3, rel=1e-6)
        assert millis.parameters["p_inf"] == pytest.approx(
            seconds.parameters["p_inf"], abs=1e-9)

    def test_optimum_beats_every_start(self):
        j, tau_d, p_inf = TWO_PI * 430.0, 5.5e-3, 0.5
        rng = np.random.default_rng(8)
        values = np.clip(synthetic_oscillation(j, tau_d, p_inf, self.times)
                         + rng.normal(scale=0.03, size=self.times.size), 0, 1)
        shots = 150
        result = fit_pair_coupling(self.times, values, shots=shots)
        sigma = binomial_sigma(values, shots)

        span = self.times.max()
        dt = np.median(np.diff(self.times))
        spectrum = np.abs(np.fft.rfft(values - values.mean()))
        freqs = np.fft.rfftfreq(self.times.size, dt)
        peak = 1 + int(np.argmax(spectrum[1:]))
        for k in (-1, 0, 1):
            j0 = np.pi * max(freqs[peak] + k * freqs[1], 0.25 * freqs[1])
            start_resid = np.linalg.norm(
                (pair_coupling_model(self.times, j0, 2 * span,
                                     np.clip(values.mean(), 0.05, 0.95))
                 - values) / sigma)
            assert result.residual_norm <= start_resid + 1e-9


class TestExponential:
    def test_planted_decay_recovered_exactly(self):
        times = np.linspace(0.0, 0.25, 40)
        values = np.exp(-times / 55e-3)
        result = fit_exponential(times, values, model="decay")
        assert result.parameters["tau"] == pytest.approx(55e-3, rel=1e-9)

    def test_planted_inverse_recovered_exactly(self):
        times = np.linspace(0.0, 2.0, 40)
        values = 1.0 - np.exp(-times / 0.5)
        result = fit_exponential(times, values, model="inverse")
        assert result.parameters["tau"] == pytest.approx(0.5, rel=1e-9)

    def test_noisy_decay_within_three_sigma(self):
        times = np.linspace(0.0, 1.5, 30)
        rng = np.random.default_rng(3)
        values = np.exp(-times / 0.5) * (1 + rng.normal(scale=0.05, size=times.size))
        result = fit_exponential(times, values, model="decay")
        assert abs(result.parameters["tau"] - 0.5) < 3 * result.std_errors["tau"]

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            fit_exponential(np.array([]), np.array([]), model="decay")

    @pytest.mark.parametrize("model", ["decay", "inverse"])
    def test_one_time_point_repeated_is_a_fit_error(self, model):
        with pytest.raises(FitError, match="2 distinct time points"):
            fit_exponential(np.full(16, 1e-3), np.linspace(0.9, 0.95, 16),
                            model=model)

    def test_guess_skips_usable_points_at_one_time(self):
        # only the two points at 1 ms are usable for the log-linear guess;
        # a line through them is not drawn, so numpy warns of nothing
        result = fit_exponential(np.array([1e-3, 1e-3, 5.0]),
                                 np.array([0.98, 0.97, 0.0]), model="decay")
        assert result.parameters["tau"] == pytest.approx(0.0395, rel=1e-3)

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            fit_exponential(np.array([0.0, 1.0]), np.array([1.0, 0.5]),
                            model="gaussian")


class TestPowerLaw:
    def test_exact_inverse_square(self):
        omegas = TWO_PI * np.array([38e3, 76e3, 152e3, 304e3, 608e3])
        taus = 0.5 * (TWO_PI * 76e3) ** 2 / omegas**2
        result = fit_power_law(omegas, taus)
        assert result.parameters["exponent"] == pytest.approx(-2.0, abs=1e-9)
        assert result.std_errors["exponent"] < 1e-9

    def test_exact_inverse_linear(self):
        omegas = TWO_PI * np.array([10e3, 30e3, 90e3])
        taus = 7.0 / omegas
        result = fit_power_law(omegas, taus)
        assert result.parameters["exponent"] == pytest.approx(-1.0, abs=1e-9)

    def test_noisy_scan_within_three_sigma(self):
        rng = np.random.default_rng(4)
        omegas = TWO_PI * np.geomspace(20e3, 600e3, 8)
        taus = 3.0e8 / omegas**2 * (1 + rng.normal(scale=0.05, size=8))
        result = fit_power_law(omegas, taus)
        assert abs(result.parameters["exponent"] + 2.0) < 3 * result.std_errors["exponent"]

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            fit_power_law(np.array([1.0, 2.0]), np.array([1.0, 0.5]))

    @pytest.mark.parametrize("omegas", [[76e3] * 3, [76e3] * 5])
    def test_one_intensity_repeated_is_a_fit_error(self, omegas):
        # the taus differ, but a line through points at one intensity has
        # no slope; numpy warns of nothing
        with pytest.raises(FitError, match="2 distinct intensities"):
            fit_power_law(TWO_PI * np.array(omegas),
                          np.linspace(0.4, 0.6, len(omegas)))

    def test_two_distinct_intensities_fit(self):
        result = fit_power_law(np.array([1.0, 1.0, 2.0]),
                               np.array([4.0, 4.0, 1.0]))
        assert result.parameters["exponent"] == pytest.approx(-2.0, abs=1e-12)

    def test_nonpositive_values_rejected(self):
        with pytest.raises(ValueError):
            fit_power_law(np.array([1.0, 2.0, 3.0]), np.array([1.0, -0.5, 0.2]))

    def test_amplitude_recovered(self):
        omegas = np.array([1.0, 2.0, 4.0, 8.0])
        taus = 5.0 / omegas**2
        result = fit_power_law(omegas, taus)
        assert result.parameters["amplitude"] == pytest.approx(5.0, rel=1e-9)
