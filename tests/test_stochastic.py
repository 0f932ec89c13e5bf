import math

import numpy as np
import pytest
import scipy.stats

from ionrewire.coupling import CouplingMatrix
from ionrewire.dynamics import scan_evolution
from ionrewire.lattice import apply_mask
from ionrewire.stochastic import (
    DeshelvingModel,
    GroupSeries,
    MeasurementModel,
    ProtocolResult,
    ShelvingProcess,
    ShotStreams,
    deshelve_probability,
    run_protocol,
    sample_deshelving_scan,
    sample_shelving,
    sample_shelving_decay,
    shelf_survival,
)

TWO_PI = 2 * np.pi


class TestShelfSurvival:
    def test_no_pumping(self):
        assert shelf_survival(0.0, ShelvingProcess()) == 1.0

    def test_one_time_constant(self):
        assert shelf_survival(55e-3, ShelvingProcess(tau_shelve=55e-3)) == pytest.approx(
            1 / math.e, rel=1e-12)

    def test_38ms_pulse_hits_half_shelving(self):
        p = 1.0 - shelf_survival(38e-3, ShelvingProcess(tau_shelve=55e-3))
        assert p == pytest.approx(0.50, abs=0.005)
        assert 0.30 <= p <= 0.50

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            shelf_survival(-1.0, ShelvingProcess())


class TestSampleShelving:
    def test_zero_beam_time_shelves_nothing(self):
        rng = np.random.default_rng(0)
        mask = sample_shelving(4, 0.0, ShelvingProcess(), rng)
        assert mask.to_string() == "QQQQ"

    def test_long_beam_time_shelves_everything(self):
        rng = np.random.default_rng(0)
        mask = sample_shelving(4, 1e6, ShelvingProcess(), rng)
        assert mask.to_string() == "SSSS"

    def test_configuration_counts_match_binomial(self):
        process = ShelvingProcess(tau_shelve=55e-3)
        beam_time = 55e-3 * math.log(2.0)  # p = 1/2 exactly
        rng = np.random.default_rng(2024)
        samples = 100_000
        shelf_counts = np.zeros(4, dtype=int)
        for _ in range(samples):
            mask = sample_shelving(3, beam_time, process, rng)
            shelf_counts[len(mask.shelved_indices)] += 1
        expected = samples * np.array([1, 3, 3, 1]) / 8.0
        sigma = np.sqrt(samples * (np.array([1, 3, 3, 1]) / 8.0)
                        * (1 - np.array([1, 3, 3, 1]) / 8.0))
        assert np.all(np.abs(shelf_counts - expected) < 4 * sigma)

    def test_deterministic_under_seeded_rng(self):
        a = sample_shelving(5, 30e-3, ShelvingProcess(), np.random.default_rng(7))
        b = sample_shelving(5, 30e-3, ShelvingProcess(), np.random.default_rng(7))
        assert a.to_string() == b.to_string()


class TestDeshelving:
    def test_no_exposure(self):
        assert deshelve_probability(0.0, TWO_PI * 76e3, DeshelvingModel()) == 0.0

    def test_reference_point(self):
        p = deshelve_probability(0.5, TWO_PI * 76e3, DeshelvingModel())
        assert p == pytest.approx(1 - 1 / math.e, rel=1e-12)

    def test_doubling_rabi_quarters_tau(self):
        model = DeshelvingModel()
        assert model.tau_g(TWO_PI * 152e3) == pytest.approx(0.125, rel=1e-12)

    def test_monotone_in_time_and_intensity(self):
        model = DeshelvingModel()
        ts = np.linspace(0, 2.0, 40)
        ps = [deshelve_probability(t, TWO_PI * 76e3, model) for t in ts]
        assert np.all(np.diff(ps) >= 0)
        omegas = TWO_PI * np.linspace(10e3, 800e3, 40)
        ps = [deshelve_probability(0.1, w, model) for w in omegas]
        assert np.all(np.diff(ps) >= 0)

    def test_tau_scaling_law_is_exact(self):
        model = DeshelvingModel(exponent=2.0)
        omegas = TWO_PI * np.array([38e3, 76e3, 152e3, 304e3, 608e3])
        products = np.array([model.tau_g(w) * w**2 for w in omegas])
        assert np.allclose(products, products[0], rtol=1e-12)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            DeshelvingModel(reference_tau=-1.0)
        with pytest.raises(ValueError):
            DeshelvingModel().tau_g(0.0)


class TestShotStreams:
    """The block streams against numpy's own per-shot generators."""

    # both sides of 2**32, where a shot index becomes two entropy words, and
    # the mask artifact's stream 2**48
    SHOTS = (0, 1, 2, 1000, 2**32 - 1, 2**32, 2**32 + 1, 2**48, 2**63 + 7)

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 5])
    def test_draws_match_default_rng(self, seed):
        streams = ShotStreams(seed, np.array(self.SHOTS, dtype=np.uint64))
        words = streams.next_uint64(3)
        doubles = streams.random(5)
        for i, shot in enumerate(self.SHOTS):
            rng = np.random.default_rng([seed, shot])
            assert np.array_equal(words[i], rng.bit_generator.random_raw(3))
            assert np.array_equal(doubles[i], rng.random(5))

    def test_exponential_continuation(self):
        streams = ShotStreams(20240802, np.arange(40))
        shelving = streams.random(2)
        for i, continued in zip(range(40), streams.generators(np.arange(40))):
            rng = np.random.default_rng([20240802, i])
            assert np.array_equal(shelving[i], rng.random(2))
            assert np.array_equal(continued.exponential(0.5, size=3),
                                  rng.exponential(0.5, size=3))
            assert np.array_equal(continued.random(3), rng.random(3))

    def test_continuation_leaves_the_block_in_place(self):
        streams = ShotStreams(5, [7, 8])
        next(streams.generators([0])).random(10)
        assert np.array_equal(streams.random(1)[0],
                              np.random.default_rng([5, 7]).random(1))

    def test_empty_block(self):
        assert ShotStreams(3, []).random(2).shape == (0, 2)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            ShotStreams(-1, [0])


def reference_protocol(coupling, beam_time, times, measurement, seed,
                       deshelving=None, drive_rabi=None):
    """Per-shot protocol, one generator per shot, as the block sampler must
    reproduce it: (config, outcome, intact) for every shot in order."""
    n, shots = coupling.n_ions, measurement.shots
    tables = {}
    rows = []
    for ti, t in enumerate(times):
        for s in range(shots):
            rng = np.random.default_rng([seed, ti * shots + s])
            mask = sample_shelving(n, beam_time, ShelvingProcess(), rng)
            config = mask.to_string()
            if config not in tables:
                series = scan_evolution(apply_mask(coupling, mask), times)
                tables[config] = np.cumsum(series.probabilities, axis=1)
            k = mask.survivors.size
            intact = True
            if deshelving is not None and mask.shelved_indices.size:
                returns = rng.exponential(deshelving.tau_g(drive_rabi),
                                          size=mask.shelved_indices.size)
                intact = bool(np.all(returns > t))
            outcome = min(int(np.searchsorted(tables[config][ti], rng.random(),
                                              side="right")), 2**k - 1)
            if measurement.spam_error > 0.0 and k > 0:
                flips = rng.random(k) < measurement.spam_error
                outcome ^= int(flips @ (1 << np.arange(k)))
            rows.append((config, outcome, intact))
    return rows


class TestBlockSamplers:
    @pytest.mark.parametrize("spam,deshelve", [(0.0, False), (0.05, False),
                                               (0.3, True)])
    def test_protocol_matches_per_shot_reference(self, spam, deshelve):
        pairs = {(0, 1): TWO_PI * 460.0, (0, 2): TWO_PI * 430.0,
                 (1, 2): TWO_PI * 480.0}
        coupling = CouplingMatrix.from_pairs(3, pairs)
        times = np.linspace(0.0, 1e-3, 5)
        measurement = MeasurementModel(shots=60, spam_error=spam)
        deshelving = DeshelvingModel(reference_tau=2e-3) if deshelve else None
        drive = TWO_PI * 76e3 if deshelve else None
        result = run_protocol(coupling, beam_time=40e-3, times=times,
                              shelving=ShelvingProcess(),
                              measurement=measurement, seed=4242,
                              deshelving=deshelving, drive_rabi=drive)
        expected = reference_protocol(coupling, 40e-3, times, measurement,
                                      4242, deshelving, drive)
        records = result.records
        got = [(records.configs[c], o, i) for c, o, i in zip(
            records.config.tolist(), records.outcome.tolist(),
            records.intact.tolist())]
        assert got == expected
        assert records.shot.tolist() == list(range(len(expected)))
        assert list(records.configs) == sorted(result.groups)
        if deshelve:
            assert not records.intact.all()

    def test_shelving_decay_matches_per_shot_draws(self):
        process = ShelvingProcess(tau_shelve=55e-3)
        times = np.linspace(0.0, 0.2, 6)
        got = sample_shelving_decay(3, times, process, shots=25, seed=91)
        for ti, t in enumerate(times):
            in_ground = sum(
                3 - sample_shelving(3, float(t), process, np.random.default_rng(
                    [91, ti * 25 + s])).shelved_indices.size
                for s in range(25))
            assert got[ti] == in_ground

    def test_deshelving_scan_matches_per_shot_draws(self):
        model = DeshelvingModel()
        omegas = [TWO_PI * 76e3, TWO_PI * 152e3]
        scan = sample_deshelving_scan(model, omegas, points=4,
                                      max_time_factor=3.0, shots=30, seed=6)
        for oi, omega in enumerate(omegas):
            tau = model.tau_g(omega)
            for ti, t in enumerate(np.linspace(0.0, 3.0 * tau, 4)):
                p = 1.0 - math.exp(-t / tau)
                returned = sum(np.random.default_rng(
                    [6, (oi * 4 + ti) * 30 + s]).random() < p for s in range(30))
                assert scan.times[oi, ti] == t
                assert scan.p_returned[oi, ti] == p
                assert scan.returned[oi, ti] == returned


def uniform_triangle_coupling(j=TWO_PI * 450.0):
    return CouplingMatrix.uniform(3, j)


class TestProtocol:
    def test_no_shelving_single_group_matches_dynamics(self):
        coupling = CouplingMatrix.uniform(2, TWO_PI * 750.0)
        times = np.array([0.4e-3])
        shots = 100_000
        result = run_protocol(coupling, beam_time=0.0, times=times,
                              shelving=ShelvingProcess(),
                              measurement=MeasurementModel(shots=shots, spam_error=0.0),
                              seed=321)
        assert list(result.groups) == ["QQ"]
        group = result.groups["QQ"]
        assert group.n_total[0] == shots and group.n_intact[0] == shots

        exact = scan_evolution(
            apply_mask(coupling, group_mask("QQ")), times).probabilities[0]
        observed = group.counts[0]
        expected = shots * exact
        keep = expected > 1e-12
        chi2 = np.sum((observed[keep] - expected[keep]) ** 2 / expected[keep])
        assert chi2 < scipy.stats.chi2.ppf(0.9999, df=int(keep.sum()) - 1)
        assert observed[~keep].sum() == 0

    def test_groups_partition_all_shots(self):
        coupling = uniform_triangle_coupling()
        times = np.linspace(0, 1e-3, 4)
        shots = 300
        result = run_protocol(coupling, beam_time=28e-3, times=times,
                              shelving=ShelvingProcess(),
                              measurement=MeasurementModel(shots=shots, spam_error=0.02),
                              seed=11)
        totals = sum(g.n_total for g in result.groups.values())
        assert np.all(totals == shots)
        assert len(result.records) == shots * times.size
        # every record lands in exactly one group
        assert sum(g.n_total.sum() for g in result.groups.values()) == len(result.records)

    def test_bitwise_reproducible(self):
        coupling = uniform_triangle_coupling()
        times = np.linspace(0, 1e-3, 3)
        kwargs = dict(beam_time=28e-3, times=times, shelving=ShelvingProcess(),
                      measurement=MeasurementModel(shots=120, spam_error=0.04),
                      seed=99, deshelving=DeshelvingModel(),
                      drive_rabi=TWO_PI * 76e3)
        a = run_protocol(coupling, **kwargs)
        b = run_protocol(coupling, **kwargs)
        assert a.records.configs == b.records.configs
        for column in ("shot", "time_index", "config", "outcome", "intact"):
            assert np.array_equal(getattr(a.records, column),
                                  getattr(b.records, column))
        for config in a.groups:
            assert np.array_equal(a.groups[config].counts, b.groups[config].counts)

    def test_intact_fraction_with_deshelving(self):
        # single always-shelved ion, 3 ms evolution: return probability
        # 1 - exp(-0.003/0.5) = 0.0060, intact fraction expected 0.994
        coupling = CouplingMatrix(n_ions=1, j=np.zeros((1, 1)))
        times = np.array([3e-3])
        shots = 5000
        result = run_protocol(coupling, beam_time=1e3, times=times,
                              shelving=ShelvingProcess(),
                              measurement=MeasurementModel(shots=shots, spam_error=0.0),
                              seed=17, deshelving=DeshelvingModel(),
                              drive_rabi=TWO_PI * 76e3)
        group = result.groups["S"]
        fraction = group.n_intact[0] / group.n_total[0]
        expected = math.exp(-3e-3 / 0.5)
        sigma = math.sqrt(expected * (1 - expected) / shots)
        assert abs(fraction - expected) < 4 * sigma

    def test_deshelving_disabled_keeps_every_shot_intact(self):
        coupling = uniform_triangle_coupling()
        result = run_protocol(coupling, beam_time=40e-3,
                              times=np.array([2e-3]),
                              shelving=ShelvingProcess(),
                              measurement=MeasurementModel(shots=400, spam_error=0.0),
                              seed=23)
        assert result.records.intact.all()

    def test_single_shelved_group_shows_pair_oscillation(self):
        pairs = {(0, 1): TWO_PI * 460.0, (0, 2): TWO_PI * 430.0,
                 (1, 2): TWO_PI * 480.0}
        coupling = CouplingMatrix.from_pairs(3, pairs)
        j12 = pairs[(0, 1)]
        times = np.array([0.2e-3, 0.5e-3, 0.9e-3])
        shots = 4000
        result = run_protocol(coupling, beam_time=28e-3, times=times,
                              shelving=ShelvingProcess(),
                              measurement=MeasurementModel(shots=shots, spam_error=0.0),
                              seed=2718)
        group = result.groups["QQS"]
        assert list(group.survivors) == [0, 1]
        assert np.all(group.n_intact > 300)
        observed = group.outcome_frequency("11")
        expected = np.sin(j12 * times) ** 2
        sigma = np.sqrt(np.maximum(expected * (1 - expected), 0.01) / group.n_intact)
        assert np.all(np.abs(observed - expected) < 4 * sigma)

    def test_deshelving_requires_drive(self):
        coupling = uniform_triangle_coupling()
        with pytest.raises(ValueError):
            run_protocol(coupling, beam_time=1e-3, times=np.array([1e-3]),
                         shelving=ShelvingProcess(),
                         measurement=MeasurementModel(shots=10),
                         seed=0, deshelving=DeshelvingModel())

    def test_empty_bin_frequencies_are_nan(self):
        series = GroupSeries(config="Q", survivors=np.array([0]),
                             times=np.array([0.0, 1.0]),
                             counts=np.array([[3, 1], [0, 0]]),
                             n_total=np.array([4, 0]),
                             n_intact=np.array([4, 0]))
        freq = series.frequencies()
        assert freq[0, 0] == 0.75
        assert np.isnan(freq[1]).all()


def group_mask(config: str):
    from ionrewire.lattice import ShelveMask
    return ShelveMask.from_string(config)
