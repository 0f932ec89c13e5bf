import ast
import itertools
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

import oracles
from ionrewire import stochastic
from ionrewire.coupling import InteractionGraph
from ionrewire.dynamics import DecoherenceModel, scan_evolution
from ionrewire.lattice import apply_mask, power_law_coupling, triangular_array
from ionrewire.stochastic import (
    DeshelvingModel,
    GroupSeries,
    MeasurementModel,
    ProtocolResult,
    ShelvingProcess,
    deshelve_probability,
    run_protocol,
    sample_deshelving_scan,
    sample_shelving,
    sample_shelving_decay,
    shelf_survival,
)

TWO_PI = 2 * np.pi
SOURCE = Path(stochastic.__file__).parent


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
        mask = sample_shelving(4, 0.0, ShelvingProcess(), 0)
        assert mask.to_string() == "QQQQ"

    def test_long_beam_time_shelves_everything(self):
        mask = sample_shelving(4, 1e6, ShelvingProcess(), 0)
        assert mask.to_string() == "SSSS"

    @pytest.mark.parametrize("seed", [0, 7, 2**32, 2**63, 12345678901234567890])
    def test_draws_the_generator_rule_from_its_stream(self, seed):
        # the oracle's rule on numpy's own generator for the mask's stream,
        # which is apart from the block samplers' stream 0
        assert stochastic.MASK_STREAM == 2**48
        process = ShelvingProcess(tau_shelve=55e-3)
        for n, beam_time in itertools.product((0, 1, 3, 14, 40),
                                              (20e-3, 55e-3)):
            rng = np.random.default_rng([seed, 2**48])
            expected = oracles.sample_shelving(n, beam_time, process, rng)
            got = sample_shelving(n, beam_time, process, seed)
            assert got == expected

    def test_configuration_counts_match_binomial(self):
        # the rule on one generator; the test above pins the library's draws
        # to it seed by seed
        process = ShelvingProcess(tau_shelve=55e-3)
        beam_time = 55e-3 * math.log(2.0)  # p = 1/2 exactly
        rng = np.random.default_rng(2024)
        samples = 100_000
        shelf_counts = np.zeros(4, dtype=int)
        for _ in range(samples):
            mask = oracles.sample_shelving(3, beam_time, process, rng)
            shelf_counts[len(mask.shelved_indices)] += 1
        expected = samples * np.array([1, 3, 3, 1]) / 8.0
        sigma = np.sqrt(samples * (np.array([1, 3, 3, 1]) / 8.0)
                        * (1 - np.array([1, 3, 3, 1]) / 8.0))
        assert np.all(np.abs(shelf_counts - expected) < 4 * sigma)

    def test_deterministic_under_seeded_rng(self):
        a = sample_shelving(5, 30e-3, ShelvingProcess(), 7)
        b = sample_shelving(5, 30e-3, ShelvingProcess(), 7)
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


class TestBlockSamplers:
    @pytest.mark.parametrize("spam,deshelve", [(0.0, False), (0.05, False),
                                               (0.3, True)])
    def test_protocol_matches_per_shot_reference(self, spam, deshelve):
        pairs = {(0, 1): TWO_PI * 460.0, (0, 2): TWO_PI * 430.0,
                 (1, 2): TWO_PI * 480.0}
        coupling = InteractionGraph.from_pairs(3, pairs)
        times = np.linspace(0.0, 1e-3, 5)
        measurement = MeasurementModel(shots=60, spam_error=spam)
        deshelving = DeshelvingModel(reference_tau=2e-3) if deshelve else None
        drive = TWO_PI * 76e3 if deshelve else None
        result = run_protocol(coupling, beam_time=40e-3, times=times,
                              shelving=ShelvingProcess(),
                              measurement=measurement, seed=4242,
                              deshelving=deshelving, drive_rabi=drive)
        expected = oracles.reference_protocol(coupling, 40e-3, times,
                                              measurement, 4242, deshelving,
                                              drive)
        records = result.records
        got = [(records.configs[c], o, i) for c, o, i in zip(
            records.config.tolist(), records.outcome.tolist(),
            records.intact.tolist())]
        assert got == expected
        assert records.shot.tolist() == list(range(len(expected)))
        assert list(result.groups) == list(records.configs) == sorted(
            result.groups)
        if deshelve:
            assert not records.intact.all()

    def test_shelving_decay_matches_per_shot_draws(self):
        process = ShelvingProcess(tau_shelve=55e-3)
        times = np.linspace(0.0, 0.2, 6)
        got = sample_shelving_decay(3, times, process, shots=25, seed=91)
        expected = oracles.reference_shelving_decay(3, times, process, 25, 91)
        assert got.tolist() == expected

    def test_deshelving_scan_matches_per_shot_draws(self):
        model = DeshelvingModel()
        omegas = [TWO_PI * 76e3, TWO_PI * 152e3]
        scan = sample_deshelving_scan(model, omegas, points=4,
                                      max_time_factor=3.0, shots=30, seed=6)
        expected = oracles.reference_deshelving_scan(model, omegas, 4, 3.0,
                                                     30, 6)
        for oi, curve in enumerate(expected):
            for ti, (t, p, returned) in enumerate(curve):
                assert scan.times[oi, ti] == t
                assert scan.p_returned[oi, ti] == p
                assert scan.returned[oi, ti] == returned

    def test_negative_seed_rejected(self):
        # numpy's SeedSequence takes nonnegative entropy only
        with pytest.raises(ValueError):
            run_protocol(uniform_triangle_coupling(), beam_time=28e-3,
                         times=np.array([1e-3]), shelving=ShelvingProcess(),
                         measurement=MeasurementModel(shots=10), seed=-1)


def uniform_triangle_coupling(j=TWO_PI * 450.0):
    return InteractionGraph.uniform(3, j)


class TestProtocol:
    def test_no_shelving_single_group_matches_dynamics(self):
        coupling = InteractionGraph.uniform(2, TWO_PI * 750.0)
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

    @pytest.mark.parametrize("n", [9, 11])
    def test_groups_come_in_label_order(self, n):
        # past 8 ions a configuration packs into two bytes, and the sampled
        # configurations include some that share their first byte
        result = run_protocol(InteractionGraph.uniform(n, TWO_PI * 450.0),
                              beam_time=38e-3, times=np.array([0.0, 1e-3]),
                              shelving=ShelvingProcess(),
                              measurement=MeasurementModel(shots=200),
                              seed=23)
        configs = list(result.records.configs)
        assert list(result.groups) == configs == sorted(configs)
        assert len({config[:8] for config in configs}) < len(configs)

    def test_distinct_rows_come_in_label_order(self):
        rng = np.random.default_rng(5)
        for n in range(18):
            flags = rng.random((int(rng.integers(1, 300)), n)) < 0.5
            rows, index, _, _ = stochastic._distinct_rows(flags)
            labels = ["".join("S" if f else "Q" for f in row) for row in rows]
            assert labels == sorted(set(labels))
            assert np.array_equal(rows[index], flags)

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

    @pytest.mark.parametrize("k", [1, 3])
    def test_intact_fraction_with_deshelving(self, k):
        # k always-shelved ions, 3 ms evolution: each returns with probability
        # 1 - exp(-0.003/0.5) = 0.0060, so a shot stays intact with
        # probability exp(-k * 0.003/0.5)
        coupling = InteractionGraph(survivors=list(range(k)),
                                    couplings=np.zeros((k, k)))
        times = np.array([3e-3])
        shots = 5000
        result = run_protocol(coupling, beam_time=1e3, times=times,
                              shelving=ShelvingProcess(),
                              measurement=MeasurementModel(shots=shots, spam_error=0.0),
                              seed=17, deshelving=DeshelvingModel(),
                              drive_rabi=TWO_PI * 76e3)
        group = result.groups["S" * k]
        fraction = group.n_intact[0] / group.n_total[0]
        expected = math.exp(-k * 3e-3 / 0.5)
        sigma = math.sqrt(expected * (1 - expected) / shots)
        assert abs(fraction - expected) < 4 * sigma

    def test_deshelving_changes_only_which_shots_are_intact(self):
        pairs = {(0, 1): TWO_PI * 460.0, (0, 2): TWO_PI * 430.0,
                 (1, 2): TWO_PI * 480.0}
        coupling = InteractionGraph.from_pairs(3, pairs)
        kwargs = dict(beam_time=40e-3, times=np.linspace(0.0, 1e-3, 5),
                      shelving=ShelvingProcess(),
                      measurement=MeasurementModel(shots=60, spam_error=0.3),
                      seed=4242)
        off = run_protocol(coupling, **kwargs)
        on = run_protocol(coupling, deshelving=DeshelvingModel(reference_tau=2e-3),
                          drive_rabi=TWO_PI * 76e3, **kwargs)
        assert on.records.configs == off.records.configs
        for column in ("shot", "time_index", "config", "outcome"):
            assert np.array_equal(getattr(on.records, column),
                                  getattr(off.records, column))
        assert off.records.intact.all() and not on.records.intact.all()

    def test_zero_spin_graph_puts_every_shot_in_one_group(self):
        graph = InteractionGraph(survivors=[], couplings=np.zeros((0, 0)))
        times = np.linspace(0, 1e-3, 4)
        deshelving = dict(deshelving=DeshelvingModel(),
                          drive_rabi=TWO_PI * 76e3)
        for kwargs in ({}, deshelving):
            result = run_protocol(graph, beam_time=28e-3, times=times,
                                  shelving=ShelvingProcess(),
                                  measurement=MeasurementModel(shots=50,
                                                               spam_error=0.04),
                                  seed=5, **kwargs)
            assert list(result.groups) == [""]
            group = result.groups[""]
            assert np.all(group.n_total == 50)
            assert np.array_equal(group.counts[:, 0], group.n_intact)
            assert np.all(result.records.outcome == 0)
            assert result.records.intact.all()

    def test_group_survivors_keep_the_graph_labels(self):
        pairs = {(0, 1): TWO_PI * 460.0, (0, 2): TWO_PI * 430.0,
                 (1, 2): TWO_PI * 480.0}
        graph = apply_mask(InteractionGraph.from_pairs(3, pairs),
                           group_mask("SQQ"))
        result = run_protocol(graph, beam_time=28e-3, times=np.array([1e-3]),
                              shelving=ShelvingProcess(),
                              measurement=MeasurementModel(shots=200, spam_error=0.0),
                              seed=8)
        assert list(result.groups["QQ"].survivors) == [1, 2]
        assert list(result.groups["SQ"].survivors) == [2]

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
        coupling = InteractionGraph.from_pairs(3, pairs)
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


class TestEvolvedSeries:
    PAIRS = {(0, 1): TWO_PI * 460.0, (0, 2): TWO_PI * 430.0,
             (1, 2): TWO_PI * 480.0}
    TIMES = np.linspace(0.0, 1e-3, 5)

    def protocol(self, graph, **kwargs):
        return run_protocol(graph, beam_time=28e-3, times=self.TIMES,
                            shelving=ShelvingProcess(),
                            measurement=MeasurementModel(shots=60,
                                                         spam_error=0.05),
                            seed=4242, **kwargs)

    @pytest.mark.parametrize("decoherence", [None, DecoherenceModel(2e-3)])
    @pytest.mark.parametrize("deshelve", [False, True])
    def test_reused_series_gives_the_same_shots(self, monkeypatch,
                                                decoherence, deshelve):
        graph = InteractionGraph.from_pairs(3, self.PAIRS)
        kwargs = dict(decoherence=decoherence)
        if deshelve:
            kwargs.update(deshelving=DeshelvingModel(reference_tau=2e-3),
                          drive_rabi=TWO_PI * 76e3)
        expected = self.protocol(graph, **kwargs)
        evolved = scan_evolution(graph, self.TIMES, model=decoherence)
        before = evolved.probabilities.copy()

        scanned = []

        def counting_scan(reduced, times, **scan_kwargs):
            scanned.append(reduced.n_spins)
            return scan_evolution(reduced, times, **scan_kwargs)

        monkeypatch.setattr(stochastic, "scan_evolution", counting_scan)
        result = self.protocol(graph, evolved=evolved, **kwargs)

        assert "QQQ" in result.groups
        assert 3 not in scanned and len(scanned) == len(result.groups) - 1
        assert np.array_equal(evolved.probabilities, before)
        assert result.records.configs == expected.records.configs
        for column in ("shot", "time_index", "config", "outcome", "intact"):
            assert np.array_equal(getattr(result.records, column),
                                  getattr(expected.records, column))
        assert list(result.groups) == list(expected.groups)
        for config, group in result.groups.items():
            for field in ("survivors", "times", "counts", "n_total",
                          "n_intact"):
                assert np.array_equal(getattr(group, field),
                                      getattr(expected.groups[config], field))

    @pytest.mark.parametrize("mismatch", ["times", "spins"])
    def test_mismatched_series_rejected(self, mismatch):
        graph = InteractionGraph.from_pairs(3, self.PAIRS)
        if mismatch == "times":
            evolved = scan_evolution(graph, self.TIMES[:-1])
        else:
            evolved = scan_evolution(apply_mask(graph, group_mask("QQS")),
                                     self.TIMES)
        with pytest.raises(ValueError, match="evolved series"):
            self.protocol(graph, evolved=evolved)

    def test_reused_series_adds_no_table_of_its_size(self):
        # 12 survivors, every shot unshelved: the shot counts are the one
        # table as large as the series that run_protocol allocates
        graph = power_law_coupling(triangular_array(3, 4),
                                   strength=TWO_PI * 800.0, exponent=1.0)
        times = np.linspace(0.0, 2e-3, 61)
        decoherence = DecoherenceModel(1.5e-3)
        evolved = scan_evolution(graph, times, model=decoherence)
        tracemalloc.start()
        try:
            run_protocol(graph, beam_time=0.0, times=times,
                         shelving=ShelvingProcess(),
                         measurement=MeasurementModel(shots=30,
                                                      spam_error=0.02),
                         seed=5, decoherence=decoherence, evolved=evolved)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * evolved.probabilities.nbytes


SAMPLERS = ("sample_shelving", "run_protocol", "sample_shelving_decay",
            "sample_deshelving_scan")
# names and constants of a stream hash or generator built by hand: numpy's
# SeedSequence hash and PCG64 multiplier, and numpy's own classes behind
# default_rng
STREAM_NAMES = {"ShotStreams", "_seed_sequence_state", "_mulhi64",
                "SeedSequence", "PCG64", "Generator", "RandomState"}
STREAM_CONSTANTS = {0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED,
                    0xCA01F9DD, 0x4973F715, 2549297995355413924,
                    4865540595714422341}


def names_of(node):
    """The names a node refers to, defines or imports."""
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return {name for alias in node.names
                for name in (alias.name, alias.asname) if name}
    return set()


def is_seed_and_stream(call):
    """Whether a call's one argument is a two-element list `[seed, stream]`."""
    if len(call.args) != 1 or call.keywords:
        return False
    arg = call.args[0]
    return (isinstance(arg, ast.List) and len(arg.elts) == 2
            and isinstance(arg.elts[0], ast.Name) and arg.elts[0].id == "seed")


def test_generators_come_from_the_samplers_and_crystal_restarts():
    # default_rng is called by the crystal's seeded restarts and by each
    # sampler with [seed, stream], and nowhere else; nothing rebuilds a stream
    built = set()
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for top in tree.body:
            owner = getattr(top, "name", None)
            calls = {id(node.func): node for node in ast.walk(top)
                     if isinstance(node, ast.Call)}
            for node in ast.walk(top):
                where = f"{path.name}:{getattr(node, 'lineno', '?')}"
                names = names_of(node)
                assert not names & STREAM_NAMES, f"{where}: {names}"
                assert not (isinstance(node, ast.Constant)
                            and node.value in STREAM_CONSTANTS), where
                if "default_rng" not in names:
                    continue
                call = calls.get(id(node))
                assert call is not None, f"{where}: default_rng not called"
                if path.name == "stochastic.py":
                    assert owner in SAMPLERS, where
                    assert is_seed_and_stream(call), where
                else:
                    assert (path.name, owner) == ("crystal.py",
                                                  "solve_equilibrium"), where
                built.add((path.name, owner))
    assert built == {("crystal.py", "solve_equilibrium"),
                     *(("stochastic.py", name) for name in SAMPLERS)}


def takes_a_start_state(arg):
    """Whether a parameter is named `initial` or annotated with SpinState
    (bare, quoted or inside a union)."""
    return arg.arg == "initial" or (arg.annotation is not None and
                                    "SpinState" in ast.unparse(arg.annotation))


def test_only_evolve_ising_takes_a_start_state():
    # scan_evolution, dephased_limit and every caller start from all spins
    # down; evolve_ising keeps general states as the oracle of the tests
    takers = set()
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                continue
            params = node.args
            args = [*params.posonlyargs, *params.args, *params.kwonlyargs,
                    *filter(None, (params.vararg, params.kwarg))]
            if any(takes_a_start_state(arg) for arg in args):
                takers.add((path.name, getattr(node, "name", "<lambda>")))
    assert takers == {("dynamics.py", "evolve_ising")}


def is_private(name):
    """Whether a dotted name has a component that is private by convention:
    a leading underscore, other than a dunder such as `__future__`."""
    return any(part.startswith("_") and not part.endswith("__")
               for part in name.split("."))


def test_no_module_imports_another_packages_private_module():
    # private modules and names of other packages move between releases
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            assert not any(map(is_private, names)), f"{where}: {names}"
