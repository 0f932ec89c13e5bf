import ast
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from ionrewire import dynamics
from ionrewire.coupling import InteractionGraph
from ionrewire.dynamics import (
    BLOCK_ELEMENTS,
    ENERGY_RTOL,
    CapacityError,
    DecoherenceModel,
    ObservableSeries,
    dephased_limit,
    ising_energies,
    outcome_index,
    outcome_label,
    outcome_labels,
    scan_evolution,
)
from ionrewire.lattice import ShelveMask, apply_mask
from oracles import (
    SpinState,
    embed_survivor_state,
    evolve_ising,
    graph_of,
    populations,
    survivor_marginal,
    uniform_graph,
    zero_shelved_couplings,
)

TWO_PI = 2 * np.pi

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])
IDENTITY = np.eye(2)


def random_symmetric_j(n, rng, scale=TWO_PI * 500.0):
    j = rng.normal(scale=scale, size=(n, n))
    j = 0.5 * (j + j.T)
    np.fill_diagonal(j, 0.0)
    return j


def dense_evolution(j: np.ndarray, t: float, amplitudes: np.ndarray) -> np.ndarray:
    """Oracle: build the dense Hamiltonian and exponentiate it.

    Spin i acts on bit i of the index, so it sits at position i from the
    right in the Kronecker chain.
    """
    n = j.shape[0]
    dim = 2**n
    h = np.zeros((dim, dim))
    for i in range(n):
        for k in range(i + 1, n):
            ops = [IDENTITY] * n
            ops[i] = PAULI_X
            ops[k] = PAULI_X
            term = ops[n - 1]
            for op in reversed(ops[:-1]):
                term = np.kron(term, op)
            h = h + j[i, k] * term
    return scipy.linalg.expm(-1j * t * h) @ amplitudes


def vector_walsh_hadamard(amps: np.ndarray) -> np.ndarray:
    """One radix-2 stage at a time on a single vector."""
    out = amps.copy()
    size = out.size
    h = 1
    while h < size:
        out = out.reshape(-1, 2, h)
        out = np.stack((out[:, 0, :] + out[:, 1, :],
                        out[:, 0, :] - out[:, 1, :]), axis=1)
        h *= 2
    return out.reshape(size) / math.sqrt(size)


def per_level_dephased_limit(graph: InteractionGraph,
                             initial: SpinState) -> np.ndarray:
    """Oracle: one vector transform per energy level, summed in level order."""
    psi_x = vector_walsh_hadamard(initial.amplitudes)
    energies = ising_energies(graph.couplings)
    scale = max(np.max(np.abs(energies)), 1.0)
    keys = np.round(energies / (scale * ENERGY_RTOL)).astype(np.int64)
    limit = np.zeros(2**graph.n_spins)
    for key in np.unique(keys):
        component = np.where(keys == key, psi_x, 0.0)
        limit += np.abs(vector_walsh_hadamard(component)) ** 2
    return limit / limit.sum()


class TestEvolve:
    def test_zero_coupling_leaves_state_unchanged(self):
        state = SpinState.from_bits("010")
        graph = graph_of(np.zeros((3, 3)))
        evolved = evolve_ising(graph, 1.7e-3, state)
        assert np.allclose(evolved.amplitudes, state.amplitudes, atol=1e-14)

    def test_two_ion_analytic_oscillation(self):
        j12 = TWO_PI * 750.0
        graph = uniform_graph(2, j12)
        for t in np.linspace(0.0, 2.5e-3, 23):
            p = populations(evolve_ising(graph, t, SpinState.all_down(2)))
            assert p[0b11] == pytest.approx(np.sin(j12 * t) ** 2, abs=1e-12)
            assert p[0b00] == pytest.approx(np.cos(j12 * t) ** 2, abs=1e-12)
            assert p[0b01] == pytest.approx(0.0, abs=1e-14)
            assert p[0b10] == pytest.approx(0.0, abs=1e-14)

    def test_three_ion_uniform_matches_expm_oracle(self):
        j = uniform_graph(3, TWO_PI * 450.0).couplings
        graph = graph_of(j)
        rng = np.random.default_rng(99)
        state = SpinState.all_down(3)
        for t in rng.uniform(0.0, 5e-3, size=50):
            fast = evolve_ising(graph, t, state).amplitudes
            oracle = dense_evolution(j, t, state.amplitudes)
            assert np.max(np.abs(fast - oracle)) < 1e-10

    def test_random_instances_match_expm_oracle(self):
        rng = np.random.default_rng(7)
        for n in range(1, 7):
            for _ in range(3):
                j = random_symmetric_j(n, rng)
                amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
                amps /= np.linalg.norm(amps)
                state = SpinState(n_spins=n, amplitudes=amps)
                t = rng.uniform(0.0, 3e-3)
                fast = evolve_ising(graph_of(j), t, state).amplitudes
                oracle = dense_evolution(j, t, amps)
                assert np.max(np.abs(fast - oracle)) < 1e-10

    def test_norm_preserved(self):
        rng = np.random.default_rng(3)
        j = random_symmetric_j(5, rng)
        state = SpinState.all_down(5)
        for t in rng.uniform(0, 10e-3, size=10):
            evolved = evolve_ising(graph_of(j), t, state)
            assert abs(np.linalg.norm(evolved.amplitudes) - 1.0) < 1e-12

    def test_time_composability(self):
        rng = np.random.default_rng(4)
        j = random_symmetric_j(4, rng)
        graph = graph_of(j)
        state = SpinState.all_down(4)
        t1, t2 = 0.4e-3, 1.1e-3
        stepped = evolve_ising(graph, t2, evolve_ising(graph, t1, state))
        direct = evolve_ising(graph, t1 + t2, state)
        assert np.max(np.abs(stepped.amplitudes - direct.amplitudes)) < 1e-12

    def test_parity_conservation_from_all_down(self):
        # pair flips preserve the parity of the number of up spins
        rng = np.random.default_rng(5)
        for n in (2, 3, 4):
            j = random_symmetric_j(n, rng)
            p = populations(evolve_ising(graph_of(j), 0.9e-3, SpinState.all_down(n)))
            idx = np.arange(2**n)
            weight = np.array([bin(i).count("1") for i in idx])
            assert np.max(p[weight % 2 == 1]) < 1e-14

    def test_size_cap_enforced(self):
        graph = graph_of(np.zeros((15, 15)))
        with pytest.raises(CapacityError):
            scan_evolution(graph, [0.0])
        with pytest.raises(CapacityError):
            dephased_limit(graph)

    def test_state_size_mismatch_rejected(self):
        # a series holds one probability per outcome of its own spin count
        for width in (4, 16):
            with pytest.raises(ValueError, match="shape mismatch"):
                ObservableSeries(n_spins=3, times=[0.0],
                                 probabilities=np.full((1, width), 1 / width))
        # scan and dephased limit start from the graph's own all-down state
        graph = graph_of(np.zeros((3, 3)))
        down = populations(SpinState.all_down(3))
        assert np.array_equal(scan_evolution(graph, [0.0]).probabilities[0], down)
        assert np.array_equal(dephased_limit(graph), down)


class TestShelvingEquivalence:
    def test_marginals_match_reduced_evolution(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(2, 7))
            j = random_symmetric_j(n, rng)
            flags = rng.random(n) < 0.4
            if flags.all():
                flags[int(rng.integers(n))] = False
            mask = ShelveMask(tuple(bool(f) for f in flags))
            k = len(mask.survivors)

            amps = rng.normal(size=2**k) + 1j * rng.normal(size=2**k)
            amps /= np.linalg.norm(amps)
            surv_state = SpinState(n_spins=k, amplitudes=amps)
            t = rng.uniform(0, 2e-3)

            reduced = apply_mask(graph_of(j), mask)
            p_reduced = populations(evolve_ising(reduced, t, surv_state))

            full_j = zero_shelved_couplings(j, mask)
            full_state = embed_survivor_state(surv_state, mask.survivors, n)
            p_full = populations(evolve_ising(graph_of(full_j), t, full_state))
            marginal = survivor_marginal(p_full, n, mask.survivors)

            assert np.max(np.abs(marginal - p_reduced)) <= 1e-12


class TestPopulations:
    def test_all_down(self):
        assert populations(SpinState.all_down(2))[0] == 1.0

    def test_uniform_superposition(self):
        amps = np.full(4, 0.5, dtype=complex)
        p = populations(SpinState(n_spins=2, amplitudes=amps))
        assert np.allclose(p, 0.25)

    def test_full_transfer_at_quarter_period(self):
        j12 = TWO_PI * 750.0
        graph = uniform_graph(2, j12)
        t = np.pi / (2 * j12)
        p = populations(evolve_ising(graph, t, SpinState.all_down(2)))
        assert p[0b11] == pytest.approx(1.0, abs=1e-12)


class TestDecoherence:
    @pytest.mark.parametrize("tau", [math.inf, math.nan, 0.0, -1e-3])
    def test_tau_must_be_positive_and_finite(self, tau):
        # undamped is model=None, the one spelling of it
        with pytest.raises(ValueError, match="positive and finite"):
            DecoherenceModel(tau_d=tau)

    def test_dephased_limit_two_ions(self):
        j = uniform_graph(2, TWO_PI * 750.0).couplings
        limit = dephased_limit(graph_of(j))
        assert np.allclose(limit, [0.5, 0.0, 0.0, 0.5], atol=1e-12)

    def test_dephased_limit_matches_long_time_average(self):
        rng = np.random.default_rng(12)
        j = random_symmetric_j(3, rng)
        graph = graph_of(j)
        limit = dephased_limit(graph)
        times = np.linspace(0, 5.0, 20001)  # seconds >> 1/J: many periods
        series = scan_evolution(graph, times)
        average = series.probabilities.mean(axis=0)
        assert np.max(np.abs(average - limit)) < 2e-3

    def test_long_time_probabilities_reach_limit(self):
        j = uniform_graph(2, TWO_PI * 750.0).couplings
        graph = graph_of(j)
        model = DecoherenceModel(tau_d=5.5e-3)
        times = np.array([0.0, 1.0])  # 1 s >> tau_d
        series = scan_evolution(graph, times, model=model)
        limit = dephased_limit(graph)
        assert np.allclose(series.probabilities[-1], limit, atol=1e-12)

    def test_contrast_drops_by_e_at_tau(self):
        j12 = TWO_PI * 750.0
        graph = uniform_graph(2, j12)
        tau = 5.5e-3
        times = np.array([tau])
        damped = scan_evolution(graph, times, model=DecoherenceModel(tau_d=tau))
        coherent = np.sin(j12 * tau) ** 2
        expected = 0.5 + (coherent - 0.5) / np.e
        assert damped.outcome("11")[0] == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("n,blocks",
                             [(0, 1), (3, 1), (9, 3), (11, 16), (12, 40)])
    def test_dephased_limit_matches_per_level_loop(self, n, blocks):
        rng = np.random.default_rng(20 + n)
        # integer couplings make degenerate levels with several members
        j = rng.integers(-3, 4, size=(n, n)) * TWO_PI * 100.0
        graph = graph_of(np.triu(j, 1) + np.triu(j, 1).T)
        levels = np.unique(ising_energies(graph.couplings)).size
        # a block is 2 * BLOCK_ELEMENTS real entries of even-parity half rows;
        # the last block of n = 9, 11 and 12 is partial
        rows_per_block = 2 * BLOCK_ELEMENTS // max(1, 2**n // 2)
        assert math.ceil(levels / rows_per_block) == blocks
        assert np.array_equal(dephased_limit(graph),
                              per_level_dephased_limit(graph, SpinState.all_down(n)))

    @pytest.mark.parametrize("n", [0, 1, 9, 13])
    def test_damping_toward_dephased_limit_bit_for_bit(self, n):
        rng = np.random.default_rng(40 + n)
        # integer couplings make degenerate levels with several members
        j = rng.integers(-3, 4, size=(n, n)) * TWO_PI * 100.0
        graph = graph_of(np.triu(j, 1) + np.triu(j, 1).T)
        times = np.linspace(0, 2e-3, 7)
        tau = 0.8e-3
        undamped = scan_evolution(graph, times).probabilities
        p_inf = dephased_limit(graph)
        expected = p_inf + (undamped - p_inf) * np.exp(-times / tau)[:, None]
        damped = scan_evolution(graph, times, model=DecoherenceModel(tau_d=tau))
        assert np.array_equal(damped.probabilities, expected)

    @pytest.mark.parametrize("n", [0, 3])
    def test_damped_scan_calls_dephased_limit_by_module_name(self, n,
                                                             monkeypatch):
        # the benchmark's tracer counts dephased_limit calls by patching the
        # module attribute, so every damped scan, n = 0 too, must look it up
        calls = []
        monkeypatch.setattr(dynamics, "dephased_limit",
                            lambda g: calls.append(g.n_spins) or dephased_limit(g))
        graph = graph_of(np.ones((n, n)) - np.eye(n))
        scan_evolution(graph, [0.0, 1e-3], model=DecoherenceModel(tau_d=1e-3))
        assert calls == [n]


class TestScan:
    @pytest.mark.parametrize("n", [3, 9, 13])
    def test_matches_pointwise_evolution(self, n):
        rng = np.random.default_rng(13)
        graph = graph_of(random_symmetric_j(n, rng))
        # three blocks of time rows over the even-parity half, the last partial
        times = np.linspace(0, 2e-3, 2 * (BLOCK_ELEMENTS // 2**(n - 1)) + 1)
        series = scan_evolution(graph, times)
        for row, t in zip(series.probabilities, times):
            p = populations(evolve_ising(graph, t, SpinState.all_down(n)))
            assert np.array_equal(row, p)

    @pytest.mark.parametrize("n", range(1, 15))
    def test_odd_parity_outcomes_are_exact_zeros(self, n):
        # H flips spins in pairs, so from all down an odd number of up spins
        # has probability +0 exactly, in the dephased limit too
        rng = np.random.default_rng(60 + n)
        # integer couplings make degenerate levels with several members
        j = rng.integers(-2, 3, size=(n, n)) * TWO_PI * 100.0
        graph = graph_of(np.triu(j, 1) + np.triu(j, 1).T)
        odd = np.bitwise_count(np.arange(2**n)) % 2 == 1
        times = np.linspace(0, 2e-3, 5)
        model = DecoherenceModel(tau_d=0.8e-3)
        for p in (scan_evolution(graph, times).probabilities[:, odd],
                  scan_evolution(graph, times, model).probabilities[:, odd],
                  dephased_limit(graph)[odd]):
            assert np.all(p == 0.0) and not np.any(np.signbit(p))

    def test_empty_graph_scan(self):
        graph = InteractionGraph(survivors=np.array([], dtype=int),
                                 couplings=np.zeros((0, 0)))
        series = scan_evolution(graph, np.linspace(0, 1e-3, 4))
        assert series.probabilities.shape == (4, 1)
        assert np.all(series.probabilities == 1.0)
        state = evolve_ising(graph, 1e-3, SpinState.all_down(0))
        assert state.amplitudes.tolist() == [1.0]

    def test_outcome_labels_and_lookup(self):
        j = uniform_graph(2, TWO_PI * 750.0).couplings
        series = scan_evolution(graph_of(j), np.array([0.0]))
        assert outcome_labels(2) == ["00", "10", "01", "11"]
        assert series.outcome("00")[0] == 1.0

    @pytest.mark.parametrize("n", range(15))
    def test_outcome_labels_equal_one_label_at_a_time(self, n):
        assert outcome_labels(n) == [outcome_label(i, n) for i in range(2**n)]

    def test_mean_magnetization(self):
        probs = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
        series = ObservableSeries(n_spins=2, times=np.array([0.0, 1.0]),
                                  probabilities=probs)
        mag = series.mean_magnetization()
        assert mag[0] == -1.0 and mag[1] == 1.0


class TestEmbedding:
    def test_embed_then_marginalize_round_trip(self):
        rng = np.random.default_rng(15)
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        amps /= np.linalg.norm(amps)
        state = SpinState(n_spins=2, amplitudes=amps)
        full = embed_survivor_state(state, [0, 2], 3)
        marg = survivor_marginal(populations(full), 3, [0, 2])
        assert np.allclose(marg, np.abs(amps) ** 2, atol=1e-14)

    def test_shelved_spins_are_down(self):
        full = embed_survivor_state(SpinState.from_bits("11"), [0, 2], 3)
        # survivors 0 and 2 up, shelved spin 1 down: index 0b101
        assert full.amplitudes[0b101] == 1.0


class TestOutcomeLabels:
    @pytest.mark.parametrize("n", [0, 1, 3, 5])
    def test_label_and_index_are_inverse(self, n):
        labels = [outcome_label(i, n) for i in range(2**n)]
        assert len(set(labels)) == 2**n
        assert all(len(label) == n for label in labels)
        assert [outcome_index(label) for label in labels] == list(range(2**n))

    def test_character_i_is_spin_i(self):
        assert outcome_label(0b001, 3) == "100"
        assert outcome_label(0b110, 3) == "011"
        state = SpinState.from_bits("011")
        assert np.flatnonzero(state.amplitudes).tolist() == [0b110]


def test_only_walsh_hadamard_subtracts():
    # one evolution kernel: every butterfly in dynamics.py is _walsh_hadamard
    tree = ast.parse(Path(dynamics.__file__).read_text())
    callers = set()
    for top in tree.body:
        for node in ast.walk(top):
            if (isinstance(node, ast.Call)
                    and "subtract" in {getattr(node.func, "attr", None),
                                       getattr(node.func, "id", None)}):
                callers.add(getattr(top, "name", None))
    assert callers == {"_walsh_hadamard"}
