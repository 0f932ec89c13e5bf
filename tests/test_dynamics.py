import math

import numpy as np
import pytest
import scipy.linalg

from ionrewire.coupling import CouplingMatrix
from ionrewire.dynamics import (
    BLOCK_ELEMENTS,
    ENERGY_RTOL,
    CapacityError,
    DecoherenceModel,
    ObservableSeries,
    SpinState,
    apply_decoherence,
    dephased_limit,
    embed_survivor_state,
    evolve_ising,
    ising_energies,
    populations,
    scan_evolution,
    survivor_marginal,
    zero_shelved_couplings,
)
from ionrewire.lattice import InteractionGraph, ShelveMask, apply_mask

TWO_PI = 2 * np.pi

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])
IDENTITY = np.eye(2)


def graph_of(j: np.ndarray) -> InteractionGraph:
    return InteractionGraph(survivors=np.arange(j.shape[0]), couplings=j)


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


def random_state(n, rng) -> SpinState:
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return SpinState(n_spins=n, amplitudes=amps / np.linalg.norm(amps))


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
        graph = graph_of(CouplingMatrix.uniform(2, j12).j)
        for t in np.linspace(0.0, 2.5e-3, 23):
            p = populations(evolve_ising(graph, t, SpinState.all_down(2)))
            assert p[0b11] == pytest.approx(np.sin(j12 * t) ** 2, abs=1e-12)
            assert p[0b00] == pytest.approx(np.cos(j12 * t) ** 2, abs=1e-12)
            assert p[0b01] == pytest.approx(0.0, abs=1e-14)
            assert p[0b10] == pytest.approx(0.0, abs=1e-14)

    def test_three_ion_uniform_matches_expm_oracle(self):
        j = CouplingMatrix.uniform(3, TWO_PI * 450.0).j
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
            evolve_ising(graph, 1e-4, SpinState.all_down(15))

    def test_state_size_mismatch_rejected(self):
        graph = graph_of(np.zeros((3, 3)))
        with pytest.raises(ValueError):
            evolve_ising(graph, 1e-4, SpinState.all_down(2))
        for state in (SpinState.all_down(2), SpinState.all_down(4)):
            with pytest.raises(ValueError, match="graph has 3 survivors"):
                scan_evolution(graph, [0.0], initial=state)
            with pytest.raises(ValueError, match="graph has 3 survivors"):
                dephased_limit(graph, state)


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

            reduced = apply_mask(CouplingMatrix(n, j), mask)
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
        graph = graph_of(CouplingMatrix.uniform(2, j12).j)
        t = np.pi / (2 * j12)
        p = populations(evolve_ising(graph, t, SpinState.all_down(2)))
        assert p[0b11] == pytest.approx(1.0, abs=1e-12)


class TestDecoherence:
    def test_infinite_tau_is_identity(self):
        times = np.linspace(0, 1e-3, 7)
        j = CouplingMatrix.uniform(2, TWO_PI * 750.0).j
        series = scan_evolution(graph_of(j), times)
        damped = apply_decoherence(series, DecoherenceModel(tau_d=np.inf),
                                   graph_of(j), SpinState.all_down(2))
        assert np.array_equal(damped.probabilities, series.probabilities)

    def test_dephased_limit_two_ions(self):
        j = CouplingMatrix.uniform(2, TWO_PI * 750.0).j
        limit = dephased_limit(graph_of(j), SpinState.all_down(2))
        assert np.allclose(limit, [0.5, 0.0, 0.0, 0.5], atol=1e-12)

    def test_dephased_limit_matches_long_time_average(self):
        rng = np.random.default_rng(12)
        j = random_symmetric_j(3, rng)
        graph = graph_of(j)
        limit = dephased_limit(graph, SpinState.all_down(3))
        times = np.linspace(0, 5.0, 20001)  # seconds >> 1/J: many periods
        series = scan_evolution(graph, times)
        average = series.probabilities.mean(axis=0)
        assert np.max(np.abs(average - limit)) < 2e-3

    def test_long_time_probabilities_reach_limit(self):
        j = CouplingMatrix.uniform(2, TWO_PI * 750.0).j
        graph = graph_of(j)
        model = DecoherenceModel(tau_d=5.5e-3)
        times = np.array([0.0, 1.0])  # 1 s >> tau_d
        series = scan_evolution(graph, times, model=model)
        limit = dephased_limit(graph, SpinState.all_down(2))
        assert np.allclose(series.probabilities[-1], limit, atol=1e-12)

    def test_contrast_drops_by_e_at_tau(self):
        j12 = TWO_PI * 750.0
        graph = graph_of(CouplingMatrix.uniform(2, j12).j)
        tau = 5.5e-3
        times = np.array([tau])
        bare = scan_evolution(graph, times)
        damped = apply_decoherence(bare, DecoherenceModel(tau_d=tau),
                                   graph=graph, initial=SpinState.all_down(2))
        coherent = np.sin(j12 * tau) ** 2
        expected = 0.5 + (coherent - 0.5) / np.e
        assert damped.outcome("11")[0] == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("n,blocks", [(0, 1), (3, 1), (9, 9), (12, 158)])
    def test_dephased_limit_matches_per_level_loop(self, n, blocks):
        rng = np.random.default_rng(20 + n)
        # integer couplings make degenerate levels with several members
        j = rng.integers(-3, 4, size=(n, n)) * TWO_PI * 100.0
        graph = graph_of(np.triu(j, 1) + np.triu(j, 1).T)
        initial = random_state(n, rng)
        levels = np.unique(ising_energies(graph.couplings)).size
        assert math.ceil(levels / (BLOCK_ELEMENTS // 2**n)) == blocks
        assert np.array_equal(dephased_limit(graph, initial),
                              per_level_dephased_limit(graph, initial))


class TestScan:
    @pytest.mark.parametrize("n", [3, 9, 13])
    def test_matches_pointwise_evolution(self, n):
        rng = np.random.default_rng(13)
        graph = graph_of(random_symmetric_j(n, rng))
        initial = random_state(n, rng)
        # three blocks of time rows, the last one partial
        times = np.linspace(0, 2e-3, 2 * (BLOCK_ELEMENTS // 2**n) + 1)
        series = scan_evolution(graph, times, initial=initial)
        for row, t in zip(series.probabilities, times):
            p = populations(evolve_ising(graph, t, initial))
            assert np.array_equal(row, p)

    def test_empty_graph_scan(self):
        graph = InteractionGraph(survivors=np.array([], dtype=int),
                                 couplings=np.zeros((0, 0)))
        series = scan_evolution(graph, np.linspace(0, 1e-3, 4))
        assert series.probabilities.shape == (4, 1)
        assert np.all(series.probabilities == 1.0)
        state = evolve_ising(graph, 1e-3, SpinState.all_down(0))
        assert state.amplitudes.tolist() == [1.0]

    def test_outcome_labels_and_lookup(self):
        j = CouplingMatrix.uniform(2, TWO_PI * 750.0).j
        series = scan_evolution(graph_of(j), np.array([0.0]))
        assert series.outcome_labels() == ["00", "10", "01", "11"]
        assert series.outcome("00")[0] == 1.0

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
