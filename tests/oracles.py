"""Reference implementations the tests check the library against.

None of these runs in the pipeline: each states a result the long way
(full-size matrices, explicit loops) so that the fast library code has an
independent oracle. evolve_ising evolves any SpinState over all 2^n entries;
scan_evolution, which starts from all spins down and transforms the
even-parity half, is checked bit for bit against it.
"""

import math
from dataclasses import dataclass

import numpy as np

from ionrewire.coupling import InteractionGraph
from ionrewire.dynamics import (
    _check_cap,
    _walsh_hadamard,
    ising_energies,
    outcome_index,
    scan_evolution,
)
from ionrewire.lattice import ShelveMask, apply_mask
from ionrewire.stochastic import ShelvingProcess


def graph_of(j) -> InteractionGraph:
    """Graph over ions 0..n-1 with the (n, n) coupling matrix j."""
    return InteractionGraph(survivors=np.arange(j.shape[0]), couplings=j)


def uniform_graph(n: int, strength: float) -> InteractionGraph:
    """Every pair of n ions coupled at `strength`."""
    j = np.full((n, n), float(strength))
    np.fill_diagonal(j, 0.0)
    return graph_of(j)


def graph_of_pairs(n: int, pairs: dict) -> InteractionGraph:
    """Graph from {(i, j): value} with i < j; missing pairs are zero."""
    j = np.zeros((n, n))
    for (a, b), value in pairs.items():
        j[a, b] = j[b, a] = float(value)
    return graph_of(j)


@dataclass(frozen=True)
class SpinState:
    """Pure state over 2^n z-basis amplitudes, normalized to 1e-12."""

    n_spins: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (2**self.n_spins,):
            raise ValueError("amplitude vector length must be 2**n_spins")
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"state norm {norm!r} is not 1 within 1e-12")
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def all_down(cls, n_spins: int) -> "SpinState":
        amps = np.zeros(2**n_spins, dtype=complex)
        amps[0] = 1.0
        return cls(n_spins=n_spins, amplitudes=amps)

    @classmethod
    def from_bits(cls, bits: str) -> "SpinState":
        """Product state of an outcome label (see outcome_label)."""
        amps = np.zeros(2**len(bits), dtype=complex)
        amps[outcome_index(bits)] = 1.0
        return cls(n_spins=len(bits), amplitudes=amps)


def evolve_ising(graph: InteractionGraph, t: float, initial: SpinState) -> SpinState:
    """Exact |psi(t)> = exp(-iHt) |psi(0)> for the graph's Ising couplings."""
    n = graph.n_spins
    _check_cap(n)
    if initial.n_spins != n:
        raise ValueError(
            f"state has {initial.n_spins} spins, graph has {n} survivors")
    norm = math.sqrt(2**n)
    psi_x = np.divide(_walsh_hadamard(initial.amplitudes[None, :].copy()), norm)
    energies, level = np.unique(ising_energies(graph.couplings),
                                return_inverse=True)
    phases = np.exp(-1j * np.array([[t]], dtype=float) * energies)[:, level]
    amps = np.divide(_walsh_hadamard(np.multiply(psi_x, phases, out=phases)), norm)
    return SpinState(n_spins=n, amplitudes=amps[0])


def pair_geometry(pos: np.ndarray):
    """Pairwise displacement tensor diff[i, j] = pos[i] - pos[j] and inverse
    distances with a zeroed diagonal."""
    diff = pos[:, None, :] - pos[None, :, :]
    dist = np.sqrt(np.sum(diff**2, axis=2))
    np.fill_diagonal(dist, np.inf)
    return diff, 1.0 / dist


def potential(u: np.ndarray, alphas: np.ndarray) -> float:
    """Dimensionless crystal energy at flat ion-major coordinates u: trap
    term plus sum over pairs of 1/r, each pair counted from both ends."""
    pos = u.reshape(-1, 3)
    _, inv = pair_geometry(pos)
    harmonic = 0.5 * np.sum(alphas * pos**2)
    coulomb = 0.5 * np.sum(inv)
    return harmonic + coulomb


def gradient(u: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """Gradient of `potential`, each ion's Coulomb term summed over j."""
    pos = u.reshape(-1, 3)
    diff, inv = pair_geometry(pos)
    grad = alphas * pos - np.sum(diff * inv[:, :, None] ** 3, axis=1)
    return grad.reshape(-1)


def hessian(u: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """(3N, 3N) Hessian of `potential` from the (i, j) pair geometry."""
    pos = u.reshape(-1, 3)
    n = pos.shape[0]
    diff, inv = pair_geometry(pos)
    inv3 = inv**3
    inv5 = inv**5
    eye3 = np.eye(3)
    cross = (inv3[:, :, None, None] * eye3[None, None, :, :]
             - 3.0 * diff[:, :, :, None] * diff[:, :, None, :] * inv5[:, :, None, None])
    blocks = cross.copy()
    idx = np.arange(n)
    blocks[idx, idx] = -np.sum(cross, axis=1) + np.diag(alphas)[None, :, :]
    h = blocks.transpose(0, 2, 1, 3).reshape(3 * n, 3 * n)
    return 0.5 * (h + h.T)


def fix_signs(vecs: np.ndarray) -> np.ndarray:
    """Each column negated when its first largest-magnitude entry is
    negative, one column at a time."""
    out = vecs.copy()
    for k in range(out.shape[1]):
        lead = np.argmax(np.abs(out[:, k]))
        if out[lead, k] < 0:
            out[:, k] = -out[:, k]
    return out


def populations(state: SpinState) -> np.ndarray:
    """|amplitude|^2 per z-basis outcome; sums to 1."""
    p = np.abs(state.amplitudes) ** 2
    return p / p.sum()


def shelve_by(uniforms, beam_time: float, process) -> ShelveMask:
    """Per-ion Bernoulli shelving: ion i is shelved when uniforms[i] is below
    1 - exp(-beam_time / tau)."""
    p = 1.0 - math.exp(-beam_time / process.tau_shelve)
    return ShelveMask(tuple((np.asarray(uniforms) < p).tolist()))


def sample_shelving(n: int, beam_time: float, process, rng) -> ShelveMask:
    """Per-ion Bernoulli shelving from the next n uniforms of a numpy
    Generator."""
    return shelve_by(rng.random(n), beam_time, process)


def reference_protocol(coupling, beam_time, times, measurement, seed,
                       deshelving=None, drive_rabi=None):
    """Per-shot protocol: (config, outcome, intact) for every shot in order.

    Shot r = ti * shots + s reads row r of each block drawn from
    default_rng([seed, 0]), in order: shelving (total, n), outcome (total,),
    flips (total, n) with a SPAM error above 0, returns (total, n) with
    deshelving."""
    n, shots = coupling.n_spins, measurement.shots
    total = len(times) * shots
    rng = np.random.default_rng([seed, 0])
    shelving = rng.random((total, n))
    outcomes = rng.random(total)
    flips = rng.random((total, n)) if measurement.spam_error > 0.0 else None
    returns = rng.random((total, n)) if deshelving is not None else None
    tables = {}
    rows = []
    for ti, t in enumerate(times):
        for s in range(shots):
            r = ti * shots + s
            mask = shelve_by(shelving[r], beam_time, ShelvingProcess())
            config = mask.to_string()
            if config not in tables:
                series = scan_evolution(apply_mask(coupling, mask), times)
                tables[config] = np.cumsum(series.probabilities, axis=1)
            k = mask.survivors.size
            outcome = min(int(np.searchsorted(tables[config][ti], outcomes[r],
                                              side="right")), 2**k - 1)
            if flips is not None:
                flipped = flips[r, :k] < measurement.spam_error
                outcome ^= int(flipped @ (1 << np.arange(k)))
            intact = True
            if returns is not None:
                p_return = 1.0 - math.exp(-t / deshelving.tau_g(drive_rabi))
                returned = returns[r] < p_return
                intact = not returned[np.flatnonzero(mask.shelved)].any()
            rows.append((config, outcome, intact))
    return rows


def reference_shelving_decay(n_ions, times, process, shots, seed) -> list:
    """Ions left unshelved at each time, summed shot by shot; shot s at time
    index ti reads row ti * shots + s of one (times * shots, n_ions) block
    drawn from default_rng([seed, 0])."""
    uniforms = np.random.default_rng([seed, 0]).random((len(times) * shots,
                                                         n_ions))
    counts = []
    for ti, t in enumerate(times):
        masks = [shelve_by(uniforms[ti * shots + s], float(t), process)
                 for s in range(shots)]
        counts.append(sum(n_ions - sum(m.shelved) for m in masks))
    return counts


def reference_deshelving_scan(model, omegas, points, max_time_factor, shots,
                              seed) -> list:
    """(time, return probability, returned shots) per curve point, counted
    shot by shot; point p of the flattened curves reads row p of one
    (curves * points, shots) block drawn from default_rng([seed, 0])."""
    uniforms = np.random.default_rng([seed, 0]).random((len(omegas) * points,
                                                         shots))
    curves = []
    for oi, omega in enumerate(omegas):
        tau = model.tau_g(omega)
        curve = []
        for ti, t in enumerate(np.linspace(0.0, max_time_factor * tau, points)):
            p = 1.0 - math.exp(-t / tau)
            returned = sum(u < p for u in uniforms[oi * points + ti])
            curve.append((t, p, returned))
        curves.append(curve)
    return curves


def mask_union(first: ShelveMask, second: ShelveMask) -> ShelveMask:
    """The mask that shelves every ion either mask shelves."""
    if len(second) != len(first):
        raise ValueError("mask lengths differ")
    return ShelveMask(tuple(a or b for a, b in zip(first.shelved, second.shelved)))


def zero_shelved_couplings(j: np.ndarray, mask: ShelveMask) -> np.ndarray:
    """Full-size coupling matrix with every coupling to a shelved ion zeroed."""
    out = np.asarray(j, dtype=float).copy()
    idx = np.flatnonzero(mask.shelved)
    out[idx, :] = 0.0
    out[:, idx] = 0.0
    return out


def embed_survivor_state(state: SpinState, survivors, n_total: int) -> SpinState:
    """Tensor a survivor state with shelved spins pinned to |down>."""
    survivors = np.asarray(survivors, dtype=int)
    if state.n_spins != survivors.size:
        raise ValueError("state size does not match survivor count")
    amps = np.zeros(2**n_total, dtype=complex)
    k = survivors.size
    for m in range(2**k):
        full = 0
        for b in range(k):
            if (m >> b) & 1:
                full |= 1 << survivors[b]
        amps[full] = state.amplitudes[m]
    return SpinState(n_spins=n_total, amplitudes=amps)


def survivor_marginal(probabilities: np.ndarray, n_total: int,
                      survivors) -> np.ndarray:
    """Marginal outcome distribution over a subset of spins.

    Bit i' of the reduced index is survivor i' in ascending original order.
    """
    survivors = np.sort(np.asarray(survivors, dtype=int))
    others = [i for i in range(n_total) if i not in set(survivors.tolist())]
    # reshape to one axis per spin; row-major puts spin n-1 on axis 0
    grid = np.asarray(probabilities).reshape([2] * n_total if n_total else [1])
    axes = tuple(n_total - 1 - i for i in others)
    reduced = grid.sum(axis=axes) if axes else grid
    return reduced.reshape(-1)
