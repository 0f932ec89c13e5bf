"""Exact spin dynamics under H = sum_{i<j} J_ij sigma_x^i sigma_x^j.

Every term commutes, so e^{-iHt} is diagonal in the x basis: transform with
a Walsh-Hadamard butterfly, accumulate phases exp(-i t E(s)) with
E(s) = sum_{i<j} J_ij s_i s_j over spin signs s = +-1, and transform back.
Cost is O(n 2^n) per time point, exact to machine precision.

One kernel, _walsh_hadamard, transforms the rows of a block of time points
(evolve_ising, scan_evolution) or energy levels (dephased_limit). A block of
at most BLOCK_ELEMENTS = 2^13 amplitudes (128 KiB, and a work buffer as big)
stays in cache; on a 2-core x86 host it beat 2^12 (more numpy calls per row)
and 2^14 (30% slower at n = 12) in total scan_evolution time over n = 9-14.

z-basis indexing: bit i of the amplitude index is the state of spin i,
0 = down. Outcome labels read spin 0 first, '1' = up.
"""

import math
from dataclasses import dataclass

import numpy as np

from .lattice import InteractionGraph, ShelveMask

SIZE_CAP = 14
BLOCK_ELEMENTS = 2**13
ENERGY_RTOL = 1e-9  # relative gap under which dephased_limit merges levels


class CapacityError(ValueError):
    """Spin count exceeds the exact-evolution size cap."""


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
        """Product state from a '0'/'1' string, character i = spin i."""
        n = len(bits)
        index = sum(1 << i for i, b in enumerate(bits) if b == "1")
        amps = np.zeros(2**n, dtype=complex)
        amps[index] = 1.0
        return cls(n_spins=n, amplitudes=amps)


@dataclass(frozen=True)
class DecoherenceModel:
    """Exponential contrast envelope with time constant tau_d (seconds).

    tau_d = inf disables damping.
    """

    tau_d: float = math.inf

    def __post_init__(self):
        if not self.tau_d > 0:
            raise ValueError("tau_d must be positive (or inf to disable)")


@dataclass(frozen=True)
class ObservableSeries:
    """Z-basis outcome probabilities on a time grid.

    probabilities has shape (len(times), 2**n_spins); each row sums to 1
    within 1e-10.
    """

    n_spins: int
    times: np.ndarray
    probabilities: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        probs = np.asarray(self.probabilities, dtype=float)
        if probs.shape != (times.size, 2**self.n_spins):
            raise ValueError("probability array shape mismatch")
        if probs.size and (np.min(probs) < -1e-10 or np.max(probs) > 1 + 1e-10):
            raise ValueError("probabilities must lie in [0, 1]")
        if times.size and np.max(np.abs(probs.sum(axis=1) - 1.0)) > 1e-10:
            raise ValueError("probabilities must sum to 1 per timestep")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "probabilities", probs)

    def outcome_labels(self) -> list:
        """Bitstrings with spin 0 as the first character, '1' = up."""
        n = self.n_spins
        return [format(idx, f"0{n}b")[::-1] if n else ""
                for idx in range(2**n)]

    def outcome(self, bits: str) -> np.ndarray:
        """Probability series of one outcome, e.g. '11' for two spins up."""
        index = sum(1 << i for i, b in enumerate(bits) if b == "1")
        return self.probabilities[:, index]

    def mean_magnetization(self) -> np.ndarray:
        """Average <sigma_z> over spins, per time (+1 = up)."""
        n = self.n_spins
        if n == 0:
            return np.zeros(self.times.size)
        idx = np.arange(2**n)
        signs = 2.0 * ((idx[:, None] >> np.arange(n)[None, :]) & 1) - 1.0
        return self.probabilities @ signs.mean(axis=1)


def _walsh_hadamard(block: np.ndarray) -> np.ndarray:
    """Normalized Walsh-Hadamard transform (its own inverse) of each row of a
    C-contiguous complex (rows, 2^n) block, in place.

    A pass fuses two radix-2 stages: with a, b, c, d = x[0::4], ..., x[3::4]
    it writes (a+b)+(c+d), (a-b)+(c-d), (a+b)-(c+d), (a-b)-(c-d) as quarters,
    a self-sorting order with long numpy loops; odd n ends with one radix-2
    stage. Additions and their order are those of one stage at a time, so
    each row is bit-identical to a vector butterfly.
    """
    rows, size = block.shape
    n = size.bit_length() - 1
    pairs = np.empty((rows, 2, size // 2), dtype=complex)
    sums, diffs = pairs[:, 0], pairs[:, 1]
    for _ in range(n // 2):
        quarters = block.reshape(rows, 4, -1)
        np.add(block[:, 0::2], block[:, 1::2], out=sums)
        np.subtract(block[:, 0::2], block[:, 1::2], out=diffs)
        np.add(sums[:, 0::2], sums[:, 1::2], out=quarters[:, 0])
        np.add(diffs[:, 0::2], diffs[:, 1::2], out=quarters[:, 1])
        np.subtract(sums[:, 0::2], sums[:, 1::2], out=quarters[:, 2])
        np.subtract(diffs[:, 0::2], diffs[:, 1::2], out=quarters[:, 3])
    result = block
    if n % 2:
        np.add(block[:, 0::2], block[:, 1::2], out=sums)
        np.subtract(block[:, 0::2], block[:, 1::2], out=diffs)
        result = pairs.reshape(rows, size)
    return np.divide(result, math.sqrt(size), out=block)


def _spin_signs(n: int) -> np.ndarray:
    """(2^n, n) array of x-basis signs; bit 0 maps to s = +1."""
    idx = np.arange(2**n)
    bits = (idx[:, None] >> np.arange(n)[None, :]) & 1
    return 1.0 - 2.0 * bits


def ising_energies(couplings: np.ndarray) -> np.ndarray:
    """E(s) = sum_{i<j} J_ij s_i s_j for every x-basis sign assignment."""
    n = couplings.shape[0]
    signs = _spin_signs(n)
    return 0.5 * np.einsum("si,ij,sj->s", signs, couplings, signs)


def _prepare(graph: InteractionGraph, initial: SpinState | None) -> tuple:
    """The checked initial state (all down if None) and its x-basis form."""
    n = graph.n_spins
    if n > SIZE_CAP:
        raise CapacityError(
            f"{n} spins exceeds the exact-evolution cap of {SIZE_CAP}")
    initial = SpinState.all_down(n) if initial is None else initial
    if initial.n_spins != n:
        raise ValueError(
            f"state has {initial.n_spins} spins, graph has {n} survivors")
    return initial, _walsh_hadamard(initial.amplitudes[None, :].copy())[0]


def _evolve(psi_x: np.ndarray, spectrum: tuple, times: np.ndarray) -> np.ndarray:
    """z-basis amplitudes exp(-iHt)|psi>, one row per time in the block.

    spectrum is np.unique(energies, return_inverse=True): phases are computed
    once per distinct energy, for at most half the states as E(s) = E(-s).
    """
    energies, level = spectrum
    phases = np.exp(-1j * times[:, None] * energies)[:, level]
    return _walsh_hadamard(np.multiply(psi_x, phases, out=phases))


def evolve_ising(graph: InteractionGraph, t: float, initial: SpinState) -> SpinState:
    """Exact |psi(t)> = exp(-iHt) |psi(0)> for the graph's Ising couplings."""
    _, psi_x = _prepare(graph, initial)
    spectrum = np.unique(ising_energies(graph.couplings), return_inverse=True)
    amps = _evolve(psi_x, spectrum, np.array([t], dtype=float))[0]
    return SpinState(n_spins=graph.n_spins, amplitudes=amps)


def populations(state: SpinState) -> np.ndarray:
    """|amplitude|^2 per z-basis outcome; sums to 1."""
    p = np.abs(state.amplitudes) ** 2
    return p / p.sum()


def dephased_limit(graph: InteractionGraph, initial: SpinState) -> np.ndarray:
    """Long-time average of the outcome probabilities.

    Cross terms between x-basis states of different energy average to zero,
    so the limit is the incoherent sum over equal-energy groups. For a
    periodic signal this equals the average over one fundamental period.
    Energies within ENERGY_RTOL of the largest |E| count as one level.
    """
    n = graph.n_spins
    _, psi_x = _prepare(graph, initial)
    energies = ising_energies(graph.couplings)
    scale = max(np.max(np.abs(energies)), 1.0)
    keys = np.round(energies / (scale * ENERGY_RTOL)).astype(np.int64)
    keys, level = np.unique(keys, return_inverse=True)

    # one row per level, summed in level order
    limit = np.zeros(2**n)
    step = max(1, BLOCK_ELEMENTS // 2**n)
    for first in range(0, keys.size, step):
        rows = min(step, keys.size - first)
        cols = np.flatnonzero((level >= first) & (level < first + rows))
        block = np.zeros((rows, 2**n), dtype=complex)
        block[level[cols] - first, cols] = psi_x[cols]
        for row in np.abs(_walsh_hadamard(block)) ** 2:
            limit += row
    return limit / limit.sum()


def apply_decoherence(series: ObservableSeries, model: DecoherenceModel,
                      graph: InteractionGraph,
                      initial: SpinState) -> ObservableSeries:
    """Damp probabilities toward their dephased limit:

        p(t) -> p_inf + (p(t) - p_inf) exp(-t / tau_d)

    p_inf is the exact long-time average for the graph and initial state.
    """
    if not math.isfinite(model.tau_d):
        return series
    p_inf = dephased_limit(graph, initial)
    envelope = np.exp(-series.times / model.tau_d)[:, None]
    damped = p_inf[None, :] + (series.probabilities - p_inf[None, :]) * envelope
    return ObservableSeries(n_spins=series.n_spins, times=series.times,
                            probabilities=damped)


def scan_evolution(graph: InteractionGraph, times, initial: SpinState | None = None,
                   model: DecoherenceModel | None = None) -> ObservableSeries:
    """Outcome probabilities over a time grid, optionally decohered.

    Evaluates the shared x-basis transform once, then evolves blocks of time
    points; each row is bit-identical to evolve_ising at its time.
    """
    n = graph.n_spins
    times = np.asarray(times, dtype=float)
    initial, psi_x = _prepare(graph, initial)
    spectrum = np.unique(ising_energies(graph.couplings), return_inverse=True)
    probs = np.empty((times.size, 2**n))
    step = max(1, BLOCK_ELEMENTS // 2**n)
    for first in range(0, times.size, step):
        p = probs[first:first + step]
        np.abs(_evolve(psi_x, spectrum, times[first:first + step]), out=p)
        np.square(p, out=p)
        p /= p.sum(axis=1, keepdims=True)

    series = ObservableSeries(n_spins=n, times=times, probabilities=probs)
    if model is not None:
        series = apply_decoherence(series, model, graph, initial)
    return series


def zero_shelved_couplings(j: np.ndarray, mask: ShelveMask) -> np.ndarray:
    """Full-size coupling matrix with every coupling to a shelved ion zeroed."""
    out = np.asarray(j, dtype=float).copy()
    idx = mask.shelved_indices
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
