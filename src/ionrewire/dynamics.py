"""Exact spin dynamics under H = sum_{i<j} J_ij sigma_x^i sigma_x^j.

Every term commutes, so e^{-iHt} is diagonal in the x basis: transform with
a Walsh-Hadamard butterfly, accumulate phases exp(-i t E(s)) with
E(s) = sum_{i<j} J_ij s_i s_j over spin signs s = +-1, and transform back.
Cost is O(n 2^(n-1)) per time point or energy level, exact to machine
precision.

scan_evolution and dephased_limit start from all spins down, which in the
x basis is the uniform 2^(-n/2), and transform only the half of the x-basis
states with s_(n-1) = +1:
- E(s) = E(-s) bit for bit, so each row equals itself under index complement;
- the last butterfly stage takes the top index bit, so it adds u to +-u: each
  output is u + u on an even number of up spins and +0 on an odd number;
- so the half-length transform, doubled, gives every even-parity outcome.
_even_parity runs that sequence for both: rows times 1 / sqrt(2^n), the
transform, u + u, times 1 / sqrt(2^n) again. Numpy divides a complex number
by a real one as a multiplication by its reciprocal, so the multiply keeps
the bits of a division by sqrt(2^n).

One kernel, _walsh_hadamard, transforms the rows of a block of time points
(scan_evolution) or energy levels (dephased_limit). A block of at most
128 KiB (BLOCK_ELEMENTS = 2^13 complex or 2^14 real entries, and a work
buffer as big) stays in cache; on a 2-core x86 host it beat 2^12 (more
numpy calls per row) and 2^14 (30% slower at n = 12) in total
scan_evolution time over n = 9-14.

z-basis indexing: bit i of the amplitude index is the state of spin i,
0 = down; outcome_label, outcome_labels and outcome_index convert indices
to labels.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .coupling import InteractionGraph

SIZE_CAP = 14
BLOCK_ELEMENTS = 2**13
ENERGY_RTOL = 1e-9  # relative gap under which dephased_limit merges levels


class CapacityError(ValueError):
    """Spin count exceeds the exact-evolution size cap."""


def outcome_label(index: int, n: int) -> str:
    """Label of z-basis outcome `index` over n spins: character i is spin i,
    '1' = up (bit i of the index), so spin 0 comes first."""
    return format(index, f"0{n}b")[::-1] if n else ""


def _bits(n: int) -> np.ndarray:
    """(2^n, n) integer array whose row i holds bit j of i in column j."""
    return (np.arange(2**n)[:, None] >> np.arange(n)) & 1


def outcome_labels(n: int) -> list:
    """[outcome_label(i, n) for i in range(2**n)], built as one array."""
    if n == 0:
        return [""]
    bits = _bits(n)
    # one UCS4 code point per spin, read as one n-character string per row
    return (bits.astype(np.uint32) + ord("0")).view(f"U{n}").ravel().tolist()


def outcome_index(label: str) -> int:
    """Inverse of outcome_label."""
    return int(label[::-1] or "0", 2)


@dataclass(frozen=True)
class DecoherenceModel:
    """Exponential contrast envelope with a finite time constant tau_d
    (seconds); an undamped evolution takes no model."""

    tau_d: float

    def __post_init__(self):
        if not 0.0 < self.tau_d < math.inf:
            raise ValueError("tau_d must be positive and finite")


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

    def outcome(self, bits: str) -> np.ndarray:
        """Probability series of one outcome, e.g. '11' for two spins up."""
        return self.probabilities[:, outcome_index(bits)]

    def mean_magnetization(self) -> np.ndarray:
        """Average <sigma_z> over spins, per time (+1 = up)."""
        n = self.n_spins
        if n == 0:
            return np.zeros(self.times.size)
        signs = 2.0 * _bits(n) - 1.0
        return self.probabilities @ signs.mean(axis=1)


def _walsh_hadamard(block: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform of each row of a C-contiguous
    float or complex (rows, 2^n) block; returns the block or a new array.

    A pass fuses two radix-2 stages: with a, b, c, d = x[0::4], ..., x[3::4]
    it writes (a+b)+(c+d), (a-b)+(c-d), (a+b)-(c+d), (a-b)-(c-d) as quarters,
    a self-sorting order with long numpy loops; odd n ends with one radix-2
    stage. Additions and their order are those of one stage at a time, so
    each row is bit-identical to a vector butterfly. Stage k takes index bit
    k, so the last stage takes the top bit.
    """
    rows, size = block.shape
    n = size.bit_length() - 1
    pairs = np.empty((rows, 2, size // 2), dtype=block.dtype)
    sums, diffs = pairs[:, 0], pairs[:, 1]
    for _ in range(n // 2):
        quarters = block.reshape(rows, 4, -1)
        np.add(block[:, 0::2], block[:, 1::2], out=sums)
        np.subtract(block[:, 0::2], block[:, 1::2], out=diffs)
        np.add(sums[:, 0::2], sums[:, 1::2], out=quarters[:, 0])
        np.add(diffs[:, 0::2], diffs[:, 1::2], out=quarters[:, 1])
        np.subtract(sums[:, 0::2], sums[:, 1::2], out=quarters[:, 2])
        np.subtract(diffs[:, 0::2], diffs[:, 1::2], out=quarters[:, 3])
    if n % 2:
        np.add(block[:, 0::2], block[:, 1::2], out=sums)
        np.subtract(block[:, 0::2], block[:, 1::2], out=diffs)
        return pairs.reshape(rows, size)
    return block


@functools.lru_cache
def _even_columns(n: int) -> np.ndarray:
    """Read-only outcome index of each entry z' < 2^(n-1) of a half-length
    transform: z' if z' has an even number of bits set, else z' + 2^(n-1),
    the same outcome with spin n-1 up; either way an even-parity outcome."""
    low = np.arange(2**(n - 1))
    columns = np.where(np.bitwise_count(low) % 2, low + 2**(n - 1), low)
    columns.flags.writeable = False
    return columns


def _spin_signs(n: int) -> np.ndarray:
    """(2^n, n) array of x-basis signs; bit 0 maps to s = +1."""
    return 1.0 - 2.0 * _bits(n)


def ising_energies(couplings: np.ndarray) -> np.ndarray:
    """E(s) = sum_{i<j} J_ij s_i s_j for every x-basis sign assignment."""
    n = couplings.shape[0]
    signs = _spin_signs(n)
    return 0.5 * np.einsum("si,ij,sj->s", signs, couplings, signs)


def _check_cap(n: int) -> None:
    if n > SIZE_CAP:
        raise CapacityError(
            f"{n} spins exceeds the exact-evolution cap of {SIZE_CAP}")


def _even_parity(rows: np.ndarray, n: int) -> np.ndarray:
    """Amplitudes of the even-parity outcomes, in _even_columns(n) order, of
    x-basis rows over the 2^(n-1) states with s_(n-1) = +1: the rows, scaled
    in place by 1 / sqrt(2^n), transformed, doubled and scaled again."""
    scale = 1.0 / math.sqrt(2**n)
    u = _walsh_hadamard(np.multiply(scale, rows, out=rows))
    return np.multiply(np.add(u, u, out=u), scale, out=u)


def dephased_limit(graph: InteractionGraph) -> np.ndarray:
    """Long-time average of the outcome probabilities from all spins down.

    Cross terms between x-basis states of different energy average to zero,
    so the limit is the incoherent sum over equal-energy groups. For a
    periodic signal this equals the average over one fundamental period.
    Energies within ENERGY_RTOL of the largest |E| count as one level.
    """
    n = graph.n_spins
    _check_cap(n)
    if n == 0:
        return np.ones(1)
    energies = ising_energies(graph.couplings)
    scale = max(np.max(np.abs(energies)), 1.0)
    keys = np.round(energies / (scale * ENERGY_RTOL)).astype(np.int64)
    keys, level = np.unique(keys, return_inverse=True)

    # one real row per level over half the states, summed in level order
    half = 2**(n - 1)
    level = level[:half]
    limit = np.zeros(half)
    step = max(1, 2 * BLOCK_ELEMENTS // half)
    for first in range(0, keys.size, step):
        rows = min(step, keys.size - first)
        cols = np.flatnonzero((level >= first) & (level < first + rows))
        block = np.zeros((rows, half))
        block[level[cols] - first, cols] = 1.0
        for row in np.abs(_even_parity(block, n)) ** 2:
            limit += row
    full = np.zeros(2**n)
    full[_even_columns(n)] = limit
    return full / full.sum()


def _coherent_scan(couplings: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Undamped outcome probabilities from all spins down, one row per time,
    for n >= 1 spins; rows are evolved in blocks over half the states."""
    n = couplings.shape[0]
    energies, level = np.unique(ising_energies(couplings), return_inverse=True)
    # phases once per distinct energy, for the half of the states with
    # s_(n-1) = +1 (see the module docstring)
    half = 2**(n - 1)
    level = level[:half]
    probs = np.zeros((times.size, 2**n))
    step = max(1, BLOCK_ELEMENTS // half)
    for first in range(0, times.size, step):
        block = times[first:first + step, None]
        phases = np.exp(-1j * block * energies)[:, level]
        p = probs[first:first + step]
        p[:, _even_columns(n)] = np.square(np.abs(_even_parity(phases, n)))
        p /= p.sum(axis=1, keepdims=True)
    return probs


def scan_evolution(graph: InteractionGraph, times,
                   model: DecoherenceModel | None = None) -> ObservableSeries:
    """Outcome probabilities from all spins down over a time grid.

    Each row has the bits of the full 2^n-entry transform of the all-down
    state at its time. With a model each row is damped toward the dephased
    limit:

        p(t) -> p_inf + (p(t) - p_inf) exp(-t / tau_d)
    """
    n = graph.n_spins
    _check_cap(n)
    times = np.asarray(times, dtype=float)
    # no spins: the one, empty outcome is certain
    probs = (_coherent_scan(graph.couplings, times) if n
             else np.ones((times.size, 1)))
    if model is not None:
        p_inf = dephased_limit(graph)
        probs = p_inf + (probs - p_inf) * np.exp(-times / model.tau_d)[:, None]
    return ObservableSeries(n_spins=n, times=times, probabilities=probs)
