"""Monte Carlo layer: optical-pumping shelving, laser-induced deshelving,
projective measurement with SPAM errors, and the full shelve-evolve-measure
protocol with post-selection by initial configuration.

Every shot draws from its own RNG stream, the one
`np.random.default_rng([seed, shot])` gives for its global shot index, so
runs are reproducible bit for bit and shots can be evaluated in any order.
`ShotStreams` computes these streams for many shots at once, and the
samplers below draw each shot's numbers from it in the order of that shot's
steps.
"""

import math
from dataclasses import dataclass

import numpy as np

from .coupling import CouplingMatrix
from .dynamics import DecoherenceModel, scan_evolution
from .lattice import ShelveMask, apply_mask


@dataclass(frozen=True)
class ShelvingProcess:
    """Exponential depopulation of the ground manifold under optical pumping."""

    tau_shelve: float = 55e-3

    def __post_init__(self):
        if not self.tau_shelve > 0:
            raise ValueError("tau_shelve must be positive")


@dataclass(frozen=True)
class DeshelvingModel:
    """Power-law intensity scaling of the metastable-state return time.

    tau_g(omega) = reference_tau * (reference_rabi / omega) ** exponent
    """

    reference_rabi: float = 2 * math.pi * 76e3
    reference_tau: float = 0.5
    exponent: float = 2.0

    def __post_init__(self):
        for name in ("reference_rabi", "reference_tau", "exponent"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")

    def tau_g(self, rabi_frequency: float) -> float:
        if not rabi_frequency > 0:
            raise ValueError("rabi_frequency must be positive")
        return self.reference_tau * (self.reference_rabi / rabi_frequency) ** self.exponent


@dataclass(frozen=True)
class MeasurementModel:
    """Shot count and symmetric per-qubit readout flip probability."""

    shots: int
    spam_error: float = 0.04

    def __post_init__(self):
        if self.shots < 1:
            raise ValueError("shots must be at least 1")
        if not 0.0 <= self.spam_error <= 1.0:
            raise ValueError("spam_error must be a probability")


@dataclass(frozen=True)
class GroupSeries:
    """Post-selected empirical statistics for one shelve configuration.

    counts[t, outcome] accumulates intact shots only; n_total counts every
    shot that started in this configuration (intact or not).
    """

    config: str
    survivors: np.ndarray
    times: np.ndarray
    counts: np.ndarray
    n_total: np.ndarray
    n_intact: np.ndarray

    def frequencies(self) -> np.ndarray:
        """counts / n_intact with zero-shot time bins left as NaN."""
        denom = np.where(self.n_intact > 0, self.n_intact, 1)[:, None]
        freq = self.counts / denom
        freq[self.n_intact == 0, :] = np.nan
        return freq

    def outcome_frequency(self, bits: str) -> np.ndarray:
        index = sum(1 << i for i, b in enumerate(bits) if b == "1")
        return self.frequencies()[:, index]


@dataclass(frozen=True, eq=False)
class ShotRecords:
    """Protocol shots as columns, one entry per shot.

    Shot `shot[r]` ran at time index `time_index[r]` and started in
    configuration `configs[config[r]]` (a Q/S string). `outcome[r]` is the
    measured survivor pattern (bit i = i-th surviving ion up), and `intact[r]`
    says whether every shelved ion stayed shelved through the evolution.
    """

    configs: tuple
    shot: np.ndarray
    time_index: np.ndarray
    config: np.ndarray
    outcome: np.ndarray
    intact: np.ndarray

    def __len__(self) -> int:
        return self.shot.size


@dataclass(frozen=True)
class ProtocolResult:
    times: np.ndarray
    records: ShotRecords
    groups: dict

    def group(self, config: str) -> GroupSeries:
        return self.groups[config]


def shelf_survival(t: float, process: ShelvingProcess) -> float:
    """Probability of remaining in the ground manifold after pumping for t."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    return math.exp(-t / process.tau_shelve)


def sample_shelving(n: int, beam_time: float, process: ShelvingProcess,
                    rng: np.random.Generator) -> ShelveMask:
    """Independent per-ion Bernoulli shelving after a pumping pulse."""
    p = 1.0 - shelf_survival(beam_time, process)
    return ShelveMask(tuple(bool(u < p) for u in rng.random(n)))


def deshelve_probability(t: float, rabi_frequency: float,
                         model: DeshelvingModel) -> float:
    """Probability that a shelved ion has returned to the ground manifold."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    return 1.0 - math.exp(-t / model.tau_g(rabi_frequency))


# --------------------------------------------------------------------------
# per-shot streams, computed in blocks

_MASK32 = 0xFFFFFFFF
# numpy SeedSequence hash constants (pool of four uint32 words)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
# PCG64's 128-bit LCG multiplier, as (high, low) 64-bit halves
_PCG_MULT_HI, _PCG_MULT_LO = 2549297995355413924, 4865540595714422341

_U32_MASK = np.uint64(_MASK32)
_SHIFT = {bits: np.uint64(bits) for bits in (1, 11, 32, 58, 63)}


def _uint32_words(value: int) -> list:
    """Little-endian 32-bit words of a nonnegative int, as SeedSequence
    splits each entropy entry (0 is one word)."""
    if value < 0:
        raise ValueError("seed must be nonnegative")
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _seed_sequence_state(entropy: list, size: int) -> list:
    """SeedSequence(entropy).generate_state(4, uint64) for uint32 arrays of
    entropy words, one element per stream: the pool mixing, then the output
    hash, returned as four uint64 arrays."""
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> np.uint32(16))

    zero = np.zeros(size, dtype=np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero)
            for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, len(entropy)):
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(entropy[src]))

    hash_const = _INIT_B
    words = []
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = value * np.uint32(hash_const)
        words.append((value ^ (value >> np.uint32(16))).astype(np.uint64))
    return [words[i] | (words[i + 1] << _SHIFT[32]) for i in range(0, 8, 2)]


def _mulhi64(a: np.ndarray, b: int) -> np.ndarray:
    """High 64 bits of the 128-bit products a * b."""
    a_lo, a_hi = a & _U32_MASK, a >> _SHIFT[32]
    b_lo, b_hi = np.uint64(b & _MASK32), np.uint64(b >> 32)
    lo_lo = a_lo * b_lo
    hi_lo = a_hi * b_lo
    cross = (lo_lo >> _SHIFT[32]) + (hi_lo & _U32_MASK) + a_lo * b_hi
    return a_hi * b_hi + (hi_lo >> _SHIFT[32]) + (cross >> _SHIFT[32])


class ShotStreams:
    """The random streams of `np.random.default_rng([seed, shot])` for an
    array of shot indices, advanced together.

    Each stream is a PCG64 generator seeded by a SeedSequence. Both are
    integer arithmetic: the SeedSequence hash runs on uint32 arrays and the
    128-bit LCG step and XSL-RR output on (high, low) uint64 pairs, so every
    draw equals the one numpy's own generator for that shot makes, bit for
    bit. The seed and the shot index may each take several 32-bit entropy
    words.
    """

    def __init__(self, seed: int, shots):
        shots = np.asarray(shots, dtype=np.uint64).reshape(-1)
        seed_words = [np.uint32(w) for w in _uint32_words(int(seed))]
        state = np.zeros((4, shots.size), dtype=np.uint64)
        # a shot index of 2**32 or more is two entropy words
        wide = shots > _U32_MASK
        for sel, shot_words in ((~wide, 1), (wide, 2)):
            if not sel.any():
                continue
            chosen = shots[sel]
            entropy = [np.full(chosen.size, w) for w in seed_words]
            entropy += [((chosen >> np.uint64(32 * j)) & _U32_MASK).astype(np.uint32)
                        for j in range(shot_words)]
            state[:, sel] = _seed_sequence_state(entropy, chosen.size)

        # pcg64_set_seed: state = (w0, w1), inc = ((w2, w3) << 1) | 1,
        # then step, add the state words, step
        init_hi, init_lo, seq_hi, seq_lo = state
        self._inc_hi = (seq_hi << _SHIFT[1]) | (seq_lo >> _SHIFT[63])
        self._inc_lo = (seq_lo << _SHIFT[1]) | np.uint64(1)
        self._hi, self._lo = self._add(self._inc_hi, self._inc_lo,
                                       init_hi, init_lo)
        self._step()

    def __len__(self) -> int:
        return self._lo.size

    @staticmethod
    def _add(a_hi, a_lo, b_hi, b_lo):
        lo = a_lo + b_lo
        return a_hi + b_hi + (lo < a_lo), lo

    def _step(self):
        lo = self._lo * np.uint64(_PCG_MULT_LO)
        hi = (_mulhi64(self._lo, _PCG_MULT_LO)
              + self._lo * np.uint64(_PCG_MULT_HI)
              + self._hi * np.uint64(_PCG_MULT_LO))
        self._hi, self._lo = self._add(hi, lo, self._inc_hi, self._inc_lo)

    def next_uint64(self, count: int) -> np.ndarray:
        """The next `count` words of every stream, shape (streams, count)."""
        out = np.empty((len(self), count), dtype=np.uint64)
        for j in range(count):
            self._step()
            x = self._hi ^ self._lo
            rot = self._hi >> _SHIFT[58]
            out[:, j] = (x >> rot) | (x << ((np.uint64(64) - rot) & np.uint64(63)))
        return out

    def random(self, count: int) -> np.ndarray:
        """The next `count` doubles in [0, 1) of every stream, as
        `Generator.random(count)` draws them."""
        return (self.next_uint64(count) >> _SHIFT[11]) * (1.0 / 9007199254740992.0)

    def generators(self, indices):
        """For each stream index in turn, a generator that continues that
        stream from its current position.

        One generator is reused: each is valid until the next is yielded, and
        what it draws does not advance the streams here.
        """
        generator = np.random.Generator(np.random.PCG64())
        state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0}
        indices = np.asarray(indices, dtype=np.intp)
        for hi, lo, inc_hi, inc_lo in zip(
                self._hi[indices].tolist(), self._lo[indices].tolist(),
                self._inc_hi[indices].tolist(), self._inc_lo[indices].tolist()):
            state["state"] = {"state": (hi << 64) | lo, "inc": (inc_hi << 64) | inc_lo}
            generator.bit_generator.state = state
            yield generator


def _distinct_rows(flags: np.ndarray):
    """Distinct rows of a boolean matrix in lexicographic order (False
    first), and each row's index among them."""
    packed = np.packbits(flags, axis=1)
    order = np.lexsort(packed.T[::-1])
    ordered = packed[order]
    first = np.ones(order.size, dtype=bool)
    np.any(ordered[1:] != ordered[:-1], axis=1, out=first[1:])
    index = np.empty(order.size, dtype=np.intp)
    index[order] = np.cumsum(first) - 1
    return flags[order[first]], index


# --------------------------------------------------------------------------
# samplers


def run_protocol(coupling: CouplingMatrix, beam_time: float, times,
                 shelving: ShelvingProcess, measurement: MeasurementModel,
                 seed: int, deshelving: DeshelvingModel | None = None,
                 drive_rabi: float | None = None,
                 decoherence: DecoherenceModel | None = None) -> ProtocolResult:
    """Full pulse-sequence simulation over a time grid.

    Per shot: sample which ions the pumping pulse shelved (the first
    detection verifies this configuration), evolve the surviving spins under
    the masked coupling graph, optionally sample a laser-induced return time
    for each shelved ion (a return before the evolution ends marks the shot
    not-intact; the returned ion's spin dynamics are not simulated), then
    measure the survivors with SPAM flips.

    Shot s at time index ti is global shot ti * shots + s. It draws, in
    order: n shelving uniforms, the shelved ions' return times (with
    deshelving), one outcome uniform, and one SPAM-flip uniform per survivor
    (with a nonzero SPAM error). Shots run in blocks: the distinct
    configurations are evolved once each, and a shot with fewer survivors
    ignores its unused draws.

    Shots are grouped by their verified initial configuration; the group
    counts that feed the empirical frequencies include intact shots only,
    mirroring the experimental post-selection. Group totals partition the
    full shot budget.
    """
    times = np.asarray(times, dtype=float)
    n = coupling.n_ions
    shots = measurement.shots
    spam = measurement.spam_error
    if deshelving is not None and not (drive_rabi and drive_rabi > 0):
        raise ValueError("deshelving requires the drive Rabi frequency")

    total = times.size * shots
    streams = ShotStreams(seed, np.arange(total))
    time_index = np.repeat(np.arange(times.size), shots)
    p_shelve = 1.0 - shelf_survival(beam_time, shelving)
    shelved, config = _distinct_rows(streams.random(n) < p_shelve)
    n_shelved = shelved.sum(axis=1)
    n_survivors = (n - n_shelved).tolist()
    flip_draws = n if spam > 0.0 else 0

    # shots that draw return times continue their own stream one at a time
    intact = np.ones(total, dtype=bool)
    continued = {}
    if deshelving is not None:
        tau = deshelving.tau_g(drive_rabi)
        returning = np.flatnonzero(n_shelved[config] > 0)
        for i, c, t, rng in zip(returning.tolist(), config[returning].tolist(),
                                times[time_index[returning]].tolist(),
                                streams.generators(returning)):
            returns = rng.exponential(tau, size=n_shelved[c]).tolist()
            intact[i] = min(returns) > t
            continued[i] = rng.random(1 + (n_survivors[c] if flip_draws else 0))
    draws = streams.random(1 + flip_draws)
    for i, row in continued.items():
        draws[i, :row.size] = row

    outcome = np.empty(total, dtype=np.int64)
    order = np.argsort(config, kind="stable")
    config_bounds = np.searchsorted(config[order], np.arange(len(shelved) + 1))
    groups = {}
    configs = []
    for c, mask_row in enumerate(shelved):
        mask = ShelveMask(tuple(mask_row))
        graph = apply_mask(coupling, mask)
        cumulative = np.cumsum(
            scan_evolution(graph, times, model=decoherence).probabilities, axis=1)
        k = n_survivors[c]

        rows = order[config_bounds[c]:config_bounds[c + 1]]
        time_bounds = np.searchsorted(time_index[rows], np.arange(times.size + 1))
        for ti in np.flatnonzero(np.diff(time_bounds)).tolist():
            at = rows[time_bounds[ti]:time_bounds[ti + 1]]
            outcome[at] = np.searchsorted(cumulative[ti], draws[at, 0],
                                          side="right")
        found = np.minimum(outcome[rows], 2**k - 1)
        if flip_draws and k > 0:
            found ^= (draws[rows, 1:1 + k] < spam) @ (1 << np.arange(k))
        outcome[rows] = found

        kept = rows[intact[rows]]
        label = mask.to_string()
        configs.append(label)
        groups[label] = GroupSeries(
            config=label, survivors=graph.survivors, times=times,
            counts=np.bincount(time_index[kept] * 2**k + outcome[kept],
                               minlength=times.size * 2**k
                               ).reshape(times.size, 2**k),
            n_total=np.bincount(time_index[rows], minlength=times.size),
            n_intact=np.bincount(time_index[kept], minlength=times.size))

    records = ShotRecords(configs=tuple(configs), shot=np.arange(total),
                          time_index=time_index, config=config,
                          outcome=outcome, intact=intact)
    return ProtocolResult(times=times, records=records,
                          groups=dict(sorted(groups.items())))


def sample_shelving_decay(n_ions: int, times, process: ShelvingProcess,
                          shots: int, seed: int) -> np.ndarray:
    """Ions left in the ground manifold after pumping for each time, summed
    over `shots` shots of `n_ions` ions. Shot s at time index ti is global
    shot ti * shots + s and draws n_ions shelving uniforms."""
    times = np.asarray(times, dtype=float)
    p_shelve = np.array([1.0 - shelf_survival(float(t), process) for t in times])
    streams = ShotStreams(seed, np.arange(times.size * shots))
    shelved = streams.random(n_ions) < np.repeat(p_shelve, shots)[:, None]
    return n_ions * shots - shelved.reshape(times.size, -1).sum(axis=1)


@dataclass(frozen=True)
class DeshelvingScan:
    """Sampled return curves, one row per drive Rabi frequency.

    times[c, ti] is the drive exposure, p_returned[c, ti] the model return
    probability, and returned[c, ti] the number of shots whose shelved ion
    had returned.
    """

    times: np.ndarray
    p_returned: np.ndarray
    returned: np.ndarray


def sample_deshelving_scan(model: DeshelvingModel, rabi_frequencies, points: int,
                           max_time_factor: float, shots: int,
                           seed: int) -> DeshelvingScan:
    """Return curves over [0, max_time_factor * tau_g] for each drive Rabi
    frequency (rad/s). Point p of the flattened curves draws one uniform per
    shot s on global shot p * shots + s."""
    times = np.array([np.linspace(0.0, max_time_factor * model.tau_g(omega), points)
                      for omega in rabi_frequencies])
    p_returned = np.array([[deshelve_probability(t, omega, model) for t in curve]
                           for curve, omega in zip(times, rabi_frequencies)])
    streams = ShotStreams(seed, np.arange(times.size * shots))
    u = streams.random(1).reshape(times.size, shots)
    returned = (u < p_returned.reshape(-1, 1)).sum(axis=1).reshape(times.shape)
    return DeshelvingScan(times=times, p_returned=p_returned, returned=returned)
