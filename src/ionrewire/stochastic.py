"""Monte Carlo layer: optical-pumping shelving, laser-induced deshelving,
projective measurement with SPAM errors, and the full shelve-evolve-measure
protocol with post-selection by initial configuration.

Each sampler call draws from one numpy generator,
`np.random.default_rng([seed, stream])`: the block samplers use stream 0
and take whole blocks of uniforms from it in a fixed order, one row per
shot, so runs are reproducible bit for bit and every block is sampled with
array operations. A shot's draws are its row of each block, so they depend
on the shot count and the time grid; shots do not have independent streams.
`sample_shelving` draws from its own stream, `MASK_STREAM`.
"""

import math
from dataclasses import dataclass

import numpy as np

from .coupling import InteractionGraph
from .dynamics import (
    BLOCK_ELEMENTS,
    DecoherenceModel,
    ObservableSeries,
    outcome_index,
    scan_evolution,
)
from .lattice import ShelveMask, apply_mask

# the stream of `sample_shelving`, apart from the block samplers' stream 0
MASK_STREAM = 2**48


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

    survivors holds the surviving ions' labels in the protocol's graph.
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
        return self.frequencies()[:, outcome_index(bits)]


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


def shelf_survival(t: float, process: ShelvingProcess) -> float:
    """Probability of remaining in the ground manifold after pumping for t."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    return math.exp(-t / process.tau_shelve)


def sample_shelving(n: int, beam_time: float, process: ShelvingProcess,
                    seed: int) -> ShelveMask:
    """Independent per-ion Bernoulli shelving after a pumping pulse, from the
    first n uniforms of `np.random.default_rng([seed, MASK_STREAM])`."""
    p = 1.0 - shelf_survival(beam_time, process)
    uniforms = np.random.default_rng([seed, MASK_STREAM]).random(n)
    return ShelveMask(tuple(bool(u < p) for u in uniforms))


def deshelve_probability(t: float, rabi_frequency: float,
                         model: DeshelvingModel) -> float:
    """Probability that a shelved ion has returned to the ground manifold."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    return 1.0 - math.exp(-t / model.tau_g(rabi_frequency))


def _distinct_rows(flags: np.ndarray):
    """Distinct rows of a boolean matrix in lexicographic order (False
    first), each row's index among them, and the rows grouped by that index:
    a stable order whose group c is order[bounds[c]:bounds[c + 1]]."""
    packed = np.packbits(flags, axis=1)
    # with no columns every row is the one empty row; lexsort needs a key
    order = (np.lexsort(packed.T[::-1]) if packed.shape[1]
             else np.arange(len(flags)))
    ordered = packed[order]
    first = np.ones(order.size, dtype=bool)
    np.any(ordered[1:] != ordered[:-1], axis=1, out=first[1:])
    index = np.empty(order.size, dtype=np.intp)
    index[order] = np.cumsum(first) - 1
    bounds = np.append(np.flatnonzero(first), order.size)
    return flags[order[first]], index, order, bounds


# --------------------------------------------------------------------------
# samplers


def run_protocol(graph: InteractionGraph, beam_time: float, times,
                 shelving: ShelvingProcess, measurement: MeasurementModel,
                 seed: int, deshelving: DeshelvingModel | None = None,
                 drive_rabi: float | None = None,
                 decoherence: DecoherenceModel | None = None,
                 evolved: ObservableSeries | None = None) -> ProtocolResult:
    """Full pulse-sequence simulation over a time grid.

    Per shot: sample which ions the pumping pulse shelved (the first
    detection verifies this configuration), evolve the surviving spins under
    the masked coupling graph, optionally check whether each shelved ion has
    returned by the shot's time (a return marks the shot not-intact; the
    returned ion's spin dynamics are not simulated), then measure the
    survivors with SPAM flips.

    Shot r = ti * shots + s runs at time index ti and reads row r of each
    block it draws from `np.random.default_rng([seed, 0])`, in this order:
    shelving uniforms (total, n); outcome uniforms (total,); SPAM-flip
    uniforms (total, n), with a nonzero SPAM error; then return uniforms
    (total, n), with deshelving. Shelved ion i has returned by time t when
    its return uniform is below deshelve_probability(t, drive_rabi,
    deshelving), as in sample_deshelving_scan. The return block comes last,
    so deshelving changes which shots are intact and nothing else. The
    distinct configurations are evolved once each, and a shot with fewer
    survivors ignores its unused flip uniforms.

    Shots are grouped by their verified initial configuration; the group
    counts that feed the empirical frequencies include intact shots only,
    mirroring the experimental post-selection. Group totals partition the
    full shot budget. `groups` and `records.configs` list the configurations
    in label order, Q before S, as `_distinct_rows` yields them.

    evolved, if given, is scan_evolution(graph, times, model=decoherence):
    the configuration with no shelved ion samples from it instead of
    evolving the graph again. It is read, never changed.
    """
    times = np.asarray(times, dtype=float)
    n = graph.n_spins
    shots = measurement.shots
    spam = measurement.spam_error
    if deshelving is not None and not (drive_rabi and drive_rabi > 0):
        raise ValueError("deshelving requires the drive Rabi frequency")
    if evolved is not None and (evolved.n_spins != n
                                or not np.array_equal(evolved.times, times)):
        raise ValueError(
            "evolved series must have the graph's spin count and the times")

    total = times.size * shots
    rng = np.random.default_rng([seed, 0])
    time_index = np.repeat(np.arange(times.size), shots)
    p_shelve = 1.0 - shelf_survival(beam_time, shelving)
    shelved, config, order, config_bounds = _distinct_rows(
        rng.random((total, n)) < p_shelve)
    n_survivors = (n - shelved.sum(axis=1)).tolist()
    draws = rng.random(total)
    flips = rng.random((total, n)) if spam > 0.0 else None

    intact = np.ones(total, dtype=bool)
    if deshelving is not None:
        p_return = np.array([deshelve_probability(t, drive_rabi, deshelving)
                             for t in times.tolist()])
        returned = rng.random((total, n)) < p_return[time_index, None]
        intact = ~np.any(returned & shelved[config], axis=1)

    outcome = np.empty(total, dtype=np.int64)
    groups = {}
    configs = []
    for c, mask_row in enumerate(shelved):
        mask = ShelveMask(tuple(mask_row))
        reduced = apply_mask(graph, mask)
        k = n_survivors[c]
        series = (evolved if evolved is not None and k == n
                  else scan_evolution(reduced, times, model=decoherence))

        rows = order[config_bounds[c]:config_bounds[c + 1]]
        time_bounds = np.searchsorted(time_index[rows], np.arange(times.size + 1))
        sampled = np.flatnonzero(np.diff(time_bounds))
        # cumsum adds along each row in sequence, so a block of rows has the
        # bits of a cumsum over the whole table, without its memory
        step = max(1, BLOCK_ELEMENTS // 2**k)
        for first in range(0, sampled.size, step):
            block = sampled[first:first + step]
            cumulative = np.cumsum(series.probabilities[block], axis=1)
            for ti, row in zip(block.tolist(), cumulative):
                at = rows[time_bounds[ti]:time_bounds[ti + 1]]
                outcome[at] = np.searchsorted(row, draws[at], side="right")
        found = np.minimum(outcome[rows], 2**k - 1)
        if flips is not None and k > 0:
            found ^= (flips[rows, :k] < spam) @ (1 << np.arange(k))
        outcome[rows] = found

        kept = rows[intact[rows]]
        label = mask.to_string()
        configs.append(label)
        groups[label] = GroupSeries(
            config=label, survivors=reduced.survivors, times=times,
            counts=np.bincount(time_index[kept] * 2**k + outcome[kept],
                               minlength=times.size * 2**k
                               ).reshape(times.size, 2**k),
            n_total=np.bincount(time_index[rows], minlength=times.size),
            n_intact=np.bincount(time_index[kept], minlength=times.size))

    records = ShotRecords(configs=tuple(configs), shot=np.arange(total),
                          time_index=time_index, config=config,
                          outcome=outcome, intact=intact)
    return ProtocolResult(times=times, records=records, groups=groups)


def sample_shelving_decay(n_ions: int, times, process: ShelvingProcess,
                          shots: int, seed: int) -> np.ndarray:
    """Ions left in the ground manifold after pumping for each time, summed
    over `shots` shots of `n_ions` ions. Shot s at time index ti reads row
    ti * shots + s of one (times * shots, n_ions) block of shelving uniforms
    from `np.random.default_rng([seed, 0])`."""
    times = np.asarray(times, dtype=float)
    p_shelve = np.array([1.0 - shelf_survival(float(t), process) for t in times])
    rng = np.random.default_rng([seed, 0])
    shelved = (rng.random((times.size * shots, n_ions))
               < np.repeat(p_shelve, shots)[:, None])
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
    frequency (rad/s). Point p of the flattened curves reads row p of one
    (curves * points, shots) block of return uniforms from
    `np.random.default_rng([seed, 0])`, one uniform per shot."""
    times = np.array([np.linspace(0.0, max_time_factor * model.tau_g(omega), points)
                      for omega in rabi_frequencies])
    p_returned = np.array([[deshelve_probability(t, omega, model) for t in curve]
                           for curve, omega in zip(times, rabi_frequencies)])
    u = np.random.default_rng([seed, 0]).random((times.size, shots))
    returned = (u < p_returned.reshape(-1, 1)).sum(axis=1).reshape(times.shape)
    return DeshelvingScan(times=times, p_returned=p_returned, returned=returned)
