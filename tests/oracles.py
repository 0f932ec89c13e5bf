"""Reference implementations the tests check the library against.

None of these runs in the pipeline: each states a result the long way
(full-size matrices, explicit loops) so that the fast library code has an
independent oracle.
"""

import numpy as np

from ionrewire.dynamics import SpinState
from ionrewire.lattice import ShelveMask


def populations(state: SpinState) -> np.ndarray:
    """|amplitude|^2 per z-basis outcome; sums to 1."""
    p = np.abs(state.amplitudes) ** 2
    return p / p.sum()


def mask_union(first: ShelveMask, second: ShelveMask) -> ShelveMask:
    """The mask that shelves every ion either mask shelves."""
    if len(second) != len(first):
        raise ValueError("mask lengths differ")
    return ShelveMask(tuple(a or b for a, b in zip(first.shelved, second.shelved)))


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
