"""Shelving masks, interaction-graph rewiring, and target lattice patterns.

A ShelveMask marks each ion as an active qubit ('Q') or shelved out of the
qubit subspace ('S'). Applying a mask to an InteractionGraph (the coupling
type, owned by the coupling module) deletes the shelved rows/columns and
gives the graph of the survivors: their crystal labels and their couplings
are kept as they were.

Target patterns (honeycomb, kagome) live on an idealized triangular array in
lattice units, decoupled from any physical crystal: removing one sublattice
of the sqrt(3) x sqrt(3) superstructure from a triangular array leaves a
honeycomb lattice (interior degree 3); removing one site per 2 x 2 cell
leaves a kagome lattice (interior degree 4).
"""

from dataclasses import dataclass

import numpy as np

from .coupling import InteractionGraph

QUBIT = "Q"
SHELVED = "S"

_PATTERN_DEGREE = {"triangular": 6, "honeycomb": 3, "kagome": 4}


@dataclass(frozen=True)
class ShelveMask:
    """Per-ion qubit/shelved flags; serialized as a Q/S string."""

    shelved: tuple

    def __post_init__(self):
        object.__setattr__(self, "shelved", tuple(bool(s) for s in self.shelved))

    @classmethod
    def from_string(cls, text: str) -> "ShelveMask":
        if any(ch not in (QUBIT, SHELVED) for ch in text):
            raise ValueError(f"mask string must contain only Q/S: {text!r}")
        return cls(tuple(ch == SHELVED for ch in text))

    @classmethod
    def all_qubits(cls, n: int) -> "ShelveMask":
        return cls((False,) * n)

    def to_string(self) -> str:
        return "".join(SHELVED if s else QUBIT for s in self.shelved)

    def __len__(self) -> int:
        return len(self.shelved)

    @property
    def survivors(self) -> np.ndarray:
        return np.array([i for i, s in enumerate(self.shelved) if not s], dtype=int)


@dataclass(frozen=True)
class TriangularArray:
    """Patch of a triangular lattice in lattice units.

    sites are (row, col) axial indices; coordinates are the 2D positions
    col + row/2, row*sqrt(3)/2; adjacency lists nearest-neighbor site pairs.
    """

    sites: tuple
    coordinates: np.ndarray
    adjacency: tuple


def triangular_array(rows: int, cols: int) -> TriangularArray:
    """Rhombic rows x cols patch; every bulk site has six nearest neighbors."""
    if rows < 0 or cols < 0:
        raise ValueError("rows and cols must be nonnegative")
    sites = [(i, j) for i in range(rows) for j in range(cols)]
    index = {s: n for n, s in enumerate(sites)}
    coords = np.array([(j + 0.5 * i, 0.5 * np.sqrt(3.0) * i) for i, j in sites],
                      dtype=float).reshape(len(sites), 2)
    neighbor_steps = ((0, 1), (1, 0), (1, -1))
    edges = []
    for i, j in sites:
        for di, dj in neighbor_steps:
            other = (i + di, j + dj)
            if other in index:
                edges.append((index[(i, j)], index[other]))
    return TriangularArray(sites=tuple(sites), coordinates=coords,
                           adjacency=tuple(sorted(edges)))


def interior_sites(array: TriangularArray) -> np.ndarray:
    """Sites with a full six-neighbor coordination shell."""
    degree = np.zeros(len(array.sites), dtype=int)
    for a, b in array.adjacency:
        degree[a] += 1
        degree[b] += 1
    return np.where(degree == 6)[0]


def apply_mask(graph: InteractionGraph, mask: ShelveMask) -> InteractionGraph:
    """Delete the shelved rows/columns (mask entry i is row i); the survivors
    keep their labels and couplings, so masking twice is masking once by the
    union of the two masks."""
    if len(mask) != graph.n_spins:
        raise ValueError(
            f"mask length {len(mask)} does not match {graph.n_spins} ions")
    keep = mask.survivors
    return InteractionGraph(survivors=graph.survivors[keep],
                            couplings=graph.couplings[np.ix_(keep, keep)])


def honeycomb_mask(array: TriangularArray) -> ShelveMask:
    """Shelve one three-coloring class: survivors form a honeycomb lattice."""
    return ShelveMask(tuple((i - j) % 3 == 0 for i, j in array.sites))


def kagome_mask(array: TriangularArray) -> ShelveMask:
    """Shelve one site per 2x2 cell: survivors form a kagome lattice."""
    return ShelveMask(tuple(i % 2 == 0 and j % 2 == 0 for i, j in array.sites))


def power_law_coupling(array: TriangularArray, strength: float,
                       exponent: float) -> InteractionGraph:
    """Synthetic distance-decaying couplings on the array, rad/s at spacing 1."""
    coords = array.coordinates
    n = coords.shape[0]
    diff = coords[:, None, :] - coords[None, :, :]
    dist = np.sqrt(np.sum(diff**2, axis=2))
    np.fill_diagonal(dist, np.inf)
    j = strength / dist**exponent
    np.fill_diagonal(j, 0.0)
    return InteractionGraph(survivors=np.arange(n), couplings=0.5 * (j + j.T))


@dataclass(frozen=True)
class GeometryReport:
    """Outcome of checking a rewired graph against a target pattern."""

    pattern: str
    passed: bool
    expected_degree: int
    interior_degrees: dict
    boundary_degrees: dict
    violations: tuple
    degree_histogram: dict


def _surviving_neighbors(graph: InteractionGraph,
                         array: TriangularArray) -> list:
    """(a, b, |J|) for each nearest-neighbor array pair whose sites both
    survive, in adjacency order."""
    pos = {label: k for k, label in enumerate(graph.survivors.tolist())}
    return [(a, b, abs(graph.couplings[pos[a], pos[b]]))
            for a, b in array.adjacency if a in pos and b in pos]


def verify_geometry(graph: InteractionGraph, array: TriangularArray,
                    pattern: str) -> GeometryReport:
    """Check interior survivor degrees against a target pattern.

    Graph edges are surviving nearest-neighbor array pairs with |J| at or
    above half the median |J| over those pairs. Boundary sites are reported
    but excluded from pass/fail.
    """
    if pattern not in _PATTERN_DEGREE:
        raise ValueError(f"unknown pattern {pattern!r}; "
                         f"expected one of {sorted(_PATTERN_DEGREE)}")
    neighbors = _surviving_neighbors(graph, array)
    threshold = (0.5 * float(np.median([j for _, _, j in neighbors]))
                 if neighbors else 0.0)

    degree = {label: 0 for label in graph.survivors.tolist()}
    for a, b, j in neighbors:
        if j >= threshold:
            degree[a] += 1
            degree[b] += 1

    interior = set(interior_sites(array).tolist())
    expected = _PATTERN_DEGREE[pattern]
    interior_degrees = {s: d for s, d in degree.items() if s in interior}
    boundary_degrees = {s: d for s, d in degree.items() if s not in interior}
    violations = tuple(sorted(s for s, d in interior_degrees.items() if d != expected))

    histogram: dict = {}
    for d in degree.values():
        histogram[d] = histogram.get(d, 0) + 1

    return GeometryReport(
        pattern=pattern,
        passed=not violations,
        expected_degree=expected,
        interior_degrees=interior_degrees,
        boundary_degrees=boundary_degrees,
        violations=violations,
        degree_histogram=histogram,
    )
