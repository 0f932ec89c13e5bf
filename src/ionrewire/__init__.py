"""Trapped-ion spin-lattice simulator.

Computes Coulomb-crystal geometry, normal modes, and Ising coupling matrices
from trap parameters; rewires interaction graphs via shelving masks; and runs
exact spin dynamics plus Monte Carlo shelving/measurement protocols.
"""

__version__ = "0.1.0"

from .constants import PhysicalConstants
from .crystal import (
    TrapConfig,
    IonCrystal,
    NormalModes,
    ModeProjection,
    solve_equilibrium,
    compute_normal_modes,
    project_modes,
)
from .coupling import (
    RamanDrive,
    CouplingMatrix,
    recoil_frequency,
    coupling_matrix,
    calibrate_detuning,
)
from .lattice import (
    ShelveMask,
    InteractionGraph,
    TriangularArray,
    triangular_array,
    apply_mask,
    honeycomb_mask,
    kagome_mask,
    verify_geometry,
)
from .dynamics import (
    SpinState,
    DecoherenceModel,
    ObservableSeries,
    evolve_ising,
    populations,
    apply_decoherence,
    scan_evolution,
)
from .stochastic import (
    ShelvingProcess,
    DeshelvingModel,
    MeasurementModel,
    ShotRecords,
    ShotStreams,
    shelf_survival,
    sample_shelving,
    deshelve_probability,
    run_protocol,
)
from .estimator import (
    FitResult,
    fit_pair_coupling,
    fit_exponential,
    fit_power_law,
)

__all__ = [
    "__version__",
    "PhysicalConstants",
    "TrapConfig",
    "IonCrystal",
    "NormalModes",
    "ModeProjection",
    "solve_equilibrium",
    "compute_normal_modes",
    "project_modes",
    "RamanDrive",
    "CouplingMatrix",
    "recoil_frequency",
    "coupling_matrix",
    "calibrate_detuning",
    "ShelveMask",
    "InteractionGraph",
    "TriangularArray",
    "triangular_array",
    "apply_mask",
    "honeycomb_mask",
    "kagome_mask",
    "verify_geometry",
    "SpinState",
    "DecoherenceModel",
    "ObservableSeries",
    "evolve_ising",
    "populations",
    "apply_decoherence",
    "scan_evolution",
    "ShelvingProcess",
    "DeshelvingModel",
    "MeasurementModel",
    "ShotRecords",
    "ShotStreams",
    "shelf_survival",
    "sample_shelving",
    "deshelve_probability",
    "run_protocol",
    "FitResult",
    "fit_pair_coupling",
    "fit_exponential",
    "fit_power_law",
]
