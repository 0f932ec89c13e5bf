"""Physical constants entering the trap potential and spin-spin couplings.

The values are CODATA 2022 literals rather than scipy.constants, whose
permittivity and atomic mass unit differ between scipy releases; every
output of the simulator depends on them bit for bit.
"""

from dataclasses import dataclass

ELEMENTARY_CHARGE = 1.602176634e-19       # C, exact
VACUUM_PERMITTIVITY = 8.8541878188e-12    # F/m
REDUCED_PLANCK = 1.0545718176461565e-34   # J s, h / 2 pi with h exact
ATOMIC_MASS = 1.66053906892e-27           # kg


@dataclass(frozen=True)
class PhysicalConstants:
    """Charge, permittivity, hbar and ion mass, all in SI units.

    Defaults describe a singly charged ion of mass 171 u (Yb-171).
    """

    elementary_charge: float = ELEMENTARY_CHARGE
    vacuum_permittivity: float = VACUUM_PERMITTIVITY
    reduced_planck: float = REDUCED_PLANCK
    ion_mass: float = 171.0 * ATOMIC_MASS

    def __post_init__(self):
        for name in ("elementary_charge", "vacuum_permittivity",
                     "reduced_planck", "ion_mass"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be strictly positive")

    @classmethod
    def for_mass_u(cls, mass_u: float) -> "PhysicalConstants":
        """Constants for a singly charged ion of the given mass in u."""
        return cls(ion_mass=mass_u * ATOMIC_MASS)
