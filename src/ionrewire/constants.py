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
YB171_MASS_U = 171.0                      # u, the ion of the paper's protocol


@dataclass(frozen=True)
class PhysicalConstants:
    """Mass in kg of a singly charged ion, Yb-171 by default.

    Charge, permittivity and hbar are the module constants above.
    """

    ion_mass: float = YB171_MASS_U * ATOMIC_MASS

    def __post_init__(self):
        if not self.ion_mass > 0.0:
            raise ValueError("ion_mass must be strictly positive")

    @classmethod
    def for_mass_u(cls, mass_u: float) -> "PhysicalConstants":
        """Constants for a singly charged ion of the given mass in u."""
        return cls(ion_mass=mass_u * ATOMIC_MASS)
