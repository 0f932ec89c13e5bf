"""Effective spin-spin couplings mediated by the crystal's motional modes.

For a drive of Rabi frequency Omega, wavevector difference dk and beatnote
detuning mu from the carrier, the Ising coupling between ions i and j is

    J_ij = Omega^2 R sum_k b_ik b_jk / (mu^2 - omega_k^2)

with R = hbar dk^2 / (2 m) the recoil frequency and b_ik the component of
mode k on ion i along the dk direction. The sum runs over all 3N modes;
modes orthogonal to dk contribute nothing. Everything is in rad/s.

This module owns InteractionGraph, the one coupling type: coupling_matrix
returns one over the whole crystal, and lattice.apply_mask maps one to the
graph of the ions a shelving mask leaves.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .constants import REDUCED_PLANCK, PhysicalConstants
from .crystal import NormalModes, project_modes

DEFAULT_GUARD_BAND = 2.0 * np.pi * 100.0
WAVELENGTH = 355e-9             # m, the paper's Raman beams
X_DIRECTION = (1.0, 0.0, 0.0)   # their default wave-vector difference


class ResonanceError(ValueError):
    """The detuning sits inside the guard band of a participating mode."""

    def __init__(self, message, mode_index, mode_frequency):
        super().__init__(message)
        self.mode_index = mode_index
        self.mode_frequency = mode_frequency


class CalibrationError(ValueError):
    """The requested coupling is outside the achievable range."""

    def __init__(self, message, achievable):
        super().__init__(message)
        self.achievable = achievable


def perpendicular_delta_k(wavelength: float) -> float:
    """|dk| for two beams crossing at 90 degrees: sqrt(2) * 2 pi / lambda."""
    if wavelength <= 0:
        raise ValueError("wavelength must be positive")
    return np.sqrt(2.0) * 2.0 * np.pi / wavelength


@dataclass(frozen=True)
class RamanDrive:
    """Two-photon drive parameters.

    rabi_frequency and detuning are angular frequencies in rad/s;
    delta_k_magnitude is in rad/m. delta_k_magnitude = 0 is allowed at
    construction (it zeroes the recoil) but rejected by coupling_matrix.
    """

    rabi_frequency: float
    delta_k_magnitude: float
    detuning: float
    delta_k_direction: np.ndarray

    def __post_init__(self):
        if self.rabi_frequency < 0:
            raise ValueError("rabi_frequency must be nonnegative")
        if self.delta_k_magnitude < 0:
            raise ValueError("delta_k_magnitude must be nonnegative")
        direction = np.asarray(self.delta_k_direction, dtype=float)
        if direction.shape != (3,) or abs(np.linalg.norm(direction) - 1.0) > 1e-9:
            raise ValueError("delta_k_direction must be a unit 3-vector")
        object.__setattr__(self, "delta_k_direction", direction)

    @classmethod
    def perpendicular_beams(cls, rabi_frequency, detuning) -> "RamanDrive":
        """Two WAVELENGTH beams at 90 degrees, dk along X_DIRECTION."""
        return cls(rabi_frequency=rabi_frequency,
                   delta_k_magnitude=perpendicular_delta_k(WAVELENGTH),
                   detuning=detuning, delta_k_direction=X_DIRECTION)


@dataclass(frozen=True)
class InteractionGraph:
    """Coupling graph over labelled ions: the one coupling type.

    survivors holds the ions' crystal labels in row order; couplings is the
    symmetric zero-diagonal matrix over them in rad/s. coupling_matrix gives
    the graph of a whole crystal (labels 0..n-1), and shelving
    (lattice.apply_mask) maps a graph to the graph of its survivors, keeping
    their labels and copying their couplings bitwise.
    """

    survivors: np.ndarray
    couplings: np.ndarray

    def __post_init__(self):
        survivors = np.asarray(self.survivors, dtype=int)
        j = np.asarray(self.couplings, dtype=float)
        if len(set(survivors.tolist())) != survivors.size:
            raise ValueError("survivor labels must be unique")
        if j.shape != (survivors.size, survivors.size):
            raise ValueError("coupling block shape mismatch")
        if not np.all(np.isfinite(j)):
            raise ValueError("coupling matrix entries must be finite")
        if j.size:
            scale = max(np.max(np.abs(j)), 1e-300)
            if np.max(np.abs(j - j.T)) > 1e-12 * scale:
                raise ValueError("coupling matrix must be symmetric")
            if np.max(np.abs(np.diag(j))) > 1e-12 * scale:
                raise ValueError("coupling matrix diagonal must be zero")
        object.__setattr__(self, "survivors", survivors)
        object.__setattr__(self, "couplings", j)

    @property
    def n_spins(self) -> int:
        return int(self.survivors.size)


def recoil_frequency(drive: RamanDrive, constants: PhysicalConstants) -> float:
    """R = hbar dk^2 / (2 m) in rad/s."""
    return (REDUCED_PLANCK * drive.delta_k_magnitude**2
            / (2.0 * constants.ion_mass))


def coupling_matrix(modes: NormalModes, drive: RamanDrive,
                    constants: PhysicalConstants,
                    guard_band: float = DEFAULT_GUARD_BAND) -> InteractionGraph:
    """Evaluate the coupling graph of every ion (labels 0..n-1) for a drive.

    Raises ResonanceError if the detuning is within guard_band of any mode
    that participates along the drive direction.
    """
    if drive.delta_k_magnitude <= 0:
        raise ValueError("delta_k_magnitude must be positive to drive couplings")
    proj = project_modes(modes, drive.delta_k_direction)
    freqs = modes.frequencies
    mu = abs(drive.detuning)
    gaps = np.abs(mu - freqs)
    offending = np.where(proj.participating & (gaps < guard_band))[0]
    if offending.size:
        k = int(offending[np.argmin(gaps[offending])])
        raise ResonanceError(
            f"detuning {mu:.6e} rad/s is within the {guard_band:.3e} rad/s "
            f"guard band of participating mode {k} at {freqs[k]:.6e} rad/s",
            mode_index=k, mode_frequency=freqs[k])

    recoil = recoil_frequency(drive, constants)
    weights = np.zeros_like(freqs)
    active = proj.participating
    weights[active] = (drive.rabi_frequency**2 * recoil
                       / (mu**2 - freqs[active] ** 2))
    j = proj.amplitudes.T @ (weights[:, None] * proj.amplitudes)
    j = 0.5 * (j + j.T)
    np.fill_diagonal(j, 0.0)
    return InteractionGraph(survivors=np.arange(modes.n_ions), couplings=j)


def _com_mode_index(proj) -> int:
    """Mode coupling most strongly to uniform displacement along the drive."""
    return int(np.argmax(np.abs(np.sum(proj.amplitudes, axis=1))))


def calibrate_detuning(modes: NormalModes, drive: RamanDrive,
                       constants: PhysicalConstants, target: float,
                       pair: tuple, side: str) -> float:
    """Find the detuning that realizes a target pair coupling.

    Searches the window between the center-of-mass mode (along the drive
    direction) and the adjacent participating mode on the requested side,
    each edge DEFAULT_GUARD_BAND from its mode, restricted to the branch
    adjacent to the COM resonance where the pair coupling is monotone in the
    detuning; solves by bisection. The drive's own detuning field is ignored.

    Raises CalibrationError (with the achievable range) when the target
    cannot be reached on that branch.
    """
    if side not in ("above", "below"):
        raise ValueError("side must be 'above' or 'below'")
    i, j = pair
    if i == j:
        raise ValueError("pair must name two distinct ions")

    proj = project_modes(modes, drive.delta_k_direction)
    freqs = modes.frequencies[proj.participating]
    omega_com = modes.frequencies[_com_mode_index(proj)]

    if side == "above":
        higher = freqs[freqs > omega_com * (1 + 1e-12)]
        lo = omega_com + DEFAULT_GUARD_BAND
        hi = ((higher.min() - DEFAULT_GUARD_BAND) if higher.size
              else 20.0 * freqs.max())
        com_end = lo
    else:
        lower = freqs[freqs < omega_com * (1 - 1e-12)]
        lo = (lower.max() if lower.size else 0.0) + DEFAULT_GUARD_BAND
        hi = omega_com - DEFAULT_GUARD_BAND
        com_end = hi
    if not lo < hi:
        raise CalibrationError(
            f"no detuning window on side '{side}' of the COM mode at "
            f"{omega_com:.6e} rad/s", achievable=None)

    def pair_coupling(mu):
        return coupling_matrix(modes, replace(drive, detuning=mu), constants,
                               guard_band=0.0).couplings[i, j]

    f_near = pair_coupling(com_end)
    sign = np.sign(f_near)
    if sign == 0:
        raise CalibrationError(
            f"pair {pair} does not couple through the COM mode", achievable=None)

    # The magnitude of the coupling decays away from the COM resonance until
    # the influence of the next mode (if any) takes over; locate that turning
    # point and bisect on the monotone branch between it and the COM edge.
    turning = float(_minimize_scalar_bounded(
        lambda mu: sign * pair_coupling(mu), lo, hi, 1e-9 * (hi - lo)))
    f_turn = pair_coupling(turning)

    f_min, f_max = sorted((sign * f_turn, sign * f_near))
    if not f_min <= sign * target <= f_max:
        raise CalibrationError(
            f"target {target:.6e} rad/s not achievable on side '{side}': "
            f"reachable couplings lie in [{min(f_turn, f_near):.6e}, "
            f"{max(f_turn, f_near):.6e}] rad/s",
            achievable=(min(f_turn, f_near), max(f_turn, f_near)))

    bracket = (com_end, turning) if side == "above" else (turning, com_end)
    mu = _brentq(lambda m: pair_coupling(m) - target,
                 min(bracket), max(bracket))
    achieved = pair_coupling(mu)
    if abs(achieved - target) > 1e-6 * abs(target):
        raise CalibrationError(
            f"bisection stalled at {achieved:.6e} rad/s for target "
            f"{target:.6e} rad/s", achievable=(achieved, achieved))
    return float(mu)


def _minimize_scalar_bounded(func, x1, x2, xatol):
    """scipy 1.17.1's `minimize_scalar(func, bounds=(x1, x2),
    method="bounded", options={"xatol": xatol})`, operation for operation:
    Brent's golden-section search with parabolic steps on x1 <= x <= x2
    (Brent 1973), at most 500 calls of func. Returns the minimizer found."""
    maxfun = 500
    sqrt_eps = np.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - np.sqrt(5.0))
    a, b = x1, x2
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    x = xf
    fx = func(x)
    num = 1

    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * np.abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while np.abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = 1
        # a parabolic step through the three best points, if acceptable
        if np.abs(e) > tol1:
            golden = 0
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = np.abs(q)
            r = e
            e = rat
            if ((np.abs(p) < np.abs(0.5*q*r)) and (p > q*(a - xf)) and
                    (p < q * (b - xf))):
                rat = (p + 0.0) / q
                x = xf + rat
                if ((x - a) < tol2) or ((b - x) < tol2):
                    si = np.sign(xm - xf) + ((xm - xf) == 0)
                    rat = tol1 * si
            else:
                golden = 1

        if golden:
            if xf >= xm:
                e = a - xf
            else:
                e = b - xf
            rat = golden_mean*e

        si = np.sign(rat) + (rat == 0)
        x = xf + si * np.maximum(np.abs(rat), tol1)
        fu = func(x)
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if (fu <= fnfc) or (nfc == xf):
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif (fu <= ffulc) or (fulc == xf) or (fulc == nfc):
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * np.abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1

        if num >= maxfun:
            break
    return xf


def _brentq(f, xa, xb):
    """scipy 1.17.1's `brentq(f, xa, xb, xtol=1e-3)` (its C `brentq.c`,
    rtol 4 eps, 100 iterations) in double arithmetic: a root of f in
    [xa, xb] by bisection, secant and inverse quadratic interpolation
    (Brent 1973). Raises scipy's errors: ValueError when f(xa) and f(xb)
    have one sign, RuntimeError when 100 iterations do not converge."""
    xtol, rtol = 1e-3, 4 * np.finfo(float).eps
    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = float(f(xpre)), float(f(xcur))
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(100):
        if (fpre != 0 and fcur != 0
                and math.copysign(1.0, fpre) != math.copysign(1.0, fcur)):
            xblk = xpre
            fblk = fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol*abs(xcur))/2
        sbis = (xblk - xcur)/2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur*(xcur - xpre)/(fcur - fpre)
            else:
                # extrapolate; C's division by a zero denominator makes an
                # infinite or NaN step, which bisects
                dpre = (fpre - fcur)/(xpre - xcur)
                dblk = (fblk - fcur)/(xblk - xcur)
                denominator = dblk*dpre*(fblk - fpre)
                stry = (-fcur*(fblk*dblk - fpre*dpre)/denominator
                        if denominator else math.inf)
            if 2*abs(stry) < min(abs(spre), 3*abs(sbis) - delta):
                # good short step
                spre = scur
                scur = stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = float(f(xcur))
    raise RuntimeError("Failed to converge after 100 iterations.")
