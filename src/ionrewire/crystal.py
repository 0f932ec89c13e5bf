"""Equilibrium structure and normal modes of ion crystals in a harmonic trap.

The potential energy of N identical ions is

    U = sum_i m/2 (wx^2 x_i^2 + wy^2 y_i^2 + wz^2 z_i^2)
        + sum_{i<j} e^2 / (4 pi eps0 r_ij)

Internally everything is dimensionless: lengths in units of
l = (e^2 / (4 pi eps0 m wx^2))^(1/3) and frequencies in units of wx, which
makes the Coulomb term exactly sum 1/r_ij and keeps the minimizer well
conditioned. SI values are restored at the interface.

Coordinate layout is ion-major: flat index 3*i + a for ion i, axis a.

The energy and the gradient at a point come from one pass over the ion
pairs (`_Pass`), shared by BFGS's `potential` and `gradient` calls. The pass
keeps two reduction orders of the plain (i, j) form, so every crystal the
solver returns keeps its bits, and with them every mode, coupling and
checksum downstream: a squared distance adds (dx^2 + dy^2) + dz^2, as a
reduce over a length-3 axis does, and an ion's Coulomb force adds its
partners j = 0, 1, ... in sequence, as a reduce over a non-contiguous axis
does. Pair quantities are bitwise symmetric, so the one (j, i) layout whose
leading-axis reduce is that sequence serves the energy, force and Hessian.
The last two passes are kept, keyed by the float64 bytes of u and alphas
(`_pair_pass`), so a repeated ask at either point costs no pass.

The quasi-Newton search (`_bfgs`) does the float operations of scipy 1.17.1's
`minimize(method="BFGS")` in the same order: `_minimize_bfgs`,
`scalar_search_wolfe1` and its step-length search `DCSRCH` (MINPACK-2's
More-Thuente search, here `_dcsrch` and `_dcstep`). So it returns the same
iterates, bit for bit, without scipy's per-call wrappers and objects. It has
no memo of its own in place of scipy's `ScalarFunction`: every energy and
gradient is asked of `potential` and `gradient`. When `_dcsrch` finds no
step, `scipy.optimize.line_search` takes over, as in scipy, with its
private `LineSearchWarning` silenced through the base class `RuntimeWarning`.
"""

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.optimize

from .constants import PhysicalConstants

# modes whose frequencies differ by at most this fraction form one cluster
DEGENERACY_RTOL = 1e-9
# a mode participates along a direction if some ion's amplitude reaches this
PARTICIPATION_CUTOFF = 1e-9


class ConvergenceError(RuntimeError):
    """No restart of the equilibrium search met the gradient tolerance."""

    def __init__(self, message, best_residual):
        super().__init__(message)
        self.best_residual = best_residual


class UnstableCrystalError(RuntimeError):
    """The Hessian at the candidate equilibrium has a negative eigenvalue."""


@dataclass(frozen=True)
class TrapConfig:
    """Secular angular frequencies of the harmonic pseudopotential, rad/s."""

    omega_x: float
    omega_y: float
    omega_z: float

    def __post_init__(self):
        for name in ("omega_x", "omega_y", "omega_z"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be strictly positive")

    @classmethod
    def from_hz(cls, freq_x: float, freq_y: float, freq_z: float) -> "TrapConfig":
        """Build from ordinary frequencies in Hz (multiplied by 2 pi here)."""
        two_pi = 2.0 * np.pi
        return cls(two_pi * freq_x, two_pi * freq_y, two_pi * freq_z)

    def as_array(self) -> np.ndarray:
        return np.array([self.omega_x, self.omega_y, self.omega_z])


@dataclass(frozen=True)
class IonCrystal:
    """Converged equilibrium configuration.

    positions is an (N, 3) array in meters; potential_energy is in joules and
    gradient_norm is the residual force 2-norm in newtons.
    """

    n_ions: int
    positions: np.ndarray
    potential_energy: float
    gradient_norm: float


@dataclass(frozen=True)
class NormalModes:
    """Eigensystem of the mass-scaled Hessian at equilibrium.

    frequencies: 3N mode angular frequencies in rad/s, ascending.
    eigenvectors: orthonormal (3N, 3N) matrix; rows indexed 3*ion + axis,
    columns indexed by mode. Signs follow the largest-component-positive rule.
    """

    n_ions: int
    frequencies: np.ndarray
    eigenvectors: np.ndarray


@dataclass(frozen=True)
class ModeProjection:
    """Per-ion mode amplitudes along a spatial direction.

    amplitudes[k, i] is the component of mode k on ion i along the direction;
    participating flags modes whose largest amplitude exceeds the cutoff.
    """

    frequencies: np.ndarray
    amplitudes: np.ndarray
    participating: np.ndarray


def length_scale(constants: PhysicalConstants, trap: TrapConfig) -> float:
    """Coulomb length l = (e^2 / (4 pi eps0 m wx^2))^(1/3) in meters."""
    e = constants.elementary_charge
    coulomb = e * e / (4.0 * np.pi * constants.vacuum_permittivity)
    return (coulomb / (constants.ion_mass * trap.omega_x**2)) ** (1.0 / 3.0)


def _alphas(trap: TrapConfig) -> np.ndarray:
    """Dimensionless squared trap frequencies (wx, wy, wz)^2 / wx^2."""
    w = trap.as_array()
    return (w / trap.omega_x) ** 2


def _pair_geometry(pos: np.ndarray):
    """Displacements diff[j, i] = pos[i] - pos[j] and inverse distances
    with a zeroed diagonal."""
    n = pos.shape[0]
    diff = pos[None, :, :] - pos[:, None, :]
    sq = diff * diff
    dist = np.sqrt((sq[:, :, 0] + sq[:, :, 1]) + sq[:, :, 2])
    dist.reshape(-1)[::n + 1] = np.inf
    return diff, 1.0 / dist


class _Pass:
    """Pair geometry, energy and gradient of one configuration u."""

    __slots__ = ("diff", "inv", "energy", "gradient")

    def __init__(self, u: np.ndarray, alphas: np.ndarray):
        pos = u.reshape(-1, 3)
        self.diff, self.inv = _pair_geometry(pos)
        self.energy = (0.5 * np.add.reduce(alphas * (pos * pos), axis=None)
                       + 0.5 * np.add.reduce(self.inv, axis=None))
        terms = self.diff * (self.inv**3)[:, :, None]
        self.gradient = (alphas * pos - np.add.reduce(terms, axis=0)).reshape(-1)


@functools.lru_cache(maxsize=2)
def _cached_pass(u: bytes, alphas: bytes) -> _Pass:
    """The `_Pass` at float64 bytes u and alphas, for the last two asked.

    BFGS asks `potential` and then `gradient` at each point, and the Newton
    polish asks `hessian` too, so each point costs one pass. The line search
    sometimes goes back to the trial point before the last, which the
    second entry keeps.
    """
    return _Pass(np.frombuffer(u), np.frombuffer(alphas))


def _pair_pass(u, alphas) -> _Pass:
    """The cached `_Pass` at u and alphas, keyed by their float64 bytes."""
    return _cached_pass(np.asarray(u, dtype=float).tobytes(),
                        np.asarray(alphas, dtype=float).tobytes())


def potential(u: np.ndarray, alphas: np.ndarray) -> float:
    """Dimensionless potential energy at flat ion-major coordinates u."""
    return _pair_pass(u, alphas).energy


def gradient(u: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """Analytic gradient of `potential`, as a flat float64 array."""
    return _pair_pass(u, alphas).gradient.copy()


def hessian(u: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """Analytic Hessian of `potential` as a (3N, 3N) symmetric matrix."""
    geometry = _pair_pass(u, alphas)
    diff, inv = geometry.diff, geometry.inv
    n = inv.shape[0]
    inv3 = inv**3
    inv5 = inv**5

    eye3 = np.eye(3)
    # Off-diagonal ion blocks: d^2(1/r)/du_i du_j = delta_ab/r^3 - 3 d_a d_b/r^5,
    # the same bits at (i, j) and (j, i). The i == j entries are exactly zero
    # because inv has a zeroed diagonal.
    cross = (inv3[:, :, None, None] * eye3[None, None, :, :]
             - 3.0 * diff[:, :, :, None] * diff[:, :, None, :] * inv5[:, :, None, None])
    blocks = cross.copy()
    idx = np.arange(n)
    # Diagonal ion blocks: trap curvature minus the sum of off-diagonal blocks.
    blocks[idx, idx] = -np.sum(cross, axis=1) + np.diag(alphas)[None, :, :]
    h = blocks.transpose(0, 2, 1, 3).reshape(3 * n, 3 * n)
    return 0.5 * (h + h.T)


def _vecnorm(v):
    """scipy's 2-norm for BFGS's step test, whose bits decide zero and NaN:
    np.sum's reduce, without its wrapper."""
    return np.add.reduce(np.abs(v)**2, axis=0)**(1.0 / 2)


# DCSRCH's tolerances and step bounds as scalar_search_wolfe1 sets them for
# BFGS: ftol and gtol are BFGS's Wolfe constants c1 and c2
_FTOL, _GTOL, _XTOL = 1e-4, 0.9, 1e-14
_STPMIN, _STPMAX = 1e-100, 1e100
_MAXITER = 100


def _clip(x, lo, hi):
    """np.clip's value for scalars: NaN stays, a tie goes to the bound."""
    if x != x:
        return x
    x = x if x > lo else lo
    return x if x < hi else hi


def _dcstep(stx, fx, dx, sty, fy, dy, stp, fp, dp, brackt, stpmin, stpmax):
    """scipy 1.17.1's `dcstep` (MINPACK-2's safeguarded cubic or quadratic
    step, More and Thuente 1994), operation for operation: a new trial step
    and the updated interval (stx, sty) that holds a minimizer."""
    # np.sign(dp) * np.sign(dx) < 0, which NaN fails
    opposite = dp < 0 < dx or dx < 0 < dp

    if fp > fx:
        # a higher function value: the minimum is bracketed; the cubic
        # step if it is closer to stx than the quadratic one, else their mean
        theta = 3.0 * (fx - fp) / (stp - stx) + dx + dp
        s = max(abs(theta), abs(dx), abs(dp))
        gamma = s * np.sqrt((theta / s) ** 2 - (dx / s) * (dp / s))
        if stp < stx:
            gamma *= -1
        p = (gamma - dx) + theta
        q = ((gamma - dx) + gamma) + dp
        r = p / q
        stpc = stx + r * (stp - stx)
        stpq = stx + ((dx / ((fx - fp) / (stp - stx) + dx)) / 2.0) * (stp - stx)
        if abs(stpc - stx) <= abs(stpq - stx):
            stpf = stpc
        else:
            stpf = stpc + (stpq - stpc) / 2.0
        brackt = True
    elif opposite:
        # a lower value and derivatives of opposite sign: bracketed; the
        # cubic step if it is farther from stp than the secant step
        theta = 3 * (fx - fp) / (stp - stx) + dx + dp
        s = max(abs(theta), abs(dx), abs(dp))
        gamma = s * np.sqrt((theta / s) ** 2 - (dx / s) * (dp / s))
        if stp > stx:
            gamma *= -1
        p = (gamma - dp) + theta
        q = ((gamma - dp) + gamma) + dx
        r = p / q
        stpc = stp + r * (stx - stp)
        stpq = stp + (dp / (dp - dx)) * (stx - stp)
        if abs(stpc - stp) > abs(stpq - stp):
            stpf = stpc
        else:
            stpf = stpq
        brackt = True
    elif abs(dp) < abs(dx):
        # a lower value, derivatives of one sign, and a decreasing slope:
        # the cubic step if the cubic tends to infinity along the step or
        # its minimum lies beyond stp, else the secant step
        theta = 3 * (fx - fp) / (stp - stx) + dx + dp
        s = max(abs(theta), abs(dx), abs(dp))
        gamma = s * np.sqrt(max(0, (theta / s) ** 2 - (dx / s) * (dp / s)))
        if stp > stx:
            gamma = -gamma
        p = (gamma - dp) + theta
        q = (gamma + (dx - dp)) + gamma
        r = p / q
        if r < 0 and gamma != 0:
            stpc = stp + r * (stx - stp)
        elif stp > stx:
            stpc = stpmax
        else:
            stpc = stpmin
        stpq = stp + (dp / (dp - dx)) * (stx - stp)
        if brackt:
            if abs(stpc - stp) < abs(stpq - stp):
                stpf = stpc
            else:
                stpf = stpq
            if stp > stx:
                stpf = min(stp + 0.66 * (sty - stp), stpf)
            else:
                stpf = max(stp + 0.66 * (sty - stp), stpf)
        else:
            if abs(stpc - stp) > abs(stpq - stp):
                stpf = stpc
            else:
                stpf = stpq
            stpf = _clip(stpf, stpmin, stpmax)
    else:
        # a lower value, derivatives of one sign, and a slope that does not
        # decrease: the cubic step if bracketed, else a bound
        if brackt:
            theta = 3.0 * (fp - fy) / (sty - stp) + dy + dp
            s = max(abs(theta), abs(dy), abs(dp))
            gamma = s * np.sqrt((theta / s) ** 2 - (dy / s) * (dp / s))
            if stp > sty:
                gamma = -gamma
            p = (gamma - dp) + theta
            q = ((gamma - dp) + gamma) + dy
            r = p / q
            stpc = stp + r * (sty - stp)
            stpf = stpc
        elif stp > stx:
            stpf = stpmax
        else:
            stpf = stpmin

    # update the interval that holds a minimizer
    if fp > fx:
        sty, fy, dy = stp, fp, dp
    else:
        if opposite:
            sty, fy, dy = stx, fx, dx
        stx, fx, dx = stp, fp, dp
    return stx, fx, dx, sty, fy, dy, stpf, brackt


def _dcsrch(fun_grad, xk, pk, stp, finit, ginit):
    """scipy 1.17.1's `DCSRCH(phi, derphi, _FTOL, _GTOL, _XTOL, _STPMIN,
    _STPMAX)(stp, finit, ginit, _MAXITER)` on phi(s), the energy at
    xk + s pk, operation for operation, with locals in place of the
    object's state.

    Each trial point is built once, and `fun_grad` returns its energy and
    gradient. Returns (step, energy, gradient) at a step that meets the
    strong Wolfe conditions, or None when DCSRCH finds none: an ERROR or
    WARNING exit, a step that is not finite, or _MAXITER iterations, the
    first of which is START's argument check.
    """
    # START: the tolerances and bounds are valid constants; a step outside
    # the bounds or an ascent direction is an ERROR, a NaN step a WARNING
    if not _STPMIN <= stp <= _STPMAX or ginit >= 0:
        return None
    brackt = False
    stage = 1
    gtest = _FTOL * ginit
    width = _STPMAX - _STPMIN
    width1 = width / 0.5
    # (stx, fx, gx) is the best step so far, (sty, fy, gy) the interval's
    # other end
    stx, fx, gx = 0.0, finit, ginit
    sty, fy, gy = 0.0, finit, ginit
    stmin, stmax = 0, stp + 4.0 * stp
    for _ in range(_MAXITER - 1):
        f, gval = fun_grad(xk + stp * pk)
        g = np.dot(gval, pk)
        ftest = finit + stp * gtest
        # psi(stp) <= 0 and f'(stp) >= 0 start the second stage
        if stage == 1 and f <= ftest and g >= 0:
            stage = 2
        warning = False
        if brackt and (stp <= stmin or stp >= stmax):
            warning = True  # rounding errors prevent progress
        if brackt and stmax - stmin <= _XTOL * stmax:
            warning = True  # the xtol test is satisfied
        if stp == _STPMAX and f <= ftest and g <= gtest:
            warning = True
        if stp == _STPMIN and (f > ftest or g >= gtest):
            warning = True
        if f <= ftest and abs(g) <= _GTOL * -ginit:
            return stp, f, gval
        if warning:
            return None

        # dcstep's operations can make NaN (inf/inf, say), which DCSRCH
        # does not warn about
        if stage == 1 and f <= fx and f > ftest:
            # a lower value without sufficient decrease: step on the
            # modified function psi
            fm = f - stp * gtest
            fxm = fx - stx * gtest
            fym = fy - sty * gtest
            gm = g - gtest
            gxm = gx - gtest
            gym = gy - gtest
            with np.errstate(invalid="ignore", over="ignore"):
                stx, fxm, gxm, sty, fym, gym, stp, brackt = _dcstep(
                    stx, fxm, gxm, sty, fym, gym, stp, fm, gm, brackt,
                    stmin, stmax)
            fx = fxm + stx * gtest
            fy = fym + sty * gtest
            gx = gxm + gtest
            gy = gym + gtest
        else:
            with np.errstate(invalid="ignore", over="ignore"):
                stx, fx, gx, sty, fy, gy, stp, brackt = _dcstep(
                    stx, fx, gx, sty, fy, gy, stp, f, g, brackt,
                    stmin, stmax)

        if brackt:
            # bisect if the interval shrank too slowly
            if abs(sty - stx) >= 0.66 * width1:
                stp = stx + 0.5 * (sty - stx)
            width1 = width
            width = abs(sty - stx)
            stmin = min(stx, sty)
            stmax = max(stx, sty)
        else:
            stmin = stp + 1.1 * (stp - stx)
            stmax = stp + 4.0 * (stp - stx)
        stp = _clip(stp, _STPMIN, _STPMAX)
        # if no further progress is possible, go back to the best step
        if (brackt and (stp <= stmin or stp >= stmax)
                or brackt and stmax - stmin <= _XTOL * stmax):
            stp = stx
        if not math.isfinite(stp):
            return None
    # DCSRCH asks for its last trial point but tests it no more
    fun_grad(xk + stp * pk)
    return None


def _line_search(alphas, xk, pk, gfk, old_fval, old_old_fval):
    """scipy's `_line_search_wolfe12`: `_dcsrch` from the step guess of
    `scalar_search_wolfe1`, then `scipy.optimize.line_search` if it finds
    no step. Both ask `potential` and `gradient`, whose last two pair passes
    serve a repeated point without another pass.

    Returns (step, energy, gradient or None), or None when both searches
    fail.
    """
    def fun_grad(x):
        return potential(x, alphas), gradient(x, alphas)

    derphi0 = np.dot(gfk, pk)
    alpha1 = 1.0
    if derphi0 != 0:
        alpha1 = min(1.0, 1.01*2*(old_fval - old_old_fval)/derphi0)
        if alpha1 < 0:
            alpha1 = 1.0
    found = _dcsrch(fun_grad, xk, pk, alpha1, old_fval, derphi0)
    if found is not None:
        return found
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        stp, _, _, fval, _, g = scipy.optimize.line_search(
            potential, gradient, xk, pk, gfk, old_fval, old_old_fval,
            args=(alphas,), c1=_FTOL, c2=_GTOL, amax=_STPMAX)
    return None if stp is None else (stp, fval, g)


def _bfgs(x0, alphas, gtol, maxiter):
    """scipy 1.17.1's `minimize(method="BFGS")` with the ∞-norm `gtol`
    test, bit for bit. Returns (x, energy, gradient, iterations, warnflag):
    warnflag 0 converged, 1 hit maxiter, 2 a line search failed or the
    energy is not finite, 3 NaN."""
    xk = x0
    old_fval = potential(x0, alphas)
    gfk = gradient(x0, alphas)
    k, warnflag = 0, 0
    size = x0.size
    eye = np.eye(size)
    hk = eye
    # the update's n x n temporaries, made once
    a1, a2, ss = (np.empty((size, size)) for _ in range(3))
    # the first step guess makes dx ~ 1
    old_old_fval = old_fval + np.linalg.norm(gfk) / 2
    gnorm = np.abs(gfk).max()
    while gnorm > gtol and k < maxiter:
        pk = -np.dot(hk, gfk)
        found = _line_search(alphas, xk, pk, gfk, old_fval, old_old_fval)
        if found is None:
            warnflag = 2
            break
        alpha_k, fval, gfkp1 = found
        old_old_fval, old_fval = old_fval, fval
        sk = alpha_k * pk
        xk = xk + sk
        if gfkp1 is None:
            gfkp1 = gradient(xk, alphas)
        yk = gfkp1 - gfk
        gfk = gfkp1
        k += 1
        gnorm = np.abs(gfk).max()
        if gnorm <= gtol:
            break
        # scipy's step test with xrtol = 0: a step that underflows to zero
        # stops, unless the norm of xk is not finite
        step = alpha_k * _vecnorm(pk)
        if step <= 0 and step <= 0 * (0 + _vecnorm(xk)):
            break
        if not math.isfinite(old_fval):
            warnflag = 2
            break
        rhok_inv = np.dot(yk, sk)
        rhok = 1000.0 if rhok_inv == 0. else 1. / rhok_inv
        # scipy's A1 = I - sk yk^T rhok, as (sk_i yk_j) rhok
        np.multiply.outer(sk, yk, out=a1)
        a1 *= rhok
        np.subtract(eye, a1, out=a1)
        # scipy's A2 = I - yk sk^T rhok is A1 transposed, bit for bit, as
        # products commute. BLAS needs it contiguous: through a transposed
        # view, np.dot(hk, a2) changes bits in about half the updates.
        a2[...] = a1.T
        # scipy's rhok sk sk^T, as (rhok sk_i) sk_j
        np.multiply.outer(rhok * sk, sk, out=ss)
        hk = np.dot(a1, np.dot(hk, a2))
        hk += ss
    if warnflag == 0 and k >= maxiter:
        warnflag = 1
    elif warnflag == 0 and (np.isnan(gnorm) or np.isnan(old_fval)
                            or np.isnan(xk).any()):
        warnflag = 3
    return xk, old_fval, gfk, k, warnflag


def _newton_polish(u, energy, g, alphas, tol, max_steps=60):
    """Newton refinement of a near-converged configuration u, whose energy
    and gradient are given. The first Hessian reuses the pair pass of u
    that BFGS ended with."""
    for _ in range(max_steps):
        if np.linalg.norm(g) <= tol:
            break
        h = hessian(u, alphas)
        try:
            step = np.linalg.solve(h, -g)
        except np.linalg.LinAlgError:
            step = -g
        # Backtrack if a full Newton step overshoots.
        for _ in range(30):
            trial = u + step
            trial_energy = potential(trial, alphas)
            if np.isfinite(trial_energy) and trial_energy <= energy + 1e-12 * abs(energy):
                u, energy = trial, trial_energy
                g = gradient(u, alphas)
                break
            step *= 0.5
        else:
            break
    return u, energy, np.linalg.norm(g)


def _canonical_order(pos: np.ndarray) -> np.ndarray:
    """Sort ions lexicographically by rounded (x, y, z) for stable labeling."""
    key = np.round(pos, 7)
    order = np.lexsort((key[:, 2], key[:, 1], key[:, 0]))
    return pos[order]


def solve_equilibrium(constants: PhysicalConstants, trap: TrapConfig, n: int,
                      seed: int, restarts: int = 8, max_iterations: int = 2000,
                      gradient_tol: float = 1e-10) -> IonCrystal:
    """Find the minimum-energy ion configuration by multi-start minimization.

    Runs `restarts` quasi-Newton searches from seeded random initial
    configurations, polishes each with Newton steps, and keeps the
    lowest-energy converged result (ties go to the lowest restart index).
    `gradient_tol` applies to the dimensionless gradient 2-norm.

    Raises ConvergenceError (carrying the best residual force in newtons)
    if no restart converges.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    alphas = _alphas(trap)
    ell = length_scale(constants, trap)
    energy_unit = constants.ion_mass * trap.omega_x**2 * ell**2
    force_unit = constants.ion_mass * trap.omega_x**2 * ell

    rng = np.random.default_rng(seed)
    spread = 0.75 * max(n, 2) ** (1.0 / 3.0)
    inits = rng.normal(scale=spread, size=(restarts, 3 * n))

    best = None
    best_gnorm = np.inf
    for x0 in inits:
        x, fun, g, _, _ = _bfgs(x0, alphas, 0.1 * gradient_tol,
                                max_iterations)
        u, energy, gnorm = _newton_polish(x, fun, g, alphas,
                                          0.1 * gradient_tol)
        best_gnorm = min(best_gnorm, gnorm)
        if gnorm <= gradient_tol and (best is None or energy < best[0]):
            best = (energy, u)

    if best is None:
        raise ConvergenceError(
            f"equilibrium search failed for n={n}: best residual "
            f"{best_gnorm:.3e} (dimensionless) exceeds {gradient_tol:.1e}",
            best_residual=best_gnorm * force_unit)

    energy, u = best
    pos = _canonical_order(u.reshape(n, 3))
    gnorm = np.linalg.norm(gradient(pos.reshape(-1), alphas))
    return IonCrystal(
        n_ions=n,
        positions=pos * ell,
        potential_energy=energy * energy_unit,
        gradient_norm=gnorm * force_unit,
    )


def _fix_signs(vecs: np.ndarray) -> np.ndarray:
    """Flip eigenvector signs so the largest-magnitude component is positive.

    np.argmax returns the first maximal entry, so ties resolve to the lowest
    (ion, axis) row index.
    """
    lead = np.argmax(np.abs(vecs), axis=0)
    flip = vecs[lead, np.arange(vecs.shape[1])] < 0
    out = vecs.copy()
    out[:, flip] = -out[:, flip]
    return out


def _canonical_degenerate_basis(vecs: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal basis of a degenerate eigenspace.

    Projects coordinate-axis unit vectors onto the subspace in row order and
    Gram-Schmidt orthonormalizes, so the result does not depend on the
    arbitrary basis returned by the eigensolver.
    """
    dim = vecs.shape[1]
    projector = vecs @ vecs.T
    basis = []
    for r in range(vecs.shape[0]):
        w = projector[:, r].copy()
        for b in basis:
            w -= (b @ w) * b
        norm = np.linalg.norm(w)
        if norm > 1e-6:
            basis.append(w / norm)
            if len(basis) == dim:
                break
    if len(basis) != dim:
        raise RuntimeError("degenerate subspace could not be re-spanned")
    return np.column_stack(basis)


def compute_normal_modes(constants: PhysicalConstants, trap: TrapConfig,
                         crystal: IonCrystal) -> NormalModes:
    """Diagonalize the mass-scaled Hessian at the crystal equilibrium.

    Frequencies come back ascending in rad/s; eigenvectors are orthonormal
    with a deterministic sign and degenerate-subspace convention. Raises
    UnstableCrystalError on a negative eigenvalue beyond tolerance.
    """
    alphas = _alphas(trap)
    ell = length_scale(constants, trap)
    u = (crystal.positions / ell).reshape(-1)
    lam, vecs = np.linalg.eigh(hessian(u, alphas))

    neg_tol = 1e-9 * max(lam[-1], 1.0)
    if lam[0] < -neg_tol:
        raise UnstableCrystalError(
            f"negative mode eigenvalue {lam[0]:.3e} (dimensionless, tolerance "
            f"{-neg_tol:.1e}): configuration is not a stable minimum")
    lam = np.clip(lam, 0.0, None)
    freqs = np.sqrt(lam)

    # Re-span degenerate clusters deterministically.
    start = 0
    while start < freqs.size:
        stop = start + 1
        while stop < freqs.size and freqs[stop] - freqs[stop - 1] <= DEGENERACY_RTOL * freqs[stop]:
            stop += 1
        if stop - start > 1:
            vecs[:, start:stop] = _canonical_degenerate_basis(vecs[:, start:stop])
        start = stop

    vecs = _fix_signs(vecs)
    ortho_err = np.max(np.abs(vecs.T @ vecs - np.eye(vecs.shape[0])))
    if ortho_err > 1e-10:
        raise RuntimeError(f"eigenvector orthonormality violated: {ortho_err:.3e}")

    return NormalModes(
        n_ions=crystal.n_ions,
        frequencies=freqs * trap.omega_x,
        eigenvectors=vecs,
    )


def project_modes(modes: NormalModes, direction: np.ndarray) -> ModeProjection:
    """Per-ion amplitudes b_{i,k} of every mode along a unit direction; a
    mode participates when some |b_{i,k}| reaches PARTICIPATION_CUTOFF."""
    direction = np.asarray(direction, dtype=float)
    if direction.shape != (3,) or abs(np.linalg.norm(direction) - 1.0) > 1e-9:
        raise ValueError("direction must be a unit 3-vector")
    n = modes.n_ions
    # eigenvectors reshaped to (ion, axis, mode); contract the axis index.
    by_ion = modes.eigenvectors.reshape(n, 3, 3 * n)
    amplitudes = np.einsum("iak,a->ki", by_ion, direction)
    participating = np.max(np.abs(amplitudes), axis=1) >= PARTICIPATION_CUTOFF
    return ModeProjection(
        frequencies=modes.frequencies.copy(),
        amplitudes=amplitudes,
        participating=participating,
    )
