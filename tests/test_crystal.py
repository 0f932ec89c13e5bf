import ast
import hashlib
import json
import zlib
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize

import oracles
from ionrewire import crystal as crystal_module
from ionrewire import (
    PhysicalConstants,
    TrapConfig,
    IonCrystal,
    solve_equilibrium,
    compute_normal_modes,
    project_modes,
)
from ionrewire.constants import ELEMENTARY_CHARGE, VACUUM_PERMITTIVITY
from ionrewire.crystal import (
    ConvergenceError,
    UnstableCrystalError,
    _alphas,
    gradient,
    hessian,
    length_scale,
    potential,
)


def two_ion_spacing(constants, trap):
    """Closed-form spacing from force balance on the soft axis."""
    e = ELEMENTARY_CHARGE
    return (e**2 / (2 * np.pi * VACUUM_PERMITTIVITY
                    * constants.ion_mass * trap.omega_x**2)) ** (1 / 3)


def brute_force_energy(alphas, n, seed, bound):
    """Independent derivative-free global minimization of the potential.

    Differential evolution over the full configuration space followed by a
    Nelder-Mead polish; never touches the analytic gradient or Hessian.
    """
    result = scipy.optimize.differential_evolution(
        potential, [(-bound, bound)] * (3 * n), args=(alphas,),
        seed=seed, maxiter=3000, tol=1e-12, polish=False, init="sobol")
    refined = scipy.optimize.minimize(
        potential, result.x, args=(alphas,), method="Nelder-Mead",
        options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 40000,
                 "maxfev": 40000})
    return refined.fun


class TestEquilibrium:
    def test_single_ion_sits_at_origin(self, constants, trap):
        crystal = solve_equilibrium(constants, trap, 1, seed=11)
        assert np.all(np.abs(crystal.positions) < 1e-15)

    def test_two_ion_spacing_matches_closed_form(self, constants, trap):
        crystal = solve_equilibrium(constants, trap, 2, seed=7)
        d = np.linalg.norm(crystal.positions[1] - crystal.positions[0])
        d_exact = two_ion_spacing(constants, trap)
        assert abs(d - d_exact) / d_exact < 1e-9

    def test_two_ion_chain_lies_on_x_axis(self, constants, trap):
        crystal = solve_equilibrium(constants, trap, 2, seed=7)
        ell = length_scale(constants, trap)
        assert np.max(np.abs(crystal.positions[:, 1:])) < 1e-9 * ell

    def test_three_ion_energy_matches_brute_force(self, constants, trap):
        crystal = solve_equilibrium(constants, trap, 3, seed=5)
        alphas = _alphas(trap)
        ell = length_scale(constants, trap)
        energy_unit = constants.ion_mass * trap.omega_x**2 * ell**2
        oracle = brute_force_energy(alphas, 3, seed=1234, bound=2.5)
        assert abs(crystal.potential_energy / energy_unit - oracle) < 1e-9 * abs(oracle)

    def test_three_ion_crystal_is_planar(self, constants, trap, soft_y_trap):
        ell = length_scale(constants, trap)
        for t in (trap, soft_y_trap):
            crystal = solve_equilibrium(constants, t, 3, seed=5)
            spans = np.max(np.abs(crystal.positions), axis=0)
            # at least one coordinate vanishes for every ion
            assert np.min(spans) < 1e-9 * ell

    def test_soft_y_trap_gives_true_triangle(self, constants, soft_y_trap):
        crystal = solve_equilibrium(constants, soft_y_trap, 3, seed=5)
        ell = length_scale(constants, soft_y_trap)
        spans = np.max(np.abs(crystal.positions), axis=0)
        assert spans[0] > 0.1 * ell and spans[1] > 0.1 * ell
        assert spans[2] < 1e-9 * ell

    def test_center_of_mass_at_origin(self, constants, trap):
        for n in (2, 3, 5):
            crystal = solve_equilibrium(constants, trap, n, seed=3)
            ell = length_scale(constants, trap)
            assert np.max(np.abs(crystal.positions.mean(axis=0))) < 1e-9 * ell

    def test_stationarity(self, constants, trap):
        crystal = solve_equilibrium(constants, trap, 4, seed=9)
        force_unit = constants.ion_mass * trap.omega_x**2 * length_scale(constants, trap)
        assert crystal.gradient_norm <= 1e-10 * force_unit

    def test_deterministic_for_fixed_seed(self, constants, trap):
        a = solve_equilibrium(constants, trap, 3, seed=42)
        b = solve_equilibrium(constants, trap, 3, seed=42)
        assert np.array_equal(a.positions, b.positions)
        assert a.potential_energy == b.potential_energy

    def test_nonconvergence_raises_with_residual(self, constants, trap,
                                                 monkeypatch):
        monkeypatch.setattr(crystal_module, "RESTARTS", 1)
        monkeypatch.setattr(crystal_module, "MAX_ITERATIONS", 1)
        monkeypatch.setattr(crystal_module, "GRADIENT_TOL", 1e-14)
        with pytest.raises(ConvergenceError) as err:
            solve_equilibrium(constants, trap, 6, seed=1)
        assert err.value.best_residual > 0

    def test_rejects_empty_crystal(self, constants, trap):
        with pytest.raises(ValueError):
            solve_equilibrium(constants, trap, 0, seed=1)


class TestPotentialDerivatives:
    def test_gradient_matches_central_differences(self, trap):
        alphas = _alphas(trap)
        rng = np.random.default_rng(20)
        for _ in range(5):
            u = rng.normal(scale=1.0, size=12)
            g = gradient(u, alphas)
            h = 1e-6
            fd = np.empty_like(u)
            for i in range(u.size):
                up, dn = u.copy(), u.copy()
                up[i] += h
                dn[i] -= h
                fd[i] = (potential(up, alphas) - potential(dn, alphas)) / (2 * h)
            assert np.max(np.abs(g - fd)) < 1e-6 * max(np.max(np.abs(g)), 1.0)

    def test_hessian_is_symmetric(self, trap):
        alphas = _alphas(trap)
        rng = np.random.default_rng(21)
        u = rng.normal(scale=1.0, size=12)
        h = hessian(u, alphas)
        assert np.max(np.abs(h - h.T)) == 0.0

    def test_energy_permutation_and_reflection_invariance(self, trap):
        alphas = _alphas(trap)
        rng = np.random.default_rng(22)
        pos = rng.normal(scale=1.0, size=(4, 3))
        base = potential(pos.reshape(-1), alphas)
        perm = rng.permutation(4)
        assert potential(pos[perm].reshape(-1), alphas) == pytest.approx(base, rel=1e-12)
        for axis in range(3):
            flipped = pos.copy()
            flipped[:, axis] = -flipped[:, axis]
            assert potential(flipped.reshape(-1), alphas) == pytest.approx(base, rel=1e-12)


def kernel_cases(seed, count=600):
    """(alphas, u) over N = 1-30 with anisotropic traps; every third case is
    a chain along one axis, whose other coordinates are exactly zero."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        n = 1 + k % 30
        alphas = np.concatenate(([1.0], rng.uniform(0.02, 30.0, size=2)))
        u = rng.normal(scale=rng.uniform(0.1, 5.0), size=3 * n)
        if k % 3 == 0:
            pos = u.reshape(n, 3)
            pos[:, np.arange(3) != k % 9 // 3] = 0.0
        yield alphas, u


# (trap Hz, ions, seed): trap_sweep's three geometries at their sizes
SOLVE_CASES = {
    "linear-12": ((4.0e6, 3.7e6, 200e3), 12, 7),
    "zigzag-20": ((3.8e6, 1.2e6, 500e3), 20, 11),
    "3d-28": ((1333961.0, 1195690.2, 976365.7), 28, 452950724),
}


class TestPairKernel:
    """The one-pass energy and gradient keep the bits of the (i, j) form
    in tests/oracles.py, so every crystal the solver returns is unchanged."""

    def test_energy_and_gradient_equal_the_oracle(self):
        for alphas, u in kernel_cases(30):
            energy = potential(u, alphas)
            assert energy == oracles.potential(u, alphas)
            g = gradient(u, alphas)
            assert np.array_equal(g, oracles.gradient(u, alphas))
            # signed zeros too, which == cannot see
            assert g.tobytes() == oracles.gradient(u, alphas).tobytes()

    def test_hessian_equals_the_oracle(self):
        for alphas, u in kernel_cases(31, count=120):
            h = hessian(u, alphas)
            assert h.tobytes() == oracles.hessian(u, alphas).tobytes()

    def test_pass_cache_follows_each_new_configuration(self):
        cases = list(kernel_cases(32, count=60))
        for alphas, u in cases + cases[::-1]:
            assert potential(u, alphas) == oracles.potential(u, alphas)
            assert np.array_equal(gradient(u.copy(), alphas),
                                  oracles.gradient(u, alphas))
            assert np.array_equal(hessian(u, alphas),
                                  oracles.hessian(u, alphas))

    def test_returned_gradient_is_a_copy(self):
        alphas, u = next(kernel_cases(33))
        gradient(u, alphas)[:] = 0.0
        assert np.array_equal(gradient(u, alphas),
                              oracles.gradient(u, alphas))

    def test_cache_key_is_the_float64_point(self):
        """The cache keys a pass by the float64 bytes of u and alphas, so
        an int or float32 u, an (n, 3) u and a list alphas each give the
        oracle's bits at that float64 point, and one u under two alphas
        gives two energies."""
        pos = np.array([[0, 0, -2], [1, 0, 0], [0, 3, 1]])
        alphas = [1.0, 2.5, 7.0]
        reference = np.asarray(pos, dtype=float).reshape(-1)
        for u in (pos.reshape(-1), pos.astype(np.float32).reshape(-1), pos,
                  reference.reshape(-1, 3)):
            for name in ("potential", "gradient", "hessian"):
                got = getattr(crystal_module, name)(u, alphas)
                want = getattr(oracles, name)(reference, np.array(alphas))
                assert bits(got) == bits(want), (u.dtype, u.shape, name)
        softer = [1.0, 2.5, 3.0]
        assert potential(reference, softer) == oracles.potential(
            reference, np.array(softer))
        assert potential(reference, softer) != potential(reference, alphas)

    @pytest.mark.parametrize("case", list(SOLVE_CASES))
    def test_solve_equals_bfgs_on_the_oracle(self, constants, monkeypatch,
                                             case):
        freqs, n, seed = SOLVE_CASES[case]
        trap = TrapConfig.from_hz(*freqs)
        fast = solve_equilibrium(constants, trap, n, seed=seed)
        for name in ("potential", "gradient", "hessian"):
            monkeypatch.setattr(crystal_module, name, getattr(oracles, name))
        slow = solve_equilibrium(constants, trap, n, seed=seed)
        assert fast.positions.tobytes() == slow.positions.tobytes()
        assert fast.potential_energy == slow.potential_energy
        assert fast.gradient_norm == slow.gradient_norm

    def test_one_pair_pass_per_point(self, constants, monkeypatch):
        """BFGS asks for the energy and the gradient at each point, and the
        polish adds the Hessian; the cache of pair passes makes that one
        pass. The polish starts from the energy and gradient BFGS ends
        with. The cache holds the last two configurations, which covers the
        line search's returns to the trial point before the last. The 4
        passes beyond the 782 distinct points are returns to older points:
        the fallback search's first trial, which repeats the failed
        `_dcsrch`'s first, and the polish's first Hessian at the final
        iterate after a failed last search. The asks are counted too: they
        are the tracer's call counts. Every search asks `potential` and
        `gradient` at each of its trial points, so an ask at a point the
        cache holds costs no pass, and there are more asks than passes.
        The same solve runs first, so the counts cannot lean on what the
        cache held before."""
        freqs, n, seed = SOLVE_CASES["linear-12"]
        trap = TrapConfig.from_hz(*freqs)
        solve_equilibrium(constants, trap, n, seed=seed)
        passes = []
        asked = []
        geometry = crystal_module._pair_geometry
        monkeypatch.setattr(crystal_module, "_pair_geometry",
                            lambda pos: passes.append(1) or geometry(pos))
        for name in ("potential", "gradient", "hessian"):
            def ask(u, *args, f=getattr(crystal_module, name), name=name):
                asked.append((name, u.tobytes()))
                return f(u, *args)
            monkeypatch.setattr(crystal_module, name, ask)
        solve_equilibrium(constants, trap, n, seed=seed)
        points = {u for _, u in asked}
        calls = [sum(name == f for f, _ in asked)
                 for name in ("potential", "gradient", "hessian")]
        assert (len(passes), len(points)) == (786, 782)
        assert calls == [805, 776, 8]


def test_no_crystal_function_takes_a_point():
    # the pair-pass cache is the solve's one memo: nothing hands a point
    # object from call to call, and the kernel takes (u, alphas) alone
    takers, kernel = [], {}
    tree = ast.parse(Path(crystal_module.__file__).read_text())
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            continue
        params = node.args
        args = [arg.arg for arg in (
            *params.posonlyargs, *params.args, *params.kwonlyargs,
            *filter(None, (params.vararg, params.kwarg)))]
        name = getattr(node, "name", "<lambda>")
        if "point" in args:
            takers.append(name)
        if name in ("potential", "gradient", "hessian"):
            kernel[name] = args
    assert takers == []
    assert kernel == {name: ["u", "alphas"]
                      for name in ("potential", "gradient", "hessian")}
    assert crystal_module._cached_pass.cache_parameters()["maxsize"] == 2


# digests of the trap_sweep workload's seed-0 crystals, 6 to 28 ions
PINNED_CRYSTALS = Path(__file__).parent / "data" / "trap_sweep_crystals.json"


def crystal_digests(crystal):
    """SHA-256 of the float64 bytes of each field tests/data pins."""
    return {name: hashlib.sha256(np.ascontiguousarray(
                getattr(crystal, name), dtype=np.float64).tobytes()).hexdigest()
            for name in ("positions", "potential_energy", "gradient_norm")}


class TestPinnedCrystals:
    """Linear, zigzag and 3D crystals above 3 ions keep their bits through
    BFGS, the Newton polish and the canonical order."""

    def test_trap_sweep_crystals_keep_their_bits(self):
        drifted = []
        for case in json.loads(PINNED_CRYSTALS.read_text())["crystals"]:
            crystal = solve_equilibrium(
                PhysicalConstants.for_mass_u(case["ion_mass_u"]),
                TrapConfig.from_hz(*case["trap_hz"]), case["n_ions"],
                seed=case["seed"])
            drifted += [f"{case['name']}: {name}"
                        for name, digest in crystal_digests(crystal).items()
                        if digest != case[name]]
        assert not drifted


# trap Hz of tests/conftest.py's `trap` and of the three SOLVE_CASES
BFGS_TRAPS = ((0.978e6, 1.748e6, 1.798e6),
              *(freqs for freqs, _, _ in SOLVE_CASES.values()))
# solve_equilibrium's gtol, 0.1 of its default gradient_tol
BFGS_GTOL = 1e-11


def bfgs_start(n, trap_index, start, scale=None):
    """(alphas, x0): a seeded start of n ions, spread as solve_equilibrium's."""
    alphas = _alphas(TrapConfig.from_hz(*BFGS_TRAPS[trap_index]))
    scale = scale or 0.75 * max(n, 2) ** (1 / 3)
    x0 = np.random.default_rng([n, start]).normal(scale=scale, size=3 * n)
    return alphas, x0


def bits(value):
    return np.asarray(value, dtype=float).tobytes()


def assert_bfgs_equals_scipy(alphas, x0, maxiter=2000):
    """`_bfgs` returns what scipy's BFGS returns, bit for bit; returns the
    warnflag."""
    ref = scipy.optimize.minimize(
        potential, x0, args=(alphas,), jac=gradient, method="BFGS",
        options={"gtol": BFGS_GTOL, "maxiter": maxiter})
    x, fun, g, nit, warnflag = crystal_module._bfgs(
        x0, alphas, BFGS_GTOL, maxiter)
    assert x.tobytes() == ref.x.tobytes()
    assert bits(fun) == bits(ref.fun)
    assert g.tobytes() == ref.jac.tobytes()
    assert (nit, warnflag) == (ref.nit, ref.status)
    # the Newton polish starts from these without asking again
    assert bits(fun) == bits(potential(x, alphas))
    assert g.tobytes() == gradient(x, alphas).tobytes()
    return warnflag


class CountedLineSearch:
    """`crystal._line_search_wolfe2`, the fallback step search, that tallies
    what it returns."""

    def __init__(self, monkeypatch):
        self.outcomes = []
        self._search = crystal_module._line_search_wolfe2
        monkeypatch.setattr(crystal_module, "_line_search_wolfe2", self)

    def __call__(self, *args):
        found = self._search(*args)
        self.outcomes.append("fail" if found[0] is None
                             else "step" if found[2] is not None
                             else "step, no gradient")
        return found


class NoStep:
    """scipy's `DCSRCH`, for the reference BFGS, when it never finds a
    step."""

    def __init__(self, *args):
        pass

    def __call__(self, alpha1, phi0=None, derphi0=None, maxiter=100):
        return None, phi0, phi0, b"WARNING"


def no_step(*args):
    """`crystal._dcsrch` when it never finds a step."""
    return None


class TestBfgsLoop:
    """`crystal._bfgs` is scipy 1.17.1's BFGS, which stays here as the
    reference: the same x, energy, gradient, iteration count and status."""

    def test_seeded_starts(self):
        for n in range(1, 31):
            assert_bfgs_equals_scipy(*bfgs_start(n, n % 4, 0))

    def test_runs_through_the_line_search_fallback(self, monkeypatch):
        # seeded starts where DCSRCH finds no step and line_search one
        searches = CountedLineSearch(monkeypatch)
        for n, trap_index, start in ((3, 0, 2), (4, 1, 0), (8, 2, 0),
                                     (20, 3, 2)):
            assert_bfgs_equals_scipy(*bfgs_start(n, trap_index, start))
        assert "step" in searches.outcomes

    def test_runs_with_every_step_from_the_fallback(self, monkeypatch):
        # far starts take steps so small that line_search's ten doublings
        # end without a gradient, which BFGS then asks for
        searches = CountedLineSearch(monkeypatch)
        monkeypatch.setattr(crystal_module, "_dcsrch", no_step)
        monkeypatch.setattr(scipy.optimize._linesearch, "DCSRCH", NoStep)
        for n in range(1, 31, 3):
            assert_bfgs_equals_scipy(*bfgs_start(n, n % 4, 0))
            assert_bfgs_equals_scipy(*bfgs_start(n, n % 4, 1, scale=1e4))
        assert {"step", "step, no gradient"} <= set(searches.outcomes)

    def test_runs_stopped_at_maxiter(self):
        for n in range(2, 31, 4):
            assert assert_bfgs_equals_scipy(*bfgs_start(n, n % 4, 0),
                                            maxiter=7) == 1

    def test_runs_whose_last_search_fails(self):
        # the solver's gtol is below what the energy resolves, so its runs
        # end when no step lowers the energy: precision loss, warnflag 2
        for n in (2, 12, 28):
            assert assert_bfgs_equals_scipy(*bfgs_start(n, 1, 0)) == 2

    def test_nan_start(self):
        alphas, x0 = bfgs_start(3, 0, 0)
        x0[4] = np.nan
        assert assert_bfgs_equals_scipy(alphas, x0) == 3


class Line:
    """A 1-D search problem as `_dcsrch` and scipy's `DCSRCH` each see it:
    `fun_grad` at x = 0 + s * 1 for the one, phi(s) and derphi(s) for the
    other. Both log the steps they are asked at."""

    def __init__(self, phi, derphi):
        self.phi, self.derphi, self.steps = phi, derphi, []

    def fun_grad(self, x):
        self.steps.append(x[0])
        return self.phi(x[0]), np.array([self.derphi(x[0])])

    def logged_phi(self, s):
        self.steps.append(s)
        return self.phi(s)


def noisy_line(seed, nan_from=np.inf):
    """phi(s) = -s and phi'(s) = -1, each plus a normal draw seeded by the
    bits of s: values and slopes that disagree, so that the search meets
    its warnings. The energy is NaN from s = nan_from on."""
    def draw(s):
        bits = zlib.crc32(np.float64(s).tobytes())
        return np.random.default_rng([seed, bits]).normal(size=2)

    def phi(s):
        if s >= nan_from:
            return np.float64(np.nan)
        return -np.float64(s) + draw(s)[0] if s else np.float64(0.0)

    def derphi(s):
        return -1.0 + 2 * draw(s)[1] if s else np.float64(-1.0)
    return phi, derphi


def slope(s):
    """phi(s) = -s, which has no minimum."""
    return -np.float64(s)


def minus_one(s):
    return np.float64(-1.0)


# (phi, phi') or noisy_line's arguments, first step, and DCSRCH's exit
LINE_CASES = {
    "convergence": ((0,), 1.0, b"CONVERGENCE"),
    "rounding": ((2,), 1.0, b"WARNING: ROUNDING ERRORS PREVENT PROGRESS"),
    "xtol": ((102,), 1.0, b"WARNING: XTOL TEST SATISFIED"),
    "stpmin": ((391,), 1.0, b"WARNING: STP = STPMIN"),
    "stpmax": ((slope, minus_one), 1e99, b"WARNING: STP = STPMAX"),
    "maxiter": ((slope, minus_one),
                1e-3, b"WARNING: dcsrch did not converge within max iterations"),
    "nan-energy": ((0, 0.5), 1.0, b"WARN"),
}


@pytest.fixture
def scipy_dcsrch():
    """scipy's `DCSRCH`, which `crystal._dcsrch` ports: private API, so the
    tests that compare with it skip without it."""
    return pytest.importorskip(
        "scipy.optimize._dcsrch",
        reason="scipy.optimize._dcsrch, the reference for crystal._dcsrch, "
               "is missing").DCSRCH


def assert_dcsrch_equals_scipy(dcsrch, phi, derphi, alpha1, derphi0=None):
    """`_dcsrch` asks for the same steps as scipy's `DCSRCH` with BFGS's
    settings and returns its step and energy, bit for bit, and the gradient
    at that step; returns DCSRCH's exit."""
    derphi0 = derphi(0.0) if derphi0 is None else derphi0
    ours, ref = Line(phi, derphi), Line(phi, derphi)
    found = crystal_module._dcsrch(ours.fun_grad, np.zeros(1), np.ones(1),
                                   alpha1, phi(0.0), derphi0)
    stp, fval, _, task = dcsrch(ref.logged_phi, derphi, 1e-4, 0.9, 1e-14,
                                1e-100, 1e100)(alpha1, phi0=phi(0.0),
                                               derphi0=derphi0, maxiter=100)
    assert bits(ours.steps) == bits(ref.steps)
    if stp is None:
        assert found is None
    else:
        assert bits(found[:2]) == bits([stp, fval])
        assert bits(found[2]) == bits([derphi(stp)])
    return task


class TestLineSearch:
    """`crystal._dcsrch` is scipy 1.17.1's `DCSRCH`, which stays here as the
    reference: the same trial steps, exit, step and energy."""

    @pytest.mark.parametrize("case", list(LINE_CASES))
    def test_each_exit(self, scipy_dcsrch, case):
        problem, alpha1, exit = LINE_CASES[case]
        phi, derphi = (problem if callable(problem[0])
                       else noisy_line(*problem))
        assert assert_dcsrch_equals_scipy(scipy_dcsrch, phi, derphi,
                                          alpha1) == exit

    def test_ascent_is_an_error_without_a_step(self, scipy_dcsrch):
        phi, derphi = noisy_line(0)
        for derphi0 in (np.float64(0.0), np.float64(0.5)):
            task = assert_dcsrch_equals_scipy(scipy_dcsrch, phi, derphi, 1.0,
                                              derphi0)
            assert task == b"ERROR: INITIAL G .GE. ZERO"

    def test_seeded_lines(self, scipy_dcsrch):
        exits = set()
        for seed in range(200):
            for nan_from in (np.inf, 0.5):
                for alpha1 in (1.0, 0.3):
                    task = assert_dcsrch_equals_scipy(
                        scipy_dcsrch, *noisy_line(seed, nan_from), alpha1)
                    exits.add(task[:4])
        assert exits == {b"CONV", b"WARN"}


def fd_hessian_of_potential(u, alphas, h=1e-3):
    """Second-order central differences of the potential, Richardson refined."""
    def plain(step):
        n = u.size
        out = np.empty((n, n))
        for a in range(n):
            for b in range(n):
                pp, pm, mp, mm = (u.copy() for _ in range(4))
                pp[a] += step; pp[b] += step
                pm[a] += step; pm[b] -= step
                mp[a] -= step; mp[b] += step
                mm[a] -= step; mm[b] -= step
                out[a, b] = (potential(pp, alphas) - potential(pm, alphas)
                             - potential(mp, alphas) + potential(mm, alphas)) / (4 * step**2)
        return out

    coarse, fine = plain(h), plain(h / 2)
    return (4 * fine - coarse) / 3


class TestNormalModes:
    def test_two_ion_axial_modes(self, constants, trap):
        crystal = solve_equilibrium(constants, trap, 2, seed=7)
        modes = compute_normal_modes(constants, trap, crystal)
        proj = project_modes(modes, np.array([1.0, 0.0, 0.0]))
        axial = modes.frequencies[proj.participating]
        assert axial.size == 2
        assert abs(axial[0] - trap.omega_x) < 1e-9 * trap.omega_x
        assert abs(axial[1] - np.sqrt(3) * trap.omega_x) < 1e-9 * trap.omega_x

    def test_com_modes_at_trap_frequencies_with_uniform_vectors(self, constants, trap):
        for n in (2, 3):
            crystal = solve_equilibrium(constants, trap, n, seed=7)
            modes = compute_normal_modes(constants, trap, crystal)
            for axis, omega in enumerate(trap.as_array()):
                k = int(np.argmin(np.abs(modes.frequencies - omega)))
                assert abs(modes.frequencies[k] - omega) < 1e-9 * omega
                vec = modes.eigenvectors[:, k].reshape(n, 3)
                expected = np.zeros((n, 3))
                expected[:, axis] = 1 / np.sqrt(n)
                assert np.max(np.abs(vec - expected)) < 1e-7

    def test_fix_signs_equals_the_column_loop(self):
        # rounded entries make ties for the largest magnitude, and some
        # are signed zeros, whose negation == cannot see
        rng = np.random.default_rng(34)
        for k in range(300):
            n = 1 + k % 84
            vecs = rng.normal(size=(n, n))
            if k % 2:
                vecs = np.round(vecs)
                vecs[rng.random((n, n)) < 0.2] = -0.0
            got = crystal_module._fix_signs(vecs)
            assert got.tobytes() == oracles.fix_signs(vecs).tobytes()

    def test_three_ion_spectrum_matches_fd_hessian(self, constants, trap):
        crystal = solve_equilibrium(constants, trap, 3, seed=5)
        modes = compute_normal_modes(constants, trap, crystal)
        alphas = _alphas(trap)
        u = (crystal.positions / length_scale(constants, trap)).reshape(-1)
        lam = np.linalg.eigvalsh(fd_hessian_of_potential(u, alphas))
        oracle = np.sqrt(np.clip(lam, 0, None)) * trap.omega_x
        assert np.max(np.abs(modes.frequencies - oracle) / oracle) < 1e-8

    def test_eigendecomposition_reproduces_hessian(self, constants, trap):
        crystal = solve_equilibrium(constants, trap, 3, seed=5)
        modes = compute_normal_modes(constants, trap, crystal)
        alphas = _alphas(trap)
        u = (crystal.positions / length_scale(constants, trap)).reshape(-1)
        h = hessian(u, alphas)
        lam = (modes.frequencies / trap.omega_x) ** 2
        rebuilt = modes.eigenvectors @ np.diag(lam) @ modes.eigenvectors.T
        assert np.max(np.abs(rebuilt - h)) < 1e-9 * np.max(np.abs(h))

    def test_orthonormal_eigenvectors(self, constants, trap):
        crystal = solve_equilibrium(constants, trap, 4, seed=2)
        modes = compute_normal_modes(constants, trap, crystal)
        identity = modes.eigenvectors.T @ modes.eigenvectors
        assert np.max(np.abs(identity - np.eye(12))) < 1e-10

    def test_degenerate_pair_uses_coordinate_axes(self, constants):
        iso = TrapConfig.from_hz(1.0e6, 1.5e6, 1.5e6)
        crystal = solve_equilibrium(constants, iso, 1, seed=1)
        modes = compute_normal_modes(constants, iso, crystal)
        # y and z modes are degenerate; canonical basis is the coordinate axes
        assert np.allclose(np.abs(modes.eigenvectors), np.eye(3), atol=1e-9)

    def test_saddle_configuration_rejected(self, constants, trap):
        # two ions balanced on the stiff y axis: stationary but unstable
        alphas = _alphas(trap)
        ell = length_scale(constants, trap)
        d = (2.0 / alphas[1]) ** (1 / 3)
        pos = np.array([[0.0, -d / 2, 0.0], [0.0, d / 2, 0.0]])
        g = np.linalg.norm(gradient(pos.reshape(-1), alphas))
        assert g < 1e-12
        fake = IonCrystal(n_ions=2, positions=pos * ell,
                          potential_energy=0.0, gradient_norm=0.0)
        with pytest.raises(UnstableCrystalError):
            compute_normal_modes(constants, trap, fake)


class TestProjection:
    def test_two_ion_axial_amplitudes(self, constants, trap):
        crystal = solve_equilibrium(constants, trap, 2, seed=7)
        modes = compute_normal_modes(constants, trap, crystal)
        proj = project_modes(modes, np.array([1.0, 0.0, 0.0]))
        amps = proj.amplitudes[proj.participating]
        s = 1 / np.sqrt(2)
        assert np.allclose(amps[0], [s, s], atol=1e-9)
        assert np.allclose(np.sort(amps[1]), [-s, s], atol=1e-9)

    def test_orthogonal_direction_has_zero_amplitudes(self, constants, trap):
        crystal = solve_equilibrium(constants, trap, 2, seed=7)
        modes = compute_normal_modes(constants, trap, crystal)
        proj = project_modes(modes, np.array([1.0, 0.0, 0.0]))
        axial = np.where(proj.participating)[0]
        perp = project_modes(modes, np.array([0.0, 1.0, 0.0]))
        assert np.max(np.abs(perp.amplitudes[axial])) < 1e-9

    def test_completeness_over_all_modes(self, constants, trap):
        crystal = solve_equilibrium(constants, trap, 3, seed=5)
        modes = compute_normal_modes(constants, trap, crystal)
        proj = project_modes(modes, np.array([1.0, 0.0, 0.0]))
        overlap = proj.amplitudes.T @ proj.amplitudes
        assert np.max(np.abs(overlap - np.eye(3))) < 1e-9

    def test_rejects_non_unit_direction(self, constants, trap):
        crystal = solve_equilibrium(constants, trap, 2, seed=7)
        modes = compute_normal_modes(constants, trap, crystal)
        with pytest.raises(ValueError):
            project_modes(modes, np.array([1.0, 1.0, 0.0]))
