"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion (pytest itself reports FAILED lines on violation).
"""

import hashlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from ionrewire import (
    PhysicalConstants,
    TrapConfig,
    solve_equilibrium,
    compute_normal_modes,
    project_modes,
)
from ionrewire.cli import BUNDLED_SCENARIOS, load_scenario, run_command
from ionrewire.constants import ELEMENTARY_CHARGE, VACUUM_PERMITTIVITY
from ionrewire.coupling import (
    RamanDrive,
    calibrate_detuning,
    coupling_matrix,
)
from ionrewire.dynamics import DecoherenceModel, dephased_limit, scan_evolution
from ionrewire.estimator import fit_exponential, fit_pair_coupling, fit_power_law
from ionrewire.lattice import (
    ShelveMask,
    apply_mask,
    honeycomb_mask,
    kagome_mask,
    power_law_coupling,
    triangular_array,
    verify_geometry,
)
from ionrewire.stochastic import (
    MeasurementModel,
    ShelvingProcess,
    run_protocol,
    sample_shelving_decay,
)
from oracles import (
    SpinState,
    embed_survivor_state,
    evolve_ising,
    graph_of,
    graph_of_pairs,
    populations,
    survivor_marginal,
    uniform_graph,
    zero_shelved_couplings,
)

TWO_PI = 2 * np.pi
CONSTANTS = PhysicalConstants()
TRAP = TrapConfig.from_hz(0.978e6, 1.748e6, 1.798e6)
XHAT = np.array([1.0, 0.0, 0.0])


def test_criterion_1_two_ion_dynamics():
    start = time.perf_counter()
    crystal = solve_equilibrium(CONSTANTS, TRAP, 2, seed=7)
    modes = compute_normal_modes(CONSTANTS, TRAP, crystal)
    drive = RamanDrive.perpendicular_beams(TWO_PI * 76e3, detuning=0.0)
    target = TWO_PI * 750.0
    mu = calibrate_detuning(modes, drive, CONSTANTS, target=target,
                            pair=(0, 1), side="above")
    coupling = coupling_matrix(
        modes, RamanDrive.perpendicular_beams(TWO_PI * 76e3, detuning=mu),
        CONSTANTS)
    j12 = coupling.couplings[0, 1]
    assert j12 == pytest.approx(target, rel=1e-6)

    graph = apply_mask(coupling, ShelveMask.all_qubits(2))
    times = np.arange(0.0, 1.0e-3, 1e-6)
    series = scan_evolution(graph, times, model=DecoherenceModel(tau_d=5.5e-3))
    p11 = series.outcome("11")

    # first interior maximum of the damped curve
    interior = np.where((p11[1:-1] > p11[:-2]) & (p11[1:-1] >= p11[2:]))[0] + 1
    t_peak = times[interior[0]]
    assert abs(t_peak - np.pi / (2 * j12)) <= 0.01 * np.pi / (2 * j12)

    # oscillation period pi/J between consecutive maxima
    assert len(interior) >= 2
    period = times[interior[1]] - times[interior[0]]
    assert abs(period - np.pi / j12) <= 0.01 * np.pi / j12

    # contrast is damped with tau_d: at t = tau_d the coherent deviation
    # from the dephased limit is reduced by exactly e
    limit = dephased_limit(graph)[0b11]
    tau = 5.5e-3
    coherent = np.sin(j12 * tau) ** 2
    damped = scan_evolution(graph, np.array([tau]),
                            model=DecoherenceModel(tau_d=tau)).outcome("11")[0]
    assert damped == pytest.approx(limit + (coherent - limit) / math.e, rel=1e-9)

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"ACCEPTANCE 1 PASS: two-ion oscillation, first max at "
          f"{t_peak * 1e3:.4f} ms, period {period * 1e3:.4f} ms, "
          f"{elapsed:.2f} s")


def test_criterion_2_shelving_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 9))
        j = rng.normal(scale=TWO_PI * 500.0, size=(n, n))
        j = 0.5 * (j + j.T)
        np.fill_diagonal(j, 0.0)
        flags = rng.random(n) < 0.45
        if flags.all():
            flags[int(rng.integers(n))] = False
        mask = ShelveMask(tuple(bool(f) for f in flags))
        k = len(mask.survivors)
        amps = rng.normal(size=2**k) + 1j * rng.normal(size=2**k)
        amps /= np.linalg.norm(amps)
        state = SpinState(n_spins=k, amplitudes=amps)
        t = rng.uniform(0.0, 3e-3)

        reduced = apply_mask(graph_of(j), mask)
        p_reduced = populations(evolve_ising(reduced, t, state))

        zeroed = zero_shelved_couplings(j, mask)
        embedded = embed_survivor_state(state, mask.survivors, n)
        p_full = populations(evolve_ising(graph_of(zeroed), t, embedded))
        marginal = survivor_marginal(p_full, n, mask.survivors)

        worst = max(worst, float(np.max(np.abs(marginal - p_reduced))))
    assert worst <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"ACCEPTANCE 2 PASS: shelving equivalence, worst deviation "
          f"{worst:.2e}, {elapsed:.1f} s")


def test_criterion_3_three_ion_reconstruction():
    start = time.perf_counter()
    planted = {(0, 1): TWO_PI * 460.0, (0, 2): TWO_PI * 430.0,
               (1, 2): TWO_PI * 480.0}
    coupling = graph_of_pairs(3, planted)
    times = np.linspace(0.0, 3e-3, 41)
    model = DecoherenceModel(tau_d=5.5e-3)
    shots = 120
    pair_masks = {(0, 1): "QQS", (0, 2): "QSQ", (1, 2): "SQQ"}

    exact = {}
    for pair, mask in pair_masks.items():
        graph = apply_mask(coupling, ShelveMask.from_string(mask))
        exact[pair] = scan_evolution(graph, times, model=model).outcome("11")

    hits = {pair: 0 for pair in pair_masks}
    first_fits = {}
    for trial in range(100):
        rng = np.random.default_rng(1000 + trial)
        for pair in pair_masks:
            observed = rng.binomial(shots, exact[pair]) / shots
            fit = fit_pair_coupling(times, observed, shots=shots)
            j_hat = fit.parameters["coupling"]
            if abs(j_hat - planted[pair]) <= 3 * fit.std_errors["coupling"]:
                hits[pair] += 1
            if trial == 0:
                first_fits[pair] = j_hat
    assert all(h >= 95 for h in hits.values()), hits

    # re-inserted fitted couplings reproduce the three-spin distribution
    full = apply_mask(coupling, ShelveMask.all_qubits(3))
    refit = apply_mask(graph_of_pairs(3, first_fits),
                       ShelveMask.all_qubits(3))
    p_planted = scan_evolution(full, times).probabilities
    p_fitted = scan_evolution(refit, times).probabilities
    tvd = 0.5 * np.abs(p_planted - p_fitted).sum(axis=1)
    assert float(tvd.max()) <= 0.02

    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(f"ACCEPTANCE 3 PASS: coupling recovery hits {tuple(hits.values())}"
          f"/100 per pair, max TVD {tvd.max():.4f}, {elapsed:.1f} s")


def test_criterion_4_exact_evolution_oracle():
    start = time.perf_counter()
    pauli_x = np.array([[0.0, 1.0], [1.0, 0.0]])
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(25):
        n = int(rng.integers(1, 9))
        j = rng.normal(scale=TWO_PI * 400.0, size=(n, n))
        j = 0.5 * (j + j.T)
        np.fill_diagonal(j, 0.0)
        amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        amps /= np.linalg.norm(amps)
        t = rng.uniform(0.0, 2e-3)

        dim = 2**n
        h = np.zeros((dim, dim))
        for a in range(n):
            for b in range(a + 1, n):
                ops = [np.eye(2)] * n
                ops[a] = pauli_x
                ops[b] = pauli_x
                term = ops[n - 1]
                for op in reversed(ops[:-1]):
                    term = np.kron(term, op)
                h = h + j[a, b] * term
        propagator = scipy.linalg.expm(-1j * t * h)
        oracle = propagator @ amps

        fast = evolve_ising(graph_of(j), t,
                            SpinState(n_spins=n, amplitudes=amps)).amplitudes
        worst = max(worst, float(np.max(np.abs(fast - oracle))))
        # the library's path: from all spins down, the even-parity half only
        scanned = scan_evolution(graph_of(j), [t]).probabilities[0]
        worst = max(worst, float(np.max(np.abs(
            scanned - np.abs(propagator[:, 0]) ** 2))))
    assert worst <= 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"ACCEPTANCE 4 PASS: phase accumulation vs expm, worst deviation "
          f"{worst:.2e}, {elapsed:.1f} s")


def test_criterion_5_crystal_oracle():
    crystal = solve_equilibrium(CONSTANTS, TRAP, 2, seed=7)
    d = np.linalg.norm(crystal.positions[1] - crystal.positions[0])
    e = ELEMENTARY_CHARGE
    d_exact = (e**2 / (2 * np.pi * VACUUM_PERMITTIVITY
                       * CONSTANTS.ion_mass * TRAP.omega_x**2)) ** (1 / 3)
    assert abs(d - d_exact) / d_exact <= 1e-9

    modes = compute_normal_modes(CONSTANTS, TRAP, crystal)
    axial = project_modes(modes, XHAT)
    freqs = modes.frequencies[axial.participating]
    assert abs(freqs[0] - TRAP.omega_x) <= 1e-9 * TRAP.omega_x
    assert abs(freqs[1] - math.sqrt(3) * TRAP.omega_x) <= 1e-9 * TRAP.omega_x

    crystal3 = solve_equilibrium(CONSTANTS, TRAP, 3, seed=5)
    modes3 = compute_normal_modes(CONSTANTS, TRAP, crystal3)
    for omega in (TRAP.omega_x, TRAP.omega_y, TRAP.omega_z):
        gap = np.min(np.abs(modes3.frequencies - omega))
        assert gap <= 1e-9 * omega
    print(f"ACCEPTANCE 5 PASS: two-ion spacing {d * 1e6:.3f} um matches "
          f"closed form; axial modes and COM frequencies exact to 1e-9")


def test_criterion_6_deshelving_law():
    from ionrewire.stochastic import DeshelvingModel

    start = time.perf_counter()
    model = DeshelvingModel(reference_rabi=TWO_PI * 76e3, reference_tau=0.5,
                            exponent=2.0)
    rabi_hz = np.array([38e3, 76e3, 152e3, 304e3, 608e3])
    shots = 120
    estimates = []
    for i, rhz in enumerate(rabi_hz):
        omega = TWO_PI * rhz
        tau_true = model.tau_g(omega)
        times = np.linspace(0.0, 3.0 * tau_true, 25)
        rng = np.random.default_rng(600 + i)
        fractions = [rng.binomial(shots, 1.0 - math.exp(-t / tau_true)) / shots
                     for t in times]
        fit = fit_exponential(times, np.array(fractions), model="inverse")
        estimates.append(fit)

    power = fit_power_law(TWO_PI * rabi_hz,
                          np.array([f.parameters["tau"] for f in estimates]))
    exponent = power.parameters["exponent"]
    assert abs(exponent + 2.0) <= 0.1

    ref = estimates[1]  # 2 pi x 76 kHz
    assert abs(ref.parameters["tau"] - 0.5) <= 3 * ref.std_errors["tau"]

    j12 = TWO_PI * 750.0
    separation = model.tau_g(TWO_PI * 76e3) * j12
    assert separation > 100.0

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"ACCEPTANCE 6 PASS: deshelving exponent {exponent:.3f}, "
          f"tau_g(76 kHz) {ref.parameters['tau'] * 1e3:.0f} ms, timescale "
          f"separation {separation:.0f}, {elapsed:.1f} s")


def test_criterion_7_shelving_statistics():
    # depopulation fit at 120 shots/point
    process = ShelvingProcess(tau_shelve=55e-3)
    times = np.linspace(0.0, 0.25, 26)
    shots = 120
    in_ground = sample_shelving_decay(1, times, process, shots, 7500)
    fit = fit_exponential(times, in_ground / shots, model="decay")
    tau_hat = fit.parameters["tau"]
    assert abs(tau_hat - 55e-3) <= 3 * fit.std_errors["tau"]

    # configuration frequencies at p = 1/2, n = 3, over 1e5 shots
    beam_time = 55e-3 * math.log(2.0)
    samples = 100_000
    result = run_protocol(uniform_graph(3, TWO_PI * 450.0),
                          beam_time=beam_time, times=np.array([0.0]),
                          shelving=process,
                          measurement=MeasurementModel(shots=samples,
                                                       spam_error=0.0),
                          seed=7600, evolved=None)
    counts = np.zeros(4, dtype=int)
    for config, group in result.groups.items():
        counts[config.count("S")] += group.n_total[0]
    probs = np.array([1, 3, 3, 1]) / 8.0
    sigma = np.sqrt(samples * probs * (1 - probs))
    deviation = np.abs(counts - samples * probs)
    assert np.all(deviation < 4 * sigma)
    print(f"ACCEPTANCE 7 PASS: fitted shelving tau "
          f"{tau_hat * 1e3:.1f} ms (3 sigma), binomial configuration counts "
          f"within {np.max(deviation / sigma):.2f} sigma")


def test_criterion_8_lattice_patterns():
    start = time.perf_counter()
    array = triangular_array(12, 12)
    coupling = power_law_coupling(array, strength=TWO_PI * 1.0,
                                  exponent=3.0)
    for mask_fn, pattern, degree in ((honeycomb_mask, "honeycomb", 3),
                                     (kagome_mask, "kagome", 4)):
        graph = apply_mask(coupling, mask_fn(array))
        report = verify_geometry(graph, array, pattern)
        assert report.passed
        assert report.interior_degrees  # non-vacuous on a 12 x 12 patch
        assert all(d == degree for d in report.interior_degrees.values())
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"ACCEPTANCE 8 PASS: honeycomb degree 3 and kagome degree 4 on a "
          f"12x12 patch, {elapsed:.2f} s")


def _digests(out_dir: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir()) if p.name != "manifest.json"}


def _drifted(got: dict, committed: dict) -> str:
    """The file names whose digest differs, or that only one side has."""
    return ", ".join(sorted(name for name in got.keys() | committed.keys()
                            if got.get(name) != committed.get(name)))


SRC = Path(__file__).resolve().parent.parent / "src"
CHECKSUMS = SRC / "ionrewire" / "scenarios" / "checksums.json"


def test_criterion_9_determinism(tmp_path):
    committed = json.loads(CHECKSUMS.read_text())

    for name in BUNDLED_SCENARIOS:
        scenario = load_scenario(name)
        out_a = tmp_path / f"{name}_a"
        out_b = tmp_path / f"{name}_b"
        run_command("all", scenario, out_a, fmt="csv")
        run_command("all", scenario, out_b, fmt="csv")
        first, second = _digests(out_a), _digests(out_b)
        assert first == second, f"{name}: reruns differ"
        assert first == committed[name], (
            f"{name}: drifted from committed outputs: "
            f"{_drifted(first, committed[name])}")
    print(f"ACCEPTANCE 9 PASS: {', '.join(BUNDLED_SCENARIOS)} reruns "
          "byte-identical and match committed checksums")


RUN_BUNDLED = """
import sys
from pathlib import Path
from ionrewire.cli import BUNDLED_SCENARIOS, main
for name in BUNDLED_SCENARIOS:
    assert main(["all", "--scenario", name,
                 "--out", str(Path(sys.argv[1]) / name)]) == 0
"""


def test_checksums_hold_with_two_blas_threads(tmp_path):
    """Outputs do not depend on the BLAS thread count: a fresh interpreter
    with two threads writes the committed bytes."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2",
               MKL_NUM_THREADS="2",
               PYTHONPATH=os.pathsep.join(filter(None, [
                   str(SRC), os.environ.get("PYTHONPATH")])))
    child = subprocess.run([sys.executable, "-c", RUN_BUNDLED, str(tmp_path)],
                           env=env, capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    committed = json.loads(CHECKSUMS.read_text())
    for name in BUNDLED_SCENARIOS:
        got = _digests(tmp_path / name)
        assert got == committed[name], (
            f"{name}: drifted from committed outputs: "
            f"{_drifted(got, committed[name])}")
