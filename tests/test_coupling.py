import numpy as np
import pytest

from ionrewire import (
    PhysicalConstants,
    NormalModes,
    solve_equilibrium,
    compute_normal_modes,
)
from ionrewire.constants import REDUCED_PLANCK
from ionrewire.coupling import (
    CalibrationError,
    InteractionGraph,
    RamanDrive,
    ResonanceError,
    calibrate_detuning,
    coupling_matrix,
    perpendicular_delta_k,
    recoil_frequency,
)

TWO_PI = 2 * np.pi
XHAT = np.array([1.0, 0.0, 0.0])


def synthetic_two_ion_modes(trap):
    """Exact analytic eigensystem of the two-ion chain along x.

    Axial modes at wx and sqrt(3) wx; transverse relative modes at
    wx sqrt(alpha_t - 1); transverse COM modes at the trap frequencies.
    """
    wx = trap.omega_x
    a_y = (trap.omega_y / wx) ** 2
    a_z = (trap.omega_z / wx) ** 2
    s = 1 / np.sqrt(2)
    # rows are 3*ion + axis; columns ordered by ascending frequency
    freqs = wx * np.array(
        [1.0, np.sqrt(a_y - 1), np.sqrt(a_z - 1), np.sqrt(3.0),
         np.sqrt(a_y), np.sqrt(a_z)])
    vecs = np.zeros((6, 6))
    vecs[0, 0], vecs[3, 0] = s, s        # x COM
    vecs[1, 1], vecs[4, 1] = s, -s       # y relative
    vecs[2, 2], vecs[5, 2] = s, -s       # z relative
    vecs[0, 3], vecs[3, 3] = s, -s       # x stretch
    vecs[1, 4], vecs[4, 4] = s, s        # y COM
    vecs[2, 5], vecs[5, 5] = s, s        # z COM
    return NormalModes(n_ions=2, frequencies=freqs, eigenvectors=vecs)


class TestRecoil:
    def test_zero_wavevector_gives_zero(self, constants):
        drive = RamanDrive(rabi_frequency=1.0, delta_k_magnitude=0.0, detuning=1.0,
                           delta_k_direction=XHAT)
        assert recoil_frequency(drive, constants) == 0.0

    def test_quadratic_in_delta_k(self, constants):
        d1 = RamanDrive(1.0, 2.0e7, 1.0, XHAT)
        d2 = RamanDrive(1.0, 4.0e7, 1.0, XHAT)
        assert recoil_frequency(d2, constants) == pytest.approx(
            4 * recoil_frequency(d1, constants), rel=1e-14)

    def test_hand_evaluation_for_perpendicular_beams(self, constants):
        drive = RamanDrive.perpendicular_beams(TWO_PI * 76e3, detuning=1.0)
        # independent arithmetic path: hbar/(2m) times dk, squared separately
        dk = np.sqrt(2.0) * TWO_PI / 355e-9
        expected = (REDUCED_PLANCK / (2 * constants.ion_mass)) * dk * dk
        assert recoil_frequency(drive, constants) == pytest.approx(expected, rel=1e-12)
        assert recoil_frequency(drive, constants) == pytest.approx(1.1634e5, rel=1e-4)


class TestCouplingMatrix:
    def test_zero_rabi_frequency_gives_zero_matrix(self, constants, trap):
        modes = synthetic_two_ion_modes(trap)
        drive = RamanDrive.perpendicular_beams(0.0, detuning=1.2 * trap.omega_x)
        result = coupling_matrix(modes, drive, constants)
        assert np.all(result.couplings == 0.0)

    def test_matches_two_mode_closed_form(self, constants, trap):
        modes = synthetic_two_ion_modes(trap)
        recoil = recoil_frequency(
            RamanDrive.perpendicular_beams(1.0, 0.0), constants)
        wx = trap.omega_x
        for mu in (1.05 * wx, 1.5 * wx, 2.5 * wx, 0.5 * wx):
            drive = RamanDrive.perpendicular_beams(TWO_PI * 76e3, detuning=mu)
            j = coupling_matrix(modes, drive, constants).couplings[0, 1]
            closed = (drive.rabi_frequency**2 * recoil * 0.5
                      * (1 / (mu**2 - wx**2) - 1 / (mu**2 - 3 * wx**2)))
            assert j == pytest.approx(closed, rel=1e-12)

    def test_single_dominant_com_mode_gives_uniform_couplings(self, constants):
        # one strongly coupled uniform mode; everything else far detuned
        n = 3
        omega_c = TWO_PI * 1.0e6
        freqs = TWO_PI * np.array([1.0e6, 5.0e6, 6.0e6, 7.0e6, 7.5e6, 8.0e6,
                                   8.5e6, 9.0e6, 9.5e6])
        vecs = np.zeros((9, 9))
        x_rows = [0, 3, 6]
        vecs[x_rows, 0] = 1 / np.sqrt(3)
        vecs[x_rows, 1] = np.array([1, -1, 0]) / np.sqrt(2)
        vecs[x_rows, 2] = np.array([1, 1, -2]) / np.sqrt(6)
        y_rows, z_rows = [1, 4, 7], [2, 5, 8]
        for col, row in zip(range(3, 6), y_rows):
            vecs[row, col] = 1.0
        for col, row in zip(range(6, 9), z_rows):
            vecs[row, col] = 1.0
        modes = NormalModes(n_ions=n, frequencies=freqs, eigenvectors=vecs)

        mu = omega_c + TWO_PI * 200.0
        drive = RamanDrive.perpendicular_beams(TWO_PI * 50e3, detuning=mu)
        j = coupling_matrix(modes, drive, constants).couplings
        expected = (drive.rabi_frequency**2 * recoil_frequency(drive, constants)
                    / (n * (mu**2 - omega_c**2)))
        off = j[~np.eye(n, dtype=bool)]
        assert np.allclose(off, expected, rtol=1e-4)

    def test_quoted_trap_three_ions_nearly_uniform(self, constants, trap):
        crystal = solve_equilibrium(constants, trap, 3, seed=5)
        modes = compute_normal_modes(constants, trap, crystal)
        drive = RamanDrive.perpendicular_beams(TWO_PI * 76e3, detuning=0.0)
        mu = calibrate_detuning(modes, drive, constants,
                                target=TWO_PI * 450.0, pair=(0, 1), side="above")
        j = coupling_matrix(
            modes, RamanDrive.perpendicular_beams(TWO_PI * 76e3, detuning=mu),
            constants).couplings
        pairs = np.array([j[0, 1], j[0, 2], j[1, 2]])
        assert np.all(pairs > 0)
        assert (pairs.max() - pairs.min()) / pairs.mean() < 0.15

    def test_scales_as_rabi_frequency_squared(self, constants, trap):
        modes = synthetic_two_ion_modes(trap)
        mu = 1.2 * trap.omega_x
        j1 = coupling_matrix(
            modes, RamanDrive.perpendicular_beams(TWO_PI * 40e3, detuning=mu),
            constants).couplings
        j2 = coupling_matrix(
            modes, RamanDrive.perpendicular_beams(TWO_PI * 80e3, detuning=mu),
            constants).couplings
        assert np.allclose(j2, 4 * j1, rtol=1e-13)

    def test_far_detuning_decay_bounded_by_inverse_mu_squared(self, constants, trap):
        # summing over the complete mode set makes the off-diagonal 1/mu^2
        # terms cancel, so 1/mu^2 is an upper envelope, not the exact power
        modes = synthetic_two_ion_modes(trap)
        drive = RamanDrive.perpendicular_beams(TWO_PI * 76e3, detuning=0.0)
        recoil = recoil_frequency(drive, constants)
        mus = np.array([10.0, 20.0, 40.0, 80.0]) * trap.omega_x
        js = np.array([abs(coupling_matrix(
            modes, RamanDrive.perpendicular_beams(TWO_PI * 76e3, detuning=m),
            constants).couplings[0, 1]) for m in mus])
        envelope = (drive.rabi_frequency**2 * recoil
                    / (mus**2 - np.max(modes.frequencies) ** 2))
        assert np.all(js <= envelope)
        assert np.all(js[1:] <= js[:-1] / 4 * 1.001)
        assert js[-1] < 1e-3 * js[0]

    def test_permutation_consistency(self, constants, trap):
        crystal = solve_equilibrium(constants, trap, 3, seed=5)
        modes = compute_normal_modes(constants, trap, crystal)
        drive = RamanDrive.perpendicular_beams(TWO_PI * 76e3,
                                               detuning=1.1 * trap.omega_x)
        j = coupling_matrix(modes, drive, constants).couplings

        perm = np.array([2, 0, 1])
        rows = np.concatenate([3 * perm[i] + np.arange(3) for i in range(3)])
        permuted_modes = NormalModes(
            n_ions=3, frequencies=modes.frequencies,
            eigenvectors=modes.eigenvectors[rows, :])
        j_perm = coupling_matrix(permuted_modes, drive, constants).couplings
        assert np.allclose(j_perm, j[np.ix_(perm, perm)], atol=1e-18 + 1e-12 * np.max(np.abs(j)))

    def test_eigenvector_sign_gauge_invariance(self, constants, trap):
        modes = synthetic_two_ion_modes(trap)
        flipped = NormalModes(n_ions=2, frequencies=modes.frequencies,
                              eigenvectors=modes.eigenvectors * np.array([1, -1, 1, -1, 1, 1]))
        drive = RamanDrive.perpendicular_beams(TWO_PI * 76e3,
                                               detuning=1.2 * trap.omega_x)
        a = coupling_matrix(modes, drive, constants).couplings
        b = coupling_matrix(flipped, drive, constants).couplings
        assert np.allclose(a, b, rtol=1e-14)

    def test_detuning_inside_guard_band_raises(self, constants, trap):
        modes = synthetic_two_ion_modes(trap)
        drive = RamanDrive.perpendicular_beams(
            TWO_PI * 76e3, detuning=trap.omega_x + TWO_PI * 50.0)
        with pytest.raises(ResonanceError) as err:
            coupling_matrix(modes, drive, constants)
        assert err.value.mode_frequency == pytest.approx(trap.omega_x)

    def test_non_participating_resonance_is_allowed(self, constants, trap):
        # detuning right on the y COM mode, drive along x: no resonance
        modes = synthetic_two_ion_modes(trap)
        drive = RamanDrive.perpendicular_beams(TWO_PI * 76e3, detuning=trap.omega_y)
        coupling_matrix(modes, drive, constants)

    def test_zero_delta_k_rejected_at_use(self, constants, trap):
        modes = synthetic_two_ion_modes(trap)
        drive = RamanDrive(rabi_frequency=1.0, delta_k_magnitude=0.0,
                           detuning=1.2 * trap.omega_x, delta_k_direction=XHAT)
        with pytest.raises(ValueError):
            coupling_matrix(modes, drive, constants)


class TestConstruction:
    def test_asymmetric_matrix_rejected(self):
        j = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ValueError):
            InteractionGraph(survivors=[0, 1], couplings=j)

    def test_nonzero_diagonal_rejected(self):
        j = np.array([[1.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError):
            InteractionGraph(survivors=[0, 1], couplings=j)

    def test_negative_rabi_rejected(self):
        with pytest.raises(ValueError):
            RamanDrive(rabi_frequency=-1.0, delta_k_magnitude=1.0, detuning=0.0,
                       delta_k_direction=XHAT)

    def test_perpendicular_delta_k_value(self):
        assert perpendicular_delta_k(355e-9) == pytest.approx(2.5030e7, rel=1e-4)


class TestCalibration:
    def test_planted_detuning_round_trip(self, constants, trap):
        modes = synthetic_two_ion_modes(trap)
        drive = RamanDrive.perpendicular_beams(TWO_PI * 76e3, detuning=0.0)
        mu_star = 1.05 * trap.omega_x
        j_star = coupling_matrix(
            modes, RamanDrive.perpendicular_beams(TWO_PI * 76e3, detuning=mu_star),
            constants).couplings[0, 1]
        mu = calibrate_detuning(modes, drive, constants, target=j_star,
                                pair=(0, 1), side="above")
        assert abs(mu - mu_star) <= 1e-6 * mu_star

    def test_measured_coupling_round_trip(self, constants, trap):
        crystal = solve_equilibrium(constants, trap, 2, seed=7)
        modes = compute_normal_modes(constants, trap, crystal)
        drive = RamanDrive.perpendicular_beams(TWO_PI * 76e3, detuning=0.0)
        target = TWO_PI * 750.0
        mu = calibrate_detuning(modes, drive, constants, target=target,
                                pair=(0, 1), side="above")
        realized = coupling_matrix(
            modes, RamanDrive.perpendicular_beams(TWO_PI * 76e3, detuning=mu),
            constants).couplings[0, 1]
        assert realized == pytest.approx(target, rel=1e-6)
        assert trap.omega_x < mu < np.sqrt(3) * trap.omega_x

    def test_below_side_gives_negative_coupling(self, constants, trap):
        modes = synthetic_two_ion_modes(trap)
        drive = RamanDrive.perpendicular_beams(TWO_PI * 76e3, detuning=0.0)
        target = -TWO_PI * 750.0
        mu = calibrate_detuning(modes, drive, constants, target=target,
                                pair=(0, 1), side="below")
        assert mu < trap.omega_x
        realized = coupling_matrix(
            modes, RamanDrive.perpendicular_beams(TWO_PI * 76e3, detuning=mu),
            constants).couplings[0, 1]
        assert realized == pytest.approx(target, rel=1e-6)

    def test_zero_target_with_finite_rabi_fails(self, constants, trap):
        modes = synthetic_two_ion_modes(trap)
        drive = RamanDrive.perpendicular_beams(TWO_PI * 76e3, detuning=0.0)
        with pytest.raises(CalibrationError):
            calibrate_detuning(modes, drive, constants, target=0.0,
                               pair=(0, 1), side="above")

    def test_unreachable_target_reports_bounds(self, constants, trap):
        modes = synthetic_two_ion_modes(trap)
        drive = RamanDrive.perpendicular_beams(TWO_PI * 1e3, detuning=0.0)
        with pytest.raises(CalibrationError) as err:
            calibrate_detuning(modes, drive, constants, target=TWO_PI * 1e6,
                               pair=(0, 1), side="above")
        assert err.value.achievable is not None
        lo, hi = err.value.achievable
        assert lo < hi
