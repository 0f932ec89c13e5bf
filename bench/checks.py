"""Correctness checks on the files one `ionrewire all` run wrote.

Each check returns a list of error strings; an empty list means the run is
correct. The oracles are independent of the program's own code paths:

- figures: SHA-256 of every data file against scenarios/checksums.json at the
  bundled seeds (the manifest is excluded, as it records a timestamp).
- lattice, decoherence off: for H = sum J_ij sx_i sx_j started all-down,
  <sz_i>(t) = -prod_{k != i} cos(2 J_ik t) (Foss-Feig, Hazzard, Bollinger &
  Rey, PRA 87, 042101, 2013), so mean_sigma_z = -(1/n) sum_i of that.
- lattice, decoherence on: the damped series is m_inf + (m0 - m_inf) e^{-t/tau}
  with m0 the closed form above, so the implied m_inf must be one constant.
- trap_sweep and the two-ion companion: the three centre-of-mass (Kohn)
  modes sit exactly at the trap frequencies, and the calibrated pair
  coupling hits its target.
- shelving_decay companion: the model column is exactly exp(-t/tau) and the
  sampled counts stay within the shots taken.
"""

import hashlib
import json
import math
from pathlib import Path

import numpy as np

MANIFEST = "manifest.json"
CLOSED_FORM_TOL = 1e-9
KOHN_RTOL = 1e-9
CALIBRATION_RTOL = 1e-6


def digests(out_dir: Path) -> dict:
    """SHA-256 of every data file in a run's output directory."""
    out = {}
    for path in sorted(out_dir.iterdir()):
        if path.name == MANIFEST:
            continue
        sha = hashlib.sha256()
        with path.open("rb") as handle:
            for block in iter(lambda: handle.read(1 << 20), b""):
                sha.update(block)
        out[path.name] = sha.hexdigest()
    return out


def _csv_columns(path: Path, names: tuple) -> list:
    """Selected columns of a CSV table as float arrays, read line by line so
    a 2^14-column table never sits in memory whole."""
    with path.open() as handle:
        header = handle.readline().rstrip("\n").split(",")
        index = [header.index(name) for name in names]
        rows = []
        for line in handle:
            cells = line.rstrip("\n").split(",")
            rows.append([float(cells[i]) for i in index])
    return [np.array(col) for col in zip(*rows)]


def _columns(out_dir: Path, stem: str, fmt: str, names: tuple) -> list:
    """Selected columns of a table the program wrote as CSV or JSON."""
    if fmt == "csv":
        return _csv_columns(out_dir / f"{stem}.csv", names)
    rows = json.loads((out_dir / f"{stem}.json").read_text())
    return [np.array([row[name] for row in rows], dtype=float)
            for name in names]


def _closed_form_magnetization(j: np.ndarray, times: np.ndarray) -> np.ndarray:
    phases = np.cos(2.0 * j[None, :, :] * times[:, None, None])
    return -np.prod(phases, axis=2).mean(axis=1)


def _lattice_errors(out_dir: Path, expect: dict) -> list:
    errors = []
    geometry = json.loads((out_dir / "geometry.json").read_text())
    if geometry["passed"] is not True:
        errors.append(f"geometry.json: passed is {geometry['passed']!r}")
    keep = [i for i, state in enumerate(geometry["mask"]) if state == "Q"]
    if len(keep) != expect["survivors"]:
        errors.append(f"geometry.json: {len(keep)} survivors, expected "
                      f"{expect['survivors']}")
        return errors

    j_hz = np.array(json.loads((out_dir / "couplings.json").read_text())["j_hz"])
    j = 2.0 * math.pi * j_hz[np.ix_(keep, keep)]
    times, mag = _csv_columns(out_dir / "series.csv", ("time_s", "mean_sigma_z"))
    closed = _closed_form_magnetization(j, times)
    tau = expect["tau_d_s"]
    if tau is None:
        worst = float(np.max(np.abs(mag - closed)))
        if not worst <= CLOSED_FORM_TOL:
            errors.append(f"series.csv: mean_sigma_z differs from the closed "
                          f"form by {worst:.3e} (tolerance {CLOSED_FORM_TOL:g})")
    else:
        envelope = np.exp(-times / tau)
        usable = 1.0 - envelope >= 0.05
        implied = ((mag - closed * envelope)[usable]
                   / (1.0 - envelope[usable]))
        spread = float(np.ptp(implied)) if implied.size else 0.0
        if implied.size < 2 or not spread <= CLOSED_FORM_TOL:
            errors.append(f"series.csv: implied dephased magnetization varies "
                          f"by {spread:.3e} over {implied.size} points "
                          f"(tolerance {CLOSED_FORM_TOL:g})")
    return errors


def _trap_errors(out_dir: Path, expect: dict, fmt: str) -> list:
    errors = []
    (freqs,) = _columns(out_dir, "modes", fmt, ("freq_hz",))
    for axis, trap_hz in zip("xyz", expect["freqs_hz"]):
        gap = float(np.min(np.abs(freqs - trap_hz))) / trap_hz
        if not gap <= KOHN_RTOL:
            errors.append(f"modes: no mode at the {axis} trap frequency "
                          f"{trap_hz} Hz (closest off by {gap:.3e} relative)")
    a, b = expect["pair"]
    achieved = json.loads((out_dir / "couplings.json").read_text())["j_hz"][a][b]
    target = expect["target_j_hz"]
    if not abs(achieved - target) <= CALIBRATION_RTOL * abs(target):
        errors.append(f"couplings.json: pair {a},{b} coupling {achieved} Hz "
                      f"misses the target {target} Hz")
    return errors


def _decay_errors(out_dir: Path, expect: dict, fmt: str) -> list:
    times, model, sampled, shelved_not = _columns(
        out_dir, "survival", fmt,
        ("time_s", "p_s_model", "n_ions_sampled", "n_in_s"))
    errors = []
    worst = float(np.max(np.abs(model - np.exp(-times / expect["tau_shelve_s"]))))
    if not worst <= 1e-12:
        errors.append(f"survival: p_s_model is off exp(-t/tau) by {worst:.3e}")
    total = expect["n_ions"] * expect["shots"]
    if np.any(sampled != total) or np.any((shelved_not < 0)
                                          | (shelved_not > total)):
        errors.append(f"survival: counts outside 0..{total}")
    return errors


def run_errors(out_dir: Path, instance, files: dict) -> list:
    """Errors in one run's outputs; `files` are the run's data-file digests."""
    expect = instance.check
    kind = expect["kind"]
    try:
        if kind == "figures":
            wanted = expect.get("checksums")
            if wanted is not None and files != wanted:
                bad = sorted(set(files) ^ set(wanted)
                             | {k for k in files if files[k] != wanted.get(k)})
                return [f"outputs differ from checksums.json: {', '.join(bad)}"]
            return []
        if kind == "lattice":
            return _lattice_errors(out_dir, expect)
        if kind == "decay":
            return _decay_errors(out_dir, expect, instance.fmt)
        return _trap_errors(out_dir, expect, instance.fmt)
    except (OSError, KeyError, IndexError, ValueError) as err:
        return [f"cannot check outputs: {type(err).__name__}: {err}"]
