"""Seeded scenario generators for the three benchmark workloads.

Each generator writes YAML scenario files, the only input the program sees,
and returns one `Instance` per file. The same (workload, seed) always gives
byte-identical files. Everything that sets the cost of a run (survivor
counts, time points, shots, crystal sizes, decoherence on/off, the coupling
exponent of a lattice) is fixed per slot, so that a pass costs the same at
every seed; the seed varies geometry, coupling strengths, trap frequencies,
time spans, noise rates and the scenario seeds.
"""

import json
import random
from dataclasses import dataclass
from pathlib import Path

import yaml

FIGURES = ("fig4b", "fig4c", "fig4d", "fig4e-g", "fig_op", "fig6")

# Lattice slots: (survivors, decoherence on, time points, shots, coupling
# exponent, candidate shapes). Each slot offers one patch shape and its
# transpose, which have the same survivor count, energy-level count
# (dephased_limit runs one transform per distinct level) and output size.
# The exponent sets which levels are degenerate, so it is fixed per slot and
# differs between slots; the seed scales the couplings, which leaves the
# level count alone. A pass thus costs the same at every seed while the seed
# still changes the instance.
LATTICE_SLOTS = (
    (9, True, 151, 20, 1.5, (("kagome", 3, 5), ("kagome", 5, 3))),
    (10, False, 121, 10, 2.0, (("honeycomb", 3, 5), ("honeycomb", 5, 3))),
    (12, True, 61, 30, 1.0, (("triangular", 3, 4), ("triangular", 4, 3))),
    (14, False, 61, 15, 3.0, (("honeycomb", 3, 7), ("honeycomb", 7, 3))),
)

# Trap slots: (ions, geometry, survivors, time points, shots), cycling
# linear, zigzag and 3D over 6-28 ions. The drive points along x, the stiffest axis, so it couples to the
# transverse modes. In linear and zigzag crystals the x centre-of-mass mode
# is then the highest x mode, the calibration window above it is unbounded,
# and any target below the coupling at the guard band is reachable; the
# seed draws their trap frequencies from these (x, y, z) ranges in Hz.
TRAP_SLOTS = tuple(zip(range(6, 29, 2), ("linear", "zigzag", "3d") * 4,
                       (2, 3) * 6, (21, 26, 31) * 4, (20, 30, 40, 25) * 3))
_TRAP_RANGES = {
    "linear": ((3.9e6, 4.1e6), (3.6e6, 3.8e6), (180e3, 220e3)),
    "zigzag": ((3.6e6, 4.0e6), (1.1e6, 1.3e6), (450e3, 550e3)),
}
# A 3D crystal has x modes above the centre-of-mass mode, sometimes within
# the 2 x 100 Hz guard band of it (no window) or close enough to make low
# targets unreachable. Its crystals therefore come from a pool checked at the
# commit that added this benchmark: (trap Hz, scenario seed) pairs whose
# pair (0, 1) reaches every coupling from under 0.3 kHz to over 13 kHz.
_POOL_3D = {
    10: (((1442859.9, 1211832.0, 936115.9), 902793955),
         ((1429024.2, 1190478.6, 938160.6), 609065480),
         ((1424027.2, 1139348.2, 917467.1), 650913280),
         ((1399276.9, 1119946.7, 976783.8), 2109716399)),
    16: (((1354228.4, 1172072.1, 941695.3), 959408207),
         ((1395249.4, 1101519.3, 930204.4), 719543062),
         ((1400007.3, 1242752.2, 960210.8), 47634943),
         ((1368518.2, 1194012.3, 929622.6), 481756843)),
    22: (((1367070.0, 1205293.1, 973959.3), 1886833684),
         ((1351846.7, 1233432.6, 923174.1), 2060478488),
         ((1402789.1, 1238577.4, 970811.5), 104024832),
         ((1328519.9, 1227471.3, 958282.4), 2014315836)),
    28: (((1333961.0, 1195690.2, 976365.7), 452950724),
         ((1331999.4, 1158751.6, 984226.4), 281539924),
         ((1314247.8, 1247711.0, 931455.5), 2123883714),
         ((1403586.1, 1199332.6, 927068.8), 499405167)),
}
# Over 100 seeds the lowest reachable upper bound was 5.1 kHz (zigzag, 26
# ions), so targets stay well inside every window.
_TARGET_HZ = (1500.0, 3000.0)


@dataclass(frozen=True)
class Instance:
    """One generated scenario file and what its outputs must satisfy."""

    name: str
    path: Path
    fmt: str
    check: dict
    timed: bool = True  # False for companions, left out of the pass timings


def _write(out_dir: Path, name: str, raw: dict) -> Path:
    path = out_dir / f"{name}.yaml"
    path.write_text(yaml.safe_dump(raw, sort_keys=False))
    return path


def figures(seed: int, src: Path, out_dir: Path) -> list:
    """The six bundled scenarios. Seed 0 keeps the bundled files verbatim
    (their outputs are in checksums.json); other seeds replace each
    scenario's seed with one drawn from the workload seed."""
    scenarios = src / "ionrewire" / "scenarios"
    checksums = json.loads((scenarios / "checksums.json").read_text())
    rng = random.Random(f"figures:{seed}")
    out = []
    for name in FIGURES:
        text = (scenarios / f"{name}.yaml").read_text()
        path = out_dir / f"{name}.yaml"
        if seed == 0:
            path.write_text(text)
        else:
            raw = yaml.safe_load(text)
            raw["seed"] = rng.randrange(1, 2**31)
            path = _write(out_dir, name, raw)
        out.append(Instance(name, path, "csv", {
            "kind": "figures",
            "checksums": checksums[name] if seed == 0 else None}))
    return out


def lattice(seed: int, out_dir: Path) -> list:
    rng = random.Random(f"lattice:{seed}")
    out = []
    for slot, (survivors, decohere, num, shots, exponent,
               shapes) in enumerate(LATTICE_SLOTS):
        pattern, rows, cols = rng.choice(shapes)
        tau = round(rng.uniform(1.5e-3, 4.0e-3), 7) if decohere else None
        raw = {
            "name": f"lattice{slot}-{pattern}-{rows}x{cols}",
            "kind": "ising",
            "seed": rng.randrange(1, 2**31),
            "n_ions": rows * cols,
            "mask": {"pattern": {
                "name": pattern, "rows": rows, "cols": cols,
                "coupling_strength_hz": round(rng.uniform(200.0, 800.0), 3),
                "coupling_exponent": exponent}},
            "times": {"start_s": 0.0,
                      "stop_s": round(rng.uniform(1.0e-3, 3.0e-3), 7),
                      "num": num},
            "measurement": {"spam_error": round(rng.uniform(0.0, 0.05), 4),
                            "shots": shots},
        }
        if decohere:
            raw["decoherence"] = {"tau_d_s": tau}
        path = _write(out_dir, raw["name"], raw)
        out.append(Instance(raw["name"], path, "csv", {
            "kind": "lattice", "survivors": survivors, "tau_d_s": tau}))
    out.append(_pair_companion(rng, out_dir))
    out.append(_decay_companion(rng, out_dir, "csv"))
    return out


def trap_sweep(seed: int, out_dir: Path) -> list:
    rng = random.Random(f"trap_sweep:{seed}")
    out = []
    for slot, (n, geometry, survivors, num, shots) in enumerate(TRAP_SLOTS):
        if geometry == "3d":
            freqs, scenario_seed = rng.choice(_POOL_3D[n])
        else:
            freqs = [round(rng.uniform(lo, hi), 1)
                     for lo, hi in _TRAP_RANGES[geometry]]
            scenario_seed = rng.randrange(1, 2**31)
        keep = sorted(rng.sample(range(n), survivors))
        pair = [0, 1] if geometry == "3d" else keep[:2]
        target = round(rng.uniform(*_TARGET_HZ), 3)
        # sin^2(J t) has period 1 / (2 J); span 1.5 to 3 periods of the target
        stop = round(rng.uniform(1.5, 3.0) / (2.0 * target), 9)
        raw = {
            "name": f"trap{slot}-{geometry}-n{n}",
            "kind": "ising",
            "seed": scenario_seed,
            "n_ions": n,
            "ion_mass_u": 171.0,
            "trap": dict(zip(("freq_x_hz", "freq_y_hz", "freq_z_hz"), freqs)),
            "drive": {"rabi_freq_hz": 76.0e3, "wavelength_m": 355.0e-9,
                      "direction": [1.0, 0.0, 0.0],
                      "calibration": {"target_j_hz": target, "pair": pair,
                                      "side": "above"}},
            "mask": {"explicit": "".join("Q" if i in keep else "S"
                                         for i in range(n))},
            "times": {"start_s": 0.0, "stop_s": stop,
                      "num": num},
            "measurement": {"spam_error": round(rng.uniform(0.0, 0.05), 4),
                            "shots": shots},
            "fit": "pair_couplings",
        }
        if slot % 2:
            raw["decoherence"] = {"tau_d_s": round(rng.uniform(1e-3, 5e-3), 7)}
        path = _write(out_dir, raw["name"], raw)
        out.append(Instance(raw["name"], path, "json", {
            "kind": "trap", "freqs_hz": list(freqs), "pair": pair,
            "target_j_hz": target}))
    out.append(_decay_companion(rng, out_dir, "json"))
    return out


def _pair_companion(rng, out_dir: Path) -> Instance:
    """A fig4b-like two-ion chain, so that crystal, calibration and the pair
    fit run (briefly) in a workload that is otherwise about lattices."""
    freqs = [round(f * rng.uniform(0.98, 1.02), 1)
             for f in (978.0e3, 1748.0e3, 1798.0e3)]
    target = round(rng.uniform(600.0, 900.0), 3)
    raw = {
        "name": "pair-companion", "kind": "ising",
        "seed": rng.randrange(1, 2**31), "n_ions": 2, "ion_mass_u": 171.0,
        "trap": dict(zip(("freq_x_hz", "freq_y_hz", "freq_z_hz"), freqs)),
        "drive": {"rabi_freq_hz": 76.0e3, "wavelength_m": 355.0e-9,
                  "direction": [1.0, 0.0, 0.0],
                  "calibration": {"target_j_hz": target, "pair": [0, 1],
                                  "side": "above"}},
        "mask": {"explicit": "QQ"},
        "times": {"start_s": 0.0, "stop_s": 1.5e-3, "num": 16},
        "decoherence": {"tau_d_s": 5.5e-3},
        "measurement": {"spam_error": 0.04, "shots": 40},
        "fit": "pair_couplings",
    }
    return Instance(raw["name"], _write(out_dir, raw["name"], raw), "csv", {
        "kind": "trap", "freqs_hz": freqs, "pair": [0, 1],
        "target_j_hz": target}, timed=False)


def _decay_companion(rng, out_dir: Path, fmt: str) -> Instance:
    """A small fig_op-like shelving_decay run, so that the CLI-side sampler
    and the exponential fit run (briefly) in every workload."""
    tau = round(rng.uniform(45e-3, 65e-3), 6)
    raw = {
        "name": "decay-companion", "kind": "shelving_decay",
        "seed": rng.randrange(1, 2**31), "n_ions": 2,
        "times": {"start_s": 0.0, "stop_s": 0.25, "num": 16},
        "shelving": {"tau_shelve_s": tau},
        "measurement": {"spam_error": 0.0, "shots": 40},
        "fit": "exponential",
    }
    return Instance(raw["name"], _write(out_dir, raw["name"], raw), fmt, {
        "kind": "decay", "tau_shelve_s": tau, "n_ions": 2, "shots": 40},
        timed=False)


def generate(workload: str, seed: int, src: Path, out_dir: Path) -> list:
    out_dir.mkdir(parents=True, exist_ok=True)
    if workload == "figures":
        return figures(seed, src, out_dir)
    if workload == "lattice":
        return lattice(seed, out_dir)
    return trap_sweep(seed, out_dir)
