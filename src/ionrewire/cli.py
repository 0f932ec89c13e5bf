"""Config-driven scenario runner.

A scenario file (YAML, schema in scenarios/scenario.schema.json) describes
one experiment; the pipeline runs crystal -> modes -> couplings -> mask ->
dynamics -> protocol -> fits and writes CSV/JSON artifacts plus a manifest.
Frequencies in configs are ordinary frequencies in Hz and are multiplied by
2 pi at parse time; times are in seconds. Identical scenario + seed produce
byte-identical data files.

Scenario kinds:
  ising           - coupled-spin dynamics with a mask source (explicit Q/S
                    string, probabilistic beam time, or lattice pattern)
  shelving_decay  - ground-manifold depopulation under optical pumping
  deshelving_scan - metastable return-time scan over drive intensities
"""

import argparse
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass
from functools import cache
from importlib import metadata, resources
from pathlib import Path

import jsonschema
import numpy as np
import scipy
import yaml

from . import __version__
from .constants import PhysicalConstants
from .coupling import (
    CouplingMatrix,
    RamanDrive,
    calibrate_detuning,
    coupling_matrix,
    perpendicular_delta_k,
)
from .crystal import TrapConfig, compute_normal_modes, solve_equilibrium
from .dynamics import SIZE_CAP, DecoherenceModel, ObservableSeries, scan_evolution
from .estimator import fit_exponential, fit_pair_coupling, fit_power_law
from .lattice import (
    ShelveMask,
    apply_mask,
    honeycomb_mask,
    kagome_mask,
    power_law_coupling,
    triangular_array,
    verify_geometry,
)
from .stochastic import (
    DeshelvingModel,
    MeasurementModel,
    ShelvingProcess,
    ShotStreams,
    run_protocol,
    sample_deshelving_scan,
    sample_shelving,
    sample_shelving_decay,
)

TWO_PI = 2.0 * math.pi

# stream index of the `mask` artifact's sample; no per-shot stream reaches it
MASK_STREAM = 2**48

BUNDLED_SCENARIOS = ("fig4b", "fig4c", "fig4d", "fig4e-g", "fig_op", "fig6")

SUBCOMMANDS = ("solve-crystal", "modes", "couplings", "mask", "simulate",
               "protocol", "fit", "all")


class ScenarioError(ValueError):
    """Scenario file failed to parse or validate."""


class PipelineError(RuntimeError):
    def __init__(self, stage, cause):
        super().__init__(f"error in stage '{stage}': {cause}")
        self.stage = stage
        self.cause = cause


# --------------------------------------------------------------------------
# scenario loading and validation


def _schema() -> dict:
    text = (resources.files("ionrewire") / "scenarios"
            / "scenario.schema.json").read_text()
    return json.loads(text)


def resolve_scenario_path(ref: str) -> Path:
    """Bundled scenario name or a filesystem path."""
    if ref in BUNDLED_SCENARIOS:
        return Path(str(resources.files("ionrewire") / "scenarios" / f"{ref}.yaml"))
    return Path(ref)


@dataclass(frozen=True)
class Scenario:
    raw: dict
    source_sha256: str

    @property
    def name(self) -> str:
        return self.raw["name"]

    @property
    def kind(self) -> str:
        return self.raw["kind"]

    @property
    def seed(self) -> int:
        return int(self.raw["seed"])

    def constants(self) -> PhysicalConstants:
        return PhysicalConstants.for_mass_u(self.raw.get("ion_mass_u", 171.0))

    def trap(self) -> TrapConfig:
        t = self.raw["trap"]
        return TrapConfig.from_hz(t["freq_x_hz"], t["freq_y_hz"], t["freq_z_hz"])

    def times(self) -> np.ndarray:
        t = self.raw["times"]
        if "list_s" in t:
            return np.asarray(t["list_s"], dtype=float)
        return np.linspace(t["start_s"], t["stop_s"], t["num"])

    def mask_source(self) -> tuple:
        mask = self.raw["mask"]
        ((key, value),) = mask.items()
        return key, value

    def decoherence(self) -> DecoherenceModel | None:
        tau = self.raw.get("decoherence", {}).get("tau_d_s")
        return None if tau is None else DecoherenceModel(tau_d=tau)

    def shelving(self) -> ShelvingProcess:
        return ShelvingProcess(
            tau_shelve=self.raw.get("shelving", {}).get("tau_shelve_s", 55e-3))

    def deshelving(self) -> DeshelvingModel | None:
        d = self.raw.get("deshelving", {})
        if not d.get("enabled", False) and self.kind != "deshelving_scan":
            return None
        return DeshelvingModel(
            reference_rabi=TWO_PI * d.get("reference_rabi_hz", 76e3),
            reference_tau=d.get("reference_tau_s", 0.5),
            exponent=d.get("exponent", 2.0))

    def measurement(self) -> MeasurementModel:
        m = self.raw.get("measurement", {})
        return MeasurementModel(shots=m.get("shots", 100),
                                spam_error=m.get("spam_error", 0.04))

    def fit_kind(self) -> str:
        defaults = {"ising": "pair_couplings", "shelving_decay": "exponential",
                    "deshelving_scan": "power_law"}
        return self.raw.get("fit", defaults[self.kind])


def _require(raw: dict, field: str, kind: str):
    if field not in raw:
        raise ScenarioError(f"$.{field}: required for kind '{kind}'")


def _cross_validate(raw: dict):
    kind = raw["kind"]
    if kind == "ising":
        for field in ("n_ions", "times", "mask", "measurement"):
            _require(raw, field, kind)
        mask = raw["mask"]
        n = raw["n_ions"]
        if "explicit" in mask and len(mask["explicit"]) != n:
            raise ScenarioError(
                f"$.mask.explicit: length {len(mask['explicit'])} does not "
                f"match n_ions={n}")
        if "pattern" in mask:
            p = mask["pattern"]
            if p["rows"] * p["cols"] != n:
                raise ScenarioError(
                    f"$.mask.pattern: rows*cols={p['rows'] * p['cols']} does "
                    f"not match n_ions={n}")
        else:
            for field in ("trap", "drive"):
                _require(raw, field, kind)
            drive = raw["drive"]
            if "rabi_freq_hz" not in drive:
                raise ScenarioError("$.drive.rabi_freq_hz: required")
            direction = np.asarray(drive.get("direction", [1.0]), dtype=float)
            if not (np.all(np.isfinite(direction)) and np.any(direction)):
                raise ScenarioError(
                    "$.drive.direction: must be a finite nonzero vector")
            has_mu = drive.get("detuning_hz") is not None
            has_cal = "calibration" in drive
            if has_mu == has_cal:
                raise ScenarioError(
                    "$.drive: exactly one of detuning_hz or calibration")
            if has_cal:
                pair = drive["calibration"]["pair"]
                if pair[0] == pair[1] or max(pair) >= n:
                    raise ScenarioError(
                        f"$.drive.calibration.pair: invalid pair {pair} for "
                        f"n_ions={n}")
    elif kind == "shelving_decay":
        for field in ("n_ions", "times", "measurement"):
            _require(raw, field, kind)
    elif kind == "deshelving_scan":
        for field in ("scan", "measurement"):
            _require(raw, field, kind)
    if "times" in raw and "list_s" not in raw["times"]:
        for field in ("start_s", "stop_s", "num"):
            if field not in raw["times"]:
                raise ScenarioError(f"$.times.{field}: required unless list_s given")


def load_scenario(ref: str, seed_override: int | None = None) -> Scenario:
    path = resolve_scenario_path(ref)
    try:
        text = path.read_text()
    except OSError as err:
        raise ScenarioError(f"cannot read scenario {ref!r}: {err}") from err

    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as err:
        raise ScenarioError(f"{path}: YAML parse error: {err}") from err

    if isinstance(raw, dict) and "resolved_scenario" in raw:
        # manifest round trip: re-run the embedded scenario
        if seed_override is None:
            seed_override = raw.get("seed")
        raw = raw["resolved_scenario"]

    if not isinstance(raw, dict):
        raise ScenarioError(f"{path}: scenario must be a mapping")

    validator = jsonschema.Draft202012Validator(_schema())
    errors = sorted(validator.iter_errors(raw), key=lambda e: list(e.absolute_path))
    if errors:
        err = errors[0]
        where = "$." + ".".join(str(p) for p in err.absolute_path) if err.absolute_path else "$"
        raise ScenarioError(f"{path}: {where}: {err.message}")
    _cross_validate(raw)

    if seed_override is not None:
        raw = dict(raw, seed=int(seed_override))
    digest = hashlib.sha256(text.encode()).hexdigest()
    return Scenario(raw=raw, source_sha256=digest)


# --------------------------------------------------------------------------
# table writing (deterministic formatting)


def _fmt_cell(value) -> str:
    kind = type(value)
    if kind is float:  # most cells: Python floats from tolist()
        return repr(value)
    if kind is int or kind is str:
        return str(value)
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _json_cell(value):
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value) if math.isfinite(value) else None
    return value


@dataclass(frozen=True)
class CodedColumns:
    """Table rows held column by column: row r of column j is
    values[j][codes[j][r]], so each distinct cell is formatted once."""

    values: tuple
    codes: tuple

    def __len__(self) -> int:
        return len(self.codes[0])

    def formatted_rows(self, convert):
        columns = []
        for values, codes in zip(self.values, self.codes):
            cells = np.empty(len(values), dtype=object)
            cells[:] = [convert(v) for v in values]
            columns.append(cells[codes])
        return zip(*columns)


def write_table(out_dir: Path, stem: str, header: list, rows,
                fmt: str) -> str:
    """Write one tabular artifact from a list of rows or a CodedColumns;
    returns the file name."""
    convert = _fmt_cell if fmt == "csv" else _json_cell
    if isinstance(rows, CodedColumns):
        cells = rows.formatted_rows(convert)
    else:
        cells = (map(convert, row) for row in rows)
    if fmt == "csv":
        name = f"{stem}.csv"
        lines = [",".join(header), *map(",".join, cells)]
        (out_dir / name).write_text("\n".join(lines) + "\n")
    else:
        name = f"{stem}.json"
        payload = [dict(zip(header, row)) for row in cells]
        (out_dir / name).write_text(json.dumps(payload, indent=2) + "\n")
    return name


def write_json(out_dir: Path, stem: str, payload: dict) -> str:
    name = f"{stem}.json"

    def sanitize(obj):
        if isinstance(obj, dict):
            return {k: sanitize(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [sanitize(v) for v in obj]
        return _json_cell(obj)

    (out_dir / name).write_text(
        json.dumps(sanitize(payload), indent=2, sort_keys=True) + "\n")
    return name


# --------------------------------------------------------------------------
# pipeline stages


@dataclass
class IsingContext:
    """Everything the ising pipeline derives before sampling."""

    scenario: Scenario
    constants: PhysicalConstants
    crystal: object | None
    modes: object | None
    array: object | None
    coupling: CouplingMatrix
    drive: RamanDrive | None
    detuning: float | None
    mask: ShelveMask | None      # None for the probabilistic source
    beam_time: float


def _stage(name):
    def wrap(fn):
        def inner(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except (ScenarioError, PipelineError):
                raise
            except Exception as err:
                raise PipelineError(name, err) from err
        return inner
    return wrap


def build_ising_context(scenario: Scenario) -> IsingContext:
    raw = scenario.raw
    constants = scenario.constants()
    key, value = scenario.mask_source()
    n = raw["n_ions"]

    if key == "pattern":
        try:
            array = triangular_array(value["rows"], value["cols"])
            strength = TWO_PI * value.get("coupling_strength_hz", 1.0)
            exponent = value.get("coupling_exponent", 3.0)
            coupling = power_law_coupling(array, strength=strength,
                                          exponent=exponent)
            mask = {"triangular": lambda a: ShelveMask.all_qubits(len(a.sites)),
                    "honeycomb": honeycomb_mask,
                    "kagome": kagome_mask}[value["name"]](array)
        except Exception as err:
            raise PipelineError("lattice", err) from err
        return IsingContext(scenario=scenario, constants=constants,
                            crystal=None, modes=None, array=array,
                            coupling=coupling, drive=None, detuning=None,
                            mask=mask, beam_time=0.0)

    try:
        trap = scenario.trap()
        crystal = solve_equilibrium(constants, trap, n, seed=scenario.seed)
        modes = compute_normal_modes(constants, trap, crystal)
    except Exception as err:
        raise PipelineError("crystal", err) from err

    try:
        drive_raw = raw["drive"]
        if "delta_k_rad_per_m" in drive_raw:
            delta_k = drive_raw["delta_k_rad_per_m"]
        else:
            delta_k = perpendicular_delta_k(drive_raw.get("wavelength_m", 355e-9))
        direction = np.asarray(drive_raw.get("direction", [1.0, 0.0, 0.0]),
                               dtype=float)
        direction = direction / np.linalg.norm(direction)
        rabi = TWO_PI * drive_raw["rabi_freq_hz"]

        if drive_raw.get("detuning_hz") is not None:
            detuning = TWO_PI * drive_raw["detuning_hz"]
        else:
            cal = drive_raw["calibration"]
            probe = RamanDrive(rabi_frequency=rabi, delta_k_magnitude=delta_k,
                               detuning=0.0, delta_k_direction=direction)
            detuning = calibrate_detuning(
                modes, probe, constants, target=TWO_PI * cal["target_j_hz"],
                pair=tuple(cal["pair"]), side=cal.get("side", "above"))

        drive = RamanDrive(rabi_frequency=rabi, delta_k_magnitude=delta_k,
                           detuning=detuning, delta_k_direction=direction)
        coupling = coupling_matrix(modes, drive, constants)
    except Exception as err:
        raise PipelineError("coupling", err) from err

    if key == "explicit":
        mask, beam_time = ShelveMask.from_string(value), 0.0
    else:
        mask, beam_time = None, float(value)
    return IsingContext(scenario=scenario, constants=constants,
                        crystal=crystal, modes=modes, array=None,
                        coupling=coupling, drive=drive, detuning=detuning,
                        mask=mask, beam_time=beam_time)


def _series_rows(series: ObservableSeries):
    labels = series.outcome_labels()
    header = (["time_s"] + [f"p_{lab}" for lab in labels]
              + ["mean_sigma_z", "p_all_up", "p_all_down"])
    mag = series.mean_magnetization().tolist()
    rows = []
    for t, p, m in zip(series.times.tolist(), series.probabilities, mag):
        p = p.tolist()
        rows.append([t, *p, m, p[-1], p[0]])
    return header, rows


def _positions_artifact(ctx, out_dir, fmt):
    if ctx.crystal is not None:
        header = ["ion", "x_m", "y_m", "z_m"]
        rows = [[i, *map(float, ctx.crystal.positions[i])]
                for i in range(ctx.crystal.n_ions)]
    else:
        header = ["site", "x_lattice", "y_lattice"]
        rows = [[i, *map(float, ctx.array.coordinates[i])]
                for i in range(len(ctx.array.sites))]
    return [write_table(out_dir, "positions", header, rows, fmt)]


def _modes_artifact(ctx, out_dir, fmt):
    if ctx.modes is None:
        raise PipelineError("modes", ValueError(
            "pattern scenarios use the idealized array; no physical modes"))
    n = ctx.modes.n_ions
    header = ["mode", "freq_hz"] + [
        f"b_ion{i}_{axis}" for i in range(n) for axis in "xyz"]
    rows = []
    for k in range(3 * n):
        rows.append([k, float(ctx.modes.frequencies[k] / TWO_PI),
                     *map(float, ctx.modes.eigenvectors[:, k])])
    return [write_table(out_dir, "modes", header, rows, fmt)]


def _couplings_artifact(ctx, out_dir, fmt):
    j = ctx.coupling.j
    n = ctx.coupling.n_ions
    names = []
    if fmt == "csv":
        # the JSON payload below already holds every pair in j_hz
        header = ["i", "j", "j_hz"]
        rows = [[i, k, float(j[i, k] / TWO_PI)]
                for i in range(n) for k in range(n) if i < k]
        names.append(write_table(out_dir, "couplings", header, rows, fmt))
    payload = {
        "n_ions": n,
        "j_hz": (j / TWO_PI).tolist(),
        "detuning_hz": None if ctx.detuning is None else ctx.detuning / TWO_PI,
        "rabi_freq_hz": None if ctx.drive is None else ctx.drive.rabi_frequency / TWO_PI,
        "delta_k_rad_per_m": None if ctx.drive is None else ctx.drive.delta_k_magnitude,
    }
    names.append(write_json(out_dir, "couplings", payload))
    return names


def _mask_artifact(ctx, out_dir, fmt):
    scenario = ctx.scenario
    if ctx.mask is None:
        # probabilistic source: report one seeded sample for inspection
        rng = next(ShotStreams(scenario.seed, [MASK_STREAM]).generators([0]))
        mask = sample_shelving(ctx.coupling.n_ions, ctx.beam_time,
                               scenario.shelving(), rng)
        sampled = True
    else:
        mask, sampled = ctx.mask, False
    header = ["ion", "state"]
    rows = [[i, "S" if mask.shelved[i] else "Q"] for i in range(len(mask))]
    names = [write_table(out_dir, "mask", header, rows, fmt)]

    graph = apply_mask(ctx.coupling, mask)
    gheader = ["i", "j", "j_hz"]
    grows = []
    for a in range(graph.n_spins):
        for b in range(a + 1, graph.n_spins):
            grows.append([int(graph.survivors[a]), int(graph.survivors[b]),
                          float(graph.couplings[a, b] / TWO_PI)])
    names.append(write_table(out_dir, "graph", gheader, grows, fmt))

    if ctx.array is not None:
        key, value = scenario.mask_source()
        report = verify_geometry(graph, ctx.array, value["name"])
        names.append(write_json(out_dir, "geometry", {
            "pattern": report.pattern,
            "passed": report.passed,
            "expected_degree": report.expected_degree,
            "n_interior": len(report.interior_degrees),
            "n_boundary": len(report.boundary_degrees),
            "violations": list(report.violations),
            "degree_histogram": {str(k): v for k, v in
                                 sorted(report.degree_histogram.items())},
            "mask": mask.to_string(),
            "sampled": sampled,
        }))
    return names


@_stage("dynamics")
def _simulate_artifact(ctx, out_dir, fmt, threads=1):
    scenario = ctx.scenario
    mask = ctx.mask if ctx.mask is not None else ShelveMask.all_qubits(
        ctx.coupling.n_ions)
    graph = apply_mask(ctx.coupling, mask)
    if graph.n_spins > SIZE_CAP:
        raise ValueError(
            f"{graph.n_spins} surviving spins exceed the exact-evolution cap")
    series = scan_evolution(graph, scenario.times(),
                            model=scenario.decoherence(), threads=threads)
    header, rows = _series_rows(series)
    return [write_table(out_dir, "series", header, rows, fmt)], series, graph


@_stage("stochastic")
def _protocol_artifact(ctx, out_dir, fmt):
    scenario = ctx.scenario
    if ctx.mask is not None:
        reduced = apply_mask(ctx.coupling, ctx.mask)
        coupling = CouplingMatrix(reduced.n_spins, reduced.couplings)
        beam_time = 0.0
    else:
        coupling = ctx.coupling
        beam_time = ctx.beam_time
    deshelving = scenario.deshelving()
    drive_rabi = ctx.drive.rabi_frequency if ctx.drive is not None else None
    result = run_protocol(
        coupling, beam_time=beam_time, times=scenario.times(),
        shelving=scenario.shelving(), measurement=scenario.measurement(),
        seed=scenario.seed, deshelving=deshelving,
        drive_rabi=drive_rabi if deshelving is not None else None,
        decoherence=scenario.decoherence())

    records = result.records
    survivors = np.array([result.groups[c].survivors.size for c in records.configs])
    # an outcome's label depends on its value and its survivor count
    width = int(survivors.max(initial=0)) + 1
    outcome_keys, outcome_codes = np.unique(
        records.outcome * width + survivors[records.config], return_inverse=True)
    columns = CodedColumns(
        values=(records.shot.tolist(), result.times.tolist(), records.configs,
                [_bits(*divmod(key, width)) for key in outcome_keys.tolist()],
                [False, True]),
        codes=(np.arange(len(records)), records.time_index, records.config,
               outcome_codes, records.intact.astype(np.intp)))
    header = ["shot", "time_s", "config", "outcomes", "intact"]
    names = [write_table(out_dir, "records", header, columns, fmt)]

    for config in sorted(result.groups):
        group = result.groups[config]
        k = group.survivors.size
        labels = [_bits(m, k) for m in range(2**k)]
        gheader = (["time_s", "n_total", "n_intact"]
                   + [f"c_{lab}" for lab in labels]
                   + [f"f_{lab}" for lab in labels])
        grows = [[t, total, intact, *counts.tolist(), *freq.tolist()]
                 for t, total, intact, counts, freq
                 in zip(group.times.tolist(), group.n_total.tolist(),
                        group.n_intact.tolist(), group.counts,
                        group.frequencies())]
        names.append(write_table(out_dir, f"group_{config}", gheader, grows, fmt))
    return names, result


def _bits(outcome: int, k: int) -> str:
    """Outcome label over k survivors: character i is survivor i, 1 = up."""
    return format(outcome, f"0{k}b")[::-1] if k else ""


@_stage("estimator")
def _fit_artifact(ctx, out_dir, protocol_result):
    scenario = ctx.scenario
    fits = {"pair_couplings": []}
    times = scenario.times()
    survivors_map = (ctx.mask.survivors if ctx.mask is not None
                     else np.arange(ctx.coupling.n_ions))
    for config in sorted(protocol_result.groups):
        group = protocol_result.groups[config]
        if group.survivors.size != 2:
            continue
        values = group.outcome_frequency("11")
        shots = group.n_intact.astype(float)
        usable = shots > 0
        if usable.sum() < 8:
            continue
        result = fit_pair_coupling(times[usable], values[usable],
                                   shots=shots[usable])
        pair = [int(survivors_map[s]) for s in group.survivors]
        fits["pair_couplings"].append({
            "config": config,
            "pair": pair,
            "coupling_rad_per_s": result.parameters["coupling"],
            "coupling_hz": result.parameters["coupling"] / TWO_PI,
            "std_error_hz": result.std_errors["coupling"] / TWO_PI,
            "tau_d_s": result.parameters["tau_d"],
            "p_inf": result.parameters["p_inf"],
            "residual_norm": result.residual_norm,
            "n_points": int(usable.sum()),
        })
    return [write_json(out_dir, "fits", fits)], fits


# --------------------------------------------------------------------------
# non-ising pipelines


@_stage("stochastic")
def _run_shelving_decay(scenario: Scenario, out_dir: Path, fmt: str):
    process = scenario.shelving()
    shots = scenario.measurement().shots
    times = scenario.times()
    n = scenario.raw["n_ions"]
    in_ground = sample_shelving_decay(n, times, process, shots, scenario.seed)

    header = ["time_s", "p_s_model", "n_ions_sampled", "n_in_s", "f_in_s"]
    rows = []
    fractions = []
    total = shots * n
    for t, in_s in zip(times, in_ground.tolist()):
        rows.append([float(t), math.exp(-t / process.tau_shelve), total,
                     in_s, in_s / total])
        fractions.append(in_s / total)
    names = [write_table(out_dir, "survival", header, rows, fmt)]

    fits = {}
    if scenario.fit_kind() == "exponential":
        result = fit_exponential(times, np.array(fractions), model="decay")
        fits = {"exponential": {
            "model": "decay",
            "tau_s": result.parameters["tau"],
            "std_error_s": result.std_errors["tau"],
            "residual_norm": result.residual_norm,
        }}
        names.append(write_json(out_dir, "fits", fits))
    return names, fits


@_stage("stochastic")
def _run_deshelving_scan(scenario: Scenario, out_dir: Path, fmt: str):
    scan = scenario.raw["scan"]
    rabi_hz = sorted(scan["rabi_freqs_hz"])
    omegas = [TWO_PI * rhz for rhz in rabi_hz]
    shots = scenario.measurement().shots
    sample = sample_deshelving_scan(
        scenario.deshelving(), omegas, scan.get("points_per_curve", 25),
        scan.get("max_time_factor", 3.0), shots, scenario.seed)

    curve_header = ["rabi_hz", "time_s", "p_g_model", "n_shots",
                    "n_returned", "f_returned"]
    curve_rows = []
    tau_rows = []
    tau_fits = []
    for rhz, omega, times, p_g, returned in zip(
            rabi_hz, omegas, sample.times, sample.p_returned.tolist(),
            sample.returned.tolist()):
        fractions = [r / shots for r in returned]
        curve_rows += [[float(rhz), t, p, shots, r, f] for t, p, r, f
                       in zip(times.tolist(), p_g, returned, fractions)]
        fit = fit_exponential(times, np.array(fractions), model="inverse")
        tau_fits.append((omega, fit))
        tau_rows.append([float(rhz), fit.parameters["tau"],
                         fit.std_errors["tau"]])

    names = [write_table(out_dir, "deshelve_curves", curve_header,
                         curve_rows, fmt),
             write_table(out_dir, "taus", ["rabi_hz", "tau_g_s",
                                           "std_error_s"], tau_rows, fmt)]

    omegas = np.array([w for w, _ in tau_fits])
    taus = np.array([f.parameters["tau"] for _, f in tau_fits])
    power = fit_power_law(omegas, taus)
    fits = {
        "power_law": {
            "exponent": power.parameters["exponent"],
            "std_error": power.std_errors["exponent"],
            "amplitude": power.parameters["amplitude"],
        },
        "deshelve_times": [
            {"rabi_hz": w / TWO_PI, "tau_g_s": f.parameters["tau"],
             "std_error_s": f.std_errors["tau"]}
            for w, f in tau_fits],
    }
    names.append(write_json(out_dir, "fits", fits))
    return names, fits


# --------------------------------------------------------------------------
# command dispatch


@cache
def _versions() -> dict:
    return {
        "ionrewire": __version__,
        "jsonschema": metadata.version("jsonschema"),
        "numpy": np.__version__,
        "python": sys.version.split()[0],
        "pyyaml": yaml.__version__,
        "scipy": scipy.__version__,
    }


def _write_manifest(scenario: Scenario, out_dir: Path, outputs: list) -> str:
    digests = {}
    for name in sorted(outputs):
        digests[name] = hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
    manifest = {
        "name": scenario.name,
        "kind": scenario.kind,
        "seed": scenario.seed,
        "scenario_sha256": scenario.source_sha256,
        "resolved_scenario": scenario.raw,
        "versions": _versions(),
        "outputs": digests,
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return "manifest.json"


def run_command(command: str, scenario: Scenario, out_dir: Path, fmt: str,
                threads: int = 1) -> list:
    """Execute one subcommand; returns the list of files written."""
    out_dir.mkdir(parents=True, exist_ok=True)
    kind = scenario.kind

    if kind in ("shelving_decay", "deshelving_scan"):
        if command not in ("protocol", "fit", "all"):
            raise ScenarioError(
                f"subcommand '{command}' is not applicable to kind '{kind}'")
        runner = (_run_shelving_decay if kind == "shelving_decay"
                  else _run_deshelving_scan)
        names, _ = runner(scenario, out_dir, fmt)
        if command == "all":
            names.append(_write_manifest(scenario, out_dir, names))
        return names

    ctx = build_ising_context(scenario)
    outputs = []
    if command == "solve-crystal":
        return _positions_artifact(ctx, out_dir, fmt)
    if command == "modes":
        return _modes_artifact(ctx, out_dir, fmt)
    if command == "couplings":
        return _couplings_artifact(ctx, out_dir, fmt)
    if command == "mask":
        return _mask_artifact(ctx, out_dir, fmt)
    if command == "simulate":
        names, _, _ = _simulate_artifact(ctx, out_dir, fmt, threads=threads)
        return names
    if command == "protocol":
        names, _ = _protocol_artifact(ctx, out_dir, fmt)
        return names
    if command == "fit":
        names, result = _protocol_artifact(ctx, out_dir, fmt)
        fit_names, _ = _fit_artifact(ctx, out_dir, result)
        return names + fit_names

    # command == "all"
    outputs += _positions_artifact(ctx, out_dir, fmt)
    if ctx.modes is not None:
        outputs += _modes_artifact(ctx, out_dir, fmt)
    outputs += _couplings_artifact(ctx, out_dir, fmt)
    outputs += _mask_artifact(ctx, out_dir, fmt)
    survivors = (ctx.mask.survivors.size if ctx.mask is not None
                 else ctx.coupling.n_ions)
    if survivors <= SIZE_CAP:
        names, _, _ = _simulate_artifact(ctx, out_dir, fmt, threads=threads)
        outputs += names
        names, result = _protocol_artifact(ctx, out_dir, fmt)
        outputs += names
        if scenario.fit_kind() == "pair_couplings":
            names, _ = _fit_artifact(ctx, out_dir, result)
            outputs += names
    outputs.append(_write_manifest(scenario, out_dir, outputs))
    return outputs


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ionrewire",
        description="Trapped-ion spin-lattice simulator: run config-driven "
                    "scenarios and export plot-ready data.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--scenario", required=True,
                       help="scenario file path, bundled name "
                            f"({', '.join(BUNDLED_SCENARIOS)}), or a manifest")
        p.add_argument("--seed", type=int, default=None,
                       help="override the scenario seed")
        p.add_argument("--out", default=None,
                       help="output directory (default: the scenario's "
                            "output_dir field, else ./out)")
        p.add_argument("--threads", type=int, default=1)
        p.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        scenario = load_scenario(args.scenario, seed_override=args.seed)
    except ScenarioError as err:
        print(f"scenario error: {err}", file=sys.stderr)
        return 2
    out_dir = Path(args.out if args.out is not None
                   else scenario.raw.get("output_dir", "out"))
    try:
        written = run_command(args.command, scenario, out_dir,
                              args.format, threads=args.threads)
    except ScenarioError as err:
        print(f"scenario error: {err}", file=sys.stderr)
        return 2
    except PipelineError as err:
        print(str(err), file=sys.stderr)
        return 1
    for name in written:
        print(out_dir / name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
