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
from contextlib import contextmanager
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
    InteractionGraph,
    RamanDrive,
    calibrate_detuning,
    coupling_matrix,
    perpendicular_delta_k,
)
from .crystal import TrapConfig, compute_normal_modes, solve_equilibrium
from .dynamics import (
    SIZE_CAP,
    DecoherenceModel,
    ObservableSeries,
    outcome_label,
    outcome_labels,
    scan_evolution,
)
from .estimator import (
    MIN_PAIR_POINTS,
    fit_exponential,
    fit_pair_coupling,
    fit_power_law,
)
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
    ProtocolResult,
    ShelvingProcess,
    run_protocol,
    sample_deshelving_scan,
    sample_shelving,
    sample_shelving_decay,
    shelf_survival,
)
from .tables import Coded, Table, write_json, write_table

TWO_PI = 2.0 * math.pi

# libyaml's safe loader where PyYAML was built with it: the same objects as
# the pure-Python SafeLoader, several times faster
YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

BUNDLED_SCENARIOS = ("fig4b", "fig4c", "fig4d", "fig4e-g", "fig_op", "fig6")


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
        """(source, value) of the scenario's one mask source."""
        return next(iter(self.raw["mask"].items()))

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


def _check_finite(node, where: str = "$"):
    """Every number in the scenario is finite (null, not .inf, means unset)."""
    if isinstance(node, float) and not math.isfinite(node):
        raise ScenarioError(f"{where}: must be finite")
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        _check_finite(value, f"{where}.{key}")


def _cross_validate(raw: dict):
    """The rules the schema cannot state: finite numbers, the sizes that must
    match n_ions, and a drive direction that can be normalized."""
    _check_finite(raw)
    if raw["kind"] != "ising":
        return
    n = raw["n_ions"]
    ((source, value),) = raw["mask"].items()
    if source == "explicit" and len(value) != n:
        raise ScenarioError(
            f"$.mask.explicit: length {len(value)} does not match n_ions={n}")
    if source == "pattern":
        if value["rows"] * value["cols"] != n:
            raise ScenarioError(
                f"$.mask.pattern: rows*cols={value['rows'] * value['cols']} "
                f"does not match n_ions={n}")
        return
    pair = raw["drive"].get("calibration", {}).get("pair", [])
    if max(pair, default=-1) >= n:
        raise ScenarioError(
            f"$.drive.calibration.pair: invalid pair {pair} for n_ions={n}")
    # the direction is divided by its norm, which needs a normal squared norm
    squared = sum(x * x for x in raw["drive"].get("direction", [1.0]))
    if not sys.float_info.min <= squared <= sys.float_info.max:
        raise ScenarioError(
            "$.drive.direction: its squared norm under- or overflows, so it "
            "cannot be normalized")


def load_scenario(ref: str, seed_override: int | None = None) -> Scenario:
    path = resolve_scenario_path(ref)
    try:
        text = path.read_text()
    except OSError as err:
        raise ScenarioError(f"cannot read scenario {ref!r}: {err}") from err

    try:
        raw = yaml.load(text, Loader=YAML_LOADER)
    except yaml.YAMLError as err:
        raise ScenarioError(f"{path}: YAML parse error: {err}") from err

    if isinstance(raw, dict) and "resolved_scenario" in raw:
        # manifest round trip: re-run the embedded scenario
        if seed_override is None:
            seed_override = raw.get("seed")
        raw = raw["resolved_scenario"]

    if not isinstance(raw, dict):
        raise ScenarioError(f"{path}: scenario must be a mapping")
    if seed_override is not None:
        raw = dict(raw, seed=int(seed_override))

    validator = jsonschema.Draft202012Validator(_schema())
    errors = sorted(validator.iter_errors(raw), key=lambda e: list(e.absolute_path))
    if errors:
        # name the failing field; a missing one is named, not its parent
        err = errors[0]
        fields = list(err.absolute_path)
        if err.validator == "required":
            fields.append(next(f for f in err.validator_value
                               if f not in err.instance))
        where = "".join(f".{f}" for f in fields)
        # the schema's errorMessage, where it has one, replaces jsonschema's
        message = err.schema.get("errorMessage", {}).get(err.validator,
                                                         err.message)
        raise ScenarioError(f"{path}: ${where}: {message}")
    _cross_validate(raw)
    digest = hashlib.sha256(text.encode()).hexdigest()
    return Scenario(raw=raw, source_sha256=digest)


# --------------------------------------------------------------------------
# pipeline stages


@dataclass
class IsingContext:
    """Everything the ising pipeline derives before sampling, and the two
    results that later stages read: the evolution `simulate` writes and the
    protocol that `fit` fits."""

    scenario: Scenario
    crystal: object | None
    modes: object | None
    array: object | None
    coupling: InteractionGraph   # every ion
    graph: InteractionGraph      # apply_mask(coupling, mask)
    drive: RamanDrive | None
    mask: ShelveMask             # all qubits for the probabilistic source
    beam_time: float             # 0 unless the source is beam_time_s
    series: ObservableSeries | None = None
    result: ProtocolResult | None = None


@contextmanager
def _stage(name):
    """Report any failure inside as a PipelineError of stage `name`; works as
    a `with` block and as a decorator."""
    try:
        yield
    except (ScenarioError, PipelineError):
        raise
    except Exception as err:
        raise PipelineError(name, err) from err


def build_ising_context(scenario: Scenario) -> IsingContext:
    raw = scenario.raw
    constants = scenario.constants()
    key, value = scenario.mask_source()
    n = raw["n_ions"]

    if key == "pattern":
        with _stage("lattice"):
            array = triangular_array(value["rows"], value["cols"])
            strength = TWO_PI * value.get("coupling_strength_hz", 1.0)
            exponent = value.get("coupling_exponent", 3.0)
            coupling = power_law_coupling(array, strength=strength,
                                          exponent=exponent)
            mask = {"triangular": lambda a: ShelveMask.all_qubits(len(a.sites)),
                    "honeycomb": honeycomb_mask,
                    "kagome": kagome_mask}[value["name"]](array)
            graph = apply_mask(coupling, mask)
        return IsingContext(scenario=scenario, crystal=None, modes=None,
                            array=array, coupling=coupling, graph=graph,
                            drive=None, mask=mask, beam_time=0.0)

    with _stage("crystal"):
        trap = scenario.trap()
        crystal = solve_equilibrium(constants, trap, n, seed=scenario.seed)
        modes = compute_normal_modes(constants, trap, crystal)

    with _stage("coupling"):
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

    if key == "explicit":
        mask, beam_time = ShelveMask.from_string(value), 0.0
    else:
        mask, beam_time = ShelveMask.all_qubits(n), float(value)
    return IsingContext(scenario=scenario, crystal=crystal, modes=modes,
                        array=None, coupling=coupling,
                        graph=apply_mask(coupling, mask), drive=drive,
                        mask=mask, beam_time=beam_time)


def _series_rows(series: ObservableSeries):
    labels = series.outcome_labels()
    header = (["time_s"] + [f"p_{lab}" for lab in labels]
              + ["mean_sigma_z", "p_all_up", "p_all_down"])
    p = series.probabilities
    return header, Table(series.times, p, series.mean_magnetization(),
                         p[:, -1], p[:, 0])


def _positions_artifact(ctx, out_dir, fmt):
    if ctx.crystal is not None:
        header, points = ["ion", "x_m", "y_m", "z_m"], ctx.crystal.positions
    else:
        header, points = ["site", "x_lattice", "y_lattice"], ctx.array.coordinates
    table = Table(np.arange(len(points)), points)
    return [write_table(out_dir, "positions", header, table, fmt)]


def _modes_artifact(ctx, out_dir, fmt):
    if ctx.modes is None:
        raise PipelineError("modes", ValueError(
            "pattern scenarios use the idealized array; no physical modes"))
    n = ctx.modes.n_ions
    header = ["mode", "freq_hz"] + [
        f"b_ion{i}_{axis}" for i in range(n) for axis in "xyz"]
    table = Table(np.arange(3 * n), ctx.modes.frequencies / TWO_PI,
                  ctx.modes.eigenvectors.T)
    return [write_table(out_dir, "modes", header, table, fmt)]


def _pair_table(out_dir, stem, graph: InteractionGraph, fmt) -> str:
    """One row (label a, label b, J_ab / 2 pi) per pair a < b of the graph."""
    a, b = np.triu_indices(graph.n_spins, k=1)
    labels = graph.survivors
    return write_table(out_dir, stem, ["i", "j", "j_hz"],
                       Table(labels[a], labels[b],
                             graph.couplings[a, b] / TWO_PI), fmt)


def _couplings_artifact(ctx, out_dir, fmt):
    j = ctx.coupling.couplings
    n = ctx.coupling.n_spins
    drive = ctx.drive
    # the JSON payload below holds every pair in j_hz, so JSON needs no table
    names = ([_pair_table(out_dir, "couplings", ctx.coupling, fmt)]
             if fmt == "csv" else [])
    payload = {
        "n_ions": n,
        "j_hz": (j / TWO_PI).tolist(),
        "detuning_hz": None if drive is None else drive.detuning / TWO_PI,
        "rabi_freq_hz": None if drive is None else drive.rabi_frequency / TWO_PI,
        "delta_k_rad_per_m": None if drive is None else drive.delta_k_magnitude,
    }
    names.append(write_json(out_dir, "couplings", payload))
    return names


def _mask_artifact(ctx, out_dir, fmt):
    scenario = ctx.scenario
    key, value = scenario.mask_source()
    mask, graph = ctx.mask, ctx.graph
    if key == "beam_time_s":
        # probabilistic source: report one seeded sample for inspection
        mask = sample_shelving(ctx.coupling.n_spins, ctx.beam_time,
                               scenario.shelving(), scenario.seed)
        graph = apply_mask(ctx.coupling, mask)
    table = Table(np.arange(len(mask)),
                  Coded(["Q", "S"], np.array(mask.shelved, dtype=np.intp)))
    names = [write_table(out_dir, "mask", ["ion", "state"], table, fmt)]
    names.append(_pair_table(out_dir, "graph", graph, fmt))

    if ctx.array is not None:
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
            # only pattern masks reach here, and they are never sampled
            "sampled": False,
        }))
    return names


@_stage("dynamics")
def _series_artifact(ctx, out_dir, fmt):
    ctx.series = scan_evolution(ctx.graph, ctx.scenario.times(),
                                model=ctx.scenario.decoherence())
    header, rows = _series_rows(ctx.series)
    return [write_table(out_dir, "series", header, rows, fmt)]


@_stage("stochastic")
def _protocol_artifact(ctx, out_dir, fmt):
    scenario = ctx.scenario
    # after simulate, the protocol samples its unshelved configuration from
    # the series; the series is dropped before the wide group tables are
    # formatted
    result = ctx.result = run_protocol(
        ctx.graph, beam_time=ctx.beam_time, times=scenario.times(),
        shelving=scenario.shelving(), measurement=scenario.measurement(),
        seed=scenario.seed, deshelving=scenario.deshelving(),
        drive_rabi=ctx.drive.rabi_frequency if ctx.drive is not None else None,
        decoherence=scenario.decoherence(), evolved=ctx.series)
    ctx.series = None
    records = result.records
    survivors = np.array([result.groups[c].survivors.size for c in records.configs])
    # an outcome's label depends on its value and its survivor count
    width = int(survivors.max(initial=0)) + 1
    outcome_keys, outcome_codes = np.unique(
        records.outcome * width + survivors[records.config], return_inverse=True)
    table = Table(
        records.shot, Coded(result.times.tolist(), records.time_index),
        Coded(records.configs, records.config),
        Coded([outcome_label(*divmod(key, width))
               for key in outcome_keys.tolist()], outcome_codes),
        Coded([False, True], records.intact.astype(np.intp)))
    header = ["shot", "time_s", "config", "outcomes", "intact"]
    names = [write_table(out_dir, "records", header, table, fmt)]

    for config, group in result.groups.items():
        labels = outcome_labels(group.survivors.size)
        gheader = (["time_s", "n_total", "n_intact"]
                   + [f"c_{lab}" for lab in labels]
                   + [f"f_{lab}" for lab in labels])
        table = Table(group.times, group.n_total, group.n_intact,
                      group.counts, group.frequencies())
        names.append(write_table(out_dir, f"group_{config}", gheader, table,
                                 fmt))
    return names


@_stage("estimator")
def _fit_artifact(ctx, out_dir, fmt):
    fits = {"pair_couplings": []}
    times = ctx.scenario.times()
    for config, group in ctx.result.groups.items():
        if group.survivors.size != 2:
            continue
        values = group.outcome_frequency("11")
        shots = group.n_intact.astype(float)
        usable = shots > 0
        if usable.sum() < MIN_PAIR_POINTS:
            continue
        result = fit_pair_coupling(times[usable], values[usable],
                                   shots=shots[usable])
        fits["pair_couplings"].append({
            "config": config,
            "pair": group.survivors.tolist(),
            "coupling_rad_per_s": result.parameters["coupling"],
            "coupling_hz": result.parameters["coupling"] / TWO_PI,
            "std_error_hz": result.std_errors["coupling"] / TWO_PI,
            "tau_d_s": result.parameters["tau_d"],
            "p_inf": result.parameters["p_inf"],
            "residual_norm": result.residual_norm,
            "n_points": int(usable.sum()),
        })
    return [write_json(out_dir, "fits", fits)]


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
    total = shots * n
    model = np.array([shelf_survival(t, process) for t in times.tolist()])
    fractions = in_ground / total
    table = Table(times, model, np.full(times.size, total), in_ground, fractions)
    names = [write_table(out_dir, "survival", header, table, fmt)]
    if scenario.fit_kind() == "none":
        return names

    with _stage("estimator"):
        result = fit_exponential(times, fractions, model="decay")
    names.append(write_json(out_dir, "fits", {"exponential": {
        "model": "decay",
        "tau_s": result.parameters["tau"],
        "std_error_s": result.std_errors["tau"],
        "residual_norm": result.residual_norm,
    }}))
    return names


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
    rabi = np.array(rabi_hz, dtype=float)
    fractions = sample.returned / shots
    table = Table(np.repeat(rabi, sample.times.shape[-1]), sample.times.ravel(),
                  sample.p_returned.ravel(), np.full(sample.times.size, shots),
                  sample.returned.ravel(), fractions.ravel())
    names = [write_table(out_dir, "deshelve_curves", curve_header, table, fmt)]
    if scenario.fit_kind() == "none":
        return names

    with _stage("estimator"):
        tau_fits = [fit_exponential(times, curve, model="inverse")
                    for times, curve in zip(sample.times, fractions)]
        taus = np.array([f.parameters["tau"] for f in tau_fits])
        power = fit_power_law(np.array(omegas), taus)
    table = Table(rabi, taus, np.array([f.std_errors["tau"] for f in tau_fits]))
    names.append(write_table(out_dir, "taus", ["rabi_hz", "tau_g_s",
                                               "std_error_s"], table, fmt))
    names.append(write_json(out_dir, "fits", {
        "power_law": {
            "exponent": power.parameters["exponent"],
            "std_error": power.std_errors["exponent"],
            "amplitude": power.parameters["amplitude"],
        },
        "deshelve_times": [
            {"rabi_hz": w / TWO_PI, "tau_g_s": f.parameters["tau"],
             "std_error_s": f.std_errors["tau"]}
            for w, f in zip(omegas, tau_fits)],
    }))
    return names


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
    digests = {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
               for name in sorted(outputs)}
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


# the ising stages in pipeline order, each a (ctx, out_dir, fmt) writer that
# returns the names of the files it wrote
ISING_STAGES = {"solve-crystal": _positions_artifact, "modes": _modes_artifact,
                "couplings": _couplings_artifact, "mask": _mask_artifact,
                "simulate": _series_artifact, "protocol": _protocol_artifact,
                "fit": _fit_artifact}

SUBCOMMANDS = (*ISING_STAGES, "all")


def _run_ising(command: str, ctx: IsingContext, out_dir: Path,
               fmt: str) -> list:
    """Walk ISING_STAGES in order. `all` runs every stage that applies and
    stops before `simulate` past the exact-evolution cap, `fit` runs the
    protocol it fits, and any other subcommand runs its own stage."""
    fit = ctx.scenario.fit_kind() == "pair_couplings"
    walk = ([stage for stage in ISING_STAGES
             if (stage != "modes" or ctx.modes is not None)
             and (stage != "fit" or fit)] if command == "all"
            else ["protocol", "fit"] if command == "fit" else [command])
    outputs = []
    survivors = ctx.graph.n_spins
    for stage in walk:
        if command == "all" and stage == "simulate" and survivors > SIZE_CAP:
            skipped = "dynamics, stochastic" + (", estimator" if fit else "")
            print(f"skipped stages {skipped}: {survivors} survivors exceed the "
                  f"exact-evolution cap of {SIZE_CAP}", file=sys.stderr)
            break
        # a stage that names its own layer (dynamics, ...) keeps that name
        with _stage(stage):
            outputs += ISING_STAGES[stage](ctx, out_dir, fmt)
    return outputs


def run_command(command: str, scenario: Scenario, out_dir: Path,
                fmt: str) -> list:
    """Execute one subcommand; returns the list of files written."""
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise ScenarioError(f"--out {out_dir}: cannot create: {err.strerror}") from err
    kind = scenario.kind
    if kind != "ising" and command not in ("protocol", "fit", "all"):
        raise ScenarioError(
            f"subcommand '{command}' is not applicable to kind '{kind}'")
    if kind == "shelving_decay":
        outputs = _run_shelving_decay(scenario, out_dir, fmt)
    elif kind == "deshelving_scan":
        outputs = _run_deshelving_scan(scenario, out_dir, fmt)
    else:
        outputs = _run_ising(command, build_ising_context(scenario), out_dir, fmt)
    if command == "all":
        with _stage("manifest"):
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
        p.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        scenario = load_scenario(args.scenario, seed_override=args.seed)
        out_dir = Path(args.out if args.out is not None
                       else scenario.raw.get("output_dir", "out"))
        written = run_command(args.command, scenario, out_dir, args.format)
    except ScenarioError as err:
        print(f"scenario error: {err}", file=sys.stderr)
        return 2
    except PipelineError as err:
        print(err, file=sys.stderr)
        return 1
    for name in written:
        print(out_dir / name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
