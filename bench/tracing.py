"""Per-layer tracing of ionrewire from outside the program.

Public functions are wrapped where their callers look them up: cli.py
imports by name, so `ionrewire.cli.solve_equilibrium` is patched rather than
`ionrewire.crystal.solve_equilibrium`, and calls made inside a module
(`calibrate_detuning` -> `coupling_matrix`, `solve_equilibrium` ->
`potential`) are caught at that module's own name. Every target is resolved
before anything is patched; a missing one raises `MissingTargetError` naming
it, so a renamed function never silently zeroes its layer.

A span accumulates self time: its duration minus the time of spans that ran
inside it. Each span also counts its calls.
"""

import hashlib
import importlib
import inspect
import time
from collections import Counter
from contextlib import contextmanager

# patched name -> span name
SPANS = {
    "ionrewire.cli.load_scenario": "cli.load",
    "ionrewire.cli.solve_equilibrium": "crystal.solve",
    "ionrewire.cli.compute_normal_modes": "crystal.modes",
    "ionrewire.cli.calibrate_detuning": "coupling.calibrate",
    "ionrewire.cli.triangular_array": "lattice",
    "ionrewire.cli.power_law_coupling": "lattice",
    "ionrewire.cli.honeycomb_mask": "lattice",
    "ionrewire.cli.kagome_mask": "lattice",
    "ionrewire.cli.apply_mask": "lattice",
    "ionrewire.cli.verify_geometry": "lattice",
    "ionrewire.stochastic.apply_mask": "lattice",
    "ionrewire.cli.scan_evolution": "dynamics.scan",
    "ionrewire.stochastic.scan_evolution": "dynamics.scan",
    "ionrewire.dynamics.dephased_limit": "dynamics.dephased",
    "ionrewire.cli.run_protocol": "stochastic.protocol",
    "ionrewire.cli.fit_pair_coupling": "estimator.fit",
    "ionrewire.cli.fit_exponential": "estimator.fit",
    "ionrewire.cli.fit_power_law": "estimator.fit",
    "ionrewire.cli.write_table": "cli.write",
    "ionrewire.cli.write_json": "cli.write",
    "ionrewire.cli._write_manifest": "cli.write",
    # shelving_decay and deshelving_scan runs sample inside run_command; their
    # self time, after fit and write spans, is the CLI-side sampler cost
    "ionrewire.cli.run_command": "cli.run",
}

# patched name -> counter name (calls only, no timing)
COUNTS = {
    "ionrewire.crystal.potential": "crystal.potential_evals",
    "ionrewire.crystal.gradient": "crystal.gradient_evals",
    "ionrewire.crystal.hessian": "crystal.hessian_evals",
    "ionrewire.cli.coupling_matrix": "coupling.matrix_evals",
    "ionrewire.coupling.coupling_matrix": "coupling.matrix_evals",
    "ionrewire.estimator.pair_coupling_model": "estimator.model_evals",
}

# patched name -> Tracer method that records counts from its arguments/result
OBSERVERS = {
    "ionrewire.cli.scan_evolution": "_scan",
    "ionrewire.stochastic.scan_evolution": "_scan",
    "ionrewire.cli.run_protocol": "_protocol",
    "ionrewire.cli.run_command": "_sampler_shots",
    "ionrewire.cli.fit_pair_coupling": "_pair_fit",
    "ionrewire.cli.write_table": "_written",
    "ionrewire.cli.write_json": "_written",
    "ionrewire.cli._write_manifest": "_written",
}

# (name, unit, better) for every per-layer metric `Tracer.metrics` returns
LAYER_METRICS = (
    ("crystal.solve_s", "s", "lower"),
    ("crystal.modes_s", "s", "lower"),
    ("crystal.potential_evals", "count", "lower"),
    ("crystal.gradient_evals", "count", "lower"),
    ("crystal.hessian_evals", "count", "lower"),
    ("coupling.calibrate_s", "s", "lower"),
    ("coupling.matrix_evals", "count", "lower"),
    ("lattice.s", "s", "lower"),
    ("dynamics.scan_s", "s", "lower"),
    ("dynamics.scan_calls", "count", "lower"),
    ("dynamics.dephased_s", "s", "lower"),
    ("dynamics.dephased_calls", "count", "lower"),
    ("dynamics.state_points", "count", "lower"),
    ("dynamics.unique_scan_ratio", "ratio", "higher"),
    ("stochastic.protocol_s", "s", "lower"),
    ("stochastic.shots", "count", "higher"),
    ("stochastic.shots_per_s", "1/s", "higher"),
    ("stochastic.configs", "count", "higher"),
    ("stochastic.intact_ratio", "ratio", "higher"),
    ("stochastic.cli_sampler_s", "s", "lower"),
    ("estimator.fit_s", "s", "lower"),
    ("estimator.fits", "count", "higher"),
    ("estimator.model_evals", "count", "lower"),
    ("estimator.fit_yield", "ratio", "higher"),
    ("cli.load_s", "s", "lower"),
    ("cli.write_s", "s", "lower"),
    ("cli.bytes_written", "count", "lower"),
    ("cli.cells_written", "count", "lower"),
)


class MissingTargetError(LookupError):
    """A function the tracer wraps no longer exists under its name."""


def _resolve(dotted: str):
    module_name, attr = dotted.rsplit(".", 1)
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None, attr, None
    return module, attr, getattr(module, attr, None)


class Tracer:
    """Self-time spans and counters for one traced pass at a time."""

    def __init__(self):
        targets = {**SPANS, **COUNTS}
        resolved = {name: _resolve(name) for name in targets}
        missing = sorted(name for name, (_, _, fn) in resolved.items()
                         if not callable(fn))
        if missing:
            raise MissingTargetError(
                "trace targets not found: " + ", ".join(
                    f"{name} ({targets[name]})" for name in missing))
        self._resolved = resolved
        self.reset()

    def reset(self):
        self.self_s = Counter()
        self.counts = Counter()
        self._scan_inputs = set()
        self._stack = []

    @contextmanager
    def installed(self):
        """Patch every target for the duration of the block."""
        originals = []
        try:
            for name, (module, attr, fn) in self._resolved.items():
                if name in SPANS:
                    observe = OBSERVERS.get(name)
                    wrapper = self._span(SPANS[name], fn, observe and
                                         getattr(self, observe))
                else:
                    wrapper = self._count(COUNTS[name], fn)
                originals.append((module, attr, fn))
                setattr(module, attr, wrapper)
            yield self
        finally:
            for module, attr, fn in originals:
                setattr(module, attr, fn)

    def _count(self, name, fn):
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _span(self, name, fn, observe):
        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            arguments = signature.bind(*args, **kwargs).arguments
            span = name
            if name == "cli.run" and arguments["scenario"].kind != "ising":
                span = "stochastic.cli_sampler"
            self._stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.self_s[span] += elapsed - self._stack.pop()
                self.counts[span + ".calls"] += 1
                if self._stack:
                    self._stack[-1] += elapsed
            if observe is not None:
                # bookkeeping is kept out of the enclosing span's self time
                mark = time.perf_counter()
                observe(span, arguments, result)
                if self._stack:
                    self._stack[-1] += time.perf_counter() - mark
            return result
        return wrapper

    # observers: (span name, bound arguments, return value)

    def _scan(self, span, args, series):
        graph, times = args["graph"], series.times
        model = args.get("model")
        self.counts["dynamics.state_points"] += times.size * 2**graph.n_spins
        key = hashlib.sha256(graph.couplings.tobytes() + times.tobytes()
                             + repr(model and model.tau_d).encode())
        self._scan_inputs.add(key.digest())

    def _protocol(self, span, args, result):
        self.counts["stochastic.shots"] += (result.times.size
                                            * args["measurement"].shots)
        for group in result.groups.values():
            self.counts["stochastic.configs"] += 1
            self.counts["stochastic.intact"] += int(group.n_intact.sum())
            self.counts["stochastic.total"] += int(group.n_total.sum())
            self.counts["estimator.pair_groups"] += group.survivors.size == 2

    def _sampler_shots(self, span, args, result):
        if span != "stochastic.cli_sampler":
            return
        raw = args["scenario"].raw
        shots = raw["measurement"].get("shots", 100)
        if raw["kind"] == "shelving_decay":
            times = raw["times"]
            points = len(times["list_s"]) if "list_s" in times else times["num"]
        else:
            scan = raw["scan"]
            points = len(scan["rabi_freqs_hz"]) * scan.get("points_per_curve", 25)
        self.counts["stochastic.shots"] += points * shots

    def _pair_fit(self, span, args, result):
        self.counts["estimator.pair_fits"] += 1

    def _written(self, span, args, name):
        if "header" in args:
            self.counts["cli.cells_written"] += (len(args["header"])
                                                 * len(args["rows"]))
        self.counts["cli.bytes_written"] += (args["out_dir"] / name).stat().st_size

    def metrics(self) -> dict:
        """Per-layer values of the pass traced since the last `reset`."""
        s = Counter({name: float(v) for name, v in self.self_s.items()})
        c = self.counts
        stochastic_s = s["stochastic.protocol"] + s["stochastic.cli_sampler"]
        scan_calls = c["dynamics.scan.calls"]
        return {
            "crystal.solve_s": s["crystal.solve"],
            "crystal.modes_s": s["crystal.modes"],
            "crystal.potential_evals": c["crystal.potential_evals"],
            "crystal.gradient_evals": c["crystal.gradient_evals"],
            "crystal.hessian_evals": c["crystal.hessian_evals"],
            "coupling.calibrate_s": s["coupling.calibrate"],
            "coupling.matrix_evals": c["coupling.matrix_evals"],
            "lattice.s": s["lattice"],
            "dynamics.scan_s": s["dynamics.scan"],
            "dynamics.scan_calls": scan_calls,
            "dynamics.dephased_s": s["dynamics.dephased"],
            "dynamics.dephased_calls": c["dynamics.dephased.calls"],
            "dynamics.state_points": c["dynamics.state_points"],
            "dynamics.unique_scan_ratio": _ratio(len(self._scan_inputs),
                                                 scan_calls),
            "stochastic.protocol_s": s["stochastic.protocol"],
            "stochastic.shots": c["stochastic.shots"],
            "stochastic.shots_per_s": _ratio(c["stochastic.shots"],
                                             stochastic_s),
            "stochastic.configs": c["stochastic.configs"],
            "stochastic.intact_ratio": _ratio(c["stochastic.intact"],
                                              c["stochastic.total"]),
            "stochastic.cli_sampler_s": s["stochastic.cli_sampler"],
            "estimator.fit_s": s["estimator.fit"],
            "estimator.fits": c["estimator.fit.calls"],
            "estimator.model_evals": c["estimator.model_evals"],
            "estimator.fit_yield": _ratio(c["estimator.pair_fits"],
                                          c["estimator.pair_groups"]),
            "cli.load_s": s["cli.load"],
            "cli.write_s": s["cli.write"],
            "cli.bytes_written": c["cli.bytes_written"],
            "cli.cells_written": c["cli.cells_written"],
        }

    def bases(self) -> dict:
        """Denominators of the ratios in `metrics`, for the report."""
        c = self.counts
        return {
            "dynamics.unique_scan_ratio": [len(self._scan_inputs),
                                           c["dynamics.scan.calls"]],
            "stochastic.intact_ratio": [c["stochastic.intact"],
                                        c["stochastic.total"]],
            "estimator.fit_yield": [c["estimator.pair_fits"],
                                    c["estimator.pair_groups"]],
        }


def _ratio(num, den) -> float:
    return num / den if den else 0.0
