"""The benchmark's tracer still reaches every layer it measures.

bench/tracing.py wraps functions under the module names their callers look
them up by. A call moved out of a patched module would still run, but its
layer would silently read 0 in every traced benchmark report; here that is a
failure. The test reads bench/ and changes nothing there.
"""

import importlib.util
from pathlib import Path

import pytest
import yaml

from ionrewire import TrapConfig, cli, solve_equilibrium
from test_crystal import SOLVE_CASES

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"

LAYERS = ("crystal.solve_s", "coupling.matrix_evals", "lattice.s",
          "dynamics.scan_calls", "dynamics.dephased_calls",
          "stochastic.protocol_s", "estimator.fits", "cli.cells_written")

KAGOME = {
    "name": "kagome-traced",
    "kind": "ising",
    "seed": 3,
    "n_ions": 4,
    "mask": {"pattern": {"name": "kagome", "rows": 2, "cols": 2}},
    "times": {"start_s": 0.0, "stop_s": 1e-3, "num": 5},
    "decoherence": {"tau_d_s": 2e-3},
    "measurement": {"spam_error": 0.0, "shots": 20},
    "fit": "none",
}


# (potential, gradient, hessian) calls the tracer counts in one
# solve_equilibrium of each SOLVE_CASES crystal. They count asks, not pair
# passes: BFGS and both line searches ask `potential` and `gradient` at each
# point they visit, and a restart's `_Point` serves a point it holds without
# another pass (linear-12 makes 786 passes for 782 distinct points, see
# test_crystal.py's test_one_pair_pass_per_point). The Newton polish starts
# from the energy and gradient BFGS ends with; in these solves it asks for
# the Hessian once per restart.
CRYSTAL_EVALS = {
    "linear-12": (805, 776, 8),
    "zigzag-20": (1304, 1297, 8),
    "3d-28": (1387, 1358, 8),
}


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_reads_nonzero(tmp_path):
    # raises MissingTargetError if a patched name no longer exists
    tracer = load_tracing().Tracer()
    kagome = tmp_path / "kagome.yaml"
    kagome.write_text(yaml.safe_dump(KAGOME))
    with tracer.installed():
        for name, scenario in (("fig4e-g", "fig4e-g"), ("kagome", kagome)):
            assert cli.main(["all", "--scenario", str(scenario),
                             "--out", str(tmp_path / name)]) == 0
    metrics = tracer.metrics()
    assert [name for name in LAYERS if not metrics[name] > 0] == []


@pytest.mark.parametrize("case", list(CRYSTAL_EVALS))
def test_crystal_counts_are_pinned(constants, case):
    # a solver that bound `potential` locally would still run, and zero the
    # benchmark's crystal.*_evals
    tracer = load_tracing().Tracer()
    freqs, n, seed = SOLVE_CASES[case]
    with tracer.installed():
        solve_equilibrium(constants, TrapConfig.from_hz(*freqs), n, seed=seed)
    counts = tuple(tracer.counts[f"crystal.{name}_evals"]
                   for name in ("potential", "gradient", "hessian"))
    assert counts == CRYSTAL_EVALS[case]
