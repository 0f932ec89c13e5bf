"""Golden digests: the SHA-256 of every data file each case writes.

The cases come in two halves. The bundled half is every subcommand but `all`
on every bundled scenario in both formats, plus `all --format json`; `all`
in CSV is pinned by `scenarios/checksums.json`. The workload half is `all`
on each scenario under `tests/data/workloads/<workload>/`, in that
workload's format: the instances `bench/workloads.py` generates for seed 3,
committed so that the generator stays free to change. Each case records its
exit code and the digest of every file it writes except `manifest.json`,
which holds a timestamp and library versions.

Regenerate `tests/golden.json` with

    PYTHONPATH=src python tests/golden.py

only when the sampling scheme changes on purpose, and list every changed
entry with the change.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from ionrewire.cli import BUNDLED_SCENARIOS, SUBCOMMANDS, main

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
GOLDEN = HERE / "golden.json"
WORKLOADS = HERE / "data" / "workloads"
# each workload's output format, as the benchmark runs its instances
WORKLOAD_FORMATS = {"lattice": "csv", "trap_sweep": "json"}

CASES = [(command, scenario, fmt)
         for command in SUBCOMMANDS
         for scenario in BUNDLED_SCENARIOS
         for fmt in ("csv", "json")
         if command != "all" or fmt == "json"]

WORKLOAD_CASES = [("all", f"{workload}/{path.stem}", fmt)
                  for workload, fmt in WORKLOAD_FORMATS.items()
                  for path in sorted((WORKLOADS / workload).glob("*.yaml"))]


def run_case(command: str, scenario: str, fmt: str, out_dir: Path) -> dict:
    """Exit code and data-file digests of one subcommand run."""
    if scenario not in BUNDLED_SCENARIOS:
        scenario = str(WORKLOADS / f"{scenario}.yaml")
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main([command, "--scenario", scenario, "--out", str(out_dir),
                     "--format", fmt])
    return {"exit": code,
            "files": {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                      for p in sorted(out_dir.iterdir())
                      if p.name != "manifest.json"}}


def run_cases(work_dir: Path, cases=CASES) -> dict:
    """Each case's result, keyed "<command> <scenario> <format>"."""
    return {" ".join(case): run_case(*case,
                                     work_dir / "-".join(case).replace("/", "-"))
            for case in cases}


CHILD = """
import json, sys
from pathlib import Path
from golden import WORKLOAD_CASES, run_cases
print(json.dumps(run_cases(Path(sys.argv[1]), WORKLOAD_CASES)))
"""


def run_workload_cases(work_dir: Path, threads: str) -> dict:
    """The workload half, run in a fresh interpreter with `threads` BLAS
    threads."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads,
               PYTHONPATH=os.pathsep.join(filter(None, [
                   str(SRC), str(HERE), os.environ.get("PYTHONPATH")])))
    child = subprocess.run([sys.executable, "-c", CHILD, str(work_dir)],
                           env=env, capture_output=True, text=True)
    if child.returncode:
        raise RuntimeError(child.stderr)
    return json.loads(child.stdout)


def write_golden():
    """Every case, the workload half at one BLAS thread."""
    with tempfile.TemporaryDirectory() as tmp:
        digests = run_cases(Path(tmp) / "bundled")
        digests.update(run_workload_cases(Path(tmp) / "workloads", "1"))
    GOLDEN.write_text(json.dumps(digests, indent=2) + "\n")
    print(f"wrote {len(digests)} cases to {GOLDEN}")


if __name__ == "__main__":
    write_golden()
