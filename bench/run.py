"""ionrewire benchmark: `ionrewire all` over a seeded workload, end to end or
layer by layer.

Run from the repository root:

    python3 bench/run.py --workload figures --seed 1 --seconds 30 --trace 0

`--trace 0` reports the end-to-end metrics with tracing off; `--trace 1`
alternates untraced and traced passes and reports the per-layer metrics,
the tracing overhead and the set-up import breakdown. Every run is checked
for correctness (see checks.py). The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; the lines
before it print every metric with its unit, the host and run metadata, and
any failure.

Scenarios run one after another in this process through
`ionrewire.cli.main(["all", ...])` with default flags (no `--threads`).
"""

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOADS = ("figures", "lattice", "trap_sweep")

# BLAS threads are pinned (nproc is 2 on the reference host) so that runs
# do not contend with each other and results do not depend on the host's
# default thread count.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_REPEATS = 5  # at least; one is measured after every pass
IMPORTTIME_REPEATS = 3
SETUP_CODE = "import sys, ionrewire.cli as cli; cli.load_scenario(sys.argv[1])"
IMPORT_GROUPS = ("numpy", "scipy", "yaml", "jsonschema", "ionrewire")

END_TO_END = (("wall_s", "s"), ("run_p50_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MiB"), ("ok_ratio", "ratio"))


class SetupError(RuntimeError):
    """A fresh interpreter could not import the package or load a scenario."""


class Runner:
    """Runs scenarios through the CLI, checks each run and counts failures."""

    def __init__(self, cli, checks, probe, out_dir: Path):
        self.cli = cli
        self.checks = checks
        self.probe = probe
        self.out_dir = out_dir
        self.reference = {}
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def run(self, instance) -> tuple:
        """One `all` run; returns its wall time and the host probe's kernel
        time around it. Checks run after timing."""
        out = self.out_dir / instance.name
        argv = ["all", "--scenario", str(instance.path), "--out", str(out)]
        if instance.fmt != "csv":
            argv += ["--format", instance.fmt]
        stderr = io.StringIO()

        def call():
            try:
                with redirect_stdout(io.StringIO()), redirect_stderr(stderr):
                    return self.cli.main(argv)
            except Exception:  # a crash is a failed run, not a failed benchmark
                stderr.write(traceback.format_exc())
                return None

        gc.collect()
        code, elapsed, around = self.probe.timed(call)

        self.attempted += 1
        problems = []
        if code != 0:
            problems.append(f"exit {code}: {stderr.getvalue().strip()[-600:]}")
        else:
            files = self.checks.digests(out)
            key = (instance.name, instance.fmt,
                   hashlib.sha256(instance.path.read_bytes()).hexdigest())
            if self.reference.setdefault(key, files) != files:
                problems.append("outputs differ from an earlier pass with "
                                "the same inputs")
            problems += self.checks.run_errors(out, instance, files)
        shutil.rmtree(out, ignore_errors=True)
        if problems:
            self.failed += 1
            self.errors.append(f"{instance.name}: " + "; ".join(problems))
        return elapsed, around


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def fresh_setup(scenario: Path, probe, importtime: bool = False):
    """Wall time of a fresh interpreter importing ionrewire.cli and loading
    and validating one scenario, and the host probe's kernel time around it;
    also returns the child's stderr."""
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []),
           "-c", SETUP_CODE, str(scenario)]
    proc, elapsed, around = probe.timed(lambda: subprocess.run(
        cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True,
        timeout=120))
    if proc.returncode != 0:
        raise SetupError(f"set-up child exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-600:]}")
    return elapsed, around, proc.stderr


def import_breakdown(importtime_log: str) -> dict:
    """Seconds spent importing each group in IMPORT_GROUPS.

    A group's time is the self time of its own modules plus that of any
    other module first imported beneath one of them (jsonschema's
    dependencies count as jsonschema), so the groups do not overlap.
    """
    totals = dict.fromkeys(IMPORT_GROUPS, 0.0)
    pending = []  # (depth, self time not yet attributed), in output order
    for line in importtime_log.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[0].startswith("import time:"):
            continue
        try:
            self_us = int(parts[0].split(":")[1])
        except ValueError:  # the header line
            continue
        name = parts[2].lstrip(" ")
        depth = (len(parts[2]) - len(name) - 1) // 2
        # -X importtime prints children before their parent
        unattributed = self_us
        while pending and pending[-1][0] > depth:
            unattributed += pending.pop()[1]
        top = name.split(".")[0].lstrip("_")
        if top in totals:
            totals[top] += unattributed * 1e-6
            unattributed = 0
        pending.append((depth, unattributed))
    return totals


def timed_passes(runner, instances, seconds, setup, setups_wanted,
                 tracer=None):
    """Passes over the workload until `seconds` are spent.

    After each pass one fresh-interpreter set-up is measured with `setup`,
    so set-up samples are spread over the run rather than bunched at its
    start. At least two passes run (so outputs can be compared across
    passes) and at least `setups_wanted` set-ups. With a tracer, each pass
    runs every scenario twice, untraced and traced back to back (which goes
    first alternates between passes), so host noise hits both sides of the
    overhead alike. A pass is not started when the previous one says it
    would end past the budget.
    """
    plain, traced, layers, setups = [], [], [], []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        if tracer is None:
            plain.append([runner.run(inst) for inst in instances])
        else:
            tracer.reset()
            untraced, with_trace = [], []
            order = (False, True) if len(plain) % 2 == 0 else (True, False)
            for inst in instances:
                for trace_it in order:
                    if trace_it:
                        with tracer.installed():
                            with_trace.append(runner.run(inst))
                    else:
                        untraced.append(runner.run(inst))
            plain.append(untraced)
            traced.append(with_trace)
            layers.append((tracer.metrics(), tracer.bases()))
        setups.append(setup())
        now = time.perf_counter()
        if (len(plain) >= 2 and len(setups) >= setups_wanted
                and (now - start) + (now - began) > seconds):
            return plain, traced, layers, setups


def pass_times(passes, probe) -> list:
    """Each scenario's median time over the passes, every run corrected to
    the host's best observed speed (see hostspeed.py)."""
    return [statistics.median(probe.corrected(*run) for run in column)
            for column in zip(*passes)]


def layer_summary(layers, units):
    """Best (lowest) timing and highest rate over the traced passes; counts
    and ratios come from the first pass and must repeat in the others."""
    values, unstable = {}, []
    for name, unit in units.items():
        seq = [metrics[name] for metrics, _ in layers]
        if unit == "s":
            values[name] = min(seq)
        elif unit == "1/s":
            values[name] = max(seq)
        else:
            values[name] = seq[0]
            if any(v != seq[0] for v in seq):
                unstable.append(name)
    return values, unstable


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def blas_vendor() -> str:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        return "unknown"


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def source_digest() -> str:
    """SHA-256 over the package sources, naming the code when git cannot."""
    sha = hashlib.sha256()
    package = SRC / "ionrewire"
    for path in sorted(package.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json", ".yaml"):
            sha.update(str(path.relative_to(package)).encode() + b"\0")
            sha.update(path.read_bytes())
    return sha.hexdigest()


def metadata(args) -> dict:
    import numpy
    import scipy
    import yaml
    from importlib.metadata import version
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(), "blas": blas_vendor(),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "pyyaml": yaml.__version__,
        "jsonschema": version("jsonschema"),
        "git_commit": git_commit(), "source_sha256": source_digest(),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def measure(args, work: Path) -> dict:
    import checks
    import ionrewire.cli as cli
    import workloads
    from hostspeed import HostProbe

    instances = workloads.generate(args.workload, args.seed, SRC,
                                   work / "scenarios")
    probe = HostProbe()
    runner = Runner(cli, checks, probe, work / "out")
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()

    report = {"meta": metadata(args), "metrics": {}, "units": {}}
    metrics, units = report["metrics"], report["units"]

    # An untimed warm-up pass lets lazy imports, first-call set-up and the
    # first touch of the largest arrays' memory finish; without it the first
    # timed pass ran up to 1.6 times slower than the rest. For figures it is
    # a pass over the bundled scenarios at their bundled seeds, so every run
    # is checked against checksums.json whatever the seed.
    warmup = (workloads.generate("figures", 0, SRC, work / "bundled")
              if args.workload == "figures" else instances)
    for inst in warmup:
        runner.run(inst)

    first = instances[0].path
    if args.trace:
        def setup():
            return import_breakdown(
                fresh_setup(first, probe, importtime=True)[2])
        wanted = IMPORTTIME_REPEATS
    else:
        def setup():
            return fresh_setup(first, probe)[:2]
        wanted = SETUP_REPEATS
    plain, traced, layers, setups = timed_passes(
        runner, instances, args.seconds, setup, wanted, tracer)
    if args.trace:
        for group in IMPORT_GROUPS:
            metrics[f"setup.{group}_s"] = statistics.median(
                split[group] for split in setups)
            units[f"setup.{group}_s"] = "s"
    else:
        metrics["setup_s"] = statistics.median(
            probe.corrected(*sample) for sample in setups)
    runs = [run for times in plain for run in times]
    medians = pass_times(plain, probe)
    timed = [t for inst, t in zip(instances, medians) if inst.timed]
    metrics["wall_s"] = sum(timed)
    metrics["run_p50_s"] = statistics.median(timed)
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                              .ru_maxrss / 1024.0)
    metrics["fail_ratio"] = runner.failed / runner.attempted
    metrics["ok_ratio"] = 1.0 - metrics["fail_ratio"]
    units.update({name: unit for name, unit in END_TO_END})
    units["fail_ratio"] = "ratio"
    report["run_s"] = {inst.name: t for inst, t in zip(instances, medians)}
    report["host"] = {
        "uncorrected_wall_s": sum(
            statistics.median(elapsed for elapsed, _ in column)
            for inst, column in zip(instances, zip(*plain)) if inst.timed),
        "slowdown_p50": statistics.median(
            probe.slowdown(around) for _, around in runs),
        "slowdown_max": max(probe.slowdown(around) for _, around in runs)}
    report["samples"] = {"passes": len(plain), "runs": len(runs),
                         "runs_per_pass": len(instances),
                         "setup": len(setups)}

    if tracer is not None:
        layer_units = {name: unit for name, unit, _ in tracing.LAYER_METRICS}
        values, unstable = layer_summary(layers, layer_units)
        metrics.update(values)
        units.update(layer_units)
        metrics["trace.overhead_s"] = (sum(pass_times(traced, probe))
                                       - sum(medians))
        units["trace.overhead_s"] = "s"
        report["samples"]["traced_passes"] = len(traced)
        report["ratio_bases"] = layers[0][1]
        if unstable:
            runner.errors.append("counts differ between traced passes: "
                                 + ", ".join(unstable))
    report["attempted"], report["failed"] = runner.attempted, runner.failed
    report["errors"] = runner.errors
    return report


def result_line(report, trace: bool) -> dict:
    metrics, units = report["metrics"], report["units"]
    if trace:
        import tracing
        names = [name for name, _, _ in tracing.LAYER_METRICS]
        names += ["trace.overhead_s"] + [f"setup.{g}_s" for g in IMPORT_GROUPS]
    else:
        names = [name for name, _ in END_TO_END]
    return {
        "correct": report["failed"] == 0 and not report["errors"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in names},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ionrewire" / "cli.py").is_file():
        print(f"bench: {SRC / 'ionrewire'} not found; run from the root of an "
              "ionrewire checkout", file=sys.stderr)
        return 2
    # SIGTERM unwinds like an exception: the work directory is removed and
    # a running set-up child is killed and waited for by subprocess.run
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    for var in BLAS_ENV:  # before numpy is first imported
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))

    from tracing import MissingTargetError

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        report = measure(args, work)
    except (MissingTargetError, SetupError) as err:
        print(f"bench: {err}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run is still using it
            pass

    print(f"bench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    for name, value in sorted(report["metrics"].items()):
        print(f"  {name:<30} {value:>16.6g} {report['units'][name]}")
    print("samples " + json.dumps(report["samples"]))
    print("median run per scenario (s) " + json.dumps(report["run_s"]))
    print("host " + json.dumps(report["host"]))
    if "ratio_bases" in report:
        print("ratio bases [numerator, denominator] "
              + json.dumps(report["ratio_bases"]))
    print("meta " + json.dumps(report["meta"]))
    for error in report["errors"]:
        print(f"FAIL {error}")
    result = result_line(report, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
