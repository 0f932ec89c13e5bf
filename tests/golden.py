"""Golden digests: the SHA-256 of every data file each subcommand writes.

The cases are every subcommand but `all` on every bundled scenario in both
formats, plus `all --format json`; `all` in CSV is pinned by
`scenarios/checksums.json`. Each case records its exit code and the digest
of every file it writes except `manifest.json`, which holds a timestamp and
library versions.

Regenerate `tests/golden.json` with

    PYTHONPATH=src python tests/golden.py

only when the sampling scheme changes on purpose, and list every changed
entry with the change.
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

from ionrewire.cli import BUNDLED_SCENARIOS, SUBCOMMANDS, main

GOLDEN = Path(__file__).resolve().parent / "golden.json"

CASES = [(command, scenario, fmt)
         for command in SUBCOMMANDS
         for scenario in BUNDLED_SCENARIOS
         for fmt in ("csv", "json")
         if command != "all" or fmt == "json"]


def run_case(command: str, scenario: str, fmt: str, out_dir: Path) -> dict:
    """Exit code and data-file digests of one subcommand run."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main([command, "--scenario", scenario, "--out", str(out_dir),
                     "--format", fmt])
    return {"exit": code,
            "files": {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                      for p in sorted(out_dir.iterdir())
                      if p.name != "manifest.json"}}


def run_cases(work_dir: Path) -> dict:
    """Every case's result, keyed "<command> <scenario> <format>"."""
    return {" ".join(case): run_case(*case, work_dir / "-".join(case))
            for case in CASES}


def write_golden():
    with tempfile.TemporaryDirectory() as tmp:
        digests = run_cases(Path(tmp))
    GOLDEN.write_text(json.dumps(digests, indent=2) + "\n")
    print(f"wrote {len(digests)} cases to {GOLDEN}")


if __name__ == "__main__":
    write_golden()
