import json

import pytest

from golden import CASES, GOLDEN, WORKLOAD_CASES, run_cases, run_workload_cases

# Each digest holds at one BLAS thread. At two, one file drifts: the
# mean_sigma_z column of the 14-spin lattice's series.csv is a BLAS dgemv
# (`ObservableSeries.mean_magnetization`), and OpenBLAS splits its rows, and
# for 2^14 columns a row itself, between threads, which moves last bits.
THREAD_DEPENDENT = {"2": ["all lattice/lattice3-honeycomb-7x3 csv: series.csv"]}


def drifted(got: dict, committed: dict) -> list:
    """One line per case whose exit code or data files differ, naming each
    file whose digest changed or that only one side has."""
    lines = []
    for case in sorted(got.keys() | committed.keys()):
        mine, theirs = got.get(case), committed.get(case)
        if mine is None or theirs is None:
            lines.append(f"{case}: only {'committed' if mine is None else 'run'}")
            continue
        if mine["exit"] != theirs["exit"]:
            lines.append(f"{case}: exit {mine['exit']}, committed {theirs['exit']}")
        names = sorted(name for name in mine["files"].keys() | theirs["files"].keys()
                       if mine["files"].get(name) != theirs["files"].get(name))
        if names:
            lines.append(f"{case}: {', '.join(names)}")
    return lines


def committed_half(cases) -> dict:
    committed = json.loads(GOLDEN.read_text())
    keys = {" ".join(case) for case in CASES + WORKLOAD_CASES}
    assert not committed.keys() ^ keys, sorted(committed.keys() ^ keys)
    return {" ".join(case): committed[" ".join(case)] for case in cases}


def test_every_case_matches_the_golden_digests(tmp_path):
    committed = committed_half(CASES)
    got = run_cases(tmp_path)
    assert len(got) == len(CASES)
    assert not drifted(got, committed), "\n".join(drifted(got, committed))


@pytest.mark.parametrize("threads", ["1", "2"])
def test_workload_instances_match_the_golden_digests(tmp_path, threads):
    """`all` on the committed workload instances writes the committed bytes
    in a fresh interpreter at one and at two BLAS threads: the 28-ion
    crystals rest on OpenBLAS kernel bits."""
    committed = committed_half(WORKLOAD_CASES)
    got = run_workload_cases(tmp_path, threads)
    assert len(got) == len(WORKLOAD_CASES) == 19
    lines = drifted(got, committed)
    assert lines == THREAD_DEPENDENT.get(threads, []), "\n".join(lines)
