import json

from golden import CASES, GOLDEN, run_cases


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


def test_every_case_matches_the_golden_digests(tmp_path):
    committed = json.loads(GOLDEN.read_text())
    got = run_cases(tmp_path)
    assert len(got) == len(CASES)
    assert not drifted(got, committed), "\n".join(drifted(got, committed))
