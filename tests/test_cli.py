import contextlib
import copy
import io
import itertools
import json
import math
import os
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from ionrewire import cli, dynamics, stochastic, tables
from ionrewire.dynamics import SIZE_CAP, ObservableSeries
from ionrewire.stochastic import GroupSeries


MINI_SCENARIO = {
    "name": "mini",
    "kind": "ising",
    "seed": 7777,
    "n_ions": 2,
    "ion_mass_u": 171.0,
    "trap": {"freq_x_hz": 978e3, "freq_y_hz": 1748e3, "freq_z_hz": 1798e3},
    "drive": {
        "rabi_freq_hz": 76e3,
        "wavelength_m": 355e-9,
        "direction": [1.0, 0.0, 0.0],
        "calibration": {"target_j_hz": 750.0, "pair": [0, 1], "side": "above"},
    },
    "mask": {"explicit": "QQ"},
    "times": {"start_s": 0.0, "stop_s": 1.5e-3, "num": 16},
    "decoherence": {"tau_d_s": 5.5e-3},
    "measurement": {"spam_error": 0.04, "shots": 40},
    "fit": "pair_couplings",
}


def write_scenario(tmp_path, payload, name="scenario.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(payload))
    return path


def run_cli(*argv):
    return cli.main([str(a) for a in argv])


def data_files(out_dir):
    return sorted(p.name for p in Path(out_dir).iterdir()
                  if p.name != "manifest.json")


class TestValidation:
    def test_negative_frequency_rejected_without_outputs(self, tmp_path, capsys):
        bad = dict(MINI_SCENARIO, trap={"freq_x_hz": -1.0, "freq_y_hz": 1e6,
                                        "freq_z_hz": 1e6})
        path = write_scenario(tmp_path, bad)
        out = tmp_path / "out"
        assert run_cli("all", "--scenario", path, "--out", out) == 2
        message = capsys.readouterr().err
        assert "freq_x_hz" in message
        assert not out.exists()

    @pytest.mark.parametrize("scenario", ["fig4b", "fig_op"])
    def test_negative_seed_override_rejected_without_outputs(
            self, tmp_path, capsys, scenario):
        out = tmp_path / "out"
        assert run_cli("all", "--scenario", scenario, "--out", out,
                       "--seed", -1) == 2
        assert "$.seed" in capsys.readouterr().err
        assert not out.exists()

    def test_malformed_yaml_rejected(self, tmp_path, capsys):
        path = tmp_path / "broken.yaml"
        path.write_text("name: [unclosed\n")
        assert run_cli("all", "--scenario", path, "--out", tmp_path / "o") == 2
        assert "YAML parse error" in capsys.readouterr().err

    def test_mask_length_mismatch(self, tmp_path, capsys):
        bad = dict(MINI_SCENARIO, mask={"explicit": "QQQ"})
        path = write_scenario(tmp_path, bad)
        assert run_cli("all", "--scenario", path, "--out", tmp_path / "o") == 2
        assert "mask.explicit" in capsys.readouterr().err

    def test_detuning_and_calibration_both_given(self, tmp_path, capsys):
        drive = dict(MINI_SCENARIO["drive"], detuning_hz=1.0e6)
        path = write_scenario(tmp_path, dict(MINI_SCENARIO, drive=drive))
        assert run_cli("all", "--scenario", path, "--out", tmp_path / "o") == 2
        assert "exactly one" in capsys.readouterr().err

    def test_two_mask_sources_rejected(self, tmp_path):
        bad = dict(MINI_SCENARIO, mask={"explicit": "QQ", "beam_time_s": 0.01})
        path = write_scenario(tmp_path, bad)
        assert run_cli("all", "--scenario", path, "--out", tmp_path / "o") == 2

    def test_missing_file(self, capsys, tmp_path):
        assert run_cli("all", "--scenario", tmp_path / "nope.yaml",
                       "--out", tmp_path / "o") == 2

    def test_wrong_subcommand_for_kind(self, capsys, tmp_path):
        assert run_cli("solve-crystal", "--scenario", "fig_op",
                       "--out", tmp_path / "o") == 2
        assert "not applicable" in capsys.readouterr().err

    def test_zero_drive_direction_rejected(self, tmp_path, capsys):
        drive = dict(MINI_SCENARIO["drive"], direction=[0.0, 0.0, 0.0])
        path = write_scenario(tmp_path, dict(MINI_SCENARIO, drive=drive))
        out = tmp_path / "out"
        assert run_cli("couplings", "--scenario", path, "--out", out) == 2
        assert "$.drive.direction" in capsys.readouterr().err
        assert not out.exists()

    def test_pipeline_error_names_the_module(self, tmp_path, capsys):
        drive = dict(MINI_SCENARIO["drive"])
        drive["calibration"] = {"target_j_hz": 1.0e9, "pair": [0, 1],
                                "side": "above"}
        path = write_scenario(tmp_path, dict(MINI_SCENARIO, drive=drive))
        assert run_cli("all", "--scenario", path, "--out", tmp_path / "o") == 1
        message = capsys.readouterr().err
        assert "stage 'coupling'" in message
        assert "not achievable" in message


class TestPipeline:
    def test_full_run_writes_expected_files(self, tmp_path, capsys):
        path = write_scenario(tmp_path, MINI_SCENARIO)
        out = tmp_path / "out"
        assert run_cli("all", "--scenario", path, "--out", out) == 0
        names = set(data_files(out))
        assert {"positions.csv", "modes.csv", "couplings.csv",
                "couplings.json", "mask.csv", "graph.csv", "series.csv",
                "records.csv", "group_QQ.csv", "fits.json"} <= names
        assert (out / "manifest.json").exists()

    def test_headers_carry_unit_suffixes(self, tmp_path):
        path = write_scenario(tmp_path, MINI_SCENARIO)
        out = tmp_path / "out"
        run_cli("all", "--scenario", path, "--out", out)
        assert (out / "series.csv").read_text().splitlines()[0].startswith("time_s,")
        assert (out / "couplings.csv").read_text().splitlines()[0] == "i,j,j_hz"
        assert (out / "positions.csv").read_text().splitlines()[0] == "ion,x_m,y_m,z_m"
        assert (out / "modes.csv").read_text().splitlines()[0].startswith("mode,freq_hz")
        assert (out / "records.csv").read_text().splitlines()[0] == \
            "shot,time_s,config,outcomes,intact"

    def test_fit_recovers_calibration_target(self, tmp_path):
        scenario = dict(MINI_SCENARIO,
                        times={"start_s": 0.0, "stop_s": 3e-3, "num": 31},
                        measurement={"spam_error": 0.0, "shots": 400})
        path = write_scenario(tmp_path, scenario)
        out = tmp_path / "out"
        run_cli("all", "--scenario", path, "--out", out)
        fits = json.loads((out / "fits.json").read_text())
        fit = fits["pair_couplings"][0]
        assert fit["pair"] == [0, 1]
        assert abs(fit["coupling_hz"] - 750.0) < 5 * fit["std_error_hz"] + 1.0

    def test_deterministic_reruns_are_byte_identical(self, tmp_path):
        path = write_scenario(tmp_path, MINI_SCENARIO)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run_cli("all", "--scenario", path, "--out", out_a) == 0
        assert run_cli("all", "--scenario", path, "--out", out_b) == 0
        assert data_files(out_a) == data_files(out_b)
        for name in data_files(out_a):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    def test_seed_override_changes_sampled_outputs(self, tmp_path):
        path = write_scenario(tmp_path, MINI_SCENARIO)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_cli("all", "--scenario", path, "--out", out_a)
        run_cli("all", "--scenario", path, "--out", out_b, "--seed", 1234)
        assert (out_a / "records.csv").read_bytes() != (out_b / "records.csv").read_bytes()

    def test_manifest_round_trip(self, tmp_path):
        path = write_scenario(tmp_path, MINI_SCENARIO)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_cli("all", "--scenario", path, "--out", out_a)
        manifest = out_a / "manifest.json"
        assert run_cli("all", "--scenario", manifest, "--out", out_b) == 0
        for name in data_files(out_a):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    def test_manifest_contents(self, tmp_path):
        path = write_scenario(tmp_path, MINI_SCENARIO)
        out = tmp_path / "out"
        run_cli("all", "--scenario", path, "--out", out)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == MINI_SCENARIO["seed"]
        assert manifest["versions"]["ionrewire"]
        for library in ("numpy", "scipy", "pyyaml", "jsonschema"):
            assert manifest["versions"][library]
        assert set(manifest["outputs"]) == set(data_files(out))
        import hashlib
        for name, digest in manifest["outputs"].items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest

    def test_json_format(self, tmp_path):
        path = write_scenario(tmp_path, MINI_SCENARIO)
        out = tmp_path / "out"
        assert run_cli("simulate", "--scenario", path, "--out", out,
                       "--format", "json") == 0
        payload = json.loads((out / "series.json").read_text())
        assert isinstance(payload, list) and "time_s" in payload[0]

    def test_json_run_lists_each_output_once(self, tmp_path, capsys):
        path = write_scenario(tmp_path, MINI_SCENARIO)
        out = tmp_path / "out"
        assert run_cli("all", "--scenario", path, "--out", out,
                       "--format", "json") == 0
        listed = capsys.readouterr().out.splitlines()
        assert len(listed) == len(set(listed))
        assert sorted(Path(name).name for name in listed) == sorted(
            p.name for p in out.iterdir())
        couplings = json.loads((out / "couplings.json").read_text())
        assert len(couplings["j_hz"]) == MINI_SCENARIO["n_ions"]
        records = json.loads((out / "records.json").read_text())
        assert len(records) == 16 * 40
        assert isinstance(records[0]["shot"], int)
        assert isinstance(records[0]["time_s"], float)
        assert isinstance(records[0]["intact"], bool)


class TestSubcommands:
    @pytest.mark.parametrize("command,expected", [
        ("solve-crystal", ["positions.csv"]),
        ("modes", ["modes.csv"]),
        ("couplings", ["couplings.csv", "couplings.json"]),
        ("mask", ["mask.csv", "graph.csv"]),
        ("simulate", ["series.csv"]),
        ("protocol", ["records.csv", "group_QQ.csv"]),
        ("fit", ["fits.json"]),
    ])
    def test_standalone_stage(self, tmp_path, command, expected):
        path = write_scenario(tmp_path, MINI_SCENARIO)
        out = tmp_path / "out"
        assert run_cli(command, "--scenario", path, "--out", out) == 0
        for name in expected:
            assert (out / name).exists(), name


class TestPatternScenarios:
    def make_pattern_scenario(self, name, rows, cols):
        return {
            "name": "pattern-test",
            "kind": "ising",
            "seed": 5,
            "n_ions": rows * cols,
            "mask": {"pattern": {"name": name, "rows": rows, "cols": cols}},
            "times": {"start_s": 0.0, "stop_s": 1e-3, "num": 5},
            "measurement": {"spam_error": 0.0, "shots": 20},
            "fit": "none",
        }

    def test_honeycomb_patch_geometry_passes(self, tmp_path):
        payload = self.make_pattern_scenario("honeycomb", 12, 12)
        path = write_scenario(tmp_path, payload)
        out = tmp_path / "out"
        assert run_cli("mask", "--scenario", path, "--out", out) == 0
        report = json.loads((out / "geometry.json").read_text())
        assert report["passed"] is True
        assert report["expected_degree"] == 3
        # one graph row per survivor pair, in the order of a nested loop
        mask = [line.split(",") for line in
                (out / "mask.csv").read_text().splitlines()[1:]]
        survivors = [int(ion) for ion, state in mask if state == "Q"]
        pairs = [tuple(map(int, line.split(",")[:2])) for line in
                 (out / "graph.csv").read_text().splitlines()[1:]]
        assert pairs == list(itertools.combinations(survivors, 2))

    def test_small_kagome_cell_runs_dynamics(self, tmp_path):
        payload = self.make_pattern_scenario("kagome", 2, 2)
        path = write_scenario(tmp_path, payload)
        out = tmp_path / "out"
        assert run_cli("all", "--scenario", path, "--out", out) == 0
        report = json.loads((out / "geometry.json").read_text())
        assert report["mask"].count("S") == 1
        assert (out / "series.csv").exists()

    @pytest.mark.parametrize("command", ["all", "protocol"])
    def test_pattern_graph_evolves_once(self, tmp_path, monkeypatch, command):
        calls = []

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        counted(cli, "scan_evolution")
        counted(stochastic, "scan_evolution")
        counted(dynamics, "dephased_limit")
        payload = dict(self.make_pattern_scenario("kagome", 2, 4),
                       decoherence={"tau_d_s": 2e-3})
        path = write_scenario(tmp_path, payload)
        assert run_cli(command, "--scenario", path,
                       "--out", tmp_path / "out") == 0
        assert sorted(calls) == ["dephased_limit", "scan_evolution"]

    @pytest.mark.parametrize("shelved", ["explicit", "honeycomb", "kagome"])
    def test_every_ion_shelved_runs(self, tmp_path, shelved):
        payload = (dict(MINI_SCENARIO, mask={"explicit": "SS"})
                   if shelved == "explicit"
                   else self.make_pattern_scenario(shelved, 1, 1))
        path = write_scenario(tmp_path, payload)
        out = tmp_path / "out"
        assert run_cli("all", "--scenario", path, "--out", out) == 0
        shots = payload["measurement"]["shots"]
        rows = (out / "group_.csv").read_text().splitlines()
        assert rows[0] == "time_s,n_total,n_intact,c_,f_"
        assert all(row.split(",")[1:4] == [str(shots)] * 3 for row in rows[1:])
        assert (out / "records.csv").exists()
        if shelved == "explicit":
            fits = json.loads((out / "fits.json").read_text())
            assert fits == {"pair_couplings": []}

    def test_large_pattern_skips_dynamics(self, tmp_path, capsys):
        payload = self.make_pattern_scenario("honeycomb", 12, 12)
        path = write_scenario(tmp_path, payload)
        out = tmp_path / "out"
        assert run_cli("all", "--scenario", path, "--out", out) == 0
        assert not (out / "series.csv").exists()
        assert (out / "geometry.json").exists()
        err = capsys.readouterr().err.splitlines()
        assert err == ["skipped stages dynamics, stochastic: 96 survivors "
                       f"exceed the exact-evolution cap of {SIZE_CAP}"]

    def test_large_pattern_skip_names_the_due_fit(self, tmp_path, capsys):
        payload = self.make_pattern_scenario("honeycomb", 12, 12)
        del payload["fit"]  # the ising default, pair_couplings
        path = write_scenario(tmp_path, payload)
        out = tmp_path / "out"
        assert run_cli("all", "--scenario", path, "--out", out) == 0
        assert not (out / "fits.json").exists()
        err = capsys.readouterr().err.splitlines()
        assert err == ["skipped stages dynamics, stochastic, estimator: 96 "
                       "survivors exceed the exact-evolution cap of 14"]

    def test_large_pattern_simulate_fails_in_dynamics(self, tmp_path, capsys):
        payload = self.make_pattern_scenario("honeycomb", 12, 12)
        path = write_scenario(tmp_path, payload)
        assert run_cli("simulate", "--scenario", path,
                       "--out", tmp_path / "out") == 1
        err = capsys.readouterr().err
        assert "stage 'dynamics'" in err
        assert f"cap of {SIZE_CAP}" in err

    def test_modes_not_applicable(self, tmp_path, capsys):
        payload = self.make_pattern_scenario("honeycomb", 3, 3)
        path = write_scenario(tmp_path, payload)
        assert run_cli("modes", "--scenario", path, "--out", tmp_path / "o") == 1


class TestBundledScenarios:
    def test_all_bundled_scenarios_load(self):
        for name in cli.BUNDLED_SCENARIOS:
            scenario = cli.load_scenario(name)
            assert scenario.name == name

    def test_fig_op_runs(self, tmp_path):
        out = tmp_path / "op"
        assert run_cli("all", "--scenario", "fig_op", "--out", out) == 0
        fits = json.loads((out / "fits.json").read_text())
        tau = fits["exponential"]["tau_s"]
        err = fits["exponential"]["std_error_s"]
        assert abs(tau - 55e-3) < 3 * err

    def test_fig6_runs(self, tmp_path):
        out = tmp_path / "f6"
        assert run_cli("all", "--scenario", "fig6", "--out", out) == 0
        fits = json.loads((out / "fits.json").read_text())
        assert abs(fits["power_law"]["exponent"] + 2.0) < 0.1
        assert (out / "taus.csv").exists()
        assert (out / "deshelve_curves.csv").exists()

    def test_fig4b_series_peaks_near_a_third_of_a_millisecond(self, tmp_path):
        out = tmp_path / "f4b"
        assert run_cli("all", "--scenario", "fig4b", "--out", out) == 0
        rows = (out / "series.csv").read_text().splitlines()
        header = rows[0].split(",")
        t_col, p_col = header.index("time_s"), header.index("p_11")
        data = np.array([[float(r.split(",")[t_col]), float(r.split(",")[p_col])]
                         for r in rows[1:]])
        half = data[data[:, 0] <= 0.5e-3]
        t_peak = half[np.argmax(half[:, 1]), 0]
        grid_step = data[1, 0] - data[0, 0]
        assert abs(t_peak - np.pi / (2 * 2 * np.pi * 750.0)) <= grid_step

    def test_scenario_output_dir_field_used_as_default(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        payload = dict(MINI_SCENARIO, output_dir="from_config")
        path = write_scenario(tmp_path, payload)
        assert run_cli("simulate", "--scenario", path) == 0
        assert (tmp_path / "from_config" / "series.csv").exists()


DECAY_SCENARIO = {
    "name": "decay",
    "kind": "shelving_decay",
    "seed": 11,
    "n_ions": 2,
    "times": {"start_s": 0.0, "stop_s": 0.25, "num": 16},
    "shelving": {"tau_shelve_s": 55e-3},
    "measurement": {"spam_error": 0.0, "shots": 40},
    "fit": "exponential",
}

SCAN_SCENARIO = {
    "name": "scan",
    "kind": "deshelving_scan",
    "seed": 12,
    "scan": {"rabi_freqs_hz": [76e3, 152e3, 304e3], "points_per_curve": 6},
    "measurement": {"spam_error": 0.0, "shots": 30},
    "fit": "power_law",
}

KAGOME_SCENARIO = {
    "name": "kagome",
    "kind": "ising",
    "seed": 13,
    "n_ions": 4,
    "mask": {"pattern": {"name": "kagome", "rows": 2, "cols": 2}},
    "times": {"start_s": 0.0, "stop_s": 1e-3, "num": 5},
    "measurement": {"spam_error": 0.0, "shots": 20},
    "fit": "none",
}

BASES = {"ising": MINI_SCENARIO, "shelving_decay": DECAY_SCENARIO,
         "deshelving_scan": SCAN_SCENARIO}


def ising_listings(configs, pattern=False, fit_due=True):
    """The files each ising subcommand lists, in order, with --format csv;
    None where it exits 1."""
    mask = ["mask.csv", "graph.csv"] + (["geometry.json"] if pattern else [])
    protocol = ["records.csv"] + [f"group_{c}.csv" for c in configs]
    return {
        "solve-crystal": ["positions.csv"],
        "modes": None if pattern else ["modes.csv"],
        "couplings": ["couplings.csv", "couplings.json"],
        "mask": mask,
        "simulate": ["series.csv"],
        "protocol": protocol,
        "fit": protocol + ["fits.json"],
        "all": (["positions.csv"] + ([] if pattern else ["modes.csv"])
                + ["couplings.csv", "couplings.json"] + mask + ["series.csv"]
                + protocol + (["fits.json"] if fit_due else [])
                + ["manifest.json"]),
    }


BEAM_SCENARIO = dict(MINI_SCENARIO, mask={"beam_time_s": 38e-3})

LISTING_CASES = {
    "explicit": (MINI_SCENARIO, ising_listings(["QQ"])),
    "beam_time": (BEAM_SCENARIO, ising_listings(["QQ", "QS", "SQ", "SS"])),
    "kagome": (KAGOME_SCENARIO,
               ising_listings(["QQQ"], pattern=True, fit_due=False)),
}


def typed(node):
    """A loaded YAML document with the type of every node kept, so that 1,
    1.0 and True compare unequal."""
    if isinstance(node, dict):
        return dict, [(typed(k), typed(v)) for k, v in node.items()]
    if isinstance(node, list):
        return list, [typed(v) for v in node]
    return type(node), node


class TestYamlLoader:
    def test_libyaml_loads_what_the_python_loader_loads(self):
        if not hasattr(yaml, "CSafeLoader"):
            pytest.skip("this PyYAML was built without libyaml")
        from test_tracer import KAGOME
        assert cli.YAML_LOADER is yaml.CSafeLoader
        pattern = TestPatternScenarios().make_pattern_scenario
        texts = [cli.resolve_scenario_path(name).read_text()
                 for name in cli.BUNDLED_SCENARIOS]
        texts += [yaml.safe_dump(raw) for raw in (
            MINI_SCENARIO, DECAY_SCENARIO, SCAN_SCENARIO, KAGOME_SCENARIO,
            BEAM_SCENARIO, KAGOME, pattern("honeycomb", 12, 12))]
        for text in texts:
            assert (typed(yaml.load(text, Loader=yaml.CSafeLoader))
                    == typed(yaml.load(text, Loader=yaml.SafeLoader)))


class TestOutputSets:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("command", cli.SUBCOMMANDS)
    @pytest.mark.parametrize("case", list(LISTING_CASES))
    def test_subcommand_writes_exactly_its_stages(self, tmp_path, capsys,
                                                  case, command, fmt):
        payload, listings = LISTING_CASES[case]
        path = write_scenario(tmp_path, payload)
        out = tmp_path / "out"
        code = run_cli(command, "--scenario", path, "--out", out,
                       "--format", fmt)
        listed = capsys.readouterr().out.splitlines()
        expected = listings[command]
        if expected is None:
            assert (code, listed, list(out.iterdir())) == (1, [], [])
            return
        if fmt == "json":
            # the couplings.json payload holds every pair, so JSON writes no
            # couplings table
            expected = [name.replace(".csv", ".json") for name in expected
                        if name != "couplings.csv"]
        assert code == 0
        assert listed == [str(out / name) for name in expected]
        assert sorted(p.name for p in out.iterdir()) == sorted(expected)


DROP = object()


def mutated(base, changes):
    """A copy of base with each dotted path set to a value, or deleted."""
    raw = copy.deepcopy(base)
    for dotted, value in changes.items():
        *parents, key = dotted.split(".")
        node = raw
        for name in parents:
            node = node[name]
        if value is DROP:
            del node[key]
        else:
            node[key] = value
    return raw


def run_captured(argv):
    """main's exit code and stderr, without pytest fixtures."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([str(a) for a in argv])
    return code, err.getvalue()


# (base, changes, the field the message names); each breaks one rule
RULE_CASES = [
    *[(MINI_SCENARIO, {f: DROP}, f"$.{f}")
      for f in ("n_ions", "times", "mask", "measurement", "trap", "drive",
                "drive.rabi_freq_hz")],
    *[(DECAY_SCENARIO, {f: DROP}, f"$.{f}")
      for f in ("n_ions", "times", "measurement")],
    *[(SCAN_SCENARIO, {f: DROP}, f"$.{f}") for f in ("scan", "measurement")],
    (MINI_SCENARIO, {"drive.detuning_hz": 1.0e6}, "$.drive"),
    (MINI_SCENARIO, {"drive.calibration": DROP}, "$.drive"),
    (MINI_SCENARIO, {"drive.calibration.pair": [0, 0]},
     "$.drive.calibration.pair"),
    (MINI_SCENARIO, {"drive.calibration.pair": [0, 2]},
     "$.drive.calibration.pair"),
    *[(MINI_SCENARIO, {f"times.{f}": DROP}, f"$.times.{f}")
      for f in ("start_s", "stop_s", "num")],
    (MINI_SCENARIO, {"mask": {"explicit": "QQQ"}}, "$.mask.explicit"),
    (KAGOME_SCENARIO, {"n_ions": 5}, "$.mask.pattern"),
    # only a beam_time_s mask shelves ions that could return
    (MINI_SCENARIO, {"deshelving": {"enabled": True}}, "$.deshelving.enabled"),
    (KAGOME_SCENARIO, {"deshelving": {"enabled": True}},
     "$.deshelving.enabled"),
    # a block that would change nothing is rejected, not ignored
    (DECAY_SCENARIO, {"deshelving": {"enabled": True, "reference_tau_s": 1e-4}},
     "$.deshelving"),
    (SCAN_SCENARIO, {"deshelving": {"enabled": False}}, "$.deshelving.enabled"),
    # the power-law fit has two parameters and needs a residual
    (SCAN_SCENARIO, {"scan.rabi_freqs_hz": [76e3, 152e3]},
     "$.scan.rabi_freqs_hz"),
    (MINI_SCENARIO, {"drive.direction": [0.0, 0.0, 0.0]}, "$.drive.direction"),
    # a zero drive calibrates nothing and returns no shelved ion
    (MINI_SCENARIO, {"drive.rabi_freq_hz": 0.0, "mask": {"beam_time_s": 0.02}},
     "$.drive.rabi_freq_hz"),
    (MINI_SCENARIO, {"drive.rabi_freq_hz": 0, "drive.calibration": DROP,
                     "drive.detuning_hz": 1.2e6, "mask": {"beam_time_s": 0.02},
                     "deshelving": {"enabled": True}},
     "$.drive.rabi_freq_hz"),
    # nonzero, but the squared norm underflows, is subnormal or overflows
    *[(MINI_SCENARIO, {"drive.direction": d}, "$.drive.direction")
      for d in ([1e-300, 0.0, 0.0], [1e-200, 1e-200, 0.0], [1e-160, 0.0, 0.0],
                [1e200, 0.0, 0.0], [10**160, 0, 0])],
]


class TestScenarioRules:
    @pytest.mark.parametrize(
        "base,changes,field", RULE_CASES,
        ids=[f"{base['kind']}-{'+'.join(changes)}-{field}"
             for base, changes, field in RULE_CASES])
    def test_broken_rule_exits_2_naming_its_field(self, tmp_path, base,
                                                  changes, field):
        path = write_scenario(tmp_path, mutated(base, changes))
        out = tmp_path / "out"
        code, err = run_captured(["all", "--scenario", path, "--out", out])
        assert code == 2
        assert f"{field}:" in err
        assert len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("kind,field", [
        ("ising", "times.stop_s"),
        ("ising", "measurement.spam_error"),
        ("ising", "drive.calibration.target_j_hz"),
        ("ising", "decoherence.tau_d_s"),
        ("shelving_decay", "shelving.tau_shelve_s"),
    ])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_number_rejected(self, tmp_path, kind, field, value):
        path = write_scenario(tmp_path, mutated(BASES[kind], {field: value}))
        out = tmp_path / "out"
        code, err = run_captured(["all", "--scenario", path, "--out", out])
        assert code == 2
        assert f"$.{field}: " in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_non_finite_direction_names_the_item(self, tmp_path):
        raw = mutated(MINI_SCENARIO, {"drive.direction": [1.0, math.nan, 0.0]})
        code, err = run_captured(["all", "--scenario",
                                  write_scenario(tmp_path, raw)])
        assert code == 2
        assert "$.drive.direction.1: must be finite" in err

    @pytest.mark.parametrize("kind,fit", [
        ("ising", "exponential"),
        ("ising", "power_law"),
        ("shelving_decay", "power_law"),
        ("shelving_decay", "pair_couplings"),
        ("deshelving_scan", "exponential"),
        ("deshelving_scan", "pair_couplings"),
    ])
    def test_fit_of_another_kind_rejected(self, tmp_path, kind, fit):
        path = write_scenario(tmp_path, dict(BASES[kind], fit=fit))
        code, err = run_captured(["all", "--scenario", path,
                                  "--out", tmp_path / "out"])
        assert code == 2
        assert "$.fit:" in err

    @pytest.mark.parametrize("kind,written", [
        ("shelving_decay", ["survival.csv"]),
        ("deshelving_scan", ["deshelve_curves.csv"]),
    ])
    def test_fit_none_writes_samples_only(self, tmp_path, kind, written):
        path = write_scenario(tmp_path, dict(BASES[kind], fit="none"))
        out = tmp_path / "out"
        assert run_cli("all", "--scenario", path, "--out", out) == 0
        assert data_files(out) == written

    def test_fit_none_keeps_the_sampled_curves(self, tmp_path):
        fitted, bare = tmp_path / "fitted", tmp_path / "bare"
        assert run_cli("all", "--scenario",
                       write_scenario(tmp_path, SCAN_SCENARIO),
                       "--out", fitted) == 0
        assert run_cli("all", "--scenario", write_scenario(
            tmp_path, dict(SCAN_SCENARIO, fit="none"), "bare.yaml"),
            "--out", bare) == 0
        assert ((fitted / "deshelve_curves.csv").read_bytes()
                == (bare / "deshelve_curves.csv").read_bytes())

    def test_two_rabi_frequencies_run_without_a_fit(self, tmp_path):
        raw = mutated(SCAN_SCENARIO, {"scan.rabi_freqs_hz": [76e3, 152e3],
                                      "fit": "none"})
        out = tmp_path / "out"
        assert run_cli("all", "--scenario", write_scenario(tmp_path, raw),
                       "--out", out) == 0
        assert data_files(out) == ["deshelve_curves.csv"]

    def test_one_repeated_rabi_frequency_fails_in_estimator(self, tmp_path):
        raw = mutated(SCAN_SCENARIO, {"scan.rabi_freqs_hz": [76.0e3] * 3})
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, err = run_captured(["all", "--scenario",
                                      write_scenario(tmp_path, raw),
                                      "--out", out])
        assert [str(w.message) for w in caught] == []
        assert code == 1
        assert err.startswith("error in stage 'estimator': ")
        assert len(err.splitlines()) == 1
        assert "RuntimeWarning" not in err
        assert not (out / "fits.json").exists()

    @pytest.mark.parametrize("below", ["", "sub"])
    def test_out_that_is_a_file(self, tmp_path, below):
        taken = tmp_path / "taken"
        taken.write_text("keep")
        code, err = run_captured(["all", "--scenario", "fig_op",
                                  "--out", taken / below])
        assert code == 2
        assert f"--out {taken / below}" in err
        assert "Traceback" not in err
        assert taken.read_text() == "keep"

    @pytest.mark.parametrize("scenario,name,stage", [
        (MINI_SCENARIO, "positions.csv", "solve-crystal"),
        (MINI_SCENARIO, "modes.csv", "modes"),
        (MINI_SCENARIO, "couplings.json", "couplings"),
        (MINI_SCENARIO, "mask.csv", "mask"),
        (MINI_SCENARIO, "manifest.json", "manifest"),
        (DECAY_SCENARIO, "manifest.json", "manifest"),
    ], ids=["positions", "modes", "couplings", "mask", "manifest",
            "decay-manifest"])
    def test_write_error_names_its_stage(self, tmp_path, scenario, name,
                                         stage):
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        code, err = run_captured(["all", "--scenario",
                                  write_scenario(tmp_path, scenario),
                                  "--out", out])
        assert code == 1
        assert err.startswith(f"error in stage '{stage}': ")
        assert len(err.splitlines()) == 1
        assert str(out / name) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("times", [
        {"list_s": [1e-4 * k for k in range(15, -1, -1)]},
        {"start_s": 1.5e-3, "stop_s": 1e-4, "num": 16},
        {"list_s": [1e-3] * 16},
        {"start_s": 1e-3, "stop_s": 1e-3, "num": 16},
        {"list_s": [1e-4 * k for k in [3, 0, 1, 2, *range(4, 16)]]},
    ], ids=["reversed", "start-above-stop", "repeated", "start-is-stop",
            "unsorted"])
    def test_pair_fit_needs_increasing_times(self, tmp_path, times):
        path = write_scenario(tmp_path, dict(MINI_SCENARIO, times=times))
        code, err = run_captured(["all", "--scenario", path,
                                  "--out", tmp_path / "out"])
        assert code == 1
        assert err == ("error in stage 'estimator': time points must be "
                       "strictly increasing\n")
        unfitted = write_scenario(tmp_path, dict(MINI_SCENARIO, times=times,
                                                 fit="none"), "none.yaml")
        assert run_captured(["all", "--scenario", unfitted,
                             "--out", tmp_path / "none"]) == (0, "")

    @pytest.mark.parametrize("changes", [
        {"times.stop_s": 1e300}, {"times.start_s": 1e300},
        # every point at one time: no decay constant to fit
        {"times": {"list_s": [1e-3] * 16}},
        {"times.start_s": 1e-3, "times.stop_s": 1e-3},
    ], ids=["times.stop_s", "times.start_s", "repeated", "start-is-stop"])
    def test_unfittable_time_grid_fails_in_estimator(self, tmp_path, changes):
        path = write_scenario(tmp_path, mutated(DECAY_SCENARIO, changes))
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, err = run_captured(["all", "--scenario", path, "--out", out])
        assert [str(w.message) for w in caught] == []
        assert code == 1
        assert "error in stage 'estimator'" in err
        assert len(err.splitlines()) == 1
        assert not (out / "fits.json").exists()


def per_cell_rows(columns):
    """Rows of Python scalars, one cell at a time, from Table columns."""
    parts = []
    for column in columns:
        if isinstance(column, cli.Coded):
            parts.append([[column.values[k]]
                          for k in np.asarray(column.codes).tolist()])
        else:
            array = np.asarray(column)
            parts.append(array.tolist() if array.ndim == 2
                         else [[v] for v in array.tolist()])
    return [sum(cells, []) for cells in zip(*parts)]


def reference_cell(value) -> str:
    """The CSV text of one Python scalar, by the README's cell rules."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


def reference_text(header, rows, fmt):
    """The per-cell writer the columnar one must match byte for byte: the
    README's cell rules for CSV, the standard library's encoder for JSON."""
    if fmt == "csv":
        lines = [",".join(header)]
        lines += [",".join(map(reference_cell, row)) for row in rows]
        return "\n".join(lines) + "\n"
    payload = [{key: None if isinstance(v, float) and not math.isfinite(v)
                else v for key, v in zip(header, row)} for row in rows]
    return json.dumps(payload, indent=2) + "\n"


SPECIAL_FLOATS = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324,
                  1e-05, 0.0001, 1e16, 9999999999999998.0, 0.1,
                  1 / 3, -2.5, 1.7976931348623157e308, 2.2250738585072014e-308]
INT64 = np.iinfo(np.int64)


def _group_with_empty_bin():
    counts = np.array([[0, 0, 0, 0], [3, 0, 0, 1], [0, 0, 0, 0]])
    return GroupSeries(config="QSQ", survivors=np.array([0, 2]),
                       times=np.array([0.0, 1e-4, 2e-4]),
                       counts=counts, n_total=np.array([2, 4, 0]),
                       n_intact=np.array([0, 4, 0]))


def _writer_cases():
    """(name, header, columns) of tables that stress each kind of cell."""
    rng = np.random.default_rng(5)
    floats = np.array(SPECIAL_FLOATS)
    block = np.stack([np.roll(floats, j) for j in range(5)], axis=1)
    ints = np.array([INT64.min, INT64.max, 0, -1, 1, 2**53 + 1, 0])
    group = _group_with_empty_bin()
    series_header, series = cli._series_rows(
        ObservableSeries(0, np.array([0.0, 0.5]), np.ones((2, 1))))
    tall = tables.CHUNK_CELLS + 5
    wide = np.zeros((3, tables.CHUNK_CELLS + 2))
    wide[0, 0], wide[1, -1], wide[2, 7] = -0.0, 0.3, 1e-300
    return [
        ("floats", ["x", *[f"b{j}" for j in range(5)]], [floats, block]),
        ("ints_and_bools", ["i", "b", "coded_b", "label"], [
            ints, np.array([True, False] * 3 + [True]),
            cli.Coded([False, True], np.array([0, 1, 1, 0, 0, 1, 0])),
            cli.Coded(["00", "01", "S"], np.array([2, 0, 1, 1, 0, 2, 2]))]),
        ("no_rows", ["t", "a", "b", "c"],
         [np.empty(0), np.empty((0, 2)), cli.Coded(["x"], np.empty(0, int))]),
        ("one_column", ["t"], [np.array([0.0, -0.0, 1.5])]),
        ("one_row", ["t", "a", "b", "label"], [
            np.array([0.25]), np.array([[1e-300, -0.0]]),
            cli.Coded(["Q"], np.array([0]))]),
        ("mixed_kinds", ["ion", "x", "state", "t", "flag", "y_é", "k%s"], [
            np.array([0, 1, 2]), np.array([-0.0, math.nan, 2.5]),
            cli.Coded(["Q", "S", 'a"b\\é'], np.array([0, 1, 2])),
            cli.Coded([0.5, math.inf, math.nan], np.array([1, 0, 2])),
            np.array([True, False, True]),
            np.array([1e-05, math.inf, -math.inf]), np.array([-3, 0, 7])]),
        ("zero_survivors", series_header, series.columns),
        ("nan_frequency_row", ["time_s", "n_total", "n_intact"]
         + [f"c{j}" for j in range(4)] + [f"f{j}" for j in range(4)],
         [group.times, group.n_total, group.n_intact, group.counts,
          group.frequencies()]),
        ("row_wider_than_a_chunk",
         ["t", *[f"p{j}" for j in range(wide.shape[1])]],
         [np.array([0.0, 1.0, 2.0]), wide]),
        ("many_chunks", ["shot", "t", "p"], [
            np.arange(tall), cli.Coded([0.0, 2.5e-5, -0.0],
                                       rng.integers(0, 3, tall)),
            np.where(rng.random(tall) < 0.5, 0.0, rng.random(tall))]),
    ]


WRITER_CASES = _writer_cases()


def count_forks(monkeypatch) -> list:
    """Patch os.fork to log each call; returns the log."""
    forks, fork = [], os.fork

    def logged():
        forks.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", logged)
    return forks


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def failing_in(monkeypatch, process: str):
    """Make Table.chunks raise an OSError in the test's own process
    ("parent") or in a forked writer worker ("worker"). When the parent
    fails, the workers sleep for a minute, so only a kill ends them soon."""
    parent, chunks = os.getpid(), tables.Table.chunks

    def failing(self, fmt, start=0, stop=None):
        if (os.getpid() == parent) == (process == "parent"):
            raise OSError("no space left on device")
        if process == "parent":
            time.sleep(60)
        return chunks(self, fmt, start, stop)

    monkeypatch.setattr(tables.Table, "chunks", failing)


class TestWriteTable:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("chunk_cells", [None, 5])
    @pytest.mark.parametrize("name,header,columns", WRITER_CASES,
                             ids=[case[0] for case in WRITER_CASES])
    def test_matches_per_cell_writer(self, tmp_path, monkeypatch, fmt,
                                     chunk_cells, name, header, columns):
        """The same bytes serially and with the rows split between 2 or 3
        forked workers; a table of under two rows is never split."""
        if chunk_cells is not None:
            monkeypatch.setattr(tables, "CHUNK_CELLS", chunk_cells)
        table = cli.Table(*columns)
        rows = per_cell_rows(columns)
        assert len(table) == len(rows)
        assert all(len(row) == len(header) for row in rows)
        expected = reference_text(header, rows, fmt).encode()
        forks = count_forks(monkeypatch)
        for cpus in (None, 2, 3):
            if cpus is not None:
                monkeypatch.setattr(tables, "SPLIT_VALUES", 0)
                monkeypatch.setattr(tables, "_usable_cpus", lambda: cpus)
            out_dir = tmp_path / str(cpus)
            out_dir.mkdir()
            forks.clear()
            written = cli.write_table(out_dir, name, header, table, fmt)
            assert written == f"{name}.{fmt}"
            assert (out_dir / written).read_bytes() == expected
            parts = 1 if cpus is None else max(1, min(cpus, len(rows)))
            assert len(forks) == parts - 1

    @pytest.mark.parametrize("failing", [None, "worker", "parent"])
    def test_no_worker_or_part_file_outlives_a_split_write(
            self, tmp_path, monkeypatch, failing):
        name, header, columns = WRITER_CASES[0]
        monkeypatch.setattr(tables, "SPLIT_VALUES", 0)
        monkeypatch.setattr(tables, "_usable_cpus", lambda: 3)
        forks = count_forks(monkeypatch)
        table = cli.Table(*columns)
        started = time.monotonic()
        if failing is None:
            cli.write_table(tmp_path, name, header, table, "csv")
        else:
            failing_in(monkeypatch, failing)
            # a worker's error is reported by its file; the parent's own
            # error is raised as it is, after the sleeping workers are killed
            raised = RuntimeError if failing == "worker" else OSError
            match = f"{name}.csv" if failing == "worker" else "no space"
            with pytest.raises(raised, match=match):
                cli.write_table(tmp_path, name, header, table, "csv")
        assert time.monotonic() - started < 30
        assert len(forks) == 2
        assert_no_child_left()
        assert os.listdir(tmp_path) == [f"{name}.csv"]

    def test_worker_failure_in_all_exits_1_naming_the_stage(
            self, tmp_path, monkeypatch):
        # MINI_SCENARIO's series table has 93 nonzero float cells and each
        # other table at most 70, so only the series is split
        monkeypatch.setattr(tables, "SPLIT_VALUES", 80)
        monkeypatch.setattr(tables, "_usable_cpus", lambda: 2)
        forks = count_forks(monkeypatch)
        failing_in(monkeypatch, "worker")
        out = tmp_path / "out"
        code, err = run_captured(["all", "--scenario",
                                  write_scenario(tmp_path, MINI_SCENARIO),
                                  "--out", out])
        assert code == 1
        assert err == ("error in stage 'dynamics': series.csv: a table "
                       "writer worker failed (exit status 1)\n")
        assert len(forks) == 1
        assert_no_child_left()
        assert "series.csv" in os.listdir(out)


WORKLOADS = Path(__file__).parent / "data" / "workloads"


@pytest.mark.parametrize("scenario,split", [
    *[(name, {}) for name in cli.BUNDLED_SCENARIOS],
    *[(f"trap_sweep/{path.stem}", {})
      for path in sorted((WORKLOADS / "trap_sweep").glob("*.yaml"))],
    ("lattice/decay-companion", {}),
    ("lattice/pair-companion", {}),
    ("lattice/lattice0-kagome-3x5", {}),
    ("lattice/lattice1-honeycomb-3x5", {}),
    ("lattice/lattice2-triangular-4x3", {"series": 123_123}),
    ("lattice/lattice3-honeycomb-7x3", {"series": 491_763}),
])
def test_only_the_wide_series_tables_are_split(tmp_path, monkeypatch,
                                               scenario, split):
    """At 2 usable CPUs, `all` forks one writer worker per table of at
    least SPLIT_VALUES nonzero float cells: only the 12- and 14-spin lattice
    series tables of the committed traffic."""
    monkeypatch.setattr(tables, "_usable_cpus", lambda: 2)
    forks = count_forks(monkeypatch)
    values = {}
    write_table = cli.write_table

    def logged(out_dir, stem, header, rows, fmt):
        values[stem] = rows.float_values()
        return write_table(out_dir, stem, header, rows, fmt)

    monkeypatch.setattr(cli, "write_table", logged)
    if scenario not in cli.BUNDLED_SCENARIOS:
        scenario = WORKLOADS / f"{scenario}.yaml"
    code, err = run_captured(["all", "--scenario", scenario,
                              "--out", tmp_path / "out"])
    assert (code, err) == (0, "")
    assert {stem: count for stem, count in values.items()
            if count >= tables.SPLIT_VALUES} == split
    assert len(forks) == len(split)
    assert_no_child_left()


# table columns that hold text; every other cell is a number or a boolean
TEXT_COLUMNS = {"state", "config", "outcomes"}


def read_csv_table(path):
    """A CSV table's rows read back as Python values, with nan and inf as
    None, the way a JSON table states them."""
    header, *lines = path.read_text().splitlines()

    def value(key, text):
        if key in TEXT_COLUMNS:
            return text
        if text in ("true", "false"):
            return text == "true"
        try:
            return int(text)
        except ValueError:
            number = float(text)
            return number if math.isfinite(number) else None

    return [{key: value(key, text)
             for key, text in zip(header.split(","), line.split(","))}
            for line in lines]


@pytest.mark.parametrize("name", cli.BUNDLED_SCENARIOS)
def test_json_tables_hold_the_csv_tables(tmp_path, name):
    for fmt in ("csv", "json"):
        assert run_cli("all", "--scenario", name, "--format", fmt,
                       "--out", tmp_path / fmt) == 0
    csv_dir, json_dir = tmp_path / "csv", tmp_path / "json"
    # couplings.json is the same payload in both formats, not a table
    payloads = {p.stem for p in csv_dir.glob("*.json")} - {"manifest"}
    tables = {p.stem for p in csv_dir.glob("*.csv")} - payloads
    assert data_files(json_dir) == sorted(f"{stem}.json"
                                          for stem in payloads | tables)
    for stem in tables:
        rows = read_csv_table(csv_dir / f"{stem}.csv")
        assert ((json_dir / f"{stem}.json").read_bytes()
                == (json.dumps(rows, indent=2) + "\n").encode()), stem


# integer fields that set how much a run allocates; the fuzz never touches them
SIZE_FIELDS = {"shots", "num", "n_ions", "rows", "cols", "points_per_curve"}
EXTREMES = [1e300, 1e-300, -1.0, 0.0, math.inf, math.nan]


def _entries(node, path=()):
    """(path, value) of every mapping entry and list item below node."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield path + (key,), value
        yield from _entries(value, path + (key,))


@st.composite
def fuzzed_scenarios(draw):
    raw = copy.deepcopy(draw(st.sampled_from(
        [MINI_SCENARIO, KAGOME_SCENARIO, DECAY_SCENARIO])))
    for _ in range(draw(st.integers(1, 2))):
        entries = list(_entries(raw))
        keys = [p for p, _ in entries
                if isinstance(p[-1], str) and p[-1] not in SIZE_FIELDS]
        floats = [p for p, value in entries if isinstance(value, float)]
        action = draw(st.sampled_from(["float", "mask", "drop"]))
        if action == "mask":
            n = raw.get("n_ions", 2)
            raw["mask"] = draw(st.sampled_from([
                {"explicit": "Q" * n}, {"beam_time_s": 0.01},
                {"pattern": {"name": "triangular", "rows": 1, "cols": n}}]))
            continue
        *parents, key = draw(st.sampled_from(keys if action == "drop"
                                             else floats))
        node = raw
        for name in parents:
            node = node[name]
        if action == "drop":
            del node[key]
        else:
            node[key] = draw(st.sampled_from(EXTREMES))
    return raw


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(raw=fuzzed_scenarios())
def test_fuzzed_scenarios_fail_cleanly(raw):
    with tempfile.TemporaryDirectory() as tmp:
        path = write_scenario(Path(tmp), raw)
        code, err = run_captured(["all", "--scenario", path,
                                  "--out", Path(tmp) / "out"])
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        assert "$." in err
    if code == 1:
        assert "stage '" in err
