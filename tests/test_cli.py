import json
from pathlib import Path

import numpy as np
import pytest
import yaml

from ionrewire import cli
from ionrewire.dynamics import SIZE_CAP


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

    def test_malformed_yaml_rejected(self, tmp_path, capsys):
        path = tmp_path / "broken.yaml"
        path.write_text("name: [unclosed\n")
        assert run_cli("all", "--scenario", path, "--out", tmp_path / "o") == 2
        assert "parse error" in capsys.readouterr().err

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

    def test_small_kagome_cell_runs_dynamics(self, tmp_path):
        payload = self.make_pattern_scenario("kagome", 2, 2)
        path = write_scenario(tmp_path, payload)
        out = tmp_path / "out"
        assert run_cli("all", "--scenario", path, "--out", out) == 0
        report = json.loads((out / "geometry.json").read_text())
        assert report["mask"].count("S") == 1
        assert (out / "series.csv").exists()

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
