"""Command-line behavior: flags, config files, exit codes, determinism."""

import importlib.resources
import json
import subprocess
import sys

import jsonschema
import pytest

from levelsim import pipelines
from levelsim.cli import main


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def last_stderr_json(err):
    lines = [l for l in err.strip().splitlines() if l]
    return json.loads(lines[-1])


class TestParsing:
    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["no-such-verb"])
        assert info.value.code == 2

    def test_missing_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2

    def test_flag_not_accepted_by_subcommand(self, capsys):
        # cover-check is deterministic and takes no --seed
        with pytest.raises(SystemExit) as info:
            main(["cover-check", "--seed", "1"])
        assert info.value.code == 2


class TestValidation:
    def test_randomized_subcommand_requires_seed(self, capsys):
        code, out, err = run_cli(["gw-verify"], capsys)
        assert code == 2
        diag = last_stderr_json(err)
        assert diag["field"] == "seed"
        assert "--seed" in diag["error"]

    def test_rates_sweep_requires_seed_but_point_mode_does_not(self, capsys):
        code, _, err = run_cli(["rates"], capsys)
        assert code == 2
        assert last_stderr_json(err)["field"] == "seed"
        code, out, _ = run_cli(["rates", "--x", "1.0"], capsys)
        assert code == 0

    def test_gff_cov_grid_range(self, capsys):
        code, _, err = run_cli(
            ["gff-cov", "--seed", "1", "--grid-n", "128"], capsys
        )
        assert code == 2
        diag = last_stderr_json(err)
        assert diag["field"] == "grid_n"
        assert "[8, 64]" in diag["error"]

    def test_decompose_var_delta_window(self, capsys):
        code, _, err = run_cli(
            ["decompose-var", "--seed", "1", "--delta", "0.97"], capsys
        )
        assert code == 2
        assert last_stderr_json(err)["field"] == "delta"

    def test_delta_prime_requires_delta(self, capsys):
        code, _, err = run_cli(
            ["bbm-exponents", "--seed", "1", "--delta-prime", "0.2"], capsys
        )
        assert code == 2
        assert last_stderr_json(err)["field"] == "delta_prime"

    def test_nonpositive_t(self, capsys):
        code, _, err = run_cli(["nbbm", "--seed", "1", "--t", "-2"], capsys)
        assert code == 2
        assert last_stderr_json(err)["field"] == "t"

    def test_bbm_exponents_rejects_x_and_t_before_sampling(self, capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("bad input reached the pipeline")

        monkeypatch.setattr(pipelines, "run_bbm_exponents", never)
        for flag, value, field in (
            ("--x", "2", "x"),
            ("--x", "0", "x"),
            ("--t", "inf", "t"),
        ):
            code, _, err = run_cli(["bbm-exponents", "--seed", "1", flag, value], capsys)
            assert code == 2
            assert last_stderr_json(err)["field"] == field


class TestPointMode:
    def test_anchor_report_on_stdout(self, capsys):
        code, out, err = run_cli(["rates", "--a", "0.75", "--x", "1.0"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        rows = {e["name"]: e for e in doc["estimates"]}
        assert rows["particle_rate"]["value"] == pytest.approx(1.0)
        status = last_stderr_json(err)
        assert status["passed"] is True
        assert "wall_clock_seconds" in status
        assert "wall_clock" not in out  # timing never enters the report body

    def test_out_flag_writes_file_and_silences_stdout(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        code, out, _ = run_cli(
            ["rates", "--a", "0.8", "--eta", "0.6", "--out", str(path)], capsys
        )
        assert code == 0
        assert out == ""
        doc = json.loads(path.read_text())
        assert doc["subcommand"] == "rates"

    def test_unwritable_out_path(self, tmp_path, capsys):
        code, _, err = run_cli(
            [
                "rates",
                "--x",
                "1.0",
                "--out",
                str(tmp_path / "missing" / "r.json"),
            ],
            capsys,
        )
        assert code == 3
        assert last_stderr_json(err)["field"] == "out"


class TestConfigFiles:
    def test_flags_win_over_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=7\nreplicas=9\n")
        code, out, _ = run_cli(
            ["rates", "--config", str(cfg), "--replicas", "2"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["inputs"] == {"seed": 7, "queries": 2}

    def test_hyphen_keys_and_comments(self, tmp_path, capsys):
        cfg = tmp_path / "cover.cfg"
        cfg.write_text("# geometry case\ngrid-n = 64\ndelta = 0.8\n")
        code, out, _ = run_cli(["cover-check", "--config", str(cfg)], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["inputs"]["delta"] == 0.8
        assert doc["inputs"]["cases"] == [[64, 1], [64, 2]]

    def test_format_from_config(self, tmp_path, capsys):
        cfg = tmp_path / "fmt.cfg"
        cfg.write_text("format=csv\n")
        code, out, _ = run_cli(
            ["rates", "--config", str(cfg), "--a", "0.75", "--x", "1.0"], capsys
        )
        assert code == 0
        assert out.splitlines()[0].startswith("section,name,value")

    def test_unknown_key_for_subcommand(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("zeta=0.5\n")
        code, _, err = run_cli(["rates", "--config", str(cfg)], capsys)
        assert code == 2
        diag = last_stderr_json(err)
        assert diag["field"] == "zeta"
        assert "unknown config key" in diag["error"]

    def test_empty_value(self, tmp_path, capsys):
        cfg = tmp_path / "empty.cfg"
        cfg.write_text("eta=\n")
        code, _, err = run_cli(["daviaud", "--config", str(cfg)], capsys)
        assert code == 2
        diag = last_stderr_json(err)
        assert diag["field"] == "eta"
        assert "missing value" in diag["error"]

    def test_malformed_line(self, tmp_path, capsys):
        cfg = tmp_path / "noeq.cfg"
        cfg.write_text("seed 7\n")
        code, _, err = run_cli(["gw-verify", "--config", str(cfg)], capsys)
        assert code == 2
        assert "key=value" in last_stderr_json(err)["error"]

    def test_missing_config_file(self, capsys):
        code, _, err = run_cli(
            ["gw-verify", "--config", "/nonexistent/x.cfg"], capsys
        )
        assert code == 2
        assert last_stderr_json(err)["field"] == "config"

    def test_bad_int_in_config(self, tmp_path, capsys):
        cfg = tmp_path / "type.cfg"
        cfg.write_text("seed=banana\n")
        code, _, err = run_cli(["gw-verify", "--config", str(cfg)], capsys)
        assert code == 2
        diag = last_stderr_json(err)
        assert diag["field"] == "seed"
        assert "integer" in diag["error"]


class TestRuntimeFailures:
    def test_refused_probe_exits_3(self, capsys):
        code, out, err = run_cli(
            [
                "coarse-tail",
                "--seed",
                "1",
                "--b",
                "2.0",
                "--zeta",
                "0.0",
                "--grid-n",
                "64",
                "--replicas",
                "100",
            ],
            capsys,
        )
        assert code == 3
        assert out == ""
        diag = last_stderr_json(err)
        assert diag["replicas"] == 100
        assert diag["predicted_probability"] < 1e-6
        assert "increase replicas" in diag["error"]


class TestFailingChecks:
    def test_failed_check_exits_1_with_report(self, capsys):
        # b far below the exceedance regime: measured exponent ~0 can never
        # reach the negative prediction, so the check fails by construction
        code, out, err = run_cli(
            [
                "coarse-tail",
                "--seed",
                "3",
                "--b",
                "0.4",
                "--zeta",
                "0.0",
                "--grid-n",
                "16",
                "--replicas",
                "200",
            ],
            capsys,
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["passed"] is False
        assert last_stderr_json(err)["passed"] is False


class TestStrictJson:
    @pytest.mark.parametrize(
        "argv",
        [
            # one replica per size leaves every exponent stderr undefined (NaN)
            ["daviaud", "--seed", "1", "--replicas", "1"],
            # zero hits at a single size make the measured exponent infinite
            [
                "coarse-tail", "--seed", "3", "--zeta", "0.5", "--b", "0.6",
                "--grid-n", "64", "--replicas", "200",
            ],
        ],
    )
    def test_non_finite_values_render_as_null(self, argv, capsys):
        code, out, _ = run_cli(argv, capsys)
        assert code == 1

        def reject(token):
            raise ValueError(f"non-JSON constant {token} in report")

        doc = json.loads(out, parse_constant=reject)
        schema = json.loads(
            importlib.resources.files("levelsim").joinpath("report_schema.json").read_text()
        )
        jsonschema.validate(doc, schema)
        nulls = [e for e in doc["estimates"] if e.get("stderr", 0) is None]
        nulls += [c for c in doc["checks"] if c["kind"] != "flag" and c["value"] is None]
        assert nulls


class TestDeterminism:
    def test_repeat_runs_are_byte_identical(self, tmp_path, capsys):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            code, _, _ = run_cli(
                ["rates", "--seed", "7", "--replicas", "3", "--out", str(path)],
                capsys,
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "levelsim", "rates", "--a", "0.75", "--x", "1.0"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["passed"] is True
