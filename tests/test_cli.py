"""Command-line behavior: flags, config files, exit codes, determinism."""

import importlib.resources
import inspect
import json
import math
import subprocess
import sys

import jsonschema
import pytest
import scipy.fft

from levelsim import pipelines
from levelsim import tolerances as tol
from levelsim.bbm import estimators
from levelsim.gff import levels
from levelsim.cli import main
from levelsim.cli import PIPELINES
from levelsim.reports import Report


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def last_stderr_json(err):
    """The last stderr line, parsed as strict JSON: no NaN or Infinity."""

    def reject(token):
        raise ValueError(f"non-JSON constant {token} in the diagnostic")

    lines = [l for l in err.strip().splitlines() if l]
    return json.loads(lines[-1], parse_constant=reject)


REFUSAL_KEYS = {"error", "stage", "quantity", "predicted", "limit"}


def refusal(err, stage, mid_run=False):
    """The diagnostic of refused work: the shared keys, plus reached for a
    guard that tripped mid-run."""
    diag = last_stderr_json(err)
    assert diag.keys() == REFUSAL_KEYS | ({"reached"} if mid_run else set())
    assert diag["stage"] == stage
    return diag


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

    @pytest.mark.parametrize("x", ["3", "1.5"])
    def test_rates_boundary_query_exits_2(self, x, capsys):
        # above sqrt(2) the lower end of a is 0, where the maximizer degenerates
        code, out, err = run_cli(["rates", "--a", "0", "--x", x], capsys)
        assert code == 2
        assert out == ""
        assert "domain boundary" in last_stderr_json(err)["error"]

    @pytest.mark.parametrize(
        "query", [["--a", "0.999999", "--x", "1"], ["--eta", "0.8", "--a", "0.99999"]]
    )
    def test_rates_query_too_close_to_a_one_exits_2(self, query, capsys, monkeypatch):
        # there the grid certificate's gap passes RATE_VALUE_TOL (2.0e-5 at
        # a = 0.999999, x = 1), so the query is refused instead of failing
        def never(*args, **kwargs):
            raise AssertionError("an unresolvable query reached the pipeline")

        monkeypatch.setattr(pipelines, "run_rate_point", never)
        code, out, err = run_cli(["rates", *query], capsys)
        assert code == 2
        assert out == ""
        assert last_stderr_json(err)["field"] == "a"
        assert f"{1 - tol.RATE_MIN_ONE_MINUS_A:g}]" in err

    @pytest.mark.parametrize("query", [["--x", "1"], ["--eta", "0.8"], ["--x", "3"]])
    def test_rates_query_at_the_floor_is_certified(self, query, capsys):
        code, _, _ = run_cli(["rates", "--a", "0.9999", *query], capsys)
        assert code == 0

    @pytest.mark.parametrize("query", [["0.999", "30"], ["0.9999", "100"], ["0.5", "100"]])
    def test_rates_query_at_a_large_speed_is_certified(self, query, capsys):
        # the supremum is about -x^2/(2(1-a)); the grid over the square root
        # of the maximizer's distance to its edge still resolves it
        a, x = query
        code, _, _ = run_cli(["rates", "--a", a, "--x", x], capsys)
        assert code == 0

    def test_rates_speed_above_the_cap_exits_2(self, capsys):
        code, out, err = run_cli(["rates", "--a", "0.5", "--x", "101"], capsys)
        assert code == 2
        assert out == ""
        assert last_stderr_json(err)["field"] == "x"
        assert f"(0, {tol.RATE_MAX_X:g}]" in err

    @pytest.mark.parametrize("sub", ["gff-cov", "decompose-var"])
    def test_one_sample_exits_2_before_sampling(self, sub, capsys, monkeypatch):
        # one sample has no spread: z-scores would read 0 and variances NaN
        def never(*args, **kwargs):
            raise AssertionError("sampling started with a single sample")

        monkeypatch.setattr(pipelines, "sample_fields", never)
        monkeypatch.setattr(pipelines, "sample_box", never)
        monkeypatch.setattr(pipelines.mc, "map_blocks", never)
        code, out, err = run_cli([sub, "--seed", "1", "--replicas", "1"], capsys)
        assert code == 2
        assert out == ""
        assert "at least 2" in last_stderr_json(err)["error"]

    @pytest.mark.parametrize("sub", ["cover-check", "decompose-var"])
    def test_huge_partition_grid_exits_2(self, sub, calls, capsys):
        takes_seed = any(param.key == "seed" for param in PIPELINES[sub].params)
        argv = [sub, "--grid-n", "1000000"] + (["--seed", "1"] if takes_seed else [])
        code, _, err = run_cli(argv, capsys)
        assert code == 2
        diag = last_stderr_json(err)
        assert diag["field"] == "grid_n"
        assert f"{tol.PARTITION_GRID_N_MAX}]" in diag["error"]
        assert calls == []

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

    def test_tiny_horizon_is_refused(self, capsys, monkeypatch):
        # at t = 1e-5 both KPP grids agree on a wrong exact anchor (0.347 for
        # a small-t limit of 0.473), so bbm-exponents refuses t below
        # KPP_MIN_T instead of checking its Monte Carlo mean against it
        def never(*args, **kwargs):
            raise AssertionError("an unresolved horizon reached the pipeline")

        monkeypatch.setattr(pipelines, "run_bbm_exponents", never)
        for value in ("1e-5", "0.99"):
            code, out, err = run_cli(
                ["bbm-exponents", "--seed", "1", "--t", value, "--replicas", "3"], capsys
            )
            assert code == 2
            assert out == ""
            assert last_stderr_json(err)["field"] == "t"
            assert f"[{tol.KPP_MIN_T:g}, inf)" in err


RUN_FUNCTIONS = [name for name in dir(pipelines) if name.startswith("run_")]


@pytest.fixture
def calls(monkeypatch):
    """Replace every pipelines.run_* with a recorder of the arguments it got."""
    record = []

    def recorder(name, real):
        def run(*args, **kwargs):
            bound = inspect.signature(real).bind(*args, **kwargs)
            record.append((name, dict(bound.arguments)))
            return Report(subcommand="stub", inputs={}, estimates=(), checks=())

        return run

    for name in RUN_FUNCTIONS:
        monkeypatch.setattr(pipelines, name, recorder(name, getattr(pipelines, name)))
    return record


class TestRegistryBounds:
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "sub,key",
        [
            (pipeline.name, param.key)
            for pipeline in PIPELINES.values()
            for param in pipeline.params
            if param.type is float
        ],
    )
    def test_non_finite_float_exits_2_naming_field(
        self, sub, key, value, calls, capsys
    ):
        takes_seed = any(param.key == "seed" for param in PIPELINES[sub].params)
        argv = [sub, f"--{key.replace('_', '-')}={value}"]
        code, _, err = run_cli(argv + (["--seed", "1"] if takes_seed else []), capsys)
        assert code == 2
        assert last_stderr_json(err)["field"] == key
        assert calls == []

    @pytest.mark.parametrize(
        "flags", [["--delta", "0.3"], ["--delta", "0.6", "--delta-prime", "0.5"]]
    )
    def test_bbm_path_diagnostic_input_checked_before_sampling(
        self, flags, capsys, monkeypatch
    ):
        def never(*args, **kwargs):
            raise AssertionError("sampling started on a bad diagnostic input")

        monkeypatch.setattr(pipelines, "replica_counts", never)
        monkeypatch.setattr(pipelines, "sample_positions", never)
        code, _, _ = run_cli(["bbm-exponents", "--seed", "1", *flags], capsys)
        assert code == 2


# argv with every flag of a subcommand set, the run function it reaches and
# the keyword arguments that function must receive
WIRING = [
    (
        ["rates", "--seed", "5", "--replicas", "3"],
        "run_rates",
        {"seed": 5, "queries": 3},
    ),
    (
        ["rates", "--a", "0.8", "--x", "1.5", "--eta", "0.6"],
        "run_rate_point",
        {"a": 0.8, "x": 1.5, "eta": 0.6},
    ),
    (
        ["gw-verify", "--seed", "5", "--replicas", "3"],
        "run_gw_verify",
        {"seed": 5, "replicas": 3},
    ),
    (
        [
            "bbm-exponents", "--seed", "5", "--replicas", "3", "--t", "4", "--x",
            "0.5", "--delta", "0.75", "--delta-prime", "0.2",
        ],
        "run_bbm_exponents",
        {
            "seed": 5,
            "biggins_replicas": 3,
            "biggins_t": 4.0,
            "biggins_x": 0.5,
            "path_delta": 0.75,
            "path_delta_prime": 0.2,
        },
    ),
    (
        ["nbbm", "--seed", "5", "--replicas", "3", "--t", "4"],
        "run_nbbm",
        {"seed": 5, "replicas": 3, "t": 4.0},
    ),
    (
        ["gff-cov", "--seed", "5", "--replicas", "3", "--grid-n", "16"],
        "run_gff_cov",
        {"seed": 5, "samples": 3, "grid_n": 16},
    ),
    (
        ["daviaud", "--seed", "5", "--replicas", "3", "--eta", "0.4"],
        "run_daviaud",
        {"seed": 5, "replicas": 3, "eta": 0.4},
    ),
    (
        [
            "coarse-tail", "--seed", "5", "--replicas", "3", "--zeta", "0.5", "--b",
            "0.9", "--grid-n", "32",
        ],
        "run_coarse_tail",
        {"seed": 5, "replicas": 3, "zeta": 0.5, "b": 0.9, "sizes": (32,)},
    ),
    (
        ["cover-check", "--grid-n", "32", "--delta", "0.8"],
        "run_cover_check",
        {"grid_n": 32, "delta": 0.8},
    ),
    (
        [
            "decompose-var", "--seed", "5", "--replicas", "3", "--grid-n", "64",
            "--delta", "0.8",
        ],
        "run_decompose_var",
        {"seed": 5, "samples": 3, "grid_n": 64, "delta": 0.8},
    ),
]


class TestDispatch:
    @pytest.mark.parametrize("sub", list(PIPELINES))
    def test_defaults_live_in_the_run_functions(self, sub, calls, capsys):
        seeded = sub != "cover-check"
        code, _, _ = run_cli([sub] + (["--seed", "1"] if seeded else []), capsys)
        assert code == 0
        expected = {"seed": 1} if seeded else {}
        assert calls == [("run_" + sub.replace("-", "_"), expected)]

    @pytest.mark.parametrize("argv,name,kwargs", WIRING, ids=[w[1] for w in WIRING])
    def test_each_flag_reaches_its_keyword(self, argv, name, kwargs, calls, capsys):
        code, _, _ = run_cli(argv, capsys)
        assert code == 0
        assert calls == [(name, kwargs)]

    def test_wiring_table_sets_every_registry_flag(self):
        flags = {
            (argv[0], arg[2:].replace("-", "_"))
            for argv, _, _ in WIRING
            for arg in argv
            if arg.startswith("--")
        }
        declared = {(p.name, q.key) for p in PIPELINES.values() for q in p.params}
        assert declared <= flags


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
    def test_refused_probe_exits_3(self, capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("field blocks ran before the probe's refusal")

        monkeypatch.setattr(pipelines.mc, "map_blocks", never)
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
        diag = refusal(err, "gff.coarse_exceedance_probe")
        assert diag["quantity"] == "exceedance probability"
        assert diag["limit"] == 10 / 100
        assert diag["predicted"] == pytest.approx(64.0**-6)
        assert "increase replicas" in diag["error"]

    def test_oversized_field_request_exits_3(self, capsys, monkeypatch):
        # about 900 GiB for one field: refused before anything is allocated
        def never(*args, **kwargs):
            raise AssertionError("field blocks ran before the budget check")

        monkeypatch.setattr(pipelines.mc, "map_blocks", never)
        code, out, err = run_cli(
            ["coarse-tail", "--seed", "1", "--grid-n", "200000", "--replicas", "1000"],
            capsys,
        )
        assert code == 3
        assert out == ""
        diag = refusal(err, "gff.GreenOperator.diagonal")
        assert (diag["quantity"], diag["limit"]) == ("bytes", tol.FIELD_BYTES_MAX)
        assert "field budget" in diag["error"]

    @pytest.mark.parametrize("zeta", ["0.0", "0.5"])
    @pytest.mark.parametrize("exponent", [200, 400])
    def test_huge_grid_side_exits_3(self, exponent, zeta, capsys, monkeypatch):
        # at b = 0.1, e < 0 and the predicted probability is 1 without forming
        # N**(-e), which overflows; the field budget refuses before any tile
        # or draw
        def never(*args, **kwargs):
            raise AssertionError("the probe ran past the field budget")

        monkeypatch.setattr(levels, "flat_partition", never)
        monkeypatch.setattr(levels, "harmonic_at", never)
        argv = ["coarse-tail", "--seed", "1", "--grid-n", str(10**exponent), "--b", "0.1",
                "--zeta", zeta, "--replicas", "10"]
        code, out, err = run_cli(argv, capsys)
        assert code == 3
        assert out == ""
        stage = "gff.GreenOperator.diagonal" if zeta == "0.0" else "gff.sample_fields"
        diag = refusal(err, stage)
        assert diag["predicted"] > 10 ** (2 * exponent)
        assert "field budget" in diag["error"]

    @pytest.mark.parametrize(
        "zeta, stage, predicted",
        [("0.0", "gff.GreenOperator.diagonal", "4.000000e+4401"),
         ("0.5", "gff.sample_fields", "2.400000e+4401")],
    )
    def test_byte_count_past_the_int_digit_limit_prints(self, zeta, stage, predicted, capsys):
        # the byte count of N = 10**2200 has over 4300 digits, which str()
        # refuses; the diagnostic prints it in exponent form
        argv = ["coarse-tail", "--seed", "1", "--grid-n", str(10**2200), "--b", "0.1",
                "--zeta", zeta, "--replicas", "10"]
        code, out, err = run_cli(argv, capsys)
        assert code == 3
        assert out == ""
        assert f'"predicted": {predicted},' in err
        diag = refusal(err, stage)
        assert diag["predicted"] == math.inf
        assert "field budget" in diag["error"]

    def test_oversized_decomposition_block_exits_3_before_sampling(self, capsys, monkeypatch):
        # above the sine-matrix cut the root window is sliced from whole fields,
        # so a block of 50 at N=1024 is refused as 50 whole fields would be
        finished = []
        map_blocks = pipelines.mc.map_blocks

        def counted_map(plan, block, task, **kwargs):
            def counted(rng, size):
                values = task(rng, size)
                finished.append(size)
                return values

            return map_blocks(plan, block, counted, **kwargs)

        def never(*args, **kwargs):
            raise AssertionError("a field was transformed before the budget check")

        monkeypatch.setattr(pipelines.mc, "map_blocks", counted_map)
        monkeypatch.setattr(scipy.fft, "dstn", never)
        code, out, err = run_cli(["decompose-var", "--grid-n", "1024", "--seed", "1"], capsys)
        assert code == 3
        assert out == ""
        error = refusal(err, "gff.sample_fields")["error"]
        assert "sampling 50 spectral field(s) at N=1024 needs about 1.17 GiB" in error
        assert "field budget" in error
        assert finished == []

    def test_oversized_dense_oracle_exits_3_before_sampling(self, capsys, monkeypatch):
        # the dense route's centre draw holds all samples' noise at once: 40000
        # samples at N=64 need about 1.15 GiB, above the 1 GiB field budget
        def never(*args, **kwargs):
            raise AssertionError("spectral blocks ran before the budget check")

        monkeypatch.setattr(pipelines.mc, "map_blocks", never)
        argv = ["gff-cov", "--seed", "1", "--grid-n", "64", "--replicas", "40000"]
        code, out, err = run_cli(argv, capsys)
        assert code == 3
        assert out == ""
        assert "field budget" in refusal(err, "gff.sample_sites")["error"]

    @pytest.mark.parametrize("sub", ["bbm-exponents", "nbbm"])
    def test_doomed_horizon_exits_3_before_sampling(self, sub, capsys, monkeypatch):
        # at t=20 a replica exceeds the 10^7 particle guard with probability 0.98
        def never(*args, **kwargs):
            raise AssertionError("sampling started at a horizon that must trip the guard")

        monkeypatch.setattr(pipelines, "replica_counts", never)
        monkeypatch.setattr(estimators, "count_at_or_above", never)
        monkeypatch.setattr(estimators, "simulate_nbbm", never)
        code, out, err = run_cli([sub, "--seed", "1", "--t", "20"], capsys)
        assert code == 3
        assert out == ""
        diag = refusal(err, "bbm.refuse_doomed_horizon")
        assert diag["limit"] == 1.0
        assert "refused before sampling" in diag["error"]

    def test_population_guard_tripped_mid_run_exits_3(self, capsys, monkeypatch):
        # a 100-particle guard passes the horizon check at t=4 with 5 replicas,
        # which expect 0.79 runs over it, and then trips inside a run
        monkeypatch.setattr(tol, "BBM_PARTICLE_CAP", 100)
        argv = ["nbbm", "--seed", "3", "--t", "4", "--replicas", "5"]
        code, out, err = run_cli(argv, capsys)
        assert code == 3
        assert out == ""
        diag = refusal(err, "bbm.simulate_bbm", mid_run=True)
        assert (diag["quantity"], diag["predicted"], diag["limit"]) == ("particles", 101, 100)
        assert 0.0 < diag["reached"] < 4.0
        assert "a population of 101 would exceed the cap of 100" in diag["error"]

    def test_oversized_event_budget_exits_3_at_once(self, capsys, monkeypatch):
        # t=14 passes the particle guard but expects ~1.2e9 branch events per cap
        def never(*args, **kwargs):
            raise AssertionError("sampling started above the event budget")

        monkeypatch.setattr(estimators, "simulate_nbbm", never)
        code, out, err = run_cli(["nbbm", "--seed", "1", "--t", "14"], capsys)
        assert code == 3
        assert out == ""
        diag = refusal(err, "bbm.check_nbbm_dominance")
        assert diag["quantity"] == "branch events"
        assert diag["predicted"] == pytest.approx(1000 * math.expm1(14))
        assert diag["limit"] == tol.NBBM_EVENTS_MAX
        assert "refused before sampling" in diag["error"]


class TestSampleCounts:
    @pytest.mark.parametrize(
        "argv, count, field",
        [
            # 150 fields: one block of 100 and a short one of 50
            (["gff-cov", "--grid-n", "16"], 150, "samples"),
            # 130 fields: two blocks of 50 and a short one of 30
            (["decompose-var", "--grid-n", "64"], 130, "fields"),
        ],
        ids=["gff-cov", "decompose-var"],
    )
    def test_reported_sample_count_is_the_requested_one(self, argv, count, field, capsys):
        code, out, _ = run_cli([*argv, "--seed", "5", "--replicas", str(count)], capsys)
        assert code in (0, 1)
        doc = json.loads(out)
        assert doc["inputs"]["samples"] == count
        assert any(e.get(field) == count for e in doc["estimates"])


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
                "coarse-tail", "--seed", "4", "--zeta", "0.5", "--b", "0.6",
                "--grid-n", "64", "--replicas", "200",
            ],
        ],
    )
    def test_non_finite_values_render_as_null(self, argv, capsys, monkeypatch):
        if argv[0] == "coarse-tail":
            # every coarse value reads the zero frame, so no replica hits
            monkeypatch.setattr(levels, "harmonic_at", lambda fields, box, site: fields[:, 0, 0])
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
