import contextlib
import copy
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import condu.cli
from condu.cli import main
from condu.config import parse_config
from condu.errors import SchemaError
from condu.estimator import estimate
from test_harness import BASE_DOC

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def cfg_path(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(BASE_DOC))
    return str(path)


def read_rows(path):
    return path.read_text().splitlines()


class TestVerify:
    def test_filtered_checks_exit_zero(self, capsys):
        assert main(["verify", "--filter", "normalizer"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out and all(r["passed"] for r in out)

    def test_out_file_written(self, tmp_path):
        out = tmp_path / "checks.json"
        assert main(["verify", "--filter", "dyadic", "--out", str(out)]) == 0
        assert json.loads(out.read_text())


def assert_simulate_schema_error(doc, tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(doc))
    rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "s.csv")])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "SchemaError"
    assert not (tmp_path / "s.csv").exists()


class TestConfigErrors:
    def test_missing_section_names_the_field(self, tmp_path, capsys):
        doc = copy.deepcopy(BASE_DOC)
        del doc["regime"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        rc = main(["simulate", "--config", str(path), "--out", str(tmp_path / "s.csv")])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "SchemaError"
        assert "regime" in err["message"]

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("experiment", "reps", 0),
            ("grids", "points_per_axis", 0),
            ("grids", "quad_order", 0),
            ("experiment", "n_list", [128, 128]),
        ],
    )
    def test_out_of_range_field_exits_one(self, tmp_path, capsys, section, key, value):
        doc = copy.deepcopy(BASE_DOC)
        doc[section][key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        rc = main(["rates", "--config", str(path), "--out", str(tmp_path / "out")])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "SchemaError"
        assert key in err["message"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "path, value",
        [
            (("regime", "b0"), 1.5),
            (("function_class", "regime", "p"), 1.5),
            (("experiment", "reps"), "abc"),
            (("function_class", "members"), []),
            (("function_class", "members"), ["const:abc"]),
            (("experiment", "n_list"), []),
            (("experiment", "epsilon"), 0.0),
            (("function_class", "regime", "mu_p"), "abc"),
        ],
        ids=["b0", "p", "reps", "members", "member_param", "n_list", "epsilon", "mu_p"],
    )
    def test_invalid_value_is_a_schema_error(self, tmp_path, capsys, path, value):
        doc = copy.deepcopy(BASE_DOC)
        section = doc
        for key in path[:-1]:
            section = section[key]
        section[path[-1]] = value
        assert_simulate_schema_error(doc, tmp_path, capsys)

    @pytest.mark.parametrize(
        "path, value",
        [
            (("regime", "c"), math.nan),
            (("dgp", "noise_param"), math.nan),
            (("function_class", "regime", "M"), math.nan),
            (("function_class", "regime", "M"), -1.0),
            (("function_class", "regime", "M"), math.inf),
            (("experiment", "epsilon"), math.inf),
            (("function_class", "regime"), {"kind": "unbounded", "p": math.nan}),
        ],
        ids=["c-nan", "noise_param-nan", "M-nan", "M-negative", "M-inf", "epsilon-inf",
             "p-nan"],
    )
    def test_non_finite_or_nonpositive_value_is_a_schema_error(
        self, tmp_path, capsys, path, value
    ):
        doc = copy.deepcopy(BASE_DOC)
        doc["dgp"] = {"id": "uniform_linear", "noise": "uniform", "noise_param": 0.25}
        doc["function_class"]["regime"] = {"kind": "bounded", "M": 2.0}
        section = doc
        for key in path[:-1]:
            section = section[key]
        section[path[-1]] = value
        assert_simulate_schema_error(doc, tmp_path, capsys)

    @pytest.mark.parametrize(
        "path, value, named",
        [
            (("function_class", "m"), 2.5, "function_class.m"),
            (("function_class", "m"), 0, "function_class.m"),
            (("experiment", "reps"), 2.5, "experiment.reps"),
            (("experiment", "n_list"), [400.9], "experiment.n_list"),
            (("grids", "points_per_axis"), True, "grids.points_per_axis"),
            (("function_class", "members"), [{"poly": "abc"}], "poly"),
            (("function_class", "members"), [{"poly": [[1.0]]}], "poly"),
            (("function_class", "members"), None, "function_class.members"),
            (("function_class", "members"), [{"id": [1], "poly": [[1.0, [1]]]}],
             "function_class.members"),
            (("dgp", "id"), [], "dgp id"),
            (("kernel", "id"), [], "kernel id"),
            (("dgp",), None, "dgp"),
            (("function_class", "members"), [{"id": "frac", "poly": [[1.0, [2.5]]]}],
             "'frac'"),
            (("grids", "quad_order"), 10 ** 9, "grids.quad_order"),
        ],
        ids=["m-fraction", "m-zero", "reps-fraction", "n_list-fraction",
             "points_per_axis-bool", "poly-string", "poly-short-term", "members-null",
             "poly-id-list", "dgp-id-list", "kernel-id-list", "section-null",
             "poly-fractional-exponent", "quad_order-over-budget"],
    )
    def test_malformed_field_is_a_schema_error_naming_it(
        self, tmp_path, capsys, path, value, named
    ):
        doc = copy.deepcopy(BASE_DOC)
        section = doc
        for key in path[:-1]:
            section = section[key]
        section[path[-1]] = value
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(doc))
        rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "s.csv")])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "SchemaError"
        assert named in err["message"]

    def test_quad_order_budget_admits_the_default_at_m_3(self):
        doc = copy.deepcopy(BASE_DOC)
        doc["function_class"].update(m=3, members=["sum"])
        del doc["grids"]["quad_order"]
        assert parse_config(doc).quad_order == 64  # 192^3 points
        doc["grids"]["quad_order"] = 72  # 216^3 points, over the budget
        with pytest.raises(SchemaError, match="grids.quad_order 72 at m = 3"):
            parse_config(doc)

    @pytest.mark.parametrize("table", [True, 2])
    def test_kernel_table_must_be_a_path(self, tmp_path, table):
        # run in a child: a number reaching open() is a file descriptor, and
        # the child's own stdout or stderr would be read and closed
        doc = copy.deepcopy(BASE_DOC)
        doc["kernel"] = {"table": table}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        res = subprocess.run(
            [sys.executable, "-m", "condu.cli", "simulate", "--config", str(cfg),
             "--out", str(tmp_path / "s.csv")],
            env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True,
            timeout=60,
        )
        assert res.returncode == 1
        err = json.loads(res.stderr)
        assert err["error"] == "SchemaError"
        assert "kernel.table" in err["message"]

    def test_non_numeric_table_kappa_is_a_schema_error(self, tmp_path, capsys):
        table = tmp_path / "k.csv"
        table.write_text("u,k\n-0.5,1\n0.5,1\n")
        doc = copy.deepcopy(BASE_DOC)
        doc["kernel"] = {"table": str(table), "kappa": "abc"}
        assert_simulate_schema_error(doc, tmp_path, capsys)

    @pytest.mark.parametrize("kappa", [-1.0, 0.0, 0.5, float("1e999")])
    def test_table_kappa_below_the_table_max_or_infinite_is_a_schema_error(
            self, tmp_path, capsys, kappa):
        table = tmp_path / "k.csv"
        table.write_text("u,k\n-0.5,1\n0.5,1\n")  # max |k| = 1
        doc = copy.deepcopy(BASE_DOC)
        doc["kernel"] = {"table": str(table), "kappa": kappa}
        assert_simulate_schema_error(doc, tmp_path, capsys)

    def test_invalid_json_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        rc = main(["simulate", "--config", str(path), "--out", str(tmp_path / "s.csv")])
        assert rc == 1
        assert json.loads(capsys.readouterr().err)["error"] == "SchemaError"


class TestIntegerInputs:
    """Seeds and --rep below 0, n and --threads below 1, and a CONDU_SEED
    that is not an integer exit 1 with a SchemaError, before any output."""

    @pytest.mark.parametrize(
        "argv, env, experiment",
        [
            pytest.param(["simulate"], None, {"seed": -1}, id="config-seed"),
            pytest.param(["simulate"], None, {"n_list": [-5]}, id="config-n_list"),
            pytest.param(["simulate", "--seed", "-1"], None, {}, id="simulate-seed"),
            pytest.param(["simulate"], "abc", {}, id="simulate-env-abc"),
            pytest.param(["simulate"], "-3", {}, id="simulate-env-negative"),
            pytest.param(["simulate", "--n", "-5"], None, {}, id="simulate-n"),
            pytest.param(["simulate", "--rep", "-1"], None, {}, id="simulate-rep"),
            pytest.param(["rates", "--seed", "-1"], None, {}, id="rates-seed"),
            pytest.param(["rates"], "abc", {}, id="rates-env-abc"),
            pytest.param(["rates"], "-3", {}, id="rates-env-negative"),
            pytest.param(["rates", "--threads", "-3"], None, {}, id="rates-threads"),
            pytest.param(["sweep", "--threads", "0"], None, {}, id="sweep-threads"),
            pytest.param(["estimate", "--seed", "-1"], None, {}, id="estimate-seed"),
            pytest.param(["verify", "--seed", "-1", "--filter", "brute"], None, None,
                         id="verify-seed"),
        ],
    )
    def test_out_of_range_integer_exits_one(self, argv, env, experiment, tmp_path,
                                            capsys, monkeypatch):
        out = tmp_path / "out"
        if experiment is not None:
            doc = copy.deepcopy(BASE_DOC)
            doc["experiment"].update({"n_list": [128], "reps": 1}, **experiment)
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(doc))
            argv = argv + ["--config", str(cfg), "--out", str(out)]
        if env is None:
            monkeypatch.delenv("CONDU_SEED", raising=False)
        else:
            monkeypatch.setenv("CONDU_SEED", env)
        assert main(argv) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "SchemaError"
        assert not out.exists()

    def test_a_bad_condu_seed_is_ignored_under_an_explicit_seed(
        self, cfg_path, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("CONDU_SEED", "abc")
        assert main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "s.csv"),
                     "--seed", "0"]) == 0


def run_rates(doc, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    return main(["rates", "--config", str(cfg), "--out", str(tmp_path / "out")])


class TestMemberIds:
    @pytest.mark.parametrize(
        "members",
        [
            [{"id": "identity_j:1", "poly": [[1.0, [3]]]}],
            ["sum", {"id": "sum", "poly": [[5.0, [0]]]}],
            ["sum", "sum"],
        ],
        ids=["poly_named_builtin", "poly_shadows_member", "repeated_builtin"],
    )
    def test_colliding_ids_exit_one(self, tmp_path, capsys, members):
        doc = copy.deepcopy(BASE_DOC)
        doc["dgp"] = {"id": "uniform_linear", "noise": "uniform", "noise_param": 0.25}
        doc["function_class"]["members"] = members
        assert run_rates(doc, tmp_path) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "SchemaError"
        assert not (tmp_path / "out").exists()

    def test_member_without_closed_form_stops_rates(self, tmp_path, capsys):
        doc = copy.deepcopy(BASE_DOC)  # gaussian noise: max has no closed form
        doc["function_class"]["members"] = ["identity_j:1", "max"]
        assert run_rates(doc, tmp_path) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "NoClosedFormConditional"
        assert "max" in err["message"]
        assert not (tmp_path / "out").exists()

    def test_non_finite_cell_sum_exits_one(self, tmp_path, capsys):
        data = tmp_path / "s.csv"
        data.write_text("x,y\n0.49,1e200\n0.51,-1e200\n0.50,1\n0.2,0\n0.8,0\n")
        doc = copy.deepcopy(BASE_DOC)
        doc["function_class"]["members"] = [{"id": "cube", "poly": [[1.0, [3]]]}]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "cells.csv"
        rc = main(["estimate", "--config", str(cfg), "--data", str(data), "--out", str(out)])
        assert rc == 1
        assert json.loads(capsys.readouterr().err)["error"] == "NonFiniteSum"
        assert not out.exists()

    def test_exact_cell_whose_terms_overflow_exits_one(self, tmp_path, capsys):
        # each term y K_h = 1e308 / h overflows alone, so no term is finite
        data = tmp_path / "s.csv"
        data.write_text("x,y\n" + "".join(f"{i / 29!r},1e308\n" for i in range(30)))
        doc = copy.deepcopy(BASE_DOC)
        doc["kernel"] = {"id": "uniform"}
        doc["function_class"]["members"] = ["identity_j:1"]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "cells.csv"
        rc = main(["estimate", "--config", str(cfg), "--data", str(data), "--out", str(out)])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "NonFiniteSum"
        assert "sum is inf" in err["message"]
        assert not out.exists()


def test_rates_on_a_grid_outside_the_support_exits_one(tmp_path, capsys):
    doc = copy.deepcopy(BASE_DOC)  # uniform design on [0, 1]
    doc["grids"]["interval"] = [2.0, 3.0]
    assert run_rates(doc, tmp_path) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ZeroDensityWindow"
    assert "t=(2.0,)" in err["message"]
    assert not (tmp_path / "out").exists()


class TestInputFiles:
    @pytest.mark.parametrize("command", ["simulate", "estimate"])
    def test_missing_config_exits_one(self, tmp_path, capsys, command):
        out = tmp_path / "out.csv"
        argv = [command, "--config", str(tmp_path / "nonexist.json"), "--out", str(out)]
        assert main(argv) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InputFileError" and "nonexist.json" in err["message"]
        assert not out.exists()

    def test_missing_data_exits_one(self, cfg_path, tmp_path, capsys):
        out = tmp_path / "cells.csv"
        argv = ["estimate", "--config", cfg_path, "--data",
                str(tmp_path / "nonexist.csv"), "--out", str(out)]
        assert main(argv) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InputFileError" and "nonexist.csv" in err["message"]
        assert not out.exists()

    def test_undecodable_config_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_bytes(b"\xff\xfe{")
        out = tmp_path / "out.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "SchemaError" and "bad.json" in err["message"]
        assert not out.exists()

    def test_undecodable_data_exits_one(self, cfg_path, tmp_path, capsys):
        data = tmp_path / "bad.csv"
        data.write_bytes(b"x,y\n0.5,0.25\n0.5,\xff\n")
        out = tmp_path / "cells.csv"
        argv = ["estimate", "--config", cfg_path, "--data", str(data), "--out", str(out)]
        assert main(argv) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "SchemaError" and "bad.csv" in err["message"]
        assert not out.exists()

    def test_out_in_a_missing_directory_exits_one(self, cfg_path, tmp_path, capsys):
        out = tmp_path / "nonexistent_dir" / "x.csv"
        assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "OutputFileError" and "x.csv" in err["message"]
        assert not out.parent.exists()

    def test_out_onto_a_directory_exits_one_and_leaves_no_temp_file(
        self, cfg_path, tmp_path, capsys
    ):
        out = tmp_path / "taken"
        out.mkdir()
        assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "OutputFileError"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "taken"]


class TestRatesRows:
    def test_member_one_is_rejected(self, tmp_path, capsys):
        doc = copy.deepcopy(BASE_DOC)
        doc["function_class"]["members"] = ["one", "identity_j:1"]
        assert run_rates(doc, tmp_path) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "SchemaError" and "'one'" in err["message"]
        assert not (tmp_path / "out").exists()

    def test_deviation_keys_are_unique(self, tmp_path):
        doc = copy.deepcopy(BASE_DOC)
        doc["function_class"]["members"] = ["identity_j:1", "const:2"]
        doc["experiment"]["n_list"] = [128]
        assert run_rates(doc, tmp_path) == 0
        lines = (tmp_path / "out" / "deviations.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header[:5] == ["stat", "n", "rep", "h", "t_1"] and header[5] == "phi"
        keys = [tuple(line.split(",")[:6]) for line in lines[1:]]
        assert len(keys) == len(set(keys)) > 0


def test_importing_the_cli_leaves_scipy_unloaded():
    code = "import sys, condu.cli; print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    res = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    assert res.stdout.strip() == "False"


def test_benchmark_tracer_finds_every_name_it_rebinds():
    """benchmarks/tracer.py rebinds names in harness, ucore and estimator;
    installing it fails with AttributeError if one of them has gone."""
    bench = SRC.parent / "benchmarks"
    code = "import tracer; tracer.install(tracer.Tracer())"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(bench)]))
    res = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr


class TestSimulateAndEstimate:
    def test_simulate_row_count(self, cfg_path, tmp_path, capsys):
        out = tmp_path / "s.csv"
        assert main(["simulate", "--config", cfg_path, "--out", str(out), "--n", "64"]) == 0
        rows = read_rows(out)
        assert rows[0] == "x,y"
        assert len(rows) == 65

    def test_estimate_cell_count_and_roundtrip(self, cfg_path, tmp_path):
        data = tmp_path / "s.csv"
        assert main(["simulate", "--config", cfg_path, "--out", str(data)]) == 0
        via_data = tmp_path / "e1.csv"
        direct = tmp_path / "e2.csv"
        assert main([
            "estimate", "--config", cfg_path, "--data", str(data), "--out", str(via_data)
        ]) == 0
        assert main(["estimate", "--config", cfg_path, "--out", str(direct)]) == 0
        # same seed and default n: ingesting the simulated CSV reproduces the
        # internally simulated run byte for byte
        assert via_data.read_bytes() == direct.read_bytes()
        rows = read_rows(via_data)
        # 2 bandwidths x 3 grid points x 1 member, plus the header
        assert len(rows) == 1 + 2 * 3 * 1
        assert rows[0] == "m,h,t_1,phi,numerator,denominator,mhat,status"

    def test_shared_denominator_matches_the_per_member_loop(
        self, tmp_path, monkeypatch
    ):
        doc = copy.deepcopy(BASE_DOC)
        doc["function_class"]["members"] = ["identity_j:1", "const:2"]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        shared, looped = tmp_path / "shared.csv", tmp_path / "looped.csv"
        assert main(["estimate", "--config", str(cfg), "--out", str(shared)]) == 0
        monkeypatch.setattr(
            condu.cli,
            "estimate_grid",
            lambda members, hs, points, s, k: [
                [[estimate(phi, h, t, s, k) for phi in members] for t in points] for h in hs
            ],
        )
        assert main(["estimate", "--config", str(cfg), "--out", str(looped)]) == 0
        assert shared.read_bytes() == looped.read_bytes()
        # 2 bandwidths x 3 grid points x 2 members, plus the header
        assert len(read_rows(shared)) == 1 + 2 * 3 * 2

    def test_seed_flag_changes_the_sample(self, cfg_path, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["simulate", "--config", cfg_path, "--out", str(a)])
        main(["simulate", "--config", cfg_path, "--out", str(b), "--seed", "99"])
        assert a.read_bytes() != b.read_bytes()

    def test_env_seed_and_flag_precedence(self, cfg_path, tmp_path, monkeypatch):
        env_run, flag_run, plain99 = (tmp_path / x for x in ("e.csv", "f.csv", "g.csv"))
        monkeypatch.setenv("CONDU_SEED", "99")
        main(["simulate", "--config", cfg_path, "--out", str(env_run)])
        main(["simulate", "--config", cfg_path, "--out", str(flag_run), "--seed", "7"])
        monkeypatch.delenv("CONDU_SEED")
        main(["simulate", "--config", cfg_path, "--out", str(plain99), "--seed", "99"])
        assert env_run.read_bytes() == plain99.read_bytes()  # env == explicit 99
        assert flag_run.read_bytes() != env_run.read_bytes()  # flag beats env


class TestSweepAndRates:
    def test_sweep_restricts_to_one_n(self, cfg_path, tmp_path):
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", cfg_path, "--out", str(out), "--n", "128"]) == 0
        report = json.loads((out / "report.json").read_text())
        assert list(report["per_n"]) == ["128"]

    def test_sweep_rejects_n_outside_config(self, cfg_path, tmp_path, capsys):
        rc = main(["sweep", "--config", cfg_path, "--out", str(tmp_path / "x"), "--n", "99"])
        assert rc == 1
        assert json.loads(capsys.readouterr().err)["error"] == "ConduError"

    def test_rates_outputs_are_rerun_stable(self, cfg_path, tmp_path):
        a, b = tmp_path / "r1", tmp_path / "r2"
        assert main(["rates", "--config", cfg_path, "--out", str(a)]) == 0
        assert main(["rates", "--config", cfg_path, "--out", str(b), "--threads", "2"]) == 0
        for f in ("deviations.csv", "report.json", "config_echo.json"):
            assert (a / f).read_bytes() == (b / f).read_bytes()

    @pytest.mark.parametrize("argv, env", [
        (["rates", "--seed", "5"], None),
        (["rates"], "9"),
        (["sweep", "--n", "128"], None),
    ], ids=["seed-flag", "condu-seed", "sweep-n"])
    def test_the_echo_reruns_an_overridden_run(self, cfg_path, tmp_path, monkeypatch,
                                               argv, env):
        monkeypatch.delenv("CONDU_SEED", raising=False)
        plain, run, rerun = tmp_path / "plain", tmp_path / "run", tmp_path / "rerun"
        assert main(["rates", "--config", cfg_path, "--out", str(plain)]) == 0
        if env is not None:
            monkeypatch.setenv("CONDU_SEED", env)
        assert main(argv[:1] + ["--config", cfg_path, "--out", str(run)] + argv[1:]) == 0
        monkeypatch.delenv("CONDU_SEED", raising=False)
        echo = str(run / "config_echo.json")
        assert main(["rates", "--config", echo, "--out", str(rerun)]) == 0
        csv = run / "deviations.csv"
        assert csv.read_bytes() != (plain / "deviations.csv").read_bytes()
        assert csv.read_bytes() == (rerun / "deviations.csv").read_bytes()
        # the plain run echoes its config file unchanged
        assert json.loads((plain / "config_echo.json").read_text()) == BASE_DOC

    def test_rates_with_remainder_adds_the_block(self, cfg_path, tmp_path):
        out = tmp_path / "rr"
        assert main(["rates", "--config", cfg_path, "--out", str(out), "--remainder"]) == 0
        report = json.loads((out / "report.json").read_text())
        for n, entry in report["per_n"].items():
            assert "remainder_sup" in entry
            assert entry["remainder"]["n"] >= int(n)


# m = 2 with windows of several hundred points, so each cell's pair sum runs
# through BLAS matrix-vector products
M2_DOC = {
    "dgp": {"id": "uniform_linear", "noise": "uniform", "noise_param": 0.25},
    "kernel": {"id": "epanechnikov-rescaled"},
    "function_class": {
        "m": 2,
        "members": ["sum_clipped:2.5", "identity_j:2"],
        "regime": {"kind": "bounded", "M": 2.5},
    },
    "regime": {"c": 1.0, "b0": 0.3},
    "grids": {
        "interval": [0.3, 0.7],
        "points_per_axis": 3,
        "bn_rule": "fixed",
        "quad_order": 12,
    },
    "experiment": {"n_list": [2000], "reps": 1, "seed": 4},
}


def test_rates_bytes_do_not_depend_on_blas_threads(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(M2_DOC))
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = threads
        out = tmp_path / f"blas{threads}"
        subprocess.run(
            [sys.executable, "-m", "condu.cli", "rates", "--config", str(cfg),
             "--out", str(out)],
            env=env, check=True, capture_output=True, timeout=120,
        )
        outs.append(out)
    for name in ("deviations.csv", "report.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


FUZZ_DOCS = [
    {
        "dgp": {"id": "uniform_linear", "noise": "gaussian", "noise_param": 0.3},
        "kernel": {"id": "uniform"},
        "function_class": {"m": 1, "members": ["identity_j:1"],
                           "regime": {"kind": "unbounded", "p": 3.0}},
        "regime": {"c": 0.5, "b0": 0.4},
        "grids": {"interval": [0.3, 0.7], "points_per_axis": 2, "bn_rule": "fixed",
                  "quad_order": 8},
        "experiment": {"n_list": [24], "reps": 1, "seed": 7, "epsilon": 1.0},
    },
    {
        "dgp": {"id": "uniform_linear", "noise": "uniform", "noise_param": 0.25},
        "kernel": {"id": "epanechnikov-rescaled"},
        "function_class": {"m": 2, "members": ["sum", {"id": "sq", "poly": [[1.0, [2, 0]]]}],
                           "regime": {"kind": "bounded", "M": 2.5}},
        "regime": {"c": 1.0, "b0": 0.5},
        "grids": {"interval": [0.3, 0.7], "points_per_axis": 2, "bn_rule": "decaying",
                  "quad_order": 6},
        "experiment": {"n_list": [12, 16], "reps": 1, "seed": 3},
    },
]
# fields whose value sizes an allocation or a loop get no huge integer;
# grids.quad_order gets one, which its budget rejects at parse time
SIZING = {("function_class", "m"), ("grids", "points_per_axis"), ("experiment", "n_list"),
          ("experiment", "reps")}
ODD_VALUES = [None, True, False, "abc", [], {}, [1.0], 0, -1, 2.5, math.nan, math.inf,
              -math.inf]


def _paths(doc, prefix=()):
    for key, value in doc.items():
        path = prefix + (key,)
        yield path
        if isinstance(value, dict):
            yield from _paths(value, path)


@st.composite
def mutated_config(draw):
    """A fuzz document with one to three fields dropped or replaced by a
    value of the wrong type, a non-finite number or an empty list."""
    doc = copy.deepcopy(draw(st.sampled_from(FUZZ_DOCS)))
    for _ in range(draw(st.integers(1, 3))):
        paths = sorted(_paths(doc))
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        values = ODD_VALUES if path in SIZING else ODD_VALUES + [10 ** 30]
        mutation = draw(st.sampled_from(["drop"] + values))
        if mutation == "drop":
            del parent[path[-1]]
        else:
            parent[path[-1]] = mutation
    return doc


def _run_cli(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, err.getvalue()


@settings(max_examples=40, deadline=None)
@given(doc=mutated_config())
def test_mutated_configs_run_or_exit_one_with_json(doc):
    """simulate, estimate and rates either succeed with every output file or
    exit 1 with a JSON error on stderr; never exit 2."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.json"
        cfg.write_text(json.dumps(doc))
        runs = [
            (["simulate", "--out", f"{tmp}/s.csv"], ["s.csv"]),
            (["estimate", "--out", f"{tmp}/e.csv"], ["e.csv"]),
            (["rates", "--out", f"{tmp}/r"],
             ["r/deviations.csv", "r/report.json", "r/config_echo.json"]),
        ]
        for argv, outputs in runs:
            rc, err = _run_cli(argv[:1] + ["--config", str(cfg)] + argv[1:])
            assert rc in (0, 1), err
            if rc == 0:
                assert all((Path(tmp) / name).is_file() for name in outputs)
            else:
                assert set(json.loads(err)) == {"error", "message"}


# finite values, with ties, a signed zero, huge and subnormal numbers, and
# entries the reader must reject
SAMPLE_NUMBERS = ["0.5", "0.4", "0.6", "0.45", "1", "-0", "1e308", "-1e308", "5e-324"]
SAMPLE_ODD = ["nan", "inf", "-inf", "", "abc"]


@st.composite
def sample_csv(draw):
    """Sample-CSV bytes at the boundary: a missing, extra or BOM-prefixed
    header, CRLF line ends, ragged rows, non-finite, huge and subnormal
    values, tied x values, no rows or a few, and non-UTF-8 bytes."""
    header = draw(st.sampled_from(["x,y", "x,y", " x , y ", "x,y,z", "\ufeffx,y", None]))
    pair = st.lists(st.sampled_from(SAMPLE_NUMBERS), min_size=2, max_size=2)
    rows = draw(st.lists(pair, max_size=40))
    odd = st.lists(st.sampled_from(SAMPLE_NUMBERS + SAMPLE_ODD), min_size=1, max_size=3)
    for row in draw(st.lists(odd, max_size=2)):
        rows.insert(draw(st.integers(0, len(rows))), row)
    lines = ([] if header is None else [header]) + [",".join(row) for row in rows]
    data = draw(st.sampled_from(["\n", "\r\n"])).join(lines).encode()
    if draw(st.integers(0, 3)) == 3:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


@settings(max_examples=60, deadline=None)
@given(doc=st.sampled_from(FUZZ_DOCS), data=sample_csv())
def test_sample_csvs_estimate_or_exit_one_with_json(doc, data):
    """estimate --data either writes its output file or exits 1 with a JSON
    error on stderr; never exit 2."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg, sample, out = (Path(tmp) / name for name in ("cfg.json", "s.csv", "e.csv"))
        cfg.write_text(json.dumps(doc))
        sample.write_bytes(data)
        rc, err = _run_cli(["estimate", "--config", str(cfg), "--data", str(sample),
                            "--out", str(out)])
        assert rc in (0, 1), err
        if rc == 0:
            assert out.is_file()
        else:
            assert set(json.loads(err)) == {"error", "message"}
