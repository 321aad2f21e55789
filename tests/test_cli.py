import copy
import json

import pytest

from condu.cli import main
from test_harness import BASE_DOC


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

    def test_invalid_json_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        rc = main(["simulate", "--config", str(path), "--out", str(tmp_path / "s.csv")])
        assert rc == 1
        assert json.loads(capsys.readouterr().err)["error"] == "SchemaError"


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

    def test_rates_with_remainder_adds_the_block(self, cfg_path, tmp_path):
        out = tmp_path / "rr"
        assert main(["rates", "--config", cfg_path, "--out", str(out), "--remainder"]) == 0
        report = json.loads((out / "report.json").read_text())
        for n, entry in report["per_n"].items():
            assert "remainder_sup" in entry
            assert entry["remainder"]["n"] >= int(n)
