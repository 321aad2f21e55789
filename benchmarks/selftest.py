"""Tests of the benchmark itself, on small variants of the workloads.

Run with: python3 -m pytest benchmarks/selftest.py
(The file name keeps it out of the repository's default test collection.)
"""

import copy
import json

import pytest

import check
import run
import workloads as W
from condu.config import parse_config
from condu.harness import rate_experiment

SMALL = {
    "rates-m1": {"experiment": {"n_list": [300, 600], "reps": 2},
                 "grids": {"points_per_axis": 5}},
    "rates-m2": {"experiment": {"n_list": [300], "reps": 2},
                 "grids": {"points_per_axis": 4}},
    "rates-m3": {"experiment": {"n_list": [60], "reps": 1},
                 "regime": {"c": 1.0, "b0": 0.45}},
}


def small_doc(name, seed=7):
    doc = W.config_doc(name, seed)
    for section, values in SMALL[name].items():
        doc[section].update(values)
    return doc


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_cell_count_formula_matches_rows(name):
    cfg = parse_config(small_doc(name))
    rows = rate_experiment(cfg).rows
    want_process, want_est = check.expected_counts(cfg)
    assert sum(r.stat == "est_centering" for r in rows) == want_est
    assert sum(r.stat == "process" for r in rows) == want_process


@pytest.mark.parametrize("name", ["rates-m1", "rates-m2"])
def test_checker_flags_one_perturbed_raw_dev(tmp_path, name):
    seed = 7
    cfg = parse_config(small_doc(name, seed))
    rate_experiment(cfg, out_dir=str(tmp_path))
    attempted, failures = check.check_output(cfg, tmp_path, seed, 6)
    assert attempted == 2 + 6 and failures == []

    path = tmp_path / "deviations.csv"
    lines = path.read_text().splitlines(keepends=True)
    victim = check.select_cells(check.read_rows(path, cfg.m), seed, 6)[0]
    fields = lines[victim + 1].split(",")
    col = 5 + cfg.m  # stat,n,rep,h,t_1..t_m,phi,raw_dev
    fields[col] = "%.17g" % (float(fields[col]) * (1 + 1e-9) + 1e-9)
    lines[victim + 1] = ",".join(fields)
    path.write_text("".join(lines))

    _, failures = check.check_output(cfg, tmp_path, seed, 6)
    assert len(failures) == 1 and f"row {victim + 2}:" in failures[0]


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metric_names_match_benchmark_json(tmp_path, monkeypatch, capsys,
                                                   trace, section):
    name = "rates-m1"
    monkeypatch.setattr(W, "OUT_ROOT", tmp_path)
    monkeypatch.setitem(W.WORKLOADS, name,
                        dict(W.WORKLOADS[name], doc=copy.deepcopy(small_doc(name))))
    assert run.main(["--workload", name, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    declared = json.loads((W.ROOT / "BENCHMARK.json").read_text())[section]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
