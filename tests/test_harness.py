import copy
import dataclasses
import math

import numpy as np
import pytest

from condu.bandwidth import lower_bandwidth, normalizer
from condu.config import parse_config
from condu.errors import BoundedClassHasNoRemainder, EmptyBandwidthRange, ZeroDensityWindow
import condu.ucore
from condu.estimator import centering, make_dgp, true_regression
from condu.function_class import builtin_member
from condu.harness import (
    bandwidth_cap,
    bias_from_cache,
    bandwidths,
    child_seed,
    expectation_cache,
    make_t_grid,
    rate_experiment,
    remainder_diagnostic,
    simulate,
    sweep_cells,
)
from condu.ucore import UKernelSpec, u_stat_windowed


BASE_DOC = {
    "dgp": {"id": "uniform_linear", "noise": "gaussian", "noise_param": 0.3},
    "kernel": {"id": "uniform"},
    "function_class": {
        "m": 1,
        "members": ["identity_j:1"],
        "regime": {"kind": "unbounded", "p": 3.0},
    },
    "regime": {"c": 0.5, "b0": 0.4},
    "grids": {
        "interval": [0.3, 0.7],
        "points_per_axis": 3,
        "bn_rule": "fixed",
        "quad_order": 32,
    },
    "experiment": {"n_list": [128, 256], "reps": 2, "seed": 7},
}


def make_cfg(**over):
    import copy

    doc = copy.deepcopy(BASE_DOC)
    for dotted, v in over.items():
        sec, key = dotted.split("__")
        doc[sec][key] = v
    return parse_config(doc)


class TestSimulate:
    def test_same_seed_is_bitwise_identical(self):
        d = make_dgp("uniform_linear", "gaussian", 0.5)
        a = simulate(d, 100, child_seed(7, 100, 0))
        b = simulate(d, 100, child_seed(7, 100, 0))
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)

    def test_distinct_keys_give_distinct_streams(self):
        d = make_dgp("uniform_linear", "gaussian", 0.5)
        a = simulate(d, 100, child_seed(7, 100, 0))
        b = simulate(d, 100, child_seed(7, 100, 1))
        assert not np.array_equal(a.x, b.x)

    def test_noiseless_sample_lies_on_the_link(self):
        d = make_dgp("uniform_quadratic", "none")
        s = simulate(d, 50, 3)
        assert np.allclose(s.y, s.x ** 2, atol=0.0)
        assert np.all((s.x >= 0) & (s.x <= 1))


class TestGrids:
    def test_t_grid_is_the_full_tensor_product(self):
        g = make_t_grid((0.0, 1.0), 3, 2)
        assert len(g) == 9
        assert g[0] == (0.0, 0.0)
        assert g[-1] == (1.0, 1.0)

    def test_bandwidths_anchor_cap_and_doubling(self):
        cfg = make_cfg()
        for n in cfg.n_list:
            hs = bandwidths(cfg, n)
            assert hs[0] == lower_bandwidth(cfg.regime, n)
            assert hs[-1] <= bandwidth_cap(cfg, n) * (1 + 1e-12)
            for j, h in enumerate(hs):
                assert h ** cfg.m == pytest.approx(2.0 ** j * hs[0] ** cfg.m, rel=1e-12)

    def test_decaying_cap_rule(self):
        cfg = make_cfg(grids__bn_rule="decaying")
        assert bandwidth_cap(cfg, 128) == pytest.approx(0.4 / math.log(128), rel=1e-14)

    def test_anchor_above_cap_is_rejected(self):
        cfg = make_cfg(regime__b0=0.05)
        with pytest.raises(EmptyBandwidthRange):
            bandwidths(cfg, 128)


class TestExpectationCache:
    def test_truth_and_convolutions_are_cached(self):
        cfg = make_cfg()
        n = 128
        hs = bandwidths(cfg, n)
        tgrid = make_t_grid(cfg.t_interval, cfg.t_points, cfg.m)
        cache = expectation_cache(cfg, n, hs, tgrid)
        phi = cfg.fc.members[0]
        for t in tgrid:
            assert cache[("m", phi.id, t)] == pytest.approx(
                float(true_regression(cfg.dgp, phi, np.asarray(t))), rel=1e-14
            )
            for h in hs:
                assert ("EU1", h, t) in cache
                assert ("EU", phi.id, h, t) in cache


class TestZeroDensityRule:
    """centering and bias_from_cache share one zero-density rule:
    a grid point whose window misses the design density raises."""

    def test_every_centering_path_raises_outside_the_support(self):
        cfg = make_cfg(grids__interval=[2.0, 3.0])  # uniform design on [0, 1]
        n = cfg.n_list[0]
        hs = bandwidths(cfg, n)
        tgrid = make_t_grid(cfg.t_interval, cfg.t_points, cfg.m)
        cache = expectation_cache(cfg, n, hs, tgrid)
        phi = cfg.fc.members[0]
        at = r"t=\(2\.0,\)"  # plain floats, not np.float64 reprs
        with pytest.raises(ZeroDensityWindow, match=at):
            centering(phi, hs[0], tgrid[0], cfg.dgp, cfg.kernel, cfg.quad_order)
        with pytest.raises(ZeroDensityWindow, match=at):
            bias_from_cache(cfg, hs, tgrid, cache)


class TestSweepInvariants:
    def test_normalized_is_normalizer_times_raw_on_ok_rows(self):
        cfg = make_cfg()
        rep = rate_experiment(cfg)
        assert len(rep.rows) > 0
        for r in rep.rows:
            if r.status != "ok":
                assert math.isnan(r.raw) and math.isnan(r.normalized)
                continue
            assert r.normalized == normalizer(r.n, r.h, cfg.m) * r.raw

    def test_rows_are_canonically_sorted(self):
        cfg = make_cfg()
        rep = rate_experiment(cfg)
        keys = [r.sort_key for r in rep.rows]
        assert keys == sorted(keys)

    def test_constant_member_has_zero_estimator_deviations(self):
        cfg = make_cfg(function_class__members=["const:1"])
        n = 128
        hs = bandwidths(cfg, n)
        tgrid = make_t_grid(cfg.t_interval, cfg.t_points, cfg.m)
        cache = expectation_cache(cfg, n, hs, tgrid)
        s = simulate(cfg.dgp, n, child_seed(cfg.seed, n, 0))
        rows = sweep_cells(cfg, s, n, 0, hs, tgrid, cache)
        for r in rows:
            if r.stat in ("est_centering", "est_truth") and r.status == "ok":
                assert r.raw == 0.0

    @pytest.mark.parametrize("band", [condu.ucore._BAND_ELEMENTS, 3000])
    def test_process_rows_are_the_per_cell_reference_bit_for_bit(self, band, monkeypatch):
        # m = 2 over seven bandwidths: exact-path and banded cells
        monkeypatch.setattr(condu.ucore, "_BAND_ELEMENTS", band)
        doc = copy.deepcopy(BASE_DOC)
        doc["dgp"] = {"id": "uniform_linear", "noise": "uniform", "noise_param": 0.25}
        doc["function_class"] = {
            "m": 2,
            "members": ["sum_clipped:2.5", "identity_j:2", "product"],
            "regime": {"kind": "bounded", "M": 2.5},
        }
        doc["regime"] = {"c": 0.3, "b0": 0.3}
        cfg = parse_config(doc)
        n = 400
        hs = bandwidths(cfg, n)
        assert len(hs) >= 4
        tgrid = make_t_grid(cfg.t_interval, cfg.t_points, cfg.m)
        cache = expectation_cache(cfg, n, hs, tgrid)
        s = simulate(cfg.dgp, n, child_seed(cfg.seed, n, 1))
        rows = [r for r in sweep_cells(cfg, s, n, 1, hs, tgrid, cache) if r.stat == "process"]
        members = {phi.id: phi for phi in cfg.fc.members}
        members["one"] = builtin_member("one", 2)
        assert len(rows) == len(hs) * len(tgrid) * len(members)
        for r in rows:
            u = u_stat_windowed(UKernelSpec(members[r.phi], r.h, r.t, cfg.kernel), s).value
            eu = cache[("EU1", r.h, r.t)] if r.phi == "one" else cache[("EU", r.phi, r.h, r.t)]
            assert np.float64(r.raw).tobytes() == np.float64(abs(u - eu)).tobytes()

    def test_report_summaries_present_and_consistent(self):
        cfg = make_cfg()
        rep = rate_experiment(cfg)
        for n in cfg.n_list:
            e = rep.per_n[n]
            assert e["cells_ok"] <= e["cells_total"]
            for key in (
                "sup_normalized_process",
                "sup_normalized_estimator",
                "sup_consistency",
            ):
                per_rep = e[f"{key}_per_rep"]
                assert len(per_rep) == cfg.reps
                finite = [v for v in per_rep if not math.isnan(v)]
                assert e[key] == max(finite)
            assert e["bias_sup"] >= 0.0


class TestOutputDeterminism:
    def test_byte_identical_across_runs_and_thread_counts(self, tmp_path):
        cfg = make_cfg()
        outs = []
        for name, threads in (("a", 1), ("b", 3)):
            d = tmp_path / name
            rate_experiment(cfg, out_dir=str(d), threads=threads)
            outs.append(
                {
                    f: (d / f).read_bytes()
                    for f in ("deviations.csv", "report.json", "config_echo.json")
                }
            )
        assert outs[0] == outs[1]

    def test_csv_header_matches_arity(self, tmp_path):
        cfg = make_cfg()
        rate_experiment(cfg, out_dir=str(tmp_path))
        header = (tmp_path / "deviations.csv").read_text().splitlines()[0]
        assert header == "stat,n,rep,h,t_1,phi,raw_dev,normalized_dev,status"


class TestRemainderDiagnostic:
    def test_bounded_class_with_large_threshold_has_no_remainder(self):
        cfg = make_cfg(
            function_class__members=["sum_clipped:2"],
            function_class__regime={"kind": "bounded", "M": 2.0},
        )
        with pytest.raises(BoundedClassHasNoRemainder):
            remainder_diagnostic(cfg, ell=10, p=3.0)

    def test_huge_epsilon_gates_everything_out(self):
        cfg = make_cfg(experiment__epsilon=1e6)
        diag = remainder_diagnostic(cfg, ell=7, mc_draws=2000)
        assert diag["sup_normalized"] == 0.0
        assert diag["n"] == 128

    def test_diagnostic_is_deterministic(self):
        cfg = make_cfg()
        a = remainder_diagnostic(cfg, ell=7, mc_draws=2000)
        b = remainder_diagnostic(cfg, ell=7, mc_draws=2000)
        assert a == b
