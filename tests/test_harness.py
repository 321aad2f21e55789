import copy
import dataclasses
import math
import pickle
import random
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condu.bandwidth import lower_bandwidth, normalizer
from condu.config import _N_BUDGET, _THREADS_BUDGET, parse_config
from condu.errors import (
    BoundedClassHasNoRemainder,
    EmptyBandwidthRange,
    NonFiniteSum,
    SchemaError,
    ZeroDensityWindow,
)
import condu.harness
import condu.kernels
import condu.ucore
from condu.estimator import centering, make_dgp, true_regression
from condu.function_class import builtin_member
from condu.harness import (
    ROW_ORDER,
    DeviationRow,
    RateReport,
    bandwidth_cap,
    bandwidths,
    child_seed,
    expectation_cache,
    make_t_grid,
    rate_experiment,
    remainder_diagnostic,
    simulate,
    sweep_cells,
    write_outputs,
)
from condu.hoeffding import variance_bound_check
from condu.kernels import eval_scaled, format_float, get_kernel, table_kernel
from condu.ucore import EXACT_PATH_MAX, UKernelSpec, WindowGrid, incomplete_u, u_stat_windowed
from conftest import make_rng


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

    @pytest.mark.parametrize("n", [-1, 0, 1.5, True, "5", None, _N_BUDGET + 1, 10 ** 12])
    def test_a_bad_sample_size_raises_before_any_draw(self, n):
        def refuse(*args):
            raise RuntimeError("a draw ran")

        dgp = dataclasses.replace(make_dgp("uniform_linear"), sample_x=refuse)
        with pytest.raises(SchemaError, match="n "):
            simulate(dgp, n, 0)

    def test_a_numpy_integer_sample_size_is_the_int_one(self):
        d = make_dgp("uniform_linear", "gaussian", 0.5)
        a, b = simulate(d, np.int64(30), 4), simulate(d, 30, 4)
        assert a.x.tobytes() == b.x.tobytes() and a.y.tobytes() == b.y.tobytes()


D_SEEDS = make_dgp("uniform_linear", "gaussian", 0.5)
SPEC_SEEDS = UKernelSpec(builtin_member("product", 2), 0.3, (0.5, 0.5), get_kernel("uniform"))
SEEDED = {
    "simulate": lambda seed: simulate(D_SEEDS, 5, seed),
    "incomplete_u": lambda seed: incomplete_u(SPEC_SEEDS, simulate(D_SEEDS, 20, 0), 10, seed),
    "variance_bound_check": lambda seed: variance_bound_check(
        lambda xs, ys: ys[..., 0], 1, D_SEEDS, 5, 500, seed),
    "child_seed": lambda seed: child_seed(seed, 5, 0),
}


class TestSeeds:
    """Every seeded entry point takes an integer >= 0 (an int or a NumPy
    integer, not a bool) or a SeedSequence, and nothing else."""

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "7", None])
    @pytest.mark.parametrize("caller", sorted(SEEDED))
    def test_a_bad_seed_raises_schema_error(self, caller, seed):
        with pytest.raises(SchemaError, match="seed"):
            SEEDED[caller](seed)

    @pytest.mark.parametrize("seed", [7, np.int64(7), np.random.SeedSequence(7)],
                             ids=["int", "int64", "SeedSequence"])
    def test_every_seed_spelling_gives_the_draws_of_the_int(self, seed):
        rng = make_rng(7)
        x = rng.uniform(0.0, 1.0, 50)
        y = x + rng.normal(0.0, 0.5, 50)
        s = simulate(D_SEEDS, 50, seed)
        assert s.x.tobytes() == x.tobytes() and s.y.tobytes() == y.tobytes()
        assert (incomplete_u(SPEC_SEEDS, s, 500, seed)
                == incomplete_u(SPEC_SEEDS, s, 500, 7))
        want = np.random.SeedSequence(7, spawn_key=(50, 3)).generate_state(4)
        assert np.array_equal(child_seed(seed, 50, 3).generate_state(4), want)

    def test_a_seed_sequence_master_extends_its_spawn_key(self):
        parent = np.random.SeedSequence(7, spawn_key=(1,))
        got = child_seed(parent, 50, 3).generate_state(4)
        want = np.random.SeedSequence(7, spawn_key=(1, 50, 3)).generate_state(4)
        assert np.array_equal(got, want)


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
        truth, table = expectation_cache(cfg, hs, tgrid)
        phi = cfg.fc.members[0]
        for k, t in enumerate(tgrid):
            assert truth[0][k] == pytest.approx(
                float(true_regression(cfg.dgp, phi, np.asarray(t))), rel=1e-14
            )
        assert list(table) == list(hs)
        for h in hs:
            eu1, eu, cent = table[h]
            assert len(eu1) == len(tgrid)
            assert [len(row) for row in eu] == [len(row) for row in cent] == [len(tgrid)]
            assert cent[0] == [e / d for e, d in zip(eu[0], eu1)]


    def test_cache_of_a_15_by_15_pair_grid_peaks_under_1_mb(self):
        # 225 points x 5 bandwidths x 400 quadrature nodes: mapped in blocks,
        # the cache peaks at about 0.7 MB; mapped all at once, at 3.8 MB
        cfg = make_cfg(
            function_class__m=2,
            function_class__members=["sum_clipped:2.5"],
            function_class__regime={"kind": "bounded", "M": 2.5},
            dgp__noise="uniform", dgp__noise_param=0.25,
            grids__points_per_axis=15, grids__quad_order=20,
            regime__c=1.0, regime__b0=0.25,
        )
        hs = bandwidths(cfg, 2000)
        tgrid = make_t_grid(cfg.t_interval, cfg.t_points, cfg.m)
        assert (len(hs), len(tgrid)) == (5, 225)
        expectation_cache(cfg, hs[:1], tgrid[:1])  # builds and caches the rule
        tracemalloc.start()
        try:
            expectation_cache(cfg, hs, tgrid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1_000_000


class TestZeroDensityRule:
    """centering and expectation_cache share one zero-density rule:
    a grid point whose window misses the design density raises."""

    AT = r"t=\(2\.0,\)"  # plain floats, not np.float64 reprs

    def test_every_centering_path_raises_outside_the_support(self):
        cfg = make_cfg(grids__interval=[2.0, 3.0])  # uniform design on [0, 1]
        n = cfg.n_list[0]
        hs = bandwidths(cfg, n)
        tgrid = make_t_grid(cfg.t_interval, cfg.t_points, cfg.m)
        phi = cfg.fc.members[0]
        with pytest.raises(ZeroDensityWindow, match=self.AT):
            centering(phi, hs[0], tgrid[0], cfg.dgp, cfg.kernel)
        with pytest.raises(ZeroDensityWindow, match=self.AT):
            expectation_cache(cfg, hs, tgrid)

    def test_rate_experiment_raises_before_any_replication(self, monkeypatch):
        cfg = make_cfg(grids__interval=[2.0, 3.0])  # uniform design on [0, 1]
        calls = []

        def counting_simulate(*args):
            calls.append(args)
            return simulate(*args)

        monkeypatch.setattr(condu.harness, "simulate", counting_simulate)
        with pytest.raises(ZeroDensityWindow, match=self.AT):
            rate_experiment(cfg)
        assert calls == []

    def test_a_window_off_the_support_at_a_later_n_raises_before_any_replication(
        self, monkeypatch
    ):
        # uniform design on [0, 1]: n = 500's one window about t = 1.04 meets
        # it, n = 4000's narrowest (h = 0.0415) does not
        cfg = make_cfg(
            function_class__regime={"kind": "bounded", "M": 2.0},
            regime__c=20.0, regime__b0=0.3,
            grids__interval=[1.04, 1.06], grids__points_per_axis=1, grids__quad_order=16,
            experiment__n_list=[500, 4000], experiment__reps=3, experiment__seed=1,
        )
        assert [len(bandwidths(cfg, n)) for n in cfg.n_list] == [1, 3]
        calls = []

        def refuse(*args):
            calls.append(args)
            raise RuntimeError("a replication ran")

        monkeypatch.setattr(condu.harness, "simulate", refuse)
        with pytest.raises(ZeroDensityWindow, match=r"h=0\.0414"):
            rate_experiment(cfg)
        assert calls == []


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
        keys = [ROW_ORDER(r) for r in rep.rows]
        assert keys == sorted(keys)

    def test_constant_member_has_zero_estimator_deviations(self):
        cfg = make_cfg(function_class__members=["const:1"])
        n = 128
        hs = bandwidths(cfg, n)
        tgrid = make_t_grid(cfg.t_interval, cfg.t_points, cfg.m)
        cache = expectation_cache(cfg, hs, tgrid)
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
        cache = expectation_cache(cfg, hs, tgrid)
        s = simulate(cfg.dgp, n, child_seed(cfg.seed, n, 1))
        rows = [r for r in sweep_cells(cfg, s, n, 1, hs, tgrid, cache) if r.stat == "process"]
        members = {phi.id: phi for phi in cfg.fc.members}
        members["one"] = builtin_member("one", 2)
        assert len(rows) == len(hs) * len(tgrid) * len(members)
        ids = [phi.id for phi in cfg.fc.members]
        for r in rows:
            u = u_stat_windowed(UKernelSpec(members[r.phi], r.h, r.t, cfg.kernel), s).value
            eu1, eu, _ = cache[1][r.h]
            k = tgrid.index(r.t)
            expectation = eu1[k] if r.phi == "one" else eu[ids.index(r.phi)][k]
            assert np.float64(r.raw).tobytes() == np.float64(abs(u - expectation)).tobytes()

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


# m = 2 cells on the band path and m = 3 cells streamed through the pairwise
# tree: every cell of their first sample sums more than EXACT_PATH_MAX tuples.
# The one replication of m3-one-rep has cells of up to 140,608 tuples, more
# than one leaf of a pool worker (2^17 values).
THREADED_CFGS = {
    "m1": {},
    "m2-band": {"function_class__m": 2, "function_class__members": ["sum"],
                "grids__quad_order": 16, "experiment__n_list": [256], "experiment__reps": 3},
    "m3-streamed": {"function_class__m": 3, "function_class__members": ["sum", "product"],
                    "regime__b0": 0.9, "grids__points_per_axis": 2, "grids__quad_order": 8,
                    "experiment__n_list": [40], "experiment__reps": 3},
    "m3-one-rep": {"function_class__m": 3, "function_class__members": ["sum", "product"],
                   "regime__b0": 0.9, "grids__points_per_axis": 2, "grids__quad_order": 8,
                   "experiment__n_list": [80], "experiment__reps": 1},
}


class TestOutputDeterminism:
    @staticmethod
    def assert_byte_identical_across_thread_counts(tmp_path, name):
        cfg = make_cfg(**THREADED_CFGS[name])
        if cfg.m > 1:
            n, tgrid = cfg.n_list[0], make_t_grid(cfg.t_interval, cfg.t_points, cfg.m)
            s = simulate(cfg.dgp, n, child_seed(cfg.seed, n, 0))
            grid = WindowGrid(s, bandwidths(cfg, n), tgrid, cfg.kernel)
            assert min(math.prod(b - a for a, b in (ranges[i] for i in cell))
                       for ranges in grid.ranges for cell in grid.cells) > EXACT_PATH_MAX
        outs = []
        for threads in (1, 2, 3, 4):
            d = tmp_path / str(threads)
            rate_experiment(cfg, out_dir=str(d), threads=threads)
            outs.append(
                {
                    f: (d / f).read_bytes()
                    for f in ("deviations.csv", "report.json", "config_echo.json")
                }
            )
        assert all(out == outs[0] for out in outs[1:])

    @pytest.mark.parametrize("name", list(THREADED_CFGS))
    def test_byte_identical_across_runs_and_thread_counts(self, tmp_path, name):
        self.assert_byte_identical_across_thread_counts(tmp_path, name)

    def test_one_rep_m3_is_byte_identical_under_frequent_thread_switches(self, tmp_path):
        # the interpreter hands the GIL over every microsecond, so the pool's
        # cells interleave far more finely than at the default 5 ms
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            self.assert_byte_identical_across_thread_counts(tmp_path, "m3-one-rep")
        finally:
            sys.setswitchinterval(interval)

    @staticmethod
    def frozen_deviations_csv_text(rows, m):
        """deviations.csv as it was built before it was streamed: the whole
        text at once, five format_float calls per row."""
        tcols = ",".join(f"t_{j + 1}" for j in range(m))
        lines = [f"stat,n,rep,h,{tcols},phi,raw_dev,normalized_dev,status"]
        for r in rows:
            ts = ",".join(format_float(v) for v in r.t)
            lines.append(
                f"{r.stat},{r.n},{r.rep},{format_float(r.h)},{ts},{r.phi},"
                f"{format_float(r.raw)},{format_float(r.normalized)},{r.status}"
            )
        return "\n".join(lines) + "\n"

    def test_streamed_csv_is_the_frozen_text_of_the_frozen_sort(self, tmp_path):
        # m = 2 at n = 16: small-h windows are empty, so some rows are NaN
        # with a non-ok status; the file spans several write batches
        doc = copy.deepcopy(BASE_DOC)
        doc["function_class"] = {"m": 2, "members": ["sum", "identity_j:2"],
                                 "regime": {"kind": "unbounded", "p": 3.0}}
        doc["regime"]["c"] = 0.1
        doc["grids"].update(points_per_axis=5, quad_order=8)
        doc["experiment"].update(n_list=[16, 64], reps=3)
        cfg = parse_config(doc)
        rep = rate_experiment(cfg, out_dir=str(tmp_path))
        assert len(rep.rows) > 2 * condu.kernels._WRITE_ROWS
        assert {r.status for r in rep.rows} > {"ok"}
        assert any(math.isnan(r.raw) for r in rep.rows)
        shuffled = list(rep.rows)
        random.Random(3).shuffle(shuffled)
        resorted = sorted(shuffled, key=ROW_ORDER)
        assert all(a is b for a, b in zip(resorted, rep.rows))
        want = self.frozen_deviations_csv_text(resorted, cfg.m).encode()
        assert (tmp_path / "deviations.csv").read_bytes() == want

    def test_writing_thirteen_thousand_rows_holds_no_whole_text(self, tmp_path):
        # the shape of an m = 1 sweep: 2 sizes x 10 reps x 8 bandwidths x
        # 21 points, two process rows (member and one) and one row for each
        # estimator statistic per cell
        cfg = make_cfg()
        rng = np.random.default_rng(5)
        hs = {n: sorted(rng.uniform(0.01, 0.4, 8).tolist()) for n in (500, 4000)}
        rows = tuple(
            DeviationRow(stat, n, rep, h, (t,), phi, raw, 3.0 * raw, "ok")
            for stat, phis in (("est_centering", ["identity_j:1"]),
                               ("est_truth", ["identity_j:1"]),
                               ("process", ["identity_j:1", "one"]))
            for n in hs
            for rep in range(10)
            for h in hs[n]
            for t in np.linspace(0.3, 0.7, 21).tolist()
            for phi, raw in zip(phis, rng.uniform(0.0, 0.1, 2).tolist())
        )
        assert len(rows) == 13_440
        report = RateReport(per_n={}, rows=rows, config=cfg.raw)
        tracemalloc.start()
        try:
            write_outputs(report, cfg, str(tmp_path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (tmp_path / "deviations.csv").stat().st_size > 1_000_000
        assert peak <= 1_500_000

    def test_csv_header_matches_arity(self, tmp_path):
        cfg = make_cfg()
        rate_experiment(cfg, out_dir=str(tmp_path))
        header = (tmp_path / "deviations.csv").read_text().splitlines()[0]
        assert header == "stat,n,rep,h,t_1,phi,raw_dev,normalized_dev,status"


class TestThreadCount:
    @pytest.mark.parametrize("threads", [0, -1, 1.5, True, _THREADS_BUDGET + 1])
    def test_bad_threads_raise_before_any_work(self, threads, tmp_path, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("work started")

        for name in ("ThreadPoolExecutor", "bandwidths", "make_t_grid", "simulate"):
            monkeypatch.setattr(condu.harness, name, no_work)
        with pytest.raises(SchemaError, match="threads"):
            rate_experiment(make_cfg(), out_dir=str(tmp_path / "out"), threads=threads)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name, threads, pools", [
        ("m1", 4, []), ("m2-band", 4, []), ("m3-one-rep", 1, []),
        ("m3-streamed", 2, [2]), ("m3-streamed", _THREADS_BUDGET, [_THREADS_BUDGET])])
    def test_only_m3_with_threads_builds_one_pool(self, monkeypatch, name, threads, pools):
        # m <= 2 and threads = 1 start no thread; at m = 3 the experiment's
        # replications share one pool of `threads` workers
        built = []

        class Pool(condu.harness.ThreadPoolExecutor):
            def __init__(self, max_workers):
                built.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(condu.harness, "ThreadPoolExecutor", Pool)
        before = threading.active_count()
        rate_experiment(make_cfg(**THREADED_CFGS[name]), threads=threads)
        assert built == pools
        if not pools:
            assert threading.active_count() == before


class TestRemainderDiagnostic:
    def test_bounded_class_with_large_threshold_has_no_remainder(self):
        cfg = make_cfg(
            function_class__members=["sum_clipped:2"],
            function_class__regime={"kind": "bounded", "M": 2.0},
        )
        with pytest.raises(BoundedClassHasNoRemainder):
            remainder_diagnostic(cfg, ell=10)

    def test_huge_epsilon_gates_everything_out(self):
        cfg = make_cfg(experiment__epsilon=1e6)
        diag = remainder_diagnostic(cfg, ell=7)
        assert diag["sup_normalized"] == 0.0
        assert diag["n"] == 128

    @pytest.mark.parametrize("m", [1, 2])
    def test_first_coordinate_weights_come_from_the_window_grid(self, m, monkeypatch):
        # the harness weighs coordinates 2..m itself: m - 1 kernel calls per
        # (bandwidth, grid point)
        calls = []

        def counted(*args):
            calls.append(None)
            return eval_scaled(*args)

        monkeypatch.setattr(condu.harness, "eval_scaled", counted)
        cfg = make_cfg(function_class__m=m,
                       function_class__members=["sum"] if m > 1 else ["identity_j:1"])
        diag = remainder_diagnostic(cfg, ell=7)
        points = len(make_t_grid(cfg.t_interval, cfg.t_points, m))
        assert len(calls) == (m - 1) * len(bandwidths(cfg, 128)) * points
        assert len(diag["cells"]) == len(bandwidths(cfg, 128)) * points

    def test_diagnostic_is_deterministic(self):
        cfg = make_cfg()
        a = remainder_diagnostic(cfg, ell=7)
        b = remainder_diagnostic(cfg, ell=7)
        assert a == b

    @staticmethod
    def overflowing_cfg(noise, noise_param):
        """A member y^1001 that overflows to inf wherever |y| > 2.03, on
        normal_linear draws with the given noise."""
        return parse_config({
            "dgp": {"id": "normal_linear", "noise": noise, "noise_param": noise_param},
            "kernel": {"id": "uniform"},
            "function_class": {"m": 1, "members": [{"id": "p", "poly": [[1, [1001]]]}],
                               "regime": {"kind": "unbounded", "p": 2.05}},
            "regime": {"c": 0.15, "b0": 0.25},
            "grids": {"interval": [0.3, 0.7], "points_per_axis": 5, "bn_rule": "fixed",
                      "quad_order": 32},
            "experiment": {"n_list": [500], "reps": 1, "seed": 1},
        })

    def test_member_overflowing_off_the_window_is_no_silent_zero(self):
        # the overflowing draws all lie outside every cell's window, so
        # they are zero terms and every cell has a finite deviation
        diag = remainder_diagnostic(self.overflowing_cfg("uniform", 0.25), 9)
        devs = [c["dev"] for c in diag["cells"]]
        assert len(devs) == 5
        assert all(math.isfinite(c["dev"]) and math.isfinite(c["mc_se"])
                   for c in diag["cells"])
        assert diag["sup_normalized"] == max(devs) > 0.0
        assert math.isfinite(diag["mc_se_at_sup"]) and diag["mc_se_at_sup"] > 0.0

    def test_member_overflowing_inside_a_window_raises(self):
        # gaussian noise reaches |y| > 2.03 inside a window, where the
        # Monte Carlo standard error overflows
        with pytest.raises(NonFiniteSum, match="se inf"):
            remainder_diagnostic(self.overflowing_cfg("gaussian", 0.3), 9)


def frozen_remainder_diagnostic(cfg, ell, rep=0):
    """remainder_diagnostic as it weighed the Monte Carlo draws before the
    windows: every coordinate's kernel on all 50,000 draws in every cell."""
    m, mc_draws = cfg.m, 50_000
    _, threshold = condu.harness.gamma_threshold(ell, cfg.epsilon, cfg.regime.p)
    n = 2 ** ell
    hs = bandwidths(cfg, n)
    tgrid = make_t_grid(cfg.t_interval, cfg.t_points, m)
    s = simulate(cfg.dgp, n, child_seed(cfg.seed, n, rep, 1))
    members = [condu.harness.remainder_member(phi, cfg.fc, cfg.kernel.kappa, threshold)
               for phi in cfg.fc.members]
    rng = np.random.Generator(np.random.Philox(child_seed(cfg.seed, n, rep, 2)))
    xs = np.asarray(cfg.dgp.sample_x(rng, mc_draws * m), dtype=float).reshape(mc_draws, m)
    ys = (cfg.dgp.regression(xs.ravel())
          + cfg.dgp.noise.draw(rng, (mc_draws * m,))).reshape(mc_draws, m)
    gated = {g.id: np.asarray(g.eval(ys), dtype=float) for g in members}
    us = WindowGrid(s, hs, tgrid, cfg.kernel).u_stats(members)
    sup_val, sup_se, cells = 0.0, 0.0, []
    for q, h in enumerate(hs):
        norm = normalizer(n, h, m)
        for k, t in enumerate(tgrid):
            w = np.ones(mc_draws)
            for j in range(m):
                w *= eval_scaled(cfg.kernel, h, t[j] - xs[:, j])
            for g, g_us in zip(members, us):
                u = g_us[q][k].value
                samples = gated[g.id] * w
                eu = float(np.mean(samples))
                se = float(np.std(samples, ddof=1)) / math.sqrt(mc_draws)
                dev = norm * abs(u - eu)
                cells.append({"phi": g.id, "h": h, "t": list(t), "dev": dev, "mc_se": norm * se})
                if dev > sup_val:
                    sup_val, sup_se = dev, norm * se
    return {"ell": ell, "n": n, "threshold": threshold, "sup_normalized": sup_val,
            "mc_se_at_sup": sup_se, "cells": cells}


SIGNED_TABLE = table_kernel([-0.5, -0.25, 0.0, 0.25, 0.5], [-0.5, 1.0, 2.0, 1.0, -0.5])


class TestRemainderWindows:
    @settings(max_examples=12, deadline=None)
    @given(m=st.integers(1, 2), members=st.sampled_from([["identity_j:1"], ["sum", "max"]]),
           kernel=st.sampled_from(["uniform", "epanechnikov-rescaled", "table"]),
           dgp=st.sampled_from(["uniform_linear", "normal_linear"]),
           interval=st.sampled_from([[0.3, 0.7], [0.0, 1.0], [-0.2, 0.05]]),
           points=st.integers(1, 3), ell=st.integers(5, 8), epsilon=st.sampled_from([0.05, 1.0]),
           seed=st.integers(0, 2 ** 16))
    def test_windowed_weights_are_the_full_loop_bit_for_bit(
            self, m, members, kernel, dgp, interval, points, ell, epsilon, seed):
        # a signed kernel makes the full loop's weights -0.0 at some draws
        # outside the window, where the windowed ones are +0.0; neither
        # reaches dev or mc_se
        if m == 1:
            members = ["identity_j:1"]
        cfg = make_cfg(dgp__id=dgp, function_class__m=m, function_class__members=members,
                       grids__interval=interval, grids__points_per_axis=points,
                       experiment__epsilon=epsilon, experiment__seed=seed,
                       kernel__id="uniform" if kernel == "table" else kernel)
        if kernel == "table":
            cfg = dataclasses.replace(cfg, kernel=SIGNED_TABLE)
        got = remainder_diagnostic(cfg, ell)
        assert pickle.dumps(got) == pickle.dumps(frozen_remainder_diagnostic(cfg, ell))
