"""Acceptance suite: one test per criterion, tolerances pinned.

Each test prints a single `[criterion N] PASS` line on success and asserts
its own runtime budget.
"""

import copy
import math
import time

import numpy as np
import pytest

from condu.config import parse_config
from condu.estimator import centering, convolve, make_dgp
from condu.function_class import builtin_member
from condu.harness import (
    bandwidths,
    bias_at_cap,
    bias_from_cache,
    expectation_cache,
    make_t_grid,
    rate_experiment,
    remainder_diagnostic,
)
from condu.hoeffding import (
    ReferenceMeasure,
    decomposition_check,
    degeneracy_check,
    nesting_check,
    project,
    projection_variance_check,
    variance_bound_check,
)
from condu.kernels import get_kernel
from condu.ucore import (
    UKernelSpec,
    u_stat_brute,
    u_stat_windowed,
    ukernel_scalar,
)
from conftest import make_rng, random_sample


UNIF = get_kernel("uniform")
EPA = get_kernel("epanechnikov-rescaled")


def _done(num, detail, t0, budget):
    elapsed = time.monotonic() - t0
    assert elapsed < budget, f"criterion {num} exceeded {budget}s ({elapsed:.1f}s)"
    print(f"[criterion {num}] PASS ({elapsed:.1f}s): {detail}")


def _random_phi(rng, m):
    ids = ["sum", "product", "one", "max", f"identity_j:{rng.integers(1, m + 1)}",
           "indicator_leq:0.5"]
    return builtin_member(ids[rng.integers(len(ids))], m)


def _random_symmetric_poly(rng):
    c = rng.normal(0.0, 1.0, 5)

    def L(xs, ys, _c=c):
        sy = math.fsum(ys)
        sx = math.fsum(xs)
        py = 1.0
        for y in ys:
            py *= y
        return _c[0] + _c[1] * sy + _c[2] * py + _c[3] * sx + _c[4] * sy * sy

    return L


def _random_measure(rng, natoms):
    w = rng.random(natoms) + 0.1
    w = w / w.sum()
    return ReferenceMeasure(rng.uniform(0, 1, natoms), rng.normal(0, 1, natoms), w)


def test_criterion_01_windowed_matches_brute_oracle():
    t0 = time.monotonic()
    rng = make_rng(1001)
    kernels = [UNIF, EPA, get_kernel("triweight-rescaled")]
    worst = 0.0
    for _ in range(200):
        n = int(rng.choice([10, 25, 50]))
        m = int(rng.integers(1, 4))
        s = random_sample(rng, n)
        h = float(rng.uniform(0.1, 0.9))
        t = tuple(rng.uniform(0.2, 0.8, m))
        spec = UKernelSpec(_random_phi(rng, m), h, t, kernels[rng.integers(3)])
        brute = u_stat_brute(ukernel_scalar(spec), s, m).value
        fast = u_stat_windowed(spec, s).value
        rel = abs(fast - brute) / (1.0 + abs(brute))
        worst = max(worst, rel)
        assert rel <= 1e-12
    _done(1, f"200 configs, worst relative gap {worst:.2e} <= 1e-12", t0, 60)


def test_criterion_02_hoeffding_decomposition_identity():
    t0 = time.monotonic()
    rng = make_rng(1002)
    worst = 0.0
    for case in range(50):
        if case % 2 == 0:
            m, n, natoms = 2, int(rng.integers(4, 21)), int(rng.integers(3, 7))
        else:
            m, n, natoms = 3, int(rng.integers(4, 13)), int(rng.integers(3, 5))
        L = _random_symmetric_poly(rng)
        s = random_sample(rng, n)
        Q = _random_measure(rng, natoms)
        res = decomposition_check(L, m, s, Q)
        worst = max(worst, res)
        assert res <= 1e-10
    _done(2, f"50 cases, worst residual {worst:.2e} <= 1e-10", t0, 120)


def test_criterion_03_degeneracy_nesting_and_projection_inequalities():
    t0 = time.monotonic()
    rng = make_rng(1003)
    w_deg = w_nest = w_proj = 0.0
    for _ in range(50):
        m = int(rng.integers(1, 4))
        natoms = int(rng.integers(3, 5))
        L = _random_symmetric_poly(rng)
        Q = _random_measure(rng, natoms)

        k = int(rng.integers(1, m + 1))
        res = degeneracy_check(project(L, m, k, Q), Q)
        w_deg = max(w_deg, res)
        assert res <= 1e-12

        l = int(rng.integers(k, m + 1))
        probes = [
            (tuple(rng.uniform(0, 1, k)), tuple(rng.normal(0, 1, k)))
            for _ in range(3)
        ]
        res = nesting_check(L, m, k, l, Q, probes)
        w_nest = max(w_nest, res)
        assert res <= 1e-10

        lhs, mid, rhs = projection_variance_check(L, m, k, Q)
        w_proj = max(w_proj, lhs - mid, mid - rhs)
        assert lhs <= mid + 1e-10
        assert mid <= rhs + 1e-10
    _done(
        3,
        f"50 cases each: degeneracy {w_deg:.2e} <= 1e-12, nesting {w_nest:.2e} "
        f"<= 1e-10, variance ordering slack {max(w_proj, 0.0):.2e} <= 1e-10",
        t0, 60,
    )


def test_criterion_04_variance_bound():
    t0 = time.monotonic()
    dgps = {
        1: make_dgp("uniform_linear", "gaussian", 0.5),
        2: make_dgp("uniform_quadratic", "uniform", 0.5),
    }
    kernels = {1: lambda xs, ys: ys[..., 0], 2: lambda xs, ys: ys[..., 0] * ys[..., 1]}
    lines = []
    for m in (1, 2):
        for n in (50, 200):
            emp, bound, se = variance_bound_check(
                kernels[m], m, dgps[m], n, 2000, seed=1004 + m * 10 + n
            )
            assert emp <= bound + 3 * se
            lines.append(f"m={m},n={n}: {emp:.2e} <= {bound:.2e}+3se")
    _done(4, "; ".join(lines), t0, 120)


def test_criterion_05_convolution_engine():
    t0 = time.monotonic()
    rng = make_rng(1005)
    worst = 0.0
    for _ in range(100):
        h = float(rng.uniform(0.05, 1.0))
        z = float(rng.uniform(-2.0, 2.0))
        v = convolve(lambda p: np.cos(p[:, 0]), UNIF, h, (z,))
        closed = 2.0 * math.sin(h / 2.0) * math.cos(z) / h
        worst = max(worst, abs(v - closed))
        assert abs(v - closed) <= 1e-10

    for c in (1.0, -3.5, 0.25):
        for kern in (UNIF, EPA):
            v = convolve(lambda p, _c=c: np.full(p.shape[0], _c), kern, 0.3, (0.1,))
            assert v == pytest.approx(c, abs=1e-12)

    zs = np.linspace(0.0, 1.0, 41)
    sup = {
        h: max(
            abs(convolve(lambda p: np.cos(p[:, 0]), UNIF, h, (z,)) - math.cos(z))
            for z in zs
        )
        for h in (0.2, 0.1)
    }
    ratio = sup[0.2] / sup[0.1]
    assert 3.5 <= ratio <= 4.5
    _done(
        5,
        f"100 closed-form pairs worst {worst:.2e} <= 1e-10; constants exact; "
        f"halving h shrinks the cosine bias by {ratio:.3f} in [3.5, 4.5]",
        t0, 30,
    )


def test_criterion_06_centering_exactness():
    t0 = time.monotonic()
    lin = make_dgp("uniform_linear", "gaussian", 0.5)
    quad = make_dgp("uniform_quadratic", "gaussian", 0.5)

    assert centering(builtin_member("one", 2), 0.2, (0.5, 0.5), lin, EPA) == 1.0

    errs_lin = [
        abs(centering(builtin_member("identity_j:1", 1), h, (t,), lin, EPA) - t)
        for h in (0.1, 0.2) for t in (0.4, 0.5, 0.6)
    ]
    assert max(errs_lin) <= 1e-8

    errs_quad = [
        abs(
            centering(builtin_member("identity_j:1", 1), h, (t,), quad, UNIF)
            - (t ** 2 + h ** 2 / 12.0)
        )
        for h in (0.1, 0.2) for t in (0.4, 0.5, 0.6)
    ]
    assert max(errs_quad) <= 1e-8
    _done(
        6,
        f"constant exact; linear within {max(errs_lin):.2e}; quadratic matches "
        f"t^2 + h^2/12 within {max(errs_quad):.2e}",
        t0, 30,
    )


def _cfg(doc_overrides):
    doc = {
        "dgp": {"id": "uniform_linear", "noise": "gaussian", "noise_param": 0.3},
        "kernel": {"id": "uniform"},
        "function_class": {
            "m": 1,
            "members": ["identity_j:1"],
            "regime": {"kind": "unbounded", "p": 2.05},
        },
        "grids": {
            "interval": [0.3, 0.7],
            "points_per_axis": 11,
            "bn_rule": "fixed",
            "quad_order": 32,
        },
        "regime": {"c": 0.15, "b0": 0.25},
        "experiment": {"n_list": [500, 4000], "reps": 5, "seed": 20260823},
    }
    doc = copy.deepcopy(doc)
    for dotted, v in doc_overrides.items():
        sec, key = dotted.split("__")
        doc[sec][key] = v
    return parse_config(doc)


def test_criterion_07_bias_sup_decreases_under_decaying_cap():
    t0 = time.monotonic()
    cfg = _cfg({
        "dgp__id": "uniform_quadratic",
        "function_class__regime": {"kind": "bounded", "M": 2.0},
        "regime__c": 1.0,
        "regime__b0": 0.9,
        "grids__bn_rule": "decaying",
        "grids__points_per_axis": 5,
        "experiment__n_list": [500, 1000, 2000, 4000],
    })
    tgrid = make_t_grid(cfg.t_interval, cfg.t_points, cfg.m)
    biases = []
    for n in cfg.n_list:
        hs = bandwidths(cfg, n)
        cache = expectation_cache(cfg, hs, tgrid)
        biases.append(
            max(bias_from_cache(hs, cache), bias_at_cap(cfg, n, tgrid))
        )
    for prev, cur in zip(biases[:-1], biases[1:]):
        assert cur <= prev + 1e-10
    _done(
        7,
        "bias_sup over n in {500,1000,2000,4000}: "
        + " >= ".join(f"{b:.5f}" for b in biases),
        t0, 120,
    )


def test_criterion_08_normalized_process_sup_stays_bounded():
    t0 = time.monotonic()
    n_list = [500, 1000, 2000, 4000]
    bounded = _cfg({
        "dgp__noise": "uniform",
        "dgp__noise_param": 0.25,
        "function_class__m": 2,
        "function_class__members": ["sum_clipped:2.5"],
        "function_class__regime": {"kind": "bounded", "M": 2.5},
        "regime__c": 1.0,
        "regime__b0": 0.25,
        "grids__points_per_axis": 21,
        "grids__quad_order": 20,
        "experiment__n_list": n_list,
        "experiment__reps": 3,
    })
    unbounded = _cfg({
        "dgp__noise_param": 0.5,
        "function_class__m": 2,
        "function_class__members": ["product"],
        "function_class__regime": {"kind": "unbounded", "p": 3.0},
        "regime__c": 0.5,
        "regime__b0": 0.35,
        "grids__points_per_axis": 21,
        "grids__quad_order": 20,
        "experiment__n_list": n_list,
        "experiment__reps": 3,
    })
    sups = {n: 0.0 for n in n_list}
    for cfg in (bounded, unbounded):
        rep = rate_experiment(cfg)
        for n in n_list:
            sups[n] = max(sups[n], rep.per_n[n]["sup_normalized_process"])
    vals = [sups[n] for n in n_list]
    top, bottom = max(vals[2:]), max(vals[:2])
    assert top <= 1.5 * bottom
    _done(
        8,
        f"per-n normalized process sups {['%.3f' % v for v in vals]}; "
        f"max(top two) {top:.3f} <= 1.5 x max(bottom two) {1.5 * bottom:.3f}",
        t0, 600,
    )


def test_criterion_09_uniform_consistency_halves():
    t0 = time.monotonic()
    cfg = _cfg({"grids__points_per_axis": 21, "experiment__reps": 10})
    rep = rate_experiment(cfg)
    s500 = rep.per_n[500]["sup_consistency"]
    s4000 = rep.per_n[4000]["sup_consistency"]
    assert s4000 <= 0.5 * s500
    _done(
        9,
        f"sup_consistency 4000 = {s4000:.4f} <= 0.5 x sup_consistency 500 "
        f"= {0.5 * s500:.4f}",
        t0, 600,
    )


def test_criterion_10_remainder_diagnostic_trend():
    t0 = time.monotonic()
    cfg = _cfg({
        "dgp__noise_param": 2.0,
        "function_class__regime": {"kind": "unbounded", "p": 3.0},
        "regime__c": 0.4,
        "regime__b0": 0.3,
        "grids__points_per_axis": 5,
    })
    reps = 3
    levels, noises = [], []
    for ell in (9, 10, 11, 12):
        diags = [remainder_diagnostic(cfg, ell, rep=r) for r in range(reps)]
        vals = np.array([d["sup_normalized"] for d in diags])
        mc = max(d["mc_se_at_sup"] for d in diags)
        levels.append(float(vals.mean()))
        noises.append(float(vals.std(ddof=1)) / math.sqrt(reps) + mc)
    for i in range(len(levels) - 1):
        slack = 2.0 * math.hypot(noises[i], noises[i + 1])
        assert levels[i + 1] <= levels[i] + slack
    _done(
        10,
        "remainder sup across 4 doublings: "
        + " -> ".join(f"{v:.4f}" for v in levels)
        + " (nonincreasing within 2x MC noise)",
        t0, 300,
    )


def test_criterion_11_byte_identical_reruns(tmp_path):
    t0 = time.monotonic()
    cfg_doc = {
        "experiment__n_list": [500, 1000],
        "experiment__reps": 2,
    }
    outs = []
    for name, threads in (("r1", 1), ("r2", 4)):
        d = tmp_path / name
        rate_experiment(_cfg(cfg_doc), out_dir=str(d), threads=threads)
        outs.append({f: (d / f).read_bytes() for f in ("deviations.csv", "report.json")})
    assert outs[0] == outs[1]
    _done(
        11,
        "rates twice (threads 1 vs 4): deviations.csv and report.json "
        "byte-identical",
        t0, 300,
    )
