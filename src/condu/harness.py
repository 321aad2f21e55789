"""Monte Carlo harness: bandwidth-sweep experiments with deterministic output.

Every random draw is keyed by (master seed, n, rep) through a counter-based
generator, rows are canonically sorted, and deviations.csv streams through
the package's one CSV writer (kernels.write_csv), whose floats take 17
significant digits, so two runs of the same config produce byte-identical
files regardless of the --threads count, and of the BLAS thread count, which
the package pins to one at import (kernels.pin_blas).
"""

import itertools
import json
import math
import operator
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bandwidth import (
    dyadic_bandwidths,
    gamma_threshold,
    lower_bandwidth,
    normalizer,
    truncate_split,
)
from .config import _ROWS_BUDGET, within
from .errors import BoundedClassHasNoRemainder, EmptyBandwidthRange, NonFiniteSum
from .estimator import centering_ratio, estimate_grid, expected_u_grid, true_regression
from .function_class import FunctionSpec, envelope_tilde
from .kernels import atomic_write, eval_scaled, format_float, write_csv
from .ucore import Sample, WindowGrid, _window_bounds

# importable from here only for the benchmark's tracer, which rebinds them;
# the sweeps evaluate whole grids through estimate_grid and WindowGrid, and
# the expectation cache through expected_u_grid
from .estimator import expected_u, expected_u_one  # noqa: F401
from .function_class import builtin_member  # noqa: F401
from .ucore import u_stat_windowed  # noqa: F401


def child_seed(master, *key):
    """Independent per-task stream: a spawn key derived from integer labels."""
    return np.random.SeedSequence(master, spawn_key=tuple(int(k) for k in key))


def simulate(dgp, n, seed):
    """Draw a sample of size n from the data-generating process.

    `seed` may be an int or a SeedSequence; the generator is counter-based so
    the draw is a pure function of the seed.
    """
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(int(seed))
    rng = np.random.Generator(np.random.Philox(seed))
    x = np.asarray(dgp.sample_x(rng, n), dtype=float)
    y = dgp.simulate_y_given_x(x, rng)
    return Sample(x, y)


def make_t_grid(interval, points, m):
    """Tensor grid of evaluation points over interval^m."""
    lo, hi = interval
    axis = np.linspace(lo, hi, points)
    return tuple(itertools.product(*([tuple(axis)] * m)))


def bandwidth_cap(cfg, n):
    """Upper end of the sweep: fixed b0, or b0 / log n under the decaying rule."""
    if cfg.bn_rule == "fixed":
        return cfg.regime.b0
    return cfg.regime.b0 / math.log(n)


def bandwidths(cfg, n):
    """Dyadic sweep grid anchored at the rate lower bound for this n:
    h_j^m = 2^j a_n^m while h_j stays below the cap."""
    a = lower_bandwidth(cfg.regime, n)
    cap = bandwidth_cap(cfg, n)
    limit = cap * (1.0 + 1e-12)
    if a > limit:
        raise EmptyBandwidthRange(
            f"rate anchor {a:.6g} exceeds the bandwidth cap {cap:.6g} at n={n}"
        )
    return tuple(dyadic_bandwidths(a, cfg.m, limit))


class DeviationRow(NamedTuple):
    stat: str  # "process" | "est_centering" | "est_truth"
    n: int
    rep: int
    h: float
    t: tuple
    phi: str
    raw: float
    normalized: float
    status: str


# the canonical row order: (stat, n, rep, h, t, phi)
ROW_ORDER = operator.itemgetter(0, 1, 2, 3, 4, 5)


def expectation_cache(cfg, n, hs, tgrid):
    """The population table for every replication at this n, as (truth,
    table): truth[i][k] is member i's closed-form regression at grid point
    k, and table[h] = (eu1[k], eu[i][k], cent[i][k]) holds E U_n(1), member
    i's E U_n and its centering ratio at bandwidth h. A member without a
    closed form (NoClosedFormConditional) or a zero-density window
    (ZeroDensityWindow, see estimator.centering_ratio) raises here, before
    any replication runs.
    """
    grid = np.asarray(tgrid, dtype=float)
    truth = [true_regression(cfg.dgp, phi, grid).tolist() for phi in cfg.fc.members]
    table = {}
    for h in hs:
        den, nums = expected_u_grid(
            cfg.dgp, cfg.fc.members, cfg.kernel, h, tgrid, cfg.quad_order
        )
        eu1, eu = den.tolist(), nums.tolist()
        cent = [[centering_ratio(e, d, h, t) for e, d, t in zip(row, eu1, tgrid)]
                for row in eu]
        table[h] = (eu1, eu, cent)
    return truth, table


def sweep_cells(cfg, s, n, rep, hs, tgrid, cache):
    """One replication: every (h, t, phi) cell, three deviation statistics.

    "process" compares the raw kernel-weighted U-statistic to its expectation;
    "est_centering" compares the ratio estimate to its population centering;
    "est_truth" compares it to the closed-form regression function. The
    normalized column applies sqrt(n h^m / (|log h| v loglog n)) to the raw
    deviation for every statistic; consistency summaries use the raw column.
    `cache` is expectation_cache's table for hs and tgrid.
    """
    truth, table = cache
    rows = []
    cells = estimate_grid(cfg.fc.members, hs, tgrid, s, cfg.kernel)
    for h, h_cells in zip(hs, cells):
        norm = normalizer(n, h, cfg.m)
        eu1, eu, cent = table[h]
        for k, (t, t_cells) in enumerate(zip(tgrid, h_cells)):
            devs = [("process", "one", abs(t_cells[0].denominator - eu1[k]), "ok")]
            for i, c in enumerate(t_cells):
                devs.append(("process", c.phi, abs(c.numerator - eu[i][k]), "ok"))
                if c.status != "ok":
                    nan = float("nan")
                    devs += [("est_centering", c.phi, nan, c.status),
                             ("est_truth", c.phi, nan, c.status)]
                    continue
                devs += [("est_centering", c.phi, abs(c.mhat - cent[i][k]), "ok"),
                         ("est_truth", c.phi, abs(c.mhat - truth[i][k]), "ok")]
            rows += [DeviationRow(stat, n, rep, h, t, phi, raw, norm * raw, status)
                     for stat, phi, raw, status in devs]
    return rows


def bias_from_cache(cfg, hs, tgrid, cache):
    """max over members, bandwidths in hs and grid points of |centering -
    truth|, read from expectation_cache's table."""
    truth, table = cache
    return max([0.0] + [abs(c - m) for h in hs
                        for cents, truths in zip(table[h][2], truth)
                        for c, m in zip(cents, truths)])


def bias_at_cap(cfg, n, tgrid):
    """|centering - truth| maximized over members and grid at the cap
    bandwidth b_n itself, where the bias over [a_n, b_n] peaks."""
    hs = (bandwidth_cap(cfg, n),)
    return bias_from_cache(cfg, hs, tgrid, expectation_cache(cfg, n, hs, tgrid))


def remainder_member(phi, fc, kappa, threshold):
    """phi gated to the region where the symmetrized envelope exceeds the
    truncation level; its U-statistic is the remainder term of the split."""
    split = truncate_split(phi.eval, lambda ys: envelope_tilde(fc, kappa, ys), threshold)
    return FunctionSpec(f"{phi.id}|remainder", split.remainder, phi.m)


def remainder_diagnostic(cfg, ell, rep=0):
    """Normalized supremum of the truncation-remainder U-process at block ell.

    Works at the block sample size n = 2^ell with the truncation level
    eps * (n / log n)^{1/p}; a bounded class has no p, and raises
    BoundedClassHasNoRemainder. The expectation of the remainder
    U-statistic has no closed form, so it is estimated by 50,000 shared
    Monte Carlo draws; the returned mc_se quantifies that error at the
    supremum cell; a non-finite mean or mc_se raises NonFiniteSum.
    """
    m, mc_draws = cfg.m, 50_000
    if cfg.regime.kind == "bounded":
        raise BoundedClassHasNoRemainder(
            "bounded class: no moment order p to form a truncation level"
        )
    _, threshold = gamma_threshold(ell, cfg.epsilon, cfg.regime.p)

    n = 2 ** ell
    hs = bandwidths(cfg, n)
    tgrid = make_t_grid(cfg.t_interval, cfg.t_points, m)
    s = simulate(cfg.dgp, n, child_seed(cfg.seed, n, rep, 1))
    members = [
        remainder_member(phi, cfg.fc, cfg.kernel.kappa, threshold)
        for phi in cfg.fc.members
    ]

    # shared Monte Carlo draws for every cell's expectation
    rng = np.random.Generator(np.random.Philox(child_seed(cfg.seed, n, rep, 2)))
    xs = np.asarray(cfg.dgp.sample_x(rng, mc_draws * m), dtype=float).reshape(
        mc_draws, m
    )
    ys = cfg.dgp.simulate_y_given_x(xs.ravel(), rng).reshape(mc_draws, m)
    gated = {
        g.id: np.asarray(g.eval(ys), dtype=float) for g in members
    }

    # a draw outside the first coordinate's window weighs 0.0, so each cell
    # evaluates the kernel only on the draws inside it, found in the draws
    # sorted by that coordinate. A draw outside or of weight 0.0 is a +0.0
    # term, never g * 0.0, which is NaN where g overflows; the terms are the
    # full products' up to the sign of a zero, which cannot reach dev or mc_se.
    order = np.argsort(xs[:, 0], kind="stable")
    x0 = xs[order, 0]

    us = WindowGrid(s, hs, tgrid, cfg.kernel).u_stats(members)
    sup_val, sup_se, cells = 0.0, 0.0, []
    for q, h in enumerate(hs):
        norm = normalizer(n, h, m)
        lo, hi = _window_bounds(x0, h, [t[0] for t in tgrid])
        for k, t in enumerate(tgrid):
            inside = order[lo[k]:hi[k]]
            wk = np.ones(inside.size)
            for j in range(m):
                wk *= eval_scaled(cfg.kernel, h, t[j] - xs[inside, j])
            weighed = wk != 0.0
            inside, wk = inside[weighed], wk[weighed]
            for g, g_us in zip(members, us):
                u = g_us[q][k].value
                samples = np.zeros(mc_draws)
                samples[inside] = gated[g.id][inside] * wk
                eu = float(np.mean(samples))
                se = float(np.std(samples, ddof=1)) / math.sqrt(mc_draws)
                if not (math.isfinite(eu) and math.isfinite(se)):
                    raise NonFiniteSum(f"remainder {g.id} h={h}, t={t}: mean {eu}, se {se}")
                dev = norm * abs(u - eu)
                cells.append(
                    {"phi": g.id, "h": h, "t": list(t), "dev": dev, "mc_se": norm * se}
                )
                if dev > sup_val:
                    sup_val, sup_se = dev, norm * se
    return {
        "ell": ell,
        "n": n,
        "threshold": threshold,
        "sup_normalized": sup_val,
        "mc_se_at_sup": sup_se,
        "cells": cells,
    }


@dataclass(frozen=True)
class RateReport:
    per_n: dict
    rows: tuple
    config: dict


def rate_experiment(cfg, out_dir=None, threads=1, include_remainder=False):
    """Full sweep over n_list x reps x bandwidths x grid x members.

    Returns a RateReport; when out_dir is given also writes deviations.csv,
    report.json and config_echo.json atomically. Output bytes are independent
    of `threads`. Every n's bandwidths and the total row count are checked
    before any work.
    """
    tgrid = make_t_grid(cfg.t_interval, cfg.t_points, cfg.m)
    grids = {n: bandwidths(cfg, n) for n in cfg.n_list}
    per_cell = cfg.reps * len(tgrid) * (1 + 3 * len(cfg.fc.members))
    within(per_cell * sum(map(len, grids.values())), 0, "rows (n_list x reps x "
           "points_per_axis^m x bandwidths x (1 + 3 members))", _ROWS_BUDGET)
    all_rows = []
    per_n = {}
    for n, hs in grids.items():
        cache = expectation_cache(cfg, n, hs, tgrid)

        def _one_rep(rep):
            s = simulate(cfg.dgp, n, child_seed(cfg.seed, n, rep))
            return sweep_cells(cfg, s, n, rep, hs, tgrid, cache)

        with ThreadPoolExecutor(max_workers=threads) as pool:
            chunks = list(pool.map(_one_rep, range(cfg.reps)))
        n_rows = [row for chunk in chunks for row in chunk]
        all_rows.extend(n_rows)

        entry = {
            "anchor": lower_bandwidth(cfg.regime, n),
            "cap": bandwidth_cap(cfg, n),
            "bandwidths": list(hs),
            "bias_sup": max(
                bias_from_cache(cfg, hs, tgrid, cache), bias_at_cap(cfg, n, tgrid)
            ),
            "cells_total": len(n_rows),
            "cells_ok": sum(1 for r in n_rows if r.status == "ok"),
        }
        summaries = {
            "sup_normalized_process": ("process", "normalized"),
            "sup_normalized_estimator": ("est_centering", "normalized"),
            "sup_consistency": ("est_truth", "raw"),
        }
        for key, (stat, fieldname) in summaries.items():
            # each replication's supremum over its own ok rows
            sups = [max([getattr(r, fieldname) for r in chunk
                         if r.stat == stat and r.status == "ok"], default=float("nan"))
                    for chunk in chunks]
            entry[f"{key}_per_rep"] = sups
            finite = [v for v in sups if not math.isnan(v)]
            entry[key] = max(finite) if finite else float("nan")
            entry[f"{key}_mean"] = float(np.mean(finite)) if finite else float("nan")
        if include_remainder and cfg.regime.kind != "bounded":
            ell = max(2, math.ceil(math.log2(n)))
            diag = remainder_diagnostic(cfg, ell)
            entry["remainder_sup"] = diag["sup_normalized"]
            entry["remainder"] = {
                k: diag[k] for k in ("ell", "n", "threshold", "sup_normalized",
                                     "mc_se_at_sup")
            }
        per_n[n] = entry

    all_rows.sort(key=ROW_ORDER)
    report = RateReport(per_n=per_n, rows=tuple(all_rows), config=cfg.raw)
    if out_dir is not None:
        write_outputs(report, cfg, out_dir)
    return report


def write_outputs(report, cfg, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    tcols = ",".join(f"t_{j + 1}" for j in range(cfg.m))

    def rows():
        cells = {}  # the text of h and t, formatted once per grid cell (h, t)
        for stat, n, rep, h, t, phi, raw, normalized, status in report.rows:
            cell = cells.get((h, t))
            if cell is None:
                cell = cells[h, t] = ",".join(map(format_float, (h, *t)))
            yield stat, n, rep, cell, phi, raw, normalized, status

    write_csv(os.path.join(out_dir, "deviations.csv"),
              f"stat,n,rep,h,{tcols},phi,raw_dev,normalized_dev,status", rows())
    doc = {"per_n": {str(n): v for n, v in report.per_n.items()}}
    for name, obj in (("report.json", doc), ("config_echo.json", report.config)):
        text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
        atomic_write(os.path.join(out_dir, name), text)
