"""Monte Carlo harness: bandwidth-sweep experiments with deterministic output.

Every random draw is keyed by (master seed, n, rep) through a counter-based
generator, rows are canonically sorted, and floats are serialized with 17
significant digits, so two runs of the same config produce byte-identical
files regardless of thread count.
"""

import itertools
import json
import math
import operator
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .bandwidth import (
    dyadic_bandwidths,
    gamma_threshold,
    lower_bandwidth,
    normalizer,
    truncate_split,
)
from .errors import BoundedClassHasNoRemainder, EmptyBandwidthRange
from .estimator import (
    centering_ratio,
    estimate_grid,
    expected_u,
    expected_u_one,
    true_regression,
)
from .function_class import FunctionSpec, envelope_tilde
from .kernels import atomic_write, eval_scaled
from .ucore import Sample, WindowGrid

# importable from here only for the benchmark's tracer, which rebinds them;
# the sweeps evaluate whole grids through estimate_grid and WindowGrid
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

    @property
    def sort_key(self):
        return (self.stat, self.n, self.rep, self.h, self.t, self.phi)


def expectation_cache(cfg, n, hs, tgrid):
    """Population quantities shared by every replication at this n.

    Keys: ("EU1", h, t) for the denominator, ("EU", phi, h, t) for numerators,
    ("m", phi, t) for the closed-form regression. A member without a closed
    form raises NoClosedFormConditional here, before any convolution.
    """
    cache = {}
    for t in tgrid:
        for phi in cfg.fc.members:
            cache[("m", phi.id, t)] = float(true_regression(cfg.dgp, phi, np.asarray(t)))
    for h in hs:
        for t in tgrid:
            cache[("EU1", h, t)] = expected_u_one(
                cfg.dgp, cfg.m, cfg.kernel, h, t, cfg.quad_order
            )
            for phi in cfg.fc.members:
                cache[("EU", phi.id, h, t)] = expected_u(
                    cfg.dgp, phi, cfg.kernel, h, t, cfg.quad_order
                )
    return cache


def sweep_cells(cfg, s, n, rep, hs, tgrid, cache):
    """One replication: every (h, t, phi) cell, three deviation statistics.

    "process" compares the raw kernel-weighted U-statistic to its expectation;
    "est_centering" compares the ratio estimate to its population centering;
    "est_truth" compares it to the closed-form regression function. The
    normalized column applies sqrt(n h^m / (|log h| v loglog n)) to the raw
    deviation for every statistic; consistency summaries use the raw column.
    """
    rows = []
    cells = estimate_grid(cfg.fc.members, hs, tgrid, s, cfg.kernel)
    for h, h_cells in zip(hs, cells):
        norm = normalizer(n, h, cfg.m)
        for t, t_cells in zip(tgrid, h_cells):
            eu1 = cache[("EU1", h, t)]
            devs = [("process", "one", abs(t_cells[0].denominator - eu1), "ok")]
            for c in t_cells:
                eu = cache[("EU", c.phi, h, t)]
                devs.append(("process", c.phi, abs(c.numerator - eu), "ok"))
                if c.status != "ok":
                    nan = float("nan")
                    devs += [("est_centering", c.phi, nan, c.status),
                             ("est_truth", c.phi, nan, c.status)]
                    continue
                cent = centering_ratio(eu, eu1, h, t)
                truth = cache[("m", c.phi, t)]
                devs += [("est_centering", c.phi, abs(c.mhat - cent), "ok"),
                         ("est_truth", c.phi, abs(c.mhat - truth), "ok")]
            rows += [DeviationRow(stat, n, rep, h, t, phi, raw, norm * raw, status)
                     for stat, phi, raw, status in devs]
    return rows


def bias_from_cache(cfg, hs, tgrid, cache):
    """max over members, bandwidths and grid points of |centering - truth|,
    reusing the cached convolutions; a zero-density grid point raises
    ZeroDensityWindow (see estimator.centering_ratio)."""
    worst = 0.0
    for phi in cfg.fc.members:
        for h in hs:
            for t in tgrid:
                cent = centering_ratio(
                    cache[("EU", phi.id, h, t)], cache[("EU1", h, t)], h, t
                )
                worst = max(worst, abs(cent - cache[("m", phi.id, t)]))
    return worst


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
    supremum cell.
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
    config: dict = field(default_factory=dict)


def rate_experiment(cfg, out_dir=None, threads=1, include_remainder=False):
    """Full sweep over n_list x reps x bandwidths x grid x members.

    Returns a RateReport; when out_dir is given also writes deviations.csv,
    report.json and config_echo.json atomically. Output bytes are independent
    of `threads`.
    """
    tgrid = make_t_grid(cfg.t_interval, cfg.t_points, cfg.m)
    all_rows = []
    per_n = {}
    for n in cfg.n_list:
        hs = bandwidths(cfg, n)
        cache = expectation_cache(cfg, n, hs, tgrid)

        def _one_rep(rep, _n=n, _hs=hs, _cache=cache):
            s = simulate(cfg.dgp, _n, child_seed(cfg.seed, _n, rep))
            return sweep_cells(cfg, s, _n, rep, _hs, tgrid, _cache)

        reps = range(cfg.reps)
        if threads > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                chunks = list(pool.map(_one_rep, reps))
        else:
            chunks = [_one_rep(r) for r in reps]
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
        # ok rows by (stat, rep), in row order, scanned once for all summaries
        groups = {}
        for r in n_rows:
            if r.status == "ok":
                groups.setdefault((r.stat, r.rep), []).append(r)
        for key, (stat, fieldname) in summaries.items():
            sups = [
                max(getattr(r, fieldname) for r in groups[stat, rep])
                if (stat, rep) in groups else float("nan")
                for rep in range(cfg.reps)
            ]
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

    # DeviationRow.sort_key, without a Python call per row
    all_rows.sort(key=operator.itemgetter(0, 1, 2, 3, 4, 5))
    report = RateReport(per_n=per_n, rows=tuple(all_rows), config=cfg.raw)
    if out_dir is not None:
        write_outputs(report, cfg, out_dir)
    return report


# deviations.csv is formatted and written this many rows at a time, so the
# file's text is never held whole
_WRITE_ROWS = 1024


def _deviation_batches(rows, m):
    """deviations.csv as its header and then pieces of at most _WRITE_ROWS
    rows. Floats take 17 significant digits (kernels.format_float); the
    text of h and t is formatted once per grid cell (h, t) and kept."""
    tcols = ",".join(f"t_{j + 1}" for j in range(m))
    yield f"stat,n,rep,h,{tcols},phi,raw_dev,normalized_dev,status\n"
    cells = {}
    for start in range(0, len(rows), _WRITE_ROWS):
        lines = []
        for stat, n, rep, h, t, phi, raw, normalized, status in rows[start:start + _WRITE_ROWS]:
            cell = cells.get((h, t))
            if cell is None:
                cell = cells[h, t] = ",".join(["%.17g" % v for v in (h, *t)])
            lines.append("%s,%s,%s,%s,%s,%.17g,%.17g,%s\n"
                         % (stat, n, rep, cell, phi, raw, normalized, status))
        yield "".join(lines)


def write_outputs(report, cfg, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    atomic_write(
        os.path.join(out_dir, "deviations.csv"), _deviation_batches(report.rows, cfg.m)
    )
    doc = {"per_n": {str(n): v for n, v in report.per_n.items()}}
    atomic_write(
        os.path.join(out_dir, "report.json"),
        json.dumps(doc, indent=2, sort_keys=True) + "\n",
    )
    atomic_write(
        os.path.join(out_dir, "config_echo.json"),
        json.dumps(report.config, indent=2, sort_keys=True) + "\n",
    )
