"""Output checks for one `condu rates` output directory.

The spot check recomputes U_n for a seed-derived sample of `process` cells by a
dense NumPy sum over every ordered tuple of distinct indices, so it depends on
neither the window search nor the exact/vectorized split of the program. Terms
whose kernel weight is exactly zero are dropped before the sum; they add 0.
E U_n comes from the package's public quadrature (`expected_u`,
`expected_u_one`), and the sample from its public `simulate`/`child_seed`.
"""

import csv
import hashlib
import math

import numpy as np

from workloads import import_program

import_program()

from condu.estimator import expected_u, expected_u_one  # noqa: E402
from condu.function_class import builtin_member  # noqa: E402
from condu.harness import bandwidths, child_seed, simulate  # noqa: E402

REL_TOL = 1e-12
DIGEST_FILES = ("deviations.csv", "report.json")
_DENSE_CHUNK = 1_000_000


def digests(out_dir):
    """sha256 of each byte-identity file in an output directory."""
    return {
        name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        for name in DIGEST_FILES
    }


def expected_counts(cfg):
    """Row counts the config implies: (process rows, est_centering rows)."""
    grid = cfg.t_points ** cfg.m
    members = len(cfg.fc.members)
    cells = sum(len(bandwidths(cfg, n)) for n in cfg.n_list) * grid * cfg.reps
    return cells * (1 + members), cells * members


def read_rows(path, m):
    """deviations.csv as dicts with h, t and raw_dev parsed to floats."""
    rows = []
    with open(path, newline="") as fh:
        for rec in csv.DictReader(fh):
            rec["n"] = int(rec["n"])
            rec["rep"] = int(rec["rep"])
            rec["h"] = float(rec["h"])
            rec["t"] = tuple(float(rec[f"t_{j + 1}"]) for j in range(m))
            rec["raw_dev"] = float(rec["raw_dev"])
            rows.append(rec)
    return rows


def select_cells(rows, seed, k):
    """A seed-derived sample of `process` rows, spread evenly over n."""
    rng = np.random.default_rng([int(seed), 0xC0DE])
    by_n = {}
    for i, r in enumerate(rows):
        if r["stat"] == "process":
            by_n.setdefault(r["n"], []).append(i)
    picked = []
    for n in sorted(by_n):
        take = min(len(by_n[n]), max(1, k // len(by_n)))
        picked.extend(int(i) for i in rng.choice(by_n[n], size=take, replace=False))
    return sorted(picked)


def _weights(kernel, h, tj, x):
    z = tj - x
    return np.where(np.abs(z) <= h / 2.0, kernel.eval(z / h) / h, 0.0)


def dense_u(phi, h, t, kernel, sample):
    """U_n(phi, h, t) summed over all ordered distinct-index tuples."""
    m, n = phi.m, sample.n
    ws, idx = [], []
    for tj in t:
        w = _weights(kernel, h, tj, sample.x)
        nz = np.flatnonzero(w)
        ws.append(w[nz])
        idx.append(nz)
    if min(i.size for i in idx) == 0:
        return 0.0
    rest = int(np.prod([i.size for i in idx[1:]]))
    chunk = max(1, _DENSE_CHUNK // max(1, rest))
    total = 0.0
    for lo in range(0, idx[0].size, chunk):
        parts = [idx[0][lo:lo + chunk]] + idx[1:]
        wparts = [ws[0][lo:lo + chunk]] + ws[1:]
        grids = np.ix_(*parts)
        ys = np.stack(np.broadcast_arrays(*(sample.y[g] for g in grids)), axis=-1)
        term = np.asarray(phi.eval(ys), dtype=float)
        for w in np.ix_(*wparts):
            term = term * w
        for a in range(m):
            for b in range(a + 1, m):
                term = term * (grids[a] != grids[b])
        total += float(np.sum(term))
    return total / math.perm(n, m)


def check_cells(cfg, rows, picked):
    """Compare raw_dev of each picked process row with a dense recomputation.

    Returns a list of failure descriptions, one per disagreeing cell.
    """
    members = {phi.id: phi for phi in cfg.fc.members}
    members["one"] = builtin_member("one", cfg.m)
    samples = {}
    failures = []
    for i in picked:
        r = rows[i]
        key = (r["n"], r["rep"])
        if key not in samples:
            samples[key] = simulate(cfg.dgp, r["n"], child_seed(cfg.seed, *key))
        phi = members[r["phi"]]
        u = dense_u(phi, r["h"], r["t"], cfg.kernel, samples[key])
        if r["phi"] == "one":
            eu = expected_u_one(cfg.dgp, cfg.m, cfg.kernel, r["h"], r["t"],
                                cfg.quad_order)
        else:
            eu = expected_u(cfg.dgp, phi, cfg.kernel, r["h"], r["t"],
                            cfg.quad_order)
        want = abs(u - eu)
        if not abs(r["raw_dev"] - want) <= REL_TOL * (1.0 + abs(u)):
            failures.append(
                f"row {i + 2}: raw_dev {r['raw_dev']!r} but dense |U - EU| = "
                f"{want!r} (n={r['n']} rep={r['rep']} h={r['h']!r} t={r['t']} "
                f"phi={r['phi']})"
            )
    return failures


def check_output(cfg, out_dir, seed, cells):
    """All checks on one output directory: (attempted, failure list)."""
    rows = read_rows(out_dir / "deviations.csv", cfg.m)
    want_process, want_est = expected_counts(cfg)
    failures = []
    got_process = sum(1 for r in rows if r["stat"] == "process")
    got_est = sum(1 for r in rows if r["stat"] == "est_centering")
    if got_process != want_process:
        failures.append(f"{got_process} process rows, config implies {want_process}")
    if got_est != want_est:
        failures.append(f"{got_est} est_centering rows, config implies {want_est}")
    picked = select_cells(rows, seed, cells)
    failures += check_cells(cfg, rows, picked)
    return 2 + len(picked), failures
