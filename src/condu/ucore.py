"""U-statistics over ordered tuples of distinct indices.

Three evaluation paths for the kernel-weighted U-statistics: a brute-force
enumeration (the oracle), a locality-pruned path that only enumerates tuples
inside the kernel window, and a seeded incomplete-U subsampler for large n.
When the window holds few tuples, the pruned path builds the oracle's terms
with array operations and sums them with math.fsum; fsum is exactly rounded,
so the sum does not depend on the order of the terms or on zero terms, and
the pruned and brute paths agree bit for bit.

The pruned path is a grid evaluator: WindowGrid takes one sample, one
bandwidth and a set of evaluation points, finds each distinct coordinate's
window and kernel weights once, and evaluates a member at every point in
one pass (for m <= 2, g once per sample span or per band of window pairs).
u_stat_windowed is its one-point call, so one point gives the same bits
alone as within a grid.
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BruteForceBudgetExceeded,
    BudgetExceedsPopulation,
    DegenerateSample,
    InvalidBandwidth,
    NonFiniteSum,
    PopulationTooLarge,
    SchemaError,
    UnsupportedOrder,
)
from .function_class import FunctionSpec
from .kernels import Kernel1D, atomic_write, eval_scaled, format_float, read_csv_columns

BRUTE_TUPLE_BUDGET = 10 ** 8
# up to this window-tuple count the pruned path builds the brute path's terms
# as arrays and sums them with math.fsum, bit-identical to the brute path;
# above it, BLAS and pairwise summation (agreement within 1e-12 relative)
EXACT_PATH_MAX = 400
# m=3 cells are summed in chunks of at most this many tuples; the split fixes
# the summation order, and so the bits
_CHUNK_ELEMENTS = 4_000_000
# an m=2 band of g values holds at most this many values, 16 MB (a single
# cell whose window holds more gets a band of its own); it is filled this
# many values at a time, so the evaluation planes stay small
_BAND_ELEMENTS = 2 ** 21
_FILL_ELEMENTS = 2 ** 15


@dataclass(frozen=True)
class Sample:
    """Paired observations (x_i, y_i), immutable, with a cached stable sort
    and the x values in that order."""

    x: np.ndarray
    y: np.ndarray
    _sort_index: np.ndarray = field(init=False, repr=False, compare=False)
    _x_sorted: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if x.ndim != 1 or y.ndim != 1 or x.shape != y.shape or x.size < 1:
            raise SchemaError("sample needs two equal-length nonempty columns")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            bad = int(np.argmax(~(np.isfinite(x) & np.isfinite(y))))
            raise SchemaError(f"non-finite sample entry at row {bad + 1}")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        x.setflags(write=False)
        y.setflags(write=False)
        # ties broken by original index: stable sort keeps enumeration
        # reproducible
        order = np.argsort(x, kind="stable")
        x_sorted = x[order]
        order.setflags(write=False)
        x_sorted.setflags(write=False)
        object.__setattr__(self, "_sort_index", order)
        object.__setattr__(self, "_x_sorted", x_sorted)

    @property
    def n(self):
        return self.x.size

    @property
    def sort_index(self):
        return self._sort_index

    @property
    def x_sorted(self):
        return self._x_sorted


@dataclass(frozen=True)
class UKernelSpec:
    """The U-kernel g(y) * prod_j h^{-1} K((t_j - x_j)/h).

    h must be positive and finite and t finite; h >= 1 is allowed.
    """

    g: FunctionSpec
    h: float
    t: tuple
    kernel: Kernel1D

    def __post_init__(self):
        object.__setattr__(self, "t", tuple(float(v) for v in self.t))
        finite = math.isfinite(self.h) and all(map(math.isfinite, self.t))
        if not (finite and self.h > 0):
            raise InvalidBandwidth(f"need finite h > 0 and t, got h={self.h}, t={self.t}")
        if len(self.t) != self.g.m:
            raise SchemaError(
                f"t has length {len(self.t)} but g takes {self.g.m} arguments"
            )

    @property
    def m(self):
        return self.g.m


@dataclass(frozen=True)
class UStatResult:
    value: float
    tuples_evaluated: int
    tuples_total: int
    mode: str


def count_indices(n, k):
    """|I_n^k| = n! / (n-k)!, or 0 when k > n."""
    if k > n:
        return 0
    return math.perm(n, k)


def ukernel_scalar(spec):
    """Scalar evaluator H(xs, ys) for a UKernelSpec: the term of the brute
    oracle u_stat_brute, which the windowed exact path reproduces bit for
    bit."""
    g, h, t, kern = spec.g, spec.h, spec.t, spec.kernel
    m = spec.m
    half = h / 2.0

    def H(xs, ys):
        w = 1.0
        for j in range(m):
            z = t[j] - xs[j]
            if abs(z) > half:
                return 0.0
            w *= float(kern.eval(np.float64(z / h))) / h
        return float(g.eval(np.asarray(ys, dtype=float))) * w

    return H


def u_stat_brute(H, s, k):
    """Complete U-statistic by lexicographic enumeration with exact summation.

    H is a scalar callable H(xs, ys) of two length-k tuples.
    """
    n = s.n
    if k > n:
        raise DegenerateSample(f"order k={k} exceeds sample size n={n}")
    total = count_indices(n, k)
    if n ** k > BRUTE_TUPLE_BUDGET:
        raise BruteForceBudgetExceeded(
            f"n^k = {n ** k} exceeds the brute-force budget; "
            "use u_stat_windowed or incomplete_u"
        )
    x, y = s.x, s.y
    terms = (
        H(tuple(x[list(idx)]), tuple(y[list(idx)]))
        for idx in itertools.permutations(range(n), k)
    )
    value = math.fsum(terms) / total
    return UStatResult(value, total, total, "brute")


def _window_bounds(xs, h, values):
    """Per value v, the window |v - x| <= h/2 over the sorted xs as half-open
    position ranges: arrays lo and hi.

    Bounds are widened by a few ulps so no tuple that evaluates nonzero can
    be missed to floating rounding; extra boundary points contribute exact
    zeros.
    """
    values = np.asarray(values, dtype=float)
    lo_val, hi_val = values - h / 2.0, values + h / 2.0
    for _ in range(4):
        lo_val = np.nextafter(lo_val, -np.inf)
        hi_val = np.nextafter(hi_val, np.inf)
    return np.searchsorted(xs, lo_val, side="left"), np.searchsorted(xs, hi_val, side="right")


def _windows(spec, s):
    """Per-coordinate windows |t_j - x_i| <= h/2, as half-open ranges
    (lo, hi) of positions in the sample's stable x-sort."""
    lo, hi = _window_bounds(s.x_sorted, spec.h, spec.t)
    return list(zip(lo.tolist(), hi.tolist()))


def _tuples_eval(g, *coords):
    """g over the outer grid of the coordinate vectors: entry [i, j, ...] is
    g(coords[0][i], coords[1][j], ...).

    Each coordinate fills one contiguous plane, and g sees the planes as a
    trailing axis (a view), so its sums, products and maxima over that axis
    run plane by plane; they give the same bits as a stacked (..., m) array.
    """
    m = len(coords)
    planes = np.empty((m,) + tuple(c.size for c in coords))
    for j, c in enumerate(coords):
        planes[j] = c.reshape((1,) * j + (-1,) + (1,) * (m - 1 - j))
    return g.eval(np.moveaxis(planes, 0, -1))


def _common_positions(r1, r2, order):
    """Original indices in both position ranges of the sorted order, ascending
    (as np.intersect1d returns them), with their offsets in each window."""
    lo, hi = max(r1[0], r2[0]), min(r1[1], r2[1])
    perm = np.argsort(order[lo:hi])
    return order[lo:hi][perm], perm + (lo - r1[0]), perm + (lo - r2[0])


def _band_groups(cells, rows):
    """Split the cells of one m=2 row (a list of (cell, (lo, hi))) into runs
    whose column windows overlap and whose band, rows x the span of the
    run's windows, stays within _BAND_ELEMENTS (a lone cell may exceed it).
    Yields (lo, hi, cells) per run."""
    run, lo, hi = [], 0, 0
    for c, (a, b) in sorted(cells, key=lambda cell: cell[1]):
        if run and a <= hi and rows * (max(hi, b) - lo) <= _BAND_ELEMENTS:
            run.append((c, (a, b)))
            hi = max(hi, b)
            continue
        if run:
            yield lo, hi, run
        run, lo, hi = [(c, (a, b))], a, b
    if run:
        yield lo, hi, run


class WindowGrid:
    """U_n(g, h, t) of one sample at one bandwidth over a set of evaluation
    points, equal bit for bit to evaluating each point on its own.

    Each distinct coordinate value gets its window (a half-open range of
    positions in the stable x-sort) and its kernel weights once; every
    coordinate, point and member shares them. u_stats(g) evaluates one
    member at every point:

    * m = 1: g once on the sorted y over the span of the windows; each
      point sums a slice, with math.fsum up to EXACT_PATH_MAX tuples (the
      brute oracle's bits) and np.dot above.
    * m = 2: points with the same t_1 share a row window. Their t_2 windows
      are grouped into bands of g values, y[t_1 window] x y[span of the
      group's t_2 windows], of at most _BAND_ELEMENTS values, filled
      _FILL_ELEMENTS values at a time. Each point reads its columns of the
      band as a view: w_1 @ (G @ w_2), less the terms of the tuples that
      repeat an index.
    * m = 3, and m = 2 points of at most EXACT_PATH_MAX tuples, go point by
      point.
    """

    def __init__(self, s, h, points, kernel):
        self.points = [tuple(float(v) for v in t) for t in points]
        if not (math.isfinite(h) and h > 0):
            raise InvalidBandwidth(f"need finite h > 0, got h={h}")
        bad = [t for t in self.points if not all(map(math.isfinite, t))]
        if bad:
            raise InvalidBandwidth(f"need finite evaluation points, got t={bad[0]}")
        self.s, self.h, self.kernel = s, h, kernel
        values = sorted({v for t in self.points for v in t})
        column = {v: i for i, v in enumerate(values)}
        self.cells = [tuple(column[v] for v in t) for t in self.points]
        lo, hi = _window_bounds(s.x_sorted, h, values)
        self.ranges = list(zip(lo.tolist(), hi.tolist()))
        self.weights = [
            eval_scaled(kernel, h, v - s.x_sorted[a:b]) for v, (a, b) in zip(values, self.ranges)
        ]
        self.y_sorted = s.y[s.sort_index]

    def u_stats(self, g):
        """One UStatResult per point, in the order of the points."""
        m, n = g.m, self.s.n
        if any(len(t) != m for t in self.points):
            raise SchemaError(f"evaluation points must have length {m}, the order of g")
        if m > n:
            raise DegenerateSample(f"order m={m} exceeds sample size n={n}")
        total = count_indices(n, m)
        if m == 1:
            return self._first_order(g, total)
        if m == 2:
            return self._pairs(g, total)
        return [self._cell(g, k, total) for k in range(len(self.points))]

    def _finite(self, acc, k):
        if not math.isfinite(acc):
            raise NonFiniteSum(
                f"cell h={self.h}, t={self.points[k]}: vectorized sum is {acc}"
            )
        return acc

    def _first_order(self, g, total):
        spans = [(a, b) for a, b in self.ranges if b > a]
        if spans:
            base = min(a for a, _ in spans)
            gy = g.eval(self.y_sorted[base:max(b for _, b in spans), None])
        out = []
        for k, (i,) in enumerate(self.cells):
            a, b = self.ranges[i]
            if a == b:
                out.append(UStatResult(0.0, 0, total, "windowed"))
                continue
            gv, w = gy[a - base:b - base], self.weights[i]
            if b - a <= EXACT_PATH_MAX:
                t = self.points[k]
                inside = np.abs(t[0] - self.s.x_sorted[a:b]) <= self.h / 2.0
                acc = _exact_sum(gv[inside] * w[inside], self.h, t)
            else:
                acc = self._finite(float(np.dot(gv, w)), k)
            out.append(UStatResult(acc / total, b - a, total, "windowed"))
        return out

    def _pairs(self, g, total):
        out = [None] * len(self.cells)
        rows = {}
        for k, (i, j) in enumerate(self.cells):
            rows.setdefault(i, []).append((k, j))
        for i, row in rows.items():
            lo, hi = self.ranges[i]
            banded = []
            for k, j in row:
                a, b = self.ranges[j]
                if (hi - lo) * (b - a) <= EXACT_PATH_MAX:
                    out[k] = self._cell(g, k, total)
                else:
                    banded.append((k, (a, b)))
            for c_lo, c_hi, run in _band_groups(banded, hi - lo):
                band = self._band(g, lo, hi, c_lo, c_hi)
                for k, (a, b) in run:
                    out[k] = self._pair_cell(g, k, band[:, a - c_lo:b - c_lo], total)
        return out

    def _band(self, g, lo, hi, c_lo, c_hi):
        """g over y[lo:hi] x y[c_lo:c_hi] (sorted positions), filled
        _FILL_ELEMENTS values at a time."""
        ys, cols = self.y_sorted, self.y_sorted[c_lo:c_hi]
        step = max(1, _FILL_ELEMENTS // cols.size)
        band = None
        for r in range(lo, hi, step):
            part = _tuples_eval(g, ys[r:min(r + step, hi)], cols)
            if band is None:
                shape = (hi - lo, cols.size)
                # g handed back one coordinate plane (identity_j). In a
                # stacked (k, k, 2) array that plane is a strided view, which
                # matmul sums with NumPy's own row loop instead of BLAS; a
                # band with the same stride keeps that loop, and so the bits.
                band = np.empty(shape) if part.flags.owndata else np.empty(shape + (2,))[..., 0]
            band[r - lo:r - lo + part.shape[0]] = part
        return band

    def _pair_cell(self, g, k, G, total):
        i, j = self.cells[k]
        w0, w1 = self.weights[i], self.weights[j]
        acc = float(w0 @ (G @ w1))
        common, i1, i2 = _common_positions(self.ranges[i], self.ranges[j], self.s.sort_index)
        if common.size:
            y = self.s.y[common]
            diag = g.eval(np.stack([y, y], axis=-1))
            acc -= float(np.sum(diag * w0[i1] * w1[i2]))
        evaluated = G.shape[0] * G.shape[1] - common.size
        return UStatResult(self._finite(acc, k) / total, evaluated, total, "windowed")

    def _cell(self, g, k, total):
        """One point on its own: the exact path, or the chunked m=3 sum."""
        m, t, s, h = g.m, self.points[k], self.s, self.h
        ranges = [self.ranges[i] for i in self.cells[k]]
        wins = [s.sort_index[lo:hi] for lo, hi in ranges]
        sizes = [w.size for w in wins]
        window_tuples = int(np.prod([float(sz) for sz in sizes]))
        if min(sizes) == 0:
            return UStatResult(0.0, 0, total, "windowed")

        if window_tuples <= EXACT_PATH_MAX:
            # the terms ukernel_scalar's H gives, built as arrays in H's order
            # of operations; fsum is exactly rounded, so dropping H's zero
            # terms and reordering the rest leave the bits of the sum
            # unchanged
            idx = np.stack(np.meshgrid(*wins, indexing="ij"), axis=-1).reshape(-1, m)
            srt = np.sort(idx, axis=1)
            idx = idx[np.all(srt[:, 1:] != srt[:, :-1], axis=1)]
            zs = [t[j] - s.x[idx[:, j]] for j in range(m)]
            w = 1.0
            for z in zs:
                w = w * eval_scaled(self.kernel, h, z)
            # H returns 0.0 before calling g outside the window, so g never
            # sees those tuples (an overflowing member would give inf * 0 = nan)
            inside = np.logical_and.reduce([np.abs(z) <= h / 2.0 for z in zs])
            terms = g.eval(s.y[idx[inside]]) * w[inside]
            return UStatResult(_exact_sum(terms, h, t) / total, len(idx), total, "windowed")

        if m != 3:
            raise UnsupportedOrder(
                f"windowed vectorized path supports m <= 3; window has "
                f"{window_tuples} tuples for m={m}"
            )
        weights = [self.weights[i] for i in self.cells[k]]
        ys = [self.y_sorted[lo:hi] for lo, hi in ranges]
        acc = 0.0
        evaluated = 0
        w23 = np.outer(weights[1], weights[2])
        neq23 = wins[1][:, None] != wins[2][None, :]
        chunk = max(1, _CHUNK_ELEMENTS // max(1, sizes[1] * sizes[2]))
        for lo in range(0, sizes[0], chunk):
            hi = min(lo + chunk, sizes[0])
            i1 = wins[0][lo:hi, None, None]
            mask = (i1 != wins[1][None, :, None]) & neq23
            mask &= i1 != wins[2][None, None, :]
            G = np.require(_tuples_eval(g, ys[0][lo:hi], ys[1], ys[2]), float, "W")
            # ((G * mask) * w_1) * w_23, one product at a time, into G
            np.multiply(G, mask, out=G)
            np.multiply(G, weights[0][lo:hi, None, None], out=G)
            np.multiply(G, w23[None, :, :], out=G)
            acc += float(np.sum(G))
            evaluated += int(np.sum(mask))
        return UStatResult(self._finite(acc, k) / total, evaluated, total, "windowed")


def _exact_sum(terms, h, t):
    """math.fsum of the terms; no finite exact sum raises NonFiniteSum."""
    try:
        return math.fsum(terms.tolist())
    except (ValueError, OverflowError) as exc:
        raise NonFiniteSum(f"cell h={h}, t={t}: {exc}") from None


def u_stat_windowed(spec, s):
    """Locality-pruned complete U-statistic, equal to u_stat_brute.

    Only tuples whose every coordinate lies inside the closed kernel window
    are enumerated; the distinct-index constraint is enforced during the
    Cartesian enumeration. This is the one-point WindowGrid. Cells without
    a finite sum raise NonFiniteSum: on the exact path, terms whose exact sum
    is inf - inf or overflows; on the vectorized path, a non-finite total.
    """
    return WindowGrid(s, spec.h, [spec.t], spec.kernel).u_stats(spec.g)[0]


def symmetrize(H, m):
    """Average of H over all joint permutations of its (x, y) argument pairs."""
    perms = list(itertools.permutations(range(m)))
    fact = float(len(perms))

    def Hbar(xs, ys):
        return math.fsum(
            H(tuple(xs[i] for i in sig), tuple(ys[i] for i in sig)) for sig in perms
        ) / fact

    return Hbar


def u_process(spec, s, expected):
    """sqrt(n) (U_n(g, h, t) - expected), with U_n from the windowed path."""
    res = u_stat_windowed(spec, s)
    return math.sqrt(s.n) * (res.value - expected)


def _unrank_tuples(ranks, n, m):
    """Map ranks in [0, n!/(n-m)!) to ordered tuples of distinct indices."""
    ranks = np.asarray(ranks, dtype=np.int64)
    digits = np.empty((ranks.size, m), dtype=np.int64)
    rem = ranks.copy()
    for k in range(m - 1, -1, -1):
        base = n - k
        digits[:, k] = rem % base
        rem //= base
    idx = np.empty_like(digits)
    idx[:, 0] = digits[:, 0]
    for k in range(1, m):
        cur = digits[:, k].copy()
        priors = np.sort(idx[:, :k], axis=1)
        for c in range(k):
            cur += cur >= priors[:, c]
        idx[:, k] = cur
    return idx


def incomplete_u(spec, s, budget, seed):
    """Incomplete U-statistic over `budget` tuples sampled without replacement.

    Uses a counter-based generator keyed by the seed, so the draw is a pure
    function of (seed, n, m, budget).
    """
    m, n = spec.m, s.n
    if m > n:
        raise DegenerateSample(f"order m={m} exceeds sample size n={n}")
    if budget < 1:
        raise ValueError("budget must be >= 1")
    total = count_indices(n, m)
    if budget > total:
        raise BudgetExceedsPopulation(
            f"budget {budget} exceeds population {total}"
        )
    if total > np.iinfo(np.int64).max:
        raise PopulationTooLarge(
            f"population {total} of ordered {m}-tuples exceeds int64 ranks"
        )
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    ranks = rng.choice(total, size=budget, replace=False)
    idx = _unrank_tuples(ranks, n, m)

    ys = s.y[idx]
    gvals = np.asarray(spec.g.eval(ys), dtype=float)
    w = np.ones(budget)
    for j in range(m):
        w *= eval_scaled(spec.kernel, spec.h, spec.t[j] - s.x[idx[:, j]])
    value = float(np.mean(gvals * w))
    return UStatResult(value, budget, total, "incomplete")


def read_sample_csv(path):
    """Read a sample from CSV with header ``x,y``; row-numbered errors."""
    return Sample(*read_csv_columns(path, "x,y", "sample"))


def write_sample_csv(path, s):
    """Write a sample as CSV with header ``x,y``, atomically."""
    rows = [f"{format_float(xv)},{format_float(yv)}\n" for xv, yv in zip(s.x, s.y)]
    atomic_write(path, "x,y\n" + "".join(rows))
