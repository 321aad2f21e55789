"""U-statistics over ordered tuples of distinct indices.

Three evaluation paths for the kernel-weighted U-statistics: a brute-force
enumeration (the oracle), a locality-pruned path that only enumerates tuples
inside the kernel window, and a seeded incomplete-U subsampler for large n.
When the window holds few tuples, the pruned path builds the oracle's terms
with array operations and sums them with math.fsum; fsum is exactly rounded,
so the sum does not depend on the order of the terms or on zero terms, and
the pruned and brute paths agree bit for bit.

The pruned path is a grid evaluator: WindowGrid takes one sample, all of
its bandwidths and a set of evaluation points, finds each distinct
coordinate's closed window |t - x| <= h/2 and its kernel weights once per
bandwidth, so that, as in the oracle, no point outside reaches a sum, and
its u_stats(members) walks the (h, t) cells once, evaluating every member,
and the constant 1 of the estimator's denominator without calling any member,
over each cell's shared geometry (m = 1: g once per sample; m = 2: g once
per band of window pairs, shared by every bandwidth, which also holds each
cell's pair diagonal; m = 3 in chunks filled a few rows at a time, with 0.0
for every tuple that repeats an index).
u_stat_windowed is its one-member, one-bandwidth, one-point call, so a cell
gives the same bits alone as within a grid. A sample is an ``x,y`` CSV
file, read and written through kernels' one CSV reader and one writer.
"""

import functools
import itertools
import math
import operator
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
from .kernels import Kernel1D, eval_scaled, read_csv_columns, write_csv

BRUTE_TUPLE_BUDGET = 10 ** 8
# up to this window-tuple count the pruned path builds the brute path's terms
# as arrays and sums them with math.fsum, bit-identical to the brute path;
# above it, BLAS and pairwise summation (agreement within 1e-12 relative)
EXACT_PATH_MAX = 400
# m=3 cells are summed in chunks of at most this many tuples; the split fixes
# the summation order, and so the bits
_CHUNK_ELEMENTS = 4_000_000
# an m=2 band of g values holds at most this many values, 16 MB (a single
# cell whose window holds more gets a band of its own)
_BAND_ELEMENTS = 2 ** 21
# m=2 bands and m=3 chunks are filled about this many values at a time, so
# the evaluation planes, masks and products stay small
_FILL_ELEMENTS = 2 ** 15


@dataclass(frozen=True)
class Sample:
    """Paired observations (x_i, y_i), immutable, with a cached stable sort
    and the x values in that order."""

    x: np.ndarray
    y: np.ndarray
    sort_index: np.ndarray = field(init=False, repr=False, compare=False)
    x_sorted: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if x.ndim != 1 or y.ndim != 1 or x.shape != y.shape or x.size < 1:
            raise SchemaError("sample needs two equal-length nonempty columns")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            bad = int(np.argmax(~(np.isfinite(x) & np.isfinite(y))))
            raise SchemaError(f"non-finite sample entry at row {bad + 1}")
        # ties broken by original index: stable sort keeps enumeration
        # reproducible
        order = np.argsort(x, kind="stable")
        for name, a in [("x", x), ("y", y), ("sort_index", order), ("x_sorted", x[order])]:
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @property
    def n(self):
        return self.x.size


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
    pairs = list(zip(s.x, s.y))
    terms = (H(*zip(*tup)) for tup in itertools.permutations(pairs, k))
    value = math.fsum(terms) / total
    return UStatResult(value, total, total, "brute")


def _window_bounds(xs, h, values):
    """Per value v, a search range over the sorted xs that holds every x
    with |fl(v - x)| <= h/2, as half-open position ranges: arrays lo and hi.

    fl(v - x) and the bounds v -+ h/2 round by at most a unit in the last
    place of |v| + h/2, so bounds widened by four such units drop no such x,
    also where v -+ h/2 is near 0 and its own ulps are far finer. A range
    may also hold a few x just outside; WindowGrid cuts them off.
    """
    values = np.asarray(values, dtype=float)
    pad = 4.0 * np.spacing(np.abs(values) + h / 2.0)
    return (np.searchsorted(xs, values - h / 2.0 - pad, side="left"),
            np.searchsorted(xs, values + h / 2.0 + pad, side="right"))


def _windows(spec, s):
    """Per-coordinate closed windows |t_j - x_i| <= h/2, as half-open ranges
    (lo, hi) of positions in the sample's stable x-sort: WindowGrid's."""
    grid = WindowGrid(s, [spec.h], [spec.t], spec.kernel)
    return [grid.ranges[0][i] for i in grid.cells[0]]


def _eval_rows(g, ys):
    """g on the rows of ys, shape (..., m); ones when g is None."""
    return np.ones(ys.shape[:-1]) if g is None else g.eval(ys)


def _common_positions(r1, r2, order):
    """The offsets in each of two position ranges of the sorted order of the
    positions in both, in ascending original index (np.intersect1d's order)."""
    lo, hi = max(r1[0], r2[0]), min(r1[1], r2[1])
    perm = np.argsort(order[lo:hi])
    return perm + (lo - r1[0]), perm + (lo - r2[0])


def _shared(*ranges):
    """The number of positions in every one of the half-open ranges."""
    return max(0, min(hi for _, hi in ranges) - max(lo for lo, _ in ranges))


def _band_groups(cells):
    """Split the banded m=2 cells of one t_1 value over every bandwidth, a
    list of (key, (lo, hi), (a, b)) row and column windows, into runs whose
    column windows overlap and whose band, the run's row span x column span,
    stays within _BAND_ELEMENTS (a lone cell may exceed it). Yields
    (r_lo, r_hi, c_lo, c_hi, run) per run."""
    run = []
    for cell in sorted(cells, key=lambda c: c[2]):
        _, (lo, hi), (a, b) = cell
        if run:
            rows = max(r_hi, hi) - min(r_lo, lo)
            if a <= c_hi and rows * (max(c_hi, b) - c_lo) <= _BAND_ELEMENTS:
                run.append(cell)
                r_lo, r_hi, c_hi = min(r_lo, lo), max(r_hi, hi), max(c_hi, b)
                continue
            yield r_lo, r_hi, c_lo, c_hi, run
        run, r_lo, r_hi, c_lo, c_hi = [cell], lo, hi, a, b
    if run:
        yield r_lo, r_hi, c_lo, c_hi, run


class WindowGrid:
    """U_n(g, h, t) of one sample for a list of members over a set of
    bandwidths and a set of evaluation points, equal bit for bit to
    evaluating each (g, h, t) on its own.

    Per bandwidth, each distinct coordinate value gets its closed window
    |v - x| <= h/2 (a half-open range of positions in the stable x-sort)
    and its kernel weights once; every path below sums over those windows
    only. u_stats(members) walks the (h, t) cells once, and each cell's
    geometry serves every member; a member None is the constant 1, the
    estimator's denominator, computed without calling any member. Each cell
    takes one path:

    * empty, when a window holds no point: 0.
    * exact, at most EXACT_PATH_MAX window tuples, any m: the brute
      oracle's terms from the stored weights and the distinct sorted
      positions, summed by math.fsum.
    * m = 1: g once per sample on the sorted y; a cell is np.dot of a
      slice and its weights.
    * m = 2: the windows of a coordinate value nest in h, so the cells of
      every bandwidth whose points share t_1 share bands of g values,
      y[min lo, max hi) x y[c_lo, c_hi) over a run of overlapping t_2
      windows, of at most _BAND_ELEMENTS values, filled _FILL_ELEMENTS
      values at a time; one band is alive at a time. Each cell reads its
      rows and columns of the band as a view G: w_1 @ (G @ w_2), less the
      terms of the tuples (p, p) that repeat an index, found once per cell
      and read from G, which holds g(y_p, y_p) wherever both windows hold
      position p. When that total is not finite, the cell is summed once
      more from a copy of G with those entries 0.0, since g may overflow
      on them only.
    * m = 3: the windows, w_2 w_3, the planes of coordinates 2 and 3, the
      positions where they repeat an index, the count of distinct triples
      and one chunk buffer once per cell. The tuples are split along the
      first axis into chunks of at most _CHUNK_ELEMENTS, each summed by one
      np.sum over the buffer, filled about _FILL_ELEMENTS values at a time
      with (g * w_1) * w_2 w_3, where every tuple that repeats an index
      holds 0.0 in place of g.

    The constant 1 takes ones for the values of g, which is exact, so its
    bits and tuple counts are those of the member "one".
    """

    def __init__(self, s, hs, points, kernel):
        self.points = [tuple(float(v) for v in t) for t in points]
        self.hs = list(hs)
        bad = [h for h in self.hs if not (math.isfinite(h) and h > 0)]
        if bad:
            raise InvalidBandwidth(f"need finite h > 0, got h={bad[0]}")
        bad = [t for t in self.points if not all(map(math.isfinite, t))]
        if bad:
            raise InvalidBandwidth(f"need finite evaluation points, got t={bad[0]}")
        self.s, self.kernel = s, kernel
        values = sorted({v for t in self.points for v in t})
        column = {v: i for i, v in enumerate(values)}
        self.cells = [tuple(column[v] for v in t) for t in self.points]
        # per bandwidth: each value's closed window |v - x| <= h/2 and its
        # kernel weights. z = fl(v - x) does not increase with x, so a widened
        # range holds z > h/2, the window, then z < -h/2: two counts cut it.
        # One kernel call over every range laid end to end gives each value
        # the bits of a call of its own (the kernel is elementwise).
        self.ranges, self.weights = [], []
        for h in self.hs:
            lo, hi = _window_bounds(s.x_sorted, h, values)
            sizes = hi - lo
            ends = np.concatenate(([0], np.cumsum(sizes)))
            z = (np.repeat(values, sizes)
                 - s.x_sorted[np.arange(ends[-1]) + np.repeat(lo - ends[:-1], sizes)])
            lead, kept = (np.diff(np.concatenate(([0], np.cumsum(part)))[ends])
                          for part in (z > h / 2.0, np.abs(z) <= h / 2.0))
            lo, starts, w = lo + lead, ends[:-1] + lead, eval_scaled(kernel, h, z)
            self.ranges.append(list(zip(lo.tolist(), (lo + kept).tolist())))
            self.weights.append([w[a:a + k] for a, k in zip(starts.tolist(), kept.tolist())])
        self.y_sorted = s.y[s.sort_index]

    # a term or total that overflows ends in NonFiniteSum, so NumPy's
    # warnings on the way would only print ahead of that error
    @np.errstate(over="ignore", invalid="ignore")
    def u_stats(self, members):
        """Per member, per bandwidth, one UStatResult per point, in the
        order of the members, the bandwidths and the points. A member None
        is the constant 1, U_n(1, h, t)."""
        orders = {len(t) for t in self.points} | {g.m for g in members if g is not None}
        if len(orders) > 1:
            raise SchemaError(f"evaluation points and members must share one order m, "
                              f"got {sorted(orders)}")
        m, n = (orders.pop() if orders else 1), self.s.n
        if m > n:
            raise DegenerateSample(f"order m={m} exceeds sample size n={n}")
        total = count_indices(n, m)
        out = [[[None] * len(self.points) for _ in self.hs] for _ in members]
        gy = [_eval_rows(g, self.y_sorted[:, None]) for g in members] if m == 1 else None
        banded = {}
        for q, ranges in enumerate(self.ranges):
            for k, cell in enumerate(self.cells):
                wins = [ranges[i] for i in cell]
                tuples = math.prod(b - a for a, b in wins)
                if tuples == 0:
                    res = [UStatResult(0.0, 0, total, "windowed")] * len(members)
                elif tuples <= EXACT_PATH_MAX:
                    res = self._exact(members, q, k, gy, total)
                elif m == 1:
                    (a, b), w = wins[0], self.weights[q][cell[0]]
                    res = [self._result(float(np.dot(v[a:b], w)), b - a, total, q, k)
                           for v in gy]
                elif m == 2:
                    banded.setdefault(cell[0], []).append(((q, k), *wins))
                    continue
                elif m == 3:
                    res = self._triples(members, q, k, total)
                else:
                    raise UnsupportedOrder(
                        f"windowed vectorized path supports m <= 3; window has "
                        f"{tuples} tuples for m={m}"
                    )
                for g_out, r in zip(out, res):
                    g_out[q][k] = r
        for row in banded.values():
            for r_lo, r_hi, c_lo, c_hi, run in _band_groups(row):
                common = [_common_positions(r, c, self.s.sort_index) for _, r, c in run]
                for gi, g in enumerate(members):
                    band = self._band(g, r_lo, r_hi, c_lo, c_hi)
                    for ((q, k), (lo, hi), (a, b)), (i1, i2) in zip(run, common):
                        w1, w2 = (self.weights[q][i] for i in self.cells[k])
                        G = band[lo - r_lo:hi - r_lo, a - c_lo:b - c_lo]
                        # the tuples (p, p) at G[p - lo, p - a], in ascending index order
                        acc = (float(w1 @ (G @ w2))
                               - float(np.sum(G[i1, i2] * w1[i1] * w2[i2])))
                        if not math.isfinite(acc):
                            # g may overflow on those tuples only: sum again
                            # with their entries 0.0
                            G = G.copy()
                            G[i1, i2] = 0.0
                            off = float(w1 @ (G @ w2))
                            acc = off if math.isfinite(off) else acc
                        out[gi][q][k] = self._result(acc, G.size - i1.size, total, q, k)
                    del band, G  # one band alive at a time: freed before the next fill
        return out

    def _result(self, acc, evaluated, total, q, k):
        """The result of a cell's total on any path; a non-finite one raises."""
        if not math.isfinite(acc):
            raise NonFiniteSum(f"cell h={self.hs[q]}, t={self.points[k]}: sum is {acc}")
        return UStatResult(acc / total, evaluated, total, "windowed")

    def _exact(self, members, q, k, gy, total):
        """The terms ukernel_scalar's H gives, built in H's order of
        operations over the outer grid of the closed windows: the tuples of
        distinct sorted positions are counted and summed. H returns 0.0
        outside the windows before calling g, and the windows hold no point
        outside, so the terms are those H calls g for. fsum is exactly
        rounded, so dropping H's zero terms and reordering the rest leave
        the bits of the sum unchanged. At m = 1 the values of g come from
        gy, g on the sorted y."""
        h, t, cell = self.hs[q], self.points[k], self.cells[k]
        wins = [self.ranges[q][i] for i in cell]
        axes = [(1,) * j + (-1,) + (1,) * (len(cell) - 1 - j) for j in range(len(cell))]
        w = functools.reduce(operator.mul, [self.weights[q][i].reshape(ax)
                                            for i, ax in zip(cell, axes)])
        if gy is None:
            keep = functools.reduce(operator.and_, [
                np.arange(a, b).reshape(ax1) != np.arange(c, d).reshape(ax2)
                for ((a, b), ax1), ((c, d), ax2) in itertools.combinations(zip(wins, axes), 2)])
            rows = np.stack([self.y_sorted[a + o] for (a, _), o in zip(wins, np.nonzero(keep))],
                            axis=-1)
            values, w = [_eval_rows(g, rows) for g in members], w[keep]
        else:
            values = [v[wins[0][0]:wins[0][1]] for v in gy]
        try:
            sums = [math.fsum((v * w).tolist()) for v in values]
        except (ValueError, OverflowError) as exc:  # no finite exact sum
            raise NonFiniteSum(f"cell h={h}, t={t}: {exc}") from None
        return [self._result(acc, w.size, total, q, k) for acc in sums]

    def _band(self, g, lo, hi, c_lo, c_hi):
        """g over y[lo:hi] x y[c_lo:c_hi] (sorted positions), ones when g is
        None. The column plane is filled once and the row plane
        _FILL_ELEMENTS values at a time; g sees the two planes as a trailing
        axis (a view), and its sums, products and maxima over that axis give
        the bits of a stacked (..., 2) array."""
        shape = (hi - lo, c_hi - c_lo)
        if g is None:
            return np.ones(shape)
        step = max(1, _FILL_ELEMENTS // shape[1])
        planes = np.empty((2, min(step, shape[0]), shape[1]))
        planes[1] = self.y_sorted[c_lo:c_hi]
        band = None
        for r in range(lo, hi, step):
            p = planes[:, :min(r + step, hi) - r]
            p[0] = self.y_sorted[r:r + p.shape[1], None]
            part = g.eval(np.moveaxis(p, 0, -1))
            if band is None:
                # g handed back one coordinate plane (identity_j). In a
                # stacked (k, k, 2) array that plane is a strided view, which
                # matmul sums with NumPy's own row loop instead of BLAS; a
                # band with the same stride keeps that loop, and so the bits.
                band = np.empty(shape) if part.flags.owndata else np.empty(shape + (2,))[..., 0]
            band[r - lo:r - lo + part.shape[0]] = part
        return band

    def _triples(self, members, q, k, total):
        """One m = 3 cell; its chunk buffer, the planes of coordinates 2 and
        3 and the positions where they repeat an index are found once and
        shared by the members and the row blocks."""
        (a1, b1), (a2, b2), (a3, b3) = ranges = [self.ranges[q][i] for i in self.cells[k]]
        ys = [self.y_sorted[lo:hi] for lo, hi in ranges]
        w1, w2, w3 = [self.weights[q][i] for i in self.cells[k]]
        n1, n2, n3 = b1 - a1, b2 - a2, b3 - a3
        w23 = np.outer(w2, w3)
        # a sorted position is an index, so two coordinates repeat an index
        # exactly where their positions meet
        at23 = np.arange(max(a2, a3), min(b2, b3))
        i2, i3 = at23 - a2, at23 - a3
        # the distinct triples, by inclusion-exclusion over the positions
        # that two or three windows share
        r1, r2, r3 = ranges
        evaluated = (n1 * n2 * n3 - _shared(r1, r2) * n3 - _shared(r1, r3) * n2
                     - _shared(r2, r3) * n1 + 2 * _shared(r1, r2, r3))
        chunk = max(1, _CHUNK_ELEMENTS // (n2 * n3))
        step = max(1, _FILL_ELEMENTS // (n2 * n3))
        buf = np.empty((min(chunk, n1), n2, n3))
        planes = np.empty((3, min(step, n1), n2, n3))
        planes[1], planes[2] = ys[1][:, None], ys[2]
        res = []
        for g in members:
            acc = 0.0
            for lo in range(0, n1, chunk):
                hi = min(lo + chunk, n1)
                G = buf[:hi - lo]
                # a few rows at a time, so the evaluation planes and the
                # products stay in cache; each value is (g * w_1) * w_23, as
                # it is when the whole chunk is built at once
                for r in range(lo, hi, step):
                    e = min(r + step, hi)
                    block = G[r - lo:e - lo]
                    if g is None:
                        block.fill(1.0)
                    else:
                        p = planes[:, :e - r]
                        p[0] = ys[0][r:e, None, None]
                        block[...] = g.eval(np.moveaxis(p, 0, -1))
                    # a tuple that repeats an index is no term: 0.0, whatever g
                    # gave (a zero term's sign never reaches acc, which starts at +0)
                    block[:, i2, i3] = 0.0
                    for view, a, b in [(block, a2, b2), (block.swapaxes(1, 2), a3, b3)]:
                        at = np.arange(max(a1 + r, a), min(a1 + e, b))
                        view[at - (a1 + r), at - a] = 0.0
                    np.multiply(block, w1[r:e, None, None], out=block)
                    np.multiply(block, w23[None, :, :], out=block)
                acc += float(np.sum(G))
            res.append(self._result(acc, evaluated, total, q, k))
        return res


def u_stat_windowed(spec, s):
    """Locality-pruned complete U-statistic, equal to u_stat_brute.

    Only tuples whose every coordinate lies inside the closed kernel window
    |t_j - x| <= h/2 are enumerated, and no other reaches the sum; the
    distinct-index constraint is enforced during the Cartesian enumeration.
    This is the one-member, one-point WindowGrid.
    Cells without a finite sum raise NonFiniteSum: on the exact path, terms
    whose exact sum is inf - inf or overflows; on every path, a non-finite
    total.
    """
    return WindowGrid(s, [spec.h], [spec.t], spec.kernel).u_stats([spec.g])[0][0][0]


def symmetrize(H, m):
    """Average of H over all joint permutations of its (x, y) argument pairs."""
    perms = list(itertools.permutations(range(m)))
    fact = float(len(perms))

    def Hbar(xs, ys):
        return math.fsum(
            H(tuple(xs[i] for i in sig), tuple(ys[i] for i in sig)) for sig in perms
        ) / fact

    return Hbar


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


@np.errstate(over="ignore", invalid="ignore")
def incomplete_u(spec, s, budget, seed):
    """Incomplete U-statistic over `budget` tuples sampled without replacement.

    Uses a counter-based generator keyed by the seed, so the draw is a pure
    function of (seed, n, m, budget). As in the oracle, g is evaluated only
    on the sampled tuples inside every closed window |t_j - x_j| <= h/2; the
    rest are zero terms. A non-finite mean raises NonFiniteSum.
    """
    m, n = spec.m, s.n
    if m > n:
        raise DegenerateSample(f"order m={m} exceeds sample size n={n}")
    if budget < 1:
        raise SchemaError("budget must be >= 1")
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

    z = np.asarray(spec.t) - s.x[idx]
    w = np.ones(budget)
    for j in range(m):
        w *= eval_scaled(spec.kernel, spec.h, z[:, j])
    inside = np.all(np.abs(z) <= spec.h / 2.0, axis=1)
    terms = np.zeros(budget)
    terms[inside] = np.asarray(spec.g.eval(s.y[idx[inside]]), dtype=float) * w[inside]
    value = float(np.mean(terms))
    if not math.isfinite(value):
        raise NonFiniteSum(f"incomplete U-statistic h={spec.h}, t={spec.t}: mean is {value}")
    return UStatResult(value, budget, total, "incomplete")


def read_sample_csv(path):
    """Read a sample from CSV with header ``x,y``; row-numbered errors."""
    return Sample(*read_csv_columns(path, "x,y", "sample"))


def write_sample_csv(path, s):
    """Write a sample as CSV with header ``x,y``, atomically and streamed."""
    write_csv(path, "x,y", zip(s.x, s.y))
