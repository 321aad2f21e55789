"""U-statistics over ordered tuples of distinct indices.

Three evaluation paths for the kernel-weighted U-statistics: a brute-force
enumeration (the oracle), a locality-pruned path that only enumerates tuples
inside the kernel window, and a seeded incomplete-U subsampler for large n.
When the window holds few tuples, the pruned path builds the oracle's terms
with array operations and sums them with math.fsum; fsum is exactly rounded,
so the sum does not depend on the order of the terms or on zero terms, and
the pruned and brute paths agree bit for bit.
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
    PopulationTooLarge,
    SchemaError,
    UnsupportedOrder,
)
from .function_class import FunctionSpec
from .kernels import Kernel1D, eval_scaled, read_csv_columns

BRUTE_TUPLE_BUDGET = 10 ** 8
# up to this window-tuple count the pruned path builds the brute path's terms
# as arrays and sums them with math.fsum, bit-identical to the brute path;
# above it, BLAS and pairwise summation (agreement within 1e-12 relative)
EXACT_PATH_MAX = 400
_CHUNK_ELEMENTS = 4_000_000


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


def _windows(spec, s):
    """Per-coordinate windows |t_j - x_i| <= h/2, as half-open ranges
    (lo, hi) of positions in the sample's stable x-sort.

    Bounds are widened by a few ulps so no tuple that evaluates nonzero can
    be missed to floating rounding; extra boundary points contribute exact
    zeros.
    """
    xs = s.x_sorted
    half = spec.h / 2.0
    out = []
    for tj in spec.t:
        lo_val, hi_val = tj - half, tj + half
        for _ in range(4):
            lo_val = np.nextafter(lo_val, -np.inf)
            hi_val = np.nextafter(hi_val, np.inf)
        lo = int(np.searchsorted(xs, lo_val, side="left"))
        hi = int(np.searchsorted(xs, hi_val, side="right"))
        out.append((lo, hi))
    return out


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


def u_stat_windowed(spec, s):
    """Locality-pruned complete U-statistic, equal to u_stat_brute.

    Only tuples whose every coordinate lies inside the closed kernel window
    are enumerated; the distinct-index constraint is enforced during the
    Cartesian enumeration.
    """
    m, n = spec.m, s.n
    if m > n:
        raise DegenerateSample(f"order m={m} exceeds sample size n={n}")
    total = count_indices(n, m)
    ranges = _windows(spec, s)
    wins = [s.sort_index[lo:hi] for lo, hi in ranges]
    sizes = [w.size for w in wins]
    window_tuples = int(np.prod([float(sz) for sz in sizes]))
    if min(sizes) == 0:
        return UStatResult(0.0, 0, total, "windowed")

    if window_tuples <= EXACT_PATH_MAX:
        # the terms ukernel_scalar's H gives, built as arrays in H's order of
        # operations; fsum is exactly rounded, so dropping H's zero terms and
        # reordering the rest leave the bits of the sum unchanged
        idx = np.stack(np.meshgrid(*wins, indexing="ij"), axis=-1).reshape(-1, m)
        if m > 1:
            srt = np.sort(idx, axis=1)
            idx = idx[np.all(srt[:, 1:] != srt[:, :-1], axis=1)]
        evaluated = len(idx)
        zs = [spec.t[j] - s.x[idx[:, j]] for j in range(m)]
        w = 1.0
        for z in zs:
            w = w * eval_scaled(spec.kernel, spec.h, z)
        # H returns 0.0 before calling g outside the window, so g never sees
        # those tuples (an overflowing member would give inf * 0 = nan)
        inside = np.logical_and.reduce([np.abs(z) <= spec.h / 2.0 for z in zs])
        terms = spec.g.eval(s.y[idx[inside]]) * w[inside]
        return UStatResult(math.fsum(terms.tolist()) / total, evaluated, total, "windowed")

    weights = [
        eval_scaled(spec.kernel, spec.h, spec.t[j] - s.x_sorted[lo:hi])
        for j, (lo, hi) in enumerate(ranges)
    ]
    ys = [s.y[w] for w in wins]
    if m == 1:
        acc = float(np.dot(spec.g.eval(ys[0][:, None]), weights[0]))
        evaluated = sizes[0]
    elif m == 2:
        G = _tuples_eval(spec.g, ys[0], ys[1])
        if not G.flags.owndata:
            # g handed back one coordinate plane (identity_j). In a stacked
            # (k, k, 2) array that plane is a strided view, which matmul sums
            # with NumPy's own row loop instead of BLAS; a strided copy keeps
            # that loop, and so the output bytes.
            G = np.stack([G, G], axis=-1)[..., 0]
        acc = float(weights[0] @ (G @ weights[1]))
        common, i1, i2 = _common_positions(ranges[0], ranges[1], s.sort_index)
        if common.size:
            diag = spec.g.eval(np.stack([s.y[common], s.y[common]], axis=-1))
            acc -= float(np.sum(diag * weights[0][i1] * weights[1][i2]))
        evaluated = sizes[0] * sizes[1] - common.size
    elif m == 3:
        acc = 0.0
        evaluated = 0
        w23 = np.outer(weights[1], weights[2])
        neq23 = wins[1][:, None] != wins[2][None, :]
        chunk = max(1, _CHUNK_ELEMENTS // max(1, sizes[1] * sizes[2]))
        for lo in range(0, sizes[0], chunk):
            hi = min(lo + chunk, sizes[0])
            i1 = wins[0][lo:hi]
            mask = (
                neq23[None, :, :]
                & (i1[:, None, None] != wins[1][None, :, None])
                & (i1[:, None, None] != wins[2][None, None, :])
            )
            G = _tuples_eval(spec.g, ys[0][lo:hi], ys[1], ys[2])
            acc += float(
                np.sum(G * mask * weights[0][lo:hi, None, None] * w23[None, :, :])
            )
            evaluated += int(np.sum(mask))
    else:
        raise UnsupportedOrder(
            f"windowed vectorized path supports m <= 3; window has "
            f"{window_tuples} tuples for m={m}"
        )
    return UStatResult(acc / total, evaluated, total, "windowed")


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
    with open(path, "w") as fh:
        fh.write("x,y\n")
        for xv, yv in zip(s.x, s.y):
            fh.write(f"{xv:.17g},{yv:.17g}\n")
