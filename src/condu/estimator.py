"""Conditional U-statistic estimator, population centering and convolutions.

The centering is a population quantity: expectations of the kernel-weighted
U-statistics are convolutions of known data-generating-process densities with
the scaled product kernel, evaluated by tensor Gauss-Legendre quadrature.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import NoClosedFormConditional, SchemaError, ZeroDensityWindow
from .function_class import builtin_member, member_kind
from .kernels import composite_rule, dot, gauss_legendre_panels, panel_sums, tensor_rule
from .ucore import WindowGrid


@dataclass(frozen=True)
class Noise:
    kind: str  # "none" | "gaussian" | "uniform"
    param: float = 0.0

    def __post_init__(self):
        if self.kind not in ("none", "gaussian", "uniform"):
            raise SchemaError(f"unknown noise kind {self.kind!r}")
        if self.kind != "none" and not 0 < self.param < math.inf:
            raise SchemaError("noise parameter must be finite and positive")

    def draw(self, rng, size):
        if self.kind == "none":
            return np.zeros(size)
        if self.kind == "gaussian":
            return rng.normal(0.0, self.param, size)
        return rng.uniform(-self.param, self.param, size)

    def cdf(self, v):
        v = np.asarray(v, dtype=float)
        if self.kind == "none":
            return (v >= 0.0).astype(float)
        if self.kind == "gaussian":
            # imported here: scipy.special is most of the package's import
            # time, and only Gaussian-noise truths need it
            from scipy.special import ndtr

            return ndtr(v / self.param)
        return np.clip((v + self.param) / (2.0 * self.param), 0.0, 1.0)

    @property
    def bound(self):
        """Almost-sure bound on |noise|, or None for gaussian."""
        if self.kind == "none":
            return 0.0
        if self.kind == "uniform":
            return self.param
        return None


@dataclass(frozen=True)
class DgpSpec:
    """Fully known data-generating process: X ~ fX, Y = r(X) + noise."""

    id: str
    fx: Callable[[np.ndarray], np.ndarray]
    support: Tuple[float, float]
    regression: Callable[[np.ndarray], np.ndarray]
    noise: Noise
    sample_x: Callable  # (rng, shape) -> ndarray
    r_bound: float  # sup |r| over the support

    def draw(self, rng, shape):
        """(x, y) of the given shape: X from fX, then Y = r(X) + noise. An
        (N, m) draw equals the flat N * m draw reshaped."""
        x = np.asarray(self.sample_x(rng, shape), dtype=float)
        return x, self.regression(x) + self.noise.draw(rng, x.shape)


def _uniform01_fx(x):
    return np.where((x >= 0.0) & (x <= 1.0), 1.0, 0.0)


def _std_normal_fx(x):
    return np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


_DGP_BUILDERS = {
    "uniform_linear": lambda noise: DgpSpec(
        "uniform_linear", _uniform01_fx, (0.0, 1.0), lambda x: x, noise,
        lambda rng, n: rng.uniform(0.0, 1.0, n), r_bound=1.0,
    ),
    "uniform_quadratic": lambda noise: DgpSpec(
        "uniform_quadratic", _uniform01_fx, (0.0, 1.0), lambda x: x * x, noise,
        lambda rng, n: rng.uniform(0.0, 1.0, n), r_bound=1.0,
    ),
    "normal_linear": lambda noise: DgpSpec(
        "normal_linear", _std_normal_fx, (-6.0, 6.0), lambda x: x, noise,
        lambda rng, n: rng.normal(0.0, 1.0, n), r_bound=6.0,
    ),
}


def make_dgp(dgp_id, noise_kind="none", noise_param=0.0):
    noise = Noise(noise_kind, noise_param)
    if not isinstance(dgp_id, str) or dgp_id not in _DGP_BUILDERS:
        raise SchemaError(f"unknown dgp id {dgp_id!r}; known: {sorted(_DGP_BUILDERS)}")
    return _DGP_BUILDERS[dgp_id](noise)


@dataclass(frozen=True)
class EstimateCell:
    t: tuple
    h: float
    phi: str
    numerator: float
    denominator: float
    mhat: Optional[float]
    status: str  # "ok" | "empty_window" | "nonpositive_denominator"


def ratio_status(den):
    """Status of the ratio num / den: "ok" only for a positive denominator,
    "empty_window" for an exact zero, else "nonpositive_denominator"."""
    if den > 0.0:
        return "ok"
    if den == 0.0:
        return "empty_window"
    return "nonpositive_denominator"


def estimate_grid(members, hs, points, s, kernel, pool=None):
    """Stute's estimator m^(t, h) = U_n(phi, h, t) / U_n(1, h, t) at every
    bandwidth h and point t for each of the (nonempty) members: per
    bandwidth, per point, one EstimateCell per member. One WindowGrid call
    evaluates the denominator and every member over the sample's cells,
    its m = 3 cells on `pool` when one is given (see WindowGrid.u_stats).

    A vanishing window or a signed-kernel denominator is a cell status, not
    an exception: small-h cells are legitimately empty at finite n.
    """
    hs, points = tuple(hs), [tuple(t) for t in points]
    dens, *nums = WindowGrid(s, hs, points, kernel).u_stats([None, *members], pool)
    out = []
    for q, h in enumerate(hs):
        h_cells = []
        for k, t in enumerate(points):
            den = dens[q][k].value
            status = ratio_status(den)
            cells = []
            for phi, phi_nums in zip(members, nums):
                num = phi_nums[q][k].value
                mhat = num / den if status == "ok" else None
                cells.append(EstimateCell(t, h, phi.id, num, den, mhat, status))
            h_cells.append(cells)
        out.append(h_cells)
    return out


def estimate(phi, h, t, s, kernel):
    """Stute's estimator for one member at one bandwidth and point; see
    estimate_grid."""
    return estimate_grid((phi,), [h], [t], s, kernel)[0][0][0]


def product_density(dgp, t):
    """f~(t) = prod_j fX(t_j); accepts a point (m,) or a batch (..., m)."""
    t = np.asarray(t, dtype=float)
    out = np.prod(dgp.fx(t), axis=-1)
    return float(out) if np.ndim(out) == 0 else out


# rows of centers that _max_uniform_expectation takes at a time
_MAX_ROWS = 4096


def _max_uniform_expectation(rows, a):
    """Per row of centers c (shape (N, m)), E max_j (c_j + U_j) with U_j iid
    Uniform(-a, a); exact by piecewise Gauss-Legendre of order m + 2 (the
    CDF product is piecewise polynomial) over the panels between the row's
    distinct cuts c_j -+ a. The rows' cuts are sorted together, but
    kernels.panel_sums gives each panel its own dot and adds a row's panels
    in order, so each row gets the bits of composite_integral over its cuts
    alone."""
    rows = np.asarray(rows, dtype=float)
    if a == 0.0:
        return np.max(rows, axis=1)
    out = np.empty(len(rows))
    for start in range(0, len(rows), _MAX_ROWS):
        block = rows[start:start + _MAX_ROWS]
        cuts = np.sort(np.concatenate([block - a, block + a], axis=1), axis=1)
        fresh = np.ones(cuts.shape, dtype=bool)
        fresh[:, 1:] = cuts[:, 1:] != cuts[:, :-1]
        row, col = np.nonzero(fresh)
        flat = cuts[row, col]
        # panel p runs from flat[p] to flat[p + 1], two cuts of one row
        p = np.flatnonzero(row[1:] == row[:-1])
        x, half, weights = gauss_legendre_panels(flat[p], flat[p + 1], rows.shape[1] + 2)
        c = block[row[p], None, :]
        cdf = np.prod(np.clip((x[:, :, None] - c + a) / (2.0 * a), 0.0, 1.0), axis=2)
        totals = panel_sums(row[p].tolist(), half, weights, 1.0 - cdf, len(block))
        out[start:start + len(block)] = cuts[:, 0] + totals
    return out


def true_regression(dgp, phi, t):
    """Closed-form m_phi(t) = E[phi(Y) | X = t] for the built-in pairs.

    Accepts a point (m,) or a batch (..., m). All built-in noises are
    centered, so the sum and product cases carry no correction terms.
    """
    t = np.asarray(t, dtype=float)
    m = phi.m
    if t.shape[-1] != m:
        raise SchemaError(f"t must have trailing dimension {m}")
    kind, c = member_kind(phi.id)
    r = dgp.regression

    if kind == "one":
        out = np.ones(t.shape[:-1])
    elif kind == "const":
        out = np.full(t.shape[:-1], c)
    elif kind == "sum":
        out = np.sum(r(t), axis=-1)
    elif kind == "sum_clipped":
        bound = dgp.noise.bound
        if bound is None or m * (dgp.r_bound + bound) > c:
            raise NoClosedFormConditional(
                f"sum_clipped closed form needs the clip inactive on the "
                f"support; M={c} too small or noise unbounded"
            )
        out = np.sum(r(t), axis=-1)
    elif kind == "product":
        out = np.prod(r(t), axis=-1)
    elif kind == "identity_j":
        out = r(t[..., c - 1])
    elif kind == "indicator_leq":
        out = np.prod(dgp.noise.cdf(c - r(t)), axis=-1)
    elif kind == "max":
        if dgp.noise.kind == "gaussian":
            raise NoClosedFormConditional("max has no closed form under gaussian noise")
        out = _max_uniform_expectation(r(t).reshape(-1, m), dgp.noise.param)
        out = out.reshape(t.shape[:-1])
    else:
        raise NoClosedFormConditional(f"no closed-form regression for {phi.id!r}")
    return float(out) if np.ndim(out) == 0 else out


def convolve(phi, kernel, h, z):
    """(phi * K~_h)(z) = h^{-d} integral of phi(x) prod_j K((z_j - x_j)/h) dx.

    phi must be vectorized over batches of shape (N, d). Computed in the
    kernel's own coordinates, so the integration box is always the support
    cube regardless of h. The rule is of order 64 per axis, unsplit.
    """
    z = np.asarray(z, dtype=float).ravel()
    U, w, kw = _kernel_rule(kernel, 64, ((),) * z.size)
    pts = z[None, :] - h * U
    vals = np.asarray(phi(pts), dtype=float)
    return dot(vals * kw, w)


@lru_cache(maxsize=16)
def _kernel_rule(kernel, quad_order, cuts):
    """The tensor rule on the support cube, panels split at the per-axis
    cuts: read-only points U (N, d), weights w and kernel factor
    kw = prod_j K(U[:, j]). Points away from the density's breakpoints
    share one rule across every t and h."""
    U, w = tensor_rule([composite_rule(-0.5, 0.5, quad_order, c) for c in cuts])
    kw = np.ones(U.shape[0])
    for j in range(U.shape[1]):
        kw *= kernel.eval(U[:, j])
    for a in (U, w, kw):
        a.setflags(write=False)
    return U, w, kw


# E U_n over a grid maps at most this many quadrature points z - h*U at a
# time (a single point whose rule is longer gets a block of its own)
_BLOCK_POINTS = 8192


def expected_u_grid(dgp, members, kernel, h, points, quad_order):
    """E U_n(1, h, t) and each member's E U_n(phi, h, t) at every point t of
    a grid, at one bandwidth: an array of the denominators and one array
    per member, in the order of the points.

    E U_n(phi, h, t) is (m_phi * f~) convolved with the scaled product
    kernel, by the tensor rule split at t's cuts. The points that share
    their cuts share the rule, and are mapped to z - h*U in blocks of
    _BLOCK_POINTS; a block takes one density evaluation for the
    denominator and every member, and each point keeps its own kernels.dot
    over its own rule. Every operation is elementwise or that dot, so each
    value has the bits of the point evaluated on its own.
    """
    points = np.asarray(points, dtype=float).reshape(len(points), -1)
    den, nums = np.empty(len(points)), np.empty((len(members), len(points)))
    # per point and axis, the rule's panels split where the mapped point
    # z_j - h*u crosses a density breakpoint b, i.e. at u = (z_j - b) / h
    groups = {}
    for k, z in enumerate(points.tolist()):
        cuts = tuple(
            tuple(sorted({u for u in ((zj - b) / h for b in dgp.support) if -0.5 < u < 0.5}))
            for zj in z
        )
        groups.setdefault(cuts, []).append(k)
    for cuts, group in groups.items():
        U, w, kw = _kernel_rule(kernel, quad_order, cuts)
        step = max(1, _BLOCK_POINTS // w.size)
        for start in range(0, len(group), step):
            rows = group[start:start + step]
            pts = points[rows][:, None, :] - h * U
            dens = product_density(dgp, pts)
            # the member "one" gives ones * density, the density's own bits
            den[rows] = [dot(v, w) for v in dens * kw]
            for out, phi in zip(nums, members):
                vals = np.asarray(true_regression(dgp, phi, pts), dtype=float)
                out[rows] = [dot(v, w) for v in (vals * dens) * kw]
            # one block's arrays alive at a time: freed before the next's
            pts = dens = vals = None
    return den, nums


def expected_u(dgp, phi, kernel, h, t, quad_order=64):
    """E U_n(phi, h, t) at one point; see expected_u_grid."""
    return float(expected_u_grid(dgp, [phi], kernel, h, [t], quad_order)[1][0, 0])


def expected_u_one(dgp, m, kernel, h, t, quad_order=64):
    """E U_n(1, h, t) = E U_n of the member "one" at one point; see
    expected_u_grid."""
    return expected_u(dgp, builtin_member("one", m), kernel, h, t, quad_order)


def centering_ratio(eu, eu1, h, t):
    """E U_n(phi, h, t) / E U_n(1, h, t) from the two expectations. The one
    zero-density rule: a denominator at or below the cutoff below raises
    ZeroDensityWindow; no caller skips the point."""
    if eu1 <= 1e-14:
        t = tuple(float(v) for v in t)
        raise ZeroDensityWindow(f"denominator convolution {eu1:.3g} at t={t}, h={h}")
    return eu / eu1


def centering(phi, h, t, dgp, kernel):
    """E^ m^ = E U_n(phi, h, t) / E U_n(1, h, t), both by quadrature at the
    default order; a zero-density window raises ZeroDensityWindow (see
    centering_ratio)."""
    t = np.asarray(t, dtype=float)
    den, nums = expected_u_grid(dgp, [phi], kernel, h, [t], 64)
    return centering_ratio(float(nums[0, 0]), float(den[0]), h, t)
