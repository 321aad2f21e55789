"""Hoeffding projections against an explicit finite reference measure.

Projecting against a finite atomic measure turns every check into an exact
finite sum: the decomposition identity is algebraic and holds for ANY
probability measure, so no approximation is needed to verify it.
"""

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidProjectionOrder, MeasureTooLarge, SchemaError
from .estimator import conditional_mean_fixed
from .kernels import composite_rule, read_csv_columns
from .ucore import Sample, u_stat_brute

_EXPANSION_BUDGET = 10 ** 7


@dataclass(frozen=True)
class ReferenceMeasure:
    ax: np.ndarray
    ay: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        ax = np.asarray(self.ax, dtype=float)
        ay = np.asarray(self.ay, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if ax.size == 0 or ax.shape != ay.shape or ax.shape != w.shape:
            raise SchemaError("measure needs equal-length nonempty atom columns")
        if np.any(w < 0) or abs(float(np.sum(w)) - 1.0) > 1e-12:
            raise SchemaError("weights must be nonnegative and sum to 1")
        object.__setattr__(self, "ax", ax)
        object.__setattr__(self, "ay", ay)
        object.__setattr__(self, "weights", w)

    @property
    def natoms(self):
        return self.ax.size


def empirical_measure(s):
    n = s.n
    return ReferenceMeasure(s.x, s.y, np.full(n, 1.0 / n))


def read_measure_csv(path):
    """Load a reference measure from CSV with header ``x,y,w``."""
    return ReferenceMeasure(*read_csv_columns(path, "x,y,w", "measure"))


def _integrate(L, m, fixed, Q):
    """E over Q of L with the positions in `fixed` held at given (x, y)."""
    free = [j for j in range(m) if j not in fixed]
    xs = [0.0] * m
    ys = [0.0] * m
    for j, (xv, yv) in fixed.items():
        xs[j] = xv
        ys[j] = yv
    terms = []
    ax, ay, w = Q.ax, Q.ay, Q.weights
    for combo in itertools.product(range(Q.natoms), repeat=len(free)):
        wt = 1.0
        for j, ai in zip(free, combo):
            xs[j] = ax[ai]
            ys[j] = ay[ai]
            wt *= w[ai]
        terms.append(wt * L(tuple(xs), tuple(ys)))
    return math.fsum(terms)


@dataclass(frozen=True)
class ProjectedKernel:
    base: Callable
    m: int
    k: int
    measure: ReferenceMeasure

    def __call__(self, xs, ys):
        # signed product measure (delta - P)^k x P^{m-k} via inclusion-exclusion
        k, m, Q = self.k, self.m, self.measure
        terms = []
        for r in range(k + 1):
            for S in itertools.combinations(range(k), r):
                fixed = {j: (xs[j], ys[j]) for j in S}
                sign = (-1.0) ** (k - r)
                terms.append(sign * _integrate(self.base, m, fixed, Q))
        return math.fsum(terms)


def project(L, m, k, Q):
    """k-th Hoeffding projection of a symmetric m-argument kernel."""
    if not 1 <= k <= m:
        raise InvalidProjectionOrder(f"need 1 <= k <= m, got k={k}, m={m}")
    if Q.natoms ** m > _EXPANSION_BUDGET:
        raise MeasureTooLarge(
            f"{Q.natoms}^{m} atom combinations exceed the exact-expansion budget"
        )
    return ProjectedKernel(base=L, m=m, k=k, measure=Q)


def decomposition_check(L, m, s, Q):
    """|U_n^(m)(L) - Q^m(L) - sum_k C(m,k) U_n^(k)(pi_k L)|.

    An algebraic identity for any reference measure Q, so the residual is
    pure floating-point noise.
    """
    lhs = u_stat_brute(L, s, m).value
    rhs = _integrate(L, m, {}, Q)
    for k in range(1, m + 1):
        pk = project(L, m, k, Q)
        rhs += math.comb(m, k) * u_stat_brute(pk, s, k).value
    return abs(lhs - rhs)


def degeneracy_check(pk, Q):
    """max over fixed tails of |E_Q pi_k L(Z_1, z_2, ..., z_k)|."""
    k = pk.k
    ax, ay, w = Q.ax, Q.ay, Q.weights
    worst = 0.0
    for tail in itertools.product(range(Q.natoms), repeat=k - 1):
        txs = [ax[i] for i in tail]
        tys = [ay[i] for i in tail]
        val = math.fsum(
            w[i] * pk(tuple([ax[i]] + txs), tuple([ay[i]] + tys))
            for i in range(Q.natoms)
        )
        worst = max(worst, abs(val))
    return worst


def _centered_conditional(L, m, k, Q):
    """rho_k L = E_Q[L | first k coordinates] - E_Q L, as a k-ary kernel.

    This is the nested realization of the projection family: the ranges grow
    with k, so rho_k o rho_l = rho_k for k <= l. (The canonical
    inclusion-exclusion form instead annihilates lower orders.)
    """
    mean = _integrate(L, m, {}, Q)

    def rho(xs, ys, _L=L, _m=m, _k=k, _Q=Q, _mean=mean):
        fixed = {j: (xs[j], ys[j]) for j in range(_k)}
        return _integrate(_L, _m, fixed, _Q) - _mean

    return rho


def nesting_check(L, m, k, l, Q, probes):
    """max over probes of |rho_k(rho_l L) - rho_k L| for the nested
    projection family rho_k = E[. | first k coordinates] - E[.]."""
    if not (1 <= k <= l <= m):
        raise InvalidProjectionOrder(f"need k <= l <= m, got {k}, {l}, {m}")
    rho_l = _centered_conditional(L, m, l, Q)
    rho_kl = _centered_conditional(rho_l, l, k, Q)
    rho_k = _centered_conditional(L, m, k, Q)
    worst = 0.0
    for xs, ys in probes:
        worst = max(
            worst, abs(rho_kl(tuple(xs), tuple(ys)) - rho_k(tuple(xs), tuple(ys)))
        )
    return worst


def projection_variance_check(L, m, k, Q):
    """(E (pi_k L)^2, E (L - EL)^2, E L^2), all exact finite sums over Q."""
    if Q.natoms ** m > _EXPANSION_BUDGET:
        raise MeasureTooLarge("atom expansion budget exceeded")
    pk = project(L, m, k, Q)
    ax, ay, w = Q.ax, Q.ay, Q.weights

    lhs_terms = []
    for combo in itertools.product(range(Q.natoms), repeat=k):
        wt = math.prod(w[i] for i in combo)
        v = pk(tuple(ax[i] for i in combo), tuple(ay[i] for i in combo))
        lhs_terms.append(wt * v * v)
    lhs = math.fsum(lhs_terms)

    mean = _integrate(L, m, {}, Q)
    mid_terms, rhs_terms = [], []
    for combo in itertools.product(range(Q.natoms), repeat=m):
        wt = math.prod(w[i] for i in combo)
        v = L(tuple(ax[i] for i in combo), tuple(ay[i] for i in combo))
        mid_terms.append(wt * (v - mean) ** 2)
        rhs_terms.append(wt * v * v)
    return lhs, math.fsum(mid_terms), math.fsum(rhs_terms)


def eval_linear_kernel(spec, dgp, x, y, quad_order=64):
    """Linear-term kernel S(x, y) = m h^m E[Gbar | (X_1, Y_1) = (x, y)].

    Expanded as a sum of m terms, one per slot receiving the conditioning
    pair; each term is an (m-1)-dimensional quadrature of the closed-form
    conditional mean against the product density, over the kernel window.
    """
    g, h, t, kern = spec.g, spec.h, spec.t, spec.kernel
    m = spec.m
    outer = [float(kern.eval(np.float64((tj - x) / h))) if abs(tj - x) <= h / 2.0 else 0.0
             for tj in t]
    if m == 1:
        return outer[0] * float(g.eval(np.array([y])))

    total = 0.0
    for j in range(m):
        if outer[j] == 0.0:
            continue
        free_ts = [t[i] for i in range(m) if i != j]
        rules = [
            composite_rule(ti - h / 2.0, ti + h / 2.0, quad_order, dgp.support)
            for ti in free_ts
        ]
        mesh = np.meshgrid(*[r[0] for r in rules], indexing="ij")
        pts = np.stack([mm.ravel() for mm in mesh], axis=-1)  # (N, m-1)
        psi = np.asarray(conditional_mean_fixed(dgp, g, pts, j, y), dtype=float)
        dens = np.ones(pts.shape[0])
        for i, ti in enumerate(free_ts):
            dens *= kern.eval((ti - pts[:, i]) / h) * dgp.fx(pts[:, i])
        w = rules[0][1]
        for r in rules[1:]:
            w = np.multiply.outer(w, r[1]).ravel()
        total += outer[j] * float(np.dot(psi * dens, w))
    return total


def _u_stat_vec(Lvec, s, m):
    """Complete U-statistic of a vectorized kernel, m in {1, 2}."""
    n = s.n
    if m == 1:
        return float(np.mean(Lvec(s.x[:, None], s.y[:, None])))
    if m == 2:
        X1, X2 = np.meshgrid(s.x, s.x, indexing="ij")
        Y1, Y2 = np.meshgrid(s.y, s.y, indexing="ij")
        xs = np.stack([X1.ravel(), X2.ravel()], axis=-1)
        ys = np.stack([Y1.ravel(), Y2.ravel()], axis=-1)
        vals = np.asarray(Lvec(xs, ys), dtype=float).reshape(n, n)
        np.fill_diagonal(vals, 0.0)
        return float(np.sum(vals)) / (n * (n - 1))
    raise ValueError("vectorized U-statistic supports m in {1, 2}")


def variance_bound_check(Lvec, m, dgp, n, reps, seed, mc_draws=200_000):
    """Empirical Var(U_n) against the classical bound (m/n) E L^2.

    Lvec must be vectorized: Lvec(xs, ys) with arrays of shape (N, m).
    Returns (emp_var, bound, mc_se).
    """
    if reps < 500:
        raise ValueError("reps must be >= 500")
    if n < m:
        raise ValueError("need n >= m")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    stats = np.empty(reps)
    for r in range(reps):
        x = dgp.sample_x(rng, n)
        y = dgp.simulate_y_given_x(x, rng)
        stats[r] = _u_stat_vec(Lvec, Sample(x, y), m)
    emp_var = float(np.var(stats, ddof=1))

    xs = dgp.sample_x(rng, (mc_draws * m)).reshape(mc_draws, m)
    ys = dgp.simulate_y_given_x(xs.ravel(), rng).reshape(mc_draws, m)
    l2 = np.asarray(Lvec(xs, ys), dtype=float) ** 2
    bound = (m / n) * float(np.mean(l2))
    se_bound = (m / n) * float(np.std(l2, ddof=1)) / math.sqrt(mc_draws)
    se_var = emp_var * math.sqrt(2.0 / (reps - 1))
    return emp_var, bound, math.hypot(se_bound, se_var)
