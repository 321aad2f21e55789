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
    worst = 0.0
    for tail in itertools.product(range(Q.natoms), repeat=pk.k - 1):
        fixed = {j + 1: (Q.ax[i], Q.ay[i]) for j, i in enumerate(tail)}
        worst = max(worst, abs(_integrate(pk, pk.k, fixed, Q)))
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
    """(E (pi_k L)^2, E (L - EL)^2, E L^2), all exact finite sums over Q;
    project raises MeasureTooLarge over the expansion budget."""
    pk = project(L, m, k, Q)
    mean = _integrate(L, m, {}, Q)
    return (
        _integrate(lambda xs, ys: pk(xs, ys) ** 2, k, {}, Q),
        _integrate(lambda xs, ys: (L(xs, ys) - mean) ** 2, m, {}, Q),
        _integrate(lambda xs, ys: L(xs, ys) ** 2, m, {}, Q),
    )


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


def variance_bound_check(Lvec, m, dgp, n, reps, seed):
    """Empirical Var(U_n) against the classical bound (m/n) E L^2, the bound
    from 200,000 Monte Carlo draws.

    Lvec must be vectorized: Lvec(xs, ys) with arrays of shape (N, m).
    Returns (emp_var, bound, mc_se).
    """
    mc_draws = 200_000
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
