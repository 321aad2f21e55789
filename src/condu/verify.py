"""Self-contained invariant checks, runnable from the command line.

Each check is deterministic given the seed and returns a pass/fail record
with a numeric detail, so a run can be audited without re-deriving anything.
"""

import math

import numpy as np

from .bandwidth import RateRegime, dyadic_grid, normalizer, truncate_split
from .estimator import centering, convolve, make_dgp
from .function_class import FunctionClass, builtin_member, envelope_tilde
from .hoeffding import (
    decomposition_check,
    degeneracy_check,
    empirical_measure,
    project,
)
from .kernels import builtin_kernel_ids, get_kernel, validate_kernel
from .ucore import (
    Sample,
    UKernelSpec,
    incomplete_u,
    symmetrize,
    u_stat_brute,
    u_stat_windowed,
    ukernel_scalar,
)


def _sample(rng, n):
    x = rng.uniform(0.0, 1.0, n)
    y = x + rng.normal(0.0, 0.5, n)
    return Sample(x, y)


def check_kernel_contracts(seed):
    worst = 0.0
    for kid in builtin_kernel_ids():
        rep = validate_kernel(get_kernel(kid))
        if not rep.passed:
            return False, 1.0, f"kernel {kid} failed validation"
        worst = max(worst, abs(rep.integral - 1.0))
    return True, worst, "max |integral - 1| over built-in kernels"


def check_brute_windowed_identity(seed):
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    worst = 0.0
    for m in (1, 2, 3):
        s = _sample(rng, 12)
        spec = UKernelSpec(
            builtin_member("sum", m), 0.4, tuple([0.5] * m), get_kernel("epanechnikov-rescaled")
        )
        b = u_stat_brute(ukernel_scalar(spec), s, m).value
        w = u_stat_windowed(spec, s).value
        if b != w:
            return False, abs(b - w), f"paths differ at m={m}"
        worst = max(worst, abs(b - w))
    return True, worst, "bitwise agreement of brute and windowed paths"


def check_symmetrization_invariance(seed):
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    s = _sample(rng, 10)

    def G(xs, ys):  # deliberately asymmetric
        return xs[0] * ys[1] + ys[0] ** 2

    gb = symmetrize(G, 2)
    d = abs(u_stat_brute(G, s, 2).value - u_stat_brute(gb, s, 2).value)
    return d <= 1e-12, d, "U-statistic unchanged by kernel symmetrization"


def check_hoeffding_identity(seed):
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    s = _sample(rng, 8)
    Q = empirical_measure(_sample(rng, 5))

    def G(xs, ys):  # asymmetric; the identity needs its symmetrization
        return (xs[0] + ys[1]) * (xs[1] - ys[0]) + 1.0

    d = decomposition_check(symmetrize(G, 2), 2, s, Q)
    return d <= 1e-10, d, "Hoeffding decomposition residual"


def check_projection_degeneracy(seed):
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    Q = empirical_measure(_sample(rng, 5))

    def L(xs, ys):
        return xs[0] * xs[1] + ys[0] + ys[1]

    d = degeneracy_check(project(L, 2, 2, Q), Q)
    return d <= 1e-10, d, "projected kernel is degenerate under the reference measure"


def check_dyadic_grid(seed):
    regime = RateRegime("bounded", c=1.0, m=2, b0=0.4)
    g = dyadic_grid(regime, ell=10)
    worst = 0.0
    for j, h in enumerate(g.anchors):
        worst = max(worst, abs(h ** 2 - 2.0 ** j * g.anchors[0] ** 2))
    ok = worst <= 1e-12 and g.L <= 2 * math.log(g.n_ell)
    return ok, worst, "h_j^m doubles per block and block count stays within 2 log n"


def check_normalizer(seed):
    v = normalizer(100, 0.1, 1)
    ref = math.sqrt(100 * 0.1) / math.sqrt(max(abs(math.log(0.1)), math.log(math.log(100))))
    d = abs(v - ref)
    return d <= 1e-14, d, "normalizer matches its definition at (n=100, h=0.1, m=1)"


def check_truncation_partition(seed):
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    fc = FunctionClass([builtin_member("sum", 2)])

    def gbar(ys):
        return ys[0] + ys[1]

    split = truncate_split(gbar, lambda ys: envelope_tilde(fc, 1.0, np.asarray(ys)), 2.5)
    worst = 0.0
    for _ in range(50):
        ys = tuple(rng.normal(0, 2, 2))
        worst = max(worst, abs(split.truncated(ys) + split.remainder(ys) - gbar(ys)))
    return worst == 0.0, worst, "truncated + remainder reproduces the kernel exactly"


def check_centering_of_one(seed):
    dgp = make_dgp("uniform_linear", "gaussian", 0.5)
    one = builtin_member("one", 2)
    v = centering(one, 0.2, (0.5, 0.5), dgp, get_kernel("triweight-rescaled"))
    d = abs(v - 1.0)
    return d == 0.0, d, "population centering of the constant function is exactly 1"


def check_convolution_closed_form(seed):
    # uniform kernel, phi(x) = x^2: the convolution at z is z^2 + h^2/12
    k = get_kernel("uniform")
    h, z = 0.3, 0.45
    v = convolve(lambda pts: pts[:, 0] ** 2, k, h, np.array([z]))
    d = abs(v - (z * z + h * h / 12.0))
    return d <= 1e-12, d, "moving-average closed form for a quadratic"


def check_incomplete_determinism(seed):
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    s = _sample(rng, 200)
    spec = UKernelSpec(builtin_member("product", 2), 0.3, (0.5, 0.5), get_kernel("uniform"))
    a = incomplete_u(spec, s, 1000, seed=seed).value
    b = incomplete_u(spec, s, 1000, seed=seed).value
    return a == b, abs(a - b), "seeded incomplete U-statistic is reproducible"


_CHECKS = {
    "kernel_contracts": check_kernel_contracts,
    "brute_windowed_identity": check_brute_windowed_identity,
    "symmetrization_invariance": check_symmetrization_invariance,
    "hoeffding_identity": check_hoeffding_identity,
    "projection_degeneracy": check_projection_degeneracy,
    "dyadic_grid": check_dyadic_grid,
    "normalizer": check_normalizer,
    "truncation_partition": check_truncation_partition,
    "centering_of_one": check_centering_of_one,
    "convolution_closed_form": check_convolution_closed_form,
    "incomplete_determinism": check_incomplete_determinism,
}


def run_checks(filter_substr=None, seed=0):
    """Run the invariant suites; returns a list of result records."""
    results = []
    for name in sorted(_CHECKS):
        if filter_substr and filter_substr not in name:
            continue
        passed, detail, note = _CHECKS[name](seed)
        results.append(
            {"name": name, "passed": bool(passed), "detail": float(detail), "note": note}
        )
    return results
