import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from condu.ucore import Sample


def make_rng(seed):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


@pytest.fixture
def rng():
    return make_rng(12345)


def random_sample(rng, n, x_lo=0.0, x_hi=1.0, y_sigma=0.5):
    x = rng.uniform(x_lo, x_hi, n)
    y = x + rng.normal(0.0, y_sigma, n)
    return Sample(x, y)


def frozen_panels(cuts, order):
    """A frozen copy of the composite Gauss-Legendre rule's per-panel loop,
    kept apart from the library's panel map so that a change there cannot
    move both sides of a bit-for-bit test: per panel between consecutive
    cuts, the mapped nodes, the half-width and the weights."""
    nodes, weights = leggauss(order)
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        yield mid + half * nodes, half, weights


def frozen_composite_integral(f, cuts, order):
    """Integral of f over [cuts[0], cuts[-1]] by the frozen loop."""
    total = 0.0
    for x, half, weights in frozen_panels(cuts, order):
        total += half * float(np.dot(weights, f(x)))
    return total
