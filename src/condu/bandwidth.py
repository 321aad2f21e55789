"""Bandwidth rate anchors, dyadic block grids and envelope truncation.

Natural logarithms throughout. The loglog term in the normalizer is clamped
via max(n, 16) so it stays positive and monotone for small n; the theory is
asymptotic and silent there.
"""

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional

from .errors import (
    BandwidthOutOfRange,
    EmptyBandwidthRange,
    InvalidBandwidth,
    SampleTooSmall,
    SchemaError,
)


@dataclass(frozen=True)
class RateRegime:
    """The function class's regime, bounded or with a finite p-th moment
    (p > 2): it fixes the rate anchor and the remainder's truncation level."""

    kind: str  # "bounded" | "unbounded"
    c: float
    m: int
    b0: float
    p: Optional[float] = None

    def __post_init__(self):
        if self.kind not in ("bounded", "unbounded"):
            raise SchemaError(f"unknown regime kind {self.kind!r}")
        if self.kind == "unbounded" and not (self.p is not None and 2 < self.p < math.inf):
            raise SchemaError("unbounded regime requires a finite p > 2")
        if not 0 < self.b0 < 1:
            raise SchemaError("b0 must lie in (0, 1)")
        if not 0 < self.c < math.inf:
            raise SchemaError("c must be finite and positive")


@dataclass(frozen=True)
class DyadicGrid:
    n_ell: int
    anchors: tuple
    L: int


@dataclass(frozen=True)
class TruncationSplit:
    truncated: Callable
    remainder: Callable


def lower_bandwidth(regime, n):
    """Rate anchor: c (log n / n)^{1/m}, or the p-adjusted version for
    unbounded classes."""
    if n < 3:
        raise SampleTooSmall(f"need n >= 3, got {n}")
    ratio = math.log(n) / n
    if regime.kind == "bounded":
        return regime.c * ratio ** (1.0 / regime.m)
    return regime.c * (ratio ** (1.0 - 2.0 / regime.p)) ** (1.0 / regime.m)


def dyadic_bandwidths(a, m, limit):
    """h_0 = a, then h_j = (2^j a^m)^{1/m} while h_j <= limit; callers check
    the anchor against their own cap."""
    yield a
    for j in itertools.count(1):
        hj = (2.0 ** j * a ** m) ** (1.0 / m)
        if hj > limit:
            return
        yield hj


def dyadic_grid(regime, ell):
    """Dyadic block boundaries h_j with h_j^m = 2^j a^m, up to 2*b0."""
    if ell < 2:
        raise SampleTooSmall("ell must be >= 2")
    n_ell = 2 ** ell
    a0 = lower_bandwidth(regime, n_ell)
    if a0 > regime.b0:
        raise EmptyBandwidthRange(
            f"anchor {a0:.6g} exceeds b0={regime.b0}; n={n_ell} too small for "
            f"c={regime.c}"
        )
    anchors = tuple(dyadic_bandwidths(a0, regime.m, 2.0 * regime.b0))
    return DyadicGrid(n_ell=n_ell, anchors=anchors, L=len(anchors) - 1)


def gamma_threshold(ell, epsilon, p):
    """gamma_ell = n_ell / log n_ell and the truncation level eps*gamma^{1/p}."""
    if ell < 2:
        raise SampleTooSmall("ell must be >= 2")
    if epsilon <= 0:
        raise SchemaError("epsilon must be positive")
    if p <= 2:
        raise SchemaError("p must exceed 2")
    gamma = 2.0 ** ell / (ell * math.log(2.0))
    return gamma, epsilon * gamma ** (1.0 / p)


def normalizer(n, h, m):
    """sqrt(n h^m) / sqrt(|log h| v loglog n)."""
    if n < 3:
        raise SampleTooSmall(f"need n >= 3, got {n}")
    if h <= 0:
        raise InvalidBandwidth(f"bandwidth must be positive, got {h}")
    if h >= 1:
        raise BandwidthOutOfRange(
            "the |log h| v loglog n convention assumes h < 1"
        )
    denom = max(abs(math.log(h)), math.log(math.log(max(n, 16))))
    return math.sqrt(n * h ** m) / math.sqrt(denom)


def truncate_split(gbar, ftilde, threshold):
    """Split a symmetrized kernel of y at the envelope level.

    truncated fires on F~(y) <= threshold (boundary included), remainder on
    the complement; the two add back to gbar pointwise.
    """
    if threshold <= 0:
        raise SchemaError("threshold must be positive")

    def truncated(ys):
        return gbar(ys) * (ftilde(ys) <= threshold)

    def remainder(ys):
        return gbar(ys) * (ftilde(ys) > threshold)

    return TruncationSplit(truncated=truncated, remainder=remainder)
