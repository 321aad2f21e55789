"""Finite families of m-argument functions with envelopes and moment regimes.

The theory's supremum over a function class is realized here as a maximum
over an explicit finite family, which is what the simulation harness needs.
Member evaluators are vectorized: they accept arrays of shape (..., m) and
return arrays of shape (...).
"""

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .errors import DimensionMismatch, SchemaError


@dataclass(frozen=True)
class FunctionSpec:
    id: str
    eval: Callable[[np.ndarray], np.ndarray]
    m: int


@dataclass(frozen=True)
class Bounded:
    M: float

    def __post_init__(self):
        if not 0 < self.M < math.inf:
            raise SchemaError("bounded regime requires a finite M > 0")


@dataclass(frozen=True)
class Unbounded:
    p: float
    mu_p: Optional[float] = None

    def __post_init__(self):
        if not 2 < self.p < math.inf:
            raise SchemaError("unbounded regime requires a finite p > 2")


Regime = Union[Bounded, Unbounded]


_PARAM_KINDS = {"const": float, "identity_j": int, "indicator_leq": float,
                "sum_clipped": float}


def member_kind(spec_id):
    """(kind, number after the colon or None) of a built-in member id, or
    (None, None) for an id outside the built-in family; a built-in prefix
    with a bad number raises SchemaError."""
    if spec_id in ("sum", "product", "max", "one"):
        return spec_id, None
    kind, colon, param = str(spec_id).partition(":")
    conv = _PARAM_KINDS.get(kind)
    if not colon or conv is None:
        return None, None
    try:
        return kind, conv(param)
    except ValueError:
        raise SchemaError(f"member id {spec_id!r} needs a number after the colon") from None


def builtin_member(spec_id, m):
    """Construct one of the built-in family members by id string.

    Known ids: ``sum``, ``product``, ``max``, ``one``, ``const:c``,
    ``identity_j:j`` (1-based), ``indicator_leq:c`` (product of per-coordinate
    indicators 1{y_j <= c}), ``sum_clipped:M`` (sum clipped to [-M, M]).
    """
    kind, c = member_kind(spec_id)
    if kind == "sum":
        return FunctionSpec("sum", lambda y: np.sum(y, axis=-1), m)
    if kind == "product":
        return FunctionSpec("product", lambda y: np.prod(y, axis=-1), m)
    if kind == "max":
        return FunctionSpec("max", lambda y: np.max(y, axis=-1), m)
    if kind == "one":
        return FunctionSpec("one", lambda y: np.ones(y.shape[:-1]), m)
    if kind == "const":
        return FunctionSpec(spec_id, lambda y: np.full(y.shape[:-1], c), m)
    if kind == "identity_j":
        if not 1 <= c <= m:
            raise SchemaError(f"identity_j index {c} out of range 1..{m}")
        return FunctionSpec(spec_id, lambda y: y[..., c - 1], m)
    if kind == "indicator_leq":
        return FunctionSpec(
            spec_id, lambda y: np.prod((y <= c).astype(float), axis=-1), m
        )
    if kind == "sum_clipped":
        return FunctionSpec(
            spec_id, lambda y: np.clip(np.sum(y, axis=-1), -c, c), m
        )
    raise SchemaError(f"unknown function member id {spec_id!r}")


def as_integer(value):
    """value as an int; a bool, a non-number or a number with a fractional
    part raises TypeError or ValueError (inf: OverflowError)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(value)
    if value != int(value):
        raise ValueError(value)
    return int(value)


def polynomial_member(spec_id, m, terms):
    """Member of the form sum_k c_k * prod_j y_j^{e_kj}.

    ``terms`` is a list of (coefficient, exponents) with len(exponents) == m
    and integer exponents >= 0. The id may not be a built-in id: results are
    keyed and dispatched by id.
    """
    if member_kind(spec_id)[0] is not None:
        raise SchemaError(f"polynomial member id {spec_id!r} is a built-in id")
    try:
        terms = [(float(c), tuple(as_integer(e) for e in es)) for c, es in terms]
    except (TypeError, ValueError, OverflowError):
        raise SchemaError(f"polynomial member {spec_id!r} needs a list of "
                          "[coefficient, integer exponents] terms") from None
    for _, es in terms:
        if len(es) != m:
            raise SchemaError("polynomial exponent tuple length must equal m")
        if any(e < 0 for e in es):
            raise SchemaError(f"polynomial member {spec_id!r}: exponents must be >= 0")

    def _eval(y):
        out = np.zeros(y.shape[:-1])
        for c, es in terms:
            mono = np.full(y.shape[:-1], c)
            for j, e in enumerate(es):
                if e:
                    mono = mono * y[..., j] ** e
            out = out + mono
        return out

    return FunctionSpec(spec_id, _eval, m)


@dataclass(frozen=True)
class FunctionClass:
    members: tuple
    regime: Regime

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(self.members))
        if not self.members:
            raise SchemaError("function class must have at least one member")
        ms = {f.m for f in self.members}
        if len(ms) != 1:
            raise DimensionMismatch(f"members disagree on arity: {sorted(ms)}")
        ids = [f.id for f in self.members]
        if len(set(ids)) != len(ids):
            raise SchemaError(f"duplicate member ids in {ids}")

    @property
    def m(self):
        return self.members[0].m

    def envelope(self, y):
        """The smallest envelope of a finite family: the pointwise max of |phi|."""
        return np.max(np.stack([np.abs(f.eval(y)) for f in self.members]), axis=0)


def envelope_tilde(fc, kappa, y):
    """Symmetrized envelope kappa^m * sum over permutations sigma of F(y_sigma).

    Accepts a single length-m point or a batch of shape (N, m).
    """
    y = np.asarray(y, dtype=float)
    m = fc.m
    if y.shape[-1] != m:
        raise DimensionMismatch(f"expected trailing dimension {m}, got {y.shape}")
    total = np.zeros(y.shape[:-1])
    for sigma in itertools.permutations(range(m)):
        total = total + fc.envelope(y[..., sigma])
    out = (kappa ** m) * total
    return float(out) if np.ndim(out) == 0 else out

