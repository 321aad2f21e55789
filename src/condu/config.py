"""JSON experiment configs: one self-describing document per run.

Sections: dgp, kernel, function_class, regime, grids, experiment. The parsed
config keeps the raw dict alongside the built objects so every output
directory can echo exactly what was run.
"""

import json
from dataclasses import dataclass, field

from .bandwidth import RateRegime
from .errors import InputFileError, SchemaError
from .estimator import DgpSpec, make_dgp
from .function_class import (
    Bounded,
    FunctionClass,
    Unbounded,
    builtin_member,
    make_function_class,
    polynomial_member,
)
from .kernels import Kernel1D, get_kernel, load_table_kernel


@dataclass(frozen=True)
class ExperimentConfig:
    dgp: DgpSpec
    fc: FunctionClass
    kernel: Kernel1D
    regime: RateRegime
    n_list: tuple
    reps: int
    t_interval: tuple
    t_points: int
    bn_rule: str  # "fixed" | "decaying"
    seed: int
    epsilon: float = 1.0
    quad_order: int = 64
    raw: dict = field(default_factory=dict)

    @property
    def m(self):
        return self.fc.m


def _require(section, key, where):
    if key not in section:
        raise SchemaError(f"missing field '{key}' in config section '{where}'")
    return section[key]


_REQUIRED = object()


def _field(section, key, where, conv=float, default=_REQUIRED):
    """conv(section[key]), the default standing in for an absent key unless
    the field is required; a value conv rejects is a SchemaError."""
    if default is _REQUIRED:
        value = _require(section, key, where)
    else:
        value = section.get(key, default)
    try:
        return conv(value)
    except (TypeError, ValueError, OverflowError):
        raise SchemaError(f"config field {where}.{key} cannot hold {value!r}") from None


def _count(section, key, where, default):
    """section[key] (default when absent) as an int of at least 1."""
    value = _field(section, key, where, int, default)
    if value < 1:
        raise SchemaError(f"{where}.{key} must be >= 1")
    return value


def _floats(values):
    return tuple(float(v) for v in values)


def _ints(values):
    return tuple(int(v) for v in values)


def parse_config(doc):
    """Build an ExperimentConfig from a config dict (already JSON-decoded)."""
    if not isinstance(doc, dict):
        raise SchemaError("config must be a JSON object")
    for section in ("dgp", "kernel", "function_class", "regime", "grids", "experiment"):
        if section not in doc:
            raise SchemaError(f"missing config section '{section}'")

    d = doc["dgp"]
    dgp = make_dgp(
        _require(d, "id", "dgp"),
        noise_kind=d.get("noise", "none"),
        noise_param=_field(d, "noise_param", "dgp", default=0.0),
    )

    k = doc["kernel"]
    if "table" in k:
        kappa = None if k.get("kappa") is None else _field(k, "kappa", "kernel")
        kernel = load_table_kernel(k["table"], kappa=kappa)
    else:
        kernel = get_kernel(_require(k, "id", "kernel"))

    f = doc["function_class"]
    m = _field(f, "m", "function_class", int)
    members = []
    for spec in _require(f, "members", "function_class"):
        if spec == "one":
            raise SchemaError("member 'one' is the estimator's denominator, "
                              "reported by every sweep; remove it from the members")
        if isinstance(spec, str):
            members.append(builtin_member(spec, m))
        elif isinstance(spec, dict) and "poly" in spec:
            members.append(polynomial_member(spec.get("id", "poly"), m, spec["poly"]))
        else:
            raise SchemaError(f"unrecognized function member spec {spec!r}")
    rg = _require(f, "regime", "function_class")
    kind = _require(rg, "kind", "function_class.regime")
    if kind == "bounded":
        regime_fc = Bounded(M=_field(rg, "M", "function_class.regime"))
    elif kind == "unbounded":
        regime_fc = Unbounded(
            p=_field(rg, "p", "function_class.regime"),
            mu_p=None if rg.get("mu_p") is None
            else _field(rg, "mu_p", "function_class.regime"),
        )
    else:
        raise SchemaError(f"unknown regime kind {kind!r}")
    fc = make_function_class(members, regime_fc)

    r = doc["regime"]
    rate = RateRegime(
        kind=kind,
        c=_field(r, "c", "regime"),
        m=m,
        b0=_field(r, "b0", "regime"),
        p=regime_fc.p if kind == "unbounded" else None,
    )

    g = doc["grids"]
    interval = _field(g, "interval", "grids", _floats)
    if len(interval) != 2 or interval[0] >= interval[1]:
        raise SchemaError("grids.interval must be [c, d] with c < d")
    bn_rule = g.get("bn_rule", "fixed")
    if bn_rule not in ("fixed", "decaying"):
        raise SchemaError(f"unknown bn_rule {bn_rule!r}")

    e = doc["experiment"]
    n_list = _field(e, "n_list", "experiment", _ints)
    if not n_list or any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise SchemaError("experiment.n_list must be nonempty and strictly ascending")
    epsilon = _field(e, "epsilon", "experiment", default=1.0)
    if not epsilon > 0:
        raise SchemaError("experiment.epsilon must be > 0")

    return ExperimentConfig(
        dgp=dgp,
        fc=fc,
        kernel=kernel,
        regime=rate,
        n_list=n_list,
        reps=_count(e, "reps", "experiment", 1),
        t_interval=interval,
        t_points=_count(g, "points_per_axis", "grids", 21),
        bn_rule=bn_rule,
        seed=_field(e, "seed", "experiment", int, 0),
        epsilon=epsilon,
        quad_order=_count(g, "quad_order", "grids", 64),
        raw=doc,
    )


def load_config(path):
    try:
        fh = open(path)
    except OSError as exc:
        raise InputFileError(f"cannot open config {path!r}: {exc.strerror}") from None
    with fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"config is not valid JSON: {exc}") from None
    return parse_config(doc)
