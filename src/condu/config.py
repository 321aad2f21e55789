"""JSON experiment configs: one self-describing document per run.

Sections: dgp, kernel, function_class, regime, grids, experiment. The parsed
config keeps the raw dict alongside the built objects so every output
directory can echo exactly what was run.
"""

import json
import math
from dataclasses import dataclass

from .bandwidth import RateRegime
from .errors import InputFileError, SchemaError, within
from .estimator import DgpSpec, make_dgp
from .function_class import FunctionClass, as_integer, builtin_member, polynomial_member
from .kernels import Kernel1D, get_kernel, load_table_kernel


# most points a centering quadrature may use: the tensor rule has up to
# (3 quad_order)^m points, each axis split into at most three panels by the
# support's two breakpoints; the default 64 at m = 3 is 192^3 = 7.08e6
_QUAD_POINTS_BUDGET = 10 ** 7
# most rows a sample may have: simulate draws each column whole, 8 MB at the
# budget, and the largest n the package has been run at is 60,000
_N_BUDGET = 10 ** 6
# most evaluation points, points_per_axis^m: make_t_grid holds each as a
# tuple, and a sweep writes rows per point, bandwidth, member and rep
_GRID_POINTS_BUDGET = 10 ** 5
# most replications: rate_experiment holds each rep's rows until its final sort
_REPS_BUDGET = 10 ** 5
# most threads of one rate experiment: each worker of its m = 3 cell pool is
# an OS thread with its own stack, malloc arena and leaf buffers, and more of
# them than cores only add those
_THREADS_BUDGET = 64
# most deviation rows of one rate experiment: each, some 200-256 bytes, is
# held until the final sort, about 1 GB at the budget; the largest config
# the package has been run at makes 89,964
_ROWS_BUDGET = 4 * 10 ** 6


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
    epsilon: float
    quad_order: int
    raw: dict

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


def _count(section, key, where, default, least=1, most=math.inf):
    """section[key] (default when absent) as an int in [least, most]."""
    return within(_field(section, key, where, as_integer, default), least,
                  f"{where}.{key}", most)


def _floats(values):
    return tuple(float(v) for v in values)


def _ints(values):
    return tuple(as_integer(v) for v in values)


def _section(parent, name):
    """The config section `name`, a dotted path under the document, which
    must be a JSON object."""
    section = parent.get(name.rpartition(".")[2])
    if not isinstance(section, dict):
        raise SchemaError(f"config section '{name}' is missing or not an object")
    return section


def parse_config(doc):
    """Build an ExperimentConfig from a config dict (already JSON-decoded)."""
    if not isinstance(doc, dict):
        raise SchemaError("config must be a JSON object")
    d, k, f, r, g, e = (_section(doc, name) for name in (
        "dgp", "kernel", "function_class", "regime", "grids", "experiment"))
    dgp = make_dgp(
        _require(d, "id", "dgp"),
        noise_kind=d.get("noise", "none"),
        noise_param=_field(d, "noise_param", "dgp", default=0.0),
    )

    if "table" in k:
        if not isinstance(k["table"], str):
            raise SchemaError(f"kernel.table must be a file path, got {k['table']!r}")
        kappa = None if k.get("kappa") is None else _field(k, "kappa", "kernel")
        kernel = load_table_kernel(k["table"], kappa=kappa)
    else:
        kernel = get_kernel(_require(k, "id", "kernel"))

    m = _count(f, "m", "function_class", _REQUIRED)
    specs = _require(f, "members", "function_class")
    if not isinstance(specs, list):
        raise SchemaError("function_class.members must be a list")
    members = []
    for spec in specs:
        if spec == "one":
            raise SchemaError("member 'one' is the estimator's denominator, "
                              "reported by every sweep; remove it from the members")
        if isinstance(spec, str):
            members.append(builtin_member(spec, m))
        elif isinstance(spec, dict) and "poly" in spec:
            if not isinstance(spec.get("id", "poly"), str):
                raise SchemaError(f"function_class.members: poly id {spec['id']!r} "
                                  "is not a string")
            members.append(polynomial_member(spec.get("id", "poly"), m, spec["poly"]))
        else:
            raise SchemaError(f"unrecognized function member spec {spec!r}")
    # M and mu_p are checked and echoed; no computation reads them
    where, p = "function_class.regime", None
    rg = _section(f, where)
    kind = _require(rg, "kind", where)
    if kind == "bounded" and not 0 < _field(rg, "M", where) < math.inf:
        raise SchemaError("bounded regime requires a finite M > 0")
    if kind == "unbounded":
        p = _field(rg, "p", where)
        if rg.get("mu_p") is not None:
            _field(rg, "mu_p", where)
    rate = RateRegime(kind=kind, c=_field(r, "c", "regime"), m=m,
                      b0=_field(r, "b0", "regime"), p=p)

    interval = _field(g, "interval", "grids", _floats)
    if len(interval) != 2 or not -math.inf < interval[0] < interval[1] < math.inf:
        raise SchemaError("grids.interval must be [c, d] with finite c < d")
    bn_rule = g.get("bn_rule", "fixed")
    if bn_rule not in ("fixed", "decaying"):
        raise SchemaError(f"unknown bn_rule {bn_rule!r}")

    n_list = _field(e, "n_list", "experiment", _ints)
    if not n_list or any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise SchemaError("experiment.n_list must be nonempty and strictly ascending")
    for n in n_list:
        within(n, 1, "experiment.n_list entry", _N_BUDGET)
    epsilon = _field(e, "epsilon", "experiment", default=1.0)
    if not 0 < epsilon < math.inf:
        raise SchemaError("experiment.epsilon must be finite and > 0")
    quad_order, points = _count(g, "quad_order", "grids", 64), 1
    for _ in range(m):  # stops within 15 rounds: each round at least triples
        points *= 3 * quad_order
        if points > _QUAD_POINTS_BUDGET:
            raise SchemaError(f"grids.quad_order {quad_order} at m = {m} needs up to "
                              f"(3 * quad_order)^m quadrature points, over the "
                              f"budget of {_QUAD_POINTS_BUDGET:,}")
    t_points = _count(g, "points_per_axis", "grids", 21)
    if t_points ** m > _GRID_POINTS_BUDGET:  # m <= 14 here, by the budget above
        raise SchemaError(f"grids.points_per_axis {t_points} at m = {m} makes "
                          f"points_per_axis^m evaluation points, over the budget "
                          f"of {_GRID_POINTS_BUDGET:,}")

    return ExperimentConfig(
        dgp=dgp,
        fc=FunctionClass(members),
        kernel=kernel,
        regime=rate,
        n_list=n_list,
        reps=_count(e, "reps", "experiment", 1, most=_REPS_BUDGET),
        t_interval=interval,
        t_points=t_points,
        bn_rule=bn_rule,
        seed=_count(e, "seed", "experiment", 0, least=0),
        epsilon=epsilon,
        quad_order=quad_order,
        raw=doc,
    )


def load_config(path):
    try:
        fh = open(path, encoding="utf-8")
    except OSError as exc:
        raise InputFileError(f"cannot open config {path!r}: {exc.strerror}") from None
    with fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"config is not valid JSON: {exc}") from None
        except UnicodeDecodeError as exc:
            raise SchemaError(f"config {path!r} is not UTF-8 text: {exc.reason}") from None
    return parse_config(doc)
