"""Scalar smoothing kernels with compact support, their scaled weights, and
the package's shared numerics: the composite Gauss-Legendre and tensor
rules, the numeric CSV reader, the one CSV writer (write_csv, which owns
the 17-digit float format), the atomic text writer and the BLAS pin,
which runs once, when the package is imported (see pin_blas).

All built-in kernels live on [-1/2, 1/2], integrate to one and are bounded.
The support boundary is closed: K(+-1/2) counts as inside the window, so the
binary-search windows used by the U-statistic code agree with the kernel's
own support test.
"""

import ctypes
import glob
import itertools
import os
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import InputFileError, InvalidBandwidth, OutputFileError, SchemaError

SUPPORT_HALFWIDTH = 0.5


def pin_blas():
    """Run BLAS on one thread. OpenBLAS splits some dot and matrix-vector
    products across threads, which changes their rounding. The setter is
    that of the OpenBLAS bundled with NumPy's wheels; under another BLAS the
    calls run unpinned. Called at import, so every caller, the CLI and the
    library alike, gets bytes that do not depend on the BLAS thread count."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas64_*.so")):
        setter = getattr(ctypes.CDLL(path), "scipy_openblas_set_num_threads64_", None)
        if setter is not None:
            setter(1)


pin_blas()


@dataclass(frozen=True)
class Kernel1D:
    """A one-dimensional kernel: vectorized evaluator, sup-bound and support."""

    id: str
    eval: Callable[[np.ndarray], np.ndarray]
    kappa: float
    support_halfwidth: float = SUPPORT_HALFWIDTH

    def __post_init__(self):
        # every window and weight cuts at +-1/2; no other half-width is supported
        if self.support_halfwidth != SUPPORT_HALFWIDTH:
            raise SchemaError(f"kernel support half-width must be {SUPPORT_HALFWIDTH}, "
                              f"got {self.support_halfwidth!r}")

    def __call__(self, u):
        return self.eval(np.asarray(u, dtype=float))


@dataclass(frozen=True)
class ValidationReport:
    passed: bool
    integral: float
    sup_abs: float
    support_violations: list
    signed: bool


def _uniform(u):
    return np.where(np.abs(u) <= 0.5, 1.0, 0.0)


def _epanechnikov(u):
    # (3/2)(1 - 4u^2) on [-1/2, 1/2], rescaled from the classical [-1, 1] form
    return np.where(np.abs(u) <= 0.5, 1.5 * (1.0 - 4.0 * u * u), 0.0)


def _triweight(u):
    # (35/16)(1 - 4u^2)^3 on [-1/2, 1/2]
    w = 1.0 - 4.0 * u * u
    return np.where(np.abs(u) <= 0.5, (35.0 / 16.0) * w * w * w, 0.0)


_BUILTINS = {
    "uniform": lambda: Kernel1D("uniform", _uniform, kappa=1.0),
    "epanechnikov-rescaled": lambda: Kernel1D(
        "epanechnikov-rescaled", _epanechnikov, kappa=1.5
    ),
    "triweight-rescaled": lambda: Kernel1D(
        "triweight-rescaled", _triweight, kappa=35.0 / 16.0
    ),
}


def builtin_kernel_ids():
    return tuple(sorted(_BUILTINS))


def get_kernel(kernel_id):
    if not isinstance(kernel_id, str) or kernel_id not in _BUILTINS:
        raise SchemaError(f"unknown kernel id {kernel_id!r}; known: {sorted(_BUILTINS)}")
    return _BUILTINS[kernel_id]()


def table_kernel(u_nodes, k_values, kappa=None):
    """Kernel given by a sampled table on [-1/2, 1/2], linearly interpolated;
    its sup-bound kappa (default: the table's max |k|) must be finite and at
    least that max."""
    u_nodes = np.asarray(u_nodes, dtype=float)
    k_values = np.asarray(k_values, dtype=float)
    if u_nodes.ndim != 1 or u_nodes.shape != k_values.shape:
        raise SchemaError("kernel table must be two equal-length columns")
    if np.any(np.diff(u_nodes) <= 0):
        raise SchemaError("kernel table abscissae must be strictly increasing")
    if u_nodes[0] < -0.5 - 1e-12 or u_nodes[-1] > 0.5 + 1e-12:
        raise SchemaError("kernel table abscissae must lie in [-0.5, 0.5]")
    sup = float(np.max(np.abs(k_values)))
    kappa = sup if kappa is None else kappa
    if not sup <= kappa < np.inf:
        raise SchemaError(f"kernel kappa must be finite and at least the table's "
                          f"max |k| = {sup:.17g}, got {kappa!r}")

    def _eval(u):
        out = np.interp(u, u_nodes, k_values, left=0.0, right=0.0)
        return np.where(np.abs(u) <= 0.5, out, 0.0)

    return Kernel1D("user-table", _eval, kappa=float(kappa))


def read_csv_columns(path, header, what):
    """Numeric columns of a CSV file with the given header line (spaces and
    blank lines ignored); every entry must be a finite number."""
    width = header.count(",") + 1
    rows = []
    try:
        fh = open(path, encoding="utf-8")
    except OSError as exc:
        raise InputFileError(f"cannot open {what} CSV {path!r}: {exc.strerror}") from None
    with fh:
        try:
            got = fh.readline().strip()
            if got.replace(" ", "") != header:
                raise SchemaError(f"{what} CSV must have header {header!r}, got {got!r}")
            for lineno, line in enumerate(fh, start=2):
                if not line.strip():
                    continue
                try:
                    row = [float(v) for v in line.split(",")]
                except ValueError:
                    row = []
                if len(row) != width or not np.all(np.isfinite(row)):
                    raise SchemaError(
                        f"{what} CSV row {lineno}: expected {width} finite numbers, "
                        f"got {line.strip()!r}"
                    )
                rows.append(row)
        except UnicodeDecodeError as exc:
            raise SchemaError(f"{what} CSV {path!r} is not UTF-8 text: {exc.reason}") from None
    if not rows:
        raise SchemaError(f"{what} CSV has no data rows")
    return [np.array(col) for col in zip(*rows)]


# a CSV float takes 17 significant digits, enough to round-trip any float64;
# a CSV file is formatted and written _WRITE_ROWS rows at a time
_FLOAT = "%.17g"
_WRITE_ROWS = 1024


def format_float(x):
    """x with the CSV files' float format."""
    return _FLOAT % x


def write_csv(path, header, rows):
    """Write the header line and a line per tuple of `rows` atomically, the
    text streamed _WRITE_ROWS rows at a time: a float field takes _FLOAT
    ("nan" for nan), any other str(). Each batch's row format is read off
    its first row's field types, so each column must keep one type."""
    def pieces():
        yield header + "\n"
        it = iter(rows)
        while batch := list(itertools.islice(it, _WRITE_ROWS)):
            fmt = ",".join([_FLOAT if isinstance(v, float) else "%s" for v in batch[0]]) + "\n"
            yield "".join([fmt % row for row in batch])

    atomic_write(path, pieces())


def atomic_write(path, text):
    """Write text, a str or an iterable of str pieces written in turn, via a
    temp file in the same directory, then rename into place; an OSError
    becomes OutputFileError, and the temp file is removed."""
    d = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        # mode 0o666 less the umask, as open(path, "w") gives a new file
        # (mkstemp's files are 0o600 under any umask)
        name = os.path.join(d, f"tmp{os.urandom(8).hex()}.tmp")
        fd = os.open(name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        tmp = name
        with os.fdopen(fd, "w") as fh:
            fh.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise OutputFileError(f"cannot write {path!r}: {exc.strerror or exc}") from None
        raise


def load_table_kernel(path, kappa=None):
    """Load a user kernel from CSV with header ``u,k``."""
    us, ks = read_csv_columns(path, "u,k", "kernel")
    return table_kernel(us, ks, kappa=kappa)


@lru_cache(maxsize=None)
def _leggauss(order):
    """Read-only order-point Gauss-Legendre nodes and weights on [-1, 1]."""
    nodes, weights = leggauss(order)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def gauss_legendre_panels(lo, hi, order):
    """The order-point Gauss-Legendre rule mapped into every panel [lo[p],
    hi[p]] at once: the nodes (P, order), the half-widths (P,) and the
    weights on [-1, 1]. The one panel map of the package's quadratures."""
    nodes, weights = _leggauss(order)
    half = 0.5 * np.subtract(hi, lo)
    return (0.5 * np.add(lo, hi))[:, None] + half[:, None] * nodes, half, weights


def composite_integral(f, cuts, order):
    """Integral of a vectorized f over [cuts[0], cuts[-1]], panel by panel."""
    x, half, weights = gauss_legendre_panels(cuts[:-1], cuts[1:], order)
    total = 0.0
    for xp, hp in zip(x, half.tolist()):
        total += hp * float(np.dot(weights, f(xp)))
    return total


def composite_rule(lo, hi, order, breaks):
    """Flat (nodes, weights) of the composite rule on [lo, hi], with panels
    split at the breakpoints that fall strictly inside."""
    cuts = sorted({lo, hi, *(b for b in breaks if lo < b < hi)})
    x, half, weights = gauss_legendre_panels(cuts[:-1], cuts[1:], order)
    return x.ravel(), (half[:, None] * weights).ravel()


def tensor_rule(rules):
    """Tensor product of per-axis (nodes, weights) rules: the (N, d) points
    in ij order and their weights."""
    mesh = np.meshgrid(*[x for x, _ in rules], indexing="ij")
    w = rules[0][1]
    for _, wj in rules[1:]:
        w = np.multiply.outer(w, wj).ravel()
    return np.stack([mm.ravel() for mm in mesh], axis=-1), w


def validate_kernel(k):
    """Check the kernel contracts on 1001 probe points inside the support and
    1000 outside: support, boundedness, unit integral by a 64-point composite
    rule.

    Failures are reported in the returned :class:`ValidationReport`, never
    raised.
    """
    inside = np.linspace(-0.5, 0.5, 1001)
    outside = np.concatenate(
        [np.linspace(-2.0, -0.5, 500, endpoint=False),
         -np.linspace(-2.0, -0.5, 500, endpoint=False)]
    )
    vals_in = k(inside)
    vals_out = k(outside)

    violations = [
        (float(u), float(v))
        for u, v in zip(outside, vals_out)
        if v != 0.0 and abs(u) > 0.5
    ]
    sup_abs = float(np.max(np.abs(vals_in)))
    integral = composite_integral(k, np.linspace(-0.5, 0.5, 9), 64)
    signed = bool(np.any(vals_in < 0.0))

    passed = (
        not violations
        and sup_abs <= k.kappa + 1e-12
        and abs(integral - 1.0) <= 1e-10
    )
    return ValidationReport(
        passed=passed,
        integral=integral,
        sup_abs=sup_abs,
        support_violations=violations,
        signed=signed,
    )


def eval_scaled(k, h, z):
    """Scaled kernel h^{-1} K(z/h); zero outside the closed window |z| <= h/2."""
    if h <= 0:
        raise InvalidBandwidth(f"bandwidth must be positive, got {h}")
    z = np.asarray(z, dtype=float)
    out = np.where(np.abs(z) <= h / 2.0, k(z / h) / h, 0.0)
    return float(out) if out.ndim == 0 else out

