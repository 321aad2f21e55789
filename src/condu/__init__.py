"""Conditional U-statistics with bandwidth sweeps.

Library and CLI for kernel-weighted U-statistics of regression type:
estimation, population centering by exact convolution, Hoeffding
projections against finite reference measures, dyadic bandwidth grids,
envelope truncation, and a deterministic Monte Carlo harness for
uniform-in-bandwidth rate experiments.
"""

from .bandwidth import (
    DyadicGrid,
    RateRegime,
    TruncationSplit,
    dyadic_grid,
    gamma_threshold,
    lower_bandwidth,
    normalizer,
    truncate_split,
)
from .config import ExperimentConfig, load_config, parse_config
from .errors import ConduError
from .estimator import (
    DgpSpec,
    EstimateCell,
    centering,
    convolve,
    estimate,
    expected_u,
    expected_u_one,
    make_dgp,
    true_regression,
)
from .function_class import (
    FunctionClass,
    FunctionSpec,
    builtin_member,
    envelope_tilde,
    polynomial_member,
)
from .harness import (
    RateReport,
    bandwidths,
    child_seed,
    make_t_grid,
    rate_experiment,
    remainder_diagnostic,
    simulate,
)
from .hoeffding import (
    ReferenceMeasure,
    decomposition_check,
    degeneracy_check,
    empirical_measure,
    project,
)
from .kernels import Kernel1D, get_kernel, load_table_kernel, table_kernel, validate_kernel
from .ucore import (
    Sample,
    UKernelSpec,
    UStatResult,
    incomplete_u,
    read_sample_csv,
    symmetrize,
    u_stat_brute,
    u_stat_windowed,
    ukernel_scalar,
    write_sample_csv,
)
from .verify import run_checks

__version__ = "0.1.0"
