"""Workload definitions for the `condu rates` benchmark.

Each workload is one `condu rates` invocation on a config built from the
benchmark seed, plus the thread settings it runs with. The product of harness
threads and BLAS threads stays at or below 2, the core count of the machine
the sizes were chosen on. NOTES.md records why each workload exists.
"""

import copy
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".bench_out"

# criterion 09 of the acceptance suite (m = 1, unbounded class), reps raised
_M1 = {
    "dgp": {"id": "uniform_linear", "noise": "gaussian", "noise_param": 0.3},
    "kernel": {"id": "uniform"},
    "function_class": {
        "m": 1,
        "members": ["identity_j:1"],
        "regime": {"kind": "unbounded", "p": 2.05},
    },
    "grids": {
        "interval": [0.3, 0.7],
        "points_per_axis": 21,
        "bn_rule": "fixed",
        "quad_order": 32,
    },
    "regime": {"c": 0.15, "b0": 0.25},
    "experiment": {"n_list": [500, 4000], "reps": 80},
}

# the bounded config of acceptance criterion 08 at a single n, on a 15 x 15
# grid
_M2 = {
    "dgp": {"id": "uniform_linear", "noise": "uniform", "noise_param": 0.25},
    "kernel": {"id": "uniform"},
    "function_class": {
        "m": 2,
        "members": ["sum_clipped:2.5"],
        "regime": {"kind": "bounded", "M": 2.5},
    },
    "grids": {
        "interval": [0.3, 0.7],
        "points_per_axis": 15,
        "bn_rule": "fixed",
        "quad_order": 20,
    },
    "regime": {"c": 1.0, "b0": 0.25},
    "experiment": {"n_list": [2000], "reps": 2},
}

# m = 3: the chunked vectorized path of u_stat_windowed. The one bandwidth is
# 0.999 and the 8 grid points sit at the centre, so nearly every window holds
# the whole sample: the tuple count and the chunk buffer sizes, hence the run
# time and the peak RSS, barely depend on the seed.
_M3 = {
    "dgp": {"id": "uniform_linear", "noise": "uniform", "noise_param": 0.25},
    "kernel": {"id": "uniform"},
    "function_class": {
        "m": 3,
        "members": ["product", "sum"],
        "regime": {"kind": "bounded", "M": 4.0},
    },
    "grids": {
        "interval": [0.499, 0.501],
        "points_per_axis": 2,
        "bn_rule": "fixed",
        "quad_order": 12,
    },
    "regime": {"c": 3.1559, "b0": 0.9995},
    "experiment": {"n_list": [160], "reps": 1},
}

WORKLOADS = {
    "rates-m1": {"doc": _M1, "threads": 2, "blas": 1, "remainder": True},
    "rates-m2": {"doc": _M2, "threads": 2, "blas": 1, "remainder": False},
    "rates-m3": {"doc": _M3, "threads": 1, "blas": 2, "remainder": False},
}


def config_doc(name, seed):
    """The workload's config document; the benchmark seed is the config seed."""
    doc = copy.deepcopy(WORKLOADS[name]["doc"])
    doc["experiment"]["seed"] = int(seed)
    return doc


def rates_argv(name, config_path, out_dir):
    """Arguments after `python3 -m condu.cli` for one invocation."""
    w = WORKLOADS[name]
    argv = ["rates", "--config", str(config_path), "--out", str(out_dir),
            "--threads", str(w["threads"])]
    if w["remainder"]:
        argv.append("--remainder")
    return argv


def child_env(name):
    """Environment for a child that runs the program from this checkout."""
    blas = str(WORKLOADS[name]["blas"])
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = blas
    return env


def require_program():
    """Exit with status 2 unless the package source is present in the checkout."""
    if not (SRC / "condu" / "__init__.py").is_file():
        sys.stderr.write(f"benchmark: no package source at {SRC / 'condu'}\n")
        sys.exit(2)


def import_program():
    """Make `condu` importable from this checkout in the current process."""
    require_program()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
