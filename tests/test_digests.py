"""Output bytes of the benchmark workloads and of `condu verify`, pinned.

Each test runs the CLI in a child process exactly as the benchmark does
(`benchmarks/workloads.py` gives the config, the arguments and the thread
settings) at seed 1, and compares the sha256 of every output file with the
digest CHANGES.md records for it. A change that keeps the output bytes
keeps these digests; one that moves a byte must say so and update them.
The bytes belong to the NumPy/OpenBLAS build and the OpenBLAS core they
were recorded with: Python 3.11.7, NumPy 2.4.6 and OpenBLAS 0.3.31, whose
runtime core (`scipy_openblas_get_corename64_`) was SkylakeX. "Haswell" is
only the build string `numpy.show_config` prints. BLAS reductions in another
build or on another core may round differently: forcing the Haswell core
changes the three rates digests (ROADMAP item 4).
"""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))
import workloads as W  # noqa: E402

from condu.config import parse_config  # noqa: E402

RATES_FILES = ("deviations.csv", "report.json", "config_echo.json")
# one digest per file of RATES_FILES, per workload at seed 1
RATES_SEED1 = {
    "rates-m1": ("310ebef6833a4433caddcd4f02ea3bb297e5503d8194affc5885b502f6b550f5",
                 "f3b9a39d5e2ae2da9081e5ddc015dd914d84b364b1b4f8e00eb2054131818128",
                 "dae891ba8b67419dce71ea1824ed75d75caf250e13e2fb3aec8f4b56f0165dcd"),
    "rates-m2": ("857f67927a22283f66cb1f05f32e7f3e5569139e8aedab7adc5cd4ad4c4b8536",
                 "66e286343b25ec55a7cdc1bfdc33034cab824dab462ba10164a984142ae721ad",
                 "456e483c43828bd0b37f2910198b5a80a949dbd43f6399275171395e283f95f3"),
    "rates-m3": ("9dd15bdd1f84a22665344376cd50c339249c5ced4d23acab572c3007fc42e329",
                 "403fa3b6d670fcdb0e2ff5bd26abbed713758e730417ab4411cfde3d3255d42c",
                 "1d605f871319140e99942ec930737146e8bcec27cf368e1982eade9b30ed81d5"),
}
# standard output of `condu verify --seed 1`
VERIFY_SEED1 = "56229baa78acb138763edede08270c354a29a7c11f430e9586209b20832c2c88"


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(RATES_SEED1))
def test_rates_workload_bytes_at_seed_1(name, tmp_path):
    doc = W.config_doc(name, 1)
    parse_config(doc)  # the workload stays within the parse-time budgets
    cfg, out = tmp_path / "cfg.json", tmp_path / "out"
    cfg.write_text(json.dumps(doc))
    subprocess.run([sys.executable, "-m", "condu.cli", *W.rates_argv(name, cfg, out)],
                   env=W.child_env(name), check=True, capture_output=True)
    got = tuple(_sha256((out / f).read_bytes()) for f in RATES_FILES)
    assert got == RATES_SEED1[name]


def test_verify_bytes_at_seed_1():
    res = subprocess.run([sys.executable, "-m", "condu.cli", "verify", "--seed", "1"],
                         env=W.child_env("rates-m1"), check=True, capture_output=True)
    assert _sha256(res.stdout) == VERIFY_SEED1
