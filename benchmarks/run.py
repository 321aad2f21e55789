"""Benchmark of the `condu rates` CLI, one workload per run.

Usage:
    python3 benchmarks/run.py --workload rates-m1 --seed 1 --seconds 30 --trace 0

With --trace 0 it times `python3 -m condu.cli rates` in fresh child processes,
in a closed loop (the next invocation starts when the previous one has exited)
for about --seconds seconds, and reports the end-to-end metrics of
BENCHMARK.json. With --trace 1 it runs the same untraced closed loop, then
one traced in-process run (tracer.py), and reports the per-layer metrics.
Every run checks the outputs (check.py) and prints their sha256 digests; the
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. `--workload all` runs every workload in turn.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

import check
import workloads as W
from condu.config import parse_config

SETUP_PROBES = 5
CHECK_CELLS = 12
CHILD_TIMEOUT_S = 170.0
_SETUP_CODE = "import sys, condu.cli; condu.cli.load_config(sys.argv[1])"


def run_child(argv, env, log_path, timeout):
    """Run a child to exit: (wall seconds, exit code, max RSS in MB)."""
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=W.ROOT, stdout=log,
                                stderr=subprocess.STDOUT)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def environment(name, seed):
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    w = W.WORKLOADS[name]
    return {
        "workload": name,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": w["blas"],
        "harness_threads": w["threads"],
    }


class Run:
    """One workload at one seed: children, checks and the result line."""

    def __init__(self, name, seed, units):
        self.name, self.seed, self.units = name, seed, units
        self.start = time.perf_counter()
        self.dir = W.OUT_ROOT / f"{name}-seed{seed}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.config = self.dir / "config.json"
        self.config.write_text(json.dumps(W.config_doc(name, seed), indent=1))
        self.env = W.child_env(name)
        self.attempted, self.failures = 0, []

    def timeout(self):
        return max(1.0, CHILD_TIMEOUT_S - (time.perf_counter() - self.start))

    def expect(self, ok, message):
        self.attempted += 1
        if not ok:
            self.failures.append(message)

    def setup_s(self):
        """Median wall time of interpreter start + import + config load."""
        argv = [sys.executable, "-c", _SETUP_CODE, str(self.config)]
        times = []
        for i in range(SETUP_PROBES + 1):
            wall, rc, _ = run_child(argv, self.env, self.dir / "setup.log",
                                    self.timeout())
            self.expect(rc == 0, f"setup probe exited {rc}")
            if i:  # the first probe warms the page and bytecode caches
                times.append(wall)
        return statistics.median(times)

    def invoke(self, label, traced=False):
        out = self.dir / label
        rates = W.rates_argv(self.name, self.config, out)
        if traced:
            argv = [sys.executable, str(W.ROOT / "benchmarks" / "tracer.py"),
                    self.name, str(self.dir / "layers.json"), "--"] + rates
        else:
            argv = [sys.executable, "-m", "condu.cli"] + rates
        wall, rc, rss = run_child(argv, self.env, self.dir / f"{label}.log",
                                  self.timeout())
        self.expect(rc == 0, f"{label}: exit code {rc}, see {label}.log")
        digests = check.digests(out) if rc == 0 else {}
        print(f"{self.name} seed={self.seed} {label}: {wall:.3f} s, "
              f"{rss:.1f} MB, exit {rc}, sha256 "
              + " ".join(f"{k}={v}" for k, v in digests.items()))
        return {"label": label, "wall": wall, "rc": rc, "rss": rss,
                "digests": digests, "out": out}

    def check_first(self, inv):
        """Spot-check cells and row counts of one successful invocation."""
        if inv["rc"] != 0:
            return
        attempted, failures = check.check_output(self.cfg, inv["out"], self.seed,
                                                 CHECK_CELLS)
        self.attempted += attempted
        self.failures += failures

    def loop(self, seconds):
        """Untraced invocations, one after another, for about `seconds`."""
        runs = []
        t0 = time.perf_counter()
        while True:
            runs.append(self.invoke(f"run{len(runs)}"))
            last = runs[-1]
            if last["rc"] != 0:
                break
            if time.perf_counter() - t0 + last["wall"] > seconds:
                break
        self.check_first(runs[0])
        for r in runs[1:]:
            self.expect(r["digests"] == runs[0]["digests"],
                        f"{r['label']}: output bytes differ from run0")
        return runs

    def untraced(self, seconds):
        setup = self.setup_s()
        runs = self.loop(seconds)
        run_s = statistics.median(r["wall"] for r in runs)
        cells = check.expected_counts(self.cfg)[1]
        return {
            "setup_s": setup,
            "run_s": run_s,
            "cells_per_s": cells / run_s,
            "peak_rss_mb": statistics.median(r["rss"] for r in runs),
        }, runs

    def traced(self, seconds):
        runs = self.loop(seconds)
        traced = self.invoke("traced", traced=True)
        self.expect(
            traced["rc"] == 0 and traced["digests"] == runs[0]["digests"],
            "traced output bytes differ from the untraced run",
        )
        layers = {}
        if traced["rc"] == 0:
            layers = json.loads((self.dir / "layers.json").read_text())
        layers["trace.overhead_s"] = (
            traced["wall"] - statistics.median(r["wall"] for r in runs))
        return layers, runs + [traced]

    def execute(self, seconds, trace):
        self.cfg = parse_config(W.config_doc(self.name, self.seed))
        env = environment(self.name, self.seed)
        print("environment " + json.dumps(env, sort_keys=True))
        metrics, runs = self.traced(seconds) if trace else self.untraced(seconds)
        for message in self.failures:
            print(f"CHECK FAILED: {message}")
        frac = len(self.failures) / max(1, self.attempted)
        for key, value in metrics.items():
            print(f"{key} = {value:.6g} {self.units[key]}")
        print(f"check_fail_frac = {frac:g} fraction "
              f"({len(self.failures)} of {self.attempted} checks)")
        result = {
            "correct": not self.failures,
            "attempted": self.attempted,
            "failed": len(self.failures),
            "metrics": {k: {"value": v, "unit": self.units[k]}
                        for k, v in metrics.items()},
        }
        record = dict(result, environment=env, check_failures=self.failures,
                      invocations=[{k: v for k, v in r.items() if k != "out"}
                                   for r in runs])
        (self.dir / f"result-trace{int(trace)}.json").write_text(
            json.dumps(record, indent=1, sort_keys=True))
        return result


def load_units():
    doc = json.loads((W.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc["end_to_end"] + doc["per_layer"]}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=list(W.WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    units = load_units()
    names = list(W.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        result = Run(name, args.seed, units).execute(args.seconds, args.trace)
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
