"""Run the benchmark over several seeds and report each metric's spread.

Usage:
    python3 benchmarks/spread.py --workloads rates-m1 rates-m2 --seeds 1 2 3 \
        [--out summary.json]

Each run is `run.py --trace 0` at run_seconds of BENCHMARK.json.

For every workload and end-to-end metric it prints the median of the values
over the seeds, and the distance between their first and third quartiles as a
share of the median (statistics.quantiles with n=4), beside the metric's
bound. --out writes the per-seed values, medians and spreads as JSON, the
form of the BENCH_*.json trajectory entries.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", nargs="+", required=True)
    p.add_argument("--seeds", nargs="+", type=int, required=True)
    p.add_argument("--out", default=None)
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {"run_seconds": seconds, "seeds": args.seeds, "workloads": {}}
    ok = True
    for name in args.workloads:
        values, environment, results = {}, None, []
        for seed in args.seeds:
            cmd = [sys.executable, str(ROOT / "benchmarks" / "run.py"),
                   "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"]
            lines = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                   check=True).stdout.splitlines()
            result = json.loads(lines[-1])
            environment = next(json.loads(line.split(" ", 1)[1])
                               for line in lines if line.startswith("environment "))
            ok = ok and result["correct"]
            results.append({k: result[k] for k in ("correct", "attempted", "failed")})
            for key, m in result["metrics"].items():
                values.setdefault(key, []).append(m["value"])
            print(f"{name} seed={seed} correct={result['correct']} "
                  + " ".join(f"{k}={m['value']:.4g}"
                             for k, m in result["metrics"].items()), flush=True)
        stats = {}
        for key, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else [med] * 3
            spread = (q3 - q1) / med if med else 0.0
            stats[key] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                          "values": vals}
            print(f"  {name} {key}: median {med:.6g}, spread {spread:.4f}"
                  f" (bound {bounds[key]})")
        summary["workloads"][name] = {"environment": environment,
                                      "checks": results, "metrics": stats}
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
