"""Traced in-process `condu rates` run for the per-layer metrics.

Usage: python3 benchmarks/tracer.py WORKLOAD METRICS_JSON -- <condu rates argv>

Spans are recorded from this file only, around the calls into each layer:
the names the harness looks up at call time are rebound to timing wrappers,
and the loaded config's kernel and member callables are wrapped. Nothing in
the package changes. Each span records wall time and the thread's CPU time
(time.thread_time, which leaves out time spent waiting for the GIL).
Per-span totals are aggregated as calls finish, per thread, so the exact
path's millions of kernel calls keep no span records; only the few
harness-level spans are kept whole, for the rep-pool busy share.
"""

import dataclasses
import json
import math
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from workloads import WORKLOADS, import_program

_clock = time.perf_counter
_cpu_clock = time.thread_time


class Tracer:
    """Nested spans per thread: count, wall time, self time and CPU time
    per name."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads = []

    def state(self):
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = {
                "stack": [],
                "agg": defaultdict(lambda: [0, 0.0, 0.0, 0.0]),
                "counts": defaultdict(float),
                "records": [],
                "sizes": [],
            }
            with self._lock:
                self._threads.append(st)
        return st

    def call(self, names, fn, args, kwargs, keep=None):
        """Run fn inside a span credited to every name in `names`."""
        st = self.state()
        stack = st["stack"]
        depth = len(stack)
        frame = [0.0]
        stack.append(frame)
        c0 = _cpu_clock()
        t0 = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = _clock()
            cpu = _cpu_clock() - c0
            stack.pop()
            dur = t1 - t0
            if stack:
                stack[-1][0] += dur
            for name in names:
                a = st["agg"][name]
                a[0] += 1
                a[1] += dur
                a[2] += dur - frame[0]
                a[3] += cpu
            if keep is not None:
                st["records"].append((names[0], t0, t1, depth, keep))

    def uncounted(self, seconds):
        """Charge tracer bookkeeping to no span's self time."""
        stack = self.state()["stack"]
        if stack:
            stack[-1][0] += seconds

    def merged(self):
        agg = defaultdict(lambda: [0, 0.0, 0.0, 0.0])
        counts = defaultdict(float)
        records, sizes = [], []
        for st in self._threads:
            for name, values in st["agg"].items():
                a = agg[name]
                for i, v in enumerate(values):
                    a[i] += v
            for name, v in st["counts"].items():
                counts[name] += v
            records += st["records"]
            sizes += st["sizes"]
        return agg, counts, records, sizes


def _wrap(tracer, name, fn, keep_arg=None):
    def traced(*args, **kwargs):
        keep = None if keep_arg is None else args[keep_arg]
        return tracer.call((name,), fn, args, kwargs, keep=keep)

    return traced


def _wrap_points(tracer, name, fn, per_point):
    """Wrap a vectorized evaluator, counting the points it is called on."""

    def traced(u):
        tracer.state()["counts"][name + ".points"] += np.size(u) // per_point
        return tracer.call((name,), fn, (u,), {})

    return traced


def _window_sizes(st, spec, s):
    """Closed-window sizes |t_j - x_i| <= h/2 per coordinate, from the
    sample's stable sort, widened by 4 ulps each side as the program does."""
    if st.get("sample") is not s:
        st["sample"] = s
        st["xs"] = s.x[s.sort_index]
    xs = st["xs"]
    half = spec.h / 2.0
    sizes = []
    for tj in spec.t:
        lo, hi = tj - half, tj + half
        for _ in range(4):
            lo = math.nextafter(lo, -math.inf)
            hi = math.nextafter(hi, math.inf)
        sizes.append(int(np.searchsorted(xs, hi, side="right"))
                     - int(np.searchsorted(xs, lo, side="left")))
    return sizes


def install(tracer):
    """Rebind the layer entry points the harness and ucore look up.

    Returns a list that receives the config as the CLI loads it."""
    import condu.cli as cli
    import condu.estimator as estimator
    import condu.harness as harness
    import condu.ucore as ucore
    from condu.function_class import FunctionSpec
    from condu.kernels import Kernel1D

    orig = {name: getattr(harness, name) for name in
            ("u_stat_windowed", "sweep_cells", "write_outputs", "builtin_member")}
    cli_load = cli.load_config
    loaded = []

    def u_stat_windowed(spec, s, *args, **kwargs):
        st = tracer.state()
        b0 = _clock()
        sizes = _window_sizes(st, spec, s)
        window_tuples = math.prod(sizes)
        if window_tuples == 0:
            path = "ucore.empty"
        elif window_tuples <= ucore.EXACT_PATH_MAX:
            path = "ucore.exact"
        else:
            path = "ucore.vec"
        tracer.uncounted(_clock() - b0)
        res = tracer.call(("ucore.u_stat_windowed", path), orig["u_stat_windowed"],
                          (spec, s) + args, kwargs)
        counts = st["counts"]
        counts["ucore.tuples_evaluated"] += res.tuples_evaluated
        counts[path + ".tuples"] += res.tuples_evaluated
        counts["ucore.window_tuples"] += window_tuples
        st["sizes"].extend(sizes)
        return res

    def sweep_cells(*args, **kwargs):
        rows = tracer.call(("harness.sweep_cells",), orig["sweep_cells"],
                           args, kwargs, keep=args[2])
        tracer.state()["counts"]["harness.rows"] += len(rows)
        return rows

    def write_outputs(*args, **kwargs):
        res = tracer.call(("harness.write_outputs",), orig["write_outputs"],
                          args, kwargs)
        tracer.state()["counts"]["harness.write_outputs.bytes"] += sum(
            p.stat().st_size for p in Path(args[2]).iterdir() if p.is_file()
        )
        return res

    def wrap_member(phi):
        return FunctionSpec(phi.id, _wrap_points(tracer, "function_class.eval",
                                                 phi.eval, phi.m), phi.m)

    def builtin_member(spec_id, m):
        return wrap_member(orig["builtin_member"](spec_id, m))

    def load_config(path):
        cfg = tracer.call(("config.load_config",), cli_load, (path,), {})
        k = cfg.kernel
        kernel = Kernel1D(k.id, _wrap_points(tracer, "kernels.eval", k.eval, 1),
                          k.kappa, k.support_halfwidth)
        fc = dataclasses.replace(
            cfg.fc, members=tuple(wrap_member(phi) for phi in cfg.fc.members)
        )
        loaded.append(cfg)
        return dataclasses.replace(cfg, kernel=kernel, fc=fc)

    harness.u_stat_windowed = u_stat_windowed
    harness.sweep_cells = sweep_cells
    harness.write_outputs = write_outputs
    harness.builtin_member = builtin_member
    harness.simulate = _wrap(tracer, "harness.simulate", harness.simulate, keep_arg=1)
    for name in ("expectation_cache", "bias_from_cache", "bias_at_cap",
                 "remainder_diagnostic"):
        setattr(harness, name, _wrap(tracer, f"harness.{name}", getattr(harness, name)))
    for name in ("expected_u", "expected_u_one", "true_regression"):
        setattr(harness, name, _wrap(tracer, f"estimator.{name}", getattr(harness, name)))
    harness.envelope_tilde = _wrap(tracer, "function_class.envelope_tilde",
                                   harness.envelope_tilde)
    ucore._windows = _wrap(tracer, "ucore.windows", ucore._windows)
    estimator.convolve = _wrap(tracer, "estimator.convolve", estimator.convolve)
    cli.load_config = load_config
    return loaded


def _rep_pool_busy(records, threads):
    """Summed sweep_cells time over threads x the rep-pool wall time, where the
    section at each n runs from its first top-level simulate to its last
    sweep_cells end (remainder-diagnostic simulates are nested, so excluded)."""
    spans = defaultdict(lambda: [math.inf, -math.inf])
    busy = 0.0
    for name, t0, t1, depth, n in records:
        if name == "harness.simulate" and depth == 0:
            spans[n][0] = min(spans[n][0], t0)
        elif name == "harness.sweep_cells":
            spans[n][1] = max(spans[n][1], t1)
            busy += t1 - t0
    wall = sum(hi - lo for lo, hi in spans.values() if hi > lo)
    return busy / (threads * wall) if wall > 0 else 0.0


def layer_metrics(tracer, cfg, threads, import_s):
    """The per-layer metrics of BENCHMARK.json except trace.overhead_s."""
    from condu.harness import bandwidths

    agg, counts, records, sizes = tracer.merged()

    def calls(name):
        return agg[name][0] if name in agg else 0

    def secs(name):
        return agg[name][1] if name in agg else 0.0

    def cpu(name):
        return agg[name][3] if name in agg else 0.0

    def per_call(name, scale):
        return scale * secs(name) / calls(name) if calls(name) else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "harness.simulate.s": secs("harness.simulate"),
        "harness.expectation_cache.s": secs("harness.expectation_cache"),
        "harness.sweep_cells.s": secs("harness.sweep_cells"),
        "harness.sweep_cells.self_s": agg["harness.sweep_cells"][2],
        "harness.sweep_cells.calls": calls("harness.sweep_cells"),
        "harness.bias_from_cache.s": secs("harness.bias_from_cache"),
        "harness.bias_at_cap.s": secs("harness.bias_at_cap"),
        "harness.remainder_diagnostic.s": secs("harness.remainder_diagnostic"),
        "harness.write_outputs.s": secs("harness.write_outputs"),
        "harness.write_outputs.bytes": counts["harness.write_outputs.bytes"],
        "harness.rows": counts["harness.rows"],
        "harness.rep_pool.busy_frac": _rep_pool_busy(records, threads),
        "ucore.u_stat_windowed.calls": calls("ucore.u_stat_windowed"),
        "ucore.u_stat_windowed.s": secs("ucore.u_stat_windowed"),
        "ucore.exact.calls": calls("ucore.exact"),
        "ucore.exact.s": secs("ucore.exact"),
        "ucore.exact.cpu_s": cpu("ucore.exact"),
        "ucore.exact.us_per_call": per_call("ucore.exact", 1e6),
        "ucore.vec.m": cfg.m,
        "ucore.vec.calls": calls("ucore.vec"),
        "ucore.vec.s": secs("ucore.vec"),
        "ucore.vec.cpu_s": cpu("ucore.vec"),
        "ucore.vec.ns_per_tuple": 1e9 * ratio(secs("ucore.vec"),
                                              counts["ucore.vec.tuples"]),
        "ucore.empty.calls": calls("ucore.empty"),
        "ucore.windows.s": secs("ucore.windows"),
        "ucore.tuples_evaluated": counts["ucore.tuples_evaluated"],
        "ucore.window_tuples": counts["ucore.window_tuples"],
        "ucore.useful_ratio": ratio(counts["ucore.tuples_evaluated"],
                                    counts["ucore.window_tuples"]),
        "ucore.window_size.p50": float(np.median(sizes)) if sizes else 0.0,
        "ucore.window_size.max": max(sizes) if sizes else 0,
        "estimator.expected_u.calls": calls("estimator.expected_u"),
        "estimator.expected_u.s": secs("estimator.expected_u"),
        "estimator.expected_u_one.calls": calls("estimator.expected_u_one"),
        "estimator.expected_u_one.s": secs("estimator.expected_u_one"),
        "estimator.true_regression.calls": calls("estimator.true_regression"),
        "estimator.true_regression.s": secs("estimator.true_regression"),
        "estimator.convolve.us_per_call": per_call("estimator.convolve", 1e6),
        "kernels.eval.calls": calls("kernels.eval"),
        "kernels.eval.points": counts["kernels.eval.points"],
        "kernels.eval.s": secs("kernels.eval"),
        "kernels.eval.cpu_s": cpu("kernels.eval"),
        "function_class.eval.calls": calls("function_class.eval"),
        "function_class.eval.points": counts["function_class.eval.points"],
        "function_class.eval.s": secs("function_class.eval"),
        "function_class.eval.cpu_s": cpu("function_class.eval"),
        "function_class.envelope_tilde.s": secs("function_class.envelope_tilde"),
        "bandwidth.grid_size": sum(len(bandwidths(cfg, n)) for n in cfg.n_list),
        "config.load_config.s": secs("config.load_config"),
        "cli.import_s": import_s,
    }
    return {k: float(v) for k, v in m.items()}


def main(argv):
    workload, metrics_path, sep, *rates_argv = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py WORKLOAD METRICS_JSON -- <rates argv>")
    import_program()
    t0 = _clock()
    import condu.cli as cli
    import_s = _clock() - t0
    tracer = Tracer()
    loaded = install(tracer)
    rc = cli.main(rates_argv)
    if rc != 0:
        return rc
    metrics = layer_metrics(tracer, loaded[0], WORKLOADS[workload]["threads"],
                            import_s)
    Path(metrics_path).write_text(json.dumps(metrics, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
