"""Command-line interface: simulate / estimate / sweep / rates / verify.

Errors derived from the library's error hierarchy exit with code 1 and a
machine-readable JSON object on stderr; anything unexpected exits with 2.
The CONDU_SEED environment variable overrides the config seed.
"""

import argparse
import dataclasses
import json
import os
import sys

from .config import load_config
from .errors import ConduError
from .estimator import estimate_grid
from .harness import bandwidths, child_seed, make_t_grid, rate_experiment, simulate
from .kernels import atomic_write, format_float
from .ucore import read_sample_csv, write_sample_csv
from .verify import run_checks


def _load(args):
    """Load the config with seed precedence: --seed, then CONDU_SEED, then
    the config file."""
    cfg = load_config(args.config)
    seed = getattr(args, "seed", None)
    if seed is None:
        env = os.environ.get("CONDU_SEED")
        seed = int(env) if env is not None else None
    if seed is not None:
        cfg = dataclasses.replace(cfg, seed=seed)
    return cfg


def cmd_simulate(args):
    cfg = _load(args)
    n = args.n if args.n is not None else cfg.n_list[0]
    s = simulate(cfg.dgp, n, child_seed(cfg.seed, n, args.rep))
    write_sample_csv(args.out, s)
    print(f"wrote {n} rows to {args.out}")
    return 0


def cmd_estimate(args):
    cfg = _load(args)
    if args.data is not None:
        s = read_sample_csv(args.data)
    else:
        n = cfg.n_list[0]
        s = simulate(cfg.dgp, n, child_seed(cfg.seed, n, 0))
    hs = bandwidths(cfg, s.n)
    tgrid = make_t_grid(cfg.t_interval, cfg.t_points, cfg.m)
    tcols = ",".join(f"t_{j + 1}" for j in range(cfg.m))
    lines = [f"m,h,{tcols},phi,numerator,denominator,mhat,status"]
    for h in hs:
        cells = estimate_grid(cfg.fc.members, h, tgrid, s, cfg.kernel)
        for t, t_cells in zip(tgrid, cells):
            ts = ",".join(format_float(v) for v in t)
            for cell in t_cells:
                mh = format_float(cell.mhat) if cell.mhat is not None else "nan"
                lines.append(
                    f"{cfg.m},{format_float(h)},{ts},{cell.phi},"
                    f"{format_float(cell.numerator)},"
                    f"{format_float(cell.denominator)},{mh},{cell.status}"
                )
    atomic_write(args.out, "\n".join(lines) + "\n")
    print(f"wrote {len(lines) - 1} cells to {args.out}")
    return 0


def _restrict_to_n(cfg, n):
    if n is None:
        return cfg
    if n not in cfg.n_list:
        raise ConduError(f"--n {n} is not in the config n_list {cfg.n_list}")
    return dataclasses.replace(cfg, n_list=(n,))


def cmd_sweep(args):
    cfg = _load(args)
    cfg = _restrict_to_n(cfg, args.n if args.n is not None else cfg.n_list[-1])
    rate_experiment(cfg, out_dir=args.out, threads=args.threads)
    print(f"wrote sweep outputs to {args.out}")
    return 0


def cmd_rates(args):
    cfg = _load(args)
    rate_experiment(
        cfg,
        out_dir=args.out,
        threads=args.threads,
        include_remainder=args.remainder,
    )
    print(f"wrote rate-experiment outputs to {args.out}")
    return 0


def cmd_verify(args):
    results = run_checks(filter_substr=args.filter, seed=args.seed)
    text = json.dumps(results, indent=2) + "\n"
    if args.out:
        atomic_write(args.out, text)
    else:
        sys.stdout.write(text)
    failed = [r["name"] for r in results if not r["passed"]]
    if failed:
        print(f"FAILED: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def build_parser():
    p = argparse.ArgumentParser(
        prog="condu",
        description="Conditional U-statistics: simulation, estimation and "
        "uniform-in-bandwidth rate experiments.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("simulate", help="draw a sample and write it as CSV")
    sp.add_argument("--config", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--rep", type=int, default=0)
    sp.add_argument("--seed", type=int, default=None)
    sp.set_defaults(func=cmd_simulate)

    ep = sub.add_parser("estimate", help="evaluate the estimator over the config grid")
    ep.add_argument("--config", required=True)
    ep.add_argument("--data", default=None, help="sample CSV; simulated if omitted")
    ep.add_argument("--out", required=True)
    ep.add_argument("--seed", type=int, default=None)
    ep.set_defaults(func=cmd_estimate)

    wp = sub.add_parser("sweep", help="bandwidth sweep at a single sample size")
    wp.add_argument("--config", required=True)
    wp.add_argument("--out", required=True, help="output directory")
    wp.add_argument("--n", type=int, default=None)
    wp.add_argument("--threads", type=int, default=1)
    wp.add_argument("--seed", type=int, default=None)
    wp.set_defaults(func=cmd_sweep)

    rp = sub.add_parser("rates", help="full experiment over the config n_list")
    rp.add_argument("--config", required=True)
    rp.add_argument("--out", required=True, help="output directory")
    rp.add_argument("--threads", type=int, default=1)
    rp.add_argument("--remainder", action="store_true")
    rp.add_argument("--seed", type=int, default=None)
    rp.set_defaults(func=cmd_rates)

    vp = sub.add_parser("verify", help="run the built-in invariant checks")
    vp.add_argument("--filter", default=None)
    vp.add_argument("--seed", type=int, default=0)
    vp.add_argument("--out", default=None)
    vp.set_defaults(func=cmd_verify)

    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConduError as exc:
        sys.stderr.write(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n"
        )
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        sys.stderr.write(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n"
        )
        return 2


if __name__ == "__main__":
    sys.exit(main())
