"""Command-line interface: simulate / estimate / sweep / rates / verify.

Errors derived from the library's error hierarchy exit with code 1 and a
machine-readable JSON object on stderr; anything unexpected exits with 2.
The CONDU_SEED environment variable overrides the config seed. BLAS runs
on one thread, pinned when the package is imported (kernels.pin_blas).
"""

import argparse
import dataclasses
import json
import os
import sys

from .config import _N_BUDGET, _REPS_BUDGET, load_config, within
from .errors import ConduError, SchemaError
from .estimator import estimate_grid
from .harness import bandwidths, child_seed, make_t_grid, rate_experiment, simulate
from .kernels import atomic_write, write_csv
from .ucore import read_sample_csv, write_sample_csv
from .verify import run_checks


def _load(args):
    """Load the config with seed precedence: --seed, then CONDU_SEED, then
    the config file."""
    cfg = load_config(args.config)
    seed, name = args.seed, "--seed"
    env = os.environ.get("CONDU_SEED")
    if seed is None and env is not None:
        name = "CONDU_SEED"
        try:
            seed = int(env)
        except ValueError:
            raise SchemaError(f"CONDU_SEED must be an integer, got {env!r}") from None
    if seed is not None:
        cfg = _override(cfg, seed=within(seed, 0, name))
    return cfg


def _override(cfg, **fields):
    """cfg with experiment fields replaced, in the parsed config and in the
    raw document that config_echo.json echoes alike."""
    raw = dict(cfg.raw, experiment=dict(cfg.raw["experiment"], **fields))
    return dataclasses.replace(cfg, raw=raw, **fields)


def cmd_simulate(args):
    cfg = _load(args)
    within(args.rep, 0, "--rep", _REPS_BUDGET - 1)
    n = within(args.n, 1, "--n", _N_BUDGET) if args.n is not None else cfg.n_list[0]
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
    cells = estimate_grid(cfg.fc.members, hs, tgrid, s, cfg.kernel)
    rows = [(cfg.m, h, *t, c.phi, c.numerator, c.denominator,
             float("nan") if c.mhat is None else c.mhat, c.status)
            for h, h_cells in zip(hs, cells)
            for t, t_cells in zip(tgrid, h_cells) for c in t_cells]
    write_csv(args.out, f"m,h,{tcols},phi,numerator,denominator,mhat,status", rows)
    print(f"wrote {len(rows)} cells to {args.out}")
    return 0


def _restrict_to_n(cfg, n):
    if n is None:
        return cfg
    if n not in cfg.n_list:
        raise ConduError(f"--n {n} is not in the config n_list {cfg.n_list}")
    return _override(cfg, n_list=(n,))


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
    results = run_checks(filter_substr=args.filter, seed=within(args.seed, 0, "--seed"))
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

    # the options of every command that loads a config, and of the threaded ones
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True)
    common.add_argument("--out", required=True, help="output file or directory")
    common.add_argument("--seed", type=int, default=None)
    threaded = argparse.ArgumentParser(add_help=False)
    threaded.add_argument("--threads", type=int, default=1)

    sp = sub.add_parser("simulate", parents=[common], help="draw a sample and write it as CSV")
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--rep", type=int, default=0)
    sp.set_defaults(func=cmd_simulate)

    ep = sub.add_parser("estimate", parents=[common],
                        help="evaluate the estimator over the config grid")
    ep.add_argument("--data", default=None, help="sample CSV; simulated if omitted")
    ep.set_defaults(func=cmd_estimate)

    wp = sub.add_parser("sweep", parents=[common, threaded],
                        help="bandwidth sweep at a single sample size")
    wp.add_argument("--n", type=int, default=None)
    wp.set_defaults(func=cmd_sweep)

    rp = sub.add_parser("rates", parents=[common, threaded],
                        help="full experiment over the config n_list")
    rp.add_argument("--remainder", action="store_true")
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
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        sys.stderr.write(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n"
        )
        return 1 if isinstance(exc, ConduError) else 2


if __name__ == "__main__":
    sys.exit(main())
