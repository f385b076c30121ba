"""Command line front end: run scenario files, size models, compare solvers.

Exit codes: 0 success, 1 expectation failure, 2 parse or usage error (a
file that cannot be read or written included), 3 infeasible model, 4
solver gave no usable point (divergence, breakdown, no placement signal,
or a branch-and-bound budget spent before any integral point).
"""

import argparse
import sys

from . import scenario as sc
from .lp import LpError
from .milp import BudgetExhaustedError
from .rpadmm import AdmmDivergenceError, UnboundedUpdateError
from .scaling import DecodeError, ModelInfeasibleError


def _overrides(args):
    return {"beta": args.beta, "seed": args.seed, "iters": args.iters}


def _degrees(text):
    """--k: a comma list of positive even fat-tree degrees."""
    try:
        ks = [int(v) for v in text.split(",") if v]
    except ValueError:
        ks = []
    if not ks or any(k <= 0 or k % 2 for k in ks):
        raise argparse.ArgumentTypeError(
            "need a comma list of positive even integers, got %r" % text)
    return ks


def _seconds(text):
    """--budget: a positive, finite number of seconds."""
    try:
        v = float(text)
    except ValueError:
        v = 0.0
    if not 0 < v < float("inf"):
        raise argparse.ArgumentTypeError(
            "need a positive number of seconds, got %r" % text)
    return v


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="vnfscale",
        description="traffic-aware VNF scaling over fat-tree topologies")
    sub = parser.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", help="run one scenario file")
    p_run.add_argument("file")
    p_cmp = sub.add_parser("compare",
                           help="central relaxation vs distributed solver")
    p_cmp.add_argument("file")
    # flags override the file's [solver] section
    for p in (p_run, p_cmp):
        p.add_argument("--beta", type=float, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--iters", type=int, default=None)
        p.add_argument("--out-dir", default=None)
    p_run.add_argument("--solver", default=None, choices=tuple(sc.SOLVERS))

    p_sweep = sub.add_parser("sweep", help="model size and solve time per k")
    p_sweep.add_argument("--k", type=_degrees, default="2,4,8",
                         help="comma separated even fat-tree degrees")
    p_sweep.add_argument("--solver", default="lp", choices=tuple(sc.SOLVERS))
    p_sweep.add_argument("--budget", type=_seconds,
                         default=sc.DEFAULT_TIME_BUDGET,
                         help="seconds per solve before the N/A marker "
                              "(default %(default).0f)")

    args = parser.parse_args(argv)
    try:
        if args.verb == "run":
            report = sc.run_scenario(args.file, out_dir=args.out_dir,
                                     overrides=dict(_overrides(args),
                                                    method=args.solver))
            sys.stdout.write(report.text())
            return 1 if report.expect_failures else 0
        if args.verb == "sweep":
            rows = sc.sweep_topologies(args.k, method=args.solver,
                                       time_budget=args.budget)
            sys.stdout.write(sc.sweep_table(rows, args.solver))
            return 0
        report = sc.compare_solvers(args.file, overrides=_overrides(args),
                                    out_dir=args.out_dir)
        sys.stdout.write(report.text())
        return 0
    except (sc.ScenarioParseError, OSError) as err:
        sys.stderr.write("error: %s\n" % err)
        return 2
    except UnicodeDecodeError as err:
        sys.stderr.write("error: %s is not UTF-8 text: %s\n" % (args.file, err))
        return 2
    except ModelInfeasibleError as err:
        sys.stderr.write("infeasible: %s\n" % err)
        return 3
    except AdmmDivergenceError as err:
        sys.stderr.write("diverged: %s\n" % err)
        return 4
    except (BudgetExhaustedError, DecodeError, LpError,
            UnboundedUpdateError) as err:
        sys.stderr.write("no usable solution: %s\n" % err)
        return 4


if __name__ == "__main__":
    sys.exit(main())
