"""Command line front end: run scenario files, size models, compare solvers.

Exit codes: 0 success, 1 expectation failure, 2 parse or usage error,
3 infeasible model, 4 solver gave no usable point (divergence, breakdown or
no placement signal).
"""

import argparse
import sys

from . import scenario as sc
from .lp import LpError
from .rpadmm import AdmmDivergenceError
from .scaling import DecodeError, ModelInfeasibleError


def _overrides(args):
    return {"beta": args.beta, "seed": args.seed, "iters": args.iters,
            "method": args.solver}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="vnfscale",
        description="traffic-aware VNF scaling over fat-tree topologies")
    sub = parser.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", help="run one scenario file")
    p_run.add_argument("file")
    p_sweep = sub.add_parser("sweep", help="model size and solve time per k")
    p_sweep.add_argument("--k", default="2,4,8",
                         help="comma separated fat-tree degrees")
    p_sweep.add_argument("--budget", type=float, default=None,
                         help="seconds per solve before the N/A marker "
                              "(default from %s or %.0f)"
                              % (sc.TIME_BUDGET_ENV, sc.DEFAULT_TIME_BUDGET))
    p_cmp = sub.add_parser("compare",
                           help="central relaxation vs distributed solver")
    p_cmp.add_argument("file")

    for p in (p_run, p_sweep, p_cmp):
        p.add_argument("--beta", type=float, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--iters", type=int, default=None)
        p.add_argument("--solver", default=None, choices=tuple(sc.SOLVERS))
        p.add_argument("--out-dir", default=None)

    args = parser.parse_args(argv)
    try:
        if args.verb == "run":
            report = sc.run_scenario(args.file, out_dir=args.out_dir,
                                     overrides=_overrides(args))
            sys.stdout.write(report.text())
            return 1 if report.expect_failures else 0
        if args.verb == "sweep":
            ks = [int(v) for v in args.k.split(",") if v]
            method = args.solver or "lp"
            rows = sc.sweep_topologies(ks, method=method,
                                       time_budget=args.budget)
            sys.stdout.write(sc.sweep_table(rows, method))
            return 0
        report = sc.compare_solvers(args.file, overrides=_overrides(args),
                                    out_dir=args.out_dir)
        sys.stdout.write(report.text())
        return 0
    except sc.ScenarioParseError as err:
        sys.stderr.write("error: %s\n" % err)
        return 2
    except FileNotFoundError as err:
        sys.stderr.write("error: %s\n" % err)
        return 2
    except ModelInfeasibleError as err:
        sys.stderr.write("infeasible: %s\n" % err)
        return 3
    except AdmmDivergenceError as err:
        sys.stderr.write("diverged: %s\n" % err)
        return 4
    except (DecodeError, LpError) as err:
        sys.stderr.write("no usable solution: %s\n" % err)
        return 4


if __name__ == "__main__":
    sys.exit(main())
