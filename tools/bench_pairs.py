"""Compare this checkout against a parent revision in alternated benchmark pairs.

    python3 tools/bench_pairs.py --parent HEAD~1 --workload central_lp_k8 --seed 5

Run from the root of a checkout.  Both sides run from fresh copies in one
temporary directory, which is removed afterwards: the parent revision as
`git archive` exports it, and the working tree's files as they are on disk
(tracked and untracked, not ignored).  So neither side starts with bytecode
caches or benchmark output the other lacks: with PYTHONDONTWRITEBYTECODE set,
a checkout holding a `__pycache__` read 10-20% faster on every workload than
a fresh copy of the same code (a shared 2-CPU host).  Every run sets
PYTHONDONTWRITEBYTECODE=1, as `tools/bench_record.py` does, so no run writes
caches for the runs after it: every pair runs cache-free, like the first
and like every `BENCH_*.json` record.  Each pair runs
`perfbench/run.py --workload W --seed S --seconds T` once on each side, one
after the other; the side that goes first alternates from pair to pair, and
every run's end-to-end metrics are printed.  For every end-to-end metric of
BENCHMARK.json it prints each side's median and quartiles and a verdict from
the metric's `bound`, a fraction of the parent's median:
- "unresolved" when the parent's quartile spread is wider than the bound and
  not every change run reads better than every parent run;
- otherwise "worse by more than its bound" when the change's median is worse
  than the parent's by more than the bound;
- otherwise "within its bound".
Then, for the metric named by --metric, it prints how many pairs the change
won (ties count for neither side) and whether the medians differ by more than
the distance between the parent's quartiles: the rule for claiming a gain.
Last come the digests each side printed; a side whose runs disagree lists
them all.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_bench(root, args):
    """One benchmark run in checkout `root`: (metrics, digests)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
               PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit("bench_pairs: %s failed in %s:\n%s"
                 % (" ".join(cmd), root, out.stderr))
    lines = out.stdout.strip().splitlines()
    metrics = {k: v["value"] for k, v in json.loads(lines[-1])["metrics"].items()}
    digests = tuple(line for line in lines if "digest" in line)
    return metrics, digests


def quartiles(values):
    """(first quartile, median, third quartile), inclusive method."""
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def verdict(parent, change, better, bound):
    """The no-regression verdict of one metric's parent and change runs
    (see the module docstring)."""
    sign = 1.0 if better == "higher" else -1.0
    p1, p_med, p3 = quartiles(parent)
    c_med = quartiles(change)[1]
    allowed = bound * abs(p_med)
    beats_all = min(sign * v for v in change) > max(sign * v for v in parent)
    if p3 - p1 > allowed and not beats_all:
        return "unresolved"
    if sign * (p_med - c_med) > allowed:
        return "worse by more than its bound"
    return "within its bound"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True, help="revision to compare against")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--metric", default="decisions_per_s",
                    help="the end-to-end metric whose pair wins are counted")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        end_to_end = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    better = {name: m["better"] for name, m in end_to_end.items()}
    if args.metric not in better:
        sys.exit("bench_pairs: %r is not an end-to-end metric" % args.metric)

    tmp = tempfile.mkdtemp(prefix="bench_pairs_")
    trees = {side: os.path.join(tmp, side) for side in ("parent", "change")}
    runs = {"parent": [], "change": []}
    try:
        archive = subprocess.run(["git", "archive", args.parent], cwd=ROOT,
                                 check=True, capture_output=True).stdout
        os.mkdir(trees["parent"])
        subprocess.run(["tar", "-x", "-C", trees["parent"]], input=archive, check=True)
        listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others",
                                 "--exclude-standard"], cwd=ROOT, check=True,
                                capture_output=True, text=True).stdout
        for name in filter(None, listed.split("\0")):
            src, dst = os.path.join(ROOT, name), os.path.join(trees["change"], name)
            if os.path.isfile(src):     # a tracked file deleted on disk is left out
                os.makedirs(os.path.dirname(dst), exist_ok=True)
                shutil.copy2(src, dst)
        for pair in range(args.pairs):
            sides = list(trees.items())
            for side, root in sides if pair % 2 == 0 else sides[::-1]:
                runs[side].append(run_bench(root, args))
                print("pair %d %s: %s" % (pair + 1, side, ", ".join(
                    "%s %.6g" % (name, runs[side][-1][0][name]) for name in better)),
                    flush=True)
    finally:
        shutil.rmtree(tmp)

    print("\n%s, seed %d, %d pairs of %g s, parent %s"
          % (args.workload, args.seed, args.pairs, args.seconds, args.parent))
    print("%-22s %-38s %-38s %s" % ("metric", "parent median [q1, q3]",
                                    "change median [q1, q3]", "verdict (bound)"))
    for name, metric in end_to_end.items():
        values = {side: [m[name] for m, _ in runs[side]] for side in runs}
        cells = ["%.6g [%.6g, %.6g]" % (med, q1, q3) for q1, med, q3
                 in (quartiles(values[side]) for side in ("parent", "change"))]
        print("%-22s %-38s %-38s %s (%g)" % (
            name, *cells, verdict(values["parent"], values["change"],
                                  metric["better"], metric["bound"]), metric["bound"]))

    sign = 1.0 if better[args.metric] == "higher" else -1.0
    pairs = list(zip((m[args.metric] for m, _ in runs["parent"]),
                     (m[args.metric] for m, _ in runs["change"])))
    wins = sum(sign * (new - old) > 0 for old, new in pairs)
    losses = sum(sign * (new - old) < 0 for old, new in pairs)
    p1, p_med, p3 = quartiles([old for old, _ in pairs])
    c_med = quartiles([new for _, new in pairs])[1]
    gap = sign * (c_med - p_med)
    holds = wins >= 0.9 * len(pairs) and gap > p3 - p1
    print("\n%s (%s is better): change won %d of %d pairs, lost %d;"
          " medians %.6g -> %.6g, difference %.6g against a parent spread"
          " of %.6g: %s" % (args.metric, better[args.metric], wins, len(pairs),
                            losses, p_med, c_med, gap, p3 - p1,
                            "a gain" if holds else "no claimable gain"))
    for side in ("parent", "change"):
        seen = sorted({d for _, digests in runs[side] for d in digests})
        print("%s digests: %s" % (side, "; ".join(seen)))


if __name__ == "__main__":
    main()
