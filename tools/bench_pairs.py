"""Compare this checkout against a parent revision in alternated benchmark pairs.

    python3 tools/bench_pairs.py --parent HEAD~1 --workload central_lp_k8 --seed 5

Run from the root of a checkout.  The parent revision is checked out into a
temporary `git worktree`, which is removed afterwards.  Each pair runs
`perfbench/run.py --workload W --seed S --seconds T` once on the parent and
once on the working tree, as they are on disk, one after the other; the side
that goes first alternates from pair to pair.  For every end-to-end metric of
BENCHMARK.json it prints each side's median and quartiles, then, for the
metric named by --metric, how many pairs the change won (ties count for
neither side) and whether the medians differ by more than the distance
between the parent's quartiles: the rule for claiming a gain.  Last come the
digests each side printed; a side whose runs disagree lists them all.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_bench(root, args):
    """One benchmark run in checkout `root`: (metrics, digests)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
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
        better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
    if args.metric not in better:
        sys.exit("bench_pairs: %r is not an end-to-end metric" % args.metric)

    tmp = tempfile.mkdtemp(prefix="bench_pairs_")
    tree = os.path.join(tmp, "parent")
    subprocess.run(["git", "worktree", "add", "--detach", tree, args.parent],
                   cwd=ROOT, check=True, capture_output=True)
    runs = {"parent": [], "change": []}
    try:
        for pair in range(args.pairs):
            sides = [("parent", tree), ("change", ROOT)]
            for side, root in sides if pair % 2 == 0 else sides[::-1]:
                runs[side].append(run_bench(root, args))
            print("pair %d: %s parent %.6g, change %.6g" % (
                pair + 1, args.metric, runs["parent"][-1][0][args.metric],
                runs["change"][-1][0][args.metric]), flush=True)
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", tree], cwd=ROOT,
                       capture_output=True)
        subprocess.run(["git", "worktree", "prune"], cwd=ROOT, capture_output=True)
        os.rmdir(tmp)

    print("\n%s, seed %d, %d pairs of %g s, parent %s"
          % (args.workload, args.seed, args.pairs, args.seconds, args.parent))
    print("%-22s %-34s %s" % ("metric", "parent median [q1, q3]",
                              "change median [q1, q3]"))
    for name in better:
        cells = []
        for side in ("parent", "change"):
            q1, med, q3 = quartiles([m[name] for m, _ in runs[side]])
            cells.append("%.6g [%.6g, %.6g]" % (med, q1, q3))
        print("%-22s %-34s %s" % (name, *cells))

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
