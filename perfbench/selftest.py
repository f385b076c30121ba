"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks that the decision checker flags deliberately corrupted decisions,
that a short run of each mode prints every metric named in BENCHMARK.json
with its unit, and that the benchmark fails without a result when the
program's sources are missing.  Exits 0 when every check holds.
"""

import copy
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import gen  # noqa: E402
from vnfscale import scenario  # noqa: E402
from vnfscale.topology import PM, NodeId  # noqa: E402

FAILURES = []


def expect(ok, what):
    print("%s  %s" % ("ok  " if ok else "FAIL", what))
    if not ok:
        FAILURES.append(what)


def flagged(inst, report, corrupt):
    bad = copy.deepcopy(report)
    corrupt(bad)
    return bool(checks.check(inst, bad))


def checker_tests(work_dir):
    rng = gen.random.Random("selftest")
    lp_inst = gen._instance(rng, work_dir, "lp", 4, gen.OVERLOAD, 2, 4, 0.5,
                            "lp", "cpu:200")
    under_inst = gen._instance(rng, work_dir, "under", 4, gen.UNDERLOAD, 3, 1,
                               1.0, "lp", "cpu:200")
    milp_inst = gen._instance(rng, work_dir, "milp", 2, gen.OVERLOAD, 2, 3,
                              1.0, "milp", "cpu:200", offline=1)
    admm_inst = gen._instance(rng, work_dir, "admm", 4, gen.OVERLOAD, 2, 3,
                              1.0, "rpadmm", "none")
    reports = {}
    for inst in (lp_inst, under_inst, milp_inst, admm_inst):
        reports[inst.path] = r = scenario.run_scenario(inst.path)
        expect(checks.check(inst, r) == [],
               "%s decision passes the checker" % os.path.basename(inst.path))

    pms = set(range(1, 17))
    not_candidate = NodeId(PM, min(pms - lp_inst.candidates) - 1)
    not_online = NodeId(PM, min(pms - {q for _, q in under_inst.online}) - 1)

    def launch_outside(r):
        key = next(iter(r.decision.launched))
        r.decision.launched[key] = not_candidate

    def drop_kept(r):
        r.decision.kept.pop(next(iter(r.decision.kept)))

    def skew_shares(r):
        key = next(iter(r.decision.shares))
        r.decision.shares[key] += 1e-3

    def terminate_foreign(r):
        vm = next(iter(r.decision.terminated))
        r.decision.terminated[vm] = not_online

    def unproven(r):
        r.decision.status, r.decision.proven = "budget_exhausted", False

    def nan_objective(r):
        r.admm_trace.records[-1].objective = math.nan

    def expect_failure(r):
        r.expect_failures.append("v_star 9, expected 4")

    cases = [
        (lp_inst, launch_outside, "launch on a PM outside the candidates"),
        (lp_inst, drop_kept, "kept plus launched short of v*"),
        (lp_inst, skew_shares, "shares that do not sum to 1"),
        (lp_inst, expect_failure, "a failed [expect] line"),
        (under_inst, terminate_foreign, "termination on a PM with no online VM"),
        (milp_inst, unproven, "an unproven MILP result"),
        (admm_inst, nan_objective, "a non-finite ADMM objective"),
    ]
    for inst, corrupt, what in cases:
        expect(flagged(inst, reports[inst.path], corrupt), "checker flags " + what)


def run_bench(cwd, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", "exact_milp_small",
           "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=180)


def output_tests():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = run_bench(ROOT, trace)
        expect(proc.returncode == 0, "--trace %d run exits 0" % trace)
        last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
        result = json.loads(last)
        expect(set(result) == {"correct", "attempted", "failed", "metrics"}
               and result.get("correct") is True,
               "--trace %d prints a correct result" % trace)
        printed = result.get("metrics", {})
        want = {m["name"]: m["unit"] for m in spec[key]}
        expect(set(printed) == set(want),
               "--trace %d prints exactly the %s metrics" % (trace, key))
        wrong = [n for n, u in want.items()
                 if n in printed and printed[n].get("unit") != u]
        expect(not wrong, "--trace %d units match BENCHMARK.json%s"
               % (trace, " except %s" % wrong if wrong else ""))


def bare_directory_test(work_dir):
    bare = os.path.join(work_dir, "bare")
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("work", "out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = run_bench(bare, 0)
    expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
           "without the program's sources the run fails and prints no result")


def main():
    os.makedirs(os.path.join(HERE, "work"), exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="selftest-", dir=os.path.join(HERE, "work"))
    try:
        checker_tests(work_dir)
        bare_directory_test(work_dir)
        output_tests()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print("%d check(s) failed" % len(FAILURES) if FAILURES else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
