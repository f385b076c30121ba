"""vnfscale benchmark: seeded scaling decisions through `scenario.run_scenario`.

    python3 perfbench/run.py --workload central_lp_k8 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The workload's scenario files are generated
from --seed into a scratch directory under perfbench/, then decided one at a
time in this process (a closed loop with one client, single-threaded) for
--seconds.  Every decision is checked; the last line of standard output is a
JSON object with the end-to-end metrics (--trace 0) or the per-layer metrics
of a traced run (--trace 1).  perfbench/README.md describes each metric.
"""

import time

START = time.perf_counter()

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile

# one BLAS thread: the benchmark measures one single-threaded client
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np

import checks
import gen

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# Inputs of the quality metrics.  They are the same for every --seed, so
# those metrics compare code, not draws: their spread across seeds is far
# wider than any bound a gate could use.
QUALITY_SEED = 0
SETUP_PROBES = 5
CALIBRATION_S = 0.005    # calibrate() on a 2-CPU x86 host at its usual speed
NOT_APPLICABLE = 1.0


def calibrate():
    """Seconds a fixed loop takes right now.  It fills a dict and copies it
    element by element into an array: the same kind of interpreter work as
    model building, dense assembly and the ADMM sweep, so the host's drift
    slows it in the same proportion."""
    t0 = time.perf_counter()
    values = {}
    for i in range(20_000):
        values[i] = float(i)
    row = np.zeros(20_000)
    for i, v in values.items():
        row[i] = v
    return time.perf_counter() - t0


def to_reference(wall_s, before_s, after_s):
    """Scale a wall time measured between two calibrate() calls to the
    reference host, on which calibrate() takes CALIBRATION_S.

    The speed of a core on a shared host drifts by tens of percent over
    seconds to minutes with the load of other tenants, so raw wall times of
    two runs of the same code differ more than any useful bound.  The loop
    timed just before and just after the measured call tracks that drift."""
    return wall_s * CALIBRATION_S * 2.0 / (before_s + after_s)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("central_lp_k8", "distributed_k4", "exact_milp_small"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="set up, print 'ready' and exit (used to time set-up)")
    return ap.parse_args(argv)


def import_program():
    if not os.path.isdir(os.path.join(SRC, "vnfscale")):
        sys.exit("perfbench: %s/vnfscale not found; run from a vnfscale checkout"
                 % SRC)
    sys.path.insert(0, SRC)
    import scipy.optimize  # noqa: F401  (the solver backend; part of set-up)
    import vnfscale  # noqa: F401


class Bench:
    """Generated instances plus the running tally of checked decisions."""

    def __init__(self, workload, seed, work_dir):
        from vnfscale import scenario
        self.scenario = scenario
        self.instances = gen.generate(workload, seed, work_dir)
        self.attempted = 0
        self.failures = []
        self.keys = {}       # instance index -> decision key of its first run

    def decide(self, i):
        """Run and check instance i; return (reference seconds, report or
        None when the decision failed)."""
        inst = self.instances[i]
        self.attempted += 1
        # the previous decision's models hold reference cycles; freeing them
        # here keeps their collection out of this decision's time and peak
        gc.collect()
        before = calibrate()
        t0 = time.perf_counter()
        try:
            report = self.scenario.run_scenario(inst.path,
                                                overrides=dict(inst.overrides))
        except Exception as exc:  # a failed decision is counted, not fatal
            report, problems = None, ["%s: %s" % (type(exc).__name__, exc)]
        elapsed = to_reference(time.perf_counter() - t0, before, calibrate())
        if report is not None:
            problems = checks.check(inst, report)
        if not problems:
            key = checks.decision_key(inst, report)
            if self.keys.setdefault(i, key) != key:
                problems.append("decision changed between passes: %s" % key)
        if problems:
            self.failures.append("%s %s: %s" % (os.path.basename(inst.path),
                                                dict(inst.overrides),
                                                "; ".join(problems)))
            return elapsed, None
        return elapsed, report

    def run_pass(self):
        """Decide every instance once; return (per-decision seconds, reports)."""
        times, reports = [], []
        for i in range(len(self.instances)):
            t, report = self.decide(i)
            times.append(t)
            reports.append(report)
        return times, reports

    def digest(self):
        return checks.digest(self.keys[i] for i in sorted(self.keys))


def setup(workload, seed, work_dir):
    """Everything before the first timed decision: generate the inputs and
    decide the first one once, so lazy imports inside the solvers are done."""
    bench = Bench(workload, seed, work_dir)
    bench.decide(0)
    return bench


def probe_setup(args):
    """Reference seconds from starting a fresh benchmark process to its first
    timed decision, timed from outside so interpreter start-up counts."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    # a probe is one long interval, so each end gets the median of several
    # calibrations: a single one can land on a hiccup of the host
    before = statistics.median(calibrate() for _ in range(5))
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError("set-up probe failed with exit code %s" % proc.returncode)
    after = statistics.median(calibrate() for _ in range(5))
    return to_reference(elapsed, before, after)


def central_optimum(inst):
    """Objective of the central overload relaxation for one instance."""
    from vnfscale import lp, scaling, scenario
    sc = scenario.load_scenario(inst.path)
    p = scaling.ScalingProblem(
        topology=sc.topology, group=sc.group, traffic=sc.traffic,
        v_star=inst.v_star, mode=inst.state, pm_capacity=sc.pm_capacity,
        baseline_traffic=sc.baseline)
    sol = lp.solve(scaling.build_overload_lp(p))
    if sol.status != lp.OPTIMAL:
        raise RuntimeError("central relaxation of %s is %s" % (inst.path, sol.status))
    return sol.objective_value


def quality_metrics(workload, work_dir):
    """Deterministic decision quality on the fixed quality inputs, plus the
    failures found while measuring it."""
    os.makedirs(work_dir)
    bench = Bench(workload, QUALITY_SEED, work_dir)
    _, reports = bench.run_pass()
    done = [(inst, r) for inst, r in zip(bench.instances, reports) if r is not None]
    out = {"forwarding_cost_sum": NOT_APPLICABLE,
           "admm_best_gap_p50_pct": NOT_APPLICABLE,
           "admm_within_1pct": NOT_APPLICABLE}
    if workload == "distributed_k4":
        optima, gaps = {}, []
        for inst, r in done:
            if inst.path not in optima:
                optima[inst.path] = central_optimum(inst)
            opt = optima[inst.path]
            gaps.append(min(abs(o - opt) / abs(opt) for o in r.admm_trace.objectives))
        if gaps:
            out["admm_best_gap_p50_pct"] = 100.0 * statistics.median(gaps)
            out["admm_within_1pct"] = sum(g <= 0.01 for g in gaps) / len(gaps)
    else:
        out["forwarding_cost_sum"] = sum(r.forwarding_cost for _, r in done)
    return out, bench


def end_to_end(args, work_dir):
    bench = setup(args.workload, args.seed, work_dir)
    own_setup_s = time.perf_counter() - START

    passes = []
    t0 = time.perf_counter()
    while True:
        pass_t0 = time.perf_counter()
        passes.append(bench.run_pass()[0])
        pass_s = time.perf_counter() - pass_t0
        if time.perf_counter() - t0 + pass_s > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # each instance's median over the passes: a burst of load from outside
    # the process slows some decisions, not the typical one
    typical = [statistics.median(ts) for ts in zip(*passes)]
    print("passes %d, decisions %d, own set-up %.3f s"
          % (len(passes), len(passes) * len(typical), own_setup_s))
    print("digest %s" % bench.digest())

    quality, qbench = quality_metrics(args.workload, os.path.join(work_dir, "quality"))
    print("quality digest %s" % qbench.digest())
    setups = [probe_setup(args) for _ in range(SETUP_PROBES)]

    failures = bench.failures + qbench.failures
    attempted = bench.attempted + qbench.attempted
    metrics = {
        "decisions_per_s": (len(typical) / sum(typical), "1/s"),
        "decision_s_p50": (statistics.median(typical), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (statistics.median(setups), "s"),
        "success_rate": (1.0 - len(failures) / attempted, "share"),
        "forwarding_cost_sum": (quality["forwarding_cost_sum"], "cost"),
        "admm_best_gap_p50_pct": (quality["admm_best_gap_p50_pct"], "%"),
        "admm_within_1pct": (quality["admm_within_1pct"], "share"),
    }
    return metrics, attempted, failures


def traced(args, work_dir):
    """Per-layer metrics: alternate untraced and traced passes over the same
    instances while time allows, then one pass measuring lp.solve's peak
    allocation.  Counts come from the first traced pass; times are medians
    over the traced passes."""
    import tracing
    bench = setup(args.workload, args.seed, work_dir)
    plain_s, traced_s, layers, first = 0.0, 0.0, [], None
    t0 = time.perf_counter()
    while True:
        pair_t0 = time.perf_counter()
        plain_s += sum(bench.run_pass()[0])
        tracer = tracing.Tracer()
        with tracer.patches() as patches:
            for i in range(len(bench.instances)):
                tracer.decision = i
                traced_s += bench.decide(i)[0]
        layers.append(tracing.layer_metrics(tracer, []))
        if first is None:
            first = tracer
            if patches.missing:
                print("not traced (missing): %s" % ", ".join(patches.missing))
        pair_s = time.perf_counter() - pair_t0
        if time.perf_counter() - t0 + pair_s > args.seconds:
            break

    probe = tracing.AllocProbe()
    with probe.patches():
        bench.run_pass()
    print("traced passes %d, digest %s" % (len(layers), bench.digest()))
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    spans_path = os.path.join(HERE, "out", "spans_%s_%d.jsonl"
                              % (args.workload, args.seed))
    first.write(spans_path)
    print("spans of the first traced pass: %s" % os.path.relpath(spans_path, ROOT))

    metrics = tracing.layer_metrics(first, probe.peaks)
    for name, (_, unit) in metrics.items():
        if unit in ("s", "ms", "us", "%"):
            metrics[name] = (statistics.median(m[name][0] for m in layers), unit)
    metrics["trace.overhead_pct"] = (100.0 * (traced_s / plain_s - 1.0), "%")
    return metrics, bench.attempted, bench.failures


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    import_program()
    os.makedirs(os.path.join(HERE, "work"), exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="run-", dir=os.path.join(HERE, "work"))
    try:
        if args.setup_probe:
            setup(args.workload, args.seed, work_dir)
            print("ready", flush=True)
            return 0
        run = traced if args.trace else end_to_end
        metrics, attempted, failures = run(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for msg in failures[:20]:
        print("FAILED %s" % msg)
    print("failed %d of %d decisions" % (len(failures), attempted))
    bad = [n for n, (v, _) in metrics.items() if not math.isfinite(v)]
    if bad:
        sys.exit("perfbench: non-finite metrics %s" % bad)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
