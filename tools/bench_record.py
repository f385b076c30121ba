"""Record a benchmark snapshot of this checkout as BENCH_<n>.json.

    python3 tools/bench_record.py --out BENCH_16.json

Run from the root of a checkout.  For each workload it runs
`perfbench/run.py --seed 11 --seconds 25` three times (an odd count, so
the median is one run's value) and keeps every metric's median and every
run's digests.  The settings are fixed so that snapshots compare across
commits.  It times `vnfscale sweep --solver lp|rpadmm` for k = 4, 8, 12 and
16 the same number of times, runs the tier-1 suite once for its counts, and
records the host, with whether the package's bytecode caches were there
when it started.  Its perfbench runs and sweeps write no bytecode caches.
The schema is described in README.md.
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("central_lp_k8", "distributed_k4", "exact_milp_small")
SWEEP_KS = (4, 8, 12, 16)
SOLVERS = ("lp", "rpadmm")
RUNS = 3
SEED = 11
SECONDS = 25
# no perfbench run or sweep writes bytecode caches, so in a record that
# starts without them each one runs without them (the tier-1 suite, which
# runs last, has a test that starts Python with its own environment)
ENV = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
           PYTHONDONTWRITEBYTECODE="1")


def run(cmd):
    out = subprocess.run(cmd, cwd=ROOT, env=ENV, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit("bench_record: %s failed:\n%s" % (" ".join(cmd), out.stderr))
    return out.stdout


def perfbench(workload):
    """Metrics, digest and quality digest of one perfbench run."""
    out = run([sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(SEED), "--seconds", str(SECONDS)])
    result = json.loads(out.strip().splitlines()[-1])
    digests = dict(re.findall(r"^(digest|quality digest) (\w+)$", out, re.M))
    return result, digests["digest"], digests["quality digest"]


def workload_record(workload):
    runs = [perfbench(workload) for _ in range(RUNS)]
    metrics = {}
    for name, first in runs[0][0]["metrics"].items():
        values = [r[0]["metrics"][name]["value"] for r in runs]
        metrics[name] = {"median": statistics.median(values),
                         "unit": first["unit"], "runs": values}
    return {"metrics": metrics,
            "digests": sorted({r[1] for r in runs}),
            "quality_digests": sorted({r[2] for r in runs}),
            "failed": [r[0]["failed"] for r in runs],
            "attempted": [r[0]["attempted"] for r in runs]}


def sweep_record(solver):
    """Per k: variables, rows and the median of the RUNS sweep times."""
    rows = {}
    for _ in range(RUNS):
        out = run([sys.executable, "-m", "vnfscale.cli", "sweep", "--solver",
                   solver, "--k", ",".join(map(str, SWEEP_KS))])
        for line in out.splitlines()[2:]:
            k, _, _, nv, nr, secs = line.split()[:6]
            row = rows.setdefault(k, {"variables": int(nv), "rows": int(nr),
                                      "seconds_runs": []})
            row["seconds_runs"].append(None if secs == "N/A" else float(secs))
    for row in rows.values():
        times = [t for t in row["seconds_runs"] if t is not None]
        row["seconds_median"] = statistics.median(times) if times else None
    return rows


def tier1():
    t0 = time.perf_counter()
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"],
        cwd=ROOT, env=ENV, capture_output=True, text=True).stdout
    summary = out.strip().splitlines()[-1]
    counts = {kind: int(n) for n, kind in re.findall(r"(\d+) (\w+)", summary)}
    return {"passed": counts.get("passed", 0), "failed": counts.get("failed", 0),
            "errors": counts.get("error", 0) + counts.get("errors", 0),
            "seconds": round(time.perf_counter() - t0, 1)}


def host(bytecode_cache):
    import numpy
    import scipy
    return {"cpus": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "machine": platform.machine(), "system": platform.system(),
            "bytecode_cache": bytecode_cache}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", required=True, help="file to write, e.g. BENCH_16.json")
    args = ap.parse_args(argv)
    # a checkout that holds the caches reads faster in reference seconds,
    # and its runs read them, so a record says how it started
    bytecode_cache = os.path.isdir(os.path.join(ROOT, "src", "vnfscale", "__pycache__"))
    commit = run(["git", "describe", "--always", "--dirty"]).strip()
    record = {
        "schema": 1,
        "commit": commit,
        "date": time.strftime("%Y-%m-%d", time.gmtime()),
        "host": host(bytecode_cache),
        "settings": {"seed": SEED, "seconds": SECONDS, "runs": RUNS,
                     "sweep_k": list(SWEEP_KS)},
        "workloads": {w: workload_record(w) for w in WORKLOADS},
        "sweep": {s: sweep_record(s) for s in SOLVERS},
        "tier1": tier1(),
    }
    with open(os.path.join(ROOT, args.out), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
