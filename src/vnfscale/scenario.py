"""Scenario files: parse, run, and self-verify worked reconfiguration cases.

A scenario is a line-oriented text file of [section] blocks.  Inside a
section each line is either "key = value" or a bare table row; "#" starts
a comment.  Sections:

  [topology]  k, pms_per_rack, costs (three layer costs, space separated)
  [group]     chain, gamma, phi, omega (res:weight ...), thresholds
              (hot:x warm:x cold:x), ingress, egress, candidates
              (P-names, "P3-P16" ranges allowed), offline (pool size)
  [vms]       one row per online VM: id  host  capacity  utilization
  [pms]       capacity = res:value for a uniform per-PM table, or "none"
  [event]     baseline traffic plus exactly one of "preset =
              overload:<extra>" (traffic = baseline * (1 + 0.5*extra)),
              "preset = underload" (baseline * 0.5) or "traffic = value"
  [solver]    method (lp | milp | rpadmm), beta, seed, iters
  [expect]    optional self-checks: state, v_star, launch, keep,
              terminate (host sets) and cost_delta (positive | negative)

Numbers must be finite.  An unknown section or key, a key given twice in
one section, a bare row outside [vms], a bad value, a reversed PM range,
a PM named twice in one list or a VM id used twice is a parse error
naming the file and the key.

The runner classifies the group from the recorded utilizations, sizes the
instance set for the event traffic, builds the model of the detected
state, solves with the requested method and renders a decision table
plus solver statistics.  PM names are 1-based: "P5" is the fifth
machine of the tree.
"""

import math
import os
import re
import time
from dataclasses import dataclass, field
from functools import partial
from multiprocessing import get_context

from . import lp, milp, rpadmm
from .chain_state import (OVERLOAD, UNDERLOAD, NORMAL, Thresholds, VmInstance,
                          VnfGroup, classify_group, required_instances)
from .scaling import (ScalingProblem, build_overload_lp, build_underload_lp,
                      decode, prune_launch_pms, uniform_capacity, decision_csv,
                      decision_table, flows_csv, ModelInfeasibleError)
from .topology import build_fat_tree, pm_name

DEFAULT_TIME_BUDGET = 1200.0

# the keys each section reads; only [vms] holds bare rows
SECTION_KEYS = {
    "topology": ("k", "pms_per_rack", "costs"),
    "group": ("chain", "vnf_type", "gamma", "phi", "omega", "thresholds",
              "ingress", "egress", "candidates", "offline"),
    "vms": (),
    "pms": ("capacity",),
    "event": ("baseline", "traffic", "preset"),
    "solver": ("method", "beta", "seed", "iters"),
    "expect": ("state", "v_star", "launch", "keep", "terminate",
               "cost_delta"),
}


class ScenarioParseError(ValueError):
    pass


_PM_NAME = re.compile("P([0-9]+)")    # [0-9]: \d and int() take any script's digits


def parse_pm(token, topo):
    """'P5' -> the fifth PM (NodeId index 4), the tree's own NodeId, so
    topology-keyed lookups stop at the identity check."""
    name = _PM_NAME.fullmatch(token)
    if name is None:
        raise ScenarioParseError("bad PM name %r" % token)
    index = int(name[1]) - 1
    if not 0 <= index < len(topo.pms):
        raise ScenarioParseError("%s is not in the topology" % token)
    return topo.pms[index]


def parse_pm_list(text, topo):
    """'P1 P3-P5' -> those PMs in order; each end of a range is a PM name.
    A reversed range is an error, and so, once all names parse, a repeat."""
    n, out = len(topo.pms), []
    for token in text.split():
        if "-" in token[1:]:
            ends = [_PM_NAME.fullmatch(end) for end in token.split("-", 1)]
            if None in ends:
                raise ScenarioParseError("bad PM range %r" % token)
            lo, hi = (int(end[1]) for end in ends)
            if lo > hi:
                raise ScenarioParseError("reversed PM range %r" % token)
            for end in (lo, min(hi, n + 1)):    # the first PM outside the tree
                parse_pm("P%d" % end, topo)
            out += range(lo - 1, hi)
        else:
            out.append(parse_pm(token, topo).index)
    if len(set(out)) < len(out):
        seen = set()
        for i in out:
            if i in seen:
                raise ScenarioParseError("P%d named twice" % (i + 1))
            seen.add(i)
    return [topo.pms[i] for i in out]


def _number(text, kind=float, at_least=None, above=None):
    """Every numeric value of a scenario file: a finite int or float,
    at least `at_least` and above `above` where those are given."""
    v = kind(text)
    try:
        finite = math.isfinite(v)
    except OverflowError:       # an int past the float range
        finite = False
    if not finite:
        raise ValueError("must be a finite number")
    if at_least is not None and v < at_least:
        raise ValueError("must be at least %g" % at_least)
    if above is not None and v <= above:
        raise ValueError("must be above %g" % above)
    return v


def _one_of(*choices):
    def convert(text):
        if text not in choices:
            raise ValueError("must be one of %s" % ", ".join(choices))
        return text
    return convert


def _pairs(text):
    out = {}
    for token in text.split():
        k, _, v = token.partition(":")
        if k in out:
            raise ScenarioParseError("%s named twice" % k)
        try:
            out[k] = _number(v, at_least=0)
        except ValueError as err:
            raise ScenarioParseError("bad name:value token %r: %s"
                                     % (token, err)) from None
    return out


def _thresholds(text, resources):
    thr = _pairs(text)
    if set(thr) != {"hot", "warm", "cold"}:
        raise ScenarioParseError("need exactly hot, warm and cold")
    return Thresholds.uniform(resources, **thr)


def parse_scenario(path):
    """Sections as {name: {"kv": {...}, "rows": [...]}}, checked lightly.
    A byte-order mark is dropped; only a line feed ends a line."""
    sections = {}
    current = None
    with open(path, encoding="utf-8-sig") as fh:
        lines = fh.read().split("\n")

    def error(message):
        return ScenarioParseError("%s:%d %s" % (path, lineno, message))

    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line[0] == "[" and line[-1] == "]":
            current = line[1:-1].strip()
            if current not in SECTION_KEYS:
                raise error("unknown section [%s]" % current)
            if current in sections:
                raise error("duplicate section [%s]" % current)
            kv, rows = {}, []
            sections[current] = {"kv": kv, "rows": rows}
        elif current is None:
            raise error("content before any section")
        elif "=" in line:
            key, val = (s.strip() for s in line.split("=", 1))
            if key not in SECTION_KEYS[current]:
                raise error("[%s] has no key %r" % (current, key))
            if key in kv:
                raise error("[%s] %s given twice" % (current, key))
            kv[key] = val
        elif current != "vms":
            raise error("bare row %r outside [vms]" % line)
        else:
            rows.append(line.split())
    for required in ("topology", "group", "vms", "event", "solver"):
        if required not in sections:
            raise ScenarioParseError("%s: missing [%s] section" % (path, required))
    return sections


@dataclass
class Scenario:
    name: str
    topology: object
    group: VnfGroup
    baseline: float
    traffic: float
    method: str
    admm_config: rpadmm.AdmmConfig
    pm_capacity: dict
    expect: dict


def load_scenario(path, overrides=None):
    """Parse and check a scenario file.  overrides maps method, beta, seed
    and iters to a value, or None to keep the file's [solver] value."""
    sec = parse_scenario(path)
    overrides = overrides or {}

    def entry(section, key, convert, default=None):
        """One key's text through convert(); a missing key without a
        default, or a bad value, is a parse error naming file and key."""
        text = sec.get(section, {"kv": {}})["kv"].get(key, default)
        if text is None:
            raise ScenarioParseError("%s: [%s] needs %s" % (path, section, key))
        try:
            return convert(text)
        except ValueError as err:
            raise ScenarioParseError("%s: [%s] %s = %s: %s"
                                     % (path, section, key, text, err)) from None

    def integer(text):
        return _number(text, int)

    def costs(text):
        layer_costs = tuple(_number(v, at_least=0) for v in text.split())
        if len(layer_costs) != 3:
            raise ValueError("needs three layer costs")
        return layer_costs

    kwargs = {}
    if "costs" in sec["topology"]["kv"]:
        kwargs["layer_costs"] = entry("topology", "costs", costs)
    pms_per_rack = entry("topology", "pms_per_rack",
                         lambda s: _number(s, int, at_least=1), "2")
    topo = entry("topology", "k", lambda s: build_fat_tree(
        integer(s), pms_per_rack=pms_per_rack, **kwargs), "4")

    omega = entry("group", "omega", _pairs, "cpu:1.0")
    thresholds = entry("group", "thresholds",
                       partial(_thresholds, resources=tuple(omega)),
                       "hot:0.90 warm:0.80 cold:0.30")
    chain = entry("group", "chain", str, "c")
    vnf_type = entry("group", "vnf_type", str, "fw")

    online = []
    for row in sec["vms"]["rows"]:
        if len(row) != 4:
            raise ScenarioParseError("%s: [vms] row %r needs: id host capacity util"
                                     % (path, " ".join(row)))
        vm_id, host, cap, util = row
        try:
            if any(vm.id == vm_id for vm in online):
                raise ValueError("VM id %s named twice" % vm_id)
            cap, util = _number(cap, above=0), _number(util, at_least=0)
            online.append(VmInstance(
                vm_id, vnf_type, chain, {r: cap for r in omega},
                host=parse_pm(host, topo), utilization={r: util for r in omega}))
        except ValueError as err:
            raise ScenarioParseError("%s: [vms] row %r: %s"
                                     % (path, " ".join(row), err)) from None
    if not online:
        raise ScenarioParseError("%s: [vms] lists no online VM" % path)
    pool_cap = online[0].capacity
    offline = entry("group", "offline", lambda s: _number(s, int, at_least=0),
                    "8")
    pool = [VmInstance("off%d" % (i + 1), vnf_type, chain, dict(pool_cap))
            for i in range(offline)]

    pm_list = partial(parse_pm_list, topo=topo)

    def endpoints(text):
        pms = pm_list(text)
        if not pms:
            raise ValueError("needs at least one PM")
        return pms

    gamma = entry("group", "gamma", _number, "1.0")
    phi = entry("group", "phi", _number, "1.0")
    ingress = entry("group", "ingress", endpoints)
    egress = entry("group", "egress", endpoints)
    candidates = entry("group", "candidates", pm_list)
    try:
        group = VnfGroup(
            chain=chain, vnf_type=vnf_type, online=online, offline_pool=pool,
            thresholds=thresholds, gamma=gamma, phi=phi, omega=omega,
            ingress_pms=ingress, egress_pms=egress, candidate_pms=candidates)
    except ValueError as err:
        raise ScenarioParseError("%s: [group]: %s" % (path, err)) from None

    def preset(text):
        kind, colon, extra = text.partition(":")
        if kind == "overload":
            extra = _number(extra, int, at_least=0) if colon else 1
            traffic = baseline * (1.0 + 0.5 * extra)
            if not math.isfinite(traffic):
                raise ValueError("the traffic it gives is not finite")
            return traffic
        if text == "underload":
            return baseline * 0.5
        raise ValueError("must be overload, overload:<extra> or underload")

    ev = sec["event"]["kv"]
    rate = partial(_number, at_least=0)
    baseline = entry("event", "baseline", rate)
    if ("traffic" in ev) == ("preset" in ev):
        raise ScenarioParseError(
            "%s: [event] needs exactly one of preset and traffic" % path)
    traffic = (entry("event", "traffic", rate) if "traffic" in ev
               else entry("event", "preset", preset))

    def setting(key, convert, default):
        given = overrides.get(key)
        return given if given is not None else entry("solver", key, convert,
                                                     default)

    method = setting("method", str, "lp")
    if method not in SOLVERS:
        raise ScenarioParseError("unknown solver method %r" % method)
    beta = setting("beta", _number, "5.0")
    seed = setting("seed", integer, "0")
    iters = setting("iters", integer, "25")
    try:
        admm_config = rpadmm.AdmmConfig(beta=beta, max_iters=iters, seed=seed)
    except ValueError as err:
        raise ScenarioParseError("%s: [solver]: %s" % (path, err)) from None

    pm_capacity = entry("pms", "capacity", lambda s: None if s == "none"
                        else uniform_capacity(topo, _pairs(s)), "none")

    def hosts(text):
        return set(pm_list(text))

    convert = {"state": _one_of(OVERLOAD, UNDERLOAD, NORMAL), "v_star": integer,
               "launch": hosts, "keep": hosts, "terminate": hosts,
               "cost_delta": _one_of("positive", "negative")}
    expect = {key: entry("expect", key, convert[key])
              for key in sec.get("expect", {"kv": {}})["kv"]}

    return Scenario(
        name=os.path.splitext(os.path.basename(path))[0], topology=topo,
        group=group, baseline=baseline, traffic=traffic, method=method,
        admm_config=admm_config, pm_capacity=pm_capacity, expect=expect)


# -- running -------------------------------------------------------------------

@dataclass
class RunReport:
    scenario: str
    state: str
    v_star: int = None
    method: str = None
    decision: object = None
    baseline_cost: float = None
    forwarding_cost: float = None
    cost_delta: float = None
    stats: dict = field(default_factory=dict)
    trace_paths: dict = field(default_factory=dict)
    expect_failures: list = field(default_factory=list)
    admm_trace: object = None

    def text(self):
        lines = ["scenario %s: %s" % (self.scenario, self.state)]
        if self.state == NORMAL:
            lines.append("  thresholds hold, no reconfiguration")
        else:
            lines.append("  v* = %d, solved with %s"
                         % (self.v_star, self.method))
            lines.extend("  " + row for row in
                         decision_table(self.decision).rstrip().splitlines())
            pct = ("" if not self.baseline_cost else " = %+.1f%%"
                   % (100 * self.cost_delta / self.baseline_cost))
            lines.append("  forwarding cost %.6g (baseline %.6g, %+.6g%s)"
                         % (self.forwarding_cost, self.baseline_cost,
                            self.cost_delta, pct))
            lines.append("  model: %(num_vars)d variables, %(num_rows)d rows,"
                         " solve %(runtime_s).3f s" % self.stats)
            if "iterations" in self.stats:
                lines.append("  sweeps: %(iterations)d, converged: %(converged)s,"
                             " coverage %(coverage).4f" % self.stats)
            lines.extend("  WARNING: %s" % msg for msg in self.decision.warnings)
            for name, p in sorted(self.trace_paths.items()):
                lines.append("  wrote %s" % p)
        for msg in self.expect_failures:
            lines.append("  EXPECT FAILED: %s" % msg)
        return "\n".join(lines) + "\n"


def _problem_for(sc, state):
    v_star = required_instances(sc.group, sc.traffic)
    if state == OVERLOAD:
        v_star = max(v_star, len(sc.group.online))
    else:
        v_star = min(v_star, len(sc.group.online))
    return ScalingProblem(
        topology=sc.topology, group=sc.group, traffic=sc.traffic,
        v_star=v_star, mode=state, pm_capacity=sc.pm_capacity,
        baseline_traffic=sc.baseline)


def _check_expectations(report, sc):
    exp = sc.expect
    if "state" in exp and exp["state"] != report.state:
        report.expect_failures.append(
            "state %s, expected %s" % (report.state, exp["state"]))
    if report.state == NORMAL:
        return
    if "v_star" in exp and exp["v_star"] != report.v_star:
        report.expect_failures.append(
            "v_star %d, expected %d" % (report.v_star, exp["v_star"]))
    dec = report.decision
    for key, hosts in (("launch", dec.launched), ("keep", dec.kept),
                       ("terminate", dec.terminated)):
        got = set(hosts.values())
        if key in exp and exp[key] != got:
            report.expect_failures.append(
                "%s %s, expected %s"
                % (key, sorted(pm_name(q) for q in got),
                   sorted(pm_name(q) for q in exp[key])))
    if "cost_delta" in exp:
        want_positive = exp["cost_delta"] == "positive"
        if (report.cost_delta > 0) != want_positive:
            report.expect_failures.append(
                "cost delta %+.6g, expected %s"
                % (report.cost_delta, exp["cost_delta"]))


# -- solvers -------------------------------------------------------------------
#
# SOLVERS[method](problem, admm_config) builds the method's model and returns
# it with a solve step; solve() returns (decision, extra stats, ADMM trace or
# None).  Every decision is a scaling.ScalingDecision, so one table and one
# pair of CSVs render all of them.

def _lp(p, admm_config):
    p = prune_launch_pms(p)
    model = (build_overload_lp if p.mode == OVERLOAD else build_underload_lp)(p)

    def solve():
        sol = lp.solve(model)
        if sol.status != lp.OPTIMAL:
            raise ModelInfeasibleError("relaxation is %s" % sol.status)
        return decode(model, sol.point, p), {}, None
    return model, solve


def _milp(p, admm_config):
    mp = milp.build_milp(p)

    def solve():
        sol = milp.solve_milp(mp)
        if sol.status == "infeasible":
            raise ModelInfeasibleError("joint model is infeasible")
        if sol.point is None:
            raise milp.BudgetExhaustedError(
                "branch-and-bound found no integral point within its budget"
                " (%d nodes)" % sol.nodes)
        if not sol.proven:
            sol.warnings.append(
                "not proven optimal: branch-and-bound stopped at its budget"
                " (%d nodes) with this incumbent" % sol.nodes)
        return sol, {"binaries": len(mp.binaries)}, None
    return mp.base, solve


def _rpadmm(p, admm_config):
    system = rpadmm.reformulate(p)

    def solve():
        x, trace = rpadmm.run(system, admm_config)
        dec = decode(system.central, system.unscale(x), p)
        coverage = sum(dec.shares.values())
        if abs(coverage - 1.0) > 1e-6:
            dec.warnings.append("the shares cover %.9f of the traffic" % coverage)
        stats = {"iterations": len(trace.records), "converged": trace.converged,
                 "coverage": coverage}
        return dec, stats, trace
    return system.central, solve


SOLVERS = {"lp": _lp, "milp": _milp, "rpadmm": _rpadmm}


def _write_csvs(out_dir, name, files):
    """Write each {kind: text} to <out_dir>/<name>_<kind>.csv and return
    {kind: path}."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    for kind, text in files.items():
        paths[kind] = os.path.join(out_dir, "%s_%s.csv" % (name, kind))
        with open(paths[kind], "w") as fh:
            fh.write(text)
    return paths


def run_scenario(path, out_dir=None, overrides=None):
    """Load, classify, solve and verify one scenario file."""
    sc = load_scenario(path, overrides)
    state = classify_group(sc.group)
    report = RunReport(scenario=sc.name, state=state, method=sc.method)
    if state == NORMAL:
        _check_expectations(report, sc)
        return report

    p = _problem_for(sc, state)
    report.v_star = p.v_star
    report.baseline_cost = p.baseline_cost
    t0 = time.perf_counter()
    model, solve = SOLVERS[sc.method](p, sc.admm_config)
    dec, extra, report.admm_trace = solve()
    report.stats = {"num_vars": model.num_vars, "num_rows": model.num_rows,
                    **extra, "runtime_s": time.perf_counter() - t0}
    report.decision = dec
    report.forwarding_cost = dec.forwarding_cost
    report.cost_delta = dec.forwarding_cost - report.baseline_cost

    if out_dir:
        files = {"decisions": decision_csv(dec), "flows": flows_csv(p, dec)}
        if report.admm_trace is not None:
            files["trace"] = report.admm_trace.csv()
        report.trace_paths = _write_csvs(out_dir, sc.name, files)

    _check_expectations(report, sc)
    return report


# -- model size sweep ----------------------------------------------------------

def _sweep_problem(k):
    """Canonical overload instance for the size table: two online VMs near
    the tree's left edge, one more required, every PM a candidate."""
    topo = build_fat_tree(k, pms_per_rack=2)
    pms = topo.pms
    omega = {"cpu": 1.0}
    thresholds = Thresholds.uniform(("cpu",))
    online = [VmInstance("vm%d" % (i + 1), "fw", "c", {"cpu": 100.0},
                         host=pms[i + 1], utilization={"cpu": 0.95})
              for i in range(2)]
    pool = [VmInstance("off1", "fw", "c", {"cpu": 100.0})]
    g = VnfGroup(chain="c", vnf_type="fw", online=online, offline_pool=pool,
                 thresholds=thresholds, gamma=1.0, phi=1.0, omega=omega,
                 ingress_pms=[pms[0]], egress_pms=[pms[-1]],
                 candidate_pms=list(pms))
    return ScalingProblem(topology=topo, group=g, traffic=300.0, v_star=3,
                          mode=OVERLOAD,
                          pm_capacity=uniform_capacity(topo, {"cpu": 100.0}))


def _solve_job(method, k, conn):
    p = _sweep_problem(k)
    t0 = time.perf_counter()
    model, solve = SOLVERS[method](p, rpadmm.AdmmConfig())
    solve()
    conn.send((model.num_vars, model.num_rows, time.perf_counter() - t0))


def model_counts(method, k):
    """Variable and row counts without solving."""
    model, _ = SOLVERS[method](_sweep_problem(k), None)
    return model.num_vars, model.num_rows


def sweep_topologies(ks, method="lp", time_budget=DEFAULT_TIME_BUDGET):
    """Size/time table rows: (k, switches, pms, variables, constraints,
    seconds or None when the budget ran out or the worker died).

    Each solve runs in a worker process so neither a blown budget nor a
    crashed solve can wedge the sweep; counts are still reported for the
    rows without a time.
    """
    ctx = get_context("fork")
    rows = []
    for k in ks:
        topo = build_fat_tree(k, pms_per_rack=2)
        recv, send = ctx.Pipe(duplex=False)
        worker = ctx.Process(target=_solve_job, args=(method, k, send))
        worker.start()
        worker.join(time_budget)
        if worker.is_alive():
            worker.terminate()
            worker.join()
        # the parent keeps the sending end open, so poll() never sees an
        # end of file: it is true only once the worker sent its result
        if recv.poll():
            nv, nr, elapsed = recv.recv()
        else:
            (nv, nr), elapsed = model_counts(method, k), None
        recv.close()
        send.close()
        rows.append((k, len(topo.switches), len(topo.pms), nv, nr, elapsed))
    return rows


def sweep_table(rows, method):
    out = ["%s model size and solve time" % method,
           "k    switches  PMs   variables  constraints  time"]
    for k, sw, pms, nv, nr, secs in rows:
        cell = "N/A" if secs is None else "%.3f s" % secs
        out.append("%-4d %-9d %-5d %-10d %-12d %s" % (k, sw, pms, nv, nr, cell))
    return "\n".join(out) + "\n"


# -- central vs distributed ------------------------------------------------------

@dataclass
class CompareReport:
    scenario: str
    optimum: float
    trace: object

    @property
    def objectives(self):
        return self.trace.objectives

    @property
    def gaps(self):
        """Per-iteration |objective - optimum| / |optimum|, or |objective|
        at a zero optimum."""
        opt = self.optimum
        if opt != 0.0:
            return [abs(o - opt) / abs(opt) for o in self.objectives]
        return [abs(o) for o in self.objectives]

    @property
    def final_gap(self):
        return self.gaps[-1]

    @property
    def best_gap(self):
        return min(self.gaps)

    def text(self):
        lines = ["scenario %s: central optimum %.6g" % (self.scenario,
                                                        self.optimum),
                 "iteration  objective      gap"]
        for i, (obj, gap) in enumerate(zip(self.objectives, self.gaps), 1):
            lines.append("%-10d %-14.6g %.4f%%" % (i, obj, 100 * gap))
        lines.append("best gap %.4f%%, final gap %.4f%%"
                     % (100 * self.best_gap, 100 * self.final_gap))
        return "\n".join(lines) + "\n"


def compare_solvers(path, overrides=None, out_dir=None):
    """Gap of the distributed run against the central relaxation optimum.
    The distributed run solves the central model over every candidate PM;
    the optimum is that of the model `SOLVERS["lp"]` solves, in overload
    cut to the launch PMs that can matter (`prune_launch_pms`), which
    loses no optimum."""
    sc = load_scenario(path, overrides)
    state = classify_group(sc.group)
    if state == NORMAL:
        raise ScenarioParseError(
            "solver comparison needs an overload or underload scenario, got %s"
            % state)
    p = _problem_for(sc, state)
    system = rpadmm.reformulate(p)
    model, _ = SOLVERS["lp"](p, None)
    central = lp.solve(model)
    if central.status != lp.OPTIMAL:
        raise ModelInfeasibleError("central relaxation is %s" % central.status)
    x, trace = rpadmm.run(system, sc.admm_config)
    report = CompareReport(scenario=sc.name, optimum=central.objective_value,
                           trace=trace)
    if out_dir:
        _write_csvs(out_dir, sc.name, {"trace": trace.csv()})
    return report
