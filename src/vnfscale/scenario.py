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
  [event]     baseline traffic plus either "preset = overload:<extra>"
              (traffic = baseline * (1 + 0.5*extra)), "preset = underload"
              (baseline * 0.5), or an explicit "traffic = value"
  [solver]    method (lp | milp | rpadmm), beta, seed, iters
  [expect]    optional self-checks: state, v_star, launch, keep,
              terminate (host sets) and cost_delta (positive | negative)

The runner classifies the group from the recorded utilizations, sizes the
instance set for the event traffic, picks the penalty profile for the
detected state, solves with the requested method and renders a decision
table plus solver statistics.  PM names are 1-based: "P5" is the fifth
machine of the tree.
"""

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from multiprocessing import get_context

from . import lp, milp, rpadmm
from .chain_state import (OVERLOAD, NORMAL, Thresholds, VmInstance, VnfGroup,
                          classify_group, required_instances)
from .scaling import (ScalingProblem, build_overload_lp, build_underload_lp,
                      decode, uniform_capacity, decision_csv, flows_csv,
                      ModelInfeasibleError)
from .topology import PM, NodeId, build_fat_tree

TIME_BUDGET_ENV = "VNFSCALE_TIME_BUDGET"
DEFAULT_TIME_BUDGET = 1200.0


class ScenarioParseError(ValueError):
    pass


@contextmanager
def _bad_values_named(where):
    """Re-raise a ValueError met inside the block as a ScenarioParseError
    that starts with `where` (the file and the key or row)."""
    try:
        yield
    except ValueError as err:
        raise ScenarioParseError("%s: %s" % (where, err)) from None


def parse_pm(token, topo=None):
    """'P5' -> the fifth PM (NodeId index 4)."""
    if not token.startswith("P") or not token[1:].isdigit():
        raise ScenarioParseError("bad PM name %r" % token)
    node = NodeId(PM, int(token[1:]) - 1)
    if topo is not None and node not in topo.pms:
        raise ScenarioParseError("%s is not in the topology" % token)
    return node


def parse_pm_list(text, topo=None):
    out = []
    for token in text.split():
        if "-" in token[1:]:
            a, b = token.split("-", 1)
            with _bad_values_named("bad PM range %r" % token):
                lo, hi = int(a.lstrip("P")), int(b.lstrip("P"))
            out.extend(parse_pm("P%d" % i, topo) for i in range(lo, hi + 1))
        else:
            out.append(parse_pm(token, topo))
    return out


def _pairs(text):
    out = {}
    for token in text.split():
        k, _, v = token.partition(":")
        with _bad_values_named("bad name:value token %r" % token):
            out[k] = float(v)
    return out


def _thresholds(text, resources):
    thr = _pairs(text)
    if set(thr) != {"hot", "warm", "cold"}:
        raise ScenarioParseError("need exactly hot, warm and cold")
    return Thresholds.uniform(resources, **thr)


def parse_scenario(path):
    """Sections as {name: {"kv": {...}, "rows": [...]}}, checked lightly."""
    sections = {}
    current = None
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("[") and line.endswith("]"):
                current = line[1:-1].strip()
                if current in sections:
                    raise ScenarioParseError(
                        "%s:%d duplicate section [%s]" % (path, lineno, current))
                sections[current] = {"kv": {}, "rows": []}
            elif current is None:
                raise ScenarioParseError(
                    "%s:%d content before any section" % (path, lineno))
            elif "=" in line:
                key, val = (s.strip() for s in line.split("=", 1))
                sections[current]["kv"][key] = val
            else:
                sections[current]["rows"].append(line.split())
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
    beta: float
    seed: int
    iters: int
    admm_config: rpadmm.AdmmConfig
    pm_capacity: dict
    expect: dict


def load_scenario(path, overrides=None):
    sec = parse_scenario(path)
    overrides = overrides or {}

    def value(section, key, convert, default=None):
        """One key's text through convert(); a missing key without a
        default, or a bad value, is a parse error naming file and key."""
        text = sec.get(section, {"kv": {}})["kv"].get(key, default)
        if text is None:
            raise ScenarioParseError("%s: [%s] needs %s" % (path, section, key))
        with _bad_values_named("%s: [%s] %s = %s" % (path, section, key, text)):
            return convert(text)

    kwargs = {}
    if "costs" in sec["topology"]["kv"]:
        kwargs["layer_costs"] = value(
            "topology", "costs", lambda s: tuple(float(v) for v in s.split()))
    pms_per_rack = value("topology", "pms_per_rack", int, "2")
    topo = value("topology", "k", lambda s: build_fat_tree(
        int(s), pms_per_rack=pms_per_rack, **kwargs), "4")

    omega = value("group", "omega", _pairs, "cpu:1.0")
    thresholds = value("group", "thresholds",
                       partial(_thresholds, resources=tuple(omega)),
                       "hot:0.90 warm:0.80 cold:0.30")
    chain = value("group", "chain", str, "c")
    vnf_type = value("group", "vnf_type", str, "fw")

    online = []
    for row in sec["vms"]["rows"]:
        if len(row) != 4:
            raise ScenarioParseError("vm row needs: id host capacity util, got %r"
                                     % " ".join(row))
        vm_id, host, cap, util = row
        with _bad_values_named("%s: [vms] row %r" % (path, " ".join(row))):
            online.append(VmInstance(
                vm_id, vnf_type, chain, {r: float(cap) for r in omega},
                host=parse_pm(host, topo),
                utilization={r: float(util) for r in omega}))
    if not online:
        raise ScenarioParseError("scenario has no online VMs")
    pool_cap = online[0].capacity
    pool = [VmInstance("off%d" % (i + 1), vnf_type, chain, dict(pool_cap))
            for i in range(value("group", "offline", int, "8"))]

    pm_list = partial(parse_pm_list, topo=topo)
    gamma = value("group", "gamma", float, "1.0")
    phi = value("group", "phi", float, "1.0")
    ingress = value("group", "ingress", pm_list)
    egress = value("group", "egress", pm_list)
    candidates = value("group", "candidates", pm_list)
    with _bad_values_named("%s: [group]" % path):
        group = VnfGroup(
            chain=chain, vnf_type=vnf_type, online=online, offline_pool=pool,
            thresholds=thresholds, gamma=gamma, phi=phi, omega=omega,
            ingress_pms=ingress, egress_pms=egress, candidate_pms=candidates)

    ev = sec["event"]["kv"]
    baseline = value("event", "baseline", float)
    if "traffic" in ev:
        traffic = value("event", "traffic", float)
    elif "preset" in ev:
        preset = ev["preset"]
        if preset.startswith("overload"):
            extra = value("event", "preset",
                          lambda s: int(s.split(":", 1)[1]) if ":" in s else 1)
            traffic = baseline * (1.0 + 0.5 * extra)
        elif preset == "underload":
            traffic = baseline * 0.5
        else:
            raise ScenarioParseError("unknown event preset %r" % preset)
    else:
        raise ScenarioParseError("[event] needs a preset or explicit traffic")

    method = overrides.get("method") or value("solver", "method", str, "lp")
    if method not in SOLVERS:
        raise ScenarioParseError("unknown solver method %r" % method)
    beta = float(overrides.get("beta") or value("solver", "beta", float, "5.0"))
    seed = (int(overrides["seed"]) if overrides.get("seed") is not None
            else value("solver", "seed", int, "0"))
    iters = int(overrides.get("iters") or value("solver", "iters", int, "25"))
    with _bad_values_named("%s: [solver]" % path):
        admm_config = rpadmm.AdmmConfig(beta=beta, max_iters=iters, seed=seed)

    pm_capacity = value("pms", "capacity", lambda s: None if s == "none"
                        else uniform_capacity(topo, _pairs(s)), "none")

    expect = {}
    if "expect" in sec:
        e = sec["expect"]["kv"]
        if "state" in e:
            expect["state"] = e["state"]
        if "v_star" in e:
            expect["v_star"] = value("expect", "v_star", int)
        for key in ("launch", "keep", "terminate"):
            if key in e:
                expect[key] = set(value("expect", key, pm_list))
        if "cost_delta" in e:
            expect["cost_delta"] = e["cost_delta"]

    return Scenario(
        name=os.path.splitext(os.path.basename(path))[0], topology=topo,
        group=group, baseline=baseline, traffic=traffic, method=method,
        beta=beta, seed=seed, iters=iters, admm_config=admm_config,
        pm_capacity=pm_capacity, expect=expect)


# -- running -------------------------------------------------------------------

@dataclass
class RunReport:
    scenario: str
    state: str
    v_star: int = None
    method: str = None
    decision: object = None
    table: str = ""
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
            return "\n".join(lines) + "\n"
        lines.append("  v* = %d, solved with %s" % (self.v_star, self.method))
        lines.extend("  " + row for row in self.table.rstrip().splitlines())
        pct = ("" if not self.baseline_cost
               else " = %+.1f%%" % (100 * self.cost_delta / self.baseline_cost))
        lines.append("  forwarding cost %.6g (baseline %.6g, %+.6g%s)"
                     % (self.forwarding_cost, self.baseline_cost,
                        self.cost_delta, pct))
        lines.append("  model: %(num_vars)d variables, %(num_rows)d rows,"
                     " solve %(runtime_s).3f s" % self.stats)
        if "iterations" in self.stats:
            lines.append("  sweeps: %d, converged: %s"
                         % (self.stats["iterations"], self.stats["converged"]))
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


def _decision_table(dec):
    if isinstance(dec, milp.MilpSolution):
        rows = ["vm        host    share"]
        for j in sorted(dec.placement, key=str):
            q = dec.placement[j]
            rows.append("%-9s %-7s %.4f" % (j, "-" if q is None else _pm_name(q),
                                            dec.shares.get(j, 0.0)))
        return "\n".join(rows) + "\n"
    rows = ["instance  action     host    share"]
    for vm_id, q in sorted(dec.kept.items(), key=lambda kv: str(kv[0])):
        key = dec.vm_slot.get(vm_id, "")
        rows.append("%-9s keep       %-7s %.4f"
                    % (vm_id, _pm_name(q), dec.shares.get(key, 0.0)))
    for key, q in sorted(dec.launched.items()):
        rows.append("%-9s launch     %-7s %.4f"
                    % (key, _pm_name(q), dec.shares.get(key, 0.0)))
    for vm_id, q in sorted(dec.terminated.items(), key=lambda kv: str(kv[0])):
        rows.append("%-9s terminate  %-7s -" % (vm_id, _pm_name(q)))
    return "\n".join(rows) + "\n"


def _pm_name(node):
    return "P%d" % (node.index + 1) if node.kind == PM else str(node)


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
                % (key, sorted(_pm_name(q) for q in got),
                   sorted(_pm_name(q) for q in exp[key])))
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
# None).  Every decision carries kept / launched / terminated maps (id -> PM)
# and its forwarding cost.

def _lp(p, admm_config):
    model = (build_overload_lp if p.mode == OVERLOAD else build_underload_lp)(p)

    def solve():
        sol = lp.solve(model)
        if sol.status != lp.OPTIMAL:
            raise ModelInfeasibleError("relaxation is %s" % sol.status)
        return decode(sol, p), {}, None
    return model, solve


def _milp(p, admm_config):
    mp = milp.build_milp(p)

    def solve():
        sol = milp.solve_milp(mp)
        if sol.status != "optimal":
            raise ModelInfeasibleError("joint model is %s" % sol.status)
        return sol, {"binaries": len(mp.binaries)}, None
    return mp.base, solve


def _rpadmm(p, admm_config):
    if p.mode != OVERLOAD:
        raise ScenarioParseError(
            "the distributed solver handles only overload scenarios")
    system = rpadmm.reformulate(p)

    def solve():
        x, trace = rpadmm.run(system, admm_config)
        sol = lp.LpSolution(status=lp.OPTIMAL, point=x,
                            objective_value=trace.objectives[-1],
                            model=system.model)
        stats = {"iterations": len(trace.records), "converged": trace.converged}
        return decode(sol, p), stats, trace
    return system.model, solve


SOLVERS = {"lp": _lp, "milp": _milp, "rpadmm": _rpadmm}


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
    report.table = _decision_table(dec)
    report.forwarding_cost = dec.forwarding_cost
    report.cost_delta = dec.forwarding_cost - report.baseline_cost

    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        if isinstance(dec, milp.MilpSolution):
            files = {"decisions": milp.placement_table(dec)}
        else:
            files = {"decisions": decision_csv(dec), "flows": flows_csv(dec)}
        if report.admm_trace is not None:
            files["trace"] = report.admm_trace.csv()
        for kind, text in files.items():
            path = os.path.join(out_dir, "%s_%s.csv" % (sc.name, kind))
            with open(path, "w") as fh:
                fh.write(text)
            report.trace_paths[kind] = path

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


def sweep_topologies(ks, method="lp", time_budget=None):
    """Size/time table rows: (k, switches, pms, variables, constraints,
    seconds or None when the budget ran out or the worker died).

    Each solve runs in a worker process so neither a blown budget nor a
    crashed solve can wedge the sweep; counts are still reported for the
    rows without a time.
    """
    if time_budget is None:
        time_budget = float(os.environ.get(TIME_BUDGET_ENV,
                                           DEFAULT_TIME_BUDGET))
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
    objectives: list
    gaps: list                 # per-iteration |objective - optimum| / optimum
    converged: bool
    trace: object

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


def compare_solvers(path_or_scenario, overrides=None, out_dir=None):
    """Gap of the distributed run against the central relaxation optimum."""
    sc = path_or_scenario if isinstance(path_or_scenario, Scenario) \
        else load_scenario(path_or_scenario, overrides)
    state = classify_group(sc.group)
    if state != OVERLOAD:
        raise ScenarioParseError(
            "solver comparison needs an overload scenario, got %s" % state)
    p = _problem_for(sc, state)
    central = lp.solve(build_overload_lp(p))
    if central.status != lp.OPTIMAL:
        raise ModelInfeasibleError("central relaxation is %s" % central.status)
    x, trace = rpadmm.run(rpadmm.reformulate(p), sc.admm_config)
    opt = central.objective_value
    if opt != 0.0:
        gaps = [abs(o - opt) / abs(opt) for o in trace.objectives]
    else:
        gaps = [abs(o) for o in trace.objectives]
    report = CompareReport(scenario=sc.name, optimum=opt,
                           objectives=list(trace.objectives), gaps=gaps,
                           converged=trace.converged, trace=trace)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, "%s_trace.csv" % sc.name)
        with open(path, "w") as fh:
            fh.write(trace.csv())
    return report
