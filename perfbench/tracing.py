"""Outside-in layer tracing: spans around the public functions of each module.

The wrappers are installed on module attributes from here, so the program
runs unmodified.  A call is seen only where the caller looks the name up
through the patched attribute, which is why the same function is patched
both in its own module and wherever `scenario` imported it by name.

Spans stay in memory as [name, parent, decision, start, end, info] lists;
`parent` is the index of the enclosing span or -1, and `info` holds the
counters read off the call's arguments and result.
"""

import functools
import json
import time
import tracemalloc

from vnfscale import lp, milp, netflow, rpadmm, scaling, scenario

ROOT = "scenario.run_scenario"


def _lp_info(args, result):
    model = args[0]
    return {"vars": model.num_vars, "rows": model.num_rows,
            "optimal": result.status == lp.OPTIMAL}


def _admm_info(args, result):
    x, trace = result
    return {"sweeps": len(trace.records), "blocks": len(x),
            "messages": trace.messages_per_sweep}


FLOWNET_METHODS = ("__init__", "add_flow_vars", "objective_coeffs", "outflow",
                   "inflow", "add_switch_conservation", "add_pm_processing",
                   "add_ingress_total", "add_egress_total", "add_bandwidth",
                   "flows_from_point")

# (owner object, attribute, span name, counter extractor)
TARGETS = [
    (scenario, "run_scenario", ROOT, None),
    (scenario, "load_scenario", "scenario.load_scenario", None),
    (scenario, "build_fat_tree", "topology.build_fat_tree", None),
    (scenario, "classify_group", "chain_state", None),
    (scenario, "required_instances", "chain_state", None),
    (scenario, "build_overload_lp", "scaling.build", None),
    (scenario, "build_underload_lp", "scaling.build", None),
    (scenario, "baseline_forwarding_cost", "scaling.baseline_forwarding_cost", None),
    (scenario, "decode", "scaling.decode", None),
    (scenario, "forwarding_cost_of", "scaling.forwarding_cost_of", None),
    (scaling, "build_overload_lp", "scaling.build", None),
    (scaling, "baseline_forwarding_cost", "scaling.baseline_forwarding_cost", None),
    (scaling, "forwarding_cost_of", "scaling.forwarding_cost_of", None),
    (lp, "solve", "lp.solve", _lp_info),
    (milp, "build_milp", "milp.build_milp", None),
    (milp, "solve_milp", "milp.solve_milp", lambda a, r: {"nodes": r.nodes}),
    (rpadmm, "reformulate", "rpadmm.reformulate", None),
    (rpadmm, "run", "rpadmm.run", _admm_info),
    (rpadmm, "message_footprint", "rpadmm.message_footprint", None),
] + [(netflow.FlowNet, m, "netflow", None) for m in FLOWNET_METHODS]


class Patches:
    """Replaces attributes on enter and puts the originals back on exit.

    Targets missing from the program (renamed by a refactor) are skipped and
    listed in `missing`, so the benchmark keeps running and the gap shows as
    a zero metric."""

    def __init__(self, wrap, targets):
        self.wrap = wrap
        self.targets = targets
        self.saved = []
        self.missing = []

    def __enter__(self):
        for owner, attr, name, info in self.targets:
            fn = owner.__dict__.get(attr)
            if fn is None:
                self.missing.append("%s.%s" % (owner.__name__, attr))
                continue
            self.saved.append((owner, attr, fn))
            setattr(owner, attr, self.wrap(name, fn, info))
        return self

    def __exit__(self, *exc):
        for owner, attr, fn in reversed(self.saved):
            setattr(owner, attr, fn)
        self.saved.clear()


class Tracer:
    """Span recorder for one traced pass."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.decision = None

    def wrap(self, name, fn, info):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, self.decision, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[3] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if info is not None:
                span[5] = info(args, result)
            return result
        return traced

    def patches(self):
        return Patches(self.wrap, TARGETS)

    def self_times(self):
        """Per-span duration minus the time its direct children cover."""
        own = [end - start for _, _, _, start, end, _ in self.spans]
        for _, parent, _, start, end, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def write(self, path):
        with open(path, "w") as fh:
            for name, parent, decision, start, end, info in self.spans:
                fh.write(json.dumps({"name": name, "parent": parent,
                                     "decision": decision, "start": start,
                                     "end": end, "info": info}) + "\n")


class AllocProbe:
    """Peak traced allocation of each lp.solve call, in bytes."""

    def __init__(self):
        self.peaks = []

    def wrap(self, name, fn, info):
        @functools.wraps(fn)
        def probed(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                self.peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
        return probed

    def patches(self):
        return Patches(self.wrap, [(lp, "solve", "lp.solve", None)])


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, peaks):
    """Per-layer metrics of one traced pass.  Times are seconds summed over
    the pass; counts are totals over the pass."""
    spans = tracer.spans
    own = tracer.self_times()
    self_s, calls = {}, {}
    for (name, *_), t in zip(spans, own):
        self_s[name] = self_s.get(name, 0.0) + t
        calls[name] = calls.get(name, 0) + 1

    def lp_solves_under(parent_name):
        return [s for s in spans if s[0] == "lp.solve" and s[1] >= 0
                and spans[s[1]][0] == parent_name]

    lp_infos = [s[5] for s in spans if s[0] == "lp.solve"]
    milp_lp = lp_solves_under("milp.solve_milp")
    admm = [s[5] for s in spans if s[0] == "rpadmm.run"]
    sweeps = sum(a["sweeps"] for a in admm)
    block_updates = sum(a["sweeps"] * a["blocks"] for a in admm)
    decision_s = sum(end - start for name, parent, _, start, end, _ in spans
                     if name == ROOT and parent < 0)
    lp_calls = calls.get("lp.solve", 0)

    return {
        "lp.solve.calls": (lp_calls, "count"),
        "lp.solve.self_s": (self_s.get("lp.solve", 0.0), "s"),
        "lp.solve.ms_per_call": (1e3 * _ratio(self_s.get("lp.solve", 0.0), lp_calls), "ms"),
        "lp.solve.peak_alloc_mb": (max(peaks, default=0) / 2 ** 20, "MB"),
        "lp.solve.max_vars": (max((i["vars"] for i in lp_infos), default=0), "count"),
        "lp.solve.max_rows": (max((i["rows"] for i in lp_infos), default=0), "count"),
        "lp.solve.nonoptimal_share": (
            _ratio(sum(not i["optimal"] for i in lp_infos), lp_calls), "share"),
        "scaling.baseline_forwarding_cost.calls": (
            calls.get("scaling.baseline_forwarding_cost", 0), "count"),
        "scaling.baseline.lp_solves": (
            len(lp_solves_under("scaling.baseline_forwarding_cost")), "count"),
        "scaling.build.self_s": (self_s.get("scaling.build", 0.0), "s"),
        "scaling.build.calls": (calls.get("scaling.build", 0), "count"),
        "netflow.self_s": (self_s.get("netflow", 0.0), "s"),
        "scaling.decode.self_s": (self_s.get("scaling.decode", 0.0), "s"),
        "scaling.forwarding_cost_of.self_s": (
            self_s.get("scaling.forwarding_cost_of", 0.0), "s"),
        "milp.build_milp.self_s": (self_s.get("milp.build_milp", 0.0), "s"),
        "milp.solve_milp.self_s": (self_s.get("milp.solve_milp", 0.0), "s"),
        "milp.nodes": (sum(s[5]["nodes"] for s in spans
                           if s[0] == "milp.solve_milp"), "count"),
        "milp.lp_solves": (len(milp_lp), "count"),
        "milp.feasible_node_share": (
            _ratio(sum(s[5]["optimal"] for s in milp_lp), len(milp_lp)), "share"),
        "rpadmm.reformulate.self_s": (self_s.get("rpadmm.reformulate", 0.0), "s"),
        "rpadmm.run.self_s": (self_s.get("rpadmm.run", 0.0), "s"),
        "rpadmm.sweeps": (sweeps, "count"),
        "rpadmm.block_updates": (block_updates, "count"),
        "rpadmm.us_per_block_update": (
            1e6 * _ratio(self_s.get("rpadmm.run", 0.0), block_updates), "us"),
        "rpadmm.message_footprint.self_s": (
            self_s.get("rpadmm.message_footprint", 0.0), "s"),
        "rpadmm.messages_per_sweep": (
            _ratio(sum(a["messages"] for a in admm), len(admm)), "count"),
        "scenario.load_scenario.self_s": (self_s.get("scenario.load_scenario", 0.0), "s"),
        "scenario.run_scenario.self_s": (self_s.get(ROOT, 0.0), "s"),
        "chain_state.self_s": (self_s.get("chain_state", 0.0), "s"),
        "topology.build_fat_tree.self_s": (
            self_s.get("topology.build_fat_tree", 0.0), "s"),
        "trace.decision_s": (decision_s, "s"),
        "trace.attributed_pct": (
            100.0 * _ratio(decision_s - self_s.get(ROOT, 0.0), decision_s), "%"),
    }
