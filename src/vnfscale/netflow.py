"""Per-instance traffic flow structure over the arcs of a fat tree.

No solver builds on it: every model prices traffic by shortest paths.
It is the flow form that the per-arc reference models in
tests/oracle.py are built on, and perfbench/tracing.py wraps its methods
by name.

Traffic to a VNF group runs in two legs: unprocessed flow n from the
ingress PMs to the instance's host, and processed flow m (scaled by
the group's traffic changing factor gamma) from the host to the egress
PMs.  Both legs are modeled per instance d on the directed arcs of the
topology.  A PM that is itself an ingress (egress) point additionally
carries a zero-cost self-arc for n (m), which models internal handling
when an instance runs directly on that PM.

Every flow variable is one add_var, registered in a key -> index dict
per leg and in dicts of the arcs leaving and entering each node; every
row is merged from those dicts.
"""

from collections import defaultdict

from .topology import PM, forwarding_cost, neighbors


class FlowNet:
    """Directed arc set plus the n/m variables of one LpModel."""

    def __init__(self, topo, ingress_pms, egress_pms):
        self.topo = topo
        self.ingress = list(ingress_pms)
        self.egress = list(egress_pms)
        if not self.ingress or not self.egress:
            raise ValueError("ingress and egress PM sets must be nonempty")
        for p in self.ingress + self.egress:
            if p.kind != PM:
                raise ValueError("ingress/egress must be PMs, got %s" % (p,))
        self.arcs = [(v, u) for v in topo.nodes for u in neighbors(topo, v)]
        self.cost = {a: forwarding_cost(topo, *a) for a in self.arcs}
        for p in sorted(set(self.ingress) | set(self.egress),
                        key=topo.node_position):
            self.arcs.append((p, p))
            self.cost[(p, p)] = 0.0
        self.n_idx = {}
        self.m_idx = {}
        self.instances = []
        self._out = defaultdict(dict)   # (flow, node, d) -> {var: 1.0}
        self._in = defaultdict(dict)    # (flow, node, d) -> {var: 1.0}

    def _self_arc_wanted(self, p, flow):
        return p in (self.ingress if flow == "n" else self.egress)

    def _arc_open(self, i, j, flow):
        # unprocessed flow originates at ingress PMs only, processed flow
        # terminates at egress PMs only; every other PM endpoint on the
        # wrong side of an arc would let traffic appear out of nothing
        if flow == "n":
            return i.kind != PM or i in self.ingress
        return j.kind != PM or j in self.egress

    def add_flow_vars(self, model, instances):
        """Add n and m variables for every (arc, instance) pair.

        n lives on all link arcs plus ingress self-arcs; m on all link
        arcs plus egress self-arcs.  Arcs a leg can never legitimately
        use keep their variable but are pinned to zero, so all models
        share one variable grid regardless of endpoint choice.
        """
        instances = list(instances)
        if len(set(instances)) != len(instances):
            raise ValueError("duplicate instance key")
        self.instances = instances
        for d in instances:
            for (i, j) in self.arcs:
                for flow, idx_map in (("n", self.n_idx), ("m", self.m_idx)):
                    if i == j and not self._self_arc_wanted(i, flow):
                        continue
                    hi = None if i == j or self._arc_open(i, j, flow) else 0.0
                    name = "%s[%s>%s,%s]" % (flow, i, j, d)
                    idx = (model.add_var(name) if hi is None
                           else model.add_var(name, 0.0, 0.0))
                    idx_map[(i, j, d)] = idx
                    self._out[(flow, i, d)][idx] = 1.0
                    self._in[(flow, j, d)][idx] = 1.0

    def objective_coeffs(self):
        """Forwarding-cost coefficients F(i,j) on every n and m variable."""
        coeffs = {}
        for idx_map in (self.n_idx, self.m_idx):
            for (i, j, d), idx in idx_map.items():
                c = self.cost[(i, j)]
                if c:
                    coeffs[idx] = coeffs.get(idx, 0.0) + c
        return coeffs

    def outflow(self, flow, node, d):
        """{var: +1} over arcs leaving node, for one flow kind and instance."""
        return dict(self._out.get((flow, node, d), {}))

    def inflow(self, flow, node, d):
        """{var: +1} over arcs entering node, for one flow kind and instance."""
        return dict(self._in.get((flow, node, d), {}))

    # --- constraint rows of the per-arc flow models ------------------

    def add_switch_conservation(self, model):
        """Flow in equals flow out at every switch, per instance, for n and m."""
        for s in self.topo.switches:
            for d in self.instances:
                for flow in ("n", "m"):
                    coeffs = self.outflow(flow, s, d)
                    for idx, v in self.inflow(flow, s, d).items():
                        coeffs[idx] = coeffs.get(idx, 0.0) - v
                    model.add_row(coeffs, "=", 0.0, "flow_%s[%s,%s]" % (flow, s, d))

    def add_pm_processing(self, model, gamma):
        """Processed outflow of each PM equals gamma times its unprocessed inflow."""
        for p in self.topo.pms:
            for d in self.instances:
                coeffs = self.outflow("m", p, d)
                for idx, v in self.inflow("n", p, d).items():
                    coeffs[idx] = coeffs.get(idx, 0.0) - gamma * v
                if coeffs:
                    model.add_row(coeffs, "=", 0.0, "pm_proc[%s,%s]" % (p, d))

    def add_ingress_total(self, model, traffic):
        """All unprocessed traffic leaving the ingress PMs sums to T."""
        coeffs = {}
        for p in self.ingress:
            for d in self.instances:
                coeffs.update(self.outflow("n", p, d))
        model.add_row(coeffs, "=", traffic, "ingress_total")

    def add_egress_total(self, model, traffic, gamma):
        """All processed traffic entering the egress PMs sums to T*gamma."""
        coeffs = {}
        for p in self.egress:
            for d in self.instances:
                coeffs.update(self.inflow("m", p, d))
        model.add_row(coeffs, "=", traffic * gamma, "egress_total")

    def flows_from_point(self, point):
        """Split a solution vector into n and m dictionaries keyed (i, j, d)."""
        n = {k: float(point[idx]) for k, idx in self.n_idx.items()}
        m = {k: float(point[idx]) for k, idx in self.m_idx.items()}
        return n, m
