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

Every instance has the same variables: a template of (arc, leg) pairs
in arc order, n before m.  The flow variables are one contiguous range,
so the variable of template entry t for the instance at position k is
base + k * width + t, and every lookup and row block is computed from
the template.
"""

from types import MappingProxyType

import numpy as np

from .topology import PM, forwarding_cost, neighbors

LEGS = ("n", "m")


class FlowNet:
    """Directed arc set plus the n/m variable range of one LpModel."""

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
        cost = [forwarding_cost(topo, *a) for a in self.arcs]
        ingress, egress = set(self.ingress), set(self.egress)
        for p in sorted(ingress | egress, key=topo.node_position):
            self.arcs.append((p, p))
            cost.append(0.0)

        # the per-instance template: (arc, leg, upper bound) in variable
        # order.  Unprocessed flow originates at ingress PMs only and
        # processed flow terminates at egress PMs only; an arc a leg can
        # never legitimately use keeps its variable pinned to zero, so
        # every model shares one variable grid whatever the endpoints.
        # Self-arcs exist only for the leg whose endpoint the PM is.
        self._template = []
        tcost = []
        for (i, j), c in zip(self.arcs, cost):
            if i == j:
                legs = [(leg, np.inf) for leg, ends in (("n", ingress), ("m", egress))
                        if i in ends]
            else:
                legs = [("n", np.inf if i.kind != PM or i in ingress else 0.0),
                        ("m", np.inf if j.kind != PM or j in egress else 0.0)]
            for leg, hi in legs:
                self._template.append(((i, j), leg, hi))
                tcost.append(c)
        self._width = len(self._template)
        self._tcost = np.array(tcost)
        self._leg_offsets = {leg: np.array([t for t, (_, l, _) in enumerate(self._template)
                                            if l == leg], dtype=int) for leg in LEGS}
        # (leg, node) -> template offsets of the arcs leaving / entering node
        self._leaving, self._entering = {}, {}
        for t, ((i, j), leg, _) in enumerate(self._template):
            self._leaving.setdefault((leg, i), []).append(t)
            self._entering.setdefault((leg, j), []).append(t)
        self._set_instances([], 0)

    def _set_instances(self, instances, base):
        self.instances = list(instances)
        self._pos = {d: k for k, d in enumerate(self.instances)}
        self._shift = base + self._width * np.arange(len(self.instances))
        self._legs = {}       # leg -> ((i, j, d) keys, variable indices)
        self._lookups = {}    # leg -> read-only key -> index mapping

    def add_flow_vars(self, model, instances):
        """Add n and m variables for every (arc, instance) pair as one range.

        n lives on all link arcs plus ingress self-arcs; m on all link
        arcs plus egress self-arcs.  Arcs a leg can never legitimately
        use keep their variable but are pinned to zero.
        """
        instances = list(instances)
        if len(set(instances)) != len(instances):
            raise ValueError("duplicate instance key")
        template = self._template

        def names():
            return ["%s[%s>%s,%s]" % (leg, i, j, d)
                    for d in instances for (i, j), leg, _ in template]

        upper = np.tile([hi for _, _, hi in template], len(instances))
        base = model.add_vars(upper.size, 0.0, upper, names)
        self._set_instances(instances, base)

    def _leg(self, leg):
        """((i, j, d) keys, variable indices) of one leg in variable order."""
        if leg not in self._legs:
            offs = self._leg_offsets[leg]
            arcs = [self._template[t][0] for t in offs.tolist()]
            keys = [(i, j, d) for d in self.instances for (i, j) in arcs]
            self._legs[leg] = keys, (self._shift[:, None] + offs).ravel()
        return self._legs[leg]

    def _index(self, leg):
        if leg not in self._lookups:
            keys, idx = self._leg(leg)
            self._lookups[leg] = MappingProxyType(dict(zip(keys, idx.tolist())))
        return self._lookups[leg]

    @property
    def n_idx(self):
        """Read-only (i, j, d) -> variable index of every n variable."""
        return self._index("n")

    @property
    def m_idx(self):
        """Read-only (i, j, d) -> variable index of every m variable."""
        return self._index("m")

    def objective_coeffs(self, weight=1.0):
        """Forwarding-cost coefficients F(i,j) on every n and m variable."""
        c = weight * self._tcost
        coeffs = {}
        for leg in LEGS:
            offs = self._leg_offsets[leg]
            offs = offs[c[offs] != 0]
            idx = (self._shift[:, None] + offs).ravel()
            coeffs.update(zip(idx.tolist(), np.tile(c[offs], len(self.instances)).tolist()))
        return coeffs

    def _flow_dict(self, offsets, d):
        k = self._pos.get(d)
        if k is None or offsets is None:
            return {}
        shift = int(self._shift[k])
        return dict.fromkeys([shift + t for t in offsets], 1.0)

    def outflow(self, flow, node, d):
        """{var: +1} over arcs leaving node, for one flow kind and instance."""
        return self._flow_dict(self._leaving.get((flow, node)), d)

    def inflow(self, flow, node, d):
        """{var: +1} over arcs entering node, for one flow kind and instance."""
        return self._flow_dict(self._entering.get((flow, node)), d)

    # --- constraint rows of the per-arc flow models ------------------

    def _balance_row(self, node, out_leg, in_leg, in_coef):
        """Template row: +1 on the out_leg arcs leaving node, then in_coef
        on the in_leg arcs entering it, as (offsets, coefficients)."""
        out = self._leaving.get((out_leg, node), [])
        inn = self._entering.get((in_leg, node), [])
        return out + inn, [1.0] * len(out) + [in_coef] * len(inn)

    def _add_balance_rows(self, model, groups, labels):
        """Append one block of zero-rhs equality rows: for each group of
        template rows, for each instance, the group's rows shifted onto
        that instance's variables."""
        count = len(self.instances)
        cols, vals, lens = [], [], []
        for rows in groups:
            offs = np.array([t for offsets, _ in rows for t in offsets], dtype=int)
            cols.append((self._shift[:, None] + offs).ravel())
            vals.append(np.tile([c for _, coefs in rows for c in coefs], count))
            lens.append(np.tile([len(offsets) for offsets, _ in rows], count))
        indptr = np.concatenate(([0], np.cumsum(np.concatenate(lens))))
        model.add_rows(indptr, np.concatenate(cols), np.concatenate(vals),
                       "=", 0.0, labels)

    def add_switch_conservation(self, model):
        """Flow in equals flow out at every switch, per instance, for n and m."""
        switches, instances = self.topo.switches, self.instances
        groups = [[self._balance_row(s, leg, leg, -1.0) for leg in LEGS]
                  for s in switches]
        self._add_balance_rows(model, groups, lambda: [
            "flow_%s[%s,%s]" % (leg, s, d)
            for s in switches for d in instances for leg in LEGS])

    def add_pm_processing(self, model, gamma):
        """Processed outflow of each PM equals gamma times its unprocessed inflow."""
        rows = {p: self._balance_row(p, "m", "n", 0.0 - gamma) for p in self.topo.pms}
        pms = [p for p, (offsets, _) in rows.items() if offsets]
        instances = self.instances
        self._add_balance_rows(model, [[rows[p]] for p in pms], lambda: [
            "pm_proc[%s,%s]" % (p, d) for p in pms for d in instances])

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
        point = np.asarray(point, dtype=float)
        return tuple(dict(zip(keys, point[idx].tolist()))
                     for keys, idx in map(self._leg, LEGS))
