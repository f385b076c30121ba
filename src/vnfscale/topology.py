"""k-fat-tree datacenter graphs with layered forwarding costs.

A k-fat-tree has k pods, each with k/2 top-of-rack (ToR) and k/2
aggregation switches, plus k^2/4 core switches.  Every ToR hosts a
configurable number of physical machines (PMs).  Links carry a
per-bit-per-unit-time forwarding cost that depends only on the layer
pair they connect, and no bandwidth limit; traffic between VMs on the
same PM is handled internally and costs nothing.

A tree stores no links: they follow from the node indices (Al-Fares,
Loukissas and Vahdat, SIGCOMM 2008, section 3).  With h = k/2, ToR r
links to the PMs of rack r; pod p holds ToR and aggregation switches
p*h .. p*h + h - 1, and each ToR links to each aggregation switch of
its pod; aggregation switch a links to core switches g*h .. g*h + h - 1
of core group g = a mod h.
"""

import functools
import math
import operator
from dataclasses import dataclass, field

PM = "PM"
TOR = "ToR"
AGG = "Aggregation"
CORE = "Core"

# canonical ordering of kinds: PMs first, then up the tree
_KIND_ORDER = {PM: 0, TOR: 1, AGG: 2, CORE: 3}

DEFAULT_LAYER_COSTS = (10.0, 20.0, 40.0)  # (pm_tor, tor_agg, agg_core)


@dataclass(frozen=True, eq=False)
class NodeId:
    """A node handle: kind plus index unique within that kind.

    Public maps key by NodeId (the set-up's own tables by PM index), so
    the hash is computed once, from ints only: the same in every process,
    where a string hash is randomized per process.  A NodeId equals only
    a NodeId."""

    kind: str
    index: int

    def __post_init__(self):
        if self.kind not in _KIND_ORDER:
            raise ValueError("unknown node kind: %r" % (self.kind,))
        if self.index < 0:
            raise ValueError("negative node index")
        object.__setattr__(self, "_hash", hash((_KIND_ORDER[self.kind], self.index)))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not NodeId:
            return NotImplemented
        return self.index == other.index and self.kind == other.kind

    def __str__(self):
        return "%s%d" % (self.kind, self.index)


def pm_name(node):
    """Output name of a node: 1-based "P5" for the fifth PM, as scenario
    files write it; a switch keeps its NodeId name."""
    return "P%d" % (node.index + 1) if node.kind == PM else str(node)


@dataclass(frozen=True)
class Topology:
    """Immutable fat-tree: its arguments and its node tuples, no links.

    nodes are ordered PMs first, then ToR, aggregation and core
    switches, each by index; this ordering fixes the variable indexing
    of every optimization model built on top.  Membership, positions,
    neighbours and link costs are computed from the indices by the
    wiring rule in the module docstring.
    """

    k: int
    pms_per_rack: int
    layer_costs: tuple
    nodes: tuple
    pms: tuple = field(repr=False)
    switches: tuple = field(repr=False)
    _span: dict = field(repr=False)     # kind -> (position of its index 0, count)

    def __contains__(self, i):
        """Whether i is a node of this tree."""
        return i.__class__ is NodeId and i.index < self._span[i.kind][1]

    def node_position(self, i):
        """Position of i in the canonical node ordering."""
        if i.__class__ is NodeId:
            first, count = self._span[i.kind]
            if i.index < count:
                return first + i.index
        raise KeyError("node %s not in topology" % (i,))


def build_fat_tree(k, pms_per_rack=2, layer_costs=DEFAULT_LAYER_COSTS):
    """The k-fat-tree for k a positive even integer, pms_per_rack at
    least 1 and three finite nonnegative layer costs (PM-ToR,
    ToR-aggregation, aggregation-core).  A Topology is immutable, so one
    is built per set of arguments and returned again after that."""
    if not isinstance(k, int) or k <= 0 or k % 2 != 0:
        raise ValueError("fat-tree arity k must be a positive even integer, got %r" % (k,))
    if pms_per_rack < 1:
        raise ValueError("pms_per_rack must be >= 1")
    if len(layer_costs) != 3 or any(not math.isfinite(c) or c < 0 for c in layer_costs):
        raise ValueError("layer_costs must be three nonnegative numbers")
    return _build(k, operator.index(pms_per_rack), tuple(float(c) for c in layer_costs))


@functools.cache
def _build(k, pms_per_rack, layer_costs):
    half = k // 2
    counts = (k * half * pms_per_rack, k * half, k * half, half * half)
    span, nodes = {}, []
    for kind, count in zip(_KIND_ORDER, counts):
        span[kind] = (len(nodes), count)
        nodes.extend(NodeId(kind, n) for n in range(count))
    nodes = tuple(nodes)
    return Topology(k=k, pms_per_rack=pms_per_rack, layer_costs=layer_costs,
                    nodes=nodes, pms=nodes[:counts[0]], switches=nodes[counts[0]:],
                    _span=span)


def _locate(t, i):
    """(rack, pod) of node i by the wiring rule: PM n is in rack
    n // pms_per_rack, ToR and aggregation switch n are in column n of
    their layer, column r is in pod r // (k/2), and a core switch is in
    neither (-1, -1)."""
    if i.kind == CORE:
        return -1, -1
    rack = i.index // t.pms_per_rack if i.kind == PM else i.index
    return rack, rack // (t.k // 2)


def _node(t, kind, index):
    """The tree's node of one kind and index."""
    return t.nodes[t._span[kind][0] + index]


def _nodes(t, kind, start, stop, step=1):
    """The tree's nodes of one kind with index in range(start, stop, step)."""
    first = t._span[kind][0]
    return t.nodes[first + start:first + stop:step]


def neighbors(t, i):
    """All nodes adjacent to i, in canonical order."""
    t.node_position(i)
    half = t.k // 2
    rack, pod = _locate(t, i)
    if i.kind == PM:
        return _nodes(t, TOR, rack, rack + 1)
    if i.kind == TOR:
        pms = rack * t.pms_per_rack
        return (_nodes(t, PM, pms, pms + t.pms_per_rack)
                + _nodes(t, AGG, pod * half, pod * half + half))
    if i.kind == AGG:
        group = i.index % half * half
        return (_nodes(t, TOR, pod * half, pod * half + half)
                + _nodes(t, CORE, group, group + half))
    return _nodes(t, AGG, i.index // half, t.k * half, half)


def forwarding_cost(t, i, j):
    """Per-bit-per-unit-time cost of the link between i and j: the cost
    of the lower layer it joins.  A PM with itself (i == j) models
    intra-PM transfers between co-located VMs and costs 0; any other
    pair that is not a link is an error."""
    t.node_position(i)
    t.node_position(j)
    if i == j:
        if i.kind == PM:
            return 0.0
        raise ValueError("self-transfer only defined on PMs, got %s" % (i,))
    if j not in neighbors(t, i):
        raise ValueError("nodes %s and %s are not linked" % (i, j))
    return t.layer_costs[min(_KIND_ORDER[i.kind], _KIND_ORDER[j.kind])]


def source_distances(t, sources):
    """Cost from each PM to its nearest source PM, indexed by PM index.

    A shortest PM-to-PM route climbs to the lowest layer its ends share
    and comes back down: 0 at a source, 2a in a source's rack, 2a+2b in
    its pod, 2a+2b+2c elsewhere, summed from the source out."""
    a, b, c = t.layer_costs
    by_level = (0.0, (0.0 + a) + a, (((0.0 + a) + b) + b) + a,
                (((((0.0 + a) + b) + c) + c) + b) + a)
    per_rack, half = t.pms_per_rack, t.k // 2
    own = {t.node_position(q) for q in sources}     # a PM's position is its index
    racks = {i // per_rack for i in own}
    pods = {rack // half for rack in racks}
    return tuple(by_level[0 if i in own else 1 if i // per_rack in racks
                          else 2 if i // per_rack // half in pods else 3]
                 for i in range(len(t.pms)))


def source_route(t, sources, q):
    """The links (node, next node) from PM q to its nearest source PM on
    the route `source_distances` prices; a source is its own link (q, q).
    The lowest source in q's rack is taken, else the lowest in its pod,
    else the lowest of all, crossing switch 0 of each switch layer.
    Every node of the route is the tree's own NodeId."""
    q = t.nodes[t.node_position(q)]
    if q in sources:
        return [(q, q)]
    rack, pod = _locate(t, q)

    def level(s):
        r, p = _locate(t, s)
        return 1 if r == rack else 2 if p == pod else 3

    s = min(sources, key=lambda s: (level(s), s.index))
    s = t.nodes[t.node_position(s)]
    top, (r, p) = level(s), _locate(t, s)
    half = t.k // 2
    up = [q, _node(t, TOR, rack), _node(t, AGG, pod * half), _node(t, CORE, 0)]
    down = [s, _node(t, TOR, r), _node(t, AGG, p * half)]
    route = up[:top + 1] + down[top - 1::-1]
    return list(zip(route, route[1:]))


def topology_listing(t):
    """Plain-text node/edge listing, one record per line.

    Format: kind index pod neighbor[,neighbor...]
    """
    lines = []
    for v in t.nodes:
        nbrs = ",".join(str(u) for u in neighbors(t, v))
        lines.append("%s %d %d %s" % (v.kind, v.index, _locate(t, v)[1], nbrs))
    return "\n".join(lines) + "\n"
