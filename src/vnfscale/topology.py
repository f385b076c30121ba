"""k-fat-tree datacenter graphs with layered forwarding costs.

A k-fat-tree has k pods, each with k/2 top-of-rack (ToR) and k/2
aggregation switches, plus k^2/4 core switches.  Every ToR hosts a
configurable number of physical machines (PMs).  Links carry a
per-bit-per-unit-time forwarding cost that depends only on the layer
pair they connect, and no bandwidth limit; traffic between VMs on the
same PM is handled internally and costs nothing.
"""

import functools
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

    Every model keys its dicts and sets by NodeId, so the hash is computed
    once, from ints only: the same value in every process, where a string
    hash is randomized per process.  A NodeId equals only a NodeId."""

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

    def sort_key(self):
        return (_KIND_ORDER[self.kind], self.index)

    def __str__(self):
        return "%s%d" % (self.kind, self.index)


def pm_name(node):
    """Output name of a node: 1-based "P5" for the fifth PM, as scenario
    files write it; a switch keeps its NodeId name."""
    return "P%d" % (node.index + 1) if node.kind == PM else str(node)


@dataclass(frozen=True)
class Topology:
    """Immutable wired fat-tree, indexed once when it is built.

    nodes are ordered PMs first, then ToR, aggregation and core
    switches, each sorted by pod; this ordering fixes the variable
    indexing of every optimization model built on top.  A node's
    position in it indexes arcs: arcs[n] holds (neighbour position,
    link cost) for each neighbour of nodes[n], in canonical order.
    """

    k: int
    pms_per_rack: int
    layer_costs: tuple
    nodes: tuple
    pms: tuple = field(repr=False)
    switches: tuple = field(repr=False)
    arcs: tuple = field(repr=False)
    _adj: dict = field(repr=False)
    _pod: dict = field(repr=False)
    _order: dict = field(repr=False)
    _cost: dict = field(repr=False)     # (i, j) -> cost of a link or a PM self-pair

    def __contains__(self, i):
        """Whether i is a node of this tree."""
        return i in self._order

    def node_position(self, i):
        """Position of i in the canonical node ordering."""
        pos = self._order.get(i)
        if pos is None:
            self._require(i)
        return pos

    def linked(self, i, j):
        self._require(i)
        self._require(j)
        return j in self._adj[i]

    def _require(self, i):
        if i not in self._adj:
            raise KeyError("node %s not in topology" % (i,))


def build_fat_tree(k, pms_per_rack=2, layer_costs=DEFAULT_LAYER_COSTS):
    """Wire a k-fat-tree and return the finished Topology.

    k must be a positive even integer.  Aggregation switch a of every
    pod uplinks to the k/2 core switches of core group a; ToR and
    aggregation switches of one pod form a complete bipartite graph;
    each ToR attaches pms_per_rack PMs.  A Topology is immutable, so
    one is built per set of arguments and returned again after that.
    """
    if not isinstance(k, int) or k <= 0 or k % 2 != 0:
        raise ValueError("fat-tree arity k must be a positive even integer, got %r" % (k,))
    if pms_per_rack < 1:
        raise ValueError("pms_per_rack must be >= 1")
    if len(layer_costs) != 3 or any(c < 0 for c in layer_costs):
        raise ValueError("layer_costs must be three nonnegative numbers")
    return _wire(k, operator.index(pms_per_rack), tuple(float(c) for c in layer_costs))


@functools.cache
def _wire(k, pms_per_rack, layer_costs):
    half = k // 2
    pod = {}

    for p in range(k):
        for t in range(half):
            for s in range(pms_per_rack):
                v = NodeId(PM, (p * half + t) * pms_per_rack + s)
                pod[v] = p
    for p in range(k):
        for t in range(half):
            pod[NodeId(TOR, p * half + t)] = p
    for p in range(k):
        for a in range(half):
            pod[NodeId(AGG, p * half + a)] = p
    for c in range(half * half):
        pod[NodeId(CORE, c)] = -1

    nodes = tuple(sorted(pod, key=NodeId.sort_key))
    cost = {(v, v): 0.0 for v in nodes if v.kind == PM}
    adj = {v: [] for v in nodes}
    pm_tor, tor_agg, agg_core = layer_costs

    def link(i, j, c):
        adj[i].append(j)
        adj[j].append(i)
        cost[(i, j)] = cost[(j, i)] = c

    for p in range(k):
        for t in range(half):
            tor = NodeId(TOR, p * half + t)
            for s in range(pms_per_rack):
                link(NodeId(PM, (p * half + t) * pms_per_rack + s), tor, pm_tor)
            for a in range(half):
                link(tor, NodeId(AGG, p * half + a), tor_agg)
        for a in range(half):
            agg = NodeId(AGG, p * half + a)
            for c in range(half):
                link(agg, NodeId(CORE, a * half + c), agg_core)

    order = {v: n for n, v in enumerate(nodes)}
    adj = {v: tuple(sorted(adj[v], key=order.__getitem__)) for v in nodes}
    arcs = tuple(tuple((order[j], cost[(i, j)]) for j in adj[i]) for i in nodes)
    return Topology(k=k, pms_per_rack=pms_per_rack, layer_costs=layer_costs,
                    nodes=nodes, pms=tuple(v for v in nodes if v.kind == PM),
                    switches=tuple(v for v in nodes if v.kind != PM),
                    arcs=arcs, _adj=adj, _pod=pod, _order=order, _cost=cost)


def neighbors(t, i):
    """All nodes adjacent to i, in canonical order."""
    t._require(i)
    return t._adj[i]


def forwarding_cost(t, i, j):
    """Per-bit-per-unit-time cost of the link between i and j.

    The diagonal PM case (i == j) models intra-PM transfers between
    co-located VMs and costs 0.  Any other non-adjacent pair is an
    error.
    """
    cost = t._cost.get((i, j))
    if cost is not None:
        return cost
    t._require(i)
    t._require(j)
    if i == j:
        raise ValueError("self-transfer only defined on PMs, got %s" % (i,))
    raise ValueError("nodes %s and %s are not linked" % (i, j))


def topology_listing(t):
    """Plain-text node/edge listing, one record per line.

    Format: kind index pod neighbor[,neighbor...]
    """
    lines = []
    for v in t.nodes:
        nbrs = ",".join(str(u) for u in t._adj[v])
        lines.append("%s %d %d %s" % (v.kind, v.index, t._pod[v], nbrs))
    return "\n".join(lines) + "\n"
