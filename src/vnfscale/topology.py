"""k-fat-tree datacenter graphs with layered forwarding costs.

A k-fat-tree has k pods, each with k/2 top-of-rack (ToR) and k/2
aggregation switches, plus k^2/4 core switches.  Every ToR hosts a
configurable number of physical machines (PMs).  Links carry a
per-bit-per-unit-time forwarding cost that depends only on the layer
pair they connect, and no bandwidth limit; traffic between VMs on the
same PM is handled internally and costs nothing.
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
    indexing of every optimization model built on top.
    """

    k: int
    pms_per_rack: int
    layer_costs: tuple
    nodes: tuple
    pms: tuple = field(repr=False)
    switches: tuple = field(repr=False)
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
    if len(layer_costs) != 3 or any(not math.isfinite(c) or c < 0 for c in layer_costs):
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
    return Topology(k=k, pms_per_rack=pms_per_rack, layer_costs=layer_costs,
                    nodes=nodes, pms=tuple(v for v in nodes if v.kind == PM),
                    switches=tuple(v for v in nodes if v.kind != PM),
                    _adj=adj, _pod=pod, _order=order, _cost=cost)


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


def source_distances(t, sources):
    """Cost from each PM to its nearest source PM, indexed by PM index.

    A shortest PM-to-PM route on a fat tree climbs to the lowest layer
    its ends share and comes back down (Al-Fares, Loukissas and Vahdat,
    SIGCOMM 2008, section 3): 0 at a source, 2a in a source's rack,
    2a+2b in its pod, 2a+2b+2c elsewhere, summed from the source out."""
    a, b, c = t.layer_costs
    by_level = (0.0, (0.0 + a) + a, (((0.0 + a) + b) + b) + a,
                (((((0.0 + a) + b) + c) + c) + b) + a)
    ppr, half = t.pms_per_rack, t.k // 2
    own = {t.node_position(q) for q in sources}     # a PM's position is its index
    racks = {i // ppr for i in own}
    pods = {r // half for r in racks}
    return tuple(by_level[0 if i in own else 1 if i // ppr in racks
                          else 2 if i // ppr // half in pods else 3]
                 for i in range(len(t.pms)))


def source_route(t, sources, q):
    """The links (node, next node) from PM q to its nearest source PM on
    the route `source_distances` prices; a source is its own link (q, q).
    The lowest source in q's rack is taken, else the lowest in its pod,
    else the lowest of all, crossing switch 0 of each switch layer."""
    if q in sources:
        return [(q, q)]
    ppr, half = t.pms_per_rack, t.k // 2
    rack = q.index // ppr

    def level(s):
        r = s.index // ppr
        return 1 if r == rack else 2 if r // half == rack // half else 3

    s = min(sources, key=lambda s: (level(s), s.index))
    top, s_rack = level(s), s.index // ppr
    up = [q, NodeId(TOR, rack), NodeId(AGG, rack // half * half), NodeId(CORE, 0)]
    down = [s, NodeId(TOR, s_rack), NodeId(AGG, s_rack // half * half)]
    route = up[:top + 1] + down[top - 1::-1]
    return list(zip(route, route[1:]))


def topology_listing(t):
    """Plain-text node/edge listing, one record per line.

    Format: kind index pod neighbor[,neighbor...]
    """
    lines = []
    for v in t.nodes:
        nbrs = ",".join(str(u) for u in t._adj[v])
        lines.append("%s %d %d %s" % (v.kind, v.index, t._pod[v], nbrs))
    return "\n".join(lines) + "\n"
