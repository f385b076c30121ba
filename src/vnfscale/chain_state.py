"""Service-chain modeling and overload/underload detection.

Each service chain is an ordered list of VNF groups; a group holds the
online VM instances of one VNF type plus an offline pool of instances
that can be launched.  Classification runs on synthetic utilization
snapshots injected by scenario files.
"""

import math
from dataclasses import dataclass, field

OVERLOAD = "overload"
UNDERLOAD = "underload"
NORMAL = "normal"


class ClassificationError(ValueError):
    """A VM is missing a utilization sample for a thresholded resource."""


@dataclass(frozen=True)
class Thresholds:
    """Per-resource hot / warm / cold utilization fractions."""

    hot: dict
    warm: dict
    cold: dict

    def __post_init__(self):
        for r in self.hot:
            if not (0.0 < self.cold[r] < self.warm[r] < self.hot[r] <= 1.0):
                raise ValueError("need 0 < cold < warm < hot <= 1 for resource %r" % r)

    @classmethod
    def uniform(cls, resources, hot=0.90, warm=0.80, cold=0.30):
        resources = tuple(resources)
        return cls(hot={r: hot for r in resources},
                   warm={r: warm for r in resources},
                   cold={r: cold for r in resources})

    @property
    def resources(self):
        return tuple(self.hot)


@dataclass
class VmInstance:
    """One VM of a VNF type: online on a host PM, or parked offline."""

    id: int
    vnf_type: str
    chain: str
    capacity: dict              # resource -> u_{k,r}, in resource units
    host: object = None         # NodeId of a PM, or None when offline
    utilization: dict = None    # resource -> fraction of capacity, online only


@dataclass
class VnfGroup:
    """All instances of one VNF type inside one chain."""

    chain: str
    vnf_type: str
    online: list                # V, ordered
    offline_pool: list          # V*, ordered
    thresholds: Thresholds
    gamma: float = 1.0          # traffic changing factor of this type
    phi: float = 1.0            # max fraction of inbound traffic per VM
    omega: dict = field(default_factory=dict)   # resource -> service impact per unit traffic
    ingress_pms: list = field(default_factory=list)   # hosts of the upstream group
    egress_pms: list = field(default_factory=list)    # hosts of the downstream group
    candidate_pms: list = field(default_factory=list)  # Psi*: PMs that can host a launch

    def __post_init__(self):
        if not self.online:
            raise ValueError("a VNF group needs at least one online VM")
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if not (0.0 < self.phi <= 1.0):
            raise ValueError("phi must lie in (0, 1]")

    @property
    def host_pms(self):
        """Psi: hosts of the online instances, first-seen order."""
        seen = []
        for vm in self.online:
            if vm.host not in seen:
                seen.append(vm.host)
        return seen

    def vm_capacity(self, r):
        """u_r: the smallest capacity of resource r over the online and
        offline VMs, so heterogeneous inputs err on the safe side."""
        return min(vm.capacity[r] for vm in (*self.online, *self.offline_pool))


def _sample(vm, r):
    if vm.utilization is None or r not in vm.utilization:
        raise ClassificationError(
            "VM %s has no utilization sample for resource %r" % (vm.id, r))
    return vm.utilization[r]


def classify_group(g):
    """Classify one group as overload / underload / normal.

    Overload: some online VM meets or exceeds the hot threshold on some
    resource.  Underload: the group has at least two online VMs, and on
    some resource the mean utilization is at or below cold while the
    max stays at or below warm.  Overload wins when both fire.
    """
    th = g.thresholds
    overload = False
    underload = False
    for r in th.resources:
        utils = [_sample(vm, r) for vm in g.online]
        if max(utils) >= th.hot[r]:
            overload = True
        if (len(g.online) >= 2
                and sum(utils) / len(utils) <= th.cold[r]
                and max(utils) <= th.warm[r]):
            underload = True
    if overload:
        return OVERLOAD
    if underload:
        return UNDERLOAD
    return NORMAL


def required_instances(g, traffic):
    """Number of instances v* needed to serve the given traffic rate.

    Per resource the demand is traffic * omega_r capacity units; v* is
    the max over resources of the ceiling of demand / `g.vm_capacity`,
    never less than one.
    """
    if traffic < 0:
        raise ValueError("traffic rate must be nonnegative")
    need = 1
    for r, w in g.omega.items():
        u = g.vm_capacity(r)
        if u <= 0:
            raise ValueError("zero capacity for resource %r" % r)
        need = max(need, math.ceil(traffic * w / u))
    return need
