import pytest

from vnfscale import chain_state as cs
from vnfscale.topology import PM, NodeId


def make_group(utils, thresholds=None, n_offline=2):
    """A one-resource group with one online VM per utilization value."""
    thr = thresholds or cs.Thresholds.uniform(("cpu",))
    online = [cs.VmInstance("vm%d" % i, "fw", "c", {"cpu": 1.0},
                            host=NodeId(PM, i), utilization={"cpu": u})
              for i, u in enumerate(utils)]
    pool = [cs.VmInstance("off%d" % i, "fw", "c", {"cpu": 1.0})
            for i in range(n_offline)]
    return cs.VnfGroup(chain="c", vnf_type="fw", online=online,
                       offline_pool=pool, thresholds=thr,
                       gamma=1.0, phi=1.0, omega={"cpu": 1.0},
                       ingress_pms=[NodeId(PM, 0)], egress_pms=[NodeId(PM, 1)],
                       candidate_pms=[NodeId(PM, 2)])


def test_worked_overload_example():
    # one VM at 95% while the other sits at 75%: a single hot VM is enough
    g = make_group([0.95, 0.75])
    assert cs.classify_group(g) == cs.OVERLOAD


def test_worked_underload_example():
    # 40%/15%: mean 27.5% is under cold and neither VM exceeds warm
    g = make_group([0.40, 0.15])
    assert cs.classify_group(g) == cs.UNDERLOAD


def test_single_vm_never_underload():
    g = make_group([0.05])
    assert cs.classify_group(g) == cs.NORMAL
    g = make_group([0.95])
    assert cs.classify_group(g) == cs.OVERLOAD


def test_normal_band():
    g = make_group([0.5, 0.6])
    assert cs.classify_group(g) == cs.NORMAL


def test_overload_precedence():
    # mean under cold but one VM hot: overload wins
    g = make_group([0.95, 0.15, 0.15, 0.15, 0.15, 0.15])
    assert cs.classify_group(g) == cs.OVERLOAD


def test_warm_bound_blocks_underload():
    # mean under cold but one VM above warm
    g = make_group([0.85, 0.01, 0.01])
    assert cs.classify_group(g) == cs.NORMAL


def test_thresholds_validated():
    with pytest.raises(ValueError):
        cs.Thresholds.uniform(("cpu",), hot=0.5, warm=0.8, cold=0.3)
    with pytest.raises(ValueError):
        cs.Thresholds.uniform(("cpu",), cold=0.0)
    with pytest.raises(ValueError):
        cs.Thresholds.uniform(("cpu",), hot=1.5)


def test_classify_requires_utilization():
    g = make_group([0.5, 0.5])
    g.online[0].utilization = None
    with pytest.raises(cs.ClassificationError):
        cs.classify_group(g)


def test_multi_resource_any_hot_triggers():
    thr = cs.Thresholds.uniform(("cpu", "mem"))
    g = make_group([0.5], thresholds=thr)
    g.online[0].utilization = {"cpu": 0.5, "mem": 0.92}
    assert cs.classify_group(g) == cs.OVERLOAD


def test_multi_resource_underload_needs_one_low_mean():
    thr = cs.Thresholds.uniform(("cpu", "mem"))
    g = make_group([0.0, 0.0], thresholds=thr)
    g.online[0].utilization = {"cpu": 0.25, "mem": 0.6}
    g.online[1].utilization = {"cpu": 0.25, "mem": 0.6}
    # cpu mean 25% < cold and no VM above warm on any resource
    assert cs.classify_group(g) == cs.UNDERLOAD


def test_required_instances_ceiling():
    g = make_group([0.95, 0.95])
    # capacity 1.0, omega 1.0: one instance per unit of traffic
    assert cs.required_instances(g, 0.5) == 1
    assert cs.required_instances(g, 1.0) == 1
    assert cs.required_instances(g, 1.01) == 2
    assert cs.required_instances(g, 4.0) == 4


def test_required_instances_max_over_resources():
    thr = cs.Thresholds.uniform(("cpu", "mem"))
    g = make_group([0.95], thresholds=thr)
    for vm in list(g.online) + list(g.offline_pool):
        vm.capacity = {"cpu": 1.0, "mem": 0.5}
    g.omega = {"cpu": 1.0, "mem": 1.0}
    # mem is the scarce resource: ceil(2.0 * 1.0 / 0.5) = 4
    assert cs.required_instances(g, 2.0) == 4


def test_required_instances_bad_inputs():
    g = make_group([0.5])
    assert cs.required_instances(g, 0.0) == 1   # floor: an idle chain keeps one
    with pytest.raises(ValueError):
        cs.required_instances(g, -1.0)
    for vm in list(g.online) + list(g.offline_pool):
        vm.capacity = {"cpu": 0.0}
    with pytest.raises(ValueError):
        cs.required_instances(g, 1.0)


def test_group_validation():
    with pytest.raises(ValueError):
        make_group([])
    g = make_group([0.5])
    with pytest.raises(ValueError):
        cs.VnfGroup(chain="c", vnf_type="fw", online=list(g.online),
                    offline_pool=[], thresholds=g.thresholds, gamma=0.0,
                    phi=1.0, omega={"cpu": 1.0}, ingress_pms=g.ingress_pms,
                    egress_pms=g.egress_pms, candidate_pms=[])
    with pytest.raises(ValueError):
        cs.VnfGroup(chain="c", vnf_type="fw", online=list(g.online),
                    offline_pool=[], thresholds=g.thresholds, gamma=1.0,
                    phi=1.5, omega={"cpu": 1.0}, ingress_pms=g.ingress_pms,
                    egress_pms=g.egress_pms, candidate_pms=[])


def test_host_pms_first_seen_order():
    g = make_group([0.5, 0.5, 0.5])
    g.online[2].host = g.online[0].host
    assert g.host_pms == [NodeId(PM, 0), NodeId(PM, 1)]
