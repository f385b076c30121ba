import dataclasses
import math
import os
import pickle
import subprocess
import sys

import pytest

from vnfscale import topology as tp


def counts(k, pms_per_rack=2):
    t = tp.build_fat_tree(k, pms_per_rack=pms_per_rack)
    return len(t.switches), len(t.pms)


def test_published_size_table():
    # switch/PM columns for the two-PM-per-rack configuration
    assert counts(2) == (5, 4)
    assert counts(4) == (20, 16)
    assert counts(8) == (80, 64)
    assert counts(16) == (320, 256)


def test_counts_formula_other_racks():
    for k in (2, 4, 6, 8):
        for ppr in (1, 3):
            sw, pm = counts(k, ppr)
            assert sw == k * k + k * k // 4
            assert pm == k * (k // 2) * ppr


def test_odd_or_bad_k_rejected():
    with pytest.raises(ValueError):
        tp.build_fat_tree(3)
    with pytest.raises(ValueError):
        tp.build_fat_tree(0)
    with pytest.raises(ValueError):
        tp.build_fat_tree(-2)
    with pytest.raises(ValueError):
        tp.build_fat_tree(4, pms_per_rack=0)


def test_tor_wiring_k4():
    t = tp.build_fat_tree(4, pms_per_rack=2)
    tor0 = tp.NodeId(tp.TOR, 0)
    nbrs = tp.neighbors(t, tor0)
    # two PMs below, two aggregation switches above, nothing else
    kinds = [v.kind for v in nbrs]
    assert kinds.count(tp.PM) == 2 and kinds.count(tp.AGG) == 2
    assert tp.NodeId(tp.PM, 0) in nbrs and tp.NodeId(tp.PM, 1) in nbrs


def test_core_wiring_pattern():
    # aggregation switch a of every pod connects to cores
    # a*(k/2) .. a*(k/2)+k/2-1; checked for k=4
    t = tp.build_fat_tree(4)
    for pod in range(4):
        for a in range(2):
            agg = tp.NodeId(tp.AGG, pod * 2 + a)
            cores = [v for v in tp.neighbors(t, agg) if v.kind == tp.CORE]
            assert sorted(v.index for v in cores) == [a * 2, a * 2 + 1]


def test_every_link_is_symmetric():
    t = tp.build_fat_tree(4)
    for v in t.nodes:
        for w in tp.neighbors(t, v):
            assert t.linked(w, v)


def test_pod_assignment():
    t = tp.build_fat_tree(4, pms_per_rack=2)
    assert t.pod_of(tp.NodeId(tp.PM, 0)) == 0
    assert t.pod_of(tp.NodeId(tp.PM, 4)) == 1
    assert t.pod_of(tp.NodeId(tp.TOR, 2)) == 1
    assert t.pod_of(tp.NodeId(tp.CORE, 0)) == -1


def test_forwarding_cost_layers():
    t = tp.build_fat_tree(4)
    pm0, tor0 = tp.NodeId(tp.PM, 0), tp.NodeId(tp.TOR, 0)
    agg0, core0 = tp.NodeId(tp.AGG, 0), tp.NodeId(tp.CORE, 0)
    assert tp.forwarding_cost(t, pm0, tor0) == 10.0
    assert tp.forwarding_cost(t, tor0, pm0) == 10.0
    assert tp.forwarding_cost(t, tor0, agg0) == 20.0
    assert tp.forwarding_cost(t, agg0, core0) == 40.0
    # transfers inside one PM are free
    assert tp.forwarding_cost(t, pm0, pm0) == 0.0


def test_forwarding_cost_rejects_non_links():
    t = tp.build_fat_tree(4)
    with pytest.raises(ValueError):
        tp.forwarding_cost(t, tp.NodeId(tp.PM, 0), tp.NodeId(tp.PM, 1))
    with pytest.raises(ValueError):
        tp.forwarding_cost(t, tp.NodeId(tp.TOR, 0), tp.NodeId(tp.TOR, 0))
    with pytest.raises(ValueError):
        tp.forwarding_cost(t, tp.NodeId(tp.PM, 0), tp.NodeId(tp.CORE, 0))


def test_node_ordering_is_stable():
    t = tp.build_fat_tree(4, pms_per_rack=2)
    kinds = [v.kind for v in t.nodes]
    # PMs first, then ToR, aggregation, core, each block contiguous
    boundaries = [kinds.index(kind) for kind in (tp.PM, tp.TOR, tp.AGG, tp.CORE)]
    assert boundaries == sorted(boundaries)
    assert [t.node_position(v) for v in t.nodes] == list(range(len(t.nodes)))


def test_bandwidth_default_unlimited():
    t = tp.build_fat_tree(2)
    assert t.bandwidth == math.inf
    t2 = tp.build_fat_tree(2, uniform_bandwidth=1000.0)
    assert t2.bandwidth == 1000.0


def test_listing_mentions_every_node():
    t = tp.build_fat_tree(2)
    text = tp.topology_listing(t)
    for v in t.nodes:
        assert str(v) in text


# -- NodeId as a dict key ----------------------------------------------------

def test_node_id_equality_and_hash():
    a, b = tp.NodeId(tp.PM, 3), tp.NodeId(tp.PM, 3)
    assert a is not b and a == b and hash(a) == hash(b)
    assert not (a != b)
    assert a != tp.NodeId(tp.TOR, 3) and a != tp.NodeId(tp.PM, 4)
    # a NodeId equals only a NodeId, not the tuple it was made from
    assert a != (tp.PM, 3) and (tp.PM, 3) != a
    assert a != "PM3" and not (a == None)  # noqa: E711
    assert {a: 1}[b] == 1 and len({a, b, tp.NodeId(tp.TOR, 3)}) == 2


def test_node_id_hash_is_the_same_in_every_process():
    code = ("from vnfscale.topology import NodeId, CORE; "
            "print(hash(NodeId('PM', 5)), hash(NodeId(CORE, 2)))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    outs = {subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           env=dict(env, PYTHONHASHSEED=seed), check=True).stdout
            for seed in ("1", "2")}
    here = "%d %d\n" % (hash(tp.NodeId(tp.PM, 5)), hash(tp.NodeId(tp.CORE, 2)))
    assert outs == {here}


def test_node_id_formats_sorts_and_stays_frozen():
    v = tp.NodeId(tp.AGG, 7)
    assert "%s" % v == str(v) == "Aggregation7"
    assert "%s" % (v,) == "Aggregation7"
    assert repr(v) == "NodeId(kind='Aggregation', index=7)"
    nodes = [tp.NodeId(tp.CORE, 0), tp.NodeId(tp.PM, 2), tp.NodeId(tp.TOR, 1),
             tp.NodeId(tp.PM, 0)]
    assert [n.sort_key() for n in sorted(nodes, key=tp.NodeId.sort_key)] == [
        (0, 0), (0, 2), (1, 1), (3, 0)]
    with pytest.raises(dataclasses.FrozenInstanceError):
        v.index = 8
    with pytest.raises(dataclasses.FrozenInstanceError):
        v.kind = tp.PM
    with pytest.raises(ValueError):
        tp.NodeId("Spine", 0)
    with pytest.raises(ValueError):
        tp.NodeId(tp.PM, -1)
    w = pickle.loads(pickle.dumps(v))
    assert w == v and hash(w) == hash(v)
