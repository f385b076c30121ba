import dataclasses
import os
import pickle
import re
import subprocess
import sys

import pytest

from vnfscale import topology as tp

from oracle import reference_fat_tree, reference_shortest_path_tree


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
            assert v in tp.neighbors(t, w)


def pod_of(t, i):
    """Pod number of i, or -1 for a core switch: pod p holds ToR and
    aggregation switches p*k/2 to p*k/2 + k/2 - 1 and the PMs under its
    ToRs."""
    if i.kind == tp.CORE:
        return -1
    per_pod = t.k // 2 * (t.pms_per_rack if i.kind == tp.PM else 1)
    return i.index // per_pod


def test_pod_assignment():
    t = tp.build_fat_tree(4, pms_per_rack=2)
    assert pod_of(t, tp.NodeId(tp.PM, 0)) == 0
    assert pod_of(t, tp.NodeId(tp.PM, 4)) == 1
    assert pod_of(t, tp.NodeId(tp.TOR, 2)) == 1
    assert pod_of(t, tp.NodeId(tp.CORE, 0)) == -1
    # the listing's pod column
    for v, line in zip(t.nodes, tp.topology_listing(t).splitlines()):
        assert int(line.split()[2]) == pod_of(t, v), line


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
    # the canonical order: PMs first, then up the tree, each by index
    assert sorted(nodes, key=tp.build_fat_tree(4).node_position) == [
        tp.NodeId(tp.PM, 0), tp.NodeId(tp.PM, 2), tp.NodeId(tp.TOR, 1),
        tp.NodeId(tp.CORE, 0)]
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


# -- one immutable, indexed tree per set of arguments ------------------------

def test_each_tree_is_built_once():
    t = tp.build_fat_tree(8)
    assert tp.build_fat_tree(8) is t
    # the arguments are compared after normalising: a list of ints names the
    # default costs
    listed = tp.build_fat_tree(4, layer_costs=[10, 20, 40])
    assert listed is tp.build_fat_tree(4) is tp.build_fat_tree(4, 2, (10.0, 20.0, 40.0))
    assert listed.layer_costs == (10.0, 20.0, 40.0)
    assert all(type(c) is float for c in listed.layer_costs)
    others = [tp.build_fat_tree(6), tp.build_fat_tree(8, pms_per_rack=3),
              tp.build_fat_tree(8, layer_costs=(10.0, 20.0, 0.0))]
    assert len({id(o) for o in others + [t]}) == 4
    assert [(o.k, o.pms_per_rack, o.layer_costs) for o in others] == [
        (6, 2, (10.0, 20.0, 40.0)), (8, 3, (10.0, 20.0, 40.0)),
        (8, 2, (10.0, 20.0, 0.0))]
    assert tp.forwarding_cost(others[2], tp.NodeId(tp.AGG, 0), tp.NodeId(tp.CORE, 0)) == 0.0
    assert tp.forwarding_cost(t, tp.NodeId(tp.AGG, 0), tp.NodeId(tp.CORE, 0)) == 40.0


def test_a_tree_cannot_be_changed():
    t = tp.build_fat_tree(4)
    for name in ("k", "pms_per_rack", "layer_costs", "nodes", "pms", "switches"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(t, name, None)
    for seq in (t.nodes, t.pms, t.switches, t.layer_costs):
        with pytest.raises(TypeError):
            seq[0] = seq[-1]
        assert not hasattr(seq, "append") and not hasattr(seq, "sort")
    assert t.pms == tuple(v for v in t.nodes if v.kind == tp.PM)
    assert t.switches == tuple(v for v in t.nodes if v.kind != tp.PM)


def test_node_positions_index_the_node_order():
    for t in (tp.build_fat_tree(2, pms_per_rack=3), tp.build_fat_tree(4),
              tp.build_fat_tree(4, layer_costs=(0.0, 5.0, 0.0))):
        for i, v in enumerate(t.nodes):
            assert v in t and t.node_position(v) == i
        assert tp.NodeId(tp.PM, len(t.pms)) not in t


@pytest.mark.parametrize("pms_per_rack", [1, 2, 3])
@pytest.mark.parametrize("k", [2, 4, 6])
def test_values_past_each_kind_are_not_nodes(k, pms_per_rack):
    t = tp.build_fat_tree(k, pms_per_rack=pms_per_rack)
    past = [tp.NodeId(tp.PM, k * k // 2 * pms_per_rack), tp.NodeId(tp.TOR, k * k // 2),
            tp.NodeId(tp.AGG, k * k // 2), tp.NodeId(tp.CORE, (k // 2) ** 2)]
    for v in past:
        last = tp.NodeId(v.kind, v.index - 1)
        assert last in t and t.nodes[t.node_position(last)] == last
    for v in past + ["PM3", (tp.PM, 3)]:
        assert v not in t
        message = "^%s$" % re.escape(repr("node %s not in topology" % (v,)))
        for call in (t.node_position, lambda v: tp.neighbors(t, v)):
            with pytest.raises(KeyError, match=message):
                call(v)


COSTS = [(10.0, 20.0, 40.0), (0.0, 5.0, 0.0), (0.1, 0.2, 0.3)]


@pytest.mark.parametrize("layer_costs", COSTS, ids=[repr(c) for c in COSTS])
@pytest.mark.parametrize("pms_per_rack", [1, 2, 3])
@pytest.mark.parametrize("k", [2, 4, 6, 8, 12])
def test_closed_form_matches_the_wired_reference(k, pms_per_rack, layer_costs):
    # the tree stores no links: neighbours, link costs and pods follow
    # from the node indices and must equal the materialized wiring
    t = tp.build_fat_tree(k, pms_per_rack, layer_costs)
    ref = reference_fat_tree(k, pms_per_rack, layer_costs)
    assert t.nodes == ref.nodes
    assert [t.node_position(v) for v in ref.nodes] == [ref.order[v] for v in ref.nodes]
    assert [tp.neighbors(t, v) for v in ref.nodes] == [ref.adj[v] for v in ref.nodes]
    # every link in both directions and every PM's self-pair
    assert len(ref.cost) == sum(map(len, ref.adj.values())) + len(t.pms)
    for (i, j), cost in ref.cost.items():
        assert tp.forwarding_cost(t, i, j) == cost
    listing = "".join("%s %d %d %s\n" % (v.kind, v.index, ref.pod[v],
                                          ",".join(str(u) for u in ref.adj[v]))
                      for v in ref.nodes)
    assert tp.topology_listing(t) == listing



@pytest.mark.parametrize("pms_per_rack", [1, 2, 3])
@pytest.mark.parametrize("k", [2, 4, 8])
def test_routes_are_made_of_the_trees_own_nodes(k, pms_per_rack):
    # routes keyed into flow dicts: each node is the tree's own NodeId,
    # whichever equal copies q and the sources are given as
    t = tp.build_fat_tree(k, pms_per_rack)
    pms = t.pms
    for sources in ([pms[0]], [pms[-1]], [pms[len(pms) // 2], pms[1]],
                    pms[::pms_per_rack + 1]):
        copies = [tp.NodeId(tp.PM, s.index) for s in sources]
        ref = reference_shortest_path_tree(t, sources)
        for q in pms:
            route = tp.source_route(t, copies, tp.NodeId(tp.PM, q.index))
            assert route == ref.hops(q)
            for v in (v for link in route for v in link):
                assert v is t.nodes[t.node_position(v)]

BAD_BUILDS = [
    ((3,), ValueError, "positive even integer, got 3$"),
    ((0,), ValueError, "positive even integer, got 0$"),
    ((-2,), ValueError, "positive even integer, got -2$"),
    (("4",), ValueError, "positive even integer, got '4'$"),
    ((4.0,), ValueError, "positive even integer, got 4.0$"),
    ((4, 0), ValueError, "^pms_per_rack must be >= 1$"),
    ((4, 2.0), TypeError, "'float' object cannot be interpreted as an integer"),
    ((4, 2, (10, 20)), ValueError, "^layer_costs must be three nonnegative numbers$"),
    ((4, 2, [10, -1, 40]), ValueError, "^layer_costs must be three nonnegative numbers$"),
    ((4, 2, (float("nan"), 1, 1)), ValueError, "^layer_costs must be three nonnegative numbers$"),
    ((4, 2, (1, float("inf"), 1)), ValueError, "^layer_costs must be three nonnegative numbers$"),
]


@pytest.mark.parametrize("args,error,match", BAD_BUILDS,
                         ids=[repr(args) for args, _, _ in BAD_BUILDS])
def test_bad_builds_fail_as_before_after_a_cached_build(args, error, match):
    tp.build_fat_tree(4)
    tp.build_fat_tree(4, 2, (10, 20, 40))
    for _ in range(2):
        with pytest.raises(error, match=match):
            tp.build_fat_tree(*args)


def test_lookup_errors_are_unchanged_after_a_cached_build():
    tp.build_fat_tree(4)
    t = tp.build_fat_tree(4)
    pm0, tor0, agg0 = tp.NodeId(tp.PM, 0), tp.NodeId(tp.TOR, 0), tp.NodeId(tp.AGG, 0)
    gone = tp.NodeId(tp.PM, 16)
    for call in (lambda: tp.forwarding_cost(t, gone, tor0),
                 lambda: tp.forwarding_cost(t, pm0, gone),
                 lambda: tp.forwarding_cost(t, gone, gone),
                 lambda: t.node_position(gone),
                 lambda: tp.neighbors(t, gone)):
        with pytest.raises(KeyError, match="^'node PM16 not in topology'$"):
            call()
    with pytest.raises(ValueError, match="^nodes PM0 and PM1 are not linked$"):
        tp.forwarding_cost(t, pm0, tp.NodeId(tp.PM, 1))
    with pytest.raises(ValueError, match="^nodes PM0 and Aggregation0 are not linked$"):
        tp.forwarding_cost(t, pm0, agg0)
    with pytest.raises(ValueError, match="^self-transfer only defined on PMs, got ToR0$"):
        tp.forwarding_cost(t, tor0, tp.NodeId(tp.TOR, 0))
    assert tp.forwarding_cost(t, pm0, tp.NodeId(tp.PM, 0)) == 0.0


@pytest.mark.parametrize("old,new", [
    ("egress = P4", "egress = P17"),
    ("candidates = P1-P16", "candidates = P1-P17"),
    ("vm2  P5  100", "vm2  P17  100"),
])
def test_scenario_naming_a_pm_past_the_tree_is_exit_two(tmp_path, capsys, old, new):
    from vnfscale.cli import main as cli_main
    shipped = os.path.join(os.path.dirname(__file__), "..", "scenarios", "scale_out_v4.scn")
    with open(shipped) as fh:
        body = fh.read()
    assert old in body
    path = tmp_path / "case.scn"
    path.write_text(body.replace(old, new))
    tp.build_fat_tree(4)    # the file's tree is already built
    assert cli_main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert "P17 is not in the topology" in err and "Traceback" not in err
