"""The block builders against the builders as first assembled.

`scaling._build_relaxation` and `milp.build_milp` append each variable
group and row family as one block, reading the capacity facts by PM
index; `oracle.reference_central_model` and `oracle.reference_build_milp`
add them one at a time from the group.  Every field of the built models
and every map must be byte-identical: compared by `repr`, which tells
0.0 from -0.0 and 1 from 1.0 and keeps dict order.
"""

import math
import os

import pytest
from hypothesis import given, settings, strategies as st

import vnfscale as vs
from vnfscale import milp, scaling, scenario
from vnfscale.chain_state import classify_group

from corpus import (admm_fixture, capacity, k2_instance, pm, problem,
                    scenario1, scenario3, scenario4, tree4, underload_shape)
from oracle import reference_build_milp, reference_central_model

SCEN_DIR = os.path.join(os.path.dirname(__file__), "..", "scenarios")

MODEL_FIELDS = ("name", "lower", "upper", "_names", "_indptr", "_indices",
                "_data", "_rel", "_rhs", "_labels")


def model_fields(model):
    return {f: repr(getattr(model, f)) for f in MODEL_FIELDS} | {
        "objective": repr(list(model.objective.items()))}


def central_fields(p):
    """Every field of the central model and its layout, or the error its
    building raised."""
    try:
        model = scaling._build_relaxation(p)
    except scaling.ModelInfeasibleError as err:
        return repr(err)
    lay = model.layout
    return model_fields(model) | {
        "slots": repr(lay.slots), "rel_pms": repr(lay.rel_pms),
        "alpha_idx": repr(list(lay.alpha_idx.items())),
        "e_idx": repr(list(lay.e_idx.items())),
        "slack_idx": repr(list(lay.slack_idx.items()))}


def reference_central_fields(p):
    try:
        model = reference_central_model(p)
    except scaling.ModelInfeasibleError as err:
        return repr(err)
    lay = model.layout
    return model_fields(model) | {
        "slots": repr(lay.slots), "rel_pms": repr(lay.rel_pms),
        "alpha_idx": repr(list(lay.alpha_idx.items())),
        "e_idx": repr(list(lay.e_idx.items())),
        "slack_idx": repr(list(lay.slack_idx.items()))}


def milp_fields(mp):
    return model_fields(mp.base) | {
        "binaries": repr(mp.binaries),
        "b_idx": repr(list(mp.b_idx.items())),
        "alpha_idx": repr(list(mp.alpha_idx.items()))}


def assert_identical(p):
    """Build p's central model and joint MILP both ways on fresh copies of
    the problem, so no capacity fact read by one build serves the other."""
    fresh = lambda: scaling.ScalingProblem(**{  # noqa: E731
        f: getattr(p, f) for f in p.__dataclass_fields__})
    a, b = fresh(), fresh()
    assert central_fields(a) == reference_central_fields(b)
    assert milp_fields(milp.build_milp(fresh())) == \
        milp_fields(reference_build_milp(fresh()))


def corpus_problems():
    topo = tree4()
    out = {"admm_fixture": admm_fixture()}
    for seed in range(12):
        out["k2_%d" % seed] = k2_instance(seed)
    for seed, (n_online, v_star) in enumerate(((3, 2), (3, 1), (2, 1), (4, 2))):
        out["underload_shape_%d" % seed] = underload_shape(4, n_online, v_star, seed)
    for name, g, traffic, v_star in (
            ("scenario1", scenario1(), 300.0, 3),
            ("scenario3", scenario3(), 300.0, 3),
            ("scenario4", scenario4(), 400.0, 4),
            ("scenario4_more", scenario4(), 600.0, 6)):
        out[name] = problem(topo, g, traffic, v_star, vs.OVERLOAD, baseline=200.0)
    low = scenario4(utils=[0.1, 0.1, 0.1])
    out["scenario4_under"] = problem(topo, low, 100.0, 1, vs.UNDERLOAD, 150.0)
    out["scenario1_no_capacity"] = vs.ScalingProblem(
        topology=topo, group=scenario1(), traffic=300.0, v_star=3,
        mode=vs.OVERLOAD, pm_capacity=None)
    crowded = scenario1()
    crowded.online[1].host = pm(2)      # two VMs on one host
    out["colocated"] = vs.ScalingProblem(
        topology=topo, group=crowded, traffic=150.0, v_star=2,
        mode=vs.OVERLOAD, pm_capacity=capacity(topo, 250.0))
    for fname in sorted(os.listdir(SCEN_DIR)):
        sc = scenario.load_scenario(os.path.join(SCEN_DIR, fname))
        state = classify_group(sc.group)
        if state != vs.NORMAL:
            out[fname] = scenario._problem_for(sc, state)
    return out


CORPUS = corpus_problems()


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_block_builders_match_the_reference_on_the_corpus(name):
    assert_identical(CORPUS[name])


@st.composite
def problems(draw):
    """Overload and underload groups on k = 2..8 trees: one or two
    resources (the second maybe weightless or uncapped), per-PM tables
    that may leave a PM short of a VM, hosts that may share a PM, and no
    capacity table at all."""
    k = draw(st.sampled_from((2, 4, 6, 8)))
    topo = vs.build_fat_tree(k, pms_per_rack=draw(st.integers(1, 2)))
    pms = topo.pms
    pick = st.integers(0, len(pms) - 1)
    resources = draw(st.sampled_from((("cpu",), ("cpu", "mem"))))
    omega = {r: draw(st.sampled_from((0.0, 0.5, 1.0, 2.0)) if r == "mem"
                     else st.sampled_from((0.5, 1.0, 2.0))) for r in resources}
    n_online = draw(st.integers(1, 4))
    vm_cap = lambda: {r: draw(st.sampled_from((60.0, 100.0, 150.0)))  # noqa: E731
                      for r in resources}
    thr = vs.Thresholds.uniform(resources)
    online = [vs.VmInstance("vm%d" % (i + 1), "fw", "c", vm_cap(),
                            host=pms[draw(pick)],
                            utilization={r: 0.5 for r in resources})
              for i in range(n_online)]
    pool = [vs.VmInstance("off%d" % (i + 1), "fw", "c", vm_cap())
            for i in range(draw(st.integers(0, 6)))]
    candidates = sorted(draw(st.sets(pick, max_size=len(pms))))
    g = vs.VnfGroup(chain="c", vnf_type="fw", online=online, offline_pool=pool,
                    thresholds=thr, gamma=draw(st.sampled_from((0.8, 1.0, 1.25))),
                    phi=draw(st.sampled_from((0.5, 1.0))), omega=omega,
                    ingress_pms=[pms[draw(pick)]], egress_pms=[pms[draw(pick)]],
                    candidate_pms=[pms[i] for i in candidates])
    table = draw(st.sampled_from(("none", "cpu", "all")))
    pm_capacity = None if table == "none" else {
        r: {q: draw(st.sampled_from((0.0, 99.99999999999, 300.0, 600.0)))
            for q in pms}
        for r in (resources if table == "all" else ("cpu",))}
    mode = draw(st.sampled_from((vs.OVERLOAD, vs.UNDERLOAD)))
    traffic = draw(st.sampled_from((0.0, 90.0, 250.0)))
    # enough instances for the traffic and for phi
    need = max(vs.required_instances(g, traffic), math.ceil(1.0 / g.phi))
    v_star = max(need, n_online) if mode == vs.OVERLOAD else min(need, n_online)
    return vs.ScalingProblem(
        topology=topo, group=g, traffic=traffic, v_star=v_star, mode=mode,
        pm_capacity=pm_capacity, baseline_traffic=80.0)


@settings(max_examples=150, deadline=None)
@given(problems())
def test_block_builders_match_the_reference_on_drawn_problems(p):
    assert_identical(p)
