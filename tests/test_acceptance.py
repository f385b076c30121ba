"""Acceptance gates for the whole package, one test per criterion.

Each test prints a single PASS/FAIL line with the measured numbers so the
suite doubles as a report (`pytest tests/test_acceptance.py -v -s`).  The
tolerances are the contract; nothing here relaxes what the unit tests
already pin down, it re-checks the headline claims end to end.
"""

import numpy as np
import pytest

import vnfscale as vs
from vnfscale import chain_state as cs
from vnfscale import lp, milp, rpadmm, scaling

from corpus import (U, admm_fixture, capacity, flow_violations, k2_instance, pm,
                    problem, scenario1, scenario3, scenario4, solve_decoded, tree4)
from oracle import enumerate_single_host, scaled_model


def report(num, ok, detail):
    line = "criterion %d: %s  (%s)" % (num, "PASS" if ok else "FAIL", detail)
    print(line)
    assert ok, line


def test_criterion_1_topology_counts():
    expect = {2: (5, 4), 4: (20, 16), 8: (80, 64), 16: (320, 256)}
    got = {}
    for k, (sw, pms) in expect.items():
        t = vs.build_fat_tree(k, pms_per_rack=2)
        got[k] = (len(t.switches), len(t.pms))
    ok = got == expect
    report(1, ok, "switch/PM counts %s" % got)


def test_criterion_2_state_machine():
    over = scenario1()                      # hosts at 95%: hot VM present
    under = scenario1([0.25, 0.20])         # mean 22.5% under cold, none warm
    checks = [
        cs.classify_group(over) == cs.OVERLOAD,
        cs.classify_group(under) == cs.UNDERLOAD,
    ]
    # a lone VM has nothing to merge into, so low utilization stays Normal
    for u in (0.01, 0.10, 0.29, 0.50, 0.79):
        g = vs.VnfGroup(chain="c", vnf_type="fw",
                        online=[vs.VmInstance("vm1", "fw", "c", {"cpu": U},
                                              host=pm(2),
                                              utilization={"cpu": u})],
                        offline_pool=[],
                        thresholds=vs.Thresholds.uniform(("cpu",)),
                        gamma=1.0, phi=1.0, omega={"cpu": 1.0},
                        ingress_pms=[pm(1)], egress_pms=[pm(4)],
                        candidate_pms=[pm(3)])
        checks.append(cs.classify_group(g) != cs.UNDERLOAD)
    ok = all(checks)
    report(2, ok, "overload/underload classified, single-VM never underload")


def test_criterion_3_milp_oracle_equivalence():
    worst = 0.0
    n = 0
    for seed in range(20):
        p = k2_instance(seed)
        mp = milp.build_milp(p)
        assert len(mp.binaries) <= 12
        expect, _ = enumerate_single_host(mp)
        got = milp.solve_milp(mp)
        assert got.status == "optimal" and expect is not None
        rel = abs(got.total - expect) / max(1.0, abs(expect))
        worst = max(worst, rel)
        n += 1
    ok = n >= 20 and worst <= 1e-6
    report(3, ok, "%d instances, worst relative gap %.2e" % (n, worst))


def test_criterion_4_penalty_sign_behavior():
    bad = []
    for seed in range(0, 20, 2):            # overload half of the corpus
        p = k2_instance(seed, vs.OVERLOAD)
        mp = milp.build_milp(p)
        _, assign = enumerate_single_host(mp)
        sol = milp.solve_milp(mp)
        for vm in p.group.online:
            if sol.placement[vm.id] is None or assign[vm.id] is None:
                bad.append(("overload", seed, vm.id))
    for seed in range(1, 21, 2):            # underload half
        p = k2_instance(seed, vs.UNDERLOAD)
        mp = milp.build_milp(p)
        _, assign = enumerate_single_host(mp)
        sol = milp.solve_milp(mp)
        # v* <= online count here, so activation is never forced
        for vm in p.group.offline_pool:
            if sol.placement[vm.id] is not None or assign[vm.id] is not None:
                bad.append(("underload", seed, vm.id))
    ok = not bad
    report(4, ok, "20 instances vs oracle, deviations: %s" % (bad or "none"))


def test_criterion_5_structural_decisions():
    topo = tree4()
    rows = []

    def run(g, traffic, v_star, mode, baseline):
        """The decision and its cost relative to the baseline's."""
        p = problem(topo, g, traffic, v_star, mode, baseline=baseline)
        _, d = solve_decoded(p)
        return d, (d.forwarding_cost - p.baseline_cost) / p.baseline_cost

    d, delta = run(scenario1(), 300.0, 3, vs.OVERLOAD, 200.0)
    rows.append(("s1 v3", set(d.launched.values()) == {pm(4)}, delta > 0))
    d, delta = run(scenario1(), 400.0, 4, vs.OVERLOAD, 200.0)
    rows.append(("s1 v4", set(d.launched.values()) == {pm(1), pm(4)}, delta > 0))
    d, delta = run(scenario3(), 400.0, 4, vs.OVERLOAD, 200.0)
    rows.append(("s3 v4", set(d.launched.values()) == {pm(3), pm(4)}, delta > 0))
    d, delta = run(scenario1([0.25, 0.20]), 100.0, 1, vs.UNDERLOAD, 200.0)
    rows.append(("s1 under", set(d.terminated.values()) == {pm(5)}, delta < 0))
    d, delta = run(scenario3([0.25, 0.20]), 100.0, 1, vs.UNDERLOAD, 200.0)
    rows.append(("s3 under", set(d.kept.values()) == {pm(1)}, delta < 0))
    ok = all(hosts and sign for _, hosts, sign in rows)
    report(5, ok, "; ".join("%s %s" % (name, "ok" if h and s else "WRONG")
                            for name, h, s in rows))


def corpus_overloads():
    topo = tree4()
    yield "s1 v3", problem(topo, scenario1(), 300.0, 3, vs.OVERLOAD)
    yield "s1 v4", problem(topo, scenario1(), 400.0, 4, vs.OVERLOAD)
    yield "s3 v4", problem(topo, scenario3(), 400.0, 4, vs.OVERLOAD)
    yield "s4 v4", problem(topo, scenario4(), 400.0, 4, vs.OVERLOAD)
    yield "admm", admm_fixture()
    for seed in (0, 2, 4, 6, 8):
        yield "k2 seed %d" % seed, k2_instance(seed, vs.OVERLOAD)


def test_criterion_6_exact_lift():
    worst = 0.0
    for name, p in corpus_overloads():
        central = lp.solve(vs.build_overload_lp(p))
        assert central.status == lp.OPTIMAL, name
        system = rpadmm.reformulate(p)
        lifted = lp.solve(scaled_model(system))
        assert lifted.status == lp.OPTIMAL, name
        rel = (abs(lifted.objective_value - central.objective_value)
               / max(1.0, abs(central.objective_value)))
        worst = max(worst, rel)
    ok = worst <= 1e-6
    report(6, ok, "worst relative optimum gap across corpus %.2e" % worst)


def admm_runs():
    """The ten seeded solver runs shared by criteria 7 and 8."""
    p = admm_fixture()
    central = lp.solve(vs.build_overload_lp(p))
    assert central.status == lp.OPTIMAL
    opt = central.objective_value
    system = rpadmm.reformulate(p)
    traces = []
    for seed in range(10):
        cfg = rpadmm.AdmmConfig(beta=5.0, max_iters=25, seed=seed,
                                primal_tol=0.0)
        _, trace = rpadmm.run(system, cfg)
        traces.append(trace)
    return opt, traces


@pytest.fixture(scope="module")
def seeded_traces():
    return admm_runs()


def test_criterion_7_distributed_convergence(seeded_traces):
    opt, traces = seeded_traces
    gaps = []
    for trace in traces:
        best = min(abs(o - opt) / abs(opt) for o in trace.objectives)
        gaps.append(best)
    hits = sum(g <= 0.01 for g in gaps)
    ok = hits >= 9
    report(7, ok, "%d/10 seeds reach <=1%% gap within 25 iters; "
           "per-seed best gaps %% = %s"
           % (hits, " ".join("%.2f" % (100 * g) for g in gaps)))


def test_criterion_8_violation_decay(seeded_traces):
    _, traces = seeded_traces
    ok = True
    worst_end = 0.0
    for trace in traces:
        first = max(trace.records[0].violations.values())
        last = max(trace.records[-1].violations.values())
        worst_end = max(worst_end, last)
        if last > 0.05 or last >= first:
            ok = False
    report(8, ok, "10 seeds, worst iteration-25 max violation %.4f, "
           "all below their iteration-1 max" % worst_end)


def test_criterion_9_property_suites():
    parts = []

    # scalar block update against a dense grid of the same 1-d objective
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        a = rng.normal(size=int(rng.integers(1, 5)))
        a[np.abs(a) < 1e-2] += 0.5
        r = rng.normal(size=a.size)
        c = float(rng.normal())
        beta = float(rng.uniform(0.5, 10.0))
        lo = float(rng.uniform(-3.0, 0.0))
        hi = lo + float(rng.uniform(0.5, 4.0))
        x = rpadmm.scalar_block_update(c, list(zip(a, r)), lo, hi, beta)
        xs = np.append(np.arange(lo, hi, 1e-4), hi)
        f = c * xs + 0.5 * beta * ((xs[:, None] * a + r) ** 2).sum(axis=1)
        fx = c * x + 0.5 * beta * ((x * a + r) ** 2).sum()
        worst = max(worst, fx - f.min())
    parts.append(("grid oracle", worst <= 1e-3,
                  "worst excess %.2e" % worst))

    # every central decision's routed flows: switch conservation, PM
    # processing and the endpoint totals
    bad = 0
    sum_err = 0.0
    for name, p in corpus_overloads():
        sol, decision = solve_decoded(p)
        flows_n, flows_m = scaling.route_flows(p, decision.split)
        assert flows_n and flows_m, name
        bad += len(flow_violations(p, decision, tol=1e-6))
        sum_err = max(sum_err, abs(sum(decision.shares.values()) - 1.0))
    parts.append(("conservation", bad == 0, "%d balances over 1e-6" % bad))
    parts.append(("share sum", sum_err <= 1e-8, "worst %.2e" % sum_err))

    # link costs read the same in both directions
    topo = tree4()
    sym = all(vs.forwarding_cost(topo, i, j) == vs.forwarding_cost(topo, j, i)
              for i in topo.nodes for j in vs.neighbors(topo, i))
    parts.append(("cost symmetry", sym, "all %d nodes" % len(topo.nodes)))

    # same seed, same trace, byte for byte
    system = rpadmm.reformulate(admm_fixture())
    cfg = rpadmm.AdmmConfig(beta=5.0, max_iters=10, seed=3)
    _, t1 = rpadmm.run(system, cfg)
    _, t2 = rpadmm.run(system, cfg)
    parts.append(("determinism", t1.csv() == t2.csv(), "traces identical"))

    ok = all(p[1] for p in parts)
    report(9, ok, "; ".join("%s %s (%s)" % (n, "ok" if good else "WRONG", d)
                            for n, good, d in parts))
