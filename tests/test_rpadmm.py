import csv
import dataclasses
import hashlib
import io
import os
import subprocess
import sys

import numpy as np
import pytest

import vnfscale as vs
from vnfscale import lp, rpadmm

from corpus import pm, tree4, scenario1, scenario4, problem, k2_instance, \
    admm_fixture
from oracle import export, family_rows, record_sparse_builds, \
    reference_admm_run, reference_family_max, reference_message_footprint, \
    reference_normalize, scaled_model, system_csr, system_from_model


SCEN_DIR = os.path.join(os.path.dirname(__file__), "..", "scenarios")


@pytest.fixture(scope="module")
def topo():
    return tree4()


@pytest.fixture(scope="module")
def fixture_system():
    p = admm_fixture()
    return rpadmm.reformulate(p), lp.solve(vs.build_overload_lp(p)).objective_value


def central_optimum(p):
    build = vs.build_overload_lp if p.mode == vs.OVERLOAD else vs.build_underload_lp
    sol = lp.solve(build(p))
    assert sol.status == lp.OPTIMAL
    return sol


# -- the distributed form is the central model, scaled ---------------------

def lift_instances(topo):
    yield problem(topo, scenario1(), 400.0, 4, vs.OVERLOAD)
    yield problem(topo, scenario4(), 400.0, 4, vs.OVERLOAD)
    yield admm_fixture()
    for seed in (0, 2, 4):
        yield k2_instance(seed, mode=vs.OVERLOAD)
    yield problem(topo, scenario1([0.25, 0.20]), 100.0, 1, vs.UNDERLOAD)
    yield problem(topo, scenario4(), 400.0 / 3, 2, vs.UNDERLOAD)
    for seed in (1, 3, 5):
        yield k2_instance(seed, mode=vs.UNDERLOAD)


def test_reformulated_optimum_matches_central(topo):
    for p in lift_instances(topo):
        central = central_optimum(p).objective_value
        lifted = lp.solve(scaled_model(rpadmm.reformulate(p)))
        assert lifted.status == lp.OPTIMAL
        assert lifted.objective_value == pytest.approx(central, rel=1e-12)


def test_lifted_central_point_is_feasible(topo):
    for p in lift_instances(topo):
        system = rpadmm.reformulate(p)
        sol = central_optimum(p)
        x = sol.point * system.scale
        res = rpadmm._residuals(system, x)
        assert float(np.max(np.abs(res))) < 1e-9 * max(1.0, p.traffic)
        assert np.all(x >= system.lower)
        assert np.all(x <= system.upper)
        assert system.unscale(x) == pytest.approx(sol.point, rel=1e-15)
        assert float(system.c @ x) == pytest.approx(sol.objective_value, rel=1e-12)


def test_columns_in_traffic_units_and_rows_equilibrated(topo):
    p = problem(topo, scenario1(), 400.0, 4, vs.OVERLOAD)
    system = rpadmm.reformulate(p)
    for i, name in enumerate(system.central.var_names):
        want = 1.0 if "slack" in name else 400.0
        assert system.scale[i] == want, name
    peaks = np.maximum.reduceat(np.abs(system.data), system.indptr[:-1])
    assert peaks.tolist() == [1.0] * system.central.num_rows
    assert system.b[system.central._labels.index("coverage")] == 400.0
    assert system.central.name == "overload_lp"
    # the scaled rows keep the central layout: the central model's own
    # CSR lists, with their explicit zeros (an omega of 0 puts them in
    # the capacity rows), and the central cost and bounds rescaled
    g = scenario1()
    g.omega = {"cpu": 0.0}
    zeros = 0
    for q in (p, problem(topo, g, 400.0, 4, vs.OVERLOAD)):
        system = rpadmm.reformulate(q)
        central, want = system.central, export(system.central)
        assert system.indptr.tolist() == central._indptr
        assert system.indices.tolist() == central._indices
        assert np.array_equal(system.data == 0.0,
                              np.array(central._data) == 0.0)
        zeros += int(np.count_nonzero(system.data == 0.0))
        # and so does the model HiGHS solves for criterion 6
        rebuilt = export(scaled_model(system))
        assert rebuilt.a.nnz == want.a.nnz
        assert np.array_equal(rebuilt.a.data == 0.0, want.a.data == 0.0)
        assert np.array_equal(system.c, want.c / system.scale)
        for bound in ("lower", "upper"):
            assert np.array_equal(getattr(system, bound),
                                  np.asarray(getattr(system.central, bound))
                                  * system.scale), bound
    assert zeros > 0


def test_zero_traffic_keeps_unit_scale(topo):
    p = vs.ScalingProblem(topology=topo, group=scenario4(), traffic=0.0,
                          v_star=3, mode=vs.OVERLOAD, pm_capacity=None)
    system = rpadmm.reformulate(p)
    assert np.all(system.scale == 1.0)
    x, trace = rpadmm.run(system, rpadmm.AdmmConfig(max_iters=25))
    # the coverage row still needs the shares to sum to 1
    assert trace.records[0].violations["coverage"] > 0.0
    assert trace.objectives == [0.0] * len(trace.records)
    assert trace.converged
    assert sum(x[i] for i in system.central.layout.alpha_idx.values()) == \
        pytest.approx(1.0, abs=1e-3)


def test_underload_has_a_distributed_form(topo):
    p = problem(topo, scenario1([0.25, 0.20]), 100.0, 1, vs.UNDERLOAD)
    system = rpadmm.reformulate(p)
    assert "keep" in system.row_family
    owners = system.owners
    names = system.central.var_names
    assert owners[names.index("keep_slack[PM4]")] == pm(5)
    assert owners[names.index("e[PM1,d1]")] == pm(2)
    assert owners[names.index("alpha[PM1,d1]")] == pm(2)


def test_empty_candidate_set_rejected(topo):
    g = vs.VnfGroup(chain="c", vnf_type="fw",
                    online=scenario4().online, offline_pool=[],
                    thresholds=vs.Thresholds.uniform(("cpu",)), gamma=1.0,
                    phi=1.0, omega={"cpu": 1.0}, ingress_pms=[pm(1)],
                    egress_pms=[pm(2)], candidate_pms=[])
    p = vs.ScalingProblem(topology=topo, group=g, traffic=400.0, v_star=4,
                          mode=vs.OVERLOAD, pm_capacity=None)
    with pytest.raises(vs.ModelInfeasibleError):
        rpadmm.reformulate(p)


# -- the scalar building block ------------------------------------------------

def test_scalar_update_single_term():
    assert rpadmm.scalar_block_update(0.0, [(1.0, -4.0)], 0.0, np.inf, 5.0) == 4.0


def test_scalar_update_clamps_at_boundary():
    beta = 3.0
    assert rpadmm.scalar_block_update(beta, [(1.0, 0.0)], 0.0, np.inf, beta) == 0.0


def grid_best(c, terms, lo, hi, beta, step=1e-4):
    xs = np.append(np.arange(lo, hi, step), hi)
    f = c * xs
    for a, r in terms:
        f = f + 0.5 * beta * (a * xs + r) ** 2
    return xs[int(np.argmin(f))], float(np.min(f))


def test_scalar_update_matches_grid_search():
    terms = [(1.0, -3.0), (2.0, 1.0)]
    x = rpadmm.scalar_block_update(2.0, terms, 0.0, 10.0, 5.0)
    gx, _ = grid_best(2.0, terms, 0.0, 10.0, 5.0)
    assert abs(x - gx) <= 1e-3


def test_scalar_update_beats_every_grid_point():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        c = float(rng.uniform(-5, 5))
        terms = [(float(rng.uniform(-3, 3)), float(rng.uniform(-4, 4)))
                 for _ in range(int(rng.integers(0, 4)))]
        lo = float(rng.uniform(-2, 0))
        hi = lo + float(rng.uniform(0.5, 3))
        beta = float(rng.uniform(0.5, 10))
        x = rpadmm.scalar_block_update(c, terms, lo, hi, beta)
        assert lo <= x <= hi
        fx = c * x + 0.5 * beta * sum((a * x + r) ** 2 for a, r in terms)
        _, fg = grid_best(c, terms, lo, hi, beta)
        assert fx <= fg + 1e-9 * (1.0 + abs(fg))


def test_scalar_update_unbounded_raises():
    with pytest.raises(rpadmm.UnboundedUpdateError):
        rpadmm.scalar_block_update(1.0, [], -np.inf, np.inf, 5.0)
    with pytest.raises(rpadmm.UnboundedUpdateError):
        rpadmm.scalar_block_update(-1.0, [(0.0, 2.0)], 0.0, np.inf, 5.0)


def test_config_validation():
    with pytest.raises(ValueError):
        rpadmm.AdmmConfig(beta=0.0)
    with pytest.raises(ValueError):
        rpadmm.AdmmConfig(max_iters=0)
    with pytest.raises(ValueError):
        rpadmm.AdmmConfig(permutations=[])


# -- sweep semantics -----------------------------------------------------------

def toy_model():
    """min x1 + 2 x2 + 3 x3  s.t.  x1 + x2 = 1,  x1 - x3 = 0, boxed."""
    m = lp.LpModel("toy")
    x1 = m.add_var("x1", -10.0, 10.0)
    x2 = m.add_var("x2", -10.0, 10.0)
    x3 = m.add_var("x3", -10.0, 10.0)
    m.add_objective({x1: 1.0, x2: 2.0, x3: 3.0})
    m.add_row({x1: 1.0, x2: 1.0}, "=", 1.0, "r1")
    m.add_row({x1: 1.0, x3: -1.0}, "=", 0.0, "r2")
    return m


def two_block_reference(beta, iters):
    """Classic scaled two-block ADMM on toy_model with blocks {x1} and
    {x2, x3}; the second block's rows do not interact, so its joint
    argmin is two independent clamped scalar minimizations."""
    clamp = lambda v: min(max(v, -10.0), 10.0)
    x1 = x2 = x3 = 0.0
    u1 = u2 = 0.0
    out = []
    for _ in range(iters):
        x1 = clamp((-1.0 / beta - ((x2 - 1.0 + u1) + (-x3 + u2))) / 2.0)
        x2 = clamp(-2.0 / beta - (x1 - 1.0 + u1))
        x3 = clamp(-3.0 / beta + x1 + u2)
        u1 += x1 + x2 - 1.0
        u2 += x1 - x3
        out.append((x1 + 2 * x2 + 3 * x3, u1, u2))
    return out


def test_identity_sweep_equals_two_block_admm():
    iters, beta = 8, 2.5
    system = system_from_model(toy_model())
    cfg = rpadmm.AdmmConfig(beta=beta, max_iters=iters, primal_tol=1e-12,
                            permutations=[[0, 1, 2]] * iters)
    x, trace = rpadmm.run(system, cfg)
    ref = two_block_reference(beta, len(trace.records))
    for rec, (obj, u1, u2) in zip(trace.records, ref):
        assert rec.objective == pytest.approx(obj, abs=1e-10)
        assert rec.duals[0] == pytest.approx(u1, abs=1e-10)
        assert rec.duals[1] == pytest.approx(u2, abs=1e-10)


def test_permutation_override_must_cover_all_blocks():
    system = system_from_model(toy_model())
    with pytest.raises(ValueError):
        rpadmm.run(system, rpadmm.AdmmConfig(permutations=[[0, 1, 1]]))


def test_inequality_rows_rejected():
    m = lp.LpModel("ineq")
    x = m.add_var("x", 0.0, 1.0)
    m.add_objective({x: 1.0})
    m.add_row({x: 1.0}, ">=", 0.5, "r")
    with pytest.raises(ValueError, match="needs equality rows, got '>=' in 'r'"):
        rpadmm._scaled(m, ["agent"], np.ones(1))


def test_unbounded_block_raises_through_the_sweep():
    m = lp.LpModel("free")
    x = m.add_var("x", 0.0, 1.0)
    free = m.add_var("free", -np.inf, np.inf)
    m.add_objective({x: 1.0, free: -2.0})
    m.add_row({x: 1.0}, "=", 0.5, "r")
    with pytest.raises(rpadmm.UnboundedUpdateError,
                       match="has no quadratic term and runs off to inf"):
        rpadmm.run(system_from_model(m), rpadmm.AdmmConfig(max_iters=1))


def test_an_overflowing_update_raises_in_the_first_sweep_of_both_loops():
    # 1e200 squared is inf, so the block's quadratic term is inf, not 0,
    # and its update inf / inf is nan: the sweep's non-finite fallback
    m = lp.LpModel("overflow")
    m.add_var("x", -np.inf, np.inf)
    m.add_row({0: 1e200}, "=", 1e200, "r")
    system = system_from_model(m)
    cfg = rpadmm.AdmmConfig(max_iters=1)
    want = r"^block update overflows \(quadratic term inf\) and runs off to nan$"
    for loop in (rpadmm.run, reference_admm_run):
        with pytest.raises(rpadmm.UnboundedUpdateError, match=want), \
                np.errstate(over="ignore", invalid="ignore"):
            loop(system, cfg)


# -- the distributed run on the worked geometry --------------------------------

def system_arrays(system):
    return [arr.tobytes() for arr in (system.c, system.data, system.indices,
                                      system.indptr, system.b, system.lower,
                                      system.upper, system.scale)]


def test_fixed_seed_runs_are_bit_identical(monkeypatch):
    # two runs on one system: the same bytes, the system's arrays as they
    # were, and the message footprint counted by neither run but once, on
    # the first read of either trace
    calls = []
    real = rpadmm.message_footprint
    monkeypatch.setattr(rpadmm, "message_footprint",
                        lambda system: calls.append(system) or real(system))
    system = rpadmm.reformulate(admm_fixture())
    before = system_arrays(system)
    cfg = rpadmm.AdmmConfig(beta=5.0, max_iters=12, seed=3)
    (xa, a), (xb, b) = rpadmm.run(system, cfg), rpadmm.run(system, cfg)
    assert calls == []
    assert xa.tobytes() == xb.tobytes()
    assert a.csv() == b.csv()
    assert a.objectives == b.objectives
    for ra, rb in zip(a.records, b.records, strict=True):
        assert ra.permutation == rb.permutation
        assert ra.residuals.tobytes() == rb.residuals.tobytes()
        assert ra.duals.tobytes() == rb.duals.tobytes()
    assert system_arrays(system) == before
    assert len(calls) == 1 and calls[0] is system
    assert a.messages_per_sweep == b.messages_per_sweep == real(system)


def assert_same_as_reference_loop(system, cfg):
    x, trace = rpadmm.run(system, cfg)
    ref_x, ref = reference_admm_run(system, cfg)
    assert x.tobytes() == ref_x.tobytes()
    assert trace.families == ref.families
    assert trace.converged == ref.converged
    assert len(trace.records) == len(ref.records)
    for rec, want in zip(trace.records, ref.records):
        assert rec.residuals.tobytes() == want.residuals.tobytes()
        assert rec.duals.tobytes() == want.duals.tobytes()
        assert rec.objective == want.objective
        assert rec.violations == want.violations
        assert rec.permutation == want.permutation


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sweep_matches_reference_loop_byte_for_byte(fixture_system, seed):
    system, _ = fixture_system
    assert_same_as_reference_loop(system, rpadmm.AdmmConfig(seed=seed))


def test_override_sweep_matches_reference_loop(fixture_system):
    system, _ = fixture_system
    nv = system.central.num_vars
    orders = [np.arange(nv)[::-1], np.random.default_rng(7).permutation(nv)]
    assert_same_as_reference_loop(system, rpadmm.AdmmConfig(
        max_iters=5, primal_tol=0.0, permutations=orders))


def test_lifted_scenario_sweep_matches_reference_loop(topo):
    system = rpadmm.reformulate(problem(topo, scenario1(), 400.0, 4,
                                        vs.OVERLOAD))
    assert_same_as_reference_loop(system, rpadmm.AdmmConfig(seed=4))


def hand_system(variables, rows):
    """Single-agent system over (lo, hi, cost) variables and (coeffs,
    rhs) equality rows in two alternating families."""
    m = lp.LpModel("hand")
    for k, (lo, hi, c) in enumerate(variables):
        m.add_objective({m.add_var("x%d" % k, lo, hi): c})
    for t, (coeffs, rhs) in enumerate(rows):
        m.add_row(coeffs, "=", rhs, "r%d[%d]" % (t % 2, t))
    return system_from_model(m)


HAND_SYSTEMS = {
    # columns in no row: the cost picks lo, hi or 0.0, then the box clamps
    "empty_columns": ([(-2.0, 3.0, 1.0), (-2.0, 3.0, -1.0), (-2.0, 3.0, 0.0),
                       (1.0, 3.0, 0.0), (0.0, 10.0, 0.5)],
                      [({4: 1.0}, 2.0)]),
    "one_sided_bounds": ([(0.0, np.inf, 1.0), (-np.inf, 4.0, -1.0),
                          (-np.inf, 5.0, 1.0), (0.0, np.inf, -1.0)],
                         [({2: 1.0, 3: 2.0}, 3.0), ({2: -1.0, 3: 1.0}, 1.0)]),
    # x0 lands exactly on hi, x1 clamps to hi, x2 clamps to lo
    "on_bounds": ([(0.0, 2.0, 0.0), (0.0, 1.0, 0.0), (1.0, 5.0, 50.0)],
                  [({0: 1.0}, 2.0), ({1: 1.0}, 3.0), ({2: 1.0}, 2.0)]),
    # the last update of x1 computes -0.0 against lo = 0.0 and keeps it
    "negative_zero": ([(-np.inf, np.inf, -1.0), (0.0, np.inf, 0.0)],
                      [({0: 2.0, 1: 1.0}, 1.0)]),
    "no_rows": ([(-1.0, 1.0, 1.0), (-1.0, 1.0, -1.0), (0.5, 1.0, 0.0)], []),
}


def corpus_systems(topo):
    """The lifted corpus, a lift with explicit zeros in its capacity
    rows (omega 0), the hand systems, and one hand system with explicit
    zeros, negative coefficients, rhs 0.0 and -0.0, and an inf and a
    nan coefficient."""
    for p in lift_instances(topo):
        yield rpadmm.reformulate(p)
    g = scenario1()
    g.omega = {"cpu": 0.0}
    yield rpadmm.reformulate(problem(topo, g, 400.0, 4, vs.OVERLOAD))
    for name in sorted(HAND_SYSTEMS):
        yield hand_system(*HAND_SYSTEMS[name])
    yield hand_system([(-1.0, 1.0, 0.0)] * 3,
                      [({0: np.inf, 1: -1.0}, 0.0), ({0: -2.0, 1: 0.0}, 0.0),
                       ({2: np.nan}, -0.0), ({2: -3.0, 0: 0.0}, -0.0),
                       ({1: 0.5, 2: 4.0}, 2.0)])


def test_columns_and_start_residual_match_scipy_bit_for_bit(topo):
    zeros = rhs_zero = 0
    for system in corpus_systems(topo):
        csr = system_csr(system)
        csc = csr.tocsc()
        cols = rpadmm._columns(system)
        assert [len(col) for col in cols] == np.diff(csc.indptr).tolist()
        assert [t for col in cols for t, _ in col] == csc.indices.tolist()
        coef = np.array([a for col in cols for _, a in col], dtype=float)
        assert coef.tobytes() == csc.data.tobytes()
        zeros += int(np.count_nonzero(csc.data == 0.0))

        point = np.zeros(len(system.c))
        with np.errstate(invalid="ignore"):
            start = rpadmm._residuals(system, point)
        assert start.tobytes() == (csr @ point - system.b).tobytes()
        # a row with finite coefficients and rhs 0 starts at +0.0
        at_zero = (system.b == 0.0) & np.isfinite(start)
        assert not np.signbit(start[at_zero]).any()
        rhs_zero += int(np.count_nonzero(at_zero))
    assert zeros > 0 and rhs_zero > 0


def test_a_distributed_decision_builds_no_scipy_sparse_object(monkeypatch):
    """reformulate, run and the message count read the central model's
    CSR lists: no export, no tocsc(), no csr_array of any kind."""
    built = record_sparse_builds(monkeypatch)
    report = vs.scenario.run_scenario(
        os.path.join(SCEN_DIR, "distributed_scale_out.scn"),
        overrides={"method": "rpadmm"})
    assert report.method == "rpadmm" and report.admm_trace.records
    assert built == []
    system_csr(rpadmm.reformulate(admm_fixture()))
    assert built == ["csr_array"]


@pytest.mark.parametrize("name", sorted(HAND_SYSTEMS))
def test_hand_built_sweep_matches_reference_loop(name):
    system = hand_system(*HAND_SYSTEMS[name])
    cfg = rpadmm.AdmmConfig(beta=1.0, max_iters=4, primal_tol=0.0, seed=89)
    assert_same_as_reference_loop(system, cfg)
    if name == "negative_zero":
        x, _ = rpadmm.run(system, cfg)
        assert x[1] == 0.0 and np.signbit(x[1])


def test_zero_residual_while_moving_is_not_converged():
    # max x0 + x1 with x0 = x1 in [0, 10]: at beta 1 the second sweep
    # leaves the residual exactly 0 while x moves along (1, 1), the null
    # space of the row; the run must go on to the fixed point (10, 10)
    system = hand_system([(0.0, 10.0, -1.0), (0.0, 10.0, -1.0)],
                         [({0: 1.0, 1: -1.0}, 0.0)])
    cfg = rpadmm.AdmmConfig(beta=1.0, max_iters=2, primal_tol=0.0,
                            permutations=[[0, 1]])
    x, trace = rpadmm.run(system, cfg)
    assert trace.records[-1].residuals.tolist() == [0.0]
    assert x.tolist() == [4.0, 4.0]
    assert not trace.converged
    cfg = rpadmm.AdmmConfig(beta=1.0, max_iters=50, primal_tol=0.0,
                            permutations=[[0, 1]])
    x, trace = rpadmm.run(system, cfg)
    assert trace.converged
    assert x.tolist() == [10.0, 10.0]
    assert_same_as_reference_loop(system, cfg)


def run_digest_in_subprocess(hashseed):
    code = (
        "import sys; sys.path.insert(0, 'tests')\n"
        "import hashlib, numpy as np\n"
        "from corpus import admm_fixture\n"
        "from vnfscale import rpadmm\n"
        "x, t = rpadmm.run(rpadmm.reformulate(admm_fixture()),"
        " rpadmm.AdmmConfig(beta=5.0,"
        " max_iters=10, seed=0))\n"
        "h = hashlib.sha256()\n"
        "h.update(np.asarray(t.objectives).tobytes())\n"
        "h.update(t.records[-1].duals.tobytes())\n"
        "print(h.hexdigest())\n")
    out = subprocess.run([sys.executable, "-c", code],
                         capture_output=True, text=True, cwd=".",
                         env={"PYTHONPATH": "src",
                              "PYTHONHASHSEED": str(hashseed), "PATH": "/usr/bin"})
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


def test_trace_does_not_depend_on_hash_randomization():
    assert run_digest_in_subprocess(0) == run_digest_in_subprocess(1)


def test_scaled_duals_replay_from_residuals(fixture_system):
    system, _ = fixture_system
    _, trace = rpadmm.run(system, rpadmm.AdmmConfig(max_iters=6, seed=0))
    prev = np.zeros_like(trace.records[0].duals)
    for rec in trace.records:
        assert np.array_equal(rec.duals, prev + rec.residuals)
        prev = rec.duals


def test_objective_approaches_central_optimum(fixture_system):
    system, opt = fixture_system
    for seed in (5, 9):
        _, trace = rpadmm.run(system, rpadmm.AdmmConfig(beta=5.0, seed=seed))
        gap = min(abs(o - opt) / opt for o in trace.objectives)
        assert gap <= 0.01


def test_violations_fall_and_end_small(fixture_system):
    system, _ = fixture_system
    for seed in range(3):
        _, trace = rpadmm.run(system, rpadmm.AdmmConfig(beta=5.0, seed=seed))
        first = max(trace.records[0].violations.values())
        last = max(trace.records[-1].violations.values())
        assert last <= 0.05
        assert last < first


def test_violations_normalize_to_one_at_start_and_zero_when_feasible(topo):
    p = problem(topo, scenario1(), 400.0, 4, vs.OVERLOAD)
    system = rpadmm.reformulate(p)
    rows, csr = family_rows(system), system_csr(system)

    def peaks(point):
        return reference_family_max(csr @ point - system.b, rows)

    start = peaks(np.zeros(system.central.num_vars))
    at_zero = reference_normalize(start, start)
    assert at_zero["coverage"] == 1.0
    assert at_zero["interest"] == 0.0
    at_opt = reference_normalize(
        peaks(central_optimum(p).point * system.scale), start)
    assert max(at_opt.values()) < 1e-7


def test_divergence_guard_carries_partial_trace(fixture_system):
    system, _ = fixture_system
    with pytest.raises(rpadmm.AdmmDivergenceError) as err:
        rpadmm.run(system, rpadmm.AdmmConfig(divergence_limit=1.0))
    assert err.value.trace is not None
    assert len(err.value.trace.records) >= 1


# -- agent bookkeeping ----------------------------------------------------------

def test_agent_partition_assigns_every_block(fixture_system):
    system, _ = fixture_system
    owners = system.owners
    assert len(owners) == system.central.num_vars
    by_name = dict(zip(system.central.var_names, owners))
    # shares sit at the first relevant PM, P2: pinned ones belong to
    # their hosts, the new one to P2; every interest to its PM
    assert by_name["alpha[PM1,d1]"] == pm(3)
    assert by_name["alpha[PM1,d2]"] == pm(5)
    assert by_name["alpha[PM1,d4]"] == pm(2)
    assert by_name["e[PM15,d4]"] == pm(16)
    assert set(owners) <= set(system.central.layout.rel_pms)


def test_orphan_block_is_a_construction_fault():
    system = system_from_model(toy_model())
    with pytest.raises(RuntimeError, match="'x2' has no owning agent"):
        dataclasses.replace(system, owners=["a", None, "a"])
    with pytest.raises(RuntimeError, match="'x3' has no owning agent"):
        dataclasses.replace(system, owners=["a", "a"])


def test_messages_logged_match_the_footprint(fixture_system):
    system, _ = fixture_system
    total = rpadmm.message_footprint(system)
    _, trace = rpadmm.run(system, rpadmm.AdmmConfig(max_iters=3, seed=1))
    assert trace.messages_per_sweep == total
    rows = list(csv.reader(io.StringIO(trace.csv())))[1:]
    assert [r[-1] for r in rows] == [str(total)] * len(trace.records) != []
    assert total > 0


def test_message_footprint_matches_the_pattern_product(topo):
    for p in lift_instances(topo):
        system = rpadmm.reformulate(p)
        assert rpadmm.message_footprint(system) == reference_message_footprint(system)
    # owners by index parity put two owners in almost every row
    system = rpadmm.reformulate(k2_instance(0, mode=vs.OVERLOAD))
    mixed = dataclasses.replace(
        system, owners=[i % 2 for i in range(system.central.num_vars)])
    assert rpadmm.message_footprint(mixed) == reference_message_footprint(mixed) > 0


def test_trace_csv_layout(fixture_system):
    system, _ = fixture_system
    _, trace = rpadmm.run(system, rpadmm.AdmmConfig(max_iters=4, seed=2))
    rows = list(csv.reader(io.StringIO(trace.csv())))
    header = rows[0]
    assert header[0] == "iteration"
    assert header[1] == "objective"
    assert header[-1] == "messages_sent"
    assert header[2:-1] == ["violation_%s" % f for f in trace.families]
    assert len(rows) == 1 + len(trace.records)
    assert [r[0] for r in rows[1:]] == [str(i + 1) for i in range(len(rows) - 1)]
