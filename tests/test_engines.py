import numpy as np
import pytest

from sliceshare.model import (PopulationState, scwa_weights, ValidationError,
                              feasibility_report, drf_weights, dps_weights,
                              drf_unconstrained_weights)
from sliceshare.engines import (DEFAULT_OPTIONS, SolverOptions, SolverError,
                                solve_alpha_scs, maxmin_waterfill,
                                static_partition)
from sliceshare.analysis import utility, envy_report
from sliceshare.oracle import oracle_concave_opt, oracle_maxmin
from sliceshare.gen import random_instance, random_scwa_weights
from sliceshare.scenario import load_builtin
from conftest import make_instance

Q3 = (0.25, 0.25, 0.5)


def assert_maxmin_certificate(inst, q, phi):
    """Every weighted class uses a saturated resource on which its level
    phi_c / q_c is the largest among that resource's users; unweighted
    classes get nothing.  Returns the usage of every resource."""
    q = np.asarray(q, float)
    phi = np.asarray(phi, float)
    D = inst.demand_matrix
    usage = phi @ D
    levels = np.where(q > 0, phi / np.where(q > 0, q, 1.0), -np.inf)
    for i in range(inst.n_classes):
        if q[i] == 0:
            assert phi[i] == 0.0
            continue
        assert any(abs(usage[r] - 1.0) <= 1e-9
                   and levels[i] >= levels[D[:, r] > 0].max() - 1e-9
                   for r in np.flatnonzero(D[i] > 0)), inst.class_ids[i]
    return dict(zip(inst.resource_ids, usage))


def test_pf_worked_example(three_user):
    res = solve_alpha_scs(three_user, Q3, alpha=1.0,
                          opts=SolverOptions(tol=1e-11, max_iters=300_000))
    assert res.allocation.rates == pytest.approx((0.4, 1/3, 2/3), abs=1e-6)
    duals = dict(zip(three_user.resource_ids, res.allocation.duals))
    assert duals["r1"] == pytest.approx(0.625, abs=1e-6)
    assert duals["r4"] + duals["r5"] == pytest.approx(0.375, abs=1e-6)
    assert sum(res.allocation.duals) == pytest.approx(1.0, abs=1e-9)
    assert res.residuals.worst() <= 1e-11


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 50.0])
def test_single_resource_split_is_weight_proportional(single_resource, alpha):
    res = solve_alpha_scs(single_resource, (0.3, 0.7), alpha)
    assert res.allocation.rates == pytest.approx((0.3, 0.7), abs=1e-6)


def test_matches_oracle_alpha2():
    rng = np.random.default_rng(5)
    for _ in range(5):
        inst = random_instance(rng, max_classes=3, max_resources=2)
        q = random_scwa_weights(rng, inst)
        mine = solve_alpha_scs(inst, q, 2.0).allocation.array()
        ref = oracle_concave_opt(inst, q, 2.0).array()
        assert np.abs(mine - ref).max() < 1e-3


def test_all_zero_weights_rejected(single_resource):
    with pytest.raises(ValidationError, match="weight"):
        solve_alpha_scs(single_resource, (0.0, 0.0), 1.0)
    with pytest.raises(ValidationError, match="alpha"):
        solve_alpha_scs(single_resource, (0.3, 0.7), 0.0)


@pytest.mark.parametrize("alpha", [0.0, -1.0, float("inf"), float("nan")])
def test_every_alpha_engine_rejects_bad_alpha(three_user, alpha):
    with pytest.raises(ValidationError, match="alpha must be finite and > 0"):
        solve_alpha_scs(three_user, Q3, alpha)
    with pytest.raises(ValidationError, match="alpha must be finite and > 0"):
        static_partition(three_user, Q3, alpha)
    # a precomputed shared solve leaves only the swapped solve to check alpha
    full = solve_alpha_scs(three_user, Q3, 1.0)
    with pytest.raises(ValidationError, match="alpha must be finite and > 0"):
        envy_report(three_user, Q3, alpha, "s1", "s2", full=full)


def test_nonconvergence_raises_with_residuals(three_user):
    opts = SolverOptions(tol=1e-14, max_iters=3)
    with pytest.raises(SolverError) as err:
        solve_alpha_scs(three_user, Q3, 2.0, opts=opts)
    assert err.value.residuals.worst() > 1e-14
    assert err.value.iterations == 3


@pytest.mark.parametrize("kwargs", [
    {"tol": 0.0}, {"tol": -1e-8}, {"tol": float("nan")}, {"tol": float("inf")},
    {"max_iters": 0}, {"max_iters": -5}, {"max_iters": 2.5}, {"max_iters": 10.0}])
def test_solver_options_reject_unreachable_settings(kwargs):
    with pytest.raises(ValidationError, match=next(iter(kwargs))):
        SolverOptions(**kwargs)


def test_failed_line_search_reports_real_iteration_count():
    # tol=1e-300 lies below round-off: the line search runs out of room long
    # before the budget, and the error reports the iterations actually run
    rng = np.random.default_rng(11)
    inst = random_instance(rng)
    q = random_scwa_weights(rng, inst)
    opts = SolverOptions(tol=1e-300, max_iters=1000)
    with pytest.raises(SolverError) as err:
        solve_alpha_scs(inst, q, 0.5, opts=opts)
    n = err.value.iterations
    assert 1 <= n < opts.max_iters
    assert f"after {n} of {opts.max_iters} iterations" in str(err.value)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 50.0])
def test_cold_fig7_population_with_fewer_classes_than_resources(alpha):
    # four live classes on ten resources: the dual Hessian is singular
    inst = load_builtin("fig7_multiresource").instance
    q = scwa_weights(inst, PopulationState((1, 2, 1, 0, 0, 1)))
    res = solve_alpha_scs(inst, q, alpha)
    assert res.residuals.worst() <= DEFAULT_OPTIONS.tol
    assert feasibility_report(inst, res.allocation).feasible
    if alpha <= 2.0:
        ref = oracle_concave_opt(inst, q, alpha).array()
        assert np.abs(res.allocation.array() - ref).max() < 1e-6


def test_acceptance_pool_iteration_tail():
    rng = np.random.default_rng(11)
    pool = []
    for _ in range(200):
        inst = random_instance(rng)
        pool.append((inst, random_scwa_weights(rng, inst)))
    for alpha in (0.5, 1.0, 2.0):
        worst = max(solve_alpha_scs(inst, q, alpha).iterations for inst, q in pool)
        assert worst <= 50, (alpha, worst)


def test_warm_start_reproduces_solution(three_user):
    cold = solve_alpha_scs(three_user, Q3, 1.0)
    warm = solve_alpha_scs(three_user, Q3, 1.0, warm_duals=cold.allocation.duals)
    assert warm.allocation.rates == pytest.approx(cold.allocation.rates, abs=1e-7)
    assert warm.iterations <= cold.iterations


def test_weight_scaling_invariance(three_user):
    a = solve_alpha_scs(three_user, Q3, 2.0).allocation.array()
    b = solve_alpha_scs(three_user, tuple(7.0 * q for q in Q3), 2.0).allocation.array()
    assert np.abs(a - b).max() < 1e-7
    wa = maxmin_waterfill(three_user, Q3).allocation.array()
    wb = maxmin_waterfill(three_user, tuple(7.0 * q for q in Q3)).allocation.array()
    assert np.abs(wa - wb).max() < 1e-12


def test_alpha_continuity_at_one(three_user):
    base = solve_alpha_scs(three_user, Q3, 1.0).allocation.array()
    for alpha in (1.0 - 1e-4, 1.0 + 1e-4):
        near = solve_alpha_scs(three_user, Q3, alpha).allocation.array()
        assert np.abs(near - base).max() < 1e-3


def test_waterfill_single_resource(single_resource):
    res = maxmin_waterfill(single_resource, (0.3, 0.7))
    assert res.allocation.rates == pytest.approx((0.3, 0.7), abs=1e-9)
    assert res.allocation.duals is None


def test_waterfill_two_stage_fixture():
    inst = make_instance(
        ["r1", "r2"], [("s1", 0.5), ("s2", 0.5)],
        [("c1", "s1", {"r1": 1.0}), ("c2", "s2", {"r1": 1.0, "r2": 4.0})])
    res = maxmin_waterfill(inst, (0.5, 0.5))
    assert res.allocation.rates == pytest.approx((0.75, 0.25), abs=1e-9)
    usage = assert_maxmin_certificate(inst, (0.5, 0.5), res.allocation.rates)
    assert usage == pytest.approx({"r1": 1.0, "r2": 1.0}, abs=1e-9)


def test_waterfill_matches_oracle_and_high_alpha():
    rng = np.random.default_rng(11)
    for _ in range(5):
        inst = random_instance(rng)
        q = random_scwa_weights(rng, inst)
        wf = maxmin_waterfill(inst, q).allocation.array()
        ref = oracle_maxmin(inst, q).array()
        assert np.abs(wf - ref).max() < 1e-4
        hi = solve_alpha_scs(inst, q, 50.0).allocation.array()
        assert np.abs(wf - hi).max() < 0.02


def test_waterfill_bottleneck_certificate():
    rng = np.random.default_rng(23)
    for _ in range(20):
        inst = random_instance(rng)
        q = random_scwa_weights(rng, inst).values
        assert_maxmin_certificate(inst, q, maxmin_waterfill(inst, q).allocation.rates)


def test_drf_weights_fixture():
    inst = make_instance(
        ["r1", "r2"], [("s1", 0.5), ("s2", 0.5)],
        [("c1", "s1", {"r1": 2.0, "r2": 1.0}),
         ("c2", "s2", {"r1": 1.0, "r2": 3.0})])
    q = drf_weights(inst, PopulationState((1, 1)))
    assert q.values == pytest.approx((0.25, 1/6))
    res = maxmin_waterfill(inst, q)
    assert res.allocation.rates == pytest.approx((1/3, 2/9), abs=1e-9)
    usage = assert_maxmin_certificate(inst, q.values, res.allocation.rates)
    assert usage["r2"] == pytest.approx(1.0, abs=1e-9)


def test_drf_reduces_to_scwa_on_single_resource(single_resource):
    q = drf_weights(single_resource, PopulationState((1, 1)))
    assert q.values == pytest.approx((0.5, 0.5))


def test_dps_weights(three_user, single_resource):
    # slice 1 holds two users of u1, slice 2 one user: weights ignore shares' split
    q = dps_weights(single_resource, PopulationState((2, 1)))
    assert q.values == pytest.approx((1.0, 0.5))
    res = maxmin_waterfill(single_resource, q)
    assert res.allocation.rates == pytest.approx((2/3, 1/3), abs=1e-9)
    scs = scwa_weights(single_resource, PopulationState((2, 1)))
    assert maxmin_waterfill(single_resource, scs).allocation.rates == \
        pytest.approx((0.5, 0.5), abs=1e-9)
    # one user per slice: same as the share weights
    assert dps_weights(single_resource, PopulationState((1, 1))).values == \
        pytest.approx((0.5, 0.5))


def test_drf_unconstrained_drops_slice_budget(single_resource, three_user):
    inst = make_instance(
        ["r1"], [("s1", 0.5), ("s2", 0.5)],
        [("a", "s1", {"r1": 1.0}), ("b", "s1", {"r1": 1.0}),
         ("c", "s2", {"r1": 1.0})])
    pop = PopulationState((1, 1, 1))
    assert drf_weights(inst, pop).values == pytest.approx((0.25, 0.25, 0.5))
    assert drf_unconstrained_weights(inst, pop).values == \
        pytest.approx((0.5, 0.5, 0.5))


def test_gps_drf_scs_coincide_on_unit_demands(single_resource):
    pop = PopulationState((3, 2))
    q = scwa_weights(single_resource, pop)
    ref = np.asarray(q.values) / sum(q.values)
    for weights in (q, drf_weights(single_resource, pop)):
        assert maxmin_waterfill(single_resource, weights).allocation.array() == \
            pytest.approx(ref, abs=1e-9)
    assert solve_alpha_scs(single_resource, q, 1.0).allocation.array() == \
        pytest.approx(ref, abs=1e-7)


def test_static_partition_trivial(single_resource):
    parts = static_partition(single_resource, (0.5, 0.5), 1.0)
    assert set(parts) == {"s1", "s2"}
    full = np.zeros(2)
    for res in parts.values():
        full += res.allocation.array()
    assert full == pytest.approx((0.5, 0.5), abs=1e-8)


def test_static_partition_never_beats_sharing(three_user):
    q = Q3
    parts = static_partition(three_user, q, 1.0)
    full = solve_alpha_scs(three_user, q, 1.0)
    u_full = utility(three_user, full.allocation.array(), q, 1.0)
    combined = np.zeros(3)
    for res in parts.values():
        combined += res.allocation.array()
    u_part = utility(three_user, combined, q, 1.0)
    for sid in three_user.slice_ids:
        assert u_part.per_slice[sid] <= u_full.per_slice[sid] + 1e-9


def test_static_partition_idle_slice(three_user):
    parts = static_partition(three_user, (0.5, 0.5, 0.0), 1.0)
    assert parts["s2"].allocation.array() == pytest.approx((0, 0, 0), abs=0)


def test_every_engine_output_is_feasible(three_user):
    pop = PopulationState((2, 1, 3))
    candidates = [
        solve_alpha_scs(three_user, Q3, 0.5),
        solve_alpha_scs(three_user, Q3, 1.0),
        solve_alpha_scs(three_user, Q3, 3.0),
        maxmin_waterfill(three_user, drf_weights(three_user, pop)),
        maxmin_waterfill(three_user, dps_weights(three_user, pop)),
    ]
    for res in candidates:
        assert feasibility_report(three_user, res.allocation).feasible
