"""Optimizer behavior: closed forms, incremental-vs-batch, marginals, reports.

The batch oracle here is an independent dense Gauss-Newton: it assembles the
full normal equations with numpy from the factor-level residuals/jacobians
and never touches the library's sparse/banded assembly paths.
"""

import math
import warnings

import numpy as np
import pytest

from se2fusion import (
    BetweenFactor,
    DiagonalNoise,
    GaugeError,
    MeasurementFactor,
    Pose2,
    PriorFactor,
    Smoother,
    SmootherSettings,
    Twist2,
)
from support import make_rng, pose_diff, random_pose

UNIT = DiagonalNoise(1.0, 1.0, 1.0)


def dense_normal_equations(n_vars, factors, values):
    """Whitened H = J^T W^2 J and g = J^T W^2 r from each factor's residual and jacobians."""
    h = np.zeros((3 * n_vars, 3 * n_vars))
    g = np.zeros(3 * n_vars)
    for f in factors:
        w = 1.0 / np.array(f.noise.sigmas())
        rw = np.array(f.residual(values).as_tuple()) * w
        jac = {k: np.asarray(j) * w[:, None] for k, j in f.jacobians(values).items()}
        for ka, ja in jac.items():
            g[3 * ka : 3 * ka + 3] += ja.T @ rw
            for kb, jb in jac.items():
                h[3 * ka : 3 * ka + 3, 3 * kb : 3 * kb + 3] += ja.T @ jb
    return h, g


def dense_batch_solve(n_vars, factors, init, iterations=200):
    """From-scratch dense Gauss-Newton with step halving."""
    values = dict(init)

    def total_error(vals):
        return 0.5 * sum(f.noise.mahalanobis_sq(f.residual(vals)) for f in factors)

    err = total_error(values)
    for _ in range(iterations):
        h, g = dense_normal_equations(n_vars, factors, values)
        delta = np.linalg.solve(h, -g)
        alpha = 1.0
        accepted = False
        for _ in range(20):
            trial = {
                k: values[k].retract(Twist2(*(alpha * delta[3 * k : 3 * k + 3])))
                for k in range(n_vars)
            }
            trial_err = total_error(trial)
            if trial_err <= err:
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            break
        decrease = err - trial_err
        values, err = trial, trial_err
        if decrease <= 1e-13 * max(err, 1e-300):
            break
    return values


def test_symmetric_fusion_closed_form():
    s = Smoother()
    k = s.add_variable()
    s.add_factor(PriorFactor(k, Pose2(0, 0, 0), UNIT))
    s.add_factor(MeasurementFactor(k, Pose2(2, 0, 0), UNIT))
    report = s.update()
    assert report.converged
    p = s.pose_estimate(k)
    assert abs(p.x - 1.0) < 1e-9 and abs(p.y) < 1e-9 and abs(p.theta) < 1e-9
    assert s.estimate() == {k: p}


def test_one_two_sigma_closed_form():
    s = Smoother()
    k = s.add_variable(Pose2(0.0, 0.0, 0.0))
    s.add_factor(PriorFactor(k, Pose2(0, 0, 0), DiagonalNoise(1.0, 1.0, 1.0)))
    s.add_factor(MeasurementFactor(k, Pose2(2, 0, 0), DiagonalNoise(2.0, 1.0, 1.0)))
    s.update()
    assert abs(s.pose_estimate(k).x - 0.4) < 1e-9


def test_exact_chain_dead_reckons():
    s = Smoother()
    keys = [s.add_variable() for _ in range(3)]
    rel = Pose2(1.0, 0.0, math.pi / 6)
    s.add_factor(PriorFactor(keys[0], Pose2(0, 0, 0), DiagonalNoise(0.1, 0.1, 0.1)))
    s.add_factor(BetweenFactor(keys[0], keys[1], rel, UNIT))
    s.add_factor(BetweenFactor(keys[1], keys[2], rel, UNIT))
    report = s.update()
    assert report.converged and report.final_error < 1e-20
    want = Pose2(0, 0, 0)
    for k in keys:
        assert pose_diff(s.pose_estimate(k), want) < 1e-10
        want = want.compose(rel)


def test_add_variable_initialization_follows_odometry():
    s = Smoother(SmootherSettings(max_iterations=0))
    k0 = s.add_variable(Pose2(5.0, 0.0, 0.0))
    s.add_factor(MeasurementFactor(k0, Pose2(5, 0, 0), UNIT))
    k1 = s.add_variable()
    s.add_factor(BetweenFactor(k0, k1, Pose2(1.0, 0.0, 0.0), UNIT))
    s.update()
    assert pose_diff(s.pose_estimate(k1), Pose2(6.0, 0.0, 0.0)) < 1e-12


def test_estimate_before_update_raises():
    s = Smoother()
    s.add_variable()
    with pytest.raises(RuntimeError):
        s.estimate()
    with pytest.raises(RuntimeError):
        s.pose_estimate(0)


def test_factor_on_unknown_key_raises():
    s = Smoother()
    s.add_variable()
    with pytest.raises(KeyError):
        s.add_factor(MeasurementFactor(1, Pose2(0, 0, 0), UNIT))
    with pytest.raises(KeyError):
        s.add_factor(BetweenFactor(0, 1, Pose2(1, 0, 0), UNIT))


def test_between_only_graph_raises_gauge_error():
    s = Smoother()
    a = s.add_variable(Pose2(0, 0, 0))
    b = s.add_variable(Pose2(1, 0, 0))
    s.add_factor(BetweenFactor(a, b, Pose2(1, 0, 0), UNIT))
    with pytest.raises(GaugeError):
        s.update()


def test_disconnected_component_raises_gauge_error():
    s = Smoother()
    a = s.add_variable(Pose2(0, 0, 0))
    s.add_variable(Pose2(1, 0, 0))
    # unsatisfied so the solver actually has to factorize
    s.add_factor(MeasurementFactor(a, Pose2(1, 0, 0), UNIT))
    with pytest.raises(GaugeError):
        s.update()


def test_non_convergence_reported_not_raised():
    s = Smoother(SmootherSettings(max_iterations=1))
    k = s.add_variable(Pose2(4.0, -3.0, 2.0))
    s.add_factor(MeasurementFactor(k, Pose2(0, 0, 0), UNIT))
    s.add_factor(MeasurementFactor(k, Pose2(1, 1, 1.0), UNIT))
    report = s.update()
    assert report.iterations == 1
    assert not report.converged
    s.pose_estimate(k)


def test_report_invariants_and_monotone_history():
    rng = make_rng(67)
    s = Smoother()
    prev = None
    for k in range(40):
        s.add_variable()
        s.add_factor(MeasurementFactor(k, random_pose(rng, span=3.0), DiagonalNoise(1.5, 1.5, 0.4)))
        if k:
            s.add_factor(BetweenFactor(k - 1, k, Pose2(1.0, 0.0, 0.05), DiagonalNoise(0.05, 0.05, 0.02)))
        report = s.update()
        assert report.final_error <= report.initial_error + 1e-12
        assert report.iterations <= s.settings.max_iterations
        assert report.duration_ms >= 0.0
        assert report.error_history[0] == report.initial_error
        assert report.error_history[-1] == report.final_error
        assert all(b <= a + 1e-12 for a, b in zip(report.error_history, report.error_history[1:]))
        prev = report
    assert prev.converged


def _random_incremental_graph(rng, n_vars, meas_sigma=(0.5, 2.0), odo_sigma=(0.02, 0.1), closure_rate=0.15):
    """Per-frame factor batches over a random chain, data noise matching the models."""
    truth = [Pose2(0, 0, 0)]
    for _ in range(1, n_vars):
        step = Pose2(rng.uniform(0.5, 1.5), rng.uniform(-0.2, 0.2), rng.uniform(-0.3, 0.3))
        truth.append(truth[-1].compose(step))
    meas_noise = DiagonalNoise(*rng.uniform(meas_sigma[0], meas_sigma[1], 3))
    odo_noise = DiagonalNoise(*rng.uniform(odo_sigma[0], odo_sigma[1], 3))

    def noisy(p, sig):
        return Pose2(
            p.x + rng.normal(0, sig.sigma_x),
            p.y + rng.normal(0, sig.sigma_y),
            p.theta + rng.normal(0, sig.sigma_theta),
        )

    steps = []
    for k in range(n_vars):
        factors = [MeasurementFactor(k, noisy(truth[k], meas_noise), meas_noise)]
        if k:
            factors.append(
                BetweenFactor(k - 1, k, noisy(truth[k - 1].between(truth[k]), odo_noise), odo_noise)
            )
        if k >= 2 and rng.random() < closure_rate:
            j = int(rng.integers(0, k - 1))
            factors.append(
                BetweenFactor(j, k, noisy(truth[j].between(truth[k]), meas_noise), meas_noise)
            )
        steps.append(factors)
    return steps


def _solve_incrementally(steps):
    s = Smoother()
    all_factors = []
    for factors in steps:
        s.add_variable()
        for f in factors:
            s.add_factor(f)
        all_factors.extend(factors)
        s.update()
    return s, all_factors


def _chain_init(steps, n):
    init = {k: Pose2(0, 0, 0) for k in range(n)}
    for factors in steps[1:]:
        for f in factors:
            if isinstance(f, BetweenFactor) and f.key_to == f.key_from + 1:
                init[f.key_to] = init[f.key_from].compose(f.relative)
    return init


def test_incremental_matches_dense_batch_oracle():
    # meter-scale noise: the stopping rule parks both solvers within ~1e-5 of
    # the optimum, so cross-implementation agreement is bounded by that
    rng = make_rng(71)
    for _ in range(4):
        n = int(rng.integers(20, 45))
        steps = _random_incremental_graph(rng, n)
        s, all_factors = _solve_incrementally(steps)
        oracle = dense_batch_solve(n, all_factors, _chain_init(steps, n))
        worst = max(pose_diff(s.pose_estimate(k), oracle[k]) for k in range(n))
        assert worst < 1e-4


def test_incremental_matches_dense_batch_oracle_tightly():
    # centimeter-scale noise: the landing accuracy shrinks with the sigmas,
    # so the two implementations must agree far below 1e-6
    rng = make_rng(72)
    for _ in range(4):
        n = int(rng.integers(20, 45))
        steps = _random_incremental_graph(rng, n, meas_sigma=(0.01, 0.05), odo_sigma=(0.002, 0.008))
        s, all_factors = _solve_incrementally(steps)
        oracle = dense_batch_solve(n, all_factors, _chain_init(steps, n))
        worst = max(pose_diff(s.pose_estimate(k), oracle[k]) for k in range(n))
        assert worst < 1e-6


def test_long_span_between_uses_sparse_path_and_matches_oracle():
    rng = make_rng(73)
    n = 40
    steps = _random_incremental_graph(
        rng, n, meas_sigma=(0.02, 0.05), odo_sigma=(0.002, 0.008), closure_rate=0.0
    )
    s, factors = _solve_incrementally(steps)
    assert s._pattern()["mode"] == "banded"
    # a span-39 edge pushes the half-bandwidth far past the banded limit
    first_meas = steps[0][0].measured
    last_meas = steps[-1][0].measured
    loop = BetweenFactor(0, n - 1, first_meas.between(last_meas), DiagonalNoise(0.05, 0.05, 0.02))
    s.add_factor(loop)
    factors.append(loop)
    s.update()
    assert s._pattern()["mode"] == "sparse"
    oracle = dense_batch_solve(n, factors, _chain_init(steps, n))
    worst = max(pose_diff(s.pose_estimate(k), oracle[k]) for k in range(n))
    assert worst < 1e-6


def smoother_normal_equations(s):
    """Dense H and g from the smoother's own assembly at its current values.

    Banded mode returns the lower band of H: row k holds H[i + k, i] at
    column i. Sparse mode returns the full matrix.
    """
    pattern = s._pattern()
    _, terms = s._evaluate(s._x.view())
    system, g = s._linearize(terms, pattern)
    if pattern["mode"] == "sparse":
        return pattern["mode"], system.toarray(), np.asarray(g)
    dim = pattern["dim"]
    h = np.zeros((dim, dim))
    for k in range(system.shape[0]):
        i = np.arange(dim - k)
        h[i + k, i] = system[k, : dim - k]
        h[i, i + k] = system[k, : dim - k]
    return pattern["mode"], h, np.asarray(g)


def test_linearize_matches_factor_jacobians():
    # random poses far from any optimum, every factor kind, between factors
    # in both key orders, and satisfied and nearly satisfied factors for the
    # small-angle branch
    rng = make_rng(89)
    n = 40
    s = Smoother()
    values = {k: random_pose(rng) for k in range(n)}
    for k in range(n):
        s.add_variable(values[k])

    def noise():
        return DiagonalNoise(*rng.uniform(0.05, 3.0, 3))

    def between(a, b):
        return BetweenFactor(a, b, random_pose(rng, span=3.0), noise())

    # leaves a factor error of this pose: a rotation inside the series branch
    tiny = Pose2(12.0, -9.0, 5e-5)

    # each stage is checked after it is added: the pattern is built, appended
    # to, rebuilt for a wider band, flipped to sparse, then appended to again
    stages = [
        [PriorFactor(0, random_pose(rng), noise())]
        + [MeasurementFactor(k, random_pose(rng), noise()) for k in range(n)]
        + [between(k - 1, k) for k in range(1, n)],
        [MeasurementFactor(k, values[k], noise()) for k in (3, 17)]
        + [MeasurementFactor(9, values[9].compose(tiny.inverse()), noise())]
        + [BetweenFactor(5, 6, values[5].between(values[6]), noise())]
        + [BetweenFactor(7, 8, values[7].between(values[8]).compose(tiny.inverse()), noise())],
        [between(k + 3, k) for k in range(0, n - 3, 4)] + [between(k, k + 2) for k in range(1, n - 2, 5)],
        [between(n - 1, 2), between(4, 30)],
        [between(25, 10), MeasurementFactor(20, random_pose(rng), noise())],
    ]
    factors = []
    for stage, mode in zip(stages, ("banded", "banded", "banded", "sparse", "sparse")):
        for f in stage:
            s.add_factor(f)
        factors.extend(stage)
        got_mode, h, g = smoother_normal_equations(s)
        want_h, want_g = dense_normal_equations(n, factors, values)
        assert got_mode == mode
        assert np.allclose(h, want_h, rtol=1e-9, atol=1e-9 * np.abs(want_h).max())
        assert np.allclose(g, want_g, rtol=1e-9, atol=1e-9 * np.abs(want_g).max())


def test_marginal_examples():
    s = Smoother()
    k = s.add_variable(Pose2(0, 0, 0))
    s.add_factor(MeasurementFactor(k, Pose2(1, 2, 0.3), DiagonalNoise(2.0, 3.0, 0.1)))
    s.update()
    assert np.allclose(s.marginal_sigma(k), (2.0, 3.0, 0.1), rtol=1e-9)

    s = Smoother()
    k = s.add_variable(Pose2(0, 0, 0))
    s.add_factor(PriorFactor(k, Pose2(0, 0, 0), UNIT))
    s.add_factor(MeasurementFactor(k, Pose2(0, 0, 0), UNIT))
    s.update()
    root_half = 1.0 / math.sqrt(2.0)
    assert np.allclose(s.marginal_sigma(k), (root_half,) * 3, rtol=1e-9)


def test_marginal_matches_dense_inverse_oracle():
    rng = make_rng(79)
    n = 12
    s = Smoother()
    factors = []
    for k in range(n):
        s.add_variable()
        f = MeasurementFactor(k, random_pose(rng, span=2.0), DiagonalNoise(1.2, 0.9, 0.3))
        s.add_factor(f)
        factors.append(f)
        if k:
            b = BetweenFactor(k - 1, k, Pose2(1.0, 0.1, 0.05), DiagonalNoise(0.05, 0.05, 0.02))
            s.add_factor(b)
            factors.append(b)
    s.update()
    h, _ = dense_normal_equations(n, factors, s.estimate())
    cov = np.linalg.inv(h)
    for k in (0, 5, n - 1):
        want = np.sqrt(np.diag(cov)[3 * k : 3 * k + 3])
        assert np.allclose(s.marginal_sigma(k), want, atol=1e-8, rtol=1e-8)


def test_marginal_guard_rails():
    s = Smoother()
    s.add_variable(Pose2(0, 0, 0))
    with pytest.raises(RuntimeError):
        s.marginal_sigma(0)
    s.add_factor(MeasurementFactor(0, Pose2(0, 0, 0), UNIT))
    s.update()
    with pytest.raises(KeyError):
        s.marginal_sigma(3)
    s.add_variable()
    with pytest.raises(RuntimeError):
        s.marginal_sigma(0)


def test_permutation_stability():
    rng = make_rng(83)
    steps = _random_incremental_graph(rng, 25, meas_sigma=(0.01, 0.05), odo_sigma=(0.002, 0.008))
    flat = [f for fs in steps for f in fs]

    def solve(factor_order):
        s = Smoother()
        for _ in range(25):
            s.add_variable()
        for f in factor_order:
            s.add_factor(f)
        s.update()
        return s

    a = solve(flat)
    order = list(range(len(flat)))
    rng.shuffle(order)
    b = solve([flat[i] for i in order])
    # both runs land within the optimizer's stopping accuracy of the same
    # minimum, so agreement is bounded by that accuracy, not by roundoff
    worst = max(pose_diff(a.pose_estimate(k), b.pose_estimate(k)) for k in range(25))
    assert worst < 1e-6


def test_repeated_update_is_idempotent_at_zero_residual():
    s = Smoother()
    k = s.add_variable(Pose2(1, 1, 1))
    s.add_factor(PriorFactor(k, Pose2(0, 0, 0), UNIT))
    s.add_factor(MeasurementFactor(k, Pose2(0, 0, 0), UNIT))
    s.update()
    first = s.pose_estimate(k)
    report = s.update()
    assert report.iterations == 0
    assert s.pose_estimate(k) == first


def test_update_on_converged_graph_is_quiet():
    s = Smoother()
    k = s.add_variable()
    s.add_factor(PriorFactor(k, Pose2(0, 0, 0), UNIT))
    s.add_factor(MeasurementFactor(k, Pose2(2, 0, 0), UNIT))
    s.update()
    first = s.pose_estimate(k)
    report = s.update()
    assert report.iterations <= 1
    assert pose_diff(s.pose_estimate(k), first) < 1e-12


def test_graph_snapshot_roundtrip():
    s = Smoother()
    k = s.add_variable()
    s.add_factor(MeasurementFactor(k, Pose2(1, 0, 0), UNIT))
    g = s.graph()
    assert g.num_variables == 1
    assert len(g.factors) == 1
    assert g.is_gauge_fixed()


def test_determinism_of_update():
    def run():
        s = Smoother()
        rng = make_rng(97)
        for k in range(30):
            s.add_variable()
            s.add_factor(MeasurementFactor(k, random_pose(rng), DiagonalNoise(2.0, 2.0, 0.5)))
            if k:
                s.add_factor(BetweenFactor(k - 1, k, Pose2(1, 0, 0.1), DiagonalNoise(0.1, 0.1, 0.03)))
            s.update()
        return [s.pose_estimate(k).as_tuple() for k in range(30)]

    assert run() == run()


def test_marginal_follows_factor_added_after_update():
    fix = Pose2(1.0, 2.0, 0.3)
    s = Smoother()
    k = s.add_variable(fix)
    s.add_factor(MeasurementFactor(k, fix, DiagonalNoise(*(3 * [math.sqrt(2.0)]))))
    s.update()
    assert np.allclose(s.marginal_sigma(k), 3 * [math.sqrt(2.0)], rtol=1e-9)
    s.add_factor(MeasurementFactor(k, fix, DiagonalNoise(0.01, 0.01, 0.01)))
    fresh = Smoother()
    fresh.add_variable(fix)
    for f in s.graph().factors:
        fresh.add_factor(f)
    fresh.update()
    want = fresh.marginal_sigma(k)
    assert np.allclose(want, 3 * [0.01], rtol=1e-3)
    assert np.allclose(s.marginal_sigma(k), want, rtol=1e-12)


def _loop_graph_smoother():
    """A 30-pose chain with fixes and a span-29 loop closure, solved, in sparse mode."""
    rng = make_rng(101)
    steps = _random_incremental_graph(rng, 30, meas_sigma=(0.02, 0.05), odo_sigma=(0.002, 0.008), closure_rate=0.0)
    s, _ = _solve_incrementally(steps)
    s.add_factor(BetweenFactor(0, 29, steps[0][0].measured.between(steps[-1][0].measured), UNIT))
    s.update()
    assert s._pattern()["mode"] == "sparse"
    return s


def _chain_smoother():
    s = Smoother()
    for k in range(5):
        s.add_variable()
        s.add_factor(MeasurementFactor(k, Pose2(k, 0, 0), UNIT))
        if k:
            s.add_factor(BetweenFactor(k - 1, k, Pose2(1, 0, 0), UNIT))
    s.update()
    assert s._pattern()["mode"] == "banded"
    return s


@pytest.mark.parametrize("build", [_chain_smoother, _loop_graph_smoother])
def test_overflowing_fix_raises_gauge_error_without_warnings(build):
    s = build()
    key = s.num_variables - 1
    s.add_factor(MeasurementFactor(key, Pose2(1e300, 1e300, 0.0), UNIT))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GaugeError):
            s.update()
        with pytest.raises(GaugeError):
            s.marginal_sigma(key)


def _scratch_normal_equations(s):
    """Normal equations of s at its values, through a pattern built in one go."""
    fresh = Smoother()
    for row in s._x.view():
        fresh.add_variable(Pose2(*row))
    for f in s.graph().factors:
        fresh.add_factor(f)
    pattern = fresh._pattern()
    return pattern, fresh._linearize(fresh._evaluate(fresh._x.view())[1], pattern)


def test_incremental_pattern_matches_one_built_from_scratch():
    rng = make_rng(103)
    s = Smoother()

    def noise():
        return DiagonalNoise(*rng.uniform(0.05, 3.0, 3))

    def add_pose():
        k = s.add_variable(random_pose(rng))
        s.add_factor(MeasurementFactor(k, random_pose(rng), noise()))
        if k:
            s.add_factor(BetweenFactor(k - 1, k, random_pose(rng, span=3.0), noise()))

    def closure(a, b):
        return lambda: s.add_factor(BetweenFactor(a, b, random_pose(rng, span=3.0), noise()))

    # each stage is compared with a pattern built in one go after it is added;
    # in sparse mode, "mid" stages must insert a key before the last one
    stages = [
        ("banded", None, lambda: [add_pose() for _ in range(20)]),
        ("banded", None, add_pose),  # a new variable, appended
        ("banded", None, closure(20, 18)),  # a wider band: rebuilt
        ("banded", None, lambda: s.add_factor(PriorFactor(4, random_pose(rng), noise()))),
        ("sparse", None, closure(0, 20)),  # flips to sparse
        ("sparse", "mid", closure(9, 2)),
        ("sparse", "mid", add_pose),  # a new variable: odometry enters the previous key's column
        ("sparse", "mid", closure(3, 7)),
        ("sparse", "same", closure(7, 3)),  # no new key
        ("sparse", "mid", lambda: [add_pose() for _ in range(20)]),  # the stores grow
    ]
    for mode, keys, stage in stages:
        old = s._pattern_cache["csc"].copy() if s._pattern_cache else None
        stage()
        pattern = s._pattern()
        assert pattern["mode"] == mode
        system, g = s._linearize(s._evaluate(s._x.view())[1], pattern)
        want_pattern, (want_system, want_g) = _scratch_normal_equations(s)
        assert np.array_equal(g, want_g)
        if mode == "banded":
            assert pattern["u"] == want_pattern["u"]
            assert np.array_equal(system, want_system)
            continue
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(system, name), getattr(want_system, name))
        if keys == "mid":
            assert len(pattern["csc"]) > len(old)
            assert not np.array_equal(pattern["csc"][: len(old)], old)
        elif keys == "same":
            assert np.array_equal(pattern["csc"], old)
