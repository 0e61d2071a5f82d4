"""Optimizer behavior: closed forms, incremental-vs-batch, marginals, reports.

The batch oracle here is an independent dense Gauss-Newton: it assembles the
full normal equations with numpy from the factor-level residuals/jacobians
and never touches the library's sparse/banded assembly paths.
"""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse

from se2fusion import (
    BetweenFactor,
    DiagonalNoise,
    GaugeError,
    MeasurementFactor,
    Pose2,
    PriorFactor,
    Smoother,
    Twist2,
)
from se2fusion import smoother
from se2fusion.cli import RunConfig, _driver_from_config
from se2fusion.noise import MEASUREMENT_DEFAULT, ODOMETRY_DEFAULT, PRIOR_DEFAULT
from se2fusion.simulate import SimConfig, generate
from se2fusion.smoother import (
    _ABSOLUTE_TOLERANCE,
    _FROM_ENTRIES,
    _MAX_ITERATIONS,
    _RELATIVE_TOLERANCE,
    _TO_ENTRIES,
    _csc,
    _frame_system,
    _jacobians,
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


def linearize(s, terms, pattern):
    """The smoother's own normal equations (system, g) at the point terms came from."""
    jac = _jacobians(terms)
    return s._linearize(terms, jac, pattern), s._gradient(terms, jac, pattern)


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


def test_add_variable_initialization_follows_odometry(monkeypatch):
    monkeypatch.setattr("se2fusion.smoother._MAX_ITERATIONS", 0)
    s = Smoother()
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
    s.add_variable()
    # a key that is not an integer is unknown too, not cut to one
    for key in (2, -1, 1.5, True, np.bool_(True), "1"):
        with pytest.raises(KeyError):
            s.add_factor(MeasurementFactor(key, Pose2(0, 0, 0), UNIT))
        with pytest.raises(KeyError):
            s.add_factor(BetweenFactor(0, key, Pose2(1, 0, 0), UNIT))
    assert len(s._graph.un_keys) == s._graph.bt_keys.shape[1] == 0
    s.add_factor(MeasurementFactor(np.int64(1), Pose2(0, 0, 0), UNIT))
    assert s._graph.un_keys.tolist() == [1]


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


def _exact_graph(n, closure):
    """A solved graph of n poses with exact fixes and odometry, and its factors.

    closure adds a span n - 1 loop closure, which puts the graph in sparse mode.
    """
    factors = [MeasurementFactor(k, Pose2(k, 0, 0), UNIT) for k in range(n)]
    factors += [BetweenFactor(k - 1, k, Pose2(1, 0, 0), UNIT) for k in range(1, n)]
    if closure:
        factors.append(BetweenFactor(0, n - 1, Pose2(n - 1, 0, 0), UNIT))
    s = Smoother()
    for _ in range(n):
        s.add_variable()
    for f in factors:
        s.add_factor(f)
    s.update()
    return s, factors


@pytest.mark.parametrize("mode, closure", [("banded", False), ("sparse", True)])
def test_variable_no_factor_touches_raises_gauge_error(mode, closure):
    # the start error is already below absolute_tolerance, so no step is taken
    s, _ = _exact_graph(20, closure)
    assert s._pattern()["mode"] == mode
    estimate = s.estimate()
    s.add_variable()
    with pytest.raises(GaugeError):
        s.update()
    assert s.estimate() == estimate


@pytest.mark.parametrize("anchored", [False, True], ids=["no-anchor", "singular"])
def test_rejected_update_changes_nothing(anchored):
    # no anchor: update() finds no unary factor; anchored: pose 1 is pending
    # and no factor touches it, so H is singular
    def build():
        s = Smoother()
        s.add_variable(Pose2(0, 0, 0))
        s.add_variable()
        if anchored:
            s.add_factor(PriorFactor(0, Pose2(0, 0, 0), UNIT))
        return s

    def finish(s):
        s.add_factor(BetweenFactor(0, 1, Pose2(1, 2, 3), UNIT))
        if not anchored:
            s.add_factor(PriorFactor(0, Pose2(0, 0, 0), UNIT))
        return s.update()

    s, fresh = build(), build()
    with pytest.raises(GaugeError):
        s.update()
    assert finish(s).error_history == finish(fresh).error_history
    assert s.estimate() == fresh.estimate()


def test_start_value_that_overflows_raises_gauge_error():
    s = Smoother()
    s.add_variable(Pose2(1e308, 0, 0))
    s.add_factor(PriorFactor(0, Pose2(1e308, 0, 0), UNIT))
    s.add_variable()
    s.add_factor(BetweenFactor(0, 1, Pose2(1e308, 0, 0), UNIT))
    graph = s._graph
    with pytest.raises(GaugeError):
        s.update()
    assert s._graph is graph and graph.pending == (1,) and graph.n_solved == 0


def test_marginal_reuses_the_factorization_of_an_update_without_a_step():
    s, factors = _exact_graph(12, False)
    assert s.update().iterations == 0
    assert s._graph.solve is not None
    h, _ = dense_normal_equations(12, factors, s.estimate())
    cov = np.linalg.inv(h)
    for k in (0, 5, 11):
        want = np.sqrt(np.diag(cov)[3 * k : 3 * k + 3])
        assert np.allclose(s.marginal_sigma(k), want, atol=1e-9, rtol=1e-9)


def test_marginals_follow_the_estimate_and_truncate_restores_them(monkeypatch):
    # a marginal read leaves its solve on the graph; an update() of that same
    # graph that moves the estimate must not pass the solve on
    factors, init = _cold_start_loop_graph(120, n=20)
    s = Smoother()
    for k in range(len(init)):
        s.add_variable(init[k])
    for f in factors:
        s.add_factor(f)
    keys = (0, 9, 19)

    def sigmas():
        return [s.marginal_sigma(k) for k in keys]

    def oracle():
        cov = np.linalg.inv(dense_normal_equations(len(init), factors, s.estimate())[0])
        return [np.sqrt(np.diag(cov)[3 * k : 3 * k + 3]) for k in keys]

    monkeypatch.setattr("se2fusion.smoother._MAX_ITERATIONS", 1)
    assert s.update().stop_reason == "max_iterations"
    first = sigmas()
    assert np.allclose(first, oracle(), atol=1e-9, rtol=1e-9)
    mark = s.checkpoint()
    monkeypatch.undo()
    assert s.update().iterations > 0
    moved = sigmas()
    assert not np.allclose(moved, first, atol=0.0, rtol=1e-6)
    assert np.allclose(moved, oracle(), atol=1e-9, rtol=1e-9)
    # the mark keeps the solve of its estimate
    calls, factorize = [], s._factorize
    s._factorize = lambda *args: calls.append(args) or factorize(*args)
    s.truncate(mark)
    assert sigmas() == first
    assert calls == []


def test_non_convergence_reported_not_raised(monkeypatch):
    monkeypatch.setattr("se2fusion.smoother._MAX_ITERATIONS", 1)
    s = Smoother()
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
        assert report.iterations <= _MAX_ITERATIONS
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
    _, terms = s._evaluate(s._graph.x, pattern)
    system, g = linearize(s, terms, pattern)
    if pattern["mode"] == "sparse":
        return pattern["mode"], system.toarray(), np.asarray(g)
    dim = pattern["dim"]
    h = np.zeros((dim, dim))
    for k in range(system.shape[0]):
        i = np.arange(dim - k)
        h[i + k, i] = system[k, : dim - k]
        h[i, i + k] = system[k, : dim - k]
    return pattern["mode"], h, np.asarray(g)


def _csc_reference(dim, factors):
    """The structure of H in canonical CSC form: a dense 3x3 block for every pair of keys that share a factor."""
    cells = [
        (3 * a + i, 3 * b + j) for f in factors for a in f.keys() for b in f.keys() for i in range(3) for j in range(3)
    ]
    rows, cols = np.array(cells).T
    ref = scipy.sparse.csc_matrix((np.ones(len(cells)), (rows, cols)), shape=(dim, dim))
    ref.sum_duplicates()
    return ref


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
        if mode == "sparse":
            # the dense comparison above passes for any consistent order of
            # the stored entries. splu sorts a matrix out of canonical order
            # in place, and the matrix shares its indices with the graph's
            # pattern, so every later assembly would scatter to stale places
            pattern = s._pattern()
            system, _ = linearize(s, s._evaluate(s._graph.x, pattern)[1], pattern)
            ref = _csc_reference(3 * n, factors)
            assert np.array_equal(system.indptr, ref.indptr)
            assert np.array_equal(system.indices, ref.indices)
            assert system.has_canonical_format


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
    _check_marginals_against_dense_inverse(incremental=False)


def test_marginal_after_a_bordered_update_matches_dense_inverse_oracle():
    _check_marginals_against_dense_inverse(incremental=True)


def _check_marginals_against_dense_inverse(incremental):
    """A chain solved once, or frame by frame, where the last update's first step is bordered."""
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
        if incremental or k == n - 1:
            report = s.update()
    assert report.bordered == incremental
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
    s.add_variable(Pose2(1, 0, 0))
    s.add_factor(MeasurementFactor(0, Pose2(0, 0, 0), UNIT))
    s.add_factor(MeasurementFactor(1, Pose2(1, 0, 0), DiagonalNoise(2.0, 2.0, 2.0)))
    s.update()
    # a key that is not an integer is unknown, not cut to one
    for key in (3, 1.5, True, np.bool_(True), "1"):
        with pytest.raises(KeyError):
            s.marginal_sigma(key)
        with pytest.raises(KeyError):
            s.pose_estimate(key)
    assert s.marginal_sigma(np.int64(1)) == s.marginal_sigma(1)
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
    factors = [
        MeasurementFactor(0, fix, DiagonalNoise(*(3 * [math.sqrt(2.0)]))),
        MeasurementFactor(0, fix, DiagonalNoise(0.01, 0.01, 0.01)),
    ]
    s = Smoother()
    k = s.add_variable(fix)
    s.add_factor(factors[0])
    s.update()
    assert np.allclose(s.marginal_sigma(k), 3 * [math.sqrt(2.0)], rtol=1e-9)
    s.add_factor(factors[1])
    fresh = Smoother()
    fresh.add_variable(fix)
    for f in factors:
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


def _scratch_normal_equations(s, factors):
    """Normal equations of s, which holds factors, at its values, through a pattern built in one go."""
    fresh = Smoother()
    for row in s._graph.x:
        fresh.add_variable(Pose2(*row))
    for f in factors:
        fresh.add_factor(f)
    pattern = fresh._pattern()
    return pattern, linearize(fresh, fresh._evaluate(fresh._graph.x, pattern)[1], pattern)


def test_incremental_pattern_matches_one_built_from_scratch():
    rng = make_rng(103)
    s = Smoother()
    factors = []

    def noise():
        return DiagonalNoise(*rng.uniform(0.05, 3.0, 3))

    def add(f):
        s.add_factor(f)
        factors.append(f)

    def add_pose():
        k = s.add_variable(random_pose(rng))
        add(MeasurementFactor(k, random_pose(rng), noise()))
        if k:
            add(BetweenFactor(k - 1, k, random_pose(rng, span=3.0), noise()))

    def closure(a, b):
        return lambda: add(BetweenFactor(a, b, random_pose(rng, span=3.0), noise()))

    # each stage is compared with a pattern built in one go after it is added
    stages = [
        ("banded", lambda: [add_pose() for _ in range(20)]),
        ("banded", add_pose),  # a new variable
        ("banded", closure(20, 18)),  # a wider band
        ("banded", lambda: add(PriorFactor(4, random_pose(rng), noise()))),
        ("sparse", closure(0, 20)),  # flips to sparse
        ("sparse", closure(9, 2)),
        ("sparse", add_pose),  # a new variable: odometry enters the previous key's column
        ("sparse", closure(3, 7)),
        ("sparse", closure(7, 3)),  # no new block
        ("sparse", lambda: [add_pose() for _ in range(20)]),  # the stores grow
    ]
    for mode, stage in stages:
        stage()
        pattern = s._pattern()
        assert pattern["mode"] == mode
        system, g = linearize(s, s._evaluate(s._graph.x, pattern)[1], pattern)
        want_pattern, (want_system, want_g) = _scratch_normal_equations(s, factors)
        assert np.array_equal(g, want_g)
        if mode == "banded":
            assert pattern["u"] == want_pattern["u"]
            assert np.array_equal(system, want_system)
            continue
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(system, name), getattr(want_system, name))


def _banded_pattern_reference(s):
    """h_idx and g_rows of s's banded pattern, placed entry by entry: H entry (r, c) at min(r, c) u + max(r, c)."""
    g = s._graph
    bt_from, bt_to = g.bt_keys
    u = s._pattern()["u"]
    keys = [np.concatenate([g.un_keys, bt_to])[:, None], np.column_stack([bt_from, bt_to])]
    cells = [(3 * k[:, e[0]] + e[1], 3 * k[:, e[2]] + e[3]) for e, k in zip((_TO_ENTRIES, _FROM_ENTRIES), keys)]
    places = [np.minimum(r, c) * u + np.maximum(r, c) for r, c in cells]
    h_idx = np.concatenate([h.T.ravel() for h in places])
    g_rows = np.concatenate([(3 * k[:, :1] + np.arange(3)).T.ravel() for k in keys])
    return h_idx, g_rows


@pytest.mark.parametrize("seed", range(131, 136))
def test_banded_pattern_matches_entry_by_entry_placement(seed):
    rng = make_rng(seed)
    n = int(rng.integers(2, 30))
    s = Smoother()
    for k in range(n):
        s.add_variable(random_pose(rng))
    # two unary factors on key 0, a backward between factor, and between
    # factors of spans up to 15, the widest that stays banded
    factors = [PriorFactor(0, random_pose(rng), UNIT), MeasurementFactor(0, random_pose(rng), UNIT)]
    factors += [BetweenFactor(1, 0, random_pose(rng), UNIT)]
    for _ in range(2 * n):
        a, b = rng.choice(n, 2, replace=False)
        if abs(a - b) <= 15:
            factors.append(BetweenFactor(int(a), int(b), random_pose(rng), UNIT))
        if rng.random() < 0.5:
            factors.append(MeasurementFactor(int(a), random_pose(rng), UNIT))
    for i in rng.permutation(len(factors)):
        s.add_factor(factors[i])
    pattern = s._pattern()
    assert pattern["mode"] == "banded"
    h_idx, g_rows = _banded_pattern_reference(s)
    for got, want in ((pattern["h_idx"], h_idx), (pattern["g_rows"], g_rows)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


def _chain(n):
    """n poses with fixes and odometry, solved in banded mode."""
    s = Smoother()
    for k in range(n):
        s.add_variable()
        s.add_factor(MeasurementFactor(k, Pose2(k, 0, 0), UNIT))
        if k:
            s.add_factor(BetweenFactor(k - 1, k, Pose2(1, 0, 0), UNIT))
    s.update()
    return s


def _solve_pending_pair(s, a):
    """Factors on the pending poses a and a + 1, then update; a's first odometry edge comes from a + 1."""
    s.add_factor(BetweenFactor(a + 1, a, Pose2(-0.5, 0.2, 0.1), UNIT))
    s.add_factor(BetweenFactor(a, a + 1, Pose2(0.5, -0.2, -0.1), UNIT))
    s.add_factor(BetweenFactor(a - 1, a, Pose2(1.0, 0.0, 0.0), UNIT))
    s.add_factor(MeasurementFactor(a + 1, Pose2(a + 1.0, 0.0, 0.0), UNIT))
    s.update()


def test_truncate_returns_to_the_checkpoint():
    s, fresh = _chain(20), _chain(20)
    estimate = s.estimate()
    for sm in (s, fresh):
        a = sm.add_variable()
        sm.add_variable()
    mark = s.checkpoint()
    # a failed update leaves the pending poses pending
    s.add_factor(MeasurementFactor(a - 1, Pose2(1e300, 0.0, 0.0), UNIT))
    with pytest.raises(GaugeError):
        s.update()
    s.truncate(mark)
    assert s.estimate() == estimate
    # growing again matches a smoother that never saw what was dropped
    for sm in (s, fresh):
        _solve_pending_pair(sm, a)
    assert s.estimate() == fresh.estimate()

    # a solved loop closure flips to sparse; dropping it returns to the band
    estimate, sigma = s.estimate(), s.marginal_sigma(a)
    mark = s.checkpoint()
    k = s.add_variable()
    s.add_factor(BetweenFactor(0, k, Pose2(k, 0.0, 0.0), UNIT))
    s.add_factor(MeasurementFactor(k, Pose2(k, 0.0, 0.0), UNIT))
    s.update()
    assert s._pattern()["mode"] == "sparse"
    s.marginal_sigma(k)
    s.truncate(mark)
    for name in ("un_keys", "un", "bt_keys", "bt"):
        assert getattr(s._graph, name).tobytes() == getattr(fresh._graph, name).tobytes()
    assert s.estimate() == estimate
    assert s.marginal_sigma(a) == sigma
    for sm in (s, fresh):
        k = sm.add_variable()
        sm.add_factor(BetweenFactor(k - 1, k, Pose2(1.0, 0.0, 0.0), UNIT))
        sm.add_factor(MeasurementFactor(k, Pose2(k, 1.0, 0.0), UNIT))
        sm.update()
    assert s._pattern()["mode"] == "banded"
    assert s.estimate() == fresh.estimate()


def test_truncate_returns_to_any_mark():
    # m2 is taken after m1, and restored after a branch grown from m1
    def start():
        s = Smoother()
        s.add_variable(Pose2(0, 0, 0))
        s.add_factor(PriorFactor(0, Pose2(0, 0, 0), UNIT))
        s.update()
        return s

    def grow(s, relative):
        s.add_variable()
        s.add_factor(BetweenFactor(0, 1, relative, DiagonalNoise(0.01, 0.01, 0.01)))
        s.add_factor(MeasurementFactor(1, Pose2(1, 0, 0), UNIT))
        s.update()

    s, fresh, branch = start(), start(), start()
    m1 = s.checkpoint()
    for sm in (s, fresh):
        grow(sm, Pose2(1, 0, 0))
    m2 = s.checkpoint()
    # a fix and a solve that add no variable
    s.add_factor(MeasurementFactor(1, Pose2(3, 0, 0), UNIT))
    s.update()
    s.truncate(m1)
    # as many variables and factors as m2, and another odometry edge
    for sm in (s, branch):
        grow(sm, Pose2(5, 5, 0))
    assert s.estimate() == branch.estimate()
    assert s.marginal_sigma(1) == branch.marginal_sigma(1)
    s.truncate(m2)
    assert s.estimate() == fresh.estimate()
    assert s.marginal_sigma(1) == fresh.marginal_sigma(1)
    assert s.update().error_history == fresh.update().error_history
    assert s.estimate() == fresh.estimate()
    s.truncate(m1)
    assert s.estimate() == start().estimate()


def _gauss_newton_history(s):
    """error_history, stop reason, bordered flag and factorizations of Gauss-Newton from s's start point.

    A step converges when its predicted decrease -g^T delta / 2 is at most
    _RELATIVE_TOLERANCE times the error at its start: the solve ends after
    it, or at its start when its line search finds no decrease. The first
    step may take the base graph's factor bordered by the new pose, when
    s._bordered_start gives one and its line search a decrease; its
    prediction ends nothing, as its gradient is the new factors'. Every other
    step factorizes H, but from the third point on the factor of the step
    before, back-solved at the new point, goes first when its prediction
    converges and its line search finds no higher error. It runs s's own
    evaluation, assembly, factorization and line search, and changes nothing
    in s.
    """
    pattern = s._pattern()
    x = s._graph.x.copy()
    s._activate_pending(x)
    start = s._bordered_start(x, pattern)
    step = None
    if start is not None:
        err, g, solve = start
        delta = solve(-g)
        step = s._line_search(x, err, delta, pattern) if np.isfinite(delta).all() else None
    bordered = step is not None
    if not bordered:
        err, terms = s._evaluate(x, pattern)
    history = [err]
    factorizations = 0
    if err <= _ABSOLUTE_TOLERANCE:
        # update() factorizes once to check that H is regular
        return history, "abs_tol", bordered, 1
    for _ in range(_MAX_ITERATIONS):
        converges = False
        if step is None:
            jac = _jacobians(terms)
            g = s._gradient(terms, jac, pattern)
            if len(history) > 2:
                delta = solve(-g)
                pred = -0.5 * float(g @ delta)
                converges = math.isfinite(pred) and pred <= _RELATIVE_TOLERANCE * err
                step = s._line_search(x, err, delta, pattern) if converges else None
            if step is None:
                solve, _ = s._factorize(s._linearize(terms, jac, pattern), pattern)
                factorizations += 1
                delta = solve(-g)
                pred = -0.5 * float(g @ delta)
                converges = math.isfinite(pred) and pred <= _RELATIVE_TOLERANCE * err
                step = s._line_search(x, err, delta, pattern)
                if step is None:
                    return history, "decrement" if converges else "no_descent", bordered, factorizations
        x, err, terms = step
        step = None
        history.append(err)
        if err <= _ABSOLUTE_TOLERANCE:
            return history, "abs_tol", bordered, factorizations
        if converges:
            return history, "decrement", bordered, factorizations
    return history, "max_iterations", bordered, factorizations


@pytest.mark.parametrize("meas_sigma, odo_sigma", [((0.5, 2.0), (0.02, 0.1)), ((10.0, 20.0), (0.01, 0.03))])
def test_banded_updates_are_gauss_newton_confirmed_by_a_chord_step(meas_sigma, odo_sigma):
    # the second chain is near-rigid, as the simulator's defaults make it
    rng = make_rng(107)
    s = Smoother()
    n_bordered = n_confirmed = 0
    for factors in _random_incremental_graph(rng, 60, meas_sigma, odo_sigma, closure_rate=0.0):
        s.add_variable()
        for f in factors:
            s.add_factor(f)
        want, stop_reason, bordered, factorizations = _gauss_newton_history(s)
        report = s.update()
        assert s._pattern()["mode"] == report.mode == "banded"
        assert report.stop_reason == stop_reason
        assert report.bordered == bordered
        assert report.factorizations == factorizations
        assert report.error_history == tuple(want)
        n_bordered += bordered
        # a chord step that confirms convergence saves the last
        # factorization, and a bordered first step the first
        n_confirmed += factorizations == report.iterations - 1 - bordered
    # every frame but the first two, whose band is still growing
    assert n_bordered == 58
    assert n_confirmed > 0


def _default_driver(sim, n_frames):
    """A cli.FusionDriver with the defaults, fed the first n_frames frames of sim."""
    driver = _driver_from_config(RunConfig())
    driver.set_prior(sim.prior)
    for sample in sim.odometry:
        driver.add_odometry(sample)
    for ts, pose in sim.measurements[:n_frames]:
        driver.add_measurement(ts, pose)
    return driver


def _add_frame(s, fix, relative=Pose2(1.0, 0.0, 0.05), back=1):
    """A pose, odometry into it from the pose back keys before and a fix on it, as FusionDriver adds a frame."""
    k = s.add_variable()
    s.add_factor(BetweenFactor(k - back, k, relative, ODOMETRY_DEFAULT))
    s.add_factor(MeasurementFactor(k, fix, MEASUREMENT_DEFAULT))
    return k


@pytest.mark.parametrize("mode, seed", [("banded", 5), ("banded", 6), ("sparse", 7)], ids=["5", "6", "sparse"])
def test_bordered_factor_matches_a_full_factorization(mode, seed):
    # hold a factor of H at the estimate, where the appended frame leaves the
    # old poses, so that H at the start point is the bordered matrix: the band
    # factor of a default chain, or the solve a marginal read leaves on a loop
    # graph, whose frame closes a loop
    if mode == "banded":
        sim = generate(SimConfig(seed=seed, n_frames=301))
        s = _default_driver(sim, 300).smoother
    else:
        s, _, _, frame = _sparse_frame_after_a_marginal_read(closure=True)
    pattern = s._pattern()
    held_err, terms = s._evaluate(s._graph.x, pattern)
    system, g_held = linearize(s, terms, pattern)
    if mode == "banded":
        s._graph = s._graph._replace(band=s._factorize(system, pattern)[1], err=held_err)
        _add_frame(s, sim.measurements[300][1])
    else:
        assert s._graph.solve is not None and s._graph.err == pytest.approx(held_err, rel=1e-12)
        _add(s, frame)
    pattern = s._pattern()
    assert pattern["mode"] == mode
    x = s._graph.x.copy()
    s._activate_pending(x)
    err, g, solve = s._bordered_start(x, pattern)

    want_err, terms = s._evaluate(x, pattern)
    system, want_g = linearize(s, terms, pattern)
    want_solve, want_factor = s._factorize(system, pattern)
    if mode == "banded":
        # the band extension of the frame's H on the pose before and the new pose
        gr, base = s._graph, s._graph.base
        nu, nb = len(base.un_keys), len(base.bt)
        _, _, h = _frame_system(x[-2:].tolist(), [1] * (len(gr.un) - nu), gr.un[nu:].tolist(), [(0, 1)], gr.bt[nb:].tolist())
        band = smoother._bordered_band(base.band, h)
        assert band.shape == want_factor.shape
        assert np.max(np.abs(band - want_factor)) <= 1e-12 * np.max(np.abs(want_factor))
    assert err == pytest.approx(want_err, rel=1e-12)
    # g is that of the new factors alone: H's gradient less the held graph's
    want_g[: len(g_held)] -= g_held
    assert np.max(np.abs(g - want_g)) <= 1e-9 * np.max(np.abs(want_g))
    rhs = make_rng(seed).normal(size=(len(want_g), 4))
    want = want_solve(rhs)
    assert np.max(np.abs(solve(rhs) - want)) <= 1e-10 * np.max(np.abs(want))


def test_frame_system_matches_dense_normal_equations():
    # a frame's two poses, a fix on each and odometry between them, forward or
    # backward, with every factor error's rotation in the series branch
    rng = make_rng(97)

    def noise():
        return DiagonalNoise(*rng.uniform(0.05, 3.0, 3))

    worst = 0.0
    for theta in (3e-5, -3e-5, 5e-5, -5e-5):
        for a, b in ((0, 1), (1, 0)):
            for _ in range(25):
                x = [random_pose(rng), random_pose(rng)]
                errors = [Pose2(*rng.uniform(-10.0, 10.0, size=2), theta).inverse() for _ in range(3)]
                factors = [MeasurementFactor(k, x[k].compose(errors[k]), noise()) for k in (0, 1)]
                factors.append(BetweenFactor(a, b, x[a].between(x[b]).compose(errors[2]), noise()))
                # the rows the smoother stores, as the bordered step reads them
                s = Smoother()
                for pose in x:
                    s.add_variable(pose)
                for f in factors:
                    s.add_factor(f)
                gr = s._graph
                bt_keys = [tuple(k) for k in gr.bt_keys.T.tolist()]
                err, g, h = _frame_system(gr.x.tolist(), gr.un_keys.tolist(), gr.un.tolist(), bt_keys, gr.bt.tolist())
                values = dict(enumerate(x))
                want_h, want_g = dense_normal_equations(2, factors, values)
                want_err = 0.5 * sum(f.noise.mahalanobis_sq(f.residual(values)) for f in factors)
                worst = max(
                    worst,
                    abs(err - want_err) / want_err,
                    np.max(np.abs(g - want_g)) / np.max(np.abs(want_g)),
                    np.max(np.abs(h - want_h)) / np.max(np.abs(want_h)),
                )
    assert worst <= 1e-12


def _refuse_first_line_search(s):
    line_search = s._line_search
    calls = []

    def refusing(*args):
        calls.append(None)
        return None if len(calls) == 1 else line_search(*args)

    s._line_search = refusing


def _first_update(s):
    # a chain solved once, in one update; the factors of _chain(20) and a frame
    fresh = Smoother()
    for k in range(21):
        fresh.add_variable()
        fresh.add_factor(MeasurementFactor(k, Pose2(k, 0, 0), UNIT))
        if k:
            fresh.add_factor(BetweenFactor(k - 1, k, Pose2(1, 0, 0), UNIT))
    return fresh


def _branch(s):
    # a frame solved, then dropped for two others: as many poses as the mark and one more
    mark = s.checkpoint()
    _add_frame(s, Pose2(20, 1, 0))
    assert s.update().bordered
    s.truncate(mark)
    for _ in range(2):
        _add_frame(s, Pose2(21, -1, 0), relative=Pose2(1, 0, -0.05))
    return s


def _old_key(s):
    _add_frame(s, Pose2(20, 1, 0))
    s.add_factor(MeasurementFactor(15, Pose2(15, 1, 0), UNIT))
    return s


def _wider_band(s):
    # odometry from two poses back, past a pose without a fix
    s.add_variable()
    s.add_factor(BetweenFactor(19, 20, Pose2(1, 0, 0), UNIT))
    s.update()
    _add_frame(s, Pose2(21, 1, 0), back=2)
    return s


def _loop_closure(s):
    k = _add_frame(s, Pose2(20, 1, 0))
    s.add_factor(BetweenFactor(0, k, Pose2(k, 0, 0), UNIT))
    return s


def _read_then_loop_closure(s):
    # the banded base holds the solve of a marginal read, but the frame turns
    # the graph sparse, whose bordered start needs a sparse base
    s.marginal_sigma(19)
    return _loop_closure(s)


@pytest.mark.parametrize(
    "build, mode",
    [
        (_first_update, "banded"),
        (_branch, "banded"),
        (_old_key, "banded"),
        (_wider_band, "banded"),
        (_loop_closure, "sparse"),
        (_read_then_loop_closure, "sparse"),
    ],
    ids=["first-update", "truncate-then-branch", "factor-on-an-old-key", "wider-band", "sparse", "banded-solve-then-sparse"],
)
def test_updates_that_do_not_append_a_frame_take_the_full_pass(build, mode):
    s = build(_chain(20))
    # the full pass from the same point, as with no factor held
    twin = build(_chain(20))
    twin._bordered_start = lambda *_: None
    report, want = s.update(), twin.update()
    assert report.mode == mode
    assert not report.bordered
    assert report.error_history == want.error_history
    assert s.estimate() == twin.estimate()


def test_bordered_step_without_descent_falls_back_to_a_full_pass():
    s, twin = _chain(20), _chain(20)
    for sm in (s, twin):
        _add_frame(sm, Pose2(20, 1, 0))
    twin._bordered_start = lambda *_: None
    _refuse_first_line_search(s)
    assert s._bordered_start(s._graph.x.copy(), s._pattern()) is not None
    report, want = s.update(), twin.update()
    assert not report.bordered
    assert report == replace(want, duration_ms=report.duration_ms)
    assert s.estimate() == twin.estimate()


def test_a_frame_after_truncate_borders_the_factor_of_the_mark():
    # the mark holds the band factor its own update left, which two later
    # frames do not touch
    s, twin = _chain(20), _chain(20)
    mark = s.checkpoint()
    for x in (20, 21):
        _add_frame(s, Pose2(x, 1, 0))
        assert s.update().bordered
    s.truncate(mark)
    for sm in (s, twin):
        _add_frame(sm, Pose2(20, -1, 0))
    report, want = s.update(), twin.update()
    assert report.bordered
    assert report == replace(want, duration_ms=report.duration_ms)
    assert s.estimate() == twin.estimate()


def test_a_bordered_step_does_not_end_the_solve():
    # a frame whose odometry and fix agree with the estimate: the bordered
    # step predicts about no decrease, but its gradient is the new factors'
    # alone, so a Gauss-Newton step follows
    s = _chain(20)
    _add_frame(s, Pose2(20, 1, 0))
    s.update()
    relative = Pose2(1.0, 0.0, 0.05)
    _add_frame(s, s.pose_estimate(20).compose(relative), relative)
    report = s.update()
    assert report.bordered
    assert report.stop_reason == "decrement"
    assert (report.iterations, report.factorizations) == (2, 1)


def test_default_chains_border_every_frame_after_the_first_two():
    # counts repeat exactly, unlike times; the parent of the bordered step
    # (commit 5e8a90b) read 3.245 iterations and 2.255 full factorizations
    # per update on this chain
    parent_iterations, parent_factorizations = 3.245, 2.255
    reports = _default_driver(generate(SimConfig(seed=1, n_frames=200)), 200).reports
    # frame 0 has nothing to border, and frame 1 widens frame 0's band, a
    # single pose's, to a chain's
    assert [r.bordered for r in reports] == [False, False] + [True] * 198
    assert all(r.mode == "banded" for r in reports)
    assert sum(r.factorizations for r in reports) / len(reports) <= parent_factorizations - 0.9
    assert sum(r.iterations for r in reports) / len(reports) <= parent_iterations + 0.01


def test_step_without_descent_converges_at_the_newton_decrement_bound():
    # frame 0 of default seed 30: a converged single pose whose step of
    # 2.75e-9 m finds no lower error, at a predicted decrease of 5e-18 err
    report = _default_driver(generate(SimConfig(seed=30, n_frames=600)), 1).reports[0]
    assert report.stop_reason == "decrement"
    assert report.converged
    # two accepted steps, then a chord step and a Gauss-Newton step that find no descent
    assert (report.iterations, report.factorizations) == (2, 3)


def test_a_small_actual_decrease_does_not_end_the_solve():
    # frame 16 of default seed 3: its third step moves the chain by 8.7e-4 m
    # and cuts the error by only 9.7e-10 of it, but predicted more than
    # _RELATIVE_TOLERANCE of it, so a fourth step, a chord step, confirms
    driver = _default_driver(generate(SimConfig(seed=3, n_frames=40)), 17)
    report = driver.reports[16]
    h = report.error_history
    assert h[2] - h[3] <= _RELATIVE_TOLERANCE * h[2]
    assert report.stop_reason == "decrement"
    assert report.bordered
    assert (report.iterations, report.factorizations) == (4, 2)
    # the Newton step left at the estimate: 1.6e-6, where stopping after the
    # third step left 3.3e-5
    s = driver.smoother
    pattern = s._pattern()
    terms = s._evaluate(s._graph.x, pattern)[1]
    jac = _jacobians(terms)
    solve, _ = s._factorize(s._linearize(terms, jac, pattern), pattern)
    assert np.abs(solve(-s._gradient(terms, jac, pattern))).max() < 1e-5


def _loop_graph_frames(seed, n):
    """Per-frame factors of a loop graph: a prior, odometry, a fix on 4 poses in 5, and from pose 20 on, one time in 10, a loop closure over 15 poses or more."""
    rng = make_rng(seed)
    truth = [Pose2(0, 0, 0)]
    for _ in range(1, n):
        truth.append(truth[-1].compose(Pose2(rng.uniform(0.5, 1.5), rng.uniform(-0.2, 0.2), rng.uniform(-0.25, 0.25))))
    fix, odo = DiagonalNoise(0.03, 0.03, 0.03), DiagonalNoise(0.005, 0.005, 0.005)

    def noisy(p, sig):
        return Pose2(*(np.array(p.as_tuple()) + rng.normal(0.0, sig.sigmas())))

    frames = []
    for k in range(n):
        if k == 0:
            factors = [PriorFactor(0, noisy(truth[0], fix), fix)]
        else:
            factors = [BetweenFactor(k - 1, k, noisy(truth[k - 1].between(truth[k]), odo), odo)]
        if rng.random() < 0.8:
            factors.append(MeasurementFactor(k, noisy(truth[k], fix), fix))
        if k >= 20 and rng.random() < 0.1:
            j = int(rng.integers(0, k - 15, endpoint=True))
            factors.append(BetweenFactor(j, k, noisy(truth[j].between(truth[k]), fix), fix))
        frames.append(factors)
    return frames


def _add(s, factors):
    s.add_variable()
    for f in factors:
        s.add_factor(f)


def test_leaf_frame_patterns_match_a_rebuild_in_their_order(monkeypatch):
    # every frame reads the newest pose's marginal, so each base holds the
    # elimination order of a factorization
    extended = []
    extend = smoother._extended_csc
    monkeypatch.setattr(smoother, "_extended_csc", lambda *args: extended.append(None) or extend(*args))
    s = Smoother()
    for k, factors in enumerate(_loop_graph_frames(131, 120)):
        _add(s, factors)
        g, count = s._graph, len(extended)
        pattern = s._pattern()
        if len(extended) > count:
            assert np.array_equal(pattern["order"], np.r_[k, g.base.order])
            side_keys = (np.concatenate([g.un_keys, g.bt_keys[1]]), g.bt_keys[0])
            for name, want in _csc(side_keys, g.bt_keys, pattern["order"]).items():
                got = pattern[name]
                assert type(got) is type(want) and np.array_equal(got, want), name
                if isinstance(want, np.ndarray):
                    assert got.dtype == want.dtype, name
        s.update()
        s.marginal_sigma(k)
    # the frames a loop closure, or a reorder after one, leaves out
    assert len(extended) >= 60


def _sparse_frame_after_a_marginal_read(closure):
    """A solved sparse loop graph whose newest marginal was read, its twin without the solve that read left, every factor, and those of a frame for both.

    closure adds a loop closure to the frame, else it is a leaf frame.
    """
    frames = _loop_graph_frames(137, 61)
    s = Smoother()
    for factors in frames[:60]:
        _add(s, factors)
        s.update()
    assert s._pattern()["mode"] == "sparse"
    s.marginal_sigma(59)
    twin = Smoother()
    twin._graph = s._graph._replace(solve=None)
    frame = list(frames[60])
    if closure:
        # agrees with the estimate and the frame's odometry
        pose = s.pose_estimate(59).compose(frame[0].relative)
        frame.append(BetweenFactor(12, 60, s.pose_estimate(12).between(pose), DiagonalNoise(0.05, 0.05, 0.05)))
    return s, twin, [f for factors in frames[:60] for f in factors] + frame, frame


@pytest.mark.parametrize("closure", [False, True], ids=["leaf", "loop-closure"])
def test_sparse_frame_after_a_marginal_read_borders_its_solve(closure):
    s, twin, factors, frame = _sparse_frame_after_a_marginal_read(closure)
    for sm in (s, twin):
        _add(sm, frame)
    report, want = s.update(), twin.update()
    assert report.mode == "sparse" and report.bordered and report.factorizations == 0
    assert not want.bordered and want.factorizations > 0
    # the same steps as those of a fresh factorization, to rounding
    assert len(report.error_history) == len(want.error_history)
    assert np.allclose(report.error_history, want.error_history, rtol=1e-12, atol=0.0)
    h, _ = dense_normal_equations(61, factors, s.estimate())
    cov = np.linalg.inv(h)
    for k in (0, 59, 60):
        want_sigma = np.sqrt(np.diag(cov)[3 * k : 3 * k + 3])
        assert np.allclose(s.marginal_sigma(k), want_sigma, atol=0.0, rtol=1e-8)


def test_sparse_frame_whose_pose_no_factor_pins_raises_gauge_error():
    # the held solve cannot be bordered by a pose that no factor touches, so
    # the full pass factorizes and finds H singular
    s, _, _, _ = _sparse_frame_after_a_marginal_read(False)
    s.add_variable()
    graph = s._graph
    with pytest.raises(GaugeError):
        s.update()
    assert s._graph is graph


def test_sparse_updates_reuse_the_factorization():
    rng = make_rng(112)
    steps = _random_incremental_graph(rng, 80, meas_sigma=(0.01, 0.05), odo_sigma=(0.002, 0.008))
    s = Smoother()
    reports, sparse = [], []
    for factors in steps:
        s.add_variable()
        for f in factors:
            s.add_factor(f)
        report = s.update()
        if s._pattern()["mode"] == "sparse":
            sparse.append(report)
        reports.append(report)
    # exact counts, so that a change of the stop rule shows
    assert (len(reports), sum(r.iterations for r in reports), sum(r.factorizations for r in reports)) == (80, 247, 104)
    assert (len(sparse), sum(r.iterations for r in sparse), sum(r.factorizations for r in sparse)) == (55, 174, 55)


def _cold_start_loop_graph(seed, n=40):
    """Factors of a sparse loop graph with turns up to 1.2 rad per step, and start values off by up to 2 m and 1 rad."""
    rng = make_rng(seed)
    truth = [Pose2(0, 0, 0)]
    for _ in range(1, n):
        truth.append(truth[-1].compose(Pose2(rng.uniform(0.5, 1.5), rng.uniform(-0.2, 0.2), rng.uniform(-1.2, 1.2))))
    fix, odo = DiagonalNoise(0.05, 0.05, 0.05), DiagonalNoise(0.01, 0.01, 0.01)

    def noisy(p, sig):
        return Pose2(*(np.array(p.as_tuple()) + rng.normal(0.0, sig.sigmas())))

    factors = [PriorFactor(0, truth[0], fix)]
    for k in range(1, n):
        factors.append(BetweenFactor(k - 1, k, noisy(truth[k - 1].between(truth[k]), odo), odo))
        if rng.random() < 0.5:
            factors.append(MeasurementFactor(k, noisy(truth[k], fix), fix))
        if k >= 20 and rng.random() < 0.2:
            j = int(rng.integers(0, k - 15))
            factors.append(BetweenFactor(j, k, noisy(truth[j].between(truth[k]), fix), fix))
    init = {k: Pose2(p.x + rng.uniform(-2, 2), p.y + rng.uniform(-2, 2), p.theta + rng.uniform(-1, 1)) for k, p in enumerate(truth)}
    return factors, init


def _traced_batch_solve(factors, init, refuse_first_chord=False):
    """A smoother that solved factors from init in one update, its report, and its line searches and factorizations in order.

    With refuse_first_chord, the first chord step, a line search right after
    an accepted step, reports no descent without being tried. Each event
    comes with the point the line search started from, or None.
    """
    s = Smoother()
    for k in range(len(init)):
        s.add_variable(init[k])
    for f in factors:
        s.add_factor(f)
    events, points = [], []
    line_search, factorize = s._line_search, s._factorize

    def traced_line_search(x, *args):
        if refuse_first_chord and events[-1:] == ["step"] and "refused" not in events:
            step, event = None, "refused"
        else:
            step = line_search(x, *args)
            event = "step" if step is not None else "no step"
        events.append(event)
        points.append(x)
        return step

    def traced_factorize(*args):
        events.append("factorize")
        points.append(None)
        return factorize(*args)

    s._line_search, s._factorize = traced_line_search, traced_factorize
    report = s.update()
    return s, report, events, points


@pytest.mark.parametrize("seed", [120, 121, 122])
def test_cold_start_with_chord_stalls_matches_oracle(seed):
    factors, init = _cold_start_loop_graph(seed)
    s, report, events, _ = _traced_batch_solve(factors, init)
    assert s._pattern()["mode"] == "sparse"
    # chord steps were taken, and stalled into fresh factorizations
    assert report.converged
    assert 2 <= report.factorizations < report.iterations
    assert events.count("factorize") == report.factorizations
    oracle = dense_batch_solve(len(init), factors, init)
    assert max(pose_diff(s.pose_estimate(k), oracle[k]) for k in range(len(init))) < 1e-6


def test_chord_step_without_descent_falls_back_to_a_full_step(monkeypatch):
    # without halvings, an overshooting chord step fails its line search
    monkeypatch.setattr("se2fusion.smoother._MAX_STEP_HALVINGS", 0)
    factors, init = _cold_start_loop_graph(120)
    s, report, events, _ = _traced_batch_solve(factors, init)
    assert s._pattern()["mode"] == "sparse"
    # a failed Gauss-Newton line search ends the solve, so a failed one
    # followed by a factorization was a chord step's
    fallbacks = [i for i in range(len(events) - 2) if events[i : i + 3] == ["no step", "factorize", "step"]]
    assert fallbacks
    assert report.converged
    assert report.iterations == events.count("step")
    oracle = dense_batch_solve(len(init), factors, init)
    assert max(pose_diff(s.pose_estimate(k), oracle[k]) for k in range(len(init))) < 1e-6


def test_banded_chord_confirm_without_descent_falls_back_to_a_full_step():
    # twenty poses: no closure yet, so the graph stays banded
    factors, init = _cold_start_loop_graph(120, n=20)
    s, report, events, points = _traced_batch_solve(factors, init, refuse_first_chord=True)
    assert s._pattern()["mode"] == "banded"
    # the refused chord step is followed by a factorization and a step from
    # the same point, the converged one, whose small predicted decrease
    # ends the solve
    i = events.index("refused")
    assert events[i - 1 :] == ["step", "refused", "factorize", "step"]
    assert points[i + 2] is points[i]
    assert report.stop_reason == "decrement"
    assert report.iterations == events.count("step")
    assert report.factorizations == events.count("factorize") == report.iterations
    oracle = dense_batch_solve(len(init), factors, init)
    assert max(pose_diff(s.pose_estimate(k), oracle[k]) for k in range(len(init))) < 1e-6


def _fixes(start, *fixes):
    """A smoother with one pose at start and a unit-noise fix at each of fixes."""
    s = Smoother()
    k = s.add_variable(start)
    for fix in fixes:
        s.add_factor(MeasurementFactor(k, fix, UNIT))
    return s


def _odometry_pair():
    """A fixed pose and a pending one, joined by near-rigid odometry and a fix 9 m off it, at the default sigmas."""
    s = Smoother()
    k = s.add_variable(Pose2(0, 0, 0))
    s.add_factor(PriorFactor(k, Pose2(0, 0, 0), PRIOR_DEFAULT))
    s.add_variable()
    s.add_factor(BetweenFactor(k, k + 1, Pose2(1, 0, 0.05), ODOMETRY_DEFAULT))
    s.add_factor(MeasurementFactor(k + 1, Pose2(-5, 7, -0.3), MEASUREMENT_DEFAULT))
    return s


@pytest.mark.parametrize(
    "build, constants, stop_reason, iterations, factorizations",
    [
        # a start that fits its one factor, then one that a step fits
        (lambda: _fixes(Pose2(1, 2, 3), Pose2(1, 2, 3)), {}, "abs_tol", 0, 1),
        (lambda: _fixes(Pose2(0, 0, 0), Pose2(5, 0, 0)), {}, "abs_tol", 1, 1),
        # the optimum between two fixes, where g is zero and the step too
        (lambda: _fixes(Pose2(1, 0, 0), Pose2(0, 0, 0), Pose2(2, 0, 0)), {}, "decrement", 1, 1),
        # five Gauss-Newton steps, then a chord step with the fifth's factor
        (lambda: _fixes(Pose2(4, -3, 2), Pose2(0, 0, 0), Pose2(1, 1, 1)), {}, "decrement", 6, 5),
        # the full step overshoots the pending pose, and may not be halved
        (_odometry_pair, {"_MAX_STEP_HALVINGS": 0}, "no_descent", 0, 1),
        (lambda: _fixes(Pose2(4, -3, 2), Pose2(0, 0, 0), Pose2(1, 1, 1)), {"_MAX_ITERATIONS": 2}, "max_iterations", 2, 2),
    ],
    ids=["abs_tol-at-start", "abs_tol", "decrement-gauss-newton", "decrement-chord", "no_descent", "max_iterations"],
)
def test_update_reports_why_it_stopped(monkeypatch, build, constants, stop_reason, iterations, factorizations):
    for name, value in constants.items():
        monkeypatch.setattr(f"se2fusion.smoother.{name}", value)
    report = build().update()
    assert report.stop_reason == stop_reason
    assert (report.iterations, report.factorizations) == (iterations, factorizations)
    assert report.converged == (stop_reason in ("abs_tol", "decrement"))
