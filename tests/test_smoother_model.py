"""Stateful model test of Smoother: a rejected call changes nothing, and no derived state outlives a mutation.

Hypothesis runs add_variable, add_factor, update, checkpoint/truncate and
marginal_sigma in any order. The machine keeps the variables and factors the
smoother holds, and checks five things:
- a call that raises leaves the smoother's _Graph the same object, which
  holds what was derived from it, and its graph, estimate and pending keys
  as they were, byte for byte;
- every mark held keeps the state of its checkpoint, byte for byte, and
  truncate() to any of them, older or newer than the state it replaces,
  gives that state back;
- update() fails just when a fresh smoother's batch solve of the same graph
  fails, and after a successful one the estimate matches that solve to
  1e-6, as criterion 3 asks;
- an update() whose first step was bordered starts from a graph that
  appends one pose to its base, with the base's poses still where its
  update left them; in banded mode the new factors lie on that pose and the
  pose before, and the base holds a solve and a band factor L with L L^T
  the dense normal equations' H at its estimate, or a banded update that
  factorized committed it; in sparse mode the base holds the solve of its H
  at its estimate, as the dense normal equations give it; later steps would
  correct the first step of a stale factor, so only this shows one;
- a sparse update() of a leaf frame, one pose, fixes on it and odometry
  into it from the pose before, added to a base that holds an elimination
  order, keeps that order with the new key first;
- marginal_sigma matches sqrt(diag(H^-1)) of the dense normal equations of
  test_smoother.py at the estimate, for a key drawn by a rule, and for the
  newest key after every rule that changed the graph or the estimate.

Every factor is drawn around one smooth path, within its sigmas, so both
solves start near the same single minimum. Some fixes lie so far off the
path that their error overflows, which keeps update() failing until
truncate() drops them; some have sigmas too small to invert, which
add_factor rejects.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule  # noqa: E402

from se2fusion import (  # noqa: E402
    BetweenFactor,
    DiagonalNoise,
    GaugeError,
    MeasurementFactor,
    Pose2,
    PriorFactor,
    Smoother,
    ValidationError,
)
from support import pose_diff  # noqa: E402
from test_smoother import dense_normal_equations  # noqa: E402

FIX = DiagonalNoise(0.05, 0.05, 0.05)
ODOMETRY = DiagonalNoise(0.005, 0.005, 0.005)

# offsets of a factor's value from the path, in sigmas
OFFSETS = st.tuples(*[st.floats(-1.0, 1.0)] * 3)


def path(key: int) -> Pose2:
    """The pose every factor on key is drawn around."""
    return Pose2(float(key), 2.0 * math.sin(0.2 * key), 0.4 * math.sin(0.3 * key))


def off(pose: Pose2, offset, noise: DiagonalNoise) -> Pose2:
    return Pose2(*(a + o * s for a, o, s in zip(pose.as_tuple(), offset, noise.sigmas())))


def state(g) -> tuple:
    """The graph and the estimate of a smoother's _Graph, byte for byte, so that a write into one of its arrays shows."""
    return tuple(a.tobytes() for a in (g.x, g.un_keys, g.un, g.bt_keys, g.bt)) + (g.pending, g.n_solved)


class SmootherModel(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.s = Smoother()
        # the guess of each variable (None: pending) and the factors added
        self.guesses: list = []
        self.factors: list = []
        # per checkpoint: its mark, the model's lists then and the smoother's state then
        self.marks: list = []
        # counts the calls that changed the graph or the estimate, and its value at the last marginal check
        self.changes = 0
        self.checked = -1
        # the state of every graph that a banded update which factorized committed
        self.factorized: set = set()

    def rejected(self, call, *errors) -> bool:
        """Whether call raised one of errors; if it did, it changed nothing."""
        before, graph = state(self.s._graph), self.s._graph
        try:
            call()
        except errors:
            assert self.s._graph is graph and state(self.s._graph) == before
            return True
        return False

    def key(self, data):
        """A key of a variable, or one out of range or not an integer, one time in five."""
        n = len(self.guesses)
        bad = st.sampled_from([-1, n, 1.5, True])
        return data.draw(st.one_of(*[st.integers(0, n - 1)] * 4, bad) if n else bad)

    def add(self, factor) -> None:
        if not self.rejected(lambda: self.s.add_factor(factor), KeyError, ValidationError):
            self.factors.append(factor)
            self.changes += 1

    @initialize(n=st.integers(17, 24))
    def chain(self, n):
        """n poses with fixes and odometry, solved once: enough for a loop closure to reach sparse mode."""
        for k in range(n):
            self.add_variable(False, (0.0, 0.0, 0.0))
            self.add(MeasurementFactor(k, path(k), FIX))
            if k:
                self.add(BetweenFactor(k - 1, k, path(k - 1).between(path(k)), ODOMETRY))
        self.solve()

    # at most 40 poses, which bounds the cost of the dense oracle
    @precondition(lambda self: len(self.guesses) < 40)
    @rule(guess=st.booleans(), offset=OFFSETS)
    def add_variable(self, guess, offset):
        key = len(self.guesses)
        value = off(path(key), offset, DiagonalNoise(0.3, 0.3, 0.2)) if guess else None
        assert self.s.add_variable(value) == key
        self.guesses.append(value)
        self.changes += 1

    @rule(data=st.data(), prior=st.booleans(), offset=OFFSETS, overflow=st.integers(0, 9))
    def add_unary(self, data, prior, offset, overflow):
        key = self.key(data)
        kind = PriorFactor if prior else MeasurementFactor
        if overflow == 1:
            # a fix whose squared error overflows, which update() rejects
            self.add(kind(key, Pose2(1e300, -1e300, 0.0), FIX))
        elif overflow == 2:
            # sigmas whose 1 / sigma^2 has no finite value, which add_factor rejects
            self.add(kind(key, path(int(key)), DiagonalNoise(1.0, data.draw(st.sampled_from([1e-160, 1e-200])), 1.0)))
        else:
            self.add(kind(key, off(path(int(key)), offset, FIX), FIX))

    @rule(data=st.data(), offset=OFFSETS)
    def add_between(self, data, offset):
        a, b = self.key(data), self.key(data)
        if a == b:
            return
        noise = ODOMETRY if abs(a - b) == 1 else FIX
        self.add(BetweenFactor(a, b, off(path(int(a)).between(path(int(b))), offset, noise), noise))

    @precondition(lambda self: len(self.guesses) > 16)
    @rule(data=st.data(), offset=OFFSETS)
    def add_loop_closure(self, data, offset):
        """A between factor over 16 keys or more, which sends the solve to sparse mode."""
        n = len(self.guesses)
        a = data.draw(st.integers(0, n - 17))
        b = data.draw(st.integers(a + 16, n - 1))
        self.add(BetweenFactor(b, a, off(path(b).between(path(a)), offset, FIX), FIX))

    @precondition(lambda self: len(self.guesses) < 40)
    @rule(frames=st.lists(st.tuples(OFFSETS, st.integers(0, 3)), min_size=1, max_size=3), batched=st.booleans())
    def add_frames(self, frames, batched):
        """Poses with odometry and a fix, each dropped again if update() rejects it, as the stream driver adds frames.

        The frame after a rejected one has as many variables and factors,
        and the same keys, which a pattern cache keyed on sizes would fit.
        Batched, one update() solves, or drops, them all: after a truncate()
        to an older mark, two frames then make as many variables as the
        graph of a bordered factor that the mark left behind, and one more.
        """
        first = self.mark()
        for i, (offset, overflow) in enumerate(frames):
            mark = self.mark()
            k = len(self.guesses)
            self.add_variable(False, offset)
            if k:
                self.add(BetweenFactor(k - 1, k, off(path(k - 1).between(path(k)), offset, ODOMETRY), ODOMETRY))
            fix = Pose2(1e300, 0.0, 0.0) if overflow == 0 else off(path(k), offset, FIX)
            self.add(MeasurementFactor(k, fix, FIX))
            if batched and i < len(frames) - 1:
                continue
            if not self.solve():
                self.restore(first if batched else mark)

    @precondition(lambda self: len(self.guesses) < 38)
    @rule(frames=st.lists(st.tuples(OFFSETS, st.integers(1, 3)), min_size=3, max_size=3))
    def replace_frame(self, frames):
        """A frame solved, then dropped by truncate() for two others from the same mark, solved in one update.

        Those two make one variable more than the graph the dropped frame
        left its factor for, on a branch that does not extend that graph.
        """
        mark = self.mark()
        self.add_frames(frames[:1], False)
        self.restore(mark)
        self.add_frames(frames[1:], True)

    @rule()
    def update(self):
        self.solve()

    def solve(self) -> bool:
        """update(), and whether it succeeded."""
        fresh = Smoother()
        for guess in self.guesses:
            fresh.add_variable(guess)
        for f in self.factors:
            fresh.add_factor(f)
        try:
            fresh.update()
        except GaugeError:
            fresh = None
        # the graph and the start point of this update
        start = self.s._graph
        x0 = start.x.copy()
        if start.pending:
            self.s._activate_pending(x0)
        reports = []
        # a rejected update() is one that a fresh solve of the graph rejects too
        if self.rejected(lambda: reports.append(self.s.update()), GaugeError):
            assert fresh is None
            return False
        self.changes += 1
        assert fresh is not None
        got, want = self.s.estimate(), fresh.estimate()
        assert len(got) == len(self.guesses)
        assert max(pose_diff(got[k], want[k]) for k in got) < 1e-6
        report = reports[0]
        held = start.base
        if report.bordered:
            # one pose more than the base, whose factors come first, and its
            # poses still where its update left them
            n, nu, nb = len(held.x), len(held.un_keys), len(held.bt)
            assert len(x0) == n + 1 and np.array_equal(x0[:n], held.x)
            for name in ("un_keys", "un", "bt"):
                assert np.array_equal(getattr(start, name)[: len(getattr(held, name))], getattr(held, name))
            assert np.array_equal(start.bt_keys[:, :nb], held.bt_keys)
            # the base's factors come first in each kind
            unary = [f for f in self.factors if not isinstance(f, BetweenFactor)][:nu]
            between = [f for f in self.factors if isinstance(f, BetweenFactor)][:nb]
            if held.solve is not None:
                h, _ = dense_normal_equations(n, unary + between, {k: Pose2(*held.x[k]) for k in range(n)})
            if report.mode == "banded":
                # the new factors on the base's last pose and the new one
                assert min(start.un_keys[nu:].min(initial=n), start.bt_keys[:, nb:].min(initial=n)) >= n - 1
                if held.solve is None:
                    assert state(held) in self.factorized
                else:
                    # row i of the lower band holds L's i-th subdiagonal
                    low = sum(np.diag(band[: 3 * n - i], -i) for i, band in enumerate(held.factor))
                    assert np.allclose(low @ low.T, h, rtol=0.0, atol=1e-8)
            else:
                assert np.allclose(held.solve(h), np.eye(3 * n), rtol=0.0, atol=1e-8)
        if report.mode == "sparse" and held is not None and held.factor is not None and len(x0) == len(held.x) + 1:
            n, nu, nb = len(held.x), len(held.un_keys), len(held.bt)
            new_between = start.bt_keys[:, nb:].T.tolist()
            if new_between == [[n - 1, n]] and (start.un_keys[nu:] == n).all():
                assert np.array_equal(self.s._graph.pattern["order"], np.r_[n, held.factor])
        if report.mode == "banded" and report.factorizations:
            self.factorized.add(state(self.s._graph))
        return True

    @rule()
    def checkpoint(self):
        self.marks.append(self.mark())

    @precondition(lambda self: self.marks)
    @rule(data=st.data())
    def truncate(self, data):
        """Return to any mark held, which stays held."""
        self.restore(data.draw(st.sampled_from(self.marks)))

    def mark(self) -> tuple:
        mark = self.s.checkpoint()
        return mark, list(self.guesses), list(self.factors), state(mark)

    def restore(self, entry) -> None:
        mark, guesses, factors, then = entry
        self.s.truncate(mark)
        self.guesses, self.factors = list(guesses), list(factors)
        self.changes += 1
        assert state(self.s._graph) == then

    @invariant()
    def marks_hold_their_state(self):
        for mark, _, _, then in self.marks:
            assert state(mark) == then

    @rule(data=st.data())
    def marginal_sigma(self, data):
        self.check_marginal(self.key(data))

    @invariant()
    def marginal_of_the_newest_key(self):
        # after each rule that changed something, which stale derived state
        # would outlive; add_frames reads none between a rejected frame and
        # the next, which would rebuild a stale pattern
        if self.changes != self.checked:
            self.checked = self.changes
            self.check_marginal(len(self.guesses) - 1)

    def check_marginal(self, key):
        sigma = []
        if self.rejected(lambda: sigma.extend(self.s.marginal_sigma(key)), KeyError, RuntimeError, GaugeError):
            return
        h, _ = dense_normal_equations(len(self.guesses), self.factors, self.s.estimate())
        want = np.sqrt(np.diag(np.linalg.inv(h))[3 * key : 3 * key + 3])
        assert np.allclose(sigma, want, rtol=1e-6, atol=0.0)


TestSmootherModel = SmootherModel.TestCase
TestSmootherModel.settings = settings(max_examples=50, stateful_step_count=30, deadline=None)
