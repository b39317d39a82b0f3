"""Batched reference functions against the same functions on one state.

Leading axes are a batch (see :mod:`triped.dynamics`).  Entry ``i`` of a
batched result must equal, with ``==``, the call on state ``i`` alone, for
seeded states and a stacked :class:`~triped.params.RobotParams` that gives
every state its own random robot.
"""

from dataclasses import fields, replace

import numpy as np
import pytest

import triped as T
from triped.dynamics import coriolis_matrix, gravity_torque, inertia_matrix
from triped.impact import (angular_momentum_about, chain_angular_momentum,
                           free_mass_matrix)
from triped.reduced import (consistency_check, input_matrix_e,
                            pushforward_input_matrix, reduced_forces)
from triped.verification import stack_params

N = 40
TARGETS = T.GaitTargets()


def random_robots(rng, n):
    return [T.RobotParams(leg_mass=rng.uniform(0.3, 3.0),
                          hip_mass=rng.uniform(0.3, 3.0),
                          torso_mass=rng.uniform(0.5, 9.0),
                          leg_length=rng.uniform(0.3, 2.0),
                          torso_length=rng.uniform(0.2, 1.5),
                          gravity=rng.uniform(1.0, 20.0)) for _ in range(n)]


@pytest.fixture(scope="module")
def batch():
    rng = np.random.default_rng(21)
    robots = random_robots(rng, N)
    return {
        "q": rng.uniform(-1.2, 1.2, (N, 3)) + [0.0, 0.0, np.pi / 2],
        "dq": rng.uniform(-4.0, 4.0, (N, 3)),
        "u": rng.uniform(-50.0, 50.0, (N, 2)),
        "w": rng.uniform(-0.5, 0.5, (N, 2)),
        "point": rng.uniform(-1.0, 1.0, (N, 2)),
        "incline": rng.uniform(-0.6, 0.6, N),
        "robots": robots,
        "p": stack_params(robots),
    }


def per_state(batch, i):
    """State ``i`` alone: its rows, its own robot with float fields."""
    one = {k: v[i] for k, v in batch.items() if k not in ("robots", "p")}
    one["p"] = batch["robots"][i]
    return one


def assert_batch_equals_per_state(call, batch):
    """``call(**batch)`` against ``call(**state i)`` for every state; the
    results may be arrays, tuples of arrays or dataclasses of arrays."""
    got = call(**batch)
    for i in range(N):
        assert_entry_equal(got, call(**per_state(batch, i)), i)


def assert_entry_equal(got, want, i):
    if isinstance(want, tuple):
        for g, w in zip(got, want, strict=True):
            assert_entry_equal(g, w, i)
    elif hasattr(want, "__dataclass_fields__"):
        for f in fields(want):
            assert_entry_equal(getattr(got, f.name), getattr(want, f.name), i)
    else:
        assert np.shape(want) == np.shape(got)[1:]
        assert np.all(np.asarray(got)[i] == want), (i, got[i], want)
        assert type(want) is float or np.ndim(want) > 0


CALLS = {
    "inertia_matrix": lambda q, p, **_: inertia_matrix(q, p),
    "gravity_torque": lambda q, p, incline, **_: gravity_torque(q, p, incline),
    "coriolis_matrix": lambda q, dq, p, **_: coriolis_matrix(q, dq, p),
    "free_mass_matrix": lambda q, p, **_: free_mass_matrix(q, p),
    "swing_accel": lambda q, dq, u, p, incline, **_: T.swing_accel(
        q, dq, u, p, incline),
    "reset_map": lambda q, dq, p, **_: T.reset_map(q, dq, p),
    "angular_momentum_about": lambda q, dq, p, point, **_:
        angular_momentum_about(q, dq, p, point),
    "chain_angular_momentum": lambda q, dq, u, p, point, **_:
        chain_angular_momentum(q, dq, u, p, point),
    "to_reduced": lambda q, dq, **_: T.to_reduced(q, dq, TARGETS),
    "reduced_forces": lambda q, dq, p, incline, **_: reduced_forces(
        T.to_reduced(q, dq, TARGETS), p, incline),
    "input_matrix_e": lambda q, dq, p, **_: input_matrix_e(
        T.to_reduced(q, dq, TARGETS), p),
    "pushforward_input_matrix": lambda q, dq, p, **_: pushforward_input_matrix(
        T.to_reduced(q, dq, TARGETS), p),
    "consistency_check": lambda q, dq, u, p, incline, **_: consistency_check(
        q, dq, u, p, incline, TARGETS),
    "kinetic_energy": lambda q, dq, p, **_: T.kinetic_energy(q, dq, p),
    "potential_energy": lambda q, p, incline, **_: T.potential_energy(
        q, p, incline),
}


@pytest.mark.parametrize("name", sorted(CALLS))
def test_batch_equals_per_state(name, batch):
    assert_batch_equals_per_state(CALLS[name], batch)


@pytest.mark.parametrize("weighting", ["raw", "inertia"])
def test_control_action_batch_equals_per_state(weighting, batch):
    cfg = replace(T.ControllerConfig(), error_weighting=weighting)
    assert_batch_equals_per_state(
        lambda q, dq, w, **_: T.control_action(q, dq, w, cfg), batch)


def test_leading_axes_are_all_batch_axes(batch):
    """A ``(4, 10)`` batch gives the flat batch's results in that shape."""
    q = batch["q"].reshape(4, 10, 3)
    dq = batch["dq"].reshape(4, 10, 3)
    p = T.RobotParams(**{f.name: getattr(batch["p"], f.name).reshape(4, 10)
                         for f in fields(T.RobotParams)})
    flat = T.reset_map(batch["q"], batch["dq"], batch["p"])
    shaped = T.reset_map(q, dq, p)
    for f in fields(flat):
        got = getattr(shaped, f.name)
        want = getattr(flat, f.name)
        assert np.array_equal(got, np.reshape(want, (4, 10) + np.shape(want)[1:]))
    assert np.array_equal(T.inertia_matrix(q, p),
                          T.inertia_matrix(batch["q"], batch["p"]).reshape(4, 10, 3, 3))


def test_one_robot_broadcasts_over_a_batch_of_states(batch):
    p = T.RobotParams()
    got = T.swing_accel(batch["q"], batch["dq"], batch["u"], p, 0.3)
    for i in range(N):
        assert np.all(got[i] == T.swing_accel(batch["q"][i], batch["dq"][i],
                                              batch["u"][i], p, 0.3))
