"""Impact/relabel reset map: frozen values and physical invariants."""

import numpy as np
import pytest

import triped as T
from triped.impact import (RELABEL, free_mass_matrix, pinned_embedding,
                           reset_map)

P = T.RobotParams()


def random_pre_impact(n, seed):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        q1 = rng.uniform(0.05, 0.5)
        # On the switching surface the legs straddle the hip; keep them
        # distinct so the contact problem is well conditioned.
        q = np.array([q1, -q1 + rng.uniform(-0.2, 0.2), rng.uniform(0.8, 2.2)])
        dq = rng.uniform(-1, 1, 3) * np.array([2.0, 2.0, 1.0])
        yield q, dq


def test_relabel_is_an_involution_swapping_legs():
    np.testing.assert_array_equal(RELABEL @ RELABEL, np.eye(3))
    np.testing.assert_array_equal(RELABEL @ np.array([1.0, 2.0, 3.0]),
                                  [2.0, 1.0, 3.0])


def test_reset_map_frozen_at_reference_pre_impact_state():
    x = T.nominal_initial_state()
    res = reset_map(np.array(x[:3]), np.array(x[3:]), P)
    np.testing.assert_allclose(
        res.q_plus, [-0.2617993877991494, 0.2617993877991494,
                     1.8325957145940461], rtol=0, atol=1e-14)
    np.testing.assert_allclose(
        res.dq_plus, [1.2916878726109366, 1.0692690228826978,
                      0.8611252484072911], rtol=0, atol=1e-13)
    np.testing.assert_allclose(
        res.impulse, [-0.9248848893738522, 1.6170886233180721],
        rtol=0, atol=1e-13)
    assert res.kinetic_energy_loss == pytest.approx(1.0434563947571505,
                                                    rel=1e-12)
    np.testing.assert_allclose(
        res.liftoff_velocity, [0.21484011120601254, 0.6110606092198743],
        rtol=0, atol=1e-13)


def test_configuration_is_relabeled_not_moved():
    for q, dq in random_pre_impact(10, seed=11):
        res = reset_map(q, dq, P)
        np.testing.assert_allclose(res.q_plus, RELABEL @ q, atol=1e-15)


def test_landing_foot_velocity_is_zeroed():
    for q, dq in random_pre_impact(25, seed=12):
        res = reset_map(q, dq, P)
        np.testing.assert_allclose(res.contact_velocity, 0.0, atol=1e-12)


def test_impulse_is_linear_in_pre_impact_rates():
    for q, dq in random_pre_impact(10, seed=13):
        one = reset_map(q, dq, P)
        scaled = reset_map(q, 2.5 * dq, P)
        np.testing.assert_allclose(scaled.impulse, 2.5 * one.impulse,
                                   rtol=1e-12, atol=1e-13)
        np.testing.assert_allclose(scaled.dq_plus, 2.5 * one.dq_plus,
                                   rtol=1e-12, atol=1e-13)


def test_zero_rates_produce_no_impulse_and_no_loss():
    q = np.array([0.25, -0.25, 1.8])
    res = reset_map(q, np.zeros(3), P)
    np.testing.assert_allclose(res.impulse, 0.0, atol=1e-15)
    np.testing.assert_allclose(res.dq_plus, 0.0, atol=1e-15)
    assert res.kinetic_energy_loss == pytest.approx(0.0, abs=1e-15)


def test_plastic_impact_never_creates_energy():
    for q, dq in random_pre_impact(50, seed=14):
        try:
            res = reset_map(q, dq, P)
        except T.DegenerateContactError:
            continue
        assert res.kinetic_energy_loss >= -1e-12


def test_free_chain_mass_matrix_reduces_to_pinned_inertia():
    for q, _ in random_pre_impact(20, seed=15):
        emb = pinned_embedding(q, P)
        reduced = emb.T @ free_mass_matrix(q, P) @ emb
        assert np.max(np.abs(reduced - T.inertia_matrix(q, P))) < 1e-12


def test_free_chain_mass_matrix_is_symmetric_positive_definite():
    for q, _ in random_pre_impact(10, seed=16):
        D = free_mass_matrix(q, P)
        np.testing.assert_allclose(D, D.T, atol=1e-15)
        assert np.linalg.eigvalsh(D).min() > 0
        assert pinned_embedding(q, P).shape == (5, 3)
