"""Shared fixtures: cached gait runs of the reference configuration."""

from dataclasses import replace

import pytest

import triped as T


@pytest.fixture(scope="session")
def nominal_three_steps() -> T.GaitSummary:
    """Three steps of the reference gait (shared; do not mutate)."""
    return T.run_gait(replace(T.SimConfig(), n_steps=3))


@pytest.fixture(scope="session")
def nominal_eight_steps() -> T.GaitSummary:
    """Eight steps of the reference gait, enough to settle (shared)."""
    return T.run_gait(replace(T.SimConfig(), n_steps=8))
