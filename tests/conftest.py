"""Shared fixtures: trained models are expensive, so they are session-scoped."""

import pytest

from tendonctl.dynamic_ctrl import OptimizerConfig
from tendonctl.harness import PEDAL_HORIZON, build_pedal_rig, train_pedal_dynamics
from tendonctl.plant import default_ankle_geometry, default_arm_geometry
from tendonctl.static_ctrl import init_from_geometry


@pytest.fixture(scope="session")
def ankle_geom():
    return default_ankle_geometry()


@pytest.fixture(scope="session")
def arm_geom():
    return default_arm_geometry()


@pytest.fixture(scope="session")
def static_model(ankle_geom):
    """Geometric pre-trained intersensory model for the ankle (read-only).

    Tests that mutate the model (online updates) must deepcopy it first.
    It is the h that the CLI pre-trains at seed 0 without a static section.
    """
    return init_from_geometry(ankle_geom, seed=0)


@pytest.fixture(scope="session")
def pedal_opt_cfg():
    return OptimizerConfig(horizon=PEDAL_HORIZON)


@pytest.fixture(scope="session")
def pedal_rig_factory(static_model):
    def factory(seed=0):
        # a rig holds no randomness: every seed gets the same fresh rig
        return build_pedal_rig(static_model)
    return factory


@pytest.fixture(scope="session")
def pedal_dynamics(pedal_rig_factory):
    """Seed-0 trained task-dynamics model for the pedal rig."""
    return train_pedal_dynamics(pedal_rig_factory, seed=0)
