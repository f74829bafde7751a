"""Plant simulator: geometry, elasticity, dynamics, car model, descriptions."""

import json
import os

import numpy as np
import pytest

from tendonctl.plant import (CTRL_DT, PLANT_DT, STEPS_PER_TICK, CarConfig,
                             CarState, ElasticElementParams, JointRangeError,
                             JointSpec, MuscleSpec, Plant, PlantState, car_drag,
                             car_step, default_ankle_geometry,
                             default_ankle_plant_config, default_arm_geometry,
                             default_arm_plant_config, elastic_elongation,
                             elastic_tension, geometry_from_description)

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


# -- elastic element -------------------------------------------------------


def test_slack_wire_has_no_tension():
    p = ElasticElementParams(k2=1e6)
    assert elastic_tension(p, 0.0) == 0.0
    assert elastic_tension(p, -0.01) == 0.0


def test_elastic_tension_value():
    # [DERIVED] direct formula evaluation: 1e6 * 0.01^2 = 100 N
    p = ElasticElementParams(k2=1e6)
    assert elastic_tension(p, 0.01) == pytest.approx(100.0)


def test_doubling_stretch_quadruples_tension():
    p = ElasticElementParams(k2=3e6, slack=0.0)
    assert elastic_tension(p, 0.02) == pytest.approx(4 * elastic_tension(p, 0.01))


def test_elastic_elongation_inverts_tension():
    p = ElasticElementParams(k2=2e6, slack=1e-3)
    for f in (0.0, 1.0, 50.0, 400.0):
        s = elastic_elongation(p, f)
        assert elastic_tension(p, s) == pytest.approx(f, abs=1e-9)


# -- muscle geometry -------------------------------------------------------


def test_pulley_moment_arm():
    # [DERIVED] analytic pulley approximation: |dl/dtheta| ~ radius
    radius = 0.02
    joints = [JointSpec("j", parent=0, origin=(0.0, 0.0), limits=(-1.0, 1.0))]
    muscles = [MuscleSpec("m", [(0, (-0.08, radius)), (1, (0.08, radius))])]
    geom = type(default_ankle_geometry())(joints, muscles)
    l0 = geom.muscle_lengths(np.zeros(1))
    dth = 1e-4
    l1 = geom.muscle_lengths(np.array([dth]))
    assert abs(abs((l1 - l0)[0] / dth) - radius) < 0.15 * radius


def test_neutral_lengths_match_frozen_fixture():
    with open(os.path.join(FIXTURES, "neutral_lengths.json")) as fh:
        ref = json.load(fh)
    ankle = default_ankle_geometry()
    arm = default_arm_geometry()
    assert np.allclose(ankle.muscle_lengths(np.array(ref["ankle"]["neutral_pose"])),
                       ref["ankle"]["lengths_m"], atol=1e-12)
    assert np.allclose(arm.muscle_lengths(np.array(ref["arm"]["neutral_pose"])),
                       ref["arm"]["lengths_m"], atol=1e-12)


def test_antagonist_pair_length_sum_constant_first_order():
    geom = default_ankle_geometry()
    s0 = geom.muscle_lengths(np.zeros(1)).sum()
    d = 1e-4
    s1 = geom.muscle_lengths(np.array([d])).sum()
    # symmetric mirrored attachments: first-order terms cancel
    assert abs(s1 - s0) < 10 * d * d


def test_jacobian_pulley_entries_and_antagonism():
    geom = default_ankle_geometry()
    G = geom.jacobian(np.zeros(1))
    assert G.shape == (2, 1)
    # pulley-like pair at radius 0.030: entries ~ +-r with opposite signs
    assert np.sign(G[0, 0]) != np.sign(G[1, 0])
    assert np.all(np.abs(np.abs(G[:, 0]) - 0.030) < 0.15 * 0.030)
    geom.validate_antagonism()


def test_jacobian_zero_for_unspanned_joint():
    geom = default_arm_geometry()
    G = geom.jacobian(np.zeros(2))
    names = [m.name for m in geom.muscles]
    # the shoulder mono-articular pair does not span the elbow and vice versa
    assert np.allclose(G[names.index("shoulder_flex"), 1], 0.0, atol=1e-9)
    assert np.allclose(G[names.index("shoulder_ext"), 1], 0.0, atol=1e-9)
    assert np.allclose(G[names.index("elbow_flex"), 0], 0.0, atol=1e-9)
    # the bi-articular pair spans both
    assert abs(G[names.index("biart_flex"), 0]) > 1e-3
    assert abs(G[names.index("biart_flex"), 1]) > 1e-3


def test_jacobian_deterministic():
    geom = default_arm_geometry()
    theta = np.array([0.2, -0.3])
    assert np.array_equal(geom.jacobian(theta), geom.jacobian(theta))


def test_joint_limits_enforced():
    geom = default_ankle_geometry()
    with pytest.raises(JointRangeError):
        geom.muscle_lengths(np.array([2.0]))
    with pytest.raises(ValueError):
        geom.muscle_lengths(np.zeros(2))


def test_muscle_spec_validation():
    with pytest.raises(ValueError):
        MuscleSpec("bad", [(0, (0.0, 0.0))])
    with pytest.raises(ValueError):
        MuscleSpec("bad", [(0, (0.0, 0.0)), (1, (0.1, 0.0))], k2=-1.0)


# -- joint dynamics --------------------------------------------------------


def make_ankle_plant():
    geom = default_ankle_geometry()
    return geom, Plant(geom, default_ankle_plant_config(geom))


def test_rest_state_is_fixed_point():
    geom, p = make_ankle_plant()
    state = p.initial_state()
    l_ref = geom.muscle_lengths(state.theta)
    for _ in range(50):
        state, _ = p.step(state, l_ref)
    assert np.allclose(state.theta, geom.neutral_pose(), atol=1e-9)
    assert np.allclose(state.f, 0.0, atol=1e-9)


def test_shortening_agonist_moves_joint_along_minus_G():
    geom, p = make_ankle_plant()
    state = p.initial_state()
    G = geom.jacobian(state.theta)
    l_ref = state.l.copy()
    l_ref[0] -= 0.002   # shorten muscle 0
    for _ in range(100):
        state, _ = p.step(state, l_ref)
    # torque from muscle 0 alone is -G[0] * f: theta moves opposite to G[0]
    assert np.sign(state.theta[0]) == np.sign(-G[0, 0])
    assert abs(state.theta[0]) > 1e-3


def test_thermal_model_fixed_point():
    # [DERIVED] ODE fixed point: c* = kappa_h f^2 / kappa_c + c_ambient
    geom, p = make_ankle_plant()
    cfg = p.config
    state = p.initial_state()
    state.f[:] = 100.0
    c = state.c[0]
    expect = cfg.kappa_heat * 100.0 ** 2 / cfg.kappa_cool + cfg.c_ambient
    prev = c
    for _ in range(20000):
        c = c + 0.005 * (cfg.kappa_heat * 1e4 - cfg.kappa_cool * (c - cfg.c_ambient))
        assert c >= prev - 1e-12       # monotone rise toward the fixed point
        prev = c
    assert abs(c - expect) < 0.05
    assert expect == pytest.approx(45.0)


def test_plant_step_validation():
    geom, p = make_ankle_plant()
    state = p.initial_state()
    with pytest.raises(ValueError):
        p.step(state, state.l[:1])
    bad = state.l.copy()
    bad[0] = np.nan
    with pytest.raises(FloatingPointError):
        p.step(state, bad)


def _reference_step(p, state, l_ref, dt=PLANT_DT):
    """One semi-implicit Euler step of ``dt``: the one-step plant as it
    stood before a control tick became one call."""
    cfg = p.config
    l_act = state.l + dt * (l_ref - state.l) / cfg.tau_servo
    f = p.tensions(state.theta, l_act)
    G = p.geom.jacobian(state.theta)
    tau_ext = -cfg.spring_k * (state.theta - cfg.spring_theta0)
    tau = -G.T @ f + tau_ext - cfg.damping * state.theta_dot
    theta_dot = state.theta_dot + dt * tau / cfg.inertia
    theta_dot[p.constrained] = 0.0
    theta = state.theta + dt * theta_dot
    low = theta < p.geom.limits_lo
    high = theta > p.geom.limits_hi
    theta = np.clip(theta, p.geom.limits_lo, p.geom.limits_hi)
    theta_dot[low | high] = 0.0
    c = state.c + dt * (cfg.kappa_heat * f * f - cfg.kappa_cool * (state.c - cfg.c_ambient))
    c = np.maximum(c, cfg.c_ambient)
    return PlantState(theta=theta, theta_dot=theta_dot, l=l_act, f=f, c=c, t=state.t + dt)


def _reference_car_step(car, cfg, pedal, brake, dt=PLANT_DT):
    """The one-step car as it stood before a control tick became one call."""
    buf = car.pedal_buffer.copy()
    delayed = buf[car.buf_idx]
    buf[car.buf_idx] = pedal
    idx = (car.buf_idx + 1) % buf.size
    accel = (cfg.a_max * max(0.0, delayed - cfg.dead_zone)
             - cfg.b_max * max(0.0, brake - cfg.brake_dead)
             - car_drag(cfg, car.v_car))
    v = max(0.0, car.v_car + dt * accel)
    return CarState(v_car=v, pedal_buffer=buf, buf_idx=idx)


@pytest.mark.parametrize("body", ["ankle", "arm"])
def test_tick_is_four_steps_bit_for_bit(body):
    # a tick is STEPS_PER_TICK steps of PLANT_DT: same theta, f, l, c, t and
    # car speed to the last bit as stepping one PLANT_DT at a time
    assert STEPS_PER_TICK * PLANT_DT == CTRL_DT
    if body == "ankle":
        geom, p = make_ankle_plant()
    else:
        geom = default_arm_geometry()
        p = Plant(geom, default_arm_plant_config(geom))
    rng = np.random.default_rng(7)
    cfg = CarConfig()
    tick, ref = p.initial_state(), p.initial_state()
    car = ref_car = CarState.at_creep(cfg)
    for k in range(60):
        l_ref = ref.l + rng.uniform(-0.004, 0.002, size=geom.n_muscles)
        brake = 0.4 if k % 7 == 0 else 0.0
        tick, thetas = p.step(tick, l_ref)
        car = car_step(car, cfg, thetas[:, 0], brake)
        for j in range(STEPS_PER_TICK):
            ref = _reference_step(p, ref, l_ref)
            ref_car = _reference_car_step(ref_car, cfg, float(ref.theta[0]), brake)
            assert np.array_equal(thetas[j], ref.theta)
        for name in ("theta", "theta_dot", "l", "f", "c"):
            assert np.array_equal(getattr(tick, name), getattr(ref, name)), name
        assert tick.t == ref.t
        assert car.v_car == ref_car.v_car and car.buf_idx == ref_car.buf_idx
        assert np.array_equal(car.pedal_buffer, ref_car.pedal_buffer)


def test_constrained_joint_does_not_move():
    geom, p = make_ankle_plant()
    p.constrained[:] = True
    state = p.initial_state()
    l_ref = state.l - 0.002
    for _ in range(50):
        state, _ = p.step(state, l_ref)
    assert np.allclose(state.theta, geom.neutral_pose(), atol=1e-12)
    assert state.f.max() > 0.0


# -- car model -------------------------------------------------------------


def test_creep_equilibrium():
    cfg = CarConfig()
    car = CarState.at_creep(cfg)
    for _ in range(250):
        car = car_step(car, cfg, pedals=[0.05] * STEPS_PER_TICK, brake=0.0)
    assert car.v_car == pytest.approx(cfg.creep_kmh, abs=1e-9)


def test_constant_pedal_fixed_point():
    # [DERIVED] drag balance: drag(v*) = a_max * (pedal - dead_zone)
    cfg = CarConfig()
    pedal = 0.3
    v_star = cfg.creep_kmh + cfg.a_max * (pedal - cfg.dead_zone) / cfg.drag_coeff
    assert v_star == pytest.approx(5.0)
    car = CarState.at_creep(cfg)
    for _ in range(1000):
        car = car_step(car, cfg, pedals=[pedal] * STEPS_PER_TICK, brake=0.0)
    assert car.v_car == pytest.approx(v_star, abs=1e-6)


def test_full_brake_reaches_and_holds_zero():
    cfg = CarConfig()
    car = CarState.at_creep(cfg)
    car.v_car = 5.0
    for _ in range(500):
        car = car_step(car, cfg, pedals=[0.0] * STEPS_PER_TICK, brake=0.5)
    assert car.v_car == 0.0
    car = car_step(car, cfg, pedals=[0.0] * STEPS_PER_TICK, brake=0.5)
    assert car.v_car == 0.0


def test_pedal_transport_delay():
    cfg = CarConfig()
    car = CarState.at_creep(cfg)
    v0 = car.v_car
    n_delay = int(round(cfg.delay_s / CTRL_DT))   # 15 ticks of 4 steps
    for k in range(n_delay + 2):
        car = car_step(car, cfg, pedals=[0.5] * STEPS_PER_TICK, brake=0.0)
        if k < n_delay:
            assert car.v_car == pytest.approx(v0)   # step not yet through the delay
    assert car.v_car > v0


# -- body descriptions -----------------------------------------------------


# default_ankle_geometry() written out by hand, with a non-default car
with open(os.path.join(FIXTURES, "ankle_description.json")) as fh:
    ANKLE_DESCRIPTION = json.load(fh)


def test_description_matches_default_ankle():
    geom, car = geometry_from_description(ANKLE_DESCRIPTION)
    ref = default_ankle_geometry()
    assert car == CarConfig(a_max=25.0, delay_s=0.2)
    assert [m.name for m in geom.muscles] == [m.name for m in ref.muscles]
    for theta in np.linspace(-0.2, 0.8, 11):
        assert np.array_equal(geom.muscle_lengths([theta]), ref.muscle_lengths([theta]))


def test_description_version_check():
    with pytest.raises(ValueError):
        geometry_from_description(dict(ANKLE_DESCRIPTION, version=42))


@pytest.mark.parametrize("change", [
    {"car": {"steer_gain": 40.0}},
    {"gears": 5},
    {"muscles": ANKLE_DESCRIPTION["muscles"][:1]},
], ids=["removed-car-key", "unknown-key", "one-muscle-per-joint"])
def test_description_rejects_bad_documents(change):
    with pytest.raises((TypeError, ValueError)):
        geometry_from_description(dict(ANKLE_DESCRIPTION, **change))
