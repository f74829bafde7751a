"""Plant simulator: geometry, elasticity, dynamics, car model, descriptions."""

import json
import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tendonctl.plant import (CTRL_DT, PLANT_DT, STEPS_PER_TICK, CarConfig,
                             CarState, ElasticElementParams, JointRangeError,
                             JointSpec, MuscleGeometry, MuscleSpec, Plant,
                             PlantState, car_drag, car_step,
                             default_ankle_geometry, default_ankle_plant_config,
                             default_arm_geometry, default_arm_plant_config,
                             elastic_elongation, elastic_tension,
                             geometry_from_description)

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


BODIES = {"ankle": default_ankle_geometry, "arm": default_arm_geometry}


def _world_points(geom, theta):
    """Each muscle's attachment points in the world frame, one at a time."""
    angles, positions = geom.link_frames(theta)
    cos_a, sin_a = np.cos(angles), np.sin(angles)
    points = []
    for spec in geom.muscles:
        pts = np.empty((len(spec.attachments), 2))
        for i, (link, (px, py)) in enumerate(spec.attachments):
            c, s = cos_a[link], sin_a[link]
            pts[i] = positions[link] + [c * px - s * py, s * px + c * py]
        points.append(pts)
    return points


def _reference_lengths(geom, theta):
    """The per-muscle loop that muscle_lengths was before its one pass."""
    lengths = np.empty(geom.n_muscles)
    for m, (spec, pts) in enumerate(zip(geom.muscles, _world_points(geom, theta))):
        segs = np.diff(pts, axis=0)
        lengths[m] = np.sum(np.hypot(segs[:, 0], segs[:, 1])) + spec.length_offset
    return lengths


def _central_differences(geom, theta, h):
    G = np.empty((geom.n_muscles, geom.n_joints))
    for j in range(geom.n_joints):
        step = np.zeros(geom.n_joints)
        step[j] = h
        G[:, j] = (geom.muscle_lengths(theta + step) - geom.muscle_lengths(theta - step)) / (2 * h)
    return G


@st.composite
def branching_bodies(draw):
    """A random planar body: joints 0 and 1 both hang off the base (a branch),
    later joints off any earlier link; muscle 0 has three points."""
    n = draw(st.integers(2, 4))
    xy = st.tuples(st.floats(-0.3, 0.3), st.floats(-0.3, 0.3))
    joints = [JointSpec(f"j{j}", parent=0 if j < 2 else draw(st.integers(0, j)),
                        origin=draw(xy), limits=(-1.0, 1.0)) for j in range(n)]
    muscles = []
    for m in range(draw(st.integers(1, 4))):
        links = draw(st.lists(st.integers(0, n), min_size=2 if m else 3, max_size=3))
        muscles.append(MuscleSpec(f"m{m}", [(link, draw(xy)) for link in links],
                                  length_offset=draw(st.floats(0.0, 0.01))))
    return MuscleGeometry(joints, muscles)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("body", ["ankle", "arm", "branching"])
def test_jacobian_matches_central_differences(body, data):
    geom = data.draw(branching_bodies()) if body == "branching" else BODIES[body]()
    h = 1e-6
    theta = np.array([data.draw(st.floats(lo + h, hi - h))
                      for lo, hi in zip(geom.limits_lo, geom.limits_hi)])
    points = _world_points(geom, theta)
    assume(min(np.hypot(*np.diff(p, axis=0).T).min() for p in points) > 0.01)
    assert np.max(np.abs(geom.jacobian(theta) - _central_differences(geom, theta, h))) < 1e-8
    assert np.array_equal(geom.muscle_lengths(theta), _reference_lengths(geom, theta))


@pytest.mark.parametrize("body", ["ankle", "arm"])
def test_muscle_lengths_equal_the_per_muscle_loop(body):
    geom = BODIES[body]()
    rng = np.random.default_rng(3)
    for theta in rng.uniform(geom.limits_lo, geom.limits_hi, size=(400, geom.n_joints)):
        assert np.array_equal(geom.muscle_lengths(theta), _reference_lengths(geom, theta))


@pytest.mark.parametrize("body", ["ankle", "arm"])
def test_jacobian_at_a_limit_is_two_sided(body):
    # the paths run on smoothly past a joint stop, so G there is the central
    # derivative, taken on the same body with wider limits
    geom = BODIES[body]()
    wide = MuscleGeometry([replace(j, limits=(-3.0, 3.0)) for j in geom.joints],
                          geom.muscles)
    for theta in (geom.limits_lo, geom.limits_hi):
        G = _central_differences(wide, theta, 1e-5)
        assert np.max(np.abs(geom.jacobian(theta) - G)) < 1e-9


def test_segment_through_a_joint_centre_adds_nothing_to_g():
    # the elbow flexor led through the elbow's mount point: its segment from
    # the mount point to the forearm's origin has zero length at every pose
    geom = default_arm_geometry()
    elbow = geom.joints[1]
    (l0, anchor), (l1, via), (l2, insertion) = geom.muscles[4].attachments
    led = replace(geom.muscles[4], attachments=[(l0, anchor), (l1, via), (elbow.parent, elbow.origin),
                                                (2, (0.0, 0.0)), (l2, insertion)])
    body = MuscleGeometry(geom.joints, geom.muscles[:4] + [led] + geom.muscles[5:])
    theta = np.array([0.3, -0.4])
    G = body.jacobian(theta)
    assert np.all(np.isfinite(G))
    assert np.max(np.abs(G - _central_differences(body, theta, 1e-6))) < 1e-8
    assert np.array_equal(body.muscle_lengths(theta), _reference_lengths(body, theta))


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
    stretch = p.geom.muscle_lengths(state.theta) - l_act
    s = np.maximum(0.0, stretch - p.geom.slack)
    f = p.geom.k2 * s * s
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


@pytest.mark.parametrize("key", ["delay_s", "drag_coeff", "creep_kmh"])
def test_car_config_rejects_negative_values(key):
    with pytest.raises(ValueError, match=key):
        CarConfig(**{key: -1.0})
    assert getattr(CarConfig(**{key: 0.0}), key) == 0.0


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
