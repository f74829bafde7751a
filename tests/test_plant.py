"""Plant simulator: geometry, elasticity, dynamics, car model."""

import json
import os
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tendonctl.plant import (ANKLE_PLANT_CONFIG, ARM_PLANT_CONFIG, C_AMBIENT, CTRL_DT,
                             KAPPA_COOL, KAPPA_HEAT, PLANT_DT, STEPS_PER_TICK, TAU_SERVO,
                             CarConfig, CarState, JointRangeError, JointSpec,
                             MuscleGeometry, MuscleSpec, Plant, PlantState, car_drag,
                             car_step, default_ankle_geometry, default_arm_geometry,
                             elastic_elongation, elastic_tension, ticks)

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


# -- elastic element -------------------------------------------------------


def wire(k2, slack=0.0):
    """The elastic parameters of one wire, as the elastic functions read them."""
    return SimpleNamespace(k2=k2, slack=slack)


def test_slack_wire_has_no_tension():
    p = wire(k2=1e6)
    assert elastic_tension(p, 0.0) == 0.0
    assert elastic_tension(p, -0.01) == 0.0


def test_elastic_tension_value():
    # [DERIVED] direct formula evaluation: 1e6 * 0.01^2 = 100 N
    p = wire(k2=1e6)
    assert elastic_tension(p, 0.01) == pytest.approx(100.0)


def test_doubling_stretch_quadruples_tension():
    p = wire(k2=3e6, slack=0.0)
    assert elastic_tension(p, 0.02) == pytest.approx(4 * elastic_tension(p, 0.01))


def test_elastic_elongation_inverts_tension():
    p = wire(k2=2e6, slack=1e-3)
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


def _arm_led_through_the_elbow():
    """The arm with its bi-articular flexor led through the elbow's mount
    point: its segment from the mount point to the forearm's origin has
    zero length at every pose."""
    geom = default_arm_geometry()
    elbow = geom.joints[1]
    (l0, anchor), (l1, via), (l2, insertion) = geom.muscles[4].attachments
    led = replace(geom.muscles[4], attachments=[(l0, anchor), (l1, via), (elbow.parent, elbow.origin),
                                                (2, (0.0, 0.0)), (l2, insertion)])
    return MuscleGeometry(geom.joints, geom.muscles[:4] + [led] + geom.muscles[5:])


def test_segment_through_a_joint_centre_adds_nothing_to_g():
    body = _arm_led_through_the_elbow()
    theta = np.array([0.3, -0.4])
    G = body.jacobian(theta)
    assert np.all(np.isfinite(G))
    assert np.max(np.abs(G - _central_differences(body, theta, 1e-6))) < 1e-8
    assert np.array_equal(body.muscle_lengths(theta), _reference_lengths(body, theta))


def _reference_paths(geom, theta):
    """The array pass that the geometry was before it ran on floats: the
    link frames, then lengths and G from the attachments flattened into
    arrays."""
    n_j, n_m = geom.n_joints, geom.n_muscles
    moves = np.zeros((n_j + 1, n_j))   # moves[L, j]: joint j lies on link L's chain
    for j_idx, j in enumerate(geom.joints):
        moves[j_idx + 1] = moves[j.parent]
        moves[j_idx + 1, j_idx] = 1.0
    points = [(link, xy) for m in geom.muscles for link, xy in m.attachments]
    link = np.array([lk for lk, _ in points], dtype=int)
    local = np.array([xy for _, xy in points], dtype=float).reshape(-1, 2)
    owner = np.repeat(np.arange(n_m), [len(m.attachments) for m in geom.muscles])
    a = np.flatnonzero(owner[:-1] == owner[1:])
    b = a + 1
    S = np.zeros((n_m, a.size))
    S[owner[a], np.arange(a.size)] = 1.0
    offset = np.array([m.length_offset for m in geom.muscles], dtype=float)

    angles = np.zeros(n_j + 1)
    positions = np.zeros((n_j + 1, 2))
    for j, spec in enumerate(geom.joints):
        pa = angles[spec.parent]
        cp, sp = np.cos(pa), np.sin(pa)
        ox, oy = spec.origin
        positions[j + 1] = positions[spec.parent] + [cp * ox - sp * oy, sp * ox + cp * oy]
        angles[j + 1] = pa + theta[j]
    c, s = np.cos(angles)[link], np.sin(angles)[link]
    x, y = local[:, 0], local[:, 1]
    p = positions[link] + np.stack([c * x - s * y, s * x + c * y], axis=1)
    pa, pb = p[a], p[b]
    d = pb - pa
    norm = np.hypot(d[:, 0], d[:, 1])
    lengths = S @ norm + offset
    u = d / np.where(norm > 0, norm, 1.0)[:, None]
    ux, uy = u[:, 0], u[:, 1]
    o = positions[1:]
    o_u = np.outer(uy, o[:, 0]) - np.outer(ux, o[:, 1])
    pa_u = (pa[:, 0] * uy - pa[:, 1] * ux)[:, None]
    pb_u = (pb[:, 0] * uy - pb[:, 1] * ux)[:, None]
    G_seg = moves[link[b]] * (pb_u - o_u) - moves[link[a]] * (pa_u - o_u)
    return lengths, S @ G_seg


def _assert_float_pass_is_the_array_pass(geom, theta):
    # G bit for bit; the lengths too where every muscle has at most two
    # segments.  With three or more, the BLAS row sum of S @ norm takes them
    # in its own order, so there the float pass (an in-order sum) equals the
    # per-muscle loop bit for bit and the array pass to rounding.
    lengths, G = _reference_paths(geom, theta)
    assert np.array_equal(geom.jacobian(theta), G)
    if max(len(m.attachments) for m in geom.muscles) <= 3:
        assert np.array_equal(geom.muscle_lengths(theta), lengths)
    else:
        assert np.array_equal(geom.muscle_lengths(theta), _reference_lengths(geom, theta))
        assert np.allclose(geom.muscle_lengths(theta), lengths,
                           rtol=4 * np.finfo(float).eps, atol=0.0)


@pytest.mark.parametrize("body", ["ankle", "arm", "led_through_the_elbow"])
def test_float_pass_equals_the_array_pass(body):
    geom = _arm_led_through_the_elbow() if body == "led_through_the_elbow" else BODIES[body]()
    rng = np.random.default_rng(5)
    for theta in rng.uniform(geom.limits_lo, geom.limits_hi, size=(400, geom.n_joints)):
        _assert_float_pass_is_the_array_pass(geom, theta)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_float_pass_equals_the_array_pass_on_branching_bodies(data):
    geom = data.draw(branching_bodies())
    theta = np.array([data.draw(st.floats(lo, hi))
                      for lo, hi in zip(geom.limits_lo, geom.limits_hi)])
    _assert_float_pass_is_the_array_pass(geom, theta)


def test_joint_limits_enforced():
    geom = default_ankle_geometry()
    with pytest.raises(JointRangeError):
        geom.muscle_lengths(np.array([2.0]))
    with pytest.raises(JointRangeError):   # NaN is inside no range
        geom.muscle_lengths(np.array([np.nan]))
    with pytest.raises(ValueError):
        geom.muscle_lengths(np.zeros(2))


@pytest.mark.parametrize("body", ["ankle", "arm"])
def test_per_body_arrays_are_read_only(body):
    # Plant.step and the angle check read float lists built from these once
    geom = BODIES[body]()
    for name in ("limits_lo", "limits_hi", "k2", "slack"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(geom, name)[0] = 0.5


def test_muscle_spec_validation():
    with pytest.raises(ValueError):
        MuscleSpec("bad", [(0, (0.0, 0.0))])
    with pytest.raises(ValueError):
        MuscleSpec("bad", [(0, (0.0, 0.0)), (1, (0.1, 0.0))], k2=-1.0)


# -- joint dynamics --------------------------------------------------------


def make_ankle_plant():
    geom = default_ankle_geometry()
    return geom, Plant(geom, ANKLE_PLANT_CONFIG)


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
    state = p.initial_state()
    state.f[:] = 100.0
    c = state.c[0]
    expect = KAPPA_HEAT * 100.0 ** 2 / KAPPA_COOL + C_AMBIENT
    prev = c
    for _ in range(20000):
        c = c + 0.005 * (KAPPA_HEAT * 1e4 - KAPPA_COOL * (c - C_AMBIENT))
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
    for field in ("theta_dot", "l", "c"):   # each state field, not only the command
        nan = replace(state, **{field: np.full_like(getattr(state, field), np.nan)})
        with pytest.raises(FloatingPointError):
            p.step(nan, state.l)


def _reference_step(p, state, l_ref, dt=PLANT_DT):
    """One semi-implicit Euler step of ``dt``: the one-step plant as it
    stood before a control tick became one call."""
    cfg = p.config
    l_act = state.l + dt * (l_ref - state.l) / TAU_SERVO
    stretch = p.geom.muscle_lengths(state.theta) - l_act
    s = np.maximum(0.0, stretch - p.geom.slack)
    f = p.geom.k2 * s * s
    G = p.geom.jacobian(state.theta)
    tau_ext = -cfg.spring_k * state.theta
    tau = -G.T @ f + tau_ext - cfg.damping * state.theta_dot
    theta_dot = state.theta_dot + dt * tau / cfg.inertia
    theta_dot[p.constrained] = 0.0
    theta = state.theta + dt * theta_dot
    low = theta < p.geom.limits_lo
    high = theta > p.geom.limits_hi
    theta = np.clip(theta, p.geom.limits_lo, p.geom.limits_hi)
    theta_dot[low | high] = 0.0
    c = state.c + dt * (KAPPA_HEAT * f * f - KAPPA_COOL * (state.c - C_AMBIENT))
    c = np.maximum(c, C_AMBIENT)
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


def test_ticks_of_every_whole_tick_duration():
    # k ticks written to the centisecond are k ticks; a truncating
    # int(seconds / CTRL_DT) gives k - 1 for 277 of these (0.58 s, 0.94 s, ...)
    for k in range(1, 3001):
        assert ticks(round(k * 0.02, 2)) == k


@pytest.mark.parametrize("body", ["ankle", "arm"])
def test_tick_is_four_steps_bit_for_bit(body):
    # a tick is STEPS_PER_TICK steps of PLANT_DT: same theta, f, l, c, t and
    # car speed to the last bit as stepping one PLANT_DT at a time
    assert STEPS_PER_TICK * PLANT_DT == CTRL_DT
    if body == "ankle":
        geom, p = make_ankle_plant()
    else:
        geom = default_arm_geometry()
        p = Plant(geom, ARM_PLANT_CONFIG)
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


@pytest.mark.parametrize("body", ["ankle", "arm"])
def test_step_returns_fresh_arrays_and_leaves_its_input_untouched(body):
    # PedalRig reads l_dot from the previous state's l, so a step that wrote
    # into its input arrays, or handed them back, would zero l_dot
    geom = BODIES[body]()
    p = Plant(geom, ANKLE_PLANT_CONFIG if body == "ankle" else ARM_PLANT_CONFIG)
    state = p.initial_state()
    l_ref = state.l - 0.002
    before = {name: getattr(state, name).copy() for name in ("theta", "theta_dot", "l", "f", "c")}
    l_ref_before = l_ref.copy()
    after, thetas = p.step(state, l_ref)
    for name, value in before.items():
        assert np.array_equal(getattr(state, name), value), name
        assert not np.shares_memory(getattr(after, name), getattr(state, name)), name
        assert not np.shares_memory(getattr(after, name), thetas), name
    assert state.t == 0.0
    assert np.array_equal(l_ref, l_ref_before)
    assert not np.array_equal(after.l, state.l)


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
    n_delay = ticks(cfg.delay_s)   # 15 ticks of 4 steps
    for k in range(n_delay + 2):
        car = car_step(car, cfg, pedals=[0.5] * STEPS_PER_TICK, brake=0.0)
        if k < n_delay:
            assert car.v_car == pytest.approx(v0)   # step not yet through the delay
    assert car.v_car > v0
