"""Deterministic fixed-step simulator of a tendon-driven joint chain.

Planar kinematic chains actuated by wire muscles with quadratic series
elasticity, a thermal model per muscle, and a small car model (accelerator
pedal angle -> velocity with an actuation transport delay).  This plant is
the ground truth every learning module trains against.
"""

import json
from dataclasses import dataclass, replace

import numpy as np

PLANT_DT_MAX = 0.02
DESCRIPTION_VERSION = 1


class JointRangeError(ValueError):
    """Joint angle outside declared limits."""


@dataclass
class JointSpec:
    name: str
    parent: int                # parent link index (0 = base)
    origin: tuple              # mount point in the parent link frame [m]
    limits: tuple              # (lo, hi) [rad]
    axis: str = "z"


@dataclass
class MuscleSpec:
    name: str
    attachments: list          # [(link_index, (x, y)), ...] in link frames
    k2: float = 1.0e6          # quadratic stiffness [N/m^2]
    slack: float = 0.0         # stretch below which tension is zero [m]
    length_offset: float = 0.0  # calibration bias added to the path length [m]

    def __post_init__(self):
        if len(self.attachments) < 2:
            raise ValueError(f"muscle {self.name}: needs >= 2 attachment points")
        if self.k2 <= 0:
            raise ValueError(f"muscle {self.name}: k2 must be positive")


@dataclass
class ElasticElementParams:
    k2: float
    slack: float = 0.0


def elastic_tension(params, stretch):
    """Quadratic stiffening wire: zero force when slack, k2*stretch^2 taut."""
    s = np.maximum(0.0, np.asarray(stretch, dtype=float) - params.slack)
    return params.k2 * s * s


def elastic_elongation(params, tension):
    """Inverse of elastic_tension for tension >= 0."""
    f = np.maximum(0.0, np.asarray(tension, dtype=float))
    return params.slack + np.sqrt(f / params.k2)


class MuscleGeometry:
    """Straight-line muscle paths over planar revolute chains.

    Link 0 is the fixed base; joint j rotates link j+1 relative to its
    parent link about the mount point.
    """

    def __init__(self, joints, muscles):
        self.joints = list(joints)
        self.muscles = list(muscles)
        self.n_joints = len(self.joints)
        self.n_muscles = len(self.muscles)
        self.limits_lo = np.array([j.limits[0] for j in self.joints])
        self.limits_hi = np.array([j.limits[1] for j in self.joints])
        for j_idx, j in enumerate(self.joints):
            if j.parent > j_idx:
                raise ValueError(f"joint {j.name}: parent link must precede it")

    def _check_theta(self, theta):
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.n_joints,):
            raise ValueError(f"expected {self.n_joints} joint angles")
        tol = 1e-9
        if np.any(theta < self.limits_lo - tol) or np.any(theta > self.limits_hi + tol):
            raise JointRangeError(f"joint angles {theta} outside limits")
        return theta

    def link_frames(self, theta):
        """World pose (angle, position) of every link frame."""
        angles = np.zeros(self.n_joints + 1)
        positions = np.zeros((self.n_joints + 1, 2))
        for j, spec in enumerate(self.joints):
            pa = angles[spec.parent]
            cp, sp = np.cos(pa), np.sin(pa)
            ox, oy = spec.origin
            positions[j + 1] = positions[spec.parent] + [cp * ox - sp * oy,
                                                         sp * ox + cp * oy]
            angles[j + 1] = pa + theta[j]
        return angles, positions

    def muscle_lengths(self, theta):
        """Geometric path length (plus calibration offset) per muscle."""
        theta = self._check_theta(theta)
        angles, positions = self.link_frames(theta)
        cos_a, sin_a = np.cos(angles), np.sin(angles)
        lengths = np.empty(self.n_muscles)
        for m, spec in enumerate(self.muscles):
            pts = np.empty((len(spec.attachments), 2))
            for i, (link, (px, py)) in enumerate(spec.attachments):
                c, s = cos_a[link], sin_a[link]
                pts[i] = positions[link] + [c * px - s * py, s * px + c * py]
            segs = np.diff(pts, axis=0)
            lengths[m] = np.sum(np.hypot(segs[:, 0], segs[:, 1])) + spec.length_offset
        return lengths

    def jacobian(self, theta, h=1e-6):
        """d(muscle length)/d(joint angle), central finite differences."""
        theta = self._check_theta(theta)
        G = np.empty((self.n_muscles, self.n_joints))
        for j in range(self.n_joints):
            tp, tm = theta.copy(), theta.copy()
            tp[j] += h
            tm[j] -= h
            # keep perturbed poses inside the declared limits
            tp[j] = min(tp[j], self.limits_hi[j])
            tm[j] = max(tm[j], self.limits_lo[j])
            G[:, j] = (self.muscle_lengths(tp) - self.muscle_lengths(tm)) / (tp[j] - tm[j])
        return G

    def neutral_pose(self):
        return np.clip(np.zeros(self.n_joints), self.limits_lo, self.limits_hi)

    def validate_antagonism(self, theta=None, tol=1e-6):
        """Every joint must be spanned in both pull directions."""
        theta = self.neutral_pose() if theta is None else np.asarray(theta, float)
        G = self.jacobian(theta)
        for j, spec in enumerate(self.joints):
            if not (np.any(G[:, j] > tol) and np.any(G[:, j] < -tol)):
                raise ValueError(f"joint {spec.name} is not spanned antagonistically")

    def elastic_params(self):
        return [ElasticElementParams(m.k2, m.slack) for m in self.muscles]


@dataclass
class PlantConfig:
    inertia: np.ndarray            # per joint [kg m^2]
    damping: np.ndarray            # viscous joint damping [N m s/rad]
    spring_k: np.ndarray           # external load spring per joint [N m/rad]
    spring_theta0: np.ndarray      # spring rest pose [rad]
    tau_servo: float = 0.05        # muscle length servo time constant [s]
    kappa_heat: float = 2.0e-4     # [degC / (N^2 s)]
    kappa_cool: float = 0.1        # [1/s]
    c_ambient: float = 25.0        # [degC]

    def __post_init__(self):
        self.inertia = np.asarray(self.inertia, dtype=float)
        self.damping = np.asarray(self.damping, dtype=float)
        self.spring_k = np.asarray(self.spring_k, dtype=float)
        self.spring_theta0 = np.asarray(self.spring_theta0, dtype=float)


@dataclass
class PlantState:
    theta: np.ndarray       # joint angles [rad]
    theta_dot: np.ndarray   # joint velocities [rad/s]
    l: np.ndarray           # actuated (measured) muscle lengths [m]
    f: np.ndarray           # muscle tensions [N]
    c: np.ndarray           # muscle temperatures [degC]
    t: float = 0.0          # simulation time [s]

    def copy(self):
        return PlantState(self.theta.copy(), self.theta_dot.copy(),
                          self.l.copy(), self.f.copy(), self.c.copy(), self.t)


class Plant:
    """Semi-implicit Euler muscle-joint plant.

    Tension appears when the actuated length falls short of the geometric
    path (stretch = geometric - actuated); torque is -G^T f plus an
    external load spring and viscous damping.  Joints flagged in
    ``constrained`` are held by the environment and do not move.
    """

    def __init__(self, geom, config):
        self.geom = geom
        self.config = config
        self.constrained = np.zeros(geom.n_joints, dtype=bool)
        self._k2 = np.array([m.k2 for m in geom.muscles])
        self._slack = np.array([m.slack for m in geom.muscles])

    def initial_state(self, theta=None):
        """Rest state: actuated lengths match the pose, no tension."""
        theta = self.geom.neutral_pose() if theta is None else np.asarray(theta, float)
        l_geo = self.geom.muscle_lengths(theta)
        n_m = self.geom.n_muscles
        return PlantState(theta=theta.copy(),
                          theta_dot=np.zeros(self.geom.n_joints),
                          l=l_geo.copy(),
                          f=np.zeros(n_m),
                          c=np.full(n_m, self.config.c_ambient))

    def holding_torque(self, theta):
        """Muscle torque required to hold the pose against the load spring."""
        return self.config.spring_k * (np.asarray(theta, float) - self.config.spring_theta0)

    def tensions(self, theta, l_act):
        stretch = self.geom.muscle_lengths(theta) - l_act
        s = np.maximum(0.0, stretch - self._slack)
        return self._k2 * s * s

    def step(self, state, l_ref, dt):
        if not (0.0 < dt <= PLANT_DT_MAX):
            raise ValueError(f"dt must be in (0, {PLANT_DT_MAX}]")
        l_ref = np.asarray(l_ref, dtype=float)
        if l_ref.shape != (self.geom.n_muscles,):
            raise ValueError("l_ref dimension mismatch")
        if not (np.all(np.isfinite(l_ref)) and np.all(np.isfinite(state.theta))):
            raise FloatingPointError("non-finite plant inputs")
        cfg = self.config

        l_act = state.l + dt * (l_ref - state.l) / cfg.tau_servo
        f = self.tensions(state.theta, l_act)
        G = self.geom.jacobian(state.theta)
        tau_ext = -cfg.spring_k * (state.theta - cfg.spring_theta0)
        tau = -G.T @ f + tau_ext - cfg.damping * state.theta_dot

        theta_dot = state.theta_dot + dt * tau / cfg.inertia
        theta_dot[self.constrained] = 0.0
        theta = state.theta + dt * theta_dot
        # hard stops at the joint limits
        low = theta < self.geom.limits_lo
        high = theta > self.geom.limits_hi
        theta = np.clip(theta, self.geom.limits_lo, self.geom.limits_hi)
        theta_dot[low | high] = 0.0

        c = state.c + dt * (cfg.kappa_heat * f * f - cfg.kappa_cool * (state.c - cfg.c_ambient))
        c = np.maximum(c, cfg.c_ambient)
        return PlantState(theta=theta, theta_dot=theta_dot, l=l_act,
                          f=f, c=c, t=state.t + dt)


# --------------------------------------------------------------------------
# car model


@dataclass
class CarConfig:
    a_max: float = 30.0        # accel gain [km/h/s per rad of pedal past dead zone]
    drag_coeff: float = 2.0    # relaxation rate toward creep velocity [1/s]
    dead_zone: float = 0.1     # pedal dead zone [rad]
    b_max: float = 60.0        # brake gain [km/h/s per rad]
    brake_dead: float = 0.05   # brake pedal dead zone [rad]
    delay_s: float = 0.3       # pedal actuation transport delay [s]
    creep_kmh: float = 2.0     # velocity with no pedal input [km/h]
    steer_gain: float = 40.0   # wheel angle rate per steering joint angle [deg/s/rad]


@dataclass
class CarState:
    v_car: float = 0.0
    pedal_angle: float = 0.0
    wheel_angle: float = 0.0
    pedal_buffer: np.ndarray = None   # transport delay ring buffer
    buf_idx: int = 0

    @classmethod
    def at_creep(cls, cfg, dt):
        n = max(1, int(round(cfg.delay_s / dt)))
        return cls(v_car=cfg.creep_kmh, pedal_buffer=np.zeros(n))


def car_drag(cfg, v):
    """Drag torque balance term; zero at creep velocity."""
    return cfg.drag_coeff * (v - cfg.creep_kmh)


def car_step(car, cfg, pedal, brake, steer_joint, dt):
    if not (0.0 < dt <= PLANT_DT_MAX):
        raise ValueError(f"dt must be in (0, {PLANT_DT_MAX}]")
    if car.pedal_buffer is None:
        car = replace(car, pedal_buffer=np.zeros(max(1, int(round(cfg.delay_s / dt)))))
    buf = car.pedal_buffer.copy()
    delayed = buf[car.buf_idx]
    buf[car.buf_idx] = pedal
    idx = (car.buf_idx + 1) % buf.size

    accel = (cfg.a_max * max(0.0, delayed - cfg.dead_zone)
             - cfg.b_max * max(0.0, brake - cfg.brake_dead)
             - car_drag(cfg, car.v_car))
    v = max(0.0, car.v_car + dt * accel)
    wheel = car.wheel_angle + dt * cfg.steer_gain * steer_joint
    return CarState(v_car=v, pedal_angle=pedal, wheel_angle=wheel,
                    pedal_buffer=buf, buf_idx=idx)


# --------------------------------------------------------------------------
# description file IO and the default desk-scale body


def geometry_to_description(geom, car_cfg):
    return {
        "version": DESCRIPTION_VERSION,
        "joints": [{"name": j.name, "axis": j.axis, "parent": j.parent,
                    "origin": list(j.origin), "limits": list(j.limits)}
                   for j in geom.joints],
        "muscles": [{"name": m.name,
                     "attachments": [[link, list(pt)] for link, pt in m.attachments],
                     "k2": m.k2, "slack": m.slack,
                     "length_offset": m.length_offset}
                    for m in geom.muscles],
        "car": {"a_max": car_cfg.a_max, "drag_coeff": car_cfg.drag_coeff,
                "dead_zone": car_cfg.dead_zone, "b_max": car_cfg.b_max,
                "brake_dead": car_cfg.brake_dead, "delay_s": car_cfg.delay_s,
                "creep_kmh": car_cfg.creep_kmh, "steer_gain": car_cfg.steer_gain},
    }


def geometry_from_description(doc):
    if doc.get("version") != DESCRIPTION_VERSION:
        raise ValueError(f"unsupported plant description version {doc.get('version')}")
    joints = [JointSpec(j["name"], j["parent"], tuple(j["origin"]),
                        tuple(j["limits"]), j.get("axis", "z"))
              for j in doc["joints"]]
    muscles = [MuscleSpec(m["name"],
                          [(a[0], tuple(a[1])) for a in m["attachments"]],
                          k2=m.get("k2", 1e6), slack=m.get("slack", 0.0),
                          length_offset=m.get("length_offset", 0.0))
               for m in doc["muscles"]]
    car = CarConfig(**doc.get("car", {}))
    return MuscleGeometry(joints, muscles), car


def save_description(path, geom, car_cfg):
    with open(path, "w") as fh:
        json.dump(geometry_to_description(geom, car_cfg), fh, indent=2)


def load_description(path):
    with open(path) as fh:
        return geometry_from_description(json.load(fh))


def _antagonist_pair(name, parent, mount, radius, span, k2, offset=(0.0, 0.0)):
    """Two muscles wrapping a pin joint on opposite sides.

    Anchors sit on the parent link behind the joint, insertions on the child
    link ahead of it; moment arm at neutral is about +-radius.
    """
    mx, my = mount
    ox, oy = offset
    flex = MuscleSpec(f"{name}_flex",
                      [(parent, (mx - span + ox, my + radius + oy)),
                       (parent + 1, (span, radius))], k2=k2)
    ext = MuscleSpec(f"{name}_ext",
                     [(parent, (mx - span + ox, my - radius + oy)),
                      (parent + 1, (span, -radius))], k2=k2)
    return [flex, ext]


def default_arm_geometry(k2=1.0e7):
    """2-DOF planar arm (shoulder pitch + elbow) with 6 muscles.

    Mono-articular antagonist pairs at each joint plus a bi-articular pair,
    driving a spring-loaded steering-wheel joint load.
    """
    joints = [
        JointSpec("shoulder", parent=0, origin=(0.0, 0.0), limits=(-1.2, 1.2)),
        JointSpec("elbow", parent=1, origin=(0.30, 0.0), limits=(-1.2, 1.2)),
    ]
    muscles = []
    muscles += _antagonist_pair("shoulder", 0, (0.0, 0.0), 0.035, 0.10, k2)
    muscles += _antagonist_pair("elbow", 1, (0.30, 0.0), 0.035, 0.10, k2)
    # bi-articular pair base -> forearm
    muscles.append(MuscleSpec("biart_flex",
                              [(0, (-0.10, 0.05)), (1, (0.15, 0.045)),
                               (2, (0.10, 0.03))], k2=k2))
    muscles.append(MuscleSpec("biart_ext",
                              [(0, (-0.10, -0.05)), (1, (0.15, -0.045)),
                               (2, (0.10, -0.03))], k2=k2))
    return MuscleGeometry(joints, muscles)


def default_ankle_geometry(k2=1.0e7, length_offsets=(0.0, 0.0)):
    """1-DOF ankle pitch with one antagonist muscle pair (pedal driver)."""
    joints = [JointSpec("ankle_pitch", parent=0, origin=(0.0, 0.0),
                        limits=(-0.2, 0.8))]
    muscles = _antagonist_pair("ankle", 0, (0.0, 0.0), 0.030, 0.08, k2)
    for m, off in zip(muscles, length_offsets):
        m.length_offset = off
    return MuscleGeometry(joints, muscles)


def default_arm_plant_config(geom):
    n = geom.n_joints
    return PlantConfig(inertia=np.full(n, 0.02),
                       damping=np.full(n, 0.5),
                       spring_k=np.full(n, 2.0),
                       spring_theta0=np.zeros(n))


def default_ankle_plant_config(geom):
    n = geom.n_joints
    return PlantConfig(inertia=np.full(n, 0.005),
                       damping=np.full(n, 0.2),
                       spring_k=np.full(n, 1.0),
                       spring_theta0=np.zeros(n))


def write_trajectory_csv(path, times, states, v_car=None):
    """Trajectory log: t,theta_*,f_*,c_*,l_*,v_car."""
    n_j = states[0].theta.size
    n_m = states[0].l.size
    cols = (["t"]
            + [f"theta_{i}" for i in range(n_j)]
            + [f"f_{i}" for i in range(n_m)]
            + [f"c_{i}" for i in range(n_m)]
            + [f"l_{i}" for i in range(n_m)]
            + ["v_car"])
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for k, (t, s) in enumerate(zip(times, states)):
            v = v_car[k] if v_car is not None else 0.0
            row = np.concatenate(([t], s.theta, s.f, s.c, s.l, [v]))
            fh.write(",".join(format(x, ".9g") for x in row) + "\n")
