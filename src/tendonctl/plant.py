"""Deterministic fixed-step simulator of a tendon-driven joint chain.

Planar kinematic chains actuated by wire muscles with quadratic series
elasticity, a thermal model per muscle, and a small car model (accelerator
pedal angle -> velocity with an actuation transport delay).  This plant is
the ground truth every learning module trains against.
"""

from dataclasses import dataclass

import numpy as np

# One control tick per Plant.step and car_step, in fixed steps: semi-implicit
# Euler is stable only while omega * dt < 2, which the muscles break at 20 ms.
CTRL_DT = 0.02       # control tick [s]
PLANT_DT = 0.005     # integration step [s]
STEPS_PER_TICK = 4
DESCRIPTION_VERSION = 1


class JointRangeError(ValueError):
    """Joint angle outside declared limits."""


@dataclass
class JointSpec:
    name: str
    parent: int                # parent link index (0 = base)
    origin: tuple              # mount point in the parent link frame [m]
    limits: tuple              # (lo, hi) [rad]


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
    parent link about the mount point.  The attachments are flattened into
    arrays once, so that one pass over them gives every muscle length and,
    on request, G = dl/dtheta analytically: joint j moves each point p that
    it carries by z x (p - o_j), where o_j is the joint's world position
    (the planar revolute point Jacobian; Murray, Li & Sastry, 1994, ch. 3).
    ``k2`` and ``slack`` hold every muscle's elastic parameters, so the
    geometry serves as the params of elastic_tension and elastic_elongation.
    """

    def __init__(self, joints, muscles):
        self.joints = list(joints)
        self.muscles = list(muscles)
        self.n_joints = len(self.joints)
        self.n_muscles = len(self.muscles)
        self.limits_lo = np.array([j.limits[0] for j in self.joints])
        self.limits_hi = np.array([j.limits[1] for j in self.joints])
        self.k2 = np.array([m.k2 for m in self.muscles], dtype=float)
        self.slack = np.array([m.slack for m in self.muscles], dtype=float)
        self._offset = np.array([m.length_offset for m in self.muscles], dtype=float)
        # moves[L, j]: joint j lies on link L's chain to the base
        moves = np.zeros((self.n_joints + 1, self.n_joints))
        for j_idx, j in enumerate(self.joints):
            if j.parent > j_idx:
                raise ValueError(f"joint {j.name}: parent link must precede it")
            moves[j_idx + 1] = moves[j.parent]
            moves[j_idx + 1, j_idx] = 1.0
        points = [(link, xy) for m in self.muscles for link, xy in m.attachments]
        self._link = np.array([link for link, _ in points], dtype=int)
        if np.any((self._link < 0) | (self._link > self.n_joints)):
            raise ValueError(f"attachment links must lie in 0..{self.n_joints}")
        self._local = np.array([xy for _, xy in points], dtype=float).reshape(-1, 2)
        # points a and b = a + 1 of one muscle make a segment of it
        owner = np.repeat(np.arange(self.n_muscles), [len(m.attachments) for m in self.muscles])
        self._a = np.flatnonzero(owner[:-1] == owner[1:])
        self._b = self._a + 1
        self._S = np.zeros((self.n_muscles, self._a.size))
        self._S[owner[self._a], np.arange(self._a.size)] = 1.0
        self._moves_a = moves[self._link[self._a]]
        self._moves_b = moves[self._link[self._b]]

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

    def _paths(self, theta, jacobian=False):
        """Muscle lengths at a checked theta, and with ``jacobian`` also G."""
        angles, positions = self.link_frames(theta)
        c, s = np.cos(angles)[self._link], np.sin(angles)[self._link]
        x, y = self._local[:, 0], self._local[:, 1]
        p = positions[self._link] + np.stack([c * x - s * y, s * x + c * y], axis=1)
        pa, pb = p[self._a], p[self._b]
        d = pb - pa
        norm = np.hypot(d[:, 0], d[:, 1])
        lengths = self._S @ norm + self._offset
        if not jacobian:
            return lengths
        # a segment whose ends coincide (d = 0, as when it is led through a
        # joint centre) adds nothing to G: 0 is a subgradient of |d| there
        u = d / np.where(norm > 0, norm, 1.0)[:, None]
        ux, uy = u[:, 0], u[:, 1]
        # u . (z x (q - o_j)) = q x u - o_j x u for a segment end q that joint j moves
        o = positions[1:]
        o_u = np.outer(uy, o[:, 0]) - np.outer(ux, o[:, 1])
        pa_u = (pa[:, 0] * uy - pa[:, 1] * ux)[:, None]
        pb_u = (pb[:, 0] * uy - pb[:, 1] * ux)[:, None]
        G_seg = self._moves_b * (pb_u - o_u) - self._moves_a * (pa_u - o_u)
        return lengths, self._S @ G_seg

    def muscle_lengths(self, theta):
        """Geometric path length (plus calibration offset) per muscle."""
        return self._paths(self._check_theta(theta))

    def jacobian(self, theta):
        """d(muscle length)/d(joint angle), analytic."""
        return self._paths(self._check_theta(theta), jacobian=True)[1]

    def neutral_pose(self):
        return np.clip(np.zeros(self.n_joints), self.limits_lo, self.limits_hi)

    def validate_antagonism(self, theta=None, tol=1e-6):
        """Every joint must be spanned in both pull directions."""
        theta = self.neutral_pose() if theta is None else np.asarray(theta, float)
        G = self.jacobian(theta)
        for j, spec in enumerate(self.joints):
            if not (np.any(G[:, j] > tol) and np.any(G[:, j] < -tol)):
                raise ValueError(f"joint {spec.name} is not spanned antagonistically")


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

    def step(self, state, l_ref):
        """One control tick of STEPS_PER_TICK semi-implicit Euler steps toward
        the length command l_ref.  Returns the tick's end state and the joint
        angles after each step (steps x joints), which the car's pedal delay
        reads.  Each step makes one geometry pass for both f and G; theta is
        checked once, since the joint stops keep it inside the limits."""
        geom = self.geom
        l_ref = np.asarray(l_ref, dtype=float)
        if l_ref.shape != (geom.n_muscles,):
            raise ValueError("l_ref dimension mismatch")
        if not (np.all(np.isfinite(l_ref)) and np.all(np.isfinite(state.theta))):
            raise FloatingPointError("non-finite plant inputs")
        cfg, dt = self.config, PLANT_DT
        theta = geom._check_theta(state.theta)
        theta_dot, l_act, c, t = state.theta_dot, state.l, state.c, state.t
        thetas = np.empty((STEPS_PER_TICK, geom.n_joints))
        for k in range(STEPS_PER_TICK):
            l_act = l_act + dt * (l_ref - l_act) / cfg.tau_servo
            l_geo, G = geom._paths(theta, jacobian=True)
            f = elastic_tension(geom, l_geo - l_act)
            tau = (-G.T @ f - cfg.spring_k * (theta - cfg.spring_theta0)
                   - cfg.damping * theta_dot)
            theta_dot = theta_dot + dt * tau / cfg.inertia
            theta_dot[self.constrained] = 0.0
            theta = theta + dt * theta_dot
            # hard stops at the joint limits
            stop = (theta < geom.limits_lo) | (theta > geom.limits_hi)
            theta = np.clip(theta, geom.limits_lo, geom.limits_hi)
            theta_dot[stop] = 0.0
            c = c + dt * (cfg.kappa_heat * f * f - cfg.kappa_cool * (c - cfg.c_ambient))
            c = np.maximum(c, cfg.c_ambient)
            t = t + dt
            thetas[k] = theta
        return PlantState(theta=theta, theta_dot=theta_dot, l=l_act, f=f, c=c, t=t), thetas


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

    def __post_init__(self):
        for name in ("delay_s", "drag_coeff", "creep_kmh"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"car.{name} must be >= 0, got {getattr(self, name)!r}")


@dataclass
class CarState:
    pedal_buffer: np.ndarray          # transport delay ring buffer
    v_car: float = 0.0
    buf_idx: int = 0

    @classmethod
    def at_creep(cls, cfg):
        n = max(1, int(round(cfg.delay_s / PLANT_DT)))
        return cls(v_car=cfg.creep_kmh, pedal_buffer=np.zeros(n))


def car_drag(cfg, v):
    """Drag torque balance term; zero at creep velocity."""
    return cfg.drag_coeff * (v - cfg.creep_kmh)


def car_step(car, cfg, pedals, brake):
    """One control tick: one PLANT_DT step per pedal angle in ``pedals``
    (the joint angles Plant.step returns), the brake held throughout."""
    buf = car.pedal_buffer.copy()
    idx, v = car.buf_idx, car.v_car
    for pedal in pedals:
        delayed = buf[idx]
        buf[idx] = pedal
        idx = (idx + 1) % buf.size
        accel = (cfg.a_max * max(0.0, delayed - cfg.dead_zone)
                 - cfg.b_max * max(0.0, brake - cfg.brake_dead)
                 - car_drag(cfg, v))
        v = max(0.0, v + PLANT_DT * accel)
    return CarState(v_car=v, pedal_buffer=buf, buf_idx=idx)


# --------------------------------------------------------------------------
# body descriptions and the default desk-scale body


def geometry_from_description(doc):
    """Geometry and car of a body description: its joints, muscles and car are
    keyword arguments of JointSpec, MuscleSpec and CarConfig.  Raises
    ValueError or TypeError on a bad document or a non-antagonistic body."""
    doc = dict(doc)
    if doc.pop("version", None) != DESCRIPTION_VERSION:
        raise ValueError(f"unsupported plant description version; expected {DESCRIPTION_VERSION}")
    try:
        joints = [JointSpec(**j) for j in doc.pop("joints")]
        muscles = [MuscleSpec(**m) for m in doc.pop("muscles")]
    except KeyError as exc:
        raise ValueError(f"missing section {exc}") from exc
    car = CarConfig(**doc.pop("car", {}))
    if doc:
        raise ValueError(f"unknown key {sorted(doc)[0]!r}")
    geom = MuscleGeometry(joints, muscles)
    geom.validate_antagonism()
    return geom, car


def _antagonist_pair(name, parent, mount, radius, span, k2):
    """Two muscles wrapping a pin joint on opposite sides.

    Anchors sit on the parent link behind the joint, insertions on the child
    link ahead of it; moment arm at neutral is about +-radius.
    """
    mx, my = mount
    flex = MuscleSpec(f"{name}_flex",
                      [(parent, (mx - span, my + radius)),
                       (parent + 1, (span, radius))], k2=k2)
    ext = MuscleSpec(f"{name}_ext",
                     [(parent, (mx - span, my - radius)),
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

