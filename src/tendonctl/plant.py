"""Deterministic fixed-step simulator of a tendon-driven joint chain.

Planar kinematic chains actuated by wire muscles with quadratic series
elasticity, a thermal model per muscle, and a small car model (accelerator
pedal angle -> velocity with an actuation transport delay).  This plant is
the ground truth every learning module trains against.
"""

import math
from dataclasses import dataclass

import numpy as np

# One control tick per Plant.step and car_step, in fixed steps: semi-implicit
# Euler is stable only while omega * dt < 2, which the muscles break at 20 ms.
CTRL_DT = 0.02       # control tick [s]
PLANT_DT = 0.005     # integration step [s]
STEPS_PER_TICK = 4


def ticks(seconds):
    """The control ticks in ``seconds``, to the nearest tick."""
    return int(round(seconds / CTRL_DT))


# muscle servo and thermal model, shared by every body
TAU_SERVO = 0.05     # muscle length servo time constant [s]
KAPPA_HEAT = 2.0e-4  # [degC / (N^2 s)]
KAPPA_COOL = 0.1     # [1/s]
C_AMBIENT = 25.0     # [degC]


class JointRangeError(ValueError):
    """Joint angle outside declared limits."""


@dataclass
class JointSpec:
    name: str
    parent: int                    # parent link index (0 = base)
    origin: tuple[float, float]    # mount point in the parent link frame [m]
    limits: tuple[float, float]    # (lo, hi) [rad]


@dataclass
class MuscleSpec:
    name: str
    attachments: list[tuple[int, tuple[float, float]]]   # (link_index, (x, y)) in link frames
    k2: float = 1.0e6          # quadratic stiffness [N/m^2]
    slack: float = 0.0         # stretch below which tension is zero [m]
    length_offset: float = 0.0  # calibration bias added to the path length [m]

    def __post_init__(self):
        if len(self.attachments) < 2:
            raise ValueError(f"muscle {self.name}: needs >= 2 attachment points")
        if self.k2 <= 0:
            raise ValueError(f"muscle {self.name}: k2 must be positive")


def elastic_tension(params, stretch):
    """Quadratic stiffening wire: zero force when slack, k2*stretch^2 taut.
    ``params`` is any object with ``k2`` and ``slack``, such as the geometry."""
    s = np.maximum(0.0, np.asarray(stretch, dtype=float) - params.slack)
    return params.k2 * s * s


def elastic_elongation(params, tension):
    """Inverse of elastic_tension for tension >= 0."""
    f = np.maximum(0.0, np.asarray(tension, dtype=float))
    return params.slack + np.sqrt(f / params.k2)


def _read_only(values, dtype=None):
    a = np.array(values, dtype=dtype)
    a.flags.writeable = False
    return a


class MuscleGeometry:
    """Straight-line muscle paths over planar revolute chains.

    Link 0 is the fixed base; joint j rotates link j+1 relative to its
    parent link about the mount point.  One pass over the attachments gives
    every muscle length and, on request, G = dl/dtheta analytically: joint j
    moves each point p that it carries by z x (p - o_j), where o_j is the
    joint's world position (the planar revolute point Jacobian; Murray, Li &
    Sastry, 1994, ch. 3).  ``k2`` and ``slack`` hold every muscle's elastic
    parameters, so the geometry serves as the params of elastic_tension and
    elastic_elongation.

    The pass runs on Python floats: on a body of a few segments, numpy's
    fixed cost per call is most of what an array pass pays.  Three numpy
    calls stay, each over the whole body, because they fix the last bit of
    the results: np.cos and np.sin of the link angles and np.hypot of the
    segments.  The float loops grow with the number of segments; at about
    30 segments an array pass costs the same.  The shipped bodies have 2
    (ankle) and 7 (arm).
    """

    def __init__(self, joints: list[JointSpec], muscles: list[MuscleSpec]):
        self.joints = list(joints)
        self.muscles = list(muscles)
        self.n_joints = len(self.joints)
        self.n_muscles = len(self.muscles)
        # read-only, so that the float lists built from them cannot go stale
        self.limits_lo = _read_only([j.limits[0] for j in self.joints])
        self.limits_hi = _read_only([j.limits[1] for j in self.joints])
        self.k2 = _read_only([m.k2 for m in self.muscles], dtype=float)
        self.slack = _read_only([m.slack for m in self.muscles], dtype=float)
        self._limits = list(zip(self.limits_lo.tolist(), self.limits_hi.tolist()))
        self._elastic = list(zip(self.k2.tolist(), self.slack.tolist()))
        self._offset = [float(m.length_offset) for m in self.muscles]
        self._parent = [j.parent for j in self.joints]
        self._origin = [(float(j.origin[0]), float(j.origin[1])) for j in self.joints]
        # chain[L]: the joints on link L's chain to the base
        chain = [set()]
        for j_idx, j in enumerate(self.joints):
            p = j.parent
            if isinstance(p, bool) or not isinstance(p, (int, np.integer)) or not 0 <= p <= j_idx:
                raise ValueError(f"joint {j.name}: parent {p!r} is not a link index that "
                                 f"precedes it, in 0..{j_idx}")
            chain.append(chain[j.parent] | {j_idx})
        self._points = [(link, float(x), float(y))
                        for m in self.muscles for link, (x, y) in m.attachments]
        if any(not 0 <= link <= self.n_joints for link, _, _ in self._points):
            raise ValueError(f"attachment links must lie in 0..{self.n_joints}")
        # points a and b = a + 1 of one muscle make a segment of it; movers
        # lists each joint that moves either end, with 0/1 flags for a and b
        owner = [m_idx for m_idx, m in enumerate(self.muscles) for _ in m.attachments]
        self._segments = [(a, a + 1) for a in range(len(owner) - 1) if owner[a] == owner[a + 1]]
        self._muscle_segments = [[k for k, (a, _) in enumerate(self._segments) if owner[a] == m]
                                 for m in range(self.n_muscles)]
        self._movers = []
        for a, b in self._segments:
            on_a, on_b = chain[self._points[a][0]], chain[self._points[b][0]]
            self._movers.append([(j, float(j in on_a), float(j in on_b))
                                 for j in sorted(on_a | on_b)])

    def _check_theta(self, theta):
        """theta as a list of floats, after checking its size and limits."""
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.n_joints,):
            raise ValueError(f"expected {self.n_joints} joint angles")
        theta = theta.tolist()
        tol = 1e-9
        # negated, so that a NaN angle fails too
        if any(not lo - tol <= th <= hi + tol for th, (lo, hi) in zip(theta, self._limits)):
            raise JointRangeError(f"joint angles {theta} outside limits")
        return theta

    def _frames(self, theta):
        """Every link's world angle, its cosine and sine, and its origin's x
        and y: one walk down the tree for the angles, one for the origins."""
        angles = [0.0]
        for j, parent in enumerate(self._parent):
            angles.append(angles[parent] + theta[j])
        angles_arr = np.array(angles)
        cos, sin = np.cos(angles_arr).tolist(), np.sin(angles_arr).tolist()
        xs, ys = [0.0], [0.0]
        for parent, (ox, oy) in zip(self._parent, self._origin):
            c, s = cos[parent], sin[parent]
            xs.append(xs[parent] + (c * ox - s * oy))
            ys.append(ys[parent] + (s * ox + c * oy))
        return angles, cos, sin, xs, ys

    def link_frames(self, theta):
        """World pose (angle, position) of every link frame."""
        angles, _, _, xs, ys = self._frames(np.asarray(theta, dtype=float).tolist())
        return np.array(angles), np.column_stack((xs, ys))

    def _paths(self, theta, jacobian=False):
        """Muscle lengths (a list) at a checked theta (a list), and with
        ``jacobian`` also G (an array)."""
        _, cos, sin, xs, ys = self._frames(theta)
        qx, qy = [], []
        for link, x, y in self._points:
            c, s = cos[link], sin[link]
            qx.append(xs[link] + (c * x - s * y))
            qy.append(ys[link] + (s * x + c * y))
        dx = [qx[b] - qx[a] for a, b in self._segments]
        dy = [qy[b] - qy[a] for a, b in self._segments]
        norm = np.hypot(dx, dy).tolist()
        lengths = []   # each an in-order sum: sum() compensates since Python 3.12
        for segs, offset in zip(self._muscle_segments, self._offset):
            total = 0.0
            for k in segs:
                total += norm[k]
            lengths.append(total + offset)
        if not jacobian:
            return lengths
        G = []
        for segs in self._muscle_segments:
            row = [0.0] * self.n_joints
            for k in segs:
                a, b = self._segments[k]
                # a segment whose ends coincide (d = 0, as when it is led
                # through a joint centre) adds nothing to G: 0 is a
                # subgradient of |d| there
                n = norm[k] if norm[k] > 0 else 1.0
                ux, uy = dx[k] / n, dy[k] / n
                a_u = qx[a] * uy - qy[a] * ux
                b_u = qx[b] * uy - qy[b] * ux
                # u . (z x (q - o_j)) = q x u - o_j x u for an end q that joint j moves
                for j, moves_a, moves_b in self._movers[k]:
                    o_u = uy * xs[j + 1] - ux * ys[j + 1]
                    row[j] += moves_b * (b_u - o_u) - moves_a * (a_u - o_u)
            G.append(row)
        return lengths, np.array(G)

    def muscle_lengths(self, theta):
        """Geometric path length (plus calibration offset) per muscle."""
        return np.array(self._paths(self._check_theta(theta)))

    def jacobian(self, theta):
        """d(muscle length)/d(joint angle), analytic."""
        return self._paths(self._check_theta(theta), jacobian=True)[1]

    def neutral_pose(self):
        return np.clip(np.zeros(self.n_joints), self.limits_lo, self.limits_hi)

    def validate_antagonism(self):
        """Every joint must be spanned in both pull directions at the neutral pose."""
        G = self.jacobian(self.neutral_pose())
        for j, spec in enumerate(self.joints):
            if not (np.any(G[:, j] > 1e-6) and np.any(G[:, j] < -1e-6)):
                raise ValueError(f"joint {spec.name} is not spanned antagonistically")


@dataclass(frozen=True)
class PlantConfig:
    """A body's joint dynamics, the same at each of its joints."""
    inertia: float     # [kg m^2]
    damping: float     # viscous joint damping [N m s/rad]
    spring_k: float    # external load spring toward theta = 0 [N m/rad]


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
                          c=np.full(n_m, C_AMBIENT))

    def holding_torque(self, theta):
        """Muscle torque required to hold the pose against the load spring."""
        return self.config.spring_k * np.asarray(theta, float)

    def step(self, state, l_ref):
        """One control tick of STEPS_PER_TICK semi-implicit Euler steps toward
        the length command l_ref.  Returns the tick's end state and the joint
        angles after each step (steps x joints), which the car's pedal delay
        reads, as fresh arrays; ``state`` is left as it was.  Each step makes
        one geometry pass for both f and G; theta is checked once, since the
        joint stops keep it inside the limits.  The steps run on Python
        floats, except for the torque G^T f, which BLAS forms as an array
        formulation would, to the last bit."""
        geom = self.geom
        l_ref = np.asarray(l_ref, dtype=float)
        if l_ref.shape != (geom.n_muscles,):
            raise ValueError("l_ref dimension mismatch")
        dt = PLANT_DT
        inertia, damping, spring_k = self.config.inertia, self.config.damping, self.config.spring_k
        theta_dot, l_act, c, l_ref = (np.asarray(v, dtype=float).tolist()
                                      for v in (state.theta_dot, state.l, state.c, l_ref))
        if not all(map(math.isfinite, np.ravel(state.theta).tolist() + theta_dot + l_act + c
                       + l_ref)):
            raise FloatingPointError("non-finite plant state or command")
        theta = geom._check_theta(state.theta)
        t = state.t
        joints = [(held, lo, hi) for held, (lo, hi) in zip(self.constrained.tolist(), geom._limits)]
        thetas = []
        for _ in range(STEPS_PER_TICK):
            l_act = [la + dt * (r - la) / TAU_SERVO for la, r in zip(l_act, l_ref)]
            l_geo, G = geom._paths(theta, jacobian=True)
            f = []   # elastic_tension of the stretch, on floats
            for (k2, slack), lg, la in zip(geom._elastic, l_geo, l_act):
                s = max(lg - la - slack, 0.0)
                f.append(k2 * s * s)
            f_arr = np.array(f)
            tau_muscle = (-G.T @ f_arr).tolist()
            for j, (held, lo, hi) in enumerate(joints):
                tau = tau_muscle[j] - spring_k * theta[j] - damping * theta_dot[j]
                td = 0.0 if held else theta_dot[j] + dt * tau / inertia
                th = theta[j] + dt * td
                # hard stops at the joint limits
                if th < lo:
                    th, td = lo, 0.0
                elif th > hi:
                    th, td = hi, 0.0
                theta[j], theta_dot[j] = th, td
            c = [max(ci + dt * (KAPPA_HEAT * fi * fi - KAPPA_COOL * (ci - C_AMBIENT)), C_AMBIENT)
                 for ci, fi in zip(c, f)]
            t = t + dt
            thetas.append(list(theta))
        return PlantState(theta=np.array(theta), theta_dot=np.array(theta_dot),
                          l=np.array(l_act), f=f_arr, c=np.array(c), t=t), np.array(thetas)


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
# the default desk-scale bodies


K2 = 1.0e7   # the default bodies' quadratic muscle stiffness [N/m^2]


def _antagonist_pair(name, parent, mount, radius, span):
    """Two muscles wrapping a pin joint on opposite sides.

    Anchors sit on the parent link behind the joint, insertions on the child
    link ahead of it; moment arm at neutral is about +-radius.
    """
    mx, my = mount
    flex = MuscleSpec(f"{name}_flex",
                      [(parent, (mx - span, my + radius)),
                       (parent + 1, (span, radius))], k2=K2)
    ext = MuscleSpec(f"{name}_ext",
                     [(parent, (mx - span, my - radius)),
                      (parent + 1, (span, -radius))], k2=K2)
    return [flex, ext]


def default_arm_geometry():
    """2-DOF planar arm (shoulder pitch + elbow) with 6 muscles.

    Mono-articular antagonist pairs at each joint plus a bi-articular pair,
    driving a spring-loaded steering-wheel joint load.
    """
    joints = [
        JointSpec("shoulder", parent=0, origin=(0.0, 0.0), limits=(-1.2, 1.2)),
        JointSpec("elbow", parent=1, origin=(0.30, 0.0), limits=(-1.2, 1.2)),
    ]
    muscles = []
    muscles += _antagonist_pair("shoulder", 0, (0.0, 0.0), 0.035, 0.10)
    muscles += _antagonist_pair("elbow", 1, (0.30, 0.0), 0.035, 0.10)
    # bi-articular pair base -> forearm
    muscles.append(MuscleSpec("biart_flex",
                              [(0, (-0.10, 0.05)), (1, (0.15, 0.045)),
                               (2, (0.10, 0.03))], k2=K2))
    muscles.append(MuscleSpec("biart_ext",
                              [(0, (-0.10, -0.05)), (1, (0.15, -0.045)),
                               (2, (0.10, -0.03))], k2=K2))
    return MuscleGeometry(joints, muscles)


def default_ankle_geometry(length_offsets=(0.0, 0.0)):
    """1-DOF ankle pitch with one antagonist muscle pair (pedal driver)."""
    joints = [JointSpec("ankle_pitch", parent=0, origin=(0.0, 0.0),
                        limits=(-0.2, 0.8))]
    muscles = _antagonist_pair("ankle", 0, (0.0, 0.0), 0.030, 0.08)
    for m, off in zip(muscles, length_offsets):
        m.length_offset = off
    return MuscleGeometry(joints, muscles)


# the default bodies' joint dynamics
ARM_PLANT_CONFIG = PlantConfig(inertia=0.02, damping=0.5, spring_k=2.0)
ANKLE_PLANT_CONFIG = PlantConfig(inertia=0.005, damping=0.2, spring_k=1.0)
