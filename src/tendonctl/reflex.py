"""Fast reflex layer: tension distribution QP, muscle relaxation, safety.

The QP finds the minimum-tension distribution realizing a necessary joint
torque subject to per-muscle lower bounds; relaxation gradually elongates
muscles in ascending order of necessary tension while the pose holds;
the safety reflex rate-limits an elongation response to tension or
temperature overload.
"""

from dataclasses import dataclass, replace

import numpy as np


@dataclass
class TensionQP:
    W1: np.ndarray        # muscle-space weights (diagonal entries, >= 0)
    W2: np.ndarray        # joint-space weights (diagonal entries, > 0)
    G: np.ndarray         # muscle Jacobian (muscles x joints)
    tau_nec: np.ndarray   # necessary joint torque [Nm]
    f_min: np.ndarray     # minimum tension per muscle [N]

    def __post_init__(self):
        self.W1 = np.asarray(self.W1, dtype=float)
        self.W2 = np.asarray(self.W2, dtype=float)
        self.G = np.asarray(self.G, dtype=float)
        self.tau_nec = np.asarray(self.tau_nec, dtype=float)
        self.f_min = np.asarray(self.f_min, dtype=float)
        m, j = self.G.shape
        if self.W1.shape != (m,) or self.f_min.shape != (m,):
            raise ValueError("W1/f_min must have one entry per muscle")
        if self.W2.shape != (j,) or self.tau_nec.shape != (j,):
            raise ValueError("W2/tau_nec must have one entry per joint")
        if np.any(self.W1 < 0) or np.any(self.W2 <= 0):
            raise ValueError("W1 must be >= 0 and W2 > 0")
        for a in (self.W1, self.W2, self.G, self.tau_nec, self.f_min):
            if not np.all(np.isfinite(a)):
                raise FloatingPointError("non-finite QP data")

    def objective(self, x):
        r = self.G.T @ x + self.tau_nec
        return float(x @ (self.W1 * x) + r @ (self.W2 * r))

    def hessian_and_linear(self):
        """Objective as 0.5 x^T H x + c^T x + const."""
        H = 2.0 * (np.diag(self.W1) + self.G @ np.diag(self.W2) @ self.G.T)
        c = 2.0 * self.G @ (self.W2 * self.tau_nec)
        return H, c


_REG = 1e-9
_STEP_TOL = 1e-10   # a free coordinate's step below -_STEP_TOL can block


def _solve_free(H, c, free, active, f_min):
    """Minimize with active coordinates pinned at their bounds."""
    x = f_min.copy()
    if not np.any(free):
        return x
    Hff = H[np.ix_(free, free)]
    rhs = -(c[free] + H[np.ix_(free, active)] @ f_min[active])
    try:
        x[free] = np.linalg.solve(Hff, rhs)
    except np.linalg.LinAlgError:
        x[free] = np.linalg.solve(Hff + _REG * np.eye(Hff.shape[0]), rhs)
    return x


def solve_tension_qp(qp):
    """Active-set solve of the bound-constrained tension QP.

    Starts fully pinned at f_min, takes feasible steps toward the current
    working-set minimizer, pins blocking coordinates, and releases bound
    coordinates with negative multipliers until the KKT conditions hold.
    """
    H, c = qp.hessian_and_linear()
    m = qp.f_min.size
    active = np.ones(m, dtype=bool)
    x = qp.f_min.copy()

    for _ in range(20 * m + 20):
        free = ~active
        x_target = _solve_free(H, c, free, active, qp.f_min)
        step = x_target - x
        # longest feasible step before a free coordinate hits its bound; on a
        # tie argmin takes the first coordinate, as a strict-< scan would
        shrinks = free & (step < -_STEP_TOL)
        ratio = np.divide(qp.f_min - x, step, out=np.full(m, np.inf), where=shrinks)
        blocker = int(np.argmin(ratio))
        blocked = ratio[blocker] < 1.0
        x = x + (ratio[blocker] if blocked else 1.0) * step
        if blocked:
            x[blocker] = qp.f_min[blocker]
            active[blocker] = True
            continue
        # at the working-set minimizer: check bound multipliers
        grad = H @ x + c
        lam = grad[active] if np.any(active) else np.array([])
        if lam.size == 0 or np.all(lam >= -1e-9):
            break
        release = np.where(active)[0][int(np.argmin(lam))]
        active[release] = False
    return np.maximum(x, qp.f_min)


def kkt_residual(qp, x):
    """Max violation of stationarity/feasibility/complementarity at x."""
    H, c = qp.hessian_and_linear()
    grad = H @ x + c
    res = float(np.max(np.maximum(qp.f_min - x, 0.0), initial=0.0))
    at_bound = x <= qp.f_min + 1e-7
    if np.any(~at_bound):
        res = max(res, float(np.max(np.abs(grad[~at_bound]))))
    if np.any(at_bound):
        res = max(res, float(np.max(np.maximum(-grad[at_bound], 0.0))))
    return res


def enumerate_bound_qp(qp):
    """Brute-force oracle: try every active-bound pattern, keep the best.

    Only for small instances (used by tests to check the active-set path).
    """
    H, c = qp.hessian_and_linear()
    m = qp.f_min.size
    best_x, best_obj = None, np.inf
    for mask in range(1 << m):
        active = np.array([(mask >> i) & 1 == 1 for i in range(m)])
        try:
            x = _solve_free(H, c, ~active, active, qp.f_min)
        except np.linalg.LinAlgError:
            continue
        if np.any(x < qp.f_min - 1e-9):
            continue
        obj = qp.objective(x)
        if obj < best_obj:
            best_obj, best_x = obj, x
    return best_x, best_obj


# --------------------------------------------------------------------------
# muscle relaxation control


RELAX_RATE = 2e-4        # elongation per control tick [m]
RELAX_DRIFT_MAX = 0.05   # allowed pose drift [rad]
RELAX_F_MIN = 10.0       # advance to the next muscle below this [N]


@dataclass
class RelaxationState:
    dl_relax: np.ndarray          # per-muscle elongation offsets [m], >= 0
    order: np.ndarray = None      # ascending-necessary-tension priority
    active_index: int = 0
    theta_hold: np.ndarray = None
    done: bool = False
    _last: int = None             # muscle of the latest increment

    @classmethod
    def create(cls, n_muscles):
        return cls(dl_relax=np.zeros(n_muscles))


def mrc_step(state, f, theta, x_necessary, constrained):
    """One relaxation tick.  Returns (new state, offsets to add to commands).

    Elongate the muscle with the lowest necessary tension by RELAX_RATE per
    tick until its measured tension falls below RELAX_F_MIN, then move to
    the next; stop and roll back one increment once the pose drifts past
    RELAX_DRIFT_MAX (externally constrained joints never count as drift).
    The first tick takes the pose to hold and the priority order.
    """
    s = replace(state, dl_relax=state.dl_relax.copy())
    f = np.asarray(f, dtype=float)
    theta = np.asarray(theta, dtype=float)
    n = s.dl_relax.size

    if s.theta_hold is None:
        s.theta_hold = theta.copy()
        s.order = np.argsort(np.asarray(x_necessary, dtype=float), kind="stable")
    if s.done:
        return s, s.dl_relax.copy()
    watched = ~np.asarray(constrained, dtype=bool)
    drift = np.abs(theta - s.theta_hold)[watched]
    if drift.size and np.max(drift) > RELAX_DRIFT_MAX:
        if s._last is not None:
            s.dl_relax[s._last] = max(0.0, s.dl_relax[s._last] - RELAX_RATE)
        s.done = True
        return s, s.dl_relax.copy()
    if s.active_index >= n:
        s.done = True
        return s, s.dl_relax.copy()
    i = int(s.order[s.active_index])
    s.dl_relax[i] += RELAX_RATE
    s._last = i
    if f[i] < RELAX_F_MIN:
        s.active_index += 1
    return s, s.dl_relax.copy()


# --------------------------------------------------------------------------
# safety reflex


@dataclass
class SafetyReflex:
    dl_safe: np.ndarray     # per-muscle elongation [m], >= 0

    K_f = 1e-3              # [m/N]
    K_c = 1e-3              # [m/degC]
    f_lim = 100.0           # [N]
    c_lim = 60.0            # [degC]
    dl_min = -5e-4          # per-tick change lower bound [m], negative for recovery
    dl_max = 5e-4           # per-tick change upper bound [m]

    @classmethod
    def create(cls, n_muscles):
        return cls(dl_safe=np.zeros(n_muscles))


def safety_reflex_step(s, f, c):
    """Rate-limited pursuit of the overload-proportional elongation target."""
    f = np.asarray(f, dtype=float)
    c = np.asarray(c, dtype=float)
    target = s.K_f * np.maximum(f - s.f_lim, 0.0) + s.K_c * np.maximum(c - s.c_lim, 0.0)
    delta = np.clip(target - s.dl_safe, s.dl_min, s.dl_max)
    dl = np.maximum(s.dl_safe + delta, 0.0)
    return SafetyReflex(dl), dl.copy()
