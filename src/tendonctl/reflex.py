"""Fast reflex layer: tension distribution QP, muscle relaxation, safety.

The QP finds the minimum-tension distribution realizing a necessary joint
torque subject to per-muscle lower bounds; relaxation gradually elongates
muscles in ascending order of necessary tension while the pose holds;
the safety reflex rate-limits an elongation response to tension or
temperature overload.
"""

from dataclasses import dataclass

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


def solve_tension_qp(qp, tol=1e-10):
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
        # longest feasible step before a free coordinate hits its bound
        alpha = 1.0
        blocker = -1
        for i in np.where(free)[0]:
            if step[i] < -tol:
                a = (qp.f_min[i] - x[i]) / step[i]
                if a < alpha:
                    alpha = a
                    blocker = i
        x = x + alpha * step
        if blocker >= 0:
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


def kkt_residual(qp, x, tol=1e-9):
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


@dataclass
class RelaxationConfig:
    rate: float = 2e-4            # elongation per control tick [m]
    angle_threshold: float = 0.05  # allowed pose drift [rad]
    f_min: float = 10.0           # advance to the next muscle below this [N]


@dataclass
class RelaxationState:
    dl_relax: np.ndarray          # per-muscle elongation offsets [m], >= 0
    mode: str = "moving"          # "static" or "moving", set by the caller
    order: np.ndarray = None      # ascending-necessary-tension priority
    active_index: int = 0
    theta_hold: np.ndarray = None
    done: bool = False
    _last: tuple = None           # (muscle, amount) of the latest increment

    @classmethod
    def create(cls, n_muscles):
        return cls(dl_relax=np.zeros(n_muscles))

    def copy(self):
        return RelaxationState(self.dl_relax.copy(), self.mode,
                               None if self.order is None else self.order.copy(),
                               self.active_index,
                               None if self.theta_hold is None else self.theta_hold.copy(),
                               self.done, self._last)


def mrc_step(state, cfg, f, theta, x_necessary, constrained=None):
    """One relaxation tick.  Returns (new state, offsets to add to commands).

    Static mode: elongate the muscle with the lowest necessary tension
    until its measured tension falls below f_min, then move to the next;
    stop and roll back one increment once the pose drifts past the
    threshold (externally constrained joints never count as drift).
    Moving mode: unwind offsets starting from the most necessary muscle.
    """
    s = state.copy()
    f = np.asarray(f, dtype=float)
    theta = np.asarray(theta, dtype=float)
    x_necessary = np.asarray(x_necessary, dtype=float)
    n = s.dl_relax.size
    if constrained is None:
        constrained = np.zeros(theta.size, dtype=bool)

    if s.mode == "static":
        if s.theta_hold is None:
            s.theta_hold = theta.copy()
            s.order = np.argsort(x_necessary, kind="stable")
            s.active_index = 0
            s.done = False
            s._last = None
        if s.done:
            return s, s.dl_relax.copy()
        watched = ~np.asarray(constrained, dtype=bool)
        drift = np.abs(theta - s.theta_hold)[watched]
        if drift.size and np.max(drift) > cfg.angle_threshold:
            if s._last is not None:
                i, amount = s._last
                s.dl_relax[i] = max(0.0, s.dl_relax[i] - amount)
            s.done = True
            return s, s.dl_relax.copy()
        if s.active_index >= n:
            s.done = True
            return s, s.dl_relax.copy()
        i = int(s.order[s.active_index])
        s.dl_relax[i] += cfg.rate
        s._last = (i, cfg.rate)
        if f[i] < cfg.f_min:
            s.active_index += 1
    else:  # moving: release the offsets, most necessary muscle first
        s.theta_hold = None
        s.done = False
        s._last = None
        if np.any(s.dl_relax > 0):
            order = np.argsort(-x_necessary, kind="stable")
            for i in order:
                if s.dl_relax[i] > 0:
                    s.dl_relax[i] = max(0.0, s.dl_relax[i] - cfg.rate)
                    break
    return s, s.dl_relax.copy()


# --------------------------------------------------------------------------
# safety reflex


@dataclass
class SafetyReflex:
    K_f: float = 1e-3       # [m/N]
    K_c: float = 1e-3       # [m/degC]
    f_lim: float = 100.0    # [N]
    c_lim: float = 60.0     # [degC]
    dl_min: float = -5e-4   # per-tick change lower bound [m], negative for recovery
    dl_max: float = 5e-4    # per-tick change upper bound [m]
    dl_safe: np.ndarray = None

    def __post_init__(self):
        if not (self.dl_min <= 0.0 <= self.dl_max):
            raise ValueError("need dl_min <= 0 <= dl_max")

    @classmethod
    def create(cls, n_muscles, **kw):
        return cls(dl_safe=np.zeros(n_muscles), **kw)


def safety_reflex_step(s, f, c):
    """Rate-limited pursuit of the overload-proportional elongation target."""
    f = np.asarray(f, dtype=float)
    c = np.asarray(c, dtype=float)
    target = s.K_f * np.maximum(f - s.f_lim, 0.0) + s.K_c * np.maximum(c - s.c_lim, 0.0)
    delta = np.clip(target - s.dl_safe, s.dl_min, s.dl_max)
    dl = np.maximum(s.dl_safe + delta, 0.0)
    new = SafetyReflex(s.K_f, s.K_c, s.f_lim, s.c_lim, s.dl_min, s.dl_max, dl)
    return new, dl.copy()
