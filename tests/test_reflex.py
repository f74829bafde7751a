"""Tension QP, muscle relaxation control, and the safety reflex."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tendonctl.reflex import (RELAX_DRIFT_MAX, RELAX_F_MIN, RELAX_RATE, RelaxationState,
                              SafetyReflex, TensionQP, enumerate_bound_qp, kkt_residual,
                              mrc_step, safety_reflex_step, solve_tension_qp)


def random_qp(rng):
    j = int(rng.integers(1, 4))
    m = int(rng.integers(j + 1, 9))
    return TensionQP(W1=rng.uniform(1e-6, 1e-2, size=m),
                     W2=rng.uniform(0.5, 2.0, size=j),
                     G=rng.uniform(-0.05, 0.05, size=(m, j)),
                     tau_nec=rng.uniform(-2.0, 2.0, size=j),
                     f_min=rng.uniform(0.0, 20.0, size=m))


# -- QP solver -------------------------------------------------------------


def test_qp_two_muscle_example():
    # [DERIVED] enumeration oracle; agonist carries the torque, antagonist
    # pinned at its bound
    qp = TensionQP(W1=np.full(2, 1e-6), W2=np.ones(1),
                   G=np.array([[-0.02], [0.02]]),
                   tau_nec=np.array([1.0]), f_min=np.full(2, 10.0))
    x = solve_tension_qp(qp)
    assert np.allclose(x, [59.9, 10.0], atol=0.1)
    x_ref, obj_ref = enumerate_bound_qp(qp)
    assert qp.objective(x) == pytest.approx(obj_ref, rel=1e-9)
    assert np.allclose(x, x_ref, atol=1e-6)


def test_qp_origin_when_unconstrained():
    qp = TensionQP(W1=np.full(3, 1e-3), W2=np.ones(2),
                   G=np.random.default_rng(0).uniform(-0.05, 0.05, size=(3, 2)),
                   tau_nec=np.zeros(2), f_min=np.zeros(3))
    assert np.allclose(solve_tension_qp(qp), 0.0, atol=1e-9)


def test_qp_beats_feasible_reference_point():
    rng = np.random.default_rng(1)
    for _ in range(50):
        qp = random_qp(rng)
        x = solve_tension_qp(qp)
        assert qp.objective(x) <= qp.objective(qp.f_min) + 1e-9


def test_qp_matches_enumeration_oracle():
    rng = np.random.default_rng(2)
    for _ in range(200):
        qp = random_qp(rng)
        x = solve_tension_qp(qp)
        _, obj_ref = enumerate_bound_qp(qp)
        obj = qp.objective(x)
        assert np.all(x >= qp.f_min - 1e-12)
        assert abs(obj - obj_ref) <= 1e-6 * max(1.0, abs(obj_ref))
        assert kkt_residual(qp, x) < 1e-6


def test_qp_validation():
    with pytest.raises(ValueError):
        TensionQP(W1=np.full(2, -1.0), W2=np.ones(1),
                  G=np.zeros((2, 1)), tau_nec=np.zeros(1), f_min=np.zeros(2))
    with pytest.raises(ValueError):
        TensionQP(W1=np.ones(3), W2=np.ones(1),
                  G=np.zeros((2, 1)), tau_nec=np.zeros(1), f_min=np.zeros(2))
    with pytest.raises(FloatingPointError):
        TensionQP(W1=np.ones(2), W2=np.ones(1), G=np.full((2, 1), np.nan),
                  tau_nec=np.zeros(1), f_min=np.zeros(2))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_qp_feasibility_property(seed):
    qp = random_qp(np.random.default_rng(seed))
    x = solve_tension_qp(qp)
    assert np.all(x >= qp.f_min - 1e-12)
    assert np.all(np.isfinite(x))
    _, obj_ref = enumerate_bound_qp(qp)
    assert qp.objective(x) <= obj_ref + 1e-6 * max(1.0, abs(obj_ref))


# -- muscle relaxation control ---------------------------------------------


def test_mrc_static_elongates_lowest_necessity_first():
    state = RelaxationState.create(3)
    x_nec = np.array([30.0, 5.0, 20.0])   # muscle 1 is least necessary
    f_high = np.full(3, 5 * RELAX_F_MIN)
    free = np.zeros(2, dtype=bool)
    new, offsets = mrc_step(state, f_high, np.zeros(2), x_nec, free)
    assert offsets[1] == pytest.approx(RELAX_RATE)
    assert offsets[0] == offsets[2] == 0.0
    # stays on the same muscle while its tension is above RELAX_F_MIN
    new, offsets = mrc_step(new, f_high, np.zeros(2), x_nec, free)
    assert offsets[1] == pytest.approx(2 * RELAX_RATE)
    # advances once the tension drops below RELAX_F_MIN
    f_low = np.array([50.0, RELAX_F_MIN / 2, 50.0])
    new, _ = mrc_step(new, f_low, np.zeros(2), x_nec, free)
    new, offsets = mrc_step(new, f_high, np.zeros(2), x_nec, free)
    assert offsets[2] == pytest.approx(RELAX_RATE)   # next-lowest muscle


def test_mrc_drift_stops_and_rolls_back():
    state = RelaxationState.create(2)
    x_nec = np.array([1.0, 2.0])
    f = np.full(2, 50.0)
    free = np.zeros(1, dtype=bool)
    state, _ = mrc_step(state, f, np.zeros(1), x_nec, free)
    dl_before = state.dl_relax.copy()
    drifted = np.array([RELAX_DRIFT_MAX + 0.01])
    state, offsets = mrc_step(state, f, drifted, x_nec, free)
    assert state.done
    assert offsets[0] == pytest.approx(dl_before[0] - RELAX_RATE)
    # frozen afterwards even if the pose returns
    state, offsets2 = mrc_step(state, f, np.zeros(1), x_nec, free)
    assert np.array_equal(offsets2, offsets)


def test_mrc_constrained_joints_ignore_drift():
    state = RelaxationState.create(2)
    x_nec = np.array([1.0, 2.0])
    f = np.full(2, 50.0)
    state, _ = mrc_step(state, f, np.zeros(1), x_nec, constrained=np.array([True]))
    state, offsets = mrc_step(state, f, np.array([10 * RELAX_DRIFT_MAX]), x_nec,
                              constrained=np.array([True]))
    assert not state.done
    assert offsets[0] == pytest.approx(2 * RELAX_RATE)


def test_mrc_offsets_never_negative():
    # a rollback larger than the increment it undoes stops at zero
    state = RelaxationState(np.array([RELAX_RATE / 4, 0.0]), order=np.array([0, 1]),
                            theta_hold=np.zeros(1), _last=0)
    drifted = np.array([RELAX_DRIFT_MAX + 0.01])
    for _ in range(5):
        state, offsets = mrc_step(state, np.zeros(2), drifted, np.array([1.0, 2.0]),
                                  np.zeros(1, dtype=bool))
        assert np.all(offsets >= 0.0)
    assert state.done and offsets[0] == 0.0


# -- safety reflex ---------------------------------------------------------


def test_safety_below_thresholds_stays_zero():
    s = SafetyReflex.create(3)
    s, dl = safety_reflex_step(s, np.full(3, 50.0), np.full(3, 30.0))
    assert np.array_equal(dl, np.zeros(3))


def test_safety_rate_limited_first_step():
    # [DERIVED] direct formula: ideal K_f * (120 - f_lim) = 0.02 m, clamped to dl_max
    s = SafetyReflex.create(1)
    s, dl = safety_reflex_step(s, np.array([120.0]), np.array([25.0]))
    assert dl[0] == pytest.approx(5e-4)


def test_safety_decays_without_undershoot():
    s = SafetyReflex.create(1)   # dl_min = -5e-4
    s.dl_safe = np.array([1.2e-3])
    below = (np.array([0.0]), np.array([25.0]))
    s, dl = safety_reflex_step(s, *below)
    assert dl[0] == pytest.approx(7e-4)
    s, dl = safety_reflex_step(s, *below)
    assert dl[0] == pytest.approx(2e-4)
    s, dl = safety_reflex_step(s, *below)
    assert dl[0] == 0.0
    s, dl = safety_reflex_step(s, *below)
    assert dl[0] == 0.0


def test_safety_temperature_term():
    # [DERIVED] target K_c * (70 - c_lim) = 1e-2 m, reached at dl_max per tick
    s = SafetyReflex.create(1)
    hot = (np.array([0.0]), np.array([70.0]))
    for _ in range(round(1e-2 / SafetyReflex.dl_max) - 1):
        s, dl = safety_reflex_step(s, *hot)
    assert dl[0] < 1e-2 - SafetyReflex.dl_max / 2
    for _ in range(3):   # reaches the target and holds it
        s, dl = safety_reflex_step(s, *hot)
        assert dl[0] == pytest.approx(1e-2)


def test_safety_per_tick_change_bound():
    rng = np.random.default_rng(0)
    s = SafetyReflex.create(4)
    prev = s.dl_safe.copy()
    for _ in range(200):
        f = rng.uniform(0.0, 300.0, size=4)
        c = rng.uniform(20.0, 90.0, size=4)
        s, dl = safety_reflex_step(s, f, c)
        assert np.max(np.abs(dl - prev)) <= max(abs(s.dl_min), s.dl_max) + 1e-15
        assert np.all(dl >= 0.0)
        prev = dl

