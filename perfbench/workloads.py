"""The benchmark's three workloads.

Each workload turns a seed into its inputs, runs its set-ups and its loop
passes, and fills a ``Measure``: set-up times, loop wall times against
simulated time, tick intervals by kind of tick, the quality figures the
program reports, and the output checks behind ``pass_frac``.  Every loop
pass does the same ticks, so each tick is timed once per pass.

A workload has ``setups`` set-ups per run and makes ceil(seconds / pass_s)
loop passes: ``pass_s`` is the loop time one pass is budgeted at, so the
pass count is fixed by ``--seconds`` alone and does not grow when the code
runs faster.

Seed 0 reproduces the shipped scenario and the acceptance-test inputs;
any other seed perturbs them slightly.  Models whose pre-training is
seeded always use seed 0, see NOTES.md ("Known defects").
"""

import copy
import json
from time import perf_counter

import numpy as np

from tendonctl import cli, harness, plant, static_ctrl
from tracing import Patches, TickClock

CONFIG = "configs/drive_events.json"
STATIC_KW = dict(grid_points=15, f_samples=12, seed=0)   # the acceptance tests' h

TRACK_RMSE_MAX_KMH = 1.5    # drive_mpc tracking bound over unbraked ticks
TENSION_RATIO_MAX = 0.6     # acceptance criterion 5
EKF_RMSE_MAX_RAD = 0.05     # acceptance criterion 7
ONLINE_RATIO_MAX = 1.0      # acceptance criterion 4 (error falls)


def spread(k, n):
    """For each of ``n`` steps, whether it is one of ``k`` <= ``n`` spread evenly."""
    return [i * k % n < k for i in range(n)]


class Measure:
    """What one run of a workload observed."""

    def __init__(self):
        self.setup_s = []      # one entry per set-up
        self.loop_s = []       # loop wall seconds, one per pass
        self.sim_s = []        # simulated loop seconds, one per pass
        self.ticks_s = []      # per pass: {tick kind: its tick intervals, in order}
        self.figures = {}      # quality figures of the first pass
        self.checks = []       # (name, passed)

    def check(self, name, ok):
        self.checks.append((name, bool(ok)))

    def add_pass(self, loop_s, n_ticks, kinds):
        """One loop pass of ``n_ticks`` control ticks; ``kinds`` maps each kind
        of tick the workload stamps to the intervals of its ticks, in order."""
        kinds = {k: np.asarray(v, dtype=float) for k, v in kinds.items()}
        if self.ticks_s:
            sizes = {k: v.size for k, v in self.ticks_s[0].items()}
            self.check("tick_count_repeats", {k: v.size for k, v in kinds.items()} == sizes)
        self.loop_s.append(loop_s)
        self.sim_s.append(n_ticks * harness.CTRL_DT)
        self.ticks_s.append(kinds)

    def keep_figures(self, figures):
        """First pass sets the figures; later passes must repeat them bit for bit."""
        if not self.figures:
            self.figures = dict(figures)
        else:
            self.check("repeat_bit_for_bit", figures == self.figures)


class DriveMPC:
    """``tendonctl run --config configs/drive_events.json`` through ``cli.main``."""

    name = "drive_mpc"
    setups, pass_s = 2, 3.0   # each set-up is a CLI run with its own loop pass

    def __init__(self, seed, root, out_dir, quick=False):
        with open(root / CONFIG) as fh:
            doc = json.load(fh)
        if seed:
            rng = np.random.default_rng(seed)
            shifts = rng.integers(-10, 11, size=len(doc["scenario"]["events"]))
            doc["scenario"]["events"] = [[round(t + 0.02 * int(s), 2), e] for (t, e), s
                                         in zip(doc["scenario"]["events"], shifts)]
        if quick:
            doc["scenario"].update(duration_s=2.0, events=[[1.0, "person_detected"]])
            doc["static"].update(grid_points=5, f_samples=4, loss_threshold=1.0,
                                 train={"learning_rate": 0.3, "batch_size": 64, "epochs": 20})
            doc["dynamics"].update(rollout_s=4.0, rms_threshold=100.0,
                                   train={"learning_rate": 0.05, "batch_size": 32, "epochs": 2})
        self.doc = doc
        self.config_path = out_dir / f"drive_mpc_s{seed}.json"
        with open(self.config_path, "w") as fh:
            json.dump(doc, fh)
        self.out = str(out_dir / f"cli_s{seed}")

    def measure(self, m, setups, passes):
        runs = []
        clock = TickClock([(harness.PedalRig, "apply")])
        probe = Patches()

        def make_probe(orig):
            def shim(scenario, rig, dyn, **kw):
                first = len(clock.stamps)
                report = orig(scenario, rig, dyn, **kw)
                runs.append((first, len(clock.stamps), perf_counter(), report,
                             scenario, rig, dyn, kw))
                return report
            return shim

        with clock:
            probe.wrap(cli, "run_scenario", make_probe)
            try:
                for i in range(setups):
                    t0 = perf_counter()
                    # no --seed: the CLI's default 0 (NOTES.md, "Known defects")
                    rc = cli.main(["run", "--config", str(self.config_path),
                                   "--out", self.out])
                    m.check("cli_exit_0", rc == 0)
                    self._record(m, t0, clock.stamps, runs[-1])
                    # more loops on the same models, spread among the CLI runs
                    while len(m.loop_s) < passes * (i + 1) // setups:
                        scenario, rig, dyn, kw = runs[-1][4:]
                        fresh = harness.build_pedal_rig(static_model=rig.model)
                        first = len(clock.stamps)
                        report = harness.run_scenario(scenario, fresh, dyn,
                                                      opt_cfg=kw["opt_cfg"],
                                                      pid_gains=kw["pid_gains"])
                        runs.append((first, len(clock.stamps), perf_counter(), report,
                                     scenario, fresh, dyn, kw))
                        self._record(m, None, clock.stamps, runs[-1])
            finally:
                probe.restore()

    def _record(self, m, t0, stamps, run):
        first, last, t_end, report, scenario, rig, dyn, _ = run
        if t0 is not None:
            m.setup_s.append(stamps[first] - t0)
        _, v, brake = report.trace
        # a tick interval runs from one apply to the next, so the next
        # tick's control (MPC or brake) decides its kind
        ticks, next_braked = np.diff(stamps[first:last]), np.asarray(brake[1:], dtype=bool)
        m.add_pass(t_end - stamps[first], last - first,
                   {"mpc": ticks[~next_braked], "braked": ticks[next_braked]})
        err = v[~brake] - scenario.v_ref
        m.keep_figures({"track_rmse_kmh": float(np.sqrt(np.mean(err * err))),
                        "holdout_rms_kmh": float(dyn.holdout_rms),
                        "unbraked_ticks": int(np.count_nonzero(~brake))})

    def judge(self, m):
        f = m.figures
        rms_threshold = self.doc["dynamics"]["rms_threshold"]
        m.check("dynamics_holdout_below_threshold", f["holdout_rms_kmh"] < rms_threshold)
        m.check("track_rmse_within_bound", f["track_rmse_kmh"] < TRACK_RMSE_MAX_KMH)
        return (f["track_rmse_kmh"] / TRACK_RMSE_MAX_KMH,
                f["holdout_rms_kmh"] / rms_threshold)


class ArmReflex:
    """2-DOF arm relaxation (tension QP + MRC per tick), then the ankle safety reflex."""

    name = "arm_reflex"
    setups, pass_s = 15, 2.0  # each pass builds its own plants; other set-ups run one tick
    mrc_s, safety_s = 14.0, 8.0     # simulated seconds per pass: 1098 tick intervals

    def __init__(self, seed, root, out_dir, quick=False):
        self.theta_hold = np.array([0.3, -0.4])
        self.f_bias, self.overload = 40.0, 2.0
        if seed:
            rng = np.random.default_rng(seed)
            self.theta_hold = self.theta_hold + rng.uniform(-0.01, 0.01, size=2)
            self.f_bias += rng.uniform(-1.0, 1.0)
        if quick:
            self.mrc_s, self.safety_s = 1.0, 1.0

    def measure(self, m, setups, passes):
        with TickClock([(harness, "solve_tension_qp")]) as qp_ticks, \
                TickClock([(harness, "safety_reflex_step")]) as safety_ticks:
            for loop in spread(passes, max(setups, passes)):
                n_qp, n_safety = len(qp_ticks.stamps), len(safety_ticks.stamps)
                t0 = perf_counter()
                mrc = harness.run_mrc_experiment(
                    duration_s=self.mrc_s if loop else harness.CTRL_DT,
                    theta_hold=tuple(self.theta_hold), f_bias=self.f_bias)
                t1 = perf_counter()
                safety = harness.run_safety_experiment(
                    duration_s=self.safety_s if loop else harness.CTRL_DT,
                    overload_factor=self.overload)
                t2 = perf_counter()
                a, b = qp_ticks.stamps[n_qp:], safety_ticks.stamps[n_safety:]
                m.setup_s.append((a[0] - t0) + (b[0] - t1))
                if not loop:
                    continue
                m.add_pass((t1 - a[0]) + (t2 - b[0]), len(a) + len(b),
                           {"mrc": np.diff(a), "safety": np.diff(b)})
                m.keep_figures({
                    "tension_ratio": mrc["tension_norm_after_N"] / mrc["tension_norm_before_N"],
                    "max_drift_rad": mrc["max_drift_rad"],
                    "peak_tension_N": safety["peak_tension_N"],
                    "max_dl_step_m": safety["max_dl_step_m"]})

    def judge(self, m):
        f = m.figures
        overload_n = self.overload * harness.SafetyReflex.f_lim
        m.check("tension_ratio_below_0.6", f["tension_ratio"] < TENSION_RATIO_MAX)
        m.check("dl_safe_step_within_dl_max", f["max_dl_step_m"] <= harness.SafetyReflex.dl_max + 1e-12)
        m.check("peak_tension_below_commanded_overload", f["peak_tension_N"] < overload_n)
        return f["tension_ratio"] / TENSION_RATIO_MAX, f["peak_tension_N"] / overload_n


class EstimateLearn:
    """Pre-train h, then the EKF (reads the net) and online learning (writes it)."""

    name = "estimate_learn"
    setups, pass_s = 3, 1.0   # many short passes: a slow spell of the machine spoils fewer
    ekf_s, n_updates = 10.0, 500    # the acceptance tests' experiments

    def __init__(self, seed, root, out_dir, quick=False):
        self.seed = seed          # the EKF's measurement noise
        self.static_kw = dict(STATIC_KW)
        if quick:
            self.ekf_s, self.n_updates = 2.0, 20
            self.static_kw.update(grid_points=5, f_samples=4, loss_threshold=1.0,
                                  train_cfg=static_ctrl.TrainConfig(0.3, 64, 20))

    def measure(self, m, setups, passes):
        models = []
        with TickClock([(harness, "ekf_step")]) as ekf_ticks, \
                TickClock([(static_ctrl.IntersensoryModel, "prediction_error")]) as online_ticks:
            # set-ups spread among the passes, so that the passes spread over the run
            for set_up in spread(setups, max(setups, passes)):
                if set_up:
                    t0 = perf_counter()
                    models.append(static_ctrl.init_from_geometry(
                        plant.default_ankle_geometry(), **self.static_kw))
                    m.setup_s.append(perf_counter() - t0)
                if len(m.loop_s) == passes:
                    continue
                n_e, n_o = len(ekf_ticks.stamps), len(online_ticks.stamps)
                ekf_model, online_model = copy.deepcopy(models[0]), copy.deepcopy(models[0])
                t0 = perf_counter()
                ekf = harness.run_ekf_experiment(ekf_model, duration_s=self.ekf_s, seed=self.seed)
                online = harness.run_online_learning_experiment(
                    online_model, offset_m=0.005, n_updates=self.n_updates)
                t2 = perf_counter()
                ekf_stamps, online_stamps = ekf_ticks.stamps[n_e:], online_ticks.stamps[n_o:]
                m.add_pass(t2 - t0, len(ekf_stamps) + len(online_stamps),
                           {"ekf": np.diff(ekf_stamps), **self._online_kinds(m, online_stamps)})
                m.keep_figures({
                    "ekf_rmse_rad": ekf["rmse_rad"],
                    "online_err_ratio": online["pred_error_after_m"] / online["pred_error_before_m"]})
        weights = [np.concatenate([w.ravel() for w in x.net.weights]) for x in models]
        m.check("setup_repeat_bit_for_bit", all(np.array_equal(w, weights[0]) for w in weights))

    def _online_kinds(self, m, stamps):
        """Split the online experiment's ticks into its three phases (probe,
        ``n_updates`` update ticks, probe), dropping the interval between
        phases, which builds a new plant."""
        n_probe, rest = divmod(len(stamps) - self.n_updates, 2)
        m.check("online_phases_split", rest == 0 and n_probe > 1)
        first, update, last = np.split(np.asarray(stamps), [n_probe, n_probe + self.n_updates])
        return {"probe": np.concatenate([np.diff(first), np.diff(last)]),
                "update": np.diff(update)}

    def judge(self, m):
        f = m.figures
        m.check("ekf_rmse_below_0.05", f["ekf_rmse_rad"] < EKF_RMSE_MAX_RAD)
        m.check("online_error_falls", f["online_err_ratio"] < ONLINE_RATIO_MAX)
        return f["ekf_rmse_rad"] / EKF_RMSE_MAX_RAD, f["online_err_ratio"] / ONLINE_RATIO_MAX


WORKLOADS = {w.name: w for w in (DriveMPC, ArmReflex, EstimateLearn)}
