"""Scenario harness and CLI: metrics, determinism, events, exit codes."""

import json
import math
import os

import numpy as np
import pytest

from tendonctl import cli, harness, static_ctrl
from tendonctl.dynamic_ctrl import DynamicsModel
from tendonctl.harness import (RunReport, Scenario, config_hash, run_scenario,
                               settle_time)
from tendonctl.nets import MLPNetwork
from tendonctl.plant import default_arm_geometry


# -- metrics ---------------------------------------------------------------


def test_settle_time_basic():
    t = np.arange(1, 6, dtype=float)
    v = np.array([0.0, 3.0, 4.5, 5.2, 5.0])
    assert settle_time(t, v, 5.0) == 3.0


def test_settle_time_requires_staying_in_band():
    t = np.arange(1, 6, dtype=float)
    v = np.array([5.0, 5.0, 9.0, 5.0, 5.0])
    assert settle_time(t, v, 5.0) == 4.0


def test_settle_time_never():
    t = np.arange(1, 4, dtype=float)
    assert settle_time(t, np.array([0.0, 0.0, 0.0]), 5.0) == math.inf


def test_settle_time_immediate():
    t = np.arange(1, 4, dtype=float)
    assert settle_time(t, np.full(3, 5.0), 5.0) == 1.0


# -- scenario / report types ----------------------------------------------


def test_scenario_validation():
    with pytest.raises(ValueError):
        Scenario("bad", duration_s=0.0)
    with pytest.raises(ValueError):
        Scenario("bad", 10.0, events=[(1.0, "alien_invasion")])
    for t in (-0.02, 10.0):   # an event fires on a tick in [0, duration_s) or never
        with pytest.raises(ValueError, match="outside"):
            Scenario("bad", 10.0, events=[(t, "light_red")])
    s = Scenario("ok", 10.0, events=[(5.0, "light_blue"), (0.0, "light_red")])
    assert [e[0] for e in s.events] == [0.0, 5.0]


def test_report_serializes_infinity_as_never(tmp_path):
    rep = RunReport("r", 0, "abc", {"settle_time_s": math.inf, "x": 1.5}, [])
    doc = json.loads(rep.to_json())
    assert doc["metrics"]["settle_time_s"] == "never"
    assert doc["metrics"]["x"] == 1.5
    path = tmp_path / "report.json"
    rep.save(path)
    assert json.loads(path.read_text())["config_hash"] == "abc"


def test_config_hash_stable_and_sensitive():
    a = {"version": 1, "scenario": {"v_ref": 5.0}}
    b = {"scenario": {"v_ref": 5.0}, "version": 1}
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash({"version": 1, "scenario": {"v_ref": 6.0}})
    assert len(config_hash(a)) == 16


# -- scenario execution ----------------------------------------------------


def pid_scenario(**kw):
    kw.setdefault("controller", "pid")
    return Scenario(kw.pop("name", "s"), kw.pop("duration_s", 6.0),
                    kw.pop("v_ref", 5.0), **kw)


def test_zero_gain_pid_never_settles(pedal_rig_factory):
    rep = run_scenario(pid_scenario(), pedal_rig_factory(0),
                       pid_gains={"kp": 0.0, "ki": 0.0, "kd": 0.0})
    assert rep.metrics["settle_time_s"] == math.inf
    assert json.loads(rep.to_json())["metrics"]["settle_time_s"] == "never"


def test_identical_runs_identical_results(pedal_rig_factory, tmp_path):
    reports = []
    for d in ("a", "b"):
        out = tmp_path / d
        reports.append(run_scenario(pid_scenario(), pedal_rig_factory(0),
                                    out_dir=str(out)))
    assert reports[0].metrics == reports[1].metrics
    csv_a = open(reports[0].files[0]).read()
    csv_b = open(reports[1].files[0]).read()
    assert csv_a == csv_b          # bitwise-identical CSVs


def test_learned_controller_requires_model(pedal_rig_factory):
    with pytest.raises(ValueError):
        run_scenario(Scenario("s", 1.0, controller="learned"),
                     pedal_rig_factory(0), dynamics_model=None)


def test_brake_event_engages_within_one_tick(pedal_rig_factory):
    sc = pid_scenario(duration_s=3.0, events=[(1.0, "person_detected")])
    rep = run_scenario(sc, pedal_rig_factory(0))
    t, v, brake = rep.trace
    first = t[np.argmax(brake)]
    assert first <= 1.0 + 2 * harness.CTRL_DT
    assert not brake[t < 1.0].any()
    assert v[-1] < v[t <= 1.0].max()   # braking slowed the car


def test_resume_event_clears_brake(pedal_rig_factory):
    sc = pid_scenario(duration_s=4.0, events=[(1.0, "light_red"),
                                              (2.0, "light_blue")])
    rep = run_scenario(sc, pedal_rig_factory(0))
    t, v, brake = rep.trace
    assert brake[(t > 1.1) & (t < 2.0)].all()
    assert not brake[t > 2.1].any()


def test_peak_tension_is_the_peak_over_tick_ends(pedal_rig_factory):
    # the tension peaks when the red light drops the pedal command to its low
    # stop, far above its value at the last tick, once reported as the peak
    rig = pedal_rig_factory(0)
    ends = []
    apply = rig.apply

    def recording_apply(u, brake=0.0):
        out = apply(u, brake=brake)
        ends.append(float(rig.state.f.max()))
        return out

    rig.apply = recording_apply
    sc = pid_scenario(duration_s=20.0, events=[(5.0, "light_red"), (8.0, "light_blue")])
    rep = run_scenario(sc, rig)
    assert rep.metrics["peak_tension_N"] == max(ends)
    assert max(ends) > 2 * ends[-1]


def test_run_scenario_csv_schema(pedal_rig_factory, tmp_path):
    rep = run_scenario(pid_scenario(name="sch", duration_s=1.0),
                       pedal_rig_factory(0), out_dir=str(tmp_path))
    header = open(rep.files[0]).readline().strip()
    assert header == "t,v_car,v_ref,theta_ankle_cmd,theta_ankle_actual,loss"


def test_relax_log_schema(tmp_path):
    log = tmp_path / "relax_log.csv"
    harness.run_mrc_experiment(duration_s=0.1, log_path=str(log))
    lines = log.read_text().splitlines()
    assert lines[0] == "t,muscle,dl_relax,f,c"
    n_muscles, ticks = default_arm_geometry().n_muscles, 5   # 0.1 s of 20 ms ticks
    assert len(lines) == 1 + n_muscles * ticks
    assert all(len(line.split(",")) == 5 for line in lines[1:])


def test_mrc_experiment_runs_the_nearest_number_of_ticks(tmp_path):
    # 2.3 s is 115 ticks; 2.3 / 0.02 is 114.99999999999999, which truncates to 114
    log = tmp_path / "relax_log.csv"
    harness.run_mrc_experiment(duration_s=2.3, log_path=str(log))
    n_muscles = default_arm_geometry().n_muscles
    assert len(log.read_text().splitlines()) == 1 + n_muscles * 115


# -- CLI -------------------------------------------------------------------


def test_cli_missing_config_exits_1(capsys):
    code = cli.main(["run", "--config", "/nonexistent/pedal.json"])
    assert code == 1
    assert "/nonexistent/pedal.json" in capsys.readouterr().err


def test_cli_invalid_json_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["run", "--config", str(bad)]) == 1


def test_cli_config_that_is_not_utf8_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"version": 1, "scenario": {"name": "\xff"}}')
    code = cli.main(["run", "--config", str(bad)])
    assert_one_line_error(code, capsys, "invalid JSON")


def test_cli_wrong_version_exits_1(tmp_path):
    doc = tmp_path / "v.json"
    doc.write_text(json.dumps({"version": 99}))
    assert cli.main(["run", "--config", str(doc)]) == 1


def test_cli_unknown_command_exits_1(capsys):
    assert cli.main(["frobnicate"]) == 1


def test_cli_unknown_flag_exits_1(capsys):
    assert cli.main(["run", "--bogus-flag"]) == 1


def test_cli_run_happy_path(tmp_path, static_model, capsys):
    model_path = tmp_path / "static.json"
    static_model.save(model_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "version": 1,
        "scenario": {"name": "smoke", "duration_s": 3.0, "v_ref": 5.0,
                     "controller": "pid"},
    }))
    out = tmp_path / "results"
    code = cli.main(["run", "--config", str(cfg), "--seed", "7",
                     "--out", str(out), "--static-model", str(model_path)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["seed"] == 7
    assert os.path.exists(report["files"][0])


def test_cli_compare_assert_exit_2(tmp_path, monkeypatch):
    fake = RunReport("cmp", 0, "h",
                     {"settle_time_learned_s": 9.0, "settle_time_pid_s": 1.0}, [])
    monkeypatch.setattr(cli, "_stack", lambda args, cfg: (lambda: None, object()))
    monkeypatch.setattr(cli, "compare_controllers", lambda *a, **k: fake)
    code = cli.main(["compare", "--assert", "--out", str(tmp_path)])
    assert code == 2
    fake.metrics["settle_time_learned_s"] = 0.5
    assert cli.main(["compare", "--assert", "--out", str(tmp_path)]) == 0


def test_cli_compare_hashes_the_whole_config(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_stack", lambda args, cfg: (lambda: None, object()))
    monkeypatch.setattr(harness, "run_scenario", lambda scenario, *a, **k: RunReport(
        scenario.name, 0, "h", {"settle_time_s": 1.0}, []))
    hashes = []
    for kp in (0.01, 0.02):   # two configs that differ only outside the scenario
        doc = {"version": 1, "pid": {"kp": kp, "ki": 0.02, "kd": 0.0}}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert cli.main(["compare", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        hashes.append(json.loads((tmp_path / "compare.json").read_text())["config_hash"])
        assert hashes[-1] == config_hash(doc)
    assert hashes[0] != hashes[1]


@pytest.mark.parametrize("name", sorted(cli.EXPERIMENTS))
def test_cli_experiment(name, tmp_path, static_model):
    model_path = tmp_path / "static.json"
    static_model.save(model_path)
    out = tmp_path / name
    h = ["--static-model", str(model_path)] if name in ("ekf", "online") else []
    code = cli.main(["experiment", name, "--out", str(out), "--assert", *h])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["name"] == name
    if name == "ekf":
        assert report["metrics"]["rmse_rad"] < 0.05


def test_cli_init_model_roundtrip(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "version": 1,
        "static": {"grid_points": 5, "f_samples": 4,
                   "loss_threshold": 10.0,
                   "train": {"learning_rate": 0.1, "epochs": 30}},
    }))
    out = tmp_path / "m"
    assert cli.main(["init-model", "--config", str(cfg), "--out", str(out)]) == 0
    from tendonctl.static_ctrl import IntersensoryModel
    model = IntersensoryModel.load(out / "static_model.json")
    assert model.n_muscles == 2


# -- CLI: one pre-training per run, errors end in exit 1 ------------------


TINY_STATIC = {"grid_points": 3, "f_samples": 2,
               "loss_threshold": 10.0,
               "train": {"learning_rate": 0.1, "batch_size": 16, "epochs": 2}}


def write_config(tmp_path, **sections):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"version": 1, **sections}))
    return str(cfg)


def assert_one_line_error(code, capsys, *words):
    err = capsys.readouterr().err
    assert code == 1
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    for word in words:
        assert word in err


def test_cli_run_pretrains_static_model_once(tmp_path, monkeypatch):
    calls = []
    real = static_ctrl.init_from_geometry

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(static_ctrl, "init_from_geometry", counting)
    cfg = write_config(
        tmp_path, static=TINY_STATIC,
        scenario={"name": "tiny", "duration_s": 0.1, "controller": "learned"},
        dynamics={"N": 3, "rollout_s": 1.0, "rms_threshold": 1e9,
                  "train": {"learning_rate": 0.05, "batch_size": 16, "epochs": 1}})
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 1


def test_cli_initialization_error_exits_1(tmp_path, capsys):
    static = dict(TINY_STATIC, loss_threshold=1e-12,
                  train={"learning_rate": 0.1, "batch_size": 16, "epochs": 1})
    cfg = write_config(tmp_path, static=static)
    code = cli.main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
    assert_one_line_error(code, capsys)


def test_cli_training_threshold_error_exits_1(tmp_path, capsys):
    rng = np.random.default_rng(0)
    data = tmp_path / "rollout.npz"
    np.savez(data, version=cli.ROLLOUT_VERSION, S0=rng.normal(size=(40, 2)),
             U=rng.uniform(size=(40, 3)), Y=rng.normal(size=(40, 3)), u_lo=0.0, u_hi=1.0)
    cfg = write_config(tmp_path, dynamics={
        "rms_threshold": 1e-12,
        "train": {"learning_rate": 0.05, "batch_size": 16, "epochs": 1}})
    code = cli.main(["train-dynamics", "--config", cfg, "--data", str(data),
                     "--out", str(tmp_path / "out")])
    assert_one_line_error(code, capsys, "held-out one-step RMS")


@pytest.mark.parametrize("argv", [
    ["run", "--static-model", "/nonexistent/static.json"],
    ["run", "--dynamics-model", "/nonexistent/dynamics.json"],
    ["train-dynamics", "--data", "/nonexistent/rollout.npz"],
], ids=["static-model", "dynamics-model", "data"])
def test_cli_missing_model_or_data_file_exits_1(argv, tmp_path, capsys):
    code = cli.main(argv + ["--out", str(tmp_path / "out")])
    assert_one_line_error(code, capsys)


@pytest.mark.parametrize("flag", ["--static-model", "--dynamics-model"])
def test_cli_model_version_error_exits_1(flag, tmp_path, static_model, capsys):
    if flag == "--static-model":
        d = static_model.to_dict()
    else:
        d = DynamicsModel(MLPNetwork.seeded([3, 2], seed=0), 1, 2, (0.0, 1.0)).to_dict()
    d["version"] = 99
    path = tmp_path / "model.json"
    path.write_text(json.dumps(d))
    code = cli.main(["run", flag, str(path), "--out", str(tmp_path / "out")])
    assert_one_line_error(code, capsys)
