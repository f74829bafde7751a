"""Config schema and the CLI's one stack path: strict reading, loaded models
checked against the config, one pre-training call, README commands."""

import copy
import inspect
import json
import shlex
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tendonctl import cli, harness, static_ctrl
from tendonctl.dynamic_ctrl import DynamicsModel
from tendonctl.nets import FeatureScaler, MLPNetwork

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = {p.stem: json.loads(p.read_text()) for p in sorted((ROOT / "configs").glob("*.json"))}
ANKLE = json.loads((ROOT / "tests" / "fixtures" / "ankle_description.json").read_text())


def run_cli(tmp_path, argv, **sections):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"version": 1, **sections}))
    return cli.main(argv + ["--config", str(cfg), "--out", str(tmp_path / "out")])


def assert_one_line_error(code, capsys, *words):
    err = capsys.readouterr().err
    assert code == 1
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    for word in words:
        assert word in err


@pytest.fixture
def no_training(monkeypatch):
    """Fail the test if h is pre-trained."""
    def trained(*args, **kwargs):
        raise AssertionError("pre-trained h")
    monkeypatch.setattr(static_ctrl, "init_from_geometry", trained)
    monkeypatch.setattr(harness, "init_from_geometry", trained)


# -- the reader -------------------------------------------------------------


def test_shipped_configs_read():
    for doc in CONFIGS.values():
        cfg = cli.read_config(doc, seed=4)
        assert cfg.scenario.seed == 4
        assert cfg.opt_cfg.horizon == cfg.rollout["horizon"] == 25


def test_defaults_are_those_of_the_parameters():
    cfg = cli.read_config({"version": 1})
    params = inspect.signature(static_ctrl.init_from_geometry).parameters
    assert cfg.static == {k: params[k].default for k in cfg.static}
    assert cfg.scenario == harness.Scenario()
    assert cfg.rollout == {"horizon": harness.PEDAL_HORIZON, "duration_s": 60.0}
    assert cfg.pid_gains is None and not cfg.n_set


@pytest.mark.parametrize("doc", [None, [], 5, "x", {"version": 2}, {}],
                         ids=["null", "list", "number", "string", "version-2", "no-version"])
def test_reader_rejects_bad_documents(doc):
    with pytest.raises(cli.ConfigError):
        cli.read_config(doc)


def json_values():
    leaves = (st.none() | st.booleans() | st.integers() | st.text(max_size=6)
              | st.floats(allow_nan=True, allow_infinity=True))
    return st.recursive(leaves, lambda inner: st.lists(inner, max_size=3)
                        | st.dictionaries(st.text(max_size=6), inner, max_size=3),
                        max_leaves=5)


def containers(node, path=()):
    """Paths of every object and list in a JSON document."""
    if isinstance(node, (dict, list)):
        yield path
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from containers(child, path + (key,))


@st.composite
def mutated_configs(draw):
    """A shipped config (or one with a plant section) with keys added, dropped
    or misspelled and values replaced, at any depth."""
    doc = copy.deepcopy(draw(st.sampled_from(
        [*CONFIGS.values(), dict(CONFIGS["pedal"], plant=ANKLE)])))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(containers(doc))))
        node = doc
        for key in path:
            node = node[key]
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        op = draw(st.sampled_from(["add", "drop", "misspell", "replace"]))
        if op == "add" or not keys:
            if isinstance(node, dict):
                node[draw(st.text(min_size=1, max_size=8))] = draw(json_values())
            else:
                node.append(draw(json_values()))
            continue
        key = draw(st.sampled_from(keys))
        if op == "drop":
            del node[key]
        elif op == "misspell" and isinstance(node, dict):
            node[key + draw(st.sampled_from(["s", "_", "r"]))] = node.pop(key)
        else:
            node[key] = draw(json_values() | st.integers(-3, 0) | st.floats(-1e3, 0.0))
    return doc


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mutated_configs())
def test_reader_returns_or_raises_config_error(doc):
    try:
        cli.read_config(doc)
    except cli.ConfigError:
        pass


# -- config defects end in one line, before any training --------------------


@pytest.mark.parametrize("sections,named", [
    ({"scenario": {"controler": "pid"}}, "scenario.controler"),
    ({"scenario": {"duration_s": -1}}, "scenario"),
    ({"scenario": {"duration_s": 0.005}}, "control tick"),
    ({"scenario": {"controller": "pdi"}}, "scenario"),
    ({"pid": {"kp": 0.01, "kd": 0.0}}, "pid.ki"),
    ({"static": {"grid_points": "15"}}, "static.grid_points"),
    ({"dynamics": {"N": 25, "train": {"epochs": 0}}}, "dynamics.train"),
    ({"plant": dict(ANKLE, car={"steer_gain": 40.0})}, "steer_gain"),
    ({"plant": dict(ANKLE, muscles=ANKLE["muscles"][:1])}, "antagonistically"),
    ({"plant": dict(ANKLE, car={"delay_s": -1.0})}, "car.delay_s"),
    ({"plant": dict(ANKLE, car={"drag_coeff": -2.0})}, "car.drag_coeff"),
    ({"plant": dict(ANKLE, car={"creep_kmh": -2.0})}, "car.creep_kmh"),
], ids=["unknown-key", "negative-duration", "sub-tick-duration", "unknown-controller",
        "pid-without-ki", "wrong-type", "bad-train-value", "removed-car-key",
        "one-muscle-per-joint", "negative-car-delay", "negative-car-drag",
        "negative-car-creep"])
def test_cli_config_defect_exits_1(sections, named, tmp_path, no_training, capsys):
    code = run_cli(tmp_path, ["run"], **sections)
    assert_one_line_error(code, capsys, named)


@pytest.mark.parametrize("argv,sections,named", [
    (["experiment", "ekf", "--seed", "-1"], {}, "--seed"),
    (["collect"], {"dynamics": {"rollout_s": 0.1}}, "dynamics.rollout_s"),
    (["run"], {"dynamics": {"N": 10, "rollout_s": 0.2}}, "dynamics.rollout_s"),
    (["experiment", "ekf"], {"ekf": {"mean": 0.7}}, "ekf"),
], ids=["negative-seed", "rollout-shorter-than-horizon", "rollout-of-one-window",
        "ekf-outside-joint-limits"])
def test_cli_run_time_defect_exits_1(argv, sections, named, tmp_path, no_training, capsys):
    # each of these used to pass the reader and end in a traceback later
    code = run_cli(tmp_path, argv, **sections)
    assert_one_line_error(code, capsys, named)


def test_rollout_of_two_windows_and_ekf_at_the_limits_read():
    cfg = cli.read_config({"version": 1, "dynamics": {"N": 10, "rollout_s": 0.22},
                           "ekf": {"mean": 0.3, "amp": 0.5}})
    assert cfg.rollout["duration_s"] == 0.22 and cfg.ekf["amp"] == 0.5


# -- a loaded dynamics model sets the horizon --------------------------------


def write_dynamics_model(path, state_dim=7, horizon=25):
    """An untrained dynamics model of the pedal rig's shape."""
    n_in = state_dim + horizon
    net = MLPNetwork.seeded([n_in, 8, horizon], seed=0,
                            in_scaler=FeatureScaler(np.full(n_in, -10.0), np.full(n_in, 10.0)),
                            out_scaler=FeatureScaler(np.zeros(horizon), np.full(horizon, 10.0)))
    DynamicsModel(net, state_dim, horizon, (0.0, 0.6)).save(path)
    return str(path)


@pytest.fixture
def static_model_path(tmp_path, static_model):
    path = tmp_path / "static.json"
    static_model.save(path)
    return str(path)


def test_cli_run_takes_the_horizon_of_a_loaded_model(tmp_path, static_model_path):
    dyn = write_dynamics_model(tmp_path / "dyn.json", horizon=25)
    code = run_cli(tmp_path, ["run", "--static-model", static_model_path, "--dynamics-model", dyn],
                   scenario={"duration_s": 0.2}, dynamics={"iterations": 2})
    assert code == 0


@pytest.mark.parametrize("dynamics,state_dim,named", [
    ({"N": 10}, 7, "horizon 25"), ({}, 5, "state_dim 5"),
], ids=["N-differs", "state-dim-differs"])
def test_cli_loaded_model_mismatch_exits_1(dynamics, state_dim, named, tmp_path,
                                           static_model_path, capsys):
    dyn = write_dynamics_model(tmp_path / "dyn.json", state_dim=state_dim)
    code = run_cli(tmp_path, ["run", "--static-model", static_model_path, "--dynamics-model", dyn],
                   scenario={"duration_s": 0.2}, dynamics=dynamics)
    assert_one_line_error(code, capsys, named)


def test_cli_static_model_of_another_body_exits_1(tmp_path, no_training, capsys):
    # h of a 2-joint, 6-muscle arm against the config's ankle is refused when
    # the stack is built, not at the first tick
    arm_h = static_ctrl.IntersensoryModel(MLPNetwork.seeded([8, 4, 6], seed=0), 2, 6)
    arm_h.save(tmp_path / "arm_h.json")
    code = run_cli(tmp_path, ["collect", "--static-model", str(tmp_path / "arm_h.json")])
    assert_one_line_error(code, capsys, "2 joints and 6 muscles", "has 1 and 2")


# -- the rollout archive -----------------------------------------------------


def write_rollout(path, n=40, **arrays):
    """A rollout archive of ``n`` windows as collect writes it, with ``arrays``
    replaced (None drops one)."""
    rng = np.random.default_rng(0)
    doc = dict(version=cli.ROLLOUT_VERSION, S0=rng.normal(size=(n, 7)),
               U=rng.uniform(size=(n, 10)), Y=rng.normal(size=(n, 10)), u_lo=0.0, u_hi=0.6)
    doc.update(arrays)
    np.savez(path, **{k: v for k, v in doc.items() if v is not None})
    return str(path)


def test_collect_writes_what_train_dynamics_reads(tmp_path, static_model_path):
    dyn = {"N": 10, "rollout_s": 0.6, "rms_threshold": 100.0}
    assert run_cli(tmp_path, ["collect", "--static-model", static_model_path],
                   dynamics=dyn) == 0
    data = tmp_path / "out" / "rollout.npz"
    assert int(np.load(data)["version"]) == cli.ROLLOUT_VERSION
    assert run_cli(tmp_path, ["train-dynamics", "--data", str(data)], dynamics=dyn) == 0


@pytest.mark.parametrize("arrays,n,named", [
    ({"U": None}, 40, "'U'"),
    ({"version": None}, 40, "'version'"),
    ({"version": 2}, 40, "version 2"),
    ({"Y": np.zeros((40, 9))}, 40, "windows"),
    ({}, 1, "at least two"),
], ids=["missing-U", "no-version", "other-version", "shape-mismatch", "one-window"])
def test_cli_bad_rollout_archive_exits_1(arrays, n, named, tmp_path, no_training, capsys):
    data = write_rollout(tmp_path / "rollout.npz", n=n, **arrays)
    code = run_cli(tmp_path, ["train-dynamics", "--data", data])
    assert_one_line_error(code, capsys, named)


def test_cli_rollout_that_is_not_an_npz_exits_1(tmp_path, no_training, capsys):
    data = tmp_path / "rollout.npz"
    data.write_text("S0,U,Y\n1,2,3\n")
    code = run_cli(tmp_path, ["train-dynamics", "--data", str(data)])
    assert_one_line_error(code, capsys, "not an .npz archive")


# -- one pre-training path ---------------------------------------------------


@pytest.mark.parametrize("argv", [
    ["init-model"], ["collect"], ["run"], ["compare"], ["experiment", "ekf"],
    ["experiment", "online"],
], ids=lambda argv: "-".join(argv))
def test_cli_pretrains_h_with_init_from_geometry_defaults(argv, tmp_path, monkeypatch):
    calls = []

    def stop(geom, **kwargs):
        calls.append(kwargs)
        raise static_ctrl.InitializationError("stopped")

    params = inspect.signature(static_ctrl.init_from_geometry).parameters
    defaults = {k: p.default for k, p in params.items() if k not in ("geom", "online_cfg")}
    monkeypatch.setattr(static_ctrl, "init_from_geometry", stop)
    assert run_cli(tmp_path, argv + ["--seed", "3"]) == 1
    assert calls == [dict(defaults, seed=3)]


# -- the README's commands ---------------------------------------------------


def readme_commands():
    lines = (ROOT / "README.md").read_text().splitlines()
    return [shlex.split(line, comments=True) for line in lines
            if line.startswith("tendonctl ")]


def test_readme_commands_parse_and_their_configs_read():
    commands = readme_commands()
    assert len(commands) >= 10
    parser = cli.build_parser()
    for argv in commands:
        args = parser.parse_args(argv[1:])
        if args.config:
            cli.read_config(cli.load_config(ROOT / args.config))
