"""Config schema and the CLI's one stack path: strict reading, loaded models
checked against the config, one pre-training call, README commands."""

import copy
import dataclasses
import inspect
import json
import math
import re
import shlex
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from tendonctl import cli, harness, plant, static_ctrl
from tendonctl.dynamic_ctrl import DynamicsModel, train_dynamics
from tendonctl.nets import FeatureScaler, MLPNetwork, ModelFormatError

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


def test_train_sections_shuffle_with_the_seed():
    # train_dynamics's default TrainConfig, spelled out, trains the same model
    default = {"learning_rate": 0.05, "batch_size": 32, "epochs": 150}
    rng = np.random.default_rng(0)
    dataset = (rng.normal(size=(40, 2)), rng.uniform(size=(40, 4)), rng.normal(size=(40, 4)))
    nets = []
    for dynamics in ({}, {"train": default}):
        cfg = cli.read_config({"version": 1, "dynamics": dict(dynamics, rms_threshold=1e9)},
                              seed=3)
        nets.append(train_dynamics(dataset, (0.0, 1.0), seed=3, **cfg.train).net)
    for a, b in zip(nets[0].weights, nets[1].weights):
        assert np.array_equal(a, b)
    assert cli.read_config({"version": 1, "static": {"train": default}},
                           seed=3).static["train_cfg"].seed == 3


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
def mutated(draw, docs):
    """One of the JSON documents ``docs`` with keys added, dropped or
    misspelled and values replaced, at any depth."""
    doc = copy.deepcopy(draw(st.sampled_from(docs)))
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


def ankle_joint(**change):
    """The ankle description with its one joint changed."""
    return dict(ANKLE, joints=[dict(ANKLE["joints"][0], **change)])


def ankle_muscle(**change):
    """The ankle description with its first muscle changed."""
    return dict(ANKLE, muscles=[dict(ANKLE["muscles"][0], **change), *ANKLE["muscles"][1:]])


def numbers(node):
    """Every number in nested tuples and lists."""
    if isinstance(node, (tuple, list)):
        for item in node:
            yield from numbers(item)
    elif isinstance(node, (int, float)):
        yield node


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mutated([*CONFIGS.values(), dict(CONFIGS["pedal"], plant=ANKLE)]))
@example(dict(CONFIGS["pedal"], plant=ankle_joint(origin={})))   # once ended in KeyError: 0
@example(dict(CONFIGS["pedal"], plant=ankle_joint(limits={})))
@example(dict(CONFIGS["pedal"], plant=ankle_muscle(k2=float("nan"))))   # once read silently
def test_reader_returns_or_raises_config_error(doc):
    try:
        cfg = cli.read_config(doc)
    except cli.ConfigError:
        return
    body = [*cfg.geom.joints, *cfg.geom.muscles, cfg.car_cfg]
    assert all(math.isfinite(x) for spec in body for x in numbers(dataclasses.astuple(spec)))


# -- the body description ----------------------------------------------------


def test_description_matches_default_ankle():
    cfg = cli.read_config({"version": 1, "plant": ANKLE})
    ref = plant.default_ankle_geometry()
    assert cfg.car_cfg == plant.CarConfig(a_max=25.0, delay_s=0.2)
    assert [m.name for m in cfg.geom.muscles] == [m.name for m in ref.muscles]
    for theta in np.linspace(-0.2, 0.8, 11):
        assert np.array_equal(cfg.geom.muscle_lengths([theta]), ref.muscle_lengths([theta]))


def test_description_version_check():
    with pytest.raises(cli.ConfigError, match="plant.version"):
        cli.read_config({"version": 1, "plant": dict(ANKLE, version=42)})


@pytest.mark.parametrize("change", [
    {"car": {"steer_gain": 40.0}},
    {"gears": 5},
    {"muscles": ANKLE["muscles"][:1]},
], ids=["removed-car-key", "unknown-key", "one-muscle-per-joint"])
def test_description_rejects_bad_documents(change):
    with pytest.raises(cli.ConfigError):
        cli.read_config({"version": 1, "plant": dict(ANKLE, **change)})


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
    ({"ekf": {"noise_m": 1e-3}}, "ekf: unknown key"),
    ({"static": {"hidden": [16]}}, "static.hidden: unknown key"),
    ({"static": {"f_max": 100.0}}, "static.f_max: unknown key"),
    ({"dynamics": {"beta": 0.02}}, "dynamics.beta: unknown key"),
    ({"dynamics": {"iterations": 30}}, "dynamics.iterations: unknown key"),
    ({"scenario": {"duration_s": 1.0, "events": [[5.0, "person_detected"]]}}, "5.0 s"),
    ({"scenario": {"duration_s": 1.0, "events": [[-3.0, "light_blue"]]}}, "-3.0 s"),
    ({"plant": ankle_joint(origin={})}, "plant"),
    ({"plant": ankle_joint(limits={})}, "plant"),
    ({"plant": ankle_joint(parent=-1)}, "joint ankle_pitch: parent -1"),
    ({"plant": ankle_joint(parent=0.0)}, "plant.joints[0].parent"),
    ({"plant": ankle_joint(parent=True)}, "plant.joints[0].parent"),
    ({"plant": ankle_muscle(k2=float("nan"))}, "plant.muscles[0].k2"),
    ({"plant": ankle_muscle(k2=float("inf"))}, "plant.muscles[0].k2"),
    ({"plant": ankle_muscle(slack=float("nan"))}, "plant.muscles[0].slack"),
    ({"plant": ankle_muscle(length_offset=float("inf"))}, "plant.muscles[0].length_offset"),
    ({"plant": dict(ANKLE, car={"a_max": float("nan")})}, "plant.car.a_max"),
    ({"plant": ankle_joint(name=3)}, "plant.joints[0].name"),
    ({"plant": ankle_joint(limits=[-float("inf"), float("inf")])}, "plant.joints[0].limits[0]"),
    ({"plant": ankle_joint(origin=[0.0])}, "plant.joints[0].origin: expected 2 items"),
    ({"plant": ankle_muscle(attachments=[[0, [-0.08, float("inf")]], [1, [0.08, 0.03]]])},
     "plant.muscles[0].attachments[0][1][1]"),
    ({"plant": ankle_muscle(attachments=[[0.0, [-0.08, 0.03]], [1, [0.08, 0.03]]])},
     "plant.muscles[0].attachments[0][0]"),
    ({"plant": dict(ANKLE, joints=[], muscles=[
        dict(m, attachments=[[0, [0.0, 0.0]], [0, [0.1, 0.0]]]) for m in ANKLE["muscles"]])},
     "plant.joints: expected one or more"),
], ids=["unknown-key", "negative-duration", "sub-tick-duration", "unknown-controller",
        "pid-without-ki", "wrong-type", "bad-train-value", "removed-car-key",
        "one-muscle-per-joint", "negative-car-delay", "negative-car-drag",
        "negative-car-creep", "removed-ekf-section", "removed-static-hidden",
        "removed-static-f_max", "removed-dynamics-beta", "removed-dynamics-iterations",
        "event-after-the-end", "event-before-the-start", "joint-origin-object",
        "joint-limits-object", "joint-parent-negative", "joint-parent-float",
        "joint-parent-bool", "muscle-k2-nan", "muscle-k2-infinite", "muscle-slack-nan",
        "muscle-offset-infinite", "car-a_max-nan", "joint-name-number",
        "joint-limits-infinite", "joint-origin-one-number", "attachment-infinite",
        "attachment-link-float", "no-joints"])
def test_cli_config_defect_exits_1(sections, named, tmp_path, no_training, capsys):
    code = run_cli(tmp_path, ["run"], **sections)
    assert_one_line_error(code, capsys, named)


@pytest.mark.parametrize("argv,sections,named", [
    (["experiment", "ekf", "--seed", "-1"], {}, "--seed"),
    (["collect"], {"dynamics": {"rollout_s": 0.1}}, "dynamics.rollout_s"),
    (["run"], {"dynamics": {"N": 10, "rollout_s": 0.2}}, "dynamics.rollout_s"),
], ids=["negative-seed", "rollout-shorter-than-horizon", "rollout-of-one-window"])
def test_cli_run_time_defect_exits_1(argv, sections, named, tmp_path, no_training, capsys):
    # each of these used to pass the reader and end in a traceback later
    code = run_cli(tmp_path, argv, **sections)
    assert_one_line_error(code, capsys, named)


def test_cli_config_nested_too_deep_exits_1(tmp_path, no_training, capsys):
    # once a RecursionError traceback
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[" * 100_000)
    code = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert_one_line_error(code, capsys, "invalid JSON")


def test_rollout_of_two_windows_reads():
    cfg = cli.read_config({"version": 1, "dynamics": {"N": 10, "rollout_s": 0.22}})
    assert cfg.rollout["duration_s"] == 0.22


@pytest.mark.parametrize("name", cli.EXPERIMENTS)
def test_cli_experiment_with_a_plant_section_exits_1(name, tmp_path, no_training, capsys):
    # each experiment builds its own body; a config body would be ignored, or
    # meet an h pre-trained on it and end in a traceback
    code = run_cli(tmp_path, ["experiment", name], plant=ANKLE)
    assert_one_line_error(code, capsys, "plant", name)


# -- each command takes only the flags it reads -------------------------------


@pytest.mark.parametrize("command,flag", [
    ("init-model", "--assert"), ("init-model", "--dynamics-model"),
    ("collect", "--assert"), ("collect", "--dynamics-model"),
    ("train-dynamics", "--assert"), ("train-dynamics", "--static-model"),
    ("train-dynamics", "--dynamics-model"), ("run", "--assert"),
    ("experiment", "--dynamics-model"),
])
def test_cli_flag_the_command_does_not_read_exits_1(command, flag, tmp_path, no_training,
                                                    capsys):
    argv = {"train-dynamics": [command, "--data", "rollout.npz"],
            "experiment": [command, "ekf"]}.get(command, [command])
    code = run_cli(tmp_path, argv + [flag] + ([] if flag == "--assert" else ["model.json"]))
    assert code == 1
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["relax", "safety"])
def test_cli_experiment_without_h_refuses_a_static_model(name, tmp_path, no_training,
                                                         static_model_path, capsys):
    code = run_cli(tmp_path, ["experiment", name, "--static-model", static_model_path])
    assert_one_line_error(code, capsys, "--static-model", name)


def test_cli_pid_run_refuses_a_dynamics_model(tmp_path, no_training, static_model_path, capsys):
    # a pid scenario runs no dynamics model: the flag is refused, not ignored
    code = run_cli(tmp_path, ["run", "--static-model", static_model_path,
                              "--dynamics-model", str(tmp_path / "nonexistent" / "dyn.json")],
                   scenario={"controller": "pid", "duration_s": 0.2})
    assert_one_line_error(code, capsys, "error: --dynamics-model: ")


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
                   scenario={"duration_s": 0.2})
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


@pytest.mark.parametrize("defect,named", [
    (lambda d: d["net"].pop("input_range"), "input_range"),
    (lambda d: d["net"].pop("output_range"), "output_range"),
    (lambda d: d.update(horizon=24), "horizon 24"),
    (lambda d: d.update(u_limits=[0.6, 0.0]), "u_limits"),
    (lambda d: d.update(u_limits=[0.0, 0.3, 0.6]), "u_limits"),
], ids=["no-input-scaler", "no-output-scaler", "layers-not-of-the-horizon", "limits-reversed",
        "limits-not-a-pair"])
def test_cli_malformed_dynamics_model_exits_1(defect, named, tmp_path, no_training, capsys):
    # each used to pass loading and end in a traceback (or run on) after h
    # was pre-trained; the document is now refused before
    path = tmp_path / "dyn.json"
    doc = json.loads(Path(write_dynamics_model(path)).read_text())
    defect(doc)
    path.write_text(json.dumps(doc))
    code = run_cli(tmp_path, ["run", "--dynamics-model", str(path)],
                   scenario={"duration_s": 0.2})
    assert_one_line_error(code, capsys, "dynamics model", named)


def scaled_net(sizes):
    """An untrained net of ``sizes`` carrying both scalers."""
    return MLPNetwork.seeded(sizes, seed=0,
                             in_scaler=FeatureScaler(-np.ones(sizes[0]), np.ones(sizes[0])),
                             out_scaler=FeatureScaler(np.zeros(sizes[-1]), np.ones(sizes[-1])))


def test_cli_static_model_of_another_body_exits_1(tmp_path, no_training, capsys):
    # h of a 2-joint, 6-muscle arm against the config's ankle is refused when
    # the stack is built, not at the first tick
    arm_h = static_ctrl.IntersensoryModel(scaled_net([8, 4, 6]), 2, 6)
    arm_h.save(tmp_path / "arm_h.json")
    code = run_cli(tmp_path, ["collect", "--static-model", str(tmp_path / "arm_h.json")])
    assert_one_line_error(code, capsys, "2 joints and 6 muscles", "has 1 and 2")


@pytest.mark.parametrize("defect,named", [
    (b"{", "invalid JSON"),
    (b"\xff", "invalid JSON"),
    (b"[" * 100_000, "invalid JSON"),
    (b"[]", "expected an object, got list"),
    (lambda d: d.pop("net"), "missing key 'net'"),
    (lambda d: d.update(n_joints=1.0), "h.n_joints: expected an integer"),
    (lambda d: d["net"]["weights"][1].pop(), "net.weights[1]: shape (63, 64)"),
    (lambda d: d["net"]["weights"][0][0].__setitem__(0, float("nan")),
     "net.weights[0]: non-finite"),
    (lambda d: d["net"]["input_range"].update(hi=d["net"]["input_range"]["lo"]),
     "net.input_range: scaler ranges must have hi > lo"),
    (lambda d: d["net"].pop("output_range"), "output_range"),
    (lambda d: d.update(net=scaled_net([3, 4, 3]).to_dict()), "h: net layers [3, 4, 3]"),
], ids=["not-json", "not-utf-8", "nested-too-deep", "json-list", "no-net", "joints-not-an-integer",
        "weights-do-not-chain", "nan-weight", "scaler-hi-not-above-lo", "no-output-scaler",
        "three-outputs-for-two-muscles"])
def test_cli_malformed_static_model_exits_1(defect, named, tmp_path, static_model,
                                            no_training, capsys):
    # each ended in a traceback: on loading, or at the EKF's first tick
    path = tmp_path / "h.json"
    if isinstance(defect, bytes):
        path.write_bytes(defect)
    else:
        doc = static_model.to_dict()
        defect(doc)
        path.write_text(json.dumps(doc))
    code = run_cli(tmp_path, ["experiment", "ekf", "--static-model", str(path)])
    assert_one_line_error(code, capsys, named)


H_DOC = static_ctrl.IntersensoryModel(scaled_net([3, 4, 2]), 1, 2).to_dict()
MODEL_DOCUMENTS = [
    (static_ctrl.IntersensoryModel, H_DOC),
    (DynamicsModel, DynamicsModel(scaled_net([5, 4, 3]), 2, 3, (0.0, 0.6)).to_dict()),
    (MLPNetwork, H_DOC["net"]),
]


def use(model):
    """Run the loaded model once on zeros, as its first caller would."""
    if isinstance(model, static_ctrl.IntersensoryModel):
        model.length_jacobian_theta(np.zeros(model.n_joints), np.zeros(model.n_muscles))
    elif isinstance(model, DynamicsModel):
        model.fold(np.zeros(model.state_dim)).forward(np.zeros(model.horizon))
    else:   # a bare net's scalers are optional
        n_in, n_out = model.layer_sizes[0], model.layer_sizes[-1]
        model.forward(np.zeros(n_in))
        if model.in_scaler is not None:
            model.in_scaler.to_unit(np.zeros(n_in))
        if model.out_scaler is not None:
            model.out_scaler.from_unit(np.zeros(n_out))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(MODEL_DOCUMENTS).flatmap(
    lambda case: mutated([case[1]]).map(lambda doc: (case[0], doc))))
@example((static_ctrl.IntersensoryModel, dict(H_DOC, n_joints=2)))
@example((MLPNetwork, {"version": 1, "layer_sizes": [3], "weights": [], "biases": []}))
@example((MLPNetwork, dict(H_DOC["net"], biases=[[0.0] * 4, [0.0, float("nan")]])))
def test_model_readers_return_a_usable_model_or_raise_model_format_error(case):
    cls, doc = case
    try:
        model = cls.from_dict(doc)
    except ModelFormatError:
        return
    net = model if isinstance(model, MLPNetwork) else model.net
    scalers = [sc for sc in (net.in_scaler, net.out_scaler) if sc is not None]
    assert all(np.isfinite(a).all() for a in net.weights + net.biases
               + [a for sc in scalers for a in (sc.lo, sc.hi)])
    with np.errstate(all="ignore"):   # huge finite weights may overflow to inf
        use(model)


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
    ({"Y": np.full((40, 10), np.nan)}, 40, "archive's 'Y' array holds a non-numeric or non-finite"),
], ids=["missing-U", "no-version", "other-version", "shape-mismatch", "one-window",
        "nan-target"])
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
    defaults = {k: p.default for k, p in params.items() if k != "geom"}
    monkeypatch.setattr(static_ctrl, "init_from_geometry", stop)
    assert run_cli(tmp_path, argv + ["--seed", "3"]) == 1
    assert calls == [dict(defaults, seed=3)]


# -- the README's commands ---------------------------------------------------


def readme_commands():
    lines = (ROOT / "README.md").read_text().splitlines()
    return [shlex.split(line, comments=True) for line in lines
            if line.startswith("tendonctl ")]


def readme_config_table():
    """Keys per section in the README's config table; a row without a
    section continues the one above it."""
    lines = (ROOT / "README.md").read_text().split("### Config schema")[1].splitlines()
    table, section = {}, None
    for line in lines:
        if not line.startswith("| ") or line.startswith("| section"):
            continue
        cells = [c.strip() for c in line.strip("|").split("|")]
        section = re.findall(r"`([^`]+)`", cells[0])[0] if cells[0] else section
        keys = re.findall(r"`([^`]+)`", re.sub(r"\([^)]*\)", "", cells[1]))
        table.setdefault(section, set()).update(keys)
    return table


def test_readme_config_table_lists_the_keys_the_reader_takes():
    taken = {"train": set(cli.TRAIN_KEYS.split()), "plant": set(ANKLE)}
    for section, _, keys, _ in cli.SCHEMA.values():
        taken.setdefault(section, set()).update(k.partition(":")[0] for k in keys.split())
    cli.read_config({"version": 1, "plant": ANKLE})   # the fixture sets every plant key
    assert readme_config_table() == taken


def test_readme_commands_parse_and_their_configs_read():
    commands = readme_commands()
    assert len(commands) >= 10
    parser = cli.build_parser()
    for argv in commands:
        args = parser.parse_args(argv[1:])
        if args.config:
            cli.read_config(cli.load_config(ROOT / args.config))
