"""The seed-0 CLI pipeline, byte for byte.

Every file the pipeline writes is compared, by its sha256, with
tests/fixtures/artifacts.json.  A change meant to leave every figure as it
was is checked here; a change of figures on purpose rewrites the fixture
(``PYTHONPATH=src python tests/test_artifacts.py > tests/fixtures/artifacts.json``)
and says why.  The figures hold on the environment the fixture records.
"""

import hashlib
import json
import platform
import sys
from pathlib import Path

import numpy as np

from tendonctl import cli

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = ROOT / "tests" / "fixtures" / "artifacts.json"


def environment():
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return (f"Python {platform.python_version()}, numpy {np.__version__}, "
            f"{blas['name']} {blas['version']}")


def run_pipeline(out):
    """{artifact: sha256} of the seed-0 pipeline run through ``cli.main``
    into ``out``, one directory per step.  A report that lists output paths
    is hashed by its metrics."""
    rollout = str(out / "collect" / "rollout.npz")
    steps = {
        "collect": ["collect"],
        "train-dynamics": ["train-dynamics", "--data", rollout],
        **{f"run-{name}": ["run", "--config", str(ROOT / "configs" / f"{name}.json")]
           for name in ("drive_events", "pedal")},
        **{f"experiment-{name}": ["experiment", name]
           for name in ("ekf", "online", "relax", "safety")},
    }
    hashes = {}
    for step, argv in steps.items():
        assert cli.main(argv + ["--out", str(out / step)]) == 0, step
        for path in sorted((out / step).iterdir()):
            data = path.read_bytes()
            if path.name == "report.json" and json.loads(data)["files"]:
                metrics = json.loads(data)["metrics"]
                data = json.dumps(metrics, sort_keys=True).encode()
            hashes[f"{step}/{path.name}"] = hashlib.sha256(data).hexdigest()
    return hashes


def test_seed_0_artifacts_match_the_fixture(tmp_path):
    fixture = json.loads(FIXTURE.read_text())
    hashes = run_pipeline(tmp_path)
    env = environment()
    assert env == fixture["environment"], (
        f"the fixture's hashes were taken on {fixture['environment']}; this is {env}")
    mismatched = [f"{name}: expected {fixture['artifacts'].get(name)}, got {digest}"
                  for name, digest in hashes.items() if fixture["artifacts"].get(name) != digest]
    missing = sorted(set(fixture["artifacts"]) - set(hashes))
    assert not mismatched and not missing, "\n".join(
        mismatched + [f"{name}: not written" for name in missing])


if __name__ == "__main__":   # print a fixture of this tree's artifacts
    import contextlib
    import tempfile
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(sys.stderr):
        artifacts = run_pipeline(Path(tmp))
    json.dump({"environment": environment(), "artifacts": artifacts}, sys.stdout, indent=2)
    print()
