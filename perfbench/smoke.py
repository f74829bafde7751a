"""Smoke test of the benchmark itself (not part of the repository's test suite).

    python3 perfbench/smoke.py

For every workload, a short run on shrunken inputs must print every metric
that BENCHMARK.json names, with its unit, both untraced and traced.  A run
with a deliberately spoiled output must fail more checks than the same run
without it.  Without the program's sources the benchmark must exit non-zero
and print no result.  Exits 0 when all of this holds.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace, *extra, cwd=ROOT):
    cmd = [*SPEC["command"], "--workload", workload, "--seed", "1",
           "--seconds", "0.5", "--trace", str(trace), "--quick", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def result(done):
    if done.returncode != 0:
        raise AssertionError(f"exit {done.returncode}:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main():
    problems = []
    for w in SPEC["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            res = result(run(w["name"], trace))
            for spec in SPEC[key]:
                got = res["metrics"].get(spec["name"])
                if got is None or got.get("unit") != spec["unit"] \
                        or not isinstance(got.get("value"), (int, float)):
                    problems.append(f'{w["name"]} trace={trace}: {spec["name"]} -> {got}')
            extra = set(res["metrics"]) - {s["name"] for s in SPEC[key]}
            if extra:
                problems.append(f'{w["name"]} trace={trace}: unnamed metrics {sorted(extra)}')
            print(f'{w["name"]} trace={trace}: {len(res["metrics"])} metrics, '
                  f'failed {res["failed"]}/{res["attempted"]}')

    name = SPEC["workloads"][0]["name"]
    clean, spoiled = result(run(name, 0)), result(run(name, 0, "--corrupt"))
    if not spoiled["failed"] > clean["failed"] or spoiled["correct"]:
        problems.append(f"spoiled output not caught: {clean['failed']} -> {spoiled['failed']}")
    print(f"{name} --corrupt: failed {clean['failed']} -> {spoiled['failed']}")

    with tempfile.TemporaryDirectory() as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for p in SPEC["paths"]:
            shutil.copytree(ROOT / p, Path(bare) / p, ignore=shutil.ignore_patterns("out"))
        done = run(name, 0, cwd=bare)
        if done.returncode == 0 or done.stdout.strip():
            problems.append(f"run without sources: exit {done.returncode}, stdout {done.stdout!r}")
        print(f"without sources: exit {done.returncode}")

    for p in problems:
        print("PROBLEM:", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
