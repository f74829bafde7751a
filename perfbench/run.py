"""tendonctl benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload drive_mpc --seed 0 --seconds 10 --trace 0

Run from the root of a checkout.  ``--trace 0`` measures the end-to-end
metrics with nothing but one timestamp per control tick; ``--trace 1``
makes the same run, then one more pass with spans around every layer, and
reports the per-layer metrics of that pass.  The last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}``; the line
before it and ``perfbench/out/`` hold the raw figures, the checks and the
environment.  See NOTES.md for what each workload and metric means.
"""

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import subprocess
import sys
import traceback
from pathlib import Path

BLAS_THREADS = 1   # fixed on every run so per-call costs compare across commits
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402  (after the thread count is fixed)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

UNITS = {"setup_s": "s", "tick_ms_p50": "ms",
         "err_main_ratio": "1", "err_aux_ratio": "1", "peak_rss_mb": "MB",
         "pass_frac": "1"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="loop time to measure per run; fixes the number of loop passes")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true",
                   help="shrunken inputs for the smoke test; not a benchmark run")
    p.add_argument("--corrupt", action="store_true",
                   help="spoil the main quality figure, to check that checks fail")
    return p.parse_args(argv)


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = done.stdout.strip() or None
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f'{blas.get("name")} {blas.get("version")}',
            "blas_threads": BLAS_THREADS, "blas_threads_seen": blas_threads_seen(),
            "nproc": len(os.sched_getaffinity(0)), "git_commit": commit,
            "src_lines": src_lines}


def blas_threads_seen():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line and "/" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def fastest_ticks(m):
    """Per kind of tick, each tick's fastest time over the run's passes, which
    all run the same ticks: it strips slow-downs other tenants of the machine
    cause."""
    first = m.ticks_s[0]
    return {k: np.min([p[k] for p in m.ticks_s if p[k].size == first[k].size], axis=0)
            for k in first}


def tick_ms_by_kind(m):
    return {k: float(np.median(t) * 1e3) for k, t in fastest_ticks(m).items()}


def ungated(m):
    """Loop figures too unsteady on a shared machine to gate (see NOTES.md)."""
    from tendonctl.harness import CTRL_DT

    ticks = np.concatenate(list(fastest_ticks(m).values()))
    return {"rtf": CTRL_DT / float(np.mean(ticks)),
            "tick_ms_p95": float(np.percentile(ticks, 95) * 1e3),
            "tick_ms_p99": float(np.percentile(ticks, 99) * 1e3),
            "tick_ms_p50_by_kind": tick_ms_by_kind(m)}


def end_to_end(m, ratios):
    attempted = len(m.checks)
    # geometric mean of the kinds' medians: slowing any one kind of tick by
    # a factor r moves it by r ** (1 / kinds), however cheap that kind is
    kind_ms = list(tick_ms_by_kind(m).values())
    return {"setup_s": float(np.median(m.setup_s)),
            "tick_ms_p50": float(np.exp(np.mean(np.log(kind_ms)))),
            "err_main_ratio": float(ratios[0]),
            "err_aux_ratio": float(ratios[1]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "pass_frac": (attempted - sum(not ok for _, ok in m.checks)) / attempted}


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "tendonctl" / "__init__.py").is_file():
        print(f"benchmark: no tendonctl sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import tracing
    from workloads import WORKLOADS, Measure

    if args.workload not in WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}_s{args.seed}_t{args.trace}"
    workload = WORKLOADS[args.workload](args.seed, ROOT, OUT, quick=args.quick)
    passes = max(1, math.ceil(args.seconds / workload.pass_s))

    untraced, traced = Measure(), Measure()
    tracer = tracing.Tracer()
    try:
        workload.measure(untraced, workload.setups, passes)
        if args.trace:
            with tracer:
                workload.measure(traced, 1, 1)
            tracer.write(OUT / f"spans_{tag}.csv.gz")
    except Exception:
        traceback.print_exc()
        untraced.check("workload_completed", False)
        print(json.dumps({"correct": False, "attempted": len(untraced.checks) + len(traced.checks),
                          "failed": sum(not ok for m in (untraced, traced) for _, ok in m.checks),
                          "metrics": {}}))
        return 1

    if args.corrupt:
        key = next(iter(untraced.figures))
        untraced.figures[key] = math.nan
    ratios = workload.judge(untraced)
    if args.trace:
        workload.judge(traced)
        traced.check("traced_figures_match_untraced", traced.figures == untraced.figures)
    values = list(untraced.figures.values()) + list(ratios) + untraced.setup_s \
        + untraced.loop_s + traced.setup_s + traced.loop_s
    untraced.check("values_finite", all(math.isfinite(v) for v in values))
    checks = untraced.checks + traced.checks
    failed = sum(not ok for _, ok in checks)

    e2e = end_to_end(untraced, ratios)
    if args.trace:
        reported = tracer.layer_metrics()
        wall_per_sim = np.median(np.asarray(untraced.loop_s) / np.asarray(untraced.sim_s))
        reported["trace_overhead"] = sum(traced.loop_s) / sum(traced.sim_s) / float(wall_per_sim)
        units = {k: tracing.unit_of(k) for k in reported}
    else:
        reported, units = e2e, UNITS
    # a value that is not finite has already failed "values_finite"
    metrics = {k: {"value": v if math.isfinite(v) else None, "unit": units[k]}
               for k, v in reported.items()}

    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "environment": environment(),
              "figures": untraced.figures, "end_to_end": e2e,
              "ungated": ungated(untraced),
              "checks": [[name, ok] for name, ok in checks],
              "samples": {"setups": len(untraced.setup_s), "loop_passes": len(untraced.loop_s),
                          "ticks_per_pass": {k: v.size for k, v in untraced.ticks_s[0].items()}}}
    with open(OUT / f"result_{tag}.json", "w") as fh:
        json.dump({"detail": detail, "metrics": metrics}, fh, indent=1)
    print(json.dumps(detail))
    print(json.dumps({"correct": failed == 0, "attempted": len(checks), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
