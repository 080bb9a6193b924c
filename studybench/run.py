"""Study benchmark: runs the convergence sweep of one shipped study config
through `spacetime_hp.cli.run_study`, checks its outputs, and prints the
end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).

    python3 studybench/run.py --workload u1-uniform --seed 1 --seconds 30 --trace 0

Each round runs the whole sweep in a fresh process (study_round.py). Rounds
repeat while the next one is expected to end within --seconds; there is
always at least one. With --trace 1 every round is a pair: an untraced sweep
and a traced one, whose difference is the tracing overhead. --seed chooses
the points and times of the manufactured-data check, which runs before the
rounds, outside the timed region.

The last line of standard output is one JSON object with the keys correct,
attempted and failed (counted in study levels) and metrics.
"""

import os

# fixed for this process and every round process it starts (at most nproc)
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable  # noqa: E402

import checks  # noqa: E402
from tracing import COUNT_METRICS, TIME_METRICS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".studybench"  # span files of traced rounds
SETUP_SAMPLES = 5
ROUND_TIMEOUT_S = 150


@dataclass(frozen=True)
class Workload:
    config: str
    levels: int  # the sweep runs levels 0 .. levels - 1
    check: Callable


# finest levels sized so that a sweep takes 5-15 s on 2 cores
WORKLOADS = {
    "u1-uniform": Workload("scripts/u1_uniform.cfg", 6, checks.u1_uniform),
    "u1-hp": Workload("scripts/u1_hp.cfg", 7, checks.u1_hp),
    "u3-hp": Workload("scripts/u3_hp_graded.cfg", 2, checks.u3_hp),
}


def run_round(workload, spans=None, setup_only=False):
    """One sweep (or, with setup_only, its set-up alone) in a fresh process;
    traced when spans names the file for its spans."""
    cmd = [sys.executable, str(HERE / "study_round.py"), workload.config, str(workload.levels)]
    if spans is not None:
        cmd += ["--trace", str(spans)]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=ROUND_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"round process exited with code {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(workload, rounds):
    setups = [r["setup_s"] for r in rounds]
    while len(setups) < SETUP_SAMPLES:
        setups.append(run_round(workload, setup_only=True)["setup_s"])
    return {
        "setup_s": metric(statistics.median(setups), "s"),
        "study_s": metric(statistics.median(r["study_s"] for r in rounds), "s"),
        "finest_mn_per_s": metric(
            statistics.median(r["records"][-1]["MN"] / r["level_s"][-1] for r in rounds), "1/s"
        ),
        "peak_rss_mb": metric(statistics.median(r["peak_rss_mb"] for r in rounds), "MB"),
    }


def per_layer(plain, traced, faults):
    counts = traced[0]["counts"]
    for rnd in traced[1:]:
        if rnd["counts"] != counts:
            faults.append(f"counts differ between traced rounds: {counts} and {rnd['counts']}")
    coverage = [w / s for w, s in zip(traced[0]["level_wrapped_s"], traced[0]["level_s"])]
    print("share of each traced level in wrapped calls: " + ", ".join(f"{c:.3f}" for c in coverage))
    absent = sorted({name for rnd in traced for name in rnd["absent"]})
    print("absent layers (reported as 0): " + (", ".join(absent) if absent else "none"))
    metrics = {}
    for layer in TIME_METRICS:
        name = f"{layer}_s"
        metrics[name] = metric(statistics.median(r["self_s"][layer] for r in traced), "s")
    for name in COUNT_METRICS:
        metrics[name] = metric(counts.get(name, 0), "count")
    overhead = statistics.median(r["study_s"] for r in traced) - statistics.median(r["study_s"] for r in plain)
    metrics["trace.overhead_s"] = metric(overhead, "s")
    metrics["trace.level_coverage_min"] = metric(min(coverage), "ratio")
    return metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    workload = WORKLOADS[args.workload]
    if not (ROOT / "src" / "spacetime_hp" / "cli.py").is_file() or not (ROOT / workload.config).is_file():
        sys.exit(f"studybench: {ROOT} holds no src/spacetime_hp or no {workload.config}")
    sys.path.insert(0, str(ROOT / "src"))
    from spacetime_hp.cli import parse_config
    from spacetime_hp.problems import get_problem

    problem = parse_config((ROOT / workload.config).read_text()).problem
    print(f"workload {args.workload}: {workload.config}, levels 0-{workload.levels - 1}; BLAS threads {BLAS_THREADS}")
    faults = []
    pde, ddt = checks.data_check(get_problem(problem), args.seed)
    tol = checks.DATA_TOLERANCE[problem]
    print(f"data check, seed {args.seed}: d_t u - Laplace u = g to {pde:.1e}, d_t u = du_dt_exact to {ddt:.1e} (tolerance {tol:.0e})")
    if not (pde <= tol and ddt <= tol):
        faults.append(f"manufactured data inconsistent: {pde:.1e}, {ddt:.1e} > {tol:.0e}")

    OUT_DIR.mkdir(exist_ok=True)
    plain, traced = [], []
    deadline = time.monotonic() + args.seconds
    while True:
        began = time.monotonic()
        plain.append(run_round(workload))
        if args.trace:
            spans = OUT_DIR / f"{args.workload}-seed{args.seed}-round{len(traced)}.spans.json"
            traced.append(run_round(workload, spans=spans))
        now = time.monotonic()
        if now + (now - began) > deadline:
            break
    rounds = plain + traced
    for rnd in rounds:
        faults += checks.study_round(rnd, workload.levels, workload.check)
    last = plain[-1]
    for level, (rec, res, secs) in enumerate(zip(last["records"], last["residuals"], last["level_s"])):
        print(f"level {level}: MN={rec['MN']} (M={rec['M']}, N={rec['N']}) error={rec['error']:.4e} residual={res:.1e} [{secs:.2f} s]")

    metrics = per_layer(plain, traced, faults) if args.trace else end_to_end(workload, plain)
    for fault in faults:
        print(f"CHECK FAILED: {fault}")
    attempted = workload.levels * len(rounds)
    failed = sum(len(r["failures"]) for r in rounds)
    print(f"rounds {len(plain)} untraced, {len(traced)} traced; levels attempted {attempted}, failed {failed}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not faults, "attempted": attempted, "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
