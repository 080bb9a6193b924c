"""One round of the study benchmark, in a process of its own: import the
program, parse a study config and run its sweep through
`spacetime_hp.cli.run_study`. Prints one JSON line with the round's timings,
records, solver residuals and peak memory; with --trace, also the per-layer
self times and counts, and writes the spans to SPANS_FILE.

    python3 studybench/study_round.py CONFIG LEVELS --spawned-at T [--trace SPANS_FILE] [--setup-only]

T is the parent's time.monotonic() just before it started this process, so
that set-up time counts interpreter start, imports and config parsing.
"""

import argparse
import json
import resource
import sys
import time
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from tracing import ROOT_LAYER, TIME_METRICS, Recorder, replace_everywhere  # noqa: E402


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("config")
    ap.add_argument("levels", type=int)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--trace", metavar="SPANS_FILE")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    from spacetime_hp import cli

    cfg = replace(cli.parse_config((ROOT / args.config).read_text()), levels=args.levels, out=None)

    residuals = []
    solve_heat = getattr(cli, "solve_heat", None)

    def keep_residual(*a, **k):
        sol = solve_heat(*a, **k)
        residuals.append(float(sol.residual))
        return sol

    if solve_heat is not None:
        replace_everywhere(solve_heat, keep_residual)
    recorder = None
    run_study = cli.run_study
    if args.trace:
        recorder = Recorder()
        recorder.install()
        run_study = recorder.wrap(ROOT_LAYER, "cli.run_study", run_study)

    stamps = []

    def log(message):
        stamps.append(time.perf_counter())
        if recorder is not None:
            recorder.level += 1

    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return
    start = time.perf_counter()
    records, failures = run_study(cfg, log=log)
    study_s = time.perf_counter() - start

    out = {
        "setup_s": setup_s,
        "study_s": study_s,
        "level_s": [b - a for a, b in zip([start] + stamps, stamps)],
        "records": [{"MN": r.MN, "M": r.M, "N": r.N, "error": r.error} for r in records],
        "failures": [[level, reason] for level, reason in failures],
        "residuals": residuals,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if recorder is not None:
        total, by_level = recorder.self_times()
        out["self_s"] = {layer: total.get(layer, 0.0) for layer in TIME_METRICS}
        out["level_wrapped_s"] = [
            sum(s for layer, s in by_level[level].items() if layer != ROOT_LAYER)
            for level in range(len(out["level_s"]))
        ]
        out["counts"] = dict(recorder.counts)
        out["absent"] = recorder.absent
        Path(args.trace).write_text(
            json.dumps({"fields": ["name", "start", "end", "parent", "level"], "spans": recorder.spans})
        )
    print(json.dumps(out))


if __name__ == "__main__":
    main()
