#!/usr/bin/env python3
"""Run every shipped study config; writes tables and plot data under
results/. The full set at the default levels takes 15-18 s with 1 BLAS
thread on a 2-core x86-64 host (two runs), of which the two u1 studies take
0.2-0.3 s each and u3_hp_graded.cfg 4-5 s."""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
# this directory's numbers.py would shadow the standard library's `numbers`, which
# numpy imports; the package comes from this checkout's src, ahead of any installed copy
sys.path[:] = [str(HERE.parent / "src")] + [p for p in sys.path if Path(p or ".").resolve() != HERE]

from spacetime_hp.cli import main  # noqa: E402

CONFIGS = sorted(HERE.glob("*.cfg"))

if __name__ == "__main__":
    failures = 0
    for cfg in CONFIGS:
        print(f"=== {cfg.name} ===")
        t0 = time.time()
        rc = main([str(cfg)])
        print(f"--- {cfg.name}: exit {rc} ({time.time() - t0:.1f}s)\n")
        failures += rc != 0
    sys.exit(2 if failures else 0)
