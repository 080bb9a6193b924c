#!/usr/bin/env python3
"""Run every shipped study config; writes tables and plot data under
results/. The full set at the default levels takes one to two minutes with
1 BLAS thread on a 2-core x86-64 host: 85 s measured, of which the two u1
studies take under 0.5 s each."""

import sys
import time
from pathlib import Path

from spacetime_hp.cli import main

CONFIGS = sorted(Path(__file__).parent.glob("*.cfg"))

if __name__ == "__main__":
    failures = 0
    for cfg in CONFIGS:
        print(f"=== {cfg.name} ===")
        t0 = time.time()
        rc = main([str(cfg)])
        print(f"--- {cfg.name}: exit {rc} ({time.time() - t0:.0f}s)\n")
        failures += rc != 0
    sys.exit(2 if failures else 0)
