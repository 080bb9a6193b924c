#!/usr/bin/env python3
"""Record the numbers of the shipped studies, and compare two records.

    python scripts/numbers.py OUTDIR
    python scripts/numbers.py --compare A B

The first form runs every shipped config at levels 0-2, and the two u1
configs at their default levels, with 1 BLAS thread. It writes OUTDIR/<config>.tsv
with one row per level: level, MN, M, N, the error, the solver residual and
the per-temporal-element parts of ||e||^2 and ||d_t e||^2 (comma-separated).
Every float is written in hex, so two records compare bit for bit. A level
that fails is reported on stderr and the exit code is 2.

The compare form reads two such directories and prints, per config and
field, the largest move or `bit-identical`; a config with no level rows gets
one line. Scalars move by |b - a| / |a|, except the residual: it is relative
already, so it moves by |b - a|. A per-element field moves by max |b - a|
over its elements, relative to its largest element in A. It
exits 1 when the two records do not describe the same runs: a config is in
one directory only, a config has a different number of levels, or MN, M or
N differ at some level. Float moves alone leave the exit code 0.
"""

import os
import sys
from dataclasses import replace
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
HERE = Path(__file__).resolve().parent
# this file's name shadows the standard library's `numbers`, which numpy imports;
# the package comes from this checkout's src, ahead of any installed copy
sys.path[:] = [str(HERE.parent / "src")] + [p for p in sys.path if Path(p or ".").resolve() != HERE]

from spacetime_hp.cli import parse_config, run_study  # noqa: E402

CONFIGS = sorted(HERE.glob("*.cfg"))
LEVELS = 3  # levels 0-2; the u1 configs run at their own level count
FIELDS = ("level", "MN", "M", "N", "error", "residual", "val_sq", "der_sq")


def _hex(values):
    return ",".join(float(v).hex() for v in values)


def record(outdir):
    outdir.mkdir(parents=True, exist_ok=True)
    failed = 0
    for path in CONFIGS:
        cfg = parse_config(path.read_text())
        levels = cfg.levels if cfg.problem == "u1" else LEVELS
        records, failures = run_study(replace(cfg, levels=levels, out=None), log=lambda _: None)
        rows = ["\t".join(FIELDS)]
        for level, r in enumerate(records):
            rows.append("\t".join([
                str(level), str(r.MN), str(r.M), str(r.N), r.error.hex(), r.residual.hex(),
                _hex(r.val_sq_elements), _hex(r.der_sq_elements),
            ]))
        (outdir / f"{path.stem}.tsv").write_text("\n".join(rows) + "\n")
        for level, reason in failures:
            print(f"{path.stem} level {level} failed: {reason}", file=sys.stderr)
        failed += len(failures)
        print(f"{path.stem}: {len(records)} levels", flush=True)
    return 2 if failed else 0


def _read(path):
    lines = path.read_text().splitlines()
    return [dict(zip(lines[0].split("\t"), line.split("\t"))) for line in lines[1:]]


def _move(a, b, absolute):
    """Largest move from field value a to b (both as written): absolute, or
    relative to the largest value of a."""
    if "." not in a and "x" not in a:  # integer fields
        return 0.0 if a == b else float("inf")
    x = [float.fromhex(v) for v in a.split(",")]
    y = [float.fromhex(v) for v in b.split(",")]
    if len(x) != len(y):
        return float("inf")
    scale = 1.0 if absolute else max(abs(v) for v in x)
    if scale == 0.0:
        return 0.0 if x == y else float("inf")
    return max(abs(v - w) for v, w in zip(x, y)) / scale


def compare(dir_a, dir_b):
    """Print the moves from record A to record B; 1 if they differ in their
    configs, level counts or sizes, else 0."""
    differ = False
    for name in sorted({p.name for p in dir_a.glob("*.tsv")} | {p.name for p in dir_b.glob("*.tsv")}):
        stem, path, other = Path(name).stem, dir_a / name, dir_b / name
        if not (path.exists() and other.exists()):
            print(f"{stem}: missing in {dir_b if path.exists() else dir_a}")
            differ = True
            continue
        rows_a, rows_b = _read(path), _read(other)
        if len(rows_a) != len(rows_b):
            print(f"{stem}: {len(rows_a)} levels against {len(rows_b)}")
            differ = True
        elif not rows_a:  # every level failed in both runs
            print(f"{stem}: no level rows")
        if not (rows_a and rows_b):
            continue
        for field in FIELDS[1:]:
            moves = [
                (_move(ra[field], rb[field], field == "residual"), ra["level"]) for ra, rb in zip(rows_a, rows_b)
            ]
            worst, level = max(moves)
            text = "bit-identical" if worst == 0.0 else f"{worst:.1e} (level {level})"
            print(f"{stem:24s} {field:9s} {text}")
            differ |= field in ("MN", "M", "N") and worst != 0.0
    return 1 if differ else 0


if __name__ == "__main__":
    args = sys.argv[1:]
    if len(args) == 3 and args[0] == "--compare":
        sys.exit(compare(Path(args[1]), Path(args[2])))
    elif len(args) == 1 and not args[0].startswith("-"):
        sys.exit(record(Path(args[0])))
    else:
        sys.exit(__doc__)
