"""The records of the acceptance studies, pinned in pinned_records.tsv.

The acceptance fixtures run the six studies of STUDIES, and
test_acceptance checks their records against the file: the sizes MN, M and
N exactly, the error and the per-temporal-element parts of ||e||^2 and
||d_t e||^2 to the study's tolerance. A change that moves a number on
purpose rewrites the file in the same commit,

    PYTHONPATH=src python tests/pinned.py

and says which values moved and why. Floats are written in hex, as
scripts/numbers.py writes them.
"""

from pathlib import Path

from spacetime_hp.cli import StudyConfig, run_study

FILE = Path(__file__).with_name("pinned_records.tsv")
FIELDS = ("study", "level", "MN", "M", "N", "error", "val_sq", "der_sq")

STUDIES = {
    # criteria 1 and 2
    "u1_uniform": StudyConfig(problem="u1", levels=7, temporal_scheme="uniform",
                              spatial_scheme="uniform", initial_elements=4),
    "u1_hp": StudyConfig(problem="u1", levels=6, temporal_scheme="hp", sigma=0.31, mu_hp=2.0,
                         m1_factor=1.4, spatial_scheme="uniform", initial_elements=16),
    # criterion 6
    "u2_graded_p": StudyConfig(problem="u2", temporal_scheme="p", spatial_scheme="graded"),
    "u2_uniform": StudyConfig(problem="u2", temporal_scheme="uniform", spatial_scheme="uniform"),
    # criterion 7
    "u3_hp_graded": StudyConfig(problem="u3", temporal_scheme="hp", sigma=0.17, mu_hp=1.0,
                                m1_factor=2.2, spatial_scheme="graded"),
    "u3_uniform_graded": StudyConfig(problem="u3", temporal_scheme="uniform", spatial_scheme="graded"),
}

# Ten times the largest move of the study's error or per-element parts under
# last-bit perturbations of the level's matrices, rounded up to a power of
# ten. Measured with three random 1-ulp perturbations each of A_ht and of
# M_cross: u1_uniform 6.6e-12, u1_hp 1.1e-8, u2_graded_p 1.2e-12, u2_uniform
# 7.6e-12, u3_hp_graded 1.0e-7 (its error 3.4e-8) and u3_uniform_graded
# 1.4e-13. Two BLAS threads instead of one move each study less. A load
# scaled by 1 + 1e-6 moves every study by 4.4e-6 or more.
TOLERANCE = {
    "u1_uniform": 1e-10,
    "u1_hp": 1e-7,
    "u2_graded_p": 1e-11,
    "u2_uniform": 1e-10,
    "u3_hp_graded": 1e-6,
    "u3_uniform_graded": 1e-12,
}


def _hex(values):
    return ",".join(float(v).hex() for v in values)


def write(studies):
    """Write the records of each study, one row per level."""
    rows = ["\t".join(FIELDS)]
    for name, records in studies.items():
        for level, r in enumerate(records):
            rows.append("\t".join([
                name, str(level), str(r.MN), str(r.M), str(r.N), r.error.hex(),
                _hex(r.val_sq_elements), _hex(r.der_sq_elements),
            ]))
    FILE.write_text("\n".join(rows) + "\n")


def read():
    """{study: [(MN, M, N), ...], [(error, val_sq, der_sq), ...]} of the file."""
    lines = FILE.read_text().splitlines()
    pinned = {}
    for line in lines[1:]:
        row = dict(zip(FIELDS, line.split("\t")))
        sizes, values = pinned.setdefault(row["study"], ([], []))
        sizes.append(tuple(int(row[f]) for f in ("MN", "M", "N")))
        values.append(tuple([float.fromhex(v) for v in row[f].split(",")] for f in FIELDS[5:]))
    return pinned


def largest_move(records, values):
    """The largest move (level, field, move) of a study's records from its
    pinned values: relative for the error, relative to the largest pinned
    element for the per-element parts."""
    moves = []
    for level, (r, pinned) in enumerate(zip(records, values)):
        for field, new, old in zip(FIELDS[5:], ([r.error], r.val_sq_elements, r.der_sq_elements), pinned):
            gap = max(abs(a - b) for a, b in zip(new, old)) if len(new) == len(old) else float("inf")
            moves.append((gap / max(abs(b) for b in old), level, field))
    move, level, field = max(moves)
    return level, field, move


if __name__ == "__main__":
    studies = {}
    for name, cfg in STUDIES.items():
        records, failures = run_study(cfg, log=lambda *a, **k: None)
        if failures:
            raise SystemExit(f"{name}: levels failed: {failures}")
        studies[name] = records
    write(studies)
    print(f"wrote {FILE}")
