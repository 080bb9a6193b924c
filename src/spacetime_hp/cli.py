"""Convergence-study runner.

Reads an INI-style config describing a manufactured problem, a temporal
scheme (uniform low order, p-refinement on a fixed mesh, or geometric hp) and
a spatial scheme (uniform or corner-graded refinement), runs a sweep of
levels, and writes a study table plus two-column (MN, error) plot data.

Exit codes: 0 full success, 2 partial failure (some level skipped or failed),
1 config error.
"""

import argparse
import configparser
import sys
import time
from dataclasses import dataclass, replace
from math import floor, isfinite, log
from pathlib import Path

import numpy as np

from .hilbert import assemble
from .metrics import StudyRecord, emit_records, eoc, functional_from_parts, l2q_error_element_parts
from .problems import PROBLEMS, get_problem
from .solver import solve_heat
from .spatial_fem import (
    assemble_spatial,
    export_mesh,
    lshape_mesh,
    refine_graded,
    uniform_interval_mesh,
)
from .temporal_hp import TemporalMeshSpec, build_mesh, make_basis, uniform_mesh

MEMORY_GUARD = 20_000_000
# relative residual ||B u - G|| / ||G|| above which a level counts as failed
RESIDUAL_GATE = 1e-8
# temporal elements of the uniform scheme at level 0 and of the p scheme's fixed mesh
TEMPORAL_ELEMENTS = 4
# degree of the uniform temporal scheme: the P1 baseline the hp and p schemes are compared with
UNIFORM_DEGREE = 1
# uniform hp tail elements on (1, T): one suffices, as every problem has T = 2
TAIL_ELEMENTS = 1
# bisection rounds of the coarse L-shape before level 0 (h_x = sqrt(2)/4)
LSHAPE_LEVELS = 2
# corner grading of the graded spatial scheme: h ~ h_x r^(1 - beta) within r < GRADING_RADIUS
GRADING_BETA = 0.6
GRADING_RADIUS = 0.25


class ConfigError(Exception):
    pass


# (section, key) -> (StudyConfig field, type, lower bound or None); a bound
# is (value, bound allowed); absent keys keep the field default
_KEYS = {
    ("study", "problem"): ("problem", str, None),
    ("study", "levels"): ("levels", int, (1, True)),
    ("study", "out"): ("out", str, None),
    ("temporal", "scheme"): ("temporal_scheme", str, None),
    ("temporal", "sigma"): ("sigma", float, None),
    ("temporal", "mu_hp"): ("mu_hp", float, (1.0, True)),
    ("temporal", "m1_factor"): ("m1_factor", float, (0.0, False)),
    ("spatial", "scheme"): ("spatial_scheme", str, None),
    ("spatial", "initial_elements"): ("initial_elements", int, (2, True)),
    ("spatial", "export_meshes"): ("export_meshes", bool, None),
}


@dataclass(frozen=True)
class StudyConfig:
    problem: str
    levels: int = 4
    out: str | None = None
    temporal_scheme: str = "uniform"
    sigma: float = 0.31
    mu_hp: float = 2.0
    m1_factor: float = 1.4
    spatial_scheme: str = "uniform"
    initial_elements: int = 4
    export_meshes: bool = False

    def __post_init__(self):
        if self.problem not in PROBLEMS:
            raise ConfigError(
                f"[study] problem: unknown problem {self.problem!r}; choose from {sorted(PROBLEMS)}"
            )
        for (section, key), (name, cast, lower) in _KEYS.items():
            value = getattr(self, name)
            if cast is float and not isfinite(value):
                raise ConfigError(f"[{section}] {key}: must be finite, got {value}")
            if lower is None:
                continue
            bound, inclusive = lower
            if not (value >= bound if inclusive else value > bound):
                raise ConfigError(
                    f"[{section}] {key}: must be {'>=' if inclusive else '>'} {bound}, got {value}"
                )
        if self.temporal_scheme not in ("uniform", "p", "hp"):
            raise ConfigError(
                f"[temporal] scheme: unknown scheme {self.temporal_scheme!r} (uniform|p|hp)"
            )
        if self.temporal_scheme == "hp" and not 0.0 < self.sigma < 1.0:
            raise ConfigError(
                f"[temporal] sigma: grading parameter must satisfy sigma in (0,1), got {self.sigma}"
            )
        if self.spatial_scheme not in ("uniform", "graded"):
            raise ConfigError(
                f"[spatial] scheme: unknown scheme {self.spatial_scheme!r} (uniform|graded)"
            )
        if self.spatial_scheme == "graded" and get_problem(self.problem).dimension == 1:
            raise ConfigError("[spatial] scheme: graded meshes need a 2D problem; use uniform")


def _cast(section, key, raw, cast):
    try:
        if cast is bool:
            return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
        return cast(raw)
    except (KeyError, ValueError):
        raise ConfigError(f"[{section}] {key}: cannot parse {raw!r} as {cast.__name__}") from None


def parse_config(text) -> StudyConfig:
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from None
    fields = {}
    for section in parser.sections():
        for key, raw in parser.items(section):
            if (section, key) not in _KEYS:
                raise ConfigError(f"[{section}] {key}: unknown key")
            name, cast, _ = _KEYS[section, key]
            fields[name] = _cast(section, key, raw, cast)
    if "problem" not in fields:
        raise ConfigError("[study] problem: required field missing")
    cfg = StudyConfig(**fields)
    # a key the run would not read is an error, not a silent no-op
    if "initial_elements" in fields and get_problem(cfg.problem).dimension != 1:
        raise ConfigError(
            "[spatial] initial_elements: needs a 1D problem; "
            f"{cfg.problem}'s meshes start from the coarse L-shape"
        )
    for key in ("sigma", "mu_hp", "m1_factor"):
        if key in fields and cfg.temporal_scheme != "hp":
            raise ConfigError(
                f"[temporal] {key}: needs scheme = hp, got scheme = {cfg.temporal_scheme}"
            )
    return cfg


def _spatial_for_level(cfg: StudyConfig, prob, level):
    if prob.dimension == 1:
        n = cfg.initial_elements * 2**level
        return uniform_interval_mesh((0.0, 1.0), n)
    # beta = 1 is uniform refinement: the coarse triangles are congruent, so each round bisects all
    beta = 1.0 if cfg.spatial_scheme == "uniform" else GRADING_BETA
    return refine_graded(lshape_mesh(), np.sqrt(2.0) * 0.5 ** (LSHAPE_LEVELS + level), beta, GRADING_RADIUS)


def _temporal_for_level(cfg: StudyConfig, prob, level, N):
    T = prob.T
    if cfg.temporal_scheme == "uniform":
        return uniform_mesh(T, TEMPORAL_ELEMENTS * 2**level, UNIFORM_DEGREE)
    if cfg.temporal_scheme == "p":
        return uniform_mesh(T, TEMPORAL_ELEMENTS, max(1, floor(log(N) / 2.0)))
    m1 = floor(cfg.m1_factor * log(N))
    if m1 < 3:
        raise ValueError(
            f"temporal hp rule gives m1 = {m1} < 3 at N = {N}; start from a finer spatial level"
        )
    spec = TemporalMeshSpec(T=T, sigma=cfg.sigma, mu_hp=cfg.mu_hp, m1=m1, m2=TAIL_ELEMENTS)
    return build_mesh(spec)


def emit_table(records):
    """Fixed-width study table with the usual column set."""
    header = f"{'MN':>10}  {'h_x':>9}  {'k_max':>9}  {'error':>11}  {'eoc':>6}"
    lines = [header]
    for rec, rate in zip(records, eoc(records)):
        rate_s = "-" if rate is None else f"{rate:.2f}"
        lines.append(
            f"{rec.MN:>10}  {rec.h_x:>9.5f}  {rec.k_max:>9.5f}  {rec.error:>11.3e}  {rate_s:>6}"
        )
    return "\n".join(lines) + "\n"


def run_study(cfg: StudyConfig, log=print):
    """Execute the configured refinement sweep; returns (records, failures).

    A failing level is recorded with its reason and the sweep continues;
    completed levels are kept.
    """
    prob = get_problem(cfg.problem)
    records = []
    failures = []
    for level in range(cfg.levels):
        t0 = time.perf_counter()
        try:
            mesh_x = _spatial_for_level(cfg, prob, level)
            sx = assemble_spatial(mesh_x)
            if sx.N < 1:
                raise ValueError("no interior degrees of freedom at this level")
            mesh_t = _temporal_for_level(cfg, prob, level, sx.N)
            M = mesh_t.num_dofs
            MN = M * sx.N
            if MN > MEMORY_GUARD:
                raise MemoryError(f"level exceeds the memory guard: MN = {MN} > {MEMORY_GUARD}")
            basis = make_basis(mesh_t)
            tm = assemble(basis)
            sol = solve_heat(prob, basis, tm, sx)
            if not sol.residual <= RESIDUAL_GATE:  # a NaN residual fails too
                raise ArithmeticError(f"solver residual {sol.residual:.1e} > {RESIDUAL_GATE:g}")
            val_sq, der_sq = l2q_error_element_parts(sol, prob)
            err = functional_from_parts(val_sq.sum(), der_sq.sum())
            rec = StudyRecord(
                MN=MN,
                M=M,
                N=sx.N,
                h_x=mesh_x.h_x,
                k_max=mesh_t.k_max,
                error=err,
                wall_time=time.perf_counter() - t0,
                residual=sol.residual,
                val_sq_elements=tuple(val_sq.tolist()),
                der_sq_elements=tuple(der_sq.tolist()),
            )
            if cfg.export_meshes and cfg.out:
                out = Path(cfg.out)
                out.mkdir(parents=True, exist_ok=True)
                export_mesh(mesh_x, out / f"mesh_level{level}.txt")
            records.append(rec)
            log(
                f"level {level}: MN={MN} (M={M}, N={sx.N}) error={err:.3e} "
                f"[{rec.wall_time:.1f}s]"
            )
        except Exception as exc:  # keep completed levels, record the reason
            failures.append((level, f"{type(exc).__name__}: {exc}"))
            log(f"level {level}: SKIPPED ({type(exc).__name__}: {exc})")
    return records, failures


def write_outputs(cfg: StudyConfig, records):
    if not cfg.out:
        return
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "table.txt").write_text(emit_table(records))
    series = "".join(f"{r.MN} {r.error:.12e}\n" for r in records)
    (out / "series.dat").write_text(series)
    (out / "records.tsv").write_text(emit_records(records))


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="spacetime-hp",
        description="Run a space-time convergence study from a config file.",
    )
    ap.add_argument("config", help="path to the study config")
    ap.add_argument("--levels", type=int, default=None, help="override the level count")
    ap.add_argument("--out", default=None, help="override the output directory")
    args = ap.parse_args(argv)
    try:
        cfg = parse_config(Path(args.config).read_text())
        if args.levels is not None:
            cfg = replace(cfg, levels=args.levels)
        if args.out is not None:
            cfg = replace(cfg, out=args.out)
        if cfg.out:
            Path(cfg.out).mkdir(parents=True, exist_ok=True)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    records, failures = run_study(cfg)
    print(emit_table(records), end="")
    write_outputs(cfg, records)
    if failures:
        for level, reason in failures:
            print(f"level {level} failed: {reason}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
