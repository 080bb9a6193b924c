import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from spacetime_hp.cli import (
    ConfigError,
    StudyConfig,
    _spatial_for_level,
    _temporal_for_level,
    emit_table,
    main,
    parse_config,
    run_study,
    write_outputs,
)
from spacetime_hp.metrics import StudyRecord, functional_from_parts
from spacetime_hp.problems import get_problem, problem_u3
from spacetime_hp.spatial_fem import assemble_spatial, lshape_mesh

from oracles import custom_problem, refine_uniform

U1_SMALL = """
[study]
problem = u1
levels = 2

[temporal]
scheme = uniform

[spatial]
scheme = uniform
initial_elements = 4
"""


def test_parse_roundtrip_normalized():
    cfg = parse_config(U1_SMALL)
    assert cfg.problem == "u1"
    assert cfg.levels == 2
    # absent keys take the StudyConfig defaults
    assert cfg == StudyConfig(problem="u1", levels=2, initial_elements=4)


def test_parse_booleans():
    for raw, value in [("true", True), ("Yes", True), ("on", True), ("0", False), ("off", False)]:
        assert parse_config(U1_SMALL + f"export_meshes = {raw}\n").export_meshes is value
    with pytest.raises(ConfigError) as err:
        parse_config(U1_SMALL + "export_meshes = ture\n")
    assert str(err.value) == "[spatial] export_meshes: cannot parse 'ture' as bool"


def test_parse_requires_problem():
    with pytest.raises(ConfigError, match="problem"):
        parse_config("[study]\nlevels = 2\n")


def test_parse_rejects_bad_sigma():
    bad = U1_SMALL.replace("[temporal]\nscheme = uniform", "[temporal]\nscheme = hp\nsigma = 1.2")
    with pytest.raises(ConfigError, match=r"sigma in \(0,1\)"):
        parse_config(bad)


def test_parse_rejects_unknown_problem():
    with pytest.raises(ConfigError, match="unknown problem"):
        parse_config(U1_SMALL.replace("problem = u1", "problem = u9"))


def test_constructed_config_rejects_infinite_floats():
    # a config built in code, not parsed, gets the same finiteness check
    with pytest.raises(ConfigError, match=r"\[temporal\] mu_hp: must be finite"):
        StudyConfig(problem="u1", levels=1, temporal_scheme="hp", mu_hp=float("inf"), initial_elements=64)


def test_parse_rejects_bad_numbers():
    with pytest.raises(ConfigError, match="levels"):
        parse_config(U1_SMALL.replace("levels = 2", "levels = two"))


@pytest.mark.parametrize("line", ["levles = 9", "strategy = dense"])
def test_parse_rejects_unknown_keys(line):
    with pytest.raises(ConfigError, match=rf"\[study\] {line.split()[0]}: unknown key"):
        parse_config(U1_SMALL.replace("levels = 2\n", f"levels = 2\n{line}\n"))
    with pytest.raises(ConfigError, match=rf"\[solver\] {line.split()[0]}: unknown key"):
        parse_config(U1_SMALL + f"\n[solver]\n{line}\n")


def test_run_study_produces_monotone_records():
    cfg = parse_config(U1_SMALL)
    records, failures = run_study(cfg, log=lambda *a, **k: None)
    assert failures == []
    assert len(records) == 2
    assert records[0].MN == 12 and records[1].MN == 56
    assert records[1].error < records[0].error
    assert records[0].error == pytest.approx(7.33e-2, rel=0.01)
    for r in records:  # p = 1: one temporal element per DOF
        assert len(r.val_sq_elements) == len(r.der_sq_elements) == r.M
        parts = functional_from_parts(sum(r.val_sq_elements), sum(r.der_sq_elements))
        assert parts == pytest.approx(r.error, rel=1e-12)


def test_run_study_partial_failure_isolation():
    # hp rule yields m1 < 3 on the coarsest level: that level is skipped,
    # later levels still run
    text = U1_SMALL.replace(
        "[temporal]\nscheme = uniform",
        "[temporal]\nscheme = hp\nsigma = 0.31\nmu_hp = 2.0\nm1_factor = 1.4",
    ).replace("levels = 2", "levels = 3")
    cfg = parse_config(text)
    records, failures = run_study(cfg, log=lambda *a, **k: None)
    assert [lvl for lvl, _ in failures] == [0, 1]
    assert all("m1" in reason for _, reason in failures)
    assert len(records) == 1


def test_emit_table_formatting():
    assert emit_table([]).count("\n") == 1
    recs = [StudyRecord(MN=12, M=4, N=3, h_x=0.25, k_max=0.5, error=7.33e-2)]
    table = emit_table(recs)
    lines = table.strip().split("\n")
    assert len(lines) == 2
    assert "7.330e-02" in lines[1]
    assert lines[1].split()[-1] == "-"
    assert "0.25000" in lines[1]


def test_main_exit_codes(tmp_path, capsys):
    cfg_path = tmp_path / "study.cfg"
    cfg_path.write_text(U1_SMALL)
    assert main([str(cfg_path), "--levels", "1", "--out", str(tmp_path / "out")]) == 0
    bad = tmp_path / "bad.cfg"
    bad.write_text(U1_SMALL.replace("problem = u1", "problem = zzz"))
    assert main([str(bad)]) == 1
    assert main([str(tmp_path / "missing.cfg")]) == 1
    utf16 = tmp_path / "utf16.cfg"  # starts with the bytes ff fe, not UTF-8
    utf16.write_bytes(U1_SMALL.encode("utf-16"))
    capsys.readouterr()
    assert main([str(utf16)]) == 1
    assert capsys.readouterr().err.startswith("config error: 'utf-8' codec can't decode byte 0xff")
    # usage errors exit 1 like config errors, with the usage on stderr; 2 is partial failure
    for argv in ([str(cfg_path), "--levels", "abc"], []):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("usage: spacetime-hp") and captured.out == ""
    assert main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: spacetime-hp")


# keys of values that are constants of cli (TEMPORAL_ELEMENTS and the rest):
# setting one is an unknown key, whatever the value
FIXED_KEYS = {"p", "m0", "m", "m2", "initial_level", "beta", "radius"}


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("temporal", "mu_hp", "nan"),
        ("temporal", "mu_hp", "inf"),
        ("temporal", "p", "0"),
        ("temporal", "m0", "0"),
        ("temporal", "m", "0"),
        ("temporal", "m2", "-1"),
        ("temporal", "m2", "0"),
        ("temporal", "m1_factor", "0"),
        ("temporal", "m1_factor", "nan"),
        ("temporal", "m1_factor", "inf"),
        ("spatial", "initial_elements", "1"),
        ("spatial", "initial_level", "-3"),
        ("spatial", "radius", "-1"),
        ("spatial", "radius", "nan"),
        ("spatial", "beta", "0.6"),
    ],
)
def test_main_rejects_out_of_range_values(tmp_path, capsys, section, key, value):
    # every bad value is a config error (exit 1), not a failure of each level
    lines = [line for line in U1_SMALL.splitlines() if not line.startswith(f"{key} =")]
    at = lines.index(f"[{section}]") + 1
    cfg_path = tmp_path / "study.cfg"
    cfg_path.write_text("\n".join(lines[:at] + [f"{key} = {value}"] + lines[at:]))
    assert main([str(cfg_path), "--levels", "1"]) == 1
    reason = "unknown key" if key in FIXED_KEYS else "must be"
    assert f"[{section}] {key}: {reason}" in capsys.readouterr().err


def test_graded_spatial_scheme_needs_a_2d_problem(tmp_path, capsys):
    # an interval has no corner to grade toward: the scheme is rejected, not ignored
    cfg_path = tmp_path / "study.cfg"
    cfg_path.write_text(U1_SMALL.replace("[spatial]\nscheme = uniform", "[spatial]\nscheme = graded"))
    assert main([str(cfg_path), "--levels", "1"]) == 1
    assert "[spatial] scheme: graded meshes need a 2D problem" in capsys.readouterr().err


U3_UNIFORM = """
[study]
problem = u3
levels = 1

[temporal]
scheme = {scheme}

[spatial]
scheme = uniform
"""


@pytest.mark.parametrize(
    "scheme, section, line, reason",
    [
        ("uniform", "spatial", "initial_elements = 64", "needs a 1D problem"),
        ("hp", "spatial", "initial_elements = 64", "needs a 1D problem"),
        ("uniform", "temporal", "sigma = 0.5", "needs scheme = hp, got scheme = uniform"),
        ("uniform", "temporal", "mu_hp = 3", "needs scheme = hp, got scheme = uniform"),
        ("p", "temporal", "m1_factor = 2.2", "needs scheme = hp, got scheme = p"),
    ],
)
def test_main_rejects_keys_that_do_not_apply(tmp_path, capsys, scheme, section, line, reason):
    # a key the run would not read is a config error, not a silently ignored setting
    text = U3_UNIFORM.format(scheme=scheme).replace(f"[{section}]\n", f"[{section}]\n{line}\n")
    cfg_path = tmp_path / "study.cfg"
    cfg_path.write_text(text)
    assert main([str(cfg_path)]) == 1
    assert f"[{section}] {line.split()[0]}: {reason}" in capsys.readouterr().err


# ids: bisections of the coarse L-shape before level 0 (cli.LSHAPE_LEVELS), then the level
@pytest.mark.parametrize("level", range(4), ids=lambda level: f"2-{level}")
def test_uniform_spatial_scheme_is_uniform_refinement(level):
    # 2 + level rounds of refine_uniform, node for node
    cfg = StudyConfig(problem="u3", spatial_scheme="uniform")
    mesh = _spatial_for_level(cfg, problem_u3(), level)
    ref = lshape_mesh()
    for _ in range(2 + level):
        ref = refine_uniform(ref)
    assert np.array_equal(mesh.vertices, ref.vertices)
    assert np.array_equal(mesh.cells, ref.cells)


SHIPPED = Path(__file__).parents[1] / "scripts"

# (M, N) at levels 0 and 1 of each shipped config, as the configs built them
# when the now fixed values were still config keys
SHIPPED_MN = {
    "u1_hp": [(17, 15), (27, 31)],
    "u1_uniform": [(4, 3), (8, 7)],
    "u2_p_graded": [(4, 52), (8, 237)],
    "u2_p_uniform_x": [(4, 33), (8, 161)],
    "u2_uniform_t_graded_x": [(4, 52), (8, 237)],
    "u2_uniform_xt": [(4, 33), (8, 161)],
    "u3_hp_graded": [(44, 52), (90, 237)],
    "u3_hp_uniform_x": [(35, 33), (77, 161)],
    "u3_uniform_t_graded_x": [(4, 52), (8, 237)],
    "u3_uniform_xt": [(4, 33), (8, 161)],
}


def test_every_shipped_config_is_listed():
    assert sorted(path.stem for path in SHIPPED.glob("*.cfg")) == sorted(SHIPPED_MN)


@pytest.mark.parametrize("name", sorted(SHIPPED_MN))
def test_shipped_config_discretisation(name):
    cfg = parse_config((SHIPPED / f"{name}.cfg").read_text())
    prob = get_problem(cfg.problem)
    for level, expected in enumerate(SHIPPED_MN[name]):
        N = assemble_spatial(_spatial_for_level(cfg, prob, level)).N
        assert (_temporal_for_level(cfg, prob, level, N).num_dofs, N) == expected


def test_main_partial_exit_code(tmp_path):
    text = U1_SMALL.replace(
        "[temporal]\nscheme = uniform",
        "[temporal]\nscheme = hp\nsigma = 0.31\nmu_hp = 2.0\nm1_factor = 1.4",
    )
    cfg_path = tmp_path / "study.cfg"
    cfg_path.write_text(text)
    assert main([str(cfg_path)]) == 2


def test_memory_guard_skips_level(monkeypatch):
    import spacetime_hp.cli as cli_mod

    monkeypatch.setattr(cli_mod, "MEMORY_GUARD", 100)
    cfg = parse_config(U1_SMALL.replace("levels = 2", "levels = 3"))
    records, failures = run_study(cfg, log=lambda *a, **k: None)
    assert len(records) == 2
    assert len(failures) == 1
    assert "memory guard" in failures[0][1]


def test_residual_gate_fails_level(monkeypatch):
    import spacetime_hp.cli as cli_mod

    monkeypatch.setattr(cli_mod, "RESIDUAL_GATE", 1e-20)
    records, failures = run_study(parse_config(U1_SMALL), log=lambda *a, **k: None)
    assert records == []
    assert [level for level, _ in failures] == [0, 1]
    assert all("solver residual" in reason and reason.endswith("> 1e-20") for _, reason in failures)


def test_nan_residual_fails_level(monkeypatch):
    import spacetime_hp.cli as cli_mod
    from dataclasses import replace

    solve_heat = cli_mod.solve_heat
    monkeypatch.setattr(cli_mod, "solve_heat", lambda *args: replace(solve_heat(*args), residual=float("nan")))
    records, failures = run_study(parse_config(U1_SMALL), log=lambda *a, **k: None)
    assert records == []
    assert all(reason == "ArithmeticError: solver residual nan > 1e-08" for _, reason in failures)
    assert [level for level, _ in failures] == [0, 1]


def test_nan_exact_solution_fails_level(tmp_path, monkeypatch):
    # a NaN error is a failed level with its reason, and the run exits 2
    import spacetime_hp.cli as cli_mod

    u1 = get_problem("u1")
    nan_u = custom_problem(
        dimension=1,
        T=u1.T,
        g=u1.g,
        u_exact=lambda t, x: np.full(np.shape(x), np.nan),
        du_dt_exact=u1.du_dt_exact,
    )
    monkeypatch.setattr(cli_mod, "get_problem", lambda name: nan_u)
    records, failures = run_study(parse_config(U1_SMALL), log=lambda *a, **k: None)
    assert records == []
    assert [level for level, _ in failures] == [0, 1]
    assert all(reason == "ValueError: error must be finite and nonnegative, got nan" for _, reason in failures)
    cfg_path = tmp_path / "study.cfg"
    cfg_path.write_text(U1_SMALL)
    assert main([str(cfg_path)]) == 2


def test_outputs_deterministic(tmp_path):
    cfg = parse_config(U1_SMALL)
    records1, _ = run_study(cfg, log=lambda *a, **k: None)
    records2, _ = run_study(cfg, log=lambda *a, **k: None)
    from dataclasses import replace

    a, b = tmp_path / "a", tmp_path / "b"
    write_outputs(replace(cfg, out=str(a)), records1)
    write_outputs(replace(cfg, out=str(b)), records2)
    for name in ("table.txt", "series.dat"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    # records.tsv carries wall time and is excluded from bit-identity
    assert (a / "records.tsv").exists()


def test_records_tsv_carries_the_solver_residual(tmp_path, monkeypatch):
    import spacetime_hp.cli as cli_mod
    from dataclasses import replace

    residuals = []
    solve_heat = cli_mod.solve_heat

    def keep_residual(*args):
        sol = solve_heat(*args)
        residuals.append(sol.residual)
        return sol

    monkeypatch.setattr(cli_mod, "solve_heat", keep_residual)
    cfg = replace(parse_config(U1_SMALL), out=str(tmp_path))
    records, _ = run_study(cfg, log=lambda *a, **k: None)
    write_outputs(cfg, records)
    header, *rows = (tmp_path / "records.tsv").read_text().splitlines()
    assert header.split("\t") == ["MN", "M", "N", "h_x", "k_max", "error", "eoc", "wall_time", "residual"]
    assert len(residuals) == len(records) == len(rows) == 2
    assert [r.residual for r in records] == residuals
    assert all(r <= cli_mod.RESIDUAL_GATE for r in residuals)
    for row, res in zip(rows, residuals):
        assert len(row.split("\t")) == 9
        assert row.split("\t")[-1] == f"{res:.3e}"


def test_each_level_builds_one_space_time_quadrature(monkeypatch):
    # the load and the error share one temporal rule and one table of the
    # basis values and t-derivatives per level; each takes its own spatial
    # point set with one evaluation of the problem data on it
    import spacetime_hp.cli as cli_mod
    from dataclasses import replace
    from spacetime_hp import metrics, solver, spatial_fem

    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    cfg = replace(parse_config((SHIPPED / "u3_hp_graded.cfg").read_text()), levels=2, out=None)
    for module in (solver, metrics):
        for name in ("temporal_rule", "basis_matrix"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    quad = spatial_fem.SpatialQuadrature
    monkeypatch.setattr(quad, "__init__", counted("SpatialQuadrature", quad.__init__))
    u3 = get_problem("u3")
    monkeypatch.setattr(cli_mod, "get_problem", lambda name: replace(u3, at=counted("at", u3.at)))
    records, failures = run_study(cfg, log=lambda *a, **k: None)
    assert failures == [] and len(records) == 2
    assert calls == {"SpatialQuadrature": 4, "at": 4, "temporal_rule": 2, "basis_matrix": 2}


MESH_EXPORT_STUDY = """
[study]
problem = u2
levels = 1
out = {out}

[temporal]
scheme = p

[spatial]
scheme = graded
export_meshes = true
"""


def test_mesh_export_option(tmp_path):
    cfg = parse_config(MESH_EXPORT_STUDY.format(out=tmp_path / "meshes"))
    records, failures = run_study(cfg, log=lambda *a, **k: None)
    assert failures == []
    assert (tmp_path / "meshes" / "mesh_level0.txt").exists()


def test_mesh_export_option_1d(tmp_path):
    out = tmp_path / "meshes"
    cfg = parse_config(U1_SMALL.replace("levels = 2", f"levels = 1\nout = {out}") + "export_meshes = true\n")
    records, failures = run_study(cfg, log=lambda *a, **k: None)
    assert failures == []
    # vertex rows (x, boundary flag), then interval rows; both have 2 columns
    rows = np.loadtxt(out / "mesh_level0.txt")
    assert rows.shape == (5 + 4, 2)
    assert rows[:5, 1].tolist() == [1, 0, 0, 0, 1]


def test_main_rejects_mesh_export_without_output_directory(tmp_path, capsys):
    # with neither out nor --out the meshes would go nowhere: a config error,
    # not a silent no-op; --out supplies the directory the config leaves out
    cfg_path = tmp_path / "study.cfg"
    cfg_path.write_text(MESH_EXPORT_STUDY.replace("out = {out}\n", ""))
    assert main([str(cfg_path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: [spatial] export_meshes: ")
    assert captured.out == ""  # no level ran
    assert main([str(cfg_path), "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "mesh_level0.txt").exists()


def test_failed_mesh_export_fails_the_level(tmp_path):
    # the output path is a file, so the export fails: the level counts as
    # failed and not also as completed
    out = tmp_path / "taken"
    out.write_text("")
    cfg = parse_config(MESH_EXPORT_STUDY.format(out=out))
    records, failures = run_study(cfg, log=lambda *a, **k: None)
    assert records == []
    assert [level for level, _ in failures] == [0]
    assert failures[0][1].startswith("FileExistsError")


def test_main_rejects_unusable_output_path(tmp_path, capsys):
    cfg_path = tmp_path / "study.cfg"
    cfg_path.write_text(U1_SMALL)
    out = tmp_path / "taken"
    out.write_text("")
    assert main([str(cfg_path), "--levels", "1", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: ")
    assert captured.out == ""  # no level ran


def test_numbers_script_compares_records_from_its_own_checkout(tmp_path):
    # with no PYTHONPATH and from another directory, the script still finds
    # the package: it puts its checkout's src first on sys.path
    header = "level\tMN\tM\tN\terror\tresidual\tval_sq\tder_sq\n"
    # the residual, relative already, moves by its absolute change: 5e-15, not 0.5
    records = {
        "a": (0.5, 1e-14, "0x1.0p-1,0x1.0p-2"),
        "b": (0.5 * (1.0 + 2.0**-20), 1.5e-14, "0x1.0p-1,0x1.8p-2"),
    }
    for name, (error, residual, der_sq) in records.items():
        (tmp_path / name).mkdir()
        row = ["0", "12", "3", "4", error.hex(), residual.hex(), "0x1.0p-1,0x1.0p-2", der_sq]
        (tmp_path / name / "u9.tsv").write_text(header + "\t".join(row) + "\n")
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    run = subprocess.run(
        [sys.executable, str(SHIPPED / "numbers.py"), "--compare", "a", "b"],
        cwd=tmp_path, env=env, capture_output=True, text=True, check=True,
    )
    moves = {tuple(line.split()[:2]): line.split(None, 2)[2] for line in run.stdout.splitlines()}
    assert moves == {
        ("u9", "MN"): "bit-identical",
        ("u9", "M"): "bit-identical",
        ("u9", "N"): "bit-identical",
        ("u9", "error"): "9.5e-07 (level 0)",
        ("u9", "residual"): "5.0e-15 (level 0)",
        ("u9", "val_sq"): "bit-identical",
        ("u9", "der_sq"): "2.5e-01 (level 0)",
    }
    # records of different runs exit 1: a config in one record only, an
    # extra level, or another size; the float moves are printed all the same
    row = ["0", "12", "3", "4", (0.5).hex(), (1e-14).hex(), "0x1.0p-1,0x1.0p-2", "0x1.0p-1,0x1.0p-2"]
    records = {
        "missing": {"u8.tsv": [row], "u9.tsv": [row]},
        "extra_level": {"u9.tsv": [row, ["1"] + row[1:]]},
        "size": {"u9.tsv": [row[:1] + ["15", "3", "5"] + row[4:]]},
    }
    expected = {"missing": "u8: missing in a", "extra_level": "u9: 1 levels against 2", "size": "u9 N inf (level 0)"}
    for name, files in records.items():
        (tmp_path / name).mkdir()
        for file, rows in files.items():
            (tmp_path / name / file).write_text(header + "".join("\t".join(r) + "\n" for r in rows))
        run = subprocess.run(
            [sys.executable, str(SHIPPED / "numbers.py"), "--compare", "a", name],
            cwd=tmp_path, env=env, capture_output=True, text=True,
        )
        assert run.returncode == 1, name
        assert expected[name] in [" ".join(line.split()) for line in run.stdout.splitlines()], name
        assert " ".join(run.stdout.splitlines()[-1].split()).startswith("u9 der_sq ")
    # records whose levels all failed: one line for the config, exit 0
    for name in ("empty_a", "empty_b"):
        (tmp_path / name).mkdir()
        (tmp_path / name / "u9.tsv").write_text(header)
    run = subprocess.run(
        [sys.executable, str(SHIPPED / "numbers.py"), "--compare", "empty_a", "empty_b"],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    assert (run.returncode, run.stdout, run.stderr) == (0, "u9: no level rows\n", "")


def test_run_all_studies_imports_the_package_of_its_own_checkout(tmp_path):
    # run as a script, its own directory comes first on sys.path, where
    # numbers.py would shadow the standard library's `numbers` that numpy
    # imports; run_path executes the top level without the studies
    code = (
        "import runpy, sys\n"
        f"sys.path.insert(0, {str(SHIPPED)!r})\n"
        f"namespace = runpy.run_path({str(SHIPPED / 'run_all_studies.py')!r})\n"
        "import spacetime_hp\n"
        "print(len(namespace['CONFIGS']), spacetime_hp.__file__)\n"
    )
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    run = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True, text=True, check=True)
    count, package = run.stdout.split()
    assert int(count) == len(list(SHIPPED.glob("*.cfg")))
    assert Path(package).resolve() == (SHIPPED.parent / "src" / "spacetime_hp" / "__init__.py").resolve()
