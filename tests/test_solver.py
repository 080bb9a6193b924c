from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as la

from spacetime_hp import cli, solver, spatial_fem
from spacetime_hp.hilbert import assemble
from spacetime_hp.problems import get_problem, problem_u1, problem_u3
from spacetime_hp.quadrature import gauss_legendre
from spacetime_hp.solver import SpaceTimeQuadrature, project_rhs, solve, solve_heat
from spacetime_hp.spatial_fem import (
    SpatialQuadrature,
    SpatialSystem,
    assemble_spatial,
    lshape_mesh,
    p1_matrices,
    refine_graded,
    uniform_interval_mesh,
)
from spacetime_hp.temporal_hp import (
    TemporalMeshSpec,
    basis_matrix,
    build_mesh,
    element_gauss,
    element_gauss_power,
    make_basis,
    temporal_rule,
    uniform_mesh,
)

from oracles import (
    custom_problem,
    eval_all,
    eval_coefficients,
    materialize,
    nodal_at_time,
    project_rhs_full_forcing,
    refine_uniform,
    solve_parametric_ivp,
    temporal_mass,
)

SHIPPED = Path(__file__).parents[1] / "scripts"


def _dense_solve(tm, sx, G):
    """Reference: dense LU on the materialized Kronecker sum."""
    B = materialize(tm, sx)
    return la.lu_solve(la.lu_factor(B), G.ravel()).reshape(G.shape)


def _forcing(g, dimension=1):
    """A problem that carries only the forcing g, for project_rhs."""
    return custom_problem(dimension=dimension, T=2.0, g=g, u_exact=None, du_dt_exact=None)


@pytest.fixture(scope="module")
def small_setup():
    basis = make_basis(uniform_mesh(2.0, 4, 1))
    tm = assemble(basis)
    sx = assemble_spatial(uniform_interval_mesh((0, 1), 8))
    return basis, tm, sx


def _tensor_load(tm, sx, ct, cx):
    """Load of the tensor function with temporal coefficients ct (t=0 vertex
    included) and spatial nodal values cx, tested with (H phi_k) psi_i."""
    return np.outer(tm.M_cross @ ct, (p1_matrices(sx.mesh)[0] @ cx)[sx.interior])


def _assert_load(G, ref, tol):
    assert np.abs(G - ref).max() <= tol * np.abs(ref).max()


def test_projection_reproduces_constants(small_setup):
    basis, tm, sx = small_setup
    G = project_rhs(SpaceTimeQuadrature(_forcing(lambda t, x: np.ones_like(x)), basis, sx), tm, sx)
    # vertex coefficients 1 (p = 1: no bubbles) in time, nodal values 1 in space
    _assert_load(G, _tensor_load(tm, sx, np.ones(basis.num_dofs_full), np.ones(sx.mesh.num_vertices)), 1e-12)


def test_projection_exact_for_low_order_polynomials(small_setup):
    basis, tm, sx = small_setup
    g = lambda t, x: (1.0 + 2.0 * t) * (3.0 - x)
    G = project_rhs(SpaceTimeQuadrature(_forcing(g), basis, sx), tm, sx)
    ct = 1.0 + 2.0 * basis.mesh.breakpoints  # P1 in time, P1 in space: Pi g = g
    _assert_load(G, _tensor_load(tm, sx, ct, 3.0 - sx.mesh.vertices[:, 0]), 1e-11)


def test_projection_preserves_mean_lshape():
    mesh2 = refine_uniform(lshape_mesh())
    sx = assemble_spatial(mesh2)
    basis = make_basis(uniform_mesh(2.0, 3, 2))
    tm = assemble(basis)
    prob = _forcing(lambda t, xy: np.ones(len(xy)), dimension=2)
    G = project_rhs(SpaceTimeQuadrature(prob, basis, sx), tm, sx)
    ct = np.zeros(basis.num_dofs_full)
    ct[: basis.mesh.m + 1] = 1.0  # coefficients of the constant 1 in time, bubbles 0
    _assert_load(G, _tensor_load(tm, sx, ct, np.ones(sx.mesh.num_vertices)), 1e-10)


def test_reported_residual_is_that_of_the_returned_coefficients(small_setup, monkeypatch):
    # perturbed sparse solves give coefficients far from the solution; the
    # reported residual must be theirs, not that of the exact solution
    basis, tm, sx = small_setup
    splu = solver.spla.splu

    class Scaled:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, rhs):
            return (1.0 + 1e-3) * self.lu.solve(rhs)

    monkeypatch.setattr(solver.spla, "splu", lambda A: Scaled(splu(A)))
    G = np.random.default_rng(2).standard_normal((basis.num_dofs, sx.N))
    sol = solve(tm, sx, G)
    expected = np.linalg.norm(materialize(tm, sx) @ sol.coefficients.ravel() - G.ravel()) / np.linalg.norm(G)
    assert sol.residual == pytest.approx(expected, rel=1e-10)
    assert sol.residual > cli.RESIDUAL_GATE


def test_global_operator_symmetric_part_positive(small_setup):
    basis, tm, sx = small_setup
    B = materialize(tm, sx)
    w = np.linalg.eigvalsh(0.5 * (B + B.T))
    assert w.min() > 0


def test_materialization_size_guard():
    basis = make_basis(uniform_mesh(2.0, 64, 1))
    tm = assemble(basis)
    sx = assemble_spatial(uniform_interval_mesh((0, 1), 512))
    with pytest.raises(ValueError, match="refused"):
        materialize(tm, sx)


def test_strategies_agree(small_setup):
    # dense LU vs Bartels-Stewart on (M, N) = (17, 63)
    basis = make_basis(build_mesh(TemporalMeshSpec(T=2, sigma=0.31, mu_hp=2.0, m1=3, m2=1)))
    tm = assemble(basis)
    sx = assemble_spatial(uniform_interval_mesh((0, 1), 64))
    assert basis.num_dofs == 17 and sx.N == 63
    rng = np.random.default_rng(3)
    G = rng.standard_normal((17, 63))
    a = _dense_solve(tm, sx, G)
    b = solve(tm, sx, G)
    scale = np.abs(a).max()
    assert np.abs(a - b.coefficients).max() / scale < 1e-8
    dense_residual = np.linalg.norm(materialize(tm, sx) @ a.ravel() - G.ravel()) / np.linalg.norm(G)
    assert dense_residual < 1e-10 and b.residual < 1e-10


def test_zero_data_zero_solution(small_setup):
    basis, tm, sx = small_setup
    G = np.zeros((basis.num_dofs, sx.N))
    sol = solve(tm, sx, G)
    assert np.all(sol.coefficients == 0.0)


def test_solution_vanishes_at_initial_time(small_setup):
    basis, tm, sx = small_setup
    sol = solve_heat(SpaceTimeQuadrature(problem_u1(), basis, sx), tm, sx)
    assert np.abs(nodal_at_time(basis, sol.coefficients, 0.0)).max() == 0.0
    assert sol.residual < 1e-10


def test_manufactured_polynomial_exactness():
    # u = t x(1-x): the only error source is the P1 projection of g in space
    prob_g = lambda t, x: x * (1 - x) + 2 * t
    u = lambda t, x: t * x * (1 - x)
    du = lambda t, x: x * (1 - x)
    basis = make_basis(uniform_mesh(2.0, 2, 1))
    tm = assemble(basis)
    sx = assemble_spatial(uniform_interval_mesh((0, 1), 64))
    sol = solve(tm, sx, project_rhs(SpaceTimeQuadrature(_forcing(prob_g), basis, sx), tm, sx))
    x, w = gauss_legendre(20)
    t_nodes = x + 1.0
    worst = 0.0
    xs = sx.mesh.vertices[sx.interior, 0]
    for t, wt in zip(t_nodes, w):
        vals = nodal_at_time(basis, sol.coefficients, t)
        worst = max(worst, np.abs(vals - u(t, xs)).max())
    assert worst < 1e-3


def test_parametric_ivp_exact_cases():
    basis = make_basis(uniform_mesh(2.0, 3, 2))
    tm = assemble(basis)
    bp = basis.mesh.breakpoints[1:]
    u0 = solve_parametric_ivp(0.0, lambda t: np.ones_like(t), basis, tm)
    assert eval_coefficients(basis, u0, bp) == pytest.approx(bp, abs=1e-10)
    u1 = solve_parametric_ivp(1.0, lambda t: 1.0 + t, basis, tm)
    assert eval_coefficients(basis, u1, bp) == pytest.approx(bp, abs=1e-10)


def test_parametric_ivp_exponential_p_convergence():
    errs = {}
    for p in (4, 8, 12, 16):
        basis = make_basis(uniform_mesh(2.0, 1, p))
        tm = assemble(basis)
        u = solve_parametric_ivp(1.0, lambda t: np.ones_like(t), basis, tm)
        tt = np.linspace(1e-3, 2, 41)
        errs[p] = np.abs(eval_coefficients(basis, u, tt) - (1 - np.exp(-tt))).max()
    assert errs[16] < 1e-8
    assert errs[8] < errs[4]


def test_parametric_ivp_validation():
    basis = make_basis(uniform_mesh(2.0, 2, 1))
    tm = assemble(basis)
    with pytest.raises(ValueError):
        solve_parametric_ivp(-0.5, lambda t: np.ones_like(t), basis, tm)


def test_discrete_stability_under_refinement():
    # solution norm over forcing norm stays bounded across refinement levels
    prob = problem_u1()
    ratios = []
    for lvl in range(4):
        nx, m = 4 * 2**lvl, 4 * 2**lvl
        sx = assemble_spatial(uniform_interval_mesh((0, 1), nx))
        basis = make_basis(uniform_mesh(2.0, m, 1))
        tm = assemble(basis)
        sol = solve_heat(SpaceTimeQuadrature(prob, basis, sx), tm, sx)
        Mt_c = temporal_mass(basis)[1:, 1:]
        U = sol.coefficients
        unorm = np.sqrt(np.sum(U * (Mt_c @ U @ sx.M_x.toarray())))
        ratios.append(unorm / np.sqrt(6.0))  # ||g||_L2(Q) = sqrt(|Q|) for g = 1
    ratios = np.array(ratios)
    assert ratios.max() / ratios.min() < 1.5
    assert ratios.max() < 10.0


def test_bartels_stewart_handles_complex_schur_blocks():
    # mixed-degree meshes give the transform pencil complex eigenvalue pairs;
    # cross-check against dense LU
    basis = make_basis(uniform_mesh(2.0, 4, 3))
    tm = assemble(basis)
    C = np.linalg.solve(tm.A_ht, tm.M_ht)
    eig = np.linalg.eigvals(C)
    assert np.abs(eig.imag).max() > 1e-8  # complex pairs genuinely occur
    assert eig.real.min() > 0
    sx = assemble_spatial(uniform_interval_mesh((0, 1), 12))
    rng = np.random.default_rng(9)
    G = rng.standard_normal((basis.num_dofs, sx.N))
    a = _dense_solve(tm, sx, G)
    b = solve(tm, sx, G)
    assert np.abs(a - b.coefficients).max() < 1e-8 * np.abs(a).max()


@pytest.mark.parametrize("temporal", ["u3-hp-graded-level-1", "one-element"])
def test_block_sweep_matches_dense_solve(temporal, monkeypatch):
    # the u3_hp_graded level-1 temporal mesh gives both block kinds of the real
    # Schur form; a single P1 element gives M = 1, one 1x1 block
    if temporal == "one-element":
        basis = make_basis(uniform_mesh(2.0, 1, 1))
    else:
        cfg = cli.parse_config((SHIPPED / "u3_hp_graded.cfg").read_text())
        prob = get_problem(cfg.problem)
        N = assemble_spatial(cli._spatial_for_level(cfg, prob, 1)).N
        basis = make_basis(cli._temporal_for_level(cfg, prob, 1, N))
    tm = assemble(basis)
    # one 1x1 block per real eigenvalue of A_t^{-1} M_t, one 2x2 block per complex pair
    eig = np.linalg.eigvals(np.linalg.solve(tm.A_ht, tm.M_ht))
    ones, pairs = int(np.sum(eig.imag == 0.0)), int(np.sum(eig.imag > 0.0))
    assert (ones, pairs) == ((1, 0) if temporal == "one-element" else (6, 42))
    sx = assemble_spatial(uniform_interval_mesh((0, 1), 12))
    G = np.random.default_rng(5).standard_normal((basis.num_dofs, sx.N))
    dtypes, splu = [], solver.spla.splu
    monkeypatch.setattr(solver.spla, "splu", lambda A: dtypes.append(A.dtype) or splu(A))
    b = solve(tm, sx, G)
    # one factorisation per diagonal block: real for a 1x1 block, complex for a 2x2 one
    assert len(dtypes) == ones + pairs
    assert dtypes.count(np.float64) == ones and dtypes.count(np.complex128) == pairs
    a = _dense_solve(tm, sx, G)
    assert np.abs(a - b.coefficients).max() < 1e-8 * np.abs(a).max()
    assert b.residual < 1e-10


def _moments_node_by_node(prob, basis, mesh_x):
    """sum over temporal nodes of w phi_l(t) int g(t) psi_i, one node at a
    time, against every P1 function psi_i of mesh_x, boundary included: the
    quadrature of a system that counts every vertex as interior."""
    mesh = basis.mesh
    sx = SpatialSystem(mesh_x, *p1_matrices(mesh_x), np.arange(mesh_x.num_vertices))
    quad = SpatialQuadrature(sx, solver.LOAD_DEGREE)
    R = np.zeros((basis.num_dofs_full, mesh_x.num_vertices))
    for j in range(mesh.m):
        n = int(mesh.degrees[j]) + solver.TEMPORAL_EXTRA
        if j == 0:
            rule = element_gauss_power(mesh, 0, max(32, n, 5 * int(mesh.degrees[0]) + 3))
        else:
            rule = element_gauss(mesh, j, n)
        for t, wt in zip(*rule):
            R += wt * np.outer(eval_all(basis, t), quad.moments(prob.g(t, quad.points)))
    return R


@pytest.mark.parametrize("chunk_entries", [spatial_fem._CHUNK_ENTRIES, 200], ids=["default", "small-chunks"])
@pytest.mark.parametrize("case", ["u1-uniform", "u1-hp", "u3-graded"])
def test_projection_matches_node_by_node_loop(case, chunk_entries, monkeypatch):
    if case == "u1-uniform":
        prob, mesh_t, mesh_x = problem_u1(), uniform_mesh(2.0, 4, 1), uniform_interval_mesh((0, 1), 8)
    elif case == "u1-hp":
        spec = TemporalMeshSpec(T=2, sigma=0.31, mu_hp=2.0, m1=4, m2=1)
        prob, mesh_t, mesh_x = problem_u1(), build_mesh(spec), uniform_interval_mesh((0, 1), 16)
    else:
        spec = TemporalMeshSpec(T=2, sigma=0.17, mu_hp=1.0, m1=3, m2=1)
        mesh_x = refine_graded(lshape_mesh(), 0.5**1.5, 0.6, 0.25)
        prob, mesh_t = problem_u3(), build_mesh(spec)
    basis = make_basis(mesh_t)
    tm = assemble(basis)
    sx = assemble_spatial(mesh_x)
    monkeypatch.setattr(spatial_fem, "_CHUNK_ENTRIES", chunk_entries)
    G = project_rhs(SpaceTimeQuadrature(prob, basis, sx), tm, sx)
    R = _moments_node_by_node(prob, basis, mesh_x)
    # two steps: project onto the unconstrained tensor space, then test with
    # (H phi_k) psi_i; the load skips the spatial projection that cancels
    M_full = p1_matrices(mesh_x)[0].toarray()
    ghat = la.solve(M_full, la.solve(temporal_mass(basis), R).T).T
    ref = tm.M_cross @ ghat @ M_full[:, sx.interior]
    assert np.abs(G - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize(
    "mesh_t",
    [build_mesh(TemporalMeshSpec(T=2, sigma=0.31, mu_hp=2.0, m1=4, m2=1)), uniform_mesh(2.0, 3, 12)],
    ids=["hp", "p12"],
)
def test_load_rule_gram_is_temporal_mass(mesh_t):
    # the load's temporal rule integrates every product of two basis
    # functions exactly, so project_rhs takes its Gram matrix as the mass matrix
    basis = make_basis(mesh_t)
    t, w, elements = temporal_rule(mesh_t, mesh_t.degrees + solver.TEMPORAL_EXTRA)
    phi, _ = basis_matrix(basis, t, elements)
    ref = temporal_mass(basis)
    assert np.abs((phi.T * w) @ phi - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("level", [0, 1])
@pytest.mark.parametrize("config", ["u1_hp.cfg", "u2_p_graded.cfg", "u3_hp_graded.cfg"])
def test_separable_load_matches_full_forcing_loop(config, level):
    cfg = cli.parse_config((SHIPPED / config).read_text())
    prob = get_problem(cfg.problem)
    sx = assemble_spatial(cli._spatial_for_level(cfg, prob, level))
    basis = make_basis(cli._temporal_for_level(cfg, prob, level, sx.N))
    tm = assemble(basis)
    G = project_rhs(SpaceTimeQuadrature(prob, basis, sx), tm, sx)
    ref = project_rhs_full_forcing(prob, basis, tm, sx)
    assert np.abs(G - ref).max() <= 1e-13 * np.abs(ref).max()


def test_load_of_a_problem_without_evaluator_is_the_full_loop():
    prob = custom_problem(
        dimension=1,
        T=2.0,
        g=lambda t, x: np.exp(-t) * np.sin(np.pi * x) + x * t,
        u_exact=lambda t, x: t * np.sin(np.pi * x),
        du_dt_exact=lambda t, x: np.sin(np.pi * x),
    )
    basis = make_basis(uniform_mesh(2.0, 3, 2))
    tm = assemble(basis)
    sx = assemble_spatial(uniform_interval_mesh((0, 1), 10))
    ev = prob.at(np.linspace(0.1, 0.9, 4))
    assert ev.terms == () and ev.g_rest is not None
    G = project_rhs(SpaceTimeQuadrature(prob, basis, sx), tm, sx)
    ref = project_rhs_full_forcing(prob, basis, tm, sx)
    assert np.abs(G - ref).max() <= 1e-13 * np.abs(ref).max()


def _shipped_level(config, level):
    """The level's space-time quadrature, Hilbert matrices and spatial system
    of a shipped config."""
    cfg = cli.parse_config((SHIPPED / config).read_text())
    prob = get_problem(cfg.problem)
    sx = assemble_spatial(cli._spatial_for_level(cfg, prob, level))
    basis = make_basis(cli._temporal_for_level(cfg, prob, level, sx.N))
    return SpaceTimeQuadrature(prob, basis, sx), assemble(basis), sx


# relative to the largest moment, the interpolated remainder moments are off by
# at most 7e-16 at K = 20 on u2 and u3, levels 0-2; K = 16 is off by 2e-13 to
# 3e-12 and K = 12 by 4e-9 to 2e-8
CHEBYSHEV_TOL = 1e-14
REMAINDER_LEVELS = [(c, level) for c in ("u2_p_graded.cfg", "u3_hp_graded.cfg") for level in range(3)]


@pytest.mark.parametrize("config,level", REMAINDER_LEVELS)
def test_remainder_moments_interpolate_to_every_node(config, level):
    # the contract of g_rest: analytic in t on [0, T], so its spatial moments
    # at the Chebyshev times give those at every node of the load's rule
    rule, _, sx = _shipped_level(config, level)
    quad, t = SpatialQuadrature(sx, solver.LOAD_DEGREE), rule.t
    g_rest = rule.prob.at(quad.points).g_rest
    c, B = solver._chebyshev_interpolation(t, rule.T)
    assert len(c) == solver.CHEBYSHEV_TIMES
    direct = np.empty((len(t), sx.N))
    for chunk in quad.time_chunks(len(t)):
        direct[chunk] = quad.moments(g_rest(t[chunk, None]))
    interpolated = B @ quad.moments(g_rest(c[:, None]))
    assert np.abs(interpolated - direct).max() <= CHEBYSHEV_TOL * np.abs(direct).max()


@pytest.mark.parametrize("config,level", REMAINDER_LEVELS)
def test_doubling_the_chebyshev_times_keeps_the_load(config, level, monkeypatch):
    rule, tm, sx = _shipped_level(config, level)
    G = project_rhs(rule, tm, sx)
    monkeypatch.setattr(solver, "CHEBYSHEV_TIMES", 2 * solver.CHEBYSHEV_TIMES)
    G2 = project_rhs(rule, tm, sx)
    assert np.abs(G2 - G).max() <= CHEBYSHEV_TOL * np.abs(G).max()


def test_a_remainder_singular_at_zero_is_refused(small_setup):
    # t^0.6 is not analytic at t = 0: interpolated from the Chebyshev times,
    # its moments at the rule's first node are off by about 1e-2
    basis, tm, sx = small_setup
    prob = _forcing(lambda t, x: t**0.6 * np.sin(np.pi * x))
    with pytest.raises(ValueError, match="remainder g_rest is not analytic in t"):
        project_rhs(SpaceTimeQuadrature(prob, basis, sx), tm, sx)


def test_chebyshev_interpolation_is_exact_on_polynomials_and_at_its_points():
    rng = np.random.default_rng(4)
    c, _ = solver._chebyshev_interpolation(np.zeros(1), 2.0)
    # a node on a Chebyshev point takes its value; the others interpolate
    t = np.concatenate([c[[0, 7, 19]], rng.uniform(0.0, 2.0, 9), [0.0, 2.0]])
    _, B = solver._chebyshev_interpolation(t, 2.0)
    assert np.array_equal(B[:3], np.eye(len(c))[[0, 7, 19]])
    p = np.polynomial.Polynomial(rng.standard_normal(len(c)))
    assert np.abs(B @ p(c) - p(t)).max() <= 1e-12 * np.abs(p(t)).max()
