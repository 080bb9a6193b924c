import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spacetime_hp.hilbert import assemble
from spacetime_hp.metrics import (
    TEMPORAL_EXTRA,
    StudyRecord,
    emit_records,
    eoc,
    l2q_error_element_parts,
    rates,
)
from spacetime_hp import spatial_fem
from spacetime_hp.problems import ManufacturedProblem, problem_u1, problem_u3
from spacetime_hp.solver import solve, solve_heat
from spacetime_hp.spatial_fem import (
    SpatialQuadrature,
    assemble_spatial,
    lshape_mesh,
    refine_graded,
    uniform_interval_mesh,
)
from spacetime_hp.temporal_hp import (
    TemporalMeshSpec,
    build_mesh,
    element_gauss,
    element_gauss_power,
    make_basis,
    temporal_rule,
    uniform_mesh,
)

from fits import exp_fit, power_fit
from fractional_norms import FourierExpansion, h12_norm_fourier
from oracles import error_functional, nodal_at_time, temporal_error_functional


def _zero_solution(basis, sx):
    G = np.zeros((basis.num_dofs, sx.N))
    return solve(G=G, tm=assemble(basis), sx=sx, basis=basis)


def _analytic_problem(u, du, g=None, dimension=1):
    return ManufacturedProblem(
        name="custom",
        dimension=dimension,
        T=2.0,
        g=g or (lambda t, x: np.zeros_like(x)),
        u_exact=u,
        du_dt_exact=du,
    )


def test_error_functional_closed_form():
    # v = t sin(pi x) on (0,2) x (0,1): ||v||^2 = 4/3, ||d_t v||^2 = 1
    basis = make_basis(uniform_mesh(2.0, 2, 1))
    sx = assemble_spatial(uniform_interval_mesh((0, 1), 8))
    sol = _zero_solution(basis, sx)
    prob = _analytic_problem(
        u=lambda t, x: t * np.sin(np.pi * x),
        du=lambda t, x: np.sin(np.pi * x),
    )
    val_sq, der_sq = l2q_error_element_parts(sol, prob)
    assert val_sq.sum() == pytest.approx(4.0 / 3.0, rel=1e-12)
    assert der_sq.sum() == pytest.approx(1.0, rel=1e-12)
    assert error_functional(sol, prob) == pytest.approx((4.0 / 3.0) ** 0.25, rel=1e-12)


def test_l2q_error_element_parts_closed_form():
    # v = t sin(pi x) on the slabs (0,1) and (1,2): ||v||^2 = (1/6, 7/6) and
    # ||d_t v||^2 = (1/2, 1/2); the slabs sum to the closed form above
    basis = make_basis(uniform_mesh(2.0, 2, 1))
    sx = assemble_spatial(uniform_interval_mesh((0, 1), 8))
    sol = _zero_solution(basis, sx)
    prob = _analytic_problem(
        u=lambda t, x: t * np.sin(np.pi * x),
        du=lambda t, x: np.sin(np.pi * x),
    )
    val_sq, der_sq = l2q_error_element_parts(sol, prob)
    assert val_sq == pytest.approx([1.0 / 6.0, 7.0 / 6.0], rel=1e-12)
    assert der_sq == pytest.approx([0.5, 0.5], rel=1e-12)


def test_error_functional_zero():
    basis = make_basis(uniform_mesh(2.0, 2, 1))
    sx = assemble_spatial(uniform_interval_mesh((0, 1), 8))
    sol = _zero_solution(basis, sx)
    prob = _analytic_problem(
        u=lambda t, x: np.zeros_like(x), du=lambda t, x: np.zeros_like(x)
    )
    assert error_functional(sol, prob) == 0.0


def test_error_functional_homogeneity_exact():
    # [2v] = 2[v] exactly in floating point (power-of-two scaling)
    basis = make_basis(uniform_mesh(2.0, 2, 1))
    sx = assemble_spatial(uniform_interval_mesh((0, 1), 8))
    sol = _zero_solution(basis, sx)
    u = lambda t, x: t * np.sin(np.pi * x) * np.exp(-x)
    du = lambda t, x: np.sin(np.pi * x) * np.exp(-x)
    base = error_functional(sol, _analytic_problem(u=u, du=du))
    scaled = error_functional(
        sol,
        _analytic_problem(
            u=lambda t, x: 2.0 * u(t, x), du=lambda t, x: 2.0 * du(t, x)
        ),
    )
    assert scaled == 2.0 * base


def test_table1_first_row():
    prob = problem_u1()
    sx = assemble_spatial(uniform_interval_mesh((0, 1), 4))
    basis = make_basis(uniform_mesh(2.0, 4, 1))
    tm = assemble(basis)
    sol = solve_heat(prob, basis, tm, sx)
    err = error_functional(sol, prob)
    assert err == pytest.approx(7.330e-02, rel=0.01)


def test_quadrature_doubling_stability():
    prob = problem_u1()
    sx = assemble_spatial(uniform_interval_mesh((0, 1), 8))
    basis = make_basis(uniform_mesh(2.0, 8, 1))
    tm = assemble(basis)
    sol = solve_heat(prob, basis, tm, sx)
    e1 = error_functional(sol, prob)
    e2 = error_functional(sol, prob, quad_mult=2.0)
    assert abs(e2 - e1) / e1 < 1e-3


def test_u1_truncation_adequate_for_error_functional(monkeypatch):
    # u1 switches from its image form to its mode form at _IMAGE_TIME; moving
    # the switch to 2x and 4x that time, past error-rule nodes of the first
    # element, moves the reported error by < 1e-12 relative
    from spacetime_hp import problems

    sx = assemble_spatial(uniform_interval_mesh((0, 1), 8))
    basis = make_basis(uniform_mesh(2.0, 8, 1))
    tm = assemble(basis)
    sol = solve_heat(problem_u1(), basis, tm, sx)
    e1 = error_functional(sol, problem_u1())
    t, _, _ = temporal_rule(basis.mesh, basis.mesh.degrees + TEMPORAL_EXTRA)
    switch = problems._IMAGE_TIME
    for factor in (2, 4):
        assert np.any((t >= switch) & (t < factor * switch))
        monkeypatch.setattr(problems, "_IMAGE_TIME", factor * switch)
        assert abs(error_functional(sol, problem_u1()) - e1) < 1e-12 * e1


def test_functional_dominates_fractional_norm():
    # [v] bounds the Fourier-side fractional norm of the same function
    T = 2.0
    basis = make_basis(uniform_mesh(T, 3, 2))
    sx = assemble_spatial(uniform_interval_mesh((0, 1), 16))
    sol = _zero_solution(basis, sx)
    coeffs = np.array([0.8, -0.2, 0.1])
    spatial_profile = lambda x: np.sqrt(2.0) * np.sin(np.pi * x)  # L2-normalized
    modes = lambda t: sum(
        c * np.sqrt(2 / T) * np.sin((np.pi / 2 + k * np.pi) * t / T)
        for k, c in enumerate(coeffs)
    )
    dmodes = lambda t: sum(
        c * np.sqrt(2 / T) * (np.pi / 2 + k * np.pi) / T * np.cos((np.pi / 2 + k * np.pi) * t / T)
        for k, c in enumerate(coeffs)
    )
    prob = _analytic_problem(
        u=lambda t, x: modes(t) * spatial_profile(x),
        du=lambda t, x: dmodes(t) * spatial_profile(x),
    )
    frac = h12_norm_fourier(FourierExpansion((0.0, T), coeffs))
    assert error_functional(sol, prob) >= frac - 1e-8


def test_temporal_error_functional_singular_first_element():
    basis = make_basis(uniform_mesh(1.0, 4, 2))
    coeffs = np.zeros(basis.num_dofs)
    # v = t^(3/5): |v'|^2 ~ t^(-4/5) integrable only with the substituted rule
    val = temporal_error_functional(
        basis,
        coeffs,
        u=lambda t: np.asarray(t) ** 0.6,
        du=lambda t: 0.6 * np.asarray(t) ** (-0.4),
    )
    l2_sq = 1.0 / (2 * 0.6 + 1)
    h1_sq = 0.36 / (2 * 0.6 - 1)
    assert val == pytest.approx((l2_sq * h1_sq) ** 0.25, rel=1e-6)


def test_rates_and_eoc():
    # estimated order of convergence: log error ratio over log width ratio
    assert rates([3.423e-2, 1.355e-2], [1.0, 0.5])[0] == pytest.approx(1.3369, abs=1e-3)
    recs = [
        StudyRecord(MN=56, M=8, N=7, h_x=0.125, k_max=0.25, error=3.423e-2),
        StudyRecord(MN=240, M=16, N=15, h_x=0.0625, k_max=0.125, error=1.355e-2),
    ]
    vals = eoc(recs)
    assert vals[0] is None
    # against the effective width (MN)^(-1/2) this reproduces the reported 1.27
    assert vals[1] == pytest.approx(1.27, abs=0.005)


def test_eoc_trivial_cases():
    recs = [
        StudyRecord(MN=100, M=10, N=10, h_x=0.1, k_max=0.1, error=1e-2),
        StudyRecord(MN=400, M=20, N=20, h_x=0.05, k_max=0.05, error=1e-2),
    ]
    assert eoc(recs)[1] == pytest.approx(0.0)
    recs2 = [
        StudyRecord(MN=100, M=10, N=10, h_x=0.1, k_max=0.1, error=1e-2),
        StudyRecord(MN=400, M=20, N=20, h_x=0.05, k_max=0.05, error=0.5e-2),
    ]
    assert eoc(recs2)[1] == pytest.approx(1.0)


def test_zero_error_signals():
    with pytest.raises(ValueError):
        rates([1e-2, 0.0], [1.0, 0.5])


def test_record_validation():
    with pytest.raises(ValueError):
        StudyRecord(MN=99, M=10, N=10, h_x=0.1, k_max=0.1, error=1e-2)
    for bad in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            StudyRecord(MN=100, M=10, N=10, h_x=0.1, k_max=0.1, error=bad)


def test_exp_fit_exact_and_algebraic():
    M = np.array([25, 50, 100, 200, 400])
    recs = [
        StudyRecord(MN=m * 10, M=m, N=10, h_x=0.1, k_max=0.1, error=float(np.exp(-0.5 * np.sqrt(m))))
        for m in M
    ]
    fit = exp_fit(recs)
    assert fit.b == pytest.approx(0.5, abs=1e-10)
    assert fit.ok
    recs_alg = [
        StudyRecord(MN=m * 10, M=m, N=10, h_x=0.1, k_max=0.1, error=float(1.0 / m)) for m in M
    ]
    fit_alg = exp_fit(recs_alg)
    assert not fit_alg.ok
    assert fit_alg.residual > fit.residual


def test_exp_fit_needs_enough_records():
    recs = [StudyRecord(MN=10, M=1, N=10, h_x=0.1, k_max=0.1, error=0.1)] * 3
    with pytest.raises(ValueError):
        exp_fit(recs)


def test_power_fit():
    x = np.array([10, 20, 40, 80])
    rate, resid = power_fit(x, x**-2.0)
    assert rate == pytest.approx(2.0, abs=1e-12)
    assert resid < 1e-12


@settings(max_examples=20, deadline=None)
@given(scale=st.floats(0.1, 10), rate=st.floats(0.2, 3.0))
def test_power_fit_recovers_parameters(scale, rate):
    x = np.array([16.0, 64.0, 256.0, 1024.0])
    got, resid = power_fit(x, scale * x ** (-rate))
    assert got == pytest.approx(rate, rel=1e-9)
    assert resid < 1e-9


def test_emit_records_format():
    recs = [
        StudyRecord(MN=12, M=4, N=3, h_x=0.25, k_max=0.5, error=7.33e-2, wall_time=0.1),
        StudyRecord(MN=56, M=8, N=7, h_x=0.125, k_max=0.25, error=3.423e-2, wall_time=0.2),
    ]
    text = emit_records(recs)
    lines = text.strip().split("\n")
    assert lines[0] == "MN\tM\tN\th_x\tk_max\terror\teoc\twall_time\tresidual"
    assert lines[1].split("\t")[6] == "-"
    assert lines[1].split("\t")[5] == "7.330e-02"
    assert lines[2].split("\t")[6] != "-"


def _element_rule(mesh, j, n):
    """Temporal rule on element j, for the oracle: the tau^5 substitution
    with max(32, n, 5 p_1 + 3) points on the first element, n-point Gauss on
    the others."""
    if j == 0:
        return element_gauss_power(mesh, 0, max(32, n, 5 * int(mesh.degrees[0]) + 3))
    return element_gauss(mesh, j, n)


def _error_parts_node_by_node(sol, prob):
    mesh = sol.basis.mesh
    quad = SpatialQuadrature(sol.spatial)
    val, der = np.zeros(mesh.m), np.zeros(mesh.m)
    for j in range(mesh.m):
        for t, wt in zip(*_element_rule(mesh, j, int(mesh.degrees[j]) + 12)):
            ev = quad.fe_values(nodal_at_time(sol, t)) - prob.u_exact(t, quad.points)
            ed = quad.fe_values(nodal_at_time(sol, t, derivative=1)) - prob.du_dt_exact(t, quad.points)
            val[j] += wt * quad.l2_norm_sq(ev)
            der[j] += wt * quad.l2_norm_sq(ed)
    return val, der


def _small_case(name):
    if name == "u1-uniform":
        return problem_u1(), uniform_mesh(2.0, 4, 1), uniform_interval_mesh((0, 1), 8)
    if name == "u1-hp":
        spec = TemporalMeshSpec(T=2, sigma=0.31, mu_hp=2.0, m1=4, m2=1)
        return problem_u1(), build_mesh(spec), uniform_interval_mesh((0, 1), 16)
    spec = TemporalMeshSpec(T=2, sigma=0.17, mu_hp=1.0, m1=3, m2=1)
    return problem_u3(), build_mesh(spec), refine_graded(lshape_mesh(), 0.5**1.5, 0.6, 0.25)


@pytest.mark.parametrize("chunk_entries", [spatial_fem._CHUNK_ENTRIES, 200], ids=["default", "small-chunks"])
@pytest.mark.parametrize("case", ["u1-uniform", "u1-hp", "u3-graded"])
def test_error_parts_match_node_by_node_loop(case, chunk_entries, monkeypatch):
    prob, mesh_t, mesh_x = _small_case(case)
    basis = make_basis(mesh_t)
    sol = solve_heat(prob, basis, assemble(basis), assemble_spatial(mesh_x))
    monkeypatch.setattr(spatial_fem, "_CHUNK_ENTRIES", chunk_entries)
    val, der = l2q_error_element_parts(sol, prob)
    ref_val, ref_der = _error_parts_node_by_node(sol, prob)
    assert val == pytest.approx(ref_val, rel=1e-12)
    assert der == pytest.approx(ref_der, rel=1e-12)
