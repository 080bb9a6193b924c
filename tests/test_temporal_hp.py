import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from spacetime_hp.quadrature import gauss_legendre, legendre_values
from spacetime_hp.temporal_hp import (
    TemporalMesh,
    TemporalMeshSpec,
    basis_matrix,
    build_mesh,
    element_gauss,
    element_gauss_power,
    hp_condition_report,
    lobatto_shapes,
    make_basis,
    quasi_interpolant,
    temporal_rule,
    uniform_mesh,
)

from oracles import eval_all, eval_basis, eval_coefficients, integrate_1d, temporal_mass


def test_build_mesh_hand_example():
    spec = TemporalMeshSpec(T=2, sigma=0.31, mu_hp=2.0, m1=3, m2=1)
    mesh = build_mesh(spec)
    assert mesh.breakpoints == pytest.approx([0.0, 0.31**2, 0.31, 1.0, 2.0])
    assert list(mesh.degrees) == [1, 4, 6, 6]
    assert mesh.num_dofs == 17


def test_build_mesh_unit_horizon():
    mesh = build_mesh(TemporalMeshSpec(T=1, sigma=0.5, mu_hp=1, m1=3, m2=0))
    assert mesh.breakpoints == pytest.approx([0.0, 0.25, 0.5, 1.0])
    assert list(mesh.degrees) == [1, 2, 3]
    assert mesh.num_dofs == 6


def test_build_mesh_must_cover_horizon():
    # T > 1 with m2 = 0 would end the mesh at T1 = 1 != T
    with pytest.raises(ValueError):
        TemporalMeshSpec(T=2, sigma=0.5, mu_hp=1, m1=3, m2=0)


def test_spec_validation():
    with pytest.raises(ValueError):
        TemporalMeshSpec(T=2, sigma=1.2, mu_hp=1, m1=3, m2=1)
    with pytest.raises(ValueError):
        TemporalMeshSpec(T=2, sigma=0.3, mu_hp=1, m1=2, m2=1)
    # m2 forced to zero for T <= 1
    assert TemporalMeshSpec(T=1, sigma=0.5, mu_hp=1, m1=3, m2=7).m2 == 0


def test_uniform_mesh_examples():
    mesh = uniform_mesh(2, 4, 1)
    assert mesh.breakpoints == pytest.approx([0, 0.5, 1, 1.5, 2])
    assert mesh.num_dofs == 4
    assert uniform_mesh(2, 4, 3).num_dofs == 12
    assert uniform_mesh(1, 1, 5).num_dofs == 5


@settings(max_examples=40, deadline=None)
@given(
    T=st.floats(0.5, 8),
    sigma=st.floats(0.05, 0.95),
    mu=st.floats(1.0, 3.0),
    m1=st.integers(3, 12),
    m2=st.integers(1, 4),
)
@example(T=1.0000000000000002, sigma=0.5, mu=1.0, m1=3, m2=2)
def test_mesh_invariants_random(T, sigma, mu, m1, m2):
    try:
        spec = TemporalMeshSpec(T=T, sigma=sigma, mu_hp=mu, m1=m1, m2=m2)
    except ValueError as exc:
        # only a tail too short to split into m2 elements may be rejected
        assert "tail" in str(exc) and T - 1.0 < 1e-12
        return
    mesh = build_mesh(spec)
    t, p = mesh.breakpoints, mesh.degrees
    assert t[0] == 0.0 and t[-1] == pytest.approx(T)
    assert np.all(np.diff(t) > 0)
    assert abs(mesh.element_lengths.sum() - T) < 1e-13 * max(1.0, T)
    T1 = min(1.0, T)
    for j in range(1, m1 + 1):
        assert t[j] == pytest.approx(T1 * sigma ** (m1 - j))
    assert p[0] == 1
    for j in range(2, m1 + 1):
        assert p[j - 1] == int(np.floor(mu * j))
    assert mesh.num_dofs == int(p.sum())


def test_spec_rejects_a_tail_that_rounds_away():
    # 1 + (T - 1) k / m2 rounds onto 1.0 for k = 1: two equal breakpoints
    with pytest.raises(ValueError, match=r"tail .* m2=2 at T - T1 = 2.22e-16"):
        TemporalMeshSpec(T=1.0000000000000002, sigma=0.5, mu_hp=1.0, m1=3, m2=2)
    # one tail element still fits
    assert build_mesh(TemporalMeshSpec(T=1.0000000000000002, sigma=0.5, mu_hp=1.0, m1=3, m2=1)).m == 4


def test_from_arrays_validation():
    with pytest.raises(ValueError):
        TemporalMesh.from_arrays([0.0, 0.5, 0.4], [1, 1])
    with pytest.raises(ValueError):
        TemporalMesh.from_arrays([0.1, 0.5], [1])


def test_lobatto_endpoint_zeros_and_integral_definition():
    rng = np.random.default_rng(7)
    xs = rng.uniform(-1, 1, 10)
    vals, ders = lobatto_shapes(8, np.concatenate([xs, [-1.0, 1.0]]))
    for ell in range(3, 10):
        # bubbles vanish at both endpoints
        assert abs(vals[ell - 1, -2]) < 1e-14
        assert abs(vals[ell - 1, -1]) < 1e-14
        # closed form must match the defining integral of L_{ell-2}
        for i, x in enumerate(xs):
            ref = integrate_1d(
                gauss_legendre(12), lambda z: legendre_values(ell - 2, z)[ell - 2], (-1.0, x)
            )
            assert vals[ell - 1, i] == pytest.approx(ref, abs=1e-13)


def test_lobatto_derivative_is_legendre():
    x = np.linspace(-1, 1, 23)
    vals, ders = lobatto_shapes(6, x)
    L = legendre_values(6, x)
    for ell in range(3, 8):
        assert ders[ell - 1] == pytest.approx(L[ell - 2], abs=1e-14)


def test_eval_basis_nodal_vertex_property():
    mesh = build_mesh(TemporalMeshSpec(T=2, sigma=0.31, mu_hp=2.0, m1=3, m2=1))
    basis = make_basis(mesh)
    for j in range(mesh.m):
        for i, tb in enumerate(mesh.breakpoints[1:]):
            assert eval_basis(basis, j, tb) == pytest.approx(1.0 if i == j else 0.0, abs=1e-14)


def test_eval_basis_bubble_midpoint_value():
    # N_3 at the element midpoint equals int_{-1}^0 L_1 = -1/2
    basis = make_basis(uniform_mesh(2.0, 1, 3))
    g3 = basis.dofs[0, 2] - 1
    assert eval_basis(basis, g3, 1.0) == pytest.approx(-0.5, abs=1e-14)
    assert eval_basis(basis, g3, 0.0) == 0.0
    assert eval_basis(basis, g3, 2.0) == 0.0


def test_eval_basis_out_of_range():
    basis = make_basis(uniform_mesh(1, 2, 1))
    with pytest.raises(IndexError):
        eval_basis(basis, 99, 0.5)


def test_all_basis_functions_vanish_at_zero():
    mesh = build_mesh(TemporalMeshSpec(T=2, sigma=0.2, mu_hp=1.5, m1=4, m2=2))
    basis = make_basis(mesh)
    for g in range(basis.num_dofs):
        assert abs(eval_basis(basis, g, 0.0)) < 1e-14


def test_connectivity_excludes_origin_vertex():
    # unconstrained indices: the t=0 vertex is 0, -1 pads beyond the degree
    basis = make_basis(uniform_mesh(1, 3, 2))
    assert basis.dofs.tolist() == [[0, 1, 4], [1, 2, 5], [2, 3, 6]]
    assert basis.num_dofs_full == basis.num_dofs + 1
    basis = make_basis(build_mesh(TemporalMeshSpec(T=2, sigma=0.31, mu_hp=2.0, m1=3, m2=1)))
    assert list(basis.mesh.degrees) == [1, 4, 6, 6]
    assert basis.dofs.tolist() == [
        [0, 1, -1, -1, -1, -1, -1],
        [1, 2, 5, 6, 7, -1, -1],
        [2, 3, 8, 9, 10, 11, 12],
        [3, 4, 13, 14, 15, 16, 17],
    ]
    assert not basis.dofs.flags.writeable


def test_quasi_interpolant_linear_exact():
    mesh = build_mesh(TemporalMeshSpec(T=2, sigma=0.31, mu_hp=2.0, m1=3, m2=1))
    basis = make_basis(mesh)
    c = quasi_interpolant(basis, lambda t: np.asarray(t, float), lambda t: np.ones_like(np.asarray(t, float)))
    tt = np.linspace(0, 2, 101)
    assert np.abs(eval_coefficients(basis, c, tt) - tt).max() < 1e-12


def test_quasi_interpolant_quadratic_exact_when_degrees_allow():
    basis = make_basis(uniform_mesh(2.0, 3, 3))
    c = quasi_interpolant(basis, lambda t: np.asarray(t) * np.asarray(t), lambda t: 2 * np.asarray(t))
    tt = np.linspace(0, 2, 101)
    assert np.abs(eval_coefficients(basis, c, tt) - tt**2).max() < 1e-12


def test_quasi_interpolant_nodal_property_fractional_power():
    mesh = build_mesh(TemporalMeshSpec(T=1, sigma=0.17, mu_hp=1.0, m1=8, m2=0))
    basis = make_basis(mesh)
    v = lambda t: np.asarray(t, float) ** 0.6
    dv = lambda t: 0.6 * np.asarray(t, float) ** (-0.4)
    c = quasi_interpolant(basis, v, dv)
    for tb in mesh.breakpoints[1:]:
        assert eval_coefficients(basis, c, tb) == pytest.approx(float(v(tb)), abs=1e-12)


def test_quasi_interpolant_first_element_is_linear_interpolation():
    mesh = build_mesh(TemporalMeshSpec(T=1, sigma=0.3, mu_hp=1.0, m1=4, m2=0))
    basis = make_basis(mesh)
    v = lambda t: np.sin(np.asarray(t, float))
    dv = lambda t: np.cos(np.asarray(t, float))
    c = quasi_interpolant(basis, v, dv)
    t1 = mesh.breakpoints[1]
    for t in np.linspace(0, t1, 7):
        assert eval_coefficients(basis, c, t) == pytest.approx(np.sin(t1) * t / t1, abs=1e-13)


def test_quasi_interpolant_derivative_is_l2_projection():
    mesh = build_mesh(TemporalMeshSpec(T=2, sigma=0.31, mu_hp=2.0, m1=3, m2=1))
    basis = make_basis(mesh)
    v = lambda t: np.asarray(t, float) ** 2 * np.exp(-np.asarray(t, float))
    dv = lambda t: (2 * np.asarray(t, float) - np.asarray(t, float) ** 2) * np.exp(
        -np.asarray(t, float)
    )
    c = quasi_interpolant(basis, v, dv)
    for j in range(1, mesh.m):
        p = int(mesh.degrees[j])
        t, w = element_gauss(mesh, j, 2 * p + 10)
        resid = dv(t) - eval_coefficients(basis, c, t, derivative=1)
        a, b = mesh.breakpoints[j], mesh.breakpoints[j + 1]
        mid = 0.5 * (a + b)
        for q in range(p):
            # orthogonality of the derivative defect against degree p_j - 1
            assert abs(np.dot(w, resid * (t - mid) ** q)) < 1e-11


def test_quasi_interpolant_requires_zero_initial_value():
    basis = make_basis(uniform_mesh(1, 3, 2))
    with pytest.raises(ValueError):
        quasi_interpolant(basis, lambda t: np.asarray(t, float) + 1.0, lambda t: np.ones_like(np.asarray(t, float)))


def test_hp_projection_error_decays_exponentially():
    # single element, growing degree: H1 seminorm error of exp(t)-1 below 1e-10 by p=20
    errs = {}
    for p in (4, 8, 12, 16, 20):
        basis = make_basis(uniform_mesh(1.0, 1, p))
        c = quasi_interpolant(basis, lambda t: np.exp(t) - 1, np.exp)
        x, w = gauss_legendre(40)
        t = 0.5 * (x + 1)
        w = 0.5 * w
        d = eval_coefficients(basis, c, t, derivative=1) - np.exp(t)
        errs[p] = np.sqrt(np.dot(w, d * d))
    assert errs[20] < 1e-10
    assert errs[8] < errs[4]


def test_temporal_mass_against_quadrature():
    mesh = build_mesh(TemporalMeshSpec(T=2, sigma=0.31, mu_hp=2.0, m1=3, m2=1))
    basis = make_basis(mesh)
    M = temporal_mass(basis)[1:, 1:]
    rng = np.random.default_rng(3)
    x = rng.standard_normal(basis.num_dofs)
    y = rng.standard_normal(basis.num_dofs)
    lhs = x @ M @ y
    rhs = 0.0
    for j in range(mesh.m):
        t, w = element_gauss(mesh, j, int(mesh.degrees[j]) + 3)
        rhs += np.dot(w, eval_coefficients(basis, x, t) * eval_coefficients(basis, y, t))
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_partition_sums_to_T():
    mesh = build_mesh(TemporalMeshSpec(T=2, sigma=0.17, mu_hp=1.0, m1=10, m2=3))
    assert abs(mesh.element_lengths.sum() - 2.0) < 1e-13


def test_hp_condition_report_study_parameters():
    # the smooth 1D study parameters satisfy the slope condition near eps -> 0
    ok = TemporalMeshSpec(T=2, sigma=0.31, mu_hp=2.0, m1=5, m2=1)
    assert hp_condition_report(ok, delta=1.0, eps=1e-9) == []
    bad = TemporalMeshSpec(T=2, sigma=0.31, mu_hp=1.0, m1=5, m2=1)
    assert any("mu_hp" in w for w in hp_condition_report(bad, delta=1.0, eps=1e-9))


def test_temporal_rule_reproduces_element_rules():
    # Gauss on every element but the first, which gets the tau^5 substitution
    # with max(32, n, 5 p_1 + 3) points: 32 (hp, n = 4), n (hp, n = 41) and
    # 5 p_1 + 3 (p_1 = 8, n = 11)
    hp = build_mesh(TemporalMeshSpec(T=2, sigma=0.31, mu_hp=2.0, m1=4, m2=1))
    for mesh, extra, n1 in [(hp, 3, 32), (hp, 40, 41), (uniform_mesh(2.0, 3, 8), 3, 43)]:
        orders = mesh.degrees + extra
        t, w, elements = temporal_rule(mesh, orders)
        t0, w0 = element_gauss_power(mesh, 0, n1)
        assert np.array_equal(t[:n1], t0) and np.array_equal(w[:n1], w0)
        parts = [element_gauss(mesh, j, int(orders[j])) for j in range(1, mesh.m)]
        assert np.array_equal(t[n1:], np.concatenate([p[0] for p in parts]))
        assert np.array_equal(w[n1:], np.concatenate([p[1] for p in parts]))
        assert np.array_equal(elements, np.repeat(np.arange(mesh.m), [n1, *orders[1:]]))


@pytest.mark.parametrize("p1", [1, 6, 12])
def test_temporal_mass_is_exact_gram_matrix(p1):
    # reference: plain Gauss with p + 1 points per element, exact for the
    # degree-2p products of two shapes
    basis = make_basis(uniform_mesh(2.0, 2, p1))
    t, w = (np.concatenate(v) for v in zip(*(element_gauss(basis.mesh, j, p1 + 1) for j in range(2))))
    B, _ = basis_matrix(basis, t, np.repeat(np.arange(2), p1 + 1))
    ref = (B.T * w) @ B
    assert np.abs(temporal_mass(basis) - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("constrained", [True, False])
@pytest.mark.parametrize("derivative", [0, 1])
def test_basis_matrix_rows_are_basis_values(constrained, derivative):
    # one call gives the value and the t-derivative table; the constrained
    # space is the unconstrained one without the t=0 vertex
    basis = make_basis(build_mesh(TemporalMeshSpec(T=2, sigma=0.31, mu_hp=2.0, m1=3, m2=1)))
    t, _, elements = temporal_rule(basis.mesh, basis.mesh.degrees + 2)
    first = 1 if constrained else 0
    tables = basis_matrix(basis, t, elements)
    assert len(tables) == 2
    B = tables[derivative][:, first:]
    rows = [eval_all(basis, ti, derivative=derivative)[first:] for ti in t]
    assert np.array_equal(B, np.array(rows))
