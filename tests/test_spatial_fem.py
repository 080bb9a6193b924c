import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

from spacetime_hp.problems import _laplacian_cutoff_times_singular, corner_singular, cutoff
from spacetime_hp.quadrature import gauss_legendre_01, triangle_rule
from spacetime_hp.solver import ERROR_DEGREE, LOAD_DEGREE
from spacetime_hp.spatial_fem import (
    SpatialMesh,
    SpatialQuadrature,
    assemble_spatial,
    export_mesh,
    lshape_mesh,
    p1_matrices,
    refine_edges,
    refine_graded,
    uniform_interval_mesh,
)

from fits import power_fit
from oracles import min_angle, refine_uniform


def test_uniform_interval_mesh():
    mesh = uniform_interval_mesh((0, 1), 4)
    assert mesh.vertices[:, 0] == pytest.approx([0, 0.25, 0.5, 0.75, 1.0])
    assert mesh.h_x == pytest.approx(0.25)
    sys = assemble_spatial(mesh)
    assert sys.N == 3
    finer = uniform_interval_mesh((0, 1), 8)
    assert assemble_spatial(finer).N == 7


def test_interval_local_matrices():
    mesh = uniform_interval_mesh((0, 2), 2)  # h = 1
    M, A = (m.toarray() for m in p1_matrices(mesh))
    np.testing.assert_allclose(A, [[1, -1, 0], [-1, 2, -1], [0, -1, 1]], atol=1e-14)
    np.testing.assert_allclose(M, np.array([[2, 1, 0], [1, 4, 1], [0, 1, 2]]) / 6.0, atol=1e-14)


def test_lshape_mesh_basics():
    mesh = lshape_mesh()
    assert any((mesh.vertices == [0.0, 0.0]).all(axis=1))
    assert mesh.volumes.sum() == pytest.approx(3.0)
    # entire boundary is Dirichlet: every coarse vertex lies on the boundary
    assert mesh.boundary_mask.all()
    assert np.degrees(min_angle(mesh)) == pytest.approx(45.0)


def test_refine_uniform_quarters():
    mesh = lshape_mesh()
    fine = refine_uniform(mesh)
    assert fine.num_cells == 4 * mesh.num_cells
    assert fine.volumes.sum() == pytest.approx(3.0)
    assert fine.h_x == pytest.approx(mesh.h_x / 2)
    # right-isosceles NVB preserves the minimum angle exactly
    assert np.degrees(min_angle(fine)) == pytest.approx(45.0)


def test_nvb_closure_conformity():
    mesh = refine_uniform(lshape_mesh())
    ref = refine_edges(mesh, np.array([0]))
    # conforming: every interior edge shared by exactly two triangles
    t = ref.cells
    edges = np.sort(
        np.vstack([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]]), axis=1
    )
    _, counts = np.unique(edges, axis=0, return_counts=True)
    assert set(counts.tolist()) <= {1, 2}
    assert ref.volumes.sum() == pytest.approx(3.0)


def test_refine_graded_sizing_law():
    beta, R = 0.6, 0.25
    h = 0.25
    g = refine_graded(lshape_mesh(), h, beta, R)
    dist = np.linalg.norm(g.vertices[g.cells], axis=2).min(axis=1)
    at_origin = g.diameters[dist == 0.0]
    # elements touching the origin scale like h^(1/beta)
    c = at_origin.max() / h ** (1.0 / beta)
    assert c < 2.0
    assert g.h_x <= h * 1.0000001
    assert np.degrees(min_angle(g)) == pytest.approx(45.0)


def test_refine_graded_beta_one_is_uniform_sizing():
    g = refine_graded(lshape_mesh(), 0.5, 1.0, 0.25)
    assert g.h_x <= 0.5 * 1.0000001
    # exponent 1 - beta = 0 puts no extra refinement at the corner
    dist = np.linalg.norm(g.vertices[g.cells], axis=2).min(axis=1)
    assert g.diameters[dist == 0.0].max() > 0.2


def test_graded_cardinality_growth():
    sizes = []
    for lvl in range(2, 6):
        g = refine_graded(lshape_mesh(), np.sqrt(2) * 0.5 ** lvl, 0.6, 0.25)
        sizes.append(assemble_spatial(g).N)
    for a, b in zip(sizes, sizes[1:]):
        assert 3.0 < b / a < 6.0


def test_invalid_grading_parameters():
    with pytest.raises(ValueError):
        refine_graded(lshape_mesh(), 0.25, 1.2, 0.25)
    with pytest.raises(ValueError):
        refine_graded(lshape_mesh(), 0.25, 0.6, -1.0)


def test_unit_right_triangle_local_matrices():
    tri = SpatialMesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), np.array([[0, 1, 2]]))
    M, A = p1_matrices(tri)
    np.testing.assert_allclose(
        A.toarray(), [[1.0, -0.5, -0.5], [-0.5, 0.5, 0.0], [-0.5, 0.0, 0.5]], atol=1e-14
    )
    np.testing.assert_allclose(
        M.toarray(), (np.ones((3, 3)) + np.eye(3)) / 24.0, atol=1e-15
    )


def test_degenerate_triangle_rejected():
    tri = SpatialMesh(
        np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]), np.array([[0, 1, 2]])
    )
    with pytest.raises(ValueError, match="degenerate"):
        p1_matrices(tri)


def _on_lshape_edges(v):
    x, y = v.T
    return (
        (x == -1) | (y == -1) | ((x == 1) & (y <= 0)) | ((y == 0) & (x >= 0))
        | ((x == 0) & (y >= 0)) | ((y == 1) & (x <= 0))
    )


# per dimension: (mass, stiffness) on the reference simplex, a mesh with the
# indicator of its boundary vertices, and a mesh whose cell 0 is degenerate
SIMPLEX_CASES = {
    1: (
        ([[1 / 3, 1 / 6], [1 / 6, 1 / 3]], [[1, -1], [-1, 1]]),
        (uniform_interval_mesh((0, 1), 5), lambda v: (v[:, 0] == 0) | (v[:, 0] == 1)),
        SpatialMesh(np.array([[0.0], [0.0], [1.0]]), np.array([[0, 1], [1, 2]])),
    ),
    2: (
        ((np.ones((3, 3)) + np.eye(3)) / 24.0, [[1, -0.5, -0.5], [-0.5, 0.5, 0], [-0.5, 0, 0.5]]),
        (refine_uniform(lshape_mesh()), _on_lshape_edges),
        SpatialMesh(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]), np.array([[0, 1, 2]])),
    ),
}


@pytest.mark.parametrize("d", [1, 2])
def test_simplex_p1_layer(d):
    (M_ref, A_ref), (mesh, on_boundary), degenerate = SIMPLEX_CASES[d]
    reference = SpatialMesh(np.vstack([np.zeros(d), np.eye(d)]), np.arange(d + 1)[None])
    M, A = p1_matrices(reference)
    np.testing.assert_allclose(M.toarray(), M_ref, atol=1e-15)
    np.testing.assert_allclose(A.toarray(), A_ref, atol=1e-14)
    assert np.array_equal(mesh.boundary_mask, on_boundary(mesh.vertices))
    with pytest.raises(ValueError, match="degenerate"):
        p1_matrices(degenerate)


@pytest.mark.parametrize(
    "mesh",
    [uniform_interval_mesh((0, 1), 9), refine_graded(lshape_mesh(), 0.5**1.5, 0.6, 0.25)],
    ids=["interval", "graded-lshape"],
)
def test_mass_and_stiffness_share_one_pattern(mesh):
    # the solver forms M_x + s A_x on the common pattern
    sys = assemble_spatial(mesh)
    for M, A in (p1_matrices(mesh), (sys.M_x, sys.A_x)):
        assert np.array_equal(M.indptr, A.indptr)
        assert np.array_equal(M.indices, A.indices)


def test_matrices_symmetric_positive_definite():
    mesh = refine_uniform(refine_uniform(lshape_mesh()))
    sys = assemble_spatial(mesh)
    for mat in (sys.M_x, sys.A_x):
        d = mat - mat.T
        assert abs(d).max() < 1e-14
    wA = spla.eigsh(sys.A_x, k=1, which="SA", return_eigenvectors=False)
    wM = spla.eigsh(sys.M_x, k=1, which="SA", return_eigenvectors=False)
    assert wA[0] > 0 and wM[0] > 0


def test_patch_test_linear_function():
    mesh = refine_uniform(refine_uniform(lshape_mesh()))
    sys = assemble_spatial(mesh)
    lin = 0.4 * mesh.vertices[:, 0] - 1.3 * mesh.vertices[:, 1] + 0.2
    resid = p1_matrices(mesh)[1] @ lin
    assert np.abs(resid[sys.interior]).max() < 1e-12


def test_laplace_eigenvalue_1d():
    sys = assemble_spatial(uniform_interval_mesh((0, 1), 64))
    w = spla.eigsh(sys.A_x, k=1, M=sys.M_x, sigma=0, which="LM", return_eigenvectors=False)
    assert abs(w[0] - np.pi**2) / np.pi**2 < 0.005


def test_galerkin_eigenfunction_solve():
    # solve A u = M f with f the first Laplace eigenfunction: u = f / pi^2
    mesh = uniform_interval_mesh((0, 1), 64)
    sys = assemble_spatial(mesh)
    x = mesh.vertices[sys.interior, 0]
    f = np.sin(np.pi * x)
    u = spla.spsolve(sys.A_x.tocsc(), sys.M_x @ f)
    err = np.abs(u - f / np.pi**2).max()
    assert err < 2.0 * mesh.h_x**2


def test_mesh_export_roundtrip(tmp_path):
    mesh = refine_uniform(lshape_mesh())
    path = tmp_path / "mesh.txt"
    export_mesh(mesh, path)
    # vertex rows (x, y, boundary flag), then triangle rows; both have 3 columns
    rows = np.loadtxt(path)
    nv = mesh.num_vertices
    assert np.array_equal(rows[:nv, :2], mesh.vertices)
    assert np.array_equal(rows[:nv, 2], mesh.boundary_mask)
    assert np.array_equal(rows[nv:].astype(np.int64), mesh.cells)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_random_marking_keeps_conformity_and_angles(seed):
    rng = np.random.default_rng(seed)
    mesh = refine_uniform(lshape_mesh())
    for _ in range(2):
        marked = np.nonzero(rng.random(mesh.num_cells) < 0.3)[0]
        if len(marked) == 0:
            continue
        mesh = refine_edges(mesh, marked)
    t = mesh.cells
    edges = np.sort(np.vstack([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]]), axis=1)
    _, counts = np.unique(edges, axis=0, return_counts=True)
    assert set(counts.tolist()) <= {1, 2}
    assert mesh.volumes.sum() == pytest.approx(3.0)
    # NVB shape regularity: at least half the coarse minimum angle
    assert min_angle(mesh) >= 0.5 * min_angle(lshape_mesh()) - 1e-12


def _poisson_l2_error(mesh):
    sys = assemble_spatial(mesh)
    quad = SpatialQuadrature(sys, LOAD_DEGREE)
    f_vals = -_laplacian_cutoff_times_singular(quad.points)
    u = spla.spsolve(sys.A_x.tocsc(), quad.moments(f_vals))
    r = np.hypot(quad.points[:, 0], quad.points[:, 1])
    exact = cutoff(r) * corner_singular(quad.points)
    err = quad.fe_values(u) - exact
    return np.sqrt(quad.l2_norm_sq(err)), sys.N


def test_graded_mesh_rate_recovery():
    # Poisson with the corner-singular cutoff solution: L2 rates in N close
    # to 1 on graded meshes and 2/3 on uniform ones
    errs_u, ns_u = [], []
    mesh = lshape_mesh()
    for lvl in range(7):
        mesh = refine_uniform(mesh)
        if lvl >= 4:
            e, n = _poisson_l2_error(mesh)
            errs_u.append(e)
            ns_u.append(n)
    errs_g, ns_g = [], []
    for lvl in range(4, 7):
        g = refine_graded(lshape_mesh(), np.sqrt(2) * 0.5 ** lvl, 0.6, 0.25)
        e, n = _poisson_l2_error(g)
        errs_g.append(e)
        ns_g.append(n)
    rate_u, _ = power_fit(ns_u, errs_u)
    rate_g, _ = power_fit(ns_g, errs_g)
    assert rate_u == pytest.approx(2.0 / 3.0, abs=0.1)
    assert rate_g == pytest.approx(1.0, abs=0.1)


# exactness degree -> (Gauss points per interval, triangle_rule order): the
# load's rule, 6 and 49 points, and the error's, 4 and 16
REFERENCE_RULES = {LOAD_DEGREE: (6, 7), ERROR_DEGREE: (4, 4)}


@pytest.mark.parametrize("mesh", [uniform_interval_mesh((0, 1), 7), refine_uniform(lshape_mesh())], ids=["1d", "2d"])
def test_quadrature_interpolation_matrix(mesh):
    sx = assemble_spatial(mesh)
    for degree, (n_gauss, n_triangle) in REFERENCE_RULES.items():
        quad = SpatialQuadrature(sx, degree)
        # the full P1 interpolation matrix from the cells and the shape values
        # [1 - sum(xi), xi] of the reference rule: Gauss points or triangle_rule
        xi = (gauss_legendre_01(n_gauss) if mesh.dim == 1 else triangle_rule(n_triangle))[0].reshape(-1, mesh.dim)
        shape = np.column_stack([1.0 - xi.sum(axis=1), xi])
        assert len(quad.weights) == mesh.num_cells * len(shape)
        full = np.zeros((len(quad.weights), mesh.num_vertices))
        for e, cell in enumerate(mesh.cells):
            full[e * len(shape) : (e + 1) * len(shape), cell] = shape
        # the cell-grid kernels apply its interior columns and their transpose
        P = full[:, sx.interior]
        assert quad.fe_values(np.eye(sx.N)) == pytest.approx(P.T, abs=1e-15)
        v = np.random.default_rng(4).standard_normal(len(quad.weights))
        assert quad.moments(v) == pytest.approx(P.T @ (quad.weights * v), rel=1e-14)
        # the full matrix reproduces linear functions at the points, so they are
        # the mapped rule; its rows sum to one
        coef = np.array([2.0, -1.0])[: mesh.dim]
        lin = 1.0 + mesh.vertices @ coef
        at_points = 1.0 + quad.points.reshape(len(quad.weights), mesh.dim) @ coef
        assert full @ lin == pytest.approx(at_points, abs=1e-13)
        assert (full.T @ quad.weights).sum() == pytest.approx(quad.weights.sum(), rel=1e-14)
        ones = np.ones(len(quad.weights))
        assert quad.moments(ones) == pytest.approx(full[:, sx.interior].T @ quad.weights, rel=1e-14)
        # a stack of fields is handled row by row
        rng = np.random.default_rng(5)
        nodal = rng.standard_normal((3, sx.N))
        values = rng.standard_normal((3, len(quad.weights)))
        assert quad.fe_values(nodal) == pytest.approx(np.array([quad.fe_values(v) for v in nodal]), abs=1e-14)
        assert quad.moments(values) == pytest.approx(np.array([quad.moments(v) for v in values]), abs=1e-14)
        assert quad.l2_norm_sq(values) == pytest.approx([quad.l2_norm_sq(v) for v in values], rel=1e-14)
