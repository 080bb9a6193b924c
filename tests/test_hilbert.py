import numpy as np
import pytest

from spacetime_hp import spatial_fem
from spacetime_hp.hilbert import (
    SMOOTH_EXTRA,
    _corner_duffy_pieces,
    _diagonal_duffy_pieces,
    _near_log_order,
    _tensor_grid,
    assemble,
    smooth_remainder,
)
from spacetime_hp.temporal_hp import (
    TemporalMesh,
    TemporalMeshSpec,
    build_mesh,
    lobatto_shapes,
    make_basis,
    quasi_interpolant,
    uniform_mesh,
)

from fractional_norms import discrete_h12_norm_sq, ht_matrix_oracle
from oracles import eval_basis, kernel


def test_kernel_symmetry_and_spot_value():
    T = 2.0
    s = np.array([0.3, 1.7, 0.9])
    t = np.array([1.1, 0.2, 1.5])
    assert kernel(s, t, T) == pytest.approx(kernel(t, s, T))
    assert kernel(1.5, 0.5, T) == pytest.approx(np.log(np.tan(np.pi / 8)), abs=1e-12)


def test_kernel_singular_diagonal():
    with pytest.raises(ValueError):
        kernel(0.7, 0.7, 2.0)
    # logarithmic blow-up approaching the diagonal
    vals = [kernel(1.0, 1.0 + 10.0**-k, 2.0) for k in range(2, 8)]
    assert all(v1 < v0 for v0, v1 in zip(vals, vals[1:]))


def test_smooth_remainder_reconstructs_kernel():
    T = 2.0
    rng = np.random.default_rng(1)
    s = rng.uniform(0.01, T - 0.01, 50)
    t = rng.uniform(0.01, T - 0.01, 50)
    s = np.where(np.abs(s - t) < 1e-3, s + 0.1, s)
    recon = (
        np.log(np.abs(t - s))
        + np.log(s + t)
        - np.log(2 * T - s - t)
        + np.log(np.pi / (4 * T))
        + smooth_remainder(s, t, T)
    )
    assert recon == pytest.approx(kernel(s, t, T), abs=1e-12)


ORACLE_MESHES = [
    uniform_mesh(2.0, 2, 3),
    TemporalMesh.from_arrays([0.0, 0.4, 1.1, 2.0], [1, 2, 3]),
    TemporalMesh.from_arrays([0.0, 0.3, 0.8, 1.4, 2.0], [2, 4, 3, 6]),
]


@pytest.mark.parametrize("mesh", ORACLE_MESHES, ids=["m2", "m3", "m4"])
def test_oracle_equivalence(mesh):
    basis = make_basis(mesh)
    tm = assemble(basis)
    Mo, Ao = ht_matrix_oracle(basis, K=4096)
    Mo2, Ao2 = ht_matrix_oracle(basis, K=2048)
    # oracle K-convergence
    assert np.abs(Mo - Mo2).max() < 5e-7
    assert np.abs(Ao - Ao2).max() < 5e-6
    assert np.abs(tm.M_ht - Mo).max() < 1e-6
    assert np.abs(tm.A_ht - Ao).max() < 1e-6


@pytest.mark.parametrize("mesh", ORACLE_MESHES, ids=["m2", "m3", "m4"])
def test_matrix_invariants(mesh):
    basis = make_basis(mesh)
    tm = assemble(basis)
    scale = np.abs(tm.A_ht).max()
    assert np.abs(tm.A_ht - tm.A_ht.T).max() / scale < 1e-9
    np.linalg.cholesky(0.5 * (tm.A_ht + tm.A_ht.T))  # SPD
    rng = np.random.default_rng(42)
    sym_m = 0.5 * (tm.M_ht + tm.M_ht.T)
    for _ in range(20):
        x = rng.standard_normal(basis.num_dofs)
        assert x @ sym_m @ x > 0.0


def test_order_doubling_stability():
    mesh = TemporalMesh.from_arrays([0.0, 0.3, 0.8, 1.4, 2.0], [2, 4, 3, 6])
    basis = make_basis(mesh)
    tm = assemble(basis)
    tm2 = assemble(basis, multiplier=2.0)
    assert np.abs(tm.M_ht - tm2.M_ht).max() < 1e-10
    assert np.abs(tm.A_ht - tm2.A_ht).max() < 1e-10


def test_single_mode_elliptic_pairing():
    # first Fourier mode interpolated at high degree on one element:
    # <d_t v, H v> = pi/(2T) * v_0^2 with v_0 = 1 gives pi/4 at T = 2
    T = 2.0
    basis = make_basis(uniform_mesh(T, 1, 24))
    c = quasi_interpolant(
        basis,
        lambda t: np.sqrt(2 / T) * np.sin(np.pi * t / (2 * T)),
        lambda t: np.sqrt(2 / T) * np.pi / (2 * T) * np.cos(np.pi * t / (2 * T)),
    )
    tm = assemble(basis)
    assert c @ tm.A_ht @ c == pytest.approx(np.pi / 4, abs=1e-6)


def test_isometry_consequence_quadratic_form():
    # x^T A x equals the Fourier-side squared fractional norm of the same
    # discrete function (smooth sample keeps the series tail negligible)
    T = 2.0
    mesh = uniform_mesh(T, 3, 5)
    basis = make_basis(mesh)
    tm = assemble(basis)
    rng = np.random.default_rng(11)
    for _ in range(5):
        amp = rng.standard_normal(4)
        v = lambda t: sum(
            a * np.sin((np.pi / 2 + k * np.pi) * np.asarray(t, float) / T)
            for k, a in enumerate(amp)
        )
        dv = lambda t: sum(
            a * (np.pi / 2 + k * np.pi) / T * np.cos((np.pi / 2 + k * np.pi) * np.asarray(t, float) / T)
            for k, a in enumerate(amp)
        )
        x = quasi_interpolant(basis, v, dv)
        qa = x @ tm.A_ht @ x
        qf = discrete_h12_norm_sq(basis, x, K=4096)
        assert qa == pytest.approx(qf, abs=1e-6)


def test_nesting_under_breakpoint_insertion():
    coarse = TemporalMesh.from_arrays([0.0, 0.4, 1.1, 2.0], [1, 2, 3])
    fine = TemporalMesh.from_arrays([0.0, 0.4, 0.75, 1.1, 2.0], [1, 2, 2, 3])
    bc, bf = make_basis(coarse), make_basis(fine)
    tmc, tmf = assemble(bc), assemble(bf)
    R = np.zeros((bf.num_dofs, bc.num_dofs))
    for g in range(bc.num_dofs):
        R[:, g] = quasi_interpolant(
            bf,
            lambda t, g=g: eval_basis(bc, g, t),
            lambda t, g=g: eval_basis(bc, g, t, derivative=1),
        )
    rng = np.random.default_rng(2)
    for _ in range(10):
        x = rng.standard_normal(bc.num_dofs)
        y = R @ x
        assert x @ tmc.A_ht @ x == pytest.approx(y @ tmf.A_ht @ y, abs=1e-8)
        assert x @ tmc.M_ht @ x == pytest.approx(y @ tmf.M_ht @ y, abs=1e-8)


def test_cross_matrix_includes_origin_vertex():
    basis = make_basis(uniform_mesh(2.0, 3, 2))
    tm = assemble(basis)
    M = basis.num_dofs
    assert tm.M_cross.shape == (M, M + 1)
    assert tm.M_ht.shape == (M, M)
    # constrained matrices are exactly the cross matrix without the t=0 column
    assert np.array_equal(tm.M_cross[:, 1:], tm.M_ht)
    # the excluded vertex column is populated (used by the rhs projection)
    assert np.abs(tm.M_cross[:, 0]).max() > 0


def test_geometric_mesh_assembly_is_stable():
    # tiny first elements: internal order-doubling consistency and SPD
    mesh = build_mesh(TemporalMeshSpec(T=2, sigma=0.17, mu_hp=1.0, m1=8, m2=1))
    basis = make_basis(mesh)
    tm = assemble(basis)
    tm2 = assemble(basis, multiplier=1.5)
    assert np.abs(tm.A_ht - tm2.A_ht).max() < 1e-9 * max(1.0, np.abs(tm.A_ht).max())
    np.linalg.cholesky(0.5 * (tm.A_ht + tm.A_ht.T))
    assert np.abs(tm.A_ht - tm.A_ht.T).max() / np.abs(tm.A_ht).max() < 1e-9


def test_tensor_grid_is_cached_read_only():
    X, Y, W = _tensor_grid(5, 3)
    assert _tensor_grid(5, 3)[2] is W
    assert W.sum() == pytest.approx(1.0, rel=1e-14) and X.shape == Y.shape == (15,)
    with pytest.raises(ValueError):
        W[0] = 0.0


def _pair_loop_assembly(basis):
    # reference: every element pair on its own, all pieces concatenated into
    # one point set, shapes of the exact degrees, scalar scatter
    mesh = basis.mesh
    T, m, bp, p = mesh.T, mesh.m, mesh.breakpoints, mesh.degrees
    M = basis.num_dofs
    Mc, Ac = np.zeros((M, M + 1)), np.zeros((M, M + 1))

    def tensor(i, j, delta, g):  # delta None: the analytic remainder's order
        q = int(p[i] + p[j])
        if delta is None:
            nx = ny = q + SMOOTH_EXTRA
        else:
            nx = _near_log_order(bp[i + 1] - bp[i], delta, q, 1.0)
            ny = _near_log_order(bp[j + 1] - bp[j], delta, q, 1.0)
        X, Y, W = _tensor_grid(nx, ny)
        s = bp[i] + (bp[i + 1] - bp[i]) * X
        t = bp[j] + (bp[j + 1] - bp[j]) * Y
        return [(X, Y, W * g(s, t))]

    for i in range(m):
        for j in range(m):
            hi, hj = bp[i + 1] - bp[i], bp[j + 1] - bp[j]
            pdeg = int(p[i] + p[j]) + 1
            corner = _corner_duffy_pieces(hi, hj, pdeg, 1.0)
            const = np.log(np.pi / (4.0 * T)) + (np.log(hi) if i == j else 0.0)
            if i == j:
                pieces = _diagonal_duffy_pieces(pdeg, 1.0)
            elif j == i + 1:
                pieces = [(1.0 - u, y, w) for u, y, w in corner]
            elif i == j + 1:
                pieces = [(u, 1.0 - y, w) for u, y, w in corner]
            else:
                delta = bp[j] - bp[i + 1] if j > i else bp[i] - bp[j + 1]
                pieces = tensor(i, j, delta, lambda s, t: np.log(np.abs(t - s)))
            if i == j == 0:
                pieces = pieces + corner
            else:
                pieces = pieces + tensor(i, j, bp[i] + bp[j], lambda s, t: np.log(s + t))
            if i == j == m - 1:
                pieces = pieces + [(1.0 - u, 1.0 - y, -w) for u, y, w in corner]
            else:
                delta = (T - bp[i + 1]) + (T - bp[j + 1])
                pieces = pieces + tensor(i, j, delta, lambda s, t: -np.log(2 * T - s - t))
            pieces = pieces + tensor(i, j, None, lambda s, t: smooth_remainder(s, t, T) + const)
            x, y, w = (np.concatenate(v) for v in zip(*pieces))
            _, dNi = lobatto_shapes(p[i], 2.0 * x - 1.0)
            Nj, dNj = lobatto_shapes(p[j], 2.0 * y - 1.0)
            for a, gk in enumerate(basis.dofs[i, : p[i] + 1] - 1):
                for b, gl in enumerate(basis.dofs[j, : p[j] + 1]):
                    if gk >= 0:
                        Mc[gk, gl] -= 2.0 * hj / np.pi * np.sum(dNi[a] * w * Nj[b])
                        Ac[gk, gl] -= 4.0 / np.pi * np.sum(dNi[a] * w * dNj[b])
    return Mc[:, 1:], Ac[:, 1:], Mc


PAIR_LOOP_MESHES = {
    "uniform-m16-p1": uniform_mesh(2.0, 16, 1),
    "uniform-m12-p4": uniform_mesh(1.0, 12, 4),
    **dict(zip(["oracle-m2", "oracle-m3", "oracle-m4"], ORACLE_MESHES)),
    "geometric-m1-8": build_mesh(TemporalMeshSpec(T=2, sigma=0.17, mu_hp=1.0, m1=8, m2=1)),
}


@pytest.mark.parametrize("chunk_entries", [spatial_fem._CHUNK_ENTRIES, 300], ids=["default", "small-chunks"])
@pytest.mark.parametrize("mesh", PAIR_LOOP_MESHES.values(), ids=PAIR_LOOP_MESHES.keys())
def test_batched_assembly_matches_pair_loop(mesh, chunk_entries, monkeypatch):
    monkeypatch.setattr(spatial_fem, "_CHUNK_ENTRIES", chunk_entries)
    basis = make_basis(mesh)
    tm = assemble(basis)
    for got, ref in zip((tm.M_ht, tm.A_ht, tm.M_cross), _pair_loop_assembly(basis)):
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
