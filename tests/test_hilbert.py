import numpy as np
import pytest
from scipy.integrate import quad

from spacetime_hp import spatial_fem
from spacetime_hp.hilbert import (
    SMOOTH_EXTRA,
    _corner_duffy_rule,
    _diagonal_duffy_rule,
    _near_log_order,
    _tensor_grid,
    assemble,
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
from oracles import eval_basis, kernel, smooth_remainder


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


DOUBLING_MESHES = [
    TemporalMesh.from_arrays([0.0, 0.3, 0.8, 1.4, 2.0], [2, 4, 3, 6]),
    # u1_hp level 6 (degrees up to 18) and u3_hp_graded level 3 (up to 18,
    # first element 0.17^17 long): high-degree pairs near a log singularity
    build_mesh(TemporalMeshSpec(T=2, sigma=0.31, mu_hp=2.0, m1=9, m2=1)),
    build_mesh(TemporalMeshSpec(T=2, sigma=0.17, mu_hp=1.0, m1=18, m2=1)),
]


def test_order_doubling_stability():
    for mesh in DOUBLING_MESHES:
        basis = make_basis(mesh)
        tm = assemble(basis)
        tm2 = assemble(basis, multiplier=2.0)
        for got, ref in ((tm.M_ht, tm2.M_ht), (tm.A_ht, tm2.A_ht)):
            assert np.abs(got - ref).max() < 1e-10
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max(), mesh.m


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


def test_duffy_rules_closed_forms():
    _, _, w = _diagonal_duffy_rule(5, 1.0)
    assert w.sum() == pytest.approx(-1.5, rel=1e-13)  # int int ln|x - y|
    _, _, W = _corner_duffy_rule([1.0], [1.0], 5, 1.0)
    assert W.shape[0] == 1
    assert W.sum() == pytest.approx(2.0 * np.log(2.0) - 1.5, rel=1e-13)  # int int ln(x + y)


QUAD = dict(epsabs=0.0, epsrel=2e-14, limit=200)
DUFFY_PDEG = 7
MONOMIALS = [(a, b) for a in range(DUFFY_PDEG + 1) for b in range(DUFFY_PDEG + 1 - a)]


def _assert_rule_matches(x, y, w, inner):
    # against quad of x^a times the inner integral inner(b, x) over y; the
    # tolerance is relative to the sum of the rule's absolute terms, its
    # rounding scale: some monomials against a log that changes sign nearly
    # cancel
    for a, b in MONOMIALS:
        terms = w * x**a * y**b
        ref = quad(lambda x: x**a * inner(b, x), 0.0, 1.0, **QUAD)[0]
        assert abs(terms.sum() - ref) <= 1e-13 * np.abs(terms).sum(), (a, b)


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_diagonal_duffy_rule_is_exact_on_monomials():
    # inner integral of y^b ln|x - y| split at y = x, each side with quad's
    # algebraic-logarithmic weight
    def inner(b, x):
        f = lambda y: y**b
        return (
            quad(f, 0.0, x, weight="alg-logb", wvar=(0, 0), **QUAD)[0]
            + quad(f, x, 1.0, weight="alg-loga", wvar=(0, 0), **QUAD)[0]
        )

    _assert_rule_matches(*_diagonal_duffy_rule(DUFFY_PDEG, 1.0), inner)


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("c1, c2", [(1.0, 1.0), (0.31, 1.0), (1.0, 0.31)])
def test_corner_duffy_rule_is_exact_on_monomials(c1, c2):
    # for u > 0 the inner integrand y^b ln(c1 u + c2 y) is analytic on [0, 1]
    def inner(b, u):
        return quad(lambda y: y**b * np.log(c1 * u + c2 * y), 0.0, 1.0, **QUAD)[0]

    # one call for two pairs on one node set: a row belongs to its pair, so
    # swapping the pairs swaps the rows
    u, y, W = _corner_duffy_rule([c1, 1.0], [c2, 1.0], DUFFY_PDEG, 1.0)
    assert W.shape == (2, u.size)
    assert np.array_equal(W[1], _corner_duffy_rule([1.0, c1], [1.0, c2], DUFFY_PDEG, 1.0)[2][0])
    _assert_rule_matches(u, y, W[0], inner)


def _pair_loop_assembly(basis):
    # reference: every element pair on its own, its Duffy pieces and one
    # tensor grid (at the largest order that any of its other pieces asks
    # for) concatenated into one point set, shapes of the exact degrees,
    # scalar scatter
    mesh = basis.mesh
    T, m, bp, p = mesh.T, mesh.m, mesh.breakpoints, mesh.degrees
    M = basis.num_dofs
    Mc, Ac = np.zeros((M, M + 1)), np.zeros((M, M + 1))

    for i in range(m):
        for j in range(m):
            hi, hj = bp[i + 1] - bp[i], bp[j + 1] - bp[j]
            pdeg = int(p[i] + p[j]) + 1
            u, y, w = _corner_duffy_rule([hi], [hj], pdeg, 1.0)
            corner = [(u, y, w[0])]
            # (distance of the singular point, kernel) of each logarithm off the pair
            logs = []
            if i == j:
                pieces = [_diagonal_duffy_rule(pdeg, 1.0)]
            elif j == i + 1:
                pieces = [(1.0 - u, y, w) for u, y, w in corner]
            elif i == j + 1:
                pieces = [(u, 1.0 - y, w) for u, y, w in corner]
            else:
                delta = bp[j] - bp[i + 1] if j > i else bp[i] - bp[j + 1]
                pieces, logs = [], [(delta, lambda s, t: np.log(np.abs(t - s)))]
            if i == j == 0:
                pieces = pieces + corner
            else:
                logs.append((bp[i] + bp[j], lambda s, t: np.log(s + t)))
            if i == j == m - 1:
                pieces = pieces + [(1.0 - u, 1.0 - y, -w) for u, y, w in corner]
            else:
                logs.append(((T - bp[i + 1]) + (T - bp[j + 1]), lambda s, t: -np.log(2 * T - s - t)))
            nx, ny = (
                max([int(p[i] + p[j]) + SMOOTH_EXTRA] + [int(_near_log_order(hk, d)) for d, _ in logs])
                for hk in (hi, hj)
            )
            X, Y, W = _tensor_grid(nx, ny)
            s, t = bp[i] + hi * X, bp[j] + hj * Y
            const = np.log(np.pi / (4.0 * T)) + (np.log(hi) if i == j else 0.0)
            g = smooth_remainder(s, t, T) + const + sum(kern(s, t) for _, kern in logs)
            pieces = pieces + [(X, Y, W * g)]
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
    # u1_hp level 6, degrees 1, 4, 6, ..., 18, 18: neighbouring degrees differ
    # most where every singular kind shares the rule of the largest degree
    "u1-hp-level-6": build_mesh(TemporalMeshSpec(T=2, sigma=0.31, mu_hp=2.0, m1=9, m2=1)),
    # u3_hp_graded level 3: far pairs among elements down to 8.3e-14 long,
    # and Duffy kinds of more pairs than one small chunk holds
    "u3-hp-level-3": build_mesh(TemporalMeshSpec(T=2, sigma=0.17, mu_hp=1.0, m1=18, m2=1)),
    # u1_uniform level 4: an end element 1/32 long, where pi/2 - pi(s+t)/4T of
    # the end corner comes closest to rounding
    "u1-uniform-level-4": uniform_mesh(2.0, 64, 1),
}


@pytest.mark.parametrize("chunk_entries", [spatial_fem._CHUNK_ENTRIES, 300], ids=["default", "small-chunks"])
@pytest.mark.parametrize("mesh", PAIR_LOOP_MESHES.values(), ids=PAIR_LOOP_MESHES.keys())
def test_batched_assembly_matches_pair_loop(mesh, chunk_entries, monkeypatch):
    monkeypatch.setattr(spatial_fem, "_CHUNK_ENTRIES", chunk_entries)
    basis = make_basis(mesh)
    tm = assemble(basis)
    for got, ref in zip((tm.M_ht, tm.A_ht, tm.M_cross), _pair_loop_assembly(basis)):
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
