"""Space-time linear system: assemble and solve

    (A_t x M_x + M_t x A_x) u = G

in the tensor basis (temporal transform matrices x spatial P1 matrices),
with the right-hand side <Pi g, (H phi_k) psi_i> of the space-time L2
projection Pi of the forcing onto the unconstrained tensor space. The test
functions psi_i lie in the spatial P1 space and cancel the spatial half of
Pi, so only the temporal projection is computed. Coefficients are stored
temporal-major: row l of the coefficient array holds the spatial nodal vector
of temporal basis function l.

The solver is a Bartels-Stewart sweep (Bartels & Stewart, CACM 1972) over
the complex Schur form Q T Q^H of A_t^{-1} M_t: one sparse complex solve with
M_x + T_ii A_x per diagonal entry, in one backward sweep. Full
diagonalisation is avoided because the eigenvector matrix of the temporal
pencil is badly conditioned on geometric hp meshes.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .hilbert import TemporalMatrices
from .spatial_fem import SpatialQuadrature, SpatialSystem
from .temporal_hp import TemporalBasis, basis_matrix, temporal_rule

# Gauss points per temporal element beyond its degree for the load moments
LOAD_EXTRA = 8


@dataclass(frozen=True)
class SpaceTimeSolution:
    coefficients: np.ndarray  # (M, N)
    basis: TemporalBasis
    spatial: SpatialSystem
    residual: float


def _temporal_projection(gram, R):
    """Coefficients in the unconstrained temporal space of the L2 projection
    with mass matrix gram and moments R (one row per basis function)."""
    # geometric meshes span many orders of magnitude in element size; solve
    # the Jacobi-scaled system to keep the mass solve well conditioned
    d = 1.0 / np.sqrt(np.diag(gram))
    return d[:, None] * la.solve(d[:, None] * gram * d[None, :], d[:, None] * R, assume_a="pos")


def project_rhs(prob, basis: TemporalBasis, tm: TemporalMatrices, sx: SpatialSystem):
    """Load array <Pi g, (H phi_k) psi_i> (shape M x N) of the space-time L2
    projection Pi of the forcing prob.g onto the unconstrained tensor space.

    Testing with the interior P1 functions psi_i cancels the spatial half of
    Pi, so the load is M_cross applied to the temporal projection of the
    moments int g phi_l psi_i. Its mass matrix is the Gram matrix of the
    load's basis table: with LOAD_EXTRA >= 1 the rule is exact for it.

    A separable term a(t) f(x) of g contributes the outer product of its
    temporal and spatial moments; only the remainder of g is evaluated at
    every (node, point) pair, with the nodes in chunks. Both are taken on
    the same rule."""
    mesh = basis.mesh
    quad = SpatialQuadrature(sx)
    t, w, elements = temporal_rule(mesh, mesh.degrees + LOAD_EXTRA)
    phi = basis_matrix(basis, t, elements)[0]
    phi_w = phi * w[:, None]
    ev = prob.at(quad.points)
    R = np.zeros((basis.num_dofs_full, sx.N))
    for a, f in ev.terms:
        R += np.outer(phi_w.T @ a(t), quad.moments(f))
    if ev.g_rest is not None:
        # gathered first, so that R takes one matrix product, not an update per node
        moments = np.empty((len(t), sx.N))
        for c in quad.time_chunks(len(t)):
            moments[c] = quad.moments(ev.g_rest(t[c, None]))
        R += phi_w.T @ moments
    return tm.M_cross @ _temporal_projection(phi_w.T @ phi, R)


def solve(tm: TemporalMatrices, sx: SpatialSystem, G, basis: TemporalBasis) -> SpaceTimeSolution:
    """Solve the space-time system for the load array G (shape M x N).

    With A_t symmetric positive definite, the system reads U M_x + C U A_x =
    A_t^{-1} G for C = A_t^{-1} M_t = Q T Q^H; V = Q^H U is swept from the
    last row up, since row i of T couples V_i only to the rows below it."""
    # M_x and A_x share one sparsity pattern, so M_x + T_ii A_x is formed on it
    M_x, A_x = sx.M_x.tocsc(), sx.A_x.tocsc()
    if not (np.array_equal(M_x.indptr, A_x.indptr) and np.array_equal(M_x.indices, A_x.indices)):
        raise ValueError("M_x and A_x must share one sparsity pattern")
    cho = la.cho_factor(0.5 * (tm.A_ht + tm.A_ht.T))
    T, Q = la.schur(la.cho_solve(cho, tm.M_ht), output="complex")
    V = Q.conj().T @ la.cho_solve(cho, G)  # overwritten row by row with the solution
    W = np.zeros_like(V)  # rows A_x V_j of the rows already solved
    for i in reversed(range(len(T))):
        rhs = V[i] - T[i, i + 1 :] @ W[i + 1 :]
        shifted = (M_x.data + T[i, i] * A_x.data, M_x.indices, M_x.indptr)
        V[i] = spla.splu(sp.csc_matrix(shifted, shape=M_x.shape)).solve(rhs)
        W[i] = A_x @ V[i]
    U = Q.real @ V.real - Q.imag @ V.imag
    # (A_t (x) M_x + M_t (x) A_x) vec(U), row-major, is A_t U M_x + M_t U A_x
    BU = tm.A_ht @ (sx.M_x @ U.T).T + tm.M_ht @ (sx.A_x @ U.T).T
    gnorm = np.linalg.norm(G)
    residual = np.linalg.norm(BU - G) / (gnorm if gnorm > 0 else 1.0)
    return SpaceTimeSolution(coefficients=U, basis=basis, spatial=sx, residual=residual)


def solve_heat(prob, basis: TemporalBasis, tm: TemporalMatrices, sx: SpatialSystem):
    """Full pipeline for a manufactured problem: build the load, solve."""
    return solve(tm, sx, project_rhs(prob, basis, tm, sx), basis=basis)
