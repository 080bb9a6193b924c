"""Space-time linear system: assemble and solve

    (A_t x M_x + M_t x A_x) u = G

in the tensor basis (temporal transform matrices x spatial P1 matrices),
with the right-hand side obtained from the space-time L2 projection of the
forcing onto the unconstrained tensor space. Coefficients are stored
temporal-major: row l of the coefficient array holds the spatial nodal vector
of temporal basis function l.

Solvers: dense LU on the materialized Kronecker sum (reference path) and a
Bartels-Stewart sweep over the real Schur form of A_t^{-1} M_t (one sparse
SPD solve per real eigenvalue, one coupled 2N solve per complex pair).
"""

import struct
from dataclasses import dataclass

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .hilbert import TemporalMatrices
from .spatial_fem import SpatialQuadrature, SpatialSystem
from .temporal_hp import (
    TemporalBasis,
    basis_matrix,
    temporal_mass,
    temporal_moments,
    temporal_rule,
)

DENSE_LIMIT = 20_000


@dataclass(frozen=True)
class SpaceTimeSolution:
    coefficients: np.ndarray  # (M, N)
    basis: TemporalBasis
    spatial: SpatialSystem
    residual: float

    def nodal_at_time(self, t):
        """Full spatial nodal vector (Dirichlet zeros included) at time t."""
        phi = self.basis.eval_all(t)
        interior_vals = phi @ self.coefficients
        nodal = np.zeros(self.spatial.mesh.num_vertices)
        nodal[self.spatial.interior] = interior_vals
        return nodal

    def nodal_time_derivative(self, t):
        phi = self.basis.eval_all(t, derivative=1)
        nodal = np.zeros(self.spatial.mesh.num_vertices)
        nodal[self.spatial.interior] = phi @ self.coefficients
        return nodal

    def __call__(self, t, x):
        """Point evaluation; slow (triangle search), intended for spot checks."""
        nodal = self.nodal_at_time(t)
        mesh = self.spatial.mesh
        x = np.asarray(x, dtype=float)
        if not hasattr(mesh, "triangles"):
            return np.interp(x, mesh.vertices, nodal)
        pts = np.atleast_2d(x)
        out = np.empty(len(pts))
        p = mesh.vertices[mesh.triangles]
        for i, pt in enumerate(pts):
            v0 = p[:, 0]
            d = p[:, 1:] - v0[:, None, :]
            rhs = pt[None, :] - v0
            det = d[:, 0, 0] * d[:, 1, 1] - d[:, 0, 1] * d[:, 1, 0]
            lam1 = (rhs[:, 0] * d[:, 1, 1] - rhs[:, 1] * d[:, 1, 0]) / det
            lam2 = (-rhs[:, 0] * d[:, 0, 1] + rhs[:, 1] * d[:, 0, 0]) / det
            ok = (lam1 >= -1e-12) & (lam2 >= -1e-12) & (lam1 + lam2 <= 1 + 1e-12)
            if not ok.any():
                raise ValueError(f"point {pt} outside the mesh")
            k = int(np.argmax(ok))
            bary = np.array([1 - lam1[k] - lam2[k], lam1[k], lam2[k]])
            out[i] = nodal[mesh.triangles[k]] @ bary
        return out if x.ndim == 2 else float(out[0])


@dataclass(frozen=True)
class GlobalOperator:
    """Matrix-free application of the Kronecker-sum system matrix."""

    tm: TemporalMatrices
    sx: SpatialSystem

    @property
    def shape(self):
        M = self.tm.A_ht.shape[0]
        return (M, self.sx.N)

    def apply(self, U):
        # (A_t (x) M_x + M_t (x) A_x) vec(U) row-major = A_t U M_x + M_t U A_x
        return self.tm.A_ht @ (self.sx.M_x @ U.T).T + self.tm.M_ht @ (self.sx.A_x @ U.T).T

    def materialize(self):
        M, N = self.shape
        if M * N > DENSE_LIMIT:
            raise ValueError(
                f"dense materialization refused for M*N = {M*N} > {DENSE_LIMIT}"
            )
        return np.kron(self.tm.A_ht, self.sx.M_x.toarray()) + np.kron(
            self.tm.M_ht, self.sx.A_x.toarray()
        )


def project_rhs(prob, basis: TemporalBasis, sx: SpatialSystem, extra_order=8, spatial_degree=6):
    """Space-time L2 projection of the forcing prob.g onto the unconstrained
    tensor space (t=0 vertex and Dirichlet vertices included); returns the
    (M+1) x num_vertices coefficient array."""
    mesh = basis.mesh
    quad = SpatialQuadrature(sx.mesh, degree=spatial_degree)
    first = "power" if prob.temporal_singularity else None
    t, w, elements = temporal_rule(mesh, mesh.degrees + extra_order, first)
    phi_w = basis_matrix(basis, t, elements, constrained=False) * w[:, None]
    g = prob.at(quad.points).g
    R = np.zeros((basis.num_dofs_full, sx.mesh.num_vertices))
    for c in quad.time_chunks(len(t)):
        R += phi_w[c].T @ quad.moments(g(t[c, None]))
    Mt_full = temporal_mass(basis, constrained=False)
    # geometric meshes span many orders of magnitude in element size; solve
    # the Jacobi-scaled system to keep the mass solve well conditioned
    d = 1.0 / np.sqrt(np.diag(Mt_full))
    R = d[:, None] * la.solve(d[:, None] * Mt_full * d[None, :], d[:, None] * R, assume_a="pos")
    lu = spla.splu(sp.csc_matrix(sx.M_full))
    return lu.solve(R.T).T


def rhs_from_projection(tm: TemporalMatrices, sx: SpatialSystem, ghat):
    """Moments <Pi g, (H phi_k) psi_i> of the projected forcing against the
    transformed test functions; returns the (M, N) load array."""
    return tm.M_cross @ ghat @ sx.M_full[:, sx.interior]


def _schur_blocks(T):
    M = len(T)
    scale = max(np.abs(T).max(), 1.0)
    blocks = []
    i = 0
    while i < M:
        if i + 1 < M and abs(T[i + 1, i]) > 1e-14 * scale:
            blocks.append((i, 2))
            i += 2
        else:
            blocks.append((i, 1))
            i += 1
    return blocks


def _solve_bartels_stewart(tm, sx, G):
    A_t, M_t = tm.A_ht, tm.M_ht
    M_x, A_x = sx.M_x, sx.A_x
    cho = la.cho_factor(0.5 * (A_t + A_t.T))
    C = la.cho_solve(cho, M_t)
    Gt = la.cho_solve(cho, G)
    T, Q = la.schur(C, output="real")
    H = Q.T @ Gt
    M, N = G.shape
    V = np.zeros((M, N))
    W = np.zeros((M, N))  # rows V_b A_x, accumulated for the sweep
    for start, size in reversed(_schur_blocks(T)):
        hi = start + size
        rhs = H[start:hi].copy()
        if hi < M:
            rhs -= T[start:hi, hi:] @ W[hi:]
        if size == 1:
            lam = T[start, start]
            op = sp.csc_matrix(M_x + lam * A_x)
            V[start] = spla.splu(op).solve(rhs[0])
        else:
            t11, t12 = T[start, start], T[start, start + 1]
            t21, t22 = T[start + 1, start], T[start + 1, start + 1]
            op = sp.bmat(
                [[M_x + t11 * A_x, t12 * A_x], [t21 * A_x, M_x + t22 * A_x]], format="csc"
            )
            vv = spla.splu(op).solve(np.concatenate([rhs[0], rhs[1]]))
            V[start] = vv[:N]
            V[start + 1] = vv[N:]
        W[start:hi] = (A_x @ V[start:hi].T).T
    return Q @ V


def solve(tm: TemporalMatrices, sx: SpatialSystem, G, strategy="auto", basis: TemporalBasis | None = None) -> SpaceTimeSolution:
    """Solve the space-time system for the load array G (shape M x N)."""
    M, N = G.shape
    if strategy == "auto":
        strategy = "dense" if M * N <= 2000 else "bartels-stewart"
    op = GlobalOperator(tm, sx)
    if strategy == "dense":
        B = op.materialize()
        U = la.lu_solve(la.lu_factor(B), G.ravel()).reshape(M, N)
    elif strategy == "bartels-stewart":
        U = _solve_bartels_stewart(tm, sx, G)
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    gnorm = np.linalg.norm(G)
    residual = np.linalg.norm(op.apply(U) - G) / (gnorm if gnorm > 0 else 1.0)
    return SpaceTimeSolution(coefficients=U, basis=basis, spatial=sx, residual=residual)


def solve_heat(prob, basis: TemporalBasis, tm: TemporalMatrices, sx: SpatialSystem, strategy="auto"):
    """Full pipeline for a manufactured problem: project the forcing, build
    the load, solve."""
    ghat = project_rhs(prob, basis, sx)
    G = rhs_from_projection(tm, sx, ghat)
    return solve(tm, sx, G, strategy=strategy, basis=basis)


def solve_parametric_ivp(mu, f, basis: TemporalBasis, tm: TemporalMatrices, singular_first_element=False):
    """Scalar initial value problem d_t u + mu u = f, u(0) = 0, discretized
    with transformed test functions; the load uses the temporal L2 projection
    of f."""
    if mu < 0:
        raise ValueError(f"parameter mu must be >= 0, got {mu}")
    mom = temporal_moments(
        basis, f, constrained=False, singular_first_element=singular_first_element
    )
    Mt_full = temporal_mass(basis, constrained=False)
    d = 1.0 / np.sqrt(np.diag(Mt_full))
    fhat = d * la.solve(d[:, None] * Mt_full * d[None, :], d * mom, assume_a="pos")
    rhs = tm.M_cross @ fhat
    return la.solve(tm.A_ht + mu * tm.M_ht, rhs)


def save_solution(sol: SpaceTimeSolution, path):
    """Binary dump with header (M, N, temporal mesh hash, spatial mesh hash)."""
    M, N = sol.coefficients.shape
    with open(path, "wb") as f:
        f.write(
            struct.pack(
                "<QQQQ", M, N, sol.basis.mesh.signature(), sol.spatial.mesh.signature()
            )
        )
        f.write(np.ascontiguousarray(sol.coefficients, dtype="<f8").tobytes())


def load_solution(path, basis=None, spatial=None):
    with open(path, "rb") as f:
        M, N, tsig, xsig = struct.unpack("<QQQQ", f.read(32))
        if basis is not None and tsig != basis.mesh.signature():
            raise ValueError("solution dump does not match the temporal mesh")
        if spatial is not None and xsig != spatial.mesh.signature():
            raise ValueError("solution dump does not match the spatial mesh")
        data = np.frombuffer(f.read(M * N * 8), dtype="<f8")
    return data.reshape(M, N).copy()
