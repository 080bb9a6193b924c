"""Space-time linear system: assemble and solve

    (A_t x M_x + M_t x A_x) u = G

in the tensor basis (temporal transform matrices x spatial P1 matrices),
with the right-hand side <Pi g, (H phi_k) psi_i> of the space-time L2
projection Pi of the forcing onto the unconstrained tensor space. The test
functions psi_i lie in the spatial P1 space and cancel the spatial half of
Pi, so only the temporal projection is computed. Coefficients are stored
temporal-major: row l of the coefficient array holds the spatial nodal vector
of temporal basis function l.

The load and metrics' error surrogate are integrals over the same (0, T) x D.
They share one SpaceTimeQuadrature per level: its temporal rule and its table
of basis values. In space each takes its own rule. The load integrates the
forcing's rough corner factors (r^(2/3) at the re-entrant corner, the
cutoff's kinks) and keeps LOAD_DEGREE; it builds that rule and the problem
data on it itself and drops them before the solve. The error integrates the
smooth-in-x squares of u - u_MN and runs on the coarser ERROR_DEGREE rule,
which the level's SpaceTimeQuadrature holds. The load evaluates the forcing's
remainder, analytic in t, at CHEBYSHEV_TIMES Chebyshev points of [0, T] only
and interpolates its spatial moments to the rule's nodes (Trefethen,
Approximation Theory and Approximation Practice, 2013, ch. 8).

The solver is a Bartels-Stewart sweep (Bartels & Stewart, CACM 1972) over
the real Schur form Z T Z^T of A_t^{-1} M_t: one real sparse factorisation
of M_x + t A_x per 1x1 diagonal block t of T, one complex one per 2x2 block.
Every shift shares the pattern of M_x, so all of them are factored in the
one COLAMD column order that SuperLU finds for M_x, once per level.
Full diagonalisation is avoided because the eigenvector matrix of the
temporal pencil is badly conditioned on geometric hp meshes.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .hilbert import TemporalMatrices
from .spatial_fem import SpatialQuadrature, SpatialSystem
from .temporal_hp import TemporalBasis, basis_matrix, temporal_rule

# Gauss points per temporal element beyond its degree, before order_mult
TEMPORAL_EXTRA = 12
# exactness degrees of the spatial rules (SpatialQuadrature): the load's 49
# points per triangle (6 per interval) take the moments of the forcing's rough
# corner factors; at a fixed solution, the error's 16 (4) put the surrogate
# within 2.6e-4 (u3 hp+graded level 0), 6.1e-6 (level 1) and 5.4e-6 (u1
# uniform level 0) of a 144-point (16 per interval) reference
LOAD_DEGREE = 11
ERROR_DEGREE = 6
# first-kind Chebyshev points of [0, T] at which the load takes the spatial
# moments of the forcing's remainder; against direct evaluation at every node,
# u2 and u3 (levels 0-2) are off by 7e-16 of the largest moment at 20 points,
# 3e-12 at 16 and 2e-8 at 12
CHEBYSHEV_TIMES = 20
# largest gap, relative to the largest moment, between the interpolated and the
# direct moments of the remainder at the rule's first node: u2 and u3 give at
# most 2e-16, a t^0.6 remainder 1e-2
REMAINDER_GAP = 1e-12


@dataclass(frozen=True)
class SpaceTimeSolution:
    coefficients: np.ndarray  # (M, N)
    residual: float


class SpaceTimeQuadrature:
    """One level's quadrature of (0, T) x D: the temporal rule (t, w,
    elements) with (p_j + TEMPORAL_EXTRA) * order_mult Gauss points on
    element j, at least 2, and the values phi and t-derivatives dphi of the
    unconstrained basis at its nodes, shared by the load and the error; the
    error's spatial rule `space` (ERROR_DEGREE) with the problem data `data`
    on its points; and the problem `prob`, from which the load takes its own
    spatial rule's data."""

    def __init__(self, prob, basis: TemporalBasis, sx: SpatialSystem, order_mult=1.0):
        self.T = basis.mesh.T
        self.prob = prob
        self.space = SpatialQuadrature(sx, ERROR_DEGREE)
        self.data = prob.at(self.space.points)
        orders = np.maximum(2, ((basis.mesh.degrees + TEMPORAL_EXTRA) * order_mult).astype(int))
        self.t, self.w, self.elements = temporal_rule(basis.mesh, orders)
        self.phi, self.dphi = basis_matrix(basis, self.t, self.elements)


def _chebyshev_interpolation(t, T):
    """The K = CHEBYSHEV_TIMES first-kind Chebyshev points c of [0, T] and the
    (len(t), K) barycentric matrix B with p(t) = B @ p(c) for every polynomial
    p of degree below K. A node t_i that equals a point c_k gets the unit row e_k."""
    K = CHEBYSHEV_TIMES
    theta = (2 * np.arange(K) + 1) * np.pi / (2 * K)
    c = 0.5 * T * (1.0 - np.cos(theta))
    diff = t[:, None] - c[None, :]
    hit = diff == 0.0
    # the weights (-1)^k sin(theta_k) of the points (Berrut & Trefethen, SIAM Rev. 2004)
    B = (-1.0) ** np.arange(K) * np.sin(theta) / np.where(hit, 1.0, diff)
    B /= B.sum(axis=1, keepdims=True)
    rows = hit.any(axis=1)
    B[rows] = hit[rows]
    return c, B


def _temporal_projection(gram, R):
    """Coefficients in the unconstrained temporal space of the L2 projection
    with mass matrix gram and moments R (one row per basis function)."""
    # geometric meshes span many orders of magnitude in element size; solve
    # the Jacobi-scaled system to keep the mass solve well conditioned
    d = 1.0 / np.sqrt(np.diag(gram))
    return d[:, None] * la.solve(d[:, None] * gram * d[None, :], d[:, None] * R, assume_a="pos")


def project_rhs(rule: SpaceTimeQuadrature, tm: TemporalMatrices, sx: SpatialSystem):
    """Load array <Pi g, (H phi_k) psi_i> (shape M x N) of the space-time L2
    projection Pi of the level's forcing g onto the unconstrained tensor space.

    Testing with the interior P1 functions psi_i cancels the spatial half of
    Pi, so the load is M_cross applied to the temporal projection of the
    moments int g phi_l psi_i, taken on the rule's temporal nodes and on a
    spatial rule of LOAD_DEGREE, built here with the problem data on its
    points and released on return. The mass matrix is the Gram matrix of the
    rule's value table: with TEMPORAL_EXTRA >= 1 the rule is exact for it.

    A separable term a(t) f(x) of g contributes the outer product of its
    temporal and spatial moments. The remainder g_rest, analytic in t on
    [0, T] by its contract, is evaluated at CHEBYSHEV_TIMES Chebyshev points
    only, in chunks, and its moments there are interpolated to the rule's
    nodes. The same call evaluates it at the rule's first node, whose direct
    moments gate the contract: a gap above REMAINDER_GAP raises ValueError."""
    quad = SpatialQuadrature(sx, LOAD_DEGREE)
    ev, t, phi = rule.prob.at(quad.points), rule.t, rule.phi
    phi_w = phi * rule.w[:, None]
    R = np.zeros((phi.shape[1], sx.N))
    for a, f in ev.terms:
        R += np.outer(phi_w.T @ a(t), quad.moments(f))
    if ev.g_rest is not None:
        c, B = _chebyshev_interpolation(t, rule.T)
        times = np.append(c, t[0])
        moments = np.empty((len(times), sx.N))
        for chunk in quad.time_chunks(len(times)):
            moments[chunk] = quad.moments(ev.g_rest(times[chunk, None]))
        at_c, first = moments[:-1], moments[-1]
        gap, scale = np.abs(B[0] @ at_c - first).max(), np.abs(moments).max()
        if gap > REMAINDER_GAP * scale:
            raise ValueError(
                f"the forcing's remainder g_rest is not analytic in t on [0, T]: its moments at "
                f"t = {t[0]:.3g}, interpolated from {CHEBYSHEV_TIMES} Chebyshev times, are off by "
                f"{gap / scale:.1e} of the largest"
            )
        R += (phi_w.T @ B) @ at_c
    return tm.M_cross @ _temporal_projection(phi_w.T @ phi, R)


def solve(tm: TemporalMatrices, sx: SpatialSystem, G) -> SpaceTimeSolution:
    """Solve the space-time system for the load array G (shape M x N).

    With A_t symmetric positive definite, the system reads U M_x + C U A_x =
    A_t^{-1} G for C = A_t^{-1} M_t = Z T Z^T; V = Z^T U is swept from the
    last diagonal block of T up, since a block couples only to the rows below.
    A 2x2 block's eigenvalue s and its right and left eigenvectors x and l give
    V_B = 2 Re(x y) / (l^T x) with y (M_x + s A_x) = l^T R_B."""
    # M_x and A_x share one sparsity pattern, so M_x + s A_x is formed on it
    M_x, A_x = sx.M_x.tocsc(), sx.A_x.tocsc()
    if not (np.array_equal(M_x.indptr, A_x.indptr) and np.array_equal(M_x.indices, A_x.indices)):
        raise ValueError("M_x and A_x must share one sparsity pattern")
    # COLAMD reads the pattern alone, so its column order for M_x serves every shift:
    # M_x + s A_x is factored with its columns in that order, and y = z[perm] undoes it
    perm = spla.splu(M_x).perm_c
    order = np.argsort(perm)
    M_p, A_p = M_x[:, order], A_x[:, order]
    cho = la.cho_factor(0.5 * (tm.A_ht + tm.A_ht.T))
    T, Z = la.schur(la.cho_solve(cho, tm.M_ht), output="real")
    V = Z.T @ la.cho_solve(cho, G)  # overwritten block by block with the solution
    W = np.zeros_like(V)  # rows A_x V_j of the rows already solved
    starts = [0, *(np.flatnonzero(np.diag(T, -1) == 0.0) + 1)]  # 2x2 blocks where T's subdiagonal is nonzero
    for k, end in reversed(list(zip(starts, starts[1:] + [len(T)]))):
        rhs = V[k:end] - T[k:end, end:] @ W[end:]
        if end - k == 1:
            s, x, l = T[k, k], np.ones(1), np.ones(1)
        else:
            (a, b), (c, d) = T[k:end, k:end]
            s = 0.5 * (a + d) + 1j * np.sqrt(-0.25 * (a - d) ** 2 - b * c)
            x, l = np.array([b, s - a]), np.array([c, s - a])
        shifted = sp.csc_matrix((M_p.data + s * A_p.data, M_p.indices, M_p.indptr), shape=M_x.shape)
        y = spla.splu(shifted, permc_spec="NATURAL").solve(l @ rhs)[perm]
        V[k:end] = (end - k) * np.outer(x / (l @ x), y).real  # a pair: 2 Re(x y) / (l^T x)
        W[k:end] = (A_x @ V[k:end].T).T
    U = Z @ V
    # (A_t (x) M_x + M_t (x) A_x) vec(U), row-major, is A_t U M_x + M_t U A_x
    BU = tm.A_ht @ (sx.M_x @ U.T).T + tm.M_ht @ (sx.A_x @ U.T).T
    gnorm = np.linalg.norm(G)
    residual = np.linalg.norm(BU - G) / (gnorm if gnorm > 0 else 1.0)
    return SpaceTimeSolution(coefficients=U, residual=residual)


def solve_heat(rule: SpaceTimeQuadrature, tm: TemporalMatrices, sx: SpatialSystem):
    """Full pipeline for a manufactured problem: build the load on the level's rule, solve."""
    return solve(tm, sx, project_rhs(rule, tm, sx))
