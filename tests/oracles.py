"""Reference implementations the tests compare the package against.

Most evaluate one quantity the direct way: one point, one basis function or
one time at a time, where the package works on whole batches. The others are
paths the study pipeline does not take: the dense system matrix, the scalar
model IVP, the error surrogate of one solution, uniform refinement, the
temporal mass matrix on its own minimal rule, the transform kernel split
into three logarithms and an analytic remainder, the forcings in one closed
form each, the load with the whole forcing at every (node, point) pair and
problems built from plain (t, x) callables.
"""

import numpy as np
import scipy.linalg as la

from spacetime_hp.metrics import functional_from_parts, l2q_error_element_parts
from spacetime_hp.problems import (
    Evaluator,
    ManufacturedProblem,
    _fields,
    _forcing,
    _laplacian_cutoff_times_singular,
    _polar,
    _Regular,
    corner_singular,
    cutoff,
)
from spacetime_hp.solver import LOAD_DEGREE, TEMPORAL_EXTRA, SpaceTimeQuadrature, _temporal_projection
from spacetime_hp.spatial_fem import SpatialQuadrature, refine_edges
from spacetime_hp.temporal_hp import TemporalBasis, basis_matrix, lobatto_shapes, temporal_rule

# largest M * N the dense Kronecker matrix is built for
DENSE_LIMIT = 20_000


def integrate_1d(rule, f, interval) -> float:
    """Integrate f over (a,b) with an affinely mapped reference rule (nodes,
    weights) on [-1,1]."""
    nodes, weights = rule
    a, b = interval
    if not a < b:
        raise ValueError(f"empty interval ({a}, {b})")
    x = 0.5 * (a + b) + 0.5 * (b - a) * nodes
    return 0.5 * (b - a) * float(np.dot(weights, f(x)))


def materialize(tm, sx):
    """Dense matrix A_t (x) M_x + M_t (x) A_x of the space-time system, in the
    row-major order of the coefficient array."""
    M, N = tm.A_ht.shape[0], sx.N
    if M * N > DENSE_LIMIT:
        raise ValueError(f"dense materialization refused for M*N = {M*N} > {DENSE_LIMIT}")
    return np.kron(tm.A_ht, sx.M_x.toarray()) + np.kron(tm.M_ht, sx.A_x.toarray())


def solve_parametric_ivp(mu, f, basis: TemporalBasis, tm):
    """Scalar initial value problem d_t u + mu u = f, u(0) = 0, discretized
    with transformed test functions; the load uses the temporal L2 projection
    of f."""
    if mu < 0:
        raise ValueError(f"parameter mu must be >= 0, got {mu}")
    mesh = basis.mesh
    t, w, elements = temporal_rule(mesh, mesh.degrees + TEMPORAL_EXTRA)
    phi, _ = basis_matrix(basis, t, elements)
    phi_w = phi * w[:, None]
    mom = np.asarray(f(t), dtype=float) @ phi_w
    fhat = _temporal_projection(phi_w.T @ phi, mom[:, None])[:, 0]
    return la.solve(tm.A_ht + mu * tm.M_ht, tm.M_cross @ fhat)


def error_functional(sol, prob, basis, sx, order_mult=1.0):
    """[u - u_MN] = sqrt(||e||_L2(Q) ||d_t e||_L2(Q)) of a space-time solution
    on the temporal basis `basis` and the spatial system sx."""
    rule = SpaceTimeQuadrature(prob, basis, sx, order_mult)
    return functional_from_parts(*(p.sum() for p in l2q_error_element_parts(sol, rule)))


def refine_uniform(mesh):
    """Uniform refinement as two NVB generations: every triangle is split
    into four children and the mesh width halves."""
    once = refine_edges(mesh, np.arange(mesh.num_cells))
    return refine_edges(once, np.arange(once.num_cells))


def kernel(s, t, T):
    """Weakly singular kernel ln[tan(pi(s+t)/4T) tan(pi|t-s|/4T)] of the
    modified Hilbert transform.

    Diverges logarithmically on the diagonal; evaluating at s = t raises.
    """
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    if np.any(s == t):
        raise ValueError("kernel is singular on the diagonal s = t")
    return np.log(
        np.tan(np.pi * (s + t) / (4.0 * T)) * np.tan(np.pi * np.abs(t - s) / (4.0 * T))
    )


def _log_ratio(f, x, series):
    # ln(f(x)/x) for f = tan (analytic for |x| < pi/2) or f = sin (|x| < pi),
    # by its even series near 0. Computed in place: the assembly passes whole
    # chunks of quadrature grids.
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 1e-3
    out = f(x, out=np.empty_like(x))
    np.divide(out, x, out=out, where=~small)
    np.log(out, out=out, where=~small)
    out[small] = series(x[small])
    return out


def smooth_remainder(s, t, T):
    """Analytic part G of the kernel split (plus nothing else)."""
    c = np.pi / (4.0 * T)
    w = s + t
    tan_series = lambda x: x**2 / 3.0 + 7.0 * x**4 / 90.0
    sin_series = lambda x: -(x**2) / 6.0 - x**4 / 180.0
    G = _log_ratio(np.tan, c * np.abs(t - s), tan_series)
    G += _log_ratio(np.sin, c * w, sin_series)
    G -= _log_ratio(np.sin, c * (2.0 * T - w), sin_series)
    return G


def min_angle(mesh) -> float:
    """Smallest interior angle of a triangulation, in radians."""
    p = mesh.vertices[mesh.cells]
    angles = []
    for i in range(3):
        a = p[:, (i + 1) % 3] - p[:, i]
        b = p[:, (i + 2) % 3] - p[:, i]
        cosang = np.sum(a * b, axis=1) / (np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1))
        angles.append(np.arccos(np.clip(cosang, -1, 1)))
    return float(np.min(angles))


def eval_element(basis: TemporalBasis, j, t, derivative=0):
    """All local shape values (or t-derivatives) of element j at times t, as
    a (p_j + 1) x len(t) array."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    a, b = basis.mesh.breakpoints[j], basis.mesh.breakpoints[j + 1]
    xi = 2.0 * (t - a) / (b - a) - 1.0
    vals, ders = lobatto_shapes(basis.mesh.degrees[j], xi)
    if derivative:
        return ders * (2.0 / (b - a))
    return vals


def element_of(basis: TemporalBasis, t):
    """Index of the element containing t (right-continuous at breakpoints)."""
    bp = basis.mesh.breakpoints
    j = int(np.searchsorted(bp, t, side="right")) - 1
    return min(max(j, 0), basis.mesh.m - 1)


def eval_all(basis: TemporalBasis, t, derivative=0):
    """Vector of all basis function values of the unconstrained space (index
    0: the vertex at t=0) at scalar time t."""
    out = np.zeros(basis.num_dofs_full)
    j = element_of(basis, t)
    loc = eval_element(basis, j, t, derivative)[:, 0]
    for k, g in enumerate(basis.dofs[j]):
        if g >= 0:
            out[g] = loc[k]
    return out


def eval_basis(basis: TemporalBasis, global_dof: int, t, derivative=0):
    """Value (derivative=1: time derivative) of one global basis function of
    the constrained space; zero outside its support."""
    if not 0 <= global_dof < basis.num_dofs:
        raise IndexError(f"global dof {global_dof} out of range [0, {basis.num_dofs})")
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.zeros_like(t_arr)
    for j in range(basis.mesh.m):
        local = np.flatnonzero(basis.dofs[j] == global_dof + 1)
        if local.size:
            a, b = basis.mesh.breakpoints[j], basis.mesh.breakpoints[j + 1]
            inside = (t_arr >= a) & (t_arr <= b) if j == basis.mesh.m - 1 else (
                (t_arr >= a) & (t_arr < b)
            )
            if np.any(inside):
                out[inside] = eval_element(basis, j, t_arr[inside], derivative)[local[0]]
    return out if np.ndim(t) else float(out[0])


def eval_coefficients(basis: TemporalBasis, coeffs, t, derivative=0):
    """Evaluate the function with the given coefficient vector of the
    constrained space at times t in [0, T] (right-continuous at breakpoints)."""
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    bp = basis.mesh.breakpoints
    elements = np.clip(np.searchsorted(bp, t_arr, side="right") - 1, 0, basis.mesh.m - 1)
    out = basis_matrix(basis, t_arr, elements)[derivative][:, 1:] @ coeffs
    return out if np.ndim(t) else float(out[0])


def nodal_at_time(basis: TemporalBasis, coefficients, t, derivative=0):
    """Interior nodal vector of the space-time function with the given
    coefficient array (derivative=1: of its time derivative) at time t."""
    return eval_all(basis, t, derivative)[1:] @ coefficients


def temporal_error_functional(basis, coeffs, u, du):
    """The error surrogate sqrt(||e|| ||d_t e||) for purely temporal
    functions (scalar IVP), on the error metric's temporal rule."""
    mesh = basis.mesh
    t, w, elements = temporal_rule(mesh, mesh.degrees + TEMPORAL_EXTRA)
    phi, dphi = basis_matrix(basis, t, elements)
    ev = phi[:, 1:] @ coeffs - u(t)
    ed = dphi[:, 1:] @ coeffs - du(t)
    return functional_from_parts(w @ (ev * ev), w @ (ed * ed))


def temporal_mass(basis: TemporalBasis):
    """Plain temporal mass matrix (no Hilbert transform) of the unconstrained
    space: the Gram matrix of basis_matrix on temporal_rule with p_j + 1
    Gauss points on element j > 0, exact for the degree-2p_j products; the
    first element's substituted rule is exact for them as well."""
    t, w, elements = temporal_rule(basis.mesh, basis.mesh.degrees + 1)
    B, _ = basis_matrix(basis, t, elements)
    return (B.T * w) @ B


# (tau, d_t tau) of the L-shape problems: u = u_reg + tau(t) S(x)
_TAU = {
    "u2": (lambda t: t * np.exp(-t), lambda t: (1.0 - t) * np.exp(-t)),
    "u3": (lambda t: t**0.6 * np.exp(-t), lambda t: np.exp(-t) * (0.6 * t ** (-0.4) - t**0.6)),
}


def forcing_closed_form(name, t, x):
    """The forcing g(t, x) of problem u1, u2 or u3 as one expression: 1 for
    u1, and g_reg + (tau' S - tau Laplace S) on the L-shape."""
    x = np.asarray(x, dtype=float)
    if name == "u1":
        return np.ones(np.broadcast(t, x).shape)
    tau, dtau = _TAU[name]
    r, _ = _polar(x)
    sing = cutoff(r) * corner_singular(x)
    return _Regular(x).forcing(t) + (dtau(t) * sing - tau(t) * _laplacian_cutoff_times_singular(x))


def project_rhs_full_forcing(prob, basis, tm, sx):
    """The load of solver.project_rhs on the same rule, with the whole
    forcing evaluated at every (node, point) pair, the nodes in chunks."""
    mesh = basis.mesh
    quad = SpatialQuadrature(sx, LOAD_DEGREE)
    t, w, elements = temporal_rule(mesh, mesh.degrees + TEMPORAL_EXTRA)
    phi, _ = basis_matrix(basis, t, elements)
    phi_w = phi * w[:, None]
    ev = prob.at(quad.points)
    R = np.zeros((basis.num_dofs_full, sx.N))
    for c in quad.time_chunks(len(t)):
        R += phi_w[c].T @ quad.moments(_forcing(ev, t[c, None]))
    return tm.M_cross @ _temporal_projection(phi_w.T @ phi, R)


def custom_problem(dimension, T, g, u_exact, du_dt_exact):
    """A problem from plain callables (t, x) -> values: its evaluator calls
    each with the time column and broadcasts the result to (nt, npts), and
    states the whole forcing as its remainder. So g must be analytic in t on
    [0, T], as Evaluator.g_rest requires, or the load refuses it."""

    def at(x):
        def broadcast(field):
            def f(t):
                out = np.asarray(field(t, x), dtype=float)
                return np.broadcast_to(out, np.shape(t)[:-1] + (len(x),))

            return f

        u, du_dt = broadcast(u_exact), broadcast(du_dt_exact)
        return Evaluator(exact=lambda t: (u(t), du_dt(t)), terms=(), g_rest=broadcast(g))

    return ManufacturedProblem(dimension=dimension, T=T, **_fields(at))
