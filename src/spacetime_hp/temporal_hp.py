"""Temporal hp discretization: geometrically graded meshes with linearly
increasing polynomial degrees, Lobatto (integrated Legendre) shape functions,
and the quasi-interpolation operator used as a testing oracle.

The trial space consists of continuous piecewise polynomials on (0,T) that
vanish at t=0. Global DOF ordering: vertex DOFs at t_1..t_m first (by
breakpoint index), then per-element interior bubbles in increasing order.
"""

from dataclasses import dataclass, field
from math import floor

import numpy as np

from .quadrature import gauss_legendre, legendre_values


@dataclass(frozen=True)
class TemporalMeshSpec:
    """Parameters of the geometric temporal mesh.

    sigma is the geometric grading factor, mu_hp the degree slope, m1 the
    number of geometric elements on (0, T1) and m2 the number of uniform
    elements on (T1, T) with T1 = min(1, T). m2 is forced to 0 when T <= 1.
    """

    T: float
    sigma: float
    mu_hp: float
    m1: int
    m2: int = 0

    def __post_init__(self):
        if not self.T > 0:
            raise ValueError(f"final time must be positive, got T={self.T}")
        if not 0.0 < self.sigma < 1.0:
            raise ValueError(f"grading parameter sigma must lie in (0,1), got {self.sigma}")
        if not self.m1 > 2:
            raise ValueError(f"m1 must be an integer > 2, got {self.m1}")
        if not self.mu_hp >= 1.0:
            raise ValueError(f"slope parameter mu_hp must be >= 1, got {self.mu_hp}")
        if not self.m2 >= 0:
            raise ValueError(f"m2 must be >= 0, got {self.m2}")
        if self.T <= 1.0 and self.m2 != 0:
            object.__setattr__(self, "m2", 0)
        tail = np.diff(_tail_breakpoints(self.T, self.m2), prepend=1.0)
        if self.T > 1.0 and (self.m2 == 0 or np.any(tail <= 0)):
            raise ValueError(
                f"the tail (T1, T) = (1, {self.T}) needs m2 >= 1 elements of positive length; "
                f"got m2={self.m2} at T - T1 = {self.T - 1.0:.3g}"
            )


def _tail_breakpoints(T, m2):
    """Breakpoints T1 + (T - T1) k / m2, k = 1..m2, with T1 = min(1, T)."""
    T1 = min(1.0, T)
    return T1 + (T - T1) * np.arange(1, m2 + 1) / m2


@dataclass(frozen=True)
class TemporalMesh:
    """Partition 0 = t_0 < ... < t_m = T with per-element degrees p_1..p_m."""

    breakpoints: np.ndarray
    degrees: np.ndarray

    @property
    def T(self):
        return float(self.breakpoints[-1])

    @property
    def m(self):
        return len(self.degrees)

    @property
    def element_lengths(self):
        return np.diff(self.breakpoints)

    @property
    def k_max(self):
        return float(self.element_lengths.max())

    @property
    def num_dofs(self):
        """Dimension of the constrained space: M = sum_j p_j."""
        return int(self.degrees.sum())

    @classmethod
    def from_arrays(cls, breakpoints, degrees):
        breakpoints = np.asarray(breakpoints, dtype=float)
        degrees = np.asarray(degrees, dtype=int)
        if breakpoints[0] != 0.0 or np.any(np.diff(breakpoints) <= 0):
            raise ValueError("breakpoints must satisfy 0 = t_0 < t_1 < ... < t_m")
        if len(degrees) != len(breakpoints) - 1 or np.any(degrees < 1):
            raise ValueError("need one degree >= 1 per element")
        breakpoints.setflags(write=False)
        degrees.setflags(write=False)
        return cls(breakpoints, degrees)


def build_mesh(spec: TemporalMeshSpec) -> TemporalMesh:
    """Geometric mesh with breakpoints T1*sigma^(m1-j), uniform beyond T1,
    and degrees p_1 = 1, p_j = floor(mu_hp*j)."""
    T1 = min(1.0, spec.T)
    t = np.zeros(spec.m1 + spec.m2 + 1)
    for j in range(1, spec.m1 + 1):
        t[j] = T1 * spec.sigma ** (spec.m1 - j)
    t[spec.m1 + 1 :] = _tail_breakpoints(spec.T, spec.m2)
    p = np.empty(spec.m1 + spec.m2, dtype=int)
    p[0] = 1
    for j in range(2, spec.m1 + 1):
        p[j - 1] = floor(spec.mu_hp * j)
    p[spec.m1 :] = floor(spec.mu_hp * spec.m1)
    return TemporalMesh.from_arrays(t, p)


def uniform_mesh(T: float, m: int, p: int) -> TemporalMesh:
    """Equispaced mesh on (0,T) with constant degree p."""
    if m < 1 or p < 1:
        raise ValueError(f"need m >= 1 and p >= 1, got m={m}, p={p}")
    return TemporalMesh.from_arrays(np.linspace(0.0, T, m + 1), np.full(m, p, dtype=int))


def hp_condition_report(spec: TemporalMeshSpec, delta=1.0, eps=0.5):
    """Advisory check of the slope/tail-element parameter conditions for
    exponential convergence; returns a list of warning strings (may be empty).

    Deliberately not enforced: studies are allowed to run outside these
    conditions.
    """
    warnings = []
    bound = (1.0 - spec.sigma) * delta / (2.0 * spec.sigma ** ((3.0 + eps) / 2.0))
    if not spec.mu_hp > bound:
        warnings.append(
            f"slope parameter mu_hp={spec.mu_hp} does not exceed "
            f"(1-sigma)*delta/(2*sigma^((3+eps)/2)) = {bound:.6g} "
            f"(delta={delta}, eps={eps})"
        )
    if spec.T > 1.0:
        T1 = 1.0
        bound2 = (spec.T - T1) / 4.0 * delta * spec.sigma ** (
            -(1.0 + eps) / (2.0 * floor(spec.mu_hp))
        )
        if not spec.m2 > bound2:
            warnings.append(
                f"tail element count m2={spec.m2} does not exceed "
                f"(T-T1)/4*delta*sigma^(-(1+eps)/(2*floor(mu_hp))) = {bound2:.6g}"
            )
    return warnings


def lobatto_shapes(p, xi):
    """Values and xi-derivatives of the p+1 Lobatto shape functions on [-1,1].

    N_1 = (1-xi)/2, N_2 = (1+xi)/2, and bubbles N_l = int_{-1}^xi L_{l-2} for
    l >= 3, realized through (L_{l-1} - L_{l-3})/(2l-3); hence N_l' = L_{l-2}.
    Returns arrays of shape (p+1, len(xi)).
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    L = legendre_values(max(p, 1), xi)
    vals = np.empty((p + 1, xi.size))
    ders = np.empty((p + 1, xi.size))
    vals[0] = 0.5 * (1.0 - xi)
    vals[1] = 0.5 * (1.0 + xi)
    ders[0] = -0.5
    ders[1] = 0.5
    for ell in range(3, p + 2):
        vals[ell - 1] = (L[ell - 1] - L[ell - 3]) / (2 * ell - 3)
        ders[ell - 1] = L[ell - 2]
    return vals, ders


@dataclass(frozen=True)
class TemporalBasis:
    """Lobatto hierarchical basis on a temporal mesh.

    dofs[j, k] is the index of local shape k (N_1, N_2, then the bubbles) of
    element j in the unconstrained space, whose index 0 is the vertex at t=0;
    the constrained space drops that vertex, so its indices are dofs - 1.
    Slots beyond an element's degree hold -1.
    """

    mesh: TemporalMesh
    dofs: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        m, p = self.mesh.m, self.mesh.degrees
        dofs = np.full((m, int(p.max()) + 1), -1)
        dofs[:, 0], dofs[:, 1] = np.arange(m), np.arange(1, m + 1)
        # the bubbles of element j follow the m+1 vertices and those of elements < j
        k = np.arange(dofs.shape[1] - 2)
        first = m + 1 + np.cumsum(p - 1) - (p - 1)
        dofs[:, 2:] = np.where(k < (p - 1)[:, None], first[:, None] + k, -1)
        dofs.setflags(write=False)
        object.__setattr__(self, "dofs", dofs)

    @property
    def num_dofs(self):
        return self.mesh.num_dofs

    @property
    def num_dofs_full(self):
        return self.mesh.num_dofs + 1


def make_basis(mesh: TemporalMesh) -> TemporalBasis:
    return TemporalBasis(mesh)


def element_gauss(mesh: TemporalMesh, j, n):
    """Gauss points/weights on element j."""
    a, b = mesh.breakpoints[j], mesh.breakpoints[j + 1]
    x, w = gauss_legendre(n)
    return 0.5 * (a + b) + 0.5 * (b - a) * x, 0.5 * (b - a) * w


# substitution exponent of the first element's rule: t = t_1 tau^5
FIRST_POWER = 5
# least number of points of the first element's rule
FIRST_MIN_POINTS = 32


def element_gauss_power(mesh: TemporalMesh, j, n):
    """Gauss rule on element j under the substitution t = a + k*tau^5,
    absorbing algebraic endpoint singularities at the left endpoint."""
    a, b = mesh.breakpoints[j], mesh.breakpoints[j + 1]
    k = b - a
    x, w = gauss_legendre(n)
    tau = 0.5 * (x + 1.0)
    return a + k * tau**FIRST_POWER, 0.5 * w * k * FIRST_POWER * tau ** (FIRST_POWER - 1)


def temporal_rule(mesh: TemporalMesh, orders):
    """Quadrature rule of the whole mesh: nodes, weights and the element of
    each node, in time order.

    Element j > 0 gets an orders[j]-point Gauss rule. The solutions are
    analytic on (0, T] and non-smooth only at t = 0, so the first element
    always gets the t = t_1 tau^5 substitution, with max(32, orders[0],
    5 p_1 + 3) points: the last keeps every product of two first-element
    shapes (degree 10 p_1 + 4 in tau) exact.
    """
    p1 = int(mesh.degrees[0])
    n1 = max(FIRST_MIN_POINTS, int(orders[0]), FIRST_POWER * p1 + 3)
    parts = [element_gauss_power(mesh, 0, n1)]
    parts += [element_gauss(mesh, j, int(orders[j])) for j in range(1, mesh.m)]
    nodes, weights = zip(*parts)
    elements = np.repeat(np.arange(mesh.m), [len(t) for t in nodes])
    return np.concatenate(nodes), np.concatenate(weights), elements


def basis_matrix(basis: TemporalBasis, t, elements):
    """Values and t-derivatives of all basis functions of the unconstrained
    space at the nodes t, stacked as two (nodes x dofs) tables whose column 0
    is the vertex at t=0; elements[i] is the element of t[i].

    The shapes are hierarchical, so one table of the p_max + 1 shapes at all
    nodes serves every element, which reads its first p_j + 1 rows."""
    bp, p = basis.mesh.breakpoints, basis.mesh.degrees
    a, b = bp[elements], bp[elements + 1]
    vals, ders = lobatto_shapes(int(p.max()), 2.0 * (t - a) / (b - a) - 1.0)
    cols = basis.dofs[elements]  # (nodes, p_max + 1), -1 beyond the degree
    keep = cols >= 0
    tables = np.zeros((2, len(t), basis.num_dofs_full))
    for table, shapes in zip(tables, (vals, ders * (2.0 / (b - a)))):
        table[np.nonzero(keep)[0], cols[keep]] = shapes.T[keep]
    return tables


def quasi_interpolant(basis: TemporalBasis, v, dv):
    """Coefficients of the temporal quasi-interpolant of v (with v(0) = 0).

    Vertex DOFs take the nodal values v(t_j); on each element the bubble
    coefficients are the Legendre coefficients of the L2 projection of v' onto
    degree p_j - 1, so the interpolant is nodally exact and its derivative is
    the element-wise L2 projection of v'. For p_1 = 1 the first element
    reduces to the linear interpolant v(t_1)*t/t_1. The projection uses
    2 p_j + 8 Gauss points on element j.
    """
    mesh = basis.mesh

    def v_at(t):
        return float(np.atleast_1d(np.asarray(v(np.array([t]))))[0])

    if abs(v_at(0.0)) > 1e-12:
        raise ValueError("quasi-interpolant requires v(0) = 0")
    coeffs = np.zeros(basis.num_dofs)
    for j in range(mesh.m):
        coeffs[j] = v_at(mesh.breakpoints[j + 1])
    for j in range(mesh.m):
        p = int(mesh.degrees[j])
        if p < 2:
            continue
        a, b = mesh.breakpoints[j], mesh.breakpoints[j + 1]
        xi, w = gauss_legendre(2 * p + 8)
        t = 0.5 * (a + b) + 0.5 * (b - a) * xi
        dv_ref = np.asarray(dv(t), dtype=float) * (0.5 * (b - a))  # derivative in xi units
        L = legendre_values(p - 1, xi)
        for ell in range(3, p + 2):
            k = ell - 2
            c = (2 * k + 1) / 2.0 * np.dot(w, dv_ref * L[k])
            coeffs[basis.dofs[j, ell - 1] - 1] = c
    return coeffs
