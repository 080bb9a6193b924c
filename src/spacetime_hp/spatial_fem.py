"""P1 Lagrangian finite elements in one and two space dimensions.

2D meshes are triangulations refined by newest-vertex bisection (NVB): a
triangle (v0, v1, v2) carries its refinement edge as (v0, v1) with newest
vertex v2, and bisection produces (v2, v0, w) and (v1, v2, w) for the edge
midpoint w. Conformity is restored by closure rounds. Corner-graded meshes
are produced by repeatedly bisecting every triangle violating the grading
size law until none is left.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .quadrature import gauss_legendre, triangle_rule

_EDGE_SHIFT = np.int64(1) << 32
# entries of one (time nodes x quadrature points) stack in the space-time
# quadrature; bounds the memory of problem data evaluated in a batch
_CHUNK_ENTRIES = 2**16


@dataclass(frozen=True)
class SpatialMesh1D:
    vertices: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        if np.any(np.diff(v) <= 0):
            raise ValueError("vertices must be strictly increasing")
        v.setflags(write=False)
        object.__setattr__(self, "vertices", v)

    @property
    def num_vertices(self):
        return len(self.vertices)

    @property
    def h_x(self):
        return float(np.diff(self.vertices).max())

    @property
    def boundary_mask(self):
        mask = np.zeros(self.num_vertices, dtype=bool)
        mask[0] = mask[-1] = True
        return mask


def uniform_interval_mesh(domain, n_elements) -> SpatialMesh1D:
    if n_elements < 2:
        raise ValueError("need at least 2 elements")
    x0, x1 = domain
    return SpatialMesh1D(np.linspace(x0, x1, n_elements + 1))


def _edge_key(a, b):
    lo = np.minimum(a, b).astype(np.int64)
    hi = np.maximum(a, b).astype(np.int64)
    return lo * _EDGE_SHIFT + hi


@dataclass(frozen=True)
class SpatialMesh2D:
    vertices: np.ndarray
    triangles: np.ndarray

    def __post_init__(self):
        v = np.ascontiguousarray(self.vertices, dtype=float)
        t = np.ascontiguousarray(self.triangles, dtype=np.int64)
        v.setflags(write=False)
        t.setflags(write=False)
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "triangles", t)

    @property
    def num_vertices(self):
        return len(self.vertices)

    @property
    def num_triangles(self):
        return len(self.triangles)

    @cached_property
    def areas(self):
        p = self.vertices[self.triangles]
        e1 = p[:, 1] - p[:, 0]
        e2 = p[:, 2] - p[:, 0]
        return 0.5 * np.abs(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])

    @cached_property
    def edge_lengths(self):
        p = self.vertices[self.triangles]
        out = np.empty((self.num_triangles, 3))
        for k, (a, b) in enumerate(((0, 1), (1, 2), (2, 0))):
            out[:, k] = np.linalg.norm(p[:, a] - p[:, b], axis=1)
        return out

    @property
    def diameters(self):
        return self.edge_lengths.max(axis=1)

    @property
    def h_x(self):
        return float(self.diameters.max())

    @cached_property
    def boundary_mask(self):
        t = self.triangles
        keys = np.concatenate(
            [_edge_key(t[:, 0], t[:, 1]), _edge_key(t[:, 1], t[:, 2]), _edge_key(t[:, 2], t[:, 0])]
        )
        uniq, counts = np.unique(keys, return_counts=True)
        bnd_edges = uniq[counts == 1]
        mask = np.zeros(self.num_vertices, dtype=bool)
        mask[(bnd_edges // _EDGE_SHIFT).astype(np.int64)] = True
        mask[(bnd_edges % _EDGE_SHIFT).astype(np.int64)] = True
        return mask


def lshape_mesh() -> SpatialMesh2D:
    """Coarse conforming triangulation of (-1,1)^2 minus the closed first
    quadrant square, reentrant corner at the origin; refinement edges are the
    square diagonals pointing at the origin."""
    vertices = np.array(
        [
            [-1.0, -1.0],
            [0.0, -1.0],
            [1.0, -1.0],
            [1.0, 0.0],
            [0.0, 0.0],
            [-1.0, 0.0],
            [-1.0, 1.0],
            [0.0, 1.0],
        ]
    )
    triangles = np.array(
        [
            [0, 4, 1],
            [0, 4, 5],
            [2, 4, 1],
            [2, 4, 3],
            [6, 4, 5],
            [6, 4, 7],
        ],
        dtype=np.int64,
    )
    return SpatialMesh2D(vertices, triangles)


def refine_edges(mesh: SpatialMesh2D, marked) -> SpatialMesh2D:
    """Bisect the refinement edges of the marked triangles; NVB closure keeps
    the triangulation conforming. Vertex numbering is deterministic."""
    tris = mesh.triangles.copy()
    coords = list(mesh.vertices)
    midpoint = {}
    marked = np.atleast_1d(np.asarray(marked, dtype=np.int64))
    split = set(_edge_key(tris[marked, 0], tris[marked, 1]).tolist()) if len(marked) else set()
    guard = 0
    while split:
        guard += 1
        if guard > 500:
            raise RuntimeError("NVB refinement did not terminate")
        # closure: every triangle with a split edge must split its ref edge
        while True:
            keys = [
                _edge_key(tris[:, 0], tris[:, 1]),
                _edge_key(tris[:, 1], tris[:, 2]),
                _edge_key(tris[:, 2], tris[:, 0]),
            ]
            sarr = np.fromiter(sorted(split), dtype=np.int64)
            broken = np.isin(keys[0], sarr) | np.isin(keys[1], sarr) | np.isin(keys[2], sarr)
            need = broken & ~np.isin(keys[0], sarr)
            if not need.any():
                break
            split.update(keys[0][need].tolist())
        for key in sorted(split):
            if key not in midpoint:
                a, b = int(key // _EDGE_SHIFT), int(key % _EDGE_SHIFT)
                midpoint[key] = len(coords)
                coords.append(0.5 * (coords[a] + coords[b]))
        # bisect every triangle whose ref edge is split
        sarr = np.fromiter(sorted(split), dtype=np.int64)
        ref_keys = _edge_key(tris[:, 0], tris[:, 1])
        do = np.isin(ref_keys, sarr)
        keep = tris[~do]
        old = tris[do]
        mids = np.array([midpoint[int(k)] for k in ref_keys[do]], dtype=np.int64)
        child_a = np.column_stack([old[:, 2], old[:, 0], mids])
        child_b = np.column_stack([old[:, 1], old[:, 2], mids])
        tris = np.vstack([keep, child_a, child_b])
        # an edge stays pending while some triangle still contains it whole
        keys = np.concatenate(
            [
                _edge_key(tris[:, 0], tris[:, 1]),
                _edge_key(tris[:, 1], tris[:, 2]),
                _edge_key(tris[:, 2], tris[:, 0]),
            ]
        )
        split &= set(keys.tolist())
    return SpatialMesh2D(np.asarray(coords), tris)


def refine_uniform(mesh: SpatialMesh2D) -> SpatialMesh2D:
    """Uniform refinement as two NVB generations: every triangle is split
    into four children and the mesh width halves."""
    once = refine_edges(mesh, np.arange(mesh.num_triangles))
    return refine_edges(once, np.arange(once.num_triangles))


def _grading_limit(dist, target_hx, beta, radius):
    limit = np.where(
        dist > radius,
        target_hx,
        target_hx * np.maximum(dist, target_hx ** (1.0 / beta)) ** (1.0 - beta),
    )
    return limit


def refine_graded(mesh: SpatialMesh2D, target_hx, beta, radius) -> SpatialMesh2D:
    """NVB refinement until every triangle satisfies the corner grading law
    diam <= target_hx * max(dist, target_hx^(1/beta))^(1-beta) near the
    origin (plain target_hx beyond the grading radius)."""
    if not 0.0 < beta <= 1.0:
        raise ValueError(f"grading parameter beta must lie in (0,1], got {beta}")
    if not radius > 0:
        raise ValueError(f"grading radius must be positive, got {radius}")
    current = mesh
    for _ in range(200):
        dist = np.linalg.norm(current.vertices[current.triangles], axis=2).min(axis=1)
        limit = _grading_limit(dist, target_hx, beta, radius)
        bad = current.diameters > limit
        if not bad.any():
            return current
        current = refine_edges(current, np.nonzero(bad)[0])
    raise RuntimeError("graded refinement did not terminate")


@dataclass(frozen=True)
class SpatialSystem:
    """Mass/stiffness matrices on the constrained space (interior vertices)
    plus their unconstrained counterparts on all vertices, which the tests
    read."""

    mesh: object
    M_x: sp.csr_matrix
    A_x: sp.csr_matrix
    M_full: sp.csr_matrix
    A_full: sp.csr_matrix
    interior: np.ndarray

    @property
    def N(self):
        return len(self.interior)

    @property
    def h_x(self):
        return self.mesh.h_x


def _assemble_1d(mesh: SpatialMesh1D, coefficient):
    v = mesh.vertices
    n = len(v) - 1
    h = np.diff(v)
    if coefficient is None:
        a_vals = np.ones(n)
    else:
        a_vals = np.asarray(coefficient(0.5 * (v[:-1] + v[1:])), dtype=float)
    rows, cols, mdata, adata = [], [], [], []
    for loc_a in range(2):
        for loc_b in range(2):
            rows.append(np.arange(n) + loc_a)
            cols.append(np.arange(n) + loc_b)
            mdata.append(h / 6.0 * (2.0 if loc_a == loc_b else 1.0))
            adata.append(a_vals / h * (1.0 if loc_a == loc_b else -1.0))
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    nv = len(v)
    M = sp.coo_matrix((np.concatenate(mdata), (rows, cols)), shape=(nv, nv)).tocsr()
    A = sp.coo_matrix((np.concatenate(adata), (rows, cols)), shape=(nv, nv)).tocsr()
    return M, A


def _assemble_2d(mesh: SpatialMesh2D, coefficient):
    t = mesh.triangles
    p = mesh.vertices[t]
    nt = len(t)
    e1 = p[:, 1] - p[:, 0]
    e2 = p[:, 2] - p[:, 0]
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    area = 0.5 * np.abs(det)
    if np.any(area <= 1e-15):
        bad = int(np.argmin(area))
        raise ValueError(f"degenerate triangle {bad} with area {area[bad]}")
    # gradients of the barycentric shape functions
    inv = np.empty((nt, 2, 2))
    inv[:, 0, 0] = e2[:, 1] / det
    inv[:, 0, 1] = -e2[:, 0] / det
    inv[:, 1, 0] = -e1[:, 1] / det
    inv[:, 1, 1] = e1[:, 0] / det
    gref = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
    grads = np.einsum("ld,ndk->nlk", gref, inv)
    if coefficient is None:
        flux = grads
    else:
        centroids = p.mean(axis=1)
        C = np.asarray([np.atleast_2d(coefficient(c)) for c in centroids], dtype=float)
        if C.shape[1:] == (1, 1):
            C = C[:, 0, 0][:, None, None] * np.eye(2)[None]
        flux = np.einsum("nkj,nlj->nlk", C, grads)
    K = np.einsum("nlk,nmk,n->nlm", flux, grads, area)
    Mloc = (area[:, None, None] / 12.0) * (np.ones((3, 3)) + np.eye(3))[None]
    rows = np.repeat(t, 3, axis=1).ravel()
    cols = np.tile(t, (1, 3)).ravel()
    nv = mesh.num_vertices
    A = sp.coo_matrix((K.transpose(0, 2, 1).ravel(), (rows, cols)), shape=(nv, nv)).tocsr()
    M = sp.coo_matrix((Mloc.transpose(0, 2, 1).ravel(), (rows, cols)), shape=(nv, nv)).tocsr()
    return M, A


def assemble_spatial(mesh, coefficient=None, dirichlet="all") -> SpatialSystem:
    """Mass and stiffness matrices with homogeneous Dirichlet DOF elimination.

    dirichlet="all" constrains every boundary vertex (the shipped problems
    use the full Dirichlet boundary); a boolean mask per vertex is accepted
    for anything else.
    """
    if isinstance(mesh, SpatialMesh1D):
        M, A = _assemble_1d(mesh, coefficient)
    else:
        M, A = _assemble_2d(mesh, coefficient)
    if isinstance(dirichlet, str):
        if dirichlet != "all":
            raise ValueError(f"unknown dirichlet spec {dirichlet!r}")
        mask = mesh.boundary_mask
    else:
        mask = np.asarray(dirichlet, dtype=bool)
    interior = np.nonzero(~mask)[0]
    M_c = M[interior][:, interior].tocsr()
    A_c = A[interior][:, interior].tocsr()
    M_c.sort_indices()
    A_c.sort_indices()
    return SpatialSystem(mesh=mesh, M_x=M_c, A_x=A_c, M_full=M, A_full=A, interior=interior)


class SpatialQuadrature:
    """Fixed quadrature point set over a spatial mesh with helpers for L2
    integrals, P1 nodal moments, and FE evaluation at the points.

    On triangles this is the collapsed tensor rule triangle_rule(degree + 1),
    exact to total degree 2 * degree: the default degree=6 puts 49 points on
    every triangle, exact to degree 12. On intervals it is a per-element
    Gauss rule. P is the sparse (points x vertices) matrix of P1 shape
    values; the helpers act on the last axis, so a stack of fields (one per
    row) is handled at once.
    """

    def __init__(self, mesh, degree=6):
        self.mesh = mesh
        if isinstance(mesh, SpatialMesh1D):
            v = mesh.vertices
            rule = gauss_legendre(max(2, (degree + 3) // 2 + 2))
            mid = 0.5 * (v[:-1] + v[1:])
            half = 0.5 * np.diff(v)
            self.points = (mid[:, None] + half[:, None] * rule.nodes[None, :]).ravel()
            self.weights = (half[:, None] * rule.weights[None, :]).ravel()
            xi = 0.5 * (rule.nodes + 1.0)
            shape = np.column_stack([1.0 - xi, xi])  # (q, 2)
            cells = np.column_stack([np.arange(len(v) - 1), np.arange(1, len(v))])
        else:
            rule = triangle_rule(degree + 1)
            x, y = rule.nodes[:, 0], rule.nodes[:, 1]
            shape = np.column_stack([1.0 - x - y, x, y])  # (q, 3)
            p = mesh.vertices[mesh.triangles]  # (nt, 3, 2)
            self.points = np.einsum("qk,nkd->nqd", shape, p).reshape(-1, 2)
            self.weights = (2.0 * mesh.areas[:, None] * rule.weights[None, :]).ravel()
            cells = mesh.triangles
        # point e*q + i of element e carries shape[i, k] at vertex cells[e, k]
        cols = np.broadcast_to(cells[:, None, :], (len(cells),) + shape.shape)
        data = np.broadcast_to(shape, cols.shape)
        rows = np.repeat(np.arange(len(self.weights)), shape.shape[1])
        self.P = sp.csr_matrix(
            (data.ravel(), (rows, cols.ravel())), shape=(len(self.weights), mesh.num_vertices)
        )

    def time_chunks(self, n_times):
        """Slices of n_times time nodes, each small enough that a (times x
        points) stack stays near _CHUNK_ENTRIES entries."""
        step = max(1, _CHUNK_ENTRIES // len(self.weights))
        return [slice(i, i + step) for i in range(0, n_times, step)]

    def l2_norm_sq(self, values):
        """Squared L2 norm of point values (one per row of a stack)."""
        sq = (np.asarray(values) ** 2) @ self.weights
        return sq if sq.ndim else float(sq)

    def moments(self, values):
        """Nodal moments int f psi_i = P^T (w f) from point values of f."""
        return (self.P.T @ (np.asarray(values) * self.weights).T).T

    def fe_values(self, nodal):
        """Values P nodal of the P1 function with the given nodal vector at
        the quadrature points."""
        return (self.P @ np.asarray(nodal).T).T


def export_mesh(mesh: SpatialMesh2D, path):
    """Plain-text mesh dump: vertex coordinates with boundary flags, then
    triangle connectivity; deterministic ordering."""
    bnd = mesh.boundary_mask
    with open(path, "w") as f:
        f.write(f"# vertices {mesh.num_vertices}\n")
        for (x, y), b in zip(mesh.vertices, bnd):
            f.write(f"{x:.17g} {y:.17g} {int(b)}\n")
        f.write(f"# triangles {mesh.num_triangles}\n")
        for a, b_, c in mesh.triangles:
            f.write(f"{a} {b_} {c}\n")
