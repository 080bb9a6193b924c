"""P1 Lagrangian finite elements on simplicial meshes in one and two space
dimensions: intervals (d = 1) and triangles (d = 2) share one mesh type, one
assembly and one quadrature map from the reference simplex.

2D meshes are triangulations refined by newest-vertex bisection (NVB): a
triangle (v0, v1, v2) carries its refinement edge as (v0, v1) with newest
vertex v2, and bisection produces (v2, v0, w) and (v1, v2, w) for the edge
midpoint w. Conformity is restored by closure rounds. Corner-graded meshes,
and with grading exponent beta = 1 uniform ones, are produced by repeatedly
bisecting every triangle violating the grading size law until none is left.
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from math import factorial

import numpy as np
import scipy.sparse as sp

from .quadrature import gauss_legendre_01, triangle_rule

_EDGE_SHIFT = np.int64(1) << 32
# entries of one (time nodes x quadrature points) stack in the space-time
# quadrature; bounds the memory of problem data evaluated in a batch
_CHUNK_ENTRIES = 2**16


def _edge_key(a, b):
    lo = np.minimum(a, b).astype(np.int64)
    hi = np.maximum(a, b).astype(np.int64)
    return lo * _EDGE_SHIFT + hi


@dataclass(frozen=True)
class SpatialMesh:
    """Simplicial mesh: vertices (n, d) and cells (n_c, d + 1) of vertex
    indices, for d = 1 (intervals) and d = 2 (triangles)."""

    vertices: np.ndarray
    cells: np.ndarray

    def __post_init__(self):
        v = np.ascontiguousarray(self.vertices, dtype=float)
        c = np.ascontiguousarray(self.cells, dtype=np.int64)
        v.setflags(write=False)
        c.setflags(write=False)
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "cells", c)

    @property
    def dim(self):
        return self.vertices.shape[1]

    @property
    def num_vertices(self):
        return len(self.vertices)

    @property
    def num_cells(self):
        return len(self.cells)

    @cached_property
    def jacobians(self):
        """(n_c, d, d) maps of the reference simplex; column k is the edge
        from vertex 0 to vertex k + 1."""
        p = self.vertices[self.cells]
        return (p[:, 1:] - p[:, :1]).transpose(0, 2, 1)

    @cached_property
    def volumes(self):
        return np.abs(np.linalg.det(self.jacobians)) / factorial(self.dim)

    @cached_property
    def diameters(self):
        p = self.vertices[self.cells]
        pairs = combinations(range(self.dim + 1), 2)
        return np.max([np.linalg.norm(p[:, a] - p[:, b], axis=1) for a, b in pairs], axis=0)

    @property
    def h_x(self):
        return float(self.diameters.max())

    @cached_property
    def boundary_mask(self):
        """Vertices of the facets that belong to one cell only. A facet is
        keyed by the first and last of its sorted vertices: its one vertex
        for d = 1, its two for d = 2."""
        c = np.sort(self.cells, axis=1)
        facets = [np.delete(c, k, axis=1) for k in range(self.dim + 1)]
        keys = np.concatenate([_edge_key(f[:, 0], f[:, -1]) for f in facets])
        uniq, counts = np.unique(keys, return_counts=True)
        bnd_facets = uniq[counts == 1]
        mask = np.zeros(self.num_vertices, dtype=bool)
        mask[(bnd_facets // _EDGE_SHIFT).astype(np.int64)] = True
        mask[(bnd_facets % _EDGE_SHIFT).astype(np.int64)] = True
        return mask


def uniform_interval_mesh(domain, n_elements) -> SpatialMesh:
    if n_elements < 2:
        raise ValueError("need at least 2 elements")
    x0, x1 = domain
    left = np.arange(n_elements)
    return SpatialMesh(np.linspace(x0, x1, n_elements + 1)[:, None], np.column_stack([left, left + 1]))


def lshape_mesh() -> SpatialMesh:
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
    cells = np.array(
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
    return SpatialMesh(vertices, cells)


def refine_edges(mesh: SpatialMesh, marked) -> SpatialMesh:
    """Bisect the refinement edges of the marked triangles; NVB closure keeps
    the triangulation conforming. Vertex numbering is deterministic."""
    tris = mesh.cells.copy()
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
    return SpatialMesh(np.asarray(coords), tris)


def _grading_limit(dist, target_hx, beta, radius):
    limit = np.where(
        dist > radius,
        target_hx,
        target_hx * np.maximum(dist, target_hx ** (1.0 / beta)) ** (1.0 - beta),
    )
    return limit


def refine_graded(mesh: SpatialMesh, target_hx, beta, radius) -> SpatialMesh:
    """NVB refinement until every triangle satisfies the corner grading law
    diam <= target_hx * max(dist, target_hx^(1/beta))^(1-beta) near the
    origin (plain target_hx beyond the grading radius)."""
    if not 0.0 < beta <= 1.0:
        raise ValueError(f"grading parameter beta must lie in (0,1], got {beta}")
    if not radius > 0:
        raise ValueError(f"grading radius must be positive, got {radius}")
    current = mesh
    for _ in range(200):
        dist = np.linalg.norm(current.vertices[current.cells], axis=2).min(axis=1)
        limit = _grading_limit(dist, target_hx, beta, radius)
        bad = current.diameters > limit
        if not bad.any():
            return current
        current = refine_edges(current, np.nonzero(bad)[0])
    raise RuntimeError("graded refinement did not terminate")


@dataclass(frozen=True)
class SpatialSystem:
    """Mass/stiffness matrices on the constrained space (interior vertices)."""

    mesh: SpatialMesh
    M_x: sp.csr_matrix
    A_x: sp.csr_matrix
    interior: np.ndarray

    @property
    def N(self):
        return len(self.interior)


def p1_matrices(mesh: SpatialMesh):
    """P1 mass and stiffness matrices on all vertices, in CSR with one
    sparsity pattern. The barycentric gradients of a cell are [-1^T; I] J^-1,
    its stiffness |K| G G^T and its mass |K| (1 + delta) / ((d+1)(d+2))."""
    d = mesh.dim
    vol = mesh.volumes
    if np.any(vol <= 1e-15):
        bad = int(np.argmin(vol))
        raise ValueError(f"degenerate cell {bad} with volume {vol[bad]}")
    G = np.vstack([-np.ones(d), np.eye(d)]) @ np.linalg.inv(mesh.jacobians)  # (n_c, d+1, d)
    K = vol[:, None, None] * (G @ G.transpose(0, 2, 1))
    Mloc = vol[:, None, None] * ((1.0 + np.eye(d + 1)) / ((d + 1) * (d + 2)))
    rows = np.repeat(mesh.cells, d + 1, axis=1).ravel()
    cols = np.tile(mesh.cells, (1, d + 1)).ravel()
    shape = (mesh.num_vertices, mesh.num_vertices)
    M = sp.coo_matrix((Mloc.ravel(), (rows, cols)), shape=shape).tocsr()
    A = sp.coo_matrix((K.ravel(), (rows, cols)), shape=shape).tocsr()
    return M, A


def assemble_spatial(mesh: SpatialMesh) -> SpatialSystem:
    """Mass and stiffness matrices with every boundary vertex eliminated
    (homogeneous Dirichlet conditions on the whole boundary)."""
    M, A = p1_matrices(mesh)
    interior = np.nonzero(~mesh.boundary_mask)[0]
    M_c = M[interior][:, interior].tocsr()
    A_c = A[interior][:, interior].tocsr()
    M_c.sort_indices()
    A_c.sort_indices()
    return SpatialSystem(mesh=mesh, M_x=M_c, A_x=A_c, interior=interior)


class SpatialQuadrature:
    """Fixed quadrature point set over the mesh of a spatial system, with
    helpers for L2 integrals, P1 nodal moments, and FE evaluation at the
    points, all on the interior vertices (the unknowns).

    One reference-simplex rule is mapped onto every cell through the shape
    functions [1 - sum(xi), xi]: 6 Gauss points on intervals, and on
    triangles the collapsed tensor rule triangle_rule(7), 49 points exact to
    total degree 12. Point e*q + i is point i of the rule in cell e, so the
    helpers work on the cell grid: a row of point values is a (cells, q)
    block, and the (q, d + 1) table `shape` maps between the q points and
    the d + 1 vertices of a cell. They act on the last axis, so a stack of
    fields (one per row) is handled at once.
    """

    def __init__(self, sx: SpatialSystem):
        mesh, d = sx.mesh, sx.mesh.dim
        xi, w = gauss_legendre_01(6) if d == 1 else triangle_rule(7)
        xi = xi.reshape(len(w), d)
        self.shape = np.column_stack([1.0 - xi.sum(axis=1), xi])  # (q, d + 1)
        # its transpose, stored C-contiguous: a matmul with the transposed
        # view runs up to twice as slow on the tall (rows*cells, d + 1) blocks
        self.shape_t = np.ascontiguousarray(self.shape.T)
        points = np.einsum("qk,nkd->nqd", self.shape, mesh.vertices[mesh.cells]).reshape(-1, d)
        # 1D problem data take plain x arrays
        self.points = points[:, 0] if d == 1 else points
        self.weights = ((factorial(d) * mesh.volumes)[:, None] * w[None, :]).ravel()
        # interior index of vertex k of cell e at entry e*(d+1) + k; a
        # boundary vertex reads the zero padding column N
        column = np.full(mesh.num_vertices, sx.N)
        column[sx.interior] = np.arange(sx.N)
        self.columns = column[mesh.cells].ravel()
        # 0/1 (N x cell vertices) matrix that sums the cell vertices onto the unknowns
        inner = np.flatnonzero(self.columns < sx.N)
        self.scatter = sp.csr_matrix(
            (np.ones(len(inner)), (self.columns[inner], inner)), shape=(sx.N, len(self.columns))
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
        """Moments int f psi_i against the interior P1 functions, from point
        values of f: each cell's weighted values times `shape`, summed onto
        the unknowns by `scatter`."""
        wf = np.asarray(values) * self.weights
        cell_sums = wf.reshape(-1, len(self.shape)) @ self.shape
        return (self.scatter @ cell_sums.reshape(wf.shape[:-1] + (-1,)).T).T

    def fe_values(self, nodal):
        """Values at the quadrature points of the P1 function with the given
        interior nodal vector (zero on the boundary): each cell's vertex
        values times `shape_t`."""
        nodal = np.asarray(nodal)
        padded = np.zeros(nodal.shape[:-1] + (nodal.shape[-1] + 1,))
        padded[..., :-1] = nodal
        at_vertices = padded.take(self.columns, axis=-1).reshape(-1, len(self.shape_t))
        return (at_vertices @ self.shape_t).reshape(nodal.shape[:-1] + (-1,))


def export_mesh(mesh: SpatialMesh, path):
    """Plain-text mesh dump: vertex coordinates with boundary flags, then
    cell connectivity; deterministic ordering."""
    with open(path, "w") as f:
        f.write(f"# vertices {mesh.num_vertices}\n")
        flagged = np.column_stack([mesh.vertices, mesh.boundary_mask])
        np.savetxt(f, flagged, fmt=["%.17g"] * mesh.dim + ["%d"])
        f.write(f"# cells {mesh.num_cells}\n")
        np.savetxt(f, mesh.cells, fmt="%d")
