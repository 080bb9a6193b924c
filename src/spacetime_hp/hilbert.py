"""Assembly of the dense temporal matrices of the transformed bilinear forms,
M[k,l] = <phi_l, H phi_k> and A[k,l] = <d_t phi_l, H phi_k>, from the weakly
singular integral representation of the modified Hilbert transform.

The kernel ln[tan(pi(s+t)/4T) tan(pi|t-s|/4T)] is split exactly into

    ln|t-s| + ln(s+t) - ln(2T-s-t) + ln(pi/4T) + G(s,t),

where G collects the analytic remainders ln(tan(x)/x) and ln(sin(x)/x). Where
a logarithm's singular point touches an element pair, it is integrated with
Duffy-type maps whose radial direction is handled by a Gauss rule exact for
polynomials against ln(x): diagonal pairs split along s=t, and pairs meeting
the singular point in a corner split along the weighted diagonal. These are
O(m) pairs, each integrated on its own with the shapes of its exact degrees.

Every other piece, including G with the constants on all m^2 pairs, uses
tensor Gauss with orders driven by the distance of the singularity
(Bernstein ellipse estimate). The pairs of each piece are grouped by their
grid (nx, ny) and walked in chunks of about spatial_fem._CHUNK_ENTRIES grid
values. For a chunk, the weighted kernel values F (pairs x nx x ny) give
both element blocks by sum factorisation, (dN_x @ F) @ [N_y | dN_y], from 1D
Lobatto tables for the largest degree; the shapes are hierarchical, so a
degree-p element reads the first p+1 rows. All polynomial factors are
integrated exactly; only analytic factors carry quadrature error, controlled
by order doubling. The element blocks reach the global arrays in one
index-array accumulation.
"""

from dataclasses import dataclass
from functools import lru_cache
from math import ceil, log

import numpy as np

from . import spatial_fem
from .quadrature import gauss_legendre_01, log_weighted_rule
from .temporal_hp import TemporalBasis, TemporalMesh, lobatto_shapes


# Gauss orders per direction; assemble's multiplier scales every one of them
SMOOTH_EXTRA = 6  # analytic remainder G on pair (i, j): p_i + p_j + SMOOTH_EXTRA
LOG_EXTRA = 3  # log-weighted Duffy rules: (p_i + p_j + 1) // 2 + LOG_EXTRA
ANGULAR_SMOOTH_MIN = 20  # floor of the angular order in the corner Duffy rules
TARGET_EXPONENT = 16.1  # near-singular tensor Gauss: error ~ rho^(-2n) ~ e^(-2 TARGET_EXPONENT)
MAX_ORDER = 48


def _scaled(n, multiplier):
    return max(2, ceil(n * multiplier))


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


@dataclass(frozen=True)
class TemporalMatrices:
    """Dense transform matrices on the constrained temporal space, plus the
    cross mass matrix whose column side includes the vertex at t=0."""

    M_ht: np.ndarray
    A_ht: np.ndarray
    M_cross: np.ndarray


def _near_log_order(h, delta, pdeg, multiplier):
    # Gauss order for a log singularity at distance delta beyond an interval
    # of length h: error ~ rho^(-2n) with the Bernstein ellipse radius rho.
    # Elementwise over arrays of (h, delta, pdeg).
    r = 1.0 + 2.0 * np.maximum(delta, 1e-300) / h
    rho = r + np.sqrt(r * r - 1.0)
    with np.errstate(divide="ignore"):
        n_analytic = np.where(rho > 1.0, np.ceil(TARGET_EXPONENT / np.log(rho)), MAX_ORDER)
    n = np.minimum(np.maximum(pdeg // 2 + 4, n_analytic), MAX_ORDER)
    return np.maximum(2, np.ceil(n * multiplier)).astype(int)


@lru_cache(maxsize=64)
def _tensor_grid(nx, ny):
    """Tensor Gauss grid on the unit square, flattened. Cached on the two
    orders: every assembly asks again for the same handful of grids. The
    arrays are shared, hence read-only."""
    x, wx = gauss_legendre_01(nx)
    y, wy = gauss_legendre_01(ny)
    X, Y = np.meshgrid(x, y, indexing="ij")
    grid = (X.ravel(), Y.ravel(), np.outer(wx, wy).ravel())
    for a in grid:
        a.setflags(write=False)
    return grid


def _corner_duffy_pieces(c1, c2, pdeg, multiplier):
    """Quadrature pieces for int_0^1 int_0^1 F(u,y) ln(c1*u + c2*y) du dy with
    F polynomial of total degree <= pdeg; returns tuples (u, y, w)."""
    n_log = _scaled(pdeg // 2 + LOG_EXTRA, multiplier)
    n_ang = _scaled(max(pdeg // 2 + LOG_EXTRA, ANGULAR_SMOOTH_MIN), multiplier)
    lr_x, lr_w = log_weighted_rule(n_log)
    g_ang, w_ang = gauss_legendre_01(n_ang)
    g_rad, w_rad = gauss_legendre_01(n_log + 2)
    pieces = []
    # region y <= u, y = u*v: ln = ln u + ln(c1 + c2 v)
    U, V = np.meshgrid(lr_x, g_ang, indexing="ij")
    W = np.outer(lr_w, w_ang) * U
    pieces.append((U.ravel(), (U * V).ravel(), W.ravel()))
    U, V = np.meshgrid(g_rad, g_ang, indexing="ij")
    W = np.outer(w_rad, w_ang) * U * np.log(c1 + c2 * V)
    pieces.append((U.ravel(), (U * V).ravel(), W.ravel()))
    # region u < y, u = y*v: ln = ln y + ln(c2 + c1 v)
    Y, V = np.meshgrid(lr_x, g_ang, indexing="ij")
    W = np.outer(lr_w, w_ang) * Y
    pieces.append(((Y * V).ravel(), Y.ravel(), W.ravel()))
    Y, V = np.meshgrid(g_rad, g_ang, indexing="ij")
    W = np.outer(w_rad, w_ang) * Y * np.log(c2 + c1 * V)
    pieces.append(((Y * V).ravel(), Y.ravel(), W.ravel()))
    return pieces


def _diagonal_duffy_pieces(pdeg, multiplier):
    """Pieces for int int F(x,y) ln|y - x| dx dy over the unit square,
    exact for polynomial F of degree <= pdeg per variable."""
    n_log = n_ang = _scaled(pdeg // 2 + LOG_EXTRA, multiplier)
    lr_x, lr_w = log_weighted_rule(n_log)
    g_ang, w_ang = gauss_legendre_01(n_ang)
    g_rad, w_rad = gauss_legendre_01(n_log + 2)
    pieces = []
    # triangle x < y, x = y*v: ln(y - x) = ln y + ln(1 - v)
    Y, V = np.meshgrid(lr_x, g_ang, indexing="ij")
    W = np.outer(lr_w, w_ang) * Y
    pieces.append(((Y * V).ravel(), Y.ravel(), W.ravel()))
    Y, VH = np.meshgrid(g_rad, lr_x, indexing="ij")  # ln(1-v): v = 1 - vhat
    W = np.outer(w_rad, lr_w) * Y
    pieces.append(((Y * (1.0 - VH)).ravel(), Y.ravel(), W.ravel()))
    # triangle y < x, y = x*v
    X, V = np.meshgrid(lr_x, g_ang, indexing="ij")
    W = np.outer(lr_w, w_ang) * X
    pieces.append((X.ravel(), (X * V).ravel(), W.ravel()))
    X, VH = np.meshgrid(g_rad, lr_x, indexing="ij")
    W = np.outer(w_rad, lr_w) * X
    pieces.append((X.ravel(), (X * (1.0 - VH)).ravel(), W.ravel()))
    return pieces


def _singular_pieces(mesh: TemporalMesh, multiplier):
    """Yields ((i, j), Duffy pieces (x, y, w) on the unit square) for the
    O(m) element pairs that touch a singular point: ln|t-s| on diagonal and
    adjacent pairs, ln(s+t) at (0,0) and -ln(2T-s-t) at (m-1,m-1)."""
    h, p, last = mesh.element_lengths, mesh.degrees, mesh.m - 1
    pdeg = lambda i, j: int(p[i] + p[j]) + 1
    corner = lambda i, j: _corner_duffy_pieces(h[i], h[j], pdeg(i, j), multiplier)
    for i in range(mesh.m):
        pieces = _diagonal_duffy_pieces(pdeg(i, i), multiplier)
        if i == 0:
            pieces += corner(0, 0)
        if i == last:
            pieces += [(1.0 - u, 1.0 - y, -w) for u, y, w in corner(i, i)]
        yield (i, i), pieces
        if i < last:
            # s-element left of the t-element: corner at x=1, y=0; mirrored below
            yield (i, i + 1), [(1.0 - u, y, w) for u, y, w in corner(i, i + 1)]
            yield (i + 1, i), [(u, 1.0 - y, w) for u, y, w in corner(i + 1, i)]


def assemble(basis: TemporalBasis, multiplier=1.0) -> TemporalMatrices:
    """Assembly of the transform matrices, batched over element pairs.

    The row index runs over the transformed (differentiated) side and must
    vanish at t=0; the column side of the cross mass matrix additionally
    includes the vertex function at t=0, which the load of the projected
    forcing needs. `multiplier` scales every quadrature order (the
    order-doubling checks pass 1.5 and 2).
    """
    mesh = basis.mesh
    T, m, p, bp = mesh.T, mesh.m, mesh.degrees, mesh.breakpoints
    P = int(p.max()) + 1  # hierarchical shapes: degree p uses the first p+1 rows
    a, b, h = bp[:-1], bp[1:], mesh.element_lengths
    I, J = (v.ravel() for v in np.indices((m, m)))  # pair k is (I[k], J[k])
    pp = p[I] + p[J]
    c0 = log(np.pi / (4.0 * T))

    # tensor-Gauss pieces: (pairs on a grid, distance of the singularity or
    # None for G, kernel for elements i, j (pairs x 1 x 1) at nodes x (column)
    # and y (row) of the unit square)
    def smooth(i, j, x, y):  # G plus the constants; ln|t-s| leaves ln(h) on the diagonal
        const = c0 + np.where(i == j, np.log(h[i]), 0.0)
        return smooth_remainder(a[i] + h[i] * x, a[j] + h[j] * y, T) + const

    grid_pieces = (
        (np.abs(I - J) > 1, np.where(J > I, a[J] - b[I], a[I] - b[J]),
         lambda i, j, x, y: np.log(np.abs((a[j] + h[j] * y) - (a[i] + h[i] * x)))),
        (I + J > 0, a[I] + a[J],
         lambda i, j, x, y: np.log((a[i] + h[i] * x) + (a[j] + h[j] * y))),
        (I + J < 2 * (m - 1), (T - b[I]) + (T - b[J]),
         lambda i, j, x, y: -np.log((T - a[i] - h[i] * x) + (T - a[j] - h[j] * y))),
        (np.full(m * m, True), None, smooth),
    )
    smooth_order = np.array([_scaled(q + SMOOTH_EXTRA, multiplier) for q in range(2 * P - 1)])

    @lru_cache(maxsize=None)
    def shapes(n):  # Lobatto values and xi-derivatives at the n Gauss nodes on (0,1)
        N, dN = lobatto_shapes(P - 1, 2.0 * gauss_legendre_01(n)[0] - 1.0)
        return dN, np.hstack([N.T, dN.T])

    # blk[k] = [M | A] block of pair k; a grid of weighted kernel values F
    # contributes (dN_x @ F) @ [N_y | dN_y] for a whole chunk of pairs
    blk = np.zeros((m * m, P, 2 * P))
    for on_grid, delta, kern in grid_pieces:
        k = np.flatnonzero(on_grid)
        if delta is None:
            nx = ny = smooth_order[pp[k]]
        else:
            nx = _near_log_order(h[I[k]], delta[k], pp[k], multiplier)
            ny = _near_log_order(h[J[k]], delta[k], pp[k], multiplier)
        for gx, gy in sorted(set(zip(nx.tolist(), ny.tolist()))):
            kg = k[(nx == gx) & (ny == gy)]
            X, Y, W = (v.reshape(gx, gy) for v in _tensor_grid(gx, gy))
            dNx, NdNy = shapes(gx)[0], shapes(gy)[1]
            step = max(1, spatial_fem._CHUNK_ENTRIES // (gx * gy))
            for c in range(0, len(kg), step):
                kc = kg[c : c + step]
                F = W * kern(I[kc, None, None], J[kc, None, None], X[:, :1], Y[:1])
                blk[kc] += (dNx @ F) @ NdNy
    for (i, j), pieces in _singular_pieces(mesh, multiplier):
        x, y, w = (np.concatenate(v) for v in zip(*pieces))
        _, dNi = lobatto_shapes(p[i], 2.0 * x - 1.0)
        Nj, dNj = lobatto_shapes(p[j], 2.0 * y - 1.0)
        dNiw = dNi * w
        blk[i * m + j, : p[i] + 1, : p[j] + 1] += dNiw @ Nj.T
        blk[i * m + j, : p[i] + 1, P : P + p[j] + 1] += dNiw @ dNj.T

    # one accumulation into the global arrays: rows in the constrained space
    # (dofs - 1), columns in the unconstrained one; negative indices mark the
    # t=0 vertex row and the shapes beyond an element's degree
    rows, cols = basis.dofs[I][:, :, None] - 1, basis.dofs[J][:, None, :]
    keep = (rows >= 0) & (cols >= 0)
    idx = (rows * basis.num_dofs_full + cols)[keep]
    shape = (basis.num_dofs, basis.num_dofs_full)
    M_cross, A_cross = (
        np.bincount(idx, (scale * part)[keep], minlength=shape[0] * shape[1]).reshape(shape)
        for scale, part in (
            (-(2.0 * h[J] / np.pi)[:, None, None], blk[:, :, :P]),
            (-(4.0 / np.pi), blk[:, :, P:]),
        )
    )
    return TemporalMatrices(
        M_ht=M_cross[:, 1:].copy(),
        A_ht=A_cross[:, 1:].copy(),
        M_cross=M_cross,
    )
