"""Assembly of the dense temporal matrices of the transformed bilinear forms,
M[k,l] = <phi_l, H phi_k> and A[k,l] = <d_t phi_l, H phi_k>, from the weakly
singular integral representation of the modified Hilbert transform.

The kernel ln[tan(pi(s+t)/4T) tan(pi|t-s|/4T)] is split exactly into

    ln|t-s| + ln(s+t) - ln(2T-s-t) + ln(pi/4T) + G(s,t),

where G collects the analytic remainders ln(tan(x)/x) and ln(sin(x)/x). The
O(m) element pairs where a logarithm's singular point touches the pair come
in five kinds: the diagonal pairs (ln|t-s| along s=t), the (0,0) and
(m-1,m-1) corners (ln(s+t), ln(2T-s-t)) and the (i,i+1) and (i+1,i) pairs
(ln|t-s| in a corner). Each kind has one Duffy rule, built at the mesh's
largest degree and shared by all of its pairs, whose radial direction meets
a Gauss rule exact for polynomials against ln(x). Each integrand is a
polynomial times ln or times an analytic log, so a rule built for a higher
degree than a pair's own keeps that pair exact.

What the Duffy rules leave on a pair, G with the constants and each
logarithm whose singular point stays off the pair, is integrated on one
tensor Gauss grid. Its order in each direction is the largest any of these
pieces asks for: p_i + p_j + SMOOTH_EXTRA for G, and for a logarithm an
order driven by the distance of its singularity (Bernstein ellipse
estimate). The pairs are grouped by their grid (nx, ny) and walked in chunks
of about spatial_fem._CHUNK_ENTRIES grid values. For a chunk, the weighted
kernel values F (pairs x nx x ny) give both element blocks by sum
factorisation, (dN_x @ F) @ [N_y | dN_y], from 1D Lobatto tables for the
largest degree; the shapes are hierarchical, so a degree-p element reads the
first p+1 rows. All polynomial factors are integrated exactly; only analytic
factors carry quadrature error, controlled by order doubling. The element
blocks reach the global arrays in one index-array accumulation.
"""

from dataclasses import dataclass
from functools import lru_cache
from math import ceil, log

import numpy as np

from . import spatial_fem
from .quadrature import gauss_legendre_01, log_weighted_rule
from .temporal_hp import TemporalBasis, lobatto_shapes


# Gauss orders per direction; assemble's multiplier scales every one of them
SMOOTH_EXTRA = 6  # analytic remainder G on pair (i, j): p_i + p_j + SMOOTH_EXTRA
LOG_EXTRA = 3  # log-weighted Duffy rules: pdeg // 2 + LOG_EXTRA, pdeg = 2 p_max + 1
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


def _near_log_order(h, delta, multiplier):
    # Gauss order for a log singularity at distance delta beyond an interval
    # of length h: error ~ rho^(-2n) with the Bernstein ellipse radius rho.
    # Elementwise over arrays of (h, delta). No term for the degree of the
    # polynomial factor: the pair's grid also carries G, so each direction
    # has at least p_i + p_j + SMOOTH_EXTRA points.
    r = 1.0 + 2.0 * np.maximum(delta, 1e-300) / h
    rho = r + np.sqrt(r * r - 1.0)
    with np.errstate(divide="ignore"):
        n_analytic = np.where(rho > 1.0, np.ceil(TARGET_EXPONENT / np.log(rho)), MAX_ORDER)
    n = np.minimum(n_analytic, MAX_ORDER)
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


def _corner_duffy_rule(c1, c2, pdeg, multiplier):
    """Rules for int_0^1 int_0^1 F(u,y) ln(c1*u + c2*y) du dy, one per entry
    of the arrays c1, c2, on one node set: returns (u, y, w) with w of shape
    (pairs x nodes). Exact for polynomial F of total degree <= pdeg up to the
    analytic factor ln(c1 + c2 v), which only the Gauss radii's weights carry;
    the log-weighted radii's weights are the same for every pair."""
    n_log = _scaled(pdeg // 2 + LOG_EXTRA, multiplier)
    n_ang = _scaled(max(pdeg // 2 + LOG_EXTRA, ANGULAR_SMOOTH_MIN), multiplier)
    lr_x, lr_w = log_weighted_rule(n_log)
    g_rad, w_rad = gauss_legendre_01(n_rad := n_log + 2)
    v, w_ang = gauss_legendre_01(n_ang)
    # on y <= u put y = u v: ln(c1 u + c2 y) = ln u + ln(c1 + c2 v), with ln u
    # on the log-weighted radii and ln(c1 + c2 v) on the last n_rad, Gauss ones
    r = np.concatenate([lr_x, g_rad])[:, None]
    base = np.concatenate([lr_w, w_rad])[:, None] * w_ang * r  # radii x angles
    c1, c2 = (np.asarray(c, dtype=float)[:, None, None] for c in (c1, c2))

    def weights(a, b):
        W = np.repeat(base[None], len(a), axis=0)
        W[:, -n_rad:] *= np.log(a + b * v)
        return W.reshape(len(a), base.size)

    # u < y is the mirror image: u = y v, with c1 and c2 swapped
    r, rv = np.broadcast_to(r, base.shape).ravel(), (r * v).ravel()
    return np.concatenate([r, rv]), np.concatenate([rv, r]), np.hstack([weights(c1, c2), weights(c2, c1)])


def _diagonal_duffy_rule(pdeg, multiplier):
    """Rule (x, y, w) for int_0^1 int_0^1 F(x,y) ln|x - y| dx dy, exact for
    polynomial F of total degree <= pdeg.

    On the triangle x < y put u = y - x and x = (1 - u) v, y = x + u, with
    Jacobian 1 - u; the triangle y < x is its mirror image. The kernel is
    ln u alone, and x, y are of degree 1 in u and in v, so F (1 - u) has
    degree <= pdeg + 1 in u and <= pdeg in v. The log-weighted rule in u and
    Gauss in v, both with n = pdeg // 2 + LOG_EXTRA points, are exact to
    degree 2n - 1 >= pdeg + 5.
    """
    n = _scaled(pdeg // 2 + LOG_EXTRA, multiplier)
    u, wu = log_weighted_rule(n)
    v, wv = gauss_legendre_01(n)
    U, V = np.meshgrid(u, v, indexing="ij")
    low, high = ((1.0 - U) * V).ravel(), ((1.0 - U) * V + U).ravel()
    w = (np.outer(wu, wv) * (1.0 - U)).ravel()
    return np.concatenate([low, high]), np.concatenate([high, low]), np.concatenate([w, w])


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
    c0 = log(np.pi / (4.0 * T))

    # the regular part of each pair on one tensor grid: G with the constants,
    # plus each of ln|t-s|, ln(s+t), ln(2T-s-t) whose singular point stays off
    # the pair, at distance delta[q] > 0; the Duffy rules below take the others
    delta = (np.where(J > I, a[J] - b[I], a[I] - b[J]), a[I] + a[J], (T - b[I]) + (T - b[J]))
    smooth_order = np.array([_scaled(q + SMOOTH_EXTRA, multiplier) for q in range(2 * P - 1)])

    def order(hk):  # per direction, the largest order that a piece on the pair asks for
        near = [np.where(d > 0, _near_log_order(hk, d, multiplier), 0) for d in delta]
        return np.max([smooth_order[p[I] + p[J]], *near], axis=0)

    def kernel(k, x, y):  # pairs k (pairs x 1 x 1) at nodes x (column) and y (row)
        i, j = I[k], J[k]
        s, t = a[i] + h[i] * x, a[j] + h[j] * y
        # G and the constants; ln|t-s| leaves ln(h) on the diagonal
        F = smooth_remainder(s, t, T) + (c0 + np.where(i == j, np.log(h[i]), 0.0))
        F += np.log(np.where(delta[0][k] > 0, np.abs(t - s), 1.0))
        F += np.log(np.where(delta[1][k] > 0, s + t, 1.0))
        F -= np.log(np.where(delta[2][k] > 0, 2.0 * T - s - t, 1.0))
        return F

    @lru_cache(maxsize=None)
    def shapes(n):  # Lobatto values and xi-derivatives at the n Gauss nodes on (0,1)
        N, dN = lobatto_shapes(P - 1, 2.0 * gauss_legendre_01(n)[0] - 1.0)
        return dN, np.hstack([N.T, dN.T])

    # blk[k] = [M | A] block of pair k; a grid of weighted kernel values F
    # contributes (dN_x @ F) @ [N_y | dN_y] for a whole chunk of pairs
    blk = np.zeros((m * m, P, 2 * P))
    nx, ny = order(h[I]), order(h[J])
    for gx, gy in sorted(set(zip(nx.tolist(), ny.tolist()))):
        kg = np.flatnonzero((nx == gx) & (ny == gy))
        X, Y, W = (v.reshape(gx, gy) for v in _tensor_grid(gx, gy))
        dNx, NdNy = shapes(gx)[0], shapes(gy)[1]
        step = max(1, spatial_fem._CHUNK_ENTRIES // (gx * gy))
        for c in range(0, len(kg), step):
            kc = kg[c : c + step]
            F = W * kernel(kc[:, None, None], X[:, :1], Y[:1])
            blk[kc] += (dNx @ F) @ NdNy
    # the singular kinds, one rule each for all of its pairs: the diagonal
    # (one block for all), and the Duffy corners at (0,0), mirrored to (1,1)
    # with the sign of -ln(2T-s-t), to (1,0) for (i,i+1) and to (0,1) for (i+1,i)
    pdeg = 2 * P - 1
    d = np.arange(m) * (m + 1)  # pair index of (i, i)
    x, y, w = _diagonal_duffy_rule(pdeg, multiplier)
    kinds = [(d, x, y, w[None])]
    for k, c1, c2, flip_x, flip_y, sign in (
        (d[:1], h[:1], h[:1], False, False, 1.0),
        (d[-1:], h[-1:], h[-1:], True, True, -1.0),
        (d[:-1] + 1, h[:-1], h[1:], True, False, 1.0),
        (d[1:] - 1, h[1:], h[:-1], False, True, 1.0),
    ):
        u, y, W = _corner_duffy_rule(c1, c2, pdeg, multiplier)
        kinds.append((k, 1.0 - u if flip_x else u, 1.0 - y if flip_y else y, sign * W))
    for k, x, y, W in kinds:  # W: (pairs x nodes)
        dNx = lobatto_shapes(P - 1, 2.0 * x - 1.0)[1]
        blk[k] += (W[:, None, :] * dNx) @ np.vstack(lobatto_shapes(P - 1, 2.0 * y - 1.0)).T

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
