"""Assembly of the dense temporal matrices of the transformed bilinear forms,
M[k,l] = <phi_l, H phi_k> and A[k,l] = <d_t phi_l, H phi_k>, from the weakly
singular integral representation of the modified Hilbert transform.

The kernel ln[tan(pi(s+t)/4T) tan(pi|t-s|/4T)] is split exactly into

    ln|t-s| + ln(s+t) - ln(2T-s-t) + ln(pi/4T) + G(s,t),

where G collects the analytic remainders ln(tan(x)/x) and ln(sin(x)/x). The
three logarithms are integrated per element pair with Duffy-type maps whose
radial direction is handled by a Gauss rule exact for polynomials against
ln(x): diagonal pairs split along s=t, pairs meeting the singular point in a
corner split along the weighted diagonal, and separated pairs use tensor
Gauss with orders driven by the distance of the singularity (Bernstein
ellipse estimate). All polynomial factors are integrated exactly; only
analytic factors carry quadrature error, controlled by order doubling.
"""

import struct
from dataclasses import dataclass
from functools import lru_cache
from math import ceil, log, sqrt

import numpy as np

from .quadrature import gauss_legendre_01, log_weighted_rule
from .temporal_hp import TemporalBasis, TemporalMesh, lobatto_shapes


def kernel(s, t, T):
    """Weakly singular kernel ln[tan(pi(s+t)/4T) tan(pi|t-s|/4T)].

    Diverges logarithmically on the diagonal; evaluating at s = t raises.
    """
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    if np.any(s == t):
        raise ValueError("kernel is singular on the diagonal s = t")
    return np.log(
        np.tan(np.pi * (s + t) / (4.0 * T)) * np.tan(np.pi * np.abs(t - s) / (4.0 * T))
    )


def _log_tan_ratio(x):
    # ln(tan(x)/x), even and analytic for |x| < pi/2; series near 0
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    small = np.abs(x) < 1e-3
    xs = x[small]
    out[small] = xs**2 / 3.0 + 7.0 * xs**4 / 90.0
    xl = x[~small]
    out[~small] = np.log(np.tan(xl) / xl)
    return out


def _log_sinc(x):
    # ln(sin(x)/x), even and analytic for |x| < pi; series near 0
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    small = np.abs(x) < 1e-3
    xs = x[small]
    out[small] = -(xs**2) / 6.0 - xs**4 / 180.0
    xl = x[~small]
    out[~small] = np.log(np.sin(xl) / xl)
    return out


def smooth_remainder(s, t, T):
    """Analytic part G of the kernel split (plus nothing else)."""
    z = np.abs(t - s)
    w = s + t
    c = np.pi / (4.0 * T)
    return _log_tan_ratio(c * z) + _log_sinc(c * w) - _log_sinc(c * (2.0 * T - w))


@dataclass(frozen=True)
class HilbertQuadConfig:
    """Quadrature orders for the assembly; `multiplier` scales every order
    (used by the order-doubling convergence checks)."""

    smooth_extra: int = 6
    log_extra: int = 3
    angular_smooth_min: int = 20
    target_exponent: float = 16.1
    max_order: int = 48
    multiplier: float = 1.0

    def scale(self, n):
        return max(2, ceil(n * self.multiplier))


@dataclass(frozen=True)
class TemporalMatrices:
    """Dense transform matrices on the constrained temporal space, plus the
    cross mass matrix whose column side includes the vertex at t=0."""

    M_ht: np.ndarray
    A_ht: np.ndarray
    M_cross: np.ndarray
    mesh: TemporalMesh


def _near_log_order(h, delta, pdeg, cfg: HilbertQuadConfig):
    # Gauss order for a log singularity at distance delta beyond an interval
    # of length h: error ~ rho^(-2n) with the Bernstein ellipse radius rho.
    r = 1.0 + 2.0 * max(delta, 1e-300) / h
    rho = r + sqrt(r * r - 1.0)
    n_analytic = ceil(cfg.target_exponent / log(rho)) if rho > 1.0 else cfg.max_order
    n = max(pdeg // 2 + 4, n_analytic)
    return cfg.scale(min(n, cfg.max_order))


@lru_cache(maxsize=64)
def _tensor_grid(nx, ny):
    """Tensor Gauss grid on the unit square. Cached on the two orders: a
    uniform mesh asks for a handful of (nx, ny) tens of thousands of times.
    The arrays are shared, hence read-only."""
    x, wx = gauss_legendre_01(nx)
    y, wy = gauss_legendre_01(ny)
    X, Y = np.meshgrid(x, y, indexing="ij")
    grid = (X.ravel(), Y.ravel(), np.outer(wx, wy).ravel())
    for a in grid:
        a.setflags(write=False)
    return grid


def _corner_duffy_pieces(c1, c2, pdeg, cfg: HilbertQuadConfig):
    """Quadrature pieces for int_0^1 int_0^1 F(u,y) ln(c1*u + c2*y) du dy with
    F polynomial of total degree <= pdeg; returns tuples (u, y, w)."""
    n_log = cfg.scale(pdeg // 2 + cfg.log_extra)
    n_ang = cfg.scale(max(pdeg // 2 + cfg.log_extra, cfg.angular_smooth_min))
    lr = log_weighted_rule(n_log)
    g_ang, w_ang = gauss_legendre_01(n_ang)
    g_rad, w_rad = gauss_legendre_01(n_log + 2)
    pieces = []
    # region y <= u, y = u*v: ln = ln u + ln(c1 + c2 v)
    U, V = np.meshgrid(lr.nodes, g_ang, indexing="ij")
    W = np.outer(lr.weights, w_ang) * U
    pieces.append((U.ravel(), (U * V).ravel(), W.ravel()))
    U, V = np.meshgrid(g_rad, g_ang, indexing="ij")
    W = np.outer(w_rad, w_ang) * U * np.log(c1 + c2 * V)
    pieces.append((U.ravel(), (U * V).ravel(), W.ravel()))
    # region u < y, u = y*v: ln = ln y + ln(c2 + c1 v)
    Y, V = np.meshgrid(lr.nodes, g_ang, indexing="ij")
    W = np.outer(lr.weights, w_ang) * Y
    pieces.append(((Y * V).ravel(), Y.ravel(), W.ravel()))
    Y, V = np.meshgrid(g_rad, g_ang, indexing="ij")
    W = np.outer(w_rad, w_ang) * Y * np.log(c2 + c1 * V)
    pieces.append(((Y * V).ravel(), Y.ravel(), W.ravel()))
    return pieces


def _diagonal_duffy_pieces(pdeg, cfg: HilbertQuadConfig):
    """Pieces for int int F(x,y) ln|y - x| dx dy over the unit square,
    exact for polynomial F of degree <= pdeg per variable."""
    n_log = cfg.scale(pdeg // 2 + cfg.log_extra)
    n_ang = cfg.scale(pdeg // 2 + cfg.log_extra)
    lr = log_weighted_rule(n_log)
    g_ang, w_ang = gauss_legendre_01(n_ang)
    g_rad, w_rad = gauss_legendre_01(n_log + 2)
    pieces = []
    # triangle x < y, x = y*v: ln(y - x) = ln y + ln(1 - v)
    Y, V = np.meshgrid(lr.nodes, g_ang, indexing="ij")
    W = np.outer(lr.weights, w_ang) * Y
    pieces.append(((Y * V).ravel(), Y.ravel(), W.ravel()))
    Y, VH = np.meshgrid(g_rad, lr.nodes, indexing="ij")  # ln(1-v): v = 1 - vhat
    W = np.outer(w_rad, lr.weights) * Y
    pieces.append(((Y * (1.0 - VH)).ravel(), Y.ravel(), W.ravel()))
    # triangle y < x, y = x*v
    X, V = np.meshgrid(lr.nodes, g_ang, indexing="ij")
    W = np.outer(lr.weights, w_ang) * X
    pieces.append((X.ravel(), (X * V).ravel(), W.ravel()))
    X, VH = np.meshgrid(g_rad, lr.nodes, indexing="ij")
    W = np.outer(w_rad, lr.weights) * X
    pieces.append((X.ravel(), (X * (1.0 - VH)).ravel(), W.ravel()))
    return pieces


def _pair_pieces(mesh: TemporalMesh, i, j, cfg: HilbertQuadConfig):
    """All quadrature pieces (x, y, w) on the unit square for element pair
    (i, j), weights carrying the full kernel value."""
    T = mesh.T
    bp = mesh.breakpoints
    ai, bi, hi = bp[i], bp[i + 1], bp[i + 1] - bp[i]
    aj, bj, hj = bp[j], bp[j + 1], bp[j + 1] - bp[j]
    pi_, pj_ = int(mesh.degrees[i]), int(mesh.degrees[j])
    pdeg = pi_ + pj_ + 1
    pieces = []
    const = log(np.pi / (4.0 * T))

    # --- ln|t-s| ---
    if i == j:
        const += log(hi)
        pieces += _diagonal_duffy_pieces(pdeg, cfg)
    elif abs(i - j) == 1:
        if j == i + 1:  # s-element left of t-element, corner at x=1, y=0
            for u, y, w in _corner_duffy_pieces(hi, hj, pdeg, cfg):
                pieces.append((1.0 - u, y, w))
        else:  # i == j + 1: corner at x=0, y=1
            for u, y, w in _corner_duffy_pieces(hi, hj, pdeg, cfg):
                pieces.append((u, 1.0 - y, w))
    else:
        delta = aj - bi if j > i else ai - bj
        nx = _near_log_order(hi, delta, pi_ + pj_, cfg)
        ny = _near_log_order(hj, delta, pi_ + pj_, cfg)
        X, Y, W = _tensor_grid(nx, ny)
        s = ai + hi * X
        t = aj + hj * Y
        pieces.append((X, Y, W * np.log(np.abs(t - s))))

    # --- ln(s+t) ---
    if i == 0 and j == 0:
        pieces += _corner_duffy_pieces(hi, hj, pdeg, cfg)
    else:
        delta = ai + aj
        nx = _near_log_order(hi, delta, pi_ + pj_, cfg)
        ny = _near_log_order(hj, delta, pi_ + pj_, cfg)
        X, Y, W = _tensor_grid(nx, ny)
        pieces.append((X, Y, W * np.log((ai + hi * X) + (aj + hj * Y))))

    # --- -ln(2T-s-t) ---
    last = mesh.m - 1
    if i == last and j == last:
        for u, y, w in _corner_duffy_pieces(hi, hj, pdeg, cfg):
            pieces.append((1.0 - u, 1.0 - y, -w))
    else:
        delta = (T - bi) + (T - bj)
        nx = _near_log_order(hi, delta, pi_ + pj_, cfg)
        ny = _near_log_order(hj, delta, pi_ + pj_, cfg)
        X, Y, W = _tensor_grid(nx, ny)
        pieces.append((X, Y, -W * np.log((T - ai - hi * X) + (T - aj - hj * Y))))

    # --- analytic remainder + accumulated constants ---
    nx = cfg.scale(pi_ + pj_ + cfg.smooth_extra)
    ny = nx
    X, Y, W = _tensor_grid(nx, ny)
    s = ai + hi * X
    t = aj + hj * Y
    pieces.append((X, Y, W * (smooth_remainder(s, t, T) + const)))
    return pieces


def assemble(basis: TemporalBasis, config: HilbertQuadConfig | None = None) -> TemporalMatrices:
    """Element-pair assembly of the transform matrices.

    The row index runs over the transformed (differentiated) side and must
    vanish at t=0; the column side of the cross mass matrix additionally
    includes the vertex function at t=0, which the right-hand side projection
    needs.
    """
    cfg = config or HilbertQuadConfig()
    mesh = basis.mesh
    M = basis.num_dofs
    M_cross = np.zeros((M, M + 1))
    A_cross = np.zeros((M, M + 1))
    for i in range(mesh.m):
        pi_ = int(mesh.degrees[i])
        for j in range(mesh.m):
            pj_ = int(mesh.degrees[j])
            hj = mesh.element_lengths[j]
            xs, ys, ws = [], [], []
            for x, y, w in _pair_pieces(mesh, i, j, cfg):
                xs.append(x)
                ys.append(y)
                ws.append(w)
            x = np.concatenate(xs)
            y = np.concatenate(ys)
            w = np.concatenate(ws)
            _, dNi = lobatto_shapes(pi_, 2.0 * x - 1.0)
            Nj, dNj = lobatto_shapes(pj_, 2.0 * y - 1.0)
            dNiw = dNi * w
            Mblk = dNiw @ Nj.T
            Ablk = dNiw @ dNj.T
            rows = basis.conn[i]
            cols = basis.conn_full[j]
            for a, gk in enumerate(rows):
                if gk < 0:
                    continue
                for b, gl in enumerate(cols):
                    M_cross[gk, gl] += -(2.0 * hj / np.pi) * Mblk[a, b]
                    A_cross[gk, gl] += -(4.0 / np.pi) * Ablk[a, b]
    return TemporalMatrices(
        M_ht=M_cross[:, 1:].copy(),
        A_ht=A_cross[:, 1:].copy(),
        M_cross=M_cross,
        mesh=mesh,
    )


def save_matrices(tm: TemporalMatrices, path):
    """Binary dump: header (M, mesh hash) as little-endian uint64, then the
    mass and stiffness matrices row-major as 8-byte floats."""
    M = tm.M_ht.shape[0]
    with open(path, "wb") as f:
        f.write(struct.pack("<QQ", M, tm.mesh.signature()))
        f.write(np.ascontiguousarray(tm.M_ht, dtype="<f8").tobytes())
        f.write(np.ascontiguousarray(tm.A_ht, dtype="<f8").tobytes())


def load_matrices(path, mesh: TemporalMesh | None = None):
    """Read a matrix dump; verifies the mesh hash when a mesh is supplied."""
    with open(path, "rb") as f:
        M, sig = struct.unpack("<QQ", f.read(16))
        if mesh is not None and sig != mesh.signature():
            raise ValueError("matrix dump does not match the given mesh")
        data = np.frombuffer(f.read(2 * M * M * 8), dtype="<f8")
    return data[: M * M].reshape(M, M).copy(), data[M * M :].reshape(M, M).copy()
