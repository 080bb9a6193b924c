"""Oracles for the fractional-order temporal norms and the modified Hilbert
transform, realized through truncated eigenfunction expansions.

Everything here is test-side machinery: the production solver never calls
into this module, so series truncation error stays out of the solution path.

On (a,b) the eigenpairs are V_k(t) = sqrt(2/(b-a)) sin((pi/2 + k pi)(t-a)/(b-a))
with eigenvalues lambda_k = pi^2 (2k+1)^2 / (4 (b-a)^2); the modified Hilbert
transform maps the k-th sine mode to the matching cosine mode.
"""

from dataclasses import dataclass
from math import ceil

import numpy as np

from spacetime_hp.quadrature import gauss_legendre
from spacetime_hp.temporal_hp import TemporalBasis

from oracles import eval_element


@dataclass(frozen=True)
class FourierExpansion:
    """Truncated expansion of a function on (a,b) in the sine eigenbasis."""

    interval: tuple
    coefficients: np.ndarray

    @property
    def K(self):
        return len(self.coefficients)

    @property
    def length(self):
        return self.interval[1] - self.interval[0]

    @property
    def eigenvalues(self):
        k = np.arange(self.K)
        return np.pi**2 * (2 * k + 1) ** 2 / (4.0 * self.length**2)


def sine_modes(interval, ks, t):
    """V_k(t) for all k in ks; shape (len(ks), len(t))."""
    a, b = interval
    t = np.asarray(t, dtype=float)
    ks = np.asarray(ks)
    arg = (np.pi / 2 + ks[:, None] * np.pi) * (t[None, :] - a) / (b - a)
    return np.sqrt(2.0 / (b - a)) * np.sin(arg)


def cosine_modes(interval, ks, t):
    """Cosine counterparts of the sine eigenfunctions (the transformed modes)."""
    a, b = interval
    t = np.asarray(t, dtype=float)
    ks = np.asarray(ks)
    arg = (np.pi / 2 + ks[:, None] * np.pi) * (t[None, :] - a) / (b - a)
    return np.sqrt(2.0 / (b - a)) * np.cos(arg)


def _composite_segments(interval, K, pts_per_segment=12):
    a, b = interval
    nseg = max(8, ceil((K + 0.5) / 2.0))
    edges = np.linspace(a, b, nseg + 1)
    nodes, weights = gauss_legendre(pts_per_segment)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    t = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()
    w = (half[:, None] * weights[None, :]).ravel()
    return t, w


def fourier_coefficients(v, interval, K, quad_n=12) -> FourierExpansion:
    """Expansion coefficients v_k = int v V_k, k < K, by composite Gauss
    quadrature resolving the highest retained mode (quad_n points per
    oscillation segment)."""
    if K < 1:
        raise ValueError("need K >= 1")
    t, w = _composite_segments(interval, K, quad_n)
    vw = np.asarray(v(t), dtype=float) * w
    coeffs = np.empty(K)
    for lo in range(0, K, 512):
        hi = min(lo + 512, K)
        coeffs[lo:hi] = sine_modes(interval, np.arange(lo, hi), t) @ vw
    return FourierExpansion((float(interval[0]), float(interval[1])), coeffs)


def eval_expansion(exp: FourierExpansion, t, derivative=0):
    t = np.atleast_1d(np.asarray(t, dtype=float))
    ks = np.arange(exp.K)
    if derivative:
        omegas = (np.pi / 2 + ks * np.pi) / exp.length
        vals = omegas[:, None] * cosine_modes(exp.interval, ks, t)
    else:
        vals = sine_modes(exp.interval, ks, t)
    return exp.coefficients @ vals


def l2_norm_fourier(exp: FourierExpansion) -> float:
    return float(np.sqrt(np.sum(exp.coefficients**2)))


def h1_seminorm_fourier(exp: FourierExpansion) -> float:
    return float(np.sqrt(np.sum(exp.eigenvalues * exp.coefficients**2)))


def h12_norm_fourier(exp: FourierExpansion) -> float:
    """Interpolation norm (sum of sqrt(lambda_k) |v_k|^2)^(1/2)."""
    return float(np.sqrt(np.sum(np.sqrt(exp.eigenvalues) * exp.coefficients**2)))


def hilbert_transform_series(exp: FourierExpansion, t):
    """Truncated series for the modified Hilbert transform: sine modes are
    mapped to the matching cosine modes with unchanged coefficients."""
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    vals = exp.coefficients @ cosine_modes(exp.interval, np.arange(exp.K), t_arr)
    return vals if np.ndim(t) else float(vals[0])


def ellipticity_pairing_fourier(exp: FourierExpansion) -> float:
    """<d_t v, H v> evaluated on the Fourier side; equals the squared
    interpolation norm."""
    ks = np.arange(exp.K)
    omegas = (np.pi / 2 + ks * np.pi) / exp.length
    return float(np.sum(omegas * exp.coefficients**2))


def duality_pairing_fourier(expw: FourierExpansion, expv: FourierExpansion) -> float:
    """<d_t w, H v> on the Fourier side (symmetric in its arguments)."""
    K = min(expw.K, expv.K)
    ks = np.arange(K)
    omegas = (np.pi / 2 + ks * np.pi) / expv.length
    return float(np.sum(omegas * expw.coefficients[:K] * expv.coefficients[:K]))


def l2_pairing_with_transform(exp: FourierExpansion) -> float:
    """<v, H v> in L2; nonnegative by the transform's positivity.

    Uses the closed-form cross Gram of sine against cosine modes:
    int V_k W_n = 2/(pi (k+n+1)) for k+n even and 2/(pi (k-n)) otherwise.
    """
    K = exp.K
    k = np.arange(K)
    ksum = k[:, None] + k[None, :]
    kdiff = k[:, None] - k[None, :]
    even = ksum % 2 == 0
    with np.errstate(divide="ignore"):
        G = np.where(even, 2.0 / (np.pi * (ksum + 1)), 2.0 / (np.pi * np.where(even, 1, kdiff)))
    c = exp.coefficients
    return float(c @ G @ c)


def check_poincare(expansions, report=False):
    """Verify the three sharp Poincare-type inequalities on the Fourier side
    for a family of expansions; returns the max observed ratio per inequality."""
    ratios = np.zeros((len(expansions), 3))
    for i, exp in enumerate(expansions):
        L = exp.length
        l2 = l2_norm_fourier(exp)
        h12 = h12_norm_fourier(exp)
        h1 = h1_seminorm_fourier(exp)
        c1 = np.sqrt(2 * L / np.pi)
        ratios[i] = [l2 / (c1 * h12), h12 / (c1 * h1), l2 / (c1 * c1 * h1)]
    worst = ratios.max(axis=0)
    if report:
        return worst, ratios
    return worst


def check_interpolation_inequality(exp: FourierExpansion) -> bool:
    """||v||_{H^(1/2)}^2 <= ||v||_{L2} * ||d_t v||_{L2} on the Fourier side."""
    lhs = h12_norm_fourier(exp) ** 2
    rhs = l2_norm_fourier(exp) * h1_seminorm_fourier(exp)
    return bool(lhs <= rhs * (1.0 + 1e-12) + 1e-15)


def slobodetskii_seminorm(v, interval, quad_n=48):
    """Squared Slobodetskii seminorm by tensor quadrature; the diagonal of the
    double integral is flattened with the split s = t + (b-t)*xi."""
    a, b = interval
    nodes, weights = gauss_legendre(quad_n)
    t = 0.5 * (a + b) + 0.5 * (b - a) * nodes
    wt = 0.5 * (b - a) * weights
    xi = 0.5 * (nodes + 1.0)
    wxi = 0.5 * weights
    TT, XX = np.meshgrid(t, xi, indexing="ij")
    S = TT + (b - TT) * XX
    vt = np.asarray(v(t), dtype=float)
    quot = (np.asarray(v(S.ravel()), dtype=float).reshape(S.shape) - vt[:, None]) / (
        (b - TT) * XX
    )
    inner = ((b - TT) * quot**2) @ wxi
    upper = float(np.dot(wt, inner))
    # lower triangle by the mirrored split s = t - (t-a)*xi
    S2 = TT - (TT - a) * XX
    quot2 = (vt[:, None] - np.asarray(v(S2.ravel()), dtype=float).reshape(S2.shape)) / (
        (TT - a) * XX
    )
    inner2 = ((TT - a) * quot2**2) @ wxi
    lower = float(np.dot(wt, inner2))
    return upper + lower


def slobodetskii_triple_norm(v, interval, quad_n=48):
    """Triple norm: (||v||_L2^2 + |v|_{H^(1/2)}^2 + int v^2/(t-a))^(1/2).

    The weighted term diverges unless v(a) = 0; a nonzero start value is
    detected and rejected.
    """
    a, b = interval
    v0 = float(np.atleast_1d(np.asarray(v(np.array([a]))))[0])
    if abs(v0) > 1e-9:
        raise ValueError(f"weighted term diverges: v(a) = {v0} != 0")
    nodes, weights = gauss_legendre(quad_n)
    t = 0.5 * (a + b) + 0.5 * (b - a) * nodes
    w = 0.5 * (b - a) * weights
    vt = np.asarray(v(t), dtype=float)
    l2sq = float(np.dot(w, vt**2))
    weighted = float(np.dot(w, vt**2 / (t - a)))
    semi = slobodetskii_seminorm(v, interval, quad_n)
    return float(np.sqrt(l2sq + semi + weighted))


def localization_gap(v, interval, tau, quad_n=48):
    """Right side minus left side of the fractional-seminorm localization
    bound at the splitting point tau; nonnegative whenever the weighted
    integrals are finite (v(tau) = 0 keeps them finite)."""
    a, b = interval
    lhs = slobodetskii_seminorm(v, (a, b), quad_n)
    nodes, weights = gauss_legendre(quad_n)

    def weighted(c, d, sing):
        t = 0.5 * (c + d) + 0.5 * (d - c) * nodes
        w = 0.5 * (d - c) * weights
        vt = np.asarray(v(t), dtype=float)
        return float(np.dot(w, vt**2 / np.abs(t - sing)))

    rhs = (
        slobodetskii_seminorm(v, (a, tau), quad_n)
        + 4.0 * weighted(a, tau, tau)
        + 4.0 * weighted(tau, b, tau)
        + slobodetskii_seminorm(v, (tau, b), quad_n)
    )
    return rhs - lhs


# --- series oracle for the discrete transform matrices -----------------------


def basis_mode_moments(basis: TemporalBasis, K, pts_per_wavelength=12):
    """Sine coefficients and cosine moments of all constrained basis functions
    (and of their derivatives) against the first K modes.

    Returns (S, C, Cd) with S[n,g] = int phi_g V_n, C[n,g] = int phi_g W_n,
    Cd[n,g] = int phi_g' W_n. Quadrature is composite per element, resolving
    mode K.
    """
    mesh = basis.mesh
    T = mesh.T
    M = basis.num_dofs
    S = np.zeros((K, M))
    C = np.zeros((K, M))
    Cd = np.zeros((K, M))
    nodes, weights = gauss_legendre(pts_per_wavelength)
    for j in range(mesh.m):
        a, b = mesh.breakpoints[j], mesh.breakpoints[j + 1]
        nseg = int(np.ceil((b - a) * (2 * K + 1) / (4 * T))) + 2  # one segment per period
        edges = np.linspace(a, b, nseg + 1)
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * np.diff(edges)
        t = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()
        w = (half[:, None] * weights[None, :]).ravel()
        vals = (eval_element(basis, j, t) * w).T
        ders = (eval_element(basis, j, t, derivative=1) * w).T
        gids = basis.dofs[j, : mesh.degrees[j] + 1] - 1
        keep = gids >= 0
        for lo in range(0, K, 256):
            hi = min(lo + 256, K)
            ks = np.arange(lo, hi)
            sin_block = sine_modes((0.0, T), ks, t)
            cos_block = cosine_modes((0.0, T), ks, t)
            S[lo:hi, gids[keep]] += sin_block @ vals[:, keep]
            C[lo:hi, gids[keep]] += cos_block @ vals[:, keep]
            Cd[lo:hi, gids[keep]] += cos_block @ ders[:, keep]
    return S, C, Cd


def ht_matrix_oracle(basis: TemporalBasis, K=4096):
    """Truncated-series reference values for the transform mass/stiffness
    matrices: M[k,l] = <phi_l, H phi_k>, A[k,l] = <d_t phi_l, H phi_k>."""
    S, C, Cd = basis_mode_moments(basis, K)
    return S.T @ C, S.T @ Cd


def discrete_h12_norm_sq(basis: TemporalBasis, coeffs, K=4096):
    """Fourier-side squared interpolation norm of a discrete function."""
    S, _, _ = basis_mode_moments(basis, K)
    a = S @ coeffs
    mu = np.pi * (2 * np.arange(K) + 1) / (2.0 * basis.mesh.T)
    return float(np.sum(mu * a**2))
