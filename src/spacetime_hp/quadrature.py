"""Gauss-type quadrature rules: Gauss-Legendre, a collapsed tensor rule on
triangles, and rules exact for integrands with a logarithmic weight on (0,1).

Every rule is a (nodes, weights) pair of read-only arrays, cached per point
count.
"""

from functools import lru_cache
from math import comb

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.linalg import eigh_tridiagonal


def _freeze(a):
    a = np.asarray(a, dtype=float)
    a.setflags(write=False)
    return a


def legendre_values(pmax, x):
    """Values of Legendre polynomials L_0..L_pmax at points x, shape (pmax+1, len(x))."""
    x = np.asarray(x, dtype=float)
    out = np.empty((pmax + 1,) + x.shape)
    out[0] = 1.0
    if pmax >= 1:
        out[1] = x
    for k in range(1, pmax):
        out[k + 1] = ((2 * k + 1) * x * out[k] - k * out[k - 1]) / (k + 1)
    return out


@lru_cache(maxsize=None)
def gauss_legendre(n: int):
    """n-point Gauss-Legendre rule on [-1,1], degree of exactness 2n-1."""
    if n < 1:
        raise ValueError(f"gauss_legendre requires n >= 1, got {n}")
    x, w = leggauss(n)
    return _freeze(x), _freeze(w)


def gauss_legendre_01(n):
    """Nodes/weights of the n-point Gauss-Legendre rule mapped to (0,1)."""
    x, w = gauss_legendre(n)
    return 0.5 * (x + 1.0), 0.5 * w


# Modified moments of ln(1/x) on (0,1) against monic shifted Legendre
# polynomials have the closed form m_0 = 1, m_k = (-1)^k (k!)^2 / (k(k+1)(2k)!).
def _log_weight_modified_moments(nmom):
    m = np.empty(nmom)
    m[0] = 1.0
    for k in range(1, nmom):
        m[k] = (-1.0) ** k / (k * (k + 1) * comb(2 * k, k))
    return m


def _chebyshev_modified(nmom_pairs, mom, a_aux, b_aux):
    """Modified Chebyshev algorithm: recurrence coefficients (alpha, beta) of the
    monic orthogonal polynomials for the measure with modified moments `mom`
    taken against auxiliary monic polynomials with recurrence (a_aux, b_aux)."""
    n = nmom_pairs
    alpha = np.zeros(n)
    beta = np.zeros(n)
    sigma_prev = np.zeros(2 * n)
    sigma = mom.copy()
    alpha[0] = a_aux[0] + mom[1] / mom[0]
    beta[0] = mom[0]
    for k in range(1, n):
        sigma_new = np.zeros(2 * n)
        for ell in range(k, 2 * n - k):
            sigma_new[ell] = (
                sigma[ell + 1]
                - (alpha[k - 1] - a_aux[ell]) * sigma[ell]
                - beta[k - 1] * sigma_prev[ell]
                + b_aux[ell] * sigma[ell - 1]
            )
        alpha[k] = a_aux[k] + sigma_new[k + 1] / sigma_new[k] - sigma[k] / sigma[k - 1]
        beta[k] = sigma_new[k] / sigma[k - 1]
        sigma_prev, sigma = sigma, sigma_new
    return alpha, beta


@lru_cache(maxsize=None)
def log_weighted_rule(n: int):
    """n-point Gauss rule for the weight ln(x) on (0,1), exact for polynomials
    up to degree 2n-1.

    Built as the Gauss rule of the positive weight ln(1/x) via the modified
    Chebyshev algorithm (shifted-Legendre modified moments in closed form) and
    a Golub-Welsch eigenvalue solve, then negated.
    """
    if n < 1:
        raise ValueError(f"log_weighted_rule requires n >= 1, got {n}")
    nmom = 2 * n
    mom = _log_weight_modified_moments(nmom)
    # monic shifted Legendre on (0,1): a_k = 1/2, b_k = k^2 / (4(4k^2-1))
    ks = np.arange(nmom, dtype=float)
    a_aux = np.full(nmom, 0.5)
    b_aux = np.where(ks > 0, ks**2 / (4.0 * (4.0 * ks**2 - 1.0)), 0.0)
    alpha, beta = _chebyshev_modified(n, mom, a_aux, b_aux)
    if not np.all(np.isfinite(alpha)) or np.any(beta[1:] <= 0) or beta[0] <= 0:
        raise RuntimeError(f"log-weighted rule construction failed for n={n}")
    nodes, vecs = eigh_tridiagonal(alpha, np.sqrt(beta[1:])) if n > 1 else (
        np.array([alpha[0]]),
        np.array([[1.0]]),
    )
    weights = beta[0] * vecs[0, :] ** 2
    if np.any(nodes <= 0.0) or np.any(nodes >= 1.0):
        raise RuntimeError(f"log-weighted rule construction failed for n={n}")
    # rule for ln(x) = -ln(1/x)
    return _freeze(nodes), _freeze(-weights)


@lru_cache(maxsize=None)
def triangle_rule(n: int):
    """Collapsed tensor Gauss rule on the reference triangle {x,y>=0, x+y<=1}.

    Duffy map (u,v) -> (u, v(1-u)) of the tensor rule on (0,1)^2; n^2 points,
    exact for polynomials of total degree 2n-2 (the Jacobian adds a factor
    1-u), weights sum to 1/2.
    """
    u, wu = gauss_legendre_01(n)
    v, wv = gauss_legendre_01(n)
    U, V = np.meshgrid(u, v, indexing="ij")
    X = U
    Y = V * (1.0 - U)
    W = np.outer(wu, wv) * (1.0 - U)
    nodes = np.column_stack([X.ravel(), Y.ravel()])
    return _freeze(nodes), _freeze(W.ravel())
