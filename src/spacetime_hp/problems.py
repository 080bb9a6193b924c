"""Manufactured problems for the heat equation on (0,T) x D with homogeneous
Dirichlet and initial conditions: the exact solution on the unit interval
driven by constant forcing, and two corner-singular solutions on the
L-shaped domain (one smooth in time, one with a t^(3/5) startup singularity).

Forcings are closed-form: the corner factor r^(2/3) sin((2/3)(theta - pi/2))
is harmonic, so the Laplacian of the cutoff solution reduces to cutoff
derivatives, and the smooth part differentiates termwise. The L-shape
forcing is g = tau'(t) S(x) - tau(t) Laplace S(x) + g_reg(t, x), with S the
cutoff corner factor and g_reg that of the smooth part; its first two terms
are separable in (t, x), and so is u1's g = 1.

Each problem evaluates through `ManufacturedProblem.at(points)`, which
computes the time-independent spatial factors once per point set and gives
the exact solution and its time derivative together, as the pair that the
error surrogate needs; the pointwise fields u_exact, du_dt_exact and g are
built from it.
"""

from dataclasses import dataclass
from functools import cache
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Evaluator:
    """The problem data at a fixed point set, as functions of time alone.

    exact(t) is the pair (u, d_t u). A scalar t gives one value per point; a
    column of times (nt, 1) gives (nt, npts) arrays, row i at time t[i].

    The forcing is stated as its separable terms, pairs (a_k, f_k) of a time
    factor a_k(t) and the spatial factor f_k at the points, plus a remainder
    g_rest(t), or None where the terms are all of g:
    g(t) = g_rest(t) + sum_k a_k(t) f_k.

    g_rest must be analytic in t on the closed interval [0, T]: the load
    interpolates its spatial moments from a few Chebyshev times, and refuses
    a remainder whose moments at the first temporal node do not match. A part
    of g that is singular at t = 0 goes into a separable term.
    """

    exact: Callable
    terms: tuple
    g_rest: Callable | None


def _forcing(ev, t):
    """The forcing g(t) of an evaluator, from its terms and its remainder."""
    separable = sum(a(t) * f for a, f in ev.terms)
    return _finite(separable if ev.g_rest is None else ev.g_rest(t) + separable)


def _finite(values):
    """values, rejected at a time where the data are singular (not finite)."""
    if not np.isfinite(values).all():
        raise ValueError("the data are singular at this time")
    return values


@dataclass(frozen=True)
class ManufacturedProblem:
    """Data of a manufactured problem on (0, T) x D: at(points) is its
    Evaluator at a point set, and g, u_exact and du_dt_exact are the forcing,
    the exact solution and its time derivative as functions (t, x) -> values,
    built from at by _fields for pointwise use outside the pipeline; g and
    du_dt_exact reject a time at which they are singular.

    Problems describe data only: every one is analytic in time on (0, T] and
    non-smooth at most at t = 0, which temporal_hp.temporal_rule integrates
    for all of them alike."""

    dimension: int
    T: float
    at: Callable
    g: Callable
    u_exact: Callable
    du_dt_exact: Callable


def _fields(at):
    """The init fields of a problem with evaluator factory at."""
    return dict(
        at=at,
        g=lambda t, x: _forcing(at(x), t),
        u_exact=lambda t, x: at(x).exact(t)[0],
        du_dt_exact=lambda t, x: _finite(at(x).exact(t)[1]),
    )


# u1 takes its image form below this time (the first image pair left out starts at
# erfc(15.8) ~ 1e-110), its mode form from it on (the first mode left out, m = 65, adds < 2e-20)
_IMAGE_TIME = 1e-3
_MODES = 32  # odd modes m = 1, 3, ..., 63
# e^(-z^2) and erfc(z) underflow to 0 beyond z ~ 27.3: capping the image
# argument there changes no value and keeps it finite at t = 0
_Z_MAX = 28.0


def problem_u1() -> ManufacturedProblem:
    """Constant forcing g = 1 on (0,2) x (0,1), which does not match the zero
    initial and boundary values at t = 0; the exact solution. Below
    _IMAGE_TIME one image pair (Carslaw & Jaeger, Conduction of Heat in Solids,
    1959, ch. 3): u = t - W(x) - W(1 - x), W(y) = 4t i^2erfc(z(y)) with
    z(y) = y / (2 sqrt t), and d_t u = 1 - erfc(z(x)) - erfc(z(1 - x)). From
    there on u = x(1 - x)/2 - sum_j 4 / (pi m_j)^3 e^(-(pi m_j)^2 t) sin(m_j pi x)."""
    m = np.arange(1, 2 * _MODES, 2, dtype=float)
    lam = (np.pi * m) ** 2

    def at(x):
        x = np.asarray(x, dtype=float)
        walls = np.stack([x, 1.0 - x])[:, None]  # distances to both ends

        @cache  # built on the first call of exact
        def sines():
            return np.sin(np.pi * np.outer(m, x))

        def exact(t):
            # imported here: only u1's exact solution needs it, and at module level every study
            # would pay its 40-60 ms; the load reads only the forcing's term and pays nothing
            from scipy.special import erfc, erfcx

            # the image form on the rows below _IMAGE_TIME, the mode form on the others
            col = np.reshape(t, (-1, 1))
            early = col[:, 0] < _IMAGE_TIME
            te = col[early]
            with np.errstate(divide="ignore", invalid="ignore"):  # z = 0 on an end, also at t = 0
                z = np.minimum(np.where(walls > 0.0, walls / (2.0 * np.sqrt(te)), 0.0), _Z_MAX)
            # W = t e^(-z^2) ((1 + 2 z^2) erfcx(z) - 2 z / sqrt(pi))
            w = np.exp(-(z**2)) * ((1.0 + 2.0 * z**2) * erfcx(z) - 2.0 / np.sqrt(np.pi) * z)
            decay = np.exp(-lam * col[~early])
            u, du = np.empty((2, len(col), len(x)))
            u[early], du[early] = te - te * w.sum(0), 1.0 - erfc(z).sum(0)
            u[~early] = x * (1.0 - x) / 2.0 - (4.0 / (np.pi * m) ** 3 * decay) @ sines()
            du[~early] = (4.0 / (np.pi * m) * decay) @ sines()
            shape = np.shape(t)[:-1] + x.shape
            return u.reshape(shape), du.reshape(shape)

        return Evaluator(
            exact=exact,
            terms=((lambda t: np.ones(np.shape(t)), np.ones(x.shape)),),
            g_rest=None,
        )

    return ManufacturedProblem(dimension=1, T=2.0, **_fields(at))


# --- L-shape ingredients ------------------------------------------------------


def cutoff(r):
    """C^2 radial cutoff: 1 inside r=1/4, quintic blend, 0 outside r=3/4."""
    r = np.asarray(r, dtype=float)
    mid = (
        27.0 / 8.0
        - 135.0 / 4.0 * r
        + 180.0 * r**2
        - 440.0 * r**3
        + 480.0 * r**4
        - 192.0 * r**5
    )
    return np.where(r <= 0.25, 1.0, np.where(r <= 0.75, mid, 0.0))


def cutoff_d1(r):
    r = np.asarray(r, dtype=float)
    mid = -135.0 / 4.0 + 360.0 * r - 1320.0 * r**2 + 1920.0 * r**3 - 960.0 * r**4
    return np.where((r > 0.25) & (r <= 0.75), mid, 0.0)


def cutoff_d2(r):
    r = np.asarray(r, dtype=float)
    mid = 360.0 - 2640.0 * r + 5760.0 * r**2 - 3840.0 * r**3
    return np.where((r > 0.25) & (r <= 0.75), mid, 0.0)


def _polar(xy):
    xy = np.asarray(xy, dtype=float)
    r = np.hypot(xy[..., 0], xy[..., 1])
    theta = np.arctan2(xy[..., 1], xy[..., 0])
    theta = np.where(theta <= 0.0, theta + 2.0 * np.pi, theta)  # branch (0, 2pi]
    return r, theta


def corner_singular(xy):
    """Harmonic corner factor r^(2/3) sin((2/3)(theta - pi/2)); zero at the
    origin and on both Dirichlet legs of the reentrant corner."""
    r, theta = _polar(xy)
    ang = np.sin(2.0 / 3.0 * (theta - np.pi / 2.0))
    with np.errstate(invalid="ignore"):
        out = np.where(r > 0.0, r ** (2.0 / 3.0) * ang, 0.0)
    return out


def _laplacian_cutoff_times_singular(xy):
    """Laplacian of eta(r) * S(xy); S harmonic, so only cutoff terms remain,
    all supported in the blending annulus."""
    r, theta = _polar(xy)
    ang = np.sin(2.0 / 3.0 * (theta - np.pi / 2.0))
    d1 = cutoff_d1(r)
    d2 = cutoff_d2(r)
    active = d1 != 0.0
    rr = np.where(active, r, 1.0)
    S = np.where(active, rr ** (2.0 / 3.0) * ang, 0.0)
    dS_dr = np.where(active, 2.0 / 3.0 * rr ** (-1.0 / 3.0) * ang, 0.0)
    lap_eta = np.where(active, d2 + d1 / rr, 0.0)
    return S * lap_eta + 2.0 * d1 * dS_dr


_REG_SCALE = 1.0 / 100.0


class _Regular:
    """Spatial factors of the smooth part u_reg = t sin(pi x1) sin(pi x2)
    e^(-t |q|^2) / 100 with q = (x1 - 1/4, x2 + 1/4).

    Differentiating (sin(pi x) e^(-t q^2))'' = (-pi^2 s - 2 t s - 4 pi t q c
    + 4 t^2 q^2 s) e^(-t q^2) in both directions gives
    Laplace u_reg = E (t a0 + t^2 a1 + t^3 a2) with E = e^(-t |q|^2).
    """

    def __init__(self, xy):
        x1, x2 = xy[..., 0], xy[..., 1]
        q1, q2 = x1 - 0.25, x2 + 0.25
        s1, c1 = np.sin(np.pi * x1), np.cos(np.pi * x1)
        s2, c2 = np.sin(np.pi * x2), np.cos(np.pi * x2)
        self.q_sq = q1**2 + q2**2
        self.s = _REG_SCALE * s1 * s2
        self.a0 = -2.0 * np.pi**2 * self.s
        self.a1 = _REG_SCALE * (-4.0 * s1 * s2 - 4.0 * np.pi * (q1 * c1 * s2 + q2 * c2 * s1))
        self.a2 = 4.0 * self.q_sq * self.s

    def decay(self, t):
        return np.exp(-t * self.q_sq)

    def du_dt(self, t, E):
        return self.s * E * (1.0 - t * self.q_sq)

    def laplace(self, t, E):
        return E * (t * (self.a0 + t * (self.a1 + t * self.a2)))

    def forcing(self, t):
        """d_t u_reg - Laplace u_reg."""
        E = self.decay(t)
        return self.du_dt(t, E) - self.laplace(t, E)


def _lshape_problem(tau, dtau):
    def at(xy):
        xy = np.asarray(xy, dtype=float)
        reg = _Regular(xy)
        r, _ = _polar(xy)
        sing = cutoff(r) * corner_singular(xy)
        lap_sing = _laplacian_cutoff_times_singular(xy)

        def exact(t):
            E = reg.decay(t)
            return t * reg.s * E + tau(t) * sing, reg.du_dt(t, E) + dtau(t) * sing

        return Evaluator(
            exact=exact,
            terms=((dtau, sing), (lambda t: -tau(t), lap_sing)),
            g_rest=reg.forcing,
        )

    return ManufacturedProblem(dimension=2, T=2.0, **_fields(at))


def problem_u2() -> ManufacturedProblem:
    """Smooth in time, corner-singular in space."""
    tau = lambda t: t * np.exp(-t)
    dtau = lambda t: (1.0 - t) * np.exp(-t)
    return _lshape_problem(tau, dtau)


def problem_u3() -> ManufacturedProblem:
    """Corner-singular in space with a t^(3/5) startup singularity; the time
    derivative blows up like t^(-2/5): the exact pair gives it as NaN at
    t=0, and the forcing and du_dt_exact reject t=0."""

    def tau(t):
        return t**0.6 * np.exp(-t)

    def dtau(t):
        t = np.where(np.asarray(t) > 0.0, t, np.nan)  # NaN at t = 0, where it is singular
        return np.exp(-t) * (0.6 * t ** (-0.4) - t**0.6)

    return _lshape_problem(tau, dtau)


PROBLEMS = {"u1": problem_u1, "u2": problem_u2, "u3": problem_u3}


def get_problem(name) -> ManufacturedProblem:
    try:
        factory = PROBLEMS[name]
    except KeyError:
        raise KeyError(f"unknown problem {name!r}; available: {sorted(PROBLEMS)}") from None
    return factory()
