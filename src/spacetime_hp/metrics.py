"""Error measurement and rate extraction.

The computable error surrogate is [v] = sqrt(||v||_L2(Q) * ||d_t v||_L2(Q)),
which dominates the fractional-in-time, L2-in-space error norm. Both L2(Q)
norms are evaluated on one space-time quadrature: the exact data once per
spatial point set, the temporal nodes in bounded chunks, on the temporal
rule of temporal_hp.temporal_rule, whose first element absorbs the
solution's non-smoothness at t = 0.
"""

from dataclasses import dataclass

import numpy as np

from .spatial_fem import SpatialQuadrature
from .temporal_hp import basis_matrix, temporal_rule


# Gauss points per temporal element beyond its degree, before quad_mult
TEMPORAL_EXTRA = 12


def l2q_error_element_parts(sol, prob, quad_mult=1.0):
    """Squared L2 norms of u - u_MN and of its time derivative over each slab
    (t_{j-1}, t_j) x D, as two arrays with one entry per temporal element."""
    basis = sol.basis
    mesh = basis.mesh
    quad = SpatialQuadrature(sol.spatial)
    orders = np.maximum(2, ((mesh.degrees + TEMPORAL_EXTRA) * quad_mult).astype(int))
    t, w, elements = temporal_rule(mesh, orders)
    # the constrained space drops column 0, the vertex at t=0
    phi, dphi = basis_matrix(basis, t, elements)[:, :, 1:]
    ev = prob.at(quad.points)
    val = np.empty(len(t))
    der = np.empty(len(t))
    for c in quad.time_chunks(len(t)):
        tc = t[c, None]
        val[c] = quad.l2_norm_sq(quad.fe_values(phi[c] @ sol.coefficients) - ev.u(tc))
        der[c] = quad.l2_norm_sq(quad.fe_values(dphi[c] @ sol.coefficients) - ev.du_dt(tc))
    return np.bincount(elements, w * val, mesh.m), np.bincount(elements, w * der, mesh.m)


def functional_from_parts(val_sq, der_sq):
    """The surrogate from the squared norms: (||e||^2 ||d_t e||^2)^(1/4)."""
    return float((val_sq * der_sq) ** 0.25)


@dataclass(frozen=True)
class StudyRecord:
    MN: int
    M: int
    N: int
    h_x: float
    k_max: float
    error: float
    wall_time: float = 0.0
    # relative residual ||B u - G|| / ||G|| of the level's solve
    residual: float = 0.0
    # squared L2 norms of e and d_t e on each slab (t_{j-1}, t_j) x D, in time order
    val_sq_elements: tuple = ()
    der_sq_elements: tuple = ()

    def __post_init__(self):
        if not (np.isfinite(self.error) and self.error >= 0):
            raise ValueError(f"error must be finite and nonnegative, got {self.error}")
        if self.MN != self.M * self.N:
            raise ValueError(f"MN = {self.MN} inconsistent with M*N = {self.M * self.N}")

    @property
    def width(self):
        """Effective space-time mesh width (MN)^(-1/2) used for eoc."""
        return self.MN ** (-0.5)


def rates(errors, widths):
    """log(e_prev/e_cur) / log(h_prev/h_cur) for consecutive entries."""
    errors = np.asarray(errors, dtype=float)
    widths = np.asarray(widths, dtype=float)
    if np.any(errors == 0):
        raise ValueError("zero error: estimated order undefined")
    return list(np.log(errors[:-1] / errors[1:]) / np.log(widths[:-1] / widths[1:]))


def eoc(records):
    """Estimated orders of convergence against the effective space-time
    width; first entry has no predecessor and reports None."""
    if len(records) < 2:
        return [None] * len(records)
    vals = rates([r.error for r in records], [r.width for r in records])
    return [None] + vals


RECORD_HEADER = "MN\tM\tN\th_x\tk_max\terror\teoc\twall_time\tresidual"


def emit_records(records):
    """Delimiter-separated study log with a fixed header."""
    lines = [RECORD_HEADER]
    for r, rate in zip(records, eoc(records)):
        rate_s = "-" if rate is None else f"{rate:.2f}"
        lines.append(
            f"{r.MN}\t{r.M}\t{r.N}\t{r.h_x:.5f}\t{r.k_max:.5f}\t{r.error:.3e}\t{rate_s}\t{r.wall_time:.3f}"
            f"\t{r.residual:.3e}"
        )
    return "\n".join(lines) + "\n"
