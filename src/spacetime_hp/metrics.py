"""Error measurement and rate extraction.

The computable error surrogate is [v] = sqrt(||v||_L2(Q) * ||d_t v||_L2(Q)),
which dominates the fractional-in-time, L2-in-space error norm. Both L2(Q)
norms are taken on the level's solver.SpaceTimeQuadrature: the load's temporal
rule, whose first element absorbs the non-smoothness at t = 0, and the
error's own spatial rule of solver.ERROR_DEGREE, 16 points per triangle and 4
per interval. The load keeps 49 (6) for the forcing's rough corner factors;
the squared error is smoother in x. Against a 144-point reference, at a
fixed solution, the coarser rule moves the surrogate by 2.6e-4 of itself at
u3 hp+graded level 0 and by 6.1e-6 at level 1. One call of the exact pair
(u, d_t u) is made per bounded chunk of the temporal nodes.
"""

from dataclasses import dataclass

import numpy as np


def l2q_error_element_parts(sol, rule):
    """Squared L2 norms of u - u_MN and of its time derivative over each slab
    (t_{j-1}, t_j) x D, as two arrays with one entry per temporal element,
    on the level's solver.SpaceTimeQuadrature `rule`."""
    quad, t = rule.space, rule.t
    # the constrained space drops column 0, the vertex at t=0
    phi, dphi = rule.phi[:, 1:], rule.dphi[:, 1:]
    val, der = np.empty((2, len(t)))
    for c in quad.time_chunks(len(t)):
        u, du_dt = rule.data.exact(t[c, None])
        val[c] = quad.l2_norm_sq(quad.fe_values(phi[c] @ sol.coefficients) - u)
        der[c] = quad.l2_norm_sq(quad.fe_values(dphi[c] @ sol.coefficients) - du_dt)
    # every element holds nodes, so each sum has one entry per element
    return np.bincount(rule.elements, rule.w * val), np.bincount(rule.elements, rule.w * der)


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
