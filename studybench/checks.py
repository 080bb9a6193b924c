"""Correctness checks of the study benchmark.

The study checks read the outputs of the timed rounds: the level records and
the solver residuals. None compares against a stored copy of the program's
output; the only stored numbers are the paper's criterion-1 table.

The data check tests the manufactured problems apart from their closed
forms: at seeded points, finite differences of u_exact must satisfy
d_t u - Laplace u = g and d_t u = du_dt_exact.
"""

import numpy as np

RESIDUAL_MAX = 1e-8  # far below the finest error of every workload (>= 1e-6)
RESIDUAL_PER_ERROR = 1e-3

# u1 with uniform P1 in time and space, levels 0-5: the paper's table that
# acceptance criterion 1 reproduces
U1_UNIFORM_ERRORS = [7.330e-02, 3.423e-02, 1.355e-02, 5.396e-03, 2.267e-03, 9.531e-04]
U1_UNIFORM_LAST_EOC = 1.25

# relative deviation allowed in the data check: u1 carries the Gibbs tail of
# its 1000-term series of g = 1 (about 2e-3 at 0.1 <= x <= 0.9); u3 has
# closed forms, so only finite-difference error remains (about 1e-6)
DATA_TOLERANCE = {"u1": 1e-2, "u3": 1e-5}


def _fit(x, y):
    """Slope and RMS residual of the least-squares line y ~ c - slope * x."""
    A = np.column_stack([np.ones_like(x), -x])
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    return float(coef[1]), float(np.sqrt(np.mean((A @ coef - y) ** 2)))


def _strictly_decreasing(errors):
    if all(a > b for a, b in zip(errors, errors[1:])):
        return []
    return [f"errors do not decrease strictly: {errors}"]


def u1_uniform(records):
    errors = [r["error"] for r in records]
    problems = []
    for level, (e, ref) in enumerate(zip(errors, U1_UNIFORM_ERRORS)):
        if abs(e - ref) > 0.01 * ref:
            problems.append(f"level {level}: error {e:.4e} differs from the paper's {ref:.3e} by more than 1%")
    if len(errors) < len(U1_UNIFORM_ERRORS):
        problems.append(f"only {len(errors)} of {len(U1_UNIFORM_ERRORS)} reference levels ran")
    if len(records) >= 2:
        a, b = records[-2], records[-1]
        rate = np.log(a["error"] / b["error"]) / np.log((b["MN"] / a["MN"]) ** 0.5)
        if abs(rate - U1_UNIFORM_LAST_EOC) > 0.03:
            problems.append(f"last eoc {rate:.3f}, expected {U1_UNIFORM_LAST_EOC} +- 0.03")
    return problems


def u1_hp(records):
    errors = [r["error"] for r in records]
    problems = _strictly_decreasing(errors)
    M = np.array([r["M"] for r in records], dtype=float)
    _, exp_resid = _fit(np.sqrt(M), np.log(errors))
    _, pow_resid = _fit(np.log(M), np.log(errors))
    if not exp_resid < pow_resid:
        problems.append(
            f"exponential fit in sqrt(M) (residual {exp_resid:.3f}) is no better than "
            f"the algebraic fit in M (residual {pow_resid:.3f})"
        )
    return problems


def u3_hp(records):
    errors = [r["error"] for r in records]
    problems = _strictly_decreasing(errors)
    N = np.array([r["N"] for r in records], dtype=float)
    slope, _ = _fit(np.log(N), np.log(errors))
    if slope < 0.5:
        problems.append(f"fitted slope in N {slope:.3f} < 0.5")
    return problems


def study_round(rnd, levels, workload_check):
    """Problems found in one round's outputs; empty when the round is right."""
    problems = [f"level {level} failed: {reason}" for level, reason in rnd["failures"]]
    records, residuals = rnd["records"], rnd["residuals"]
    if len(records) != levels:
        problems.append(f"{len(records)} of {levels} levels completed")
    if len(residuals) != len(records):
        problems.append(f"{len(residuals)} solver residuals captured for {len(records)} levels")
    for level, (rec, res) in enumerate(zip(records, residuals)):
        if not (res <= RESIDUAL_MAX and res <= RESIDUAL_PER_ERROR * rec["error"]):
            problems.append(f"level {level}: solver residual {res:.2e} against error {rec['error']:.2e}")
    return problems + workload_check(records)


def _sample_points(prob, rng, n):
    if prob.dimension == 1:
        return rng.uniform(0.1, 0.9, n)
    # the L-shape is (-1,1)^2 minus the first quadrant; keep 0.05 away from
    # the removed quadrant (whose edges carry the branch cut of the corner
    # factor), 0.15 away from the reentrant corner, and 1e-3 away from the
    # radii 1/4 and 3/4 where the cutoff is only C^2, so that no stencil
    # straddles a jump of the third derivative
    pts = np.empty((0, 2))
    while len(pts) < n:
        cand = rng.uniform(-1.0, 1.0, (4 * n, 2))
        r = np.hypot(*cand.T)
        keep = ((cand[:, 0] < -0.05) | (cand[:, 1] < -0.05)) & (r > 0.15)
        keep &= (np.abs(r - 0.25) > 1e-3) & (np.abs(r - 0.75) > 1e-3)
        pts = np.vstack([pts, cand[keep]])
    return pts[:n]


def data_check(prob, seed, n_points=64, n_times=4):
    """Largest deviations of the two identities over seeded points and times
    in [0.1, T], relative to the largest of |g| and |d_t u| at that time (u1's
    d_t u alone decays to 1e-9 by t = 2); returns (pde, time derivative)."""
    rng = np.random.default_rng(seed)
    times = rng.uniform(0.1, prob.T, n_times)
    x = _sample_points(prob, rng, n_points)
    dt = 1e-6
    h = 1e-5 if prob.dimension == 1 else 1e-4
    shifts = [h] if prob.dimension == 1 else np.eye(2) * h
    pde = ddt = 0.0
    u = prob.u_exact
    for t in times:
        u_t = (u(t + dt, x) - u(t - dt, x)) / (2.0 * dt)
        centre = u(t, x)
        lap = sum((u(t, x + s) - 2.0 * centre + u(t, x - s)) / h**2 for s in shifts)
        g = prob.g(t, x)
        du = prob.du_dt_exact(t, x)
        scale = max(np.abs(g).max(), np.abs(du).max())
        pde = max(pde, np.abs(u_t - lap - g).max() / scale)
        ddt = max(ddt, np.abs(u_t - du).max() / scale)
    return float(pde), float(ddt)
