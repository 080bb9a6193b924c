"""Least-squares fits of error sequences, used by the convergence checks."""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ExpFit:
    b: float
    residual: float
    ok: bool


EXP_FIT_RESIDUAL_THRESHOLD = 0.05


def exp_sqrt_fit(ms, errors):
    """Least squares of log(e) against sqrt(M): returns the decay rate b in
    e ~ exp(-b sqrt(M)) and the RMS residual of the fit."""
    x = np.sqrt(np.asarray(ms, dtype=float))
    y = np.log(np.asarray(errors, dtype=float))
    A = np.column_stack([np.ones_like(x), -x])
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = float(np.sqrt(np.mean((A @ coef - y) ** 2)))
    return float(coef[1]), resid


def power_fit(xs, errors):
    """Least squares of log(e) against log(x): returns the algebraic rate r
    in e ~ x^(-r) and the RMS residual."""
    x = np.log(np.asarray(xs, dtype=float))
    y = np.log(np.asarray(errors, dtype=float))
    A = np.column_stack([np.ones_like(x), -x])
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = float(np.sqrt(np.mean((A @ coef - y) ** 2)))
    return float(coef[1]), resid


def exp_fit(records) -> ExpFit:
    """Exponential-decay diagnostic over records keyed by M."""
    if len(records) < 4:
        raise ValueError("need at least 4 records in the exponential regime")
    b, resid = exp_sqrt_fit([r.M for r in records], [r.error for r in records])
    return ExpFit(b=b, residual=resid, ok=resid <= EXP_FIT_RESIDUAL_THRESHOLD)
