"""Log-space linear algebra shared by the transfer engines.

All message passing works on log vectors with explicit -inf for zero
mass; operators stay in linear space (their entries never underflow once
row tilts are factored out as log vectors).  ``log_mat_vec`` is the one
message step, for sparse matrices and matrix-free operators alike.
"""

from __future__ import annotations

import numpy as np
from scipy.special import logsumexp

NEG_INF = float("-inf")

__all__ = [
    "NEG_INF",
    "logsumexp",
    "log_mat_vec",
    "log_matmul",
    "normalize_log",
]


def log_mat_vec(mat, log_row_tilt, log_b: np.ndarray) -> np.ndarray:
    """One message step: log of tilt * (mat @ exp(log_b)) for a nonnegative
    ``mat`` supporting ``@``.  log_b is shifted by its one maximum, so a
    row whose terms all lie ~745 nats below it comes out -inf."""
    c = np.max(log_b) if log_b.size else NEG_INF
    if not np.isfinite(c):
        return np.full_like(log_b, NEG_INF)
    w = np.exp(log_b - c)
    out = mat @ w
    with np.errstate(divide="ignore"):
        return log_row_tilt + np.log(out) + c


def log_matmul(log_a: np.ndarray, log_b: np.ndarray) -> np.ndarray:
    """Log-space matrix product via logsumexp over the shared axis."""
    return logsumexp(log_a[:, :, None] + log_b[None, :, :], axis=1)


def normalize_log(log_w: np.ndarray) -> tuple[np.ndarray, float]:
    """Probabilities and log partition value from unnormalized log weights."""
    top = np.max(log_w) if log_w.size else NEG_INF
    if not np.isfinite(top):
        raise ValueError("cannot normalize: total mass is zero")
    p = np.exp(log_w - top)
    total = p.sum()
    p /= total
    return p, float(top + np.log(total))
