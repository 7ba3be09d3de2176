"""Log-space linear algebra shared by the transfer engines.

All message passing works on log vectors with explicit -inf for zero
mass; matrices stay in linear space (their entries never underflow once
row tilts are factored out as log vectors).
"""

from __future__ import annotations

import numpy as np
from scipy.special import logsumexp

NEG_INF = float("-inf")

__all__ = [
    "NEG_INF",
    "logsumexp",
    "log_vec_mat",
    "log_mat_vec",
    "log_matmul",
    "normalize_log",
]


def log_vec_mat(log_f: np.ndarray, mat, log_row_tilt: np.ndarray) -> np.ndarray:
    """One forward step: log of (exp(log_f + tilt) @ mat).

    ``log_f`` may be a single (S,) vector or a batch (R, S); ``mat`` is a
    dense array or scipy sparse matrix with nonnegative entries.
    """
    g = log_f + log_row_tilt
    batched = g.ndim == 2
    if not batched:
        g = g[None, :]
    c = np.max(g, axis=1, keepdims=True)
    c_safe = np.where(np.isfinite(c), c, 0.0)
    w = np.exp(g - c_safe)
    out = w @ mat
    with np.errstate(divide="ignore"):
        log_out = np.log(out) + c_safe
    log_out = np.where(np.isfinite(c), log_out, NEG_INF)
    return log_out if batched else log_out[0]


def log_mat_vec(mat, log_row_tilt: np.ndarray, log_b: np.ndarray) -> np.ndarray:
    """One backward step: log of tilt * (mat @ exp(log_b))."""
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
    log_z = float(logsumexp(log_w))
    if not np.isfinite(log_z):
        raise ValueError("cannot normalize: total mass is zero")
    p = np.exp(log_w - log_z)
    p /= p.sum()
    return p, log_z
