"""Log-space linear algebra shared by the transfer engines.

The exact engine's messages and product laws are log arrays with
explicit -inf for zero mass; operators stay in linear space (their
entries never underflow once row tilts are factored out as log
vectors).  ``log_mat_vec`` is that engine's message step on its sparse
matrices; it sets the shifted inputs below the smallest normal double
(``TINY``) to 0.0, because x86 does arithmetic on subnormal doubles
through a slow microcode path and a tilted message holds many of them.
``logsumexp`` sums in exact log space what a step must not
lose (rows a shared shift underflowed, columns a product law sums out);
it works in place on one copy of its input (or on the input itself), so
its peak is about one input's size.  The polymer oracle keeps its
messages in scaled linear space instead and takes one log per pass.
"""

from __future__ import annotations

import numpy as np

NEG_INF = float("-inf")
TINY = np.finfo(float).tiny  # the smallest normal double

__all__ = [
    "NEG_INF",
    "TINY",
    "logsumexp",
    "log_mat_vec",
    "normalize_log",
]


def logsumexp(a, axis=None, overwrite: bool = False):
    """log(sum(exp(a))) over ``axis`` (an int, a tuple or None), -inf where
    every term is -inf.  With ``overwrite`` the float array ``a`` is used as
    scratch; otherwise one copy of it is."""
    a = np.asarray(a, dtype=float) if overwrite else np.array(a, dtype=float)
    top = np.asarray(np.max(a, axis=axis, keepdims=True, initial=NEG_INF))  # a 0-d max is a scalar
    top[np.isneginf(top)] = 0.0  # an all -inf slice sums to 0 below
    a -= top
    np.exp(a, out=a)
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(a, axis=axis, keepdims=True)) + top
    return np.squeeze(out, axis=axis)[()]


def log_mat_vec(mat, log_row_tilt, log_b: np.ndarray) -> np.ndarray:
    """One message step: log of tilt * (mat @ exp(log_b)) for a nonnegative
    ``mat`` supporting ``@``.  log_b is shifted by its one maximum, and
    the shifted entries below ``TINY`` (~708 nats below it) are dropped,
    so a row whose terms all lie that far down comes out -inf.  For a
    ``mat`` whose rows sum to at most 1, a row loses less than 2 * TINY
    of its shifted value, so it may be off by more than an ulp only when
    that value is under 2^53 * 2 * TINY (~671 nats below the maximum)."""
    c = np.max(log_b) if log_b.size else NEG_INF
    if not np.isfinite(c):
        return np.full_like(log_b, NEG_INF)
    w = np.exp(log_b - c)
    w[w < TINY] = 0.0
    out = mat @ w
    with np.errstate(divide="ignore"):
        return log_row_tilt + np.log(out) + c


def normalize_log(log_w: np.ndarray) -> tuple[np.ndarray, float]:
    """Probabilities and log partition value from unnormalized log weights."""
    top = np.max(log_w) if log_w.size else NEG_INF
    if not np.isfinite(top):
        raise ValueError("cannot normalize: total mass is zero")
    p = log_w - top
    np.exp(p, out=p)
    total = p.sum()
    p /= total
    return p, float(top + np.log(total))
