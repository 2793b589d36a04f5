"""Numerically stable scalar primitives shared by all detection statistics and bounds.

Everything here is pure and vectorized: scalars in, scalars out, or numpy
arrays elementwise.
"""

import numpy as np
from scipy.special import erfc, ndtri

__all__ = ["q_func", "q_inv", "log_cosh"]

_SQRT2 = np.sqrt(2.0)


def q_func(x):
    """Gaussian upper-tail probability Q(x) = P[N(0,1) > x].

    Evaluated through erfc, which keeps the relative error at machine
    precision deep into the tail (Q(10) ~ 7.6e-24 is still accurate).
    """
    return 0.5 * erfc(np.asarray(x, dtype=float) / _SQRT2)


def q_inv(p):
    """Inverse of q_func on (0, 1).

    Raises ValueError outside the open unit interval.
    """
    p = np.asarray(p, dtype=float)
    if np.any((p <= 0.0) | (p >= 1.0)):
        raise ValueError("q_inv requires 0 < p < 1")
    # Q^{-1}(p) = -Phi^{-1}(p); ndtri is accurate to ~1 ulp over the full range.
    out = -ndtri(p)
    return out if out.ndim else float(out)


def log_cosh(x):
    """ln cosh(x) without overflow: |x| - ln 2 + log1p(exp(-2|x|))."""
    ax = np.array(x, dtype=float, ndmin=1)  # a copy; 0-d would give scalars, which take no out=
    _log_cosh_in_place(ax)
    return ax if np.ndim(x) else float(ax[0])


def _log_cosh_in_place(ax):
    """Overwrite the float array `ax` with log_cosh(ax), value for value."""
    np.abs(ax, out=ax)
    # the correction term is already 0 to machine precision past ~19; the cap
    # just keeps 2*ax from overflowing for astronomically large inputs
    t = np.minimum(ax, 400.0)
    t *= -2.0
    np.exp(t, out=t)
    np.log1p(t, out=t)
    ax -= np.log(2.0)
    ax += t

