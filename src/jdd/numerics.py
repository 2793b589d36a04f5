"""Numerically stable primitives of the bounds and the detection statistics.

q_func and q_inv, which jdd.bounds evaluates, are pure and vectorized:
scalars in, scalars out, or numpy arrays elementwise. _log_cosh_in_place,
the ln cosh kernel of jdd.detectors, overwrites the array it is given.
"""

import numpy as np
from scipy.special import erfc, ndtri

__all__ = ["q_func", "q_inv"]

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


def _log_cosh_in_place(ax):
    """Overwrite the float array `ax` with ln cosh(ax) = |ax| - ln 2 + log1p(exp(-2|ax|))."""
    np.abs(ax, out=ax)
    # the correction term is already 0 to machine precision past ~19; the cap
    # just keeps 2*ax from overflowing for astronomically large inputs
    t = np.minimum(ax, 400.0)
    t *= -2.0
    np.exp(t, out=t)
    np.log1p(t, out=t)
    ax -= np.log(2.0)
    ax += t

