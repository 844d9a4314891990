"""Contraction kernels of the flux module, in NumPy.

``quadratic_form`` contracts degree sums with one pair matrix; no flux path
calls it, and it is the reference, bit for bit, for each channel's part of
each row of ``flux._flux_rows``.  ``weighted_pair_sum`` is the Gram-weighted
total flux on grids of order below ``l_max``.  Both run BLAS products.
"""

from __future__ import annotations

import numpy as np

__all__ = ["quadratic_form", "weighted_pair_sum"]


def quadratic_form(g: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Return ``out[p] = sum_{a,b} conj(g[a, p]) * w[a, b] * g[b, p]``.

    Real ``g`` and ``w`` give a real result without complex copies.
    """
    if w.shape != (g.shape[0], g.shape[0]):
        raise ValueError("pair matrix shape does not match mode count")
    return (g.conj() * (w @ g)).sum(0)


def weighted_pair_sum(coeff: np.ndarray, w: np.ndarray, gram: np.ndarray) -> complex:
    """Return ``sum_{a,b} conj(coeff[a]) * coeff[b] * w[a, b] * gram[a, b]``."""
    n = coeff.shape[0]
    if w.shape != (n, n) or gram.shape != (n, n):
        raise ValueError("pair matrix shape does not match mode count")
    return complex(np.vdot(coeff, (w * gram) @ coeff))
