"""Contraction kernels of the flux module, in NumPy.

``quadratic_form`` is the per-direction contraction of the distance
expansion, run on degree-collapsed tables (``L+1`` rows, not
``(L+1)**2``); the pointwise flux (``flux._flux_rows``) runs the same
product batched over blocks of distances, each row equal to this
function's bit for bit;
``weighted_pair_sum`` is the Gram-weighted contraction of the total flux
on canonical grids of order below ``l_max``.  Both hand the work to
BLAS-backed matrix products.
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
