"""Small shared numeric helpers."""

from __future__ import annotations

import numpy as np


def dobrushin(kernel: np.ndarray):
    """Contraction coefficient: max total-variation distance between rows.

    Works on the last two axes: one kernel gives a float, a (J, n, m) stack
    an array of length J."""
    k = np.asarray(kernel, dtype=float)
    best = np.zeros(k.shape[:-2])
    for a in range(k.shape[-2] - 1):
        tv = np.abs(k[..., a + 1 :, :] - k[..., a : a + 1, :]).sum(axis=-1)
        best = np.maximum(best, 0.5 * tv.max(axis=-1))
    return float(best) if k.ndim == 2 else best


def direction_grid(d: int, count: int = 64, extra: np.ndarray | None = None) -> np.ndarray:
    """Deterministic unit directions in R^d, shape (n, d).

    d=1 uses {e1}; d=2 uses evenly spaced half-circle angles (antipodal
    directions are equivalent for variances); d>=3 uses a fixed-seed
    normalized Gaussian cloud.  `extra` rows (e.g. eigen-directions) are
    normalized and appended.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if d == 1:
        dirs = np.array([[1.0]])
    elif d == 2:
        ang = np.pi * np.arange(count) / count
        dirs = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    else:
        rng = np.random.Generator(np.random.PCG64(20240801))
        g = rng.standard_normal((count, d))
        dirs = g / np.linalg.norm(g, axis=1, keepdims=True)
    if extra is not None and len(extra):
        e = np.atleast_2d(np.asarray(extra, dtype=float))
        norms = np.linalg.norm(e, axis=1, keepdims=True)
        keep = norms[:, 0] > 1e-12
        if keep.any():
            dirs = np.vstack([dirs, e[keep] / norms[keep]])
    return dirs


def fmt_float(x) -> str:
    """Stable text form used in CSV output."""
    return repr(float(x))
