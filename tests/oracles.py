"""Reference implementations the tests compare the package against."""

import numpy as np

from cpes.errors import DimensionMismatch
from cpes.numerics import DEGENERATE_NORM


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine similarity in [-1, 1]; 0 for near-zero-norm inputs.

    Scalar oracle for the package's degenerate-vector policy
    (``cpes.numerics.unit_rows``).
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise DimensionMismatch(f"cosine: shapes {u.shape} vs {v.shape}")
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu < DEGENERATE_NORM or nv < DEGENERATE_NORM:
        return 0.0
    return float(np.dot(u, v) / (nu * nv))
