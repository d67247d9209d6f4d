"""Matrix-space primitives: minors vectors, rank-one structure, dimension bookkeeping.

Points of R^{N x n} are the arguments of every supremand in this package.  The
two facts this module owns are

* the minors vector ``T(xi) = (xi, all 2x2 minors, ..., the top minor)`` of
  length ``tau(N, n) = sum_s C(N,s) C(n,s)``, which is affine along rank-one
  segments, and
* a robust rank-one test based on singular values.

Minor ordering is lexicographic over (row index set, column index set), with
the minor size s increasing; consequently the first N*n components of the
minors vector are the matrix entries themselves in row-major order.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

__all__ = [
    "tau",
    "det2",
    "minors_batch",
    "is_rank_one_connected",
]

#: Relative tolerance of the singular-value rank test.
RANK_TOL = 1e-9


def tau(N: int, n: int) -> int:
    """Length of the minors vector: sum_{s=1}^{min(n,N)} C(N,s) C(n,s)."""
    if N < 1 or n < 1:
        raise ValueError("dimensions must be positive")
    return sum(math.comb(N, s) * math.comb(n, s) for s in range(1, min(N, n) + 1))


def _index_sets(N: int, n: int):
    """Yield (s, rows, cols) in the canonical minor ordering."""
    for s in range(1, min(N, n) + 1):
        for rows in itertools.combinations(range(N), s):
            for cols in itertools.combinations(range(n), s):
                yield s, rows, cols


def det2(arr: np.ndarray) -> np.ndarray:
    """Determinants of a stack of 2x2 matrices: (..., 2, 2) -> (...).

    The closed form a d - b c.  It is exact whenever the two products and
    their difference are floats, as on dyadic entries k / 2^m of modest size,
    where a batched LU may miss by an ulp (det = 1 read as 1 - 2^-53).
    """
    return arr[..., 0, 0] * arr[..., 1, 1] - arr[..., 0, 1] * arr[..., 1, 0]


def minors_batch(arr: np.ndarray) -> np.ndarray:
    """Minors vectors of a stack of matrices: (..., N, n) -> (..., tau(N, n))."""
    arr = np.asarray(arr, dtype=float)
    N, n = arr.shape[-2:]
    comps = []
    for s, rows, cols in _index_sets(N, n):
        sub = arr[..., rows, :][..., :, cols]
        if s == 1:
            comps.append(sub[..., 0, 0])
        elif s == 2:
            comps.append(det2(sub))
        else:
            comps.append(np.linalg.det(sub))
    return np.stack(comps, axis=-1)


def is_rank_one_connected(xi, eta) -> bool:
    """True iff xi - eta has numerical rank exactly one.

    The test is relative: the second singular value of the difference must not
    exceed ``RANK_TOL`` times the first, and the first must exceed ``RANK_TOL``
    (so the zero difference is rank zero, not rank one).
    """
    a = np.asarray(xi, dtype=float)
    b = np.asarray(eta, dtype=float)
    if a.shape != b.shape:
        raise ValueError("matrices must have the same dimensions")
    s = np.linalg.svd(a - b, compute_uv=False)
    s1 = float(s[0])
    s2 = float(s[1]) if len(s) > 1 else 0.0
    return s1 > RANK_TOL and s2 / s1 <= RANK_TOL
