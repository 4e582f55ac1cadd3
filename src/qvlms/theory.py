"""Closed-form mean-convergence analysis for white Gaussian excitation.

For zero-mean unit-variance i.i.d. Gaussian input, the expanded regressor
has a closed-form autocorrelation built from fourth-order Gaussian moment
factorization. The mean weight-error trajectory follows the linear
recursion ``E[delta(r)] = (I - mu A)^r E[delta(0)]`` with
``A = diag(g) @ R_in``, where ``R_in`` is the autocorrelation of whatever
regressor the filter is fed. In orthonormalized mode ``R_in`` is the
identity and ``A = diag(g)``, so the trajectory is componentwise geometric
with ratio ``1 - mu (q + 1) / 2``.
"""

from functools import lru_cache

import numpy as np

from qvlms.adapt import QParams
from qvlms.volterra import (
    RegressorMode,
    num_coefficients,
    quadratic_pairs,
)

__all__ = [
    "build_update_matrix",
    "gaussian_autocorrelation",
    "gaussian_eigenvalues",
    "mean_weight_error_trajectory",
    "wiener_solution",
]

#: Condition-number ceiling for linear solves.
MAX_CONDITION = 1e12


def gaussian_autocorrelation(memory_length: int,
                             mode: RegressorMode = RegressorMode.RAW) -> np.ndarray:
    """Autocorrelation ``E[u u^T]`` of the expanded regressor.

    Orthonormalized mode returns the identity exactly: centering and
    scaling the squared terms whitens the regressor. Raw mode uses the
    Gaussian moment factorization
    ``E[x_a x_b x_c x_d] = d_ab d_cd + d_ac d_bd + d_ad d_bc``:
    the linear block is the identity, linear-quadratic cross terms vanish
    (odd moments), squared entries have ``E[x^4] = 3`` on the diagonal and
    1 against other squared entries, and distinct-pair products are
    orthonormal.

    The matrix is built once per ``(memory_length, mode)`` and the same
    read-only array is returned to every caller; copy it to modify it.
    """
    if not isinstance(mode, RegressorMode):
        raise ValueError(f"unknown regressor mode: {mode!r}")
    return _autocorrelation(int(memory_length), mode)


@lru_cache(maxsize=None)
def _autocorrelation(m: int, mode: RegressorMode) -> np.ndarray:
    k = num_coefficients(m)
    if mode is RegressorMode.ORTHONORMALIZED:
        r = np.eye(k)
    else:
        pairs = quadratic_pairs(m)
        r = np.zeros((k, k))
        r[:m, :m] = np.eye(m)
        for i, (a, b) in enumerate(pairs):
            for j, (c, d) in enumerate(pairs):
                r[m + i, m + j] = (
                    (a == b) * (c == d) + (a == c) * (b == d) + (a == d) * (b == c)
                )
    r.setflags(write=False)
    return r


def gaussian_eigenvalues(memory_length: int,
                         mode: RegressorMode = RegressorMode.RAW) -> np.ndarray:
    """Ascending eigenvalues of ``gaussian_autocorrelation(memory_length, mode)``.

    Like the matrix, they are computed once per ``(memory_length, mode)``
    and the same read-only array is returned to every caller.
    """
    if not isinstance(mode, RegressorMode):
        raise ValueError(f"unknown regressor mode: {mode!r}")
    return _eigenvalues(int(memory_length), mode)


@lru_cache(maxsize=None)
def _eigenvalues(m: int, mode: RegressorMode) -> np.ndarray:
    lam = np.linalg.eigvalsh(_autocorrelation(m, mode))
    lam.setflags(write=False)
    return lam


def build_update_matrix(qp: QParams, autocorrelation: np.ndarray) -> np.ndarray:
    """Mean-recursion matrix ``A = diag(g) @ R``.

    ``autocorrelation`` is the second-moment matrix of the regressor the
    filter actually sees. The mean trajectory contracts if and only if
    ``0 < mu < 2 / lambda_max(A)``.
    """
    r = np.asarray(autocorrelation, dtype=np.float64)
    if r.ndim != 2 or r.shape[0] != r.shape[1]:
        raise ValueError(f"autocorrelation must be square, got shape {r.shape}")
    if len(qp) != r.shape[0]:
        raise ValueError(
            f"q vector length {len(qp)} != matrix dimension {r.shape[0]}"
        )
    return qp.g[:, None] * r


def mean_weight_error_trajectory(initial_error, mu: float, update_matrix,
                                 iterations: int) -> np.ndarray:
    """Mean weight-error sequence ``(I - mu A)^t @ initial_error``.

    Computed by repeated application of the step matrix, never by an
    explicit matrix power. Row ``t`` of the result is the trajectory after
    ``t`` steps; row 0 is the initial error unchanged.
    """
    v = np.asarray(initial_error, dtype=np.float64).copy()
    a = np.asarray(update_matrix, dtype=np.float64)
    n = int(iterations)
    if n < 0:
        raise ValueError("iteration count must be >= 0")
    if a.shape != (v.size, v.size):
        raise ValueError(
            f"update matrix shape {a.shape} does not match error length {v.size}"
        )
    step = np.eye(v.size) - mu * a
    out = np.empty((n + 1, v.size))
    out[0] = v
    for t in range(1, n + 1):
        v = step @ v
        out[t] = v
    return out


def wiener_solution(autocorrelation, cross_correlation) -> np.ndarray:
    """Optimum weight vector ``w* = R^-1 r_ud`` via a stable linear solve.

    Raises ``numpy.linalg.LinAlgError`` when the condition estimate of R
    exceeds ``MAX_CONDITION``.
    """
    r = np.asarray(autocorrelation, dtype=np.float64)
    p = np.asarray(cross_correlation, dtype=np.float64)
    if r.ndim != 2 or r.shape[0] != r.shape[1] or p.shape != (r.shape[0],):
        raise ValueError(
            f"incompatible shapes: R {r.shape}, cross-correlation {p.shape}"
        )
    cond = np.linalg.cond(r)
    if not np.isfinite(cond) or cond > MAX_CONDITION:
        raise np.linalg.LinAlgError(
            f"autocorrelation matrix is ill-conditioned (cond ~ {cond:.3e})"
        )
    return np.linalg.solve(r, p)
