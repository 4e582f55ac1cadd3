"""Closed-form mean-convergence analysis for white Gaussian excitation.

For zero-mean unit-variance i.i.d. Gaussian input, the expanded regressor
has a closed-form autocorrelation built from fourth-order Gaussian moment
factorization. The mean weight-error trajectory follows the linear
recursion ``E[delta(r)] = (I - mu A)^r E[delta(0)]`` with
``A = diag(g) @ R_in``, where ``R_in`` is the autocorrelation of whatever
regressor the filter is fed. In orthonormalized mode ``R_in`` is the
identity and ``A = diag(g)``, so the trajectory is componentwise geometric
with ratio ``1 - mu (q + 1) / 2``.

The recursion is evaluated a block of B steps per matrix product. With
error vectors as rows, one step is ``delta @ S`` for ``S = (I - mu A)^T``;
the powers ``S^1 .. S^B``, formed once by repeated products, stand side
by side in one (K, B K) matrix, so one product takes a stack of errors to
all B steps of a block, and the block's last step is where the next block
starts. At B = 1 this is the step-by-step recursion.
"""

import operator
from functools import lru_cache

import numpy as np

from qvlms.adapt import QParams
from qvlms.volterra import (
    RegressorMode,
    _checked_memory,
    num_coefficients,
    quadratic_pairs,
)

__all__ = [
    "build_update_matrix",
    "gaussian_autocorrelation",
    "gaussian_eigenvalues",
    "mean_weight_error_trajectory",
]


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
    return _autocorrelation(_checked_memory(memory_length), mode)


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

    They are exact, from the matrix's closed form: all 1 in
    orthonormalized mode; in raw mode 1 (K - M times), then the squared
    entries' block ``2 I + 1 1^T``: 2 (M - 1 times) and M + 2.

    Like the matrix, they are built once per ``(memory_length, mode)``
    and the same read-only array is returned to every caller.
    """
    if not isinstance(mode, RegressorMode):
        raise ValueError(f"unknown regressor mode: {mode!r}")
    return _eigenvalues(_checked_memory(memory_length), mode)


@lru_cache(maxsize=None)
def _eigenvalues(m: int, mode: RegressorMode) -> np.ndarray:
    lam = np.ones(num_coefficients(m))
    if mode is RegressorMode.RAW:
        lam[-m:] = [2.0] * (m - 1) + [m + 2.0]
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

    Computed by repeated application of the step matrix, one step per
    product, never by an explicit matrix power. Row ``t`` of the result is
    the trajectory after ``t`` steps; row 0 is the initial error unchanged.
    """
    v = np.asarray(initial_error, dtype=np.float64)
    a = np.asarray(update_matrix, dtype=np.float64)
    try:
        n = operator.index(iterations)
    except TypeError:
        n = -1
    if n < 0:
        raise ValueError(f"iteration count must be an integer >= 0, "
                         f"got {iterations!r}")
    if a.shape != (v.size, v.size):
        raise ValueError(
            f"update matrix shape {a.shape} does not match error length {v.size}"
        )
    out = np.empty((n + 1, v.size))
    for row, block in _trajectory_blocks(v[None], _step_powers(mu, a, 1), n):
        out[row:row + block.shape[1]] = block[0]
    return out


def _step_powers(mu: float, update_matrix, block: int) -> np.ndarray:
    """The powers ``S^1 .. S^block`` of the row step ``S = (I - mu A)^T``,
    side by side, (K, block K): ``S^j`` is columns ``(j-1) K .. j K``, and
    ``S^j = S^(j-1) @ S``."""
    k = len(update_matrix)
    powers = np.empty((k, block * k))
    powers[:, :k] = (np.eye(k) - mu * update_matrix).T
    for j in range(1, block):
        np.matmul(powers[:, (j - 1) * k:j * k], powers[:, :k],
                  out=powers[:, j * k:(j + 1) * k])
    return powers


def _trajectory_blocks(initial_error, powers, iterations: int):
    """Yield ``(row, block)`` for the mean weight errors of ``iterations``
    steps from the stack ``initial_error`` (T, K): ``block (T, b, K)`` holds
    the errors at rows ``row .. row+b-1``. The first block is row 0, the
    initial errors, and then come blocks of B steps (``powers`` from
    ``_step_powers``), the last one shorter where B does not divide the
    iteration count.

    Each block of steps is one product of the errors at the row before it
    with the powers. A block is a buffer that the next block overwrites,
    and that the consumer may overwrite: its last step is kept apart first.
    """
    t, k = initial_error.shape
    n, blk = int(iterations), powers.shape[1] // k
    cur = np.array(initial_error, dtype=np.float64)
    yield 0, cur[:, None].copy()
    flat = np.empty(t * min(blk, n) * k)
    for r0 in range(0, n, blk):
        b = min(blk, n - r0)
        out = flat[:t * b * k].reshape(t, b * k)
        np.matmul(cur, powers[:, :b * k], out=out)
        np.copyto(cur, out[:, -k:])
        yield r0 + 1, out.reshape(t, b, k)
