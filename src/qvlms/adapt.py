"""Adaptive weight updates for flattened second-order Volterra filters.

The q-gradient update scales each coefficient's stochastic-gradient step
by ``g_i = (q_i + 1) / 2``; ``q = 1`` everywhere recovers the conventional
LMS step exactly. States are immutable values and every step function
returns a fresh state, so independent trials can run on any number of
workers without shared mutable state.

Arithmetic-cost accounting counts the operations a step performs, so an
n-step run reads exactly ``n * (3K + 1)`` multiplications and ``n * 2K``
additions: K multiplications and K-1 additions for the prediction, whose
products are added left to right, one after another; one addition for
the error, one multiplication for ``mu * e``, K for ``g_i * (mu e)``, K for
the product with ``u_i`` and K additions for the weight accumulate.
"""

from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "FilterState",
    "QParams",
    "matrix_gain_step",
    "predict",
    "qvlms_step",
    "step_size_bound",
    "vlms_step",
]


@dataclass(frozen=True)
class QParams:
    """Per-coefficient q values and the induced diagonal gain.

    ``g`` is always derived from ``q`` on access, never stored, so it can
    not go stale. All q values must be positive and finite.
    """

    q: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.q, dtype=np.float64)
        if q.ndim != 1 or q.size < 1:
            raise ValueError("q must be a nonempty 1-D vector")
        if not np.all(np.isfinite(q)) or np.any(q <= 0.0):
            raise ValueError("all q values must be positive and finite")
        q.setflags(write=False)
        object.__setattr__(self, "q", q)

    @property
    def g(self) -> np.ndarray:
        """Diagonal gain entries ``(q_i + 1) / 2``; all ones when q = 1."""
        return (self.q + 1.0) / 2.0

    @classmethod
    def uniform(cls, q: float, size: int) -> "QParams":
        """Broadcast a scalar q to a uniform q vector of the given length."""
        return cls(np.full(int(size), float(q)))

    def __len__(self) -> int:
        return self.q.size


@dataclass(frozen=True)
class FilterState:
    """Adaptive filter snapshot: weights, step size and cost counters."""

    weights: np.ndarray
    step_size: float
    iteration: int = 0
    mul_count: int = 0
    add_count: int = 0

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 1 or w.size < 1:
            raise ValueError("weights must form a nonempty 1-D vector")
        if not self.step_size > 0.0:
            raise ValueError(f"step size must be positive, got {self.step_size}")
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "step_size", float(self.step_size))

    @classmethod
    def zeros(cls, size: int, step_size: float) -> "FilterState":
        return cls(weights=np.zeros(int(size)), step_size=step_size)


def predict(state: FilterState, u) -> tuple[FilterState, float]:
    """Filter output ``w . u`` plus the state with counters advanced.

    The K products are added left to right, the first one first,
    ``((w0 u0 + w1 u1) + w2 u2) + ...``, as the experiment kernel adds
    them. Charges K multiplications and K-1 additions.
    """
    v = np.asarray(u, dtype=np.float64)
    k = state.weights.size
    if v.shape != (k,):
        raise ValueError(f"regressor length {v.size} != weight length {k}")
    y = float(np.add.accumulate(state.weights * v)[-1])
    state = replace(state, mul_count=state.mul_count + k,
                    add_count=state.add_count + k - 1)
    return state, y


def qvlms_step(state: FilterState, u, desired: float,
               qp: QParams) -> tuple[FilterState, float]:
    """One q-gradient LMS update ``w <- w + mu * g * u * e``.

    Parameters
    ----------
    state : FilterState
        Current weights and step size.
    u : array_like
        Expanded input vector of length K.
    desired : float
        Reference sample the prediction is compared against.
    qp : QParams
        Per-coefficient q values; ``g_i = (q_i + 1) / 2``.

    Returns
    -------
    (FilterState, float)
        The advanced state and the a priori error ``desired - w . u``.
        Non-finite inputs raise instead of contaminating the state.
    """
    v = np.asarray(u, dtype=np.float64)
    k = state.weights.size
    if v.shape != (k,):
        raise ValueError(f"regressor length {v.size} != weight length {k}")
    if len(qp) != k:
        raise ValueError(f"q vector length {len(qp)} != weight length {k}")
    if not np.all(np.isfinite(v)):
        raise ValueError("regressor contains non-finite samples")
    if not np.isfinite(desired):
        raise ValueError(f"desired value is not finite: {desired}")

    state, y = predict(state, v)
    e = float(desired) - y
    w = state.weights + (qp.g * (state.step_size * e)) * v
    state = replace(
        state,
        weights=w,
        iteration=state.iteration + 1,
        mul_count=state.mul_count + 2 * k + 1,
        add_count=state.add_count + k + 1,
    )
    return state, e


def vlms_step(state: FilterState, u, desired: float) -> tuple[FilterState, float]:
    """Conventional Volterra LMS update: the ``q = 1`` special case.

    Bit-identical to ``qvlms_step`` with a uniform unit q vector, including
    the cost accounting.
    """
    return qvlms_step(state, u, desired, QParams.uniform(1.0, state.weights.size))


def matrix_gain_step(state: FilterState, u, desired: float,
                     gain: np.ndarray) -> tuple[FilterState, float]:
    """LMS update with a full gain matrix: ``w <- w + mu * (G u) * e``.

    Used for the whitened comparison variant whose gain is built from the
    scaling diagonal and the inverse input autocorrelation. Cost accounting
    charges ``K^2 + 2K + 1`` multiplications and ``K^2 + K`` additions per
    step (matrix-vector product included).
    """
    v = np.asarray(u, dtype=np.float64)
    k = state.weights.size
    gain = np.asarray(gain, dtype=np.float64)
    if v.shape != (k,):
        raise ValueError(f"regressor length {v.size} != weight length {k}")
    if gain.shape != (k, k):
        raise ValueError(f"gain matrix must be {k}x{k}, got {gain.shape}")
    if not np.all(np.isfinite(v)) or not np.isfinite(desired):
        raise ValueError("non-finite input to matrix_gain_step")

    state, y = predict(state, v)
    e = float(desired) - y
    w = state.weights + (state.step_size * e) * (gain @ v)
    state = replace(
        state,
        weights=w,
        iteration=state.iteration + 1,
        mul_count=state.mul_count + k * k + k + 1,
        add_count=state.add_count + k * (k - 1) + k + 1,
    )
    return state, e


def step_size_bound(qp: QParams, eigenvalues) -> float:
    """Step-size stability bound ``1 / max_i((q_i + 1) * lambda_i)``.

    ``eigenvalues`` are the input autocorrelation eigenvalues, paired with
    the q entries by index; with uniform q the pairing is immaterial and
    the bound reads ``1 / ((q + 1) * lambda_max)``. This is a conservative
    sufficient condition for the mean recursion; see the theory module for
    the exact contraction threshold. A ``ValueError`` where some
    ``(q_i + 1) * lambda_i`` overflows, whose bound no double can hold.
    """
    lam = np.asarray(eigenvalues, dtype=np.float64)
    if lam.shape != qp.q.shape:
        raise ValueError(
            f"eigenvalue vector shape {lam.shape} != q shape {qp.q.shape}"
        )
    if not np.all(np.isfinite(lam)) or np.any(lam <= 0.0):
        raise ValueError("all eigenvalues must be positive and finite")
    with np.errstate(over="ignore"):
        scaled = (qp.q + 1.0) * lam
    if not np.all(np.isfinite(scaled)):
        raise ValueError(f"(q + 1) * lambda overflows for q up to {qp.q.max():g} "
                         f"and lambda up to {lam.max():g}")
    return float(1.0 / np.max(scaled))
