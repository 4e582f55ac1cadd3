"""Second-order Volterra filter structures.

Canonical flattened layout for a memory-``M`` second-order filter: positions
``0..M-1`` hold the linear taps (newest lag first), the remaining
``M(M+1)/2`` positions hold the quadratic coefficients for lag pairs
``(d, e)`` with ``d <= e`` in lexicographic order ``(0,0), (0,1), ...,
(M-1,M-1)``. Symmetric quadratic mass is pre-summed into the ``d <= e``
slot, so the flattened length is ``K = M + M(M+1)/2``.

This flattened order is also the canonical serialization order for every
file the experiment harness writes.
"""

import math
import operator
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "SQRT2",
    "RegressorMode",
    "VolterraKernel",
    "expand_regressor",
    "flatten_index",
    "kernel_output",
    "num_coefficients",
    "quadratic_pairs",
    "scaling_diag",
    "squared_positions",
]

SQRT2 = math.sqrt(2.0)


class RegressorMode(Enum):
    """Treatment of the squared-lag entries of the expanded input vector.

    ``RAW`` keeps plain products ``x(r-d) x(r-e)``. ``ORTHONORMALIZED``
    replaces each squared entry ``x(r-d)^2`` by ``(x(r-d)^2 - 1) / sqrt(2)``,
    which whitens the regressor for unit-variance white Gaussian input: its
    autocorrelation matrix becomes the identity.
    """

    RAW = "raw"
    ORTHONORMALIZED = "orthonormalized"


def _checked_memory(memory_length) -> int:
    """``memory_length`` as an int; a ``ValueError`` unless it is an integer
    (``operator.index`` takes it) of at least 1."""
    try:
        m = operator.index(memory_length)
    except TypeError:
        m = 0
    if m < 1:
        raise ValueError(f"memory length must be an integer >= 1, "
                         f"got {memory_length!r}")
    return m


def num_coefficients(memory_length: int) -> int:
    """Flattened coefficient count ``K = M + M(M+1)/2``."""
    m = _checked_memory(memory_length)
    return m + m * (m + 1) // 2


def flatten_index(d: int, e: int, memory_length: int) -> int:
    """Flat position of the quadratic lag pair ``(d, e)`` with ``d <= e``.

    Linear taps occupy positions ``0..M-1``; pair ``(d, e)`` sits at ``M``
    plus the lexicographic rank of ``(d, e)`` among pairs with ``d <= e``.
    The map is a bijection onto ``M..K-1``.
    """
    m = _checked_memory(memory_length)
    if not 0 <= d <= e < m:
        raise ValueError(f"lag pair ({d}, {e}) violates 0 <= d <= e < {m}")
    return m + d * m - d * (d - 1) // 2 + (e - d)


def quadratic_pairs(memory_length: int) -> list[tuple[int, int]]:
    """Lag pairs ``(d, e)``, ``d <= e``, in flattened (lexicographic) order."""
    m = _checked_memory(memory_length)
    return [(d, e) for d in range(m) for e in range(d, m)]


def squared_positions(memory_length: int) -> np.ndarray:
    """Flat positions of the squared terms ``(d, d)``, in lag order."""
    m = _checked_memory(memory_length)
    return np.array([flatten_index(d, d, m) for d in range(m)], dtype=np.intp)


def scaling_diag(memory_length: int) -> np.ndarray:
    """Diagonal of the scaling matrix for memory length ``M``: ``sqrt(2)``
    exactly at the flattened positions of squared terms, 1 elsewhere.

    Together with mean-centering of the squared terms, dividing a raw
    regressor elementwise by these entries whitens it under unit-variance
    white Gaussian input.
    """
    m = _checked_memory(memory_length)
    entries = np.ones(num_coefficients(m))
    entries[squared_positions(m)] = SQRT2
    return entries


def expand_regressor(window, mode: RegressorMode = RegressorMode.RAW) -> np.ndarray:
    """Expand an input window into the flattened second-order regressor.

    Parameters
    ----------
    window : array_like, shape (M,)
        The ``M`` most recent input samples, newest first:
        ``[x(r), x(r-1), ..., x(r-M+1)]``.
    mode : RegressorMode
        Raw keeps plain products; orthonormalized centers and scales the
        squared entries as ``(x^2 - 1) / sqrt(2)``.

    Returns
    -------
    ndarray, shape (K,)
        Length ``K = M + M(M+1)/2``: linear taps followed by quadratic
        products in lexicographic pair order.
    """
    w = np.asarray(window, dtype=np.float64)
    if w.ndim != 1 or w.size < 1:
        raise ValueError(f"window must be a 1-D vector, got shape {w.shape}")
    m = w.size
    iu, ju = np.triu_indices(m)
    quad = w[iu] * w[ju]
    if mode is RegressorMode.ORTHONORMALIZED:
        quad[np.flatnonzero(iu == ju)] = (w * w - 1.0) / SQRT2
    elif mode is not RegressorMode.RAW:
        raise ValueError(f"unknown regressor mode: {mode!r}")
    return np.concatenate([w, quad])


@dataclass(frozen=True)
class VolterraKernel:
    """Second-order system coefficients in canonical flattened order.

    Attributes
    ----------
    linear : ndarray, shape (M,)
        Linear tap weights, newest lag first.
    quadratic : ndarray, shape (M(M+1)/2,)
        Upper-triangular quadratic weights in lexicographic pair order,
        with symmetric off-diagonal mass pre-summed into the ``d <= e`` slot.
    """

    linear: np.ndarray
    quadratic: np.ndarray

    def __post_init__(self):
        linear = np.asarray(self.linear, dtype=np.float64)
        quadratic = np.asarray(self.quadratic, dtype=np.float64)
        if linear.ndim != 1 or linear.size < 1:
            raise ValueError("linear taps must form a nonempty 1-D vector")
        m = linear.size
        if quadratic.shape != (m * (m + 1) // 2,):
            raise ValueError(
                f"quadratic vector must have length {m * (m + 1) // 2} for "
                f"memory length {m}, got shape {quadratic.shape}"
            )
        linear.setflags(write=False)
        quadratic.setflags(write=False)
        object.__setattr__(self, "linear", linear)
        object.__setattr__(self, "quadratic", quadratic)

    @property
    def memory_length(self) -> int:
        return self.linear.size

    @property
    def num_coefficients(self) -> int:
        return self.linear.size + self.quadratic.size

    def flat(self) -> np.ndarray:
        """Flattened coefficient vector."""
        return np.concatenate([self.linear, self.quadratic])

    @classmethod
    def from_flat(cls, flat) -> "VolterraKernel":
        """Rebuild a kernel from its flattened vector; inverse of ``flat``."""
        v = np.asarray(flat, dtype=np.float64)
        if v.ndim != 1:
            raise ValueError(f"flat kernel must be 1-D, got shape {v.shape}")
        k = v.size
        m = int(round((-3.0 + math.sqrt(9.0 + 8.0 * k)) / 2.0))
        if num_coefficients(max(m, 1)) != k:
            raise ValueError(f"length {k} is not M + M(M+1)/2 for any M >= 1")
        return cls(linear=v[:m], quadratic=v[m:])


def kernel_output(kernel: VolterraKernel, window) -> float:
    """Output of a second-order Volterra system for one input window.

    Equals ``flat(kernel) . expand_regressor(window, RAW)``: the linear
    taps and the pre-summed symmetric quadratic taps applied to the raw lag
    products.
    """
    w = np.asarray(window, dtype=np.float64)
    if w.shape != (kernel.memory_length,):
        raise ValueError(
            f"window length {w.size} does not match memory length "
            f"{kernel.memory_length}"
        )
    return float(kernel.flat() @ expand_regressor(w, RegressorMode.RAW))
