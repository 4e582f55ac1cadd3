"""Nonlinear channel identification experiments.

A trial streams unit-variance white Gaussian input through a second-order
Volterra channel, ``d(r) = h . u(r) + eta(r)``, and adapts a filter on the
same regressor. Channel coefficients and initial weights are drawn per
trial from a seeded generator, so every protocol output is a pure function
of its configuration and master seed. Trials are averaged with the
divergence guard applied: a trial whose normalized weight deviation
exceeds ``DIVERGENCE_THRESHOLD`` is marked at the triggering iteration and
excluded from the averages (never silently dropped).

One streaming kernel, ``_lockstep``, runs every simulation: ``run_trial``,
``monte_carlo`` and both protocols. It keeps these invariants:

* The kernel steps a trial's weight error ``delta = h - w``, the form of
  the paper's analysis, not its weights: ``e = sigma z + u . delta`` and
  ``delta <- delta - g (mu e) v``, the steps of w in exact arithmetic. No
  desired signal ``h . u`` is formed and no a priori error is the rounded
  difference of ``h . u`` and ``w . u``, so a noiseless trial converges
  far below the rounding of the weights. Its final weights are
  ``h - delta``.
* A trial's curves and final weights have the same bits whichever entry
  point ran it, beside whichever cells and trials, at any block or
  segment length. Diagonal-gain trials have the bits of the scalar
  weight-error recursion above, whose sum ``u . delta`` adds its K terms
  left to right, the first one first, as ``adapt.predict`` does; a single
  trial (one cell, one trial) runs that recursion itself, on Python
  floats, and numpy rebuilds its rows of weight error from the a priori
  errors with the same operations in the same order. The scalar
  ``adapt.qvlms_step`` / ``vlms_step`` of the weights agree with them to
  rounding. The one exception is a ``whitened`` cell
  whose gain is a full matrix (the raw regressor mode): BLAS may order
  ``(S R^-1 S) u`` one way for one trial and another for several.
* Each trial's channel, initial weights, input and unit noise streams are
  drawn once per run and shared by every (algorithm, q, SNR) cell; SNR
  only rescales the noise, so comparisons between cells are paired. The
  noise comes from a generator of its own, seeded by the first child of
  the trial's seed, so no generator draws a stream only to skip it. Each
  stream has the bits of ``default_rng`` of its seed or child, whose
  generators come from ``seeding.generators``.
* Trials run one chunk of ``_CHUNK`` at a time, their streams are drawn
  one segment of about ``_SEGMENT`` steps at a time, and their weight
  errors are kept one block of steps at a time, in buffers that every segment and
  block of a chunk reuses: no kernel buffer grows with the trial or the
  iteration count. The run's curve sums, two (N+1) x cells x 3 sets, and
  the theory sums, (N+1) x cells, that ``protocol1`` adds after the run
  from each chunk's ``h, w0`` drawn again, grow with the iterations, and
  nothing else does; nothing grows with the trials but one flag per
  trial-cell.
* The kernel applies the divergence guard, once for every caller, and
  yields each block's signed weight error, from which a trial's weights
  at any row, the divergence included, are read: no caller runs a trial
  again to recover them. A chunk's cells in which some trial diverged are
  replayed on that chunk alone with the diverged trials left out of their
  sums, so each cell's averages have the bits of a run of that cell alone.
* The protocol reports hold the objects their run built: the
  ``ExperimentConfig``, the ``ChannelSpec`` and each cell's
  ``AveragedCurves``, none of whose fields they copy.
"""

import itertools
import math
import operator
import struct
import sys
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# step_size_bound is not called here, but perfbench/spans.py spans this
# module's binding of it
from qvlms.adapt import QParams, step_size_bound  # noqa: F401
from qvlms.seeding import SpawnedSeeds, generators
from qvlms.theory import (
    _step_powers,
    _trajectory_blocks,
    build_update_matrix,
    gaussian_autocorrelation,
    gaussian_eigenvalues,
)
from qvlms.volterra import (
    SQRT2,
    RegressorMode,
    VolterraKernel,
    flatten_index,
    num_coefficients,
    scaling_diag,
)

__all__ = [
    "ALGORITHMS",
    "AveragedCurves",
    "ChannelSpec",
    "CurveComparison",
    "ExperimentConfig",
    "Protocol1Report",
    "Protocol2Report",
    "TrialCurves",
    "correlation_coefficient",
    "monte_carlo",
    "noise_variance_for_snr",
    "nwd",
    "nwd_db",
    "protocol1",
    "protocol2",
    "run_trial",
    "steady_state_level",
    "trial_seeds",
]

#: Supported adaptation algorithms. "whitened" replaces the diagonal q-gain
#: with the fixed matrix S R^-1 S built from the closed-form input
#: autocorrelation of the active regressor mode.
ALGORITHMS = ("qvlms", "vlms", "whitened")

DIVERGENCE_THRESHOLD = 1e6

#: Trials drawn and advanced together.
_CHUNK = 256
#: Most steps whose regressors are built, and whose curves are reduced, at
#: once, where a slab holds more than one value. The history budget below
#: decides wherever a block would hold more than 2,048 values a step:
#: protocol 2 takes 4 steps, M = 8 with three cells 3, protocol 1 18. A
#: single trial's block is a whole segment (``_trial_lockstep``).
_BLOCK = 64
#: Budget of a block's weight history (B, K, cells, trials): half the
#: per-core L2 cache, so that the block reductions read it from cache.
_BLOCK_BYTES = 1 << 20
#: Steps whose input and noise are drawn at once, rounded down to whole
#: blocks: the streams' buffers hold one segment, whatever the run length.
#: A single trial's guard and yield run once a segment.
_SEGMENT = 512
#: Trials whose input and noise are drawn into the staging tile at once:
#: 32 doubles of a time-major row, four cache lines. Eight trials (one
#: line) made a 256-trial segment's draws about 20% slower.
_TILE = 32
#: Every kernel buffer starts on a boundary of this many bytes, a page.
_ALIGN = 4096


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def nwd(h, w) -> float:
    """Normalized weight deviation ``||h - w||^2 / ||h||^2`` (squared).

    The kernel's arithmetic: the squares of the weight error added left to
    right, over ``(h * h).sum()``. The kernel steps the weight error
    ``delta`` itself, and a trial's final weights are ``h - delta``
    rounded, so ``nwd`` of its channel and final weights agrees with its
    last NWD to that rounding."""
    hv = np.asarray(h, dtype=np.float64)
    wv = np.asarray(w, dtype=np.float64)
    if hv.shape != wv.shape or hv.ndim != 1:
        raise ValueError(f"shape mismatch: h {hv.shape}, w {wv.shape}")
    denom = float((hv * hv).sum())
    if denom == 0.0:
        raise ValueError("channel vector must be nonzero")
    diff = hv - wv
    return float(np.add.accumulate(diff * diff)[-1]) / denom


def nwd_db(value) -> np.ndarray | float:
    """Power-ratio decibels ``10 log10(value)``; 0 maps to -inf."""
    with np.errstate(divide="ignore"):
        return 10.0 * np.log10(value)


def correlation_coefficient(a, b) -> float:
    """Pearson correlation of two equally long curves."""
    av = np.asarray(a, dtype=np.float64)
    bv = np.asarray(b, dtype=np.float64)
    if av.shape != bv.shape or av.ndim != 1 or av.size < 2:
        raise ValueError("curves must be equally long 1-D vectors of length >= 2")
    ac = av - av.mean()
    bc = bv - bv.mean()
    va = float(ac @ ac)
    vb = float(bc @ bc)
    if va == 0.0 or vb == 0.0:
        raise ValueError("correlation undefined for a constant curve")
    return float(np.clip((ac @ bc) / math.sqrt(va * vb), -1.0, 1.0))


def noise_variance_for_snr(signal_power: float, snr_db: float) -> float:
    """Noise power giving the requested SNR: ``P * 10^(-snr/10)``."""
    if signal_power < 0.0:
        raise ValueError("signal power must be >= 0")
    return float(signal_power) * float(10.0 ** (-float(snr_db) / 10.0))


def steady_state_level(curve, fraction: float = 0.1) -> float:
    """Mean of the trailing ``fraction`` of a curve."""
    c = np.asarray(curve, dtype=np.float64)
    tail = max(1, int(round(c.size * fraction)))
    return float(c[-tail:].mean())


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def _check_positive(name: str, value) -> None:
    """Raise a ``ValueError`` naming ``name`` unless ``value`` is positive
    and finite."""
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be positive and finite, got {value}")


def _check_count(name: str, value, low: int = 1) -> None:
    """Raise a ``ValueError`` naming ``name`` unless ``value`` is an
    integer (``operator.index`` takes it) of at least ``low``."""
    try:
        ok = operator.index(value) >= low
    except TypeError:
        ok = False
    if not ok:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


def _check_size(name: str, value) -> None:
    """Raise a ``ValueError`` naming ``name`` unless ``value`` is a count
    (``_check_count``) of at most ``sys.maxsize``, the largest index numpy
    takes."""
    _check_count(name, value)
    if value > sys.maxsize:
        raise ValueError(f"{name} must be at most {sys.maxsize}, got {value!r}")


def _check_distinct(name: str, values) -> None:
    """Raise a ``ValueError`` naming ``name`` if ``values`` repeats a value:
    each value names a run's cells, and two equal cells collide in every
    output that is keyed by them. Values are compared by ``==``."""
    if any(value in values[:i] for i, value in enumerate(values)):
        raise ValueError(f"{name} must not repeat a value, got {list(values)}")


def _check_algorithm(name: str, value) -> None:
    """Raise a ``ValueError`` naming ``name`` unless ``value`` is one of
    ``ALGORITHMS``."""
    if value not in ALGORITHMS:
        raise ValueError(f"{name} must be one of {ALGORITHMS}, got algorithm "
                         f"{value!r}")


def _check_snr(name: str, value) -> None:
    """Raise a ``ValueError`` naming ``name`` unless the noise factor
    ``10^(-value/10)`` is a finite double: NaN, -inf and an SNR below about
    -3082.5 dB fail; +inf is a noiseless run."""
    try:
        finite = math.isfinite(noise_variance_for_snr(1.0, value))
    except OverflowError:
        finite = False
    if not finite:
        raise ValueError(f"{name} must be a number or +inf whose noise factor "
                         f"10^(-snr/10) is finite, got {value}")


@dataclass(frozen=True)
class ChannelSpec:
    """Channel family for identification runs.

    ``kernel=None`` describes the random family: each trial draws unit
    Gaussian coefficients and normalizes them to unit norm. A concrete
    kernel pins the same channel for every trial. Noise power is derived
    per channel as ``(h . R h) * 10^(-snr/10)`` with R the closed-form
    autocorrelation of the active regressor mode, so the configured SNR
    holds exactly in expectation.
    """

    memory_length: int = 3
    snr_db: float = 20.0
    regressor_mode: RegressorMode = RegressorMode.RAW
    kernel: VolterraKernel | None = None

    def __post_init__(self):
        if self.kernel is not None and self.kernel.memory_length != self.memory_length:
            raise ValueError(
                f"kernel memory {self.kernel.memory_length} != configured "
                f"memory {self.memory_length}"
            )
        _check_count("memory_length", self.memory_length)
        self._check_noise("snr_db", self.snr_db)

    def _check_noise(self, name: str, value) -> None:
        """Raise a ``ValueError`` naming ``name`` unless the SNR ``value``
        passes ``_check_snr`` and every channel of the family has a finite
        noise power at it. A pinned kernel has its own ``h . R h``; a
        unit-norm random channel has ``h . R h <= lambda_max``."""
        _check_snr(name, value)
        if self.kernel is not None:
            power = self.signal_power(self.kernel.flat())
        else:
            power = self.eigenvalues()[-1]
        if not math.isfinite(noise_variance_for_snr(1.0, value) * float(power)):
            raise ValueError(f"{name} must give a finite noise power "
                             f"(h . R h) 10^(-snr/10), got {value}")

    @property
    def num_coefficients(self) -> int:
        return num_coefficients(self.memory_length)

    def autocorrelation(self) -> np.ndarray:
        return gaussian_autocorrelation(self.memory_length, self.regressor_mode)

    def eigenvalues(self) -> np.ndarray:
        """Ascending eigenvalues of ``autocorrelation()`` (cached, read-only)."""
        return gaussian_eigenvalues(self.memory_length, self.regressor_mode)

    def signal_power(self, h):
        """``h . R h`` for each channel vector along the last axis of ``h``.

        Elementwise products and last-axis sums only, so one channel gives
        the same bits alone as inside a stack of channels.
        """
        h = np.asarray(h, dtype=np.float64)
        r = self.autocorrelation()
        if h.ndim == 1:
            # one channel: R h from one (K, K) product, each row summed
            # as the row loop below sums it
            return ((h * r).sum(axis=-1) * h).sum(axis=-1)
        # R h one row of R at a time: no (..., K, K) temporary
        rh = np.empty_like(h)
        for i, row in enumerate(r):
            rh[..., i] = (h * row).sum(axis=-1)
        return (rh * h).sum(axis=-1)

    def noise_variance(self, h):
        """Noise power per channel vector at the configured SNR."""
        return self.signal_power(h) * noise_variance_for_snr(1.0, self.snr_db)


@dataclass(frozen=True)
class ExperimentConfig:
    """Monte-Carlo run description.

    Exactly one of ``step_size`` (absolute) and ``step_size_fraction``
    (fraction of the stability bound ``1 / max_i((q_i+1) lambda_i)``) must
    be set. Per-trial seeds are spawned deterministically from the master
    seed, and the same per-trial streams are reused for every algorithm,
    q and SNR cell, so comparisons are paired. No algorithm, q or SNR may
    be given twice.
    """

    iterations: int = 5000
    trials: int = 1000
    master_seed: int = 0
    step_size: float | None = None
    step_size_fraction: float | None = None
    q_values: tuple[float, ...] = (1.0, 5.0, 10.0)
    snr_db_values: tuple[float, ...] = (20.0,)
    algorithms: tuple[str, ...] = ("qvlms",)
    random_init: bool = True

    def __post_init__(self):
        _check_size("trials", self.trials)
        _check_size("iterations", self.iterations)
        _check_count("master_seed", self.master_seed, low=0)
        if (self.step_size is None) == (self.step_size_fraction is None):
            raise ValueError(
                "exactly one of step_size and step_size_fraction must be set"
            )
        for name in ("step_size", "step_size_fraction"):
            if getattr(self, name) is not None:
                _check_positive(name, getattr(self, name))
        for name in ("algorithms", "q_values", "snr_db_values"):
            if not getattr(self, name):
                raise ValueError(f"{name} must not be empty")
            _check_distinct(name, getattr(self, name))
        for alg in self.algorithms:
            _check_algorithm("algorithms", alg)
        for q in self.q_values:
            _check_positive("q_values", q)
        for snr in self.snr_db_values:
            _check_snr("snr_db_values", snr)


def _run_setup(memory_length: int, regressor_mode: RegressorMode,
               **config) -> tuple[ExperimentConfig, ChannelSpec]:
    """A run's ``ExperimentConfig`` of the fields ``config``, built first,
    and its channel, the random family of ``memory_length`` in
    ``regressor_mode``. Each cell takes its SNR from the config; the
    channel is at the run's SNR when it has one, as a report shows it and
    as ``run_trial`` of the channel replays a trial, else at the default
    20 dB. ``protocol1``, ``protocol2`` and the CLI's ``RunSpec`` build
    every run here."""
    config = ExperimentConfig(**config)
    snrs = config.snr_db_values
    channel = ChannelSpec(memory_length=memory_length,
                          regressor_mode=regressor_mode,
                          snr_db=snrs[0] if len(snrs) == 1 else ChannelSpec.snr_db)
    return config, channel


def trial_seeds(master_seed: int, trials: int) -> list[np.random.SeedSequence]:
    """Independent per-trial seed sequences derived from the master seed.

    Seed ``i`` is ``SeedSequence(master_seed, spawn_key=(i,))``, so the
    Monte-Carlo runs take each chunk's seeds as they reach it
    (``seeding.SpawnedSeeds``). A trial draws its channel, initial weights
    and input from ``default_rng`` of its seed, and its noise from
    ``default_rng`` of the seed's first child,
    ``spawn_key=(i, 0)`` (``_draw_chunk``).
    """
    return list(SpawnedSeeds(master_seed, 0, trials))


def whitened_gain(channel: ChannelSpec) -> np.ndarray:
    """Fixed gain matrix ``S R^-1 S`` for the whitened comparison variant.

    Built once per (memory length, regressor mode); the same read-only
    array is returned to every caller.
    """
    return _whitened_gain(channel.memory_length, channel.regressor_mode)


@lru_cache(maxsize=None)
def _whitened_gain(memory_length: int, mode: RegressorMode) -> np.ndarray:
    s = scaling_diag(memory_length)
    r = gaussian_autocorrelation(memory_length, mode)
    gain = s[:, None] * np.linalg.inv(r) * s[None, :]
    gain.setflags(write=False)
    return gain


@dataclass(frozen=True)
class _Cell:
    """One (algorithm, q, SNR) cell at its resolved step size, with its
    mean stability bound ``1 / ((q+1) lambda_max)``: at q-VLMS's own q, at
    q = 1 for the other algorithms, which have no q. A run's cells are a
    list in any order; each result comes back at its cell's place in it."""

    algorithm: str
    q_value: float | None
    snr_db: float
    step_size: float
    bound: float

    @property
    def gain(self) -> float:
        """The cell's diagonal gain, uniform over the coefficients: ``(q+1)/2``
        for q-VLMS, 1 for the other algorithms (a whitened cell steps along
        ``S R^-1 S u`` instead of u)."""
        if self.algorithm != "qvlms":
            return 1.0
        return (self.q_value + 1.0) / 2.0


def _config_cell(config: ExperimentConfig, channel: ChannelSpec, algorithm: str,
                 q_value: float, snr_db: float) -> _Cell:
    """A cell of ``config``: q applies to q-VLMS only, and the bound comes
    from the closed-form input autocorrelation of the regressor mode, a
    ``ValueError`` where ``(q+1) lambda_max`` overflows, at either step
    rule. A fraction rule takes its fraction of the bound, a ``ValueError``
    unless the step is positive and finite."""
    channel._check_noise("snr_db_values", snr_db)
    q = float(q_value) if algorithm == "qvlms" else None
    # step_size_bound of the uniform q, its bits and its overflow error,
    # without a QParams: rounding is monotone, so the largest product is
    # (q+1) lambda_max
    q_bound = 1.0 if q is None else q
    _check_positive("q_value", q_bound)
    lam = float(channel.eigenvalues()[-1])
    scaled = (q_bound + 1.0) * lam
    if not math.isfinite(scaled):
        raise ValueError(f"(q + 1) * lambda overflows for q up to {q_bound:g} "
                         f"and lambda up to {lam:g}")
    bound = 1.0 / scaled
    step = config.step_size
    if step is None:
        step = float(config.step_size_fraction) * bound
        _check_positive(f"the step {config.step_size_fraction} x the bound "
                        f"{bound:.6g}", step)
    return _Cell(algorithm, q, float(snr_db), float(step), bound)


def _config_cells(config: ExperimentConfig, channel: ChannelSpec) -> list[_Cell]:
    """Every (algorithm, q, SNR) cell of ``config``, by SNR, then by
    algorithm, then by q."""
    return [_config_cell(config, channel, algorithm, q, snr)
            for snr in config.snr_db_values for algorithm in config.algorithms
            for q in (config.q_values if algorithm == "qvlms" else (None,))]


# ---------------------------------------------------------------------------
# the streaming kernel
# ---------------------------------------------------------------------------

def _draw_chunk(seeds, channel: ChannelSpec, random_init: bool,
                noise: bool = True):
    """Draws of a chunk of trials: ``h, w0 (T, K)`` stacked, and two
    generators per trial, standing at the start of its input stream x
    (N+M-1 values) and of its unit noise stream z (N values). Without
    ``noise`` no noise generator is built, and the last item is ``None``:
    ``h, w0`` come from the input's generator.

    Trial ``i`` draws h, w0 and x, in this order, from ``default_rng`` of
    ``seeds[i]``, and z from ``default_rng`` of that seed's first child,
    the generators of ``seeding.generators``, which only reads the seeds:
    a replay draws the same streams. The streams are not held: the kernel
    draws them a segment at a time, and a generator gives the same values
    whether a stream is drawn at once or in pieces, or into a tile of a
    few trials that the kernel then writes across its time-major buffers.
    A trial's h and w0 are one call's draws, normalized and scaled over the
    chunk with the bits of ``v / np.linalg.norm(v)`` and ``/ np.sqrt(K)``.
    """
    t, k = len(seeds), channel.num_coefficients
    x_rngs, z_rngs = generators(seeds, noise)
    head = np.empty((t, k * ((channel.kernel is None) + random_init)))
    for row, rng in zip(head, x_rngs):
        rng.standard_normal(out=row)
    if channel.kernel is None:
        v = head[:, :k]
        # norm's sum of squares is BLAS's dot, as each 1 x 1 product is
        h = v / np.sqrt(np.matmul(v[:, None], v[:, :, None]))[:, 0]
    else:
        h = np.tile(channel.kernel.flat(), (t, 1))
    # math.sqrt(k) is np.sqrt(k), correctly rounded
    w0 = head[:, -k:] / math.sqrt(k) if random_init else np.zeros((t, k))
    return h, w0, x_rngs, z_rngs


def _block_steps(k: int, c: int, t: int) -> int:
    """Steps per block for K coefficients, C cells and T trials: at most
    ``_BLOCK``, and as many as keep the weight history (B, K, C, T) within
    ``_BLOCK_BYTES``, but at least one."""
    return max(1, min(_BLOCK, _BLOCK_BYTES // (8 * k * c * t)))


def _page_aligned(shape, dtype=np.float64) -> np.ndarray:
    """An empty array of ``shape`` whose data starts on an ``_ALIGN``-byte
    boundary: a view into a ``uint8`` block ``_ALIGN`` bytes longer."""
    dtype = np.dtype(dtype)
    nbytes = math.prod(shape) * dtype.itemsize
    raw = np.empty(nbytes + _ALIGN, dtype=np.uint8)
    start = -raw.ctypes.data % _ALIGN
    return raw[start:start + nbytes].view(dtype).reshape(shape)


def _page_aligned_views(*shapes) -> list[np.ndarray]:
    """Empty float64 arrays of ``shapes``, each starting on an ``_ALIGN``-byte
    boundary: views into one ``_page_aligned`` block in which each array
    takes whole pages, so that they cost one allocation."""
    page = _ALIGN // 8
    sizes = [math.prod(shape) for shape in shapes]
    spans = [-(-size // page) * page for size in sizes]
    block = _page_aligned((sum(spans),))
    starts = itertools.accumulate(spans, initial=0)
    return [block[a:a + n].reshape(shape)
            for a, n, shape in zip(starts, sizes, shapes)]


#: Most products one line of ``_trial_steps``'s sum adds: the compiler
#: recurses once per term, and a sum of a few thousand exceeds its limit.
_LINE_TERMS = 64


@lru_cache(maxsize=64)
def _trial_steps(m: int, mode: RegressorMode, whitened: bool):
    """One trial's steps over a segment, on Python floats, written out for
    memory length ``m`` and the regressor ``mode`` and compiled once per
    (M, mode, whitened), as ``dataclasses`` compiles an ``__init__``.

    ``steps(xs, noise, delta, mu, g)`` takes the segment's inputs ``xs``,
    the M-1 inputs before its first step and then one a step, its noise
    ``sigma z`` (one a step) and the weight error ``delta`` (K) before it,
    and returns the weight error after its last step (a list of K) and the
    a priori errors; it records no row, which ``_trial_lockstep`` rebuilds
    from the errors. A ``whitened`` cell's steps also take each step's
    direction ``S R^-1 S u`` (a list of K per step).

    Each step forms its regressor itself: the linear taps ``a0 .. aM-1``
    are the last M inputs, newest first, and the quadratic term of the lag
    pair (i, i+d) is ``p{i}_{d}``, the product ``x(s) x(s-d)`` formed i
    steps earlier (the square ``(x*x - 1.0)/SQRT2`` in the orthonormalized
    mode), carried in locals from step to step. The products of the M-1
    steps before the segment are formed again from its first M-1 inputs.
    Then ``e = u_0 delta_0 + ... + u_K-1 delta_K-1 + sigma z``, added left
    to right, ``s = e mu g`` and ``delta_k <- delta_k - s v_k``, v = u
    unless whitened: the IEEE operations of the regressor expansion and of
    the scalar weight-error recursion, in its order, so every bit is their
    own. No ``sum`` or ``math.fsum``, which compensate.
    """
    k = num_coefficients(m)
    lin = [f"a{j}" for j in range(m)]
    products = [[f"p{i}_{d}" for d in range(m - i)] for i in range(m)]
    us = lin + [name for row in products for name in row]
    ds = [f"d{i}" for i in range(k)]
    vs = [f"v{i}" for i in range(k)] if whitened else us

    def product(i, d):
        """The product ``x(s) x(s-d)`` of the step whose newest input is
        ``a{i}``."""
        if d == 0 and mode is RegressorMode.ORTHONORMALIZED:
            return f"(a{i}*a{i} - 1.0)/{SQRT2!r}"
        return f"a{i}*a{i + d}"

    def assign(targets, values):
        """One simultaneous assignment, none for no targets."""
        if not targets:
            return []
        return [f"{', '.join(targets)}, = {', '.join(values)},"]

    older = lin[:m - 1][::-1]  # a{M-2} .. a0
    ring = [(f"p{i}_{d}", f"p{i - 1}_{d}") for i in range(m - 1, 0, -1)
            for d in range(m - i)]
    terms = [f"{u}*{d}" for u, d in zip(us, ds)] + ["z"]
    sums = [" + ".join(terms[i:i + _LINE_TERMS])
            for i in range(0, len(terms), _LINE_TERMS)]
    if whitened:
        loop = (f"    for x, z, ({', '.join(vs)},) in zip(xs[{m - 1}:], noise, "
                "directions):")
    else:
        loop = f"    for x, z in zip(xs[{m - 1}:], noise):"
    source = "\n".join([
        f"def steps(xs, noise, delta, mu, g{', directions' if whitened else ''}):",
        *("    " + line
          for line in assign(older, [f"xs[{j}]" for j in range(m - 1)])),
        *(f"    p{i}_{d} = {product(i, d)}"
          for i in range(m - 1) for d in range(m - 1 - i)),
        f"    {', '.join(ds)}, = delta",
        "    errors = []",
        "    error = errors.append",
        loop,
        *("        " + line for line in assign(lin[::-1], older + ["x"])),
        *("        " + line for line in assign([t for t, _ in ring],
                                               [v for _, v in ring])),
        *(f"        p0_{d} = {product(0, d)}" for d in range(m)),
        f"        e = {sums[0]}",
        *(f"        e = e + {part}" for part in sums[1:]),
        "        s = e*mu*g",
        *(f"        {d} = {d} - s*{v}" for d, v in zip(ds, vs)),
        "        error(e)",
        f"    return [{', '.join(ds)}], errors",
    ])
    namespace = {}
    exec(source, namespace)
    return namespace["steps"]


def _trial_lockstep(h, w0, x_rng, z_rng, iterations: int, cell: _Cell,
                    channel: ChannelSpec):
    """``_lockstep`` of a slab of one value, one cell and one trial, with
    its yields: a block is a whole segment, ``min(_SEGMENT, N)`` steps, and
    makes no numpy call a step.

    Each segment's inputs x (with the M-1 before it) and noise ``sigma z``
    go to ``_trial_steps`` as lists of Python floats, with the weight error
    before it; it returns the weight error after it and the a priori
    errors, which are packed into ``sq_buf`` in one call. numpy then
    rebuilds the segment's rows of weight error in ``w_hist`` with the same
    IEEE operations in the same order: the steps ``s = (e mu) g``, the
    regressors ``u (S, K)`` (a copy of x per linear tap, one product per
    quadratic column), ``s v`` written into the rows, row 0 replaced by
    ``delta - s_0 v_0``, and ``np.subtract.accumulate`` down the rows, the
    left fold ``delta <- delta - s v``. A ``whitened`` cell's directions v
    are one matrix product a segment over the regressors, as a block's are
    for larger slabs, and go to the steps as lists too. The guard takes the
    segment's NWD from ``kmajor (K, S)``, the weight error copied K-major,
    so that einsum adds its K squares one after another as it does for
    larger slabs; over one contiguous row it adds them in its own unrolled
    order. Python's cost grows with K: on one 2-CPU Xeon a step, draws,
    guard and yields included, took about 0.76 us at K = 9, 1.4 us at
    K = 20 and 2.7 us at K = 44, against 1.0, 2.0 and 4.4 us when the
    steps also recorded each row. The float buffers are views of one
    block (``_page_aligned_views``): one allocation instead of eight.
    """
    k, m, n = h.shape[1], channel.memory_length, int(iterations)
    mode = channel.regressor_mode
    whitening = whitened_gain(channel) if cell.algorithm == "whitened" else None
    steps = _trial_steps(m, mode, whitening is not None)
    sigma = math.sqrt(noise_variance_for_snr(1.0, cell.snr_db)
                      * float(channel.signal_power(h[0])))
    mu, g = cell.step_size, cell.gain
    # the regressor's quadratic columns, lag pairs (i, j) in flattened order
    pairs = [(i, j) for i in range(m) for j in range(i, m)]

    seg = min(_SEGMENT, n)
    hh = (h * h).sum(axis=1)
    w_hist, sq_buf, nwd_buf, kmajor, x, z, u, step = _page_aligned_views(
        (seg, k, 1, 1), (seg, 1, 1), (seg, 1, 1),
        # at least two columns: one column wide, delta is a row again
        (k, max(seg, 2)),
        # a segment's inputs, after the M-1 before it, and its unit noise
        (seg + m - 1,), (seg,),
        # a segment's regressors, one row a step, and its steps (e mu) g
        (seg, k), (seg,))
    ok_buf = _page_aligned((seg, 1, 1), dtype=bool)

    def guarded(row, b):
        """The yield of a segment whose ``b`` rows of weight error are in
        ``w_hist`` and squared errors in ``sq_buf``; row 0, the initial
        state, never diverges."""
        delta, sq, cur, ok = w_hist[:b], sq_buf[:b], nwd_buf[:b], ok_buf[:b]
        col = kmajor[:, :b]
        np.copyto(col, delta[:, :, 0, 0].T)
        np.einsum("kb,kb->b", col, col, out=cur[:, 0, 0])
        np.divide(cur, hh, out=cur)
        np.less_equal(cur, DIVERGENCE_THRESHOLD, out=ok)
        if not row:
            ok[...] = True
        return row, sq, cur, delta, ok

    def regressors(s):
        """The regressors of a segment of ``s`` steps whose inputs are in
        ``x``: step r's tap i is x(r-i), its pair (i, j) x(r-i) x(r-j)."""
        lag = [x[m - 1 - i:s + m - 1 - i] for i in range(m)]
        for i in range(m):
            np.copyto(u[:s, i], lag[i])
        for col, (i, j) in enumerate(pairs, m):
            out = u[:s, col]
            np.multiply(lag[i], lag[j], out=out)
            if i == j and mode is RegressorMode.ORTHONORMALIZED:
                np.subtract(out, 1.0, out=out)
                np.divide(out, SQRT2, out=out)
        return u[:s]

    # the weight error each segment steps from, which no consumer sees
    delta = (h[0] - w0[0]).tolist()
    w_hist[0] = (h - w0).T[:, None]
    sq_buf[0] = np.nan
    yield guarded(0, 1)

    for s0 in range(0, n, seg):
        s = min(seg, n - s0)
        if s0:
            x[:m - 1] = x[seg:]  # only the last segment is short
        x_rng.standard_normal(out=x[(m - 1 if s0 else 0):s + m - 1])
        z_rng.standard_normal(out=z[:s])
        v = regressors(s)
        operands = [x[:s + m - 1].tolist(),
                    np.multiply(z[:s], sigma, out=z[:s]).tolist(),
                    delta, mu, g]
        if whitening is not None:
            v = np.matmul(whitening, v[:, :, None])[:, :, 0]
            operands.append(v.tolist())
        before = delta
        delta, errors = steps(*operands)
        # struct packs Python floats into doubles about 3x faster than
        # numpy converts a list
        e = sq_buf[:s, 0, 0]
        struct.pack_into(f"{s}d", sq_buf, 0, *errors)
        np.multiply(e, mu, out=step[:s])
        np.multiply(step[:s], g, out=step[:s])
        np.multiply(e, e, out=e)
        rows = w_hist[:s, :, 0, 0]
        np.multiply(v, step[:s, None], out=rows)
        np.subtract(before, rows[0], out=rows[0])
        np.subtract.accumulate(rows, axis=0, out=rows)
        yield guarded(s0 + 1, s)


def _lockstep(h, w0, x_rngs, z_rngs, iterations: int, cells,
              channel: ChannelSpec):
    """Advance a chunk of trials through ``iterations`` steps of every cell
    in lockstep, with the divergence guard applied.

    Each pair's weight error ``delta = h - w`` is stepped, not its weights
    (the module's first invariant): ``e = sigma z + u . delta``, then
    ``delta <- delta - g (mu e) v``.

    ``h, w0 (T, K)`` and each trial's generators of its input and unit
    noise streams (``_draw_chunk``) are shared by all cells, and are used
    up. The cells may come in any order: axis C of every yield follows
    ``cells``. A slab of one value (one cell, one trial) is stepped by
    ``_trial_lockstep``, whose blocks are whole segments. Yields
    ``(row, e2, nwd, delta, ok)`` per block of steps of B rows, the curve
    rows ``row .. row+B-1``:

    * ``e2 (B, C, T)``: the squared a priori errors of the steps that
      produced the block's rows;
    * ``nwd (B, C, T)``: their normalized weight deviation;
    * ``delta (B, K, C, T)``: their signed weight error ``h - w``, so the
      weights at row ``row + j`` are ``h - delta[j]``;
    * ``ok (B, C, T)``: the guard, ``nwd <= DIVERGENCE_THRESHOLD``. NaN
      fails it, so a pair whose weights overflowed has diverged.

    The first yield is row 0, the initial error ``h - w0``, with NaN
    squared errors and a guard that passes every pair. Yielded arrays are
    the kernel's buffers: the next block overwrites them, and a consumer
    may overwrite any of them too, since the next block steps from a copy
    of the last row's weight error. A diverged pair keeps adapting and may
    overflow, so callers run under ``np.errstate`` and mask it.

    Every buffer is allocated once per call and comes from
    ``_page_aligned``: a per-step output that starts a few bytes past one
    of its inputs modulo 4 KiB makes the core's loads wait on its stores
    (4K aliasing), while page-aligned buffers of one shape share their
    offset. The layout:

    * ``x (S+M-1, T)`` and ``z (S, T)``: a segment's input and unit noise,
      time-major, so that a step's values for every trial are one
      contiguous row. S is the whole number of blocks nearest
      ``_SEGMENT`` from below, at least one; x carries a segment's last
      M-1 inputs into the next. A generator fills contiguous values only,
      so ``_TILE`` trials at a time draw into the trial-major ``tile``,
      which is then written across x or z.
    * Per block of B = ``_block_steps(K, C, T)`` steps: the regressors
      ``ut (B, K, 1, T)``, coefficient-major. The linear taps are copied
      from lagged rows of x, the quadratic terms from the ring
      ``g0 (B+M-1, M, T)`` of the products ``x(s) x(s-d)``, d = 0 .. M-1,
      in which row M-1+j holds step j and the rows before it the M-1 steps
      before the block: a step's terms ``u_i u_i .. u_i u_M-1`` are the
      first M-i products of the step i earlier. ``ugt`` holds the whitened
      direction ``S R^-1 S u`` (one matrix product a block), ``d (B, C, T)``
      the noise ``sigma z``, and ``w_hist (B, K, C, T)`` and
      ``e_hist (B, C, T)`` the weight errors and the a priori errors of
      the block's steps, and ``w_last (K, C, T)`` the last row's weight
      error, from which the next block steps.
    * Per step, on contiguous (C, T) slabs: ``work`` holds the products
      ``u_k delta_k`` and, in its last slab, their sum ``u . delta``: one
      reduce from -0.0 adds them left to right. The noise is added to it,
      and ``scaled`` holds ``mu e`` and the step ``g (mu e)``. With more
      than one cell, ``spread (K, C, T)`` holds the step's regressors
      copied to every cell, and, once ``u . delta`` has read them, every
      cell's update direction: ``ugt[j]`` copied into the column of each
      ``whitened`` cell. The
      step ``g (mu e)`` is copied over the products and the directions are
      multiplied into it in place. No per-step call broadcasts an operand
      over slabs: numpy passes operands that do not form one contiguous
      run through its ufunc buffer, at about twice the cost, and
      ``np.copyto`` is not buffered.
    """
    t, k = h.shape
    n, m, c = int(iterations), channel.memory_length, len(cells)
    if c * t == 1:
        yield from _trial_lockstep(h, w0, x_rngs[0], z_rngs[0], n, cells[0],
                                   channel)
        return
    whitened = [i for i, cell in enumerate(cells) if cell.algorithm == "whitened"]
    # every diagonal gain is uniform over the coefficients (one q per cell);
    # whitened cells take g = 1, which leaves mu * e unchanged, and step
    # along S R^-1 S u instead of u; both are spread to (C, T), so that no
    # call broadcasts them
    mu, gain = _page_aligned((c, t)), _page_aligned((c, t))
    mu[...] = np.array([cell.step_size for cell in cells])[:, None]
    gain[...] = np.array([cell.gain for cell in cells])[:, None]
    whitening = whitened_gain(channel) if whitened else None
    factor = np.array([noise_variance_for_snr(1.0, cell.snr_db) for cell in cells])
    sigma = np.sqrt(factor[:, None] * channel.signal_power(h))

    blk = min(_block_steps(k, c, t), n)
    hh = (h * h).sum(axis=1)
    sq_buf = _page_aligned((blk, c, t))
    nwd_buf = _page_aligned((blk, c, t))
    ok_buf = _page_aligned((blk, c, t), dtype=bool)
    seg = max(blk, _SEGMENT // blk * blk)
    # the streams of a segment, time-major: row j of x is every trial's
    # input at step j-M+1 of the segment, row j of z its unit noise at step j
    x = _page_aligned((seg + m - 1, t))
    z = _page_aligned((seg, t))
    tile = _page_aligned((min(_TILE, t), seg + m - 1))
    # the newest-first input window of every step of a segment, (S, M, T)
    windows = sliding_window_view(x, m, axis=0)[..., ::-1].transpose(0, 2, 1)
    w_hist = _page_aligned((blk, k, c, t))
    # before the regressors: allocated after w_last, these two made
    # perfbench's p2_paper 2% slower and its peak RSS 0.1 MB higher
    e_hist, d = _page_aligned((blk, c, t)), _page_aligned((blk, c, t))
    ut = _page_aligned((blk, k, 1, t))
    ugt = _page_aligned((blk, k, 1, t)) if whitening is not None else None
    g0 = _page_aligned((blk + m - 1, m, t))
    spread = _page_aligned((k, c, t)) if c > 1 else None
    w_last = _page_aligned((k, c, t))
    # the products, then their sum u . delta; the update step overwrites
    # the products
    work = _page_aligned((k + 1, c, t))
    # mu e, then the step g (mu e)
    scaled = _page_aligned((2, c, t))

    def guarded(row, b):
        """The yield of a block whose ``b`` rows of weight error are in
        ``w_hist``: the error of its last row is kept in ``w_last``, then
        the curves and the guard are taken from the history; row 0, the
        initial state, never diverges."""
        delta = w_hist[:b]
        np.copyto(w_last, delta[b - 1])
        sq, cur, ok = sq_buf[:b], nwd_buf[:b], ok_buf[:b]
        np.multiply(e_hist[:b], e_hist[:b], out=sq)
        np.einsum("bkct,bkct->bct", delta, delta, out=cur)
        np.divide(cur, hh, out=cur)
        np.less_equal(cur, DIVERGENCE_THRESHOLD, out=ok)
        if not row:
            ok[...] = True
        return row, sq, cur, delta, ok

    w_hist[0] = (h - w0).T[:, None]
    e_hist[0] = np.nan
    yield guarded(0, 1)

    # the ufunc calls of each step of a block: u . delta, error, update
    steps = []
    prod, pred = work[:k], work[k]
    mu_e, step = scaled
    w_prev = w_last
    for j in range(blk):
        w, e = w_hist[j], e_hist[j]
        # the regressors u, and every cell's direction v: u, or S R^-1 S u
        # for the whitened cells, copied over u once u . delta has read it
        if spread is None:
            u = ut[j]
            v = ugt[j] if whitened else u
            calls = [(np.multiply, (u, w_prev, prod))]
        else:
            u = v = spread
            calls = [(np.copyto, (spread, ut[j])),
                     (np.multiply, (u, w_prev, prod))]
            calls += [(np.copyto, (spread[:, i:i + 1], ugt[j]))
                      for i in whitened]
        calls += [
            # from -0.0, which leaves the first product as it is
            (np.add.reduce, (prod, 0, None, pred, False, -0.0)),
            (np.add, (d[j], pred, e)),
            (np.multiply, (mu, e, mu_e)),
            (np.multiply, (gain, mu_e, step)),
            # do not shrink numpy's ufunc buffer (np.setbufsize) instead of
            # the copy: the setting would hold for any numpy call on this
            # thread, such as perfbench's speed probe, which runs in a
            # signal handler
            (np.copyto, (prod, step)),
            (np.multiply, (prod, v, prod)),
            (np.subtract, (w_prev, prod, w)),
        ]
        steps.append(calls)
        w_prev = w

    def squares(col):
        """The calls that turn the squares ``col`` into ``(x*x - 1)/sqrt(2)``
        in the orthonormalized mode: none in the raw one."""
        if channel.regressor_mode is RegressorMode.RAW:
            return []
        return [(np.subtract, (col, 1.0, col)), (np.divide, (col, SQRT2, col))]

    def expansion(b):
        """The ufunc calls that complete a block of ``b`` steps once its
        linear taps and its noise ``z sigma`` are in place: the quadratic
        terms and the whitened direction."""
        u = ut[:b, :, 0]
        lin = u[:, :m]
        # the block's products x(s) x(s-d), and the squares' ortho form
        calls = [(np.multiply, (lin[:, :1], lin, g0[m - 1:m - 1 + b])),
                 *squares(g0[m - 1:m - 1 + b, 0])]
        for i in range(m):
            # the terms u_i u_i .. u_i u_M-1 of step r are those of step r-i
            at = flatten_index(i, i, m)
            calls.append((np.copyto, (u[:, at:at + m - i],
                                      g0[m - 1 - i:m - 1 - i + b, :m - i])))
        # the block's last M-1 steps precede the next block
        calls.append((np.copyto, (g0[:m - 1], g0[b:b + m - 1])))
        if whitening is not None:
            calls.append((np.matmul, (whitening, u, ugt[:b, :, 0])))
        return calls

    expand = expansion(blk)

    def draw(rngs, rows):
        """Each trial's next ``len(rows)`` values into its column of the
        time-major ``rows``, one tile of trials at a time."""
        for i0 in range(0, t, len(tile)):
            part = tile[:min(len(tile), t - i0), :len(rows)]
            for i, row in enumerate(part, i0):
                rngs[i].standard_normal(out=row)
            rows[:, i0:i0 + len(part)] = part.T

    for s0 in range(0, n, seg):
        s = min(seg, n - s0)
        if s0:
            x[:m - 1] = x[seg:]  # only the last segment is short
        draw(x_rngs, x[(m - 1 if s0 else 0):s + m - 1])
        draw(z_rngs, z[:s])
        if not s0:
            # the products of the M-1 steps before the first: pre-samples
            for i in range(1, m):
                np.multiply(x[m - 1 - i], x[m - 1 - i::-1], out=g0[m - 1 - i, :m - i])
            for ufunc, operands in squares(g0[:m - 1, 0]):
                ufunc(*operands)
        for r0 in range(0, s, blk):
            b = min(blk, s - r0)
            np.copyto(ut[:b, :m, 0], windows[r0:r0 + b])
            np.multiply(z[r0:r0 + b, None], sigma, out=d[:b])
            for ufunc, operands in expand if b == blk else expansion(b):
                ufunc(*operands)
            for calls in steps[:b]:
                for ufunc, operands in calls:
                    ufunc(*operands)
            yield guarded(s0 + r0 + 1, b)


@dataclass(frozen=True)
class TrialCurves:
    """Per-iteration observables of one trial; row 0 is the initial state."""

    nwd: np.ndarray
    abs_weight_error: np.ndarray
    squared_error: np.ndarray
    final_weights: np.ndarray
    channel: np.ndarray
    initial_weights: np.ndarray
    diverged: bool
    divergence_iteration: int | None

    @property
    def nwd_db(self) -> np.ndarray:
        return nwd_db(self.nwd)

    @property
    def mae(self) -> np.ndarray:
        """Per-iteration mean over coefficients of the absolute weight error."""
        return self.abs_weight_error.mean(axis=1)


def run_trial(config: ExperimentConfig, channel: ChannelSpec, seed,
              algorithm: str = "qvlms", q_value: float | None = None) -> TrialCurves:
    """Run a single adaptation trial.

    The trial's channel, initial weights, input and noise streams are all
    drawn from ``seed``; the same seed always reproduces the identical
    ``TrialCurves``, bit for bit. A diverged trial stops adapting at the
    triggering iteration and its curves are NaN past it.
    """
    _check_algorithm("algorithm", algorithm)
    cell = _config_cell(config, channel, algorithm,
                        config.q_values[0] if q_value is None else q_value,
                        channel.snr_db)
    n = config.iterations
    draw = _draw_chunk([seed], channel, config.random_init)
    h, w0 = draw[0][0], draw[1][0]
    nwd_curve = np.full(n + 1, np.nan)
    abs_err = np.full((n + 1, h.size), np.nan)
    sq_err = np.full(n + 1, np.nan)
    div_iter = None
    with np.errstate(over="ignore", invalid="ignore"):
        for row, e2, cur, delta, ok in _lockstep(*draw, n, (cell,), channel):
            bad = np.flatnonzero(~ok[:, 0, 0])
            stop = int(bad[0]) + 1 if bad.size else len(ok)
            rows = slice(row, row + stop)
            nwd_curve[rows] = cur[:stop, 0, 0]
            np.abs(delta[:stop, :, 0, 0], out=abs_err[rows])
            sq_err[rows] = e2[:stop, 0, 0]
            if bad.size:
                div_iter = row + stop - 1
                break
    # the last row read: the divergence, or the run's last row
    w_final = h - delta[stop - 1, :, 0, 0]
    return TrialCurves(
        nwd=nwd_curve,
        abs_weight_error=abs_err,
        squared_error=sq_err,
        final_weights=w_final,
        channel=h,
        initial_weights=w0,
        diverged=div_iter is not None,
        divergence_iteration=div_iter,
    )


# ---------------------------------------------------------------------------
# Monte-Carlo averaging
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AveragedCurves:
    """Trial-averaged curves for one (algorithm, q, SNR) cell.

    Averages run over the non-diverged trials only; the diverged count is
    reported alongside. Row 0 of each curve is the initial state.
    """

    algorithm: str
    q_value: float | None
    snr_db: float
    step_size: float
    nwd: np.ndarray
    mae: np.ndarray
    mse: np.ndarray
    trials: int
    diverged: int
    diverged_mask: np.ndarray = field(repr=False, default=None)

    @property
    def nwd_db(self) -> np.ndarray:
        return nwd_db(self.nwd)

    def steady_state_nwd_db(self, fraction: float = 0.1) -> float:
        return float(nwd_db(steady_state_level(self.nwd, fraction)))


def _zero_sums(iterations: int, cells: int) -> np.ndarray:
    """Curve sums of ``cells`` cells, all zero, as one (N+1, C, 3) array:
    per row and cell, the absolute weight error summed over the
    coefficients, then the NWD, then the squared error.

    The zeros are written here rather than left to the allocator, as
    ``np.zeros`` does: a fresh page that is read before it is written
    faults twice.
    """
    return np.full((int(iterations) + 1, cells, 3), 0.0)


def _chunk_sums(draw, iterations: int, cells, channel: ChannelSpec, sums,
                keep=None):
    """Write each cell's curve sums over one chunk's trials into its column
    of ``sums`` (``_zero_sums``: column ``i`` is cell ``i``, squared error
    NaN at row 0), and return the chunk's (C, T) mask of diverged (cell,
    trial) pairs.

    Each block is reduced over the trials in the kernel's buffers straight
    into its rows of ``sums``. ``keep (C, T)`` leaves pairs out of the
    sums; without it, a cell with a diverged pair writes sums that hold
    it, and the caller replays that cell with the pair left out. Once every
    cell has a diverged pair the blocks are no longer reduced, and the run
    stops early once every pair has diverged: the rows not reached are
    left as they were.
    """
    n, c = int(iterations), len(cells)
    diverged = np.zeros((c, len(draw[0])), dtype=bool)
    drop = None if keep is None else ~keep
    replayed = False  # every cell will be replayed
    with np.errstate(over="ignore", invalid="ignore"):
        for row, sq, cur, delta, ok in _lockstep(*draw, n, cells, channel):
            if not ok.all():
                diverged |= ~ok.all(axis=0)
                if diverged.all():
                    break
                replayed = drop is None and diverged.any(axis=1).all()
            if replayed:
                continue
            if drop is not None:
                for part in (cur, delta, sq):
                    np.copyto(part, 0.0, where=drop)
            rows = sums[row:row + len(ok)]
            # |delta| in place, then over the trials and over K: one
            # trial's sums have the bits of TrialCurves.mae
            err = np.abs(delta, out=delta)
            np.einsum("bkct->bck", err).sum(axis=-1, out=rows[..., 0])
            cur.sum(axis=-1, out=rows[..., 1])
            sq.sum(axis=-1, out=rows[..., 2])
    return diverged


def _chunks(config: ExperimentConfig):
    """``(seeds, rows)`` for each chunk of ``config``'s trials, in order:
    the chunk's ``SpawnedSeeds`` and its slice of the trials. Trial ``i``
    is drawn from ``trial_seeds(config.master_seed, config.trials)[i]``,
    whose seeds are built a chunk at a time."""
    trials = int(config.trials)
    for start in range(0, trials, _CHUNK):
        stop = min(start + _CHUNK, trials)
        yield SpawnedSeeds(config.master_seed, start, stop), slice(start, stop)


def monte_carlo(config: ExperimentConfig, channel: ChannelSpec) -> list[AveragedCurves]:
    """Averaged curves for every (algorithm, q, SNR) cell of the config.

    ``channel`` gives the memory length, regressor mode and kernel; its
    ``snr_db`` is never read: each cell's SNR is an entry of
    ``config.snr_db_values`` (``run_trial``, which runs one SNR, does read
    ``channel.snr_db``). All cells share the same
    per-trial draws, so cross-algorithm comparisons are paired, and run in
    ``_config_cells`` order: column ``j`` of every set of sums is cell
    ``j``.

    The trials run a chunk at a time (``_chunks``), and a chunk's draws
    are dropped before the next chunk is drawn. A run allocates two sets
    of curve sums, the totals and one chunk's sums: each chunk's pass
    writes every cell's sums into the chunk's set, which is then added
    into the totals, so a cell's totals hold ``((s0 + s1) + s2) + ...`` in
    chunk order (``0.0 + x == x`` for these non-negative or NaN sums).

    A cell with a diverged pair in a chunk is replayed on that chunk alone,
    drawn again from its seeds, with those pairs left out, into a zeroed
    set of its own that is copied over the cell's column of the chunk's
    sums before they are added. So each cell's totals add, chunk by chunk,
    the sums of its kept trials, bit for bit those of a run of that cell
    alone. Each cell's averages are divided in place, so the returned NWD
    and MSE curves are views of the totals.
    """
    cells = _config_cells(config, channel)
    c, k, n = len(cells), channel.num_coefficients, int(config.iterations)
    trials = int(config.trials)
    totals, sums = _zero_sums(n, c), np.empty((n + 1, c, 3))
    diverged = np.zeros((c, trials), dtype=bool)
    for seeds, rows in _chunks(config):
        draw = _draw_chunk(seeds, channel, config.random_init)
        diverged[:, rows] = _chunk_sums(draw, n, cells, channel, sums)
        del draw
        bad = np.flatnonzero(diverged[:, rows].any(axis=1))
        if bad.size:
            replayed = _zero_sums(n, bad.size)
            _chunk_sums(_draw_chunk(seeds, channel, config.random_init), n,
                        [cells[j] for j in bad], channel, replayed,
                        keep=~diverged[bad, rows])
            sums[:, bad] = replayed
            del replayed
        totals += sums

    curves = []
    for j, cell in enumerate(cells):
        kept = trials - int(diverged[j].sum())
        if kept == 0:
            raise RuntimeError(
                f"all {trials} trials diverged (algorithm={cell.algorithm}, "
                f"q={cell.q_value}, snr={cell.snr_db} dB, mu={cell.step_size:.3e})"
            )
        means = totals[:, j]
        means /= kept
        curves.append(AveragedCurves(
            algorithm=cell.algorithm,
            q_value=cell.q_value,
            snr_db=cell.snr_db,
            step_size=cell.step_size,
            nwd=means[:, 1],
            mae=means[:, 0] / k,
            mse=means[:, 2],
            trials=trials,
            diverged=trials - kept,
            diverged_mask=diverged[j],
        ))
    return curves


# ---------------------------------------------------------------------------
# evaluation protocol 1: analysis validation
# ---------------------------------------------------------------------------

#: ``protocol1``'s step rules, each a multiple of ``mu_fraction`` as a
#: fraction of the stability bound.
_MU_RULES = {"fraction_of_bound": 1.0, "fraction_of_update_eigenvalue": 2.0}


@dataclass(frozen=True)
class CurveComparison:
    """Theory/simulation pair for one q value: the cell's ``monte_carlo``
    curves, its theory MAE curve and their correlation."""

    simulated: AveragedCurves
    theory_mae: np.ndarray
    correlation: float


@dataclass(frozen=True)
class Protocol1Report:
    """Analysis-validation outcome: per-q curve pairs and correlations, and
    the run's config and channel."""

    comparisons: tuple[CurveComparison, ...]
    average_correlation: float
    config: ExperimentConfig
    channel: ChannelSpec
    mu_rule: str


def _theory_mae(curves, config: ExperimentConfig,
                channel: ChannelSpec) -> list[np.ndarray]:
    """Each q-VLMS cell's theory MAE curve: the mean recursion
    ``delta(t) = (I - mu A) delta(t-1)``, ``A = diag(g) R``, from each of
    its kept trials' initial error ``h - w0``, averaged as the simulated
    absolute weight error is.

    ``curves`` are the cells' ``monte_carlo`` results, whose masks say
    which trials diverged. Each chunk's ``h, w0`` are drawn again from its
    seeds (``_chunks``), so no (trials, K) array is kept. The recursion
    takes as many steps per product as the kernel's blocks of a full
    chunk hold (``theory._trajectory_blocks``), and each cell's sums of
    ``|delta(t)|`` over the chunk's kept trials and the coefficients are
    added into its column of the theory sums, (N+1, C), in chunk order;
    a curve is its column over K times its kept trials.
    """
    c, k, n = len(curves), channel.num_coefficients, int(config.iterations)
    blk = min(_block_steps(k, c, min(_CHUNK, int(config.trials))), n)
    r_in = channel.autocorrelation()
    theory = np.full((n + 1, c), 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        powers = [_step_powers(cell.step_size, build_update_matrix(
            QParams.uniform(cell.q_value, k), r_in), blk) for cell in curves]
        for seeds, rows in _chunks(config):
            h, w0, *_ = _draw_chunk(seeds, channel, config.random_init,
                                    noise=False)
            error = h - w0
            for column, cell, p in zip(theory.T, curves, powers):
                # the kept rows are selected, not weighted: a left-out row
                # that overflows would turn a 0 weight into NaN
                kept = error[~cell.diverged_mask[rows]]
                if not len(kept):
                    continue
                # the sum over trials as one matrix-vector product
                ones = np.ones(len(kept))
                for row, block in _trajectory_blocks(kept, p, n):
                    flat = np.abs(block, out=block).reshape(len(kept), -1)
                    level = (ones @ flat).reshape(-1, k).sum(axis=1)
                    column[row:row + len(level)] += level
    return [column / ((cell.trials - cell.diverged) * k)
            for column, cell in zip(theory.T, curves)]


def protocol1(master_seed: int, *, trials: int = 1000, iterations: int = 2000,
              snr_db: float = 20.0, q_values: tuple[float, ...] = (1.0, 5.0, 10.0),
              memory_length: int = 3,
              regressor_mode: RegressorMode = RegressorMode.RAW,
              mu_fraction: float = 0.05,
              mu_rule: str = "fraction_of_bound") -> Protocol1Report:
    """Validate the mean-convergence analysis against simulation.

    For each q, the simulated mean absolute weight error (averaged over
    trials and coefficients) is compared against the trajectory predicted
    by the mean weight-error recursion started from the same per-trial
    initial errors; the Pearson correlation of the two curves is reported
    per q together with the average.

    The run is the one ``_run_setup`` builds, as the CLI's is: the cells
    are those of ``monte_carlo`` for an ``ExperimentConfig`` of q-VLMS at
    ``snr_db``, on a channel at ``snr_db``, and ``mu_rule`` sets their step
    size fraction:

    * ``"fraction_of_bound"`` (default): ``mu = mu_fraction / ((q+1) lambda_max)``,
      a fixed fraction of the stability bound.
    * ``"fraction_of_update_eigenvalue"``: ``mu = mu_fraction / lambda_max(A)``
      with ``A = diag(g) R`` the mean-recursion matrix, whose largest
      eigenvalue is ``(q+1) lambda_max / 2``: the first rule at twice the
      fraction.

    The stability bound is the mean's. The default fraction 0.05 keeps
    the adaptation mean-square stable at M = 3 in both regressor modes and
    at M = 8 in the raw one, but not at M = 8 in the orthonormalized mode,
    whose mean-square threshold lies below it: there trials diverge and
    the curves do not correlate (at 256 trials and 2000 iterations, 11
    trials a q diverge and the average correlation is -0.33).

    ``snr_db`` is checked before the run is built, so a non-finite one is
    named as this keyword.
    """
    _check_positive("mu_fraction", mu_fraction)
    if mu_rule not in _MU_RULES:
        raise ValueError(f"unknown mu rule {mu_rule!r}")
    _check_snr("snr_db", snr_db)
    config, channel = _run_setup(
        memory_length, regressor_mode, iterations=iterations, trials=trials,
        master_seed=master_seed,
        step_size_fraction=mu_fraction * _MU_RULES[mu_rule],
        q_values=tuple(q_values), snr_db_values=(snr_db,),
    )
    return _protocol1_report(monte_carlo(config, channel), config, channel,
                             mu_rule)


def _protocol1_report(curves, config: ExperimentConfig, channel: ChannelSpec,
                      mu_rule: str) -> Protocol1Report:
    """Protocol 1's report of ``curves``, the ``monte_carlo`` results of
    ``config`` on ``channel``: each cell's theory curve (``_theory_mae``)
    and its correlation with the simulated MAE. ``mu_rule`` names the rule
    that set ``config.step_size_fraction``."""
    comparisons = []
    for cell, theory in zip(curves, _theory_mae(curves, config, channel)):
        try:
            correlation = correlation_coefficient(theory, cell.mae)
        except ValueError:  # a constant curve
            # exact: each rule's factor is a power of two
            mu_fraction = config.step_size_fraction / _MU_RULES[mu_rule]
            raise RuntimeError(
                f"protocol1: the theory or the simulated MAE curve does not "
                f"move at q={cell.q_value:g}, mu={cell.step_size:.3e} "
                f"(mu_fraction={mu_fraction:g}), so it has no correlation"
            ) from None
        comparisons.append(CurveComparison(cell, theory, correlation))

    return Protocol1Report(
        comparisons=tuple(comparisons),
        average_correlation=float(np.mean([c.correlation for c in comparisons])),
        config=config,
        channel=channel,
        mu_rule=mu_rule,
    )


# ---------------------------------------------------------------------------
# evaluation protocol 2: q sensitivity versus conventional VLMS
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Protocol2Report:
    """q-sensitivity outcome: per-cell curves and steady-state advantages,
    and the run's config and channel.

    ``advantages_db[(q, snr)]`` is the steady-state NWD of conventional
    VLMS minus that of q-VLMS, in dB; positive values favor q-VLMS.
    """

    curves: tuple[AveragedCurves, ...]
    advantages_db: dict
    average_advantage_db: float
    config: ExperimentConfig
    channel: ChannelSpec

    def cell(self, algorithm: str, snr_db: float,
             q_value: float | None = None) -> AveragedCurves:
        for c in self.curves:
            if (c.algorithm == algorithm and c.snr_db == snr_db
                    and (q_value is None or c.q_value == q_value)):
                return c
        raise KeyError((algorithm, q_value, snr_db))


def _protocol2_algorithms(include_whitened: bool) -> tuple[str, ...]:
    """Protocol 2's algorithms: VLMS and q-VLMS, and, for reference, the
    whitened variant."""
    return ("vlms", "qvlms") + (("whitened",) if include_whitened else ())


def protocol2(master_seed: int, *, trials: int = 1000, iterations: int = 2500,
              snr_db_values: tuple[float, ...] = (10.0, 20.0, 30.0),
              q_values: tuple[float, ...] = (2.0, 5.0, 10.0),
              step_size: float = 1e-3, include_whitened: bool = False,
              memory_length: int = 3,
              regressor_mode: RegressorMode = RegressorMode.RAW) -> Protocol2Report:
    """Compare q-VLMS against conventional VLMS across noise levels.

    Runs every (algorithm, q, SNR) cell at the fixed step size, reports
    the averaged NWD curves, the steady-state NWD (mean of the trailing
    tenth of iterations) in dB, and the q-VLMS advantage over VLMS per
    cell and on average. ``include_whitened`` adds the fixed-gain
    ``S R^-1 S`` variant's curves for reference. The run is the one
    ``_run_setup`` builds, as the CLI's is, so the report's channel is at
    the run's SNR if it has one, else at the default 20 dB.
    """
    config, channel = _run_setup(
        memory_length, regressor_mode, iterations=iterations, trials=trials,
        master_seed=master_seed, step_size=step_size,
        q_values=tuple(float(q) for q in q_values),
        snr_db_values=tuple(float(s) for s in snr_db_values),
        algorithms=_protocol2_algorithms(include_whitened),
    )
    return _protocol2_report(monte_carlo(config, channel), config, channel)


def _protocol2_report(curves, config: ExperimentConfig,
                      channel: ChannelSpec) -> Protocol2Report:
    """Protocol 2's report of ``curves``, the ``monte_carlo`` results of
    ``config`` on ``channel``: each cell's steady-state NWD and q-VLMS's
    advantage over VLMS at each (q, SNR)."""
    level = {(c.algorithm, c.q_value, c.snr_db): c.steady_state_nwd_db()
             for c in curves}
    advantages = {(q, snr): level["vlms", None, snr] - level["qvlms", q, snr]
                  for snr in config.snr_db_values for q in config.q_values}

    return Protocol2Report(
        curves=tuple(curves),
        advantages_db=advantages,
        average_advantage_db=float(np.mean(list(advantages.values()))),
        config=config,
        channel=channel,
    )
