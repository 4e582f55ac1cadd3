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

* A trial's curves and final weights have the same bits whichever entry
  point ran it, beside whichever cells and trials, at any block or
  segment length. Diagonal-gain trials have the bits of the scalar
  ``adapt.qvlms_step`` / ``vlms_step``: the prediction ``w . u`` and the
  clean desired signal ``h . u`` add their K terms left to right, the
  first one first, as ``adapt.predict`` does. The one exception is a
  ``whitened`` cell whose gain is a full matrix (the raw regressor mode):
  BLAS may order ``(S R^-1 S) u`` one way for one trial and another for
  several.
* Each trial's channel, initial weights, input and unit noise streams are
  drawn once per run and shared by every (algorithm, q, SNR) cell; SNR
  only rescales the noise, so comparisons between cells are paired. The
  noise comes from a generator of its own, seeded by the first child of
  the trial's seed, so no generator draws a stream only to skip it.
* Trials run one chunk of ``_CHUNK`` at a time, their streams are drawn
  one segment of about ``_SEGMENT`` steps at a time, and their weights are
  kept one block of steps at a time, in buffers that every segment and
  block of a chunk reuses: no kernel buffer grows with the trial or the
  iteration count. The run's curve sums, two (N+1) x cells x 3 sets, and
  ``protocol1``'s theory sums, (N+1) x cells, grow with the iterations,
  and nothing else does; nothing grows with the trials but one flag per
  trial-cell.
* The kernel applies the divergence guard, once for every caller. A
  chunk's cells in which some trial diverged are replayed on that chunk
  alone with the diverged trials left out of their sums, so each cell's
  averages have the bits of a run of that cell alone.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from qvlms.adapt import QParams, step_size_bound
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
#: once. The history budget below decides wherever a block would hold more
#: than 2,048 values a step: protocol 2 takes 4 steps, M = 8 with three
#: cells 3, protocol 1 18; a single trial takes 64, so its guard, expansion
#: and per-block slicing run once per 64 steps.
_BLOCK = 64
#: Budget of a block's weight history (B, K, cells, trials): half the
#: per-core L2 cache, so that the block reductions read it from cache.
_BLOCK_BYTES = 1 << 20
#: Steps whose input and noise are drawn at once, rounded down to whole
#: blocks: the streams' buffers hold one segment, whatever the run length.
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

    The kernel's arithmetic: the squares of ``h - w`` added left to right,
    over ``(h * h).sum()``, so a trial's last NWD is ``nwd`` of its channel
    and final weights, bit for bit."""
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


def _check_snr(name: str, value) -> None:
    """Raise a ``ValueError`` naming ``name`` if ``value`` is NaN or -inf;
    +inf is a noiseless run."""
    if math.isnan(value) or value == -math.inf:
        raise ValueError(f"{name} must be a number or +inf, got {value}")


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
        if int(self.memory_length) < 1:
            raise ValueError("memory length must be >= 1")
        _check_snr("snr_db", self.snr_db)

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
        # R h one row of R at a time: no (..., K, K) temporary
        rh = np.empty_like(h)
        for i, row in enumerate(self.autocorrelation()):
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
    q and SNR cell, so comparisons are paired.
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
        if int(self.trials) < 1:
            raise ValueError("trials must be >= 1")
        if int(self.iterations) < 1:
            raise ValueError("iterations must be >= 1")
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
        for alg in self.algorithms:
            if alg not in ALGORITHMS:
                raise ValueError(f"unknown algorithm {alg!r}; expected {ALGORITHMS}")
        for q in self.q_values:
            _check_positive("q_values", q)
        for snr in self.snr_db_values:
            _check_snr("snr_db_values", snr)


def trial_seeds(master_seed: int, trials: int) -> list[np.random.SeedSequence]:
    """Independent per-trial seed sequences derived from the master seed.

    Seed ``i`` is ``SeedSequence(master_seed, spawn_key=(i,))``, so the
    Monte-Carlo runs build each chunk's seeds as they reach it
    (``_chunk_seeds``). A trial draws its channel, initial weights and
    input from ``default_rng`` of its seed, and its noise from
    ``default_rng`` of the seed's first child,
    ``spawn_key=(i, 0)`` (``_draw_chunk``).
    """
    return _chunk_seeds(master_seed, 0, trials)


def _chunk_seeds(master_seed: int, start: int, stop: int) -> list:
    """``trial_seeds(master_seed, n)[start:stop]`` for any ``n >= stop``,
    built without the seeds before ``start``."""
    return [np.random.SeedSequence(int(master_seed), spawn_key=(i,))
            for i in range(start, stop)]


def resolve_step_size(config: ExperimentConfig, channel: ChannelSpec,
                      q_value: float = 1.0) -> float:
    """Absolute step size for one run cell.

    Fraction rules resolve against the stability bound computed from the
    closed-form input autocorrelation of the active regressor mode.
    """
    if config.step_size is not None:
        return float(config.step_size)
    bound = step_size_bound(QParams.uniform(q_value, channel.num_coefficients),
                            channel.eigenvalues())
    return float(config.step_size_fraction) * bound


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
    """One (algorithm, q, SNR) cell at its resolved step size."""

    algorithm: str
    q_value: float | None
    snr_db: float
    step_size: float


def _config_cell(config: ExperimentConfig, channel: ChannelSpec, algorithm: str,
                 q_value: float, snr_db: float) -> _Cell:
    """A cell of ``config``; q applies to q-VLMS only."""
    q = float(q_value) if algorithm == "qvlms" else None
    mu = resolve_step_size(config, channel, 1.0 if q is None else q)
    return _Cell(algorithm, q, float(snr_db), mu)


# ---------------------------------------------------------------------------
# the streaming kernel
# ---------------------------------------------------------------------------

def _draw_head(rng, channel: ChannelSpec, random_init: bool):
    """The channel ``h`` and initial weights ``w0`` of one trial: the first
    draws of its generator."""
    k = channel.num_coefficients
    if channel.kernel is None:
        v = rng.standard_normal(k)
        h = v / np.linalg.norm(v)
    else:
        h = channel.kernel.flat()
    if random_init:
        w0 = rng.standard_normal(k) / np.sqrt(k)
    else:
        w0 = np.zeros(k)
    return h, w0


def _draw_chunk(seeds, channel: ChannelSpec, iterations: int, random_init: bool):
    """Draws of a chunk of trials: ``h, w0 (T, K)`` stacked, and two
    generators per trial, standing at the start of its input stream x
    (N+M-1 values) and of its unit noise stream z (N values).

    Trial ``i`` draws h, w0 and x, in this order, from
    ``default_rng(seed)``, and z from ``default_rng(child)``, where
    ``seed`` is ``seeds[i]`` (an int is taken as ``SeedSequence(int)``) and
    ``child`` is the first child that ``seed.spawn`` would give it:
    ``SeedSequence(seed.entropy, spawn_key=seed.spawn_key + (0,),
    pool_size=seed.pool_size)``. The child is built, not spawned, so the
    caller's seed is not changed and a replay draws the same streams. The
    streams are not held: the kernel draws them a segment at a time, and a
    generator gives the same values whether a stream is drawn at once or
    in pieces, or into a tile of a few trials that the kernel then writes
    across its time-major buffers.
    """
    t, k = len(seeds), channel.num_coefficients
    h, w0 = np.empty((t, k)), np.empty((t, k))
    x_rngs, z_rngs = [], []
    for i, seed in enumerate(seeds):
        if not isinstance(seed, np.random.SeedSequence):
            seed = np.random.SeedSequence(seed)
        x_rng = np.random.default_rng(seed)
        h[i], w0[i] = _draw_head(x_rng, channel, random_init)
        x_rngs.append(x_rng)
        z_rngs.append(np.random.default_rng(np.random.SeedSequence(
            seed.entropy, spawn_key=seed.spawn_key + (0,),
            pool_size=seed.pool_size)))
    return h, w0, x_rngs, z_rngs


def _sum_call(terms, out):
    """The ufunc call that adds the K slabs of ``terms`` left to right,
    ``((t0 + t1) + t2) + ...``, into ``out[-1]``. Where a slab holds one
    value, numpy would add the K values pairwise, so their running sums are
    formed into the K slabs of ``out`` instead; otherwise ``out`` needs one
    slab. The reduction starts from -0.0, which leaves ``t0`` as it is."""
    if terms[0].size == 1:
        return np.add.accumulate, (terms, 0, None, out)
    return np.add.reduce, (terms, 0, None, out[-1], False, -0.0)


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


def _lockstep(h, w0, x_rngs, z_rngs, iterations: int, cells,
              channel: ChannelSpec):
    """Advance a chunk of trials through ``iterations`` steps of every cell
    in lockstep, with the divergence guard applied.

    ``h, w0 (T, K)`` and each trial's generators of its input and unit
    noise streams (``_draw_chunk``) are shared by all cells, and are used
    up; diagonal-gain cells must precede ``whitened`` ones. Yields
    ``(row, w_end, e2, nwd, err, ok)`` per block of steps of B rows, the
    curve rows ``row .. row+B-1``:

    * ``w_end (K, C, T)``: the weights at the block's last row,
      coefficient-major, read-only (the next block steps from them);
    * ``e2 (B, C, T)``: the squared a priori errors of the steps that
      produced the block's rows;
    * ``nwd (B, C, T)``: their normalized weight deviation;
    * ``err (B, K, C, T)``: their absolute weight error ``|h - w|``;
    * ``ok (B, C, T)``: the guard, ``nwd <= DIVERGENCE_THRESHOLD``. NaN
      fails it, so a pair whose weights overflowed has diverged.

    The first yield is row 0, the initial weights, with NaN squared errors
    and a guard that passes every pair. Yielded arrays are the kernel's
    buffers: the next block overwrites them, and a consumer may too, all
    but ``w_end``. The weights of a block's other rows are not kept: a
    consumer that needs the weights at some row runs the kernel that many
    iterations. A diverged pair keeps adapting and may overflow, so
    callers run under ``np.errstate`` and mask it.

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
      direction ``S R^-1 S u`` (one matrix product a block), ``clean`` the
      products ``h_k u_k`` and their sum, ``d (B, C, T)`` the desired
      signal, and ``w_hist (B, K, C, T)`` and ``e_hist (B, C, T)`` the
      weights and errors of the block's steps. Once ``w_last`` keeps the
      weights of the last row, the guard forms ``|h - w|`` in place over
      ``w_hist``.
    * Per step, on contiguous (C, T) slabs: ``work`` holds the products
      ``u_k w_k`` and the prediction, their sum (``_sum_call``). With more
      than one cell, ``spread (K, C, T)`` holds the step's regressors
      copied to every cell, and, once the prediction has read them, every
      cell's update direction (``ugt[j]`` for the ``whitened`` cells). The
      step ``g (mu e)`` is copied over the products and the directions are
      multiplied into it in place. No per-step call broadcasts an operand
      over slabs: numpy passes operands that do not form one contiguous
      run through its ufunc buffer, at about twice the cost, and
      ``np.copyto`` is not buffered. Where a slab holds one value nothing
      is buffered, and the step's product broadcasts it.
    * ``kmajor (K, B)``: where a slab holds one value, ``|h - w|`` copied
      K-major, so that einsum adds the NWD's K squares one after another
      as it does for larger slabs; over one contiguous row it adds them in
      its own unrolled order.
    """
    t, k = h.shape
    n, m, c = int(iterations), channel.memory_length, len(cells)
    nd = sum(cell.algorithm != "whitened" for cell in cells)
    # every diagonal gain is uniform over the coefficients (one q per cell);
    # whitened cells take g = 1, which leaves mu * e unchanged, and step
    # along S R^-1 S u instead of u; both are spread to (C, T), so that no
    # call broadcasts them
    mu, gain = _page_aligned((c, t)), _page_aligned((c, t))
    mu[...] = np.array([cell.step_size for cell in cells])[:, None]
    gain[...] = np.array([
        QParams.uniform(cell.q_value, 1).g[0] if cell.algorithm == "qvlms"
        else 1.0 for cell in cells
    ])[:, None]
    whitening = whitened_gain(channel) if nd < c else None
    factor = np.array([noise_variance_for_snr(1.0, cell.snr_db) for cell in cells])
    sigma = np.sqrt(factor[:, None] * channel.signal_power(h))

    blk = min(_block_steps(k, c, t), n)
    # the channel spread to (K, C, T), so that only B broadcasts
    hb = _page_aligned((k, c, t))
    hb[...] = h.T[:, None]
    hh = (h * h).sum(axis=1)
    sq_buf = _page_aligned((blk, c, t))
    nwd_buf = _page_aligned((blk, c, t))
    ok_buf = _page_aligned((blk, c, t), dtype=bool)
    # at least two columns: one column wide, |h - w| is a row again
    kmajor = _page_aligned((k, max(blk, 2))) if c * t == 1 else None
    seg = max(blk, _SEGMENT // blk * blk)
    # the streams of a segment, time-major: row j of x is every trial's
    # input at step j-M+1 of the segment, row j of z its unit noise at step j
    x = _page_aligned((seg + m - 1, t))
    z = _page_aligned((seg, t))
    tile = _page_aligned((min(_TILE, t), seg + m - 1))
    # the newest-first input window of every step of a segment, (S, M, T)
    windows = sliding_window_view(x, m, axis=0)[..., ::-1].transpose(0, 2, 1)
    w_hist = _page_aligned((blk, k, c, t))
    e_hist = _page_aligned((blk, c, t))
    d = _page_aligned((blk, c, t))
    ut = _page_aligned((blk, k, 1, t))
    ugt = _page_aligned((blk, k, 1, t)) if whitening is not None else None
    g0 = _page_aligned((blk + m - 1, m, t))
    spread = _page_aligned((k, c, t)) if c > 1 else None
    # consumers read the last row's weights through a read-only view
    w_last = _page_aligned((k, c, t))
    w_end = w_last.view()
    w_end.flags.writeable = False
    # the products, then the prediction (or its running sums, the last of
    # which it is); the update step overwrites the products
    work = _page_aligned((2 * k if c * t == 1 else k + 1, c, t))
    prod, pred = work[:k], work[-1]
    scaled = _page_aligned((2, c, t))
    # (B, T) slabs; at one trial, a block of one step takes K for the sum
    clean = _page_aligned((2 * k if t == 1 else k + 1, blk, t))

    def guarded(row, b):
        """The yield of a block whose ``b`` rows of weights are in
        ``w_hist``: the weights of its last row are kept in ``w_last``, then
        ``|h - w|`` is formed over the history, and the curves and the guard
        from it; row 0, the initial state, never diverges."""
        w = w_hist[:b]
        np.copyto(w_last, w[b - 1])
        sq, cur, ok = sq_buf[:b], nwd_buf[:b], ok_buf[:b]
        np.multiply(e_hist[:b], e_hist[:b], out=sq)
        err = np.abs(np.subtract(hb, w, out=w), out=w)
        # |h - w| |h - w| has the bits of (h - w) (h - w)
        if kmajor is None:
            np.einsum("bkct,bkct->bct", err, err, out=cur)
        else:
            col = kmajor[:, :b]
            np.copyto(col, err[:, :, 0, 0].T)
            np.einsum("kb,kb->b", col, col, out=cur[:, 0, 0])
        np.divide(cur, hh, out=cur)
        np.less_equal(cur, DIVERGENCE_THRESHOLD, out=ok)
        if not row:
            ok[...] = True
        return row, w_end, sq, cur, err, ok

    w_hist[0] = w0.T[:, None]
    e_hist[0] = np.nan
    yield guarded(0, 1)

    # the ufunc calls of each step of a block: prediction, error, update
    steps = []
    for j in range(blk):
        w_prev = w_last if j == 0 else w_hist[j - 1]
        # the regressors u, and every cell's direction v: u, or S R^-1 S u
        # for the whitened cells, copied over u once the prediction has read it
        if spread is None:
            u, v, calls = ut[j], ut[j] if nd else ugt[j], []
        else:
            u = v = spread
            calls = [(np.copyto, (spread, ut[j]))]
        calls.append((np.multiply, (u, w_prev, prod)))
        if spread is not None and nd < c:
            calls.append((np.copyto, (spread[:, nd:], ugt[j])))
        calls += [
            _sum_call(prod, work[k:]),
            (np.subtract, (d[j], pred, e_hist[j])),
            (np.multiply, (mu, e_hist[j], scaled[0])),
            (np.multiply, (gain, scaled[0], scaled[1])),
        ]
        # do not shrink numpy's ufunc buffer (np.setbufsize) instead of the
        # copy: the setting would hold for any numpy call on this thread,
        # such as perfbench's speed probe, which runs in a signal handler
        if c * t == 1:
            calls.append((np.multiply, (scaled[1], v, prod)))
        else:
            calls += [(np.copyto, (prod, scaled[1])),
                      (np.multiply, (prod, v, prod))]
        calls.append((np.add, (w_prev, prod, w_hist[j])))
        steps.append(calls)

    def squares(col):
        """The calls that turn the squares ``col`` into ``(x*x - 1)/sqrt(2)``
        in the orthonormalized mode: none in the raw one."""
        if channel.regressor_mode is RegressorMode.RAW:
            return []
        return [(np.subtract, (col, 1.0, col)), (np.divide, (col, SQRT2, col))]

    def expansion(b):
        """The ufunc calls that complete a block of ``b`` steps once its
        linear taps and its noise ``z sigma`` are in place: the quadratic
        terms, the desired signal, and the whitened direction."""
        u = ut[:b, :, 0]
        lin = u[:, :m]
        # the block's products x(s) x(s-d), and the squares' ortho form
        calls = [(np.multiply, (lin[:, :1], lin, g0[m - 1:m - 1 + b])),
                 *squares(g0[m - 1:m - 1 + b, 0])]
        for i in range(m):
            # the terms u_i u_i .. u_i u_M-1 of step r are those of step r-i
            at = m + i * m - i * (i - 1) // 2
            calls.append((np.copyto, (u[:, at:at + m - i],
                                      g0[m - 1 - i:m - 1 - i + b, :m - i])))
        # the block's last M-1 steps precede the next block
        calls.append((np.copyto, (g0[:m - 1], g0[b:b + m - 1])))
        calls.append((np.multiply,
                      (u.transpose(1, 0, 2), hb[:, :1], clean[:k, :b])))
        calls.append(_sum_call(clean[:k, :b], clean[k:, :b]))
        calls.append((np.add, (clean[-1, :b, None], d[:b], d[:b])))
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
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    cell = _config_cell(config, channel, algorithm,
                        config.q_values[0] if q_value is None else q_value,
                        channel.snr_db)
    n = config.iterations
    draw = _draw_chunk([seed], channel, n, config.random_init)
    h, w0 = draw[0][0], draw[1][0]
    nwd_curve = np.full(n + 1, np.nan)
    abs_err = np.full((n + 1, h.size), np.nan)
    sq_err = np.full(n + 1, np.nan)
    div_iter = None
    with np.errstate(over="ignore", invalid="ignore"):
        for row, w_end, e2, cur, err, ok in _lockstep(*draw, n, (cell,), channel):
            bad = np.flatnonzero(~ok[:, 0, 0])
            stop = int(bad[0]) + 1 if bad.size else len(ok)
            rows = slice(row, row + stop)
            nwd_curve[rows] = cur[:stop, 0, 0]
            abs_err[rows] = err[:stop, :, 0, 0]
            sq_err[rows] = e2[:stop, 0, 0]
            if bad.size:
                div_iter = row + stop - 1
                break
        if div_iter is not None:
            # the kernel keeps the weights of a block's last row only: the
            # weights at the divergence come from a replay up to it
            replay = _draw_chunk([seed], channel, n, config.random_init)
            for _, w_end, *_ in _lockstep(*replay, div_iter, (cell,), channel):
                pass
    w_final = w_end[:, 0, 0].copy()
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
        for row, _, sq, cur, err, ok in _lockstep(*draw, n, cells, channel):
            if not ok.all():
                diverged |= ~ok.all(axis=0)
                if diverged.all():
                    break
                replayed = drop is None and diverged.any(axis=1).all()
            if replayed:
                continue
            if drop is not None:
                for part in (cur, err, sq):
                    np.copyto(part, 0.0, where=drop)
            rows = sums[row:row + len(ok)]
            # over the trials, then over K: one trial's sums have the bits
            # of TrialCurves.mae
            np.einsum("bkct->bck", err).sum(axis=-1, out=rows[..., 0])
            cur.sum(axis=-1, out=rows[..., 1])
            sq.sum(axis=-1, out=rows[..., 2])
    return diverged


def _simulate(cells, channel: ChannelSpec, master_seed: int, trials: int,
              iterations: int, random_init: bool, update_matrices=None):
    """Average every cell over ``trials`` trials on shared per-trial draws.

    Trial ``i`` is drawn from ``trial_seeds(master_seed, trials)[i]``; the
    seeds are built a chunk at a time, and a chunk's draws are dropped
    before the next chunk is drawn. A run allocates two sets of curve
    sums, the totals and one chunk's sums: each chunk's pass writes every
    cell's sums into the chunk's set, which is then added into the totals,
    so a cell's totals hold ``((s0 + s1) + s2) + ...`` in chunk order
    (``0.0 + x == x`` for these non-negative or NaN sums).

    A cell with a diverged pair in a chunk is replayed on that chunk alone,
    drawn again from its seeds, with those pairs left out, into a zeroed
    set of its own that is copied over the cell's column of the chunk's
    sums before they are added. So each cell's totals add, chunk by chunk,
    the sums of its kept trials, bit for bit those of a run of that cell
    alone. Each cell's averages are divided in place, so the returned NWD
    and MSE curves are views of the totals.

    With ``update_matrices``, one matrix A per cell, each chunk, once its
    passes have fixed which pairs diverged, also runs the mean recursion
    ``delta(t) = (I - mu A) delta(t-1)`` from its kept trials' initial
    errors ``h - w0``, as many steps per product as the kernel's blocks of
    a full chunk hold (``theory._trajectory_blocks``), and adds the sum of
    ``|delta(t)|`` over those trials and the coefficients into the cell's
    column of the theory sums, (N+1, C). Returns the averaged curves in
    ``cells`` order, and with ``update_matrices`` each cell's theory MAE
    curve, those sums over K times its kept trials (an empty list
    without).
    """
    # the kernel stacks diagonal-gain cells ahead of matrix-gain ones
    order = sorted(range(len(cells)), key=lambda i: cells[i].algorithm == "whitened")
    stacked = [cells[i] for i in order]
    c, k, n, trials = len(cells), channel.num_coefficients, int(iterations), int(trials)
    totals, sums = _zero_sums(n, c), np.empty((n + 1, c, 3))
    diverged = np.zeros((c, trials), dtype=bool)
    if update_matrices is not None:
        blk = min(_block_steps(k, c, min(_CHUNK, trials)), n)
        with np.errstate(over="ignore", invalid="ignore"):
            powers = [_step_powers(stacked[j].step_size, update_matrices[i], blk)
                      for j, i in enumerate(order)]
        theory = np.full((n + 1, c), 0.0)

    def theory_sums(error, start, stop):
        """Add each cell's sums of ``|delta(t)|`` over its kept trials of
        ``start:stop``, whose initial errors are ``error``, into its column
        of the theory sums. The kept rows are selected, not weighted: a
        left-out row that overflows would turn a 0 weight into NaN."""
        for j, p in enumerate(powers):
            kept = error[~diverged[j, start:stop]]
            if not len(kept):
                continue
            column = theory[:, j]
            # the sum over trials as one matrix-vector product
            ones = np.ones(len(kept))
            for row, block in _trajectory_blocks(kept, p, n):
                flat = np.abs(block, out=block).reshape(len(kept), -1)
                level = (ones @ flat).reshape(-1, k).sum(axis=1)
                column[row:row + len(level)] += level

    for start in range(0, trials, _CHUNK):
        stop = min(start + _CHUNK, trials)
        seeds = _chunk_seeds(master_seed, start, stop)
        draw = _draw_chunk(seeds, channel, n, random_init)
        error = draw[0] - draw[1]
        diverged[:, start:stop] = _chunk_sums(draw, n, stacked, channel, sums)
        del draw
        bad = np.flatnonzero(diverged[:, start:stop].any(axis=1))
        if bad.size:
            replayed = _zero_sums(n, bad.size)
            _chunk_sums(_draw_chunk(seeds, channel, n, random_init), n,
                        [stacked[j] for j in bad], channel, replayed,
                        keep=~diverged[bad, start:stop])
            sums[:, bad] = replayed
            del replayed
        totals += sums
        if update_matrices is not None:
            with np.errstate(over="ignore", invalid="ignore"):
                theory_sums(error, start, stop)

    curves, theory_mae = [], []
    for i, cell in enumerate(cells):
        j = order.index(i)
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
        if update_matrices is not None:
            theory_mae.append(theory[:, j] / (kept * k))
    return curves, theory_mae


def monte_carlo(config: ExperimentConfig, channel: ChannelSpec) -> list[AveragedCurves]:
    """Averaged curves for every (algorithm, q, SNR) cell of the config.

    The channel argument acts as the family template; its SNR is replaced
    by each entry of ``config.snr_db_values``. All cells share the same
    per-trial draws, so cross-algorithm comparisons are paired.
    """
    cells = [
        _config_cell(config, channel, algorithm, q, snr)
        for snr in config.snr_db_values
        for algorithm in config.algorithms
        for q in (config.q_values if algorithm == "qvlms" else (None,))
    ]
    curves, _ = _simulate(cells, channel, config.master_seed, config.trials,
                          config.iterations, config.random_init)
    return curves


# ---------------------------------------------------------------------------
# evaluation protocol 1: analysis validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CurveComparison:
    """Theory/simulation pair for one q value."""

    q_value: float
    step_size: float
    theory_mae: np.ndarray
    simulated_mae: np.ndarray
    simulated_nwd: np.ndarray
    correlation: float
    trials: int
    diverged: int


@dataclass(frozen=True)
class Protocol1Report:
    """Analysis-validation outcome: per-q curve pairs and correlations."""

    comparisons: tuple[CurveComparison, ...]
    average_correlation: float
    master_seed: int
    trials: int
    iterations: int
    snr_db: float
    memory_length: int
    regressor_mode: RegressorMode
    mu_rule: str


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

    The step size is resolved per q by ``mu_rule``:

    * ``"fraction_of_bound"`` (default): ``mu = mu_fraction / ((q+1) lambda_max)``,
      a fixed fraction of the stability bound. The default fraction 0.05
      keeps the adaptation mean-square stable, which a fraction of the mean
      bound alone does not guarantee.
    * ``"fraction_of_update_eigenvalue"``: ``mu = mu_fraction / lambda_max(A)``
      with ``A = diag(g) R`` the mean-recursion matrix. Twice the step of
      the first rule at the same fraction.
    """
    if int(trials) < 1:
        raise ValueError("trials must be >= 1")
    if int(iterations) < 1:
        raise ValueError("iterations must be >= 1")
    if not q_values:
        raise ValueError("q_values must not be empty")
    for q in q_values:
        _check_positive("q_values", q)
    _check_positive("mu_fraction", mu_fraction)
    channel = ChannelSpec(memory_length=memory_length, snr_db=snr_db,
                          regressor_mode=regressor_mode)
    k = channel.num_coefficients
    r_in = channel.autocorrelation()
    lam = channel.eigenvalues()
    cells, update_matrices = [], []
    for q in q_values:
        qp = QParams.uniform(q, k)
        a_matrix = build_update_matrix(qp, r_in)
        if mu_rule == "fraction_of_bound":
            mu = mu_fraction * step_size_bound(qp, lam)
        elif mu_rule == "fraction_of_update_eigenvalue":
            mu = mu_fraction / float(np.max(np.linalg.eigvals(a_matrix).real))
        else:
            raise ValueError(f"unknown mu rule {mu_rule!r}")
        cells.append(_Cell("qvlms", float(q), float(snr_db), mu))
        update_matrices.append(a_matrix)
    # the mean recursion from each kept trial's initial error, averaged as
    # the simulated absolute weight error is
    curves, theories = _simulate(cells, channel, master_seed, trials,
                                 iterations, True, update_matrices)

    comparisons = []
    for cell, theory in zip(curves, theories):
        comparisons.append(CurveComparison(
            q_value=cell.q_value,
            step_size=cell.step_size,
            theory_mae=theory,
            simulated_mae=cell.mae,
            simulated_nwd=cell.nwd,
            correlation=correlation_coefficient(theory, cell.mae),
            trials=trials,
            diverged=cell.diverged,
        ))

    return Protocol1Report(
        comparisons=tuple(comparisons),
        average_correlation=float(np.mean([c.correlation for c in comparisons])),
        master_seed=int(master_seed),
        trials=trials,
        iterations=iterations,
        snr_db=snr_db,
        memory_length=memory_length,
        regressor_mode=regressor_mode,
        mu_rule=mu_rule,
    )


# ---------------------------------------------------------------------------
# evaluation protocol 2: q sensitivity versus conventional VLMS
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Protocol2Report:
    """q-sensitivity outcome: per-cell curves and steady-state advantages.

    ``advantages_db[(q, snr)]`` is the steady-state NWD of conventional
    VLMS minus that of q-VLMS, in dB; positive values favor q-VLMS.
    """

    curves: tuple[AveragedCurves, ...]
    advantages_db: dict
    average_advantage_db: float
    master_seed: int
    trials: int
    iterations: int
    snr_db_values: tuple[float, ...]
    q_values: tuple[float, ...]
    step_size: float
    memory_length: int
    regressor_mode: RegressorMode

    def cell(self, algorithm: str, snr_db: float,
             q_value: float | None = None) -> AveragedCurves:
        for c in self.curves:
            if (c.algorithm == algorithm and c.snr_db == snr_db
                    and (q_value is None or c.q_value == q_value)):
                return c
        raise KeyError((algorithm, q_value, snr_db))


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
    ``S R^-1 S`` variant's curves for reference.
    """
    algorithms = ("vlms", "qvlms") + (("whitened",) if include_whitened else ())
    config = ExperimentConfig(
        iterations=iterations, trials=trials, master_seed=master_seed,
        step_size=step_size, q_values=tuple(float(q) for q in q_values),
        snr_db_values=tuple(float(s) for s in snr_db_values),
        algorithms=algorithms, random_init=True,
    )
    channel = ChannelSpec(memory_length=memory_length,
                          regressor_mode=regressor_mode)
    curves = monte_carlo(config, channel)

    level = {(c.algorithm, c.q_value, c.snr_db): c.steady_state_nwd_db()
             for c in curves}
    advantages = {(q, snr): level["vlms", None, snr] - level["qvlms", q, snr]
                  for snr in config.snr_db_values for q in config.q_values}

    return Protocol2Report(
        curves=tuple(curves),
        advantages_db=advantages,
        average_advantage_db=float(np.mean(list(advantages.values()))),
        master_seed=int(master_seed),
        trials=trials,
        iterations=iterations,
        snr_db_values=config.snr_db_values,
        q_values=config.q_values,
        step_size=step_size,
        memory_length=memory_length,
        regressor_mode=regressor_mode,
    )
