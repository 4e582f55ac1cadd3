"""Nonlinear channel identification experiments.

A trial streams unit-variance white Gaussian input through a second-order
Volterra channel, ``d(r) = h . u(r) + eta(r)``, and adapts a filter on the
same regressor. Channel coefficients and initial weights are drawn per
trial from a seeded generator, so every protocol output is a pure function
of its configuration and master seed. Trials are averaged with the
divergence guard applied: a trial whose normalized weight deviation
exceeds ``DIVERGENCE_THRESHOLD`` is marked at the triggering iteration and
excluded from the averages (never silently dropped).

One streaming kernel runs every simulation: ``run_trial``, ``monte_carlo``
and both protocols.

* Each trial's channel, initial weights, input and unit noise streams are
  drawn once per run, one chunk of trials at a time, and shared by every
  (algorithm, q, SNR) cell; SNR only rescales the noise. A chunk's seeds
  are built when it is reached, and its draws are dropped before the next
  chunk is drawn, so memory does not grow with the trial count. The input
  and noise streams are drawn one segment of about ``_SEGMENT`` (512)
  steps at a time from two generators per trial, and no buffer of the
  kernel grows with the iteration count; only the curve sums do.
* All cells advance together along a cell axis: diagonal-gain cells
  (q-VLMS and VLMS, each with its own step size and gain) in one stack,
  matrix-gain ``whitened`` cells in a second.
* Regressors and the clean desired signal are built for a block of steps
  at once, so the per-step loop only forms the error and updates weights.
  A block holds up to 16 steps, fewer when their weight history would
  exceed ``_BLOCK_BYTES`` (1 MiB, half the per-core L2 cache), so that the
  block reductions read it from cache. Block length never changes a bit
  of the results.
* Weights are stored coefficient-major, (K, cells, trials), so every
  per-step operation runs on contiguous (cells, trials) slabs. The
  prediction ``w . u`` adds the K product slabs by a fixed plan that
  repeats numpy's pairwise summation order for a row of length K, which
  keeps each trial bit-identical to the scalar steps in ``adapt``.
* The kernel forms each block's squared error, NWD and weight error
  ``h - w``, and applies the divergence guard, in buffers reused by every
  block. ``run_trial`` and the averages only reduce them, into full
  per-trial curves or into per-cell sums over trials.
* Trials are deterministic and independent, so the cells of a chunk in
  which some (cell, trial) pair diverged are replayed once, alone, with
  the diverged pairs left out of the sums; the kept trials come out
  unchanged, and the other cells keep their sums.

A single trial is therefore bit-identical whichever entry point produced
it.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from qvlms.adapt import QParams, step_size_bound
from qvlms.theory import (
    _mean_recursion,
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
#: once.
_BLOCK = 16
#: Budget of a block's weight history (B, K, cells, trials): half the
#: per-core L2 cache, so that the block reductions read it from cache.
_BLOCK_BYTES = 1 << 20
#: Steps whose input and noise are drawn at once, rounded down to whole
#: blocks: the streams' buffers hold one segment, whatever the run length.
_SEGMENT = 512


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def nwd(h, w) -> float:
    """Normalized weight deviation ``||h - w||^2 / ||h||^2`` (squared)."""
    hv = np.asarray(h, dtype=np.float64)
    wv = np.asarray(w, dtype=np.float64)
    if hv.shape != wv.shape or hv.ndim != 1:
        raise ValueError(f"shape mismatch: h {hv.shape}, w {wv.shape}")
    denom = float(hv @ hv)
    if denom == 0.0:
        raise ValueError("channel vector must be nonzero")
    diff = hv - wv
    return float(diff @ diff) / denom


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
        rh = (h[..., None, :] * self.autocorrelation()).sum(axis=-1)
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
        if self.step_size is not None and not self.step_size > 0.0:
            raise ValueError("step_size must be positive")
        if self.step_size_fraction is not None and not self.step_size_fraction > 0.0:
            raise ValueError("step_size_fraction must be positive")
        for alg in self.algorithms:
            if alg not in ALGORITHMS:
                raise ValueError(f"unknown algorithm {alg!r}; expected {ALGORITHMS}")
        if any(q <= 0.0 for q in self.q_values):
            raise ValueError("all q values must be positive")


def trial_seeds(master_seed: int, trials: int) -> list[np.random.SeedSequence]:
    """Independent per-trial seed sequences derived from the master seed.

    Seed ``i`` is ``SeedSequence(master_seed, spawn_key=(i,))``, so the
    Monte-Carlo runs build each chunk's seeds as they reach it
    (``_chunk_seeds``).
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

    Trial ``i`` draws h, w0, x and z, in this order, from
    ``default_rng(seeds[i])``. The streams are not held: the kernel draws
    them a segment at a time, and a generator gives the same values
    whether a stream is drawn at once or in pieces. z's generator is a
    second one from the same seed: it redraws h and w0, then draws x once,
    in pieces of at most ``_SEGMENT`` values that are thrown away.
    """
    t, k = len(seeds), channel.num_coefficients
    h, w0 = np.empty((t, k)), np.empty((t, k))
    x_rngs, z_rngs = [], []
    x_size = iterations + channel.memory_length - 1
    skip = np.empty(min(_SEGMENT, x_size))
    for i, seed in enumerate(seeds):
        x_rng, z_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        h[i], w0[i] = _draw_head(x_rng, channel, random_init)
        _draw_head(z_rng, channel, random_init)
        for left in range(x_size, 0, -skip.size):
            z_rng.standard_normal(out=skip[:min(left, skip.size)])
        x_rngs.append(x_rng)
        z_rngs.append(z_rng)
    return h, w0, x_rngs, z_rngs


def _regressor_index(memory_length: int, steps: int):
    """Index arrays of ``_regressors`` for blocks of up to ``steps`` steps:
    the newest-first input windows (steps, M), the factors of each
    quadratic term, and the positions of the squares among those terms."""
    m = memory_length
    iu, ju = np.triu_indices(m)
    window = np.arange(m - 1, steps + m - 1)[:, None] - np.arange(m)
    return window, iu, ju, np.flatnonzero(iu == ju)


def _regressors(x, r0: int, r1: int, index, mode: RegressorMode) -> np.ndarray:
    """Regressors of steps ``r0 .. r1-1`` for every trial, shape (B, T, K),
    from newest-first windows of the input ``x (T, S+M-1)`` of a segment
    of S steps, whose column ``j`` is the input at its step ``j-M+1``;
    ``index`` is ``_regressor_index(M, B)`` or longer."""
    window, iu, ju, diag = index
    lin = x[:, r0:][:, window[:r1 - r0]]
    lin = lin.transpose(1, 0, 2)
    quad = lin[..., iu] * lin[..., ju]
    if mode is RegressorMode.ORTHONORMALIZED:
        quad[..., diag] = (lin * lin - 1.0) / SQRT2
    return np.concatenate([lin, quad], axis=-1)


def _sum_plan(n: int) -> tuple[list[tuple[int, int, int]], int]:
    """Additions ``slot[out] = slot[a] + slot[b]``, as triples
    ``(a, b, out)``, that sum the values in slots ``0 .. n-1`` in the
    order numpy's pairwise summation adds a contiguous vector of length
    ``n``; and the slot that ends up holding the sum.

    * ``n < 8``: sequentially.
    * ``8 <= n <= 128``: eight accumulators take whole blocks of eight, are
      combined as ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))``, and the
      remainder is added sequentially.
    * ``n > 128``: the two halves, split at ``n // 2`` rounded down to a
      multiple of 8, are summed this way and then added.

    Like numpy's, the sum starts from +0.0, which slot ``n`` must hold: it
    turns an all-(-0.0) sum into +0.0. The plan uses ``n + 2`` slots and
    never writes to an operand of its own addition: numpy runs such
    in-place calls more slowly on small slabs, as at batch 1.
    """
    adds = []  # (a, b) value ids; value n + 1 + i is the sum made by adds[i]

    def add(a, b):
        adds.append((a, b))
        return n + len(adds)

    def pairwise(lo, m):
        if m < 8:
            acc = lo
            for i in range(lo + 1, lo + m):
                acc = add(acc, i)
            return acc
        if m <= 128:
            whole = lo + m - m % 8
            r = list(range(lo, lo + 8))
            for i in range(lo + 8, whole, 8):
                r = [add(r[j], i + j) for j in range(8)]
            acc = add(add(add(r[0], r[1]), add(r[2], r[3])),
                      add(add(r[4], r[5]), add(r[6], r[7])))
            for i in range(whole, lo + m):
                acc = add(acc, i)
            return acc
        half = m // 2 - m // 2 % 8
        return add(pairwise(lo, half), pairwise(lo + half, m - half))

    total = add(pairwise(0, n), n)
    # every value is an operand once: a sum takes a free slot, and the
    # slots of its operands other than the +0.0 are free once it is made
    slot, free, plan = list(range(n + 1)) + [0] * len(adds), [n + 1], []
    for i, (a, b) in enumerate(adds):
        slot[n + 1 + i] = free.pop()
        plan.append((slot[a], slot[b], slot[n + 1 + i]))
        free += [slot[v] for v in (a, b) if v != n]
    return plan, slot[total]


def _block_steps(k: int, c: int, t: int) -> int:
    """Steps per block for K coefficients, C cells and T trials: at most
    ``_BLOCK``, and as many as keep the weight history (B, K, C, T) within
    ``_BLOCK_BYTES``, but at least one."""
    return max(1, min(_BLOCK, _BLOCK_BYTES // (8 * k * c * t)))


def _lockstep(h, w0, x_rngs, z_rngs, iterations: int, cells,
              channel: ChannelSpec):
    """Advance a chunk of trials through ``iterations`` steps of every cell
    in lockstep, with the divergence guard applied.

    ``h, w0 (T, K)`` and each trial's generators of its input and unit
    noise streams (``_draw_chunk``) are shared by all cells, and are used
    up; diagonal-gain cells must precede ``whitened`` ones. Yields
    ``(row, w, e2, nwd, delta, ok)`` per block of steps of B rows:

    * ``w (B, K, C, T)``: the weights at curve rows ``row .. row+B-1``,
      coefficient-major;
    * ``e2 (B, C, T)``: the squared a priori errors of the steps that
      produced them;
    * ``nwd (B, C, T)``: their normalized weight deviation;
    * ``delta (B, K, C, T)``: their weight error ``h - w``;
    * ``ok (B, C, T)``: the guard, ``nwd <= DIVERGENCE_THRESHOLD``. NaN
      fails it, so a pair whose weights overflowed has diverged.

    The first yield is row 0, the initial weights, with NaN squared errors
    and a guard that passes every pair. Yielded arrays are the kernel's
    buffers: the next block overwrites them, and a consumer may too.
    A diverged pair keeps adapting and may overflow, so callers run under
    ``np.errstate`` and mask it.

    A block holds ``_block_steps(K, C, T)`` steps: up to 16, fewer when
    16 steps of weight history would exceed ``_BLOCK_BYTES`` (1 MiB, half
    the per-core L2), so that the block's curves and the consumers'
    reductions read the history from cache; 12 protocol-2 cells of 256
    trials take 4 steps. The streams are drawn one segment at a time, the
    whole number of blocks nearest ``_SEGMENT`` steps from below (at least
    one block), into buffers x (T, S+M-1) and z (T, S) that every segment
    reuses; x carries the last M-1 inputs of a segment into the next. So
    no buffer grows with the iteration count. Neither block nor segment
    length changes a bit of the results: the regressors, the desired
    signal and the prediction's additions are elementwise per step, and
    the curves and the consumers reduce along K or T only.

    Weights are stored coefficient-major so that every per-step operation
    runs on contiguous (C, T) slabs. The prediction ``w . u`` is the
    product's K slabs summed by ``_sum_plan``: the same additions in the
    same order as numpy's row sum in ``adapt.predict``, so diagonal-gain
    cells are bit-exact per trial against ``adapt.qvlms_step`` (``whitened``
    cells differ from ``adapt.matrix_gain_step`` only in how BLAS orders
    ``u @ (S R^-1 S)^T``). The update forms ``g * (mu * e)`` per
    (cell, trial) and broadcasts it over the coefficients. All buffers,
    views, index arrays and the per-step ufunc calls are built once per
    call.
    """
    t, k = h.shape
    n, m, c = int(iterations), channel.memory_length, len(cells)
    nd = sum(cell.algorithm != "whitened" for cell in cells)
    # every diagonal gain is uniform over the coefficients (one q per cell);
    # whitened cells take g = 1, which leaves mu * e unchanged, and step
    # along S R^-1 S u instead of u
    mu = np.array([cell.step_size for cell in cells])[:, None]
    gain = np.array([
        QParams.uniform(cell.q_value, 1).g[0] if cell.algorithm == "qvlms"
        else 1.0 for cell in cells
    ])[:, None]
    gain_t = whitened_gain(channel).T if nd < c else None
    factor = np.array([noise_variance_for_snr(1.0, cell.snr_db) for cell in cells])
    sigma = np.sqrt(factor[:, None] * channel.signal_power(h))

    blk = _block_steps(k, c, t)
    # the buffer of h - w is made before hb: an output just past its input
    # modulo 4 KiB, as a later allocation often is, stalls each load
    delta_buf = np.empty((blk, k, c, t))
    # the channel spread to (K, C, T), so that only B broadcasts
    hb = np.repeat(h.T[:, None], c, axis=1)
    hh = (h * h).sum(axis=1)
    sq_buf = np.empty((blk, c, t))
    nwd_buf = np.empty((blk, c, t))
    ok_buf = np.empty((blk, c, t), dtype=bool)

    def guarded(row, w, e):
        """The yield of a block: its curves and guard; row 0, the initial
        state, never diverges."""
        b = len(w)
        sq, cur, delta, ok = sq_buf[:b], nwd_buf[:b], delta_buf[:b], ok_buf[:b]
        np.multiply(e, e, out=sq)
        np.subtract(hb, w, out=delta)
        np.einsum("bkct,bkct->bct", delta, delta, out=cur)
        np.divide(cur, hh, out=cur)
        np.less_equal(cur, DIVERGENCE_THRESHOLD, out=ok)
        if not row:
            ok[...] = True
        return row, w, sq, cur, delta, ok

    yield guarded(0, np.broadcast_to(w0.T[None, :, None], (1, k, c, t)),
                  np.full((1, c, t), np.nan))
    seg = max(blk, _SEGMENT // blk * blk)
    x = np.empty((t, seg + m - 1))
    z = np.empty((t, seg))
    index = _regressor_index(m, blk)
    w_hist = np.empty((blk, k, c, t))
    e_hist = np.empty((blk, c, t))
    d = np.empty((blk, c, t))
    # regressors, and the whitened direction S R^-1 S u, coefficient-major
    ut = np.empty((blk, k, 1, t))
    ugt = np.empty((blk, k, 1, t)) if gain_t is not None else None
    w_last = np.empty((k, c, t))
    w_last[...] = w0.T[:, None]
    # the products u_k w_k, +0.0 and the partial sums of the plan; then
    # the update step (g * (mu * e)) u_k
    work = np.empty((k + 2, c, t))
    work[k] = 0.0
    prod = work[:k]
    plan, total = _sum_plan(k)
    adds = [(np.add, (work[a], work[b], work[o])) for a, b, o in plan]
    # step sizes and gains spread to (C, T) so that no call broadcasts them
    mu, gain = np.repeat(mu, t, axis=1), np.repeat(gain, t, axis=1)
    scaled = np.empty((2, c, t))
    stacks = [(cs, direction) for cs, direction in
              ((slice(0, nd), ut), (slice(nd, c), ugt)) if cs.start < cs.stop]

    # the ufunc calls of each step of a block: prediction, error, update
    steps = []
    for j in range(blk):
        w_prev = w_last if j == 0 else w_hist[j - 1]
        steps.append([
            (np.multiply, (ut[j], w_prev, prod)),
            *adds,
            (np.subtract, (d[j], work[total], e_hist[j])),
            (np.multiply, (mu, e_hist[j], scaled[0])),
            (np.multiply, (gain, scaled[0], scaled[1])),
            *((np.multiply, (scaled[1, cs], direction[j], prod[:, cs]))
              for cs, direction in stacks),
            (np.add, (w_prev, prod, w_hist[j])),
        ])

    for s0 in range(0, n, seg):
        s = min(seg, n - s0)
        if s0:
            x[:, :m - 1] = x[:, seg:]  # only the last segment is short
        for i in range(t):
            x_rngs[i].standard_normal(out=x[i, (m - 1 if s0 else 0):s + m - 1])
            z_rngs[i].standard_normal(out=z[i, :s])
        for r0 in range(0, s, blk):
            b = min(blk, s - r0)
            u = _regressors(x, r0, r0 + b, index, channel.regressor_mode)
            np.add((u * h).sum(axis=-1)[:, None],
                   z[:, r0:r0 + b].T[:, None] * sigma, out=d[:b])
            ut[:b, :, 0] = u.transpose(0, 2, 1)
            if gain_t is not None:
                ugt[:b, :, 0] = (u @ gain_t).transpose(0, 2, 1)
            del u  # copied into ut; freed before the block is consumed
            for calls in steps[:b]:
                for ufunc, operands in calls:
                    ufunc(*operands)
            yield guarded(s0 + r0 + 1, w_hist[:b], e_hist[:b])
            np.copyto(w_last, w_hist[b - 1])  # the next block overwrites w_hist


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
        for row, w, e2, cur, delta, ok in _lockstep(*draw, n, (cell,), channel):
            bad = np.flatnonzero(~ok[:, 0, 0])
            stop = int(bad[0]) + 1 if bad.size else len(w)
            rows = slice(row, row + stop)
            nwd_curve[rows] = cur[:stop, 0, 0]
            np.abs(delta[:stop, :, 0, 0], out=abs_err[rows])
            sq_err[rows] = e2[:stop, 0, 0]
            if bad.size:
                div_iter = row + stop - 1
                break
    w_final = w[stop - 1, :, 0, 0].copy()
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
    abs_weight_error: np.ndarray
    mse: np.ndarray
    trials: int
    diverged: int
    diverged_mask: np.ndarray = field(repr=False, default=None)

    @property
    def nwd_db(self) -> np.ndarray:
        return nwd_db(self.nwd)

    def steady_state_nwd_db(self, fraction: float = 0.1) -> float:
        return float(nwd_db(steady_state_level(self.nwd, fraction)))


def _chunk_sums(draw, iterations: int, cells, channel: ChannelSpec, keep=None):
    """Per-cell curve sums over one chunk's trials, and its (C, T) mask of
    diverged (cell, trial) pairs.

    The sums are NWD (N+1, C), absolute weight error (N+1, C, K) and
    squared error (N+1, C; NaN at row 0). ``keep (C, T)`` leaves pairs out
    of the sums; without it, a cell with a diverged pair has sums that
    hold it, and the caller replays that cell with the pair left out. Once
    every cell has a diverged pair the blocks are no longer reduced, and
    the run stops early once every pair has diverged. Every block is
    reduced in the kernel's buffers, straight into the rows of the sums.
    """
    (t, k), n, c = draw[0].shape, int(iterations), len(cells)
    nwd_sum = np.zeros((n + 1, c))
    abs_sum = np.zeros((n + 1, c, k))
    sq_sum = np.zeros((n + 1, c))
    diverged = np.zeros((c, t), dtype=bool)
    drop = None if keep is None else ~keep
    with np.errstate(over="ignore", invalid="ignore"):
        for row, w, sq, cur, delta, ok in _lockstep(*draw, n, cells, channel):
            diverged |= ~ok.all(axis=0)
            if diverged.all():
                break
            if drop is None and diverged.any(axis=1).all():
                continue  # every cell will be replayed
            err = np.abs(delta, out=delta)
            if drop is not None:
                for part in (cur, err, sq):
                    np.copyto(part, 0.0, where=drop)
            rows = slice(row, row + len(w))
            cur.sum(axis=-1, out=nwd_sum[rows])
            np.einsum("bkct->bck", err, out=abs_sum[rows])
            sq.sum(axis=-1, out=sq_sum[rows])
    return (nwd_sum, abs_sum, sq_sum), diverged


def _simulate(cells, channel: ChannelSpec, master_seed: int, trials: int,
              iterations: int, random_init: bool):
    """Average every cell over ``trials`` trials on shared per-trial draws.

    Trial ``i`` is drawn from ``trial_seeds(master_seed, trials)[i]``; the
    seeds are built a chunk at a time, and a chunk's draws are dropped
    before the next chunk is drawn. The cells with a diverged pair in a
    chunk are replayed with those pairs left out, from the chunk's
    generators set back to their start states, and the replay's sums are
    added in place of theirs; the other cells keep the first pass's sums,
    whose bits the replay would repeat. The first chunk's sums are the
    totals (replayed cells zeroed) that later chunks add into column by
    column (``0.0 + x == x`` for these non-negative or NaN sums), and a
    chunk's first-pass sums are dropped before its replay, so at most two
    sets of sums are alive. Each cell's averages are divided in place, so
    the returned curves are views of the totals. Returns the averaged
    curves in ``cells`` order and each trial's initial weight error
    ``h - w0`` (trials, K).
    """
    # the kernel stacks diagonal-gain cells ahead of matrix-gain ones
    order = sorted(range(len(cells)), key=lambda i: cells[i].algorithm == "whitened")
    stacked = [cells[i] for i in order]
    k, trials = channel.num_coefficients, int(trials)
    totals = None
    diverged = np.zeros((len(cells), trials), dtype=bool)
    initial_error = np.empty((trials, k))
    for start in range(0, trials, _CHUNK):
        stop = min(start + _CHUNK, trials)
        draw = _draw_chunk(_chunk_seeds(master_seed, start, stop), channel,
                           iterations, random_init)
        initial_error[start:stop] = draw[0] - draw[1]
        rngs = draw[2] + draw[3]
        starts = [rng.bit_generator.state for rng in rngs]
        sums, div = _chunk_sums(draw, iterations, stacked, channel)
        bad = div.any(axis=1)
        if totals is None:
            totals = sums
            for total in totals:
                total[:, bad] = 0.0
        else:
            # column by column, so that no temporary copy is made
            for j in np.flatnonzero(~bad):
                for total, part in zip(totals, sums):
                    total[:, j] += part[:, j]
        del sums  # so that the replay's sums are the only other copy
        if bad.any():
            for rng, state in zip(rngs, starts):
                rng.bit_generator.state = state
            replayed = np.flatnonzero(bad)
            replay, _ = _chunk_sums(draw, iterations, [stacked[j] for j in replayed],
                                    channel, keep=~div[replayed])
            for i, j in enumerate(replayed):
                for total, part in zip(totals, replay):
                    total[:, j] += part[:, i]
            del replay
        diverged[:, start:stop] = div
        del draw, rngs, starts

    curves = []
    for i, cell in enumerate(cells):
        j = order.index(i)
        kept = trials - int(diverged[j].sum())
        if kept == 0:
            raise RuntimeError(
                f"all {trials} trials diverged (algorithm={cell.algorithm}, "
                f"q={cell.q_value}, snr={cell.snr_db} dB, mu={cell.step_size:.3e})"
            )
        nwd_mean, per_coef, mse = (total[:, j] for total in totals)
        for mean in (nwd_mean, per_coef, mse):
            mean /= kept
        curves.append(AveragedCurves(
            algorithm=cell.algorithm,
            q_value=cell.q_value,
            snr_db=cell.snr_db,
            step_size=cell.step_size,
            nwd=nwd_mean,
            mae=per_coef.mean(axis=1),
            abs_weight_error=per_coef,
            mse=mse,
            trials=trials,
            diverged=trials - kept,
            diverged_mask=diverged[j],
        ))
    return curves, initial_error


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
    curves, initial_error = _simulate(cells, channel, master_seed, trials,
                                      iterations, True)

    comparisons = []
    for cell, a_matrix in zip(curves, update_matrices):
        # the mean recursion from each kept trial's initial error, averaged
        # as the simulated absolute weight error is
        steps = _mean_recursion(initial_error[~cell.diverged_mask],
                                cell.step_size, a_matrix, iterations)
        theory = np.fromiter((np.abs(cur).mean() for cur in steps), float,
                             count=iterations + 1)
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
