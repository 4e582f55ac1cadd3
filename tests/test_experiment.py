import copy
import math
import sys
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qvlms import cli, experiment, seeding, theory
from qvlms.adapt import (
    FilterState,
    QParams,
    matrix_gain_step,
    qvlms_step,
    step_size_bound,
    vlms_step,
)
from qvlms.experiment import (
    ALGORITHMS,
    ChannelSpec,
    ExperimentConfig,
    correlation_coefficient,
    monte_carlo,
    noise_variance_for_snr,
    nwd,
    nwd_db,
    protocol1,
    protocol2,
    run_trial,
    steady_state_level,
    trial_seeds,
    whitened_gain,
)
from qvlms.theory import build_update_matrix
from qvlms.volterra import (
    RegressorMode,
    VolterraKernel,
    expand_regressor,
    num_coefficients,
    scaling_diag,
)


def _noise_seed(seed):
    """The first child that numpy's ``spawn`` gives a fresh copy of the
    trial seed ``seed`` (an int or a ``SeedSequence``)."""
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    return copy.deepcopy(seed).spawn(1)[0]


def _draw_trial(seed, channel, iterations, random_init):
    """Oracle of the draw order: h, w0 and the whole input stream x
    (N+M-1) from one generator of ``seed``, and the whole unit noise stream
    z (N) from one generator of its first child."""
    rng = np.random.default_rng(seed)
    k = channel.num_coefficients
    if channel.kernel is None:
        v = rng.standard_normal(k)
        h = v / np.linalg.norm(v)
    else:
        h = channel.kernel.flat()
    w0 = rng.standard_normal(k) / np.sqrt(k) if random_init else np.zeros(k)
    x = rng.standard_normal(iterations + channel.memory_length - 1)
    z = np.random.default_rng(_noise_seed(seed)).standard_normal(iterations)
    return h, w0, x, z


def _dot(u, h):
    """``h . u`` added left to right, the order of the kernel and of
    ``adapt.predict``."""
    return float(np.add.accumulate(u * h)[-1])


def _left_to_right(terms):
    """The sum of ``terms`` added left to right in Python floats, from the
    first term (so a lone -0.0 stays -0.0)."""
    total = terms[0]
    for term in terms[1:]:
        total += term
    return total


def _error_trial(seed, channel, iterations, random_init, mu, g, gain=None):
    """Oracle of the kernel's arithmetic, one scalar step at a time in
    Python floats on the weight error ``delta = h - w``: delta starts at
    ``h - w0``, each step forms ``e = (u_1 delta_1 + ... + u_K delta_K) +
    z sigma``, added left to right, and takes ``delta_k <- delta_k -
    (g (mu e)) v_k`` along ``v = u``, or ``v = gain @ u`` for a matrix
    gain. Returns the channel, the last delta and the curves of
    ``TrialCurves`` over rows 0 .. N: the NWD (the squares of delta added
    left to right, over ``(h * h).sum()``), ``|delta|`` and ``e^2``, NaN
    at row 0."""
    h, w0, x, z = _draw_trial(seed, channel, iterations, random_init)
    m = channel.memory_length
    sigma = math.sqrt(channel.noise_variance(h))
    hh = float((h * h).sum())
    delta = (h - w0).tolist()
    nwds, errs, squares = [], [], [math.nan]
    for r in range(iterations + 1):
        nwds.append(_left_to_right([d * d for d in delta]) / hh)
        errs.append([abs(d) for d in delta])
        if r == iterations:
            break
        u = expand_regressor(x[r:r + m][::-1], channel.regressor_mode)
        v = (u if gain is None else gain @ u).tolist()
        e = _left_to_right([a * d for a, d in zip(u.tolist(), delta)]) \
            + float(z[r]) * sigma
        squares.append(e * e)
        s = g * (mu * e)
        delta = [d - s * vk for d, vk in zip(delta, v)]
    return h, np.array(delta), np.array(nwds), np.array(errs), np.array(squares)


def _assert_error_oracle(curves, oracle):
    """``curves`` has the bits of ``_error_trial``'s: its NWD, absolute
    weight error and squared error curves over the oracle's rows, NaN past
    them (a diverged trial's oracle stops at its divergence), and final
    weights ``h - delta``."""
    h, delta, nwds, errs, squares = oracle
    rows = len(nwds)
    for got, want in ((curves.nwd, nwds), (curves.abs_weight_error, errs),
                      (curves.squared_error, squares)):
        assert got[:rows].tobytes() == want.tobytes()
        assert np.isnan(got[rows:]).all()
    assert curves.final_weights.tobytes() == (h - delta).tobytes()


def small_config(**kwargs):
    defaults = dict(iterations=100, trials=4, master_seed=7, step_size=0.01,
                    q_values=(5.0,), snr_db_values=(20.0,))
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


class TestNwd:
    def test_exact_match_is_zero(self):
        h = np.array([1.0, 2.0, -1.0])
        assert nwd(h, h) == 0.0

    def test_zero_weights_give_one(self):
        h = np.array([3.0, 4.0])
        assert nwd(h, np.zeros(2)) == 1.0

    def test_orthogonal_unit_vectors(self):
        assert nwd(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 2.0

    def test_zero_channel_rejected(self):
        with pytest.raises(ValueError):
            nwd(np.zeros(3), np.ones(3))

    @given(scale=st.floats(min_value=0.1, max_value=100.0))
    def test_scale_invariance(self, scale):
        h = np.array([1.0, -2.0, 3.0])
        w = np.array([0.5, 0.5, 0.5])
        assert np.isclose(nwd(scale * h, scale * w), nwd(h, w), rtol=1e-12)

    def test_db_convention(self):
        assert np.isclose(nwd_db(0.01), -20.0)
        assert nwd_db(0.0) == -np.inf


class TestCorrelation:
    def test_self_correlation_is_one(self):
        a = np.array([1.0, 2.0, 5.0, 3.0])
        assert correlation_coefficient(a, a) == 1.0

    def test_negated_affine_is_minus_one(self):
        a = np.array([1.0, 2.0, 5.0, 3.0])
        assert np.isclose(correlation_coefficient(a, -a + 4.0), -1.0)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(12)
        a = rng.standard_normal(200)
        b = rng.standard_normal(200)
        ac, bc = a - a.mean(), b - b.mean()
        oracle = (ac * bc).sum() / math.sqrt((ac**2).sum() * (bc**2).sum())
        assert np.isclose(correlation_coefficient(a, b), oracle, rtol=1e-12)

    def test_constant_curve_rejected(self):
        with pytest.raises(ValueError):
            correlation_coefficient(np.ones(5), np.arange(5.0))


class TestChannelSpec:
    def test_noise_variance_from_snr(self):
        assert np.isclose(noise_variance_for_snr(1.0, 20.0), 1e-2)
        assert noise_variance_for_snr(2.5, math.inf) == 0.0

    def test_signal_power_uses_mode_autocorrelation(self):
        h = np.zeros(9)
        h[0] = 1.0  # single linear tap: unit power in both modes
        for mode in RegressorMode:
            spec = ChannelSpec(regressor_mode=mode)
            assert np.isclose(spec.signal_power(h), 1.0)

    def test_empirical_snr_calibration_within_tenth_db(self):
        # noise scaled from h' R h must realize the configured SNR
        rng = np.random.default_rng(77)
        spec = ChannelSpec(snr_db=20.0, regressor_mode=RegressorMode.RAW)
        v = rng.standard_normal(9)
        h = v / np.linalg.norm(v)
        samples = 1_000_000
        windows = rng.standard_normal((samples, 3))
        iu, ju = np.triu_indices(3)
        u = np.concatenate([windows, windows[:, iu] * windows[:, ju]], axis=1)
        d_clean = u @ h
        sigma2 = spec.noise_variance(h)
        eta = rng.standard_normal(samples) * np.sqrt(sigma2)
        snr_hat = 10.0 * np.log10((d_clean**2).mean() / (eta**2).mean())
        assert abs(snr_hat - 20.0) < 0.2

    @pytest.mark.parametrize("mode", list(RegressorMode))
    @pytest.mark.parametrize("m", [3, 8, 14])
    def test_signal_power_of_a_stack_is_each_channel_alone(self, m, mode):
        # oracle: the whole (T, K, K) product, summed along its last axis
        spec = ChannelSpec(memory_length=m, regressor_mode=mode)
        h = np.random.default_rng(m).standard_normal((37, spec.num_coefficients))
        r = spec.autocorrelation()
        oracle = ((h[:, None, :] * r).sum(axis=-1) * h).sum(axis=-1)
        stack = spec.signal_power(h)
        assert stack.tobytes() == oracle.tobytes()
        alone = np.array([spec.signal_power(row) for row in h])
        assert alone.tobytes() == stack.tobytes()

    def test_kernel_memory_consistency_enforced(self):
        kernel = VolterraKernel.from_flat(np.ones(5))
        with pytest.raises(ValueError):
            ChannelSpec(memory_length=3, kernel=kernel)


class TestRunTrial:
    def test_same_seed_bit_identical(self):
        cfg = small_config()
        spec = ChannelSpec()
        a = run_trial(cfg, spec, 42)
        b = run_trial(cfg, spec, 42)
        assert np.array_equal(a.nwd, b.nwd)
        assert np.array_equal(a.abs_weight_error, b.abs_weight_error)
        assert np.array_equal(a.final_weights, b.final_weights)

    def test_different_seeds_differ(self):
        cfg = small_config()
        spec = ChannelSpec()
        a = run_trial(cfg, spec, 1)
        b = run_trial(cfg, spec, 2)
        assert not np.array_equal(a.final_weights, b.final_weights)

    def test_q1_trial_equals_vlms_trial(self):
        cfg = small_config(q_values=(1.0,))
        spec = ChannelSpec()
        a = run_trial(cfg, spec, 5, algorithm="qvlms", q_value=1.0)
        b = run_trial(cfg, spec, 5, algorithm="vlms")
        assert np.array_equal(a.nwd, b.nwd)
        assert np.array_equal(a.final_weights, b.final_weights)

    def test_noiseless_trial_reaches_fixed_point(self):
        cfg = small_config(iterations=2500, step_size=0.01)
        spec = ChannelSpec(snr_db=math.inf)
        curves = run_trial(cfg, spec, 3)
        assert not curves.diverged
        assert curves.nwd[-1] < 1e-6

    def test_noiseless_trial_is_not_limited_by_cancellation(self):
        # the kernel steps the weight error itself, so no a priori error is
        # the difference of h . u and w . u, whose rounding stalled the
        # weight form at NWD 4.7e-33 here
        cfg = small_config(iterations=2500, step_size=0.01)
        curves = run_trial(cfg, ChannelSpec(snr_db=math.inf), 3)
        assert not curves.diverged
        assert curves.nwd[-1] < 1e-38

    def test_matches_stepwise_reference(self):
        # the vectorized kernel has the bits of the scalar weight-error
        # recursion, and the public weight steps agree to rounding
        cfg = small_config(iterations=300, step_size=0.02, q_values=(5.0,))
        spec = ChannelSpec(snr_db=25.0, regressor_mode=RegressorMode.ORTHONORMALIZED)
        seed = 11
        curves = run_trial(cfg, spec, seed)
        qp = QParams.uniform(5.0, 9)
        _assert_error_oracle(curves, _error_trial(
            seed, spec, cfg.iterations, cfg.random_init, cfg.step_size, qp.g[0]))

        h, w0, x, z = _draw_trial(seed, spec, cfg.iterations, cfg.random_init)
        sigma = math.sqrt(spec.noise_variance(h))
        state = FilterState(w0, cfg.step_size)
        for r in range(cfg.iterations):
            window = x[r:r + 3][::-1]
            u = expand_regressor(window, spec.regressor_mode)
            desired = _dot(u, h) + z[r] * sigma
            state, _ = qvlms_step(state, u, desired, qp)
            assert np.isclose(curves.nwd[r + 1], nwd(h, state.weights),
                              rtol=1e-10, atol=0)
        assert np.allclose(state.weights, curves.final_weights, rtol=1e-10)

    @pytest.mark.parametrize("iterations", [300, 301])
    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("mode", list(RegressorMode))
    @pytest.mark.parametrize("m", [3, 8])
    def test_last_nwd_is_nwd_of_final_weights(self, m, mode, seed, iterations):
        # the kernel's NWD adds the squares of its weight error as the
        # public nwd adds those of h - w, bit for bit; the public nwd of the
        # final weights h - delta differs by the rounding of h - w only
        cfg = small_config(iterations=iterations, step_size=None,
                           step_size_fraction=0.05)
        spec = ChannelSpec(memory_length=m, regressor_mode=mode)
        curves = run_trial(cfg, spec, seed)
        assert not curves.diverged
        cell = experiment._config_cell(cfg, spec, "qvlms", 5.0, spec.snr_db)
        _assert_error_oracle(curves, _error_trial(
            seed, spec, iterations, cfg.random_init, cell.step_size,
            QParams.uniform(5.0, 1).g[0]))
        assert np.isclose(nwd(curves.channel, curves.final_weights),
                          curves.nwd[-1], rtol=1e-10, atol=0)

    @pytest.mark.parametrize("algorithm, m, mode, snr_db, fraction, "
                             "iterations, divergence", [
        *[pytest.param(algorithm, m, None, 20.0, 0.05, 600, None,
                       id=f"{algorithm}-{m}-20.0")
          for algorithm in ("qvlms", "vlms", "whitened") for m in (1, 3, 5, 8)],
        pytest.param("qvlms", 3, None, math.inf, 0.05, 600, None,
                     id="qvlms-3-inf"),
        pytest.param("qvlms", 3, None, 20.0, 0.8, 600, 329,
                     id="qvlms-3-20.0-diverging"),
        # the segment edges, with no carried product (M = 1) and many
        *[pytest.param(algorithm, m, mode, 20.0, 0.05, n, None,
                       id=f"{algorithm}-{m}-{mode.value}-{n}")
          for algorithm in ("qvlms", "vlms", "whitened") for m in (1, 8)
          for mode in RegressorMode for n in (511, 512, 513, 1025)
          if algorithm != "whitened" or mode is RegressorMode.ORTHONORMALIZED],
        pytest.param("qvlms", 3, None, 20.0, 0.7, 1025, 940,
                     id="qvlms-3-20.0-diverging-in-segment-2"),
    ])
    def test_trial_has_the_bits_of_the_scalar_recursion(
            self, algorithm, m, mode, snr_db, fraction, iterations, divergence):
        # a trial steps a 512-step segment at a time, forming its regressors
        # as it goes; at no noise, sigma z = 0.0 is added last. The whitened
        # cells run in the orthonormalized mode, whose gain is diagonal: in
        # the raw one BLAS may order the sums of (S R^-1 S) u otherwise than
        # the kernel does. The trial is also the first of a 2-trial chunk,
        # whose slabs step it on numpy calls, up to its last row
        if mode is None:
            mode = (RegressorMode.ORTHONORMALIZED if algorithm == "whitened"
                    else RegressorMode.RAW)
        cfg = small_config(iterations=iterations, step_size=None,
                           step_size_fraction=fraction)
        spec = ChannelSpec(memory_length=m, snr_db=snr_db, regressor_mode=mode)
        seed = 29 + m
        curves = run_trial(cfg, spec, seed, algorithm)
        assert curves.divergence_iteration == divergence
        cell = experiment._config_cell(cfg, spec, algorithm, 5.0, snr_db)
        _assert_error_oracle(curves, _error_trial(
            seed, spec, divergence or cfg.iterations,
            cfg.random_init, cell.step_size,
            QParams.uniform(5.0, 1).g[0] if algorithm == "qvlms" else 1.0,
            whitened_gain(spec) if algorithm == "whitened" else None))
        # each row's NWD, squared error and |delta| in the chunk
        chunk = np.empty((iterations + 1, 2 + spec.num_coefficients))
        draw = experiment._draw_chunk([seed, seed + 1], spec, cfg.random_init)
        with np.errstate(over="ignore", invalid="ignore"):
            for row, e2, cur, delta, ok in experiment._lockstep(
                    *draw, iterations, [cell], spec):
                part = chunk[row:row + len(ok)]
                part[:, 0], part[:, 1] = cur[:, 0, 0], e2[:, 0, 0]
                part[:, 2:] = np.abs(delta[:, :, 0, 0])
        rows = (divergence or iterations) + 1
        for got, want in ((chunk[:rows, 0], curves.nwd[:rows]),
                          (chunk[:rows, 1], curves.squared_error[:rows]),
                          (chunk[:rows, 2:], curves.abs_weight_error[:rows])):
            assert got.tobytes() == want.tobytes()

    def test_int_seed_is_its_seed_sequence(self):
        cfg = small_config(iterations=150)
        spec = ChannelSpec()
        a = run_trial(cfg, spec, 11)
        b = run_trial(cfg, spec, np.random.SeedSequence(11))
        _same_arrays(a, b, ("nwd", "abs_weight_error", "squared_error",
                            "final_weights", "channel", "initial_weights"))
        assert (a.diverged, a.divergence_iteration) == \
            (b.diverged, b.divergence_iteration)

    @pytest.mark.parametrize("mode", list(RegressorMode))
    @pytest.mark.parametrize("algorithm", ["qvlms", "vlms"])
    @pytest.mark.parametrize("m", [*range(1, 9), 15])
    def test_zero_init_final_weights_match_scalar_steps(self, m, algorithm,
                                                       mode):
        # the kernel adds the products u . delta in the scalar order for
        # every K = 2 .. 44 and 135; 65 iterations end on a block of one
        # step, whose sum is a running sum
        spec = ChannelSpec(memory_length=m, snr_db=20.0, regressor_mode=mode)
        seed = 100 + m
        for iterations in (65, 80):
            cfg = small_config(iterations=iterations, step_size=None,
                               step_size_fraction=0.05, random_init=False)
            curves = run_trial(cfg, spec, seed, algorithm=algorithm)
            assert not curves.diverged

            h, w0, x, z = _draw_trial(seed, spec, iterations, cfg.random_init)
            assert not w0.any()
            sigma = math.sqrt(spec.noise_variance(h))
            q = cfg.q_values[0] if algorithm == "qvlms" else 1.0
            cell = experiment._config_cell(cfg, spec, algorithm, q, spec.snr_db)
            qp = QParams.uniform(q, spec.num_coefficients)
            _assert_error_oracle(curves, _error_trial(
                seed, spec, iterations, cfg.random_init, cell.step_size,
                qp.g[0]))
            state = FilterState(w0, cell.step_size)
            for r in range(iterations):
                u = expand_regressor(x[r:r + m][::-1], mode)
                desired = _dot(u, h) + z[r] * sigma
                state, _ = (qvlms_step(state, u, desired, qp)
                            if algorithm == "qvlms" else vlms_step(state, u, desired))
            assert np.allclose(state.weights, curves.final_weights, rtol=1e-10)

    def test_whitened_trial_matches_matrix_gain_reference(self):
        cfg = small_config(iterations=200, step_size=0.01)
        spec = ChannelSpec(snr_db=30.0)
        seed = 19
        curves = run_trial(cfg, spec, seed, algorithm="whitened")

        gain = whitened_gain(spec)
        h, w0, x, z = _draw_trial(seed, spec, cfg.iterations, cfg.random_init)
        sigma = math.sqrt(spec.noise_variance(h))
        state = FilterState(w0, cfg.step_size)
        for r in range(cfg.iterations):
            u = expand_regressor(x[r:r + 3][::-1], spec.regressor_mode)
            desired = _dot(u, h) + z[r] * sigma
            state, _ = matrix_gain_step(state, u, desired, gain)
        assert np.allclose(state.weights, curves.final_weights, rtol=1e-10)

    def test_fixed_kernel_used_verbatim(self):
        flat = np.zeros(9)
        flat[0] = 1.0
        kernel = VolterraKernel.from_flat(flat)
        cfg = small_config()
        spec = ChannelSpec(kernel=kernel)
        curves = run_trial(cfg, spec, 2)
        assert np.array_equal(curves.channel, flat)

    def test_divergence_guard_marks_and_freezes(self):
        # absurd step size forces divergence; curve is NaN past the trigger
        cfg = small_config(iterations=200, step_size=5.0, trials=1)
        spec = ChannelSpec()
        curves = run_trial(cfg, spec, 0)
        assert curves.diverged
        it = curves.divergence_iteration
        assert it is not None and 1 <= it <= 200
        assert np.all(np.isfinite(curves.nwd[:it + 1]))
        if it < 200:
            assert np.all(np.isnan(curves.nwd[it + 1:]))


class TestMonteCarlo:
    @pytest.mark.parametrize("memory_length", [1, 3, 8])
    @pytest.mark.parametrize("mode", list(RegressorMode))
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_single_trial_equals_run_trial(self, algorithm, mode, memory_length):
        # a one-cell, one-trial chunk takes the kernel's one-value path, as
        # run_trial does, over a whole segment and a short one; row 0 of
        # both MSE curves is NaN
        cfg = small_config(iterations=600, trials=1, algorithms=(algorithm,))
        spec = ChannelSpec(memory_length=memory_length, regressor_mode=mode)
        cell = monte_carlo(cfg, spec)[0]
        trial = run_trial(cfg, spec, trial_seeds(cfg.master_seed, 1)[0],
                          algorithm=algorithm, q_value=cell.q_value)
        assert np.array_equal(cell.nwd, trial.nwd)
        assert np.array_equal(cell.mae, trial.mae)
        assert np.array_equal(cell.mse, trial.squared_error, equal_nan=True)
        assert np.isnan(cell.mse[0])

    def test_average_of_identical_trials_is_that_trial(self):
        # a fixed kernel with zero-init weights and no noise makes every
        # trial identical apart from the input stream; use 1 trial twice
        cfg = small_config(trials=2, master_seed=3)
        spec = ChannelSpec()
        cells = monte_carlo(cfg, spec)
        t0 = run_trial(cfg, spec, trial_seeds(3, 2)[0])
        t1 = run_trial(cfg, spec, trial_seeds(3, 2)[1])
        assert np.allclose(cells[0].nwd, (t0.nwd + t1.nwd) / 2.0, rtol=1e-12)

    def test_grid_covers_algorithms_q_and_snr(self):
        cfg = small_config(trials=2, algorithms=("vlms", "qvlms"),
                           q_values=(2.0, 5.0), snr_db_values=(10.0, 20.0))
        cells = monte_carlo(cfg, ChannelSpec())
        labels = {(c.algorithm, c.q_value, c.snr_db) for c in cells}
        assert labels == {
            ("vlms", None, 10.0), ("qvlms", 2.0, 10.0), ("qvlms", 5.0, 10.0),
            ("vlms", None, 20.0), ("qvlms", 2.0, 20.0), ("qvlms", 5.0, 20.0),
        }

    def test_mean_nwd_trend_decreases_below_bound(self):
        # means over 50-iteration windows trend downward (small floor
        # wobble tolerated once converged)
        cfg = small_config(iterations=1000, trials=200, step_size=0.005,
                           q_values=(2.0,), master_seed=11)
        cell = monte_carlo(cfg, ChannelSpec())[0]
        blocks = cell.nwd[1:].reshape(20, 50).mean(axis=1)
        running_min = np.minimum.accumulate(blocks)
        assert np.all(blocks <= 1.3 * np.concatenate([[blocks[0]], running_min[:-1]]))
        assert blocks[-1] < 0.1 * blocks[0]

    def test_all_diverged_raises(self):
        cfg = small_config(iterations=300, trials=3, step_size=5.0)
        with pytest.raises(RuntimeError):
            monte_carlo(cfg, ChannelSpec())

    def test_seed_independence_across_trials(self):
        # consecutive trials' channels are uncorrelated per coefficient
        seeds = trial_seeds(123, 1000)
        spec = ChannelSpec()
        draws = np.empty((1000, 9))
        for i, seed in enumerate(seeds):
            rng = np.random.default_rng(seed)
            v = rng.standard_normal(9)
            draws[i] = v / np.linalg.norm(v)
        for k in range(9):
            rho = correlation_coefficient(draws[:-1, k], draws[1:, k])
            assert abs(rho) < 0.1

    def test_deterministic_rerun(self):
        cfg = small_config(trials=3)
        spec = ChannelSpec()
        a = monte_carlo(cfg, spec)[0]
        b = monte_carlo(cfg, spec)[0]
        assert np.array_equal(a.nwd, b.nwd)
        assert np.array_equal(a.mae, b.mae)


def _mean_of_trials(config, spec, cell, keep=None):
    """Per-seed ``run_trial`` curves of one cell, averaged over ``keep``."""
    trials = [run_trial(config, replace(spec, snr_db=cell.snr_db), seed,
                        algorithm=cell.algorithm, q_value=cell.q_value)
              for seed in trial_seeds(config.master_seed, config.trials)]
    keep = np.ones(len(trials), dtype=bool) if keep is None else keep
    kept = [t for t, k in zip(trials, keep) if k]
    return trials, {
        "nwd": np.mean([t.nwd for t in kept], axis=0),
        "mae": np.mean([t.mae for t in kept], axis=0),
        "mse": np.mean([t.squared_error for t in kept], axis=0),
    }


class TestStreamingKernel:
    """``monte_carlo`` against per-seed ``run_trial`` curves, with small
    trial chunks and step blocks so that several of each (and a partial
    last block) are crossed."""

    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        monkeypatch.setattr(experiment, "_CHUNK", 16)
        monkeypatch.setattr(experiment, "_BLOCK", 7)

    def test_cells_equal_mean_of_run_trial_curves(self):
        cfg = small_config(iterations=60, trials=40, master_seed=21,
                           step_size=0.01, q_values=(2.0, 5.0),
                           snr_db_values=(10.0, 30.0),
                           algorithms=("vlms", "qvlms", "whitened"))
        spec = ChannelSpec()
        cells = monte_carlo(cfg, spec)
        assert len(cells) == 8
        for cell in cells:
            assert cell.diverged == 0
            _, mean = _mean_of_trials(cfg, spec, cell)
            for name in ("nwd", "mae", "mse"):
                np.testing.assert_allclose(getattr(cell, name), mean[name],
                                           rtol=1e-12, atol=0, err_msg=name)

    def test_wide_kernel_with_whitened_matches_run_trial(self):
        # K = 20: the (B, K, C, T) blocks cross chunk and block edges with
        # both stacks present
        cfg = small_config(iterations=30, trials=20, master_seed=8,
                           step_size=None, step_size_fraction=0.2,
                           q_values=(3.0,), snr_db_values=(15.0,),
                           algorithms=("whitened", "qvlms", "vlms"))
        spec = ChannelSpec(memory_length=5)
        cells = monte_carlo(cfg, spec)
        assert [c.algorithm for c in cells] == ["whitened", "qvlms", "vlms"]
        for cell in cells:
            assert cell.diverged == 0
            assert cell.mae.shape == (31,)
            _, mean = _mean_of_trials(cfg, spec, cell)
            for name in ("nwd", "mae", "mse"):
                np.testing.assert_allclose(getattr(cell, name), mean[name],
                                           rtol=1e-12, atol=0, err_msg=name)

    def test_replay_of_one_cell_in_every_chunk_matches_run_trial(self):
        # every chunk replays the q = 5 cell, while the others' first-pass
        # sums go straight into the totals
        cfg = small_config(iterations=150, trials=40, master_seed=4,
                           step_size=0.03, q_values=(2.0, 5.0),
                           algorithms=("whitened", "qvlms", "vlms"))
        spec = ChannelSpec()
        cells = monte_carlo(cfg, spec)
        mask = cells[2].diverged_mask
        assert [c.diverged for c in cells] == [0, 0, 9, 0]
        assert all(mask[i:i + 16].any() for i in range(0, 40, 16))
        clean = monte_carlo(replace(cfg, q_values=(2.0,)), spec)
        for a, b in zip([cells[i] for i in (0, 1, 3)], clean, strict=True):
            _same_arrays(a, b, ("nwd", "mae", "mse"))
        for cell in cells:
            keep = ~cell.diverged_mask
            trials, mean = _mean_of_trials(cfg, spec, cell, keep)
            assert np.array_equal(cell.diverged_mask, [t.diverged for t in trials])
            for name in ("nwd", "mae", "mse"):
                np.testing.assert_allclose(getattr(cell, name), mean[name],
                                           rtol=1e-12, atol=0, err_msg=name)

    def test_partial_divergence_matches_run_trial(self):
        cfg = small_config(iterations=150, trials=40, master_seed=4,
                           step_size=0.1, q_values=(2.0,),
                           algorithms=("qvlms", "vlms", "whitened"))
        spec = ChannelSpec()
        cells = monte_carlo(cfg, spec)
        for cell in cells:
            assert 0 < cell.diverged < cfg.trials
            trials, mean = _mean_of_trials(cfg, spec, cell, ~cell.diverged_mask)
            assert np.array_equal(cell.diverged_mask,
                                  [t.diverged for t in trials])
            for name in ("nwd", "mae", "mse"):
                np.testing.assert_allclose(getattr(cell, name), mean[name],
                                           rtol=1e-12, atol=0, err_msg=name)


@pytest.mark.parametrize("n", range(1, 301))
def test_kernel_sums_add_left_to_right(n):
    # rows of mixed magnitude and sign, plus all-(-0.0), mixed-zero and
    # near-subnormal rows, summed as the kernel sums a step's products: as
    # slabs of several values by one reduce from -0.0, laid out one after
    # another as in the kernel's buffers, and as one value's row by running
    # sums over the row and then the noise. Both add t0 first, then t1, ...,
    # and the running sums' last, ``u . delta + sigma z``, has the bits of
    # ``sigma z + u . delta``
    rng = np.random.default_rng(n)
    rows = rng.standard_normal((6, n)) * 10.0 ** rng.integers(-8, 9, (6, n))
    rows[1] = -0.0
    rows[2, ::2] = -0.0
    rows[2, 1::2] = 0.0
    rows[3] = rng.standard_normal(n) * 1e-300
    expected = rows[:, 0].copy()
    for i in range(1, n):
        expected += rows[:, i]
    columns = np.ascontiguousarray(rows.T)
    sums = []
    for terms in (columns.reshape(n, 2, 3), columns.reshape(n, 1, 6)):
        out = np.full(terms.shape[1:], np.nan)
        np.add.reduce(terms, 0, None, out, False, -0.0)
        sums.append((out.ravel(), expected))
    noise = rng.standard_normal(6) * 10.0 ** rng.integers(-8, 9, 6)
    noise[1], noise[2] = 0.0, -0.0
    for i, z in [*enumerate(noise), (1, -0.0)]:
        out = np.full(n + 1, np.nan)
        np.add.accumulate(np.append(rows[i], z), 0, None, out)
        sums.append((out[-1:], z + expected[i:i + 1]))
    for got, want in sums:
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("mode", list(RegressorMode))
@pytest.mark.parametrize("m", [1, 2, 3, 8, 15])
def test_chunk_sum_matches_run_trial(m, mode):
    # run_trial, one value a slab, adds each prediction's running sums, a
    # chunk of trials reduces its slabs: both add left to right, for K = 2
    # up to 135. At K = 135, 0.05 of the mean bound is not mean-square
    # stable: one of these trials diverges in the orthonormalized mode
    cfg = small_config(iterations=150, step_size=None,
                       step_size_fraction=0.05 if m < 15 else 0.02,
                       q_values=(3.0,))
    spec = ChannelSpec(memory_length=m, regressor_mode=mode)
    cells = [experiment._config_cell(cfg, spec, algorithm, 3.0, spec.snr_db)
             for algorithm in ("qvlms", "vlms")]
    seeds = trial_seeds(m, 5)
    n, k, c, t = cfg.iterations, spec.num_coefficients, len(cells), len(seeds)
    nwd_rows, e2_rows = np.empty((n + 1, c, t)), np.empty((n + 1, c, t))
    err_rows = np.empty((n + 1, k, c, t))
    draw = experiment._draw_chunk(seeds, spec, cfg.random_init)
    h = draw[0]
    for row, e2, cur, delta, ok in experiment._lockstep(*draw, n, cells, spec):
        assert ok.all()
        rows = slice(row, row + len(ok))
        nwd_rows[rows], e2_rows[rows], err_rows[rows] = cur, e2, np.abs(delta)
    assert row + len(ok) == n + 1
    for i, cell in enumerate(cells):
        for j, seed in enumerate(seeds):
            trial = run_trial(cfg, spec, seed, cell.algorithm, 3.0)
            for got, expected in ((err_rows[:, :, i, j], trial.abs_weight_error),
                                  (e2_rows[:, i, j], trial.squared_error),
                                  (nwd_rows[:, i, j], trial.nwd),
                                  (h[j] - delta[-1, :, i, j], trial.final_weights)):
                assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("mode", list(RegressorMode))
def test_cells_run_in_any_order(mode):
    # whitened cells between and after diagonal-gain ones: every cell has
    # the bits of a pass of that cell alone on the same draws
    cfg = small_config(iterations=150, step_size=None, step_size_fraction=0.05,
                       q_values=(3.0,))
    spec = ChannelSpec(memory_length=3, regressor_mode=mode)
    cells = [experiment._config_cell(cfg, spec, algorithm, 3.0, snr)
             for algorithm, snr in (("qvlms", 20.0), ("whitened", 20.0),
                                    ("vlms", 20.0), ("whitened", 10.0))]
    seeds = trial_seeds(5, 4)
    n = cfg.iterations

    def run(cells):
        """The NWD, squared errors and |h - w| of every row, and the final
        weight error, each with the cells on its second-to-last axis."""
        draw = experiment._draw_chunk(seeds, spec, cfg.random_init)
        blocks = []
        for row, e2, cur, delta, ok in experiment._lockstep(*draw, n, cells,
                                                            spec):
            assert ok.all()
            blocks.append((cur.copy(), e2.copy(), np.abs(delta)))
        return ([np.concatenate(parts) for parts in zip(*blocks)]
                + [delta[-1].copy()])

    together = run(cells)
    assert len(together[0]) == n + 1
    for i, cell in enumerate(cells):
        for got, alone in zip(together, run([cell]), strict=True):
            assert np.take(got, [i], axis=-2).tobytes() == alone.tobytes()


@pytest.mark.parametrize("algorithms, trials", [
    (("qvlms",), 1), (("whitened",), 1), (("qvlms", "vlms", "whitened"), 4)])
def test_a_consumer_may_overwrite_every_yielded_array(algorithms, trials):
    # the next block steps from the kernel's own copy of the last row's
    # weight error: a consumer that writes over each block once it has
    # read it reads the bits of one that does not, diverged pairs included.
    # A trial alone steps 512-step segments: 1,100 steps are three
    cfg = small_config(iterations=1100, step_size=0.1, q_values=(2.0,))
    spec = ChannelSpec()
    cells = [experiment._config_cell(cfg, spec, algorithm, 2.0, spec.snr_db)
             for algorithm in algorithms]
    seeds = trial_seeds(4, 20)[7:7 + trials]

    def run(overwrite):
        draw = experiment._draw_chunk(seeds, spec, cfg.random_init)
        blocks = []
        with np.errstate(over="ignore", invalid="ignore"):
            for row, *arrays in experiment._lockstep(*draw, cfg.iterations,
                                                     cells, spec):
                blocks.append([row] + [a.tobytes() for a in arrays])
                if overwrite:
                    for a in arrays:  # e2, nwd, delta, ok
                        a[...] = np.nan if a.dtype.kind == "f" else ~a
        return blocks

    kept = run(False)
    assert len(kept) > 2
    assert not all(np.frombuffer(ok, bool).all() for *_, ok in kept)
    assert run(True) == kept


@pytest.mark.parametrize("mode", list(RegressorMode))
@pytest.mark.parametrize("m, iterations", [
    *[pytest.param(m, 600, id=str(m)) for m in (1, 2, 3, 8)],
    *[pytest.param(m, n, id=f"{m}-{n}") for m in (1, 8)
      for n in (511, 512, 513, 1025)],
])
@pytest.mark.parametrize("algorithms", [("qvlms", "vlms", "whitened"),
                                        ("whitened",)], ids=["mixed", "whitened"])
def test_chunk_matches_run_trial_across_segments(monkeypatch, m, iterations,
                                                 mode, algorithms):
    # the ring of quadratic products carries across blocks (of one step
    # too, fewer than M - 1) and segment boundaries, and out of the
    # pre-sample rows; with several cells every cell's update direction is
    # spread, with one it is the cell's own. A trial alone steps whole
    # 512-step segments: 511 to 1,025 steps end just before, on and just
    # past a segment's edge
    cfg = small_config(iterations=iterations, step_size=None,
                       step_size_fraction=0.05, q_values=(3.0,))
    spec = ChannelSpec(memory_length=m, regressor_mode=mode)
    cells = [experiment._config_cell(cfg, spec, algorithm, 3.0, spec.snr_db)
             for algorithm in algorithms]
    seeds = trial_seeds(10 + m, 3)
    n, k, c, t = cfg.iterations, spec.num_coefficients, len(cells), len(seeds)

    def chunk():
        """The NWD, squared error and |h - w| curves, and the final
        weights h - delta, each with the cells on its second-to-last axis."""
        curves = [np.empty((n + 1, c, t)), np.empty((n + 1, c, t)),
                  np.empty((n + 1, k, c, t))]
        draw = experiment._draw_chunk(seeds, spec, cfg.random_init)
        for row, e2, cur, delta, ok in experiment._lockstep(*draw, n, cells,
                                                            spec):
            assert ok.all()
            for curve, part in zip(curves, (cur, e2, np.abs(delta))):
                curve[row:row + len(ok)] = part
        return curves + [draw[0].T[:, None] - delta[-1]]

    default = chunk()
    monkeypatch.setattr(experiment, "_BLOCK_BYTES", 1)
    for a, b in zip(default, chunk(), strict=True):
        assert a.tobytes() == b.tobytes()
    monkeypatch.undo()
    for i, cell in enumerate(cells):
        for j, seed in enumerate(seeds):
            trial = run_trial(cfg, spec, seed, cell.algorithm, 3.0)
            for got, expected in ((default[0][:, i, j], trial.nwd),
                                  (default[1][:, i, j], trial.squared_error),
                                  (default[2][:, :, i, j], trial.abs_weight_error),
                                  (default[3][:, i, j], trial.final_weights)):
                if cell.algorithm == "whitened" and mode is RegressorMode.RAW:
                    # BLAS orders S R^-1 S u, a full matrix here, one way
                    # for one trial and another for several; a small
                    # squared error keeps the absolute error of e
                    np.testing.assert_allclose(got, expected, rtol=1e-10,
                                               atol=1e-15)
                else:
                    assert got.tobytes() == expected.tobytes()


class TestWhitenedGain:
    @pytest.mark.parametrize("mode", list(RegressorMode))
    def test_cached_gain_is_read_only_and_equals_fresh_build(self, mode):
        spec = ChannelSpec(memory_length=4, regressor_mode=mode)
        gain = whitened_gain(spec)
        assert whitened_gain(ChannelSpec(memory_length=4, regressor_mode=mode)) is gain
        assert not gain.flags.writeable
        with pytest.raises(ValueError):
            gain[0, 0] = 1.0
        s = scaling_diag(4)
        fresh = s[:, None] * np.linalg.inv(spec.autocorrelation()) * s[None, :]
        assert np.array_equal(gain, fresh)
        assert gain.shape == (num_coefficients(4),) * 2


def test_monte_carlo_memory_is_below_per_trial_curve_size():
    # the kernel streams its curves: one call must stay below the size of
    # the (trials, N+1, K) weight-error array that a per-trial kernel
    # would hold for a single chunk
    cfg = small_config(iterations=1000, trials=256, step_size=0.005)
    spec = ChannelSpec()
    per_trial_bytes = cfg.trials * (cfg.iterations + 1) * spec.num_coefficients * 8
    tracemalloc.start()
    try:
        monte_carlo(cfg, spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < per_trial_bytes


def test_monte_carlo_working_set_holds_cache_sized_blocks():
    # 12 protocol-2 cells x 256 trials: 16 steps of weight history would be
    # 3.5 MB, and the block reductions would allocate several times that
    cfg = small_config(iterations=200, trials=256, step_size=1e-3,
                       q_values=(2.0, 5.0, 10.0), snr_db_values=(10.0, 20.0, 30.0),
                       algorithms=("vlms", "qvlms"))
    tracemalloc.start()
    try:
        cells = monte_carlo(cfg, ChannelSpec())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(cells) == 12
    assert peak < 8 * 2**20


def _same_arrays(a, b, names):
    for name in names:
        x, y = getattr(a, name), getattr(b, name)
        assert x.shape == y.shape and x.tobytes() == y.tobytes(), name


class TestBlockLength:
    """Block length changes no bit: blocks of one step against the
    default, across divergence and both gain stacks."""

    def test_monte_carlo_is_block_length_invariant(self, monkeypatch):
        cfg = small_config(iterations=150, trials=40, master_seed=4,
                           step_size=0.1, q_values=(2.0,),
                           algorithms=("qvlms", "vlms", "whitened"))
        spec = ChannelSpec()
        default = monte_carlo(cfg, spec)
        monkeypatch.setattr(experiment, "_BLOCK_BYTES", 1)
        one_step = monte_carlo(cfg, spec)
        for a, b in zip(default, one_step):
            assert 0 < a.diverged < cfg.trials
            assert a.diverged == b.diverged
            _same_arrays(a, b, ("nwd", "mae", "mse", "diverged_mask"))

    @pytest.mark.parametrize("algorithm", ["qvlms", "vlms", "whitened"])
    def test_run_trial_is_block_length_invariant(self, monkeypatch, algorithm):
        cfg = small_config(iterations=150, step_size=0.1, q_values=(2.0,))
        spec = ChannelSpec()
        seeds = trial_seeds(4, 20)[5:]  # each algorithm diverges on some
        default = [run_trial(cfg, spec, s, algorithm) for s in seeds]
        assert 0 < sum(t.diverged for t in default) < len(seeds)
        monkeypatch.setattr(experiment, "_BLOCK_BYTES", 1)
        for a, seed in zip(default, seeds):
            b = run_trial(cfg, spec, seed, algorithm)
            assert (a.diverged, a.divergence_iteration) == \
                (b.diverged, b.divergence_iteration)
            _same_arrays(a, b, ("nwd", "abs_weight_error", "squared_error",
                                "final_weights"))

    @pytest.mark.parametrize("algorithm", ["qvlms", "vlms", "whitened"])
    def test_run_trial_runs_the_kernel_once(self, monkeypatch, algorithm):
        # a diverged trial's weights come from the block that diverged, not
        # from a second run up to its divergence
        cfg = small_config(iterations=150, step_size=0.1, q_values=(2.0,))
        seeds = trial_seeds(4, 20)[5:]
        calls = _spy_lockstep(monkeypatch)
        trials = [run_trial(cfg, ChannelSpec(), s, algorithm) for s in seeds]
        assert 0 < sum(t.diverged for t in trials) < len(seeds)
        assert len(calls) == len(seeds)

    @pytest.mark.parametrize("algorithm", ["qvlms", "vlms", "whitened"])
    def test_diverged_trial_final_weights_match_scalar_steps(self, algorithm):
        # run_trial reads a diverged trial's weights at its divergence
        # iteration from the kernel's block: those of the scalar
        # weight-error recursion, bit for bit with a diagonal gain, and of
        # the public weight steps to rounding
        cfg = small_config(iterations=150, step_size=0.1, q_values=(2.0,))
        spec = ChannelSpec()
        diverged = [(seed, t) for seed in trial_seeds(4, 20)[5:]
                    if (t := run_trial(cfg, spec, seed, algorithm)).diverged]
        assert diverged
        gain = whitened_gain(spec)
        qp = QParams.uniform(2.0, 9)
        for seed, curves in diverged:
            if algorithm != "whitened":
                with np.errstate(over="ignore", invalid="ignore"):
                    h, delta, *_ = _error_trial(
                        seed, spec, curves.divergence_iteration,
                        cfg.random_init, cfg.step_size,
                        qp.g[0] if algorithm == "qvlms" else 1.0)
                assert curves.final_weights.tobytes() == (h - delta).tobytes()
            h, w0, x, z = _draw_trial(seed, spec, cfg.iterations, cfg.random_init)
            sigma = math.sqrt(spec.noise_variance(h))
            state = FilterState(w0, cfg.step_size)
            with np.errstate(over="ignore", invalid="ignore"):
                for r in range(curves.divergence_iteration):
                    u = expand_regressor(x[r:r + 3][::-1], spec.regressor_mode)
                    desired = _dot(u, h) + z[r] * sigma
                    if algorithm == "whitened":
                        state, _ = matrix_gain_step(state, u, desired, gain)
                    elif algorithm == "qvlms":
                        state, _ = qvlms_step(state, u, desired, qp)
                    else:
                        state, _ = vlms_step(state, u, desired)
            assert np.allclose(state.weights, curves.final_weights, rtol=1e-10)

    def test_block_steps_fit_the_history_budget(self):
        assert experiment._block_steps(9, 12, 256) == 4    # protocol 2
        assert experiment._block_steps(44, 3, 256) == 3    # M = 8, three cells
        assert experiment._block_steps(9, 3, 256) == 18    # protocol 1
        assert experiment._block_steps(9, 1, 256) == 56    # one cell
        assert experiment._block_steps(9, 1, 1) == 64      # run_trial
        assert experiment._block_steps(10**6, 12, 256) == 1


class TestTrialSeeds:
    def test_chunk_seeds_equal_trial_seeds(self):
        # the seed layout: trial i is child i of SeedSequence(master_seed)
        spawned = np.random.SeedSequence(17).spawn(1000)
        built = (list(seeding.SpawnedSeeds(17, 0, 600))
                 + list(seeding.SpawnedSeeds(17, 600, 1000)))
        for a, b, c in zip(spawned, built, trial_seeds(17, 1000), strict=True):
            assert np.array_equal(a.generate_state(8), b.generate_state(8))
            assert np.array_equal(a.generate_state(8), c.generate_state(8))
            assert np.array_equal(np.random.default_rng(a).standard_normal(3),
                                  np.random.default_rng(b).standard_normal(3))

    @pytest.mark.parametrize("random_init", [True, False])
    @pytest.mark.parametrize("m", [1, 3])
    def test_each_stream_starts_its_own_generator(self, m, random_init):
        # h, w0 and x come, in this order, from the trial seed's generator,
        # and z's generator stands at the start of the stream of the seed's
        # first child: nothing is drawn to be skipped. The caller's seeds
        # spawn no child, so a replay draws the same streams
        spec = ChannelSpec(memory_length=m)
        seeds = [*trial_seeds(5, 3), 11]
        h, w0, x_rngs, z_rngs = experiment._draw_chunk(seeds, spec, random_init)
        for i, seed in enumerate(seeds):
            oracle = _draw_trial(seed, spec, 40, random_init)
            assert np.array_equal(h[i], oracle[0])
            assert np.array_equal(w0[i], oracle[1])
            assert np.array_equal(x_rngs[i].standard_normal(40 + m - 1), oracle[2])
            assert z_rngs[i].bit_generator.state == \
                np.random.default_rng(_noise_seed(seed)).bit_generator.state
        assert all(s.n_children_spawned == 0 for s in seeds[:-1])

    def test_monte_carlo_builds_no_seed_list_up_front(self, monkeypatch):
        cfg = small_config(trials=3, iterations=20)
        expected = monte_carlo(cfg, ChannelSpec())[0]

        def no_list(*args):
            raise AssertionError("trial_seeds called")

        monkeypatch.setattr(experiment, "trial_seeds", no_list)
        got = monte_carlo(cfg, ChannelSpec())[0]
        _same_arrays(expected, got, ("nwd", "mae", "mse"))
        protocol1(3, trials=2, iterations=10, q_values=(5.0,))


class TestChunkDraw:
    """A chunk's generators are seeded from numpy's ``SeedSequence`` hash,
    evaluated for the chunk at once (``seeding``), and any other seeds by
    numpy itself: every draw is that of ``default_rng`` of the trial's
    seed and of its first child."""

    @pytest.mark.parametrize("random_init", [True, False])
    @pytest.mark.parametrize("seeds", [
        pytest.param([*trial_seeds(5, 3), 11, np.random.SeedSequence(
            [1, 2**40], spawn_key=(2**40, 3), pool_size=8), 0, *trial_seeds(6, 2)],
                     id="mixed-list"),
        # every form of entropy that SeedSequence takes; two seeds without
        # entropy words or a spawn key share their streams
        pytest.param([
            np.random.SeedSequence(["0x1f", "12", 5], spawn_key=("0x10", 2**33)),
            np.random.SeedSequence(np.arange(7, dtype=np.uint32), spawn_key=(1,)),
            np.random.SeedSequence(np.array([3, 2**40]), pool_size=8),
            np.random.SeedSequence([]), np.random.SeedSequence([]),
            np.int64(7), True,
        ], id="entropy-forms"),
        pytest.param(seeding.SpawnedSeeds(9, 250, 262), id="chunk"),
        pytest.param(seeding.SpawnedSeeds(2**130 + 1, 2**32 - 3, 2**32 + 2),
                     id="chunk-past-32-bit-keys"),
    ])
    def test_one_draw_equals_each_seeds_generators(self, seeds, random_init):
        spec = ChannelSpec()
        h, w0, x_rngs, z_rngs = experiment._draw_chunk(seeds, spec, random_init)
        seeds = list(seeds)
        assert len(h) == len(w0) == len(x_rngs) == len(z_rngs) == len(seeds)
        for i, seed in enumerate(seeds):
            oracle = _draw_trial(seed, spec, 30, random_init)
            assert np.array_equal(h[i], oracle[0])
            assert np.array_equal(w0[i], oracle[1])
            assert np.array_equal(x_rngs[i].standard_normal(32), oracle[2])
            assert np.array_equal(z_rngs[i].standard_normal(30), oracle[3])

    @pytest.mark.parametrize("seed, error", [
        (1.5, TypeError), ([2, 1.5], TypeError), (-1, ValueError),
        ("12", TypeError),
        # numpy draws fresh entropy from the OS for None: no trial is
        # reproducible from it
        (None, TypeError),
    ])
    def test_a_seed_that_is_no_entropy_is_an_error(self, seed, error):
        with pytest.raises(error):
            experiment._draw_chunk([seed], ChannelSpec(), True)

    def test_a_chunk_draw_builds_no_seed_sequence_or_default_rng(self,
                                                                 monkeypatch):
        cfg = small_config(trials=300, iterations=20)
        spec = ChannelSpec()
        seeds = seeding.SpawnedSeeds(9, 250, 262)
        expected = monte_carlo(cfg, spec), experiment._draw_chunk(seeds, spec, True)

        def refuse(*args, **kwargs):
            raise AssertionError("SeedSequence or default_rng called")

        monkeypatch.setattr(experiment.np.random, "SeedSequence", refuse)
        monkeypatch.setattr(experiment.np.random, "default_rng", refuse)
        got = monte_carlo(cfg, spec), experiment._draw_chunk(seeds, spec, True)
        for a, b in zip(expected[0], got[0], strict=True):
            _same_arrays(a, b, ("nwd", "mae", "mse", "diverged_mask"))
        for a, b in zip(expected[1][:2], got[1][:2]):
            assert np.array_equal(a, b)
        for a, b in zip(expected[1][2] + expected[1][3], got[1][2] + got[1][3]):
            assert a.bit_generator.state == b.bit_generator.state


class TestStepSizeResolution:
    def test_fraction_of_bound(self):
        cfg = small_config(step_size=None, step_size_fraction=0.5)
        spec = ChannelSpec(regressor_mode=RegressorMode.ORTHONORMALIZED)

        def step(algorithm, q):
            return experiment._config_cell(cfg, spec, algorithm, q,
                                           spec.snr_db).step_size

        # identity autocorrelation: bound = 1 / (q + 1)
        assert np.isclose(step("qvlms", 1.0), 0.25)
        assert np.isclose(step("qvlms", 10.0), 0.5 / 11.0)
        # q applies to q-VLMS only: the others step at the q = 1 bound
        assert step("vlms", 10.0) == step("whitened", None) == step("qvlms", 1.0)

    @pytest.mark.parametrize("mode", list(RegressorMode))
    @pytest.mark.parametrize("m", range(1, 9))
    def test_cell_gain_and_bound_have_the_bits_of_qparams(self, m, mode):
        # a cell's gain (q+1)/2 and bound 1 / ((q+1) lambda_max), formed
        # without a QParams, are QParams.uniform's g and step_size_bound's
        # value bit for bit, or its ValueError; q = 1 for the algorithms
        # without a q. The largest double overflows (q+1) lambda_max in the
        # raw mode only, where lambda_max = M + 2
        spec = ChannelSpec(memory_length=m, regressor_mode=mode)
        k, lam = spec.num_coefficients, spec.eigenvalues()
        cfg = small_config()
        overflowed = []
        for algorithm, q in [("qvlms", q) for q in (
                1.0, 2.0, 5.0, 10.0, 1e-300, 1.7e307, sys.float_info.max)] + [
                ("vlms", 5.0), ("whitened", None)]:
            qp = QParams.uniform(1.0 if algorithm != "qvlms" else q, k)
            try:
                bound = step_size_bound(qp, lam)
            except ValueError as err:
                with pytest.raises(ValueError) as got:
                    experiment._config_cell(cfg, spec, algorithm, q, 20.0)
                assert str(got.value) == str(err)
                overflowed.append(q)
                continue
            cell = experiment._config_cell(cfg, spec, algorithm, q, 20.0)
            assert cell.bound.hex() == bound.hex()
            gain = float(qp.g[0]) if algorithm == "qvlms" else 1.0
            assert cell.gain.hex() == gain.hex()
        raw = mode is RegressorMode.RAW
        assert overflowed == [sys.float_info.max] * raw

    def test_config_requires_exactly_one_rule(self):
        with pytest.raises(ValueError):
            small_config(step_size=None, step_size_fraction=None)
        with pytest.raises(ValueError):
            small_config(step_size=0.1, step_size_fraction=0.1)


class TestKernelLayout:
    """Every buffer of the kernel starts on a 4 KiB page, so that no
    per-step output starts just past one of its inputs modulo 4 KiB."""

    @pytest.mark.parametrize("cells, memory_length, trials", [
        pytest.param(
            [experiment._Cell("vlms", None, snr, 1e-3, 0.1)
             for snr in (10.0, 20.0, 30.0)]
            + [experiment._Cell("qvlms", q, snr, 1e-3, 0.2 / (q + 1))
               for snr in (10.0, 20.0, 30.0) for q in (2.0, 5.0, 10.0)],
            3, 256, id="protocol2"),
        pytest.param(
            [experiment._Cell(a, q, 20.0, 1e-3, b)
             for a, q, b in (("qvlms", 5.0, 1 / 60), ("vlms", None, 0.05),
                             ("whitened", None, 0.05))],
            8, 256, id="wide"),
        pytest.param([experiment._Cell("qvlms", 5.0, 20.0, 1e-2, 1 / 30)], 3, 1,
                     id="one-trial"),
    ])
    def test_kernel_buffers_start_on_a_page(self, monkeypatch, cells,
                                            memory_length, trials):
        made = []
        helper = experiment._page_aligned

        def spy(*args, **kwargs):
            made.append(helper(*args, **kwargs))
            return made[-1]

        monkeypatch.setattr(experiment, "_page_aligned", spy)
        spec = ChannelSpec(memory_length=memory_length)
        draw = experiment._draw_chunk(trial_seeds(1, trials), spec, True)
        blocks = 0
        # a trial alone steps 512-step segments
        for row, *arrays in experiment._lockstep(*draw, 600, cells, spec):
            if row == 0:
                continue
            blocks += 1
            for a in arrays:  # e2, nwd, delta, ok
                assert a.ctypes.data % 4096 == 0
                assert any(np.shares_memory(a, b) for b in made)
        assert blocks >= 2
        # one helper call for each buffer of the kernel, and no other buffer
        k, c, t = spec.num_coefficients, len(cells), trials
        b = experiment._block_steps(k, c, t)
        seg = max(b, experiment._SEGMENT // b * b)
        whitened = any(cell.algorithm == "whitened" for cell in cells)
        f8, b1 = np.dtype(float).str, np.dtype(bool).str
        if c * t == 1:
            # one value a slab steps a segment at a time on Python floats;
            # its float buffers take whole pages of one block
            s = min(experiment._SEGMENT, 600)
            floats = [s * k,                               # w_hist
                      s, s,                                # sq, nwd
                      k * max(s, 2),                       # K-major delta
                      s + memory_length - 1, s,            # x, z
                      s * k, s]                            # u, steps
            pages = sum(-(-n // 512) * 512 for n in floats)
            expected = [((pages,), f8), ((s, 1, 1), b1)]   # block, ok_buf
        else:
            expected = (
                [((b, k, c, t), f8)]                       # w_hist
                + [((k, c, t), f8)] * (1 + (c > 1))        # w_last, spread
                + [((b, c, t), f8)] * 4                    # sq, nwd, e_hist, d
                + [((b, c, t), b1)]                        # ok_buf
                + [((seg + memory_length - 1, t), f8)]     # x, time-major
                + [((seg, t), f8)]                         # z, time-major
                + [((min(experiment._TILE, t), seg + memory_length - 1),
                    f8)]                                   # tile
                + [((b, k, 1, t), f8)] * (1 + whitened)    # ut, ugt
                + [((b + memory_length - 1, memory_length, t), f8)]  # g0 ring
                # the products and their sum, and mu e and g mu e
                + [((k + 1, c, t), f8), ((2, c, t), f8)]
                + [((c, t), f8)] * 2)                      # mu, gain
        assert sorted((a.shape, a.dtype.str) for a in made) == sorted(expected)
        assert all(a.ctypes.data % 4096 == 0 for a in made)

    @pytest.mark.parametrize("shapes", [
        [(1,)], [(1, 9, 1, 1), (1, 1, 1), (9, 2), (3,), (1, 9)],
        [(512, 9, 1, 1), (512, 1, 1), (9, 512), (514,), (600,), (1024,)],
    ])
    def test_page_aligned_views_each_start_on_a_page(self, monkeypatch, shapes):
        # one _page_aligned block, whose views do not overlap
        blocks = []
        helper = experiment._page_aligned

        def spy(*args, **kwargs):
            blocks.append(helper(*args, **kwargs))
            return blocks[-1]

        monkeypatch.setattr(experiment, "_page_aligned", spy)
        views = experiment._page_aligned_views(*shapes)
        assert len(blocks) == 1
        assert [v.shape for v in views] == shapes
        for i, v in enumerate(views):
            assert v.dtype == np.float64 and v.flags.c_contiguous
            assert v.ctypes.data % 4096 == 0
            assert np.shares_memory(v, blocks[0])
            assert not any(np.shares_memory(v, w) for w in views[i + 1:])

    @pytest.mark.parametrize("whitened", [False, True])
    @pytest.mark.parametrize("mode", list(RegressorMode))
    @pytest.mark.parametrize("m", [1, 2, 3, 10, 76])
    def test_trial_steps_are_the_recursion_at_any_memory(self, m, mode,
                                                         whitened):
        # K = 2 .. 65 and 3,002: a sum of thousands of products, which one
        # expression could not compile, is split over lines and still
        # added left to right, and the regressors formed from the carried
        # products are those of expand_regressor, bit for bit
        k = num_coefficients(m)
        rng = np.random.default_rng(m)
        xs, noise = rng.standard_normal(m + 3).tolist(), rng.standard_normal(4)
        noise = noise.tolist()
        delta = rng.standard_normal(k) * 10.0 ** rng.integers(-8, 9, k)
        delta = delta.tolist()
        operands = [xs, noise, delta, 1e-3, 3.0]
        if whitened:
            operands.append(rng.standard_normal((4, k)).tolist())
        steps = experiment._trial_steps(m, mode, whitened)
        assert experiment._trial_steps(m, mode, whitened) is steps
        last, errors = steps(*operands)
        want_errors = []
        for j, z in enumerate(noise):
            u = expand_regressor(xs[j:j + m][::-1], mode).tolist()
            v = operands[5][j] if whitened else u
            e = _left_to_right([a * d for a, d in zip(u, delta)]) + z
            s = e * 1e-3 * 3.0
            delta = [d - s * vk for d, vk in zip(delta, v)]
            want_errors.append(e)
        # the steps return the last weight error and the errors, no rows
        assert {type(x) for x in last + errors} == {float}
        assert np.array(last).tobytes() == np.array(delta).tobytes()
        assert np.array(errors).tobytes() == np.array(want_errors).tobytes()

    @pytest.mark.parametrize("mu", [1e-3, 5.0], ids=["converging", "overflowing"])
    @pytest.mark.parametrize("whitened", [False, True])
    @pytest.mark.parametrize("mode", list(RegressorMode))
    @pytest.mark.parametrize("m", [1, 2, 3, 10])
    def test_rows_rebuilt_by_numpy_are_the_recursion(self, monkeypatch, m, mode,
                                                     whitened, mu):
        # numpy rebuilds each segment's rows of weight error from the
        # steps' errors: every yielded row has the bits of the scalar
        # recursion on the operands the steps were given, whitened
        # directions included, over three segments (512, 512 and 76 steps);
        # at mu = 5 the weight error overflows to inf and NaN, and the
        # guard's divergence row is the recursion's
        spec = ChannelSpec(memory_length=m, regressor_mode=mode)
        compiled = experiment._trial_steps(m, mode, whitened)
        calls = []

        def spy(*operands):
            calls.append(operands)
            return compiled(*operands)

        monkeypatch.setattr(experiment, "_trial_steps", lambda *key: spy)
        cell = experiment._Cell("whitened" if whitened else "qvlms",
                                None if whitened else 5.0, 20.0, mu, 0.1)
        draw = experiment._draw_chunk(trial_seeds(1, 1), spec, True)
        h = draw[0][0]
        blocks = []
        with np.errstate(over="ignore", invalid="ignore"):
            for row, _, _, delta, ok in experiment._lockstep(*draw, 1100,
                                                             [cell], spec):
                blocks.append((row, delta[:, :, 0, 0].copy(), ok[:, 0, 0].copy()))
        want = []
        for xs, noise, delta, step_size, g, *directions in calls:
            for j, z in enumerate(noise):
                u = expand_regressor(xs[j:j + m][::-1], mode).tolist()
                v = directions[0][j] if whitened else u
                e = _left_to_right([a * d for a, d in zip(u, delta)]) + z
                s = e * step_size * g
                delta = [d - s * vk for d, vk in zip(delta, v)]
                want.append(delta)
        assert [row for row, _, _ in blocks] == [0, 1, 513, 1025]
        rows = np.concatenate([delta for _, delta, _ in blocks[1:]])
        assert rows.tobytes() == np.array(want).tobytes()
        ok = np.concatenate([ok for _, _, ok in blocks[1:]])
        hh = float((h * h).sum())
        nwds = [_left_to_right([d * d for d in row]) / hh for row in want]
        diverged = [not nwd <= experiment.DIVERGENCE_THRESHOLD for nwd in nwds]
        assert ok.tolist() == [not bad for bad in diverged]
        if mu > 1.0:
            assert any(diverged) and np.isnan(rows).any()
        else:
            assert not any(diverged)

    @pytest.mark.parametrize("algorithm, q", [("qvlms", 5.0), ("whitened", None)])
    def test_one_value_blocks_step_on_python_floats(self, monkeypatch,
                                                     algorithm, q):
        # at one cell and one trial a block is a whole segment, one call of
        # the steps compiled once for its memory length and mode, on lists
        # of Python floats: the segment's inputs after the M-1 before it,
        # its noise, the weight error before it, mu and g, and the whitened
        # directions. Several values a slab never call it
        spec = ChannelSpec()
        m, k = spec.memory_length, spec.num_coefficients
        whitened = algorithm == "whitened"
        compiled = experiment._trial_steps(m, spec.regressor_mode, whitened)
        calls = []

        def spy(*operands):
            calls.append(operands)
            return compiled(*operands)

        monkeypatch.setattr(experiment, "_trial_steps", lambda *key: spy)
        cell = experiment._Cell(algorithm, q, 20.0, 1e-3, 0.2 / ((q or 1) + 1))
        for trials in (2, 1):
            draw = experiment._draw_chunk(trial_seeds(1, trials), spec, True)
            for _ in experiment._lockstep(*draw, 1100, [cell], spec):
                pass
        assert [len(noise) for _, noise, *_ in calls] == [512, 512, 76]
        for before, after in zip(calls, calls[1:]):
            # each segment's first M-1 inputs are the last of the one before
            assert after[0][:m - 1] == before[0][-(m - 1):]
        for xs, noise, delta, mu, g, *directions in calls:
            assert len(xs) == len(noise) + m - 1 and len(delta) == k
            assert len(directions) == whitened
            rows = directions[0] if whitened else []
            assert len(rows) == len(noise) * whitened
            assert all(len(row) == k for row in rows)
            values = [*xs, *noise, *delta, mu, g, *(x for r in rows for x in r)]
            assert {type(x) for x in values} == {float}
        assert calls[0][3:5] == (1e-3, 3.0 if algorithm == "qvlms" else 1.0)


@pytest.mark.parametrize("call, field", [
    pytest.param(lambda: small_config(algorithms=()), "algorithms",
                 id="config-algorithms"),
    pytest.param(lambda: small_config(q_values=()), "q_values",
                 id="config-q_values"),
    pytest.param(lambda: small_config(snr_db_values=()), "snr_db_values",
                 id="config-snr_db_values"),
    pytest.param(lambda: protocol1(0, q_values=()), "q_values",
                 id="protocol1-q_values"),
    pytest.param(lambda: protocol1(0, trials=0), "trials",
                 id="protocol1-trials-zero"),
    pytest.param(lambda: protocol1(0, trials=-3), "trials",
                 id="protocol1-trials-negative"),
    pytest.param(lambda: protocol1(0, iterations=0), "iterations",
                 id="protocol1-iterations-zero"),
    pytest.param(lambda: protocol2(0, q_values=()), "q_values",
                 id="protocol2-q_values"),
    pytest.param(lambda: protocol2(0, snr_db_values=()), "snr_db_values",
                 id="protocol2-snr_db_values"),
    # an algorithm outside ALGORITHMS, and a count numpy cannot index
    pytest.param(lambda: small_config(algorithms=("bogus",)), "algorithm 'bogus'",
                 id="config-algorithms-unknown"),
    pytest.param(lambda: run_trial(small_config(), ChannelSpec(), 0, "bogus"),
                 "algorithm 'bogus'", id="run_trial-algorithm-unknown"),
    pytest.param(lambda: small_config(trials=sys.maxsize + 1),
                 rf"^trials must be at most {sys.maxsize}",
                 id="config-trials-past-maxsize"),
    pytest.param(lambda: protocol1(0, iterations=sys.maxsize + 1),
                 rf"^iterations must be at most {sys.maxsize}",
                 id="protocol1-iterations-past-maxsize"),
])
def test_an_empty_grid_is_a_value_error_naming_it(call, field):
    with pytest.raises(ValueError, match=field):
        call()


@pytest.mark.parametrize("call, field", [
    pytest.param(lambda: small_config(algorithms=("vlms", "qvlms", "vlms")),
                 "algorithms", id="config-algorithms"),
    pytest.param(lambda: small_config(q_values=(5.0, 5)), "q_values",
                 id="config-q_values"),
    # -0 dB is 0 dB: the two cells share every key
    pytest.param(lambda: small_config(snr_db_values=(0.0, -0.0)),
                 "snr_db_values", id="config-snr_db_values"),
    pytest.param(lambda: protocol1(0, q_values=(1.0, 5.0, 1.0)), "q_values",
                 id="protocol1-q_values"),
    pytest.param(lambda: protocol2(0, q_values=(5.0, 5.0)), "q_values",
                 id="protocol2-q_values"),
    pytest.param(lambda: protocol2(0, snr_db_values=(20.0, 20.0)),
                 "snr_db_values", id="protocol2-snr_db_values"),
])
def test_a_repeated_grid_value_is_a_value_error_naming_it(call, field):
    # two equal cells would be simulated twice and collide in every output
    # keyed by their values
    with pytest.raises(ValueError, match=rf"^{field} must not repeat a value"):
        call()


@pytest.mark.parametrize("call, field", [
    pytest.param(lambda: small_config(step_size=math.inf), "step_size",
                 id="config-step_size-inf"),
    pytest.param(lambda: small_config(step_size=math.nan), "step_size",
                 id="config-step_size-nan"),
    pytest.param(lambda: small_config(step_size=None, step_size_fraction=math.inf),
                 "step_size_fraction", id="config-step_size_fraction-inf"),
    pytest.param(lambda: small_config(q_values=(5.0, math.nan)), "q_values",
                 id="config-q_values-nan"),
    pytest.param(lambda: small_config(q_values=(math.inf,)), "q_values",
                 id="config-q_values-inf"),
    pytest.param(lambda: small_config(snr_db_values=(math.nan,)), "snr_db_values",
                 id="config-snr_db_values-nan"),
    pytest.param(lambda: small_config(snr_db_values=(20.0, -math.inf)),
                 "snr_db_values", id="config-snr_db_values-minus-inf"),
    pytest.param(lambda: ChannelSpec(snr_db=math.nan), "snr_db",
                 id="channel-snr_db-nan"),
    pytest.param(lambda: ChannelSpec(snr_db=-4000.0), "snr_db",
                 id="channel-snr_db-noise-factor-overflows"),
    pytest.param(lambda: small_config(snr_db_values=(-4000.0,)), "snr_db_values",
                 id="config-snr_db_values-noise-factor-overflows"),
    # a factor of 1e308 is finite, but not times lambda_max = 5 (M = 3 raw)
    pytest.param(lambda: ChannelSpec(snr_db=-3080.0), "snr_db",
                 id="channel-snr_db-noise-power-overflows"),
    pytest.param(lambda: monte_carlo(small_config(snr_db_values=(-3080.0,)),
                                     ChannelSpec()),
                 "snr_db_values", id="monte_carlo-snr_db_values-noise-power-overflows"),
    pytest.param(lambda: protocol1(0, snr_db=-3080.0), "snr_db",
                 id="protocol1-snr_db-noise-power-overflows"),
    # 1e307 times a pinned kernel's own h . R h, which is about 3e6
    pytest.param(lambda: ChannelSpec(snr_db=-3070.0, kernel=VolterraKernel.from_flat(
                     np.full(9, 1e3))), "snr_db",
                 id="pinned-channel-snr_db-noise-power-overflows"),
    pytest.param(lambda: protocol1(0, mu_fraction=math.inf), "mu_fraction",
                 id="protocol1-mu_fraction-inf"),
    pytest.param(lambda: protocol1(0, mu_fraction=math.nan), "mu_fraction",
                 id="protocol1-mu_fraction-nan"),
    pytest.param(lambda: protocol1(0, snr_db=math.nan), "snr_db",
                 id="protocol1-snr_db-nan"),
    pytest.param(lambda: protocol1(0, snr_db=-math.inf), "snr_db",
                 id="protocol1-snr_db-minus-inf"),
    pytest.param(lambda: protocol1(0, q_values=(math.inf,)), "q_values",
                 id="protocol1-q_values-inf"),
    pytest.param(lambda: protocol2(0, step_size=math.inf), "step_size",
                 id="protocol2-step_size-inf"),
    # each front end names the keyword its caller passed
    pytest.param(lambda: protocol2(0, snr_db_values=(math.nan,)),
                 "snr_db_values", id="protocol2-snr_db_values-nan"),
])
def test_a_non_finite_setting_is_a_value_error_naming_it(call, field):
    # raised as the run is set up, never as "all trials diverged"
    with pytest.raises(ValueError, match=rf"^{field} must"):
        call()


@pytest.mark.parametrize("make, field, bad", [
    pytest.param(lambda v: small_config(trials=v), "trials", 2.5,
                 id="config-trials-float"),
    pytest.param(lambda v: small_config(trials=v), "trials", "3",
                 id="config-trials-string"),
    pytest.param(lambda v: small_config(iterations=v), "iterations", 3.5,
                 id="config-iterations-float"),
    pytest.param(lambda v: small_config(master_seed=v), "master_seed", 1.5,
                 id="config-master_seed-float"),
    pytest.param(lambda v: small_config(master_seed=v), "master_seed", -1,
                 id="config-master_seed-negative"),
    pytest.param(lambda v: ChannelSpec(memory_length=v), "memory_length", 2.5,
                 id="channel-memory_length-float"),
    pytest.param(lambda v: protocol1(0, trials=v, iterations=5, q_values=(5.0,)),
                 "trials", 2.5, id="protocol1-trials-float"),
    pytest.param(lambda v: protocol2(v, trials=2, iterations=5, q_values=(5.0,),
                                     snr_db_values=(20.0,)),
                 "master_seed", 1.5, id="protocol2-master_seed-float"),
])
def test_an_integer_setting_must_be_an_integer(make, field, bad):
    # operator.index takes a numpy integer, but no float or string
    with pytest.raises(ValueError, match=rf"^{field} must be an integer"):
        make(bad)
    make(np.int64(3))


def test_a_finite_noise_power_is_a_run():
    # the random family at -3075 dB (3.2e307 times lambda_max = 5 is
    # finite), a pinned kernel of small h . R h at -3080 dB, and 10^40
    # noise, at which the trial diverges
    ChannelSpec(snr_db=-3075.0)
    ChannelSpec(snr_db=-3080.0, kernel=VolterraKernel.from_flat(np.full(9, 1e-3)))
    assert run_trial(small_config(iterations=10), ChannelSpec(snr_db=-400.0),
                     0).diverged


def test_no_run_calls_an_eigensolver(monkeypatch):
    # the spectrum of R is closed-form: a fresh build of it, a fraction
    # rule's bound, the random family's noise check and ``bound`` solve no
    # eigenproblem
    def refuse(*args, **kwargs):
        raise AssertionError("eigensolver called")

    for name in ("eigvalsh", "eigh", "eig", "eigvals"):
        monkeypatch.setattr(np.linalg, name, refuse)
    theory._eigenvalues.cache_clear()
    for mode in RegressorMode:
        protocol1(0, trials=4, iterations=50, regressor_mode=mode)
    monte_carlo(small_config(step_size=None, step_size_fraction=0.1),
                ChannelSpec())
    ChannelSpec(snr_db=-3075.0)
    assert cli.main(["bound", "--memory-length", "8"]) == 0


@pytest.mark.parametrize("m", [3, 8])
@pytest.mark.parametrize("algorithm,q", [("qvlms", 1.0), ("qvlms", 5.0),
                                         ("qvlms", 10.0), ("vlms", 1.0)])
def test_a_fraction_rule_step_is_exact(m, algorithm, q):
    # lambda_max = M + 2 exactly in the raw mode, so the bound is the
    # correctly rounded 1 / ((q + 1) (M + 2))
    spec = ChannelSpec(memory_length=m)
    cfg = small_config(step_size=None, step_size_fraction=0.05, q_values=(q,),
                       algorithms=(algorithm,))
    cell = experiment._config_cell(cfg, spec, algorithm, q, spec.snr_db)
    bound = cell.bound
    assert bound == 1.0 / ((q + 1.0) * (m + 2))
    assert cell.step_size == 0.05 * bound


def test_a_bound_that_overflows_is_a_value_error():
    # (q + 1) lambda_max overflows a double at q = 1e308: no warning, no
    # bound of 0; a finite product keeps the bits of 1 / max((q + 1) lambda)
    lam = ChannelSpec().eigenvalues()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for q, eigenvalues in ((1e308, lam), (5.0, np.full(9, 1e308))):
            with pytest.raises(ValueError, match="overflows"):
                step_size_bound(QParams.uniform(q, 9), eigenvalues)
        for q in (0.5, 5.0, 1e307):
            assert step_size_bound(QParams.uniform(q, 9), lam) == \
                float(1.0 / np.max((q + 1.0) * lam))
    cfg = small_config(step_size=None, step_size_fraction=0.1, q_values=(1e308,))
    with pytest.raises(ValueError, match="overflows"):
        monte_carlo(cfg, ChannelSpec())
    # q applies to q-VLMS only: a vlms cell steps at the q = 1 bound
    monte_carlo(replace(cfg, algorithms=("vlms",)), ChannelSpec())
    # every cell carries its bound, so an absolute step refuses it too:
    # never "all trials diverged" nor a diverged trial
    absolute = replace(cfg, step_size=1e-3, step_size_fraction=None)
    for call in (lambda: monte_carlo(absolute, ChannelSpec()),
                 lambda: run_trial(absolute, ChannelSpec(), 0),
                 lambda: protocol2(0, trials=2, iterations=5, q_values=(1e308,))):
        with pytest.raises(ValueError, match="overflows"):
            call()
    monte_carlo(replace(absolute, algorithms=("vlms",)), ChannelSpec())


@pytest.mark.parametrize("call", [
    pytest.param(lambda: monte_carlo(
        small_config(step_size=None, step_size_fraction=5e-324), ChannelSpec()),
                 id="monte_carlo"),
    pytest.param(lambda: run_trial(
        small_config(step_size=None, step_size_fraction=5e-324), ChannelSpec(), 0),
                 id="run_trial"),
    pytest.param(lambda: protocol1(0, trials=2, iterations=3, mu_fraction=5e-324),
                 id="protocol1"),
])
def test_a_fraction_whose_step_underflows_is_a_value_error(call):
    # 5e-324 of a bound below 1 rounds to a step of 0
    with pytest.raises(ValueError, match=r"^the step .* must be positive and "
                                         r"finite, got 0\.0"):
        call()


def test_protocol1_at_a_step_too_small_to_move_is_a_runtime_error():
    # at mu ~ 1e-31 neither the weights nor the mean recursion move in
    # double precision, so the curves are constant and have no correlation
    with pytest.raises(RuntimeError, match=r"q=1, mu=1\.000e-31 "
                                           r"\(mu_fraction=1e-30\)"):
        protocol1(0, trials=2, iterations=3, mu_fraction=1e-30)


def test_an_infinite_snr_is_a_noiseless_run():
    assert small_config(snr_db_values=(math.inf,)).snr_db_values == (math.inf,)
    report = protocol1(0, trials=2, iterations=20, q_values=(1.0,),
                       snr_db=math.inf)
    assert report.comparisons[0].simulated.diverged == 0


def _protocol1_trials(seed, trials, iterations, comp):
    """The trials of a protocol-1 comparison, each run alone."""
    cfg = small_config(iterations=iterations, step_size=comp.simulated.step_size,
                       q_values=(comp.simulated.q_value,))
    return [run_trial(cfg, ChannelSpec(), s) for s in trial_seeds(seed, trials)]


def _stepwise_theory_mae(trials, mu, a, iterations):
    """Oracle of protocol 1's theory curve: the mean of ``|delta(t)|`` over
    the trials and the coefficients, from each trial's ``h - w0``, one step
    ``cur @ (I - mu A)^T`` at a time."""
    step_t = (np.eye(len(a)) - mu * a).T
    cur = np.array([t.channel - t.initial_weights for t in trials])
    out = [np.abs(cur).mean()]
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(iterations):
            cur = cur @ step_t
            out.append(np.abs(cur).mean())
    return np.array(out)


class TestProtocolSmoke:
    def test_protocol1_structure(self):
        report = protocol1(5, trials=8, iterations=120, q_values=(1.0, 5.0))
        assert len(report.comparisons) == 2
        for comp in report.comparisons:
            assert comp.theory_mae.shape == comp.simulated.mae.shape
            assert -1.0 <= comp.correlation <= 1.0
        assert np.isclose(
            report.average_correlation,
            np.mean([c.correlation for c in report.comparisons]),
        )

    def test_protocol1_theory_curve_q1_identity_input_is_geometric(self):
        report = protocol1(5, trials=4, iterations=60, q_values=(1.0,),
                           regressor_mode=RegressorMode.ORTHONORMALIZED,
                           mu_fraction=0.1)
        comp = report.comparisons[0]
        # identity input matrix: the theory curve is geometric with
        # ratio 1 - mu, the q = 1 update matrix being the identity
        ratios = comp.theory_mae[1:] / comp.theory_mae[:-1]
        assert np.allclose(ratios, 1.0 - comp.simulated.step_size, rtol=1e-10)

    def test_protocol1_theory_curve_is_the_public_recursion_over_kept_trials(
            self, monkeypatch):
        # raw mode, at a step where some trials diverge and leave the curve;
        # at one trial a chunk, a diverged trial's chunk keeps none
        a = build_update_matrix(QParams.uniform(2.0, 9),
                                ChannelSpec().autocorrelation())
        for chunk in (experiment._CHUNK, 1):
            monkeypatch.setattr(experiment, "_CHUNK", chunk)
            report = protocol1(2, trials=16, iterations=300, q_values=(2.0,),
                               mu_fraction=0.8)
            comp = report.comparisons[0]
            trials = _protocol1_trials(2, 16, 300, comp)
            kept = [t for t in trials if not t.diverged]
            assert 0 < len(trials) - len(kept) == comp.simulated.diverged
            expected = _stepwise_theory_mae(kept, comp.simulated.step_size, a, 300)
            assert np.allclose(comp.theory_mae, expected, rtol=1e-12, atol=0)

    def test_protocol1_theory_curve_across_chunks_and_blocks(self):
        # two chunks, the second of 44 trials with diverged ones in it, and
        # a run that ends in a short block of the recursion
        q_values, iterations = (2.0, 5.0), 150
        assert iterations % experiment._block_steps(9, 2, experiment._CHUNK)
        report = protocol1(3, trials=300, iterations=iterations,
                           q_values=q_values, mu_fraction=0.8)
        r = ChannelSpec().autocorrelation()
        for q, comp in zip(q_values, report.comparisons, strict=True):
            trials = _protocol1_trials(3, 300, iterations, comp)
            kept = [t for t in trials if not t.diverged]
            assert any(t.diverged for t in trials[256:])
            assert len(trials) - len(kept) == comp.simulated.diverged
            a = build_update_matrix(QParams.uniform(q, 9), r)
            expected = _stepwise_theory_mae(kept, comp.simulated.step_size, a, iterations)
            assert np.allclose(comp.theory_mae, expected, rtol=1e-12, atol=0)

    def test_protocol1_theory_curve_overflows_to_inf(self, monkeypatch):
        # S = I - mu A is about -5e50 I: every trial's error overflows at
        # step 7, the diverged trials' too; those are left out of the sum,
        # where a weight of 0 would have turned their inf into NaN
        expanding = 1e52 * np.eye(9)
        monkeypatch.setattr(experiment, "build_update_matrix",
                            lambda qp, r: expanding)
        report = protocol1(2, trials=16, iterations=300, q_values=(2.0,),
                           mu_fraction=0.8)
        comp = report.comparisons[0]
        trials = _protocol1_trials(2, 16, 300, comp)
        kept = [t for t in trials if not t.diverged]
        assert 0 < len(trials) - len(kept) == comp.simulated.diverged
        expected = _stepwise_theory_mae(kept, comp.simulated.step_size, expanding, 300)
        first = np.flatnonzero(~np.isfinite(expected))[0]
        assert first > 1 and expected[first] == np.inf
        assert np.allclose(comp.theory_mae[:first], expected[:first],
                           rtol=1e-12, atol=0)
        assert comp.theory_mae[first] == np.inf

    #: Three chunks of 16 trials at ``_CHUNK = 16``; 2 trials diverge in
    #: the middle chunk and 2 in the last, none in the first, and the run
    #: ends in a short block of the recursion.
    _DIVERGING = dict(master_seed=6, trials=48, iterations=150,
                      step_size_fraction=0.8, q_values=(2.0, 5.0))

    def test_protocol1_theory_column_is_the_chunked_block_sum_bit_for_bit(
            self, monkeypatch):
        monkeypatch.setattr(experiment, "_CHUNK", 16)
        seed, trials, n = 6, 48, 150
        report = protocol1(seed, trials=trials, iterations=n,
                           q_values=(2.0, 5.0), mu_fraction=0.8)
        spec = ChannelSpec()
        cells = monte_carlo(ExperimentConfig(**self._DIVERGING), spec)
        k, r = spec.num_coefficients, spec.autocorrelation()
        blk = experiment._block_steps(k, 2, 16)
        assert n % blk
        for comp, cell in zip(report.comparisons, cells, strict=True):
            assert list(cell.diverged_mask.reshape(3, 16).sum(axis=1)) == [0, 2, 2]
            a = build_update_matrix(QParams.uniform(comp.simulated.q_value, k), r)
            powers = theory._step_powers(comp.simulated.step_size, a, blk)
            column = np.zeros(n + 1)
            for start in range(0, trials, 16):
                h, w0, *_ = experiment._draw_chunk(
                    seeding.SpawnedSeeds(seed, start, start + 16), spec, True)
                kept = (h - w0)[~cell.diverged_mask[start:start + 16]]
                for row, block in theory._trajectory_blocks(kept, powers, n):
                    flat = np.abs(block).reshape(len(kept), -1)
                    level = (np.ones(len(kept)) @ flat).reshape(-1, k).sum(axis=1)
                    column[row:row + len(level)] += level
            expected = column / ((trials - cell.diverged) * k)
            assert comp.theory_mae.tobytes() == expected.tobytes()

    def test_protocol1_theory_runs_no_kernel(self, monkeypatch):
        # the theory pass draws each chunk's h, w0 again but runs no
        # _lockstep call beyond monte_carlo's, replays included
        monkeypatch.setattr(experiment, "_CHUNK", 16)
        calls = _spy_lockstep(monkeypatch)
        monte_carlo(ExperimentConfig(**self._DIVERGING), ChannelSpec())
        expected = list(calls)
        assert len(expected) == 5  # three chunks, two of them replayed
        calls.clear()
        protocol1(6, trials=48, iterations=150, q_values=(2.0, 5.0),
                  mu_fraction=0.8)
        assert calls == expected

    def test_protocol1_theory_builds_no_noise_generator(self, monkeypatch):
        # the theory pass reads each chunk's h, w0 only: it builds the
        # input's generators, not the noise's, of each of its three chunks
        monkeypatch.setattr(experiment, "_CHUNK", 16)
        noise, build = [], experiment.generators

        def spy(seeds, *args):
            noise.append(args)
            return build(seeds, *args)

        monkeypatch.setattr(experiment, "generators", spy)
        protocol1(6, trials=48, iterations=150, q_values=(2.0, 5.0),
                  mu_fraction=0.8)
        assert noise == [(True,)] * 5 + [(False,)] * 3

    @pytest.mark.parametrize("mode", list(RegressorMode))
    def test_protocol1_cells_are_monte_carlos(self, mode):
        # protocol 1 at fraction f runs the cells of monte_carlo at
        # step_size_fraction f, bit for bit
        q_values, f = (1.0, 5.0), 0.3
        report = protocol1(4, trials=6, iterations=60, snr_db=15.0,
                           q_values=q_values, memory_length=2,
                           regressor_mode=mode, mu_fraction=f)
        config = ExperimentConfig(iterations=60, trials=6, master_seed=4,
                                  step_size_fraction=f, q_values=q_values,
                                  snr_db_values=(15.0,))
        curves = monte_carlo(config, ChannelSpec(memory_length=2,
                                                 regressor_mode=mode))
        for comp, cell in zip(report.comparisons, curves, strict=True):
            assert comp.simulated.step_size == cell.step_size
            assert comp.simulated.nwd.tobytes() == cell.nwd.tobytes()
            assert comp.simulated.mae.tobytes() == cell.mae.tobytes()

    @pytest.mark.parametrize("mode", list(RegressorMode))
    @pytest.mark.parametrize("m", [2, 3, 7])
    def test_update_eigenvalue_rule_is_the_bound_rule_at_twice_the_fraction(
            self, m, mode):
        q_values, f = (1.0, 5.0, 10.0), 0.1

        def steps(**rule):
            report = protocol1(0, trials=1, iterations=2, q_values=q_values,
                               memory_length=m, regressor_mode=mode, **rule)
            return [c.simulated.step_size for c in report.comparisons]

        steps_at_f = steps(mu_fraction=f, mu_rule="fraction_of_update_eigenvalue")
        assert steps_at_f == steps(mu_fraction=2 * f)
        # and the rule as it reads, f / lambda_max(A)
        r = ChannelSpec(memory_length=m, regressor_mode=mode).autocorrelation()
        expected = [f / np.linalg.eigvals(
            build_update_matrix(QParams.uniform(q, len(r)), r)).real.max()
            for q in q_values]
        np.testing.assert_allclose(steps_at_f, expected, rtol=4e-15, atol=0)

    def test_protocol1_rejects_an_unknown_mu_rule(self):
        with pytest.raises(ValueError, match="mu rule"):
            protocol1(0, trials=1, iterations=2, mu_rule="bogus")

    def test_protocol2_structure(self):
        report = protocol2(5, trials=6, iterations=150,
                           snr_db_values=(10.0, 20.0), q_values=(5.0,),
                           include_whitened=True)
        algorithms = {(c.algorithm, c.q_value, c.snr_db) for c in report.curves}
        assert ("vlms", None, 10.0) in algorithms
        assert ("qvlms", 5.0, 20.0) in algorithms
        assert ("whitened", None, 10.0) in algorithms
        assert set(report.advantages_db) == {(5.0, 10.0), (5.0, 20.0)}
        assert report.cell("vlms", 10.0).algorithm == "vlms"
        with pytest.raises(KeyError):
            report.cell("qvlms", 10.0, 2.0)

    def test_protocol2_noiseless_sanity_all_algorithms_converge(self):
        report = protocol2(5, trials=3, iterations=3000,
                           snr_db_values=(math.inf,), q_values=(5.0,),
                           step_size=5e-3, include_whitened=True)
        for cell in report.curves:
            assert cell.diverged == 0
            assert cell.nwd[-1] < 1e-6

    def test_protocol_reports_are_deterministic(self):
        a = protocol1(9, trials=4, iterations=80, q_values=(5.0,))
        b = protocol1(9, trials=4, iterations=80, q_values=(5.0,))
        assert np.array_equal(a.comparisons[0].simulated.mae,
                              b.comparisons[0].simulated.mae)
        assert a.comparisons[0].correlation == b.comparisons[0].correlation


def test_steady_state_level_tail_mean():
    curve = np.concatenate([np.full(90, 5.0), np.full(10, 1.0)])
    assert steady_state_level(curve, 0.1) == 1.0


class _Stream:
    """Stands in for a trial's generator: hands out a whole drawn stream
    in order."""

    def __init__(self, values):
        self.values, self.used = values, 0

    def standard_normal(self, out):
        out[...] = self.values[self.used:self.used + out.size]
        self.used += out.size


def _whole_stream_chunk(streams, iterations):
    """A ``_draw_chunk`` that draws every stream of ``iterations`` steps
    whole by the oracle, and keeps the streams it hands out in
    ``streams``."""
    def draw_chunk(seeds, channel, random_init):
        draws = [_draw_trial(s, channel, iterations, random_init) for s in seeds]
        xs, zs = ([_Stream(d[i]) for d in draws] for i in (2, 3))
        streams.extend(xs + zs)
        return (np.array([d[0] for d in draws]), np.array([d[1] for d in draws]),
                xs, zs)
    return draw_chunk


class TestStreamedDraws:
    """The kernel draws each trial's input and noise a segment at a time
    from two generators; the values are those of the whole streams drawn
    in order from one generator."""

    @pytest.mark.parametrize("trials", [5, 77])
    @pytest.mark.parametrize("random_init", [True, False])
    @pytest.mark.parametrize("fixed_kernel", [False, True])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_streamed_draws_equal_whole_stream_oracle(self, monkeypatch, m,
                                                      fixed_kernel, random_init,
                                                      trials):
        # 3-step blocks in 6-step segments: 40 steps cross six segments
        # and end in a short one; 77 trials cross three 32-trial staging
        # tiles and end in a short one
        monkeypatch.setattr(experiment, "_BLOCK", 3)
        monkeypatch.setattr(experiment, "_SEGMENT", 7)
        k = num_coefficients(m)
        kernel = (VolterraKernel.from_flat(np.linspace(-0.6, 0.4, k))
                  if fixed_kernel else None)
        spec = ChannelSpec(memory_length=m, snr_db=20.0, kernel=kernel)
        cfg = small_config(iterations=40, trials=trials, master_seed=13,
                           step_size=0.02, q_values=(5.0,),
                           algorithms=("qvlms", "vlms", "whitened"),
                           random_init=random_init)
        seed = trial_seeds(13, trials)[2]
        streamed = monte_carlo(cfg, spec), run_trial(cfg, spec, seed)
        streams = []
        monkeypatch.setattr(experiment, "_draw_chunk",
                            _whole_stream_chunk(streams, cfg.iterations))
        whole = monte_carlo(cfg, spec), run_trial(cfg, spec, seed)
        assert streams and all(s.used == s.values.size for s in streams)
        for a, b in zip(streamed[0], whole[0], strict=True):
            _same_arrays(a, b, ("nwd", "mae", "mse", "diverged_mask"))
        _same_arrays(streamed[1], whole[1], ("nwd", "abs_weight_error",
                                             "squared_error", "final_weights",
                                             "channel", "initial_weights"))

    @pytest.mark.parametrize("segment", [1, 7])
    def test_monte_carlo_and_run_trial_are_segment_length_invariant(
            self, monkeypatch, segment):
        cfg = small_config(iterations=150, trials=40, master_seed=4,
                           step_size=0.1, q_values=(2.0,),
                           algorithms=("qvlms", "vlms", "whitened"))
        spec = ChannelSpec()
        runs = [(seed, a) for seed in trial_seeds(4, 20)[5:] for a in ALGORITHMS]
        default = monte_carlo(cfg, spec)
        trials = [run_trial(cfg, spec, seed, a) for seed, a in runs]
        assert 0 < sum(t.diverged for t in trials) < len(trials)
        monkeypatch.setattr(experiment, "_BLOCK", 3)
        monkeypatch.setattr(experiment, "_SEGMENT", segment)
        for a, b in zip(default, monte_carlo(cfg, spec), strict=True):
            assert 0 < a.diverged < cfg.trials
            _same_arrays(a, b, ("nwd", "mae", "mse", "diverged_mask"))
        for a, (seed, algorithm) in zip(trials, runs, strict=True):
            b = run_trial(cfg, spec, seed, algorithm)
            assert (a.diverged, a.divergence_iteration) == \
                (b.diverged, b.divergence_iteration)
            _same_arrays(a, b, ("nwd", "abs_weight_error", "squared_error",
                                "final_weights"))


def _monte_carlo_peak(iterations, trials):
    cfg = small_config(iterations=iterations, trials=trials, step_size=0.005)
    tracemalloc.start()
    try:
        monte_carlo(cfg, ChannelSpec())
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("trials", [256, 512])
def test_monte_carlo_memory_is_bounded_in_iterations(trials):
    # one cell: only the totals and one chunk's sums, each (N+1) x 3
    # doubles, may grow with N, however many chunks add into them
    growth = _monte_carlo_peak(16_000, trials) - _monte_carlo_peak(2_000, trials)
    assert growth <= 2 * 14_000 * 3 * 8 + 0.25 * 2**20


def _protocol1_peak(trials):
    tracemalloc.start()
    try:
        protocol1(0, trials=trials, iterations=2)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_protocol1_memory_is_bounded_in_trials():
    # no (trials, K) initial errors are kept for the theory: of all
    # per-trial state only the divergence flags, a byte a trial and cell,
    # grow with the trials
    k = ChannelSpec().num_coefficients
    growth = _protocol1_peak(20_000) - _protocol1_peak(2_000)
    assert growth < 18_000 * k * 8 / 8


def _spy_lockstep(monkeypatch):
    """The cells, as (algorithm, q), of each ``_lockstep`` call to come."""
    calls = []
    lockstep = experiment._lockstep

    def spy(*args):
        calls.append([(c.algorithm, c.q_value) for c in args[5]])
        return lockstep(*args)

    monkeypatch.setattr(experiment, "_lockstep", spy)
    return calls


class TestReplay:
    """A chunk is replayed only for the cells with a diverged pair."""

    def test_one_diverged_cell_replays_that_cell_only(self, monkeypatch):
        cfg = small_config(iterations=150, trials=20, master_seed=4,
                           step_size=0.03, q_values=(2.0, 5.0),
                           algorithms=("whitened", "qvlms", "vlms"))
        spec = ChannelSpec()
        calls = _spy_lockstep(monkeypatch)
        cells = monte_carlo(cfg, spec)
        assert [c.diverged for c in cells] == [0, 0, 5, 0]
        assert calls == [[("whitened", None), ("qvlms", 2.0), ("qvlms", 5.0),
                          ("vlms", None)],
                         [("qvlms", 5.0)]]
        # the clean cells keep the bits they have without the diverging one
        clean = monte_carlo(replace(cfg, q_values=(2.0,)), spec)
        for a, b in zip([cells[i] for i in (0, 1, 3)], clean, strict=True):
            _same_arrays(a, b, ("nwd", "mae", "mse"))
        _, mean = _mean_of_trials(cfg, spec, cells[2], ~cells[2].diverged_mask)
        np.testing.assert_allclose(cells[2].nwd, mean["nwd"], rtol=1e-12, atol=0)

    @pytest.mark.parametrize("seed, step, pattern, passes", [
        # the q = 5 cell first diverges in chunk 2 (trial 42): only that
        # chunk is replayed, for it alone; chunks 0 and 1 are not run again
        pytest.param(3, 0.02, [False, False, True], "AAA5",
                     id="first-divergence-in-chunk-2"),
        # it diverges in chunks 0 and 2, each replayed for it alone; chunk
        # 1's first-pass sums go into the totals as they are
        pytest.param(2, 0.03, [True, False, True], "A5AA5",
                     id="held-from-chunk-0"),
    ])
    def test_late_divergence_replays_match_run_trial(self, monkeypatch, seed,
                                                     step, pattern, passes):
        monkeypatch.setattr(experiment, "_CHUNK", 16)
        cfg = small_config(iterations=150, trials=48, master_seed=seed,
                           step_size=step, q_values=(2.0, 5.0),
                           algorithms=("qvlms", "vlms"))
        spec = ChannelSpec()
        calls = _spy_lockstep(monkeypatch)
        cells = monte_carlo(cfg, spec)
        every = [("qvlms", 2.0), ("qvlms", 5.0), ("vlms", None)]
        assert calls == [every if p == "A" else [("qvlms", 5.0)] for p in passes]
        assert cells[0].diverged == cells[2].diverged == 0
        assert list(cells[1].diverged_mask.reshape(3, 16).any(axis=1)) == pattern
        clean = monte_carlo(replace(cfg, q_values=(2.0,)), spec)
        for a, b in zip([cells[i] for i in (0, 2)], clean, strict=True):
            _same_arrays(a, b, ("nwd", "mae", "mse"))
        trials, mean = _mean_of_trials(cfg, spec, cells[1], ~cells[1].diverged_mask)
        assert np.array_equal(cells[1].diverged_mask, [t.diverged for t in trials])
        for name in ("nwd", "mae", "mse"):
            np.testing.assert_allclose(getattr(cells[1], name), mean[name],
                                       rtol=1e-12, atol=0, err_msg=name)
