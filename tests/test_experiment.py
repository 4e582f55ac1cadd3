import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qvlms import experiment
from qvlms.adapt import (
    FilterState,
    QParams,
    matrix_gain_step,
    qvlms_step,
    vlms_step,
)
from qvlms.experiment import (
    ChannelSpec,
    ExperimentConfig,
    correlation_coefficient,
    monte_carlo,
    noise_variance_for_snr,
    nwd,
    nwd_db,
    protocol1,
    protocol2,
    resolve_step_size,
    run_trial,
    steady_state_level,
    trial_seeds,
    whitened_gain,
)
from qvlms.experiment import _draw_trial  # noqa: F401  (shared draw order)
from qvlms.experiment import _sum_plan
from qvlms.volterra import (
    RegressorMode,
    VolterraKernel,
    expand_regressor,
    num_coefficients,
    scaling_diag,
)


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

    def test_matches_stepwise_reference(self):
        # the vectorized kernel must reproduce the scalar step functions
        cfg = small_config(iterations=300, step_size=0.02, q_values=(5.0,))
        spec = ChannelSpec(snr_db=25.0, regressor_mode=RegressorMode.ORTHONORMALIZED)
        seed = 11
        curves = run_trial(cfg, spec, seed)

        h, w0, x, z = _draw_trial(seed, spec, cfg.iterations, cfg.random_init)
        sigma = math.sqrt(spec.noise_variance(h))
        state = FilterState(w0, cfg.step_size)
        qp = QParams.uniform(5.0, 9)
        for r in range(cfg.iterations):
            window = x[r:r + 3][::-1]
            u = expand_regressor(window, spec.regressor_mode)
            desired = float((u.values * h).sum()) + z[r] * sigma
            state, _ = qvlms_step(state, u, desired, qp)
            assert np.isclose(curves.nwd[r + 1], nwd(h, state.weights),
                              rtol=1e-12, atol=0)
        assert np.array_equal(state.weights, curves.final_weights)

    @pytest.mark.parametrize("mode", list(RegressorMode))
    @pytest.mark.parametrize("algorithm", ["qvlms", "vlms"])
    @pytest.mark.parametrize("m", range(1, 9))
    def test_zero_init_final_weights_match_scalar_steps(self, m, algorithm,
                                                       mode):
        # the kernel's summation plan must reproduce the scalar prediction
        # for every K = 2 .. 44 (sequential and eight-accumulator branches)
        cfg = small_config(iterations=80, step_size=None,
                           step_size_fraction=0.05, random_init=False)
        spec = ChannelSpec(memory_length=m, snr_db=20.0, regressor_mode=mode)
        seed = 100 + m
        curves = run_trial(cfg, spec, seed, algorithm=algorithm)
        assert not curves.diverged

        h, w0, x, z = _draw_trial(seed, spec, cfg.iterations, cfg.random_init)
        assert not w0.any()
        sigma = math.sqrt(spec.noise_variance(h))
        q = cfg.q_values[0] if algorithm == "qvlms" else 1.0
        state = FilterState(w0, resolve_step_size(cfg, spec, q))
        qp = QParams.uniform(q, spec.num_coefficients)
        for r in range(cfg.iterations):
            u = expand_regressor(x[r:r + m][::-1], mode)
            desired = float((u.values * h).sum()) + z[r] * sigma
            state, _ = (qvlms_step(state, u, desired, qp) if algorithm == "qvlms"
                        else vlms_step(state, u, desired))
        assert np.array_equal(state.weights, curves.final_weights)

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
            desired = float((u.values * h).sum()) + z[r] * sigma
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
    def test_single_trial_equals_run_trial(self):
        cfg = small_config(trials=1)
        spec = ChannelSpec()
        cell = monte_carlo(cfg, spec)[0]
        trial = run_trial(cfg, spec, trial_seeds(cfg.master_seed, 1)[0])
        assert np.array_equal(cell.nwd, trial.nwd)
        assert np.array_equal(cell.mae, trial.mae)

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
            assert cell.abs_weight_error.shape == (31, 20)
            _, mean = _mean_of_trials(cfg, spec, cell)
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
def test_sum_plan_matches_numpy_row_sum(n):
    # rows of mixed magnitude and sign, plus all-(-0.0) and mixed-zero rows
    rng = np.random.default_rng(n)
    rows = rng.standard_normal((6, n)) * 10.0 ** rng.integers(-8, 9, (6, n))
    rows[1] = -0.0
    rows[2, ::2] = -0.0
    rows[2, 1::2] = 0.0
    rows[3] = rng.standard_normal(n) * 1e-300
    plan, total = _sum_plan(n)
    slots = np.empty((n + 2, len(rows)))
    slots[:n] = rows.T
    slots[n] = 0.0
    for a, b, out in plan:
        assert out not in (a, b)
        np.add(slots[a], slots[b], out=slots[out])
    expected = rows.sum(axis=-1)
    assert np.array_equal(slots[total], expected)
    assert np.array_equal(np.signbit(slots[total]), np.signbit(expected))


class TestWhitenedGain:
    @pytest.mark.parametrize("mode", list(RegressorMode))
    def test_cached_gain_is_read_only_and_equals_fresh_build(self, mode):
        spec = ChannelSpec(memory_length=4, regressor_mode=mode)
        gain = whitened_gain(spec)
        assert whitened_gain(ChannelSpec(memory_length=4, regressor_mode=mode)) is gain
        assert not gain.flags.writeable
        with pytest.raises(ValueError):
            gain[0, 0] = 1.0
        s = scaling_diag(4).entries
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


class TestStepSizeResolution:
    def test_fraction_of_bound(self):
        from qvlms.experiment import resolve_step_size
        cfg = small_config(step_size=None, step_size_fraction=0.5)
        spec = ChannelSpec(regressor_mode=RegressorMode.ORTHONORMALIZED)
        # identity autocorrelation: bound = 1 / (q + 1)
        assert np.isclose(resolve_step_size(cfg, spec, 1.0), 0.25)
        assert np.isclose(resolve_step_size(cfg, spec, 10.0), 0.5 / 11.0)

    def test_config_requires_exactly_one_rule(self):
        with pytest.raises(ValueError):
            small_config(step_size=None, step_size_fraction=None)
        with pytest.raises(ValueError):
            small_config(step_size=0.1, step_size_fraction=0.1)


class TestProtocolSmoke:
    def test_protocol1_structure(self):
        report = protocol1(5, trials=8, iterations=120, q_values=(1.0, 5.0))
        assert len(report.comparisons) == 2
        for comp in report.comparisons:
            assert comp.theory_mae.shape == comp.simulated_mae.shape
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
        assert np.allclose(ratios, 1.0 - comp.step_size, rtol=1e-10)

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
        assert np.array_equal(a.comparisons[0].simulated_mae,
                              b.comparisons[0].simulated_mae)
        assert a.comparisons[0].correlation == b.comparisons[0].correlation


def test_steady_state_level_tail_mean():
    curve = np.concatenate([np.full(90, 5.0), np.full(10, 1.0)])
    assert steady_state_level(curve, 0.1) == 1.0
