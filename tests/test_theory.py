import numpy as np
import pytest

from qvlms.adapt import QParams, step_size_bound
from qvlms.theory import (
    build_update_matrix,
    gaussian_autocorrelation,
    gaussian_eigenvalues,
    mean_weight_error_trajectory,
)
from qvlms.volterra import RegressorMode, num_coefficients, quadratic_pairs


def _monomial_moment_autocorrelation(m):
    """Independent oracle for the raw autocorrelation.

    Each regressor entry is a monomial in independent standard normals, so
    E[u_i u_j] factorizes into single-variable moments E[x^p] with
    E[x^0..x^4] = 1, 0, 1, 0, 3.
    """
    moment = {0: 1.0, 1: 0.0, 2: 1.0, 3: 0.0, 4: 3.0}
    exponents = []
    for lag in range(m):
        e = np.zeros(m, dtype=int)
        e[lag] = 1
        exponents.append(e)
    for d, e_lag in quadratic_pairs(m):
        e = np.zeros(m, dtype=int)
        e[d] += 1
        e[e_lag] += 1
        exponents.append(e)
    k = len(exponents)
    r = np.empty((k, k))
    for i in range(k):
        for j in range(k):
            total = exponents[i] + exponents[j]
            value = 1.0
            for p in total:
                value *= moment[int(p)]
            r[i, j] = value
    return r


class TestGaussianAutocorrelation:
    def test_orthonormalized_is_identity(self):
        for m in (1, 2, 3, 5):
            r = gaussian_autocorrelation(m, RegressorMode.ORTHONORMALIZED)
            assert np.array_equal(r, np.eye(num_coefficients(m)))

    def test_raw_m1(self):
        r = gaussian_autocorrelation(1, RegressorMode.RAW)
        assert np.array_equal(r, [[1.0, 0.0], [0.0, 3.0]])

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_raw_matches_monomial_moment_oracle(self, m):
        r = gaussian_autocorrelation(m, RegressorMode.RAW)
        assert np.array_equal(r, _monomial_moment_autocorrelation(m))

    def test_raw_m1_squared_entry_matches_fourth_moment_monte_carlo(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal(1_000_000)
        fourth = x**4
        se = fourth.std() / np.sqrt(x.size)
        assert abs(fourth.mean() - 3.0) < 3 * se

    def test_raw_matches_monte_carlo_within_three_standard_errors(self):
        m = 3
        rng = np.random.default_rng(41)
        samples = 200_000
        windows = rng.standard_normal((samples, m))
        iu, ju = np.triu_indices(m)
        u = np.concatenate([windows, windows[:, iu] * windows[:, ju]], axis=1)
        estimate = u.T @ u / samples
        second = (u * u).T @ (u * u) / samples
        se = np.sqrt(np.maximum(second - estimate**2, 0.0) / samples)
        closed = gaussian_autocorrelation(m, RegressorMode.RAW)
        assert np.all(np.abs(estimate - closed) <= 3.0 * se + 1e-12)

    @pytest.mark.parametrize("mode", list(RegressorMode))
    def test_cached_matrix_is_read_only_and_equals_fresh_build(self, mode):
        r = gaussian_autocorrelation(4, mode)
        assert gaussian_autocorrelation(4, mode) is r
        assert not r.flags.writeable
        with pytest.raises(ValueError):
            r[0, 0] = 2.0
        fresh = _monomial_moment_autocorrelation(4) \
            if mode is RegressorMode.RAW else np.eye(num_coefficients(4))
        assert np.array_equal(r, fresh)

    @pytest.mark.parametrize("mode", list(RegressorMode))
    def test_cached_eigenvalues_are_read_only_and_equal_fresh_build(self, mode):
        lam = gaussian_eigenvalues(4, mode)
        assert gaussian_eigenvalues(4, mode) is lam
        assert not lam.flags.writeable
        with pytest.raises(ValueError):
            lam[0] = 2.0
        closed = ([1.0] * 10 + [2.0] * 3 + [6.0] if mode is RegressorMode.RAW
                  else [1.0] * 14)
        assert np.array_equal(lam, closed)
        fresh = np.linalg.eigvalsh(np.array(gaussian_autocorrelation(4, mode)))
        assert np.allclose(lam, fresh, rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("mode", list(RegressorMode))
    @pytest.mark.parametrize("m", range(1, 9))
    def test_spectrum_is_exact(self, m, mode):
        # raw: 1 (K - M times), 2 (M - 1 times) and M + 2; orthonormalized: 1
        lam = gaussian_eigenvalues(m, mode)
        k = num_coefficients(m)
        raw = mode is RegressorMode.RAW
        expected = ([1.0] * (k - m) + [2.0] * (m - 1) + [m + 2.0] if raw
                    else [1.0] * k)
        assert np.array_equal(lam, expected)
        assert lam[-1] == (m + 2.0 if raw else 1.0)
        assert not lam.flags.writeable
        fresh = np.linalg.eigvalsh(np.array(gaussian_autocorrelation(m, mode)))
        assert np.allclose(lam, fresh, rtol=0.0, atol=1e-13)

    def test_symmetric_positive_definite(self):
        for m in (1, 2, 3, 4):
            r = gaussian_autocorrelation(m, RegressorMode.RAW)
            assert np.array_equal(r, r.T)
            assert np.linalg.eigvalsh(r).min() > 0


class TestBuildUpdateMatrix:
    def test_identity_input_unit_q(self):
        qp = QParams.uniform(1.0, 9)
        assert np.array_equal(build_update_matrix(qp, np.eye(9)), np.eye(9))

    def test_identity_input_uniform_q_scales_diagonally(self):
        qp = QParams.uniform(5.0, 4)
        assert np.array_equal(build_update_matrix(qp, np.eye(4)), 3.0 * np.eye(4))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            build_update_matrix(QParams.uniform(1.0, 3), np.eye(4))


class TestMeanWeightErrorTrajectory:
    def test_zeroth_element_is_initial_error(self):
        init = np.array([1.0, -2.0, 0.5])
        out = mean_weight_error_trajectory(init, 0.1, np.eye(3), 0)
        assert out.shape == (1, 3)
        assert np.array_equal(out[0], init)

    def test_identity_matrix_gives_scalar_geometric_decay(self):
        init = np.ones(4)
        out = mean_weight_error_trajectory(init, 0.25, np.eye(4), 10)
        for t in range(11):
            assert np.allclose(out[t], 0.75**t, rtol=1e-12)

    def test_matches_explicit_matrix_power_oracle(self):
        rng = np.random.default_rng(4)
        k = 6
        a = rng.standard_normal((k, k))
        init = rng.standard_normal(k)
        mu = 0.03
        out = mean_weight_error_trajectory(init, mu, a, 5)
        power = np.linalg.matrix_power(np.eye(k) - mu * a, 5)
        assert np.allclose(out[5], power @ init, rtol=1e-12, atol=1e-12)

    def test_uniform_q_orthonormalized_ratio(self):
        # identity input autocorrelation: componentwise geometric with
        # ratio 1 - mu (q + 1) / 2
        q, mu, k = 5.0, 0.1, 9
        a = build_update_matrix(QParams.uniform(q, k), np.eye(k))
        init = np.linspace(1.0, 2.0, k)
        out = mean_weight_error_trajectory(init, mu, a, 20)
        ratio = 1.0 - mu * (q + 1.0) / 2.0
        for t in range(21):
            assert np.allclose(out[t], init * ratio**t, rtol=1e-12)

    def test_negative_iterations_rejected(self):
        with pytest.raises(ValueError):
            mean_weight_error_trajectory(np.ones(2), 0.1, np.eye(2), -1)


class TestSpectralStability:
    """Trajectory norm vanishes iff all eigenvalues of I - mu A lie strictly
    inside the unit circle."""

    def _norms(self, mu, q, k=9, iters=200):
        a = build_update_matrix(QParams.uniform(q, k), np.eye(k))
        out = mean_weight_error_trajectory(np.ones(k), mu, a, iters)
        radius = np.max(np.abs(np.linalg.eigvals(np.eye(k) - mu * a)))
        return np.linalg.norm(out, axis=1), radius

    @pytest.mark.parametrize("q", [1.0, 5.0, 10.0])
    def test_contracts_inside_unit_circle(self, q):
        bound = 1.0 / (q + 1.0)  # unit eigenvalues
        norms, radius = self._norms(0.9 * bound, q)
        assert radius < 1.0
        assert norms[-1] < 1e-10 * norms[0]

    @pytest.mark.parametrize("q", [1.0, 5.0, 10.0])
    def test_diverges_outside_unit_circle(self, q):
        # beyond the exact contraction threshold mu = 2 / lambda_max(A)
        mu = 2.2 / ((q + 1.0) / 2.0)
        norms, radius = self._norms(mu, q)
        assert radius > 1.0
        assert norms[-1] > 1e10 * norms[0]
        assert np.all(np.diff(norms) > 0)


class TestMonotoneQEffect:
    def test_larger_q_contracts_faster_while_stable(self):
        # per-coefficient contraction |1 - mu (q+1)/2| strictly decreases
        # in q as long as mu (q+1)/2 < 1
        mu, k = 0.05, 9
        init = np.ones(k)
        prev = None
        for q in (1.0, 3.0, 5.0, 10.0):
            assert mu * (q + 1.0) / 2.0 < 1.0
            a = build_update_matrix(QParams.uniform(q, k), np.eye(k))
            out = mean_weight_error_trajectory(init, mu, a, 50)
            magnitudes = np.abs(out[1:]).max(axis=1)
            if prev is not None:
                assert np.all(magnitudes < prev)
            prev = magnitudes


class TestGaussianStability:
    """The bound and the mean-recursion matrix of the paper's M = 3 filter."""

    def test_raw_m3_largest_eigenvalue_and_bound(self):
        lam = gaussian_eigenvalues(3, RegressorMode.RAW)
        assert np.isclose(lam.max(), 5.0)
        assert np.isclose(step_size_bound(QParams.uniform(1.0, 9), lam), 0.1)

    def test_orthonormalized_update_matrix(self):
        qp = QParams.uniform(5.0, 9)
        mode = RegressorMode.ORTHONORMALIZED
        a = build_update_matrix(qp, gaussian_autocorrelation(3, mode))
        assert np.array_equal(a, 3.0 * np.eye(9))
        assert np.isclose(np.max(np.linalg.eigvals(a).real), 3.0)
        assert np.isclose(step_size_bound(qp, gaussian_eigenvalues(3, mode)),
                          1.0 / 6.0)


@pytest.mark.parametrize("call", [
    num_coefficients,
    gaussian_autocorrelation,
    gaussian_eigenvalues,
    lambda n: mean_weight_error_trajectory(np.ones(2), 0.1, np.eye(2), n),
], ids=["num_coefficients", "gaussian_autocorrelation", "gaussian_eigenvalues",
        "mean_weight_error_trajectory"])
def test_a_memory_length_or_count_must_be_an_integer(call):
    # operator.index takes the value, as ChannelSpec does: a float or a
    # string is not truncated or parsed
    for value in (2.5, "3"):
        with pytest.raises(ValueError, match="must be an integer"):
            call(value)
    assert np.array_equal(np.asarray(call(np.int64(3))), np.asarray(call(3)))
