import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qvlms.volterra import (
    SQRT2,
    RegressorMode,
    VolterraKernel,
    expand_regressor,
    flatten_index,
    kernel_output,
    num_coefficients,
    quadratic_pairs,
    scaling_diag,
    squared_positions,
)


class TestFlattenIndex:
    def test_known_positions_m3(self):
        assert flatten_index(0, 0, 3) == 3
        assert flatten_index(0, 1, 3) == 4
        assert flatten_index(2, 2, 3) == 8

    def test_linear_block_comes_first(self):
        # first quadratic slot sits right after the M linear taps
        for m in (1, 2, 3, 5):
            assert flatten_index(0, 0, m) == m

    @given(m=st.integers(min_value=1, max_value=12))
    def test_bijection_onto_quadratic_slots(self, m):
        positions = [flatten_index(d, e, m) for d, e in quadratic_pairs(m)]
        assert positions == list(range(m, num_coefficients(m)))

    @pytest.mark.parametrize("d,e,m", [(1, 0, 3), (0, 3, 3), (3, 3, 3), (-1, 0, 3)])
    def test_domain_errors(self, d, e, m):
        with pytest.raises(ValueError):
            flatten_index(d, e, m)

    def test_zero_memory_rejected(self):
        with pytest.raises(ValueError):
            flatten_index(0, 0, 0)


class TestScalingDiag:
    def test_m3_entries(self):
        expected = [1, 1, 1, SQRT2, 1, 1, SQRT2, 1, SQRT2]
        assert np.array_equal(scaling_diag(3), expected)

    def test_m1_entries(self):
        assert np.array_equal(scaling_diag(1), [1.0, SQRT2])

    def test_m4_sqrt2_positions(self):
        s = scaling_diag(4)
        assert np.flatnonzero(s == SQRT2).tolist() == [4, 8, 11, 13]
        assert np.array_equal(np.flatnonzero(s == SQRT2),
                              squared_positions(4))

    def test_zero_memory_rejected(self):
        with pytest.raises(ValueError):
            scaling_diag(0)


class TestExpandRegressor:
    def test_raw_m2(self):
        u = expand_regressor([2.0, 3.0], RegressorMode.RAW)
        assert np.array_equal(u, [2, 3, 4, 6, 9])

    def test_orthonormalized_m2(self):
        u = expand_regressor([1.0, 1.0], RegressorMode.ORTHONORMALIZED)
        assert np.array_equal(u, [1, 1, 0, 1, 0])

    def test_raw_matches_double_loop_oracle(self):
        # independent oracle: explicit two-index loop over all lag pairs
        rng = np.random.default_rng(7)
        for _ in range(20):
            window = rng.standard_normal(3)
            u = expand_regressor(window, RegressorMode.RAW)
            expected = list(window)
            for d in range(3):
                for e in range(d, 3):
                    expected.append(window[d] * window[e])
            assert np.allclose(u, expected, rtol=0, atol=0)

    def test_length_is_num_coefficients(self):
        for m in range(1, 7):
            u = expand_regressor(np.ones(m))
            assert len(u) == num_coefficients(m)

    def test_orthonormalized_equals_scaled_centered_raw(self):
        # dividing a centered raw regressor elementwise by the scaling
        # entries must reproduce the orthonormalized regressor
        rng = np.random.default_rng(21)
        for m in (1, 2, 3, 5):
            window = rng.standard_normal(m)
            raw = expand_regressor(window, RegressorMode.RAW)
            raw[squared_positions(m)] -= 1.0
            expected = raw / scaling_diag(m)
            ortho = expand_regressor(window, RegressorMode.ORTHONORMALIZED)
            assert np.allclose(ortho, expected, rtol=1e-15, atol=1e-15)

    def test_bad_window_shape_rejected(self):
        with pytest.raises(ValueError):
            expand_regressor(np.ones((2, 2)))
        with pytest.raises(ValueError):
            expand_regressor([])


class TestVolterraKernel:
    def test_flat_round_trip(self):
        rng = np.random.default_rng(3)
        for m in (1, 2, 3, 4):
            flat = rng.standard_normal(num_coefficients(m))
            kernel = VolterraKernel.from_flat(flat)
            assert kernel.memory_length == m
            assert np.array_equal(kernel.flat(), flat)

    def test_from_flat_rejects_bad_lengths(self):
        for bad in (4, 6, 8, 10):  # not of the form M + M(M+1)/2
            with pytest.raises(ValueError):
                VolterraKernel.from_flat(np.zeros(bad))

    def test_quadratic_length_validated(self):
        with pytest.raises(ValueError):
            VolterraKernel(linear=np.zeros(3), quadratic=np.zeros(5))


class TestKernelOutput:
    def test_direct_substitution_m2(self):
        kernel = VolterraKernel(linear=[1.0, 0.0], quadratic=[1.0, 0.0, 0.0])
        assert kernel_output(kernel, [2.0, 5.0]) == 6.0

    def test_matches_full_double_sum_oracle(self):
        # oracle: full MxM double sum with the symmetric split of the
        # pre-summed upper-triangular quadratic coefficients
        rng = np.random.default_rng(11)
        m = 3
        for _ in range(25):
            flat = rng.standard_normal(num_coefficients(m))
            kernel = VolterraKernel.from_flat(flat)
            window = rng.standard_normal(m)

            b_full = np.zeros((m, m))
            for idx, (d, e) in enumerate(quadratic_pairs(m)):
                if d == e:
                    b_full[d, d] = kernel.quadratic[idx]
                else:
                    b_full[d, e] = kernel.quadratic[idx] / 2.0
                    b_full[e, d] = kernel.quadratic[idx] / 2.0
            expected = kernel.linear @ window
            for d in range(m):
                for e in range(m):
                    expected += b_full[d, e] * window[d] * window[e]
            assert math.isclose(kernel_output(kernel, window), expected,
                                rel_tol=1e-12, abs_tol=1e-12)

    def test_window_length_mismatch_rejected(self):
        kernel = VolterraKernel.from_flat(np.ones(9))
        with pytest.raises(ValueError):
            kernel_output(kernel, np.ones(4))


@settings(max_examples=30)
@given(m=st.integers(min_value=1, max_value=8))
def test_num_coefficients_formula(m):
    assert num_coefficients(m) == m + m * (m + 1) // 2


def test_empirical_covariance_of_orthonormalized_regressor_is_identity():
    # 1e5 i.i.d. unit-Gaussian windows; every entry within 5e-2 of identity
    rng = np.random.default_rng(2024)
    m, samples = 3, 100_000
    windows = rng.standard_normal((samples, m))
    iu, ju = np.triu_indices(m)
    quad = windows[:, iu] * windows[:, ju]
    quad[:, np.flatnonzero(iu == ju)] = (windows * windows - 1.0) / SQRT2
    u = np.concatenate([windows, quad], axis=1)
    cov = u.T @ u / samples
    assert np.max(np.abs(cov - np.eye(num_coefficients(m)))) < 5e-2
