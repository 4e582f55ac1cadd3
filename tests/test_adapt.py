import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qvlms.adapt import (
    FilterState,
    QParams,
    matrix_gain_step,
    predict,
    qvlms_step,
    step_size_bound,
    vlms_step,
)
from qvlms.volterra import RegressorMode, expand_regressor


class TestQParams:
    def test_gain_formula(self):
        qp = QParams(np.array([1.0, 5.0, 10.0]))
        assert np.array_equal(qp.g, [1.0, 3.0, 5.5])

    def test_unit_q_gives_unit_gain(self):
        assert np.array_equal(QParams.uniform(1.0, 9).g, np.ones(9))

    def test_nonpositive_q_rejected(self):
        with pytest.raises(ValueError):
            QParams(np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            QParams(np.array([-2.0]))


class TestPredict:
    def test_zero_weights(self):
        state = FilterState.zeros(5, 0.1)
        _, y = predict(state, np.arange(5.0))
        assert y == 0.0

    def test_basis_weight_selects_entry(self):
        u = np.array([3.0, -1.0, 7.0])
        for i in range(3):
            w = np.zeros(3)
            w[i] = 1.0
            _, y = predict(FilterState(w, 0.1), u)
            assert y == u[i]

    @pytest.mark.parametrize("k", [2, 5, 9, 44, 135])
    def test_matches_elementwise_sum_oracle(self, k):
        # the products are added left to right, the first one first; rows
        # of mixed magnitude and sign, and rows of signed zeros: all -0.0
        # products add to -0.0
        rng = np.random.default_rng(k)
        rows = rng.standard_normal((5, k)) * 10.0 ** rng.integers(-8, 9, (5, k))
        rows[3] = -0.0
        rows[4, ::2] = -0.0
        rows[4, 1::2] = 0.0
        for w in rows:
            u = np.abs(rng.standard_normal(k))
            _, y = predict(FilterState(w, 0.1), u)
            oracle = w[0] * u[0]
            for a, b in zip(w[1:], u[1:]):
                oracle += a * b
            assert y == oracle
            assert np.signbit(y) == np.signbit(oracle)

    def test_counter_increments(self):
        state = FilterState.zeros(9, 0.1)
        state, _ = predict(state, np.ones(9))
        assert (state.mul_count, state.add_count) == (9, 8)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            predict(FilterState.zeros(3, 0.1), np.ones(4))


class TestQvlmsStep:
    def test_zero_error_leaves_weights_unchanged(self):
        w = np.array([1.0, -2.0])
        state = FilterState(w, 0.5)
        u = np.array([3.0, 1.0])
        desired = float(w @ u)
        new, e = qvlms_step(state, u, desired, QParams.uniform(4.0, 2))
        assert e == 0.0
        assert np.array_equal(new.weights, w)

    def test_scalar_substitution(self):
        state = FilterState.zeros(1, 0.1)
        new, e = qvlms_step(state, np.array([2.0]), 1.0, QParams.uniform(1.0, 1))
        assert e == 1.0
        assert np.allclose(new.weights, [0.2])

    def test_accepts_regressor_objects(self):
        u = expand_regressor([1.0, 2.0], RegressorMode.RAW)
        state = FilterState.zeros(5, 0.05)
        new, e = qvlms_step(state, u, 1.0, QParams.uniform(2.0, 5))
        assert e == 1.0
        assert new.iteration == 1

    def test_non_finite_inputs_rejected(self):
        state = FilterState.zeros(2, 0.1)
        qp = QParams.uniform(1.0, 2)
        with pytest.raises(ValueError):
            qvlms_step(state, np.array([np.nan, 1.0]), 1.0, qp)
        with pytest.raises(ValueError):
            qvlms_step(state, np.array([1.0, 1.0]), np.inf, qp)
        # state untouched on failure
        assert np.array_equal(state.weights, np.zeros(2))

    def test_cost_accounting_per_step(self):
        k = 9
        state = FilterState.zeros(k, 0.01)
        qp = QParams.uniform(5.0, k)
        rng = np.random.default_rng(0)
        n = 50
        for _ in range(n):
            state, _ = qvlms_step(state, rng.standard_normal(k),
                                  rng.standard_normal(), qp)
        assert state.mul_count == n * (3 * k + 1)
        assert state.add_count == n * 2 * k
        assert state.iteration == n

    def test_counters_monotone(self):
        state = FilterState.zeros(3, 0.1)
        qp = QParams.uniform(2.0, 3)
        rng = np.random.default_rng(1)
        prev = (0, 0)
        for _ in range(10):
            state, _ = qvlms_step(state, rng.standard_normal(3),
                                  rng.standard_normal(), qp)
            assert (state.mul_count, state.add_count) >= prev
            prev = (state.mul_count, state.add_count)


class TestVlmsEquivalence:
    def _reference_vlms(self, w0, mu, inputs, desireds):
        # independently coded plain LMS loop used as the oracle
        w = w0.copy()
        trajectory = [w.copy()]
        for u, d in zip(inputs, desireds):
            e = d - float(np.add.accumulate(w * u)[-1])
            w = w + (mu * e) * u
            trajectory.append(w.copy())
        return np.array(trajectory)

    def test_qvlms_with_unit_q_matches_independent_vlms(self):
        rng = np.random.default_rng(99)
        k, n, mu = 9, 1000, 0.01
        inputs = rng.standard_normal((n, k))
        desireds = rng.standard_normal(n)
        w0 = rng.standard_normal(k)

        oracle = self._reference_vlms(w0, mu, inputs, desireds)

        state = FilterState(w0, mu)
        qp = QParams.uniform(1.0, k)
        for r in range(n):
            state, _ = qvlms_step(state, inputs[r], desireds[r], qp)
            assert np.array_equal(state.weights, oracle[r + 1])

    def test_vlms_step_equals_qvlms_unit_q_bitwise(self):
        rng = np.random.default_rng(123)
        k, n, mu = 9, 1000, 0.005
        inputs = rng.standard_normal((n, k))
        desireds = rng.standard_normal(n)
        w0 = rng.standard_normal(k)

        s1 = FilterState(w0, mu)
        s2 = FilterState(w0, mu)
        qp = QParams.uniform(1.0, k)
        for r in range(n):
            s1, e1 = vlms_step(s1, inputs[r], desireds[r])
            s2, e2 = qvlms_step(s2, inputs[r], desireds[r], qp)
            assert e1 == e2
            assert np.array_equal(s1.weights, s2.weights)
        assert s1.mul_count == s2.mul_count
        assert s1.add_count == s2.add_count


class TestMatrixGainStep:
    def test_identity_gain_matches_vlms(self):
        rng = np.random.default_rng(17)
        k, mu = 5, 0.02
        w0 = rng.standard_normal(k)
        u = rng.standard_normal(k)
        d = rng.standard_normal()
        s_diag, e_diag = vlms_step(FilterState(w0, mu), u, d)
        s_mat, e_mat = matrix_gain_step(FilterState(w0, mu), u, d, np.eye(k))
        assert e_diag == e_mat
        assert np.allclose(s_diag.weights, s_mat.weights, rtol=1e-15)

    def test_gain_shape_validated(self):
        with pytest.raises(ValueError):
            matrix_gain_step(FilterState.zeros(3, 0.1), np.ones(3), 1.0,
                             np.eye(4))


class TestStepSizeBound:
    def test_unit_q_unit_eigenvalues(self):
        assert step_size_bound(QParams.uniform(1.0, 4), np.ones(4)) == 0.5

    def test_q_ten(self):
        assert np.isclose(step_size_bound(QParams.uniform(10.0, 3), np.ones(3)),
                          1.0 / 11.0)

    def test_mixed_q_max_over_products(self):
        qp = QParams(np.array([1.0, 5.0, 10.0]))
        lam = np.ones(3)
        # oracle: explicit max over (q_i + 1) * lambda_i
        oracle = 1.0 / max((q + 1.0) * l for q, l in zip(qp.q, lam))
        assert step_size_bound(qp, lam) == oracle
        assert np.isclose(step_size_bound(qp, lam), 1.0 / 11.0)

    @given(q=st.floats(min_value=0.1, max_value=50.0),
           lam_max=st.floats(min_value=0.1, max_value=20.0))
    def test_uniform_bound_closed_form(self, q, lam_max):
        lam = np.array([lam_max / 2.0, lam_max])
        qp = QParams.uniform(q, 2)
        assert np.isclose(step_size_bound(qp, lam), 1.0 / ((q + 1.0) * lam_max))

    def test_nonpositive_eigenvalue_rejected(self):
        with pytest.raises(ValueError):
            step_size_bound(QParams.uniform(1.0, 2), np.array([1.0, 0.0]))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            step_size_bound(QParams.uniform(1.0, 2), np.ones(3))
