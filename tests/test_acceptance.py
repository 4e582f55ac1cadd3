"""Acceptance suite: one test (or test pair) per criterion, full scale.

Each criterion prints a single pass/fail line. Two criteria carry
nominal parameter values that are mathematically or statistically
unattainable; those tests are kept exactly as written down, marked
strict-xfail so the defect stays visible, and each is paired with a
companion test that demonstrates the underlying property at a usable
operating point (the xfail reasons carry the full analysis).

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import math
import time

import numpy as np
import pytest

from qvlms.adapt import FilterState, QParams, qvlms_step, step_size_bound, vlms_step
from qvlms.cli import main as cli_main
from qvlms.experiment import (
    ChannelSpec,
    ExperimentConfig,
    monte_carlo,
    protocol1,
    protocol2,
    run_trial,
    steady_state_level,
)
from qvlms.theory import build_update_matrix, gaussian_autocorrelation
from qvlms.volterra import SQRT2, RegressorMode, num_coefficients

M = 3
K = num_coefficients(M)
SEED = 20260808


def _report(tag: str, ok: bool, detail: str, expected_fail: bool = False):
    status = "PASS" if ok else ("FAIL (expected)" if expected_fail else "FAIL")
    print(f"\n[ACCEPTANCE {tag}] {status} - {detail}")


# ---------------------------------------------------------------------------
# criterion 1: q = 1 reduction
# ---------------------------------------------------------------------------

def test_criterion1_q1_reduction():
    """q-VLMS with q=1 and plain VLMS produce identical trajectories over
    100 seeded runs (M=3, 2000 iterations) in under a minute."""
    t0 = time.monotonic()
    config = ExperimentConfig(iterations=2000, trials=1, master_seed=SEED,
                              step_size=2e-3, q_values=(1.0,))
    channel = ChannelSpec(memory_length=M, snr_db=20.0)
    identical = 0
    for seed in range(100):
        a = run_trial(config, channel, seed, algorithm="qvlms", q_value=1.0)
        b = run_trial(config, channel, seed, algorithm="vlms")
        assert np.array_equal(a.nwd, b.nwd)
        assert np.array_equal(a.abs_weight_error, b.abs_weight_error)
        assert np.array_equal(a.final_weights, b.final_weights)
        identical += 1
    elapsed = time.monotonic() - t0
    ok = identical == 100 and elapsed < 60.0
    _report("1", ok, f"{identical}/100 seeds bit-identical, {elapsed:.1f}s")
    assert ok


# ---------------------------------------------------------------------------
# criterion 2: analysis validation (protocol 1)
# ---------------------------------------------------------------------------

@pytest.mark.xfail(
    strict=True,
    reason="mu = 0.25/lambda_max(A) means an effective per-mode step of "
    "0.25, which is mean-square unstable for K = 9 (the Gaussian "
    "independence-theory threshold is ~0.2 and the Volterra regressor is "
    "heavier-tailed): every trial diverges, so the required correlation "
    "cannot be measured.",
)
def test_criterion2_analysis_validation_at_pinned_step():
    """Nominal step rule mu = 0.25 / lambda_max(A), identity input matrix."""
    report = protocol1(SEED, trials=1000, iterations=2000, snr_db=20.0,
                       q_values=(1.0, 5.0, 10.0),
                       regressor_mode=RegressorMode.ORTHONORMALIZED,
                       mu_fraction=0.25,
                       mu_rule="fraction_of_update_eigenvalue")
    corrs = [c.correlation for c in report.comparisons]
    ok = all(c >= 0.995 for c in corrs) and report.average_correlation >= 0.995
    _report("2-pinned", ok,
            f"correlations {['%.4f' % c for c in corrs]}", expected_fail=True)
    assert ok


def test_criterion2_analysis_validation():
    """Correlation between simulated and predicted mean-absolute-weight-
    error curves is >= 0.995 per q and on average (M=3, 20 dB, 1000
    trials, q in {1,5,10}) at a mean-square-stable step, in under 5 min."""
    t0 = time.monotonic()
    report = protocol1(SEED, trials=1000, iterations=2000, snr_db=20.0,
                       q_values=(1.0, 5.0, 10.0), mu_fraction=0.05)
    elapsed = time.monotonic() - t0
    corrs = {c.simulated.q_value: c.correlation for c in report.comparisons}
    diverged = sum(c.simulated.diverged for c in report.comparisons)
    ok = (all(c >= 0.995 for c in corrs.values())
          and report.average_correlation >= 0.995
          and len(corrs) == 3
          and elapsed < 300.0)
    shown = {q: f"{c:.5f}" for q, c in corrs.items()}
    _report("2", ok, f"correlations {shown} avg "
                     f"{report.average_correlation:.5f}, {diverged} diverged, "
                     f"{elapsed:.1f}s")
    assert ok


# ---------------------------------------------------------------------------
# criterion 3: step-size bound
# ---------------------------------------------------------------------------

def _theory_norms(q: float, mu: float, iters: int = 300) -> np.ndarray:
    qp = QParams.uniform(q, K)
    a = build_update_matrix(qp, np.eye(K))  # identity input matrix
    v = np.ones(K)
    step = np.eye(K) - mu * a
    norms = [np.linalg.norm(v)]
    for _ in range(iters):
        v = step @ v
        norms.append(np.linalg.norm(v))
    return np.array(norms)


def test_criterion3_theory_contracts_below_bound():
    """Theory recursion norm contracts strictly monotonically at
    mu = 0.9 * bound for uniform q in {1, 5, 10}, identity input."""
    details = []
    ok = True
    for q in (1.0, 5.0, 10.0):
        bound = step_size_bound(QParams.uniform(q, K), np.ones(K))
        norms = _theory_norms(q, 0.9 * bound)
        ok &= bool(np.all(np.diff(norms) < 0.0)) and norms[-1] < 1e-10
        details.append(f"q={q:g}: norm {norms[0]:.1f}->{norms[-1]:.2e}")
    _report("3-contraction", ok, "; ".join(details))
    assert ok


@pytest.mark.xfail(
    strict=True,
    reason="at mu = 2.2/((q+1) lambda_max) the recursion matrix "
    "I - mu diag((q+1)/2) has spectral radius |1 - 1.1| = 0.1 < 1, so the "
    "trajectory contracts; divergence requires mu > 2/lambda_max(A) "
    "= 4/((q+1) lambda_max). The 2.2 multiplier treats (q+1) lambda as "
    "the recursion eigenvalue, twice its actual value.",
)
def test_criterion3_theory_divergence_at_stated_multiplier():
    """Nominal divergence point mu = 2.2 / ((q + 1) * lambda_max)."""
    ok = True
    details = []
    for q in (1.0, 5.0, 10.0):
        mu = 2.2 / ((q + 1.0) * 1.0)
        norms = _theory_norms(q, mu)
        diverged = norms[-1] > norms[0]
        ok &= diverged
        details.append(f"q={q:g}: norm ratio {norms[-1] / norms[0]:.2e}")
    _report("3-divergence-as-stated", ok, "; ".join(details), expected_fail=True)
    assert ok


def test_criterion3_theory_diverges_beyond_true_threshold():
    """The recursion does diverge once mu exceeds 2 / lambda_max(A); the
    stated bound is conservative by a factor of 4, not 2."""
    ok = True
    details = []
    for q in (1.0, 5.0, 10.0):
        lam_a = (q + 1.0) / 2.0  # largest eigenvalue of A for identity input
        norms = _theory_norms(q, 2.2 / lam_a)
        ok &= bool(np.all(np.diff(norms) > 0.0)) and norms[-1] > 1e10 * norms[0]
        details.append(f"q={q:g}: norm ratio {norms[-1] / norms[0]:.1e}")
    _report("3-divergence-true-threshold", ok, "; ".join(details))
    assert ok


@pytest.mark.xfail(
    strict=True,
    reason="mu = 0.9 * bound gives an effective per-mode step of 0.45, far "
    "beyond mean-square stability for K = 9: essentially every trial "
    "trips the divergence guard, so convergence cannot be confirmed.",
)
def test_criterion3_simulated_convergence_at_stated_step():
    """Nominal step 0.9 * bound: simulated mean NWD at 1000 trials,
    identity input autocorrelation."""
    ok = True
    details = []
    for q in (1.0, 5.0, 10.0):
        bound = step_size_bound(QParams.uniform(q, K), np.ones(K))
        config = ExperimentConfig(iterations=1000, trials=1000,
                                  master_seed=SEED, step_size=0.9 * bound,
                                  q_values=(q,))
        channel = ChannelSpec(memory_length=M, snr_db=20.0,
                              regressor_mode=RegressorMode.ORTHONORMALIZED)
        try:
            cell = monte_carlo(config, channel)[0]
        except RuntimeError as exc:
            _report("3-sim-as-stated", False, str(exc), expected_fail=True)
            raise
        steady = steady_state_level(cell.nwd)
        converged = steady < cell.nwd[0] and cell.diverged < cell.trials // 2
        ok &= converged
        details.append(f"q={q:g}: steady {steady:.3e} vs initial "
                       f"{cell.nwd[0]:.3e}, {cell.diverged}/1000 diverged")
    _report("3-sim-as-stated", ok, "; ".join(details), expected_fail=True)
    assert ok


def test_criterion3_simulated_convergence_below_bound():
    """Simulated mean NWD at 1000 trials converges at a mean-square-stable
    step below the bound (0.25 * bound, raw input)."""
    ok = True
    details = []
    channel = ChannelSpec(memory_length=M, snr_db=20.0)
    for q in (1.0, 5.0, 10.0):
        config = ExperimentConfig(iterations=1500, trials=1000,
                                  master_seed=SEED, step_size_fraction=0.25,
                                  q_values=(q,))
        cell = monte_carlo(config, channel)[0]
        steady = steady_state_level(cell.nwd)
        ok &= steady < 0.1 * cell.nwd[0] and cell.diverged == 0
        details.append(f"q={q:g}: initial {cell.nwd[0]:.2f} -> steady "
                       f"{steady:.2e}, {cell.diverged} diverged")
    _report("3-sim-below-bound", ok, "; ".join(details))
    assert ok


# ---------------------------------------------------------------------------
# criterion 4: q advantage (protocol 2)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def protocol2_report():
    t0 = time.monotonic()
    report = protocol2(SEED, trials=1000, iterations=2500,
                       snr_db_values=(10.0, 20.0, 30.0),
                       q_values=(2.0, 5.0, 10.0), step_size=1e-3)
    report_elapsed = time.monotonic() - t0
    return report, report_elapsed


def test_criterion4_q_advantage(protocol2_report):
    """q-VLMS (q >= 2) reaches fixed NWD targets in strictly fewer
    iterations than VLMS at every SNR, and the average steady-state dB
    advantage is positive (exact magnitude not binding), in under 10 min."""
    report, elapsed = protocol2_report
    targets = (0.5, 0.1, 0.05)
    ordering_ok = True
    for snr in report.config.snr_db_values:
        vlms_curve = report.cell("vlms", snr).nwd
        for q in report.config.q_values:
            q_curve = report.cell("qvlms", snr, q).nwd
            for target in targets:
                vlms_cross = int(np.argmax(vlms_curve <= target))
                q_cross = int(np.argmax(q_curve <= target))
                reached = vlms_curve[vlms_cross] <= target \
                    and q_curve[q_cross] <= target
                ordering_ok &= reached and q_cross < vlms_cross
    advantages = report.advantages_db
    sign_ok = all(v > 0.0 for v in advantages.values()) \
        and report.average_advantage_db > 0.0
    ok = ordering_ok and sign_ok and elapsed < 600.0
    _report("4", ok,
            f"avg advantage {report.average_advantage_db:+.2f} dB, "
            f"per-cell {[f'{k}: {v:+.1f}' for k, v in sorted(advantages.items())]}, "
            f"crossing ordering {'strict' if ordering_ok else 'violated'}, "
            f"{elapsed:.1f}s")
    assert ok


# ---------------------------------------------------------------------------
# criterion 5: orthonormalization
# ---------------------------------------------------------------------------

def test_criterion5_orthonormalization():
    """Empirical covariance of the orthonormalized regressor over 1e5
    windows is the identity within 5e-2 per entry; raw-mode closed-form
    autocorrelation matches Monte Carlo within 3 standard errors."""
    rng = np.random.default_rng(SEED)
    samples = 100_000
    windows = rng.standard_normal((samples, M))
    iu, ju = np.triu_indices(M)
    diag_cols = np.flatnonzero(iu == ju)

    quad = windows[:, iu] * windows[:, ju]
    u_raw = np.concatenate([windows, quad], axis=1)
    quad_ortho = quad.copy()
    quad_ortho[:, diag_cols] = (windows * windows - 1.0) / SQRT2
    u_ortho = np.concatenate([windows, quad_ortho], axis=1)

    cov = u_ortho.T @ u_ortho / samples
    max_dev = float(np.max(np.abs(cov - np.eye(K))))

    estimate = u_raw.T @ u_raw / samples
    second = (u_raw**2).T @ (u_raw**2) / samples
    se = np.sqrt(np.maximum(second - estimate**2, 0.0) / samples)
    closed = gaussian_autocorrelation(M, RegressorMode.RAW)
    z = np.abs(estimate - closed) / np.where(se > 0, se, np.inf)
    max_z = float(z.max())

    ok = max_dev < 5e-2 and max_z <= 3.0
    _report("5", ok, f"max |cov - I| = {max_dev:.4f} (< 0.05), "
                     f"max |z| = {max_z:.2f} (<= 3)")
    assert ok


# ---------------------------------------------------------------------------
# criterion 6: complexity accounting
# ---------------------------------------------------------------------------

def test_criterion6_complexity_accounting():
    """After any n-step run the counters read exactly n(3K+1)
    multiplications and n * 2K additions."""
    rng = np.random.default_rng(SEED)
    ok = True
    details = []
    for n, stepper in ((137, "qvlms"), (512, "vlms")):
        state = FilterState.zeros(K, 1e-3)
        qp = QParams.uniform(7.0, K)
        for _ in range(n):
            u = rng.standard_normal(K)
            d = rng.standard_normal()
            if stepper == "qvlms":
                state, _ = qvlms_step(state, u, d, qp)
            else:
                state, _ = vlms_step(state, u, d)
        ok &= state.mul_count == n * (3 * K + 1)
        ok &= state.add_count == n * 2 * K
        details.append(f"{stepper} n={n}: {state.mul_count} muls, "
                       f"{state.add_count} adds")
    _report("6", ok, "; ".join(details) + f" (K={K})")
    assert ok


# ---------------------------------------------------------------------------
# criterion 7: noiseless identification
# ---------------------------------------------------------------------------

def test_criterion7_noiseless_identification():
    """With zero noise and a stable step, every algorithm reaches final
    NWD below 1e-6 on each of 10 seeds."""
    channel = ChannelSpec(memory_length=M, snr_db=math.inf)
    config = ExperimentConfig(iterations=3000, trials=1, master_seed=SEED,
                              step_size=5e-3, q_values=(5.0,))
    worst = 0.0
    ok = True
    for seed in range(10):
        for algorithm in ("vlms", "qvlms", "whitened"):
            curves = run_trial(config, channel, seed, algorithm=algorithm)
            ok &= not curves.diverged and curves.nwd[-1] < 1e-6
            worst = max(worst, float(curves.nwd[-1]))
    _report("7", ok, f"worst final NWD {worst:.2e} over 10 seeds x 3 algorithms")
    assert ok


# ---------------------------------------------------------------------------
# criterion 8: determinism
# ---------------------------------------------------------------------------

def test_criterion8_manifest_rerun_determinism(tmp_path):
    """protocol1 and protocol2 re-run from their manifests produce
    byte-identical CSV outputs."""
    ok = True
    details = []
    specs = [
        ("protocol1", ["protocol1", "--seed", "77", "--trials", "50",
                       "--iterations", "300", "--q", "1", "5"],
         ("protocol1_curves.csv", "protocol1_summary.csv")),
        ("protocol2", ["protocol2", "--seed", "77", "--trials", "50",
                       "--iterations", "300", "--q", "5", "--snr", "10", "20"],
         ("protocol2_curves.csv", "protocol2_summary.csv",
          "protocol2_gaps.csv")),
    ]
    for name, args, files in specs:
        out_a = tmp_path / f"{name}_a"
        out_b = tmp_path / f"{name}_b"
        assert cli_main(args + ["--out", str(out_a)]) == 0
        assert cli_main(["rerun", str(out_a / "manifest.json"),
                         "--out", str(out_b)]) == 0
        same = all((out_a / f).read_bytes() == (out_b / f).read_bytes()
                   for f in files)
        ok &= same
        details.append(f"{name}: {'byte-identical' if same else 'MISMATCH'}")
    _report("8", ok, "; ".join(details))
    assert ok
