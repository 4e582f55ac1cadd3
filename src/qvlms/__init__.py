"""q-gradient Volterra LMS: adaptive filtering, convergence theory and a
Monte-Carlo channel-estimation harness."""

from qvlms.adapt import (
    FilterState,
    QParams,
    matrix_gain_step,
    predict,
    qvlms_step,
    step_size_bound,
    vlms_step,
)
from qvlms.experiment import (
    AveragedCurves,
    ChannelSpec,
    ExperimentConfig,
    Protocol1Report,
    Protocol2Report,
    TrialCurves,
    correlation_coefficient,
    monte_carlo,
    noise_variance_for_snr,
    nwd,
    nwd_db,
    protocol1,
    protocol2,
    run_trial,
)
from qvlms.theory import (
    build_update_matrix,
    gaussian_autocorrelation,
    mean_weight_error_trajectory,
)
from qvlms.volterra import (
    RegressorMode,
    VolterraKernel,
    expand_regressor,
    flatten_index,
    kernel_output,
    num_coefficients,
    scaling_diag,
)

__version__ = "0.5.0"
