"""Private online detection of community changes in censored block models."""

from .cdp import (
    StabilityRelease,
    distance_to_instability,
    release_assuming_stable,
    stability_release,
    subsample_stability_release,
)
from .detect import (
    DetectorConfig,
    DetectorState,
    PrechangeEstimate,
    StoppingRule,
    adaptive_step_unknown_params,
    cdp_step,
    cdp_stop,
    cdp_threshold,
    estimate_prechange_cdp,
    estimate_prechange_ldp,
    init_detector,
    ldp_step,
    ldp_stop,
)
from .harness import (
    ExperimentConfig,
    SimReport,
    one_shot_sweep,
    run_arl_trials,
    run_delay_trials,
    run_trajectory,
)
from .io import (
    ingest_stream,
    load_experiment_json,
    read_graph_csv,
    scenario_from_config,
    write_graph_csv,
    write_stream_csv,
    write_sweep_csv,
    write_trajectory_csv,
)
from .ldp import (
    PrivacyBudget,
    RrProbabilities,
    ldp_recovery_margin,
    ldp_threshold_rhs,
    perturb_graph,
    perturbed_params,
)
from .likelihood import (
    MleParams,
    flip_gap,
    kl_divergence,
    log_likelihood,
    log_likelihood_ratio,
    mle_params,
    mle_params_pooled,
    sensitivity_constant,
)
from .model import (
    CbmParams,
    ChangeScenario,
    TernaryGraph,
    canonical,
    correlation,
    err,
    format_labels,
    hamming,
    n_pairs,
    parse_labels,
    quad_form,
    random_labels,
    sample_cbm,
    validate_labels,
)
from .recovery import (
    RecoveryResult,
    ml_exhaustive,
    sdp_estimate,
    spectral_estimate,
)
from .theory import (
    BoundReport,
    InfoNumbers,
    arl_lower_cdp,
    arl_lower_ldp,
    cdp_delay_lower,
    cdp_threshold_for_arl,
    converse_epsilon_lower,
    info_numbers,
    ldp_kl_upper,
    min_window,
    min_window_terms,
    recovery_thresholds,
    theorem_boundary_a,
    wadd_prediction,
    window_crossover_epsilon,
)

__version__ = "0.1.0"
