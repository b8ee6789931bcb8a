"""Monte Carlo simulator for multi-view sensing over analog multi-access channels.

The package models a server that fuses Gaussian-mixture sensor features
arriving over a Rayleigh SIMO channel, either by over-the-air aggregation
or per-sensor orthogonal access, classifies the fused vector, and tracks
the resulting sensing uncertainty against closed-form surrogates and
asymptotic laws.
"""

from .channel import (
    AggregationOutcome,
    ChannelRealization,
    adaptive_receive,
    aircomp_effective_snr,
    aircomp_receive,
    min_beam_alignment,
    orthogonal_effective_snr,
    orthogonal_receive,
    realization_from_matrix,
    sample_channel,
    scaled_min_alignment,
    zf_norms_sq,
)
from .errors import ConfigError, InfeasibleAccessError, NumericalError
from .feature_model import (
    FeatureSample,
    aggregate_noiseless,
    sample_feature_set,
    sample_label,
    sample_local_feature,
    sample_local_features,
)
from .inference import (
    PIPELINES,
    ClassifierModel,
    TrialBatch,
    TrialRecord,
    build_classifier,
    estimate_accuracy,
    estimate_uncertainty,
    local_discrimination_gain,
    ml_classify,
    pairwise_separation,
    pairwise_separation_matrix,
    posterior_entropy,
    posterior_probabilities,
    run_trials,
    simulate_trial,
)
from .scenario import (
    Scenario,
    ScenarioConfig,
    build_scenario,
    expected_observation_matrix,
    generate_centroids,
    generate_observation_matrix,
    isotropic_observation_mean,
    load_config,
    parse_config_text,
    validate_scenario,
    with_sensing_scale,
    without_sensing_noise,
)
from .theory import (
    KAPPA_LOWER,
    SeparationSummary,
    SurrogateParams,
    asymptotic_separation,
    bound_offset,
    channel_loss_factor,
    crossing_probability,
    exp_integral_e1,
    exp_integral_e1_scaled,
    expected_loss_factor_bounds,
    expected_loss_r,
    kappa_alternative,
    kappa_upper,
    ks_statistic,
    scaled_alignment_cdf,
    separation_summary,
    surrogate_uncertainty_full,
    surrogate_uncertainty_simplified,
    uncertainty_bounds,
    zf_norm_cdf,
)

__version__ = "0.1.0"
