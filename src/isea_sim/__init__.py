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
    air_snrs,
    aircomp_effective_snr,
    aircomp_receive,
    best_access,
    min_beam_alignment,
    orth_snrs,
    orthogonal_effective_snr,
    orthogonal_receive,
    realization_from_matrix,
    sample_channel,
    zf_norms_sq,
)
from .errors import ConfigError, InfeasibleAccessError, NumericalError
from .feature_model import aggregate_noiseless, sample_label, sample_local_features
from .inference import (
    PIPELINES,
    TrialBatch,
    TrialRecord,
    ml_classify,
    posterior_probabilities,
    run_trials,
    simulate_trial,
)
from .scenario import (
    Scenario,
    ScenarioConfig,
    build_scenario,
    generate_centroids,
    generate_observation_matrix,
    load_config,
    parse_config_text,
    validate_scenario,
)
from .theory import (
    KAPPA_LOWER,
    asymptotic_separation,
    bound_offset,
    channel_loss_factor,
    crossing_probability,
    exp_integral_e1,
    exp_integral_e1_scaled,
    expected_loss_factor_bounds,
    expected_loss_r,
    kappa_upper,
    ks_statistic,
    mean_separation,
    pairwise_separation_matrix,
    scaled_alignment_cdf,
    surrogate_uncertainty_full,
    surrogate_uncertainty_simplified,
    uncertainty_bounds,
    zf_norm_cdf,
)

__version__ = "0.1.0"
