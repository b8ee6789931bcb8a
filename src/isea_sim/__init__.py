"""Monte Carlo simulator for multi-view sensing over analog multi-access channels.

The package models a server that fuses Gaussian-mixture sensor features
arriving over a Rayleigh SIMO channel, either by over-the-air aggregation
or per-sensor orthogonal access, classifies the fused vector, and tracks
the resulting sensing uncertainty against closed-form surrogates and
asymptotic laws.

Each exported name resolves on first use (PEP 562), so importing the
package loads no submodule, numpy or scipy: the CLI can choose its BLAS
thread count before either loads.
"""

import importlib

# submodule -> the names the package exports from it
_EXPORTS = {
    "channel": "air_snrs best_access min_beam_alignment orth_snrs principal_pair "
    "sample_channel zf_norms_sq",
    "errors": "ConfigError InfeasibleAccessError NumericalError",
    "feature_model": "aggregate_noiseless sample_label sample_local_features",
    "inference": "PIPELINES TrialBatch TrialRecord run_trials simulate_trial",
    "scenario": "Scenario ScenarioConfig build_scenario generate_centroids "
    "generate_observation_matrix load_config parse_config_text validate_scenario",
    "theory": "KAPPA_LOWER asymptotic_separation channel_loss_factor crossing_probability "
    "exp_integral_e1_scaled expected_loss_factor_bounds expected_loss_r ks_statistic "
    "mean_separation pairwise_separation_matrix scaled_alignment_cdf "
    "surrogate_uncertainty_full uncertainty_bounds zf_norm_cdf",
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = list(_SOURCE)
__version__ = "0.1.0"


def __getattr__(name):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
