"""Gaussian-mixture feature generation and noiseless aggregation.

Each sensor k observes the shared ground-truth feature vector through its
projection: f_k = P_k g + w_k with w_k ~ N(0, C).  The fusion target is
the arithmetic mean of the sensor features.
"""

from __future__ import annotations

import numpy as np


def sample_label(num_classes, rng):
    """Draw a class label under the uniform prior."""
    return int(rng.integers(num_classes))


def sample_local_features(scenario, label, rng):
    """Draw all K sensor views P_k mu_l + w_k, w_k ~ N(0, C), at once; rows
    are independent given the label."""
    z = rng.standard_normal((scenario.num_sensors, scenario.feature_dim))
    return scenario.sensor_centroids[:, label, :] + z @ scenario.C_factor.T


def aggregate_noiseless(local_features):
    """Average the sensor views; this is the ideal fusion output.

    Given the label, the average is Gaussian with mean P_bar mu_l and
    covariance C / K.
    """
    features = np.asarray(local_features, dtype=float)
    if features.ndim != 2 or features.shape[0] < 1:
        raise ValueError("expected a nonempty (K, M) array of sensor features")
    # add.reduce then divide is what ndarray.mean does, bit for bit, without
    # its per-call dispatch
    return np.add.reduce(features, axis=0) / features.shape[0]
