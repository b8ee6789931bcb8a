"""Problem-instance synthesis: class geometry, observation models, power budget.

A scenario bundles everything that stays fixed during a Monte Carlo run:
the Gaussian-mixture class centroids, the sensing-noise covariance, one
random rank-r orthogonal projection per sensor, and the derived transmit
statistics (symbol variance and channel noise power).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .streams import STREAM_CENTROIDS, STREAM_OBSERVATION, substream

@dataclass(frozen=True)
class ScenarioConfig:
    """Free parameters of a sensing scenario.

    Attributes:
        feature_dim: length M of the feature vectors.
        num_classes: number L of mixture components (classes), at least 2.
        num_sensors: number K of sensing devices.
        num_antennas: number N of receive antennas at the server.
        observation_rank: rank r of each sensor's observation projection.
        sensing_covariance_scale: c in the default sensing covariance c*I.
        centroid_scale: standard deviation of the i.i.d. centroid entries.
        transmit_snr_db: transmit SNR gamma in dB; channel noise power is
            sigma^2 = 1 / 10**(gamma_db / 10) under a unit power budget.
        master_seed: 64-bit seed from which every random stream is derived.
        mc_trials: default Monte Carlo trial count per sweep point.
    """

    feature_dim: int = 10
    num_classes: int = 10
    num_sensors: int = 10
    num_antennas: int = 12
    observation_rank: int = 1
    sensing_covariance_scale: float = 0.1
    centroid_scale: float = 1.0
    transmit_snr_db: float = 10.0
    master_seed: int = 20240
    mc_trials: int = 10000

    def __post_init__(self):
        if self.feature_dim < 1:
            raise ConfigError("feature_dim must be at least 1")
        if self.num_classes < 2:
            raise ConfigError("num_classes must be at least 2")
        if self.num_sensors < 1:
            raise ConfigError("num_sensors must be at least 1")
        if self.num_antennas < 1:
            raise ConfigError("num_antennas must be at least 1")
        if not 1 <= self.observation_rank <= self.feature_dim:
            raise ConfigError(
                "observation_rank must lie in [1, feature_dim], got "
                f"{self.observation_rank} with feature_dim={self.feature_dim}"
            )
        if not self.sensing_covariance_scale > 0:
            raise ConfigError("sensing_covariance_scale must be positive")
        if not self.centroid_scale > 0:
            raise ConfigError("centroid_scale must be positive")
        with np.errstate(over="ignore"):
            noise_power = np.float64(10.0) ** (-self.transmit_snr_db / 10.0)
        if not np.isfinite(noise_power):
            raise ConfigError(
                f"transmit_snr_db = {self.transmit_snr_db:g} gives a channel noise power "
                "10**(-dB/10) that is not finite"
            )
        if not 0 <= self.master_seed < 2**64:
            raise ConfigError("master_seed must fit in an unsigned 64-bit value")
        if self.mc_trials < 1:
            raise ConfigError("mc_trials must be at least 1")


def parse_config_text(text):
    """Parse flat ``key = value`` text into a :class:`ScenarioConfig`.

    Lines are UTF-8, ``#`` starts a comment, blank lines are ignored.
    Keys must match :class:`ScenarioConfig` field names exactly; anything
    else raises :class:`ConfigError`.
    """
    # annotations are postponed, so each type is the string "int" or "float"
    field_types = {field.name: field.type for field in dataclasses.fields(ScenarioConfig)}
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate configuration key {key!r}")
        if key not in field_types:
            raise ConfigError(f"line {lineno}: unknown configuration key {key!r}")
        parse, expected = (int, "an integer") if field_types[key] == "int" else (float, "a number")
        try:
            values[key] = parse(value)
        except ValueError:
            raise ConfigError(f"line {lineno}: {key} expects {expected}, got {value!r}") from None
        if not np.isfinite(float(values[key])):
            raise ConfigError(f"line {lineno}: {key} must be finite")
    return ScenarioConfig(**values)


def load_config(path):
    """Read a config file and return the parsed :class:`ScenarioConfig`."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_config_text(text)


def generate_centroids(feature_dim, num_classes, centroid_scale, rng):
    """Draw class centroids with i.i.d. normal entries of the given scale."""
    if num_classes < 2:
        raise ValueError("need at least two classes")
    if centroid_scale < 0:
        raise ValueError("centroid_scale must be nonnegative")
    return centroid_scale * rng.standard_normal((num_classes, feature_dim))


def generate_observation_matrix(feature_dim, rank, rng):
    """Draw one rank-r orthogonal projection.

    The projection is U U^T where U holds the top-r left singular vectors
    of an i.i.d. standard normal feature_dim x feature_dim matrix, so its
    range is a uniformly random r-dimensional subspace.
    """
    if not 1 <= rank <= feature_dim:
        raise ValueError(f"rank must lie in [1, {feature_dim}], got {rank}")
    G = rng.standard_normal((feature_dim, feature_dim))
    U, _, _ = np.linalg.svd(G)
    basis = U[:, :rank]
    P = basis @ basis.T
    return 0.5 * (P + P.T)


@dataclass(frozen=True, eq=False)
class Scenario:
    """A fully materialized problem instance.

    Beyond the quantities named in the config, the scenario caches the
    factorizations used on every trial: a Cholesky factor of C for feature
    sampling, the eigendecomposition of C for fast posterior evaluation,
    and the per-sensor projected centroids.
    """

    config: ScenarioConfig
    centroids: np.ndarray        # (L, M)
    C: np.ndarray                # (M, M) sensing-noise covariance
    C_factor: np.ndarray         # (M, M) lower Cholesky factor of C
    C_evals: np.ndarray          # (M,) eigenvalues of C, ascending
    C_evecs: np.ndarray          # (M, M) matching orthonormal eigenvectors
    P: np.ndarray                # (K, M, M) per-sensor observation projections
    P_bar: np.ndarray            # (M, M) average projection
    proj_centroids_eig: np.ndarray   # (L, M) rows P_bar mu_l in C's eigenbasis
    sensor_centroids: np.ndarray     # (K, L, M) rows P_k mu_l
    nu_sq: float                 # per-symbol transmit variance
    sigma_sq: float              # channel noise power

    @property
    def feature_dim(self):
        return self.config.feature_dim

    @property
    def num_classes(self):
        return self.config.num_classes

    @property
    def num_sensors(self):
        return self.config.num_sensors

    @property
    def num_antennas(self):
        return self.config.num_antennas

    @property
    def transmit_snr(self):
        """Linear transmit SNR gamma; infinite when the channel noise power is zero."""
        return np.inf if self.sigma_sq == 0 else 1.0 / self.sigma_sq


def build_scenario(config, centroids=None, covariance=None):
    """Materialize a :class:`Scenario` from a config.

    The function is pure: the same config always yields a bit-identical
    scenario, regardless of any other random activity in the process.

    Args:
        config: a validated :class:`ScenarioConfig`.
        centroids: optional (L, M) override of the synthesized centroids.
        covariance: optional symmetric positive definite override of the
            default isotropic sensing covariance.  The config file format
            only expresses the isotropic case; overrides are for tests
            that need structured covariances or pinned class geometry.
    """
    M = config.feature_dim
    L = config.num_classes
    K = config.num_sensors

    if centroids is None:
        rng = substream(config.master_seed, STREAM_CENTROIDS)
        centroids = generate_centroids(M, L, config.centroid_scale, rng)
    else:
        centroids = np.asarray(centroids, dtype=float)
        if centroids.shape != (L, M):
            raise ConfigError(f"centroids override must have shape {(L, M)}")

    if covariance is None:
        C = config.sensing_covariance_scale * np.eye(M)
    else:
        C = np.asarray(covariance, dtype=float)
        if C.shape != (M, M):
            raise ConfigError(f"covariance override must have shape {(M, M)}")
        if not np.allclose(C, C.T, atol=1e-12):
            raise ConfigError("covariance override must be symmetric")
    try:
        C_factor = np.linalg.cholesky(C)
    except np.linalg.LinAlgError:
        raise ConfigError("sensing covariance is not positive definite") from None
    C_evals, C_evecs = np.linalg.eigh(C)

    rng = substream(config.master_seed, STREAM_OBSERVATION)
    P = np.empty((K, M, M))
    for k in range(K):
        P[k] = generate_observation_matrix(M, config.observation_rank, rng)
    P_bar = P.mean(axis=0)

    centered = centroids - centroids.mean(axis=0)
    centroid_cov = centered.T @ centered / L
    # trace(P_k Sigma P_k) = trace(P_k Sigma) for idempotent P_k
    sensor_power = np.einsum("kij,ji->k", P, centroid_cov)
    nu_sq = float((np.trace(C) * K + sensor_power.sum()) / (K * M))

    sigma_sq = float(10.0 ** (-config.transmit_snr_db / 10.0))

    scenario = Scenario(
        config=config,
        centroids=centroids,
        C=C,
        C_factor=C_factor,
        C_evals=C_evals,
        C_evecs=C_evecs,
        P=P,
        P_bar=P_bar,
        proj_centroids_eig=(centroids @ P_bar.T) @ C_evecs,
        sensor_centroids=np.einsum("kij,lj->kli", P, centroids),
        nu_sq=nu_sq,
        sigma_sq=sigma_sq,
    )
    validate_scenario(scenario)
    return scenario


def validate_scenario(scenario):
    """Check the structural invariants of a built scenario.

    Raises :class:`ConfigError` on violation, a NaN included.  Covers
    projection symmetry, idempotency and trace, the averaged projection,
    the covariance inverse, and a finite, positive transmit variance.
    """
    P = scenario.P
    r = scenario.config.observation_rank
    M = scenario.config.feature_dim
    for k in range(P.shape[0]):
        Pk = P[k]
        if not np.max(np.abs(Pk - Pk.T)) < 1e-12:
            raise ConfigError(f"projection {k} is not symmetric")
        if not np.max(np.abs(Pk @ Pk - Pk)) < 1e-9:
            raise ConfigError(f"projection {k} is not idempotent")
        if not abs(np.trace(Pk) - r) < 1e-9:
            raise ConfigError(f"projection {k} does not have trace {r}")
    if not np.max(np.abs(P.mean(axis=0) - scenario.P_bar)) < 1e-12:
        raise ConfigError("P_bar is not the mean of the sensor projections")
    V = scenario.C_evecs
    C_inv = V @ ((1.0 / scenario.C_evals)[:, None] * V.T)
    if not np.max(np.abs(C_inv @ scenario.C - np.eye(M))) < 1e-9:
        raise ConfigError("covariance inverse fails the identity check")
    if not np.isfinite(scenario.nu_sq):
        raise ConfigError(f"transmit symbol variance {scenario.nu_sq} is not finite")
    if not scenario.nu_sq > 0:
        raise ConfigError("transmit symbol variance must be positive")
