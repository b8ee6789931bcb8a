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

# projections are drawn and checked in chunks of at most 1 MiB of M x M
# blocks, so their temporaries stay small beside P's K M^2 floats
_CHUNK_BYTES = 2**20


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
        if parse is float and not np.isfinite(values[key]):
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
    # near the largest float an entry may overflow to inf, which
    # build_scenario rejects
    with np.errstate(over="ignore"):
        return centroid_scale * rng.standard_normal((num_classes, feature_dim))


def _chunks(K, M):
    """Slices of the K sensors in order, _CHUNK_BYTES of M x M blocks or one block each."""
    step = max(1, _CHUNK_BYTES // (8 * M * M))
    return [slice(k, k + step) for k in range(0, K, step)]


def generate_observation_matrix(z, rank):
    """Rank-r orthogonal projections U U^T (..., M, M) from standard normals
    z (..., M, M), U the top-r left singular vectors of each M x M block, so
    each range is a uniformly random r-dimensional subspace; each block's
    projection has the bits it has alone."""
    M = np.shape(z)[-1]
    if np.shape(z)[-2:] != (M, M) or not 1 <= rank <= M:
        raise ValueError(f"need square blocks and a rank in [1, M], got {np.shape(z)} and {rank}")
    # a copy of the basis lets the singular vectors go before the products
    basis = np.linalg.svd(z)[0][..., :rank].copy()
    P = basis @ basis.mT
    return 0.5 * (P + P.mT)


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


def _seeded_centroids(config):
    """The config's class centroids, drawn from their own stream."""
    rng = substream(config.master_seed, STREAM_CENTROIDS)
    return generate_centroids(config.feature_dim, config.num_classes, config.centroid_scale, rng)


def symbol_variance_bound(config):
    """K (tr C + tr Sigma_c), an upper bound on the sum K tr C +
    sum_k tr(P_k Sigma_c) that nu^2 is over K M, from the seeded centroids
    alone, since tr(P_k Sigma_c) <= tr Sigma_c for a projection P_k: no
    projection is drawn.  Inf or NaN where the bound overflows."""
    centroids = _seeded_centroids(config)
    with np.errstate(over="ignore", invalid="ignore"):
        centered = centroids - centroids.mean(axis=0)
        spread = np.sum(centered * centered) / config.num_classes
        return config.num_sensors * (config.feature_dim * config.sensing_covariance_scale + spread)


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
    M, L, K, r = config.feature_dim, config.num_classes, config.num_sensors, config.observation_rank

    if centroids is None:
        centroids = _seeded_centroids(config)
    else:
        centroids = np.asarray(centroids, dtype=float)
        if centroids.shape != (L, M):
            raise ConfigError(f"centroids override must have shape {(L, M)}")
    if not np.all(np.isfinite(centroids)):
        raise ConfigError("class centroids are not finite")

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

    # one block of M x M normals per sensor, each chunk's call continuing the stream
    rng = substream(config.master_seed, STREAM_OBSERVATION)
    P = np.empty((K, M, M))
    for chunk in _chunks(K, M):
        P[chunk] = generate_observation_matrix(rng.standard_normal(P[chunk].shape), r)
    P_bar = P.mean(axis=0)

    # centroids near the largest float leave nu_sq non-finite, which
    # validate_scenario rejects, and may overflow their projections too
    with np.errstate(over="ignore", invalid="ignore"):
        centered = centroids - centroids.mean(axis=0)
        centroid_cov = centered.T @ centered / L
        # trace(P_k Sigma P_k) = trace(P_k Sigma) for idempotent P_k
        sensor_power = np.einsum("kij,ji->k", P, centroid_cov)
        nu_sq = float((np.trace(C) * K + sensor_power.sum()) / (K * M))
        proj_centroids_eig = (centroids @ P_bar.T) @ C_evecs
        sensor_centroids = np.einsum("kij,lj->kli", P, centroids)

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
        proj_centroids_eig=proj_centroids_eig,
        sensor_centroids=sensor_centroids,
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
    r, M = scenario.config.observation_rank, scenario.config.feature_dim
    # a chunk of projections at once, the first failing one named by its
    # first failing check; a NaN fails
    for chunk in _chunks(len(P), M):
        Pc = P[chunk]
        checks = {
            "is not symmetric": np.abs(Pc - Pc.mT).max(axis=(-2, -1)) < 1e-12,
            "is not idempotent": np.abs(Pc @ Pc - Pc).max(axis=(-2, -1)) < 1e-9,
            f"does not have trace {r}": np.abs(np.trace(Pc, axis1=-2, axis2=-1) - r) < 1e-9,
        }
        failed = ~np.logical_and.reduce(list(checks.values()))
        if failed.any():
            k = int(np.argmax(failed))
            failure = next(m for m, ok in checks.items() if not ok[k])
            raise ConfigError(f"projection {chunk.start + k} {failure}")
    if not np.max(np.abs(P.mean(axis=0) - scenario.P_bar)) < 1e-12:
        raise ConfigError("P_bar is not the mean of the sensor projections")
    V = scenario.C_evecs
    # an inverse that overflows fails the identity check below
    with np.errstate(over="ignore", invalid="ignore"):
        C_inv = V @ ((1.0 / scenario.C_evals)[:, None] * V.T)
    if not np.max(np.abs(C_inv @ scenario.C - np.eye(M))) < 1e-9:
        raise ConfigError("covariance inverse fails the identity check")
    if not np.isfinite(scenario.nu_sq):
        raise ConfigError(f"transmit symbol variance {scenario.nu_sq} is not finite")
    if not scenario.nu_sq > 0:
        raise ConfigError("transmit symbol variance must be positive")
