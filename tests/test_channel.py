"""Rayleigh SIMO channel draws and the three receive pipelines."""

import dataclasses

import numpy as np
import pytest

import isea_sim as iz
from isea_sim.streams import substream


def _scenario(**overrides):
    base = dict(
        feature_dim=5,
        num_classes=5,
        num_sensors=10,
        num_antennas=12,
        observation_rank=1,
        sensing_covariance_scale=0.1,
        transmit_snr_db=10.0,
        master_seed=20240,
        mc_trials=1000,
    )
    base.update(overrides)
    return iz.build_scenario(iz.ScenarioConfig(**base))


def _channel(num_antennas, num_sensors, rng, draws=None):
    """One channel matrix H (N x K), or a stack of ``draws`` of them drawn
    with one call, which holds the same values as one call per draw."""
    shape = (2, num_antennas, num_sensors)
    return iz.sample_channel(rng.standard_normal(shape if draws is None else (draws, *shape)))


def _draw(num_antennas, num_sensors, rng):
    """One channel draw with its principal pair."""
    return iz.realization_from_matrix(_channel(num_antennas, num_sensors, rng))


def _views(scen, label, rng):
    """One draw of the K sensor views of ``label``."""
    return iz.sample_local_features(
        scen, label, rng.standard_normal((scen.num_sensors, scen.feature_dim))
    )


def _align_phase(x, ref):
    """Rotate x by the global phase that best matches ref."""
    inner = np.vdot(ref, x)
    return x * np.exp(-1j * np.angle(inner))


def _receive_beam(ch):
    """Oracle: the principal left singular vector v = H q1 / sqrt(lambda1)."""
    return ch.H @ ch.q1 / np.sqrt(ch.lambda1)


def _zf_matrix(H):
    """Oracle: the zero-forcing receive beams B = H (H^H H)^-1 as columns."""
    return np.linalg.solve(H.conj().T @ H, H.conj().T).conj().T


def _symbol_level_aircomp(scen, ch, local_features, rng):
    """Oracle: simulate the over-the-air receiver symbol by symbol.

    Scaled complex antenna noise is projected onto the transmit-inversion
    beam b = sqrt(nu^2 / min_k |v^H h_k|^2) v, with v and the alignment
    formed here rather than taken from the library.
    """
    K = ch.num_sensors
    f_bar = iz.aggregate_noiseless(local_features)
    v = _receive_beam(ch)
    b = v * np.sqrt(scen.nu_sq / np.min(np.abs(v.conj() @ ch.H) ** 2))
    shape = (ch.num_antennas, f_bar.shape[0])
    Z = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * np.sqrt(
        scen.sigma_sq / 2.0
    )
    return f_bar + (Z.conj().T @ b).real / K


# tall, square and wide arrays, plus single-antenna and single-sensor edges
_SHAPES = [(2, 5), (5, 5), (9, 4), (1, 3), (6, 1), (6, 4), (3, 5), (12, 10), (20, 10)]


# ------------------------------------------------------------- channel draws


def test_scalar_channel_eigenstructure():
    ch = _draw(1, 1, substream(0, 0))
    h = ch.H[0, 0]
    assert abs(ch.lambda1 - abs(h) ** 2) < 1e-12
    # phase convention: the single entry of q1 is +1, so the receive beam
    # is the unit-modulus phase of h
    np.testing.assert_allclose(ch.q1, [1.0 + 0j], atol=1e-12)
    np.testing.assert_allclose(_receive_beam(ch), [h / abs(h)], atol=1e-12)


def test_entry_variance_is_unit():
    rng = substream(1, 0)
    acc = 0.0
    for _ in range(100):
        ch = _draw(100, 100, rng)
        acc += np.mean(np.abs(ch.H) ** 2)
    assert abs(acc / 100 - 1.0) < 0.01


def test_stacked_channels_match_each_draw_alone():
    # the trial engine forms H from a stack of normals (n, 2, N, K); each
    # row must equal its normals taken alone, and the complex division by
    # sqrt(2) of the separate real and imaginary draws, bit for bit
    rng = substream(1, 1)
    for N, K in _SHAPES:
        z = rng.standard_normal((3, 4, 2, N, K))
        H = iz.sample_channel(z)
        assert H.shape == (3, 4, N, K) and H.dtype == complex
        for i, j in np.ndindex(3, 4):
            np.testing.assert_array_equal(H[i, j], iz.sample_channel(z[i, j]))
            re, im = z[i, j]
            np.testing.assert_array_equal(H[i, j], (re + 1j * im) / np.sqrt(2.0))


def test_principal_pair_identity_up_to_phase():
    for i, (N, K) in enumerate([(2, 5), (5, 5), (9, 4), (1, 3), (6, 1)]):
        ch = _draw(N, K, substream(2, 0, point_index=i))
        v = _receive_beam(ch)
        assert abs(np.linalg.norm(v) - 1) < 1e-9
        assert abs(np.linalg.norm(ch.q1) - 1) < 1e-9
        # H^H v = sqrt(lambda1) q1 closes the singular pair
        rhs = np.sqrt(ch.lambda1) * ch.q1
        assert np.max(np.abs(ch.H.conj().T @ v - rhs)) < 1e-7
        # and v is the principal left singular vector of an independent SVD
        U, svals, _ = np.linalg.svd(ch.H)
        assert abs(svals[0] ** 2 - ch.lambda1) < 1e-9 * ch.lambda1
        assert np.max(np.abs(_align_phase(U[:, 0], v) - v)) < 1e-7


def test_top_eigenvalue_dominates():
    ch = _draw(6, 4, substream(3, 0))
    evals = np.linalg.eigvalsh(ch.H.conj().T @ ch.H)
    assert ch.lambda1 >= evals[-1] - 1e-9 * evals[-1]


def test_large_matrix_eigenvalue_concentration():
    # lambda1 / K approaches (1 + sqrt(N/K))^2 = 4 for square matrices.
    rng = substream(20240, 31)
    vals = np.array([_draw(200, 200, rng).lambda1 / 200 for _ in range(100)])
    assert np.all(np.abs(vals / 4.0 - 1.0) < 0.10)


def _assert_rows_equal_draws_alone(H, scen, zero_forcing):
    """Every statistic of the stack H (n, N, K) against the same statistic
    of each H[i] taken alone, bit for bit; ``zero_forcing`` False leaves
    orthogonal access out (gamma_aoa = -inf), as for N < K."""
    stack = iz.realization_from_matrix(H)
    alignments = iz.min_beam_alignment(stack)
    gamma_air, degenerate = iz.air_snrs(stack, scen)
    gamma_aoa = np.full(H.shape[0], -np.inf)
    if zero_forcing:
        norms = iz.zf_norms_sq(H)
        gamma_aoa = iz.orth_snrs(norms, scen)
    best, air_wins = iz.best_access(gamma_air, gamma_aoa)
    for i, h in enumerate(H):
        one = iz.realization_from_matrix(h)
        assert iz.min_beam_alignment(one) == alignments[i]
        air_one = iz.air_snrs(one, scen)
        assert air_one == (gamma_air[i], degenerate[i])
        aoa_one = -np.inf
        if zero_forcing:
            np.testing.assert_array_equal(iz.zf_norms_sq(h), norms[i])
            aoa_one = iz.orth_snrs(iz.zf_norms_sq(h), scen)
            assert aoa_one == gamma_aoa[i]
        assert iz.best_access(air_one[0], aoa_one) == (best[i], air_wins[i])
    return alignments, degenerate


def test_realization_from_matrix_matches_sampler():
    # the sampler returns H alone; a stack of draws, with any leading shape,
    # gets each draw's own principal pair bit for bit, also above the
    # full-eigensolver size (66-row Grams take the subset eigensolver), and
    # each channel statistic of a stack equals that draw's alone, also for
    # a draw whose column 1 is zero (on tall arrays the eigensolver leaves
    # a rounding-level q1 entry there)
    rng = substream(4, 0)
    for N, K in _SHAPES + [(70, 66), (66, 70)]:
        H = np.stack([_channel(N, K, rng) for _ in range(3)])
        assert H.shape == (3, N, K) and H.dtype == complex
        stacked = iz.realization_from_matrix(H[:, None])
        assert stacked.lambda1.shape == (3, 1) and stacked.q1.shape == (3, 1, K)
        for i in range(3):
            one = iz.realization_from_matrix(H[i])
            assert isinstance(one.lambda1, float)
            assert one.lambda1 == stacked.lambda1[i, 0]
            np.testing.assert_array_equal(one.q1, stacked.q1[i, 0])
        scen = _scenario(num_sensors=K, num_antennas=N)
        _assert_rows_equal_draws_alone(H, scen, zero_forcing=N >= K)
        if K > 1:
            H[1, :, 1] = 0.0
            alignments, degenerate = _assert_rows_equal_draws_alone(H, scen, zero_forcing=False)
            assert alignments[1] == 0.0 and degenerate.tolist() == [False, True, False]
    with pytest.raises(ValueError):
        iz.realization_from_matrix(np.ones(3))


def test_min_alignment_equals_projection_onto_receive_beam():
    # lambda1 min|q1|^2 against min_k |v^H h_k|^2 with v formed here
    rng = substream(24, 0)
    for N, K in _SHAPES:
        for _ in range(5):
            ch = _draw(N, K, rng)
            oracle = np.min(np.abs(_receive_beam(ch).conj() @ ch.H) ** 2)
            assert iz.min_beam_alignment(ch) == pytest.approx(oracle, rel=1e-9)


# --------------------------------------------------------- beam-aligned SNR


def test_scalar_link_effective_snr():
    scen = _scenario(num_sensors=1, num_antennas=1)
    ch = _draw(1, 1, substream(5, 0))
    snr = iz.aircomp_effective_snr(ch, scen)
    gamma = 10.0
    expected = 2 * gamma * abs(ch.H[0, 0]) ** 2 / scen.nu_sq
    assert abs(snr.gamma_air - expected) / expected < 1e-9


def test_effective_snr_quadratic_homogeneity():
    scen = _scenario(num_sensors=4, num_antennas=6)
    ch = _draw(6, 4, substream(6, 0))
    base = iz.aircomp_effective_snr(ch, scen).gamma_air
    for c in (0.5, 2.0, 7.0):
        scaled = iz.aircomp_effective_snr(iz.realization_from_matrix(c * ch.H), scen)
        assert abs(scaled.gamma_air - c * c * base) / (c * c * base) < 1e-9


def test_effective_snr_power_budget_identity():
    # The min-quadratic-form expression must match 2 K^2 / (sigma^2 |b|^2)
    # on every draw, tall or wide, with the transmit inversion's squared
    # norm |b|^2 = nu^2 / min_k |v^H h_k|^2 taken from the explicit beam v.
    rng = substream(7, 0)
    for i in range(50):
        K = 2 + i % 7
        N = 1 + (i * 3) % 11
        scen = _scenario(num_sensors=K, num_antennas=N)
        ch = _draw(N, K, rng)
        snr = iz.aircomp_effective_snr(ch, scen)
        v = _receive_beam(ch)
        b_norm_sq = scen.nu_sq / np.min(np.abs(v.conj() @ ch.H) ** 2)
        alt = 2 * K * K / (scen.sigma_sq * b_norm_sq)
        assert abs(snr.gamma_air - alt) / alt < 1e-6


def test_degenerate_channel_flagged():
    # Silencing one sensor makes its beam gain exactly zero.  The
    # eigensolver can leave |q1_k|^2 at rounding level (1e-31) on such a
    # column, so this runs many draws over tall, square and wide arrays.
    rng = substream(8, 0)
    for N, K in [(6, 4), (3, 5), (12, 10), (20, 10), (5, 5)]:
        scen = _scenario(num_sensors=K, num_antennas=N)
        for t in range(30):
            H = _channel(N, K, rng)
            H[:, t % K] = 0.0
            ch = iz.realization_from_matrix(H)
            assert iz.min_beam_alignment(ch) == 0.0
            snr = iz.aircomp_effective_snr(ch, scen)
            assert snr.degenerate
            assert snr.gamma_air == 0.0
    feats = _views(scen, 0, substream(8, 1))
    out = iz.aircomp_receive(scen, ch, feats, substream(8, 2))
    assert out.effective_snr == 0.0
    assert np.all(np.isnan(out.f_tilde))


# ----------------------------------------------------------- aircomp receive


def test_noiseless_channel_receive_is_exact():
    scen = _scenario(transmit_snr_db=float("inf"))
    ch = _draw(12, 10, substream(9, 0))
    feats = _views(scen, 1, substream(9, 1))
    out = iz.aircomp_receive(scen, ch, feats, substream(9, 2))
    assert np.array_equal(out.f_tilde, iz.aggregate_noiseless(feats))
    assert out.effective_snr == np.inf


def test_receive_covariance_at_fixed_channel():
    scen = _scenario()
    ch = _draw(12, 10, substream(10, 0))
    gamma_air = iz.aircomp_effective_snr(ch, scen).gamma_air
    rng = substream(10, 1)
    n = 100000
    out = np.empty((n, 5))
    for i in range(n):
        feats = _views(scen, 2, rng)
        out[i] = iz.aircomp_receive(scen, ch, feats, rng).f_tilde
    ref = scen.C / 10 + np.eye(5) / gamma_air
    S = np.cov(out, rowvar=False)
    assert np.linalg.norm(S - ref) / np.linalg.norm(ref) < 0.05


def test_literal_matrix_noise_matches_direct_draw():
    # The per-antenna complex noise pushed through the beamformer must be
    # distribution-identical to the direct isotropic draw.
    scen = _scenario(num_sensors=3, num_antennas=4)
    ch = _draw(4, 3, substream(11, 0))
    rng_a = substream(11, 1)
    rng_b = substream(11, 2)
    n = 100000
    direct = np.empty((n, 5))
    literal = np.empty((n, 5))
    for i in range(n):
        feats = _views(scen, 0, rng_a)
        direct[i] = iz.aircomp_receive(scen, ch, feats, rng_a).f_tilde
        feats_b = _views(scen, 0, rng_b)
        literal[i] = _symbol_level_aircomp(scen, ch, feats_b, rng_b)
    Sd = np.cov(direct, rowvar=False)
    Sl = np.cov(literal, rowvar=False)
    assert np.linalg.norm(Sl - Sd) / np.linalg.norm(Sd) < 0.05
    assert np.max(np.abs(literal.mean(0) - direct.mean(0))) < 0.01


# ------------------------------------------------------------- zero forcing


def test_zf_on_orthonormal_columns_returns_channel():
    rng = substream(12, 0)
    G = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
    Q, _ = np.linalg.qr(G)
    ch = iz.realization_from_matrix(Q)
    B = _zf_matrix(ch.H)
    np.testing.assert_allclose(B, Q, atol=1e-10)
    np.testing.assert_allclose(iz.zf_norms_sq(ch.H), np.ones(4), atol=1e-10)


def test_zf_defining_property():
    rng = substream(13, 0)
    for i in range(20):
        K = 2 + i % 5
        N = K + i % 4  # includes the square case
        ch = _draw(N, K, rng)
        B = _zf_matrix(ch.H)
        gram = B.conj().T @ ch.H
        assert np.max(np.abs(gram - np.eye(K))) < 1e-8
        # the Gram-inverse diagonal is the column norms of that B
        np.testing.assert_allclose(
            iz.zf_norms_sq(ch.H), np.sum(np.abs(B) ** 2, axis=0), rtol=1e-9
        )


def test_zf_norms_match_beam_columns_at_square_edge():
    # N = K leaves no spare antenna: the norms are largest and the Gram
    # matrix worst conditioned, which is where the two routes could part.
    rng = substream(13, 1)
    for K in (1, 2, 5, 10, 30):
        for _ in range(5):
            ch = _draw(K, K, rng)
            B = _zf_matrix(ch.H)
            assert np.max(np.abs(B.conj().T @ ch.H - np.eye(K))) < 1e-6
            np.testing.assert_allclose(
                iz.zf_norms_sq(ch.H), np.sum(np.abs(B) ** 2, axis=0), rtol=1e-7
            )


def test_zf_infeasible_when_undersized():
    ch = _draw(3, 5, substream(14, 0))
    with pytest.raises(iz.InfeasibleAccessError):
        iz.zf_norms_sq(ch.H)
    with pytest.raises(iz.InfeasibleAccessError):
        iz.orthogonal_effective_snr(ch, _scenario(num_sensors=5, num_antennas=3))


def test_zf_singular_gram_reported():
    H = _channel(5, 3, substream(15, 0))
    H[:, 1] = 0.0
    with pytest.raises(iz.NumericalError):
        iz.zf_norms_sq(H)


def test_zf_norm_distribution():
    # |b_k|^2 follows a scaled inverse chi-square with 2(N-K+1) degrees
    # of freedom; spot-check the exact reference CDF by simulation.
    vals = iz.zf_norms_sq(_channel(16, 10, substream(16, 0), draws=4000))[:, 0]
    ks = iz.ks_statistic(vals, iz.zf_norm_cdf(16, 10))
    assert ks < 0.03
    assert abs(vals.mean() - 1 / 6) / (1 / 6) < 0.05


def test_zf_norm_inverse_exponential_edge():
    # At N = K the degrees of freedom collapse to 2 and the norm is a
    # plain inverse exponential with CDF exp(-1/x).
    cdf = iz.zf_norm_cdf(3, 3)
    grid = np.array([0.2, 0.5, 1.0, 2.0, 10.0])
    np.testing.assert_allclose(cdf(grid), np.exp(-1.0 / grid), atol=1e-12)
    vals = iz.zf_norms_sq(_channel(3, 3, substream(17, 0), draws=10000))[:, 0]
    assert iz.ks_statistic(vals, cdf) < 0.02


# ------------------------------------------------------- orthogonal receive


def test_orthogonal_noiseless_receive_is_exact():
    scen = _scenario(transmit_snr_db=float("inf"))
    ch = _draw(12, 10, substream(18, 0))
    feats = _views(scen, 3, substream(18, 1))
    out = iz.orthogonal_receive(scen, ch, feats, substream(18, 2))
    assert np.array_equal(out.f_tilde, iz.aggregate_noiseless(feats))


def test_orthogonal_snr_collapses_at_square_channel():
    # With no spare antennas the ZF norms blow up and the per-sensor SNR
    # collapses; doubling the array restores it.
    med = {}
    for N in (50, 100):
        scen = _scenario(num_sensors=50, num_antennas=N)
        H = _channel(N, 50, substream(20240, 30, point_index=N), draws=1000)
        med[N] = np.median(iz.orth_snrs(iz.zf_norms_sq(H), scen) / 50)
    assert med[50] < 0.05 * med[100]


def test_orthogonal_snr_mean_matches_closed_form():
    scen = _scenario(num_sensors=50, num_antennas=100)
    H = _channel(100, 50, substream(19, 0), draws=1000)
    vals = iz.orth_snrs(iz.zf_norms_sq(H), scen) / 50
    closed = 10.0 * (100 - 50) / scen.nu_sq
    assert abs(vals.mean() - closed) / closed < 0.05


# ---------------------------------------------------------------- adaptive


def test_adaptive_falls_back_when_orthogonal_infeasible():
    scen = _scenario(num_sensors=10, num_antennas=5)
    rng = substream(20, 0)
    for _ in range(10):
        ch = _draw(5, 10, rng)
        feats = _views(scen, 0, rng)
        out = iz.adaptive_receive(scen, ch, feats, rng)
        assert out.resolved_mode == "aircomp"
        assert out.effective_snr == iz.aircomp_effective_snr(ch, scen).gamma_air


def test_adaptive_selects_larger_snr():
    scen = _scenario(num_sensors=10, num_antennas=18)
    rng = substream(21, 0)
    seen = set()
    for _ in range(60):
        ch = _draw(18, 10, rng)
        ga = iz.aircomp_effective_snr(ch, scen).gamma_air
        go = iz.orthogonal_effective_snr(ch, scen)
        assert iz.best_access(ga, go) == (max(ga, go), ga >= go)
        feats = _views(scen, 0, rng)
        out = iz.adaptive_receive(scen, ch, feats, rng)
        want = "aircomp" if ga >= go else "orthogonal"
        assert out.resolved_mode == want
        assert out.effective_snr == max(ga, go)
        seen.add(want)
    assert seen == {"aircomp", "orthogonal"}  # both branches exercised


def test_adaptive_mode_is_deterministic_per_draw():
    scen = _scenario(num_sensors=6, num_antennas=8)
    ch = _draw(8, 6, substream(22, 0))
    feats = _views(scen, 1, substream(22, 1))
    a = iz.adaptive_receive(scen, ch, feats, substream(22, 2))
    b = iz.adaptive_receive(scen, ch, feats, substream(22, 2))
    assert a.resolved_mode == b.resolved_mode
    assert np.array_equal(a.f_tilde, b.f_tilde)


def test_adaptive_mean_snr_dominates_both_modes():
    base = iz.ScenarioConfig(
        feature_dim=5, num_classes=5, num_sensors=10, num_antennas=2,
        observation_rank=1, sensing_covariance_scale=0.1,
        transmit_snr_db=10.0, master_seed=20240, mc_trials=1000,
    )
    rng = substream(23, 0)
    for N in range(2, 21):
        scen = iz.build_scenario(dataclasses.replace(base, num_antennas=N))
        H = _channel(N, 10, rng, draws=1000)
        air, _ = iz.air_snrs(iz.realization_from_matrix(H), scen)
        orth = iz.orth_snrs(iz.zf_norms_sq(H), scen) if N >= 10 else np.full(1000, -np.inf)
        ada, _ = iz.best_access(air, orth)
        best = max(air.mean(), orth.mean() if N >= 10 else -np.inf)
        spread = max(air.std(ddof=1), orth.std(ddof=1) if N >= 10 else 0.0)
        assert ada.mean() >= best - 3 * spread / np.sqrt(1000)
