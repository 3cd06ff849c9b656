from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
import reference_model as ref

from scbn.propagation import (
    _distance_matrix,
    gamma_tensor,
    rate_tensor,
    realize_channels,
    save_channels_csv,
)
from scbn.scenario import ConfigError, GenerationConfig, generate_scenario


def _links(s):
    """(anchor axis, demander axis, distance) for every link of ``s``."""
    return [
        (i, j, ref.link_distance(s, a, d))
        for i, a in enumerate(s.anchors)
        for j, d in enumerate(s.demanders)
    ]


def _replay_fades(s, seed):
    """The sub-6 fades ``realize_channels`` draws from ``default_rng(seed)``,
    after its blockage uniforms and shadowing normals."""
    rng = np.random.default_rng(seed)
    k1, k2 = len(s.anchors), len(s.demanders)
    rng.random((k1, k2))
    rng.normal(0.0, s.mmw_pathloss.shadow_sigma_db, size=(k1, k2))
    return rng.exponential(1.0, size=(k1, s.sub6_band.num_brbs, k2))


# --- mmWave path loss and shadowing --------------------------------------------


def test_mmw_pathloss_at_reference_distance():
    assert ref.mmw_pathloss_db(1.0, 2.0, 70.0) == 70.0


def test_mmw_pathloss_log_distance_slope():
    assert ref.mmw_pathloss_db(100.0, 2.0, 70.0) == 110.0
    assert ref.mmw_pathloss_db(10.0, 2.0, 70.0, shadowing_db=3.5) == 93.5


def test_realize_channels_mmw_gains_follow_the_path_loss():
    s = generate_scenario(GenerationConfig(mmw_shadow_sigma_db=0.0), seed=11)
    ch = realize_channels(s, np.random.default_rng(3))
    want = np.zeros((len(s.anchors), len(s.demanders)))
    for i, j, dist in _links(s):
        loss_db = ref.mmw_pathloss_db(dist, s.mmw_pathloss.slope, s.mmw_pathloss.ref_loss_db)
        want[i, j] = 10.0 ** (-loss_db / 10.0)
    n1 = s.mmw_band.num_brbs
    np.testing.assert_allclose(
        ch.gains[:, :n1, :], np.broadcast_to(want[:, None, :], (2, n1, 8)), rtol=1e-12
    )


def test_shadowing_zero_sigma_is_exactly_zero():
    s = generate_scenario(GenerationConfig(mmw_shadow_sigma_db=0.0), seed=11)
    a, b = (realize_channels(s, np.random.default_rng(seed)) for seed in (3, 4))
    assert np.array_equal(a.gains[:, :192, :], b.gains[:, :192, :])


def test_shadowing_sample_statistics():
    # 320 x 320 links, one shadowing draw each, recovered from the gains
    cfg = GenerationConfig(
        num_stations=640, num_anchors=320, num_mmw_brbs=1, num_sub6_brbs=0
    )
    s = generate_scenario(cfg, seed=2024)
    ch = realize_channels(s, np.random.default_rng(2024))
    draws = np.array([
        -10.0 * math.log10(ch.gains[i, 0, j])
        - ref.mmw_pathloss_db(dist, s.mmw_pathloss.slope, s.mmw_pathloss.ref_loss_db)
        for i, j, dist in _links(s)
    ])
    assert abs(draws.mean()) < 0.05
    assert abs(draws.std() - 4.1) / 4.1 < 0.02


# --- sub-6 gain -------------------------------------------------------------


def test_sub6_gain_at_reference_distance():
    g = ref.sub6_gain(1.0, 3.0, 47.9, fade=1.0)
    assert math.isclose(g, 1.62181009735893e-05, rel_tol=1e-12)


def test_sub6_gain_zero_fade_kills_the_link():
    assert ref.sub6_gain(50.0, 3.0, 47.9, fade=0.0) == 0.0


def test_sub6_gain_scales_linearly_in_fade():
    g1 = ref.sub6_gain(80.0, 3.0, 47.9, fade=1.0)
    g2 = ref.sub6_gain(80.0, 3.0, 47.9, fade=2.5)
    assert math.isclose(g2, 2.5 * g1, rel_tol=1e-12)


def test_sub6_gain_doubling_distance_costs_fixed_db():
    g_near = ref.sub6_gain(40.0, 3.0, 47.9, fade=1.0)
    g_far = ref.sub6_gain(80.0, 3.0, 47.9, fade=1.0)
    drop_db = 10.0 * math.log10(g_near / g_far)
    assert math.isclose(drop_db, 9.030899869919436, rel_tol=1e-12)


def test_realize_channels_sub6_gains_follow_the_path_loss():
    s = generate_scenario(GenerationConfig(num_mmw_brbs=2, num_sub6_brbs=50), seed=11)
    ch = realize_channels(s, np.random.default_rng(3))
    want = np.zeros((2, 50, 8))
    for i, j, dist in _links(s):
        want[i, :, j] = ref.sub6_gain(dist, 3.0, s.sub6_pathloss.ref_loss_db, fade=1.0)
    unfaded = ch.gains[:, 2:, :] / _replay_fades(s, 3)
    np.testing.assert_allclose(unfaded, want, rtol=1e-12)


# --- SNR / SINR --------------------------------------------------------------


def test_snr_mmw_known_value():
    assert math.isclose(ref.snr_mmw(1.0, 1e-9, 1e-12), 1000.0, rel_tol=1e-12)


def test_snr_mmw_zero_gain():
    assert ref.snr_mmw(1.0, 0.0, 1e-12) == 0.0


def test_snr_mmw_scale_invariance():
    # doubling both power and noise is a power-of-two scaling, exact in floats
    assert ref.snr_mmw(2.0, 3.7e-10, 2e-12) == ref.snr_mmw(1.0, 3.7e-10, 1e-12)


def _two_anchor_gains(signal, interference):
    """gains[anchor][brb][demander]: one mmWave and one sub-6 BRB, one demander."""
    return [[[0.0], [signal]], [[0.0], [interference]]]


def test_sinr_sub6_known_value():
    got = ref.sinr_sub6(_two_anchor_gains(1e-9, 1e-10), 0, 1, 0, 1.0, 1e-12)
    assert math.isclose(got, 9.900990099009901, rel_tol=1e-12)


def test_sinr_sub6_single_anchor_reduces_to_snr():
    got = ref.sinr_sub6([[[0.0], [4.2e-11]]], 0, 1, 0, 1.0, 1e-12)
    assert got == ref.snr_mmw(1.0, 4.2e-11, 1e-12)


def test_sinr_sub6_equal_links_sit_near_unity():
    got = ref.sinr_sub6(_two_anchor_gains(1e-9, 1e-9), 0, 1, 0, 1.0, 1e-15)
    assert math.isclose(got, 1.0, rel_tol=1e-5)


def test_sinr_sub6_per_anchor_powers():
    # silencing the interferer turns the SINR into a plain SNR
    got = ref.sinr_sub6(_two_anchor_gains(1e-9, 1e-10), 0, 1, 0, [1.0, 0.0], 1e-12)
    assert math.isclose(got, 1000.0, rel_tol=1e-12)


# --- per-BRB rate ------------------------------------------------------------


def test_brb_rate_unit_snr():
    assert ref.brb_rate(480e3, 1.0) == 480000.0


def test_brb_rate_zero_snr():
    assert ref.brb_rate(4.86e6, 0.0) == 0.0


def test_brb_rate_known_value():
    assert math.isclose(ref.brb_rate(4.86e6, 1000.0), 48440719.61794292, rel_tol=1e-12)


# --- whole-scenario realizations ---------------------------------------------


def test_realize_channels_shapes_and_determinism():
    s = generate_scenario(GenerationConfig(), seed=11)
    ch1 = realize_channels(s, np.random.default_rng(3))
    ch2 = realize_channels(s, np.random.default_rng(3))
    assert ch1.gains.shape == (2, 292, 8)
    assert ch1.los.shape == (2, 8)
    assert ch1.num_mmw_brbs == 192
    assert ch1.anchor_ids == (0, 1)
    assert ch1.demander_ids == tuple(range(2, 10))
    assert np.array_equal(ch1.gains, ch2.gains)
    assert np.array_equal(ch1.los, ch2.los)


def test_realize_channels_mmw_brbs_share_one_beam():
    s = generate_scenario(GenerationConfig(), seed=11)
    ch = realize_channels(s, np.random.default_rng(3))
    mmw = ch.gains[:, :192, :]
    assert np.all(mmw == mmw[:, :1, :])
    # sub-6 fades are drawn per BRB, so those columns differ
    sub6 = ch.gains[:, 192:, :]
    assert np.ptp(sub6, axis=1).min() > 0.0


def test_realize_channels_full_blockage_silences_mmwave():
    s = generate_scenario(GenerationConfig(mmw_blockage_prob=1.0), seed=11)
    ch = realize_channels(s, np.random.default_rng(3))
    assert not ch.los.any()
    assert np.all(ch.gains[:, :192, :] == 0.0)
    assert np.all(ch.gains[:, 192:, :] > 0.0)


def test_realize_channels_fades_have_unit_mean():
    # 2 anchors x 625 sub-6 BRBs x 8 demanders = 10000 fade draws
    cfg = GenerationConfig(num_mmw_brbs=1, num_sub6_brbs=625)
    s = generate_scenario(cfg, seed=4)
    ch = realize_channels(s, np.random.default_rng(8))
    ax = np.array([[st.x_m, st.y_m] for st in s.anchors])
    dx = np.array([[st.x_m, st.y_m] for st in s.demanders])
    dist = np.maximum(np.linalg.norm(ax[:, None] - dx[None, :], axis=2), 1.0)
    loss_db = s.sub6_pathloss.ref_loss_db + 10.0 * s.sub6_pathloss.exponent * np.log10(dist)
    fades = ch.gains[:, 1:, :] / (10.0 ** (-loss_db / 10.0))[:, None, :]
    assert 0.95 < fades.mean() < 1.05


def _reference_gamma(s, ch):
    """SNR/SINR of every (anchor axis, BRB, demander axis) from the gains."""
    gains = ch.gains.tolist()
    n1, noise = ch.num_mmw_brbs, s.noise_power_w
    return np.array([
        [
            [
                ref.snr_mmw(s.tx_power_w, gains[i][n][j], noise) if n < n1
                else ref.sinr_sub6(gains, i, n, j, s.tx_power_w, noise)
                for j in range(ch.gains.shape[2])
            ]
            for n in range(ch.gains.shape[1])
        ]
        for i in range(ch.gains.shape[0])
    ])


def test_gamma_tensor_matches_pointwise_models():
    s = generate_scenario(GenerationConfig(num_stations=6, num_anchors=3), seed=9)
    ch = realize_channels(s, np.random.default_rng(1))
    np.testing.assert_allclose(gamma_tensor(s, ch), _reference_gamma(s, ch), rtol=1e-12)


def test_rate_tensor_matches_pointwise_models():
    s = generate_scenario(GenerationConfig(num_stations=6, num_anchors=3), seed=9)
    ch = realize_channels(s, np.random.default_rng(1))
    gamma = _reference_gamma(s, ch)
    n1 = ch.num_mmw_brbs
    want = np.array([
        [
            [
                ref.brb_rate(
                    (s.mmw_band if n < n1 else s.sub6_band).brb_bandwidth_hz, g
                )
                for g in row
            ]
            for n, row in enumerate(plane)
        ]
        for plane in gamma.tolist()
    ])
    np.testing.assert_allclose(rate_tensor(s, ch), want, rtol=1e-12)
    np.testing.assert_allclose(ch.rates, want, rtol=1e-12)


@pytest.mark.parametrize("area_side_m", [2000.0, 1e150], ids=["reference", "huge"])
def test_distances_and_rates_have_the_bits_of_the_plain_formulas(area_side_m):
    """The distances are np.linalg.norm's, clamped to 1 m, and the rates
    those of log2(1 + gamma), scaled per band, though the package forms
    the one without norm's wrapper and takes the log in place."""
    s = generate_scenario(GenerationConfig(area_side_m=area_side_m), seed=4)
    ax, dx = (np.array([[st.x_m, st.y_m] for st in group]) for group in (s.anchors, s.demanders))
    norm = np.linalg.norm(ax[:, None, :] - dx[None, :, :], axis=2)
    assert _distance_matrix(s).tobytes() == np.maximum(norm, 1.0).tobytes()
    ch = realize_channels(s, np.random.default_rng(6))
    want = np.log2(1.0 + gamma_tensor(s, ch))
    want[:, :192, :] *= s.mmw_band.brb_bandwidth_hz
    want[:, 192:, :] *= s.sub6_band.brb_bandwidth_hz
    assert rate_tensor(s, ch).tobytes() == ch.rates.tobytes() == want.tobytes()


def test_realization_carries_its_rate_tensor_read_only():
    s = generate_scenario(GenerationConfig(), seed=3)
    ch = realize_channels(s, np.random.default_rng(5))
    assert ch.rates.dtype == ch.gains.dtype and ch.rates.shape == ch.gains.shape
    assert ch.rates.tobytes() == rate_tensor(s, ch).tobytes()
    for array in (ch.rates, ch.gains):
        with pytest.raises(ValueError):
            array[0, 0, 0] = 1.0


def test_rates_whose_sum_leaves_the_float_range_are_a_config_error():
    """At a 1e308 Hz mmWave block every rate is finite, but 64 blocks of
    two links sum past the float range, as a trial would sum them.  A
    rate is the bandwidth times log2(1 + SNR), and the draw does not
    depend on the bandwidth, so the 1 Hz rates show the 1e308 Hz ones."""
    cfg = GenerationConfig(num_stations=3, num_anchors=1, num_mmw_brbs=64, num_sub6_brbs=0)
    unit = realize_channels(
        generate_scenario(replace(cfg, mmw_brb_bandwidth_hz=1.0), seed=0),
        np.random.default_rng(0),
    ).rates
    assert math.isfinite(unit.max().item() * 1e308) and math.isinf(unit.sum().item() * 1e308)
    s = generate_scenario(replace(cfg, mmw_brb_bandwidth_hz=1e308), seed=0)
    with pytest.raises(ConfigError, match="overflow them or their sum"):
        realize_channels(s, np.random.default_rng(0))


def test_save_channels_csv(tmp_path):
    s = generate_scenario(
        GenerationConfig(num_stations=3, num_anchors=1, num_mmw_brbs=2, num_sub6_brbs=1),
        seed=2,
    )
    ch = realize_channels(s, np.random.default_rng(5))
    path = tmp_path / "channels.csv"
    save_channels_csv(ch, str(path))
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "k1,n,k2,gain"
    assert len(lines) == 1 + 1 * 3 * 2
    save_channels_csv(ch, str(tmp_path / "again.csv"))
    assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()
