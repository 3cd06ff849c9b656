from __future__ import annotations

import math

import numpy as np
import pytest

from scbn.propagation import (
    ChannelRealization,
    WrongBandError,
    brb_rate,
    gamma_tensor,
    mmw_pathloss_db,
    rate_tensor,
    realize_channels,
    sample_mmw_shadowing,
    save_channels_csv,
    sinr_sub6,
    snr_mmw,
    sub6_gain,
)
from scbn.scenario import GenerationConfig, generate_scenario


# --- mmWave path loss ------------------------------------------------------


def test_mmw_pathloss_at_reference_distance():
    assert mmw_pathloss_db(1.0, 2.0, 70.0) == 70.0


def test_mmw_pathloss_log_distance_slope():
    assert mmw_pathloss_db(100.0, 2.0, 70.0) == 110.0
    assert mmw_pathloss_db(10.0, 2.0, 70.0, shadowing_db=3.5) == 93.5


def test_mmw_pathloss_rejects_distances_below_reference():
    with pytest.raises(ValueError, match="below the 1.0 m"):
        mmw_pathloss_db(0.5, 2.0, 70.0)


def test_shadowing_zero_sigma_is_exactly_zero():
    assert sample_mmw_shadowing(0.0, np.random.default_rng(1)) == 0.0


def test_shadowing_rejects_negative_sigma():
    with pytest.raises(ValueError):
        sample_mmw_shadowing(-0.1, np.random.default_rng(1))


def test_shadowing_sample_statistics():
    rng = np.random.default_rng(2024)
    draws = np.array([sample_mmw_shadowing(4.1, rng) for _ in range(100_000)])
    assert abs(draws.mean()) < 0.05
    assert abs(draws.std() - 4.1) / 4.1 < 0.02


# --- sub-6 gain -------------------------------------------------------------


def test_sub6_gain_at_reference_distance():
    g = sub6_gain(1.0, 3.0, 47.9, fade=1.0)
    assert math.isclose(g, 1.62181009735893e-05, rel_tol=1e-12)


def test_sub6_gain_zero_fade_kills_the_link():
    assert sub6_gain(50.0, 3.0, 47.9, fade=0.0) == 0.0


def test_sub6_gain_scales_linearly_in_fade():
    g1 = sub6_gain(80.0, 3.0, 47.9, fade=1.0)
    g2 = sub6_gain(80.0, 3.0, 47.9, fade=2.5)
    assert math.isclose(g2, 2.5 * g1, rel_tol=1e-12)


def test_sub6_gain_doubling_distance_costs_fixed_db():
    g_near = sub6_gain(40.0, 3.0, 47.9, fade=1.0)
    g_far = sub6_gain(80.0, 3.0, 47.9, fade=1.0)
    drop_db = 10.0 * math.log10(g_near / g_far)
    assert math.isclose(drop_db, 9.030899869919436, rel_tol=1e-12)


def test_sub6_gain_rejects_bad_inputs():
    with pytest.raises(ValueError):
        sub6_gain(0.2, 3.0, 47.9, fade=1.0)
    with pytest.raises(ValueError):
        sub6_gain(10.0, 3.0, 47.9, fade=-1.0)


# --- SNR / SINR --------------------------------------------------------------


def test_snr_mmw_known_value():
    assert math.isclose(snr_mmw(1.0, 1e-9, 1e-12), 1000.0, rel_tol=1e-12)


def test_snr_mmw_zero_gain():
    assert snr_mmw(1.0, 0.0, 1e-12) == 0.0


def test_snr_mmw_scale_invariance():
    # doubling both power and noise is a power-of-two scaling, exact in floats
    assert snr_mmw(2.0, 3.7e-10, 2e-12) == snr_mmw(1.0, 3.7e-10, 1e-12)


def test_snr_mmw_rejects_nonpositive_noise():
    with pytest.raises(ValueError):
        snr_mmw(1.0, 1e-9, 0.0)


def _two_anchor_realization(signal, interference, n1=1, n2=1):
    gains = np.zeros((2, n1 + n2, 1))
    gains[0, n1, 0] = signal
    gains[1, n1, 0] = interference
    return ChannelRealization(
        gains=gains,
        rates=np.zeros_like(gains),
        los=np.ones((2, 1), dtype=bool),
        num_mmw_brbs=n1,
        anchor_ids=(0, 1),
        demander_ids=(2,),
    )


def test_sinr_sub6_known_value():
    ch = _two_anchor_realization(1e-9, 1e-10)
    got = sinr_sub6(0, 1, 2, 1.0, ch, noise_power_w=1e-12)
    assert math.isclose(got, 9.900990099009901, rel_tol=1e-12)


def test_sinr_sub6_single_anchor_reduces_to_snr():
    gains = np.zeros((1, 2, 1))
    gains[0, 1, 0] = 4.2e-11
    ch = ChannelRealization(
        gains=gains,
        rates=np.zeros_like(gains),
        los=np.ones((1, 1), dtype=bool),
        num_mmw_brbs=1,
        anchor_ids=(0,),
        demander_ids=(1,),
    )
    assert sinr_sub6(0, 1, 1, 1.0, ch, 1e-12) == snr_mmw(1.0, 4.2e-11, 1e-12)


def test_sinr_sub6_equal_links_sit_near_unity():
    ch = _two_anchor_realization(1e-9, 1e-9)
    got = sinr_sub6(0, 1, 2, 1.0, ch, noise_power_w=1e-15)
    assert math.isclose(got, 1.0, rel_tol=1e-5)


def test_sinr_sub6_per_anchor_powers():
    ch = _two_anchor_realization(1e-9, 1e-10)
    # silencing the interferer turns the SINR into a plain SNR
    got = sinr_sub6(0, 1, 2, [1.0, 0.0], ch, noise_power_w=1e-12)
    assert math.isclose(got, 1000.0, rel_tol=1e-12)


def test_sinr_sub6_rejects_mmw_index():
    ch = _two_anchor_realization(1e-9, 1e-10)
    with pytest.raises(WrongBandError):
        sinr_sub6(0, 0, 2, 1.0, ch, 1e-12)
    with pytest.raises(WrongBandError):
        sinr_sub6(0, 2, 2, 1.0, ch, 1e-12)


# --- per-BRB rate ------------------------------------------------------------


def test_brb_rate_unit_snr():
    assert brb_rate(480e3, 1.0) == 480000.0


def test_brb_rate_zero_snr():
    assert brb_rate(4.86e6, 0.0) == 0.0


def test_brb_rate_known_value():
    assert math.isclose(brb_rate(4.86e6, 1000.0), 48440719.61794292, rel_tol=1e-12)


def test_brb_rate_rejects_bad_inputs():
    with pytest.raises(ValueError):
        brb_rate(0.0, 1.0)
    with pytest.raises(ValueError):
        brb_rate(480e3, -0.5)


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
    loss_db = s.sub6.ref_loss_db + 10.0 * s.sub6.pathloss_exponent * np.log10(dist)
    fades = ch.gains[:, 1:, :] / (10.0 ** (-loss_db / 10.0))[:, None, :]
    assert 0.95 < fades.mean() < 1.05


def test_gamma_tensor_matches_pointwise_models():
    s = generate_scenario(GenerationConfig(num_stations=5, num_anchors=2), seed=9)
    ch = realize_channels(s, np.random.default_rng(1))
    gamma = gamma_tensor(s, ch)
    n1 = ch.num_mmw_brbs
    for i in range(2):
        for j, d in enumerate(ch.demander_ids):
            assert gamma[i, 0, j] == snr_mmw(
                s.tx_power_w, ch.gains[i, 0, j], s.noise_power_w
            )
            assert gamma[i, n1, j] == sinr_sub6(
                ch.anchor_ids[i], n1, d, s.tx_power_w, ch, s.noise_power_w
            )


def test_rate_tensor_matches_pointwise_models():
    s = generate_scenario(GenerationConfig(num_stations=4, num_anchors=1), seed=9)
    ch = realize_channels(s, np.random.default_rng(1))
    gamma = gamma_tensor(s, ch)
    rates = rate_tensor(s, ch)
    n1 = ch.num_mmw_brbs
    assert rates[0, 0, 0] == brb_rate(s.mmw_band.brb_bandwidth_hz, gamma[0, 0, 0])
    assert rates[0, n1, 0] == brb_rate(s.sub6_band.brb_bandwidth_hz, gamma[0, n1, 0])


def test_realization_carries_its_rate_tensor_read_only():
    s = generate_scenario(GenerationConfig(), seed=3)
    ch = realize_channels(s, np.random.default_rng(5))
    assert ch.rates.dtype == ch.gains.dtype and ch.rates.shape == ch.gains.shape
    assert ch.rates.tobytes() == rate_tensor(s, ch).tobytes()
    for array in (ch.rates, ch.gains):
        with pytest.raises(ValueError):
            array[0, 0, 0] = 1.0


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
