"""Link-level models: path loss, fading, SNR/SINR and per-BRB rates.

The mmWave carrier follows a fitted log-distance law with lognormal
shadowing; one shadowing draw is shared by every mmWave BRB of a link
because they ride the same beam.  The sub-6 GHz carrier follows a
log-distance law with per-BRB Rayleigh fading (unit-mean exponential
squared envelope) and sees worst-case interference: every other anchor
is assumed active on the same BRB index.

A :class:`ChannelRealization` freezes one random draw of all link gains,
and the per-BRB rates they give, so that competing allocation schemes
can be compared on identical channels.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .scenario import BandKind, Scenario

__all__ = [
    "ChannelRealization",
    "WrongBandError",
    "mmw_pathloss_db",
    "sample_mmw_shadowing",
    "sub6_gain",
    "snr_mmw",
    "sinr_sub6",
    "brb_rate",
    "radio_settings",
    "realize_channels",
    "gamma_tensor",
    "rate_tensor",
    "save_channels_csv",
]

MIN_MODEL_DISTANCE_M = 1.0


class WrongBandError(ValueError):
    """Raised when a BRB index is used with the wrong carrier's model."""


@dataclass(frozen=True)
class ChannelRealization:
    """One draw of linear power gains for every (anchor, BRB, demander).

    ``gains[i, n, j]`` is the gain from anchor axis ``i`` to demander axis
    ``j`` on global BRB index ``n``; indices ``n < num_mmw_brbs`` are the
    mmWave BRBs, the rest the sub-6 ones.  ``rates[i, n, j]`` is the
    Shannon rate in bit/s those gains give (:func:`rate_tensor`), computed
    once when the realization is drawn.  ``los[i, j]`` says whether the
    mmWave line of sight of link (i, j) is clear; obstructed links have
    zero mmWave gain.  Axis order follows ``anchor_ids`` / ``demander_ids``:
    station order, which a loaded scenario need not keep in ascending id.
    A realization belongs to the scenario it was drawn for, whose powers,
    noise and bandwidths its rates fold in; ``radio`` records those, as
    :func:`radio_settings` gives them, and the schemes and audits reject
    the realization for other anchors, demanders, bands or radio settings.
    Arrays are read-only.
    """

    gains: np.ndarray
    rates: np.ndarray
    los: np.ndarray
    num_mmw_brbs: int
    anchor_ids: tuple[int, ...]
    demander_ids: tuple[int, ...]
    radio: tuple[float, float, float, float]

    @property
    def num_brbs(self) -> int:
        return self.gains.shape[1]

    def anchor_axis(self, anchor_id: int) -> int:
        return self.anchor_ids.index(anchor_id)

    def demander_axis(self, demander_id: int) -> int:
        return self.demander_ids.index(demander_id)


def mmw_pathloss_db(
    distance_m: float,
    slope: float,
    ref_loss_db: float,
    shadowing_db: float = 0.0,
) -> float:
    """mmWave path loss in dB at ``distance_m`` meters.

    Log-distance fit: loss = ref_loss + slope * 10 * log10(d) + shadowing,
    valid from the 1 m reference distance outward.
    """
    if distance_m < MIN_MODEL_DISTANCE_M:
        raise ValueError(
            f"distance {distance_m} m is below the {MIN_MODEL_DISTANCE_M} m "
            "model reference"
        )
    return ref_loss_db + slope * 10.0 * math.log10(distance_m) + shadowing_db


def sample_mmw_shadowing(sigma_db: float, rng: np.random.Generator) -> float:
    """One zero-mean Gaussian shadowing draw (dB) with deviation sigma_db."""
    if sigma_db < 0:
        raise ValueError(f"shadowing sigma must be non-negative, got {sigma_db}")
    return float(rng.normal(0.0, sigma_db))


def sub6_gain(
    distance_m: float,
    pathloss_exponent: float,
    ref_loss_db: float,
    fade: float,
) -> float:
    """Linear sub-6 GHz power gain: Rayleigh fade over log-distance loss.

    ``fade`` is the squared fading envelope (unit-mean exponential draws
    in simulation; pass 1.0 for the median-fade gain).
    """
    if distance_m < MIN_MODEL_DISTANCE_M:
        raise ValueError(
            f"distance {distance_m} m is below the {MIN_MODEL_DISTANCE_M} m "
            "model reference"
        )
    if fade < 0:
        raise ValueError(f"fade must be non-negative, got {fade}")
    loss_db = ref_loss_db + 10.0 * pathloss_exponent * math.log10(distance_m)
    return fade * 10.0 ** (-loss_db / 10.0)


def snr_mmw(tx_power_w: float, gain: float, noise_power_w: float) -> float:
    """mmWave links are noise-limited: SNR = P * g / sigma^2."""
    if noise_power_w <= 0:
        raise ValueError(f"noise power must be positive, got {noise_power_w}")
    return tx_power_w * gain / noise_power_w


def sinr_sub6(
    anchor_id: int,
    n: int,
    demander_id: int,
    tx_power_w,
    ch: ChannelRealization,
    noise_power_w: float,
) -> float:
    """Sub-6 SINR of BRB ``n`` from ``anchor_id`` at ``demander_id``.

    Every other anchor is counted as an interferer on the same BRB index
    (worst case: full load).  ``tx_power_w`` may be a scalar shared by all
    anchors or a sequence with one power per anchor axis.
    """
    if noise_power_w <= 0:
        raise ValueError(f"noise power must be positive, got {noise_power_w}")
    if not ch.num_mmw_brbs <= n < ch.num_brbs:
        raise WrongBandError(
            f"BRB index {n} is not a sub-6 BRB "
            f"(sub-6 range is [{ch.num_mmw_brbs}, {ch.num_brbs}))"
        )
    i = ch.anchor_axis(anchor_id)
    j = ch.demander_axis(demander_id)
    powers = np.broadcast_to(np.asarray(tx_power_w, dtype=float), (len(ch.anchor_ids),))
    signal = powers[i] * ch.gains[i, n, j]
    interference = 0.0
    for other in range(len(ch.anchor_ids)):
        if other != i:
            interference += powers[other] * ch.gains[other, n, j]
    return float(signal / (interference + noise_power_w))


def brb_rate(bandwidth_hz: float, gamma: float) -> float:
    """Shannon rate of one BRB in bit/s: bandwidth * log2(1 + gamma)."""
    if bandwidth_hz <= 0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth_hz}")
    if gamma < 0:
        raise ValueError(f"gamma must be non-negative, got {gamma}")
    return bandwidth_hz * math.log2(1.0 + gamma)


def _distance_matrix(s: Scenario) -> np.ndarray:
    """Anchor-to-demander distances, clamped to the 1 m model reference."""
    ax = np.array([[st.x_m, st.y_m] for st in s.anchors], dtype=float).reshape(-1, 2)
    dx = np.array([[st.x_m, st.y_m] for st in s.demanders], dtype=float).reshape(-1, 2)
    d = np.linalg.norm(ax[:, None, :] - dx[None, :, :], axis=2)
    return np.maximum(d, MIN_MODEL_DISTANCE_M)


def radio_settings(s: Scenario) -> tuple[float, float, float, float]:
    """What a rate tensor folds in besides the gains: the transmit power,
    the noise power, and the mmWave and sub-6 BRB bandwidths."""
    return (
        s.tx_power_w,
        s.noise_power_w,
        s.mmw_band.brb_bandwidth_hz,
        s.sub6_band.brb_bandwidth_hz,
    )


def realize_channels(s: Scenario, rng: np.random.Generator) -> ChannelRealization:
    """Draw one channel realization for every link of the scenario.

    Draw order (fixed for reproducibility): per-link blockage uniforms,
    per-link mmWave shadowing, then per-(link, BRB) sub-6 fades.  All
    mmWave BRBs of a link share one shadowing draw; an obstructed link
    has zero gain on every mmWave BRB.  Rates are computed here, once.
    """
    k1 = len(s.anchors)
    k2 = len(s.demanders)
    n1 = s.mmw_band.num_brbs
    n2 = s.sub6_band.num_brbs
    dist = _distance_matrix(s)

    los = rng.random((k1, k2)) >= s.mmw.blockage_prob
    shadowing = rng.normal(0.0, s.mmw.shadow_sigma_db, size=(k1, k2))
    fades = rng.exponential(1.0, size=(k1, n2, k2))

    gains = np.zeros((k1, n1 + n2, k2), dtype=float)
    mmw_loss_db = (
        s.mmw.ref_loss_db
        + s.mmw.pathloss_slope * 10.0 * np.log10(dist)
        + shadowing
    )
    mmw_gain = np.where(los, 10.0 ** (-mmw_loss_db / 10.0), 0.0)
    gains[:, :n1, :] = mmw_gain[:, None, :]

    sub6_loss_db = s.sub6.ref_loss_db + 10.0 * s.sub6.pathloss_exponent * np.log10(dist)
    gains[:, n1:, :] = fades * (10.0 ** (-sub6_loss_db / 10.0))[:, None, :]

    rates = np.empty_like(gains)
    ch = ChannelRealization(
        gains=gains,
        rates=rates,
        los=los,
        num_mmw_brbs=n1,
        anchor_ids=s.anchor_ids,
        demander_ids=s.demander_ids,
        radio=radio_settings(s),
    )
    rates[...] = rate_tensor(s, ch)  # reads only the gains and the band split
    gains.setflags(write=False)
    rates.setflags(write=False)
    return ch


def gamma_tensor(s: Scenario, ch: ChannelRealization) -> np.ndarray:
    """SNR/SINR for every (anchor axis, BRB, demander axis) triple.

    mmWave BRBs are noise-limited; sub-6 BRBs see worst-case interference
    from every other anchor on the same BRB index.
    """
    n1 = ch.num_mmw_brbs
    rx = s.tx_power_w * ch.gains
    noise = s.noise_power_w
    gamma = np.empty_like(rx)
    gamma[:, :n1, :] = rx[:, :n1, :] / noise
    k1 = rx.shape[0]
    for i in range(k1):
        interference = np.zeros_like(rx[i, n1:, :])
        for other in range(k1):
            if other != i:
                interference += rx[other, n1:, :]
        gamma[i, n1:, :] = rx[i, n1:, :] / (interference + noise)
    return gamma


def rate_tensor(s: Scenario, ch: ChannelRealization) -> np.ndarray:
    """Per-BRB Shannon rate in bit/s for every triple, from gamma_tensor."""
    gamma = gamma_tensor(s, ch)
    n1 = ch.num_mmw_brbs
    rates = np.log2(1.0 + gamma)
    rates[:, :n1, :] *= s.mmw_band.brb_bandwidth_hz
    rates[:, n1:, :] *= s.sub6_band.brb_bandwidth_hz
    return rates


def save_channels_csv(ch: ChannelRealization, path: str) -> None:
    """Dump a realization as rows of k1, n, k2, gain (full precision)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k1", "n", "k2", "gain"])
        for i, a in enumerate(ch.anchor_ids):
            for n in range(ch.num_brbs):
                for j, d in enumerate(ch.demander_ids):
                    writer.writerow([a, n, d, repr(float(ch.gains[i, n, j]))])
