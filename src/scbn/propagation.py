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

from dataclasses import dataclass

import numpy as np

from .scenario import ConfigError, Scenario, _write_csv

__all__ = [
    "ChannelRealization",
    "realize_channels",
    "gamma_tensor",
    "rate_tensor",
    "save_channels_csv",
]

MIN_MODEL_DISTANCE_M = 1.0


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
    ``Scenario.radio`` gives them, and the schemes and audits reject
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


def _distance_matrix(s: Scenario) -> np.ndarray:
    """Anchor-to-demander distances, clamped to the 1 m model reference.

    Raises ``ConfigError``, and lets no numpy warning out, when a distance
    is not finite: the squares of a valid but extreme ``area_side_m``
    overflow it.
    """
    ax = np.array([[st.x_m, st.y_m] for st in s.anchors], dtype=float).reshape(-1, 2)
    dx = np.array([[st.x_m, st.y_m] for st in s.demanders], dtype=float).reshape(-1, 2)
    # np.linalg.norm(..., axis=2) for real input, without its wrapper
    with np.errstate(over="ignore"):
        d = np.sqrt(np.add.reduce(np.square(ax[:, None, :] - dx[None, :, :]), axis=2))
    if not np.isfinite(d).all():
        raise ConfigError(
            f"station distances are not finite: area_side_m {s.area_side_m!r} m overflows them"
        )
    return np.maximum(d, MIN_MODEL_DISTANCE_M)


def realize_channels(s: Scenario, rng: np.random.Generator) -> ChannelRealization:
    """Draw one channel realization for every link of the scenario.

    Draw order (fixed for reproducibility): per-link blockage uniforms,
    per-link mmWave shadowing, then per-(link, BRB) sub-6 fades.  All
    mmWave BRBs of a link share one shadowing draw; an obstructed link
    has zero gain on every mmWave BRB.  Rates are computed here, once.

    Raises ``ConfigError``, and lets no numpy warning out of the rate
    computation, when a rate is not finite: valid but extreme radio
    settings, such as a ``tx_power_w`` near the float range, overflow it.
    So it does when twice the sum of all rates is not finite: the schemes
    and the oracle sum a demander's rates, each in an order of its own,
    and a trial sums them over the demanders.  Rates are non-negative, so
    each such sum is within rounding of part of the whole, and the factor
    two leaves room for the rounding.
    """
    k1 = len(s.anchors)
    k2 = len(s.demanders)
    n1 = s.mmw_band.num_brbs
    n2 = s.sub6_band.num_brbs
    dist = _distance_matrix(s)

    los = rng.random((k1, k2)) >= s.mmw_pathloss.blockage_prob
    shadowing = rng.normal(0.0, s.mmw_pathloss.shadow_sigma_db, size=(k1, k2))
    fades = rng.exponential(1.0, size=(k1, n2, k2))

    gains = np.zeros((k1, n1 + n2, k2), dtype=float)
    mmw_loss_db = (
        s.mmw_pathloss.ref_loss_db
        + s.mmw_pathloss.slope * 10.0 * np.log10(dist)
        + shadowing
    )
    mmw_gain = np.where(los, 10.0 ** (-mmw_loss_db / 10.0), 0.0)
    gains[:, :n1, :] = mmw_gain[:, None, :]

    sub6_loss_db = s.sub6_pathloss.ref_loss_db + 10.0 * s.sub6_pathloss.exponent * np.log10(dist)
    gains[:, n1:, :] = fades * (10.0 ** (-sub6_loss_db / 10.0))[:, None, :]

    rates = np.empty_like(gains)
    ch = ChannelRealization(
        gains=gains,
        rates=rates,
        los=los,
        num_mmw_brbs=n1,
        anchor_ids=s.anchor_ids,
        demander_ids=s.demander_ids,
        radio=s.radio,
    )
    with np.errstate(over="ignore", invalid="ignore"):
        rates[...] = rate_tensor(s, ch)  # reads only the gains and the band split
        headroom = 2.0 * rates.sum()
    if not np.isfinite(headroom):
        raise ConfigError(
            "channel rates are not finite: the radio settings (tx_power_w"
            f" {s.tx_power_w!r} W, noise power {s.noise_power_w!r} W, BRB bandwidths"
            f" {s.mmw_band.brb_bandwidth_hz!r} and {s.sub6_band.brb_bandwidth_hz!r} Hz)"
            " overflow them or their sum"
        )
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
    rates = np.log2(np.add(gamma, 1.0, out=gamma), out=gamma)
    rates[:, :n1, :] *= s.mmw_band.brb_bandwidth_hz
    rates[:, n1:, :] *= s.sub6_band.brb_bandwidth_hz
    return rates


def save_channels_csv(ch: ChannelRealization, path: str) -> None:
    """Dump a realization as rows of k1, n, k2, gain (full precision)."""
    gains = ch.gains.tolist()
    rows = (
        [a, n, d, gains[i][n][j]]
        for i, a in enumerate(ch.anchor_ids)
        for n in range(ch.num_brbs)
        for j, d in enumerate(ch.demander_ids)
    )
    _write_csv(path, ["k1", "n", "k2", "gain"], rows)
