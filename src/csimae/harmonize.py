"""Harmonization of heterogeneous recordings into canonical 600x90 clips.

Pipeline per recording: complex -> amplitude, split into per-link
(tx antenna x receiver) instances keeping the first three antennas of
each receiver, cut 2 s windows at 1 s stride, QC each window at native
packet resolution, resample time to 600 samples, segment the bandwidth
into 20 MHz channels resampled to 30 bins each, flatten antennas into
the channel axis (antenna-major) and z-score every timestamp row.

All arithmetic runs in float64 and only the final clip is cast to
float32, so per-timestamp statistics are exact and any global amplitude
scaling (receiver AGC) cancels.

The clip shape is fixed, so its parts are constants: ``data.CLIP_TIME_LEN``
samples by ``ANTENNAS_PER_RECEIVER`` x ``BINS_PER_CHANNEL`` columns per
``CHANNEL_BANDWIDTH`` channel; a row whose standard deviation is at most
``EPS_STD`` becomes zeros.  ``HarmonizeConfig`` holds only the windowing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import data as D
from . import qc as Q


class HarmonizeError(ValueError):
    """Recording cannot be harmonized under the given config."""


ANTENNAS_PER_RECEIVER = 3
CHANNEL_BANDWIDTH = 20e6
BINS_PER_CHANNEL = D.CLIP_CHAN_LEN // ANTENNAS_PER_RECEIVER
EPS_STD = 1e-8


@dataclass
class HarmonizeConfig:
    window_seconds: float = 2.0
    stride_seconds: float = 1.0

    def validate(self):
        if not self.window_seconds >= self.stride_seconds > 0:
            raise HarmonizeError("need window_seconds >= stride_seconds > 0")
        return self


@dataclass
class Link:
    """Amplitude tensor (n_t, 3, n_f) for one tx antenna / receiver pair."""

    data: np.ndarray
    tx_index: int
    recv_index: int


def amplitude(recording: D.ChannelRecording) -> np.ndarray:
    """Entry-wise modulus; null sentinels (NaN) propagate."""
    return np.abs(recording.data).astype(np.float64)


def extract_links(recording: D.ChannelRecording, config: HarmonizeConfig) -> list:
    """One instance per (tx antenna, receiver), first 3 antennas each.

    Receiver u contributes chain rows u*n_apr .. u*n_apr+2; extra
    antennas (4-antenna APs) are dropped.  ``config`` is not read: the
    links depend on ``ANTENNAS_PER_RECEIVER`` alone.
    """
    k = ANTENNAS_PER_RECEIVER
    if recording.n_apr < k:
        raise HarmonizeError(f"recording {recording.source_id!r}: n_apr={recording.n_apr} < {k} antennas required")
    amp = amplitude(recording)
    links = []
    for tx in range(recording.n_tx):
        for u in range(recording.n_recv):
            rows = u * recording.n_apr + np.arange(k)
            links.append(Link(data=amp[:, rows, tx, :], tx_index=tx, recv_index=u))
    return links


def window_slices(n_t: int, sampling_rate: float, config: HarmonizeConfig) -> list:
    """Start offsets (in packets) of full 2 s windows at 1 s stride."""
    duration = n_t / sampling_rate
    if duration < config.window_seconds:
        return []
    win_len = int(round(config.window_seconds * sampling_rate))
    stride = int(round(config.stride_seconds * sampling_rate))
    n_win = int(math.floor((duration - config.window_seconds) / config.stride_seconds + 1e-9)) + 1
    slices = []
    for w in range(n_win):
        start = w * stride
        if start + win_len <= n_t:  # trailing partial windows are dropped
            slices.append((start, win_len))
    return slices


def resample_linear(arr: np.ndarray, axis: int, target: int) -> np.ndarray:
    """Linear resampling with inclusive endpoints: [0, L-1] -> target points.

    Identity when lengths already match; exact on affine signals.
    """
    length = arr.shape[axis]
    if length == target:
        return arr.copy()
    if length == 1:
        return np.repeat(arr, target, axis=axis)
    pos = np.linspace(0.0, length - 1.0, target)
    lo = np.floor(pos).astype(int)
    hi = np.minimum(lo + 1, length - 1)
    frac = pos - lo
    shape = [1] * arr.ndim
    shape[axis] = target
    frac = frac.reshape(shape)
    return np.take(arr, lo, axis=axis) * (1.0 - frac) + np.take(arr, hi, axis=axis) * frac


def channel_blocks(n_f: int, bandwidth: float) -> list:
    """Contiguous subcarrier blocks, one per 20 MHz channel.

    Remainder subcarriers under non-divisible segmentation go to the
    leading blocks.
    """
    if bandwidth < CHANNEL_BANDWIDTH:
        raise HarmonizeError(f"bandwidth {bandwidth} Hz below one channel ({CHANNEL_BANDWIDTH} Hz)")
    n_ch = int(round(bandwidth / CHANNEL_BANDWIDTH))
    base, rem = divmod(n_f, n_ch)
    if base == 0:
        raise HarmonizeError(f"{n_f} subcarriers cannot fill {n_ch} channels")
    blocks, start = [], 0
    for c in range(n_ch):
        size = base + (1 if c < rem else 0)
        blocks.append((start, start + size))
        start += size
    return blocks


def segment_and_resample_freq(window: np.ndarray, bandwidth: float) -> list:
    """Split the subcarrier axis into 20 MHz channels, 30 bins each."""
    return [resample_linear(window[:, :, a:b], 2, BINS_PER_CHANNEL) for a, b in channel_blocks(window.shape[2], bandwidth)]


def flatten_and_normalize(window: np.ndarray, labels: dict, provenance: D.Provenance) -> D.CsiClip:
    """Antenna-major flatten to (600, 90) plus per-timestamp z-score, as a clip.

    Population standard deviation; rows whose std falls below
    ``EPS_STD`` become all zeros.  The clip carries ``labels`` and
    ``provenance``.
    """
    t_len, n_ant, n_bins = window.shape
    if np.isnan(window).any():
        raise HarmonizeError("null sentinels must be cleaned before normalization")
    flat = window.reshape(t_len, n_ant * n_bins).astype(np.float64)
    mu = flat.mean(axis=1, keepdims=True)
    sd = flat.std(axis=1, keepdims=True)
    degenerate = sd <= EPS_STD
    z = np.where(degenerate, 0.0, (flat - mu) / np.where(degenerate, 1.0, sd))
    return D.CsiClip(data=z.astype(np.float32), labels=dict(labels), provenance=provenance).validate()


def qc_recording(
    recording: D.ChannelRecording,
    config: HarmonizeConfig,
    qc_config: Q.QcConfig,
    on_kept=None,
) -> Q.QcReport:
    """QC every link x window at native packet resolution.

    ``on_kept(link, window_index, cleaned)`` receives each window that
    survives QC.
    """
    report = Q.QcReport(source_id=recording.source_id)
    slices = window_slices(recording.n_t, recording.sampling_rate, config)
    for link in extract_links(recording, config):
        for w_idx, (start, n) in enumerate(slices):
            cleaned, window_qc = Q.clean_window(link.data[start : start + n], qc_config)
            report.add_window(window_qc)
            if cleaned is not None and on_kept is not None:
                on_kept(link, w_idx, cleaned)
    return report.finalize()


def harmonize_recording(
    recording: D.ChannelRecording,
    config: HarmonizeConfig | None = None,
    qc_config: Q.QcConfig | None = None,
) -> tuple:
    """Recording -> (clips, QcReport); QC runs per window before resampling."""
    config = (config or HarmonizeConfig()).validate()
    qcfg = (qc_config or Q.QcConfig()).validate()
    recording.validate()
    clips = []

    def to_clips(link, w_idx, cleaned):
        resampled = resample_linear(cleaned, 0, D.CLIP_TIME_LEN)
        for ch_idx, channel in enumerate(segment_and_resample_freq(resampled, recording.bandwidth)):
            prov = D.Provenance(
                source_id=recording.source_id,
                tx_index=link.tx_index,
                recv_index=link.recv_index,
                channel_index=ch_idx,
                window_index=w_idx,
            )
            clips.append(flatten_and_normalize(channel, recording.labels, prov))

    return clips, qc_recording(recording, config, qcfg, to_clips)
