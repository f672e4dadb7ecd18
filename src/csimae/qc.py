"""Artifact detection and repair on per-link amplitude windows.

Four artifact classes are handled before normalization: missing packets
(all-null time columns), impaired antennas (dead/constant or scattered
nulls), noisy packets (entries outside mu +/- k*sigma of their own time
series), and manually blocklisted irregular sources.

The checks return plain values; ``clean_window`` builds the one
``WindowQc`` of a window from them, and ``QcReport.of`` builds a
recording's report from its window verdicts.  Neither record changes
after it is built.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from . import data as D


IMPAIRMENT_VAR_EPS = 1e-10  # an antenna whose readings vary less than this within a window is dead


@dataclass(frozen=True)
class QcConfig:
    max_missing_fraction: float = 0.10
    outlier_k: float = 2.0

    def __post_init__(self):
        if not 0 < self.max_missing_fraction < 1:
            raise ValueError("max_missing_fraction must be in (0, 1)")
        if not 0 < self.outlier_k < np.inf:
            raise ValueError("outlier_k must be positive and finite")


@dataclass(frozen=True)
class WindowQc:
    """One window's QC verdict, built by ``clean_window``.

    A dropped window names its first failing antenna in
    ``impaired_antennas``; one dropped with none failed on missing packets.
    """

    kept: bool
    missing_fraction: float
    impaired_antennas: list
    outliers_repaired: int


@dataclass(frozen=True)
class QcReport:
    """Per-recording QC outcome, built from its window verdicts by ``of``."""

    source_id: str
    n_windows: int
    n_kept: int
    n_dropped_missing: int
    n_dropped_antenna: int
    missing_fraction: float  # max over windows, 0.0 for none
    outliers_repaired: int
    verdict: str  # kept iff any window survived

    @staticmethod
    def of(source_id: str, windows) -> "QcReport":
        """The report of a recording whose windows got the ``WindowQc`` verdicts ``windows``."""
        n_kept = sum(w.kept for w in windows)
        n_antenna = sum(1 for w in windows if not w.kept and w.impaired_antennas)
        verdict = "kept" if n_kept else "dropped(all windows failed qc)" if windows else "dropped(too short)"
        fraction = max((w.missing_fraction for w in windows), default=0.0)
        repaired = sum(w.outliers_repaired for w in windows)
        n_missing = len(windows) - n_kept - n_antenna
        return QcReport(source_id, len(windows), n_kept, n_missing, n_antenna, fraction, repaired, verdict)


def _null_columns(window: np.ndarray) -> np.ndarray:
    return np.isnan(window).all(axis=tuple(range(1, window.ndim)))


def check_missing(window: np.ndarray, config: QcConfig) -> tuple:
    """Missing-packet check on one (time, antenna, subcarrier) window.

    Returns (missing_fraction, filled_window_or_None).  Windows with
    strictly more than ``max_missing_fraction`` all-null columns are
    dropped; ``QcConfig`` keeps that bound below 1, so an all-null window
    is dropped the same way.  Retained null columns are filled per series
    by linear interpolation from the nearest non-null columns (edges copy
    the nearest valid value).
    """
    nulls = _null_columns(window)
    fraction = float(nulls.mean())
    if fraction > config.max_missing_fraction:
        return fraction, None
    if not nulls.any():
        return fraction, window.copy()
    n_t = window.shape[0]
    flat = window.reshape(n_t, -1).copy()
    t = np.arange(n_t)
    valid = ~nulls
    for s in range(flat.shape[1]):
        flat[nulls, s] = np.interp(t[nulls], t[valid], flat[valid, s])
    return fraction, flat.reshape(window.shape)


def check_antennas(window: np.ndarray) -> int | None:
    """Pure predicate: the first dead or null-ridden antenna, or ``None``.

    An antenna fails on any remaining per-entry nulls after
    missing-column handling, or on variance below ``IMPAIRMENT_VAR_EPS``
    (constant or near-constant readings).
    """
    for a in range(window.shape[1]):
        series = window[:, a, :]
        if np.isnan(series).any() or float(series.var()) < IMPAIRMENT_VAR_EPS:
            return a
    return None


def repair_outliers(window: np.ndarray, config: QcConfig) -> tuple:
    """Replace entries outside mu +/- k*sigma of their own time series.

    Statistics are per (antenna, subcarrier) series within the window;
    each outlier becomes the average of its nearest non-outlier temporal
    neighbors (one-sided at the edges).  Single pass, no re-iteration.
    """
    if np.isnan(window).any():
        raise ValueError("repair_outliers requires a null-free window")
    n_t = window.shape[0]
    x = window.reshape(n_t, -1)
    mu = x.mean(axis=0)
    sd = x.std(axis=0)
    out_mask = np.abs(x - mu) > config.outlier_k * sd
    out_mask &= sd > 0  # sigma = 0 -> no repairs
    n_repaired = int(out_mask.sum())
    if n_repaired == 0:
        return window.copy(), 0
    idx = np.arange(n_t)[:, None]
    valid = ~out_mask
    left = np.maximum.accumulate(np.where(valid, idx, -1), axis=0)
    right = np.minimum.accumulate(np.where(valid, idx, n_t)[::-1], axis=0)[::-1]
    left_val = np.take_along_axis(x, np.clip(left, 0, None), axis=0)
    right_val = np.take_along_axis(x, np.clip(right, None, n_t - 1), axis=0)
    has_l, has_r = left >= 0, right <= n_t - 1
    repl = np.where(has_l & has_r, 0.5 * (left_val + right_val), np.where(has_l, left_val, right_val))
    repaired = np.where(out_mask, repl, x)
    return repaired.reshape(window.shape), n_repaired


def clean_window(window: np.ndarray, config: QcConfig) -> tuple:
    """Full per-window QC: missing -> antennas -> outlier repair.

    Returns (cleaned_window_or_None, the window's one ``WindowQc``).
    """
    fraction, filled = check_missing(window, config)
    if filled is None:
        return None, WindowQc(False, fraction, [], 0)
    antenna = check_antennas(filled)
    if antenna is not None:
        return None, WindowQc(False, fraction, [antenna], 0)
    repaired, n_repaired = repair_outliers(filled, config)
    return repaired, WindowQc(True, fraction, [], n_repaired)


def apply_blocklist(manifest: D.DatasetManifest, blocklist) -> tuple:
    """Drop manifest entries whose provenance source_id is blocklisted.

    Returns (filtered manifest, removal log).  Unknown blocklist ids are
    reported as warnings, not errors.
    """
    blocklist = sorted(set(blocklist))
    present = {e.provenance.source_id for e in manifest.entries}
    warnings = [f"blocklist id {b!r} not present" for b in blocklist if b not in present]
    blocked = set(blocklist)
    kept = [e for e in manifest.entries if e.provenance.source_id not in blocked]
    removed = len(manifest.entries) - len(kept)
    filtered = D.DatasetManifest(entries=kept, blocklist=sorted(set(manifest.blocklist) | blocked))
    log = {"removed_entries": removed, "blocklist": blocklist, "warnings": warnings}
    return filtered, log


def write_reports(reports, path) -> Path:
    """One JSON record per recording, line-delimited."""
    return D.write_jsonl(path, [asdict(r) for r in reports])
