"""Artifact detection and repair on per-link amplitude windows.

Four artifact classes are handled before normalization: missing packets
(all-null time columns), impaired antennas (dead/constant or scattered
nulls), noisy packets (entries outside mu +/- k*sigma of their own time
series), and manually blocklisted irregular sources.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from . import data as D


IMPAIRMENT_VAR_EPS = 1e-10  # an antenna whose readings vary less than this within a window is dead


@dataclass
class QcConfig:
    max_missing_fraction: float = 0.10
    outlier_k: float = 2.0

    def __post_init__(self):
        if not 0 < self.max_missing_fraction < 1:
            raise ValueError("max_missing_fraction must be in (0, 1)")
        if not 0 < self.outlier_k < np.inf:
            raise ValueError("outlier_k must be positive and finite")


@dataclass
class WindowQc:
    kept: bool
    reason: str = ""
    missing_fraction: float = 0.0
    impaired_antennas: list = field(default_factory=list)
    outliers_repaired: int = 0

    def __post_init__(self):
        if not self.kept and not self.reason:
            raise ValueError("dropped window needs a reason")


@dataclass
class QcReport:
    """Per-recording QC outcome; verdict is kept iff any window survived."""

    source_id: str
    n_windows: int = 0
    n_kept: int = 0
    n_dropped_missing: int = 0
    n_dropped_antenna: int = 0
    missing_fraction: float = 0.0  # max over windows
    outliers_repaired: int = 0
    verdict: str = "kept"

    def add_window(self, w: WindowQc):
        self.n_windows += 1
        self.missing_fraction = max(self.missing_fraction, w.missing_fraction)
        self.outliers_repaired += w.outliers_repaired
        if w.kept:
            self.n_kept += 1
        elif w.impaired_antennas:
            self.n_dropped_antenna += 1
        else:
            self.n_dropped_missing += 1

    def finalize(self):
        if self.n_windows == 0:
            self.verdict = "dropped(too short)"
        elif self.n_kept == 0:
            self.verdict = "dropped(all windows failed qc)"
        else:
            self.verdict = "kept"
        return self


def _null_columns(window: np.ndarray) -> np.ndarray:
    return np.isnan(window).all(axis=tuple(range(1, window.ndim)))


def check_missing(window: np.ndarray, config: QcConfig) -> tuple:
    """Missing-packet check on one (time, antenna, subcarrier) window.

    Returns (WindowQc, filled_window_or_None).  Windows
    with strictly more than ``max_missing_fraction`` all-null columns are
    dropped; retained null columns are filled per series by linear
    interpolation from the nearest non-null columns (edges copy the
    nearest valid value).
    """
    nulls = _null_columns(window)
    fraction = float(nulls.mean())
    if nulls.all():
        return WindowQc(False, "empty", fraction), None
    if fraction > config.max_missing_fraction:
        reason = f"missing fraction {fraction:.4f} > {config.max_missing_fraction}"
        return WindowQc(False, reason, fraction), None
    if not nulls.any():
        return WindowQc(True, missing_fraction=fraction), window.copy()
    n_t = window.shape[0]
    flat = window.reshape(n_t, -1).copy()
    t = np.arange(n_t)
    valid = ~nulls
    for s in range(flat.shape[1]):
        flat[nulls, s] = np.interp(t[nulls], t[valid], flat[valid, s])
    return WindowQc(True, missing_fraction=fraction), flat.reshape(window.shape)


def check_antennas(window: np.ndarray) -> WindowQc:
    """Pure predicate: drop windows with dead or null-ridden antennas.

    An antenna fails on variance below ``IMPAIRMENT_VAR_EPS`` (constant
    or near-constant readings) or on any remaining per-entry nulls after
    missing-column handling.  A dropped window names the first failing
    antenna in ``impaired_antennas``.
    """
    for a in range(window.shape[1]):
        series = window[:, a, :]
        if np.isnan(series).any():
            return WindowQc(False, f"irregular nulls antenna {a}", impaired_antennas=[a])
        if float(series.var()) < IMPAIRMENT_VAR_EPS:
            return WindowQc(False, f"impaired antenna {a}", impaired_antennas=[a])
    return WindowQc(True)


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

    Returns (cleaned_window_or_None, WindowQc record).
    """
    missing, filled = check_missing(window, config)
    if not missing.kept:
        return None, missing
    verdict = check_antennas(filled)
    verdict.missing_fraction = missing.missing_fraction
    if not verdict.kept:
        return None, verdict
    repaired, verdict.outliers_repaired = repair_outliers(filled, config)
    return repaired, verdict


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
