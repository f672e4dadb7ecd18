"""Artifact detection/repair: boundary cases, hand-computed repairs, tail rates."""

from dataclasses import asdict

import numpy as np
import pytest

from csimae import data as D
from csimae import qc as Q
from csimae import synth as S
from csimae import harmonize as H


CFG = Q.QcConfig()


def clean_window(rng, n_t=600):
    base = 1.0 + 0.2 * np.sin(2 * np.pi * 3.0 * np.arange(n_t) / n_t)
    return base[:, None, None] + 0.05 * rng.standard_normal((n_t, 3, 30)) + rng.uniform(0.5, 1.5, (1, 3, 30))


def with_null_columns(win, cols):
    out = win.copy()
    out[list(cols)] = np.nan
    return out


def test_missing_above_boundary_drops():
    win = with_null_columns(clean_window(np.random.default_rng(0)), range(70))
    frac, filled = Q.check_missing(win, CFG)
    assert frac == pytest.approx(70 / 600)
    assert filled is None
    assert Q.clean_window(win, CFG) == (None, Q.WindowQc(False, frac, [], 0))


def test_missing_below_boundary_keeps_and_interpolates():
    win = with_null_columns(clean_window(np.random.default_rng(1)), range(100, 130))
    frac, filled = Q.check_missing(win, CFG)
    assert frac == pytest.approx(0.05)
    assert filled is not None
    assert not np.isnan(filled).any()
    # interpolation is linear between the bracketing valid columns
    expect = np.linspace(0, 1, 32)[1:-1, None, None] * (win[130] - win[99]) + win[99]
    np.testing.assert_allclose(filled[100:130], expect, atol=1e-12)


def test_missing_boundary_is_strictly_greater():
    win60 = with_null_columns(clean_window(np.random.default_rng(2)), range(60))
    _, filled = Q.check_missing(win60, CFG)
    assert filled is not None  # exactly 10% stays
    win61 = with_null_columns(clean_window(np.random.default_rng(2)), range(61))
    _, filled = Q.check_missing(win61, CFG)
    assert filled is None


def test_missing_endpoint_nulls_copy_nearest_valid():
    win = with_null_columns(clean_window(np.random.default_rng(3)), [0, 599])
    _, filled = Q.check_missing(win, CFG)
    assert filled is not None
    np.testing.assert_array_equal(filled[0], win[1])
    np.testing.assert_array_equal(filled[599], win[598])


def test_all_null_window_drops_on_its_missing_fraction_of_one():
    win = np.full((600, 3, 30), np.nan)
    assert Q.check_missing(win, CFG) == (1.0, None)
    assert Q.clean_window(win, CFG) == (None, Q.WindowQc(False, 1.0, [], 0))


def test_constant_antenna_detected():
    win = clean_window(np.random.default_rng(4))
    win[:, 1, :] = 0.7
    assert Q.check_antennas(win) == 1


def test_scattered_nulls_detected():
    win = clean_window(np.random.default_rng(5))
    win[17, 2, 4] = np.nan
    win[400, 2, 11] = np.nan
    assert Q.check_antennas(win) == 2


def test_simulated_multipath_passes_antenna_check():
    scene = S.SceneSpec(
        paths=[S.PathComponent(1.0, 20e-9, 6.0, 0.4, 0.0), S.PathComponent(0.6j, 50e-9, 0.0, -0.5, 0.0)],
        noise_std=0.01,
        n_t=600,
        sampling_rate=300.0,
    )
    rec = S.simulate_cfr(scene)
    win = H.amplitude(rec)[:, 0:3, 0, :]
    assert Q.check_antennas(win) is None
    assert win.reshape(600, -1).var(axis=0).min() > 100 * Q.IMPAIRMENT_VAR_EPS


def test_clean_window_keeps_the_antenna_verdict_and_adds_the_missing_fraction():
    win = clean_window(np.random.default_rng(7))
    win[:, 0, :] = 0.7
    win = with_null_columns(win, range(10, 40))
    cleaned, wq = Q.clean_window(win, CFG)
    assert cleaned is None
    assert wq == Q.WindowQc(False, 0.05, [0], 0)


WINDOWS = (
    Q.WindowQc(True, 0.02, [], 3),
    Q.WindowQc(False, 1.0, [], 0),
    Q.WindowQc(False, 0.2, [], 0),
    Q.WindowQc(False, 0.0, [1], 0),
    Q.WindowQc(False, 0.05, [0], 0),
)


def test_report_counts_a_dropped_window_by_its_impaired_antennas():
    record = asdict(Q.QcReport.of("r", WINDOWS))
    assert (record["n_windows"], record["n_kept"], record["n_dropped_missing"], record["n_dropped_antenna"]) == (5, 1, 2, 2)
    assert record["missing_fraction"] == 1.0 and record["verdict"] == "kept"
    assert "impaired_antennas" not in record


def test_report_of_the_window_table_is_the_whole_record_in_field_order():
    record = asdict(Q.QcReport.of("r", WINDOWS))
    assert list(record.items()) == [
        ("source_id", "r"), ("n_windows", 5), ("n_kept", 1), ("n_dropped_missing", 2), ("n_dropped_antenna", 2),
        ("missing_fraction", 1.0), ("outliers_repaired", 3), ("verdict", "kept"),
    ]


def test_report_of_no_windows_is_too_short():
    assert Q.QcReport.of("r", []) == Q.QcReport("r", 0, 0, 0, 0, 0.0, 0, "dropped(too short)")


def test_report_of_only_dropped_windows_failed_qc():
    report = Q.QcReport.of("r", WINDOWS[1:])
    assert (report.n_kept, report.verdict) == (0, "dropped(all windows failed qc)")


def test_check_antennas_never_alters_data():
    win = clean_window(np.random.default_rng(6))
    before = win.copy()
    Q.check_antennas(win)
    np.testing.assert_array_equal(win, before)


def test_single_spike_repaired_to_neighbors():
    win = np.ones((600, 1, 1))
    win[300] = 10.0
    # hand check: mu = 1 + 9/600, sigma = 9*sqrt(599)/600 -> spike is far outside 2 sigma
    series = win[:, 0, 0]
    mu, sd = series.mean(), series.std()
    assert abs(10.0 - mu) > 2 * sd
    repaired, n = Q.repair_outliers(win, CFG)
    assert n == 1
    assert repaired[300, 0, 0] == 1.0
    assert (repaired[np.arange(600) != 300] == 1.0).all()


def test_all_constant_window_repairs_nothing():
    win = np.full((600, 3, 30), 2.5)
    repaired, n = Q.repair_outliers(win, CFG)
    assert n == 0
    np.testing.assert_array_equal(repaired, win)


def test_repair_is_idempotent_for_isolated_spikes():
    t = np.arange(600)
    win = (1.0 + 0.3 * np.sin(2 * np.pi * 5 * t / 600))[:, None, None] * np.ones((1, 3, 30))
    win[100, 0, 3] = 9.0
    win[450, 2, 17] = -6.0
    once, n1 = Q.repair_outliers(win, CFG)
    assert n1 == 2
    twice, n2 = Q.repair_outliers(once, CFG)
    assert n2 == 0
    np.testing.assert_array_equal(once, twice)


def test_gaussian_tail_repair_rate():
    # reduced-size canary; the 1e6-sample check lives in the acceptance suite
    rng = np.random.default_rng(7)
    x = rng.standard_normal((600, 1, 400))
    _, n = Q.repair_outliers(x, CFG)
    rate = n / x.size
    assert rate == pytest.approx(0.0455, abs=0.004)


def test_edge_spikes_use_one_sided_neighbors():
    win = np.ones((100, 1, 1))
    win[0] = 50.0
    win[99] = -40.0
    repaired, n = Q.repair_outliers(win, CFG)
    assert n == 2
    assert repaired[0, 0, 0] == 1.0 and repaired[99, 0, 0] == 1.0


def test_injection_boundary_property():
    rng = np.random.default_rng(8)
    for m, expect_kept in ((10, True), (59, True), (60, True), (61, False), (90, False)):
        win = with_null_columns(clean_window(rng), rng.choice(600, size=m, replace=False))
        cleaned, record = Q.clean_window(win, CFG)
        assert (cleaned is not None) == expect_kept, m
        assert record.kept == expect_kept


def _store_manifest(tmp_path, sources):
    clips = []
    for i, src in enumerate(sources):
        clips.append(
            D.CsiClip(
                data=np.random.default_rng(i).standard_normal((600, 90)).astype(np.float32),
                labels={"class": "c0"},
                provenance=D.Provenance(src, 0, 0, 0, i),
            )
        )
    return D.write_clip_store(clips, tmp_path)


def test_blocklist_removes_sources(tmp_path):
    manifest = _store_manifest(tmp_path, ["S1", "S2", "S3"])
    filtered, log = Q.apply_blocklist(manifest, ["S3"])
    assert {e.provenance.source_id for e in filtered.entries} == {"S1", "S2"}
    assert log["removed_entries"] == 1 and not log["warnings"]
    assert "S3" in filtered.blocklist


def test_empty_blocklist_is_identity(tmp_path):
    manifest = _store_manifest(tmp_path, ["S1", "S2"])
    filtered, log = Q.apply_blocklist(manifest, [])
    assert [e.clip_id for e in filtered.entries] == [e.clip_id for e in manifest.entries]
    assert log["removed_entries"] == 0


def test_unknown_blocklist_id_warns(tmp_path):
    manifest = _store_manifest(tmp_path, ["S1"])
    filtered, log = Q.apply_blocklist(manifest, ["S9"])
    assert [e.clip_id for e in filtered.entries] == [e.clip_id for e in manifest.entries]
    assert log["warnings"] == ["blocklist id 'S9' not present"]


def test_reports_serialize_one_record_per_recording(tmp_path):
    reports = [Q.QcReport.of(f"r{i}", []) for i in range(3)]
    path = Q.write_reports(reports, tmp_path / "qc.jsonl")
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 3
    import json

    assert json.loads(lines[0])["source_id"] == "r0"
