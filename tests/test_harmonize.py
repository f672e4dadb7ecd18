"""Harmonization: link extraction, windowing, resampling, z-score invariants."""

import numpy as np
import pytest

from csimae import data as D
from csimae import harmonize as H
from csimae import synth as S


CFG = H.HarmonizeConfig()


def make_recording(n_t=2000, n_tx=1, n_recv=1, n_apr=3, n_f=30, rate=200.0, bandwidth=20e6, seed=0):
    scene = S.SceneSpec(
        paths=[
            S.PathComponent(1.0, 20e-9, 5.0, 0.3, 0.1),
            S.PathComponent(0.5 + 0.2j, 60e-9, -9.0, -0.6, 0.4),
            S.PathComponent(0.8j, 35e-9, 0.0, 0.9, -0.3),
        ],
        noise_std=0.02,
        n_t=n_t,
        n_f=n_f,
        sampling_rate=rate,
        bandwidth=bandwidth,
        n_tx=n_tx,
        n_recv=n_recv,
        n_apr=n_apr,
        seed=seed,
    )
    rec = S.simulate_cfr(scene)
    rec.labels = {"class": "c0", "environment": "env0"}
    rec.source_id = f"trec{seed}"
    return rec


def test_amplitude_modulus_and_nan_propagation():
    rec = make_recording(n_t=10)
    rec.data = np.full_like(rec.data, 3 + 4j)
    rec.data[3] = complex(np.nan, np.nan)
    amp = H.amplitude(rec)
    assert amp[0, 0, 0, 0] == pytest.approx(5.0)
    assert np.isnan(amp[3]).all()


def test_amplitude_identity_on_real_recordings():
    rec = make_recording(n_t=10)
    rec.data = np.abs(rec.data)  # amplitude-only dataset
    np.testing.assert_array_equal(H.amplitude(rec), rec.data)


def test_extract_links_product_count():
    rec = make_recording(n_t=50, n_tx=3, n_recv=3, n_apr=3)
    links = H.extract_links(rec, CFG)
    assert len(links) == 9
    assert {(l.tx_index, l.recv_index) for l in links} == {(t, r) for t in range(3) for r in range(3)}
    assert all(l.data.shape == (50, 3, 30) for l in links)


def test_extract_links_uses_first_three_of_four_antennas():
    rec = make_recording(n_t=20, n_recv=3, n_apr=4)
    amp = H.amplitude(rec)
    links = H.extract_links(rec, CFG)
    assert len(links) == 3
    for u, link in enumerate(links):
        np.testing.assert_array_equal(link.data, amp[:, u * 4 + np.arange(3), 0, :])


def test_extract_links_widar_layout():
    rec = make_recording(n_t=20, n_tx=1, n_recv=6, n_apr=3)
    assert len(H.extract_links(rec, CFG)) == 6


def test_extract_links_rejects_two_antenna_receivers():
    rec = make_recording(n_t=20, n_apr=2)
    with pytest.raises(H.HarmonizeError, match="n_apr=2"):
        H.extract_links(rec, CFG)


def test_window_count_matches_enumeration():
    # oracle: enumerate admissible starts directly
    n_t, rate = 2000, 200.0
    starts = [s for s in range(0, n_t, int(rate * CFG.stride_seconds)) if s + int(rate * CFG.window_seconds) <= n_t]
    slices = H.window_slices(n_t, rate, CFG)
    assert [s for s, _ in slices] == starts
    assert len(slices) == 9
    assert all(n == 400 for _, n in slices)


def test_exact_two_seconds_gives_one_window():
    assert len(H.window_slices(400, 200.0, CFG)) == 1


def test_short_recording_gives_zero_windows():
    assert H.window_slices(399, 200.0, CFG) == []


def window_and_resample(link, sampling_rate):
    """The time-axis path ``harmonize_recording`` runs: window slices, then linear resampling."""
    return [
        H.resample_linear(link[start : start + n], 0, D.CLIP_TIME_LEN)
        for start, n in H.window_slices(link.shape[0], sampling_rate, CFG)
    ]


def test_window_resample_to_600():
    link = np.random.default_rng(0).standard_normal((2000, 3, 30))
    wins = window_and_resample(link, 200.0)
    assert len(wins) == 9
    assert all(w.shape == (600, 3, 30) for w in wins)
    # endpoints preserved exactly
    np.testing.assert_array_equal(wins[0][0], link[0])
    np.testing.assert_array_equal(wins[0][-1], link[399])


def test_resample_identity_at_native_600():
    link = np.random.default_rng(1).standard_normal((600, 3, 30))
    wins = window_and_resample(link, 300.0)
    assert len(wins) == 1
    np.testing.assert_array_equal(wins[0], link)


def test_resample_exact_on_affine_signals():
    ramp = (3.0 * np.arange(250) - 7.0)[:, None, None] * np.ones((1, 3, 30))
    out = H.resample_linear(ramp, 0, 600)
    expect = (3.0 * np.linspace(0, 249, 600) - 7.0)[:, None, None] * np.ones((1, 3, 30))
    assert np.abs(out - expect).max() < 1e-6


def test_segment_160mhz_into_8_channels():
    win = np.random.default_rng(2).standard_normal((600, 3, 2048))
    channels = H.segment_and_resample_freq(win, 160e6)
    assert len(channels) == 8
    assert all(c.shape == (600, 3, 30) for c in channels)
    blocks = H.channel_blocks(2048, 160e6)
    assert all(b - a == 256 for a, b in blocks)


def test_segment_20mhz_30_bins_is_identity():
    win = np.random.default_rng(3).standard_normal((600, 3, 30))
    channels = H.segment_and_resample_freq(win, 20e6)
    assert len(channels) == 1
    np.testing.assert_array_equal(channels[0], win)


def test_segment_40mhz_114_subcarriers():
    win = np.random.default_rng(4).standard_normal((600, 3, 114))
    channels = H.segment_and_resample_freq(win, 40e6)
    assert len(channels) == 2
    assert H.channel_blocks(114, 40e6) == [(0, 57), (57, 114)]


def test_remainder_subcarriers_go_to_leading_blocks():
    assert H.channel_blocks(115, 40e6) == [(0, 58), (58, 115)]
    assert H.channel_blocks(2049, 160e6)[0] == (0, 257)


def flatten(win):
    """``flatten_and_normalize`` with placeholder labels and provenance."""
    return H.flatten_and_normalize(win, {}, D.Provenance("t", 0, 0, 0, 0))


def test_flatten_degenerate_row_maps_to_zeros():
    win = np.random.default_rng(5).standard_normal((600, 3, 30)) + 2.0
    win[17] = 4.2
    clip = flatten(win)
    assert (clip.data[17] == 0.0).all()


def test_flatten_hand_zscore_values():
    win = np.zeros((600, 3, 30))
    win[:, 0, :], win[:, 1, :], win[:, 2, :] = 1.0, 2.0, 3.0
    clip = flatten(win)
    z = np.sqrt(1.5)  # population std of {1,2,3} is sqrt(2/3)
    np.testing.assert_allclose(clip.data[0, :30], -z, atol=1e-6)
    np.testing.assert_allclose(clip.data[0, 30:60], 0.0, atol=1e-6)
    np.testing.assert_allclose(clip.data[0, 60:], z, atol=1e-6)


def test_flatten_is_antenna_major():
    win = np.zeros((600, 3, 30))
    for a in range(3):
        win[:, a, :] = 100.0 * a + np.arange(30)
    clip = flatten(win)
    # z-score is monotone per row, so column order must follow a*30+f
    assert (np.diff(clip.data[0]) > 0).all()


def test_flatten_rows_are_zero_mean_unit_std():
    rng = np.random.default_rng(6)
    for _ in range(20):
        win = rng.standard_normal((600, 3, 30)) * rng.uniform(0.1, 50) + rng.uniform(-5, 5)
        clip = flatten(win)
        assert np.abs(clip.data.mean(axis=1)).max() < 1e-5
        assert np.abs(clip.data.std(axis=1) - 1.0).max() < 1e-5


def test_flatten_rejects_nulls():
    win = np.ones((600, 3, 30))
    win[0, 0, 0] = np.nan
    with pytest.raises(D.DataError, match="null"):
        flatten(win)


def test_end_to_end_clip_count_and_provenance():
    rec = make_recording(n_t=2000, n_tx=2, n_recv=2, n_apr=3, rate=200.0)
    clips, report = H.harmonize_recording(rec)
    # N_tx * n_recv * n_windows * n_channels
    assert len(clips) == 2 * 2 * 9 * 1
    assert report.verdict == "kept" and report.n_windows == 4 * 9
    provs = {(c.provenance.tx_index, c.provenance.recv_index, c.provenance.window_index) for c in clips}
    assert len(provs) == len(clips)
    assert all(c.labels == rec.labels for c in clips)


def test_agc_scaling_leaves_clips_unchanged():
    rec = make_recording(seed=9)
    base, _ = H.harmonize_recording(rec)
    for c in (0.1, 10.0):
        scaled = make_recording(seed=9)
        scaled.data = scaled.data * c
        clips, _ = H.harmonize_recording(scaled)
        for a, b in zip(base, clips):
            assert np.abs(a.data - b.data).max() <= 1e-6


def test_processing_order_never_changes_bytes():
    r1, r2 = make_recording(seed=1), make_recording(seed=2)
    a1, _ = H.harmonize_recording(r1)
    b1, _ = H.harmonize_recording(r2)
    b2, _ = H.harmonize_recording(r2)
    a2, _ = H.harmonize_recording(r1)
    assert all(x.data.tobytes() == y.data.tobytes() for x, y in zip(a1, a2))
    assert all(x.data.tobytes() == y.data.tobytes() for x, y in zip(b1, b2))
