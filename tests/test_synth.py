"""Simulator oracles: closed-form CFR cases, transform identities, task generation."""

import numpy as np
import pytest

from csimae import data as D
from csimae import synth as S


def single_path_scene(**kw):
    defaults = dict(
        paths=[S.PathComponent(gain=1.0, delay=0.0, doppler=0.0)],
        noise_std=0.0,
        n_t=16,
        n_f=30,
        sampling_rate=100.0,
        bandwidth=20e6,
        center_frequency=5e9,
        n_tx=1,
        n_recv=1,
        n_apr=1,
    )
    defaults.update(kw)
    return S.SceneSpec(**defaults)


def test_trivial_path_gives_unit_cfr():
    rec = S.simulate_cfr(single_path_scene())
    np.testing.assert_allclose(rec.data, 1.0, atol=1e-12)


def test_delay_gives_linear_phase_per_subcarrier():
    # pick tau so the per-subcarrier phase step is exactly pi/2
    bw, n_f = 20e6, 30
    delta_f = bw / n_f
    tau = (np.pi / 2) / (2 * np.pi * delta_f)
    scene = single_path_scene(paths=[S.PathComponent(1.0, tau, 0.0)], n_f=n_f, bandwidth=bw)
    rec = S.simulate_cfr(scene)
    phases = np.unwrap(np.angle(rec.data[0, 0, 0, :]))
    np.testing.assert_allclose(np.diff(phases), -np.pi / 2, atol=1e-9)


def test_broadside_steering_makes_antennas_identical():
    scene = single_path_scene(
        paths=[S.PathComponent(1.0, 10e-9, 5.0, aoa=0.0), S.PathComponent(0.5j, 40e-9, -3.0, aoa=0.0)],
        n_apr=3,
    )
    rec = S.simulate_cfr(scene)
    np.testing.assert_allclose(rec.data[:, 0], rec.data[:, 1], atol=1e-12)
    np.testing.assert_allclose(rec.data[:, 0], rec.data[:, 2], atol=1e-12)


def test_simulation_linearity_in_paths():
    p1 = [S.PathComponent(0.8 + 0.2j, 20e-9, 4.0, 0.3, -0.2)]
    p2 = [S.PathComponent(-0.5 + 1.0j, 55e-9, -9.0, -0.7, 0.5)]
    a = S.simulate_cfr(single_path_scene(paths=p1, n_apr=3, n_tx=2))
    b = S.simulate_cfr(single_path_scene(paths=p2, n_apr=3, n_tx=2))
    both = S.simulate_cfr(single_path_scene(paths=p1 + p2, n_apr=3, n_tx=2))
    err = np.abs(both.data - (a.data + b.data)).max() / np.abs(both.data).max()
    assert err < 1e-9


def test_doppler_scaling_moves_spectral_peak():
    peaks = {}
    for s in (1, 2):
        scene = single_path_scene(paths=[S.PathComponent(1.0, 0.0, 8.0 * s)], n_t=200)
        rec = S.simulate_cfr(scene)
        spec = np.abs(np.fft.fft(rec.data[:, 0, 0, 0]))
        freqs = np.fft.fftfreq(200, d=1.0 / 100.0)
        peaks[s] = freqs[np.argmax(spec)]
    assert peaks[1] == pytest.approx(8.0, abs=0.5)
    assert peaks[2] == pytest.approx(2 * peaks[1], abs=0.5)


def test_seeded_noise_is_deterministic():
    scene = single_path_scene(noise_std=0.3, seed=42)
    a = S.simulate_cfr(scene)
    b = S.simulate_cfr(scene)
    assert a.data.tobytes() == b.data.tobytes()


def cfr_to_cir(recording):
    """Unitary inverse DFT along the subcarrier axis, indexed (delay bin, time, rx, tx)."""
    cir = np.fft.ifft(recording.data, axis=3) * np.sqrt(recording.n_f)
    return np.moveaxis(cir, 3, 0)


def test_cir_of_constant_cfr_is_delta_at_zero():
    rec = S.simulate_cfr(single_path_scene())
    cir = cfr_to_cir(rec)
    assert np.abs(cir[0]).min() > 1.0
    assert np.abs(cir[1:]).max() < 1e-9


@pytest.mark.parametrize("m", [1, 7, 29])
def test_cir_recovers_integer_bin_delay(m):
    n_f = 30
    k = np.arange(n_f)
    rec = S.simulate_cfr(single_path_scene(n_f=n_f))
    rec.data = np.exp(-2j * np.pi * k * m / n_f)[None, None, None, :] * np.ones((4, 1, 1, 1))
    cir = cfr_to_cir(rec)
    mags = np.abs(cir[:, 0, 0, 0])
    assert np.argmax(mags) == m
    others = np.delete(mags, m)
    assert others.max() < 1e-9


def test_cir_preserves_energy():
    rng = np.random.default_rng(0)
    rec = S.simulate_cfr(single_path_scene(n_apr=3, n_t=8))
    rec.data = rng.standard_normal(rec.data.shape) + 1j * rng.standard_normal(rec.data.shape)
    cir = cfr_to_cir(rec)
    e_cfr = np.sum(np.abs(rec.data) ** 2)
    e_cir = np.sum(np.abs(cir) ** 2)
    assert abs(e_cir - e_cfr) / e_cfr < 1e-9


def test_forward_transform_inverts_cir():
    scene = single_path_scene(
        paths=[S.PathComponent(1.0, 25e-9, 6.0, 0.4, 0.1), S.PathComponent(0.3j, 60e-9, -11.0, -0.5, 0.9)],
        n_apr=3,
    )
    rec = S.simulate_cfr(scene)
    cir = cfr_to_cir(rec)
    cfr_back = np.fft.fft(np.moveaxis(cir, 0, 3), axis=3) / np.sqrt(rec.n_f)
    err = np.abs(cfr_back - rec.data).max() / np.abs(rec.data).max()
    assert err < 1e-9


# ----------------------------------------------------------------------
# task generation


def small_task(**kw):
    defaults = dict(n_classes=3, n_environments=2, n_subjects=2, clips_per_cell=5, seed=11)
    defaults.update(kw)
    return S.SynthTaskSpec(**defaults)


def test_generate_task_counts_and_labels(tmp_path):
    manifest = S.generate_task(small_task(), tmp_path / "store")
    assert len(manifest.entries) == 3 * 2 * 2 * 5
    for e in manifest.entries:
        assert set(e.labels) == {"class", "environment", "subject", "band", "device"}
    per_cell = {}
    for e in manifest.entries:
        key = (e.labels["class"], e.labels["environment"], e.labels["subject"])
        per_cell[key] = per_cell.get(key, 0) + 1
    assert set(per_cell.values()) == {5}


def test_generate_task_is_deterministic(tmp_path):
    m1 = S.generate_task(small_task(), tmp_path / "a")
    m2 = S.generate_task(small_task(), tmp_path / "b")
    assert m1.to_json() == m2.to_json()
    for shard in sorted(p.name for p in (tmp_path / "a").glob("shard-*.bin")):
        assert (tmp_path / "a" / shard).read_bytes() == (tmp_path / "b" / shard).read_bytes()


def test_generated_source_ids_name_the_cell_and_clip(tmp_path):
    spec = small_task(clips_per_cell=2)
    manifest = S.generate_task(spec, tmp_path / "store")
    want = {
        f"synth-c{c}e{e}s{s}b{b}d{d}-{i:04d}" for c, e, s, b, d in spec.cells() for i in range(spec.clips_per_cell)
    }
    assert {entry.provenance.source_id for entry in manifest.entries} == want


def test_infeasible_cell_count_rejected(tmp_path):
    with pytest.raises(S.SceneError, match="clips_per_cell"):
        S.generate_task(small_task(clips_per_cell=0), tmp_path)


# specs that generation cannot run, each with its refusal; all but the negative sampling rate (once
# refused as a Doppler above a negative Nyquist) passed construction and failed mid-generation with
# a DataError, a HarmonizeError, a wrong "no clips" reason or a numpy error
GENERATION_REFUSALS = {
    "bandwidth-30MHz": (dict(bandwidth=30e6), r"bandwidth 30000000.0 Hz not in \(2"),
    "n_apr-2": (dict(n_apr=2), "n_apr 2 is below the 3 antennas a receiver needs"),
    "n_tx-0": (dict(n_tx=0), "n_tx must be an integer >= 1, got 0"),
    "n_recv-0": (dict(n_recv=0), "n_recv must be an integer >= 1, got 0"),
    "160MHz-4-subcarriers": (dict(bandwidth=160e6, n_f=4), "4 subcarriers cannot fill 8 channels"),
    "seed-negative": (dict(seed=-1), "seed must be an integer >= 0, got -1"),
    "seed-fractional": (dict(seed=1.5), "seed must be an integer >= 0, got 1.5"),
    "sampling-rate-nan": (dict(sampling_rate=float("nan")), "sampling_rate must be > 0, got nan"),
    "sampling-rate-negative": (dict(sampling_rate=-100.0), "sampling_rate must be > 0, got -100.0"),
}


@pytest.mark.parametrize("fields, refusal", GENERATION_REFUSALS.values(), ids=GENERATION_REFUSALS)
def test_a_task_that_generation_cannot_run_is_refused_when_built(fields, refusal):
    with pytest.raises(S.SceneError, match=refusal):
        small_task(**fields)


def doppler_profile(clip_data):
    """Mean magnitude spectrum over time, averaged across channels."""
    return np.abs(np.fft.rfft(clip_data, axis=0)).mean(axis=1)


def centroid_accuracy(clips, train_ids, test_ids):
    """Independent nearest-centroid oracle on mean Doppler spectra."""
    by_id = {c.clip_id: c for c in clips}
    feats = {cid: doppler_profile(by_id[cid].data) for cid in train_ids + test_ids}
    classes = sorted({by_id[cid].labels["class"] for cid in train_ids})
    centroids = {
        k: np.mean([feats[cid] for cid in train_ids if by_id[cid].labels["class"] == k], axis=0) for k in classes
    }
    hits = 0
    for cid in test_ids:
        pred = min(classes, key=lambda k: np.linalg.norm(feats[cid] - centroids[k]))
        hits += pred == by_id[cid].labels["class"]
    return hits / len(test_ids)


def test_nearest_centroid_oracle_separates_classes(tmp_path):
    # reduced-size canary for the full-scale acceptance check
    manifest = S.generate_task(small_task(clips_per_cell=12, seed=3), tmp_path / "store")
    clips = D.load_clips(tmp_path / "store", manifest)
    train, test = D.make_split(manifest, D.SplitSpec("in_domain_8020", seed=0))
    assert centroid_accuracy(clips, train, test) > 0.9
