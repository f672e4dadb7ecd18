"""Physics-based CSI simulator: multipath frequency response with Doppler.

Each propagation path contributes a complex gain, a linear phase ramp
across subcarriers (delay), a complex exponential over packet time
(Doppler), and uniform-linear-array steering factors at both ends.
Additive complex Gaussian noise models estimation error.  The simulator
doubles as the ground-truth oracle for the rest of the pipeline and as
the generator of labeled multi-domain datasets.

The task recipe is fixed: Doppler bands, subject scales, band centers,
device profiles, path counts and array spacing are module constants,
and a ``SynthTaskSpec`` sets how many of each table's entries it uses.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import data as D
from . import harmonize as H
from . import qc as Q


class SceneError(ValueError):
    """Invalid scene or task specification."""


ARRAY_SPACING = 0.5  # ULA element spacing at both ends, in wavelengths
CLASS_DOPPLER_BANDS = ((4.0, 8.0), (14.0, 18.0), (24.0, 28.0))  # Hz, one per class
SUBJECT_SCALES = (0.9, 1.1)  # Doppler scale, one per subject
BAND_CENTERS = (5e9, 2.4e9)  # Hz, one per band
DEVICE_PROFILES = ((1.0, 0.01), (0.6, 0.02))  # (gain, noise std), one per device
N_STATIC_PATHS = 4  # per environment
N_DYNAMIC_PATHS = 2  # per clip
DYNAMIC_GAIN_RANGE = (0.25, 0.6)
SOURCE_ID_PREFIX = "synth"  # of every generated clip's source id


@dataclass(frozen=True)
class PathComponent:
    gain: complex  # dimensionless complex path gain
    delay: float  # seconds
    doppler: float  # Hz
    aoa: float = 0.0  # radians, angle of arrival at the RX array
    aod: float = 0.0  # radians, angle of departure from the TX array

    def __post_init__(self):
        if not np.isfinite(abs(self.gain)):
            raise SceneError("path gain must be finite")
        if self.delay < 0:
            raise SceneError("path delay must be >= 0")


@dataclass(frozen=True)
class SceneSpec:
    paths: list
    noise_std: float = 0.0  # std of each complex noise entry, E[|e|^2] = noise_std^2
    n_t: int = 200
    n_f: int = 30
    sampling_rate: float = 100.0
    bandwidth: float = 20e6
    center_frequency: float = 5e9
    n_tx: int = 1
    n_recv: int = 1
    n_apr: int = 3
    seed: int = 0

    def __post_init__(self):
        if not self.paths:
            raise SceneError("paths must hold at least one path")


def steering_vector(n_elem: int, angle: float, spacing: float) -> np.ndarray:
    """ULA response e^{j 2 pi * spacing * m * sin(angle)}, m = 0..n-1."""
    m = np.arange(n_elem)
    return np.exp(2j * np.pi * spacing * m * np.sin(angle))


def simulate_cfr(scene: SceneSpec) -> D.ChannelRecording:
    """Render the scene to a ChannelRecording of shape (n_t, n_rx, n_tx, n_f).

    H[n,i,j,k] = sum_p gain_p * e^{-j2пf_k tau_p} * e^{j2п nu_p t_n}
                 * a_rx(theta_p)[i] * conj(a_tx(phi_p)[j]) + noise,
    with f_k = f_center + k * (bandwidth / n_f) and t_n = n / sampling_rate.
    Steering vectors are evaluated at the center frequency (narrowband).
    """
    n_rx = scene.n_recv * scene.n_apr
    t = np.arange(scene.n_t) / scene.sampling_rate
    f = scene.center_frequency + np.arange(scene.n_f) * (scene.bandwidth / scene.n_f)
    out = np.zeros((scene.n_t, n_rx, scene.n_tx, scene.n_f), dtype=np.complex128)
    for p in scene.paths:
        a_r = steering_vector(n_rx, p.aoa, ARRAY_SPACING)
        a_t = steering_vector(scene.n_tx, p.aod, ARRAY_SPACING)
        time_term = np.exp(2j * np.pi * p.doppler * t)  # (n_t,)
        freq_term = np.exp(-2j * np.pi * f * p.delay)  # (n_f,)
        out += (
            p.gain
            * time_term[:, None, None, None]
            * a_r[None, :, None, None]
            * np.conj(a_t)[None, None, :, None]
            * freq_term[None, None, None, :]
        )
    if scene.noise_std > 0:
        rng = np.random.default_rng(scene.seed)
        noise = rng.standard_normal(out.shape) + 1j * rng.standard_normal(out.shape)
        out += noise * (scene.noise_std / np.sqrt(2.0))
    return D.ChannelRecording(
        data=out,
        sampling_rate=scene.sampling_rate,
        center_frequency=scene.center_frequency,
        bandwidth=scene.bandwidth,
        n_recv=scene.n_recv,
        n_apr=scene.n_apr,
        labels={},
        source_id="sim",
    )


# ---------------------------------------------------------------------
# labeled multi-domain task generation


@dataclass(frozen=True)
class SynthTaskSpec:
    """Recipe for a balanced labeled dataset over class x domain cells.

    Classes are Doppler-signature bands; domains are nuisance factors:
    per-environment static path sets, per-subject Doppler scaling,
    per-band center frequency, per-device gain/noise profile.  A spec
    that generation could not run is refused when built: a bandwidth
    ``data.check_bandwidth`` refuses, fewer than
    ``harmonize.ANTENNAS_PER_RECEIVER`` antennas a receiver, too few
    subcarriers for ``harmonize.channel_blocks``, a sampling rate that is
    not above 0, or a seed that is no integer >= 0.
    """

    n_classes: int = 3
    n_environments: int = 3
    n_subjects: int = 2
    n_bands: int = 1
    n_devices: int = 1
    clips_per_cell: int = 111
    sampling_rate: float = 100.0
    n_packets: int = 200
    n_f: int = 30
    bandwidth: float = 20e6
    n_tx: int = 1
    n_recv: int = 1
    n_apr: int = 3
    seed: int = 0

    def __post_init__(self):
        for name in ("n_classes", "n_environments", "n_subjects", "n_bands", "n_devices", "clips_per_cell",
                     "n_packets", "n_f", "n_tx", "n_recv", "n_apr"):
            value = getattr(self, name)
            if type(value) is not int or value < 1:
                raise SceneError(f"{name} must be an integer >= 1, got {value!r}")
        if type(self.seed) is not int or self.seed < 0:
            raise SceneError(f"seed must be an integer >= 0, got {self.seed!r}")
        if self.n_apr < H.ANTENNAS_PER_RECEIVER:
            raise SceneError(f"n_apr {self.n_apr} is below the {H.ANTENNAS_PER_RECEIVER} antennas a receiver needs")
        try:
            D.check_bandwidth(self.bandwidth)
            H.channel_blocks(self.n_f, self.bandwidth)
        except (D.DataError, H.HarmonizeError) as e:
            raise SceneError(str(e)) from e
        if self.n_classes > len(CLASS_DOPPLER_BANDS):
            raise SceneError("need a Doppler band per class")
        if self.n_subjects > len(SUBJECT_SCALES):
            raise SceneError("need a Doppler scale per subject")
        if self.n_bands > len(BAND_CENTERS):
            raise SceneError("need a center frequency per band")
        if self.n_devices > len(DEVICE_PROFILES):
            raise SceneError("need a gain/noise profile per device")
        if not self.sampling_rate > 0:  # NaN too
            raise SceneError(f"sampling_rate must be > 0, got {self.sampling_rate!r}")
        nyquist = self.sampling_rate / 2.0
        top = max(hi for _, hi in CLASS_DOPPLER_BANDS[: self.n_classes]) * max(SUBJECT_SCALES[: self.n_subjects])
        if top >= nyquist:
            raise SceneError(f"class Doppler {top} Hz exceeds Nyquist {nyquist} Hz")

    def cells(self):
        for c in range(self.n_classes):
            for e in range(self.n_environments):
                for s in range(self.n_subjects):
                    for b in range(self.n_bands):
                        for d in range(self.n_devices):
                            yield (c, e, s, b, d)


def _random_path(rng, magnitude: float, doppler: float) -> PathComponent:
    """A path of gain ``magnitude`` and ``doppler`` whose phase, delay and two angles ``rng`` draws, in that order."""
    phase = rng.uniform(0, 2 * np.pi)
    return PathComponent(
        gain=magnitude * np.exp(1j * phase),
        delay=rng.uniform(10e-9, 80e-9),
        doppler=doppler,
        aoa=rng.uniform(-1.0, 1.0),
        aod=rng.uniform(-1.0, 1.0),
    )


def _environment_static_paths(spec: SynthTaskSpec, env: int) -> list:
    """Fixed per-environment multipath background (seeded, reused by every clip)."""
    rng = np.random.default_rng([spec.seed, 101, env])
    return [_random_path(rng, rng.uniform(0.6, 1.4), 0.0) for _ in range(N_STATIC_PATHS)]


def scene_for_clip(spec: SynthTaskSpec, cell: tuple, clip_idx: int) -> tuple:
    """Build the per-clip SceneSpec and its label dict."""
    c, e, s, b, d = cell
    rng = np.random.default_rng([spec.seed, 202, c, e, s, b, d, clip_idx])
    lo, hi = CLASS_DOPPLER_BANDS[c]
    scale = SUBJECT_SCALES[s]
    gain_mul, noise_std = DEVICE_PROFILES[d]
    paths = [
        PathComponent(p.gain * gain_mul, p.delay, p.doppler, p.aoa, p.aod)
        for p in _environment_static_paths(spec, e)
    ]
    nu = rng.uniform(lo, hi) * scale
    for k in range(N_DYNAMIC_PATHS):
        sign = 1.0 if k % 2 == 0 else -1.0
        paths.append(_random_path(rng, rng.uniform(*DYNAMIC_GAIN_RANGE) * gain_mul, sign * nu))
    scene = SceneSpec(
        paths=paths,
        noise_std=noise_std * gain_mul,
        n_t=spec.n_packets,
        n_f=spec.n_f,
        sampling_rate=spec.sampling_rate,
        bandwidth=spec.bandwidth,
        center_frequency=BAND_CENTERS[b],
        n_tx=spec.n_tx,
        n_recv=spec.n_recv,
        n_apr=spec.n_apr,
        seed=int(rng.integers(0, 2**63 - 1)),
    )
    labels = {
        "class": f"c{c}",
        "environment": f"env{e}",
        "subject": f"s{s}",
        "band": f"b{b}",
        "device": f"d{d}",
    }
    return scene, labels


def generate_task(
    spec: SynthTaskSpec,
    out_dir,
    harmonize_config: H.HarmonizeConfig | None = None,
    qc_config: Q.QcConfig | None = None,
) -> D.DatasetManifest:
    """Simulate, harmonize, and store one balanced labeled dataset.

    Both configs go to ``harmonize.harmonize_recording`` as given, so
    ``None`` means its defaults.  Every clip carries class plus all domain
    labels; generation is deterministic in ``spec.seed`` regardless of
    iteration order because each clip derives its own seed from (seed,
    cell, clip index).
    """
    clips = []
    for cell in spec.cells():
        c, e, s, b, d = cell
        for i in range(spec.clips_per_cell):
            scene, labels = scene_for_clip(spec, cell, i)
            rec = replace(simulate_cfr(scene), labels=labels, source_id=f"{SOURCE_ID_PREFIX}-c{c}e{e}s{s}b{b}d{d}-{i:04d}")
            rec_clips, report = H.harmonize_recording(rec, harmonize_config, qc_config)
            if not rec_clips:
                raise SceneError(f"cell {cell} clip {i}: harmonization produced no clips ({report.verdict})")
            clips.extend(rec_clips)
    return D.write_clip_store(clips, out_dir)
