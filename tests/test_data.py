"""Clip store round-trips, manifests, split protocols, and corrupt files."""

import json
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from csimae import data as D


def make_clip(i, labels=None, rng=None):
    rng = rng or np.random.default_rng(i)
    return D.CsiClip(
        data=rng.standard_normal((600, 90)).astype(np.float32),
        labels=labels or {"class": f"c{i % 3}", "environment": f"env{i % 2}"},
        provenance=D.Provenance(f"src{i:04d}", 0, 0, 0, 0),
    )


def test_store_round_trip_is_bit_identical(tmp_path):
    clips = [make_clip(i) for i in range(3)]
    manifest = D.write_clip_store(clips, tmp_path)
    assert len(manifest.entries) == 3
    back = D.load_clips(tmp_path, manifest, [c.clip_id for c in clips])
    for orig, rt in zip(clips, back):
        assert orig.data.tobytes() == rt.data.tobytes()
        assert orig.labels == rt.labels
        assert orig.provenance == rt.provenance


def test_empty_store_rejected(tmp_path):
    with pytest.raises(D.DataError, match="empty dataset"):
        D.write_clip_store([], tmp_path)


def test_bad_shape_rejected_with_clip_id(tmp_path):
    clip = make_clip(5)
    clip.data = clip.data[:10]
    with pytest.raises(D.DataError, match="src0005"):
        D.write_clip_store([clip], tmp_path)


def test_same_clips_give_a_byte_identical_store(tmp_path):
    clips = [make_clip(i) for i in range(D.SHARD_SIZE + 3)]
    D.write_clip_store(clips, tmp_path / "a")
    D.write_clip_store(clips, tmp_path / "b")
    files = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert files == ["manifest.json", "shard-0000.bin", "shard-0001.bin"]
    assert files == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in files:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_manifest_save_load_round_trip(tmp_path):
    manifest = D.write_clip_store([make_clip(i) for i in range(7)], tmp_path)
    loaded = D.DatasetManifest.load(tmp_path)
    assert loaded.to_json() == manifest.to_json()


def _json(doc) -> bytes:
    return json.dumps(doc).encode()


def _with_entry_field(doc, key, value) -> bytes:
    """The manifest ``doc`` with ``key`` of its last entry set to ``value``."""
    entries = [dict(e) for e in doc["entries"]]
    entries[-1][key] = value
    return _json({**doc, "entries": entries})


MANIFEST_FAULTS = {
    "not-json": lambda doc: b"{not json",
    "not-utf-8": lambda doc: b"\xff\xfe{}",
    "a-list": lambda doc: b"[1, 2]",
    "no-entries": lambda doc: _json({"format_version": 1}),
    "entry-without-shard_path": lambda doc: _json(
        {**doc, "entries": [{k: v for k, v in e.items() if k != "shard_path"} for e in doc["entries"]]}
    ),
    "entry-not-an-object": lambda doc: _json({**doc, "entries": ["clip"]}),
    "bad-provenance": lambda doc: _json({**doc, "entries": [{**e, "provenance": {"src": 1}} for e in doc["entries"]]}),
    "byte_offset-a-string": lambda doc: _with_entry_field(doc, "byte_offset", "0"),
    "byte_offset-negative": lambda doc: _with_entry_field(doc, "byte_offset", -1),
    "byte_offset-a-float": lambda doc: _with_entry_field(doc, "byte_offset", 0.0),
    "byte_offset-a-bool": lambda doc: _with_entry_field(doc, "byte_offset", False),
    "clip_id-a-number": lambda doc: _with_entry_field(doc, "clip_id", 7),
    "shard_path-null": lambda doc: _with_entry_field(doc, "shard_path", None),
    "labels-a-list": lambda doc: _with_entry_field(doc, "labels", ["c0"]),
}


@pytest.mark.parametrize("fault", sorted(MANIFEST_FAULTS))
def test_corrupt_manifest_raises_data_error_naming_the_file(tmp_path, fault):
    D.write_clip_store([make_clip(i) for i in range(2)], tmp_path)
    path = tmp_path / D.MANIFEST_NAME
    path.write_bytes(MANIFEST_FAULTS[fault](json.loads(path.read_text())))
    with pytest.raises(D.DataError, match="not a clip manifest") as err:
        D.DatasetManifest.load(tmp_path)
    assert str(path) in str(err.value)


def test_duplicate_clip_ids_rejected(tmp_path):
    clips = [make_clip(1), make_clip(1)]
    with pytest.raises(D.DataError, match="duplicate"):
        D.write_clip_store(clips, tmp_path)


def _manifest_with_domains(counts):
    entries = []
    i = 0
    for env, n in counts.items():
        for _ in range(n):
            entries.append(
                D.ManifestEntry(
                    clip_id=f"id{i:04d}",
                    shard_path="shard-0000.bin",
                    byte_offset=0,
                    labels={"class": f"c{i % 4}", "environment": env},
                    provenance=D.Provenance(f"s{i}", 0, 0, 0, 0),
                )
            )
            i += 1
    return D.DatasetManifest(entries)


def test_leave_one_domain_out_partitions_by_label():
    manifest = _manifest_with_domains({"A": 10, "B": 12, "C": 9})
    spec = D.SplitSpec("leave_one_domain_out", "environment", "C", seed=3)
    train, test = D.make_split(manifest, spec)
    assert len(test) == 9 and len(train) == 22
    assert {manifest.by_id(c).labels["environment"] for c in test} == {"C"}
    assert "C" not in {manifest.by_id(c).labels["environment"] for c in train}
    assert sorted(train + test) == sorted(manifest.ids())


def test_single_domain_rejected():
    manifest = _manifest_with_domains({"A": 10})
    with pytest.raises(D.SplitError, match="no second domain"):
        D.make_split(manifest, D.SplitSpec("leave_one_domain_out", "environment", "A"))


def test_absent_held_out_value_rejected():
    manifest = _manifest_with_domains({"A": 5, "B": 5})
    with pytest.raises(D.SplitError, match="absent"):
        D.make_split(manifest, D.SplitSpec("leave_one_domain_out", "environment", "Z"))


def test_in_domain_8020_ratio_and_determinism():
    manifest = _manifest_with_domains({"A": 50, "B": 50})
    spec = D.SplitSpec("in_domain_8020", seed=7)
    train, test = D.make_split(manifest, spec)
    assert len(train) == 80 and len(test) == 20
    train2, test2 = D.make_split(manifest, spec)
    assert train == train2 and test == test2
    # different seed moves the sample
    train3, _ = D.make_split(manifest, D.SplitSpec("in_domain_8020", seed=8))
    assert train3 != train


def test_in_domain_8020_stratifies_by_class():
    manifest = _manifest_with_domains({"A": 100})
    train, test = D.make_split(manifest, D.SplitSpec("in_domain_8020", seed=1))
    for cls in ("c0", "c1", "c2", "c3"):
        n_cls = sum(1 for e in manifest.entries if e.labels["class"] == cls)
        n_test = sum(1 for c in test if manifest.by_id(c).labels["class"] == cls)
        assert abs(n_test - 0.2 * n_cls) <= 1


def test_split_is_total_and_disjoint_partition():
    manifest = _manifest_with_domains({"A": 33, "B": 21})
    for spec in (
        D.SplitSpec("in_domain_8020", seed=5),
        D.SplitSpec("leave_one_domain_out", "environment", "B"),
    ):
        train, test = D.make_split(manifest, spec)
        assert set(train) | set(test) == set(manifest.ids())
        assert set(train) & set(test) == set()


def test_recording_file_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    data = rng.standard_normal((40, 3, 1, 30)) + 1j * rng.standard_normal((40, 3, 1, 30))
    data[7] = complex(np.nan, np.nan)  # missing packet
    rec = D.ChannelRecording(
        data=data,
        sampling_rate=100.0,
        center_frequency=5e9,
        bandwidth=20e6,
        n_recv=1,
        n_apr=3,
        labels={"class": "c1", "environment": "env0"},
        source_id="rec-rt",
    )
    path = D.save_recording(rec, tmp_path / "r.csir")
    back = D.load_recording(path)
    finite = ~np.isnan(data)
    assert np.array_equal(back.data[finite], data[finite])
    assert np.isnan(back.data[7]).all()
    assert back.labels == rec.labels and back.source_id == "rec-rt"
    assert back.sampling_rate == 100.0 and back.bandwidth == 20e6


def test_recording_invariants_enforced():
    rec = D.ChannelRecording(
        data=np.zeros((10, 4, 1, 30), dtype=complex),
        sampling_rate=100.0,
        center_frequency=5e9,
        bandwidth=20e6,
        n_recv=1,
        n_apr=3,
    )
    with pytest.raises(D.DataError, match="n_rx"):
        rec.validate()
    rec = D.ChannelRecording(
        data=np.zeros((10, 3, 1, 30), dtype=complex),
        sampling_rate=100.0,
        center_frequency=5e9,
        bandwidth=33e6,
        n_recv=1,
        n_apr=3,
    )
    with pytest.raises(D.DataError, match="bandwidth"):
        rec.validate()


def make_recording():
    rng = np.random.default_rng(3)
    data = rng.standard_normal((40, 3, 1, 30)) + 1j * rng.standard_normal((40, 3, 1, 30))
    return D.ChannelRecording(
        data=data, sampling_rate=100.0, center_frequency=5e9, bandwidth=20e6, n_recv=1, n_apr=3,
        labels={"class": "c1"}, source_id="rec-cut",
    )


def record_start(raw):
    """Byte offset of the tensor record that follows a recording's metadata block."""
    return 12 + struct.unpack("<I", raw[8:12])[0]


# where each part of a saved recording lies, as a cut offset into the file
CUTS = {
    "magic": lambda raw: 2,
    "header": lambda raw: 7,
    "metadata": lambda raw: (12 + record_start(raw)) // 2,
    "record header": lambda raw: record_start(raw) + 10,
    "record shape": lambda raw: record_start(raw) + 19,
    "payload": lambda raw: len(raw) - 5,
}


@pytest.mark.parametrize("part", sorted(CUTS))
def test_truncated_recording_raises_data_error(tmp_path, part):
    raw = D.save_recording(make_recording(), tmp_path / "r.csir").read_bytes()
    cut = tmp_path / "cut.csir"
    cut.write_bytes(raw[: CUTS[part](raw)])
    with pytest.raises(D.DataError, match="truncated") as err:
        D.load_recording(cut)
    assert str(cut) in str(err.value)


def test_recording_with_unknown_dtype_code_raises_data_error(tmp_path):
    raw = bytearray(D.save_recording(make_recording(), tmp_path / "r.csir").read_bytes())
    at = record_start(raw) + 12  # magic, version, ndim, then the dtype code
    raw[at : at + 4] = struct.pack("<I", 7)
    (tmp_path / "bad.csir").write_bytes(bytes(raw))
    with pytest.raises(D.DataError, match="dtype code 7"):
        D.load_recording(tmp_path / "bad.csir")


def test_recording_with_corrupt_metadata_raises_data_error(tmp_path):
    raw = bytearray(D.save_recording(make_recording(), tmp_path / "r.csir").read_bytes())
    raw[12] = 0xFF  # first byte of the JSON block
    (tmp_path / "bad.csir").write_bytes(bytes(raw))
    with pytest.raises(D.DataError, match="metadata"):
        D.load_recording(tmp_path / "bad.csir")


def test_truncated_or_corrupt_shard_raises_data_error(tmp_path):
    clips = [make_clip(i) for i in range(2)]
    manifest = D.write_clip_store(clips, tmp_path)
    shard = tmp_path / manifest.entries[0].shard_path
    raw = shard.read_bytes()
    second = manifest.entries[1]
    shard.write_bytes(raw[: second.byte_offset + 30])
    with pytest.raises(D.DataError, match="truncated") as err:
        D.load_clips(tmp_path, manifest)
    assert str(shard) in str(err.value) and second.clip_id in str(err.value)
    bad = bytearray(raw)
    bad[12:16] = struct.pack("<I", 9)  # dtype code of the first record
    shard.write_bytes(bytes(bad))
    with pytest.raises(D.DataError, match="dtype code 9"):
        D.load_clips(tmp_path, manifest)


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    root = tmp_path_factory.mktemp("saved")
    rec = D.save_recording(make_recording(), root / "r.csir").read_bytes()
    manifest = D.write_clip_store([make_clip(i) for i in range(2)], root / "store")
    shard = (root / "store" / manifest.entries[0].shard_path).read_bytes()
    return root, rec, manifest, shard


@given(data=st.data())
def test_recording_truncated_anywhere_raises_data_error(saved, data):
    root, raw, _, _ = saved
    cut = data.draw(st.integers(0, len(raw) - 1))
    (root / "cut.csir").write_bytes(raw[:cut])
    with pytest.raises(D.DataError):
        D.load_recording(root / "cut.csir")


@given(data=st.data())
def test_shard_truncated_anywhere_raises_data_error(saved, data):
    root, _, manifest, raw = saved
    cut = data.draw(st.integers(0, len(raw) - 1))
    (root / "cut").mkdir(exist_ok=True)
    (root / "cut" / manifest.entries[0].shard_path).write_bytes(raw[:cut])
    with pytest.raises(D.DataError):
        D.load_clips(root / "cut", manifest)


@given(data=st.data())
def test_manifest_truncated_anywhere_raises_data_error(saved, data):
    root, _, manifest, _ = saved
    raw = manifest.to_json().encode("utf-8")
    cut = data.draw(st.integers(0, len(raw) - 1))
    (root / "cut.json").write_bytes(raw[:cut])
    with pytest.raises(D.DataError, match="not a clip manifest"):
        D.DatasetManifest.read(root / "cut.json")


_names = st.text(st.characters(codec="utf-8", exclude_categories=("Cs",)), max_size=8)
_provenance = st.builds(D.Provenance, _names, *[st.integers(0, 2**31)] * 4)


@st.composite
def manifests(draw):
    provenances = draw(st.lists(_provenance, max_size=6, unique_by=lambda p: p.clip_id))
    entries = [
        D.ManifestEntry(
            p.clip_id,
            draw(_names),
            draw(st.integers(0, 2**53)),
            draw(st.dictionaries(st.sampled_from(D.LABEL_KINDS), _names)),
            p,
        )
        for p in provenances
    ]
    return D.DatasetManifest(entries, blocklist=draw(st.lists(_names, max_size=3)))


@given(manifest=manifests())
def test_manifest_survives_a_json_round_trip(manifest):
    text = manifest.to_json()
    back = D.DatasetManifest.from_json(text)
    assert back.to_json() == text
    assert back.entries == sorted(manifest.entries, key=lambda e: e.clip_id)
    assert sorted(back.blocklist) == sorted(manifest.blocklist)
