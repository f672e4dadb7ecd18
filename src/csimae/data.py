"""Domain types, the binary file formats, and dataset splits.

A recording is the raw complex channel tensor straight off a capture
(or the simulator); a clip is the canonical 600x90 normalized amplitude
tensor every model consumes.  Binary files use two little-endian,
bit-reproducible layouts.  A *record* (``_write_record``) is a magic,
``<III`` version, ndim and dtype code, the dims and the payload.  A
*tensor file* (``write_tensor_file``) is a caller's magic, ``<II``
version and metadata length, a JSON object, then records to the end of
the file; recordings (``.csir``) and checkpoints are tensor files.
Clip shards are back-to-back records indexed by a canonical JSON
manifest, read back as a list of clips (``load_clips``) or straight into
one clip array (``load_clip_array``).  Logs and result tables are JSON lines (``write_jsonl``,
``read_jsonl``).  Every reader raises ``DataError`` naming the file.
Records check themselves when built, raising ``DataError``, so a
reader that builds one has checked it and no caller checks it again.
Every record is frozen except ``ChannelRecording``: the bench's ingest
workload still sets a simulated recording's labels and source id by
assignment.  ``save_recording`` rebuilds it, so a recording whose fields
were reassigned invalid is never written.

``LABEL_KEY`` is the task label.  ``stratified_draw``, the one seeded
per-class draw over it, picks both ``make_split``'s in-domain test slice
and ``evaluate.select_labeled``'s labeled budget.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass, field, asdict, replace
from pathlib import Path

import numpy as np

CLIP_TIME_LEN = 600
CLIP_CHAN_LEN = 90
VALID_BANDWIDTHS_HZ = (20e6, 40e6, 80e6, 160e6)
LABEL_KEY = "class"  # the task label: what every downstream regime classifies and ``stratified_draw`` groups by
LABEL_KINDS = (LABEL_KEY, "subject", "environment", "track", "band", "device")

FORMAT_VERSION = 1
_CLIP_MAGIC = b"CSIC"
_REC_MAGIC = b"CSIR"
_REC_META = ("sampling_rate", "center_frequency", "bandwidth", "n_recv", "n_apr", "labels", "source_id")
_DTYPE_CODES = {np.dtype("<f4"): 0, np.dtype("<f8"): 1, np.dtype("<c16"): 2}
_CODE_DTYPES = {v: k for k, v in _DTYPE_CODES.items()}
_MAX_NDIM = 64  # numpy's array rank limit

MANIFEST_NAME = "manifest.json"
SHARD_SIZE = 256


class DataError(ValueError):
    """Invalid domain object or store operation."""


class SplitError(ValueError):
    """Split cannot be formed from the given manifest."""


# ---------------------------------------------------------------------
# domain types


def check_bandwidth(bandwidth: float):
    """Raise ``DataError`` unless ``bandwidth`` is one of ``VALID_BANDWIDTHS_HZ``, to within 1 Hz."""
    if not any(abs(bandwidth - b) < 1.0 for b in VALID_BANDWIDTHS_HZ):
        raise DataError(f"bandwidth {bandwidth} Hz not in {VALID_BANDWIDTHS_HZ}")


@dataclass
class ChannelRecording:
    """Raw complex channel tensor (time, rx chain, tx antenna, subcarrier).

    Missing packets are all-null time slices; the null sentinel is
    NaN+NaNj.  ``n_rx = n_recv * n_apr`` ties receive chains to physical
    receivers.  A recording checks its tensor and metadata when built.
    """

    data: np.ndarray
    sampling_rate: float
    center_frequency: float
    bandwidth: float
    n_recv: int
    n_apr: int
    labels: dict = field(default_factory=dict)
    source_id: str = ""

    def __post_init__(self):
        if self.data.ndim != 4:
            raise DataError(f"recording tensor must be 4-D, got {self.data.shape}")
        n_t, n_rx, n_tx, n_f = self.data.shape
        if n_rx != self.n_recv * self.n_apr:
            raise DataError(f"n_rx={n_rx} != n_recv*n_apr={self.n_recv * self.n_apr}")
        if self.sampling_rate <= 0:
            raise DataError("sampling_rate must be > 0")
        check_bandwidth(self.bandwidth)
        if n_f < 1:
            raise DataError("need at least one subcarrier")

    @property
    def n_t(self):
        return self.data.shape[0]

    @property
    def n_tx(self):
        return self.data.shape[2]

    @property
    def n_f(self):
        return self.data.shape[3]


@dataclass(frozen=True)
class Provenance:
    source_id: str
    tx_index: int
    recv_index: int
    channel_index: int
    window_index: int

    @property
    def clip_id(self) -> str:
        return f"{self.source_id}/t{self.tx_index}/r{self.recv_index}/c{self.channel_index}/w{self.window_index}"


@dataclass(frozen=True)
class CsiClip:
    """Canonical 600x90 z-scored amplitude tensor with labels and provenance; checked when built."""

    data: np.ndarray
    labels: dict
    provenance: Provenance

    def __post_init__(self):
        if self.data.shape != (CLIP_TIME_LEN, CLIP_CHAN_LEN):
            raise DataError(f"clip {self.clip_id}: shape {self.data.shape} != (600, 90)")
        if self.data.dtype != np.float32:
            raise DataError(f"clip {self.clip_id}: dtype {self.data.dtype} != float32")
        if not np.isfinite(self.data).all():
            raise DataError(f"clip {self.clip_id}: null sentinels remain")

    @property
    def clip_id(self) -> str:
        return self.provenance.clip_id


@dataclass(frozen=True)
class ManifestEntry:
    """Where a clip lies in a store; it checks its field types when built."""

    clip_id: str
    shard_path: str
    byte_offset: int
    labels: dict
    provenance: Provenance

    def __post_init__(self):
        for key, kind, what in ("clip_id", str, "a string"), ("shard_path", str, "a string"), ("labels", dict, "an object"):
            value = getattr(self, key)
            if not isinstance(value, kind):
                raise DataError(f"{key} {value!r} is not {what}")
        if type(self.byte_offset) is not int or self.byte_offset < 0:
            raise DataError(f"byte_offset {self.byte_offset!r} is not a non-negative integer")


@dataclass(frozen=True)
class DatasetManifest:
    entries: list
    blocklist: list = field(default_factory=list)

    def __post_init__(self):
        object.__setattr__(self, "_index", {e.clip_id: e for e in self.entries})
        if len(self._index) != len(self.entries):
            raise DataError("duplicate clip_ids in manifest")

    def by_id(self, clip_id):
        return self._index[clip_id]

    def to_json(self) -> str:
        doc = {
            "format_version": FORMAT_VERSION,
            "blocklist": sorted(self.blocklist),
            "entries": [asdict(e) for e in sorted(self.entries, key=lambda e: e.clip_id)],
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    @staticmethod
    def from_json(text) -> "DatasetManifest":
        """Parse ``to_json`` output (str or UTF-8 bytes); anything else raises ``DataError``."""
        try:
            doc = json.loads(text)
            if doc["format_version"] != FORMAT_VERSION:
                raise DataError(f"not a clip manifest (format_version {doc['format_version']!r})")
            blocklist = doc.get("blocklist", [])
            if not (isinstance(blocklist, list) and all(isinstance(b, str) for b in blocklist)):
                raise DataError(f"not a clip manifest (blocklist {blocklist!r} is not a list of strings)")
            entries = []
            for i, d in enumerate(doc["entries"]):
                try:
                    provenance = Provenance(**d["provenance"])
                    entries.append(ManifestEntry(d["clip_id"], d["shard_path"], d["byte_offset"], d["labels"], provenance))
                except DataError as exc:
                    raise DataError(f"not a clip manifest (entry {i}: {exc})") from None
            return DatasetManifest(entries, blocklist=blocklist)
        except DataError:
            raise
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise DataError(f"not a clip manifest ({type(exc).__name__}: {exc})") from None

    def save(self, store_dir) -> Path:
        path = Path(store_dir) / MANIFEST_NAME
        path.write_text(self.to_json(), encoding="utf-8")
        return path

    @staticmethod
    def load(store_dir) -> "DatasetManifest":
        """The manifest of the store at ``store_dir``."""
        return DatasetManifest.read(Path(store_dir) / MANIFEST_NAME)

    @staticmethod
    def read(path) -> "DatasetManifest":
        """The manifest file at ``path``; one that cannot be opened or is corrupt raises ``DataError`` naming it."""
        with _open_input(path) as fh:
            try:
                return DatasetManifest.from_json(fh.read())
            except DataError as exc:
                raise DataError(f"{path}: {exc}") from None


@dataclass(frozen=True)
class SplitSpec:
    protocol: str  # in_domain_8020 | leave_one_domain_out
    domain_key: str = "environment"
    held_out_value: str | None = None
    seed: int = 0

    def __post_init__(self):
        if self.protocol not in ("in_domain_8020", "leave_one_domain_out"):
            raise SplitError(f"unknown protocol {self.protocol!r}")
        if self.protocol == "leave_one_domain_out" and self.held_out_value is None:
            raise SplitError("leave_one_domain_out needs a held_out_value")
        if self.protocol == "in_domain_8020" and (self.held_out_value, self.domain_key) != (None, "environment"):
            raise SplitError(f"in_domain_8020 holds out no domain, got {self.domain_key}={self.held_out_value!r}")


# ---------------------------------------------------------------------
# binary tensor records


def _write_record(buf, arr: np.ndarray) -> int:
    arr = np.ascontiguousarray(arr, dtype=arr.dtype.newbyteorder("<"))
    code = _DTYPE_CODES[arr.dtype]
    header = _CLIP_MAGIC + struct.pack(f"<III{arr.ndim}I", FORMAT_VERSION, arr.ndim, code, *arr.shape)
    buf.write(header)
    buf.write(arr.tobytes())
    return len(header) + arr.nbytes


def _open_input(path):
    """``path`` opened for binary reading; one that cannot be opened raises ``DataError`` naming it."""
    try:
        return open(path, "rb")
    except OSError as exc:  # missing, a directory, not readable
        raise DataError(f"{path}: cannot open ({exc.strerror})") from None


def _read_exact(fh, n: int, what: str) -> bytes:
    """Read exactly ``n`` bytes of an open file, or raise ``DataError``.

    Never asks for more than the file still holds, so a corrupt length
    field cannot make it allocate a huge buffer.
    """
    left = max(os.fstat(fh.fileno()).st_size - fh.tell(), 0)
    buf = fh.read(min(n, left))
    if len(buf) != n:
        raise DataError(f"truncated in {what} ({len(buf)} of {n} bytes)")
    return buf


def _read_record(fh) -> np.ndarray:
    magic = _read_exact(fh, 4, "record magic")
    if magic != _CLIP_MAGIC:
        raise DataError(f"bad record magic {magic!r}")
    version, ndim, code = struct.unpack("<III", _read_exact(fh, 12, "record header"))
    if version != FORMAT_VERSION:
        raise DataError(f"unsupported record version {version}")
    if ndim > _MAX_NDIM:
        raise DataError(f"record rank {ndim} exceeds numpy's {_MAX_NDIM}")
    if code not in _CODE_DTYPES:
        raise DataError(f"unknown record dtype code {code}")
    shape = struct.unpack(f"<{ndim}I", _read_exact(fh, 4 * ndim, "record shape"))
    dtype = _CODE_DTYPES[code]
    payload = _read_exact(fh, math.prod(shape) * dtype.itemsize, "record payload")
    return np.frombuffer(payload, dtype=dtype).reshape(shape).copy()


# ---------------------------------------------------------------------
# clip store


def _shard_name(i: int) -> str:
    return f"shard-{i:04d}.bin"


def _write_shard(store: Path, shard_idx: int, clips) -> list:
    entries = []
    path = store / _shard_name(shard_idx)
    with open(path, "wb") as fh:
        offset = 0
        for clip in clips:
            entries.append(ManifestEntry(clip.clip_id, path.name, offset, dict(clip.labels), clip.provenance))
            offset += _write_record(fh, clip.data)
    return entries


def write_clip_store(clips, path) -> DatasetManifest:
    """Persist clips into binary shards of ``SHARD_SIZE`` clips plus a canonical manifest.

    Shards and manifest depend only on the clips and their order, so the
    same clips always give a byte-identical store.
    """
    clips = list(clips)
    if not clips:
        raise DataError("empty dataset")
    store = Path(path)
    store.mkdir(parents=True, exist_ok=True)
    entries = []
    for i in range(0, len(clips), SHARD_SIZE):
        entries.extend(_write_shard(store, i // SHARD_SIZE, clips[i : i + SHARD_SIZE]))
    manifest = DatasetManifest(entries)
    manifest.save(store)
    return manifest


def _read_clips(store_dir, entries):
    """Yield (entry, clip) for each entry, read shard by shard in byte order for locality.

    A shard that cannot be opened raises ``DataError`` naming it, and a
    truncated or corrupt record, or one that ``CsiClip`` refuses, naming
    the shard, the byte offset and the clip id.
    """
    by_shard = {}
    for e in entries:
        by_shard.setdefault(e.shard_path, []).append(e)
    for shard, shard_entries in sorted(by_shard.items()):
        path = Path(store_dir) / shard
        with _open_input(path) as fh:
            for e in sorted(shard_entries, key=lambda e: e.byte_offset):
                fh.seek(e.byte_offset)
                try:
                    clip = CsiClip(data=_read_record(fh), labels=dict(e.labels), provenance=e.provenance)
                except DataError as exc:
                    raise DataError(f"{path} at byte {e.byte_offset} ({e.clip_id}): {exc}") from None
                yield e, clip


def load_clips(store_dir, manifest: DatasetManifest, clip_ids=None) -> list:
    """Read clips (all, or the given ids, in that order) grouped by shard for locality.

    A truncated or corrupt record, or one that ``CsiClip`` refuses,
    raises ``DataError`` naming the shard, the byte offset and the clip id.
    """
    entries = manifest.entries if clip_ids is None else [manifest.by_id(c) for c in clip_ids]
    out = {e.clip_id: clip for e, clip in _read_clips(store_dir, entries)}
    return [out[e.clip_id] for e in entries]


def load_clip_array(store_dir, manifest: DatasetManifest) -> np.ndarray:
    """Every clip of the manifest, in its order, as one (N, 600, 90) float32 array.

    The array is allocated once and each record is copied into its row as
    it is read, so the clips are held once and a read holds one record
    besides.  Each record is still built and checked as a ``CsiClip`` and
    fails as ``load_clips`` does.
    """
    out = np.empty((len(manifest.entries), CLIP_TIME_LEN, CLIP_CHAN_LEN), dtype=np.float32)
    row = {e.clip_id: i for i, e in enumerate(manifest.entries)}
    for e, clip in _read_clips(store_dir, manifest.entries):
        out[row[e.clip_id]] = clip.data
    return out


def stack_clips(clips) -> tuple:
    """(N, 600, 90) float32 tensor plus the parallel label dicts.

    The library no longer stacks loaded clips (``load_clip_array`` reads a
    store straight into one array); the bench and the tests still call this.
    """
    return np.stack([c.data for c in clips]), [c.labels for c in clips]


# ---------------------------------------------------------------------
# tensor files and recording files


def write_tensor_file(path, magic: bytes, meta: dict, arrays) -> Path:
    """Write ``magic``, the format version and metadata length, ``meta`` as JSON, then one record per array."""
    blob = json.dumps(meta, sort_keys=True).encode("utf-8")
    path = Path(path)
    with open(path, "wb") as fh:
        fh.write(magic + struct.pack("<II", FORMAT_VERSION, len(blob)))
        fh.write(blob)
        for arr in arrays:
            _write_record(fh, arr)
    return path


def read_tensor_file(path, magic: bytes) -> tuple:
    """(metadata dict, list of arrays) of a file ``write_tensor_file`` wrote with ``magic``.

    A file that cannot be opened, or is truncated or corrupt, raises
    ``DataError`` naming ``path``.
    """
    with _open_input(path) as fh:
        try:
            got = _read_exact(fh, len(magic), "magic")
            if got != magic:
                raise DataError(f"magic {got!r} is not {magic!r}")
            version, meta_len = struct.unpack("<II", _read_exact(fh, 8, "header"))
            if version != FORMAT_VERSION:
                raise DataError(f"unsupported format version {version}")
            blob = _read_exact(fh, meta_len, "metadata")
            try:
                meta = json.loads(blob)
                if not isinstance(meta, dict):
                    raise ValueError(f"a {type(meta).__name__}")
            except ValueError as exc:
                raise DataError(f"metadata is not a UTF-8 JSON object ({exc})") from None
            size = os.fstat(fh.fileno()).st_size
            arrays = []
            while fh.tell() < size:
                arrays.append(_read_record(fh))
        except DataError as exc:
            raise DataError(f"{path}: {exc}") from None
    return meta, arrays


def save_recording(rec: ChannelRecording, path) -> Path:
    """One-file interchange format: a tensor file of the metadata and the complex128 tensor.

    The recording is rebuilt first, so one whose fields were reassigned
    invalid raises ``DataError`` and no file is written.
    """
    rec = replace(rec)
    meta = {k: getattr(rec, k) for k in _REC_META}
    return write_tensor_file(path, _REC_MAGIC, meta, [rec.data.astype(np.complex128, copy=False)])


def load_recording(path) -> ChannelRecording:
    """Read a file written by ``save_recording``.

    A truncated or corrupt file raises ``DataError`` naming ``path``.
    """
    meta, arrays = read_tensor_file(path, _REC_MAGIC)
    try:
        (data,) = arrays
        return ChannelRecording(data=data, **meta)
    except (TypeError, ValueError) as exc:  # not one record, unknown metadata, or what ChannelRecording refuses
        raise DataError(f"{path}: not a recording ({exc})") from None


def write_json(path, doc) -> Path:
    """``doc`` as one ``json.dumps(doc, indent=2, sort_keys=True)`` document."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True), encoding="utf-8")
    return path


def write_jsonl(path, records) -> Path:
    """One ``json.dumps(record, sort_keys=True)`` line per record."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(r, sort_keys=True) + "\n" for r in records)
    return path


def read_jsonl(path) -> list:
    """The records of a JSON-lines file; a line that is no JSON object raises ``DataError`` naming it."""
    records = []
    for i, line in enumerate(Path(path).read_bytes().splitlines(), 1):
        try:
            record = json.loads(line.decode("utf-8"))
        except ValueError as exc:
            raise DataError(f"{path} line {i}: not UTF-8 JSON ({exc})") from None
        if not isinstance(record, dict):
            raise DataError(f"{path} line {i}: not a JSON object")
        records.append(record)
    return records


# ---------------------------------------------------------------------
# splits


def domain_values(manifest: DatasetManifest, key: str) -> list:
    """The sorted values of domain label ``key``, one leave-one-domain-out fold each.

    Raises ``SplitError`` when ``key`` is no domain label, when a clip
    lacks it, or when it takes fewer than two values.
    """
    if key not in LABEL_KINDS[1:]:
        raise SplitError(f"domain_key must be one of {LABEL_KINDS[1:]}, got {key!r}")
    missing = [e.clip_id for e in manifest.entries if key not in e.labels]
    if missing:
        raise SplitError(f"{len(missing)} clips lack domain label {key!r}")
    values = sorted({e.labels[key] for e in manifest.entries})
    if len(values) < 2:
        raise SplitError(f"no second domain: {key} takes only {values}")
    return values


def make_split(manifest: DatasetManifest, spec: SplitSpec) -> tuple:
    """Partition manifest clip ids into (train, test) per the protocol: the one judge of a fold.

    leave_one_domain_out holds out every clip whose domain label equals
    ``held_out_value``, one of ``domain_values``.  in_domain_8020 holds
    out a ``stratified_draw`` of ``round(0.2 n)`` of each class's ``n``
    clips on stream ``[seed, 8020]``.
    """
    if not manifest.entries:
        raise SplitError("empty manifest")

    if spec.protocol == "leave_one_domain_out":
        values = domain_values(manifest, spec.domain_key)
        if spec.held_out_value not in values:
            raise SplitError(f"held_out_value {spec.held_out_value!r} absent from the store, which holds {values}")
        test = sorted(e.clip_id for e in manifest.entries if e.labels[spec.domain_key] == spec.held_out_value)
        train = sorted(e.clip_id for e in manifest.entries if e.labels[spec.domain_key] != spec.held_out_value)
        return train, test

    test = stratified_draw(manifest.entries, lambda n: int(round(0.2 * n)), [spec.seed, 8020])
    ids = sorted(e.clip_id for e in manifest.entries)
    return [i for i in ids if i not in test], [i for i in ids if i in test]


def stratified_draw(items, n_of, seed) -> set:
    """The clip ids of a seeded per-class draw: ``n_of(n)`` of each class's ``n`` items.

    Items (clips or manifest entries) group by their ``LABEL_KEY`` label,
    clips without one forming a group of their own.  Groups go in ``str``
    order of that label, each sorted by clip id and permuted by the one
    ``default_rng(seed)`` stream.
    """
    groups = {}
    for item in items:
        groups.setdefault(item.labels.get(LABEL_KEY), []).append(item.clip_id)
    rng = np.random.default_rng(seed)
    drawn = set()
    for key in sorted(groups, key=str):
        ids = sorted(groups[key])
        order = rng.permutation(len(ids))
        drawn.update(ids[i] for i in order[: n_of(len(ids))])
    return drawn
