"""Domain types, the binary clip store, and dataset splits.

A recording is the raw complex channel tensor straight off a capture
(or the simulator); a clip is the canonical 600x90 normalized amplitude
tensor every model consumes.  Clips live in binary shards indexed by a
JSON manifest; both are bit-reproducible across platforms (little-endian
IEEE-754 payloads, canonically sorted manifests).
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

CLIP_TIME_LEN = 600
CLIP_CHAN_LEN = 90
VALID_BANDWIDTHS_HZ = (20e6, 40e6, 80e6, 160e6)
LABEL_KINDS = ("class", "subject", "environment", "track", "band", "device")

FORMAT_VERSION = 1
_CLIP_MAGIC = b"CSIC"
_REC_MAGIC = b"CSIR"
_DTYPE_CODES = {np.dtype("<f4"): 0, np.dtype("<f8"): 1, np.dtype("<c16"): 2}
_CODE_DTYPES = {v: k for k, v in _DTYPE_CODES.items()}

MANIFEST_NAME = "manifest.json"
SHARD_SIZE = 256


class DataError(ValueError):
    """Invalid domain object or store operation."""


class SplitError(ValueError):
    """Split cannot be formed from the given manifest."""


# ---------------------------------------------------------------------
# domain types


@dataclass
class ChannelRecording:
    """Raw complex channel tensor (time, rx chain, tx antenna, subcarrier).

    Missing packets are all-null time slices; the null sentinel is
    NaN+NaNj.  ``n_rx = n_recv * n_apr`` ties receive chains to physical
    receivers.
    """

    data: np.ndarray
    sampling_rate: float
    center_frequency: float
    bandwidth: float
    n_recv: int
    n_apr: int
    labels: dict = field(default_factory=dict)
    source_id: str = ""

    def validate(self):
        if self.data.ndim != 4:
            raise DataError(f"recording tensor must be 4-D, got {self.data.shape}")
        n_t, n_rx, n_tx, n_f = self.data.shape
        if n_rx != self.n_recv * self.n_apr:
            raise DataError(f"n_rx={n_rx} != n_recv*n_apr={self.n_recv * self.n_apr}")
        if self.sampling_rate <= 0:
            raise DataError("sampling_rate must be > 0")
        if not any(abs(self.bandwidth - b) < 1.0 for b in VALID_BANDWIDTHS_HZ):
            raise DataError(f"bandwidth {self.bandwidth} Hz not in {VALID_BANDWIDTHS_HZ}")
        if n_f < 1:
            raise DataError("need at least one subcarrier")
        return self

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

    def to_json(self):
        return asdict(self)

    @staticmethod
    def from_json(d):
        return Provenance(**d)


@dataclass
class CsiClip:
    """Canonical 600x90 z-scored amplitude tensor with labels and provenance."""

    data: np.ndarray
    labels: dict
    provenance: Provenance

    def validate(self):
        if self.data.shape != (CLIP_TIME_LEN, CLIP_CHAN_LEN):
            raise DataError(f"clip {self.clip_id}: shape {self.data.shape} != (600, 90)")
        if self.data.dtype != np.float32:
            raise DataError(f"clip {self.clip_id}: dtype {self.data.dtype} != float32")
        if not np.isfinite(self.data).all():
            raise DataError(f"clip {self.clip_id}: null sentinels remain")
        return self

    @property
    def clip_id(self) -> str:
        return self.provenance.clip_id


@dataclass(frozen=True)
class ManifestEntry:
    clip_id: str
    shard_path: str
    byte_offset: int
    labels: dict
    provenance: Provenance


_ENTRY_FIELDS = (("clip_id", str, "a string"), ("shard_path", str, "a string"), ("labels", dict, "an object"))


def _manifest_entry(i: int, d: dict) -> ManifestEntry:
    """Entry ``i`` of a parsed manifest, its field types checked; a wrong type raises ``DataError``."""
    for key, kind, what in _ENTRY_FIELDS:
        if not isinstance(d[key], kind):
            raise DataError(f"not a clip manifest (entry {i}: {key} {d[key]!r} is not {what})")
    offset = d["byte_offset"]
    if type(offset) is not int or offset < 0:
        raise DataError(f"not a clip manifest (entry {i}: byte_offset {offset!r} is not a non-negative integer)")
    return ManifestEntry(d["clip_id"], d["shard_path"], offset, d["labels"], Provenance.from_json(d["provenance"]))


@dataclass
class DatasetManifest:
    entries: list
    blocklist: list = field(default_factory=list)
    format_version: int = FORMAT_VERSION

    def __post_init__(self):
        ids = [e.clip_id for e in self.entries]
        if len(set(ids)) != len(ids):
            raise DataError("duplicate clip_ids in manifest")

    def ids(self):
        return [e.clip_id for e in self.entries]

    def by_id(self, clip_id):
        try:
            return self._index[clip_id]
        except AttributeError:
            object.__setattr__(self, "_index", {e.clip_id: e for e in self.entries})
            return self._index[clip_id]

    def to_json(self) -> str:
        doc = {
            "format_version": self.format_version,
            "blocklist": sorted(self.blocklist),
            "entries": [
                {
                    "clip_id": e.clip_id,
                    "shard_path": e.shard_path,
                    "byte_offset": e.byte_offset,
                    "labels": e.labels,
                    "provenance": e.provenance.to_json(),
                }
                for e in sorted(self.entries, key=lambda e: e.clip_id)
            ],
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    @staticmethod
    def from_json(text) -> "DatasetManifest":
        """Parse ``to_json`` output (str or UTF-8 bytes); anything else raises ``DataError``."""
        try:
            doc = json.loads(text)
            entries = [_manifest_entry(i, d) for i, d in enumerate(doc["entries"])]
            return DatasetManifest(entries, blocklist=doc.get("blocklist", []), format_version=doc["format_version"])
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
        """The manifest file at ``path``; a corrupt one raises ``DataError`` naming it."""
        try:
            return DatasetManifest.from_json(Path(path).read_bytes())
        except DataError as exc:
            raise DataError(f"{path}: {exc}") from None


@dataclass
class SplitSpec:
    protocol: str  # in_domain_8020 | leave_one_domain_out
    domain_key: str = "environment"
    held_out_value: str | None = None
    seed: int = 0

    def validate(self):
        if self.protocol not in ("in_domain_8020", "leave_one_domain_out"):
            raise SplitError(f"unknown protocol {self.protocol!r}")
        if self.protocol == "leave_one_domain_out" and self.held_out_value is None:
            raise SplitError("leave_one_domain_out needs a held_out_value")
        if self.protocol == "in_domain_8020" and (self.held_out_value, self.domain_key) != (None, "environment"):
            raise SplitError(f"in_domain_8020 holds out no domain, got {self.domain_key}={self.held_out_value!r}")
        return self


# ---------------------------------------------------------------------
# binary tensor records


def _write_record(buf, arr: np.ndarray) -> int:
    dt = arr.dtype.newbyteorder("<")
    code = _DTYPE_CODES[np.dtype(dt)]
    header = _CLIP_MAGIC + struct.pack("<III", FORMAT_VERSION, arr.ndim, code)
    header += struct.pack(f"<{arr.ndim}I", *arr.shape)
    buf.write(header)
    buf.write(np.ascontiguousarray(arr, dtype=dt).tobytes())
    return len(header) + arr.nbytes


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
            entries.append(
                ManifestEntry(
                    clip_id=clip.clip_id,
                    shard_path=_shard_name(shard_idx),
                    byte_offset=offset,
                    labels=dict(clip.labels),
                    provenance=clip.provenance,
                )
            )
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
    for clip in clips:
        clip.validate()
    store = Path(path)
    store.mkdir(parents=True, exist_ok=True)
    entries = []
    for i in range(0, len(clips), SHARD_SIZE):
        entries.extend(_write_shard(store, i // SHARD_SIZE, clips[i : i + SHARD_SIZE]))
    manifest = DatasetManifest(entries)
    manifest.save(store)
    return manifest


def load_clips(store_dir, manifest: DatasetManifest, clip_ids=None) -> list:
    """Read clips (all, or the given ids) grouped by shard for locality.

    A truncated or corrupt record raises ``DataError`` naming the shard,
    the byte offset and the clip id.
    """
    entries = manifest.entries if clip_ids is None else [manifest.by_id(c) for c in clip_ids]
    out = {}
    by_shard = {}
    for e in entries:
        by_shard.setdefault(e.shard_path, []).append(e)
    for shard, shard_entries in sorted(by_shard.items()):
        path = Path(store_dir) / shard
        with open(path, "rb") as fh:
            for e in sorted(shard_entries, key=lambda e: e.byte_offset):
                fh.seek(e.byte_offset)
                try:
                    arr = _read_record(fh)
                except DataError as exc:
                    raise DataError(f"{path} at byte {e.byte_offset} ({e.clip_id}): {exc}") from None
                out[e.clip_id] = CsiClip(data=arr, labels=dict(e.labels), provenance=e.provenance)
    if clip_ids is None:
        return [out[e.clip_id] for e in manifest.entries]
    return [out[c] for c in clip_ids]


def stack_clips(clips) -> tuple:
    """(N, 600, 90) float32 tensor plus the parallel label dicts."""
    return np.stack([c.data for c in clips]), [c.labels for c in clips]


# ---------------------------------------------------------------------
# recording files (interchange format)


def save_recording(rec: ChannelRecording, path) -> Path:
    """One-file interchange format: JSON metadata block + complex128 payload."""
    rec.validate()
    meta = {
        "sampling_rate": rec.sampling_rate,
        "center_frequency": rec.center_frequency,
        "bandwidth": rec.bandwidth,
        "n_recv": rec.n_recv,
        "n_apr": rec.n_apr,
        "labels": rec.labels,
        "source_id": rec.source_id,
    }
    blob = json.dumps(meta, sort_keys=True).encode("utf-8")
    path = Path(path)
    with open(path, "wb") as fh:
        fh.write(_REC_MAGIC + struct.pack("<II", FORMAT_VERSION, len(blob)))
        fh.write(blob)
        _write_record(fh, rec.data.astype(np.complex128, copy=False))
    return path


def load_recording(path) -> ChannelRecording:
    """Read a file written by ``save_recording``.

    A truncated or corrupt file raises ``DataError`` naming ``path``.
    """
    try:
        with open(path, "rb") as fh:
            magic = _read_exact(fh, 4, "recording magic")
            if magic != _REC_MAGIC:
                raise DataError(f"not a recording file: magic {magic!r}")
            version, meta_len = struct.unpack("<II", _read_exact(fh, 8, "recording header"))
            if version != FORMAT_VERSION:
                raise DataError(f"unsupported recording version {version}")
            blob = _read_exact(fh, meta_len, "metadata")
            try:
                meta = json.loads(blob)
            except ValueError as exc:
                raise DataError(f"metadata is not UTF-8 JSON ({exc})") from None
            data = _read_record(fh)
        try:
            return ChannelRecording(data=data, **meta).validate()
        except TypeError as exc:
            raise DataError(f"metadata does not describe a recording ({exc})") from None
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


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
    ``held_out_value``, one of ``domain_values``.  in_domain_8020 draws a
    seeded 20% test slice per class (plain random when class labels are
    absent).
    """
    spec.validate()
    if not manifest.entries:
        raise SplitError("empty manifest")

    if spec.protocol == "leave_one_domain_out":
        values = domain_values(manifest, spec.domain_key)
        if spec.held_out_value not in values:
            raise SplitError(f"held_out_value {spec.held_out_value!r} absent from the store, which holds {values}")
        test = sorted(e.clip_id for e in manifest.entries if e.labels[spec.domain_key] == spec.held_out_value)
        train = sorted(e.clip_id for e in manifest.entries if e.labels[spec.domain_key] != spec.held_out_value)
        return train, test

    # in_domain_8020, stratified by class label when present
    groups = {}
    for e in manifest.entries:
        groups.setdefault(e.labels.get("class"), []).append(e.clip_id)
    rng = np.random.default_rng([spec.seed, 8020])
    train, test = [], []
    for key in sorted(groups, key=str):
        ids = sorted(groups[key])
        order = rng.permutation(len(ids))
        n_test = int(round(0.2 * len(ids)))
        take = {ids[i] for i in order[:n_test]}
        test.extend(sorted(take))
        train.extend(sorted(set(ids) - take))
    return sorted(train), sorted(test)
