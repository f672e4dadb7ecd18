"""Where the parts of a tensor file or a tensor record lie, read from their own headers.

A record (``data._write_record``) is a magic, ``<III`` version, ndim and
dtype code, ``ndim`` ``<I`` dims, then the payload. A tensor file
(``data.write_tensor_file``) is a magic, ``<II`` version and metadata
length, the JSON metadata, then records to the end of the file. Tests
that cut or corrupt one part of a file find it here, so a change of
either layout edits this module only.
"""

import math
import struct

from csimae import data as D


def record_parts(raw, start: int = 0) -> dict:
    """Offsets of the record at ``start``: its ``ndim`` and ``dtype`` fields, ``shape``, ``payload`` and ``end``."""
    ndim, code = struct.unpack_from("<II", raw, start + 8)
    shape = struct.unpack_from(f"<{ndim}I", raw, start + 16)
    payload = start + 16 + 4 * ndim
    end = payload + math.prod(shape) * D._CODE_DTYPES[code].itemsize
    return {"start": start, "ndim": start + 8, "dtype": start + 12, "shape": start + 16, "payload": payload, "end": end}


def tensor_file_parts(raw, magic: bytes) -> dict:
    """Offsets of a tensor file's ``header``, ``metadata`` block and its end, and its ``records``' parts."""
    header = len(magic)
    (meta_len,) = struct.unpack_from("<I", raw, header + 4)
    records = [record_parts(raw, header + 8 + meta_len)]
    while records[-1]["end"] < len(raw):
        records.append(record_parts(raw, records[-1]["end"]))
    return {"header": header, "metadata": header + 8, "metadata_end": header + 8 + meta_len, "records": records}


def with_metadata(raw, magic: bytes, blob: bytes) -> bytes:
    """A tensor file ``raw`` whose JSON block (and its length field) is ``blob``."""
    parts = tensor_file_parts(raw, magic)
    at = parts["header"] + 4
    return raw[:at] + struct.pack("<I", len(blob)) + blob + raw[parts["metadata_end"] :]


def cut_points(raw, magic: bytes) -> dict:
    """An offset inside each part of a tensor file, keyed by the name a truncation there reports."""
    parts = tensor_file_parts(raw, magic)
    first = parts["records"][0]
    return {
        "magic": len(magic) // 2,
        "header": parts["header"] + 3,
        "metadata": (parts["metadata"] + parts["metadata_end"]) // 2,
        "record magic": first["start"] + 2,
        "record header": first["start"] + 10,
        "record shape": first["shape"] + 2,
        "record payload": parts["records"][-1]["end"] - 1,
    }
