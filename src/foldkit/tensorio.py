"""FKT1 binary tensor container.

One tensor per file (normative, little-endian):

    bytes 0..3   magic "FKT1"
    byte  4      rank (u8)
    then rank x  u32 dimension sizes
    then         f32 payload, row-major

Values are stored as f32; integer tensors (e.g. index arrays) are exact
up to 2**24.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import (BadMagic, DimensionMismatch, TruncatedPayload,
                     VersionMismatch)

MAGIC = b"FKT1"
MAX_RANK = 8


def tensor_to_bytes(array) -> bytes:
    arr = np.asarray(array, dtype=np.float64)
    if arr.ndim == 0 or arr.ndim > MAX_RANK:
        raise DimensionMismatch(f"rank {arr.ndim} outside 1..{MAX_RANK}")
    out = bytearray()
    out += MAGIC
    out += struct.pack("<B", arr.ndim)
    out += struct.pack(f"<{arr.ndim}I", *arr.shape)
    out += np.ascontiguousarray(arr, dtype="<f4").tobytes()
    return bytes(out)


def tensor_from_bytes(payload: bytes) -> np.ndarray:
    if len(payload) < 4:
        raise TruncatedPayload("payload shorter than the magic")
    if payload[:4] != MAGIC:
        raise BadMagic(f"expected {MAGIC!r}, got {payload[:4]!r}")
    if len(payload) < 5:
        raise TruncatedPayload("missing rank byte")
    rank = payload[4]
    if rank == 0 or rank > MAX_RANK:
        raise VersionMismatch(f"unsupported rank {rank}")
    dims_end = 5 + 4 * rank
    if len(payload) < dims_end:
        raise TruncatedPayload("missing dimension fields")
    dims = struct.unpack(f"<{rank}I", payload[5:dims_end])
    count = 1
    for d in dims:
        count *= d
    expected = dims_end + 4 * count
    if len(payload) != expected:
        raise TruncatedPayload(
            f"payload is {len(payload)} bytes, dims imply {expected}")
    data = np.frombuffer(payload, dtype="<f4", count=count, offset=dims_end)
    return data.reshape(dims).astype(np.float64)


def write_tensor(path, array) -> None:
    with open(path, "wb") as fh:
        fh.write(tensor_to_bytes(array))


def read_tensor(path) -> np.ndarray:
    with open(path, "rb") as fh:
        return tensor_from_bytes(fh.read())
