"""Flat binary checkpoint container: name -> shape + little-endian raw floats.

Layout (all integers little-endian):

    magic   8 bytes  b"TNSRCKP1"
    version u32
    count   u32
    entry*  u16 name length, utf-8 name,
            u8 dtype code (0 = f32, 1 = f64),
            u8 ndim, u32 * ndim extents,
            raw little-endian float payload

Round-trips are bit-exact; loading verifies magic and version and that
the last entry ends the bytes.
"""

from __future__ import annotations

import io
import struct
from pathlib import Path

import numpy as np

MAGIC = b"TNSRCKP1"
VERSION = 1

_DTYPE_CODES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_CODE_FOR_KIND = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}


class CheckpointError(ValueError):
    """Malformed checkpoint bytes, duplicate parameter names, or names the
    loading system does not have."""


def dump_state(state: dict[str, np.ndarray]) -> bytes:
    """Serialize a name -> array mapping; names must be unique and non-empty."""
    buf = io.BytesIO()
    buf.write(MAGIC)
    buf.write(struct.pack("<II", VERSION, len(state)))
    seen: set[str] = set()
    for name, arr in state.items():
        if not name:
            raise CheckpointError("empty parameter name")
        if name in seen:
            raise CheckpointError(f"duplicate parameter name {name!r}")
        seen.add(name)
        arr = np.asarray(arr)
        if arr.dtype not in _CODE_FOR_KIND:
            raise CheckpointError(f"unsupported dtype {arr.dtype} for {name!r}")
        raw = name.encode("utf-8")
        buf.write(struct.pack("<H", len(raw)))
        buf.write(raw)
        buf.write(struct.pack("<BB", _CODE_FOR_KIND[arr.dtype], arr.ndim))
        buf.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
        code = _CODE_FOR_KIND[arr.dtype]
        buf.write(np.ascontiguousarray(arr, dtype=_DTYPE_CODES[code]).tobytes())
    return buf.getvalue()


def load_state(blob: bytes) -> dict[str, np.ndarray]:
    """Parse checkpoint bytes back into a name -> array mapping; malformed
    bytes raise ``CheckpointError`` naming the entry."""
    buf = io.BytesIO(blob)
    if buf.read(8) != MAGIC:
        raise CheckpointError("bad magic; not a checkpoint")
    state: dict[str, np.ndarray] = {}
    try:
        version, count = struct.unpack("<II", buf.read(8))
        if version != VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version}")
        for _ in range(count):
            (name_len,) = struct.unpack("<H", buf.read(2))
            name = buf.read(name_len).decode("utf-8")
            code, ndim = struct.unpack("<BB", buf.read(2))
            if code not in _DTYPE_CODES:
                raise CheckpointError(f"unknown dtype code {code}")
            shape = struct.unpack(f"<{ndim}I", buf.read(4 * ndim))
            dtype = _DTYPE_CODES[code]
            n = int(np.prod(shape)) if shape else 1
            payload = buf.read(n * dtype.itemsize)
            if len(payload) != n * dtype.itemsize:
                raise CheckpointError(f"truncated payload for {name!r}")
            if name in state:
                raise CheckpointError(f"duplicate parameter name {name!r}")
            state[name] = np.frombuffer(payload, dtype=dtype).reshape(shape).copy()
    except (struct.error, UnicodeDecodeError) as err:
        raise CheckpointError(f"malformed after {len(state)} complete entries: {err}") from err
    unread = len(blob) - buf.tell()
    if unread:
        raise CheckpointError(f"{unread} unread bytes after the last of {count} entries")
    return state


def save_checkpoint(path: str | Path, state: dict[str, np.ndarray]) -> None:
    Path(path).write_bytes(dump_state(state))


def load_checkpoint(path: str | Path) -> dict[str, np.ndarray]:
    try:
        return load_state(Path(path).read_bytes())
    except OSError as err:
        raise CheckpointError(f"cannot read checkpoint {path}: {err.strerror}") from err
    except CheckpointError as err:
        raise CheckpointError(f"{path}: {err}") from err
