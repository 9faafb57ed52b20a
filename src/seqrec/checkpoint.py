"""Binary checkpoint container: config text + named arrays (+ optimizer).

Layout (all integers little-endian):

    magic   b"SEQRECKPT2\\n"
    u32     config byte length, then UTF-8 config text (key = value lines)
    u32     parameter array count, then that many array blocks
    u8      optimizer flag; if 1: u64 step count, u32 count, array blocks
    u32     zlib.crc32 of every byte before it, magic included

Version 1 files (magic b"SEQRECKPT1\\n") hold the same payload with no
CRC trailer; they still load. A version 2 file whose CRC does not match,
or that is cut short or runs on past its trailer, is refused before any
field of it is parsed.

One array block:

    u16 name length + UTF-8 name
    u8  dtype code (4 = float32, 8 = float64)
    u8  ndim, then ndim * u32 dims
    raw little-endian payload

Arrays round-trip bit-exactly in their own dtype, so a float64 training
run resumes with no precision loss. A save writes a temporary file next to
the target and renames it into place, so an interrupted save leaves the
previous file whole.
"""

from __future__ import annotations

import contextlib
import io
import os
import struct
import zlib

import numpy as np

from .errors import CheckpointError

MAGIC = b"SEQRECKPT2\n"
MAGIC_V1 = b"SEQRECKPT1\n"
_CRC = struct.Struct("<I")
_DTYPES = {4: np.dtype("<f4"), 8: np.dtype("<f8")}


def _write_array(fh, name: str, arr: np.ndarray) -> None:
    if arr.dtype == np.float32:
        code, dt = 4, _DTYPES[4]
    elif arr.dtype == np.float64:
        code, dt = 8, _DTYPES[8]
    else:
        raise CheckpointError(f"array {name!r} has unsupported dtype {arr.dtype}")
    name_b = name.encode("utf-8")
    fh.write(struct.pack("<H", len(name_b)))
    fh.write(name_b)
    fh.write(struct.pack("<BB", code, arr.ndim))
    fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
    fh.write(np.ascontiguousarray(arr, dtype=dt).tobytes())


def _read_exact(fh, n: int) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise CheckpointError(f"truncated checkpoint: wanted {n} bytes, got {len(data)}")
    return data


def _read_text(fh, n: int, what: str) -> str:
    try:
        return _read_exact(fh, n).decode("utf-8")
    except UnicodeDecodeError as err:
        raise CheckpointError(f"{what} is not valid UTF-8: {err.reason} at byte "
                              f"{err.start}") from None


def _read_array(fh) -> tuple[str, np.ndarray]:
    (name_len,) = struct.unpack("<H", _read_exact(fh, 2))
    name = _read_text(fh, name_len, "array name")
    code, ndim = struct.unpack("<BB", _read_exact(fh, 2))
    if code not in _DTYPES:
        raise CheckpointError(f"array {name!r}: unknown dtype code {code}")
    shape = struct.unpack(f"<{ndim}I", _read_exact(fh, 4 * ndim))
    count = int(np.prod(shape)) if ndim else 1
    payload = _read_exact(fh, count * code)
    arr = np.frombuffer(payload, dtype=_DTYPES[code]).reshape(shape).copy()
    return name, arr


def _read_arrays(fh, count: int) -> dict[str, np.ndarray]:
    """count array blocks, keyed by name; a name may appear only once."""
    arrays: dict[str, np.ndarray] = {}
    for _ in range(count):
        name, arr = _read_array(fh)
        if name in arrays:
            raise CheckpointError(f"array {name!r} appears twice")
        arrays[name] = arr
    return arrays


class _CrcWriter:
    """Write-through file wrapper keeping a running zlib.crc32 of what it wrote."""

    def __init__(self, fh):
        self.fh, self.crc = fh, 0

    def write(self, data: bytes) -> None:
        self.crc = zlib.crc32(data, self.crc)
        self.fh.write(data)


def _write_payload(fh, config_text, params, opt_step, opt_arrays) -> None:
    config_b = config_text.encode("utf-8")
    fh.write(struct.pack("<I", len(config_b)))
    fh.write(config_b)
    fh.write(struct.pack("<I", len(params)))
    for name, arr in params.items():
        _write_array(fh, name, arr)
    if opt_step is None:
        fh.write(struct.pack("<B", 0))
    else:
        fh.write(struct.pack("<B", 1))
        fh.write(struct.pack("<Q", opt_step))
        fh.write(struct.pack("<I", len(opt_arrays or {})))
        for name, arr in (opt_arrays or {}).items():
            _write_array(fh, name, arr)


def save_checkpoint(
    path,
    config_text: str,
    params: dict[str, np.ndarray],
    opt_step: int | None = None,
    opt_arrays: dict[str, np.ndarray] | None = None,
) -> None:
    """Write atomically: a synced temporary file in path's directory replaces path."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            out = _CrcWriter(fh)
            out.write(MAGIC)
            _write_payload(out, config_text, params, opt_step, opt_arrays)
            fh.write(_CRC.pack(out.crc))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _verified_end(data: bytes) -> int:
    """Where a version 2 file's payload ends, once its CRC trailer matched."""
    end = len(data) - _CRC.size
    if end < len(MAGIC):
        raise CheckpointError(f"truncated checkpoint: {len(data)} bytes, no CRC trailer")
    (stored,) = _CRC.unpack_from(data, end)
    computed = zlib.crc32(memoryview(data)[:end])
    if stored != computed:
        raise CheckpointError(f"checkpoint CRC mismatch: stored {stored:#010x}, "
                              f"computed {computed:#010x} (corrupt or truncated file)")
    return end


def load_checkpoint(path):
    """Returns (config_text, params, opt_step | None, opt_arrays | None)."""
    with open(path, "rb") as fh:
        data = fh.read()
    magic = data[:len(MAGIC)]
    if magic == MAGIC:
        end = _verified_end(data)
    elif magic == MAGIC_V1:
        end = len(data)
    else:
        raise CheckpointError(f"bad magic/version header {magic!r}; expected {MAGIC!r} "
                              f"or {MAGIC_V1!r}")
    buf = io.BytesIO(data)
    buf.seek(len(magic))
    (config_len,) = struct.unpack("<I", _read_exact(buf, 4))
    config_text = _read_text(buf, config_len, "config text")
    (n_params,) = struct.unpack("<I", _read_exact(buf, 4))
    params = _read_arrays(buf, n_params)
    (has_opt,) = struct.unpack("<B", _read_exact(buf, 1))
    opt_step = None
    opt_arrays = None
    if has_opt:
        (opt_step,) = struct.unpack("<Q", _read_exact(buf, 8))
        (n_opt,) = struct.unpack("<I", _read_exact(buf, 4))
        opt_arrays = _read_arrays(buf, n_opt)
    if buf.tell() != end:
        raise CheckpointError(f"checkpoint payload ends at byte {buf.tell()}, expected {end}")
    return config_text, params, opt_step, opt_arrays
