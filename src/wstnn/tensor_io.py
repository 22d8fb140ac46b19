"""Binary tensor file format.

File layout (all integers unsigned 64-bit little-endian):

    magic   6 bytes  "NTUB1\\0"
    order   u64      number of modes N (>= 1)
    extents u64 * N  positive extents n_1 ... n_N
    payload f64 * prod(n_k)  IEEE-754 binary64 LE, column-major

The payload order matches the package's column-major vectorization, so
round trips are bit-exact. A file whose payload is shorter or longer than
its extents say is a ``TensorFormatError``.
"""

from __future__ import annotations

import math
import os
import struct
from pathlib import Path

import numpy as np

from .tensor_ops import _real_tensor

__all__ = ["MAGIC", "TensorFormatError", "read_tensor", "write_tensor"]

MAGIC = b"NTUB1\x00"

# refuse extents whose element count cannot fit in memory-sane bounds
_MAX_ELEMENTS = 1 << 40


class TensorFormatError(ValueError):
    """Malformed or truncated tensor file."""


def write_tensor(path: str | Path, x: np.ndarray) -> None:
    x = np.asarray(_real_tensor(x), dtype="<f8")
    if x.ndim < 1 or 0 in x.shape:
        raise ValueError("tensor must have at least one mode and no zero extents")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<Q", x.ndim))
        fh.write(struct.pack(f"<{x.ndim}Q", *x.shape))
        # one copy of a native float64 payload, none of a column-major one:
        # the file takes the ravel's buffer as it is
        fh.write(x.ravel(order="F"))


def read_tensor(path: str | Path) -> np.ndarray:
    with open(path, "rb") as fh:
        if fh.read(len(MAGIC)) != MAGIC:
            raise TensorFormatError(f"{path}: bad magic bytes")
        head = fh.read(8)
        if len(head) != 8:
            raise TensorFormatError(f"{path}: truncated header")
        (order,) = struct.unpack("<Q", head)
        if order < 1 or order > 64:
            raise TensorFormatError(f"{path}: implausible tensor order {order}")
        raw = fh.read(8 * order)
        if len(raw) != 8 * order:
            raise TensorFormatError(f"{path}: truncated extents")
        shape = struct.unpack(f"<{order}Q", raw)
        if any(n == 0 for n in shape):
            raise TensorFormatError(f"{path}: zero extent in {shape}")
        numel = math.prod(shape)
        if numel > _MAX_ELEMENTS:
            raise TensorFormatError(f"{path}: extent product overflow ({numel})")
        # compare with the file size before reading: a forged element
        # count must not make the read allocate more than the file holds,
        # and extents edited down must not read a prefix of the payload
        remaining = os.fstat(fh.fileno()).st_size - fh.tell()
        if 8 * numel > remaining:
            raise TensorFormatError(f"{path}: truncated payload")
        if 8 * numel < remaining:
            raise TensorFormatError(f"{path}: {remaining - 8 * numel} bytes after the payload")
        payload = fh.read(8 * numel)
        if len(payload) != 8 * numel:
            raise TensorFormatError(f"{path}: truncated payload")
    data = np.frombuffer(payload, dtype="<f8")
    return data.reshape(shape, order="F").copy()

