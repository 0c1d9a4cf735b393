"""Binary on-disk cache of Kazhdan-Lusztig polynomial tables.

One file holds the computed table for one or more Weyl group types.
Records are length-prefixed and sorted, so saving the same table twice
produces byte-identical files.  A record for the pair ``(w, w)`` marks
the column of ``w`` as fully computed, which lets a reloaded table be
used without re-running the recursion for that column.

Record layout (little-endian), after the 4-byte magic ``KLT1``:

    u8   length of the type string, then that many UTF-8 bytes
    u8   length of the word of ``y``, then one byte per letter
    u8   length of the word of ``w``, then one byte per letter
    u16  number of coefficients, then that many i64 values
         (dense in the exponent of ``q``, starting at ``q^0``)
"""

from __future__ import annotations

import contextlib
import os
import struct
import tempfile

from .hecke import HeckeAlgebra, KLTable
from .laurent import LaurentPoly

__all__ = ["save_kl_table", "load_kl_table", "cache_path"]

_MAGIC = b"KLT1"


def cache_path(directory: str, kind: str) -> str:
    return os.path.join(directory, f"{kind}.klt")


def _dense_coeffs(poly: LaurentPoly) -> list[int]:
    pairs = poly.items()
    if not pairs:
        return []
    if pairs[0][0] < 0:
        raise ValueError("negative exponent in stored polynomial")
    out = [0] * (pairs[-1][0] + 1)
    for exp, coeff in pairs:
        out[exp] = coeff
    return out


def _pack_word(word: tuple[int, ...]) -> bytes:
    return struct.pack(f"<B{len(word)}B", len(word), *word)


def save_kl_table(table: KLTable, path: str) -> int:
    """Write every entry of the table; returns the record count."""
    kind_bytes = table.kind.encode()
    records = sorted(
        table.entries.items(),
        key=lambda item: (item[0][1].index, item[0][0].index),
    )
    blob = [_MAGIC]
    for (y, w), poly in records:
        coeffs = _dense_coeffs(poly)
        blob.append(struct.pack("<B", len(kind_bytes)))
        blob.append(kind_bytes)
        blob.append(_pack_word(y.word))
        blob.append(_pack_word(w.word))
        blob.append(struct.pack(f"<H{len(coeffs)}q", len(coeffs), *coeffs))
    data = b"".join(blob)
    # A temp file of its own in the target directory: concurrent saves
    # never share it, and os.replace swaps the finished file in at once.
    path = os.fspath(path)
    fd, tmp = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".", suffix=".tmp",
        dir=os.path.dirname(path) or ".",
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
    return len(records)


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, fmt: str):
        size = struct.calcsize(fmt)
        if self.pos + size > len(self.data):
            raise ValueError("truncated cache file")
        values = struct.unpack_from(fmt, self.data, self.pos)
        self.pos += size
        return values

    def take_bytes(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise ValueError("truncated cache file")
        chunk = self.data[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def done(self) -> bool:
        return self.pos >= len(self.data)


def load_kl_table(path: str, hecke: HeckeAlgebra) -> int:
    """Merge records for the algebra's type into its table.

    Records for other types in the same file are skipped.  Returns the
    number of records loaded.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    if data[:4] != _MAGIC:
        raise ValueError(f"{path}: not a KL table cache")
    reader = _Reader(data)
    reader.take_bytes(4)
    group = hecke.group
    kind = group.datum.kind
    loaded = 0
    while not reader.done():
        (klen,) = reader.take("<B")
        record_kind = reader.take_bytes(klen).decode()
        (ylen,) = reader.take("<B")
        yword = reader.take(f"<{ylen}B") if ylen else ()
        (wlen,) = reader.take("<B")
        wword = reader.take(f"<{wlen}B") if wlen else ()
        (ncoeff,) = reader.take("<H")
        coeffs = reader.take(f"<{ncoeff}q") if ncoeff else ()
        if record_kind != kind:
            continue
        poly = LaurentPoly({e: c for e, c in enumerate(coeffs) if c})
        hecke.kl_table.put(group.word_elem(yword), group.word_elem(wword), poly)
        loaded += 1
    return loaded
