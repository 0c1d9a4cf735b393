"""Binary on-disk cache of Kazhdan-Lusztig polynomial tables.

One file holds the computed table for one or more Weyl group types.
Records are length-prefixed and sorted, so saving the same table twice
produces byte-identical files.  A record for the pair ``(w, w)`` marks
the column of ``w`` as fully computed, which lets a reloaded table be
used without re-running the recursion for that column.

Loading is all or nothing: every record of the requested type is decoded
and validated before any is stored, so a file that fails leaves the
caller's table as it was.  A record is rejected with ``ValueError`` unless
both words are reduced, ``P_{w,w} = 1``, and for ``y != w`` all of
``l(y) < l(w)``, ``2 deg P <= l(w) - l(y) - 1``, ``P_{y,w}(0) = 1`` and
``y <= w`` in Bruhat order hold.  A column holds exactly the ``y <= w``,
so a record outside that support would turn ``HeckeAlgebra.mu``'s
refusal into an answer.

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
from typing import TYPE_CHECKING

from .laurent import LaurentPoly

if TYPE_CHECKING:
    from .hecke import HeckeAlgebra, KLTable

__all__ = ["save_kl_table", "load_kl_table", "cache_path"]

_MAGIC = b"KLT1"
_U8 = struct.Struct("<B")
_U16 = struct.Struct("<H")


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

    def take(self, layout: struct.Struct):
        if self.pos + layout.size > len(self.data):
            raise ValueError("truncated cache file")
        values = layout.unpack_from(self.data, self.pos)
        self.pos += layout.size
        return values

    def take_bytes(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise ValueError("truncated cache file")
        chunk = self.data[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def done(self) -> bool:
        return self.pos >= len(self.data)


def _record_problem(y, w, ylen: int, wlen: int, coeffs, terms) -> str:
    """Why a decoded record cannot be an entry P_{y,w}; empty if it can."""
    if y.length != ylen or w.length != wlen:
        return "word is not reduced"
    if y is w:
        return "" if coeffs == (1,) else "P_{w,w} is not 1"
    if y.length >= w.length:
        return "l(y) >= l(w)"
    if 2 * max(terms, default=0) > w.length - y.length - 1:
        return "degree of P_{y,w} too high"
    if coeffs[:1] != (1,):
        return "constant term of P_{y,w} is not 1"
    if not w.group.bruhat_leq(y, w):
        return "y is not below w in Bruhat order"
    return ""


def load_kl_table(path: str, hecke: HeckeAlgebra) -> int:
    """Merge records for the algebra's type into its table.

    Records for other types in the same file are skipped.  Returns the
    number of records loaded; raises ``ValueError``, with nothing merged,
    if the file is malformed or any record fails validation.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    if data[:4] != _MAGIC:
        raise ValueError(f"{path}: not a KL table cache")
    reader = _Reader(data)
    reader.take_bytes(4)
    group = hecke.group
    kind = group.datum.kind
    records = []
    while not reader.done():
        (klen,) = reader.take(_U8)
        record_kind = reader.take_bytes(klen).decode()
        (ylen,) = reader.take(_U8)
        yword = reader.take_bytes(ylen)  # iterates as the letters
        (wlen,) = reader.take(_U8)
        wword = reader.take_bytes(wlen)
        (ncoeff,) = reader.take(_U16)
        coeffs = struct.unpack(f"<{ncoeff}q", reader.take_bytes(8 * ncoeff))
        if record_kind != kind:
            continue
        y, w = group.word_elem(yword), group.word_elem(wword)
        terms = {e: c for e, c in enumerate(coeffs) if c}
        problem = _record_problem(y, w, ylen, wlen, coeffs, terms)
        if problem:
            raise ValueError(f"{path}: record y={tuple(yword)} w={tuple(wword)}: {problem}")
        records.append((y, w, LaurentPoly._normalized(terms)))
    for y, w, poly in records:
        hecke.kl_table.put(y, w, poly)
    return len(records)
