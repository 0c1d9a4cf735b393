"""Binary on-disk cache of Kazhdan-Lusztig polynomial tables.

One file holds the computed table for one or more Weyl group types.
Records are length-prefixed and sorted, so saving the same table twice
produces byte-identical files.  A record for the pair ``(w, w)`` marks
the column of ``w`` as fully computed, which lets a reloaded table be
used without re-running the recursion for that column.

Both directions take one pass over the records.  A table has far fewer
distinct words and polynomials than entries (F4: 1 152 words and 313
polynomials in 396 809 entries), so the saver packs each element's word
and each distinct coefficient block once, and the loader decodes each
distinct type string, word and coefficient block once.  Every record
with the same coefficient block stores the same ``LaurentPoly`` object,
which is immutable, so a loaded table keeps one object per distinct
polynomial.

Loading is all or nothing: every record of the requested type is decoded
and validated before any is stored, so a file that fails leaves the
caller's table as it was.  A file cut inside a record, or a type string
that is not UTF-8, is rejected with ``ValueError``.  So is a record of
the requested type unless both words are reduced, ``P_{w,w} = 1``, and
for ``y != w`` all of ``l(y) < l(w)``, ``2 deg P <= l(w) - l(y) - 1``,
``P_{y,w}(0) = 1`` and ``y <= w`` in Bruhat order hold; these checks
run on every record, shared block or not.  A column holds exactly the
``y <= w``, so a record outside that support would turn
``HeckeAlgebra.mu``'s refusal into an answer.

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
_U16 = struct.Struct("<H")


def cache_path(directory: str, kind: str) -> str:
    return os.path.join(directory, f"{kind}.klt")


def _dense_coeffs(pairs: tuple[tuple[int, int], ...]) -> list[int]:
    """The coefficients of q^0 .. q^deg from sorted (exponent, coefficient) pairs."""
    if not pairs:
        return []
    if pairs[0][0] < 0:
        raise ValueError("negative exponent in stored polynomial")
    out = [0] * (pairs[-1][0] + 1)
    for exp, coeff in pairs:
        out[exp] = coeff
    return out


def save_kl_table(table: KLTable, path: str) -> int:
    """Write every entry of the table; returns the record count."""
    kind_bytes = table.kind.encode()
    head = bytes((len(kind_bytes),)) + kind_bytes
    words = {}  # element index -> its length byte and letters
    blocks = {}  # polynomial's (exponent, coefficient) pairs -> its u16 count and i64s
    blob = [_MAGIC]
    for w, column in table.columns():
        wb = words[w.index] = bytes((w.length, *w.word))
        for y, poly in sorted(column.items(), key=lambda item: item[0].index):
            yb = words.get(y.index)
            if yb is None:
                yb = words[y.index] = bytes((y.length, *y.word))
            pairs = poly.items()
            cb = blocks.get(pairs)
            if cb is None:
                coeffs = _dense_coeffs(pairs)
                cb = blocks[pairs] = struct.pack(f"<H{len(coeffs)}q", len(coeffs), *coeffs)
            blob += (head, yb, wb, cb)
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
    return len(blob) // 4


def _record_problem(y, w, ylen: int, wlen: int, coeffs, degree: int) -> str:
    """Why a decoded record cannot be an entry P_{y,w}; empty if it can."""
    if y.length != ylen or w.length != wlen:
        return "word is not reduced"
    if y is w:
        return "" if coeffs == (1,) else "P_{w,w} is not 1"
    if y.length >= w.length:
        return "l(y) >= l(w)"
    if 2 * degree > w.length - y.length - 1:
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
    group = hecke.group
    kind = group.datum.kind
    kinds = {}  # type string bytes -> str
    words = {}  # letters -> element
    blocks = {}  # i64 coefficients -> (coeffs, degree, poly)
    columns = {}  # the validated records, {w: {y: P_{y,w}}}
    column_of = column = None
    count = 0
    end, pos = len(data), 4
    while pos < end:
        # Offsets of the y length byte, the w length byte and the coefficient
        # count: a read past the end raises, as does a record ending past it.
        try:
            at_y = pos + 1 + data[pos]
            at_w = at_y + 1 + data[at_y]
            at_n = at_w + 1 + data[at_w]
            (ncoeff,) = _U16.unpack_from(data, at_n)
        except (IndexError, struct.error):
            raise ValueError(f"{path}: truncated cache file") from None
        kind_bytes, pos = data[pos + 1:at_y], at_n + 2 + 8 * ncoeff
        if pos > end:
            raise ValueError(f"{path}: truncated cache file")
        record_kind = kinds.get(kind_bytes)
        if record_kind is None:
            try:
                record_kind = kinds[kind_bytes] = kind_bytes.decode()
            except UnicodeDecodeError:
                raise ValueError(f"{path}: type string {kind_bytes!r} is not UTF-8") from None
        if record_kind != kind:
            continue
        yword, wword = data[at_y + 1:at_w], data[at_w + 1:at_n]  # iterate as letters
        y = words.get(yword)
        if y is None:
            y = words[yword] = group.word_elem(yword)
        w = words.get(wword)
        if w is None:
            w = words[wword] = group.word_elem(wword)
        block = data[at_n + 2:pos]
        decoded = blocks.get(block)
        if decoded is None:
            coeffs = struct.unpack(f"<{len(block) // 8}q", block)
            terms = {e: c for e, c in enumerate(coeffs) if c}
            poly = LaurentPoly._normalized(terms)
            decoded = blocks[block] = (coeffs, max(terms, default=0), poly)
        coeffs, degree, poly = decoded
        problem = _record_problem(y, w, len(yword), len(wword), coeffs, degree)
        if problem:
            raise ValueError(f"{path}: record y={tuple(yword)} w={tuple(wword)}: {problem}")
        if w is not column_of:
            column_of, column = w, columns.setdefault(w, {})
        column[y] = poly
        count += 1
    hecke.kl_table.merge(columns)
    return count
