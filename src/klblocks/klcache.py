"""Binary on-disk cache of Kazhdan-Lusztig polynomial tables.

One file holds the computed table for one or more Weyl group types.
Records are length-prefixed and sorted, so saving the same table twice
produces byte-identical files.  The records of a type are its stored
columns, each whole: one record per ``y <= w`` in the column of ``w``.

Both directions take one pass over the records and work on the table's
packed columns (see ``hecke``).  A table has far fewer distinct words
and polynomials than entries (F4: 1 152 words and 313 polynomials in
396 809 entries), so the saver encodes each element's word and each
distinct polynomial once, and the loader decodes each distinct type
string, word and coefficient block once, packing the block as it does;
an i64 coefficient is always one balanced digit at the table's width
of 64 bits.  The table's pool then keeps one ``LaurentPoly`` per
distinct polynomial.

Loading is all or nothing: every record of the requested type is decoded
and validated, and its columns checked whole, before any is stored, so a
file that fails leaves the caller's table as it was.  A file cut inside
a record, or a type string that is not UTF-8, is rejected with
``ValueError``.  So is a record of the requested type unless both words
are reduced, ``P_{w,w} = 1``, and for ``y != w`` all of
``l(y) < l(w)``, ``2 deg P <= l(w) - l(y) - 1`` and ``P_{y,w}(0) = 1``
hold; these checks run on every record, shared block or not.  So is a
repeated ``(y, w)`` record, and a column whose support is not exactly
the Bruhat interval ``[e, w]``: a record outside it would turn
``HeckeAlgebra.mu``'s refusal into an answer, and a missing one (a file
cut at a record boundary inside a column, say) would read as
``P_{y,w} = 0``.

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
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:
    from .hecke import HeckeAlgebra, KLTable
    from .weyl import WeylGroup

__all__ = ["save_kl_table", "load_kl_table", "cache_path"]

_MAGIC = b"KLT1"
_U16 = struct.Struct("<H")


def cache_path(directory: str, kind: str) -> str:
    return os.path.join(directory, f"{kind}.klt")


def save_kl_table(table: KLTable, path: str) -> int:
    """Write every entry of the table; returns the record count."""
    kind_bytes = table.kind.encode()
    head = bytes((len(kind_bytes),)) + kind_bytes
    elems = table.group.elements
    words = {}  # element index -> its length byte and letters
    blocks = {}  # packed polynomial -> its u16 count and i64s, dense from q^0
    blob = [_MAGIC]
    for w, column in sorted(table._packed.items()):
        wb = words[w] = bytes((elems[w].length, *elems[w].word))
        for y, n in sorted(column.items()):
            yb = words.get(y)
            if yb is None:
                yb = words[y] = bytes((elems[y].length, *elems[y].word))
            cb = blocks.get(n)
            if cb is None:
                p = table._pool[n]
                coeffs = [p.coefficient(e) for e in range(p.max_exp() + 1)] if p else []
                cb = blocks[n] = struct.pack(f"<H{len(coeffs)}q", len(coeffs), *coeffs)
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
    return ""


def _lower_intervals(group: WeylGroup, indices: Iterable[int]) -> dict[int, frozenset[int]]:
    """{x: the indices of [e, x]} over ``group.suffix_closure(indices)``.

    One walk up the tree of canonical words: with s the first letter of
    x's word and v = s x < x, the lifting property gives
    [e, x] = [e, v] | s [e, v] (V. Deodhar, Invent. Math. 39 (1977)).
    """
    left, elems = group.left, group.elements
    intervals = {0: frozenset((0,))}
    for x in group.suffix_closure(indices)[1:]:
        row = left[elems[x].word[0] - 1]
        below = intervals[row[x]]
        intervals[x] = below.union([row[y] for y in below])
    return intervals


def load_kl_table(path: str, hecke: HeckeAlgebra) -> int:
    """Store the columns of the algebra's type in its table.

    Records for other types in the same file are skipped.  Returns the
    number of records loaded; raises ``ValueError``, with nothing stored,
    if the file is malformed or any record or column fails validation.
    """
    from .hecke import _WIDTH

    with open(path, "rb") as handle:
        data = handle.read()
    if data[:4] != _MAGIC:
        raise ValueError(f"{path}: not a KL table cache")
    group = hecke.group
    kind = group.datum.kind
    kinds = {}  # type string bytes -> str
    words = {}  # letters -> element
    blocks = {}  # i64 coefficients -> (coeffs, degree, P_{y,w}(2^B))
    columns = {}  # the validated records, {w.index: {y.index: P_{y,w}(2^B)}}
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
            degree = max((e for e, c in enumerate(coeffs) if c), default=0)
            packed = sum(c << _WIDTH * e for e, c in enumerate(coeffs))
            decoded = blocks[block] = (coeffs, degree, packed)
        coeffs, degree, packed = decoded
        problem = _record_problem(y, w, len(yword), len(wword), coeffs, degree)
        if problem:
            raise ValueError(f"{path}: record y={tuple(yword)} w={tuple(wword)}: {problem}")
        if w is not column_of:
            column_of, column = w, columns.setdefault(w.index, {})
        if y.index in column:
            raise ValueError(f"{path}: record y={tuple(yword)} w={tuple(wword)}: repeated record")
        column[y.index] = packed
        count += 1
    intervals, elems = _lower_intervals(group, columns), group.elements
    for w, column in columns.items():
        support, interval = column.keys(), intervals[w]
        if support != interval:
            if support - interval:
                y = elems[min(support - interval)]
                raise ValueError(f"{path}: record y={y.word} w={elems[w].word}: "
                                 "y is not below w in Bruhat order")
            y = elems[min(interval - support)]
            raise ValueError(f"{path}: column w={elems[w].word}: no record for y={y.word}, "
                             "which is below w in Bruhat order")
    hecke.kl_table._store_packed(columns)
    return count
