"""Binary on-disk cache of Kazhdan-Lusztig polynomial tables.

One file holds the computed table of one or more Weyl group types, one
section per type, and each stored column whole.  The column of w holds
P_{y,w} for exactly the y in the Bruhat interval [e, w] (``KLTable``
keeps it so), so the file names only w: the loader walks [e, w] itself
(``WeylGroup.lower_intervals``) and reads one pool id per y, in index
order of y.  A table has far fewer distinct polynomials than entries
(F4: 313 in 396 809), so a section writes each once, in a pool numbered
in order of first use over (w, y) index order; saving the same table
twice gives byte-identical files.  A record is one entry P_{y,w}: both
functions return how many they wrote or loaded.

Layout (little-endian), after the 4-byte magic ``KLT2``, per section:

    u8   length of the type string, then that many UTF-8 bytes
    u32  byte length of the rest of the section, so that a section of
         another type is skipped unread
    u16  pool size, then per polynomial a u16 count and that many i64
         coefficients, dense in the exponent of q from q^0
    u32  column count, then per column the u8 length and the letters
         of the word of w, a u32 entry count and one u16 pool id per y

Loading is all or nothing: every section of the requested type is
decoded and every column checked before any is stored, so a file that
fails leaves the caller's table as it was.  ``ValueError`` is raised for
another magic (``KLT1`` included), a cut anywhere, a section length that
does not match its contents, a type string that is not UTF-8, a pool id
out of range and a column repeated, within a section or across two.  So
is a column unless the word of w is reduced, its entry count is the
size of [e, w], the last id (y = w) is the polynomial 1 and every other
entry has constant term 1 and 2 deg P_{y,w} <= l(w) - l(y) - 1.  A
missing entry would read as P_{y,w} = 0, and one outside [e, w] would
turn ``HeckeAlgebra.mu``'s refusal into an answer.
"""

from __future__ import annotations

import contextlib
import os
import struct
import tempfile
from operator import add
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .hecke import HeckeAlgebra, KLTable

__all__ = ["save_kl_table", "load_kl_table", "cache_path"]

_MAGIC = b"KLT2"
_POOL_MAX = 0xFFFF  # pool ids are u16
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")


def cache_path(directory: str, kind: str) -> str:
    return os.path.join(directory, f"{kind}.klt")


def save_kl_table(table: KLTable, path: str) -> int:
    """Write every entry of the table; returns the record count.

    Raises ``ValueError``, writing nothing, if the table holds more
    distinct polynomials than a u16 pool id can number.
    """
    elems, packed = table.group.elements, table._packed
    ids = {}  # packed polynomial -> pool id, in order of first use
    columns = [(w, [ids.setdefault(column[y], len(ids)) for y in sorted(column)])
               for w, column in sorted(packed.items())]
    if len(ids) > _POOL_MAX:
        raise ValueError(f"{len(ids)} distinct KL polynomials; a cache file holds {_POOL_MAX}")
    body = [_U16.pack(len(ids))]
    for n in ids:
        p = table._pool[n]
        coeffs = [p.coefficient(e) for e in range(p.max_exp() + 1)] if p else []
        body.append(struct.pack(f"<H{len(coeffs)}q", len(coeffs), *coeffs))
    body.append(_U32.pack(len(columns)))
    for w, col in columns:
        body += (bytes((elems[w].length, *elems[w].word)),
                 struct.pack(f"<I{len(col)}H", len(col), *col))
    kind = table.kind.encode()
    body = b"".join(body)
    data = b"".join((_MAGIC, bytes((len(kind),)), kind, _U32.pack(len(body)), body))
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
    return sum(len(col) for _, col in columns)


def _read_section(section: bytes) -> tuple[list[tuple[int, ...]], list[tuple[bytes, tuple]]]:
    """The pool (coefficient tuples) and the (word of w, pool ids) columns
    of one section; IndexError or struct.error if it is not one."""
    (size,), pos, pool = _U16.unpack_from(section), 2, []
    for _ in range(size):
        (count,) = _U16.unpack_from(section, pos)
        pool.append(struct.unpack_from(f"<{count}q", section, pos + 2))
        pos += 2 + 8 * count
    (size,), pos, columns = _U32.unpack_from(section, pos), pos + 4, []
    for _ in range(size):
        at = pos + 1 + section[pos]
        (count,) = _U32.unpack_from(section, at)
        columns.append((section[pos + 1:at], struct.unpack_from(f"<{count}H", section, at + 4)))
        pos = at + 4 + 2 * count
    if pos != len(section):
        raise IndexError
    return pool, columns


def load_kl_table(path: str, hecke: HeckeAlgebra) -> int:
    """Store the columns of the algebra's type in its table.

    Sections for other types in the same file are skipped.  Returns the
    number of records loaded; raises ``ValueError``, with nothing stored,
    if the file is malformed or any column fails validation.
    """
    from .hecke import _WIDTH

    with open(path, "rb") as handle:
        data = handle.read()
    if data[:4] != _MAGIC:
        raise ValueError(f"{path}: not a KL table cache")
    group = hecke.group
    found = {}  # w.index -> (word of w, pool ids, decoded pool)
    end, pos = len(data), 4
    while pos < end:
        try:
            at = pos + 5 + data[pos]
            (size,) = _U32.unpack_from(data, at - 4)
        except (IndexError, struct.error):
            raise ValueError(f"{path}: truncated cache file") from None
        kind_bytes, pos = data[pos + 1:at - 4], at + size
        if pos > end:
            raise ValueError(f"{path}: truncated cache file")
        try:
            if kind_bytes.decode() != group.datum.kind:
                continue
        except UnicodeDecodeError:
            raise ValueError(f"{path}: type string {kind_bytes!r} is not UTF-8") from None
        try:
            pool, columns = _read_section(data[at:pos])
        except (IndexError, struct.error):
            raise ValueError(f"{path}: section length does not match its contents") from None
        # Per pool id: its coefficients, its value at 2^B, and the least
        # l(w) - l(y) it may sit at: 2 deg + 1, or past any length (a word
        # has at most 255 letters) if its constant term is not 1.
        decoded = (pool, [sum(c << _WIDTH * e for e, c in enumerate(p)) for p in pool],
                   [2 * max((e for e, c in enumerate(p) if c), default=0) + 1
                    if p[:1] == (1,) else 256 for p in pool])
        for word, ids in columns:
            w = group.word_elem(word)  # iterates as letters
            if w.length != len(word):
                raise ValueError(f"{path}: column w={tuple(word)}: word is not reduced")
            if w.index in found:
                raise ValueError(f"{path}: column w={tuple(word)}: repeated column")
            found[w.index] = (tuple(word), ids, decoded)
    elems, intervals = group.elements, group.lower_intervals(found)
    lengths, columns = [x.length for x in elems], {}
    for w, (word, ids, (pool, packed, need)) in found.items():
        ys, length, head = sorted(intervals[w]), elems[w].length, ids[:-1]
        if len(ids) != len(ys):
            raise ValueError(f"{path}: column w={word}: {len(ids)} entries, "
                             f"but [e, w] has {len(ys)} elements")
        try:
            diagonal = pool[ids[-1]]  # y = w has the largest index in [e, w]
            high = max(map(add, map(need.__getitem__, head), map(lengths.__getitem__, ys)),
                       default=0)
        except IndexError:
            raise ValueError(f"{path}: column w={word}: pool id {max(ids)} out of range") from None
        if diagonal != (1,):
            raise ValueError(f"{path}: column w={word}: P_{{w,w}} is not 1")
        if high > length:
            y, i = next((y, i) for y, i in zip(ys, head) if need[i] + lengths[y] > length)
            problem = "degree of P_{y,w} too high" if pool[i][:1] == (1,) else \
                "constant term of P_{y,w} is not 1"
            raise ValueError(f"{path}: entry y={elems[y].word} w={word}: {problem}")
        columns[w] = dict(zip(ys, map(packed.__getitem__, ids)))
    hecke.kl_table._store_packed(columns)
    return sum(map(len, columns.values()))
