import hashlib
import os
import re
import struct
from pathlib import Path

import pytest

from klblocks import (
    HeckeAlgebra,
    cache_path,
    load_kl_table,
    save_kl_table,
    weyl_group,
)
from klblocks.checks import bruhat_closure_leq
from klblocks.klcache import _lower_intervals


def full_table(hecke):
    hecke.kl_basis_elements()
    return hecke.kl_table


def test_cache_path(tmp_path):
    p = Path(cache_path(tmp_path, "A2"))
    assert p.parent == tmp_path
    assert p.name == "A2.klt"


def test_roundtrip(tmp_path, a2):
    fresh = HeckeAlgebra(a2)
    table = full_table(fresh)
    path = cache_path(tmp_path, "A2")
    written = save_kl_table(table, path)
    assert written == len(table)

    target = HeckeAlgebra(weyl_group("A2"))
    merged = load_kl_table(path, target)
    assert merged == written
    loaded = {w.word: dict(column) for w, column in target.kl_table.columns()}
    for w, column in table.columns():
        assert loaded.pop(w.word) == {
            target.group.word_elem(y.word): poly for y, poly in column.items()}
    assert loaded == {}
    w0 = target.group.w0
    assert target.kl_table.column_complete(w0)


def test_loaded_cache_skips_recomputation(tmp_path, a2):
    fresh = HeckeAlgebra(a2)
    path = cache_path(tmp_path, "A2")
    save_kl_table(full_table(fresh), path)

    target = HeckeAlgebra(weyl_group("A2"))
    load_kl_table(path, target)
    w0 = target.group.w0
    assert target.kl_element(w0) == fresh.kl_element(w0)


def test_kind_filtering(tmp_path):
    a1 = HeckeAlgebra(weyl_group("A1"))
    full_table(a1)
    path = cache_path(tmp_path, "mixed")
    save_kl_table(a1.kl_table, path)

    b2 = HeckeAlgebra(weyl_group("B2"))
    assert load_kl_table(path, b2) == 0

    other = HeckeAlgebra(weyl_group("A1"))
    assert load_kl_table(path, other) == 3


def test_table_of_a_lowercase_type_loads_into_the_canonical_one(tmp_path):
    lower = HeckeAlgebra(weyl_group("a2"))
    path = cache_path(tmp_path, "a2")
    assert save_kl_table(full_table(lower), path) == 19
    assert load_kl_table(path, HeckeAlgebra(weyl_group("A2"))) == 19


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.klt"
    path.write_bytes(b"XXXX" + b"\x00" * 16)
    a1 = HeckeAlgebra(weyl_group("A1"))
    with pytest.raises(ValueError):
        load_kl_table(path, a1)


def test_truncated_file(tmp_path, a2):
    fresh = HeckeAlgebra(a2)
    path = Path(cache_path(tmp_path, "A2"))
    save_kl_table(full_table(fresh), path)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) - 3])
    target = HeckeAlgebra(weyl_group("A2"))
    with pytest.raises(ValueError):
        load_kl_table(path, target)


def _record(yword, wword, coeffs, kind="A2"):
    """One record in the file layout, built independently of the saver."""
    def word(letters):
        return struct.pack(f"<B{len(letters)}B", len(letters), *letters)

    return (struct.pack("<B", len(kind)) + kind.encode() + word(yword) + word(wword)
            + struct.pack(f"<H{len(coeffs)}q", len(coeffs), *coeffs))


@pytest.mark.parametrize("tail, problem", [
    (_record((1, 1), (1, 2), (1,)), "not reduced"),
    (_record((1, 2), (1, 2), (1, 1)), "P_{w,w} is not 1"),
    (_record((1, 2), (2, 1), (1,)), "l(y) >= l(w)"),
    (_record((1,), (1, 2), (1, 1)), "degree"),
    (_record((1,), (1, 2), (2,)), "constant term of P_{y,w} is not 1"),
    (None, "truncated"),
], ids=["non-reduced-word", "diagonal-not-one", "length-not-below", "degree-too-high",
        "constant-term-not-one", "truncated-tail"])
def test_bad_file_merges_nothing(tmp_path, a2, tail, problem):
    # every bad part follows a full set of valid records, none of which may
    # reach the table
    path = Path(cache_path(tmp_path, "A2"))
    save_kl_table(full_table(HeckeAlgebra(a2)), path)
    data = path.read_bytes()
    path.write_bytes(data[:-3] if tail is None else data + tail)
    target = HeckeAlgebra(weyl_group("A2"))
    with pytest.raises(ValueError, match=re.escape(problem)):
        load_kl_table(path, target)
    assert len(target.kl_table) == 0


def test_record_outside_bruhat_support_merges_nothing(tmp_path, a3):
    # P_{s3, s1s2} = 1 passes every length, degree and constant-term test,
    # but s3 is not below s1 s2; stored, it would make mu answer 1.
    path = tmp_path / "A3.klt"
    path.write_bytes(b"KLT1" + _record((3,), (1, 2), (1,), kind="A3"))
    target = HeckeAlgebra(a3)
    with pytest.raises(ValueError, match="not below w in Bruhat order"):
        load_kl_table(path, target)
    assert len(target.kl_table) == 0
    with pytest.raises(ValueError, match="strictly below"):
        target.mu(a3.simple(3), a3.word_elem((1, 2)))


def test_resave_is_byte_identical(tmp_path, a2):
    fresh = HeckeAlgebra(a2)
    table = full_table(fresh)
    path = Path(cache_path(tmp_path, "A2"))
    save_kl_table(table, path)
    first = path.read_bytes()

    target = HeckeAlgebra(weyl_group("A2"))
    load_kl_table(path, target)
    path2 = Path(cache_path(tmp_path, "again"))
    save_kl_table(target.kl_table, path2)
    assert path2.read_bytes() == first


# sha256 of the full B3 table file, recorded before the in-memory table
# was keyed by column: the file format must not drift with it.
B3_TABLE_SHA256 = "93c3427ada1d229f4ffba47c93a8e467589d2bbb039ae02e1c485cf48565709c"


def test_b3_cache_bytes_are_stable(tmp_path, b3):
    path = Path(cache_path(tmp_path, "B3"))
    assert save_kl_table(full_table(HeckeAlgebra(b3)), path) == 847
    assert hashlib.sha256(path.read_bytes()).hexdigest() == B3_TABLE_SHA256


# sha256 and record count of the full A4 and D4 table files: rank-4 types
# whose files hold more distinct words and coefficient blocks than B3's.
TABLE_SHA256 = {
    "A4": (3781, "982285489b882d374aeb0c6f2451a7ed1b634e0e7ce5ed3f768672f8aa48f6ae"),
    "D4": (9817, "09b8ce0f2336b8af308fa227c135a39629ef4d0eda61d6fb70b622a5d0ffb70e"),
}


@pytest.mark.parametrize("kind", sorted(TABLE_SHA256))
def test_rank4_cache_bytes_are_stable(tmp_path, kind):
    count, digest = TABLE_SHA256[kind]
    path = Path(cache_path(tmp_path, kind))
    assert save_kl_table(full_table(HeckeAlgebra(weyl_group(kind))), path) == count
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_interleaved_saves_do_not_collide(tmp_path, a2, monkeypatch):
    # A second save runs to completion while the first sits between its
    # write and its rename; with a shared temp name the first would then
    # rename a file that is gone, or one holding the other table.
    path = Path(cache_path(tmp_path, "A2"))
    full = full_table(HeckeAlgebra(a2))
    partial = HeckeAlgebra(weyl_group("A2"))
    partial.kl_element(a2.simple(1))
    real_replace = os.replace
    nested = []

    def replace(src, dst):
        if not nested:
            nested.append(src)
            assert save_kl_table(partial.kl_table, path) == len(partial.kl_table)
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    assert save_kl_table(full, path) == len(full)
    assert nested
    assert load_kl_table(path, HeckeAlgebra(weyl_group("A2"))) == len(full)
    assert list(tmp_path.iterdir()) == [path]


def test_failed_save_leaves_no_temp_file(tmp_path, a2, monkeypatch):
    def replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", replace)
    with pytest.raises(OSError):
        save_kl_table(full_table(HeckeAlgebra(a2)), cache_path(tmp_path, "A2"))
    assert list(tmp_path.iterdir()) == []


def _records(data):
    """(end offset, y word, w word) of each record, read off the layout
    independently of the loader."""
    records, pos = [], 4
    while pos < len(data):
        pos += 1 + data[pos]
        yword = tuple(data[pos + 1:pos + 1 + data[pos]])
        pos += 1 + data[pos]
        wword = tuple(data[pos + 1:pos + 1 + data[pos]])
        pos += 1 + data[pos]
        pos += 2 + 8 * struct.unpack_from("<H", data, pos)[0]
        records.append((pos, yword, wword))
    assert pos == len(data)
    return records


def test_every_cut_inside_a_record_merges_nothing(tmp_path, b2):
    # A cut at the end of a column is a shorter valid file.  Anywhere else
    # it leaves a partial record, or a column without all of its records;
    # either must fail with nothing merged.
    path = Path(cache_path(tmp_path, "B2"))
    save_kl_table(full_table(HeckeAlgebra(b2)), path)
    data = path.read_bytes()
    records = _records(data)
    ends = {end for end, _, _ in records}
    column_ends = {end: count for count, (end, _, w) in enumerate(records, 1)
                   if count == len(records) or records[count][2] != w}
    for cut in range(4, len(data)):
        path.write_bytes(data[:cut])
        target = HeckeAlgebra(weyl_group("B2"))
        if cut == 4 or cut in column_ends:
            count = column_ends.get(cut, 0)
            assert load_kl_table(path, target) == count == len(target.kl_table)
            continue
        with pytest.raises(ValueError, match="no record for" if cut in ends else "truncated"):
            load_kl_table(path, target)
        assert len(target.kl_table) == 0, cut


def test_column_missing_a_record_merges_nothing(tmp_path, a2):
    # Without its (e, w0) record, the column of w0 would read P_{e,w0} = 0.
    path = Path(cache_path(tmp_path, "A2"))
    save_kl_table(full_table(HeckeAlgebra(a2)), path)
    data = path.read_bytes()
    kept, start = [data[:4]], 4
    for end, yword, wword in _records(data):
        if (yword, wword) != ((), a2.w0.word):
            kept.append(data[start:end])
        start = end
    assert len(kept) == 1 + 18
    path.write_bytes(b"".join(kept))
    target = HeckeAlgebra(weyl_group("A2"))
    with pytest.raises(ValueError, match=re.escape("no record for y=()")):
        load_kl_table(path, target)
    assert len(target.kl_table) == 0
    assert target.kl_polynomial(a2.identity, a2.w0).items() == ((0, 1),)


def test_repeated_record_merges_nothing(tmp_path, a3):
    # P_{2, 2.1.3.2} = 1 + q.  A second record with P = 1 passes every
    # per-record check; stored, it would make mu(2, 2.1.3.2) read 0.
    y, w = a3.simple(2), a3.word_elem((2, 1, 3, 2))
    path = Path(cache_path(tmp_path, "A3"))
    save_kl_table(full_table(HeckeAlgebra(a3)), path)
    path.write_bytes(path.read_bytes() + _record((2,), (2, 1, 3, 2), (1,), kind="A3"))
    target = HeckeAlgebra(weyl_group("A3"))
    with pytest.raises(ValueError, match="repeated record"):
        load_kl_table(path, target)
    assert len(target.kl_table) == 0
    assert target.mu(y, w) == 1


@pytest.mark.parametrize("kind", ["B3", "D4"])
def test_lower_intervals_match_the_bruhat_closure(kind):
    group = weyl_group(kind)
    below = {w.index: set() for w in group.elements}
    for x, y in bruhat_closure_leq(group):
        below[y].add(x)
    assert _lower_intervals(group, range(len(group.elements))) == below


@pytest.mark.parametrize("tail, problem", [
    (b"\x02A\xff" + _record((1,), (1,), (1,))[3:], "not UTF-8"),
    (_record((3,), (3,), (1,)), "out of range"),
], ids=["type-not-utf8", "letter-out-of-range"])
def test_bad_record_after_valid_ones_merges_nothing(tmp_path, a2, tail, problem):
    path = Path(cache_path(tmp_path, "A2"))
    save_kl_table(full_table(HeckeAlgebra(a2)), path)
    path.write_bytes(path.read_bytes() + tail)
    target = HeckeAlgebra(weyl_group("A2"))
    with pytest.raises(ValueError, match=problem):
        load_kl_table(path, target)
    assert len(target.kl_table) == 0


def test_bad_record_sharing_a_valid_block_merges_nothing(tmp_path, a3):
    # P_{s2, s2s1s3s2} = 1 + q, so the block (1, 1) is decoded before the
    # appended record reuses it for a pair whose degree bound is 0.
    hecke = HeckeAlgebra(a3)
    assert hecke.kl_polynomial(a3.simple(2), a3.word_elem((2, 1, 3, 2))).items() == ((0, 1), (1, 1))
    path = Path(cache_path(tmp_path, "A3"))
    save_kl_table(full_table(hecke), path)
    path.write_bytes(path.read_bytes() + _record((1,), (1, 2), (1, 1), kind="A3"))
    target = HeckeAlgebra(weyl_group("A3"))
    with pytest.raises(ValueError, match="degree"):
        load_kl_table(path, target)
    assert len(target.kl_table) == 0


def test_concatenated_types_each_load_their_own_records(tmp_path):
    tables = {kind: full_table(HeckeAlgebra(weyl_group(kind))) for kind in ("A1", "A2")}
    data = b"KLT1"
    for kind, table in tables.items():
        path = Path(cache_path(tmp_path, kind))
        save_kl_table(table, path)
        data += path.read_bytes()[4:]
    both = tmp_path / "both.klt"
    both.write_bytes(data)
    for kind, table in tables.items():
        target = HeckeAlgebra(weyl_group(kind))
        assert load_kl_table(both, target) == len(table) == len(target.kl_table)
        assert list(target.kl_table.columns()) == list(table.columns())
    assert load_kl_table(both, HeckeAlgebra(weyl_group("B2"))) == 0


def test_loaded_equal_polynomials_are_one_object(tmp_path, b3):
    path = Path(cache_path(tmp_path, "B3"))
    save_kl_table(full_table(HeckeAlgebra(b3)), path)
    target = HeckeAlgebra(weyl_group("B3"))
    load_kl_table(path, target)
    polys = [p for _, column in target.kl_table.columns() for p in column.values()]
    assert len({id(p) for p in polys}) == len(set(polys)) > 1
