import hashlib
import os
import re
import struct
from pathlib import Path

import pytest

from klblocks import (
    HeckeAlgebra,
    cache_path,
    klcache,
    load_kl_table,
    save_kl_table,
    weyl_group,
)
from klblocks.checks import bruhat_closure_leq


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


def _section(kind, pool, columns):
    """One section in the file layout, built independently of the saver.

    kind is the type string (bytes are written as they are), pool a list
    of coefficient tuples and columns a list of (word of w, pool ids).
    """
    kind = kind.encode() if isinstance(kind, str) else kind
    body = struct.pack("<H", len(pool))
    for coeffs in pool:
        body += struct.pack(f"<H{len(coeffs)}q", len(coeffs), *coeffs)
    body += struct.pack("<I", len(columns))
    for word, ids in columns:
        body += struct.pack(f"<B{len(word)}BI{len(ids)}H", len(word), *word, len(ids), *ids)
    return struct.pack("<B", len(kind)) + kind + struct.pack("<I", len(body)) + body


def _layout(table):
    """(pool, columns) of a table as ``_section`` takes them: columns in
    index order of w, one id per y in index order of y, and the pool in
    order of first use."""
    pool, columns = [], []
    for w, column in table.columns():
        ids = []
        for y in sorted(column, key=lambda y: y.index):
            p = column[y]
            coeffs = tuple(p.coefficient(e) for e in range(p.max_exp() + 1))
            if coeffs not in pool:
                pool.append(coeffs)
            ids.append(pool.index(coeffs))
        columns.append((w.word, ids))
    return pool, columns


@pytest.mark.parametrize("kind", ["A3", "B3"])
def test_saved_file_follows_the_layout(tmp_path, kind):
    table = full_table(HeckeAlgebra(weyl_group(kind)))
    path = Path(cache_path(tmp_path, kind))
    save_kl_table(table, path)
    assert path.read_bytes() == b"KLT2" + _section(kind, *_layout(table))


def _without_w0(a2):
    """The KL table of A2 with every column but that of w0."""
    partial = HeckeAlgebra(a2)
    partial.kl_basis_elements(a2.elements[:-1])
    return partial.kl_table


# [e, w0] of A2 is e, 1, 2, 1.2, 2.1, 1.2.1 in index order.
@pytest.mark.parametrize("tail, problem", [
    (_section("A2", [(1,)], [((1, 2, 1, 1, 1), [0] * 6)]), "not reduced"),
    (_section("A2", [(1,), (1, 1)], [((1, 2, 1), [0] * 5 + [1])]), "P_{w,w} is not 1"),
    (_section("A2", [(1,), (1, 1)], [((1, 2, 1), [0, 0, 0, 1, 0, 0])]),
     "y=(1, 2) w=(1, 2, 1): degree"),
    (_section("A2", [(1,), (2,)], [((1, 2, 1), [0, 1, 0, 0, 0, 0])]),
     "y=(1,) w=(1, 2, 1): constant term of P_{y,w} is not 1"),
    (None, "truncated"),
], ids=["non-reduced-word", "diagonal-not-one", "degree-too-high",
        "constant-term-not-one", "truncated-tail"])
def test_bad_file_merges_nothing(tmp_path, a2, tail, problem):
    # every bad column follows a section of valid ones, none of which may
    # reach the table
    path = Path(cache_path(tmp_path, "A2"))
    if tail is None:
        save_kl_table(full_table(HeckeAlgebra(a2)), path)
        path.write_bytes(path.read_bytes()[:-3])
    else:
        save_kl_table(_without_w0(a2), path)
        path.write_bytes(path.read_bytes() + tail)
    target = HeckeAlgebra(weyl_group("A2"))
    with pytest.raises(ValueError, match=re.escape(problem)):
        load_kl_table(path, target)
    assert len(target.kl_table) == 0


def test_record_outside_bruhat_support_merges_nothing(tmp_path, a3):
    # [e, s1 s2] has four elements.  A fifth id, of P = 1, passes every
    # degree and constant-term test, but it can only stand for a y not
    # below s1 s2 (s3, say); stored, it would make mu answer 1.
    path = tmp_path / "A3.klt"
    path.write_bytes(b"KLT2" + _section("A3", [(1,)], [((1, 2), [0] * 5)]))
    target = HeckeAlgebra(a3)
    with pytest.raises(ValueError, match=re.escape("5 entries, but [e, w] has 4 elements")):
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


# sha256 of the full B3 table file in the KLT2 layout: the file must
# not drift with the in-memory table.
B3_TABLE_SHA256 = "8666b7d87766d785fce116bc61719ea09d83c91e3757ea80d3e709e5bb8b7173"


def test_b3_cache_bytes_are_stable(tmp_path, b3):
    path = Path(cache_path(tmp_path, "B3"))
    assert save_kl_table(full_table(HeckeAlgebra(b3)), path) == 847
    assert hashlib.sha256(path.read_bytes()).hexdigest() == B3_TABLE_SHA256


# sha256 and record count of the full A4 and D4 table files in the KLT2
# layout: rank-4 types whose pools hold more polynomials than B3's.
TABLE_SHA256 = {
    "A4": (3781, "461531525f647d566ccee32fc23813ab457aed95d247e0a78f367eb8a1b7a4af"),
    "D4": (9817, "1a3233bd44557e7fc2907e48d738cc6a1af81eba343637237664063aa84b62ae"),
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


def test_every_cut_inside_a_record_merges_nothing(tmp_path, b2):
    # A cut anywhere past the magic leaves the section shorter than its
    # length says; with that length mended to the cut, the section's
    # contents end early.  Either must fail with nothing merged.
    path = Path(cache_path(tmp_path, "B2"))
    save_kl_table(full_table(HeckeAlgebra(b2)), path)
    data = path.read_bytes()
    body = 4 + 1 + len("B2") + 4  # magic, type string, section length
    for cut in range(4, len(data)):
        path.write_bytes(data[:cut])
        target = HeckeAlgebra(weyl_group("B2"))
        if cut == 4:
            assert load_kl_table(path, target) == 0 == len(target.kl_table)
            continue
        with pytest.raises(ValueError, match="truncated"):
            load_kl_table(path, target)
        if cut >= body:
            mended = data[:body - 4] + struct.pack("<I", cut - body) + data[body:cut]
            path.write_bytes(mended)
            with pytest.raises(ValueError, match="section length does not match"):
                load_kl_table(path, target)
        assert len(target.kl_table) == 0, cut


def test_column_missing_a_record_merges_nothing(tmp_path, a2):
    # A column one id short: without the id of (e, w0), the column of w0
    # would read P_{e,w0} = 0, and no id can be placed by its y.
    pool, columns = _layout(full_table(HeckeAlgebra(a2)))
    word, ids = columns[-1]
    assert word == a2.w0.word and len(ids) == 6
    columns[-1] = (word, ids[1:])
    path = Path(cache_path(tmp_path, "A2"))
    path.write_bytes(b"KLT2" + _section("A2", pool, columns))
    target = HeckeAlgebra(weyl_group("A2"))
    with pytest.raises(ValueError, match=re.escape("w=(1, 2, 1): 5 entries, but [e, w] has 6")):
        load_kl_table(path, target)
    assert len(target.kl_table) == 0
    assert target.kl_polynomial(a2.identity, a2.w0).items() == ((0, 1),)


def test_repeated_record_merges_nothing(tmp_path, a3):
    # P_{2, 2.1.3.2} = 1 + q.  A second column of 2.1.3.2 with every P = 1
    # passes every per-column check; stored, it would make mu(2, 2.1.3.2)
    # read 0.  It is refused within one section and across two.
    y, w = a3.simple(2), a3.word_elem((2, 1, 3, 2))
    table = full_table(HeckeAlgebra(a3))
    path = Path(cache_path(tmp_path, "A3"))
    save_kl_table(table, path)
    pool, columns = _layout(table)
    again = (w.word, [pool.index((1,))] * len(table.column(w)))
    for data in (b"KLT2" + _section("A3", pool, columns + [again]),
                 path.read_bytes() + _section("A3", pool, [again])):
        path.write_bytes(data)
        target = HeckeAlgebra(weyl_group("A3"))
        with pytest.raises(ValueError, match="repeated column"):
            load_kl_table(path, target)
        assert len(target.kl_table) == 0
        assert target.mu(y, w) == 1


@pytest.mark.parametrize("kind", ["B3", "D4"])
def test_lower_intervals_match_the_bruhat_closure(kind):
    group = weyl_group(kind)
    below = {w.index: set() for w in group.elements}
    for x, y in bruhat_closure_leq(group):
        below[y].add(x)
    assert group.lower_intervals(range(len(group.elements))) == below


@pytest.mark.parametrize("tail, problem", [
    (_section(b"A\xff", [(1,)], [((1,), [0, 0])]), "not UTF-8"),
    (_section("A2", [(1,)], [((3,), [0, 0])]), "simple index 3 out of range"),
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
    # P_{s2, s2s1s3s2} = 1 + q gives (1, 1) its pool id; the column of
    # s1 s2 reuses that id for y = s1, whose degree bound is 0.
    hecke = HeckeAlgebra(a3)
    assert hecke.kl_polynomial(a3.simple(2), a3.word_elem((2, 1, 3, 2))).items() == ((0, 1), (1, 1))
    pool, columns = _layout(full_table(hecke))
    at = [word for word, _ in columns].index((1, 2))
    ids = columns[at][1]
    ids[1] = pool.index((1, 1))  # [e, s1 s2] is e, s1, s2, s1 s2 in index order
    path = Path(cache_path(tmp_path, "A3"))
    path.write_bytes(b"KLT2" + _section("A3", pool, columns))
    target = HeckeAlgebra(weyl_group("A3"))
    with pytest.raises(ValueError, match=re.escape("y=(1,) w=(1, 2): degree")):
        load_kl_table(path, target)
    assert len(target.kl_table) == 0


def test_concatenated_types_each_load_their_own_records(tmp_path):
    tables = {kind: full_table(HeckeAlgebra(weyl_group(kind))) for kind in ("A1", "A2")}
    data = b"KLT2"
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


def test_klt1_file_is_refused(tmp_path):
    # P_{e,e} = 1 of A1 in the record-per-entry layout that KLT2 replaced
    path = tmp_path / "A1.klt"
    path.write_bytes(b"KLT1" + b"\x02A1" + b"\x00\x00" + struct.pack("<Hq", 1, 1))
    target = HeckeAlgebra(weyl_group("A1"))
    with pytest.raises(ValueError, match="not a KL table cache"):
        load_kl_table(path, target)
    assert len(target.kl_table) == 0


@pytest.mark.parametrize("ids", [[0, 0, 0, 0, 1, 0], [0] * 5 + [7]], ids=["entry", "diagonal"])
def test_pool_id_out_of_range_merges_nothing(tmp_path, a2, ids):
    path = Path(cache_path(tmp_path, "A2"))
    save_kl_table(_without_w0(a2), path)
    path.write_bytes(path.read_bytes() + _section("A2", [(1,)], [((1, 2, 1), ids)]))
    target = HeckeAlgebra(weyl_group("A2"))
    with pytest.raises(ValueError, match=f"pool id {max(ids)} out of range"):
        load_kl_table(path, target)
    assert len(target.kl_table) == 0


@pytest.mark.parametrize("delta", [1, -1])
def test_section_length_that_does_not_match_merges_nothing(tmp_path, delta):
    # An A2 section followed by an A1 one: one byte more takes in the first
    # byte of the A1 section, one byte less leaves the last id out.
    data = b"KLT2"
    for kind in ("A2", "A1"):
        path = Path(cache_path(tmp_path, kind))
        save_kl_table(full_table(HeckeAlgebra(weyl_group(kind))), path)
        data += path.read_bytes()[4:]
    (size,) = struct.unpack_from("<I", data, 7)
    path.write_bytes(data[:7] + struct.pack("<I", size + delta) + data[11:])
    target = HeckeAlgebra(weyl_group("A2"))
    with pytest.raises(ValueError, match="section length does not match"):
        load_kl_table(path, target)
    assert len(target.kl_table) == 0


def test_save_beyond_the_pool_limit_writes_nothing(tmp_path, a3, monkeypatch):
    # A3's table has two distinct polynomials, 1 and 1 + q.
    monkeypatch.setattr(klcache, "_POOL_MAX", 1)
    with pytest.raises(ValueError, match="2 distinct KL polynomials; a cache file holds 1"):
        save_kl_table(full_table(HeckeAlgebra(a3)), cache_path(tmp_path, "A3"))
    assert list(tmp_path.iterdir()) == []
