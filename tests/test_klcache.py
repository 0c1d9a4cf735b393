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
    for (y, w), poly in table.entries.items():
        got = target.kl_table.get(target.group.word_elem(y.word),
                                  target.group.word_elem(w.word))
        assert got == poly
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
    (None, "truncated"),
], ids=["non-reduced-word", "diagonal-not-one", "length-not-below", "degree-too-high",
        "truncated-tail"])
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
