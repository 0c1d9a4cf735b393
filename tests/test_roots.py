import pytest

from klblocks import UnknownTypeError, build_root_system, cartan_matrix, weyl_group
from klblocks.roots import parse_kind


def test_parse_kind():
    assert parse_kind("A1") == ("A", 1)
    assert parse_kind("B3") == ("B", 3)
    assert parse_kind("E6") == ("E", 6)
    for bad in ("Z2", "A0", "A9", "B1", "D2", "E5", "F3", "G3", "", "3A"):
        with pytest.raises(UnknownTypeError):
            parse_kind(bad)


def test_root_system_kind_is_canonical():
    for raw in ("a2", " A2", "a2 "):
        assert build_root_system(raw).kind == "A2"
    assert weyl_group("g2 ").kind == "G2"


def test_cartan_matrices():
    assert cartan_matrix("A2") == ((2, -1), (-1, 2))
    assert cartan_matrix("G2") == ((2, -3), (-1, 2))
    assert cartan_matrix("F4") == (
        (2, -1, 0, 0),
        (-1, 2, -1, 0),
        (0, -2, 2, -1),
        (0, 0, -1, 2),
    )
    # B and C are transposes of one another
    b3 = cartan_matrix("B3")
    c3 = cartan_matrix("C3")
    assert c3 == tuple(zip(*b3))


def test_positive_root_counts():
    expected = {
        "A1": 1, "A2": 3, "A3": 6, "A4": 10,
        "B2": 4, "B3": 9, "C3": 9, "B4": 16,
        "D4": 12, "G2": 6, "F4": 24, "E6": 36,
    }
    for kind, count in expected.items():
        assert len(build_root_system(kind).pos_roots) == count, kind


def test_simple_roots_first():
    datum = build_root_system("B3")
    for i in range(1, 4):
        idx = datum.simple_root_index(i)
        root = datum.pos_roots[idx]
        assert sum(root) == 1 and root[i - 1] == 1


def test_g2_roots_frozen():
    datum = build_root_system("G2")
    assert [list(r) for r in datum.pos_roots] == [
        [0, 1], [1, 0], [1, 1], [2, 1], [3, 1], [3, 2]
    ]
    assert [list(r) for r in datum.pos_coroots] == [
        [0, 1], [1, 0], [1, 3], [2, 3], [1, 1], [1, 2]
    ]


@pytest.mark.parametrize("kind", ["B3", "G2", "D4"])
def test_root_reflections_are_odd_involutions_negating_their_root(kind):
    group = weyl_group(kind)
    for t, beta in enumerate(group.datum.pos_roots_omega):
        s = group.reflection(t)
        assert s * s is group.identity
        assert s.length % 2 == 1
        assert s.act(beta) == tuple(-c for c in beta)


def test_omega_coordinates_match_cartan_columns():
    datum = build_root_system("A3")
    cartan = datum.cartan
    for i in range(1, 4):
        idx = datum.simple_root_index(i)
        omega = datum.pos_roots_omega[idx]
        assert tuple(omega) == tuple(row[i - 1] for row in cartan)


def test_root_support():
    datum = build_root_system("A3")
    highest = max(range(len(datum.pos_roots)), key=lambda t: sum(datum.pos_roots[t]))
    assert datum.root_support(highest) == frozenset({1, 2, 3})


def test_parabolic_root_indices():
    datum = build_root_system("A3")
    inside = datum.parabolic_root_indices(frozenset({1, 2}))
    assert len(inside) == 3  # positive roots of the A2 subsystem
    for t in inside:
        assert datum.root_support(t) <= frozenset({1, 2})
