from fractions import Fraction

from klblocks.linalg import rank, rref, solve


def test_rref_pivots():
    m = [[Fraction(0), Fraction(2)], [Fraction(1), Fraction(1)]]
    reduced, pivots = rref(m)
    assert pivots == [0, 1]
    assert reduced == [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]


def test_rank():
    assert rank([[1, 2], [2, 4]]) == 1
    assert rank([[1, 0], [0, 1]]) == 2
    assert rank([[0, 0], [0, 0]]) == 0
    assert rank([]) == 0


def test_solve_unique():
    sol = solve([[2, 1], [1, 3]], [5, 10])
    assert sol == [Fraction(1), Fraction(3)]


def test_solve_underdetermined_is_deterministic():
    # free column fixed at zero
    sol = solve([[1, 1]], [3])
    assert sol == [Fraction(3), Fraction(0)]
    assert solve([[1, 1]], [3]) == sol


def test_solve_inconsistent():
    assert solve([[1, 1], [1, 1]], [1, 2]) is None

