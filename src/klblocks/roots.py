"""Finite crystallographic root systems of types A-G.

Conventions, fixed once for the whole package:

* cartan[i][j] = <alpha_j, alpha_i^vee>, so diagonal entries are 2 and
  the j-th column is the simple root alpha_{j+1} written in
  fundamental-weight coordinates.
* Weights are integer tuples in fundamental-weight coordinates, so
  <lambda, alpha_i^vee> is just lambda[i].
* Positive roots are stored in simple-root coordinates together with
  their coroots in simple-coroot coordinates.
* In types B and C the last simple root is the short one in B.

Simple-root indices are 1-based everywhere in the public interface.
"""

from __future__ import annotations

from typing import Sequence

__all__ = [
    "UnknownTypeError",
    "RootDatum",
    "cartan_matrix",
    "build_root_system",
]

IntMatrix = tuple[tuple[int, ...], ...]
Weight = tuple[int, ...]


class UnknownTypeError(ValueError):
    """Raised for a malformed or unsupported type string."""


_EXPECTED_COUNTS = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "E": lambda n: {6: 36, 7: 63, 8: 120}[n],
    "F": lambda n: 24,
    "G": lambda n: 6,
}

_RANK_RANGE = {
    "A": range(1, 9),
    "B": range(2, 9),
    "C": range(2, 9),
    "D": range(3, 9),
    "E": range(6, 9),
    "F": range(4, 5),
    "G": range(2, 3),
}


def parse_kind(kind: str) -> tuple[str, int]:
    s = kind.strip().upper()
    if len(s) < 2 or s[0] not in _RANK_RANGE or not s[1:].isdigit():
        raise UnknownTypeError(f"not a type string: {kind!r}")
    family, n = s[0], int(s[1:])
    if n not in _RANK_RANGE[family]:
        raise UnknownTypeError(f"rank {n} out of range for type {family}")
    return family, n


def _bonds(family: str, n: int) -> dict[tuple[int, int], int]:
    """Off-diagonal Cartan entries {(i, j): cartan[i][j]} with 0-based i, j."""
    single = {}

    def link(i: int, j: int, a_ij: int = -1, a_ji: int = -1) -> None:
        single[(i, j)] = a_ij
        single[(j, i)] = a_ji

    if family in "ABC":
        for i in range(n - 1):
            link(i, i + 1)
        if family == "B" and n >= 2:
            link(n - 2, n - 1, -1, -2)
        if family == "C" and n >= 2:
            link(n - 2, n - 1, -2, -1)
    elif family == "D":
        for i in range(n - 2):
            link(i, i + 1)
        link(n - 3, n - 1)
    elif family == "E":
        chain = [0, 2, 3, 4, 5, 6, 7][: n - 1]
        for a, b in zip(chain, chain[1:]):
            link(a, b)
        link(1, 3)
    elif family == "F":
        link(0, 1)
        link(1, 2, -1, -2)
        link(2, 3)
    elif family == "G":
        link(0, 1, -3, -1)
    return single


def cartan_matrix(kind: str) -> IntMatrix:
    """Cartan matrix of the given type, rows indexed by coroots."""
    family, n = parse_kind(kind)
    bonds = _bonds(family, n)
    return tuple(
        tuple(2 if i == j else bonds.get((i, j), 0) for j in range(n))
        for i in range(n)
    )


class RootDatum:
    """A root system with its positive roots and coroots."""

    def __init__(self, kind: str, cartan: IntMatrix,
                 pos_roots: tuple[tuple[int, ...], ...],
                 pos_coroots: tuple[tuple[int, ...], ...]):
        self.kind = kind
        self.cartan = cartan
        self.rank = len(cartan)
        self.pos_roots = pos_roots
        self.pos_coroots = pos_coroots
        self.pos_roots_omega = tuple(self.root_to_omega(r) for r in pos_roots)

    @property
    def num_positive_roots(self) -> int:
        return len(self.pos_roots)

    def root_to_omega(self, coords: Sequence[int]) -> tuple[int, ...]:
        """Rewrite simple-root coordinates in fundamental-weight ones."""
        return tuple(
            sum(self.cartan[k][j] * c for j, c in enumerate(coords))
            for k in range(self.rank)
        )

    def simple_root_index(self, i: int) -> int:
        """Index of alpha_i (1-based i) in the positive-root list."""
        coords = tuple(1 if j == i - 1 else 0 for j in range(self.rank))
        return self.pos_roots.index(coords)

    def root_support(self, root_index: int) -> frozenset[int]:
        """1-based simple indices appearing in the root's expansion."""
        return frozenset(
            j + 1 for j, c in enumerate(self.pos_roots[root_index]) if c
        )

    def parabolic_root_indices(self, subset: frozenset[int]) -> tuple[int, ...]:
        """Positive roots supported on the given 1-based simple subset."""
        return tuple(
            t for t in range(len(self.pos_roots))
            if self.root_support(t) <= subset
        )

    def __repr__(self) -> str:
        return f"RootDatum({self.kind})"


def build_root_system(kind: str) -> RootDatum:
    """Construct the positive roots of a type by reflection closure."""
    family, n = parse_kind(kind)
    kind = f"{family}{n}"
    cartan = cartan_matrix(kind)
    seen: dict[tuple[int, ...], tuple[int, ...]] = {}
    frontier = []
    for i in range(n):
        e = tuple(1 if j == i else 0 for j in range(n))
        seen[e] = e
        frontier.append((e, e))
    while frontier:
        root, coroot = frontier.pop()
        for i in range(n):
            new_root = list(root)
            new_root[i] -= sum(cartan[i][j] * c for j, c in enumerate(root))
            new_coroot = list(coroot)
            new_coroot[i] -= sum(cartan[j][i] * d for j, d in enumerate(coroot))
            r, c = tuple(new_root), tuple(new_coroot)
            if all(x >= 0 for x in r) and r not in seen:
                seen[r] = c
                frontier.append((r, c))
    order = sorted(seen, key=lambda r: (sum(r), r))
    expected = _EXPECTED_COUNTS[family](n)
    if len(order) != expected:
        raise AssertionError(
            f"{kind}: built {len(order)} positive roots, expected {expected}"
        )
    return RootDatum(
        kind,
        cartan,
        tuple(order),
        tuple(seen[r] for r in order),
    )
