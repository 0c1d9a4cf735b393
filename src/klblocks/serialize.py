"""Rendering and parsing of graded matrices.

Three formats: an aligned text table for terminals, JSON with explicit
(exponent, coefficient) pairs, and CSV with caret-notation entries like
``1+v^2``.  Row and column labels are reduced words; ``e`` stands for
the identity and longer words are dot-separated (``1.2.1``).  JSON and
CSV both round-trip through the parsers here.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    from .blocks import GradedMatrix
    from .laurent import LaurentPoly
    from .weyl import WeylElem, WeylGroup

__all__ = [
    "laurent_json",
    "word_label",
    "parse_word_label",
    "matrix_to_table",
    "matrix_payload",
    "matrix_to_json",
    "matrix_from_json",
    "matrix_to_csv",
    "matrix_from_csv",
    "plain_table",
]


def laurent_json(p: LaurentPoly) -> list[dict[str, int]]:
    """A Laurent polynomial as JSON-ready {"exp", "coef"} terms, ascending."""
    return [{"exp": e, "coef": c} for e, c in p.items()]


def word_label(w: WeylElem) -> str:
    return ".".join(map(str, w.word)) if w.length else "e"


def parse_word_label(label: str) -> tuple[int, ...]:
    label = label.strip()
    if label in ("e", ""):
        return ()
    return tuple(int(part) for part in label.split("."))


def _label_elem(group: WeylGroup, label: str) -> WeylElem:
    return group.word_elem(parse_word_label(label))


def plain_table(row_labels: Sequence[str], col_labels: Sequence[str],
                cells: Sequence[Sequence[str]], corner: str = "") -> str:
    """Align a grid of strings with row and column headers."""
    header = [corner, *col_labels]
    grid = [header] + [
        [r, *row] for r, row in zip(row_labels, cells)
    ]
    widths = [max(len(line[c]) for line in grid) for c in range(len(header))]
    lines = [
        "  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip()
        for line in grid
    ]
    return "\n".join(lines)


def matrix_to_table(m: GradedMatrix) -> str:
    return plain_table(
        [word_label(w) for w in m.rows],
        [word_label(w) for w in m.cols],
        [[e.render() for e in row] for row in m.entries],
        corner="w",
    )


def matrix_payload(m: GradedMatrix) -> dict:
    """The JSON-ready dict that ``matrix_to_json`` writes."""
    return {
        "rows": [list(w.word) for w in m.rows],
        "cols": [list(w.word) for w in m.cols],
        "entries": [
            [laurent_json(entry) for entry in row] for row in m.entries
        ],
    }


def matrix_to_json(m: GradedMatrix) -> str:
    import json

    return json.dumps(matrix_payload(m), indent=2)


def matrix_from_json(text: str, group: WeylGroup) -> GradedMatrix:
    import json

    from .blocks import GradedMatrix
    from .laurent import LaurentPoly

    payload = json.loads(text)
    rows = tuple(group.word_elem(word) for word in payload["rows"])
    cols = tuple(group.word_elem(word) for word in payload["cols"])
    entries = tuple(
        tuple(
            LaurentPoly({t["exp"]: t["coef"] for t in entry})
            for entry in row
        )
        for row in payload["entries"]
    )
    if len(entries) != len(rows) or any(len(row) != len(cols) for row in entries):
        raise ValueError("ragged matrix payload")
    return GradedMatrix(rows, cols, entries)


def matrix_to_csv(m: GradedMatrix) -> str:
    lines = [",".join(["w", *(word_label(w) for w in m.cols)])]
    for w, row in zip(m.rows, m.entries):
        lines.append(",".join([word_label(w), *(e.render() for e in row)]))
    return "\n".join(lines) + "\n"


def matrix_from_csv(text: str, group: WeylGroup) -> GradedMatrix:
    from .blocks import GradedMatrix
    from .laurent import LaurentPoly

    lines = [line for line in text.strip().splitlines() if line]
    if not lines or lines[0].split(",")[0] != "w":
        raise ValueError("missing CSV header")
    head = lines[0].split(",")
    cols = tuple(_label_elem(group, label) for label in head[1:])
    rows = []
    entries = []
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != len(cols) + 1:
            raise ValueError(f"bad CSV row {line!r}")
        rows.append(_label_elem(group, parts[0]))
        entries.append(tuple(LaurentPoly.parse(p) for p in parts[1:]))
    return GradedMatrix(tuple(rows), cols, tuple(entries))
