"""Exact combinatorics of graded blocks over Weyl groups.

Integer and rational arithmetic only: root systems and Weyl group
combinatorics, Kazhdan-Lusztig bases of Hecke algebras, the coinvariant
algebra with its Schubert basis and symmetrizing forms, and the graded
decomposition, Cartan and translation matrices of singular-parabolic
blocks, with every result cross-validated along an independent route.

>>> from klblocks import hecke_algebra, weyl_group
>>> g = weyl_group("A3")
>>> h = hecke_algebra("A3")
>>> h.kl_polynomial(g.word_elem((2,)), g.word_elem((2, 1, 3, 2))).render("q")
'1+q'
"""

from __future__ import annotations

import importlib
from functools import lru_cache, wraps
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .hecke import HeckeAlgebra
    from .schubert import CoinvariantAlgebra
    from .weyl import WeylGroup

__version__ = "0.1.0"

# Exported names by defining submodule.  ``import klblocks`` loads none
# of them: module ``__getattr__`` imports a submodule the first time one
# of its names is looked up, so a CLI command compiles only the layers it
# runs.
_EXPORTS = {
    "blocks": (
        "BSReport", "BlockDesc", "GradedMatrix", "NotAntidominantError",
        "NotReducedError", "UnsupportedBlockError", "bott_samelson_decomposition",
        "decomposition_matrix", "graded_cartan_matrix", "graded_length_report",
        "inverse_decomposition_matrix", "make_block", "standard_block",
        "standard_weight", "translate_onto_wall", "translate_out_of_wall",
        "translation_composite", "vp_center", "vp_graded_dimension",
    ),
    "checks": ("CheckResult", "run_all_checks"),
    "hecke": ("HeckeAlgebra", "HeckeElem", "KLTable"),
    "klcache": ("cache_path", "load_kl_table", "save_kl_table"),
    "laurent": ("LaurentPoly",),
    "linalg": ("rank", "rref", "solve"),
    "ratpoly": ("NonDivisibleError", "RatPoly", "divide_by_linear"),
    "roots": ("RootDatum", "UnknownTypeError", "build_root_system", "cartan_matrix"),
    "schubert": (
        "CellularDatum", "CoinvariantAlgebra", "FreeBasisReport", "NotFreeError",
        "NotInParabolicError", "SchubertElem",
    ),
    "serialize": (
        "matrix_from_csv", "matrix_from_json", "matrix_to_csv", "matrix_to_json",
        "matrix_to_table", "parse_word_label", "word_label",
    ),
    "weyl": ("NotCanonicalError", "WeylElem", "WeylGroup", "weyl_group_of_kind"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_SOURCE, "coinvariant_algebra", "hecke_algebra", "weyl_group"])


def __getattr__(name: str):
    if name in _SOURCE:
        value = getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
    elif name in _EXPORTS:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))


def _shared(build):
    """Cache build per type, keyed on the canonical type string.

    'a2' and ' A2' then give the same object as 'A2', whose elements
    interoperate with those of every other shared structure of A2.
    """
    cached = lru_cache(maxsize=None)(build)

    @wraps(build)
    def shared(kind: str):
        from .roots import parse_kind

        family, n = parse_kind(kind)
        return cached(f"{family}{n}")

    return shared


@_shared
def weyl_group(kind: str) -> WeylGroup:
    """Shared Weyl group instance for a type string like 'B3'."""
    from .weyl import weyl_group_of_kind

    return weyl_group_of_kind(kind)


@_shared
def hecke_algebra(kind: str) -> HeckeAlgebra:
    """Shared Hecke algebra over the shared group of this type."""
    from .hecke import HeckeAlgebra

    return HeckeAlgebra(weyl_group(kind))


@_shared
def coinvariant_algebra(kind: str) -> CoinvariantAlgebra:
    """Shared coinvariant algebra over the shared group of this type."""
    from .schubert import CoinvariantAlgebra

    return CoinvariantAlgebra(weyl_group(kind))
