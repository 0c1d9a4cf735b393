"""Command-line front end.

One subcommand per computation: root data, Weyl cosets, KL polynomials,
Schubert products, Gram forms, the graded block matrices, graded
dimensions, Bott-Samelson decompositions, wall-crossing translation and
the cross-validation suite.  Output is a text table by default and JSON
or CSV on request; the same invocation always produces the same bytes.

Exit codes: 0 on success, 1 on usage or domain errors, 2 when check-all
finds a violated invariant.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import serialize
from .roots import UnknownTypeError
from .serialize import matrix_to_csv, matrix_to_table, word_label
from .weyl import WeylGroup, weyl_group_of_kind

# Handlers import blocks, hecke, schubert, checks and json when they
# run, so a command loads no layer it does not use.

__all__ = ["main"]


def __getattr__(name: str):
    """``cli.klcache``, imported on first use: no command reads the KL cache,
    but perfbench's tracer self-test looks up ``cli.klcache.load_kl_table``."""
    if name == "klcache":
        from . import klcache

        return klcache
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _parse_subset(text: str) -> frozenset[int]:
    text = text.strip()
    if not text:
        return frozenset()
    try:
        return frozenset(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad index list {text!r}") from None


def _parse_word(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text or text == "e":
        return ()
    try:
        return tuple(int(part) for part in text.replace(".", ",").split(","))
    except ValueError:
        raise _UsageError(f"bad reduced word {text!r}") from None


def _element(group: WeylGroup, text: str):
    word = _parse_word(text)
    for letter in word:
        if not 1 <= letter <= group.rank:
            raise _UsageError(f"letter {letter} out of range for {group.kind}")
    w = group.word_elem(word)
    if w.length != len(word):
        raise _UsageError(f"{text.strip()!r} is not a reduced word in {group.kind}")
    return w


def _group(args) -> WeylGroup:
    try:
        group = weyl_group_of_kind(args.type)
    except UnknownTypeError as exc:
        raise _UsageError(str(exc)) from None
    for name in ("I", "J"):
        for i in getattr(args, name, ()):
            if not 1 <= i <= group.rank:
                raise _UsageError(f"--{name} index {i} out of range for {group.kind}")
    return group


def _print_json(payload) -> None:
    import json

    print(json.dumps(payload, indent=2))


def _print_matrix(matrix, args) -> None:
    if args.format == "json":
        payload = serialize.matrix_payload(matrix)
        if args.eval_v is not None:
            payload["eval_point"] = args.eval_v
            payload["eval"] = [
                [str(x) for x in row] for row in matrix.evaluate(args.eval_v)
            ]
        _print_json(payload)
        return
    if args.format == "csv":
        print(matrix_to_csv(matrix), end="")
        return
    print(matrix_to_table(matrix))
    if args.eval_v is not None:
        print()
        print(f"at v={args.eval_v}:")
        print(serialize.plain_table(
            [word_label(w) for w in matrix.rows],
            [word_label(w) for w in matrix.cols],
            [[str(x) for x in row] for row in matrix.evaluate(args.eval_v)],
            corner="w",
        ))


def _block(args, group: WeylGroup):
    from .blocks import standard_block

    block = standard_block(group, sorted(args.I), sorted(args.J))
    if not block.index_set:
        raise _UsageError(
            f"block (I={sorted(block.I)}, J={sorted(block.J)}) of {group.kind} "
            "has an empty index set; matrices will be 0x0"
        )
    return block


# -- subcommand handlers ---------------------------------------------


def _cmd_root_system(args) -> int:
    group = _group(args)
    datum = group.datum
    if args.format == "json":
        payload = {
            "kind": datum.kind,
            "rank": datum.rank,
            "cartan": [list(row) for row in datum.cartan],
            "positive_roots": [list(r) for r in datum.pos_roots],
            "positive_coroots": [list(r) for r in datum.pos_coroots],
            "weyl_order": len(group.elements),
            "longest_word": list(group.w0.word),
        }
        _print_json(payload)
        return 0
    print(f"kind {datum.kind}")
    print(f"rank {datum.rank}")
    print(f"positive roots {len(datum.pos_roots)}")
    print(f"weyl order {len(group.elements)}")
    print(f"longest word {word_label(group.w0)}")
    print()
    print("cartan matrix:")
    for row in datum.cartan:
        print("  " + " ".join(f"{x:3d}" for x in row))
    print()
    rows = [
        [str(t), ",".join(map(str, root)), ",".join(map(str, coroot)), str(sum(root))]
        for t, (root, coroot) in enumerate(zip(datum.pos_roots, datum.pos_coroots))
    ]
    print(serialize.plain_table(
        [r[0] for r in rows],
        ["root", "coroot", "height"],
        [r[1:] for r in rows],
        corner="idx",
    ))
    return 0


def _cmd_weyl(args) -> int:
    group = _group(args)
    I, J = args.I, args.J
    if I and J:
        elems = group.double_quotient(I, J)
        title = f"double quotient, I={sorted(I)} J={sorted(J)}"
    elif J:
        elems = group.min_coset_reps(J)
        title = f"minimal coset representatives, J={sorted(J)}"
    elif I:
        elems = group.min_coset_reps_right(I)
        title = f"minimal right coset representatives, I={sorted(I)}"
    else:
        elems = group.elements
        title = "all elements"
    if args.format == "json":
        payload = {
            "kind": group.kind,
            "selection": title,
            "count": len(elems),
            "elements": [
                {"word": list(w.word), "length": w.length} for w in elems
            ],
        }
        _print_json(payload)
        return 0
    print(f"{group.kind}: {title} ({len(elems)})")
    print(serialize.plain_table(
        [word_label(w) for w in elems],
        ["length"],
        [[str(w.length)] for w in elems],
        corner="w",
    ))
    return 0


def _cmd_kl(args) -> int:
    from .hecke import HeckeAlgebra

    group = _group(args)
    hecke = HeckeAlgebra(group)
    y = _element(group, args.y)
    w = _element(group, args.w)
    poly = hecke.kl_polynomial(y, w)
    if args.format == "json":
        payload = {
            "kind": group.kind,
            "y": list(y.word),
            "w": list(w.word),
            "p": serialize.laurent_json(poly),
        }
        _print_json(payload)
    else:
        print(poly.render("q"))
    return 0


def _cmd_schubert(args) -> int:
    from .schubert import CoinvariantAlgebra

    group = _group(args)
    coinv = CoinvariantAlgebra(group)
    x = _element(group, args.x)
    y = _element(group, args.y)
    product = coinv.multiply(coinv.schubert_class(x), coinv.schubert_class(y))
    pairs = product.items()
    if args.format == "json":
        payload = {
            "kind": group.kind,
            "x": list(x.word),
            "y": list(y.word),
            "product": [
                {"word": list(w.word), "coef": str(c)} for w, c in pairs
            ],
        }
        _print_json(payload)
        return 0
    print(f"X[{word_label(x)}] * X[{word_label(y)}] =")
    if not pairs:
        print("  0")
    for w, c in pairs:
        print(f"  {c} X[{word_label(w)}]")
    return 0


def _cmd_gram(args) -> int:
    from .schubert import CoinvariantAlgebra

    group = _group(args)
    coinv = CoinvariantAlgebra(group)
    reps, gram = coinv.gram_matrix(args.J)
    labels = [word_label(w) for w in reps]
    if args.format == "json":
        payload = {
            "kind": group.kind,
            "J": sorted(args.J),
            "basis": [list(w.word) for w in reps],
            "gram": [[str(x) for x in row] for row in gram],
        }
        _print_json(payload)
        return 0
    if args.format == "csv":
        print("w," + ",".join(labels))
        for label, row in zip(labels, gram):
            print(label + "," + ",".join(str(x) for x in row))
        return 0
    print(f"{group.kind}: symmetrizing form on invariants, J={sorted(args.J)}")
    print(serialize.plain_table(
        labels, labels, [[str(x) for x in row] for row in gram], corner="w"
    ))
    return 0


def _matrix_command(builder: str):
    """Handler printing the matrix ``blocks.<builder>`` makes for the chosen block."""
    def handler(args) -> int:
        from . import blocks
        from .hecke import HeckeAlgebra

        if args.eval_v is not None and args.format == "csv":
            raise _UsageError("--eval-v is not available with --format csv")
        if args.eval_v == 0:
            raise _UsageError("--eval-v 0: Laurent polynomials cannot be evaluated at v = 0")
        group = _group(args)
        hecke = HeckeAlgebra(group)
        _print_matrix(getattr(blocks, builder)(_block(args, group), hecke), args)
        return 0
    return handler


def _cmd_vp_dims(args) -> int:
    from .blocks import vp_center, vp_graded_dimension
    from .hecke import HeckeAlgebra

    group = _group(args)
    hecke = HeckeAlgebra(group)
    if args.I:
        raise _UsageError("graded dimensions require I empty")
    block = _block(args, group)
    center = vp_center(block)
    rows = [(x, vp_graded_dimension(block, hecke, x)) for x in block.index_set]
    if args.format == "json":
        payload = {
            "kind": group.kind,
            "J": sorted(args.J),
            "center": center,
            "dimensions": [
                {"x": list(x.word), "dim": serialize.laurent_json(vp)}
                for x, vp in rows
            ],
        }
        _print_json(payload)
        return 0
    print(f"{group.kind}: graded dimensions, J={sorted(args.J)}, center {center}")
    print(serialize.plain_table(
        [word_label(x) for x, _ in rows],
        ["dimension"],
        [[vp.render()] for _, vp in rows],
        corner="x",
    ))
    return 0


def _cmd_bott_samelson(args) -> int:
    from .blocks import bott_samelson_decomposition
    from .hecke import HeckeAlgebra

    group = _group(args)
    hecke = HeckeAlgebra(group)
    report = bott_samelson_decomposition(hecke, _parse_word(args.word))
    if args.format == "json":
        payload = {
            "kind": group.kind,
            "word": list(report.word),
            "x": list(report.x.word),
            "shift": report.shift,
            "multiplicities": [
                {"y": list(y.word), "mult": serialize.laurent_json(m)}
                for y, m in sorted(
                    report.multiplicities.items(), key=lambda kv: kv[0].index
                )
            ],
            "dimension_identity_ok": report.dimension_identity_ok,
            "top_multiplicity_ok": report.top_multiplicity_ok,
            "support_ok": report.support_ok,
            "natural_coeffs_ok": report.natural_coeffs_ok,
        }
        _print_json(payload)
        return 0
    print(f"word {'.'.join(map(str, report.word)) or 'e'} -> x = {word_label(report.x)}")
    ordered = sorted(report.multiplicities.items(), key=lambda kv: kv[0].index)
    print(serialize.plain_table(
        [word_label(y) for y, _ in ordered],
        ["multiplicity"],
        [[m.render()] for _, m in ordered],
        corner="y",
    ))
    print(f"shift v^{report.shift}")
    for label, flag in (
        ("dimension identity", report.dimension_identity_ok),
        ("top multiplicity 1", report.top_multiplicity_ok),
        ("support below x", report.support_ok),
        ("natural coefficients", report.natural_coeffs_ok),
    ):
        print(f"{label}: {'ok' if flag else 'FAIL'}")
    return 0


def _cmd_translate(args) -> int:
    from .blocks import standard_block, translation_composite
    from .hecke import HeckeAlgebra

    group = _group(args)
    hecke = HeckeAlgebra(group)
    wall = standard_block(group, (), sorted(args.J))
    x = _element(group, args.x)
    if x not in wall.index_set:
        raise _UsageError(
            f"{word_label(x)} is not a minimal representative for J={sorted(args.J)}"
        )
    composite = translation_composite(wall, x)
    target = hecke.t(x) * hecke.kl_element(group.parabolic_longest(args.J))
    agrees = dict(target.items()) == composite
    ordered = sorted(composite.items(), key=lambda kv: kv[0].index)
    if args.format == "json":
        payload = {
            "kind": group.kind,
            "J": sorted(args.J),
            "x": list(x.word),
            "composite": [
                {"y": list(y.word), "coef": serialize.laurent_json(p)}
                for y, p in ordered
            ],
            "matches_hecke_product": agrees,
        }
        _print_json(payload)
        return 0
    print(f"{group.kind}: wall J={sorted(args.J)}, through-wall image of [{word_label(x)}]")
    print(serialize.plain_table(
        [word_label(y) for y, _ in ordered],
        ["coefficient"],
        [[p.render()] for _, p in ordered],
        corner="y",
    ))
    print(f"matches T_x * C_wall: {'ok' if agrees else 'FAIL'}")
    return 0


def _cmd_check_all(args) -> int:
    from .checks import run_all_checks

    results = run_all_checks(args.type, progress=lambda r: print(r.line()))
    ran = [r for r in results if not r.skipped]
    failed = [r for r in ran if not r.passed]
    skipped = len(results) - len(ran)
    print()
    print(f"{len(ran) - len(failed)}/{len(ran)} checks passed"
          + (f", {skipped} skipped" if skipped else ""))
    return 2 if failed else 0


# -- argument wiring -------------------------------------------------


# parse_args leaves the parser as it was, so one per process serves
# every call of main.
@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="klblocks", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text, *, subsets="", matrix=False,
            word_flags=(), formats=("table", "json")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--type", required=True, help="root system type, e.g. B3")
        p.add_argument("--format", choices=formats, default="table")
        for flag, help_word in word_flags:
            p.add_argument(flag, required=True, help=help_word)
        for letter in subsets:
            p.add_argument(f"--{letter}", type=_parse_subset, default=frozenset(),
                           help="comma-separated simple indices (1-based)")
        if matrix:
            p.add_argument("--eval-v", type=int, default=None, dest="eval_v",
                           help="append the specialization at this integer")
        p.set_defaults(handler=handler)

    add("root-system", _cmd_root_system, "Cartan matrix and positive roots")
    add("weyl", _cmd_weyl, "elements and coset representatives", subsets="IJ")
    add("kl", _cmd_kl, "one Kazhdan-Lusztig polynomial",
        word_flags=(("--y", "lower reduced word"), ("--w", "upper reduced word")))
    add("schubert", _cmd_schubert, "product of two Schubert classes",
        word_flags=(("--x", "first reduced word"), ("--y", "second reduced word")))
    add("gram", _cmd_gram, "Gram matrix of the parabolic symmetrizing form", subsets="J",
        formats=("table", "json", "csv"))
    add("decomp", _matrix_command("decomposition_matrix"),
        "graded decomposition matrix", subsets="IJ", matrix=True,
        formats=("table", "json", "csv"))
    add("inverse-decomp", _matrix_command("inverse_decomposition_matrix"),
        "inverse graded decomposition matrix", subsets="IJ", matrix=True,
        formats=("table", "json", "csv"))
    add("cartan", _matrix_command("graded_cartan_matrix"),
        "graded Cartan matrix", subsets="IJ", matrix=True,
        formats=("table", "json", "csv"))
    add("vp-dims", _cmd_vp_dims, "graded dimensions on the wall", subsets="IJ")
    add("bott-samelson", _cmd_bott_samelson, "decompose one Bott-Samelson word",
        word_flags=(("--word", "generator word, e.g. 1,2,1"),))
    add("translate", _cmd_translate, "through-wall translation of one Verma", subsets="J",
        word_flags=(("--x", "minimal representative word"),))
    add("check-all", _cmd_check_all, "run the full cross-validation suite")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (_UsageError, ValueError, ArithmeticError) as exc:
        print(f"klblocks: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
