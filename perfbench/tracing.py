"""Outside-in tracing of the klblocks layers.

``install(tracer)`` wraps the public functions and methods of every
module of ``klblocks`` from the outside; nothing under ``src/`` knows
about it.  A module-level function is replaced wherever a caller looks
it up: in its own module and in every ``klblocks`` module that imported
it by name (``schubert`` calls ``divide_by_linear`` through its own
namespace, ``cli`` calls ``klcache.load_kl_table`` through the
``klcache`` module).  A method is replaced on its class.
``Installation.remove`` restores every original object.

Each wrapped call is a span: name, start, end and parent.  Every span
adds to per-function aggregates (calls, total and self time, where self
time is the duration minus the time covered by child spans).  Spans
near the top of the stack are also kept in memory as records and
written out when the run ends; deeper ones, such as the millions of
Weyl products in a KL basis, are kept as aggregates only.
"""

from __future__ import annotations

import importlib
import inspect
import os
import sys
import time

# Modules of src/klblocks, in dependency order.  ``roots`` costs
# milliseconds and is reported as part of ``weyl``.
MODULES = ("laurent", "ratpoly", "linalg", "roots", "weyl", "hecke", "klcache",
           "schubert", "blocks", "serialize", "checks", "cli")
LAYER_OF = {"roots": "weyl"}

# Dunder methods that do work.  ``__hash__`` and the like stay
# unwrapped: they run inside every dict lookup and would only add noise.
DUNDERS = frozenset(("__init__", "__add__", "__radd__", "__sub__", "__rsub__",
                     "__mul__", "__rmul__", "__neg__", "__pow__", "__matmul__",
                     "__eq__"))
# Accessors so small and so hot that a span would cost more than the
# call; their time stays with the caller.
SKIP = frozenset(("element", "simple", "is_zero", "items", "coefficient", "get",
                  "put", "column_complete", "support", "min_exp", "max_exp",
                  "constant_term"))
# Arithmetic entry points counted as ``<layer>.ops``.
ARITH = frozenset(("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                   "__rmul__", "__neg__", "__pow__", "bar", "shift",
                   "substitute_power", "truncate_below", "evaluate",
                   "substitute_single", "apply_matrix", "graded_components"))
# Span records are kept for the top two levels of the stack: benchmark
# phases or CLI commands, and the library calls they make.
RECORD_DEPTH = 2
MAX_RECORDS = 200_000


class Stat:
    __slots__ = ("calls", "total", "self_time", "outer", "depth")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.outer = 0.0  # inclusive time of calls not nested in themselves
        self.depth = 0


class Tracer:
    """Span stack, per-function aggregates and span records of one process."""

    def __init__(self, request: str = ""):
        self.clock = time.perf_counter
        self.stack: list[list] = []  # [span id, start, child time, layer, name]
        self.stats: dict[str, Stat] = {}
        self.layer: dict[str, str] = {}
        self.records: list[tuple] = []
        self.dropped = 0
        self.next_id = 1
        self.request = request
        self.counters: dict[str, float] = {}
        self.entries: dict[str, int] = {}  # calls into a layer from outside it
        # per (algebra, element) first sightings, for column reuse
        self.seen_columns: dict[int, tuple[object, set]] = {}

    def stat(self, name: str, layer: str) -> Stat:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat()
            self.layer[name] = layer
        return st

    def add(self, counter: str, value: float = 1) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + value

    def parent_layer(self) -> str | None:
        """Layer of the span that is calling right now (None at top)."""
        return self.stack[-1][3] if self.stack else None

    def enter(self, name: str, layer: str) -> list:
        frame = [self.next_id, self.clock(), 0.0, layer, name]
        self.next_id += 1
        self.stack.append(frame)
        return frame

    def leave(self, frame: list, st: Stat) -> float:
        end = self.clock()
        stack = self.stack
        stack.pop()
        duration = end - frame[1]
        st.calls += 1
        st.total += duration
        st.self_time += duration - frame[2]
        if stack:
            stack[-1][2] += duration
        if not stack or stack[-1][3] != frame[3]:
            self.entries[frame[3]] = self.entries.get(frame[3], 0) + 1
        if len(stack) < RECORD_DEPTH:
            if len(self.records) < MAX_RECORDS:
                parent = stack[-1][0] if stack else 0
                self.records.append(
                    (frame[0], frame[4], frame[1], end, parent, self.request))
            else:
                self.dropped += 1
        return duration

    def span(self, name: str):
        """Context manager for a phase span opened by the benchmark itself."""
        return _Phase(self, name)

    # -- results ------------------------------------------------------

    def dump(self) -> dict:
        return {
            "stats": {
                name: [st.calls, st.total, st.self_time, st.outer, self.layer[name]]
                for name, st in self.stats.items()
            },
            "counters": dict(self.counters),
            "entries": dict(self.entries),
            "records": [list(r) for r in self.records],
            "dropped": self.dropped,
        }


class _Phase:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name
        self.st = tracer.stat(name, "bench")

    def __enter__(self):
        self.frame = self.tracer.enter(self.name, "bench")
        return self

    def __exit__(self, *exc):
        self.st.outer += self.tracer.leave(self.frame, self.st)
        return False


def merge(dumps: list[dict]) -> dict:
    """Sum the aggregates of several dumps (one per CLI child).

    Span ids are unique within one request (one dump); records keep
    their request, so (request, id) stays unique after the merge.
    """
    stats: dict[str, list] = {}
    counters: dict[str, float] = {}
    entries: dict[str, int] = {}
    records: list = []
    dropped = 0
    for d in dumps:
        for name, (calls, total, self_time, outer, layer) in d["stats"].items():
            cur = stats.setdefault(name, [0, 0.0, 0.0, 0.0, layer])
            cur[0] += calls
            cur[1] += total
            cur[2] += self_time
            cur[3] += outer
        for key, value in d["counters"].items():
            counters[key] = counters.get(key, 0) + value
        for key, value in d["entries"].items():
            entries[key] = entries.get(key, 0) + value
        records.extend(d["records"])
        dropped += d["dropped"]
    return {"stats": stats, "counters": counters, "entries": entries,
            "records": records, "dropped": dropped}


# -- wrappers ---------------------------------------------------------


def _wrapper(tracer: Tracer, fn, name: str, layer: str, before=None, after=None):
    """A span around fn; before(tracer, args) -> token and
    after(tracer, args, result, token) run outside the span."""
    st = tracer.stat(name, layer)
    enter, leave = tracer.enter, tracer.leave

    def wrapper(*args, **kwargs):
        token = before(tracer, args) if before else None
        frame = enter(name, layer)
        st.depth += 1
        try:
            result = fn(*args, **kwargs)
        finally:
            st.depth -= 1
            duration = leave(frame, st)
            if not st.depth:
                st.outer += duration
        if after:
            after(tracer, args, result, token)
        return result

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", name)
    wrapper._perfbench = True
    return wrapper


def _after_group(tracer, args, result, token):
    tracer.add("weyl.elements", len(args[0].elements))


def _before_kl_element(tracer, args):
    algebra, w = args[0], args[1]
    entry = tracer.seen_columns.get(id(algebra))
    if entry is None:
        entry = tracer.seen_columns[id(algebra)] = (algebra, set())
    seen = entry[1]
    if w.index in seen:
        return None
    seen.add(w.index)
    # First request for this column on this algebra: it is either
    # rebuilt from a loaded table or computed by the recursion.
    reused = algebra.kl_table.column_complete(w)
    tracer.add("hecke.columns_reused" if reused else "hecke.columns_computed")
    return None


def _before_kl_polynomial(tracer, args):
    if tracer.parent_layer() == "blocks":
        tracer.add("blocks.kl_lookups")
    return None


def _before_load(tracer, args):
    path = args[0]
    tracer.add("klcache.bytes_read", os.path.getsize(path))
    return None


def _after_load(tracer, args, result, token):
    tracer.add("klcache.records_loaded", result)


def _before_save(tracer, args):
    path = args[1]
    if os.path.exists(path):
        with open(path, "rb") as handle:
            return handle.read()
    return None


def _after_save(tracer, args, result, token):
    path = args[1]
    with open(path, "rb") as handle:
        data = handle.read()
    tracer.add("klcache.saves")
    tracer.add("klcache.bytes_written", len(data))
    if token == data:
        tracer.add("klcache.useless_saves")


def _before_matrix(tracer, args):
    return tracer.parent_layer() != "blocks"


def _after_matrix(tracer, args, result, outermost):
    from klblocks.blocks import GradedMatrix

    if outermost and isinstance(result, GradedMatrix):
        tracer.add("blocks.matrices")
        tracer.add("blocks.matrix_entries", len(result.rows) * len(result.cols))


HOOKS = {
    "weyl.WeylGroup.__init__": (None, _after_group),
    "hecke.HeckeAlgebra.kl_element": (_before_kl_element, None),
    "hecke.HeckeAlgebra.kl_polynomial": (_before_kl_polynomial, None),
    "klcache.load_kl_table": (_before_load, _after_load),
    "klcache.save_kl_table": (_before_save, _after_save),
}


def _wrap(tracer: Tracer, fn, name: str, layer: str):
    hooks = HOOKS.get(name, ())
    if not hooks and layer == "blocks" and name.count(".") == 1:
        hooks = (_before_matrix, _after_matrix)
    return _wrapper(tracer, fn, name, layer, *hooks)


class Installation:
    def __init__(self):
        self.undo: list[tuple[object, str, object]] = []

    def remove(self) -> None:
        for owner, attr, original in reversed(self.undo):
            setattr(owner, attr, original)
        self.undo.clear()


def _targets():
    """(owner, attribute, layer, qualified name) for every function to wrap."""
    for short in MODULES:
        module = importlib.import_module(f"klblocks.{short}")
        layer = LAYER_OF.get(short, short)
        for attr, obj in vars(module).items():
            if attr.startswith("_"):
                continue
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                yield module, attr, layer, f"{short}.{attr}", obj
            elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                for name, member in vars(obj).items():
                    if not inspect.isfunction(member):
                        continue
                    if name in SKIP or (name.startswith("_") and name not in DUNDERS):
                        continue
                    yield obj, name, layer, f"{short}.{attr}.{name}", member


def install(tracer: Tracer) -> Installation:
    """Wrap every public function and method of klblocks; see module doc."""
    import klblocks  # noqa: F401  (loads every submodule)

    inst = Installation()
    sites: dict[int, list] = {}
    for modname, module in list(sys.modules.items()):
        if module is not None and (modname == "klblocks" or modname.startswith("klblocks.")):
            for key, value in vars(module).items():
                if inspect.isfunction(value):
                    sites.setdefault(id(value), []).append((module, key))
    for owner, attr, layer, name, original in list(_targets()):
        wrapper = _wrap(tracer, original, name, layer)
        if inspect.ismodule(owner):
            for module, key in sites.get(id(original), ()):
                inst.undo.append((module, key, original))
                setattr(module, key, wrapper)
        else:
            inst.undo.append((owner, attr, original))
            setattr(owner, attr, wrapper)
    return inst


def wrapped_sites() -> list[str]:
    """Every klblocks binding that currently holds a tracing wrapper."""
    import klblocks  # noqa: F401

    found = []
    for modname, module in list(sys.modules.items()):
        if not (modname == "klblocks" or modname.startswith("klblocks.")) or module is None:
            continue
        for key, value in vars(module).items():
            if getattr(value, "_perfbench", False):
                found.append(f"{modname}.{key}")
            if inspect.isclass(value) and value.__module__ == modname:
                for name, member in vars(value).items():
                    if getattr(member, "_perfbench", False):
                        found.append(f"{modname}.{key}.{name}")
    return found


# -- per-layer metrics --------------------------------------------------


def _sum(stats, pred, field):
    return sum(v[field] for name, v in stats.items() if pred(name, v))


def layer_metrics(dump: dict) -> dict[str, float]:
    """The per-layer metrics of BENCHMARK.json from one (merged) dump."""
    stats, c = dump["stats"], dump["counters"]
    calls, self_, outer = 0, 2, 3

    def fn(name, field):
        v = stats.get(name)
        return v[field] if v else 0

    def layer_self(layer):
        return _sum(stats, lambda n, v: v[4] == layer, self_)

    def ops(module):
        return _sum(stats, lambda n, v: n.startswith(module + ".")
                    and n.rsplit(".", 1)[1] in ARITH, calls)

    computed = c.get("hecke.columns_computed", 0)
    reused = c.get("hecke.columns_reused", 0)
    saves = c.get("klcache.saves", 0)
    out = {
        "weyl.build_s": fn("weyl.WeylGroup.__init__", outer) + fn("roots.build_root_system", outer),
        "weyl.elements": c.get("weyl.elements", 0),
        "weyl.products": fn("weyl.WeylElem.__mul__", calls),
        "weyl.products_self_s": fn("weyl.WeylElem.__mul__", self_),
        "weyl.word_elem_calls": fn("weyl.WeylGroup.word_elem", calls),
        "weyl.bruhat_calls": fn("weyl.WeylGroup.bruhat_leq", calls),
        "weyl.self_s": layer_self("weyl"),
        "laurent.ops": ops("laurent"),
        "laurent.self_s": layer_self("laurent"),
        "hecke.kl_basis_s": fn("hecke.HeckeAlgebra.kl_element", outer),
        "hecke.columns_computed": computed,
        "hecke.columns_reused": reused,
        "hecke.column_reuse_ratio": reused / (computed + reused) if computed + reused else 0.0,
        "hecke.multiply_calls": fn("hecke.HeckeAlgebra.multiply", calls),
        "hecke.kl_lookups": fn("hecke.HeckeAlgebra.kl_polynomial", calls),
        "hecke.self_s": layer_self("hecke"),
        "klcache.load_s": fn("klcache.load_kl_table", outer),
        "klcache.save_s": fn("klcache.save_kl_table", outer),
        "klcache.bytes_read": c.get("klcache.bytes_read", 0),
        "klcache.bytes_written": c.get("klcache.bytes_written", 0),
        "klcache.records_loaded": c.get("klcache.records_loaded", 0),
        "klcache.useless_write_ratio": c.get("klcache.useless_saves", 0) / saves if saves else 0.0,
        "ratpoly.ops": ops("ratpoly"),
        "ratpoly.divisions": fn("ratpoly.divide_by_linear", calls),
        "ratpoly.self_s": layer_self("ratpoly"),
        "linalg.calls": dump["entries"].get("linalg", 0),
        "linalg.self_s": layer_self("linalg"),
        "schubert.demazure_steps": fn("schubert.CoinvariantAlgebra.demazure_simple", calls),
        "schubert.projections": fn("schubert.CoinvariantAlgebra.poly_to_schubert", calls),
        "schubert.self_s": layer_self("schubert"),
        "blocks.matrices": c.get("blocks.matrices", 0),
        "blocks.matrix_entries": c.get("blocks.matrix_entries", 0),
        "blocks.kl_lookups": c.get("blocks.kl_lookups", 0),
        "blocks.self_s": layer_self("blocks"),
        "cli.startup_s": c.get("cli.startup_s", 0.0),
        "cli.command_s": fn("cli.main", outer),
        "serialize.render_s": layer_self("serialize"),
        "serialize.bytes_out": c.get("serialize.bytes_out", 0),
    }
    return out
