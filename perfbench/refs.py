"""Reference outputs, recorded once, and the digests that compare to them.

``refs.json`` holds, for the code at the commit it was recorded at:

- ``kl_tables``: a digest of the full KL table of each type;
- ``check_lines``: the verdict line of each check of ``check-all``, and
  ``check_names``, the names of the checks in catalogue order;
- ``cli``: the command pool, and per command the exit code and a digest
  of its standard output.

Digests read the program only through its public API, so they survive
changes of internal representation.  Re-record with
``python3 perfbench/refs.py`` (from the repository root) only when an
output is meant to change.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REFS_PATH = os.path.join(HERE, "refs.json")


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:24]


def table_digest(hecke) -> str:
    """Digest of every nonzero P_{y,w} of the algebra's group."""
    h = hashlib.sha256()
    elems = hecke.group.elements
    for w in elems:
        for y in elems:
            p = hecke.kl_polynomial(y, w)
            if not p.is_zero():
                h.update(f"{y.word}|{w.word}|{p.items()}\n".encode())
    return h.hexdigest()[:24]


def command_key(argv) -> str:
    return " ".join(argv)


def run_cli_in_process(argv) -> tuple[int, bytes]:
    """Exit code and stdout of ``klblocks.cli.main(argv)``."""
    from klblocks.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = main(list(argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
    return rc, out.getvalue().encode()


def load(path: str = REFS_PATH) -> dict:
    with open(path) as handle:
        return json.load(handle)


def record() -> dict:
    import gen
    from klblocks.checks import run_all_checks
    from klblocks.hecke import HeckeAlgebra
    from klblocks.weyl import weyl_group_of_kind

    kl_types = sorted(set(gen.KL_TYPES) | set(gen.SMOKE["kl_types"]))
    check_types = sorted(set(gen.CHECK_TYPES) | set(gen.SMOKE["check_types"]))
    refs = {"kl_tables": {}, "check_lines": {}, "check_names": [],
            "cli": {"pool": {}, "outputs": {}}}
    for kind in kl_types:
        hecke = HeckeAlgebra(weyl_group_of_kind(kind))
        hecke.kl_basis_elements()
        refs["kl_tables"][kind] = table_digest(hecke)
        print(f"kl table {kind}", file=sys.stderr)
    for kind in check_types:
        results = run_all_checks(kind)
        refs["check_lines"][kind] = [r.line() for r in results]
        refs["check_names"] = [r.name for r in results]
        print(f"check-all {kind}", file=sys.stderr)
    pool = gen.build_pool()
    refs["cli"]["pool"] = pool
    for key, entries in sorted(pool.items()):
        for argv in entries:
            rc, out = run_cli_in_process(argv)
            if rc != 0:
                raise SystemExit(f"pool command failed ({rc}): {command_key(argv)}")
            refs["cli"]["outputs"][command_key(argv)] = [rc, digest(out)]
        print(f"cli pool {key}: {len(entries)} commands", file=sys.stderr)
    return refs


if __name__ == "__main__":
    root = os.path.dirname(HERE)
    sys.path[:0] = [os.path.join(root, "src"), HERE]
    os.environ.pop("KLBLOCKS_CACHE_DIR", None)
    data = record()
    with open(REFS_PATH, "w") as handle:
        json.dump(data, handle, indent=1, sort_keys=True)
        handle.write("\n")
