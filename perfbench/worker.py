"""Runs one workload in its own process: set-up, timed pass, checks.

Started by ``run.py`` with one JSON argument (see ``run.py``) and
answers with a JSON file.  The process starts no threads and no pools;
``cli-session`` starts one CLI child at a time and waits for it.

A workload's batch is a fixed list of units (one per type, or the whole
CLI session).  A run first warms the interpreter up on a tiny type,
then repeats the batch, each time after a fresh, separately timed
set-up, until the timed batches add up to ``seconds``.  Between units,
outside the timed pass, the unit's outputs are checked and dropped and
a garbage collection runs, so that the time of one type does not depend
on which types went before it.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
CLI_TIMEOUT_S = 120
MAX_FAILURE_NOTES = 10

perf = time.perf_counter


class Ledger:
    """Attempted and failed outputs, with the first few failure notes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < MAX_FAILURE_NOTES:
                self.notes.append(what)


class Context:
    def __init__(self, cfg: dict, refs: dict):
        import gen

        self.refs = refs
        self.seed = cfg["seed"]
        self.seconds = cfg["seconds"]
        self.tmp = cfg["tmp"]
        self.root = cfg["root"]
        self.inputs = gen.config(cfg["smoke"])
        self.ledger = Ledger()
        self.tracer = None

    def phase(self, name: str, request: str):
        if self.tracer is None:
            return contextlib.nullcontext()
        self.tracer.request = request
        return self.tracer.span(name)


def check_slug(name: str) -> str:
    return re.sub(r"[^a-z0-9]+", "_", name.lower()).strip("_")


# -- kl-tables ---------------------------------------------------------


class KLTables:
    """Full KL basis, seeded queries, save and reload, per type."""

    in_process = True

    def __init__(self, ctx: Context):
        import gen

        self.ctx = ctx
        self.types = gen.type_order(ctx.inputs["kl_types"], ctx.seed, "kl-tables")

    def warm_up(self) -> None:
        """One untimed unit on A2, so that every code path has run once."""
        state = self.setup(("A2",))
        self.run(state, "A2", [])

    def setup(self, types=None) -> dict:
        import gen
        from klblocks.weyl import weyl_group_of_kind

        state = {}
        for kind in types or self.types:
            group = weyl_group_of_kind(kind)
            state[kind] = (group, gen.kl_queries(group, self.ctx.seed),
                           gen.oracle_columns(group, self.ctx.seed))
        return state

    def units(self, state) -> list:
        return self.types

    def run(self, state, kind: str, latencies: list):
        from klblocks.hecke import HeckeAlgebra
        from klblocks.klcache import load_kl_table, save_kl_table

        ctx = self.ctx
        group, queries, _ = state[kind]
        hecke = HeckeAlgebra(group)
        with ctx.phase("bench.kl_basis", kind):
            for w in group.elements:
                start = perf()
                hecke.kl_basis_elements([w])
                latencies.append(perf() - start)
        with ctx.phase("bench.queries", kind):
            answers = []
            for what, yword, wword in queries:
                y, w = group.word_elem(yword), group.word_elem(wword)
                answers.append(hecke.kl_polynomial(y, w) if what == "p" else hecke.mu(y, w))
        path = os.path.join(ctx.tmp, f"{kind}.klt")
        with ctx.phase("bench.save", kind):
            saved = save_kl_table(hecke.kl_table, path)
        fresh = HeckeAlgebra(group)
        with ctx.phase("bench.load", kind):
            loaded = load_kl_table(path, fresh)
        with ctx.phase("bench.rebuild", kind):
            rebuilt = [fresh.kl_element(w) for w in group.elements]
        return hecke, answers, saved, fresh, loaded, rebuilt

    def check(self, state, kind: str, out) -> None:
        from klblocks.checks import kl_bar_solve
        from klblocks.hecke import HeckeAlgebra
        from refs import table_digest

        ledger = self.ctx.ledger
        group, queries, oracle = state[kind]
        hecke, answers, saved, fresh, loaded, rebuilt = out
        want = self.ctx.refs["kl_tables"].get(kind)
        ledger.check(table_digest(hecke) == want, f"{kind}: KL table digest")
        same = (loaded == saved and table_digest(fresh) == want and all(
            c == hecke.kl_element(w) for w, c in zip(group.elements, rebuilt)))
        ledger.check(same, f"{kind}: reloaded table differs from the computed one")
        for (what, yword, wword), answer in zip(queries, answers):
            y, w = group.word_elem(yword), group.word_elem(wword)
            p = fresh.kl_polynomial(y, w)
            if what == "p":
                expect = p
            else:
                gap = w.length - y.length
                expect = p.coefficient((gap - 1) // 2) if gap % 2 else 0
            ledger.check(answer == expect, f"{kind}: {what}({yword}, {wword})")
        oracle_algebra = HeckeAlgebra(group)
        for wword in oracle:
            w = group.word_elem(wword)
            ledger.check(kl_bar_solve(oracle_algebra, w) == hecke.kl_element(w),
                         f"{kind}: C_{wword} differs from the bar-solve oracle")
        # Every batch saves into a new file, as a first save would.
        os.remove(os.path.join(self.ctx.tmp, f"{kind}.klt"))

    def traced_metrics(self) -> dict:
        return {}


# -- check-all ---------------------------------------------------------


class CheckAll:
    """``run_all_checks`` on a fixed list of small types."""

    in_process = True

    def __init__(self, ctx: Context):
        import gen

        self.ctx = ctx
        self.types = gen.type_order(ctx.inputs["check_types"], ctx.seed, "check-all")
        self.check_times: dict[str, float] = {}
        self.failed_checks = 0

    def warm_up(self) -> None:
        """The whole catalogue once on A1, untimed."""
        from klblocks.checks import run_all_checks

        run_all_checks("A1")

    def setup(self) -> None:
        from klblocks.hecke import HeckeAlgebra
        from klblocks.schubert import CoinvariantAlgebra
        from klblocks.weyl import weyl_group_of_kind

        # The suite builds its own objects; building them here once makes
        # a bad type fail before any timing.
        for kind in self.types:
            group = weyl_group_of_kind(kind)
            HeckeAlgebra(group)
            CoinvariantAlgebra(group)
        self.check_times.clear()
        self.failed_checks = 0

    def units(self, state) -> list:
        return self.types

    def run(self, state, kind: str, latencies: list):
        from klblocks.checks import run_all_checks

        last = [perf()]

        def progress(result):
            now = perf()
            latencies.append(now - last[0])
            slug = check_slug(result.name)
            self.check_times[slug] = self.check_times.get(slug, 0.0) + now - last[0]
            last[0] = now

        with self.ctx.phase("bench.check_all", kind):
            return run_all_checks(kind, progress=progress)

    def check(self, state, kind: str, results) -> None:
        ledger = self.ctx.ledger
        want = self.ctx.refs["check_lines"].get(kind, [])
        for i, result in enumerate(results):
            line = result.line()
            ledger.check(i < len(want) and line == want[i] and result.passed, f"{kind}: {line}")
        ledger.check(len(results) == len(want),
                     f"{kind}: {len(results)} checks, expected {len(want)}")
        self.failed_checks += sum(not r.passed for r in results)

    def traced_metrics(self) -> dict:
        out = {f"checks.{check_slug(name)}_s": self.check_times.get(check_slug(name), 0.0)
               for name in self.ctx.refs["check_names"]}
        out["checks.failed"] = self.failed_checks
        return out


# -- cli-session -------------------------------------------------------


class CLISession:
    """A seeded stream of CLI commands, one child process at a time."""

    in_process = False

    def __init__(self, ctx: Context):
        import gen

        self.ctx = ctx
        self.session = gen.cli_session(ctx.refs["cli"]["pool"],
                                       ctx.inputs["cli_slots"], ctx.seed)
        self.cache = os.path.join(ctx.tmp, "klcache")
        src = os.path.join(ctx.root, "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, KLBLOCKS_CACHE_DIR=self.cache, TMPDIR=ctx.tmp,
                        PYTHONPATH=src + (os.pathsep + path if path else ""))
        self.warmed = False
        self.dumps: list[dict] = []
        self.bytes_out = 0

    def warm_up(self) -> None:
        """Nothing: every command runs in a fresh interpreter."""

    def setup(self) -> None:
        """Warm the shared cache with one untimed pass over the session."""
        from refs import run_cli_in_process

        if self.warmed:
            return
        os.makedirs(self.cache, exist_ok=True)
        saved = os.environ.get("KLBLOCKS_CACHE_DIR")
        os.environ["KLBLOCKS_CACHE_DIR"] = self.cache
        try:
            for argv in self.session:
                run_cli_in_process(argv)
        finally:
            if saved is None:
                del os.environ["KLBLOCKS_CACHE_DIR"]
            else:
                os.environ["KLBLOCKS_CACHE_DIR"] = saved
        self.warmed = True

    def units(self, state) -> list:
        return ["session"]

    def _command(self, argv, index: int):
        if not self.ctx.tracer:
            return [sys.executable, "-m", "klblocks.cli", *argv], self.env
        dump = os.path.join(self.ctx.tmp, f"trace-{index}.json")
        env = dict(self.env, PERFBENCH_SPAWN=repr(time.monotonic()),
                   PERFBENCH_REQUEST=str(index))
        return [sys.executable, os.path.join(HERE, "cli_driver.py"), dump, *argv], env

    def run(self, state, unit: str, latencies: list) -> list:
        out = []
        for index, argv in enumerate(self.session):
            cmd, env = self._command(argv, index)
            start = perf()
            try:
                proc = subprocess.run(cmd, env=env, cwd=self.ctx.root, capture_output=True,
                                      timeout=CLI_TIMEOUT_S)
                result = (proc.returncode, proc.stdout, proc.stderr)
            except subprocess.TimeoutExpired:
                result = (None, b"", b"timed out")
            latencies.append(perf() - start)
            out.append(result)
        return out

    def check(self, state, unit: str, out: list) -> None:
        from refs import command_key, digest

        outputs = self.ctx.refs["cli"]["outputs"]
        for argv, (rc, stdout, stderr) in zip(self.session, out):
            key = command_key(argv)
            ok = rc == 0 and outputs.get(key) == [rc, digest(stdout)]
            note = key if rc == 0 else f"{key} -> exit {rc}: {stderr.decode(errors='replace')[-200:]}"
            self.ctx.ledger.check(ok, note)
        if self.ctx.tracer:
            self._collect_trace(out)

    def _collect_trace(self, out: list) -> None:
        """Read the dumps the traced children wrote."""
        for index in range(len(self.session)):
            path = os.path.join(self.ctx.tmp, f"trace-{index}.json")
            if os.path.exists(path):
                with open(path) as handle:
                    self.dumps.append(json.load(handle))
                os.remove(path)
        self.bytes_out += sum(len(stdout) for _, stdout, _ in out)

    def traced_metrics(self) -> dict:
        return {"serialize.bytes_out": self.bytes_out}


WORKLOADS = {"kl-tables": KLTables, "check-all": CheckAll, "cli-session": CLISession}


# -- running a workload ------------------------------------------------


def one_round(work, ctx: Context, latencies: list, installer=None) -> tuple[float, float]:
    """Set-up, then each unit timed and checked; returns (setup_s, solve_s).

    With ``installer``, the tracing wrappers are installed around the
    set-up and around each timed unit, and removed for the checks.
    """
    def traced(fn, *args):
        installation = installer() if installer else None
        try:
            return fn(*args)
        finally:
            if installation:
                installation.remove()

    start = perf()
    state = traced(work.setup)
    setup_s = perf() - start
    solve_s = 0.0
    for unit in work.units(state):
        gc.collect()
        start = perf()
        out = traced(work.run, state, unit, latencies)
        solve_s += perf() - start
        work.check(state, unit, out)
        del out
    return setup_s, solve_s


def run_untraced(work, ctx: Context, import_s: float) -> dict:
    import tracing

    start = perf()
    work.warm_up()
    warm_up_s = perf() - start
    setups, solves, latencies = [], [], []
    while sum(solves) < ctx.seconds:
        setup_s, solve_s = one_round(work, ctx, latencies)
        setups.append(setup_s)
        solves.append(solve_s)
    if tracing.wrapped_sites():
        raise RuntimeError("untraced run sees tracing wrappers")
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    metrics = {
        "setup_s": import_s + warm_up_s + statistics.median(setups),
        "solve_s": statistics.median(solves),
        "latency_p50_ms": 1000 * deciles[4],
        "latency_p90_ms": 1000 * deciles[8],
    }
    return {"metrics": metrics, "batches": len(solves), "samples": len(latencies)}


def run_traced(work, ctx: Context, name: str) -> dict:
    """One untraced batch, then one traced batch; per-layer metrics."""
    import tracing

    work.warm_up()
    _, untraced_s = one_round(work, ctx, [])
    tracer = tracing.Tracer()
    ctx.tracer = tracer
    installer = (lambda: tracing.install(tracer)) if work.in_process else None
    setup_s, traced_s = one_round(work, ctx, [], installer)
    if tracing.wrapped_sites():
        raise RuntimeError("tracing wrappers left installed")
    dump = tracing.merge([tracer.dump(), *getattr(work, "dumps", [])])
    per_layer = tracing.layer_metrics(dump)
    per_layer.update({f"checks.{check_slug(n)}_s": 0.0 for n in ctx.refs["check_names"]})
    per_layer["checks.failed"] = 0
    per_layer.update(work.traced_metrics())
    per_layer.update({
        "trace.solve_s": traced_s,
        "trace.untraced_solve_s": untraced_s,
        "trace.overhead_s": traced_s - untraced_s,
        "trace.setup_s": setup_s,
    })
    os.makedirs(os.path.join(HERE, "traces"), exist_ok=True)
    trace_path = os.path.join(HERE, "traces", f"{name}-seed{ctx.seed}.json")
    with open(trace_path, "w") as handle:
        json.dump({"workload": name, "seed": ctx.seed, "per_layer": per_layer, **dump}, handle)
    return {"per_layer": per_layer, "trace_file": os.path.relpath(trace_path, ctx.root)}


def main() -> int:
    cfg = json.loads(sys.argv[1])
    sys.path[:0] = [os.path.join(cfg["root"], "src"), HERE]
    start = perf()
    import klblocks  # noqa: F401
    import klblocks.cli  # noqa: F401
    import_s = perf() - start

    import refs

    ctx = Context(cfg, refs.load(cfg["refs"]))
    work = WORKLOADS[cfg["workload"]](ctx)
    if cfg["trace"]:
        result = run_traced(work, ctx, cfg["workload"])
    else:
        result = run_untraced(work, ctx, import_s)
    if isinstance(work, CLISession):
        result["child_peak_rss_kb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result.update(attempted=ctx.ledger.attempted, failed=ctx.ledger.failed,
                  failures=ctx.ledger.notes)
    with open(cfg["result"], "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
