"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import gen  # noqa: E402
import refs  # noqa: E402
import tracing  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    BENCH = json.load(_handle)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


@pytest.fixture
def scratch():
    """A temporary directory inside the checkout, removed afterwards."""
    path = tempfile.mkdtemp(prefix=".perfbench-test-", dir=ROOT)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def run_bench(*args, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    proc = subprocess.run([sys.executable, script, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    return proc, result


def smoke(workload, trace=0, *extra):
    proc, result = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                             "--trace", str(trace), "--smoke", *extra)
    assert proc.returncode == 0, proc.stderr
    return result


def test_generator_is_deterministic_for_a_seed():
    from klblocks.weyl import weyl_group_of_kind

    pool = refs.load()["cli"]["pool"]
    for seed in (gen.DEFAULT_SEED, gen.HELD_OUT_SEED):
        assert gen.cli_session(pool, gen.CLI_SLOTS, seed) == \
            gen.cli_session(pool, gen.CLI_SLOTS, seed)
        assert gen.type_order(gen.KL_TYPES, seed, "x") == gen.type_order(gen.KL_TYPES, seed, "x")
        group = weyl_group_of_kind("B3")
        other = weyl_group_of_kind("B3")
        assert gen.kl_queries(group, seed) == gen.kl_queries(other, seed)
        assert gen.oracle_columns(group, seed) == gen.oracle_columns(other, seed)
    assert gen.cli_session(pool, gen.CLI_SLOTS, 1) != gen.cli_session(pool, gen.CLI_SLOTS, 2)


def test_every_session_command_has_a_reference():
    recorded = refs.load()["cli"]
    session = gen.cli_session(recorded["pool"], gen.CLI_SLOTS, gen.HELD_OUT_SEED)
    assert len(session) >= 100
    assert all(refs.command_key(argv) in recorded["outputs"] for argv in session)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_reports_every_end_to_end_metric(workload):
    result = smoke(workload)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    want = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_traced_reports_every_per_layer_metric(workload):
    result = smoke(workload, 1)
    assert result["correct"]
    want = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def _corrupt(recorded: dict, workload: str) -> None:
    if workload == "kl-tables":
        recorded["kl_tables"]["A2"] = "0" * 24
    elif workload == "check-all":
        recorded["check_lines"]["A2"][0] += " (corrupted)"
    else:
        session = gen.cli_session(recorded["cli"]["pool"], gen.SMOKE["cli_slots"], 3)
        key = refs.command_key(session[0])
        recorded["cli"]["outputs"][key][1] = "0" * 24


@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_corrupted_reference_makes_fail_ratio_positive(workload, scratch):
    recorded = refs.load()
    _corrupt(recorded, workload)
    path = os.path.join(scratch, "refs.json")
    with open(path, "w") as handle:
        json.dump(recorded, handle)
    result = smoke(workload, 0, "--refs", path)
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0


def test_wrappers_are_removed_after_tracing():
    import klblocks.cli
    import klblocks.klcache
    import klblocks.ratpoly
    import klblocks.schubert
    import klblocks.weyl

    originals = {
        "divide_by_linear": klblocks.ratpoly.divide_by_linear,
        "mul": klblocks.weyl.WeylElem.__mul__,
        "load": klblocks.klcache.load_kl_table,
    }
    assert tracing.wrapped_sites() == []
    installation = tracing.install(tracing.Tracer())
    try:
        # Wrapped where the caller looks it up, not only where defined.
        assert klblocks.schubert.divide_by_linear.__wrapped__ is originals["divide_by_linear"]
        assert klblocks.cli.klcache.load_kl_table.__wrapped__ is originals["load"]
        assert klblocks.weyl.WeylElem.__mul__.__wrapped__ is originals["mul"]
        assert "klblocks.schubert.divide_by_linear" in tracing.wrapped_sites()
    finally:
        installation.remove()
    assert tracing.wrapped_sites() == []
    assert klblocks.schubert.divide_by_linear is originals["divide_by_linear"]
    assert klblocks.ratpoly.divide_by_linear is originals["divide_by_linear"]
    assert klblocks.weyl.WeylElem.__mul__ is originals["mul"]
    assert klblocks.klcache.load_kl_table is originals["load"]


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            sum(range(20000))
    stats = tracer.dump()["stats"]
    outer, inner = stats["outer"], stats["inner"]
    assert abs(outer[2] - (outer[1] - inner[1])) < 1e-9
    assert [r[1] for r in tracer.dump()["records"]] == ["inner", "outer"]


def test_fails_without_the_program(scratch):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), scratch)
    shutil.copytree(HERE, os.path.join(scratch, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__", "traces"))
    proc, _ = run_bench("--workload", "kl-tables", "--seed", "1", "--seconds", "1",
                        "--trace", "0", cwd=scratch,
                        script=os.path.join(scratch, "perfbench", "run.py"))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
