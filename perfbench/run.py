"""The klblocks benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload kl-tables --seed 1 --seconds 12 --trace 0

Run from the root of a checkout.  The workload runs in a worker process
of its own (``worker.py``) so that its memory and caches are its own;
the cache directory and every temporary file live in a temporary
directory inside the checkout that is removed at the end.

The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``
with the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``) of BENCHMARK.json.  The line before it records the
environment and the run's shape.  Without the klblocks sources next to
the benchmark the run fails with exit code 2 and prints no result.

``--smoke`` runs the same workloads on tiny types, for the self-tests;
``--refs`` replaces the recorded references (the negative self-test
passes a corrupted copy).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("kl-tables", "cli-session", "check-all")
WORKER_TIMEOUT_S = 170


def declared_units(section: str) -> dict[str, str]:
    """Name -> unit of the metrics of one section of BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[section]}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the recorded default seed)")
    parser.add_argument("--seconds", type=int, default=12,
                        help="timed batches run until they add up to this")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny types (A2/B2), for the self-tests")
    parser.add_argument("--refs", default=os.path.join(HERE, "refs.json"),
                        help="reference file to check outputs against")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def run_worker(cfg: dict) -> tuple[int, int]:
    """Start the worker, wait for it; returns (exit status, peak RSS in KB).

    The worker leads its own process group, so that a timeout or a
    SIGTERM to this process also stops any CLI child it is running.
    """
    signal.signal(signal.SIGTERM, _terminate)
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), json.dumps(cfg)],
                            cwd=ROOT, start_new_session=True,
                            env=dict(os.environ, TMPDIR=cfg["tmp"]))
    try:
        status = proc.wait(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: worker exceeded {WORKER_TIMEOUT_S} s", file=sys.stderr)
        status = None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    return status, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "klblocks", "__init__.py")):
        print(f"perfbench: no klblocks sources under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    import gen

    seed = gen.DEFAULT_SEED if args.seed is None else args.seed
    env_info = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "workload": args.workload,
        "seed": seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }
    tmp = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        cfg = {"workload": args.workload, "seed": seed, "seconds": args.seconds,
               "trace": args.trace, "smoke": args.smoke, "refs": os.path.abspath(args.refs),
               "root": ROOT, "tmp": tmp, "result": os.path.join(tmp, "result.json")}
        status, peak_kb = run_worker(cfg)
        if status != 0 or not os.path.exists(cfg["result"]):
            print(f"perfbench: worker failed (status {status})", file=sys.stderr)
            return 1
        with open(cfg["result"]) as handle:
            result = json.load(handle)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    if args.trace:
        units = declared_units("per_layer")
        values = result["per_layer"]
    else:
        units = declared_units("end_to_end")
        values = dict(result["metrics"])
        peak_kb = result.get("child_peak_rss_kb", peak_kb)
        values["peak_rss_mb"] = peak_kb / 1024
    missing = sorted(set(units) - set(values))
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 1
    attempted, failed = result["attempted"], result["failed"]
    info = dict(env_info, attempted=attempted, failed=failed,
                fail_ratio=failed / attempted if attempted else None,
                failures=result["failures"],
                **{k: result[k] for k in ("batches", "samples", "trace_file") if k in result})
    print(json.dumps({"info": info}))
    for note in result["failures"]:
        print(f"perfbench: FAILED {note}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
