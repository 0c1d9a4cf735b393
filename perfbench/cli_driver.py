"""Traced stand-in for ``python -m klblocks.cli``.

    python3 perfbench/cli_driver.py DUMP_PATH <klblocks arguments...>

Installs the tracing wrappers, calls ``klblocks.cli.main(argv)``,
removes the wrappers and writes the span dump to DUMP_PATH.  Standard
output is exactly the CLI's.  ``PERFBENCH_SPAWN`` holds the monotonic
time at which the parent spawned this process, so that the time from
spawn to ``main`` is measured; ``PERFBENCH_REQUEST`` names the command.
"""

import json
import os
import sys
import time


def main() -> int:
    dump_path, argv = sys.argv[1], sys.argv[2:]
    import klblocks.cli
    import tracing

    tracer = tracing.Tracer(request=os.environ.get("PERFBENCH_REQUEST", ""))
    installation = tracing.install(tracer)
    spawn = os.environ.get("PERFBENCH_SPAWN")
    if spawn is not None:
        tracer.add("cli.startup_s", time.monotonic() - float(spawn))
    try:
        rc = klblocks.cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    finally:
        installation.remove()
        with open(dump_path, "w") as handle:
            json.dump(tracer.dump(), handle)
    return rc


if __name__ == "__main__":
    sys.exit(main())
