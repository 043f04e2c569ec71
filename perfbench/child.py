"""One measured run of `raidrsim.cli.main` in a fresh interpreter.

Usage: child.py RESULT_JSON SPAWN_MONOTONIC TRACE [CLI ARGS...]

SPAWN_MONOTONIC is the parent's CLOCK_MONOTONIC reading just before it
started this process, so setup_s covers interpreter start, numpy and the
raidrsim import.  With no CLI arguments the child only measures set-up.
wall_s is host time of the `cli.main(argv)` call alone.  With TRACE=1 the
layer spans are installed first and written with the result.
"""

import json
import sys
import time
from pathlib import Path


def main() -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from raidrsim import cli

    ready = time.monotonic()
    result_path, spawned, trace = sys.argv[1], float(sys.argv[2]), sys.argv[3] == "1"
    cli_args = sys.argv[4:]
    result = {"setup_s": ready - spawned}
    if cli_args:
        tracer = None
        if trace:
            import layertrace

            tracer, result["missing_spans"] = layertrace.install()
        entry = cli.main  # looked up after install, which may have wrapped it
        t0 = time.perf_counter()
        rc = entry(cli_args)
        result["wall_s"] = time.perf_counter() - t0
        result["rc"] = rc
        if tracer is not None:
            result["spans"] = tracer.spans
            result["counts"] = dict(tracer.counts)
    Path(result_path).write_text(json.dumps(result))
    return result.get("rc", 0)


if __name__ == "__main__":
    sys.exit(main())
