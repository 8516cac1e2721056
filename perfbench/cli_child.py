"""Run one engagerank command with the tracer installed and write its spans.

    python perfbench/cli_child.py TRACE_OUT COMMAND [ARGS...]

The parent puts ``src`` on PYTHONPATH and passes its spawn time (monotonic
ns) in PERFBENCH_SPAWN_NS, so interpreter start plus import is measured.
After the command returns, the forward stages are timed on the last
training batch the command ran, if any.
"""

import json
import os
import sys
import time


def main() -> int:
    trace_out, argv = sys.argv[1], sys.argv[2:]
    import tracer as tracing
    from engagerank import cli

    startup_ns = time.monotonic_ns() - int(os.environ["PERFBENCH_SPAWN_NS"])
    tracer = tracing.Tracer().install()
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
    tracer.stage_split()
    with open(trace_out, "w") as fh:
        json.dump(dict(tracer.dump(), startup_ns=startup_ns), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
