"""Run one weilpoly command in this interpreter with its layers traced.

    python3 cli_child.py TRACE_FILE ARGS...

The traced cli workload runs each command through this script instead of
the plain entry point.  Standard output and the exit code are the
command's own; the import time and the spans go to TRACE_FILE as JSON.
"""

import time

t0 = time.perf_counter()
import weilpoly.cli  # noqa: E402  (the import is what is being timed)

import_s = time.perf_counter() - t0

import json  # noqa: E402
import sys  # noqa: E402

from tracing import Tracer  # noqa: E402


def main() -> int:
    trace_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    tracer.op = 0
    code = weilpoly.cli.main(argv)
    sys.stdout.flush()
    with open(trace_file, "w") as fh:
        json.dump({"import_s": import_s, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
