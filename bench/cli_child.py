"""Run the quasiflags command line in-process under the tracer.

Usage: python3 bench/cli_child.py MODE [ARGV...]

MODE "spans" or "counts" runs `quasiflags ARGV` as `python -m quasiflags`
would, with the tracer installed, and appends one line
"@@trace {json}" to stderr. MODE "import" only imports the package and
prints the import time in seconds.
"""

import json
import sys
import time

import tracing

TRACE_PREFIX = "@@trace "


def main() -> int:
    mode, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import quasiflags.cli

    import_s = time.perf_counter() - t0
    if mode == "import":
        print(import_s)
        return 0
    tracer = tracing.Tracer()
    if mode == "spans":
        tracer.install_spans()
    else:
        tracer.install_counts()
    t0 = time.perf_counter()
    try:
        code = quasiflags.cli.main(argv)
    finally:
        main_s = time.perf_counter() - t0
        tracer.uninstall()
        sys.stdout.flush()
    trace = tracer.as_dict()
    trace.update(import_s=import_s, main_s=main_s)
    sys.stderr.write(TRACE_PREFIX + json.dumps(trace) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
