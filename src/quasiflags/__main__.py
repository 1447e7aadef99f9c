"""The process entry: `python -m quasiflags` and the `quasiflags` console script.

run() returns what cli.main() returns. The cyclic collector is off while
cli.main() runs: a command builds its values, rows and text once, keeps
nearly all of them until it returns, and makes few reference cycles, so
the collections that its allocations would start walk the live heap and
free next to nothing. After main returns, run() calls gc.freeze() and then
turns the collector back on: the collections that the interpreter runs as
it shuts down then skip every object alive at that point, which is most of
what a short command-line process ever made. os._exit would skip that
teardown too, but also the atexit handlers and the flush of the standard
streams; gc.disable() alone saves nothing there, as the shutdown
collections run whether or not the collector is enabled.

The collector is turned off here only, not in cli.main, which tests and
the benchmark call in-process: there a caller's heap and its garbage are
the caller's, and main leaves the collector as it found it.
"""

import gc

from .cli import main


def run() -> int:
    gc.disable()
    try:
        return main()
    finally:
        gc.freeze()
        gc.enable()


if __name__ == "__main__":
    raise SystemExit(run())
