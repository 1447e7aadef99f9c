"""The process entry: `python -m quasiflags` and the `quasiflags` console script.

run() returns what cli.main() returns, after gc.freeze(): the collections
that the interpreter runs as it shuts down then skip every object alive at
that point, which is most of what a short command-line process ever made.
os._exit would skip that teardown too, but also the atexit handlers and the
flush of the standard streams; gc.disable() saves nothing, as the shutdown
collections run whether or not the collector is enabled. cli.main itself
leaves the collector alone, since tests and the benchmark call it in-process.
"""

import gc

from .cli import main


def run() -> int:
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    raise SystemExit(run())
