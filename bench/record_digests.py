"""Record exit codes and stdout digests for every argv the cli workload draws.

Usage (from the repository root): python3 bench/record_digests.py

Writes bench/cli_digests.json. The command line's output is contracted to
be byte-identical across versions, so the digests are recorded once, at a
commit whose outputs are trusted, and only re-recorded when an output change
is intended. The oversized --q case is not run here: it does not finish at
the commit the digests were recorded at, and its expected outcome (exit 3,
empty stdout) is set in workloads.load_digests.
"""

import hashlib
import json
import os
import subprocess
import sys

import workloads

WANT_EXIT = {
    **{workloads.cli_argv_key(a): 2 for a in workloads.CLI_USAGE_ERRORS},
    **{workloads.cli_argv_key(a): 3 for a in workloads.CLI_CAP_ERRORS},
}


def main() -> int:
    root = workloads.BENCH_DIR.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    digests = {}
    for argv in workloads.cli_pool():
        key = workloads.cli_argv_key(argv)
        proc = subprocess.run(
            [sys.executable, "-m", "quasiflags", *argv],
            cwd=root, env=env, capture_output=True, timeout=60,
        )
        if proc.returncode != WANT_EXIT.get(key, 0) or b"Traceback" in proc.stderr:
            print(f"unexpected outcome for {key!r}: exit {proc.returncode}", file=sys.stderr)
            return 1
        digests[key] = {
            "exit": proc.returncode,
            "sha256": hashlib.sha256(proc.stdout).hexdigest(),
            "bytes": len(proc.stdout),
        }
    workloads.DIGESTS_FILE.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} digests in {workloads.DIGESTS_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
