"""The CI gates: each row runs one command in a fresh process and checks one thing of it.

Run `python -m pytest -q -rP --durations=0 tests/gates.py` from the repository root, and pick
rows by name with -k. Each process runs there with PYTHONPATH=src; argv[0] `quasiflags` is the
installed console script (without an install, an executable on PATH that runs
`exec python3 -m quasiflags "$@"`); with neither, each such row fails with a message naming the
script and both fixes. Tier-1 collects only test_*.py files, so not this one.
"""

import hashlib
import json
import os
import re
import subprocess
import sys
from collections import namedtuple
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
PY = sys.executable
# the timeout of a command that had no bound of its own; no sound run comes near it
UNTIMED = 900
Gate = namedtuple("Gate", "name argv timeout kind expected", defaults=[None])


def _miss(what: str, want: object, got: object) -> str | None:
    return None if got == want else f"{what}: expected {want!r}, got {got!r}"


def check(gate: Gate, proc: subprocess.CompletedProcess) -> str | None:
    """The miss of a finished process, naming the expected and the actual value, or None.

    gate.kind is "sha256" (of stdout), "first_line", "stdout" (less trailing newlines, as $(...)
    reads it), "exit" (the exit code only), "summary" (a bench run's last line, JSON with "correct"
    true and "failed" 0) or "print" (the runner shows the lines that match the regex gate.expected).
    Every kind but "exit" requires exit 0.
    """
    if gate.kind == "exit":
        return _miss("exit code", gate.expected, proc.returncode)
    if proc.returncode != 0:
        return _miss("exit code", 0, proc.returncode)
    out = proc.stdout.decode(errors="replace")
    if gate.kind == "sha256":
        return _miss("SHA-256 of stdout", gate.expected, hashlib.sha256(proc.stdout).hexdigest())
    if gate.kind == "first_line":
        return _miss("first line", gate.expected, out.split("\n", 1)[0])
    if gate.kind == "stdout":
        return _miss("stdout", gate.expected, out.rstrip("\n"))
    if gate.kind == "summary":
        last = out.rstrip("\n").rpartition("\n")[2]
        summary = json.loads(last) if last.startswith("{") else {}
        got = (summary.get("correct") is True, summary.get("failed"))
        return _miss(f"correct is true, and failed, in {last!r}", (True, 0), got)
    if gate.kind != "print":
        raise ValueError(f"unknown check {gate.kind!r}")
    return None


def cli(args: str) -> list:
    return ["quasiflags", *args.split()]


CHAINS = """
import hashlib
from quasiflags import Caps, GammaVec, enumerate_fiber_chains
caps = Caps(oracle_max_rank=5, oracle_max_length=12)
h, chains = hashlib.sha256(), enumerate_fiber_chains(5, GammaVec((3, 3, 3, 3)), 3, caps=caps)
for chain in chains:
    h.update(repr([lat.cols for lat in chain.lattices]).encode())
print(len(chains), h.hexdigest())
"""
# the peak RSS goes to stderr, which the runner shows
LATTICES = """
import hashlib, resource, sys
from quasiflags.oracle import enumerate_lattices
h, lats = hashlib.sha256(), enumerate_lattices(4, 4, 3)
for lat in lats:
    h.update(repr(lat.cols).encode())
print(f"peak RSS {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss // 1024} MB", file=sys.stderr)
print(len(lats), h.hexdigest())
"""
# ten alphas of 371-566 strata each, from n = 3 to 6, listed with the collector off, as a command-line
# process lists: their summed time is long and steady enough to compare two trees by, where one
# sub-millisecond listing's is not
COLD = """
import contextlib, gc, io, time
from quasiflags import GammaVec, cli, kostant, strata
alphas = [GammaVec(a) for a in ((1, 9), (2, 7), (4, 4), (1, 1, 6), (1, 3, 3), (2, 1, 4), (1, 1, 2, 2),
                                (2, 1, 2, 1), (1, 1, 1, 1, 2), (2, 1, 1, 1, 1))]
best, best_cli = float("inf"), float("inf")
gc.disable()
for _ in range(100):
    total = 0.0
    for alpha in alphas:
        strata._LAST = None
        kostant._CACHE.clear()
        start = time.perf_counter()
        strata.enumerate_strata(alpha.n, alpha)
        total += time.perf_counter() - start
    best = min(best, total)
gc.enable()
for _ in range(200):
    strata._LAST = None
    kostant._CACHE.clear()
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        cli.main(["smallness", "--n", "3", "--alpha", "5,5", "--format", "json"])
        best_cli = min(best_cli, time.perf_counter() - start)
print(f"cold enumerate_strata over 10 alphas of 371-566 strata, least of 100 sums: {best * 1e3:.2f} ms")
print(f"cold smallness --n 3 --alpha 5,5 --format json, in-process: {best_cli * 1e3:.2f} ms")
"""
WARM = """
import contextlib, os, sys
from quasiflags.cli import main
pairs = [["--n", n, "--alpha", alpha] for n, alpha in zip(sys.argv[1::2], sys.argv[2::2])]
code = 0
with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
    for argv in pairs:
        code = code or main(["strata", *argv])
sys.exit(code or main(["smallness", *pairs[0]]))
"""
STALKS = """
import hashlib
from quasiflags import GammaVec
from quasiflags.strata import enumerate_strata, ic_stalk_table
h, count = hashlib.sha256(), 0
for n, coeffs in ((5, (2, 2, 2, 2)), (4, (3, 3, 3)), (3, (5, 5))):
    alpha = GammaVec(coeffs)
    for rec in enumerate_strata(n, alpha):
        table = ic_stalk_table(n, alpha, rec.beta, rec.parts)
        h.update(repr([(e.degree, e.twist, e.multiplicity) for e in table.entries]).encode())
        count += 1
print(count, h.hexdigest())
"""
# the least of 15 runs of a tiny command-line process and of a bare interpreter, taken in turn, with
# byte-code caches written and reused, as an installed package's are
COST = """
import os, subprocess, sys, time
env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
runs = {"python -m quasiflags roots --n 2": ["-m", "quasiflags", "roots", "--n", "2"], "python -c pass": ["-c", "pass"]}
best = dict.fromkeys(runs, float("inf"))
for _ in range(15):
    for name, argv in runs.items():
        start = time.perf_counter()
        subprocess.run([sys.executable, *argv], env=env, check=True, stdout=subprocess.DEVNULL)
        best[name] = min(best[name], time.perf_counter() - start)
cli, bare = (t * 1e3 for t in best.values())
print(f"{' and '.join(runs)}, least of 15: {cli:.1f} and {bare:.1f} ms, difference {cli - bare:.1f} ms")
"""
# per command and format, the least of 3 fresh `python -m quasiflags strata` or `smallness` processes on
# (5, (3,3,3,3)) against the least of 3 cold enumerate_strata calls, each in a fresh process, and the
# peak RSS of every run
PACE = """
import os, subprocess, sys, tempfile, time
listing = "import time; from quasiflags import GammaVec; from quasiflags.strata import enumerate_strata; " \\
    "t = time.perf_counter(); enumerate_strata(5, GammaVec((3, 3, 3, 3))); print(time.perf_counter() - t)"
# wait4 gives each run's own peak RSS; the output goes to a file, so that this process stays small
def run(argv, out):
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *argv], stdout=out)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    assert proc.returncode == 0, argv
    return time.perf_counter() - start, usage.ru_maxrss // 1024
with tempfile.TemporaryFile("w+") as out:
    runs = [run(["-c", listing], out) for _ in range(3)]
    out.seek(0)
    cold = min(map(float, out.read().split()))
print(f"cold enumerate_strata(5, (3,3,3,3)) in a fresh process: {cold:.3f} s, peak RSS", *(f"{r} MB" for _, r in runs))
for command in ("strata", "smallness"):
    for fmt in ("table", "json", "csv"):
        argv = ["-m", "quasiflags", command, "--n", "5", "--alpha", "3,3,3,3", "--format", fmt]
        runs = [run(argv, subprocess.DEVNULL) for _ in range(3)]
        best = min(t for t, _ in runs)
        print(f"{command} --format {fmt}: least of 3 processes {best:.3f} s, {best / cold:.2f}x the listing, "
              "peak RSS", *(f"{r} MB" for _, r in runs))
"""
ANCHOR = "--q 3 --verify --cap-oracle-rank 8 --cap-oracle-length 12"
GATES = [
    # the installed entry point on an answer, four verdicts, a usage error and a cap
    Gate("console_kostant", cli("kostant --n 3 --gamma 1,1"), UNTIMED, "stdout", "1 + t"),
    *(Gate(f"console_{name}", cli(args), UNTIMED, "first_line", line) for name, args, line in (
        ("smallness_pass", "smallness --n 3 --alpha 1,1", "PASS (min margin 1)"),
        ("smallness_vacuous", "smallness --n 2 --alpha 3", "PASS (vacuous)"),
        ("ic_stalks", "ic-stalks --n 3 --alpha 1,1 --beta 0,0 --parts 1,1", "parity ok"),
        ("fiber_count", "fiber-count --n 3 --gamma 1,1 --q 2 --verify", "PASS, total 3"),
    )),
    Gate("console_usage_error", cli("roots --n 1"), UNTIMED, "exit", 2),
    Gate("console_cap_exceeded", cli("roots --n 9"), UNTIMED, "exit", 3),
    Gate("importtime", [PY, "-S", "-X", "importtime", "-c", "import quasiflags.cli"], UNTIMED,
         "print", "imported package|quasiflags"),
    Gate("cli_process_cost", [PY, "-c", COST], UNTIMED, "print", ""),
    Gate("oracle_anchor_5_3333", cli("fiber-count --n 5 --gamma 3,3,3,3 --q 3 --verify --cap-oracle-rank 5 "
                                     "--cap-oracle-length 12"), 10, "first_line", "PASS, total 82432"),
    Gate("oracle_anchor_8_1222221", cli(f"fiber-count --n 8 --gamma 1,2,2,2,2,2,1 {ANCHOR}"), 5,
         "first_line", "PASS, total 1454050"),
    # one cell, under a volume cap above the 4.0 * 10^34 lattices of rank 7 and colength 12
    Gate("oracle_anchor_8_one_cell", cli(f"fiber-count --n 8 --gamma 0,0,0,0,0,0,12 {ANCHOR} "
                                         f"--cap-lattice-volume {10**37}"), 5, "first_line", "PASS, total 1"),
    Gate("chain_listing", [PY, "-c", CHAINS], 10, "stdout",
         "82432 b85756231e539a38114f9bd7c9102a308eb36663cdd2c23c3043c196f2e98ae7"),
    Gate("lattice_listing_443", [PY, "-c", LATTICES], 40, "stdout",
         "925771 afa647207f074d38bf99301855cdcdceee0bde3788329c518eea257d547a570b"),
    # the least of 100 summed cold listings, then of 200 cold in-process smallness runs; printed, not gated
    Gate("cold_atlas_times", [PY, "-c", COLD], UNTIMED, "print", ""),
    Gate("atlas_output_pace", [PY, "-c", PACE], UNTIMED, "print", ""),
    # the 154,436 strata of (5, (3,3,3,3)) and their smallness rows, in each form
    *(Gate(f"big_atlas_{command}_{form or 'table'}",
           cli(f"{command} --n 5 --alpha 3,3,3,3{form and ' --format ' + form}"), 30, "sha256", digest)
      for command, form, digest in (
          ("strata", "", "07867920b4a45e727e56316594cf357058b0f4f1ac4afd4fae0dd8a231322f5e"),
          ("strata", "json", "09edf445b3f9acbbb19eed90465fb3864d6576300c8149dac08529e85092e01f"),
          ("strata", "csv", "01644c6f9bc30ca1191c768f59058522ba27252b8dd677842e47124e6c6885a9"),
          ("smallness", "", "c894cdedbef5743cdc9e8a609a5bbffc8ba7afdf0ae2adfce80c3b6c0d1c18cc"),
          ("smallness", "json", "eed9b3ca32b90784c54716ba14d2fcd3149a2d3ebd1f65b723d7320e67987a03"),
          ("smallness", "csv", "38c037c2b3e9cc14341f7e0858e6706c6fe3b7029a359cc9c97c0d41d89d0e38"),
      )),
    # commands in turn in one process: they write their rows from strata._rows, which reads and keeps no
    # listing in strata._LAST, so the last smallness output is a fresh process's, whatever listed before it
    *(Gate(f"warm_atlas_{name}", [PY, "-c", WARM, *args.split()], 30, "sha256", digest)
      for name, args, digest in (
          ("not_kept", "5 3,3,3,3", "c894cdedbef5743cdc9e8a609a5bbffc8ba7afdf0ae2adfce80c3b6c0d1c18cc"),
          ("kept", "4 3,3,3", "0d2d50f90a899aebcba0c9f437d429d6ff282ef2bdb8a997887d46ca0ca89728"),
          ("displaced", "4 3,3,3 3 5,5", "0d2d50f90a899aebcba0c9f437d429d6ff282ef2bdb8a997887d46ca0ca89728"),
      )),
    Gate("ic_stalk_tables", [PY, "-c", STALKS], 30, "stdout",
         "7943 dfbc3a11ced95ae37bf112e3ae663db734648f2039a35c32924b987e0719eeef"),
    Gate("order_kpartitions", cli("kpartitions --n 8 --gamma 1,2,2,2,2,2,1 --format json"), 30, "sha256",
         "32322fc804d7122d6ab3d25f795d347916690387c39ea772a9f288cf2c39954f"),
    Gate("order_fiber_count", cli("fiber-count --n 5 --gamma 2,2,2,2 --q 3 --verify --cap-oracle-rank 5 "
                                  "--cap-oracle-length 8 --format json"), 30, "sha256",
         "872c269377805ec418b7b23ee7ee98bdcf21d65a5293b14c53992fd6383daeaf"),
    *(Gate(f"order_gamma_partitions_{form}", cli(f"gamma-partitions --n 8 --alpha 2,2,2,2,2,1,1 --format {form}"),
           30, "sha256", digest) for form, digest in (
        ("table", "08bfea97e6ffecfd415ca2939d492d9fa845ad7352c3786882bb816ce4af8ca8"),
        # the JSON writer's long-list path, on 325,269 partitions
        ("json", "75fd3211b87fcb5fd2db741d53f7eddab4d22b98735529733ce0e28ee5d41612"),
    )),
    Gate("bench_selftest", [PY, "bench/selftest.py"], UNTIMED, "exit", 0),
    # bench/tracing.py wraps functions by name, so a refactor that drops one fails traced runs only
    Gate("bench_traced_atlas", [PY, *"bench/run.py --workload atlas --seed 1 --trace 1".split()], UNTIMED,
         "summary"),
    *(Gate(f"bench_outputs_{w}", [PY, *f"bench/run.py --workload {w} --seed 1 --seconds 1 --trace 0".split()],
           UNTIMED, "summary") for w in ("atlas", "oracle", "cli")),
]


@pytest.mark.parametrize("gate", GATES, ids=[gate.name for gate in GATES])
def test_gate(gate):
    try:
        proc = subprocess.run(gate.argv, cwd=ROOT, env=ENV, capture_output=True, timeout=gate.timeout)
    except FileNotFoundError:
        # a row fails, never skips, without its console script
        raise pytest.fail.Exception(
            f"{gate.name}: no console script {gate.argv[0]!r} on PATH; run `pip install -e .`, or put on PATH "
            f"an executable {gate.argv[0]!r} that holds `exec python3 -m quasiflags \"$@\"`", pytrace=False
        ) from None
    shown = proc.stdout + b"\n" + proc.stderr if gate.kind in ("print", "summary") else proc.stderr
    pattern = gate.expected if gate.kind == "print" else ""
    print(*[line + "\n" for line in shown.decode(errors="replace").splitlines() if re.search(pattern, line)],
          sep="", end="")
    miss = check(gate, proc)
    assert miss is None, f"{gate.name}: {miss}"
