"""One pass of a workload, in a fresh process.

Usage: python3 bench/worker.py WORKLOAD SEED MODE

MODE is "plain", "spans", "counts" or "setup". The worker prints "ready"
once set-up is done (interpreter start, `import quasiflags`, input
generation) and times the calibration kernel of speed.py; in "setup" mode
it prints that time and stops there. Otherwise it computes the expected
values (untimed), issues the pass's queries one at a time with the kernel
timed around each, checks each output before issuing the next, and prints
one JSON line of results, with every latency also at the reference speed.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(1, str(ROOT / "src"))

import quasiflags  # noqa: E402

import cli_child  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# an in-process query slower than this counts as failed; the worker cannot
# interrupt it, so run.py also kills a pass that outlives its own limit
QUERY_LIMIT_S = 60.0


def _check_source() -> None:
    src = (ROOT / "src").resolve()
    if src not in Path(quasiflags.__file__).resolve().parents:
        sys.exit(f"quasiflags was imported from {quasiflags.__file__}, not from {src}")


def _atlas_queries(groups, expect):
    """(module, function, args, kwargs, label, check) per query.

    Checks look expected values up in expect, which is filled after set-up.
    """
    from quasiflags import GammaPartition, GammaVec

    queries = []
    for group in groups:
        alpha = group["alpha"]
        n = len(alpha) + 1
        a = GammaVec(alpha)

        def check(kind, query=None, alpha=alpha):
            return lambda out: workloads.check_atlas(kind, query, out, expect[alpha])

        for func in ("enumerate_strata", "smallness_report"):
            queries.append(("strata", func, (n, a), {}, f"{func}{alpha}", check(func)))
        small = []
        for beta, parts in group["strata"]:
            args = (n, a, GammaVec(beta), GammaPartition.of(n, [GammaVec(p) for p in parts]))
            label = f"ic_stalk_table{(alpha, beta, parts)}"
            small.append(("strata", "ic_stalk_table", args, {}, label, check("ic_stalk_table", parts)))
        for part in group["parts"]:
            label = f"kostant_poly{part}"
            small.append(("kostant", "kostant_poly", (GammaVec(part),), {}, label, check("kostant_poly", part)))
        # two rounds of stalk tables then K queries, as a user drilling into strata would
        queries += small[::2] + small[1::2]
    return queries


def _oracle_queries(cases, expect):
    from quasiflags import Caps, GammaVec

    caps = Caps(**workloads.ORACLE_CAPS)
    return [
        (
            "oracle", "verify_against_kostant", (n, GammaVec(g), q), {"caps": caps},
            f"verify_against_kostant{(n, g, q)}",
            lambda out, case=(n, g, q): workloads.check_oracle(case, out, expect[case]),
        )
        for n, g, q in cases
    ]


def _kernel(tracer, kernels) -> None:
    k = speed.kernel_s()
    tracer.record("bench.kernel", k)
    kernels.append(k)


def _run_library(queries, tracer, outputs=None):
    """Issue queries in a closed loop; returns (latencies, kernels, failures).

    kernels holds the calibration kernel's time before the first query and
    after each query. When outputs is a list, every query's output is
    appended to it.
    """
    modules = {name: getattr(quasiflags, name) for name in ("strata", "kostant", "oracle")}
    latencies, kernels, failures = [], [], []
    _kernel(tracer, kernels)
    for module, func, args, kwargs, label, check in queries:
        # looked up per call so that the tracer's wrappers are used
        fn = getattr(modules[module], func)
        t0 = time.perf_counter()
        try:
            out, problem = fn(*args, **kwargs), None
        except Exception as exc:  # a failed query, counted and reported
            out, problem = None, f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - t0
        _kernel(tracer, kernels)
        t1 = time.perf_counter()
        if problem is None:
            problem = check(out)
        if latency > QUERY_LIMIT_S:
            problem = problem or f"took {latency:.1f} s, over the {QUERY_LIMIT_S} s limit"
        tracer.record("bench.check", time.perf_counter() - t1)
        latencies.append(latency)
        if outputs is not None:
            outputs.append(out)
        if problem:
            failures.append({"query": label, "problem": problem, "timeout": False})
    return latencies, kernels, failures


def _run_cli(cases, expected, mode, tracer, extra_out):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    prefix = cli_child.TRACE_PREFIX.encode()
    latencies, kernels, failures = [], [], []
    _kernel(tracer, kernels)
    for _, argv in cases:
        if mode == "plain":
            cmd = [sys.executable, "-m", "quasiflags", *argv]
        else:
            cmd = [sys.executable, str(BENCH / "cli_child.py"), mode, *argv]
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=env, capture_output=True, timeout=workloads.CLI_TIMEOUT_S
            )
            code, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
        except subprocess.TimeoutExpired:
            code = stdout = stderr = None
        latency = time.perf_counter() - t0
        _kernel(tracer, kernels)
        child_s = 0.0
        if mode != "plain" and stderr:
            head, _, last = stderr.rstrip(b"\n").rpartition(b"\n")
            if last.startswith(prefix):
                trace = json.loads(last[len(prefix):])
                stderr = head
                tracer.merge(trace)
                child_s = trace["import_s"] + trace["main_s"]
                extra_out["main_s"].append(trace["main_s"])
                extra_out["compute_s"].append(trace["under_cli_s"])
        tracer.record("cli.process", latency, child_s)
        t1 = time.perf_counter()
        key = workloads.cli_argv_key(argv)
        if code is None:
            problem = f"still running after the {workloads.CLI_TIMEOUT_S} s limit"
        else:
            problem = workloads.check_cli(argv, code, stdout, stderr, expected)
            extra_out["stdout_bytes"] += len(stdout)
            if code == 3:
                extra_out["cap_reject_s"].append(latency)
        tracer.record("bench.check", time.perf_counter() - t1)
        latencies.append(latency)
        if problem:
            failures.append({"query": key, "problem": problem, "timeout": code is None, "index": len(latencies) - 1})
    return latencies, kernels, failures


def main() -> int:
    workload, seed, mode = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    _check_source()
    data = workloads.inputs(workload, seed)
    expect = {}
    if workload == "atlas":
        queries = _atlas_queries(data, expect)
    elif workload == "oracle":
        queries = _oracle_queries(data, expect)
    print("ready", flush=True)
    # the machine's speed right after set-up, to scale the set-up time by
    setup_kernel_s = speed.setup_kernel_s()
    if mode == "setup":
        print(json.dumps({"setup_kernel_s": setup_kernel_s}), flush=True)
        return 0

    if workload == "atlas":
        expect.update((g["alpha"], workloads.atlas_expect(g["alpha"])) for g in data)
    elif workload == "oracle":
        expect.update((case, workloads.oracle_total(case)) for case in data)
    else:
        expect.update(workloads.load_digests())

    tracer = tracing.Tracer()
    if mode == "spans" and workload != "cli":
        tracer.install_spans()
    elif mode == "counts" and workload != "cli":
        tracer.install_counts()
    extra = {"main_s": [], "compute_s": [], "stdout_bytes": 0, "cap_reject_s": []}
    cpu0 = sum(os.times()[:4])
    t0 = time.perf_counter()
    if workload in ("atlas", "oracle"):
        latencies, kernels, failures = _run_library(queries, tracer)
    else:
        latencies, kernels, failures = _run_cli(data, expect, mode, tracer, extra)
    wall_s = time.perf_counter() - t0
    # with the children's time, so that cli passes report their CPU time too
    cpu_s = sum(os.times()[:4]) - cpu0
    tracer.uninstall()
    # a query stopped at its time limit took the limit, at any speed
    timeouts = {f.get("index") for f in failures if f["timeout"]}
    scaled = [
        latency if i in timeouts else speed.scale(latency, kernels[i], kernels[i + 1])
        for i, latency in enumerate(latencies)
    ]

    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    result = {
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "latencies_s": latencies,
        "scaled_s": scaled,
        "kernels_s": kernels,
        "setup_kernel_s": setup_kernel_s,
        "failures": failures,
        "maxrss_kb": resource.getrusage(who).ru_maxrss,
        "trace": tracer.as_dict(),
        "cli": extra,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
