"""quasiflags benchmark: one workload, one seed, end-to-end or traced.

Usage (from the repository root):

    python3 bench/run.py --workload atlas|oracle|cli --seed N --seconds S --trace 0|1

Each pass of a workload runs in a fresh worker process (bench/worker.py)
that issues the pass's queries one at a time and checks every output. With
--trace 0 the runner repeats passes for about S seconds (at least
MIN_PASSES) and reports the end-to-end metrics, every timing at the
reference speed of bench/speed.py; with --trace 1 it runs one
untraced pass of the workload and, for every workload, one pass with spans
and one with counters, and reports the per-layer metrics. The last line of
stdout is one JSON object; the lines before it are a run record and a
readable report. README.md in this directory explains the workloads and the
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# metric names and units, in the order BENCHMARK.json lists them
SPEC = {
    kind: {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]}
    for kind in ("end_to_end", "per_layer")
}

MIN_PASSES = 3
SETUP_SAMPLES = 21
# a pass that outlives this is killed and all its queries count as failed
PASS_LIMIT_S = 120.0
PROBES = 5


def _env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    # byte-code caches are written under the checkout and reused, as an
    # installed package's are, whatever the caller's environment says
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _run_worker(workload: str, seed: int, mode: str, cpu: int | None = None) -> tuple[float, dict | None]:
    """Start a worker, on one CPU if cpu is given; returns (set-up seconds, result or None).

    The result of a "setup" worker holds only its setup_kernel_s.
    """
    cmd = [sys.executable, str(BENCH / "worker.py"), workload, str(seed), mode]
    pin = None if cpu is None else speed.pin_to(cpu)
    t0 = time.perf_counter()
    # unbuffered, so that readline leaves the lines after "ready" in the
    # pipe for communicate, which reads the pipe itself
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE, bufsize=0, preexec_fn=pin)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        if ready.strip() != b"ready":
            raise RuntimeError(f"worker for {workload} failed during set-up")
        out, _ = proc.communicate(timeout=PASS_LIMIT_S)
    except subprocess.TimeoutExpired:
        return setup_s, None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"worker for {workload} exited with {proc.returncode}")
    return setup_s, json.loads(out.splitlines()[-1])


def _tail(latencies: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it: (value, percentile)."""
    ordered = sorted(latencies)
    k = len(ordered) - 11
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def _query_latencies(passes: list[dict], key: str) -> list[float]:
    """Each query's median latency over the passes, which repeat the same queries."""
    return [statistics.median(samples) for samples in zip(*(p[key] for p in passes))]


def _setup_s(setup_s: float, result: dict) -> float:
    """A worker's set-up time at the reference speed."""
    k = result["setup_kernel_s"]
    return speed.scale(setup_s, k, k)


def _probe(cmd: list[str]) -> float:
    t0 = time.perf_counter()
    subprocess.run(cmd, cwd=ROOT, env=_env(), check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# run record


def _cpu_ticks() -> dict:
    """Aggregate CPU ticks from /proc/stat (read-only): total and steal."""
    try:
        fields = Path("/proc/stat").read_text().splitlines()[0].split()[1:]
    except OSError:
        return {}
    ticks = [int(x) for x in fields]
    return {"total": sum(ticks[:8]), "steal": ticks[7] if len(ticks) > 7 else 0}


def _machine() -> dict:
    try:
        cpuinfo = Path("/proc/cpuinfo").read_text()
        model = next(
            (line.split(":", 1)[1].strip() for line in cpuinfo.splitlines() if line.startswith("model name")),
            None,
        )
    except OSError:
        model = None
    return {"python": sys.version.split()[0], "nproc": os.cpu_count(), "cpu_model": model}


def _commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _load() -> dict:
    try:
        return {"loadavg": list(os.getloadavg()), **_cpu_ticks()}
    except OSError:
        return _cpu_ticks()


# ---------------------------------------------------------------------------
# end to end


def _end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, dict, list]:
    passes, setups, raw_setups = [], [], []
    # passes take turns on the CPUs this process may use
    cpus = speed.cpus() or [None]
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or (
        time.perf_counter() - start + passes[-1]["wall_s"] <= seconds
    ):
        setup_s, result = _run_worker(workload, seed, "plain", cpus[len(passes) % len(cpus)])
        passes.append(result or {"timed_out": True, "wall_s": PASS_LIMIT_S})
        if result is None:
            break
        raw_setups.append(setup_s)
        setups.append(_setup_s(setup_s, result))
    while len(setups) < SETUP_SAMPLES:
        setup_s, result = _run_worker(workload, seed, "setup", cpus[len(setups) % len(cpus)])
        raw_setups.append(setup_s)
        setups.append(_setup_s(setup_s, result))

    done = [p for p in passes if "timed_out" not in p]
    if not done:
        raise RuntimeError(f"the first pass ran past {PASS_LIMIT_S} s")
    per_pass = workloads.queries_per_pass(workload, seed)
    attempted = per_pass * len(passes)
    failures = [f for p in done for f in p["failures"]]
    failed = len(failures) + per_pass * (len(passes) - len(done))
    latencies = _query_latencies(done, "scaled_s")
    raw = _query_latencies(done, "latencies_s")
    tail, percentile = _tail(latencies)
    values = {
        # one pass with every query at its median latency
        "wall_s": sum(latencies),
        "query_p50_ms": statistics.median(latencies) * 1e3,
        "query_tail_ms": tail * 1e3,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["maxrss_kb"] / 1024 for p in done),
        "success_rate": 1 - failed / attempted,
    }
    detail = {
        "passes": len(passes),
        "queries_per_pass": per_pass,
        "tail_percentile": percentile,
        "setup_samples": len(setups),
        "error_rate": failed / attempted,
        "raw_wall_s": sum(raw),
        "raw_query_p50_ms": statistics.median(raw) * 1e3,
        "raw_query_tail_ms": _tail(raw)[0] * 1e3,
        "raw_setup_s": statistics.median(raw_setups),
        "kernel_ms": statistics.median(k for p in done for k in p["kernels_s"]) * 1e3,
        "pass_wall_s": [p["wall_s"] for p in passes],
        "pass_cpu_s": [p.get("cpu_s") for p in passes],
        "failures": sorted({(f["query"], f["problem"]) for f in failures}),
    }
    # a query that ran out of time produced no output to be wrong about
    correct = len(done) == len(passes) and all(f["timeout"] for f in failures)
    return values, detail, [attempted, failed, correct]


# ---------------------------------------------------------------------------
# per layer


# index of each span field in tracing.SpanStat.as_list()
SPAN_FIELDS = {"calls": 0, "s": 1, "self_s": 2, "emitted": 3, "records": 3}


def _share(num: float, den: float) -> float:
    return num / den if den else 0.0


# The workload each per-layer metric is measured on: the one whose end-to-end
# metrics it should move (README.md), so that every metric is measured in
# every traced run whichever workload the run is for. The trace.* metrics
# describe the run's own workload.
MEASURED_ON = {
    "partitions": "atlas", "kostant": "atlas", "strata": "atlas", "roots": "atlas",
    "oracle": "oracle", "gfpoly": "oracle", "cli": "cli", "limits": "cli",
}
CONTROLS = {"partitions.mu_triangles.s": "oracle"}


def _per_layer(workload: str, seed: int) -> tuple[dict, dict, list]:
    _, plain = _run_worker(workload, seed, "plain")
    traced = {w: _run_worker(w, seed, "spans")[1] for w in workloads.WORKLOADS}
    counted = {w: _run_worker(w, seed, "counts")[1] for w in workloads.WORKLOADS}
    runs = [plain, *traced.values(), *counted.values()]
    if None in runs:
        raise RuntimeError("a traced pass ran out of time")
    interpreter = [_probe([sys.executable, "-c", "pass"]) for _ in range(PROBES)]
    imports = [
        float(subprocess.run(
            [sys.executable, str(BENCH / "cli_child.py"), "import"],
            cwd=ROOT, env=_env(), check=True, capture_output=True, text=True,
        ).stdout)
        for _ in range(PROBES)
    ]

    def span(w, name):
        return traced[w]["trace"]["spans"].get(name, [0, 0.0, 0.0, 0, 0])

    own = traced[workload]
    cli = traced["cli"]["cli"]
    compute = sum(cli["compute_s"])
    # from the counted pass: the spans' wrappers would add to these latencies
    rejects = counted["cli"]["cli"]["cap_reject_s"]
    values = {
        "oracle.chain_survival": _share(
            span("oracle", "oracle.enumerate_fiber_chains")[3], span("oracle", "oracle.contains")[0]
        ),
        "cli.interpreter_ms": statistics.median(interpreter) * 1e3,
        "cli.import_ms": statistics.median(imports) * 1e3,
        "cli.compute_ms": compute * 1e3,
        "cli.render_ms": (sum(cli["main_s"]) - compute) * 1e3,
        "cli.stdout_bytes": cli["stdout_bytes"],
        "limits.cap_reject_ms": statistics.median(rejects) * 1e3,
        "trace.wall_s": own["wall_s"],
        # in the terms of the end-to-end wall_s: latencies at the reference speed
        "trace.overhead_s": sum(own["scaled_s"]) - sum(plain["scaled_s"]),
        "trace.coverage": _share(own["trace"]["top_s"], own["wall_s"]),
    }
    for name in SPEC["per_layer"]:
        if name in values:
            continue
        w = CONTROLS.get(name) or MEASURED_ON[name.split(".")[0]]
        stat, _, field = name.rpartition(".")
        if name in tracing.COUNTERS:
            values[name] = counted[w]["trace"]["counts"].get(name, 0)
        elif field == "repeat_share":
            values[name] = _share(span(w, stat)[4], span(w, stat)[0])
        else:
            values[name] = span(w, stat)[SPAN_FIELDS[field]]

    detail = {
        "untraced_wall_s": plain["wall_s"],
        "counted_wall_s": {w: r["wall_s"] for w, r in counted.items()},
        "spans": {
            w: {
                name: {"calls": v[0], "s": v[1], "self_s": v[2], "emitted": v[3]}
                for name, v in sorted(r["trace"]["spans"].items())
                if v[0]
            }
            for w, r in traced.items()
        },
        "counts": {w: r["trace"]["counts"] for w, r in counted.items()},
    }
    attempted = sum(len(r["latencies_s"]) for r in runs)
    failures = [f for r in runs for f in r["failures"]]
    return values, detail, [attempted, len(failures), all(f["timeout"] for f in failures)]


# ---------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "quasiflags" / "__init__.py").is_file():
        print(f"error: no quasiflags sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _commit(),
        **_machine(),
        "before": _load(),
    }
    try:
        if args.trace:
            values, detail, (attempted, failed, correct) = _per_layer(args.workload, args.seed)
        else:
            values, detail, (attempted, failed, correct) = _end_to_end(
                args.workload, args.seed, args.seconds
            )
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    record["after"] = _load()
    before, after = record["before"], record["after"]
    if "total" in before and "total" in after and after["total"] > before["total"]:
        record["steal_share"] = (after["steal"] - before["steal"]) / (after["total"] - before["total"])

    units = SPEC["per_layer" if args.trace else "end_to_end"]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print("run " + json.dumps(record))
    print("detail " + json.dumps(detail))
    for name, m in metrics.items():
        print(f"{name:42s} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"correct": bool(correct), "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
