"""Tests of the benchmark itself.

Run from the repository root with: python3 bench/selftest.py

The file name keeps these tests out of the repository's pytest run, which
collects test_*.py under tests/ only.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import re
import subprocess
import sys
import unittest

import pools
import speed
import tracing
import worker
import workloads

ROOT = workloads.BENCH_DIR.parent

SMALL_ATLAS = [
    {
        "alpha": (2, 2),
        "strata": [((1, 1), ((1, 1),)), ((0, 0), ((1, 1), (1, 1))), ((2, 0), ((0, 2),))],
        "parts": [(1, 1), (0, 2)],
    },
    {"alpha": (1, 0, 1), "strata": [((0, 0, 0), ((1, 0, 1),))], "parts": [(1, 0, 1)]},
]
SMALL_ORACLE = [(3, (1, 1), 2), (3, (2, 1), 3), (4, (1, 1, 1), 2)]


def _run(queries_for, data, expect_for, mode="plain", outputs=None):
    expect = {}
    queries = queries_for(data, expect)
    expect.update(expect_for(data))
    tracer = tracing.Tracer()
    if mode == "spans":
        tracer.install_spans()
    elif mode == "counts":
        tracer.install_counts()
    try:
        latencies, _, failures = worker._run_library(queries, tracer, outputs)
        return (latencies, failures), tracer
    finally:
        tracer.uninstall()


def _atlas(mode="plain", outputs=None):
    return _run(
        worker._atlas_queries, SMALL_ATLAS,
        lambda data: {g["alpha"]: workloads.atlas_expect(g["alpha"]) for g in data},
        mode, outputs,
    )


def _oracle(mode="plain", outputs=None):
    return _run(
        worker._oracle_queries, SMALL_ORACLE,
        lambda data: {case: workloads.oracle_total(case) for case in data},
        mode, outputs,
    )


class SeedTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for workload in workloads.WORKLOADS:
            self.assertEqual(workloads.inputs(workload, 11), workloads.inputs(workload, 11))
            self.assertNotEqual(workloads.inputs(workload, 11), workloads.inputs(workload, 12))

    def test_class_sizes_fixed(self):
        for workload in workloads.WORKLOADS:
            counts = {workloads.queries_per_pass(workload, seed) for seed in range(5)}
            self.assertEqual(len(counts), 1, workload)

    def test_cli_pass_covers_every_subcommand_and_format(self):
        for seed in range(5):
            argvs = [argv for cls, argv in workloads.cli_inputs(seed) if cls == "tiny"]
            pairs = {(argv[0], argv[-1]) for argv in argvs}
            self.assertEqual(len(pairs), 3 * len(workloads.CLI_TINY))

    def test_pools_match_their_derivation(self):
        self.assertEqual(workloads.derive_pools(), (pools.ATLAS, pools.ORACLE))

    def test_every_cli_argv_has_a_digest(self):
        expected = workloads.load_digests()
        for argv in workloads.cli_pool():
            self.assertIn(workloads.cli_argv_key(argv), expected)


class CheckTest(unittest.TestCase):
    def test_library_passes_its_checks(self):
        (latencies, failures), _ = _atlas()
        self.assertEqual(failures, [])
        self.assertEqual(len(latencies), sum(2 + len(g["strata"]) + len(g["parts"]) for g in SMALL_ATLAS))
        self.assertEqual(_oracle()[0][1], [])

    def _atlas_with(self, module, name, corrupt):
        original = getattr(module, name)
        setattr(module, name, lambda *args, **kwargs: corrupt(original(*args, **kwargs)))
        try:
            (_, failures), _ = _atlas()
        finally:
            setattr(module, name, original)
        return [f["query"].split("(")[0] for f in failures]

    def test_corrupted_atlas_output_is_counted_failed(self):
        strata = worker.quasiflags.strata
        failed = self._atlas_with(
            strata, "ic_stalk_table", lambda table: dataclasses.replace(table, entries=table.entries[1:])
        )
        kinds = [q[1] for q in worker._atlas_queries(SMALL_ATLAS, {})]
        self.assertEqual(failed, ["ic_stalk_table"] * kinds.count("ic_stalk_table"))

    def test_corrupted_kostant_poly_fails_every_kind_of_atlas_query(self):
        kostant = worker.quasiflags.kostant
        failed = self._atlas_with(kostant, "kostant_poly", lambda poly: type(poly)(poly.coeffs + (1,)))
        self.assertEqual(
            set(failed), {"enumerate_strata", "smallness_report", "ic_stalk_table", "kostant_poly"}
        )

    def test_raising_query_is_counted_failed(self):
        oracle = worker.quasiflags.oracle
        original = oracle.verify_against_kostant

        def broken(*args, **kwargs):
            raise ValueError("broken")

        oracle.verify_against_kostant = broken
        try:
            (_, failures), _ = _oracle()
        finally:
            oracle.verify_against_kostant = original
        self.assertEqual(len(failures), len(SMALL_ORACLE))
        self.assertFalse(any(f["timeout"] for f in failures))

    def test_corrupted_oracle_report_is_counted_failed(self):
        from quasiflags import GammaVec, verify_against_kostant

        case = SMALL_ORACLE[1]
        report = verify_against_kostant(case[0], GammaVec(case[1]), case[2])
        total = workloads.oracle_total(case)
        self.assertIsNone(workloads.check_oracle(case, report, total))
        self.assertIsNotNone(workloads.check_oracle(case, report, total + 1))

    def test_corrupted_cli_output_is_counted_failed(self):
        argv = ("kostant", "--n", "3", "--gamma", "2,2", "--format", "table")
        expected = workloads.load_digests()
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "quasiflags", *argv], cwd=ROOT, env=env, capture_output=True
        )
        self.assertIsNone(workloads.check_cli(argv, 0, proc.stdout, proc.stderr, expected))
        self.assertIsNotNone(workloads.check_cli(argv, 0, proc.stdout + b" ", proc.stderr, expected))
        self.assertIsNotNone(workloads.check_cli(argv, 1, proc.stdout, proc.stderr, expected))
        self.assertIsNotNone(workloads.check_cli(argv, 0, proc.stdout, b"Traceback", expected))


class TraceTest(unittest.TestCase):
    def test_traced_and_untraced_outputs_identical(self):
        for run in (_atlas, _oracle):
            plain, spans, counts = [], [], []
            run("plain", plain)
            _, tracer = run("spans", spans)
            run("counts", counts)
            self.assertEqual(repr(plain), repr(spans))
            self.assertEqual(repr(plain), repr(counts))
            self.assertTrue(any(stat.calls for stat in tracer.spans.values()))

    def test_uninstall_restores_the_library(self):
        import quasiflags
        from quasiflags import gfpoly, roots, strata

        before = (strata.enumerate_strata, quasiflags.enumerate_strata, gfpoly.mul, roots.GammaVec.__add__)
        tracer = tracing.Tracer()
        tracer.install_spans()
        tracer.install_counts()
        self.assertIsNot(strata.enumerate_strata, before[0])
        tracer.uninstall()
        after = (strata.enumerate_strata, quasiflags.enumerate_strata, gfpoly.mul, roots.GammaVec.__add__)
        self.assertEqual(before, after)

    def test_traced_cli_output_identical(self):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        argv = ["smallness", "--n", "3", "--alpha", "2,2", "--format", "json"]
        plain = subprocess.run(
            [sys.executable, "-m", "quasiflags", *argv], cwd=ROOT, env=env, capture_output=True
        )
        for mode in ("spans", "counts"):
            traced = subprocess.run(
                [sys.executable, str(workloads.BENCH_DIR / "cli_child.py"), mode, *argv],
                cwd=ROOT, env=env, capture_output=True,
            )
            self.assertEqual(traced.returncode, plain.returncode)
            self.assertEqual(hashlib.sha256(traced.stdout).digest(), hashlib.sha256(plain.stdout).digest())
            self.assertTrue(traced.stderr.startswith(b"@@trace "))


class SpeedTest(unittest.TestCase):
    def test_scale(self):
        self.assertAlmostEqual(speed.scale(1.0, speed.REF_S, speed.REF_S), 1.0)
        self.assertAlmostEqual(speed.scale(1.0, speed.REF_S, 3 * speed.REF_S), 0.5)

    def test_kernel_never_calls_the_library(self):
        code = "import sys; sys.modules['quasiflags'] = None; import speed; speed.kernel_s()"
        proc = subprocess.run([sys.executable, "-c", code], cwd=workloads.BENCH_DIR, capture_output=True)
        self.assertEqual(proc.returncode, 0, proc.stderr)


class IsolationTest(unittest.TestCase):
    def test_not_collected_by_the_repository_tests(self):
        testpaths = re.search(r"^testpaths\s*=\s*(.*)$", (ROOT / "pyproject.toml").read_text(), re.M)
        self.assertNotIn("bench", testpaths.group(1))
        names = [p.name for p in workloads.BENCH_DIR.iterdir()]
        self.assertFalse([n for n in names if n.startswith("test_") or n.endswith("_test.py")])


if __name__ == "__main__":
    unittest.main()
