"""Seeded inputs, query lists and output checks for the three workloads.

Inputs are plain tuples drawn from the size classes in pools.py, so that
the parent process, the pass workers and the self-tests all derive the same
inputs from a seed without importing the library. The seed picks which
members of each class a pass uses and in which order; the number of
queries per class is fixed, and the last member of each class is picked to
bring the class's work estimate closest to its target, so the total work of
a pass stays in a narrow band across seeds.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from itertools import product
from pathlib import Path

import pools
import reference as ref

BENCH_DIR = Path(__file__).resolve().parent
DIGESTS_FILE = BENCH_DIR / "cli_digests.json"

# ---------------------------------------------------------------------------
# size classes

# atlas: alphas per class and pass; work is the stratum count
ATLAS_PER_CLASS = 3
IC_PER_ALPHA = 8
KOSTANT_PER_ALPHA = 4

# oracle: (class, queries per pass); work is oracle_cost_us
ORACLE_CLASSES = (("rank", 12), ("colength", 10), ("small", 17))
ORACLE_CAPS = {"oracle_max_rank": 5, "oracle_max_length": 9}

# cli: per pass, one invocation of every subcommand in every format, plus
# mid-size outputs, plus usage and cap errors
CLI_USAGE_DRAWN = 2
CLI_CAP_DRAWN = 3
CLI_TIMEOUT_S = 2.0
# known defect: trial division over a 24-digit q runs before the allowed
# primes are checked; the command line's exit-code contract says 3
CLI_OVERSIZED_Q = ("fiber-count", "--n", "3", "--gamma", "1,1", "--q", "1000000000000000000000007")

WORKLOADS = ("atlas", "oracle", "cli")

CLI_FORMATS = ("table", "json", "csv")
# small inputs per subcommand; each pass runs three of them, one per format
CLI_TINY = {
    "roots": [("--n", str(n)) for n in range(2, 9)],
    "kpartitions": [
        ("--n", "3", "--gamma", g) for g in ("1,1", "2,1", "2,2", "3,2")
    ] + [("--n", "4", "--gamma", g) for g in ("1,1,1", "2,1,1", "1,2,1")],
    "kostant": [
        ("--n", "3", "--gamma", "2,2"), ("--n", "3", "--gamma", "3,2"),
        ("--n", "4", "--gamma", "1,1,1"), ("--n", "4", "--gamma", "2,2,1"),
        ("--n", "4", "--gamma", "2,2,2"), ("--n", "5", "--gamma", "1,1,1,1"),
    ],
    "gamma-partitions": [
        ("--n", "2", "--alpha", "4"), ("--n", "3", "--alpha", "2,1"),
        ("--n", "3", "--alpha", "2,2"), ("--n", "3", "--alpha", "3,1"),
        ("--n", "4", "--alpha", "1,1,1"), ("--n", "4", "--alpha", "2,1,1"),
    ],
    "strata": [
        ("--n", "2", "--alpha", "3"), ("--n", "3", "--alpha", "1,1"),
        ("--n", "3", "--alpha", "2,1"), ("--n", "3", "--alpha", "2,2"),
        ("--n", "4", "--alpha", "1,1,1"), ("--n", "4", "--alpha", "1,0,1"),
    ],
    "smallness": [
        ("--n", "3", "--alpha", "1,1"), ("--n", "3", "--alpha", "2,1"),
        ("--n", "3", "--alpha", "2,2"), ("--n", "4", "--alpha", "1,1,1"),
        ("--n", "4", "--alpha", "1,0,1"), ("--n", "5", "--alpha", "1,0,1,0"),
    ],
    "ic-stalks": [
        ("--n", "3", "--alpha", "2,2", "--beta", "1,1", "--parts", "1,1"),
        ("--n", "3", "--alpha", "2,2", "--beta", "0,0", "--parts", "1,1;1,1"),
        ("--n", "3", "--alpha", "2,1", "--beta", "2,1", "--parts", ""),
        ("--n", "3", "--alpha", "3,3", "--beta", "1,1", "--parts", "1,2;1,0"),
        ("--n", "4", "--alpha", "1,1,1", "--beta", "0,0,0", "--parts", "1,1,1"),
        ("--n", "4", "--alpha", "2,1,1", "--beta", "1,0,0", "--parts", "1,1,1"),
    ],
    "fiber-count": [
        ("--n", "3", "--gamma", "1,1", "--q", "2", "--verify"),
        ("--n", "3", "--gamma", "1,1", "--q", "3"),
        ("--n", "3", "--gamma", "2,1", "--q", "2", "--verify"),
        ("--n", "3", "--gamma", "1,2", "--q", "3", "--verify"),
        ("--n", "2", "--gamma", "2", "--q", "3", "--verify"),
        ("--n", "4", "--gamma", "1,1,1", "--q", "2"),
    ],
}

# strata and smallness outputs of 0.44-1.7 MB, all in every pass, so that
# the tail percentile, which falls among them, and peak memory (set by the
# first, the largest) do not depend on the draw
CLI_MID = [
    (cmd, "--n", n, "--alpha", a, "--format", fmt)
    for cmd, n, a, fmt in (
        ("strata", "4", "3,3,3", "json"),
        ("strata", "3", "5,5", "json"), ("strata", "3", "3,7", "json"),
        ("strata", "3", "4,7", "json"), ("strata", "4", "3,3,3", "table"),
        ("strata", "5", "2,2,2,2", "table"), ("strata", "7", "1,1,1,1,1,1", "json"),
        ("smallness", "3", "5,5", "json"), ("smallness", "3", "4,6", "json"),
        ("smallness", "3", "3,7", "json"), ("smallness", "4", "3,3,2", "json"),
        ("smallness", "4", "2,2,4", "json"), ("smallness", "5", "2,2,2,1", "json"),
        ("smallness", "5", "1,2,2,2", "json"), ("smallness", "5", "2,1,2,2", "json"),
    )
]

# exit 2
CLI_USAGE_ERRORS = [
    ("roots", "--n", "1"),
    ("roots",),
    ("kostant", "--n", "3", "--gamma", "1"),
    ("kostant", "--n", "3", "--gamma", "1,-1"),
    ("kostant", "--n", "3", "--gamma", "1,1", "--format", "xml"),
    ("strata", "--n", "3", "--alpha", "x,1"),
    ("ic-stalks", "--n", "3", "--alpha", "1,1", "--beta", "2,0", "--parts", ""),
    ("fiber-count", "--n", "3", "--gamma", "1,1", "--q", "4"),
]

# exit 3
CLI_CAP_ERRORS = [
    ("roots", "--n", "9"),
    ("kostant", "--n", "3", "--gamma", "7,6"),
    ("strata", "--n", "3", "--alpha", "2,2", "--cap-length", "3"),
    ("fiber-count", "--n", "3", "--gamma", "1,1", "--q", "5"),
    ("fiber-count", "--n", "5", "--gamma", "1,1,1,1", "--q", "2"),
    ("fiber-count", "--n", "3", "--gamma", "2,2", "--q", "2", "--cap-lattice-volume", "3"),
]


def _pick_class(rng: random.Random, pool, count: int, work) -> list:
    """count members of pool: count-1 at random, the last to hit the target.

    The target is count times the pool's mean work, so every pass draws the
    same expected amount of work from the class.
    """
    target = count * sum(work(x) for x in pool) / len(pool)
    chosen = rng.sample(pool, count - 1)
    used = sum(work(x) for x in chosen)
    rest = [x for x in pool if x not in chosen]
    chosen.append(min(rest, key=lambda x: abs(used + work(x) - target)))
    return chosen


# ---------------------------------------------------------------------------
# atlas


def _random_part(rng: random.Random, remaining: tuple[int, ...]) -> tuple[int, ...]:
    while True:
        v = tuple(rng.randint(0, r) for r in remaining)
        if any(v):
            return v


def _random_stratum(rng: random.Random, alpha: tuple[int, ...]):
    """A random stratum whose defect alpha - beta has exactly two parts.

    A fixed number of parts keeps the stalk-table queries, among which the
    median query latency falls, alike in cost from one draw to the next.
    """
    while True:
        beta = tuple(rng.randint(0, a) for a in alpha)
        defect = tuple(a - b for a, b in zip(alpha, beta))
        if sum(defect) >= 2:
            break
    while True:
        v = _random_part(rng, defect)
        w = tuple(d - x for d, x in zip(defect, v))
        if any(w):
            return beta, tuple(sorted((v, w), reverse=True))


def atlas_inputs(seed: int) -> list[dict]:
    """One group per alpha: the alpha, sampled strata and parts for K queries."""
    rng = random.Random(seed)
    alphas = []
    for pool in pools.ATLAS.values():
        alphas += _pick_class(rng, list(pool), ATLAS_PER_CLASS, pool.get)
    rng.shuffle(alphas)
    groups = []
    for alpha in alphas:
        strata = [_random_stratum(rng, alpha) for _ in range(IC_PER_ALPHA)]
        parts = []
        for _, ps in strata:
            parts += [p for p in ps if p not in parts]
        while len(parts) < KOSTANT_PER_ALPHA:
            p = _random_part(rng, alpha)
            if p not in parts:
                parts.append(p)
        groups.append({"alpha": alpha, "strata": strata, "parts": parts[:KOSTANT_PER_ALPHA]})
    return groups


# ---------------------------------------------------------------------------
# oracle


def oracle_inputs(seed: int) -> list[tuple[int, tuple[int, ...], int]]:
    rng = random.Random(seed)
    cases = []
    for name, count in ORACLE_CLASSES:
        pool = pools.ORACLE[name]
        cases += [(len(g) + 1, g, q) for g, q in _pick_class(rng, list(pool), count, pool.get)]
    rng.shuffle(cases)
    return cases


# ---------------------------------------------------------------------------
# cli


def cli_argv_key(argv) -> str:
    return " ".join(argv)


def cli_inputs(seed: int) -> list[tuple[str, tuple[str, ...]]]:
    """(class, argv) pairs for one pass, in the order they run."""
    rng = random.Random(seed)
    cases = []
    for i, (command, arg_sets) in enumerate(CLI_TINY.items()):
        for j, args in enumerate(rng.sample(arg_sets, len(CLI_FORMATS))):
            cases.append(("tiny", (command, *args, "--format", CLI_FORMATS[(i + j) % len(CLI_FORMATS)])))
    cases += [("mid", argv) for argv in CLI_MID]
    cases += [("usage", argv) for argv in rng.sample(CLI_USAGE_ERRORS, CLI_USAGE_DRAWN)]
    cases += [("cap", argv) for argv in rng.sample(CLI_CAP_ERRORS, CLI_CAP_DRAWN)]
    cases.append(("cap", CLI_OVERSIZED_Q))
    rng.shuffle(cases)
    return cases


def cli_pool() -> list[tuple[str, ...]]:
    """Every argv any seed can draw, for recording digests."""
    argvs = [
        (command, *args, "--format", fmt)
        for command, arg_sets in CLI_TINY.items()
        for args in arg_sets
        for fmt in CLI_FORMATS
    ]
    return argvs + [*CLI_MID, *CLI_USAGE_ERRORS, *CLI_CAP_ERRORS]


def load_digests() -> dict:
    expected = json.loads(DIGESTS_FILE.read_text())
    expected[cli_argv_key(CLI_OVERSIZED_Q)] = {"exit": 3, "sha256": hashlib.sha256(b"").hexdigest()}
    return expected


def inputs(workload: str, seed: int):
    return {"atlas": atlas_inputs, "oracle": oracle_inputs, "cli": cli_inputs}[workload](seed)


def queries_per_pass(workload: str, seed: int) -> int:
    data = inputs(workload, seed)
    if workload == "atlas":
        return sum(2 + len(g["strata"]) + len(g["parts"]) for g in data)
    return len(data)


# ---------------------------------------------------------------------------
# expectations and checks; all expected values come from reference.py or
# from digests recorded at a known-good commit


@dataclass
class AtlasExpect:
    alpha: tuple[int, ...]
    strata: int
    moduli_dim: int
    kostant: dict
    vacuous: bool
    _fibers: dict = field(default_factory=dict)

    def fiber(self, parts) -> tuple[int, ...]:
        """Expected fiber polynomial: the product of K over the parts."""
        if parts not in self._fibers:
            poly = (1,)
            for p in parts:
                poly = ref.poly_mul(poly, self.kostant[p])
            self._fibers[parts] = poly
        return self._fibers[parts]


def atlas_expect(alpha: tuple[int, ...]) -> AtlasExpect:
    return AtlasExpect(
        alpha=alpha,
        strata=ref.strata_count(alpha),
        moduli_dim=ref.moduli_dim(alpha),
        kostant=ref.kostant_table(alpha),
        vacuous=not ref.has_adjacent_support(alpha),
    )


def _vec_sum(vectors, rank):
    total = [0] * rank
    for v in vectors:
        for i, x in enumerate(v):
            total[i] += x
    return tuple(total)


def _check_record(rec, exp: AtlasExpect) -> str | None:
    beta = rec.beta.coeffs
    parts = tuple(p.coeffs for p in rec.parts.parts)
    defect = tuple(a - b for a, b in zip(exp.alpha, beta))
    if min(defect) < 0 or _vec_sum(parts, len(beta)) != defect:
        return f"stratum {beta} {parts} does not partition alpha - beta"
    if rec.m != len(parts):
        return f"m = {rec.m} for {len(parts)} parts"
    dim_b = exp.moduli_dim - 2 * sum(exp.alpha)
    if rec.stratum_dim != 2 * sum(beta) + dim_b + len(parts):
        return f"stratum_dim {rec.stratum_dim} wrong at {beta} {parts}"
    if rec.stratum_dim + rec.codim != exp.moduli_dim:
        return f"stratum_dim + codim != {exp.moduli_dim} at {beta} {parts}"
    poly = exp.fiber(parts)
    if rec.fiber_poincare.coeffs != poly or rec.fiber_dim != len(poly) - 1:
        return f"fiber polynomial {rec.fiber_poincare.coeffs} != {poly} at {beta} {parts}"
    return None


def _check_records(records, exp: AtlasExpect) -> str | None:
    if len(records) != exp.strata:
        return f"{len(records)} strata, expected {exp.strata}"
    keys = set()
    for rec in records:
        problem = _check_record(rec, exp)
        if problem:
            return problem
        keys.add((rec.beta.coeffs, tuple(p.coeffs for p in rec.parts.parts)))
    if len(keys) != exp.strata:
        return "duplicate strata"
    return None


def check_atlas(kind: str, query, out, exp: AtlasExpect) -> str | None:
    """query is the parts of the stratum for ic_stalk_table, the part for kostant_poly."""
    if kind == "enumerate_strata":
        return _check_records(out, exp)
    if kind == "smallness_report":
        problem = _check_records([row.record for row in out.rows], exp)
        if problem:
            return problem
        for row in out.rows:
            f = row.record.fiber_dim
            margin = row.record.codim - 2 * f if f > 0 else None
            if row.margin != margin or row.ok != (margin is None or margin > 0):
                return f"smallness row margin {row.margin} != {margin}"
        want = (True, exp.vacuous, None if exp.vacuous else 1)
        got = (out.passed, out.vacuous, out.min_margin)
        if got != want:
            return f"smallness verdict (passed, vacuous, min_margin) = {got}, expected {want}"
        if not exp.vacuous and out.witness.codim - 2 * out.witness.fiber_dim != 1:
            return "smallness witness does not have margin 1"
        return None
    if kind == "ic_stalk_table":
        parts = query
        base = -exp.moduli_dim
        want = [(base + 2 * j, j, c) for j, c in enumerate(exp.fiber(parts)) if c]
        got = [(e.degree, e.twist, e.multiplicity) for e in out.entries]
        return None if got == want else f"stalks {got} != {want}"
    if kind == "kostant_poly":
        want = exp.kostant[query]
        return None if out.coeffs == want else f"K{query} = {out.coeffs}, expected {want}"
    raise ValueError(kind)


def oracle_total(case) -> int:
    """K_gamma(q), the number of chains the oracle must find."""
    _, gamma, q = case
    return ref.poly_eval(ref.kostant_table(gamma)[gamma], q)


def check_oracle(case, report, total: int) -> str | None:
    if not report.passed:
        return f"oracle report for {case} did not pass"
    if report.total_actual != total:
        return f"oracle total {report.total_actual} for {case}, expected {total}"
    return None


def check_cli(argv, code, stdout: bytes, stderr: bytes, expected: dict) -> str | None:
    want = expected.get(cli_argv_key(argv))
    if want is None:
        return f"no recorded digest for {cli_argv_key(argv)!r}"
    if code != want["exit"]:
        return f"exit {code}, expected {want['exit']}"
    if hashlib.sha256(stdout).hexdigest() != want["sha256"]:
        return "stdout differs from the recorded digest"
    if b"Traceback" in stderr:
        return "traceback on stderr"
    return None


# ---------------------------------------------------------------------------
# pool derivation; pools.py holds the result so that set-up stays cheap.
# Regenerate it with `python3 bench/workloads.py`.


def oracle_cost_us(gamma: tuple[int, ...], q: int) -> int:
    """Work estimate for verify_against_kostant, fitted to measured times.

    Only used to keep each class's share of a pass steady across seeds.
    """
    w = ref.oracle_work(gamma, q)
    n = len(gamma) + 1
    mu_entries = 1 + (n - 1) * (n - 2) // 2
    return 4 * w["contains"] * (n - 1) + 20 * w["lattices"] + 70 * w["chains"] * mu_entries + 300


def derive_pools():
    def box(ranks, lo, hi, total):
        return [
            a for r in ranks for a in product(range(lo, hi + 1), repeat=r - 1) if sum(a) in total
        ]

    # (candidates, stratum-count band); the length classes share one narrow
    # band, so that their big queries, among which the tail latency falls,
    # cost alike whichever members a seed draws
    atlas_rules = {
        "length3": (box([3], 1, 12, range(8, 11)), (360, 470)),
        "length4": (box([4], 1, 12, range(7, 9)), (360, 470)),
        "length5": (box([5], 1, 8, range(6, 8)), (360, 470)),
        "rank": (box([6, 7], 1, 2, range(0, 13)), (500, 700)),
    }
    atlas = {}
    for name, (cands, (lo, hi)) in atlas_rules.items():
        counts = {a: ref.strata_count(a) for a in cands}
        atlas[name] = {a: c for a, c in counts.items() if lo <= c <= hi}

    oracle = {"rank": {}, "colength": {}, "small": {}}
    for g in box([3, 4, 5], 1, 9, range(0, 10)):
        for q in (2, 3):
            w = ref.oracle_work(g, q)
            n = len(g) + 1
            cost = oracle_cost_us(g, q)
            if n == 5 and 38_000 <= cost <= 46_000 and 4 * w["contains"] * (n - 1) > 20 * w["lattices"]:
                oracle["rank"][(g, q)] = cost
            elif n <= 4 and 11_000 <= cost <= 21_000 and 20 * w["lattices"] >= 4 * w["contains"] * (n - 1):
                oracle["colength"][(g, q)] = cost
            elif 1_500 <= cost <= 10_000:
                oracle["small"][(g, q)] = cost
    return atlas, oracle


def write_pools(path: Path = BENCH_DIR / "pools.py") -> None:
    atlas, oracle = derive_pools()
    lines = [
        '"""Size classes of the atlas and oracle workloads, with work estimates.',
        "",
        "Generated by `python3 bench/workloads.py` from workloads.derive_pools;",
        "atlas values are stratum counts, oracle values are oracle_cost_us.",
        '"""',
        "",
        "ATLAS = {",
    ]
    for name, pool in atlas.items():
        lines.append(f"    {name!r}: {{")
        lines += [f"        {a!r}: {c}," for a, c in pool.items()]
        lines.append("    },")
    lines += ["}", "", "ORACLE = {"]
    for name, pool in oracle.items():
        lines.append(f"    {name!r}: {{")
        lines += [f"        {k!r}: {c}," for k, c in pool.items()]
        lines.append("    },")
    lines.append("}")
    path.write_text("\n".join(lines) + "\n")


if __name__ == "__main__":
    write_pools()
