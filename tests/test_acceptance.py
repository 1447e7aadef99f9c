"""End-to-end acceptance suite.

One test per criterion; each prints a single PASS/FAIL line (visible with
pytest -s) and then asserts, so a red test always corresponds to a FAIL
line and vice versa. Expected values come from the independent reference
implementations in helpers.py or are frozen hand values; runtime budgets
are asserted, not just wished for.
"""

import time

import helpers
from quasiflags.kostant import kostant_poly
from quasiflags.oracle import Lattice, enumerate_lattices, verify_against_kostant
from quasiflags.partitions import (
    GammaPartition,
    gamma_partitions,
    kappa_partitions,
    kappa_to_nu,
    mu_to_kappa,
    nu_to_mu,
)
from quasiflags.roots import GammaVec, gamma_as_coroot
from quasiflags.strata import (
    enumerate_strata,
    ic_stalk_table,
    moduli_dim,
    parity_check,
    smallness_report,
)


def _report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def _grid(max_n, max_len):
    for n in range(2, max_n + 1):
        for gamma in helpers.vectors_with_length_at_most(n, max_len):
            yield n, gamma


def test_criterion_1_triangle_round_trip():
    start = time.perf_counter()
    checked = 0
    bad = []
    for n, gamma in _grid(5, 6):
        for kappa in kappa_partitions(gamma):
            mu = nu_to_mu(kappa_to_nu(kappa))
            diag_ok = all(mu.entry(k, k) == gamma.coeff(k) for k in range(1, n))
            monotone_ok = all(
                mu.entry(p, q) >= mu.entry(p + 1, q)
                for q in range(1, n - 1)
                for p in range(q, n - 1)
            )
            if not (diag_ok and monotone_ok and mu_to_kappa(mu, gamma) == kappa):
                bad.append((n, gamma, kappa))
            checked += 1
    elapsed = time.perf_counter() - start
    _report(
        1,
        not bad and checked > 0,
        f"kappa -> mu -> kappa exact, diagonal pinned and columns monotone on "
        f"{checked} partitions, n <= 5, |gamma| <= 6, {elapsed:.1f}s"
        + (f"; first failure {bad[0]}" if bad else ""),
    )
    assert elapsed < 60


def test_criterion_2_kostant_two_paths_and_count():
    start = time.perf_counter()
    checked = 0
    bad = []
    for n, gamma in _grid(5, 6):
        direct = kostant_poly(gamma)
        via = helpers.kostant_poly_via_strata(gamma)
        if direct != via:
            bad.append(("paths", gamma))
        if direct.eval_at(1) != helpers.kostant_count(n, gamma):
            bad.append(("count", gamma))
        checked += 1
    elapsed = time.perf_counter() - start
    _report(
        2,
        not bad and checked > 0,
        f"both constructions agree and match the DP count on {checked} vectors, {elapsed:.1f}s"
        + (f"; first failure {bad[0]}" if bad else ""),
    )
    assert elapsed < 60


def test_criterion_3_hand_values():
    expected = {
        (3, (1, 1)): "1 + t",
        (3, (2, 2)): "1 + t + t^2",
        (4, (1, 1, 1)): "1 + 2*t + t^2",
    }
    for c in range(6):
        expected[(2, (c,))] = "1"
    bad = []
    for (n, coeffs), text in expected.items():
        got = str(kostant_poly(GammaVec(coeffs)))
        if got != text:
            bad.append((n, coeffs, got, text))
    _report(
        3,
        not bad,
        f"all {len(expected)} frozen hand values reproduced"
        + (f"; first failure {bad[0]}" if bad else ""),
    )


def test_criterion_4_oracle_grid():
    start = time.perf_counter()
    cases = [(2, (c,)) for c in (0, 1, 2, 3)] + [
        (3, (1, 1)),
        (3, (2, 1)),
        (3, (1, 2)),
        (3, (2, 2)),
        (4, (1, 1, 1)),
    ]
    failures = []
    runs = 0
    for q in (2, 3):
        for n, coeffs in cases:
            report = verify_against_kostant(n, GammaVec(coeffs), q)
            if not report.passed:
                failures.append((n, coeffs, q))
            runs += 1
    elapsed = time.perf_counter() - start
    _report(
        4,
        not failures,
        f"{runs} configurations: totals equal K_gamma(q), bucket keys are the mu "
        f"triangles, counts are q^stratum_dim, {elapsed:.1f}s"
        + (f"; failed at {failures}" if failures else ""),
    )
    assert elapsed < 600


def test_criterion_5_smallness_grid_and_witness():
    start = time.perf_counter()
    checked = 0
    failures = []
    for n in (2, 3, 4):
        for alpha in helpers.vectors_with_length_at_most(n, 5):
            if not smallness_report(n, alpha).passed:
                failures.append((n, alpha))
            checked += 1
    witness_ok = False
    rep = smallness_report(3, GammaVec((1, 1)))
    if not rep.vacuous and rep.min_margin == 1 and rep.witness is not None:
        w = rep.witness
        witness_ok = (
            w.beta.is_zero()
            and [p.coeffs for p in w.parts.parts] == [(1, 1)]
            and w.codim == 3
            and w.fiber_dim == 1
        )
    elapsed = time.perf_counter() - start
    _report(
        5,
        not failures and witness_ok,
        f"codim > 2*fiber_dim on {checked} pairs with n <= 4, |alpha| <= 5; tightest "
        f"stratum of (3, (1,1)) is beta = 0 with codim 3 > 2, {elapsed:.1f}s"
        + (f"; failed at {failures[:3]}" if failures else "")
        + ("" if witness_ok else "; witness mismatch"),
    )
    assert elapsed < 300


def test_criterion_6_stratum_accounting():
    start = time.perf_counter()
    checked = 0
    bad = []
    for n in (2, 3, 4):
        for alpha in helpers.vectors_with_length_at_most(n, 5):
            dim = moduli_dim(n, alpha)
            for rec in enumerate_strata(n, alpha):
                defect = alpha - rec.beta
                bound = defect.length - rec.m
                coroots_only = all(
                    gamma_as_coroot(p) is not None for p in rec.parts.parts
                )
                ok = (
                    rec.stratum_dim + rec.codim == dim
                    and rec.m == rec.parts.m
                    and rec.parts.total == defect
                    and rec.codim == 2 * defect.length - rec.m
                    and rec.fiber_dim <= bound
                    and (rec.fiber_dim == bound) == coroots_only
                )
                if not ok:
                    bad.append((n, alpha, rec.beta, rec.parts))
                checked += 1
    elapsed = time.perf_counter() - start
    _report(
        6,
        not bad,
        f"dimension, codimension and fiber-degree identities hold on {checked} strata "
        f"(equality iff every part is a coroot), {elapsed:.1f}s"
        + (f"; first failure {bad[0]}" if bad else ""),
    )


def test_criterion_7_ic_stalk_tables():
    start = time.perf_counter()
    tables = 0
    bad = []
    for n in (2, 3, 4):
        for alpha in helpers.vectors_with_length_at_most(n, 5):
            for rec in enumerate_strata(n, alpha):
                table = ic_stalk_table(n, alpha, rec.beta, rec.parts)
                first = table.entries[0]
                ok = (
                    parity_check(table)
                    and first.degree == -moduli_dim(n, alpha)
                    and first.twist == 0
                    and first.multiplicity == 1
                )
                if not ok:
                    bad.append((n, alpha, rec.beta, rec.parts))
                tables += 1
    hand = ic_stalk_table(
        3, GammaVec((1, 1)), GammaVec((0, 0)), GammaPartition.of(3, [GammaVec((1, 1))])
    )
    hand_ok = [(e.degree, e.twist, e.multiplicity) for e in hand.entries] == [
        (-7, 0, 1),
        (-5, 1, 1),
    ]
    elapsed = time.perf_counter() - start
    _report(
        7,
        not bad and hand_ok,
        f"parity and unit leading stalk on {tables} tables; the (3, (1,1)) deep "
        f"stratum table is exactly {{(-7,0,1), (-5,1,1)}}, {elapsed:.1f}s"
        + (f"; first failure {bad[0]}" if bad else "")
        + ("" if hand_ok else "; hand table mismatch"),
    )


def test_criterion_8_lattice_counts_and_uniqueness():
    start = time.perf_counter()
    bad = []
    for q in (2, 3):
        for c in range(4):
            got = len(enumerate_lattices(2, c, q))
            want = (q ** (c + 1) - 1) // (q - 1)
            if got != want:
                bad.append(("count", q, c, got, want))
            if len(enumerate_lattices(1, c, q)) != 1:
                bad.append(("rank1", q, c))
    pairs = 0
    for k in (1, 2, 3):
        for c in (0, 1, 2):
            canonical = enumerate_lattices(k, c, 2)
            member_sets = [helpers.lattice_memberset(lat, c) for lat in canonical]
            if len(set(member_sets)) != len(canonical):
                bad.append(("collision", k, c))
            if set(member_sets) != helpers.zstable_submodule_membersets(k, c, 2):
                bad.append(("coverage", k, c))
            if any(
                Lattice.from_generators(k, 2, lat.cols) != lat for lat in canonical
            ):
                bad.append(("canonical", k, c))
            pairs += 1
    elapsed = time.perf_counter() - start
    _report(
        8,
        not bad,
        f"rank-2 counts are (q^(c+1)-1)/(q-1) for c <= 3, q in {{2,3}}; canonical "
        f"enumeration matches the independent subspace enumeration on {pairs} "
        f"(rank, colength) pairs over F_2, {elapsed:.1f}s"
        + (f"; first failure {bad[0]}" if bad else ""),
    )
    assert elapsed < 60
