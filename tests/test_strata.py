import sys
import threading
from collections import OrderedDict
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from quasiflags import kostant, strata
from quasiflags.kostant import IntPolynomial, fiber_poincare
from quasiflags.limits import CapExceededError, Caps
from quasiflags.partitions import GammaPartition, gamma_partitions
from quasiflags.roots import GammaVec, gamma_as_coroot
from quasiflags.strata import (
    ICStalkTable,
    SmallnessReport,
    StalkEntry,
    enumerate_strata,
    ic_stalk_table,
    moduli_dim,
    parity_check,
    smallness_report,
)


def test_moduli_dim():
    assert moduli_dim(3, GammaVec((1, 1))) == 7
    assert moduli_dim(2, GammaVec((1,))) == 3
    assert moduli_dim(2, GammaVec((3,))) == 7
    assert moduli_dim(4, GammaVec((0, 0, 0))) == 6
    with pytest.raises(ValueError, match="^alpha rank context does not match n$"):
        moduli_dim(4, GammaVec((1, 1)))


def test_atlas_rank_three():
    recs = enumerate_strata(3, GammaVec((1, 1)))
    summary = [
        (r.beta.coeffs, [p.coeffs for p in r.parts.parts], r.m, r.stratum_dim, r.codim)
        for r in recs
    ]
    assert summary == [
        ((1, 1), [], 0, 7, 0),
        ((1, 0), [(0, 1)], 1, 6, 1),
        ((0, 1), [(1, 0)], 1, 6, 1),
        ((0, 0), [(1, 1)], 1, 4, 3),
        ((0, 0), [(1, 0), (0, 1)], 2, 5, 2),
    ]
    deep = recs[3]
    assert deep.fiber_dim == 1
    assert str(deep.fiber_poincare) == "1 + t"
    assert recs[0].fiber_dim == 0


def test_atlas_rank_two():
    recs = enumerate_strata(2, GammaVec((1,)))
    assert len(recs) == 2
    assert recs[0].codim == 0
    assert recs[1].codim == 1
    assert all(r.fiber_dim == 0 for r in recs)


def test_atlas_zero():
    recs = enumerate_strata(3, GammaVec((0, 0)))
    assert len(recs) == 1
    assert recs[0].m == 0
    assert recs[0].codim == 0


def test_open_stratum_comes_first():
    for n in (2, 3):
        for alpha in helpers.vectors_with_length_at_most(n, 3):
            recs = enumerate_strata(n, alpha)
            assert recs[0].beta == alpha
            assert recs[0].m == 0


def test_dimension_accounting():
    for n in (2, 3, 4):
        for alpha in helpers.vectors_with_length_at_most(n, 4):
            dim = moduli_dim(n, alpha)
            for r in enumerate_strata(n, alpha):
                assert r.stratum_dim + r.codim == dim
                assert r.m == r.parts.m
                defect = alpha - r.beta
                assert r.parts.total == defect
                assert r.codim == 2 * defect.length - r.m
                assert r.fiber_dim <= defect.length - r.m
                all_coroots = all(
                    gamma_as_coroot(p) is not None for p in r.parts.parts
                )
                assert (r.fiber_dim == defect.length - r.m) == all_coroots


def test_atlas_covers_index_set_exactly_once():
    for n in (2, 3):
        for alpha in helpers.vectors_with_length_at_most(n, 3):
            recs = enumerate_strata(n, alpha)
            keys = {
                (r.beta.coeffs, tuple(p.coeffs for p in r.parts.parts)) for r in recs
            }
            assert len(keys) == len(recs)
            expected = sum(
                helpers.vector_partition_count(tuple(a - b for a, b in zip(alpha.coeffs, beta)))
                for beta in product(*(range(a + 1) for a in alpha.coeffs))
            )
            assert len(recs) == expected


@settings(derandomize=True, deadline=None)
@given(helpers.small_alphas())
def test_atlas_size_matches_independent_count(alpha):
    box = product(*(range(a + 1) for a in alpha.coeffs))
    expected = sum(
        helpers.vector_partition_count(tuple(a - b for a, b in zip(alpha.coeffs, beta)))
        for beta in box
    )
    assert len(enumerate_strata(alpha.n, alpha)) == expected


@settings(derandomize=True, deadline=None)
@given(helpers.small_alphas())
def test_records_agree_with_the_public_fiber_route(alpha):
    for rec in enumerate_strata(alpha.n, alpha):
        assert rec.fiber_poincare == fiber_poincare(rec.parts)
        validated = GammaPartition(alpha.n, rec.parts.parts)
        assert rec.parts == validated
        assert hash(rec.parts) == hash(validated)


@settings(derandomize=True, deadline=None)
@given(helpers.small_alphas())
def test_strata_follow_beta_then_gamma_partitions_order(alpha):
    expected = [
        (beta, parts)
        for beta in map(GammaVec, product(*(range(a, -1, -1) for a in alpha.coeffs)))
        for parts in gamma_partitions(alpha - beta)
    ]
    assert [(r.beta, r.parts) for r in enumerate_strata(alpha.n, alpha)] == expected


def test_kostant_poly_is_read_once_per_box_vector(monkeypatch):
    original = kostant.kostant_poly
    calls = []

    def counted(gamma, **kwargs):
        calls.append(gamma.coeffs)
        return original(gamma, **kwargs)

    monkeypatch.setattr(kostant, "kostant_poly", counted)
    alpha = GammaVec((2, 1))
    recs = enumerate_strata(3, alpha)
    assert sorted(calls) == [(0, 1), (1, 0), (1, 1), (2, 0), (2, 1)]
    # a second listing of alpha, whose records are kept, reads the same K once each
    calls.clear()
    assert enumerate_strata(3, alpha) == recs
    assert sorted(calls) == [(0, 1), (1, 0), (1, 1), (2, 0), (2, 1)]

    # a corrupted public kostant_poly must reach every record with parts
    def corrupted_poly(gamma, **kwargs):
        return IntPolynomial(original(gamma, **kwargs).coeffs + (1,))

    monkeypatch.setattr(kostant, "kostant_poly", corrupted_poly)
    corrupted = enumerate_strata(3, alpha)
    assert [r.fiber_poincare != c.fiber_poincare for r, c in zip(recs, corrupted)] == [
        r.m > 0 for r in recs
    ]


def _cold_listing(n, alpha):
    strata._LAST = None
    return enumerate_strata(n, alpha)


def _held():
    # the strata of the kept listing, the open stratum left out
    return 0 if strata._LAST is None else len(strata._LAST[2]) - 1


@settings(derandomize=True, deadline=None)
@given(
    st.tuples(helpers.small_alphas(), helpers.small_alphas()).filter(lambda pair: pair[0].n == pair[1].n)
)
def test_warm_listings_equal_cold_ones(pair):
    first, alpha = pair
    n = alpha.n
    cold_records = _cold_listing(n, alpha)
    strata._LAST = None
    cold_report = smallness_report(n, alpha)
    # first's listing is kept, so the first listing of alpha finds another alpha unless
    # first is alpha; the second one, smallness_report's, returns the records the first kept
    _cold_listing(n, first)
    warm_records = enumerate_strata(n, alpha)
    assert strata._LAST[0] == alpha.coeffs
    warm_report = smallness_report(n, alpha)
    assert warm_records == cold_records
    assert warm_report == cold_report
    for rec, row in zip(warm_records, warm_report.rows):
        assert row.record is rec


@pytest.mark.parametrize(
    "mutate", [lambda recs: recs.append(recs[0]), list.clear, lambda recs: recs.__delitem__(0)]
)
def test_a_returned_listing_is_the_callers_own(mutate):
    # the kept records are a tuple, and each call returns a new list of them, so a caller
    # that changes its list changes no later listing
    alpha = GammaVec((2, 1))
    cold_records = list(_cold_listing(3, alpha))
    strata._LAST = None
    cold_rows = smallness_report(3, alpha).rows
    mutate(_cold_listing(3, alpha))
    warm_records = enumerate_strata(3, alpha)
    assert warm_records == cold_records
    mutate(warm_records)
    assert enumerate_strata(3, alpha) == cold_records
    assert smallness_report(3, alpha).rows == cold_rows


def test_a_warm_listing_still_reads_kostant_poly(monkeypatch):
    # a listing is kept with the K it read, so a corrupted public kostant_poly reaches every
    # record with parts of a listing whose records are kept
    alpha = GammaVec((2, 1))
    _cold_listing(3, alpha)
    assert strata._LAST[0] == alpha.coeffs
    recs = enumerate_strata(3, alpha)
    original = kostant.kostant_poly

    def corrupted_poly(gamma, **kwargs):
        return IntPolynomial(original(gamma, **kwargs).coeffs + (1,))

    monkeypatch.setattr(kostant, "kostant_poly", corrupted_poly)
    corrupted = enumerate_strata(3, alpha)
    assert len(corrupted) == len(recs)
    assert [r.fiber_poincare != c.fiber_poincare for r, c in zip(recs, corrupted)] == [
        r.m > 0 for r in recs
    ]
    assert [r.parts for r in corrupted] == [r.parts for r in recs]
    # the corrupted listing may take the slot, but it never reaches a listing of the true K
    monkeypatch.setattr(kostant, "kostant_poly", original)
    assert enumerate_strata(3, alpha) == recs


_OVERLAPPING = [
    (4, GammaVec(coeffs))
    for coeffs in ((2, 2, 1), (1, 2, 2), (2, 1, 2), (3, 1, 1), (1, 1, 3), (2, 2, 2), (1, 3, 1))
]


@pytest.mark.parametrize("bound", [0, 1, 7, 60, 200])
def test_the_partition_cache_stays_within_its_bound(monkeypatch, bound):
    expected = [_cold_listing(n, alpha) for n, alpha in _OVERLAPPING]
    # a listing of more strata than the bound must not keep its box
    assert max(map(len, expected)) > 200
    strata._LAST = None
    monkeypatch.setattr(strata, "PARTITION_CACHE_SIZE", bound)
    # each alpha twice, the second time after its neighbours
    for (n, alpha), records in [*zip(_OVERLAPPING, expected), *zip(_OVERLAPPING, expected)]:
        assert enumerate_strata(n, alpha) == records
        assert _held() <= bound
        assert [row.record for row in smallness_report(n, alpha).rows] == records
        assert _held() <= bound
    if not bound:
        assert strata._LAST is None


@pytest.mark.parametrize("bound", [strata.PARTITION_CACHE_SIZE, 150])
def test_threads_share_the_partition_cache(monkeypatch, bound):
    expected = [_cold_listing(n, alpha) for n, alpha in _OVERLAPPING]
    strata._LAST = None
    monkeypatch.setattr(strata, "PARTITION_CACHE_SIZE", bound)
    start, results = threading.Barrier(4), {}

    def lister(k):
        start.wait(timeout=60)
        # each thread starts at another alpha, so they list overlapping boxes at once, and
        # lists each alpha twice in a row, so that its second listing reads the kept box
        # unless another thread's listing has replaced it
        order = [(k + i) % len(_OVERLAPPING) for i in range(len(_OVERLAPPING)) for _ in range(2)]
        results[k] = [(i, enumerate_strata(*_OVERLAPPING[i])) for i in order]

    threads = [threading.Thread(target=lister, args=(k,)) for k in range(4)]
    # switch threads often, so that their listings interleave
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(results) == [0, 1, 2, 3]
    for listings in results.values():
        assert len(listings) == 2 * len(_OVERLAPPING)
        for i, records in listings:
            assert records == expected[i]
    assert _held() <= bound


@settings(derandomize=True, deadline=None)
@given(helpers.small_alphas())
def test_smallness_aggregate_follows_its_definition(alpha):
    records = enumerate_strata(alpha.n, alpha)
    dims = sorted({r.fiber_dim for r in records if r.fiber_dim > 0})
    mins = [min(r.codim for r in records if r.fiber_dim >= f) for f in dims]
    expected = tuple((f, c, c > 2 * f) for f, c in zip(dims, mins))
    assert smallness_report(alpha.n, alpha).aggregate == expected


def test_smallness_aggregate_matches_an_independent_recount():
    # n <= 6, entries <= 3, |alpha| <= 6. The least codim at fiber_dim exactly f
    # rises strictly with f: cutting one unit off the end of a coroot of length
    # >= 2 in a part's fewest-coroot cover lowers codim by 2 and fiber_dim by 0
    # or 1. So the minimum over fiber_dim >= f is the one at f, on every alpha.
    for n in range(2, 7):
        for alpha in helpers.vectors_with_length_at_most(n, 6):
            if max(alpha.coeffs) > 3:
                continue
            best = helpers.min_codim_by_fiber_dim(alpha)
            dims = sorted(best)
            assert [best[f] for f in dims] == sorted(set(best.values())), alpha
            expected = tuple((f, best[f], best[f] > 2 * f) for f in dims)
            assert smallness_report(n, alpha).aggregate == expected, alpha


def test_smallness_pass_with_margin():
    rep = smallness_report(3, GammaVec((1, 1)))
    assert rep.passed and not rep.vacuous
    assert rep.min_margin == 1
    assert rep.witness.beta.is_zero()
    assert [p.coeffs for p in rep.witness.parts.parts] == [(1, 1)]
    assert all(row.ok for row in rep.rows)
    assert all(ok for _, _, ok in rep.aggregate)


def test_smallness_vacuous_rank_two():
    rep = smallness_report(2, GammaVec((3,)))
    assert rep.passed and rep.vacuous
    assert rep.min_margin is None
    assert rep.witness is None
    assert rep.aggregate == ()
    assert all(row.margin is None and row.ok for row in rep.rows)


def test_a_report_that_contradicts_itself_is_refused():
    r = smallness_report(3, GammaVec((1, 1)))
    # a witness without its margin, and a margin without its witness
    for min_margin, witness in ((None, r.witness), (5, None)):
        with pytest.raises(ValueError, match="min_margin must be None exactly when witness is"):
            SmallnessReport(3, r.alpha, min_margin, witness, r.rows, r.aggregate)
    with pytest.raises(TypeError, match="witness must be a StratumRecord"):
        SmallnessReport(3, r.alpha, 1, r.rows[0], r.rows, r.aggregate)
    for min_margin in (True, 1.0, "1"):
        with pytest.raises(ValueError, match="min_margin must be an integer"):
            SmallnessReport(3, r.alpha, min_margin, r.witness, r.rows, r.aggregate)
    assert SmallnessReport(3, r.alpha, -1, r.witness, r.rows, r.aggregate).passed is False
    # smallness_report builds its reports unchecked; the checked constructor takes them
    for report in (r, smallness_report(2, GammaVec((3,)))):
        helpers.assert_like_checked(report)


def test_smallness_grid():
    for n in (2, 3, 4):
        for alpha in helpers.vectors_with_length_at_most(n, 4):
            assert smallness_report(n, alpha).passed, alpha


@settings(derandomize=True, deadline=None)
@given(helpers.small_alphas())
def test_smallness_margin_is_at_least_the_part_count(alpha):
    # codim - 2 fiber_dim = 2|d| - m - 2 sum_v deg K_v = sum_v (2|v| - 1 - 2 deg K_v) >= m,
    # with equality iff every part is a coroot; degrees and coroots from the helpers
    rep = smallness_report(alpha.n, alpha)
    for row in rep.rows:
        rec = row.record
        parts = rec.parts.parts
        if not parts:
            continue
        fiber_degree = len(helpers.fiber_coeffs_brute(alpha.n, parts)) - 1
        margin = rec.codim - 2 * rec.fiber_dim
        assert margin == 2 * sum(v.length for v in parts) - len(parts) - 2 * fiber_degree, rec
        assert margin >= len(parts), rec
        assert (margin == len(parts)) == all(helpers.is_coroot_coeffs(v.coeffs) for v in parts), rec
        assert row.margin == (margin if rec.fiber_dim > 0 else None) and row.ok, rec
    adjacent = any(a and b for a, b in zip(alpha.coeffs, alpha.coeffs[1:]))
    assert rep.vacuous == (not adjacent), alpha
    assert rep.passed and rep.min_margin == (1 if adjacent else None), alpha


def test_smallness_margin_definition():
    # a margin is reported exactly on the strata with positive fiber_dim
    rep = smallness_report(3, GammaVec((2, 2)))
    margins = []
    for row in rep.rows:
        if row.record.fiber_dim > 0:
            assert row.margin == row.record.codim - 2 * row.record.fiber_dim
            assert row.ok == (row.margin > 0)
            margins.append(row.margin)
        else:
            assert row.margin is None and row.ok
    assert margins
    assert rep.min_margin == min(margins)


def test_ic_table_hand_case():
    table = ic_stalk_table(
        3,
        GammaVec((1, 1)),
        GammaVec((0, 0)),
        GammaPartition.of(3, [GammaVec((1, 1))]),
    )
    assert [(e.degree, e.twist, e.multiplicity) for e in table.entries] == [
        (-7, 0, 1),
        (-5, 1, 1),
    ]
    assert parity_check(table)


def test_ic_table_open_stratum():
    alpha = GammaVec((2,))
    table = ic_stalk_table(2, alpha, alpha, GammaPartition.of(2, []))
    assert [(e.degree, e.twist, e.multiplicity) for e in table.entries] == [(-5, 0, 1)]


def test_ic_table_rank_two_full_defect():
    table = ic_stalk_table(
        2, GammaVec((2,)), GammaVec((0,)), GammaPartition.of(2, [GammaVec((2,))])
    )
    assert [(e.degree, e.twist, e.multiplicity) for e in table.entries] == [(-5, 0, 1)]


def test_ic_table_rejects_bad_stratum():
    cases = [
        # beta is checked before the parts, which here sum to zero as well
        ((3, GammaVec((1, 0)), GammaVec((0, 1)), GammaPartition.of(3, [])),
         "invalid stratum: beta = (0,1) is not <= alpha = (1,0)"),
        ((3, GammaVec((1, 1)), GammaVec((0, 0)), GammaPartition.of(3, [GammaVec((1, 0))])),
         "invalid stratum: parts sum to (1,0), expected (1,1)"),
        ((3, GammaVec((1, 1)), GammaVec((1, 0)), GammaPartition.of(3, [])),
         "invalid stratum: parts sum to (0,0), expected (0,1)"),
        ((3, GammaVec((1, 1)), GammaVec((0, 0)), GammaPartition.of(3, [GammaVec((1, 1)), GammaVec((1, 0))])),
         "invalid stratum: parts sum to (2,1), expected (1,1)"),
        ((3, GammaVec((1, 1)), GammaVec((0, 0, 0)), GammaPartition.of(3, [])),
         "rank contexts do not match n"),
        ((4, GammaVec((1, 1)), GammaVec((0, 0)), GammaPartition.of(3, [GammaVec((1, 1))])),
         "rank contexts do not match n"),
    ]
    for args, message in cases:
        with pytest.raises(ValueError) as err:
            ic_stalk_table(*args)
        assert str(err.value) == message


def test_ic_table_checks_the_caps_before_the_stratum():
    # beta is not <= alpha and the parts miss the defect, yet the caps fire first
    alpha, beta = GammaVec((2, 1)), GammaVec((0, 2))
    parts = GammaPartition.of(3, [GammaVec((5, 5))])
    with pytest.raises(CapExceededError, match="total degree 3 exceeds the length cap 2"):
        ic_stalk_table(3, alpha, beta, parts, caps=Caps(max_length=2))
    with pytest.raises(CapExceededError, match="exceeds the rank cap 2"):
        ic_stalk_table(3, alpha, beta, parts, caps=Caps(max_rank=2))


@settings(derandomize=True, deadline=None)
@given(helpers.small_alphas())
def test_stalk_entries_follow_the_brute_force_fiber_polynomial(alpha):
    n = alpha.n
    dim = 2 * alpha.length + n * (n - 1) // 2
    for rec in enumerate_strata(n, alpha):
        coeffs = helpers.fiber_coeffs_brute(n, rec.parts.parts)
        expected = [(-dim + 2 * j, j, c) for j, c in enumerate(coeffs) if c]
        table = ic_stalk_table(n, alpha, rec.beta, rec.parts)
        assert [(e.degree, e.twist, e.multiplicity) for e in table.entries] == expected
        assert (table.n, table.alpha, table.beta, table.parts) == (n, alpha, rec.beta, rec.parts)


def test_stalk_tables_never_run_the_checked_constructors(monkeypatch):
    # the stratum is checked on coefficient tuples, and entries and tables are valid by construction
    strata = [
        (n, alpha, rec)
        for n, alpha in ((4, GammaVec((2, 3, 1))), (3, GammaVec((3, 3))))
        for rec in enumerate_strata(n, alpha)
    ]

    def refuse(self, *args, **kwargs):
        raise AssertionError(f"checked {type(self).__name__} constructor ran")

    monkeypatch.setattr(GammaVec, "__post_init__", refuse)
    monkeypatch.setattr(StalkEntry, "__init__", refuse)
    monkeypatch.setattr(ICStalkTable, "__init__", refuse)
    # a fresh cache, so that K_gamma(t) is counted and not read
    monkeypatch.setattr(kostant, "_CACHE", OrderedDict())
    tables = [ic_stalk_table(n, alpha, rec.beta, rec.parts) for n, alpha, rec in strata]
    # the patch is live: the public constructors still run
    for build in (GammaVec.zero, lambda n: StalkEntry(n, 0, 1)):
        with pytest.raises(AssertionError, match="constructor ran"):
            build(3)
    monkeypatch.undo()
    assert len(tables) == len(strata) > 0
    for table, (_, _, rec) in zip(tables, strata):
        assert table.beta is rec.beta and table.parts is rec.parts and table.entries
        helpers.assert_like_checked(table)
        for entry in table.entries:
            helpers.assert_like_checked(entry)


def test_parity_detects_planted_violation():
    bad = ICStalkTable(
        n=3,
        alpha=GammaVec((1, 1)),
        beta=GammaVec((0, 0)),
        parts=GammaPartition.of(3, [GammaVec((1, 1))]),
        entries=(StalkEntry(degree=-6, twist=0, multiplicity=1),),
    )
    assert not parity_check(bad)


def test_parity_and_leading_entry_across_grid():
    for n in (2, 3):
        for alpha in helpers.vectors_with_length_at_most(n, 3):
            for rec in enumerate_strata(n, alpha):
                table = ic_stalk_table(n, alpha, rec.beta, rec.parts)
                assert parity_check(table)
                first = table.entries[0]
                assert first.twist == 0
                assert first.multiplicity == 1
                assert first.degree == -moduli_dim(n, alpha)
