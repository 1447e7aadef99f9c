import math
import time
from collections import Counter, OrderedDict
from functools import lru_cache
from itertools import accumulate, product, zip_longest

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
import quasiflags.gfpoly as gf
import quasiflags.kostant as kostant
import quasiflags.oracle as oracle
from quasiflags.kostant import IntPolynomial
from quasiflags.limits import CapExceededError, Caps
from quasiflags.oracle import (
    BucketCheck,
    FiberCount,
    FlagChain,
    Lattice,
    OracleReport,
    contains,
    coordinate_intersection,
    enumerate_fiber_chains,
    enumerate_lattices,
    fiber_point_count,
    mu_invariants,
    verify_against_kostant,
)
from quasiflags.partitions import (
    GammaPartition,
    KappaPartition,
    Triangle,
    gamma_partitions,
    kappa_partitions,
    mu_triangles,
    stratum_dim,
)
from quasiflags.roots import GammaVec, Interval, pairing
from quasiflags.strata import smallness_report


def test_rank_one_lattice_is_unique():
    for q in (2, 3):
        for c in range(4):
            lats = enumerate_lattices(1, c, q)
            assert len(lats) == 1
            assert lats[0].diag == (c,)


def test_rank_two_counts():
    # number of colength-c lattices in rank 2 is 1 + q + ... + q^c
    for q in (2, 3):
        for c in range(4):
            assert len(enumerate_lattices(2, c, q)) == sum(q**i for i in range(c + 1))


def test_rank_two_colength_one_listing():
    lats = enumerate_lattices(2, 1, 2)
    assert [lat.diag for lat in lats] == [(1, 0), (1, 0), (0, 1)]
    assert len(set(lats)) == 3


def test_listing_keeps_the_lead_by_lead_order():
    # the default volume cap admits all of these; (4, 4, 3) lists 925,771 lattices
    for q in (2, 3):
        for rank in range(1, 5):
            for c in range(5):
                reference = helpers.lattice_columns_by_leads(rank, c, q)
                for i, (lat, cols) in enumerate(zip_longest(enumerate_lattices(rank, c, q), reference)):
                    assert lat is not None and lat.cols == cols, (rank, c, q, i)


def test_every_lattice_contains_scaled_ambient():
    for q in (2, 3):
        for k in (1, 2, 3):
            for c in (0, 1, 2):
                shifted = [
                    tuple(helpers.shift(e, c) for e in col) for col in Lattice.full(k, q).cols
                ]
                zc = Lattice.from_generators(k, q, shifted)
                assert zc.diag == (c,) * k
                for lat in enumerate_lattices(k, c, q):
                    assert lat.colength == c
                    assert contains(lat, zc)


def test_canonicalization_is_fixed_point():
    for q in (2, 3):
        for k in (2, 3):
            for c in (1, 2):
                for lat in enumerate_lattices(k, c, q):
                    assert Lattice.from_generators(k, q, lat.cols) == lat


def test_double_enumeration_uniqueness():
    # canonical matrices vs an independent linear-algebra enumeration
    for k in (1, 2, 3):
        for c in (0, 1, 2):
            canonical = enumerate_lattices(k, c, 2)
            member_sets = [helpers.lattice_memberset(lat, c) for lat in canonical]
            assert len(set(member_sets)) == len(canonical)
            assert set(member_sets) == helpers.zstable_submodule_membersets(k, c, 2)


def test_lattice_shape_validation():
    one = (1,)
    z = (0, 1)
    with pytest.raises(ValueError):
        Lattice(1, 3, (((2,),),))  # non-monic pivot
    with pytest.raises(ValueError):
        Lattice(2, 2, ((one, one), ((), one)))  # entry below the pivot
    with pytest.raises(ValueError):
        Lattice(2, 2, ((z, ()), (z, z)))  # above-pivot entry not reduced
    with pytest.raises(ValueError):
        Lattice(1, 2, (((1, 0),),))  # untrimmed coefficients
    with pytest.raises(ValueError):
        Lattice(1, 4, ((one,),))  # composite q
    with pytest.raises(ValueError):
        Lattice(2, 2, ((one,),))  # not square
    with pytest.raises(ValueError):
        Lattice(2, 2, ((z, ()), (one,)))  # ragged: a column of one entry
    with pytest.raises(ValueError):
        Lattice(2, 2, ((one, ()), ((), one), (one, one)))  # three columns of rank 2
    ok = Lattice(2, 2, ((z, ()), (one, z)))
    assert ok.diag == (1, 1)
    assert ok.colength == 2
    # the same span{(z,0),(1,z)} from its lower-triangular basis
    assert ok == Lattice.from_generators(2, 2, [(one, z), ((), (0, 0, 1))])


def _accepts(q, cols):
    try:
        Lattice(len(cols), q, cols)
    except ValueError:
        return False
    return True


def test_constructor_accepts_the_rule_reference_on_small_bases():
    # every rank <= 2 basis of trimmed entries of degree <= 1
    for q in (2, 3):
        polys = [gf.trim(cs) for cs in product(range(q), repeat=2)]
        for k in (1, 2):
            accepted = 0
            for entries in product(polys, repeat=k * k):
                cols = tuple(entries[j * k : (j + 1) * k] for j in range(k))
                assert _accepts(q, cols) == helpers.is_canonical_by_rules(cols), (q, cols)
                accepted += _accepts(q, cols)
            # rank 1: 1 and z; rank 2: pivots (1, 1) and (1, z), and q residues over each of (z, 1) and (z, z)
            assert accepted == (2 if k == 1 else 2 + 2 * q)


@st.composite
def perturbed_bases(draw):
    """A canonical basis of rank <= 4, with up to two entries then replaced at random."""
    q = draw(st.sampled_from((2, 3)))
    k = draw(st.integers(1, 4))
    diag = draw(st.lists(st.integers(0, 3), min_size=k, max_size=k))

    def poly(length):
        return gf.trim(draw(st.lists(st.integers(0, q - 1), max_size=length)))

    cols = [
        [poly(diag[i]) if i < j else gf.monomial(d) if i == j else gf.ZERO for i in range(k)]
        for j, d in enumerate(diag)
    ]
    for _ in range(draw(st.integers(0, 2))):
        cols[draw(st.integers(0, k - 1))][draw(st.integers(0, k - 1))] = poly(4)
    return q, tuple(map(tuple, cols))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(perturbed_bases())
def test_constructor_accepts_the_rule_reference_on_random_bases(example):
    q, cols = example
    assert _accepts(q, cols) == helpers.is_canonical_by_rules(cols)


def test_bool_ranks_and_colengths_are_refused():
    # every integer parameter that limits.require_int checks: (name, least value or None, call);
    # a bool is not an integer, and each call gets the value as its only bad argument
    c, vec, poly = Interval(1, 1), GammaVec((1, 1)), IntPolynomial((1, 1))
    tri = Triangle(3, "mu", ((1,), (0, 1)))
    table = [
        ("interval endpoint p", 1, lambda v: Interval(v, 1)),
        ("interval endpoint q", 1, lambda v: Interval(2, v)),
        ("coefficient", 0, lambda v: GammaVec((1, v))),
        ("coordinate index", 1, lambda v: vec.coeff(v)),
        ("scale factor", 0, lambda v: vec.scaled(v)),
        ("coefficient", 0, lambda v: IntPolynomial((v, 1))),
        ("exponent", 0, lambda v: poly.coefficient(v)),
        ("evaluation point", 0, lambda v: poly.eval_at(v)),
        ("fundamental weight index", 1, lambda v: pairing(v, c)),
        ("multiplicity of [1,1]", 1, lambda v: KappaPartition(2, ((c, v),))),
        ("triangle entry", None, lambda v: Triangle(3, "mu", ((1,), (0, v)))),
        ("entry row p", 1, lambda v: tri.entry(v, 1)),
        ("entry column q", 1, lambda v: tri.entry(2, v)),
        ("coordinate count", 1, lambda v: coordinate_intersection(Lattice.full(2, 2), v)),
        ("rank", 1, lambda v: Lattice(v, 2, (((1,),),))),
        ("rank", 1, lambda v: Lattice.full(v, 2)),
        ("rank", 1, lambda v: Lattice.from_generators(v, 2, [((1,),)])),
        ("rank", 1, lambda v: enumerate_lattices(v, 1, 2)),
        ("polynomial coefficient", 0, lambda v: Lattice(1, 2, (((v,),),))),
        ("polynomial coefficient", 0, lambda v: Lattice.from_generators(1, 2, [((v,),)])),
        ("colength", 0, lambda v: enumerate_lattices(1, v, 2)),
        ("allowed prime", 0, lambda v: Caps(oracle_primes=(2, v))),
    ] + [
        (field, 0, lambda v, field=field: Caps(**{field: v}))
        for field in ("max_rank", "max_length", "oracle_max_rank", "oracle_max_length", "max_lattice_volume")
    ]
    kinds = {None: "an integer", 0: "a nonnegative integer", 1: "a positive integer"}
    for name, low, call in table:
        for bad in (True, False, 2.5, "3", None) + (() if low is None else (low - 1,)):
            with pytest.raises(ValueError) as info:
                call(bad)
            assert str(info.value) == f"{name} must be {kinds[low]}, got {bad!r}"


def test_from_generators_rejects_bad_spans():
    with pytest.raises(ValueError):
        Lattice.from_generators(2, 2, [((1,), ())])  # rank deficient
    with pytest.raises(ValueError):
        Lattice.from_generators(1, 2, [((1, 1),)])  # ideal (1+z) is not z-local
    with pytest.raises(ValueError):
        Lattice.from_generators(2, 2, [((1,), (), ())])  # wrong vector length
    with pytest.raises(ValueError):
        Lattice.from_generators(2, 1, [((1,), (1,)), ((0, 1), (1, 1))])  # q = 1
    # entries are checked by the constructor's rules before canonicalizing
    for vectors, message in (
        ([((2,),)], "polynomial coefficient must lie in [0, q), got 2"),
        ([((1, 0),)], "polynomials must be trimmed, got (1, 0)"),
    ):
        with pytest.raises(ValueError) as info:
            Lattice.from_generators(1, 2, vectors)
        assert str(info.value) == message


def test_prime_check_matches_trial_division():
    def is_prime(q):
        return q > 1 and all(q % d for d in range(2, int(q**0.5) + 1))

    for q in range(-1, 3000):
        try:
            Lattice.full(1, q)
        except ValueError:
            assert not is_prime(q), q
        else:
            assert is_prime(q), q
    # strong pseudoprimes to the first 4, 9 and 12 prime bases
    for factors in ((151, 751, 28351), (149491, 747451, 34233211), (399165290221, 798330580441)):
        assert all(is_prime(f) for f in factors)
        with pytest.raises(ValueError):
            Lattice.full(1, math.prod(factors))
    for q in (2**61 - 1, 2**89 - 1):
        assert Lattice.full(1, q).q == q


def test_from_generators_redundant_set():
    # three generators of the ambient rank-2 module collapse to the identity
    gens = [((1,), ()), ((), (1,)), ((1,), (1,))]
    assert Lattice.from_generators(2, 2, gens) == Lattice.full(2, 2)


def test_contains_basics():
    lats = enumerate_lattices(2, 1, 2)
    full = Lattice.full(2, 2)
    for lat in lats:
        assert contains(full, lat)
        assert contains(lat, lat)
        assert not contains(lat, full)
    a, b, c = lats
    assert not contains(b, c) and not contains(c, b)


def test_contains_across_ranks():
    z_line = Lattice.from_generators(1, 2, [((0, 1),)])
    outers = [lat for lat in enumerate_lattices(2, 1, 2) if contains(lat, z_line)]
    assert len(outers) == 3  # z*R^1 sits inside every colength-1 lattice
    r_line = Lattice.full(1, 2)
    outers = [lat for lat in enumerate_lattices(2, 1, 2) if contains(lat, r_line)]
    # only span{(1,0),(0,z)} swallows the whole first coordinate line
    assert len(outers) == 1
    assert outers[0].diag == (0, 1)
    assert outers[0].cols[0][1] == gf.ZERO
    assert outers[0] == Lattice.from_generators(2, 2, [((1,), ()), ((), (0, 1))])


def test_contains_errors():
    with pytest.raises(ValueError):
        contains(Lattice.full(1, 2), Lattice.full(2, 2))  # inner rank too big
    with pytest.raises(ValueError):
        contains(Lattice.full(2, 2), Lattice.full(2, 3))  # different fields


def test_coordinate_intersection_hand_cases():
    # span{(1,1),(0,z)} meets the first coordinate line in z*R
    lat = Lattice(2, 2, (((0, 1), ()), ((1,), (1,))))
    assert lat == Lattice.from_generators(2, 2, [((1,), (1,)), ((), (0, 1))])
    assert coordinate_intersection(lat, 1).diag == (1,)
    # span{(1,0),(0,z)} contains the whole line
    lat0 = Lattice(2, 2, (((1,), ()), ((), (0, 1))))
    assert lat0 == Lattice.from_generators(2, 2, [((1,), ()), ((), (0, 1))])
    assert coordinate_intersection(lat0, 1).diag == (0,)
    assert coordinate_intersection(lat, 2) == lat
    with pytest.raises(ValueError):
        coordinate_intersection(lat, 0)
    with pytest.raises(ValueError):
        coordinate_intersection(lat, 3)


def test_intersection_colength_from_members():
    # the leading block and the mu prefix sum against a count of members
    cases = [(k, c, 2) for k in (1, 2, 3) for c in (0, 1, 2)] + [(2, c, 3) for c in (0, 1, 2)]
    checked = 0
    for k, c, q in cases:
        for lat in enumerate_lattices(k, c, q):
            for m in range(1, k + 1):
                want = helpers.intersection_colength(lat, m, c)
                assert coordinate_intersection(lat, m).colength == want
                assert sum(lat.diag[:m]) == want
                checked += 1
    assert checked == 190


def test_coordinate_intersection_monotone():
    # R^m / (L n R^m) embeds in R^(m+1) / L, so colengths weakly increase
    for lat in enumerate_lattices(3, 2, 2):
        vals = [coordinate_intersection(lat, m).colength for m in (1, 2, 3)]
        assert vals[2] == lat.colength
        assert vals[0] <= vals[1] <= vals[2]


# n <= 5, |gamma| <= 6 with zero entries, q in {2, 3}
GRID = [
    (n, gamma, q)
    for q in (2, 3)
    for n in range(2, 6)
    for gamma in helpers.vectors_with_length_at_most(n, 6)
]
GRID_CAPS = Caps(oracle_max_rank=5, oracle_max_length=6)


def test_chains_match_product_filter():
    # the filter lists every lattice of each layer, so past n = 4, |gamma| = 3
    # the layers stay at colength <= 2
    small = [
        (n, gamma, q)
        for q in (2, 3)
        for n in (2, 3, 4)
        for gamma in helpers.vectors_with_length_at_most(n, 3)
    ]
    wide = [case for case in GRID if max(case[1].coeffs) <= 2 and case not in small]
    for n, gamma, q in small + wide:
        chains = enumerate_fiber_chains(n, gamma, q, caps=GRID_CAPS)
        filtered = helpers.product_filtered_chains(n, gamma, q)
        assert len(chains) == len(filtered)
        assert {chain.lattices for chain in chains} == set(filtered), (n, gamma, q)


def test_counts_and_chains_match_the_lead_tested_route():
    checked = 0
    for n, gamma, q in GRID:
        try:
            count = fiber_point_count(n, gamma, q, caps=GRID_CAPS)
        except CapExceededError:
            continue
        reference = helpers.lead_tested_chains(n, gamma, q)
        # mu rows are the prefix sums of the pivot degrees
        mus = Counter(
            tuple(tuple(accumulate(gf.degree(col[j]) for j, col in enumerate(cols))) for cols in ch)
            for ch in reference
        )
        assert count.total == len(reference), (n, gamma, q)
        assert {mu.rows: c for mu, c in count.buckets.items()} == mus, (n, gamma, q)
        chains = enumerate_fiber_chains(n, gamma, q, caps=GRID_CAPS)
        assert len(chains) == len(reference)
        assert {tuple(lat.cols for lat in chain.lattices) for chain in chains} == set(reference)
        checked += 1
    # the volume cap refuses five inputs with c_4 >= 5 at q = 3
    assert checked == len(GRID) - 5


def test_cell_count_matches_the_listed_chains_at_the_heavy_anchor():
    # 82,432 chains, listed top-down through the cells by _sublattices; mu rows are pivot prefix sums
    n, gamma, q = 5, GammaVec((3, 3, 3, 3)), 3
    caps = Caps(oracle_max_rank=5, oracle_max_length=12)
    count = fiber_point_count(n, gamma, q, caps=caps)
    chains = enumerate_fiber_chains(n, gamma, q, caps=caps)
    listed = Counter(tuple(tuple(accumulate(lat.diag)) for lat in chain.lattices) for chain in chains)
    assert count.total == len(chains) == 82_432
    assert {mu.rows: c for mu, c in count.buckets.items()} == listed


def test_top_heavy_count_lists_only_diagonals_a_chain_continues_from(monkeypatch):
    # one cell: L_1 .. L_6 are R^1 .. R^6, so only R^7's diagonals over a zero lead count
    listed = []
    walk = oracle._diagonals

    def counted(total, floor, bounds):
        diags = walk(total, floor, bounds)
        listed.append(len(diags))
        return diags

    monkeypatch.setattr(oracle, "_diagonals", counted)
    report = verify_against_kostant(8, GammaVec((0, 0, 0, 0, 0, 0, 12)), 3, caps=CALCULUS_CAPS)
    assert report.passed and report.total_actual == 1
    # an unbounded walk lists all 18,564 compositions of 12 into 7 parts at the top
    assert sum(listed) < 50


def test_listed_chains_share_one_object_per_lattice():
    chains = enumerate_fiber_chains(5, GammaVec((2, 2, 2, 2)), 3, caps=Caps(oracle_max_rank=5, oracle_max_length=8))
    members = [lat for chain in chains for lat in chain.lattices]
    assert len({id(lat) for lat in members}) == len(set(members)) < len(members)


def test_unchecked_buckets_and_chains_equal_their_checked_construction():
    # listed lattices, leading blocks, bucket triangles and chains skip the constructors' checks
    for q in (2, 3):
        for k in (1, 2, 3):
            for c in range(4):
                for lat in enumerate_lattices(k, c, q):
                    helpers.assert_like_checked(lat)
                    for m in range(1, k + 1):
                        helpers.assert_like_checked(coordinate_intersection(lat, m))
        for n in (2, 3, 4):
            for gamma in helpers.vectors_with_length_at_most(n, 3):
                for mu in fiber_point_count(n, gamma, q).buckets:
                    helpers.assert_like_checked(mu)
                for bucket in verify_against_kostant(n, gamma, q).buckets:
                    helpers.assert_like_checked(bucket)
                for chain in enumerate_fiber_chains(n, gamma, q):
                    helpers.assert_like_checked(chain)
                    helpers.assert_like_checked(mu_invariants(chain))
                    for lat in chain.lattices:
                        helpers.assert_like_checked(lat)


def test_listing_chains_and_blocks_never_run_the_lattice_checks(monkeypatch):
    # every value these routes build is valid by construction and skips its class's checks
    def refuse(self):
        raise AssertionError(f"{type(self).__name__}.__post_init__ ran")

    # the inputs are built before GammaVec's checks are patched to raise
    gammas = [GammaVec((2, 3, 1)), GammaVec((1, 2, 1))]
    checked = (GammaVec, GammaPartition, IntPolynomial, KappaPartition, Triangle, Lattice, FlagChain, BucketCheck)
    for cls in (*checked, FiberCount, OracleReport):
        monkeypatch.setattr(cls, "__post_init__", refuse)
    # a fresh cache, so that K_gamma(t) is counted and not read
    monkeypatch.setattr(kostant, "_CACHE", OrderedDict())
    caps = Caps(oracle_max_length=6)
    for gamma in gammas:
        assert smallness_report(4, gamma).rows
        assert gamma_partitions(gamma) and kappa_partitions(gamma) and mu_triangles(gamma)
        for q in (2, 3):
            assert verify_against_kostant(4, gamma, q, caps=caps).passed
            chains = enumerate_fiber_chains(4, gamma, q, caps=caps)
            assert len(chains) == fiber_point_count(4, gamma, q, caps=caps).total > 0
    lats = enumerate_lattices(3, 2, 3)
    blocks = [coordinate_intersection(lat, m) for lat in lats for m in (1, 2, 3)]
    assert len(set(lats)) == len(lats) > 0 and len(blocks) == 3 * len(lats)
    # the patch is live: the public constructor still runs the checks
    with pytest.raises(AssertionError, match="__post_init__ ran"):
        Lattice(1, 2, ((gf.ONE,),))


def test_chain_counts_match_hand_values():
    assert len(enumerate_fiber_chains(2, GammaVec((2,)), 3)) == 1
    assert len(enumerate_fiber_chains(3, GammaVec((1, 1)), 2)) == 3
    assert len(enumerate_fiber_chains(3, GammaVec((1, 1)), 3)) == 4


def test_a_bucket_refuses_a_count_that_is_not_a_nonnegative_int():
    mu = verify_against_kostant(3, GammaVec((1, 1)), 2).buckets[0].mu
    assert BucketCheck(mu, 2, 0).ok is False
    for expected, actual in ((-1, 0), (0, -1), (True, 1), (1, 1.0), (None, 0)):
        with pytest.raises(ValueError, match="expected|actual"):
            BucketCheck(mu, expected, actual)


def test_reports_and_counts_refuse_fields_of_the_wrong_kind():
    gamma = GammaVec((1, 1))
    report = verify_against_kostant(3, gamma, 2)
    assert OracleReport(*(getattr(report, f) for f in OracleReport.__match_args__)) == report
    count = fiber_point_count(3, gamma, 2)
    with pytest.raises(TypeError, match="bucket must be a BucketCheck"):
        OracleReport(3, gamma, 2, 3, 3, (), (1, 2))
    with pytest.raises(ValueError, match="total_expected must be a nonnegative integer"):
        OracleReport(3, gamma, 2, -3, "x", (), ())
    for fields, error, match in (
        (("x", 5, 1.5, 0, 0, (), ()), ValueError, "rank parameter n must be an integer >= 2"),
        ((3, (1, 1), 2, 3, 3, (), ()), TypeError, "gamma must be a GammaVec"),
        ((4, gamma, 2, 3, 3, (), ()), ValueError, "gamma rank context does not match n"),
        ((3, gamma, 1.5, 3, 3, (), ()), ValueError, "q must be a prime"),
        ((3, gamma, 4, 3, 3, (), ()), ValueError, "q must be a prime"),
        ((3, gamma, 2, 3, 3, (5,), ()), TypeError, "unexpected mu must be a Triangle"),
    ):
        with pytest.raises(error, match=match):
            OracleReport(*fields)
    for buckets in ({1: "x"}, {"a": -5}):
        with pytest.raises(TypeError, match="bucket mu must be a Triangle"):
            FiberCount(buckets=buckets)
    for bad in ("x", -5, True):
        with pytest.raises(ValueError, match="bucket count must be a nonnegative integer"):
            FiberCount(buckets={next(iter(count.buckets)): bad})


def test_bucket_hand_case():
    fc = fiber_point_count(3, GammaVec((1, 1)), 2)
    flat = {tuple(mu.flat()): c for mu, c in fc.buckets.items()}
    assert flat == {(1, 0, 1): 1, (1, 1, 1): 2}
    assert fc.total == 3


def test_zero_gamma_has_one_chain():
    fc = fiber_point_count(3, GammaVec((0, 0)), 2)
    assert fc.total == 1
    ((mu, count),) = fc.buckets.items()
    assert mu.flat() == [0, 0, 0]
    assert count == 1


def test_mu_lands_in_expected_set():
    g = GammaVec((2, 1))
    expected = set(mu_triangles(g))
    for q in (2, 3):
        for chain in enumerate_fiber_chains(3, g, q):
            assert mu_invariants(chain) in expected


def test_mu_outside_the_predicted_list_is_reported(monkeypatch):
    gamma = GammaVec((2, 1))
    dropped, *kept = mu_triangles(gamma)
    monkeypatch.setattr(oracle, "mu_triangles", lambda gamma, caps: list(kept))
    # the count sorts its buckets itself, so the unpredicted mu keeps its place
    fc = fiber_point_count(3, gamma, 2)
    assert list(fc.buckets) == [dropped] + kept
    report = verify_against_kostant(3, gamma, 2)
    assert report.unexpected_mu == (dropped,) and report.missing_mu == ()
    assert not report.passed


def test_missing_mu_fails_its_bucket(monkeypatch):
    # a cell dropped from the count leaves its mu missing and its bucket at 0 chains
    gamma = GammaVec((2, 1))
    cells = oracle._cells
    (dropped, _), *kept = cells(gamma.coeffs)
    monkeypatch.setattr(oracle, "_cells", lambda coeffs: kept)
    report = verify_against_kostant(3, gamma, 2)
    (missing,) = report.missing_mu
    assert missing.rows == dropped and report.unexpected_mu == ()
    assert [b.actual for b in report.buckets if not b.ok] == [0]
    assert not report.passed


def test_verify_checks_every_cap_before_the_first_chain(monkeypatch):
    def no_lattices(*args):
        raise AssertionError("a lattice was built")

    # the count sums cells: no lattice, lead or sublattice is built for it
    for name in ("_diag_bases", "_sublattices"):
        monkeypatch.setattr(oracle, name, no_lattices)
    gamma = GammaVec((1, 1))
    assert verify_against_kostant(3, gamma, 2).passed
    assert fiber_point_count(3, gamma, 2).total == 3
    wide = Caps(oracle_max_rank=5, oracle_max_length=8)
    assert verify_against_kostant(5, GammaVec((2, 2, 2, 2)), 3, caps=wide).passed

    def no_cells(coeffs):
        raise AssertionError("a cell was counted")

    monkeypatch.setattr(oracle, "_cells", no_cells)
    with pytest.raises(AssertionError, match="a cell was counted"):
        verify_against_kostant(3, gamma, 2)
    with pytest.raises(CapExceededError, match="length cap 1"):
        verify_against_kostant(3, gamma, 2, caps=Caps(max_length=1))
    with pytest.raises(CapExceededError, match="rank cap 2"):
        verify_against_kostant(3, gamma, 2, caps=Caps(max_rank=2))
    with pytest.raises(CapExceededError, match="volume cap 2"):
        verify_against_kostant(3, gamma, 2, caps=Caps(max_lattice_volume=2))


@st.composite
def calculus_inputs(draw):
    # n <= 8, |gamma| <= 12 and q in {2, 3}: each drawn index adds 1 to one coefficient
    n = draw(st.integers(2, 8))
    hits = draw(st.lists(st.integers(0, n - 2), max_size=12))
    return n, GammaVec(tuple(hits.count(k) for k in range(n - 1))), draw(st.sampled_from((2, 3)))


CALCULUS_CAPS = Caps(oracle_max_rank=8, oracle_max_length=12, max_lattice_volume=10**40)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(calculus_inputs())
def test_cell_counts_agree_with_the_calculus_on_its_whole_domain(case):
    n, gamma, q = case
    report = verify_against_kostant(n, gamma, q, caps=CALCULUS_CAPS)
    assert report.passed, case
    assert all(b.actual == q ** stratum_dim(b.mu) for b in report.buckets)


def test_verify_small_grid():
    cases = [(2, (1,)), (2, (3,)), (3, (1, 1)), (3, (2, 1)), (4, (1, 1, 1))]
    for q in (2, 3):
        for n, g in cases:
            report = verify_against_kostant(n, GammaVec(g), q)
            assert report.passed, (n, g, q)
            assert report.total_actual == sum(b.actual for b in report.buckets)


def test_verify_q5_with_cap_override():
    caps = Caps(oracle_primes=(2, 3, 5))
    report = verify_against_kostant(2, GammaVec((3,)), 5, caps=caps)
    assert report.passed
    assert report.total_actual == 1


def test_flag_transform_invariance():
    cases = [
        (3, (1, 1), 2, ((1, 1), (0, 1))),
        (3, (2, 1), 2, ((1, 1), (0, 1))),
        (3, (1, 1), 3, ((2, 1), (0, 1))),
        (4, (1, 1, 1), 2, ((1, 0, 1), (0, 1, 1), (0, 0, 1))),
    ]
    for n, g, q, mat in cases:
        gamma = GammaVec(g)
        chains = enumerate_fiber_chains(n, gamma, q)
        moved = set()
        for chain in chains:
            lats = tuple(
                helpers.transformed(lat, [row[: lat.rank] for row in mat[: lat.rank]])
                for lat in chain.lattices
            )
            moved.add(FlagChain(n=n, q=q, gamma=gamma, lattices=lats))
        assert moved == set(chains)
        before = Counter(mu_invariants(c) for c in chains)
        after = Counter(mu_invariants(c) for c in moved)
        assert before == after


@st.composite
def flag_coordinate_changes(draw):
    # n <= 4, |gamma| <= 3, q in {2, 3}; an upper-triangular matrix with nonzero diagonal
    n = draw(st.integers(2, 4))
    coeffs = draw(
        st.lists(st.integers(0, 3), min_size=n - 1, max_size=n - 1).filter(lambda c: sum(c) <= 3)
    )
    q = draw(st.sampled_from((2, 3)))
    entry = {True: st.integers(1, q - 1), False: st.integers(0, q - 1)}
    mat = [[draw(entry[j == i]) if j >= i else 0 for j in range(n - 1)] for i in range(n - 1)]
    return n, GammaVec(tuple(coeffs)), q, mat


@settings(derandomize=True, deadline=None)
@given(flag_coordinate_changes())
def test_mu_invariants_survive_random_flag_coordinate_changes(case):
    n, gamma, q, mat = case
    chains = enumerate_fiber_chains(n, gamma, q)
    moved = [
        FlagChain(
            n=n,
            q=q,
            gamma=gamma,
            lattices=tuple(
                helpers.transformed(lat, [row[: lat.rank] for row in mat[: lat.rank]])
                for lat in chain.lattices
            ),
        )
        for chain in chains
    ]
    assert set(moved) == set(chains)
    assert Counter(map(mu_invariants, moved)) == Counter(map(mu_invariants, chains))


def test_chain_validation():
    chains = enumerate_fiber_chains(3, GammaVec((1, 1)), 2)
    ch = chains[0]
    (lat_3,) = enumerate_lattices(1, 1, 3)
    # R^1 is not inside span{(z,0),(0,1)}: the nesting check must fire
    full1 = Lattice.full(1, 2)
    lat_a = next(lat for lat in enumerate_lattices(2, 1, 2) if lat.diag == (1, 0))
    for kwargs, message in (
        ({"gamma": GammaVec((1, 2))}, "member 2 has colength 1, expected 2"),
        ({"lattices": ch.lattices[:1]}, "expected 2 lattices, got 1"),
        ({"gamma": GammaVec((1, 1, 1))}, "gamma rank context does not match n"),
        ({"lattices": ch.lattices[::-1]}, "member 1 has rank 2"),
        ({"lattices": (lat_3, ch.lattices[1])}, "chain members live over different fields"),
        ({"gamma": GammaVec((0, 1)), "lattices": (full1, lat_a)}, "chain members are not nested"),
    ):
        args = {"n": 3, "q": 2, "gamma": GammaVec((1, 1)), "lattices": ch.lattices, **kwargs}
        with pytest.raises(ValueError) as info:
            FlagChain(**args)
        assert str(info.value) == message


def test_oracle_caps():
    with pytest.raises(ValueError):
        enumerate_fiber_chains(3, GammaVec((1, 1)), 4)  # composite q
    with pytest.raises(CapExceededError):
        enumerate_fiber_chains(5, GammaVec((1, 1, 1, 1)), 2)
    with pytest.raises(CapExceededError):
        enumerate_fiber_chains(3, GammaVec((3, 2)), 2)
    with pytest.raises(CapExceededError):
        enumerate_fiber_chains(3, GammaVec((1, 1)), 5)
    with pytest.raises(CapExceededError):
        enumerate_lattices(4, 4, 3, caps=Caps(max_lattice_volume=10))
    with pytest.raises(ValueError, match="^gamma rank context does not match n$"):
        fiber_point_count(3, GammaVec((1, 1, 1)), 2)


def test_lattice_listings_refuse_past_the_rank_and_length_caps_at_once():
    # each once ran for seconds or more, or raised RecursionError or an int-to-str ValueError
    start = time.perf_counter()
    for call, message in (
        (lambda: enumerate_lattices(500, 0, 2), "rank 500 exceeds the rank cap 8 less one"),
        (lambda: Lattice.full(20000, 2), "rank 20000 exceeds the rank cap 8 less one"),
        (lambda: Lattice.full(1000, 2), "rank 1000 exceeds the rank cap 8 less one"),
        (lambda: enumerate_lattices(8, 12, 2**521 - 1), "rank 8 exceeds the rank cap 8 less one"),
        (lambda: enumerate_lattices(1, 10**7, 2), "colength 10000000 exceeds the length cap 12"),
        (lambda: enumerate_lattices(2, 20000, 2), "colength 20000 exceeds the length cap 12"),
        (lambda: Lattice.full(3, 2, caps=Caps(max_rank=3)), "rank 3 exceeds the rank cap 3 less one"),
        # the volume step stops at colength 1, where rank 4 already holds 40 lattices
        (lambda: enumerate_lattices(4, 4, 3, caps=Caps(max_lattice_volume=10)),
         "40 lattices of rank 4 and colength 1 exceed the volume cap 10"),
        (lambda: enumerate_lattices(2, 3, 2, caps=Caps(max_lattice_volume=14)),
         "15 lattices of rank 2 and colength 3 exceed the volume cap 14"),
    ):
        with pytest.raises(CapExceededError) as info:
            call()
        assert str(info.value) == message
    # within the caps, the step stops at colength 1 and names a count of about q^6
    with pytest.raises(CapExceededError, match=r"^\d+ lattices of rank 7 and colength 1 exceed"):
        enumerate_lattices(7, 12, 2**521 - 1)
    assert time.perf_counter() - start < 1.0
    # the largest rank the default caps admit, and the identity written out by hand
    assert Lattice.full(7, 2).diag == (0,) * 7
    assert Lattice.full(3, 2).cols == (((1,), (), ()), ((), (1,), ()), ((), (), (1,)))


def test_volume_error_names_a_bound_past_a_printable_count():
    # under a raised rank cap the count at colength 1 grows by a factor q per rank, past the
    # 4,300 digits that int-to-str allows: 2^(607 * 25) at rank 26 once raised ValueError
    start = time.perf_counter()
    for rank, caps, bits, cap in (
        (26, Caps(max_rank=30), 10_000, "1000000"),
        (26, Caps(max_rank=30, max_lattice_volume=2**12000), 12_001, "of 12001 bits"),
        # the counts stop growing at the bound; without that, rank 4000 took seconds
        (4000, Caps(max_rank=4001), 10_000, "1000000"),
        # a cap past 4,300 digits is named by its bits too; printing it once raised ValueError
        (30, Caps(max_rank=31, max_lattice_volume=10**5000), 16_610, "of 16610 bits"),
    ):
        with pytest.raises(CapExceededError) as info:
            enumerate_lattices(rank, 1, 2**607 - 1, caps=caps)
        assert str(info.value) == (
            f"at least 2^{bits} lattices of rank {rank} and colength 1 exceed the volume cap {cap}"
        )
    assert time.perf_counter() - start < 1.0


def test_volume_cap_is_exact():
    for q in (2, 3):
        for k in (1, 2, 3):
            for c in range(4):
                volume = len(enumerate_lattices(k, c, q))
                assert len(enumerate_lattices(k, c, q, caps=Caps(max_lattice_volume=volume))) == volume
                with pytest.raises(CapExceededError):
                    enumerate_lattices(k, c, q, caps=Caps(max_lattice_volume=volume - 1))


def test_oversized_q_is_refused_before_the_primality_test():
    q = 2**4423 - 1  # prime
    start = time.perf_counter()
    with pytest.raises(CapExceededError, match="4423 bits"):
        Lattice.full(1, q)
    with pytest.raises(CapExceededError, match="4423 bits"):
        enumerate_lattices(1, 0, q)
    assert time.perf_counter() - start < 1.0


def test_canonical_entries_fit_below_row_pivots():
    for lat in enumerate_lattices(3, 2, 2):
        diag = lat.diag
        for j, col in enumerate(lat.cols):
            for i in range(j):
                assert gf.degree(col[i]) < diag[i] <= lat.colength
            for i in range(j + 1, 3):
                assert col[i] == gf.ZERO


members = lru_cache(maxsize=None)(helpers.lattice_memberset)


@st.composite
def lattice_pairs(draw):
    # same-rank pairs and rank k - 1 inside rank k, rank <= 3, colength <= 2
    q = draw(st.sampled_from((2, 3)))
    k = draw(st.integers(1, 3))
    inner_rank = draw(st.sampled_from((k, k - 1))) if k > 1 else k
    outer = draw(st.sampled_from(enumerate_lattices(k, draw(st.integers(0, 2)), q)))
    inner = draw(st.sampled_from(enumerate_lattices(inner_rank, draw(st.integers(0, 2)), q)))
    return outer, inner, draw(st.integers(max(outer.colength, inner.colength), 2))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(lattice_pairs())
def test_contains_agrees_with_membership_modulo_z_power(pair):
    # both lattices contain z^c R^k, so inclusion can be read off their members modulo z^c
    outer, inner, c = pair
    pad = ((0,) * c,) * (outer.rank - inner.rank)
    embedded = {vec + pad for vec in members(inner, c)}
    assert contains(outer, inner) == (embedded <= members(outer, c))


@st.composite
def lattices_with_column_operations(draw):
    q = draw(st.sampled_from((2, 3)))
    k = draw(st.integers(1, 3))
    lat = draw(st.sampled_from(enumerate_lattices(k, draw(st.integers(0, 2)), q)))
    cols = [list(col) for col in lat.cols]
    for _ in range(draw(st.integers(0, 6))):
        i, j = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
        if i == j:
            # scale a column by a nonzero constant
            s = draw(st.integers(1, q - 1))
            cols[i] = [gf.scale(e, s, q) for e in cols[i]]
        else:
            # add f * col_j to col_i with deg f <= 2
            f = gf.trim(draw(st.lists(st.integers(0, q - 1), min_size=3, max_size=3)))
            cols[i] = [gf.add(a, gf.mul(f, b, q), q) for a, b in zip(cols[i], cols[j])]
    return lat, [tuple(col) for col in cols]


@settings(derandomize=True, deadline=None, max_examples=150)
@given(lattices_with_column_operations())
def test_from_generators_is_invariant_under_unimodular_column_operations(case):
    lat, cols = case
    assert Lattice.from_generators(lat.rank, lat.q, cols) == lat


lattices = lru_cache(maxsize=None)(enumerate_lattices)


@st.composite
def lattice_cosets(draw):
    # a lattice of rank <= 3 and colength <= 3, a vector v and v + sum_i a_i B_i with random a_i
    q = draw(st.sampled_from((2, 3)))
    k = draw(st.integers(1, 3))
    lat = draw(st.sampled_from(lattices(k, draw(st.integers(0, 3)), q)))

    def poly():
        return gf.trim(draw(st.lists(st.integers(0, q - 1), max_size=5)))

    vec = tuple(poly() for _ in range(k))
    return lat, vec, helpers.plus_combination(vec, [poly() for _ in range(k)], lat.cols, q)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(lattice_cosets())
def test_reduction_gives_one_residue_per_coset(case):
    lat, vec, moved = case
    reduced = oracle._reduce(vec, lat.cols, lat.q)
    # row i is a residue modulo the pivot z^(d_i)
    assert all(gf.degree(entry) < d for entry, d in zip(reduced, lat.diag))
    assert oracle._reduce(moved, lat.cols, lat.q) == reduced


@st.composite
def leads_and_diagonals(draw):
    # a lead of rank <= 3 and colength <= 3, and a diagonal above its own of total <= 4
    q = draw(st.sampled_from((2, 3)))
    k = draw(st.integers(1, 3))
    lead = draw(st.sampled_from(lattices(k, draw(st.integers(0, 3)), q)))
    room = 4 - lead.colength
    extra = draw(
        st.lists(st.integers(0, room), min_size=k, max_size=k).filter(lambda e: sum(e) <= room)
    )
    return lead, tuple(d + e for d, e in zip(lead.diag, extra))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(leads_and_diagonals())
def test_sublattices_are_the_contained_lattices_of_the_diagonal(case):
    lead, diag = case
    generated = list(oracle._sublattices(lead.cols, diag, lead.q, oracle._diag_bases(lead.q)))
    expected = {
        lat.cols
        for lat in lattices(lead.rank, sum(diag), lead.q)
        if lat.diag == diag and contains(lead, lat)
    }
    assert len(generated) == len(set(generated))
    assert set(generated) == expected


@st.composite
def floors_within_bounds(draw):
    # rank <= 5, total <= 8, and a floor whose prefix sums stay inside the bounds
    k = draw(st.integers(1, 5))
    bounds = tuple(draw(st.lists(st.integers(0, 8), min_size=k - 1, max_size=k - 1)))
    floor = []
    for j in range(k):
        # prefix sums only grow, so the j-th must stay under every later bound
        cap = min(bounds[j:], default=8)
        floor.append(draw(st.integers(0, cap - sum(floor))))
    # one total below the floor's sum, whose list is empty
    return draw(st.integers(max(sum(floor) - 1, 0), 8)), tuple(floor), bounds


def brute_diagonals(total, floor, bounds):
    k = len(floor)
    return sorted(
        (
            diag
            for diag in product(range(total + 1), repeat=k)
            if sum(diag) == total
            and all(d >= f for d, f in zip(diag, floor))
            and all(sum(diag[:j]) <= bounds[j - 1] for j in range(1, k))
        ),
        key=lambda diag: diag[::-1],
    )


@settings(derandomize=True, deadline=None, max_examples=200)
@given(floors_within_bounds())
def test_bounded_diagonal_walk_lists_what_a_filter_keeps_and_no_dead_branch(case):
    total, floor, bounds = case
    k = len(floor)
    diags = oracle._diagonals(total, floor, bounds)
    assert diags == brute_diagonals(total, floor, bounds)
    if k >= 2:
        # the next layer down, of total bounds[k-2] over D's lead, is never empty
        assert all(oracle._diagonals(bounds[k - 2], diag[:-1], bounds) for diag in diags)
    compositions = oracle._diagonals(total, (0,) * k, (total,) * k)
    assert compositions == brute_diagonals(total, (0,) * k, (total,) * k)
    assert len(compositions) == math.comb(total + k - 1, k - 1)
