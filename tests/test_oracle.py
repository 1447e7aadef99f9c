import math
import time
from collections import Counter
from functools import lru_cache
from itertools import accumulate, zip_longest

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
import quasiflags.gfpoly as gf
import quasiflags.oracle as oracle
from quasiflags.limits import CapExceededError, Caps
from quasiflags.oracle import (
    FlagChain,
    Lattice,
    contains,
    coordinate_intersection,
    enumerate_fiber_chains,
    enumerate_lattices,
    fiber_point_count,
    mu_invariants,
    verify_against_kostant,
)
from quasiflags.partitions import Triangle, mu_triangles
from quasiflags.roots import GammaVec


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
    ok = Lattice(2, 2, ((z, ()), (one, z)))
    assert ok.diag == (1, 1)
    assert ok.colength == 2
    # the same span{(z,0),(1,z)} from its lower-triangular basis
    assert ok == Lattice.from_generators(2, 2, [(one, z), ((), (0, 0, 1))])


def test_from_generators_rejects_bad_spans():
    with pytest.raises(ValueError):
        Lattice.from_generators(2, 2, [((1,), ())])  # rank deficient
    with pytest.raises(ValueError):
        Lattice.from_generators(1, 2, [((1, 1),)])  # ideal (1+z) is not z-local
    with pytest.raises(ValueError):
        Lattice.from_generators(2, 2, [((1,), (), ())])  # wrong vector length
    with pytest.raises(ValueError):
        Lattice.from_generators(2, 1, [((1,), (1,)), ((0, 1), (1, 1))])  # q = 1


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


def _checked(lat):
    """lat rebuilt through the checked constructor, which must equal and hash like it."""
    rebuilt = Lattice(lat.rank, lat.q, lat.cols)
    assert rebuilt == lat and hash(rebuilt) == hash(lat)
    return rebuilt


def test_unchecked_buckets_and_chains_equal_their_checked_construction():
    # listed lattices, leading blocks, bucket triangles and chains skip the constructors' checks
    for q in (2, 3):
        for k in (1, 2, 3):
            for c in range(4):
                for lat in enumerate_lattices(k, c, q):
                    _checked(lat)
                    for m in range(1, k + 1):
                        _checked(coordinate_intersection(lat, m))
        for n in (2, 3, 4):
            for gamma in helpers.vectors_with_length_at_most(n, 3):
                for mu in fiber_point_count(n, gamma, q).buckets:
                    assert Triangle(mu.n, mu.kind, mu.rows) == mu
                for chain in enumerate_fiber_chains(n, gamma, q):
                    lattices = tuple(map(_checked, chain.lattices))
                    assert FlagChain(chain.n, chain.q, chain.gamma, lattices) == chain


def test_listing_chains_and_blocks_never_run_the_lattice_checks(monkeypatch):
    def refuse(self):
        raise AssertionError("Lattice.__post_init__ ran")

    monkeypatch.setattr(Lattice, "__post_init__", refuse)
    lats = enumerate_lattices(3, 2, 3)
    blocks = [coordinate_intersection(lat, m) for lat in lats for m in (1, 2, 3)]
    chains = enumerate_fiber_chains(4, GammaVec((1, 2, 1)), 2)
    assert len(set(lats)) == len(lats) > 0 and len(blocks) == 3 * len(lats)
    assert len(chains) == fiber_point_count(4, GammaVec((1, 2, 1)), 2).total > 0
    # the patch is live: the public constructors still run the checks
    with pytest.raises(AssertionError, match="__post_init__ ran"):
        Lattice.full(1, 2)


def test_chain_counts_match_hand_values():
    assert len(enumerate_fiber_chains(2, GammaVec((2,)), 3)) == 1
    assert len(enumerate_fiber_chains(3, GammaVec((1, 1)), 2)) == 3
    assert len(enumerate_fiber_chains(3, GammaVec((1, 1)), 3)) == 4


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


def test_verify_checks_every_cap_before_the_first_chain(monkeypatch):
    def no_lattices(*args):
        raise AssertionError("a lattice was built")

    # every canonical basis the count builds, lead, state or sublattice, comes out of these
    for name in ("_extensions", "_sublattices"):
        monkeypatch.setattr(oracle, name, no_lattices)
    gamma = GammaVec((1, 1))
    with pytest.raises(AssertionError, match="a lattice was built"):
        verify_against_kostant(3, gamma, 2)
    with pytest.raises(CapExceededError, match="length cap 1"):
        verify_against_kostant(3, gamma, 2, caps=Caps(max_length=1))
    with pytest.raises(CapExceededError, match="rank cap 2"):
        verify_against_kostant(3, gamma, 2, caps=Caps(max_rank=2))
    with pytest.raises(CapExceededError, match="volume cap 2"):
        verify_against_kostant(3, gamma, 2, caps=Caps(max_lattice_volume=2))


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
    with pytest.raises(ValueError):
        FlagChain(n=3, q=2, gamma=GammaVec((1, 2)), lattices=ch.lattices)
    with pytest.raises(ValueError):
        FlagChain(n=3, q=2, gamma=GammaVec((1, 1)), lattices=ch.lattices[:1])
    # R^1 is not inside span{(z,0),(0,1)}: the nesting check must fire
    full1 = Lattice.full(1, 2)
    lat_a = next(lat for lat in enumerate_lattices(2, 1, 2) if lat.diag == (1, 0))
    with pytest.raises(ValueError):
        FlagChain(n=3, q=2, gamma=GammaVec((0, 1)), lattices=(full1, lat_a))


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
