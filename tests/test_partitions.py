import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from quasiflags.kostant import kostant_poly
from quasiflags.limits import CapExceededError, Caps
from quasiflags.partitions import (
    GammaPartition,
    KappaPartition,
    NotInMError,
    Triangle,
    gamma_partitions,
    kappa_partitions,
    kappa_to_nu,
    mu_to_kappa,
    mu_triangles,
    nu_to_mu,
    stratum_dim,
)
from quasiflags.roots import GammaVec, Interval
from quasiflags.strata import smallness_report


def kappa_as_set(kappa):
    return frozenset((c.p, c.q, m) for c, m in kappa.mult)


def test_kappa_listing_rank_three():
    ks = kappa_partitions(GammaVec((1, 1)))
    assert [str(k) for k in ks] == ["[1,1]+[2,2]", "[2,1]"]


def test_kappa_listing_two_two():
    ks = kappa_partitions(GammaVec((2, 2)))
    assert len(ks) == 3
    assert {k.multiplicity(Interval(2, 1)) for k in ks} == {0, 1, 2}


def test_kappa_single_column():
    ks = kappa_partitions(GammaVec((3,)))
    assert len(ks) == 1
    assert ks[0].multiplicity(Interval(1, 1)) == 3
    assert str(ks[0]) == "3*[1,1]"


def test_kappa_zero_vector():
    ks = kappa_partitions(GammaVec((0, 0)))
    assert len(ks) == 1
    assert ks[0].num_parts == 0
    assert str(ks[0]) == "0"


@pytest.mark.parametrize("n", [2, 3, 4])
def test_kappa_matches_brute_force(n):
    for gamma in helpers.vectors_with_length_at_most(n, 4):
        expected = helpers.brute_force_kappa_sets(n, gamma)
        got = {kappa_as_set(k) for k in kappa_partitions(gamma)}
        assert got == expected, gamma


def test_kappa_weights_sum_back():
    for n in (2, 3, 4):
        for gamma in helpers.vectors_with_length_at_most(n, 4):
            for k in kappa_partitions(gamma):
                assert k.gamma == gamma
                assert k.num_parts == sum(m for _, m in k.mult)


def test_kappa_enumeration_deterministic():
    g = GammaVec((2, 1, 1))
    assert kappa_partitions(g) == kappa_partitions(g)


def test_kappa_partition_validation():
    with pytest.raises(ValueError):
        KappaPartition.of(3, {Interval(3, 1): 1})
    with pytest.raises(ValueError):
        KappaPartition(3, ((Interval(1, 1), 0),))
    with pytest.raises(ValueError):
        KappaPartition(3, ((Interval(2, 2), 1), (Interval(1, 1), 1)))
    k = KappaPartition.of(3, {Interval(1, 1): 2, Interval(2, 2): 0})
    assert k.multiplicity(Interval(1, 1)) == 2
    assert k.multiplicity(Interval(2, 2)) == 0


def test_nu_mu_for_single_long_coroot():
    k = KappaPartition.of(3, {Interval(2, 1): 1})
    nu = kappa_to_nu(k)
    assert nu.flat() == [0, 1, 1]
    mu = nu_to_mu(nu)
    assert mu.flat() == [1, 1, 1]


def test_nu_mu_for_two_simples():
    k = KappaPartition.of(3, {Interval(1, 1): 1, Interval(2, 2): 1})
    nu = kappa_to_nu(k)
    assert nu.flat() == [1, 0, 1]
    assert nu_to_mu(nu).flat() == [1, 0, 1]


def test_mu_to_kappa_inverts_hand_cases():
    g = GammaVec((1, 1))
    assert str(mu_to_kappa(Triangle.from_flat(3, "mu", [1, 1, 1]), g)) == "[2,1]"
    assert (
        str(mu_to_kappa(Triangle.from_flat(3, "mu", [1, 0, 1]), g)) == "[1,1]+[2,2]"
    )


def test_mu_to_kappa_rejects_wrong_diagonal():
    with pytest.raises(NotInMError):
        mu_to_kappa(Triangle.from_flat(3, "mu", [0, 1, 1]), GammaVec((1, 1)))


def test_mu_to_kappa_rejects_negative_kappa():
    # mu_21 = 2 > mu_11 = 1 forces kappa_11 < 0
    with pytest.raises(NotInMError):
        mu_to_kappa(Triangle.from_flat(3, "mu", [1, 2, 1]), GammaVec((1, 1)))


def test_round_trip_exhaustive():
    for n in (2, 3, 4):
        for gamma in helpers.vectors_with_length_at_most(n, 4):
            for k in kappa_partitions(gamma):
                mu = nu_to_mu(kappa_to_nu(k))
                assert mu_to_kappa(mu, gamma) == k


@st.composite
def triangles_and_gammas(draw):
    # arbitrary integer entries, some "nu"; gamma is often the clipped diagonal, so kappa is checked too
    n = draw(st.integers(2, 6))
    size = n * (n - 1) // 2
    entries = draw(st.lists(st.one_of(st.integers(-2, 4), st.integers()), min_size=size, max_size=size))
    mu = Triangle.from_flat(n, "nu" if draw(st.integers(0, 9)) == 0 else "mu", entries)
    coeffs = [max(row[-1], 0) for row in mu.rows]
    if draw(st.booleans()):
        coeffs = draw(st.lists(st.integers(0, 4), min_size=n - 1, max_size=n - 1))
    return mu, GammaVec(tuple(coeffs))


def _outcome(inverse, mu, gamma):
    try:
        return inverse(mu, gamma)
    except ValueError as exc:
        return type(exc), str(exc)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(triangles_and_gammas())
def test_mu_to_kappa_matches_the_entrywise_reference(case):
    mu, gamma = case
    assert _outcome(mu_to_kappa, mu, gamma) == _outcome(helpers.mu_to_kappa_reference, mu, gamma)


@st.composite
def gammas_with_a_kappa(draw):
    # n <= 6 and |gamma| <= 7, past the exhaustive grid above
    n = draw(st.integers(2, 6))
    coeffs = draw(
        st.lists(st.integers(0, 7), min_size=n - 1, max_size=n - 1).filter(lambda c: sum(c) <= 7)
    )
    gamma = GammaVec(tuple(coeffs))
    kappas = kappa_partitions(gamma)
    return gamma, kappas[draw(st.integers(0, len(kappas) - 1))]


@settings(derandomize=True, deadline=None)
@given(gammas_with_a_kappa())
def test_round_trip_property(case):
    gamma, k = case
    assert mu_to_kappa(nu_to_mu(kappa_to_nu(k)), gamma) == k


def test_mu_triangles_bijective():
    for n in (2, 3, 4):
        for gamma in helpers.vectors_with_length_at_most(n, 4):
            mus = mu_triangles(gamma)
            assert len(mus) == len(kappa_partitions(gamma))
            assert len(set(mus)) == len(mus)


def test_mu_columns_decrease_and_diagonal_pins():
    for n in (3, 4):
        for gamma in helpers.vectors_with_length_at_most(n, 4):
            for mu in mu_triangles(gamma):
                for q in range(1, n - 1):
                    for p in range(q, n - 1):
                        assert mu.entry(p, q) >= mu.entry(p + 1, q)
                for q in range(1, n):
                    assert mu.entry(q, q) == gamma.coeff(q)
                    assert mu.entry(n - 1, q) >= 0


def test_nu_rows_increase():
    for n in (3, 4):
        for gamma in helpers.vectors_with_length_at_most(n, 4):
            for k in kappa_partitions(gamma):
                nu = kappa_to_nu(k)
                for p in range(1, n):
                    row = [nu.entry(p, q) for q in range(1, p + 1)]
                    assert row[0] >= 0
                    assert all(a <= b for a, b in zip(row, row[1:]))


def test_stratum_dim_complements_num_parts():
    for n in (2, 3, 4):
        for gamma in helpers.vectors_with_length_at_most(n, 4):
            for k in kappa_partitions(gamma):
                mu = nu_to_mu(kappa_to_nu(k))
                assert stratum_dim(mu) + k.num_parts == gamma.length


def test_stratum_dim_rank_two_is_zero():
    for c in range(4):
        (mu,) = mu_triangles(GammaVec((c,)))
        assert stratum_dim(mu) == 0


def test_triangle_shape_validation():
    with pytest.raises(ValueError):
        Triangle(3, "mu", ((1,),))
    with pytest.raises(ValueError):
        Triangle(3, "mu", ((1,), (2,)))
    with pytest.raises(ValueError):
        Triangle(3, "xx", ((1,), (2, 2)))
    with pytest.raises(ValueError):
        Triangle.from_flat(3, "mu", [1, 2])


def test_triangle_flat_round_trip():
    t = Triangle.from_flat(4, "mu", [1, 2, 3, 4, 5, 6])
    assert t.flat() == [1, 2, 3, 4, 5, 6]
    assert t.entry(1, 1) == 1
    assert t.entry(3, 2) == 5
    assert t == Triangle.from_flat(4, "mu", t.flat())
    assert str(t) == "1;2,3;4,5,6"


def test_transform_kind_guards():
    nu = kappa_to_nu(kappa_partitions(GammaVec((1, 1)))[0])
    mu = nu_to_mu(nu)
    with pytest.raises(ValueError):
        nu_to_mu(mu)
    with pytest.raises(ValueError):
        mu_to_kappa(nu, GammaVec((1, 1)))
    with pytest.raises(ValueError):
        stratum_dim(nu)


def test_rank_two_triangles():
    k = KappaPartition.of(2, {Interval(1, 1): 2})
    nu = kappa_to_nu(k)
    assert nu.flat() == [2]
    mu = nu_to_mu(nu)
    assert mu.flat() == [2]
    assert mu_to_kappa(mu, GammaVec((2,))) == k


def test_gamma_partitions_listing():
    got = [str(p) for p in gamma_partitions(GammaVec((1, 1)))]
    assert got == ["(1,1)", "(1,0)+(0,1)"]
    got2 = [[part.coeffs for part in p.parts] for p in gamma_partitions(GammaVec((2,)))]
    assert got2 == [[(2,)], [(1,), (1,)]]


def test_gamma_partitions_zero():
    ps = gamma_partitions(GammaVec((0, 0)))
    assert len(ps) == 1
    assert ps[0].m == 0
    assert str(ps[0]) == "-"


def test_gamma_partitions_count_matches_integer_partitions():
    for m in range(9):
        assert len(gamma_partitions(GammaVec((m,)))) == helpers.integer_partition_count(m)


def test_gamma_partitions_canonical_and_complete():
    for n in (2, 3, 4):
        for alpha in helpers.vectors_with_length_at_most(n, 4):
            seen = set()
            for p in gamma_partitions(alpha):
                assert p.total == alpha
                assert all(not part.is_zero() for part in p.parts)
                keys = [part.coeffs for part in p.parts]
                assert keys == sorted(keys, reverse=True)
                assert p not in seen
                seen.add(p)


@settings(derandomize=True, deadline=None)
@given(helpers.small_alphas())
def test_gamma_partitions_count_and_order(alpha):
    partitions = gamma_partitions(alpha)
    assert len(partitions) == helpers.vector_partition_count(alpha.coeffs)
    keys = [tuple(part.coeffs for part in p.parts) for p in partitions]
    assert all(a > b for a, b in zip(keys, keys[1:]))
    for key in keys:
        assert all(any(part) for part in key)
        assert list(key) == sorted(key, reverse=True)
        assert tuple(map(sum, zip((0,) * len(alpha.coeffs), *key))) == alpha.coeffs


def test_gamma_partitions_share_equal_parts():
    partitions = gamma_partitions(GammaVec((2, 2, 2, 1, 1)))
    parts = [part for p in partitions for part in p.parts]
    # one object per nonzero vector of the box, 3^3 * 2^2 - 1 of them
    assert len({id(part) for part in parts}) == len(set(parts)) == 107


@settings(derandomize=True, deadline=None)
@given(helpers.small_alphas())
def test_mu_triangles_sorted_below_the_diagonal_by_column(alpha):
    keys = [
        [mu.entry(p, q) for q in range(1, mu.n - 1) for p in range(q + 1, mu.n)]
        for mu in mu_triangles(alpha)
    ]
    assert all(a < b for a, b in zip(keys, keys[1:]))


@settings(derandomize=True, deadline=None)
@given(helpers.small_alphas())
def test_mu_triangles_follow_the_reference_order(alpha):
    assert [mu.rows for mu in mu_triangles(alpha)] == helpers.mu_triangles_reference(alpha.n, alpha)


@settings(derandomize=True, deadline=None)
@given(helpers.small_alphas())
def test_kappa_partitions_follow_the_reference_order(alpha):
    got = [tuple((c.p, c.q, m) for c, m in k.mult) for k in kappa_partitions(alpha)]
    assert got == helpers.kappa_partitions_reference(alpha.n, alpha)


def test_unchecked_values_equal_their_checked_construction():
    # mu_triangles and kappa_partitions skip the constructors' checks
    for n in (2, 3, 4, 5):
        for gamma in helpers.vectors_with_length_at_most(n, 4):
            for value in (*kappa_partitions(gamma), *mu_triangles(gamma)):
                helpers.assert_like_checked(value)


@settings(derandomize=True, deadline=None)
@given(helpers.small_alphas())
def test_atlas_values_built_unchecked_behave_as_checked_ones(alpha):
    # the atlas's records, rows, partitions, box vectors and polynomials skip the constructors;
    # the rows hold every record of enumerate_strata
    poly = kostant_poly(alpha)
    values = {id(poly): poly}
    for row in smallness_report(alpha.n, alpha).rows:
        rec = row.record
        for value in (row, rec, rec.beta, rec.parts, rec.fiber_poincare, *rec.parts.parts):
            values[id(value)] = value
    for partition in gamma_partitions(alpha):
        for value in (partition, *partition.parts):
            values[id(value)] = value
    for value in values.values():
        helpers.assert_like_checked(value)


def test_gamma_partition_of_normalizes():
    a = GammaVec((0, 1))
    b = GammaVec((1, 0))
    p = GammaPartition.of(3, [a, b])
    assert p.parts == (b, a)
    with pytest.raises(ValueError):
        GammaPartition(3, (a, b))
    with pytest.raises(ValueError):
        GammaPartition.of(3, [GammaVec((0, 0))])
    with pytest.raises(ValueError):
        GammaPartition.of(3, [GammaVec((1,))])


def test_length_caps():
    with pytest.raises(CapExceededError):
        kappa_partitions(GammaVec((7, 6)))
    with pytest.raises(CapExceededError):
        gamma_partitions(GammaVec((13,)))
    with pytest.raises(CapExceededError):
        kappa_partitions(GammaVec((2, 2)), caps=Caps(max_length=3))
    assert len(kappa_partitions(GammaVec((2, 2)), caps=Caps(max_length=4))) == 3
