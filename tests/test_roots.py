import pytest

from quasiflags.kostant import fiber_poincare, kostant_poly
from quasiflags.limits import CapExceededError, Caps
from quasiflags.oracle import (
    FlagChain,
    Lattice,
    contains,
    coordinate_intersection,
    enumerate_fiber_chains,
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
    kappa_to_nu,
    mu_to_kappa,
    mu_triangles,
    nu_to_mu,
    stratum_dim,
)
from quasiflags.roots import (
    GammaVec,
    Interval,
    flag_dim,
    gamma_as_coroot,
    interval_to_gamma,
    pairing,
    positive_coroots,
)
from quasiflags.strata import enumerate_strata, ic_stalk_table, moduli_dim, parity_check, smallness_report


def test_coroot_count():
    for n in range(2, 9):
        assert len(positive_coroots(n)) == n * (n - 1) // 2


def test_coroot_order_rank_three():
    assert [(c.p, c.q) for c in positive_coroots(3)] == [(1, 1), (2, 1), (2, 2)]


def test_coroot_order_rank_four():
    # (q, p) lexicographic: all intervals starting at 1, then at 2, ...
    got = [(c.p, c.q) for c in positive_coroots(4)]
    assert got == [(1, 1), (2, 1), (3, 1), (2, 2), (3, 2), (3, 3)]


def test_coroots_distinct_and_in_range():
    for n in range(2, 7):
        cs = positive_coroots(n)
        assert len(set(cs)) == len(cs)
        for c in cs:
            assert 1 <= c.q <= c.p <= n - 1


def test_rank_bounds():
    with pytest.raises(CapExceededError):
        positive_coroots(9)
    assert len(positive_coroots(9, caps=Caps(max_rank=9))) == 36
    with pytest.raises(ValueError):
        positive_coroots(1)


def test_pairing_hand_values():
    assert pairing(2, Interval(3, 1)) == 1
    assert pairing(3, Interval(3, 3)) == 1
    assert pairing(1, Interval(3, 2)) == 0
    assert pairing(1, Interval(1, 1)) == 1


def test_pairing_is_expansion_coefficient():
    # <omega_k, c> must equal the k-th coefficient of c written in simples
    for n in range(2, 7):
        for c in positive_coroots(n):
            g = interval_to_gamma(c, n)
            for k in range(1, n):
                assert pairing(k, c) == g.coeff(k)


def test_pairing_rejects_bad_weight_index():
    with pytest.raises(ValueError):
        pairing(0, Interval(2, 1))


def test_interval_to_gamma():
    assert interval_to_gamma(Interval(3, 1), 4).coeffs == (1, 1, 1)
    assert interval_to_gamma(Interval(3, 3), 4).coeffs == (0, 0, 1)
    assert interval_to_gamma(Interval(1, 1), 2).coeffs == (1,)


def test_interval_length():
    for n in range(2, 7):
        for c in positive_coroots(n):
            assert c.length == c.p - c.q + 1
            assert interval_to_gamma(c, n).length == c.length


def test_interval_validation():
    with pytest.raises(ValueError):
        Interval(1, 2)
    with pytest.raises(ValueError):
        Interval(0, 0)
    with pytest.raises(ValueError):
        interval_to_gamma(Interval(3, 1), 3)


def test_gamma_vec_validation():
    with pytest.raises(ValueError):
        GammaVec((1, -1))
    with pytest.raises(ValueError):
        GammaVec(())
    g = GammaVec((1, 2))
    with pytest.raises(ValueError, match=r"^coordinate index 3 out of range 1\.\.2$"):
        g.coeff(3)
    assert g.n == 3
    assert g.length == 3
    assert not g.is_zero()
    assert GammaVec.zero(4).is_zero()
    assert GammaVec.zero(4).n == 4


def test_gamma_vec_arithmetic():
    a = GammaVec((2, 1))
    b = GammaVec((1, 1))
    assert (a + b).coeffs == (3, 2)
    assert (a - b).coeffs == (1, 0)
    assert b.leq(a)
    assert not a.leq(b)
    assert a.scaled(3).coeffs == (6, 3)
    with pytest.raises(ValueError):
        b - a
    with pytest.raises(ValueError):
        a + GammaVec((1, 1, 1))


def test_gamma_as_coroot():
    assert gamma_as_coroot(GammaVec((0, 1, 1))) == Interval(3, 2)
    assert gamma_as_coroot(GammaVec((1,))) == Interval(1, 1)
    assert gamma_as_coroot(GammaVec((1, 0, 1))) is None
    assert gamma_as_coroot(GammaVec((2, 0))) is None
    assert gamma_as_coroot(GammaVec((0, 0))) is None


def test_gamma_as_coroot_round_trip():
    for n in range(2, 7):
        for c in positive_coroots(n):
            assert gamma_as_coroot(interval_to_gamma(c, n)) == c


def test_flag_dim():
    assert flag_dim(2) == 1
    assert flag_dim(3) == 3
    assert flag_dim(4) == 6
    assert flag_dim(5) == 10


def test_every_rank_entry_point_refuses_a_bad_rank_alike():
    from quasiflags.oracle import enumerate_fiber_chains

    for bad in (1, 0, -3, 2.0, 2.5, "3", None, True, False):
        message = f"rank parameter n must be an integer >= 2, got {bad!r}"
        for call in (
            lambda: positive_coroots(bad),
            lambda: interval_to_gamma(Interval(1, 1), bad),
            lambda: flag_dim(bad),
            lambda: enumerate_fiber_chains(bad, GammaVec((1,)), 2),
            # the rank contexts of the value classes
            lambda: GammaPartition(bad, ()),
            lambda: GammaPartition.of(bad, []),
            lambda: KappaPartition(bad, ()),
            lambda: KappaPartition.of(bad, {}),
            lambda: Triangle(bad, "mu", ((1,),)),
            lambda: Triangle.from_flat(bad, "mu", [1]),
            lambda: GammaVec.zero(bad),
        ):
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == message


@pytest.mark.parametrize(
    "call, takes_n",
    [
        pytest.param(lambda n, v, caps: kostant_poly(v, caps=caps), False, id="kostant_poly"),
        pytest.param(lambda n, v, caps: kappa_partitions(v, caps=caps), False, id="kappa_partitions"),
        pytest.param(lambda n, v, caps: mu_triangles(v, caps=caps), False, id="mu_triangles"),
        pytest.param(lambda n, v, caps: gamma_partitions(v, caps=caps), False, id="gamma_partitions"),
        pytest.param(lambda n, v, caps: enumerate_strata(n, v, caps=caps), True, id="enumerate_strata"),
        pytest.param(
            lambda n, v, caps: ic_stalk_table(
                n, v, GammaVec((0,) * (n - 1)), GammaPartition.of(n, []), caps=caps
            ),
            True,
            id="ic_stalk_table",
        ),
    ],
)
def test_degree_vector_checks_run_type_rank_cap_context_length_cap(call, takes_n):
    # (5, 5) of rank 3 fails the rank cap 2 and the length cap 1, and the rank context n = 4
    big, tight = GammaVec((5, 5)), Caps(max_rank=2, max_length=1)
    with pytest.raises(TypeError, match=r"must be a GammaVec, got tuple"):
        call(3, (5, 5), tight)
    with pytest.raises(CapExceededError, match=r"^n = 3 exceeds the rank cap 2$"):
        call(3, big, tight)
    if takes_n:
        with pytest.raises(ValueError, match=r"^alpha rank context does not match n$"):
            call(4, big, Caps(max_length=1))
    with pytest.raises(CapExceededError, match=r"^total degree 10 exceeds the length cap 1$"):
        call(3, big, Caps(max_length=1))


_V, _P = GammaVec((1, 1)), GammaPartition.of(3, [])
_MU = mu_triangles(_V)[0]


@pytest.mark.parametrize(
    "call, cls",
    [
        pytest.param(lambda: kostant_poly((1, 1)), "GammaVec", id="kostant_poly"),
        pytest.param(lambda: fiber_poincare(((1, 1),)), "GammaPartition", id="fiber_poincare"),
        pytest.param(lambda: kappa_partitions((1, 1)), "GammaVec", id="kappa_partitions"),
        pytest.param(lambda: mu_triangles((1, 1)), "GammaVec", id="mu_triangles"),
        pytest.param(lambda: gamma_partitions((1, 1)), "GammaVec", id="gamma_partitions"),
        pytest.param(lambda: fiber_point_count(3, (1, 1), 2), "GammaVec", id="fiber_point_count"),
        pytest.param(lambda: verify_against_kostant(3, (1, 1), 2), "GammaVec", id="verify_against_kostant"),
        pytest.param(lambda: enumerate_fiber_chains(3, (1, 1), 2), "GammaVec", id="enumerate_fiber_chains"),
        pytest.param(lambda: moduli_dim(3, (1, 1)), "GammaVec", id="moduli_dim"),
        pytest.param(lambda: enumerate_strata(3, (1, 1)), "GammaVec", id="enumerate_strata"),
        pytest.param(lambda: smallness_report(3, (1, 1)), "GammaVec", id="smallness_report"),
        pytest.param(lambda: ic_stalk_table(3, (1, 1), _V, _P), "GammaVec", id="ic_stalk_table-alpha"),
        pytest.param(lambda: ic_stalk_table(3, _V, (1, 1), _P), "GammaVec", id="ic_stalk_table-beta"),
        pytest.param(lambda: ic_stalk_table(3, _V, _V, ()), "GammaPartition", id="ic_stalk_table-parts"),
        pytest.param(lambda: mu_to_kappa(_MU, (1, 1)), "GammaVec", id="mu_to_kappa"),
        pytest.param(lambda: mu_to_kappa(((1, 1),), _V), "Triangle", id="mu_to_kappa-mu"),
        pytest.param(lambda: gamma_as_coroot((1, 1)), "GammaVec", id="gamma_as_coroot"),
        pytest.param(lambda: GammaPartition(3, ((1, 1),)), "GammaVec", id="GammaPartition"),
        pytest.param(lambda: GammaPartition.of(3, [(1, 1)]), "GammaVec", id="GammaPartition.of"),
        pytest.param(lambda: interval_to_gamma((1, 1), 3), "Interval", id="interval_to_gamma"),
        pytest.param(lambda: pairing(1, (1, 1)), "Interval", id="pairing"),
        pytest.param(lambda: KappaPartition(3, (((1, 1), 1),)), "Interval", id="KappaPartition"),
        pytest.param(lambda: KappaPartition.of(3, {(1, 1): 1}), "Interval", id="KappaPartition.of"),
        pytest.param(lambda: stratum_dim((1,)), "Triangle", id="stratum_dim"),
        pytest.param(lambda: kappa_to_nu((1,)), "KappaPartition", id="kappa_to_nu"),
        pytest.param(lambda: nu_to_mu((1,)), "Triangle", id="nu_to_mu"),
        pytest.param(lambda: contains((1,), (1,)), "Lattice", id="contains"),
        pytest.param(lambda: coordinate_intersection((1,), 1), "Lattice", id="coordinate_intersection"),
        pytest.param(lambda: mu_invariants((1,)), "FlagChain", id="mu_invariants"),
        pytest.param(lambda: FlagChain(3, 2, (1, 1), ()), "GammaVec", id="FlagChain"),
        pytest.param(lambda: parity_check((1,)), "ICStalkTable", id="parity_check"),
        pytest.param(lambda: enumerate_strata(3, _V, caps=(5,)), "Caps", id="enumerate_strata-caps"),
        pytest.param(lambda: kostant_poly(_V, caps=(5,)), "Caps", id="kostant_poly-caps"),
        pytest.param(lambda: fiber_poincare(_P, caps=(5,)), "Caps", id="fiber_poincare-caps"),
        pytest.param(lambda: fiber_point_count(3, _V, 2, caps=(5,)), "Caps", id="fiber_point_count-caps"),
        pytest.param(lambda: Lattice.full(2, 2, caps=(5,)), "Caps", id="Lattice.full-caps"),
    ],
)
def test_entry_points_refuse_a_plain_tuple_with_a_type_error(call, cls):
    with pytest.raises(TypeError, match=rf"^\w+ must be an? {cls}, got tuple \("):
        call()
