import pytest

from quasiflags.limits import CapExceededError, Caps
from quasiflags.roots import (
    GammaVec,
    Interval,
    flag_dim,
    gamma_as_coroot,
    interval_to_gamma,
    pairing,
    positive_coroots,
)


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

    for bad in (1, 0, -3, 2.0, "3", None):
        message = f"rank parameter n must be an integer >= 2, got {bad!r}"
        for call in (
            lambda: positive_coroots(bad),
            lambda: interval_to_gamma(Interval(1, 1), bad),
            lambda: flag_dim(bad),
            lambda: enumerate_fiber_chains(bad, GammaVec((1,)), 2),
        ):
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == message
