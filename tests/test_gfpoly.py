from itertools import product

import pytest

import helpers
import quasiflags.gfpoly as gf


def all_polys(max_deg, q):
    return sorted({gf.trim(cs) for cs in product(range(q), repeat=max_deg + 1)})


@pytest.mark.parametrize("q", [2, 3])
def test_ring_identities(q):
    polys = all_polys(2, q)
    for a in polys:
        for b in polys:
            assert gf.add(a, b, q) == gf.add(b, a, q)
            assert gf.sub(gf.add(a, b, q), b, q) == a
            assert gf.mul(a, b, q) == gf.mul(b, a, q)
            assert gf.sub(a, a, q) == gf.ZERO
            assert gf.add(gf.sub(a, b, q), b, q) == a
    small = all_polys(1, q)
    for a in small:
        for b in small:
            for c in small:
                left = gf.mul(a, gf.add(b, c, q), q)
                right = gf.add(gf.mul(a, b, q), gf.mul(a, c, q), q)
                assert left == right
                assert gf.mul(gf.mul(a, b, q), c, q) == gf.mul(a, gf.mul(b, c, q), q)


@pytest.mark.parametrize("q", [2, 3])
def test_degree_rules(q):
    assert gf.degree(gf.ZERO) == -1
    assert gf.degree(gf.ONE) == 0
    for a in all_polys(2, q):
        for b in all_polys(2, q):
            if a and b:
                assert gf.degree(gf.mul(a, b, q)) == gf.degree(a) + gf.degree(b)


@pytest.mark.parametrize("q", [2, 3])
def test_divmod(q):
    polys = all_polys(3, q)
    for a in polys:
        for b in polys:
            if not b:
                continue
            quo, rem = gf.divmod_poly(a, b, q)
            assert gf.add(gf.mul(quo, b, q), rem, q) == a
            assert gf.degree(rem) < gf.degree(b)
    with pytest.raises(ZeroDivisionError):
        gf.divmod_poly((1,), (), q)


@pytest.mark.parametrize("q", [2, 3])
def test_xgcd(q):
    polys = all_polys(2, q)
    for a in polys:
        for b in polys:
            g, x, y = gf.xgcd(a, b, q)
            assert gf.add(gf.mul(x, a, q), gf.mul(y, b, q), q) == g
            if g:
                assert g[-1] == 1  # monic normalization
                assert gf.divmod_poly(a, g, q)[1] == gf.ZERO
                assert gf.divmod_poly(b, g, q)[1] == gf.ZERO
            else:
                assert not a and not b


def test_z_power_helpers():
    assert gf.monomial(0) == (1,)
    assert gf.monomial(2) == (0, 0, 1)
    assert gf.div_z_power((0, 0, 1, 1), 2) == (1, 1)
    assert gf.div_z_power((0, 1), 2) is None
    assert gf.div_z_power((1, 1), 1) is None
    assert gf.div_z_power((), 3) == ()
    assert gf.div_z_power((0, 1), 0) == (0, 1)
    assert gf.is_z_power((0, 1))
    assert gf.is_z_power((1,))
    assert not gf.is_z_power((0, 2))
    assert not gf.is_z_power(())
    assert not gf.is_z_power((1, 1))
    assert helpers.valuation((0, 0, 2)) == 2
    assert helpers.valuation(()) is None
    assert helpers.shift((1,), 2) == (0, 0, 1)
    assert helpers.shift((), 5) == ()


def test_coefficient_reduction():
    assert gf.trim((1, 1, 0, 0)) == (1, 1)
    assert gf.trim((0, 0)) == ()
    assert gf.scale((1, 2), 2, 3) == (2, 1)
    assert gf.scale((1, 2), 0, 3) == ()
