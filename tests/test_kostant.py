import pytest
from hypothesis import given, settings

import helpers
from quasiflags import kostant
from quasiflags.kostant import ONE, IntPolynomial, fiber_poincare, kostant_poly
from quasiflags.limits import CapExceededError, Caps
from quasiflags.partitions import GammaPartition, gamma_partitions
from quasiflags.roots import GammaVec, gamma_as_coroot


def test_poly_normalization():
    assert IntPolynomial((1, 0, 0)).coeffs == (1,)
    assert IntPolynomial(()).degree is None
    assert IntPolynomial((0,)).degree is None
    assert IntPolynomial((1, 2)).degree == 1
    with pytest.raises(ValueError):
        IntPolynomial((1, -1))


def test_poly_refuses_non_int_trailing_zeros():
    # each coefficient is checked before the trailing zeros are stripped
    for coeffs in ((1, 0.0), (1, False)):
        with pytest.raises(ValueError, match="coefficient must be a nonnegative integer"):
            IntPolynomial(coeffs)
    assert IntPolynomial((1, 0)).coeffs == (1,)


def test_poly_coefficient_access():
    p = IntPolynomial((1, 2, 1))
    assert p.coefficient(0) == 1
    assert p.coefficient(2) == 1
    assert p.coefficient(5) == 0
    with pytest.raises(ValueError):
        p.coefficient(-1)


def test_poly_mul_and_eval():
    p = IntPolynomial((1, 1))
    assert (p * p).coeffs == (1, 2, 1)
    assert (p * IntPolynomial(())).coeffs == ()
    assert (p * ONE) == p
    assert p.eval_at(3) == 4
    assert IntPolynomial(()).eval_at(5) == 0
    assert IntPolynomial((1, 2, 1)).eval_at(2) == 9
    with pytest.raises(ValueError):
        p.eval_at(-1)
    with pytest.raises(TypeError, match=r"^unsupported operand type\(s\) for \*: 'IntPolynomial' and 'int'$"):
        p * 3


def test_poly_text():
    assert str(IntPolynomial(())) == "0"
    assert str(IntPolynomial((1,))) == "1"
    assert str(IntPolynomial((1, 1))) == "1 + t"
    assert str(IntPolynomial((1, 2, 1))) == "1 + 2*t + t^2"
    assert str(IntPolynomial((0, 0, 3))) == "3*t^2"
    assert str(IntPolynomial((0, 1))) == "t"


def test_hand_values():
    assert str(kostant_poly(GammaVec((1, 1)))) == "1 + t"
    assert str(kostant_poly(GammaVec((2, 2)))) == "1 + t + t^2"
    assert str(kostant_poly(GammaVec((2, 1)))) == "1 + t"
    assert str(kostant_poly(GammaVec((1, 2)))) == "1 + t"
    assert str(kostant_poly(GammaVec((1, 1, 1)))) == "1 + 2*t + t^2"
    for c in range(6):
        assert str(kostant_poly(GammaVec((c,)))) == "1"


def test_zero_vector():
    assert kostant_poly(GammaVec((0, 0))).coeffs == (1,)
    assert helpers.kostant_poly_via_strata(GammaVec((0, 0, 0))).coeffs == (1,)


def test_cached_result_still_obeys_strict_caps():
    gamma = GammaVec((3, 3, 3))
    poly = kostant_poly(gamma, caps=Caps(max_length=9))
    assert poly.eval_at(1) == helpers.kostant_count(4, gamma)
    with pytest.raises(CapExceededError):
        kostant_poly(gamma, caps=Caps(max_length=8))
    with pytest.raises(CapExceededError):
        kostant_poly(gamma, caps=Caps(max_rank=3))


def test_two_paths_agree():
    for n in (2, 3, 4):
        for gamma in helpers.vectors_with_length_at_most(n, 4):
            assert kostant_poly(gamma) == helpers.kostant_poly_via_strata(gamma), gamma


@settings(derandomize=True, deadline=None)
@given(helpers.small_alphas(max_rank=5, max_length=6))
def test_graded_count_matches_the_brute_force_tally(gamma):
    assert kostant_poly(gamma) == helpers.kostant_poly_brute(gamma.n, gamma)


def test_box_larger_than_the_cache():
    gamma = GammaVec((5, 5, 5, 5, 5))
    caps = Caps(max_length=25)
    # 7,776 box vectors: the fill evicts the oldest of them as it goes
    assert 6**5 > kostant.KOSTANT_CACHE_SIZE
    assert kostant_poly(gamma, caps=caps).eval_at(1) == helpers.kostant_count(6, gamma)
    assert len(kostant._CACHE) == kostant.KOSTANT_CACHE_SIZE
    # (4,4,4,4,4) was filled late enough to stay, (1,1,1,1,1) was evicted
    for later in (GammaVec((4, 4, 4, 4, 4)), GammaVec((1, 1, 1, 1, 1))):
        assert kostant_poly(later, caps=caps).eval_at(1) == helpers.kostant_count(6, later)


def test_value_at_one_counts_partitions():
    for n in (2, 3, 4):
        for gamma in helpers.vectors_with_length_at_most(n, 4):
            assert kostant_poly(gamma).eval_at(1) == helpers.kostant_count(n, gamma)


def test_constant_term_is_one():
    for n in (2, 3, 4):
        for gamma in helpers.vectors_with_length_at_most(n, 4):
            p = kostant_poly(gamma)
            assert p.coefficient(0) == 1
            assert all(c >= 0 for c in p.coeffs)


def test_degree_bound_with_equality_iff_coroot():
    for n in (2, 3, 4):
        for gamma in helpers.vectors_with_length_at_most(n, 4):
            if gamma.is_zero():
                continue
            p = kostant_poly(gamma)
            assert p.degree <= gamma.length - 1
            is_coroot = gamma_as_coroot(gamma) is not None
            assert (p.degree == gamma.length - 1) == is_coroot, gamma


def test_fiber_poincare_hand_values():
    empty = GammaPartition.of(3, [])
    assert fiber_poincare(empty) == ONE
    simples = GammaPartition.of(3, [GammaVec((1, 0)), GammaVec((0, 1))])
    assert fiber_poincare(simples).coeffs == (1,)
    doubled = GammaPartition.of(3, [GammaVec((1, 1)), GammaVec((1, 1))])
    assert str(fiber_poincare(doubled)) == "1 + 2*t + t^2"


def test_fiber_degree_is_additive():
    for alpha in helpers.vectors_with_length_at_most(3, 4):
        for parts in gamma_partitions(alpha):
            poly = fiber_poincare(parts)
            want = sum(kostant_poly(p).degree for p in parts.parts) if parts.parts else 0
            assert (poly.degree or 0) == want
            assert poly.coefficient(0) == 1
