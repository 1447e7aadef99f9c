"""Kostant partition counts and their q-analogue polynomials.

K_gamma(t) is the generating polynomial whose coefficient of t^j counts the
coroot partitions kappa of gamma with |gamma| - K(kappa) = j. Evaluating at
t = 1 recovers the plain Kostant partition count; the coefficients are also
the stratum counts of the fiber attached to gamma, graded by dimension. For
a multiset Gamma of degree vectors the fiber polynomial is the product of
the per-part polynomials.

K_gamma(t) is the coefficient of x^gamma in Kostant's generating function
prod_c 1 / (1 - t^{|c|-1} x^c) over the positive coroots c, so it is counted
by a knapsack over the box 0 <= v <= gamma, without listing any partition;
one count yields K_v(t) for every v in the box, and all of them are cached.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Iterable

from .limits import Caps, DEFAULT_CAPS, record, require_int, require_type
from .partitions import GammaPartition
from .roots import GammaVec, _box, _coroots, _require_vector


@record
class IntPolynomial:
    """Polynomial in t with nonnegative integer coefficients.

    coeffs[j] is the coefficient of t^j; trailing zeros are stripped on
    construction so equal polynomials compare equal. The zero polynomial is
    the empty tuple and has degree None. Arithmetic is exact (Python ints),
    so counting can never overflow or wrap.
    """

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        require_type("coeffs", self.coeffs, Iterable)
        coeffs = tuple(self.coeffs)
        # every coefficient before the strip, as 0.0 == 0 and False == 0
        for c in coeffs:
            require_int("coefficient", c, 0)
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def degree(self) -> int | None:
        return len(self.coeffs) - 1 if self.coeffs else None

    def coefficient(self, j: int) -> int:
        require_int("exponent", j, 0)
        return self.coeffs[j] if j < len(self.coeffs) else 0

    def eval_at(self, x: int) -> int:
        require_int("evaluation point", x, 0)
        value = 0
        for c in reversed(self.coeffs):
            value = value * x + c
        return value

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        left, right = self.coeffs, other.coeffs
        # polynomials are immutable, so a product with 1 can be the other factor
        if right == (1,):
            return self
        if left == (1,):
            return other
        if not left or not right:
            return IntPolynomial(())
        out = [0] * (len(left) + len(right) - 1)
        for i, a in enumerate(left):
            if a:
                for j, b in enumerate(right, i):
                    out[j] += a * b
        # the leading coefficients multiply to a nonzero top one
        return _int_polynomial(tuple(out))

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        terms = []
        for j, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if j == 0:
                terms.append(str(c))
            elif j == 1:
                terms.append("t" if c == 1 else f"{c}*t")
            else:
                terms.append(f"t^{j}" if c == 1 else f"{c}*t^{j}")
        return " + ".join(terms)


# for the products and counts, whose coefficients are nonnegative ints with a nonzero last one
_int_polynomial = IntPolynomial._unchecked
ONE = IntPolynomial((1,))


# at least 972: the vectors of the largest box under DEFAULT_CAPS, (2,2,2,2,2,1,1)
KOSTANT_CACHE_SIZE = 4096
# box vector -> K_v(t), oldest count first; at most KOSTANT_CACHE_SIZE entries.
# Every access is one OrderedDict call that cannot fail on a key another
# thread removed, so threads can share it without a lock.
_CACHE: OrderedDict = OrderedDict()


def kostant_poly(gamma: GammaVec, *, caps: Caps = DEFAULT_CAPS) -> IntPolynomial:
    """The q-analogue K_gamma(t), counted over the box below gamma.

    Coefficient of t^j = number of coroot partitions kappa of gamma with
    |gamma| - K(kappa) = j. For gamma = 0 the empty partition gives the
    constant polynomial 1. The degree is at most |gamma| - 1, with equality
    exactly when gamma is itself a positive coroot. A call that misses the
    cache counts K_v(t) for every v <= gamma and caches them (the last
    KOSTANT_CACHE_SIZE of them when the box is larger), so reading
    gamma first makes the reads of the rest of its box cache hits.
    """
    _require_vector("gamma", gamma, caps)
    return _kostant_poly(gamma.coeffs)


def _kostant_poly(coeffs: tuple[int, ...]) -> IntPolynomial:
    # the caller checked the caps
    poly = _CACHE.get(coeffs)
    if poly is None:
        # coeffs comes last, so poly is its K even if the box overflows the cache
        for v, poly in _box_count(coeffs):
            # re-inserted, so that the newest count is evicted last
            _CACHE.pop(v, None)
            _CACHE[v] = poly
            if len(_CACHE) > KOSTANT_CACHE_SIZE:
                _CACHE.popitem(last=False)
    return poly


def _box_count(coeffs: tuple[int, ...]) -> list[tuple[tuple[int, ...], IntPolynomial]]:
    """(v, K_v(t)) for every v in the box 0 <= v <= coeffs, in increasing lex order.

    Bottom-up knapsack on prod_c 1 / (1 - t^{|c|-1} x^c): for each coroot c
    in (q, p) order and each v in increasing order, T[v] += t^{|c|-1} T[v - c].
    T[v - c] already counts the partitions with any number of copies of c.
    """
    vecs, strides = _box(coeffs)
    table: list[list[int]] = [[] for _ in vecs]
    table[0].append(1)
    for c in _coroots(len(coeffs) + 1):
        lo, hi, shift = c.q - 1, c.p, c.p - c.q
        offset = sum(strides[lo:hi])
        for i in range(offset, len(vecs)):
            src = table[i - offset]
            if src and min(vecs[i][lo:hi]):
                dst = table[i]
                if len(dst) < len(src) + shift:
                    dst.extend([0] * (len(src) + shift - len(dst)))
                for j, x in enumerate(src, shift):
                    dst[j] += x
    # every v is a sum of simple coroots, so no entry is zero
    return [(v, _int_polynomial(tuple(t))) for v, t in zip(vecs, table)]


def fiber_poincare(parts: GammaPartition, *, caps: Caps = DEFAULT_CAPS) -> IntPolynomial:
    """Product of K over the parts of a degree-vector partition (1 when empty)."""
    require_type("parts", parts, GammaPartition)
    # checked here too: an empty partition reads no K, so runs no check_rank
    require_type("caps", caps, Caps)
    poly = ONE
    for part in parts.parts:
        poly = poly * kostant_poly(part, caps=caps)
    return poly
