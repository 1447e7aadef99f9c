"""Kostant partition counts and their q-analogue polynomials.

K_gamma(t) is the generating polynomial whose coefficient of t^j counts the
coroot partitions kappa of gamma with |gamma| - K(kappa) = j. Evaluating at
t = 1 recovers the plain Kostant partition count; the coefficients are also
the stratum counts of the fiber attached to gamma, graded by dimension. For
a multiset Gamma of degree vectors the fiber polynomial is the product of
the per-part polynomials.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

from .limits import Caps, DEFAULT_CAPS, check_length, check_rank
from .partitions import GammaPartition, _coroot_multiplicities
from .roots import GammaVec, Interval


@dataclass(frozen=True)
class IntPolynomial:
    """Polynomial in t with nonnegative integer coefficients.

    coeffs[j] is the coefficient of t^j; trailing zeros are stripped on
    construction so equal polynomials compare equal. The zero polynomial is
    the empty tuple and has degree None. Arithmetic is exact (Python ints),
    so counting can never overflow or wrap.
    """

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        coeffs = tuple(self.coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coeffs", coeffs)
        for c in coeffs:
            if not isinstance(c, int) or isinstance(c, bool) or c < 0:
                raise ValueError(f"coefficients must be nonnegative integers, got {c!r}")

    @property
    def degree(self) -> int | None:
        return len(self.coeffs) - 1 if self.coeffs else None

    def coefficient(self, j: int) -> int:
        if j < 0:
            raise ValueError(f"exponent must be nonnegative, got {j}")
        return self.coeffs[j] if j < len(self.coeffs) else 0

    def eval_at(self, x: int) -> int:
        if not isinstance(x, int) or isinstance(x, bool) or x < 0:
            raise ValueError(f"evaluation point must be a nonnegative integer, got {x!r}")
        value = 0
        for c in reversed(self.coeffs):
            value = value * x + c
        return value

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return IntPolynomial(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPolynomial(tuple(out))

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


ONE = IntPolynomial((1,))


# at least 972: the vectors of the largest box under DEFAULT_CAPS, (2,2,2,2,2,1,1)
KOSTANT_CACHE_SIZE = 4096


def kostant_poly(gamma: GammaVec, *, caps: Caps = DEFAULT_CAPS) -> IntPolynomial:
    """The q-analogue K_gamma(t), tallied over coroot partitions.

    Coefficient of t^j = number of kappa with |gamma| - K(kappa) = j. For
    gamma = 0 the empty partition gives the constant polynomial 1. The
    degree is at most |gamma| - 1, with equality exactly when gamma is
    itself a positive coroot.
    """
    check_rank(gamma.n, caps)
    check_length(gamma.length, caps)
    return _kostant_poly(gamma.coeffs)


@lru_cache(maxsize=KOSTANT_CACHE_SIZE)
def _kostant_poly(coeffs: tuple[int, ...]) -> IntPolynomial:
    # the caller checked the caps; coroots in the (q, p) order of positive_coroots
    n, length = len(coeffs) + 1, sum(coeffs)
    coroots = [Interval(p, q) for q in range(1, n) for p in range(q, n)]
    counts = Counter(length - sum(mults) for mults in _coroot_multiplicities(coroots, coeffs))
    return IntPolynomial(tuple(counts[j] for j in range(length + 1)))


def fiber_poincare(parts: GammaPartition, *, caps: Caps = DEFAULT_CAPS) -> IntPolynomial:
    """Product of K over the parts of a degree-vector partition (1 when empty)."""
    poly = ONE
    for part in parts.parts:
        poly = poly * kostant_poly(part, caps=caps)
    return poly
