"""Type A coroot bookkeeping for SL(n).

Positive coroots of A_{n-1} are encoded as intervals [p, q] with
1 <= q <= p <= n-1, standing for the sum i_q + i_{q+1} + ... + i_p of
consecutive simple coroots. Degree vectors are GammaVec values holding
nonnegative coefficients on i_1 .. i_{n-1}. All combinatorial indices are
1-based, matching the usual conventions for these objects.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable
from itertools import product
from math import prod

from .limits import Caps, DEFAULT_CAPS, CapExceededError, check_rank, record, require_int, require_type


@record
class Interval:
    """The positive coroot [p, q] = i_q + ... + i_p."""

    p: int
    q: int

    def __post_init__(self) -> None:
        require_int("interval endpoint p", self.p, 1)
        require_int("interval endpoint q", self.q, 1)
        if self.q > self.p:
            raise ValueError(f"interval needs 1 <= q <= p, got p={self.p}, q={self.q}")

    @property
    def length(self) -> int:
        """Number of simple coroots in the sum, p - q + 1."""
        return self.p - self.q + 1

    def __str__(self) -> str:
        return f"[{self.p},{self.q}]"


@record
class GammaVec:
    """Nonnegative coefficient vector on the simple coroots i_1 .. i_{n-1}."""

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        require_type("coeffs", self.coeffs, Iterable)
        coeffs = tuple(self.coeffs)
        object.__setattr__(self, "coeffs", coeffs)
        if not coeffs:
            raise ValueError("coefficient vector is empty (rank must be >= 2)")
        for c in coeffs:
            require_int("coefficient", c, 0)

    @classmethod
    def zero(cls, n: int) -> "GammaVec":
        require_int("rank parameter n", n, 2)
        return cls((0,) * (n - 1))

    @property
    def n(self) -> int:
        """Rank context: the vector lives in the coroot lattice of SL(n)."""
        return len(self.coeffs) + 1

    @property
    def length(self) -> int:
        """|gamma|, the sum of the coefficients."""
        return sum(self.coeffs)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def coeff(self, k: int) -> int:
        """Coefficient of the simple coroot i_k (1-based)."""
        require_int("coordinate index", k, 1)
        if k > len(self.coeffs):
            raise ValueError(f"coordinate index {k} out of range 1..{len(self.coeffs)}")
        return self.coeffs[k - 1]

    def leq(self, other: "GammaVec") -> bool:
        """Componentwise comparison (the dominance order used for beta <= alpha)."""
        self._check_same_rank(other)
        return all(a <= b for a, b in zip(self.coeffs, other.coeffs))

    def __add__(self, other: "GammaVec") -> "GammaVec":
        self._check_same_rank(other)
        return GammaVec(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "GammaVec") -> "GammaVec":
        self._check_same_rank(other)
        return GammaVec(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def scaled(self, c: int) -> "GammaVec":
        require_int("scale factor", c, 0)
        return GammaVec(tuple(c * a for a in self.coeffs))

    def _check_same_rank(self, other: "GammaVec") -> None:
        if len(self.coeffs) != len(other.coeffs):
            raise ValueError("vectors have different rank contexts")

    def __str__(self) -> str:
        return "(" + ",".join(str(c) for c in self.coeffs) + ")"


def _require_vector(name: str, vec: object, caps: Caps, n: int | None = None) -> None:
    """Check a degree vector's type, the rank cap, its rank context n if given, the length cap, in order."""
    require_type(name, vec, GammaVec)
    rank = len(vec.coeffs) + 1
    check_rank(rank if n is None else n, caps)
    if n is not None and rank != n:
        raise ValueError(f"{name} rank context does not match n")
    total = sum(vec.coeffs)
    if total > caps.max_length:
        raise CapExceededError(f"total degree {total} exceeds the length cap {caps.max_length}")


def positive_coroots(n: int, *, caps: Caps = DEFAULT_CAPS) -> list[Interval]:
    """All positive coroots of A_{n-1}, ordered lexicographically by (q, p)."""
    check_rank(n, caps)
    return _coroots(n)


def _coroots(n: int) -> list[Interval]:
    # the order of positive_coroots, with n unchecked
    return [Interval(p, q) for q in range(1, n) for p in range(q, n)]


def _box(coeffs: tuple[int, ...]) -> tuple[list[tuple[int, ...]], list[int]]:
    """The vectors 0 <= v <= coeffs in increasing lex order, and their strides.

    v sits at index sum(v[k] * strides[k]) of the list, so the index order
    is the lex order, and v - w sits at the index of v minus that of w. A
    box of more vectors than an index reaches, sys.maxsize, is refused with
    CapExceededError before it is built.
    """
    size = prod(a + 1 for a in coeffs)
    if size > sys.maxsize:
        box = "(" + ",".join(map(str, coeffs)) + ")"
        raise CapExceededError(f"the box 0 <= v <= {box} holds {size} vectors, more than an index reaches")
    strides = []
    for a in coeffs:
        size //= a + 1
        strides.append(size)
    return list(product(*(range(a + 1) for a in coeffs))), strides


def pairing(k: int, c: Interval) -> int:
    """<omega_k, [p, q]>: 1 when q <= k <= p, else 0."""
    require_int("fundamental weight index", k, 1)
    require_type("coroot", c, Interval)
    return 1 if c.q <= k <= c.p else 0


def interval_to_gamma(c: Interval, n: int) -> GammaVec:
    """Expand the coroot [p, q] on the simple basis of SL(n)."""
    require_int("rank parameter n", n, 2)
    require_type("coroot", c, Interval)
    if c.p > n - 1:
        raise ValueError(f"coroot {c} does not fit in rank n={n}")
    return GammaVec(tuple(1 if c.q <= k <= c.p else 0 for k in range(1, n)))


def gamma_as_coroot(gamma: GammaVec) -> Interval | None:
    """The interval [p, q] with gamma = i_q + ... + i_p, or None.

    A vector is a positive coroot exactly when its coefficients are a single
    contiguous block of 1s.
    """
    require_type("gamma", gamma, GammaVec)
    support = [k for k, c in enumerate(gamma.coeffs, start=1) if c]
    if not support:
        return None
    p, q = support[-1], support[0]
    if len(support) == p - q + 1 and all(gamma.coeffs[k - 1] == 1 for k in support):
        return Interval(p, q)
    return None


def flag_dim(n: int) -> int:
    """Dimension n(n-1)/2 of the full flag variety of SL(n)."""
    require_int("rank parameter n", n, 2)
    return n * (n - 1) // 2
