"""Coroot partitions and the mu/nu/kappa triangle calculus.

A KappaPartition writes a degree vector gamma as a multiset of positive
coroots with multiplicities (kappa_{pq} copies of [p, q]). Two triangular
integer arrays are attached to each such partition:

    nu_{pq} = sum over r <= q of kappa_{pr}          (prefix sums in q)
    mu_{pq} = sum over s >= p of nu_{sq}             (suffix sums in p)

both indexed by 1 <= q <= p <= n-1. The passage kappa -> nu -> mu is a
bijection onto its image, inverted entry by entry:

    nu_{pq} = mu_{pq} - mu_{p+1,q},   kappa_{pq} = nu_{pq} - nu_{p,q-1}

(with out-of-range entries read as 0). The mu arrays are the fiber
invariants of flag chains: mu_{pq} records the defect of the p-th chain
member against the q-th coordinate subspace, and the quantity

    stratum_dim(mu) = mu_{21} + mu_{32} + ... + mu_{n-1,n-2}

is the dimension of the corresponding fiber stratum. GammaPartition is the
separate notion of an unordered multiset of nonzero degree vectors summing
to alpha; the two kinds of partition never coerce into each other.

Both partition walks, kappa's by coroot blocks and Gamma's by defects, run
on int tuples with caps checked once at the public entry points; what they
yield skips the checks that the public constructors keep.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable
from itertools import accumulate, compress
from operator import add, sub

from .limits import Caps, DEFAULT_CAPS, record, require_int, require_type
from .roots import GammaVec, Interval, _box, _coroots, _require_vector, interval_to_gamma


class NotInMError(ValueError):
    """A mu triangle that is not the image of any coroot partition of gamma."""


@record
class KappaPartition:
    """A partition of a degree vector into positive coroots.

    mult lists (interval, multiplicity) pairs sorted by (q, p), with all
    multiplicities >= 1; absent coroots have multiplicity 0. The partitioned
    vector is recovered by the gamma property, so consistency is automatic.
    """

    n: int
    mult: tuple[tuple[Interval, int], ...]

    def __post_init__(self) -> None:
        require_int("rank parameter n", self.n, 2)
        require_type("mult", self.mult, tuple)
        keys = []
        for entry in self.mult:
            if type(entry) is not tuple or len(entry) != 2:
                raise TypeError(f"mult entries must be (coroot, multiplicity) pairs, got {entry!r}")
            c, m = entry
            require_type("coroot", c, Interval)
            if c.p > self.n - 1:
                raise ValueError(f"coroot {c} does not fit in rank n={self.n}")
            require_int(f"multiplicity of {c}", m, 1)
            keys.append((c.q, c.p))
        if keys != sorted(keys) or len(set(keys)) != len(keys):
            raise ValueError("mult must be sorted by (q, p) without repeats")

    @classmethod
    def of(cls, n: int, multiplicities: dict[Interval, int]) -> "KappaPartition":
        """Build from an interval -> multiplicity mapping (int zeros dropped)."""
        require_type("multiplicities", multiplicities, dict)
        for c in multiplicities:
            require_type("coroot", c, Interval)
        items = tuple(
            (c, m)
            for c, m in sorted(multiplicities.items(), key=lambda cm: (cm[0].q, cm[0].p))
            if not (type(m) is int and m == 0)
        )
        return cls(n, items)

    def multiplicity(self, c: Interval) -> int:
        for iv, m in self.mult:
            if iv == c:
                return m
        return 0

    @property
    def gamma(self) -> GammaVec:
        total = GammaVec.zero(self.n)
        for c, m in self.mult:
            total = total + interval_to_gamma(c, self.n).scaled(m)
        return total

    @property
    def num_parts(self) -> int:
        """K(kappa), the number of coroots counted with multiplicity."""
        return sum(m for _, m in self.mult)

    def __str__(self) -> str:
        if not self.mult:
            return "0"
        return "+".join(str(c) if m == 1 else f"{m}*{c}" for c, m in self.mult)


@record
class Triangle:
    """Lower-triangular integer array a_{pq}, 1 <= q <= p <= n-1.

    kind is "nu" or "mu" and rows[p-1] holds (a_{p1}, ..., a_{pp}). Only the
    shape is validated here; the order and boundary inequalities satisfied by
    arrays in the image of the partition transforms are theorems about that
    image, not constraints on the container (mu_to_kappa must be able to
    examine arbitrary candidate triangles and reject them).
    """

    n: int
    kind: str
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.kind not in ("mu", "nu"):
            raise ValueError(f'kind must be "mu" or "nu", got {self.kind!r}')
        require_int("rank parameter n", self.n, 2)
        require_type("rows", self.rows, Iterable)
        rows = tuple(self.rows)
        for row in rows:
            require_type("row", row, Iterable)
        rows = tuple(map(tuple, rows))
        object.__setattr__(self, "rows", rows)
        if len(rows) != self.n - 1:
            raise ValueError(f"expected {self.n - 1} rows, got {len(rows)}")
        for p, row in enumerate(rows, start=1):
            if len(row) != p:
                raise ValueError(f"row {p} must have {p} entries, got {len(row)}")
            for a in row:
                require_int("triangle entry", a, None)

    def entry(self, p: int, q: int) -> int:
        """a_{pq} (1-based, q <= p)."""
        require_int("entry row p", p, 1)
        require_int("entry column q", q, 1)
        if q > p or p > self.n - 1:
            raise ValueError(f"no entry at (p={p}, q={q}) for n={self.n}")
        return self.rows[p - 1][q - 1]

    def flat(self) -> list[int]:
        """Row-major flattening [a11, a21, a22, a31, ...]."""
        return [a for row in self.rows for a in row]

    @classmethod
    def from_flat(cls, n: int, kind: str, values) -> "Triangle":
        require_int("rank parameter n", n, 2)
        require_type("values", values, Iterable)
        values = list(values)
        if len(values) != n * (n - 1) // 2:
            raise ValueError(f"expected {n * (n - 1) // 2} entries for n={n}, got {len(values)}")
        rows, pos = [], 0
        for p in range(1, n):
            rows.append(tuple(values[pos : pos + p]))
            pos += p
        return cls(n, kind, tuple(rows))

    def __str__(self) -> str:
        return ";".join(",".join(str(a) for a in row) for row in self.rows)


@record
class GammaPartition:
    """An unordered multiset of nonzero degree vectors, stored sorted.

    Parts are kept in weakly decreasing lexicographic order, which is the
    canonical form used everywhere (hashing, printing, enumeration order).
    The empty partition of 0 is allowed and needs the explicit rank context.
    """

    n: int
    parts: tuple[GammaVec, ...]

    def __post_init__(self) -> None:
        require_int("rank parameter n", self.n, 2)
        require_type("parts", self.parts, tuple)
        for part in self.parts:
            require_type("part", part, GammaVec)
            if part.n != self.n:
                raise ValueError("part rank context does not match the partition")
            if part.is_zero():
                raise ValueError("parts must be nonzero")
        keys = [part.coeffs for part in self.parts]
        if keys != sorted(keys, reverse=True):
            raise ValueError("parts must be sorted in weakly decreasing lexicographic order")

    @classmethod
    def of(cls, n: int, parts) -> "GammaPartition":
        """Build from any iterable of parts, sorting into canonical order."""
        require_type("parts", parts, Iterable)
        parts = tuple(parts)
        for part in parts:
            require_type("part", part, GammaVec)
        ordered = tuple(sorted(parts, key=lambda v: v.coeffs, reverse=True))
        return cls(n, ordered)

    @property
    def m(self) -> int:
        """Number of parts."""
        return len(self.parts)

    @property
    def total(self) -> GammaVec:
        total = GammaVec.zero(self.n)
        for part in self.parts:
            total = total + part
        return total

    def __str__(self) -> str:
        return "+".join(str(p) for p in self.parts) if self.parts else "-"


_gamma_vec, _kappa_partition = GammaVec._unchecked, KappaPartition._unchecked
_triangle, _gamma_partition = Triangle._unchecked, GammaPartition._unchecked


def kappa_partitions(gamma: GammaVec, *, caps: Caps = DEFAULT_CAPS) -> list[KappaPartition]:
    """All partitions of gamma into positive coroots, in kappa order.

    That is largest multiplicities first, in (q, p) order, so the all-simple
    partition (when gamma is supported everywhere) comes first.
    """
    _require_vector("gamma", gamma, caps)
    coroots = _coroots(gamma.n)
    return [
        _kappa_partition(gamma.n, tuple(zip(compress(coroots, mults), filter(None, mults))))
        for mults in _coroot_multiplicities(gamma.coeffs, {})
    ]


def _coroot_multiplicities(remaining: tuple[int, ...], memo: dict) -> list[tuple[int, ...]]:
    """Multiplicity vectors of the coroots, in (q, p) order, summing to remaining.

    The block of coroots [p, q] that start at q is the last to meet coordinate
    q, so its multiplicities sum to exactly the c_q left. It is walked by its
    suffix sums t_p (over [p, q] and longer), which take t_p from coordinate p
    and never strand a later one; the smallest first gives kappa order.
    """
    if len(remaining) == 1:
        return [remaining]
    if remaining not in memo:
        c, rest = remaining[0], remaining[1:]
        memo[remaining] = [
            tuple(map(sub, (c,) + sums, sums + (0,))) + tail
            for sums in _block_sums(c, rest)
            for tail in _coroot_multiplicities(tuple(map(sub, rest, sums)), memo)
        ]
    return memo[remaining]


def _block_sums(bound: int, rest: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Nonincreasing tuples at most bound and rest entry by entry, in increasing lex order."""
    if not rest:
        return [()]
    return [(t,) + tail for t in range(min(bound, rest[0]) + 1) for tail in _block_sums(t, rest[1:])]


def kappa_to_nu(kappa: KappaPartition) -> Triangle:
    """Prefix sums nu_{pq} = kappa_{p1} + ... + kappa_{pq}."""
    require_type("kappa", kappa, KappaPartition)
    mult = dict(kappa.mult)
    mults = [mult.get(c, 0) for c in _coroots(kappa.n)]
    return Triangle(kappa.n, "nu", _nu_rows(mults, _kappa_rows(kappa.n)))


def nu_to_mu(nu: Triangle) -> Triangle:
    """Suffix sums mu_{pq} = nu_{pq} + nu_{p+1,q} + ... + nu_{n-1,q}."""
    require_type("nu", nu, Triangle)
    if nu.kind != "nu":
        raise ValueError(f'expected a "nu" triangle, got kind {nu.kind!r}')
    return Triangle(nu.n, "mu", _mu_rows(nu.rows))


def _kappa_rows(n: int) -> list[list[int]]:
    """Per p, where kappa_{p1}, ..., kappa_{pp} sit among multiplicities in (q, p) order."""
    return [[(q - 1) * n - q * (q - 1) // 2 + p - q for q in range(1, p + 1)] for p in range(1, n)]


def _nu_rows(mults, kappa_rows: list[list[int]]) -> tuple[tuple[int, ...], ...]:
    get = mults.__getitem__
    return tuple([tuple(accumulate(map(get, row))) for row in kappa_rows])


def _mu_rows(nu_rows: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    # row p of mu is row p of nu plus the first p entries of row p + 1 of mu
    return tuple(accumulate(nu_rows[::-1], lambda below, row: tuple(map(add, row, below))))[::-1]


def mu_to_kappa(mu: Triangle, gamma: GammaVec) -> KappaPartition:
    """Invert the triangle transforms, rejecting mu outside the image.

    Differencing is always possible; membership fails exactly when some
    derived kappa_{pq} is negative or some diagonal entry mu_{qq} differs
    from the coefficient c_q of gamma. NotInMError reports the first
    violation found.
    """
    require_type("mu", mu, Triangle)
    require_type("gamma", gamma, GammaVec)
    if mu.kind != "mu":
        raise ValueError(f'expected a "mu" triangle, got kind {mu.kind!r}')
    n = mu.n
    if gamma.n != n:
        raise ValueError("gamma rank context does not match the triangle")
    for q, (row, c) in enumerate(zip(mu.rows, gamma.coeffs), start=1):
        if row[-1] != c:
            raise NotInMError(f"mu_{{{q}{q}}} = {row[-1]} differs from c_{q} = {c}")
    multiplicities: dict[Interval, int] = {}
    for p, (row, below) in enumerate(zip(mu.rows, mu.rows[1:] + ((0,) * n,)), start=1):
        # nu row p is mu row p minus the first p entries of mu row p + 1
        nu = tuple(map(sub, row, below))
        for q, k_pq in enumerate(map(sub, nu, (0,) + nu), start=1):
            if k_pq < 0:
                raise NotInMError(f"derived kappa_{{{p}{q}}} = {k_pq} is negative")
            if k_pq:
                multiplicities[Interval(p, q)] = k_pq
    return KappaPartition.of(n, multiplicities)


def mu_triangles(gamma: GammaVec, *, caps: Caps = DEFAULT_CAPS) -> list[Triangle]:
    """The mu triangles of all coroot partitions of gamma, in kappa order.

    That is increasing order of the entries below the diagonal read column by
    column: multiplicities are tried largest first in (q, p) order, and with
    the earlier ones fixed, mu_{p+1,q} is a fixed amount minus kappa_{pq}.
    """
    _require_vector("gamma", gamma, caps)
    kappa_rows = _kappa_rows(gamma.n)
    return [
        _triangle(gamma.n, "mu", _mu_rows(_nu_rows(mults, kappa_rows)))
        for mults in _coroot_multiplicities(gamma.coeffs, {})
    ]


def stratum_dim(mu: Triangle) -> int:
    """Subdiagonal sum mu_{21} + mu_{32} + ... + mu_{n-1,n-2}.

    Equals |gamma| - K(kappa) for the partition behind mu, and is the fiber
    dimension contributed by the stratum with invariant mu.
    """
    require_type("mu", mu, Triangle)
    if mu.kind != "mu":
        raise ValueError(f'expected a "mu" triangle, got kind {mu.kind!r}')
    return sum(row[-2] for row in mu.rows[1:])


def gamma_partitions(alpha: GammaVec, *, caps: Caps = DEFAULT_CAPS) -> list[GammaPartition]:
    """All multisets of nonzero degree vectors summing to alpha.

    Parts are chosen in weakly decreasing lexicographic order, so each
    multiset appears exactly once; partitions are emitted in decreasing
    lexicographic order of their part sequences, and equal parts are one
    GammaVec. alpha = 0 yields just the empty partition.
    """
    _require_vector("alpha", alpha, caps)
    box, strides = _box(alpha.coeffs)
    vecs = [_gamma_vec(v) for v in box]
    # the part tuples of the partitions of every defect, numbered as _defect_segments numbers them
    flat, lo = [()], 0
    for _, segments in _defect_segments(box, strides):
        lo = len(flat)
        flat += [(vecs[v],) + tail for v, tail_lo, tail_hi in segments for tail in flat[tail_lo:tail_hi]]
    return [_gamma_partition(alpha.n, parts) for parts in flat[lo:]]


def _defect_segments(box: list[tuple[int, ...]], strides: list[int]):
    """(d, segments) per nonzero defect d in the box of roots._box, in increasing lex order.

    Vectors are named by box index, and the partitions of all the defects by
    one numbering: those of each defect in canonical order, the defects in
    increasing order, so that 0 is the empty partition of 0. The partitions
    of d are, for each (v, lo, hi) in segments, part v prepended to each of
    partitions lo to hi - 1: those of d - v from the first whose leading part
    is lex <= v on. As the leading parts along a defect's list do not
    increase, lo is found by bisection. The v walked, in decreasing lex
    order, are the v <= d that are nonzero at d's first nonzero coordinate
    i, and these are exactly the leading parts of d's partitions: such a v
    leads v followed by d - v cut into unit vectors, each lex <= v, while
    every partition of d has a part nonzero at i, lex above any v that is
    zero there. So each segment prepends v to at least one partition, and no
    bisection is spent on a v that leads none.

    The indices of those v are built coordinate by coordinate, one nested
    comprehension per nonzero coordinate of d, each value of a coordinate
    from the largest down; the test reference walks itertools.product.
    """
    # per defect index: the keys, minus v of the run of its list led by v for each segment's v
    # (0 for the empty partition of 0), then 0; and the numbers where those runs start, then
    # the number past its list; end is the number past the last defect's list
    keys, starts, end = [[0, 0]], [[0, 1]], 1
    for d in range(1, len(box)):
        vs = [0]
        for x, s in zip(box[d], strides):
            if x:
                # vs is [0] until d's first nonzero coordinate, where v may not be 0
                vs = [a + b for a in vs for b in range(x * s, -1 if vs[0] else 0, -s)]
        segments, d_starts = [], [end]
        for v in vs:
            t = d - v
            tail_starts = starts[t]
            lo, hi = tail_starts[bisect_left(keys[t], -v)], tail_starts[-1]
            segments.append((v, lo, hi))
            end += hi - lo
            d_starts.append(end)
        keys.append([-v for v in vs] + [0])
        starts.append(d_starts)
        yield d, segments
