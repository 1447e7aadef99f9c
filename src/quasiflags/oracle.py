"""Finite-field lattice oracle: fiber chains over F_q[z], listed and counted by cells.

This module is the package's independent check on the combinatorial
calculus. It lists actual chains of modules over F_q[z] and counts them by
lattice facts, while the partition/polynomial side predicts the counts; the
two share no code beyond the Triangle container, so agreement between them
is evidence, not tautology.

Representation
--------------
Work happens in the free module R^k over R = F_q[z], modelling a vector
bundle near one point (z is the local coordinate). A *lattice* is a
full-rank submodule L of R^k whose quotient R^k/L has finite length and is
killed by a power of z, i.e. all defect is concentrated at z = 0. Its
*colength* is that length, and a colength-c lattice always contains
z^c * R^k.

Every lattice has exactly one canonical basis, stored as the columns of an
upper-triangular k x k matrix B:

  * B[j][j] = z^(d_j), a monic power of z (the pivot of column j);
  * B[i][j] = 0 for i > j (nothing below the pivot);
  * for i < j the entry B[i][j] is reduced modulo the pivot of *row* i,
    i.e. deg B[i][j] < d_i.

The colength is d_1 + ... + d_k. _canonical_columns takes two steps. It
triangularizes any generating set, from the bottom row up gathering each
row into one column by unimodular operations; that entry, made monic, must
be a power of z. Then _reduce reduces each column by those to its left:
from the bottom row up, row i is cut to its residue modulo z^(d_i), and
the quotient times column i comes off the rows above. Listing and
membership use the same reduction, _sublattices on each product column,
and a vector lies in L when it reduces to zero. The form's uniqueness is
proved exhaustively in the test suite against an independent
linear-algebra enumeration of z-stable subspaces, so Lattice checks the
form once: canonicalizing must leave the basis unchanged.

A member of L with zero trailing k - m coordinates has zero coefficients
on the last k - m columns (read the pivots from the bottom row up), so the
leading m x m block is the canonical basis of L n R^m. A rank-k basis is
thus its *lead*, the block for m = k - 1, plus a last column: a pivot z^d
under free residues modulo the lead's pivots. One lister, _diag_bases,
grows the bases of each pivot diagonal this way, for enumerate_lattices and
the chain listing alike. What it lists is canonical by construction, so the
lattices built from it, their leading blocks and the chains skip the checks
that the public constructors keep.

A FlagChain is a sequence L_1 c L_2 c ... c L_{n-1} with L_k of rank k and
prescribed colength c_k, where rank k sits inside rank k+1 as the first k
coordinates, so L_k c L_{k+1} exactly when L_k lies in the lead of L_{k+1}.
Its mu invariants, the colengths of L_p n R^q, are the pivot prefix sums
d_1 + ... + d_q. fiber_point_count buckets chains by mu, under the oracle
caps alone; verify_against_kostant, the one bridge to the partition
calculus, compares the buckets with the predicted counts q^stratum_dim.
The volume cap bounds the lattices of each member's rank and colength:
there are N_k(c) = sum over c' <= c of q^c' N_(k-1)(c') of rank k and
colength c, and _check_volume runs this recurrence once, checking each
rank as it goes and stopping a rank at its first count past the cap.

Counting
--------
x -> B_M x maps R^k onto the lattice M, so the lattices inside M are the
products B_M B_X over all lattices X, each reached once (the
elementary-divisor picture of Macdonald, Symmetric Functions and Hall
Polynomials, ch. II). The product is upper-triangular with pivots
z^(diag M + diag X), so canonicalizing it is the second step alone, _reduce
on each column; M holds q^free(e) lattices of diagonal diag M + e, where
free(e) = sum_i e_i (k-1-i) counts the residues above the pivots of a
basis of diagonal e.
A chain thus runs top-down through pivot diagonals (D_1, ..., D_(n-1)),
D_k >= D_(k+1)[:k] entry by entry and of sum c_k, so d_1 + ... + d_j <= c_j
for j < k; _diagonals lists the D_k under these bounds, none a dead end.
The count builds no lattice: each sequence is one mu bucket (its rows are
the prefix sums of the D_k), a cell of q^dim chains, dim the sum of the
free(D_k - D_(k+1)[:k]); _cells walks these. enumerate_fiber_chains
descends the same cells: L_(n-1) runs over the bases of each D_(n-1), L_k
over the products of each D_k inside the lead of L_(k+1), and the chains
below it are listed once per lead, testing no containment. The count
visits no chain and shares no code with the coroot calculus; each lattice
fact it uses is pinned by a test: canonical-form uniqueness, _sublattices
against contains, and the grid against a lead-tested listing.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import accumulate, product

# before `from . import gfpoly`, so that gfpoly loads by a path -X importtime logs
from .gfpoly import Poly
from . import gfpoly as gf
from .kostant import kostant_poly
from .limits import Caps, DEFAULT_CAPS, CapExceededError, record, require_int, require_rank, require_type
from .partitions import Triangle, _triangle, mu_triangles, stratum_dim
from .roots import GammaVec

Column = tuple[Poly, ...]
Basis = tuple[Column, ...]


_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(q: int) -> bool:
    """Miller-Rabin to the first 13 prime bases.

    Exact for q < 3.3 * 10^24 (Sorenson and Webster, 2015); above that, a
    composite passes only as a strong pseudoprime to all 13 bases.
    """
    if q < 2 or any(q % p == 0 for p in _PRIME_BASES):
        return q in _PRIME_BASES
    s = ((q - 1) & (1 - q)).bit_length() - 1  # q - 1 = d * 2^s with d odd
    for a in _PRIME_BASES:
        x = pow(a, (q - 1) >> s, q)
        if x == 1:
            continue
        for _ in range(s):
            if x == q - 1:
                break
            x = x * x % q
        else:
            return False
    return True


def _require_prime(q: int) -> None:
    # refused before the test, which takes seconds at thousands of bits
    if isinstance(q, int) and q.bit_length() > 1024:
        raise CapExceededError(f"q of {q.bit_length()} bits exceeds the 1024-bit primality limit")
    if not isinstance(q, int) or not _is_prime(q):
        raise ValueError(f"q must be a prime, got {q!r}")


@record
class Lattice:
    """A finite-colength submodule of R^rank in canonical upper-triangular form.

    cols[j][i] is the row-i entry of basis column j. The constructor insists
    on the canonical form, refusing a basis that canonicalizing would change
    (from_generators canonicalizes one), so distinct Lattice values are
    distinct submodules and equality/hashing is structural.
    """

    rank: int
    q: int
    cols: Basis

    def __post_init__(self) -> None:
        require_type("basis", self.cols, tuple)
        # a ragged, short or long basis differs from its span's canonical one too
        canonical = Lattice.from_generators(self.rank, self.q, self.cols).cols
        if canonical != self.cols:
            raise ValueError(f"basis is not canonical; its span's canonical basis is {canonical!r}")

    @property
    def diag(self) -> tuple[int, ...]:
        """Pivot exponents (d_1, ..., d_k)."""
        return _diag(self.cols)

    @property
    def colength(self) -> int:
        return sum(self.diag)

    @classmethod
    def full(cls, rank: int, q: int, *, caps: Caps = DEFAULT_CAPS) -> "Lattice":
        """The ambient module R^rank itself, the one lattice of colength 0, under the listing's caps."""
        return enumerate_lattices(rank, 0, q, caps=caps)[0]

    @classmethod
    def from_generators(cls, rank: int, q: int, vectors) -> "Lattice":
        """Canonicalize any generating set, of tuples, of a full-rank z-local submodule."""
        require_type("vectors", vectors, Iterable)
        vectors = list(vectors)
        _require_lattice(rank, q, vectors)
        return _lattice(rank, q, _canonical_columns(vectors, rank, q))


def _require_lattice(rank: int, q: int, vectors=()) -> None:
    """The Lattice checks on q, the rank and the vectors' entries; canonicalizing needs them first."""
    _require_prime(q)
    require_int("rank", rank, 1)
    for vec in vectors:
        require_type("basis vector", vec, tuple)
        for entry in vec:
            require_type("polynomial", entry, tuple)
            for c in entry:
                require_int("polynomial coefficient", c, 0)
                if c >= q:
                    raise ValueError(f"polynomial coefficient must lie in [0, q), got {c!r}")
            if entry and entry[-1] == 0:
                raise ValueError(f"polynomials must be trimmed, got {entry!r}")


def _diag(cols: Basis) -> tuple[int, ...]:
    return tuple(gf.degree(col[j]) for j, col in enumerate(cols))


def _pivot_row(columns: list[Column], row: int, q: int) -> tuple[Column | None, list[Column]]:
    """Concentrate the row's entries into one column by unimodular combinations.

    Returns (pivot, rest) where pivot carries the gcd of the original row
    entries (None when the row vanishes identically) and every column in
    rest has a zero in the row. The span of the columns is unchanged.
    """
    pivot = None
    rest = []
    for col in columns:
        if not col[row]:
            rest.append(col)
            continue
        if pivot is None:
            pivot = col
            continue
        a, b = pivot[row], col[row]
        g, x, y = gf.xgcd(a, b, q)
        u = gf.divmod_poly(b, g, q)[0]
        v = gf.divmod_poly(a, g, q)[0]
        merged = tuple(
            gf.add(gf.mul(x, pc, q), gf.mul(y, cc, q), q) for pc, cc in zip(pivot, col)
        )
        cleared = tuple(
            gf.sub(gf.mul(u, pc, q), gf.mul(v, cc, q), q) for pc, cc in zip(pivot, col)
        )
        pivot = merged
        rest.append(cleared)
    return pivot, rest


def _canonical_columns(gens: list[Column], k: int, q: int) -> Basis:
    if any(len(col) != k for col in gens):
        raise ValueError("generator length does not match the rank")
    work = list(gens)
    pivots: list[Column] = []
    for row in range(k - 1, -1, -1):
        pivot, work = _pivot_row(work, row, q)
        if pivot is None:
            raise ValueError("generators do not span a full-rank submodule")
        inv = pow(pivot[row][-1], -1, q)
        if inv != 1:
            pivot = tuple(gf.scale(entry, inv, q) for entry in pivot)
        if not gf.is_z_power(pivot[row]):
            raise ValueError("span is not z-local: a pivot ideal is not a power of z")
        pivots.append(pivot)
    basis: list[Column] = []
    for pivot in reversed(pivots):
        basis.append(_reduce(pivot, basis, q))
    return tuple(basis)


def _reduce(col, basis, q: int) -> Column:
    """col modulo the canonical (partial) basis, bottom row first; zero when col lies in its span."""
    v = list(col)
    for i in range(len(basis) - 1, -1, -1):
        d = len(basis[i][i]) - 1
        quo = v[i][d:]
        if quo:
            v[i] = gf.trim(v[i][:d])
            for r in range(i):
                v[r] = gf.sub(v[r], gf.mul(quo, basis[i][r], q), q)
    return tuple(v)


def _diagonals(total: int, floor: tuple[int, ...], bounds: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Diagonals D >= floor of sum total with d_1 + ... + d_j <= bounds[j-1] for j < rank.

    The last pivot increases, then the lead's order. A floor within the bounds
    can put what is left on the last pivot, so no branch comes back empty.
    """
    k = len(floor)
    if k == 1:
        return [(total,)] if total >= floor[0] else []
    return [
        lead + (total - s,)
        for s in range(min(total - floor[-1], bounds[k - 2]), sum(floor[:-1]) - 1, -1)
        for lead in _diagonals(s, floor[:-1], bounds)
    ]


# lattice counts are kept exact below 2^_EXACT_BITS, which has 3,011 digits, under the
# 4,300 that int-to-str conversion allows by default
_EXACT_BITS = 10_000


def _check_volume(colengths: tuple[int, ...], q: int, caps: Caps) -> None:
    """Refuse when rank k has more lattices of colength colengths[k-1] than the volume cap.

    One pass of N_(k+1)(c) = sum over c' <= c of q^c' * N_k(c'), q^c' last
    columns per lead, checks rank k and then grows rank k + 1. N_k(c) grows
    with k and c, so a step stops at its first count past the cap, after at
    most log_q(cap) + 2 terms; the error names the count at colengths[k-1],
    or that first one if the step stopped below it.

    A count of 2^bits or more, bits the larger of _EXACT_BITS and the cap's
    bit length, is kept as 2^bits: a lower bound that is still past the cap.
    A count that reads less is exact, since each count is at least every
    count it sums. So the numbers stay small under a raised rank cap, and
    the error names a count or cap of 2^_EXACT_BITS or more by its bit
    length, since int-to-str refuses numbers of over 4,300 digits.
    """
    cap = caps.max_lattice_volume
    bits = max(_EXACT_BITS, cap.bit_length())
    bound = 1 << bits
    counts = [1] * (max(colengths) + 1)  # rank 1: z^c R is the one lattice of colength c
    for k, colength in enumerate(colengths, start=1):
        at = min(colength, len(counts) - 1)
        if counts[at] > cap:
            big = 1 << _EXACT_BITS
            shown = counts[at] if counts[at] < big else f"at least 2^{counts[at].bit_length() - 1}"
            limit = cap if cap < big else f"of {cap.bit_length()} bits"
            raise CapExceededError(
                f"{shown} lattices of rank {k} and colength {at} exceed the volume cap {limit}"
            )
        total, grown = 0, []
        for c, count in enumerate(counts):
            total += q**c * count
            grown.append(min(total, bound))
            if total > cap:
                break
        counts = grown


def enumerate_lattices(rank: int, colength: int, q: int, *, caps: Caps = DEFAULT_CAPS) -> list[Lattice]:
    """Every lattice of the given rank and colength, each exactly once.

    Lattices are grouped by the colength of their lead, largest first, the
    leads in this order one rank down, and the free last-column entries run
    through all residues modulo the lead's pivots in lexicographic order.
    Because the canonical form is unique, distinct emitted matrices are
    distinct lattices and the list is exhaustive. The bases come by diagonal
    from _diag_bases, as the chain listing reads them, and are built unchecked
    once q, rank and colength pass, then the rank cap (on rank + 1, the n of a
    chain with a member of this rank), the length cap on the colength, and
    the volume cap, which _check_volume checks in one pass over the ranks.
    """
    _require_lattice(rank, q)
    require_int("colength", colength, 0)
    require_type("caps", caps, Caps)
    # a chain of rank n has members of rank up to n - 1, so rank k is admitted with n = k + 1
    if rank + 1 > caps.max_rank:
        raise CapExceededError(f"rank {rank} exceeds the rank cap {caps.max_rank} less one")
    if colength > caps.max_length:
        raise CapExceededError(f"colength {colength} exceeds the length cap {caps.max_length}")
    _check_volume((0,) * (rank - 1) + (colength,), q, caps)
    bases = _diag_bases(q)
    diags = _diagonals(colength, (0,) * rank, (colength,) * rank)
    return [_lattice(rank, q, cols) for diag in diags for cols in bases(diag)]


def contains(outer: Lattice, inner: Lattice) -> bool:
    """Whether every basis vector of inner lies in outer.

    inner may have smaller rank; its vectors are read inside the outer
    module via the first-coordinates embedding, and each lies in outer when
    _reduce takes it, padded with zeros, to zero.
    """
    require_type("outer", outer, Lattice)
    require_type("inner", inner, Lattice)
    if inner.q != outer.q:
        raise ValueError("lattices live over different fields")
    if inner.rank > outer.rank:
        raise ValueError(f"inner rank {inner.rank} exceeds outer rank {outer.rank}")
    return _contains(outer.cols, inner.cols, outer.q)


def _contains(outer: Basis, inner: Basis, q: int) -> bool:
    return not any(any(_reduce(col + (gf.ZERO,) * (len(outer) - len(col)), outer, q)) for col in inner)


def coordinate_intersection(lat: Lattice, m: int) -> Lattice:
    """The lattice L n R^m inside the first m coordinates: the leading m x m block."""
    require_type("lattice", lat, Lattice)
    require_int("coordinate count", m, 1)
    if m > lat.rank:
        raise ValueError(f"coordinate count must be in 1..{lat.rank}, got {m}")
    return _lattice(m, lat.q, tuple(col[:m] for col in lat.cols[:m]))


@record
class FlagChain:
    """A nested chain L_1 c ... c L_{n-1} with colength(L_k) = c_k(gamma)."""

    n: int
    q: int
    gamma: GammaVec
    lattices: tuple[Lattice, ...]

    def __post_init__(self) -> None:
        require_rank(self.n)
        _require_prime(self.q)
        require_type("gamma", self.gamma, GammaVec)
        require_type("lattices", self.lattices, tuple)
        if self.gamma.n != self.n:
            raise ValueError("gamma rank context does not match n")
        if len(self.lattices) != self.n - 1:
            raise ValueError(f"expected {self.n - 1} lattices, got {len(self.lattices)}")
        for k, lat in enumerate(self.lattices, start=1):
            require_type(f"member {k}", lat, Lattice)
            if lat.rank != k:
                raise ValueError(f"member {k} has rank {lat.rank}")
            if lat.q != self.q:
                raise ValueError("chain members live over different fields")
            if lat.colength != self.gamma.coeff(k):
                raise ValueError(
                    f"member {k} has colength {lat.colength}, expected {self.gamma.coeff(k)}"
                )
        for prev, nxt in zip(self.lattices, self.lattices[1:]):
            if not _contains(nxt.cols, prev.cols, self.q):
                raise ValueError("chain members are not nested")


_lattice, _chain = Lattice._unchecked, FlagChain._unchecked


def _check_oracle_caps(n: int, gamma: GammaVec, q: int, caps: Caps) -> None:
    require_type("gamma", gamma, GammaVec)
    _require_prime(q)
    require_rank(n)
    require_type("caps", caps, Caps)
    if gamma.n != n:
        raise ValueError("gamma rank context does not match n")
    if n > caps.oracle_max_rank:
        raise CapExceededError(f"n = {n} exceeds the oracle rank cap {caps.oracle_max_rank}")
    if gamma.length > caps.oracle_max_length:
        raise CapExceededError(
            f"|gamma| = {gamma.length} exceeds the oracle length cap {caps.oracle_max_length}"
        )
    if q not in caps.oracle_primes:
        raise CapExceededError(f"q = {q} is not among the allowed primes {caps.oracle_primes}")
    _check_volume(gamma.coeffs, q, caps)


def enumerate_fiber_chains(
    n: int, gamma: GammaVec, q: int, *, caps: Caps = DEFAULT_CAPS
) -> list[FlagChain]:
    """All flag chains over F_q with colength profile gamma, top-down through the cells.

    Each distinct L_k is built as a Lattice once; the lattices and the chains
    skip the checks.
    """
    _check_oracle_caps(n, gamma, q, caps)
    coeffs = gamma.coeffs
    bases = _diag_bases(q)
    made: dict[Basis, Lattice] = {}
    # lead basis -> the chains L_1 c ... c L_k inside it, k its rank
    memo: dict[Basis, list[tuple[Lattice, ...]]] = {(): [()]}

    def chains(k: int, members) -> list[tuple[Lattice, ...]]:
        # the chains L_1 c ... c L_k whose L_k runs over the rank-k bases members
        found = []
        for cols in members:
            lat = made.get(cols)
            if lat is None:
                lat = made[cols] = _lattice(k, q, cols)
            lead = tuple([col[:-1] for col in cols[:-1]])
            if lead not in memo:
                diags = _diagonals(coeffs[k - 2], _diag(lead), coeffs)
                subs = (sub for diag in diags for sub in _sublattices(lead, diag, q, bases))
                memo[lead] = chains(k - 1, subs)
            found += [below + (lat,) for below in memo[lead]]
        return found

    # L_(n-1) may be any lattice of R^(n-1), listed by diagonal
    top = _diagonals(coeffs[-1], (0,) * (n - 1), coeffs)
    members = (cols for diag in top for cols in bases(diag))
    return [_chain(n, q, gamma, chain) for chain in chains(n - 1, members)]


def _diag_bases(q: int):
    """Canonical bases by diagonal, each lead's under every last column; memoised."""
    memo: dict[tuple[int, ...], list[Basis]] = {(): [()]}

    def bases(diag: tuple[int, ...]) -> list[Basis]:
        if diag not in memo:
            # row i takes every residue modulo z^(d_i), in lexicographic coefficient order
            pools = [[gf.trim(cs) for cs in product(range(q), repeat=d)] for d in diag[:-1]]
            lasts = [above + (gf.monomial(diag[-1]),) for above in product(*pools)]
            grown = [tuple([col + (gf.ZERO,) for col in lead]) for lead in bases(diag[:-1])]
            memo[diag] = [cols + (last,) for cols in grown for last in lasts]
        return memo[diag]

    return bases


def _sublattices(outer: Basis, diag: tuple[int, ...], q: int, bases):
    """Canonical bases of every L in outer with diag(L) = diag, each exactly once.

    L runs once through the products B_outer B_X over the lattices X of
    diagonal diag - diag(outer) (see Counting), each column reduced by _reduce
    modulo the columns to its left: one layer of the chain listing's descent.
    """
    shift = tuple(d - e for d, e in zip(diag, _diag(outer)))
    for inner in bases(shift):
        out: list[Column] = []
        for j, xcol in enumerate(inner):
            col = [gf.ZERO] * len(inner)
            for i, x in enumerate(xcol[: j + 1]):
                if x:
                    for r, entry in enumerate(outer[i][: i + 1]):
                        col[r] = gf.add(col[r], gf.mul(x, entry, q), q)
            out.append(_reduce(col, out, q))
        yield tuple(out)


def mu_invariants(chain: FlagChain) -> Triangle:
    """The mu triangle of a chain: mu_{pq} = colength of L_p n R^q."""
    require_type("chain", chain, FlagChain)
    # L_p n R^q is the leading q x q block, of colength d_1 + ... + d_q
    rows = tuple(tuple(accumulate(lat.diag)) for lat in chain.lattices)
    return _triangle(chain.n, "mu", rows)


@record
class FiberCount:
    """The per-mu bucket counts, in mu order; the chain total is read from them."""

    buckets: dict[Triangle, int]

    def __post_init__(self) -> None:
        require_type("buckets", self.buckets, dict)
        for mu, count in self.buckets.items():
            require_type("bucket mu", mu, Triangle)
            require_int("bucket count", count, 0)

    @property
    def total(self) -> int:
        return sum(self.buckets.values())


_fiber_count = FiberCount._unchecked


def fiber_point_count(
    n: int, gamma: GammaVec, q: int, *, caps: Caps = DEFAULT_CAPS
) -> FiberCount:
    """Count chains and bucket them by mu invariant, under the oracle caps only.

    Buckets are sorted by the entries below the diagonal read column by
    column, the order of mu_triangles, without calling the calculus; a mu
    that no coroot partition predicts is sorted in among the rest, and
    verify_against_kostant reports it.
    """
    _check_oracle_caps(n, gamma, q, caps)
    counts = _mu_row_counts(n, gamma, q)
    # the counts are powers of q by construction
    return _fiber_count(buckets={_triangle(n, "mu", rows): count for rows, count in counts.items()})


def _mu_row_counts(n: int, gamma: GammaVec, q: int) -> dict:
    """The number of chains with each mu, by its rows, in mu order; caps unchecked."""
    dims = dict(_cells(gamma.coeffs))
    # the diagonal is gamma's coefficients, so the entries below it decide the order
    order = sorted(dims, key=lambda rows: [row[j] for j in range(n - 2) for row in rows[j + 1 :]])
    return {rows: q ** dims[rows] for rows in order}


def _cells(coeffs: tuple[int, ...]):
    """Each pivot-diagonal sequence of colengths coeffs, top-down, as (mu rows, cell dim)."""

    def down(k: int, over: tuple[int, ...], rows: tuple, dim: int):
        # D_k lies over D_(k+1)[:k], and q^free(D_k - over) lattices of M have diagonal D_k
        if k == 0:
            yield rows, dim
            return
        for diag in _diagonals(coeffs[k - 1], over, coeffs):
            free = sum((d - o) * (k - 1 - i) for i, (d, o) in enumerate(zip(diag, over)))
            yield from down(k - 1, diag[:-1], (tuple(accumulate(diag)),) + rows, dim + free)

    # L_(n-1) may be any lattice of R^(n-1), whose diagonal is 0
    return down(len(coeffs), (0,) * len(coeffs), (), 0)


@record
class BucketCheck:
    mu: Triangle
    expected: int
    actual: int

    def __post_init__(self) -> None:
        require_int("expected", self.expected, 0)
        require_int("actual", self.actual, 0)

    @property
    def ok(self) -> bool:
        return self.expected == self.actual


_bucket = BucketCheck._unchecked


@record
class OracleReport:
    """Outcome of checking the cell counts (see the oracle docstring) against the predicted values."""

    n: int
    gamma: GammaVec
    q: int
    total_expected: int
    total_actual: int
    unexpected_mu: tuple[Triangle, ...]
    buckets: tuple[BucketCheck, ...]

    def __post_init__(self) -> None:
        require_int("total_expected", self.total_expected, 0)
        require_int("total_actual", self.total_actual, 0)
        require_type("unexpected_mu", self.unexpected_mu, tuple)
        for mu in self.unexpected_mu:
            require_type("unexpected mu", mu, Triangle)
        require_type("buckets", self.buckets, tuple)
        for bucket in self.buckets:
            require_type("bucket", bucket, BucketCheck)

    @property
    def missing_mu(self) -> tuple[Triangle, ...]:
        """The mu of each bucket with no chain, in bucket order.

        A cell holds q^dim >= 1 chains, so a predicted mu has no chain
        exactly when the count has no cell of that mu. Its bucket then
        expects q^stratum_dim >= 1 chains and fails.
        """
        return tuple(b.mu for b in self.buckets if b.actual == 0)

    @property
    def passed(self) -> bool:
        same_total = self.total_expected == self.total_actual
        return not self.unexpected_mu and same_total and all(b.ok for b in self.buckets)


_oracle_report = OracleReport._unchecked


def verify_against_kostant(
    n: int, gamma: GammaVec, q: int, *, caps: Caps = DEFAULT_CAPS
) -> OracleReport:
    """Compare the oracle with the partition calculus, the one bridge between them.

    The oracle caps, once, and then the calculus caps are checked before the
    first chain. Then (a) the chain total must equal K_gamma(q); (b) the bucket
    keys must be exactly the mu triangles of gamma's coroot partitions; (c)
    each bucket must hold q^stratum_dim(mu) chains. Any discrepancy lands in
    the report with its witnesses; nothing is swallowed.
    """
    _check_oracle_caps(n, gamma, q, caps)
    expected_mus = mu_triangles(gamma, caps=caps)
    total_expected = kostant_poly(gamma, caps=caps).eval_at(q)
    # every triangle here has rank n and kind "mu", so the rows identify it
    counts = _mu_row_counts(n, gamma, q)
    expected_rows = {mu.rows for mu in expected_mus}
    unexpected = tuple(_triangle(n, "mu", r) for r in counts if r not in expected_rows)
    # the counts are nonnegative ints by construction
    checks = tuple(
        _bucket(mu=mu, expected=q ** stratum_dim(mu), actual=counts.get(mu.rows, 0)) for mu in expected_mus
    )
    return _oracle_report(
        n=n,
        gamma=gamma,
        q=q,
        total_expected=total_expected,
        total_actual=sum(counts.values()),
        unexpected_mu=unexpected,
        buckets=checks,
    )
